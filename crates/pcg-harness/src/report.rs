//! Text renderers for every paper table and figure.

use crate::record::{EvalRecord, ModelRecord};
use pcg_core::{ExecutionModel, ProblemType, TaskId};
use pcg_metrics::{efficiency_n_at_k, pass_at_k, speedup_n_at_k};
use std::fmt::Write as _;

/// Mean pass@k over a model's tasks matching `pred`, using the low- or
/// high-temperature sample set.
pub fn mean_pass_at_k(
    model: &ModelRecord,
    pred: impl Fn(TaskId) -> bool,
    k: usize,
    high: bool,
) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for t in &model.tasks {
        if !pred(t.task) {
            continue;
        }
        let samples = if high {
            match &t.high {
                Some(h) => h,
                None => continue,
            }
        } else {
            &t.low
        };
        if samples.is_empty() {
            continue;
        }
        total += pass_at_k(samples.len(), samples.num_correct(), k.min(samples.len()));
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Whether a task participates in performance metrics (the paper's
/// Search exclusion footnote).
pub fn perf_eligible(task: TaskId) -> bool {
    task.problem.ptype != ProblemType::Search
}

/// Headline resource count used for efficiency denominators; for
/// CUDA/HIP the paper uses the kernel thread count, which for our
/// launches is the (padded) workload size.
pub fn headline_resources(rec: &EvalRecord, task: TaskId) -> u32 {
    match task.model {
        ExecutionModel::Cuda | ExecutionModel::Hip => {
            let size = rec
                .config
                .size_for(pcg_problems::registry::problem(task.problem).default_size());
            u32::try_from(size.div_ceil(256) * 256).unwrap_or(u32::MAX)
        }
        m => m.headline_n(),
    }
}

/// Mean speedup_n@1 over a model's perf-eligible tasks matching `pred`.
pub fn mean_speedup(model: &ModelRecord, pred: impl Fn(TaskId) -> bool) -> f64 {
    let ratios: Vec<Vec<f64>> = model
        .tasks
        .iter()
        .filter(|t| pred(t.task) && perf_eligible(t.task) && !t.low.ratio.is_empty())
        .map(|t| t.low.ratio.clone())
        .collect();
    speedup_n_at_k(&ratios, 1)
}

/// Mean efficiency_n@1 with per-task denominators.
pub fn mean_efficiency(rec: &EvalRecord, model: &ModelRecord, pred: impl Fn(TaskId) -> bool) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for t in &model.tasks {
        if !pred(t.task) || !perf_eligible(t.task) || t.low.ratio.is_empty() {
            continue;
        }
        let n = headline_resources(rec, t.task).max(1);
        total += speedup_n_at_k(std::slice::from_ref(&t.low.ratio), 1) / f64::from(n);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Human-readable scheduler stats block (per-stage timing and cache
/// behavior), printed by the pipeline after an uncached run.
pub fn stats_summary(stats: &crate::record::EvalStats) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "[pcgbench] scheduler: {} cells on {} worker{} in {:.2}s wall",
        stats.cells,
        stats.jobs,
        if stats.jobs == 1 { "" } else { "s" },
        stats.wall_s,
    );
    let _ = writeln!(
        s,
        "[pcgbench]   executions: {} ({} cache hits, {} panics, {} timeouts)",
        stats.executions, stats.cache_hits, stats.panics, stats.timeouts,
    );
    let _ = writeln!(
        s,
        "[pcgbench]   stage seconds (summed over workers): baseline {:.2}, run {:.2}, validate {:.2}",
        stats.baseline_s, stats.run_s, stats.validate_s,
    );
    let checkouts = stats.lease_hits + stats.lease_misses;
    if checkouts > 0 {
        let _ = writeln!(
            s,
            "[pcgbench]   warm path: {}/{} lease hits ({:.0}%), {} poisoned, {} input-cache hits, {:.2}s pool setup",
            stats.lease_hits,
            checkouts,
            100.0 * stats.lease_hits as f64 / checkouts as f64,
            stats.pools_poisoned,
            stats.input_cache_hits,
            stats.pool_setup_s,
        );
    }
    if stats.ranks_multiplexed + stats.bytes_zero_copied > 0 {
        let _ = writeln!(
            s,
            "[pcgbench]   mpi transport: {} ranks multiplexed onto fibers, {:.1} MiB moved zero-copy",
            stats.ranks_multiplexed,
            stats.bytes_zero_copied as f64 / (1024.0 * 1024.0),
        );
    }
    if stats.cancelled + stats.abandoned + stats.retries + stats.flaky > 0 {
        let _ = writeln!(
            s,
            "[pcgbench]   hostile candidates: {} cancelled, {} abandoned, {} retried ({} flaky)",
            stats.cancelled, stats.abandoned, stats.retries, stats.flaky,
        );
    }
    if stats.deadlocks_detected + stats.stack_overflows_caught + stats.guard_faults > 0 {
        let _ = writeln!(
            s,
            "[pcgbench]   containment: {} deadlocks failed fast, {} stack overflows caught ({} guard faults)",
            stats.deadlocks_detected, stats.stack_overflows_caught, stats.guard_faults,
        );
    }
    if stats.leak_budget_exhausted {
        let _ = writeln!(
            s,
            "[pcgbench]   WARNING: abandoned-worker budget exhausted during this run — \
             isolated workers blocked on leaked threads; raise max_abandoned or \
             investigate hostile candidates",
        );
    }
    if stats.shard_walls.len() >= 2 {
        let max = stats.shard_walls.iter().copied().fold(0.0f64, f64::max);
        let mean = stats.shard_walls.iter().sum::<f64>() / stats.shard_walls.len() as f64;
        let _ = writeln!(
            s,
            "[pcgbench]   shard balance: {} processes, {:.2}s max / {:.2}s mean wall (imbalance {:.2}x) — \
             the merge gate waits on the max",
            stats.shard_walls.len(),
            max,
            mean,
            if mean > 0.0 { max / mean } else { 1.0 },
        );
    }
    if stats.cells_stolen + stats.steal_conflicts + stats.steal_scans > 0 {
        let _ = writeln!(
            s,
            "[pcgbench]   work stealing: {} cell{} stolen from lagging siblings \
             ({} claim conflicts, {} sibling scans)",
            stats.cells_stolen,
            if stats.cells_stolen == 1 { "" } else { "s" },
            stats.steal_conflicts,
            stats.steal_scans,
        );
    }
    if stats.resumed_cells > 0 {
        let _ = writeln!(
            s,
            "[pcgbench]   resumed: {} cell{} replayed from the journal",
            stats.resumed_cells,
            if stats.resumed_cells == 1 { "" } else { "s" },
        );
    }
    if stats.journal_compactions > 0 {
        let _ = writeln!(
            s,
            "[pcgbench]   journal: {} stale frame{} compacted on resume",
            stats.journal_compactions,
            if stats.journal_compactions == 1 { "" } else { "s" },
        );
    }
    if stats.journal_frames_rejected > 0 {
        let _ = writeln!(
            s,
            "[pcgbench]   journal: {} corrupt frame{} rejected during replay (see stderr for offsets)",
            stats.journal_frames_rejected,
            if stats.journal_frames_rejected == 1 { "" } else { "s" },
        );
    }
    for q in &stats.quarantined {
        let _ = writeln!(
            s,
            "[pcgbench]   quarantined: {:?} kind={} n={} ({})",
            q.task, q.kind, q.n, q.error,
        );
    }
    s
}



/// Table 1: the problem-type catalog, enriched with our five problem
/// function names per type.
pub fn table1() -> String {
    let mut s = header("Table 1: PCGBench problem types");
    for ptype in ProblemType::ALL {
        let _ = writeln!(s, "{:<10} {}", ptype.label(), ptype.description());
        let names: Vec<String> = (0..pcg_core::PROBLEMS_PER_TYPE)
            .map(|v| {
                let id = pcg_core::ProblemId::new(ptype, v);
                pcg_problems::registry::problem(id).prompt().fn_name
            })
            .collect();
        let _ = writeln!(s, "{:<10}   problems: {}", "", names.join(", "));
    }
    s
}

/// Table 2: the model zoo.
pub fn table2() -> String {
    let mut s = header("Table 2: models");
    let _ = writeln!(
        s,
        "{:<20} {:>8} {:>8} {:>20} {:>10} {:>8}",
        "name", "params", "weights", "license", "HumanEval", "MBPP"
    );
    for m in pcg_models::zoo() {
        let c = m.card();
        let _ = writeln!(
            s,
            "{:<20} {:>8} {:>8} {:>20} {:>10.2} {:>8}",
            c.name,
            c.params_b.map(|p| format!("{p}B")).unwrap_or_else(|| "-".into()),
            if c.weights_available { "yes" } else { "no" },
            c.license.unwrap_or("-"),
            c.humaneval_pass1,
            c.mbpp_pass1.map(|p| format!("{p:.1}")).unwrap_or_else(|| "-".into()),
        );
    }
    s
}

/// Figure 1: pass@1 per execution model per LLM.
pub fn figure1(rec: &EvalRecord) -> String {
    let mut s = header("Figure 1: pass@1 per execution model");
    let _ = write!(s, "{:<20}", "model");
    for m in ExecutionModel::ALL {
        let _ = write!(s, "{:>9}", m.label());
    }
    let _ = writeln!(s);
    for model in &rec.models {
        let _ = write!(s, "{:<20}", model.model);
        for exec in ExecutionModel::ALL {
            let v = mean_pass_at_k(model, |t| t.model == exec, 1, false);
            let _ = write!(s, "{:>9.3}", v);
        }
        let _ = writeln!(s);
    }
    s
}

/// Figure 2: pass@1 serial vs parallel per LLM.
pub fn figure2(rec: &EvalRecord) -> String {
    let mut s = header("Figure 2: pass@1 serial vs parallel");
    let _ = writeln!(s, "{:<20}{:>9}{:>9}", "model", "serial", "parallel");
    for model in &rec.models {
        let serial = mean_pass_at_k(model, |t| !t.model.is_parallel(), 1, false);
        let parallel = mean_pass_at_k(model, |t| t.model.is_parallel(), 1, false);
        let _ = writeln!(s, "{:<20}{:>9.3}{:>9.3}", model.model, serial, parallel);
    }
    s
}

/// Figure 3: pass@1 per problem type per LLM.
pub fn figure3(rec: &EvalRecord) -> String {
    let mut s = header("Figure 3: pass@1 per problem type");
    let _ = write!(s, "{:<20}", "model");
    for t in ProblemType::ALL {
        let _ = write!(s, "{:>10}", t.label());
    }
    let _ = writeln!(s);
    for model in &rec.models {
        let _ = write!(s, "{:<20}", model.model);
        for ptype in ProblemType::ALL {
            let v = mean_pass_at_k(model, |t| t.problem.ptype == ptype, 1, false);
            let _ = write!(s, "{:>10.3}", v);
        }
        let _ = writeln!(s);
    }
    s
}

/// Figure 4: pass@k over the parallel prompts for k in {1, 5, 10, 20}
/// (high-temperature set; open models only, as in the paper).
pub fn figure4(rec: &EvalRecord) -> String {
    let mut s = header("Figure 4: pass@k on parallel prompts (temp 0.8 set)");
    let ks = [1usize, 5, 10, 20];
    let _ = write!(s, "{:<20}", "model");
    for k in ks {
        let _ = write!(s, "{:>9}", format!("pass@{k}"));
    }
    let _ = writeln!(s);
    for model in &rec.models {
        if model.tasks.iter().all(|t| t.high.is_none()) {
            continue;
        }
        let _ = write!(s, "{:<20}", model.model);
        for k in ks {
            let v = mean_pass_at_k(model, |t| t.model.is_parallel(), k, true);
            let _ = write!(s, "{:>9.3}", v);
        }
        let _ = writeln!(s);
    }
    s
}

/// Figure 5: efficiency_n@1 across resource counts for MPI, OpenMP and
/// Kokkos.
pub fn figure5(rec: &EvalRecord) -> String {
    let mut s = header("Figure 5: efficiency_n@1 vs resource count");
    for exec in [ExecutionModel::Mpi, ExecutionModel::OpenMp, ExecutionModel::Kokkos] {
        let _ = writeln!(s, "--- {} ---", exec.label());
        let sweep_ns = exec.resource_sweep();
        let _ = write!(s, "{:<20}", "model");
        for n in &sweep_ns {
            let _ = write!(s, "{:>8}", format!("n={n}"));
        }
        let _ = writeln!(s);
        for model in &rec.models {
            let _ = write!(s, "{:<20}", model.model);
            for &n in &sweep_ns {
                let ratios: Vec<Vec<f64>> = model
                    .tasks
                    .iter()
                    .filter(|t| {
                        t.task.model == exec
                            && perf_eligible(t.task)
                            && t.sweep.contains_key(&n)
                    })
                    .map(|t| t.sweep[&n].clone())
                    .collect();
                if ratios.is_empty() {
                    let _ = write!(s, "{:>8}", "-");
                } else {
                    let v = efficiency_n_at_k(&ratios, 1, n);
                    let _ = write!(s, "{:>8.3}", v);
                }
            }
            let _ = writeln!(s);
        }
    }
    s
}

/// Figure 6: speedup_n@1 per execution model per LLM (Search excluded).
pub fn figure6(rec: &EvalRecord) -> String {
    let mut s = header("Figure 6: speedup_n@1 per execution model (Search excluded)");
    let _ = write!(s, "{:<20}", "model");
    for m in ExecutionModel::PARALLEL {
        let _ = write!(s, "{:>9}", m.label());
    }
    let _ = writeln!(s, "{:>9}", "all");
    for model in &rec.models {
        let _ = write!(s, "{:<20}", model.model);
        for exec in ExecutionModel::PARALLEL {
            let v = mean_speedup(model, |t| t.model == exec);
            let _ = write!(s, "{:>9.2}", v);
        }
        let all = mean_speedup(model, |t| t.model.is_parallel());
        let _ = writeln!(s, "{:>9.2}", all);
    }
    s
}

/// Figure 7: efficiency_n@1 for serial and parallel prompts per LLM.
pub fn figure7(rec: &EvalRecord) -> String {
    let mut s = header("Figure 7: efficiency_n@1 (Search excluded)");
    let _ = writeln!(s, "{:<20}{:>9}{:>9}", "model", "serial", "parallel");
    for model in &rec.models {
        let serial = mean_efficiency(rec, model, |t| !t.model.is_parallel());
        let parallel = mean_efficiency(rec, model, |t| t.model.is_parallel());
        let _ = writeln!(s, "{:<20}{:>9.3}{:>9.3}", model.model, serial, parallel);
    }
    s
}

/// Extension artifact: `build@k` per execution model (the paper
/// computes build@k in §7.3 but shows no figure for it).
pub fn build_at_k_table(rec: &EvalRecord, k: usize) -> String {
    let mut s = header(&format!("Extension: build@{k} per execution model"));
    let _ = write!(s, "{:<20}", "model");
    for m in ExecutionModel::ALL {
        let _ = write!(s, "{:>9}", m.label());
    }
    let _ = writeln!(s);
    for model in &rec.models {
        let _ = write!(s, "{:<20}", model.model);
        for exec in ExecutionModel::ALL {
            let mut total = 0.0;
            let mut count = 0usize;
            for t in &model.tasks {
                if t.task.model != exec || t.low.is_empty() {
                    continue;
                }
                total += pass_at_k(t.low.len(), t.low.num_built(), k.min(t.low.len()));
                count += 1;
            }
            if count == 0 {
                let _ = write!(s, "{:>9}", "-");
            } else {
                let _ = write!(s, "{:>9.3}", total / count as f64);
            }
        }
        let _ = writeln!(s);
    }
    s
}

/// Extension artifact: render the prompts of the 420 tasks (the paper's
/// Listing 1 shows one example; this dumps them all).
pub fn prompts(filter: Option<ExecutionModel>) -> String {
    let mut s = String::new();
    for task in pcg_core::task::all_tasks() {
        if let Some(m) = filter {
            if task.model != m {
                continue;
            }
        }
        let spec = pcg_problems::registry::problem(task.problem).prompt();
        let _ = writeln!(s, "// ---- {task} ----");
        let _ = writeln!(s, "{}", pcg_core::prompt::render(&spec, task.model));
    }
    s
}

/// Per-prompt-variant metric rollup: mean pass@1 (serial and
/// parallel) and mean speedup_n@1 across the model rows of each
/// variant present in the record. Single-variant records collapse to
/// one line; `reproduce` prints this block only when the grid actually
/// has a variant axis.
pub fn variant_summary(rec: &EvalRecord) -> String {
    use pcg_core::prompt::split_label;
    use pcg_metrics::MetricSummary;
    // Pool every (row, task) sample set into its variant's bin — the
    // serial and parallel axes separately, since the paper reports
    // them apart — and let the metrics crate do the binning.
    let labeled = |parallel: bool| -> Vec<(pcg_core::PromptVariant, &pcg_metrics::TaskSamples)> {
        rec.models
            .iter()
            .flat_map(|m| {
                let variant = split_label(&m.model).1;
                m.tasks
                    .iter()
                    .filter(move |t| {
                        t.task.model.is_parallel() == parallel
                            && (!parallel || perf_eligible(t.task))
                    })
                    .map(move |t| (variant, &t.low))
            })
            .collect()
    };
    let serial = MetricSummary::compute_grouped(&labeled(false), 1, 1);
    let parallel = MetricSummary::compute_grouped(&labeled(true), 1, 1);
    let mut s = header("Prompt-variant rollup (pooled over model rows)");
    let _ = writeln!(
        s,
        "{:<10}{:>7}{:>9}{:>11}{:>11}",
        "variant", "tasks", "serial", "parallel", "speedup"
    );
    for (variant, par) in &parallel {
        let ser = serial
            .iter()
            .find(|(v, _)| v == variant)
            .map_or(0.0, |(_, m)| m.pass_at_k);
        let _ = writeln!(
            s,
            "{:<10}{:>7}{:>9.3}{:>11.3}{:>11.2}",
            variant.label(),
            par.tasks,
            ser,
            par.pass_at_k,
            par.speedup,
        );
    }
    s
}

/// Paper-vs-measured summary for EXPERIMENTS.md.
pub fn experiments_summary(rec: &EvalRecord) -> String {
    let mut s = header("Paper-reported vs measured");
    let _ = writeln!(
        s,
        "{:<10} {:<24} {:<20} {:>8} {:>9}",
        "artifact", "claim", "model", "paper", "measured"
    );
    // Claims about models this record never evaluated (a subset or
    // replay source) are dropped rather than printed as dashes.
    for c in crate::expected::claims()
        .into_iter()
        .filter(|c| rec.model(c.model).is_some())
    {
        let measured = match (c.artifact, c.claim) {
            ("Figure 2", "serial pass@1") => rec
                .model(c.model)
                .map(|m| mean_pass_at_k(m, |t| !t.model.is_parallel(), 1, false)),
            ("Figure 2", "parallel pass@1") => rec
                .model(c.model)
                .map(|m| mean_pass_at_k(m, |t| t.model.is_parallel(), 1, false)),
            ("Figure 1", "OpenMP pass@1") => rec
                .model(c.model)
                .map(|m| mean_pass_at_k(m, |t| t.model == ExecutionModel::OpenMp, 1, false)),
            ("Figure 4", "parallel pass@20") => rec
                .model(c.model)
                .map(|m| mean_pass_at_k(m, |t| t.model.is_parallel(), 20, true)),
            ("Figure 6", "parallel speedup_n@1") => {
                rec.model(c.model).map(|m| mean_speedup(m, |t| t.model.is_parallel()))
            }
            ("Figure 7", "parallel efficiency_n@1") => {
                rec.model(c.model).map(|m| mean_efficiency(rec, m, |t| t.model.is_parallel()))
            }
            _ => None,
        };
        let _ = writeln!(
            s,
            "{:<10} {:<24} {:<20} {:>8.2} {:>9}",
            c.artifact,
            c.claim,
            c.model,
            c.value,
            measured.map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into()),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::record::TaskRecord;
    use pcg_core::ProblemId;
    use pcg_metrics::TaskSamples;

    fn tiny_record() -> EvalRecord {
        let t_serial = ProblemId::new(ProblemType::Transform, 0).task(ExecutionModel::Serial);
        let t_omp = ProblemId::new(ProblemType::Transform, 0).task(ExecutionModel::OpenMp);
        EvalRecord {
            config: EvalConfig::smoke(),
            models: vec![ModelRecord {
                model: "GPT-4".into(),
                tasks: vec![
                    TaskRecord {
                        task: t_serial,
                        low: TaskSamples {
                            built: vec![true, true],
                            correct: vec![true, true],
                            ratio: vec![1.0, 1.0],
                        },
                        high: None,
                        sweep: Default::default(),
                    },
                    TaskRecord {
                        task: t_omp,
                        low: TaskSamples {
                            built: vec![true, false],
                            correct: vec![true, false],
                            ratio: vec![8.0, 0.0],
                        },
                        high: None,
                        sweep: Default::default(),
                    },
                ],
            }],
        }
    }

    #[test]
    fn pass1_splits_serial_and_parallel() {
        let rec = tiny_record();
        let m = &rec.models[0];
        assert!((mean_pass_at_k(m, |t| !t.model.is_parallel(), 1, false) - 1.0).abs() < 1e-12);
        assert!((mean_pass_at_k(m, |t| t.model.is_parallel(), 1, false) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn speedup_excludes_search() {
        let rec = tiny_record();
        let m = &rec.models[0];
        let v = mean_speedup(m, |t| t.model.is_parallel());
        assert!((v - 4.0).abs() < 1e-12, "mean of [8, 0] at k=1 is 4");
    }

    #[test]
    fn figures_render_nonempty() {
        let rec = tiny_record();
        for text in [
            table1(),
            table2(),
            figure1(&rec),
            figure2(&rec),
            figure3(&rec),
            figure4(&rec),
            figure5(&rec),
            figure6(&rec),
            figure7(&rec),
            experiments_summary(&rec),
        ] {
            assert!(text.len() > 40, "{text}");
        }
    }

    #[test]
    fn build_at_k_table_renders() {
        let rec = tiny_record();
        let t = build_at_k_table(&rec, 1);
        assert!(t.contains("GPT-4"));
        assert!(t.contains("build@1"));
    }

    #[test]
    fn prompts_render_for_all_tasks() {
        let all = prompts(None);
        // 420 prompt headers.
        assert_eq!(all.matches("// ---- ").count(), 420);
        assert!(all.contains("partialMinimums"));
        let kokkos_only = prompts(Some(ExecutionModel::Kokkos));
        assert_eq!(kokkos_only.matches("// ---- ").count(), 60);
        assert!(kokkos_only.contains("parallel patterns"));
    }

    #[test]
    fn gpu_headline_resources_track_size() {
        let rec = tiny_record();
        let t = ProblemId::new(ProblemType::Transform, 0).task(ExecutionModel::Cuda);
        let n = headline_resources(&rec, t);
        assert!(n >= 256);
        assert_eq!(n % 256, 0);
    }
}
