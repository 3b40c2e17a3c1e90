//! The evaluation coordinator: a [`WorkPlan`] subset -> task records.
//!
//! Evaluation is organized around the cell-addressed work model
//! (`pcg_core::plan`): the (model × task) grid is enumerated into a
//! [`WorkPlan`] whose cells carry globally stable [`CellId`]s, and the
//! coordinator ([`evaluate_cells_priors`]) executes **any subset** of
//! that plan — the whole grid for a single-process run, one
//! deterministic shard (`id % shard_count`) for a multi-process worker,
//! or an arbitrary gap-fill list for `merge`. Cells are fanned over the
//! scheduler's shared queue (`scheduler::run_grid_prioritized`); every cell draws
//! its sample stream from the model keyed by `(seed, task, model)` —
//! never by worker identity — so the resulting records are
//! byte-identical at any `--jobs` count *and* across any shard
//! topology. One [`SharedRunner`] backs each invocation: executions
//! are deduplicated across concurrent cells, and per-stage times are
//! collected into an [`EvalStats`].
//!
//! Candidate provenance is abstract: every entry point takes any
//! [`CandidateSource`] — a `&[SyntheticModel]` slice (the legacy zoo,
//! byte-for-byte), a `SyntheticSource` crossing the zoo with prompt
//! variants, or a `ReplaySource` re-scoring a dumped pool. The
//! source's [`CandidateSource::config_salt`] is folded into the plan's
//! config hash, so cells from different pools can never be confused.

use crate::config::EvalConfig;
use crate::journal::Replay;
use crate::record::{CellWall, EvalRecord, EvalStats, ModelRecord, TaskRecord};
use crate::runner::{Outcome, SharedRunner};
use crate::scheduler;
use pcg_core::plan::{self, CellId, PlanCell, WorkPlan};
use pcg_core::task::all_tasks;
use pcg_core::{CandidateKind, CostPriors, ExecutionModel, TaskId};
use pcg_metrics::TaskSamples;
use pcg_models::{CandidateSource, SampleSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// The deterministic [`WorkPlan`] for `source`'s rows × `tasks` under
/// `cfg` (pass `None` for the full 420-task grid). Every process that
/// holds the same config and source derives the identical plan — cell
/// ids included — which is what makes sharded execution
/// coordination-free. The source's salt is folded into the plan's
/// config hash ([`crate::journal::config_hash_with`]); the default
/// synthetic path salts nothing and keys exactly as before.
pub fn plan_for<S: CandidateSource + ?Sized>(
    cfg: &EvalConfig,
    source: &S,
    tasks: Option<&[TaskId]>,
) -> WorkPlan {
    let task_list: Vec<TaskId> = match tasks {
        Some(t) => t.to_vec(),
        None => all_tasks().collect(),
    };
    WorkPlan::new(
        crate::journal::config_hash_with(cfg, &source.config_salt()),
        source.model_names(),
        task_list,
    )
}

/// The outcome of evaluating one plan subset: each owned cell paired
/// with its record (plan order), plus the run's statistics.
pub struct SubsetRun {
    /// `(cell, record)` for every cell this invocation owned —
    /// replayed or freshly evaluated — in plan order.
    pub cells: Vec<(PlanCell, TaskRecord)>,
    /// Scheduler/runner statistics for the invocation.
    pub stats: EvalStats,
}

/// Evaluate `source`'s rows over `tasks` (pass `None` for the full
/// 420), serially. [`evaluate_with`] returns the identical record at
/// any worker count.
pub fn evaluate<S: CandidateSource + Sync + ?Sized>(
    cfg: &EvalConfig,
    source: &S,
    tasks: Option<&[TaskId]>,
) -> EvalRecord {
    evaluate_with(cfg, source, tasks, 1, &SharedRunner::new(cfg.clone())).0
}

/// Evaluate on `jobs` workers against a caller-provided
/// [`SharedRunner`] (so tests can share one execution cache across
/// runs), returning the record plus scheduler statistics.
///
/// Panics if an evaluation cell itself panics (candidate panics are
/// captured one layer down and become `error: Some("panic")`; a cell
/// panic means the harness is broken) — but only after the whole grid
/// has drained, so no in-flight work is lost.
pub fn evaluate_with<S: CandidateSource + Sync + ?Sized>(
    cfg: &EvalConfig,
    source: &S,
    tasks: Option<&[TaskId]>,
    jobs: usize,
    runner: &SharedRunner,
) -> (EvalRecord, EvalStats) {
    evaluate_resumable_priors(cfg, source, tasks, jobs, None, runner, &Replay::new(), |_, _, _| {})
}

/// [`evaluate_with`] plus crash-safety hooks and a scheduling cost
/// table, over the whole grid.
///
/// Cells present in `replay` (keyed by [`CellId`], typically recovered
/// from a write-ahead journal) are spliced into the record without
/// being re-evaluated, and `on_cell` runs for every cell that *was*
/// evaluated, as [`evaluate_cells_priors`] describes, so the pipeline
/// can journal it. Because sample streams are keyed by grid
/// coordinates (never by worker identity, time, or which cells ran
/// before), the merged record is byte-identical to an uninterrupted
/// run against the same runner: replayed cells contribute their
/// journaled bytes verbatim and fresh cells recompute exactly what the
/// interrupted run would have produced.
///
/// `priors` only reorders execution (longest expected first); the
/// record is byte-identical with or without them, at any worker count.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_resumable_priors<S: CandidateSource + Sync + ?Sized>(
    cfg: &EvalConfig,
    source: &S,
    tasks: Option<&[TaskId]>,
    jobs: usize,
    priors: Option<&CostPriors>,
    runner: &SharedRunner,
    replay: &Replay,
    on_cell: impl FnMut(CellId, &str, &TaskRecord),
) -> (EvalRecord, EvalStats) {
    let plan = plan_for(cfg, source, tasks);
    let run = evaluate_cells_priors(
        cfg,
        source,
        plan.cells().collect(),
        jobs,
        priors,
        runner,
        replay,
        on_cell,
    );
    let mut records = run.cells.into_iter().map(|(_, rec)| rec);
    let record = assemble(cfg, &plan, |_| records.next().expect("whole grid covered"));
    (record, run.stats)
}

/// The core coordinator: evaluate an explicit subset of plan cells —
/// a whole plan (`plan.cells()`), one shard of it
/// ([`WorkPlan::shard_with`]), or a gap-fill list.
///
/// `source` must be the candidate source the plan was built from
/// (cells index into its rows). Cells found in `replay` are spliced in
/// without re-evaluation; the rest are fanned over the scheduler, and
/// `on_cell` is invoked on the calling thread — in completion order,
/// one cell at a time — for each of them. Results come back in `owned`
/// order regardless of completion order.
///
/// Pending cells are handed to workers in [`plan::dispatch_order`]:
/// model-major, and with a priors table each model row in descending
/// expected cost (ties broken by cell id), the classic LPT
/// list-scheduling discipline within a row, which thieves reverse
/// ([`WorkPlan::steal_order`]). Every cell computes exactly
/// what it would under any other dispatch order. Shard workers must also pass
/// the table to [`WorkPlan::shard_with`], where it changes **which**
/// cells a shard owns; every cooperating worker must use a table with
/// the same hash stamp (or none at all), which the journal header
/// records so the merge can enforce it.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_cells_priors<S: CandidateSource + Sync + ?Sized>(
    cfg: &EvalConfig,
    source: &S,
    owned: Vec<PlanCell>,
    jobs: usize,
    priors: Option<&CostPriors>,
    runner: &SharedRunner,
    replay: &Replay,
    mut on_cell: impl FnMut(CellId, &str, &TaskRecord),
) -> SubsetRun {
    // Row labels are resolved once: they key LPT weights, journal
    // appends, and panic diagnostics. Chaos injection travels inside
    // the [`SampleSpec`] — the source folds the config's
    // containment-defect rates into its failure mixes, an exact no-op
    // at the (0, 0) default.
    let names = source.model_names();

    let n_cells = owned.len();
    let mut slots: Vec<Option<TaskRecord>> = Vec::with_capacity(n_cells);
    let mut pending: Vec<PlanCell> = Vec::new();
    let mut pending_slots: Vec<usize> = Vec::new();
    for (i, cell) in owned.iter().enumerate() {
        match replay.get(&cell.id) {
            Some(r) => slots.push(Some(r.record.clone())),
            None => {
                pending.push(*cell);
                pending_slots.push(i);
                slots.push(None);
            }
        }
    }
    let resumed_cells = n_cells - pending.len();
    let pending_cells = pending.clone();

    // LPT dispatch with priors: within each model row, hand workers
    // the expected-longest cells first.
    let order = plan::dispatch_order(&pending, &names, priors);
    let t0 = Instant::now();
    let results = scheduler::run_grid_prioritized(
        pending,
        jobs,
        Some(order),
        |_, cell| evaluate_task(cfg, runner, source, cell.model, cell.task),
        |local, cell| {
            if let Ok(rec) = &cell.value {
                let c = pending_cells[local];
                on_cell(c.id, &names[c.model], rec);
            }
        },
    );
    let wall_s = t0.elapsed().as_secs_f64();

    let mut cell_walls = Vec::with_capacity(results.len());
    for (local, cell) in results.into_iter().enumerate() {
        cell_walls.push(CellWall {
            cell: pending_cells[local].id.0,
            secs: cell.exec.as_secs_f64(),
        });
        match cell.value {
            Ok(rec) => slots[pending_slots[local]] = Some(rec),
            Err(msg) => {
                let c = pending_cells[local];
                panic!(
                    "evaluation cell {} for model {} task {:?} panicked: {msg}",
                    c.id, names[c.model], c.task,
                );
            }
        }
    }
    let cells: Vec<(PlanCell, TaskRecord)> = owned
        .into_iter()
        .zip(slots)
        .map(|(c, s)| (c, s.expect("every slot filled")))
        .collect();
    cell_walls.sort_by_key(|w| w.cell);

    let stats = EvalStats {
        jobs: jobs.max(1),
        cells: n_cells,
        resumed_cells,
        wall_s,
        cell_walls,
        ..runner.stats()
    };
    SubsetRun { cells, stats }
}

/// Assemble a whole-grid [`EvalRecord`] from per-cell records, pulling
/// each cell's record from `take` in plan (model-major) order. The
/// caller guarantees coverage: single-process runs pass their ordered
/// results, `merge` passes a map filled from shard journals plus
/// gap-fill evaluation.
pub fn assemble(
    cfg: &EvalConfig,
    plan: &WorkPlan,
    mut take: impl FnMut(&PlanCell) -> TaskRecord,
) -> EvalRecord {
    let mut model_records: Vec<ModelRecord> = plan
        .models()
        .iter()
        .map(|name| ModelRecord {
            model: name.clone(),
            tasks: Vec::with_capacity(plan.tasks().len()),
        })
        .collect();
    for cell in plan.cells() {
        model_records[cell.model].tasks.push(take(&cell));
    }
    EvalRecord { config: cfg.clone(), models: model_records }
}

fn evaluate_task<S: CandidateSource + ?Sized>(
    cfg: &EvalConfig,
    runner: &SharedRunner,
    source: &S,
    model: usize,
    task: TaskId,
) -> TaskRecord {
    let headline = task.model.headline_n();
    let spec = |temperature: f64, n: usize| SampleSpec {
        temperature,
        n,
        seed: cfg.seed,
        deadlock_rate: cfg.deadlock_rate,
        stack_hog_rate: cfg.stack_hog_rate,
    };

    // A verdict depends only on `(kind, n)`: ask the runner once per
    // distinct pair, in first-use order, and answer repeats locally.
    let base = runner.with_baseline(task.problem, |b| b.seconds);
    let mut seen: Vec<(CandidateKind, u32, Outcome)> = Vec::new();
    let mut verdict = |kind, n| match seen.iter().find(|e| (e.0, e.1) == (kind, n)) {
        Some(e) => e.2,
        None => {
            let out = runner.outcome(task, kind, n);
            seen.push((kind, n, out));
            out
        }
    };

    // Low-temperature set: correctness + headline performance.
    let kinds_low = source.sample(model, task, &spec(cfg.temp_low, cfg.samples_low));
    let mut low = TaskSamples::default();
    for &kind in &kinds_low {
        let out = verdict(kind, headline);
        low.built.push(out.built);
        low.correct.push(out.correct);
        low.ratio.push(out.ratio(base));
    }

    // High-temperature set: correctness only; the paper excludes the
    // closed-source models from the 200-sample runs for cost.
    let high = if cfg.skip_high_temp || !source.weights_available(model) {
        None
    } else {
        let kinds = source.sample(model, task, &spec(cfg.temp_high, cfg.samples_high));
        let mut high = TaskSamples::default();
        for &kind in &kinds {
            // Correctness is resource-independent; reuse the smallest
            // meaningful resource count to keep the 200-sample set fast.
            let out = verdict(kind, headline.clamp(1, 4));
            high.built.push(out.built);
            high.correct.push(out.correct);
            high.ratio.push(0.0);
        }
        Some(high)
    };

    // Resource sweeps (Figure 5): OpenMP, Kokkos, and MPI only.
    let mut sweep = BTreeMap::new();
    let sweep_models =
        [ExecutionModel::OpenMp, ExecutionModel::Kokkos, ExecutionModel::Mpi];
    if !cfg.skip_sweeps && sweep_models.contains(&task.model) {
        for n in task.model.resource_sweep() {
            let ratios: Vec<f64> =
                kinds_low.iter().map(|&k| verdict(k, n).ratio(base)).collect();
            sweep.insert(n, ratios);
        }
    }

    TaskRecord { task, low, high, sweep }
}

/// The subset of tasks for a quick smoke evaluation: one problem per
/// problem type, all execution models (84 tasks).
pub fn smoke_tasks() -> Vec<TaskId> {
    all_tasks().filter(|t| t.problem.variant == 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::plan::ShardSpec;
    use pcg_core::{ProblemId, ProblemType};
    use pcg_models::SyntheticModel;
    use pcg_problems::framework::fixed_verdict;

    #[test]
    fn smoke_eval_produces_sane_records() {
        let cfg = EvalConfig::smoke();
        let model = SyntheticModel::by_name("CodeLlama-13B").unwrap();
        // Two tasks: one serial, one OpenMP, same easy problem.
        let p = ProblemId::new(ProblemType::Transform, 0);
        let tasks = vec![p.task(ExecutionModel::Serial), p.task(ExecutionModel::OpenMp)];
        let record = evaluate(&cfg, &[model], Some(&tasks));
        assert_eq!(record.models.len(), 1);
        let m = &record.models[0];
        assert_eq!(m.tasks.len(), 2);
        for t in &m.tasks {
            assert_eq!(t.low.len(), cfg.samples_low);
            let high = t.high.as_ref().expect("open models collect the high-temp set");
            assert_eq!(high.len(), cfg.samples_high);
        }
    }

    #[test]
    fn closed_models_skip_high_temp() {
        let cfg = EvalConfig::smoke();
        let gpt = SyntheticModel::by_name("GPT-4").unwrap();
        let open = SyntheticModel::by_name("CodeLlama-7B").unwrap();
        let p = ProblemId::new(ProblemType::Transform, 0);
        let tasks = vec![p.task(ExecutionModel::Serial)];
        let record = evaluate(&cfg, &[gpt, open], Some(&tasks));
        assert!(record.model("GPT-4").unwrap().tasks[0].high.is_none());
        assert!(record.model("CodeLlama-7B").unwrap().tasks[0].high.is_some());
    }

    #[test]
    fn smoke_tasks_cover_all_types_and_models() {
        let tasks = smoke_tasks();
        assert_eq!(tasks.len(), 12 * 7);
    }

    #[test]
    fn parallel_eval_reports_stats() {
        let cfg = EvalConfig::smoke();
        let model = SyntheticModel::by_name("CodeLlama-13B").unwrap();
        let p = ProblemId::new(ProblemType::Transform, 0);
        let tasks: Vec<TaskId> = [
            ExecutionModel::Serial,
            ExecutionModel::OpenMp,
            ExecutionModel::Cuda,
            ExecutionModel::Kokkos,
        ]
        .iter()
        .map(|&m| p.task(m))
        .collect();
        let runner = SharedRunner::new(cfg.clone());
        let (record, stats) =
            evaluate_with(&cfg, &[model], Some(&tasks), 4, &runner);
        assert_eq!(record.models[0].tasks.len(), 4);
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.cells, 4);
        assert!(stats.executions > 0);
        assert!(stats.cache_hits > 0, "shared kinds must dedup executions");
        assert_eq!(stats.panics, 0);
        assert_eq!(stats.timeouts, 0);
        assert!(stats.wall_s > 0.0);
        assert!(stats.run_s > 0.0);
    }

    /// The per-sample reference for [`evaluate_task`]: every sample asks
    /// the runner for its outcome and its ratio, and each `(kind, n)`
    /// requested is logged to `asked`.
    fn reference_task(
        cfg: &EvalConfig,
        runner: &SharedRunner,
        source: &[SyntheticModel],
        model: usize,
        task: TaskId,
        asked: &mut Vec<(CandidateKind, u32)>,
    ) -> TaskRecord {
        let spec = |temperature: f64, n: usize| SampleSpec {
            temperature,
            n,
            seed: cfg.seed,
            deadlock_rate: cfg.deadlock_rate,
            stack_hog_rate: cfg.stack_hog_rate,
        };
        let mut sample = |kind: CandidateKind, n: u32, samples: &mut TaskSamples, timed: bool| {
            asked.push((kind, n));
            let out = runner.outcome(task, kind, n);
            samples.built.push(out.built);
            samples.correct.push(out.correct);
            samples.ratio.push(if timed { runner.ratio(task, kind, n) } else { 0.0 });
        };
        let headline = task.model.headline_n();
        let kinds_low = source.sample(model, task, &spec(cfg.temp_low, cfg.samples_low));
        let mut low = TaskSamples::default();
        for &kind in &kinds_low {
            sample(kind, headline, &mut low, true);
        }
        let high = (!cfg.skip_high_temp && source.weights_available(model)).then(|| {
            let mut high = TaskSamples::default();
            for kind in source.sample(model, task, &spec(cfg.temp_high, cfg.samples_high)) {
                sample(kind, headline.clamp(1, 4), &mut high, false);
            }
            high
        });
        let mut sweep = BTreeMap::new();
        let swept = matches!(task.model, ExecutionModel::OpenMp | ExecutionModel::Kokkos | ExecutionModel::Mpi);
        if !cfg.skip_sweeps && swept {
            for n in task.model.resource_sweep() {
                let mut at_n = TaskSamples::default();
                for &kind in &kinds_low {
                    sample(kind, n, &mut at_n, true);
                }
                sweep.insert(n, at_n.ratio);
            }
        }
        TaskRecord { task, low, high, sweep }
    }

    #[test]
    fn memoised_cells_equal_the_per_sample_reference() {
        let cfg = EvalConfig { skip_sweeps: false, ..EvalConfig::smoke() };
        let models = [
            SyntheticModel::by_name("CodeLlama-7B").unwrap(),
            SyntheticModel::by_name("GPT-4").unwrap(),
        ];
        let p = ProblemId::new(ProblemType::Transform, 0);
        let tasks: Vec<TaskId> = ExecutionModel::ALL.iter().map(|&m| p.task(m)).collect();

        // The whole grid, memoised, against the per-sample reference on
        // the same runner (so both read the same measured runs).
        let runner = SharedRunner::new(cfg.clone());
        let (record, _) = evaluate_with(&cfg, &models, Some(&tasks), 2, &runner);
        assert!(record.models[0].tasks.iter().any(|t| t.high.is_some() && !t.sweep.is_empty()));
        for (m, row) in record.models.iter().enumerate() {
            for got in &row.tasks {
                let want = reference_task(&cfg, &runner, &models, m, got.task, &mut Vec::new());
                assert_eq!(
                    serde_json::to_string(got).unwrap(),
                    serde_json::to_string(&want).unwrap(),
                    "{} {:?}: the per-cell table must not change a byte",
                    row.model,
                    got.task
                );
            }
        }

        // One cell on a fresh runner: one request per distinct
        // non-fixed `(kind, n)`, however many samples share it.
        let t = p.task(ExecutionModel::OpenMp);
        let runner = SharedRunner::new(cfg.clone());
        evaluate_task(&cfg, &runner, &models[..], 0, t);
        let stats = runner.stats();
        let requests = stats.executions - stats.retries + stats.cache_hits;
        let mut asked = Vec::new();
        reference_task(&cfg, &runner, &models, 0, t, &mut asked);
        let mut distinct: Vec<(CandidateKind, u32)> = Vec::new();
        for &(kind, n) in &asked {
            if fixed_verdict(kind).is_none() && !distinct.contains(&(kind, n)) {
                distinct.push((kind, n));
            }
        }
        assert_eq!(requests, distinct.len() as u64);
        assert!(distinct.len() < asked.len(), "the cell repeats some verdicts");
    }

    #[test]
    fn sharded_subsets_reassemble_to_the_unsharded_record() {
        // The in-process shape of the multi-process contract: three
        // disjoint plan shards, each evaluated by its own coordinator
        // call, reassemble into a record byte-identical to the
        // whole-grid evaluation. Byte-identity is the
        // *shared-measurement* guarantee (the discipline
        // `crash_resume` documents): records embed candidate timings,
        // so every phase draws from one [`SharedRunner`]'s execution
        // cache. Partitioning and reassembly themselves must be
        // lossless and ordering-exact.
        let cfg = EvalConfig::smoke();
        let models = [
            SyntheticModel::by_name("CodeLlama-13B").unwrap(),
            SyntheticModel::by_name("GPT-4").unwrap(),
        ];
        let p = ProblemId::new(ProblemType::Transform, 0);
        let tasks: Vec<TaskId> = [
            ExecutionModel::Serial,
            ExecutionModel::OpenMp,
            ExecutionModel::Cuda,
        ]
        .iter()
        .map(|&m| p.task(m))
        .collect();

        let plan = plan_for(&cfg, &models, Some(&tasks));
        let runner = SharedRunner::new(cfg.clone());
        let (whole, _) = evaluate_with(&cfg, &models, Some(&tasks), 2, &runner);

        let mut map = std::collections::HashMap::new();
        for k in 0..3 {
            let spec = ShardSpec::new(k, 3);
            let run = evaluate_cells_priors(
                &cfg, &models, plan.shard(spec), 1, None, &runner, &Replay::new(), |_, _, _| {},
            );
            assert_eq!(run.stats.cells, plan.shard(spec).len());
            for (cell, rec) in run.cells {
                map.insert(cell.id, rec);
            }
        }
        assert_eq!(map.len(), plan.len(), "shards must cover the grid");
        let merged = assemble(&cfg, &plan, |c| map[&c.id].clone());
        assert_eq!(
            serde_json::to_string(&whole).unwrap(),
            serde_json::to_string(&merged).unwrap(),
            "sharded evaluation must reassemble byte-identically"
        );
    }
}
