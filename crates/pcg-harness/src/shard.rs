//! Multi-process sharded evaluation: shard workers and the merge step.
//!
//! The (model × task) grid is partitioned by cell address
//! (`CellId % shard_count`, see `pcg_core::plan`), so any number of
//! worker processes can each run `--shard k/N` with **no coordination
//! beyond the shared configuration**: every worker derives the
//! identical [`WorkPlan`] and owns a disjoint, exhaustive slice of it.
//!
//! A worker's output is its cell-addressed write-ahead journal (plus an
//! [`EvalStats`] sidecar) — the same journal format a single-process
//! run keeps for crash safety, just scoped to the shard. That means
//! every durability property composes for free: a killed worker
//! resumes with `--resume`, stale journal generations are compacted,
//! and torn lines truncate replay instead of corrupting it.
//!
//! [`merge_shards`] stitches N shard journals back into the records
//! cache and stats sidecar. The merged records cache is **byte-identical
//! to a single-process run's** for the same config: journaled records
//! round-trip losslessly, fresh evaluations are keyed by grid
//! coordinates only, and assembly order is the plan order both code
//! paths share. Cells missing from the shard journals (a worker died
//! mid-shard and was never resumed, or a journal lost its tail to a
//! torn line) are evaluated locally by the merge process itself, so a
//! merge always produces the complete, correct record. Stats sidecars
//! are *combined* (counters summed, wall clock maxed); their
//! deterministic projection (`record::stats_projection`) matches a
//! single-process run, while cache-locality counters legitimately
//! differ — each process dedups executions only within its own shard.
//!
//! ## Live work stealing
//!
//! Static partitioning (even cost-weighted) cannot anticipate a worker
//! that is slow for *unpredicted* reasons — a noisy neighbor, one
//! flaky retry storm — and the merge gate is the max shard wall, so
//! one straggler stalls the whole fleet. With `--steal` (the default
//! for shard workers), a worker that drains its own partition turns
//! thief: it peeks sibling journals for cells with neither a result
//! nor a claim on disk, durably appends **claim frames** for a batch
//! to its *own* journal ([`Journal::append_claims`],
//! claim-before-evaluate), evaluates the stolen cells, and journals
//! the results locally. Victims pre-scan siblings before evaluating so
//! a worker waking from a stall skips everything already taken from
//! it. Arbitration is optimistic: claims race only within the small
//! scan-to-claim window, and a lost race merely duplicates a cell —
//! results are deterministic per cell and [`merge_shards`] folds
//! duplicates last-write-wins, so merged records are byte-identical
//! whether zero, one, or several workers raced a cell. A thief that
//! dies between claim and result loses nothing: its orphaned claim is
//! compacted away on resume and the cell falls through to merge
//! gap-fill.

use crate::config::EvalConfig;
use crate::eval;
use crate::journal::{self, Journal};
use crate::pipeline::{self, RunOptions};
use crate::record::{EvalRecord, EvalStats, TaskRecord};
use crate::runner::SharedRunner;
use pcg_core::plan::{CellId, PlanCell, ShardSpec, WorkPlan};
use pcg_core::CostPriors;
use pcg_core::TaskId;
use pcg_models::CandidateSource;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Stats-sidecar path for one shard of a sharded run. Like the shard
/// journal, it derives from the records cache path
/// (`records-quick.rec.stats.shard-0-of-3`), so every artifact of a
/// sharded run lives next to the cache it will be merged into.
pub fn shard_stats_path(cache_path: &Path, shard: ShardSpec) -> PathBuf {
    let mut os = cache_path.as_os_str().to_os_string();
    os.push(format!(".stats.shard-{}-of-{}", shard.index, shard.count));
    PathBuf::from(os)
}

/// What one worker's steal phase did, for the stats sidecar.
#[derive(Debug, Default, Clone, Copy)]
pub struct StealOutcome {
    /// Whole cells claimed, evaluated, and journaled locally.
    pub stolen: u64,
    /// Candidates abandoned to a sibling's observed claim (counted
    /// once per contested cell).
    pub conflicts: u64,
    /// Sibling progress scans performed.
    pub scans: u64,
}

/// Union every sibling journal's visible progress (results + claims),
/// header-gated per sibling exactly like replay. A sibling whose
/// journal is missing or gated out contributes nothing — its cells
/// look stealable, which is safe: stolen results are valid for this
/// worker's plan regardless of what the victim's file said.
pub fn scan_siblings(
    cache: &Path,
    cfg: &EvalConfig,
    salt: &[u8],
    shard: ShardSpec,
    priors_hash: u64,
) -> journal::Progress {
    let mut all = journal::Progress::default();
    for k in 0..shard.count {
        if k == shard.index {
            continue;
        }
        let spec = ShardSpec::new(k, shard.count);
        let jpath = journal::shard_journal_path(cache, spec);
        if let Some(p) = journal::peek_progress(&jpath, cfg, salt, spec, priors_hash) {
            all.done.extend(p.done);
            all.claimed.extend(p.claimed);
        }
    }
    all
}

/// The steal loop: scan siblings, claim a batch of unowned-undone
/// cells, hand it to `run_batch`, repeat until nothing stealable
/// remains. `done` seeds the cells this worker already has results
/// for (its own journal's replay); the engine extends it with sibling
/// results and its own claims as it goes.
///
/// Victim selection is most-lagging-first (the sibling with the most
/// cells missing results); within one victim, cells are taken in
/// [`WorkPlan::steal_order`] — the reverse of the victim's own
/// dispatch, so the victim keeps its in-flight work. Racing thieves
/// start their pick at a per-thief offset into the candidate ring so
/// near-simultaneous scans choose disjoint batches; a lost race is
/// detected at the next scan (the cell shows up claimed) and counted
/// as a conflict, or — inside the scan-to-claim window — produces a
/// harmless duplicate evaluation that merge folds last-write-wins.
///
/// The engine is deliberately evaluation-agnostic (`run_batch` does
/// the work) so the production worker and the steal gate drive the
/// exact same claim/arbitration code.
#[allow(clippy::too_many_arguments)]
pub fn steal_from_siblings(
    cache: &Path,
    cfg: &EvalConfig,
    salt: &[u8],
    plan: &WorkPlan,
    shard: ShardSpec,
    priors: Option<&CostPriors>,
    priors_hash: u64,
    wal: &Journal,
    batch: usize,
    mut done: HashSet<u64>,
    mut run_batch: impl FnMut(Vec<PlanCell>),
) -> StealOutcome {
    let mut out = StealOutcome::default();
    if shard.count <= 1 {
        return out;
    }
    let batch = batch.max(1);
    // Every victim's cells in steal order, derived once — the same
    // coordination-free determinism the partition itself relies on.
    let victims: Vec<Vec<PlanCell>> = (0..shard.count)
        .filter(|&k| k != shard.index)
        .map(|k| plan.steal_order(ShardSpec::new(k, shard.count), priors))
        .collect();
    let mut contested: HashSet<u64> = HashSet::new();
    loop {
        out.scans += 1;
        let progress = scan_siblings(cache, cfg, salt, shard, priors_hash);
        done.extend(progress.done.iter().copied());

        let remaining =
            |cells: &Vec<PlanCell>| cells.iter().filter(|c| !done.contains(&c.id.0)).count();
        let mut by_lag: Vec<&Vec<PlanCell>> = victims.iter().collect();
        by_lag.sort_by_key(|cells| std::cmp::Reverse(remaining(cells)));
        let candidates: Vec<PlanCell> = by_lag
            .into_iter()
            .flatten()
            .filter(|c| !done.contains(&c.id.0))
            .copied()
            .collect();
        if candidates.is_empty() {
            break;
        }
        let mut grab: Vec<PlanCell> = Vec::new();
        let start = (shard.index as usize).wrapping_mul(batch) % candidates.len();
        for i in 0..candidates.len() {
            let c = candidates[(start + i) % candidates.len()];
            if progress.claimed.contains(&c.id.0) {
                if contested.insert(c.id.0) {
                    out.conflicts += 1;
                }
                continue;
            }
            grab.push(c);
            if grab.len() >= batch {
                break;
            }
        }
        if grab.is_empty() {
            // Everything left is claimed by a live sibling (it will
            // deliver the result) or by a dead one (merge gap-fill
            // covers it). Either way this thief is finished.
            break;
        }
        // Claim-before-evaluate: the claims must be durable before any
        // stolen work starts, so a crash from here on can only
        // duplicate work, never hide it.
        let ids: Vec<CellId> = grab.iter().map(|c| c.id).collect();
        if let Err(e) = wal.append_claims(&ids, shard.index) {
            eprintln!("[pcgbench] warning: could not journal steal claims; stopping steal: {e}");
            break;
        }
        out.stolen += ids.len() as u64;
        done.extend(ids.iter().map(|id| id.0));
        run_batch(grab);
    }
    out
}

/// Fold the stats of one stolen-batch evaluation into the worker's
/// running total. [`SharedRunner`] counters are **cumulative across
/// calls** on one runner, so the latest snapshot replaces the total
/// wholesale; the genuinely per-call fields (cells, measured walls,
/// resumed count) accumulate.
fn absorb_steal_stats(total: &mut EvalStats, fill: EvalStats, stolen_cells: usize) {
    let cells = total.cells + stolen_cells;
    let resumed_cells = total.resumed_cells;
    let mut cell_walls = std::mem::take(&mut total.cell_walls);
    cell_walls.extend(fill.cell_walls.iter().copied());
    *total = fill;
    total.cells = cells;
    total.resumed_cells = resumed_cells;
    total.cell_walls = cell_walls;
}

/// Run one shard of the full evaluation grid as a worker process.
///
/// The shard's journal (created fresh, or resumed and compacted when
/// `opts.resume` is set) is the output artifact: it is *not* deleted on
/// completion — `merge` consumes it. A stats sidecar is committed
/// atomically next to it. Journaling cannot be disabled in worker mode
/// (a worker without a journal would produce nothing).
pub fn run_shard(
    path: Option<&Path>,
    cfg: &EvalConfig,
    opts: &RunOptions,
    shard: ShardSpec,
    tasks: Option<&[TaskId]>,
) -> EvalStats {
    let t0 = std::time::Instant::now();
    let source = pipeline::resolve_source(cfg, opts);
    let salt = source.config_salt();
    let cache = pipeline::cache_path_for(path, cfg, &source);
    let plan = eval::plan_for(cfg, &source, tasks);
    let jpath = journal::shard_journal_path(&cache, shard);
    let priors = pipeline::load_priors(opts);
    let priors_hash = priors.as_ref().map_or(0, |p| p.hash());

    let resumed = if opts.resume {
        pipeline::resume_journal(&jpath, cfg, &salt, shard, priors_hash)
    } else {
        pipeline::ResumedJournal::default()
    };
    let replay = resumed.replay;

    let wal = if replay.is_empty() || resumed.recreate {
        Journal::create_sourced(&jpath, cfg, &salt, shard, priors_hash)
    } else {
        Journal::open_append(&jpath)
    };
    let wal = match wal {
        Ok(j) => j,
        Err(e) => {
            // Unlike the single-process pipeline (where the journal is
            // optional crash insurance), a shard worker exists to
            // produce its journal; running on without one would only
            // burn CPU to produce nothing.
            eprintln!("[pcgbench] error: could not open shard journal: {e}");
            std::process::exit(1);
        }
    };

    let steal_on = opts.steal && shard.count > 1;
    let mut owned = plan.shard_with(shard, priors.as_ref());
    let mut scans_before = 0u64;
    if steal_on {
        // Victim pre-scan: anything a thief already finished or claimed
        // while this worker was slow to start is dropped here, so a
        // straggler waking up does not redo work the fleet took from
        // it. Cells already in our own replay stay — they cost nothing.
        let sib = scan_siblings(&cache, cfg, &salt, shard, priors_hash);
        scans_before = 1;
        let before = owned.len();
        owned.retain(|c| {
            replay.contains_key(&c.id)
                || (!sib.done.contains(&c.id.0) && !sib.claimed.contains(&c.id.0))
        });
        let skipped = before - owned.len();
        if skipped > 0 {
            eprintln!(
                "[pcgbench] shard {shard}: {skipped} cell{} already taken by siblings",
                if skipped == 1 { "" } else { "s" },
            );
        }
    }
    eprintln!(
        "[pcgbench] shard {shard}: {} of {} cells ({} replayed from {})",
        owned.len(),
        plan.len(),
        replay.len(),
        jpath.display(),
    );

    let runner = SharedRunner::new(cfg.clone());
    let run = eval::evaluate_cells_priors(
        cfg,
        &source,
        owned,
        opts.jobs,
        priors.as_ref(),
        &runner,
        &replay,
        |cell, model, rec| {
            if let Err(e) = wal.append(cell, model, rec) {
                eprintln!("[pcgbench] warning: journal append failed: {e}");
            }
        },
    );
    let mut stats = run.stats;

    let mut steal = StealOutcome::default();
    if steal_on {
        let done: HashSet<u64> = run.cells.iter().map(|(c, _)| c.id.0).collect();
        steal = steal_from_siblings(
            &cache,
            cfg,
            &salt,
            &plan,
            shard,
            priors.as_ref(),
            priors_hash,
            &wal,
            opts.jobs.max(1),
            done,
            |batch| {
                let stolen = batch.len();
                let fill = eval::evaluate_cells_priors(
                    cfg,
                    &source,
                    batch,
                    opts.jobs,
                    priors.as_ref(),
                    &runner,
                    &journal::Replay::new(),
                    |cell, model, rec| {
                        if let Err(e) = wal.append(cell, model, rec) {
                            eprintln!("[pcgbench] warning: journal append failed: {e}");
                        }
                    },
                );
                absorb_steal_stats(&mut stats, fill.stats, stolen);
            },
        );
    }
    if let Err(e) = wal.sync() {
        eprintln!("[pcgbench] warning: journal sync failed: {e}");
    }
    stats.cells_stolen = steal.stolen;
    stats.steal_conflicts = steal.conflicts;
    stats.steal_scans = steal.scans + scans_before;
    stats.cell_walls.sort_by_key(|w| w.cell);
    stats.wall_s = t0.elapsed().as_secs_f64();
    stats.journal_compactions = resumed.compacted;
    stats.journal_frames_rejected = resumed.rejected;
    eprintln!("[pcgbench] shard {shard} finished in {:.1}s", stats.wall_s);
    eprint!("{}", crate::report::stats_summary(&stats));
    if let Ok(bytes) = serde_json::to_vec(&stats) {
        if let Err(e) = pipeline::atomic_write(&shard_stats_path(&cache, shard), &bytes) {
            eprintln!("[pcgbench] warning: could not write shard stats: {e}");
        }
    }
    stats
}

/// Merge `count` shard journals into the records cache and stats
/// sidecar, returning the merged record.
///
/// Missing cells (never journaled, or lost to a torn journal line) are
/// evaluated locally at `opts.jobs` workers, so the merge is tolerant
/// of partial and torn shard journals and its output is always the
/// complete grid — byte-identical to a single-process run. On a
/// successful cache commit the consumed shard journals and sidecars
/// are deleted.
pub fn merge_shards(
    path: Option<&Path>,
    cfg: &EvalConfig,
    opts: &RunOptions,
    count: u32,
    tasks: Option<&[TaskId]>,
) -> EvalRecord {
    let source = pipeline::resolve_source(cfg, opts);
    let salt = source.config_salt();
    let cache = pipeline::cache_path_for(path, cfg, &source);
    let plan = eval::plan_for(cfg, &source, tasks);
    let priors = pipeline::load_priors(opts);
    let priors_hash = priors.as_ref().map_or(0, |p| p.hash());

    let mut map: HashMap<CellId, TaskRecord> = HashMap::with_capacity(plan.len());
    let mut parts: Vec<EvalStats> = Vec::new();
    let mut rejected = 0u64;
    for k in 0..count {
        let spec = ShardSpec::new(k, count);
        let jpath = journal::shard_journal_path(&cache, spec);
        let loaded = journal::load_counting_sourced(&jpath, cfg, &salt, spec, priors_hash);
        // A worker that partitioned the grid under different priors
        // journaled cells this merge assigns elsewhere — and is missing
        // cells it was supposed to own. Reject the whole journal
        // loudly; the gap fill below re-evaluates its slice.
        if let Some(stamped) = loaded.header.filter(|h| h.priors_hash != priors_hash) {
            eprintln!(
                "[pcgbench] warning: journal {}: priors hash {:016x} does not match \
                 this merge's {priors_hash:016x}; ignoring the journal (its cells will be \
                 re-evaluated) — run every worker and the merge with the same --priors",
                jpath.display(),
                stamped.priors_hash,
            );
            rejected += 1;
            continue;
        }
        for r in &loaded.rejects {
            eprintln!("[pcgbench] warning: journal {}: rejected {r}", jpath.display());
        }
        rejected += loaded.rejects.len() as u64;
        eprintln!(
            "[pcgbench] merge: shard {spec}: {} cells from {}{}",
            loaded.replay.len(),
            jpath.display(),
            if loaded.stale_frames > 0 {
                format!(" ({} stale frames ignored)", loaded.stale_frames)
            } else {
                String::new()
            },
        );
        for (id, cell) in loaded.replay {
            map.insert(id, cell.record);
        }
        if let Ok(bytes) = std::fs::read(shard_stats_path(&cache, spec)) {
            if let Ok(stats) = serde_json::from_slice::<EvalStats>(&bytes) {
                parts.push(stats);
            }
        }
    }

    // Gap fill: whatever the shard journals did not deliver is
    // evaluated here, with the same deterministic streams any worker
    // would have used.
    let missing: Vec<_> = plan.cells().filter(|c| !map.contains_key(&c.id)).collect();
    if !missing.is_empty() {
        eprintln!(
            "[pcgbench] merge: {} cell{} missing from shard journals; evaluating locally",
            missing.len(),
            if missing.len() == 1 { "" } else { "s" },
        );
        let runner = SharedRunner::new(cfg.clone());
        let fill = eval::evaluate_cells_priors(
            cfg,
            &source,
            missing,
            opts.jobs,
            priors.as_ref(),
            &runner,
            &journal::Replay::new(),
            |_, _, _| {},
        );
        for (cell, rec) in fill.cells {
            map.insert(cell.id, rec);
        }
        parts.push(fill.stats);
    }

    let record = eval::assemble(cfg, &plan, |c| {
        map.get(&c.id).cloned().expect("every cell journaled or gap-filled")
    });
    let mut stats = combine_stats(&parts, plan.len());
    // Frames this merge itself refused, on top of whatever the workers
    // rejected during their own resumes.
    stats.journal_frames_rejected += rejected;
    eprint!("{}", crate::report::stats_summary(&stats));

    let committed = match journal::commit_record(&cache, &plan, &record) {
        Ok(()) => {
            eprintln!("[pcgbench] merge: cached records at {}", cache.display());
            true
        }
        Err(e) => {
            eprintln!("[pcgbench] warning: could not cache merged records: {e}");
            false
        }
    };
    if let Ok(bytes) = serde_json::to_vec(&stats) {
        let _ = pipeline::atomic_write(&pipeline::stats_path(cfg), &bytes);
    }
    if committed {
        pipeline::write_cols_sidecar(&cache, &record, &stats, &salt);
        if opts.keep_shards {
            // Post-mortem mode: the per-worker journals (claim frames
            // included) and sidecars are the only record of who
            // evaluated what; keep them for inspection.
            eprintln!("[pcgbench] merge: keeping shard journals and sidecars (--keep-shards)");
        } else {
            // The cache now holds everything the shard journals were
            // protecting.
            for k in 0..count {
                let spec = ShardSpec::new(k, count);
                journal::remove(&journal::shard_journal_path(&cache, spec));
                let _ = std::fs::remove_file(shard_stats_path(&cache, spec));
            }
        }
    }
    record
}

/// Combine per-process [`EvalStats`] into one merged sidecar: counters
/// and summed stage seconds add, wall clock is the max (processes ran
/// concurrently), and the quarantine lists union deterministically
/// (two shards can independently quarantine the same shared candidate;
/// the single-process run records it once). Measured cell walls union
/// by cell id (shards are disjoint, so at most one part measured any
/// cell), and each part's own wall clock is kept as one `shard_walls`
/// entry — the imbalance `report` surfaces as the merge gate.
pub fn combine_stats(parts: &[EvalStats], cells: usize) -> EvalStats {
    let mut cell_walls: Vec<crate::record::CellWall> =
        parts.iter().flat_map(|p| p.cell_walls.iter().copied()).collect();
    cell_walls.sort_by_key(|w| w.cell);
    cell_walls.dedup_by_key(|w| w.cell);
    let shard_walls: Vec<f64> = parts.iter().map(|p| p.wall_s).collect();
    let mut quarantined: Vec<crate::runner::QuarantineEntry> =
        parts.iter().flat_map(|p| p.quarantined.iter().cloned()).collect();
    quarantined.sort_by(|a, b| {
        a.task.cmp(&b.task).then_with(|| a.kind.cmp(&b.kind)).then_with(|| a.n.cmp(&b.n))
    });
    quarantined.dedup_by(|a, b| a.task == b.task && a.kind == b.kind && a.n == b.n);
    let sum = |f: fn(&EvalStats) -> u64| parts.iter().map(f).sum::<u64>();
    let sum_f = |f: fn(&EvalStats) -> f64| parts.iter().map(f).sum::<f64>();
    let max_f = |f: fn(&EvalStats) -> f64| parts.iter().map(f).fold(0.0f64, f64::max);
    EvalStats {
        jobs: parts.iter().map(|p| p.jobs).sum::<usize>().max(1),
        cells,
        executions: sum(|p| p.executions),
        cache_hits: sum(|p| p.cache_hits),
        panics: sum(|p| p.panics),
        timeouts: sum(|p| p.timeouts),
        cancelled: sum(|p| p.cancelled),
        abandoned: sum(|p| p.abandoned),
        retries: sum(|p| p.retries),
        flaky: sum(|p| p.flaky),
        resumed_cells: parts.iter().map(|p| p.resumed_cells).sum(),
        quarantined,
        baseline_s: sum_f(|p| p.baseline_s),
        run_s: sum_f(|p| p.run_s),
        validate_s: sum_f(|p| p.validate_s),
        wall_s: max_f(|p| p.wall_s),
        lease_hits: sum(|p| p.lease_hits),
        lease_misses: sum(|p| p.lease_misses),
        pools_poisoned: sum(|p| p.pools_poisoned),
        input_cache_hits: sum(|p| p.input_cache_hits),
        pool_setup_s: sum_f(|p| p.pool_setup_s),
        ranks_multiplexed: sum(|p| p.ranks_multiplexed),
        bytes_zero_copied: sum(|p| p.bytes_zero_copied),
        journal_compactions: sum(|p| p.journal_compactions),
        journal_frames_rejected: sum(|p| p.journal_frames_rejected),
        deadlocks_detected: sum(|p| p.deadlocks_detected),
        stack_overflows_caught: sum(|p| p.stack_overflows_caught),
        guard_faults: sum(|p| p.guard_faults),
        leak_budget_exhausted: parts.iter().any(|p| p.leak_budget_exhausted),
        cells_stolen: sum(|p| p.cells_stolen),
        steal_conflicts: sum(|p| p.steal_conflicts),
        steal_scans: sum(|p| p.steal_scans),
        cell_walls,
        shard_walls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_stats_paths_are_distinct_per_shard() {
        let cache = pipeline::default_cache_path(&EvalConfig::quick());
        let a = shard_stats_path(&cache, ShardSpec::new(0, 3));
        let b = shard_stats_path(&cache, ShardSpec::new(1, 3));
        assert_ne!(a, b);
        assert!(a.to_string_lossy().ends_with(".stats.shard-0-of-3"));
        assert_ne!(a, journal::shard_journal_path(&cache, ShardSpec::new(0, 3)));
    }

    #[test]
    fn combine_stats_sums_counters_and_unions_quarantine() {
        use crate::runner::QuarantineEntry;
        use pcg_core::{ExecutionModel, ProblemId, ProblemType};
        let t = ProblemId::new(ProblemType::Sort, 0).task(ExecutionModel::OpenMp);
        let q = |n: u32| QuarantineEntry {
            task: t,
            kind: "timeout".into(),
            n,
            error: "timeout".into(),
        };
        let mut a = base_stats();
        a.executions = 10;
        a.wall_s = 2.0;
        a.quarantined = vec![q(4), q(8)];
        let mut b = base_stats();
        b.executions = 5;
        b.wall_s = 3.0;
        b.quarantined = vec![q(4)]; // duplicate of a's entry
        let merged = combine_stats(&[a, b], 42);
        assert_eq!(merged.cells, 42);
        assert_eq!(merged.executions, 15);
        assert_eq!(merged.wall_s, 3.0, "concurrent processes: wall is the max");
        assert_eq!(merged.quarantined.len(), 2, "shared candidates quarantine once");
    }

    fn base_stats() -> EvalStats {
        EvalStats {
            jobs: 1,
            cells: 0,
            executions: 0,
            cache_hits: 0,
            panics: 0,
            timeouts: 0,
            cancelled: 0,
            abandoned: 0,
            retries: 0,
            flaky: 0,
            resumed_cells: 0,
            quarantined: Vec::new(),
            baseline_s: 0.0,
            run_s: 0.0,
            validate_s: 0.0,
            wall_s: 0.0,
            lease_hits: 0,
            lease_misses: 0,
            pools_poisoned: 0,
            input_cache_hits: 0,
            pool_setup_s: 0.0,
            ranks_multiplexed: 0,
            bytes_zero_copied: 0,
            journal_compactions: 0,
            journal_frames_rejected: 0,
            deadlocks_detected: 0,
            stack_overflows_caught: 0,
            guard_faults: 0,
            leak_budget_exhausted: false,
            cells_stolen: 0,
            steal_conflicts: 0,
            steal_scans: 0,
            cell_walls: Vec::new(),
            shard_walls: Vec::new(),
        }
    }

    #[test]
    fn combine_stats_sums_steal_counters() {
        let mut a = base_stats();
        a.cells_stolen = 5;
        a.steal_conflicts = 1;
        a.steal_scans = 3;
        let mut b = base_stats();
        b.cells_stolen = 2;
        b.steal_scans = 4;
        let merged = combine_stats(&[a, b], 7);
        assert_eq!(merged.cells_stolen, 7);
        assert_eq!(merged.steal_conflicts, 1);
        assert_eq!(merged.steal_scans, 7);
    }

    #[test]
    fn combine_stats_unions_cell_walls_and_collects_shard_walls() {
        use crate::record::CellWall;
        let mut a = base_stats();
        a.wall_s = 4.0;
        a.cell_walls = vec![CellWall { cell: 7, secs: 0.5 }, CellWall { cell: 3, secs: 0.25 }];
        let mut b = base_stats();
        b.wall_s = 1.0;
        b.cell_walls = vec![CellWall { cell: 5, secs: 0.75 }];
        let merged = combine_stats(&[a, b], 3);
        assert_eq!(
            merged.cell_walls.iter().map(|w| w.cell).collect::<Vec<_>>(),
            vec![3, 5, 7],
            "walls union sorted by cell id"
        );
        assert_eq!(merged.shard_walls, vec![4.0, 1.0], "one wall entry per part, part order");
        assert_eq!(merged.wall_s, 4.0);
    }

    #[test]
    fn combine_stats_sums_containment_counters_and_ors_leak_flag() {
        let mut a = base_stats();
        a.deadlocks_detected = 3;
        a.stack_overflows_caught = 2;
        a.guard_faults = 2;
        let mut b = base_stats();
        b.deadlocks_detected = 1;
        b.leak_budget_exhausted = true;
        let merged = combine_stats(&[a, b], 1);
        assert_eq!(merged.deadlocks_detected, 4);
        assert_eq!(merged.stack_overflows_caught, 2);
        assert_eq!(merged.guard_faults, 2);
        assert!(merged.leak_budget_exhausted, "any exhausted part taints the merge");
    }
}
