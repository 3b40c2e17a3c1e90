//! The evaluation drivers: shard workers, the merge step, and the
//! whole run, which is the one-shard worker.
//!
//! The (model × task) grid is partitioned by cell address
//! (`CellId % shard_count`, see `pcg_core::plan`), so any number of
//! worker processes can each run `--shard k/N` with **no coordination
//! beyond the shared configuration**: every worker derives the
//! identical [`WorkPlan`] and owns a disjoint, exhaustive slice of it.
//!
//! One private driver evaluates a shard: it opens (with `--resume`,
//! replays and compacts) the shard's cell-addressed write-ahead
//! journal, evaluates the cells the shard owns, steals in a
//! multi-shard run, and syncs. A single-process run is the
//! [`ShardSpec::WHOLE`] case, whose journal is the plain
//! `<cache>.journal`: it commits its cells as the records cache and
//! then deletes the journal. A worker's output is instead the journal
//! itself (plus an [`EvalStats`] sidecar). Every durability property
//! therefore holds for both alike: a killed run resumes with
//! `--resume`, stale journal generations are compacted, and torn lines
//! truncate replay instead of corrupting it. The two differ only in
//! what a journal that will not open means: a whole run warns and runs
//! on without one, and a worker, which exists to write it, exits 1.
//!
//! [`merge_shards`] stitches N shard journals back into the records
//! cache and stats sidecar. The merged records cache is **byte-identical
//! to a single-process run's** for the same config: journaled records
//! round-trip losslessly (their validated frames are copied into the
//! cache as they stand), fresh evaluations are keyed by grid
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
//! one straggler stalls the whole fleet. So every worker of a
//! multi-shard run that drains its own partition turns thief: it peeks
//! sibling journals for cells with neither a result nor a claim on
//! disk, durably appends **claim frames** for a batch to its *own*
//! journal ([`Journal::append_claims`],
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
use crate::eval::{self, SubsetRun};
use crate::journal::{self, Journal};
use crate::pipeline::{self, Run, RunOptions};
use crate::record::{EvalRecord, EvalStats, TaskRecord};
use crate::runner::SharedRunner;
use pcg_core::plan::{CellId, PlanCell, ShardSpec, WorkPlan};
use pcg_core::CostPriors;
use pcg_core::TaskId;
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

/// Run one shard of the full evaluation grid as a worker process.
///
/// The shard's journal (created fresh, or resumed and compacted when
/// `opts.resume` is set) is the output artifact: it is *not* deleted on
/// completion — `merge` consumes it. A stats sidecar is committed
/// atomically next to it. In a multi-shard run the worker then steals
/// from lagging siblings ([`steal_from_siblings`]).
pub fn run_shard(
    path: Option<&Path>,
    cfg: &EvalConfig,
    opts: &RunOptions,
    shard: ShardSpec,
    tasks: Option<&[TaskId]>,
) -> EvalStats {
    let run = Run::resolve(path, cfg, opts, tasks);
    let stats = evaluate_shard(&run, cfg, opts, shard).0.stats;
    if let Ok(bytes) = serde_json::to_vec(&stats) {
        if let Err(e) = pipeline::atomic_write(&shard_stats_path(&run.cache, shard), &bytes) {
            eprintln!("[pcgbench] warning: could not write shard stats: {e}");
        }
    }
    stats
}

/// A whole run: the one shard of a one-shard run, its cells assembled
/// in plan order and committed as the records cache and stats sidecar
/// ([`pipeline::commit_run`]). The journal goes once the cache lands.
pub(crate) fn run_whole(run: &Run, cfg: &EvalConfig, opts: &RunOptions) -> EvalRecord {
    let (pass, replayed) = evaluate_shard(run, cfg, opts, ShardSpec::WHOLE);
    let mut records = pass.cells.into_iter().map(|(_, rec)| rec);
    let record =
        eval::assemble(cfg, &run.plan, |_| records.next().expect("the shard covers the plan"));
    if pipeline::commit_run(&run.cache, &run.plan, &record, &replayed, &pass.stats) {
        // The cache now holds everything the journal was protecting.
        journal::remove(&journal::journal_path(&run.cache));
    }
    record
}

/// The one evaluation driver, for a whole run ([`ShardSpec::WHOLE`])
/// and a shard worker alike. It opens the shard's journal, evaluates
/// the cells the shard owns (journaling each) and, in a multi-shard
/// run, pre-scans siblings before and steals from them after. It then
/// syncs the journal and returns every cell it replayed or evaluated,
/// stolen ones last, with the pass's stats, and the journal frames the
/// replayed cells were decoded from.
fn evaluate_shard(
    run: &Run,
    cfg: &EvalConfig,
    opts: &RunOptions,
    shard: ShardSpec,
) -> (SubsetRun, journal::Frames) {
    let t0 = std::time::Instant::now();
    let (salt, priors_hash) = (&run.salt, run.priors_hash);
    let jpath = journal::shard_journal_path(&run.cache, shard);
    // With `--resume`, replay the journal first (reporting every
    // rejected frame with its byte offset, frame index and cell id),
    // and compact it when it carries stale frames.
    let mut replay = journal::Replay::new();
    let mut replayed = journal::Frames::default();
    let (mut compacted, mut rejected, mut reopen) = (0, 0, false);
    if opts.resume {
        let loaded = journal::load_parallel(&jpath, cfg, salt, shard, priors_hash, opts.jobs);
        for r in &loaded.rejects {
            eprintln!("[pcgbench] warning: journal {}: rejected {r}", jpath.display());
        }
        rejected = loaded.rejects.len() as u64;
        reopen = !loaded.replay.is_empty();
        if loaded.needs_compaction() {
            match journal::compact_sourced(&jpath, cfg, salt, shard, priors_hash, &loaded.replay) {
                Ok(_) => {
                    eprintln!(
                        "[pcgbench] compacted journal: {} stale frame{} folded away",
                        loaded.stale_frames,
                        if loaded.stale_frames == 1 { "" } else { "s" },
                    );
                    compacted = loaded.stale_frames as u64;
                }
                Err(e) => {
                    eprintln!("[pcgbench] warning: journal compaction failed: {e}");
                    reopen = false;
                }
            }
        }
        replay = loaded.replay;
        replayed = loaded.frames;
    }
    // A journal that replays nothing (missing, not v3, or written for
    // another config, shard or priors) is created afresh, and so is one
    // whose compaction failed: frames appended after a stale tail would
    // never replay.
    let wal = if reopen {
        Journal::open_append(&jpath)
    } else {
        Journal::create_sourced(&jpath, cfg, salt, shard, priors_hash)
    };
    let wal = match wal {
        Ok(wal) => Some(wal),
        // A whole run's journal is crash insurance: without it the run
        // still produces its records, it just cannot be resumed.
        Err(e) if shard.is_whole() => {
            eprintln!("[pcgbench] warning: could not open journal: {e}");
            None
        }
        // A shard worker exists to produce its journal; running on
        // without one would only burn CPU to produce nothing.
        Err(e) => {
            eprintln!("[pcgbench] error: could not open shard journal: {e}");
            std::process::exit(1);
        }
    };
    // A failed append only leaves that cell unreplayable; the run goes on.
    let append = |cell: CellId, model: &str, rec: &TaskRecord| {
        if let Some(Err(e)) = wal.as_ref().map(|j| j.append(cell, model, rec)) {
            eprintln!("[pcgbench] warning: journal append failed: {e}");
        }
    };

    // A shard of a multi-shard run steals; the whole grid has no
    // siblings to steal from.
    let steal_on = shard.count > 1;
    let mut owned = run.plan.shard_with(shard, run.priors.as_ref());
    let mut steal = StealOutcome::default();
    if steal_on {
        // Victim pre-scan: anything a thief already finished or claimed
        // while this worker was slow to start is dropped here, so a
        // straggler waking up does not redo work the fleet took from
        // it. Cells already in our own replay stay — they cost nothing.
        let sib = scan_siblings(&run.cache, cfg, salt, shard, priors_hash);
        steal.scans = 1;
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
    if !shard.is_whole() {
        eprintln!(
            "[pcgbench] shard {shard}: {} of {} cells ({} replayed from {})",
            owned.len(),
            run.plan.len(),
            replay.len(),
            jpath.display(),
        );
    } else if !replay.is_empty() {
        eprintln!(
            "[pcgbench] resuming: {} cell{} replayed from {}",
            replay.len(),
            if replay.len() == 1 { "" } else { "s" },
            jpath.display(),
        );
    }

    let runner = SharedRunner::new(cfg.clone());
    let evaluate = |cells: Vec<PlanCell>, replay: journal::Replay| {
        let (source, priors) = (&run.source, run.priors.as_ref());
        eval::evaluate_cells_priors(cfg, source, cells, opts.jobs, priors, &runner, replay, &append)
    };
    let SubsetRun { mut cells, stats: own } = evaluate(owned, replay);
    let mut cell_walls = own.cell_walls;
    if let (true, Some(wal)) = (steal_on, &wal) {
        let done: HashSet<u64> = cells.iter().map(|(c, _)| c.id.0).collect();
        let stolen = steal_from_siblings(
            &run.cache,
            cfg,
            salt,
            &run.plan,
            shard,
            run.priors.as_ref(),
            priors_hash,
            wal,
            opts.jobs.max(1),
            done,
            |batch| {
                let fill = evaluate(batch, journal::Replay::new());
                cells.extend(fill.cells);
                cell_walls.extend(fill.stats.cell_walls);
            },
        );
        steal = StealOutcome { scans: steal.scans + stolen.scans, ..stolen };
    }
    if let Some(Err(e)) = wal.as_ref().map(Journal::sync) {
        eprintln!("[pcgbench] warning: journal sync failed: {e}");
    }
    cell_walls.sort_by_key(|w| w.cell);
    // The runner's counters are cumulative over every evaluation it
    // served, so one snapshot after the last stolen batch covers them all.
    let stats = EvalStats {
        jobs: opts.jobs.max(1),
        cells: cells.len(),
        resumed_cells: own.resumed_cells,
        wall_s: t0.elapsed().as_secs_f64(),
        journal_compactions: compacted,
        journal_frames_rejected: rejected,
        cells_stolen: steal.stolen,
        steal_conflicts: steal.conflicts,
        steal_scans: steal.scans,
        cell_walls,
        ..runner.stats()
    };
    let name = if shard.is_whole() { "evaluation".to_string() } else { format!("shard {shard}") };
    eprintln!("[pcgbench] {name} finished in {:.1}s", stats.wall_s);
    eprint!("{}", crate::report::stats_summary(&stats));
    (SubsetRun { cells, stats }, replayed)
}

/// Merge `count` shard journals into the records cache and stats
/// sidecar, returning the merged record.
///
/// The shard journals load concurrently on `opts.jobs` threads.
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
    merge(&Run::resolve(path, cfg, opts, tasks), cfg, opts, count)
}

/// [`merge_shards`] on a resolved run.
pub(crate) fn merge(run: &Run, cfg: &EvalConfig, opts: &RunOptions, count: u32) -> EvalRecord {
    let Run { source, salt, cache, plan, priors, priors_hash } = run;
    let priors_hash = *priors_hash;
    let mut map: HashMap<CellId, TaskRecord> = HashMap::with_capacity(plan.len());
    let mut replayed = journal::Frames::default();
    let mut parts: Vec<EvalStats> = Vec::new();
    let mut rejected = 0u64;
    // The shard journals load concurrently, the `--jobs` threads split
    // between them, and fold below in shard order.
    let specs: Vec<ShardSpec> = (0..count).map(|k| ShardSpec::new(k, count)).collect();
    let per_load = (opts.jobs / specs.len().max(1)).max(1);
    let loads = journal::par_map(&specs, opts.jobs, |&spec| {
        let jpath = journal::shard_journal_path(cache, spec);
        let loaded = journal::load_parallel(&jpath, cfg, salt, spec, priors_hash, per_load);
        (jpath, loaded)
    });
    for (&spec, (jpath, loaded)) in specs.iter().zip(loads) {
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
        // A cell in more than one journal (a lost steal race) takes
        // its record and its frame from the last one.
        for (id, cell) in loaded.replay {
            map.insert(id, cell.record);
        }
        replayed.extend(loaded.frames);
        if let Ok(bytes) = std::fs::read(shard_stats_path(cache, spec)) {
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
            source,
            missing,
            opts.jobs,
            priors.as_ref(),
            &runner,
            journal::Replay::new(),
            |_, _, _| {},
        );
        for (cell, rec) in fill.cells {
            map.insert(cell.id, rec);
        }
        parts.push(fill.stats);
    }

    let record = eval::assemble(cfg, plan, |c| {
        map.remove(&c.id).expect("every cell journaled or gap-filled")
    });
    let mut stats = combine_stats(&parts, plan.len());
    // Frames this merge itself refused, on top of whatever the workers
    // rejected during their own resumes.
    stats.journal_frames_rejected += rejected;
    eprint!("{}", crate::report::stats_summary(&stats));

    // A failed commit keeps every shard journal and sidecar, so the
    // merge can simply be rerun.
    if pipeline::commit_run(cache, plan, &record, &replayed, &stats) {
        // The cache now holds everything the shard journals were
        // protecting.
        for k in 0..count {
            let spec = ShardSpec::new(k, count);
            journal::remove(&journal::shard_journal_path(cache, spec));
            let _ = std::fs::remove_file(shard_stats_path(cache, spec));
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

    /// `committed_cache_refuses_any_flip_or_truncation` (in
    /// `tests/journal_v3.rs`) on a cache a resume committed by copying
    /// frames: every cell but the first replays from the journal, so
    /// the cache mixes copied frames with one encoded frame. It must
    /// be the encoding of its record, and every single-bit flip and
    /// every truncation at a frame boundary must be refused.
    #[test]
    fn copying_resume_cache_refuses_any_flip_or_truncation() {
        use pcg_metrics::TaskSamples;
        let cfg = EvalConfig::smoke();
        let dir = std::env::temp_dir().join(format!("pcgbench-copy-resume-{}", std::process::id()));
        let cache = dir.join("resumed.rec");
        let tasks: Vec<TaskId> = eval::smoke_tasks().into_iter().take(2).collect();
        let opts = RunOptions { resume: true, ..RunOptions::new(2) };
        let run = Run::resolve(Some(&cache), &cfg, &opts, Some(&tasks));
        let replay: journal::Replay = run
            .plan
            .cells()
            .skip(1)
            .map(|c| {
                let record = TaskRecord {
                    task: c.task,
                    low: TaskSamples {
                        built: vec![true, c.model % 2 == 0],
                        correct: vec![c.task_idx == 0, false],
                        ratio: vec![1.5 + c.model as f64, 0.0],
                    },
                    high: None,
                    sweep: std::collections::BTreeMap::from([(4, vec![0.25])]),
                };
                (c.id, journal::ReplayCell { model: run.plan.models()[c.model].clone(), record })
            })
            .collect();
        std::fs::create_dir_all(&dir).unwrap();
        journal::compact(&journal::journal_path(&cache), &cfg, ShardSpec::WHOLE, &replay).unwrap();
        let record = run_whole(&run, &cfg, &opts);
        let pristine = std::fs::read(&cache).unwrap();
        let encoded = dir.join("encoded.rec");
        journal::commit_record(&encoded, &run.plan, &record).unwrap();
        assert!(std::fs::read(&encoded).unwrap() == pristine, "the copy is the encoding");

        let read = || pipeline::read_cache_parallel(&cache, &cfg, &run.plan, 2);
        let back = read().expect("a clean cache reads back");
        assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&record).unwrap());
        for bit in 0..pristine.len() * 8 {
            let mut corrupt = pristine.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&cache, &corrupt).unwrap();
            assert!(read().is_none(), "flip at bit {bit} was served");
        }
        std::fs::write(&cache, &pristine).unwrap();
        let offsets = journal::entry_offsets(&cache);
        assert_eq!(offsets.len(), run.plan.len() + 1, "one entry frame per cell, plus the end");
        let entry_starts = offsets[..run.plan.len()].iter().map(|&o| o as usize);
        let boundaries = [0, pcg_core::frame::JOURNAL_MAGIC.len()].into_iter().chain(entry_starts);
        for cut in boundaries {
            std::fs::write(&cache, &pristine[..cut]).unwrap();
            assert!(read().is_none(), "cut at byte {cut} was served");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

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
        EvalStats { jobs: 1, ..EvalStats::default() }
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
