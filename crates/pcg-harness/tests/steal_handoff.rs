//! Work-stealing hard constraints.
//!
//! Stealing may only change **which process** evaluates a cell — never
//! the bytes the cell produces. So a merge over journals where one
//! worker stole a sibling's entire partition must be byte-identical to
//! the unsharded reference, a thief killed between its claim frame and
//! the result append must cost nothing (the orphaned claim neither
//! corrupts its journal nor blocks merge gap-fill), and a victim that
//! wakes up after the fleet drained its partition must evaluate zero
//! cells.
//!
//! The handoff phases are one `#[test]`: they share a [`SharedRunner`]
//! execution cache so the byte comparisons are exact (the same
//! discipline `shard_merge` uses). Where the merge re-measures with its
//! own runner (gap fill), the comparison is the deterministic
//! projection, exactly as across real processes. A second test drives
//! a thief through the worker entry point and checks its stats, and a
//! third checks that thieves enumerate a shard in the exact reverse of
//! the order its victim dispatches it.

use pcg_core::plan::{CellId, ShardSpec};
use pcg_core::{CandidateKind, CostPriors, TaskId};
use pcg_harness::eval::{self, evaluate_with, smoke_tasks};
use pcg_harness::journal::{self, Journal, Replay};
use pcg_harness::pipeline::{self, RunOptions};
use pcg_harness::record::{projection, EvalStats};
use pcg_harness::shard::{
    merge_shards, run_shard, scan_siblings, shard_stats_path, steal_from_siblings,
};
use pcg_harness::{EvalConfig, SharedRunner};
use std::path::{Path, PathBuf};

fn tmp_cache() -> PathBuf {
    let dir = std::env::temp_dir().join("pcgbench-steal-handoff-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("records-{}.rec", std::process::id()))
}

/// Journal one shard completely, the way a worker that finished its
/// own partition would, drawing from `runner`'s shared caches so the
/// written records are byte-comparable to the reference. Returns the
/// run's stats (the caller decides when to write the sidecar).
fn write_one_shard(
    cache: &Path,
    cfg: &EvalConfig,
    models: &[pcg_models::SyntheticModel],
    tasks: &[pcg_core::TaskId],
    runner: &SharedRunner,
    spec: ShardSpec,
) -> EvalStats {
    let plan = eval::plan_for(cfg, models, Some(tasks));
    let jpath = journal::shard_journal_path(cache, spec);
    let wal = Journal::create_sourced(&jpath, cfg, &[], spec, 0).unwrap();
    let run = eval::evaluate_cells_priors(cfg, models, plan.shard(spec), 2, None, runner, Replay::new(), |cell, model, rec| {
        wal.append(cell, model, rec).unwrap();
    });
    assert!(run.stats.cells > 0, "shard {spec} must own some cells");
    run.stats
}

fn write_sidecar(cache: &Path, spec: ShardSpec, stats: &EvalStats) {
    std::fs::write(shard_stats_path(cache, spec), serde_json::to_vec(stats).unwrap()).unwrap();
}

#[test]
fn stolen_cells_merge_byte_identically() {
    let cfg = EvalConfig::smoke();
    let tasks: Vec<_> = smoke_tasks().into_iter().take(7).collect();
    let models = pcg_models::zoo();
    let cache = tmp_cache();
    let plan = eval::plan_for(&cfg, &models, Some(&tasks));
    let spec0 = ShardSpec::new(0, 3);
    let spec1 = ShardSpec::new(1, 3);
    let spec2 = ShardSpec::new(2, 3);
    let victim_cells = plan.shard_with(spec0, None);

    // ------- Phase 1: unsharded reference, --jobs 1 and --jobs 8.
    let runner = SharedRunner::new(cfg.clone());
    let (ref1, _) = evaluate_with(&cfg, &models, Some(&tasks), 1, &runner);
    let (ref8, _) = evaluate_with(&cfg, &models, Some(&tasks), 8, &runner);
    let ref_json = serde_json::to_string(&ref1).unwrap();
    assert_eq!(ref_json, serde_json::to_string(&ref8).unwrap());

    // ------- Phase 2: shard 0's worker never shows up (header-only
    // journal); shards 1 and 2 finish their own partitions; shard 1
    // turns thief and drains shard 0's entire slice through the real
    // claim/steal engine. The merge must reassemble the exact
    // unsharded bytes and consume every shard's journal and sidecar.
    let mut stats1 = write_one_shard(&cache, &cfg, &models, &tasks, &runner, spec1);
    let stats2 = write_one_shard(&cache, &cfg, &models, &tasks, &runner, spec2);
    drop(Journal::create_sourced(&journal::shard_journal_path(&cache, spec0), &cfg, &[], spec0, 0).unwrap());

    let before = scan_siblings(&cache, &cfg, &[], spec1, 0);
    assert_eq!(before.done.len(), plan.shard_with(spec2, None).len(), "shard 2's results are visible to the thief");
    assert!(before.claimed.is_empty());

    let wal1 = Journal::open_append(&journal::shard_journal_path(&cache, spec1)).unwrap();
    let done: std::collections::HashSet<u64> =
        plan.shard_with(spec1, None).iter().map(|c| c.id.0).collect();
    let outcome =
        steal_from_siblings(&cache, &cfg, &[], &plan, spec1, None, 0, &wal1, 4, done, |batch| {
        eval::evaluate_cells_priors(&cfg, &models, batch, 2, None, &runner, Replay::new(), |cell, model, rec| {
            wal1.append(cell, model, rec).unwrap();
        });
    });
    assert_eq!(
        outcome.stolen as usize,
        victim_cells.len(),
        "the thief must drain the absent victim's whole partition"
    );
    assert_eq!(outcome.conflicts, 0, "no live sibling claimed anything");
    assert!(outcome.scans >= 2, "the loop re-scans until nothing is stealable");
    stats1.cells_stolen = outcome.stolen;
    stats1.steal_conflicts = outcome.conflicts;
    stats1.steal_scans = outcome.scans;
    write_sidecar(&cache, spec1, &stats1);
    write_sidecar(&cache, spec2, &stats2);

    let merged = merge_shards(Some(&cache), &cfg, &RunOptions::new(2), 3, Some(&tasks));
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        ref_json,
        "a merge over stolen cells must reproduce the unsharded record exactly"
    );
    let merged_stats: EvalStats =
        serde_json::from_slice(&std::fs::read(pipeline::cache_stats_path(&cache)).unwrap())
            .unwrap();
    assert_eq!(merged_stats.cells_stolen, outcome.stolen, "the merged sidecar sums steal counters");
    for spec in [spec0, spec1, spec2] {
        assert!(
            !journal::shard_journal_path(&cache, spec).exists(),
            "the merge must consume shard {spec}'s journal"
        );
        assert!(!shard_stats_path(&cache, spec).exists());
    }

    // ------- Phase 3: the claim-to-result crash window. A thief
    // (shard 2) durably claims one of shard 0's cells, then dies
    // before appending the result. The orphaned claim must not corrupt
    // the thief's journal, must be visible to peeks, and must not keep
    // the merge from gap-filling the cell — at any worker count. The
    // gap fill re-measures with the merge's own runner, so the
    // comparison is the projection. A merge consumes the shard
    // journals, so each worker count gets a fresh set.
    let claimed = victim_cells[0].id;
    for jobs in [1usize, 8] {
        let stats1 = write_one_shard(&cache, &cfg, &models, &tasks, &runner, spec1);
        let stats2 = write_one_shard(&cache, &cfg, &models, &tasks, &runner, spec2);
        write_sidecar(&cache, spec1, &stats1);
        write_sidecar(&cache, spec2, &stats2);
        drop(Journal::create_sourced(&journal::shard_journal_path(&cache, spec0), &cfg, &[], spec0, 0).unwrap());
        let jpath2 = journal::shard_journal_path(&cache, spec2);
        {
            let wal2 = Journal::open_append(&jpath2).unwrap();
            wal2.append_claims(&[claimed], 2).unwrap();
            // The thief dies here: claim on disk, no result.
        }
        let loaded = journal::load_counting_sourced(&jpath2, &cfg, &[], spec2, 0);
        assert_eq!(
            loaded.replay.len(),
            stats2.cells,
            "an orphaned claim must not cost the thief any completed cells"
        );
        assert!(loaded.rejects.is_empty(), "a claim is a valid frame kind, not corruption");
        assert!(loaded.stale_frames >= 1, "the claim counts stale so resume compacts it away");
        let prog = journal::peek_progress(&jpath2, &cfg, &[], spec2, 0).unwrap();
        assert!(prog.claimed.contains(&claimed.0), "the claim is visible to sibling peeks");
        assert!(!prog.done.contains(&claimed.0));
        let merged = merge_shards(Some(&cache), &cfg, &RunOptions::new(jobs), 3, Some(&tasks));
        assert_eq!(
            projection(&merged),
            projection(&ref1),
            "gap fill at --jobs {jobs} must complete the orphan-claimed cell"
        );
    }

    // ------- Phase 4: a victim that wakes up late. Shard 1 steals
    // shard 0's whole slice (claims + results in its own journal),
    // then shard 0's worker finally runs through the real entry point:
    // its pre-scan must find everything taken and evaluate nothing,
    // and the merge must still be byte-identical (every cell came from
    // the shared runner).
    write_one_shard(&cache, &cfg, &models, &tasks, &runner, spec1);
    write_one_shard(&cache, &cfg, &models, &tasks, &runner, spec2);
    let wal1 = Journal::open_append(&journal::shard_journal_path(&cache, spec1)).unwrap();
    let ids: Vec<_> = victim_cells.iter().map(|c| c.id).collect();
    wal1.append_claims(&ids, 1).unwrap();
    eval::evaluate_cells_priors(&cfg, &models, victim_cells.clone(), 2, None, &runner, Replay::new(), |cell, model, rec| {
        wal1.append(cell, model, rec).unwrap();
    });
    drop(wal1);
    let victim_stats = run_shard(Some(&cache), &cfg, &RunOptions::new(1), spec0, Some(&tasks));
    assert_eq!(victim_stats.cells, 0, "a fully-stolen victim has nothing left to evaluate");
    assert_eq!(victim_stats.cells_stolen, 0);
    assert!(victim_stats.steal_scans >= 1, "the victim's pre-scan is counted");
    let merged = merge_shards(Some(&cache), &cfg, &RunOptions::new(2), 3, Some(&tasks));
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        ref_json,
        "late-victim handoff must still reassemble the exact unsharded bytes"
    );

    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(pipeline::cache_stats_path(&cache));
}

/// A thief through the real worker entry point. In a 2-shard run whose
/// shard 0 never got past its journal header, `run_shard` for shard 1
/// drains its own partition, steals all of shard 0's, and reports every
/// cell it evaluated, the last stolen batch included, in its stats.
#[test]
fn run_shard_thief_reports_every_stolen_batch() {
    let cfg = EvalConfig::smoke();
    let tasks: Vec<_> = smoke_tasks().into_iter().take(4).collect();
    let models = pcg_models::zoo();
    let dir = std::env::temp_dir().join("pcgbench-steal-handoff-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join(format!("thief-{}.rec", std::process::id()));
    let plan = eval::plan_for(&cfg, &models, Some(&tasks));
    let (spec0, spec1) = (ShardSpec::new(0, 2), ShardSpec::new(1, 2));
    let victim = plan.shard_with(spec0, None).len();
    let own = plan.shard_with(spec1, None).len();
    assert!(victim > 2 && own > 0, "degenerate 2-shard plan: {victim} + {own} cells");
    let jpath0 = journal::shard_journal_path(&cache, spec0);
    drop(Journal::create_sourced(&jpath0, &cfg, &[], spec0, 0).unwrap());

    // Two workers steal in batches of two, so the victim's partition
    // takes several batches.
    let opts = RunOptions { shard: Some(spec1), ..RunOptions::new(2) };
    let stats = run_shard(Some(&cache), &cfg, &opts, spec1, Some(&tasks));
    assert_eq!(stats.cells_stolen as usize, victim, "the thief drains shard 0's whole partition");
    assert_eq!(stats.cells, own + victim, "cells counts the worker's own cells plus the stolen ones");
    assert_eq!(stats.cell_walls.len(), stats.cells, "one measured wall per evaluated cell");
    let walled: Vec<u64> = stats.cell_walls.iter().map(|w| w.cell).collect();
    let mut every: Vec<u64> = plan.cells().map(|c| c.id.0).collect();
    every.sort_unstable();
    assert_eq!(walled, every, "the walls cover the whole grid, sorted by cell id");

    journal::remove(&jpath0);
    journal::remove(&journal::shard_journal_path(&cache, spec1));
    let _ = std::fs::remove_file(shard_stats_path(&cache, spec1));
}

/// A source whose every candidate fails to build: evaluating a cell
/// costs its problem's baseline and nothing else.
struct NeverBuilds(Vec<String>);

impl pcg_models::CandidateSource for NeverBuilds {
    fn model_names(&self) -> Vec<String> {
        self.0.clone()
    }

    fn weights_available(&self, _: usize) -> bool {
        true
    }

    fn sample(&self, _: usize, _: TaskId, spec: &pcg_models::SampleSpec) -> Vec<CandidateKind> {
        vec![CandidateKind::BuildFailure; spec.n]
    }
}

#[test]
fn thieves_take_the_exact_reverse_of_the_victims_dispatch() {
    let cfg = EvalConfig::smoke();
    let source = NeverBuilds(pcg_models::CandidateSource::model_names(&pcg_models::zoo()));
    let tasks = smoke_tasks();
    let plan = eval::plan_for(&cfg, &source, Some(&tasks));
    let runner = SharedRunner::new(cfg.clone());
    let priors = CostPriors::default_profile();
    let cost = |c: &pcg_core::plan::PlanCell| priors.cost(&plan.models()[c.model], c.task);
    for withp in [None, Some(&priors)] {
        for k in 0..3 {
            let spec = ShardSpec::new(k, 3);
            let owned = plan.shard_with(spec, withp);
            // At one worker the cells complete, and so reach `on_cell`,
            // in exactly the order they are dispatched.
            let mut dispatched: Vec<CellId> = Vec::new();
            eval::evaluate_cells_priors(&cfg, &source, owned, 1, withp, &runner, Replay::new(), |cell, _, _| {
                dispatched.push(cell);
            });
            let steal = plan.steal_order(spec, withp);
            // Every model row of a task costs the same under the
            // default profile, so the id tie-break orders most cells.
            assert!(steal.windows(2).any(|w| cost(&w[0]) == cost(&w[1])));
            let mut stolen: Vec<CellId> = steal.iter().map(|c| c.id).collect();
            stolen.reverse();
            assert_eq!(stolen, dispatched, "shard {spec}, priors {}", withp.is_some());
        }
    }
}
