//! Adaptive-scheduling hard constraints.
//!
//! Cost priors may only change **when** cells run (LPT dispatch) and
//! **where** they run (cost-weighted shard partitioning) — never what
//! any cell computes. So the records of a priors run must be
//! byte-identical to a no-priors run at any worker count, a weighted
//! 3-shard merge must reassemble the exact unsharded bytes, and a
//! journal stamped with one priors hash must never replay into a run
//! scheduling under another (the merge re-evaluates instead).
//!
//! One `#[test]`: phases share a [`SharedRunner`] execution cache so
//! the byte comparisons are exact (the same discipline `shard_merge`
//! uses); interleaving phases would split the cache.

use pcg_core::plan::ShardSpec;
use pcg_core::CostPriors;
use pcg_harness::colstats::{cols_path, ColumnarStats};
use pcg_harness::eval::{self, evaluate_with, smoke_tasks};
use pcg_harness::journal::{self, Journal, Replay};
use pcg_harness::pipeline::{self, RunOptions};
use pcg_harness::record::{projection, EvalStats};
use pcg_harness::shard::{merge_shards, shard_stats_path};
use pcg_harness::{EvalConfig, SharedRunner};
use std::path::{Path, PathBuf};

fn tmp_cache() -> PathBuf {
    let dir = std::env::temp_dir().join("pcgbench-sched-balance-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("records-{}.json", std::process::id()))
}

/// Write real 3-shard journals + stats sidecars the way three
/// cooperating workers would: partitioned and dispatched under
/// `priors` (when given) and stamped with its hash.
fn write_shard_journals(
    cache: &Path,
    cfg: &EvalConfig,
    models: &[pcg_models::SyntheticModel],
    tasks: &[pcg_core::TaskId],
    runner: &SharedRunner,
    priors: Option<&CostPriors>,
) {
    let plan = eval::plan_for(cfg, models, Some(tasks));
    let hash = priors.map_or(0, |p| p.hash());
    for k in 0..3 {
        let spec = ShardSpec::new(k, 3);
        let jpath = journal::shard_journal_path(cache, spec);
        let wal = Journal::create_sourced(&jpath, cfg, &[], spec, hash).unwrap();
        let run = eval::evaluate_cells_priors(
            cfg,
            models,
            plan.shard_with(spec, priors),
            2,
            priors,
            runner,
            &Replay::new(),
            |cell, model, rec| wal.append(cell, model, rec).unwrap(),
        );
        assert!(run.stats.cells > 0, "shard {spec} must own some cells");
        let bytes = serde_json::to_vec(&run.stats).unwrap();
        std::fs::write(shard_stats_path(cache, spec), bytes).unwrap();
    }
}

#[test]
fn priors_reorder_execution_without_touching_a_byte() {
    let cfg = EvalConfig::smoke();
    let tasks: Vec<_> = smoke_tasks().into_iter().take(7).collect();
    let models = pcg_models::zoo();
    let cache = tmp_cache();
    let priors = CostPriors::default_profile();

    // ------- Phase 1: no-priors reference at --jobs 1.
    let runner = SharedRunner::new(cfg.clone());
    let (ref1, _) = evaluate_with(&cfg, &models, Some(&tasks), 1, &runner);
    let ref_json = serde_json::to_string(&ref1).unwrap();

    // ------- Phase 2: LPT dispatch under the default profile, serial
    // and parallel. Bytes must not move.
    for jobs in [1usize, 8] {
        let (rec, stats) = eval::evaluate_resumable_priors(
            &cfg,
            &models,
            Some(&tasks),
            jobs,
            Some(&priors),
            &runner,
            &Replay::new(),
            |_, _, _| {},
        );
        assert_eq!(
            serde_json::to_string(&rec).unwrap(),
            ref_json,
            "priors at --jobs {jobs} must reproduce the no-priors record exactly"
        );
        assert_eq!(
            stats.cell_walls.len(),
            stats.cells,
            "every freshly evaluated cell must report a measured wall"
        );
    }

    // ------- Phase 3: three weighted shard workers, then a weighted
    // merge. Byte-identical reassembly, one wall entry per worker, and
    // the committed cols sidecar must carry walls usable as the next
    // run's priors.
    write_shard_journals(&cache, &cfg, &models, &tasks, &runner, Some(&priors));
    let merged = merge_shards(
        Some(&cache),
        &cfg,
        &RunOptions::new(2).with_priors("default"),
        3,
        Some(&tasks),
    );
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        ref_json,
        "a weighted 3-shard merge must reproduce the unsharded record exactly"
    );
    assert_eq!(std::fs::read(&cache).unwrap(), ref_json.as_bytes());
    let stats: EvalStats =
        serde_json::from_slice(&std::fs::read(pipeline::stats_path(&cfg)).unwrap()).unwrap();
    assert_eq!(stats.shard_walls.len(), 3, "one wall entry per shard worker");
    assert!(!stats.cell_walls.is_empty(), "merged stats union the measured walls");
    let cols = ColumnarStats::read(&cols_path(&cache)).expect("merge commits the cols sidecar");
    assert_eq!(cols.projection(), projection(&ref1), "walls never leak into the projection");
    let next_priors = cols
        .cost_priors("merged")
        .expect("a merged sidecar with measured walls must yield a priors table");
    assert!(!next_priors.is_empty());

    // ------- Phase 4: workers journaled WITHOUT priors, merge runs
    // WITH them. Every journal must be rejected on its hash stamp and
    // the grid re-evaluated — same projection, no silent mixing.
    write_shard_journals(&cache, &cfg, &models, &tasks, &runner, None);
    let remerged = merge_shards(
        Some(&cache),
        &cfg,
        &RunOptions::new(2).with_priors("default"),
        3,
        Some(&tasks),
    );
    assert_eq!(
        projection(&remerged),
        projection(&ref1),
        "a merge that rejects every journal still produces the full grid"
    );
    let stats: EvalStats =
        serde_json::from_slice(&std::fs::read(pipeline::stats_path(&cfg)).unwrap()).unwrap();
    assert!(
        stats.journal_frames_rejected >= 3,
        "all three mismatched journals must be rejected, got {}",
        stats.journal_frames_rejected
    );

    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(cols_path(&cache));
}
