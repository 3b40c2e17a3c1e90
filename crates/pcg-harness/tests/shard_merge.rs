//! Sharded-evaluation hard constraints.
//!
//! Multi-process sharding is a pure topology change: merging the shard
//! journals of `--shard 0/3 + 1/3 + 2/3` must produce records
//! **byte-identical** to an unsharded run of the same config, at any
//! worker count, on the warm path. Byte-identity is the
//! shared-measurement guarantee (the same discipline `crash_resume`
//! enforces): records embed measured candidate timings, so the exact
//! comparison holds when every phase draws from one [`SharedRunner`]'s
//! execution cache. Across genuinely independent runners — the torn
//! journal and killed-worker phases below, where the merge and the
//! resumed worker re-measure — the comparison is the deterministic
//! projection (`pcg_harness::record::projection`), exactly as CI
//! compares separate worker processes.

use pcg_core::plan::ShardSpec;
use pcg_harness::eval::{self, evaluate_with, smoke_tasks};
use pcg_harness::journal::{self, Journal, Replay};
use pcg_harness::pipeline::{self, RunOptions};
use pcg_harness::record::{projection, stats_projection, EvalStats};
use pcg_harness::shard::{merge_shards, run_shard, shard_stats_path};
use pcg_harness::{EvalConfig, SharedRunner};
use pcg_problems::input_cache;
use std::path::{Path, PathBuf};

fn tmp_cache() -> PathBuf {
    let dir = std::env::temp_dir().join("pcgbench-shard-merge-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("records-{}.rec", std::process::id()))
}

/// Write real shard journals + stats sidecars for all three shards,
/// the way three workers would, but drawing from `runner`'s shared
/// caches so the written records are byte-comparable to the reference.
fn write_shard_journals(
    cache: &Path,
    cfg: &EvalConfig,
    models: &[pcg_models::SyntheticModel],
    tasks: &[pcg_core::TaskId],
    runner: &SharedRunner,
) {
    let plan = eval::plan_for(cfg, models, Some(tasks));
    for k in 0..3 {
        let spec = ShardSpec::new(k, 3);
        let jpath = journal::shard_journal_path(cache, spec);
        let wal = Journal::create_sourced(&jpath, cfg, &[], spec, 0).unwrap();
        let run = eval::evaluate_cells_priors(cfg, models, plan.shard(spec), 2, None, runner, Replay::new(), |cell, model, rec| {
            wal.append(cell, model, rec).unwrap();
        });
        assert!(run.stats.cells > 0, "shard {spec} must own some cells");
        assert!(
            std::fs::read(&jpath).unwrap().starts_with(&pcg_core::frame::JOURNAL_MAGIC),
            "shard workers write v3 binary journals"
        );
        let bytes = serde_json::to_vec(&run.stats).unwrap();
        std::fs::write(shard_stats_path(cache, spec), bytes).unwrap();
    }
}

/// Chop a v3 journal down to its header plus the first `keep` entry
/// frames, then leave a torn frame — the on-disk state a SIGKILL
/// mid-append leaves behind. Cuts at exact frame boundaries via
/// `journal::entry_offsets`, then keeps the first 10 bytes of the next
/// frame (less than the 16-byte frame header, so replay classifies it
/// as a torn tail).
fn simulate_crash(path: &Path, keep: usize) {
    let offsets = journal::entry_offsets(path);
    assert!(keep + 1 < offsets.len(), "must cut strictly inside the journal");
    let bytes = std::fs::read(path).unwrap();
    let cut = offsets[keep] as usize;
    std::fs::write(path, &bytes[..cut + 10]).unwrap();
}

#[test]
fn merged_shards_match_the_unsharded_run() {
    let cfg = EvalConfig::smoke();
    // One problem across all seven execution models (× the full zoo —
    // the shard worker and merge paths evaluate every zoo model), so
    // every substrate participates in every topology.
    let tasks: Vec<_> = smoke_tasks().into_iter().take(7).collect();
    let models = pcg_models::zoo();
    let cache = tmp_cache();
    input_cache::flush();

    // ------- Phase 1: unsharded reference, --jobs 1 and --jobs 8.
    let runner = SharedRunner::new(cfg.clone());
    let (ref1, ref_stats) = evaluate_with(&cfg, &models, Some(&tasks), 1, &runner);
    let (ref8, ref8_stats) = evaluate_with(&cfg, &models, Some(&tasks), 8, &runner);
    let ref_json = serde_json::to_string(&ref1).unwrap();
    assert_eq!(
        ref_json,
        serde_json::to_string(&ref8).unwrap(),
        "unsharded records must be jobs-agnostic"
    );
    assert!(
        ref8_stats.ranks_multiplexed > 0,
        "warm path must be engaged for this test: {ref8_stats:?}"
    );

    // ------- Phase 2: three shard workers write real journals, then
    // merge. The merged records must be byte-identical to the
    // reference, the cache commit byte-identical too, and the merged
    // stats sidecar must project identically.
    write_shard_journals(&cache, &cfg, &models, &tasks, &runner);
    let merged = merge_shards(Some(&cache), &cfg, &RunOptions::new(2), 3, Some(&tasks));
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        ref_json,
        "merged shard journals must reproduce the unsharded record exactly"
    );
    let plan = eval::plan_for(&cfg, &models, Some(&tasks));
    let read_back = pipeline::read_cache(&cache, &cfg, &plan).expect("merge commits a cache");
    assert_eq!(
        serde_json::to_string(&read_back).unwrap(),
        ref_json,
        "the committed cache must read back to the identical record, floats included"
    );
    let first_commit = std::fs::read(&cache).unwrap();
    journal::commit_record(&cache, &plan, &merged).unwrap();
    assert_eq!(
        std::fs::read(&cache).unwrap(),
        first_commit,
        "committing the same record twice must write identical bytes"
    );
    assert!(
        !cache.with_extension("rec.cols").exists(),
        "merge commits no .cols file, only the cache and its stats sidecar"
    );
    let merged_stats: EvalStats =
        serde_json::from_slice(&std::fs::read(pipeline::cache_stats_path(&cache)).unwrap())
            .unwrap();
    assert_eq!(
        stats_projection(&merged_stats),
        stats_projection(&ref_stats),
        "merged stats must project identically to the unsharded sidecar"
    );
    for k in 0..3 {
        let spec = ShardSpec::new(k, 3);
        assert!(
            !journal::shard_journal_path(&cache, spec).exists(),
            "a successful merge must consume shard {spec}'s journal"
        );
        assert!(!shard_stats_path(&cache, spec).exists());
    }

    // ------- Phase 3: torn-journal tolerance. A shard journal that
    // lost its tail to a SIGKILL mid-append merges anyway: the merge
    // re-evaluates the lost cells itself. Its measurements are its own
    // (fresh runner), so the comparison is the deterministic
    // projection, as across real processes.
    write_shard_journals(&cache, &cfg, &models, &tasks, &runner);
    simulate_crash(&journal::shard_journal_path(&cache, ShardSpec::new(1, 3)), 2);
    let merged_torn = merge_shards(Some(&cache), &cfg, &RunOptions::new(2), 3, Some(&tasks));
    assert_eq!(
        projection(&merged_torn),
        projection(&ref1),
        "a torn shard journal must not change the merged projection"
    );

    // ------- Phase 4: `--shard` composes with `--resume`. Kill a
    // worker mid-shard (partial journal + torn line), resume it through
    // the real worker entry point — which must compact the stale tail
    // and replay the completed prefix — run the other two workers
    // fresh, and merge. Every worker measures independently here, so
    // again: projection equality.
    let spec0 = ShardSpec::new(0, 3);
    write_shard_journals(&cache, &cfg, &models, &tasks, &runner);
    let keep = 2;
    simulate_crash(&journal::shard_journal_path(&cache, spec0), keep);
    let resume_opts =
        RunOptions { resume: true, shard: Some(spec0), ..RunOptions::new(2) };
    let stats0 = run_shard(Some(&cache), &cfg, &resume_opts, spec0, Some(&tasks));
    assert_eq!(stats0.resumed_cells, keep, "the completed prefix must replay, not re-run");
    assert!(stats0.journal_compactions > 0, "the torn tail must be compacted away");
    assert_eq!(
        stats0.journal_frames_rejected, 1,
        "the torn frame must be counted as rejected, not silently skipped"
    );
    for k in 1..3 {
        let spec = ShardSpec::new(k, 3);
        // Shards 1 and 2 were fully journaled by write_shard_journals;
        // re-running them through the worker entry point must replay
        // everything and evaluate nothing.
        let opts = RunOptions { resume: true, ..RunOptions::new(2) };
        let stats = run_shard(Some(&cache), &cfg, &opts, spec, Some(&tasks));
        assert_eq!(stats.resumed_cells, stats.cells, "an intact shard journal replays fully");
    }
    let merged_resumed = merge_shards(Some(&cache), &cfg, &RunOptions::new(2), 3, Some(&tasks));
    assert_eq!(
        projection(&merged_resumed),
        projection(&ref1),
        "kill + resume + merge must reproduce the unsharded projection"
    );
    let resumed_stats: EvalStats =
        serde_json::from_slice(&std::fs::read(pipeline::cache_stats_path(&cache)).unwrap())
            .unwrap();
    assert!(
        resumed_stats.journal_compactions > 0,
        "the merged sidecar must surface the worker's compaction"
    );
    assert_eq!(stats_projection(&resumed_stats), stats_projection(&ref_stats));

    // ------- Phase 5: a merge whose cache commit fails (a directory
    // sits at the cache path) must keep every shard journal and stats
    // sidecar: they are all there is of the run. Once the path is free,
    // a second merge commits the cache and only then consumes them.
    write_shard_journals(&cache, &cfg, &models, &tasks, &runner);
    std::fs::remove_file(&cache).unwrap();
    std::fs::create_dir(&cache).unwrap();
    let blocked = merge_shards(Some(&cache), &cfg, &RunOptions::new(2), 3, Some(&tasks));
    assert_eq!(serde_json::to_string(&blocked).unwrap(), ref_json);
    for k in 0..3 {
        let spec = ShardSpec::new(k, 3);
        assert!(
            journal::shard_journal_path(&cache, spec).exists(),
            "a merge whose commit failed must keep shard {spec}'s journal"
        );
        assert!(shard_stats_path(&cache, spec).exists(), "and shard {spec}'s stats sidecar");
    }
    std::fs::remove_dir(&cache).unwrap();
    let retried = merge_shards(Some(&cache), &cfg, &RunOptions::new(2), 3, Some(&tasks));
    assert_eq!(serde_json::to_string(&retried).unwrap(), ref_json);
    let read_back = pipeline::read_cache(&cache, &cfg, &plan).expect("the retried merge commits");
    assert_eq!(serde_json::to_string(&read_back).unwrap(), ref_json);
    for k in 0..3 {
        let spec = ShardSpec::new(k, 3);
        assert!(
            !journal::shard_journal_path(&cache, spec).exists(),
            "the committed merge must consume shard {spec}'s journal"
        );
        assert!(!shard_stats_path(&cache, spec).exists());
    }

    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(pipeline::cache_stats_path(&cache));
}
