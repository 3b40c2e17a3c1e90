//! A resume or merge commits the records cache by copying the journal
//! frames it validated and encoding only the cells it evaluated. The
//! copy is an optimisation only: in every case below the committed
//! bytes must equal [`journal::commit_record`] of the record the call
//! returned, which encodes every cell afresh.
//!
//! The journals hold synthetic records (any record of the right task
//! is a valid cell), so a fully replayed run evaluates nothing; the
//! partial cases leave a few cells to evaluate under the smoke config.

use pcg_core::plan::{CellId, PlanCell, ShardSpec, WorkPlan};
use pcg_harness::journal::{self, Replay, ReplayCell};
use pcg_harness::pipeline::{self, RunOptions};
use pcg_harness::record::TaskRecord;
use pcg_harness::shard::merge_shards;
use pcg_harness::{eval, EvalConfig, EvalRecord, EvalStats};
use pcg_metrics::TaskSamples;
use pcg_models::{dump_pool, CandidateSource, SampleSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pcgbench-copy-commit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A record for `cell` whose floats are shifted by `timing`, standing
/// in for the run-to-run noise of measured ratios.
fn synth(c: &PlanCell, timing: f64) -> TaskRecord {
    let i = c.model * 1000 + c.task_idx;
    let samples = |n: usize| TaskSamples {
        built: (0..n).map(|k| !(i + k).is_multiple_of(3)).collect(),
        correct: (0..n).map(|k| (i + k).is_multiple_of(4)).collect(),
        ratio: (0..n).map(|k| ((i * 7 + k) % 31) as f64 * 0.25 + timing).collect(),
    };
    TaskRecord {
        task: c.task,
        low: samples(3 + i % 4),
        high: i.is_multiple_of(2).then(|| samples(5)),
        sweep: if i.is_multiple_of(3) {
            BTreeMap::from([(2, vec![0.5 + timing])])
        } else {
            BTreeMap::new()
        },
    }
}

/// The replay of `cells`, as a journal holding them would load.
fn replay_of<'a>(
    plan: &WorkPlan,
    cells: impl IntoIterator<Item = &'a PlanCell>,
    timing: f64,
) -> Replay {
    cells
        .into_iter()
        .map(|c| {
            (c.id, ReplayCell { model: plan.models()[c.model].clone(), record: synth(c, timing) })
        })
        .collect()
}

/// The committed cache at `cache` is byte for byte the cache
/// [`journal::commit_record`] writes for `record`.
fn assert_cache_is_the_encoding(cache: &Path, plan: &WorkPlan, record: &EvalRecord, what: &str) {
    let encoded = cache.with_extension("encoded");
    journal::commit_record(&encoded, plan, record).unwrap();
    let (got, want) = (std::fs::read(cache).unwrap(), std::fs::read(&encoded).unwrap());
    assert_eq!(got.len(), want.len(), "{what}: cache length");
    assert!(got == want, "{what}: the copied cache differs from the encoded one");
    let back = pipeline::read_cache(cache, &record.config, plan).expect("the cache reads back");
    assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(record).unwrap());
}

fn resume(jobs: usize) -> RunOptions {
    RunOptions { resume: true, ..RunOptions::new(jobs) }
}

fn record_of(rec: &EvalRecord, plan: &WorkPlan, id: CellId) -> String {
    let c = plan.cells().find(|c| c.id == id).unwrap();
    serde_json::to_string(&rec.models[c.model].tasks[c.task_idx]).unwrap()
}

#[test]
fn resumes_commit_copied_frames_byte_identically() {
    let cfg = EvalConfig::smoke();
    let dir = tmp_dir("resume");
    let plan = eval::plan_for(&cfg, &pipeline::resolve_source(&cfg, &resume(2)), None);
    let cells: Vec<PlanCell> = plan.cells().collect();

    // Fully replayed: every frame is copied.
    let cache = dir.join("full.rec");
    let all = replay_of(&plan, &cells, 0.0);
    journal::compact(&journal::journal_path(&cache), &cfg, ShardSpec::WHOLE, &all).unwrap();
    let rec = pipeline::load_or_run_opts(Some(&cache), &cfg, &resume(2));
    let want = eval::assemble(&cfg, &plan, |c| all[&c.id].record.clone());
    assert_eq!(serde_json::to_string(&rec).unwrap(), serde_json::to_string(&want).unwrap());
    assert_cache_is_the_encoding(&cache, &plan, &rec, "fully replayed resume");

    // Partial: the first cells of the plan are evaluated and encoded,
    // the rest copied, at a jobs count that splits the decode.
    let cache = dir.join("partial.rec");
    let missing = 3;
    let some = replay_of(&plan, &cells[missing..], 0.0);
    journal::compact(&journal::journal_path(&cache), &cfg, ShardSpec::WHOLE, &some).unwrap();
    let rec = pipeline::load_or_run_opts(Some(&cache), &cfg, &resume(4));
    assert_cache_is_the_encoding(&cache, &plan, &rec, "partial resume");
    for c in &cells[missing..] {
        assert_eq!(
            record_of(&rec, &plan, c.id),
            serde_json::to_string(&some[&c.id].record).unwrap()
        );
    }
    let stats: EvalStats =
        serde_json::from_slice(&std::fs::read(pipeline::cache_stats_path(&cache)).unwrap())
            .unwrap();
    assert_eq!((stats.cells, stats.resumed_cells), (plan.len(), plan.len() - missing));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merges_copy_the_frame_whose_record_won() {
    let cfg = EvalConfig::smoke();
    let dir = tmp_dir("merge");
    let opts = RunOptions::new(2);
    let plan = eval::plan_for(&cfg, &pipeline::resolve_source(&cfg, &opts), None);
    let specs = [ShardSpec::new(0, 2), ShardSpec::new(1, 2)];
    let owned: Vec<Vec<PlanCell>> = specs.iter().map(|&s| plan.shard(s)).collect();

    // Each shard journal holds its own cells, plus one cell of the
    // other shard measured with different timing floats (a lost steal
    // race). The later journal's record wins, and so must its frame:
    // shard 1's copy of shard 0's cell, and shard 1's own cell over
    // shard 0's copy of it.
    let (from0, from1) = (owned[0][5], owned[1][7]);
    let write = |cache: &Path, leave_out: usize| {
        for (k, &spec) in specs.iter().enumerate() {
            let mut replay = replay_of(&plan, &owned[k][leave_out..], 0.0);
            let stolen = if k == 0 { from1 } else { from0 };
            replay.extend(replay_of(&plan, [&stolen], 0.125 * (k + 1) as f64));
            journal::compact(&journal::shard_journal_path(cache, spec), &cfg, spec, &replay)
                .unwrap();
        }
    };

    let cache = dir.join("merged.rec");
    write(&cache, 0);
    let rec = merge_shards(Some(&cache), &cfg, &opts, 2, None);
    assert_cache_is_the_encoding(&cache, &plan, &rec, "2-shard merge");
    let won = |c: &PlanCell, timing| serde_json::to_string(&synth(c, timing)).unwrap();
    assert_eq!(record_of(&rec, &plan, from0.id), won(&from0, 0.25), "shard 1's copy wins");
    assert_eq!(record_of(&rec, &plan, from1.id), won(&from1, 0.0), "shard 1's own cell wins");
    assert_ne!(won(&from1, 0.0), won(&from1, 0.125), "the two copies must differ");

    // Gap fill: the first two cells of each shard are in no journal,
    // so the merge evaluates and encodes them.
    let cache = dir.join("gap.rec");
    write(&cache, 2);
    let rec = merge_shards(Some(&cache), &cfg, &RunOptions::new(4), 2, None);
    assert_cache_is_the_encoding(&cache, &plan, &rec, "merge with a gap fill");
    assert_eq!(record_of(&rec, &plan, from0.id), won(&from0, 0.25));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_pool_resume_copies_salted_frames() {
    let cfg = EvalConfig::smoke();
    let dir = tmp_dir("pool");
    // A pool for the plan's first task only: that is the one cell the
    // resume evaluates; every other cell replays from the journal.
    let zoo = pcg_models::zoo();
    let first_task = eval::plan_for(&cfg, zoo.as_slice(), None).cells().next().unwrap().task;
    let specs = [
        SampleSpec::new(cfg.temp_low, cfg.samples_low, cfg.seed),
        SampleSpec::new(cfg.temp_high, cfg.samples_high, cfg.seed),
    ];
    let pool = dir.join("pool");
    dump_pool(&pool, zoo.as_slice(), &[first_task], &specs).unwrap();
    let opts = RunOptions { replay_pool: Some(pool.display().to_string()), ..resume(2) };
    let source = pipeline::resolve_source(&cfg, &opts);
    let salt = source.config_salt();
    assert!(!salt.is_empty());
    let plan = eval::plan_for(&cfg, &source, None);
    let cells: Vec<PlanCell> = plan.cells().collect();

    let cache = dir.join("pool.rec");
    let replay = replay_of(&plan, &cells[1..], 0.0);
    let jpath = journal::journal_path(&cache);
    journal::compact_sourced(&jpath, &cfg, &salt, ShardSpec::WHOLE, 0, &replay).unwrap();
    let rec = pipeline::load_or_run_opts(Some(&cache), &cfg, &opts);
    assert_cache_is_the_encoding(&cache, &plan, &rec, "replay-pool resume");
    let stats: EvalStats =
        serde_json::from_slice(&std::fs::read(pipeline::cache_stats_path(&cache)).unwrap())
            .unwrap();
    assert_eq!(stats.resumed_cells, plan.len() - 1, "the salted journal replayed");

    std::fs::remove_dir_all(&dir).unwrap();
}
