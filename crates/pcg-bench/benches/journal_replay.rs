//! Journal replay A/B: a JSONL baseline vs v3 binary frames.
//!
//! The binary journal's entire reason to exist is the resume/merge hot
//! path: `--resume`, `--merge-shards`, and compaction all start by
//! replaying every completed cell from disk. The baseline is what a
//! JSON journal costs: one `serde_json` line per cell, parsed back with
//! the same cell-id self-check and map insert replay does. Both are
//! built from the same full-grid replay — every zoo model × the
//! paper's task grid, with paper-shaped samples (20 low, 200 high,
//! Figure-5 sweeps) — and the JSONL reader below is timed against
//! [`pcg_harness::journal::load_counting_sourced`].
//!
//! Writes `target/pcgbench/BENCH_journal.json` and asserts the >=3x
//! floor from the journal-v3 work. `-- --quick` shrinks the grid for
//! smoke runs (the floor still applies: the speedup is per-byte, not
//! per-file).

use pcg_core::plan::{CellId, ShardSpec};
use pcg_core::task::all_tasks;
use pcg_core::TaskId;
use pcg_harness::journal::{self, config_hash, Replay, ReplayCell};
use pcg_harness::record::TaskRecord;
use pcg_harness::EvalConfig;
use pcg_metrics::TaskSamples;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Deterministic paper-shaped record for grid row `i`: 20 low samples,
/// a 200-sample high set on even rows, and a 3-point sweep on every
/// third row — roughly the mix a real full run commits.
fn synth_record(task: TaskId, i: usize) -> TaskRecord {
    let flag = |k: usize| !(i * 31 + k * 7).is_multiple_of(3);
    let ratio = |k: usize| ((i * 13 + k * 5) % 97) as f64 * 0.371 + 0.25;
    let samples = |n: usize| TaskSamples {
        built: (0..n).map(flag).collect(),
        correct: (0..n).map(|k| flag(k) && flag(k + 1)).collect(),
        ratio: (0..n).map(ratio).collect(),
    };
    TaskRecord {
        task,
        low: samples(20),
        high: i.is_multiple_of(2).then(|| samples(200)),
        sweep: if i.is_multiple_of(3) {
            BTreeMap::from([
                (2u32, (0..20).map(ratio).collect()),
                (4u32, (0..20).map(|k| ratio(k) / 2.0).collect()),
                (8u32, (0..20).map(|k| ratio(k) / 4.0).collect()),
            ])
        } else {
            BTreeMap::new()
        },
    }
}

fn bench_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pcgbench-journal-replay");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    dir.join(format!("{name}-{}.journal", std::process::id()))
}

/// One line of the JSONL baseline.
#[derive(Serialize, Deserialize)]
struct JsonlEntry {
    cell: u64,
    model: String,
    record: TaskRecord,
}

fn write_jsonl(path: &Path, entries: &[(CellId, String, TaskRecord)]) {
    let mut out = String::new();
    for (cell, model, record) in entries {
        let entry = JsonlEntry { cell: cell.0, model: model.clone(), record: record.clone() };
        out.push_str(&serde_json::to_string(&entry).expect("serialize entry"));
        out.push('\n');
    }
    std::fs::write(path, out).expect("write JSONL baseline");
}

/// Replay the JSONL baseline: one parse per line, then the cell-id
/// self-check and map insert binary replay performs per frame.
fn load_jsonl(path: &Path, chash: u64) -> Replay {
    let text = std::fs::read_to_string(path).expect("read JSONL baseline");
    let mut replay = Replay::new();
    for line in text.lines() {
        let entry: JsonlEntry = serde_json::from_str(line).expect("parse JSONL entry");
        let id = CellId::new(chash, &entry.model, entry.record.task);
        assert_eq!(id.0, entry.cell, "cell self-check");
        replay.insert(id, ReplayCell { model: entry.model, record: entry.record });
    }
    replay
}

/// Best-of-`reps` wall seconds for `load` to fully replay a journal,
/// verifying each pass recovers every cell.
fn replay_seconds(load: impl Fn() -> Replay, expected: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let replay = load();
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(replay.len(), expected, "replay must recover every cell");
        best = best.min(dt);
    }
    best
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (task_cap, reps) = if quick { (60, 3) } else { (420, 5) };

    let cfg = EvalConfig::quick();
    let chash = config_hash(&cfg);
    let models: Vec<String> =
        pcg_models::zoo().into_iter().map(|m| m.card().name.to_string()).collect();
    let tasks: Vec<TaskId> = all_tasks().take(task_cap).collect();

    let mut entries: Vec<(CellId, String, TaskRecord)> = Vec::new();
    for model in &models {
        for &task in &tasks {
            let i = entries.len();
            entries.push((CellId::new(chash, model, task), model.clone(), synth_record(task, i)));
        }
    }
    let replay: Replay = entries
        .iter()
        .map(|(id, model, rec)| {
            (*id, ReplayCell { model: model.clone(), record: rec.clone() })
        })
        .collect();

    // Materialise the identical replay in both formats.
    let jsonl_path = bench_path("jsonl");
    let v3_path = bench_path("v3");
    write_jsonl(&jsonl_path, &entries);
    journal::compact(&v3_path, &cfg, ShardSpec::WHOLE, &replay).expect("write v3 journal");
    let jsonl_bytes = std::fs::metadata(&jsonl_path).expect("JSONL size").len();
    let v3_bytes = std::fs::metadata(&v3_path).expect("v3 size").len();

    let jsonl_s = replay_seconds(|| load_jsonl(&jsonl_path, chash), entries.len(), reps);
    let v3_s = replay_seconds(
        || {
            let loaded = journal::load_counting_sourced(&v3_path, &cfg, &[], ShardSpec::WHOLE, 0);
            assert!(loaded.rejects.is_empty(), "a clean journal must replay without rejects");
            loaded.replay
        },
        entries.len(),
        reps,
    );
    let speedup = jsonl_s / v3_s;

    let _ = std::fs::remove_file(&jsonl_path);
    let _ = std::fs::remove_file(&v3_path);

    // The `v2_*` keys name the JSONL baseline: the schema predates it.
    let json = format!(
        concat!(
            "{{\"workload\":\"full-grid journal replay: {} cells ({} models x {} tasks, ",
            "paper-shaped samples), JSONL parse vs v3 binary frames, best of {}\",",
            "\"cells\":{},\"v2_bytes\":{},\"v3_bytes\":{},",
            "\"v2_replay_s\":{:.6},\"v3_replay_s\":{:.6},\"speedup\":{:.3}}}"
        ),
        entries.len(),
        models.len(),
        tasks.len(),
        reps,
        entries.len(),
        jsonl_bytes,
        v3_bytes,
        jsonl_s,
        v3_s,
        speedup,
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/pcgbench");
    std::fs::create_dir_all(&dir).expect("create target/pcgbench");
    std::fs::write(dir.join("BENCH_journal.json"), &json).expect("write BENCH_journal.json");
    println!(
        "journal_replay: {} cells: JSONL {:.1} MB in {jsonl_s:.4}s, v3 {:.1} MB in {v3_s:.4}s, \
         speedup {speedup:.1}x",
        entries.len(),
        jsonl_bytes as f64 / 1e6,
        v3_bytes as f64 / 1e6,
    );
    assert!(
        speedup >= 3.0,
        "v3 replay must beat JSONL by >=3x, got {speedup:.2}x ({json})"
    );
}
