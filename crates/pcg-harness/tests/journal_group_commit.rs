//! Group commit in the write-ahead journal.
//!
//! `Journal::append` writes its frame under the journal's lock and a
//! syncer thread makes it durable later, so these tests check what that
//! design must keep: concurrent appends and claims never interleave or
//! tear a frame, a journal dropped without `sync()` still holds every
//! frame, and dropping a journal stops its syncer thread.
//!
//! Every test takes `SERIAL`, so one test's journals and threads never
//! show up in another's thread count.

use pcg_core::plan::{CellId, ShardSpec};
use pcg_core::{ExecutionModel, ProblemId, ProblemType};
use pcg_harness::journal::{self, Journal};
use pcg_harness::record::TaskRecord;
use pcg_harness::EvalConfig;
use pcg_metrics::TaskSamples;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

const THREADS: usize = 8;
const APPENDS: usize = 500;
/// Each thread claims two cells after every `CLAIM_EVERY` appends.
const CLAIM_EVERY: usize = 50;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tmp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pcgbench-journal-group-commit-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.journal", std::process::id()))
}

/// A record unique to `(thread, i)`, so a frame torn or spliced from
/// two appends cannot decode to any record that was written.
fn record(thread: usize, i: usize) -> TaskRecord {
    TaskRecord {
        task: ProblemId::new(ProblemType::Reduce, i % 5).task(ExecutionModel::OpenMp),
        low: TaskSamples {
            built: vec![true, i.is_multiple_of(3)],
            correct: vec![thread.is_multiple_of(2), false],
            ratio: vec![thread as f64 + i as f64 / 1000.0, 0.5],
        },
        high: None,
        sweep: BTreeMap::from([(4u32, vec![i as f64])]),
    }
}

/// Each thread writes under its own model names, so every `(model,
/// task)` pair, and with it every cell id, is distinct.
fn model(thread: usize, i: usize) -> String {
    format!("t{thread}-m{i}")
}

fn cell(cfg: &EvalConfig, thread: usize, i: usize) -> CellId {
    CellId::new(journal::config_hash(cfg), &model(thread, i), record(thread, i).task)
}

/// Assert the journal at `path` replays exactly the `appended` cells,
/// each byte-identical to what was written, with no rejected frame and
/// no stale frame beyond the `claims` claim frames.
fn assert_replays(
    path: &Path,
    cfg: &EvalConfig,
    appended: &HashMap<CellId, (String, TaskRecord)>,
    claims: usize,
) {
    let loaded = journal::load_counting_sourced(path, cfg, &[], ShardSpec::WHOLE, 0);
    assert!(loaded.rejects.is_empty(), "rejected frames: {:?}", loaded.rejects);
    assert_eq!(loaded.stale_frames, claims, "only the claim frames may be stale");
    assert_eq!(loaded.replay.len(), appended.len());
    for (id, (model, rec)) in appended {
        let got = &loaded.replay[id];
        assert_eq!(&got.model, model);
        assert_eq!(
            serde_json::to_string(&got.record).unwrap(),
            serde_json::to_string(rec).unwrap(),
        );
    }
}

#[test]
fn concurrent_appends_and_claims_replay_every_cell_intact() {
    let _serial = serial();
    let cfg = EvalConfig::smoke();
    let path = tmp_path("concurrent");
    let wal = Journal::create_sourced(&path, &cfg, &[], ShardSpec::WHOLE, 0).unwrap();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (wal, cfg) = (&wal, &cfg);
            s.spawn(move || {
                for i in 0..APPENDS {
                    wal.append(cell(cfg, t, i), &model(t, i), &record(t, i)).unwrap();
                    if i % CLAIM_EVERY == CLAIM_EVERY - 1 {
                        // Claims name cells of a model no append uses.
                        let claimed = [cell(cfg, t + THREADS, i), cell(cfg, t + THREADS, i + 1)];
                        wal.append_claims(&claimed, t as u32).unwrap();
                    }
                }
            });
        }
    });
    wal.sync().unwrap();

    let appended: HashMap<CellId, (String, TaskRecord)> = (0..THREADS)
        .flat_map(|t| (0..APPENDS).map(move |i| (t, i)))
        .map(|(t, i)| (cell(&cfg, t, i), (model(t, i), record(t, i))))
        .collect();
    let claims = THREADS * (APPENDS / CLAIM_EVERY) * 2;
    assert_replays(&path, &cfg, &appended, claims);
    let progress = journal::peek_progress(&path, &cfg, &[], ShardSpec::WHOLE, 0).unwrap();
    assert_eq!((progress.done.len(), progress.claimed.len()), (THREADS * APPENDS, claims));
    drop(wal);
    journal::remove(&path);
}

#[test]
fn journal_dropped_without_sync_replays_every_frame() {
    let _serial = serial();
    let cfg = EvalConfig::smoke();
    let path = tmp_path("drop-unsynced");
    let wal = Journal::create_sourced(&path, &cfg, &[], ShardSpec::WHOLE, 0).unwrap();
    let mut appended = HashMap::new();
    for i in 0..APPENDS {
        wal.append(cell(&cfg, 0, i), &model(0, i), &record(0, i)).unwrap();
        appended.insert(cell(&cfg, 0, i), (model(0, i), record(0, i)));
    }
    drop(wal);
    assert_replays(&path, &cfg, &appended, 0);
    journal::remove(&path);
}

/// Live syncer threads in this process, found by their thread name.
fn syncer_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "pcg-journal-syn")
        .count()
}

/// Wait until `syncer_threads()` reads `want`. A new thread names itself
/// after `spawn` returns, and a joined one can stay listed for a moment
/// after `join` returns, so poll briefly instead of reading once.
fn settle_syncers(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = syncer_threads();
        if n == want || Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn dropping_journals_leaks_no_syncer_thread() {
    let _serial = serial();
    let cfg = EvalConfig::smoke();
    let path = tmp_path("leak");
    // Counted by name: the test harness starts and ends its own
    // threads while this test runs, so the raw task count is not steady.
    let before = settle_syncers(0);

    let wal = Journal::create_sourced(&path, &cfg, &[], ShardSpec::WHOLE, 0).unwrap();
    assert_eq!(syncer_threads(), before, "a journal with no write starts no syncer");
    wal.append(cell(&cfg, 0, 0), &model(0, 0), &record(0, 0)).unwrap();
    assert_eq!(settle_syncers(before + 1), before + 1, "the first write starts one syncer");
    drop(wal);

    for i in 0..200 {
        let wal = if i % 2 == 0 {
            Journal::create_sourced(&path, &cfg, &[], ShardSpec::WHOLE, 0).unwrap()
        } else {
            Journal::open_append(&path).unwrap()
        };
        wal.append(cell(&cfg, 0, i), &model(0, i), &record(0, i)).unwrap();
    }
    assert_eq!(settle_syncers(before), before, "a dropped journal left its syncer running");
    journal::remove(&path);
}
