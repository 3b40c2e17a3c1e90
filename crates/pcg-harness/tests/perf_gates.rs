//! Performance gates: the ten A/B measurements the harness's speed
//! claims rest on, each asserted at the bound it was accepted at.
//!
//! 1. Timeout overlap: 8 hanging cells, `--jobs 8` vs `--jobs 1`, ≥4×.
//! 2. Warm path: threaded smoke columns, warm vs cold, ≥2×.
//! 3. MPI multiplexing: a 512-rank world, fibers vs thread per rank, ≥3×.
//! 4. Journal replay: v3 frames vs a JSONL baseline, ≥3×.
//! 5. Shard scaling: 3 worker processes vs 1, ≥2×.
//! 6. Scheduling balance: weighted LPT vs unweighted `id % 3`, ≥1.5×.
//! 7. Work stealing: steal vs static sharding behind a stalled victim, ≥1.5×.
//! 8. Containment: deadlock fail-fast vs timeout-only, ratio <0.5.
//! 9. Frame checksum: slicing-by-16 CRC-32 vs a bytewise table, ≥3×.
//! 10. Serial reference reuse: serial-code candidates vs as many serial
//!     solves, ratio <0.25.
//!
//! Every gate is ignored in debug builds: the bounds were set on
//! optimized code, and a debug build measures a different program. Run
//! them with `cargo test --release -p pcg-harness --test perf_gates`.
//!
//! One lock serializes the gates so no two timings overlap. Gates 2, 3
//! and 8 reach their reference side (thread per rank and no input memo,
//! or no deadlock detection) through the settings of a runner's or a
//! scope's own context, so no gate changes what another sees. Gates 5–7 measure real
//! OS processes: they re-run this test binary filtered to their own
//! test, with [`ROLE_VAR`] naming the part the child plays.

use pcg_core::plan::{CellId, PlanCell, ShardSpec, WorkPlan};
use pcg_core::task::all_tasks;
use pcg_core::usage::{Context, Settings, UsageScope};
use pcg_core::{
    CandidateKind, CostPriors, ExecutionModel, PcgError, ProblemId, ProblemType, Quality, TaskId,
};
use pcg_harness::journal::{self, config_hash, Journal, Replay, ReplayCell};
use pcg_harness::record::TaskRecord;
use pcg_harness::shard::{scan_siblings, steal_from_siblings};
use pcg_harness::{eval, scheduler, EvalConfig, EvalStats, SharedRunner};
use pcg_metrics::TaskSamples;
use pcg_models::SyntheticModel;
use pcg_mpisim::sched;
use pcg_problems::{input_cache, registry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Set in a child process to the role it plays in its gate's A/B.
const ROLE_VAR: &str = "PCG_PERF_GATE_ROLE";

static GATE: Mutex<()> = Mutex::new(());

/// Hold for the whole of a gate's measurement. The lock guards no data,
/// so a gate that panicked while holding it leaves nothing to repair.
fn serial() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The thread-per-rank, memo-free reference the warm path replaces.
const COLD: Settings = Settings { warm: false, deadlock_detection: true };

/// The best of `reps` timings, to shed scheduling noise.
fn best_of(reps: usize, mut seconds: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| seconds()).fold(f64::INFINITY, f64::min)
}

fn role() -> Option<String> {
    std::env::var(ROLE_VAR).ok()
}

/// Run this test binary once per role, concurrently, each filtered to
/// `test`; wall seconds until the slowest child exits.
fn children_seconds(test: &str, roles: &[String]) -> f64 {
    let exe = std::env::current_exe().expect("test binary path");
    let t0 = Instant::now();
    let children: Vec<_> = roles
        .iter()
        .map(|role| {
            Command::new(&exe)
                .args(["--exact", test, "--include-ignored", "--test-threads=1"])
                .env(ROLE_VAR, role)
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn a gate child")
        })
        .collect();
    let outputs: Vec<_> = children
        .into_iter()
        .map(|c| c.wait_with_output().expect("wait for a gate child"))
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    for out in outputs {
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "gate child failed:\n{stdout}");
        assert!(stdout.contains("1 passed"), "gate child ran no test:\n{stdout}");
    }
    wall
}

/// A candidate that sleeps far past the limit, so the supervisor
/// abandons it.
fn hang() -> Result<(), PcgError> {
    std::thread::sleep(Duration::from_secs(600));
    Ok(())
}

/// `base` with a 150 ms limit. A sleeping hang never unwinds
/// cooperatively, so the grace before abandonment is cut to 50 ms.
fn hang_cfg(base: EvalConfig) -> EvalConfig {
    let mut cfg = base;
    cfg.timeout = Duration::from_millis(150);
    cfg.grace = Duration::from_millis(50);
    cfg
}

/// A 4-model × 12-task slice of the quick-grid plan.
fn slice_plan() -> WorkPlan {
    let models: Vec<String> =
        pcg_models::zoo().into_iter().take(4).map(|m| m.card().name.to_string()).collect();
    let tasks: Vec<_> = all_tasks().take(12).collect();
    WorkPlan::new(config_hash(&EvalConfig::quick()), models, tasks)
}

/// Wall seconds and stats for one evaluation at `--jobs 1` on a fresh
/// runner with `settings`.
fn grid_once(
    cfg: &EvalConfig,
    settings: Settings,
    model: &[SyntheticModel],
    tasks: &[TaskId],
) -> (f64, EvalStats) {
    let runner = SharedRunner::with_settings(cfg.clone(), settings);
    let t0 = Instant::now();
    let (_, stats) = eval::evaluate_with(cfg, model, Some(tasks), 1, &runner);
    (t0.elapsed().as_secs_f64(), stats)
}

fn tmp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pcgbench-perf-gates");
    std::fs::create_dir_all(&dir).expect("create gate temp dir");
    dir.join(format!("{tag}-{}", std::process::id()))
}

// ---- 1. timeout overlap ------------------------------------------------

/// Eight hanging candidates, each abandoned at the limit: at 8 workers
/// the waits overlap, and that needs no extra cores.
#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn timeout_overlap_at_8_workers() {
    let _gate = serial();
    let grid_seconds = |jobs: usize| {
        let runner = SharedRunner::new(hang_cfg(EvalConfig::smoke()));
        let t0 = Instant::now();
        let cells = scheduler::run_grid(vec![(); 8], jobs, |_, _| runner.run_isolated(hang));
        let wall = t0.elapsed().as_secs_f64();
        for c in &cells {
            assert_eq!(c.value.as_ref().expect("cell must not panic").error, Some("timeout"));
        }
        wall
    };
    let serial_s = best_of(2, || grid_seconds(1));
    let parallel_s = best_of(2, || grid_seconds(8));
    let speedup = serial_s / parallel_s;
    println!("timeout overlap: jobs1 {serial_s:.3}s, jobs8 {parallel_s:.3}s, {speedup:.2}x");
    assert!(
        speedup >= 4.0,
        "hanging cells must overlap: expected >=4x at 8 workers, got {speedup:.2}x"
    );
}

// ---- 2. warm path ------------------------------------------------------

/// The thread-pool-backed smoke columns (OpenMP, Kokkos, hybrid) at the
/// minimum size, so the measurement isolates the fixed costs the warm
/// path amortizes: thread spawns, input generation, executor spawns.
#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn warm_path_beats_cold() {
    let _gate = serial();
    let mut cfg = EvalConfig::smoke();
    cfg.size_divisor = usize::MAX;
    let tasks: Vec<TaskId> = eval::smoke_tasks()
        .into_iter()
        .filter(|t| {
            matches!(
                t.model,
                ExecutionModel::OpenMp | ExecutionModel::Kokkos | ExecutionModel::MpiOpenMp
            )
        })
        .collect();
    let model = [SyntheticModel::by_name("CodeLlama-13B").expect("zoo model")];
    let once = |settings| grid_once(&cfg, settings, &model, &tasks);
    let warm = Settings::default();

    let cold = best_of(2, || once(COLD).0);
    // Start from an empty input cache and prime it once; then measure
    // the steady state.
    input_cache::flush();
    once(warm);
    let (warm_a, stats) = once(warm);
    let warm_s = warm_a.min(once(warm).0);
    let speedup = cold / warm_s;
    println!(
        "warm path: cold {cold:.3}s, warm {warm_s:.3}s, {speedup:.2}x \
         ({} input-cache hits, {} ranks as fibers steady-state)",
        stats.input_cache_hits, stats.ranks_multiplexed,
    );
    assert!(speedup >= 2.0, "warm path must be >=2x over cold, got {speedup:.2}x");
}

// ---- 3. MPI multiplexing -----------------------------------------------

/// One 512-rank world (block dot, allreduce, ring shift on the cluster
/// model): thread per rank (the cold path) pays a thread spawn per rank
/// per run, the multiplexer (the warm path) runs the world as fibers on
/// the calling thread.
#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn mpi_multiplexing_at_512_ranks() {
    use pcg_mpisim::{CostModel, ReduceOp, World};
    let _gate = serial();
    assert!(sched::supported(), "the gate measures the fiber scheduler");
    let world_seconds = |settings| {
        let _context = UsageScope::begin_in(Context::new(settings));
        let t0 = Instant::now();
        World::new(512)
            .with_cost_model(CostModel::cluster())
            .run(move |comm| {
                let rank = comm.rank();
                let local: Vec<f64> = (0..64).map(|i| (rank * 64 + i) as f64).collect();
                let total =
                    comm.allreduce_one(local.iter().map(|x| x * x).sum::<f64>(), ReduceOp::Sum);
                let right = (rank + 1) % comm.size();
                let left = (rank + comm.size() - 1) % comm.size();
                total + comm.sendrecv(right, 1, &local, left, 1)[0]
            })
            .expect("512-rank world");
        t0.elapsed().as_secs_f64()
    };
    let threads_s = best_of(2, || world_seconds(COLD));
    let mux_s = best_of(2, || world_seconds(Settings::default()));
    let speedup = threads_s / mux_s;
    println!(
        "mpi 512 ranks: thread per rank {threads_s:.4}s, multiplexed {mux_s:.4}s, {speedup:.2}x"
    );
    assert!(speedup >= 3.0, "multiplexing must be >=3x over thread per rank, got {speedup:.2}x");
}

// ---- 4. journal replay -------------------------------------------------

/// One line of the JSONL baseline: what a JSON journal costs to replay.
#[derive(Serialize, Deserialize)]
struct JsonlEntry {
    cell: u64,
    model: String,
    record: TaskRecord,
}

/// A paper-shaped record for grid row `i`: 20 low samples, a
/// 200-sample high set on even rows, a 3-point sweep on every third.
fn synth_record(task: TaskId, i: usize) -> TaskRecord {
    let flag = |k: usize| !(i * 31 + k * 7).is_multiple_of(3);
    let ratio = |k: usize| ((i * 13 + k * 5) % 97) as f64 * 0.371 + 0.25;
    let samples = |n: usize| TaskSamples {
        built: (0..n).map(flag).collect(),
        correct: (0..n).map(|k| flag(k) && flag(k + 1)).collect(),
        ratio: (0..n).map(ratio).collect(),
    };
    let sweep = |div: f64| (0..20).map(|k| ratio(k) / div).collect();
    TaskRecord {
        task,
        low: samples(20),
        high: i.is_multiple_of(2).then(|| samples(200)),
        sweep: if i.is_multiple_of(3) {
            BTreeMap::from([(2u32, sweep(1.0)), (4, sweep(2.0)), (8, sweep(4.0))])
        } else {
            BTreeMap::new()
        },
    }
}

/// Replay the JSONL baseline: one parse per line, then the same cell-id
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

/// The same 420 cells (7 models × 60 tasks) written as JSONL and as v3
/// frames, each replayed in full.
#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn journal_replay_beats_jsonl() {
    let _gate = serial();
    let cfg = EvalConfig::quick();
    let chash = config_hash(&cfg);
    let mut replay = Replay::new();
    let mut jsonl = String::new();
    for model in pcg_models::zoo().iter().map(|m| m.card().name.to_string()) {
        for task in all_tasks().take(60) {
            let id = CellId::new(chash, &model, task);
            let record = synth_record(task, replay.len());
            let entry = JsonlEntry { cell: id.0, model: model.clone(), record };
            jsonl.push_str(&serde_json::to_string(&entry).expect("serialize entry"));
            jsonl.push('\n');
            replay.insert(id, ReplayCell { model: entry.model, record: entry.record });
        }
    }
    let (jsonl_path, v3_path) = (tmp_path("replay.jsonl"), tmp_path("replay.journal"));
    std::fs::write(&jsonl_path, jsonl).expect("write JSONL baseline");
    journal::compact(&v3_path, &cfg, ShardSpec::WHOLE, &replay).expect("write v3 journal");
    let replay_seconds = |load: &dyn Fn() -> Replay| {
        best_of(3, || {
            let t0 = Instant::now();
            let got = load();
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(got.len(), replay.len(), "replay must recover every cell");
            dt
        })
    };
    let jsonl_s = replay_seconds(&|| load_jsonl(&jsonl_path, chash));
    let v3_s = replay_seconds(&|| {
        let loaded = journal::load_counting_sourced(&v3_path, &cfg, &[], ShardSpec::WHOLE, 0);
        assert!(loaded.rejects.is_empty(), "a clean journal must replay without rejects");
        loaded.replay
    });
    let _ = std::fs::remove_file(&jsonl_path);
    let _ = std::fs::remove_file(&v3_path);
    let speedup = jsonl_s / v3_s;
    println!(
        "journal replay: {} cells: JSONL {jsonl_s:.4}s, v3 {v3_s:.4}s, {speedup:.2}x",
        replay.len()
    );
    assert!(speedup >= 3.0, "v3 replay must beat JSONL by >=3x, got {speedup:.2}x");
}

// ---- 5. shard scaling --------------------------------------------------

/// The first 24 cells of the quick-grid plan, each a hanging candidate:
/// one process eats the abandonment waits back to back, three shard
/// worker processes each eat only their own shard's.
#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn shard_scaling_at_3_workers() {
    const CELLS: usize = 24;
    let cfg = hang_cfg(EvalConfig::quick());
    let models: Vec<String> =
        pcg_models::zoo().into_iter().map(|m| m.card().name.to_string()).collect();
    let plan = WorkPlan::new(config_hash(&cfg), models, all_tasks().collect());
    let owned = |spec: ShardSpec| plan.cells().take(CELLS).filter(|c| spec.contains(c.id)).count();
    if let Some(role) = role() {
        let runner = SharedRunner::new(cfg);
        for _ in 0..owned(ShardSpec::parse(&role).expect("valid role spec")) {
            assert_eq!(runner.run_isolated(hang).error, Some("timeout"));
        }
        return;
    }

    let _gate = serial();
    let split: Vec<usize> = (0..3).map(|k| owned(ShardSpec::new(k, 3))).collect();
    assert_eq!(split.iter().sum::<usize>(), CELLS);
    assert!(split.iter().all(|&n| n > 0), "degenerate shard split: {split:?}");
    let test = "shard_scaling_at_3_workers";
    let single = best_of(2, || children_seconds(test, &[ShardSpec::WHOLE.to_string()]));
    let three: Vec<String> = (0..3).map(|k| ShardSpec::new(k, 3).to_string()).collect();
    let sharded = best_of(2, || children_seconds(test, &three));
    let speedup = single / sharded;
    println!(
        "shard scaling: 1 process {single:.3}s, 3 workers {sharded:.3}s {split:?}, {speedup:.2}x"
    );
    assert!(speedup >= 2.0, "shard workers must overlap waits: expected >=2x, got {speedup:.2}x");
}

// ---- 6. scheduling balance ---------------------------------------------

const HEAVY_MS: u64 = 120;
const LIGHT_MS: u64 = 6;

/// The residue class that carries the heavy cells: the largest
/// unweighted shard, so `id % 3` hands every heavy cell to one worker.
fn heavy_residue(plan: &WorkPlan) -> u64 {
    (0..3u32).max_by_key(|&k| plan.shard(ShardSpec::new(k, 3)).len()).expect("three shards") as u64
}

fn skewed_cost_ms(id: CellId, heavy: u64) -> u64 {
    if id.0 % 3 == heavy {
        HEAVY_MS
    } else {
        LIGHT_MS
    }
}

/// Three shard worker processes of 2 threads each sleep their cells'
/// costs; the merge gate is the slowest worker. The priors table every
/// worker derives knows the skew, so weighted LPT partitioning spreads
/// the heavy cells that `id % 3` piles on one worker.
#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn weighted_sharding_balances_the_merge_gate() {
    let plan = slice_plan();
    let heavy = heavy_residue(&plan);
    let priors = CostPriors::from_entries(
        "sched-balance-gate",
        plan.cells().map(|c| {
            let cost = skewed_cost_ms(c.id, heavy) as f64 / 1000.0;
            (plan.models()[c.model].clone(), c.task.index() as u32, cost)
        }),
    );
    let shard = |spec: ShardSpec, weighted: bool| {
        if weighted {
            plan.shard_with(spec, Some(&priors))
        } else {
            plan.shard(spec)
        }
    };
    if let Some(role) = role() {
        let (spec, mode) = role.split_once(':').expect("role is k/N:mode");
        let weighted = mode == "weighted";
        let owned = shard(ShardSpec::parse(spec).expect("valid role spec"), weighted);
        let order = weighted.then(|| {
            let w: Vec<f64> =
                owned.iter().map(|c| priors.cost(&plan.models()[c.model], c.task)).collect();
            let mut idx: Vec<usize> = (0..owned.len()).collect();
            idx.sort_by(|&a, &b| w[b].total_cmp(&w[a]).then(owned[a].id.cmp(&owned[b].id)));
            idx
        });
        let costs: Vec<u64> = owned.iter().map(|c| skewed_cost_ms(c.id, heavy)).collect();
        let sleep = |_, &ms: &u64| std::thread::sleep(Duration::from_millis(ms));
        scheduler::run_grid_prioritized(costs, 2, order, sleep, |_, _| {});
        return;
    }

    let _gate = serial();
    for weighted in [false, true] {
        let mut seen = HashSet::new();
        for k in 0..3 {
            for c in shard(ShardSpec::new(k, 3), weighted) {
                assert!(seen.insert(c.id), "cell owned twice (weighted={weighted})");
            }
        }
        assert_eq!(seen.len(), plan.len(), "cells lost (weighted={weighted})");
    }
    let n_heavy = plan.cells().filter(|c| c.id.0 % 3 == heavy).count();
    assert!(n_heavy >= 8, "degenerate skew: only {n_heavy} heavy cells");
    let gate = |mode: &str| {
        let roles: Vec<String> = (0..3).map(|k| format!("{k}/3:{mode}")).collect();
        best_of(2, || children_seconds("weighted_sharding_balances_the_merge_gate", &roles))
    };
    let unweighted = gate("unweighted");
    let weighted = gate("weighted");
    let improvement = unweighted / weighted;
    println!("scheduling balance: unweighted {unweighted:.3}s, weighted {weighted:.3}s, {improvement:.2}x");
    assert!(
        improvement >= 1.5,
        "weighted LPT must lower the merge gate: expected >=1.5x, got {improvement:.2}x"
    );
}

// ---- 7. work stealing --------------------------------------------------

/// Worker 0 owns every 200 ms cell and stalls before touching any.
const VICTIM_MS: u64 = 200;
const OTHER_MS: u64 = 100;
const STALL_MS: u64 = 3200;

fn steal_cost_ms(id: CellId) -> u64 {
    if id.0.is_multiple_of(3) {
        VICTIM_MS
    } else {
        OTHER_MS
    }
}

/// A steal-gate shard worker: create its journal, stall if victim,
/// drain its partition; with `steal`, skip what siblings already took
/// and then claim from their partitions through the journal protocol.
fn steal_role(cache: &Path, spec: ShardSpec, steal: bool) {
    let cfg = EvalConfig::quick();
    let plan = slice_plan();
    let wal =
        Journal::create_sourced(&journal::shard_journal_path(cache, spec), &cfg, &[], spec, 0)
            .expect("create shard journal");
    // Evaluate-then-append, as a production worker does; the journal's
    // load-time self-check needs each record's real task and model.
    let run_cells = |cells: &[PlanCell]| {
        for c in cells {
            std::thread::sleep(Duration::from_millis(steal_cost_ms(c.id)));
            let low = TaskSamples { built: vec![true], correct: vec![true], ratio: vec![1.0] };
            let record = TaskRecord { task: c.task, low, high: None, sweep: Default::default() };
            wal.append(c.id, &plan.models()[c.model], &record).expect("journal append");
        }
    };
    if spec.index == 0 {
        // The header is on disk, so siblings can gate their peeks.
        std::thread::sleep(Duration::from_millis(STALL_MS));
    }
    let mut owned = plan.shard(spec);
    if steal {
        let sib = scan_siblings(cache, &cfg, &[], spec, 0);
        owned.retain(|c| !sib.done.contains(&c.id.0) && !sib.claimed.contains(&c.id.0));
    }
    run_cells(&owned);
    if steal {
        let done: HashSet<u64> = owned.iter().map(|c| c.id.0).collect();
        steal_from_siblings(cache, &cfg, &[], &plan, spec, None, 0, &wal, 4, done, |batch| {
            run_cells(&batch)
        });
    }
}

/// Three shard worker processes over real journals in one directory,
/// the victim stalled 3.2 s: statically it carries its whole partition
/// alone; with stealing its siblings drain it while it sleeps.
#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn stealing_beats_a_stalled_victim() {
    if let Some(role) = role() {
        let mut parts = role.splitn(3, ':');
        let spec = ShardSpec::parse(parts.next().expect("spec")).expect("valid role spec");
        let steal = parts.next() == Some("steal");
        return steal_role(Path::new(parts.next().expect("cache path")), spec, steal);
    }

    let _gate = serial();
    let cfg = EvalConfig::quick();
    let plan = slice_plan();
    let victim_cells = plan.shard(ShardSpec::new(0, 3)).len();
    assert!(victim_cells >= 8, "degenerate plan: only {victim_cells} victim cells");
    let cache = tmp_path("steal.rec");
    let journals: Vec<PathBuf> =
        (0..3).map(|k| journal::shard_journal_path(&cache, ShardSpec::new(k, 3))).collect();
    let gate = |mode: &str| {
        best_of(2, || {
            journals.iter().for_each(|p| journal::remove(p));
            let roles: Vec<String> =
                (0..3).map(|k| format!("{k}/3:{mode}:{}", cache.display())).collect();
            let wall = children_seconds("stealing_beats_a_stalled_victim", &roles);
            // Stealing relocates cells; it never loses one.
            let mut union = HashSet::new();
            for (k, path) in journals.iter().enumerate() {
                let spec = ShardSpec::new(k as u32, 3);
                let loaded = journal::load_counting_sourced(path, &cfg, &[], spec, 0);
                assert!(loaded.rejects.is_empty(), "shard {spec}: corrupt frames in a clean run");
                union.extend(loaded.replay.keys().map(|id| id.0));
            }
            assert_eq!(union.len(), plan.len(), "mode {mode}: journals must cover the whole grid");
            wall
        })
    };
    let static_gate = gate("static");
    let steal_gate = gate("steal");
    journals.iter().for_each(|p| journal::remove(p));
    let improvement = static_gate / steal_gate;
    println!("work stealing: static {static_gate:.3}s, steal {steal_gate:.3}s, {improvement:.2}x");
    assert!(
        improvement >= 1.5,
        "stealing must lower the straggler gate: expected >=1.5x, got {improvement:.2}x"
    );
}

// ---- 8. containment ----------------------------------------------------

/// A model whose every sample deadlocks, over one MPI task per problem
/// type, at a 250 ms limit: with the wait-for-graph detector off each
/// world burns the limit, with it on each fails fast on quiescence.
#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn deadlock_fail_fast_beats_timeouts() {
    let _gate = serial();
    let mut cfg = EvalConfig::smoke();
    cfg.timeout = Duration::from_millis(250);
    cfg.skip_high_temp = true;
    let base = SyntheticModel::by_name("CodeLlama-7B").expect("zoo model");
    let mut calib = base.calibration().clone();
    calib.exec_rate = [0.0; 7];
    calib.failure_mix = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0];
    let model = [SyntheticModel::custom(base.card().clone(), calib, true)];
    let tasks: Vec<TaskId> = all_tasks()
        .filter(|t| t.model == ExecutionModel::Mpi && t.problem.variant == 0)
        .take(6)
        .collect();
    let grid = |detect: bool| -> (f64, EvalStats) {
        let settings = Settings { deadlock_detection: detect, ..Settings::default() };
        let (a, stats) = grid_once(&cfg, settings, &model, &tasks);
        (a.min(grid_once(&cfg, settings, &model, &tasks).0), stats)
    };
    let (failfast, fast) = grid(true);
    let (baseline, slow) = grid(false);
    assert!(
        fast.deadlocks_detected > 0,
        "the fast side must fail fast through the detector: {fast:?}"
    );
    assert_eq!(fast.timeouts, 0, "a detected deadlock must never burn the timeout: {fast:?}");
    assert!(slow.timeouts > 0, "undetected deadlocks must surface as timeouts: {slow:?}");
    let ratio = failfast / baseline;
    println!(
        "containment: timeout-only {baseline:.3}s, fail-fast {failfast:.3}s, ratio {ratio:.4}"
    );
    assert!(ratio < 0.5, "fail-fast must beat timeout-only by >=2x, got ratio {ratio:.3}");
}

// ---- 9. frame checksum -------------------------------------------------

/// CRC-32 (IEEE) a byte at a time from one 256-entry table: the classic
/// kernel, and the one every frame check ran on before slicing-by-16.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (0..8).fold(i as u32, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 });
    }
    !bytes.iter().fold(0xFFFF_FFFFu32, |c, &b| table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8))
}

/// Checksum 4 MiB, about one whole-grid records cache, with the frame
/// codec's CRC and with the bytewise reference.
#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn frame_crc_beats_bytewise() {
    let _gate = serial();
    let data: Vec<u8> = (0..4u32 << 20).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8).collect();
    let want = crc32_bytewise(&data);
    assert_eq!(pcg_core::frame::crc32(&data), want, "both kernels must compute the same CRC");
    let seconds = |crc: fn(&[u8]) -> u32| {
        let t0 = Instant::now();
        let got = crc(std::hint::black_box(&data));
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(std::hint::black_box(got), want);
        dt
    };
    // Best of 3 each, the two kernels alternating, so a burst of host
    // noise lands on both sides rather than on all three runs of one.
    let (mut bytewise_s, mut sliced_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        bytewise_s = bytewise_s.min(seconds(crc32_bytewise));
        sliced_s = sliced_s.min(seconds(pcg_core::frame::crc32));
    }
    let speedup = bytewise_s / sliced_s;
    println!(
        "frame crc: {} MiB, bytewise {bytewise_s:.4}s, slicing-by-16 {sliced_s:.4}s, {speedup:.2}x",
        data.len() >> 20
    );
    assert!(speedup >= 3.0, "slicing-by-16 must beat bytewise CRC-32 by >=3x, got {speedup:.2}x");
}

// ---- 10. serial reference reuse ------------------------------------------

/// The median of `xs`.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Every serial-code candidate of one OpenMP and one MPI task of a
/// compute-bound problem (`gemmPlain` at full size): `Correct(Inefficient)`
/// at each sweep `n` and `SequentialFallback`. A fresh runner solves the
/// serial reference once and charges its `T*` to each of them, so it
/// must take under a quarter of the time the same number of
/// `Problem::run_baseline` solves take.
#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn serial_code_candidates_reuse_the_reference() {
    let _gate = serial();
    let cfg = EvalConfig { size_divisor: 1, ..EvalConfig::smoke() };
    let problem = ProblemId::new(ProblemType::DenseLinearAlgebra, 2);
    let requests: Vec<(TaskId, CandidateKind, u32)> = [ExecutionModel::OpenMp, ExecutionModel::Mpi]
        .into_iter()
        .flat_map(|model| {
            let task = problem.task(model);
            let inefficient = CandidateKind::Correct(Quality::Inefficient);
            let sweep = model.resource_sweep().into_iter().map(move |n| (task, inefficient, n));
            sweep.chain([(task, CandidateKind::SequentialFallback, 1)])
        })
        .collect();
    let reuse_seconds = || {
        let runner = SharedRunner::new(cfg.clone());
        let t0 = Instant::now();
        for &(task, kind, n) in &requests {
            let out = runner.outcome(task, kind, n);
            let fallback = kind == CandidateKind::SequentialFallback;
            assert_eq!(out.error, fallback.then_some("sequential"), "{} at n={n}", kind.tag());
        }
        t0.elapsed().as_secs_f64()
    };
    let p = registry::problem(problem);
    let size = cfg.size_for(p.default_size());
    let solve_seconds = || {
        let t0 = Instant::now();
        for _ in &requests {
            std::hint::black_box(p.run_baseline(cfg.seed, size));
        }
        t0.elapsed().as_secs_f64()
    };
    // Median of 5 each, the two sides alternating.
    let (mut reuse, mut solves) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        reuse.push(reuse_seconds());
        solves.push(solve_seconds());
    }
    let (reuse_s, solves_s) = (median(reuse), median(solves));
    let ratio = reuse_s / solves_s;
    println!(
        "serial reuse: {} serial-code candidates {reuse_s:.4}s, as many solves {solves_s:.4}s, \
         ratio {ratio:.3}",
        requests.len()
    );
    assert!(ratio < 0.25, "serial-code candidates must reuse T*, got ratio {ratio:.3}");
}
