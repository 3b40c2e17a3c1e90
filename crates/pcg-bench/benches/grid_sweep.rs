//! Scheduler A/B: the same evaluation grid at `--jobs 1` vs `--jobs 8`.
//!
//! Two workloads, because the speedup story has two parts:
//!
//! * **compute** — a smoke-scale evaluation grid (1 model × 12 tasks).
//!   Parallel gains here require physical cores; on a single-core host
//!   the two sides tie (the scheduler adds no overhead worth seeing).
//! * **timeout overlap** — a grid of hanging candidates, each abandoned
//!   at the time limit. This is the latency component of the paper's
//!   harness: a 3-minute kill serializes badly, and overlapping the
//!   waits is a pure scheduler win that needs *no* extra cores (the
//!   blocked watchers sleep, they don't compute). Eight 150 ms hangs
//!   cost ~1.2 s serially and ~150 ms at 8 workers.
//!
//! Besides the criterion groups, the bench prints an explicit measured
//! `speedup at 8 workers` line for the timeout grid and asserts the
//! ≥4× acceptance bar from the scheduler work.

use criterion::{criterion_group, criterion_main, Criterion};
use pcg_core::{warm, PcgError, TaskId};
use pcg_harness::{eval, scheduler, EvalConfig, EvalStats, SharedRunner};
use pcg_models::SyntheticModel;
use pcg_problems::{input_cache, lease};
use std::hint::black_box;
use std::time::{Duration, Instant};

const HANG_CELLS: usize = 8;
const HANG_TIMEOUT: Duration = Duration::from_millis(150);

fn hang_cfg() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.timeout = HANG_TIMEOUT;
    cfg
}

/// Wall-clock for a grid of `HANG_CELLS` hanging candidates at `jobs`
/// workers. Every cell is abandoned at the time limit; the question is
/// whether the waits overlap.
fn hang_grid_seconds(jobs: usize) -> f64 {
    let runner = SharedRunner::new(hang_cfg());
    let t0 = Instant::now();
    let cells = scheduler::run_grid(vec![(); HANG_CELLS], jobs, |_, _| {
        runner.run_isolated(|| {
            // Far past the limit; the watcher abandons us at 150 ms.
            std::thread::sleep(Duration::from_secs(600));
            Ok::<_, PcgError>(())
        })
    });
    let wall = t0.elapsed().as_secs_f64();
    for c in &cells {
        let out = c.value.as_ref().expect("cell must not panic");
        assert_eq!(out.error, Some("timeout"));
    }
    wall
}

fn bench_timeout_overlap(c: &mut Criterion) {
    let mut g = c.benchmark_group("grid_sweep_timeouts");
    g.sample_size(2);
    for jobs in [1usize, 8] {
        g.bench_function(format!("jobs{jobs}"), |b| {
            b.iter(|| black_box(hang_grid_seconds(jobs)));
        });
    }
    g.finish();

    // The headline number, measured directly (best of 2 to shed noise).
    let serial = hang_grid_seconds(1).min(hang_grid_seconds(1));
    let parallel = hang_grid_seconds(8).min(hang_grid_seconds(8));
    let speedup = serial / parallel;
    println!(
        "grid_sweep: {HANG_CELLS} hanging candidates ({:?} limit): \
         jobs1 {serial:.3}s, jobs8 {parallel:.3}s, speedup at 8 workers: {speedup:.1}x",
        HANG_TIMEOUT,
    );
    assert!(
        speedup >= 4.0,
        "timeout-abandonment grid must overlap: expected >=4x at 8 workers, got {speedup:.2}x"
    );
}

fn bench_compute_grid(c: &mut Criterion) {
    let cfg = EvalConfig::smoke();
    let model = vec![SyntheticModel::by_name("CodeLlama-13B").expect("zoo model")];
    let tasks = eval::smoke_tasks();
    let tasks = &tasks[..12];

    let mut g = c.benchmark_group("grid_sweep_compute");
    g.sample_size(5);
    for jobs in [1usize, 8] {
        g.bench_function(format!("jobs{jobs}"), |b| {
            b.iter(|| {
                let runner = SharedRunner::new(cfg.clone());
                black_box(eval::evaluate_with(&cfg, &model, Some(tasks), jobs, &runner).0)
            });
        });
    }
    g.finish();
}

/// One full smoke-grid evaluation on a fresh runner; returns wall
/// seconds plus the run's stats.
fn eval_grid_once(cfg: &EvalConfig, tasks: &[TaskId], jobs: usize) -> (f64, EvalStats) {
    let model = vec![SyntheticModel::by_name("CodeLlama-13B").expect("zoo model")];
    let runner = SharedRunner::new(cfg.clone());
    let t0 = Instant::now();
    let (_, stats) = eval::evaluate_with(cfg, &model, Some(tasks), jobs, &runner);
    (t0.elapsed().as_secs_f64(), stats)
}

/// Cold-vs-warm A/B over the same smoke grid: the warm-path acceptance
/// measurement. Cold rebuilds every substrate and input per execution;
/// warm leases substrates, memoizes inputs, and reuses supervisor
/// workers. Writes `target/pcgbench/BENCH_warmpath.json` and asserts
/// the >=2x bar from the warm-path work.
fn bench_warm_vs_cold(_c: &mut Criterion) {
    // Thread-pool-backed columns (OpenMP / Kokkos / hybrid) at minimum
    // workload size: per-execution compute is pushed toward zero so the
    // measurement isolates the fixed costs the warm path amortizes
    // (thread spawns, input generation, supervisor spawn) — the regime
    // the full evaluation's hot loop lives in. The MPI-at-512 column is
    // excluded: its wall time is the collective *simulation* itself
    // (O(ranks log ranks) real message handoffs per run), which no
    // amount of substrate reuse can touch, so on a small host it only
    // dilutes the signal being measured.
    let mut cfg = EvalConfig::smoke();
    cfg.size_divisor = usize::MAX;
    use pcg_core::ExecutionModel;
    let tasks: Vec<TaskId> = eval::smoke_tasks()
        .into_iter()
        .filter(|t| {
            matches!(
                t.model,
                ExecutionModel::OpenMp | ExecutionModel::Kokkos | ExecutionModel::MpiOpenMp
            )
        })
        .collect();
    let tasks = &tasks[..];

    // Cold side: warm path disabled end to end (best of 2).
    warm::set_enabled(false);
    let cold = eval_grid_once(&cfg, tasks, 1).0.min(eval_grid_once(&cfg, tasks, 1).0);

    // Warm side: start from empty caches, prime once (paying every
    // lease miss), then measure steady state (best of 2).
    warm::set_enabled(true);
    lease::flush();
    input_cache::flush();
    let (_prime_s, prime_stats) = eval_grid_once(&cfg, tasks, 1);
    let (warm_a, warm_stats) = eval_grid_once(&cfg, tasks, 1);
    let (warm_b, _) = eval_grid_once(&cfg, tasks, 1);
    let warm_s = warm_a.min(warm_b);

    let speedup = cold / warm_s;
    let json = format!(
        concat!(
            "{{\"workload\":\"smoke grid, threaded columns (36 tasks), jobs 1\",",
            "\"cold_s\":{:.6},\"warm_s\":{:.6},\"speedup\":{:.3},",
            "\"prime_lease_misses\":{},\"steady_lease_hits\":{},",
            "\"steady_lease_misses\":{},\"input_cache_hits\":{}}}"
        ),
        cold,
        warm_s,
        speedup,
        prime_stats.lease_misses,
        warm_stats.lease_hits,
        warm_stats.lease_misses,
        warm_stats.input_cache_hits,
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/pcgbench");
    std::fs::create_dir_all(&dir).expect("create target/pcgbench");
    std::fs::write(dir.join("BENCH_warmpath.json"), &json).expect("write BENCH_warmpath.json");
    println!(
        "grid_sweep: warm path: cold {cold:.3}s, warm {warm_s:.3}s, speedup {speedup:.1}x \
         ({} lease hits / {} misses steady-state)",
        warm_stats.lease_hits, warm_stats.lease_misses,
    );
    assert!(
        speedup >= 2.0,
        "warm path must be >=2x over cold on the smoke grid, got {speedup:.2}x ({json})"
    );
}

/// Wall seconds for one MPI world of `ranks` under the current
/// execution mode: block dot product + allreduce + ring shift, the
/// paper's bread-and-butter communication shape, on the cluster model.
fn mpi_world_seconds(ranks: usize) -> f64 {
    use pcg_mpisim::{CostModel, ReduceOp, World};
    let t0 = Instant::now();
    let out = World::new(ranks)
        .with_cost_model(CostModel::cluster())
        .run(move |comm| {
            let rank = comm.rank();
            let local: Vec<f64> = (0..64).map(|i| (rank * 64 + i) as f64).collect();
            let dot: f64 = local.iter().map(|x| x * x).sum();
            let total = comm.allreduce_one(dot, ReduceOp::Sum);
            let right = (rank + 1) % comm.size();
            let left = (rank + comm.size() - 1) % comm.size();
            let shifted = comm.sendrecv(right, 1, &local, left, 1);
            total + shifted[0]
        })
        .unwrap();
    black_box(out.per_rank);
    t0.elapsed().as_secs_f64()
}

/// Oversubscription A/B: thread-per-rank vs the rank multiplexer at
/// paper-scale world sizes. Thread-per-rank pays one OS thread spawn
/// (2 MiB stack mmap) per rank per run; the multiplexer runs the same
/// world on one fiber worker per core. Records are byte-identical either
/// way (see `tests/mux_paths.rs`), so wall clock is the whole story.
/// Writes `target/pcgbench/BENCH_mpiscale.json` and asserts the >=3x
/// bar on the MPI-512 column from the multiplexer work.
fn bench_mpi_scale(_c: &mut Criterion) {
    use pcg_mpisim::sched::{self, ExecMode};
    let mut rows = Vec::new();
    let mut speedup_512 = 0.0f64;
    for ranks in [64usize, 128, 256, 512] {
        sched::set_exec_mode(ExecMode::ForceThreads);
        let threads_s = mpi_world_seconds(ranks).min(mpi_world_seconds(ranks));
        sched::set_exec_mode(ExecMode::ForceMux);
        let mux_s = mpi_world_seconds(ranks).min(mpi_world_seconds(ranks));
        let speedup = threads_s / mux_s;
        if ranks == 512 {
            speedup_512 = speedup;
        }
        println!(
            "grid_sweep: mpi scale {ranks} ranks: thread-per-rank {threads_s:.4}s, \
             multiplexed {mux_s:.4}s ({} workers), speedup {speedup:.1}x",
            sched::workers(),
        );
        rows.push(format!(
            "{{\"ranks\":{ranks},\"thread_per_rank_s\":{threads_s:.6},\
             \"multiplexed_s\":{mux_s:.6},\"speedup\":{speedup:.3}}}"
        ));
    }
    sched::set_exec_mode(ExecMode::Auto);

    let json = format!(
        "{{\"workload\":\"block dot + allreduce + ring shift, cluster cost model, best of 2\",\
         \"mux_workers\":{},\"columns\":[{}]}}",
        sched::workers(),
        rows.join(","),
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/pcgbench");
    std::fs::create_dir_all(&dir).expect("create target/pcgbench");
    std::fs::write(dir.join("BENCH_mpiscale.json"), &json).expect("write BENCH_mpiscale.json");
    assert!(
        speedup_512 >= 3.0,
        "rank multiplexing must be >=3x over thread-per-rank at 512 ranks, got \
         {speedup_512:.2}x ({json})"
    );
}

criterion_group!(
    grid_sweep,
    bench_timeout_overlap,
    bench_compute_grid,
    bench_warm_vs_cold,
    bench_mpi_scale
);
criterion_main!(grid_sweep);
