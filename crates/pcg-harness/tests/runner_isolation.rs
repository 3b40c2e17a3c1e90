//! Runner isolation: each `SharedRunner` owns its evaluation context, so
//! two runners in one process count only their own work and fault
//! their own flaky candidates, exactly as if each ran alone. The paper
//! scores every sample on its own; a runner that saw another's counts or
//! spent faults would not.

use pcg_core::{ExecutionModel, TaskId};
use pcg_harness::eval::{evaluate_with, smoke_tasks};
use pcg_harness::record::projection;
use pcg_harness::{EvalConfig, EvalStats, SharedRunner};
use pcg_models::SyntheticModel;
use pcg_problems::input_cache;
use std::sync::Barrier;

/// A smoke grid at `seed` with deadlock injection, so the detector's
/// count moves too. Each seed's inputs have memo keys of their own.
fn config(seed: u64) -> EvalConfig {
    EvalConfig { seed, skip_high_temp: true, deadlock_rate: 1.0, ..EvalConfig::smoke() }
}

/// The first problem on every execution model plus the first hybrid
/// and MPI problems, so fibers, zero-copy hops and the memo all move.
fn tasks() -> Vec<TaskId> {
    let mut tasks: Vec<TaskId> = smoke_tasks().into_iter().take(7).collect();
    tasks.extend(
        smoke_tasks()
            .into_iter()
            .filter(|t| matches!(t.model, ExecutionModel::Mpi | ExecutionModel::MpiOpenMp))
            .skip(1)
            .take(2),
    );
    tasks
}

/// The counters a runner could take from a runner beside it.
fn counts(s: &EvalStats) -> [(&'static str, u64); 6] {
    [
        ("executions", s.executions),
        ("cache_hits", s.cache_hits),
        ("input_cache_hits", s.input_cache_hits),
        ("ranks_multiplexed", s.ranks_multiplexed),
        ("bytes_zero_copied", s.bytes_zero_copied),
        ("deadlocks_detected", s.deadlocks_detected),
    ]
}

/// One `--jobs 1` evaluation on a fresh runner: a single worker looks
/// each input up in a fixed order, so its memo hits are exact.
fn grid(seed: u64) -> EvalStats {
    let cfg = config(seed);
    let models = [SyntheticModel::by_name("CodeLlama-13B").expect("zoo model")];
    let runner = SharedRunner::new(cfg.clone());
    evaluate_with(&cfg, &models, Some(&tasks()), 1, &runner).1
}

#[test]
fn concurrent_runners_count_only_their_own_work() {
    let seeds = [0x1501_a7e1, 0x1501_a7e2];
    let alone: Vec<EvalStats> = seeds
        .iter()
        .map(|&seed| {
            input_cache::flush();
            grid(seed)
        })
        .collect();
    for stats in &alone {
        for (name, n) in counts(stats) {
            assert!(n > 0, "the grid must move {name}: {stats:?}");
        }
    }

    input_cache::flush();
    let start = Barrier::new(seeds.len());
    let together: Vec<EvalStats> = std::thread::scope(|s| {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    grid(seed)
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().expect("grid thread")).collect()
    });
    for (seed, (both, one)) in seeds.iter().zip(together.iter().zip(&alone)) {
        assert_eq!(
            counts(both),
            counts(one),
            "seed {seed:#x}: a runner beside another must count what it counts alone"
        );
    }
}

#[test]
fn flaky_candidates_fault_in_every_runner() {
    // All failure mass on the flaky slot, and no retry: each flaky
    // execution records the fault its context fires once.
    let base = SyntheticModel::by_name("CodeLlama-7B").expect("zoo model");
    let mut calib = base.calibration().clone();
    calib.exec_rate = [0.0; 7];
    calib.failure_mix = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0];
    let models = [SyntheticModel::custom(base.card().clone(), calib, true)];
    let cfg = EvalConfig {
        seed: 0xf1a4,
        retry_flaky: false,
        skip_high_temp: true,
        ..EvalConfig::smoke()
    };
    let tasks: Vec<TaskId> = smoke_tasks().into_iter().take(7).collect();
    let evaluate = || {
        let runner = SharedRunner::new(cfg.clone());
        let (rec, stats) = evaluate_with(&cfg, &models, Some(&tasks), 1, &runner);
        (projection(&rec), stats.panics)
    };
    let (first, first_panics) = evaluate();
    let (second, second_panics) = evaluate();
    assert!(first_panics > 0, "flaky candidates must fault in the first runner");
    assert_eq!(second_panics, first_panics, "the second runner must fault as often");
    assert_eq!(second, first, "the second runner must record the first runner's verdicts");
}
