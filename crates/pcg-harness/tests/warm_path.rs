//! Warm-path hard constraints.
//!
//! The warm execution engine (MPI and hybrid ranks as fibers on the
//! calling thread, zero-copy message transport, input memoization,
//! executor reuse) is a pure performance layer: evaluation records
//! must be **byte-identical** to the reference path's, which runs one
//! OS thread per rank, at any worker count. A runner reaches the
//! reference through its context's settings, so each test below owns
//! its runners and runs beside the others. Ratios and stage timings are
//! measured quantities, so the comparison uses the single determinism
//! projection `pcg_harness::record::projection` — task identity,
//! per-sample build/correct flags, and sweep keys.

use pcg_core::usage::Settings;
use pcg_core::{ExecutionModel, PcgError, TaskId};
use pcg_harness::eval::{evaluate_with, smoke_tasks};
use pcg_harness::record::projection;
use pcg_harness::{EvalConfig, EvalStats, SharedRunner};
use pcg_models::SyntheticModel;
use pcg_problems::input_cache;
use std::sync::{Arc, Mutex};

/// The reference settings: thread per rank, no input memo, an executor
/// per execution.
const REFERENCE: Settings = Settings { warm: false, deadlock_detection: true };

fn config() -> EvalConfig {
    // Retries on, so a flaky candidate records its post-retry outcome on
    // every side of a comparison.
    EvalConfig { retry_flaky: true, ..EvalConfig::smoke() }
}

/// One problem across all seven execution models, so every substrate
/// participates, plus the first message-passing tasks, whose ranks the
/// warm path runs as fibers.
fn tasks() -> Vec<TaskId> {
    let mut tasks: Vec<TaskId> = smoke_tasks().into_iter().take(7).collect();
    let message_passing = smoke_tasks()
        .into_iter()
        .filter(|t| matches!(t.model, ExecutionModel::Mpi | ExecutionModel::MpiOpenMp))
        .take(4);
    for t in message_passing {
        if !tasks.contains(&t) {
            tasks.push(t);
        }
    }
    tasks
}

/// The projection and stats of one evaluation on a fresh runner.
fn run(settings: Settings, jobs: usize) -> (String, EvalStats) {
    let cfg = config();
    let models = vec![SyntheticModel::by_name("CodeLlama-13B").expect("zoo model")];
    let runner = SharedRunner::with_settings(cfg.clone(), settings);
    let (rec, stats) = evaluate_with(&cfg, &models, Some(&tasks()), jobs, &runner);
    (projection(&rec), stats)
}

#[test]
fn fiber_records_are_byte_identical_to_thread_per_rank_at_any_jobs() {
    let (reference, reference_stats) = run(REFERENCE, 1);
    assert_eq!(
        reference_stats.ranks_multiplexed, 0,
        "the reference evaluation must run thread per rank: {reference_stats:?}"
    );
    assert_eq!(reference_stats.input_cache_hits, 0, "the reference memoizes nothing");
    for jobs in [1, 8] {
        let (warm, stats) = run(Settings::default(), jobs);
        assert_eq!(
            reference, warm,
            "warm --jobs {jobs} record must project byte-identical to the reference"
        );
        // The warm path must actually have engaged: ranks ran as fibers
        // and payloads moved by reference.
        assert!(stats.ranks_multiplexed > 0, "warm ranks must run as fibers: {stats:?}");
        assert!(
            stats.bytes_zero_copied > 0,
            "MPI workloads must move some payload bytes by reference: {stats:?}"
        );
    }
}

#[test]
fn repeat_coordinates_reuse_their_inputs() {
    // From an empty memo, and again over the memo the first pass left.
    input_cache::flush();
    let (first, first_stats) = run(Settings::default(), 1);
    let (again, again_stats) = run(Settings::default(), 8);
    assert_eq!(first, again, "a warm-memo pass must project byte-identical to the first");
    for stats in [&first_stats, &again_stats] {
        assert!(stats.input_cache_hits > 0, "repeat coordinates must reuse inputs: {stats:?}");
    }
}

#[test]
fn only_the_warm_context_reuses_its_executor() {
    let ids = Arc::new(Mutex::new(Vec::new()));
    for settings in [REFERENCE, Settings::default()] {
        let runner = SharedRunner::with_settings(config(), settings);
        for _ in 0..3 {
            let ids = Arc::clone(&ids);
            let out = runner.run_isolated(move || {
                ids.lock().unwrap().push(std::thread::current().id());
                Ok::<_, PcgError>(())
            });
            assert!(out.correct, "{out:?}");
        }
    }
    let ids = ids.lock().unwrap();
    assert!(
        ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2],
        "each reference execution must run on a new thread: {ids:?}"
    );
    assert!(
        ids[3] == ids[4] && ids[4] == ids[5],
        "warm executions must reuse their executor: {ids:?}"
    );
}
