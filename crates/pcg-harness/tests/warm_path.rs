//! Warm-path hard constraints.
//!
//! The warm execution engine (MPI and hybrid ranks as fibers on the
//! calling thread, zero-copy message transport, input memoization,
//! executor reuse) is a pure performance layer: evaluation records
//! must be **byte-identical** to the cold path's, which runs one OS
//! thread per rank, at any worker count. Ratios and stage timings are
//! measured quantities, so the comparison uses the single determinism
//! projection `pcg_harness::record::projection` — task identity,
//! per-sample build/correct flags, and sweep keys.
//!
//! One `#[test]` only: the warm flag and the input cache are
//! process-global, so the phases must not interleave.

use pcg_core::{warm, ExecutionModel, PcgError, TaskId};
use pcg_harness::eval::{evaluate_with, smoke_tasks};
use pcg_harness::record::projection;
use pcg_harness::{EvalConfig, EvalStats, SharedRunner};
use pcg_models::SyntheticModel;
use pcg_problems::input_cache;
use std::sync::{Arc, Mutex};

fn run(cfg: &EvalConfig, tasks: &[TaskId], warm_on: bool, jobs: usize) -> (String, EvalStats) {
    warm::set_enabled(warm_on);
    let models = vec![SyntheticModel::by_name("CodeLlama-13B").expect("zoo model")];
    let runner = SharedRunner::new(cfg.clone());
    let (rec, stats) = evaluate_with(cfg, &models, Some(tasks), jobs, &runner);
    (projection(&rec), stats)
}

#[test]
fn warm_records_are_byte_identical_to_cold_at_any_jobs() {
    let mut cfg = EvalConfig::smoke();
    // Flaky candidates fault once per coordinate per *process*; with
    // retries on, the first (cold) run and the later warm runs both
    // record the post-retry outcome, keeping projections comparable.
    cfg.retry_flaky = true;
    // One problem across all seven execution models, so every substrate
    // participates, plus the first message-passing tasks, whose ranks
    // the warm path runs as fibers.
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

    // Cold reference: thread per rank, no input memoization.
    input_cache::flush();
    let (cold, cold_stats) = run(&cfg, &tasks, false, 1);
    assert_eq!(
        cold_stats.ranks_multiplexed, 0,
        "cold evaluation must run thread per rank"
    );

    // Warm runs — serial and oversubscribed — each from a cold cache.
    input_cache::flush();
    let (warm1, warm1_stats) = run(&cfg, &tasks, true, 1);
    input_cache::flush();
    let (warm8, warm8_stats) = run(&cfg, &tasks, true, 8);

    assert_eq!(
        cold, warm1,
        "warm --jobs 1 record must project byte-identical to cold"
    );
    assert_eq!(
        cold, warm8,
        "warm --jobs 8 record must project byte-identical to cold"
    );

    // And the warm path must actually have engaged: ranks ran as
    // fibers, payloads moved by reference, and repeat coordinates
    // reused their inputs.
    for stats in [&warm1_stats, &warm8_stats] {
        assert!(
            stats.ranks_multiplexed > 0,
            "warm ranks must run as fibers: {stats:?}"
        );
        assert!(
            stats.bytes_zero_copied > 0,
            "MPI workloads must move some payload bytes by reference"
        );
        assert!(
            stats.input_cache_hits > 0,
            "repeat coordinates must reuse inputs: {stats:?}"
        );
    }
    // A repeat pass over the now warm input cache projects the same.
    for jobs in [1, 8] {
        let (again, again_stats) = run(&cfg, &tasks, true, jobs);
        assert_eq!(
            cold, again,
            "a warm-cache --jobs {jobs} pass must project byte-identical to cold"
        );
        assert!(
            again_stats.input_cache_hits > 0,
            "repeat executions at --jobs {jobs} must reuse inputs: {again_stats:?}"
        );
    }

    // Cold mode keeps no executor: every execution starts its own
    // thread, where the warm path reuses one.
    let runner = SharedRunner::new(cfg.clone());
    let ids = Arc::new(Mutex::new(Vec::new()));
    for warm_on in [false, false, false, true, true] {
        warm::set_enabled(warm_on);
        let ids = Arc::clone(&ids);
        let out = runner.run_isolated(move || {
            ids.lock().unwrap().push(std::thread::current().id());
            Ok::<_, PcgError>(())
        });
        assert!(out.correct, "{out:?}");
    }
    let ids = ids.lock().unwrap();
    assert!(
        ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2],
        "each cold execution must run on a new thread: {ids:?}"
    );
    assert_eq!(ids[3], ids[4], "warm executions must reuse their executor: {ids:?}");
}
