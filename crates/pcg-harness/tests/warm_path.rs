//! Warm-path hard constraints.
//!
//! The warm execution engine (substrate leasing, input memoization,
//! supervisor reuse) is a pure performance layer: evaluation records
//! must be **byte-identical** to the cold path's, at any worker count.
//! Ratios and stage timings are measured quantities, so the comparison
//! uses the single determinism projection `pcg_harness::record::projection` —
//! task identity, per-sample build/correct flags, and sweep keys.
//!
//! One `#[test]` only: the warm flag, the lease cache, and the input
//! cache are process-global, so the phases must not interleave.

use pcg_core::warm;
use pcg_harness::eval::{evaluate_with, smoke_tasks};
use pcg_harness::record::projection;
use pcg_harness::{EvalConfig, EvalStats, SharedRunner};
use pcg_models::SyntheticModel;
use pcg_problems::{input_cache, lease};

fn run(cfg: &EvalConfig, tasks: &[pcg_core::TaskId], warm_on: bool, jobs: usize) -> (String, EvalStats) {
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
    // One problem across all seven execution models: every substrate
    // (and thus every lease key shape) participates.
    let tasks: Vec<_> = smoke_tasks().into_iter().take(7).collect();

    // Cold reference.
    let (cold, cold_stats) = run(&cfg, &tasks, false, 1);
    assert_eq!(
        cold_stats.lease_hits + cold_stats.lease_misses,
        0,
        "cold path must never touch the lease cache"
    );

    // Warm runs — serial and oversubscribed — each from a cold cache.
    lease::flush();
    input_cache::flush();
    let (warm1, warm1_stats) = run(&cfg, &tasks, true, 1);
    lease::flush();
    input_cache::flush();
    let (warm8, warm8_stats) = run(&cfg, &tasks, true, 8);

    assert_eq!(cold, warm1, "warm --jobs 1 record must project byte-identical to cold");
    assert_eq!(cold, warm8, "warm --jobs 8 record must project byte-identical to cold");

    // And the warm path must actually have engaged: the cold-cache
    // passes leased their substrates, and a repeat pass over the now
    // warm cache reuses them. (Within one pass the runner already runs
    // each computation once, so repeats come from a second pass.)
    assert!(warm1_stats.lease_misses > 0, "substrates must be leased: {warm1_stats:?}");
    assert!(warm1_stats.input_cache_hits > 0, "repeat coordinates must reuse inputs");
    assert!(warm8_stats.lease_misses > 0);
    assert!(warm1_stats.pool_setup_s >= 0.0);
    for jobs in [1, 8] {
        let (again, again_stats) = run(&cfg, &tasks, true, jobs);
        assert_eq!(cold, again, "a warm-cache --jobs {jobs} pass must project byte-identical to cold");
        assert!(
            again_stats.lease_hits > 0,
            "repeat executions at --jobs {jobs} must reuse substrates: {again_stats:?}"
        );
    }
}
