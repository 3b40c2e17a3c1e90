//! The serial reference `T*` is timed warm, where the candidates run.
//!
//! A one-thread OpenMP region runs the same work as the serial code plus
//! fork/join and dispatch, so it should rarely beat `T*`. When `T*` was
//! the first solve of a freshly generated input, timed on the calling
//! thread rather than on the executor thread that runs the candidates,
//! a process read anywhere from 5 to 35 of the quick grid's 60 problems
//! above 1.1, depending on the host's state. The runner now solves once
//! untimed on the executor before it times the reference there, and
//! reads 0 to 7. This check holds the number of problems whose
//! one-thread speedup exceeds 1.1, in the median of [`RUNS`] fresh
//! evaluations, at or under [`MAX_FAST`].
//!
//! Ignored in debug builds: the bound was set on optimized code.

use pcg_core::task::all_problems;
use pcg_core::{CandidateKind, ExecutionModel, Quality};
use pcg_harness::{EvalConfig, SharedRunner};
use pcg_problems::input_cache;

/// Fresh evaluations per problem; each problem's median speedup over
/// them is what the bound counts.
const RUNS: usize = 9;

/// Problems (of 60) whose median one-thread speedup may exceed 1.1.
const MAX_FAST: usize = 8;

#[test]
#[cfg_attr(debug_assertions, ignore = "bounds hold for optimized builds only")]
fn one_thread_openmp_rarely_beats_the_serial_reference() {
    let cfg = EvalConfig::quick();
    let kind = CandidateKind::Correct(Quality::Efficient);
    let problems: Vec<_> = all_problems().collect();
    let mut speedups = vec![Vec::with_capacity(RUNS); problems.len()];
    for _ in 0..RUNS {
        // Every run starts as a new process does: no input generated.
        input_cache::flush();
        let runner = SharedRunner::new(cfg.clone());
        for (p, runs) in problems.iter().zip(&mut speedups) {
            runs.push(runner.ratio(p.task(ExecutionModel::OpenMp), kind, 1));
        }
    }
    let medians: Vec<f64> = speedups
        .iter_mut()
        .map(|runs| {
            runs.sort_by(f64::total_cmp);
            runs[RUNS / 2]
        })
        .collect();
    let fast = medians.iter().filter(|&&s| s > 1.1).count();
    let mut sorted = medians.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "one-thread OpenMP vs T*: {fast} of {} problems above 1.1 (median of {RUNS} runs); \
         median speedup {:.3}",
        problems.len(),
        sorted[sorted.len() / 2]
    );
    assert!(
        fast <= MAX_FAST,
        "{fast} of {} problems beat the serial reference by >10% at one thread \
         (bound {MAX_FAST}): T* is not timed as the candidates are",
        problems.len()
    );
}
