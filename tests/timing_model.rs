//! Integration checks on the virtual-time models: the performance
//! *shapes* the paper reports must emerge from the substrates.

use pcgbench::core::{CandidateKind, ExecutionModel, ProblemId, ProblemType, Quality};
use pcgbench::harness::{EvalConfig, SharedRunner};

fn cfg() -> EvalConfig {
    let mut cfg = EvalConfig::quick();
    cfg.reps = 3;
    cfg.size_divisor = 4;
    cfg
}

#[test]
fn openmp_speedup_grows_then_saturates() {
    // A compute-heavy map: modeled OpenMP time should improve with
    // threads at low counts; efficiency must decline monotonically-ish.
    let runner = SharedRunner::new(cfg());
    let task = ProblemId::new(ProblemType::Transform, 4).task(ExecutionModel::OpenMp);
    let kind = CandidateKind::Correct(Quality::Efficient);
    let r1 = runner.ratio(task, kind, 1);
    let r8 = runner.ratio(task, kind, 8);
    let r32 = runner.ratio(task, kind, 32);
    assert!(r1 > 0.0 && r8 > 0.0 && r32 > 0.0);
    assert!(r8 > r1, "8 threads should beat 1 (r1={r1:.2}, r8={r8:.2})");
    // Efficiency declines with thread count (fixed problem size).
    assert!(r8 / 8.0 < r1 / 1.0 * 1.1, "efficiency must not grow with threads");
    assert!(r32 / 32.0 < r8 / 8.0 * 1.1);
}

#[test]
fn mpi_efficiency_declines_with_ranks() {
    let runner = SharedRunner::new(cfg());
    let task = ProblemId::new(ProblemType::Reduce, 0).task(ExecutionModel::Mpi);
    let kind = CandidateKind::Correct(Quality::Efficient);
    let e = |n: u32| runner.ratio(task, kind, n) / f64::from(n);
    let e2 = e(2);
    let e32 = e(32);
    let e256 = e(256);
    assert!(e2 > e32, "e2={e2:.4} e32={e32:.4}");
    assert!(e32 > e256, "e32={e32:.4} e256={e256:.4}");
}

#[test]
fn inefficient_candidates_never_scale() {
    // The lopsided/root-computes fallbacks must show no speedup growth
    // from more resources: the lopsided region is charged T* plus a
    // fork/join that grows with the team.
    let runner = SharedRunner::new(cfg());
    let task = ProblemId::new(ProblemType::Reduce, 3).task(ExecutionModel::OpenMp);
    let kind = CandidateKind::Correct(Quality::Inefficient);
    let r1 = runner.ratio(task, kind, 1);
    let r16 = runner.ratio(task, kind, 16);
    assert!(r1 > 0.0 && r16 > 0.0);
    assert!(
        r16 <= r1,
        "one-thread-does-everything cannot speed up 16x (r1={r1:.2}, r16={r16:.2})"
    );
}

#[test]
fn gpu_models_give_large_speedups_on_big_maps() {
    // At (near) full size, the A100-like device model should beat the
    // single-core CPU baseline clearly on a bandwidth-bound map.
    let mut cfg = EvalConfig::quick();
    cfg.size_divisor = 1;
    cfg.reps = 3;
    let runner = SharedRunner::new(cfg);
    let task = ProblemId::new(ProblemType::Transform, 0).task(ExecutionModel::Cuda);
    let r = runner.ratio(task, CandidateKind::Correct(Quality::Efficient), 0);
    assert!(r > 2.0, "GPU speedup too small: {r:.2}");
    // HIP (MI50-like) is slower than CUDA (A100-like) for the same task.
    let task_hip = ProblemId::new(ProblemType::Transform, 0).task(ExecutionModel::Hip);
    let rh = runner.ratio(task_hip, CandidateKind::Correct(Quality::Efficient), 0);
    assert!(rh > 0.0 && rh < r * 1.5, "cuda={r:.2} hip={rh:.2}");
}

#[test]
fn failure_kinds_have_infinite_effective_runtime() {
    let runner = SharedRunner::new(cfg());
    let task = ProblemId::new(ProblemType::Histogram, 0).task(ExecutionModel::OpenMp);
    for kind in [
        CandidateKind::BuildFailure,
        CandidateKind::RuntimeCrash,
        CandidateKind::Timeout,
    ] {
        assert_eq!(runner.ratio(task, kind, 8), 0.0, "{kind:?}");
    }
}
