//! Property-based cross-substrate conformance: for randomized seeds,
//! sizes, and resource counts, every execution model's reference
//! implementation must reproduce the sequential oracle — the invariant
//! the whole benchmark rests on.

use pcgbench::core::{CandidateKind, ExecutionModel, PcgError, ProblemId, ProblemType, Quality};
use pcgbench::harness::{EvalConfig, SharedRunner};
use pcgbench::problems::registry;
use proptest::prelude::*;
use std::time::Duration;

fn check(ptype: ProblemType, variant: usize, model: ExecutionModel, n: u32, seed: u64, size: usize) {
    let problem = registry::problem(ProblemId::new(ptype, variant));
    let base = problem.run_baseline(seed, size);
    let run = problem
        .run_candidate(model, CandidateKind::Correct(Quality::Efficient), n, seed, size)
        .unwrap_or_else(|e| panic!("{ptype:?}#{variant} on {model}: {e}"));
    assert!(
        run.output.approx_eq(&base.output),
        "{ptype:?}#{variant} on {model} n={n} seed={seed} size={size}: {} vs {}",
        run.output.summary(),
        base.output.summary()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn transform_conforms_over_random_shapes(
        seed in 0u64..1000,
        size in 64usize..1500,
        variant in 0usize..5,
        n in 1u32..9,
    ) {
        for model in [ExecutionModel::OpenMp, ExecutionModel::Mpi, ExecutionModel::Cuda] {
            check(ProblemType::Transform, variant, model, n, seed, size);
        }
    }

    #[test]
    fn scan_conforms_over_random_shapes(
        seed in 0u64..1000,
        size in 64usize..1200,
        variant in 0usize..5,
        n in 1u32..7,
    ) {
        for model in [ExecutionModel::Kokkos, ExecutionModel::Mpi, ExecutionModel::Hip] {
            check(ProblemType::Scan, variant, model, n, seed, size);
        }
    }

    #[test]
    fn stencil_conforms_with_halo_exchange(
        seed in 0u64..1000,
        size in 128usize..1200,
        variant in 0usize..5,
        n in 1u32..7,
    ) {
        // MPI is the interesting one: block distribution + halo exchange.
        check(ProblemType::Stencil, variant, ExecutionModel::Mpi, n, seed, size);
        check(ProblemType::Stencil, variant, ExecutionModel::MpiOpenMp, n.min(4), seed, size);
    }

    #[test]
    fn sort_conforms_across_rank_counts(
        seed in 0u64..1000,
        size in 64usize..1000,
        variant in 0usize..5,
        n in 1u32..10,
    ) {
        check(ProblemType::Sort, variant, ExecutionModel::Mpi, n, seed, size);
        check(ProblemType::Sort, variant, ExecutionModel::OpenMp, n, seed, size);
    }

    #[test]
    fn reductions_conform_on_gpu(
        seed in 0u64..1000,
        size in 64usize..2000,
        variant in 0usize..5,
    ) {
        check(ProblemType::Reduce, variant, ExecutionModel::Cuda, 0, seed, size);
        check(ProblemType::Reduce, variant, ExecutionModel::Hip, 0, seed, size);
    }

    #[test]
    fn sparse_and_graph_conform(
        seed in 0u64..1000,
        size in 128usize..800,
        variant in 0usize..5,
        n in 1u32..6,
    ) {
        check(ProblemType::SparseLinearAlgebra, variant, ExecutionModel::Mpi, n, seed, size);
        check(ProblemType::Graph, variant, ExecutionModel::OpenMp, n, seed, size);
    }
}

#[test]
fn every_problem_conforms_at_odd_rank_counts() {
    // Non-power-of-two rank counts exercise the collective fallbacks
    // (reduce+bcast allreduce, remainder-carrying block distribution).
    for ptype in ProblemType::ALL {
        let problem = registry::problem(ProblemId::new(ptype, 0));
        let base = problem.run_baseline(7, 300);
        for n in [3u32, 5, 7] {
            let run = problem
                .run_candidate(
                    ExecutionModel::Mpi,
                    CandidateKind::Correct(Quality::Efficient),
                    n,
                    7,
                    300,
                )
                .unwrap_or_else(|e| panic!("{ptype:?} mpi n={n}: {e}"));
            assert!(
                run.output.approx_eq(&base.output),
                "{ptype:?} at {n} ranks: {} vs {}",
                run.output.summary(),
                base.output.summary()
            );
        }
    }
}

/// A labeled hostile candidate body for the isolation tests.
type HostileCandidate = (&'static str, Box<dyn FnOnce() -> Result<(), PcgError> + Send>);

/// A runner with a short kill limit (and an equally short grace period,
/// so non-cooperative hangs are abandoned quickly), for
/// hostile-candidate tests.
fn hostile_runner() -> SharedRunner {
    let mut cfg = EvalConfig::smoke();
    cfg.timeout = Duration::from_millis(100);
    cfg.grace = Duration::from_millis(100);
    SharedRunner::new(cfg)
}

/// After surviving a hostile candidate, the runner must still evaluate
/// a normal one — no wedged worker, no poisoned state.
fn assert_still_serviceable(runner: &SharedRunner) {
    let task = ProblemId::new(ProblemType::Transform, 0).task(ExecutionModel::OpenMp);
    let out = runner.outcome(task, CandidateKind::Correct(Quality::Efficient), 4);
    assert!(out.correct, "runner wedged by a hostile candidate: {out:?}");
}

/// A panic inside a candidate body — on any substrate — must surface as
/// a captured per-candidate failure, never as a harness panic or a hung
/// worker. Substrates that run bodies on their own threads (MPI, hybrid)
/// convert rank panics to runtime errors before the harness sees them,
/// so both codes are conforming.
#[test]
fn candidate_panics_are_captured_on_every_substrate() {
    let panicky: Vec<HostileCandidate> = vec![
        ("shmem", Box::new(|| {
            pcgbench::shmem::Pool::new(4).parallel_for(
                0..4,
                pcgbench::shmem::Schedule::default(),
                |i| {
                    if i == 2 {
                        panic!("candidate bug at i=2");
                    }
                },
            );
            Ok(())
        })),
        ("kokkos", Box::new(|| {
            pcgbench::patterns::ExecSpace::new(4).parallel_for(64, |i| {
                if i == 17 {
                    panic!("candidate bug at i=17");
                }
            });
            Ok(())
        })),
        ("mpisim", Box::new(|| {
            pcgbench::mpisim::World::new(4)
                .run(|comm| {
                    if comm.rank() == 1 {
                        panic!("candidate bug on rank 1");
                    }
                })
                .map(|_| ())
        })),
        ("hybrid", Box::new(|| {
            pcgbench::hybrid::HybridWorld::new(2, 2)
                .run(|ctx| {
                    if ctx.comm().rank() == 1 {
                        panic!("candidate bug on hybrid rank 1");
                    }
                })
                .map(|_| ())
        })),
        ("cuda", Box::new(|| {
            let buf = pcgbench::gpusim::GpuBuffer::<f64>::zeroed(64);
            pcgbench::gpusim::cuda::device().launch_each(
                pcgbench::gpusim::Launch::over(64, 32),
                |t, ctx| {
                    if t.global_id() == 5 {
                        panic!("candidate bug in kernel thread 5");
                    }
                    ctx.write(&buf, t.global_id(), 1.0);
                },
            );
            Ok(())
        })),
        ("hip", Box::new(|| {
            let buf = pcgbench::gpusim::GpuBuffer::<f64>::zeroed(64);
            pcgbench::gpusim::hip::device().launch_each(
                pcgbench::gpusim::Launch::over(64, 32),
                |t, ctx| {
                    if t.block_idx == 1 {
                        panic!("candidate bug in block 1");
                    }
                    ctx.write(&buf, t.global_id(), 1.0);
                },
            );
            Ok(())
        })),
    ];
    let runner = hostile_runner();
    for (substrate, candidate) in panicky {
        let out = runner.run_isolated(candidate);
        assert!(!out.correct, "{substrate}: panicking candidate marked correct");
        let code = out.error.unwrap_or("<none>");
        assert!(
            code == "panic" || code == "runtime",
            "{substrate}: expected a captured panic, got error {code:?}"
        );
    }
    assert_still_serviceable(&runner);
}

/// A candidate that hangs — on any substrate — must be abandoned at the
/// configured time limit with `error: Some("timeout")`, leaving the
/// worker free for the next candidate (the paper's 3-minute kill).
#[test]
fn hanging_candidates_time_out_on_every_substrate() {
    // Long enough to outlive the 100 ms limit by far, short enough that
    // the abandoned threads drain before the test process exits.
    let hang = || std::thread::sleep(Duration::from_secs(2));
    let hangs: Vec<HostileCandidate> = vec![
        ("shmem", Box::new(move || {
            pcgbench::shmem::Pool::new(2).parallel_for(
                0..2,
                pcgbench::shmem::Schedule::default(),
                |i| {
                    if i == 1 {
                        hang();
                    }
                },
            );
            Ok(())
        })),
        ("kokkos", Box::new(move || {
            pcgbench::patterns::ExecSpace::new(2).parallel_for(2, |i| {
                if i == 1 {
                    hang();
                }
            });
            Ok(())
        })),
        ("mpisim", Box::new(move || {
            pcgbench::mpisim::World::new(2)
                .run(|comm| {
                    if comm.rank() == 0 {
                        hang();
                    }
                })
                .map(|_| ())
        })),
        ("hybrid", Box::new(move || {
            pcgbench::hybrid::HybridWorld::new(2, 1)
                .run(|ctx| {
                    if ctx.comm().rank() == 1 {
                        hang();
                    }
                })
                .map(|_| ())
        })),
        ("cuda", Box::new(move || {
            pcgbench::gpusim::cuda::device().launch_each(
                pcgbench::gpusim::Launch::new(1, 1),
                |_, _| hang(),
            );
            Ok(())
        })),
        ("hip", Box::new(move || {
            pcgbench::gpusim::hip::device().launch_each(
                pcgbench::gpusim::Launch::new(1, 1),
                |_, _| hang(),
            );
            Ok(())
        })),
    ];
    let runner = hostile_runner();
    for (substrate, candidate) in hangs {
        let out = runner.run_isolated(candidate);
        assert!(!out.correct, "{substrate}: hung candidate marked correct");
        assert_eq!(
            out.error,
            Some("timeout"),
            "{substrate}: hang must be abandoned at the limit"
        );
    }
    assert_eq!(runner.stats().timeouts, 6);
    // A raw `sleep` never observes the cancel token, so every one of
    // these hangs exhausts the grace period and is abandoned.
    assert_eq!(runner.stats().abandoned, 6);
    assert_eq!(runner.stats().cancelled, 0);
    assert_still_serviceable(&runner);
}

/// Cancellation conformance: a candidate stuck at a *substrate blocking
/// point* — a work-sharing loop, an MPI receive that can never be
/// matched, a kernel relaunch loop — must unwind cooperatively within
/// the grace period once its token fires. The abandonment counter
/// staying at zero is the proof that every substrate checks the token
/// where it blocks; only token-blind code (like the raw sleeps above)
/// should ever be abandoned.
#[test]
fn cancellation_unwinds_cooperatively_on_every_substrate() {
    let cooperative: Vec<HostileCandidate> = vec![
        ("shmem", Box::new(|| {
            // An effectively infinite work-sharing loop; the pool checks
            // the token at every chunk boundary.
            pcgbench::shmem::Pool::new(2).parallel_for(
                0..usize::MAX,
                pcgbench::shmem::Schedule::Dynamic { chunk: 1 },
                |_| {},
            );
            Ok(())
        })),
        ("kokkos", Box::new(|| {
            // An effectively infinite league: team dispatch deals dynamic
            // chunks of one, so the token is checked for every team.
            pcgbench::patterns::ExecSpace::new(2).parallel_for_teams(usize::MAX, |_| {});
            Ok(())
        })),
        ("mpisim", Box::new(|| {
            // Rank 0 posts a receive no rank will ever match while rank 1
            // spins on messages to itself, so no deadlock can be proved
            // and only the token ends the world. Every receive checks
            // the token.
            pcgbench::mpisim::World::new(2)
                .run(|comm| {
                    if comm.rank() == 0 {
                        let _: Vec<f64> = comm.recv(Some(1), 7);
                    } else {
                        loop {
                            comm.send_one(1, 8, 0i64);
                            let _: i64 = comm.recv_one(Some(1), 8);
                        }
                    }
                })
                .map(|_| ())
        })),
        ("gpusim", Box::new(|| {
            // A candidate relaunching kernels forever; launch entry
            // checks the token.
            let buf = pcgbench::gpusim::GpuBuffer::<f64>::zeroed(64);
            loop {
                pcgbench::gpusim::cuda::device().launch_each(
                    pcgbench::gpusim::Launch::over(64, 32),
                    |t, ctx| {
                        if t.global_id() < 64 {
                            ctx.write(&buf, t.global_id(), 1.0);
                        }
                    },
                );
            }
        })),
    ];
    let mut cfg = EvalConfig::smoke();
    cfg.timeout = Duration::from_millis(100);
    // A generous grace period: cooperative unwinding must not depend on
    // a lenient abandonment deadline to pass.
    cfg.grace = Duration::from_secs(10);
    let runner = SharedRunner::new(cfg);
    for (i, (substrate, candidate)) in cooperative.into_iter().enumerate() {
        let out = runner.run_isolated(candidate);
        assert_eq!(
            out.error,
            Some("timeout"),
            "{substrate}: stuck candidate must time out"
        );
        assert_eq!(
            runner.stats().cancelled,
            (i + 1) as u64,
            "{substrate}: must unwind via the cancel token"
        );
        assert_eq!(runner.stats().abandoned, 0, "{substrate}: cooperative path must not leak");
    }
    assert_eq!(runner.leaked_workers(), 0);
    assert_still_serviceable(&runner);
}

/// The usage check must attribute API calls to the candidate that made
/// them even while other candidates run concurrently on the scheduler.
/// With process-global snapshot deltas (the pre-parallel design), the
/// noisy neighbor's `Pool::parallel_for` calls would leak into the fallback
/// candidate's delta and flip its verdict to correct.
#[test]
fn sequential_fallback_is_flagged_despite_concurrent_parallel_candidates() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let runner = SharedRunner::new(EvalConfig::smoke());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                pcgbench::shmem::Pool::new(2).parallel_for(
                    0..2,
                    pcgbench::shmem::Schedule::default(),
                    |_| {},
                );
            }
        });
        let task = ProblemId::new(ProblemType::Transform, 0).task(ExecutionModel::OpenMp);
        let out = runner.outcome(task, CandidateKind::SequentialFallback, 4);
        stop.store(true, Ordering::Relaxed);
        assert!(!out.correct, "fallback must not inherit the neighbor's API calls");
        assert_eq!(out.error, Some("sequential"));
    });
}

#[test]
fn rank_counts_beyond_physical_cores_stay_correct() {
    // 96 simulated ranks on a small host: the virtual-time design must
    // not affect answers.
    for (ptype, variant) in
        [(ProblemType::Transform, 2), (ProblemType::Reduce, 0), (ProblemType::Histogram, 0)]
    {
        let problem = registry::problem(ProblemId::new(ptype, variant));
        let base = problem.run_baseline(11, 512);
        let run = problem
            .run_candidate(
                ExecutionModel::Mpi,
                CandidateKind::Correct(Quality::Efficient),
                96,
                11,
                512,
            )
            .unwrap();
        assert!(run.output.approx_eq(&base.output), "{ptype:?}#{variant}");
        assert!(run.seconds > 0.0);
    }
}
