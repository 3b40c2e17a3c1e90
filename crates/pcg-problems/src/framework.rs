//! The problem abstraction and the candidate runner.

use crate::{corrupt, fallback, input_cache};
use pcg_core::prompt::PromptSpec;
use pcg_core::{usage, CandidateKind, ExecutionModel, Output, PcgError, ProblemId, Quality};
use pcg_gpusim::Gpu;
use pcg_hybrid::{HybridCtx, HybridWorld};
use pcg_mpisim::{Comm, CostModel, World};
use pcg_patterns::ExecSpace;
use pcg_shmem::Pool;
use std::sync::Arc;
use std::time::Instant;

/// Resource configuration derived from an execution model and the
/// paper's `n` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resources {
    /// Threads for OpenMP/Kokkos substrates.
    pub threads: usize,
    /// Ranks for the MPI substrate.
    pub ranks: usize,
    /// (ranks, threads-per-rank) for the hybrid substrate.
    pub hybrid_ranks: usize,
    /// Threads per rank for the hybrid substrate.
    pub hybrid_threads: usize,
    /// Threads per block for GPU launches.
    pub gpu_block: u32,
}

impl Resources {
    /// Map the paper's `n` onto substrate dimensions: threads for
    /// OpenMP/Kokkos, ranks for MPI, and the paper's node x thread
    /// decomposition (1 rank/node, up to 4 nodes, up to 64 threads) for
    /// MPI+OpenMP. GPU launches use a fixed 256-thread block.
    pub fn for_model(model: ExecutionModel, n: u32) -> Resources {
        let n = n.max(1) as usize;
        let (hybrid_ranks, hybrid_threads) = match model {
            ExecutionModel::MpiOpenMp => {
                let ranks = n.div_ceil(64).clamp(1, 4);
                (ranks, n.div_ceil(ranks).max(1))
            }
            _ => (1, 1),
        };
        Resources {
            threads: n,
            ranks: n,
            hybrid_ranks,
            hybrid_threads,
            gpu_block: 256,
        }
    }
}

/// A completed run: the produced output and the (measured or simulated)
/// runtime in seconds.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// The candidate's result. Shared, so a serial-code candidate hands
    /// back the serial run's output itself instead of a copy (some
    /// outputs are megabytes).
    pub output: Arc<Output>,
    /// Runtime in seconds (wall-clock for serial, virtual for parallel
    /// substrates — see DESIGN.md's timing-model table).
    pub seconds: f64,
}

/// One PCGBench problem: generator, baseline, and the seven reference
/// parallel implementations. Implemented by each of the 60 problems.
pub trait Spec: Send + Sync {
    /// The problem's input instance type. (`'static` so instances can
    /// be memoized in the type-erased [`input_cache`].)
    type Input: Send + Sync + 'static;

    /// Which of the 60 problems this is.
    fn id(&self) -> ProblemId;
    /// Prompt content (description, signature, examples).
    fn prompt(&self) -> PromptSpec;
    /// Default workload size (chosen so the serial baseline runs in
    /// roughly a millisecond).
    fn default_size(&self) -> usize;
    /// Generate a deterministic input instance.
    fn generate(&self, seed: u64, size: usize) -> Self::Input;
    /// Approximate input footprint in bytes (drives fallback cost
    /// modeling).
    fn input_bytes(&self, input: &Self::Input) -> usize;
    /// Handwritten optimal sequential implementation: the baseline
    /// `T*` and the correctness oracle.
    fn serial(&self, input: &Self::Input) -> Output;

    /// Reference OpenMP-analog implementation.
    fn solve_shmem(&self, input: &Self::Input, pool: &Pool) -> Output;
    /// Reference Kokkos-analog implementation.
    fn solve_patterns(&self, input: &Self::Input, space: &ExecSpace) -> Output;
    /// Reference MPI-analog rank program; called once per rank. The
    /// result must be produced on rank 0 (`None` elsewhere).
    fn solve_mpi(&self, input: &Self::Input, comm: &Comm<'_>) -> Option<Output>;
    /// Reference hybrid rank program; result on rank 0.
    fn solve_hybrid(&self, input: &Self::Input, ctx: &HybridCtx<'_>) -> Option<Output>;
    /// Reference GPU implementation (shared by the CUDA and HIP
    /// frontends, as in the paper the two differ only in toolchain).
    fn solve_gpu(&self, input: &Self::Input, gpu: &Gpu) -> Output;
}

/// Object-safe view of a problem, as consumed by the harness.
pub trait Problem: Send + Sync {
    /// Which of the 60 problems this is.
    fn id(&self) -> ProblemId;
    /// Prompt content.
    fn prompt(&self) -> PromptSpec;
    /// Default workload size.
    fn default_size(&self) -> usize;
    /// Run the handwritten sequential baseline (measured wall time).
    fn run_baseline(&self, seed: u64, size: usize) -> TimedRun;

    /// Build and run one candidate artifact. A kind whose artifact is the
    /// serial code measures one baseline run of its own for it (see
    /// [`Problem::run_candidate_on`]); every other kind runs as is.
    fn run_candidate(
        &self,
        model: ExecutionModel,
        kind: CandidateKind,
        n: u32,
        seed: u64,
        size: usize,
    ) -> Result<TimedRun, PcgError> {
        self.run_candidate_on(model, kind, n, seed, size, &|| self.run_baseline(seed, size))
    }

    /// [`Problem::run_candidate`] on a serial run that is already
    /// measured. `serial` returns a run of the baseline at `seed` and
    /// `size`. The kinds whose artifact is the serial code
    /// (`SequentialFallback`, `Correct(Inefficient)` and the Serial
    /// model's `Correct(_)`) call it once, hand back its output, and
    /// charge its seconds `T*` where they would have timed a solve; the
    /// substrate still models its own overheads around it (see
    /// [`crate::fallback`]). Every other kind never calls it.
    fn run_candidate_on(
        &self,
        model: ExecutionModel,
        kind: CandidateKind,
        n: u32,
        seed: u64,
        size: usize,
        serial: &dyn Fn() -> TimedRun,
    ) -> Result<TimedRun, PcgError>;
}

impl<S: Spec> Problem for S {
    fn id(&self) -> ProblemId {
        Spec::id(self)
    }

    fn prompt(&self) -> PromptSpec {
        Spec::prompt(self)
    }

    fn default_size(&self) -> usize {
        Spec::default_size(self)
    }

    fn run_baseline(&self, seed: u64, size: usize) -> TimedRun {
        let input = cached_input(self, seed, size);
        let t0 = Instant::now();
        let output = self.serial(&input);
        TimedRun { output: Arc::new(output), seconds: t0.elapsed().as_secs_f64() }
    }

    fn run_candidate_on(
        &self,
        model: ExecutionModel,
        kind: CandidateKind,
        n: u32,
        seed: u64,
        size: usize,
        serial: &dyn Fn() -> TimedRun,
    ) -> Result<TimedRun, PcgError> {
        match kind {
            CandidateKind::BuildFailure | CandidateKind::Timeout | CandidateKind::RuntimeCrash => {
                Err(fixed_verdict(kind).expect("a fixed-verdict kind"))
            }
            CandidateKind::WrongOutput(mode) => {
                // Run the real parallel code path, then corrupt the
                // result the way a decomposition bug would.
                let run = self.run_candidate_on(
                    model,
                    CandidateKind::Correct(Quality::Efficient),
                    n,
                    seed,
                    size,
                    serial,
                )?;
                let output = Arc::unwrap_or_clone(run.output);
                Ok(TimedRun {
                    output: Arc::new(corrupt::corrupt(output, mode, seed)),
                    seconds: run.seconds,
                })
            }
            // Correct output, zero parallel-API usage: the harness's
            // instrumentation check flags this for parallel tasks.
            CandidateKind::SequentialFallback => Ok(serial()),
            CandidateKind::Flaky => {
                // A transient runtime fault: the first invocation at
                // each coordinate in the execution's context panics
                // mid-run; retries run the efficient parallel path. The
                // panic (not an `Err`) is deliberate — it exercises the
                // harness's hard-failure capture and retry machinery.
                if usage::first_fault((self.id(), model, n, seed, size)) {
                    panic!("flaky candidate: transient fault on first invocation");
                }
                self.run_candidate_on(
                    model,
                    CandidateKind::Correct(Quality::Efficient),
                    n,
                    seed,
                    size,
                    serial,
                )
            }
            CandidateKind::Deadlock => Err(containment::deadlock(model)),
            CandidateKind::StackHog => Err(containment::stack_hog()),
            CandidateKind::Correct(quality) => {
                let input = cached_input(self, seed, size);
                let res = Resources::for_model(model, n);
                run_correct(self, model, quality, &input, &res, serial)
            }
        }
    }
}

/// The verdict of a kind whose artifact never runs: it fails to build,
/// crashes at start-up, or is the virtual over-the-limit candidate.
/// `None` for every kind that executes code. The harness answers these
/// kinds from this function without running anything, so it and
/// [`Problem::run_candidate`] cannot disagree.
pub fn fixed_verdict(kind: CandidateKind) -> Option<PcgError> {
    match kind {
        CandidateKind::BuildFailure => {
            Some(PcgError::BuildFailure("candidate does not compile".into()))
        }
        CandidateKind::Timeout => Some(PcgError::Timeout),
        CandidateKind::RuntimeCrash => {
            Some(PcgError::Runtime("candidate crashed at runtime".into()))
        }
        _ => None,
    }
}

/// Reference containment defects. Each kind runs a small deterministic
/// *hostile* world — independent of the host problem, since the defect
/// replaces the candidate's logic entirely — on the forced-multiplexed
/// fiber scheduler, where the wait-for-graph detector and the guard-paged
/// stacks live. On targets without fiber support the defect degrades to a
/// static verdict, exactly like the virtual `Timeout` kind.
mod containment {
    use pcg_core::{ExecutionModel, PcgError};
    use pcg_hybrid::HybridWorld;
    use pcg_mpisim::{sched, CostModel, World};

    /// Tag no containment world ever sends: every recv on it blocks
    /// forever, forming the circular wait.
    const NEVER_SENT: u32 = 0x00C0_FFEE;

    /// Circular-wait defect: two ranks each receive a message the other
    /// will never send. The fiber scheduler's quiescence check converts
    /// this into an immediate `deadlock` verdict.
    pub fn deadlock(model: ExecutionModel) -> PcgError {
        if !sched::supported() {
            return PcgError::Deadlock(
                "all ranks blocked on peer receives (static verdict: no fiber scheduler on this target)"
                    .into(),
            );
        }
        let run = if model == ExecutionModel::MpiOpenMp {
            // Hybrid flavor: a threaded section first, so the rank passes
            // through the compute-admission gate before parking on the
            // cross-recv — the detector must see past gate traffic.
            HybridWorld::new(2, 2)
                .multiplexed()
                .run(|ctx| {
                    ctx.par_for(0..16, |i| {
                        std::hint::black_box(i);
                    });
                    let comm = ctx.comm();
                    let partner = comm.rank() ^ 1;
                    let _: Vec<f64> = comm.recv(Some(partner), NEVER_SENT);
                })
                .map(|_| ())
        } else {
            // Deterministic cost model: the verdict's park-time clocks
            // are then a pure function of the message graph.
            World::new(2)
                .with_cost_model(CostModel::deterministic())
                .multiplexed()
                .run(|comm| {
                    let partner = comm.rank() ^ 1;
                    let _: Vec<f64> = comm.recv(Some(partner), NEVER_SENT);
                })
                .map(|_| ())
        };
        match run {
            Err(e) => e,
            Ok(()) => PcgError::Runtime(
                "containment deadlock world terminated without a verdict".into(),
            ),
        }
    }

    /// Frame size of the hog's recursion: large enough to overflow the
    /// 2 MiB fiber stack in ~500 calls, far smaller than the guard
    /// region so a frame can never leap the guard page.
    const HOG_FRAME: usize = 4096;

    // Unconditional recursion is the entire point of this defect.
    #[allow(unconditional_recursion)]
    #[inline(never)]
    fn burn(depth: u64) -> u64 {
        let mut buf = [0u8; HOG_FRAME];
        buf[0] = depth as u8;
        std::hint::black_box(&mut buf);
        // Post-recursion use of the buffer defeats tail-call conversion,
        // so every level holds a live frame.
        burn(depth + 1) ^ u64::from(std::hint::black_box(buf[HOG_FRAME - 1]))
    }

    /// Unbounded-recursion defect: one rank consumes its entire fiber
    /// stack. The guard page converts the fault into an immediate
    /// `stack_overflow` verdict before adjacent memory is touched.
    pub fn stack_hog() -> PcgError {
        if !sched::supported() {
            return PcgError::StackOverflow(
                "candidate exhausted its execution stack (static verdict: no fiber scheduler on this target)"
                    .into(),
            );
        }
        let run = World::new(1).multiplexed().run(|comm| {
            if comm.rank() == 0 {
                std::hint::black_box(burn(0));
            }
        });
        match run {
            Err(e) => e,
            Ok(_) => PcgError::Runtime(
                "containment stack-hog world terminated without a verdict".into(),
            ),
        }
    }
}

/// Fetch (or generate and memoize) the input instance for a coordinate.
/// Identical to calling `spec.generate` directly — generators are
/// seeded and pure — but repeated coordinates share one allocation.
fn cached_input<S: Spec>(spec: &S, seed: u64, size: usize) -> Arc<S::Input> {
    input_cache::get_or_generate(
        Spec::id(spec),
        seed,
        size,
        |input| spec.input_bytes(input),
        || spec.generate(seed, size),
    )
}

fn run_correct<S: Spec>(
    spec: &S,
    model: ExecutionModel,
    quality: Quality,
    input: &S::Input,
    res: &Resources,
    serial: &dyn Fn() -> TimedRun,
) -> Result<TimedRun, PcgError> {
    // Every substrate is built per run and owns no threads: pools, spaces
    // and GPU devices compute on this thread, and worlds run
    // their ranks as fibers here (see `pcg_mpisim::sched`; thread per
    // rank when the execution's context is not warm). The serial code (the Serial
    // model, and the inefficient wrappers of `fallback`) is never run
    // again: it is the measured serial run.
    match model {
        ExecutionModel::Serial => Ok(serial()),
        ExecutionModel::OpenMp => {
            let pool = Pool::new(res.threads);
            let output = match quality {
                Quality::Efficient => Arc::new(spec.solve_shmem(input, &pool)),
                Quality::Inefficient => fallback::lopsided_shmem(&pool, &serial()),
            };
            Ok(TimedRun { output, seconds: pool.virtual_elapsed() })
        }
        ExecutionModel::Kokkos => {
            let space = ExecSpace::new(res.threads);
            let output = match quality {
                Quality::Efficient => Arc::new(spec.solve_patterns(input, &space)),
                Quality::Inefficient => fallback::lopsided_patterns(&space, &serial()),
            };
            Ok(TimedRun { output, seconds: space.virtual_elapsed() })
        }
        ExecutionModel::Mpi => {
            let world = World::new(res.ranks).with_cost_model(CostModel::cluster());
            let outcome = match quality {
                Quality::Efficient => world.run(|comm| spec.solve_mpi(input, comm).map(Arc::new))?,
                Quality::Inefficient => {
                    let (serial, bytes) = (serial(), spec.input_bytes(input));
                    world.run(|comm| fallback::root_computes_mpi(comm, bytes, &serial))?
                }
            };
            let output = outcome
                .per_rank
                .into_iter()
                .next()
                .flatten()
                .ok_or_else(|| PcgError::Runtime("MPI candidate produced no root output".into()))?;
            Ok(TimedRun { output, seconds: outcome.elapsed })
        }
        ExecutionModel::MpiOpenMp => {
            let world = HybridWorld::new(res.hybrid_ranks, res.hybrid_threads);
            let outcome = match quality {
                Quality::Efficient => {
                    world.run(|ctx| spec.solve_hybrid(input, ctx).map(Arc::new))?
                }
                Quality::Inefficient => {
                    let (serial, bytes) = (serial(), spec.input_bytes(input));
                    world.run(|ctx| fallback::root_computes_hybrid(ctx, bytes, &serial))?
                }
            };
            let output = outcome.per_rank.into_iter().next().flatten().ok_or_else(|| {
                PcgError::Runtime("hybrid candidate produced no root output".into())
            })?;
            Ok(TimedRun { output, seconds: outcome.elapsed })
        }
        ExecutionModel::Cuda | ExecutionModel::Hip => {
            let gpu = if model == ExecutionModel::Cuda {
                pcg_gpusim::cuda::device()
            } else {
                pcg_gpusim::hip::device()
            };
            let output = match quality {
                Quality::Efficient => Arc::new(spec.solve_gpu(input, &gpu)),
                Quality::Inefficient => {
                    fallback::single_thread_gpu(&gpu, spec.input_bytes(input), &serial())
                }
            };
            Ok(TimedRun { output, seconds: gpu.elapsed() })
        }
    }
}

/// Cross-model conformance checking shared by the per-type test modules.
#[cfg(test)]
pub mod tests_support {
    use super::*;
    use pcg_core::{Corruption, Quality};

    /// Assert that every execution model's reference implementation,
    /// plus the inefficient variant, reproduces the serial baseline —
    /// and that a wrong-output candidate does not.
    pub fn check_problem_all_models(p: &dyn Problem, seed: u64, size: usize) {
        let base = p.run_baseline(seed, size);
        for model in ExecutionModel::ALL {
            let n = match model {
                ExecutionModel::Serial => 1,
                ExecutionModel::Cuda | ExecutionModel::Hip => 0,
                _ => 4,
            };
            let run = p
                .run_candidate(model, CandidateKind::Correct(Quality::Efficient), n, seed, size)
                .unwrap_or_else(|e| panic!("{} on {model}: {e}", p.id()));
            assert!(
                run.output.approx_eq(&base.output),
                "{} on {model}: got {} want {}",
                p.id(),
                run.output.summary(),
                base.output.summary()
            );
            assert!(run.seconds >= 0.0);
        }
        for model in [ExecutionModel::OpenMp, ExecutionModel::Mpi] {
            let run = p
                .run_candidate(model, CandidateKind::Correct(Quality::Inefficient), 4, seed, size)
                .unwrap_or_else(|e| panic!("{} inefficient on {model}: {e}", p.id()));
            assert!(
                run.output.approx_eq(&base.output),
                "{} inefficient on {model} wrong",
                p.id()
            );
        }
        let wrong = p
            .run_candidate(
                ExecutionModel::OpenMp,
                CandidateKind::WrongOutput(Corruption::PerturbElement),
                4,
                seed,
                size,
            )
            .unwrap();
        assert!(!wrong.output.approx_eq(&base.output), "{}: corruption ineffective", p.id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resources_hybrid_decomposition() {
        let r = Resources::for_model(ExecutionModel::MpiOpenMp, 256);
        assert_eq!((r.hybrid_ranks, r.hybrid_threads), (4, 64));
        let r = Resources::for_model(ExecutionModel::MpiOpenMp, 64);
        assert_eq!((r.hybrid_ranks, r.hybrid_threads), (1, 64));
        let r = Resources::for_model(ExecutionModel::MpiOpenMp, 1);
        assert_eq!((r.hybrid_ranks, r.hybrid_threads), (1, 1));
        let r = Resources::for_model(ExecutionModel::MpiOpenMp, 128);
        assert_eq!((r.hybrid_ranks, r.hybrid_threads), (2, 64));
    }

    #[test]
    fn resources_thread_and_rank_axes() {
        let r = Resources::for_model(ExecutionModel::OpenMp, 32);
        assert_eq!(r.threads, 32);
        let r = Resources::for_model(ExecutionModel::Mpi, 512);
        assert_eq!(r.ranks, 512);
        let r = Resources::for_model(ExecutionModel::Cuda, 0);
        assert_eq!(r.gpu_block, 256);
    }
}
