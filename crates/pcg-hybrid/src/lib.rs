//! # pcg-hybrid
//!
//! MPI+OpenMP-analog substrate: SPMD ranks from `pcg-mpisim`, each with a
//! private `pcg-shmem` thread pool for its local compute.
//!
//! ## Virtual-time model
//!
//! The paper runs hybrid prompts on up to 4 nodes x 64 threads — far more
//! hardware threads than a single dev machine has. Measuring threaded
//! sections naively would charge oversubscription stalls to the candidate.
//! Instead, hybrid worlds disable the simulator's automatic compute
//! measurement (`compute_scale = 0`) and each rank's local pool runs in
//! `pcg-shmem` **timed mode**: loop chunks run one after another on the
//! rank itself and are wall-timed, dynamic and guided chunks go to the
//! member with the smallest virtual clock, and the modeled section time
//! (critical path across the requested thread count, plus fork/join
//! overheads) is charged to the rank's virtual clock by the [`HybridCtx`]
//! wrappers. The world admits one computing rank at a time so chunk
//! measurements of different ranks never overlap.
//! Communication costs remain those of `pcg-mpisim`'s Hockney model, so
//! the hybrid column inherits realistic rank-level scaling behavior.
//!
//! ## Execution style
//!
//! Rank execution is inherited from `pcg-mpisim`: with the warm path on,
//! a world runs its ranks as fibers on the calling thread (see
//! `pcg_mpisim::sched`), with records identical to thread-per-rank. A
//! hybrid world holds one compute token, so it spawns no helper thread.
//! A rank's timed compute pool owns no OS threads either: its sections
//! compute on the rank's own fiber, so a 4 x 64 world runs entirely on
//! its caller, and no rank ever waits on a pool.
//!
//! ```
//! use pcg_hybrid::HybridWorld;
//! use pcg_mpisim::ReduceOp;
//!
//! let world = HybridWorld::new(4, 8);
//! let out = world
//!     .run(|ctx| {
//!         let local: Vec<f64> = (0..100).map(|i| i as f64).collect();
//!         let partial = ctx.par_reduce(0..local.len(), 0.0, |a, i| a + local[i], |a, b| a + b);
//!         ctx.comm().allreduce_one(partial, ReduceOp::Sum)
//!     })
//!     .unwrap();
//! assert_eq!(*out.root(), 4.0 * 4950.0);
//! ```

use pcg_core::{usage, ExecutionModel, PcgError};
use pcg_mpisim::{Comm, CostModel, SimOutcome, World};
use pcg_shmem::{Pool, Schedule, ThreadCostModel};
use std::ops::Range;

/// A hybrid world: `ranks` SPMD ranks, each requesting
/// `threads_per_rank` threads for local compute.
pub struct HybridWorld {
    ranks: usize,
    threads_per_rank: usize,
    cost: CostModel,
    force_mux: bool,
}

/// Per-rank context: the rank's communicator plus its thread pool.
pub struct HybridCtx<'w> {
    comm: &'w Comm<'w>,
    pool: &'w Pool,
    threads_requested: usize,
}

impl HybridWorld {
    /// A hybrid world of `ranks` x `threads_per_rank`.
    pub fn new(ranks: usize, threads_per_rank: usize) -> HybridWorld {
        assert!(ranks > 0 && threads_per_rank > 0, "hybrid world dims must be nonzero");
        HybridWorld { ranks, threads_per_rank, cost: CostModel::cluster(), force_mux: false }
    }

    /// Force the rank layer onto the multiplexed fiber scheduler even
    /// when the warm path is off. Required for containment worlds:
    /// guard-paged stacks and the wait-for-graph deadlock detector only
    /// exist on the fiber path.
    pub fn multiplexed(mut self) -> HybridWorld {
        self.force_mux = true;
        self
    }

    /// Override the communication cost model. (`compute_scale` is forced
    /// to zero; hybrid compute is charged by the [`HybridCtx`] wrappers.)
    pub fn with_cost_model(mut self, cost: CostModel) -> HybridWorld {
        self.cost = cost;
        self
    }

    /// Rank count.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Requested threads per rank.
    pub fn threads_per_rank(&self) -> usize {
        self.threads_per_rank
    }

    /// Total parallel resources (the paper's `n` for MPI+OpenMP).
    pub fn total_threads(&self) -> usize {
        self.ranks * self.threads_per_rank
    }

    /// Run an SPMD hybrid program.
    pub fn run<R, F>(&self, f: F) -> Result<SimOutcome<R>, PcgError>
    where
        R: Send,
        F: Fn(&HybridCtx<'_>) -> R + Sync,
    {
        self.world().run(|comm| self.on_rank(comm, &f))
    }

    /// One rank's program: a fresh timed pool computing on the rank itself.
    fn on_rank<R>(&self, comm: &Comm<'_>, f: &impl Fn(&HybridCtx<'_>) -> R) -> R {
        let pool = Pool::new_timed(self.threads_per_rank, ThreadCostModel::default());
        f(&HybridCtx { comm, pool: &pool, threads_requested: self.threads_per_rank })
    }

    fn world(&self) -> World {
        let cost = CostModel { compute_scale: 0.0, ..self.cost.clone() };
        let world = World::new(self.ranks).with_cost_model(cost).with_max_tokens(1);
        if self.force_mux { world.multiplexed() } else { world }
    }
}

impl<'w> HybridCtx<'w> {
    /// The rank's communicator.
    pub fn comm(&self) -> &'w Comm<'w> {
        self.comm
    }

    /// The rank's thread pool (for constructs without a timed wrapper;
    /// virtual time is then *not* charged for the section).
    pub fn pool(&self) -> &Pool {
        self.pool
    }

    /// Requested thread count (the `OMP_NUM_THREADS` analog).
    pub fn threads_per_rank(&self) -> usize {
        self.threads_requested
    }

    /// Run a threaded section and charge the pool's modeled virtual time
    /// for it to the rank clock. The section is bracketed by the compute
    /// admission gate: the rank (re)acquires the world's compute token on
    /// entry and releases it on exit, so a rank between sections does not
    /// serialize its peers' measurements — and a rank *waiting* for the
    /// gate parks cooperatively as a fiber, visible to the wait-for-graph
    /// deadlock detector. Virtual-time arithmetic is unchanged: only the
    /// pool's modeled elapsed time is charged, never gate-wait wall time.
    fn charged<R>(&self, f: impl FnOnce(&Pool) -> R) -> R {
        self.comm.compute_gate_enter();
        let before = self.pool.virtual_elapsed();
        let out = f(self.pool);
        self.comm.advance(self.pool.virtual_elapsed() - before);
        self.comm.compute_gate_exit();
        out
    }

    /// Timed threaded loop: executes on the rank's timed pool and charges
    /// the modeled section time to the rank's virtual clock.
    pub fn par_for<F>(&self, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        usage::record(ExecutionModel::MpiOpenMp);
        self.charged(|pool| pool.parallel_for(range, Schedule::Static { chunk: 0 }, body));
    }

    /// Timed threaded reduction.
    pub fn par_reduce<T, FM, FR>(&self, range: Range<usize>, identity: T, fold: FM, combine: FR) -> T
    where
        T: Clone + Send + Sync,
        FM: Fn(T, usize) -> T + Sync,
        FR: Fn(T, T) -> T + Sync,
    {
        usage::record(ExecutionModel::MpiOpenMp);
        self.charged(|pool| pool.parallel_for_reduce(range, identity, fold, combine))
    }

    /// Timed threaded chunk-fill of a local buffer.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], body: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        usage::record(ExecutionModel::MpiOpenMp);
        self.charged(|pool| pool.parallel_chunks_mut(data, body));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_mpisim::ReduceOp;
    use pcg_shmem::UnsafeSlice;

    #[test]
    fn hybrid_sum_matches_sequential() {
        let world = HybridWorld::new(3, 4);
        let n = 3000usize;
        let out = world
            .run(|ctx| {
                let comm = ctx.comm();
                let range = pcg_mpisim::block_range(n, comm.size(), comm.rank());
                let partial =
                    ctx.par_reduce(range.clone(), 0.0f64, |a, i| a + i as f64, |a, b| a + b);
                comm.reduce_one(0, partial, ReduceOp::Sum)
            })
            .unwrap();
        let want = (n * (n - 1) / 2) as f64;
        assert_eq!(out.root().unwrap(), want);
    }

    #[test]
    fn par_for_fills_local_buffers() {
        let world = HybridWorld::new(2, 2);
        let out = world
            .run(|ctx| {
                let mut local = vec![0usize; 64];
                // Hoist rank out of the loop: `Comm` is single-threaded
                // state (MPI_THREAD_FUNNELED analog) and is not Sync.
                let rank = ctx.comm().rank();
                {
                    let slice = UnsafeSlice::new(&mut local);
                    ctx.par_for(0..64, |i| unsafe { slice.write(i, i + rank) });
                }
                local[63]
            })
            .unwrap();
        assert_eq!(out.per_rank, vec![63, 64]);
    }

    #[test]
    fn virtual_time_charged_for_sections() {
        let world = HybridWorld::new(1, 4);
        let out = world
            .run(|ctx| {
                ctx.par_for(0..200_000, |i| {
                    std::hint::black_box(i * i);
                });
                ctx.comm().clock()
            })
            .unwrap();
        assert!(out.per_rank[0] > 0.0, "threaded section must advance virtual clock");
    }

    #[test]
    fn dims_accessors() {
        let w = HybridWorld::new(4, 64);
        assert_eq!(w.ranks(), 4);
        assert_eq!(w.threads_per_rank(), 64);
        assert_eq!(w.total_threads(), 256);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_rejected() {
        let _ = HybridWorld::new(0, 4);
    }
}
