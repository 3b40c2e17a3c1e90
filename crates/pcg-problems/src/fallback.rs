//! Generic "correct but inefficient" candidate wrappers.
//!
//! These reproduce the classic failure modes of LLM-generated parallel
//! code that *runs and validates* but wastes the parallel resources —
//! the behavior the paper's `speedup_n@k` / `efficiency_n@k` metrics are
//! designed to expose:
//!
//! * shared memory: a parallel region in which one thread does all the
//!   work (`lopsided_*`),
//! * MPI: "root computes": rank 0 runs the whole problem serially and
//!   broadcasts the result (`root_computes_*`),
//! * GPU: a one-thread kernel launch (`single_thread_gpu`).
//!
//! All wrappers genuinely exercise the substrate API (so they pass the
//! harness's usage check) and genuinely account realistic virtual time
//! for their degenerate schedules.

use parking_lot::Mutex;
use pcg_core::Output;
use pcg_gpusim::{Gpu, Launch};
use pcg_hybrid::HybridCtx;
use pcg_mpisim::Comm;
use pcg_patterns::ExecSpace;
use pcg_shmem::{Pool, Schedule};

/// One-iteration work-sharing loop: the whole problem lands in a single
/// chunk on one thread, so the modeled region time is the full serial
/// work no matter how many threads the pool has.
pub fn lopsided_shmem(pool: &Pool, serial: impl Fn() -> Output + Sync) -> Output {
    let slot: Mutex<Option<Output>> = Mutex::new(None);
    pool.parallel_for(0..1, Schedule::Static { chunk: 0 }, |_| {
        *slot.lock() = Some(serial());
    });
    slot.into_inner().expect("loop body ran")
}

/// League-of-one team dispatch: the Kokkos flavor of the same mistake.
pub fn lopsided_patterns(space: &ExecSpace, serial: impl Fn() -> Output + Sync) -> Output {
    let slot: Mutex<Option<Output>> = Mutex::new(None);
    space.parallel_for_teams(1, |_team| {
        *slot.lock() = Some(serial());
    });
    slot.into_inner().expect("team body ran")
}

/// "Root computes": rank 0 does everything and broadcasts a result-sized
/// payload; other ranks idle at the broadcast. Compute lands on rank 0's
/// clock (measured), so simulated time shows no rank scaling at all.
pub fn root_computes_mpi(
    comm: &Comm<'_>,
    result_bytes: usize,
    serial: impl Fn() -> Output,
) -> Option<Output> {
    let output = (comm.rank() == 0).then(&serial);
    // Broadcast a payload standing in for the serialized result, so the
    // collective cost is realistic for the data volume.
    let mut payload = if comm.rank() == 0 {
        vec![0.0f64; result_bytes.div_ceil(8)]
    } else {
        Vec::new()
    };
    comm.bcast(0, &mut payload);
    output
}

/// Hybrid flavor of root-computes: rank 0 runs the problem inside a
/// one-iteration threaded loop (so the thread level is also wasted).
pub fn root_computes_hybrid(
    ctx: &HybridCtx<'_>,
    result_bytes: usize,
    serial: impl Fn() -> Output + Sync,
) -> Option<Output> {
    let comm = ctx.comm();
    let slot: Mutex<Option<Output>> = Mutex::new(None);
    if comm.rank() == 0 {
        ctx.par_for(0..1, |_| {
            *slot.lock() = Some(serial());
        });
    }
    let mut payload = if comm.rank() == 0 {
        vec![0.0f64; result_bytes.div_ceil(8)]
    } else {
        Vec::new()
    };
    comm.bcast(0, &mut payload);
    slot.into_inner()
}

/// One-thread kernel launch: records GPU usage via a real (degenerate)
/// launch, computes the answer host-side, and charges the device time a
/// single-thread kernel streaming the working set would take.
pub fn single_thread_gpu(gpu: &Gpu, working_set_bytes: usize, serial: impl Fn() -> Output) -> Output {
    gpu.launch_each(Launch::new(1, 1), |_, _| {});
    let bytes = (2 * working_set_bytes) as u64;
    gpu.charge_time(gpu.profile().kernel_time(1, bytes, 0, 0));
    serial()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::usage::UsageScope;
    use pcg_core::ExecutionModel;
    use pcg_mpisim::{CostModel, World};

    fn answer() -> Output {
        Output::F64(42.0)
    }

    #[test]
    fn lopsided_shmem_returns_answer_and_uses_api() {
        let scope = UsageScope::begin();
        let pool = Pool::new(8);
        let out = lopsided_shmem(&pool, answer);
        assert!(out.approx_eq(&answer()));
        assert!(pool.virtual_elapsed() > 0.0);
        assert!(scope.finish().used_required_api(ExecutionModel::OpenMp));
    }

    #[test]
    fn lopsided_shmem_time_does_not_shrink_with_threads() {
        let slow = || {
            let mut acc = 0u64;
            for i in 0..200_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            Output::I64(acc as i64)
        };
        let t = |threads: usize| {
            let pool = Pool::new(threads);
            lopsided_shmem(&pool, slow);
            pool.virtual_elapsed()
        };
        let t1 = (0..3).map(|_| t(1)).fold(f64::MAX, f64::min);
        let t16 = (0..3).map(|_| t(16)).fold(f64::MAX, f64::min);
        assert!(t16 > t1 * 0.3, "t1={t1} t16={t16}");
    }

    #[test]
    fn lopsided_patterns_returns_answer() {
        let scope = UsageScope::begin();
        let space = ExecSpace::new(4);
        let out = lopsided_patterns(&space, answer);
        assert!(out.approx_eq(&answer()));
        assert!(scope.finish().used_required_api(ExecutionModel::Kokkos));
    }

    #[test]
    fn root_computes_mpi_only_root_returns() {
        let world = World::new(4).with_cost_model(CostModel::deterministic());
        let outcome = world.run(|comm| root_computes_mpi(comm, 1024, answer)).unwrap();
        assert!(outcome.per_rank[0].as_ref().unwrap().approx_eq(&answer()));
        assert!(outcome.per_rank[1..].iter().all(Option::is_none));
        assert!(outcome.elapsed > 0.0, "broadcast must cost virtual time");
    }

    #[test]
    fn single_thread_gpu_charges_heavily() {
        let gpu = pcg_gpusim::cuda::device();
        let scope = UsageScope::begin();
        let out = single_thread_gpu(&gpu, 1 << 20, answer);
        assert!(out.approx_eq(&answer()));
        assert!(scope.finish().used_required_api(ExecutionModel::Cuda));
        // A 1-thread kernel over 2 MiB should be far slower than a
        // saturating launch over the same bytes.
        let fast = gpu.profile().kernel_time(1 << 20, 2 << 20, 0, 0);
        assert!(gpu.elapsed() > fast * 100.0);
    }
}
