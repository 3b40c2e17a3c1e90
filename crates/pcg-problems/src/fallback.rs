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
//! The code these candidates run is the serial baseline, so every wrapper
//! takes the serial run the harness already measured (its output and
//! its best-of-reps seconds `T*`) instead of solving the problem again.
//! Each wrapper still enters its substrate, so the harness's usage check
//! and cancellation see it, and the substrate still models its fork/join,
//! broadcast or launch cost; where the wrapper used to time the solve,
//! it charges the measured `T*`. A serial-code candidate's time is thus
//! a pure function of `T*` and the substrate's modelled overheads.

use crate::framework::TimedRun;
use pcg_core::Output;
use pcg_gpusim::{Gpu, Launch};
use pcg_hybrid::HybridCtx;
use pcg_mpisim::Comm;
use pcg_patterns::ExecSpace;
use pcg_shmem::Pool;
use std::sync::Arc;

/// One-iteration work-sharing loop: the whole problem lands in a single
/// chunk on one thread, so the region costs the full serial time `T*`
/// (plus dispatch and fork/join) no matter how many threads the pool has.
pub fn lopsided_shmem(pool: &Pool, serial: &TimedRun) -> Arc<Output> {
    pool.charge_single_chunk(serial.seconds);
    Arc::clone(&serial.output)
}

/// League-of-one team dispatch: the Kokkos flavor of the same mistake.
pub fn lopsided_patterns(space: &ExecSpace, serial: &TimedRun) -> Arc<Output> {
    space.charge_single_team(serial.seconds);
    Arc::clone(&serial.output)
}

/// "Root computes": rank 0 does everything and broadcasts a result-sized
/// payload; other ranks idle at the broadcast. `T*` lands on rank 0's
/// clock (scaled like measured compute), so simulated time shows no rank
/// scaling at all.
pub fn root_computes_mpi(
    comm: &Comm<'_>,
    result_bytes: usize,
    serial: &TimedRun,
) -> Option<Arc<Output>> {
    let output = (comm.rank() == 0).then(|| {
        comm.charge_compute(serial.seconds);
        Arc::clone(&serial.output)
    });
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
/// one-iteration threaded section (so the thread level is also wasted),
/// then broadcasts as [`root_computes_mpi`] does. A hybrid world measures
/// no rank compute (`compute_scale = 0`), so `T*` is charged once, by the
/// threaded section.
pub fn root_computes_hybrid(
    ctx: &HybridCtx<'_>,
    result_bytes: usize,
    serial: &TimedRun,
) -> Option<Arc<Output>> {
    if ctx.comm().rank() == 0 {
        ctx.par_charge_single(serial.seconds);
    }
    root_computes_mpi(ctx.comm(), result_bytes, serial)
}

/// One-thread kernel launch: records GPU usage via a real (degenerate)
/// launch and charges the device time a single-thread kernel streaming
/// the working set would take; the answer is the serial run's.
pub fn single_thread_gpu(gpu: &Gpu, working_set_bytes: usize, serial: &TimedRun) -> Arc<Output> {
    gpu.launch_each(Launch::new(1, 1), |_, _| {});
    let bytes = (2 * working_set_bytes) as u64;
    gpu.charge_time(gpu.profile().kernel_time(1, bytes, 0, 0));
    Arc::clone(&serial.output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::usage::UsageScope;
    use pcg_core::ExecutionModel;
    use pcg_mpisim::{CostModel, World};

    /// A serial run of `seconds` whose answer is 42.
    fn serial(seconds: f64) -> TimedRun {
        TimedRun { output: Arc::new(Output::F64(42.0)), seconds }
    }

    #[test]
    fn lopsided_shmem_returns_the_serial_output_and_uses_api() {
        let scope = UsageScope::begin();
        let pool = Pool::new(8);
        let run = serial(1e-3);
        let out = lopsided_shmem(&pool, &run);
        assert!(Arc::ptr_eq(&out, &run.output), "the answer is the serial run's, not a copy");
        assert!(scope.finish().used_required_api(ExecutionModel::OpenMp));
    }

    #[test]
    fn lopsided_patterns_returns_answer() {
        let scope = UsageScope::begin();
        let space = ExecSpace::new(4);
        let out = lopsided_patterns(&space, &serial(1e-3));
        assert!(out.approx_eq(&Output::F64(42.0)));
        assert!(scope.finish().used_required_api(ExecutionModel::Kokkos));
    }

    #[test]
    fn root_computes_mpi_only_root_returns() {
        let world = World::new(4).with_cost_model(CostModel::deterministic());
        let outcome = world.run(|comm| root_computes_mpi(comm, 1024, &serial(1e-3))).unwrap();
        assert!(outcome.per_rank[0].as_ref().unwrap().approx_eq(&Output::F64(42.0)));
        assert!(outcome.per_rank[1..].iter().all(Option::is_none));
        assert!(outcome.elapsed > 0.0, "broadcast must cost virtual time");
    }

    #[test]
    fn root_computes_mpi_charges_t_star_to_root_only_when_compute_is_measured() {
        let elapsed = |cost: CostModel| {
            let world = World::new(4).with_cost_model(cost);
            world.run(|comm| root_computes_mpi(comm, 1024, &serial(0.5))).unwrap().elapsed
        };
        // Measured compute on: the root's clock carries the whole T*.
        assert!(elapsed(CostModel::cluster()) >= 0.5);
        // Compute off: only the broadcast is left.
        assert!(elapsed(CostModel::deterministic()) < 0.5);
    }

    #[test]
    fn root_computes_hybrid_charges_t_star_through_the_rank_pool() {
        let scope = UsageScope::begin();
        let world = pcg_hybrid::HybridWorld::new(2, 8);
        let outcome = world.run(|ctx| root_computes_hybrid(ctx, 1024, &serial(0.5))).unwrap();
        assert!(outcome.per_rank[0].is_some() && outcome.per_rank[1].is_none());
        // Charged once: the hybrid world measures no rank compute.
        assert!((0.5..1.0).contains(&outcome.elapsed), "elapsed={}", outcome.elapsed);
        assert!(scope.finish().used_required_api(ExecutionModel::MpiOpenMp));
    }

    #[test]
    fn single_thread_gpu_charges_heavily() {
        let gpu = pcg_gpusim::cuda::device();
        let scope = UsageScope::begin();
        let out = single_thread_gpu(&gpu, 1 << 20, &serial(1e-3));
        assert!(out.approx_eq(&Output::F64(42.0)));
        assert!(scope.finish().used_required_api(ExecutionModel::Cuda));
        // A 1-thread kernel over 2 MiB should be far slower than a
        // saturating launch over the same bytes.
        let fast = gpu.profile().kernel_time(1 << 20, 2 << 20, 0, 0);
        assert!(gpu.elapsed() > fast * 100.0);
    }
}
