//! Execution-path equivalence: the fiber multiplexer must be
//! observationally identical to thread-per-rank.
//!
//! Runs the full collective battery at non-power-of-two world sizes
//! (3, 5, 7, 48 — exercising the algorithm-switch boundaries) under
//! both execution paths, checks every result against a local oracle,
//! and asserts the virtual clocks are **bit-identical** between paths:
//! with `CostModel::deterministic()` the clock is a pure function of
//! the message graph, which scheduling must not perturb.
//!
//! A context whose warm setting is off selects the thread-per-rank path;
//! the default runs every world as fibers. A separate test checks that
//! cancelling a deadlocked thread-per-rank world unwinds it.

use pcg_core::cancel::{self, CancelToken};
use pcg_core::usage::{Context, Event, Settings, UsageScope};
use pcg_mpisim::sched;
use pcg_mpisim::{block_range, CostModel, ReduceOp, World};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every collective once, results folded into a comparable tuple.
#[derive(Debug, PartialEq, Clone)]
struct Battery {
    bcast: Vec<i64>,
    reduce_root: Option<Vec<i64>>,
    allreduce: Vec<i64>,
    scan: i64,
    exscan: i64,
    gather_root: Option<Vec<u32>>,
    allgather: Vec<u32>,
    scatter: Vec<f64>,
    alltoall: Vec<Vec<i64>>,
}

/// A scope whose context runs worlds thread per rank.
fn thread_per_rank() -> UsageScope {
    UsageScope::begin_in(Context::new(Settings { warm: false, ..Settings::default() }))
}

fn run_battery(size: usize) -> (Vec<Battery>, Vec<f64>) {
    let seed: Vec<f64> = (0..size * 3 + 1).map(|i| i as f64 * 0.5).collect();
    let seed_ref = &seed;
    let out = World::new(size)
        .with_cost_model(CostModel::deterministic())
        .run(move |comm| {
            let rank = comm.rank();
            let size = comm.size();
            let bcast_root = size / 2;
            let mut bcast = if rank == bcast_root {
                vec![42i64, 7, -3]
            } else {
                vec![]
            };
            comm.bcast(bcast_root, &mut bcast);
            let reduce_root = comm.reduce(size - 1, &[rank as i64, 1], ReduceOp::Sum);
            let allreduce = comm.allreduce(&[rank as i64, 2], ReduceOp::Max);
            let scan = comm.scan_one(rank as i64 + 1, ReduceOp::Sum);
            let exscan = comm.exscan_one(rank as i64 + 1, ReduceOp::Sum);
            let contrib: Vec<u32> = vec![rank as u32; rank % 3 + 1];
            let gather_root = comm.gather(0, &contrib);
            let allgather = comm.allgather(&contrib);
            let scatter = comm.scatter_blocks(
                0,
                (rank == 0).then_some(seed_ref.as_slice()),
                seed_ref.len(),
            );
            comm.barrier();
            let chunks: Vec<Vec<i64>> =
                (0..size).map(|dst| vec![(rank * 100 + dst) as i64]).collect();
            let alltoall = comm.alltoall(chunks);
            Battery {
                bcast,
                reduce_root,
                allreduce,
                scan,
                exscan,
                gather_root,
                allgather,
                scatter,
                alltoall,
            }
        })
        .unwrap();
    (out.per_rank, out.clocks)
}

fn check_oracle(size: usize, per_rank: &[Battery], seed: &[f64]) {
    let want_gather: Vec<u32> = (0..size)
        .flat_map(|r| std::iter::repeat_n(r as u32, r % 3 + 1))
        .collect();
    for (rank, b) in per_rank.iter().enumerate() {
        assert_eq!(b.bcast, vec![42, 7, -3], "bcast size={size} rank={rank}");
        let sum: i64 = (0..size as i64).sum();
        if rank == size - 1 {
            assert_eq!(b.reduce_root.as_ref().unwrap(), &vec![sum, size as i64]);
        } else {
            assert!(b.reduce_root.is_none());
        }
        assert_eq!(b.allreduce, vec![size as i64 - 1, 2], "allreduce max");
        let want_scan: i64 = (1..=rank as i64 + 1).sum();
        assert_eq!(b.scan, want_scan, "scan size={size} rank={rank}");
        assert_eq!(b.exscan, want_scan - (rank as i64 + 1));
        if rank == 0 {
            assert_eq!(b.gather_root.as_ref().unwrap(), &want_gather);
        } else {
            assert!(b.gather_root.is_none());
        }
        assert_eq!(b.allgather, want_gather);
        assert_eq!(b.scatter, seed[block_range(seed.len(), size, rank)]);
        for (src, chunk) in b.alltoall.iter().enumerate() {
            assert_eq!(chunk, &vec![(src * 100 + rank) as i64], "alltoall");
        }
    }
}

#[test]
fn collectives_identical_across_execution_paths() {
    assert!(
        sched::supported(),
        "this CI target must exercise the multiplexer"
    );
    for size in [3usize, 5, 7, 48] {
        let seed: Vec<f64> = (0..size * 3 + 1).map(|i| i as f64 * 0.5).collect();

        let reference = thread_per_rank();
        let (threads_results, threads_clocks) = run_battery(size);
        drop(reference);

        let scope = UsageScope::begin();
        let (mux_results, mux_clocks) = run_battery(size);
        let usage = scope.finish();

        check_oracle(size, &threads_results, &seed);
        check_oracle(size, &mux_results, &seed);
        assert_eq!(
            threads_results, mux_results,
            "results must not depend on the execution path (size={size})"
        );
        // Bit-identical, not approximately equal: virtual time is pure
        // cost-model arithmetic on the same message graph.
        assert_eq!(
            threads_clocks, mux_clocks,
            "virtual clocks must be bit-identical across paths (size={size})"
        );
        assert_eq!(
            usage.events(Event::RankMultiplexed),
            size as u64,
            "warm run must actually multiplex"
        );
        assert!(
            usage.events(Event::ByteZeroCopied) > 0,
            "collective battery must forward at least some buffers by reference"
        );
    }
}

/// Thread-per-rank has no deadlock detector: a world whose ranks all
/// block on receives the other never sends stays blocked until the
/// cancel token fires, and cancelling it must unwind every rank thread
/// and re-raise the Cancelled marker.
#[test]
fn cancelling_a_deadlocked_thread_per_rank_world_unwinds_it() {
    let reference = thread_per_rank();
    let token = CancelToken::new();
    let guard = cancel::install_token(Some(token.clone()));
    let timer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(50));
        token.cancel();
    });
    let result = catch_unwind(AssertUnwindSafe(|| {
        World::new(2).run(|comm| {
            let _ = comm.recv::<i64>(Some(1 - comm.rank()), 9);
        })
    }));
    let usage = reference.finish();
    timer.join().unwrap();
    drop(guard);
    match result {
        Err(payload) => assert!(
            cancel::is_cancel_payload(payload.as_ref()),
            "cold world must re-unwind with the Cancelled marker"
        ),
        Ok(out) => panic!("deadlocked cold world returned {:?}", out.map(|_| ())),
    }
    assert_eq!(usage.events(Event::RankMultiplexed), 0, "cold world must run thread-per-rank");
}
