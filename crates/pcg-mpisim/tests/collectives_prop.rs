//! Property tests: every collective agrees with a local oracle for
//! arbitrary rank counts, payload lengths, and contents — including the
//! algorithm-switch boundaries (power-of-two vs not).
//!
//! Allreduce is checked bit for bit against a per-rank reference
//! (`common`), since the simulator computes each recursive-doubling
//! combine once per block and hands it to the block's other ranks. These
//! run on the fiber path; `collectives_threads.rs` repeats the
//! equivalence checks on the thread-per-rank path.

mod common;

use common::{check_allreduce, equivalence_battery};
use pcg_core::PcgError;
use pcg_mpisim::{block_range, CostModel, ReduceOp, World};
use proptest::prelude::*;

fn det_world(size: usize) -> World {
    World::new(size).with_cost_model(CostModel::deterministic())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bcast_delivers_root_data(
        size in 1usize..12,
        root_pick in 0usize..12,
        data in proptest::collection::vec(-1000i64..1000, 0..40),
    ) {
        let root = root_pick % size;
        let data_ref = &data;
        let out = det_world(size)
            .run(move |comm| {
                let mut buf = if comm.rank() == root { data_ref.clone() } else { vec![] };
                comm.bcast(root, &mut buf);
                buf
            })
            .unwrap();
        for r in out.per_rank {
            prop_assert_eq!(&r, data_ref);
        }
    }

    #[test]
    fn allreduce_matches_oracle(
        size in 1usize..12,
        len in 1usize..20,
        seed in 0u64..500,
    ) {
        // Deterministic per-rank payloads derived from (rank, index).
        let val = move |rank: usize, i: usize| {
            ((seed as i64 + rank as i64 * 31 + i as i64 * 7) % 23) - 11
        };
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let out = det_world(size)
                .run(move |comm| {
                    let local: Vec<i64> = (0..len).map(|i| val(comm.rank(), i)).collect();
                    comm.allreduce(&local, op)
                })
                .unwrap();
            let oracle: Vec<i64> = (0..len)
                .map(|i| {
                    let mut acc = val(0, i);
                    for r in 1..size {
                        acc = match op {
                            ReduceOp::Sum => acc + val(r, i),
                            ReduceOp::Min => acc.min(val(r, i)),
                            ReduceOp::Max => acc.max(val(r, i)),
                            ReduceOp::Prod => unreachable!(),
                        };
                    }
                    acc
                })
                .collect();
            for r in &out.per_rank {
                prop_assert_eq!(r, &oracle);
            }
        }
    }

    #[test]
    fn scan_and_exscan_match_oracle(size in 1usize..12, seed in 0u64..500) {
        let val = move |rank: usize| ((seed as i64 + rank as i64 * 13) % 17) - 8;
        let out = det_world(size)
            .run(move |comm| {
                (
                    comm.scan_one(val(comm.rank()), ReduceOp::Sum),
                    comm.exscan_one(val(comm.rank()), ReduceOp::Sum),
                )
            })
            .unwrap();
        let mut running = 0i64;
        for (rank, (inc, exc)) in out.per_rank.iter().enumerate() {
            prop_assert_eq!(*exc, running, "exscan at rank {}", rank);
            running += val(rank);
            prop_assert_eq!(*inc, running, "scan at rank {}", rank);
        }
    }

    #[test]
    fn scatter_gather_roundtrip(
        size in 1usize..10,
        data in proptest::collection::vec(-100f64..100.0, 1..80),
    ) {
        let data_ref = &data;
        let n = data.len();
        let out = det_world(size)
            .run(move |comm| {
                let local = comm.scatter_blocks(
                    0,
                    (comm.rank() == 0).then_some(data_ref.as_slice()),
                    n,
                );
                // The local block must be exactly this rank's range.
                let rg = block_range(n, comm.size(), comm.rank());
                assert_eq!(local, data_ref[rg]);
                comm.gather(0, &local)
            })
            .unwrap();
        prop_assert_eq!(out.per_rank[0].as_ref().unwrap(), data_ref);
    }

    #[test]
    fn allgather_matches_concatenation(size in 1usize..10, len in 0usize..10) {
        let out = det_world(size)
            .run(move |comm| {
                let local: Vec<u32> = (0..len).map(|i| (comm.rank() * 100 + i) as u32).collect();
                comm.allgather(&local)
            })
            .unwrap();
        let want: Vec<u32> = (0..size)
            .flat_map(|r| (0..len).map(move |i| (r * 100 + i) as u32))
            .collect();
        for r in out.per_rank {
            prop_assert_eq!(&r, &want);
        }
    }

    #[test]
    fn alltoall_is_a_transpose(size in 1usize..9) {
        let out = det_world(size)
            .run(move |comm| {
                let chunks: Vec<Vec<i64>> = (0..comm.size())
                    .map(|dst| vec![(comm.rank() * 100 + dst) as i64])
                    .collect();
                comm.alltoall(chunks)
            })
            .unwrap();
        for (dst, got) in out.per_rank.iter().enumerate() {
            for (src, chunk) in got.iter().enumerate() {
                prop_assert_eq!(chunk.clone(), vec![(src * 100 + dst) as i64]);
            }
        }
    }

    #[test]
    fn virtual_elapsed_is_deterministic(size in 2usize..10) {
        let run = || {
            det_world(size)
                .run(|comm| comm.allreduce_one(1.0f64, ReduceOp::Sum))
                .unwrap()
                .elapsed
        };
        // With compute_scale = 0 the virtual clock is exactly repeatable.
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn allreduce_is_bit_identical_to_the_per_rank_reference(
        len in 0usize..24,
        seed in 0u64..u64::MAX,
    ) {
        equivalence_battery(len, seed);
    }
}

#[test]
fn mixed_ops_get_their_own_results_in_a_fixed_case() {
    // Rank 1 breaks its pair's op. In round 0, ranks 0 and 1 combine the
    // same two buffers under different ops: reusing an entry regardless
    // of op would hand one of them the other's result. In round 1, ranks
    // 0 and 2 share a Sum combine while rank 3 pairs Sum with rank 1's
    // Max buffer: reusing the entry by op alone would hand rank 3 the
    // wrong sum.
    use ReduceOp::{Max, Sum};
    for size in [4, 8, 16] {
        let mut ops = vec![Sum; size];
        ops[1] = Max;
        check_allreduce::<i64>(size, 5, 7, &ops);
        check_allreduce::<u32>(size, 5, 7, &ops);
    }
}

#[test]
fn allreduce_length_mismatch_aborts_the_world() {
    for size in [2, 8, 64] {
        let err = det_world(size)
            .run(|comm| {
                let len = if comm.rank() == size - 1 { 5 } else { 4 };
                comm.allreduce(&vec![1i64; len], ReduceOp::Sum)
            })
            .unwrap_err();
        match err {
            PcgError::Runtime(msg) => {
                assert!(msg.contains("allreduce length mismatch"), "size {size}: {msg}")
            }
            other => panic!("size {size}: unexpected {other:?}"),
        }
    }
}

/// Each rank's clock after one allreduce, minus its clock before it, for
/// `f` building rank `r`'s input.
fn allreduce_seconds<T: pcg_mpisim::Elem>(
    size: usize,
    cost: CostModel,
    op: ReduceOp,
    f: impl Fn(usize) -> Vec<T> + Sync,
) -> Vec<f64> {
    World::new(size)
        .with_cost_model(cost)
        .run(|comm| {
            let local = f(comm.rank());
            comm.barrier();
            let t0 = comm.clock();
            let out = comm.allreduce(&local, op);
            let t1 = comm.clock();
            drop(out);
            t1 - t0
        })
        .unwrap()
        .per_rank
}

#[test]
fn every_rank_is_charged_compute_for_a_shared_combine() {
    // A 64-rank world all-reducing 4096 `i64`: most ranks take their
    // block's combine from the rank that computed it, and each must still
    // be charged compute for it.
    let input = |r: usize| vec![r as i64; 4096];
    let measured = World::new(64)
        .run(|comm| {
            let _ = comm.allreduce(&input(comm.rank()), ReduceOp::Sum);
            comm.clock()
        })
        .unwrap()
        .per_rank;
    let modeled = det_world(64)
        .run(|comm| {
            let _ = comm.allreduce(&input(comm.rank()), ReduceOp::Sum);
            comm.clock()
        })
        .unwrap()
        .per_rank;
    for (rank, (m, d)) in measured.iter().zip(&modeled).enumerate() {
        assert!(m > d, "rank {rank}: measured clock {m} is not above the modeled-only {d}");
    }

    // Waiting on a partner hands every rank the combines of earlier
    // rounds anyway, so isolate one round: in a 2-rank world one rank
    // combines and the other takes the result. The taker must be charged
    // about what the combiner paid (the combiner also pays for its copy
    // of the result), not just its own input copy. `Prod` on `i64` makes
    // the combine the largest cost of the round.
    let input = |r: usize| (0..4096).map(|i| (r * 4096 + i) as i64 | 1).collect::<Vec<i64>>();
    let modeled = allreduce_seconds(2, CostModel::deterministic(), ReduceOp::Prod, input);
    let mut ratios: Vec<f64> = (0..9)
        .map(|_| {
            let measured = allreduce_seconds(2, CostModel::cluster(), ReduceOp::Prod, input);
            let excess: Vec<f64> = measured.iter().zip(&modeled).map(|(m, d)| m - d).collect();
            excess[0].min(excess[1]) / excess[0].max(excess[1])
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    assert!(
        median > 0.5,
        "the rank taking a shared combine was charged {median:.2} of what the combining rank paid \
         (ratios {ratios:?})"
    );
}
