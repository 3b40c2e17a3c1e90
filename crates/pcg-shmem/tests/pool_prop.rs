//! Property tests: work-sharing results are schedule- and
//! thread-count-independent and match serial oracles.

use pcg_shmem::{Pool, Schedule, UnsafeSlice};
use proptest::prelude::*;

fn schedules() -> Vec<Schedule> {
    vec![
        Schedule::Static { chunk: 0 },
        Schedule::Static { chunk: 3 },
        Schedule::Dynamic { chunk: 5 },
        Schedule::Guided { min_chunk: 2 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_for_writes_each_index_once(
        n in 0usize..2000,
        threads in 1usize..9,
    ) {
        let pool = Pool::new(threads);
        for sched in schedules() {
            let mut hits = vec![0u8; n];
            {
                let slice = UnsafeSlice::new(&mut hits);
                pool.parallel_for(0..n, sched, |i| unsafe {
                    slice.write(i, slice.read(i) + 1);
                });
            }
            prop_assert!(hits.iter().all(|&h| h == 1), "{sched:?} n={n} threads={threads}");
        }
    }

    #[test]
    fn reduce_matches_serial_for_any_shape(
        data in proptest::collection::vec(-100i64..100, 0..1500),
        threads in 1usize..9,
    ) {
        let pool = Pool::new(threads);
        let want: i64 = data.iter().sum();
        let got = pool.parallel_for_reduce(0..data.len(), 0i64, |a, i| a + data[i], |a, b| a + b);
        prop_assert_eq!(got, want);

        let want_max = data.iter().copied().max().unwrap_or(i64::MIN);
        let got_max =
            pool.parallel_for_reduce(0..data.len(), i64::MIN, |a, i| a.max(data[i]), i64::max);
        prop_assert_eq!(got_max, want_max);
    }

    #[test]
    fn chunks_mut_partitions_exactly(
        n in 0usize..2000,
        threads in 1usize..9,
    ) {
        let pool = Pool::new(threads);
        let mut data = vec![usize::MAX; n];
        pool.parallel_chunks_mut(&mut data, |_tid, start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        prop_assert!(data.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn reduce_matches_a_static_block_oracle_bit_for_bit(
        data in proptest::collection::vec(-10f64..10.0, 1..800),
        threads in 1usize..7,
    ) {
        let pool = Pool::new(threads);
        let got = pool.parallel_for_reduce(0..data.len(), 0.0f64, |a, i| a + data[i], |a, b| a + b);
        // What a real team computes: each member folds its static block
        // in order, then the partials combine in member order.
        let per = data.len().div_ceil(threads);
        let want = data
            .chunks(per)
            .map(|block| block.iter().fold(0.0f64, |a, x| a + x))
            .fold(0.0f64, |a, p| a + p);
        prop_assert_eq!(got.to_bits(), want.to_bits());
        prop_assert!(pool.virtual_elapsed() > 0.0);
    }

    #[test]
    fn virtual_time_accumulates_monotonically(regions in 1usize..6) {
        let pool = Pool::new(4);
        let mut last = 0.0;
        for _ in 0..regions {
            pool.parallel_for(0..500, Schedule::Static { chunk: 0 }, |i| {
                std::hint::black_box(i * i);
            });
            let now = pool.virtual_elapsed();
            prop_assert!(now > last);
            last = now;
        }
    }
}
