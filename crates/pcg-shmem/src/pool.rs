//! The modelled fork-join team.
//!
//! A [`Pool`] of `n` members owns no threads. Each work-sharing region
//! runs every loop chunk on the caller, one after another, and wall-times
//! it into its member's virtual clock (see [`crate::timing`]); the region
//! then charges its critical path plus fork/join to the pool's clock.
//! Results are those of a real `n`-thread team with the same schedule:
//! the chunking depends only on the schedule and `n`, and reductions
//! combine their partials in member order.

use crate::schedule::{LoopState, Schedule};
use crate::timing::{self, ThreadCostModel, TimedState};
use pcg_core::{cancel, usage, ExecutionModel};
use std::ops::Range;

/// An OpenMP-style team of `n` members supporting work-sharing loops,
/// with a virtual clock that models the team's elapsed time.
pub struct Pool {
    nthreads: usize,
    timed: TimedState,
}

impl Pool {
    /// Create a team of `nthreads` members, all run on the calling
    /// thread. Static chunks go to their fixed member; dynamic and guided
    /// chunks go to the member with the smallest virtual clock. Each
    /// region adds `max-member-work + fork/join overhead` to the pool's
    /// virtual clock. Panics if `nthreads == 0`.
    pub fn new(nthreads: usize) -> Pool {
        assert!(nthreads > 0, "pool requires at least one thread");
        Pool { nthreads, timed: TimedState::new(ThreadCostModel::default()) }
    }

    /// Accumulated virtual time of all regions.
    pub fn virtual_elapsed(&self) -> f64 {
        self.timed.clock.load()
    }

    /// Reset the virtual clock.
    pub fn reset_virtual_clock(&self) {
        self.timed.clock.store(0.0);
    }

    /// Shared work-sharing driver: distributes `range` per `schedule`,
    /// runs `chunk_fn(tid, chunk)` for every chunk on the caller and
    /// times each one.
    fn worksharing(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        mut chunk_fn: impl FnMut(usize, Range<usize>),
    ) {
        let mut state = LoopState::new(range.start, range.end, schedule, self.nthreads);
        self.enter_region();
        let clocks = timing::run_chunks(&mut state, |tid, chunk| {
            self.timed.time_chunk(|| chunk_fn(tid, chunk))
        });
        self.timed.charge_region(&clocks);
    }

    /// Region entry, exactly once per region: record the OpenMP usage,
    /// refuse to fork for a killed candidate, and charge fork/join.
    fn enter_region(&self) {
        usage::record(ExecutionModel::OpenMp);
        cancel::check_current();
        self.timed.clock.fetch_add(self.timed.model.fork_join(self.nthreads));
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Work-sharing loop (`#pragma omp parallel for schedule(...)`):
    /// `body(i)` runs once for each `i` in `range`.
    pub fn parallel_for<F>(&self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(usize) + Sync,
    {
        usage::record(ExecutionModel::OpenMp);
        self.worksharing(range, schedule, |_tid, chunk| chunk.for_each(&body));
    }

    /// Chunk-granular work-sharing loop: `body(lo..hi)` per chunk. Useful
    /// when the body can vectorize over a contiguous block.
    pub fn parallel_for_chunks<F>(&self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        usage::record(ExecutionModel::OpenMp);
        self.worksharing(range, schedule, |_tid, chunk| body(chunk));
    }

    /// Reduction loop (`reduction(op: acc)`): every member folds its
    /// static block into a private accumulator seeded with `identity`,
    /// and the partials are combined in member order (deterministic for
    /// a fixed team size).
    pub fn parallel_for_reduce<T, FM, FR>(
        &self,
        range: Range<usize>,
        identity: T,
        fold: FM,
        combine: FR,
    ) -> T
    where
        T: Clone + Send + Sync,
        FM: Fn(T, usize) -> T + Sync,
        FR: Fn(T, T) -> T + Sync,
    {
        usage::record(ExecutionModel::OpenMp);
        let mut partials: Vec<Option<T>> = vec![None; self.nthreads];
        self.worksharing(range, Schedule::Static { chunk: 0 }, |tid, chunk| {
            let acc = partials[tid].take().unwrap_or_else(|| identity.clone());
            partials[tid] = Some(chunk.fold(acc, &fold));
        });
        partials.into_iter().flatten().fold(identity, combine)
    }

    /// A one-iteration work-sharing loop whose body was already measured
    /// elsewhere: member 0 is charged `seconds` for the single chunk and
    /// the rest of the team idles, so the region costs `seconds +
    /// chunk_dispatch + fork_join(n)` on the pool's clock. It records
    /// usage and checks cancellation like every region, and runs nothing.
    pub fn charge_single_chunk(&self, seconds: f64) {
        self.enter_region();
        self.timed.charge_region(&[self.timed.charge_chunk(seconds)]);
    }

    /// Split `data` into one contiguous mutable chunk per member and run
    /// `body(tid, chunk_start, chunk)` — the safe idiom for loops that
    /// fill an output array with static scheduling.
    pub fn parallel_chunks_mut<T, F>(&self, data: &mut [T], body: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        usage::record(ExecutionModel::OpenMp);
        let per = data.len().div_ceil(self.nthreads).max(1);
        self.enter_region();
        let clocks: Vec<f64> = data
            .chunks_mut(per)
            .enumerate()
            .map(|(tid, chunk)| self.timed.time_chunk(|| body(tid, tid * per, chunk)))
            .collect();
        self.timed.charge_region(&clocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::cancel::CancelToken;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn single_thread_pool_works() {
        let pool = Pool::new(1);
        let mut touched = vec![false; 100];
        let cell = crate::UnsafeSlice::new(&mut touched);
        pool.parallel_for(0..100, Schedule::default(), |i| unsafe { cell.write(i, true) });
        assert!(touched.iter().all(|&b| b));
    }

    #[test]
    fn parallel_for_visits_each_index_once() {
        let pool = Pool::new(4);
        for sched in [
            Schedule::Static { chunk: 0 },
            Schedule::Static { chunk: 3 },
            Schedule::Dynamic { chunk: 5 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let counts: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
            pool.parallel_for(0..1000, sched, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1), "{sched:?}");
        }
    }

    #[test]
    fn reduce_matches_sequential() {
        let pool = Pool::new(8);
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let got = pool.parallel_for_reduce(0..xs.len(), 0.0, |a, i| a + xs[i], |a, b| a + b);
        let want: f64 = xs.iter().sum();
        assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
    }

    #[test]
    fn reduce_empty_range_is_identity() {
        let pool = Pool::new(4);
        let got = pool.parallel_for_reduce(10..10, 7i64, |a, _| a + 1, |a, b| a + b);
        // No chunks are dispatched for an empty range, so no member
        // contributes a partial and the seed comes back unchanged.
        assert_eq!(got, 7);
    }

    #[test]
    fn chunks_mut_covers_slice() {
        let pool = Pool::new(4);
        let mut data = vec![0usize; 103];
        pool.parallel_chunks_mut(&mut data, |_tid, start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        assert_eq!(data, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn loop_body_panic_propagates() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(0..4, Schedule::default(), |i| {
                if i == 2 {
                    panic!("boom from member 2");
                }
            });
        }));
        assert!(result.is_err());
        // Pool remains usable after a panic.
        let hits = AtomicU64::new(0);
        pool.parallel_for(0..4, Schedule::default(), |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        let sum = pool.parallel_for_reduce(0..100, 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(sum, 4950);
    }

    #[test]
    fn sequential_regions_reuse_team() {
        let pool = Pool::new(4);
        for round in 0..50 {
            let sum = pool.parallel_for_reduce(0..100, 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, 4950, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    fn pool_is_correct_and_charges_time() {
        let pool = Pool::new(4);
        let xs: Vec<f64> = (0..40_000).map(|i| i as f64).collect();
        let sum = pool.parallel_for_reduce(0..xs.len(), 0.0, |a, i| a + xs[i], |a, b| a + b);
        assert_eq!(sum, (40_000.0f64 * 39_999.0) / 2.0);
        assert!(pool.virtual_elapsed() > 0.0);
        pool.reset_virtual_clock();
        assert_eq!(pool.virtual_elapsed(), 0.0);
    }

    #[test]
    fn every_entry_point_records_usage_in_the_callers_scope() {
        let scope = pcg_core::usage::UsageScope::begin();
        let pool = Pool::new(4);
        pool.parallel_for(0..8, Schedule::default(), |_| {});
        pool.parallel_for_chunks(0..8, Schedule::Dynamic { chunk: 2 }, |_| {});
        pool.parallel_for_reduce(0..8, 0, |a, i| a + i, |a, b| a + b);
        pool.parallel_chunks_mut(&mut [0u8; 8], |_, _, _| {});
        // Each call records once itself and once on region entry.
        assert_eq!(scope.finish().calls(ExecutionModel::OpenMp), 8);
    }

    #[test]
    fn modelled_time_reflects_imbalance() {
        // All the work lands on one member (range 0..1): the modelled
        // region time must be close to the full serial work, i.e. more
        // members cannot shrink a single chunk.
        let work = |pool: &Pool| {
            pool.reset_virtual_clock();
            pool.parallel_for(0..1, Schedule::Static { chunk: 0 }, |_| {
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_add(std::hint::black_box(i * i));
                }
                std::hint::black_box(acc);
            });
            pool.virtual_elapsed()
        };
        let t1 = work(&Pool::new(1));
        let t8 = work(&Pool::new(8));
        // The single chunk dominates both; allow wide noise margins but
        // reject any model that divides the chunk across members.
        assert!(t8 > t1 * 0.2, "t1={t1} t8={t8}");
    }

    #[test]
    fn modelled_time_scales_for_balanced_work() {
        // Balanced loops split across members: modelled time with 8
        // members should be well under the 1-member time.
        let work = |pool: &Pool| {
            pool.reset_virtual_clock();
            let n = 400_000;
            pool.parallel_for(0..n, Schedule::Static { chunk: 0 }, |i| {
                std::hint::black_box(i * i);
            });
            pool.virtual_elapsed()
        };
        let (p1, p8) = (Pool::new(1), Pool::new(8));
        // Warm up and take the best of 3 to reduce timing noise.
        let t1 = (0..3).map(|_| work(&p1)).fold(f64::MAX, f64::min);
        let t8 = (0..3).map(|_| work(&p8)).fold(f64::MAX, f64::min);
        assert!(t8 < t1 * 0.7, "expected modelled speedup, t1={t1} t8={t8}");
    }

    #[test]
    fn a_charged_single_chunk_costs_exactly_its_seconds_plus_overheads() {
        let model = ThreadCostModel::default();
        for n in [1, 16] {
            let scope = pcg_core::usage::UsageScope::begin();
            let pool = Pool::new(n);
            pool.charge_single_chunk(0.25);
            let want = 0.25 + model.chunk_dispatch + model.fork_join(n);
            assert!((pool.virtual_elapsed() - want).abs() < 1e-12, "n={n}");
            assert!(scope.finish().used_required_api(ExecutionModel::OpenMp));
        }
        // A killed candidate cannot enter the region.
        let token = CancelToken::new();
        token.cancel();
        let _g = cancel::install_token(Some(token));
        let result = catch_unwind(AssertUnwindSafe(|| Pool::new(4).charge_single_chunk(1.0)));
        assert!(cancel::is_cancel_payload(result.unwrap_err().as_ref()));
    }

    #[test]
    fn cancelled_worksharing_loop_unwinds_between_chunks() {
        // A candidate stuck in an effectively endless dynamic loop: once
        // the token fires, the loop must unwind at its next chunk
        // boundary with the Cancelled marker.
        let pool = Pool::new(4);
        let token = CancelToken::new();
        let _g = cancel::install_token(Some(token.clone()));
        let started = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(0..1_000_000_000, Schedule::Dynamic { chunk: 1 }, |_| {
                if !started.swap(true, Ordering::Relaxed) {
                    token.cancel();
                }
            });
        }));
        let payload = result.unwrap_err();
        assert!(cancel::is_cancel_payload(payload.as_ref()));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pool_spawns_no_threads() {
        let tasks = || std::fs::read_dir("/proc/self/task").unwrap().count();
        // The test harness starts and ends test threads concurrently, so
        // retry until a quiet window shows an unchanged count.
        let unchanged = (0..50).any(|_| {
            let before = tasks();
            let pool = Pool::new(64);
            pool.parallel_for(0..1000, Schedule::Dynamic { chunk: 7 }, |i| {
                std::hint::black_box(i);
            });
            before == tasks()
        });
        assert!(unchanged, "building and running a 64-member pool changed the thread count");
    }
}
