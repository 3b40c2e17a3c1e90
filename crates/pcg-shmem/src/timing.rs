//! Virtual-time accounting for work-sharing loops.
//!
//! A [`crate::Pool`] created with [`crate::Pool::new_timed`] owns no
//! worker threads. Each work-sharing region runs every chunk on the
//! calling thread, one after another, and wall-times it. Because only
//! one chunk runs at a time, the measurement reflects the chunk's true
//! work even on a single-core host (no oversubscription stalls are
//! charged). Each team member keeps a virtual clock, charged per chunk
//! with the chunk's wall time plus `chunk_dispatch`. Static chunks go to
//! their fixed member; a dynamic or guided chunk goes to the member with
//! the smallest virtual clock (lowest id on ties), so which member runs
//! which chunk depends only on measured chunk times, never on the OS
//! scheduler. Each region then contributes
//!
//! ```text
//! region_time = max over members of (sum of chunk times + dispatch)
//!             + fork_join(n)
//! ```
//!
//! to the pool's virtual clock — the standard critical-path model of a
//! fork-join loop. Imbalance (one member got more measured work), serial
//! fractions, and per-chunk dispatch overheads all degrade the modeled
//! scaling exactly as they do on real hardware.

use crate::atomicf64::AtomicF64;
use crate::schedule::{LoopState, Schedule, StaticCursor};
use pcg_core::cancel;
use std::ops::Range;
use std::time::Instant;

/// Overhead parameters of the fork-join model.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCostModel {
    /// Fixed cost of forking/joining a region, seconds.
    pub fork_join_base: f64,
    /// Additional fork/join cost per log2(team size), seconds.
    pub fork_join_per_level: f64,
    /// Cost charged per dispatched chunk (scheduler bookkeeping), seconds.
    pub chunk_dispatch: f64,
}

impl Default for ThreadCostModel {
    fn default() -> ThreadCostModel {
        // Calibrated to typical OpenMP runtime overheads on a
        // server-class x86 core (EPYC 7763-like): ~1-2 us per region.
        ThreadCostModel {
            fork_join_base: 1.2e-6,
            fork_join_per_level: 0.4e-6,
            chunk_dispatch: 1.5e-7,
        }
    }
}

impl ThreadCostModel {
    /// Fork/join overhead for a team of `n`.
    pub fn fork_join(&self, n: usize) -> f64 {
        self.fork_join_base + self.fork_join_per_level * (n.max(1) as f64).log2()
    }
}

/// Per-pool timed-mode state.
pub(crate) struct TimedState {
    pub model: ThreadCostModel,
    /// Accumulated virtual time across regions.
    pub clock: AtomicF64,
}

impl TimedState {
    pub fn new(model: ThreadCostModel) -> TimedState {
        TimedState { model, clock: AtomicF64::new(0.0) }
    }

    /// Run one chunk on the caller, after a cancellation check at the
    /// chunk boundary, and return its cost: wall time plus dispatch.
    pub fn time_chunk(&self, chunk: impl FnOnce()) -> f64 {
        cancel::check_current();
        let t0 = Instant::now();
        chunk();
        t0.elapsed().as_secs_f64() + self.model.chunk_dispatch
    }

    /// Fold one region's per-member work vector into the clock (the
    /// fork/join overhead itself is charged on region entry, which every
    /// region passes through exactly once).
    pub fn charge_region(&self, per_thread: &[f64]) {
        let critical_path = per_thread.iter().copied().fold(0.0f64, f64::max);
        self.clock.fetch_add(critical_path);
    }
}

/// Run every chunk of a timed loop on the caller, one after another, and
/// return each member's virtual clock: the sum of `cost(tid, chunk)`
/// over the chunks it was assigned.
pub(crate) fn run_chunks(
    state: &LoopState,
    mut cost: impl FnMut(usize, Range<usize>) -> f64,
) -> Vec<f64> {
    let mut clocks = vec![0.0f64; state.nthreads];
    if let Schedule::Static { .. } = state.schedule {
        for (tid, clock) in clocks.iter_mut().enumerate() {
            let mut cursor = StaticCursor::default();
            while let Some((lo, hi)) = state.next_chunk(tid, &mut cursor) {
                *clock += cost(tid, lo..hi);
            }
        }
    } else {
        loop {
            let tid = least_loaded(&clocks);
            let Some((lo, hi)) = state.next_chunk(tid, &mut StaticCursor::default()) else {
                break;
            };
            clocks[tid] += cost(tid, lo..hi);
        }
    }
    clocks
}

/// The member that takes the next dynamic or guided chunk: the one with
/// the smallest virtual clock, lowest id on ties — the member a real
/// team would find idle first.
fn least_loaded(clocks: &[f64]) -> usize {
    (1..clocks.len()).fold(0, |best, tid| if clocks[tid] < clocks[best] { tid } else { best })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_join_grows_with_team() {
        let m = ThreadCostModel::default();
        assert!(m.fork_join(32) > m.fork_join(2));
        assert!(m.fork_join(1) >= m.fork_join_base);
    }

    #[test]
    fn charge_uses_critical_path() {
        let st = TimedState::new(ThreadCostModel {
            fork_join_base: 0.0,
            fork_join_per_level: 0.0,
            chunk_dispatch: 0.0,
        });
        st.charge_region(&[1.0, 3.0, 2.0]);
        assert_eq!(st.clock.load(), 3.0);
        st.charge_region(&[0.5]);
        assert_eq!(st.clock.load(), 3.5);
    }

    /// Synthetic chunk cost: proportional to the chunk length, plus a
    /// fixed per-chunk term, so the tests never depend on wall time.
    fn synthetic(_tid: usize, chunk: Range<usize>) -> f64 {
        chunk.len() as f64 + 0.5
    }

    fn assignment(schedule: Schedule, n: usize, threads: usize) -> (Vec<usize>, Vec<f64>) {
        let state = LoopState::new(0, n, schedule, threads);
        let mut tids = Vec::new();
        let clocks = run_chunks(&state, |tid, chunk| {
            tids.push(tid);
            synthetic(tid, chunk)
        });
        (tids, clocks)
    }

    #[test]
    fn least_loaded_picks_smallest_clock_lowest_tid_on_ties() {
        assert_eq!(least_loaded(&[0.0]), 0);
        assert_eq!(least_loaded(&[2.0, 1.0, 1.0, 3.0]), 1);
        assert_eq!(least_loaded(&[1.0, 1.0]), 0);
        assert_eq!(least_loaded(&[5.0, 4.0, 3.0]), 2);
    }

    #[test]
    fn same_costs_give_same_assignment() {
        for schedule in [Schedule::Dynamic { chunk: 3 }, Schedule::Guided { min_chunk: 2 }] {
            // Unequal costs, so the assignment is not a plain round robin.
            let run = || {
                let state = LoopState::new(0, 500, schedule, 5);
                let mut tids = Vec::new();
                let clocks = run_chunks(&state, |tid, chunk| {
                    tids.push(tid);
                    (chunk.start % 7) as f64 + 1.0
                });
                (tids, clocks)
            };
            let first = run();
            for _ in 0..10 {
                assert_eq!(run(), first, "{schedule:?}");
            }
        }
    }

    #[test]
    fn equal_dynamic_chunks_balance_within_one_chunk() {
        for (n, threads) in [(1000, 4), (999, 7), (10, 8), (3, 5)] {
            let (tids, clocks) = assignment(Schedule::Dynamic { chunk: 4 }, n, threads);
            let max = clocks.iter().copied().fold(f64::MIN, f64::max);
            let min = clocks.iter().copied().fold(f64::MAX, f64::min);
            // One full chunk costs 4.5; the last chunk may be shorter.
            assert!(max - min <= 4.5, "n={n} threads={threads} clocks={clocks:?}");
            // Equal costs deal the chunks round robin from member 0.
            assert!(tids.iter().enumerate().all(|(k, &t)| t == k % threads), "{tids:?}");
        }
    }

    #[test]
    fn guided_chunks_cover_range_once() {
        for (n, threads, min_chunk) in [(500, 4, 0), (1000, 3, 7), (17, 8, 1), (0, 4, 2)] {
            let state = LoopState::new(5, 5 + n, Schedule::Guided { min_chunk }, threads);
            let mut seen = Vec::new();
            run_chunks(&state, |tid, chunk| {
                seen.extend(chunk.clone());
                synthetic(tid, chunk)
            });
            assert_eq!(seen, (5..5 + n).collect::<Vec<_>>(), "n={n} threads={threads}");
        }
    }

    #[test]
    fn static_chunks_go_to_their_fixed_member() {
        let (tids, clocks) = assignment(Schedule::Static { chunk: 2 }, 20, 3);
        // Member t owns chunks t, t+3, t+6, ... of [0,2), [2,4), ...
        assert_eq!(tids, [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert_eq!(clocks, [10.0, 7.5, 7.5]);
    }
}
