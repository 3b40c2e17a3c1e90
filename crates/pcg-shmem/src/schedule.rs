//! Loop iteration scheduling policies, mirroring OpenMP's `schedule` clause.

/// How a [`crate::Pool::parallel_for`] distributes iterations to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous blocks assigned round-robin by chunk; `chunk = 0` means
    /// one block per thread (OpenMP's default `schedule(static)`).
    Static { chunk: usize },
    /// Members grab fixed-size chunks from a shared counter
    /// (`schedule(dynamic, chunk)`); `chunk = 0` means chunk size 1.
    Dynamic { chunk: usize },
    /// Chunk size decays with remaining work (`schedule(guided)`), with a
    /// minimum chunk of `min_chunk` (0 means 1).
    Guided { min_chunk: usize },
}

impl Default for Schedule {
    fn default() -> Schedule {
        Schedule::Static { chunk: 0 }
    }
}

/// Per-loop state that team members pull chunks from.
pub(crate) struct LoopState {
    pub start: usize,
    pub end: usize,
    pub schedule: Schedule,
    pub nthreads: usize,
    /// Start of the next dynamic or guided chunk.
    next: usize,
}

impl LoopState {
    pub fn new(start: usize, end: usize, schedule: Schedule, nthreads: usize) -> LoopState {
        LoopState { start, end, schedule, nthreads, next: start }
    }

    /// The next chunk `[lo, hi)` for member `tid`, or `None` when the loop
    /// is exhausted for that member.
    pub fn next_chunk(&mut self, tid: usize, cursor: &mut StaticCursor) -> Option<(usize, usize)> {
        let n = self.end - self.start;
        if n == 0 {
            return None;
        }
        match self.schedule {
            Schedule::Static { chunk } => {
                let chunk = if chunk == 0 {
                    // One contiguous block per thread.
                    let per = n.div_ceil(self.nthreads);
                    let lo = self.start + per.saturating_mul(tid).min(n);
                    let hi = self.start + per.saturating_mul(tid + 1).min(n);
                    if cursor.block_done || lo >= hi {
                        return None;
                    }
                    cursor.block_done = true;
                    return Some((lo, hi));
                } else {
                    chunk
                };
                // Round-robin chunks: thread t takes chunks t, t+T, t+2T, ...
                let stride = chunk * self.nthreads;
                let k = cursor.round;
                let lo = self.start + tid * chunk + k * stride;
                if lo >= self.end {
                    return None;
                }
                cursor.round += 1;
                Some((lo, (lo + chunk).min(self.end)))
            }
            Schedule::Dynamic { chunk } => {
                let lo = self.next;
                if lo >= self.end {
                    return None;
                }
                let hi = lo + chunk.max(1).min(self.end - lo);
                self.next = hi;
                Some((lo, hi))
            }
            Schedule::Guided { min_chunk } => {
                let lo = self.next;
                if lo >= self.end {
                    return None;
                }
                let remaining = self.end - lo;
                let chunk = (remaining / (2 * self.nthreads)).max(min_chunk.max(1)).min(remaining);
                self.next = lo + chunk;
                Some((lo, lo + chunk))
            }
        }
    }
}

/// Per-member cursor for static scheduling (no shared state needed).
#[derive(Default)]
pub(crate) struct StaticCursor {
    block_done: bool,
    round: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_all(mut state: LoopState) -> Vec<usize> {
        let mut seen = vec![];
        for tid in 0..state.nthreads {
            let mut cur = StaticCursor::default();
            while let Some((lo, hi)) = state.next_chunk(tid, &mut cur) {
                seen.extend(lo..hi);
            }
        }
        seen.sort_unstable();
        seen
    }

    #[test]
    fn static_default_covers_range_once() {
        let s = LoopState::new(3, 103, Schedule::Static { chunk: 0 }, 4);
        assert_eq!(collect_all(s), (3..103).collect::<Vec<_>>());
    }

    #[test]
    fn static_chunked_covers_range_once() {
        for chunk in [1, 3, 7, 200] {
            let s = LoopState::new(0, 100, Schedule::Static { chunk }, 3);
            assert_eq!(collect_all(s), (0..100).collect::<Vec<_>>(), "chunk={chunk}");
        }
    }

    #[test]
    fn dynamic_covers_range_once() {
        for chunk in [0, 1, 8, 1000] {
            let s = LoopState::new(5, 205, Schedule::Dynamic { chunk }, 4);
            assert_eq!(collect_all(s), (5..205).collect::<Vec<_>>(), "chunk={chunk}");
        }
    }

    #[test]
    fn guided_covers_range_once() {
        for min_chunk in [0, 1, 4] {
            let s = LoopState::new(0, 500, Schedule::Guided { min_chunk }, 4);
            assert_eq!(collect_all(s), (0..500).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_range_yields_nothing() {
        for sched in [
            Schedule::Static { chunk: 0 },
            Schedule::Dynamic { chunk: 2 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            let s = LoopState::new(10, 10, sched, 4);
            assert!(collect_all(s).is_empty());
        }
    }

    #[test]
    fn more_threads_than_iterations() {
        let s = LoopState::new(0, 3, Schedule::Static { chunk: 0 }, 8);
        assert_eq!(collect_all(s), vec![0, 1, 2]);
    }

    #[test]
    fn guided_chunks_decay() {
        let mut s = LoopState::new(0, 1024, Schedule::Guided { min_chunk: 1 }, 2);
        let mut cur = StaticCursor::default();
        let (a_lo, a_hi) = s.next_chunk(0, &mut cur).unwrap();
        let (_, b_hi) = s.next_chunk(0, &mut cur).unwrap();
        let first = a_hi - a_lo;
        let second = b_hi - a_hi;
        assert!(second <= first, "guided chunks should not grow: {first} then {second}");
    }
}
