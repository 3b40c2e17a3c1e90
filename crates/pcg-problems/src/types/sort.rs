//! Sort problems (Table 1 "Sort"): in-place and out-of-place sorting of
//! bounded integer keys, sub-array sorting, selection, and a custom
//! order.
//!
//! Keys are bounded (`0..KEYS`), so the parallel reference strategy is
//! the distribution (counting) sort: parallel histogram over key ranks,
//! an exclusive scan of bucket counts, and a parallel emit of each
//! bucket's run — the same structure on every substrate, including a
//! two-kernel GPU pipeline. A per-variant rank bijection encodes the
//! ordering twist (descending, evens-before-odds).

use crate::framework::{Problem, Spec};
use crate::util;
use pcg_core::prompt::PromptSpec;
use pcg_core::{Output, ProblemId, ProblemType};
use pcg_gpusim::{Gpu, GpuBuffer, Launch};
use pcg_hybrid::HybridCtx;
use pcg_mpisim::{block_range, Comm, ReduceOp};
use pcg_patterns::{ExecSpace, ScatterView};
use pcg_shmem::{Pool, Schedule, UnsafeSlice};

/// Bounded key space.
const KEYS: u32 = 4096;

/// What part of the array gets sorted.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// Sort the whole array.
    Full,
    /// Sort only the middle half `[n/4, 3n/4)`.
    MiddleHalf,
}

/// What the task returns.
#[derive(Clone, Copy, PartialEq)]
enum Answer {
    /// The (partially) sorted array.
    Array,
    /// The k-th smallest element with `k = n/3`.
    KthSmallest,
}

struct SortProblem {
    variant: usize,
    fn_name: &'static str,
    description: &'static str,
    example_in: &'static str,
    example_out: &'static str,
    scope: Scope,
    answer: Answer,
    /// Bijection from key to sort rank (identity for ascending).
    rank: fn(u32) -> u32,
    /// Inverse of `rank`.
    unrank: fn(u32) -> u32,
}

impl SortProblem {
    fn sub_range(&self, n: usize) -> std::ops::Range<usize> {
        match self.scope {
            Scope::Full => 0..n,
            Scope::MiddleHalf => n / 4..(3 * n) / 4,
        }
    }

    fn hist_of(&self, keys: &[u32]) -> Vec<i64> {
        let mut hist = vec![0i64; KEYS as usize];
        for &k in keys {
            hist[(self.rank)(k) as usize] += 1;
        }
        hist
    }

    fn kth_from_hist(&self, hist: &[i64], k: usize) -> u32 {
        let mut seen = 0usize;
        for (rank, &cnt) in hist.iter().enumerate() {
            seen += cnt as usize;
            if seen > k {
                return (self.unrank)(rank as u32);
            }
        }
        (self.unrank)(KEYS - 1)
    }

    fn sorted_sub(&self, hist: &[i64]) -> Vec<u32> {
        let mut out = Vec::with_capacity(hist.iter().sum::<i64>() as usize);
        for (rank, &cnt) in hist.iter().enumerate() {
            let key = (self.unrank)(rank as u32);
            out.extend(std::iter::repeat_n(key, cnt as usize));
        }
        out
    }

    fn finish(&self, input: &[u32], sorted_sub: Vec<u32>) -> Output {
        match self.answer {
            Answer::KthSmallest => unreachable!("kth handled separately"),
            Answer::Array => {
                let rg = self.sub_range(input.len());
                let mut out: Vec<u32> = input.to_vec();
                out[rg].copy_from_slice(&sorted_sub);
                Output::I64s(out.into_iter().map(i64::from).collect())
            }
        }
    }
}

impl Spec for SortProblem {
    type Input = Vec<u32>;

    fn id(&self) -> ProblemId {
        ProblemId::new(ProblemType::Sort, self.variant)
    }

    fn prompt(&self) -> PromptSpec {
        PromptSpec {
            fn_name: self.fn_name.into(),
            description: self.description.into(),
            examples: vec![(self.example_in.into(), self.example_out.into())],
            signature: "x: &mut [u32]".into(),
        }
    }

    fn default_size(&self) -> usize {
        1 << 15
    }

    fn generate(&self, seed: u64, size: usize) -> Vec<u32> {
        let mut r = util::rng(seed, Spec::id(self).index() as u64);
        util::rand_i64s(&mut r, size.max(8), 0, KEYS as i64)
            .into_iter()
            .map(|x| x as u32)
            .collect()
    }

    fn input_bytes(&self, input: &Vec<u32>) -> usize {
        input.len() * 4
    }

    fn serial(&self, input: &Vec<u32>) -> Output {
        let rg = self.sub_range(input.len());
        match self.answer {
            Answer::KthSmallest => {
                let hist = self.hist_of(&input[rg]);
                Output::I64(i64::from(self.kth_from_hist(&hist, input.len() / 3)))
            }
            Answer::Array => {
                let hist = self.hist_of(&input[rg]);
                let sorted = self.sorted_sub(&hist);
                self.finish(input, sorted)
            }
        }
    }

    fn solve_shmem(&self, input: &Vec<u32>, pool: &Pool) -> Output {
        let rg = self.sub_range(input.len());
        let sub = &input[rg];
        // Parallel histogram with privatized buckets merged under a lock.
        let merged = parking_lot::Mutex::new(vec![0i64; KEYS as usize]);
        pool.parallel_for_chunks(0..sub.len(), Schedule::Static { chunk: 0 }, |chunk| {
            let local = self.hist_of(&sub[chunk]);
            let mut guard = merged.lock();
            for (m, l) in guard.iter_mut().zip(local) {
                *m += l;
            }
        });
        let hist = merged.into_inner();
        if self.answer == Answer::KthSmallest {
            return Output::I64(i64::from(self.kth_from_hist(&hist, input.len() / 3)));
        }
        // Exclusive scan of bucket counts, then parallel emit.
        let mut offsets = vec![0usize; KEYS as usize + 1];
        for r in 0..KEYS as usize {
            offsets[r + 1] = offsets[r] + hist[r] as usize;
        }
        let mut sorted = vec![0u32; sub.len()];
        {
            let slice = UnsafeSlice::new(&mut sorted);
            let unrank = self.unrank;
            pool.parallel_for(0..KEYS as usize, Schedule::Dynamic { chunk: 64 }, |r| {
                let key = unrank(r as u32);
                for pos in offsets[r]..offsets[r + 1] {
                    unsafe { slice.write(pos, key) };
                }
            });
        }
        self.finish(input, sorted)
    }

    fn solve_patterns(&self, input: &Vec<u32>, space: &ExecSpace) -> Output {
        let rg = self.sub_range(input.len());
        let sub = &input[rg];
        let scatter: ScatterView<i64> = ScatterView::new(KEYS as usize, space.concurrency());
        let teams = 4 * space.concurrency();
        let rank = self.rank;
        space.parallel_for_teams(teams, |team| {
            let part = block_range(sub.len(), team.league_size(), team.league_rank());
            let mut acc = scatter.access();
            for i in part {
                acc.add(rank(sub[i]) as usize, 1);
            }
        });
        let mut hist = vec![0i64; KEYS as usize];
        scatter.contribute(&mut hist);
        if self.answer == Answer::KthSmallest {
            return Output::I64(i64::from(self.kth_from_hist(&hist, input.len() / 3)));
        }
        let mut offsets = vec![0usize; KEYS as usize + 1];
        for r in 0..KEYS as usize {
            offsets[r + 1] = offsets[r] + hist[r] as usize;
        }
        let sorted_view = pcg_patterns::View::<u32>::new("sorted", sub.len());
        let sv = sorted_view.clone();
        let unrank = self.unrank;
        space.parallel_for(KEYS as usize, |r| {
            let key = unrank(r as u32);
            for pos in offsets[r]..offsets[r + 1] {
                unsafe { sv.set(pos, key) };
            }
        });
        self.finish(input, sorted_view.to_vec())
    }

    fn solve_mpi(&self, input: &Vec<u32>, comm: &Comm<'_>) -> Option<Output> {
        let rg = self.sub_range(input.len());
        let sub_len = rg.len();
        let local =
            comm.scatter_blocks(0, (comm.rank() == 0).then_some(&input[rg]), sub_len);
        let local_hist = self.hist_of(&local);
        // Every rank learns the global histogram, emits its block of the
        // sorted output locally, and the root gathers the blocks.
        let hist = comm.allreduce(&local_hist, ReduceOp::Sum);
        if self.answer == Answer::KthSmallest {
            let k = self.kth_from_hist(&hist, input.len() / 3);
            return if comm.rank() == 0 { Some(Output::I64(i64::from(k))) } else { None };
        }
        let out_rg = block_range(sub_len, comm.size(), comm.rank());
        let mut offsets = vec![0usize; KEYS as usize + 1];
        for r in 0..KEYS as usize {
            offsets[r + 1] = offsets[r] + hist[r] as usize;
        }
        let mut block = Vec::with_capacity(out_rg.len());
        for r in 0..KEYS as usize {
            let lo = offsets[r].max(out_rg.start);
            let hi = offsets[r + 1].min(out_rg.end);
            if lo < hi {
                block.extend(std::iter::repeat_n((self.unrank)(r as u32), hi - lo));
            }
        }
        comm.gather(0, &block).map(|sorted| self.finish(input, sorted))
    }

    fn solve_hybrid(&self, input: &Vec<u32>, ctx: &HybridCtx<'_>) -> Option<Output> {
        let comm = ctx.comm();
        let rg = self.sub_range(input.len());
        let sub = &input[rg];
        let my_items = block_range(sub.len(), comm.size(), comm.rank());
        let rank = self.rank;
        let local_hist = ctx.par_reduce(
            my_items,
            vec![0i64; KEYS as usize],
            move |mut h, i| {
                h[rank(sub[i]) as usize] += 1;
                h
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
        let hist = comm.allreduce(&local_hist, ReduceOp::Sum);
        if self.answer == Answer::KthSmallest {
            let k = self.kth_from_hist(&hist, input.len() / 3);
            return if comm.rank() == 0 { Some(Output::I64(i64::from(k))) } else { None };
        }
        let out_rg = block_range(sub.len(), comm.size(), comm.rank());
        let mut offsets = vec![0usize; KEYS as usize + 1];
        for r in 0..KEYS as usize {
            offsets[r + 1] = offsets[r] + hist[r] as usize;
        }
        let mut block = Vec::with_capacity(out_rg.len());
        for r in 0..KEYS as usize {
            let lo = offsets[r].max(out_rg.start);
            let hi = offsets[r + 1].min(out_rg.end);
            if lo < hi {
                block.extend(std::iter::repeat_n((self.unrank)(r as u32), hi - lo));
            }
        }
        comm.gather(0, &block).map(|sorted| self.finish(input, sorted))
    }

    fn solve_gpu(&self, input: &Vec<u32>, gpu: &Gpu) -> Output {
        let rg = self.sub_range(input.len());
        let sub = &input[rg];
        let keys = GpuBuffer::from_slice(sub);
        let hist = GpuBuffer::<u32>::zeroed(KEYS as usize);
        let rank = self.rank;
        // Kernel 1: histogram with global atomics.
        gpu.launch_each(Launch::over(sub.len(), 256), |t, ctx| {
            let i = t.global_id();
            if i < keys.len() {
                let k = ctx.read(&keys, i);
                ctx.atomic_add(&hist, rank(k) as usize, 1);
            }
        });
        let h: Vec<i64> = hist.to_vec().into_iter().map(i64::from).collect();
        if self.answer == Answer::KthSmallest {
            return Output::I64(i64::from(self.kth_from_hist(&h, input.len() / 3)));
        }
        // Host scan (small), then kernel 2: one thread per bucket emits
        // its run.
        let mut offsets = vec![0u32; KEYS as usize + 1];
        for r in 0..KEYS as usize {
            offsets[r + 1] = offsets[r] + h[r] as u32;
        }
        let offs = GpuBuffer::from_slice(&offsets);
        let sorted = GpuBuffer::<u32>::zeroed(sub.len());
        let unrank = self.unrank;
        gpu.launch_each(Launch::over(KEYS as usize, 256), |t, ctx| {
            let r = t.global_id();
            if r < KEYS as usize {
                let lo = ctx.read(&offs, r);
                let hi = ctx.read(&offs, r + 1);
                let key = unrank(r as u32);
                for pos in lo..hi {
                    ctx.write(&sorted, pos as usize, key);
                }
            }
        });
        self.finish(input, sorted.to_vec())
    }
}

/// The five sort problems.
pub fn problems() -> Vec<Box<dyn Problem>> {
    vec![
        Box::new(SortProblem {
            variant: 0,
            fn_name: "sortAscending",
            description: "Sort the array x of integer keys (0 <= x[i] < 4096) in ascending order.",
            example_in: "[3, 1, 2]",
            example_out: "[1, 2, 3]",
            scope: Scope::Full,
            answer: Answer::Array,
            rank: |k| k,
            unrank: |r| r,
        }),
        Box::new(SortProblem {
            variant: 1,
            fn_name: "sortDescending",
            description: "Sort the array x of integer keys (0 <= x[i] < 4096) in descending order.",
            example_in: "[3, 1, 2]",
            example_out: "[3, 2, 1]",
            scope: Scope::Full,
            answer: Answer::Array,
            rank: |k| KEYS - 1 - k,
            unrank: |r| KEYS - 1 - r,
        }),
        Box::new(SortProblem {
            variant: 2,
            fn_name: "sortMiddleHalf",
            description: "Sort only the middle half of x (indices n/4 .. 3n/4) ascending, leaving the rest unchanged.",
            example_in: "[9, 9, 4, 2, 7, 1, 9, 9]",
            example_out: "[9, 9, 1, 2, 4, 7, 9, 9]",
            scope: Scope::MiddleHalf,
            answer: Answer::Array,
            rank: |k| k,
            unrank: |r| r,
        }),
        Box::new(SortProblem {
            variant: 3,
            fn_name: "kthSmallest",
            description: "Return the element that would be at index n/3 if the array x were sorted ascending (the (n/3)-th smallest).",
            example_in: "[5, 1, 4, 2, 3, 0]",
            example_out: "2",
            scope: Scope::Full,
            answer: Answer::KthSmallest,
            rank: |k| k,
            unrank: |r| r,
        }),
        Box::new(SortProblem {
            variant: 4,
            fn_name: "evenOddSort",
            description: "Reorder x so all even keys come first in ascending order, followed by all odd keys in ascending order.",
            example_in: "[5, 2, 1, 4]",
            example_out: "[2, 4, 1, 5]",
            scope: Scope::Full,
            answer: Answer::Array,
            // Evens map to ranks 0..KEYS/2, odds to KEYS/2..KEYS.
            rank: |k| {
                if k % 2 == 0 {
                    k / 2
                } else {
                    KEYS / 2 + k / 2
                }
            },
            unrank: |r| {
                if r < KEYS / 2 {
                    2 * r
                } else {
                    2 * (r - KEYS / 2) + 1
                }
            },
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::tests_support::check_problem_all_models;

    #[test]
    fn sort_problems_agree_across_models() {
        for p in problems() {
            check_problem_all_models(&*p, 616, 800);
        }
    }

    #[test]
    fn serial_sorts_match_std_sort() {
        let ps = problems();
        let asc = &ps[0];
        let input: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mut want = input.clone();
        want.sort_unstable();
        // Drive through the Spec-level serial path by regenerating: use
        // a small generated input instead for the end-to-end check.
        let base = asc.run_baseline(1, 64);
        if let Output::I64s(v) = &*base.output {
            let mut sorted = v.clone();
            sorted.sort_unstable();
            assert_eq!(v, &sorted, "ascending output must be sorted");
        }
        let _ = want;
    }

    #[test]
    fn even_odd_rank_bijection() {
        let p = problems();
        let _ = &p[4];
        let rank = |k: u32| if k.is_multiple_of(2) { k / 2 } else { KEYS / 2 + k / 2 };
        let unrank = |r: u32| if r < KEYS / 2 { 2 * r } else { 2 * (r - KEYS / 2) + 1 };
        for k in 0..KEYS {
            assert_eq!(unrank(rank(k)), k);
        }
    }

    #[test]
    fn descending_output_is_sorted_desc() {
        let p = &problems()[1];
        let base = p.run_baseline(2, 100);
        if let Output::I64s(v) = &*base.output {
            assert!(v.windows(2).all(|w| w[0] >= w[1]));
        }
    }
}
