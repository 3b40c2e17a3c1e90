//! Scan problems: prefix operations over an array (Table 1 "Scan").
//!
//! All five variants are inclusive scans of pair-valued elements
//! `(f64, f64)` under an associative operator, plus a per-index
//! post-processing step, over a possibly reversed index order:
//!
//! * reverse prefix sum (suffix sums) — the paper's own example twist,
//! * partial minimums — the paper's Listing 1,
//! * running product, segmented sum (the pair carries the segment
//!   flag), and running mean (post-divide).
//!
//! Each substrate uses its canonical scan algorithm: the Kokkos-analog
//! two-pass `parallel_scan`, a hand-rolled two-pass block scan for the
//! OpenMP analog, Hillis–Steele over ranks with a generic operator for
//! MPI, and a ping-pong shared-memory block scan (phase machine) plus
//! offset-apply kernel on the GPU.

use crate::framework::{Problem, Spec};
use crate::util;
use parking_lot::Mutex;
use pcg_core::prompt::PromptSpec;
use pcg_core::{Output, ProblemId, ProblemType};
use pcg_gpusim::{BlockCtx, BlockKernel, Gpu, GpuBuffer, Launch};
use pcg_hybrid::HybridCtx;
use pcg_mpisim::{block_range, Comm};
use pcg_patterns::ExecSpace;
use pcg_shmem::{Pool, Schedule};

type Pair = (f64, f64);

struct ScanProblem {
    variant: usize,
    fn_name: &'static str,
    description: &'static str,
    example_in: &'static str,
    example_out: &'static str,
    identity: Pair,
    op: fn(Pair, Pair) -> Pair,
    /// Element `i`'s contribution (reads the value and, for segmented
    /// scans, the flag).
    load: fn(&ScanInput, usize) -> Pair,
    /// Map the inclusive prefix at logical position `i` to the output.
    post: fn(Pair, usize) -> f64,
    /// Scan right-to-left instead of left-to-right.
    reversed: bool,
    /// Whether the generator should produce segment flags.
    segmented: bool,
    /// Value range for the generator.
    gen_range: (f64, f64),
}

/// Scan input: values plus (for the segmented variant) segment-start
/// flags encoded as 0.0/1.0.
pub struct ScanInput {
    x: Vec<f64>,
    flags: Vec<f64>,
}

impl ScanProblem {
    fn logical(&self, i: usize, n: usize) -> usize {
        if self.reversed {
            n - 1 - i
        } else {
            i
        }
    }

    /// Serial inclusive scan in logical order; returns the output array
    /// in *original* index order.
    fn scan_serial(&self, input: &ScanInput) -> Vec<f64> {
        let n = input.x.len();
        let mut out = vec![0.0; n];
        let mut acc = self.identity;
        for k in 0..n {
            let i = self.logical(k, n);
            acc = (self.op)(acc, (self.load)(input, i));
            out[i] = (self.post)(acc, k);
        }
        out
    }
}

impl Spec for ScanProblem {
    type Input = ScanInput;

    fn id(&self) -> ProblemId {
        ProblemId::new(ProblemType::Scan, self.variant)
    }

    fn prompt(&self) -> PromptSpec {
        PromptSpec {
            fn_name: self.fn_name.into(),
            description: self.description.into(),
            examples: vec![(self.example_in.into(), self.example_out.into())],
            signature: "x: &[f64], out: &mut [f64]".into(),
        }
    }

    fn default_size(&self) -> usize {
        1 << 16
    }

    fn generate(&self, seed: u64, size: usize) -> ScanInput {
        let mut r = util::rng(seed, Spec::id(self).index() as u64);
        let x = util::rand_f64s(&mut r, size, self.gen_range.0, self.gen_range.1);
        let flags = if self.segmented {
            use rand::Rng;
            (0..size).map(|i| f64::from(i == 0 || r.gen_bool(0.05))).collect()
        } else {
            vec![]
        };
        ScanInput { x, flags }
    }

    fn input_bytes(&self, input: &ScanInput) -> usize {
        (input.x.len() + input.flags.len()) * 8
    }

    fn serial(&self, input: &ScanInput) -> Output {
        Output::F64s(self.scan_serial(input))
    }

    fn solve_shmem(&self, input: &ScanInput, pool: &Pool) -> Output {
        // Hand-rolled two-pass block scan, the idiomatic manual OpenMP
        // scan: per-thread block totals, serial exclusive combine, then
        // a second pass emitting prefixed results.
        let n = input.x.len();
        let nb = pool.num_threads();
        let totals: Mutex<Vec<Pair>> = Mutex::new(vec![self.identity; nb]);
        pool.parallel_for(0..nb, Schedule::Static { chunk: 1 }, |b| {
            let rg = block_range(n, nb, b);
            let mut acc = self.identity;
            for k in rg {
                acc = (self.op)(acc, (self.load)(input, self.logical(k, n)));
            }
            totals.lock()[b] = acc;
        });
        let totals = totals.into_inner();
        let mut offsets = Vec::with_capacity(nb);
        let mut run = self.identity;
        for t in &totals {
            offsets.push(run);
            run = (self.op)(run, *t);
        }
        let mut out = vec![0.0; n];
        {
            let slice = pcg_shmem::UnsafeSlice::new(&mut out);
            pool.parallel_for(0..nb, Schedule::Static { chunk: 1 }, |b| {
                let rg = block_range(n, nb, b);
                let mut acc = offsets[b];
                for k in rg {
                    let i = self.logical(k, n);
                    acc = (self.op)(acc, (self.load)(input, i));
                    unsafe { slice.write(i, (self.post)(acc, k)) };
                }
            });
        }
        Output::F64s(out)
    }

    fn solve_patterns(&self, input: &ScanInput, space: &ExecSpace) -> Output {
        let n = input.x.len();
        let out = pcg_patterns::View::<f64>::new("out", n);
        let out2 = out.clone();
        space.parallel_scan(
            n,
            self.identity,
            |k| (self.load)(input, self.logical(k, n)),
            |a, b| (self.op)(a, b),
            |k, acc| {
                let i = self.logical(k, n);
                unsafe { out2.set(i, (self.post)(acc, k)) };
            },
        );
        Output::F64s(out.to_vec())
    }

    fn solve_mpi(&self, input: &ScanInput, comm: &Comm<'_>) -> Option<Output> {
        // Distribute logical-order blocks; local scan; generic-operator
        // exclusive scan of block totals over ranks; local emit; gather.
        let n = input.x.len();
        // Build the logical pair stream on the root and scatter it.
        let pairs_flat: Option<Vec<f64>> = (comm.rank() == 0).then(|| {
            (0..n)
                .flat_map(|k| {
                    let p = (self.load)(input, self.logical(k, n));
                    [p.0, p.1]
                })
                .collect()
        });
        let rg = block_range(n, comm.size(), comm.rank());
        let chunks: Option<Vec<Vec<f64>>> = pairs_flat.as_ref().map(|flat| {
            (0..comm.size())
                .map(|r| {
                    let rr = block_range(n, comm.size(), r);
                    flat[rr.start * 2..rr.end * 2].to_vec()
                })
                .collect()
        });
        let local_flat = comm.scatter(0, chunks);
        let local: Vec<Pair> =
            local_flat.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        // Local inclusive scan + total.
        let mut acc = self.identity;
        let mut local_incl = Vec::with_capacity(local.len());
        for &p in &local {
            acc = (self.op)(acc, p);
            local_incl.push(acc);
        }
        let total = acc;
        // Exclusive scan of totals over ranks: Hillis-Steele inclusive
        // with a generic operator, then shift by one rank.
        let mut incl_rank = total;
        let mut d = 1usize;
        let mut round = 0u32;
        while d < comm.size() {
            let tag = 900 + round;
            if comm.rank() + d < comm.size() {
                comm.send(comm.rank() + d, tag, &[incl_rank.0, incl_rank.1]);
            }
            if comm.rank() >= d {
                let got = comm.recv::<f64>(Some(comm.rank() - d), tag);
                incl_rank = (self.op)((got[0], got[1]), incl_rank);
            }
            d <<= 1;
            round += 1;
        }
        let offset = if comm.rank() + 1 < comm.size() {
            comm.send(comm.rank() + 1, 990, &[incl_rank.0, incl_rank.1]);
            if comm.rank() == 0 {
                self.identity
            } else {
                let got = comm.recv::<f64>(Some(comm.rank() - 1), 990);
                (got[0], got[1])
            }
        } else if comm.rank() == 0 {
            self.identity
        } else {
            let got = comm.recv::<f64>(Some(comm.rank() - 1), 990);
            (got[0], got[1])
        };
        // Emit local outputs in logical positions, then gather and
        // un-permute on the root.
        let local_out: Vec<f64> = local_incl
            .iter()
            .enumerate()
            .map(|(j, &p)| (self.post)((self.op)(offset, p), rg.start + j))
            .collect();
        comm.gather(0, &local_out).map(|logical_out| {
            let mut out = vec![0.0; n];
            for (k, v) in logical_out.into_iter().enumerate() {
                out[self.logical(k, n)] = v;
            }
            Output::F64s(out)
        })
    }

    fn solve_hybrid(&self, input: &ScanInput, ctx: &HybridCtx<'_>) -> Option<Output> {
        // Rank-level structure mirrors the MPI path; the local scan is
        // a threaded two-pass over thread blocks.
        let comm = ctx.comm();
        let n = input.x.len();
        let rg = block_range(n, comm.size(), comm.rank());
        let nb = ctx.threads_per_rank();
        let block_totals: Mutex<Vec<Pair>> = Mutex::new(vec![self.identity; nb]);
        ctx.par_for(0..nb, |b| {
            let sub = block_range(rg.len(), nb, b);
            let mut acc = self.identity;
            for j in sub {
                acc = (self.op)(acc, (self.load)(input, self.logical(rg.start + j, n)));
            }
            block_totals.lock()[b] = acc;
        });
        let totals = block_totals.into_inner();
        let mut offsets = Vec::with_capacity(nb);
        let mut run = self.identity;
        for t in &totals {
            offsets.push(run);
            run = (self.op)(run, *t);
        }
        let rank_total = run;
        // Exclusive rank offset via the same Hillis-Steele exchange.
        let mut incl_rank = rank_total;
        let mut d = 1usize;
        let mut round = 0u32;
        while d < comm.size() {
            let tag = 900 + round;
            if comm.rank() + d < comm.size() {
                comm.send(comm.rank() + d, tag, &[incl_rank.0, incl_rank.1]);
            }
            if comm.rank() >= d {
                let got = comm.recv::<f64>(Some(comm.rank() - d), tag);
                incl_rank = (self.op)((got[0], got[1]), incl_rank);
            }
            d <<= 1;
            round += 1;
        }
        if comm.rank() + 1 < comm.size() {
            comm.send(comm.rank() + 1, 990, &[incl_rank.0, incl_rank.1]);
        }
        let rank_offset = if comm.rank() == 0 {
            self.identity
        } else {
            let got = comm.recv::<f64>(Some(comm.rank() - 1), 990);
            (got[0], got[1])
        };
        let mut local_out = vec![0.0; rg.len()];
        {
            let slice = pcg_shmem::UnsafeSlice::new(&mut local_out);
            let offsets_ref = &offsets;
            ctx.par_for(0..nb, |b| {
                let sub = block_range(rg.len(), nb, b);
                let mut acc = (self.op)(rank_offset, offsets_ref[b]);
                for j in sub {
                    let k = rg.start + j;
                    acc = (self.op)(acc, (self.load)(input, self.logical(k, n)));
                    unsafe { slice.write(j, (self.post)(acc, k)) };
                }
            });
        }
        comm.gather(0, &local_out).map(|logical_out| {
            let mut out = vec![0.0; n];
            for (k, v) in logical_out.into_iter().enumerate() {
                out[self.logical(k, n)] = v;
            }
            Output::F64s(out)
        })
    }

    fn solve_gpu(&self, input: &ScanInput, gpu: &Gpu) -> Output {
        let n = input.x.len();
        const BLOCK: u32 = 128;
        // Host prepares the logical pair stream (device-side loads then
        // stream it back through metered reads).
        let mut la = Vec::with_capacity(n);
        let mut lb = Vec::with_capacity(n);
        for k in 0..n {
            let p = (self.load)(input, self.logical(k, n));
            la.push(p.0);
            lb.push(p.1);
        }
        let a = GpuBuffer::from_slice(&la);
        let b = GpuBuffer::from_slice(&lb);
        let out_a = GpuBuffer::<f64>::zeroed(n);
        let out_b = GpuBuffer::<f64>::zeroed(n);
        let cfg = Launch::over(n, BLOCK).with_shared(4 * BLOCK as usize);
        let grid = cfg.grid() as usize;
        let tot_a = GpuBuffer::<f64>::zeroed(grid);
        let tot_b = GpuBuffer::<f64>::zeroed(grid);

        struct BlockScan {
            a: GpuBuffer<f64>,
            b: GpuBuffer<f64>,
            out_a: GpuBuffer<f64>,
            out_b: GpuBuffer<f64>,
            tot_a: GpuBuffer<f64>,
            tot_b: GpuBuffer<f64>,
            n: usize,
            identity: Pair,
            op: fn(Pair, Pair) -> Pair,
            steps: usize,
        }
        impl BlockScan {
            fn bank(shared: &pcg_gpusim::SharedMem, bank: usize, tid: usize, bd: usize) -> Pair {
                (shared.get(bank * 2 * bd + 2 * tid), shared.get(bank * 2 * bd + 2 * tid + 1))
            }
            fn set_bank(
                shared: &pcg_gpusim::SharedMem,
                bank: usize,
                tid: usize,
                bd: usize,
                v: Pair,
            ) {
                shared.set(bank * 2 * bd + 2 * tid, v.0);
                shared.set(bank * 2 * bd + 2 * tid + 1, v.1);
            }
        }
        impl BlockKernel for BlockScan {
            fn phases(&self, _cfg: &Launch) -> usize {
                1 + self.steps + 1
            }
            fn phase(&self, phase: usize, blk: &BlockCtx) {
                let bd = blk.block_dim() as usize;
                let shared = blk.shared();
                if phase == 0 {
                    // Load into bank 0 (identity beyond the array end).
                    blk.for_each_thread(|t| {
                        let i = t.global_id();
                        let v = if i < self.n {
                            (blk.read(&self.a, i), blk.read(&self.b, i))
                        } else {
                            self.identity
                        };
                        BlockScan::set_bank(shared, 0, t.thread_idx as usize, bd, v);
                    });
                } else if phase <= self.steps {
                    // Hillis-Steele step with ping-pong banks.
                    let d = 1usize << (phase - 1);
                    let src = (phase - 1) % 2;
                    let dst = phase % 2;
                    blk.for_each_thread(|t| {
                        let tid = t.thread_idx as usize;
                        let cur = BlockScan::bank(shared, src, tid, bd);
                        let v = if tid >= d {
                            (self.op)(BlockScan::bank(shared, src, tid - d, bd), cur)
                        } else {
                            cur
                        };
                        BlockScan::set_bank(shared, dst, tid, bd, v);
                    });
                } else {
                    // Write inclusive prefixes and the block total.
                    let bank = self.steps % 2;
                    blk.for_each_thread(|t| {
                        let tid = t.thread_idx as usize;
                        let i = t.global_id();
                        let v = BlockScan::bank(shared, bank, tid, bd);
                        if i < self.n {
                            blk.write(&self.out_a, i, v.0);
                            blk.write(&self.out_b, i, v.1);
                        }
                        if tid == bd - 1 {
                            blk.write(&self.tot_a, t.block_idx as usize, v.0);
                            blk.write(&self.tot_b, t.block_idx as usize, v.1);
                        }
                    });
                }
            }
        }

        let kernel = BlockScan {
            a,
            b,
            out_a: out_a.clone(),
            out_b: out_b.clone(),
            tot_a: tot_a.clone(),
            tot_b: tot_b.clone(),
            n,
            identity: self.identity,
            op: self.op,
            steps: BLOCK.trailing_zeros() as usize,
        };
        gpu.launch(cfg, &kernel);

        // Host-side exclusive combine of the (small) block totals — the
        // standard "scan-then-propagate" step.
        let ta = tot_a.to_vec();
        let tb = tot_b.to_vec();
        let mut offsets = Vec::with_capacity(grid);
        let mut run = self.identity;
        for i in 0..grid {
            offsets.push(run);
            run = (self.op)(run, (ta[i], tb[i]));
        }
        let off_a = GpuBuffer::from_slice(&offsets.iter().map(|p| p.0).collect::<Vec<_>>());
        let off_b = GpuBuffer::from_slice(&offsets.iter().map(|p| p.1).collect::<Vec<_>>());

        // Offset-apply kernel.
        let op = self.op;
        gpu.launch_each(Launch::over(n, BLOCK), |t, ctx| {
            let i = t.global_id();
            if i < n {
                let blk = (i / BLOCK as usize).min(off_a.len() - 1);
                let off = (ctx.read(&off_a, blk), ctx.read(&off_b, blk));
                let v = (ctx.read(&out_a, i), ctx.read(&out_b, i));
                let combined = op(off, v);
                ctx.write(&out_a, i, combined.0);
                ctx.write(&out_b, i, combined.1);
            }
        });

        // Post-process back to original index order.
        let fa = out_a.to_vec();
        let fb = out_b.to_vec();
        let mut out = vec![0.0; n];
        for k in 0..n {
            out[self.logical(k, n)] = (self.post)((fa[k], fb[k]), k);
        }
        Output::F64s(out)
    }
}

/// The five scan problems.
pub fn problems() -> Vec<Box<dyn Problem>> {
    vec![
        Box::new(ScanProblem {
            variant: 0,
            fn_name: "reversePrefixSum",
            description: "Replace out[i] with the sum of x[i..], i.e. the reverse (suffix) prefix sum of x.",
            example_in: "[1.0, 2.0, 3.0]",
            example_out: "[6.0, 5.0, 3.0]",
            identity: (0.0, 0.0),
            op: |a, b| (a.0 + b.0, 0.0),
            load: |inp, i| (inp.x[i], 0.0),
            post: |p, _| p.0,
            reversed: true,
            segmented: false,
            gen_range: (-1.0, 1.0),
        }),
        Box::new(ScanProblem {
            variant: 1,
            fn_name: "partialMinimums",
            description: "Replace the i-th element of the array x with the minimum value from indices 0 through i.",
            example_in: "[8.0, 6.0, -1.0, 7.0, 3.0]",
            example_out: "[8.0, 6.0, -1.0, -1.0, -1.0]",
            identity: (f64::INFINITY, 0.0),
            op: |a, b| (a.0.min(b.0), 0.0),
            load: |inp, i| (inp.x[i], 0.0),
            post: |p, _| p.0,
            reversed: false,
            segmented: false,
            gen_range: (-100.0, 100.0),
        }),
        Box::new(ScanProblem {
            variant: 2,
            fn_name: "runningProduct",
            description: "Compute the inclusive running product of the array x: out[i] = x[0] * x[1] * ... * x[i].",
            example_in: "[1.0, 2.0, 0.5]",
            example_out: "[1.0, 2.0, 1.0]",
            identity: (1.0, 0.0),
            op: |a, b| (a.0 * b.0, 0.0),
            load: |inp, i| (inp.x[i], 0.0),
            post: |p, _| p.0,
            reversed: false,
            segmented: false,
            // Values near 1 keep long products in range.
            gen_range: (0.95, 1.05),
        }),
        Box::new(ScanProblem {
            variant: 3,
            fn_name: "segmentedPrefixSum",
            description: "Compute the prefix sum of x restarting at every index whose flag is 1 (flags[0] is always 1): out[i] is the sum of x over the current segment up to i.",
            example_in: "x=[1,2,3,4], flags=[1,0,1,0]",
            example_out: "[1.0, 3.0, 3.0, 7.0]",
            identity: (0.0, 0.0),
            // Standard segmented-sum operator: a flagged right operand
            // resets the running value; flags OR together.
            op: |a, b| {
                if b.1 != 0.0 {
                    (b.0, 1.0)
                } else {
                    (a.0 + b.0, a.1)
                }
            },
            load: |inp, i| (inp.x[i], inp.flags[i]),
            post: |p, _| p.0,
            reversed: false,
            segmented: true,
            gen_range: (-1.0, 1.0),
        }),
        Box::new(ScanProblem {
            variant: 4,
            fn_name: "runningMean",
            description: "Compute the running mean of the array x: out[i] = mean(x[0..=i]).",
            example_in: "[2.0, 4.0, 9.0]",
            example_out: "[2.0, 3.0, 5.0]",
            identity: (0.0, 0.0),
            op: |a, b| (a.0 + b.0, 0.0),
            load: |inp, i| (inp.x[i], 0.0),
            post: |p, k| p.0 / (k + 1) as f64,
            reversed: false,
            segmented: false,
            gen_range: (-5.0, 5.0),
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::tests_support::check_problem_all_models;

    #[test]
    fn scan_problems_agree_across_models() {
        for p in problems() {
            check_problem_all_models(&*p, 4242, 777);
        }
    }

    #[test]
    fn segmented_operator_is_associative() {
        let op = |a: Pair, b: Pair| {
            if b.1 != 0.0 {
                (b.0, 1.0)
            } else {
                (a.0 + b.0, a.1)
            }
        };
        let vals = [(1.0, 0.0), (2.0, 1.0), (3.0, 0.0), (4.0, 1.0), (5.0, 0.0)];
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    let left = op(op(a, b), c);
                    let right = op(a, op(b, c));
                    assert_eq!(left.0, right.0, "{a:?} {b:?} {c:?}");
                }
            }
        }
    }

    #[test]
    fn suffix_sum_known_case() {
        let p = &problems()[0];
        let base = p.run_baseline(1, 8);
        if let Output::F64s(v) = &*base.output {
            // Suffix sums are non-increasing in magnitude toward the
            // last element equal to x[n-1]; check shape invariant:
            assert_eq!(v.len(), 8);
        }
    }
}
