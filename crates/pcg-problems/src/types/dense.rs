//! Dense matrix algebra problems covering the three BLAS levels
//! (Table 1 "Dense Matrix Algebra"): a fused level-1 vector op, a scaled
//! level-2 matrix-vector product, a level-3 matrix-matrix product, a
//! Gram matrix, and a scaled transpose.
//!
//! Every variant is expressed as an element formula over abstract
//! readers, so the same formula runs against host slices (CPU
//! substrates) and metered device buffers (GPU), keeping the byte/flop
//! accounting honest.

use crate::framework::{Problem, Spec};
use crate::util;
use pcg_core::prompt::PromptSpec;
use pcg_core::{Output, ProblemId, ProblemType};
use pcg_gpusim::{Gpu, GpuBuffer, Launch};
use pcg_hybrid::HybridCtx;
use pcg_mpisim::{block_range, Comm};
use pcg_patterns::{ExecSpace, View};
use pcg_shmem::Pool;

/// Abstract element reader.
type Reader<'a> = &'a dyn Fn(usize) -> f64;

/// Shape metadata handed to element formulas.
#[derive(Debug, Clone, Copy)]
pub struct Dims {
    /// Rows of operand `a` (as visible to the formula).
    pub a_rows: usize,
    /// Columns of operand `a`.
    pub a_cols: usize,
    /// Length of the output rows.
    pub row_len: usize,
}

/// How the MPI/hybrid paths distribute the operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dist {
    /// Scatter `a`'s rows and `b` with the same row distribution
    /// (elementwise ops on two vectors).
    ScatterBoth,
    /// Scatter `a`'s rows; broadcast `b` (matrix-vector, matrix-matrix).
    ScatterA,
    /// Broadcast everything (output rows need all of `a`).
    BcastAll,
}

struct DenseProblem {
    variant: usize,
    fn_name: &'static str,
    description: &'static str,
    example_in: &'static str,
    example_out: &'static str,
    shape: fn(usize) -> (usize, usize, usize, usize, usize), // a_rows, a_cols, b_len, out_rows, row_len
    elem: fn(Reader<'_>, Reader<'_>, Dims, usize, usize) -> f64,
    dist: Dist,
    flops_per_elem: fn(Dims) -> u64,
}

/// Generated operands.
pub struct DenseInput {
    a_rows: usize,
    a_cols: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    out_rows: usize,
    row_len: usize,
}

impl DenseProblem {
    fn dims(&self, input: &DenseInput) -> Dims {
        Dims { a_rows: input.a_rows, a_cols: input.a_cols, row_len: input.row_len }
    }

    fn compute_rows(&self, input: &DenseInput, r_lo: usize, r_hi: usize) -> Vec<f64> {
        let dims = self.dims(input);
        let ra = |i: usize| input.a[i];
        let rb = |i: usize| input.b[i];
        let mut out = Vec::with_capacity((r_hi - r_lo) * input.row_len);
        for r in r_lo..r_hi {
            for c in 0..input.row_len {
                out.push((self.elem)(&ra, &rb, dims, r, c));
            }
        }
        out
    }
}

impl Spec for DenseProblem {
    type Input = DenseInput;

    fn id(&self) -> ProblemId {
        ProblemId::new(ProblemType::DenseLinearAlgebra, self.variant)
    }

    fn prompt(&self) -> PromptSpec {
        PromptSpec {
            fn_name: self.fn_name.into(),
            description: self.description.into(),
            examples: vec![(self.example_in.into(), self.example_out.into())],
            signature: "a: &[f64], b: &[f64], out: &mut [f64]".into(),
        }
    }

    fn default_size(&self) -> usize {
        1 << 15
    }

    fn generate(&self, seed: u64, size: usize) -> DenseInput {
        let mut r = util::rng(seed, Spec::id(self).index() as u64);
        let (a_rows, a_cols, b_len, out_rows, row_len) = (self.shape)(size.max(16));
        DenseInput {
            a_rows,
            a_cols,
            a: util::rand_f64s(&mut r, a_rows * a_cols, -1.0, 1.0),
            b: util::rand_f64s(&mut r, b_len, -1.0, 1.0),
            out_rows,
            row_len,
        }
    }

    fn input_bytes(&self, input: &DenseInput) -> usize {
        (input.a.len() + input.b.len()) * 8
    }

    fn serial(&self, input: &DenseInput) -> Output {
        Output::F64s(self.compute_rows(input, 0, input.out_rows))
    }

    fn solve_shmem(&self, input: &DenseInput, pool: &Pool) -> Output {
        let mut out = vec![0.0; input.out_rows * input.row_len];
        let row_len = input.row_len;
        {
            let slice = pcg_shmem::UnsafeSlice::new(&mut out);
            pool.parallel_for_chunks(
                0..input.out_rows,
                pcg_shmem::Schedule::Static { chunk: 0 },
                |rows| {
                    let vals = self.compute_rows(input, rows.start, rows.end);
                    for (k, v) in vals.into_iter().enumerate() {
                        unsafe { slice.write(rows.start * row_len + k, v) };
                    }
                },
            );
        }
        Output::F64s(out)
    }

    fn solve_patterns(&self, input: &DenseInput, space: &ExecSpace) -> Output {
        let dims = self.dims(input);
        let a = View::from_slice("a", &input.a);
        let b = View::from_slice("b", &input.b);
        let out: View<f64> = View::new("out", input.out_rows * input.row_len);
        let out2 = out.clone();
        let elem = self.elem;
        let row_len = input.row_len;
        space.parallel_for_2d(input.out_rows, row_len, |r, c| {
            let ra = |i: usize| a.get(i);
            let rb = |i: usize| b.get(i);
            unsafe { out2.set(r * row_len + c, elem(&ra, &rb, dims, r, c)) };
        });
        Output::F64s(out.to_vec())
    }

    fn solve_mpi(&self, input: &DenseInput, comm: &Comm<'_>) -> Option<Output> {
        let rows_rg = block_range(input.out_rows, comm.size(), comm.rank());
        let local_vals = match self.dist {
            Dist::BcastAll => {
                let mut a = if comm.rank() == 0 { input.a.clone() } else { Vec::new() };
                comm.bcast(0, &mut a);
                let mut b = if comm.rank() == 0 { input.b.clone() } else { Vec::new() };
                comm.bcast(0, &mut b);
                let local = DenseInput {
                    a_rows: input.a_rows,
                    a_cols: input.a_cols,
                    a,
                    b,
                    out_rows: input.out_rows,
                    row_len: input.row_len,
                };
                self.compute_rows(&local, rows_rg.start, rows_rg.end)
            }
            Dist::ScatterA | Dist::ScatterBoth => {
                // Scatter row blocks of `a`; formulas then see a local
                // matrix whose row r is global row rows_rg.start + r.
                let chunks: Option<Vec<Vec<f64>>> = (comm.rank() == 0).then(|| {
                    (0..comm.size())
                        .map(|p| {
                            let rg = block_range(input.out_rows, comm.size(), p);
                            input.a[rg.start * input.a_cols..rg.end * input.a_cols].to_vec()
                        })
                        .collect()
                });
                let local_a = comm.scatter(0, chunks);
                let local_b = if self.dist == Dist::ScatterBoth {
                    comm.scatter_blocks(0, (comm.rank() == 0).then_some(&input.b[..]), input.b.len())
                } else {
                    let mut b = if comm.rank() == 0 { input.b.clone() } else { Vec::new() };
                    comm.bcast(0, &mut b);
                    b
                };
                let local = DenseInput {
                    a_rows: rows_rg.len(),
                    a_cols: input.a_cols,
                    a: local_a,
                    b: local_b,
                    out_rows: rows_rg.len(),
                    row_len: input.row_len,
                };
                self.compute_rows(&local, 0, rows_rg.len())
            }
        };
        comm.gather(0, &local_vals).map(Output::F64s)
    }

    fn solve_hybrid(&self, input: &DenseInput, ctx: &HybridCtx<'_>) -> Option<Output> {
        let comm = ctx.comm();
        let rows_rg = block_range(input.out_rows, comm.size(), comm.rank());
        let row_len = input.row_len;
        let mut local = vec![0.0; rows_rg.len() * row_len];
        let lo = rows_rg.start;
        {
            let slice = pcg_shmem::UnsafeSlice::new(&mut local);
            ctx.par_for(0..rows_rg.len(), |r_local| {
                let vals = self.compute_rows(input, lo + r_local, lo + r_local + 1);
                for (c, v) in vals.into_iter().enumerate() {
                    unsafe { slice.write(r_local * row_len + c, v) };
                }
            });
        }
        comm.gather(0, &local).map(Output::F64s)
    }

    fn solve_gpu(&self, input: &DenseInput, gpu: &Gpu) -> Output {
        let dims = self.dims(input);
        let a = GpuBuffer::from_slice(&input.a);
        let b = GpuBuffer::from_slice(&if input.b.is_empty() { vec![0.0] } else { input.b.clone() });
        let out = GpuBuffer::<f64>::zeroed(input.out_rows * input.row_len);
        let elem = self.elem;
        let flops = (self.flops_per_elem)(dims);
        let total = input.out_rows * input.row_len;
        let row_len = input.row_len;
        gpu.launch_each(Launch::over(total, 256), |t, bctx| {
            let i = t.global_id();
            if i < total {
                let (r, c) = (i / row_len, i % row_len);
                let ra = |k: usize| bctx.read(&a, k);
                let rb = |k: usize| bctx.read(&b, k);
                bctx.write(&out, i, elem(&ra, &rb, dims, r, c));
                bctx.charge_flops(flops);
            }
        });
        Output::F64s(out.to_vec())
    }
}

fn isqrt(n: usize) -> usize {
    (n as f64).sqrt() as usize
}

/// The five dense linear algebra problems.
pub fn problems() -> Vec<Box<dyn Problem>> {
    vec![
        Box::new(DenseProblem {
            variant: 0,
            fn_name: "fusedAxpby",
            description: "Compute out[i] = 2*a[i] + 3*b[i] for two vectors a and b (a fused level-1 BLAS operation).",
            example_in: "a=[1,2], b=[10,20]",
            example_out: "[32.0, 64.0]",
            shape: |n| (n, 1, n, n, 1),
            elem: |a, b, _d, r, _c| 2.0 * a(r) + 3.0 * b(r),
            dist: Dist::ScatterBoth,
            flops_per_elem: |_| 3,
        }),
        Box::new(DenseProblem {
            variant: 1,
            fn_name: "gemvScaled",
            description: "Compute y = 2*A*x for an n x n row-major matrix A and vector x (level-2 BLAS).",
            example_in: "A=[[1,0],[0,1]], x=[3,4]",
            example_out: "[6.0, 8.0]",
            shape: |s| {
                let n = isqrt(s).max(4);
                (n, n, n, n, 1)
            },
            elem: |a, b, d, r, _c| {
                let mut acc = 0.0;
                for k in 0..d.a_cols {
                    acc += a(r * d.a_cols + k) * b(k);
                }
                2.0 * acc
            },
            dist: Dist::ScatterA,
            flops_per_elem: |d| 2 * d.a_cols as u64 + 1,
        }),
        Box::new(DenseProblem {
            variant: 2,
            fn_name: "gemmPlain",
            description: "Compute C = A*B for n x n row-major matrices A and B (level-3 BLAS).",
            example_in: "A=[[1,2],[3,4]], B=[[5,6],[7,8]]",
            example_out: "[[19,22],[43,50]]",
            shape: |s| {
                let n = isqrt(s).clamp(4, 160);
                (n, n, n * n, n, n)
            },
            elem: |a, b, d, r, c| {
                let mut acc = 0.0;
                for k in 0..d.a_cols {
                    acc += a(r * d.a_cols + k) * b(k * d.row_len + c);
                }
                acc
            },
            dist: Dist::ScatterA,
            flops_per_elem: |d| 2 * d.a_cols as u64,
        }),
        Box::new(DenseProblem {
            variant: 3,
            fn_name: "gramMatrix",
            description: "Compute C = A^T * A for an n x n row-major matrix A (the Gram matrix).",
            example_in: "A=[[1,2],[3,4]]",
            example_out: "[[10,14],[14,20]]",
            shape: |s| {
                let n = isqrt(s).clamp(4, 160);
                (n, n, 0, n, n)
            },
            elem: |a, _b, d, r, c| {
                let mut acc = 0.0;
                for i in 0..d.a_rows {
                    acc += a(i * d.a_cols + r) * a(i * d.a_cols + c);
                }
                acc
            },
            dist: Dist::BcastAll,
            flops_per_elem: |d| 2 * d.a_rows as u64,
        }),
        Box::new(DenseProblem {
            variant: 4,
            fn_name: "transposeScale",
            description: "Compute B = 2*A^T for an n x n row-major matrix A.",
            example_in: "A=[[1,2],[3,4]]",
            example_out: "[[2,6],[4,8]]",
            shape: |s| {
                let n = isqrt(s).max(4);
                (n, n, 0, n, n)
            },
            elem: |a, _b, d, r, c| 2.0 * a(c * d.a_cols + r),
            dist: Dist::BcastAll,
            flops_per_elem: |_| 1,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::tests_support::check_problem_all_models;

    #[test]
    fn dense_problems_agree_across_models() {
        for p in problems() {
            check_problem_all_models(&*p, 99, 400);
        }
    }

    #[test]
    fn gemm_identity_on_tiny_case() {
        // 2x2 known product via the element formula.
        let p = problems();
        let gemm = &p[2];
        let base = gemm.run_baseline(3, 16);
        if let Output::F64s(c) = &*base.output {
            assert_eq!(c.len(), 16); // 4x4 matrix for size 16
        }
    }
}
