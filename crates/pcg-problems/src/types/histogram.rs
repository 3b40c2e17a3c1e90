//! Histogram problems: bin values by a property (Table 1 "Histogram").
//!
//! All five variants share one generic shape: `items` logical items of
//! `stride` consecutive f64s each; a binning function maps an item to a
//! bucket and a weight function supplies its contribution (1.0 for
//! counting histograms). The parallel implementations demonstrate the
//! canonical strategies: privatized per-thread histograms merged under a
//! critical section (OpenMP), `ScatterView` (Kokkos), local histogram +
//! vector reduction (MPI), and global atomics (GPU).

use crate::framework::{Problem, Spec};
use crate::util;
use pcg_core::prompt::PromptSpec;
use pcg_core::{Output, ProblemId, ProblemType};
use pcg_gpusim::{Gpu, GpuBuffer, Launch};
use pcg_hybrid::HybridCtx;
use pcg_mpisim::{block_range, Comm, ReduceOp};
use pcg_patterns::{ExecSpace, ScatterView};
use pcg_shmem::{Pool, Schedule};

struct HistProblem {
    variant: usize,
    fn_name: &'static str,
    description: &'static str,
    example_in: &'static str,
    example_out: &'static str,
    nbins: usize,
    /// Consecutive f64s per logical item (2 for the 2-D histogram).
    stride: usize,
    /// Value range fed to the generator.
    gen_range: (f64, f64),
    bin: fn(&[f64]) -> usize,
    weight: fn(&[f64]) -> f64,
    /// Counting histograms report integers; weighted ones report f64s.
    integer_output: bool,
}

impl HistProblem {
    fn items(&self, input: &[f64]) -> usize {
        input.len() / self.stride
    }

    fn item<'a>(&self, input: &'a [f64], i: usize) -> &'a [f64] {
        &input[i * self.stride..(i + 1) * self.stride]
    }

    fn finish(&self, hist: Vec<f64>) -> Output {
        if self.integer_output {
            Output::I64s(hist.into_iter().map(|x| x.round() as i64).collect())
        } else {
            Output::F64s(hist)
        }
    }

    fn hist_range(&self, input: &[f64], lo: usize, hi: usize) -> Vec<f64> {
        let mut hist = vec![0.0; self.nbins];
        for i in lo..hi {
            let item = self.item(input, i);
            hist[(self.bin)(item)] += (self.weight)(item);
        }
        hist
    }
}

impl Spec for HistProblem {
    type Input = Vec<f64>;

    fn id(&self) -> ProblemId {
        ProblemId::new(ProblemType::Histogram, self.variant)
    }

    fn prompt(&self) -> PromptSpec {
        PromptSpec {
            fn_name: self.fn_name.into(),
            description: self.description.into(),
            examples: vec![(self.example_in.into(), self.example_out.into())],
            signature: "x: &[f64], hist: &mut [f64]".into(),
        }
    }

    fn default_size(&self) -> usize {
        1 << 16
    }

    fn generate(&self, seed: u64, size: usize) -> Vec<f64> {
        let mut r = util::rng(seed, Spec::id(self).index() as u64);
        util::rand_f64s(&mut r, size.max(self.stride), self.gen_range.0, self.gen_range.1)
    }

    fn input_bytes(&self, input: &Vec<f64>) -> usize {
        input.len() * 8
    }

    fn serial(&self, input: &Vec<f64>) -> Output {
        self.finish(self.hist_range(input, 0, self.items(input)))
    }

    fn solve_shmem(&self, input: &Vec<f64>, pool: &Pool) -> Output {
        // Privatized histograms: one per chunk, merged under a mutex
        // (the `#pragma omp critical` merge idiom).
        let merged = parking_lot::Mutex::new(vec![0.0f64; self.nbins]);
        pool.parallel_for_chunks(0..self.items(input), Schedule::Static { chunk: 0 }, |chunk| {
            let local = self.hist_range(input, chunk.start, chunk.end);
            let mut guard = merged.lock();
            for (m, l) in guard.iter_mut().zip(local) {
                *m += l;
            }
        });
        self.finish(merged.into_inner())
    }

    fn solve_patterns(&self, input: &Vec<f64>, space: &ExecSpace) -> Output {
        let scatter: ScatterView<f64> = ScatterView::new(self.nbins, space.concurrency());
        let items = self.items(input);
        let teams = (items / 1024).clamp(1, 64);
        space.parallel_for_teams(teams, |team| {
            let range = block_range(items, team.league_size(), team.league_rank());
            let mut access = scatter.access();
            for i in range {
                let item = self.item(input, i);
                access.add((self.bin)(item), (self.weight)(item));
            }
        });
        let mut hist = vec![0.0; self.nbins];
        scatter.contribute(&mut hist);
        self.finish(hist)
    }

    fn solve_mpi(&self, input: &Vec<f64>, comm: &Comm<'_>) -> Option<Output> {
        // Scatter whole items (stride-aligned blocks).
        let items = self.items(input);
        let chunks: Option<Vec<Vec<f64>>> = (comm.rank() == 0).then(|| {
            (0..comm.size())
                .map(|r| {
                    let rg = block_range(items, comm.size(), r);
                    input[rg.start * self.stride..rg.end * self.stride].to_vec()
                })
                .collect()
        });
        let local = comm.scatter(0, chunks);
        let hist = self.hist_range(&local, 0, local.len() / self.stride);
        comm.reduce(0, &hist, ReduceOp::Sum).map(|h| self.finish(h))
    }

    fn solve_hybrid(&self, input: &Vec<f64>, ctx: &HybridCtx<'_>) -> Option<Output> {
        let comm = ctx.comm();
        let items = self.items(input);
        let range = block_range(items, comm.size(), comm.rank());
        let nbins = self.nbins;
        let bin = self.bin;
        let weight = self.weight;
        let stride = self.stride;
        let local = ctx.par_reduce(
            range,
            vec![0.0f64; nbins],
            move |mut hist, i| {
                let item = &input[i * stride..(i + 1) * stride];
                hist[bin(item)] += weight(item);
                hist
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
        comm.reduce(0, &local, ReduceOp::Sum).map(|h| self.finish(h))
    }

    fn solve_gpu(&self, input: &Vec<f64>, gpu: &Gpu) -> Output {
        let x = GpuBuffer::from_slice(input);
        let hist = GpuBuffer::<f64>::zeroed(self.nbins);
        let stride = self.stride;
        let bin = self.bin;
        let weight = self.weight;
        let items = self.items(input);
        gpu.launch_each(Launch::over(items, 256), |t, ctx| {
            let i = t.global_id();
            if i < items {
                let mut item = [0.0f64; 2];
                for (k, slot) in item.iter_mut().enumerate().take(stride) {
                    *slot = ctx.read(&x, i * stride + k);
                }
                let item = &item[..stride];
                ctx.atomic_add(&hist, bin(item), weight(item));
            }
        });
        self.finish(hist.to_vec())
    }
}

/// The five histogram problems.
pub fn problems() -> Vec<Box<dyn Problem>> {
    vec![
        Box::new(HistProblem {
            variant: 0,
            fn_name: "fixedWidthHistogram",
            description: "Bin the elements of x into 16 equal-width buckets over [0, 16); values land in bucket floor(x).",
            example_in: "[0.5, 1.5, 1.7, 15.0]",
            example_out: "[1, 2, 0, ..., 1]",
            nbins: 16,
            stride: 1,
            gen_range: (0.0, 16.0),
            bin: |it| (it[0].floor() as usize).min(15),
            weight: |_| 1.0,
            integer_output: true,
        }),
        Box::new(HistProblem {
            variant: 1,
            fn_name: "logScaleHistogram",
            description: "Bin the elements of x by floor(log2(x + 1)) into 16 buckets.",
            example_in: "[0.0, 1.0, 3.0, 200.0]",
            example_out: "[1, 1, 1, 0, 0, 0, 0, 1, 0, ...]",
            nbins: 16,
            stride: 1,
            gen_range: (0.0, 60000.0),
            bin: |it| ((it[0] + 1.0).log2().floor() as usize).min(15),
            weight: |_| 1.0,
            integer_output: true,
        }),
        Box::new(HistProblem {
            variant: 2,
            fn_name: "histogram2d",
            description: "Bin consecutive (x, y) pairs into an 8x8 grid over [0,8)x[0,8), row-major output of 64 counts.",
            example_in: "[0.5, 0.5, 7.2, 0.1]",
            example_out: "[1, 0, ..., 1 at cell (7,0), ...]",
            nbins: 64,
            stride: 2,
            gen_range: (0.0, 8.0),
            bin: |it| {
                let r = (it[0].floor() as usize).min(7);
                let c = (it[1].floor() as usize).min(7);
                r * 8 + c
            },
            weight: |_| 1.0,
            integer_output: true,
        }),
        Box::new(HistProblem {
            variant: 3,
            fn_name: "weightedHistogram",
            description: "Accumulate |x| into 16 equal-width buckets over [0, 16) chosen by floor(|x| mod 16).",
            example_in: "[1.5, -1.25]",
            example_out: "[0.0, 2.75, 0.0, ...]",
            nbins: 16,
            stride: 1,
            gen_range: (-16.0, 16.0),
            bin: |it| ((it[0].abs() % 16.0).floor() as usize).min(15),
            weight: |it| it[0].abs(),
            integer_output: false,
        }),
        Box::new(HistProblem {
            variant: 4,
            fn_name: "byteClassHistogram",
            description: "Classify byte values (0-255) into 6 classes: digit (48-57), uppercase (65-90), lowercase (97-122), space (32), punctuation (33-47), other; count each class.",
            example_in: "[48.0, 65.0, 97.0, 32.0, 33.0, 0.0]",
            example_out: "[1, 1, 1, 1, 1, 1]",
            nbins: 6,
            stride: 1,
            gen_range: (0.0, 256.0),
            bin: |it| {
                let b = it[0] as u32;
                match b {
                    48..=57 => 0,
                    65..=90 => 1,
                    97..=122 => 2,
                    32 => 3,
                    33..=47 => 4,
                    _ => 5,
                }
            },
            weight: |_| 1.0,
            integer_output: true,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::tests_support::check_problem_all_models;

    #[test]
    fn histogram_problems_agree_across_models() {
        for p in problems() {
            check_problem_all_models(&*p, 321, 1000);
        }
    }

    #[test]
    fn counts_sum_to_items() {
        for p in problems() {
            let base = p.run_baseline(11, 640);
            if let Output::I64s(hist) = &*base.output {
                let stride = if p.prompt().fn_name == "histogram2d" { 2 } else { 1 };
                assert_eq!(hist.iter().sum::<i64>(), 640 / stride, "{}", p.id());
            }
        }
    }
}
