//! Correctness-rate calibration tables.
//!
//! The absolute `pass@1` levels per (model, execution model) and the
//! problem-type difficulty multipliers are *inputs* transcribed from the
//! paper's reported aggregates and figure shapes (Figures 1–3):
//!
//! * every model does best on Serial, then OpenMP, then Kokkos (large
//!   models) or CUDA/HIP, with MPI and MPI+OpenMP worst;
//! * small models do disproportionately badly on Kokkos (little Kokkos
//!   in training data);
//! * structured/dense problem types are easiest, sparse/unstructured
//!   hardest, with transform best and sparse linear algebra worst.

use pcg_core::{ExecutionModel, ProblemType, PromptVariant, TaskId};
use serde::{Deserialize, Serialize};

/// Per-model calibration: base rates and behavioral knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// `pass@1`-like base rate per execution model (before the
    /// problem-type adjustment), indexed by [`ExecutionModel::index`].
    pub exec_rate: [f64; 7],
    /// Probability that a *correct* sample is efficiently parallel.
    pub efficient_share: f64,
    /// Probability (at temperature 0.2) that all samples for a task
    /// collapse to a single output — the paper's observation about
    /// CodeLlama-34B and GPT-4 "confidence".
    pub collapse_prob: f64,
    /// Failure-mode mix `[build, wrong, sequential, crash, timeout,
    /// flaky, deadlock, stackhog]` (normalized internally; `sequential`
    /// mass folds into `wrong` for serial tasks, where there is no
    /// parallel API to skip). The `flaky`, `deadlock`, and `stackhog`
    /// slots are zero for the calibrated zoo — the paper scores single
    /// runs and does not decompose hangs — and are exposed for
    /// flakiness/containment studies via [`crate::SyntheticModel::custom`]
    /// and [`crate::SyntheticModel::with_chaos`].
    pub failure_mix: [f64; 8],
}

/// Problem-type difficulty multiplier (Figure 3 shape), shared across
/// models, with a bonus used only by the small open models whose graph
/// performance is disproportionately good in the paper.
pub fn ptype_multiplier(ptype: ProblemType, small_model: bool) -> f64 {
    
    match ptype {
        ProblemType::Transform => 1.75,
        ProblemType::Reduce => 1.45,
        ProblemType::Search => 1.40,
        ProblemType::Histogram => 1.20,
        ProblemType::Stencil => 1.15,
        ProblemType::DenseLinearAlgebra => 1.10,
        ProblemType::Graph => {
            if small_model {
                1.15
            } else {
                0.95
            }
        }
        ProblemType::Sort => 0.70,
        ProblemType::Scan => 0.68,
        ProblemType::FourierTransform => 0.60,
        ProblemType::Geometry => 0.58,
        ProblemType::SparseLinearAlgebra => 0.42,
    }
}

impl Calibration {
    /// Probability that one generated sample for `task` is correct.
    pub fn p_correct(&self, task: TaskId, small_model: bool) -> f64 {
        let base = self.exec_rate[task.model.index()];
        (base * ptype_multiplier(task.problem.ptype, small_model)).clamp(0.01, 0.97)
    }

    /// Average `p_correct` over the parallel tasks (sanity metric used
    /// in tests against the paper's reported parallel pass@1).
    pub fn mean_parallel_rate(&self, small_model: bool) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for task in pcg_core::task::all_tasks() {
            if task.model.is_parallel() {
                total += self.p_correct(task, small_model);
                count += 1;
            }
        }
        total / count as f64
    }

    /// The calibration for this model under a prompt tier.
    ///
    /// [`PromptVariant::Expert`] — the default, the paper's engineered
    /// prompt — is the **identity**: `self` is returned with zero
    /// arithmetic applied, so default-variant sample streams are
    /// byte-identical to the pre-variant harness. The other tiers apply
    /// deterministic deltas shaped by the related-work findings:
    ///
    /// * **Naive** (no instruction, no header): correctness drops hard
    ///   and the failure mass shifts toward sequential fallback — with
    ///   no "compute in parallel" sentence, models mostly emit serial
    ///   code.
    /// * **Student** (instruction, no header): moderate drop, with
    ///   extra build failures (the paper found the include/use header
    ///   load-bearing for using the right programming model's API).
    /// * **RagAugmented** (expert + retrieved reference): correctness
    ///   and parallel quality improve, and mode collapse eases — the
    ///   reference anchors the output distribution.
    pub fn with_variant(self, variant: PromptVariant) -> Calibration {
        match variant {
            PromptVariant::Expert => self,
            PromptVariant::Naive => {
                let mut c = self;
                for r in &mut c.exec_rate {
                    *r *= 0.72;
                }
                c.efficient_share *= 0.90;
                c.failure_mix[2] += 0.25;
                c
            }
            PromptVariant::Student => {
                let mut c = self;
                for r in &mut c.exec_rate {
                    *r *= 0.88;
                }
                c.failure_mix[0] += 0.10;
                c
            }
            PromptVariant::RagAugmented => {
                let mut c = self;
                for r in &mut c.exec_rate {
                    *r *= 1.18;
                }
                c.efficient_share = (c.efficient_share * 1.10).min(0.95);
                c.collapse_prob *= 0.90;
                c
            }
        }
    }
}

/// Build the exec-rate row from a serial rate and a parallel-average
/// target, distributing the parallel mass per the paper's ordering:
/// OpenMP 1.55x, Kokkos (kokkos_factor), CUDA 1.05x, HIP 1.0x,
/// MPI 0.5x, hybrid 0.45x of the parallel mean (pre-normalized).
pub fn exec_rates(serial: f64, parallel_mean: f64, kokkos_factor: f64) -> [f64; 7] {
    let raw = [1.55, kokkos_factor, 1.05, 1.0, 0.5, 0.45];
    let raw_mean: f64 = raw.iter().sum::<f64>() / raw.len() as f64;
    let mut rates = [0.0; 7];
    rates[ExecutionModel::Serial.index()] = serial;
    for (i, m) in ExecutionModel::PARALLEL.iter().enumerate() {
        // Order in PARALLEL: OpenMp, Kokkos, Mpi, MpiOpenMp, Cuda, Hip —
        // map our ordering accordingly.
        let factor = match m {
            ExecutionModel::OpenMp => raw[0],
            ExecutionModel::Kokkos => raw[1],
            ExecutionModel::Cuda => raw[2],
            ExecutionModel::Hip => raw[3],
            ExecutionModel::Mpi => raw[4],
            ExecutionModel::MpiOpenMp => raw[5],
            ExecutionModel::Serial => unreachable!(),
        };
        let _ = i;
        rates[m.index()] = parallel_mean * factor / raw_mean;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_rates_preserve_parallel_mean() {
        let rates = exec_rates(0.8, 0.4, 1.3);
        let par_mean: f64 =
            ExecutionModel::PARALLEL.iter().map(|m| rates[m.index()]).sum::<f64>() / 6.0;
        assert!((par_mean - 0.4).abs() < 1e-12);
        assert_eq!(rates[0], 0.8);
    }

    #[test]
    fn exec_ordering_matches_paper() {
        let r = exec_rates(0.8, 0.4, 1.3);
        assert!(r[ExecutionModel::Serial.index()] > r[ExecutionModel::OpenMp.index()]);
        assert!(r[ExecutionModel::OpenMp.index()] > r[ExecutionModel::Kokkos.index()]);
        assert!(r[ExecutionModel::Kokkos.index()] > r[ExecutionModel::Cuda.index()]);
        assert!(r[ExecutionModel::Cuda.index()] > r[ExecutionModel::Mpi.index()]);
        assert!(r[ExecutionModel::Mpi.index()] > r[ExecutionModel::MpiOpenMp.index()]);
    }

    #[test]
    fn transform_easiest_sparse_hardest() {
        let mults: Vec<f64> =
            ProblemType::ALL.iter().map(|&t| ptype_multiplier(t, false)).collect();
        let max = mults.iter().cloned().fold(f64::MIN, f64::max);
        let min = mults.iter().cloned().fold(f64::MAX, f64::min);
        assert_eq!(ptype_multiplier(ProblemType::Transform, false), max);
        assert_eq!(ptype_multiplier(ProblemType::SparseLinearAlgebra, false), min);
    }

    #[test]
    fn variant_deltas_order_correctness_and_expert_is_identity() {
        let base = Calibration {
            exec_rate: exec_rates(0.8, 0.4, 1.3),
            efficient_share: 0.7,
            collapse_prob: 0.2,
            failure_mix: [0.2, 0.4, 0.15, 0.13, 0.12, 0.0, 0.0, 0.0],
        };
        assert_eq!(
            base.clone().with_variant(PromptVariant::Expert),
            base,
            "the default variant must be a bit-exact identity"
        );
        let rate = |v: PromptVariant| base.clone().with_variant(v).mean_parallel_rate(false);
        let naive = rate(PromptVariant::Naive);
        let student = rate(PromptVariant::Student);
        let expert = rate(PromptVariant::Expert);
        let rag = rate(PromptVariant::RagAugmented);
        assert!(
            naive < student && student < expert && expert < rag,
            "tiers must order correctness: {naive} {student} {expert} {rag}"
        );
        // Naive shifts failure mass toward sequential fallback.
        let n = base.clone().with_variant(PromptVariant::Naive);
        assert!(n.failure_mix[2] > base.failure_mix[2]);
        // Student adds build failures.
        let s = base.clone().with_variant(PromptVariant::Student);
        assert!(s.failure_mix[0] > base.failure_mix[0]);
        // RAG improves parallel quality and eases collapse.
        let r = base.clone().with_variant(PromptVariant::RagAugmented);
        assert!(r.efficient_share > base.efficient_share);
        assert!(r.collapse_prob < base.collapse_prob);
    }

    #[test]
    fn small_models_relatively_better_at_graph() {
        assert!(
            ptype_multiplier(ProblemType::Graph, true)
                > ptype_multiplier(ProblemType::Graph, false)
        );
    }
}
