//! Cost priors for adaptive scheduling: a per-cell expected-cost table
//! that turns a previous run's measured wall seconds into dispatch and
//! partitioning decisions.
//!
//! The evaluation grid is wildly heterogeneous — an MPI-512 timeout
//! cell costs orders of magnitude more than a serial build-failure
//! cell — so slot-order dispatch and `id % count` sharding both let a
//! single unlucky straggler gate the whole run. A [`CostPriors`] table
//! supplies `cost(model, task)` estimates that the scheduler uses for
//! longest-processing-time (LPT) dispatch and [`crate::plan::WorkPlan`]
//! uses for cost-weighted shard partitioning.
//!
//! Two sources, in preference order:
//!
//! 1. **Measured**: a prior run's per-cell wall seconds, as its stats
//!    sidecar records them, keyed by `(model name, task dense index)`.
//! 2. **Default profile**: a committed analytic table keyed by
//!    execution model × rank/thread count × problem kind, used when no
//!    measured walls are available (and as the per-cell fallback for
//!    cells the prior run has no positive measurement for).
//!
//! Every table is **hash-stamped** ([`CostPriors::hash`], FNV-1a over
//! the canonical entry encoding): shard workers record the stamp in
//! their journal headers and the merge step rejects a worker that
//! scheduled from different priors, so a weighted partition is provably
//! derived from identical inputs in every process. Priors affect
//! *scheduling only* — execution order and shard membership — never
//! cell identity, sample streams, or record bytes.

use crate::plan::{fnv1a_extend, fnv1a_start};
use crate::task::TaskId;
use crate::ExecutionModel;
use std::collections::BTreeMap;

/// Version tag folded into every priors hash; bump on any change to
/// the encoding or to the default profile's analytic weights.
const PRIORS_VERSION: &[u8] = b"pcg-cost-priors-v1";

/// A hash-stamped expected-cost table for grid cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CostPriors {
    /// Measured costs in seconds, keyed by `(model name, task dense
    /// index)`. Empty for the default profile.
    entries: BTreeMap<(String, u32), f64>,
    /// Where the table came from, for logs ("default-profile" or a
    /// records cache path).
    label: String,
    /// FNV-1a stamp over the canonical entry encoding.
    hash: u64,
}

impl CostPriors {
    /// Build a table from measured `(model, task index, seconds)`
    /// entries. Non-finite or non-positive costs are dropped: a zero
    /// wall means "never measured" (e.g. a cell replayed from a
    /// journal), and those cells fall back to the default profile.
    pub fn from_entries(
        label: &str,
        entries: impl IntoIterator<Item = (String, u32, f64)>,
    ) -> CostPriors {
        let entries: BTreeMap<(String, u32), f64> = entries
            .into_iter()
            .filter(|&(_, _, c)| c.is_finite() && c > 0.0)
            .map(|(m, t, c)| ((m, t), c))
            .collect();
        let mut h = fnv1a_extend(fnv1a_start(), PRIORS_VERSION);
        for ((model, task), cost) in &entries {
            h = fnv1a_extend(h, model.as_bytes());
            h = fnv1a_extend(h, &[0xff]);
            h = fnv1a_extend(h, &task.to_le_bytes());
            h = fnv1a_extend(h, &cost.to_bits().to_le_bytes());
        }
        CostPriors { entries, label: label.to_string(), hash: h }
    }

    /// The committed default profile: no measured entries, every lookup
    /// answered by [`CostPriors::default_cost`]. Identical (and
    /// identically stamped) in every process and on every host.
    pub fn default_profile() -> CostPriors {
        CostPriors {
            entries: BTreeMap::new(),
            label: "default-profile".to_string(),
            hash: fnv1a_extend(fnv1a_start(), PRIORS_VERSION),
        }
    }

    /// The table's provenance label, for logs.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The FNV-1a stamp over the canonical entry encoding. Two
    /// processes holding tables with equal stamps hold entry-for-entry
    /// identical tables (and therefore derive identical partitions).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of measured entries (zero for the default profile).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table carries no measured entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Expected cost of cell `(model, task)` in (relative) seconds:
    /// the measured entry when one exists, else the analytic default.
    /// Always finite and positive.
    ///
    /// `model` is a model-*row* label: on multi-variant grids it carries
    /// a `@variant` suffix, and the analytic fallback scales by the
    /// variant's cost factor so weighted sharding still sees a per-row
    /// signal instead of collapsing every variant of a task into one
    /// uniform bin. Bare labels (every single-variant grid) hit factor
    /// 1.0 and cost exactly what they always did.
    pub fn cost(&self, model: &str, task: TaskId) -> f64 {
        // BTreeMap<(String, u32)> cannot be probed with (&str, u32)
        // without allocating; a range over the owned key is still
        // allocation-per-call, so just allocate the probe key — cost()
        // is called once per cell per run, not in an inner loop.
        self.entries
            .get(&(model.to_string(), task.index() as u32))
            .copied()
            .unwrap_or_else(|| {
                let (_, variant) = crate::prompt::split_label(model);
                Self::default_cost(task) * variant.cost_factor()
            })
    }

    /// The committed analytic cost profile, keyed by execution model ×
    /// headline rank/thread count × problem kind. The absolute scale is
    /// arbitrary (only ratios matter to LPT); the shape encodes what
    /// the substrates actually cost: distributed worlds dominate
    /// (hundreds of ranks per candidate, plus resource sweeps),
    /// threaded models carry sweeps too, GPU emulation and serial are
    /// cheap.
    pub fn default_cost(task: TaskId) -> f64 {
        let n = f64::from(task.model.headline_n().max(1));
        let base = match task.model {
            ExecutionModel::Serial => 1.0,
            ExecutionModel::OpenMp | ExecutionModel::Kokkos => 1.5 + 0.3 * n.log2(),
            ExecutionModel::Mpi => 2.0 + 0.6 * n.log2(),
            ExecutionModel::MpiOpenMp => 2.0 + 0.5 * n.log2(),
            ExecutionModel::Cuda | ExecutionModel::Hip => 1.2,
        };
        // Problem kinds differ by a smaller factor than substrates do;
        // a mild deterministic spread keeps LPT from seeing spurious
        // ties without pretending we know per-kind constants.
        let kind = 1.0 + 0.05 * task.problem.ptype.index() as f64;
        base * kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::all_tasks;
    use crate::{ProblemId, ProblemType};

    #[test]
    fn default_profile_is_stable_and_positive() {
        let a = CostPriors::default_profile();
        let b = CostPriors::default_profile();
        assert_eq!(a.hash(), b.hash(), "default profile must stamp identically");
        assert!(a.is_empty());
        for t in all_tasks() {
            let c = a.cost("GPT-4", t);
            assert!(c.is_finite() && c > 0.0, "cost of {t} must be positive, got {c}");
        }
        // The profile orders substrates the way the harness costs do.
        let p = ProblemId::new(ProblemType::Sort, 0);
        let serial = a.cost("m", p.task(ExecutionModel::Serial));
        let omp = a.cost("m", p.task(ExecutionModel::OpenMp));
        let mpi = a.cost("m", p.task(ExecutionModel::Mpi));
        assert!(serial < omp && omp < mpi, "{serial} {omp} {mpi}");
    }

    #[test]
    fn measured_entries_override_the_profile_and_stamp_the_hash() {
        let t = ProblemId::new(ProblemType::Reduce, 1).task(ExecutionModel::Serial);
        let entries = vec![("GPT-4".to_string(), t.index() as u32, 42.5f64)];
        let p = CostPriors::from_entries("sidecar", entries.clone());
        assert_eq!(p.len(), 1);
        assert_eq!(p.cost("GPT-4", t), 42.5);
        // Unmeasured cells fall back to the analytic default.
        let other = ProblemId::new(ProblemType::Reduce, 2).task(ExecutionModel::Serial);
        assert_eq!(p.cost("GPT-4", other), CostPriors::default_cost(other));
        assert_eq!(p.cost("CodeLlama-7B", t), CostPriors::default_cost(t));
        // The stamp covers the entries: same entries, same hash;
        // different cost, different hash; and measured != default.
        assert_eq!(p.hash(), CostPriors::from_entries("elsewhere", entries).hash());
        let p2 = CostPriors::from_entries(
            "sidecar",
            vec![("GPT-4".to_string(), t.index() as u32, 43.0f64)],
        );
        assert_ne!(p.hash(), p2.hash());
        assert_ne!(p.hash(), CostPriors::default_profile().hash());
    }

    #[test]
    fn variant_rows_scale_the_analytic_fallback() {
        use crate::prompt::PromptVariant;
        let p = CostPriors::default_profile();
        let t = ProblemId::new(ProblemType::Stencil, 0).task(ExecutionModel::Mpi);
        let bare = p.cost("GPT-4", t);
        assert_eq!(bare, CostPriors::default_cost(t), "bare labels are unchanged");
        // Each variant row gets a distinct, positive default cost.
        let mut costs = vec![bare];
        for v in [PromptVariant::Naive, PromptVariant::Student, PromptVariant::RagAugmented] {
            let c = p.cost(&crate::prompt::row_label("GPT-4", v), t);
            assert!(c.is_finite() && c > 0.0);
            assert_eq!(c, CostPriors::default_cost(t) * v.cost_factor());
            costs.push(c);
        }
        costs.sort_by(f64::total_cmp);
        costs.dedup();
        assert_eq!(costs.len(), 4, "variant rows must not collapse to uniform bins");
        // Measured entries keyed by the full row label still win.
        let row = crate::prompt::row_label("GPT-4", PromptVariant::Naive);
        let m = CostPriors::from_entries(
            "sidecar",
            vec![(row.clone(), t.index() as u32, 9.75f64)],
        );
        assert_eq!(m.cost(&row, t), 9.75);
    }

    #[test]
    fn unmeasurable_entries_are_dropped() {
        let p = CostPriors::from_entries(
            "sidecar",
            vec![
                ("m".to_string(), 0, 0.0),
                ("m".to_string(), 1, -1.0),
                ("m".to_string(), 2, f64::NAN),
                ("m".to_string(), 3, f64::INFINITY),
            ],
        );
        assert!(p.is_empty(), "zero/negative/non-finite walls mean 'never measured'");
        assert_eq!(p.hash(), CostPriors::default_profile().hash());
    }
}
