//! Evaluation pipeline stages, for per-stage timing/observability.
//!
//! The harness attributes every second of an evaluation to one of these
//! stages; the scheduler aggregates them into an `EvalStats` record so a
//! grid sweep can report where the wall-clock went (baseline
//! measurement vs. candidate runs vs. validation).

use serde::{Deserialize, Serialize};

/// One stage of evaluating a candidate cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// Measuring (or re-measuring) the sequential baseline.
    Baseline,
    /// Building + running the candidate (including timing repetitions).
    Run,
    /// Output comparison against the oracle and the API-usage check.
    Validate,
}

impl Stage {
    /// All stages, reporting order.
    pub const ALL: [Stage; 3] = [Stage::Baseline, Stage::Run, Stage::Validate];

    /// Short stable label used in stats tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Baseline => "baseline",
            Stage::Run => "run",
            Stage::Validate => "validate",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_ordered() {
        let labels: Vec<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels, dedup);
        assert!(Stage::Baseline < Stage::Run);
    }

    #[test]
    fn stage_serializes_as_variant_name() {
        let json = serde_json::to_string(&Stage::Validate).unwrap();
        assert_eq!(json, "\"Validate\"");
        assert_eq!(serde_json::from_str::<Stage>(&json).unwrap(), Stage::Validate);
    }
}
