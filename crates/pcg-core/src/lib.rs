//! # pcg-core
//!
//! Core vocabulary for **PCGBench-rs**, a Rust reproduction of the PCGBench
//! benchmark from *"Can Large Language Models Write Parallel Code?"*
//! (Nichols et al., HPDC 2024).
//!
//! This crate defines the benchmark's data model:
//!
//! * [`ProblemType`] — the twelve computational problem categories (Table 1),
//! * [`ExecutionModel`] — the seven execution models (Serial, OpenMP, Kokkos,
//!   MPI, MPI+OpenMP, CUDA, HIP),
//! * [`ProblemId`] / [`TaskId`] — the 60 problems and 420 tasks,
//! * [`Output`] — a tolerant, typed value for validating candidate results,
//! * [`usage`] — substrate API instrumentation used by the harness to detect
//!   sequential fallbacks (the paper's "does it actually use the parallel
//!   programming model" check), and the per-evaluation [`usage::Context`]
//!   the substrates read their settings from and count their events into,
//! * [`cancel`] — cooperative cancellation tokens the harness uses to stop
//!   runaway candidates at the time limit,
//! * [`plan`] — the cell-addressed work model: globally stable
//!   [`CellId`]s for every (config, model, task) cell and deterministic
//!   [`WorkPlan`]s that the harness shards across processes,
//! * [`priors`] — hash-stamped per-cell cost tables ([`CostPriors`])
//!   that drive LPT dispatch and cost-weighted shard partitioning,
//! * [`frame`] — the CRC-checked binary frame codec underlying the
//!   harness's v3 write-ahead journal,
//! * [`rng`] — deterministic per-task random streams,
//! * [`PcgError`] — the failure taxonomy shared by substrates and harness.
//!
//! Downstream crates build the substrates (`pcg-shmem`, `pcg-patterns`,
//! `pcg-mpisim`, `pcg-hybrid`, `pcg-gpusim`), the problem suite
//! (`pcg-problems`), the synthetic model zoo (`pcg-models`), the metric
//! estimators (`pcg-metrics`) and the evaluation pipeline (`pcg-harness`).

pub mod cancel;
pub mod candidate;
pub mod error;
pub mod exec;
pub mod frame;
pub mod output;
pub mod plan;
pub mod priors;
pub mod problem_type;
pub mod prompt;
pub mod rng;
pub mod task;
pub mod usage;

pub use cancel::CancelToken;
pub use candidate::{CandidateKind, Corruption, Quality};
pub use error::PcgError;
pub use exec::ExecutionModel;
pub use output::Output;
pub use plan::{CellId, PlanCell, ShardSpec, WorkPlan};
pub use priors::CostPriors;
pub use problem_type::ProblemType;
pub use prompt::PromptVariant;
pub use task::{ProblemId, TaskId};

/// Number of problem types in the benchmark (Table 1).
pub const NUM_PROBLEM_TYPES: usize = 12;
/// Number of problems per problem type.
pub const PROBLEMS_PER_TYPE: usize = 5;
/// Number of execution models.
pub const NUM_EXECUTION_MODELS: usize = 7;
/// Total number of tasks: 12 types x 5 problems x 7 execution models = 420.
pub const NUM_TASKS: usize = NUM_PROBLEM_TYPES * PROBLEMS_PER_TYPE * NUM_EXECUTION_MODELS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_count_matches_paper() {
        assert_eq!(NUM_TASKS, 420);
        assert_eq!(task::all_tasks().count(), 420);
    }
}
