//! Serializable evaluation records consumed by the figure regenerators.

use crate::config::EvalConfig;
use crate::runner::QuarantineEntry;
use pcg_core::TaskId;
use pcg_metrics::TaskSamples;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Everything recorded for one (model, task) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Which task.
    pub task: TaskId,
    /// The 20-sample low-temperature set: build/correct flags plus the
    /// headline-n performance ratio per sample.
    pub low: TaskSamples,
    /// The 200-sample high-temperature set (correctness only), when
    /// collected.
    pub high: Option<TaskSamples>,
    /// Per-resource-count ratios aligned with the low samples
    /// (Figure 5 sweeps; only OpenMP/Kokkos/MPI tasks carry these).
    pub sweep: BTreeMap<u32, Vec<f64>>,
}

/// All tasks for one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelRecord {
    /// Model display name (Table 2).
    pub model: String,
    /// Per-task records in canonical task order.
    pub tasks: Vec<TaskRecord>,
}

/// A complete evaluation: the config that produced it plus per-model
/// records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalRecord {
    /// The configuration used.
    pub config: EvalConfig,
    /// One record per evaluated model, zoo order.
    pub models: Vec<ModelRecord>,
}

impl EvalRecord {
    /// Look up a model's record by name.
    pub fn model(&self, name: &str) -> Option<&ModelRecord> {
        self.models.iter().find(|m| m.model == name)
    }
}

impl AsRef<[ModelRecord]> for EvalRecord {
    fn as_ref(&self) -> &[ModelRecord] {
        &self.models
    }
}

/// Scheduler observability for one evaluation run.
///
/// Deliberately **not** part of [`EvalRecord`]: stats carry wall-clock
/// measurements that vary run to run and with the worker count, while
/// the record is required to be byte-identical for a given config
/// regardless of `--jobs`. The pipeline writes stats to a sidecar file
/// instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalStats {
    /// Worker count the grid ran with.
    pub jobs: usize,
    /// Grid cells evaluated (models × tasks).
    pub cells: usize,
    /// Candidate executions actually performed (cache misses).
    pub executions: u64,
    /// Outcome requests served from the shared cache.
    pub cache_hits: u64,
    /// Candidate bodies that panicked (captured per candidate).
    pub panics: u64,
    /// Candidates that blew the wall-clock time limit.
    pub timeouts: u64,
    /// Timed-out workers that unwound cooperatively within the grace
    /// period after cancellation.
    pub cancelled: u64,
    /// Timed-out workers that ignored cancellation and were abandoned
    /// (leaked threads). Zero on a fully cooperative run.
    pub abandoned: u64,
    /// Hard-failed candidates re-executed under `retry_flaky`.
    pub retries: u64,
    /// Retried candidates whose second attempt no longer hard-failed.
    pub flaky: u64,
    /// Grid cells replayed from a write-ahead journal instead of
    /// evaluated (zero for a non-resumed run).
    pub resumed_cells: usize,
    /// Candidates that hard-failed every attempt they were given
    /// (deterministically sorted).
    pub quarantined: Vec<QuarantineEntry>,
    /// Seconds measuring sequential baselines (summed across workers).
    pub baseline_s: f64,
    /// Seconds building/running candidates (summed across workers).
    pub run_s: f64,
    /// Seconds validating outputs and API usage (summed across workers).
    pub validate_s: f64,
    /// End-to-end wall-clock seconds for the grid.
    pub wall_s: f64,
    /// Substrate-lease checkouts served by a warm substrate (zero when
    /// the warm path is disabled via `PCG_COLD`).
    pub lease_hits: u64,
    /// Substrate-lease checkouts that built a fresh substrate.
    pub lease_misses: u64,
    /// Leased substrates discarded because their candidate unwound
    /// (panic or cooperative cancellation) while holding them.
    pub pools_poisoned: u64,
    /// Input-instance lookups served by the memoization cache.
    pub input_cache_hits: u64,
    /// Seconds constructing substrates on lease misses (summed across
    /// workers) — the surviving share of per-run pool setup.
    pub pool_setup_s: f64,
    /// Simulated MPI ranks run as multiplexed fibers instead of OS
    /// threads (zero when every world ran thread-per-rank).
    #[serde(default)]
    pub ranks_multiplexed: u64,
    /// Simulated message payload bytes moved by reference (shared
    /// buffer forwarding) instead of copied.
    #[serde(default)]
    pub bytes_zero_copied: u64,
    /// Stale journal frames (torn bytes, untrusted tails, shadowed
    /// duplicate appends) folded away by compaction on resume. Zero on
    /// a clean run.
    #[serde(default)]
    pub journal_compactions: u64,
    /// Journal frames replay refused as corrupt (torn tail, CRC
    /// mismatch, undecodable payload, failed cell self-check) across
    /// every journal this run loaded. Each rejection is also reported
    /// on stderr with its byte offset, frame index, and cell id. Zero
    /// on a clean run.
    #[serde(default)]
    pub journal_frames_rejected: u64,
    /// Worlds failed fast by the wait-for-graph deadlock detector
    /// instead of burning the wall-clock timeout. Like `executions`,
    /// the count is per-process (outcome dedup means a shard topology
    /// changes how many containment worlds actually run), so it lives
    /// in the sidecar but outside [`stats_projection`].
    #[serde(default)]
    pub deadlocks_detected: u64,
    /// Fiber stack overflows converted into verdicts by the guard page.
    #[serde(default)]
    pub stack_overflows_caught: u64,
    /// SIGSEGV faults classified as guard-page hits. Equal to
    /// `stack_overflows_caught` on a healthy run; a divergence means a
    /// classified fault never became a verdict.
    #[serde(default)]
    pub guard_faults: u64,
    /// Set when the supervisor's `max_abandoned` leak budget was
    /// exhausted at least once during the run: new isolated workers had
    /// to block until the leak count dropped, so wall-clock stats are
    /// degraded. Surfaced loudly by `report` — a run with this flag set
    /// needs a larger budget or better-behaved candidates.
    #[serde(default)]
    pub leak_budget_exhausted: bool,
    /// Whole cells this worker stole from lagging siblings (claimed
    /// via a journal claim frame, evaluated locally, and journaled
    /// here). Like `executions`, inherently per-topology — a
    /// single-process run never steals — so it lives outside
    /// [`stats_projection`].
    #[serde(default)]
    pub cells_stolen: u64,
    /// Steal candidates abandoned because a sibling's claim frame was
    /// observed first (claim arbitration; each contested cell counts
    /// once per observer).
    #[serde(default)]
    pub steal_conflicts: u64,
    /// Sibling-journal progress scans performed while looking for
    /// stealable cells (including the pre-evaluation scan a stalled
    /// victim uses to skip cells already taken from it).
    #[serde(default)]
    pub steal_scans: u64,
    /// Measured wall seconds per freshly evaluated cell, sorted by cell
    /// id. Replayed cells contribute no entry (their wall was paid in a
    /// previous run). Feeds the `.cols` sidecar's wall column, which
    /// the next run's `--priors` turns into a scheduling cost table.
    #[serde(default)]
    pub cell_walls: Vec<CellWall>,
    /// Per-process wall-clock seconds, filled in by `--merge-shards`:
    /// one entry per shard worker in shard order, plus one for the
    /// merge's own gap-fill when any cells were missing. Empty for
    /// single-process runs. The max/mean ratio is the merge-gate
    /// imbalance `report` surfaces.
    #[serde(default)]
    pub shard_walls: Vec<f64>,
}

/// One cell's measured wall seconds, keyed by its [`pcg_core::CellId`]
/// raw value (the id is already config-scoped, so the pair is
/// unambiguous across models and tasks).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellWall {
    /// The cell's global address (`CellId.0`).
    pub cell: u64,
    /// Wall seconds the cell's evaluation took in this run.
    pub secs: f64,
}

/// The cross-process-deterministic projection of an [`EvalRecord`].
///
/// Separate cold runs legitimately differ in the measured timing floats
/// (performance ratios, sweep values): the virtual-time clocks contain
/// a genuinely measured compute component. Everything else — model
/// order, task identity and order, build flags, correctness flags,
/// which sweep resource counts were collected — must be identical
/// between a clean run and a killed-then-resumed run, between warm and
/// cold execution, between thread-per-rank and multiplexed MPI, and
/// between a sharded and a single-process run.
///
/// This is the **single definition** of that projection: the
/// warm-path, mux, and shard projection-equality tests all call it,
/// and CI diffs it across processes via the `project_records` binary,
/// which reads a records cache's cells without its config, hence the
/// `AsRef` bound.
pub fn projection(rec: &impl AsRef<[ModelRecord]>) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for m in rec.as_ref() {
        let _ = writeln!(s, "model={}", m.model);
        for t in &m.tasks {
            let _ = writeln!(
                s,
                "task={:?} built={:?} correct={:?} high_correct={:?} sweep_ns={:?}",
                t.task,
                t.low.built,
                t.low.correct,
                t.high.as_ref().map(|h| &h.correct),
                t.sweep.keys().collect::<Vec<_>>(),
            );
        }
    }
    s
}

/// The deterministic projection of an [`EvalStats`] sidecar: the
/// fields that must agree between a sharded run (after merge) and a
/// single-process run. Timing floats and cache-locality counters
/// (executions, cache hits) legitimately differ across process
/// topologies — each worker process dedups executions only within its
/// own shard — but the grid shape and the quarantine verdicts may not.
pub fn stats_projection(stats: &EvalStats) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "cells={}", stats.cells);
    for q in &stats.quarantined {
        let _ = writeln!(s, "quarantined={:?} kind={} n={} error={}", q.task, q.kind, q.n, q.error);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::{ExecutionModel, ProblemId, ProblemType};

    #[test]
    fn record_roundtrips_through_json() {
        let task = ProblemId::new(ProblemType::Scan, 1).task(ExecutionModel::Mpi);
        let rec = EvalRecord {
            config: EvalConfig::smoke(),
            models: vec![ModelRecord {
                model: "GPT-4".into(),
                tasks: vec![TaskRecord {
                    task,
                    low: TaskSamples {
                        built: vec![true, false],
                        correct: vec![true, false],
                        ratio: vec![3.0, 0.0],
                    },
                    high: None,
                    sweep: BTreeMap::from([(4u32, vec![2.0, 0.0])]),
                }],
            }],
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: EvalRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.models[0].model, "GPT-4");
        assert_eq!(back.models[0].tasks[0].task, task);
        assert_eq!(back.model("GPT-4").unwrap().tasks.len(), 1);
        assert!(back.model("nope").is_none());
    }

    #[test]
    fn stats_sidecar_with_dropped_queue_wait_fields_still_loads() {
        // A sidecar as written before `queue_wait_s`/`max_queue_wait_s`
        // were dropped: merges and `project_records --stats` still read
        // such files from earlier runs.
        let old = r#"{"jobs":2,"cells":3,"executions":9,"cache_hits":4,"panics":0,
            "timeouts":1,"cancelled":1,"abandoned":0,"retries":0,"flaky":0,
            "resumed_cells":0,"quarantined":[],"queue_wait_s":67378.5,
            "max_queue_wait_s":27.9,"baseline_s":0.5,"run_s":1.25,"validate_s":0.25,
            "wall_s":2.0,"lease_hits":5,"lease_misses":2,"pools_poisoned":0,
            "input_cache_hits":7,"pool_setup_s":0.125,"ranks_multiplexed":512,
            "bytes_zero_copied":0,"journal_compactions":0,"journal_frames_rejected":0,
            "deadlocks_detected":0,"stack_overflows_caught":0,"guard_faults":0,
            "leak_budget_exhausted":false,"cells_stolen":0,"steal_conflicts":0,
            "steal_scans":0,"cell_walls":[{"cell":7,"secs":0.75}],"shard_walls":[]}"#;
        let stats: EvalStats = serde_json::from_str(old).expect("old sidecar loads");
        assert_eq!((stats.jobs, stats.cells, stats.executions), (2, 3, 9));
        assert_eq!(stats.wall_s, 2.0);
        assert_eq!(stats.ranks_multiplexed, 512);
        assert_eq!(stats.cell_walls, vec![CellWall { cell: 7, secs: 0.75 }]);
        let again = serde_json::to_string(&stats).expect("stats serialize");
        assert!(!again.contains("queue_wait"), "dropped fields are not written back");
    }
}
