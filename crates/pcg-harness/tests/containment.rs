//! Containment conformance: a chaos-injected grid — `Deadlock` and
//! `StackHog` candidates drawn at calibrated rates — must fail fast
//! through the wait-for-graph detector and the guard page instead of
//! burning wall-clock timeouts or leaking workers, and the resulting
//! records must keep every determinism guarantee the clean grid has:
//! projection byte-equality across `--jobs` counts and across shard
//! geometries.
//!
//! Fiber containment needs the x86_64 context switch and mmap guard
//! pages; on other targets the framework substitutes static verdicts
//! and the counters stay zero, so the battery is gated to the
//! supported platform (the same gate `sched::supported()` applies at
//! runtime).

#![cfg(all(target_arch = "x86_64", unix))]

use pcg_core::plan::ShardSpec;
use pcg_core::{ExecutionModel, ProblemId, ProblemType, TaskId};
use pcg_harness::config::EvalConfig;
use pcg_harness::eval::{assemble, evaluate_cells_priors, evaluate_with, plan_for};
use pcg_harness::journal::{config_hash, Replay};
use pcg_harness::record::projection;
use pcg_harness::runner::SharedRunner;
use pcg_models::SyntheticModel;

/// A chaos config: heavy deadlock/stack-hog injection, no high-temp
/// set (the low set is plenty to surface defects), smoke-sized inputs.
fn chaos_cfg() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.skip_high_temp = true;
    cfg.deadlock_rate = 5.0;
    cfg.stack_hog_rate = 5.0;
    cfg
}

/// A model whose failure mix has **zero** mass on the natural timeout
/// and flaky slots, so every timeout verdict the battery observes
/// would have to come from an injected containment defect escaping —
/// exactly what the assertions below rule out.
fn chaos_model() -> SyntheticModel {
    let base = SyntheticModel::by_name("CodeLlama-7B").unwrap();
    let mut calib = base.calibration().clone();
    calib.failure_mix = [0.25, 0.25, 0.10, 0.10, 0.0, 0.0, 0.0, 0.0];
    SyntheticModel::custom(base.card().clone(), calib, true)
}

/// One problem across the substrates with distinct containment worlds:
/// serial/OpenMP (pure-MPI fallback world), MPI, and hybrid.
fn chaos_tasks() -> Vec<TaskId> {
    let p = ProblemId::new(ProblemType::Transform, 0);
    [
        ExecutionModel::Serial,
        ExecutionModel::OpenMp,
        ExecutionModel::Mpi,
        ExecutionModel::MpiOpenMp,
    ]
    .iter()
    .map(|&m| p.task(m))
    .collect()
}

#[test]
fn chaos_rates_participate_in_the_config_hash() {
    let chaos = chaos_cfg();
    let mut clean = chaos.clone();
    clean.deadlock_rate = 0.0;
    clean.stack_hog_rate = 0.0;
    assert_ne!(
        config_hash(&chaos),
        config_hash(&clean),
        "a chaos run must never share a journal/plan identity with a clean run"
    );
}

/// The whole battery: a reference run, a `--jobs 8` run and a sharded
/// run of one chaos grid. Each runner counts only its own containment
/// events, so `guard_faults == stack_overflows_caught` holds per runner.
#[test]
fn chaos_battery_fails_fast_and_stays_deterministic() {
    let cfg = chaos_cfg();
    let models = [chaos_model()];
    let tasks = chaos_tasks();

    // Jobs = 1: the reference run. Every injected defect must be
    // contained — no wall-clock timeouts, no abandoned workers.
    let runner1 = SharedRunner::new(cfg.clone());
    let (rec1, stats1) = evaluate_with(&cfg, &models, Some(&tasks), 1, &runner1);
    assert!(
        stats1.deadlocks_detected > 0,
        "injection rate 5.0 must surface deadlock candidates; stats: {stats1:?}"
    );
    assert!(
        stats1.stack_overflows_caught > 0,
        "injection rate 5.0 must surface stack-hog candidates; stats: {stats1:?}"
    );
    assert_eq!(
        stats1.guard_faults, stats1.stack_overflows_caught,
        "every classified guard fault must become a verdict"
    );
    assert_eq!(stats1.timeouts, 0, "contained defects must never burn the timeout");
    assert_eq!(stats1.abandoned, 0, "contained defects must never leak a worker");
    assert!(!stats1.leak_budget_exhausted);

    // Jobs = 8, cold runner: the deterministic projection — model
    // order, task identity, build/correct flags, sweep keys — must be
    // byte-identical to the jobs=1 run even though the measured floats
    // (and the per-process execution counts) legitimately differ.
    let runner8 = SharedRunner::new(cfg.clone());
    let (rec8, stats8) = evaluate_with(&cfg, &models, Some(&tasks), 8, &runner8);
    assert_eq!(
        projection(&rec1),
        projection(&rec8),
        "chaos records must project identically at --jobs 1 and --jobs 8"
    );
    assert_eq!(stats8.timeouts, 0);
    assert_eq!(stats8.abandoned, 0);
    assert!(stats8.deadlocks_detected > 0);

    // Three disjoint shards over one shared runner reassemble to the
    // unsharded record byte-for-byte — the full JSON, floats included,
    // because the shared execution cache serves every phase the same
    // measurement (the same contract the clean-grid shard test holds).
    let plan = plan_for(&cfg, &models, Some(&tasks));
    let shared = SharedRunner::new(cfg.clone());
    let (whole, _) = evaluate_with(&cfg, &models, Some(&tasks), 2, &shared);
    let mut map = std::collections::HashMap::new();
    for k in 0..3 {
        let spec = ShardSpec::new(k, 3);
        let run = evaluate_cells_priors(
            &cfg, &models, plan.shard(spec), 1, None, &shared, &Replay::new(), |_, _, _| {},
        );
        assert_eq!(run.stats.timeouts, 0, "shard {k} must fail fast too");
        for (cell, rec) in run.cells {
            map.insert(cell.id, rec);
        }
    }
    assert_eq!(map.len(), plan.len(), "shards must cover the grid");
    let merged = assemble(&cfg, &plan, |c| map[&c.id].clone());
    assert_eq!(
        serde_json::to_string(&whole).unwrap(),
        serde_json::to_string(&merged).unwrap(),
        "chaos shards must reassemble byte-identically"
    );
}
