//! Shared executions: the runner keys its runs by the computation a
//! candidate kind performs, not by the kind's label. These tests pin
//! that the sharing is invisible in the verdicts (every kind at every
//! `n` the grid requests gets exactly the outcome its own run would
//! have produced), and that it really shares: exact execution counts,
//! also under concurrent requests.

use pcg_core::usage::UsageScope;
use pcg_core::{
    CandidateKind, Corruption, ExecutionModel, Output, ProblemId, ProblemType, Quality, TaskId,
};
use pcg_harness::{eval, shard, EvalConfig, Outcome, SharedRunner};
use pcg_problems::registry;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn task(model: ExecutionModel) -> TaskId {
    ProblemId::new(ProblemType::Transform, 0).task(model)
}

const EFFICIENT: CandidateKind = CandidateKind::Correct(Quality::Efficient);

/// Every `n` an evaluation cell of `model` asks the runner for: the
/// headline `n` (low set), its clamp (high set) and the resource sweep.
fn requested_ns(model: ExecutionModel) -> BTreeSet<u32> {
    let headline = model.headline_n();
    let mut ns = BTreeSet::from([headline, headline.clamp(1, 4)]);
    if matches!(model, ExecutionModel::OpenMp | ExecutionModel::Kokkos | ExecutionModel::Mpi) {
        ns.extend(model.resource_sweep());
    }
    ns
}

/// The per-label reference: `Problem::run_candidate` for exactly this
/// kind and `n`, validated the way the runner validates (output against
/// the baseline, then the parallel-API usage check). A panicking run is
/// retried once, as the runner does under `retry_flaky`.
fn reference(cfg: &EvalConfig, t: TaskId, kind: CandidateKind, n: u32, base: &Output) -> Outcome {
    let p = registry::problem(t.problem);
    let size = cfg.size_for(p.default_size());
    let attempt = || {
        catch_unwind(AssertUnwindSafe(|| {
            let scope = UsageScope::begin();
            let run = p.run_candidate(t.model, kind, n, cfg.seed, size);
            (run, scope.finish())
        }))
    };
    let (run, usage) = attempt().or_else(|_| attempt()).expect("at most one transient fault");
    let (built, error) = match run {
        Err(e) => (!matches!(e, pcg_core::PcgError::BuildFailure(_)), Some(e.code())),
        Ok(r) if !r.output.approx_eq(base) => (true, Some("wrong")),
        Ok(_) if !usage.used_required_api(t.model) => (true, Some("sequential")),
        Ok(_) => (true, None),
    };
    Outcome {
        built,
        correct: error.is_none(),
        seconds: 0.0,
        error: error.map(str::to_string),
    }
}

#[test]
fn shared_outcomes_equal_the_per_label_reference() {
    // Retries on, so `Flaky` scores the same whichever of runner and
    // reference consumes its one transient fault first.
    let cfg = EvalConfig { retry_flaky: true, ..EvalConfig::smoke() };
    let runner = SharedRunner::new(cfg.clone());
    for model in ExecutionModel::ALL {
        let t = task(model);
        let base = runner.with_baseline(t.problem, |b| b.output.clone());
        for n in requested_ns(model) {
            for kind in CandidateKind::ALL {
                let got = runner.outcome(t, kind, n);
                let want = reference(&cfg, t, kind, n, &base);
                assert_eq!(
                    (got.built, got.correct, &got.error),
                    (want.built, want.correct, &want.error),
                    "{model} {} at n={n}",
                    kind.tag()
                );
            }
        }
    }
    assert!(runner.quarantined().is_empty(), "{:?}", runner.quarantined());
}

#[test]
fn efficient_path_and_its_wrong_modes_run_once() {
    let runner = SharedRunner::new(EvalConfig::smoke());
    let t = task(ExecutionModel::Mpi);
    assert!(runner.outcome(t, EFFICIENT, 512).correct);
    for mode in Corruption::ALL {
        let out = runner.outcome(t, CandidateKind::WrongOutput(mode), 512);
        assert_eq!(out.error.as_deref(), Some("wrong"), "{mode:?}");
    }
    assert_eq!(runner.executions(), 1);
    assert_eq!(runner.cache_hits(), 4, "wrong modes are answered by the shared run");
}

#[test]
fn gpu_kinds_run_once_across_n() {
    for model in [ExecutionModel::Cuda, ExecutionModel::Hip] {
        let runner = SharedRunner::new(EvalConfig::smoke());
        let t = task(model);
        let low = runner.outcome(t, EFFICIENT, 0);
        for n in [1, 4, 512] {
            let out = runner.outcome(t, EFFICIENT, n);
            assert!(low.correct && out.correct, "{model} at n={n}");
            assert_eq!(low.seconds, out.seconds, "{model}: n={n} reuses the n=0 run");
        }
        assert_eq!(runner.executions(), 1, "{model}");
    }
}

#[test]
fn sequential_fallback_runs_once_per_task() {
    let runner = SharedRunner::new(EvalConfig::smoke());
    let t = task(ExecutionModel::Mpi);
    for n in ExecutionModel::Mpi.resource_sweep() {
        let out = runner.outcome(t, CandidateKind::SequentialFallback, n);
        assert_eq!(out.error.as_deref(), Some("sequential"), "n={n}");
    }
    assert_eq!(runner.executions(), 1);
}

#[test]
fn fixed_verdicts_run_nothing() {
    let runner = SharedRunner::new(EvalConfig::smoke());
    let t = task(ExecutionModel::Mpi);
    let kinds = [
        (CandidateKind::BuildFailure, false, "build"),
        (CandidateKind::RuntimeCrash, true, "runtime"),
        (CandidateKind::Timeout, true, "timeout"),
    ];
    for (kind, built, code) in kinds {
        let out = runner.outcome(t, kind, 512);
        assert_eq!((out.built, out.correct, out.error.as_deref()), (built, false, Some(code)));
    }
    assert_eq!(runner.executions(), 0);
    assert!(runner.quarantined().is_empty(), "a fixed verdict is not a hard failure");
}

#[test]
fn concurrent_members_share_one_run() {
    // Eight distinct (kind, n) labels, all members of one GPU
    // efficient-path run, requested at once.
    let members: Vec<(CandidateKind, u32)> = [0, 1]
        .into_iter()
        .flat_map(|n| {
            std::iter::once(EFFICIENT)
                .chain(Corruption::ALL.map(CandidateKind::WrongOutput))
                .map(move |k| (k, n))
        })
        .take(8)
        .collect();
    let runner = SharedRunner::new(EvalConfig::smoke());
    let t = task(ExecutionModel::Cuda);
    let outs: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = members
            .iter()
            .map(|&(kind, n)| {
                let runner = &runner;
                s.spawn(move || runner.outcome(t, kind, n))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(runner.executions(), 1);
    assert_eq!(runner.cache_hits(), 7);
    for (&(kind, n), out) in members.iter().zip(&outs) {
        assert_eq!(out.correct, kind == EFFICIENT, "{} at n={n}", kind.tag());
    }
}

#[test]
fn hard_failed_shared_run_quarantines_each_requested_kind() {
    // No time at all for a 512-rank world: the supervisor gives up
    // before any world, warm or cold, can finish.
    let cfg = EvalConfig {
        timeout: Duration::ZERO,
        grace: Duration::from_secs(10),
        size_divisor: 8,
        ..EvalConfig::smoke()
    };
    let runner = SharedRunner::new(cfg.clone());
    let t = task(ExecutionModel::Mpi);
    let kinds = [
        EFFICIENT,
        CandidateKind::WrongOutput(Corruption::PerturbElement),
        CandidateKind::WrongOutput(Corruption::Truncate),
    ];
    for kind in kinds {
        let out = runner.outcome(t, kind, 512);
        assert_eq!(out.error.as_deref(), Some("timeout"), "{}", kind.tag());
    }
    assert_eq!(runner.executions(), 1, "the members share the timed-out run");
    let q = runner.quarantined();
    let tags: BTreeSet<&str> = q.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(tags, BTreeSet::from(["correct", "wrong-perturb", "wrong-truncate"]));
    assert!(q.iter().all(|e| e.task == t && e.n == 512 && e.error == "timeout"));

    // Two shard parts holding overlapping slices of the list merge back
    // to all three entries: distinct wrong modes must not collapse.
    let (_, stats) = eval::evaluate_with(&cfg, &pcg_models::zoo(), Some(&[]), 1, &runner);
    let mut a = stats.clone();
    a.quarantined = q[..2].to_vec();
    let mut b = stats;
    b.quarantined = q[1..].to_vec();
    let merged = shard::combine_stats(&[a, b], 0);
    assert_eq!(merged.quarantined, q);
}
