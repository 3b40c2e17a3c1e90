//! End-to-end pipeline integration: models -> candidates -> substrates
//! -> validation -> metrics, across crate boundaries.

use pcgbench::core::{ExecutionModel, ProblemId, ProblemType, TaskId};
use pcgbench::harness::{eval, report, EvalConfig, SharedRunner};
use pcgbench::models::SyntheticModel;

fn mini_tasks() -> Vec<TaskId> {
    // Three problems of very different character, all 7 execution models.
    let problems = [
        ProblemId::new(ProblemType::Transform, 0),
        ProblemId::new(ProblemType::Scan, 1),
        ProblemId::new(ProblemType::SparseLinearAlgebra, 0),
    ];
    problems
        .into_iter()
        .flat_map(|p| ExecutionModel::ALL.into_iter().map(move |m| p.task(m)))
        .collect()
}

#[test]
fn pipeline_produces_consistent_records() {
    let cfg = EvalConfig::smoke();
    let models = [
        SyntheticModel::by_name("GPT-3.5").unwrap(),
        SyntheticModel::by_name("CodeLlama-7B").unwrap(),
    ];
    let tasks = mini_tasks();
    let record = eval::evaluate(&cfg, &models, Some(&tasks));

    assert_eq!(record.models.len(), 2);
    for model in &record.models {
        assert_eq!(model.tasks.len(), tasks.len());
        for t in &model.tasks {
            assert_eq!(t.low.len(), cfg.samples_low);
            // Correct implies built.
            for (c, b) in t.low.correct.iter().zip(&t.low.built) {
                assert!(!c || *b, "correct sample that did not build");
            }
            // Ratios are zero exactly for incorrect samples.
            for (c, r) in t.low.correct.iter().zip(&t.low.ratio) {
                if !c {
                    assert_eq!(*r, 0.0);
                } else {
                    assert!(*r > 0.0, "correct sample with nonpositive ratio");
                }
            }
        }
    }
}

#[test]
fn stronger_model_beats_weaker_model() {
    let cfg = EvalConfig::smoke();
    let models =
        [SyntheticModel::by_name("GPT-3.5").unwrap(), SyntheticModel::by_name("CodeLlama-7B").unwrap()];
    // Use many problems so the comparison is statistically stable.
    let tasks: Vec<TaskId> = pcgbench::core::task::all_tasks()
        .filter(|t| t.problem.variant == 0 && !t.model.is_gpu())
        .collect();
    let record = eval::evaluate(&cfg, &models, Some(&tasks));
    let gpt = report::mean_pass_at_k(record.model("GPT-3.5").unwrap(), |_| true, 1, false);
    let cl7 = report::mean_pass_at_k(record.model("CodeLlama-7B").unwrap(), |_| true, 1, false);
    assert!(
        gpt > cl7,
        "GPT-3.5 ({gpt:.3}) must outperform CodeLlama-7B ({cl7:.3}) overall"
    );
}

#[test]
fn serial_beats_parallel_for_every_model() {
    let cfg = EvalConfig::smoke();
    let model = SyntheticModel::by_name("Phind-CodeLlama-V2").unwrap();
    let tasks: Vec<TaskId> = pcgbench::core::task::all_tasks()
        .filter(|t| t.problem.variant == 0)
        .collect();
    let record = eval::evaluate(&cfg, &[model], Some(&tasks));
    let m = &record.models[0];
    let serial = report::mean_pass_at_k(m, |t| !t.model.is_parallel(), 1, false);
    let parallel = report::mean_pass_at_k(m, |t| t.model.is_parallel(), 1, false);
    assert!(
        serial > parallel,
        "the paper's headline: serial ({serial:.3}) > parallel ({parallel:.3})"
    );
}

#[test]
fn records_roundtrip_via_json() {
    let cfg = EvalConfig::smoke();
    let model = SyntheticModel::by_name("StarCoderBase").unwrap();
    let tasks = &mini_tasks()[..7];
    let record = eval::evaluate(&cfg, &[model], Some(tasks));
    let json = serde_json::to_string(&record).unwrap();
    let back: pcgbench::harness::EvalRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(back.models[0].model, "StarCoderBase");
    assert_eq!(back.models[0].tasks.len(), 7);
    for (a, b) in record.models[0].tasks.iter().zip(&back.models[0].tasks) {
        assert_eq!(a.low.correct, b.low.correct);
        // JSON float serialization may differ in the last ULP.
        for (x, y) in a.low.ratio.iter().zip(&b.low.ratio) {
            assert!((x - y).abs() <= x.abs() * 1e-12, "{x} vs {y}");
        }
    }
}

#[test]
fn evaluation_is_deterministic_in_correctness() {
    let cfg = EvalConfig::smoke();
    let model = || SyntheticModel::by_name("CodeLlama-13B").unwrap();
    let tasks = &mini_tasks()[..7];
    let a = eval::evaluate(&cfg, &[model()], Some(tasks));
    let b = eval::evaluate(&cfg, &[model()], Some(tasks));
    for (ta, tb) in a.models[0].tasks.iter().zip(&b.models[0].tasks) {
        assert_eq!(ta.low.correct, tb.low.correct, "{}", ta.task);
        assert_eq!(ta.low.built, tb.low.built, "{}", ta.task);
    }
}

#[test]
fn parallel_evaluation_is_byte_identical_to_serial() {
    // The scheduler's central guarantee: the same grid at --jobs 1 and
    // --jobs 8 serializes to byte-identical records. One SharedRunner
    // backs both runs so candidate timings come from the same cached
    // executions (timing is hardware noise; everything else — sample
    // streams, outcome kinds, record ordering — must be scheduling-
    // independent by construction).
    let cfg = EvalConfig::smoke();
    let models = [
        SyntheticModel::by_name("CodeLlama-13B").unwrap(),
        SyntheticModel::by_name("GPT-4").unwrap(),
    ];
    let tasks = mini_tasks();
    let runner = SharedRunner::new(cfg.clone());
    let (serial, _) = eval::evaluate_with(&cfg, &models, Some(&tasks), 1, &runner);
    let (parallel, stats) = eval::evaluate_with(&cfg, &models, Some(&tasks), 8, &runner);
    assert_eq!(stats.jobs, 8);
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "records must not depend on the worker count"
    );
}

#[test]
fn worker_count_does_not_change_correctness_fields() {
    // Fresh runners (no shared cache): wall-clock fields may differ,
    // but every scheduling-independent field must match exactly.
    let cfg = EvalConfig::smoke();
    let model = || SyntheticModel::by_name("Phind-CodeLlama-V2").unwrap();
    let tasks = &mini_tasks()[..14];
    let eval_at = |jobs| {
        eval::evaluate_with(&cfg, &[model()], Some(tasks), jobs, &SharedRunner::new(cfg.clone())).0
    };
    let (a, b) = (eval_at(1), eval_at(8));
    for (ta, tb) in a.models[0].tasks.iter().zip(&b.models[0].tasks) {
        assert_eq!(ta.task, tb.task, "task order must be canonical");
        assert_eq!(ta.low.correct, tb.low.correct, "{}", ta.task);
        assert_eq!(ta.low.built, tb.low.built, "{}", ta.task);
        assert_eq!(
            ta.high.as_ref().map(|h| &h.correct),
            tb.high.as_ref().map(|h| &h.correct),
            "{}",
            ta.task
        );
        assert_eq!(
            ta.sweep.keys().collect::<Vec<_>>(),
            tb.sweep.keys().collect::<Vec<_>>(),
            "{}",
            ta.task
        );
    }
}

#[test]
fn figure_renderers_cover_real_records() {
    let cfg = EvalConfig::smoke();
    let models = [
        SyntheticModel::by_name("CodeLlama-7B").unwrap(),
        SyntheticModel::by_name("GPT-4").unwrap(),
    ];
    let tasks = mini_tasks();
    let record = eval::evaluate(&cfg, &models, Some(&tasks));
    for text in [
        report::figure1(&record),
        report::figure2(&record),
        report::figure3(&record),
        report::figure4(&record),
        report::figure6(&record),
        report::figure7(&record),
        report::experiments_summary(&record),
    ] {
        assert!(text.contains("CodeLlama-7B") || text.contains("model"), "{text}");
    }
}
