//! The benchmark checked end to end on reduced task lists: every
//! metric `BENCHMARK.json` names is emitted with its unit, the output
//! check catches a single flipped verdict, and a child past its
//! deadline fails its cells instead of hanging the set.

use pcg_core::plan::fnv1a;
use pcg_e2e::json;
use pcg_e2e::parent::{self, ChildOutcome, Run, SetConfig};
use pcg_e2e::workload::{self, ChildReport, Scale, Shape, Workload, DEFAULT_SEED};
use pcg_harness::{eval, record};
use pcg_models::{CandidateSource, SyntheticSource};
use serde::Value;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn smoke_config(workload: Workload, trace: bool, name: &str) -> SetConfig {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("e2e-tests")
        .join(name);
    SetConfig {
        scale: Scale::Smoke,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_e2e")),
        jobs: 2,
        ..SetConfig::new(workload, DEFAULT_SEED, 0.0, trace, out_dir)
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let Ok(Value::Arr(entries)) = doc.field(section) else {
        panic!("no `{section}` list")
    };
    entries
        .iter()
        .map(|e| {
            let get =
                |k| json::get_str(e, k).unwrap_or_else(|| panic!("{section} entry without {k}"));
            (get("name").to_string(), get("unit").to_string())
        })
        .collect()
}

fn emitted(line: &str) -> Vec<(String, String)> {
    let doc = json::parse(line).expect("the result line is JSON");
    let Ok(Value::Obj(metrics)) = doc.field("metrics") else {
        panic!("no metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                json::get_str(m, "unit").unwrap_or_default().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_benchmark_metric_is_emitted_with_its_unit() {
    let end_to_end = benchmark_metrics("end_to_end");
    let per_layer = benchmark_metrics("per_layer");
    for w in Workload::ALL {
        let cfg = smoke_config(w, true, w.name());
        let traced = parent::run_set(&cfg);
        assert!(traced.correct, "{}: {:?}", w.name(), traced.runs);
        assert_eq!(traced.failed, 0);
        assert_eq!(traced.runs.len(), 2, "one untraced and one traced run");

        // The traced run reports the per-layer metrics...
        let layers = emitted(&parent::result_line(&traced));
        for (name, unit) in &per_layer {
            assert!(
                layers.contains(&(name.clone(), unit.clone())),
                "{}: {name} ({unit})",
                w.name()
            );
        }
        // ...and the same runs, read untraced, the end-to-end ones.
        let untraced = parent::judge(
            SetConfig {
                trace: false,
                ..cfg.clone()
            },
            traced.runs.clone(),
        );
        let line = parent::result_line(&untraced);
        let e2e = emitted(&line);
        for (name, unit) in &end_to_end {
            assert!(
                e2e.contains(&(name.clone(), unit.clone())),
                "{}: {name} ({unit})",
                w.name()
            );
        }
        let doc = json::parse(&line).unwrap();
        for (name, _) in &end_to_end {
            let v =
                json::get_f64(doc.field("metrics").unwrap().field(name).unwrap(), "value").unwrap();
            assert!(v > 0.0, "{}: {name} must never read 0", w.name());
        }

        let trace =
            std::fs::read_to_string(parent::trace_path(&cfg.out_dir, w)).expect("trace written");
        let Ok(Value::Arr(events)) = json::parse(&trace).unwrap().field("traceEvents").cloned()
        else {
            panic!("no traceEvents")
        };
        assert!(!events.is_empty(), "{}: empty trace", w.name());
        parent::append_ledger(&traced).expect("ledger written");
    }
}

#[test]
fn a_flipped_verdict_fails_the_projection_check() {
    // The replay workload's records are synthesised from the seed, so
    // its pinned projection can be recomputed here.
    let cfg = workload::config(Workload::Replay, DEFAULT_SEED);
    let source = SyntheticSource::zoo(&cfg.prompt_variants);
    let plan = eval::plan_for(&cfg, &source, None);
    let synth = |c: &pcg_core::PlanCell| {
        workload::synth_record(&cfg, c.id, c.task, source.weights_available(c.model))
    };
    let good = eval::assemble(&cfg, &plan, synth);
    let mut flipped = good.clone();
    let cell = &mut flipped.models[3].tasks[17].low;
    cell.built[0] = true;
    cell.correct[0] = !cell.correct[0];

    let (good_p, flipped_p) = (record::projection(&good), record::projection(&flipped));
    assert_eq!(workload::diff_cells(&good_p, &good_p), 0);
    assert_eq!(
        workload::diff_cells(&good_p, &flipped_p),
        1,
        "exactly one cell differs"
    );

    let config = SetConfig {
        scale: Scale::Bench,
        ..smoke_config(Workload::Replay, false, "flip")
    };
    let cells = Shape::of(Workload::Replay, Scale::Bench).cells(Workload::Replay);
    let judge = |projection: &str| {
        let report = ChildReport {
            wall_s: 1.0,
            cells,
            fnv: fnv1a(projection.as_bytes()),
            ..ChildReport::default()
        };
        let outcome = ChildOutcome::Done {
            setup_s: 0.1,
            report,
        };
        parent::judge(
            config.clone(),
            vec![Run {
                traced: false,
                seed: DEFAULT_SEED,
                cells,
                outcome,
            }],
        )
    };
    let ok = judge(&good_p);
    assert_eq!(ok.pinned, 1, "the default seed is pinned");
    assert!(
        ok.correct && ok.failed == 0,
        "the pin matches the synthesised records"
    );
    let bad = judge(&flipped_p);
    assert!(!bad.correct);
    assert_eq!(
        bad.failed, cells,
        "a run off the pin fails all of its cells"
    );
}

#[test]
fn a_child_past_its_deadline_fails_its_cells_instead_of_hanging() {
    // A benchmark-sized quick child needs over a second, so it is
    // certain to be past a 200 ms deadline.
    let cfg = SetConfig {
        deadline: Duration::from_millis(200),
        scale: Scale::Bench,
        ..smoke_config(Workload::Quick, false, "deadline")
    };
    let t0 = Instant::now();
    let result = parent::run_set(&cfg);
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "the set must not wait for a stuck child"
    );
    assert_eq!(result.runs.len(), 1);
    assert!(
        matches!(&result.runs[0].outcome, ChildOutcome::Failed(why) if why.contains("deadline")),
        "{:?}",
        result.runs[0].outcome
    );
    assert!(!result.correct);
    assert_eq!(result.failed, result.attempted);
    assert_eq!(
        result.attempted,
        Shape::of(Workload::Quick, Scale::Bench).cells(Workload::Quick)
    );
}
