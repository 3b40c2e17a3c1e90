//! Multi-variant grid hard constraints: a `--prompt-variants
//! naive,expert,rag` run triples the model axis (one row per
//! (model, variant)), survives a 3-shard run with stealing enabled plus
//! a merge, and the per-variant pass@1 profiles come out both distinct
//! and ordered the way the calibration deltas dictate
//! (naive < expert < rag).
//!
//! Workers run sequentially in-process here, so the first worker
//! drains its own partition and then steals its idle siblings'
//! cells — the merge must still reassemble the exact reference grid.
//! Each phase measures with its own runner, so the comparison is the
//! deterministic projection, as across real processes.

use pcg_core::plan::ShardSpec;
use pcg_core::prompt::split_label;
use pcg_core::PromptVariant;
use pcg_harness::eval::{evaluate_with, smoke_tasks};
use pcg_harness::pipeline::RunOptions;
use pcg_harness::record::projection;
use pcg_harness::report;
use pcg_harness::shard::{merge_shards, run_shard};
use pcg_harness::{EvalConfig, EvalRecord, SharedRunner};
use pcg_models::SyntheticSource;
use std::path::PathBuf;

fn tmp_cache() -> PathBuf {
    let dir = std::env::temp_dir().join("pcgbench-variant-grid-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("records-{}.rec", std::process::id()))
}

/// Mean pass@1 over every model row of one variant.
fn variant_pass1(rec: &EvalRecord, variant: PromptVariant) -> f64 {
    let rows: Vec<f64> = rec
        .models
        .iter()
        .filter(|m| split_label(&m.model).1 == variant)
        .map(|m| report::mean_pass_at_k(m, |_| true, 1, false))
        .collect();
    assert!(!rows.is_empty(), "no rows for {variant:?}");
    rows.iter().sum::<f64>() / rows.len() as f64
}

#[test]
fn variant_grid_survives_shard_steal_merge_with_distinct_profiles() {
    let variants =
        vec![PromptVariant::Naive, PromptVariant::Expert, PromptVariant::RagAugmented];
    let cfg = EvalConfig { prompt_variants: variants.clone(), ..EvalConfig::smoke() };
    let tasks: Vec<_> = smoke_tasks().into_iter().take(7).collect();
    let cache = tmp_cache();

    // Reference: single-process run over the variant source.
    let source = SyntheticSource::zoo(&cfg.prompt_variants);
    let runner = SharedRunner::new(cfg.clone());
    let (reference, _) = evaluate_with(&cfg, &source, Some(&tasks), 4, &runner);
    assert_eq!(reference.models.len(), 21, "7 zoo models × 3 variants");
    assert!(reference.models.iter().any(|m| m.model == "GPT-4@naive"));
    assert!(
        reference.models.iter().any(|m| m.model == "GPT-4"),
        "the expert tier keeps the bare (default-variant) label"
    );

    // Three shard workers, which always steal. Run sequentially: worker 0
    // drains its partition, then steals everything its never-started
    // siblings own; workers 1 and 2 wake up to find their cells taken.
    let mut stolen_total = 0u64;
    for k in 0..3 {
        let spec = ShardSpec::new(k, 3);
        let opts = RunOptions { shard: Some(spec), ..RunOptions::new(4) };
        let stats = run_shard(Some(&cache), &cfg, &opts, spec, Some(&tasks));
        stolen_total += stats.cells_stolen;
    }
    assert!(stolen_total > 0, "the lead worker must have stolen idle siblings' cells");

    let merged = merge_shards(Some(&cache), &cfg, &RunOptions::new(4), 3, Some(&tasks));
    assert_eq!(
        projection(&merged),
        projection(&reference),
        "shard + steal + merge must reproduce the single-process variant grid"
    );

    // The axis must actually measure something: tiers are ordered by
    // their calibration deltas, naive strictly worst, RAG strictly
    // best.
    let naive = variant_pass1(&merged, PromptVariant::Naive);
    let expert = variant_pass1(&merged, PromptVariant::Expert);
    let rag = variant_pass1(&merged, PromptVariant::RagAugmented);
    assert!(
        naive < expert && expert < rag,
        "per-variant pass@1 must be ordered: naive {naive:.3} < expert {expert:.3} < rag {rag:.3}"
    );

    // And the report surfaces the axis: one rollup line per tier.
    let rollup = report::variant_summary(&merged);
    for label in ["naive", "expert", "rag"] {
        assert!(rollup.contains(label), "rollup must list the {label} tier:\n{rollup}");
    }

    let _ = std::fs::remove_file(&cache);
}
