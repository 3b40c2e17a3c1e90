//! Byte-identity battery: the default single-variant synthetic
//! configuration must be indistinguishable — config hashes, canonical
//! config JSON, cell ids, and projected records — from the harness as
//! it stood before the [`pcg_models::CandidateSource`] refactor and
//! the prompt-variant axis. The constants below were captured from the
//! pre-refactor tree; if one of these asserts fires, a default-path
//! artifact (journal, cache, shard partition) has silently re-keyed.

use pcg_core::plan::fnv1a;
use pcg_core::PromptVariant;
use pcg_harness::config::EvalConfig;
use pcg_harness::{eval, journal, record, SharedRunner};
use pcg_models::{CandidateSource, SyntheticSource};

/// FNV-1a of the canonical config JSON, captured pre-refactor.
const HASH_FULL: u64 = 0xa30ab17c83ba8d19;
const HASH_QUICK: u64 = 0xae469d44b9474de6;
const HASH_SMOKE: u64 = 0x9effc2afc5257bb6;

/// The smoke config's canonical JSON, captured pre-refactor byte for
/// byte — the hash input itself, so a drift here explains any hash
/// drift above.
const JSON_SMOKE: &str = "{\"seed\":20240501,\"samples_low\":6,\"samples_high\":10,\
\"temp_low\":0.2,\"temp_high\":0.8,\"size_divisor\":64,\
\"timeout\":{\"secs\":20,\"nanos\":0},\"reps\":1,\"skip_high_temp\":false,\
\"skip_sweeps\":true,\"retry_flaky\":false,\"grace\":{\"secs\":2,\"nanos\":0},\
\"max_abandoned\":64,\"deadlock_rate\":0,\"stack_hog_rate\":0}";

/// FNV-1a of the deterministic record projection for the full zoo over
/// [`eval::smoke_tasks`] under the smoke config, captured pre-refactor.
/// (The raw record JSON is *not* pinned: it embeds measured timing
/// ratios, which are machine- and run-dependent by design.)
const PROJ_SMOKE_ZOO: u64 = 0x72f9b3782c8e40e1;

#[test]
fn config_hashes_and_bytes_match_the_pre_refactor_capture() {
    assert_eq!(journal::config_hash(&EvalConfig::full()), HASH_FULL);
    assert_eq!(journal::config_hash(&EvalConfig::quick()), HASH_QUICK);
    assert_eq!(journal::config_hash(&EvalConfig::smoke()), HASH_SMOKE);
    assert_eq!(serde_json::to_string(&EvalConfig::smoke()).unwrap(), JSON_SMOKE);
    // The empty source salt — every synthetic path — is the identity.
    assert_eq!(
        journal::config_hash_with(&EvalConfig::smoke(), &[]),
        HASH_SMOKE
    );
    assert_ne!(
        journal::config_hash_with(&EvalConfig::smoke(), b"salted"),
        HASH_SMOKE,
        "a non-empty salt must re-key the run"
    );
}

#[test]
fn default_plan_is_identical_across_source_representations() {
    let cfg = EvalConfig::smoke();
    let tasks = eval::smoke_tasks();
    let zoo = pcg_models::zoo();
    let via_slice = eval::plan_for(&cfg, zoo.as_slice(), Some(&tasks));
    let via_variants =
        eval::plan_for(&cfg, &SyntheticSource::zoo(&[PromptVariant::DEFAULT]), Some(&tasks));
    assert_eq!(via_slice.models(), via_variants.models());
    let ids = |p: &pcg_core::plan::WorkPlan| -> Vec<u64> {
        p.cells().map(|c| c.id.0).collect()
    };
    assert_eq!(ids(&via_slice), ids(&via_variants), "cell ids must not re-key");
    // And a variant grid *does* re-key (because the config differs).
    let grid_cfg = EvalConfig {
        prompt_variants: vec![PromptVariant::Naive, PromptVariant::Expert],
        ..EvalConfig::smoke()
    };
    let grid = eval::plan_for(
        &cfg,
        &SyntheticSource::zoo(&grid_cfg.prompt_variants),
        Some(&tasks),
    );
    assert_eq!(grid.models().len(), 14, "one row per (model, variant)");
    assert_ne!(journal::config_hash(&grid_cfg), HASH_SMOKE);
}

#[test]
fn smoke_zoo_projection_matches_the_pre_refactor_capture() {
    let cfg = EvalConfig::smoke();
    let zoo = pcg_models::zoo();
    let tasks = eval::smoke_tasks();
    let eval_at = |jobs| {
        eval::evaluate_with(&cfg, &zoo, Some(&tasks), jobs, &SharedRunner::new(cfg.clone())).0
    };
    let (rec1, rec8) = (eval_at(1), eval_at(8));
    assert_eq!(
        fnv1a(record::projection(&rec1).as_bytes()),
        PROJ_SMOKE_ZOO,
        "jobs=1 projection drifted from the pre-refactor bytes"
    );
    assert_eq!(
        fnv1a(record::projection(&rec8).as_bytes()),
        PROJ_SMOKE_ZOO,
        "jobs=8 projection drifted from the pre-refactor bytes"
    );
}

#[test]
fn default_variant_source_samples_exactly_like_the_zoo() {
    // The full-grid equality is covered stream-by-stream in
    // pcg-models; here we pin the harness-visible surface: identical
    // names, weights flags, and an identical sampled pool through the
    // trait object seam the coordinator actually uses.
    let zoo = pcg_models::zoo();
    let src = SyntheticSource::zoo(&[PromptVariant::DEFAULT]);
    assert_eq!(src.model_names(), zoo.as_slice().model_names());
    assert!(src.config_salt().is_empty());
    let spec = pcg_models::SampleSpec::new(0.2, 6, 20240501);
    for (i, _) in zoo.iter().enumerate() {
        for task in eval::smoke_tasks().into_iter().take(7) {
            assert_eq!(
                src.sample(i, task, &spec),
                zoo.as_slice().sample(i, task, &spec)
            );
        }
    }
}
