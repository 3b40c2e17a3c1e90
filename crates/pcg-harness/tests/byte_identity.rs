//! Byte-identity battery: the default single-variant synthetic
//! configuration must be indistinguishable — config hashes, canonical
//! config JSON, cell ids, and projected records — from the harness as
//! it stood before the [`pcg_models::CandidateSource`] refactor and
//! the prompt-variant axis. The constants below were captured from the
//! pre-refactor tree; if one of these asserts fires, a default-path
//! artifact (journal, cache, shard partition) has silently re-keyed.
//!
//! The v3 frame bytes themselves are pinned too: a committed records
//! cache and one appended journal frame, for fixed synthetic records,
//! must hash to the values the byte-at-a-time encoder wrote.

use pcg_core::plan::{fnv1a, PlanCell, ShardSpec};
use pcg_core::PromptVariant;
use pcg_harness::config::EvalConfig;
use pcg_harness::journal::Journal;
use pcg_harness::record::TaskRecord;
use pcg_harness::{eval, journal, record, SharedRunner};
use pcg_metrics::TaskSamples;
use std::collections::BTreeMap;
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

/// FNV-1a of the records cache [`journal::commit_record`] writes for
/// [`golden_record`] over the smoke plan, captured from the
/// byte-at-a-time frame encoder.
const GOLDEN_COMMIT: u64 = 0x0866eaa12aaa7a24;

/// FNV-1a of the one frame [`Journal::append`] writes for the plan's
/// first cell, captured alongside [`GOLDEN_COMMIT`].
const GOLDEN_APPEND: u64 = 0x1141da8fc366c3e9;

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

/// A fixed record for plan cell `c`: sample sets of varied lengths,
/// `high` both present and absent, empty and non-empty sweeps, and
/// floats whose exact bits matter (`0.1 + 0.2`, `-0.0`, infinity).
fn golden_record(c: &PlanCell) -> TaskRecord {
    let i = c.model * 1000 + c.task_idx;
    let samples = |n: usize, salt: usize| TaskSamples {
        built: (0..n).map(|k| !(i + k + salt).is_multiple_of(3)).collect(),
        correct: (0..n).map(|k| (i * 7 + k + salt).is_multiple_of(4)).collect(),
        ratio: (0..n).map(|k| ((i * 13 + k * 5 + salt) % 97) as f64 * 0.371 - 1.5).collect(),
    };
    TaskRecord {
        task: c.task,
        low: samples(i % 7, 0),
        high: i.is_multiple_of(2).then(|| samples(9 + i % 5, 1)),
        sweep: if i.is_multiple_of(3) {
            BTreeMap::from([(2, vec![0.1 + 0.2, -0.0]), (8, vec![f64::INFINITY])])
        } else {
            BTreeMap::new()
        },
    }
}

#[test]
fn frame_bytes_match_the_golden_capture() {
    let cfg = EvalConfig::smoke();
    let plan = eval::plan_for(&cfg, pcg_models::zoo().as_slice(), Some(&eval::smoke_tasks()));
    let rec = eval::assemble(&cfg, &plan, golden_record);
    let dir = std::env::temp_dir().join(format!("pcg-golden-frames-{}", std::process::id()));

    let cache = dir.join("records.rec");
    journal::commit_record(&cache, &plan, &rec).unwrap();
    let committed = std::fs::read(&cache).unwrap();

    let first = plan.cells().next().unwrap();
    let jpath = dir.join("append.journal");
    let j = Journal::create_sourced(&jpath, &cfg, &[], ShardSpec::WHOLE, 0).unwrap();
    j.append(first.id, &plan.models()[first.model], &golden_record(&first)).unwrap();
    j.sync().unwrap();
    drop(j);
    let appended = std::fs::read(&jpath).unwrap();
    let frame_start = journal::entry_offsets(&jpath)[0] as usize;
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "commit {:#018x} ({} bytes), append {:#018x}",
        fnv1a(&committed),
        committed.len(),
        fnv1a(&appended[frame_start..])
    );
    assert_eq!(fnv1a(&committed), GOLDEN_COMMIT, "committed cache bytes drifted");
    assert_eq!(fnv1a(&appended[frame_start..]), GOLDEN_APPEND, "appended frame bytes drifted");
}
