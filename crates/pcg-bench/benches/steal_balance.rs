//! Work-stealing A/B: static `id % 3` shard ownership vs live
//! whole-cell stealing via journal claim handoff, with one worker
//! deliberately stalled.
//!
//! The straggler physics this measures: `--merge-shards` can only
//! finish when the **slowest** worker finishes, so the merge gate is
//! the max shard wall. Cost-weighted partitioning (the `sched_balance`
//! bench) fixes *predicted* skew, but a worker that is slow for
//! unpredicted reasons — here, an injected stall before it touches any
//! cell — still carries its whole partition to the finish line alone.
//! With stealing on, its siblings drain their own partitions, then
//! claim and evaluate the straggler's cells through the real journal
//! claim protocol; the straggler wakes, pre-scans, finds its slice
//! taken, and exits almost immediately.
//!
//! Mechanics: the bench re-execs itself (`PCG_STEAL_BENCH_ROLE=k/3:mode`)
//! so each worker is a real OS process coordinating through real
//! journals in a shared scratch directory (`PCG_STEAL_BENCH_CACHE`) —
//! [`Journal::append_claims`], `peek_progress`, and
//! [`steal_from_siblings`] are the production code paths, driven with
//! sleeps for cell bodies so handoff quality is the only variable.
//! Worker 0 owns every 200ms cell and stalls 3.2s before starting;
//! workers 1 and 2 own 100ms cells. Static gate ~= stall + the
//! victim's whole partition; steal gate ~= the thieves splitting that
//! partition while the victim sleeps. Byte-identity of *records*
//! across steal on/off is enforced by
//! `pcg-harness/tests/steal_handoff.rs`; this bench asserts the union
//! of journaled cells stays exhaustive and measures the gate.
//!
//! Writes `target/pcgbench/BENCH_steal.json` and asserts the >=1.5x
//! merge-gate bar from the work-stealing work.

use pcg_core::plan::{CellId, PlanCell, ShardSpec, WorkPlan};
use pcg_harness::journal::{self, config_hash, Journal};
use pcg_harness::record::TaskRecord;
use pcg_harness::shard::{scan_siblings, steal_from_siblings};
use pcg_harness::EvalConfig;
use pcg_metrics::TaskSamples;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cost of every cell the stalled victim owns.
const VICTIM_MS: u64 = 200;
/// Cost of everyone else's cells.
const OTHER_MS: u64 = 100;
/// Injected stall on worker 0, applied identically in both modes.
const STALL_MS: u64 = 3200;
/// Cells a thief claims per steal round.
const BATCH: usize = 4;
const ROLE_VAR: &str = "PCG_STEAL_BENCH_ROLE";
const CACHE_VAR: &str = "PCG_STEAL_BENCH_CACHE";

/// A 4-model × 12-task slice of the real quick-grid plan, partitioned
/// unweighted (`id % 3`) — the victim's residue class carries the
/// expensive cells so its partition is the one worth stealing.
fn bench_plan() -> WorkPlan {
    let models: Vec<String> = pcg_models::zoo()
        .into_iter()
        .take(4)
        .map(|m| m.card().name.to_string())
        .collect();
    let tasks: Vec<_> = pcg_core::task::all_tasks().take(12).collect();
    WorkPlan::new(config_hash(&EvalConfig::quick()), models, tasks)
}

fn cost_ms(id: CellId) -> u64 {
    if id.0.is_multiple_of(3) {
        VICTIM_MS
    } else {
        OTHER_MS
    }
}

/// A synthetic-but-valid record for `cell`: the journal's load-time
/// cell self-check recomputes the address from (config, model, task),
/// so the record must carry the cell's real task under its real model
/// name — the sample payload itself is immaterial here.
fn record_for(cell: &PlanCell) -> TaskRecord {
    TaskRecord {
        task: cell.task,
        low: TaskSamples { built: vec![true], correct: vec![true], ratio: vec![1.0] },
        high: None,
        sweep: Default::default(),
    }
}

/// "Evaluate" a batch: sleep each cell's cost, then journal the result
/// — the same evaluate-then-append shape as a production worker.
fn run_cells(plan: &WorkPlan, wal: &Journal, cells: &[PlanCell]) {
    for c in cells {
        std::thread::sleep(Duration::from_millis(cost_ms(c.id)));
        wal.append(c.id, &plan.models()[c.model], &record_for(c)).expect("journal append");
    }
}

/// Worker body: create this shard's journal, stall if victim, then
/// drain the partition — with the pre-scan + steal loop when `steal`.
fn run_role(cache: &Path, spec: ShardSpec, steal: bool) {
    let cfg = EvalConfig::quick();
    let plan = bench_plan();
    let jpath = journal::shard_journal_path(cache, spec);
    let wal = Journal::create_sourced(&jpath, &cfg, &[], spec, 0).expect("create shard journal");
    if spec.index == 0 {
        // The unpredicted straggler: header on disk (so siblings can
        // gate their peeks), then dead to the world.
        std::thread::sleep(Duration::from_millis(STALL_MS));
    }
    let mut owned = plan.shard(spec);
    if steal {
        let sib = scan_siblings(cache, &cfg, &[], spec, 0);
        owned.retain(|c| !sib.done.contains(&c.id.0) && !sib.claimed.contains(&c.id.0));
    }
    run_cells(&plan, &wal, &owned);
    if steal {
        let done: HashSet<u64> = owned.iter().map(|c| c.id.0).collect();
        steal_from_siblings(cache, &cfg, &[], &plan, spec, None, 0, &wal, BATCH, done, |batch| {
            run_cells(&plan, &wal, &batch);
        });
    }
}

/// Spawn the three shard workers concurrently; wall seconds until the
/// slowest exits — the merge gate.
fn merge_gate_seconds(cache: &Path, mode: &str) -> f64 {
    let cfg = EvalConfig::quick();
    let plan = bench_plan();
    for k in 0..3 {
        journal::remove(&journal::shard_journal_path(cache, ShardSpec::new(k, 3)));
    }
    let exe = std::env::current_exe().expect("own path");
    let t0 = Instant::now();
    let children: Vec<_> = (0..3)
        .map(|k| {
            std::process::Command::new(&exe)
                .env(ROLE_VAR, format!("{k}/3:{mode}"))
                .env(CACHE_VAR, cache)
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn shard worker")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("wait for shard worker");
        assert!(status.success(), "shard worker failed: {status:?}");
    }
    let gate = t0.elapsed().as_secs_f64();
    // Whatever the topology did, the journals together must still hold
    // the whole grid — stealing relocates cells, it never loses them.
    let mut union: HashSet<u64> = HashSet::new();
    for k in 0..3 {
        let spec = ShardSpec::new(k, 3);
        let jpath = journal::shard_journal_path(cache, spec);
        let loaded = journal::load_counting_sourced(&jpath, &cfg, &[], spec, 0);
        assert!(loaded.rejects.is_empty(), "shard {spec}: corrupt frames in a clean bench run");
        union.extend(loaded.replay.keys().map(|id| id.0));
    }
    assert_eq!(union.len(), plan.len(), "mode {mode}: journals must cover the whole grid");
    gate
}

fn main() {
    if let Ok(role) = std::env::var(ROLE_VAR) {
        let cache = PathBuf::from(std::env::var(CACHE_VAR).expect("cache dir for role"));
        let (spec, mode) = role.split_once(':').expect("role is k/N:mode");
        run_role(&cache, ShardSpec::parse(spec).expect("valid role spec"), mode == "steal");
        return;
    }

    let plan = bench_plan();
    let victim_cells = plan.shard(ShardSpec::new(0, 3)).len();
    let victim_ms: u64 = plan.shard(ShardSpec::new(0, 3)).iter().map(|c| cost_ms(c.id)).sum();
    assert!(victim_cells >= 8, "degenerate plan: only {victim_cells} victim cells");

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/pcgbench");
    std::fs::create_dir_all(&dir).expect("create target/pcgbench");
    let cache = dir.join(format!("steal-balance-{}.json", std::process::id()));

    // Best of 2 to shed scheduling noise.
    let static_gate = merge_gate_seconds(&cache, "static").min(merge_gate_seconds(&cache, "static"));
    let steal_gate = merge_gate_seconds(&cache, "steal").min(merge_gate_seconds(&cache, "steal"));
    for k in 0..3 {
        journal::remove(&journal::shard_journal_path(&cache, ShardSpec::new(k, 3)));
    }
    let improvement = static_gate / steal_gate;

    let json = format!(
        concat!(
            "{{\"workload\":\"{}-cell grid, 3 shard worker processes, worker 0 owns {} cells ",
            "at {}ms (rest {}ms) and stalls {}ms before starting, merge gate = slowest worker, ",
            "best of 2\",",
            "\"cells\":{},\"victim_cells\":{},\"victim_partition_ms\":{},\"stall_ms\":{},",
            "\"static_gate_s\":{:.6},\"steal_gate_s\":{:.6},\"improvement\":{:.3}}}"
        ),
        plan.len(),
        victim_cells,
        VICTIM_MS,
        OTHER_MS,
        STALL_MS,
        plan.len(),
        victim_cells,
        victim_ms,
        STALL_MS,
        static_gate,
        steal_gate,
        improvement,
    );
    std::fs::write(dir.join("BENCH_steal.json"), &json).expect("write BENCH_steal.json");
    println!(
        "steal_balance: {} cells, victim owns {victim_cells} ({victim_ms}ms) behind a \
         {STALL_MS}ms stall: static gate {static_gate:.3}s, steal gate {steal_gate:.3}s, \
         improvement {improvement:.1}x",
        plan.len(),
    );
    assert!(
        improvement >= 1.5,
        "live stealing must lower the straggler merge gate: expected >=1.5x, \
         got {improvement:.2}x ({json})"
    );
}
