//! Shard-scaling A/B: one evaluation process vs three `--shard k/3`
//! worker processes over the same cell-addressed plan.
//!
//! What this measures — and what it deliberately does not. On the CI
//! host class (one or two cores) the quick grid's *compute* cannot
//! speed up by adding processes: three workers time-slice the same
//! core. What sharding buys on any host is the **latency component**:
//! candidates that hang until the watchdog abandons them at the time
//! limit. A single `--jobs 1` process eats those waits back to back;
//! worker processes each eat only their shard's, concurrently — the
//! same wait-overlap physics the PR-1 scheduler bench measures inside
//! one process, here demonstrated across real OS processes driven by
//! the shared [`WorkPlan`].
//!
//! Mechanics: the bench re-execs itself (`PCG_SHARD_BENCH_ROLE=k/N`)
//! so every side runs in a genuinely separate process with its own
//! runner, exactly like production workers. Each role derives the
//! identical plan from the shared config — cell addressing needs no
//! coordination channel — takes the cells its [`ShardSpec`] owns, and
//! runs each as a hanging candidate abandoned at the 150 ms limit.
//! Writes `target/pcgbench/BENCH_shard.json` and asserts the >=2x bar
//! from the sharded-evaluation work.

use pcg_core::plan::ShardSpec;
use pcg_core::PcgError;
use pcg_harness::journal::config_hash;
use pcg_harness::{EvalConfig, SharedRunner};
use pcg_core::plan::WorkPlan;
use std::time::{Duration, Instant};

const HANG_CELLS: usize = 24;
const HANG_TIMEOUT: Duration = Duration::from_millis(150);
const ROLE_VAR: &str = "PCG_SHARD_BENCH_ROLE";

fn hang_cfg() -> EvalConfig {
    let mut cfg = EvalConfig::quick();
    cfg.timeout = HANG_TIMEOUT;
    // A sleeping hang never unwinds cooperatively; don't pad every
    // abandonment with the default 2 s cancellation grace.
    cfg.grace = Duration::from_millis(50);
    cfg
}

/// The first `HANG_CELLS` cells of the quick grid's plan — the slice
/// of real (model × task) cells this bench pretends hang at runtime.
fn bench_plan() -> WorkPlan {
    let cfg = hang_cfg();
    let models: Vec<String> =
        pcg_models::zoo().into_iter().map(|m| m.card().name.to_string()).collect();
    let tasks: Vec<_> = pcg_core::task::all_tasks().collect();
    WorkPlan::new(config_hash(&cfg), models, tasks)
}

/// Worker body: run every owned cell of the plan as a hanging
/// candidate; each is abandoned by the supervisor at the time limit.
fn run_role(spec: ShardSpec) {
    let runner = SharedRunner::new(hang_cfg());
    let owned = bench_plan()
        .cells()
        .take(HANG_CELLS)
        .filter(|c| spec.contains(c.id))
        .count();
    for _ in 0..owned {
        let out = runner.run_isolated(|| {
            // Far past the limit; the watcher abandons us at 150 ms.
            std::thread::sleep(Duration::from_secs(600));
            Ok::<_, PcgError>(())
        });
        assert_eq!(out.error, Some("timeout"));
    }
}

/// Spawn one child process per spec, concurrently; wall seconds until
/// the slowest exits.
fn processes_seconds(specs: &[ShardSpec]) -> f64 {
    let exe = std::env::current_exe().expect("own path");
    let t0 = Instant::now();
    let children: Vec<_> = specs
        .iter()
        .map(|spec| {
            std::process::Command::new(&exe)
                .env(ROLE_VAR, spec.to_string())
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn shard worker")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("wait for shard worker");
        assert!(status.success(), "shard worker failed: {status:?}");
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    if let Ok(role) = std::env::var(ROLE_VAR) {
        run_role(ShardSpec::parse(&role).expect("valid role spec"));
        return;
    }

    // Sanity: the three shards must partition the bench slice.
    let plan = bench_plan();
    let owned: Vec<usize> = (0..3)
        .map(|k| {
            plan.cells()
                .take(HANG_CELLS)
                .filter(|c| ShardSpec::new(k, 3).contains(c.id))
                .count()
        })
        .collect();
    assert_eq!(owned.iter().sum::<usize>(), HANG_CELLS);
    assert!(owned.iter().all(|&n| n > 0), "degenerate shard split: {owned:?}");

    let three_specs = [ShardSpec::new(0, 3), ShardSpec::new(1, 3), ShardSpec::new(2, 3)];
    // Best of 2 to shed scheduling noise; the single process runs the
    // whole slice (0/1 == the unsharded plan).
    let single = processes_seconds(&[ShardSpec::WHOLE]).min(processes_seconds(&[ShardSpec::WHOLE]));
    let sharded = processes_seconds(&three_specs).min(processes_seconds(&three_specs));
    let speedup = single / sharded;

    let json = format!(
        concat!(
            "{{\"workload\":\"timeout-abandonment latency component of the quick grid: ",
            "{} hanging cells ({}ms limit) from the cell-addressed plan, ",
            "1 process vs 3 shard worker processes (jobs 1 each, best of 2)\",",
            "\"cells\":{},\"shard_cells\":[{},{},{}],",
            "\"single_process_s\":{:.6},\"three_workers_s\":{:.6},\"speedup\":{:.3}}}"
        ),
        HANG_CELLS,
        HANG_TIMEOUT.as_millis(),
        HANG_CELLS,
        owned[0],
        owned[1],
        owned[2],
        single,
        sharded,
        speedup,
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/pcgbench");
    std::fs::create_dir_all(&dir).expect("create target/pcgbench");
    std::fs::write(dir.join("BENCH_shard.json"), &json).expect("write BENCH_shard.json");
    println!(
        "shard_scale: {HANG_CELLS} hanging cells ({:?} limit): 1 process {single:.3}s, \
         3 workers {sharded:.3}s ({:?} cells each), speedup {speedup:.1}x",
        HANG_TIMEOUT, owned,
    );
    assert!(
        speedup >= 2.0,
        "sharded workers must overlap abandonment waits: expected >=2x at 3 processes, \
         got {speedup:.2}x ({json})"
    );
}
