//! # pcg-e2e — one end-to-end ledger for PCGBench-rs
//!
//! The paper's headline numbers are measured times, so the harness that
//! produces them gets the same rigor: one benchmark that times whole
//! evaluations end to end, checks their outputs, and explains the time
//! layer by layer. See `README.md` next to this crate for the full
//! write-up; this page is the summary.
//!
//! ## Command
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path bench-e2e/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Defaults: all four workloads, seed 20240501 (the `EvalConfig`
//! default), 20 seconds of runs per workload, tracing off. Every run is
//! a fresh child process (`--child`, internal) with its own working
//! directory under `target/pcgbench-e2e/`, every `PCG_*` variable
//! cleared and `--jobs` passed explicitly as the available parallelism.
//! Load is a closed loop: one parent runs one short child at a time,
//! child `i` on seed `--seed + (i mod 4)`. Evaluations dispatch by the
//! default cost profile (`--priors default`), whose shared queue cannot
//! hit the steal-path deadlock of the default dispatch. A child past
//! its deadline (120 s for `quick`, 60 s otherwise) is killed and its
//! cells count as failed.
//!
//! Each workload prints every end-to-end metric with its unit, median,
//! quartiles and run count, a line of checked cells, and as its last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 1` follows the runs with one traced run: it prints every
//! per-layer metric instead and writes
//! `target/pcgbench-e2e/trace-<workload>.json` (Chrome trace events).
//! Every set is appended, with every run's raw values, to
//! `target/pcgbench-e2e/results.json`, stamped with the commit, the
//! host (`nproc`, CPU model), the seed, the jobs count and the config
//! hash.
//!
//! ## Workloads
//!
//! | name | one run | why |
//! |---|---|---|
//! | `quick` | one cold quick-config pass over every fifth task (84 tasks × 7 models), journal on, records/stats/columnar commit, every table and figure rendered | the headline job; MPI worlds of up to 512 ranks dominate, so MPI-layer work shows here and almost nowhere else |
//! | `threaded` | one cold pass over the 360 non-MPI tasks × 7 models, journaling every cell | bypasses the MPI simulator: substrates, leases, the supervisor and journal appends dominate; the "no change" control for MPI work |
//! | `variants` | the threaded grid crossed with all four prompt variants (28 rows) | the same executions over 4× the cells: sampling, outcome-cache hits, appends and dispatch dominate |
//! | `replay` | 6 iterations of: `--resume` of a complete journal, a 2-shard merge, a warm cache load, a render of every figure; journals synthesised from the seed and rewritten before each iteration as set-up | the read path: codec, JSON, commit and report changes show here and substrate changes cannot |
//!
//! ## Metrics
//!
//! End to end, per workload, over the runs of a set
//! ([`metrics::END_TO_END`]): the medians of `wall_s`, `cpu_s` (user +
//! kernel CPU from `/proc/self/stat`) and `setup_s`, and the highest
//! `peak_rss_mib` (`VmHWM`). The failed-cell count is reported against
//! the attempted count in the result line. Per layer, from the traced
//! run ([`metrics::PER_LAYER`], each annotated with the end-to-end
//! metric and workload it should move): process, `pcg-models`
//! sampling, scheduler, runner, lease and input cache, one pass per
//! substrate column, MPI worlds, journal write and read, and the
//! commit and read path.
//!
//! ## Comparing two commits
//!
//! Build each commit once, then alternate the two builds at least ten
//! times per workload, each pair on a fresh seed, and compare the
//! ledgers: a change wins only if it is better in at least nine of ten
//! pairs and the medians differ by more than the parent's own
//! interquartile spread; no other metric may worsen by more than its
//! bound in `BENCHMARK.json`.
//!
//! The six A/B benches under `crates/pcg-bench/benches` and the root
//! `BENCH_*.json` snapshots stay as they are.

pub mod json;
pub mod metrics;
pub mod parent;
pub mod procfs;
pub mod trace;
pub mod workload;
