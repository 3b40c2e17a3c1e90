//! The parent process: runs one child per run in a closed loop, kills
//! a child that passes its deadline, checks outputs, aggregates the
//! metrics, prints them, and appends the set to the ledger.

use crate::json::{self, num, obj, string};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::workload::{child_seed, pinned_fnv, ChildReport, Scale, Shape, Workload};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// No set runs longer than this, so the benchmark always exits well
/// within three minutes: a child's deadline is cut to what is left.
const SET_BUDGET: Duration = Duration::from_secs(170);

/// One set of runs of one workload.
#[derive(Debug, Clone)]
pub struct SetConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed: child `i` runs on [`child_seed`]`(seed, i)`.
    pub seed: u64,
    /// Keep starting untraced runs until this many seconds have passed.
    pub seconds: f64,
    /// Follow the untraced runs with one traced run.
    pub trace: bool,
    /// Evaluation worker count passed to every child.
    pub jobs: usize,
    /// Work per child.
    pub scale: Scale,
    /// The benchmark executable children are started from.
    pub exe: PathBuf,
    /// Directory for child working directories, traces and the ledger.
    pub out_dir: PathBuf,
    /// Per-child deadline.
    pub deadline: Duration,
}

impl SetConfig {
    /// The benchmark's settings for `workload`: jobs = available
    /// parallelism, this executable, outputs under `out_dir`.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        out_dir: PathBuf,
    ) -> SetConfig {
        SetConfig {
            workload,
            seed,
            seconds,
            trace,
            jobs: procfs::nproc(),
            scale: Scale::Bench,
            exe: std::env::current_exe().expect("the benchmark knows its own path"),
            out_dir,
            deadline: workload.deadline(),
        }
    }
}

/// How one child ended.
#[derive(Debug, Clone)]
pub enum ChildOutcome {
    /// It printed a report and exited 0.
    Done {
        /// Spawn to the start of its first timed iteration, plus the
        /// set-up it reported between iterations.
        setup_s: f64,
        /// Its report.
        report: ChildReport,
    },
    /// It was killed at its deadline, crashed, exited non-zero, or
    /// printed no report; every cell it attempted counts as failed.
    Failed(String),
}

/// One child of a set.
#[derive(Debug, Clone)]
pub struct Run {
    /// Whether this was the traced run.
    pub traced: bool,
    /// The child's input seed.
    pub seed: u64,
    /// Cells the child attempted.
    pub cells: u64,
    /// How it ended.
    pub outcome: ChildOutcome,
}

/// Everything one set measured.
#[derive(Debug, Clone)]
pub struct SetResult {
    /// What was run.
    pub config: SetConfig,
    /// Every child, in start order.
    pub runs: Vec<Run>,
    /// Per child seed, the projection FNV every run on that seed had
    /// to produce: the pin where the seed is pinned, else the value most
    /// of its runs agreed on.
    pub expected_fnv: BTreeMap<u64, u64>,
    /// How many of those seeds were pinned.
    pub pinned: usize,
    /// Cells attempted over all runs.
    pub attempted: u64,
    /// Cells that failed: cells of failed children, cells a child's
    /// own checks rejected, and every cell of a run whose projection
    /// differs from its seed's `expected_fnv`.
    pub failed: u64,
    /// Outputs checked and no cell failed.
    pub correct: bool,
}

impl SetResult {
    fn done(&self, traced: bool) -> impl Iterator<Item = (f64, &Run, &ChildReport)> + '_ {
        self.runs
            .iter()
            .filter(move |r| r.traced == traced)
            .filter_map(|r| match &r.outcome {
                ChildOutcome::Done { setup_s, report } => Some((*setup_s, r, report)),
                ChildOutcome::Failed(_) => None,
            })
    }

    /// Raw per-run values of every end-to-end metric (untraced runs).
    pub fn end_to_end_samples(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (setup_s, _, r) in self.done(false) {
            out.entry("wall_s").or_default().push(r.wall_s);
            out.entry("cpu_s").or_default().push(r.usage.cpu_s());
            out.entry("peak_rss_mib")
                .or_default()
                .push(r.peak_rss_kib as f64 / 1024.0);
            out.entry("setup_s").or_default().push(setup_s);
        }
        out
    }

    /// The reported metrics: every end-to-end metric over the set's
    /// untraced runs (medians, and the highest RSS peak), or with tracing every
    /// per-layer metric of the traced run.
    pub fn metrics(&self) -> Vec<(&'static MetricDef, f64)> {
        if !self.config.trace {
            let samples = self.end_to_end_samples();
            return END_TO_END
                .iter()
                .map(|d| (d, samples.get(d.name).map_or(0.0, |v| reported(d.name, v))))
                .collect();
        }
        let traced = self.done(true).next().map(|(_, run, r)| (run.seed, r));
        // Overhead is judged against untraced runs on the traced run's
        // own seed: other seeds evaluate other inputs.
        let untraced_wall = |seed: u64| {
            let walls: Vec<f64> = self
                .done(false)
                .filter(|(_, run, _)| run.seed == seed)
                .map(|(_, _, r)| r.wall_s)
                .collect();
            median(&walls)
        };
        PER_LAYER
            .iter()
            .map(|d| {
                let v = match (d.name, traced) {
                    ("trace.overhead_frac", Some((seed, r))) if untraced_wall(seed) > 0.0 => {
                        r.wall_s / untraced_wall(seed) - 1.0
                    }
                    (name, Some((_, r))) => r.layers.get(name).copied().unwrap_or(0.0),
                    (_, None) => 0.0,
                };
                (d, v)
            })
            .collect()
    }
}

/// Run one set: untraced children back to back until `seconds` have
/// passed (at least one), then, with tracing, one traced child on the
/// set's own seed.
pub fn run_set(cfg: &SetConfig) -> SetResult {
    let start = Instant::now();
    let cells = Shape::of(cfg.workload, cfg.scale).cells(cfg.workload);
    let mut runs: Vec<Run> = Vec::new();
    loop {
        let elapsed = start.elapsed();
        let traced = if runs.is_empty() || elapsed.as_secs_f64() < cfg.seconds {
            false
        } else if cfg.trace && !runs.iter().any(|r| r.traced) {
            true
        } else {
            break;
        };
        let left = SET_BUDGET.saturating_sub(elapsed);
        if left.is_zero() {
            break;
        }
        let seed = if traced {
            cfg.seed
        } else {
            child_seed(cfg.seed, runs.len())
        };
        let outcome = run_child_process(cfg, runs.len(), seed, traced, cfg.deadline.min(left));
        let failed = matches!(outcome, ChildOutcome::Failed(_));
        if let ChildOutcome::Failed(why) = &outcome {
            eprintln!(
                "pcg-e2e: {} run {} failed: {why}",
                cfg.workload.name(),
                runs.len()
            );
        }
        runs.push(Run {
            traced,
            seed,
            cells,
            outcome,
        });
        // The set is already incorrect; more runs would only repeat it.
        if failed {
            break;
        }
    }
    judge(cfg.clone(), runs)
}

/// Check every run's outputs against its seed's pin (or the consensus
/// of the runs on that seed) and count attempted and failed cells.
pub fn judge(config: SetConfig, runs: Vec<Run>) -> SetResult {
    let mut votes: BTreeMap<u64, BTreeMap<u64, usize>> = BTreeMap::new();
    for r in &runs {
        if let ChildOutcome::Done { report, .. } = &r.outcome {
            *votes
                .entry(r.seed)
                .or_default()
                .entry(report.fnv)
                .or_default() += 1;
        }
    }
    let mut pinned = 0;
    let expected_fnv: BTreeMap<u64, u64> = votes
        .into_iter()
        .map(|(seed, counts)| {
            let pin = pinned_fnv(config.workload, seed, config.scale);
            pinned += usize::from(pin.is_some());
            let consensus = counts
                .into_iter()
                .max_by_key(|&(fnv, n)| (n, std::cmp::Reverse(fnv)));
            (
                seed,
                pin.unwrap_or_else(|| consensus.expect("a seed with votes").0),
            )
        })
        .collect();
    let mut attempted = 0;
    let mut failed = 0;
    for r in &runs {
        attempted += r.cells;
        failed += match &r.outcome {
            ChildOutcome::Done { report, .. } if expected_fnv.get(&r.seed) == Some(&report.fnv) => {
                report.failed_cells.min(r.cells)
            }
            ChildOutcome::Done { report, .. } => {
                eprintln!(
                    "pcg-e2e: seed {}: projection fnv {:016x} differs from the expected {:016x}",
                    r.seed, report.fnv, expected_fnv[&r.seed],
                );
                r.cells
            }
            ChildOutcome::Failed(_) => r.cells,
        };
    }
    let done = |traced: bool| {
        runs.iter()
            .any(|r| r.traced == traced && matches!(r.outcome, ChildOutcome::Done { .. }))
    };
    SetResult {
        pinned,
        correct: failed == 0 && done(false) && (!config.trace || done(true)),
        config,
        runs,
        expected_fnv,
        attempted: attempted.max(1),
        failed,
    }
}

/// Start one child in a fresh working directory with every `PCG_*`
/// variable cleared, and wait for its report, killing it at `deadline`.
fn run_child_process(
    cfg: &SetConfig,
    index: usize,
    seed: u64,
    traced: bool,
    deadline: Duration,
) -> ChildOutcome {
    let dir = cfg.out_dir.join(format!(
        "run-{}-{}-{index}",
        cfg.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return ChildOutcome::Failed(format!("cannot create {}: {e}", dir.display()));
    }
    let log = match std::fs::File::create(dir.join("child.log")) {
        Ok(f) => f,
        Err(e) => return ChildOutcome::Failed(format!("cannot create the child log: {e}")),
    };
    let mut cmd = Command::new(&cfg.exe);
    cmd.args(["--child", cfg.workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--jobs", &cfg.jobs.to_string()])
        .current_dir(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log);
    if cfg.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    if traced {
        cmd.arg("--trace-out")
            .arg(trace_path(&cfg.out_dir, cfg.workload));
    }
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PCG_") {
            cmd.env_remove(key);
        }
    }

    let spawned = Instant::now();
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return ChildOutcome::Failed(format!("cannot start {}: {e}", cfg.exe.display())),
    };
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((line, Instant::now())).is_err() {
                break;
            }
        }
    });
    let until = spawned + deadline;
    let mut ready = None;
    let mut result = None;
    let mut timed_out = false;
    loop {
        let wait = until.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok((line, at)) if line == "ready" => ready = ready.or(Some(at)),
            Ok((line, _)) => result = Some(line),
            Err(RecvTimeoutError::Timeout) => {
                timed_out = true;
                break;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if timed_out {
        // Killing closes the pipe, which ends the reader thread.
        let _ = child.kill();
    }
    let status = child.wait();
    let _ = reader.join();
    let outcome = match (timed_out, status, ready, result) {
        (true, _, _, _) => ChildOutcome::Failed(format!("killed at its {deadline:?} deadline")),
        (_, Err(e), _, _) => ChildOutcome::Failed(format!("wait failed: {e}")),
        (_, Ok(s), _, _) if !s.success() => ChildOutcome::Failed(format!("exited with {s}")),
        (_, _, None, _) => ChildOutcome::Failed("never started its timed region".into()),
        (_, _, _, None) => ChildOutcome::Failed("printed no report".into()),
        (_, _, Some(at), Some(line)) => match ChildReport::from_json(&line) {
            Ok(report) => ChildOutcome::Done {
                setup_s: (at - spawned).as_secs_f64() + report.setup_extra_s,
                report,
            },
            Err(e) => ChildOutcome::Failed(format!("unreadable report: {e}")),
        },
    };
    // A failed child's directory (and its `child.log`) stays for
    // inspection.
    if matches!(outcome, ChildOutcome::Done { .. }) {
        let _ = std::fs::remove_dir_all(&dir);
    }
    outcome
}

/// Where a traced run writes its Chrome trace.
pub fn trace_path(out_dir: &Path, workload: Workload) -> PathBuf {
    out_dir.join(format!("trace-{}.json", workload.name()))
}

/// The value a set reports for end-to-end metric `name` over its runs:
/// the median, except for `peak_rss_mib`, which is the highest peak.
/// A run's peak depends on whether two large MPI worlds happened to
/// overlap, so per-run peaks are bimodal on `quick` and their median
/// flips between the modes; the highest peak is the memory the job
/// needs.
fn reported(name: &str, v: &[f64]) -> f64 {
    if name == "peak_rss_mib" {
        v.iter().copied().fold(0.0, f64::max)
    } else {
        median(v)
    }
}

/// The median of `v` (0 when empty).
fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The first and third quartiles of `v`, by the same rule as Python's
/// `statistics.quantiles(v, n=4)` (the "exclusive" method).
fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        // Python clamps the index but not the weight, so with few
        // points the outer quartiles extrapolate; so do these.
        let pos = i * (m + 1);
        let j = (pos / 4).clamp(1, m - 1);
        s[j - 1] + (s[j] - s[j - 1]) * (pos as f64 / 4.0 - j as f64)
    };
    (q(1), q(3))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The human-readable report of a set.
pub fn render_table(r: &SetResult) -> String {
    let c = &r.config;
    let mut s = String::new();
    let done = r.done(false).count();
    let _ = writeln!(
        s,
        "== pcg-e2e {} (seed {}, jobs {}, nproc {}, {} run{}{}) ==",
        c.workload.name(),
        c.seed,
        c.jobs,
        procfs::nproc(),
        done,
        if done == 1 { "" } else { "s" },
        if c.trace { " + 1 traced" } else { "" },
    );
    let _ = writeln!(s, "   why: {}", c.workload.why());
    let samples = r.end_to_end_samples();
    let _ = writeln!(
        s,
        "{:<14} {:<6} {:>12} {:>12} {:>12} {:>12} {:>5}",
        "metric", "unit", "reported", "median", "p25", "p75", "runs"
    );
    for d in &END_TO_END {
        let v = samples.get(d.name).map_or(&[][..], Vec::as_slice);
        let (p25, p75) = quartiles(v);
        let _ = writeln!(
            s,
            "{:<14} {:<6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>5}",
            d.name,
            d.unit,
            reported(d.name, v),
            median(v),
            p25,
            p75,
            v.len()
        );
    }
    let _ = writeln!(
        s,
        "cells: {} attempted, {} failed (failed_frac {:.6})",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted as f64
    );
    let _ = writeln!(
        s,
        "projections: {} seed{} ({} pinned, the rest agreed across runs); outputs {}",
        r.expected_fnv.len(),
        if r.expected_fnv.len() == 1 { "" } else { "s" },
        r.pinned,
        if r.correct { "correct" } else { "NOT correct" },
    );
    if c.trace {
        let _ = writeln!(
            s,
            "{:<30} {:<6} {:>14}  moves",
            "layer metric", "unit", "value"
        );
        for (d, v) in r.metrics() {
            let _ = writeln!(s, "{:<30} {:<6} {:>14.6}  {}", d.name, d.unit, v, d.note);
        }
        let _ = writeln!(s, "trace: {}", trace_path(&c.out_dir, c.workload).display());
    }
    s
}

/// The machine-readable last line of a set.
pub fn result_line(r: &SetResult) -> String {
    let metrics = r
        .metrics()
        .into_iter()
        .map(|(d, v)| (d.name, obj([("value", num(v)), ("unit", string(d.unit))])));
    json::render(obj([
        ("correct", Value::Bool(r.correct)),
        ("attempted", Value::U64(r.attempted)),
        ("failed", Value::U64(r.failed)),
        ("metrics", obj(metrics)),
    ]))
}

/// Append `r` to the ledger `out_dir/results.json`: every run's raw
/// values, stamped with the commit, the host, the seed, the jobs count
/// and the config hash. A ledger written at another commit is started
/// afresh, so one file always describes one commit.
pub fn append_ledger(r: &SetResult) -> std::io::Result<PathBuf> {
    let path = r.config.out_dir.join("results.json");
    let commit = current_commit();
    let mut sets = match std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| json::parse(&s).ok())
    {
        Some(doc) if json::get_str(&doc, "commit") == Some(commit.as_str()) => {
            match doc.field("sets") {
                Ok(Value::Arr(sets)) => sets.clone(),
                _ => Vec::new(),
            }
        }
        _ => Vec::new(),
    };
    sets.push(set_entry(r));
    let doc = obj([
        ("schema", string("pcg-e2e-ledger/1")),
        ("commit", string(commit)),
        (
            "host",
            obj([
                ("nproc", Value::U64(procfs::nproc() as u64)),
                ("cpu", string(procfs::cpu_model())),
            ]),
        ),
        ("sets", Value::Arr(sets)),
    ]);
    std::fs::create_dir_all(&r.config.out_dir)?;
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, json::render(doc))?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

fn set_entry(r: &SetResult) -> Value {
    let c = &r.config;
    let runs = r.runs.iter().map(|run| {
        let mut fields = vec![
            ("traced", Value::Bool(run.traced)),
            ("seed", Value::U64(run.seed)),
            ("cells", Value::U64(run.cells)),
        ];
        match &run.outcome {
            ChildOutcome::Done { setup_s, report } => fields.extend([
                ("setup_s", num(*setup_s)),
                ("wall_s", num(report.wall_s)),
                ("cpu_s", num(report.usage.cpu_s())),
                ("user_s", num(report.usage.user_s)),
                ("sys_s", num(report.usage.sys_s)),
                ("minflt", Value::U64(report.usage.minflt)),
                ("peak_rss_mib", num(report.peak_rss_kib as f64 / 1024.0)),
                ("failed_cells", Value::U64(report.failed_cells)),
                ("fnv", string(format!("{:016x}", report.fnv))),
                (
                    "config_hash",
                    string(format!("{:016x}", report.config_hash)),
                ),
            ]),
            ChildOutcome::Failed(why) => fields.push(("failure", string(why.clone()))),
        }
        obj(fields)
    });
    let unix_s = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let metrics = r.metrics().into_iter().map(|(d, v)| (d.name, num(v)));
    obj([
        ("workload", string(c.workload.name())),
        ("seed", Value::U64(c.seed)),
        ("jobs", Value::U64(c.jobs as u64)),
        ("seconds", num(c.seconds)),
        ("trace", Value::Bool(c.trace)),
        ("started_unix_s", Value::U64(unix_s)),
        ("config_hash", string(first_config_hash(r))),
        (
            "expected_fnv",
            obj(r
                .expected_fnv
                .iter()
                .map(|(seed, f)| (seed.to_string(), string(format!("{f:016x}"))))),
        ),
        ("attempted", Value::U64(r.attempted)),
        ("failed", Value::U64(r.failed)),
        ("correct", Value::Bool(r.correct)),
        ("metrics", obj(metrics)),
        ("runs", Value::Arr(runs.collect())),
    ])
}

fn first_config_hash(r: &SetResult) -> String {
    r.done(false)
        .chain(r.done(true))
        .find(|(_, run, _)| run.seed == r.config.seed)
        .map_or(String::new(), |(_, _, rep)| {
            format!("{:016x}", rep.config_hash)
        })
}

/// The commit checked out in the working directory (the checkout the
/// benchmark runs from), read from its `.git`; `unknown` when it is not
/// a git repository.
pub fn current_commit() -> String {
    read_head(Path::new(".git")).unwrap_or_else(|| "unknown".into())
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(name) = head.trim().strip_prefix("ref:").map(str::trim) else {
        return Some(head.trim().to_string());
    };
    let loose = std::fs::read_to_string(git.join(name)).ok();
    let packed = || {
        let refs = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        refs.lines().find_map(|l| {
            let (hash, r) = l.split_once(' ')?;
            (r == name).then(|| hash.to_string())
        })
    };
    loose.or_else(packed).map(|h| h.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[]), 0.0);
    }
}
