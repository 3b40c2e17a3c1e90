//! Disk-cached end-to-end evaluation used by the figure binaries: the
//! command line, the run it resolves to, and the records cache.
//!
//! [`load_or_run_opts`] works out a process's run once (its candidate
//! source, cache path, plan and cost priors) and hands it to one of
//! three drivers in [`crate::shard`]: a `--shard k/N` worker evaluates
//! its slice into its own journal and exits; `--merge-shards N`
//! stitches the N shard journals into a records cache byte-identical
//! to a single-process run; and a whole run, unless its cache already
//! holds exactly the run's plan of cells ([`read_cache`]), is the
//! one-shard case of the worker (`ShardSpec::WHOLE`), which commits
//! the records instead of a shard sidecar.
//!
//! Crash safety: while a grid runs, every completed cell is appended to
//! a cell-addressed write-ahead journal next to the cache file (keyed
//! by the cell's globally stable [`pcg_core::plan::CellId`], and
//! group-committed: see [`crate::journal::Journal`]). The run waits on
//! [`crate::journal::Journal::sync`] before it commits. The records
//! cache is committed in the journal's own frame format
//! ([`crate::journal::commit_record`]; a resume or merge copies the
//! frames it replayed instead of encoding them again), and it and the
//! stats sidecar are committed atomically (temp file + rename), so
//! readers never observe a torn record; the journal is deleted only
//! after the cache commit succeeds. A run killed at any point can be
//! restarted with `--resume` and will re-evaluate only the cells the
//! journal does not already hold — and, if the journal accumulated
//! stale lines (torn tails, shadowed duplicate appends), resume first
//! compacts it in place.

use crate::config::EvalConfig;
use crate::eval;
use crate::journal;
use crate::record::{EvalRecord, EvalStats};
use pcg_core::plan::{ShardSpec, WorkPlan};
use pcg_core::{CandidateKind, CostPriors, TaskId};
use pcg_models::{CandidateSource, ReplaySource, SampleSpec, SyntheticSource};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Default cache path for a config (quick and full runs cache
/// separately).
pub fn default_cache_path(cfg: &EvalConfig) -> PathBuf {
    let tag = if cfg.size_divisor == 1 { "full" } else { "quick" };
    PathBuf::from("target").join("pcgbench").join(format!("records-{tag}.rec"))
}

/// Sidecar path for the scheduler stats of the run cached at `cache`
/// (`records-quick.rec` → `records-quick.stats.json`), in the cache's
/// own directory. Stats live outside the record because they are
/// timing-dependent, while the record must be byte-identical across
/// worker counts.
pub fn cache_stats_path(cache: &Path) -> PathBuf {
    cache.with_extension("stats.json")
}

/// The stats sidecar of a config's default cache
/// ([`default_cache_path`]).
pub fn stats_path(cfg: &EvalConfig) -> PathBuf {
    cache_stats_path(&default_cache_path(cfg))
}

/// How a pipeline run is driven, as parsed from a harness binary's
/// command line by [`parse_args`]. Every run keeps a write-ahead
/// journal, and shard workers of a multi-shard run always steal from
/// lagging siblings; neither is an option.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker count for the evaluation grid (`--jobs N`; the machine's
    /// available parallelism when absent).
    pub jobs: usize,
    /// Replay a matching write-ahead journal left by an interrupted
    /// run, evaluating only the missing cells (`--resume`).
    pub resume: bool,
    /// Run only the cells of one shard (`--shard k/N`) into a shard
    /// journal, then exit — worker mode for multi-process evaluation.
    pub shard: Option<ShardSpec>,
    /// Merge N shard journals into the records cache instead of
    /// evaluating (`--merge-shards N`).
    pub merge_shards: Option<u32>,
    /// Cost-priors source for adaptive scheduling (`--priors SRC`): a
    /// finished run's records cache, whose stats sidecar's measured
    /// cell walls become the scheduling cost table ([`load_priors`]),
    /// or the literal `default` for the committed analytic profile.
    /// `None` dispatches cells in plan order and shards by `id % count`. Not an [`EvalConfig`] field:
    /// priors steer when and where cells run, never what they compute,
    /// so they stay out of the config hash and switching them keeps
    /// every cache and journal valid.
    pub priors: Option<String>,
    /// Score a dumped candidate pool from this directory instead of
    /// sampling the synthetic zoo (`--replay-pool DIR`). The pool's
    /// content hash enters the config hash as the source's salt, so
    /// replay runs cache, journal, shard, and merge under their own
    /// cell ids.
    pub replay_pool: Option<String>,
}

impl RunOptions {
    /// Options for `jobs` workers, resume off, unsharded, no priors.
    pub fn new(jobs: usize) -> RunOptions {
        RunOptions {
            jobs,
            resume: false,
            shard: None,
            merge_shards: None,
            priors: None,
            replay_pool: None,
        }
    }
}

/// A harness binary's parsed command line.
#[derive(Debug)]
pub struct Cli {
    /// [`EvalConfig::quick`], or [`EvalConfig::full`] with `--full`,
    /// with the config flags applied on top.
    pub cfg: EvalConfig,
    /// The run options.
    pub opts: RunOptions,
    /// The arguments that are not flags, in order.
    pub positional: Vec<String>,
    /// The names of the flags given, without `--`.
    pub flags: Vec<&'static str>,
}

/// Every flag [`parse_args`] accepts, with the placeholder of its
/// value (`None` for a switch), in usage-line order.
const FLAGS: [(&str, Option<&str>); 11] = [
    ("full", None),
    ("timeout", Some("SECS")),
    ("deadlock-rate", Some("R")),
    ("stack-hog-rate", Some("R")),
    ("prompt-variants", Some("LIST")),
    ("jobs", Some("N")),
    ("resume", None),
    ("shard", Some("K/N")),
    ("merge-shards", Some("N")),
    ("priors", Some("SRC")),
    ("replay-pool", Some("DIR")),
];

/// The flags only a binary that runs an evaluation honours.
const RUN_FLAGS: [&str; 5] = ["jobs", "resume", "shard", "merge-shards", "priors"];

/// Parse a harness binary's arguments (program name excluded) into the
/// run's config, options and positional arguments.
///
/// Flags come in any order, each at most once. `--full` picks the
/// paper-scale base config and every other config flag overrides a
/// field of that base, so `--timeout 5 --full` is the full config with
/// a 5 s timeout. `--timeout SECS` (whole seconds) exists for
/// multi-process runs: when N workers contend for the same cores, one
/// generous limit keeps wall-clock verdicts load-independent, and
/// since the timeout is part of the config hash, the workers, the
/// merge and any reference run must all pass the same value.
/// `--deadlock-rate R` and `--stack-hog-rate R` set the chaos-injection
/// weights. An unknown flag, a repeated one, a flag missing its value
/// and a malformed value are errors. An argument that does not start
/// with `--` is positional.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut flags: Vec<(&'static str, String)> = Vec::new();
    let mut positional = Vec::new();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let Some(body) = arg.strip_prefix("--") else {
            positional.push(arg);
            continue;
        };
        let (name, inline) = match body.split_once('=') {
            Some((name, v)) => (name, Some(v.to_string())),
            None => (body, None),
        };
        let Some(&(flag, placeholder)) = FLAGS.iter().find(|(f, _)| *f == name) else {
            return Err(format!("unknown flag --{name}"));
        };
        let value = match (placeholder, inline) {
            (None, Some(_)) => return Err(format!("--{flag} takes no value")),
            (None, None) => String::new(),
            (Some(_), inline) => inline
                .or_else(|| args.next_if(|v| !v.starts_with("--")))
                .filter(|v| !v.is_empty())
                .ok_or_else(|| format!("--{flag} expects a value"))?,
        };
        if flags.iter().any(|(f, _)| *f == flag) {
            return Err(format!("--{flag} given twice"));
        }
        flags.push((flag, value));
    }

    let mut cfg = if flags.iter().any(|(f, _)| *f == "full") {
        EvalConfig::full()
    } else {
        EvalConfig::quick()
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut opts = RunOptions::new(jobs);
    let given = flags.iter().map(|&(flag, _)| flag).collect();
    let rate = |r: &f64| r.is_finite() && *r >= 0.0;
    for (flag, raw) in flags {
        match flag {
            "timeout" => {
                let secs = value(flag, &raw, "a positive number of seconds", |&s: &u64| s > 0)?;
                cfg.timeout = std::time::Duration::from_secs(secs);
            }
            "deadlock-rate" => cfg.deadlock_rate = value(flag, &raw, "a rate >= 0", rate)?,
            "stack-hog-rate" => cfg.stack_hog_rate = value(flag, &raw, "a rate >= 0", rate)?,
            "prompt-variants" => {
                cfg.prompt_variants = crate::config::parse_variants(&raw)
                    .map_err(|e| format!("--prompt-variants: {e}"))?;
            }
            "jobs" => opts.jobs = value(flag, &raw, "a positive integer", |&n: &usize| n > 0)?,
            "resume" => opts.resume = true,
            "shard" => {
                opts.shard = Some(ShardSpec::parse(&raw).map_err(|e| format!("--shard: {e}"))?);
            }
            "merge-shards" => {
                let n = value(flag, &raw, "a positive integer", |&n: &u32| n > 0)?;
                opts.merge_shards = Some(n);
            }
            "priors" => opts.priors = Some(raw),
            "replay-pool" => opts.replay_pool = Some(raw),
            _ => {} // `--full` picked the base config above.
        }
    }
    Ok(Cli { cfg, opts, positional, flags: given })
}

/// An error if `cli` asks for something its binary will not do. A
/// shard worker (`--shard k/N`, N > 1) evaluates its slice and exits,
/// so it does not merge; and a binary that runs no evaluation honours
/// no run option but `--replay-pool`.
fn check_honoured(cli: &Cli, evaluates: bool) -> Result<(), String> {
    let given = |flag: &&str| cli.flags.contains(flag);
    if let Some(flag) = RUN_FLAGS.iter().find(|f| !evaluates && given(f)) {
        return Err(format!("--{flag} does not apply: this binary runs no evaluation"));
    }
    if cli.opts.shard.is_some_and(|s| !s.is_whole()) && given(&"merge-shards") {
        return Err("--merge-shards does not apply to a --shard worker, which only evaluates".into());
    }
    Ok(())
}

/// `raw` parsed as a `T` that passes `ok`, or an error naming the flag
/// and what it expects.
fn value<T: std::str::FromStr>(
    flag: &str,
    raw: &str,
    expects: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    raw.parse().ok().filter(ok).ok_or_else(|| format!("--{flag} expects {expects}, got {raw:?}"))
}

/// [`parse_args`] over this process's arguments, for a binary that
/// takes exactly the positional arguments named in `positional`. A
/// binary with positional arguments (`dump_pool DIR`) runs no
/// evaluation, so it rejects the run options it would ignore. On any
/// error, prints it with a usage line and exits with code 2, before any
/// work starts.
pub fn from_cli(positional: &[&str]) -> Cli {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let error = match parse_args(args) {
        Ok(cli) if cli.positional.len() != positional.len() => {
            format!("expected arguments {positional:?}, got {:?}", cli.positional)
        }
        Ok(cli) => match check_honoured(&cli, positional.is_empty()) {
            Ok(()) => return cli,
            Err(e) => e,
        },
        Err(e) => e,
    };
    let program = Path::new(&program).file_name().unwrap_or_default().to_string_lossy();
    eprintln!("{program}: error: {error}");
    eprintln!("{}", usage_line(&program, positional));
    std::process::exit(2);
}

/// The usage line of a binary that takes the `positional` arguments. A
/// binary with positional arguments runs no evaluation, so its line
/// leaves out the run options [`check_honoured`] rejects.
fn usage_line(program: &str, positional: &[&str]) -> String {
    let evaluates = positional.is_empty();
    let mut usage = format!("usage: {program}");
    for p in positional {
        usage += &format!(" {p}");
    }
    for (flag, placeholder) in FLAGS.iter().filter(|(f, _)| evaluates || !RUN_FLAGS.contains(f)) {
        usage += &match placeholder {
            Some(v) => format!(" [--{flag} {v}]"),
            None => format!(" [--{flag}]"),
        };
    }
    usage
}

/// The candidate source a pipeline run scores: the synthetic zoo
/// crossed with the config's prompt variants (the default), or a
/// dumped candidate pool replayed from a directory. Resolved once per
/// run by [`resolve_source`] and threaded through planning, journal
/// identity, and evaluation.
pub enum ResolvedSource {
    /// The calibrated zoo under `cfg.prompt_variants`.
    Synthetic(SyntheticSource),
    /// A dumped pool re-scored offline-deterministically.
    Replay(ReplaySource),
}

impl CandidateSource for ResolvedSource {
    fn model_names(&self) -> Vec<String> {
        match self {
            ResolvedSource::Synthetic(s) => s.model_names(),
            ResolvedSource::Replay(r) => r.model_names(),
        }
    }

    fn weights_available(&self, model: usize) -> bool {
        match self {
            ResolvedSource::Synthetic(s) => s.weights_available(model),
            ResolvedSource::Replay(r) => r.weights_available(model),
        }
    }

    fn sample(&self, model: usize, task: TaskId, spec: &SampleSpec) -> Vec<CandidateKind> {
        match self {
            ResolvedSource::Synthetic(s) => s.sample(model, task, spec),
            ResolvedSource::Replay(r) => r.sample(model, task, spec),
        }
    }

    fn config_salt(&self) -> Vec<u8> {
        match self {
            ResolvedSource::Synthetic(s) => s.config_salt(),
            ResolvedSource::Replay(r) => r.config_salt(),
        }
    }
}

/// Resolve the run's candidate source from config and options. Exits
/// with code 2 on an unusable combination — a replay pool that does
/// not load, or one combined with knobs that change what a pool would
/// have contained (prompt variants, chaos injection): degrading
/// silently to the zoo would score the wrong thing under the wrong
/// hash, and cooperating shard workers must all fail the same way.
pub fn resolve_source(cfg: &EvalConfig, opts: &RunOptions) -> ResolvedSource {
    let Some(dir) = opts.replay_pool.as_deref() else {
        return ResolvedSource::Synthetic(SyntheticSource::zoo(&cfg.prompt_variants));
    };
    if cfg.prompt_variants != crate::config::default_variants() {
        eprintln!(
            "[pcgbench] error: --replay-pool and --prompt-variants are mutually exclusive: \
             a pool's rows are fixed by its manifest"
        );
        std::process::exit(2);
    }
    if cfg.deadlock_rate != 0.0 || cfg.stack_hog_rate != 0.0 {
        eprintln!(
            "[pcgbench] error: chaos injection cannot be combined with --replay-pool: \
             a dumped pool's contents are fixed"
        );
        std::process::exit(2);
    }
    match ReplaySource::open(Path::new(dir)) {
        Ok(r) => {
            eprintln!(
                "[pcgbench] replay pool: {} rows from {} (content hash {:016x})",
                r.model_names().len(),
                dir,
                r.content_hash(),
            );
            ResolvedSource::Replay(r)
        }
        Err(e) => {
            eprintln!("[pcgbench] error: could not open replay pool {dir}: {e}");
            std::process::exit(2);
        }
    }
}

/// A run as one process works it out, once, from its config and
/// options, and hands to the whole-run, shard-worker and merge drivers
/// ([`crate::shard`]).
pub(crate) struct Run {
    /// The candidate source ([`resolve_source`]).
    pub source: ResolvedSource,
    /// The source's config salt, stamped into every journal header.
    pub salt: Vec<u8>,
    /// The records cache the run commits to; its journals, shard
    /// journals and sidecars are named after it.
    pub cache: PathBuf,
    /// The run's cells.
    pub plan: WorkPlan,
    /// The scheduling cost table ([`load_priors`]).
    pub priors: Option<CostPriors>,
    /// The table's hash stamp (0 without one), which every journal
    /// header of the run carries.
    pub priors_hash: u64,
}

impl Run {
    /// Resolve the run of `cfg` and `opts` over `tasks` (`None`: all
    /// 420). It commits to `path`, else to the config-tagged default,
    /// or, for a replay-pool run, to a pool-hash qualified variant of
    /// the default, so a replayed scoring can never satisfy (or
    /// clobber) the synthetic cache for the same config.
    pub(crate) fn resolve(
        path: Option<&Path>,
        cfg: &EvalConfig,
        opts: &RunOptions,
        tasks: Option<&[TaskId]>,
    ) -> Run {
        let source = resolve_source(cfg, opts);
        let cache = match (path, &source) {
            (Some(p), _) => p.to_path_buf(),
            (None, ResolvedSource::Synthetic(_)) => default_cache_path(cfg),
            (None, ResolvedSource::Replay(r)) => {
                let tag = if cfg.size_divisor == 1 { "full" } else { "quick" };
                PathBuf::from("target")
                    .join("pcgbench")
                    .join(format!("records-{tag}-pool{:016x}.rec", r.content_hash()))
            }
        };
        let plan = eval::plan_for(cfg, &source, tasks);
        let priors = load_priors(opts);
        Run {
            salt: source.config_salt(),
            priors_hash: priors.as_ref().map_or(0, CostPriors::hash),
            source,
            cache,
            plan,
            priors,
        }
    }
}

/// Resolve the options' priors source into a loaded [`CostPriors`]
/// table. `None` means "no priors" (plan-order dispatch), `default` the
/// committed analytic profile, and any other source a finished run's
/// records cache, whose stats sidecar holds its measured walls. A
/// source that yields no table degrades loudly to the default profile
/// rather than silently to plan-order dispatch, so cooperating shard
/// workers that all pass the same broken path still agree on the
/// partition.
pub fn load_priors(opts: &RunOptions) -> Option<CostPriors> {
    let src = opts.priors.as_deref()?;
    if src == "default" {
        return Some(CostPriors::default_profile());
    }
    let cache = Path::new(src);
    match measured_priors(cache, opts.jobs) {
        Ok(p) => {
            eprintln!(
                "[pcgbench] priors: {} measured cell walls from {} (hash {:016x})",
                p.len(),
                cache_stats_path(cache).display(),
                p.hash(),
            );
            Some(p)
        }
        Err(e) => {
            eprintln!(
                "[pcgbench] warning: no priors from {src}: {e}; using the default cost profile"
            );
            Some(CostPriors::default_profile())
        }
    }
}

/// The cost table of the run committed at `cache`: each measured cell
/// wall of its stats sidecar ([`EvalStats::cell_walls`]), joined by
/// cell id with the model and task of the cache's own cell, read on up
/// to `jobs` threads. An error for a missing or damaged cache or
/// sidecar, and a sidecar with no positive wall (a run that only
/// replayed its journal measured nothing): a table that knows nothing
/// is worse than the honest default profile.
fn measured_priors(cache: &Path, jobs: usize) -> Result<CostPriors, String> {
    let sidecar = cache_stats_path(cache);
    let bytes = std::fs::read(&sidecar).map_err(|e| format!("{}: {e}", sidecar.display()))?;
    let stats: EvalStats =
        serde_json::from_slice(&bytes).map_err(|e| format!("{}: {e}", sidecar.display()))?;
    let (_, cells) = journal::read_cells(cache, jobs)
        .ok_or_else(|| format!("{} is not a readable records cache", cache.display()))?;
    let walls: HashMap<u64, f64> = stats.cell_walls.iter().map(|w| (w.cell, w.secs)).collect();
    let entries = cells.into_iter().filter_map(|(id, c)| {
        walls.get(&id.0).map(|&secs| (c.model, c.record.task.index() as u32, secs))
    });
    let priors = CostPriors::from_entries(&cache.to_string_lossy(), entries);
    if priors.is_empty() {
        return Err(format!("{} carries no measured walls", sidecar.display()));
    }
    Ok(priors)
}

/// Load a cached evaluation record if it matches `cfg`, else run the
/// full evaluation (all 7 models, all 420 tasks) and cache it. The
/// cache is jobs-agnostic: records are byte-identical at any worker
/// count, so a cache written at `--jobs 8` serves `--jobs 1` — and,
/// with `--resume`, a run resumed from a journal serves both. In shard
/// worker mode the process runs its slice and exits; in merge mode the
/// shard journals are stitched into the cache instead of evaluating.
pub fn load_or_run_opts(path: Option<&Path>, cfg: &EvalConfig, opts: &RunOptions) -> EvalRecord {
    if let Some(shard) = opts.shard.filter(|s| !s.is_whole()) {
        // Worker mode: the process exists to produce one shard
        // journal, not a figure. Exit before touching the cache so
        // concurrent workers cannot race on it.
        crate::shard::run_shard(path, cfg, opts, shard, None);
        std::process::exit(0);
    }
    let run = Run::resolve(path, cfg, opts, None);
    if let Some(rec) = read_cache_parallel(&run.cache, cfg, &run.plan, opts.jobs) {
        eprintln!("[pcgbench] loaded cached records from {}", run.cache.display());
        return rec;
    }
    if run.cache.exists() {
        eprintln!("[pcgbench] cache does not match this run; re-running evaluation");
        // The sidecar describes the cache's run; drop it now so a
        // crash mid-re-run cannot leave it lying about this one.
        let _ = std::fs::remove_file(cache_stats_path(&run.cache));
    }
    if let Some(count) = opts.merge_shards {
        return crate::shard::merge(&run, cfg, opts, count);
    }
    eprintln!(
        "[pcgbench] running evaluation (7 models x 420 tasks, size/{}, {} low samples, {} worker{})...",
        cfg.size_divisor,
        cfg.samples_low,
        opts.jobs,
        if opts.jobs == 1 { "" } else { "s" },
    );
    crate::shard::run_whole(&run, cfg, opts)
}

/// The record committed at `path` for `plan`, or `None` unless the
/// cache reads back whole ([`journal::read_cells`]) under the plan's
/// cache header and holds exactly the plan's cells in plan order: a
/// cache of another config, source or task subset, a damaged one, or
/// one from an older release is a miss.
pub fn read_cache(path: &Path, cfg: &EvalConfig, plan: &WorkPlan) -> Option<EvalRecord> {
    read_cache_parallel(path, cfg, plan, 1)
}

/// [`read_cache`] decoding on up to `jobs` threads.
pub(crate) fn read_cache_parallel(
    path: &Path,
    cfg: &EvalConfig,
    plan: &WorkPlan,
    jobs: usize,
) -> Option<EvalRecord> {
    let (header, cells) = journal::read_cells(path, jobs)?;
    let fits = header == journal::Header::cache(plan)
        && cells.len() == plan.len()
        && plan.cells().zip(&cells).all(|(c, (id, _))| c.id == *id);
    let mut cells = cells.into_iter().map(|(_, c)| c.record);
    fits.then(|| eval::assemble(cfg, plan, |_| cells.next().expect("the cache covers the plan")))
}

/// Commit a finished run's records next to `cache`: the records cache
/// in frame format, copying the `replayed` cells' journal frames and
/// encoding the rest ([`journal::commit_frames`]), and the stats
/// sidecar, whose measured cell walls are the next run's `--priors`
/// source. Returns whether the cache landed; the journals the record
/// was assembled from may be deleted only then.
pub(crate) fn commit_run(
    cache: &Path,
    plan: &WorkPlan,
    record: &EvalRecord,
    replayed: &journal::Frames,
    stats: &EvalStats,
) -> bool {
    let committed = journal::commit_frames(cache, plan, record, replayed);
    match &committed {
        Ok(()) => eprintln!("[pcgbench] cached records at {}", cache.display()),
        Err(e) => eprintln!("[pcgbench] warning: could not cache records: {e}"),
    }
    if let Ok(bytes) = serde_json::to_vec(stats) {
        let _ = atomic_write(&cache_stats_path(cache), &bytes);
    }
    committed.is_ok()
}

/// A process-unique temp-file suffix: `.{tag}.{pid}.{seq}`. The PID
/// separates concurrent processes (two `--merge-shards` runs pointed
/// at the same output directory must not clobber each other's
/// atomic-rename commit); the process-global sequence number separates
/// concurrent threads *within* one process, which share a PID.
pub(crate) fn unique_suffix(tag: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    format!(".{tag}.{}.{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed))
}

/// Write `bytes` to `path` atomically: readers (and crashes) see either
/// the previous file or the complete new one, never a torn write.
/// Concurrent writers (other processes or threads) cannot collide on
/// the temp file thanks to [`unique_suffix`]; last rename wins.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut os = path.as_os_str().to_os_string();
    os.push(unique_suffix("tmp"));
    let tmp = PathBuf::from(os);
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_paths_distinguish_modes() {
        let q = default_cache_path(&EvalConfig::quick());
        let f = default_cache_path(&EvalConfig::full());
        assert_ne!(q, f);
        assert_ne!(stats_path(&EvalConfig::quick()), q);
    }

    #[test]
    fn stats_sidecars_sit_next_to_their_cache() {
        assert_eq!(
            stats_path(&EvalConfig::quick()),
            Path::new("target/pcgbench/records-quick.stats.json")
        );
        assert_eq!(
            cache_stats_path(Path::new("/tmp/x/records-quick-pool1f.rec")),
            Path::new("/tmp/x/records-quick-pool1f.stats.json")
        );
    }

    #[test]
    fn atomic_write_replaces_contents_without_leftovers() {
        let dir = std::env::temp_dir().join("pcgbench-pipeline-tests");
        let path = dir.join(format!("atomic-{}.json", std::process::id()));
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer payload");
        // No temp droppings left behind.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "temp files must not survive: {strays:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unique_suffixes_never_collide_within_a_process() {
        let a = unique_suffix("tmp");
        let b = unique_suffix("tmp");
        assert_ne!(a, b, "concurrent writers in one process must get distinct temp names");
        assert!(a.starts_with(".tmp."));
        assert!(a.contains(&std::process::id().to_string()));
    }

    #[test]
    fn run_options_default_to_resume_off_unsharded() {
        let o = RunOptions::new(3);
        assert_eq!(o.jobs, 3);
        assert!(!o.resume);
        assert!(o.shard.is_none());
        assert!(o.merge_shards.is_none());
        assert!(o.priors.is_none());
    }

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn every_flag_parses_in_both_spellings() {
        let every_flag = [
            ("--full", ""),
            ("--timeout", "7"),
            ("--deadlock-rate", "0.5"),
            ("--stack-hog-rate", "0.25"),
            ("--prompt-variants", "naive,rag"),
            ("--jobs", "3"),
            ("--resume", ""),
            ("--shard", "1/4"),
            ("--merge-shards", "4"),
            ("--priors", "default"),
            ("--replay-pool", "pool-dir"),
        ];
        for joined in [false, true] {
            let mut args = vec!["first".to_string()];
            for (flag, v) in every_flag {
                match (v.is_empty(), joined) {
                    (true, _) => args.push(flag.to_string()),
                    (false, false) => args.extend([flag.to_string(), v.to_string()]),
                    (false, true) => args.push(format!("{flag}={v}")),
                }
            }
            args.push("second".to_string());
            let cli = parse_args(args).unwrap();
            let want = EvalConfig {
                timeout: std::time::Duration::from_secs(7),
                deadlock_rate: 0.5,
                stack_hog_rate: 0.25,
                prompt_variants: crate::config::parse_variants("naive,rag").unwrap(),
                ..EvalConfig::full()
            };
            assert_eq!(cli.cfg, want);
            let o = &cli.opts;
            assert_eq!((o.jobs, o.resume), (3, true));
            assert_eq!((o.shard, o.merge_shards), (Some(ShardSpec::new(1, 4)), Some(4)));
            assert_eq!(o.priors.as_deref(), Some("default"));
            assert_eq!(o.replay_pool.as_deref(), Some("pool-dir"));
            assert_eq!(cli.positional, ["first", "second"]);
        }
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        let bad: [&[&str]; 17] = [
            &["--merge-shard", "3"],
            &["--shard"],
            &["--jobs", "0"],
            &["--timeout", "2m"],
            &["--shard", "3/3"],
            &["--merge-shards", "0"],
            &["--prompt-variants", "grandmaster"],
            &["--no-journal"],
            &["--steal"],
            &["--priors", "--resume"],
            &["--replay-pool="],
            &["--resume=yes"],
            &["--jobs", "2", "--jobs=3"],
            &["--timeout", "0"],
            &["--deadlock-rate", "-1"],
            &["--stack-hog-rate", "NaN"],
            &["--keep-shards"],
        ];
        for args in bad {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            let flag = args[0].split('=').next().unwrap();
            assert!(err.contains(flag), "{args:?}: the error must name {flag}: {err}");
        }
    }

    #[test]
    fn options_the_binary_would_ignore_are_rejected() {
        let check = |args: &[&str], evaluates| check_honoured(&parse(args).unwrap(), evaluates);
        let err = check(&["--shard", "1/3", "--merge-shards", "3"], true).unwrap_err();
        assert!(err.contains("--merge-shards"), "the error must name the flag: {err}");
        let dump_pool: [&[&str]; 5] = [
            &["--jobs", "2"],
            &["--resume"],
            &["--shard", "1/3"],
            &["--merge-shards", "3"],
            &["--priors", "default"],
        ];
        for args in dump_pool {
            let err = check(args, false).expect_err(&format!("{args:?} must be rejected"));
            assert!(err.contains(args[0]), "{args:?}: the error must name {}: {err}", args[0]);
        }
        check(&["--shard", "1/3", "--resume"], true).unwrap();
        check(&["--merge-shards", "3"], true).unwrap();
        check(&["--timeout", "120", "--replay-pool", "pool"], false).unwrap();
    }

    #[test]
    fn usage_lines_offer_only_the_options_the_binary_honours() {
        assert_eq!(
            usage_line("reproduce", &[]),
            "usage: reproduce [--full] [--timeout SECS] [--deadlock-rate R] \
             [--stack-hog-rate R] [--prompt-variants LIST] [--jobs N] [--resume] \
             [--shard K/N] [--merge-shards N] [--priors SRC] [--replay-pool DIR]"
        );
        assert_eq!(
            usage_line("dump_pool", &["DIR"]),
            "usage: dump_pool DIR [--full] [--timeout SECS] [--deadlock-rate R] \
             [--stack-hog-rate R] [--prompt-variants LIST] [--replay-pool DIR]"
        );
        // Every flag the dump_pool line offers passes `check_honoured`.
        for (flag, placeholder) in FLAGS.iter().filter(|(f, _)| !RUN_FLAGS.contains(f)) {
            let arg = match placeholder {
                Some(_) if *flag == "prompt-variants" => format!("--{flag}=naive"),
                Some(_) => format!("--{flag}=1"),
                None => format!("--{flag}"),
            };
            let cli = parse(&[arg.as_str()]).unwrap();
            check_honoured(&cli, false).unwrap_or_else(|e| panic!("{arg}: {e}"));
        }
    }

    #[test]
    fn config_hashes_hold_whatever_the_flag_order() {
        let hash = |args: &[&str]| crate::journal::config_hash(&parse(args).unwrap().cfg);
        let none = parse(&[]).unwrap();
        assert_eq!(none.cfg, EvalConfig::quick());
        assert!(none.opts.jobs >= 1 && !none.opts.resume && none.positional.is_empty());
        assert_eq!(hash(&[]), 0xae46_9d44_b947_4de6);
        assert_eq!(hash(&["--full"]), 0xa30a_b17c_83ba_8d19);
        let secs = std::time::Duration::from_secs;
        let quick_120 = EvalConfig { timeout: secs(120), ..EvalConfig::quick() };
        assert_eq!(hash(&["--timeout", "120"]), crate::journal::config_hash(&quick_120));
        let full_5 = EvalConfig { timeout: secs(5), ..EvalConfig::full() };
        assert_eq!(parse(&["--timeout", "5", "--full"]).unwrap().cfg, full_5);
        assert_eq!(parse(&["--full", "--timeout=5"]).unwrap().cfg, full_5);
    }
}
