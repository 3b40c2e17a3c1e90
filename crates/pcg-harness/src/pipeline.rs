//! Disk-cached end-to-end evaluation used by the figure binaries.
//!
//! Crash safety: while a grid runs, every completed cell is appended to
//! a cell-addressed write-ahead journal next to the cache file (keyed
//! by the cell's globally stable [`pcg_core::plan::CellId`], and
//! group-committed: see [`crate::journal::Journal`]). The run waits on
//! [`crate::journal::Journal::sync`] before it commits. The records
//! cache is committed in the journal's own frame format
//! ([`crate::journal::commit_record`]), and it and the stats sidecar
//! are committed atomically (temp file + rename), so readers never
//! observe a torn record; the journal is deleted only after the cache
//! commit succeeds. A cache serves a run only if it holds exactly that
//! run's plan of cells ([`read_cache`]). A run killed at any point can be
//! restarted with `--resume` and will re-evaluate only the cells the
//! journal does not already hold — and, if the journal accumulated
//! stale lines (torn tails, shadowed duplicate appends), resume first
//! compacts it in place.
//!
//! Multi-process mode: `--shard k/N` runs one deterministic slice of
//! the grid into its own journal and exits; `--merge-shards N` stitches
//! the N shard journals into a records cache byte-identical to a
//! single-process run (see [`crate::shard`]).

use crate::config::EvalConfig;
use crate::eval::{self, evaluate_resumable_priors};
use crate::journal::{self, Journal};
use crate::record::{EvalRecord, EvalStats};
use crate::runner::SharedRunner;
use crate::scheduler;
use pcg_core::plan::{CellId, ShardSpec, WorkPlan};
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

/// Sidecar path for the scheduler stats of a cached run. Stats live
/// outside the record because they are timing-dependent, while the
/// record must be byte-identical across worker counts.
pub fn stats_path(cfg: &EvalConfig) -> PathBuf {
    let tag = if cfg.size_divisor == 1 { "full" } else { "quick" };
    PathBuf::from("target").join("pcgbench").join(format!("records-{tag}.stats.json"))
}

/// How a pipeline run is driven, as parsed from a figure binary's
/// command line.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker count for the evaluation grid.
    pub jobs: usize,
    /// Replay a matching write-ahead journal left by an interrupted
    /// run, evaluating only the missing cells (`--resume`).
    pub resume: bool,
    /// Keep a write-ahead journal while running (`--no-journal`
    /// disables it, giving up crash safety).
    pub journal: bool,
    /// Run only the cells of one shard (`--shard k/N`) into a shard
    /// journal, then exit — worker mode for multi-process evaluation.
    pub shard: Option<ShardSpec>,
    /// Merge N shard journals into the records cache instead of
    /// evaluating (`--merge-shards N`).
    pub merge_shards: Option<u32>,
    /// Cost-priors source for adaptive scheduling (`--priors <path>` /
    /// `PCG_PRIORS`): a records cache or `.cols` sidecar whose measured
    /// cell walls become the scheduling cost table, or the literal
    /// `default` for the committed analytic profile. `None` dispatches
    /// cells in plan order and shards by `id % count`.
    pub priors: Option<String>,
    /// Let shard workers steal whole cells from lagging siblings after
    /// draining their own partition (`--steal` / `--no-steal`, env
    /// `PCG_STEAL`). On by default; only effective in worker mode — a
    /// single-process run has no siblings to steal from. Like priors,
    /// deliberately outside the config hash: stealing moves cells
    /// between processes, never changes what they compute.
    pub steal: bool,
    /// Keep the per-shard journals and stats sidecars after a
    /// successful merge instead of deleting them (`--keep-shards` /
    /// `PCG_KEEP_SHARDS`), for post-mortem inspection of who evaluated
    /// — and who stole — what.
    pub keep_shards: bool,
    /// Score a dumped candidate pool from this directory instead of
    /// sampling the synthetic zoo (`--replay-pool <dir>` /
    /// `PCG_REPLAY_POOL`). The pool's content hash enters the config
    /// hash as the source's salt, so replay runs cache, journal,
    /// shard, and merge under their own cell ids.
    pub replay_pool: Option<String>,
}

impl RunOptions {
    /// Options for `jobs` workers with journaling on and resume off.
    pub fn new(jobs: usize) -> RunOptions {
        RunOptions {
            jobs,
            resume: false,
            journal: true,
            shard: None,
            merge_shards: None,
            priors: None,
            steal: true,
            keep_shards: false,
            replay_pool: None,
        }
    }

    /// Parse `--jobs N`, `--resume`, `--no-journal`, `--shard k/N`
    /// (env fallback `PCG_SHARD`), `--merge-shards N` (env fallback
    /// `PCG_MERGE_SHARDS`), `--priors SRC` (env fallback `PCG_PRIORS`),
    /// `--steal`/`--no-steal` (env fallback `PCG_STEAL`, default on),
    /// and `--keep-shards` (env fallback `PCG_KEEP_SHARDS`) from the
    /// process arguments (exits with code 2 on a malformed value, like
    /// [`scheduler::jobs_from_cli`]).
    pub fn from_cli() -> RunOptions {
        let has = |flag: &str| std::env::args().any(|a| a == flag);
        RunOptions {
            jobs: scheduler::jobs_from_cli(),
            resume: has("--resume"),
            journal: !has("--no-journal"),
            shard: shard_from_cli(),
            merge_shards: merge_from_cli(),
            priors: flag_value("--priors").or_else(crate::config::priors_source),
            steal: steal_from_cli(),
            keep_shards: keep_shards_from_cli(),
            replay_pool: flag_value("--replay-pool")
                .or_else(crate::config::replay_pool_source),
        }
    }

    /// The options with a priors source swapped in (builder-style, for
    /// tests and benches).
    pub fn with_priors(mut self, src: impl Into<String>) -> RunOptions {
        self.priors = Some(src.into());
        self
    }

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

/// The cache path a run commits to: the caller's explicit path, the
/// config-tagged default, or — for a replay-pool run — a pool-hash
/// qualified variant of the default, so a replayed scoring can never
/// satisfy (or clobber) the synthetic cache for the same config.
pub(crate) fn cache_path_for(
    path: Option<&Path>,
    cfg: &EvalConfig,
    source: &ResolvedSource,
) -> PathBuf {
    if let Some(p) = path {
        return p.to_path_buf();
    }
    match source {
        ResolvedSource::Synthetic(_) => default_cache_path(cfg),
        ResolvedSource::Replay(r) => {
            let tag = if cfg.size_divisor == 1 { "full" } else { "quick" };
            PathBuf::from("target")
                .join("pcgbench")
                .join(format!("records-{tag}-pool{:016x}.rec", r.content_hash()))
        }
    }
}

/// Resolve the options' priors source into a loaded [`CostPriors`]
/// table. `None` means "no priors" (legacy scheduling); any failure to
/// load a named source degrades loudly to the committed default
/// profile rather than silently to legacy scheduling, so cooperating
/// shard workers that all pass the same broken path still agree on the
/// partition.
pub fn load_priors(opts: &RunOptions) -> Option<CostPriors> {
    let src = opts.priors.as_deref()?;
    if src == "default" {
        return Some(CostPriors::default_profile());
    }
    let path = Path::new(src);
    // Accept either the `.cols` sidecar itself or the records cache it
    // sits next to.
    let sidecar = if path.extension().is_some_and(|e| e == "cols") {
        path.to_path_buf()
    } else {
        crate::colstats::cols_path(path)
    };
    match crate::colstats::ColumnarStats::read(&sidecar) {
        Ok(cols) => match cols.cost_priors(src) {
            Some(p) => {
                eprintln!(
                    "[pcgbench] priors: {} measured cell walls from {} (hash {:016x})",
                    p.len(),
                    sidecar.display(),
                    p.hash(),
                );
                Some(p)
            }
            None => {
                eprintln!(
                    "[pcgbench] warning: {} carries no measured walls; using the default cost profile",
                    sidecar.display(),
                );
                Some(CostPriors::default_profile())
            }
        },
        Err(e) => {
            eprintln!(
                "[pcgbench] warning: could not read priors from {}: {e}; using the default cost profile",
                sidecar.display(),
            );
            Some(CostPriors::default_profile())
        }
    }
}

/// `--shard k/N` / `--shard=k/N` from the arguments, else the
/// `PCG_SHARD` environment variable. Exits with code 2 on a malformed
/// spec.
fn shard_from_cli() -> Option<ShardSpec> {
    let raw = flag_value("--shard").or_else(|| std::env::var("PCG_SHARD").ok())?;
    match ShardSpec::parse(&raw) {
        Ok(spec) => Some(spec),
        Err(e) => {
            eprintln!("[pcgbench] invalid shard spec {raw:?}: {e}");
            std::process::exit(2);
        }
    }
}

/// `--merge-shards N` / `--merge-shards=N` from the arguments, else
/// the `PCG_MERGE_SHARDS` environment variable. Exits with code 2 on a
/// malformed count.
fn merge_from_cli() -> Option<u32> {
    let raw = flag_value("--merge-shards").or_else(|| std::env::var("PCG_MERGE_SHARDS").ok())?;
    match raw.parse::<u32>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!("[pcgbench] invalid shard count {raw:?}: expected a positive integer");
            std::process::exit(2);
        }
    }
}

/// Parse a boolean switch value (`1/true/on/yes` vs `0/false/off/no`,
/// case-insensitive). Exits with code 2 on anything else — a typo'd
/// `PCG_STEAL=ture` silently defaulting would be worse than stopping.
fn switch(raw: &str, what: &str) -> bool {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => true,
        "0" | "false" | "off" | "no" => false,
        _ => {
            eprintln!("[pcgbench] invalid {what} value {raw:?}: expected 1/true/on or 0/false/off");
            std::process::exit(2);
        }
    }
}

/// `--steal` / `--no-steal` from the arguments (explicit flags win),
/// else the `PCG_STEAL` environment variable, else on.
fn steal_from_cli() -> bool {
    let has = |flag: &str| std::env::args().any(|a| a == flag);
    if has("--no-steal") {
        return false;
    }
    if has("--steal") {
        return true;
    }
    crate::config::steal_source().is_none_or(|raw| switch(&raw, "PCG_STEAL"))
}

/// `--keep-shards` from the arguments, else the `PCG_KEEP_SHARDS`
/// environment variable, else off.
fn keep_shards_from_cli() -> bool {
    if std::env::args().any(|a| a == "--keep-shards") {
        return true;
    }
    crate::config::keep_shards_source().is_some_and(|raw| switch(&raw, "PCG_KEEP_SHARDS"))
}

/// The value of `--flag value` or `--flag=value` in the process args.
fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(flag) {
            if let Some(v) = v.strip_prefix('=') {
                return Some(v.to_string());
            }
        }
    }
    None
}

/// Load a cached evaluation record if it matches `cfg`, else run the
/// full evaluation (all 7 models, all 420 tasks) and cache it. The
/// cache is jobs-agnostic: records are byte-identical at any worker
/// count, so a cache written at `--jobs 8` serves `--jobs 1` — and,
/// with `--resume`, a run resumed from a journal serves both. In shard
/// worker mode the process runs its slice and exits; in merge mode the
/// shard journals are stitched into the cache instead of evaluating.
pub fn load_or_run_opts(path: Option<&Path>, cfg: &EvalConfig, opts: &RunOptions) -> EvalRecord {
    if let Some(spec) = opts.shard {
        if !spec.is_whole() {
            // Worker mode: the process exists to produce one shard
            // journal, not a figure. Exit before touching the cache so
            // concurrent workers cannot race on it.
            crate::shard::run_shard(path, cfg, opts, spec, None);
            std::process::exit(0);
        }
    }
    let source = resolve_source(cfg, opts);
    let salt = source.config_salt();
    let path = cache_path_for(path, cfg, &source);
    let plan = eval::plan_for(cfg, &source, None);
    if let Some(rec) = read_cache(&path, cfg, &plan) {
        eprintln!("[pcgbench] loaded cached records from {}", path.display());
        return rec;
    }
    if path.exists() {
        eprintln!("[pcgbench] cache does not match this run; re-running evaluation");
        // The sidecar describes the cache's run; drop it now so a
        // crash mid-re-run cannot leave it lying about this one.
        let _ = std::fs::remove_file(stats_path(cfg));
    }
    if let Some(count) = opts.merge_shards {
        return crate::shard::merge_shards(Some(&path), cfg, opts, count, None);
    }
    eprintln!(
        "[pcgbench] running evaluation (7 models x 420 tasks, size/{}, {} low samples, {} worker{})...",
        cfg.size_divisor,
        cfg.samples_low,
        opts.jobs,
        if opts.jobs == 1 { "" } else { "s" },
    );

    let priors = load_priors(opts);
    let priors_hash = priors.as_ref().map_or(0, |p| p.hash());
    let jpath = journal::journal_path(&path);
    let resumed = if opts.resume {
        resume_journal(&jpath, cfg, &salt, ShardSpec::WHOLE, priors_hash)
    } else {
        ResumedJournal::default()
    };
    let replay = resumed.replay;
    if !replay.is_empty() {
        eprintln!(
            "[pcgbench] resuming: {} cell{} replayed from {}",
            replay.len(),
            if replay.len() == 1 { "" } else { "s" },
            jpath.display(),
        );
    }
    let wal = if opts.journal {
        let opened = if replay.is_empty() || resumed.recreate {
            Journal::create_sourced(&jpath, cfg, &salt, ShardSpec::WHOLE, priors_hash)
        } else {
            Journal::open_append(&jpath)
        };
        match opened {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("[pcgbench] warning: could not open journal: {e}");
                None
            }
        }
    } else {
        None
    };

    let runner = SharedRunner::new(cfg.clone());
    let (record, mut stats) = evaluate_resumable_priors(
        cfg,
        &source,
        None,
        opts.jobs,
        priors.as_ref(),
        &runner,
        &replay,
        |cell, model, rec| {
            if let Some(j) = &wal {
                if let Err(e) = j.append(cell, model, rec) {
                    eprintln!("[pcgbench] warning: journal append failed: {e}");
                }
            }
        },
    );
    if let Some(j) = &wal {
        if let Err(e) = j.sync() {
            eprintln!("[pcgbench] warning: journal sync failed: {e}");
        }
    }
    stats.journal_compactions = resumed.compacted;
    stats.journal_frames_rejected = resumed.rejected;
    eprintln!("[pcgbench] evaluation finished in {:.1}s", stats.wall_s);
    eprint!("{}", crate::report::stats_summary(&stats));

    let committed = match journal::commit_record(&path, &plan, &record) {
        Ok(()) => {
            eprintln!("[pcgbench] cached records at {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("[pcgbench] warning: could not cache records: {e}");
            false
        }
    };
    write_stats(cfg, &stats);
    if committed {
        write_cols_sidecar(&path, &record, &stats, &salt);
        // The cache now holds everything the journal was protecting.
        journal::remove(&jpath);
    }
    record
}

/// The record committed at `path` for `plan`, or `None` unless the
/// cache reads back whole ([`journal::read_cells`]) under the plan's
/// cache header and holds exactly the plan's cells in plan order: a
/// cache of another config, source or task subset, a damaged one, or
/// one from an older release is a miss.
pub fn read_cache(path: &Path, cfg: &EvalConfig, plan: &WorkPlan) -> Option<EvalRecord> {
    let (header, cells) = journal::read_cells(path)?;
    let fits = header == journal::Header::cache(plan)
        && cells.len() == plan.len()
        && plan.cells().zip(&cells).all(|(c, (id, _))| c.id == *id);
    let mut cells = cells.into_iter().map(|(_, c)| c.record);
    fits.then(|| eval::assemble(cfg, plan, |_| cells.next().expect("the cache covers the plan")))
}

/// Commit the columnar projection sidecar next to a freshly written
/// records cache, with the run's measured per-cell walls folded into
/// the wall column (the next run's `--priors` source). Best-effort:
/// without it, `--priors` falls back to the default cost profile.
pub(crate) fn write_cols_sidecar(
    cache: &Path,
    record: &EvalRecord,
    stats: &EvalStats,
    salt: &[u8],
) {
    let mut cols = crate::colstats::ColumnarStats::from_record(record);
    if !stats.cell_walls.is_empty() {
        let chash = journal::config_hash_with(&record.config, salt);
        let walls: HashMap<CellId, f64> =
            stats.cell_walls.iter().map(|w| (CellId(w.cell), w.secs)).collect();
        cols.set_walls(chash, &walls);
    }
    if let Err(e) = atomic_write(&crate::colstats::cols_path(cache), &cols.to_bytes()) {
        eprintln!("[pcgbench] warning: could not write columnar sidecar: {e}");
    }
}

/// What [`resume_journal`] recovered and how the journal must be
/// reopened for further appends (the default: nothing replayed).
#[derive(Default)]
pub(crate) struct ResumedJournal {
    /// Replayable cells (empty without `--resume`).
    pub replay: journal::Replay,
    /// Stale frames folded away by compaction (the
    /// `journal_compactions` stat).
    pub compacted: u64,
    /// Corrupt frames refused during replay (the
    /// `journal_frames_rejected` stat).
    pub rejected: u64,
    /// When true the on-disk file could not be compacted and MUST be
    /// recreated rather than appended to — frames appended after a
    /// stale tail would never replay. The replay above is still valid
    /// in memory.
    pub recreate: bool,
}

/// Load a journal for resume: report every rejected frame with its
/// byte offset / frame index / cell id, then compact when the file
/// carries stale frames. A journal that replays nothing (missing, not
/// v3, or written for another config, shard or priors) is left for the
/// caller to recreate.
pub(crate) fn resume_journal(
    path: &Path,
    cfg: &EvalConfig,
    salt: &[u8],
    shard: ShardSpec,
    priors_hash: u64,
) -> ResumedJournal {
    let loaded = journal::load_counting_sourced(path, cfg, salt, shard, priors_hash);
    for r in &loaded.rejects {
        eprintln!("[pcgbench] warning: journal {}: rejected {r}", path.display());
    }
    let rejected = loaded.rejects.len() as u64;
    if !loaded.needs_compaction() {
        return ResumedJournal { replay: loaded.replay, compacted: 0, rejected, recreate: false };
    }
    match journal::compact_sourced(path, cfg, salt, shard, priors_hash, &loaded.replay) {
        Ok(_) => {
            eprintln!(
                "[pcgbench] compacted journal: {} stale frame{} folded away",
                loaded.stale_frames,
                if loaded.stale_frames == 1 { "" } else { "s" },
            );
            ResumedJournal {
                replay: loaded.replay,
                compacted: loaded.stale_frames as u64,
                rejected,
                recreate: false,
            }
        }
        Err(e) => {
            eprintln!("[pcgbench] warning: journal compaction failed: {e}");
            ResumedJournal { replay: loaded.replay, compacted: 0, rejected, recreate: true }
        }
    }
}

fn write_stats(cfg: &EvalConfig, stats: &EvalStats) {
    if let Ok(bytes) = serde_json::to_vec(stats) {
        let _ = atomic_write(&stats_path(cfg), &bytes);
    }
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
    fn run_options_default_to_journal_on_resume_off_unsharded() {
        let o = RunOptions::new(3);
        assert_eq!(o.jobs, 3);
        assert!(o.journal);
        assert!(!o.resume);
        assert!(o.shard.is_none());
        assert!(o.merge_shards.is_none());
        assert!(o.steal, "stealing defaults on (harmless outside worker mode)");
        assert!(!o.keep_shards, "merge cleans up its inputs by default");
    }

    #[test]
    fn switch_accepts_the_usual_spellings() {
        for raw in ["1", "true", "ON", "Yes"] {
            assert!(switch(raw, "test"));
        }
        for raw in ["0", "false", "OFF", "no"] {
            assert!(!switch(raw, "test"));
        }
    }
}
