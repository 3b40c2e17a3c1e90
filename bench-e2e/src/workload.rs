//! The four workloads, as run inside one child process.
//!
//! A child sets its workload up, prints `ready` on stdout when its
//! timed region starts (so the parent can measure set-up from process
//! start), runs a fixed amount of work, checks its outputs outside the
//! timed region, and prints one JSON [`ChildReport`] as its last line.
//! A traced child additionally wraps the calls it makes into each
//! layer, runs the per-layer probes after the timed region, and writes
//! its spans as a Chrome trace.

use crate::json::{self, num, obj, string};
use crate::procfs::{self, Usage};
use crate::trace::{SpanId, Tracer};
use pcg_core::plan::{fnv1a, CellId, ShardSpec, WorkPlan};
use pcg_core::rng::splitmix64;
use pcg_core::task::all_tasks;
use pcg_core::{CandidateKind, CostPriors, ExecutionModel, PromptVariant, Quality, TaskId};
use pcg_harness::colstats::{self, ColumnarStats};
use pcg_harness::journal::{self, Journal, Replay, ReplayCell};
use pcg_harness::pipeline::{self, RunOptions};
use pcg_harness::record::{self, TaskRecord};
use pcg_harness::{eval, report, shard, EvalConfig, EvalRecord, EvalStats, SharedRunner};
use pcg_metrics::TaskSamples;
use pcg_models::{CandidateSource, SampleSpec, SyntheticSource};
use pcg_problems::{input_cache, lease, registry};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The default seed: `EvalConfig`'s own.
pub const DEFAULT_SEED: u64 = 20240501;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold quick-config evaluation with journal, commit and render.
    Quick,
    /// Cold evaluation of the 360 non-MPI tasks.
    Threaded,
    /// The threaded grid crossed with every prompt variant.
    Variants,
    /// Resume, merge, warm load and render of synthesised journals.
    Replay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Quick,
        Workload::Threaded,
        Workload::Variants,
        Workload::Replay,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Quick => "quick",
            Workload::Threaded => "threaded",
            Workload::Variants => "variants",
            Workload::Replay => "replay",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the benchmark runs this workload.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Quick => {
                "the users' headline job; MPI worlds of up to 512 ranks dominate, so MPI-layer work shows here and almost nowhere else"
            }
            Workload::Threaded => {
                "bypasses the MPI simulator: shared-memory, pattern, hybrid and GPU substrates, leases and journal appends dominate"
            }
            Workload::Variants => {
                "same executions as threaded over 4x the cells, so per-cell work dominates: sampling, outcome-cache hits, appends"
            }
            Workload::Replay => {
                "the read path: resume, shard merge, cache load and render; runs no candidate, so substrate changes cannot show"
            }
        }
    }

    /// How long one child may run before it is killed and its cells
    /// count as failed.
    pub fn deadline(self) -> Duration {
        match self {
            Workload::Quick => Duration::from_secs(120),
            _ => Duration::from_secs(60),
        }
    }
}

/// How much work one child does: the benchmark's size, or a reduced
/// task list for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's workloads.
    Bench,
    /// A few tasks per workload, for tests.
    Smoke,
}

/// What one child evaluates.
pub struct Shape {
    /// The tasks of the grid.
    pub tasks: Vec<TaskId>,
    /// Timed iterations per child: `replay` repeats its read path, the
    /// evaluation workloads run one cold pass.
    pub iterations: usize,
}

impl Shape {
    /// The shape of `workload` at `scale`.
    ///
    /// A child is kept short (one to three seconds) so a run holds
    /// many: their median averages out the per-process noise, and the
    /// rotating seeds average out the inputs. `quick` therefore takes
    /// every fifth task of the 420 (offset 1: 12 per execution model,
    /// variant 4 of every problem type under MPI), since a cold full
    /// grid takes about 23 s on two cores. `replay` always reads the
    /// full 420-task grid, because the pipeline's resume path plans the
    /// whole grid.
    pub fn of(workload: Workload, scale: Scale) -> Shape {
        let smoke = scale == Scale::Smoke;
        let non_mpi = |t: &TaskId| t.model != ExecutionModel::Mpi;
        // Stride 29 is coprime with the 7 execution models, so a smoke
        // list still touches every column.
        let tasks: Vec<TaskId> = match (workload, smoke) {
            (Workload::Quick, false) => all_tasks().skip(1).step_by(5).collect(),
            (Workload::Quick, true) => all_tasks().step_by(29).collect(),
            (Workload::Threaded | Workload::Variants, false) => {
                all_tasks().filter(non_mpi).collect()
            }
            (Workload::Threaded | Workload::Variants, true) => {
                all_tasks().filter(non_mpi).step_by(29).collect()
            }
            (Workload::Replay, _) => all_tasks().collect(),
        };
        let iterations = if workload == Workload::Replay && !smoke {
            6
        } else {
            1
        };
        Shape { tasks, iterations }
    }

    /// Grid cells one child attempts (rows × tasks × iterations).
    pub fn cells(&self, workload: Workload) -> u64 {
        let rows = config(workload, 0).prompt_variants.len() * pcg_models::zoo().len();
        (rows * self.tasks.len() * self.iterations) as u64
    }
}

/// The evaluation config of `workload` at `seed`: the quick config,
/// with every prompt variant for `variants`.
pub fn config(workload: Workload, seed: u64) -> EvalConfig {
    let mut cfg = EvalConfig {
        seed,
        ..EvalConfig::quick()
    };
    if workload == Workload::Variants {
        cfg.prompt_variants = PromptVariant::ALL.to_vec();
    }
    cfg
}

/// The children of a set cycle through this many consecutive seeds,
/// starting at the set's seed: runs with equal seeds must agree on
/// their outputs, and the run medians average over several inputs.
pub const SEED_SLOTS: usize = 4;

/// The input seed of the `index`-th child of a set seeded `seed`.
pub fn child_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index % SEED_SLOTS) as u64)
}

/// Projection FNV-1a values pinned at [`Scale::Bench`] for the child
/// seeds [`DEFAULT_SEED`] to `DEFAULT_SEED + 3`: the verdicts the
/// current harness produces. A run on one of these seeds whose
/// projection differs has changed what the evaluation computes.
pub const PINS: [(Workload, [u64; SEED_SLOTS]); 4] = [
    (
        Workload::Quick,
        [
            0xf85dd7cff484b0eb,
            0x3e5353db1cb152bc,
            0x572366b3274eafc6,
            0x014dcb4cd93b3a4c,
        ],
    ),
    (
        Workload::Threaded,
        [
            0xf48ecada686dde45,
            0x2b37ba40af0db9b9,
            0xd5539c47eca62aa1,
            0x9a1682238bc69fdb,
        ],
    ),
    (
        Workload::Variants,
        [
            0x736daf406c83ae1a,
            0xe9af8776b916afe8,
            0x513c039a1885334c,
            0xadf91dc17247d1f3,
        ],
    ),
    (
        Workload::Replay,
        [
            0xc31cf5f30f841e09,
            0x625b4dcd22b025d9,
            0x1516757c553a0ab3,
            0x0150ef94a3472ae0,
        ],
    ),
];

/// The pinned projection FNV of a child of `workload` run on `seed` at
/// `scale`, if that seed is pinned.
pub fn pinned_fnv(workload: Workload, seed: u64, scale: Scale) -> Option<u64> {
    let slot = usize::try_from(seed.checked_sub(DEFAULT_SEED)?)
        .ok()
        .filter(|&k| k < SEED_SLOTS)?;
    if scale != Scale::Bench {
        return None;
    }
    PINS.iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, fnvs)| fnvs[slot])
}

/// What a child is asked to run.
#[derive(Debug, Clone)]
pub struct ChildSpec {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Evaluation worker count.
    pub jobs: usize,
    /// Work per child.
    pub scale: Scale,
    /// Where a traced child writes its Chrome trace; `None` runs
    /// untraced.
    pub trace_out: Option<PathBuf>,
}

/// What a child reports on its last stdout line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildReport {
    /// Set-up seconds spent between timed iterations (the parent adds
    /// the time from process start to the first one).
    pub setup_extra_s: f64,
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// CPU accrued over the timed region.
    pub usage: Usage,
    /// Peak resident set after the timed region, KiB.
    pub peak_rss_kib: u64,
    /// Cells attempted.
    pub cells: u64,
    /// Cells whose outputs failed a check.
    pub failed_cells: u64,
    /// FNV-1a of the record projection (for `replay`, of the
    /// synthesised records every read path had to reproduce).
    pub fnv: u64,
    /// Config hash (salted by the candidate source) of the run.
    pub config_hash: u64,
    /// Per-layer metrics (traced children only).
    pub layers: BTreeMap<String, f64>,
}

impl ChildReport {
    /// The one-line JSON form a child prints.
    pub fn to_json(&self) -> String {
        let layers = obj(self.layers.iter().map(|(k, v)| (k.clone(), num(*v))));
        json::render(obj([
            ("setup_extra_s", num(self.setup_extra_s)),
            ("wall_s", num(self.wall_s)),
            ("user_s", num(self.usage.user_s)),
            ("sys_s", num(self.usage.sys_s)),
            ("minflt", Value::U64(self.usage.minflt)),
            ("peak_rss_kib", Value::U64(self.peak_rss_kib)),
            ("cells", Value::U64(self.cells)),
            ("failed_cells", Value::U64(self.failed_cells)),
            ("fnv", string(format!("{:016x}", self.fnv))),
            ("config_hash", string(format!("{:016x}", self.config_hash))),
            ("layers", layers),
        ]))
    }

    /// Parse a child's result line.
    pub fn from_json(line: &str) -> Result<ChildReport, String> {
        let v = json::parse(line)?;
        let f = |k: &str| json::get_f64(&v, k).ok_or_else(|| format!("missing `{k}`"));
        let u = |k: &str| json::get_u64(&v, k).ok_or_else(|| format!("missing `{k}`"));
        let hex = |k: &str| {
            json::get_str(&v, k)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("missing `{k}`"))
        };
        let layers = match v.field("layers") {
            Ok(Value::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, x)| Some((k.clone(), json::as_f64(x)?)))
                .collect(),
            _ => BTreeMap::new(),
        };
        Ok(ChildReport {
            setup_extra_s: f("setup_extra_s")?,
            wall_s: f("wall_s")?,
            usage: Usage {
                user_s: f("user_s")?,
                sys_s: f("sys_s")?,
                minflt: u("minflt")?,
            },
            peak_rss_kib: u("peak_rss_kib")?,
            cells: u("cells")?,
            failed_cells: u("failed_cells")?,
            fnv: hex("fnv")?,
            config_hash: hex("config_hash")?,
            layers,
        })
    }
}

/// Splits a child's time into set-up and the timed region, and signals
/// the parent when the timed region first starts.
struct Meter {
    started: bool,
    wall_s: f64,
    usage: Usage,
    setup_extra_s: f64,
}

impl Meter {
    fn new() -> Meter {
        Meter {
            started: false,
            wall_s: 0.0,
            usage: Usage::default(),
            setup_extra_s: 0.0,
        }
    }

    /// Run set-up work. Before the first timed iteration the parent
    /// measures it (from process start); after, it is summed here.
    fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        if self.started {
            self.setup_extra_s += t0.elapsed().as_secs_f64();
        }
        r
    }

    /// Run timed work, accruing its wall clock and CPU.
    fn timed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.started {
            self.started = true;
            let mut out = std::io::stdout().lock();
            writeln!(out, "ready")
                .and_then(|()| out.flush())
                .expect("stdout to the parent");
        }
        let u0 = Usage::now();
        let t0 = Instant::now();
        let r = f();
        self.wall_s += t0.elapsed().as_secs_f64();
        self.usage.add(Usage::now().since(u0));
        r
    }
}

/// Per-layer metric accumulator of a traced child.
#[derive(Default)]
struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }
}

/// Times every `sample` call of the wrapped source: the `pcg-models`
/// layer as the evaluation coordinator sees it.
struct TimedSource<'a, S: ?Sized> {
    inner: &'a S,
    tracer: &'a Tracer,
    parent: SpanId,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl<S: CandidateSource + ?Sized> CandidateSource for TimedSource<'_, S> {
    fn model_names(&self) -> Vec<String> {
        self.inner.model_names()
    }

    fn weights_available(&self, model: usize) -> bool {
        self.inner.weights_available(model)
    }

    fn sample(&self, model: usize, task: TaskId, spec: &SampleSpec) -> Vec<CandidateKind> {
        let t0 = Instant::now();
        let kinds = self.inner.sample(model, task, spec);
        let t1 = Instant::now();
        self.tracer.record("models.sample", self.parent, t0, t1);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        kinds
    }

    fn config_salt(&self) -> Vec<u8> {
        self.inner.config_salt()
    }
}

/// Run the child described by `spec` in the current directory, print
/// its [`ChildReport`] as the last stdout line, and return it.
pub fn run_child(spec: &ChildSpec) -> ChildReport {
    let tracer = spec.trace_out.as_ref().map(|_| Tracer::new());
    let mut meter = Meter::new();
    let mut layers = Layers::default();
    let shape = Shape::of(spec.workload, spec.scale);
    let mut report = match spec.workload {
        Workload::Replay => run_replay(spec, &shape, &mut meter, tracer.as_ref(), &mut layers),
        _ => run_evaluation(spec, &shape, &mut meter, tracer.as_ref(), &mut layers),
    };
    report.setup_extra_s = meter.setup_extra_s;
    report.wall_s = meter.wall_s;
    report.usage = meter.usage;
    if let (Some(t), Some(path)) = (&tracer, &spec.trace_out) {
        let nproc = procfs::nproc() as f64;
        layers.add("process.user_s", meter.usage.user_s);
        layers.add("process.sys_s", meter.usage.sys_s);
        layers.add(
            "process.cpu_util",
            meter.usage.cpu_s() / (meter.wall_s * nproc),
        );
        layers.add("process.minflt", meter.usage.minflt as f64);
        // Every catalogued layer is reported; one this workload does
        // not exercise reads 0.
        for def in crate::metrics::PER_LAYER {
            layers.0.entry(def.name.to_string()).or_insert(0.0);
        }
        if let Err(e) = t.write_chrome(path) {
            eprintln!("pcg-e2e: could not write trace {}: {e}", path.display());
        }
        report.layers = std::mem::take(&mut layers.0);
    }
    println!("{}", report.to_json());
    report
}

/// The records cache of an evaluation pass (its journal sits next to
/// it), relative to the child's own working directory.
fn cache_path() -> PathBuf {
    PathBuf::from("target")
        .join("pcgbench")
        .join("records-e2e.json")
}

/// `quick`, `threaded` and `variants`: one cold evaluation pass.
fn run_evaluation(
    spec: &ChildSpec,
    shape: &Shape,
    meter: &mut Meter,
    tracer: Option<&Tracer>,
    layers: &mut Layers,
) -> ChildReport {
    let quick = spec.workload == Workload::Quick;
    let cfg = config(spec.workload, spec.seed);
    let source = SyntheticSource::zoo(&cfg.prompt_variants);
    let salt = source.config_salt();
    let cache = cache_path();
    let jpath = journal::journal_path(&cache);
    let (record, stats) = meter.timed(|| {
        let pass_span = tracer.map(Tracer::open);
        let parent = pass_span.map_or(0, |s| s.0);
        let journal = Journal::create_sourced(
            &jpath,
            &cfg,
            &salt,
            ShardSpec::WHOLE,
            dispatch_priors().hash(),
        )
        .expect("create the pass journal in the child's directory");
        let traced = tracer.map(|t| (t, parent));
        let (record, stats) = match tracer {
            None => evaluate(
                &cfg,
                &source,
                &shape.tasks,
                spec.jobs,
                &journal,
                None,
                layers,
            ),
            Some(t) => {
                let timed = TimedSource {
                    inner: &source,
                    tracer: t,
                    parent,
                    calls: AtomicU64::new(0),
                    ns: AtomicU64::new(0),
                };
                let out = evaluate(
                    &cfg,
                    &timed,
                    &shape.tasks,
                    spec.jobs,
                    &journal,
                    traced,
                    layers,
                );
                layers.add(
                    "models.sample.calls",
                    timed.calls.load(Ordering::Relaxed) as f64,
                );
                layers.add(
                    "models.sample.s",
                    timed.ns.load(Ordering::Relaxed) as f64 / 1e9,
                );
                out
            }
        };
        if quick {
            commit(&cache, &record, &stats, &salt, traced, layers);
        }
        if let (Some(t), Some(s)) = (tracer, pass_span) {
            t.close("eval.pass", 0, s);
        }
        (record, stats)
    });
    let peak_rss_kib = procfs::peak_rss_kib().unwrap_or(0);

    // Checks, outside the timed region: the journal and (for `quick`)
    // the committed cache and columnar sidecar read back to the same
    // verdicts, and every cell is well formed and ran to completion.
    let projection = record::projection(&record);
    let plan = eval::plan_for(&cfg, &source, Some(&shape.tasks));
    let t_load = Instant::now();
    let loaded = journal::load_counting_sourced(
        &jpath,
        &cfg,
        &salt,
        ShardSpec::WHOLE,
        dispatch_priors().hash(),
    );
    let load_s = t_load.elapsed().as_secs_f64();
    if !loaded.rejects.is_empty() || loaded.replay.len() != plan.len() {
        eprintln!(
            "pcg-e2e: journal holds {} of {} cells ({} rejected frames)",
            loaded.replay.len(),
            plan.len(),
            loaded.rejects.len()
        );
    }
    let mut failed = failed_cells(&cfg, &record, &stats);
    failed += diff_cells(&projection, &replay_projection(&cfg, &plan, &loaded.replay));
    if quick {
        failed += committed_mismatches(&cache, &projection);
    }

    if let Some(t) = tracer {
        layers.add("journal.load_s", load_s);
        layers.add("journal.frames_loaded", loaded.replay.len() as f64);
        layers.add(
            "journal.bytes",
            std::fs::metadata(&jpath).map_or(0, |m| m.len()) as f64,
        );
        add_stats(layers, &stats);
        let mut walls: Vec<f64> = stats.cell_walls.iter().map(|w| w.secs).collect();
        layers.add(
            "scheduler.busy_frac",
            walls.iter().sum::<f64>() / (stats.wall_s * stats.jobs as f64),
        );
        walls.sort_by(f64::total_cmp);
        if let Some(&max) = walls.last() {
            let p99 = walls[(walls.len() * 99).div_ceil(100) - 1];
            layers.add("scheduler.cell_p99_ms", p99 * 1e3);
            layers.add("scheduler.cell_max_s", max);
        }
        if spec.workload != Workload::Variants {
            probe_substrates(&cfg, &shape.tasks, spec.jobs, t, layers);
        }
        if quick {
            probe_mpisim(&cfg, &shape.tasks, t, layers);
        }
    }
    journal::remove(&jpath);
    ChildReport {
        peak_rss_kib,
        cells: plan.len() as u64,
        failed_cells: failed.min(plan.len() as u64),
        fnv: fnv1a(projection.as_bytes()),
        config_hash: journal::config_hash_with(&cfg, &salt),
        ..ChildReport::default()
    }
}

/// The cost table every evaluation here dispatches by: the committed
/// analytic profile, as `reproduce --priors default` uses. With priors
/// the scheduler hands cells out from one shared longest-first queue.
/// Without them it deals per-worker deques whose steal path can
/// deadlock two workers (about one grid in a thousand at two jobs),
/// which would hang a run. Records are identical either way.
fn dispatch_priors() -> CostPriors {
    CostPriors::default_profile()
}

/// One cold evaluation of `tasks` against a fresh runner, journaling
/// every cell through `journal` as the pipeline does. A traced call
/// also times each append.
fn evaluate<S: CandidateSource + Sync + ?Sized>(
    cfg: &EvalConfig,
    source: &S,
    tasks: &[TaskId],
    jobs: usize,
    journal: &Journal,
    traced: Option<(&Tracer, SpanId)>,
    layers: &mut Layers,
) -> (EvalRecord, EvalStats) {
    let runner = SharedRunner::new(cfg.clone());
    let (mut appends, mut append_s) = (0u64, 0.0);
    let out = eval::evaluate_resumable_priors(
        cfg,
        source,
        Some(tasks),
        jobs,
        Some(&dispatch_priors()),
        &runner,
        &Replay::new(),
        |cell, model, rec| {
            let t0 = traced.map(|_| Instant::now());
            // A failed append leaves the cell out of the journal, which
            // the journal check after the pass counts as a failed cell.
            let _ = journal.append(cell, model, rec);
            if let (Some((t, parent)), Some(t0)) = (traced, t0) {
                let t1 = Instant::now();
                t.record("journal.append", parent, t0, t1);
                appends += 1;
                append_s += (t1 - t0).as_secs_f64();
            }
        },
    );
    if traced.is_some() {
        layers.add("journal.appends", appends as f64);
        layers.add("journal.append_s", append_s);
    }
    out
}

/// Commit a quick pass the way the pipeline does: records cache, stats
/// sidecar and columnar sidecar, each written durably; then render
/// every table and figure `reproduce` prints.
fn commit(
    cache: &Path,
    record: &EvalRecord,
    stats: &EvalStats,
    salt: &[u8],
    traced: Option<(&Tracer, SpanId)>,
    layers: &mut Layers,
) {
    let bytes = timed_call(
        traced,
        layers,
        "pipeline.record_encode",
        "pipeline.record_encode_s",
        || serde_json::to_vec(record).expect("records serialize"),
    );
    if traced.is_some() {
        layers.add("pipeline.record_bytes", bytes.len() as f64);
    }
    write_durably(cache, &bytes);
    let stats_bytes = serde_json::to_vec(stats).expect("stats serialize");
    write_durably(&pipeline::stats_path(&record.config), &stats_bytes);
    let cols_bytes = timed_call(
        traced,
        layers,
        "colstats.encode",
        "colstats.encode_s",
        || {
            let mut cols = ColumnarStats::from_record(record);
            let walls: HashMap<CellId, f64> = stats
                .cell_walls
                .iter()
                .map(|w| (CellId(w.cell), w.secs))
                .collect();
            cols.set_walls(journal::config_hash_with(&record.config, salt), &walls);
            cols.to_bytes()
        },
    );
    write_durably(&colstats::cols_path(cache), &cols_bytes);
    timed_call(traced, layers, "report.render", "report.render_s", || {
        black_box(render_all(record))
    });
}

/// Run `f`; when traced, record it as span `name` under the given
/// parent and add its seconds to the layer metric `metric`.
fn timed_call<R>(
    traced: Option<(&Tracer, SpanId)>,
    layers: &mut Layers,
    name: &'static str,
    metric: &str,
    f: impl FnOnce() -> R,
) -> R {
    let t0 = Instant::now();
    let r = f();
    if let Some((t, parent)) = traced {
        let t1 = Instant::now();
        t.record(name, parent, t0, t1);
        layers.add(metric, (t1 - t0).as_secs_f64());
    }
    r
}

/// Every table and figure `reproduce` prints, concatenated.
fn render_all(rec: &EvalRecord) -> String {
    [
        report::table1(),
        report::table2(),
        report::figure1(rec),
        report::figure2(rec),
        report::figure3(rec),
        report::figure4(rec),
        report::figure5(rec),
        report::figure6(rec),
        report::figure7(rec),
        report::experiments_summary(rec),
    ]
    .concat()
}

/// Write `bytes` through a synced temp file and a rename, as the
/// pipeline commits its cache.
fn write_durably(path: &Path, bytes: &[u8]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the commit directory");
    }
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp).expect("create the commit temp file");
    f.write_all(bytes)
        .and_then(|()| f.sync_data())
        .expect("write the commit temp file");
    std::fs::rename(&tmp, path).expect("rename the commit into place");
}

/// Runner, lease and transport counters of one pass.
fn add_stats(layers: &mut Layers, s: &EvalStats) {
    layers.add("scheduler.cells", s.cells as f64);
    layers.add("runner.executions", s.executions as f64);
    layers.add("runner.cache_hits", s.cache_hits as f64);
    layers.add(
        "runner.dedup_ratio",
        s.cache_hits as f64 / (s.cache_hits + s.executions) as f64,
    );
    layers.add("runner.run_s", s.run_s);
    layers.add("runner.validate_s", s.validate_s);
    layers.add("runner.baseline_s", s.baseline_s);
    layers.add("runner.timeouts", s.timeouts as f64);
    layers.add("runner.panics", s.panics as f64);
    layers.add("lease.hits", s.lease_hits as f64);
    layers.add("lease.misses", s.lease_misses as f64);
    layers.add("lease.setup_s", s.pool_setup_s);
    layers.add("input_cache.hits", s.input_cache_hits as f64);
    layers.add("mpisim.ranks_multiplexed", s.ranks_multiplexed as f64);
    layers.add(
        "mpisim.zero_copy_mib",
        s.bytes_zero_copied as f64 / (1024.0 * 1024.0),
    );
}

/// Cells that hit a harness-level failure: their candidate panicked
/// the harness or ran past its deadline (quarantined), or their record
/// is malformed for `cfg`.
fn failed_cells(cfg: &EvalConfig, record: &EvalRecord, stats: &EvalStats) -> u64 {
    let source = SyntheticSource::zoo(&cfg.prompt_variants);
    let mut failed = 0;
    for (row, m) in record.models.iter().enumerate() {
        for t in &m.tasks {
            let quarantined = stats.quarantined.iter().any(|q| q.task == t.task);
            if quarantined || !well_formed(cfg, t, source.weights_available(row)) {
                failed += 1;
            }
        }
    }
    failed
}

/// Whether a cell's record has the shape `cfg` prescribes.
fn well_formed(cfg: &EvalConfig, t: &TaskRecord, high_set: bool) -> bool {
    let samples_ok = |s: &TaskSamples, n: usize| {
        s.built.len() == n
            && s.correct.len() == n
            && s.ratio.len() == n
            && s.correct.iter().zip(&s.built).all(|(&c, &b)| b || !c)
    };
    let keys: Vec<u32> = t.sweep.keys().copied().collect();
    samples_ok(&t.low, cfg.samples_low)
        && match &t.high {
            Some(h) => high_set && samples_ok(h, cfg.samples_high),
            None => !high_set,
        }
        && keys == sweep_keys(cfg, t.task.model)
        && t.sweep.values().all(|v| v.len() == cfg.samples_low)
}

/// The resource counts a cell of `model` sweeps under `cfg`: Figure 5
/// sweeps OpenMP, Kokkos and MPI only.
fn sweep_keys(cfg: &EvalConfig, model: ExecutionModel) -> Vec<u32> {
    let swept = [
        ExecutionModel::OpenMp,
        ExecutionModel::Kokkos,
        ExecutionModel::Mpi,
    ];
    if swept.contains(&model) && !cfg.skip_sweeps {
        model.resource_sweep()
    } else {
        Vec::new()
    }
}

/// The projection of the record a journal replays into.
fn replay_projection(cfg: &EvalConfig, plan: &WorkPlan, replay: &Replay) -> String {
    if plan.cells().any(|c| !replay.contains_key(&c.id)) {
        return String::new();
    }
    record::projection(&eval::assemble(cfg, plan, |c| replay[&c.id].record.clone()))
}

/// Cells of a committed quick pass whose cache or columnar sidecar
/// does not read back to `projection`.
fn committed_mismatches(cache: &Path, projection: &str) -> u64 {
    let cached = std::fs::read(cache)
        .ok()
        .and_then(|b| serde_json::from_slice::<EvalRecord>(&b).ok())
        .map(|r| record::projection(&r))
        .unwrap_or_default();
    let cols = ColumnarStats::read(&colstats::cols_path(cache))
        .map(|c| c.projection())
        .unwrap_or_default();
    diff_cells(projection, &cached).max(diff_cells(projection, &cols))
}

/// The number of cells on which two record projections disagree: one
/// per differing `task=` line, plus one per line present in only one
/// of them. Equal projections give 0.
pub fn diff_cells(expected: &str, actual: &str) -> u64 {
    let (a, b): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let differing = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| x != y && (x.starts_with("task=") || y.starts_with("task=")))
        .count();
    let task_lines = |v: &[&str]| v.iter().filter(|l| l.starts_with("task=")).count();
    let unmatched = task_lines(&a[b.len().min(a.len())..]) + task_lines(&b[a.len().min(b.len())..]);
    (differing + unmatched) as u64
}

/// Execution-model columns, their metric-name stems and span names.
const COLUMNS: [(ExecutionModel, &str, &str); 7] = [
    (ExecutionModel::Serial, "serial", "substrate.serial"),
    (ExecutionModel::OpenMp, "openmp", "substrate.openmp"),
    (ExecutionModel::Kokkos, "kokkos", "substrate.kokkos"),
    (ExecutionModel::Mpi, "mpi", "substrate.mpi"),
    (ExecutionModel::MpiOpenMp, "hybrid", "substrate.hybrid"),
    (ExecutionModel::Cuda, "cuda", "substrate.cuda"),
    (ExecutionModel::Hip, "hip", "substrate.hip"),
];

/// One cold evaluation pass per execution-model column over
/// that column's share of `tasks`, each from flushed caches and a fresh
/// runner. Columns absent from `tasks` read 0.
fn probe_substrates(
    cfg: &EvalConfig,
    tasks: &[TaskId],
    jobs: usize,
    t: &Tracer,
    layers: &mut Layers,
) {
    let source = SyntheticSource::zoo(&cfg.prompt_variants);
    let root = t.open();
    for (model, col, span) in COLUMNS {
        let col_tasks: Vec<TaskId> = tasks.iter().copied().filter(|t| t.model == model).collect();
        if col_tasks.is_empty() {
            continue;
        }
        lease::flush();
        input_cache::flush();
        let runner = SharedRunner::new(cfg.clone());
        let u0 = Usage::now();
        let t0 = Instant::now();
        let (_, stats) = eval::evaluate_resumable_priors(
            cfg,
            &source,
            Some(&col_tasks),
            jobs,
            Some(&dispatch_priors()),
            &runner,
            &Replay::new(),
            |_, _, _| {},
        );
        let t1 = Instant::now();
        let u = Usage::now().since(u0);
        t.record(span, root.0, t0, t1);
        layers.add(&format!("substrate.{col}.wall_s"), (t1 - t0).as_secs_f64());
        layers.add(
            &format!("substrate.{col}.executions"),
            stats.executions as f64,
        );
        layers.add(&format!("substrate.{col}.user_s"), u.user_s);
        layers.add(&format!("substrate.{col}.sys_s"), u.sys_s);
    }
    t.close("probe.substrates", 0, root);
}

/// `Problem::run_candidate(Mpi, Correct(Efficient), n, ..)` for every
/// MPI problem of `tasks`, at 64 to 512 ranks: mean world time per rank
/// count, and the kernel time and page faults of the 512-rank worlds.
fn probe_mpisim(cfg: &EvalConfig, tasks: &[TaskId], t: &Tracer, layers: &mut Layers) {
    let problems: Vec<_> = tasks
        .iter()
        .filter(|t| t.model == ExecutionModel::Mpi)
        .map(|t| t.problem)
        .collect();
    if problems.is_empty() {
        return;
    }
    let root = t.open();
    for (n, name) in [(64, "n64"), (128, "n128"), (256, "n256"), (512, "n512")] {
        let u0 = Usage::now();
        let t0 = Instant::now();
        for &p in &problems {
            let problem = registry::problem(p);
            let size = cfg.size_for(problem.default_size());
            let kind = CandidateKind::Correct(Quality::Efficient);
            let run = problem.run_candidate(ExecutionModel::Mpi, kind, n, cfg.seed, size);
            black_box(run.map(|r| r.seconds).unwrap_or(f64::NAN));
        }
        let t1 = Instant::now();
        let u = Usage::now().since(u0);
        t.record("mpisim.worlds", root.0, t0, t1);
        layers.add(
            &format!("mpisim.world_ms.{name}"),
            (t1 - t0).as_secs_f64() * 1e3 / problems.len() as f64,
        );
        if n == 512 {
            layers.add("mpisim.sys_s.n512", u.sys_s);
            layers.add("mpisim.minflt.n512", u.minflt as f64);
        }
    }
    t.close("probe.mpisim", 0, root);
}

/// `replay`: per iteration, rewrite a complete whole-grid journal and
/// two shard journals (set-up), then time a `--resume` through
/// `load_or_run_opts`, a 2-shard merge, a warm cache load and a render
/// of every figure.
fn run_replay(
    spec: &ChildSpec,
    shape: &Shape,
    meter: &mut Meter,
    tracer: Option<&Tracer>,
    layers: &mut Layers,
) -> ChildReport {
    let cfg = config(Workload::Replay, spec.seed);
    let source = SyntheticSource::zoo(&cfg.prompt_variants);
    let plan = eval::plan_for(&cfg, &source, Some(&shape.tasks));
    let synth: Replay = plan
        .cells()
        .map(|c| {
            let model = plan.models()[c.model].clone();
            let record = synth_record(&cfg, c.id, c.task, source.weights_available(c.model));
            (c.id, ReplayCell { model, record })
        })
        .collect();
    let expected = record::projection(&eval::assemble(&cfg, &plan, |c| {
        synth[&c.id].record.clone()
    }));
    let shards: Vec<(ShardSpec, Replay)> = (0..2)
        .map(|k| {
            let spec = ShardSpec::new(k, 2);
            let owned: Replay = plan
                .shard(spec)
                .iter()
                .map(|c| (c.id, synth[&c.id].clone()))
                .collect();
            (spec, owned)
        })
        .collect();
    let resumed = PathBuf::from("target")
        .join("pcgbench")
        .join("records-resumed.json");
    let merged = PathBuf::from("target")
        .join("pcgbench")
        .join("records-merged.json");
    let mut report = ChildReport {
        config_hash: journal::config_hash(&cfg),
        fnv: fnv1a(expected.as_bytes()),
        ..ChildReport::default()
    };

    for _ in 0..shape.iterations {
        meter.setup(|| {
            for p in [&resumed, &merged] {
                let _ = std::fs::remove_file(p);
                let _ = std::fs::remove_file(colstats::cols_path(p));
            }
            let _ = std::fs::remove_file(pipeline::stats_path(&cfg));
            std::fs::create_dir_all(resumed.parent().expect("cache paths have a directory"))
                .expect("create the cache directory");
            journal::compact(
                &journal::journal_path(&resumed),
                &cfg,
                ShardSpec::WHOLE,
                &synth,
            )
            .expect("write the whole-grid journal");
            for (spec, owned) in &shards {
                journal::compact(
                    &journal::shard_journal_path(&merged, *spec),
                    &cfg,
                    *spec,
                    owned,
                )
                .expect("write a shard journal");
            }
            if tracer.is_some() {
                let t0 = Instant::now();
                let loaded = journal::load_counting_sourced(
                    &journal::journal_path(&resumed),
                    &cfg,
                    &[],
                    ShardSpec::WHOLE,
                    0,
                );
                layers.add("journal.load_s", t0.elapsed().as_secs_f64());
                layers.add("journal.frames_loaded", loaded.replay.len() as f64);
            }
        });
        let records = meter.timed(|| {
            let opened = tracer.map(Tracer::open);
            let traced = tracer.zip(opened.map(|o| o.0));
            let resume = RunOptions {
                resume: true,
                ..RunOptions::new(spec.jobs)
            };
            let a = timed_call(
                traced,
                layers,
                "pipeline.resume",
                "pipeline.resume_s",
                || pipeline::load_or_run_opts(Some(&resumed), &cfg, &resume),
            );
            let b = timed_call(traced, layers, "shard.merge", "shard.merge_s", || {
                shard::merge_shards(Some(&merged), &cfg, &RunOptions::new(spec.jobs), 2, None)
            });
            let c = timed_call(
                traced,
                layers,
                "pipeline.cache_load",
                "pipeline.cache_load_s",
                || pipeline::load_or_run_opts(Some(&resumed), &cfg, &RunOptions::new(spec.jobs)),
            );
            timed_call(traced, layers, "report.render", "report.render_s", || {
                black_box(render_all(&c))
            });
            if let (Some(t), Some(o)) = (tracer, opened) {
                t.close("replay.iteration", 0, o);
            }
            [a, b, c]
        });
        if report.peak_rss_kib == 0 {
            report.peak_rss_kib = procfs::peak_rss_kib().unwrap_or(0);
        }
        report.cells += plan.len() as u64;
        let failed = records
            .iter()
            .map(|r| diff_cells(&expected, &record::projection(r)))
            .max()
            .unwrap_or(0);
        report.failed_cells += failed.min(plan.len() as u64);
        if tracer.is_some() {
            // The commit encoders the resume ran, timed on its record.
            let traced = tracer.map(|t| (t, 0));
            let bytes = timed_call(
                traced,
                layers,
                "pipeline.record_encode",
                "pipeline.record_encode_s",
                || serde_json::to_vec(&records[0]).expect("records serialize"),
            );
            layers.add("pipeline.record_bytes", bytes.len() as f64);
            timed_call(
                traced,
                layers,
                "colstats.encode",
                "colstats.encode_s",
                || black_box(ColumnarStats::from_record(&records[0]).to_bytes()),
            );
        }
    }
    report
}

/// A quick-shaped record for one cell, drawn from the seed and the
/// cell id: 20 low samples, 60 high samples on open-weight rows, and
/// the real sweep keys with 20 ratios each on swept columns.
pub fn synth_record(cfg: &EvalConfig, cell: CellId, task: TaskId, high_set: bool) -> TaskRecord {
    let mut state = splitmix64(cfg.seed ^ cell.0);
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    let mut samples = |n: usize, timed: bool| {
        let mut s = TaskSamples::default();
        for _ in 0..n {
            let r = next();
            let built = r % 8 != 0;
            let correct = built && r % 3 == 0;
            s.built.push(built);
            s.correct.push(correct);
            let ratio = if correct && timed {
                (r >> 11) as f64 / (1u64 << 53) as f64 * 40.0
            } else {
                0.0
            };
            s.ratio.push(ratio);
        }
        s
    };
    let low = samples(cfg.samples_low, true);
    let high = high_set.then(|| samples(cfg.samples_high, false));
    let sweep = sweep_keys(cfg, task.model)
        .into_iter()
        .map(|n| (n, samples(cfg.samples_low, true).ratio))
        .collect();
    TaskRecord {
        task,
        low,
        high,
        sweep,
    }
}
