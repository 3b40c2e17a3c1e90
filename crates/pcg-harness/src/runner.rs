//! Candidate execution: build, run (with a time limit), validate
//! against the baseline, check parallel-API usage, and time.
//!
//! Executions are cached by the computation a kind performs. A
//! synthetic model's candidate artifact is fully determined by its
//! kind, so distinct samples (and distinct models) sharing a kind share
//! one execution — the analog of the paper's per-sample compile-and-run,
//! minus redundant recompilation of byte-identical generations. Beyond
//! that, kinds that compute the same thing share one run:
//! `Correct(Efficient)` and the four `WrongOutput(mode)` kinds run the
//! efficient path once per resource shape (a wrong sample is that
//! output corrupted), GPU tasks run once whatever `n` they are asked at
//! (they ignore it), and `SequentialFallback` runs once per task (its
//! serial path never reads `n`). `BuildFailure`, `RuntimeCrash` and
//! `Timeout` run nothing: their verdicts are fixed
//! ([`pcg_problems::framework::fixed_verdict`]).
//!
//! [`SharedRunner`] is safe to share across the parallel scheduler's
//! workers: many evaluation cells call into one runner at once, and
//! each distinct computation runs exactly once (`OnceLock` per cache
//! key — concurrent requesters for the same key block on the first
//! initializer instead of duplicating work). All caching is keyed by
//! task coordinates, never by worker identity, so results are
//! byte-identical whatever the worker count. Serial callers use the
//! same runner from one thread.

use crate::config::EvalConfig;
use crate::record::EvalStats;
use crate::scheduler::panic_message;
use pcg_core::cancel::{self, CancelToken};
use pcg_core::usage::UsageScope;
use pcg_core::{warm, CandidateKind, Corruption, Output, PcgError, ProblemId, Quality, TaskId};
use pcg_problems::framework::fixed_verdict;
use pcg_problems::input_cache::{self, InputCacheStats};
use pcg_problems::{corrupt, registry, Resources};
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Instant;

/// A measured, validated candidate execution.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Whether the candidate built.
    pub built: bool,
    /// Fully correct: built, ran in time, validated, used its API.
    pub correct: bool,
    /// Candidate runtime in seconds (virtual or measured; meaningful
    /// only when correct).
    pub seconds: f64,
    /// Failure code (`PcgError::code`-style) when not correct.
    pub error: Option<&'static str>,
}

impl Outcome {
    /// The candidate reported `e` instead of an output.
    fn failed(e: &PcgError) -> Outcome {
        Outcome {
            built: !matches!(e, PcgError::BuildFailure(_)),
            correct: false,
            seconds: f64::INFINITY,
            error: Some(e.code()),
        }
    }

    /// The `T*/T` ratio against a `base`-second baseline (0 when incorrect).
    pub(crate) fn ratio(self, base: f64) -> f64 {
        if self.correct && self.seconds > 0.0 {
            base / self.seconds
        } else {
            0.0
        }
    }

    /// The harness killed the candidate: its worker panicked (`"panic"`)
    /// or blew the wall-clock limit (`"timeout"`).
    fn hard(code: &'static str) -> Outcome {
        Outcome { built: true, correct: false, seconds: f64::INFINITY, error: Some(code) }
    }
}

/// The computation a candidate kind performs at a task: the key its
/// execution is shared under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Computation {
    /// The efficient parallel path at one resource shape.
    /// `Correct(Efficient)` validates its output as-is and each
    /// `WrongOutput(mode)` a corrupted copy. `n` is normalized through
    /// [`Resources::for_model`], and GPU tasks, whose fixed-block
    /// launches ignore it, all map to `n = 1`, so they share one run
    /// across every `n`.
    Efficient(Resources),
    /// The serial path of `SequentialFallback`, which never reads `n`.
    Fallback,
    /// A kind no other kind shares a run with (`Correct(Inefficient)`,
    /// `Flaky`, `Deadlock`, `StackHog`), at its own `n`.
    Own(CandidateKind, u32),
}

impl Computation {
    /// What `kind` computes at `task` and `n`. Fixed-verdict kinds never
    /// get here.
    fn of(task: TaskId, kind: CandidateKind, n: u32) -> Computation {
        match kind {
            CandidateKind::Correct(Quality::Efficient) | CandidateKind::WrongOutput(_) => {
                let n = if task.model.is_gpu() { 1 } else { n };
                Computation::Efficient(Resources::for_model(task.model, n))
            }
            CandidateKind::SequentialFallback => Computation::Fallback,
            _ => Computation::Own(kind, n),
        }
    }

    /// The kind whose artifact the computation runs.
    fn run_kind(self) -> CandidateKind {
        match self {
            Computation::Efficient(_) => CandidateKind::Correct(Quality::Efficient),
            Computation::Fallback => CandidateKind::SequentialFallback,
            Computation::Own(kind, _) => kind,
        }
    }
}

/// Every verdict one run yields. The run's output is dropped once they
/// are taken, so a finished run keeps a few small outcomes, never an
/// output.
#[derive(Debug)]
struct Verdicts {
    /// The output validated as-is, or the failure every member shares.
    as_is: Outcome,
    /// One verdict per [`Corruption::ALL`] mode, of the output corrupted
    /// that way; empty unless an efficient-path run produced an output.
    corrupted: Vec<Outcome>,
    /// The final attempt hard-failed (worker panic or wall-clock
    /// timeout).
    hard: bool,
}

impl Verdicts {
    /// A run that yields `outcome` for every member.
    fn all(outcome: Outcome, hard: bool) -> Verdicts {
        Verdicts { as_is: outcome, corrupted: Vec::new(), hard }
    }

    /// The verdict of member `kind`.
    fn of(&self, kind: CandidateKind) -> &Outcome {
        let mode = match kind {
            CandidateKind::WrongOutput(mode) => Corruption::ALL.iter().position(|&m| m == mode),
            _ => None,
        };
        mode.and_then(|i| self.corrupted.get(i)).unwrap_or(&self.as_is)
    }
}

/// The sequential baseline for a problem at the configured size.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Oracle output, shared by every candidate validation of the
    /// problem (some oracle outputs are megabytes; cloning one per
    /// execution was measurable).
    pub output: Arc<Output>,
    /// Best-of-reps baseline runtime in seconds.
    pub seconds: f64,
}

/// Monotone execution counters kept by [`SharedRunner`]. Stage times are
/// summed across workers, so under `--jobs N` they can exceed wall
/// clock — they answer "where did the compute go", not "how long did I
/// wait".
#[derive(Debug, Default)]
struct Counters {
    executions: AtomicU64,
    cache_hits: AtomicU64,
    panics: AtomicU64,
    timeouts: AtomicU64,
    cancelled: AtomicU64,
    abandoned: AtomicU64,
    retries: AtomicU64,
    flaky: AtomicU64,
    baseline_ns: AtomicU64,
    run_ns: AtomicU64,
    validate_ns: AtomicU64,
}

/// One hostile candidate: it hard-failed (worker panic or wall-clock
/// timeout) on every attempt it was given. Recorded in the stats
/// sidecar so repeat offenders can be audited after a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// The task the candidate was generated for.
    pub task: TaskId,
    /// Lossless candidate-kind tag (`CandidateKind::tag`), so distinct
    /// corruption modes stay distinct entries.
    pub kind: String,
    /// The resource count of the execution.
    pub n: u32,
    /// The final failure code (`"panic"` or `"timeout"`).
    pub error: String,
}

/// Tracks worker threads that were abandoned (leaked) after ignoring
/// cooperative cancellation past the grace period. Spawning blocks
/// while the live-leak count is at the cap, so a flood of hostile
/// candidates cannot exhaust the process's thread budget.
#[derive(Default)]
struct LeakTracker {
    live: Mutex<usize>,
    cv: Condvar,
    /// Latched when the leak budget was ever exhausted (a spawner had
    /// to block). Surfaced as `leak_budget_exhausted` in the stats
    /// sidecar and loudly in report output — exhaustion silently
    /// degrading throughput is how leak storms used to go unnoticed.
    exhausted: AtomicBool,
}

impl LeakTracker {
    fn add(&self) {
        *self.live.lock() += 1;
    }

    /// An abandoned worker finally unwound; free its slot.
    fn remove(&self) {
        let mut n = self.live.lock();
        *n = n.saturating_sub(1);
        drop(n);
        self.cv.notify_all();
    }

    fn wait_below(&self, cap: usize) {
        let cap = cap.max(1);
        let mut n = self.live.lock();
        while *n >= cap {
            if !self.exhausted.swap(true, Ordering::AcqRel) {
                eprintln!(
                    "pcg-harness: abandoned-worker budget exhausted \
                     ({cap} leaked threads live); blocking new isolated \
                     workers until leaks unwind — raise max_abandoned or \
                     investigate hostile candidates"
                );
            }
            self.cv.wait(&mut n);
        }
    }

    /// Whether the budget was ever exhausted.
    fn was_exhausted(&self) -> bool {
        self.exhausted.load(Ordering::Acquire)
    }

    fn live(&self) -> usize {
        *self.live.lock()
    }
}

/// Supervisor/worker handshake for one isolated execution, deciding —
/// race-free — which side accounts for the worker thread's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handshake {
    /// The worker is still inside the candidate body.
    Running,
    /// The worker completed (normally or by unwinding) in time.
    Done,
    /// The supervisor gave up on the worker; the worker must release
    /// its leak slot itself if it ever unwinds.
    Abandoned,
}

/// What the supervisor observed about one isolated execution.
enum WorkerFate<M> {
    /// The worker reported back within the time limit.
    Finished(M),
    /// The worker blew the time limit. It was cancelled and either
    /// unwound within the grace period (counted `cancelled`) or was
    /// abandoned (counted `abandoned`); the caller need not care which
    /// — the outcome is `timeout` either way, so records stay
    /// byte-identical whatever the race resolution.
    TimedOut,
}

fn add_ns(counter: &AtomicU64, since: Instant) {
    let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

/// One supervised execution, run on a pooled worker thread. Returns
/// whether the worker may be reused: `false` retires the thread (it was
/// abandoned mid-candidate, or its job unwound unexpectedly).
type SupJob = Box<dyn FnOnce() -> bool + Send>;

/// Persistent pool of supervisor worker threads, replacing
/// thread-spawn-per-execution on the warm path. Workers park on a
/// condvar between candidates; a submission wakes an idle worker or
/// spawns one when none is parked. The pool never caps concurrency —
/// isolation semantics (timeout, cancel, grace, abandonment) are
/// unchanged, only the spawn is amortized. An abandoned worker retires
/// itself after its candidate finally unwinds (consuming a leak slot
/// exactly as before), so a poisoned thread never serves another
/// candidate.
#[derive(Default)]
struct SupervisorPool {
    state: Mutex<SupPoolState>,
    cv: Condvar,
}

#[derive(Default)]
struct SupPoolState {
    queue: VecDeque<SupJob>,
    idle: usize,
    shutdown: bool,
}

impl SupervisorPool {
    /// Hand `job` to an idle worker, or spawn a fresh one when none is
    /// parked. Executions are long-running, so waking an *about to be
    /// busy* worker is the failure mode to avoid: when the race is
    /// ambiguous we over-spawn (the extra worker parks afterwards)
    /// rather than queue behind a busy thread.
    fn submit(self: &Arc<Self>, job: SupJob) {
        let spawn_new = {
            let mut st = self.state.lock();
            st.queue.push_back(job);
            st.idle < st.queue.len()
        };
        if spawn_new {
            let pool = Arc::clone(self);
            std::thread::Builder::new()
                .name("pcg-supervised".into())
                .spawn(move || pool.worker_loop())
                .expect("spawn supervised worker");
        } else {
            self.cv.notify_one();
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let job = {
                let mut st = self.state.lock();
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if st.shutdown {
                        return;
                    }
                    st.idle += 1;
                    self.cv.wait(&mut st);
                    st.idle -= 1;
                }
            };
            // Jobs capture their own panics; treat an unwind here as a
            // poisoned worker and retire it.
            let reusable = catch_unwind(AssertUnwindSafe(job)).unwrap_or(false);
            if !reusable {
                return;
            }
        }
    }

    /// Ask parked workers to exit. In-flight jobs finish normally; their
    /// workers observe the flag when they next look for work.
    fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.cv.notify_all();
    }
}

/// Warm-path counter snapshot taken at runner construction, so the
/// runner can report per-evaluation deltas of the process-global
/// input-cache and fiber-scheduler statistics.
struct WarmBase {
    input: InputCacheStats,
    sched: pcg_mpisim::SchedStats,
}

/// Print a panic in candidate code (a thread carrying a candidate's
/// cancel token) as the default hook's message line, without a
/// backtrace; a cancellation unwind, which the harness itself asked
/// for, prints nothing. Other panics go to the previous hook. The
/// harness captures candidate panics as verdicts, and under
/// `RUST_BACKTRACE` the default hook first symbolizes a backtrace on
/// the panicking thread, which under CPU load outlasts a tight time
/// limit and turns a `panic` verdict into `timeout`.
fn install_candidate_panic_hook() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if cancel::current_token().is_none() {
                previous(info);
            } else if !cancel::is_cancel_payload(info.payload()) {
                let thread = std::thread::current();
                eprintln!("thread '{}' {info}", thread.name().unwrap_or("<unnamed>"));
            }
        }));
    });
}

/// A compute-once cache slot: concurrent requesters for the same key
/// block on the first initializer instead of duplicating the work.
type OnceCell<T> = Arc<OnceLock<T>>;

/// Thread-safe caching candidate runner, shared by all scheduler
/// workers of one evaluation.
pub struct SharedRunner {
    cfg: EvalConfig,
    baselines: Mutex<HashMap<ProblemId, OnceCell<Baseline>>>,
    /// One run per distinct computation; every request reads its verdict.
    runs: Mutex<HashMap<(TaskId, Computation), OnceCell<Verdicts>>>,
    counters: Counters,
    /// Keyed by the requested `(task, kind, n)`, so each is listed once.
    quarantined: Mutex<HashMap<(TaskId, CandidateKind, u32), QuarantineEntry>>,
    leaks: Arc<LeakTracker>,
    supervisors: Arc<SupervisorPool>,
    warm_base: WarmBase,
}

impl SharedRunner {
    /// A fresh runner for one evaluation.
    pub fn new(cfg: EvalConfig) -> SharedRunner {
        install_candidate_panic_hook();
        SharedRunner {
            cfg,
            baselines: Mutex::new(HashMap::new()),
            runs: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            quarantined: Mutex::new(HashMap::new()),
            leaks: Arc::new(LeakTracker::default()),
            supervisors: Arc::new(SupervisorPool::default()),
            warm_base: WarmBase {
                input: input_cache::stats(),
                sched: pcg_mpisim::sched::stats(),
            },
        }
    }

    /// The evaluation configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.cfg
    }

    fn baseline_cell(&self, problem: ProblemId) -> OnceCell<Baseline> {
        self.baselines
            .lock()
            .entry(problem)
            .or_insert_with(|| Arc::new(OnceLock::new()))
            .clone()
    }

    /// Read the baseline for `problem` (measured on first use) without
    /// cloning its output.
    pub fn with_baseline<R>(&self, problem: ProblemId, f: impl FnOnce(&Baseline) -> R) -> R {
        let cell = self.baseline_cell(problem);
        let baseline = cell.get_or_init(|| {
            let t0 = Instant::now();
            let measured = self.measure_baseline(problem);
            add_ns(&self.counters.baseline_ns, t0);
            measured
        });
        f(baseline)
    }

    fn measure_baseline(&self, problem: ProblemId) -> Baseline {
        let p = registry::problem(problem);
        let size = self.cfg.size_for(p.default_size());
        let mut best = f64::INFINITY;
        let mut output = None;
        for _ in 0..self.cfg.reps.max(1) {
            let run = p.run_baseline(self.cfg.seed, size);
            best = best.min(run.seconds);
            output = Some(run.output);
        }
        Baseline { output: Arc::new(output.expect("at least one rep")), seconds: best }
    }

    /// Execute (or fetch the cached execution of) one candidate.
    ///
    /// The request is answered by the run of the computation `kind`
    /// performs (see the module docs), which happens once however many
    /// kinds and `n`s share it; a request this call did not run counts
    /// as a cache hit. Fixed-verdict kinds run nothing and count as
    /// neither a hit nor an execution. A run that
    /// hard-fails (worker panic or wall-clock timeout — not a candidate
    /// that merely *reports* a failure) is retried once when
    /// `cfg.retry_flaky` is set, inside the run's cache initializer, so
    /// concurrent requesters still observe exactly one (possibly
    /// retried) execution sequence per computation. Every requested kind
    /// whose run hard-failed on its final attempt is quarantined once
    /// under its own kind and `n`.
    pub fn outcome(&self, task: TaskId, kind: CandidateKind, n: u32) -> Outcome {
        if let Some(e) = fixed_verdict(kind) {
            return Outcome::failed(&e);
        }
        let comp = Computation::of(task, kind, n);
        let run = {
            let mut map = self.runs.lock();
            map.entry((task, comp)).or_insert_with(|| Arc::new(OnceLock::new())).clone()
        };
        let mut hit = true;
        let verdicts = run.get_or_init(|| {
            hit = false;
            self.run_with_retry(task, comp, n)
        });
        if hit {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        let out = *verdicts.of(kind);
        if verdicts.hard {
            self.quarantined.lock().entry((task, kind, n)).or_insert_with(|| QuarantineEntry {
                task,
                kind: kind.tag().to_string(),
                n,
                error: out.error.unwrap_or("unknown").to_string(),
            });
        }
        out
    }

    /// Run `comp` at `task`, retrying a hard failure once under
    /// `cfg.retry_flaky`.
    fn run_with_retry(&self, task: TaskId, comp: Computation, n: u32) -> Verdicts {
        let baseline_output = self.with_baseline(task.problem, |b| b.output.clone());
        let first = self.execute(task, comp, n, &baseline_output);
        if !first.hard || !self.cfg.retry_flaky {
            return first;
        }
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        let second = self.execute(task, comp, n, &baseline_output);
        if !second.hard {
            self.counters.flaky.fetch_add(1, Ordering::Relaxed);
        }
        second
    }

    /// The quarantine list: candidates that hard-failed every attempt,
    /// sorted deterministically (the map's order is not).
    pub fn quarantined(&self) -> Vec<QuarantineEntry> {
        let mut q: Vec<QuarantineEntry> = self.quarantined.lock().values().cloned().collect();
        q.sort_by(|a, b| {
            a.task.cmp(&b.task).then_with(|| a.kind.cmp(&b.kind)).then_with(|| a.n.cmp(&b.n))
        });
        q
    }

    /// The `T*/T` performance ratio of one candidate (0 when incorrect).
    pub fn ratio(&self, task: TaskId, kind: CandidateKind, n: u32) -> f64 {
        let base = self.with_baseline(task.problem, |b| b.seconds);
        self.outcome(task, kind, n).ratio(base)
    }

    /// Run `work` on a dedicated worker thread with a cancel token
    /// installed, and supervise it against the configured time limit.
    ///
    /// On timeout the token is cancelled and the worker gets
    /// `cfg.grace` to unwind cooperatively (every substrate checks the
    /// token at its blocking points); a worker that ignores the token —
    /// e.g. a raw `sleep` — is abandoned, which consumes one leak slot
    /// until the thread eventually unwinds. Spawning blocks while
    /// `cfg.max_abandoned` leak slots are consumed, so hostile
    /// candidates degrade throughput instead of exhausting threads.
    fn supervise<M: Send + 'static>(
        &self,
        work: impl FnOnce() -> M + Send + 'static,
    ) -> WorkerFate<M> {
        self.leaks.wait_below(self.cfg.max_abandoned);
        let token = CancelToken::new();
        let worker_token = token.clone();
        let handshake = Arc::new(Mutex::new(Handshake::Running));
        let worker_hs = Arc::clone(&handshake);
        let tracker = Arc::clone(&self.leaks);
        let (tx, rx) = mpsc::channel();
        let job: SupJob = Box::new(move || {
            // Install the candidate's token as a guard: it is restored
            // on return, so a reused worker never carries a stale token
            // into the next candidate.
            let _cancel = cancel::install_token(Some(worker_token));
            let out = work();
            // Finalize the handshake before reporting back: if the
            // supervisor observes `Running`, the candidate body is
            // guaranteed not to have completed.
            let reusable = {
                let mut hs = worker_hs.lock();
                if *hs == Handshake::Abandoned {
                    tracker.remove();
                    // This thread blew past its grace period once;
                    // retire it rather than trust it with another
                    // candidate.
                    false
                } else {
                    *hs = Handshake::Done;
                    true
                }
            };
            let _ = tx.send(out);
            reusable
        });
        if warm::enabled() {
            self.supervisors.submit(job);
        } else {
            std::thread::spawn(move || {
                let _ = job();
            });
        }
        match rx.recv_timeout(self.cfg.timeout) {
            Ok(m) => WorkerFate::Finished(m),
            Err(_) => {
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                token.cancel();
                match rx.recv_timeout(self.cfg.grace) {
                    Ok(_) => {
                        // Unwound cooperatively; the late result is
                        // discarded — the outcome is already "timeout".
                        self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        let mut hs = handshake.lock();
                        if *hs == Handshake::Running {
                            *hs = Handshake::Abandoned;
                            self.leaks.add();
                            self.counters.abandoned.fetch_add(1, Ordering::Relaxed);
                        } else {
                            // Finished in the race window between the
                            // grace timeout and taking the lock.
                            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                WorkerFate::TimedOut
            }
        }
    }

    /// Run `comp` at `task` once, with the requester's `n` (every `n`
    /// mapping to the computation runs the same thing), and validate
    /// its output for every member kind. An efficient-path run does
    /// `cfg.reps` repetitions inside one time limit, so its wrong-output
    /// members share that limit too. [`Verdicts::hard`] is set when
    /// the run hard-failed at the harness level (worker panic or
    /// wall-clock timeout) — the signal for retry/quarantine — as opposed
    /// to a candidate that merely *reported* a failure (e.g. a
    /// `Deadlock` verdict, which returns promptly).
    fn execute(
        &self,
        task: TaskId,
        comp: Computation,
        n: u32,
        baseline_output: &Output,
    ) -> Verdicts {
        let problem = registry::problem(task.problem);
        let size = self.cfg.size_for(problem.default_size());
        let seed = self.cfg.seed;
        let kind = comp.run_kind();
        let reps = if matches!(kind, CandidateKind::Correct(_)) { self.cfg.reps.max(1) } else { 1 };
        self.counters.executions.fetch_add(1, Ordering::Relaxed);

        // Run on a worker thread so a runaway candidate can be cancelled
        // (and, failing that, abandoned) at the time limit — the paper's
        // 3-minute kill. Panics inside the candidate are captured on
        // that thread — distinguishable from a hang.
        let t_run = Instant::now();
        let fate = self.supervise(move || {
            let scope = UsageScope::begin();
            let body = catch_unwind(AssertUnwindSafe(|| {
                let mut best = f64::INFINITY;
                let mut last = None;
                for _ in 0..reps {
                    let run = problem.run_candidate(task.model, kind, n, seed, size);
                    match &run {
                        Ok(r) => best = best.min(r.seconds),
                        Err(_) => {
                            last = Some(run);
                            break;
                        }
                    }
                    last = Some(run);
                }
                (last.expect("at least one rep ran"), best)
            }))
            .map_err(|p| panic_message(&*p));
            let usage = scope.finish();
            (body, usage)
        });
        add_ns(&self.counters.run_ns, t_run);
        let (body, usage) = match fate {
            WorkerFate::Finished(v) => v,
            WorkerFate::TimedOut => return Verdicts::all(Outcome::hard("timeout"), true),
        };
        let (result, best) = match body {
            Ok(v) => v,
            Err(_panic_msg) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                return Verdicts::all(Outcome::hard("panic"), true);
            }
        };
        let output = match result {
            Ok(run) => run.output,
            Err(e) => return Verdicts::all(Outcome::failed(&e), false),
        };

        let t_val = Instant::now();
        let validate = |output: &Output| {
            let error = if !output.approx_eq(baseline_output) {
                Some("wrong")
            } else if !usage.used_required_api(task.model) {
                Some("sequential")
            } else {
                None
            };
            Outcome { built: true, correct: error.is_none(), seconds: best, error }
        };
        let as_is = validate(&output);
        let corrupted = match comp {
            Computation::Efficient(_) => Corruption::ALL
                .iter()
                .map(|&mode| validate(&corrupt::corrupt(output.clone(), mode, seed)))
                .collect(),
            _ => Vec::new(),
        };
        add_ns(&self.counters.validate_ns, t_val);
        Verdicts { as_is, corrupted, hard: false }
    }

    /// Run an arbitrary closure through the same isolation machinery a
    /// candidate gets: dedicated worker thread with a cancel token
    /// installed, panic capture, and timeout cancellation (grace
    /// period, then abandonment) at `config().timeout`. Used by the
    /// substrate conformance tests to prove that a hostile candidate
    /// (hang or panic on any substrate) cannot wedge an evaluation
    /// worker.
    pub fn run_isolated<R, F>(&self, f: F) -> Outcome
    where
        R: Send + 'static,
        F: FnOnce() -> Result<R, PcgError> + Send + 'static,
    {
        self.counters.executions.fetch_add(1, Ordering::Relaxed);
        let t_run = Instant::now();
        let fate = self.supervise(move || {
            let t0 = Instant::now();
            let body = catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(&*p));
            (body, t0.elapsed().as_secs_f64())
        });
        add_ns(&self.counters.run_ns, t_run);
        match fate {
            WorkerFate::TimedOut => Outcome::hard("timeout"),
            WorkerFate::Finished((Err(_panic), _)) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                Outcome::hard("panic")
            }
            WorkerFate::Finished((Ok(Err(e)), _)) => Outcome::failed(&e),
            WorkerFate::Finished((Ok(Ok(_)), secs)) => {
                Outcome { built: true, correct: true, seconds: secs, error: None }
            }
        }
    }

    /// A snapshot of every counter this runner owns, as an
    /// [`EvalStats`] whose remaining fields (grid shape, wall clock,
    /// journal and steal counters) are left at their defaults for the
    /// caller to fill. Stage seconds are summed across workers; the
    /// input-cache and fiber-scheduler counts are process-global, so
    /// they are reported as deltas since the runner was constructed.
    pub fn stats(&self) -> EvalStats {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let secs = |a: &AtomicU64| get(a) as f64 / 1e9;
        let sched = pcg_mpisim::sched::stats();
        let base = &self.warm_base.sched;
        EvalStats {
            executions: get(&c.executions),
            cache_hits: get(&c.cache_hits),
            panics: get(&c.panics),
            timeouts: get(&c.timeouts),
            cancelled: get(&c.cancelled),
            abandoned: get(&c.abandoned),
            retries: get(&c.retries),
            flaky: get(&c.flaky),
            quarantined: self.quarantined(),
            baseline_s: secs(&c.baseline_ns),
            run_s: secs(&c.run_ns),
            validate_s: secs(&c.validate_ns),
            input_cache_hits: input_cache::stats()
                .hits
                .saturating_sub(self.warm_base.input.hits),
            ranks_multiplexed: sched.ranks_multiplexed.saturating_sub(base.ranks_multiplexed),
            bytes_zero_copied: sched.bytes_zero_copied.saturating_sub(base.bytes_zero_copied),
            deadlocks_detected: sched.deadlocks_detected.saturating_sub(base.deadlocks_detected),
            stack_overflows_caught: sched
                .stack_overflows_caught
                .saturating_sub(base.stack_overflows_caught),
            guard_faults: sched.guard_faults.saturating_sub(base.guard_faults),
            leak_budget_exhausted: self.leaks.was_exhausted(),
            ..EvalStats::default()
        }
    }

    /// Abandoned worker threads that have not yet unwound.
    pub fn leaked_workers(&self) -> usize {
        self.leaks.live()
    }
}

impl Drop for SharedRunner {
    fn drop(&mut self) {
        // Release parked supervisor workers; in-flight executions (and
        // abandoned ones) keep their own `Arc` to the pool and exit
        // after their current job.
        self.supervisors.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::{ExecutionModel, ProblemType, Quality};
    use std::time::Duration;

    fn mk_task(model: ExecutionModel) -> TaskId {
        pcg_core::ProblemId::new(ProblemType::Transform, 0).task(model)
    }

    fn runner() -> SharedRunner {
        SharedRunner::new(EvalConfig::smoke())
    }

    #[test]
    fn correct_candidate_validates() {
        let r = runner();
        let out = r.outcome(
            mk_task(ExecutionModel::OpenMp),
            CandidateKind::Correct(Quality::Efficient),
            4,
        );
        assert!(out.built && out.correct, "{out:?}");
        assert!(r.ratio(mk_task(ExecutionModel::OpenMp), CandidateKind::Correct(Quality::Efficient), 4) > 0.0);
    }

    #[test]
    fn failure_kinds_map_to_codes() {
        let r = runner();
        let t = mk_task(ExecutionModel::OpenMp);
        let build = r.outcome(t, CandidateKind::BuildFailure, 4);
        assert!(!build.built && !build.correct);
        assert_eq!(build.error, Some("build"));

        let crash = r.outcome(t, CandidateKind::RuntimeCrash, 4);
        assert!(crash.built && !crash.correct);
        assert_eq!(crash.error, Some("runtime"));

        let timeout = r.outcome(t, CandidateKind::Timeout, 4);
        assert!(!timeout.correct);
        assert_eq!(timeout.error, Some("timeout"));

        let wrong = r.outcome(
            t,
            CandidateKind::WrongOutput(pcg_core::Corruption::PerturbElement),
            4,
        );
        assert!(wrong.built && !wrong.correct);
        assert_eq!(wrong.error, Some("wrong"));
        assert_eq!(r.ratio(t, CandidateKind::WrongOutput(pcg_core::Corruption::PerturbElement), 4), 0.0);
    }

    #[test]
    fn sequential_fallback_flagged_only_for_parallel_tasks() {
        let r = runner();
        let par = r.outcome(mk_task(ExecutionModel::Kokkos), CandidateKind::SequentialFallback, 4);
        assert!(!par.correct);
        assert_eq!(par.error, Some("sequential"));

        let ser = r.outcome(mk_task(ExecutionModel::Serial), CandidateKind::SequentialFallback, 1);
        assert!(ser.correct, "serial prompts cannot fail the usage check");
    }

    #[test]
    fn repeat_request_is_a_hit_on_the_same_run() {
        let r = runner();
        let t = mk_task(ExecutionModel::Cuda);
        let a = r.outcome(t, CandidateKind::Correct(Quality::Efficient), 0);
        let hits_before = r.stats().cache_hits;
        let b = r.outcome(t, CandidateKind::Correct(Quality::Efficient), 0);
        assert_eq!(a.seconds, b.seconds, "second call must be the cached run");
        assert_eq!(r.stats().cache_hits, hits_before + 1);
    }

    #[test]
    fn inefficient_candidate_is_slower() {
        let r = runner();
        let t = mk_task(ExecutionModel::OpenMp);
        let eff = r.ratio(t, CandidateKind::Correct(Quality::Efficient), 8);
        let ineff = r.ratio(t, CandidateKind::Correct(Quality::Inefficient), 8);
        assert!(eff > 0.0 && ineff > 0.0);
        // The lopsided candidate cannot beat the balanced one by much;
        // allow noise but expect a clear ordering at 8 threads.
        assert!(ineff < eff * 1.5, "eff={eff} ineff={ineff}");
    }

    #[test]
    fn isolated_panic_is_captured_not_propagated() {
        let r = SharedRunner::new(EvalConfig::smoke());
        let out = r.run_isolated::<(), _>(|| panic!("candidate exploded"));
        assert!(!out.correct);
        assert_eq!(out.error, Some("panic"));
        assert_eq!(r.stats().panics, 1);
        // The runner is still serviceable after a panic.
        let ok = r.run_isolated(|| Ok::<_, PcgError>(42));
        assert!(ok.correct, "{ok:?}");
    }

    #[test]
    fn isolated_hang_is_abandoned_at_the_limit() {
        let mut cfg = EvalConfig::smoke();
        cfg.timeout = Duration::from_millis(50);
        cfg.grace = Duration::from_millis(50);
        let r = SharedRunner::new(cfg);
        // A raw sleep never observes the cancel token, so after the
        // grace period the worker must be abandoned, not cancelled.
        let out = r.run_isolated(|| {
            std::thread::sleep(Duration::from_secs(30));
            Ok::<_, PcgError>(())
        });
        assert!(!out.correct);
        assert_eq!(out.error, Some("timeout"));
        assert_eq!(r.stats().timeouts, 1);
        assert_eq!(r.stats().abandoned, 1);
        assert_eq!(r.stats().cancelled, 0);
        assert_eq!(r.leaked_workers(), 1, "the sleeper holds a leak slot");
    }

    #[test]
    fn cancelled_worker_unwinds_within_grace_without_abandonment() {
        let mut cfg = EvalConfig::smoke();
        cfg.timeout = Duration::from_millis(50);
        cfg.grace = Duration::from_secs(10);
        let r = SharedRunner::new(cfg);
        // A cooperative hang: spins on the cancel token the way every
        // substrate's blocking points do.
        let out = r.run_isolated::<(), _>(|| loop {
            pcg_core::cancel::check_current();
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(!out.correct);
        assert_eq!(out.error, Some("timeout"));
        assert_eq!(r.stats().timeouts, 1);
        assert_eq!(r.stats().cancelled, 1);
        assert_eq!(r.stats().abandoned, 0, "cooperative unwind must not leak");
        assert_eq!(r.leaked_workers(), 0);
    }

    #[test]
    fn abandonment_cap_blocks_until_a_leaked_worker_unwinds() {
        let mut cfg = EvalConfig::smoke();
        cfg.timeout = Duration::from_millis(20);
        cfg.grace = Duration::from_millis(20);
        cfg.max_abandoned = 1;
        let r = SharedRunner::new(cfg);
        // First hostile candidate: sleeps past timeout+grace, gets
        // abandoned, and occupies the single leak slot for ~150ms.
        let out = r.run_isolated(|| {
            std::thread::sleep(Duration::from_millis(150));
            Ok::<_, PcgError>(())
        });
        assert_eq!(out.error, Some("timeout"));
        assert_eq!(r.stats().abandoned, 1);
        assert!(
            !r.stats().leak_budget_exhausted,
            "abandonment alone must not trip the flag — only blocking does"
        );
        // Second execution must wait for the slot, then run normally.
        let t0 = std::time::Instant::now();
        let ok = r.run_isolated(|| Ok::<_, PcgError>(1));
        assert!(ok.correct, "{ok:?}");
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "spawn should have blocked on the leak cap"
        );
        assert_eq!(r.leaked_workers(), 0, "the sleeper released its slot on unwind");
        assert!(
            r.stats().leak_budget_exhausted,
            "blocking on the exhausted budget must latch the sidecar flag"
        );
    }

    #[test]
    fn shared_runner_is_deterministic_across_worker_counts() {
        // Same key from many threads: exactly one execution, same value.
        let r = SharedRunner::new(EvalConfig::smoke());
        let t = mk_task(ExecutionModel::OpenMp);
        let kind = CandidateKind::Correct(Quality::Efficient);
        let outs: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..8).map(|_| s.spawn(|| r.outcome(t, kind, 4))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(r.stats().executions, 1, "one execution, {} cache hits", r.stats().cache_hits);
        for o in &outs {
            assert!(o.correct);
            assert_eq!(o.seconds, outs[0].seconds);
        }
        assert!(r.stats().run_s > 0.0);
    }
}
