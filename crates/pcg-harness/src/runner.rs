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
//!
//! Every execution runs on an executor thread that belongs to the
//! calling thread, so the caller can enforce the time limit: it
//! cancels the candidate at the limit and abandons it after the grace
//! period (the paper's kill). Each calling thread keeps its executor in
//! a thread-local and reuses it for its next execution, unless the
//! executor was abandoned or the warm path is off.

use crate::config::EvalConfig;
use crate::record::EvalStats;
use pcg_core::cancel::{self, CancelToken};
use pcg_core::usage::UsageScope;
use pcg_core::{warm, CandidateKind, Corruption, Output, PcgError, ProblemId, Quality, TaskId};
use pcg_problems::framework::fixed_verdict;
use pcg_problems::input_cache::{self, InputCacheStats};
use pcg_problems::{corrupt, registry, Resources};
use parking_lot::{Condvar, Mutex, MutexGuard};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

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

    /// The harness killed the candidate: it panicked (`"panic"`) or
    /// blew the wall-clock limit (`"timeout"`).
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

/// Tracks executor threads that were abandoned (leaked) after ignoring
/// cooperative cancellation past the grace period. A new execution
/// blocks while the live-leak count is at the cap, so a flood of hostile
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

    /// An abandoned executor finally returned; free its slot.
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

/// One execution's result, shared by the supervising caller and the
/// executor under one lock, so exactly one of them accounts for an
/// executor that outlives its supervision.
enum Slot<M> {
    /// The executor is still inside the candidate.
    Running,
    /// The candidate returned, or unwound, with this result.
    Done(std::thread::Result<M>),
    /// The supervisor gave up on the executor, which releases its leak
    /// slot if the candidate ever returns.
    Abandoned,
}

fn add_ns(counter: &AtomicU64, since: Instant) {
    let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

/// One execution, as run by an executor thread.
type Job = Box<dyn FnOnce() + Send>;

thread_local! {
    /// This thread's executor: the sending end of its job queue. Each
    /// execution takes it and puts it back when done, unless the
    /// executor was abandoned or the warm path is off; dropping the
    /// sender retires the executor once its current job returns.
    static EXECUTOR: Cell<Option<mpsc::Sender<Job>>> = const { Cell::new(None) };
}

/// Start an executor thread, which runs the jobs sent to it in order
/// until its sender is dropped.
fn spawn_executor() -> mpsc::Sender<Job> {
    let (tx, rx) = mpsc::channel::<Job>();
    std::thread::Builder::new()
        .name("pcg-executor".into())
        .spawn(move || rx.into_iter().for_each(|job| job()))
        .expect("spawn executor");
    tx
}

/// Wait on `cv` while `slot` is [`Slot::Running`], for at most `limit`.
fn wait_running<M>(cv: &Condvar, slot: &mut MutexGuard<'_, Slot<M>>, limit: Duration) {
    let t0 = Instant::now();
    while let (Slot::Running, Some(left)) = (&**slot, limit.checked_sub(t0.elapsed())) {
        cv.wait_for(slot, left);
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

    /// Run `work` on this thread's executor with a fresh cancel token
    /// installed, and supervise it against the configured time limit.
    ///
    /// On timeout the token is cancelled and the executor gets
    /// `cfg.grace` to unwind cooperatively (every substrate checks the
    /// token at its blocking points). An executor that ignores the
    /// token (e.g. a raw `sleep`) is abandoned: it holds one leak slot
    /// until the candidate returns, and this thread's next execution
    /// starts a fresh executor. A new execution blocks while
    /// `cfg.max_abandoned` leak slots are held, so hostile candidates
    /// degrade throughput instead of exhausting threads. Both ends of a
    /// timeout give `Err` of the `timeout` outcome, so records stay
    /// byte-identical whichever way the race goes; a panic in time
    /// gives the `panic` outcome.
    fn supervise<M: Send + 'static>(
        &self,
        work: impl FnOnce() -> M + Send + 'static,
    ) -> Result<M, Outcome> {
        self.leaks.wait_below(self.cfg.max_abandoned);
        let token = CancelToken::new();
        let slot = Arc::new((Mutex::new(Slot::Running), Condvar::new()));
        let (worker_token, worker_slot, leaks) =
            (token.clone(), Arc::clone(&slot), Arc::clone(&self.leaks));
        let job: Job = Box::new(move || {
            let result = {
                // Restored on return, so a reused executor never
                // carries a stale token into the next candidate.
                let _cancel = cancel::install_token(Some(worker_token));
                catch_unwind(AssertUnwindSafe(work))
            };
            let (lock, cv) = &*worker_slot;
            let mut slot = lock.lock();
            if matches!(*slot, Slot::Abandoned) {
                leaks.remove();
            } else {
                *slot = Slot::Done(result);
                cv.notify_one();
            }
        });
        let executor = EXECUTOR.take().unwrap_or_else(spawn_executor);
        executor.send(job).expect("an executor outlives its sender");

        let (lock, cv) = &*slot;
        let mut state = lock.lock();
        wait_running(cv, &mut state, self.cfg.timeout);
        let timed_out = matches!(*state, Slot::Running);
        if timed_out {
            token.cancel();
            wait_running(cv, &mut state, self.cfg.grace);
        }
        // Marking the slot `Abandoned` gives up on a running executor
        // and is harmless to a finished one.
        let result = match std::mem::replace(&mut *state, Slot::Abandoned) {
            Slot::Done(result) => result,
            _ => {
                self.leaks.add();
                self.counters.abandoned.fetch_add(1, Ordering::Relaxed);
                return Err(Outcome::hard("timeout"));
            }
        };
        if warm::enabled() {
            EXECUTOR.set(Some(executor));
        }
        if timed_out {
            // Unwound within the grace period; the late result is
            // discarded.
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            return Err(Outcome::hard("timeout"));
        }
        result.map_err(|_| {
            self.counters.panics.fetch_add(1, Ordering::Relaxed);
            Outcome::hard("panic")
        })
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

        // Supervised, so a runaway candidate is cancelled (and, failing
        // that, abandoned) at the time limit: the paper's 3-minute kill.
        let t_run = Instant::now();
        let body = self.supervise(move || {
            let scope = UsageScope::begin();
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
            (last.expect("at least one rep ran"), best, scope.finish())
        });
        add_ns(&self.counters.run_ns, t_run);
        let (result, best, usage) = match body {
            Ok(v) => v,
            Err(hard) => return Verdicts::all(hard, true),
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

    /// Run an arbitrary closure through the same isolation a candidate
    /// gets: this thread's executor with a cancel token installed,
    /// panic capture, and timeout cancellation (grace period, then
    /// abandonment) at `config().timeout`. Used by the
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
        let body = self.supervise(move || {
            let t0 = Instant::now();
            (f(), t0.elapsed().as_secs_f64())
        });
        add_ns(&self.counters.run_ns, t_run);
        match body {
            Err(hard) => hard,
            Ok((Err(e), _)) => Outcome::failed(&e),
            Ok((Ok(_), secs)) => Outcome { built: true, correct: true, seconds: secs, error: None },
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
            timeouts: get(&c.cancelled) + get(&c.abandoned),
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

    /// Abandoned executor threads that have not yet returned.
    pub fn leaked_workers(&self) -> usize {
        self.leaks.live()
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

    type ThreadIds = Arc<Mutex<Vec<std::thread::ThreadId>>>;

    /// `run_isolated(body)`, recording the thread `body` runs on.
    fn traced(r: &SharedRunner, ids: &ThreadIds, body: impl FnOnce() + Send + 'static) -> Outcome {
        let ids = Arc::clone(ids);
        r.run_isolated(move || {
            ids.lock().push(std::thread::current().id());
            body();
            Ok::<_, PcgError>(())
        })
    }

    #[test]
    fn consecutive_executions_share_the_callers_executor() {
        let r = runner();
        let ids = ThreadIds::default();
        assert!(traced(&r, &ids, || ()).correct);
        assert!(traced(&r, &ids, || ()).correct);
        let ids = ids.lock();
        assert_eq!(ids[0], ids[1], "the second execution must reuse the executor");
        assert_ne!(ids[0], std::thread::current().id(), "candidates run off the caller");
    }

    #[test]
    fn a_cancelled_executor_is_reused() {
        let mut cfg = EvalConfig::smoke();
        cfg.timeout = Duration::from_millis(50);
        cfg.grace = Duration::from_secs(10);
        let r = SharedRunner::new(cfg);
        let ids = ThreadIds::default();
        let out = traced(&r, &ids, || loop {
            pcg_core::cancel::check_current();
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(out.error, Some("timeout"));
        assert_eq!(r.stats().cancelled, 1);
        assert!(traced(&r, &ids, || ()).correct);
        let ids = ids.lock();
        assert_eq!(ids[0], ids[1], "an executor that unwound in time must be reused");
    }

    #[test]
    fn an_abandoned_executor_is_replaced() {
        let mut cfg = EvalConfig::smoke();
        cfg.timeout = Duration::from_secs(1);
        cfg.grace = Duration::from_millis(50);
        cfg.max_abandoned = 2;
        let r = SharedRunner::new(cfg);
        let ids = ThreadIds::default();
        let out = traced(&r, &ids, || std::thread::sleep(Duration::from_secs(20)));
        assert_eq!(out.error, Some("timeout"));
        assert_eq!(r.stats().abandoned, 1);
        // Queued behind the sleeper, this would time out.
        let t0 = Instant::now();
        let ok = traced(&r, &ids, || ());
        assert!(ok.correct, "{ok:?}");
        assert!(t0.elapsed() < Duration::from_millis(500), "took {:?}", t0.elapsed());
        let ids = ids.lock();
        assert_ne!(ids[0], ids[1], "the abandoned executor must not be reused");
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
