//! Parallel-API usage instrumentation and the evaluation context.
//!
//! The paper marks a generated sample incorrect if it does not use its
//! required parallel programming model, detected there by string matching
//! on the source. This reproduction uses a stronger dynamic check: every
//! substrate counts each API entry (e.g. each `parallel_for`, each
//! `MPI_Send`, each kernel launch) into the calling candidate's counters;
//! a parallel task whose counters did not move is a sequential fallback.
//!
//! Attribution is per candidate even when the harness runs candidates
//! concurrently: [`UsageScope::begin`] installs a thread-local [`Sink`]
//! that [`record`] feeds, and a substrate that runs candidate code on
//! threads of its own (an MPI world that runs each rank on a thread)
//! re-installs the creator's sink on them via
//! [`current_sink`]/[`install_sink`]. A call made with no sink installed
//! is counted nowhere.
//!
//! The sink also carries the execution's [`Context`], which a harness
//! runner owns one of: substrates read its [`settings`], count their
//! [`Event`]s into the sink ([`note`]), and a flaky candidate faults once
//! per coordinate in it ([`first_fault`]). Code with no sink installed,
//! or in a plain [`UsageScope::begin`], shares one default context.

use crate::{ExecutionModel, ProblemId};
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A substrate event, counted into the execution's sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An input lookup served from the memo.
    InputCacheHit,
    /// A simulated rank that ran as a fiber instead of an OS thread.
    RankMultiplexed,
    /// A payload byte forwarded or moved by reference instead of copied.
    ByteZeroCopied,
    /// A world failed fast by the wait-for-graph deadlock detector.
    DeadlockDetected,
    /// A fiber stack overflow converted into a verdict by the guard page.
    StackOverflowCaught,
    /// A SIGSEGV classified as a fiber guard-page hit.
    GuardFault,
}

/// Number of [`Event`] kinds.
pub const EVENTS: usize = 6;

/// How the substrates run under a [`Context`]. Both are on by default;
/// tests turn one off to reach the reference path it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// Worlds run their ranks as fibers, inputs are memoised and a
    /// runner reuses its executors. Off: one OS thread per rank, a fresh
    /// input per lookup, an executor per execution; the same records.
    pub warm: bool,
    /// The wait-for-graph deadlock detector. Off, a quiescent fiber
    /// world waits for its cancel token: the timeout-only baseline.
    pub deadlock_detection: bool,
}

impl Default for Settings {
    fn default() -> Settings {
        Settings { warm: true, deadlock_detection: true }
    }
}

/// A flaky candidate's coordinate: problem, model, `n`, seed and size.
pub type FaultKey = (ProblemId, ExecutionModel, u32, u64, usize);

/// The state one evaluation shares across its executions: its
/// [`Settings`] and the flaky coordinates that have faulted.
#[derive(Debug, Default)]
pub struct Context {
    /// Fixed for the context's life.
    pub settings: Settings,
    faulted: Mutex<HashSet<FaultKey>>,
}

impl Context {
    /// A context with `settings` and no fault fired yet, ready to share.
    pub fn new(settings: Settings) -> Arc<Context> {
        Arc::new(Context { settings, faulted: Mutex::default() })
    }
}

/// The context of code that runs outside any runner.
fn default_context() -> &'static Arc<Context> {
    static DEFAULT: OnceLock<Arc<Context>> = OnceLock::new();
    DEFAULT.get_or_init(Arc::default)
}

/// One execution's counters and context, shared with any substrate
/// worker threads it spawns.
#[derive(Debug)]
pub struct Sink {
    calls: [AtomicU64; 7],
    events: [AtomicU64; EVENTS],
    context: Arc<Context>,
}

impl Sink {
    /// A zeroed sink for one execution in `context`.
    pub fn new(context: Arc<Context>) -> Arc<Sink> {
        Arc::new(Sink { calls: Default::default(), events: Default::default(), context })
    }

    /// Everything counted into the sink so far.
    pub fn delta(&self) -> UsageDelta {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (calls, events) = (self.calls.each_ref().map(load), self.events.each_ref().map(load));
        UsageDelta { calls, events }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Sink>>> = const { RefCell::new(None) };
}

/// The sink installed on this thread, if any — capture it before
/// spawning substrate worker threads and re-install it on each of them
/// so their API calls attribute to the candidate that spawned them.
pub fn current_sink() -> Option<Arc<Sink>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install `sink` on this thread until the returned guard drops (the
/// previous sink, if any, is restored).
pub fn install_sink(sink: Option<Arc<Sink>>) -> SinkGuard {
    let prev = CURRENT.with(|c| c.replace(sink));
    SinkGuard { prev }
}

/// Restores the previously installed sink on drop.
pub struct SinkGuard {
    prev: Option<Arc<Sink>>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

fn with_sink(f: impl FnOnce(&Sink)) {
    CURRENT.with(|c| {
        if let Some(sink) = c.borrow().as_ref() {
            f(sink);
        }
    });
}

/// Record one use of a substrate API belonging to `model`.
#[inline]
pub fn record(model: ExecutionModel) {
    record_n(model, 1);
}

/// Record `n` uses at once (e.g. a collective performed by every rank).
#[inline]
pub fn record_n(model: ExecutionModel, n: u64) {
    with_sink(|s| {
        s.calls[model.index()].fetch_add(n, Ordering::Relaxed);
    });
}

/// Count `n` occurrences of `event` into the installed sink.
#[inline]
pub fn note(event: Event, n: u64) {
    with_sink(|s| {
        s.events[event as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// Run `f` on the installed sink's context, or on the default context.
fn with_context<R>(f: impl FnOnce(&Context) -> R) -> R {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(sink) => f(&sink.context),
        None => f(default_context()),
    })
}

/// The settings of the context installed on this thread.
pub fn settings() -> Settings {
    with_context(|c| c.settings)
}

/// `true` exactly once per `key` in the context installed on this thread.
pub fn first_fault(key: FaultKey) -> bool {
    with_context(|c| c.faulted.lock().unwrap_or_else(PoisonError::into_inner).insert(key))
}

/// Counter increments observed across a candidate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageDelta {
    calls: [u64; 7],
    events: [u64; EVENTS],
}

impl UsageDelta {
    /// API calls recorded for `model`.
    pub fn calls(&self, model: ExecutionModel) -> u64 {
        self.calls[model.index()]
    }

    /// Occurrences of `event` counted.
    pub fn events(&self, event: Event) -> u64 {
        self.events[event as usize]
    }

    /// Every event's count, indexed by [`Event`].
    pub fn event_counts(&self) -> [u64; EVENTS] {
        self.events
    }

    /// Whether the candidate exercised the parallel API required by
    /// `model`. Hybrid tasks must touch the MPI layer; the threaded inner
    /// level alone does not count, mirroring the paper's check that an
    /// MPI+OpenMP prompt actually distributes work across ranks.
    pub fn used_required_api(&self, model: ExecutionModel) -> bool {
        match model {
            ExecutionModel::Serial => true,
            ExecutionModel::MpiOpenMp => self.calls(ExecutionModel::Mpi) > 0,
            m => self.calls(m) > 0,
        }
    }
}

/// RAII-style scope: installs a fresh [`Sink`] on the current thread at
/// construction; [`UsageScope::finish`] reads it back. Only API calls
/// made by this thread (and by substrate worker threads it spawned, via
/// sink propagation) are counted — concurrent candidates on other
/// threads cannot pollute the delta.
pub struct UsageScope {
    sink: Arc<Sink>,
    _guard: SinkGuard,
}

impl UsageScope {
    /// Begin observing usage on this thread, in the default context.
    pub fn begin() -> UsageScope {
        UsageScope::begin_in(Arc::clone(default_context()))
    }

    /// Begin observing usage on the current thread, in `context`.
    pub fn begin_in(context: Arc<Context>) -> UsageScope {
        let sink = Sink::new(context);
        let guard = install_sink(Some(Arc::clone(&sink)));
        UsageScope { sink, _guard: guard }
    }

    /// Stop observing and return the per-model API call and event deltas.
    pub fn finish(self) -> UsageDelta {
        self.sink.delta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_reflects_records() {
        let scope = UsageScope::begin();
        record(ExecutionModel::Kokkos);
        record_n(ExecutionModel::Kokkos, 4);
        let d = scope.finish();
        assert_eq!(d.calls(ExecutionModel::Kokkos), 5);
        assert!(d.used_required_api(ExecutionModel::Kokkos));
    }

    #[test]
    fn concurrent_scopes_do_not_cross_pollute() {
        // Two candidates on different threads: a noisy one hammering an
        // API and a quiet sequential fallback. The quiet scope must read
        // zero even while the noisy one records — the regression that
        // flipped `sequential` verdicts under the parallel scheduler.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let noisy = s.spawn(|| {
                let scope = UsageScope::begin();
                barrier.wait();
                for _ in 0..1000 {
                    record(ExecutionModel::Cuda);
                }
                barrier.wait();
                scope.finish()
            });
            let quiet = s.spawn(|| {
                let scope = UsageScope::begin();
                barrier.wait(); // noisy is now recording
                barrier.wait();
                scope.finish()
            });
            let nd = noisy.join().unwrap();
            let qd = quiet.join().unwrap();
            assert_eq!(nd.calls(ExecutionModel::Cuda), 1000);
            assert_eq!(qd.calls(ExecutionModel::Cuda), 0);
            assert!(!qd.used_required_api(ExecutionModel::Cuda));
        });
    }

    #[test]
    fn sink_propagates_to_spawned_workers() {
        let scope = UsageScope::begin();
        let sink = current_sink();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = install_sink(sink.clone());
                record(ExecutionModel::Mpi);
            });
        });
        let d = scope.finish();
        assert_eq!(d.calls(ExecutionModel::Mpi), 1);
    }

    #[test]
    fn events_and_settings_follow_the_installed_context() {
        assert_eq!(settings(), Settings::default(), "no sink: the default context");
        let cold = Settings { warm: false, ..Settings::default() };
        let scope = UsageScope::begin_in(Context::new(cold));
        assert!(!settings().warm);
        note(Event::ByteZeroCopied, 64);
        note(Event::GuardFault, 1);
        let d = scope.finish();
        assert_eq!(d.events(Event::ByteZeroCopied), 64);
        assert_eq!(d.events(Event::GuardFault), 1);
        assert_eq!(d.events(Event::InputCacheHit), 0);
        assert!(settings().warm, "the scope's context ends with the scope");
    }

    #[test]
    fn faults_fire_once_per_context() {
        let key = (ProblemId::new(crate::ProblemType::Sort, 4), ExecutionModel::Mpi, 3, 0xfa17, 9);
        let (a, b) = (Arc::new(Context::default()), Arc::new(Context::default()));
        let scope = UsageScope::begin_in(Arc::clone(&a));
        assert!(first_fault(key));
        assert!(!first_fault(key), "a context fires each coordinate once");
        drop(scope);
        let scope = UsageScope::begin_in(b);
        assert!(first_fault(key), "another context has its own memory");
        drop(scope);
        let _scope = UsageScope::begin_in(a);
        assert!(!first_fault(key));
    }

    #[test]
    fn serial_always_counts_as_used() {
        let d = UsageScope::begin().finish();
        assert!(d.used_required_api(ExecutionModel::Serial));
    }

    #[test]
    fn hybrid_requires_mpi_layer() {
        let scope = UsageScope::begin();
        record(ExecutionModel::OpenMp);
        let d = scope.finish();
        // Only the threaded layer moved: the hybrid requirement is unmet.
        assert!(!d.used_required_api(ExecutionModel::MpiOpenMp));

        let scope = UsageScope::begin();
        record_n(ExecutionModel::MpiOpenMp, 3);
        let d = scope.finish();
        // Only the hybrid's inner level moved: still unmet.
        assert!(!d.used_required_api(ExecutionModel::MpiOpenMp));

        let scope = UsageScope::begin();
        record(ExecutionModel::Mpi);
        let d = scope.finish();
        assert!(d.used_required_api(ExecutionModel::MpiOpenMp));
    }
}
