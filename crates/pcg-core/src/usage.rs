//! Parallel-API usage instrumentation.
//!
//! The paper marks a generated sample incorrect if it does not use its
//! required parallel programming model, detected there by string matching
//! on the source. This reproduction uses a stronger dynamic check: every
//! substrate increments a global counter on each API entry (e.g. each
//! `parallel_for`, each `MPI_Send`, each kernel launch). The harness
//! snapshots the counters around a candidate run; a parallel task whose
//! counters did not move is a sequential fallback.
//!
//! Attribution is per candidate even when the harness runs candidates
//! concurrently: [`UsageScope::begin`] installs a thread-local [`Sink`]
//! that [`record`] feeds in addition to the process-global counters, and
//! substrates that spawn their own threads (MPI rank threads and fiber
//! helpers) re-install the creator's sink on those threads via
//! [`current_sink`]/[`install_sink`]. The global counters remain for
//! whole-process views ([`Snapshot`]).

use crate::ExecutionModel;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static COUNTERS: [AtomicU64; 7] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// A per-candidate usage counter block, shared between the candidate's
/// thread and any substrate worker threads it spawns.
#[derive(Debug, Default)]
pub struct Sink {
    counts: [AtomicU64; 7],
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

fn add(model: ExecutionModel, n: u64) {
    let i = model.index();
    COUNTERS[i].fetch_add(n, Ordering::Relaxed);
    CURRENT.with(|c| {
        if let Some(sink) = c.borrow().as_ref() {
            sink.counts[i].fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Record one use of a substrate API belonging to `model`.
#[inline]
pub fn record(model: ExecutionModel) {
    add(model, 1);
}

/// Record `n` uses at once (e.g. a collective performed by every rank).
#[inline]
pub fn record_n(model: ExecutionModel, n: u64) {
    add(model, n);
}

/// A point-in-time view of all usage counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    counts: [u64; 7],
}

impl Snapshot {
    /// Capture the current counter values.
    pub fn capture() -> Snapshot {
        let mut counts = [0u64; 7];
        for (i, c) in COUNTERS.iter().enumerate() {
            counts[i] = c.load(Ordering::Relaxed);
        }
        Snapshot { counts }
    }

    /// Counter increments since `earlier`, per execution model.
    pub fn delta_since(&self, earlier: &Snapshot) -> UsageDelta {
        let mut d = [0u64; 7];
        for (slot, (now, before)) in d.iter_mut().zip(self.counts.iter().zip(&earlier.counts)) {
            *slot = now.wrapping_sub(*before);
        }
        UsageDelta { counts: d }
    }
}

/// Counter increments observed across a candidate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageDelta {
    counts: [u64; 7],
}

impl UsageDelta {
    /// API calls recorded for `model`.
    pub fn calls(&self, model: ExecutionModel) -> u64 {
        self.counts[model.index()]
    }

    /// Whether the candidate exercised the parallel API required by
    /// `model`. Hybrid tasks must touch the MPI layer; the threaded inner
    /// level alone does not count, mirroring the paper's check that an
    /// MPI+OpenMP prompt actually distributes work across ranks.
    pub fn used_required_api(&self, model: ExecutionModel) -> bool {
        match model {
            ExecutionModel::Serial => true,
            ExecutionModel::MpiOpenMp => {
                self.calls(ExecutionModel::Mpi) > 0 || self.calls(ExecutionModel::MpiOpenMp) > 0
            }
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
    /// Begin observing usage on the current thread.
    pub fn begin() -> UsageScope {
        let sink = Arc::new(Sink::default());
        let guard = install_sink(Some(Arc::clone(&sink)));
        UsageScope { sink, _guard: guard }
    }

    /// Stop observing and return the per-model API call deltas.
    pub fn finish(self) -> UsageDelta {
        let mut counts = [0u64; 7];
        for (slot, c) in counts.iter_mut().zip(&self.sink.counts) {
            *slot = c.load(Ordering::Relaxed);
        }
        UsageDelta { counts }
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
        record(ExecutionModel::Mpi);
        let d = scope.finish();
        assert!(d.used_required_api(ExecutionModel::MpiOpenMp));
    }
}
