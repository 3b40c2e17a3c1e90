//! The fork-join thread team.
//!
//! A [`Pool`] owns `nthreads - 1` persistent worker threads; the caller's
//! thread participates as team member 0, exactly like an OpenMP master
//! thread entering a `parallel` region. Launching a region publishes a
//! lifetime-erased closure under a mutex/condvar, runs it on every team
//! member, and joins on a countdown — the caller does not return until all
//! workers have finished with the borrowed closure, which is what makes
//! the lifetime erasure sound.
//!
//! A timed pool ([`Pool::new_timed`]) owns no workers: its regions run
//! every member, or every loop chunk, on the caller (see [`crate::timing`]).

use crate::barrier::Barrier;
use crate::schedule::{LoopState, Schedule, StaticCursor};
use crate::timing::{self, ThreadCostModel, TimedState};
use parking_lot::{Condvar, Mutex};
use pcg_core::cancel::{self, CancelToken};
use pcg_core::{usage, ExecutionModel};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type RegionFn<'a> = dyn Fn(&ThreadCtx<'_>) + Sync + 'a;
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A lifetime-erased pointer to the caller's region closure plus the
/// region's join state. Only ever dereferenced between region start and
/// the countdown the caller blocks on.
#[derive(Clone, Copy)]
struct Job {
    f: *const RegionFn<'static>,
    region: *const RegionState,
}
// SAFETY: the pointers target data the launching thread keeps alive until
// every worker has decremented the region countdown; workers never touch
// them afterwards.
unsafe impl Send for Job {}

struct RegionState {
    barrier: Barrier,
    remaining: AtomicUsize,
    /// The launching candidate's cancel token, captured at region entry
    /// so barrier spins and work-sharing chunk loops can observe a kill.
    cancel: Option<CancelToken>,
    /// The members run one after another on the caller (a timed team of
    /// more than one), so a barrier could never complete.
    sequential: bool,
}

struct Slot {
    generation: u64,
    job: Option<Job>,
}

/// The candidate the team currently works for: its usage sink and cancel
/// token, published by [`Pool::retarget`] when a warm pool is leased to a
/// new candidate. Workers re-apply it to their thread-locals whenever the
/// epoch moves.
struct Target {
    epoch: u64,
    sink: Option<Arc<usage::Sink>>,
    token: Option<CancelToken>,
}

struct Shared {
    slot: Mutex<Slot>,
    work_ready: Condvar,
    finish_lock: Mutex<()>,
    finished: Condvar,
    critical: Mutex<()>,
    panic_payload: Mutex<Option<PanicPayload>>,
    shutdown: AtomicBool,
    target: Mutex<Target>,
}

/// A persistent team of threads supporting fork-join parallel regions and
/// OpenMP-style work-sharing loops.
pub struct Pool {
    shared: Arc<Shared>,
    nthreads: usize,
    workers: Vec<JoinHandle<()>>,
    timed: Option<TimedState>,
}

/// Per-team-member context available inside a [`Pool::parallel`] region.
pub struct ThreadCtx<'a> {
    tid: usize,
    nthreads: usize,
    region: &'a RegionState,
    shared: &'a Shared,
}

impl ThreadCtx<'_> {
    /// This member's id in `0..num_threads()`.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Team size of the enclosing region.
    pub fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Team-wide barrier (`#pragma omp barrier`). Unwinds with the
    /// cancellation marker instead of spinning forever if the harness
    /// kills the enclosing candidate. Panics in a raw region on a timed
    /// pool of more than one member, whose members run one after another.
    pub fn barrier(&self) {
        assert!(
            !self.region.sequential,
            "barrier() in a raw region on a timed pool: its members run one after \
             another on the caller, so the barrier could never complete"
        );
        self.region.barrier.wait_cancellable(self.region.cancel.as_ref());
    }

    /// Unwind with the cancellation marker if the enclosing candidate has
    /// been killed; no-op otherwise. Work-sharing loops call this at
    /// chunk boundaries.
    fn check_cancel(&self) {
        if let Some(t) = &self.region.cancel {
            t.check();
        }
    }

    /// Run `f` under the team's critical-section lock
    /// (`#pragma omp critical`).
    pub fn critical<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.shared.critical.lock();
        f()
    }

    /// The contiguous static sub-range of `range` owned by this member
    /// (the `schedule(static)` block), handy for manual loop splitting.
    pub fn static_block(&self, range: Range<usize>) -> Range<usize> {
        let n = range.end.saturating_sub(range.start);
        let per = n.div_ceil(self.nthreads.max(1));
        let lo = range.start + (per * self.tid).min(n);
        let hi = range.start + (per * (self.tid + 1)).min(n);
        lo..hi
    }
}

impl Pool {
    /// Create a team of `nthreads` members (the calling thread plus
    /// `nthreads - 1` workers). Panics if `nthreads == 0`.
    pub fn new(nthreads: usize) -> Pool {
        Pool::build(nthreads, None)
    }

    fn build(nthreads: usize, timed: Option<TimedState>) -> Pool {
        assert!(nthreads > 0, "pool requires at least one thread");
        // Workers inherit the creating candidate's usage sink so API
        // calls they make attribute to that candidate, and its cancel
        // token so candidate code they run can poll `check_current`.
        // Both live in the retarget slot so a warm pool can be handed to
        // a later candidate (see `Pool::retarget`).
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot { generation: 0, job: None }),
            work_ready: Condvar::new(),
            finish_lock: Mutex::new(()),
            finished: Condvar::new(),
            critical: Mutex::new(()),
            panic_payload: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            target: Mutex::new(Target {
                epoch: 1,
                sink: usage::current_sink(),
                token: cancel::current_token(),
            }),
        });
        // A timed team runs every member on the caller: it spawns no one.
        let spawned = if timed.is_some() { 1 } else { nthreads };
        let workers = (1..spawned)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pcg-shmem-{tid}"))
                    .spawn(move || worker_loop(shared, tid, nthreads))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool { shared, nthreads, workers, timed }
    }

    /// Re-aim the team at the calling candidate: capture this thread's
    /// usage sink and cancel token and have every worker install them
    /// before its next region. Called by the substrate lease layer when a
    /// warm pool is checked out, so a reused team attributes API calls to
    /// — and observes the kill switch of — its *current* candidate, not
    /// the one that created it. Must only be called while no region is in
    /// flight (a leased pool is exclusively owned). A timed pool has no
    /// workers: it always runs on its caller's sink and token.
    pub fn retarget(&self) {
        let mut t = self.shared.target.lock();
        t.epoch += 1;
        t.sink = usage::current_sink();
        t.token = cancel::current_token();
    }

    /// Create a team that runs in **timed mode** and owns no OS threads:
    /// every loop chunk runs on the calling thread, one at a time, and is
    /// wall-timed into its member's virtual clock. Static chunks go to
    /// their fixed member; dynamic and guided chunks go to the member with
    /// the smallest virtual clock. Each region adds `max-member-work +
    /// fork/join overhead` to the pool's virtual clock (see
    /// [`crate::timing`]). Use this for performance measurements on
    /// machines with fewer cores than the simulated team; work-sharing
    /// results are identical to [`Pool::new`]. A raw [`Pool::parallel`]
    /// region runs its members in id order and cannot use a barrier.
    pub fn new_timed(nthreads: usize, model: ThreadCostModel) -> Pool {
        Pool::build(nthreads, Some(TimedState::new(model)))
    }

    /// Whether this pool accounts virtual time.
    pub fn is_timed(&self) -> bool {
        self.timed.is_some()
    }

    /// Accumulated virtual time of all timed regions (0 for untimed
    /// pools).
    pub fn virtual_elapsed(&self) -> f64 {
        self.timed.as_ref().map(|t| t.clock.load()).unwrap_or(0.0)
    }

    /// Reset the virtual clock.
    pub fn reset_virtual_clock(&self) {
        if let Some(t) = &self.timed {
            t.clock.store(0.0);
        }
    }

    /// Shared work-sharing driver: distributes `range` per `schedule`
    /// and hands `(tid, chunk)` pairs to `chunk_fn`. A timed pool runs
    /// the chunks on the caller and times each one.
    fn worksharing<F>(&self, range: Range<usize>, schedule: Schedule, chunk_fn: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let state = LoopState::new(range.start, range.end, schedule, self.nthreads);
        match &self.timed {
            None => self.parallel(|ctx| {
                let mut cursor = StaticCursor::default();
                while let Some((lo, hi)) = state.next_chunk(ctx.tid(), &mut cursor) {
                    ctx.check_cancel();
                    chunk_fn(ctx.tid(), lo..hi);
                }
            }),
            Some(st) => {
                self.enter_region();
                let clocks = timing::run_chunks(&state, |tid, chunk| {
                    st.time_chunk(|| chunk_fn(tid, chunk))
                });
                st.charge_region(&clocks);
            }
        }
    }

    /// Region entry, exactly once per region: record the OpenMP usage,
    /// refuse to fork for a killed candidate, and charge fork/join in
    /// timed mode.
    fn enter_region(&self) {
        usage::record(ExecutionModel::OpenMp);
        cancel::check_current();
        if let Some(st) = &self.timed {
            st.clock.fetch_add(st.model.fork_join(self.nthreads));
        }
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Execute a parallel region: `f` runs once on every team member.
    /// Panics in any member are joined and re-thrown on the caller. A
    /// pool without workers (timed, or of one member) runs the members
    /// in id order on the caller.
    pub fn parallel<'a, F>(&self, f: F)
    where
        F: Fn(&ThreadCtx<'_>) + Sync + 'a,
    {
        // A killed candidate must not fork fresh regions; unwinding here,
        // before the job is published, needs no worker coordination.
        self.enter_region();
        let region = RegionState {
            barrier: Barrier::new(self.nthreads),
            remaining: AtomicUsize::new(self.workers.len()),
            cancel: cancel::current_token(),
            sequential: self.workers.len() + 1 < self.nthreads,
        };
        let (nthreads, shared) = (self.nthreads, &*self.shared);
        let ctx = |tid| ThreadCtx { tid, nthreads, region: &region, shared };
        if self.workers.is_empty() {
            (0..nthreads).for_each(|tid| f(&ctx(tid)));
            return;
        }
        let f_ref: &RegionFn<'a> = &f;
        // SAFETY: we erase the lifetime; `parallel` does not return until
        // `region.remaining` hits zero, i.e. every worker is done with
        // both pointers. See `Job` safety comment.
        let job = Job {
            f: unsafe {
                std::mem::transmute::<*const RegionFn<'a>, *const RegionFn<'static>>(
                    f_ref as *const RegionFn<'a>,
                )
            },
            region: &region as *const RegionState,
        };

        {
            let mut slot = self.shared.slot.lock();
            slot.generation += 1;
            slot.job = Some(job);
        }
        self.shared.work_ready.notify_all();

        // The caller participates as tid 0.
        let my_result = catch_unwind(AssertUnwindSafe(|| f(&ctx(0))));

        // Join: wait for every worker to finish this region.
        {
            let mut guard = self.shared.finish_lock.lock();
            while region.remaining.load(Ordering::Acquire) != 0 {
                self.shared.finished.wait(&mut guard);
            }
        }

        // Propagate worker panics first, then our own.
        if let Some(payload) = self.shared.panic_payload.lock().take() {
            resume_unwind(payload);
        }
        if let Err(payload) = my_result {
            resume_unwind(payload);
        }
    }

    /// Work-sharing loop (`#pragma omp parallel for schedule(...)`):
    /// `body(i)` runs once for each `i` in `range`.
    pub fn parallel_for<F>(&self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(usize) + Sync,
    {
        usage::record(ExecutionModel::OpenMp);
        self.worksharing(range, schedule, |_tid, chunk| {
            for i in chunk {
                body(i);
            }
        });
    }

    /// Chunk-granular work-sharing loop: `body(lo..hi)` per chunk. Useful
    /// when the body can vectorize over a contiguous block.
    pub fn parallel_for_chunks<F>(&self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        usage::record(ExecutionModel::OpenMp);
        self.worksharing(range, schedule, |_tid, chunk| body(chunk));
    }

    /// Reduction loop (`reduction(op: acc)`): every thread folds its
    /// iterations into a private accumulator seeded with `identity`, and
    /// the partials are combined in thread-id order (deterministic for a
    /// fixed team size).
    pub fn parallel_for_reduce<T, FM, FR>(
        &self,
        range: Range<usize>,
        identity: T,
        fold: FM,
        combine: FR,
    ) -> T
    where
        T: Clone + Send + Sync,
        FM: Fn(T, usize) -> T + Sync,
        FR: Fn(T, T) -> T + Sync,
    {
        usage::record(ExecutionModel::OpenMp);
        let partials: Mutex<Vec<Option<T>>> = Mutex::new(vec![None; self.nthreads]);
        self.worksharing(range, Schedule::Static { chunk: 0 }, |tid, chunk| {
            let mut acc = partials.lock()[tid].take().unwrap_or_else(|| identity.clone());
            for i in chunk {
                acc = fold(acc, i);
            }
            partials.lock()[tid] = Some(acc);
        });
        let mut result = identity;
        for p in partials.into_inner().into_iter().flatten() {
            result = combine(result, p);
        }
        result
    }

    /// Split `data` into one contiguous mutable chunk per thread and run
    /// `body(tid, chunk_start, chunk)` — the safe idiom for loops that
    /// fill an output array with static scheduling.
    pub fn parallel_chunks_mut<T, F>(&self, data: &mut [T], body: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        usage::record(ExecutionModel::OpenMp);
        let per = data.len().div_ceil(self.nthreads).max(1);
        let chunks = data.chunks_mut(per).enumerate().map(|(tid, chunk)| (tid * per, chunk));
        match &self.timed {
            None => {
                let chunks = Mutex::new(chunks.map(Some).collect::<Vec<_>>());
                self.parallel(|ctx| {
                    ctx.check_cancel();
                    let taken = chunks.lock().get_mut(ctx.tid()).and_then(Option::take);
                    if let Some((start, chunk)) = taken {
                        body(ctx.tid(), start, chunk);
                    }
                })
            }
            Some(st) => {
                self.enter_region();
                let clocks: Vec<f64> = chunks
                    .enumerate()
                    .map(|(tid, (start, chunk))| st.time_chunk(|| body(tid, start, chunk)))
                    .collect();
                st.charge_region(&clocks);
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut slot = self.shared.slot.lock();
            slot.generation += 1;
            slot.job = None;
        }
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, tid: usize, nthreads: usize) {
    let mut last_generation = 0u64;
    let mut applied_epoch = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock();
            while slot.generation == last_generation {
                shared.work_ready.wait(&mut slot);
            }
            last_generation = slot.generation;
            slot.job
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Some(job) = job else { continue };
        // Make sure this thread's sink/token match the candidate the
        // team currently works for before running any of its code.
        {
            let t = shared.target.lock();
            if t.epoch != applied_epoch {
                applied_epoch = t.epoch;
                usage::set_sink(t.sink.clone());
                cancel::set_token(t.token.clone());
            }
        }
        // SAFETY: the launching thread blocks until we decrement
        // `remaining`, keeping both pointers alive for this scope.
        let (f, region) = unsafe { (&*job.f, &*job.region) };
        let ctx = ThreadCtx { tid, nthreads, region, shared: &shared };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
            let mut slot = shared.panic_payload.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        // Signal completion; after this we must not touch `f`/`region`.
        let was = region.remaining.fetch_sub(1, Ordering::AcqRel);
        if was == 1 {
            let _guard = shared.finish_lock.lock();
            shared.finished.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A threaded and a timed team of four: the contract tests run on both.
    fn teams() -> [Pool; 2] {
        [Pool::new(4), Pool::new_timed(4, crate::ThreadCostModel::default())]
    }

    #[test]
    fn region_runs_on_every_member() {
        for pool in teams() {
            let hits = AtomicU64::new(0);
            let mask = AtomicU64::new(0);
            pool.parallel(|ctx| {
                hits.fetch_add(1, Ordering::SeqCst);
                mask.fetch_or(1 << ctx.tid(), Ordering::SeqCst);
                assert_eq!(ctx.num_threads(), 4);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 4);
            assert_eq!(mask.load(Ordering::SeqCst), 0b1111);
        }
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = Pool::new(1);
        let mut touched = vec![false; 100];
        let cell = crate::UnsafeSlice::new(&mut touched);
        pool.parallel_for(0..100, Schedule::default(), |i| unsafe { cell.write(i, true) });
        assert!(touched.iter().all(|&b| b));
    }

    #[test]
    fn parallel_for_visits_each_index_once() {
        let pool = Pool::new(4);
        for sched in [
            Schedule::Static { chunk: 0 },
            Schedule::Static { chunk: 3 },
            Schedule::Dynamic { chunk: 5 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let counts: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
            pool.parallel_for(0..1000, sched, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1), "{sched:?}");
        }
    }

    #[test]
    fn reduce_matches_sequential() {
        let pool = Pool::new(8);
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let got = pool.parallel_for_reduce(0..xs.len(), 0.0, |a, i| a + xs[i], |a, b| a + b);
        let want: f64 = xs.iter().sum();
        assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
    }

    #[test]
    fn reduce_empty_range_is_identity() {
        let pool = Pool::new(4);
        let got = pool.parallel_for_reduce(10..10, 7i64, |a, _| a + 1, |a, b| a + b);
        // No chunks are dispatched for an empty range, so no thread
        // contributes a partial and the seed comes back unchanged.
        assert_eq!(got, 7);
    }

    #[test]
    fn barrier_inside_region_synchronizes_phases() {
        let pool = Pool::new(4);
        let phase1 = AtomicU64::new(0);
        pool.parallel(|ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            assert_eq!(phase1.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn critical_excludes() {
        let pool = Pool::new(8);
        // A plain `u64` mutated only inside the critical section: if the
        // lock failed to exclude, this would be UB the sanitizer of last
        // resort (miscounting) would surface.
        let total = std::cell::UnsafeCell::new(0u64);
        struct Wrap(std::cell::UnsafeCell<u64>);
        unsafe impl Sync for Wrap {}
        let w = Wrap(total);
        // Borrow the whole wrapper: edition-2021 closures would otherwise
        // capture the `UnsafeCell` field directly and bypass `Wrap: Sync`.
        let w = &w;
        pool.parallel(|ctx| {
            for _ in 0..100 {
                ctx.critical(|| unsafe {
                    *w.0.get() += 1;
                });
            }
        });
        assert_eq!(unsafe { *w.0.get() }, 800);
    }

    #[test]
    fn static_block_partitions() {
        let pool = Pool::new(3);
        let seen = Mutex::new(vec![0u8; 10]);
        pool.parallel(|ctx| {
            let block = ctx.static_block(0..10);
            let mut guard = seen.lock();
            for i in block {
                guard[i] += 1;
            }
        });
        assert!(seen.into_inner().iter().all(|&c| c == 1));
    }

    #[test]
    fn chunks_mut_covers_slice() {
        let pool = Pool::new(4);
        let mut data = vec![0usize; 103];
        pool.parallel_chunks_mut(&mut data, |_tid, start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        assert_eq!(data, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        for pool in teams() {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.parallel(|ctx| {
                    if ctx.tid() == 2 {
                        panic!("boom from worker");
                    }
                });
            }));
            assert!(result.is_err());
            // Pool remains usable after a panic.
            let hits = AtomicU64::new(0);
            pool.parallel(|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 4);
            let sum = pool.parallel_for_reduce(0..100, 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, 4950);
        }
    }

    #[test]
    fn sequential_regions_reuse_team() {
        let pool = Pool::new(4);
        for round in 0..50 {
            let sum = pool.parallel_for_reduce(0..100, 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, 4950, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    fn timed_pool_is_correct_and_charges_time() {
        let pool = Pool::new_timed(4, crate::ThreadCostModel::default());
        assert!(pool.is_timed());
        let xs: Vec<f64> = (0..40_000).map(|i| i as f64).collect();
        let sum = pool.parallel_for_reduce(0..xs.len(), 0.0, |a, i| a + xs[i], |a, b| a + b);
        assert_eq!(sum, (40_000.0f64 * 39_999.0) / 2.0);
        assert!(pool.virtual_elapsed() > 0.0);
        pool.reset_virtual_clock();
        assert_eq!(pool.virtual_elapsed(), 0.0);
    }

    #[test]
    fn timed_mode_models_imbalance() {
        // All the work lands on one thread (range 0..1): the modeled
        // region time must be close to the full serial work, i.e. more
        // threads cannot shrink a single chunk.
        let work = |pool: &Pool| {
            pool.reset_virtual_clock();
            pool.parallel_for(0..1, Schedule::Static { chunk: 0 }, |_| {
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_add(std::hint::black_box(i * i));
                }
                std::hint::black_box(acc);
            });
            pool.virtual_elapsed()
        };
        let p1 = Pool::new_timed(1, crate::ThreadCostModel::default());
        let p8 = Pool::new_timed(8, crate::ThreadCostModel::default());
        let t1 = work(&p1);
        let t8 = work(&p8);
        // The single chunk dominates both; allow wide noise margins but
        // reject any model that divides the chunk across threads.
        assert!(t8 > t1 * 0.2, "t1={t1} t8={t8}");
    }

    #[test]
    fn timed_mode_balanced_work_scales() {
        // Balanced loops split across logical threads: modeled time with
        // 8 threads should be well under the 1-thread time.
        let work = |pool: &Pool| {
            pool.reset_virtual_clock();
            let n = 400_000;
            pool.parallel_for(0..n, Schedule::Static { chunk: 0 }, |i| {
                std::hint::black_box(i * i);
            });
            pool.virtual_elapsed()
        };
        let p1 = Pool::new_timed(1, crate::ThreadCostModel::default());
        let p8 = Pool::new_timed(8, crate::ThreadCostModel::default());
        // Warm up and take the best of 3 to reduce timing noise.
        let t1 = (0..3).map(|_| work(&p1)).fold(f64::MAX, f64::min);
        let t8 = (0..3).map(|_| work(&p8)).fold(f64::MAX, f64::min);
        assert!(t8 < t1 * 0.7, "expected modeled speedup, t1={t1} t8={t8}");
    }

    #[test]
    fn cancelled_worksharing_loop_unwinds_between_chunks() {
        // A candidate stuck in an effectively endless dynamic loop: once
        // the token fires, every team member must unwind at its next
        // chunk boundary and the join must deliver the Cancelled marker.
        for pool in teams() {
            let token = CancelToken::new();
            let _g = cancel::install_token(Some(token.clone()));
            let started = AtomicBool::new(false);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.parallel_for(0..1_000_000_000, Schedule::Dynamic { chunk: 1 }, |_| {
                    if !started.swap(true, Ordering::Relaxed) {
                        token.cancel();
                    }
                });
            }));
            let payload = result.unwrap_err();
            assert!(cancel::is_cancel_payload(payload.as_ref()));
        }
    }

    #[test]
    #[should_panic(expected = "barrier() in a raw region on a timed pool")]
    fn barrier_in_raw_region_on_timed_pool_panics() {
        let pool = Pool::new_timed(2, crate::ThreadCostModel::default());
        pool.parallel(|ctx| ctx.barrier());
    }

    #[test]
    fn one_member_timed_pool_allows_barrier() {
        let pool = Pool::new_timed(1, crate::ThreadCostModel::default());
        pool.parallel(|ctx| ctx.barrier());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn timed_pool_spawns_no_threads() {
        let tasks = || std::fs::read_dir("/proc/self/task").unwrap().count();
        // Other tests in this binary spawn and join pools concurrently,
        // so retry until a quiet window shows an unchanged count.
        let unchanged = (0..50).any(|_| {
            let before = tasks();
            let pool = Pool::new_timed(64, crate::ThreadCostModel::default());
            pool.parallel_for(0..1000, Schedule::Dynamic { chunk: 7 }, |i| {
                std::hint::black_box(i);
            });
            let during = tasks();
            drop(pool);
            before == during && tasks() == before
        });
        assert!(unchanged, "building and running a timed 64-member pool changed the thread count");
    }

    #[test]
    fn cancelled_barrier_wait_unwinds_whole_region() {
        // Thread 0 never reaches the barrier (it cancels and unwinds
        // instead); the remaining members are spinning in a barrier that
        // can never complete and must escape via the token.
        let token = CancelToken::new();
        let _g = cancel::install_token(Some(token.clone()));
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel(|ctx| {
                if ctx.tid() == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    token.cancel();
                    cancel::check_current();
                } else {
                    ctx.barrier();
                }
            });
        }));
        assert!(cancel::is_cancel_payload(result.unwrap_err().as_ref()));
    }

    #[test]
    fn retarget_reaims_workers_at_new_candidate() {
        use pcg_core::usage::UsageScope;
        // Built under candidate A's sink...
        let sink_a = Arc::new(usage::Sink::default());
        let ga = usage::install_sink(Some(Arc::clone(&sink_a)));
        let pool = Pool::new(4);
        drop(ga);
        // ...then leased to candidate B, whose sink and token the team
        // must adopt.
        let scope_b = UsageScope::begin();
        let token_b = CancelToken::new();
        let gb = cancel::install_token(Some(token_b.clone()));
        pool.retarget();
        pool.parallel(|_| usage::record(ExecutionModel::OpenMp));
        // Fire B's token with the caller's own thread-local cleared: the
        // unwind can only come from a worker that adopted the token.
        drop(gb);
        token_b.cancel();
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel(|ctx| {
                if ctx.tid() != 0 {
                    cancel::check_current();
                }
            });
        }))
        .unwrap_err();
        assert!(cancel::is_cancel_payload(err.as_ref()));
        // 1 region entry + 4 explicit records from the first region, plus
        // the second region's entry record on the caller.
        assert_eq!(scope_b.finish().calls(ExecutionModel::OpenMp), 6);
    }

    #[test]
    fn untimed_pool_reports_zero_virtual_time() {
        let pool = Pool::new(2);
        pool.parallel_for(0..100, Schedule::default(), |_| {});
        assert!(!pool.is_timed());
        assert_eq!(pool.virtual_elapsed(), 0.0);
    }
}
