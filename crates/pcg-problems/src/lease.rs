//! Substrate leasing: a process-wide cache of warm execution substrates.
//!
//! Cold candidate execution builds a fresh substrate per run — a timed
//! shmem pool spawns `threads - 1` OS threads, an MPI world spawns one
//! thread per rank (512 for the paper's headline configuration), a GPU
//! device builds its own host pool. Those spawns dominate the hot loop's
//! fixed costs. This module keeps finished substrates warm in a
//! process-wide cache keyed by [`LeaseKey`] (execution model +
//! threads/ranks; each key variant pins one cost model, so the cost
//! model is part of the key by construction) and hands them out as
//! [`Lease`]s.
//!
//! ## Checkout / return protocol
//!
//! * **Checkout** ([`checkout`]) pops a warm substrate for the key (or
//!   builds one on miss, timed into the setup counter). The leasing
//!   candidate's thread-local usage sink and [`pcg_core::CancelToken`]
//!   are re-installed on the substrate's workers (`retarget`) and
//!   per-run clocks are zeroed, so a reused substrate is
//!   indistinguishable from a fresh one to the candidate.
//! * **Return** happens on [`Lease`] drop. Per-run state is reset and
//!   the substrate parked for the next lease.
//! * **Poisoning**: if the lease drops during an unwind — candidate
//!   panic or cooperative cancellation — the substrate is *discarded*,
//!   never returned to the cache: its workers may hold arbitrary
//!   candidate state mid-region. An abandoned (hung) candidate never
//!   drops its lease at all, so its substrate is likewise never reused.
//!   This mirrors the harness's candidate-quarantine semantics.
//!
//! Parked substrates are bounded by a total parked-thread budget;
//! beyond it the least-recently-used substrates are evicted (their
//! threads joined). Substrates above a per-substrate thread cap are
//! never parked at all — at that size execution is simulation-bound
//! and reuse buys nothing (see [`MAX_PARKED_THREADS_PER_SUBSTRATE`]).
//! The cache itself lives for the process lifetime.

use parking_lot::Mutex;
use pcg_core::ExecutionModel;
use pcg_gpusim::Gpu;
use pcg_hybrid::HybridTeam;
use pcg_mpisim::RankTeam;
use pcg_patterns::ExecSpace;
use pcg_shmem::{Pool, ThreadCostModel};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Identity of a warm substrate: execution model plus resource shape.
/// Each variant pins one cost model (`ThreadCostModel::default()` for
/// thread pools, `CostModel::cluster()` supplied per-run for MPI), so
/// two candidates share a substrate only if they would have built
/// identical ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeaseKey {
    /// Timed shmem pool (OpenMP path), default `ThreadCostModel`.
    Shmem {
        /// Team size.
        threads: usize,
    },
    /// Timed Kokkos execution space, default `ThreadCostModel`.
    Patterns {
        /// Space concurrency.
        threads: usize,
    },
    /// Persistent MPI rank team. Cost model and token semaphore are
    /// per-run (`World::run_on` rebuilds them), so ranks alone identify
    /// the substrate.
    MpiTeam {
        /// World size.
        ranks: usize,
    },
    /// Hybrid rank team plus per-rank timed pools.
    HybridTeam {
        /// Rank count.
        ranks: usize,
        /// Threads per rank pool.
        threads: usize,
    },
    /// GPU device emulator (`Cuda` or `Hip`; the profile follows the
    /// model).
    Gpu {
        /// Which GPU frontend.
        model: ExecutionModel,
    },
}

impl LeaseKey {
    /// OS threads a parked substrate of this shape keeps alive, for the
    /// parked-thread budget.
    fn parked_threads(self) -> usize {
        match self {
            LeaseKey::Shmem { threads } | LeaseKey::Patterns { threads } => {
                threads.saturating_sub(1)
            }
            // Rank teams that the multiplexer would adopt park only the
            // fiber worker pool (one per core), not one thread per rank —
            // which is what makes MPI-256/512 and hybrid 4x64 teams fit
            // the budget at all.
            LeaseKey::MpiTeam { ranks } => pcg_mpisim::sched::os_threads_for(ranks),
            LeaseKey::HybridTeam { ranks, threads } => {
                pcg_mpisim::sched::os_threads_for(ranks) + ranks * threads.saturating_sub(1)
            }
            LeaseKey::Gpu { .. } => {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4) - 1
            }
        }
    }
}

/// Total OS threads the cache may keep parked before evicting
/// least-recently-used substrates. Parked threads sleep on condvars, so
/// the cost is address space, not CPU; the budget exists so resource
/// sweeps over many rank counts cannot accumulate threads without
/// bound.
pub const PARKED_THREAD_BUDGET: usize = 2048;

/// Substrates that keep more OS threads than this alive are never
/// parked: a returned lease drops them instead of caching them. Parking
/// an oversized team inflates the process thread count enough to slow
/// every *other* substrate spawn (stack mmaps contend on the process
/// memory map). With rank multiplexing, the paper-scale MPI teams
/// (256/512 ranks) account only their fiber worker pool and therefore
/// fit under this cap — only genuinely thread-per-unit shapes (large
/// shmem pools, wide hybrid pools) remain excluded.
pub const MAX_PARKED_THREADS_PER_SUBSTRATE: usize = 256;

/// Whether a substrate of this shape is worth leasing at all. Oversized
/// shapes are never parked, and building one through the persistent-team
/// machinery costs *more* than the cold inline spawn (an extra publish /
/// shutdown round-trip per run), so callers should fall back to the cold
/// path for them instead of checking out a lease.
pub fn parkable(key: LeaseKey) -> bool {
    key.parked_threads() <= MAX_PARKED_THREADS_PER_SUBSTRATE
}

enum Substrate {
    Pool(Pool),
    Space(ExecSpace),
    Mpi(RankTeam),
    Hybrid(HybridTeam),
    Gpu(Gpu),
}

struct Cached {
    id: u64,
    last_used: u64,
    sub: Substrate,
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<LeaseKey, Vec<Cached>>,
    parked_threads: usize,
    tick: u64,
}

static CACHE: OnceLock<Mutex<CacheState>> = OnceLock::new();

fn cache() -> &'static Mutex<CacheState> {
    CACHE.get_or_init(|| Mutex::new(CacheState::default()))
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static POISONED: AtomicU64 = AtomicU64::new(0);
static EVICTED: AtomicU64 = AtomicU64::new(0);
static SETUP_NS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time lease counters (process-global; the harness snapshots
/// around an evaluation and reports the delta).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LeaseStats {
    /// Checkouts served by a warm substrate.
    pub hits: u64,
    /// Checkouts that built a fresh substrate.
    pub misses: u64,
    /// Substrates discarded because their lease ended in an unwind.
    pub poisoned: u64,
    /// Substrates evicted by the parked-thread budget.
    pub evicted: u64,
    /// Seconds spent building substrates on misses.
    pub setup_s: f64,
}

/// Current counter values.
pub fn stats() -> LeaseStats {
    LeaseStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        poisoned: POISONED.load(Ordering::Relaxed),
        evicted: EVICTED.load(Ordering::Relaxed),
        setup_s: SETUP_NS.load(Ordering::Relaxed) as f64 / 1e9,
    }
}

/// An exclusive hold on one warm substrate. Returns the substrate to
/// the cache on drop — unless the drop happens during an unwind, in
/// which case the substrate is poisoned and discarded.
pub struct Lease {
    key: LeaseKey,
    entry: Option<Cached>,
}

/// Check out a substrate for `key`: pop a warm one (re-aimed at the
/// calling candidate's usage sink and cancel token, clocks zeroed) or
/// build a fresh one. Call on the candidate's worker thread so the
/// substrate adopts — or, on a miss, is constructed under — the right
/// thread-locals.
pub fn checkout(key: LeaseKey) -> Lease {
    let popped = {
        let mut st = cache().lock();
        let popped = st.entries.get_mut(&key).and_then(Vec::pop);
        if popped.is_some() {
            st.parked_threads = st.parked_threads.saturating_sub(key.parked_threads());
        }
        popped
    };
    let entry = match popped {
        Some(c) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            refresh(&c.sub);
            c
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let sub = build(key);
            SETUP_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            Cached { id: NEXT_ID.fetch_add(1, Ordering::Relaxed), last_used: 0, sub }
        }
    };
    Lease { key, entry: Some(entry) }
}

/// Drop every parked substrate (joining its threads). Mainly for tests
/// and benchmarks that want a cold cache mid-process.
pub fn flush() {
    let drained: Vec<Cached> = {
        let mut st = cache().lock();
        st.parked_threads = 0;
        st.entries.drain().flat_map(|(_, v)| v).collect()
    };
    drop(drained);
}

fn build(key: LeaseKey) -> Substrate {
    match key {
        LeaseKey::Shmem { threads } => {
            Substrate::Pool(Pool::new_timed(threads, ThreadCostModel::default()))
        }
        LeaseKey::Patterns { threads } => Substrate::Space(ExecSpace::new_timed(threads)),
        LeaseKey::MpiTeam { ranks } => Substrate::Mpi(RankTeam::new(ranks)),
        LeaseKey::HybridTeam { ranks, threads } => {
            Substrate::Hybrid(HybridTeam::new(ranks, threads))
        }
        LeaseKey::Gpu { model } => Substrate::Gpu(match model {
            ExecutionModel::Cuda => pcg_gpusim::cuda::device(),
            ExecutionModel::Hip => pcg_gpusim::hip::device(),
            other => panic!("lease key Gpu requires a GPU model, got {other:?}"),
        }),
    }
}

/// Re-aim a warm substrate at the calling candidate and zero its
/// per-run clocks. Rank teams need nothing here: their per-run state
/// (mailboxes, semaphore, sink/token propagation) is rebuilt by every
/// `run_on` call.
fn refresh(sub: &Substrate) {
    match sub {
        Substrate::Pool(p) => {
            p.retarget();
            p.reset_virtual_clock();
        }
        Substrate::Space(s) => {
            s.retarget();
            s.reset_virtual_clock();
        }
        Substrate::Gpu(g) => {
            g.retarget();
            g.reset_clock();
        }
        Substrate::Mpi(_) | Substrate::Hybrid(_) => {}
    }
}

impl Lease {
    /// Stable identity of the leased substrate instance (for tests
    /// asserting reuse / poisoning behavior).
    pub fn instance_id(&self) -> u64 {
        self.entry.as_ref().expect("lease holds a substrate").id
    }

    fn sub(&self) -> &Substrate {
        &self.entry.as_ref().expect("lease holds a substrate").sub
    }

    /// The leased shmem pool. Panics if the key was not `Shmem`.
    pub fn pool(&self) -> &Pool {
        match self.sub() {
            Substrate::Pool(p) => p,
            _ => panic!("lease {:?} does not hold a shmem pool", self.key),
        }
    }

    /// The leased Kokkos space. Panics if the key was not `Patterns`.
    pub fn space(&self) -> &ExecSpace {
        match self.sub() {
            Substrate::Space(s) => s,
            _ => panic!("lease {:?} does not hold an exec space", self.key),
        }
    }

    /// The leased MPI rank team. Panics if the key was not `MpiTeam`.
    pub fn mpi_team(&self) -> &RankTeam {
        match self.sub() {
            Substrate::Mpi(t) => t,
            _ => panic!("lease {:?} does not hold a rank team", self.key),
        }
    }

    /// The leased hybrid team. Panics if the key was not `HybridTeam`.
    pub fn hybrid_team(&self) -> &HybridTeam {
        match self.sub() {
            Substrate::Hybrid(t) => t,
            _ => panic!("lease {:?} does not hold a hybrid team", self.key),
        }
    }

    /// The leased GPU device. Panics if the key was not `Gpu`.
    pub fn gpu(&self) -> &Gpu {
        match self.sub() {
            Substrate::Gpu(g) => g,
            _ => panic!("lease {:?} does not hold a gpu", self.key),
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let Some(mut entry) = self.entry.take() else { return };
        if std::thread::panicking() {
            // The candidate unwound (crash or cooperative cancellation)
            // while holding the substrate: poison it. Dropping joins the
            // substrate's threads; mid-region workers finish their
            // current job first, so the join cannot hang on a
            // cooperative candidate.
            POISONED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Oversized substrates are execution-bound, not spawn-bound:
        // drop instead of parking (see MAX_PARKED_THREADS_PER_SUBSTRATE).
        if self.key.parked_threads() > MAX_PARKED_THREADS_PER_SUBSTRATE {
            drop(entry);
            return;
        }
        // Clean return: clear per-run clocks so the next lease starts
        // from zero even if the checkout-side refresh is skipped.
        refresh(&entry.sub);
        let evicted: Vec<Cached> = {
            let mut st = cache().lock();
            st.tick += 1;
            entry.last_used = st.tick;
            st.parked_threads += self.key.parked_threads();
            st.entries.entry(self.key).or_default().push(entry);
            let mut evicted = Vec::new();
            while st.parked_threads > PARKED_THREAD_BUDGET {
                // Evict the least-recently-used parked substrate.
                let Some((&victim_key, _)) = st
                    .entries
                    .iter()
                    .filter(|(_, v)| !v.is_empty())
                    .min_by_key(|(_, v)| v.iter().map(|c| c.last_used).min().unwrap_or(u64::MAX))
                else {
                    break;
                };
                let list = st.entries.get_mut(&victim_key).expect("victim key present");
                // Oldest entry within the key's list.
                let oldest = list
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| c.last_used)
                    .map(|(i, _)| i)
                    .expect("victim list non-empty");
                let victim = list.swap_remove(oldest);
                st.parked_threads =
                    st.parked_threads.saturating_sub(victim_key.parked_threads());
                EVICTED.fetch_add(1, Ordering::Relaxed);
                evicted.push(victim);
            }
            evicted
        };
        // Join evicted substrates' threads outside the cache lock.
        drop(evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The cache and counters are process-global and `flush` is
    // cross-key destructive, so these tests serialize on one lock and
    // use thread counts no other suite leases.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn clean_return_is_reused_and_stats_move() {
        let _s = serial();
        let key = LeaseKey::Shmem { threads: 3 };
        let before = stats();
        let first = checkout(key);
        let id = first.instance_id();
        assert_eq!(first.pool().num_threads(), 3);
        drop(first);
        let second = checkout(key);
        assert_eq!(second.instance_id(), id, "clean return must be reused");
        let after = stats();
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
        assert!(after.setup_s >= before.setup_s);
    }

    #[test]
    fn poisoned_substrate_is_never_rehanded() {
        let _s = serial();
        let key = LeaseKey::Patterns { threads: 5 };
        let lease = checkout(key);
        let poisoned_id = lease.instance_id();
        let before = stats();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = lease;
            panic!("candidate crash while holding the lease");
        }));
        assert!(err.is_err());
        assert_eq!(stats().poisoned, before.poisoned + 1);
        let next = checkout(key);
        assert_ne!(next.instance_id(), poisoned_id, "poisoned substrate must be discarded");
    }

    #[test]
    fn cancelled_candidate_poisons_substrate() {
        let _s = serial();
        use pcg_core::cancel::{self, CancelToken};
        let key = LeaseKey::Shmem { threads: 9 };
        let before = stats().poisoned;
        let leased_id = AtomicU64::new(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let token = CancelToken::new();
            let _guard = cancel::install_token(Some(token.clone()));
            let lease = checkout(key);
            leased_id.store(lease.instance_id(), Ordering::SeqCst);
            token.cancel();
            // Cooperative cancellation unwinds exactly like the
            // substrates' blocking points do; the lease drops mid-unwind.
            cancel::check_current();
        }));
        assert!(err.is_err());
        assert_eq!(stats().poisoned, before + 1);
        let next = checkout(key);
        assert_ne!(
            next.instance_id(),
            leased_id.load(Ordering::SeqCst),
            "a substrate whose lease ended in cancellation must be discarded"
        );
    }

    #[test]
    fn oversized_substrates_are_never_parked() {
        let _s = serial();
        // MPI teams are no longer a reliable oversized shape: the rank
        // multiplexer accounts them at the fiber-worker count. Shmem
        // pools are genuinely thread-per-unit.
        let key = LeaseKey::Shmem { threads: MAX_PARKED_THREADS_PER_SUBSTRATE + 2 };
        let first = checkout(key);
        let id = first.instance_id();
        drop(first);
        let second = checkout(key);
        assert_ne!(
            second.instance_id(),
            id,
            "substrates over the parked-size cap must not be cached"
        );
    }

    #[test]
    fn multiplexed_rank_teams_fit_the_parked_budget() {
        // Whenever the scheduler would multiplex a paper-scale world,
        // its lease accounting must make the team parkable. (On a host
        // with >= 256 cores, Auto runs 512 ranks thread-per-rank and
        // the team is rightly not parkable — hence the guard.)
        for ranks in [256usize, 512] {
            if pcg_mpisim::sched::should_multiplex(ranks) {
                assert!(
                    parkable(LeaseKey::MpiTeam { ranks }),
                    "multiplexed {ranks}-rank team must be parkable"
                );
            }
        }
    }

    #[test]
    fn wrong_accessor_panics() {
        let _s = serial();
        let lease = checkout(LeaseKey::MpiTeam { ranks: 2 });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lease.pool()));
        assert!(err.is_err());
        assert_eq!(lease.mpi_team().size(), 2);
    }

    #[test]
    fn flush_empties_the_cache() {
        let _s = serial();
        let key = LeaseKey::Shmem { threads: 7 };
        let id = {
            let l = checkout(key);
            l.instance_id()
        };
        flush();
        let l = checkout(key);
        assert_ne!(l.instance_id(), id, "flush must discard parked substrates");
    }
}
