//! Input memoization: `generate(seed, size)` results cached per
//! `(problem, seed, size)`.
//!
//! Every rep of every candidate at the same execution coordinate feeds
//! on the same deterministic input instance, yet the cold path rebuilds
//! it from scratch each run. Generators are seeded and pure, so the
//! instance can be built once and shared read-only behind an [`Arc`]
//! across reps, candidates, and concurrent scheduler cells. An LRU byte
//! cap bounds retained memory so paper-scale inputs do not accumulate;
//! inputs larger than the cap are returned uncached.
//!
//! The cache is type-erased (`Arc<dyn Any>`): each problem's `Input`
//! type is recovered by downcast, which is infallible because the key
//! includes the [`ProblemId`] and each problem has exactly one input
//! type. Bypassed entirely when the warm path is disabled.

use parking_lot::Mutex;
use pcg_core::{warm, ProblemId};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

type Key = (ProblemId, u64, usize);

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct State {
    map: HashMap<Key, Entry>,
    total_bytes: usize,
    tick: u64,
}

static STATE: OnceLock<Mutex<State>> = OnceLock::new();

fn state() -> &'static Mutex<State> {
    STATE.get_or_init(|| Mutex::new(State::default()))
}

/// Retained-bytes cap: large enough for a full quick-config grid's
/// working set, small next to paper-scale inputs at every sweep size.
pub const DEFAULT_BYTE_CAP: usize = 256 << 20;

impl State {
    /// Insert `value` under `key`, then evict least recently used
    /// entries until the total fits `cap`. A concurrent generator for
    /// the same key may have inserted first; the existing entry stays
    /// (both values are identical by determinism of `generate`).
    fn insert(&mut self, key: Key, value: Arc<dyn Any + Send + Sync>, bytes: usize, cap: usize) {
        self.tick += 1;
        let tick = self.tick;
        let std::collections::hash_map::Entry::Vacant(slot) = self.map.entry(key) else {
            return;
        };
        slot.insert(Entry { value, bytes, last_used: tick });
        self.total_bytes += bytes;
        while self.total_bytes > cap {
            let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            // Never evict what we just inserted — the newest entry
            // is by definition not the LRU unless it is alone.
            if victim == key && self.map.len() == 1 {
                break;
            }
            let e = self.map.remove(&victim).expect("victim present");
            self.total_bytes = self.total_bytes.saturating_sub(e.bytes);
            EVICTED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTED: AtomicU64 = AtomicU64::new(0);

/// Point-in-time input-cache counters (process-global; the harness
/// snapshots around an evaluation and reports the delta).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InputCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the generator.
    pub misses: u64,
    /// Entries evicted by the byte cap.
    pub evicted: u64,
}

/// Current counter values.
pub fn stats() -> InputCacheStats {
    InputCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evicted: EVICTED.load(Ordering::Relaxed),
    }
}

/// Fetch the input instance for `(problem, seed, size)`, running
/// `generate` on a miss (outside the cache lock). `bytes_of` sizes the
/// instance for the LRU cap.
pub fn get_or_generate<T, G, B>(
    problem: ProblemId,
    seed: u64,
    size: usize,
    bytes_of: B,
    generate: G,
) -> Arc<T>
where
    T: Send + Sync + 'static,
    G: FnOnce() -> T,
    B: FnOnce(&T) -> usize,
{
    if !warm::enabled() {
        return Arc::new(generate());
    }
    let key = (problem, seed, size);
    {
        let mut st = state().lock();
        st.tick += 1;
        let tick = st.tick;
        if let Some(e) = st.map.get_mut(&key) {
            e.last_used = tick;
            let value = Arc::clone(&e.value);
            drop(st);
            HITS.fetch_add(1, Ordering::Relaxed);
            return value.downcast::<T>().expect("input type fixed per problem id");
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let value = Arc::new(generate());
    let bytes = bytes_of(&value);
    if bytes <= DEFAULT_BYTE_CAP {
        state().lock().insert(key, Arc::clone(&value) as _, bytes, DEFAULT_BYTE_CAP);
    }
    value
}

/// Drop every cached input. Mainly for tests and benchmarks that want a
/// cold cache mid-process.
pub fn flush() {
    let dropped: Vec<Entry> = {
        let mut st = state().lock();
        st.total_bytes = 0;
        st.map.drain().map(|(_, e)| e).collect()
    };
    drop(dropped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::ProblemType;
    use std::sync::atomic::AtomicU32;

    fn pid(variant: usize) -> ProblemId {
        ProblemId::new(ProblemType::Sort, variant)
    }

    #[test]
    fn second_lookup_shares_the_same_instance() {
        let calls = AtomicU32::new(0);
        let gen = || {
            calls.fetch_add(1, Ordering::SeqCst);
            vec![1u8, 2, 3]
        };
        // Unlikely coordinates so concurrent suites cannot collide.
        let a = get_or_generate(pid(0), 0xdead_0001, 31, |v| v.len(), gen);
        let b = get_or_generate(pid(0), 0xdead_0001, 31, |v: &Vec<u8>| v.len(), || {
            calls.fetch_add(1, Ordering::SeqCst);
            vec![9u8]
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "generator must run once");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*b, vec![1, 2, 3]);
    }

    #[test]
    fn oversized_inputs_are_not_cached() {
        let cap = DEFAULT_BYTE_CAP;
        let v = get_or_generate(pid(1), 0xdead_0002, 33, |_| cap + 1, || vec![0u8; 8]);
        let w = get_or_generate(pid(1), 0xdead_0002, 33, |_| cap + 1, || vec![1u8; 8]);
        assert!(!Arc::ptr_eq(&v, &w), "oversized entries must bypass the cache");
    }

    #[test]
    fn byte_cap_evicts_least_recently_used() {
        let mut st = State::default();
        let (a, b) = ((pid(2), 3, 41), (pid(2), 4, 41));
        // The global counter only grows, so concurrent tests cannot
        // make this check pass or fail spuriously.
        let before = stats().evicted;
        st.insert(a, Arc::new(vec![0u8; 60]), 60, 100);
        st.insert(b, Arc::new(vec![0u8; 60]), 60, 100);
        assert!(!st.map.contains_key(&a), "exceeding the cap must evict the LRU entry");
        assert!(st.map.contains_key(&b), "the newest entry must survive");
        assert_eq!(st.total_bytes, 60);
        assert!(stats().evicted > before, "an eviction must be counted");
    }
}
