//! A counting semaphore (compute-token pool).
//!
//! On the thread-per-rank path the simulator caps the number of rank
//! threads *computing* at once to the physical core count, so that
//! wall-clock measurements of compute segments are not distorted by
//! oversubscription when simulating hundreds of ranks. Ranks blocked in
//! `recv`/collectives hold no token. Fiber worlds run one rank at a time
//! and only use the semaphore's abort flag.

use parking_lot::{Condvar, Mutex};
use pcg_core::cancel::{self, CancelToken};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How often a cancellable wait re-checks its token.
pub(crate) const CANCEL_TICK: Duration = Duration::from_millis(2);

/// A simple fair-enough counting semaphore with abort support.
pub struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
    aborted: AtomicBool,
    /// The launching candidate's cancel token, captured at construction
    /// (worlds build their semaphore on the candidate thread). When set,
    /// waits tick so a killed candidate's ranks cannot block forever.
    cancel: Option<CancelToken>,
}

impl Semaphore {
    /// Semaphore with `n` permits (`n >= 1`).
    pub fn new(n: usize) -> Semaphore {
        assert!(n > 0, "semaphore needs at least one permit");
        Semaphore {
            permits: Mutex::new(n),
            cv: Condvar::new(),
            aborted: AtomicBool::new(false),
            cancel: cancel::current_token(),
        }
    }

    /// Block until a permit is free, then take it. Returns `false`
    /// if the semaphore was aborted while waiting; unwinds with the
    /// cancellation marker if the owning candidate is killed.
    pub fn acquire(&self) -> bool {
        let mut permits = self.permits.lock();
        loop {
            if let Some(t) = &self.cancel {
                t.check();
            }
            if self.aborted.load(Ordering::Acquire) {
                return false;
            }
            if *permits > 0 {
                *permits -= 1;
                return true;
            }
            match &self.cancel {
                Some(_) => {
                    let _ = self.cv.wait_for(&mut permits, CANCEL_TICK);
                }
                None => self.cv.wait(&mut permits),
            }
        }
    }

    /// Return a permit.
    pub fn release(&self) {
        let mut permits = self.permits.lock();
        *permits += 1;
        drop(permits);
        self.cv.notify_one();
    }

    /// Wake all waiters and make every future acquire fail.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        let _guard = self.permits.lock();
        self.cv.notify_all();
    }

    /// Whether [`Semaphore::abort`] has been called.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn caps_concurrency() {
        let sem = Semaphore::new(2);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert!(sem.acquire());
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::hint::black_box(());
                        live.fetch_sub(1, Ordering::SeqCst);
                        sem.release();
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn abort_unblocks_waiters() {
        let sem = Semaphore::new(1);
        assert!(sem.acquire());
        std::thread::scope(|s| {
            let h = s.spawn(|| sem.acquire());
            std::thread::sleep(std::time::Duration::from_millis(20));
            sem.abort();
            assert!(!h.join().unwrap());
        });
        assert!(sem.is_aborted());
        assert!(!sem.acquire());
    }

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_rejected() {
        let _ = Semaphore::new(0);
    }
}
