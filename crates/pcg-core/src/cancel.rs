//! Cooperative cancellation for runaway candidates.
//!
//! The harness kills a candidate at the paper's time limit, but a killed
//! candidate is not a stopped candidate: without cooperation the worker
//! thread (and any substrate threads it spawned) keeps burning CPU for
//! the rest of the run. This module gives the substrates a way to notice
//! the kill. The runner creates a [`CancelToken`] per candidate and
//! installs it thread-locally (mirroring [`crate::usage`]'s sink
//! plumbing); substrates capture it with [`current_token`], re-install
//! it on any thread they spawn (MPI rank threads and fiber helpers; also
//! the workers of an untimed shmem pool, which only tests and direct
//! library users build), and poll it at natural progress points —
//! shmem chunk boundaries and barrier spins, mpisim blocking waits,
//! gpusim kernel blocks.
//!
//! A cancelled substrate unwinds by panicking with the [`Cancelled`]
//! marker payload via [`panic_any`]. The unwind rides the substrates'
//! existing panic-capture machinery (region join propagation, rank abort
//! cascades, `catch_unwind` in the runner), so cancellation needs no new
//! control-flow paths — it is "a panic the harness asked for", and
//! [`is_cancel_payload`] lets panic reporters label it as such.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cancellation flag between the harness and one candidate's
/// threads. Cheap to clone; all clones observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Signal cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Unwind with the [`Cancelled`] marker if cancellation has been
    /// requested. Substrates call this at progress points.
    #[inline]
    pub fn check(&self) {
        if self.is_cancelled() {
            panic_cancelled();
        }
    }
}

/// Panic payload marking a cooperative-cancellation unwind, so panic
/// reporters can distinguish "the harness stopped this candidate" from
/// "the candidate crashed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

/// Unwind the current thread with the [`Cancelled`] marker.
pub fn panic_cancelled() -> ! {
    std::panic::panic_any(Cancelled);
}

/// Whether a caught panic payload is the [`Cancelled`] marker.
pub fn is_cancel_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<Cancelled>()
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// The token installed on this thread, if any — capture it before
/// spawning substrate worker threads and re-install it on each of them
/// so every thread working for the candidate observes the same kill.
pub fn current_token() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install `token` on this thread until the returned guard drops (the
/// previous token, if any, is restored).
pub fn install_token(token: Option<CancelToken>) -> TokenGuard {
    let prev = CURRENT.with(|c| c.replace(token));
    TokenGuard { prev }
}

/// Restores the previously installed token on drop.
pub struct TokenGuard {
    prev: Option<CancelToken>,
}

impl Drop for TokenGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Convenience: poll the thread's installed token, unwinding with
/// [`Cancelled`] if it has been signalled. A no-op when no token is
/// installed, so substrate hot paths stay free outside the harness.
#[inline]
pub fn check_current() {
    CURRENT.with(|c| {
        if let Some(tok) = c.borrow().as_ref() {
            if tok.is_cancelled() {
                panic_cancelled();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn check_unwinds_with_marker_after_cancel() {
        let t = CancelToken::new();
        t.check(); // not cancelled: no-op
        t.cancel();
        let err = std::panic::catch_unwind(|| t.check()).unwrap_err();
        assert!(is_cancel_payload(err.as_ref()));
    }

    #[test]
    fn install_restores_previous_on_drop() {
        let outer = CancelToken::new();
        let _g = install_token(Some(outer.clone()));
        {
            let inner = CancelToken::new();
            let _g2 = install_token(Some(inner.clone()));
            inner.cancel();
            assert!(current_token().unwrap().is_cancelled());
        }
        assert!(!current_token().unwrap().is_cancelled());
    }

    #[test]
    fn check_current_is_noop_without_token() {
        check_current(); // must not panic
    }

    #[test]
    fn check_current_fires_installed_token() {
        let t = CancelToken::new();
        t.cancel();
        let g = install_token(Some(t));
        let err = std::panic::catch_unwind(check_current).unwrap_err();
        drop(g);
        assert!(is_cancel_payload(err.as_ref()));
    }

    #[test]
    fn token_propagates_to_spawned_workers() {
        let t = CancelToken::new();
        let _g = install_token(Some(t.clone()));
        let captured = current_token();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _g = install_token(captured);
                assert!(!current_token().unwrap().is_cancelled());
            });
        });
    }
}
