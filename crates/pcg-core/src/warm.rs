//! Process-wide warm-path switch.
//!
//! The warm execution engine (MPI and hybrid ranks as fibers on the
//! calling thread, input memoization, executor reuse) is on from
//! process start: it is a pure throughput optimisation whose records
//! are required to match the cold path byte-for-byte. The switch exists
//! for A/B comparison — the warm-path performance gates and the
//! warm-path determinism tests flip it off to reach the thread-per-rank
//! reference.
//!
//! The flag is read at every world launch and input lookup, and after
//! every supervised execution, which keeps its executor for the calling
//! thread's next execution only while the flag is on. So toggling
//! mid-process takes effect on the next candidate execution (an
//! executor kept before the switch to cold serves that one). Tests that
//! toggle it must serialise with each other (the integration suites
//! keep all toggling inside a single `#[test]`).

use std::sync::atomic::{AtomicBool, Ordering};

static WARM: AtomicBool = AtomicBool::new(true);

/// Whether the warm path (fiber worlds, memoization, executor reuse)
/// is active. On until [`set_enabled`] turns it off.
#[inline]
pub fn enabled() -> bool {
    WARM.load(Ordering::Relaxed)
}

/// Flip the warm path on or off for subsequent executions.
pub fn set_enabled(on: bool) {
    WARM.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_round_trips() {
        let was = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(was);
    }
}
