//! Process-wide warm-path switch.
//!
//! The warm execution engine (substrate leasing, input memoization,
//! supervisor reuse) is on by default: it is a pure throughput
//! optimisation whose records are required to match the cold path
//! byte-for-byte. The switch exists for A/B comparison — the warm-path
//! performance gate and the warm-path determinism test drive both
//! sides — and as an escape hatch (`PCG_COLD=1`) if a platform ever
//! misbehaves under thread reuse.
//!
//! The flag is read at every lease checkout / supervisor dispatch, so
//! toggling mid-process takes effect on the next candidate execution.
//! Tests that toggle it must serialise with each other (the integration
//! suites keep all toggling inside a single `#[test]`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static WARM: OnceLock<AtomicBool> = OnceLock::new();

fn flag() -> &'static AtomicBool {
    WARM.get_or_init(|| AtomicBool::new(std::env::var_os("PCG_COLD").is_none()))
}

/// Whether the warm path (leasing, memoization, supervisor reuse) is
/// active. Defaults to `true`; set `PCG_COLD=1` in the environment to
/// start cold.
#[inline]
pub fn enabled() -> bool {
    flag().load(Ordering::Relaxed)
}

/// Flip the warm path on or off for subsequent executions.
pub fn set_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed);
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
