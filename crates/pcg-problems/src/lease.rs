//! Substrate cache reset hook. Every substrate runs on the thread that
//! calls it and keeps no threads between runs, so there is no substrate
//! cache; [`flush`] stays for callers that reset caches between passes.

/// No-op: there is no substrate cache to drop.
pub fn flush() {}
