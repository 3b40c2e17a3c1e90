//! Floating-point atomics (`#pragma omp atomic` analog).
//!
//! Rust has no `AtomicF64`; this is the standard CAS-loop construction on
//! an `AtomicU64` bit pattern.

use std::sync::atomic::{AtomicU64, Ordering};

/// An `f64` updated atomically via compare-and-swap loops.
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// A new atomic initialized to `value`.
    pub fn new(value: f64) -> AtomicF64 {
        AtomicF64 { bits: AtomicU64::new(value.to_bits()) }
    }

    /// Current value (relaxed).
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Overwrite the value (relaxed).
    pub fn store(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Atomically apply `f` and return the previous value.
    pub fn fetch_update(&self, f: impl Fn(f64) -> f64) -> f64 {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(current)).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(prev) => return f64::from_bits(prev),
                Err(actual) => current = actual,
            }
        }
    }

    /// Atomic `+=`, returning the previous value.
    pub fn fetch_add(&self, delta: f64) -> f64 {
        self.fetch_update(|v| v + delta)
    }

    /// Atomic max-in-place, returning the previous value.
    pub fn fetch_max(&self, other: f64) -> f64 {
        self.fetch_update(|v| v.max(other))
    }

    /// Atomic min-in-place, returning the previous value.
    pub fn fetch_min(&self, other: f64) -> f64 {
        self.fetch_update(|v| v.min(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_roundtrip() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-0.0);
        assert_eq!(a.load(), 0.0);
        assert!(a.load().is_sign_negative());
    }

    #[test]
    fn fetch_update_returns_previous() {
        let a = AtomicF64::new(2.0);
        let prev = a.fetch_update(|v| v * 3.0);
        assert_eq!(prev, 2.0);
        assert_eq!(a.load(), 6.0);
    }
}
