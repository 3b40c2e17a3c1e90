//! Disjoint-index shared slice writes.
//!
//! Every OpenMP loop that fills an output array relies on the programmer
//! guaranteeing that distinct iterations write distinct elements. Rust's
//! borrow checker (correctly) rejects sharing `&mut [T]` across a team, so
//! this wrapper provides the same contract explicitly: writes are `unsafe`
//! and the caller promises index-disjointness.

use std::cell::UnsafeCell;

/// A shared view over a mutable slice permitting per-index writes from
/// multiple threads, provided no two threads touch the same index
/// concurrently.
pub struct UnsafeSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: access discipline is delegated to callers via the `unsafe`
// methods; the wrapper itself adds no aliasing beyond what callers assert.
unsafe impl<T: Send + Sync> Sync for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wrap a mutable slice for the duration of a parallel region.
    pub fn new(slice: &'a mut [T]) -> UnsafeSlice<'a, T> {
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`.
        let data = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        UnsafeSlice { data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Write `value` at `i`.
    ///
    /// # Safety
    /// No other thread may read or write index `i` concurrently.
    pub unsafe fn write(&self, i: usize, value: T) {
        *self.data[i].get() = value;
    }

    /// Read the element at `i`.
    ///
    /// # Safety
    /// No other thread may write index `i` concurrently.
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        *self.data[i].get()
    }

    /// Get a mutable reference to element `i`.
    ///
    /// # Safety
    /// No other thread may access index `i` while the reference lives.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        &mut *self.data[i].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_after_write() {
        let mut v = vec![1.0f64; 8];
        let s = UnsafeSlice::new(&mut v);
        unsafe {
            s.write(3, 42.0);
            assert_eq!(s.read(3), 42.0);
            *s.get_mut(4) += 1.0;
        }
        assert_eq!(v[3], 42.0);
        assert_eq!(v[4], 2.0);
    }

    #[test]
    fn len_matches() {
        let mut v = vec![0u8; 17];
        let s = UnsafeSlice::new(&mut v);
        assert_eq!(s.len(), 17);
        assert!(!s.is_empty());
        let mut e: Vec<u8> = vec![];
        assert!(UnsafeSlice::new(&mut e).is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let mut v = vec![0u8; 4];
        let s = UnsafeSlice::new(&mut v);
        unsafe { s.write(4, 1) };
    }
}
