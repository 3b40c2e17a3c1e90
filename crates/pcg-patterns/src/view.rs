//! Kokkos-style `View` containers.
//!
//! A Kokkos `View` is a reference-counted, shallow-copy array handle that
//! kernels read and write concurrently under the program's race-freedom
//! discipline. [`View`] mirrors that: `Clone` aliases the same storage,
//! reads are safe, and concurrent writes go through an `unsafe` method
//! whose contract is the usual "distinct iterations touch distinct
//! indices" rule every Kokkos kernel already obeys.

use std::cell::UnsafeCell;
use std::sync::Arc;

/// A 1-D shared array handle (Kokkos `View<T*>` analog).
pub struct View<T> {
    label: Arc<str>,
    data: Arc<[UnsafeCell<T>]>,
}

// SAFETY: concurrent access discipline is the caller's responsibility at
// the `unsafe` write methods, exactly as in `pcg_shmem::UnsafeSlice`.
unsafe impl<T: Send + Sync> Sync for View<T> {}
unsafe impl<T: Send + Sync> Send for View<T> {}

impl<T> Clone for View<T> {
    /// Shallow copy: both handles alias the same storage (Kokkos
    /// reference semantics).
    fn clone(&self) -> View<T> {
        View { label: Arc::clone(&self.label), data: Arc::clone(&self.data) }
    }
}

impl<T: Copy + Default> View<T> {
    /// Allocate a zero/default-initialized view of length `len`.
    pub fn new(label: &str, len: usize) -> View<T> {
        View {
            label: label.into(),
            data: (0..len).map(|_| UnsafeCell::new(T::default())).collect(),
        }
    }
}

impl<T: Copy> View<T> {
    /// Allocate a view initialized from `src`.
    pub fn from_slice(label: &str, src: &[T]) -> View<T> {
        View {
            label: label.into(),
            data: src.iter().map(|&x| UnsafeCell::new(x)).collect(),
        }
    }

    /// The view's debugging label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of elements (Kokkos `extent(0)`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i`.
    ///
    /// Safe under the Kokkos discipline that no kernel writes `i`
    /// concurrently; violating that is a logic error checked by the
    /// harness's output validation rather than UB-freedom here.
    pub fn get(&self, i: usize) -> T {
        unsafe { *self.data[i].get() }
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// No other thread may read or write index `i` concurrently.
    pub unsafe fn set(&self, i: usize, value: T) {
        *self.data[i].get() = value;
    }

    /// Copy the contents out to a `Vec` (host mirror analog).
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Overwrite the contents from a slice of equal length.
    pub fn copy_from(&self, src: &[T]) {
        assert_eq!(src.len(), self.len(), "copy_from length mismatch");
        for (i, &x) in src.iter().enumerate() {
            unsafe { self.set(i, x) };
        }
    }
}

/// A 2-D row-major shared array handle (Kokkos `View<T**>` analog).
pub struct View2D<T> {
    inner: View<T>,
    rows: usize,
    cols: usize,
}

impl<T> Clone for View2D<T> {
    fn clone(&self) -> View2D<T> {
        View2D { inner: self.inner.clone(), rows: self.rows, cols: self.cols }
    }
}

impl<T: Copy + Default> View2D<T> {
    /// Allocate a zero/default-initialized `rows x cols` view.
    pub fn new(label: &str, rows: usize, cols: usize) -> View2D<T> {
        View2D { inner: View::new(label, rows * cols), rows, cols }
    }
}

impl<T: Copy> View2D<T> {
    /// Allocate from a row-major slice of length `rows * cols`.
    pub fn from_slice(label: &str, rows: usize, cols: usize, src: &[T]) -> View2D<T> {
        assert_eq!(src.len(), rows * cols, "2D view shape mismatch");
        View2D { inner: View::from_slice(label, src), rows, cols }
    }

    /// Extent of dimension 0.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Extent of dimension 1.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read element `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "2D index out of bounds");
        self.inner.get(i * self.cols + j)
    }

    /// Write element `(i, j)`.
    ///
    /// # Safety
    /// No other thread may read or write `(i, j)` concurrently.
    pub unsafe fn set(&self, i: usize, j: usize, value: T) {
        assert!(i < self.rows && j < self.cols, "2D index out of bounds");
        self.inner.set(i * self.cols + j, value)
    }

    /// Copy out row-major contents.
    pub fn to_vec(&self) -> Vec<T> {
        self.inner.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_aliases_storage() {
        let a: View<f64> = View::new("a", 4);
        let b = a.clone();
        unsafe { a.set(2, 9.0) };
        assert_eq!(b.get(2), 9.0);
        assert_eq!(b.label(), "a");
    }

    #[test]
    fn from_slice_and_to_vec_roundtrip() {
        let v = View::from_slice("v", &[1, 2, 3]);
        assert_eq!(v.to_vec(), vec![1, 2, 3]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn copy_from_overwrites() {
        let v: View<i64> = View::new("v", 3);
        v.copy_from(&[7, 8, 9]);
        assert_eq!(v.to_vec(), vec![7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_checks_len() {
        let v: View<i64> = View::new("v", 3);
        v.copy_from(&[1, 2]);
    }

    #[test]
    fn view2d_indexing() {
        let m = View2D::from_slice("m", 2, 3, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(m.get(0, 0), 1);
        assert_eq!(m.get(1, 2), 6);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        unsafe { m.set(1, 0, 40) };
        assert_eq!(m.to_vec(), vec![1, 2, 3, 40, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view2d_bounds_checked() {
        let m: View2D<f64> = View2D::new("m", 2, 2);
        let _ = m.get(2, 0);
    }
}
