//! # pcg-shmem
//!
//! OpenMP-analog shared-memory substrate for PCGBench-rs, built from
//! scratch.
//!
//! The paper's OpenMP prompts exercise fork-join loop parallelism:
//! `#pragma omp parallel for` with optional `schedule(...)` and
//! `reduction(...)` clauses, plus `atomic` for irregular updates. This
//! crate provides the same constructs:
//!
//! * [`Pool`] — the OpenMP thread team, modelled: it owns no threads,
//!   runs every loop chunk on the caller and charges each region's
//!   critical path plus fork/join to a virtual clock (see [`timing`]),
//! * [`Pool::parallel_for`] — work-sharing loops with
//!   [`Schedule::Static`], [`Schedule::Dynamic`], and [`Schedule::Guided`],
//! * [`Pool::parallel_for_reduce`] — the reduction clause,
//! * [`AtomicF64`] — `#pragma omp atomic` analog for floating point,
//! * [`UnsafeSlice`] — disjoint-index shared writes, the implicit idiom of
//!   every OpenMP loop that fills an output array.
//!
//! Loop bodies are `Fn + Sync`, so candidate code is written as if its
//! members ran concurrently.
//!
//! Every public entry point records usage via `pcg_core::usage`, which the
//! harness uses to detect candidates that silently fall back to sequential
//! code (the paper's "did it really use OpenMP" check).
//!
//! ```
//! use pcg_shmem::prelude::*;
//!
//! let pool = Pool::new(4);
//! let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
//! let sum = pool.parallel_for_reduce(0..xs.len(), 0.0, |acc, i| acc + xs[i], |a, b| a + b);
//! assert_eq!(sum, 499_500.0);
//! ```

mod atomicf64;
mod pool;
mod schedule;
pub mod timing;
mod unsafe_slice;

pub use atomicf64::AtomicF64;
pub use pool::Pool;
pub use schedule::Schedule;
pub use unsafe_slice::UnsafeSlice;

/// Convenient glob import for candidate implementations.
pub mod prelude {
    pub use crate::{AtomicF64, Pool, Schedule, UnsafeSlice};
}
