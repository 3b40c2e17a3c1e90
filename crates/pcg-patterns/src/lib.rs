//! # pcg-patterns
//!
//! Kokkos-analog parallel-pattern substrate for PCGBench-rs.
//!
//! The paper's Kokkos prompts use `Kokkos::View` data structures and the
//! three core dispatch patterns (`parallel_for`, `parallel_reduce`,
//! `parallel_scan`) over range, multidimensional-range, and team policies.
//! This crate reproduces that abstraction level on top of the `pcg-shmem`
//! [`Pool`](pcg_shmem::Pool) (the analog of Kokkos' `Threads` execution
//! space used in the paper's experiments), which computes on the caller
//! and models the team's elapsed time:
//!
//! * [`View`] / [`View2D`] — shared, shallow-copy array containers with
//!   Kokkos access semantics,
//! * [`ScatterView`] — per-thread replicated scatter contributions
//!   (histograms and other irregular updates),
//! * [`ExecSpace`] — the execution space: [`ExecSpace::parallel_for`],
//!   [`ExecSpace::parallel_reduce`], [`ExecSpace::parallel_scan`],
//!   [`ExecSpace::parallel_for_2d`] (MDRange analog), and
//!   [`ExecSpace::parallel_for_teams`] (TeamPolicy analog).
//!
//! Every dispatch records usage via `pcg_core::usage`, letting the
//! harness detect candidates that never touch the pattern API.
//!
//! ```
//! use pcg_patterns::prelude::*;
//!
//! let space = ExecSpace::new(4);
//! let x = View::from_slice("x", &[1.0, 2.0, 3.0, 4.0]);
//! let sum = space.parallel_reduce(x.len(), 0.0, |i| x.get(i), |a, b| a + b);
//! assert_eq!(sum, 10.0);
//! ```

mod scatter;
mod space;
mod view;

pub use scatter::ScatterView;
pub use space::{ExecSpace, TeamCtx};
pub use view::{View, View2D};

/// Convenient glob import for candidate implementations.
pub mod prelude {
    pub use crate::{ExecSpace, ScatterView, TeamCtx, View, View2D};
}
