//! # pcg-mpisim
//!
//! MPI-analog message-passing substrate for PCGBench-rs: a **virtual-time
//! simulator** that runs SPMD rank programs as real threads with private
//! memory and real data movement, while elapsed time is tracked on
//! per-rank virtual clocks combining *measured* compute with a Hockney
//! (α–β) communication cost model.
//!
//! ## Why a simulator
//!
//! The paper evaluates MPI prompts on up to 512 ranks across multiple
//! cluster nodes. This reproduction runs on one machine, so rank counts
//! beyond the physical core count cannot yield real wall-clock scaling.
//! Instead:
//!
//! * **Correctness is real** — every rank executes the candidate's code
//!   with its own private data; messages physically move between rank
//!   threads; a wrong decomposition produces a wrong answer.
//! * **Time is simulated** — each rank accumulates a virtual clock:
//!   measured CPU-seconds for compute segments (a token semaphore caps
//!   concurrent compute at the physical core count, so wall-time
//!   measurements are not distorted by oversubscription) plus modeled
//!   message costs (`latency + bytes/bandwidth`, intra- vs inter-node).
//!   The simulated runtime of a program is the maximum final clock over
//!   ranks, which is exactly what `MPI_Wtime` around the hot region
//!   measures in the paper's drivers.
//!
//! Collectives are implemented *on top of* point-to-point sends with the
//! classical algorithms (binomial broadcast/reduce, recursive-doubling
//! scan, dissemination barrier, ring allgather), so their log-P cost
//! behavior emerges from the p2p model rather than being asserted.
//!
//! ```
//! use pcg_mpisim::prelude::*;
//!
//! let world = World::new(8);
//! let outcome = world
//!     .run(|comm| {
//!         let local = vec![comm.rank() as f64; 4];
//!         comm.allreduce(&local, ReduceOp::Sum)
//!     })
//!     .unwrap();
//! assert_eq!(outcome.root()[0], 28.0); // 0+1+...+7
//! assert!(outcome.elapsed > 0.0);
//! ```

mod comm;
mod cost;
mod mailbox;
mod packet;
pub mod sched;
mod sync;
mod world;

pub use comm::{block_range, Comm};
pub use cost::CostModel;
pub use packet::{Elem, Packet, ReduceOp};
pub use sched::SchedStats;
pub use world::{SimOutcome, World};

/// Receive from any source (the `MPI_ANY_SOURCE` analog).
pub const ANY_SOURCE: Option<usize> = None;

/// Convenient glob import for candidate implementations.
pub mod prelude {
    pub use crate::{block_range, Comm, CostModel, ReduceOp, SimOutcome, World, ANY_SOURCE};
}
