//! # pcg-gpusim
//!
//! CUDA/HIP-analog GPU substrate for PCGBench-rs: a deterministic SIMT
//! *emulator* paired with an analytical device timing model.
//!
//! ## Execution model
//!
//! Kernels launch over a grid of thread blocks ([`Launch`]). Correctness
//! is real: every simulated GPU thread executes the kernel body against
//! shared [`GpuBuffer`] global memory, whose accesses are relaxed atomics
//! (the GPU memory model — concurrent conflicting writes are
//! last-writer-wins per element, never undefined behavior). Block-level
//! `__syncthreads()` is expressed with the **phase machine**: a
//! [`BlockKernel`] splits its body into barrier-separated phases; the
//! emulator runs all threads of a block through phase *k* before any
//! enters phase *k+1*, with block-shared [`SharedMem`] persisting across
//! phases. Blocks are emulated one after another, in block order, on the
//! launching thread: a device owns no host threads, and a kernel's
//! floating-point atomics accumulate in the same order on every run.
//!
//! ## Timing model
//!
//! Wall-clock emulation speed says nothing about real GPU speed, so
//! kernel time is computed analytically from observed execution:
//! bytes moved through global memory (tracked automatically by the
//! [`BlockCtx`] accessors), explicitly charged flops, atomic traffic,
//! and launch overhead, combined roofline-style under an occupancy
//! (utilization) factor derived from the grid size and the
//! [`DeviceProfile`]. Two profiles mirror the paper's hardware: an
//! A100-like device behind the [`cuda`] frontend and an MI50-like device
//! behind the [`hip`] frontend; the APIs are deliberately near-identical,
//! as CUDA and HIP are.
//!
//! ```
//! use pcg_gpusim::cuda;
//!
//! let gpu = cuda::device();
//! let x = pcg_gpusim::GpuBuffer::from_slice(&[1.0f64, 2.0, 3.0, 4.0]);
//! let y = pcg_gpusim::GpuBuffer::<f64>::zeroed(4);
//! gpu.launch_each(pcg_gpusim::Launch::over(4, 2), |t, ctx| {
//!     let i = t.global_id();
//!     if i < x.len() {
//!         ctx.write(&y, i, 2.0 * ctx.read(&x, i));
//!     }
//! });
//! assert_eq!(y.to_vec(), vec![2.0, 4.0, 6.0, 8.0]);
//! assert!(gpu.elapsed() > 0.0);
//! ```

mod buffer;
mod device;
mod elem;
mod exec;

pub mod cuda;
pub mod hip;

pub use buffer::GpuBuffer;
pub use device::DeviceProfile;
pub use elem::GpuElem;
pub use exec::{BlockCtx, BlockKernel, Gpu, GpuThread, Launch, LaunchReport, SharedMem};
