//! Kernel launch and SIMT emulation.

use crate::buffer::GpuBuffer;
use crate::device::DeviceProfile;
use crate::elem::GpuElem;
use pcg_core::{usage, ExecutionModel};
use pcg_shmem::AtomicF64;
use std::cell::Cell;

/// A kernel launch configuration (`<<<grid, block, shared>>>` analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    grid: u32,
    block: u32,
    shared_f64: usize,
}

impl Launch {
    /// `grid` blocks of `block` threads.
    pub fn new(grid: u32, block: u32) -> Launch {
        assert!(grid >= 1, "grid must have at least one block");
        assert!(block >= 1, "block must have at least one thread");
        Launch { grid, block, shared_f64: 0 }
    }

    /// Enough `block`-sized blocks to cover `n` items (the paper's
    /// "at least as many threads as values in the array").
    pub fn over(n: usize, block: u32) -> Launch {
        let grid = (n as u64).div_ceil(block as u64).max(1);
        Launch::new(u32::try_from(grid).expect("grid too large"), block)
    }

    /// Request `n` f64 slots of block-shared memory.
    pub fn with_shared(mut self, n: usize) -> Launch {
        self.shared_f64 = n;
        self
    }

    /// Blocks in the grid.
    pub fn grid(&self) -> u32 {
        self.grid
    }

    /// Threads per block.
    pub fn block(&self) -> u32 {
        self.block
    }

    /// Total threads launched.
    pub fn total_threads(&self) -> u64 {
        self.grid as u64 * self.block as u64
    }
}

/// Per-launch observed traffic and the modeled kernel time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchReport {
    /// Modeled kernel time in seconds.
    pub time: f64,
    /// Bytes moved through global memory.
    pub bytes: u64,
    /// Explicitly charged floating-point operations.
    pub flops: u64,
    /// Global atomic operations.
    pub atomics: u64,
    /// Total threads launched.
    pub threads: u64,
}

/// Block-shared memory (`__shared__ double[]` analog). Blocks are
/// emulated by a single host thread, so plain `Cell`s suffice.
pub struct SharedMem {
    data: Vec<Cell<f64>>,
}

impl SharedMem {
    fn new(n: usize) -> SharedMem {
        SharedMem { data: (0..n).map(|_| Cell::new(0.0)).collect() }
    }

    /// Slots available.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no shared memory was requested.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read slot `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.data[i].get()
    }

    /// Write slot `i`.
    pub fn set(&self, i: usize, v: f64) {
        self.data[i].set(v);
    }
}

/// One simulated GPU thread's coordinates.
#[derive(Debug, Clone, Copy)]
pub struct GpuThread {
    /// `threadIdx.x`.
    pub thread_idx: u32,
    /// `blockIdx.x`.
    pub block_idx: u32,
    /// `blockDim.x`.
    pub block_dim: u32,
    /// `gridDim.x`.
    pub grid_dim: u32,
}

impl GpuThread {
    /// `blockIdx.x * blockDim.x + threadIdx.x`.
    pub fn global_id(&self) -> usize {
        (self.block_idx as usize) * (self.block_dim as usize) + self.thread_idx as usize
    }

    /// Total threads in the grid (the grid-stride-loop bound).
    pub fn grid_threads(&self) -> usize {
        self.grid_dim as usize * self.block_dim as usize
    }
}

/// Per-block execution context: dims, shared memory, traffic meters.
pub struct BlockCtx {
    block_idx: u32,
    block_dim: u32,
    grid_dim: u32,
    shared: SharedMem,
    bytes: Cell<u64>,
    flops: Cell<u64>,
    atomics: Cell<u64>,
}

impl BlockCtx {
    /// `blockIdx.x`.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// `blockDim.x`.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// `gridDim.x`.
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// Block-shared memory.
    pub fn shared(&self) -> &SharedMem {
        &self.shared
    }

    /// Run `f` for every thread of this block (within one phase).
    pub fn for_each_thread(&self, mut f: impl FnMut(GpuThread)) {
        for t in 0..self.block_dim {
            f(GpuThread {
                thread_idx: t,
                block_idx: self.block_idx,
                block_dim: self.block_dim,
                grid_dim: self.grid_dim,
            });
        }
    }

    /// Metered global-memory read.
    pub fn read<T: GpuElem>(&self, buf: &GpuBuffer<T>, i: usize) -> T {
        self.bytes.set(self.bytes.get() + T::BYTES as u64);
        buf.load(i)
    }

    /// Metered global-memory write.
    pub fn write<T: GpuElem>(&self, buf: &GpuBuffer<T>, i: usize, v: T) {
        self.bytes.set(self.bytes.get() + T::BYTES as u64);
        buf.store(i, v);
    }

    /// Metered `atomicAdd`.
    pub fn atomic_add<T: GpuElem>(&self, buf: &GpuBuffer<T>, i: usize, v: T) -> T {
        self.bytes.set(self.bytes.get() + T::BYTES as u64);
        self.atomics.set(self.atomics.get() + 1);
        buf.fetch_add(i, v)
    }

    /// Metered `atomicMax`.
    pub fn atomic_max<T: GpuElem>(&self, buf: &GpuBuffer<T>, i: usize, v: T) -> T {
        self.bytes.set(self.bytes.get() + T::BYTES as u64);
        self.atomics.set(self.atomics.get() + 1);
        buf.fetch_max(i, v)
    }

    /// Charge `n` floating-point operations to the roofline model
    /// (compute-bound kernels such as GEMM call this).
    pub fn charge_flops(&self, n: u64) {
        self.flops.set(self.flops.get() + n);
    }
}

/// A multi-phase block kernel. Phases are separated by implicit
/// `__syncthreads()`: the emulator completes phase `k` for all threads
/// of a block before starting phase `k+1`; data that must survive a
/// barrier lives in [`SharedMem`] or global memory, as on real GPUs.
pub trait BlockKernel: Sync {
    /// Number of barrier-separated phases.
    fn phases(&self, cfg: &Launch) -> usize;
    /// Execute one phase for an entire block (iterate threads with
    /// [`BlockCtx::for_each_thread`]).
    fn phase(&self, phase: usize, blk: &BlockCtx);
}

/// A simulated GPU device. It owns no host threads: a launch emulates
/// its blocks one after another, in block order, on the calling thread,
/// so a device costs nothing to build and a kernel's atomic updates land
/// in the same order on every run.
pub struct Gpu {
    profile: DeviceProfile,
    model: ExecutionModel,
    clock: AtomicF64,
}

impl Gpu {
    pub(crate) fn with_profile(profile: DeviceProfile, model: ExecutionModel) -> Gpu {
        Gpu { profile, model, clock: AtomicF64::new(0.0) }
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Accumulated modeled kernel time since construction/reset
    /// (the `cudaEventElapsedTime` analog around the hot region).
    pub fn elapsed(&self) -> f64 {
        self.clock.load()
    }

    /// Reset the device clock.
    pub fn reset_clock(&self) {
        self.clock.store(0.0);
    }

    /// Add modeled time to the device clock directly (used by fallback
    /// wrappers that model a degenerate launch without emulating it).
    pub fn charge_time(&self, dt: f64) {
        self.clock.fetch_add(dt.max(0.0));
    }

    /// Launch a single-phase kernel given as a per-thread closure.
    pub fn launch_each<F>(&self, cfg: Launch, f: F) -> LaunchReport
    where
        F: Fn(GpuThread, &BlockCtx) + Sync,
    {
        struct EachKernel<F>(F);
        impl<F: Fn(GpuThread, &BlockCtx) + Sync> BlockKernel for EachKernel<F> {
            fn phases(&self, _cfg: &Launch) -> usize {
                1
            }
            fn phase(&self, _phase: usize, blk: &BlockCtx) {
                blk.for_each_thread(|t| (self.0)(t, blk));
            }
        }
        self.launch(cfg, &EachKernel(f))
    }

    /// Launch a multi-phase block kernel.
    pub fn launch<K: BlockKernel>(&self, cfg: Launch, kernel: &K) -> LaunchReport {
        usage::record(self.model);
        assert!(
            cfg.block <= self.profile.max_block_threads,
            "block of {} exceeds device limit {}",
            cfg.block,
            self.profile.max_block_threads
        );
        let nphases = kernel.phases(&cfg).max(1);
        let mut report = LaunchReport {
            bytes: 0,
            flops: 0,
            atomics: 0,
            threads: cfg.total_threads(),
            time: 0.0,
        };
        for b in 0..cfg.grid {
            // A killed candidate unwinds here: at the launch of a kernel
            // stuck in a relaunch loop, or between the blocks of a long
            // one.
            pcg_core::cancel::check_current();
            let blk = BlockCtx {
                block_idx: b,
                block_dim: cfg.block,
                grid_dim: cfg.grid,
                shared: SharedMem::new(cfg.shared_f64),
                bytes: Cell::new(0),
                flops: Cell::new(0),
                atomics: Cell::new(0),
            };
            for phase in 0..nphases {
                kernel.phase(phase, &blk);
            }
            report.bytes += blk.bytes.get();
            report.flops += blk.flops.get();
            report.atomics += blk.atomics.get();
        }
        report.time =
            self.profile.kernel_time(report.threads, report.bytes, report.flops, report.atomics);
        self.clock.fetch_add(report.time);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::with_profile(DeviceProfile::a100_like(), ExecutionModel::Cuda)
    }

    #[test]
    fn launch_shapes() {
        assert_eq!(Launch::over(1000, 256).grid(), 4);
        assert_eq!(Launch::over(1024, 256).grid(), 4);
        assert_eq!(Launch::over(1, 256).grid(), 1);
        assert_eq!(Launch::new(2, 128).total_threads(), 256);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_block_rejected() {
        let _ = Launch::new(1, 0);
    }

    #[test]
    fn saxpy_like_map() {
        let g = gpu();
        let n = 10_000usize;
        let x = GpuBuffer::from_slice(&(0..n).map(|i| i as f64).collect::<Vec<_>>());
        let y = GpuBuffer::<f64>::zeroed(n);
        let report = g.launch_each(Launch::over(n, 256), |t, ctx| {
            let i = t.global_id();
            if i < x.len() {
                ctx.write(&y, i, 2.0 * ctx.read(&x, i) + 1.0);
            }
        });
        assert!(y.to_vec().iter().enumerate().all(|(i, &v)| v == 2.0 * i as f64 + 1.0));
        assert_eq!(report.bytes, (n * 16) as u64);
        assert!(report.time > 0.0);
        assert_eq!(g.elapsed(), report.time);
    }

    #[test]
    fn grid_stride_loop() {
        let g = gpu();
        let n = 5000usize;
        let out = GpuBuffer::<i64>::zeroed(n);
        g.launch_each(Launch::new(4, 64), |t, ctx| {
            let mut i = t.global_id();
            while i < out.len() {
                ctx.write(&out, i, i as i64);
                i += t.grid_threads();
            }
        });
        assert!(out.to_vec().iter().enumerate().all(|(i, &v)| v == i as i64));
    }

    #[test]
    fn atomic_histogram() {
        let g = gpu();
        let n = 8192usize;
        let data = GpuBuffer::from_slice(&(0..n).map(|i| (i % 16) as u32).collect::<Vec<_>>());
        let hist = GpuBuffer::<u32>::zeroed(16);
        let report = g.launch_each(Launch::over(n, 128), |t, ctx| {
            let i = t.global_id();
            if i < data.len() {
                let bin = ctx.read(&data, i) as usize;
                ctx.atomic_add(&hist, bin, 1);
            }
        });
        assert!(hist.to_vec().iter().all(|&c| c == (n / 16) as u32));
        assert_eq!(report.atomics, n as u64);
    }

    #[test]
    fn phase_machine_block_reduction() {
        // Classic shared-memory tree reduction with __syncthreads
        // between halving steps, expressed as phases.
        struct BlockSum {
            x: GpuBuffer<f64>,
            out: GpuBuffer<f64>,
            block: u32,
        }
        impl BlockKernel for BlockSum {
            fn phases(&self, _cfg: &Launch) -> usize {
                1 + (self.block as f64).log2().ceil() as usize + 1
            }
            fn phase(&self, phase: usize, blk: &BlockCtx) {
                let bd = blk.block_dim() as usize;
                if phase == 0 {
                    blk.for_each_thread(|t| {
                        let i = t.global_id();
                        let v = if i < self.x.len() { blk.read(&self.x, i) } else { 0.0 };
                        blk.shared().set(t.thread_idx as usize, v);
                    });
                    return;
                }
                let step = bd >> phase;
                if step >= 1 {
                    blk.for_each_thread(|t| {
                        let tid = t.thread_idx as usize;
                        if tid < step {
                            let s = blk.shared();
                            s.set(tid, s.get(tid) + s.get(tid + step));
                        }
                    });
                } else {
                    // Final phase: thread 0 contributes the block total.
                    blk.atomic_add(&self.out, 0, blk.shared().get(0));
                }
            }
        }
        let g = gpu();
        let n = 4096usize;
        let block = 128u32;
        let kernel = BlockSum {
            x: GpuBuffer::from_slice(&(0..n).map(|i| i as f64).collect::<Vec<_>>()),
            out: GpuBuffer::zeroed(1),
            block,
        };
        g.launch(Launch::over(n, block).with_shared(block as usize), &kernel);
        let want = (n * (n - 1) / 2) as f64;
        assert_eq!(kernel.out.load(0), want);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let g = gpu();
        let x = GpuBuffer::<f64>::zeroed(1024);
        g.launch_each(Launch::over(1024, 256), |t, ctx| {
            let i = t.global_id();
            ctx.write(&x, i, 1.0);
        });
        let t1 = g.elapsed();
        g.launch_each(Launch::over(1024, 256), |t, ctx| {
            let i = t.global_id();
            ctx.write(&x, i, 2.0);
        });
        assert!(g.elapsed() > t1);
        g.reset_clock();
        assert_eq!(g.elapsed(), 0.0);
    }

    #[test]
    fn bigger_data_costs_more_model_time() {
        let g = gpu();
        let run = |n: usize| {
            let x = GpuBuffer::<f64>::zeroed(n);
            g.launch_each(Launch::over(n, 256), |t, ctx| {
                let i = t.global_id();
                if i < x.len() {
                    ctx.write(&x, i, 1.0);
                }
            })
            .time
        };
        assert!(run(1 << 22) > run(1 << 12));
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_block_rejected() {
        let g = gpu();
        g.launch_each(Launch::new(1, 2048), |_, _| {});
    }

    #[test]
    fn float_atomic_outputs_are_bit_identical_across_runs() {
        // Many threads of many blocks add values of mixed magnitude into
        // a few bins: floating-point addition is not associative, so the
        // sums are bit-identical only if the updates land in one order.
        let g = gpu();
        let n = 20_000usize;
        let run = || {
            let bins = GpuBuffer::<f64>::zeroed(7);
            g.launch_each(Launch::over(n, 64), |t, ctx| {
                let i = t.global_id();
                if i < n {
                    let v = (i as f64).sqrt() * 1e-3 + 1e12 * ((i % 3) as f64);
                    ctx.atomic_add(&bins, i % 7, v);
                }
            });
            bins.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cancelled_launch_loop_unwinds() {
        // A candidate relaunching kernels forever: once the token fires,
        // the next launch entry must unwind with the Cancelled marker.
        let token = pcg_core::cancel::CancelToken::new();
        let _g = pcg_core::cancel::install_token(Some(token.clone()));
        let g = gpu();
        let x = GpuBuffer::<f64>::zeroed(64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            g.launch_each(Launch::over(64, 32), |t, ctx| {
                if t.global_id() < x.len() {
                    ctx.write(&x, t.global_id(), 1.0);
                }
            });
            token.cancel();
        }));
        assert!(pcg_core::cancel::is_cancel_payload(result.unwrap_err().as_ref()));
    }
}
