//! Rank-multiplexing cooperative scheduler.
//!
//! Thread-per-rank execution spawns one OS thread per simulated rank,
//! which makes the paper's 512-rank sweep column cost 512 spawns plus a
//! condvar storm per run on a machine with a few dozen cores. This
//! module runs the same rank programs as **stackful fibers** multiplexed
//! onto `W = cores` worker threads: a rank that blocks in
//! `recv`/token acquisition parks its continuation (a saved stack) in a
//! blocked-rank queue instead of parking an OS thread, and a worker
//! resumes the next runnable rank.
//!
//! The worker count equals the world's compute-token count
//! (`World::new` grants one token per core). A fiber holds a token from
//! the moment it starts until it parks, so at most `cores` fibers can
//! make progress at once; a further worker could only resume a fiber
//! that fails `try_acquire` and yields straight back, paying a
//! scheduler-lock round trip and a futex wake for nothing.
//!
//! Scheduling is *run-to-block*: fibers yield only at the exact points
//! where the thread-per-rank path would block on a condvar (mailbox
//! waits and compute-token waits). Virtual time is governed solely by
//! [`crate::CostModel`] arithmetic on message metadata, which is
//! identical in both execution paths, so simulation records are
//! byte-identical to thread-per-rank at any worker count.
//!
//! ## Wakeup protocol
//!
//! All scheduler state sits behind one mutex. A rank only ever waits on
//! its *own* mailbox, so mailbox wakeups are keyed by rank: a sender
//! deposits (mailbox lock, dropped) and then notifies the scheduler
//! (scheduler lock). The lost-wakeup race — a deposit landing between a
//! fiber's failed `try_take` and the worker filing it as blocked — is
//! closed by the worker re-probing the wait condition *under the
//! scheduler lock* after the fiber has switched out: deposits are
//! ordered either before the probe (rank goes straight back to ready)
//! or after it (the sender's notify finds the filed waiter). No path
//! holds a mailbox or semaphore lock while taking the scheduler lock,
//! so the two lock orders never form a cycle.
//!
//! ## Cancellation and abort
//!
//! Idle workers tick at [`CANCEL_TICK`] when the launching candidate
//! has a cancel token, and on observing a kill wake every parked fiber;
//! resumed fibers hit their cancel check and unwind with the marker,
//! exactly like parked rank threads do. `WorldShared::abort` likewise
//! wakes all parked fibers so they observe the abort and unwind. The
//! scheduler only terminates once every rank has run to completion, so
//! fibers are never dropped mid-stack in normal operation.

use crate::sync::CANCEL_TICK;
use crate::world::WorldShared;
use parking_lot::{Condvar, Mutex};
use pcg_core::{cancel, usage, warm};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

// ---- policy ----------------------------------------------------------

/// How worlds choose between thread-per-rank and multiplexed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Multiplex oversubscribed worlds (`ranks > workers()`) when the
    /// warm path is enabled (`PCG_COLD=1` restores thread-per-rank).
    Auto,
    /// Always thread-per-rank (the A/B baseline).
    ForceThreads,
    /// Multiplex every multi-rank world, however small (tests).
    ForceMux,
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// Set the process-global execution mode (tests only; the default is
/// [`ExecMode::Auto`]).
pub fn set_exec_mode(mode: ExecMode) {
    MODE.store(mode as u8, Ordering::Release);
}

/// The current execution mode.
pub fn exec_mode() -> ExecMode {
    match MODE.load(Ordering::Acquire) {
        1 => ExecMode::ForceThreads,
        2 => ExecMode::ForceMux,
        _ => ExecMode::Auto,
    }
}

/// Whether fiber multiplexing is implemented for this target.
pub fn supported() -> bool {
    cfg!(all(target_arch = "x86_64", unix))
}

/// Number of multiplexer worker threads: `PCG_MPI_WORKERS` if set to a
/// positive integer, else the available parallelism — the compute-token
/// count `World::new` grants, so no worker idles behind a token it can
/// never get. Read once per process.
pub fn workers() -> usize {
    static W: OnceLock<usize> = OnceLock::new();
    *W.get_or_init(|| {
        if let Ok(v) = std::env::var("PCG_MPI_WORKERS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    })
}

/// Whether a world of `ranks` ranks runs multiplexed under the current
/// mode.
pub fn should_multiplex(ranks: usize) -> bool {
    if !supported() {
        return false;
    }
    match exec_mode() {
        ExecMode::ForceThreads => false,
        ExecMode::ForceMux => ranks > 1,
        ExecMode::Auto => warm::enabled() && ranks > workers(),
    }
}

/// OS threads a world of `ranks` ranks actually occupies under the
/// current mode — the quantity the lease layer budgets by.
pub fn os_threads_for(ranks: usize) -> usize {
    if should_multiplex(ranks) {
        workers()
    } else {
        ranks
    }
}

// ---- stats -----------------------------------------------------------

static RANKS_MULTIPLEXED: AtomicU64 = AtomicU64::new(0);
static BYTES_ZERO_COPIED: AtomicU64 = AtomicU64::new(0);
static DEADLOCKS_DETECTED: AtomicU64 = AtomicU64::new(0);
static STACK_OVERFLOWS_CAUGHT: AtomicU64 = AtomicU64::new(0);
static GUARD_FAULTS: AtomicU64 = AtomicU64::new(0);

/// Process-wide multiplexer counters (monotonic; the harness snapshots
/// and diffs them per evaluation, like the lease stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Simulated ranks that ran as fibers instead of OS threads.
    pub ranks_multiplexed: u64,
    /// Payload bytes forwarded or moved by reference in transport
    /// (collective hops, moved sends) instead of being copied.
    pub bytes_zero_copied: u64,
    /// Worlds failed fast by the wait-for-graph deadlock detector.
    pub deadlocks_detected: u64,
    /// Fiber stack overflows converted into verdicts by the guard page.
    pub stack_overflows_caught: u64,
    /// SIGSEGV faults classified as guard-page hits (one per caught
    /// overflow; counted separately so a divergence between the two —
    /// a fault that never became a verdict — is visible).
    pub guard_faults: u64,
}

/// Snapshot the counters.
pub fn stats() -> SchedStats {
    SchedStats {
        ranks_multiplexed: RANKS_MULTIPLEXED.load(Ordering::Relaxed),
        bytes_zero_copied: BYTES_ZERO_COPIED.load(Ordering::Relaxed),
        deadlocks_detected: DEADLOCKS_DETECTED.load(Ordering::Relaxed),
        stack_overflows_caught: STACK_OVERFLOWS_CAUGHT.load(Ordering::Relaxed),
        guard_faults: GUARD_FAULTS.load(Ordering::Relaxed),
    }
}

pub(crate) fn note_ranks_multiplexed(n: u64) {
    RANKS_MULTIPLEXED.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn note_zero_copy(bytes: usize) {
    BYTES_ZERO_COPIED.fetch_add(bytes as u64, Ordering::Relaxed);
}

// ---- deadlock detection policy ---------------------------------------

static DEADLOCK_DETECT: AtomicBool = AtomicBool::new(true);

/// Enable/disable the wait-for-graph deadlock detector (on by default).
/// Only tests turn it off, to measure the timeout-only baseline the
/// detector replaces.
pub fn set_deadlock_detection(enabled: bool) {
    DEADLOCK_DETECT.store(enabled, Ordering::Release);
}

fn deadlock_detection() -> bool {
    DEADLOCK_DETECT.load(Ordering::Acquire)
}

// ---- yield reasons ---------------------------------------------------

/// Why a fiber switched back to its worker.
///
/// Blocking variants carry the rank's virtual clock at park time so the
/// deadlock detector can report *when* (in simulated time) each rank
/// blocked — wall-clock instants would differ across worker counts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wait {
    /// Blocked receiving on the rank's own mailbox.
    Mailbox { src: Option<usize>, tag: u32, clock: f64 },
    /// Blocked acquiring a compute token. `gate` marks the hybrid
    /// compute-admission gate (same semaphore, labeled separately in
    /// deadlock diagnostics).
    Token { gate: bool, clock: f64 },
    /// The fiber overran its stack into the guard page; the SIGSEGV
    /// classifier redirected it to the overflow landing pad, which
    /// switched out with this reason. The stack is unusable.
    StackOverflow,
    /// The rank body ran to completion (or unwound into the fiber's
    /// catch).
    Done,
}

// ---- fibers ----------------------------------------------------------

#[cfg(all(target_arch = "x86_64", unix))]
mod fiber {
    use super::Wait;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Usable stack bytes per fiber; matches the thread-per-rank path's
    /// reduced rank-thread stacks.
    pub(super) const STACK_SIZE: usize = 1 << 21;
    const STACK_CANARY: u64 = 0xF1BE_75AC_CA4A_11D8;

    // Minimal SysV x86_64 context switch: save the callee-saved integer
    // registers and the stack pointer, load the target's. Everything
    // else is caller-saved at the (extern "C") call boundary. `save`
    // receives the suspended context's rsp; `to` is the context to
    // enter.
    std::arch::global_asm!(
        r#"
        .text
        .globl pcg_mpisim_fiber_switch
        .type pcg_mpisim_fiber_switch, @function
pcg_mpisim_fiber_switch:
        push rbp
        push rbx
        push r12
        push r13
        push r14
        push r15
        mov [rdi], rsp
        mov rsp, rsi
        pop r15
        pop r14
        pop r13
        pop r12
        pop rbx
        pop rbp
        ret
        .size pcg_mpisim_fiber_switch, . - pcg_mpisim_fiber_switch

        .globl pcg_mpisim_fiber_trampoline
        .type pcg_mpisim_fiber_trampoline, @function
pcg_mpisim_fiber_trampoline:
        mov rdi, r12
        and rsp, -16
        call r13
        ud2
        .size pcg_mpisim_fiber_trampoline, . - pcg_mpisim_fiber_trampoline
        "#
    );

    extern "C" {
        fn pcg_mpisim_fiber_switch(save: *mut *mut u8, to: *mut u8);
        fn pcg_mpisim_fiber_trampoline();
    }

    /// The live link between a worker and the fiber it is running,
    /// stack-allocated in `resume` and published through worker TLS so
    /// `yield_fiber` (called from arbitrarily deep in the rank body)
    /// can find the worker's saved context.
    struct SwitchPair {
        worker_rsp: *mut u8,
        fiber_rsp: *mut u8,
        reason: Wait,
    }

    thread_local! {
        static CURRENT: Cell<*mut SwitchPair> = const { Cell::new(std::ptr::null_mut()) };
    }

    struct EntryData {
        body: Option<Box<dyn FnOnce() + 'static>>,
    }

    extern "C" fn fiber_entry(data: *mut EntryData) -> ! {
        // Contain every unwind inside the fiber: panics (candidate
        // failures, abort cascades, cancel markers) are already handled
        // by the rank body's own catch in `world.rs`; this outer catch
        // only guarantees nothing ever unwinds across the switch
        // boundary, where there is no frame to unwind into.
        let body = unsafe { (*data).body.take().expect("fiber body taken twice") };
        let _ = catch_unwind(AssertUnwindSafe(body));
        unsafe { switch_out_done() }
    }

    // `#[inline(never)]` on everything touching `CURRENT` from fiber
    // context is load-bearing: LLVM models a thread-local's address as
    // constant within a function body (a function cannot change threads
    // under normal execution), so if these reads inline into a caller
    // that spans a context switch — e.g. a blocking-recv retry loop that
    // yields more than once — the hoisted address keeps pointing at the
    // *previous* worker thread's cell after the fiber migrates, which
    // that worker has already nulled. Keeping each access inside its own
    // uninlinable call recomputes the TLS address on whatever thread the
    // fiber currently runs on.
    #[inline(never)]
    unsafe fn switch_out_done() -> ! {
        let pair = CURRENT.with(|c| c.get());
        assert!(!pair.is_null(), "mpisim: fiber finishing without a worker");
        (*pair).reason = Wait::Done;
        let mut scratch: *mut u8 = std::ptr::null_mut();
        pcg_mpisim_fiber_switch(&mut scratch, (*pair).worker_rsp);
        unreachable!("finished fiber resumed")
    }

    /// Park the calling fiber with `reason`; returns when a worker
    /// resumes it. Must only be called from inside a fiber.
    #[inline(never)]
    pub(super) fn yield_fiber(reason: Wait) {
        let pair = CURRENT.with(|c| c.get());
        assert!(!pair.is_null(), "mpisim: blocking yield outside a rank fiber");
        unsafe {
            (*pair).reason = reason;
            let worker = (*pair).worker_rsp;
            // After this returns we may be on a different worker thread;
            // `pair` points into the *previous* resume's stack and must
            // not be touched again.
            pcg_mpisim_fiber_switch(&mut (*pair).fiber_rsp, worker);
        }
    }

    /// Landing pad the SIGSEGV classifier redirects an overflowed fiber
    /// to. Entered by a register rewrite (not a call) with RSP pointing
    /// into the rescue region of the fiber's own mapping — the fiber's
    /// stack proper is exhausted and the worker's stack is unreachable
    /// mid-fiber. Reports the overflow to the worker exactly like a
    /// normal switch-out, then never runs again.
    extern "C" fn overflow_landing() -> ! {
        unsafe { switch_out_overflow() }
    }

    #[inline(never)]
    unsafe fn switch_out_overflow() -> ! {
        // Non-null by construction: the classifier only redirects
        // faults inside the guard range `resume` published on this
        // thread, which it does while CURRENT is set.
        let pair = CURRENT.with(|c| c.get());
        (*pair).reason = Wait::StackOverflow;
        let mut scratch: *mut u8 = std::ptr::null_mut();
        pcg_mpisim_fiber_switch(&mut scratch, (*pair).worker_rsp);
        unreachable!("overflowed fiber resumed")
    }

    /// Install the process-wide SIGSEGV classifier (once) and this
    /// thread's sigaltstack (per worker thread). Must run on every
    /// thread that can resume fibers, before it resumes any.
    pub(super) fn ensure_signal_setup() {
        stack::ensure_signal_setup();
    }

    #[cfg(target_os = "linux")]
    mod stack {
        //! mmap-backed pooled fiber stacks with a PROT_NONE guard and a
        //! SIGSEGV classifier that converts guard hits into overflow
        //! verdicts.
        //!
        //! Mapping layout, low to high addresses:
        //!
        //! ```text
        //! | rescue 16 KiB RW | guard 64 KiB PROT_NONE | stack 2 MiB RW |
        //! ```
        //!
        //! The stack grows down toward the guard. rustc emits inline
        //! stack probes on x86_64-linux, so even frames larger than the
        //! guard touch pages in descending order and cannot leap over
        //! it. On a guard hit the handler redirects the fiber to
        //! `overflow_landing` running on the rescue region of the same
        //! mapping. Overflowed mappings are quarantined (leaked), never
        //! reused or unmapped: callees the fiber abandoned (a hybrid
        //! pool region in flight, a held lock's waiter list) may still
        //! reference its frames.
        //!
        //! Every clean mapping goes back to the pool, which is bounded
        //! by the peak number of fibers live at once (the sum of
        //! concurrent world sizes) rather than by a constant: under a
        //! cap, every world larger than the cap would map, fault in and
        //! unmap its excess stacks on every run. A steady stream of
        //! worlds therefore makes no `mmap`/`mprotect`/`munmap` calls.
        use parking_lot::Mutex;
        use std::cell::{Cell, RefCell};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::OnceLock;

        /// Scratch stack for the overflow landing pad; it only needs a
        /// TLS read and one context switch.
        const RESCUE_SIZE: usize = 1 << 14;
        /// PROT_NONE span between rescue and stack. 16 pages, so a
        /// frame-sized jump cannot clear it even without probes.
        const GUARD_SIZE: usize = 1 << 16;
        const TOTAL_SIZE: usize = RESCUE_SIZE + GUARD_SIZE + super::STACK_SIZE;
        const ALT_STACK_SIZE: usize = 1 << 15;

        mod os {
            //! Raw bindings for the handful of POSIX calls this module
            //! needs. The workspace vendors no `libc` crate, but every
            //! std binary already links the platform C library, so the
            //! functions are declared directly; the struct layouts and
            //! constants are the x86_64-linux (glibc/musl-compatible)
            //! ones, which is exactly the cfg this module builds under.
            #![allow(dead_code)]

            pub const PROT_NONE: i32 = 0;
            pub const PROT_READ: i32 = 1;
            pub const PROT_WRITE: i32 = 2;
            pub const MAP_PRIVATE: i32 = 0x02;
            pub const MAP_ANONYMOUS: i32 = 0x20;
            pub const SIGSEGV: i32 = 11;
            pub const SA_SIGINFO: i32 = 4;
            pub const SA_ONSTACK: i32 = 0x0800_0000;
            pub const SS_DISABLE: i32 = 2;
            /// `mcontext_t.gregs` indices (sys/ucontext.h).
            pub const REG_RSP: usize = 15;
            pub const REG_RIP: usize = 16;

            #[repr(C)]
            pub struct SigInfo {
                pub si_signo: i32,
                pub si_errno: i32,
                pub si_code: i32,
                pad: i32,
                /// Fault address for SIGSEGV (start of the union).
                pub si_addr: *mut u8,
                rest: [u64; 13],
            }

            #[repr(C)]
            #[derive(Clone, Copy)]
            pub struct SigSet {
                pub bits: [u64; 16],
            }

            #[repr(C)]
            pub struct SigAction {
                /// `sa_handler` / `sa_sigaction` union.
                pub handler: usize,
                pub mask: SigSet,
                pub flags: i32,
                pub restorer: usize,
            }

            #[repr(C)]
            pub struct StackT {
                pub ss_sp: *mut u8,
                pub ss_flags: i32,
                pub ss_size: usize,
            }

            /// Prefix of glibc's `ucontext_t` up through the general
            /// registers (`uc_mcontext.gregs` starts at byte 40); the
            /// FP state and signal mask behind it are never touched.
            #[repr(C)]
            pub struct UContext {
                pub uc_flags: u64,
                pub uc_link: *mut UContext,
                pub uc_stack: StackT,
                pub gregs: [i64; 23],
            }

            extern "C" {
                pub fn mmap(
                    addr: *mut u8,
                    len: usize,
                    prot: i32,
                    flags: i32,
                    fd: i32,
                    offset: i64,
                ) -> *mut u8;
                pub fn munmap(addr: *mut u8, len: usize) -> i32;
                pub fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
                pub fn sigaction(
                    signum: i32,
                    act: *const SigAction,
                    oldact: *mut SigAction,
                ) -> i32;
                pub fn sigaltstack(ss: *const StackT, old_ss: *mut StackT) -> i32;
            }
        }

        /// One guarded fiber-stack mapping.
        pub(super) struct StackMem {
            base: *mut u8,
        }

        // SAFETY: plain memory; ownership moves between the pool and at
        // most one fiber at a time.
        unsafe impl Send for StackMem {}

        /// Mappings created so far (monotonic; tests diff it to show
        /// that a warm pool serves a world without new mappings).
        static MAPPED: AtomicU64 = AtomicU64::new(0);

        impl StackMem {
            fn map() -> StackMem {
                MAPPED.fetch_add(1, Ordering::Relaxed);
                unsafe {
                    let base = os::mmap(
                        std::ptr::null_mut(),
                        TOTAL_SIZE,
                        os::PROT_READ | os::PROT_WRITE,
                        os::MAP_PRIVATE | os::MAP_ANONYMOUS,
                        -1,
                        0,
                    );
                    assert!(base as isize != -1, "mpisim: fiber stack mmap failed");
                    let rc = os::mprotect(base.add(RESCUE_SIZE), GUARD_SIZE, os::PROT_NONE);
                    assert_eq!(rc, 0, "mpisim: fiber guard mprotect failed");
                    StackMem { base }
                }
            }

            /// Low end of the usable stack (first byte above the guard).
            pub(super) fn lo(&self) -> *mut u8 {
                unsafe { self.base.add(RESCUE_SIZE + GUARD_SIZE) }
            }

            /// High end of the usable stack (initial stack top).
            pub(super) fn hi(&self) -> *mut u8 {
                unsafe { self.lo().add(super::STACK_SIZE) }
            }

            fn guard_range(&self) -> (usize, usize) {
                let lo = self.base as usize + RESCUE_SIZE;
                (lo, lo + GUARD_SIZE)
            }
        }

        impl Drop for StackMem {
            fn drop(&mut self) {
                unsafe {
                    os::munmap(self.base, TOTAL_SIZE);
                }
            }
        }

        static POOL: Mutex<Vec<StackMem>> = Mutex::new(Vec::new());

        pub(super) fn acquire() -> StackMem {
            POOL.lock().pop().unwrap_or_else(StackMem::map)
        }

        pub(super) fn release(stack: StackMem) {
            POOL.lock().push(stack);
        }

        /// Leak an overflowed mapping: abandoned callees may still hold
        /// pointers into its frames, so it must never be reused *or*
        /// unmapped. Bounded by the number of overflows caught.
        pub(super) fn quarantine(stack: StackMem) {
            std::mem::forget(stack);
        }

        thread_local! {
            /// Guard range of the fiber this thread is currently
            /// running; (0, 0) when no fiber is live. Const-initialized
            /// Cell with no destructor, so reads from the signal
            /// handler are plain TLS loads (async-signal-safe).
            static GUARD_RANGE: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
        }

        pub(super) fn enter_fiber(stack: &StackMem) {
            GUARD_RANGE.with(|c| c.set(stack.guard_range()));
        }

        pub(super) fn leave_fiber() {
            GUARD_RANGE.with(|c| c.set((0, 0)));
        }

        /// The disposition SIGSEGV had before the classifier was
        /// installed (Rust's own stack-overflow reporter, usually).
        /// Written once inside the install `OnceLock`, read-only after.
        struct OldAction(std::cell::UnsafeCell<os::SigAction>);
        unsafe impl Sync for OldAction {}
        static OLD: OldAction = OldAction(std::cell::UnsafeCell::new(os::SigAction {
            handler: 0,
            mask: os::SigSet { bits: [0; 16] },
            flags: 0,
            restorer: 0,
        }));

        /// SIGSEGV classifier. Async-signal-safe by construction: a
        /// const-initialized TLS read, one relaxed atomic add, and
        /// direct register writes into the ucontext — no allocation,
        /// locking, formatting, or unwinding.
        extern "C" fn segv_handler(_sig: i32, info: *mut os::SigInfo, ctx: *mut os::UContext) {
            let addr = unsafe { (*info).si_addr as usize };
            let (lo, hi) = GUARD_RANGE.with(|c| c.get());
            if lo != 0 && (lo..hi).contains(&addr) {
                super::super::GUARD_FAULTS.fetch_add(1, Ordering::Relaxed);
                let land: extern "C" fn() -> ! = super::overflow_landing;
                unsafe {
                    // Resume the fiber at the landing pad on the rescue
                    // region (lo == top of rescue). The −8 gives RSP
                    // call-site parity (SysV: rsp % 16 == 8 at entry).
                    let gregs = &mut (*ctx).gregs;
                    gregs[os::REG_RSP] = (lo - 8) as i64;
                    gregs[os::REG_RIP] = land as usize as i64;
                }
                return;
            }
            // Not a fiber guard hit: put the previous disposition back
            // and return; the faulting instruction re-executes into it
            // (Rust's handler for ordinary stack overflows, or SIG_DFL).
            unsafe {
                os::sigaction(os::SIGSEGV, OLD.0.get(), std::ptr::null_mut());
            }
        }

        fn install_handler() {
            static INSTALLED: OnceLock<()> = OnceLock::new();
            INSTALLED.get_or_init(|| unsafe {
                let h: extern "C" fn(i32, *mut os::SigInfo, *mut os::UContext) = segv_handler;
                let act = os::SigAction {
                    handler: h as usize,
                    mask: os::SigSet { bits: [0; 16] },
                    flags: os::SA_SIGINFO | os::SA_ONSTACK,
                    restorer: 0,
                };
                let rc = os::sigaction(os::SIGSEGV, &act, OLD.0.get());
                assert_eq!(rc, 0, "mpisim: installing the SIGSEGV classifier failed");
            });
        }

        /// Per-thread sigaltstack: the handler must run somewhere even
        /// when the faulting thread's RSP points at the guard page.
        /// Dropped (disabled and freed) at thread exit.
        struct AltStack(*mut u8);

        fn alt_layout() -> std::alloc::Layout {
            std::alloc::Layout::from_size_align(ALT_STACK_SIZE, 16).expect("alt stack layout")
        }

        impl Drop for AltStack {
            fn drop(&mut self) {
                unsafe {
                    let ss = os::StackT {
                        ss_sp: std::ptr::null_mut(),
                        ss_flags: os::SS_DISABLE,
                        ss_size: 0,
                    };
                    os::sigaltstack(&ss, std::ptr::null_mut());
                    std::alloc::dealloc(self.0, alt_layout());
                }
            }
        }

        thread_local! {
            static ALT_STACK: RefCell<Option<AltStack>> = const { RefCell::new(None) };
        }

        pub(super) fn ensure_signal_setup() {
            install_handler();
            ALT_STACK.with(|slot| {
                let mut slot = slot.borrow_mut();
                if slot.is_none() {
                    unsafe {
                        let mem = std::alloc::alloc(alt_layout());
                        assert!(!mem.is_null(), "mpisim: alt stack allocation failed");
                        let ss = os::StackT { ss_sp: mem, ss_flags: 0, ss_size: ALT_STACK_SIZE };
                        let rc = os::sigaltstack(&ss, std::ptr::null_mut());
                        assert_eq!(rc, 0, "mpisim: sigaltstack failed");
                        *slot = Some(AltStack(mem));
                    }
                }
            });
        }

        #[cfg(test)]
        mod tests {
            use super::MAPPED;
            use crate::{CostModel, ReduceOp, World};
            use std::sync::atomic::Ordering;

            /// Set in the child process that runs the measured half.
            const CHILD_ENV: &str = "PCG_MPISIM_STACK_POOL_CHILD";

            fn world_512() {
                let out = World::new(512)
                    .with_cost_model(CostModel::deterministic())
                    .multiplexed()
                    .run(|comm| comm.allreduce_one(comm.rank() as i64, ReduceOp::Sum))
                    .expect("512-rank world");
                assert!(out.per_rank.iter().all(|&s| s == 511 * 512 / 2));
            }

            #[test]
            fn repeat_world_maps_no_new_stacks() {
                if std::env::var_os(CHILD_ENV).is_none() {
                    // MAPPED is process-wide and sibling tests run worlds
                    // concurrently, so the measurement re-runs this test
                    // binary filtered down to this one test.
                    let path = module_path!().split_once("::").expect("crate-qualified path").1;
                    let name = format!("{path}::repeat_world_maps_no_new_stacks");
                    let exe = std::env::current_exe().expect("test binary path");
                    let out = std::process::Command::new(exe)
                        .args(["--exact", &name, "--test-threads=1"])
                        .env(CHILD_ENV, "1")
                        .output()
                        .expect("re-run the test binary");
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    assert!(out.status.success(), "child run failed:\n{stdout}");
                    assert!(stdout.contains("1 passed"), "child ran no test:\n{stdout}");
                    return;
                }
                world_512();
                let before = MAPPED.load(Ordering::Relaxed);
                world_512();
                let fresh = MAPPED.load(Ordering::Relaxed) - before;
                assert_eq!(fresh, 0, "a repeat 512-rank world mapped {fresh} new fiber stacks");
            }
        }
    }

    #[cfg(not(target_os = "linux"))]
    mod stack {
        //! Fallback for non-Linux unix targets: plain heap stacks with
        //! canary-only overflow detection (the pre-guard behavior).
        //! `Wait::StackOverflow` is never produced here.
        use std::alloc::Layout;

        pub(super) struct StackMem {
            base: *mut u8,
        }

        unsafe impl Send for StackMem {}

        fn layout() -> Layout {
            Layout::from_size_align(super::STACK_SIZE, 16).expect("fiber stack layout")
        }

        impl StackMem {
            pub(super) fn lo(&self) -> *mut u8 {
                self.base
            }
            pub(super) fn hi(&self) -> *mut u8 {
                unsafe { self.base.add(super::STACK_SIZE) }
            }
        }

        impl Drop for StackMem {
            fn drop(&mut self) {
                unsafe { std::alloc::dealloc(self.base, layout()) }
            }
        }

        pub(super) fn acquire() -> StackMem {
            let base = unsafe { std::alloc::alloc(layout()) };
            assert!(!base.is_null(), "mpisim: fiber stack allocation failed");
            StackMem { base }
        }

        pub(super) fn release(stack: StackMem) {
            drop(stack);
        }

        pub(super) fn quarantine(stack: StackMem) {
            drop(stack);
        }

        pub(super) fn enter_fiber(_stack: &StackMem) {}
        pub(super) fn leave_fiber() {}
        pub(super) fn ensure_signal_setup() {}
    }

    /// A suspended rank: its stack plus the saved stack pointer.
    pub(super) struct Fiber {
        /// `None` only after an overflow quarantined the mapping.
        stack: Option<stack::StackMem>,
        rsp: *mut u8,
        // Kept alive (stable address) until the fiber finishes; the
        // trampoline reads it through a raw pointer planted in the
        // initial frame.
        _entry: Box<EntryData>,
        finished: bool,
    }

    // SAFETY: a fiber is only ever run by one worker at a time (the
    // scheduler moves it between workers with a mutex in between, which
    // orders all accesses), and its body closure is built from
    // `&(dyn Fn(usize) + Sync)`.
    unsafe impl Send for Fiber {}

    impl Fiber {
        /// Build a fiber whose first resume runs `body` on a pooled
        /// guard-paged stack (heap stack on targets without the guard
        /// machinery). Pages fault in lazily; the canary word at the
        /// low end remains as a secondary overflow check behind the
        /// guard page.
        pub(super) fn new(body: Box<dyn FnOnce() + 'static>) -> Fiber {
            let stack = stack::acquire();
            let mut entry = Box::new(EntryData { body: Some(body) });
            let entry_fn: extern "C" fn(*mut EntryData) -> ! = fiber_entry;
            unsafe {
                (stack.lo() as *mut u64).write(STACK_CANARY);
                // Seed the frame `pcg_mpisim_fiber_switch` restores:
                // six callee-saved slots below a return slot aiming at
                // the trampoline, which forwards r12 (entry data) as the
                // first argument and calls r13 (fiber_entry).
                let top = stack.hi() as *mut u64;
                top.sub(1).write(0); // padding: trampoline enters at call-site alignment
                top.sub(2).write(pcg_mpisim_fiber_trampoline as *const () as usize as u64);
                top.sub(3).write(0); // rbp
                top.sub(4).write(0); // rbx
                top.sub(5).write(&mut *entry as *mut EntryData as u64); // r12
                top.sub(6).write(entry_fn as usize as u64); // r13
                top.sub(7).write(0); // r14
                top.sub(8).write(0); // r15
                Fiber {
                    stack: Some(stack),
                    rsp: top.sub(8) as *mut u8,
                    _entry: entry,
                    finished: false,
                }
            }
        }

        /// Run the fiber until it yields or finishes.
        ///
        /// Not inlined for the same TLS-address reason as `yield_fiber`:
        /// both `CURRENT` accesses here are on the worker's own thread
        /// (a worker's saved context is only ever re-entered from its
        /// own TLS pair), but an inlined copy inside a caller's loop
        /// could still merge with fiber-side accesses.
        #[inline(never)]
        pub(super) fn resume(&mut self) -> Wait {
            debug_assert!(!self.finished, "resumed a finished fiber");
            let mut pair = SwitchPair {
                worker_rsp: std::ptr::null_mut(),
                fiber_rsp: self.rsp,
                reason: Wait::Done,
            };
            CURRENT.with(|c| c.set(&mut pair));
            // Publish the guard range for the SIGSEGV classifier (read
            // only from this thread's handler frames).
            stack::enter_fiber(self.stack.as_ref().expect("resumed a quarantined fiber"));
            unsafe {
                pcg_mpisim_fiber_switch(&mut pair.worker_rsp, pair.fiber_rsp);
            }
            stack::leave_fiber();
            CURRENT.with(|c| c.set(std::ptr::null_mut()));
            if matches!(pair.reason, Wait::StackOverflow) {
                // The fiber escaped through the rescue landing pad: its
                // frames (likely including the canary word) are trash
                // and abandoned callees may still point into them. The
                // mapping is quarantined, never reused or unmapped.
                self.finished = true;
                stack::quarantine(self.stack.take().expect("overflowed fiber without a stack"));
                return pair.reason;
            }
            unsafe {
                let lo = self.stack.as_ref().expect("live fiber without a stack").lo();
                assert_eq!(
                    (lo as *const u64).read(),
                    STACK_CANARY,
                    "mpisim: fiber stack overflow missed by the guard page (canary)"
                );
            }
            self.rsp = pair.fiber_rsp;
            if matches!(pair.reason, Wait::Done) {
                self.finished = true;
            }
            pair.reason
        }
    }

    impl Drop for Fiber {
        fn drop(&mut self) {
            // Normal scheduling drains every fiber to Done (even under
            // abort/cancel) before dropping it. A finished fiber's
            // mapping is clean and goes back to the pool; an unfinished
            // drop can only follow a scheduler-internal panic, in which
            // case the frames leak but the mapping is unmapped.
            if let Some(stack) = self.stack.take() {
                if self.finished {
                    stack::release(stack);
                }
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", unix)))]
mod fiber {
    //! Stub for targets without a context switch: `supported()` is
    //! false there, so none of this is reachable.
    use super::Wait;

    pub(super) const STACK_SIZE: usize = 1 << 21;

    pub(super) struct Fiber;

    impl Fiber {
        pub(super) fn new(_body: Box<dyn FnOnce() + 'static>) -> Fiber {
            unreachable!("fiber multiplexing is not supported on this target")
        }
        pub(super) fn resume(&mut self) -> Wait {
            unreachable!("fiber multiplexing is not supported on this target")
        }
    }

    pub(super) fn yield_fiber(_reason: Wait) {
        unreachable!("fiber multiplexing is not supported on this target")
    }

    pub(super) fn ensure_signal_setup() {}
}

/// Park the calling rank fiber; see [`fiber::yield_fiber`].
pub(crate) fn yield_fiber(reason: Wait) {
    fiber::yield_fiber(reason);
}

// ---- scheduler -------------------------------------------------------

enum RankSlot {
    /// Not started yet; no stack exists.
    Fresh,
    /// Suspended (ready or waiting); the stack lives here.
    Parked(fiber::Fiber),
    /// Currently running on some worker.
    Active,
    /// Ran to completion.
    Done,
}

/// A rank parked on a compute token (or the hybrid admission gate).
struct TokenWait {
    rank: usize,
    gate: bool,
    clock: f64,
}

struct SchedState {
    /// Runnable ranks, FIFO. Initially all ranks in rank order.
    ready: VecDeque<usize>,
    slots: Vec<RankSlot>,
    /// `Some((src, tag, clock))` iff the rank is parked on its own
    /// mailbox, with its virtual clock at park time.
    mailbox_wait: Vec<Option<(Option<usize>, u32, f64)>>,
    /// Ranks parked waiting for a compute token, FIFO.
    token_wait: VecDeque<TokenWait>,
    finished: usize,
    size: usize,
    /// A deadlock has already been reported for this world.
    deadlocked: bool,
}

impl SchedState {
    /// Move every parked waiter to the ready queue (abort/cancel).
    fn wake_all(&mut self) {
        for rank in 0..self.size {
            if self.mailbox_wait[rank].take().is_some() {
                self.ready.push_back(rank);
            }
        }
        while let Some(w) = self.token_wait.pop_front() {
            self.ready.push_back(w.rank);
        }
    }

    /// Wait-for-graph quiescence check, called after filing a waiter.
    ///
    /// Under the scheduler lock, if no rank is runnable (`ready` empty,
    /// and every non-finished rank is filed as a waiter — Fresh ranks
    /// always sit in `ready`, Active ranks are not filed), no future
    /// wakeup can occur: a deposit always precedes its
    /// `notify_mailbox`, a token release always precedes its
    /// `notify_token`, and both happen before the sender can park, so
    /// any event that raced the filing re-probe would have re-readied
    /// someone. That makes quiescence a *state* property of the virtual
    /// execution — deterministic across worker counts and shard
    /// geometries — not a timing heuristic. Returns the per-rank
    /// diagnostics to fail the world with.
    fn deadlock_report(&mut self) -> Option<String> {
        if self.deadlocked || !self.ready.is_empty() {
            return None;
        }
        let parked =
            self.mailbox_wait.iter().filter(|w| w.is_some()).count() + self.token_wait.len();
        if parked == 0 || self.finished + parked != self.size {
            return None;
        }
        self.deadlocked = true;
        let live = self.size - self.finished;
        let mut msg = format!(
            "wait-for-graph quiescent: all {live} live ranks of {} blocked with no runnable sender",
            self.size
        );
        for rank in 0..self.size {
            use std::fmt::Write;
            if let Some((src, tag, clock)) = self.mailbox_wait[rank] {
                match src {
                    Some(s) => {
                        let _ = write!(msg, "; rank {rank} waits recv(src={s}, tag={tag}) at t={clock}");
                    }
                    None => {
                        let _ = write!(msg, "; rank {rank} waits recv(src=any, tag={tag}) at t={clock}");
                    }
                }
            } else if let Some(w) = self.token_wait.iter().find(|w| w.rank == rank) {
                let what = if w.gate { "compute-admission gate" } else { "compute token" };
                let _ = write!(msg, "; rank {rank} waits {what} at t={}", w.clock);
            }
        }
        Some(msg)
    }
}

/// Per-run scheduler for one multiplexed world. Owned by `WorldShared`.
pub(crate) struct Sched {
    pub(crate) workers: usize,
    state: Mutex<SchedState>,
    ready_cv: Condvar,
}

impl Sched {
    pub(crate) fn new(size: usize, workers: usize) -> Sched {
        Sched {
            workers: workers.max(1),
            state: Mutex::new(SchedState {
                ready: (0..size).collect(),
                slots: (0..size).map(|_| RankSlot::Fresh).collect(),
                mailbox_wait: vec![None; size],
                token_wait: VecDeque::new(),
                finished: 0,
                size,
                deadlocked: false,
            }),
            ready_cv: Condvar::new(),
        }
    }

    /// A deposit landed in `dst`'s mailbox: wake it if parked there.
    pub(crate) fn notify_mailbox(&self, dst: usize) {
        let mut st = self.state.lock();
        if st.mailbox_wait[dst].take().is_some() {
            st.ready.push_back(dst);
            drop(st);
            self.ready_cv.notify_one();
        }
    }

    /// A compute token was released: wake one token waiter (gate
    /// waiters share the semaphore, so they share the queue).
    pub(crate) fn notify_token(&self) {
        let mut st = self.state.lock();
        if let Some(w) = st.token_wait.pop_front() {
            st.ready.push_back(w.rank);
            drop(st);
            self.ready_cv.notify_one();
        }
    }

    /// Abort/cancel: wake every parked fiber so it can observe the
    /// condition and unwind.
    pub(crate) fn wake_all(&self) {
        let mut st = self.state.lock();
        st.wake_all();
        drop(st);
        self.ready_cv.notify_all();
    }
}

fn cancel_requested(shared: &WorldShared) -> bool {
    shared.cancel.as_ref().is_some_and(|t| t.is_cancelled())
}

/// One worker's scheduling loop: resume runnable ranks until every rank
/// in the world has finished. Runs on a thread that already has the
/// candidate's usage sink and cancel token installed.
pub(crate) fn worker_loop(shared: &WorldShared, body: &(dyn Fn(usize) + Sync)) {
    let sched = shared.sched.as_ref().expect("worker_loop on a non-multiplexed world");
    // Every thread that can resume fibers needs the SIGSEGV classifier
    // (process-wide, once) and its own sigaltstack before the first
    // resume; worker_loop is the common entry for cold mux workers and
    // warm team threads alike.
    fiber::ensure_signal_setup();
    loop {
        // Pick the next runnable rank.
        let (rank, parked) = {
            let mut st = sched.state.lock();
            loop {
                if st.finished == st.size {
                    return;
                }
                if let Some(rank) = st.ready.pop_front() {
                    let slot = std::mem::replace(&mut st.slots[rank], RankSlot::Active);
                    let parked = match slot {
                        RankSlot::Fresh => None,
                        RankSlot::Parked(f) => Some(f),
                        RankSlot::Active | RankSlot::Done => {
                            unreachable!("rank {rank} on ready queue while active/done")
                        }
                    };
                    break (rank, parked);
                }
                if cancel_requested(shared) {
                    st.wake_all();
                    if !st.ready.is_empty() {
                        continue;
                    }
                }
                match &shared.cancel {
                    Some(_) => {
                        let _ = sched.ready_cv.wait_for(&mut st, CANCEL_TICK);
                    }
                    None => sched.ready_cv.wait(&mut st),
                }
            }
        };

        let mut fib = match parked {
            Some(f) => f,
            None => {
                // First resume: give the rank a stack. The lifetime
                // erasure is sound because worker_loop only returns
                // after every fiber has finished and been dropped, and
                // the launching frame (which owns `body` and `shared`)
                // outlives all workers.
                let closure: Box<dyn FnOnce() + '_> = Box::new(move || body(rank));
                let closure: Box<dyn FnOnce() + 'static> =
                    unsafe { std::mem::transmute(closure) };
                fiber::Fiber::new(closure)
            }
        };

        let reason = fib.resume();

        let mut st = sched.state.lock();
        match reason {
            Wait::Done => {
                st.slots[rank] = RankSlot::Done;
                st.finished += 1;
                if st.finished == st.size {
                    drop(st);
                    // Everyone still picking/waiting must observe
                    // completion and return.
                    sched.ready_cv.notify_all();
                }
                drop(fib);
            }
            Wait::Mailbox { src, tag, clock } => {
                st.slots[rank] = RankSlot::Parked(fib);
                // Re-probe under the scheduler lock: any deposit that
                // raced with the fiber switching out is either visible
                // now, or its notify_mailbox is ordered after us and
                // will find the filed waiter.
                let mb = &shared.mailboxes[rank];
                if mb.probe(src, tag) || mb.is_aborted() || cancel_requested(shared) {
                    st.ready.push_back(rank);
                    drop(st);
                    sched.ready_cv.notify_one();
                } else {
                    st.mailbox_wait[rank] = Some((src, tag, clock));
                    maybe_fail_deadlock(st, shared);
                }
            }
            Wait::Token { gate, clock } => {
                st.slots[rank] = RankSlot::Parked(fib);
                if shared.tokens.available() > 0
                    || shared.tokens.is_aborted()
                    || cancel_requested(shared)
                {
                    st.ready.push_back(rank);
                    drop(st);
                    sched.ready_cv.notify_one();
                } else {
                    st.token_wait.push_back(TokenWait { rank, gate, clock });
                    maybe_fail_deadlock(st, shared);
                }
            }
            Wait::StackOverflow => {
                // The fiber escaped through the guard-page landing pad;
                // its rank can never produce a result. Record the
                // verdict and abort the world so every other rank
                // unwinds instead of waiting on the dead rank forever.
                STACK_OVERFLOWS_CAUGHT.fetch_add(1, Ordering::Relaxed);
                st.slots[rank] = RankSlot::Done;
                st.finished += 1;
                drop(st);
                let _ = shared.overflow.set(format!(
                    "rank {rank}: fiber stack overflow caught by the guard page \
                     (stack limit {} KiB); stack quarantined",
                    fiber::STACK_SIZE >> 10
                ));
                shared.abort();
                drop(fib);
            }
        }
    }
}

/// Run the wait-for-graph check after filing a waiter; on quiescence,
/// record the deadlock verdict (first reporter wins) and abort the
/// world so every parked rank wakes and unwinds. Consumes the lock
/// guard: the abort path must not hold the scheduler lock while taking
/// mailbox/semaphore locks.
fn maybe_fail_deadlock(mut st: parking_lot::MutexGuard<'_, SchedState>, shared: &WorldShared) {
    if !deadlock_detection() || cancel_requested(shared) || shared.tokens.is_aborted() {
        return;
    }
    let Some(report) = st.deadlock_report() else { return };
    drop(st);
    DEADLOCKS_DETECTED.fetch_add(1, Ordering::Relaxed);
    let _ = shared.deadlock.set(report);
    shared.abort();
}

/// Transient multiplexed execution: spawn the worker threads for one
/// run (the warm path keeps them alive in a team instead).
pub(crate) fn run_multiplexed(shared: &WorldShared, body: &(dyn Fn(usize) + Sync)) {
    let sched = shared.sched.as_ref().expect("run_multiplexed without a scheduler");
    let sink = usage::current_sink();
    let token = cancel::current_token();
    std::thread::scope(|scope| {
        for w in 0..sched.workers {
            let sink = sink.clone();
            let token = token.clone();
            std::thread::Builder::new()
                .name(format!("mpisim-mux-{w}"))
                .stack_size(1 << 21)
                .spawn_scoped(scope, move || {
                    let _usage = usage::install_sink(sink);
                    let _cancel = cancel::install_token(token);
                    worker_loop(shared, body);
                })
                .expect("failed to spawn mux worker");
        }
    });
}
