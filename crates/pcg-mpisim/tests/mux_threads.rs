//! Acceptance check for the rank multiplexer: a 512-rank world must run
//! on the calling thread alone — starting no OS thread, let alone 512 —
//! while producing records byte-identical to the thread-per-rank path.
//!
//! The thread ceiling is observed via `/proc/self/status` (`Threads:`
//! line), sampled by a monitor thread while the world runs and by every
//! rank, so the assertion covers every thread the simulator creates,
//! not just the ones it admits to.
//!
//! One `#[test]` only: a sibling test's threads would show up in the
//! count.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use pcg_core::usage::{Context, Event, Settings, UsageScope};
use pcg_mpisim::sched;
use pcg_mpisim::{CostModel, ReduceOp, World};

const RANKS: usize = 512;

fn os_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// Runs the world; every rank folds the thread count it sees into `peak`.
fn run_world(ranks: usize, peak: &AtomicUsize) -> (Vec<i64>, Vec<f64>) {
    let out = World::new(ranks)
        .with_cost_model(CostModel::deterministic())
        .run(move |comm| {
            peak.fetch_max(os_thread_count(), Ordering::Relaxed);
            let rank = comm.rank() as i64;
            let sum = comm.allreduce_one(rank, ReduceOp::Sum);
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let (from_left,) = {
                let got = comm.sendrecv(right, 7, &[rank], left, 7);
                (got[0],)
            };
            sum + from_left
        })
        .unwrap();
    (out.per_rank, out.clocks)
}

#[test]
fn mpi512_runs_on_bounded_os_threads_with_identical_records() {
    assert!(sched::supported(), "multiplexer must be available on linux/x86_64");

    // --- Multiplexed run under a thread-count monitor. ---------------------
    let baseline = os_thread_count();
    let scope = UsageScope::begin();

    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(baseline));
    let monitor = {
        let stop = Arc::clone(&stop);
        let peak = Arc::clone(&peak);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(os_thread_count(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        })
    };

    let (mux_results, mux_clocks) = run_world(RANKS, &peak);

    stop.store(true, Ordering::Relaxed);
    monitor.join().unwrap();
    let usage = scope.finish();

    // The monitor is the only extra thread allowed: the world runs its
    // fibers on the calling thread and starts none.
    let extra = peak.load(Ordering::Relaxed).saturating_sub(baseline);
    assert!(
        extra <= 1,
        "512-rank world added {extra} OS threads (monitor included); \
         a fiber world must start none"
    );
    assert_eq!(
        usage.events(Event::RankMultiplexed),
        RANKS as u64,
        "all 512 ranks must have run as fibers"
    );

    // --- Thread-per-rank reference: records must be byte-identical. --------
    let thread_per_rank = Settings { warm: false, ..Settings::default() };
    let reference = UsageScope::begin_in(Context::new(thread_per_rank));
    let (thr_results, thr_clocks) = run_world(RANKS, &AtomicUsize::new(0));
    drop(reference);

    let expect_sum: i64 = (0..RANKS as i64).sum();
    for (rank, &v) in mux_results.iter().enumerate() {
        let left = (rank + RANKS - 1) % RANKS;
        assert_eq!(v, expect_sum + left as i64, "rank {rank} result");
    }
    assert_eq!(mux_results, thr_results, "results differ across execution paths");
    assert_eq!(
        mux_clocks, thr_clocks,
        "virtual clocks must be bit-identical across execution paths"
    );
}
