//! Under the default (warm) context, a hybrid world's ranks run as fibers on the
//! calling thread alone, like any fiber world: a 4 x 64 world (the
//! paper's largest hybrid shape) must add no OS thread, neither for its
//! rank layer nor for its timed per-rank pools.
//!
//! Every rank reads the process's thread count from `/proc/self/status`
//! (`Threads:` line) around its threaded section, so the count covers
//! every thread the world has created by the time any rank runs. One
//! `#[test]` only: a sibling test's threads would show up in the count.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use pcg_hybrid::HybridWorld;
use pcg_mpisim::ReduceOp;
use std::sync::atomic::{AtomicUsize, Ordering};

fn os_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

#[test]
fn hybrid_4x64_world_adds_no_os_thread() {
    let baseline = os_thread_count();
    let peak = AtomicUsize::new(baseline);
    let n = 1 << 16;
    let out = HybridWorld::new(4, 64)
        .run(|ctx| {
            peak.fetch_max(os_thread_count(), Ordering::Relaxed);
            let comm = ctx.comm();
            let range = pcg_mpisim::block_range(n, comm.size(), comm.rank());
            let partial = ctx.par_reduce(range, 0i64, |a, i| a + i as i64, |a, b| a + b);
            peak.fetch_max(os_thread_count(), Ordering::Relaxed);
            comm.allreduce_one(partial, ReduceOp::Sum)
        })
        .expect("4 x 64 hybrid world");

    let want = (n as i64) * (n as i64 - 1) / 2;
    assert!(out.per_rank.iter().all(|&s| s == want));
    let extra = peak.load(Ordering::Relaxed) - baseline;
    assert_eq!(extra, 0, "a 4 x 64 hybrid world added {extra} OS threads");
}
