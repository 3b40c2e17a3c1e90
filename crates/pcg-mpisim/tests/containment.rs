//! Containment conformance: the wait-for-graph deadlock detector and the
//! guard-paged fiber stacks must convert hostile candidates into
//! immediate, deterministic verdicts.
//!
//! One `#[test]` only: the sched counters and deadlock-detection toggle
//! are process-global, so the sections must run sequentially.

#![cfg(all(target_arch = "x86_64", unix))]

use pcg_core::PcgError;
use pcg_mpisim::{sched, CostModel, World};
use std::time::Instant;

/// Tag no rank ever sends.
const NEVER_SENT: u32 = 0x00C0_FFEE;

/// Recursion that consumes the fiber stack in ~4 KiB frames: far smaller
/// than the guard region, so no frame can leap the guard page.
#[allow(unconditional_recursion)]
#[inline(never)]
fn burn(depth: u64) -> u64 {
    let mut buf = [0u8; 4096];
    buf[0] = depth as u8;
    std::hint::black_box(&mut buf);
    burn(depth + 1) ^ u64::from(std::hint::black_box(buf[4095]))
}

fn deadlock_world(size: usize) -> Result<(), PcgError> {
    // Deterministic cost model: park-time clocks in the verdict are then
    // a pure function of the message graph, so the diagnostics are
    // byte-identical across runs and worker counts.
    World::new(size)
        .with_cost_model(CostModel::deterministic())
        .multiplexed()
        .run(|comm| {
            let partner = (comm.rank() + 1) % comm.size();
            let _: Vec<f64> = comm.recv(Some(partner), NEVER_SENT);
        })
        .map(|_| ())
}

fn expect_deadlock(r: Result<(), PcgError>) -> String {
    match r {
        Err(PcgError::Deadlock(msg)) => msg,
        other => panic!("expected deadlock verdict, got {other:?}"),
    }
}

#[test]
fn containment_battery() {
    assert!(sched::supported(), "containment requires the fiber scheduler");

    // --- deadlock: fail-fast with per-rank diagnostics -----------------
    let t0 = Instant::now();
    let msg = expect_deadlock(deadlock_world(4));
    assert!(
        t0.elapsed().as_secs_f64() < 10.0,
        "deadlock verdict must not wait out any timeout"
    );
    assert!(msg.contains("wait-for-graph quiescent"), "missing quiescence claim: {msg}");
    for rank in 0..4 {
        assert!(msg.contains(&format!("rank {rank} waits recv(src=")), "missing rank {rank}: {msg}");
    }
    assert!(msg.contains("at t="), "missing virtual-time stamp: {msg}");

    // Determinism: the verdict text is a pure function of the wait-for
    // graph, so repeated runs must agree byte-for-byte.
    assert_eq!(msg, expect_deadlock(deadlock_world(4)));

    // The detector counted each world exactly once.
    let base = sched::stats();
    expect_deadlock(deadlock_world(2));
    let after = sched::stats();
    assert_eq!(after.deadlocks_detected - base.deadlocks_detected, 1);

    // --- detector toggle: off means no verdict, candidates hang --------
    // (Exercised indirectly: with detection off a deadlock world would
    // block forever, so instead verify the toggle round-trips and leave
    // the hang measurement to the containment gate in
    // `pcg-harness/tests/perf_gates.rs`, which bounds it with a harness
    // timeout.)
    sched::set_deadlock_detection(false);
    sched::set_deadlock_detection(true);

    // --- exhaustive overflow battery -----------------------------------
    // Every overflow must be caught by the guard page (fault classified,
    // verdict emitted) and NEVER by the legacy canary word: a canary
    // detection would panic with a distinct message and surface here as
    // a Runtime error instead of StackOverflow.
    let base = sched::stats();
    const N: u64 = 32;
    for i in 0..N {
        let run = World::new(1).multiplexed().run(|comm| {
            if comm.rank() == 0 {
                std::hint::black_box(burn(0));
            }
        });
        match run {
            Err(PcgError::StackOverflow(msg)) => {
                assert!(msg.contains("guard page"), "iteration {i}: {msg}");
                assert!(!msg.contains("canary"), "iteration {i} canary-only detection: {msg}");
            }
            other => panic!("iteration {i}: expected stack-overflow verdict, got {other:?}"),
        }
    }
    let after = sched::stats();
    assert_eq!(
        after.stack_overflows_caught - base.stack_overflows_caught,
        N,
        "every overflow must be converted into a verdict"
    );
    assert_eq!(
        after.guard_faults - base.guard_faults,
        N,
        "every overflow must be classified via the guard page"
    );

    // --- overflow wins over peers' blocked receives ---------------------
    // One hog among well-behaved ranks: the world aborts with the
    // overflow verdict, not deadlock, not a hang.
    let run = World::new(4).multiplexed().run(|comm| {
        if comm.rank() == 2 {
            std::hint::black_box(burn(0));
        } else {
            let _: Vec<f64> = comm.recv(Some(2), NEVER_SENT);
        }
    });
    match run {
        Err(PcgError::StackOverflow(msg)) => {
            assert!(msg.contains("rank 2"), "verdict must name the hog: {msg}")
        }
        other => panic!("expected stack-overflow verdict, got {other:?}"),
    }

    // --- healthy worlds are untouched -----------------------------------
    // A normal message pattern on the same forced-mux path must complete
    // with no spurious verdicts.
    let out = World::new(4)
        .multiplexed()
        .run(|comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_one(next, 7, comm.rank() as i64);
            comm.recv_one::<i64>(Some(prev), 7)
        })
        .expect("healthy ring must complete");
    let mut got = out.per_rank.clone();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2, 3]);
}
