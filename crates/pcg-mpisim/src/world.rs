//! World construction and SPMD program execution.

use crate::comm::Comm;
use crate::cost::CostModel;
use crate::mailbox::Mailbox;
use crate::sched::{self, Sched};
use crate::sync::Semaphore;
use parking_lot::Mutex;
use pcg_core::cancel::CancelToken;
use pcg_core::PcgError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// The host's available parallelism, read once per process: the query
/// reads cgroup files, which costs tens of microseconds per world.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
}

/// Shared state of one simulated world (internal).
pub(crate) struct WorldShared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) cost: CostModel,
    pub(crate) tokens: Semaphore,
    /// Present iff this run multiplexes ranks onto worker threads.
    pub(crate) sched: Option<Sched>,
    /// The launching candidate's cancel token (also captured by each
    /// mailbox/semaphore; kept here so the scheduler and fiber blocking
    /// loops can check it without reaching into those).
    pub(crate) cancel: Option<CancelToken>,
    /// Per-rank diagnostics set by the wait-for-graph detector when it
    /// proves the world quiescent; first reporter wins.
    pub(crate) deadlock: OnceLock<String>,
    /// Set when a fiber overran its stack into the guard page.
    pub(crate) overflow: OnceLock<String>,
}

impl WorldShared {
    pub(crate) fn is_multiplexed(&self) -> bool {
        self.sched.is_some()
    }

    pub(crate) fn notify_mailbox(&self, dst: usize) {
        if let Some(s) = &self.sched {
            s.notify_mailbox(dst);
        }
    }

    pub(crate) fn notify_token(&self) {
        if let Some(s) = &self.sched {
            s.notify_token();
        }
    }

    pub(crate) fn abort(&self) {
        self.tokens.abort();
        for mb in &self.mailboxes {
            mb.abort();
        }
        // Parked fibers must observe the abort and unwind.
        if let Some(s) = &self.sched {
            s.wake_all();
        }
    }
}

/// The result of running an SPMD program on a [`World`].
#[derive(Debug, Clone)]
pub struct SimOutcome<R> {
    /// Each rank's return value, indexed by rank.
    pub per_rank: Vec<R>,
    /// Each rank's final virtual clock, in seconds.
    pub clocks: Vec<f64>,
    /// Simulated elapsed time: the maximum final clock over ranks.
    pub elapsed: f64,
    /// Host wall-clock time of the whole simulation (thread spawning,
    /// token-serialized execution, teardown). Only useful for the
    /// virtual-vs-measured ablation: it reflects the simulator, not the
    /// simulated machine.
    pub wall_elapsed: f64,
}

impl<R> SimOutcome<R> {
    /// Rank 0's return value (where results are conventionally stored).
    pub fn root(&self) -> &R {
        &self.per_rank[0]
    }

    /// Consume the outcome, returning rank 0's value.
    pub fn into_root(mut self) -> R {
        self.per_rank.truncate(1);
        self.per_rank.pop().expect("world has at least one rank")
    }
}

/// A simulated MPI world: a rank count plus a cost model.
pub struct World {
    size: usize,
    cost: CostModel,
    max_tokens: usize,
    force_mux: bool,
}

impl World {
    /// A world of `size` ranks with the default cluster cost model and a
    /// compute-token pool sized to the physical parallelism.
    pub fn new(size: usize) -> World {
        assert!(size > 0, "world needs at least one rank");
        World { size, cost: CostModel::default(), max_tokens: cores(), force_mux: false }
    }

    /// Override the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> World {
        self.cost = cost;
        self
    }

    /// Override the compute-token pool size (tests use 1 for strict
    /// determinism of measured compute).
    pub fn with_max_tokens(mut self, tokens: usize) -> World {
        assert!(tokens > 0, "token pool needs at least one permit");
        self.max_tokens = tokens;
        self
    }

    /// Force this world onto the fiber scheduler even when the warm path
    /// is off (no-op where fibers are unsupported). Containment relies on
    /// this for hostile candidates: the deadlock detector and stack guard
    /// pages only exist on the multiplexed path, and a stack-hogging rank
    /// on a plain OS thread would take the whole process down instead of
    /// producing a verdict.
    pub fn multiplexed(mut self) -> World {
        self.force_mux = true;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` as an SPMD program: one invocation per rank, each with a
    /// private [`Comm`]. Ranks run as fibers on the calling thread plus
    /// one helper thread per further compute token when
    /// [`sched::should_multiplex`] (or [`World::multiplexed`]) says so,
    /// else each on its own thread. Returns per-rank results and the
    /// simulated elapsed time, or the first rank failure.
    pub fn run<R, F>(&self, f: F) -> Result<SimOutcome<R>, PcgError>
    where
        R: Send,
        F: Fn(&Comm<'_>) -> R + Sync,
    {
        let wall_start = std::time::Instant::now();
        let tokens = self.max_tokens.min(self.size);
        let mux = sched::should_multiplex() || (self.force_mux && sched::supported());
        let shared = WorldShared {
            mailboxes: (0..self.size).map(|_| Mailbox::new()).collect(),
            cost: self.cost.clone(),
            tokens: Semaphore::new(tokens),
            // One fiber worker per compute token: see `sched`.
            sched: mux.then(|| Sched::new(self.size, tokens)),
            cancel: pcg_core::cancel::current_token(),
            deadlock: OnceLock::new(),
            overflow: OnceLock::new(),
        };
        if shared.is_multiplexed() {
            sched::note_ranks_multiplexed(self.size as u64);
        }
        let results: Mutex<Vec<Option<(R, f64)>>> =
            Mutex::new((0..self.size).map(|_| None).collect());
        let failure: Mutex<Option<String>> = Mutex::new(None);
        let cancelled = std::sync::atomic::AtomicBool::new(false);

        // The per-rank program, shared by the fiber and thread-per-rank
        // paths. Runs on a thread that already has the candidate's usage
        // sink and cancel token installed.
        let rank_body = |rank: usize| {
            let shared = &shared;
            let comm = Comm::new(rank, shared.mailboxes.len(), shared);
            comm.acquire_token();
            if shared.tokens.is_aborted() {
                return;
            }
            let out = catch_unwind(AssertUnwindSafe(|| f(&comm)));
            match out {
                Ok(value) => {
                    let clock = comm.final_clock();
                    comm.release_token();
                    results.lock()[rank] = Some((value, clock));
                }
                Err(payload) => {
                    // `&*payload`: deref the Box so we downcast the
                    // payload, not the Box.
                    if pcg_core::cancel::is_cancel_payload(&*payload) {
                        // Harness-requested kill, not a candidate
                        // failure: remember it so the world re-unwinds
                        // with the marker after teardown.
                        cancelled.store(true, std::sync::atomic::Ordering::Release);
                    } else {
                        let msg = panic_message(&*payload);
                        let mut slot = failure.lock();
                        // First non-abort failure wins; cascade panics
                        // from the abort itself are noise.
                        let is_cascade = msg.contains("world aborted");
                        if slot.is_none() && !is_cascade {
                            *slot = Some(format!("rank {rank}: {msg}"));
                        }
                    }
                    if comm.holds_token() {
                        comm.release_token();
                    }
                    shared.abort();
                }
            }
        };

        if shared.is_multiplexed() {
            sched::run_multiplexed(&shared, &rank_body);
        } else {
            // Rank threads attribute their API usage to the
            // candidate that launched the world, not to whoever else
            // runs concurrently, and inherit its cancel token so a
            // killed candidate's ranks (and any nested shmem pools
            // they spawn) observe the kill.
            let usage_sink = pcg_core::usage::current_sink();
            let cancel_token = pcg_core::cancel::current_token();
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(self.size);
                for rank in 0..self.size {
                    let rank_body = &rank_body;
                    let usage_sink = usage_sink.clone();
                    let cancel_token = cancel_token.clone();
                    handles.push(
                        std::thread::Builder::new()
                            .name(format!("mpisim-rank-{rank}"))
                            .stack_size(1 << 21)
                            .spawn_scoped(scope, move || {
                                let _usage = pcg_core::usage::install_sink(usage_sink);
                                let _cancel = pcg_core::cancel::install_token(cancel_token);
                                rank_body(rank)
                            })
                            .expect("failed to spawn rank thread"),
                    );
                }
                for h in handles {
                    let _ = h.join();
                }
            });
        }

        if cancelled.load(std::sync::atomic::Ordering::Acquire) {
            // Every rank thread has joined; resume the cooperative
            // cancellation unwind on the candidate thread.
            pcg_core::cancel::panic_cancelled();
        }
        // Containment verdicts outrank the abort-cascade noise: a
        // detected deadlock or caught overflow aborted the world itself,
        // and any `failure` recorded afterwards is a symptom.
        if let Some(msg) = shared.overflow.get() {
            return Err(PcgError::StackOverflow(msg.clone()));
        }
        if let Some(msg) = shared.deadlock.get() {
            return Err(PcgError::Deadlock(msg.clone()));
        }
        if let Some(msg) = failure.into_inner() {
            return Err(PcgError::Runtime(msg));
        }
        let mut per_rank = Vec::with_capacity(self.size);
        let mut clocks = Vec::with_capacity(self.size);
        for slot in results.into_inner() {
            // A rank may have exited early only if the world aborted, in
            // which case `failure` was set above.
            let (value, clock) = slot.ok_or_else(|| {
                PcgError::Runtime("rank exited without result".into())
            })?;
            per_rank.push(value);
            clocks.push(clock);
        }
        let elapsed = clocks.iter().copied().fold(0.0f64, f64::max);
        Ok(SimOutcome {
            per_rank,
            clocks,
            elapsed,
            wall_elapsed: wall_start.elapsed().as_secs_f64(),
        })
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if pcg_core::cancel::is_cancel_payload(payload) {
        "cancelled".to_string()
    } else {
        "rank panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::block_range;
    use crate::packet::ReduceOp;

    fn det_world(size: usize) -> World {
        World::new(size).with_cost_model(CostModel::deterministic())
    }

    #[test]
    fn single_rank_world() {
        let out = det_world(1).run(|comm| comm.rank() + comm.size()).unwrap();
        assert_eq!(out.per_rank, vec![1]);
        assert_eq!(out.elapsed, 0.0);
    }

    #[test]
    fn p2p_roundtrip() {
        let out = det_world(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, &[1.5f64, 2.5]);
                    comm.recv::<f64>(Some(1), 8)
                } else {
                    let got = comm.recv::<f64>(Some(0), 7);
                    let doubled: Vec<f64> = got.iter().map(|x| x * 2.0).collect();
                    comm.send(0, 8, &doubled);
                    got
                }
            })
            .unwrap();
        assert_eq!(out.per_rank[0], vec![3.0, 5.0]);
        assert_eq!(out.per_rank[1], vec![1.5, 2.5]);
        assert!(out.elapsed > 0.0, "virtual time advanced by comm costs");
    }

    #[test]
    fn any_source_receive() {
        let out = det_world(4)
            .run(|comm| {
                if comm.rank() == 0 {
                    let mut sum = 0i64;
                    for _ in 1..comm.size() {
                        sum += comm.recv_one::<i64>(None, 3);
                    }
                    sum
                } else {
                    comm.send_one(0, 3, comm.rank() as i64);
                    0
                }
            })
            .unwrap();
        assert_eq!(out.per_rank[0], 6);
    }

    #[test]
    fn bcast_all_roots() {
        for size in [1, 2, 3, 5, 8] {
            for root in [0, size - 1, size / 2] {
                let out = det_world(size)
                    .run(|comm| {
                        let mut data = if comm.rank() == root {
                            vec![42i64, 7]
                        } else {
                            vec![]
                        };
                        comm.bcast(root, &mut data);
                        data
                    })
                    .unwrap();
                for r in out.per_rank {
                    assert_eq!(r, vec![42, 7], "size={size} root={root}");
                }
            }
        }
    }

    #[test]
    fn reduce_and_allreduce() {
        for size in [1, 2, 4, 6, 7, 16] {
            let out = det_world(size)
                .run(|comm| {
                    let local = vec![comm.rank() as f64, 1.0];
                    let red = comm.reduce(0, &local, ReduceOp::Sum);
                    let all = comm.allreduce(&local, ReduceOp::Sum);
                    (red, all)
                })
                .unwrap();
            let expect_sum = (0..size).sum::<usize>() as f64;
            for (rank, (red, all)) in out.per_rank.iter().enumerate() {
                assert_eq!(all, &vec![expect_sum, size as f64], "size={size}");
                if rank == 0 {
                    assert_eq!(red.as_ref().unwrap(), &vec![expect_sum, size as f64]);
                } else {
                    assert!(red.is_none());
                }
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = det_world(5)
            .run(|comm| {
                let r = comm.rank() as i64;
                (
                    comm.allreduce_one(r, ReduceOp::Min),
                    comm.allreduce_one(r, ReduceOp::Max),
                )
            })
            .unwrap();
        for (mn, mx) in out.per_rank {
            assert_eq!((mn, mx), (0, 4));
        }
    }

    #[test]
    fn scan_and_exscan() {
        for size in [1, 2, 3, 8, 9] {
            let out = det_world(size)
                .run(|comm| {
                    let inc = comm.scan_one((comm.rank() + 1) as i64, ReduceOp::Sum);
                    let exc = comm.exscan_one((comm.rank() + 1) as i64, ReduceOp::Sum);
                    (inc, exc)
                })
                .unwrap();
            for (rank, (inc, exc)) in out.per_rank.iter().enumerate() {
                let want_inc: i64 = (1..=rank as i64 + 1).sum();
                assert_eq!(*inc, want_inc, "size={size} rank={rank}");
                assert_eq!(*exc, want_inc - (rank as i64 + 1), "size={size} rank={rank}");
            }
        }
    }

    #[test]
    fn gather_allgather() {
        let out = det_world(4)
            .run(|comm| {
                let local = vec![comm.rank() as u32; comm.rank() + 1];
                (comm.gather(0, &local), comm.allgather(&local))
            })
            .unwrap();
        let want: Vec<u32> = vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3];
        for (rank, (g, ag)) in out.per_rank.iter().enumerate() {
            assert_eq!(ag, &want);
            if rank == 0 {
                assert_eq!(g.as_ref().unwrap(), &want);
            } else {
                assert!(g.is_none());
            }
        }
    }

    #[test]
    fn scatter_blocks_roundtrip() {
        let data: Vec<f64> = (0..103).map(|i| i as f64).collect();
        let data_ref = &data;
        let out = det_world(5)
            .run(|comm| {
                let chunk = comm.scatter_blocks(
                    0,
                    (comm.rank() == 0).then_some(data_ref.as_slice()),
                    data_ref.len(),
                );
                comm.gather(0, &chunk)
            })
            .unwrap();
        assert_eq!(out.per_rank[0].as_ref().unwrap(), &data);
    }

    #[test]
    fn alltoall_exchanges() {
        let out = det_world(3)
            .run(|comm| {
                let chunks: Vec<Vec<i64>> = (0..comm.size())
                    .map(|dst| vec![(comm.rank() * 10 + dst) as i64])
                    .collect();
                comm.alltoall(chunks)
            })
            .unwrap();
        // Rank d receives chunk [s*10 + d] from each source s.
        for (d, got) in out.per_rank.iter().enumerate() {
            let want: Vec<Vec<i64>> = (0..3).map(|s| vec![(s * 10 + d) as i64]).collect();
            assert_eq!(got, &want, "dst={d}");
        }
    }

    #[test]
    fn barrier_completes() {
        for size in [1, 2, 5, 8] {
            det_world(size)
                .run(|comm| {
                    for _ in 0..3 {
                        comm.barrier();
                    }
                })
                .unwrap();
        }
    }

    #[test]
    fn wall_elapsed_reported() {
        let out = det_world(4).run(|comm| comm.rank()).unwrap();
        assert!(out.wall_elapsed > 0.0);
    }

    #[test]
    fn recv_type_mismatch_is_a_runtime_error() {
        let err = det_world(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 5, &[1.0f64]);
                } else {
                    // Wrong element type: the MPI datatype-mismatch analog.
                    let _ = comm.recv::<i64>(Some(0), 5);
                }
            })
            .unwrap_err();
        match err {
            PcgError::Runtime(msg) => assert!(msg.contains("type mismatch"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn send_out_of_range_is_a_runtime_error() {
        let err = det_world(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(5, 1, &[1.0f64]);
                }
            })
            .unwrap_err();
        assert!(matches!(err, PcgError::Runtime(_)));
    }

    #[test]
    fn rank_panic_becomes_error() {
        let err = det_world(4)
            .run(|comm| {
                if comm.rank() == 2 {
                    panic!("deliberate failure");
                }
                // Other ranks block forever; the abort must release them.
                let _ = comm.recv::<i64>(Some(2), 99);
            })
            .unwrap_err();
        match err {
            PcgError::Runtime(msg) => {
                assert!(msg.contains("deliberate failure"), "{msg}");
                assert!(msg.contains("rank 2"), "{msg}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn cancelled_world_unwinds_deadlocked_ranks() {
        // Rank 0 blocks on a receive rank 1 never sends, while rank 1
        // hangs computing (so the fiber scheduler's deadlock detector,
        // which needs every rank parked, cannot step in). Cancelling the
        // token must tear the world down and re-unwind with the
        // Cancelled marker.
        let token = pcg_core::cancel::CancelToken::new();
        let _g = pcg_core::cancel::install_token(Some(token.clone()));
        let t = token.clone();
        let timer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            t.cancel();
        });
        let result = catch_unwind(AssertUnwindSafe(|| {
            det_world(2).run(|comm| {
                if comm.rank() == 0 {
                    let _ = comm.recv::<i64>(Some(1), 9);
                } else {
                    loop {
                        pcg_core::cancel::check_current();
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            })
        }));
        timer.join().unwrap();
        assert!(pcg_core::cancel::is_cancel_payload(result.unwrap_err().as_ref()));
    }

    #[test]
    fn virtual_time_scales_with_message_size() {
        let run = |bytes: usize| {
            det_world(2)
                .run(move |comm| {
                    if comm.rank() == 0 {
                        comm.send(1, 1, &vec![0f64; bytes / 8]);
                    } else {
                        let _ = comm.recv::<f64>(Some(0), 1);
                    }
                })
                .unwrap()
                .elapsed
        };
        let small = run(64);
        let big = run(64 << 20);
        assert!(big > small * 100.0, "big={big} small={small}");
    }

    #[test]
    fn inter_node_costlier_than_intra() {
        let elapsed = |size: usize, dst: usize| {
            det_world(size)
                .run(move |comm| {
                    if comm.rank() == 0 {
                        comm.send(dst, 1, &vec![0f64; 1 << 16]);
                    } else if comm.rank() == dst {
                        let _ = comm.recv::<f64>(Some(0), 1);
                    }
                })
                .unwrap()
                .elapsed
        };
        // Rank 1 shares node 0; rank 64 is on node 1 (64 ranks/node).
        assert!(elapsed(65, 64) > elapsed(65, 1));
    }

    #[test]
    fn many_ranks_run_on_laptop() {
        let out = det_world(128)
            .run(|comm| {
                let local = block_range(1 << 12, comm.size(), comm.rank()).len() as i64;
                comm.allreduce_one(local, ReduceOp::Sum)
            })
            .unwrap();
        for v in out.per_rank {
            assert_eq!(v, 1 << 12);
        }
    }

    #[test]
    fn advance_adds_modeled_compute() {
        let out = det_world(2)
            .run(|comm| {
                if comm.rank() == 1 {
                    comm.advance(0.25);
                }
                comm.clock()
            })
            .unwrap();
        assert!(out.per_rank[1] >= 0.25);
        assert_eq!(out.elapsed, out.clocks.iter().copied().fold(0.0, f64::max));
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        // Virtual elapsed time for an 8-byte allreduce should grow
        // roughly like log2(P), not P.
        let elapsed = |p: usize| {
            det_world(p)
                .run(|comm| comm.allreduce_one(1.0f64, ReduceOp::Sum))
                .unwrap()
                .elapsed
        };
        let t8 = elapsed(8);
        let t64 = elapsed(64);
        // log2(64)/log2(8) = 2; allow generous slack but reject linear
        // (which would be 8x).
        assert!(t64 < t8 * 4.0, "t8={t8} t64={t64}");
        assert!(t64 > t8, "t8={t8} t64={t64}");
    }
}
