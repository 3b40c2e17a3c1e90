//! World construction and SPMD program execution.

use crate::comm::Comm;
use crate::cost::CostModel;
use crate::mailbox::Mailbox;
use crate::packet::{Packet, ReduceOp};
use crate::sched::{self, Sched};
use crate::sync::Semaphore;
use parking_lot::Mutex;
use pcg_core::cancel::CancelToken;
use pcg_core::usage::{self, Event};
use pcg_core::PcgError;
use std::collections::hash_map::{Entry, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// The host's available parallelism, read once per process: the query
/// reads cgroup files, which costs tens of microseconds per world.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
}

/// Worlds of at least this many ranks return their freed heap to the OS
/// when they end ([`release_freed_heap`]).
const TRIM_RANKS: usize = 256;

/// Return the heap memory a large world has just freed to the OS.
///
/// All of a world's ranks are alive at once, so a 512-rank world whose
/// ranks each hold a few 32 KiB buffers (MPI sort's all-reduced
/// 4096-bin histograms) peaks 30–40 MiB above its caller. glibc keeps
/// freed chunks resident in the allocating thread's arena and hands
/// memory back only from the top of a heap, so that memory would stay
/// resident after the world, while worlds on other threads allocate in
/// their own arenas: the process's peak RSS would stack them.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: takes no pointer, and glibc locks each arena it trims.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_heap() {}

/// One merged block's combine in a recursive-doubling allreduce,
/// published by the first rank of the block to compute it (see
/// [`crate::Comm::allreduce`]).
pub(crate) struct Combine {
    pub(crate) op: ReduceOp,
    /// The two buffers combined, held so that their `Arc` identity stays
    /// unique while the entry lives.
    pub(crate) inputs: [Packet; 2],
    pub(crate) output: Packet,
    /// Measured (unscaled) seconds the combine took.
    pub(crate) seconds: f64,
}

/// A published combine plus how many ranks of its block have yet to look
/// it up.
struct Slot {
    combine: Combine,
    remaining: usize,
}

/// What a rank's lookup in the shared-combine table found.
pub(crate) enum Lookup {
    /// The block's result and the seconds it took to compute.
    Hit(Packet, f64),
    /// An entry for other inputs or another op: combine privately.
    Mismatch,
    /// No entry yet: combine, then [`WorldShared::publish_combine`].
    Absent,
}

/// The shared-combine table's key: a collective round's tag and the
/// index of the merged block.
pub(crate) type CombineKey = (u32, usize);

/// Shared state of one simulated world (internal).
pub(crate) struct WorldShared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) cost: CostModel,
    pub(crate) tokens: Semaphore,
    /// Present iff this run multiplexes ranks as fibers on the calling
    /// thread.
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
    /// Allreduce combines published for the rest of their block. Every
    /// rank of a block looks an entry up (or publishes it) exactly once,
    /// and the last lookup removes it; an abort drops what is left.
    combines: Mutex<HashMap<CombineKey, Slot>>,
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

    pub(crate) fn abort(&self) {
        self.tokens.abort();
        for mb in &self.mailboxes {
            mb.abort();
        }
        // Ranks that never reach their block's lookup leave its entry
        // behind; `publish_combine` inserts nothing once this has run.
        self.combines.lock().clear();
        // Parked fibers must observe the abort and unwind.
        if let Some(s) = &self.sched {
            s.wake_all();
        }
    }

    /// Look up `key`'s published combine for a rank that paired `own`
    /// with `other` under `op`. Any entry counts the rank's one visit
    /// (the block's last visit removes it), but its result is returned
    /// only if it combined exactly these two buffers under `op`.
    pub(crate) fn take_combine(
        &self,
        key: CombineKey,
        op: ReduceOp,
        own: &Packet,
        other: &Packet,
    ) -> Lookup {
        let mut table = self.combines.lock();
        let Entry::Occupied(mut entry) = table.entry(key) else {
            return Lookup::Absent;
        };
        let slot = entry.get_mut();
        let c = &slot.combine;
        let [a, b] = &c.inputs;
        let same_inputs = (a.same_buffer(own) && b.same_buffer(other))
            || (a.same_buffer(other) && b.same_buffer(own));
        let found = if c.op == op && same_inputs {
            Lookup::Hit(c.output.clone(), c.seconds)
        } else {
            Lookup::Mismatch
        };
        slot.remaining -= 1;
        if slot.remaining == 0 {
            entry.remove();
        }
        found
    }

    /// Publish a combine for the other `ranks - 1` ranks of its block, or
    /// count this rank's visit if a racing rank of the block (on the
    /// thread-per-rank path) published first. Entries are inserted whole,
    /// so no lookup sees a half-filled one.
    pub(crate) fn publish_combine(&self, key: CombineKey, ranks: usize, combine: Combine) {
        let mut table = self.combines.lock();
        if self.tokens.is_aborted() {
            return;
        }
        match table.entry(key) {
            Entry::Vacant(v) => {
                v.insert(Slot { combine, remaining: ranks - 1 });
            }
            Entry::Occupied(mut o) => {
                o.get_mut().remaining -= 1;
                if o.get().remaining == 0 {
                    o.remove();
                }
            }
        }
    }

    /// Entries in the shared-combine table.
    #[cfg(test)]
    pub(crate) fn combines_len(&self) -> usize {
        self.combines.lock().len()
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
    /// A world of `size` ranks with the default cluster cost model and,
    /// for the thread-per-rank path, a compute-token pool sized to the
    /// physical parallelism.
    pub fn new(size: usize) -> World {
        assert!(size > 0, "world needs at least one rank");
        World { size, cost: CostModel::default(), max_tokens: cores(), force_mux: false }
    }

    /// Override the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> World {
        self.cost = cost;
        self
    }

    /// Override the compute-token pool size. It applies to the
    /// thread-per-rank path only: a fiber world runs one rank at a time
    /// and takes no token. Tests use 1 for strict determinism of measured
    /// compute on that path.
    pub fn with_max_tokens(mut self, tokens: usize) -> World {
        assert!(tokens > 0, "token pool needs at least one permit");
        self.max_tokens = tokens;
        self
    }

    /// Force this world onto the fiber scheduler even under a context that
    /// is not warm (no-op where fibers are unsupported). Containment relies on
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
    /// private [`Comm`]. Ranks run as fibers on the calling thread alone,
    /// starting no thread, where [`sched::supported`] and the calling
    /// thread's context is warm or the world [`World::multiplexed`]; else
    /// each on its own thread.
    /// Returns per-rank results and the simulated elapsed time, or the
    /// first rank failure.
    pub fn run<R, F>(&self, f: F) -> Result<SimOutcome<R>, PcgError>
    where
        R: Send,
        F: Fn(&Comm<'_>) -> R + Sync,
    {
        let wall_start = std::time::Instant::now();
        self.run_on(&self.shared(), wall_start, f)
    }

    /// This world's shared state, built on the launching thread.
    fn shared(&self) -> WorldShared {
        let tokens = self.max_tokens.min(self.size);
        let mux = sched::supported() && (self.force_mux || usage::settings().warm);
        WorldShared {
            mailboxes: (0..self.size).map(|_| Mailbox::new()).collect(),
            cost: self.cost.clone(),
            tokens: Semaphore::new(tokens),
            sched: mux.then(|| Sched::new(self.size)),
            cancel: pcg_core::cancel::current_token(),
            deadlock: OnceLock::new(),
            overflow: OnceLock::new(),
            combines: Mutex::new(HashMap::new()),
        }
    }

    /// [`World::run`] on a given shared state.
    fn run_on<R, F>(
        &self,
        shared: &WorldShared,
        wall_start: std::time::Instant,
        f: F,
    ) -> Result<SimOutcome<R>, PcgError>
    where
        R: Send,
        F: Fn(&Comm<'_>) -> R + Sync,
    {
        if shared.is_multiplexed() {
            usage::note(Event::RankMultiplexed, self.size as u64);
        }
        let results: Mutex<Vec<Option<(R, f64)>>> =
            Mutex::new((0..self.size).map(|_| None).collect());
        let failure: Mutex<Option<String>> = Mutex::new(None);
        let cancelled = std::sync::atomic::AtomicBool::new(false);

        // The per-rank program, shared by the fiber and thread-per-rank
        // paths. Runs on a thread that already has the candidate's usage
        // sink and cancel token installed.
        let rank_body = |rank: usize| {
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
                        let msg = pcg_core::cancel::panic_message(&*payload);
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
            sched::run_multiplexed(shared, &rank_body);
        } else {
            // Rank threads attribute their API usage to the
            // candidate that launched the world, not to whoever else
            // runs concurrently, and inherit its cancel token so a
            // killed candidate's ranks (and any nested shmem pools
            // they spawn) observe the kill.
            let usage_sink = usage::current_sink();
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
                                let _usage = usage::install_sink(usage_sink);
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

        if self.size >= TRIM_RANKS {
            release_freed_heap();
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

    /// Run `f` on `world`, returning the outcome (or the unwind payload)
    /// and how many shared-combine entries the world's table holds after.
    fn run_counting_combines<R: Send>(
        world: &World,
        f: impl Fn(&Comm<'_>) -> R + Sync,
    ) -> (std::thread::Result<Result<SimOutcome<R>, PcgError>>, usize) {
        let shared = world.shared();
        let start = std::time::Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| world.run_on(&shared, start, f)));
        (out, shared.combines_len())
    }

    #[test]
    fn finished_worlds_leave_no_shared_combine() {
        for size in [2, 8, 64] {
            let (out, left) = run_counting_combines(&det_world(size), |comm| {
                let rank = comm.rank();
                let op = if rank % 3 == 0 { ReduceOp::Max } else { ReduceOp::Min };
                let sums = comm.allreduce(&[rank as i64, 1], ReduceOp::Sum);
                let mixed = comm.allreduce(&[rank as u32; 3], op);
                (sums, mixed)
            });
            out.unwrap().unwrap();
            assert_eq!(left, 0, "size {size}");
        }
    }

    /// Rank 1 all-reduces while rank 0 answers its one exchange by hand,
    /// so rank 1 publishes a combine that no rank will look up. Then both
    /// run `then`.
    fn one_sided_allreduce(comm: &Comm<'_>, then: impl Fn(&Comm<'_>)) {
        use crate::comm::RESERVED_TAG_BASE;
        if comm.rank() == 0 {
            comm.send(1, RESERVED_TAG_BASE, &[7i64]);
            let _ = comm.recv::<i64>(Some(1), RESERVED_TAG_BASE);
        } else {
            let _ = comm.allreduce(&[1i64], ReduceOp::Sum);
        }
        then(comm);
    }

    #[test]
    fn aborted_worlds_drop_their_shared_combines() {
        // Finished: the orphaned entry stays until the world is dropped.
        let (out, left) = run_counting_combines(&det_world(2), |comm| {
            one_sided_allreduce(comm, |_| {});
        });
        out.unwrap().unwrap();
        assert_eq!(left, 1, "the one-sided exchange must leave an entry behind");

        // Deadlock verdict: both ranks then wait on a message nobody sends.
        let (out, left) = run_counting_combines(&det_world(2), |comm| {
            one_sided_allreduce(comm, |comm| {
                let _ = comm.recv::<i64>(Some(1 - comm.rank()), 99);
            });
        });
        assert!(matches!(out.unwrap(), Err(PcgError::Deadlock(_))));
        assert_eq!(left, 0, "a deadlock verdict must drop the table's entries");

        // Cancelled: rank 1 then computes until the token is cancelled.
        let token = pcg_core::cancel::CancelToken::new();
        let _g = pcg_core::cancel::install_token(Some(token.clone()));
        let t = token.clone();
        let timer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            t.cancel();
        });
        let (out, left) = run_counting_combines(&det_world(2), |comm| {
            one_sided_allreduce(comm, |comm| {
                if comm.rank() == 0 {
                    let _ = comm.recv::<i64>(Some(1), 99);
                }
                loop {
                    pcg_core::cancel::check_current();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        });
        timer.join().unwrap();
        assert!(pcg_core::cancel::is_cancel_payload(out.unwrap_err().as_ref()));
        assert_eq!(left, 0, "a cancelled world must drop the table's entries");
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
