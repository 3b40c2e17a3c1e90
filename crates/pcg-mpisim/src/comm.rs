//! The per-rank communicator handle.
//!
//! [`Comm`] is the `MPI_COMM_WORLD` analog each rank program receives.
//! Point-to-point operations move real data between rank threads and
//! advance virtual clocks per the world's [`crate::CostModel`].
//! Collectives are built on top of point-to-point with the classical
//! algorithms (binomial broadcast/reduce, recursive-doubling allreduce,
//! Hillis–Steele scan, ring allgather, dissemination barrier), so their
//! log-P virtual-time scaling emerges from the p2p model.
//!
//! ## Transport is zero-copy
//!
//! Payloads are `Arc`-shared ([`crate::Packet`]): the tree, ring and
//! recursive-doubling collectives forward the *same* buffer from hop to
//! hop (a refcount bump, counted in `bytes_zero_copied`), and receivers
//! get copy-on-write ownership — data is duplicated only when a rank
//! actually takes a mutable copy while another hop still holds the
//! buffer. Virtual time is charged by logical payload size, so the
//! sharing is invisible to the cost model. An integer allreduce also
//! shares each round's combined buffer across the ranks of a block (see
//! [`Comm::allreduce`]).
//!
//! ## Two blocking disciplines
//!
//! On the thread-per-rank path, a blocked `recv`/token wait parks the
//! rank's OS thread on a condvar, and a rank releases its compute token
//! on first block and reacquires it after. On the multiplexed path
//! ([`crate::sched`]), the same wait parks the rank's *fiber* with the
//! scheduler and the calling thread runs another rank; one fiber runs
//! at a time, so there is no token. On both paths the wall mark
//! restarts when the rank runs again, so measured-compute accounting
//! is identical.

use crate::mailbox::Envelope;
use crate::packet::{combine, combine_into, Elem, Packet, ReduceOp};
use crate::sched::{self, Wait};
use crate::world::{Combine, CombineKey, Lookup, WorldShared};
use pcg_core::usage::{self, Event};
use pcg_core::ExecutionModel;
use std::cell::Cell;
use std::time::Instant;

/// Tags at or above this value are reserved for collectives.
pub const RESERVED_TAG_BASE: u32 = 0x4000_0000;

/// A rank's handle to the simulated world.
pub struct Comm<'w> {
    rank: usize,
    size: usize,
    shared: &'w WorldShared,
    clock: Cell<f64>,
    mark: Cell<Instant>,
    coll_seq: Cell<u32>,
    has_token: Cell<bool>,
}

impl<'w> Comm<'w> {
    pub(crate) fn new(rank: usize, size: usize, shared: &'w WorldShared) -> Comm<'w> {
        Comm {
            rank,
            size,
            shared,
            clock: Cell::new(0.0),
            mark: Cell::new(Instant::now()),
            coll_seq: Cell::new(0),
            has_token: Cell::new(false),
        }
    }

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time in seconds (the `MPI_Wtime` analog).
    pub fn clock(&self) -> f64 {
        self.flush_compute();
        self.clock.get()
    }

    /// Add `dt` seconds of modeled work to this rank's clock (used for
    /// explicitly modeled compute, e.g. in tests and the hybrid layer).
    pub fn advance(&self, dt: f64) {
        self.flush_compute();
        self.clock.set(self.clock.get() + dt.max(0.0));
    }

    /// Charge `seconds` of compute measured elsewhere to this rank's
    /// clock, scaled like the rank's own measured compute
    /// (`compute_scale`), as if the rank had just run it.
    pub fn charge_compute(&self, seconds: f64) {
        self.advance(seconds * self.shared.cost.compute_scale);
    }

    // ---- token & clock internals -------------------------------------

    /// Start (or resume) measured compute: on the thread-per-rank path,
    /// block for a compute token; on both paths, restart the wall mark.
    /// A fiber needs no token, since it is the only one running.
    pub(crate) fn acquire_token(&self) {
        if !self.shared.is_multiplexed() {
            if !self.shared.tokens.acquire() {
                abort_panic();
            }
            self.has_token.set(true);
        }
        self.mark.set(Instant::now());
    }

    /// Enter a modeled compute section: (re)acquire the compute-admission
    /// token if this rank does not already hold one, and restart the
    /// wall-clock mark so only time inside the gate is charged. On the
    /// fiber path this only restarts the mark.
    pub fn compute_gate_enter(&self) {
        if self.has_token.get() {
            self.mark.set(Instant::now());
        } else {
            self.acquire_token();
        }
    }

    /// Leave a modeled compute section: fold the elapsed wall-clock into
    /// the virtual clock, then release the admission token so a
    /// gate-parked peer can run. Pairs with [`Comm::compute_gate_enter`].
    pub fn compute_gate_exit(&self) {
        self.flush_compute();
        self.release_token();
    }

    pub(crate) fn release_token(&self) {
        if self.has_token.replace(false) {
            self.shared.tokens.release();
        }
    }

    pub(crate) fn holds_token(&self) -> bool {
        self.has_token.get()
    }

    pub(crate) fn final_clock(&self) -> f64 {
        self.flush_compute();
        self.clock.get()
    }

    /// Fold real elapsed time since the last mark into the virtual clock
    /// (scaled), and reset the mark.
    fn flush_compute(&self) {
        let now = Instant::now();
        let dt = now.duration_since(self.mark.get()).as_secs_f64();
        self.mark.set(now);
        let scale = self.shared.cost.compute_scale;
        if scale > 0.0 {
            self.clock.set(self.clock.get() + dt * scale);
        }
    }

    fn check_alive(&self) {
        if self.shared.tokens.is_aborted() {
            abort_panic();
        }
    }

    fn next_coll_base(&self) -> u32 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1) & 0x003F_FFFF);
        RESERVED_TAG_BASE + (seq << 6)
    }

    // ---- transport internals -----------------------------------------

    /// Charge send costs and deposit `packet` at `dst`. Every send path
    /// (fresh, moved, forwarded) funnels through here, so virtual-time
    /// arithmetic is identical regardless of how the buffer travels.
    fn send_packet(&self, dst: usize, tag: u32, packet: Packet) {
        usage::record(ExecutionModel::Mpi);
        self.check_alive();
        assert!(dst < self.size, "send to rank {dst} out of range (size {})", self.size);
        self.flush_compute();
        let bytes = packet.byte_len();
        let t = self.clock.get() + self.shared.cost.send_overhead;
        self.clock.set(t);
        let available_at = t + self.shared.cost.wire_time(self.rank, dst, bytes);
        self.shared.mailboxes[dst].deposit(Envelope {
            src: self.rank,
            tag,
            packet,
            available_at,
        });
        self.shared.notify_mailbox(dst);
    }

    /// Send an owned vector: the buffer is moved into the packet, never
    /// copied (for values the sender will not read again).
    fn send_vec<T: Elem>(&self, dst: usize, tag: u32, data: Vec<T>) {
        usage::note(Event::ByteZeroCopied, (data.len() * T::BYTES) as u64);
        self.send_packet(dst, tag, T::wrap(data));
    }

    /// Forward an in-flight buffer to the next hop of a collective: an
    /// `Arc` clone, not a data copy.
    fn forward(&self, dst: usize, tag: u32, packet: &Packet) {
        usage::note(Event::ByteZeroCopied, packet.byte_len() as u64);
        self.send_packet(dst, tag, packet.clone());
    }

    /// Blocking receive of a raw envelope, with the token (if any)
    /// released while blocked and reacquired after. Both execution paths
    /// meet the same postcondition: clock advanced to
    /// `max(clock, available_at) + recv_overhead`.
    fn recv_envelope(&self, src: Option<usize>, tag: u32) -> Envelope {
        usage::record(ExecutionModel::Mpi);
        self.check_alive();
        if let Some(s) = src {
            assert!(s < self.size, "recv from rank {s} out of range (size {})", self.size);
        }
        self.flush_compute();
        let mut released = false;
        let got = if self.shared.is_multiplexed() {
            self.take_matching_mux(src, tag, &mut released)
        } else {
            self.shared.mailboxes[self.rank].take_matching(src, tag, &mut || {
                // Release the compute token before blocking so other
                // rank threads can run; `release_token` only touches
                // Cells and the semaphore, never the mailbox lock we
                // hold (and no scheduler exists on this path).
                if self.has_token.replace(false) {
                    self.shared.tokens.release();
                }
                released = true;
            })
            .map(|(env, _)| env)
        };
        let Some(env) = got else { abort_panic() };
        if released {
            self.acquire_token();
        }
        let arrived = self.clock.get().max(env.available_at) + self.shared.cost.recv_overhead;
        self.clock.set(arrived);
        env
    }

    /// Fiber-mode receive loop: poll the mailbox, park with the
    /// scheduler on failure. Sets `blocked` once the rank has parked, so
    /// the caller restarts the wall mark as `Mailbox::take_matching`'s
    /// callers do.
    fn take_matching_mux(
        &self,
        src: Option<usize>,
        tag: u32,
        blocked: &mut bool,
    ) -> Option<Envelope> {
        let mb = &self.shared.mailboxes[self.rank];
        loop {
            if let Some(t) = &self.shared.cancel {
                t.check();
            }
            if mb.is_aborted() {
                return None;
            }
            if let Some(env) = mb.try_take(src, tag) {
                return Some(env);
            }
            *blocked = true;
            sched::yield_fiber(Wait::Mailbox { src, tag, clock: self.clock.get() });
        }
    }

    /// Receive a typed packet, panicking (and thus aborting the world)
    /// on a payload type mismatch, mirroring an MPI datatype error.
    fn recv_packet<T: Elem>(&self, src: Option<usize>, tag: u32) -> Packet {
        let env = self.recv_envelope(src, tag);
        if T::view(&env.packet).is_none() {
            panic!(
                "mpisim: recv type mismatch at rank {} (tag {tag}, from {})",
                self.rank, env.src
            );
        }
        env.packet
    }

    // ---- point to point ----------------------------------------------

    /// Eager (buffered, non-blocking completion) send of a typed slice.
    pub fn send<T: Elem>(&self, dst: usize, tag: u32, data: &[T]) {
        self.send_packet(dst, tag, T::wrap(data.to_vec()));
    }

    /// [`Comm::send`] for a buffer the sender is done with: the vector
    /// is moved into the packet, so the payload bytes are never copied
    /// (counted in the `bytes_zero_copied` stat). Semantically
    /// identical to `send` — same virtual-time charges, same matching —
    /// it only changes who owns the allocation.
    pub fn send_owned<T: Elem>(&self, dst: usize, tag: u32, data: Vec<T>) {
        self.send_vec(dst, tag, data);
    }

    /// Blocking receive of a typed slice. `src = None` matches any
    /// source. Panics (aborting the world) on a payload type mismatch,
    /// mirroring an MPI datatype error.
    pub fn recv<T: Elem>(&self, src: Option<usize>, tag: u32) -> Vec<T> {
        let env = self.recv_envelope(src, tag);
        match T::unwrap(env.packet) {
            Some(v) => v,
            None => panic!(
                "mpisim: recv type mismatch at rank {} (tag {tag}, from {})",
                self.rank, env.src
            ),
        }
    }

    /// Non-blocking probe for a matching message (`MPI_Iprobe` analog).
    pub fn probe(&self, src: Option<usize>, tag: u32) -> bool {
        usage::record(ExecutionModel::Mpi);
        self.check_alive();
        self.shared.mailboxes[self.rank].probe(src, tag)
    }

    /// Number of undelivered messages queued at this rank (diagnostics).
    pub fn pending_messages(&self) -> usize {
        self.shared.mailboxes[self.rank].pending()
    }

    /// Combined send-then-receive (deadlock-free thanks to eager sends).
    pub fn sendrecv<T: Elem>(
        &self,
        dst: usize,
        send_tag: u32,
        data: &[T],
        src: usize,
        recv_tag: u32,
    ) -> Vec<T> {
        self.send(dst, send_tag, data);
        self.recv(Some(src), recv_tag)
    }

    /// Send a single element.
    pub fn send_one<T: Elem>(&self, dst: usize, tag: u32, value: T) {
        self.send(dst, tag, &[value]);
    }

    /// Receive a single element.
    pub fn recv_one<T: Elem>(&self, src: Option<usize>, tag: u32) -> T {
        let v = self.recv::<T>(src, tag);
        assert_eq!(v.len(), 1, "recv_one got {} elements", v.len());
        v[0]
    }

    // ---- collectives ---------------------------------------------------

    /// Dissemination barrier: ceil(log2 P) rounds of pairwise signals.
    pub fn barrier(&self) {
        usage::record(ExecutionModel::Mpi);
        let base = self.next_coll_base();
        if self.size == 1 {
            return;
        }
        let mut k = 0u32;
        let mut d = 1usize;
        while d < self.size {
            let dst = (self.rank + d) % self.size;
            let src = (self.rank + self.size - d) % self.size;
            self.send::<i64>(dst, base + k, &[]);
            let _ = self.recv::<i64>(Some(src), base + k);
            d <<= 1;
            k += 1;
        }
    }

    /// Binomial-tree broadcast from `root`. On non-root ranks the buffer
    /// is replaced by the received data. One buffer travels the whole
    /// tree: the root moves its vector into a packet and every interior
    /// rank forwards the packet it received, so no hop copies payload.
    pub fn bcast<T: Elem>(&self, root: usize, data: &mut Vec<T>) {
        usage::record(ExecutionModel::Mpi);
        assert!(root < self.size, "bcast root out of range");
        let base = self.next_coll_base();
        if self.size == 1 {
            return;
        }
        let relative = (self.rank + self.size - root) % self.size;
        let real = |v: usize| (v + root) % self.size;
        // Receive phase: find parent.
        let mut received: Option<Packet> = None;
        let mut mask = 1usize;
        while mask < self.size {
            if relative & mask != 0 {
                received = Some(self.recv_packet::<T>(Some(real(relative - mask)), base));
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward the shared buffer to children.
        mask >>= 1;
        if mask > 0 {
            let packet = match received {
                Some(p) => p,
                // Root: move its buffer behind the Arc instead of
                // cloning it once per child.
                None => T::wrap(std::mem::take(data)),
            };
            while mask > 0 {
                if relative + mask < self.size {
                    self.forward(real(relative + mask), base, &packet);
                }
                mask >>= 1;
            }
            *data = T::unwrap(packet).expect("bcast packet type checked on receive");
        } else if let Some(p) = received {
            // Leaf: sole owner by the time children drop their refs, so
            // this unwrap is usually move-out, not copy.
            *data = T::unwrap(p).expect("bcast packet type checked on receive");
        }
    }

    /// Broadcast a single element from `root`.
    pub fn bcast_one<T: Elem>(&self, root: usize, value: T) -> T {
        let mut buf = vec![value];
        self.bcast(root, &mut buf);
        buf[0]
    }

    /// Binomial-tree elementwise reduction to `root`. Returns `Some`
    /// on the root, `None` elsewhere. All ranks must pass equal-length
    /// slices.
    pub fn reduce<T: Elem>(&self, root: usize, local: &[T], op: ReduceOp) -> Option<Vec<T>> {
        usage::record(ExecutionModel::Mpi);
        assert!(root < self.size, "reduce root out of range");
        let base = self.next_coll_base();
        let relative = (self.rank + self.size - root) % self.size;
        let real = |v: usize| (v + root) % self.size;
        let mut acc = local.to_vec();
        let mut mask = 1usize;
        while mask < self.size {
            if relative & mask != 0 {
                // The accumulator is never read again: move it up the
                // tree instead of copying.
                self.send_vec(real(relative - mask), base, acc);
                return None;
            }
            let child = relative + mask;
            if child < self.size {
                let packet = self.recv_packet::<T>(Some(real(child)), base);
                let other = T::view(&packet).expect("reduce packet type checked on receive");
                assert_eq!(other.len(), acc.len(), "reduce length mismatch across ranks");
                combine_into(op, &mut acc, other, false);
            }
            mask <<= 1;
        }
        if self.rank == root {
            Some(acc)
        } else {
            None
        }
    }

    /// Scalar reduction to `root`.
    pub fn reduce_one<T: Elem>(&self, root: usize, value: T, op: ReduceOp) -> Option<T> {
        self.reduce(root, &[value], op).map(|v| v[0])
    }

    /// Elementwise allreduce. Uses recursive doubling when the world is
    /// a power of two; otherwise falls back to reduce-to-0 + broadcast.
    ///
    /// In recursive-doubling round `k` each rank exchanges its
    /// accumulator with the rank `2^k` away (an `Arc` forward, no copy)
    /// and combines it with its own, own operand first. For element types
    /// whose every op is exactly commutative (`i64`, `u32`; see
    /// `Packet::commutes`), all ranks of the merged `2^(k+1)`-block then
    /// hold the same value, so the block computes it once: the first rank
    /// to get there combines and publishes the result in the world's
    /// shared-combine table, and the others take it and are charged the
    /// seconds the combine measured, so every rank's virtual clock still
    /// pays for one combine per round. A rank takes a published result
    /// only if it paired the same two buffers (by `Arc` identity) under
    /// the same op; otherwise it combines for itself. `f64` combines stay
    /// per rank, in each rank's own operand order.
    pub fn allreduce<T: Elem>(&self, local: &[T], op: ReduceOp) -> Vec<T> {
        usage::record(ExecutionModel::Mpi);
        if !self.size.is_power_of_two() || self.size == 1 {
            let reduced = self.reduce(0, local, op);
            let mut data = reduced.unwrap_or_default();
            self.bcast(0, &mut data);
            return data;
        }
        let base = self.next_coll_base();
        let mut acc = T::wrap(local.to_vec());
        // With shared combines every rank ends holding the world's one
        // result buffer and needs its own copy. Keep this rank's input
        // buffer to receive it: allocated before the rounds, and free
        // once the rank's first-round partner is done with it.
        let shares = acc.commutes();
        let input = shares.then(|| acc.clone());
        let mut mask = 1usize;
        let mut round = 0u32;
        while mask < self.size {
            let partner = self.rank ^ mask;
            let tag = base + round;
            self.forward(partner, tag, &acc);
            let other = self.recv_packet::<T>(Some(partner), tag);
            assert_eq!(other.byte_len(), acc.byte_len(), "allreduce length mismatch across ranks");
            acc = if shares {
                self.block_combine::<T>((tag, self.rank / (2 * mask)), 2 * mask, op, acc, other)
            } else {
                combined::<T>(op, &acc, &other)
            };
            mask <<= 1;
            round += 1;
        }
        match input {
            Some(input) if input.is_unique() && !acc.is_unique() => {
                let mut out = T::unwrap(input).expect("allreduce input is a T packet");
                out.copy_from_slice(T::view(&acc).expect("allreduce packet type checked"));
                out
            }
            _ => T::unwrap(acc).expect("allreduce packet type checked on receive"),
        }
    }

    /// One recursive-doubling round's combine of `own` with `other`,
    /// computed once per merged block of `ranks` ranks (see
    /// [`Comm::allreduce`]).
    fn block_combine<T: Elem>(
        &self,
        key: CombineKey,
        ranks: usize,
        op: ReduceOp,
        own: Packet,
        other: Packet,
    ) -> Packet {
        match self.shared.take_combine(key, op, &own, &other) {
            Lookup::Hit(output, seconds) => {
                self.charge_compute(seconds);
                output
            }
            Lookup::Mismatch => combined::<T>(op, &own, &other),
            Lookup::Absent => {
                let t0 = Instant::now();
                let output = combined::<T>(op, &own, &other);
                let seconds = t0.elapsed().as_secs_f64();
                let inputs = [own, other];
                let combine = Combine { op, inputs, output: output.clone(), seconds };
                self.shared.publish_combine(key, ranks, combine);
                output
            }
        }
    }

    /// Scalar allreduce.
    pub fn allreduce_one<T: Elem>(&self, value: T, op: ReduceOp) -> T {
        self.allreduce(&[value], op)[0]
    }

    /// Inclusive scan over ranks (Hillis–Steele, ceil(log2 P) rounds):
    /// rank r receives `op`-combination of locals from ranks `0..=r`.
    pub fn scan<T: Elem>(&self, local: &[T], op: ReduceOp) -> Vec<T> {
        usage::record(ExecutionModel::Mpi);
        let base = self.next_coll_base();
        let mut acc = local.to_vec();
        let mut d = 1usize;
        let mut round = 0u32;
        while d < self.size {
            if self.rank + d < self.size {
                self.send::<T>(self.rank + d, base + round, &acc);
            }
            if self.rank >= d {
                let other = self.recv::<T>(Some(self.rank - d), base + round);
                assert_eq!(other.len(), acc.len(), "scan length mismatch across ranks");
                combine_into(op, &mut acc, &other, true);
            }
            d <<= 1;
            round += 1;
        }
        acc
    }

    /// Exclusive scan: rank r receives the combination of ranks `0..r`;
    /// rank 0 receives the operator identity.
    pub fn exscan<T: Elem>(&self, local: &[T], op: ReduceOp) -> Vec<T> {
        usage::record(ExecutionModel::Mpi);
        let inclusive = self.scan(local, op);
        let base = self.next_coll_base();
        if self.rank + 1 < self.size {
            // The inclusive result is not returned from exscan: move it
            // to the right neighbor instead of copying.
            self.send_vec(self.rank + 1, base, inclusive);
        }
        if self.rank == 0 {
            local.iter().map(|_| T::identity(op)).collect()
        } else {
            self.recv(Some(self.rank - 1), base)
        }
    }

    /// Scalar inclusive scan.
    pub fn scan_one<T: Elem>(&self, value: T, op: ReduceOp) -> T {
        self.scan(&[value], op)[0]
    }

    /// Scalar exclusive scan.
    pub fn exscan_one<T: Elem>(&self, value: T, op: ReduceOp) -> T {
        self.exscan(&[value], op)[0]
    }

    /// Linear gather of variable-length contributions, concatenated in
    /// rank order at `root` (`MPI_Gatherv` analog). The root reads each
    /// contribution through a borrowed view — no intermediate vector.
    pub fn gather<T: Elem>(&self, root: usize, local: &[T]) -> Option<Vec<T>> {
        usage::record(ExecutionModel::Mpi);
        assert!(root < self.size, "gather root out of range");
        let base = self.next_coll_base();
        if self.rank != root {
            self.send::<T>(root, base, local);
            return None;
        }
        let mut out = Vec::new();
        for r in 0..self.size {
            if r == root {
                out.extend_from_slice(local);
            } else {
                let packet = self.recv_packet::<T>(Some(r), base);
                out.extend_from_slice(T::view(&packet).expect("gather packet type checked"));
            }
        }
        Some(out)
    }

    /// Ring allgather: every rank ends with the rank-order concatenation
    /// of all contributions. Each block travels the ring as one shared
    /// buffer: every hop forwards the packet it received.
    pub fn allgather<T: Elem>(&self, local: &[T]) -> Vec<T> {
        usage::record(ExecutionModel::Mpi);
        let base = self.next_coll_base();
        let mut blocks: Vec<Option<Packet>> = (0..self.size).map(|_| None).collect();
        blocks[self.rank] = Some(T::wrap(local.to_vec()));
        let right = (self.rank + 1) % self.size;
        let left = (self.rank + self.size - 1) % self.size;
        for step in 0..self.size.saturating_sub(1) {
            let send_idx = (self.rank + self.size - step) % self.size;
            let tag = base + step as u32;
            let packet = blocks[send_idx].clone().expect("ring invariant");
            self.forward(right, tag, &packet);
            let recv_idx = (self.rank + self.size - step - 1) % self.size;
            blocks[recv_idx] = Some(self.recv_packet::<T>(Some(left), tag));
        }
        let mut out = Vec::new();
        for b in &blocks {
            let block = b.as_ref().expect("ring completed");
            out.extend_from_slice(T::view(block).expect("allgather packet type checked"));
        }
        out
    }

    /// Scatter variable-length chunks from `root`: `chunks` is consumed
    /// on the root (one `Vec` per rank, each moved to its destination —
    /// no per-chunk copies) and ignored elsewhere.
    pub fn scatter<T: Elem>(&self, root: usize, chunks: Option<Vec<Vec<T>>>) -> Vec<T> {
        usage::record(ExecutionModel::Mpi);
        assert!(root < self.size, "scatter root out of range");
        let base = self.next_coll_base();
        if self.rank == root {
            let mut chunks = chunks.expect("root must supply scatter chunks");
            assert_eq!(chunks.len(), self.size, "scatter needs one chunk per rank");
            let own = std::mem::take(&mut chunks[root]);
            for (r, chunk) in chunks.into_iter().enumerate() {
                if r != root {
                    self.send_vec(r, base, chunk);
                }
            }
            own
        } else {
            self.recv(Some(root), base)
        }
    }

    /// Scatter a slice in contiguous block distribution from `root`
    /// (the common "divide the array" idiom). Non-roots pass `None`.
    pub fn scatter_blocks<T: Elem>(&self, root: usize, data: Option<&[T]>, total_len: usize) -> Vec<T> {
        let chunks: Option<Vec<Vec<T>>> = if self.rank == root {
            let data = data.expect("root must supply scatter data");
            assert_eq!(data.len(), total_len, "scatter_blocks length mismatch");
            Some(
                (0..self.size)
                    .map(|r| data[block_range(total_len, self.size, r)].to_vec())
                    .collect(),
            )
        } else {
            None
        };
        self.scatter(root, chunks)
    }

    /// Pairwise all-to-all personalized exchange: `chunks[r]` goes to
    /// rank `r` (each moved, not copied); returns the chunks received,
    /// indexed by source rank.
    pub fn alltoall<T: Elem>(&self, mut chunks: Vec<Vec<T>>) -> Vec<Vec<T>> {
        usage::record(ExecutionModel::Mpi);
        assert_eq!(chunks.len(), self.size, "alltoall needs one chunk per rank");
        let base = self.next_coll_base();
        let mut out: Vec<Vec<T>> = (0..self.size).map(|_| Vec::new()).collect();
        out[self.rank] = std::mem::take(&mut chunks[self.rank]);
        for offset in 1..self.size {
            let dst = (self.rank + offset) % self.size;
            let src = (self.rank + self.size - offset) % self.size;
            let tag = base + offset as u32;
            self.send_vec(dst, tag, std::mem::take(&mut chunks[dst]));
            out[src] = self.recv::<T>(Some(src), tag);
        }
        out
    }
}

/// `op(own, other)` elementwise, own operand first, into a new buffer.
fn combined<T: Elem>(op: ReduceOp, own: &Packet, other: &Packet) -> Packet {
    let view = |p| T::view(p).expect("combined packets are type checked on receive");
    T::wrap(combine(op, view(own), view(other)))
}

/// The contiguous block of `0..n` owned by `rank` out of `size` in the
/// standard balanced block distribution (remainder spread over the first
/// ranks).
pub fn block_range(n: usize, size: usize, rank: usize) -> std::ops::Range<usize> {
    let base = n / size;
    let rem = n % size;
    let lo = rank * base + rank.min(rem);
    let len = base + usize::from(rank < rem);
    lo..lo + len
}

#[cold]
pub(crate) fn abort_panic() -> ! {
    panic!("mpisim: world aborted");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::usage::UsageScope;

    #[test]
    fn block_range_partitions() {
        for n in [0usize, 1, 7, 100, 101] {
            for size in [1usize, 2, 3, 8] {
                let mut covered = vec![];
                for r in 0..size {
                    covered.extend(block_range(n, size, r));
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} size={size}");
            }
        }
    }

    #[test]
    fn send_owned_moves_payloads_without_copying() {
        let scope = UsageScope::begin();
        let out = crate::World::new(2)
            .run(|comm| {
                if comm.rank() == 0 {
                    let payload: Vec<i64> = (0..1024).collect();
                    comm.send_owned(1, 7, payload);
                    Vec::new()
                } else {
                    comm.recv::<i64>(Some(0), 7)
                }
            })
            .unwrap();
        assert!(out.per_rank[0].is_empty());
        assert_eq!(out.per_rank[1], (0..1024).collect::<Vec<i64>>());
        let moved = scope.finish().events(Event::ByteZeroCopied);
        assert!(
            moved >= 1024 * 8,
            "an owned send must count its payload bytes as zero-copied, got {moved}"
        );
    }

    #[test]
    fn block_range_balanced() {
        // Sizes differ by at most one element.
        let lens: Vec<usize> = (0..7).map(|r| block_range(100, 7, r).len()).collect();
        let min = lens.iter().min().unwrap();
        let max = lens.iter().max().unwrap();
        assert!(max - min <= 1, "{lens:?}");
    }
}
