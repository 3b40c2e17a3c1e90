//! Write-ahead journal for crash-safe (and sharded) evaluation.
//!
//! The pipeline appends one entry per completed grid cell from the
//! scheduler's completion observer. Appends are group-committed: the
//! frame is written at once and a background syncer's next
//! `fdatasync` makes it durable, together with every other frame
//! written before that sync started (see [`Journal`]). Workers never
//! wait for the observer, so a killed run loses the cells in flight,
//! plus the frames written since the last `fdatasync` started; a
//! SIGKILL alone loses no written frame, since the page cache keeps
//! it. On startup
//! with `--resume`, a journal whose header matches the active config
//! (and shard) is replayed: completed cells are skipped and only the
//! remainder is scheduled.
//!
//! Replay is **cell-addressed**: every entry carries its
//! [`pcg_core::CellId`] — the FNV-1a hash of `(config hash, model,
//! task)` — and the replay map is keyed by that id. The id is
//! recomputed from the entry's own fields on load, so each entry is
//! self-checking: an entry whose stored id disagrees with its
//! recomputed id is corrupt and truncates the replay there. Because
//! the same ids partition the grid across shards (`id % shard_count`),
//! a shard worker's journal is simply the slice of the global journal
//! it owns, and `merge` can stitch shard journals back into a
//! whole-grid record with no coordination beyond the shared config.
//!
//! ## Format (v3, binary frames)
//!
//! The file opens with the 8-byte magic `PCGJRNL3`, then a sequence of
//! CRC-checked frames ([`pcg_core::frame`]: `u32 len | u64 cell | u32
//! crc | payload`, little-endian, CRC-32 over cell bytes ++ payload).
//! Frame 0 is the [`Header`] (cell tag 0; payload `u32 version=3 | u64
//! config_hash | u32 shard_index | u32 shard_count | u64 priors_hash` —
//! the last field is the [`pcg_core::CostPriors`] hash the run
//! scheduled and sharded under, 0 for no priors; headers written before
//! the field existed are read as hash 0); every further frame is one
//! cell, its payload encoded by [`crate::codec`]. Replay reads the
//! whole file in one buffered pass and never touches a JSON parser. A
//! file without the magic (including the JSONL journals of older
//! releases) replays nothing, like any header mismatch, and resume
//! recreates it.
//!
//! **Committed records cache:** a finished run commits its records in
//! this same format ([`commit_record`]): a whole-grid header with
//! priors hash 0 (records do not depend on priors), then one entry
//! frame per cell in plan order. [`read_cells`] walks such a file
//! strictly — any flaw refuses the whole file — and the loader serves
//! it only when its cells are exactly the plan's, in order; that match
//! is the seal. A JSON cache from an older release reads as a miss.
//!
//! A torn final frame (the crash happened mid-append), a CRC mismatch,
//! a payload that does not decode, or a failed cell self-check
//! truncates the replay at that frame — the cells after it are simply
//! re-evaluated, and every rejection is reported with its byte offset,
//! frame index, and cell id (see [`Reject`]) and counted into the
//! `journal_frames_rejected` stat.
//!
//! **Compaction:** a journal that survived one or more crashes can
//! carry stale bytes — the torn frame itself, frames shadowed by a
//! re-append after an earlier truncated replay, or a tail beyond the
//! first corruption that can never be trusted again. [`compact`]
//! rewrites the journal atomically (temp file + rename) with exactly
//! the replayable generation folded in, so long grids stop replaying
//! stale frames on every subsequent resume.
//!
//! Byte-identity contract: replaying a cell reproduces the exact bytes
//! an uninterrupted run would have recorded, since floats travel as raw
//! IEEE-754 bits. The cells evaluated *after* resume reuse
//! the same deterministic sample streams (keyed by grid coordinates,
//! never by worker identity or time), extending the jobs-agnostic
//! determinism guarantee across a crash — and, with cell addressing,
//! across process boundaries.

use crate::codec;
use crate::config::EvalConfig;
use crate::record::{EvalRecord, TaskRecord};
use parking_lot::{Condvar, Mutex};
use pcg_core::frame::{self, FrameError, ByteReader, ByteWriter, FRAME_OVERHEAD, JOURNAL_MAGIC};
use pcg_core::plan::{fnv1a, CellId, ShardSpec, WorkPlan};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Journal format version; bump on any layout change.
/// (v1 keyed entries by `(model, task)` with no cell address; v2 was
/// cell-addressed, shard-aware JSONL; v3 is binary frames.)
const VERSION: u32 = 3;

/// The header frame's cell tag. Real cell ids are FNV-1a hashes of
/// non-empty input; the header is additionally pinned to frame 0, so
/// the tag is a label, not a collision risk.
const HEADER_CELL: u64 = 0;

/// FNV-1a over the config's canonical JSON: journals are only replayed
/// into the exact configuration that wrote them, and every
/// [`CellId`] in the run is derived from this hash.
pub fn config_hash(cfg: &EvalConfig) -> u64 {
    fnv1a(&serde_json::to_vec(cfg).unwrap_or_default())
}

/// [`config_hash`] with a candidate-source salt folded in
/// (`pcg_models::CandidateSource::config_salt`). The empty salt — the
/// default synthetic path — returns exactly [`config_hash`], so every
/// pre-source artifact keeps its identity; a non-empty salt (e.g. a
/// replay pool's content hash) re-keys every cell id and journal
/// header, which is precisely what stops resume and merge from
/// splicing cells produced from different candidate pools.
pub fn config_hash_with(cfg: &EvalConfig, salt: &[u8]) -> u64 {
    let base = config_hash(cfg);
    if salt.is_empty() {
        return base;
    }
    let mut bytes = base.to_le_bytes().to_vec();
    bytes.extend_from_slice(salt);
    fnv1a(&bytes)
}

/// A journal's identity, stored in frame 0: replay, the work-stealing
/// peek and merge only trust a journal whose header equals the one the
/// active run would write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// [`config_hash_with`] of the config and candidate-source salt.
    pub config_hash: u64,
    /// The shard the journal's cells belong to.
    pub shard: ShardSpec,
    /// The [`pcg_core::CostPriors`] hash the run scheduled and sharded
    /// under, 0 for no priors. Priors change which cells a shard owns,
    /// so a journal written under different priors must not replay.
    pub priors_hash: u64,
}

impl Header {
    /// The header a run of `(cfg, salt)` on `shard` under `priors_hash`
    /// writes and expects.
    fn new(cfg: &EvalConfig, salt: &[u8], shard: ShardSpec, priors_hash: u64) -> Header {
        Header { config_hash: config_hash_with(cfg, salt), shard, priors_hash }
    }

    /// The header of a committed records cache for `plan`: the whole
    /// grid, and priors hash 0, since records do not depend on priors.
    pub(crate) fn cache(plan: &WorkPlan) -> Header {
        Header { config_hash: plan.config_hash(), shard: ShardSpec::WHOLE, priors_hash: 0 }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(VERSION);
        w.put_u64(self.config_hash);
        w.put_u32(self.shard.index);
        w.put_u32(self.shard.count);
        w.put_u64(self.priors_hash);
        w.into_bytes()
    }

    /// Decode a header payload. A pre-priors header (written before the
    /// hash field existed) ends at the shard count and reads as priors
    /// hash 0; any other length or version is not a header.
    fn decode(payload: &[u8]) -> Option<Header> {
        let mut r = ByteReader::new(payload);
        if r.u32().ok()? != VERSION {
            return None;
        }
        let config_hash = r.u64().ok()?;
        let shard = ShardSpec { index: r.u32().ok()?, count: r.u32().ok()? };
        let priors_hash = if r.is_exhausted() { 0 } else { r.u64().ok()? };
        r.is_exhausted().then_some(Header { config_hash, shard, priors_hash })
    }

    /// The magic and header frame that open every journal.
    fn file_prefix(&self) -> Vec<u8> {
        let mut bytes = JOURNAL_MAGIC.to_vec();
        frame::encode_frame_into(&mut bytes, HEADER_CELL, &self.encode());
        bytes
    }

    /// The header of a journal's bytes and the offset of its first cell
    /// frame, or `None` when the magic or header frame is missing or
    /// unreadable.
    fn read(bytes: &[u8]) -> Option<(Header, usize)> {
        if !bytes.starts_with(&JOURNAL_MAGIC) {
            return None;
        }
        match frame::decode_frame(bytes, JOURNAL_MAGIC.len()) {
            Some(Ok(f)) if f.cell == HEADER_CELL => Some((Header::decode(f.payload)?, f.end)),
            _ => None,
        }
    }
}

/// Journal path for a record cache path (`records-quick.rec` →
/// `records-quick.rec.journal`).
pub fn journal_path(cache_path: &Path) -> PathBuf {
    let mut os = cache_path.as_os_str().to_os_string();
    os.push(".journal");
    PathBuf::from(os)
}

/// Journal path for one shard of a sharded run
/// (`records-quick.rec.journal.shard-0-of-3`). The whole-grid spec
/// maps to the plain [`journal_path`], so single-process runs and
/// `0/1`-sharded runs are the same artifact.
pub fn shard_journal_path(cache_path: &Path, shard: ShardSpec) -> PathBuf {
    if shard.is_whole() {
        return journal_path(cache_path);
    }
    let mut os = cache_path.as_os_str().to_os_string();
    os.push(format!(".journal.shard-{}-of-{}", shard.index, shard.count));
    PathBuf::from(os)
}

/// One replayed cell: the model that owns the record (needed to
/// rewrite the entry on compaction and to label merge output).
#[derive(Debug, Clone)]
pub struct ReplayCell {
    /// Model display name the cell belongs to.
    pub model: String,
    /// The journaled record, byte-identical to a fresh evaluation.
    pub record: TaskRecord,
}

/// Completed cells recovered from a journal, keyed by cell address.
pub type Replay = HashMap<CellId, ReplayCell>;

/// One rejected journal frame: where it sits in the file and why
/// replay refused it. Everything from the
/// rejected frame to the end of the file is untrusted.
#[derive(Debug, Clone)]
pub struct Reject {
    /// Byte offset of the rejected frame's first byte.
    pub offset: u64,
    /// Frame index within the file (the header is frame 0).
    pub frame: usize,
    /// The cell tag as stored in the rejected frame, when its fixed
    /// header was still readable. Untrusted — it may be the corrupted
    /// field.
    pub cell: Option<u64>,
    /// What failed: torn tail, CRC mismatch, undecodable payload, or a
    /// failed cell self-check.
    pub reason: String,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame {} at byte offset {}", self.frame, self.offset)?;
        if let Some(cell) = self.cell {
            write!(f, " (cell {cell:016x})")?;
        }
        write!(f, ": {}", self.reason)
    }
}

/// What [`load_counting_sourced`] recovered, plus how much of the file
/// it had to discard or fold and the header it found.
#[derive(Default)]
pub struct Loaded {
    /// The replayable cells.
    pub replay: Replay,
    /// Frames that carried no replayable information: the rejected
    /// frame, the untrusted frames structurally visible after it, and
    /// duplicate appends shadowed by a later frame. When positive, the
    /// journal is worth compacting.
    pub stale_frames: usize,
    /// Frames replay refused, with byte offset / frame index / cell id
    /// diagnostics. At most one per load under the
    /// truncate-at-first-corruption policy; its length feeds the
    /// `journal_frames_rejected` stat.
    pub rejects: Vec<Reject>,
    /// The header the file carries, whether or not it matched the
    /// loading run (nothing replays when it did not), or `None` when
    /// the file is missing, lacks the v3 magic, or has an unreadable
    /// header.
    pub header: Option<Header>,
}

impl Loaded {
    /// Whether resume should rewrite this journal before appending to
    /// it: it carries stale frames to fold away. A journal with
    /// replayable frames *must not* be truncated instead.
    pub fn needs_compaction(&self) -> bool {
        self.stale_frames > 0
    }
}

/// Append handle for one run's journal, with group commit.
///
/// [`Journal::append`] writes its frame under the state lock and
/// returns without waiting for the disk. One syncer thread per journal,
/// started by the first write, runs `fdatasync` outside the lock, and
/// each sync covers every frame written before it started. Frames are
/// therefore whole and ordered in the file (the lock serialises
/// writes), visible at once to readers of the page cache, and durable
/// once [`Journal::sync`] or `Drop` returns. A journal that is never
/// written to (a resume with nothing left to evaluate) starts no
/// thread, so a process that was single-threaded stays so.
///
/// Errors are sticky. After a failed write or `fdatasync`, every later
/// [`Journal::append`], [`Journal::append_claims`] and [`Journal::sync`]
/// returns that error. A failed `fdatasync` is never retried: Linux may
/// already have dropped the dirty pages, so a retry could report success
/// for frames that never reached the disk.
pub struct Journal {
    shared: Arc<Shared>,
}

/// What [`Journal`] shares with its syncer thread.
struct Shared {
    /// Written only under `state`'s lock, so frames never interleave;
    /// synced without it.
    file: File,
    state: Mutex<SyncState>,
    /// Wakes the syncer: a frame was written, or the journal is closing.
    work: Condvar,
    /// Wakes [`Journal::sync`] and [`Journal::append_claims`] waiters:
    /// `synced` advanced or `error` was set.
    durable: Condvar,
}

#[derive(Default)]
struct SyncState {
    /// Writes made so far, each of one or more whole frames; the count
    /// doubles as the last write's sequence number.
    written: u64,
    /// Every write up to this sequence number was made before an
    /// `fdatasync` that succeeded, so its frames are durable.
    synced: u64,
    /// The first write or sync error; once set, never cleared.
    error: Option<std::io::Error>,
    /// Set by `Drop`: the syncer syncs what is left, then exits.
    closing: bool,
    /// The syncer thread, once the first write has started it.
    syncer: Option<JoinHandle<()>>,
}

/// A copy of a sticky error for one more caller (`io::Error` is not
/// `Clone`); an OS error keeps its errno, so its kind is unchanged.
fn repeat_error(e: &std::io::Error) -> std::io::Error {
    match e.raw_os_error() {
        Some(code) => std::io::Error::from_raw_os_error(code),
        None => std::io::Error::new(e.kind(), e.to_string()),
    }
}

impl Shared {
    /// Write one buffer of whole frames and wake the syncer, starting
    /// it on the first write. Returns the sequence number that covers
    /// the buffer.
    fn write(self: &Arc<Self>, bytes: &[u8]) -> std::io::Result<u64> {
        let seq = {
            let mut st = self.state.lock();
            if let Some(e) = &st.error {
                return Err(repeat_error(e));
            }
            if st.syncer.is_none() {
                // Nothing is written yet if this fails, so the error is
                // not sticky: the next write tries again.
                let shared = Arc::clone(self);
                st.syncer = Some(
                    std::thread::Builder::new()
                        .name("pcg-journal-sync".into())
                        .spawn(move || shared.run_syncer())?,
                );
            }
            if let Err(e) = (&self.file).write_all(bytes) {
                // A partly written frame makes every later frame
                // unreplayable, so a write error is as final as a sync one.
                let again = repeat_error(&e);
                st.error = Some(e);
                self.durable.notify_all();
                return Err(again);
            }
            st.written += 1;
            st.written
        };
        self.work.notify_one();
        Ok(seq)
    }

    /// Block until frame `seq` is durable, or return the sticky error.
    fn wait_durable(&self, seq: u64) -> std::io::Result<()> {
        let mut st = self.state.lock();
        loop {
            if let Some(e) = &st.error {
                return Err(repeat_error(e));
            }
            if st.synced >= seq {
                return Ok(());
            }
            self.durable.wait(&mut st);
        }
    }

    /// The syncer thread's loop: sync whenever frames are written past
    /// the last sync, until the journal closes with nothing left. Exits
    /// for good after a failed `fdatasync`.
    fn run_syncer(&self) {
        let mut st = self.state.lock();
        loop {
            while st.synced == st.written && !st.closing {
                self.work.wait(&mut st);
            }
            if st.synced == st.written {
                return;
            }
            let target = st.written;
            drop(st);
            let result = self.file.sync_data();
            st = self.state.lock();
            match result {
                Ok(()) => st.synced = target,
                Err(e) => {
                    st.error.get_or_insert(e);
                    self.durable.notify_all();
                    return;
                }
            }
            self.durable.notify_all();
        }
    }
}

impl Journal {
    /// Start a fresh journal for `cfg`'s shard `shard`, truncating any
    /// previous file. The header stamps [`config_hash_with`] of `(cfg,
    /// salt)`, so a journal written against one candidate pool can
    /// never replay into a run scoring a different one (the empty salt
    /// is the synthetic default), and the run's
    /// [`pcg_core::CostPriors`] hash (0 for none): sharded runs must
    /// agree on the priors, since they determine which cells each shard
    /// owns, so replay and merge reject a journal whose stamp disagrees
    /// with the active priors.
    pub fn create_sourced(
        path: &Path,
        cfg: &EvalConfig,
        salt: &[u8],
        shard: ShardSpec,
        priors_hash: u64,
    ) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = File::create(path)?;
        file.write_all(&Header::new(cfg, salt, shard, priors_hash).file_prefix())?;
        file.sync_data()?;
        Ok(Journal::wrap(file))
    }

    /// Continue appending to an existing journal (resume). The caller
    /// must have validated the header via [`load_counting_sourced`] and
    /// compacted first if the file [`Loaded::needs_compaction`] —
    /// frames appended after a torn tail would never replay.
    pub fn open_append(path: &Path) -> std::io::Result<Journal> {
        Ok(Journal::wrap(OpenOptions::new().append(true).open(path)?))
    }

    fn wrap(file: File) -> Journal {
        Journal {
            shared: Arc::new(Shared {
                file,
                state: Mutex::new(SyncState::default()),
                work: Condvar::new(),
                durable: Condvar::new(),
            }),
        }
    }

    /// Append one completed cell. The frame is in the file (and the
    /// page cache, so sibling peeks and same-process loads see it) when
    /// this returns, but not yet durable: the syncer's next
    /// `fdatasync` makes it so, and [`Journal::sync`] waits for that. A
    /// crash loses at most the frames written since the last
    /// `fdatasync` started.
    pub fn append(&self, cell: CellId, model: &str, record: &TaskRecord) -> std::io::Result<()> {
        let bytes = frame::encode_frame(cell.0, &codec::encode_entry(model, record));
        self.shared.write(&bytes).map(drop)
    }

    /// Durably append one work-stealing claim frame per cell, batched
    /// into a single write, and wait until the syncer has made them
    /// durable. A thief MUST call this and see it return `Ok`
    /// **before** evaluating the stolen cells
    /// (claim-before-evaluate): once the claims are on disk, siblings
    /// stop racing for these cells, and if the thief then crashes the
    /// claims are compacted away on its next resume (or ignored by
    /// merge), so the cells fall through to gap-fill — duplicated
    /// effort at worst, never lost work.
    pub fn append_claims(&self, cells: &[CellId], thief_index: u32) -> std::io::Result<()> {
        if cells.is_empty() {
            return Ok(());
        }
        let payload = codec::encode_claim(thief_index);
        let mut bytes = Vec::with_capacity(cells.len() * (FRAME_OVERHEAD + payload.len()));
        for cell in cells {
            frame::encode_frame_into(&mut bytes, cell.0, &payload);
        }
        let seq = self.shared.write(&bytes)?;
        self.shared.wait_durable(seq)
    }

    /// Block until every frame written before this call is durable.
    /// Returns the journal's sticky error if any write or `fdatasync`
    /// has failed, so an `Ok` here is never a retried sync's success.
    pub fn sync(&self) -> std::io::Result<()> {
        let seq = self.shared.state.lock().written;
        self.shared.wait_durable(seq)
    }
}

impl Drop for Journal {
    /// Stop the syncer after a final sync of every written frame.
    /// Errors cannot be returned from here; call [`Journal::sync`]
    /// first to see them.
    fn drop(&mut self) {
        let syncer = {
            let mut st = self.shared.state.lock();
            st.closing = true;
            st.syncer.take()
        };
        self.shared.work.notify_one();
        if let Some(syncer) = syncer {
            let _ = syncer.join();
        }
    }
}

/// Load the replayable cells of the journal at `path` for `cfg`'s
/// shard `shard`, with stale-frame counts (the compaction trigger) and
/// rejection diagnostics.
///
/// Nothing replays unless the file's [`Header`] equals the one this run
/// would write: [`config_hash_with`] of `(cfg, salt)`, the same shard
/// geometry, and the same priors hash (priors change which cells a
/// shard owns, so replaying a journal written under different priors
/// would resurrect cells this worker no longer owns and silently drop
/// cells it now does). A missing or unreadable file, or one without
/// the v3 magic, replays nothing either.
///
/// A torn or corrupt frame — including a CRC-valid frame whose stored
/// cell id disagrees with the id recomputed from its `(model, task)` —
/// truncates the replay there: everything before it is kept,
/// everything after it is discarded (it may describe cells appended
/// after the corruption, but trusting a journal past its first bad
/// byte is how resumed runs diverge — re-evaluating is always safe).
pub fn load_counting_sourced(
    path: &Path,
    cfg: &EvalConfig,
    salt: &[u8],
    shard: ShardSpec,
    priors_hash: u64,
) -> Loaded {
    let mut loaded = Loaded::default();
    let Ok(bytes) = std::fs::read(path) else { return loaded };
    let Some((header, mut offset)) = Header::read(&bytes) else { return loaded };
    loaded.header = Some(header);
    if header != Header::new(cfg, salt, shard, priors_hash) {
        return loaded;
    }
    let mut frame_idx = 1usize;
    loop {
        let f = match frame::decode_frame(&bytes, offset) {
            None => break,
            Some(Ok(f)) => f,
            Some(Err(e)) => {
                // Torn or corrupt frame: truncate replay here. The bad
                // frame and every (structurally countable) frame after
                // it are stale and untrusted.
                let cell = match e {
                    FrameError::BadCrc { cell, .. } => Some(cell),
                    FrameError::TornTail { .. } => None,
                };
                loaded.stale_frames += count_tail_frames(&bytes, offset);
                loaded.rejects.push(Reject {
                    offset: offset as u64,
                    frame: frame_idx,
                    cell,
                    reason: e.to_string(),
                });
                return loaded;
            }
        };
        if codec::decode_claim(f.payload).is_some() {
            // A work-stealing claim: it marks intent, carries no
            // result, and must never replay. It counts as stale so a
            // resume compacts it away — a claim without a matching
            // result frame means the thief died mid-steal, and
            // dropping the claim is exactly what makes the cell
            // stealable (or merge-gap-fillable) again.
            loaded.stale_frames += 1;
            offset = f.end;
            frame_idx += 1;
            continue;
        }
        let (id, cell) = match decode_cell(header.config_hash, &f) {
            Ok(c) => c,
            Err(reason) => {
                // CRC-valid, yet undecodable (only an incompatible codec
                // change does that) or not the cell it claims to be.
                // Same corruption policy.
                loaded.stale_frames += count_tail_frames(&bytes, offset);
                loaded.rejects.push(Reject {
                    offset: offset as u64,
                    frame: frame_idx,
                    cell: Some(f.cell),
                    reason,
                });
                return loaded;
            }
        };
        if loaded.replay.insert(id, cell).is_some() {
            // A duplicate append (an earlier resume re-evaluated this
            // cell after a truncated replay). Last write wins; the
            // shadowed frame is stale.
            loaded.stale_frames += 1;
        }
        offset = f.end;
        frame_idx += 1;
    }
    loaded
}

/// Decode one entry frame and self-check it: the cell id recomputed
/// from the entry's own fields under `config_hash` must equal the
/// frame's tag.
fn decode_cell(config_hash: u64, f: &frame::Frame<'_>) -> Result<(CellId, ReplayCell), String> {
    let (model, record) =
        codec::decode_entry(f.payload).map_err(|e| format!("payload does not decode: {e}"))?;
    let id = CellId::new(config_hash, &model, record.task);
    if id.0 != f.cell {
        return Err(format!(
            "cell self-check failed: recomputed {:016x} from the entry's own fields",
            id.0
        ));
    }
    Ok((id, ReplayCell { model, record }))
}

/// Every cell of the file at `path` in file order, with its header, or
/// `None` at the first flaw: no v3 magic or readable header, a torn or
/// CRC-bad frame, a claim, an undecodable payload or a failed cell
/// self-check. Unlike replay, which keeps a clean prefix, this walk
/// trusts all of a file or none of it. It takes no config: the caller
/// gates on the header and on which cells came back.
pub fn read_cells(path: &Path) -> Option<(Header, Vec<(CellId, ReplayCell)>)> {
    let bytes = std::fs::read(path).ok()?;
    let (header, mut offset) = Header::read(&bytes)?;
    let mut cells = Vec::new();
    while let Some(f) = frame::decode_frame(&bytes, offset) {
        let f = f.ok()?;
        cells.push(decode_cell(header.config_hash, &f).ok()?);
        offset = f.end;
    }
    Some((header, cells))
}

/// A sibling journal's structurally visible progress: which cells it
/// has journaled results for and which it has merely claimed. This is
/// what a work-stealing worker reads to find stealable cells.
#[derive(Debug, Default, Clone)]
pub struct Progress {
    /// Cell ids with a result frame on disk. A cell can appear in both
    /// sets (claimed, then completed) — `done` wins for any purpose.
    pub done: std::collections::HashSet<u64>,
    /// Cell ids with a claim frame on disk.
    pub claimed: std::collections::HashSet<u64>,
}

/// Peek one sibling shard journal's progress **without full replay**:
/// the header is gated exactly like [`load_counting_sourced`] (config
/// hash with the candidate-source salt, shard geometry, priors hash —
/// a thief must never steal cells journaled against a different
/// candidate pool), then frames are walked CRC-checked but entry
/// payloads are never decoded — cell ids come from the (CRC-covered)
/// frame tags. The walk stops at the first torn or corrupt frame,
/// trusting only the clean prefix.
///
/// `None` means the journal is missing, not v3, or gated out — the
/// caller should treat the sibling as having made no visible progress
/// (every cell stealable; a stolen result is valid for the thief's own
/// plan regardless of what the victim's file said). The peek is
/// advisory only: a stale read means duplicated work at worst, since
/// results are deterministic per cell and merge folds duplicates.
pub fn peek_progress(
    path: &Path,
    cfg: &EvalConfig,
    salt: &[u8],
    shard: ShardSpec,
    priors_hash: u64,
) -> Option<Progress> {
    let bytes = std::fs::read(path).ok()?;
    let (header, mut offset) = Header::read(&bytes)?;
    if header != Header::new(cfg, salt, shard, priors_hash) {
        return None;
    }
    let mut progress = Progress::default();
    while let Some(Ok(f)) = frame::decode_frame(&bytes, offset) {
        if codec::decode_claim(f.payload).is_some() {
            progress.claimed.insert(f.cell);
        } else {
            progress.done.insert(f.cell);
        }
        offset = f.end;
    }
    Some(progress)
}

/// Structural walk (no CRC check) from `offset`: the end offset of
/// each whole frame, stopping at trailing bytes that do not form one.
fn frame_ends(bytes: &[u8], mut offset: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::from_fn(move || {
        let len = u32::from_le_bytes(bytes.get(offset..offset + 4)?.try_into().unwrap()) as usize;
        offset = (offset + FRAME_OVERHEAD).checked_add(len).filter(|&e| e <= bytes.len())?;
        Some(offset)
    })
}

/// Best-effort structural count of the untrusted frames from the
/// rejected one at `offset` on (for stale-frame accounting only — none
/// of them is replayed). Trailing bytes that do not form a whole frame
/// count as one.
fn count_tail_frames(bytes: &[u8], offset: usize) -> usize {
    let (n, end) = frame_ends(bytes, offset).fold((0, offset), |(n, _), end| (n + 1, end));
    n + usize::from(end < bytes.len())
}

/// Rewrite the journal at `path` atomically with exactly `replay`
/// folded in — one frame per completed cell, in deterministic (cell
/// id) order, no torn bytes, no shadowed duplicates — under a header
/// for the synthetic default source and no priors. Returns the number
/// of entries written. Readers (and crashes) observe either the old
/// journal or the compacted one, never a hybrid.
pub fn compact(
    path: &Path,
    cfg: &EvalConfig,
    shard: ShardSpec,
    replay: &Replay,
) -> std::io::Result<usize> {
    compact_sourced(path, cfg, &[], shard, 0, replay)
}

/// [`compact`] preserving a candidate-source salt and priors hash in
/// the rewritten header, so a compacted journal replays under the same
/// checks as the original.
pub fn compact_sourced(
    path: &Path,
    cfg: &EvalConfig,
    salt: &[u8],
    shard: ShardSpec,
    priors_hash: u64,
    replay: &Replay,
) -> std::io::Result<usize> {
    let mut cells: Vec<(&CellId, &ReplayCell)> = replay.iter().collect();
    cells.sort_by_key(|(id, _)| **id);
    let cells = cells.into_iter().map(|(id, c)| (*id, (c.model.as_str(), &c.record)));
    write_frames(path, Header::new(cfg, salt, shard, priors_hash), cells)?;
    Ok(replay.len())
}

/// Commit `record`, assembled from `plan`, as the records cache at
/// `path`: the plan's whole-grid header with priors hash 0 (records do
/// not depend on priors), then one entry frame per cell in plan order,
/// replacing the file atomically like [`compact_sourced`].
pub fn commit_record(path: &Path, plan: &WorkPlan, record: &EvalRecord) -> std::io::Result<()> {
    let cells =
        record.models.iter().flat_map(|m| m.tasks.iter().map(move |t| (m.model.as_str(), t)));
    write_frames(path, Header::cache(plan), plan.cells().map(|c| c.id).zip(cells))
}

/// Replace the file at `path` with `header` and one entry frame per
/// cell, in the order given. Readers (and crashes) observe the old
/// file or the new one, never a hybrid.
fn write_frames<'a>(
    path: &Path,
    header: Header,
    cells: impl Iterator<Item = (CellId, (&'a str, &'a TaskRecord))>,
) -> std::io::Result<()> {
    let mut bytes = header.file_prefix();
    for (id, (model, record)) in cells {
        frame::encode_frame_into(&mut bytes, id.0, &codec::encode_entry(model, record));
    }
    crate::pipeline::atomic_write(path, &bytes)
}

/// Byte offsets of each entry frame (frame 1 onward) in a v3 journal,
/// in file order, ending with the offset one past the last frame.
/// Structural only (no CRC verification) — this exists so crash tests
/// and tooling can cut a journal at exact frame boundaries.
pub fn entry_offsets(path: &Path) -> Vec<u64> {
    match std::fs::read(path) {
        // Each frame's end is the next one's start, so the ends of the
        // header and of every entry are exactly these offsets.
        Ok(bytes) if bytes.starts_with(&JOURNAL_MAGIC) => {
            frame_ends(&bytes, JOURNAL_MAGIC.len()).map(|e| e as u64).collect()
        }
        _ => Vec::new(),
    }
}

/// Delete a journal (after its run committed the final record).
pub fn remove(path: &Path) {
    let _ = std::fs::remove_file(path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::{ExecutionModel, ProblemId, ProblemType};
    use pcg_metrics::TaskSamples;
    use std::collections::BTreeMap;

    fn rec(variant: usize) -> TaskRecord {
        TaskRecord {
            task: ProblemId::new(ProblemType::Reduce, variant).task(ExecutionModel::OpenMp),
            low: TaskSamples {
                built: vec![true, false],
                correct: vec![true, false],
                ratio: vec![3.5, 0.0],
            },
            high: None,
            sweep: BTreeMap::from([(4u32, vec![2.25, 0.0])]),
        }
    }

    fn cell_of(cfg: &EvalConfig, model: &str, r: &TaskRecord) -> CellId {
        CellId::new(config_hash(cfg), model, r.task)
    }

    fn create(path: &Path, cfg: &EvalConfig, shard: ShardSpec) -> Journal {
        Journal::create_sourced(path, cfg, &[], shard, 0).unwrap()
    }

    fn load(path: &Path, cfg: &EvalConfig, shard: ShardSpec) -> Loaded {
        load_counting_sourced(path, cfg, &[], shard, 0)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pcgbench-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.journal", std::process::id()))
    }

    #[test]
    fn roundtrip_and_cell_keyed_replay() {
        let cfg = EvalConfig::smoke();
        let path = tmp("roundtrip");
        let j = create(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        j.append(cell_of(&cfg, "CodeLlama-7B", &rec(0)), "CodeLlama-7B", &rec(0)).unwrap();
        drop(j);

        assert!(
            std::fs::read(&path).unwrap().starts_with(&JOURNAL_MAGIC),
            "production journals are v3"
        );
        let loaded = load(&path, &cfg, ShardSpec::WHOLE);
        assert_eq!(loaded.header.map(|h| h.shard), Some(ShardSpec::WHOLE));
        assert!(!loaded.needs_compaction());
        let replay = loaded.replay;
        assert_eq!(replay.len(), 3);
        let got = &replay[&cell_of(&cfg, "GPT-4", &rec(1))];
        assert_eq!(got.model, "GPT-4");
        assert_eq!(got.record.low.built, vec![true, false]);
        assert_eq!(got.record.low.ratio, vec![3.5, 0.0]);
        remove(&path);
        assert!(load(&path, &cfg, ShardSpec::WHOLE).replay.is_empty());
    }

    #[test]
    fn failed_sync_is_sticky_and_never_retried() {
        // `fdatasync` on /dev/null fails with EINVAL while writes to it
        // succeed: a real sync failure with no injection hook.
        let cfg = EvalConfig::smoke();
        let j = Journal::open_append(Path::new("/dev/null")).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        let err = j.sync().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        let again = j.sync().unwrap_err();
        assert_eq!(again.kind(), err.kind(), "a failed sync is never retried into success");
        let append = j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap_err();
        assert_eq!(append.kind(), err.kind());
        let claims = j.append_claims(&[cell_of(&cfg, "GPT-4", &rec(2))], 0).unwrap_err();
        assert_eq!(claims.kind(), err.kind());
    }

    #[test]
    fn source_salt_gates_replay_and_empty_salt_is_identity() {
        let cfg = EvalConfig::smoke();
        assert_eq!(config_hash_with(&cfg, &[]), config_hash(&cfg));
        let salt = b"pool-A".to_vec();
        assert_ne!(config_hash_with(&cfg, &salt), config_hash(&cfg));

        // A journal written under one pool's salt: its cells are keyed
        // by the salted hash.
        let path = tmp("sourced");
        let chash = config_hash_with(&cfg, &salt);
        let r = rec(0);
        let cell = CellId::new(chash, "GPT-4", r.task);
        let j = Journal::create_sourced(&path, &cfg, &salt, ShardSpec::WHOLE, 0).unwrap();
        j.append(cell, "GPT-4", &r).unwrap();
        drop(j);

        // Same salt replays; no salt or a different pool replays
        // nothing — and the unsalted loader path gates out too.
        let same = load_counting_sourced(&path, &cfg, &salt, ShardSpec::WHOLE, 0);
        assert_eq!(same.replay.len(), 1);
        assert!(same.replay.contains_key(&cell));
        let other = load_counting_sourced(&path, &cfg, b"pool-B", ShardSpec::WHOLE, 0);
        assert!(other.replay.is_empty());
        assert!(load(&path, &cfg, ShardSpec::WHOLE).replay.is_empty());
        assert!(peek_progress(&path, &cfg, &[], ShardSpec::WHOLE, 0).is_none());
        let peek = peek_progress(&path, &cfg, &salt, ShardSpec::WHOLE, 0).unwrap();
        assert!(peek.done.contains(&cell.0));

        // Compaction preserves the salt.
        compact_sourced(&path, &cfg, &salt, ShardSpec::WHOLE, 0, &same.replay).unwrap();
        let again = load_counting_sourced(&path, &cfg, &salt, ShardSpec::WHOLE, 0);
        assert_eq!(again.replay.len(), 1);
        remove(&path);
    }

    #[test]
    fn replayed_record_serializes_byte_identically() {
        let cfg = EvalConfig::smoke();
        let path = tmp("bytes");
        let original = rec(2);
        let j = create(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &original), "GPT-4", &original).unwrap();
        drop(j);
        let replay = load(&path, &cfg, ShardSpec::WHOLE).replay;
        let back = &replay[&cell_of(&cfg, "GPT-4", &original)];
        assert_eq!(
            serde_json::to_string(&original).unwrap(),
            serde_json::to_string(&back.record).unwrap(),
        );
        remove(&path);
    }

    #[test]
    fn claims_are_skipped_on_replay_and_folded_by_compaction() {
        let cfg = EvalConfig::smoke();
        let path = tmp("claims");
        let spec = ShardSpec::new(1, 3);
        let j = create(&path, &cfg, spec);
        let done = cell_of(&cfg, "GPT-4", &rec(0));
        j.append(done, "GPT-4", &rec(0)).unwrap();
        // Claim two cells, then complete only one — the other is a
        // thief that died between claim and result.
        let c1 = cell_of(&cfg, "GPT-4", &rec(1));
        let c2 = cell_of(&cfg, "CodeLlama-7B", &rec(0));
        j.append_claims(&[c1, c2], 1).unwrap();
        j.append(c1, "GPT-4", &rec(1)).unwrap();
        drop(j);

        let loaded = load(&path, &cfg, spec);
        assert_eq!(loaded.replay.len(), 2, "claims never replay");
        assert!(loaded.replay.contains_key(&done));
        assert!(loaded.replay.contains_key(&c1));
        assert!(!loaded.replay.contains_key(&c2));
        assert_eq!(loaded.stale_frames, 2, "each claim counts stale so resume compacts");
        assert!(loaded.rejects.is_empty(), "claims are a frame kind, not corruption");
        assert!(loaded.needs_compaction());

        // Compaction folds the claims away: the unfinished claim's
        // cell is simply absent — stealable / gap-fillable again.
        compact(&path, &cfg, spec, &loaded.replay).unwrap();
        let again = load(&path, &cfg, spec);
        assert_eq!(again.replay.len(), 2);
        assert_eq!(again.stale_frames, 0);
        assert!(!again.needs_compaction());
        remove(&path);
    }

    #[test]
    fn peek_progress_reports_done_and_claimed_without_replay() {
        let cfg = EvalConfig::smoke();
        let path = tmp("peek");
        let spec = ShardSpec::new(0, 3);
        let j = create(&path, &cfg, spec);
        let done = cell_of(&cfg, "GPT-4", &rec(0));
        let claimed = cell_of(&cfg, "GPT-4", &rec(1));
        j.append(done, "GPT-4", &rec(0)).unwrap();
        j.append_claims(&[claimed], 2).unwrap();
        drop(j);

        let p = peek_progress(&path, &cfg, &[], spec, 0).unwrap();
        assert!(p.done.contains(&done.0));
        assert!(p.claimed.contains(&claimed.0));
        assert_eq!((p.done.len(), p.claimed.len()), (1, 1));

        // Gated exactly like replay: wrong geometry, wrong config,
        // wrong priors hash, or a missing file sees no progress.
        assert!(peek_progress(&path, &cfg, &[], ShardSpec::new(1, 3), 0).is_none());
        assert!(peek_progress(&path, &cfg, &[], spec, 7).is_none());
        let mut other = EvalConfig::smoke();
        other.seed += 1;
        assert!(peek_progress(&path, &other, &[], spec, 0).is_none());
        assert!(peek_progress(&tmp("peek-missing"), &cfg, &[], spec, 0).is_none());

        // A torn tail truncates the peek to the clean prefix.
        let mut bytes = std::fs::read(&path).unwrap();
        let torn = frame::encode_frame(999, &codec::encode_entry("GPT-4", &rec(2)));
        bytes.extend_from_slice(&torn[..torn.len() - 3]);
        std::fs::write(&path, &bytes).unwrap();
        let p = peek_progress(&path, &cfg, &[], spec, 0).unwrap();
        assert_eq!((p.done.len(), p.claimed.len()), (1, 1));
        remove(&path);
    }

    #[test]
    fn config_or_shard_mismatch_replays_nothing() {
        let cfg = EvalConfig::smoke();
        let path = tmp("mismatch");
        let j = create(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        drop(j);
        let mut other = EvalConfig::smoke();
        other.seed += 1;
        assert_ne!(config_hash(&cfg), config_hash(&other));
        assert!(load(&path, &other, ShardSpec::WHOLE).replay.is_empty());
        // A whole-grid journal must not replay into a shard worker.
        assert!(load(&path, &cfg, ShardSpec::new(0, 3)).replay.is_empty());
        assert_eq!(load(&path, &cfg, ShardSpec::WHOLE).replay.len(), 1);
        remove(&path);
    }

    #[test]
    fn torn_frame_truncates_replay_and_counts_stale() {
        let cfg = EvalConfig::smoke();
        let path = tmp("torn");
        let j = create(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        drop(j);
        // Simulate a crash mid-append: a torn third frame, then a valid
        // fourth frame that must NOT be trusted.
        let mut bytes = std::fs::read(&path).unwrap();
        let torn_offset = bytes.len() as u64;
        let torn = frame::encode_frame(12345, &codec::encode_entry("GPT-4", &rec(2)));
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let loaded = load(&path, &cfg, ShardSpec::WHOLE);
        assert_eq!(loaded.replay.len(), 2, "replay stops at the torn frame");
        assert_eq!(loaded.stale_frames, 1, "the torn frame is stale");
        assert!(loaded.needs_compaction());
        assert_eq!(loaded.rejects.len(), 1);
        let r = &loaded.rejects[0];
        assert_eq!((r.offset, r.frame), (torn_offset, 3));
        assert!(r.to_string().contains("torn tail"), "{r}");

        // Now a whole valid frame after the torn one: still untrusted.
        let whole =
            frame::encode_frame(cell_of(&cfg, "CodeLlama-7B", &rec(3)).0, &codec::encode_entry("CodeLlama-7B", &rec(3)));
        bytes.extend_from_slice(&whole);
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load(&path, &cfg, ShardSpec::WHOLE);
        assert_eq!(loaded.replay.len(), 2);
        assert!(!loaded.replay.contains_key(&cell_of(&cfg, "CodeLlama-7B", &rec(3))));
        remove(&path);
    }

    #[test]
    fn bit_flip_is_rejected_with_location() {
        let cfg = EvalConfig::smoke();
        let path = tmp("flip");
        let j = create(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        drop(j);
        let clean = std::fs::read(&path).unwrap();
        let offsets = entry_offsets(&path);
        // Flip one payload byte inside the FIRST entry frame.
        let mut bytes = clean.clone();
        let target = offsets[0] as usize + FRAME_OVERHEAD + 2;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load(&path, &cfg, ShardSpec::WHOLE);
        assert!(loaded.replay.is_empty(), "nothing after the flip is trusted");
        assert_eq!(loaded.stale_frames, 2, "the corrupt frame and the structural tail");
        assert_eq!(loaded.rejects.len(), 1);
        let r = &loaded.rejects[0];
        assert_eq!((r.offset, r.frame), (offsets[0], 1));
        assert!(r.to_string().contains("CRC mismatch"), "{r}");
        remove(&path);
    }

    #[test]
    fn forged_cell_id_is_treated_as_corruption() {
        let cfg = EvalConfig::smoke();
        let path = tmp("forged");
        let j = create(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        // An entry whose stored id belongs to a different cell. The
        // frame CRC is valid (it was written that way), so only the
        // cell self-check can catch it.
        j.append(cell_of(&cfg, "GPT-4", &rec(2)), "GPT-4", &rec(1)).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(3)), "GPT-4", &rec(3)).unwrap();
        drop(j);
        let loaded = load(&path, &cfg, ShardSpec::WHOLE);
        assert_eq!(loaded.replay.len(), 1, "replay truncates at the forged frame");
        assert_eq!(loaded.stale_frames, 2);
        assert_eq!(loaded.rejects.len(), 1);
        assert_eq!(loaded.rejects[0].cell, Some(cell_of(&cfg, "GPT-4", &rec(2)).0));
        assert!(loaded.rejects[0].to_string().contains("self-check"), "{}", loaded.rejects[0]);
        remove(&path);
    }

    #[test]
    fn duplicate_appends_fold_to_last_write_and_compact() {
        let cfg = EvalConfig::smoke();
        let path = tmp("dup");
        let j = create(&path, &cfg, ShardSpec::WHOLE);
        let mut first = rec(0);
        first.low.ratio = vec![1.0, 0.0];
        j.append(cell_of(&cfg, "GPT-4", &first), "GPT-4", &first).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        // The same cell re-appended (post-truncation re-evaluation).
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        drop(j);

        let loaded = load(&path, &cfg, ShardSpec::WHOLE);
        assert_eq!(loaded.replay.len(), 2);
        assert_eq!(loaded.stale_frames, 1, "the shadowed first append is stale");
        assert!(loaded.rejects.is_empty(), "duplicates are tolerated, not rejected");
        assert_eq!(
            loaded.replay[&cell_of(&cfg, "GPT-4", &rec(0))].record.low.ratio,
            rec(0).low.ratio,
            "last write wins"
        );

        // Compaction rewrites to exactly the replayable generation...
        compact(&path, &cfg, ShardSpec::WHOLE, &loaded.replay).unwrap();
        let again = load(&path, &cfg, ShardSpec::WHOLE);
        assert_eq!(again.stale_frames, 0, "a compacted journal has no stale frames");
        assert_eq!(again.replay.len(), 2);
        // ...and the compacted journal still replays byte-identically.
        assert_eq!(
            serde_json::to_string(&again.replay[&cell_of(&cfg, "GPT-4", &rec(1))].record).unwrap(),
            serde_json::to_string(&rec(1)).unwrap(),
        );
        // Appending after compaction still works (resume continues).
        let j = Journal::open_append(&path).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(4)), "GPT-4", &rec(4)).unwrap();
        drop(j);
        assert_eq!(load(&path, &cfg, ShardSpec::WHOLE).replay.len(), 3);
        remove(&path);
    }

    #[test]
    fn append_after_resume_extends_the_same_journal() {
        let cfg = EvalConfig::smoke();
        let path = tmp("extend");
        let j = create(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        drop(j);
        let j = Journal::open_append(&path).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        drop(j);
        assert_eq!(load(&path, &cfg, ShardSpec::WHOLE).replay.len(), 2);
        remove(&path);
    }

    #[test]
    fn entry_offsets_walk_frame_boundaries() {
        let cfg = EvalConfig::smoke();
        let path = tmp("offsets");
        let j = create(&path, &cfg, ShardSpec::WHOLE);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(1)), "GPT-4", &rec(1)).unwrap();
        drop(j);
        let offsets = entry_offsets(&path);
        assert_eq!(offsets.len(), 3, "two entries plus the end sentinel");
        assert_eq!(*offsets.last().unwrap(), std::fs::metadata(&path).unwrap().len());
        // Truncating at an entry offset yields a clean shorter journal.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..offsets[1] as usize]).unwrap();
        let loaded = load(&path, &cfg, ShardSpec::WHOLE);
        assert_eq!(loaded.replay.len(), 1);
        assert_eq!(loaded.stale_frames, 0);
        remove(&path);
    }

    #[test]
    fn journal_paths_derive_from_cache_path() {
        let p = journal_path(Path::new("target/pcgbench/records-quick.rec"));
        assert_eq!(p, Path::new("target/pcgbench/records-quick.rec.journal"));
        let s = shard_journal_path(
            Path::new("target/pcgbench/records-quick.rec"),
            ShardSpec::new(1, 3),
        );
        assert_eq!(
            s,
            Path::new("target/pcgbench/records-quick.rec.journal.shard-1-of-3")
        );
        assert_eq!(
            shard_journal_path(Path::new("x.rec"), ShardSpec::WHOLE),
            journal_path(Path::new("x.rec")),
        );
    }

    #[test]
    fn priors_hash_mismatch_replays_nothing() {
        let cfg = EvalConfig::smoke();
        let path = tmp("priors");
        let with_priors =
            |hash| load_counting_sourced(&path, &cfg, &[], ShardSpec::WHOLE, hash);
        let j = Journal::create_sourced(&path, &cfg, &[], ShardSpec::WHOLE, 0xabcd).unwrap();
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        drop(j);

        assert_eq!(with_priors(0xabcd).replay.len(), 1);
        // A different priors table — or none at all — partitioned the
        // grid differently; its journal must not replay, but its header
        // still names the stamp it was written under.
        let other = with_priors(0x1234);
        assert!(other.replay.is_empty());
        assert_eq!(other.header.map(|h| h.priors_hash), Some(0xabcd));
        assert!(with_priors(0).replay.is_empty());

        // Compaction preserves the stamp.
        let loaded = with_priors(0xabcd);
        compact_sourced(&path, &cfg, &[], ShardSpec::WHOLE, 0xabcd, &loaded.replay).unwrap();
        let again = with_priors(0xabcd);
        assert_eq!(again.header.map(|h| h.priors_hash), Some(0xabcd));
        assert_eq!(again.replay.len(), 1);
        remove(&path);
        assert!(with_priors(0xabcd).header.is_none(), "a missing file has no header");
    }

    #[test]
    fn pre_priors_headers_read_as_hash_zero() {
        let cfg = EvalConfig::smoke();
        let path = tmp("pre-priors");
        // Hand-write a v3 journal whose header ends at shard_count —
        // the exact layout shipped before the priors field existed.
        let mut w = ByteWriter::new();
        w.put_u32(VERSION);
        w.put_u64(config_hash(&cfg));
        w.put_u32(ShardSpec::WHOLE.index);
        w.put_u32(ShardSpec::WHOLE.count);
        let mut bytes = JOURNAL_MAGIC.to_vec();
        frame::encode_frame_into(&mut bytes, HEADER_CELL, &w.into_bytes());
        let id = cell_of(&cfg, "GPT-4", &rec(0));
        frame::encode_frame_into(&mut bytes, id.0, &codec::encode_entry("GPT-4", &rec(0)));
        std::fs::write(&path, &bytes).unwrap();

        let loaded = load(&path, &cfg, ShardSpec::WHOLE);
        assert_eq!(loaded.header.map(|h| h.priors_hash), Some(0));
        assert_eq!(loaded.replay.len(), 1, "old journals still replay");
        assert!(
            load_counting_sourced(&path, &cfg, &[], ShardSpec::WHOLE, 7).replay.is_empty(),
            "but never into a run with priors"
        );
        remove(&path);
    }

    #[test]
    fn shard_journals_replay_into_their_own_spec_only() {
        let cfg = EvalConfig::smoke();
        let path = tmp("shard");
        let spec = ShardSpec::new(1, 3);
        let j = create(&path, &cfg, spec);
        j.append(cell_of(&cfg, "GPT-4", &rec(0)), "GPT-4", &rec(0)).unwrap();
        drop(j);
        assert_eq!(load(&path, &cfg, spec).replay.len(), 1);
        assert!(load(&path, &cfg, ShardSpec::new(0, 3)).replay.is_empty());
        assert!(load(&path, &cfg, ShardSpec::WHOLE).replay.is_empty());
        remove(&path);
    }
}
