//! Length-prefixed, CRC-checked binary frames — the journal v3 codec.
//!
//! The write-ahead journal's v1/v2 formats were JSONL: one
//! `serde_json` line per completed cell. At service scale (millions of
//! cells, every submission journaled) parsing JSON per line dominates
//! replay, merge, and compaction. v3 frames carry an opaque binary
//! payload behind a fixed 16-byte header, so a reader can skip, verify,
//! and slice entries without touching a JSON parser.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     len   — payload length in bytes (u32)
//! 4       8     cell  — cell address tag (u64; 0 for the header frame)
//! 12      4     crc   — CRC-32 (IEEE) over cell bytes ++ payload
//! 16      len   payload
//! ```
//!
//! The CRC covers the cell tag *and* the payload, so a bit flip in
//! either is caught directly; a flip in `len` or `crc` desynchronizes
//! the check itself and is caught the same way (the probability of a
//! random corruption passing is 2⁻³²). A flip in `len` that points the
//! reader past the end of the buffer is reported as a torn tail — the
//! same classification a crash mid-append produces — because the two
//! are indistinguishable from the bytes alone and both truncate replay.
//!
//! Decoding never allocates: a [`Frame`] borrows its payload from the
//! input buffer, which the journal reads in one buffered `fs::read`.
//! Encoding builds no payload buffer either: [`encode_frame_with`]
//! lets the payload codec write straight into the output after a
//! reserved header.
//!
//! This module lives in `pcg-core` next to `plan.rs`'s FNV-1a for the
//! same reason cell addressing does: every process that touches a
//! journal (workers, merge, tests, fuzzers) must agree on the exact
//! byte contract.

/// File magic for a v3 journal. A file that does not start with these
/// 8 bytes is not a v3 journal, and the harness replays nothing from
/// it.
pub const JOURNAL_MAGIC: [u8; 8] = *b"PCGJRNL3";

/// Fixed bytes before each frame's payload: `len (4) + cell (8) + crc (4)`.
pub const FRAME_OVERHEAD: usize = 16;

/// Payload magic for a **claim frame** — the second frame kind, used by
/// live work stealing between shard workers. A thief appends a claim
/// frame (cell tag = the claimed cell, payload = this magic + its own
/// shard index) to its *own* journal **before** evaluating a stolen
/// cell, so a crash after the claim loses at most duplicated work,
/// never the cell: merge gap-fill re-evaluates anything claimed but
/// never journaled.
///
/// The discriminator is the payload prefix rather than a new header
/// field so the frame layout above is unchanged and old readers fail
/// safe: an entry payload starts with a `u32` model-name length, and
/// these eight bytes read as a length of ~1.1 billion, which the
/// bounded entry decoder rejects — a claim can never be mistaken for a
/// result.
pub const CLAIM_MAGIC: [u8; 8] = *b"PCGCLAIM";

/// Encode a claim-frame payload: [`CLAIM_MAGIC`] followed by the
/// thief's shard index (little-endian `u32`). The claimed cell rides
/// in the frame's cell tag, covered by the frame CRC.
pub fn encode_claim_payload(thief_index: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&CLAIM_MAGIC);
    out.extend_from_slice(&thief_index.to_le_bytes());
    out
}

/// Decode a claim-frame payload, returning the thief's shard index.
/// `None` means the payload is not a claim (no magic prefix) or is
/// malformed (wrong length / trailing bytes) — callers treat malformed
/// claims like any other undecodable payload.
pub fn decode_claim_payload(payload: &[u8]) -> Option<u32> {
    if payload.len() != CLAIM_MAGIC.len() + 4 || payload[..8] != CLAIM_MAGIC {
        return None;
    }
    Some(u32::from_le_bytes(payload[8..12].try_into().unwrap()))
}

/// Whether a verified frame payload is a claim frame. The cheap
/// prefix test readers use to branch before attempting entry decode.
pub fn is_claim_payload(payload: &[u8]) -> bool {
    payload.len() >= CLAIM_MAGIC.len() && payload[..CLAIM_MAGIC.len()] == CLAIM_MAGIC
}

/// Slicing-by-16 lookup tables for CRC-32 (IEEE 802.3, polynomial
/// `0xEDB88320` reflected), after Kounavis & Berry (ISCC 2005).
/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so one lookup per
/// byte of a 16-byte block, XORed together, advances the CRC past the
/// whole block.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Fold `bytes` into a running CRC-32 accumulator (start from
/// [`crc32_start`], finish with [`crc32_finish`]). Chaining is
/// concatenation, like [`crate::plan::fnv1a_extend`]. Whole 16-byte
/// blocks take 16 independent table lookups each; the tail goes a byte
/// at a time. The result is bit-identical to zlib's `crc32`.
pub fn crc32_extend(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("chunks_exact yields 16-byte blocks");
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The CRC-32 pre-inversion seed.
pub fn crc32_start() -> u32 {
    0xFFFF_FFFF
}

/// Finalize a CRC-32 accumulator.
pub fn crc32_finish(crc: u32) -> u32 {
    !crc
}

/// CRC-32 (IEEE) of one byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_extend(crc32_start(), bytes))
}

/// One decoded frame, borrowing its payload from the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The cell address tag (0 for the header frame).
    pub cell: u64,
    /// The verified payload bytes.
    pub payload: &'a [u8],
    /// Byte offset one past this frame (where the next frame starts).
    pub end: usize,
}

/// Why a frame failed to decode. Both variants truncate replay at the
/// frame's start offset; the distinction is diagnostic (a torn tail is
/// the expected state after a crash mid-append, a CRC mismatch means
/// the bytes were altered in place).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame's declared extent: either a
    /// crash mid-append or a corrupted length prefix pointing past the
    /// end — indistinguishable, and both handled by truncation.
    TornTail {
        /// Byte offset of the frame's start.
        offset: usize,
        /// Bytes available from `offset`.
        have: usize,
        /// Bytes the header (or its length field) demanded.
        need: usize,
    },
    /// The stored CRC disagrees with the CRC computed over the cell
    /// tag and payload.
    BadCrc {
        /// Byte offset of the frame's start.
        offset: usize,
        /// The cell tag as stored (untrusted).
        cell: u64,
        /// The CRC as stored.
        stored: u32,
        /// The CRC computed from the bytes.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TornTail { offset, have, need } => write!(
                f,
                "torn tail at byte offset {offset}: frame needs {need} bytes, {have} remain"
            ),
            FrameError::BadCrc { offset, cell, stored, computed } => write!(
                f,
                "CRC mismatch at byte offset {offset} (cell {cell:016x}): stored {stored:08x}, computed {computed:08x}"
            ),
        }
    }
}

/// Append one frame for `cell` to `out`, with `payload` writing the
/// payload bytes in place: the 16-byte header is reserved first, the
/// payload goes straight after it, then `len` and `crc` are patched in.
/// No intermediate payload buffer is built.
pub fn encode_frame_with(out: &mut Vec<u8>, cell: u64, payload: impl FnOnce(&mut ByteWriter)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_OVERHEAD]);
    let mut w = ByteWriter { buf: std::mem::take(out) };
    payload(&mut w);
    *out = w.buf;
    let body = start + FRAME_OVERHEAD;
    let len = u32::try_from(out.len() - body).expect("frame payload must fit in u32");
    let crc = crc32_finish(crc32_extend(
        crc32_extend(crc32_start(), &cell.to_le_bytes()),
        &out[body..],
    ));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 12].copy_from_slice(&cell.to_le_bytes());
    out[start + 12..body].copy_from_slice(&crc.to_le_bytes());
}

/// Append one encoded frame for `(cell, payload)` to `out`.
pub fn encode_frame_into(out: &mut Vec<u8>, cell: u64, payload: &[u8]) {
    encode_frame_with(out, cell, |w| w.buf.extend_from_slice(payload));
}

/// Encode one frame for `(cell, payload)`.
pub fn encode_frame(cell: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    encode_frame_into(&mut out, cell, payload);
    out
}

/// Decode the frame starting at `offset` in `buf`.
///
/// Returns `None` on a clean end of input (`offset == buf.len()`),
/// `Some(Ok)` for a verified frame, `Some(Err)` for a torn or corrupt
/// one. Trailing bytes that cannot hold a header are a torn tail, not
/// a clean end — a crashed writer can stop mid-header.
pub fn decode_frame(buf: &[u8], offset: usize) -> Option<Result<Frame<'_>, FrameError>> {
    let remaining = buf.len().checked_sub(offset)?;
    if remaining == 0 {
        return None;
    }
    if remaining < FRAME_OVERHEAD {
        return Some(Err(FrameError::TornTail { offset, have: remaining, need: FRAME_OVERHEAD }));
    }
    let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap()) as usize;
    let cell = u64::from_le_bytes(buf[offset + 4..offset + 12].try_into().unwrap());
    let stored = u32::from_le_bytes(buf[offset + 12..offset + 16].try_into().unwrap());
    let need = FRAME_OVERHEAD
        .checked_add(len)
        .ok_or(())
        .unwrap_or(usize::MAX);
    if remaining < need {
        return Some(Err(FrameError::TornTail { offset, have: remaining, need }));
    }
    let payload = &buf[offset + FRAME_OVERHEAD..offset + FRAME_OVERHEAD + len];
    let computed = crc32_finish(crc32_extend(
        crc32_extend(crc32_start(), &cell.to_le_bytes()),
        payload,
    ));
    if computed != stored {
        return Some(Err(FrameError::BadCrc { offset, cell, stored, computed }));
    }
    Some(Ok(Frame { cell, payload, end: offset + FRAME_OVERHEAD + len }))
}

// ---------------------------------------------------------------------
// Payload byte codec helpers
// ---------------------------------------------------------------------

/// Little-endian byte writer for frame payloads. Fixed-width integers,
/// `f64` as raw IEEE-754 bits (exact round trip — the byte journal
/// preserves every float bit-for-bit, so a JSON export after a binary
/// round trip prints the identical shortest-roundtrip string), strings
/// and sequences length-prefixed with `u32`.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append one bool as a byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append one `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append one `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append one `f64` as its raw bits, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length (`u32`) for a prefixed sequence.
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("sequence length must fit in u32"));
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a `u32`-length-prefixed run of bools, one byte (`0`/`1`)
    /// each.
    pub fn put_bools(&mut self, v: &[bool]) {
        self.put_len(v.len());
        self.buf.extend(v.iter().map(|&b| u8::from(b)));
    }

    /// Append a `u32`-length-prefixed run of `f64`s, each as its raw
    /// bits, little-endian.
    pub fn put_f64s(&mut self, v: &[f64]) {
        self.put_len(v.len());
        let start = self.buf.len();
        self.buf.resize(start + 8 * v.len(), 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(8).zip(v) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }
}

/// Payload decoding failure: what was expected, at which payload byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset within the payload where decoding failed.
    pub at: usize,
    /// What the decoder was trying to read.
    pub what: &'static str,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload truncated or malformed at byte {}: expected {}", self.at, self.what)
    }
}

/// Little-endian byte reader matching [`ByteWriter`]. Every read is
/// bounds-checked and returns a [`CodecError`] instead of panicking —
/// a CRC-valid frame whose payload does not decode is still corruption
/// (it can only happen across an incompatible codec change) and must be
/// rejected loudly, never trusted.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from `buf`, starting at byte 0.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CodecError { at: self.pos, what }),
        }
    }

    /// Read one `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read one bool (any nonzero byte is an error — a flipped flag
    /// byte must not decode as `true`).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.take(1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError { at: self.pos - 1, what: "bool (0 or 1)" }),
        }
    }

    /// Read one `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Read one `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Read one `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a sequence length, bounded by the bytes that could actually
    /// follow (`min_elem_bytes` per element) so a corrupt length cannot
    /// drive a huge allocation.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(CodecError { at: self.pos - 4, what: "plausible sequence length" });
        }
        Ok(n)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.len(1)?;
        let at = self.pos;
        std::str::from_utf8(self.take(n, "string bytes")?)
            .map_err(|_| CodecError { at, what: "UTF-8 string" })
    }

    /// Read a `u32`-length-prefixed run of bools written by
    /// [`ByteWriter::put_bools`]. The bytes are taken at once, then
    /// checked: any byte other than 0 or 1 is an error at its own
    /// offset, exactly as [`ByteReader::bool`] would report it.
    pub fn bools(&mut self) -> Result<Vec<bool>, CodecError> {
        let n = self.len(1)?;
        let at = self.pos;
        let bytes = self.take(n, "bool")?;
        if let Some(i) = bytes.iter().position(|&b| b > 1) {
            return Err(CodecError { at: at + i, what: "bool (0 or 1)" });
        }
        Ok(bytes.iter().map(|&b| b == 1).collect())
    }

    /// Read a `u32`-length-prefixed run of `f64`s written by
    /// [`ByteWriter::put_f64s`], taking all `8 × n` bytes at once.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.len(8)?;
        let bytes = self.take(8 * n, "f64")?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact yields 8-byte words")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Chaining is concatenation.
        let chained =
            crc32_finish(crc32_extend(crc32_extend(crc32_start(), b"1234"), b"56789"));
        assert_eq!(chained, 0xCBF4_3926);
        // Long enough to run the 16-byte block loop and the tail.
        let fox = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(crc32(fox), 0x414F_A339);
        let (a, b) = fox.split_at(21);
        assert_eq!(crc32_finish(crc32_extend(crc32_extend(crc32_start(), a), b)), 0x414F_A339);
    }

    #[test]
    fn frame_roundtrips() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, 7, b"hello");
        encode_frame_into(&mut buf, u64::MAX, b"");
        encode_frame_into(&mut buf, 0, &[0xFF; 300]);

        let f1 = decode_frame(&buf, 0).unwrap().unwrap();
        assert_eq!((f1.cell, f1.payload), (7, &b"hello"[..]));
        let f2 = decode_frame(&buf, f1.end).unwrap().unwrap();
        assert_eq!((f2.cell, f2.payload.len()), (u64::MAX, 0));
        let f3 = decode_frame(&buf, f2.end).unwrap().unwrap();
        assert_eq!((f3.cell, f3.payload), (0, &[0xFF; 300][..]));
        assert!(decode_frame(&buf, f3.end).is_none(), "clean EOF");
    }

    #[test]
    fn torn_tails_are_classified_not_misread() {
        let buf = encode_frame(42, b"payload bytes");
        // Every proper prefix of a frame is a torn tail.
        for cut in 1..buf.len() {
            match decode_frame(&buf[..cut], 0) {
                Some(Err(FrameError::TornTail { offset: 0, .. })) => {}
                other => panic!("prefix of {cut} bytes decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_caught() {
        let buf = encode_frame(42, b"some payload worth protecting");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupt = buf.clone();
                corrupt[byte] ^= 1 << bit;
                match decode_frame(&corrupt, 0) {
                    Some(Err(_)) => {}
                    Some(Ok(f)) => panic!(
                        "flip at byte {byte} bit {bit} decoded as cell {} payload {:?}",
                        f.cell, f.payload
                    ),
                    None => panic!("flip at byte {byte} bit {bit} read as clean EOF"),
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_a_torn_tail() {
        let mut buf = encode_frame(1, b"x");
        // Claim a payload far past the end of the buffer.
        buf[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&buf, 0) {
            Some(Err(FrameError::TornTail { .. })) => {}
            other => panic!("oversized length decoded as {other:?}"),
        }
    }

    #[test]
    fn claim_payloads_roundtrip_and_discriminate() {
        let p = encode_claim_payload(2);
        assert!(is_claim_payload(&p));
        assert_eq!(decode_claim_payload(&p), Some(2));
        assert_eq!(decode_claim_payload(&encode_claim_payload(u32::MAX)), Some(u32::MAX));

        // A claim frame survives the frame codec like any other frame.
        let framed = encode_frame(0xDEAD_BEEF, &p);
        let f = decode_frame(&framed, 0).unwrap().unwrap();
        assert_eq!(f.cell, 0xDEAD_BEEF);
        assert_eq!(decode_claim_payload(f.payload), Some(2));

        // Not claims: empty, truncated, trailing junk, wrong magic.
        assert_eq!(decode_claim_payload(b""), None);
        assert_eq!(decode_claim_payload(&p[..11]), None);
        let mut long = p.clone();
        long.push(0);
        assert_eq!(decode_claim_payload(&long), None);
        let mut wrong = p.clone();
        wrong[0] ^= 1;
        assert_eq!(decode_claim_payload(&wrong), None);
        assert!(!is_claim_payload(&wrong));

        // An entry-shaped payload (u32 length prefix of a short name)
        // never looks like a claim: the magic's first byte is 'P', so
        // a name length would have to be >= 0x50 Pa... — byte-compare
        // is exact, not heuristic.
        let mut w = ByteWriter::new();
        w.put_str("gpt-4");
        assert!(!is_claim_payload(&w.into_bytes()));
    }

    #[test]
    fn byte_codec_roundtrips() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.1);
        w.put_f64(f64::NEG_INFINITY);
        w.put_str("modèle");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.str().unwrap(), "modèle");
        assert!(r.is_exhausted());
    }

    #[test]
    fn bulk_helpers_match_the_elementwise_encoding() {
        let flags = [true, false, false, true, true];
        let floats = [0.1 + 0.2, -0.0, f64::NAN, f64::INFINITY, 1e-310];
        let mut bulk = ByteWriter::new();
        bulk.put_bools(&flags);
        bulk.put_f64s(&floats);
        bulk.put_bools(&[]);
        bulk.put_f64s(&[]);
        let mut each = ByteWriter::new();
        each.put_len(flags.len());
        flags.iter().for_each(|&b| each.put_bool(b));
        each.put_len(floats.len());
        floats.iter().for_each(|&x| each.put_f64(x));
        each.put_len(0);
        each.put_len(0);
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, each.into_bytes());

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.bools().unwrap(), flags);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r.f64s().unwrap()), bits(&floats));
        assert!(r.bools().unwrap().is_empty());
        assert!(r.f64s().unwrap().is_empty());
        assert!(r.is_exhausted());
    }

    #[test]
    fn byte_reader_rejects_truncation_and_junk() {
        let mut w = ByteWriter::new();
        w.put_str("abc");
        let bytes = w.into_bytes();
        // Truncated string body.
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(r.str().is_err());
        // Non-0/1 bool byte, alone or inside a run (reported at its
        // own offset: 4 length bytes, then index 2 of the run).
        let mut r = ByteReader::new(&[2]);
        assert!(r.bool().is_err());
        let mut r = ByteReader::new(&[4, 0, 0, 0, 1, 0, 2, 1]);
        assert_eq!(r.bools().unwrap_err().at, 6);
        // A run longer than the bytes left.
        let mut r = ByteReader::new(&[3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(r.f64s().is_err());
        // Implausible sequence length cannot demand a huge allocation.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.len(8).is_err());
    }
}
