//! Binary payload codec for journal v3 entries.
//!
//! One entry frame's payload, in a journal or a committed records
//! cache, is one completed grid cell: the owning
//! model's display name plus the full [`TaskRecord`]. The layout is
//! fixed-order little-endian (see DESIGN.md's journal v3 spec):
//!
//! ```text
//! str   model          — u32 length + UTF-8 bytes
//! u32   task           — TaskId dense index (0..420)
//! lowset                — TaskSamples (see below)
//! u8    high_present   — 0 or 1
//! [set]  high           — TaskSamples, iff high_present == 1
//! u32   sweep_len
//! sweep_len × { u32 resource_count; u32 n; n × f64 ratio }
//! ```
//!
//! where a `TaskSamples` set is
//!
//! ```text
//! u32 n_built;   n_built   × u8 bool
//! u32 n_correct; n_correct × u8 bool
//! u32 n_ratio;   n_ratio   × f64
//! ```
//!
//! Floats are raw IEEE-754 bits, so the binary round trip is exact:
//! a record read back from a journal or cache is bit-for-bit the one
//! written, and the byte-identity contract holds through it.
//!
//! Decoding trusts nothing: every length is bounds-checked against the
//! remaining payload, bools must be 0/1, the task index must be dense
//! (< 420), sweep keys must arrive in strictly increasing order (the
//! encoder writes the `BTreeMap` in order, so out-of-order keys can
//! only mean corruption), and trailing bytes are an error. A CRC-valid
//! frame whose payload fails any of these checks is rejected loudly —
//! the same policy as a CRC failure — never silently misread.

use crate::record::TaskRecord;
use pcg_core::frame::{ByteReader, ByteWriter};
use pcg_core::TaskId;
use pcg_metrics::TaskSamples;
use std::collections::BTreeMap;

fn put_samples(w: &mut ByteWriter, s: &TaskSamples) {
    w.put_len(s.built.len());
    for &b in &s.built {
        w.put_bool(b);
    }
    w.put_len(s.correct.len());
    for &b in &s.correct {
        w.put_bool(b);
    }
    w.put_len(s.ratio.len());
    for &r in &s.ratio {
        w.put_f64(r);
    }
}

fn get_samples(r: &mut ByteReader<'_>) -> Result<TaskSamples, String> {
    let err = |e: pcg_core::frame::CodecError| e.to_string();
    let n = r.len(1).map_err(err)?;
    let mut built = Vec::with_capacity(n);
    for _ in 0..n {
        built.push(r.bool().map_err(err)?);
    }
    let n = r.len(1).map_err(err)?;
    let mut correct = Vec::with_capacity(n);
    for _ in 0..n {
        correct.push(r.bool().map_err(err)?);
    }
    let n = r.len(8).map_err(err)?;
    let mut ratio = Vec::with_capacity(n);
    for _ in 0..n {
        ratio.push(r.f64().map_err(err)?);
    }
    Ok(TaskSamples { built, correct, ratio })
}

/// Encode one `(model, record)` cell into a v3 frame payload.
pub fn encode_entry(model: &str, record: &TaskRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(model);
    w.put_u32(u32::try_from(record.task.index()).expect("task index fits in u32"));
    put_samples(&mut w, &record.low);
    match &record.high {
        Some(high) => {
            w.put_bool(true);
            put_samples(&mut w, high);
        }
        None => w.put_bool(false),
    }
    w.put_len(record.sweep.len());
    for (&k, ratios) in &record.sweep {
        w.put_u32(k);
        w.put_len(ratios.len());
        for &r in ratios {
            w.put_f64(r);
        }
    }
    w.into_bytes()
}

/// Encode a work-stealing claim payload for `thief`: the claimed cell
/// rides in the frame's cell tag; the payload carries only the frame
/// kind discriminator and the thief's shard index (diagnostics — the
/// journal header already names its owner).
pub fn encode_claim(thief_index: u32) -> Vec<u8> {
    pcg_core::frame::encode_claim_payload(thief_index)
}

/// Decode a claim payload back to the thief's shard index; `None` for
/// anything that is not a well-formed claim.
pub fn decode_claim(payload: &[u8]) -> Option<u32> {
    pcg_core::frame::decode_claim_payload(payload)
}

/// Decode a v3 frame payload back into `(model, record)`. Any
/// malformation — truncation, junk bools, an out-of-range task index,
/// out-of-order sweep keys, trailing bytes — is an error describing
/// what failed and where.
pub fn decode_entry(payload: &[u8]) -> Result<(String, TaskRecord), String> {
    let err = |e: pcg_core::frame::CodecError| e.to_string();
    if pcg_core::frame::is_claim_payload(payload) {
        // Belt and braces: the claim magic would also fail the model
        // name length check below (the bytes read as a ~1.1-billion
        // length), but a claim is a *valid* frame kind, not
        // corruption, and the error should say so.
        return Err("claim frame payload, not an entry".to_string());
    }
    let mut r = ByteReader::new(payload);
    let model = r.str().map_err(err)?.to_string();
    let task_index = r.u32().map_err(err)? as usize;
    let task = TaskId::from_index(task_index)
        .ok_or_else(|| format!("task index {task_index} out of range (0..{})", pcg_core::NUM_TASKS))?;
    let low = get_samples(&mut r)?;
    let high = if r.bool().map_err(err)? { Some(get_samples(&mut r)?) } else { None };
    let sweep_len = r.len(8).map_err(err)?;
    let mut sweep = BTreeMap::new();
    let mut last_key: Option<u32> = None;
    for _ in 0..sweep_len {
        let k = r.u32().map_err(err)?;
        if last_key.is_some_and(|prev| prev >= k) {
            return Err(format!("sweep keys out of order: {k} after {}", last_key.unwrap()));
        }
        last_key = Some(k);
        let n = r.len(8).map_err(err)?;
        let mut ratios = Vec::with_capacity(n);
        for _ in 0..n {
            ratios.push(r.f64().map_err(err)?);
        }
        sweep.insert(k, ratios);
    }
    if !r.is_exhausted() {
        return Err("trailing bytes after a complete entry".to_string());
    }
    Ok((model, TaskRecord { task, low, high, sweep }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::{ExecutionModel, ProblemId, ProblemType};

    fn rec() -> TaskRecord {
        TaskRecord {
            task: ProblemId::new(ProblemType::Sort, 2).task(ExecutionModel::Cuda),
            low: TaskSamples {
                built: vec![true, true, false],
                correct: vec![true, false, false],
                ratio: vec![2.5, 0.0, 0.0],
            },
            high: Some(TaskSamples {
                built: vec![true],
                correct: vec![false],
                ratio: vec![],
            }),
            sweep: BTreeMap::from([(2u32, vec![1.5, 0.0]), (8u32, vec![0.1])]),
        }
    }

    #[test]
    fn claim_payloads_never_decode_as_entries() {
        let claim = encode_claim(1);
        assert_eq!(decode_claim(&claim), Some(1));
        let err = decode_entry(&claim).unwrap_err();
        assert!(err.contains("claim"), "claim rejection must name the frame kind, got: {err}");
        // And entries never decode as claims.
        assert_eq!(decode_claim(&encode_entry("GPT-4", &rec())), None);
    }

    #[test]
    fn entry_roundtrips_exactly() {
        let original = rec();
        let payload = encode_entry("GPT-4", &original);
        let (model, back) = decode_entry(&payload).unwrap();
        assert_eq!(model, "GPT-4");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&original).unwrap(),
            "the binary round trip must be JSON-byte-exact"
        );
    }

    #[test]
    fn special_floats_survive_the_roundtrip_bit_for_bit() {
        let mut r = rec();
        r.low.ratio = vec![f64::NAN, -0.0, f64::INFINITY, 0.1 + 0.2];
        r.high = None;
        let (_, back) = decode_entry(&encode_entry("m", &r)).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.low.ratio), bits(&r.low.ratio));
    }

    #[test]
    fn truncation_and_junk_are_rejected_at_every_cut() {
        let payload = encode_entry("CodeLlama-34B", &rec());
        for cut in 0..payload.len() {
            assert!(
                decode_entry(&payload[..cut]).is_err(),
                "a {cut}-byte prefix must not decode"
            );
        }
        // Trailing garbage after a complete entry.
        let mut extended = payload.clone();
        extended.push(0);
        assert!(decode_entry(&extended).is_err());
        // An out-of-range task index.
        let mut bad = payload.clone();
        let model_len = 4 + "CodeLlama-34B".len();
        bad[model_len..model_len + 4].copy_from_slice(&9999u32.to_le_bytes());
        assert!(decode_entry(&bad).is_err());
    }
}
