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
//!
//! The journal writes entries in place into its frame buffer
//! (`put_entry` inside `frame::encode_frame_with`); [`encode_entry`]
//! is the standalone form. Each `bool` and `f64` run is written and
//! read as one block, with every bool byte still checked.

use crate::record::TaskRecord;
use pcg_core::frame::{ByteReader, ByteWriter, CodecError};
use pcg_core::TaskId;
use pcg_metrics::TaskSamples;
use std::collections::BTreeMap;

fn put_samples(w: &mut ByteWriter, s: &TaskSamples) {
    w.put_bools(&s.built);
    w.put_bools(&s.correct);
    w.put_f64s(&s.ratio);
}

fn get_samples(r: &mut ByteReader<'_>) -> Result<TaskSamples, CodecError> {
    Ok(TaskSamples { built: r.bools()?, correct: r.bools()?, ratio: r.f64s()? })
}

/// Write one `(model, record)` cell's v3 frame payload into `w`, in
/// place (see [`pcg_core::frame::encode_frame_with`]).
pub(crate) fn put_entry(w: &mut ByteWriter, model: &str, record: &TaskRecord) {
    w.put_str(model);
    w.put_u32(u32::try_from(record.task.index()).expect("task index fits in u32"));
    put_samples(w, &record.low);
    match &record.high {
        Some(high) => {
            w.put_bool(true);
            put_samples(w, high);
        }
        None => w.put_bool(false),
    }
    w.put_len(record.sweep.len());
    for (&k, ratios) in &record.sweep {
        w.put_u32(k);
        w.put_f64s(ratios);
    }
}

/// The exact number of bytes [`put_entry`] writes for `(model, record)`,
/// so a single frame can be allocated once at its final size.
pub(crate) fn entry_len(model: &str, record: &TaskRecord) -> usize {
    let samples = |s: &TaskSamples| 12 + s.built.len() + s.correct.len() + 8 * s.ratio.len();
    let high = record.high.as_ref().map_or(0, samples);
    let sweep: usize = record.sweep.values().map(|r| 8 + 8 * r.len()).sum();
    // model, task, low, high_present, high, sweep_len, sweep entries
    (4 + model.len()) + 4 + samples(&record.low) + 1 + high + 4 + sweep
}

/// Encode one `(model, record)` cell into a standalone v3 frame
/// payload.
pub fn encode_entry(model: &str, record: &TaskRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_entry(&mut w, model, record);
    w.into_bytes()
}

/// Decode a v3 frame payload back into `(model, record)`. Any
/// malformation — truncation, junk bools, an out-of-range task index,
/// out-of-order sweep keys, trailing bytes — is an error describing
/// what failed and where.
pub fn decode_entry(payload: &[u8]) -> Result<(String, TaskRecord), String> {
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
    let low = get_samples(&mut r).map_err(err)?;
    let high = if r.bool().map_err(err)? { Some(get_samples(&mut r).map_err(err)?) } else { None };
    let sweep_len = r.len(8).map_err(err)?;
    let mut sweep = BTreeMap::new();
    let mut last_key: Option<u32> = None;
    for _ in 0..sweep_len {
        let k = r.u32().map_err(err)?;
        if last_key.is_some_and(|prev| prev >= k) {
            return Err(format!("sweep keys out of order: {k} after {}", last_key.unwrap()));
        }
        last_key = Some(k);
        sweep.insert(k, r.f64s().map_err(err)?);
    }
    if !r.is_exhausted() {
        return Err("trailing bytes after a complete entry".to_string());
    }
    Ok((model, TaskRecord { task, low, high, sweep }))
}

fn err(e: CodecError) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcg_core::frame::{decode_claim_payload, encode_claim_payload};
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
        let claim = encode_claim_payload(1);
        assert_eq!(decode_claim_payload(&claim), Some(1));
        let err = decode_entry(&claim).unwrap_err();
        assert!(err.contains("claim"), "claim rejection must name the frame kind, got: {err}");
        // And entries never decode as claims.
        assert_eq!(decode_claim_payload(&encode_entry("GPT-4", &rec())), None);
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

    #[test]
    fn every_bool_byte_set_to_2_is_rejected_at_its_own_offset() {
        let record = rec();
        let payload = encode_entry("GPT-4", &record);
        // Walk the layout to the offset of every bool byte: the built
        // and correct runs of `low` and `high`, and the high_present
        // flag between the two sets.
        let mut runs = Vec::new();
        let walk_set = |at: &mut usize, s: &TaskSamples, runs: &mut Vec<usize>| {
            for n in [s.built.len(), s.correct.len()] {
                *at += 4;
                runs.extend(*at..*at + n);
                *at += n;
            }
            *at += 4 + 8 * s.ratio.len();
        };
        let mut at = 4 + "GPT-4".len() + 4;
        walk_set(&mut at, &record.low, &mut runs);
        let flag = at;
        at += 1;
        walk_set(&mut at, record.high.as_ref().unwrap(), &mut runs);
        let found: Vec<u8> = runs.iter().map(|&i| payload[i]).collect();
        assert_eq!(found, [1, 1, 0, 1, 0, 0, 1, 0], "the walk must land on the bool bytes");
        assert_eq!(payload[flag], 1, "the walk must land on high_present");

        for i in runs.into_iter().chain([flag]) {
            let mut bad = payload.clone();
            bad[i] = 2;
            let err = decode_entry(&bad).unwrap_err();
            assert!(
                err.contains(&format!("at byte {i}: expected bool (0 or 1)")),
                "a 2 at byte {i} must be reported there, got: {err}"
            );
        }
    }

    #[test]
    fn entry_len_is_the_encoded_length() {
        let mut r = rec();
        assert_eq!(entry_len("GPT-4", &r), encode_entry("GPT-4", &r).len());
        r.high = None;
        r.sweep.clear();
        assert_eq!(entry_len("", &r), encode_entry("", &r).len());
    }
}
