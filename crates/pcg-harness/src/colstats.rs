//! Columnar stats sidecar: the projection-relevant columns of an
//! evaluation record, plus each cell's measured wall, in one flat
//! binary file.
//!
//! The pipeline and the shard merge commit a `<cache>.cols` sidecar
//! next to the records cache: the *deterministic projection* columns
//! (model names, task identities, build/correct flags, which sweep
//! resource counts were collected), struct-of-arrays, behind a CRC-32,
//! plus the wall column `--priors` reads.
//!
//! [`ColumnarStats::projection`] reproduces
//! [`crate::record::projection`] **byte-for-byte** (asserted against
//! it in tests). The records cache ([`crate::journal::commit_record`])
//! stays the single source of truth: everything in the sidecar but the
//! walls can be recomputed from it.
//!
//! ## On-disk layout
//!
//! Magic `PCGCOLS1`, then a little-endian body ([`pcg_core::frame`]'s
//! byte codec), then a trailing CRC-32 (IEEE) over the body:
//!
//! ```text
//! u32 n_models; n_models × { str name; u32 rows }
//! u32 n_rows
//! n_rows × u32          task        — TaskId dense index
//! (n_rows+1) × u32      built_off   — prefix offsets into `built`
//! u32 len; len × u8     built       — 0/1 flags
//! (n_rows+1) × u32      correct_off
//! u32 len; len × u8     correct
//! n_rows × u8           high_present
//! (n_rows+1) × u32      high_off    — offsets into `high_correct`
//! u32 len; len × u8     high_correct
//! (n_rows+1) × u32      sweep_off   — offsets into `sweep_keys`
//! u32 len; len × u32    sweep_keys
//! n_rows × f64          wall        — measured wall seconds per row
//! u32 crc               — CRC-32 over every body byte above
//! ```
//!
//! The `wall` column (new in `PCGCOLS2`) is the one measured-float
//! exception to the projection-only rule: it feeds the next run's
//! [`pcg_core::priors::CostPriors`] scheduling table and is **never**
//! part of the projection. A wall of `0.0` means "not measured" (the
//! cell was replayed from a journal rather than executed); priors
//! built from the column fall back to the default profile for such
//! rows.
//!
//! Decoding verifies the CRC and every structural invariant (offset
//! monotonicity, bounds, row counts, task-index range); a sidecar that
//! fails any check is rejected, and `--priors` falls back to the
//! default cost profile.

use crate::record::EvalRecord;
use pcg_core::frame::{crc32, ByteReader, ByteWriter};
use pcg_core::{CellId, CostPriors, TaskId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// File magic for a columnar stats sidecar. Bumped to `2` when the
/// per-row wall-seconds column was appended; `PCGCOLS1` sidecars fail
/// decode, and `--priors` falls back to the default cost profile.
pub const COLS_MAGIC: [u8; 8] = *b"PCGCOLS2";

/// Sidecar path for a records cache path (`records-quick.rec` →
/// `records-quick.rec.cols`).
pub fn cols_path(cache_path: &Path) -> PathBuf {
    let mut os = cache_path.as_os_str().to_os_string();
    os.push(".cols");
    PathBuf::from(os)
}

/// The projection columns of one evaluation record, struct-of-arrays.
/// Rows are (model, task) cells in record order — model-major, tasks
/// in canonical plan order — exactly the order
/// [`crate::record::projection`] walks.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarStats {
    models: Vec<String>,
    rows_per_model: Vec<u32>,
    task: Vec<u32>,
    built_off: Vec<u32>,
    built: Vec<u8>,
    correct_off: Vec<u32>,
    correct: Vec<u8>,
    high_present: Vec<u8>,
    high_off: Vec<u32>,
    high_correct: Vec<u8>,
    sweep_off: Vec<u32>,
    sweep_keys: Vec<u32>,
    wall: Vec<f64>,
}

fn push_flags(flags: &[bool], off: &mut Vec<u32>, out: &mut Vec<u8>) {
    out.extend(flags.iter().map(|&b| u8::from(b)));
    off.push(u32::try_from(out.len()).expect("flag column fits in u32"));
}

impl ColumnarStats {
    /// Extract the projection columns from an assembled record.
    pub fn from_record(rec: &EvalRecord) -> ColumnarStats {
        let n_rows: usize = rec.models.iter().map(|m| m.tasks.len()).sum();
        let mut c = ColumnarStats {
            models: Vec::with_capacity(rec.models.len()),
            rows_per_model: Vec::with_capacity(rec.models.len()),
            task: Vec::with_capacity(n_rows),
            built_off: vec![0],
            built: Vec::new(),
            correct_off: vec![0],
            correct: Vec::new(),
            high_present: Vec::with_capacity(n_rows),
            high_off: vec![0],
            high_correct: Vec::new(),
            sweep_off: vec![0],
            sweep_keys: Vec::new(),
            wall: vec![0.0; n_rows],
        };
        for m in &rec.models {
            c.models.push(m.model.clone());
            c.rows_per_model.push(u32::try_from(m.tasks.len()).expect("rows fit in u32"));
            for t in &m.tasks {
                c.task.push(u32::try_from(t.task.index()).expect("task index fits in u32"));
                push_flags(&t.low.built, &mut c.built_off, &mut c.built);
                push_flags(&t.low.correct, &mut c.correct_off, &mut c.correct);
                match &t.high {
                    Some(h) => {
                        c.high_present.push(1);
                        push_flags(&h.correct, &mut c.high_off, &mut c.high_correct);
                    }
                    None => {
                        c.high_present.push(0);
                        c.high_off.push(*c.high_off.last().unwrap());
                    }
                }
                c.sweep_keys.extend(t.sweep.keys().copied());
                c.sweep_off
                    .push(u32::try_from(c.sweep_keys.len()).expect("sweep column fits in u32"));
            }
        }
        c
    }

    /// Number of (model, task) rows.
    pub fn rows(&self) -> usize {
        self.task.len()
    }

    /// Fill the wall-seconds column from measured per-cell walls keyed
    /// by [`CellId`]. Each row's id is recomputed from `config_hash`,
    /// its model name, and its task — the same derivation every other
    /// consumer of the plan uses — so the column survives any row
    /// order. Rows with no measurement keep `0.0` ("not measured").
    pub fn set_walls(&mut self, config_hash: u64, walls: &HashMap<CellId, f64>) {
        let mut row = 0usize;
        for (mi, model) in self.models.iter().enumerate() {
            for _ in 0..self.rows_per_model[mi] {
                let task = TaskId::from_index(self.task[row] as usize)
                    .expect("task index validated on construction");
                let id = CellId::new(config_hash, model, task);
                if let Some(&w) = walls.get(&id) {
                    if w.is_finite() && w >= 0.0 {
                        self.wall[row] = w;
                    }
                }
                row += 1;
            }
        }
    }

    /// Iterate `(model name, task, wall seconds)` rows. A wall of
    /// `0.0` means the cell was never measured in this run.
    pub fn walls(&self) -> impl Iterator<Item = (&str, TaskId, f64)> + '_ {
        let mut rows = Vec::with_capacity(self.task.len());
        let mut row = 0usize;
        for (mi, model) in self.models.iter().enumerate() {
            for _ in 0..self.rows_per_model[mi] {
                let task = TaskId::from_index(self.task[row] as usize)
                    .expect("task index validated on construction");
                rows.push((model.as_str(), task, self.wall[row]));
                row += 1;
            }
        }
        rows.into_iter()
    }

    /// Build a scheduling priors table from this sidecar's measured
    /// walls. Unmeasured rows (wall `0.0`) are omitted, so lookups for
    /// them fall back to the committed default profile. Returns `None`
    /// when no row carries a positive wall — a priors table that knows
    /// nothing is worse than the honest default profile.
    pub fn cost_priors(&self, label: &str) -> Option<CostPriors> {
        let entries: Vec<(String, u32, f64)> = self
            .walls()
            .filter(|&(_, _, w)| w > 0.0)
            .map(|(m, t, w)| (m.to_string(), t.index() as u32, w))
            .collect();
        if entries.is_empty() {
            return None;
        }
        Some(CostPriors::from_entries(label, entries))
    }

    /// Reproduce [`crate::record::projection`] byte-for-byte from the
    /// columns, without reading the records cache.
    pub fn projection(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let mut row = 0usize;
        let flags = |off: &[u32], data: &[u8], r: usize| -> Vec<bool> {
            data[off[r] as usize..off[r + 1] as usize].iter().map(|&b| b != 0).collect()
        };
        for (mi, model) in self.models.iter().enumerate() {
            let _ = writeln!(s, "model={model}");
            for _ in 0..self.rows_per_model[mi] {
                let task = TaskId::from_index(self.task[row] as usize)
                    .expect("task index validated on construction");
                let high: Option<Vec<bool>> = (self.high_present[row] != 0)
                    .then(|| flags(&self.high_off, &self.high_correct, row));
                let sweep_ns =
                    &self.sweep_keys[self.sweep_off[row] as usize..self.sweep_off[row + 1] as usize];
                let _ = writeln!(
                    s,
                    "task={:?} built={:?} correct={:?} high_correct={:?} sweep_ns={:?}",
                    task,
                    flags(&self.built_off, &self.built, row),
                    flags(&self.correct_off, &self.correct, row),
                    high.as_ref(),
                    sweep_ns,
                );
                row += 1;
            }
        }
        s
    }

    /// Serialize to the on-disk layout (magic + body + CRC).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_len(self.models.len());
        for (name, &rows) in self.models.iter().zip(&self.rows_per_model) {
            w.put_str(name);
            w.put_u32(rows);
        }
        w.put_len(self.task.len());
        for &t in &self.task {
            w.put_u32(t);
        }
        let put_offsets = |w: &mut ByteWriter, off: &[u32]| {
            for &o in off {
                w.put_u32(o);
            }
        };
        let put_bytes = |w: &mut ByteWriter, data: &[u8]| {
            w.put_len(data.len());
            for &b in data {
                w.put_u8(b);
            }
        };
        put_offsets(&mut w, &self.built_off);
        put_bytes(&mut w, &self.built);
        put_offsets(&mut w, &self.correct_off);
        put_bytes(&mut w, &self.correct);
        for &p in &self.high_present {
            w.put_u8(p);
        }
        put_offsets(&mut w, &self.high_off);
        put_bytes(&mut w, &self.high_correct);
        put_offsets(&mut w, &self.sweep_off);
        w.put_len(self.sweep_keys.len());
        for &k in &self.sweep_keys {
            w.put_u32(k);
        }
        for &secs in &self.wall {
            w.put_f64(secs);
        }
        let body = w.into_bytes();
        let mut out = COLS_MAGIC.to_vec();
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Deserialize and validate a sidecar. Any defect — wrong magic,
    /// CRC mismatch, non-monotone offsets, out-of-range task index,
    /// inconsistent row counts, trailing bytes — is an error; a sidecar
    /// is never half-trusted.
    pub fn from_bytes(bytes: &[u8]) -> Result<ColumnarStats, String> {
        let body = bytes
            .strip_prefix(&COLS_MAGIC)
            .ok_or_else(|| "not a columnar stats sidecar (bad magic)".to_string())?;
        if body.len() < 4 {
            return Err("truncated sidecar: missing CRC trailer".to_string());
        }
        let (body, crc_bytes) = body.split_at(body.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        let computed = crc32(body);
        if stored != computed {
            return Err(format!("CRC mismatch: stored {stored:08x}, computed {computed:08x}"));
        }
        let err = |e: pcg_core::frame::CodecError| e.to_string();
        let mut r = ByteReader::new(body);
        let n_models = r.len(5).map_err(err)?;
        let mut models = Vec::with_capacity(n_models);
        let mut rows_per_model = Vec::with_capacity(n_models);
        for _ in 0..n_models {
            models.push(r.str().map_err(err)?.to_string());
            rows_per_model.push(r.u32().map_err(err)?);
        }
        let n_rows = r.len(4).map_err(err)?;
        if rows_per_model.iter().map(|&n| n as usize).sum::<usize>() != n_rows {
            return Err("per-model row counts do not sum to the row count".to_string());
        }
        let mut task = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let t = r.u32().map_err(err)?;
            if t as usize >= pcg_core::NUM_TASKS {
                return Err(format!("task index {t} out of range"));
            }
            task.push(t);
        }
        let offsets = |r: &mut ByteReader<'_>| -> Result<Vec<u32>, String> {
            let mut off = Vec::with_capacity(n_rows + 1);
            for _ in 0..=n_rows {
                off.push(r.u32().map_err(err)?);
            }
            if off.first() != Some(&0) || off.windows(2).any(|w| w[0] > w[1]) {
                return Err("offset column is not monotone from 0".to_string());
            }
            Ok(off)
        };
        let flag_bytes = |r: &mut ByteReader<'_>, expect: usize| -> Result<Vec<u8>, String> {
            let n = r.len(1).map_err(err)?;
            if n != expect {
                return Err(format!("flag column length {n} disagrees with offsets ({expect})"));
            }
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                let b = r.u8().map_err(err)?;
                if b > 1 {
                    return Err(format!("flag byte {b} is not 0/1"));
                }
                data.push(b);
            }
            Ok(data)
        };
        let built_off = offsets(&mut r)?;
        let built = flag_bytes(&mut r, *built_off.last().unwrap() as usize)?;
        let correct_off = offsets(&mut r)?;
        let correct = flag_bytes(&mut r, *correct_off.last().unwrap() as usize)?;
        let mut high_present = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let b = r.u8().map_err(err)?;
            if b > 1 {
                return Err(format!("presence byte {b} is not 0/1"));
            }
            high_present.push(b);
        }
        let high_off = offsets(&mut r)?;
        let high_correct = flag_bytes(&mut r, *high_off.last().unwrap() as usize)?;
        let sweep_off = offsets(&mut r)?;
        let n_keys = r.len(4).map_err(err)?;
        if n_keys != *sweep_off.last().unwrap() as usize {
            return Err("sweep column length disagrees with offsets".to_string());
        }
        let mut sweep_keys = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            sweep_keys.push(r.u32().map_err(err)?);
        }
        let mut wall = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let secs = r.f64().map_err(err)?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(format!("wall seconds {secs} is not a finite non-negative value"));
            }
            wall.push(secs);
        }
        if !r.is_exhausted() {
            return Err("trailing bytes after a complete sidecar".to_string());
        }
        Ok(ColumnarStats {
            models,
            rows_per_model,
            task,
            built_off,
            built,
            correct_off,
            correct,
            high_present,
            high_off,
            high_correct,
            sweep_off,
            sweep_keys,
            wall,
        })
    }

    /// Read and validate the sidecar at `path`.
    pub fn read(path: &Path) -> Result<ColumnarStats, String> {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        ColumnarStats::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::record::{projection, EvalRecord, ModelRecord, TaskRecord};
    use pcg_core::{ExecutionModel, ProblemId, ProblemType};
    use pcg_metrics::TaskSamples;
    use std::collections::BTreeMap;

    fn sample_record() -> EvalRecord {
        let t1 = ProblemId::new(ProblemType::Reduce, 0).task(ExecutionModel::OpenMp);
        let t2 = ProblemId::new(ProblemType::Sort, 3).task(ExecutionModel::Serial);
        EvalRecord {
            config: EvalConfig::smoke(),
            models: vec![
                ModelRecord {
                    model: "GPT-4".into(),
                    tasks: vec![
                        TaskRecord {
                            task: t1,
                            low: TaskSamples {
                                built: vec![true, false],
                                correct: vec![true, false],
                                ratio: vec![2.0, 0.0],
                            },
                            high: Some(TaskSamples {
                                built: vec![true],
                                correct: vec![false],
                                ratio: vec![],
                            }),
                            sweep: BTreeMap::from([(2u32, vec![1.0]), (4u32, vec![1.5])]),
                        },
                        TaskRecord {
                            task: t2,
                            low: TaskSamples { built: vec![], correct: vec![], ratio: vec![] },
                            high: None,
                            sweep: BTreeMap::new(),
                        },
                    ],
                },
                ModelRecord { model: "CodeLlama-7B".into(), tasks: vec![] },
            ],
        }
    }

    #[test]
    fn projection_matches_the_json_definition_byte_for_byte() {
        let rec = sample_record();
        let cols = ColumnarStats::from_record(&rec);
        assert_eq!(cols.projection(), projection(&rec));
        assert_eq!(cols.rows(), 2);
    }

    #[test]
    fn roundtrips_through_bytes() {
        let cols = ColumnarStats::from_record(&sample_record());
        let bytes = cols.to_bytes();
        assert!(bytes.starts_with(&COLS_MAGIC));
        let back = ColumnarStats::from_bytes(&bytes).unwrap();
        assert_eq!(back, cols);
        assert_eq!(back.projection(), cols.projection());
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let cols = ColumnarStats::from_record(&sample_record());
        let bytes = cols.to_bytes();
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1;
            match ColumnarStats::from_bytes(&corrupt) {
                Err(_) => {}
                Ok(back) => panic!(
                    "flip at byte {byte} of {} decoded as a valid sidecar: {back:?}",
                    bytes.len()
                ),
            }
        }
        // Truncations too.
        for cut in 0..bytes.len() {
            assert!(ColumnarStats::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn walls_roundtrip_and_feed_priors() {
        let rec = sample_record();
        let mut cols = ColumnarStats::from_record(&rec);
        // Unset walls read back as "not measured" and yield no priors.
        assert!(cols.walls().all(|(_, _, w)| w == 0.0));
        assert!(cols.cost_priors("empty").is_none());

        // Key the measured walls by CellId, exactly as eval produces.
        let chash = 0x1234_5678u64;
        let t1 = rec.models[0].tasks[0].task;
        let t2 = rec.models[0].tasks[1].task;
        let walls = HashMap::from([
            (CellId::new(chash, "GPT-4", t1), 1.5f64),
            (CellId::new(chash, "GPT-4", t2), 0.25f64),
            // A cell from some other config must not match any row.
            (CellId::new(chash ^ 1, "GPT-4", t1), 99.0f64),
        ]);
        cols.set_walls(chash, &walls);
        let got: Vec<(String, f64)> =
            cols.walls().map(|(m, _, w)| (m.to_string(), w)).collect();
        assert_eq!(got, vec![("GPT-4".into(), 1.5), ("GPT-4".into(), 0.25)]);

        // Walls survive the byte roundtrip; the projection is untouched.
        let back = ColumnarStats::from_bytes(&cols.to_bytes()).unwrap();
        assert_eq!(back, cols);
        assert_eq!(back.projection(), projection(&rec));

        // And they become a priors table with per-row measured costs.
        let priors = back.cost_priors("test-sidecar").unwrap();
        assert_eq!(priors.len(), 2);
        assert_eq!(priors.cost("GPT-4", t1), 1.5);
        assert_eq!(priors.cost("GPT-4", t2), 0.25);
        // Unmeasured cells fall back to the default profile.
        let t3 = ProblemId::new(ProblemType::Scan, 0).task(ExecutionModel::Mpi);
        assert_eq!(priors.cost("GPT-4", t3), CostPriors::default_cost(t3));
    }

    #[test]
    fn non_finite_walls_are_rejected_on_decode() {
        let mut cols = ColumnarStats::from_record(&sample_record());
        cols.wall[0] = f64::NAN;
        assert!(ColumnarStats::from_bytes(&cols.to_bytes()).is_err());
        cols.wall[0] = -1.0;
        assert!(ColumnarStats::from_bytes(&cols.to_bytes()).is_err());
        cols.wall[0] = 3.5;
        assert!(ColumnarStats::from_bytes(&cols.to_bytes()).is_ok());
    }

    #[test]
    fn cols_path_derives_from_cache_path() {
        assert_eq!(
            cols_path(Path::new("target/pcgbench/records-quick.rec")),
            Path::new("target/pcgbench/records-quick.rec.cols"),
        );
    }
}
