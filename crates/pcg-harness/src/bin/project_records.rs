//! Print the cross-process-deterministic projection of a records cache
//! (or, with `--stats`, of an `EvalStats` sidecar).
//!
//! This binary is the projection CI diffs across processes — after a
//! kill-and-resume cycle, between a merged sharded run and a
//! single-process run, and between a live run and its pool replay. It
//! reads the cache's cells with [`journal::read_cells`] and prints them
//! through [`pcg_harness::record::projection`], the same function the
//! warm-path, mux, and shard projection-equality tests call, so there
//! is exactly one definition of "deterministic fields" in the repo.

use pcg_harness::journal;
use pcg_harness::record::{projection, stats_projection, EvalStats, ModelRecord};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let projected = match args.as_slice() {
        [path] => records(path),
        [flag, path] if flag == "--stats" => stats(path),
        _ => fail("usage: project_records [--stats] <records cache | stats sidecar>"),
    };
    print!("{projected}");
}

fn fail(msg: &str) -> ! {
    eprintln!("project_records: {msg}");
    std::process::exit(2);
}

/// The projection of a records cache: its cells in file (plan) order,
/// grouped by model.
fn records(path: &str) -> String {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some((_, cells)) = journal::read_cells(Path::new(path), jobs) else {
        fail(&format!("{path} is not a readable records cache"));
    };
    let mut models: Vec<ModelRecord> = Vec::new();
    for (_, cell) in cells {
        match models.last_mut() {
            Some(m) if m.model == cell.model => m.tasks.push(cell.record),
            _ => models.push(ModelRecord { model: cell.model, tasks: vec![cell.record] }),
        }
    }
    projection(&models)
}

fn stats(path: &str) -> String {
    let bytes =
        std::fs::read(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    match serde_json::from_slice::<EvalStats>(&bytes) {
        Ok(stats) => stats_projection(&stats),
        Err(e) => fail(&format!("{path} is not an EvalStats sidecar: {e}")),
    }
}
