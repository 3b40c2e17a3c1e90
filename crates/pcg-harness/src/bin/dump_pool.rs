//! Dump the configured candidate source's sample pools to a directory
//! that [`pcg_models::ReplaySource`] can re-score offline.
//!
//! Every (row, task, temperature) pool the evaluation would request —
//! the low-temperature set always, the high-temperature set as long as
//! `skip_high_temp` is off — is sampled once and written in the
//! `pcg-candidate-pool-v1` text format. Re-running any binary with
//! `--replay-pool DIR` then scores those exact candidates instead of
//! drawing fresh ones, which is how CI proves the dump → re-score loop
//! reproduces the reference verdicts.
//!
//! Usage: `dump_pool DIR` plus the config flags of
//! `pipeline::parse_args`, which pick the pools, and `--replay-pool`,
//! which re-dumps a pool; the other run options exit 2. The dump covers
//! the full task grid.

use pcg_harness::pipeline;
use pcg_models::SampleSpec;
use std::path::PathBuf;

fn main() {
    let cli = pipeline::from_cli(&["DIR"]);
    let (cfg, dir) = (&cli.cfg, PathBuf::from(&cli.positional[0]));
    let source = pipeline::resolve_source(cfg, &cli.opts);
    let tasks: Vec<_> = pcg_core::task::all_tasks().collect();
    // Pools carry candidates only; chaos is injected (or not) by the
    // run that scores them, so the dump always samples chaos-free.
    let specs = [
        SampleSpec::new(cfg.temp_low, cfg.samples_low, cfg.seed),
        SampleSpec::new(cfg.temp_high, cfg.samples_high, cfg.seed),
    ];
    if let Err(e) = pcg_models::dump_pool(&dir, &source, &tasks, &specs) {
        eprintln!("dump_pool: could not write {}: {e}", dir.display());
        std::process::exit(1);
    }
    let pool = match pcg_models::ReplaySource::open(&dir) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dump_pool: wrote a pool that does not read back: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[pcgbench] dumped {} pool rows × {} tasks to {} (content hash {:016x})",
        pcg_models::CandidateSource::model_names(&pool).len(),
        tasks.len(),
        dir.display(),
        pool.content_hash(),
    );
}
