//! Run the full PCGBench evaluation and print every table and figure
//! plus the paper-vs-measured summary. Flags as in
//! `pipeline::parse_args`; pass `--full` for paper-scale settings. The
//! evaluation record is cached under target/pcgbench/.
//!
//! Multi-process evaluation: `reproduce --shard k/N` runs one
//! deterministic slice of the grid into a shard journal and exits;
//! after all N workers finish, `reproduce --merge-shards N` stitches
//! the shard journals into the records cache and prints the figures
//! from it. `--jobs`, `--resume`, and the
//! warm path all compose with both modes.

use pcg_harness::{pipeline, report};

fn main() {
    let cli = pipeline::from_cli(&[]);
    let record = pipeline::load_or_run_opts(None, &cli.cfg, &cli.opts);
    print!("{}", report::table1());
    print!("{}", report::table2());
    print!("{}", report::figure1(&record));
    print!("{}", report::figure2(&record));
    print!("{}", report::figure3(&record));
    print!("{}", report::figure4(&record));
    print!("{}", report::figure5(&record));
    print!("{}", report::figure6(&record));
    print!("{}", report::figure7(&record));
    if cli.cfg.prompt_variants.len() > 1 {
        print!("{}", report::variant_summary(&record));
    }
    print!("{}", report::experiments_summary(&record));
}
