//! Regenerate Figure 1 (flags: `pipeline::parse_args`; `--full` for paper-scale settings).

use pcg_harness::{pipeline, report};

fn main() {
    let cli = pipeline::from_cli(&[]);
    let record = pipeline::load_or_run_opts(None, &cli.cfg, &cli.opts);
    print!("{}", report::figure1(&record));
}
