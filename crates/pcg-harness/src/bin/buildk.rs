//! Extension: build@k per execution model (computed by the paper's
//! harness in §7.3 but not shown as a figure). Flags as in
//! `pipeline::parse_args`.

use pcg_harness::{pipeline, report};

fn main() {
    let cli = pipeline::from_cli(&[]);
    let record = pipeline::load_or_run_opts(None, &cli.cfg, &cli.opts);
    print!("{}", report::build_at_k_table(&record, 1));
}
