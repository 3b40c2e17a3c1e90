//! Dump the rendered prompts of all 420 PCGBench tasks (or one
//! execution model's 60 with e.g. `-- kokkos`).

use pcg_core::ExecutionModel;
use pcg_harness::report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let filter = match args.as_slice() {
        [] => Some(None),
        [name] => ExecutionModel::parse(name).map(Some),
        _ => None,
    };
    let Some(filter) = filter else {
        let labels: Vec<&str> = ExecutionModel::ALL.iter().map(|m| m.label()).collect();
        eprintln!("prompts: error: expected at most one execution model, got {args:?}");
        eprintln!("usage: prompts [{}]", labels.join("|"));
        std::process::exit(2);
    };
    print!("{}", report::prompts(filter));
}
