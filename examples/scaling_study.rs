//! Scaling study: how the *reference* parallel implementations scale
//! across resource counts — the substrate-side view behind Figure 5.
//!
//! Runs one representative problem per substrate over its resource
//! sweep and prints speedup/efficiency of the efficient reference
//! implementation (no LLM sampling involved).
//!
//! ```sh
//! cargo run --release --example scaling_study
//! ```

use pcgbench::core::{CandidateKind, ExecutionModel, ProblemId, ProblemType, Quality};
use pcgbench::harness::{EvalConfig, SharedRunner};

fn main() {
    let mut cfg = EvalConfig::quick();
    cfg.reps = 3;
    let runner = SharedRunner::new(cfg);

    let cases = [
        (ProblemType::Stencil, 2, ExecutionModel::OpenMp),
        (ProblemType::Scan, 0, ExecutionModel::Kokkos),
        (ProblemType::SparseLinearAlgebra, 0, ExecutionModel::Mpi),
    ];

    for (ptype, variant, exec) in cases {
        let task = ProblemId::new(ptype, variant).task(exec);
        println!("\n== {task} (efficient reference implementation) ==");
        println!("{:>8} {:>10} {:>12}", "n", "speedup", "efficiency");
        for n in exec.resource_sweep() {
            let r = runner.ratio(task, CandidateKind::Correct(Quality::Efficient), n);
            println!("{:>8} {:>10.2} {:>12.3}", n, r, r / f64::from(n.max(1)));
        }
    }

    println!("\nEfficiency declining with n is the expected shape (Figure 5):");
    println!("fixed problem size, growing communication/synchronization share.");
}
