//! Extension: the paper notes (§6.2) that `speedup_n@k` and
//! `efficiency_n@k` "could be modified to be parameterized by problem
//! size instead of number of processors in order to study the
//! computational complexity of the generated code". This binary does
//! exactly that: it holds resources at the headline counts and sweeps
//! the workload size, printing `speedup_size@1` of the efficient
//! reference implementations per execution model.

use pcg_core::{CandidateKind, ExecutionModel, ProblemId, ProblemType, Quality};
use pcg_harness::{EvalConfig, SharedRunner};

fn main() {
    let problems = [
        ProblemId::new(ProblemType::Transform, 0),
        ProblemId::new(ProblemType::Stencil, 2),
        ProblemId::new(ProblemType::Reduce, 0),
    ];
    let execs = [
        ExecutionModel::OpenMp,
        ExecutionModel::Mpi,
        ExecutionModel::Cuda,
    ];
    println!("speedup_size@1 of the efficient reference implementations");
    println!("(resources fixed at headline n; workload size swept)\n");
    for exec in execs {
        println!("--- {} (n = {}) ---", exec.label(), exec.headline_n());
        print!("{:<28}", "problem \\ size divisor");
        for div in [32usize, 16, 8, 4, 2, 1] {
            print!("{:>8}", format!("1/{div}"));
        }
        println!();
        for pid in problems {
            print!("{:<28}", pid.to_string());
            for div in [32usize, 16, 8, 4, 2, 1] {
                let mut cfg = EvalConfig::quick();
                cfg.size_divisor = div;
                cfg.reps = 3;
                let runner = SharedRunner::new(cfg);
                let task = pid.task(exec);
                let r = runner.ratio(
                    task,
                    CandidateKind::Correct(Quality::Efficient),
                    exec.headline_n(),
                );
                print!("{:>8.2}", r);
            }
            println!();
        }
        println!();
    }
    println!("Expected shape: speedup grows with problem size (overheads and");
    println!("communication amortize), the strong-scaling story of Figure 5");
    println!("read along the orthogonal axis.");
}
