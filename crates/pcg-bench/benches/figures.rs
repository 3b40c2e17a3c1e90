//! One bench group per paper artifact: regenerating each table/figure
//! from an evaluation record (the metric-estimation and rendering
//! pipeline), plus the end-to-end evaluation of a single task.
//!
//! The *data* behind each figure comes from `pcg-harness`'s pipeline
//! (see `cargo run -p pcg-harness --bin figureN`); these benches keep
//! the regeneration path itself measured so metric-layer regressions
//! are caught.

use criterion::{criterion_group, criterion_main, Criterion};
use pcg_bench::bench_record;
use pcg_core::{CandidateKind, ExecutionModel, ProblemId, ProblemType, Quality};
use pcg_harness::{report, EvalConfig, SharedRunner};
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.bench_function("table1_render", |b| b.iter(|| black_box(report::table1())));
    g.bench_function("table2_render", |b| b.iter(|| black_box(report::table2())));
    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let rec = bench_record();
    let mut g = c.benchmark_group("figures");
    g.bench_function("figure1_pass1_by_exec", |b| b.iter(|| black_box(report::figure1(rec))));
    g.bench_function("figure2_serial_vs_parallel", |b| {
        b.iter(|| black_box(report::figure2(rec)))
    });
    g.bench_function("figure3_pass1_by_ptype", |b| b.iter(|| black_box(report::figure3(rec))));
    g.bench_function("figure4_pass_at_k", |b| b.iter(|| black_box(report::figure4(rec))));
    g.bench_function("figure5_efficiency_sweeps", |b| {
        b.iter(|| black_box(report::figure5(rec)))
    });
    g.bench_function("figure6_speedup", |b| b.iter(|| black_box(report::figure6(rec))));
    g.bench_function("figure7_efficiency", |b| b.iter(|| black_box(report::figure7(rec))));
    g.bench_function("experiments_summary", |b| {
        b.iter(|| black_box(report::experiments_summary(rec)))
    });
    g.finish();
}

fn bench_pipeline_unit(c: &mut Criterion) {
    // The end-to-end cost of evaluating one candidate on each substrate
    // family (the inner loop behind every figure): a fresh runner per
    // iteration measures the full uncached build-run-validate path.
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    for (label, model, n) in [
        ("candidate_serial", ExecutionModel::Serial, 1u32),
        ("candidate_openmp", ExecutionModel::OpenMp, 8),
        ("candidate_mpi", ExecutionModel::Mpi, 8),
        ("candidate_cuda", ExecutionModel::Cuda, 0),
    ] {
        g.bench_function(label, |b| {
            let task = ProblemId::new(ProblemType::Transform, 0).task(model);
            b.iter_batched(
                || SharedRunner::new(EvalConfig::smoke()),
                |runner| {
                    black_box(runner.outcome(
                        task,
                        CandidateKind::Correct(Quality::Efficient),
                        n,
                    ))
                },
                criterion::BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tables, bench_figures, bench_pipeline_unit);
criterion_main!(benches);
