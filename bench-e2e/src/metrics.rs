//! The metric catalog: every metric the benchmark reports, its unit,
//! and — for per-layer metrics — the end-to-end metric and workload it
//! is expected to move. `BENCHMARK.json` at the repository root lists
//! the same names; a test keeps the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// What the metric measures, or which end-to-end metric on which
    /// workload a change to it should move.
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, note: &'static str) -> MetricDef {
    MetricDef { name, unit, note }
}

/// End-to-end metrics, measured with tracing off and reported per
/// workload over the runs of one set: the median, except the peak
/// resident set, which is the highest of the runs.
pub const END_TO_END: [MetricDef; 4] = [
    m("wall_s", "s", "wall time of one run's timed region"),
    m(
        "cpu_s",
        "s",
        "user + kernel CPU of the run's process over the timed region",
    ),
    m(
        "peak_rss_mib",
        "MiB",
        "highest peak resident set (VmHWM) of the set's runs",
    ),
    m(
        "setup_s",
        "s",
        "process start to the timed region, plus set-up between timed iterations",
    ),
];

/// Per-layer metrics, from the traced run only. Layers are named after
/// the modules whose public functions the benchmark times. A layer a
/// workload does not exercise reads 0 on that workload.
pub const PER_LAYER: [MetricDef; 71] = [
    // process: explain cpu_s on every workload.
    m("process.user_s", "s", "cpu_s on every workload"),
    m("process.sys_s", "s", "cpu_s on every workload"),
    m(
        "process.cpu_util",
        "ratio",
        "cpu_s / (wall_s x nproc); near 1 on quick means more jobs cannot help",
    ),
    m(
        "process.minflt",
        "count",
        "cpu_s (kernel share) on every workload",
    ),
    m(
        "trace.overhead_frac",
        "ratio",
        "traced wall / untraced median wall - 1",
    ),
    // pcg-models, through a timing wrapper around CandidateSource.
    m("models.sample.calls", "count", "wall_s on variants"),
    m("models.sample.s", "s", "wall_s on variants"),
    // pcg-harness::scheduler, from EvalStats.cell_walls.
    m("scheduler.cells", "count", "wall_s on quick"),
    m(
        "scheduler.busy_frac",
        "ratio",
        "wall_s on quick; near 1 with low cpu_util means blocked workers",
    ),
    m("scheduler.cell_p99_ms", "ms", "wall_s on quick"),
    m("scheduler.cell_max_s", "s", "wall_s on quick"),
    // pcg-harness::runner getters.
    m(
        "runner.executions",
        "count",
        "wall_s on threaded and variants",
    ),
    m(
        "runner.cache_hits",
        "count",
        "wall_s on threaded and variants",
    ),
    m(
        "runner.dedup_ratio",
        "ratio",
        "wall_s on threaded and variants",
    ),
    m("runner.run_s", "s", "wall_s on threaded and variants"),
    m("runner.validate_s", "s", "wall_s on threaded and variants"),
    m("runner.baseline_s", "s", "wall_s on threaded and variants"),
    m(
        "runner.timeouts",
        "count",
        "failed cells on every evaluating workload",
    ),
    m(
        "runner.panics",
        "count",
        "failed cells on every evaluating workload",
    ),
    // pcg-problems lease and input cache.
    m("lease.hits", "count", "wall_s on threaded"),
    m("lease.misses", "count", "wall_s on threaded"),
    m("lease.setup_s", "s", "wall_s on threaded"),
    m("input_cache.hits", "count", "wall_s on threaded"),
    // Substrates: one cold evaluation pass per execution-model
    // column, on quick and threaded.
    m("substrate.serial.wall_s", "s", "wall_s on threaded"),
    m("substrate.serial.executions", "count", "wall_s on threaded"),
    m("substrate.serial.user_s", "s", "cpu_s on threaded"),
    m("substrate.serial.sys_s", "s", "cpu_s on threaded"),
    m("substrate.openmp.wall_s", "s", "wall_s on threaded"),
    m("substrate.openmp.executions", "count", "wall_s on threaded"),
    m("substrate.openmp.user_s", "s", "cpu_s on threaded"),
    m("substrate.openmp.sys_s", "s", "cpu_s on threaded"),
    m("substrate.kokkos.wall_s", "s", "wall_s on threaded"),
    m("substrate.kokkos.executions", "count", "wall_s on threaded"),
    m("substrate.kokkos.user_s", "s", "cpu_s on threaded"),
    m("substrate.kokkos.sys_s", "s", "cpu_s on threaded"),
    m("substrate.mpi.wall_s", "s", "wall_s on quick"),
    m("substrate.mpi.executions", "count", "wall_s on quick"),
    m("substrate.mpi.user_s", "s", "cpu_s on quick"),
    m("substrate.mpi.sys_s", "s", "cpu_s on quick"),
    m("substrate.hybrid.wall_s", "s", "wall_s on threaded"),
    m("substrate.hybrid.executions", "count", "wall_s on threaded"),
    m("substrate.hybrid.user_s", "s", "cpu_s on threaded"),
    m("substrate.hybrid.sys_s", "s", "cpu_s on threaded"),
    m("substrate.cuda.wall_s", "s", "wall_s on threaded"),
    m("substrate.cuda.executions", "count", "wall_s on threaded"),
    m("substrate.cuda.user_s", "s", "cpu_s on threaded"),
    m("substrate.cuda.sys_s", "s", "cpu_s on threaded"),
    m("substrate.hip.wall_s", "s", "wall_s on threaded"),
    m("substrate.hip.executions", "count", "wall_s on threaded"),
    m("substrate.hip.user_s", "s", "cpu_s on threaded"),
    m("substrate.hip.sys_s", "s", "cpu_s on threaded"),
    // pcg-mpisim: Correct(Efficient) MPI worlds over the quick
    // problems, plus the runner's transport counters.
    m("mpisim.world_ms.n64", "ms", "wall_s and cpu_s on quick"),
    m("mpisim.world_ms.n128", "ms", "wall_s and cpu_s on quick"),
    m("mpisim.world_ms.n256", "ms", "wall_s and cpu_s on quick"),
    m("mpisim.world_ms.n512", "ms", "wall_s and cpu_s on quick"),
    m("mpisim.sys_s.n512", "s", "cpu_s on quick"),
    m("mpisim.minflt.n512", "count", "cpu_s on quick"),
    m(
        "mpisim.ranks_multiplexed",
        "count",
        "wall_s and cpu_s on quick",
    ),
    m("mpisim.zero_copy_mib", "MiB", "wall_s and cpu_s on quick"),
    // pcg-harness::journal, write side (the evaluation observer) and
    // read side (load_counting_sourced).
    m(
        "journal.appends",
        "count",
        "wall_s on variants, then threaded",
    ),
    m("journal.append_s", "s", "wall_s on variants, then threaded"),
    m("journal.bytes", "B", "wall_s on variants, then threaded"),
    m("journal.load_s", "s", "wall_s on replay"),
    m("journal.frames_loaded", "count", "wall_s on replay"),
    // Commit and read path: pipeline, shard, colstats, report.
    m("pipeline.resume_s", "s", "wall_s on replay"),
    m("shard.merge_s", "s", "wall_s on replay"),
    m("pipeline.cache_load_s", "s", "wall_s on replay"),
    m("pipeline.record_encode_s", "s", "wall_s on replay"),
    m("pipeline.record_bytes", "B", "wall_s on replay"),
    m("colstats.encode_s", "s", "wall_s on replay"),
    m("report.render_s", "s", "wall_s on replay"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric names");
    }
}
