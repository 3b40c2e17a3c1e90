//! # PCGBench-rs
//!
//! A Rust reproduction of *"Can Large Language Models Write Parallel
//! Code?"* (Nichols, Davis, Xie, Rajaram, Bhatele — HPDC 2024): the
//! PCGBench benchmark, its seven execution substrates, the evaluation
//! harness, and the paper's novel metrics (`pass@k`, `build@k`,
//! `speedup_n@k`, `efficiency_n@k`).
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `pcg-core` | tasks, execution models, prompts, usage instrumentation |
//! | [`shmem`] | `pcg-shmem` | OpenMP-analog work-sharing team, modelled on the caller |
//! | [`patterns`] | `pcg-patterns` | Kokkos-analog views + parallel patterns |
//! | [`mpisim`] | `pcg-mpisim` | virtual-time MPI simulator |
//! | [`hybrid`] | `pcg-hybrid` | MPI+OpenMP composition |
//! | [`gpusim`] | `pcg-gpusim` | CUDA/HIP-analog SIMT emulator |
//! | [`problems`] | `pcg-problems` | the 60 problems / 420 tasks |
//! | [`models`] | `pcg-models` | calibrated synthetic LLM zoo |
//! | [`metrics`] | `pcg-metrics` | the paper's metric estimators |
//! | [`harness`] | `pcg-harness` | evaluation pipeline + figure regenerators |
//!
//! ```
//! use pcgbench::metrics::pass_at_k;
//!
//! // 20 samples, 8 correct: the probability one draw is correct.
//! assert!((pass_at_k(20, 8, 1) - 0.4).abs() < 1e-12);
//! ```

pub use pcg_core as core;
pub use pcg_gpusim as gpusim;
pub use pcg_harness as harness;
pub use pcg_hybrid as hybrid;
pub use pcg_metrics as metrics;
pub use pcg_models as models;
pub use pcg_mpisim as mpisim;
pub use pcg_patterns as patterns;
pub use pcg_problems as problems;
pub use pcg_shmem as shmem;
