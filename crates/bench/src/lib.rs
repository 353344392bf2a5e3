//! # htm-bench — benchmark and reproduction harness
//!
//! This crate hosts
//!
//! * the `reproduce` binary, which regenerates every table and figure of the
//!   paper (`cargo run --release -p htm-bench --bin reproduce -- all`),
//! * the `sweep` binary, which runs the sensitivity grids of
//!   `clockgate_htm::sweep` and reports energy-vs-time Pareto frontiers
//!   (`cargo run --release -p htm-bench --bin sweep -- --grid w0`), and
//! * one Criterion benchmark per table/figure plus ablation and
//!   simulator-throughput benches (`cargo bench`),
//! * [`cli`], the flag parsing and help text both binaries share.
//!
//! The Criterion benches intentionally run reduced workload scales so that
//! `cargo bench --workspace` completes in minutes; the `reproduce` binary is
//! the one that runs the full-scale evaluation matrix.
//!
//! ```
//! // The benches share one reduced configuration per processor count.
//! let cfg = htm_bench::bench_config(4);
//! assert_eq!(cfg.processor_counts, vec![4]);
//! assert_eq!(cfg.w0, 8, "the paper's W0");
//! assert_eq!(htm_bench::full_config().processor_counts, vec![4, 8, 16]);
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod divergence;

use clockgate_htm::experiments::ExperimentConfig;
use htm_workloads::WorkloadScale;

/// Experiment configuration used by the Criterion benches: one processor
/// count, small workloads, the paper's `W0`.
#[must_use]
pub fn bench_config(procs: usize) -> ExperimentConfig {
    ExperimentConfig {
        processor_counts: vec![procs],
        scale: WorkloadScale::Small,
        ..ExperimentConfig::default()
    }
}

/// Experiment configuration used by the `reproduce` binary: the paper's full
/// matrix (4, 8 and 16 processors, full-scale workloads).
#[must_use]
pub fn full_config() -> ExperimentConfig {
    ExperimentConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_reduced() {
        let cfg = bench_config(4);
        assert_eq!(cfg.processor_counts, vec![4]);
        assert_eq!(cfg.w0, 8);
    }

    #[test]
    fn full_config_matches_paper() {
        assert_eq!(full_config().processor_counts, vec![4, 8, 16]);
    }
}
