//! # htm-bench — benchmark and reproduction harness
//!
//! This crate hosts
//!
//! * the `reproduce` binary, which regenerates every table and figure of the
//!   paper (`cargo run --release -p htm-bench --bin reproduce -- all`),
//! * the `sweep` binary, which runs the sensitivity grids of
//!   `clockgate_htm::sweep` and reports energy-vs-time Pareto frontiers
//!   (`cargo run --release -p htm-bench --bin sweep -- --grid w0`),
//! * the `divergence` binary and [`divergence`], which fuzz the
//!   fast-forward engine against the naive reference,
//! * three benches for the measured hot paths: `simulator_throughput`,
//!   `trace_io` and `policy_dispatch` (`cargo bench -p htm-bench`), and
//! * [`cli`], the flag parsing and help text the binaries share.

#![warn(missing_docs)]

pub mod cli;
pub mod divergence;
