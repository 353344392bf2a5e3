//! # clockgate-htm — Clock Gate on Abort
//!
//! This crate is the Rust implementation of the contribution of
//! *"Clock Gate on Abort: Towards Energy-Efficient Hardware Transactional
//! Memory"* (Sanyal, Roy, Cristal, Unsal, Valero — IPDPS 2009), together with
//! the experiment harness that regenerates every table and figure of the
//! paper's evaluation on top of the substrate crates (`htm-sim`, `htm-mem`,
//! `htm-tcc`, `htm-power`, `htm-workloads`).
//!
//! ## What the mechanism does
//!
//! In a Scalable-TCC hardware transactional memory, a transaction that is
//! aborted has burnt real energy for nothing. The paper proposes to **stop
//! the clocks of a processor the moment one of its transactions is aborted**
//! and to keep it stopped for a window chosen by a *gating-aware contention
//! manager*, renewing the window while the transaction that caused the abort
//! is still trying to commit the same static transaction in the same
//! directory. The pieces, and where they live here:
//!
//! * the per-directory **gating table** (Fig. 1) — [`gating::table`],
//! * the **gating / ungating protocol** (Section V, Fig. 2) —
//!   [`gating::controller`], implemented as an [`htm_tcc::GatingHook`],
//! * the **gating-aware contention management** staircase back-off (Eq. 8) —
//!   [`gating::contention`],
//! * the **pluggable contention-policy framework** — [`gating::policy`]
//!   (serializable specs resolving through a registry into boxed hooks;
//!   the six paper modes plus the adaptive-`W0` ([`gating::contention`]),
//!   hybrid ([`gating::hybrid`]), DVFS-throttle ([`gating::throttle`]) and
//!   oracle ([`gating::oracle`]) extensions),
//! * the **simulation front end** that wires a workload, a machine
//!   configuration and a gating mode together — [`sim`],
//! * the **experiments** reproducing Tables I–II and Figures 3–7 —
//!   [`experiments`], with text/JSON rendering in [`report`],
//! * the **run context** every experiment and sweep runs in —
//!   [`context::RunContext`]: stepping engine, interconnect topology,
//!   checkpointing and a recorded trace, none of which reaches an artifact,
//! * the **sensitivity sweeps** exploring the energy/performance trade-off
//!   surface beyond the paper's single operating point — [`sweep`]
//!   (Cartesian grids, a resumable parallel runner, Pareto frontiers per
//!   workload × processor-count slice).
//!
//! ## Quick start
//!
//! ```
//! use clockgate_htm::sim::{GatingMode, SimulationBuilder};
//! use htm_workloads::WorkloadScale;
//!
//! // Run STAMP-like "intruder" on 8 processors, with and without the
//! // paper's clock gating, and compare energy.
//! let ungated = SimulationBuilder::new()
//!     .processors(8)
//!     .workload_by_name("intruder", WorkloadScale::Test, 42)
//!     .unwrap()
//!     .gating(GatingMode::Ungated)
//!     .run()
//!     .unwrap();
//! let gated = SimulationBuilder::new()
//!     .processors(8)
//!     .workload_by_name("intruder", WorkloadScale::Test, 42)
//!     .unwrap()
//!     .gating(GatingMode::ClockGate { w0: 8 })
//!     .run()
//!     .unwrap();
//! let cmp = clockgate_htm::sim::compare_runs(&ungated, &gated);
//! // Gated cycles replace doomed re-execution; the full-scale energy numbers
//! // are reported in docs/REPRODUCING.md.
//! assert!(cmp.gated_cycles_total > 0);
//! assert!(cmp.energy_reduction > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod context;
pub mod experiments;
pub mod gating;
pub mod report;
pub mod sim;
pub mod sweep;

pub use checkpoint::{CheckpointConfig, CheckpointError, CheckpointRunInfo, ReplayReport};
pub use context::{CheckpointSpec, RunContext, TraceWorkload};
pub use gating::contention::{AdaptiveW0Policy, ContentionPolicy, FixedWindow, GatingAwarePolicy};
pub use gating::controller::{ClockGateController, ControllerConfig, GatingStats};
pub use gating::hybrid::HybridHook;
pub use gating::oracle::OracleHook;
pub use gating::policy::{PolicyHook, PolicyInfo, PolicySpec, UncoreCharges, POLICY_REGISTRY};
pub use gating::table::{GatingEntry, GatingTable};
pub use gating::throttle::ThrottleHook;
pub use sim::{GatingMode, SimReport, SimulationBuilder};
pub use sweep::{run_sweep, CellRecord, SweepCell, SweepGrid};
