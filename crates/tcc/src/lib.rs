//! # htm-tcc — Scalable-TCC hardware transactional memory substrate
//!
//! This crate implements the baseline system of the paper: a lazy-versioning,
//! lazy-conflict-detection hardware transactional memory in the style of
//! Scalable TCC (Chafi et al., HPCA 2007), running on the distributed
//! directory / split-transaction-bus machine described in Table II.
//!
//! The moving parts:
//!
//! * [`txn`] — transactional workloads as per-thread traces of transactions,
//!   each a sequence of `Read` / `Write` / `Compute` operations,
//! * [`token`] — the centralized token vendor that issues commit timestamps
//!   (TIDs),
//! * [`dirctrl`] — per-directory commit arbitration (the "Marked" bits and
//!   TID-ordered grants) layered over the sharer-tracking directory of
//!   `htm-mem`,
//! * [`processor`] — the per-core execution state machine (transaction
//!   execution, miss stalls, commit spin, commit flush, abort roll-back,
//!   clock-gated standby),
//! * [`hooks`] — the [`hooks::GatingHook`] trait through which the paper's
//!   clock-gate-on-abort mechanism (implemented in the `clockgate-htm` crate)
//!   observes aborts and drives gating/ungating, plus the no-op baseline,
//! * [`system`] — the cycle-driven top level that wires processors,
//!   directories, token vendor, bus and memory together and produces a
//!   [`stats::RunOutcome`],
//! * [`stats`] — counters and per-state cycle accounting consumed by the
//!   energy model in `htm-power`.
//!
//! The substrate is deliberately policy-free with respect to energy: it only
//! *measures* how many cycles each processor spends running, miss-stalled,
//! committing and clock-gated; converting those into energy is the job of
//! `htm-power`, and deciding *when* to gate is the job of the hook.
//!
//! ```
//! use htm_sim::config::SimConfig;
//! use htm_tcc::txn::{Op, ThreadTrace, Transaction, WorkloadTrace};
//! use htm_tcc::system::EngineKind;
//! use htm_tcc::{NoGating, TccSystem};
//!
//! // One core, one transaction: read a line, write another, compute a bit.
//! let tx = Transaction::new(0, vec![Op::Read(0), Op::Write(64), Op::Compute(4)]);
//! let trace = WorkloadTrace::new("tiny", vec![ThreadTrace::new(vec![tx])]);
//! let (outcome, _hook) = TccSystem::new(SimConfig::table2(1), trace, NoGating)
//!     .unwrap()
//!     .run_bounded(100_000, EngineKind::FastForward)
//!     .unwrap();
//! assert_eq!(outcome.total_commits, 1);
//! outcome.check_consistency().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod deadlines;
pub mod dirctrl;
pub mod hooks;
pub mod processor;
pub mod stats;
pub mod system;
pub mod token;
pub mod txn;

pub use hooks::{AbortAction, GateCommand, GatingHook, NoGating, SystemView, UngateDecision};
pub use stats::{ProcStats, RunOutcome, StateCycles};
pub use system::TccSystem;
pub use token::{Tid, TokenVendor};
pub use txn::{Op, ThreadTrace, Transaction, TxId, WorkloadTrace};
