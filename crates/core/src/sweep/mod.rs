//! Sensitivity-sweep subsystem: Cartesian parameter grids, a resumable
//! parallel runner and Pareto-frontier reporting.
//!
//! The paper evaluates clock-gate-on-abort at a single operating point
//! (`W0 = 8`, three applications, three processor counts). This module turns
//! that single point into an explorable surface:
//!
//! * [`grid`] — [`grid::SweepGrid`] describes a Cartesian grid over gating
//!   mode (with `W0` / back-off parameters), processor count, workload,
//!   scale, seed, L1 cache geometry and the power model's leakage-share
//!   (technology-node) axis, and expands it into a deterministic list of
//!   [`grid::SweepCell`]s, each with a stable string key,
//! * [`runner`] — [`runner::run_sweep`] executes the cells on the
//!   process-wide thread budget (`htm_sim::pool::WorkerPool`), streams
//!   one compact JSON record per cell to a `sweep.jsonl` artifact in
//!   deterministic cell order, and skips already-recorded cells when resumed
//!   (old-schema files are rejected with
//!   [`runner::SweepError::SchemaMismatch`]),
//! * [`pareto`] — post-processes the records into per-(workload, procs)
//!   Pareto frontiers under a selectable objective
//!   ([`pareto::SweepObjective`]: raw energy, EDP or ED²P) plus summary
//!   tables.
//!
//! Each record carries the component-resolved energy ledger of its cell
//! (core taxonomy + uncore charges + derived EDP/ED²P/energy-per-commit),
//! and the runner additionally writes an `energy_breakdown.json` artifact
//! assembling the per-component energies of every cell.
//!
//! Determinism contract: for a given grid, two sweep runs (on either
//! stepping engine) produce byte-identical `sweep.jsonl`, `pareto.json`,
//! `sweep_summary.json` and `energy_breakdown.json` artifacts. CI enforces
//! this on the smoke grid under both the energy and EDP objectives.
//!
//! ```
//! use clockgate_htm::sweep::{pareto_frontiers, SweepGrid};
//!
//! let grid = SweepGrid::smoke();
//! let cells = grid.expand();
//! assert!(!cells.is_empty());
//! // Keys are unique and stable — they are the resume / dedup identity.
//! let keys: std::collections::BTreeSet<_> = cells.iter().map(|c| c.key()).collect();
//! assert_eq!(keys.len(), cells.len());
//! # let _ = pareto_frontiers(&[]);
//! ```

use serde::{Deserialize, Serialize};

use crate::sim::SimReport;

pub mod grid;
pub mod pareto;
pub mod runner;

pub use grid::{CacheGeometry, GatingAxis, ModeKind, SweepCell, SweepGrid};
pub use pareto::{
    dominates, pareto_frontiers, pareto_frontiers_with, summarize_slices, ParetoPoint,
    SliceFrontier, SliceSummary, SweepObjective,
};
pub use runner::{replay_cell_to, run_sweep, run_sweep_on, SweepError, SweepOutcome};

/// Version of the [`CellRecord`] layout written to `sweep.jsonl`. Version 2
/// added the component-resolved ledger fields (per-component energies,
/// uncore total, EDP/ED²P, energy per commit) and the leakage axis; resumes
/// against files written by other versions are rejected with a clear
/// [`runner::SweepError`] instead of silently diverging.
pub const SCHEMA_VERSION: u32 = 2;

/// One line of the `sweep.jsonl` artifact: the result of simulating a single
/// [`SweepCell`].
///
/// The record deliberately contains no wall-clock timing and no engine
/// label, so that the artifact is byte-identical across machines, runs and
/// stepping engines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Record-layout version ([`SCHEMA_VERSION`]) — the resume gate.
    pub schema: u32,
    /// The cell's stable key ([`SweepCell::key`]) — the resume identity.
    pub key: String,
    /// Workload name.
    pub workload: String,
    /// Processor count.
    pub procs: usize,
    /// L1 capacity in KiB.
    pub l1_kb: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// Leakage share of the power model, in percent (the paper uses 20).
    pub leakage_percent: u32,
    /// Workload scale label (`test` / `small` / `full`).
    pub scale: String,
    /// Workload generation seed.
    pub seed: u64,
    /// Gating-mode label (e.g. `clock-gate(W0=8)`).
    pub mode: String,
    /// Parallel execution time in cycles.
    pub total_cycles: u64,
    /// Total energy under the Table I power model (core subset only — the
    /// paper's accounting).
    pub total_energy: f64,
    /// Average power (fraction of one processor's run power).
    pub average_power: f64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Aborts per commit.
    pub abort_rate: f64,
    /// "Stop Clock" events observed by the processors.
    pub gatings: u64,
    /// Total processor-cycles spent clock-gated.
    pub gated_cycles: u64,
    /// Ledger: core-pipeline energy.
    pub energy_core_pipeline: f64,
    /// Ledger: clock-tree energy.
    pub energy_clock_tree: f64,
    /// Ledger: TCC-augmented L1 data-array energy.
    pub energy_l1_data_array: f64,
    /// Ledger: L1 instruction-array energy.
    pub energy_l1_instr_array: f64,
    /// Ledger: I/O-interface energy.
    pub energy_io_interface: f64,
    /// Ledger: PLL energy.
    pub energy_pll: f64,
    /// Ledger (uncore): directory SRAM energy.
    pub energy_directory_sram: f64,
    /// Ledger (uncore): interconnect flit energy.
    pub energy_interconnect: f64,
    /// Ledger (uncore): gating tables/timers + `TxInfoReq` energy.
    pub energy_gating_control: f64,
    /// Ledger: uncore total (the three uncore components).
    pub uncore_energy: f64,
    /// Ledger: grand total (core + uncore).
    pub total_energy_with_uncore: f64,
    /// Energy-delay product of the ledger total (`E·N`).
    pub edp: f64,
    /// Energy-delay-squared product (`E·N²`).
    pub ed2p: f64,
    /// Ledger total per committed transaction.
    pub energy_per_commit: f64,
}

impl CellRecord {
    /// Build the record for `cell` from a finished simulation report.
    #[must_use]
    pub fn from_report(cell: &SweepCell, report: &SimReport) -> Self {
        use htm_power::ledger::EnergyComponent as C;
        let ledger = &report.ledger;
        Self {
            schema: SCHEMA_VERSION,
            key: cell.key(),
            workload: cell.workload.clone(),
            procs: cell.procs,
            l1_kb: cell.geometry.l1_kb,
            l1_assoc: cell.geometry.l1_assoc,
            leakage_percent: cell.leakage_percent,
            scale: cell.scale.label().to_string(),
            seed: cell.seed,
            mode: report.mode_label.clone(),
            total_cycles: report.outcome.total_cycles,
            total_energy: report.energy.total_energy,
            average_power: report.energy.average_power,
            commits: report.outcome.total_commits,
            aborts: report.outcome.total_aborts,
            abort_rate: report.outcome.abort_rate(),
            gatings: report.outcome.total_gatings,
            gated_cycles: report.outcome.total_gated_cycles(),
            energy_core_pipeline: ledger.component_energy(C::CorePipeline),
            energy_clock_tree: ledger.component_energy(C::ClockTree),
            energy_l1_data_array: ledger.component_energy(C::L1DataArray),
            energy_l1_instr_array: ledger.component_energy(C::L1InstrArray),
            energy_io_interface: ledger.component_energy(C::IoInterface),
            energy_pll: ledger.component_energy(C::Pll),
            energy_directory_sram: ledger.component_energy(C::DirectorySram),
            energy_interconnect: ledger.component_energy(C::Interconnect),
            energy_gating_control: ledger.component_energy(C::GatingControl),
            uncore_energy: ledger.uncore_energy,
            total_energy_with_uncore: ledger.total_energy,
            edp: ledger.edp,
            ed2p: ledger.ed2p,
            energy_per_commit: ledger.energy_per_commit,
        }
    }

    /// The record's core-component energies in
    /// [`htm_power::ledger::CORE_COMPONENTS`] order.
    #[must_use]
    pub fn core_component_energies(&self) -> [f64; 6] {
        [
            self.energy_core_pipeline,
            self.energy_clock_tree,
            self.energy_l1_data_array,
            self.energy_l1_instr_array,
            self.energy_io_interface,
            self.energy_pll,
        ]
    }

    /// The record's uncore-component energies in
    /// [`htm_power::ledger::UNCORE_COMPONENTS`] order.
    #[must_use]
    pub fn uncore_component_energies(&self) -> [f64; 3] {
        [
            self.energy_directory_sram,
            self.energy_interconnect,
            self.energy_gating_control,
        ]
    }

    /// Rebuild a record from one parsed `sweep.jsonl` line (the resume
    /// path). Returns a description of the first missing/mistyped field.
    /// Callers gate on the `schema` field first (see
    /// [`runner::SweepError::SchemaMismatch`]) so a pre-ledger file fails
    /// with the version story, not a puzzling missing-field message.
    pub fn from_value(v: &serde::Value) -> Result<Self, String> {
        fn str_field(v: &serde::Value, name: &str) -> Result<String, String> {
            v.get(name)
                .and_then(|f| f.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field `{name}`"))
        }
        fn u64_field(v: &serde::Value, name: &str) -> Result<u64, String> {
            v.get(name)
                .and_then(serde::Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer field `{name}`"))
        }
        fn f64_field(v: &serde::Value, name: &str) -> Result<f64, String> {
            v.get(name)
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field `{name}`"))
        }
        Ok(Self {
            schema: u64_field(v, "schema")? as u32,
            key: str_field(v, "key")?,
            workload: str_field(v, "workload")?,
            procs: u64_field(v, "procs")? as usize,
            l1_kb: u64_field(v, "l1_kb")? as usize,
            l1_assoc: u64_field(v, "l1_assoc")? as usize,
            leakage_percent: u64_field(v, "leakage_percent")? as u32,
            scale: str_field(v, "scale")?,
            seed: u64_field(v, "seed")?,
            mode: str_field(v, "mode")?,
            total_cycles: u64_field(v, "total_cycles")?,
            total_energy: f64_field(v, "total_energy")?,
            average_power: f64_field(v, "average_power")?,
            commits: u64_field(v, "commits")?,
            aborts: u64_field(v, "aborts")?,
            abort_rate: f64_field(v, "abort_rate")?,
            gatings: u64_field(v, "gatings")?,
            gated_cycles: u64_field(v, "gated_cycles")?,
            energy_core_pipeline: f64_field(v, "energy_core_pipeline")?,
            energy_clock_tree: f64_field(v, "energy_clock_tree")?,
            energy_l1_data_array: f64_field(v, "energy_l1_data_array")?,
            energy_l1_instr_array: f64_field(v, "energy_l1_instr_array")?,
            energy_io_interface: f64_field(v, "energy_io_interface")?,
            energy_pll: f64_field(v, "energy_pll")?,
            energy_directory_sram: f64_field(v, "energy_directory_sram")?,
            energy_interconnect: f64_field(v, "energy_interconnect")?,
            energy_gating_control: f64_field(v, "energy_gating_control")?,
            uncore_energy: f64_field(v, "uncore_energy")?,
            total_energy_with_uncore: f64_field(v, "total_energy_with_uncore")?,
            edp: f64_field(v, "edp")?,
            ed2p: f64_field(v, "ed2p")?,
            energy_per_commit: f64_field(v, "energy_per_commit")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{GatingMode, SimulationBuilder};
    use htm_workloads::WorkloadScale;

    #[test]
    fn record_round_trips_through_jsonl_encoding() {
        let cell = SweepCell {
            workload: "intruder".into(),
            procs: 4,
            geometry: CacheGeometry::default(),
            leakage_percent: 20,
            scale: WorkloadScale::Test,
            seed: 7,
            mode: GatingMode::ClockGate { w0: 8 },
            cycle_limit: 20_000_000,
        };
        let report = SimulationBuilder::new()
            .processors(4)
            .workload_by_name("intruder", WorkloadScale::Test, 7)
            .unwrap()
            .gating(GatingMode::ClockGate { w0: 8 })
            .run()
            .unwrap();
        let record = CellRecord::from_report(&cell, &report);
        let line = crate::report::to_json_compact(&record);
        let parsed = CellRecord::from_value(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(parsed, record, "JSONL encode/parse must be lossless");
        assert_eq!(record.schema, SCHEMA_VERSION);
    }

    #[test]
    fn record_component_energies_sum_to_the_ledger_totals() {
        let cell = SweepCell {
            workload: "genome".into(),
            procs: 4,
            geometry: CacheGeometry::default(),
            leakage_percent: 20,
            scale: WorkloadScale::Test,
            seed: 3,
            mode: GatingMode::ClockGate { w0: 8 },
            cycle_limit: 20_000_000,
        };
        let record = runner::run_cell(&cell, &crate::RunContext::default()).unwrap();
        let core_sum: f64 = record.core_component_energies().iter().sum();
        let uncore_sum: f64 = record.uncore_component_energies().iter().sum();
        let tol = 1e-9 * record.total_energy.max(1.0);
        assert!(
            (core_sum - record.total_energy).abs() <= tol,
            "core components {core_sum} vs legacy total {}",
            record.total_energy
        );
        assert!((uncore_sum - record.uncore_energy).abs() <= tol);
        assert!(
            (core_sum + uncore_sum - record.total_energy_with_uncore).abs() <= tol,
            "ledger grand total"
        );
        assert!(
            (record.edp - record.total_energy_with_uncore * record.total_cycles as f64).abs()
                <= 1e-6 * record.edp.max(1.0)
        );
    }

    #[test]
    fn from_value_reports_missing_fields() {
        let v = serde_json::from_str(r#"{"schema": 2, "key": "x"}"#).unwrap();
        let err = CellRecord::from_value(&v).unwrap_err();
        assert!(err.contains("workload"), "{err}");
        // A record without the version field reports that first.
        let v = serde_json::from_str(r#"{"key": "x"}"#).unwrap();
        let err = CellRecord::from_value(&v).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }
}
