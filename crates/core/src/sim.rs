//! Simulation front end: builder, policy selection and single-run reports.
//!
//! [`SimulationBuilder`] is the public entry point of the library: it takes a
//! machine description (Table II defaults), a workload (one of the STAMP-like
//! generators or a custom trace) and a contention-policy spec
//! ([`PolicySpec`], historically named [`GatingMode`] — the alias is kept),
//! resolves the spec through the policy registry into a boxed
//! [`crate::gating::policy::PolicyHook`], runs the simulation on the
//! selected stepping engine (the event-driven fast-forward engine by
//! default, or the one-step-per-cycle reference via [`EngineKind::Naive`])
//! and returns a [`SimReport`] containing both the protocol-level outcome
//! and the energy analysis of Section IV.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use htm_power::energy::{self, ComparisonReport, EnergyReport};
use htm_power::ledger::{self, EnergyLedgerReport, UncoreActivity};
use htm_power::model::{PowerModel, PowerModelConfig};
use htm_sim::config::SimConfig;
use htm_sim::topology::TopologyConfig;
use htm_sim::Cycle;
use htm_tcc::stats::RunOutcome;
use htm_tcc::system::{SimError, TccSystem};
use htm_tcc::txn::WorkloadTrace;
use htm_workloads::{by_name, WorkloadScale};

pub use htm_tcc::system::EngineKind;

/// The historical name of [`PolicySpec`], kept so that pre-framework callers
/// (and the six legacy variants they construct) compile unchanged.
pub use crate::gating::policy::PolicySpec as GatingMode;
pub use crate::gating::policy::PolicySpec;

use crate::checkpoint::{CheckpointConfig, CheckpointError, CheckpointRunInfo, ReplayReport};
use crate::gating::controller::GatingStats;

/// Default safety bound on simulated cycles (well above anything the paper's
/// workloads need; hitting it indicates a protocol bug, and the builder turns
/// it into an error instead of hanging).
pub const DEFAULT_CYCLE_LIMIT: Cycle = 200_000_000;

/// Result of a single simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// The gating mode that was simulated.
    pub mode_label: String,
    /// Protocol-level outcome (cycles, commits, aborts, state breakdown).
    pub outcome: RunOutcome,
    /// Energy analysis under the Table I power model.
    pub energy: EnergyReport,
    /// Component-resolved energy ledger (core taxonomy + uncore charges +
    /// EDP/ED²P metrics), cross-checked against [`Self::energy`].
    pub ledger: EnergyLedgerReport,
    /// Gating-controller statistics (only for clock-gating modes).
    pub gating: Option<GatingStats>,
}

impl SimReport {
    /// Convenience accessor: total parallel execution time in cycles.
    #[must_use]
    pub fn cycles(&self) -> Cycle {
        self.outcome.total_cycles
    }

    /// Convenience accessor: total energy under the Table I model.
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.energy.total_energy
    }
}

/// Compare a gated run against an ungated baseline (both produced by
/// [`SimulationBuilder::run`] for the same workload and machine size).
#[must_use]
pub fn compare_runs(ungated: &SimReport, gated: &SimReport) -> ComparisonReport {
    energy::compare(
        &ungated.outcome,
        &gated.outcome,
        &PowerModel::alpha_21264_65nm(),
    )
}

/// Builder for a single simulation run.
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    config: SimConfig,
    workload: Option<WorkloadTrace>,
    mode: GatingMode,
    power: PowerModelConfig,
    cycle_limit: Cycle,
    engine: EngineKind,
    debug_perturb: bool,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationBuilder {
    /// Start from the Table II defaults (8 processors, ungated).
    #[must_use]
    pub fn new() -> Self {
        Self {
            config: SimConfig::default(),
            workload: None,
            mode: GatingMode::Ungated,
            power: PowerModelConfig::alpha_21264_65nm(),
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            engine: EngineKind::default(),
            debug_perturb: false,
        }
    }

    /// Plant the deliberate fast-engine accounting bug
    /// ([`htm_tcc::system::TccSystem::debug_perturb_fast_accounting`]) into
    /// the run. Exists solely so the divergence fuzz harness can prove, end
    /// to end, that it detects a real engine-equivalence violation; never
    /// set this outside that self-test. Only the fast-forward engine's
    /// batched accounting is perturbed; the one-step-per-cycle naive engine
    /// stays ground truth.
    #[must_use]
    pub fn debug_perturb_fast_accounting(mut self) -> Self {
        self.debug_perturb = true;
        self
    }

    /// Use `n` processors (and `n` directories), keeping the other Table II
    /// parameters.
    #[must_use]
    pub fn processors(mut self, n: usize) -> Self {
        self.config = SimConfig::table2(n);
        self
    }

    /// Use a fully custom machine configuration.
    #[must_use]
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Override the L1 data-cache geometry (capacity in KiB, associativity)
    /// of the current configuration. Call *after* [`Self::processors`],
    /// which resets the whole configuration to the Table II defaults for the
    /// given core count. The power model's TCC data-cache factor is
    /// re-derived from the swept capacity
    /// ([`PowerModelConfig::for_l1_geometry`]).
    #[must_use]
    pub fn l1_geometry(mut self, l1_kb: usize, l1_assoc: usize) -> Self {
        self.config = self.config.with_l1_geometry(l1_kb, l1_assoc);
        self.power = self.power.for_l1_geometry(l1_kb);
        self
    }

    /// Swap the interconnect topology of the current configuration (the
    /// Table II default is the shared split-transaction bus). Call *after*
    /// [`Self::processors`], which resets the whole configuration — and with
    /// it the topology — to the Table II defaults. Both engines produce
    /// bit-identical outcomes on every topology.
    #[must_use]
    pub fn topology(mut self, topology: TopologyConfig) -> Self {
        self.config.topology = topology;
        self
    }

    /// Run a pre-built workload trace.
    #[must_use]
    pub fn workload(mut self, workload: WorkloadTrace) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Generate one of the named STAMP-like workloads (see
    /// [`htm_workloads::workload_names`]) for the configured processor count.
    pub fn workload_by_name(
        mut self,
        name: &str,
        scale: WorkloadScale,
        seed: u64,
    ) -> Result<Self, String> {
        let w = by_name(name, self.config.num_procs, scale, seed)
            .ok_or_else(|| format!("unknown workload '{name}'"))?;
        self.workload = Some(w);
        Ok(self)
    }

    /// Select the abort-handling mode.
    #[must_use]
    pub fn gating(mut self, mode: GatingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Override the power-model configuration (the default derives Table I).
    #[must_use]
    pub fn power_config(mut self, config: PowerModelConfig) -> Self {
        self.power = config;
        self
    }

    /// Sweep the leakage-share (technology-node) axis of the power model.
    #[must_use]
    pub fn leakage_share(mut self, leakage_share: f64) -> Self {
        self.power = self.power.with_leakage_share(leakage_share);
        self
    }

    /// Override the cycle safety bound.
    #[must_use]
    pub fn cycle_limit(mut self, limit: Cycle) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Select the stepping engine (default: [`EngineKind::FastForward`]).
    ///
    /// Both engines produce bit-identical outcomes; the naive engine exists
    /// as the differential-testing ground truth and for timing comparisons.
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Run the simulation.
    ///
    /// The policy spec resolves through the registry into a boxed hook;
    /// `run_bounded` hands the hook back with the outcome, so the controller
    /// statistics and the policy's uncore-charge declaration come out
    /// directly.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        let workload = self.take_workload()?;
        let hook = self.mode.build(&self.config);
        let mut system = TccSystem::new(self.config, workload, hook)?;
        if self.debug_perturb {
            system.debug_perturb_fast_accounting();
        }
        let (outcome, hook) = system.run_bounded(self.cycle_limit, self.engine)?;
        Ok(assemble_report(
            self.mode.label(),
            &self.power,
            outcome,
            hook.gating_stats(),
            hook.uncore_charges(),
        ))
    }

    /// Run the simulation with periodic durable checkpoints, auto-resuming
    /// from the newest valid checkpoint in `ckpt.dir` for `ckpt.key`.
    ///
    /// Produces a [`SimReport`] byte-identical to [`Self::run`] — taking and
    /// resuming from checkpoints is bit-exact (see [`crate::checkpoint`]).
    pub fn run_checkpointed(
        mut self,
        ckpt: &CheckpointConfig,
    ) -> Result<(SimReport, CheckpointRunInfo), CheckpointError> {
        let workload = self.take_workload()?;
        let label = self.mode.label();
        let (outcome, hook, info) = crate::checkpoint::run_checkpointed(
            &self.config,
            &workload,
            || self.mode.build(&self.config),
            self.engine,
            self.cycle_limit,
            ckpt,
        )?;
        let (gating, charges) = (hook.gating_stats(), hook.uncore_charges());
        Ok((
            assemble_report(label, &self.power, outcome, gating, charges),
            info,
        ))
    }

    /// Time travel: restore the nearest checkpoint of run `key` in `dir` at
    /// or before `target` and fast-forward to exactly that cycle (see
    /// [`crate::checkpoint::replay_to`]).
    pub fn replay_to(
        mut self,
        dir: &Path,
        key: &str,
        target: Cycle,
    ) -> Result<(ReplayReport, Vec<(PathBuf, String)>), CheckpointError> {
        let workload = self.take_workload()?;
        crate::checkpoint::replay_to(
            &self.config,
            &workload,
            || self.mode.build(&self.config),
            self.engine,
            dir,
            key,
            target,
        )
    }

    /// Move the workload out of the builder.
    fn take_workload(&mut self) -> Result<WorkloadTrace, SimError> {
        self.workload
            .take()
            .ok_or_else(|| SimError::BadWorkload("no workload was provided".into()))
    }
}

/// Assemble the final report from a run's raw parts (shared by the plain and
/// the checkpointed runner so both produce byte-identical artifacts).
fn assemble_report(
    label: String,
    power: &PowerModelConfig,
    outcome: RunOutcome,
    gating: Option<GatingStats>,
    charges: crate::gating::policy::UncoreCharges,
) -> SimReport {
    let energy = energy::analyze(&outcome, &power.factors());
    // The hook declares its own uncore activity (gating-table hardware
    // presence and renewal-time `TxInfoReq` round-trips), so new
    // policies are accounted uniformly without mode-specific knowledge
    // here.
    let uncore = UncoreActivity::from_outcome(
        &outcome,
        charges.gating_hardware,
        charges.renewal_txinfo_roundtrips,
    );
    let ledger = ledger::analyze(&outcome, power, uncore);
    SimReport {
        mode_label: label,
        outcome,
        energy,
        ledger,
        gating,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: GatingMode, workload: &str, procs: usize) -> SimReport {
        SimulationBuilder::new()
            .processors(procs)
            .workload_by_name(workload, WorkloadScale::Test, 11)
            .unwrap()
            .gating(mode)
            .cycle_limit(20_000_000)
            .run()
            .unwrap()
    }

    #[test]
    fn ungated_run_completes_and_is_consistent() {
        let r = run(GatingMode::Ungated, "intruder", 4);
        assert!(r.outcome.total_commits > 0);
        r.outcome.check_consistency().unwrap();
        assert!(r.energy.accounting_discrepancy() < 1e-9);
        assert!(r.gating.is_none());
        assert_eq!(r.outcome.total_gatings, 0);
    }

    #[test]
    fn clock_gated_run_gates_on_contended_workload() {
        let r = run(GatingMode::ClockGate { w0: 8 }, "intruder", 4);
        assert!(r.outcome.total_commits > 0);
        r.outcome.check_consistency().unwrap();
        let g = r
            .gating
            .expect("clock-gating mode reports controller stats");
        assert!(g.gatings > 0, "the contended workload must trigger gating");
        // The controller logs one gating per directory-local abort, so it can
        // record more gatings than the number of times the processor actually
        // transitioned into the gated state.
        assert!(g.gatings >= r.outcome.total_gatings);
        assert!(r.outcome.total_gatings > 0);
        assert!(r.outcome.total_gated_cycles() > 0);
    }

    #[test]
    fn both_modes_commit_the_same_number_of_transactions() {
        let ungated = run(GatingMode::Ungated, "intruder", 4);
        let gated = run(GatingMode::ClockGate { w0: 8 }, "intruder", 4);
        assert_eq!(ungated.outcome.total_commits, gated.outcome.total_commits);
    }

    #[test]
    fn gating_converts_spin_into_gated_cycles() {
        // At the tiny `Test` scale the energy outcome is dominated by cold
        // misses and start-up effects, so this test checks the mechanism (a
        // substantial amount of processor time moves into the gated state and
        // wasted re-execution shrinks) rather than the headline energy number;
        // the full-scale energy comparison is exercised by the `reproduce`
        // harness and reported in docs/REPRODUCING.md.
        let ungated = run(GatingMode::Ungated, "intruder", 8);
        let gated = run(GatingMode::ClockGate { w0: 8 }, "intruder", 8);
        let cmp = compare_runs(&ungated, &gated);
        assert!(cmp.gated_cycles_total > 0);
        assert!(
            gated.outcome.total_aborts <= ungated.outcome.total_aborts,
            "gating-aware contention management must not increase the abort count \
             (gated {} vs ungated {})",
            gated.outcome.total_aborts,
            ungated.outcome.total_aborts
        );
        assert!(cmp.energy_reduction.is_finite() && cmp.energy_reduction > 0.0);
    }

    #[test]
    fn zero_commit_run_yields_finite_degenerate_metrics() {
        // A workload with no transactions at all: the run ends at cycle 0
        // with zero commits. Every ledger-derived metric must stay finite
        // (energy_per_commit defined as 0), for every policy family, so
        // such a cell can never inject NaN/∞ into sweep artifacts.
        use htm_tcc::txn::{ThreadTrace, WorkloadTrace};
        let empty = WorkloadTrace::new("empty", vec![ThreadTrace::default(); 4]);
        for mode in [
            GatingMode::Ungated,
            GatingMode::ClockGate { w0: 8 },
            GatingMode::Throttle { w0: 8 },
            GatingMode::Oracle,
        ] {
            let r = SimulationBuilder::new()
                .processors(4)
                .workload(empty.clone())
                .gating(mode)
                .run()
                .unwrap();
            assert_eq!(r.outcome.total_commits, 0, "{mode:?}");
            assert_eq!(r.ledger.energy_per_commit, 0.0, "{mode:?}");
            assert_eq!(r.ledger.edp, 0.0, "{mode:?}");
            assert_eq!(r.ledger.ed2p, 0.0, "{mode:?}");
            for value in [
                r.ledger.energy_per_commit,
                r.ledger.edp,
                r.ledger.ed2p,
                r.ledger.average_power,
                r.energy.average_power,
                r.total_energy(),
            ] {
                assert!(value.is_finite(), "{mode:?} produced non-finite {value}");
            }
        }
    }

    #[test]
    fn missing_workload_is_an_error() {
        let err = SimulationBuilder::new()
            .gating(GatingMode::Ungated)
            .run()
            .err()
            .unwrap();
        assert!(matches!(err, SimError::BadWorkload(_)));
    }

    #[test]
    fn unknown_workload_name_is_an_error() {
        let err = SimulationBuilder::new()
            .workload_by_name("nope", WorkloadScale::Test, 1)
            .err();
        assert!(err.is_some());
    }

    #[test]
    fn exponential_backoff_mode_runs() {
        let r = run(
            GatingMode::ExponentialBackoff { base: 32, cap: 8 },
            "intruder",
            4,
        );
        assert!(r.outcome.total_commits > 0);
        assert_eq!(r.outcome.total_gatings, 0);
        assert!(r.gating.is_none());
    }

    #[test]
    fn ablation_modes_run_and_gate() {
        for mode in [
            GatingMode::ClockGateFixedWindow { window: 64 },
            GatingMode::ClockGateNoRenew { w0: 8 },
            GatingMode::ClockGateLinear { w0: 8 },
        ] {
            let r = run(mode, "intruder", 4);
            assert!(r.outcome.total_commits > 0, "{:?} must complete", mode);
            assert!(r.gating.unwrap().gatings > 0, "{:?} must gate", mode);
        }
    }

    #[test]
    fn mode_labels_are_distinct() {
        let labels: std::collections::HashSet<String> = [
            GatingMode::Ungated,
            GatingMode::ExponentialBackoff { base: 16, cap: 8 },
            GatingMode::ClockGate { w0: 8 },
            GatingMode::ClockGateFixedWindow { window: 64 },
            GatingMode::ClockGateNoRenew { w0: 8 },
            GatingMode::ClockGateLinear { w0: 8 },
            GatingMode::AdaptiveW0 { w0: 8 },
            GatingMode::Hybrid {
                gate_limit: 2,
                w0: 8,
                base: 32,
                cap: 8,
            },
            GatingMode::Throttle { w0: 8 },
            GatingMode::Oracle,
        ]
        .iter()
        .map(GatingMode::label)
        .collect();
        assert_eq!(labels.len(), 10);
    }

    #[test]
    fn exponential_backoff_label_includes_the_cap() {
        // Two configs differing only in cap must not render identically.
        let a = GatingMode::ExponentialBackoff { base: 32, cap: 4 };
        let b = GatingMode::ExponentialBackoff { base: 32, cap: 8 };
        assert_ne!(a.label(), b.label());
        assert_eq!(b.label(), "backoff(base=32,cap=8)");
    }

    #[test]
    fn adaptive_w0_runs_gates_and_reports_controller_stats() {
        let r = run(GatingMode::AdaptiveW0 { w0: 8 }, "intruder", 4);
        assert!(r.outcome.total_commits > 0);
        r.outcome.check_consistency().unwrap();
        let g = r
            .gating
            .expect("adaptive policy drives the gating protocol");
        assert!(g.gatings > 0);
        assert!(r.outcome.total_gated_cycles() > 0);
        assert_eq!(
            r.outcome
                .state_cycles
                .iter()
                .map(|s| s.throttled)
                .sum::<u64>(),
            0
        );
    }

    #[test]
    fn hybrid_policy_gates_then_backs_off() {
        let r = run(
            GatingMode::Hybrid {
                gate_limit: 1,
                w0: 8,
                base: 16,
                cap: 6,
            },
            "intruder",
            4,
        );
        assert!(r.outcome.total_commits > 0);
        r.outcome.check_consistency().unwrap();
        assert!(r.gating.expect("hybrid reports its gating phase").gatings > 0);
        assert!(r.outcome.total_gatings > 0);
    }

    #[test]
    fn throttle_policy_trades_gated_cycles_for_throttled_ones() {
        let r = run(GatingMode::Throttle { w0: 8 }, "intruder", 4);
        assert!(r.outcome.total_commits > 0);
        r.outcome.check_consistency().unwrap();
        assert!(r.gating.is_none(), "no Stop Clock protocol, no stats");
        assert_eq!(r.outcome.total_gatings, 0);
        assert_eq!(r.outcome.total_gated_cycles(), 0);
        assert!(
            r.outcome.total_throttled_cycles() > 0,
            "the contended workload must spend time throttled"
        );
        assert!(r.energy.breakdown.throttled > 0.0);
        // The ledger's exactness contract holds with the fifth state active.
        assert!(r.ledger.core_discrepancy() < 1e-12);
        assert!(r.ledger.interval_discrepancy() < 1e-9);
        // Gating hardware is declared, so its table leakage is charged.
        use htm_power::ledger::EnergyComponent;
        assert!(r.ledger.component_energy(EnergyComponent::GatingControl) > 0.0);
        assert_eq!(
            r.outcome.total_txinfo_roundtrips(),
            0,
            "throttling never answers Gate, so no abort-time TxInfoReqs"
        );
    }

    #[test]
    fn oracle_policy_gates_without_any_renewal_traffic() {
        let oracle = run(GatingMode::Oracle, "intruder", 4);
        assert!(oracle.outcome.total_commits > 0);
        oracle.outcome.check_consistency().unwrap();
        let g = oracle.gating.expect("oracle reports subscription stats");
        assert!(g.gatings > 0);
        assert_eq!(g.renewals, 0, "the oracle never renews");
        assert_eq!(g.ungate_null_reply + g.ungate_different_tx, 0);
        assert!(oracle.outcome.total_gated_cycles() > 0);
        // Every wake is driven by the commit-subscription channel; the
        // victim is gated for exactly as long as its conflictor needs, so
        // per gating episode the oracle wastes nothing on mistimed windows.
        // (No claim about total cycles vs. a heuristic: changing wake
        // timing changes the whole interleaving, which can serendipitously
        // favor either side on a given seed.)
        assert_eq!(g.total_ungates(), g.ungate_aborter_gone);
        // It still commits the same transactions as the ungated baseline.
        let ungated = run(GatingMode::Ungated, "intruder", 4);
        assert_eq!(oracle.outcome.total_commits, ungated.outcome.total_commits);
    }

    #[test]
    fn swept_cache_geometry_runs_and_differs_from_default() {
        let small = SimulationBuilder::new()
            .processors(4)
            .l1_geometry(4, 1)
            .workload_by_name("intruder", WorkloadScale::Test, 11)
            .unwrap()
            .gating(GatingMode::Ungated)
            .cycle_limit(20_000_000)
            .run()
            .unwrap();
        let default = run(GatingMode::Ungated, "intruder", 4);
        assert!(small.outcome.total_commits > 0);
        small.outcome.check_consistency().unwrap();
        assert!(
            small.cycles() >= default.cycles(),
            "a 4KB direct-mapped L1 cannot beat the 64KB 2-way default \
             ({} vs {} cycles)",
            small.cycles(),
            default.cycles()
        );
    }

    #[test]
    fn invalid_cache_geometry_is_a_config_error() {
        let err = SimulationBuilder::new()
            .processors(4)
            .l1_geometry(48, 2)
            .workload_by_name("intruder", WorkloadScale::Test, 11)
            .unwrap()
            .run()
            .err()
            .unwrap();
        assert!(matches!(err, SimError::BadConfig(_)));
    }

    #[test]
    fn ledger_core_subset_reproduces_the_legacy_accounting() {
        for mode in [
            GatingMode::Ungated,
            GatingMode::ClockGate { w0: 8 },
            GatingMode::ClockGateNoRenew { w0: 8 },
        ] {
            let r = run(mode, "intruder", 4);
            assert!(
                r.ledger.core_discrepancy() < 1e-12,
                "{mode:?}: core {} vs legacy {}",
                r.ledger.core_energy,
                r.ledger.legacy_total
            );
            assert!(r.ledger.interval_discrepancy() < 1e-9, "{mode:?}");
            assert!((r.ledger.legacy_total - r.energy.total_energy).abs() < 1e-9);
            assert!(r.ledger.uncore_energy > 0.0, "uncore is always charged");
            assert!(r.ledger.total_energy > r.energy.total_energy);
        }
    }

    #[test]
    fn gating_modes_charge_the_gating_tables_and_txinfo_traffic() {
        let ungated = run(GatingMode::Ungated, "intruder", 4);
        let gated = run(GatingMode::ClockGate { w0: 8 }, "intruder", 4);
        use htm_power::ledger::EnergyComponent;
        assert_eq!(
            ungated
                .ledger
                .component_energy(EnergyComponent::GatingControl),
            0.0,
            "no gating hardware, no gating-control energy"
        );
        assert!(
            gated
                .ledger
                .component_energy(EnergyComponent::GatingControl)
                > 0.0,
            "gating mode pays for its tables, timers and TxInfoReq traffic"
        );
        assert!(gated.outcome.total_txinfo_roundtrips() > 0);
        assert_eq!(ungated.outcome.total_txinfo_roundtrips(), 0);
    }

    #[test]
    fn leakage_share_axis_flows_into_the_report() {
        let base = run(GatingMode::ClockGate { w0: 8 }, "intruder", 4);
        let leaky = SimulationBuilder::new()
            .processors(4)
            .workload_by_name("intruder", WorkloadScale::Test, 11)
            .unwrap()
            .gating(GatingMode::ClockGate { w0: 8 })
            .cycle_limit(20_000_000)
            .leakage_share(0.40)
            .run()
            .unwrap();
        // Same protocol outcome, different energy accounting.
        assert_eq!(base.outcome, leaky.outcome);
        assert!(
            leaky.energy.breakdown.gated > base.energy.breakdown.gated,
            "doubling leakage must make gated cycles more expensive"
        );
        assert!(leaky.ledger.core_discrepancy() < 1e-12);
    }

    #[test]
    fn deterministic_reports_for_identical_builders() {
        let a = run(GatingMode::ClockGate { w0: 8 }, "genome", 4);
        let b = run(GatingMode::ClockGate { w0: 8 }, "genome", 4);
        assert_eq!(a.outcome.total_cycles, b.outcome.total_cycles);
        assert_eq!(a.outcome.total_aborts, b.outcome.total_aborts);
        assert!((a.total_energy() - b.total_energy()).abs() < 1e-9);
    }
}
