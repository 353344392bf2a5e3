//! Cartesian sweep grids and their deterministic cell expansion.
//!
//! A [`SweepGrid`] names one axis per swept parameter; [`SweepGrid::expand`]
//! takes the Cartesian product in a fixed nesting order (workload → procs →
//! cache geometry → leakage share → scale → seed → gating mode), so the
//! resulting cell list — and therefore the `sweep.jsonl` record order and
//! every downstream artifact — is a pure function of the grid.

use serde::{Deserialize, Serialize};

use htm_sim::Cycle;
use htm_workloads::registry::{CORPUS_WORKLOADS, PAPER_WORKLOADS};
use htm_workloads::WorkloadScale;

use crate::sim::{GatingMode, DEFAULT_CYCLE_LIMIT};

/// The gating-mode families a sweep can cross with its parameter axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModeKind {
    /// Plain Scalable TCC (no back-off, no gating) — the baseline point.
    Ungated,
    /// Exponential polite back-off at run power (crossed with
    /// [`GatingAxis::backoff_bases`]).
    ExponentialBackoff,
    /// The paper's clock gating with Eq. 8 (crossed with
    /// [`GatingAxis::w0_values`]).
    ClockGate,
    /// Clock gating with a fixed window (crossed with
    /// [`GatingAxis::fixed_windows`]).
    ClockGateFixedWindow,
    /// Clock gating without the renewal check (crossed with
    /// [`GatingAxis::w0_values`]).
    ClockGateNoRenew,
    /// Clock gating with a linear back-off (crossed with
    /// [`GatingAxis::w0_values`]).
    ClockGateLinear,
    /// Extension: Eq. 8 with a per-victim EWMA predictor replacing `W0`
    /// (crossed with [`GatingAxis::w0_values`] as predictor seeds).
    AdaptiveW0,
    /// Extension: gate the first `k` consecutive aborts, then exponential
    /// back-off (crossed with [`GatingAxis::hybrid_gate_limits`]; `W0`,
    /// base and cap come from the first entry of their respective lists).
    Hybrid,
    /// Extension: DVFS-throttle the victim instead of fully gating it
    /// (crossed with [`GatingAxis::w0_values`]).
    Throttle,
    /// Extension: the oracle upper bound — a single parameterless point.
    Oracle,
}

/// The gating axis of a sweep: which mode families to run and which
/// parameter values to cross each family with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatingAxis {
    /// Mode families, in expansion order.
    pub kinds: Vec<ModeKind>,
    /// `W0` values crossed with the Eq. 8 / no-renew / linear families.
    pub w0_values: Vec<Cycle>,
    /// Window lengths crossed with the fixed-window family.
    pub fixed_windows: Vec<Cycle>,
    /// Base windows crossed with the exponential-back-off family.
    pub backoff_bases: Vec<Cycle>,
    /// Exponent cap shared by all exponential-back-off cells.
    pub backoff_cap: u32,
    /// Gate limits (`k`) crossed with the hybrid family. The hybrid cells'
    /// `W0`, back-off base and cap are the first entries of
    /// [`Self::w0_values`] / [`Self::backoff_bases`] / [`Self::backoff_cap`].
    pub hybrid_gate_limits: Vec<u32>,
}

impl Default for GatingAxis {
    /// The paper's operating point: ungated baseline vs. `W0 = 8` gating.
    fn default() -> Self {
        Self {
            kinds: vec![ModeKind::Ungated, ModeKind::ClockGate],
            w0_values: vec![8],
            fixed_windows: vec![64],
            backoff_bases: vec![32],
            backoff_cap: 8,
            hybrid_gate_limits: vec![2],
        }
    }
}

impl GatingAxis {
    /// Expand the axis into concrete gating modes, crossing each family with
    /// its parameter list in order.
    #[must_use]
    pub fn expand(&self) -> Vec<GatingMode> {
        let mut modes = Vec::new();
        for kind in &self.kinds {
            match kind {
                ModeKind::Ungated => modes.push(GatingMode::Ungated),
                ModeKind::ExponentialBackoff => {
                    modes.extend(self.backoff_bases.iter().map(|&base| {
                        GatingMode::ExponentialBackoff {
                            base,
                            cap: self.backoff_cap,
                        }
                    }));
                }
                ModeKind::ClockGate => modes.extend(
                    self.w0_values
                        .iter()
                        .map(|&w0| GatingMode::ClockGate { w0 }),
                ),
                ModeKind::ClockGateFixedWindow => modes.extend(
                    self.fixed_windows
                        .iter()
                        .map(|&window| GatingMode::ClockGateFixedWindow { window }),
                ),
                ModeKind::ClockGateNoRenew => modes.extend(
                    self.w0_values
                        .iter()
                        .map(|&w0| GatingMode::ClockGateNoRenew { w0 }),
                ),
                ModeKind::ClockGateLinear => modes.extend(
                    self.w0_values
                        .iter()
                        .map(|&w0| GatingMode::ClockGateLinear { w0 }),
                ),
                ModeKind::AdaptiveW0 => modes.extend(
                    self.w0_values
                        .iter()
                        .map(|&w0| GatingMode::AdaptiveW0 { w0 }),
                ),
                ModeKind::Hybrid => {
                    let w0 = self.w0_values.first().copied().unwrap_or(8);
                    let base = self.backoff_bases.first().copied().unwrap_or(32);
                    modes.extend(self.hybrid_gate_limits.iter().map(|&gate_limit| {
                        GatingMode::Hybrid {
                            gate_limit,
                            w0,
                            base,
                            cap: self.backoff_cap,
                        }
                    }));
                }
                ModeKind::Throttle => {
                    modes.extend(self.w0_values.iter().map(|&w0| GatingMode::Throttle { w0 }))
                }
                ModeKind::Oracle => modes.push(GatingMode::Oracle),
            }
        }
        modes
    }
}

/// One point of the L1 cache-geometry axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Capacity in KiB.
    pub l1_kb: usize,
    /// Associativity (ways).
    pub l1_assoc: usize,
}

impl Default for CacheGeometry {
    /// The Table II cache: 64 KB, 2-way.
    fn default() -> Self {
        Self {
            l1_kb: 64,
            l1_assoc: 2,
        }
    }
}

impl CacheGeometry {
    /// Short label used in cell keys, e.g. `l64k2w`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("l{}k{}w", self.l1_kb, self.l1_assoc)
    }
}

/// A Cartesian sensitivity grid. Expanded by [`SweepGrid::expand`];
/// executed by [`crate::sweep::runner::run_sweep`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepGrid {
    /// Grid name (`smoke`, `default`, `w0`, `backoff`, `scaling`, `cache`,
    /// or anything for custom grids); recorded in the artifacts.
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<String>,
    /// Processor-count axis.
    pub processor_counts: Vec<usize>,
    /// Workload-scale axis.
    pub scales: Vec<WorkloadScale>,
    /// Seed axis (workload generation seeds).
    pub seeds: Vec<u64>,
    /// L1 cache-geometry axis.
    pub cache_geometries: Vec<CacheGeometry>,
    /// Leakage-share (technology-node) axis of the power model, in percent
    /// of total run power. The paper's 65 nm assumption is 20.
    pub leakage_percents: Vec<u32>,
    /// Gating axis.
    pub gating: GatingAxis,
    /// Safety bound on simulated cycles, shared by every cell.
    pub cycle_limit: Cycle,
}

/// The paper's leakage share in percent (the default point of the axis).
pub const DEFAULT_LEAKAGE_PERCENT: u32 = 20;

/// Names accepted by [`SweepGrid::by_name`] (the `sweep --grid` values).
pub const GRID_NAMES: [&str; 10] = [
    "smoke", "default", "w0", "backoff", "scaling", "cache", "leakage", "policies", "scale",
    "corpus",
];

impl SweepGrid {
    fn base(name: &str) -> Self {
        Self {
            name: name.to_string(),
            workloads: PAPER_WORKLOADS.iter().map(|s| (*s).to_string()).collect(),
            processor_counts: vec![4, 8, 16],
            scales: vec![WorkloadScale::Small],
            seeds: vec![42],
            cache_geometries: vec![CacheGeometry::default()],
            leakage_percents: vec![DEFAULT_LEAKAGE_PERCENT],
            gating: GatingAxis::default(),
            cycle_limit: DEFAULT_CYCLE_LIMIT,
        }
    }

    /// The CI gate: two workloads, one processor count, tiny scale, the
    /// ungated / back-off / `W0 = 8` trio — small enough to run with the
    /// naive reference engine in seconds.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            workloads: vec!["genome".into(), "intruder".into()],
            processor_counts: vec![4],
            scales: vec![WorkloadScale::Test],
            gating: GatingAxis {
                kinds: vec![
                    ModeKind::Ungated,
                    ModeKind::ExponentialBackoff,
                    ModeKind::ClockGate,
                ],
                ..GatingAxis::default()
            },
            ..Self::base("smoke")
        }
    }

    /// All six gating-mode families at the paper's operating points, over
    /// the paper's workloads and processor counts.
    #[must_use]
    pub fn default_grid() -> Self {
        Self {
            gating: GatingAxis {
                kinds: vec![
                    ModeKind::Ungated,
                    ModeKind::ExponentialBackoff,
                    ModeKind::ClockGate,
                    ModeKind::ClockGateFixedWindow,
                    ModeKind::ClockGateNoRenew,
                    ModeKind::ClockGateLinear,
                ],
                ..GatingAxis::default()
            },
            ..Self::base("default")
        }
    }

    /// The `W0` sensitivity surface: Eq. 8 gating across seven `W0` values
    /// (plus the ungated baseline point per slice).
    #[must_use]
    pub fn w0() -> Self {
        Self {
            gating: GatingAxis {
                kinds: vec![ModeKind::Ungated, ModeKind::ClockGate],
                w0_values: vec![1, 2, 4, 8, 16, 32, 64],
                ..GatingAxis::default()
            },
            ..Self::base("w0")
        }
    }

    /// Back-off sensitivity: exponential back-off across five base windows,
    /// against the ungated and `W0 = 8` clock-gated references.
    #[must_use]
    pub fn backoff() -> Self {
        Self {
            processor_counts: vec![8],
            gating: GatingAxis {
                kinds: vec![
                    ModeKind::Ungated,
                    ModeKind::ExponentialBackoff,
                    ModeKind::ClockGate,
                ],
                backoff_bases: vec![8, 16, 32, 64, 128],
                ..GatingAxis::default()
            },
            ..Self::base("backoff")
        }
    }

    /// Processor scaling beyond the paper's 16-core ceiling, with three
    /// seeds per point for run-to-run spread.
    #[must_use]
    pub fn scaling() -> Self {
        Self {
            processor_counts: vec![1, 2, 4, 8, 16, 32],
            seeds: vec![42, 43, 44],
            ..Self::base("scaling")
        }
    }

    /// Cache-geometry sensitivity: four capacities × two associativities at
    /// 8 processors.
    #[must_use]
    pub fn cache() -> Self {
        let mut geometries = Vec::new();
        for l1_kb in [16usize, 32, 64, 128] {
            for l1_assoc in [2usize, 4] {
                geometries.push(CacheGeometry { l1_kb, l1_assoc });
            }
        }
        Self {
            processor_counts: vec![8],
            cache_geometries: geometries,
            ..Self::base("cache")
        }
    }

    /// Leakage-share (technology-node) sensitivity: how much of the gating
    /// win survives as the leakage share moves off the paper's 20 %
    /// assumption. Clock gating only saves dynamic power, so the energy
    /// objective flips as the leaky fraction grows.
    #[must_use]
    pub fn leakage() -> Self {
        Self {
            processor_counts: vec![8],
            leakage_percents: vec![5, 10, 20, 30, 40],
            ..Self::base("leakage")
        }
    }

    /// The policy axis end-to-end: every registered policy family at its
    /// default operating point, over the paper's workloads, so Pareto
    /// reports rank whole policy families per workload. Small enough
    /// (tiny scale, one processor count) for the CI policy-matrix gate to
    /// run it on both engines.
    #[must_use]
    pub fn policies() -> Self {
        Self {
            processor_counts: vec![4],
            scales: vec![WorkloadScale::Test],
            gating: GatingAxis {
                kinds: vec![
                    ModeKind::Ungated,
                    ModeKind::ExponentialBackoff,
                    ModeKind::ClockGate,
                    ModeKind::ClockGateFixedWindow,
                    ModeKind::ClockGateNoRenew,
                    ModeKind::ClockGateLinear,
                    ModeKind::AdaptiveW0,
                    ModeKind::Hybrid,
                    ModeKind::Throttle,
                    ModeKind::Oracle,
                ],
                ..GatingAxis::default()
            },
            ..Self::base("policies")
        }
    }

    /// The large-machine grid behind `docs/SCALING.md`: the
    /// cluster-isolated workload plus two STAMP-like ones at 64, 256, 512
    /// and 1024 processors (the simulator's [`htm_sim::MAX_PROCS`] ceiling),
    /// under the ungated / Eq. 8 / oracle trio. Meant to be run on the
    /// sharded fabric (`sweep --grid scale --topology sharded`), where
    /// traffic to different directories does not serialize on one bus.
    #[must_use]
    pub fn scale() -> Self {
        Self {
            workloads: vec!["clustered".into(), "genome".into(), "intruder".into()],
            processor_counts: vec![64, 256, 512, 1024],
            scales: vec![WorkloadScale::Test],
            gating: GatingAxis {
                kinds: vec![ModeKind::Ungated, ModeKind::ClockGate, ModeKind::Oracle],
                ..GatingAxis::default()
            },
            ..Self::base("scale")
        }
    }

    /// The scenario corpus: the five remaining STAMP-style kernels plus the
    /// four adversarial microbenchmarks
    /// ([`htm_workloads::registry::CORPUS_WORKLOADS`]) under the ungated /
    /// back-off / `W0 = 8` trio at tiny scale — small enough for the CI
    /// trace-smoke gate to run it on both engines.
    #[must_use]
    pub fn corpus() -> Self {
        Self {
            workloads: CORPUS_WORKLOADS.iter().map(|s| (*s).to_string()).collect(),
            processor_counts: vec![4],
            scales: vec![WorkloadScale::Test],
            gating: GatingAxis {
                kinds: vec![
                    ModeKind::Ungated,
                    ModeKind::ExponentialBackoff,
                    ModeKind::ClockGate,
                ],
                ..GatingAxis::default()
            },
            ..Self::base("corpus")
        }
    }

    /// A single-workload grid for a trace loaded from a file: the workload
    /// axis carries the trace's fingerprinted axis name
    /// (`trace-{name}-{fp8}`), the processor count is the trace's thread
    /// count, and the gating axis is the ungated / back-off / `W0 = 8`
    /// trio. Because the axis name embeds the content fingerprint, a
    /// checkpointed sweep directory keyed by one file can never be silently
    /// resumed with an edited trace (or by a synthetic-workload sweep): the
    /// keys differ and the resume pre-flight rejects them as foreign
    /// records.
    #[must_use]
    pub fn for_trace(axis_name: &str, procs: usize) -> Self {
        Self {
            workloads: vec![axis_name.to_string()],
            processor_counts: vec![procs],
            scales: vec![WorkloadScale::Test],
            seeds: vec![0],
            gating: GatingAxis {
                kinds: vec![
                    ModeKind::Ungated,
                    ModeKind::ExponentialBackoff,
                    ModeKind::ClockGate,
                ],
                ..GatingAxis::default()
            },
            ..Self::base("trace")
        }
    }

    /// Look up a predefined grid by its [`GRID_NAMES`] name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "default" => Some(Self::default_grid()),
            "w0" => Some(Self::w0()),
            "backoff" => Some(Self::backoff()),
            "scaling" => Some(Self::scaling()),
            "cache" => Some(Self::cache()),
            "leakage" => Some(Self::leakage()),
            "policies" => Some(Self::policies()),
            "scale" => Some(Self::scale()),
            "corpus" => Some(Self::corpus()),
            _ => None,
        }
    }

    /// Expand the grid into its deterministic cell list (workload-major,
    /// then procs, geometry, leakage share, scale, seed and finally gating
    /// mode).
    #[must_use]
    pub fn expand(&self) -> Vec<SweepCell> {
        let modes = self.gating.expand();
        let mut cells = Vec::new();
        for workload in &self.workloads {
            for &procs in &self.processor_counts {
                for &geometry in &self.cache_geometries {
                    for &leakage_percent in &self.leakage_percents {
                        for &scale in &self.scales {
                            for &seed in &self.seeds {
                                for &mode in &modes {
                                    cells.push(SweepCell {
                                        workload: workload.clone(),
                                        procs,
                                        geometry,
                                        leakage_percent,
                                        scale,
                                        seed,
                                        mode,
                                        cycle_limit: self.cycle_limit,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One fully-specified simulation of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Workload name.
    pub workload: String,
    /// Processor count.
    pub procs: usize,
    /// L1 geometry.
    pub geometry: CacheGeometry,
    /// Leakage share of the power model, in percent.
    pub leakage_percent: u32,
    /// Workload scale.
    pub scale: WorkloadScale,
    /// Workload generation seed.
    pub seed: u64,
    /// Gating mode (with its parameters).
    pub mode: GatingMode,
    /// Safety bound on simulated cycles.
    pub cycle_limit: Cycle,
}

impl SweepCell {
    /// The cell's stable key: the identity used for resume deduplication
    /// and in the Pareto artifacts, e.g.
    /// `genome-p8-l64k2w-small-s42-cg-w8` (an `lk<percent>` segment appears
    /// whenever the leakage share deviates from the paper's 20 %). Two
    /// cells collide iff every swept parameter is equal.
    #[must_use]
    pub fn key(&self) -> String {
        let leakage = if self.leakage_percent == DEFAULT_LEAKAGE_PERCENT {
            String::new()
        } else {
            format!("lk{}-", self.leakage_percent)
        };
        format!(
            "{}-p{}-{}-{}-s{}-{}{}",
            self.workload,
            self.procs,
            self.geometry.label(),
            self.scale.label(),
            self.seed,
            leakage,
            mode_slug(&self.mode)
        )
    }

    /// Leakage share as the fraction the power model consumes.
    #[must_use]
    pub fn leakage_share(&self) -> f64 {
        f64::from(self.leakage_percent) / 100.0
    }
}

/// Compact, filesystem-safe slug for a gating mode, used in cell keys
/// (delegates to [`GatingMode::slug`], which keeps every legacy slug
/// byte-identical).
#[must_use]
pub fn mode_slug(mode: &GatingMode) -> String {
    mode.slug()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn gating_axis_crosses_each_family_with_its_params() {
        let axis = GatingAxis {
            kinds: vec![
                ModeKind::Ungated,
                ModeKind::ClockGate,
                ModeKind::ExponentialBackoff,
            ],
            w0_values: vec![4, 8],
            fixed_windows: vec![64],
            backoff_bases: vec![16, 32],
            backoff_cap: 6,
            hybrid_gate_limits: vec![2],
        };
        let modes = axis.expand();
        assert_eq!(
            modes,
            vec![
                GatingMode::Ungated,
                GatingMode::ClockGate { w0: 4 },
                GatingMode::ClockGate { w0: 8 },
                GatingMode::ExponentialBackoff { base: 16, cap: 6 },
                GatingMode::ExponentialBackoff { base: 32, cap: 6 },
            ]
        );
    }

    #[test]
    fn expansion_is_the_full_cartesian_product_in_stable_order() {
        let grid = SweepGrid {
            workloads: vec!["genome".into(), "intruder".into()],
            processor_counts: vec![4, 8],
            seeds: vec![1, 2],
            ..SweepGrid::base("test")
        };
        let cells = grid.expand();
        // 2 workloads x 2 procs x 1 geometry x 1 scale x 2 seeds x 2 modes.
        assert_eq!(cells.len(), 16);
        // Workload-major order, mode innermost.
        assert_eq!(cells[0].key(), "genome-p4-l64k2w-small-s1-ungated");
        assert_eq!(cells[1].key(), "genome-p4-l64k2w-small-s1-cg-w8");
        assert_eq!(cells[2].key(), "genome-p4-l64k2w-small-s2-ungated");
        assert_eq!(cells[8].workload, "intruder");
        // Expansion is deterministic.
        assert_eq!(cells, grid.expand());
    }

    #[test]
    fn all_preset_grids_expand_to_unique_keys() {
        for name in GRID_NAMES {
            let grid = SweepGrid::by_name(name).unwrap();
            assert_eq!(grid.name, name);
            let cells = grid.expand();
            assert!(!cells.is_empty(), "{name} must have cells");
            let keys: BTreeSet<String> = cells.iter().map(SweepCell::key).collect();
            assert_eq!(keys.len(), cells.len(), "{name} keys must be unique");
        }
        assert!(SweepGrid::by_name("nope").is_none());
    }

    #[test]
    fn scale_grid_reaches_the_1024p_ceiling() {
        let cells = SweepGrid::scale().expand();
        // 3 workloads x 4 processor counts x 3 modes.
        assert_eq!(cells.len(), 36);
        let procs: BTreeSet<usize> = cells.iter().map(|c| c.procs).collect();
        assert_eq!(procs, BTreeSet::from([64, 256, 512, 1024]));
        let keys: BTreeSet<String> = cells.iter().map(SweepCell::key).collect();
        assert!(keys.contains("genome-p1024-l64k2w-test-s42-oracle"));
        assert!(keys.contains("intruder-p512-l64k2w-test-s42-cg-w8"));
    }

    #[test]
    fn smoke_grid_is_small_enough_for_ci() {
        let cells = SweepGrid::smoke().expand();
        assert!(
            cells.len() <= 12,
            "smoke grid must stay tiny ({} cells)",
            cells.len()
        );
        assert!(cells
            .iter()
            .all(|c| c.scale == WorkloadScale::Test && c.procs == 4));
    }

    #[test]
    fn mode_slugs_are_distinct_and_key_safe() {
        let slugs: BTreeSet<String> = [
            GatingMode::Ungated,
            GatingMode::ExponentialBackoff { base: 16, cap: 8 },
            GatingMode::ClockGate { w0: 8 },
            GatingMode::ClockGateFixedWindow { window: 8 },
            GatingMode::ClockGateNoRenew { w0: 8 },
            GatingMode::ClockGateLinear { w0: 8 },
            GatingMode::AdaptiveW0 { w0: 8 },
            GatingMode::Hybrid {
                gate_limit: 2,
                w0: 8,
                base: 16,
                cap: 8,
            },
            GatingMode::Throttle { w0: 8 },
            GatingMode::Oracle,
        ]
        .iter()
        .map(mode_slug)
        .collect();
        assert_eq!(slugs.len(), 10);
        for slug in &slugs {
            assert!(
                slug.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'),
                "{slug} must be filesystem- and JSON-safe"
            );
        }
    }

    #[test]
    fn policy_axis_expands_every_registered_family() {
        let grid = SweepGrid::policies();
        let modes = grid.gating.expand();
        assert_eq!(
            modes.len(),
            crate::gating::policy::POLICY_REGISTRY.len(),
            "one cell per registered family at the default point"
        );
        let families: BTreeSet<&str> = modes.iter().map(GatingMode::family).collect();
        assert_eq!(families.len(), modes.len(), "all families distinct");
        assert!(modes.contains(&GatingMode::Oracle));
        assert!(modes.contains(&GatingMode::Hybrid {
            gate_limit: 2,
            w0: 8,
            base: 32,
            cap: 8,
        }));
        // Keys stay unique across the whole grid.
        let cells = grid.expand();
        let keys: BTreeSet<String> = cells.iter().map(SweepCell::key).collect();
        assert_eq!(keys.len(), cells.len());
        assert!(keys.contains("intruder-p4-l64k2w-test-s42-oracle"));
        assert!(keys.contains("intruder-p4-l64k2w-test-s42-thr-w8"));
    }

    #[test]
    fn corpus_grid_keys_every_new_scenario() {
        let grid = SweepGrid::corpus();
        let cells = grid.expand();
        // 9 workloads x 1 proc count x 3 modes.
        assert_eq!(cells.len(), 27);
        let keys: BTreeSet<String> = cells.iter().map(SweepCell::key).collect();
        assert_eq!(keys.len(), cells.len());
        for scenario in CORPUS_WORKLOADS {
            assert!(
                keys.contains(&format!("{scenario}-p4-l64k2w-test-s42-ungated")),
                "{scenario} must appear in the corpus sweep keys"
            );
        }
        assert!(cells
            .iter()
            .all(|c| c.scale == WorkloadScale::Test && c.procs == 4));
    }

    #[test]
    fn trace_grid_keys_embed_the_fingerprinted_axis_name() {
        let grid = SweepGrid::for_trace("trace-intruder-ab12cd34", 4);
        let cells = grid.expand();
        assert_eq!(cells.len(), 3, "ungated / backoff / cg trio");
        assert_eq!(
            cells[0].key(),
            "trace-intruder-ab12cd34-p4-l64k2w-test-s0-ungated"
        );
        // A different fingerprint (edited file) re-keys every cell.
        let other = SweepGrid::for_trace("trace-intruder-deadbeef", 4).expand();
        let keys: BTreeSet<String> = cells.iter().map(SweepCell::key).collect();
        assert!(other.iter().all(|c| !keys.contains(&c.key())));
    }

    #[test]
    fn hybrid_axis_crosses_gate_limits() {
        let axis = GatingAxis {
            kinds: vec![ModeKind::Hybrid],
            hybrid_gate_limits: vec![1, 2, 4],
            ..GatingAxis::default()
        };
        let modes = axis.expand();
        assert_eq!(modes.len(), 3);
        assert!(modes.iter().all(|m| matches!(
            m,
            GatingMode::Hybrid {
                w0: 8,
                base: 32,
                cap: 8,
                ..
            }
        )));
    }

    #[test]
    fn w0_grid_covers_the_fig7_points() {
        let grid = SweepGrid::w0();
        let modes = grid.gating.expand();
        assert_eq!(modes.len(), 8, "ungated + seven W0 values");
        assert!(modes.contains(&GatingMode::ClockGate { w0: 64 }));
    }

    #[test]
    fn leakage_axis_expands_and_keys_only_non_default_points() {
        let grid = SweepGrid {
            leakage_percents: vec![20, 40],
            workloads: vec!["genome".into()],
            processor_counts: vec![4],
            ..SweepGrid::base("test")
        };
        let cells = grid.expand();
        assert_eq!(cells.len(), 4, "2 leakage points x 2 modes");
        assert_eq!(cells[0].key(), "genome-p4-l64k2w-small-s42-ungated");
        assert_eq!(cells[2].key(), "genome-p4-l64k2w-small-s42-lk40-ungated");
        assert!((cells[2].leakage_share() - 0.40).abs() < 1e-12);
        // The paper's point keeps the pre-ledger key format.
        assert!(!cells[0].key().contains("lk"));
    }

    #[test]
    fn leakage_grid_sweeps_the_tech_node_axis() {
        let grid = SweepGrid::leakage();
        let cells = grid.expand();
        // 3 workloads x 1 proc count x 5 leakage points x 2 modes.
        assert_eq!(cells.len(), 30);
        let leakages: BTreeSet<u32> = cells.iter().map(|c| c.leakage_percent).collect();
        assert_eq!(leakages, BTreeSet::from([5, 10, 20, 30, 40]));
    }

    #[test]
    fn cache_grid_sweeps_geometry() {
        let cells = SweepGrid::cache().expand();
        let geoms: BTreeSet<String> = cells.iter().map(|c| c.geometry.label()).collect();
        assert_eq!(geoms.len(), 8, "4 capacities x 2 associativities");
        assert!(geoms.contains("l16k2w") && geoms.contains("l128k4w"));
    }
}
