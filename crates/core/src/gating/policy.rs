//! The pluggable contention-policy framework.
//!
//! Abort handling used to be a closed enum hard-coded across four crates;
//! this module turns it into three open layers:
//!
//! 1. **[`PolicySpec`]** — the serializable description of a policy and its
//!    parameters. This is what configs, sweep cells and artifacts carry;
//!    its legacy variants (the six historical `GatingMode`s) keep their
//!    exact labels, slugs and serialized shape, so every pre-framework
//!    artifact stays byte-identical (golden-fixture gated in CI).
//! 2. **The registry** — one [`PolicyInfo`] per policy *family*
//!    ([`POLICY_REGISTRY`]), carrying the family's name, a one-line summary,
//!    whether it reproduces the paper or extends it, a default-parameter
//!    spec and the builder that resolves a spec of that family into a hook.
//!    The `--list-policies` flag of the `reproduce` and `sweep` binaries
//!    enumerates this table, so CLI and docs cannot drift from the
//!    implemented set.
//! 3. **[`PolicyHook`]** — the boxed runtime object. It extends the
//!    substrate's [`GatingHook`] with the two pieces of mode-specific
//!    knowledge the reporting layers used to pull out of the enum: the
//!    controller statistics ([`PolicyHook::gating_stats`]) and the uncore
//!    charges the energy ledger must account
//!    ([`PolicyHook::uncore_charges`] — gating-table hardware presence and
//!    renewal-time `TxInfoReq` round-trips). Every policy declares both, so
//!    the ledger accounts new policies uniformly without a `match` anywhere.
//!
//! Exactness contract: every hook must implement
//! [`GatingHook::next_deadline`] precisely (the fast-forward engine skips
//! cycles based on it), and the `engine_differential` suite proves
//! fast-vs-naive bit-equality for **every** registered policy, not just the
//! legacy set.

use serde::{Deserialize, Serialize};

use htm_sim::config::SimConfig;
use htm_sim::Cycle;
use htm_sim::{DirId, ProcId};
use htm_tcc::hooks::{
    AbortAction, ExponentialBackoff, GateCommand, GatingHook, NoGating, SystemView,
};
use htm_tcc::txn::TxId;

use crate::gating::contention::{
    AdaptiveW0Policy, FixedWindow, GatingAwarePolicy, LinearBackoffPolicy,
};
use crate::gating::controller::{ClockGateController, ControllerConfig, GatingStats};
use crate::gating::hybrid::HybridHook;
use crate::gating::oracle::OracleHook;
use crate::gating::throttle::ThrottleHook;

/// Uncore activity a policy's hardware generates, declared by the hook
/// itself so the energy ledger can charge every policy uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UncoreCharges {
    /// Whether the machine carries per-directory gating tables and timers at
    /// all (their leakage and per-event costs are charged when present).
    pub gating_hardware: bool,
    /// Renewal-time `TxInfoReq` round-trips performed by the policy's
    /// controller over the run (abort-time round-trips are counted by the
    /// substrate whenever a hook answers `Gate`).
    pub renewal_txinfo_roundtrips: u64,
}

impl UncoreCharges {
    /// A policy with no gating hardware at all (plain retry / back-off).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Gating tables present, with the given renewal-time `TxInfoReq` tally.
    #[must_use]
    pub fn gating(renewal_txinfo_roundtrips: u64) -> Self {
        Self {
            gating_hardware: true,
            renewal_txinfo_roundtrips,
        }
    }
}

/// The runtime face of a contention policy: the substrate's [`GatingHook`]
/// plus the reporting/accounting surface the framework needs.
///
/// All methods have defaults matching a stateless non-gating policy.
pub trait PolicyHook: GatingHook {
    /// Controller statistics accumulated over the run, for policies that
    /// drive the gating protocol (`None` for retry-style policies).
    fn gating_stats(&self) -> Option<GatingStats> {
        None
    }

    /// The uncore activity this policy's hardware generated; read after the
    /// run, fed into [`htm_power::ledger::UncoreActivity`].
    fn uncore_charges(&self) -> UncoreCharges {
        UncoreCharges::none()
    }
}

/// `Box<dyn PolicyHook>` is itself a [`GatingHook`], so the generic
/// [`htm_tcc::system::TccSystem`] runs boxed policies without a dedicated
/// code path (the `policy_dispatch` bench guards the cost of this vtable
/// hop on the 16-processor hot path).
impl GatingHook for Box<dyn PolicyHook> {
    fn on_abort(
        &mut self,
        dir: DirId,
        victim: ProcId,
        aborter: ProcId,
        aborter_tx: TxId,
        now: Cycle,
        view: &SystemView,
    ) -> AbortAction {
        (**self).on_abort(dir, victim, aborter, aborter_tx, now, view)
    }

    fn on_tick(&mut self, now: Cycle, view: &SystemView, out: &mut Vec<GateCommand>) {
        (**self).on_tick(now, view, out);
    }

    fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
        (**self).next_deadline(now)
    }

    fn on_commit(&mut self, proc: ProcId, now: Cycle) {
        (**self).on_commit(proc, now);
    }

    fn on_wake(&mut self, proc: ProcId, now: Cycle) {
        (**self).on_wake(proc, now);
    }

    fn on_proc_activity(&mut self, proc: ProcId, dir: DirId, now: Cycle) {
        (**self).on_proc_activity(proc, dir, now);
    }

    fn snapshot(&self, w: &mut htm_sim::checkpoint::CkptWriter) {
        (**self).snapshot(w);
    }

    fn restore(
        &mut self,
        r: &mut htm_sim::checkpoint::CkptReader<'_>,
    ) -> Result<(), htm_sim::checkpoint::CkptError> {
        (**self).restore(r)
    }
}

impl PolicyHook for NoGating {}

impl PolicyHook for ExponentialBackoff {}

impl PolicyHook for ClockGateController {
    fn gating_stats(&self) -> Option<GatingStats> {
        Some(self.stats())
    }

    fn uncore_charges(&self) -> UncoreCharges {
        // Every timer expiry whose aborter was still marked performed one
        // TxInfoReq round-trip, whatever its verdict (renewed, null reply,
        // or a different transaction). The blind-timer ablation never
        // checks, so it never pays.
        let s = self.stats();
        let renewal = if self.config().renew_enabled {
            s.renewals + s.ungate_null_reply + s.ungate_different_tx
        } else {
            0
        };
        UncoreCharges::gating(renewal)
    }
}

/// Serializable description of an abort-handling policy: which family, with
/// which parameters. Resolved into a runnable [`PolicyHook`] through the
/// [`POLICY_REGISTRY`] by [`PolicySpec::build`].
///
/// The first six variants are the historical `GatingMode` set (kept under
/// the same variant names, labels and slugs — artifacts are byte-stable);
/// the last four are the policies the enum-shaped architecture could not
/// express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Plain Scalable TCC: abort and retry immediately (the paper's
    /// "without clock-gating" baseline).
    Ungated,
    /// Conventional exponential polite back-off (no clock gating): the victim
    /// spins at run power for `base * 2^n` cycles after its `n`-th
    /// consecutive abort.
    ExponentialBackoff {
        /// Base back-off window in cycles.
        base: Cycle,
        /// Cap on the exponent.
        cap: u32,
    },
    /// The paper's proposal: clock-gate on abort with the gating-aware
    /// contention manager of Eq. 8.
    ClockGate {
        /// The `W0` constant (the paper uses 8).
        w0: Cycle,
    },
    /// Ablation: clock gating with a fixed window instead of Eq. 8.
    ClockGateFixedWindow {
        /// The constant gating window in cycles.
        window: Cycle,
    },
    /// Ablation: clock gating with Eq. 8 but without the Fig. 2(e) renewal
    /// check (the victim is always woken when the first window expires).
    ClockGateNoRenew {
        /// The `W0` constant.
        w0: Cycle,
    },
    /// Ablation: clock gating with a linear (non-staircase) back-off
    /// `W0 * (Na + Nr)`.
    ClockGateLinear {
        /// The `W0` constant.
        w0: Cycle,
    },
    /// Extension: Eq. 8 with the static `W0` replaced by a per-victim EWMA
    /// predictor of the conflictor's remaining length
    /// ([`AdaptiveW0Policy`]).
    AdaptiveW0 {
        /// Seed of every per-victim predictor.
        w0: Cycle,
    },
    /// Extension: clock-gate for the first `gate_limit` consecutive aborts
    /// of a victim, then fall back to exponential polite back-off (the
    /// cheap mechanism first, the robust one when contention persists).
    Hybrid {
        /// Consecutive aborts handled by gating before falling back.
        gate_limit: u32,
        /// The `W0` constant of the gating phase.
        w0: Cycle,
        /// Base back-off window of the fallback phase, in cycles.
        base: Cycle,
        /// Cap on the fallback exponent.
        cap: u32,
    },
    /// Extension: DVFS-style throttling — the victim waits out an Eq. 8
    /// window at reduced power instead of fully gating, so no wake-up
    /// protocol (and no renewal traffic) is needed at the price of a hotter
    /// wait.
    Throttle {
        /// The `W0` constant of the window staircase.
        w0: Cycle,
    },
    /// Extension: the oracle upper bound — gate exactly until the aborter
    /// commits, via a commit-subscription channel from the substrate
    /// (every heuristic is measured against this).
    Oracle,
}

impl PolicySpec {
    /// Whether this policy uses the clock-gating mechanism at all.
    #[must_use]
    pub fn uses_gating(&self) -> bool {
        !matches!(
            self,
            PolicySpec::Ungated | PolicySpec::ExponentialBackoff { .. }
        )
    }

    // NOTE: there is deliberately no spec-level "renewal check enabled"
    // predicate. Whether (and how much) renewal-time `TxInfoReq` traffic a
    // policy generates is declared by its *hook* at run time
    // ([`PolicyHook::uncore_charges`]), which cannot drift from the
    // implementation the way a parallel classification here could.

    /// Whether this policy is one of the four extensions (vs. the six
    /// paper-reproducing legacy modes).
    #[must_use]
    pub fn is_extension(&self) -> bool {
        matches!(
            self,
            PolicySpec::AdaptiveW0 { .. }
                | PolicySpec::Hybrid { .. }
                | PolicySpec::Throttle { .. }
                | PolicySpec::Oracle
        )
    }

    /// The registry family this spec belongs to ([`PolicyInfo::family`]).
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            PolicySpec::Ungated => "ungated",
            PolicySpec::ExponentialBackoff { .. } => "backoff",
            PolicySpec::ClockGate { .. } => "clock-gate",
            PolicySpec::ClockGateFixedWindow { .. } => "clock-gate-fixed",
            PolicySpec::ClockGateNoRenew { .. } => "clock-gate-no-renew",
            PolicySpec::ClockGateLinear { .. } => "clock-gate-linear",
            PolicySpec::AdaptiveW0 { .. } => "adaptive-w0",
            PolicySpec::Hybrid { .. } => "hybrid",
            PolicySpec::Throttle { .. } => "throttle",
            PolicySpec::Oracle => "oracle",
        }
    }

    /// Short label used in reports and figures (legacy labels unchanged).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Ungated => "ungated".into(),
            PolicySpec::ExponentialBackoff { base, cap } => {
                format!("backoff(base={base},cap={cap})")
            }
            PolicySpec::ClockGate { w0 } => format!("clock-gate(W0={w0})"),
            PolicySpec::ClockGateFixedWindow { window } => format!("clock-gate(fixed={window})"),
            PolicySpec::ClockGateNoRenew { w0 } => format!("clock-gate(no-renew,W0={w0})"),
            PolicySpec::ClockGateLinear { w0 } => format!("clock-gate(linear,W0={w0})"),
            PolicySpec::AdaptiveW0 { w0 } => format!("clock-gate(adaptive,W0={w0})"),
            PolicySpec::Hybrid {
                gate_limit,
                w0,
                base,
                cap,
            } => format!("hybrid(gate={gate_limit},W0={w0},base={base},cap={cap})"),
            PolicySpec::Throttle { w0 } => format!("throttle(W0={w0})"),
            PolicySpec::Oracle => "oracle".into(),
        }
    }

    /// Compact, filesystem-safe slug used in sweep cell keys (legacy slugs
    /// unchanged).
    #[must_use]
    pub fn slug(&self) -> String {
        match self {
            PolicySpec::Ungated => "ungated".to_string(),
            PolicySpec::ExponentialBackoff { base, cap } => format!("backoff-b{base}-c{cap}"),
            PolicySpec::ClockGate { w0 } => format!("cg-w{w0}"),
            PolicySpec::ClockGateFixedWindow { window } => format!("cgfix-{window}"),
            PolicySpec::ClockGateNoRenew { w0 } => format!("cgnr-w{w0}"),
            PolicySpec::ClockGateLinear { w0 } => format!("cglin-w{w0}"),
            PolicySpec::AdaptiveW0 { w0 } => format!("cgad-w{w0}"),
            PolicySpec::Hybrid {
                gate_limit,
                w0,
                base,
                cap,
            } => format!("hyb-g{gate_limit}-w{w0}-b{base}-c{cap}"),
            PolicySpec::Throttle { w0 } => format!("thr-w{w0}"),
            PolicySpec::Oracle => "oracle".to_string(),
        }
    }

    /// Resolve this spec into a runnable hook through the registry.
    ///
    /// # Panics
    /// Panics if the registry has no entry for the spec's family — that is a
    /// registration bug (every variant names a family and every family has
    /// a builder), and the registry test enumerates all variants.
    #[must_use]
    pub fn build(&self, cfg: &SimConfig) -> Box<dyn PolicyHook> {
        let info = find_family(self.family())
            .unwrap_or_else(|| panic!("policy family `{}` is not registered", self.family()));
        (info.build)(self, cfg)
            .unwrap_or_else(|| panic!("registry builder for `{}` rejected {self:?}", info.family))
    }
}

/// One family of contention policies, as registered with the framework.
pub struct PolicyInfo {
    /// Stable family name (the `--list-policies` key).
    pub family: &'static str,
    /// One-line description for CLI listings and docs.
    pub summary: &'static str,
    /// Whether the family is part of the paper's evaluated set (vs. an
    /// extension of this reproduction).
    pub paper: bool,
    /// A spec of this family at its default operating point.
    pub default_spec: fn() -> PolicySpec,
    /// Resolve a spec of this family into a hook (`None` if the spec
    /// belongs to a different family).
    pub build: fn(&PolicySpec, &SimConfig) -> Option<Box<dyn PolicyHook>>,
}

fn controller(
    cfg: &SimConfig,
    policy: Box<dyn crate::gating::contention::ContentionPolicy>,
    renew: bool,
) -> Box<dyn PolicyHook> {
    let mut ctrl_cfg = ControllerConfig::from_sim_config(cfg);
    if !renew {
        ctrl_cfg = ctrl_cfg.without_renewal();
    }
    Box::new(ClockGateController::new(
        cfg.num_dirs,
        cfg.num_procs,
        policy,
        ctrl_cfg,
    ))
}

/// Every registered policy family, in listing order: the paper's set first,
/// then the extensions.
pub static POLICY_REGISTRY: [PolicyInfo; 10] = [
    PolicyInfo {
        family: "ungated",
        summary: "plain Scalable TCC: abort and retry immediately (paper baseline)",
        paper: true,
        default_spec: || PolicySpec::Ungated,
        build: |spec, _cfg| match spec {
            PolicySpec::Ungated => Some(Box::new(NoGating)),
            _ => None,
        },
    },
    PolicyInfo {
        family: "backoff",
        summary: "exponential polite back-off at run power (no gating hardware)",
        paper: true,
        default_spec: || PolicySpec::ExponentialBackoff { base: 32, cap: 8 },
        build: |spec, cfg| match *spec {
            PolicySpec::ExponentialBackoff { base, cap } => {
                Some(Box::new(ExponentialBackoff::new(cfg.num_procs, base, cap)))
            }
            _ => None,
        },
    },
    PolicyInfo {
        family: "clock-gate",
        summary: "the paper's proposal: gate on abort, Eq. 8 staircase windows",
        paper: true,
        default_spec: || PolicySpec::ClockGate { w0: 8 },
        build: |spec, cfg| match *spec {
            PolicySpec::ClockGate { w0 } => {
                Some(controller(cfg, Box::new(GatingAwarePolicy::new(w0)), true))
            }
            _ => None,
        },
    },
    PolicyInfo {
        family: "clock-gate-fixed",
        summary: "ablation: gate with a fixed window instead of Eq. 8",
        paper: true,
        default_spec: || PolicySpec::ClockGateFixedWindow { window: 64 },
        build: |spec, cfg| match *spec {
            PolicySpec::ClockGateFixedWindow { window } => {
                Some(controller(cfg, Box::new(FixedWindow::new(window)), true))
            }
            _ => None,
        },
    },
    PolicyInfo {
        family: "clock-gate-no-renew",
        summary: "ablation: Eq. 8 windows but no Fig. 2(e) renewal check",
        paper: true,
        default_spec: || PolicySpec::ClockGateNoRenew { w0: 8 },
        build: |spec, cfg| match *spec {
            PolicySpec::ClockGateNoRenew { w0 } => {
                Some(controller(cfg, Box::new(GatingAwarePolicy::new(w0)), false))
            }
            _ => None,
        },
    },
    PolicyInfo {
        family: "clock-gate-linear",
        summary: "ablation: gate with a linear W0*(Na+Nr) window",
        paper: true,
        default_spec: || PolicySpec::ClockGateLinear { w0: 8 },
        build: |spec, cfg| match *spec {
            PolicySpec::ClockGateLinear { w0 } => {
                Some(controller(cfg, Box::new(LinearBackoffPolicy { w0 }), true))
            }
            _ => None,
        },
    },
    PolicyInfo {
        family: "adaptive-w0",
        summary: "extension: Eq. 8 with a per-victim EWMA predictor replacing W0",
        paper: false,
        default_spec: || PolicySpec::AdaptiveW0 { w0: 8 },
        build: |spec, cfg| match *spec {
            PolicySpec::AdaptiveW0 { w0 } => Some(controller(
                cfg,
                Box::new(AdaptiveW0Policy::new(cfg.num_procs, w0)),
                true,
            )),
            _ => None,
        },
    },
    PolicyInfo {
        family: "hybrid",
        summary: "extension: gate the first k consecutive aborts, then back off",
        paper: false,
        default_spec: || PolicySpec::Hybrid {
            gate_limit: 2,
            w0: 8,
            base: 32,
            cap: 8,
        },
        build: |spec, cfg| match *spec {
            PolicySpec::Hybrid {
                gate_limit,
                w0,
                base,
                cap,
            } => Some(Box::new(HybridHook::new(cfg, gate_limit, w0, base, cap))),
            _ => None,
        },
    },
    PolicyInfo {
        family: "throttle",
        summary: "extension: DVFS-throttle the victim instead of fully gating it",
        paper: false,
        default_spec: || PolicySpec::Throttle { w0: 8 },
        build: |spec, cfg| match *spec {
            PolicySpec::Throttle { w0 } => Some(Box::new(ThrottleHook::new(cfg.num_procs, w0))),
            _ => None,
        },
    },
    PolicyInfo {
        family: "oracle",
        summary: "extension: gate exactly until the aborter commits (upper bound)",
        paper: false,
        default_spec: || PolicySpec::Oracle,
        build: |spec, cfg| match spec {
            PolicySpec::Oracle => Some(Box::new(OracleHook::new(cfg.num_procs))),
            _ => None,
        },
    },
];

/// The full policy registry, in listing order.
#[must_use]
pub fn registry() -> &'static [PolicyInfo] {
    &POLICY_REGISTRY
}

/// Look up a family by name.
#[must_use]
pub fn find_family(family: &str) -> Option<&'static PolicyInfo> {
    POLICY_REGISTRY.iter().find(|info| info.family == family)
}

/// Render the registry as the `--list-policies` table. Both the `reproduce`
/// and `sweep` binaries print exactly this, so the CLI (and the docs that
/// quote it) can never drift from the implemented set.
#[must_use]
pub fn render_policy_list() -> String {
    let rows: Vec<Vec<String>> = POLICY_REGISTRY
        .iter()
        .map(|info| {
            let spec = (info.default_spec)();
            vec![
                info.family.to_string(),
                if info.paper { "paper" } else { "extension" }.to_string(),
                spec.label(),
                spec.slug(),
                info.summary.to_string(),
            ]
        })
        .collect();
    format!(
        "Registered contention policies ({} families):\n{}",
        POLICY_REGISTRY.len(),
        crate::report::format_table(
            &["family", "origin", "default label", "cell slug", "summary"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn cfg() -> SimConfig {
        SimConfig::table2(4)
    }

    fn all_specs() -> Vec<PolicySpec> {
        POLICY_REGISTRY.iter().map(|i| (i.default_spec)()).collect()
    }

    #[test]
    fn registry_families_are_unique_and_cover_every_variant() {
        let families: BTreeSet<&str> = POLICY_REGISTRY.iter().map(|i| i.family).collect();
        assert_eq!(families.len(), POLICY_REGISTRY.len());
        for info in registry() {
            let spec = (info.default_spec)();
            assert_eq!(spec.family(), info.family, "default spec family mismatch");
            assert!(find_family(info.family).is_some());
        }
        assert!(find_family("nope").is_none());
    }

    #[test]
    fn every_default_spec_builds_through_the_registry() {
        for spec in all_specs() {
            let hook = spec.build(&cfg());
            // The hook's uncore declaration is consistent with the spec.
            assert_eq!(
                hook.uncore_charges().gating_hardware,
                spec.uses_gating(),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn builders_reject_foreign_specs() {
        let oracle = find_family("oracle").unwrap();
        assert!((oracle.build)(&PolicySpec::Ungated, &cfg()).is_none());
        let ungated = find_family("ungated").unwrap();
        assert!((ungated.build)(&PolicySpec::Oracle, &cfg()).is_none());
    }

    #[test]
    fn labels_and_slugs_are_distinct_across_the_registry() {
        let labels: BTreeSet<String> = all_specs().iter().map(PolicySpec::label).collect();
        let slugs: BTreeSet<String> = all_specs().iter().map(PolicySpec::slug).collect();
        assert_eq!(labels.len(), POLICY_REGISTRY.len());
        assert_eq!(slugs.len(), POLICY_REGISTRY.len());
        for slug in &slugs {
            assert!(
                slug.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'),
                "{slug} must be filesystem- and JSON-safe"
            );
        }
    }

    #[test]
    fn legacy_labels_and_slugs_are_byte_stable() {
        // The exact strings the pre-framework enum produced; changing any of
        // them breaks artifact byte-compatibility (and the golden fixture).
        let expected = [
            (PolicySpec::Ungated, "ungated", "ungated"),
            (
                PolicySpec::ExponentialBackoff { base: 32, cap: 8 },
                "backoff(base=32,cap=8)",
                "backoff-b32-c8",
            ),
            (PolicySpec::ClockGate { w0: 8 }, "clock-gate(W0=8)", "cg-w8"),
            (
                PolicySpec::ClockGateFixedWindow { window: 64 },
                "clock-gate(fixed=64)",
                "cgfix-64",
            ),
            (
                PolicySpec::ClockGateNoRenew { w0: 8 },
                "clock-gate(no-renew,W0=8)",
                "cgnr-w8",
            ),
            (
                PolicySpec::ClockGateLinear { w0: 8 },
                "clock-gate(linear,W0=8)",
                "cglin-w8",
            ),
        ];
        for (spec, label, slug) in expected {
            assert_eq!(spec.label(), label);
            assert_eq!(spec.slug(), slug);
            assert!(!spec.is_extension());
        }
    }

    #[test]
    fn extension_specs_are_flagged_and_gating_classified() {
        for spec in all_specs() {
            let expects_gating = !matches!(
                spec,
                PolicySpec::Ungated | PolicySpec::ExponentialBackoff { .. }
            );
            assert_eq!(spec.uses_gating(), expects_gating, "{spec:?}");
        }
        assert_eq!(all_specs().iter().filter(|s| s.is_extension()).count(), 4);
        assert_eq!(
            POLICY_REGISTRY.iter().filter(|i| i.paper).count(),
            6,
            "the paper-reproducing compatibility set"
        );
    }

    #[test]
    fn boxed_hook_forwards_to_the_inner_policy() {
        let mut hook = PolicySpec::ClockGate { w0: 8 }.build(&cfg());
        let view = SystemView::new(4, 4);
        let action = hook.on_abort(0, 1, 2, 0x42, 10, &view);
        assert_eq!(action, AbortAction::Gate);
        assert_eq!(hook.gating_stats().unwrap().gatings, 1);
        assert!(hook.next_deadline(10).is_some());
        let mut out = Vec::new();
        hook.on_tick(10, &view, &mut out);
        assert!(out.is_empty(), "no timer expired yet");
    }
}
