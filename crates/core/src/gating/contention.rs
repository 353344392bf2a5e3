//! Gating-aware contention management (Section VI).
//!
//! The paper sets the gating window with the staircase back-off of Eq. (8):
//!
//! ```text
//! Wt = W0 * ( 2^ceil(lg Na) + 2^ceil(lg Nr) )
//! ```
//!
//! where `Na` is the abort count and `Nr` the renew count of the victim's
//! entry in the directory that is gating it. The ceiled logarithms make the
//! window a staircase with discontinuities at exponentially spaced counts:
//! the window is moderately large for highly conflicting applications (big
//! energy savings) but stays small while the counters are low (performance
//! close to the baseline). `W0` has "first-order significance": it should be
//! small for large machines (many aborts) and large for small ones — Fig. 7
//! sweeps it.

use serde::{Deserialize, Serialize};

use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::{Cycle, ProcId};

/// `2^ceil(lg n)` — the smallest power of two that is ≥ `n`, with the paper's
/// implicit convention that the term contributes `1` when the counter is
/// still zero (only the renew counter can be zero when the window is
/// computed; the abort counter is at least 1).
#[must_use]
pub fn pow2_ceil_lg(n: u32) -> u64 {
    u64::from(n.max(1)).next_power_of_two()
}

/// Policy deciding the gating window from the directory-local abort and
/// renew counters.
///
/// The window may additionally depend on the *victim* (the adaptive-`W0`
/// policy keeps a per-victim predictor), so the controller passes the
/// victim's id and forwards the gate/wake lifecycle events; static policies
/// ignore all three.
pub trait ContentionPolicy {
    /// Gating window in cycles for `victim`, whose entry shows `abort_count`
    /// aborts and `renew_count` renewals.
    fn window(&self, victim: ProcId, abort_count: u32, renew_count: u32) -> Cycle;

    /// Short human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// `victim` just received "Stop Clock" (it was not gated before this
    /// abort). Default: no-op.
    fn on_gated(&mut self, _victim: ProcId, _now: Cycle) {}

    /// `victim` woke up and finished its self-abort. Default: no-op.
    fn on_wake(&mut self, _victim: ProcId, _now: Cycle) {}

    /// Serialize the policy's mutable state into a checkpoint payload. The
    /// default writes nothing — correct for the stateless window formulas;
    /// stateful policies ([`AdaptiveW0Policy`]) must override this *and*
    /// [`ContentionPolicy::restore`] symmetrically, or a checkpoint-resumed
    /// run diverges from the uninterrupted one.
    fn snapshot(&self, _w: &mut CkptWriter) {}

    /// Inverse of [`ContentionPolicy::snapshot`]: overwrite the mutable
    /// state of a freshly constructed policy with the checkpointed values
    /// (configuration comes from construction, not from the checkpoint).
    fn restore(&mut self, _r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        Ok(())
    }
}

/// The paper's gating-aware policy (Eq. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatingAwarePolicy {
    /// The constant factor `W0`.
    pub w0: Cycle,
}

impl GatingAwarePolicy {
    /// Create the policy with the given `W0` (the paper uses `W0 = 8` for its
    /// experiments).
    #[must_use]
    pub fn new(w0: Cycle) -> Self {
        Self { w0 }
    }
}

impl ContentionPolicy for GatingAwarePolicy {
    fn window(&self, _victim: ProcId, abort_count: u32, renew_count: u32) -> Cycle {
        self.w0
            .saturating_mul(pow2_ceil_lg(abort_count) + pow2_ceil_lg(renew_count))
    }

    fn name(&self) -> &'static str {
        "gating-aware (Eq. 8)"
    }
}

/// Ablation policy: a fixed gating window regardless of the abort history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedWindow {
    /// The constant window in cycles.
    pub window: Cycle,
}

impl FixedWindow {
    /// Create a fixed-window policy.
    #[must_use]
    pub fn new(window: Cycle) -> Self {
        Self { window }
    }
}

impl ContentionPolicy for FixedWindow {
    fn window(&self, _victim: ProcId, _abort_count: u32, _renew_count: u32) -> Cycle {
        self.window
    }

    fn name(&self) -> &'static str {
        "fixed window"
    }
}

/// Ablation policy: a *linear* back-off `W0 * (Na + Nr)`, to contrast with the
/// staircase of Eq. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinearBackoffPolicy {
    /// The constant factor.
    pub w0: Cycle,
}

impl ContentionPolicy for LinearBackoffPolicy {
    fn window(&self, _victim: ProcId, abort_count: u32, renew_count: u32) -> Cycle {
        self.w0
            .saturating_mul(u64::from(abort_count.max(1)) + u64::from(renew_count))
    }

    fn name(&self) -> &'static str {
        "linear back-off"
    }
}

/// Fixed-point scale of the adaptive-`W0` EWMA predictor (1/16 cycle
/// resolution keeps the update integer-exact and engine-deterministic).
const EWMA_FP_SHIFT: u32 = 4;
/// Clamp on a single gate-to-wake observation, so one pathological episode
/// (e.g. a renewal chain behind a long commit burst) cannot blow the
/// predictor up for the rest of the run.
const MAX_OBSERVED_GATE: Cycle = 1 << 20;

/// The adaptive-`W0` extension: Eq. 8's staircase with the static `W0`
/// constant replaced by a **per-victim EWMA predictor of the conflictor's
/// remaining length**.
///
/// The paper notes that `W0` has "first-order significance" and must be
/// re-tuned per machine size (Fig. 7). This policy tunes it online instead:
/// every completed gating episode of a victim is an observation of how long
/// its conflictor actually needed (the victim is woken precisely when the
/// aborter has left the directory), so the predictor `Ŵ0(v)` is an EWMA
/// (α = 1/4, integer fixed-point, deterministic across engines) of the
/// victim's observed gate-to-wake durations, seeded with the configured
/// `W0`. The Eq. 8 window becomes `Ŵ0(v) · (2^⌈lg Na⌉ + 2^⌈lg Nr⌉)`.
#[derive(Debug, Clone)]
pub struct AdaptiveW0Policy {
    initial_w0: Cycle,
    /// Per-victim predictor in 1/16-cycle fixed point.
    ewma_fp: Vec<u64>,
    /// Per-victim start of the current gating episode.
    gate_start: Vec<Option<Cycle>>,
}

impl AdaptiveW0Policy {
    /// Create the policy for `num_procs` processors, seeding every
    /// per-victim predictor with `w0`.
    #[must_use]
    pub fn new(num_procs: usize, w0: Cycle) -> Self {
        let seed = w0.max(1) << EWMA_FP_SHIFT;
        Self {
            initial_w0: w0,
            ewma_fp: vec![seed; num_procs],
            gate_start: vec![None; num_procs],
        }
    }

    /// The current effective `W0` of a victim (the predictor, floored to one
    /// cycle).
    #[must_use]
    pub fn effective_w0(&self, victim: ProcId) -> Cycle {
        (self.ewma_fp[victim] >> EWMA_FP_SHIFT).max(1)
    }

    /// The `W0` every predictor was seeded with.
    #[must_use]
    pub fn initial_w0(&self) -> Cycle {
        self.initial_w0
    }
}

impl ContentionPolicy for AdaptiveW0Policy {
    fn window(&self, victim: ProcId, abort_count: u32, renew_count: u32) -> Cycle {
        self.effective_w0(victim)
            .saturating_mul(pow2_ceil_lg(abort_count) + pow2_ceil_lg(renew_count))
    }

    fn name(&self) -> &'static str {
        "adaptive W0 (per-victim EWMA)"
    }

    fn on_gated(&mut self, victim: ProcId, now: Cycle) {
        // A new episode only starts when the victim was running; repeated
        // aborts of an already-gated victim extend the same episode.
        if self.gate_start[victim].is_none() {
            self.gate_start[victim] = Some(now);
        }
    }

    fn on_wake(&mut self, victim: ProcId, now: Cycle) {
        if let Some(start) = self.gate_start[victim].take() {
            let observed = now.saturating_sub(start).min(MAX_OBSERVED_GATE);
            let obs_fp = (observed << EWMA_FP_SHIFT) as i64;
            let old = self.ewma_fp[victim] as i64;
            // EWMA with α = 1/4: new = old + (obs − old)/4, in integer
            // fixed point (arithmetic shift — deterministic, no floats).
            let new = old + ((obs_fp - old) >> 2);
            self.ewma_fp[victim] = new.max(1 << EWMA_FP_SHIFT) as u64;
        }
    }

    fn snapshot(&self, w: &mut CkptWriter) {
        w.put_u64_slice(&self.ewma_fp);
        w.put_usize(self.gate_start.len());
        for slot in &self.gate_start {
            w.put_opt_u64(*slot);
        }
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let ewma = r.get_u64_vec()?;
        let n = r.get_usize()?;
        if ewma.len() != self.ewma_fp.len() || n != self.gate_start.len() {
            return Err(CkptError::Corrupt(format!(
                "adaptive-W0 state for {} processors restored into a machine with {}",
                ewma.len().max(n),
                self.ewma_fp.len()
            )));
        }
        self.ewma_fp = ewma;
        for slot in &mut self.gate_start {
            *slot = r.get_opt_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_ceil_lg_matches_definition() {
        assert_eq!(pow2_ceil_lg(0), 1);
        assert_eq!(pow2_ceil_lg(1), 1);
        assert_eq!(pow2_ceil_lg(2), 2);
        assert_eq!(pow2_ceil_lg(3), 4);
        assert_eq!(pow2_ceil_lg(4), 4);
        assert_eq!(pow2_ceil_lg(5), 8);
        assert_eq!(pow2_ceil_lg(255), 256);
    }

    #[test]
    fn equation8_first_gating_window() {
        // Na = 1, Nr = 0 -> W0 * (1 + 1).
        let p = GatingAwarePolicy::new(8);
        assert_eq!(p.window(0, 1, 0), 16);
    }

    #[test]
    fn equation8_staircase_shape() {
        let p = GatingAwarePolicy::new(8);
        // Windows only change when a counter crosses a power of two.
        assert_eq!(p.window(0, 2, 0), 8 * (2 + 1));
        assert_eq!(p.window(0, 3, 0), 8 * (4 + 1));
        assert_eq!(p.window(0, 4, 0), 8 * (4 + 1));
        assert_eq!(p.window(0, 5, 0), 8 * (8 + 1));
        // Renewals grow the window at a fixed abort level.
        assert_eq!(p.window(0, 1, 1), 8 * (1 + 1));
        assert_eq!(p.window(0, 1, 2), 8 * (1 + 2));
        assert_eq!(p.window(0, 1, 3), 8 * (1 + 4));
        assert_eq!(p.window(0, 1, 5), 8 * (1 + 8));
    }

    #[test]
    fn window_is_monotone_in_both_counters() {
        let p = GatingAwarePolicy::new(4);
        for na in 1..20 {
            for nr in 0..20 {
                assert!(p.window(0, na + 1, nr) >= p.window(0, na, nr));
                assert!(p.window(0, na, nr + 1) >= p.window(0, na, nr));
            }
        }
    }

    #[test]
    fn w0_scales_the_window_linearly() {
        let small = GatingAwarePolicy::new(2);
        let large = GatingAwarePolicy::new(16);
        assert_eq!(large.window(0, 3, 2) / small.window(0, 3, 2), 8);
    }

    #[test]
    fn fixed_window_ignores_counters() {
        let p = FixedWindow::new(100);
        assert_eq!(p.window(0, 1, 0), 100);
        assert_eq!(p.window(0, 200, 50), 100);
        assert_eq!(p.name(), "fixed window");
    }

    #[test]
    fn linear_policy_grows_linearly() {
        let p = LinearBackoffPolicy { w0: 10 };
        assert_eq!(p.window(0, 1, 0), 10);
        assert_eq!(p.window(0, 2, 0), 20);
        assert_eq!(p.window(0, 2, 3), 50);
    }

    #[test]
    fn saturating_window_never_overflows() {
        let p = GatingAwarePolicy::new(Cycle::MAX / 2);
        let _ = p.window(0, 255, 255);
    }

    #[test]
    fn adaptive_policy_starts_at_the_seed_and_learns_per_victim() {
        let mut p = AdaptiveW0Policy::new(2, 8);
        assert_eq!(p.initial_w0(), 8);
        // Before any observation the policy is exactly Eq. 8 with W0 = 8.
        let eq8 = GatingAwarePolicy::new(8);
        assert_eq!(p.window(0, 1, 0), eq8.window(0, 1, 0));
        assert_eq!(p.window(1, 3, 2), eq8.window(1, 3, 2));
        // Victim 0 observes a long episode: its predictor moves a quarter of
        // the way toward the observation; victim 1 is untouched.
        p.on_gated(0, 100);
        p.on_wake(0, 100 + 40);
        assert_eq!(p.effective_w0(0), 8 + (40 - 8) / 4);
        assert_eq!(p.effective_w0(1), 8);
        assert!(p.window(0, 1, 0) > p.window(1, 1, 0));
    }

    #[test]
    fn adaptive_episode_spans_repeated_aborts_until_the_wake() {
        let mut p = AdaptiveW0Policy::new(1, 8);
        p.on_gated(0, 100);
        // A second abort of the already-gated victim must not restart the
        // episode clock.
        p.on_gated(0, 150);
        p.on_wake(0, 200);
        assert_eq!(p.effective_w0(0), 8 + (100 - 8) / 4);
        // A wake without a matching gate is ignored.
        let before = p.effective_w0(0);
        p.on_wake(0, 999);
        assert_eq!(p.effective_w0(0), before);
    }

    #[test]
    fn adaptive_predictor_converges_downward_and_stays_positive() {
        let mut p = AdaptiveW0Policy::new(1, 64);
        for i in 0..200 {
            p.on_gated(0, i * 10);
            p.on_wake(0, i * 10 + 1); // consistently tiny episodes
        }
        assert_eq!(p.effective_w0(0), 1, "floor at one cycle");
        assert!(p.window(0, 1, 0) >= 2);
    }
}
