//! Interval accounting for the paper's energy equations (Section IV).
//!
//! Equation (1) of the paper expresses the gated-execution energy `Eg` in
//! terms of:
//!
//! * `Xi` — the total time during which *exactly i* processors were
//!   "gated, waiting for a cache miss, or performing commit",
//! * `αi` — the (weighted) proportion of those processors that were serving a
//!   cache miss,
//! * `βi` — the proportion that were performing a commit.
//!
//! Equation (5) does the same for the ungated run with `Yi` / `δi`.
//!
//! [`IntervalTracker`] collects exactly these quantities: every simulated
//! cycle the engine reports how many processors are gated, miss-stalled and
//! committing, and the tracker accumulates the per-`i` interval lengths and
//! the weighted miss / commit sums. The power crate then evaluates the
//! closed-form equations from this data and cross-checks them against the
//! direct per-processor accounting.

use serde::{Deserialize, Serialize};

use crate::checkpoint::{CkptError, CkptReader, CkptWriter};
use crate::Cycle;

/// Accumulated interval data for one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalTracker {
    /// Number of processors `p` in the system.
    num_procs: usize,
    /// `x[i]` = number of cycles during which exactly `i` processors were in
    /// a low-power-relevant state (gated + miss + commit). Index `0..=p`.
    x: Vec<u64>,
    /// `miss_weight[i]` = Σ over those cycles of the number of processors
    /// serving a miss (the numerator of Eq. 3 with Δ = 1 cycle).
    miss_weight: Vec<u64>,
    /// `commit_weight[i]` = Σ over those cycles of the number of processors
    /// performing commit (numerator of Eq. 4).
    commit_weight: Vec<u64>,
    /// `gate_weight[i]` = Σ of gated processors (the residual `1 - α - β`).
    gate_weight: Vec<u64>,
    /// `throttle_weight[i]` = Σ of DVFS-throttled processors. The paper's
    /// machine has no such state; the weight stays all-zero unless the
    /// `throttle` contention policy is active.
    throttle_weight: Vec<u64>,
    /// Total number of cycles recorded (the parallel-section length `N`).
    total_cycles: Cycle,
}

impl IntervalTracker {
    /// Create a tracker for a `num_procs`-processor system.
    #[must_use]
    pub fn new(num_procs: usize) -> Self {
        Self {
            num_procs,
            x: vec![0; num_procs + 1],
            miss_weight: vec![0; num_procs + 1],
            commit_weight: vec![0; num_procs + 1],
            gate_weight: vec![0; num_procs + 1],
            throttle_weight: vec![0; num_procs + 1],
            total_cycles: 0,
        }
    }

    /// Record `cycles` consecutive cycles during which `gated` processors were
    /// clock-gated, `missing` were stalled on a cache miss and `committing`
    /// were flushing their write set (no processor throttled — the paper's
    /// machine; see [`Self::record_with_throttle`]).
    ///
    /// # Panics
    /// Panics if the three categories sum to more than the number of
    /// processors (a processor can only be in one of them at a time).
    pub fn record(&mut self, cycles: u64, gated: usize, missing: usize, committing: usize) {
        self.record_with_throttle(cycles, gated, missing, committing, 0);
    }

    /// [`Self::record`] with a fourth low-power category: processors in the
    /// DVFS-style throttled state of the `throttle` contention policy.
    ///
    /// # Panics
    /// Panics if the four categories sum to more than the number of
    /// processors (a processor can only be in one of them at a time).
    pub fn record_with_throttle(
        &mut self,
        cycles: u64,
        gated: usize,
        missing: usize,
        committing: usize,
        throttled: usize,
    ) {
        let i = gated + missing + committing + throttled;
        assert!(
            i <= self.num_procs,
            "more low-power processors ({i}) than processors ({})",
            self.num_procs
        );
        self.x[i] += cycles;
        self.miss_weight[i] += cycles * missing as u64;
        self.commit_weight[i] += cycles * committing as u64;
        self.gate_weight[i] += cycles * gated as u64;
        self.throttle_weight[i] += cycles * throttled as u64;
        self.total_cycles += cycles;
    }

    /// Serialize the accumulated interval data into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_usize(self.num_procs);
        w.put_u64_slice(&self.x);
        w.put_u64_slice(&self.miss_weight);
        w.put_u64_slice(&self.commit_weight);
        w.put_u64_slice(&self.gate_weight);
        w.put_u64_slice(&self.throttle_weight);
        w.put_u64(self.total_cycles);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let num_procs = r.get_usize()?;
        let tracker = Self {
            num_procs,
            x: r.get_u64_vec()?,
            miss_weight: r.get_u64_vec()?,
            commit_weight: r.get_u64_vec()?,
            gate_weight: r.get_u64_vec()?,
            throttle_weight: r.get_u64_vec()?,
            total_cycles: r.get_u64()?,
        };
        if tracker.x.len() != num_procs + 1
            || tracker.miss_weight.len() != num_procs + 1
            || tracker.commit_weight.len() != num_procs + 1
            || tracker.gate_weight.len() != num_procs + 1
            || tracker.throttle_weight.len() != num_procs + 1
        {
            return Err(CkptError::Corrupt(format!(
                "interval tracker arrays do not match {num_procs} processors"
            )));
        }
        Ok(tracker)
    }

    /// Number of processors `p`.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Total recorded cycles (the parallel-section execution time).
    #[must_use]
    pub fn total_cycles(&self) -> Cycle {
        self.total_cycles
    }

    /// `Xi` for a given `i` (cycles with exactly `i` low-power processors).
    #[must_use]
    pub fn x(&self, i: usize) -> u64 {
        self.x[i]
    }

    /// `αi`: weighted fraction of the `i` low-power processors that were
    /// serving a cache miss (Eq. 3). Returns 0 when `Xi = 0` or `i = 0`.
    #[must_use]
    pub fn alpha(&self, i: usize) -> f64 {
        if i == 0 || self.x[i] == 0 {
            0.0
        } else {
            self.miss_weight[i] as f64 / (i as f64 * self.x[i] as f64)
        }
    }

    /// `βi`: weighted fraction performing commit (Eq. 4).
    #[must_use]
    pub fn beta(&self, i: usize) -> f64 {
        if i == 0 || self.x[i] == 0 {
            0.0
        } else {
            self.commit_weight[i] as f64 / (i as f64 * self.x[i] as f64)
        }
    }

    /// Weighted fraction that was clock-gated (`1 - αi - βi` in the paper;
    /// with the throttled extension the residual is `1 - αi - βi - δi`).
    #[must_use]
    pub fn gamma(&self, i: usize) -> f64 {
        if i == 0 || self.x[i] == 0 {
            0.0
        } else {
            self.gate_weight[i] as f64 / (i as f64 * self.x[i] as f64)
        }
    }

    /// `δi`: weighted fraction of the `i` low-power processors that were in
    /// the DVFS-style throttled state (zero everywhere unless the `throttle`
    /// contention policy ran).
    #[must_use]
    pub fn delta(&self, i: usize) -> f64 {
        if i == 0 || self.x[i] == 0 {
            0.0
        } else {
            self.throttle_weight[i] as f64 / (i as f64 * self.x[i] as f64)
        }
    }

    /// Total processor-cycles spent gated, across all intervals.
    #[must_use]
    pub fn total_gated_proc_cycles(&self) -> u64 {
        self.gate_weight.iter().sum()
    }

    /// Total processor-cycles spent miss-stalled.
    #[must_use]
    pub fn total_miss_proc_cycles(&self) -> u64 {
        self.miss_weight.iter().sum()
    }

    /// Total processor-cycles spent committing.
    #[must_use]
    pub fn total_commit_proc_cycles(&self) -> u64 {
        self.commit_weight.iter().sum()
    }

    /// Total processor-cycles spent DVFS-throttled.
    #[must_use]
    pub fn total_throttled_proc_cycles(&self) -> u64 {
        self.throttle_weight.iter().sum()
    }

    /// Total processor-cycles spent in any low-power state (gated + miss +
    /// commit + throttled), i.e. `Σ Xi · i`.
    #[must_use]
    pub fn total_low_power_proc_cycles(&self) -> u64 {
        self.total_gated_proc_cycles()
            + self.total_miss_proc_cycles()
            + self.total_commit_proc_cycles()
            + self.total_throttled_proc_cycles()
    }

    /// Total processor-cycles spent at full run power, derived from the
    /// interval decomposition: `N·p − Σ Xi · i` — the run-power tally the
    /// Eq. 1 / Eq. 5 interval formulation charges (the energy ledger's
    /// interval-side cross-check evaluates the same expression).
    #[must_use]
    pub fn total_run_proc_cycles(&self) -> u64 {
        self.total_cycles * self.num_procs as u64 - self.total_low_power_proc_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_intervals() {
        let mut t = IntervalTracker::new(4);
        t.record(10, 1, 1, 0); // i = 2
        t.record(5, 0, 0, 0); // i = 0
        t.record(3, 2, 1, 1); // i = 4
        assert_eq!(t.total_cycles(), 18);
        assert_eq!(t.x(2), 10);
        assert_eq!(t.x(0), 5);
        assert_eq!(t.x(4), 3);
        assert_eq!(t.x(1), 0);
    }

    #[test]
    fn alpha_beta_gamma_partition_unity() {
        let mut t = IntervalTracker::new(8);
        t.record(7, 2, 3, 1); // i = 6
        let i = 6;
        let total = t.alpha(i) + t.beta(i) + t.gamma(i);
        assert!((total - 1.0).abs() < 1e-12);
        assert!((t.alpha(i) - 0.5).abs() < 1e-12);
        assert!((t.beta(i) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_of_empty_interval_is_zero() {
        let t = IntervalTracker::new(4);
        assert_eq!(t.alpha(2), 0.0);
        assert_eq!(t.beta(2), 0.0);
        assert_eq!(t.gamma(0), 0.0);
    }

    #[test]
    fn weighted_mixture_of_intervals() {
        let mut t = IntervalTracker::new(4);
        // Two different compositions at the same i = 2.
        t.record(10, 0, 2, 0); // all missing
        t.record(10, 0, 0, 2); // all committing
        assert!((t.alpha(2) - 0.5).abs() < 1e-12);
        assert!((t.beta(2) - 0.5).abs() < 1e-12);
        assert_eq!(t.gamma(2), 0.0);
    }

    #[test]
    fn totals_by_category() {
        let mut t = IntervalTracker::new(4);
        t.record(4, 1, 2, 1);
        t.record(6, 0, 1, 0);
        assert_eq!(t.total_gated_proc_cycles(), 4);
        assert_eq!(t.total_miss_proc_cycles(), 8 + 6);
        assert_eq!(t.total_commit_proc_cycles(), 4);
    }

    #[test]
    fn run_and_low_power_proc_cycles_partition_the_total() {
        let mut t = IntervalTracker::new(4);
        t.record(4, 1, 2, 1); // 4 cycles, all 4 procs in low-power states
        t.record(6, 0, 1, 0); // 6 cycles, 1 proc missing, 3 running
        assert_eq!(t.total_low_power_proc_cycles(), 16 + 6);
        assert_eq!(t.total_run_proc_cycles(), 4 * 10 - 22);
        assert_eq!(
            t.total_run_proc_cycles() + t.total_low_power_proc_cycles(),
            4 * t.total_cycles()
        );
    }

    #[test]
    #[should_panic(expected = "more low-power processors")]
    fn rejects_overcount() {
        let mut t = IntervalTracker::new(2);
        t.record(1, 1, 1, 1);
    }

    #[test]
    fn throttled_processors_join_the_low_power_decomposition() {
        let mut t = IntervalTracker::new(4);
        t.record_with_throttle(10, 1, 1, 0, 2); // i = 4
        assert_eq!(t.x(4), 10);
        assert!((t.delta(4) - 0.5).abs() < 1e-12);
        let unity = t.alpha(4) + t.beta(4) + t.gamma(4) + t.delta(4);
        assert!((unity - 1.0).abs() < 1e-12);
        assert_eq!(t.total_throttled_proc_cycles(), 20);
        assert_eq!(t.total_low_power_proc_cycles(), 40);
        assert_eq!(t.total_run_proc_cycles(), 0);
        // The 4-argument `record` is the throttle-free special case.
        let mut u = IntervalTracker::new(4);
        u.record(10, 1, 1, 0);
        assert_eq!(u.delta(2), 0.0);
        assert_eq!(u.total_throttled_proc_cycles(), 0);
    }
}
