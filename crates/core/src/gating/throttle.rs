//! The throttle contention policy: DVFS the victim down instead of stopping
//! its clocks.
//!
//! Clock gating buys the lowest possible wait power but needs the full
//! Section V machinery: Stop-Clock drain, a per-directory timer, the
//! Fig. 2(e) renewal circuit with its `TxInfoReq` round-trips, and a wake-up
//! protocol ending in a self-abort. Dynamic voltage/frequency scaling is the
//! classic intermediate point (cf. data-dependent clock gating, which argues
//! gating decisions should follow observed activity): the victim's clocks
//! keep running at a reduced rate — it burns the throttled power factor
//! instead of the gated one — but the wait is a **processor-local
//! countdown**: no renewal traffic, no wake-up latency, no self-abort, and
//! the fast-forward engine tracks the window like any other phase deadline.
//!
//! The window is the Eq. 8 staircase with the renew term pinned at zero
//! (there are no renewals without a directory timer):
//! `W = W0 · (2^⌈lg Na⌉ + 1)` for the victim's `Na`-th consecutive abort.

use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::{Cycle, DirId, ProcId};
use htm_tcc::hooks::{AbortAction, GatingHook, SystemView};
use htm_tcc::txn::TxId;

use crate::gating::contention::pow2_ceil_lg;
use crate::gating::policy::{PolicyHook, UncoreCharges};

/// The DVFS-style throttling hook (see the module docs).
#[derive(Debug, Clone)]
pub struct ThrottleHook {
    w0: Cycle,
    /// Per-victim consecutive-abort count since its last commit.
    consecutive: Vec<u32>,
    /// Throttled windows issued.
    throttles: u64,
}

impl ThrottleHook {
    /// Create the hook for `num_procs` processors with the given `W0`.
    #[must_use]
    pub fn new(num_procs: usize, w0: Cycle) -> Self {
        Self {
            w0,
            consecutive: vec![0; num_procs],
            throttles: 0,
        }
    }

    /// Number of throttled windows issued so far.
    #[must_use]
    pub fn throttles(&self) -> u64 {
        self.throttles
    }
}

impl GatingHook for ThrottleHook {
    fn on_abort(
        &mut self,
        _dir: DirId,
        victim: ProcId,
        _aborter: ProcId,
        _aborter_tx: TxId,
        _now: Cycle,
        _view: &SystemView,
    ) -> AbortAction {
        let n = self.consecutive[victim].saturating_add(1);
        self.consecutive[victim] = n;
        self.throttles += 1;
        AbortAction::Throttle {
            duration: self.w0.saturating_mul(pow2_ceil_lg(n) + 1),
        }
    }

    fn on_commit(&mut self, proc: ProcId, _now: Cycle) {
        self.consecutive[proc] = 0;
    }

    fn next_deadline(&self, _now: Cycle) -> Option<Cycle> {
        // The throttled window is a processor-local countdown
        // (`Phase::Throttled`); the hook itself never acts spontaneously.
        None
    }

    fn snapshot(&self, w: &mut CkptWriter) {
        w.put_usize(self.consecutive.len());
        for &n in &self.consecutive {
            w.put_u32(n);
        }
        w.put_u64(self.throttles);
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.get_usize()?;
        if n != self.consecutive.len() {
            return Err(CkptError::Corrupt(format!(
                "throttle ladder for {n} processors restored into a machine with {}",
                self.consecutive.len()
            )));
        }
        for slot in &mut self.consecutive {
            *slot = r.get_u32()?;
        }
        self.throttles = r.get_u64()?;
        Ok(())
    }
}

impl PolicyHook for ThrottleHook {
    fn uncore_charges(&self) -> UncoreCharges {
        // The per-directory abort-counter tables and window timers exist
        // (their leakage is charged), but there is no renewal circuit and
        // therefore no renewal-time TxInfoReq traffic; the substrate counts
        // no abort-time round-trips either, because the hook never answers
        // `Gate`.
        UncoreCharges::gating(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_follow_the_eq8_staircase_without_renewals() {
        let mut h = ThrottleHook::new(2, 8);
        let v = SystemView::new(2, 1);
        let windows: Vec<Cycle> = (0..5)
            .map(|_| match h.on_abort(0, 0, 1, 7, 0, &v) {
                AbortAction::Throttle { duration } => duration,
                other => panic!("throttle always throttles: {other:?}"),
            })
            .collect();
        // W0=8: Na = 1,2,3,4,5 -> 8*(1+1), 8*(2+1), 8*(4+1), 8*(4+1), 8*(8+1).
        assert_eq!(windows, vec![16, 24, 40, 40, 72]);
        assert_eq!(h.throttles(), 5);
    }

    #[test]
    fn commit_resets_the_per_victim_staircase() {
        let mut h = ThrottleHook::new(2, 8);
        let v = SystemView::new(2, 1);
        let _ = h.on_abort(0, 0, 1, 7, 0, &v);
        let _ = h.on_abort(0, 0, 1, 7, 0, &v);
        h.on_commit(0, 100);
        match h.on_abort(0, 0, 1, 7, 200, &v) {
            AbortAction::Throttle { duration } => assert_eq!(duration, 16),
            other => panic!("{other:?}"),
        }
        // Victim 1's ladder was never touched.
        match h.on_abort(0, 1, 0, 9, 200, &v) {
            AbortAction::Throttle { duration } => assert_eq!(duration, 16),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hook_is_passive_and_declares_gating_tables_without_txinfo() {
        let h = ThrottleHook::new(1, 8);
        assert_eq!(h.next_deadline(123), None);
        let charges = h.uncore_charges();
        assert!(charges.gating_hardware);
        assert_eq!(charges.renewal_txinfo_roundtrips, 0);
        assert!(h.gating_stats().is_none(), "no Stop Clock protocol stats");
    }
}
