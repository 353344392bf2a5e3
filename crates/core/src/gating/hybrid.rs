//! The hybrid contention policy: clock-gate first, back off when gating
//! stops paying.
//!
//! Clock gating wins when the conflictor finishes soon (the wait is cheap
//! and precisely renewed); exponential back-off wins when contention is so
//! persistent that repeated gate/wake/self-abort round-trips — each paying
//! drain, wake-up and roll-back latencies plus `TxInfoReq` traffic — burn
//! more than a longer polite spin would. The hybrid policy takes both ends:
//! the first `gate_limit` *consecutive* aborts of a victim are handled by
//! the paper's full gating protocol (Eq. 8 windows, Fig. 2(e) renewal);
//! beyond that the victim falls back to exponential back-off at run power
//! until it finally commits, which resets the ladder.

use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::config::SimConfig;
use htm_sim::{Cycle, DirId, ProcId};
use htm_tcc::hooks::{AbortAction, GateCommand, GatingHook, SystemView};
use htm_tcc::txn::TxId;

use crate::gating::contention::GatingAwarePolicy;
use crate::gating::controller::{ClockGateController, ControllerConfig, GatingStats};
use crate::gating::policy::{PolicyHook, UncoreCharges};

/// The hybrid gate-then-back-off hook (see the module docs).
#[derive(Debug)]
pub struct HybridHook {
    gate_limit: u32,
    base: Cycle,
    cap: u32,
    /// Per-victim consecutive-abort count since its last commit.
    consecutive: Vec<u32>,
    /// Number of aborts that fell through to the back-off phase.
    fallback_backoffs: u64,
    /// The full gating protocol drives the first `gate_limit` aborts.
    inner: ClockGateController,
}

impl HybridHook {
    /// Create the hook for the given machine: gate the first `gate_limit`
    /// consecutive aborts with Eq. 8 (`w0`), then back off with
    /// `base * 2^n` (exponent capped at `cap`).
    #[must_use]
    pub fn new(cfg: &SimConfig, gate_limit: u32, w0: Cycle, base: Cycle, cap: u32) -> Self {
        Self {
            gate_limit,
            base,
            cap,
            consecutive: vec![0; cfg.num_procs],
            fallback_backoffs: 0,
            inner: ClockGateController::new(
                cfg.num_dirs,
                cfg.num_procs,
                Box::new(GatingAwarePolicy::new(w0)),
                ControllerConfig::from_sim_config(cfg),
            ),
        }
    }

    /// Aborts that were handled by the back-off fallback instead of gating.
    #[must_use]
    pub fn fallback_backoffs(&self) -> u64 {
        self.fallback_backoffs
    }
}

impl GatingHook for HybridHook {
    fn on_abort(
        &mut self,
        dir: DirId,
        victim: ProcId,
        aborter: ProcId,
        aborter_tx: TxId,
        now: Cycle,
        view: &SystemView,
    ) -> AbortAction {
        if view.is_gated(victim) {
            // The victim is already stopped: the substrate discards any
            // Retry for a stopped processor, so route the abort to the
            // gating protocol (which logs it directory-locally, extending
            // the window exactly like the plain controller) without
            // advancing the back-off ladder or inventing a phantom
            // fallback window.
            return self
                .inner
                .on_abort(dir, victim, aborter, aborter_tx, now, view);
        }
        let n = self.consecutive[victim];
        self.consecutive[victim] = n.saturating_add(1);
        if n < self.gate_limit {
            self.inner
                .on_abort(dir, victim, aborter, aborter_tx, now, view)
        } else {
            self.fallback_backoffs += 1;
            let exp = (n - self.gate_limit).min(self.cap).min(63);
            AbortAction::Retry {
                backoff: self.base.saturating_mul(1u64 << exp),
            }
        }
    }

    fn on_tick(&mut self, now: Cycle, view: &SystemView, out: &mut Vec<GateCommand>) {
        self.inner.on_tick(now, view, out);
    }

    fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
        // Only the gating phase acts spontaneously; the back-off spin is a
        // processor-local countdown the engine already tracks.
        self.inner.next_deadline(now)
    }

    fn on_commit(&mut self, proc: ProcId, now: Cycle) {
        self.consecutive[proc] = 0;
        self.inner.on_commit(proc, now);
    }

    fn on_wake(&mut self, proc: ProcId, now: Cycle) {
        self.inner.on_wake(proc, now);
    }

    fn on_proc_activity(&mut self, proc: ProcId, dir: DirId, now: Cycle) {
        self.inner.on_proc_activity(proc, dir, now);
    }

    fn snapshot(&self, w: &mut CkptWriter) {
        w.put_usize(self.consecutive.len());
        for &n in &self.consecutive {
            w.put_u32(n);
        }
        w.put_u64(self.fallback_backoffs);
        self.inner.snapshot(w);
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.get_usize()?;
        if n != self.consecutive.len() {
            return Err(CkptError::Corrupt(format!(
                "hybrid ladder for {n} processors restored into a machine with {}",
                self.consecutive.len()
            )));
        }
        for slot in &mut self.consecutive {
            *slot = r.get_u32()?;
        }
        self.fallback_backoffs = r.get_u64()?;
        self.inner.restore(r)
    }
}

impl PolicyHook for HybridHook {
    fn gating_stats(&self) -> Option<GatingStats> {
        Some(self.inner.stats())
    }

    fn uncore_charges(&self) -> UncoreCharges {
        // The gating phase runs the full renewal protocol; the fallback
        // phase needs no hardware beyond the tables already present.
        self.inner.uncore_charges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hook(gate_limit: u32) -> HybridHook {
        HybridHook::new(&SimConfig::table2(4), gate_limit, 8, 16, 6)
    }

    #[test]
    fn gates_first_then_falls_back_to_growing_backoff() {
        let mut h = hook(2);
        let v = SystemView::new(4, 4);
        assert_eq!(h.on_abort(0, 1, 0, 7, 0, &v), AbortAction::Gate);
        h.on_wake(1, 50);
        assert_eq!(h.on_abort(0, 1, 0, 7, 100, &v), AbortAction::Gate);
        h.on_wake(1, 150);
        // Third and fourth consecutive aborts: exponential back-off.
        assert_eq!(
            h.on_abort(0, 1, 0, 7, 200, &v),
            AbortAction::Retry { backoff: 16 }
        );
        assert_eq!(
            h.on_abort(0, 1, 0, 7, 300, &v),
            AbortAction::Retry { backoff: 32 }
        );
        assert_eq!(h.fallback_backoffs(), 2);
        assert_eq!(h.gating_stats().unwrap().gatings, 2);
    }

    #[test]
    fn commit_resets_the_ladder_back_to_gating() {
        let mut h = hook(1);
        let v = SystemView::new(4, 4);
        assert_eq!(h.on_abort(0, 1, 0, 7, 0, &v), AbortAction::Gate);
        h.on_wake(1, 10);
        assert!(matches!(
            h.on_abort(0, 1, 0, 7, 20, &v),
            AbortAction::Retry { .. }
        ));
        h.on_commit(1, 30);
        assert_eq!(h.on_abort(0, 1, 0, 8, 40, &v), AbortAction::Gate);
    }

    #[test]
    fn aborts_of_a_gated_victim_do_not_advance_the_ladder() {
        let mut h = hook(1);
        let mut v = SystemView::new(4, 4);
        assert_eq!(h.on_abort(0, 1, 0, 7, 0, &v), AbortAction::Gate);
        // While the victim is stopped its read set is still live, so more
        // invalidations arrive; the substrate discards any Retry for a
        // stopped victim, and the ladder must not move on their account.
        v.proc_gated[1] = true;
        assert_eq!(h.on_abort(1, 1, 2, 9, 5, &v), AbortAction::Gate);
        assert_eq!(h.on_abort(2, 1, 3, 11, 6, &v), AbortAction::Gate);
        assert_eq!(h.fallback_backoffs(), 0, "no phantom fallback windows");
        v.proc_gated[1] = false;
        h.on_wake(1, 50);
        // The next real abort is exactly the second rung of the ladder.
        assert_eq!(
            h.on_abort(0, 1, 0, 7, 60, &v),
            AbortAction::Retry { backoff: 16 }
        );
    }

    #[test]
    fn ladders_are_per_victim() {
        let mut h = hook(1);
        let v = SystemView::new(4, 4);
        assert_eq!(h.on_abort(0, 1, 0, 7, 0, &v), AbortAction::Gate);
        // Victim 2 still starts on the gating rung.
        assert_eq!(h.on_abort(0, 2, 0, 7, 0, &v), AbortAction::Gate);
    }

    #[test]
    fn zero_gate_limit_degenerates_to_pure_backoff() {
        let mut h = hook(0);
        let v = SystemView::new(4, 4);
        assert_eq!(
            h.on_abort(0, 1, 0, 7, 0, &v),
            AbortAction::Retry { backoff: 16 }
        );
        assert_eq!(h.gating_stats().unwrap().gatings, 0);
        assert_eq!(h.next_deadline(5), None, "no pending gating timers");
    }

    #[test]
    fn backoff_exponent_saturates_at_the_cap() {
        let mut h = hook(0);
        let v = SystemView::new(4, 4);
        let mut last = 0;
        for _ in 0..12 {
            if let AbortAction::Retry { backoff } = h.on_abort(0, 1, 0, 7, 0, &v) {
                last = backoff;
            }
        }
        assert_eq!(last, 16 << 6, "window saturates at base * 2^cap");
    }
}
