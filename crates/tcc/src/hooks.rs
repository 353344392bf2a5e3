//! The gating-hook interface between the TCC substrate and the paper's
//! clock-gate-on-abort mechanism.
//!
//! The baseline Scalable-TCC system knows nothing about clock gating; it
//! simply reports protocol events (aborts, commits, processor activity) to a
//! [`GatingHook`] and applies the commands the hook returns. The paper's
//! mechanism — the per-directory gating table of Fig. 1, the Stop-Clock /
//! TxInfoReq / renew / on protocol of Section V and the contention manager of
//! Section VI — is implemented as a `GatingHook` in the `clockgate-htm`
//! crate. [`NoGating`] is the ungated baseline used for the "without
//! clock-gating" bars of Figs. 4–6.

use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::{Cycle, DirId, ProcId, ProcSet};

use crate::txn::TxId;

/// What the substrate should do with a processor whose transaction has just
/// been aborted by an invalidation from directory `dir`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortAction {
    /// Roll back immediately and retry after spinning for `backoff` cycles at
    /// full run power. `backoff = 0` is the plain TCC baseline; a non-zero
    /// value models a conventional (non-gating) contention manager such as
    /// exponential polite back-off.
    Retry {
        /// Cycles to spin (at run power) before restarting the transaction.
        backoff: Cycle,
    },
    /// Stop the processor's clocks ("Stop Clock", Fig. 2(c)). The hook owns
    /// the gating timer and must later issue
    /// [`GateCommand::UngateProcessor`] to wake the victim, which then
    /// self-aborts and retries.
    Gate,
    /// Roll back, then wait out `duration` cycles in the DVFS-style
    /// throttled state (clocks at a reduced rate) before retrying. Unlike
    /// [`AbortAction::Gate`] the victim needs no wake-up protocol — the
    /// window is a processor-local countdown, but each cycle of it costs the
    /// throttled power factor instead of the gated one.
    Throttle {
        /// Length of the throttled window in cycles.
        duration: Cycle,
    },
}

/// Decision taken by a hook when one of its gating timers expires.
///
/// This mirrors the control circuit of Fig. 2(e): either the victim is woken
/// ("on" command) or its gating period is renewed because the aborting
/// transaction is still trying to commit in that directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UngateDecision {
    /// Wake the processor.
    Ungate,
    /// Keep the processor gated for another `new_timer` cycles.
    Renew {
        /// Fresh value loaded into the gating-timer field (the paper's `W't`).
        new_timer: Cycle,
    },
}

/// A command from the hook to the substrate, applied at the next cycle
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateCommand {
    /// Deliver the "on" signal to `proc` on behalf of directory `dir`. The
    /// processor wakes, performs a self-abort of the frozen transaction and
    /// retries it.
    UngateProcessor {
        /// Processor to wake.
        proc: ProcId,
        /// Directory issuing the command (for statistics / reconciliation).
        dir: DirId,
    },
}

/// Ordering key of the commands in [`GatingHook::on_tick_scoped`]'s output.
///
/// Never used by any engine; kept so out-of-tree implementors compile.
pub type ScopedCmdKey = (u64, u64, u64);

/// Read-only snapshot of the system state exposed to hooks.
///
/// The snapshot is refreshed by the substrate once per cycle *before* hook
/// callbacks run, so hooks observe a consistent view: which transaction every
/// processor is executing (`None` while it is clock-gated or outside any
/// transaction — the paper's "null" reply to `TxInfoReq`), whether it is
/// gated, and which processors are marked as intending to commit in each
/// directory (the inputs of the Fig. 2(e) circuit).
#[derive(Debug, Clone, Default)]
pub struct SystemView {
    /// Per-processor: the transaction it is currently executing or trying to
    /// commit, or `None` if it is clock-gated / between transactions / done.
    pub proc_tx: Vec<Option<TxId>>,
    /// Per-processor: whether its clocks are currently gated (including the
    /// drain and wake transition states).
    pub proc_gated: Vec<bool>,
    /// Per-directory: bit vector of processors whose "Marked" bit is set
    /// (they have expressed the intention to commit in that directory and
    /// have not finished doing so).
    pub dir_marked: Vec<ProcSet>,
}

impl SystemView {
    /// Create an empty view for `num_procs` processors and `num_dirs`
    /// directories.
    #[must_use]
    pub fn new(num_procs: usize, num_dirs: usize) -> Self {
        Self {
            proc_tx: vec![None; num_procs],
            proc_gated: vec![false; num_procs],
            dir_marked: vec![ProcSet::empty(); num_dirs],
        }
    }

    /// Transaction currently executed by `proc` (the reply to a `TxInfoReq`),
    /// or `None` if the processor is gated or idle.
    #[must_use]
    pub fn current_tx(&self, proc: ProcId) -> Option<TxId> {
        if self.proc_gated[proc] {
            None
        } else {
            self.proc_tx[proc]
        }
    }

    /// Whether `proc` is currently clock-gated.
    #[must_use]
    pub fn is_gated(&self, proc: ProcId) -> bool {
        self.proc_gated[proc]
    }

    /// Whether `proc` has its "Marked" (intent-to-commit) bit set in `dir`.
    #[must_use]
    pub fn is_marked(&self, dir: DirId, proc: ProcId) -> bool {
        self.dir_marked[dir].contains(proc)
    }

    /// Bit vector of processors marked in `dir` (the input of the bitwise-OR
    /// stage of the Fig. 2(e) circuit).
    #[must_use]
    pub fn marked_bits(&self, dir: DirId) -> ProcSet {
        self.dir_marked[dir]
    }
}

/// Observer/controller interface for the clock-gating mechanism.
///
/// All methods have sensible no-op defaults except [`GatingHook::on_abort`],
/// which every implementation must decide.
///
/// A hook is owned by exactly one [`crate::system::TccSystem`] and only
/// ever called from the thread driving that system, so the trait asks for
/// no thread-safety bounds: parallel runners (matrix and sweep cells)
/// build their own hook on the worker thread that runs it.
pub trait GatingHook {
    /// A committing processor (`aborter`, executing static transaction
    /// `aborter_tx`) has invalidated a line speculatively read by `victim`;
    /// the invalidation was generated by directory `dir`. Decide what the
    /// victim should do.
    fn on_abort(
        &mut self,
        dir: DirId,
        victim: ProcId,
        aborter: ProcId,
        aborter_tx: TxId,
        now: Cycle,
        view: &SystemView,
    ) -> AbortAction;

    /// Called once per simulated cycle after the view snapshot has been
    /// refreshed; the hook pushes any gating commands that became due
    /// (typically because a gating timer expired and the Fig. 2(e) check
    /// decided to wake the victim) into `out`.
    ///
    /// `out` is a scratch buffer owned by the substrate and cleared before
    /// every call, so steady-state ticks never allocate.
    fn on_tick(&mut self, _now: Cycle, _view: &SystemView, _out: &mut Vec<GateCommand>) {}

    /// Earliest cycle `d >= now` at which this hook may act on its own —
    /// `on_tick(t, ..)` is guaranteed to push no commands and have no
    /// observable side effects for every cycle `t < d`, so `on_tick` need
    /// not even be *called* before `d`. `None` means the hook never acts
    /// spontaneously (it only reacts to `on_abort` / `on_commit` / …
    /// callbacks).
    ///
    /// The fast-forward engine uses this to skip quiescent cycles in one
    /// jump, so a hook that reports a too-late deadline breaks cycle
    /// exactness. The default of `Some(now)` is maximally conservative:
    /// it declares that `on_tick` may act *this very cycle*, so the engine
    /// never skips a tick (and never jumps) on a custom hook's account.
    /// Hooks with explicit timers (the clock-gating controller) override
    /// this with their earliest timer expiry; hooks that never issue
    /// commands return `None`.
    fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// `proc` committed a transaction at `now` (resets the per-processor
    /// abort counters, per Section III).
    fn on_commit(&mut self, _proc: ProcId, _now: Cycle) {}

    /// A previously gated `proc` has woken up and finished its self-abort.
    fn on_wake(&mut self, _proc: ProcId, _now: Cycle) {}

    /// `proc` issued a load/store request to `dir`; used to reconcile stale
    /// per-directory OFF bits (Section V: "if any load/store request comes
    /// from a processor which is marked as off, the directory assumes that it
    /// has been turned on by some other directory").
    fn on_proc_activity(&mut self, _proc: ProcId, _dir: DirId, _now: Cycle) {}

    /// Never called by any engine; kept so out-of-tree implementors compile.
    fn windowed_couplings(&self, _out: &mut Vec<(DirId, ProcId)>) -> bool {
        false
    }

    /// Never called by any engine; kept so out-of-tree implementors compile.
    fn on_tick_scoped(
        &mut self,
        _now: Cycle,
        _view: &SystemView,
        _focus: &[bool],
        _out: &mut Vec<(ScopedCmdKey, GateCommand)>,
    ) {
    }

    /// Serialize the hook's mutable state into a checkpoint payload. The
    /// default writes nothing — correct for stateless hooks ([`NoGating`]);
    /// every stateful hook must override this *and* [`GatingHook::restore`]
    /// symmetrically, or a resumed run diverges from the uninterrupted one.
    fn snapshot(&self, _w: &mut CkptWriter) {}

    /// Inverse of [`GatingHook::snapshot`]: overwrite the mutable state of a
    /// freshly constructed hook with the checkpointed values. Configuration
    /// (window constants, policy parameters) comes from construction, not
    /// from the checkpoint.
    fn restore(&mut self, _r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        Ok(())
    }
}

/// The ungated baseline: every abort is an immediate retry, nothing is ever
/// gated.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoGating;

impl GatingHook for NoGating {
    fn on_abort(
        &mut self,
        _dir: DirId,
        _victim: ProcId,
        _aborter: ProcId,
        _aborter_tx: TxId,
        _now: Cycle,
        _view: &SystemView,
    ) -> AbortAction {
        AbortAction::Retry { backoff: 0 }
    }

    fn next_deadline(&self, _now: Cycle) -> Option<Cycle> {
        // Never issues commands, so it never constrains the fast-forward
        // horizon.
        None
    }
}

/// A conventional exponential polite back-off contention manager (no clock
/// gating): after the `n`-th consecutive abort of the same processor the
/// victim spins for `base * 2^min(n, cap)` cycles at full run power before
/// retrying. Included as the comparison point the paper dismisses for
/// "highly contentious applications" and used by the ablation benchmarks.
#[derive(Debug, Clone)]
pub struct ExponentialBackoff {
    base: Cycle,
    cap: u32,
    consecutive_aborts: Vec<u32>,
}

impl ExponentialBackoff {
    /// Create a back-off manager for `num_procs` processors with the given
    /// base window and exponent cap.
    #[must_use]
    pub fn new(num_procs: usize, base: Cycle, cap: u32) -> Self {
        Self {
            base,
            cap,
            consecutive_aborts: vec![0; num_procs],
        }
    }
}

impl GatingHook for ExponentialBackoff {
    fn on_abort(
        &mut self,
        _dir: DirId,
        victim: ProcId,
        _aborter: ProcId,
        _aborter_tx: TxId,
        _now: Cycle,
        _view: &SystemView,
    ) -> AbortAction {
        let n = self.consecutive_aborts[victim].min(self.cap);
        self.consecutive_aborts[victim] = self.consecutive_aborts[victim].saturating_add(1);
        AbortAction::Retry {
            backoff: self.base.saturating_mul(1 << n),
        }
    }

    fn on_commit(&mut self, proc: ProcId, _now: Cycle) {
        self.consecutive_aborts[proc] = 0;
    }

    fn next_deadline(&self, _now: Cycle) -> Option<Cycle> {
        // The back-off spin happens inside the processor (`Phase::Backoff`);
        // the hook itself never issues commands.
        None
    }

    fn snapshot(&self, w: &mut CkptWriter) {
        w.put_usize(self.consecutive_aborts.len());
        for &n in &self.consecutive_aborts {
            w.put_u32(n);
        }
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.get_usize()?;
        if n != self.consecutive_aborts.len() {
            return Err(CkptError::Corrupt(format!(
                "backoff state for {n} processors restored into a machine with {}",
                self.consecutive_aborts.len()
            )));
        }
        for slot in &mut self.consecutive_aborts {
            *slot = r.get_u32()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_reports_marked_bits() {
        let mut v = SystemView::new(4, 2);
        v.dir_marked[1] = ProcSet::from_bits(0b1010);
        assert!(v.is_marked(1, 1));
        assert!(v.is_marked(1, 3));
        assert!(!v.is_marked(1, 0));
        assert!(!v.is_marked(0, 1));
        assert_eq!(v.marked_bits(1), ProcSet::from_bits(0b1010));
    }

    #[test]
    fn gated_processor_reports_null_tx() {
        let mut v = SystemView::new(2, 1);
        v.proc_tx[0] = Some(0x400);
        v.proc_gated[0] = true;
        v.proc_tx[1] = Some(0x500);
        assert_eq!(
            v.current_tx(0),
            None,
            "TxInfoReq to a gated processor replies null"
        );
        assert_eq!(v.current_tx(1), Some(0x500));
        assert!(v.is_gated(0));
        assert!(!v.is_gated(1));
    }

    #[test]
    fn no_gating_always_retries_immediately() {
        let mut h = NoGating;
        let v = SystemView::new(2, 1);
        assert_eq!(
            h.on_abort(0, 1, 0, 7, 100, &v),
            AbortAction::Retry { backoff: 0 }
        );
        let mut out = Vec::new();
        h.on_tick(0, &v, &mut out);
        assert!(out.is_empty());
        assert_eq!(h.next_deadline(0), None);
    }

    /// A hook relying on every default implementation must report the
    /// current cycle as its deadline: the engine then calls `on_tick` every
    /// cycle and never jumps, which is the only safe assumption for an
    /// arbitrary custom hook.
    #[test]
    fn default_next_deadline_is_conservative() {
        struct Custom;
        impl GatingHook for Custom {
            fn on_abort(
                &mut self,
                _dir: DirId,
                _victim: ProcId,
                _aborter: ProcId,
                _aborter_tx: TxId,
                _now: Cycle,
                _view: &SystemView,
            ) -> AbortAction {
                AbortAction::Gate
            }
        }
        assert_eq!(Custom.next_deadline(10), Some(10));
        assert_eq!(Custom.next_deadline(Cycle::MAX), Some(Cycle::MAX));
    }

    #[test]
    fn exponential_backoff_doubles_and_resets() {
        let mut h = ExponentialBackoff::new(2, 10, 6);
        let v = SystemView::new(2, 1);
        let windows: Vec<Cycle> = (0..4)
            .map(|_| match h.on_abort(0, 0, 1, 7, 0, &v) {
                AbortAction::Retry { backoff } => backoff,
                other => panic!("backoff never gates or throttles: {other:?}"),
            })
            .collect();
        assert_eq!(windows, vec![10, 20, 40, 80]);
        h.on_commit(0, 0);
        match h.on_abort(0, 0, 1, 7, 0, &v) {
            AbortAction::Retry { backoff } => assert_eq!(backoff, 10),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exponential_backoff_respects_cap() {
        let mut h = ExponentialBackoff::new(1, 1, 3);
        let v = SystemView::new(1, 1);
        let mut last = 0;
        for _ in 0..10 {
            if let AbortAction::Retry { backoff } = h.on_abort(0, 0, 0, 1, 0, &v) {
                last = backoff;
            }
        }
        assert_eq!(last, 8, "window saturates at base * 2^cap");
    }
}
