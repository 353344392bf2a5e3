//! The oracle contention policy: gate exactly until the aborter commits.
//!
//! Every heuristic in the framework approximates the same unknowable
//! quantity — how long the conflictor still needs. The oracle removes the
//! approximation: when a victim is aborted, it subscribes to the aborter's
//! commit through the substrate's commit channel (the [`GatingHook::on_commit`]
//! callback, which the system fires for every committing processor) and is
//! woken on the very cycle that commit happens. No timers, no renewals, no
//! `TxInfoReq` traffic — an idealized hardware channel that makes the policy
//! the **upper bound** the Eq. 8 family is measured against.
//!
//! Liveness argument (why a waiting victim always wakes): an invalidation is
//! only ever generated by a processor that has been *granted* a directory
//! and is mid-flush, and a granted committer can neither be aborted nor
//! gated (the substrate lets validated committers win); it therefore always
//! reaches `on_commit`. A victim is only gated when, at decision time, the
//! aborter is still executing the aborting transaction (the stale-abort
//! guards below catch invalidations whose committer already finished —
//! including a commit earlier in the same cycle, which the start-of-cycle
//! view snapshot cannot show). Gated processors never commit, so
//! subscription edges always point at committing processors and no wait
//! cycle can form.

use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::{Cycle, DirId, ProcId};
use htm_tcc::hooks::{AbortAction, GateCommand, GatingHook, SystemView};
use htm_tcc::txn::TxId;

use crate::gating::controller::GatingStats;
use crate::gating::policy::{PolicyHook, UncoreCharges};

/// One wake scheduled by `on_commit`, awaiting the next tick. Commits fire
/// in ascending processor order within a cycle and each commit scans victims
/// in ascending order, so the queue is always sorted by
/// `(at, committer, victim)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingWake {
    /// Cycle the conflictor's commit scheduled this wake.
    at: Cycle,
    /// The committing processor whose commit scheduled it.
    committer: ProcId,
    /// Victim to wake.
    victim: ProcId,
    /// Directory that issued the victim's Stop Clock.
    dir: DirId,
}

/// The oracle hook (see the module docs).
#[derive(Debug, Clone)]
pub struct OracleHook {
    /// Per-victim: the committing processor whose commit it is waiting for.
    /// A later abort of the same (still gated) victim re-targets the
    /// subscription at the most recent conflictor.
    waiting_on: Vec<Option<ProcId>>,
    /// Per-victim: the directory that issued its Stop Clock (carried on the
    /// wake command for statistics/reconciliation).
    gate_dir: Vec<DirId>,
    /// Wake commands scheduled by `on_commit`, issued at the next tick.
    /// Sorted by scheduling cycle; the earliest pending cycle is always the
    /// head's, so no separate "pending since" cell exists to go stale.
    pending: Vec<PendingWake>,
    /// Per-processor: cycle of its most recent commit (the same-cycle
    /// stale-abort guard).
    last_commit_at: Vec<Option<Cycle>>,
    stats: GatingStats,
}

impl OracleHook {
    /// Create the hook for `num_procs` processors.
    #[must_use]
    pub fn new(num_procs: usize) -> Self {
        Self {
            waiting_on: vec![None; num_procs],
            gate_dir: vec![0; num_procs],
            pending: Vec::new(),
            last_commit_at: vec![None; num_procs],
            stats: GatingStats::default(),
        }
    }

    /// Statistics accumulated so far (gatings and commit-driven wakes).
    #[must_use]
    pub fn stats(&self) -> GatingStats {
        self.stats
    }
}

impl GatingHook for OracleHook {
    fn on_abort(
        &mut self,
        dir: DirId,
        victim: ProcId,
        aborter: ProcId,
        aborter_tx: TxId,
        now: Cycle,
        view: &SystemView,
    ) -> AbortAction {
        // Stale-abort guards: gating is only useful while the aborting
        // transaction is still committing. If the aborter has moved on (a
        // different transaction, done, or itself gated — all of which mean
        // the aborting flush has finished), or committed earlier this very
        // cycle (the view snapshot is start-of-cycle and cannot show it),
        // the commit we would subscribe to has already happened: retry now.
        if view.current_tx(aborter) != Some(aborter_tx) || self.last_commit_at[aborter] == Some(now)
        {
            return AbortAction::Retry { backoff: 0 };
        }
        if self.waiting_on[victim].is_none() {
            self.stats.gatings += 1;
        }
        self.waiting_on[victim] = Some(aborter);
        self.gate_dir[victim] = dir;
        AbortAction::Gate
    }

    fn on_tick(&mut self, now: Cycle, _view: &SystemView, out: &mut Vec<GateCommand>) {
        if self.pending.first().is_some_and(|p| p.at <= now) {
            for p in self.pending.drain(..) {
                self.stats.ungate_aborter_gone += 1;
                out.push(GateCommand::UngateProcessor {
                    proc: p.victim,
                    dir: p.dir,
                });
            }
        }
    }

    fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
        // The hook acts spontaneously only to deliver wakes scheduled by a
        // commit; between commits `on_tick` is a no-op, so the earliest
        // pending cycle bounds the fast-forward horizon exactly (the queue
        // is sorted, so it is the head's).
        self.pending.first().map(|p| p.at.max(now))
    }

    fn on_commit(&mut self, proc: ProcId, now: Cycle) {
        self.last_commit_at[proc] = Some(now);
        // A committing processor was running, so it cannot be waiting.
        self.waiting_on[proc] = None;
        for victim in 0..self.waiting_on.len() {
            if self.waiting_on[victim] == Some(proc) {
                self.waiting_on[victim] = None;
                let wake = PendingWake {
                    at: now,
                    committer: proc,
                    victim,
                    dir: self.gate_dir[victim],
                };
                self.pending.push(wake);
            }
        }
    }

    fn on_wake(&mut self, proc: ProcId, _now: Cycle) {
        self.waiting_on[proc] = None;
    }

    fn snapshot(&self, w: &mut CkptWriter) {
        w.put_usize(self.waiting_on.len());
        for slot in &self.waiting_on {
            w.put_opt_usize(*slot);
        }
        for &dir in &self.gate_dir {
            w.put_usize(dir);
        }
        // Pending wakes in queue order — the drain order is
        // observable in the command stream, so it must survive the round
        // trip verbatim.
        w.put_usize(self.pending.len());
        for p in &self.pending {
            w.put_u64(p.at);
            w.put_usize(p.committer);
            w.put_usize(p.victim);
            w.put_usize(p.dir);
        }
        for slot in &self.last_commit_at {
            w.put_opt_u64(*slot);
        }
        self.stats.save_ckpt(w);
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.get_usize()?;
        if n != self.waiting_on.len() {
            return Err(CkptError::Corrupt(format!(
                "oracle subscriptions for {n} processors restored into a machine with {}",
                self.waiting_on.len()
            )));
        }
        for slot in &mut self.waiting_on {
            *slot = r.get_opt_usize()?;
        }
        for dir in &mut self.gate_dir {
            *dir = r.get_usize()?;
        }
        let pending = r.get_usize()?;
        self.pending.clear();
        for _ in 0..pending {
            let at = r.get_cycle()?;
            let committer = r.get_usize()?;
            let victim = r.get_usize()?;
            let dir = r.get_usize()?;
            self.pending.push(PendingWake {
                at,
                committer,
                victim,
                dir,
            });
        }
        for slot in &mut self.last_commit_at {
            *slot = r.get_opt_u64()?;
        }
        self.stats = GatingStats::load_ckpt(r)?;
        Ok(())
    }
}

impl PolicyHook for OracleHook {
    fn gating_stats(&self) -> Option<GatingStats> {
        Some(self.stats)
    }

    fn uncore_charges(&self) -> UncoreCharges {
        // The subscription table is gating hardware (its leakage is
        // charged); the commit channel is idealized — no TxInfoReq
        // round-trips at all, which is exactly what makes the oracle an
        // upper bound rather than a buildable design. The substrate still
        // counts the abort-time round-trip for every `Gate` answer, as for
        // any gating policy.
        UncoreCharges::gating(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(procs: usize, dirs: usize) -> SystemView {
        SystemView::new(procs, dirs)
    }

    #[test]
    fn gates_while_the_aborter_commits_and_wakes_on_its_commit() {
        let mut h = OracleHook::new(4);
        let mut v = view(4, 2);
        v.proc_tx[0] = Some(0x42); // the aborter, mid-commit of 0x42
        assert_eq!(h.on_abort(1, 2, 0, 0x42, 100, &v), AbortAction::Gate);
        assert_eq!(h.stats().gatings, 1);
        // Nothing happens while the aborter is still committing.
        assert_eq!(h.next_deadline(101), None);
        let mut out = Vec::new();
        h.on_tick(101, &v, &mut out);
        assert!(out.is_empty());
        // The aborter commits: the wake is scheduled and delivered at the
        // next tick.
        h.on_commit(0, 150);
        assert_eq!(h.next_deadline(151), Some(151));
        h.on_tick(151, &v, &mut out);
        assert_eq!(out, vec![GateCommand::UngateProcessor { proc: 2, dir: 1 }]);
        assert_eq!(h.stats().ungate_aborter_gone, 1);
        assert_eq!(h.next_deadline(152), None, "queue drained");
    }

    #[test]
    fn stale_aborts_retry_instead_of_gating_forever() {
        let mut h = OracleHook::new(4);
        let mut v = view(4, 1);
        // The aborter has moved on to a different transaction.
        v.proc_tx[0] = Some(0x99);
        assert_eq!(
            h.on_abort(0, 2, 0, 0x42, 100, &v),
            AbortAction::Retry { backoff: 0 }
        );
        // The aborter is itself gated (its flush is long over).
        v.proc_tx[0] = Some(0x42);
        v.proc_gated[0] = true;
        assert_eq!(
            h.on_abort(0, 2, 0, 0x42, 100, &v),
            AbortAction::Retry { backoff: 0 }
        );
        // The aborter committed earlier in this very cycle: the view still
        // shows the old transaction, but the commit channel knows.
        let mut v = view(4, 1);
        v.proc_tx[0] = Some(0x42);
        h.on_commit(0, 100);
        assert_eq!(
            h.on_abort(0, 2, 0, 0x42, 100, &v),
            AbortAction::Retry { backoff: 0 }
        );
        assert_eq!(h.stats().gatings, 0);
    }

    #[test]
    fn a_later_abort_retargets_the_subscription() {
        let mut h = OracleHook::new(4);
        let mut v = view(4, 2);
        v.proc_tx[0] = Some(0x42);
        v.proc_tx[3] = Some(0x77);
        assert_eq!(h.on_abort(0, 2, 0, 0x42, 100, &v), AbortAction::Gate);
        // While gated, a second invalidation from a different committer
        // re-targets the wait (latest conflictor wins).
        assert_eq!(h.on_abort(1, 2, 3, 0x77, 120, &v), AbortAction::Gate);
        assert_eq!(h.stats().gatings, 1, "one gating episode, re-targeted");
        // The first aborter's commit no longer wakes the victim...
        h.on_commit(0, 150);
        let mut out = Vec::new();
        h.on_tick(151, &v, &mut out);
        assert!(out.is_empty());
        // ...the second one's does.
        h.on_commit(3, 200);
        h.on_tick(201, &v, &mut out);
        assert_eq!(out, vec![GateCommand::UngateProcessor { proc: 2, dir: 1 }]);
    }

    #[test]
    fn simultaneous_commits_wake_all_their_victims_in_order() {
        let mut h = OracleHook::new(4);
        let mut v = view(4, 1);
        v.proc_tx[0] = Some(0x42);
        assert_eq!(h.on_abort(0, 1, 0, 0x42, 10, &v), AbortAction::Gate);
        assert_eq!(h.on_abort(0, 2, 0, 0x42, 11, &v), AbortAction::Gate);
        h.on_commit(0, 50);
        let mut out = Vec::new();
        h.on_tick(51, &v, &mut out);
        assert_eq!(
            out,
            vec![
                GateCommand::UngateProcessor { proc: 1, dir: 0 },
                GateCommand::UngateProcessor { proc: 2, dir: 0 },
            ]
        );
    }

    #[test]
    fn commit_clears_a_leftover_subscription_of_the_committer() {
        // A victim that won its race (it was already committing when the
        // invalidation arrived) keeps running; its stale subscription must
        // not survive its own commit.
        let mut h = OracleHook::new(4);
        let mut v = view(4, 1);
        v.proc_tx[0] = Some(0x42);
        let _ = h.on_abort(0, 2, 0, 0x42, 10, &v);
        h.on_commit(2, 40); // the "victim" commits: subscription dropped
        h.on_commit(0, 50);
        let mut out = Vec::new();
        h.on_tick(51, &v, &mut out);
        assert!(out.is_empty(), "no wake for a processor that committed");
    }
}
