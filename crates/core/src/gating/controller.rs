//! The gating / ungating protocol of Section V, implemented as a
//! [`GatingHook`] plugged into the Scalable-TCC substrate.
//!
//! The controller owns one [`GatingTable`] per directory and drives the
//! protocol of Fig. 2:
//!
//! 1. When a directory aborts a victim on behalf of a committing processor,
//!    the directory logs the aborter, queries the aborter's transaction id
//!    (`TxInfoReq`), sets the abort counter, loads the gating timer with the
//!    window chosen by the contention-management policy and sends
//!    "Stop Clock" to the victim (the hook returns [`AbortAction::Gate`]).
//! 2. When the gating timer expires, the control circuit of Fig. 2(e) checks
//!    whether the aborter is still *marked* (intending to commit) in this
//!    directory and, if so, whether it is still executing the same static
//!    transaction (a second `TxInfoReq`; a clock-gated aborter replies
//!    "null"). If both checks are positive the gating period is *renewed*
//!    with a longer window (Fig. 2(f)); otherwise the victim is sent the
//!    "on" command, wakes up, self-aborts and retries.
//! 3. Abort counters reset when the victim commits; renew counters reset
//!    whenever the abort counter changes; a load/store arriving from a
//!    processor a directory still believes to be OFF clears that stale OFF
//!    bit.
//!
//! Gating decisions are strictly directory-local, exactly as in the paper: a
//! processor may be OFF in one directory's table and ON in another's.

use serde::{Deserialize, Serialize};

use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::{Cycle, DirId, ProcId, ProcSet};
use htm_tcc::hooks::{AbortAction, GateCommand, GatingHook, SystemView};
use htm_tcc::txn::TxId;

use crate::gating::contention::ContentionPolicy;
use crate::gating::table::GatingTable;

/// Timing constants of the gating protocol, derived from the machine
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Cycles the Fig. 2(e) control circuit needs after timer expiry before
    /// its decision takes effect (the high fan-in OR "will take multiple
    /// cycles", which "extends the clock gating period further by a small
    /// amount of time").
    pub ungate_circuit_latency: Cycle,
    /// Round-trip latency of a `TxInfoReq` / reply exchange between the
    /// directory and the committing processor.
    pub txinfo_roundtrip_latency: Cycle,
    /// Whether the renewal check is performed at all. Disabling it is the
    /// "blind timer" ablation: the victim is always woken when the first
    /// window expires.
    pub renew_enabled: bool,
}

impl ControllerConfig {
    /// Derive the protocol costs from a machine configuration.
    #[must_use]
    pub fn from_sim_config(cfg: &htm_sim::config::SimConfig) -> Self {
        Self {
            ungate_circuit_latency: cfg.ungate_circuit_latency,
            // Request + reply control messages, each crossing the bus, plus
            // one directory lookup to fetch the stored Aborter Tx Id.
            txinfo_roundtrip_latency: 2
                * (cfg.bus_control_transfer_cycles() + cfg.bus_arbitration_latency)
                + cfg.directory_latency,
            renew_enabled: true,
        }
    }

    /// Disable the renewal check (ablation).
    #[must_use]
    pub fn without_renewal(mut self) -> Self {
        self.renew_enabled = false;
        self
    }
}

/// Aggregate statistics of the gating controller over one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatingStats {
    /// "Stop Clock" commands issued (aborts that resulted in gating).
    pub gatings: u64,
    /// Gating periods renewed because the aborter was still committing the
    /// same transaction in the gating directory.
    pub renewals: u64,
    /// Wake-ups because the aborter was no longer marked in the directory.
    pub ungate_aborter_gone: u64,
    /// Wake-ups because the aborter had moved on to a different transaction.
    pub ungate_different_tx: u64,
    /// Wake-ups because the aborter itself was clock-gated (null `TxInfoReq`
    /// reply).
    pub ungate_null_reply: u64,
    /// Stale OFF bits reconciled by observing a load/store from the
    /// supposedly-off processor.
    pub stale_off_reconciled: u64,
}

impl GatingStats {
    /// Total "on" commands issued.
    #[must_use]
    pub fn total_ungates(&self) -> u64 {
        self.ungate_aborter_gone + self.ungate_different_tx + self.ungate_null_reply
    }

    /// Serialize the counters into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_u64(self.gatings);
        w.put_u64(self.renewals);
        w.put_u64(self.ungate_aborter_gone);
        w.put_u64(self.ungate_different_tx);
        w.put_u64(self.ungate_null_reply);
        w.put_u64(self.stale_off_reconciled);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            gatings: r.get_u64()?,
            renewals: r.get_u64()?,
            ungate_aborter_gone: r.get_u64()?,
            ungate_different_tx: r.get_u64()?,
            ungate_null_reply: r.get_u64()?,
            stale_off_reconciled: r.get_u64()?,
        })
    }
}

/// The clock-gate-on-abort controller (the paper's proposal).
pub struct ClockGateController {
    tables: Vec<GatingTable>,
    policy: Box<dyn ContentionPolicy>,
    config: ControllerConfig,
    stats: GatingStats,
    /// Per-directory lower bound on the earliest gating-timer expiry in that
    /// directory's table, so `next_deadline` never misses an expiry without
    /// scanning every entry. Maintained as a *lower* bound only (new timers
    /// merge in eagerly; wake-ups may leave a slot stale-early, which merely
    /// costs one extra no-op scan of that table, never a missed one); a scan
    /// recomputes its own directory's slot exactly.
    pending_min: Vec<Option<Cycle>>,
    /// The minimum over `pending_min`, so `next_deadline` is O(1) on every
    /// fast-forward plan. Lowered by `on_abort` (the only other writer of a
    /// slot) and recomputed after every scan and on restore. Derived, so it
    /// is never serialized.
    pending_floor: Option<Cycle>,
    /// Per-victim list of the directories whose entry for that victim is
    /// logged (`off || abort_count > 0`), in no particular order and without
    /// duplicates, so `on_wake` and `on_commit` touch only those entries
    /// instead of one entry in every table. Exact: every other entry is
    /// clean, and waking or resetting a clean entry is a no-op. Derived from
    /// the tables, so it is rebuilt on restore and never serialized.
    logged: Vec<Vec<DirId>>,
    /// Per-directory set of the processors whose entry is OFF, so `tick_dir`
    /// visits only entries that can hold a running timer. Derived like
    /// `logged`.
    off: Vec<ProcSet>,
}

impl std::fmt::Debug for ClockGateController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClockGateController")
            .field("dirs", &self.tables.len())
            .field("policy", &self.policy.name())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

impl ClockGateController {
    /// Create a controller for `num_dirs` directories and `num_procs`
    /// processors, using `policy` to size gating windows.
    #[must_use]
    pub fn new(
        num_dirs: usize,
        num_procs: usize,
        policy: Box<dyn ContentionPolicy>,
        config: ControllerConfig,
    ) -> Self {
        Self {
            tables: (0..num_dirs).map(|_| GatingTable::new(num_procs)).collect(),
            policy,
            config,
            stats: GatingStats::default(),
            pending_min: vec![None; num_dirs],
            pending_floor: None,
            logged: vec![Vec::new(); num_procs],
            off: vec![ProcSet::empty(); num_dirs],
        }
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> GatingStats {
        self.stats
    }

    /// The gating table of directory `dir` (for inspection / tests).
    #[must_use]
    pub fn table(&self, dir: DirId) -> &GatingTable {
        &self.tables[dir]
    }

    /// Name of the contention policy in use.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The protocol-timing configuration this controller runs under.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Scan one directory's OFF entries at `now`, in processor-id order:
    /// process every expired gating timer (renew, or push a wake command
    /// into `out`) and recompute the directory's `pending_min` slot exactly.
    /// Callers gate on the slot being due, so a scan that finds nothing
    /// expired only happens to heal a stale-early bound.
    fn tick_dir(&mut self, dir: DirId, now: Cycle, view: &SystemView, out: &mut Vec<GateCommand>) {
        let mut next_min: Option<Cycle> = None;
        let mut merge_min = |expires: Cycle| {
            next_min = Some(next_min.map_or(expires, |m: Cycle| m.min(expires)));
        };
        for proc in self.off[dir] {
            let circuit = self.config.ungate_circuit_latency;
            let entry = self.tables[dir].entry_mut(proc);
            if !entry.timer_expired(now) {
                merge_min(entry.timer_expires);
                continue;
            }
            // Fig. 2(e): OR the marked processor ids and compare with the
            // stored aborter id.
            let aborter_present = entry
                .aborter_proc
                .is_some_and(|aborter| view.is_marked(dir, aborter));
            let reason = if !self.config.renew_enabled || !aborter_present {
                if aborter_present {
                    // Only reachable in the blind-timer ablation: the
                    // victim is woken even though its enemy is still
                    // committing here.
                    &mut self.stats.ungate_different_tx
                } else {
                    &mut self.stats.ungate_aborter_gone
                }
            } else {
                // The aborter is still marked here: issue a TxInfoReq and
                // compare its reply with the stored Aborter Tx Id.
                let aborter = entry.aborter_proc.expect("aborter_present implies Some");
                match (view.current_tx(aborter), entry.aborter_tx) {
                    (Some(current), Some(stored)) if current == stored => {
                        // Same transaction still trying to commit: renew.
                        let window =
                            self.policy
                                .window(proc, entry.abort_count, entry.renew_count + 1);
                        entry.renew(now, window + self.config.txinfo_roundtrip_latency + circuit);
                        merge_min(entry.timer_expires);
                        self.stats.renewals += 1;
                        continue;
                    }
                    // Null reply: the aborter has itself been clock-gated.
                    (None, _) => &mut self.stats.ungate_null_reply,
                    // Different transaction (or no stored id): wake up.
                    _ => &mut self.stats.ungate_different_tx,
                }
            };
            *reason += 1;
            self.turn_on(dir, proc);
            out.push(GateCommand::UngateProcessor { proc, dir });
        }
        self.pending_min[dir] = next_min;
    }

    /// Clear `proc`'s OFF bit in directory `dir` (an OFF entry), keeping the
    /// OFF set and the logged lists exact.
    fn turn_on(&mut self, dir: DirId, proc: ProcId) {
        let entry = self.tables[dir].entry_mut(proc);
        entry.turn_on();
        self.off[dir].remove(proc);
        if entry.abort_count == 0 {
            // Reset by a commit while still OFF (the victim was past its
            // validation point when the abort was logged): clean now.
            let list = &mut self.logged[proc];
            let at = list
                .iter()
                .position(|&d| d == dir)
                .expect("an OFF entry is logged");
            list.swap_remove(at);
        }
    }

    /// Rebuild the derived `logged` lists and `off` sets from the tables.
    fn rebuild_index(&mut self) {
        for list in &mut self.logged {
            list.clear();
        }
        for (dir, table) in self.tables.iter().enumerate() {
            let mut off = ProcSet::empty();
            for (proc, entry) in table.iter() {
                if entry.off {
                    off.insert(proc);
                }
                if entry.off || entry.abort_count > 0 {
                    self.logged[proc].push(dir);
                }
            }
            self.off[dir] = off;
        }
    }

    /// The earliest `pending_min` slot: the value `pending_floor` caches.
    fn min_pending(&self) -> Option<Cycle> {
        self.pending_min.iter().filter_map(|m| *m).min()
    }
}

impl GatingHook for ClockGateController {
    fn on_abort(
        &mut self,
        dir: DirId,
        victim: ProcId,
        aborter: ProcId,
        aborter_tx: TxId,
        now: Cycle,
        _view: &SystemView,
    ) -> AbortAction {
        let entry = self.tables[dir].entry(victim);
        let was_off = entry.off;
        if !was_off && entry.abort_count == 0 {
            // A clean entry becomes logged.
            self.logged[victim].push(dir);
        }
        // The directory queries the committing processor for the transaction
        // id with a TxInfoReq (Fig. 2(d)); the victim is already being
        // stopped, so the round trip only delays the availability of the
        // stored id, which we fold into the initial timer.
        let provisional = entry.abort_count + 1;
        let window = self.policy.window(victim, provisional, 0);
        self.tables[dir].entry_mut(victim).record_abort(
            aborter,
            aborter_tx,
            now,
            window + self.config.txinfo_roundtrip_latency,
        );
        self.off[dir].insert(victim);
        if !was_off {
            self.stats.gatings += 1;
            self.policy.on_gated(victim, now);
        }
        // A fresh timer can only pull the earliest expiry forward.
        let expires = self.tables[dir].entry(victim).timer_expires;
        for slot in [&mut self.pending_min[dir], &mut self.pending_floor] {
            *slot = Some(slot.map_or(expires, |m| m.min(expires)));
        }
        AbortAction::Gate
    }

    fn on_tick(&mut self, now: Cycle, view: &SystemView, commands: &mut Vec<GateCommand>) {
        // Scan only the directories whose own lower bound is due; each scan
        // recomputes its directory's slot exactly (stale-early values heal
        // here; see `pending_min`). Skipped directories provably hold no
        // expired timer, so skipping them changes no command and no entry.
        if self.pending_floor.is_none_or(|m| m > now) {
            return;
        }
        for dir in 0..self.tables.len() {
            if self.pending_min[dir].is_some_and(|m| m <= now) {
                self.tick_dir(dir, now, view, commands);
            }
        }
        self.pending_floor = self.min_pending();
    }

    fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
        // The controller acts spontaneously only when a gating timer of an
        // OFF entry expires; between expiries `on_tick` pushes nothing and
        // mutates nothing, so the earliest expiry bounds the fast-forward
        // horizon exactly. Each slot is a lower bound: a stale-early value
        // (after a wake-up cleared the earliest timer) clamps to `now` and
        // costs one no-op scan of that table, which recomputes it exactly.
        self.pending_floor.map(|m| m.max(now))
    }

    fn on_commit(&mut self, proc: ProcId, _now: Cycle) {
        // Only logged entries hold counters to reset; an entry stays logged
        // while it is still OFF.
        let tables = &mut self.tables;
        self.logged[proc].retain(|&dir| {
            let entry = tables[dir].entry_mut(proc);
            entry.reset_on_commit();
            entry.off
        });
    }

    fn on_wake(&mut self, proc: ProcId, now: Cycle) {
        // The processor is running again; every directory that still believes
        // it is OFF will reconcile lazily (on_proc_activity) or has already
        // turned it on. Clearing the local timers here prevents spurious
        // duplicate "on" commands from other directories. Every OFF entry
        // is logged; an entry stays logged while it keeps an abort count.
        self.policy.on_wake(proc, now);
        let (tables, off) = (&mut self.tables, &mut self.off);
        self.logged[proc].retain(|&dir| {
            let entry = tables[dir].entry_mut(proc);
            entry.turn_on();
            off[dir].remove(proc);
            entry.abort_count > 0
        });
    }

    fn on_proc_activity(&mut self, proc: ProcId, dir: DirId, _now: Cycle) {
        if self.off[dir].contains(proc) {
            self.turn_on(dir, proc);
            self.stats.stale_off_reconciled += 1;
        }
    }

    fn snapshot(&self, w: &mut CkptWriter) {
        w.put_usize(self.tables.len());
        for table in &self.tables {
            table.save_ckpt(w);
        }
        self.stats.save_ckpt(w);
        for slot in &self.pending_min {
            w.put_opt_u64(*slot);
        }
        // The contention policy serializes last so the controller's framing
        // stays fixed whatever the policy writes (possibly nothing).
        self.policy.snapshot(w);
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.get_usize()?;
        if n != self.tables.len() {
            return Err(CkptError::Corrupt(format!(
                "gating controller for {n} directories restored into a machine with {}",
                self.tables.len()
            )));
        }
        for table in &mut self.tables {
            table.restore_ckpt(r)?;
        }
        self.stats = GatingStats::load_ckpt(r)?;
        for slot in &mut self.pending_min {
            *slot = r.get_opt_u64()?;
        }
        self.pending_floor = self.min_pending();
        self.rebuild_index();
        self.policy.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::contention::GatingAwarePolicy;

    fn controller(dirs: usize, procs: usize, w0: u64) -> ClockGateController {
        ClockGateController::new(
            dirs,
            procs,
            Box::new(GatingAwarePolicy::new(w0)),
            ControllerConfig {
                ungate_circuit_latency: 4,
                txinfo_roundtrip_latency: 10,
                renew_enabled: true,
            },
        )
    }

    fn view(procs: usize, dirs: usize) -> SystemView {
        SystemView::new(procs, dirs)
    }

    /// Test shim for the scratch-buffer `on_tick` signature.
    fn tick(c: &mut ClockGateController, now: Cycle, v: &SystemView) -> Vec<GateCommand> {
        let mut out = Vec::new();
        c.on_tick(now, v, &mut out);
        out
    }

    #[test]
    fn abort_gates_the_victim_and_logs_the_entry() {
        let mut c = controller(2, 4, 8);
        let v = view(4, 2);
        let action = c.on_abort(1, 2, 0, 0x400, 100, &v);
        assert_eq!(action, AbortAction::Gate);
        let entry = c.table(1).entry(2);
        assert!(entry.off);
        assert_eq!(entry.aborter_proc, Some(0));
        assert_eq!(entry.aborter_tx, Some(0x400));
        assert_eq!(entry.abort_count, 1);
        // Window = W0*(1+1) = 16 plus the TxInfoReq round trip.
        assert_eq!(entry.timer_expires, 100 + 16 + 10);
        assert_eq!(c.stats().gatings, 1);
    }

    #[test]
    fn timer_expiry_with_aborter_gone_ungates() {
        let mut c = controller(1, 4, 8);
        let mut v = view(4, 1);
        c.on_abort(0, 2, 0, 0x400, 0, &v);
        // Aborter (proc 0) is NOT marked in the directory.
        v.dir_marked[0] = htm_sim::ProcSet::empty();
        let expiry = c.table(0).entry(2).timer_expires;
        assert!(tick(&mut c, expiry - 1, &v).is_empty(), "not yet expired");
        let cmds = tick(&mut c, expiry, &v);
        assert_eq!(cmds, vec![GateCommand::UngateProcessor { proc: 2, dir: 0 }]);
        assert!(!c.table(0).entry(2).off);
        assert_eq!(c.stats().ungate_aborter_gone, 1);
        // Nothing further happens on the next tick.
        assert!(tick(&mut c, expiry + 1, &v).is_empty());
    }

    #[test]
    fn timer_expiry_with_same_transaction_renews() {
        let mut c = controller(1, 4, 8);
        let mut v = view(4, 1);
        c.on_abort(0, 2, 0, 0x400, 0, &v);
        // Aborter still marked and still executing the same transaction.
        v.dir_marked[0] = htm_sim::ProcSet::from_bits(1);
        v.proc_tx[0] = Some(0x400);
        let expiry = c.table(0).entry(2).timer_expires;
        let cmds = tick(&mut c, expiry, &v);
        assert!(cmds.is_empty(), "renewal must not wake the victim");
        let entry = c.table(0).entry(2);
        assert!(entry.off);
        assert_eq!(entry.renew_count, 1);
        assert!(entry.timer_expires > expiry);
        assert_eq!(c.stats().renewals, 1);
    }

    #[test]
    fn renewal_windows_grow_with_the_renew_count() {
        let mut c = controller(1, 2, 8);
        let mut v = view(2, 1);
        c.on_abort(0, 1, 0, 0x77, 0, &v);
        v.dir_marked[0] = htm_sim::ProcSet::from_bits(1);
        v.proc_tx[0] = Some(0x77);
        let mut last_window = 0;
        let mut last_expiry = c.table(0).entry(1).timer_expires;
        for _ in 0..4 {
            let cmds = tick(&mut c, last_expiry, &v);
            assert!(cmds.is_empty());
            let e = c.table(0).entry(1);
            let window = e.timer_expires - last_expiry;
            assert!(
                window >= last_window,
                "windows must not shrink across renewals"
            );
            last_window = window;
            last_expiry = e.timer_expires;
        }
        assert_eq!(c.stats().renewals, 4);
    }

    #[test]
    fn timer_expiry_with_different_transaction_ungates() {
        let mut c = controller(1, 4, 8);
        let mut v = view(4, 1);
        c.on_abort(0, 2, 0, 0x400, 0, &v);
        v.dir_marked[0] = htm_sim::ProcSet::from_bits(1);
        v.proc_tx[0] = Some(0x999); // the aborter moved on
        let expiry = c.table(0).entry(2).timer_expires;
        let cmds = tick(&mut c, expiry, &v);
        assert_eq!(cmds.len(), 1);
        assert_eq!(c.stats().ungate_different_tx, 1);
    }

    #[test]
    fn null_txinfo_reply_ungates() {
        let mut c = controller(1, 4, 8);
        let mut v = view(4, 1);
        c.on_abort(0, 2, 0, 0x400, 0, &v);
        v.dir_marked[0] = htm_sim::ProcSet::from_bits(1);
        v.proc_tx[0] = Some(0x400);
        v.proc_gated[0] = true; // the aborter itself has been gated
        let expiry = c.table(0).entry(2).timer_expires;
        let cmds = tick(&mut c, expiry, &v);
        assert_eq!(cmds.len(), 1);
        assert_eq!(c.stats().ungate_null_reply, 1);
    }

    #[test]
    fn blind_timer_ablation_never_renews() {
        let mut c = ClockGateController::new(
            1,
            2,
            Box::new(GatingAwarePolicy::new(8)),
            ControllerConfig {
                ungate_circuit_latency: 0,
                txinfo_roundtrip_latency: 0,
                renew_enabled: false,
            },
        );
        let mut v = view(2, 1);
        c.on_abort(0, 1, 0, 0x42, 0, &v);
        v.dir_marked[0] = htm_sim::ProcSet::from_bits(1);
        v.proc_tx[0] = Some(0x42);
        let expiry = c.table(0).entry(1).timer_expires;
        let cmds = tick(&mut c, expiry, &v);
        assert_eq!(
            cmds.len(),
            1,
            "ablation wakes the victim even though the aborter is present"
        );
        assert_eq!(c.stats().renewals, 0);
    }

    #[test]
    fn commit_resets_abort_counters_everywhere() {
        let mut c = controller(2, 4, 8);
        let v = view(4, 2);
        c.on_abort(0, 2, 0, 1, 0, &v);
        c.on_abort(1, 2, 3, 1, 0, &v);
        c.on_commit(2, 50);
        assert_eq!(c.table(0).entry(2).abort_count, 0);
        assert_eq!(c.table(1).entry(2).abort_count, 0);
    }

    #[test]
    fn repeated_aborts_escalate_the_window() {
        let mut c = controller(1, 2, 8);
        let v = view(2, 1);
        c.on_abort(0, 1, 0, 1, 0, &v);
        let w1 = c.table(0).entry(1).timer_expires;
        // Victim woke up, retried, got aborted again.
        c.on_wake(1, w1);
        c.on_abort(0, 1, 0, 1, 1000, &v);
        let w2 = c.table(0).entry(1).timer_expires - 1000;
        assert!(
            w2 >= w1,
            "the second abort must not get a shorter window (w1={w1} w2={w2})"
        );
        assert_eq!(c.table(0).entry(1).abort_count, 2);
    }

    #[test]
    fn stale_off_bit_reconciled_on_activity() {
        let mut c = controller(2, 2, 8);
        let v = view(2, 2);
        c.on_abort(0, 1, 0, 1, 0, &v);
        c.on_abort(1, 1, 0, 1, 0, &v);
        // Directory 0 wakes it (simulated via on_wake); directory 1 still has
        // a stale OFF bit until the processor touches it.
        c.on_wake(1, 10);
        assert!(!c.table(1).entry(1).off, "on_wake clears local OFF state");
        // Re-gate only in directory 1, then observe activity there.
        c.on_abort(1, 1, 0, 1, 20, &v);
        assert!(c.table(1).entry(1).off);
        c.on_proc_activity(1, 1, 30);
        assert!(!c.table(1).entry(1).off);
        assert_eq!(c.stats().stale_off_reconciled, 1);
    }

    #[test]
    fn next_deadline_is_the_earliest_pending_expiry() {
        let mut c = controller(3, 4, 8);
        let mut v = view(4, 3);
        assert_eq!(c.next_deadline(0), None, "no timer, no deadline");
        c.on_abort(2, 1, 0, 0x400, 50, &v);
        c.on_abort(0, 3, 0, 0x400, 10, &v);
        let first = c.table(0).entry(3).timer_expires;
        let second = c.table(2).entry(1).timer_expires;
        assert!(first < second);
        assert_eq!(c.next_deadline(0), Some(first));
        assert_eq!(c.next_deadline(first + 5), Some(first + 5), "due now");
        // The aborter is gone, so directory 0's timer wakes its victim; the
        // deadline moves on to directory 2's timer.
        v.dir_marked[0] = htm_sim::ProcSet::empty();
        assert_eq!(tick(&mut c, first, &v).len(), 1);
        assert_eq!(c.next_deadline(first), Some(second));
        assert_eq!(tick(&mut c, second, &v).len(), 1);
        assert_eq!(c.next_deadline(second), None);
    }

    #[test]
    fn gating_is_directory_local() {
        let mut c = controller(2, 2, 8);
        let v = view(2, 2);
        c.on_abort(0, 1, 0, 1, 0, &v);
        assert!(c.table(0).entry(1).off);
        assert!(
            !c.table(1).entry(1).off,
            "the other directory keeps its own view"
        );
    }

    impl ClockGateController {
        /// The directories logged for `victim`, sorted (list order is not
        /// observable).
        fn logged_dirs(&self, victim: ProcId) -> Vec<DirId> {
            let mut dirs = self.logged[victim].clone();
            dirs.sort_unstable();
            dirs
        }

        /// Assert that the derived lists and OFF sets match the tables.
        fn check_index(&self) {
            for (proc, list) in self.logged.iter().enumerate() {
                let expect: Vec<DirId> = (0..self.tables.len())
                    .filter(|&d| {
                        let e = self.tables[d].entry(proc);
                        e.off || e.abort_count > 0
                    })
                    .collect();
                assert_eq!(self.logged_dirs(proc), expect, "logged list of {proc}");
                assert_eq!(list.len(), expect.len(), "duplicate in list of {proc}");
            }
            for (dir, table) in self.tables.iter().enumerate() {
                let expect: ProcSet = table
                    .iter()
                    .filter(|(_, e)| e.off)
                    .map(|(p, _)| p)
                    .collect();
                assert_eq!(self.off[dir], expect, "OFF set of directory {dir}");
            }
        }
    }

    /// A controller whose hooks walk every table and every entry: the dense
    /// reference the indexed controller must match.
    struct DenseController {
        tables: Vec<GatingTable>,
        policy: GatingAwarePolicy,
        config: ControllerConfig,
        stats: GatingStats,
    }

    impl DenseController {
        fn new(dirs: usize, procs: usize, w0: u64) -> Self {
            let c = controller(dirs, procs, w0);
            Self {
                tables: c.tables,
                policy: GatingAwarePolicy::new(w0),
                config: c.config,
                stats: GatingStats::default(),
            }
        }

        fn on_abort(&mut self, dir: DirId, victim: ProcId, aborter: ProcId, tx: TxId, now: Cycle) {
            let entry = self.tables[dir].entry_mut(victim);
            let was_off = entry.off;
            let window = self.policy.window(victim, entry.abort_count + 1, 0);
            entry.record_abort(
                aborter,
                tx,
                now,
                window + self.config.txinfo_roundtrip_latency,
            );
            if !was_off {
                self.stats.gatings += 1;
            }
        }

        fn on_tick(&mut self, now: Cycle, view: &SystemView) -> Vec<GateCommand> {
            let mut out = Vec::new();
            for (dir, table) in self.tables.iter_mut().enumerate() {
                for proc in 0..view.proc_tx.len() {
                    let entry = table.entry_mut(proc);
                    if !entry.timer_expired(now) {
                        continue;
                    }
                    let aborter_present = entry
                        .aborter_proc
                        .is_some_and(|aborter| view.is_marked(dir, aborter));
                    if !aborter_present {
                        self.stats.ungate_aborter_gone += 1;
                    } else if !self.config.renew_enabled {
                        self.stats.ungate_different_tx += 1;
                    } else {
                        let reply = view.current_tx(entry.aborter_proc.unwrap());
                        match (reply, entry.aborter_tx) {
                            (Some(current), Some(stored)) if current == stored => {
                                let window = self.policy.window(
                                    proc,
                                    entry.abort_count,
                                    entry.renew_count + 1,
                                );
                                entry.renew(
                                    now,
                                    window
                                        + self.config.txinfo_roundtrip_latency
                                        + self.config.ungate_circuit_latency,
                                );
                                self.stats.renewals += 1;
                                continue;
                            }
                            (None, _) => self.stats.ungate_null_reply += 1,
                            _ => self.stats.ungate_different_tx += 1,
                        }
                    }
                    entry.turn_on();
                    out.push(GateCommand::UngateProcessor { proc, dir });
                }
            }
            out
        }

        fn on_commit(&mut self, proc: ProcId) {
            for table in &mut self.tables {
                table.entry_mut(proc).reset_on_commit();
            }
        }

        fn on_wake(&mut self, proc: ProcId) {
            for table in &mut self.tables {
                table.entry_mut(proc).turn_on();
            }
        }

        fn on_proc_activity(&mut self, proc: ProcId, dir: DirId) {
            let entry = self.tables[dir].entry_mut(proc);
            if entry.off {
                entry.turn_on();
                self.stats.stale_off_reconciled += 1;
            }
        }
    }

    fn assert_matches_dense(c: &ClockGateController, dense: &DenseController, context: &str) {
        assert_eq!(c.tables, dense.tables, "{context}: tables");
        assert_eq!(c.stats, dense.stats, "{context}: stats");
        c.check_index();
    }

    /// xorshift64: a tiny deterministic generator for the op sequences.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// Drive `c` and `dense` through the same seeded random sequence of
    /// hook calls, checking them against each other after every call.
    fn random_ops(c: &mut ClockGateController, dense: &mut DenseController, seed: u64, ops: usize) {
        let (dirs, procs) = (c.tables.len(), c.logged.len());
        let mut rng = Rng(seed);
        let mut v = view(procs, dirs);
        let mut now = 0;
        for op in 0..ops {
            now += rng.below(6);
            let proc = rng.below(procs as u64) as usize;
            let dir = rng.below(dirs as u64) as usize;
            match rng.below(10) {
                0..=2 => {
                    let aborter = rng.below(procs as u64) as usize;
                    let tx = rng.below(3);
                    c.on_abort(dir, proc, aborter, tx, now, &v);
                    dense.on_abort(dir, proc, aborter, tx, now);
                }
                3..=5 => {
                    // Reshuffle what the Fig. 2(e) circuit sees, so ticks
                    // take every renew and wake branch.
                    for d in 0..dirs {
                        v.dir_marked[d] = ProcSet::from_bits(rng.below(1 << procs));
                    }
                    for p in 0..procs {
                        v.proc_tx[p] = Some(rng.below(3)).filter(|_| rng.below(4) > 0);
                        v.proc_gated[p] = rng.below(5) == 0;
                    }
                    assert_eq!(
                        tick(c, now, &v),
                        dense.on_tick(now, &v),
                        "op {op}: commands"
                    );
                }
                6 => {
                    c.on_commit(proc, now);
                    dense.on_commit(proc);
                }
                7 | 8 => {
                    c.on_wake(proc, now);
                    dense.on_wake(proc);
                }
                _ => {
                    c.on_proc_activity(proc, dir, now);
                    dense.on_proc_activity(proc, dir);
                }
            }
            assert_matches_dense(c, dense, &format!("seed {seed} op {op}"));
        }
    }

    #[test]
    fn reset_but_still_off_entry_is_logged_once() {
        // A victim past its validation point is aborted (the entry is
        // logged and OFF), commits anyway (counters reset, still OFF), is
        // turned on by its timer and then aborted again.
        for reconcile_by_activity in [false, true] {
            let mut c = controller(2, 4, 8);
            let mut dense = DenseController::new(2, 4, 8);
            let v = view(4, 2);
            c.on_abort(1, 2, 0, 0x400, 0, &v);
            dense.on_abort(1, 2, 0, 0x400, 0);
            c.on_commit(2, 5);
            dense.on_commit(2);
            assert_eq!(c.logged_dirs(2), vec![1], "still OFF, so still logged");
            assert_matches_dense(&c, &dense, "after the commit");
            if reconcile_by_activity {
                c.on_proc_activity(2, 1, 6);
                dense.on_proc_activity(2, 1);
            } else {
                let expiry = c.table(1).entry(2).timer_expires;
                assert_eq!(tick(&mut c, expiry, &v), dense.on_tick(expiry, &v));
                assert_eq!(tick(&mut c, expiry, &v).len(), 0);
            }
            assert!(!c.table(1).entry(2).off);
            assert_matches_dense(&c, &dense, "after the wake");
            c.on_abort(1, 2, 3, 0x500, 200, &v);
            dense.on_abort(1, 2, 3, 0x500, 200);
            assert_eq!(c.logged[2], vec![1], "exactly one list entry");
            assert_matches_dense(&c, &dense, "after the re-abort");
        }
    }

    #[test]
    fn random_hook_sequences_match_the_dense_controller() {
        for seed in [1, 2, 3, 0x5eed_cafe] {
            let mut c = controller(8, 8, 4);
            let mut dense = DenseController::new(8, 8, 4);
            random_ops(&mut c, &mut dense, seed, 4000);
            let stats = dense.stats;
            assert!(
                stats.renewals > 0
                    && stats.ungate_aborter_gone > 0
                    && stats.ungate_different_tx > 0
                    && stats.ungate_null_reply > 0
                    && stats.stale_off_reconciled > 0,
                "seed {seed}: every branch must be taken: {stats:?}"
            );
        }
    }

    #[test]
    fn restore_rebuilds_the_derived_state_from_the_tables() {
        let mut c = controller(8, 8, 4);
        let mut dense = DenseController::new(8, 8, 4);
        random_ops(&mut c, &mut dense, 7, 500);
        assert!(
            c.off.iter().any(|set| !set.is_empty()),
            "the sequence must leave entries OFF"
        );
        let mut w = CkptWriter::new();
        c.snapshot(&mut w);
        let payload = w.into_payload();
        let mut restored = controller(8, 8, 4);
        restored.restore(&mut CkptReader::new(&payload)).unwrap();
        for proc in 0..8 {
            assert_eq!(restored.logged_dirs(proc), c.logged_dirs(proc));
        }
        assert_eq!(restored.off, c.off);
        restored.check_index();
        assert_eq!(restored.next_deadline(0), c.next_deadline(0));
        assert!(restored.next_deadline(0).is_some());
        let mut again = CkptWriter::new();
        restored.snapshot(&mut again);
        assert_eq!(
            again.into_payload(),
            payload,
            "the floor, lists and OFF sets are not serialized"
        );
        // The restored controller carries on exactly like the live one.
        random_ops(&mut restored, &mut dense, 8, 500);
    }

    #[test]
    fn wake_and_commit_touch_only_the_logged_entries() {
        // The cost pin: on 1024 directories a victim with one logged abort
        // is woken and reset through a one-entry list, not 1024 tables.
        let mut c = controller(1024, 4, 8);
        let v = view(4, 1024);
        c.on_abort(517, 3, 0, 0x400, 0, &v);
        assert_eq!(c.logged[3].len(), 1, "on_wake walks one entry");
        c.on_wake(3, 40);
        assert!(!c.table(517).entry(3).off);
        assert_eq!(c.logged[3].len(), 1, "on_commit walks one entry");
        c.on_commit(3, 90);
        assert_eq!(c.table(517).entry(3).abort_count, 0);
        assert!(c.logged[3].is_empty(), "a committed victim is clean");
        c.check_index();
    }
}
