//! Per-directory commit arbitration.
//!
//! Each directory owns the sharer/owner state of the lines homed at it (from
//! `htm-mem`) plus the commit-time machinery of Scalable TCC:
//!
//! * the **Marked** bits — processors that have obtained a TID and announced
//!   that they will commit lines homed here (the paper's Fig. 2(e) circuit
//!   OR-reduces exactly these bits),
//! * the **grant** logic — commits are serviced one at a time per directory,
//!   oldest TID first, which is what makes a younger committer "spin at the
//!   commit instruction" while an older one occupies the directory,
//! * the **service port** used to model the 10-cycle directory occupancy of
//!   miss requests.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use htm_mem::Directory;
use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::port::SinglePortResource;
use htm_sim::{Cycle, ProcBits, ProcId};

use crate::token::Tid;

/// Commit-related event counters for one directory.
///
/// Every counter is a deterministic function of the protocol transitions, so
/// the tallies are identical under both stepping engines and feed the
/// per-component energy ledger (directory SRAM lookups, gating-table
/// `TxInfoReq` traffic) without perturbing the simulation itself.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirCtrlStats {
    /// Commit requests marked at this directory.
    pub marks: u64,
    /// Commit grants issued.
    pub grants: u64,
    /// Total cycles the directory spent busy flushing commits.
    pub commit_busy_cycles: u64,
    /// Miss requests serviced by the directory SRAM (one lookup each).
    pub miss_lookups: u64,
    /// `TxInfoReq` round-trips issued by this directory at abort time
    /// (Fig. 2(d)): the directory queries the committing processor for the
    /// transaction id it stores next to the victim's abort counter. The
    /// renewal-time `TxInfoReq`s of Fig. 2(e) are counted by the gating
    /// controller (they only exist in clock-gating modes).
    pub txinfo_roundtrips: u64,
}

impl DirCtrlStats {
    /// Total directory SRAM lookups: miss services, mark writes and commit
    /// grants all read or write the sharer/state arrays once.
    #[must_use]
    pub fn sram_lookups(&self) -> u64 {
        self.miss_lookups + self.marks + self.grants
    }

    /// Serialize into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_u64(self.marks);
        w.put_u64(self.grants);
        w.put_u64(self.commit_busy_cycles);
        w.put_u64(self.miss_lookups);
        w.put_u64(self.txinfo_roundtrips);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            marks: r.get_u64()?,
            grants: r.get_u64()?,
            commit_busy_cycles: r.get_u64()?,
            miss_lookups: r.get_u64()?,
            txinfo_roundtrips: r.get_u64()?,
        })
    }
}

/// One directory of the distributed shared memory, with commit arbitration.
/// Its sharer and marked sets are `W` words wide
/// ([`htm_sim::proc_set_words`]).
#[derive(Debug, Clone)]
pub struct DirCtrl<const W: usize> {
    /// Sharer / owner tracking (substrate).
    pub directory: Directory<W>,
    /// Occupancy model for miss servicing.
    port: SinglePortResource,
    /// Processors that intend to commit here, keyed by TID (oldest first).
    marked: BTreeMap<Tid, ProcId>,
    /// Cached OR of the marked processors' bits, maintained on every
    /// mark/unmark. The per-cycle view refresh reads this constantly, so it
    /// must not re-fold the map each time.
    marked_bits: ProcBits<W>,
    /// The processor currently granted the directory for commit, and the
    /// cycle at which it will release it.
    busy: Option<(ProcId, Cycle)>,
    stats: DirCtrlStats,
}

impl<const W: usize> DirCtrl<W> {
    /// Create directory `id` for `num_procs` processors with the given
    /// service latency (Table II: 10 cycles).
    #[must_use]
    pub fn new(id: usize, num_procs: usize, service_latency: u64) -> Self {
        Self {
            directory: Directory::new(id, num_procs),
            port: SinglePortResource::new(service_latency),
            marked: BTreeMap::new(),
            marked_bits: ProcBits::empty(),
            busy: None,
            stats: DirCtrlStats::default(),
        }
    }

    /// Directory identifier.
    #[must_use]
    pub fn id(&self) -> usize {
        self.directory.id()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DirCtrlStats {
        self.stats
    }

    /// Service a miss request arriving at `now`; returns the cycle at which
    /// the directory lookup completes (before main memory is consulted).
    pub fn service_miss(&mut self, now: Cycle) -> Cycle {
        self.stats.miss_lookups += 1;
        self.port.access(now)
    }

    /// Record one abort-time `TxInfoReq` round-trip issued by this directory
    /// (Fig. 2(d); called by the system when an abort is handled by gating).
    pub fn record_txinfo_roundtrip(&mut self) {
        self.stats.txinfo_roundtrips += 1;
    }

    /// Mark `proc` (with commit timestamp `tid`) as intending to commit here.
    pub fn mark(&mut self, tid: Tid, proc: ProcId) {
        self.marked.insert(tid, proc);
        self.marked_bits.insert(proc);
        self.stats.marks += 1;
    }

    /// Remove `proc`'s mark (after it finished committing here or aborted
    /// before committing). `tid` is the processor's current TID, the key its
    /// mark was entered under, so the removal is one O(log marked) lookup.
    /// A processor that is not marked here is a no-op.
    pub fn unmark(&mut self, tid: Tid, proc: ProcId) {
        if !self.marked_bits.contains(proc) {
            return;
        }
        match self.marked.entry(tid) {
            Entry::Occupied(e) if *e.get() == proc => {
                e.remove();
            }
            // A mark under another TID only comes from a hand-made
            // checkpoint; fall back to the scan rather than leave the
            // cached bits disagreeing with the table.
            _ => self.marked.retain(|_, &mut p| p != proc),
        }
        self.marked_bits.remove(proc);
    }

    /// Whether `proc` currently has its Marked bit set here.
    #[must_use]
    pub fn is_marked(&self, proc: ProcId) -> bool {
        self.marked_bits.contains(proc)
    }

    /// Bit vector of marked processors (for the [`crate::hooks::SystemView`]).
    #[must_use]
    pub fn marked_bits(&self) -> ProcBits<W> {
        self.marked_bits
    }

    /// The oldest (lowest-TID) marked processor, if any.
    #[must_use]
    pub fn oldest_marked(&self) -> Option<(Tid, ProcId)> {
        self.marked.iter().next().map(|(&tid, &proc)| (tid, proc))
    }

    /// Whether `proc` (holding `tid`) would be granted the directory at `now`:
    /// the directory must be idle and `proc` must be the oldest-TID processor
    /// currently marked here. Does not reserve anything, and leaves an
    /// expired occupancy in place (it reads as idle; see
    /// [`Self::release_expired`]), so both engines see the same state.
    #[must_use]
    pub fn would_grant(&self, proc: ProcId, tid: Tid, now: Cycle) -> bool {
        if matches!(self.busy, Some((_, until)) if until > now) {
            return false;
        }
        matches!(self.oldest_marked(), Some((t, p)) if p == proc && t == tid)
    }

    /// Cycle at which the current commit occupancy releases the directory, if
    /// it is still held after `now`. The only directory deadline the
    /// fast-forward engine needs: it bounds how long a commit spinner whose
    /// step directory this is can be left unprobed. The miss port is
    /// demand-driven and has no deadline.
    #[must_use]
    pub fn busy_release(&self, now: Cycle) -> Option<Cycle> {
        self.busy
            .and_then(|(_, until)| (until > now).then_some(until))
    }

    /// Forget an occupancy that has expired by `now`. It already reads as
    /// idle, so this changes no answer; the checkpoint writer calls it so
    /// that a payload does not depend on when the expiry was last looked at.
    pub fn release_expired(&mut self, now: Cycle) {
        if matches!(self.busy, Some((_, until)) if until <= now) {
            self.busy = None;
        }
    }

    /// Reserve the directory for `proc` until `release_at` (the caller has
    /// already checked [`Self::would_grant`] and computed the flush time).
    pub fn occupy(&mut self, proc: ProcId, now: Cycle, release_at: Cycle) {
        self.busy = Some((proc, release_at));
        self.stats.grants += 1;
        self.stats.commit_busy_cycles += release_at.saturating_sub(now);
    }

    /// Attempt to grant the directory to `proc` (holding `tid`) at `now`.
    ///
    /// The grant succeeds iff the directory is idle and `proc` is the
    /// oldest-TID processor currently marked here. On success the directory
    /// is reserved until `release_at`.
    pub fn try_grant(&mut self, proc: ProcId, tid: Tid, now: Cycle, release_at: Cycle) -> bool {
        if self.would_grant(proc, tid, now) {
            self.occupy(proc, now, release_at);
            true
        } else {
            false
        }
    }

    /// The processor last granted the directory, if its occupancy has not
    /// been dropped (ignores expiry; callers use [`Self::busy_release`] for
    /// timing decisions).
    #[must_use]
    pub fn current_committer(&self) -> Option<ProcId> {
        self.busy.map(|(p, _)| p)
    }

    /// Serialize the full controller state (directory substrate, miss port,
    /// marked table, commit occupancy, stats) into a checkpoint payload.
    /// The marked table is written in `BTreeMap` order (ascending TID), which
    /// is already canonical; `marked_bits` is recomputed on load from the
    /// entries, so the cached OR can never drift from the table.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        self.directory.save_ckpt(w);
        self.port.save_ckpt(w);
        w.put_usize(self.marked.len());
        for (&tid, &proc) in &self.marked {
            w.put_u64(tid);
            w.put_usize(proc);
        }
        match self.busy {
            Some((proc, until)) => {
                w.put_bool(true);
                w.put_usize(proc);
                w.put_u64(until);
            }
            None => w.put_bool(false),
        }
        self.stats.save_ckpt(w);
    }

    /// Inverse of [`Self::save_ckpt`]. A marked processor the `W`-word set
    /// cannot hold is reported as a corrupt payload.
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let directory = Directory::load_ckpt(r)?;
        let port = SinglePortResource::load_ckpt(r)?;
        let n = r.get_usize()?;
        let mut marked = BTreeMap::new();
        let mut marked_bits = ProcBits::empty();
        for _ in 0..n {
            let tid = r.get_u64()?;
            let proc = r.get_usize()?;
            if proc >= ProcBits::<W>::CAPACITY {
                return Err(CkptError::Corrupt(format!(
                    "marked processor id {proc} out of range"
                )));
            }
            if marked.insert(tid, proc).is_some() {
                return Err(CkptError::Corrupt(format!("duplicate marked TID {tid}")));
            }
            marked_bits.insert(proc);
        }
        let busy = if r.get_bool()? {
            let proc = r.get_usize()?;
            let until = r.get_cycle()?;
            Some((proc, until))
        } else {
            None
        };
        Ok(Self {
            directory,
            port,
            marked,
            marked_bits,
            busy,
            stats: DirCtrlStats::load_ckpt(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_oldest_tid_only() {
        let mut d = DirCtrl::<1>::new(0, 4, 10);
        d.mark(5, 2);
        d.mark(3, 1);
        assert!(!d.try_grant(2, 5, 0, 100), "younger TID must wait");
        assert!(d.try_grant(1, 3, 0, 100), "oldest TID gets the directory");
        assert_eq!(d.current_committer(), Some(1));
    }

    #[test]
    fn busy_directory_rejects_grants_until_release() {
        let mut d = DirCtrl::<1>::new(0, 4, 10);
        d.mark(1, 0);
        d.mark(2, 1);
        assert!(d.try_grant(0, 1, 0, 50));
        d.unmark(1, 0);
        assert!(!d.try_grant(1, 2, 10, 60), "still busy");
        assert!(d.try_grant(1, 2, 50, 90), "released at cycle 50");
    }

    #[test]
    fn unmark_removes_processor() {
        let mut d = DirCtrl::<1>::new(0, 4, 10);
        d.mark(7, 3);
        assert!(d.is_marked(3));
        d.unmark(7, 3);
        assert!(!d.is_marked(3));
        assert_eq!(d.oldest_marked(), None);
    }

    #[test]
    fn marked_bits_reflect_all_marked_procs() {
        let mut d = DirCtrl::<1>::new(0, 8, 10);
        d.mark(4, 2);
        d.mark(9, 5);
        assert_eq!(d.marked_bits(), [2usize, 5].into_iter().collect());
    }

    #[test]
    fn narrow_restore_rejects_a_marked_processor_past_the_width() {
        // A 4-processor controller record whose marked table names
        // processor 100, which one-word sets cannot hold.
        let mut w = CkptWriter::new();
        Directory::<1>::new(0, 4).save_ckpt(&mut w);
        SinglePortResource::new(10).save_ckpt(&mut w);
        w.put_usize(1);
        w.put_u64(9);
        w.put_usize(100);
        w.put_bool(false);
        DirCtrlStats::default().save_ckpt(&mut w);
        let payload = w.into_payload();
        let mut r = CkptReader::new(&payload);
        assert!(matches!(
            DirCtrl::<1>::load_ckpt(&mut r),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    fn service_miss_uses_port_occupancy() {
        let mut d = DirCtrl::<1>::new(0, 4, 10);
        assert_eq!(d.service_miss(0), 10);
        assert_eq!(d.service_miss(0), 20);
    }

    #[test]
    fn would_grant_reads_an_expired_occupancy_as_idle_without_mutation() {
        let mut d = DirCtrl::<1>::new(0, 4, 10);
        d.mark(3, 1);
        d.mark(5, 2);
        assert!(d.would_grant(1, 3, 0));
        assert!(!d.would_grant(2, 5, 0), "younger TID must wait");
        assert!(d.try_grant(1, 3, 0, 50));
        assert!(!d.would_grant(2, 5, 10), "directory busy until 50");
        d.unmark(3, 1);
        assert!(
            d.would_grant(2, 5, 50),
            "occupancy expired exactly at its release cycle"
        );
        assert_eq!(
            d.current_committer(),
            Some(1),
            "the answer left it in place"
        );
        d.release_expired(49);
        assert_eq!(d.current_committer(), Some(1), "not expired before 50");
        d.release_expired(50);
        assert_eq!(d.current_committer(), None);
        assert!(d.would_grant(2, 5, 50), "dropping it changes no answer");
    }

    #[test]
    fn out_of_order_unmarks_keep_the_table_and_bits_in_step() {
        let mut d = DirCtrl::<4>::new(0, 256, 10);
        // Processor p marks under TID 1000 - 3p, so ids and TIDs run in
        // opposite orders.
        let procs = [0usize, 7, 63, 64, 130, 200, 255];
        for &p in &procs {
            d.mark(1000 - 3 * p as u64, p);
        }
        let tid = |p: usize| 1000 - 3 * p as u64;
        assert_eq!(d.oldest_marked(), Some((tid(255), 255)));
        // Unmarking a processor that is not marked here is a no-op.
        d.unmark(tid(5), 5);
        assert_eq!(d.marked_bits(), procs.into_iter().collect());
        let mut left: Vec<usize> = procs.to_vec();
        for p in [63usize, 255, 0, 200, 7, 130, 64] {
            d.unmark(tid(p), p);
            left.retain(|&q| q != p);
            assert_eq!(d.marked_bits(), left.iter().copied().collect());
            let oldest = left.iter().max().map(|&q| (tid(q), q));
            assert_eq!(d.oldest_marked(), oldest, "after unmarking {p}");
            assert!(!d.is_marked(p));
        }
        assert_eq!(d.oldest_marked(), None);
        // A mark under a TID the caller no longer holds is still removed.
        d.mark(42, 9);
        d.unmark(43, 9);
        assert!(!d.is_marked(9));
        assert_eq!(d.oldest_marked(), None);
    }

    #[test]
    fn busy_release_reports_the_commit_occupancy_only() {
        let mut d = DirCtrl::<1>::new(0, 4, 10);
        assert_eq!(d.busy_release(0), None, "idle directory has no release");
        d.mark(1, 0);
        assert!(d.try_grant(0, 1, 0, 40));
        assert_eq!(d.busy_release(0), Some(40));
        assert_eq!(d.busy_release(40), None, "released at cycle 40");
        d.service_miss(50);
        assert_eq!(d.busy_release(50), None, "the miss port is demand-driven");
    }

    #[test]
    fn grant_requires_matching_tid() {
        let mut d = DirCtrl::<1>::new(0, 4, 10);
        d.mark(3, 1);
        // Same processor but stale TID is refused.
        assert!(!d.try_grant(1, 4, 0, 10));
        assert!(d.try_grant(1, 3, 0, 10));
    }

    #[test]
    fn stats_count_marks_and_grants() {
        let mut d = DirCtrl::<1>::new(0, 4, 10);
        d.mark(1, 0);
        d.mark(2, 1);
        let _ = d.try_grant(0, 1, 0, 30);
        let s = d.stats();
        assert_eq!(s.marks, 2);
        assert_eq!(s.grants, 1);
        assert_eq!(s.commit_busy_cycles, 30);
    }

    #[test]
    fn stats_count_lookups_and_txinfo_roundtrips() {
        let mut d = DirCtrl::<1>::new(0, 4, 10);
        d.service_miss(0);
        d.service_miss(5);
        d.mark(1, 0);
        let _ = d.try_grant(0, 1, 0, 30);
        d.record_txinfo_roundtrip();
        let s = d.stats();
        assert_eq!(s.miss_lookups, 2);
        assert_eq!(s.txinfo_roundtrips, 1);
        assert_eq!(s.sram_lookups(), 2 + 1 + 1, "misses + marks + grants");
    }
}
