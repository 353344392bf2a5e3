//! Full-bit-vector directory state (sharers and owner per line).
//!
//! The sharer vectors are [`ProcBits<W>`] sets whose width `W` the engine
//! picks per machine ([`htm_sim::proc_set_words`]), so a 4-processor
//! directory keeps 8-byte sharer sets and a 1024-processor one 128-byte sets.
//!
//! Each directory is home to the cache lines that interleave onto it (see
//! [`crate::addr::AddressMap`]). For every line it tracks which processors
//! have speculatively read the line during their *current* transaction (the
//! sharer bit vector of Table II) and which processor, if any, last committed
//! it (the owner, Fig. 2(b)).
//!
//! Sharer bits are *conservative*: they are cleared only when the sharing
//! processor commits or aborts its transaction, never on silent L1 evictions.
//! This matches TCC semantics (a speculative reader must be invalidated even
//! if the line has fallen out of its L1) and keeps the simulated protocol
//! correct without modelling eviction notifications.

use serde::{Deserialize, Serialize};

use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::fxhash::{FxHashMap, FxHashSet};
use htm_sim::{ProcBits, ProcId};

use crate::addr::LineAddr;

/// Per-line directory state.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct LineEntry<const W: usize> {
    /// Bit vector of processors that speculatively read this line.
    sharers: ProcBits<W>,
    /// Processor that last committed (owns) this line.
    owner: Option<ProcId>,
}

/// Event counters for one directory.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectoryStats {
    /// Sharer registrations (speculative loads serviced).
    pub sharer_adds: u64,
    /// Lines committed through this directory.
    pub lines_committed: u64,
    /// Invalidation messages this directory generated.
    pub invalidations_sent: u64,
}

/// Sharer / owner tracking for the lines homed at one directory, with
/// sharer sets `W` words wide.
#[derive(Debug, Clone)]
pub struct Directory<const W: usize> {
    /// Directory identifier (for diagnostics only).
    id: usize,
    /// Maximum number of processors (bounds the bit vector).
    num_procs: usize,
    lines: FxHashMap<LineAddr, LineEntry<W>>,
    /// For fast clearing on commit/abort: the set of lines each processor is
    /// currently registered as sharing here.
    reader_sets: Vec<FxHashSet<LineAddr>>,
    stats: DirectoryStats,
}

impl<const W: usize> Directory<W> {
    /// Create directory `id` for a system of `num_procs` processors.
    ///
    /// # Panics
    /// Panics if `num_procs` exceeds the sharer sets' capacity of `W · 64`
    /// processors.
    #[must_use]
    pub fn new(id: usize, num_procs: usize) -> Self {
        assert!(
            num_procs <= ProcBits::<W>::CAPACITY,
            "full-bit vector limited to {} processors",
            ProcBits::<W>::CAPACITY
        );
        Self {
            id,
            num_procs,
            lines: FxHashMap::default(),
            reader_sets: vec![FxHashSet::default(); num_procs],
            stats: DirectoryStats::default(),
        }
    }

    /// This directory's identifier.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    /// Record that `proc` has speculatively read `line`.
    pub fn add_sharer(&mut self, line: LineAddr, proc: ProcId) {
        assert!(proc < self.num_procs);
        let entry = self.lines.entry(line).or_default();
        if !entry.sharers.contains(proc) {
            entry.sharers.insert(proc);
            self.reader_sets[proc].insert(line);
            self.stats.sharer_adds += 1;
        }
    }

    /// Processors currently registered as sharers of `line`, as a bit-vector
    /// set (allocation-free; iterate it directly on the hot path).
    #[must_use]
    pub fn sharers(&self, line: LineAddr) -> ProcBits<W> {
        self.lines
            .get(&line)
            .map_or(ProcBits::empty(), |e| e.sharers)
    }

    /// Owner of `line`, if it has been committed before.
    #[must_use]
    pub fn owner(&self, line: LineAddr) -> Option<ProcId> {
        self.lines.get(&line).and_then(|e| e.owner)
    }

    /// Number of lines this processor currently shares here.
    #[must_use]
    pub fn shared_line_count(&self, proc: ProcId) -> usize {
        self.reader_sets[proc].len()
    }

    /// Commit `line` on behalf of `committer`: the committer becomes owner and
    /// every *other* sharer must be invalidated (and, if the line is in its
    /// speculative read set, aborted). Returns the processors to invalidate
    /// as a bit-vector set so the hot path never allocates per line.
    pub fn commit_line(&mut self, line: LineAddr, committer: ProcId) -> ProcBits<W> {
        assert!(committer < self.num_procs);
        let entry = self.lines.entry(line).or_default();
        let victims = entry.sharers.without(committer);
        entry.owner = Some(committer);
        // All sharer registrations for this line are consumed: the victims
        // are about to abort (which clears their registrations anyway) and
        // the committer's own registration ends with its transaction.
        let old_sharers = std::mem::take(&mut entry.sharers);
        for proc in old_sharers {
            self.reader_sets[proc].remove(&line);
        }
        self.stats.lines_committed += 1;
        self.stats.invalidations_sent += victims.len() as u64;
        victims
    }

    /// Clear every sharer registration belonging to `proc` (called when that
    /// processor commits or aborts its transaction). The reader set is
    /// drained in place and handed back, so its capacity survives for the
    /// next transaction; clearing bits commutes, so the drain order is
    /// irrelevant.
    pub fn clear_proc(&mut self, proc: ProcId) {
        assert!(proc < self.num_procs);
        let mut lines = std::mem::take(&mut self.reader_sets[proc]);
        for line in lines.drain() {
            if let Some(entry) = self.lines.get_mut(&line) {
                entry.sharers.remove(proc);
            }
        }
        self.reader_sets[proc] = lines;
    }

    /// Total number of lines with any directory state.
    #[must_use]
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }

    /// Serialize the directory state into a checkpoint payload. Hash-map
    /// contents are written in sorted line order: every operation on the maps
    /// is order-commutative, so the sorted rebuild is behaviourally identical
    /// to the original insertion order.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_usize(self.id);
        w.put_usize(self.num_procs);
        let mut lines: Vec<(&LineAddr, &LineEntry<W>)> = self.lines.iter().collect();
        lines.sort_by_key(|(line, _)| line.0);
        w.put_usize(lines.len());
        for (line, entry) in lines {
            w.put_u64(line.0);
            entry.sharers.save_ckpt(w);
            w.put_opt_usize(entry.owner);
        }
        for set in &self.reader_sets {
            let mut members: Vec<u64> = set.iter().map(|l| l.0).collect();
            members.sort_unstable();
            w.put_u64_slice(&members);
        }
        w.put_u64(self.stats.sharer_adds);
        w.put_u64(self.stats.lines_committed);
        w.put_u64(self.stats.invalidations_sent);
    }

    /// Inverse of [`Self::save_ckpt`]. A processor count or sharer the
    /// `W`-word sets cannot hold, or sharer bits and reader sets that do
    /// not name the same `(line, processor)` pairs, are reported as a
    /// corrupt payload.
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let id = r.get_usize()?;
        let num_procs = r.get_usize()?;
        if num_procs > ProcBits::<W>::CAPACITY {
            return Err(CkptError::Corrupt(format!(
                "directory with {num_procs} processors exceeds the bit-vector width"
            )));
        }
        let n = r.get_usize()?;
        let mut lines = FxHashMap::default();
        for _ in 0..n {
            let line = LineAddr(r.get_u64()?);
            let sharers = ProcBits::load_ckpt(r)?;
            let owner = r.get_opt_usize()?;
            lines.insert(line, LineEntry { sharers, owner });
        }
        let mut reader_sets = Vec::with_capacity(num_procs);
        for _ in 0..num_procs {
            let members = r.get_u64_vec()?;
            reader_sets.push(members.into_iter().map(LineAddr).collect::<FxHashSet<_>>());
        }
        // The reader sets index the sharer bits: a bit without its entry
        // would never be cleared, an entry without its bit would clear
        // nothing. Every bit must have its entry, and the counts must agree
        // so that no entry is left over.
        let mut bits = 0usize;
        for (line, entry) in &lines {
            for p in entry.sharers {
                if !reader_sets.get(p).is_some_and(|set| set.contains(line)) {
                    return Err(CkptError::Corrupt(format!(
                        "sharer {p} of line {:#x} has no reader-set entry",
                        line.0
                    )));
                }
                bits += 1;
            }
        }
        if bits != reader_sets.iter().map(FxHashSet::len).sum::<usize>() {
            return Err(CkptError::Corrupt(
                "a reader-set entry names a line its processor does not share".into(),
            ));
        }
        Ok(Self {
            id,
            num_procs,
            lines,
            reader_sets,
            stats: DirectoryStats {
                sharer_adds: r.get_u64()?,
                lines_committed: r.get_u64()?,
                invalidations_sent: r.get_u64()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sharer_and_query() {
        let mut d = Directory::<1>::new(0, 4);
        d.add_sharer(LineAddr(10), 1);
        d.add_sharer(LineAddr(10), 3);
        assert_eq!(
            d.sharers(LineAddr(10)).iter().collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert!(d.sharers(LineAddr(11)).is_empty());
        assert_eq!(d.stats().sharer_adds, 2);
    }

    #[test]
    fn duplicate_sharer_not_double_counted() {
        let mut d = Directory::<1>::new(0, 4);
        d.add_sharer(LineAddr(10), 1);
        d.add_sharer(LineAddr(10), 1);
        assert_eq!(d.sharers(LineAddr(10)).iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(d.stats().sharer_adds, 1);
        assert_eq!(d.shared_line_count(1), 1);
    }

    #[test]
    fn commit_invalidates_other_sharers_only() {
        let mut d = Directory::<1>::new(0, 4);
        d.add_sharer(LineAddr(5), 0);
        d.add_sharer(LineAddr(5), 1);
        d.add_sharer(LineAddr(5), 2);
        let victims = d.commit_line(LineAddr(5), 1);
        assert_eq!(victims.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(d.owner(LineAddr(5)), Some(1));
        // Sharer state consumed by the commit.
        assert!(d.sharers(LineAddr(5)).is_empty());
        assert_eq!(d.stats().invalidations_sent, 2);
        assert_eq!(d.stats().lines_committed, 1);
    }

    #[test]
    fn commit_of_unshared_line_invalidates_nobody() {
        let mut d = Directory::<1>::new(0, 4);
        let victims = d.commit_line(LineAddr(99), 2);
        assert!(victims.is_empty());
        assert_eq!(d.owner(LineAddr(99)), Some(2));
    }

    #[test]
    fn clear_proc_removes_all_registrations() {
        let mut d = Directory::<1>::new(0, 4);
        d.add_sharer(LineAddr(1), 0);
        d.add_sharer(LineAddr(2), 0);
        d.add_sharer(LineAddr(2), 1);
        d.clear_proc(0);
        assert!(d.sharers(LineAddr(1)).is_empty());
        assert_eq!(d.sharers(LineAddr(2)).iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(d.shared_line_count(0), 0);
        // Subsequent commits do not invalidate the cleared processor.
        assert!(d.commit_line(LineAddr(1), 2).is_empty());
    }

    #[test]
    fn clear_proc_keeps_the_reader_set_capacity() {
        let mut d = Directory::<1>::new(0, 4);
        for l in 0..32 {
            d.add_sharer(LineAddr(l), 2);
        }
        let capacity = d.reader_sets[2].capacity();
        d.clear_proc(2);
        assert_eq!(d.shared_line_count(2), 0);
        assert_eq!(d.reader_sets[2].capacity(), capacity);
        assert!((0..32).all(|l| d.sharers(LineAddr(l)).is_empty()));
    }

    #[test]
    fn owner_survives_sharer_clearing() {
        let mut d = Directory::<1>::new(0, 4);
        d.add_sharer(LineAddr(7), 3);
        d.commit_line(LineAddr(7), 3);
        d.clear_proc(3);
        assert_eq!(d.owner(LineAddr(7)), Some(3));
    }

    #[test]
    fn sharers_conservative_across_commits() {
        // A processor's registration persists until clear_proc, modelling the
        // conservative clearing described in the module docs.
        let mut d = Directory::<1>::new(0, 2);
        d.add_sharer(LineAddr(3), 0);
        let victims = d.commit_line(LineAddr(3), 1);
        assert_eq!(victims.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "1024 processors")]
    fn rejects_too_many_procs() {
        let _ = Directory::<16>::new(0, htm_sim::MAX_PROCS + 1);
    }

    #[test]
    fn wide_machine_sharers_work_beyond_64_procs() {
        let mut d = Directory::<16>::new(0, 1024);
        d.add_sharer(LineAddr(5), 70);
        d.add_sharer(LineAddr(5), 1000);
        let victims = d.commit_line(LineAddr(5), 1000);
        assert_eq!(victims.iter().collect::<Vec<_>>(), vec![70]);
        assert_eq!(d.owner(LineAddr(5)), Some(1000));
    }

    /// A 4-processor directory payload with line 0 shared by `sharers` and
    /// the reader sets `readers` (one line list per processor).
    fn payload(sharers: &[ProcId], readers: [&[u64]; 4]) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.put_usize(0);
        w.put_usize(4);
        w.put_usize(1);
        w.put_u64(0);
        ProcBits::<1>::from_iter(sharers.iter().copied()).save_ckpt(&mut w);
        w.put_opt_usize(None);
        for set in readers {
            w.put_u64_slice(set);
        }
        for _ in 0..3 {
            w.put_u64(0);
        }
        w.into_payload()
    }

    fn load(payload: &[u8]) -> Result<Directory<1>, CkptError> {
        Directory::<1>::load_ckpt(&mut CkptReader::new(payload))
    }

    #[test]
    fn checkpoint_round_trips() {
        let mut d = Directory::<1>::new(0, 4);
        d.add_sharer(LineAddr(0), 1);
        d.add_sharer(LineAddr(0), 2);
        d.add_sharer(LineAddr(9), 2);
        d.commit_line(LineAddr(9), 3);
        let mut w = CkptWriter::new();
        d.save_ckpt(&mut w);
        let bytes = w.into_payload();
        let mut again = CkptWriter::new();
        load(&bytes).unwrap().save_ckpt(&mut again);
        assert_eq!(again.into_payload(), bytes);
        assert!(load(&payload(&[1, 2], [&[], &[0], &[0], &[]])).is_ok());
    }

    #[test]
    fn restore_rejects_sharer_bits_and_reader_sets_that_disagree() {
        // A bit with no entry, an entry with no bit, and an entry for a
        // line the directory does not track at all.
        for bad in [
            payload(&[1, 2], [&[], &[0], &[], &[]]),
            payload(&[1], [&[], &[0], &[0], &[]]),
            payload(&[1], [&[], &[0, 64], &[], &[]]),
        ] {
            match load(&bad) {
                Err(CkptError::Corrupt(_)) => {}
                other => panic!("inconsistent directory restored: {other:?}"),
            }
        }
    }

    #[test]
    fn tracked_lines_counts_entries() {
        let mut d = Directory::<1>::new(0, 4);
        d.add_sharer(LineAddr(1), 0);
        d.add_sharer(LineAddr(2), 0);
        d.commit_line(LineAddr(3), 1);
        assert_eq!(d.tracked_lines(), 3);
    }
}
