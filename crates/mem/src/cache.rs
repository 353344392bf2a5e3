//! Private L1 data cache with speculative read/modify tracking.
//!
//! Under TCC every load inside a transaction sets a *speculatively-read* (SR)
//! bit on the line and every store sets a *speculatively-modified* (SM) bit;
//! stores are buffered locally and only become globally visible when the
//! transaction commits. On an abort, SM lines carry wrong data and must be
//! invalidated, while SR bits are simply cleared.
//!
//! The cache here is a timing model: it decides hit/miss, tracks evictions
//! and counts speculative-capacity overflows. Architectural correctness of
//! the read/write sets is maintained exactly by the processor model in
//! `htm-tcc` (see DESIGN.md, "Speculative-set overflow"), mirroring how the
//! paper's evaluation never exercises overflow.

use serde::{Deserialize, Serialize};

use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};

use crate::addr::LineAddr;

/// Outcome of a load/store lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// The line was present in the cache.
    Hit,
    /// The line was absent; the caller must fetch it from its home directory
    /// and then call [`SpecCache::fill`].
    Miss,
}

/// Per-cache event counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Load hits.
    pub load_hits: u64,
    /// Load misses.
    pub load_misses: u64,
    /// Store hits.
    pub store_hits: u64,
    /// Store misses.
    pub store_misses: u64,
    /// Lines evicted to make room for a fill.
    pub evictions: u64,
    /// Evictions that had to displace a speculatively read or modified line
    /// (a speculative-capacity overflow in a real TCC machine).
    pub speculative_evictions: u64,
    /// Lines invalidated by directory invalidations.
    pub external_invalidations: u64,
}

impl CacheStats {
    /// Serialize the counters into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_u64(self.load_hits);
        w.put_u64(self.load_misses);
        w.put_u64(self.store_hits);
        w.put_u64(self.store_misses);
        w.put_u64(self.evictions);
        w.put_u64(self.speculative_evictions);
        w.put_u64(self.external_invalidations);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            load_hits: r.get_u64()?,
            load_misses: r.get_u64()?,
            store_hits: r.get_u64()?,
            store_misses: r.get_u64()?,
            evictions: r.get_u64()?,
            speculative_evictions: r.get_u64()?,
            external_invalidations: r.get_u64()?,
        })
    }
}

/// State of one cache line (one way of one set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Way {
    line: LineAddr,
    valid: bool,
    /// Speculatively read during the current transaction.
    spec_read: bool,
    /// Speculatively modified (store buffered) during the current transaction.
    spec_mod: bool,
    /// Last-touch timestamp for LRU replacement.
    last_touch: u64,
}

impl Way {
    fn empty() -> Self {
        Self {
            line: LineAddr(0),
            valid: false,
            spec_read: false,
            spec_mod: false,
            last_touch: 0,
        }
    }

    fn is_speculative(&self) -> bool {
        self.valid && (self.spec_read || self.spec_mod)
    }
}

/// A set-associative L1 data cache with speculative read/modify bits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpecCache {
    sets: usize,
    assoc: usize,
    ways: Vec<Way>,
    touch_clock: u64,
    /// Indices of ways whose SR/SM bits may be set, so commit/abort clear
    /// only the touched ways instead of sweeping the whole array (the sweep
    /// dominated commit-heavy runs). May contain stale or duplicate entries;
    /// clearing is idempotent, and the list is drained on commit/abort.
    spec_ways: Vec<usize>,
    stats: CacheStats,
}

impl SpecCache {
    /// Create a cache with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    /// Panics if `sets` is not a power of two or `assoc` is zero.
    #[must_use]
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(assoc > 0, "associativity must be at least 1");
        Self {
            sets,
            assoc,
            ways: vec![Way::empty(); sets * assoc],
            touch_clock: 0,
            spec_ways: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Build the cache described by a [`htm_sim::config::SimConfig`].
    #[must_use]
    pub fn from_config(cfg: &htm_sim::config::SimConfig) -> Self {
        Self::new(cfg.l1_sets(), cfg.l1_assoc)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    #[must_use]
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets - 1)
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let s = self.set_index(line);
        s * self.assoc..(s + 1) * self.assoc
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        self.set_range(line)
            .find(|&i| self.ways[i].valid && self.ways[i].line == line)
    }

    fn touch(&mut self, idx: usize) {
        self.touch_clock += 1;
        self.ways[idx].last_touch = self.touch_clock;
    }

    /// Whether the line is currently present (no state change, no stats).
    #[must_use]
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Whether the line is present and speculatively modified.
    #[must_use]
    pub fn is_spec_modified(&self, line: LineAddr) -> bool {
        self.find(line).is_some_and(|i| self.ways[i].spec_mod)
    }

    /// Whether the line is present and speculatively read.
    #[must_use]
    #[inline]
    pub fn is_spec_read(&self, line: LineAddr) -> bool {
        self.find(line).is_some_and(|i| self.ways[i].spec_read)
    }

    /// Perform a transactional load lookup. On a hit the SR bit is set and
    /// LRU state updated; on a miss the caller fetches the line and calls
    /// [`Self::fill`].
    pub fn load(&mut self, line: LineAddr, transactional: bool) -> AccessOutcome {
        match self.find(line) {
            Some(idx) => {
                if transactional {
                    if !self.ways[idx].is_speculative() {
                        self.spec_ways.push(idx);
                    }
                    self.ways[idx].spec_read = true;
                }
                self.touch(idx);
                self.stats.load_hits += 1;
                AccessOutcome::Hit
            }
            None => {
                self.stats.load_misses += 1;
                AccessOutcome::Miss
            }
        }
    }

    /// Perform a transactional store lookup. On a hit the SM bit is set.
    pub fn store(&mut self, line: LineAddr, transactional: bool) -> AccessOutcome {
        match self.find(line) {
            Some(idx) => {
                if transactional {
                    if !self.ways[idx].is_speculative() {
                        self.spec_ways.push(idx);
                    }
                    self.ways[idx].spec_mod = true;
                }
                self.touch(idx);
                self.stats.store_hits += 1;
                AccessOutcome::Hit
            }
            None => {
                self.stats.store_misses += 1;
                AccessOutcome::Miss
            }
        }
    }

    /// Insert a line after a miss fill. `spec_read` / `spec_mod` describe the
    /// access that caused the fill. Returns the evicted line, if a valid line
    /// had to be displaced.
    pub fn fill(&mut self, line: LineAddr, spec_read: bool, spec_mod: bool) -> Option<LineAddr> {
        if let Some(idx) = self.find(line) {
            // Already present (e.g. a racing fill); just merge the bits.
            if (spec_read || spec_mod) && !self.ways[idx].is_speculative() {
                self.spec_ways.push(idx);
            }
            self.ways[idx].spec_read |= spec_read;
            self.ways[idx].spec_mod |= spec_mod;
            self.touch(idx);
            return None;
        }
        let range = self.set_range(line);
        // Victim preference: invalid way, else non-speculative LRU, else
        // speculative LRU (counted as an overflow).
        let victim = range
            .clone()
            .find(|&i| !self.ways[i].valid)
            .or_else(|| {
                range
                    .clone()
                    .filter(|&i| !self.ways[i].is_speculative())
                    .min_by_key(|&i| self.ways[i].last_touch)
            })
            .or_else(|| range.clone().min_by_key(|&i| self.ways[i].last_touch))
            .expect("a set always has at least one way");

        let evicted = if self.ways[victim].valid {
            self.stats.evictions += 1;
            if self.ways[victim].is_speculative() {
                self.stats.speculative_evictions += 1;
            }
            Some(self.ways[victim].line)
        } else {
            None
        };

        if spec_read || spec_mod {
            // The victim index may already be tracked (speculative
            // eviction); the duplicate is harmless because clearing is
            // idempotent.
            self.spec_ways.push(victim);
        }
        self.ways[victim] = Way {
            line,
            valid: true,
            spec_read,
            spec_mod,
            last_touch: 0,
        };
        self.touch(victim);
        evicted
    }

    /// Invalidate a line in response to a directory invalidation. Returns
    /// `true` if the line was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        if let Some(idx) = self.find(line) {
            self.ways[idx].valid = false;
            self.ways[idx].spec_read = false;
            self.ways[idx].spec_mod = false;
            self.stats.external_invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Commit the running transaction: speculative bits are cleared and
    /// speculatively modified lines remain valid (their data has just been
    /// flushed to the directories and this processor is now the owner).
    pub fn commit_speculative(&mut self) {
        while let Some(idx) = self.spec_ways.pop() {
            self.ways[idx].spec_read = false;
            self.ways[idx].spec_mod = false;
        }
    }

    /// Abort the running transaction: speculatively modified lines are
    /// invalidated (their data never became architectural) and SR bits are
    /// cleared.
    pub fn abort_speculative(&mut self) {
        while let Some(idx) = self.spec_ways.pop() {
            let way = &mut self.ways[idx];
            if way.spec_mod {
                way.valid = false;
                way.spec_mod = false;
            }
            way.spec_read = false;
        }
    }

    /// Serialize the full cache state — geometry, every way (LRU timestamps
    /// included) and the speculative-way stack verbatim, so replacement
    /// decisions after a restore are identical to the uninterrupted run.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_usize(self.sets);
        w.put_usize(self.assoc);
        for way in &self.ways {
            w.put_u64(way.line.0);
            w.put_bool(way.valid);
            w.put_bool(way.spec_read);
            w.put_bool(way.spec_mod);
            w.put_u64(way.last_touch);
        }
        w.put_u64(self.touch_clock);
        w.put_usize(self.spec_ways.len());
        for &idx in &self.spec_ways {
            w.put_usize(idx);
        }
        self.stats.save_ckpt(w);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let sets = r.get_usize()?;
        let assoc = r.get_usize()?;
        if !sets.is_power_of_two() || assoc == 0 || sets.saturating_mul(assoc) > (1 << 30) {
            return Err(CkptError::Corrupt(format!(
                "implausible cache geometry {sets}x{assoc}"
            )));
        }
        let mut ways = Vec::with_capacity(sets * assoc);
        for _ in 0..sets * assoc {
            ways.push(Way {
                line: LineAddr(r.get_u64()?),
                valid: r.get_bool()?,
                spec_read: r.get_bool()?,
                spec_mod: r.get_bool()?,
                last_touch: r.get_u64()?,
            });
        }
        let touch_clock = r.get_u64()?;
        let n = r.get_usize()?;
        let mut spec_ways = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let idx = r.get_usize()?;
            if idx >= ways.len() {
                return Err(CkptError::Corrupt(format!(
                    "speculative way index {idx} out of range"
                )));
            }
            spec_ways.push(idx);
        }
        Ok(Self {
            sets,
            assoc,
            ways,
            touch_clock,
            spec_ways,
            stats: CacheStats::load_ckpt(r)?,
        })
    }

    /// Number of valid lines currently speculative (read or modified).
    #[must_use]
    pub fn speculative_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.is_speculative()).count()
    }

    /// Number of valid lines.
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SpecCache {
        SpecCache::new(4, 2)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.load(LineAddr(5), true), AccessOutcome::Miss);
        assert_eq!(c.fill(LineAddr(5), true, false), None);
        assert_eq!(c.load(LineAddr(5), true), AccessOutcome::Hit);
        assert!(c.is_spec_read(LineAddr(5)));
        let s = c.stats();
        assert_eq!(s.load_misses, 1);
        assert_eq!(s.load_hits, 1);
    }

    #[test]
    fn store_sets_spec_mod() {
        let mut c = small_cache();
        c.fill(LineAddr(7), false, false);
        assert_eq!(c.store(LineAddr(7), true), AccessOutcome::Hit);
        assert!(c.is_spec_modified(LineAddr(7)));
    }

    #[test]
    fn non_transactional_access_sets_no_spec_bits() {
        let mut c = small_cache();
        c.fill(LineAddr(3), false, false);
        c.load(LineAddr(3), false);
        c.store(LineAddr(3), false);
        assert!(!c.is_spec_read(LineAddr(3)));
        assert!(!c.is_spec_modified(LineAddr(3)));
    }

    #[test]
    fn lru_eviction_prefers_oldest_nonspeculative() {
        let mut c = SpecCache::new(1, 2);
        c.fill(LineAddr(1), false, false);
        c.fill(LineAddr(2), false, false);
        // Touch line 1 so line 2 is LRU.
        c.load(LineAddr(1), false);
        let evicted = c.fill(LineAddr(3), false, false);
        assert_eq!(evicted, Some(LineAddr(2)));
        assert!(c.contains(LineAddr(1)));
        assert!(c.contains(LineAddr(3)));
    }

    #[test]
    fn speculative_lines_evicted_last() {
        let mut c = SpecCache::new(1, 2);
        c.fill(LineAddr(1), true, false); // speculative
        c.fill(LineAddr(2), false, false); // normal, more recent
        let evicted = c.fill(LineAddr(3), false, false);
        // Even though line 1 is older, line 2 is evicted because 1 is speculative.
        assert_eq!(evicted, Some(LineAddr(2)));
        assert_eq!(c.stats().speculative_evictions, 0);
    }

    #[test]
    fn speculative_overflow_is_counted() {
        let mut c = SpecCache::new(1, 2);
        c.fill(LineAddr(1), true, false);
        c.fill(LineAddr(2), true, false);
        c.fill(LineAddr(3), true, false);
        assert_eq!(c.stats().speculative_evictions, 1);
    }

    #[test]
    fn commit_clears_spec_bits_keeps_data() {
        let mut c = small_cache();
        c.fill(LineAddr(1), true, true);
        c.commit_speculative();
        assert!(c.contains(LineAddr(1)));
        assert!(!c.is_spec_read(LineAddr(1)));
        assert!(!c.is_spec_modified(LineAddr(1)));
    }

    #[test]
    fn abort_drops_modified_lines_keeps_read_lines() {
        let mut c = small_cache();
        c.fill(LineAddr(1), true, false); // read only
        c.fill(LineAddr(2), false, true); // modified
        c.abort_speculative();
        assert!(c.contains(LineAddr(1)));
        assert!(!c.is_spec_read(LineAddr(1)));
        assert!(!c.contains(LineAddr(2)));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache();
        c.fill(LineAddr(9), true, false);
        assert!(c.invalidate(LineAddr(9)));
        assert!(!c.contains(LineAddr(9)));
        assert!(!c.invalidate(LineAddr(9)));
        assert_eq!(c.stats().external_invalidations, 1);
    }

    #[test]
    fn fill_of_present_line_merges_bits() {
        let mut c = small_cache();
        c.fill(LineAddr(4), true, false);
        assert_eq!(c.fill(LineAddr(4), false, true), None);
        assert!(c.is_spec_read(LineAddr(4)));
        assert!(c.is_spec_modified(LineAddr(4)));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn lines_mapping_to_different_sets_do_not_conflict() {
        let mut c = SpecCache::new(4, 1);
        for i in 0..4 {
            c.fill(LineAddr(i), false, false);
        }
        assert_eq!(c.valid_lines(), 4);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn from_config_matches_geometry() {
        let cfg = htm_sim::config::SimConfig::table2(4);
        let c = SpecCache::from_config(&cfg);
        assert_eq!(c.sets(), 512);
        assert_eq!(c.assoc(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = SpecCache::new(3, 2);
    }
}
