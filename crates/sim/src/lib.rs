//! # htm-sim — deterministic cycle-driven simulation engine
//!
//! This crate is the timing substrate used by the *Clock Gate on Abort*
//! reproduction. The original paper evaluates its proposal inside the M5
//! full-system simulator; we replace M5 with a compact, deterministic,
//! cycle-driven engine that provides exactly the facilities the protocol and
//! power models need:
//!
//! * a global [`Cycle`] counter and helpers for latency arithmetic,
//! * [`config::SimConfig`], the machine description of Table II of the paper
//!   (core count, L1 geometry, interconnect, directory and memory latencies),
//! * [`queue::TimedQueue`], a delivery-time-ordered message queue used for
//!   every point-to-point message in the coherence / commit protocol,
//! * [`bus::SplitTransactionBus`], an occupancy-modelling split-transaction
//!   bus with round-robin arbitration,
//! * [`topology`], the interconnect abstraction behind which the legacy
//!   shared bus and the banked/sharded point-to-point fabrics live
//!   ([`topology::Topology`], [`topology::Interconnect`]),
//! * [`port::SinglePortResource`], a single-ported resource model used for
//!   the main memory (Table II: "Single Read/Write Port"),
//! * [`rng::DeterministicRng`], a seedable, portable PRNG so that every
//!   simulation run is bit-for-bit reproducible,
//! * [`stats`] and [`interval`], the statistic collectors feeding the
//!   energy-accounting equations (Eqs. 1–7) of the paper.
//!
//! Every simulation is deterministic and bit-reproducible. Raw speed comes
//! from the layers above this crate: the `htm-tcc` system drives these
//! components with an event-driven fast-forward engine that leaps over
//! quiescent windows instead of ticking them cycle by cycle (the
//! one-step-per-cycle reference engine is retained for differential
//! testing; see `DESIGN.md`), and the experiment/sweep harnesses
//! parallelise across independent simulations.
//!
//! ```
//! use htm_sim::{cycles_after, config::SimConfig, ProcSet};
//!
//! // Table II machine description for 8 cores, with latency arithmetic and
//! // the full-bit-vector processor sets used throughout the protocol.
//! let cfg = SimConfig::table2(8);
//! assert_eq!(cfg.l1_sets(), 512);
//! let sharers: ProcSet = [0usize, 3, 7].into_iter().collect();
//! assert!(sharers.contains(3) && sharers.len() == 3);
//! assert_eq!(cycles_after(100, cfg.memory_latency), 200);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bus;
pub mod checkpoint;
pub mod config;
pub mod fxhash;
pub mod interval;
pub mod pool;
pub mod port;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod topology;

/// A simulation cycle (one tick of the global clock).
///
/// All latencies in the simulator are expressed in cycles of the processor
/// clock; the directories and the interconnect are modelled as running on
/// the same clock, matching the paper's single-clock-domain timing
/// parameters (Table II).
pub type Cycle = u64;

/// Identifier of a processor (core) in the simulated system.
pub type ProcId = usize;

/// Identifier of a directory (home node) in the simulated system.
pub type DirId = usize;

/// Largest processor count any simulated machine can have (the capacity of
/// [`ProcSet`], the widest processor set).
///
/// The paper's Table II machine stops at 16 processors on a bus; the sharded
/// topologies scale the same protocol state to 1024-wide bit vectors.
pub const MAX_PROCS: usize = ProcSet::CAPACITY;

/// The number of 64-bit words a machine of `num_procs` processors keeps in
/// its processor sets: 1 up to 64 processors, 4 up to 256, 16 above that.
///
/// The engine, the directories and their sharer/marked sets are all
/// monomorphized at this width, so the paper's 4–16 processor machines move
/// 8-byte sets instead of 128-byte ones. The width never shows in any output:
/// sets iterate in ascending processor-id order and checkpoint as member
/// lists at every width.
#[must_use]
pub const fn proc_set_words(num_procs: usize) -> usize {
    if num_procs <= 64 {
        1
    } else if num_procs <= 256 {
        4
    } else {
        16
    }
}

/// Saturating cycle addition helper.
///
/// Timer arithmetic in the gating protocol can produce very large renewal
/// windows (the staircase back-off of Eq. 8 doubles at exponentially spaced
/// abort counts); saturating arithmetic keeps that well-defined.
#[inline]
#[must_use]
pub fn cycles_after(now: Cycle, latency: u64) -> Cycle {
    now.saturating_add(latency)
}

/// A set of processors stored as a full-bit vector of `W` 64-bit words
/// (capacity `W · 64` processors).
///
/// Used on the simulator's hot path wherever the directory protocol needs to
/// hand a group of processors around (sharer vectors, invalidation victims,
/// the engine's active and waiter sets): iterating the bitmask directly avoids
/// the per-event `Vec<ProcId>` allocations the naive implementation paid
/// every committed line. Single-bit operations index one word, so they stay
/// O(1) regardless of the machine size. The engine picks `W` per machine
/// ([`proc_set_words`]); [`ProcSet`] is the full [`MAX_PROCS`]-wide set the
/// hook-facing interfaces use.
///
/// ```
/// use htm_sim::{ProcBits, ProcSet};
///
/// let mut set = ProcSet::empty();
/// set.insert(3);
/// set.insert(900); // well beyond the old 64-core bus limit
/// assert!(set.contains(900) && !set.contains(899));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 900]);
///
/// // A one-word set holds processors 0–63 and widens without loss.
/// let narrow: ProcBits<1> = [5usize, 63].into_iter().collect();
/// assert_eq!(narrow.widen::<16>().iter().collect::<Vec<_>>(), vec![5, 63]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcBits<const W: usize>([u64; W]);

/// The [`MAX_PROCS`]-wide processor set (16 words) handed to gating hooks.
pub type ProcSet = ProcBits<16>;

impl<const W: usize> Default for ProcBits<W> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<const W: usize> ProcBits<W> {
    /// Number of processors the set can hold.
    pub const CAPACITY: usize = W * 64;

    /// The empty set.
    #[must_use]
    pub const fn empty() -> Self {
        Self([0; W])
    }

    /// Build a set of the first 64 processors from a raw bit vector (bit `p`
    /// set ⇔ processor `p` is a member).
    #[must_use]
    pub const fn from_bits(bits: u64) -> Self {
        let mut words = [0; W];
        words[0] = bits;
        Self(words)
    }

    /// The low 64 bits of the vector (membership of processors 0–63); only a
    /// complete picture on machines with at most 64 processors.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.0[0]
    }

    /// The set {0, 1, …, `n` − 1} of the first `n` processors.
    ///
    /// # Panics
    /// If `n` exceeds [`Self::CAPACITY`].
    #[must_use]
    pub fn all(n: usize) -> Self {
        assert!(
            n <= Self::CAPACITY,
            "ProcSet limited to {} processors",
            Self::CAPACITY
        );
        let mut words = [0; W];
        for (i, w) in words.iter_mut().enumerate() {
            let low = i * 64;
            if n >= low + 64 {
                *w = u64::MAX;
            } else if n > low {
                *w = (1u64 << (n - low)) - 1;
            }
        }
        Self(words)
    }

    /// Whether `proc` is a member.
    #[must_use]
    pub const fn contains(self, proc: ProcId) -> bool {
        proc < Self::CAPACITY && self.0[proc / 64] & (1u64 << (proc % 64)) != 0
    }

    /// Add `proc` to the set.
    ///
    /// # Panics
    /// If `proc` is not below [`Self::CAPACITY`].
    #[inline]
    pub fn insert(&mut self, proc: ProcId) {
        assert!(
            proc < Self::CAPACITY,
            "ProcSet limited to {} processors",
            Self::CAPACITY
        );
        self.0[proc / 64] |= 1u64 << (proc % 64);
    }

    /// Remove `proc` from the set (a no-op if it is not a member).
    #[inline]
    pub fn remove(&mut self, proc: ProcId) {
        if proc < Self::CAPACITY {
            self.0[proc / 64] &= !(1u64 << (proc % 64));
        }
    }

    /// The set without `proc` (the original is unchanged).
    #[must_use]
    pub fn without(mut self, proc: ProcId) -> Self {
        self.remove(proc);
        self
    }

    /// Number of members.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Remove and return the lowest member. Unlike [`Self::iter`], a loop
    /// over `pop_first` sees members inserted above the last one it popped,
    /// so a worklist can grow while it is drained in ascending order.
    pub fn pop_first(&mut self) -> Option<ProcId> {
        let (w, word) = self.0.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let p = w * 64 + word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(p)
    }

    /// Iterate the members in ascending processor-id order, allocation-free.
    #[must_use]
    pub fn iter(self) -> ProcBitsIter<W> {
        ProcBitsIter {
            words: self.0,
            word: 0,
        }
    }

    /// The same members in a set of `V ≥ W` words (the engine widens its
    /// narrow marked sets into the hook-facing [`ProcSet`] this way).
    #[must_use]
    pub fn widen<const V: usize>(self) -> ProcBits<V> {
        const { assert!(W <= V, "widen cannot narrow a processor set") };
        let mut words = [0; V];
        words[..W].copy_from_slice(&self.0);
        ProcBits(words)
    }
}

impl<const W: usize> std::ops::BitOr for ProcBits<W> {
    type Output = Self;

    fn bitor(mut self, rhs: Self) -> Self {
        self |= rhs;
        self
    }
}

impl<const W: usize> std::ops::BitOrAssign for ProcBits<W> {
    fn bitor_assign(&mut self, rhs: Self) {
        for (w, r) in self.0.iter_mut().zip(rhs.0) {
            *w |= r;
        }
    }
}

impl<const W: usize> IntoIterator for ProcBits<W> {
    type Item = ProcId;
    type IntoIter = ProcBitsIter<W>;

    fn into_iter(self) -> ProcBitsIter<W> {
        self.iter()
    }
}

impl<const W: usize> FromIterator<ProcId> for ProcBits<W> {
    fn from_iter<I: IntoIterator<Item = ProcId>>(iter: I) -> Self {
        let mut set = Self::empty();
        for p in iter {
            set.insert(p);
        }
        set
    }
}

/// Ascending-order iterator over a [`ProcBits`] set.
#[derive(Debug, Clone)]
pub struct ProcBitsIter<const W: usize> {
    words: [u64; W],
    word: usize,
}

impl<const W: usize> Iterator for ProcBitsIter<W> {
    type Item = ProcId;

    fn next(&mut self) -> Option<ProcId> {
        while self.word < W {
            let w = self.words[self.word];
            if w == 0 {
                self.word += 1;
                continue;
            }
            let p = self.word * 64 + w.trailing_zeros() as usize;
            self.words[self.word] = w & (w - 1);
            return Some(p);
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words[self.word.min(W - 1)..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl<const W: usize> ExactSizeIterator for ProcBitsIter<W> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_after_adds_latency() {
        assert_eq!(cycles_after(10, 5), 15);
    }

    #[test]
    fn cycles_after_saturates() {
        assert_eq!(cycles_after(Cycle::MAX - 1, 10), Cycle::MAX);
    }

    /// Run a generic set check at every width the engine uses.
    macro_rules! at_every_width {
        ($check:ident) => {
            $check::<1>();
            $check::<4>();
            $check::<16>();
        };
    }

    fn iterates_in_ascending_order<const W: usize>() {
        let s = ProcBits::<W>::from_bits(0b1010_0101);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2, 5, 7]);
        assert_eq!(s.len(), 4);
        assert!(s.contains(5));
        assert!(!s.contains(1));
        assert!(!s.is_empty());
    }

    #[test]
    fn proc_set_iterates_in_ascending_order() {
        at_every_width!(iterates_in_ascending_order);
    }

    fn empty_and_from_iter_roundtrip<const W: usize>() {
        assert!(ProcBits::<W>::empty().is_empty());
        assert_eq!(ProcBits::<W>::empty().iter().count(), 0);
        let s: ProcBits<W> = [3usize, 9, 63].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 9, 63]);
        assert_eq!(s.bits(), (1 << 3) | (1 << 9) | (1 << 63));
    }

    #[test]
    fn proc_set_empty_and_from_iter_roundtrip() {
        at_every_width!(empty_and_from_iter_roundtrip);
    }

    fn spans_every_word<const W: usize>() {
        let cap = ProcBits::<W>::CAPACITY;
        let members: Vec<usize> = [0usize, 63, 64, 127, 512, cap - 1]
            .into_iter()
            .filter(|&p| p < cap)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let s: ProcBits<W> = members.iter().copied().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
        assert_eq!(s.len(), members.len());
        assert!(s.contains(cap - 1));
        assert!(!s.contains(cap - 2));
        assert!(!s.contains(cap), "members past the capacity are absent");
        assert_eq!(s.iter().len(), members.len());
    }

    #[test]
    fn proc_set_spans_all_sixteen_words() {
        at_every_width!(spans_every_word);
        assert_eq!(ProcSet::CAPACITY, MAX_PROCS);
    }

    fn insert_remove_and_without<const W: usize>() {
        let high = ProcBits::<W>::CAPACITY - 1;
        let mut s = ProcBits::<W>::empty();
        s.insert(40);
        s.insert(high);
        assert!(s.contains(40) && s.contains(high));
        s.remove(40);
        assert!(!s.contains(40));
        s.remove(high + 1); // past the capacity: a no-op
        let t = s.without(high);
        assert!(t.is_empty());
        assert!(s.contains(high), "without() must not mutate the original");
    }

    #[test]
    fn proc_set_insert_remove_and_without() {
        at_every_width!(insert_remove_and_without);
    }

    fn pop_first_drains_a_growing_worklist<const W: usize>() {
        let high = ProcBits::<W>::CAPACITY - 1;
        let mut s: ProcBits<W> = [5usize, 40, high].into_iter().collect();
        let mut seen = Vec::new();
        while let Some(p) = s.pop_first() {
            seen.push(p);
            if p == 5 {
                // Joins above the cursor are seen in this drain.
                s.insert(9);
            }
        }
        assert_eq!(seen, vec![5, 9, 40, high]);
        assert!(s.is_empty());
        assert_eq!(s.pop_first(), None);
    }

    #[test]
    fn proc_set_pop_first_drains_a_growing_worklist() {
        at_every_width!(pop_first_drains_a_growing_worklist);
    }

    fn all_builds_prefix_sets<const W: usize>() {
        let cap = ProcBits::<W>::CAPACITY;
        assert!(ProcBits::<W>::all(0).is_empty());
        assert_eq!(ProcBits::<W>::all(64).len(), 64);
        assert_eq!(
            ProcBits::<W>::all(cap.min(65)).iter().last(),
            Some(cap.min(65) - 1)
        );
        let full = ProcBits::<W>::all(cap);
        assert_eq!(full.len(), cap);
        assert!(full.contains(0) && full.contains(cap - 1));
    }

    #[test]
    fn proc_set_all_builds_prefix_sets() {
        at_every_width!(all_builds_prefix_sets);
    }

    fn bitor_unions<const W: usize>() {
        let a: ProcBits<W> = [1usize, 60].into_iter().collect();
        let b: ProcBits<W> = [2usize, 60, W * 64 - 1].into_iter().collect();
        let u = a | b;
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 60, W * 64 - 1]);
    }

    #[test]
    fn proc_set_bitor_unions() {
        at_every_width!(bitor_unions);
    }

    #[test]
    #[should_panic(expected = "1024 processors")]
    fn proc_set_rejects_out_of_range_members() {
        let mut s = ProcSet::empty();
        s.insert(MAX_PROCS);
    }

    #[test]
    #[should_panic(expected = "64 processors")]
    fn one_word_set_rejects_processor_64() {
        let mut s = ProcBits::<1>::empty();
        s.insert(64);
    }

    #[test]
    fn proc_set_words_follows_the_width_rule() {
        for (procs, words) in [(1, 1), (64, 1), (65, 4), (256, 4), (257, 16), (1024, 16)] {
            assert_eq!(proc_set_words(procs), words, "{procs} processors");
        }
    }

    /// Apply the same random operations to a narrow set and to a
    /// [`ProcSet`]; every observable (members, `len`, iteration order,
    /// checkpoint bytes) must agree after each step.
    fn matches_the_wide_set<const W: usize>(seed: u64) {
        use crate::checkpoint::CkptWriter;
        let cap = ProcBits::<W>::CAPACITY;
        let mut rng = rng::DeterministicRng::new(seed);
        let mut narrow = ProcBits::<W>::empty();
        let mut wide = ProcSet::empty();
        let codec = |f: &dyn Fn(&mut CkptWriter)| {
            let mut w = CkptWriter::new();
            f(&mut w);
            w.into_payload()
        };
        for _ in 0..2000 {
            let p = rng.gen_index(cap);
            match rng.gen_range(5) {
                0 | 1 => {
                    narrow.insert(p);
                    wide.insert(p);
                }
                2 => {
                    narrow.remove(p);
                    wide.remove(p);
                }
                3 => {
                    narrow = narrow.without(p);
                    wide = wide.without(p);
                }
                _ => {
                    let q = rng.gen_index(cap);
                    narrow |= ProcBits::all(q);
                    wide |= ProcSet::all(q);
                }
            }
            assert_eq!(narrow.widen::<16>(), wide);
            assert_eq!(narrow.len(), wide.len());
            assert_eq!(narrow.is_empty(), wide.is_empty());
            assert_eq!(narrow.contains(p), wide.contains(p));
            assert!(narrow.iter().eq(wide.iter()), "iteration order");
            assert_eq!(narrow.iter().len(), wide.len());
            assert_eq!(
                codec(&|w| narrow.save_ckpt(w)),
                codec(&|w| wide.save_ckpt(w)),
                "checkpoint bytes"
            );
            if rng.gen_range(64) == 0 {
                narrow = ProcBits::empty();
                wide = ProcSet::empty();
            }
        }
    }

    #[test]
    fn narrow_sets_behave_like_the_sixteen_word_set() {
        for seed in 1..=4 {
            matches_the_wide_set::<1>(seed);
            matches_the_wide_set::<4>(seed);
        }
    }
}
