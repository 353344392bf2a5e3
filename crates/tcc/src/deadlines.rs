//! The fast-forward engine's event queue: a timing wheel of one-cycle slots
//! over a bounded horizon, plus an overflow heap for far deadlines.
//!
//! Almost every processor deadline is a short protocol latency (a miss
//! fill, a commit flush, an invalidation delivery, a roll-back), so pushes
//! and pops on a binary heap paid O(log n) for a key that is nearly always
//! a few hundred cycles ahead. The wheel holds every entry less than
//! [`SLOTS`] cycles ahead of its cursor in the slot of its deadline cycle:
//! push and pop are O(1), and a two-level occupancy bitmap finds the next
//! non-empty slot in O(1). Entries further ahead (long back-off and gating
//! windows, long `Compute` operations) go to an overflow heap that
//! [`DeadlineQueue::pop_due`] and [`DeadlineQueue::peek`] consult as a
//! second source; they are never migrated into the wheel.
//!
//! Each slot is an intrusive singly linked list threaded through one node
//! pool with a free list, so a run allocates nothing per slot and a
//! [`DeadlineQueue::clear`] is O(1) in the slot count.
//!
//! The queue hands out due entries in no particular order within a cycle.
//! The engine cannot observe that order: it collects the due processors
//! into a processor set and steps them in ascending id order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use htm_sim::{Cycle, ProcId};

/// Wheel size in one-cycle slots. A power of two, sized from the push
/// distances of the 256-processor sharded benchmark (98.1 % within 4096
/// cycles; on the 4-16p bus 99.95 % are within 256), so the overflow heap
/// sees only the rare long window.
const SLOTS: usize = 4096;
const MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;
/// End of a slot list and of the free list.
const NIL: u32 = u32::MAX;

const _: () = assert!(SLOTS.is_power_of_two() && WORDS == 64);

#[derive(Clone, Copy)]
struct Node {
    proc: u32,
    next: u32,
}

/// `(deadline, processor)` entries, earliest due first.
///
/// Every wheel entry lies in `[now, now + SLOTS)`, where `now` is the
/// queue's cursor: the cycle of the last [`Self::pop_due`] or
/// [`Self::clear`]. A push at or before the cursor lands in the cursor's
/// slot, so it is due at once, exactly as a past deadline would be.
pub(crate) struct DeadlineQueue {
    now: Cycle,
    /// Head node of each slot's list; meaningful only while the slot's
    /// `occupied` bit is set, so empty slots are never written.
    heads: Box<[u32]>,
    /// Bit `s % 64` of word `s / 64` is set iff slot `s` is non-empty.
    occupied: [u64; WORDS],
    /// Bit `w` is set iff `occupied[w]` is non-zero.
    summary: u64,
    nodes: Vec<Node>,
    free: u32,
    /// Entries `SLOTS` or more cycles ahead of the cursor at push time.
    overflow: BinaryHeap<Reverse<(Cycle, ProcId)>>,
}

impl DeadlineQueue {
    pub(crate) fn new() -> Self {
        Self {
            now: 0,
            heads: vec![0; SLOTS].into_boxed_slice(),
            occupied: [0; WORDS],
            summary: 0,
            nodes: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
        }
    }

    /// Empty the queue and set its cursor to `now`.
    pub(crate) fn clear(&mut self, now: Cycle) {
        self.now = now;
        self.occupied = [0; WORDS];
        self.summary = 0;
        self.nodes.clear();
        self.free = NIL;
        self.overflow.clear();
    }

    /// Queue `proc` to be looked at in cycle `deadline`.
    pub(crate) fn push(&mut self, deadline: Cycle, proc: ProcId) {
        let deadline = deadline.max(self.now);
        if deadline - self.now >= SLOTS as u64 {
            self.overflow.push(Reverse((deadline, proc)));
            return;
        }
        let slot = (deadline & MASK) as usize;
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        let next = if self.occupied[w] & bit != 0 {
            self.heads[slot]
        } else {
            NIL
        };
        let node = Node {
            proc: proc as u32,
            next,
        };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.heads[slot] = idx;
        self.occupied[w] |= bit;
        self.summary |= 1 << w;
    }

    /// Remove and return one entry due at or before `now`, or `None` when
    /// nothing is due (the cursor then moves to `now`). `now` must not go
    /// backwards between calls.
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<ProcId> {
        debug_assert!(now >= self.now, "the queue's clock went backwards");
        if let Some(deadline) = self.wheel_min() {
            if deadline <= now {
                // Every slot before `deadline` is empty, so the cursor may
                // move there; it must not pass a non-empty slot.
                self.now = deadline;
                return Some(self.unlink((deadline & MASK) as usize));
            }
        }
        if self.overflow.peek().is_some_and(|e| e.0 .0 <= now) {
            return self.overflow.pop().map(|e| e.0 .1);
        }
        self.now = now;
        None
    }

    /// The earliest queued deadline.
    pub(crate) fn peek(&self) -> Option<Cycle> {
        let far = self.overflow.peek().map(|e| e.0 .0);
        match (self.wheel_min(), far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (d, None) | (None, d) => d,
        }
    }

    /// Call `f(deadline, proc)` for every queued entry, in no particular
    /// order (for invariant checks).
    pub(crate) fn for_each(&self, mut f: impl FnMut(Cycle, ProcId)) {
        for slot in 0..SLOTS {
            if self.occupied[slot / 64] & (1 << (slot % 64)) == 0 {
                continue;
            }
            let deadline = self.slot_cycle(slot);
            let mut idx = self.heads[slot];
            while idx != NIL {
                let node = self.nodes[idx as usize];
                f(deadline, node.proc as ProcId);
                idx = node.next;
            }
        }
        for e in &self.overflow {
            f(e.0 .0, e.0 .1);
        }
    }

    /// Number of queued entries, wheel and overflow heap together.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let mut n = 0;
        self.for_each(|_, _| n += 1);
        n
    }

    /// Number of entries in the overflow heap.
    #[cfg(test)]
    pub(crate) fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// The cycle slot `slot` stands for: the first one at or after the
    /// cursor that maps to it.
    fn slot_cycle(&self, slot: usize) -> Cycle {
        self.now + ((slot as u64).wrapping_sub(self.now) & MASK)
    }

    /// The earliest deadline on the wheel: the first non-empty slot at or
    /// after the cursor's, wrapping round.
    fn wheel_min(&self) -> Option<Cycle> {
        if self.summary == 0 {
            return None;
        }
        let start = (self.now & MASK) as usize;
        let (w, b) = (start / 64, start % 64);
        let here = self.occupied[w] & (!0u64 << b);
        let slot = if here != 0 {
            w * 64 + here.trailing_zeros() as usize
        } else {
            // Words after the cursor's, else the lowest non-empty word: it
            // is at or before the cursor's, and in the cursor's own word
            // only bits below `b` are left.
            let later = self.summary & (!1u64 << w);
            let word = if later != 0 {
                later.trailing_zeros()
            } else {
                self.summary.trailing_zeros()
            } as usize;
            word * 64 + self.occupied[word].trailing_zeros() as usize
        };
        Some(self.slot_cycle(slot))
    }

    /// Pop the head of non-empty slot `slot`.
    fn unlink(&mut self, slot: usize) -> ProcId {
        let idx = self.heads[slot];
        let node = self.nodes[idx as usize];
        if node.next == NIL {
            let w = slot / 64;
            self.occupied[w] &= !(1 << (slot % 64));
            if self.occupied[w] == 0 {
                self.summary &= !(1 << w);
            }
        } else {
            self.heads[slot] = node.next;
        }
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        node.proc as ProcId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::rng::DeterministicRng;

    /// Distances from `now` that straddle the wheel's horizon.
    const EDGES: [u64; 6] = [0, 1, 4095, 4096, 4097, 50_000];

    fn drain(q: &mut DeadlineQueue, now: Cycle) -> Vec<ProcId> {
        let mut out = Vec::new();
        while let Some(p) = q.pop_due(now) {
            out.push(p);
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn pops_in_deadline_order_across_the_horizon() {
        let mut q = DeadlineQueue::new();
        q.clear(100);
        for (p, &d) in EDGES.iter().enumerate() {
            q.push(100 + d, p);
        }
        q.push(40, 9); // in the past: due at once
        assert_eq!(q.peek(), Some(100));
        assert_eq!(drain(&mut q, 100), vec![0, 9]);
        for (p, &d) in EDGES.iter().enumerate().skip(1) {
            assert_eq!(q.peek(), Some(100 + d));
            assert_eq!(q.pop_due(100 + d - 1), None);
            assert_eq!(drain(&mut q, 100 + d), vec![p]);
        }
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn a_slot_is_reused_one_lap_later() {
        let lap = SLOTS as u64;
        let mut q = DeadlineQueue::new();
        q.push(5, 1);
        assert_eq!(drain(&mut q, 5), vec![1]);
        // Exactly one lap ahead of the cursor is past the horizon.
        q.push(5 + lap, 2);
        assert_eq!(q.overflow_len(), 1);
        // Once the cursor has left cycle 5, its slot holds cycle 5 + lap.
        assert_eq!(q.pop_due(6), None);
        q.push(5 + lap, 3);
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.peek(), Some(5 + lap));
        assert_eq!(drain(&mut q, 4 + lap), Vec::<ProcId>::new());
        assert_eq!(drain(&mut q, 5 + lap), vec![2, 3]);
        assert_eq!(q.peek(), None);
    }

    /// Random pushes at and around the horizon, pops, peeks, clears and
    /// clock jumps, checked against a binary-heap model: every pop is due
    /// in the model, a drain empties exactly the model's due entries, and
    /// afterwards the earliest deadlines agree.
    #[test]
    fn agrees_with_a_binary_heap_model() {
        for seed in 0..64 {
            let mut rng = DeterministicRng::new(seed);
            let mut q = DeadlineQueue::new();
            let mut model: Vec<(Cycle, ProcId)> = Vec::new();
            let mut now: Cycle = rng.gen_range(10_000);
            q.clear(now);
            for _ in 0..2_000 {
                match rng.gen_range(10) {
                    0..=4 => {
                        let d = match rng.gen_range(4) {
                            0 => now + EDGES[rng.gen_index(EDGES.len())],
                            1 => now.saturating_sub(rng.gen_range(5_000)),
                            2 => now + rng.gen_range(300),
                            _ => now + rng.gen_range(20_000),
                        };
                        let p = rng.gen_index(64);
                        q.push(d, p);
                        model.push((d, p));
                    }
                    5 | 6 => {
                        if let Some(p) = q.pop_due(now) {
                            let k = model
                                .iter()
                                .position(|&(d, m)| m == p && d <= now)
                                .unwrap_or_else(|| panic!("seed {seed}: {p} popped early"));
                            model.swap_remove(k);
                        } else {
                            assert!(model.iter().all(|&(d, _)| d > now), "seed {seed}");
                        }
                    }
                    7 => {
                        // Advance like the engine: drain, then jump to the
                        // earliest deadline, or anywhere past it.
                        let mut popped = drain(&mut q, now);
                        let mut due: Vec<ProcId> = model
                            .iter()
                            .filter(|&&(d, _)| d <= now)
                            .map(|&(_, p)| p)
                            .collect();
                        due.sort_unstable();
                        popped.sort_unstable();
                        assert_eq!(popped, due, "seed {seed} at {now}");
                        model.retain(|&(d, _)| d > now);
                        let earliest = model.iter().map(|&(d, _)| d).min();
                        assert_eq!(q.peek(), earliest, "seed {seed} at {now}");
                        now = match earliest {
                            Some(d) if rng.gen_bool(0.7) => d,
                            _ => now + rng.gen_range(3 * SLOTS as u64),
                        };
                    }
                    8 => now += rng.gen_range(3),
                    _ => {
                        if rng.gen_bool(0.1) {
                            q.clear(now);
                            model.clear();
                        }
                    }
                }
            }
            let mut left = Vec::new();
            q.for_each(|d, p| left.push((d.max(now), p)));
            let mut expect: Vec<_> = model.iter().map(|&(d, p)| (d.max(now), p)).collect();
            left.sort_unstable();
            expect.sort_unstable();
            assert_eq!(left, expect, "seed {seed}: final contents");
        }
    }
}
