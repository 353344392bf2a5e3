//! Delivery-time-ordered message queues.
//!
//! Every point-to-point message in the coherence and commit protocol
//! (load requests, invalidations, `TxInfoReq`/`TxInfoResp`, "Stop Clock",
//! "on", …) is carried by a [`TimedQueue`]: the sender stamps the message
//! with the cycle at which it becomes visible to the receiver, and the
//! receiver drains all messages whose delivery cycle has been reached.
//!
//! Messages with equal delivery cycles are delivered in FIFO (insertion)
//! order, which keeps the whole simulation deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::checkpoint::{CkptError, CkptReader, CkptWriter};
use crate::Cycle;

/// Internal heap entry. Ordered by `(deliver_at, seq)` ascending; the
/// sequence number breaks ties in insertion order.
#[derive(Debug)]
struct Entry<T> {
    deliver_at: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A queue of messages each carrying a delivery cycle.
#[derive(Debug)]
pub struct TimedQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for TimedQueue<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<T> TimedQueue<T> {
    /// Create an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of undelivered messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no messages at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Enqueue `payload` for delivery at cycle `deliver_at`.
    pub fn push(&mut self, deliver_at: Cycle, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            deliver_at,
            seq,
            payload,
        });
    }

    /// Delivery cycle of the earliest pending message, if any.
    #[must_use]
    pub fn next_delivery(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.deliver_at)
    }

    /// Pop the earliest message if its delivery cycle is `<= now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.heap.peek().is_some_and(|e| e.deliver_at <= now) {
            Some(self.heap.pop().expect("peeked entry must exist").payload)
        } else {
            None
        }
    }

    /// Drain every message ready at `now` into a vector (in delivery order).
    pub fn drain_ready(&mut self, now: Cycle) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(msg) = self.pop_ready(now) {
            out.push(msg);
        }
        out
    }

    /// Serialize the queue into a checkpoint payload; `save_payload` encodes
    /// one message. Entries are written in delivery order — `(deliver_at,
    /// seq)` ascending — with their original sequence numbers, so a reload
    /// reproduces both the delivery schedule and the FIFO tie-breaking of
    /// messages pushed after the restore point.
    pub fn save_ckpt(&self, w: &mut CkptWriter, mut save_payload: impl FnMut(&mut CkptWriter, &T)) {
        w.put_u64(self.next_seq);
        w.put_usize(self.heap.len());
        let mut entries: Vec<&Entry<T>> = self.heap.iter().collect();
        entries.sort_by_key(|e| (e.deliver_at, e.seq));
        for entry in entries {
            w.put_u64(entry.deliver_at);
            w.put_u64(entry.seq);
            save_payload(w, &entry.payload);
        }
    }

    /// Inverse of [`Self::save_ckpt`]; `load_payload` decodes one message.
    pub fn load_ckpt(
        r: &mut CkptReader<'_>,
        mut load_payload: impl FnMut(&mut CkptReader<'_>) -> Result<T, CkptError>,
    ) -> Result<Self, CkptError> {
        let next_seq = r.get_u64()?;
        let n = r.get_usize()?;
        let mut heap = BinaryHeap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let deliver_at = r.get_u64()?;
            let seq = r.get_u64()?;
            if seq >= next_seq {
                return Err(CkptError::Corrupt(format!(
                    "queue entry seq {seq} not below next_seq {next_seq}"
                )));
            }
            let payload = load_payload(r)?;
            heap.push(Entry {
                deliver_at,
                seq,
                payload,
            });
        }
        Ok(Self { heap, next_seq })
    }

    /// Delivery cycle of the earliest pending message if it lies strictly in
    /// the future of `now`. Callers use this *after* draining all ready
    /// messages to decide how far the engine may skip idle cycles; it returns
    /// `None` while the head of the queue is still deliverable at `now`.
    #[must_use]
    pub fn next_future_delivery(&self, now: Cycle) -> Option<Cycle> {
        self.next_delivery().filter(|&d| d > now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = TimedQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_ready(100), Some("a"));
        assert_eq!(q.pop_ready(100), Some("b"));
        assert_eq!(q.pop_ready(100), Some("c"));
        assert!(q.is_empty());
    }

    #[test]
    fn respects_delivery_cycle() {
        let mut q = TimedQueue::new();
        q.push(10, 1);
        assert_eq!(q.pop_ready(9), None);
        assert_eq!(q.pop_ready(10), Some(1));
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = TimedQueue::new();
        for i in 0..100 {
            q.push(5, i);
        }
        let drained = q.drain_ready(5);
        assert_eq!(drained, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn drain_only_takes_ready() {
        let mut q = TimedQueue::new();
        q.push(1, "early");
        q.push(50, "late");
        let drained = q.drain_ready(10);
        assert_eq!(drained, vec!["early"]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_delivery(), Some(50));
    }

    #[test]
    fn next_future_delivery_after_drain() {
        let mut q = TimedQueue::new();
        q.push(5, ());
        q.push(9, ());
        // While the head is still ready it reports None (caller must drain).
        assert_eq!(q.next_future_delivery(5), None);
        q.drain_ready(5);
        assert_eq!(q.next_future_delivery(5), Some(9));
        q.drain_ready(9);
        assert_eq!(q.next_future_delivery(9), None);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: TimedQueue<u8> = TimedQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_delivery(), None);
        assert_eq!(q.pop_ready(1000), None);
        assert!(q.drain_ready(1000).is_empty());
    }
}
