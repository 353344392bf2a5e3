//! Single-ported resource occupancy model.
//!
//! Table II specifies a main memory with a *single read/write port* and a
//! 100-cycle access latency. Directories are similarly modelled as servicing
//! one request at a time with a 10-cycle occupancy. [`SinglePortResource`]
//! captures both: a request arriving while the port is busy queues behind the
//! in-flight one.

use serde::{Deserialize, Serialize};

use crate::checkpoint::{CkptError, CkptReader, CkptWriter};
use crate::{cycles_after, Cycle};

/// Occupancy statistics of a single-ported resource.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortStats {
    /// Number of accesses serviced.
    pub accesses: u64,
    /// Total cycles the port was occupied.
    pub busy_cycles: u64,
    /// Total cycles requests waited for the port.
    pub queue_cycles: u64,
}

impl PortStats {
    /// Serialize the tallies into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_u64(self.accesses);
        w.put_u64(self.busy_cycles);
        w.put_u64(self.queue_cycles);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            accesses: r.get_u64()?,
            busy_cycles: r.get_u64()?,
            queue_cycles: r.get_u64()?,
        })
    }
}

/// A resource that services one request at a time with a fixed latency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SinglePortResource {
    latency: u64,
    next_free: Cycle,
    stats: PortStats,
}

impl SinglePortResource {
    /// Create a resource with the given per-access occupancy/latency.
    #[must_use]
    pub fn new(latency: u64) -> Self {
        Self {
            latency: latency.max(1),
            next_free: 0,
            stats: PortStats::default(),
        }
    }

    /// Serialize the port state into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_u64(self.latency);
        w.put_u64(self.next_free);
        self.stats.save_ckpt(w);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            latency: r.get_u64()?,
            next_free: r.get_u64()?,
            stats: PortStats::load_ckpt(r)?,
        })
    }

    /// Issue an access at cycle `now`; returns the completion cycle.
    pub fn access(&mut self, now: Cycle) -> Cycle {
        let start = self.next_free.max(now);
        self.stats.queue_cycles += start - now;
        let done = cycles_after(start, self.latency);
        self.stats.busy_cycles += self.latency;
        self.stats.accesses += 1;
        self.next_free = done;
        done
    }

    /// Per-access latency of this resource.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Cycle at which the port next becomes free.
    #[must_use]
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> PortStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_access_latency() {
        let mut mem = SinglePortResource::new(100);
        assert_eq!(mem.access(10), 110);
    }

    #[test]
    fn concurrent_accesses_queue() {
        let mut mem = SinglePortResource::new(100);
        assert_eq!(mem.access(0), 100);
        assert_eq!(mem.access(0), 200);
        assert_eq!(mem.access(0), 300);
        assert_eq!(mem.stats().queue_cycles, 100 + 200);
    }

    #[test]
    fn idle_port_services_immediately() {
        let mut mem = SinglePortResource::new(10);
        mem.access(0);
        assert_eq!(mem.access(1000), 1010);
        assert_eq!(mem.stats().queue_cycles, 0);
    }

    #[test]
    fn zero_latency_clamped_to_one() {
        let mut r = SinglePortResource::new(0);
        assert_eq!(r.access(5), 6);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = SinglePortResource::new(7);
        for i in 0..5 {
            r.access(i * 100);
        }
        let s = r.stats();
        assert_eq!(s.accesses, 5);
        assert_eq!(s.busy_cycles, 35);
    }
}
