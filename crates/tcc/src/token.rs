//! Centralized token vendor.
//!
//! In Scalable TCC "a centralized token vendor generates a token id when a
//! processor reaches the commit stage. This token id (TID) acts as a
//! timestamp for the transaction commit" — conflicting commits to the same
//! directory serialize on it, older (lower) TIDs first.
//!
//! The vendor has two service models:
//!
//! * **Serial** (the bus machine): requests occupy a single port one at a
//!   time, and TIDs are a simple issue counter. Faithful to a small
//!   centralized unit, but it couples every committer in the machine.
//! * **Pipelined** (sharded topologies): the vendor accepts one request per
//!   cycle and stamps each with a Lamport-style TID derived from its arrival
//!   cycle and the requesting processor id. Age order is preserved (earlier
//!   arrival ⇒ lower TID; ties broken by processor id), replies take the
//!   same fixed latency, and the TID handed to a processor depends only on
//!   *that processor's own* request, never on traffic from unrelated
//!   processors.

use serde::{Deserialize, Serialize};

use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::port::SinglePortResource;
use htm_sim::{Cycle, ProcId};

/// A commit timestamp. Lower values are older and win commit arbitration.
pub type Tid = u64;

/// Bits reserved for the processor id in pipelined (Lamport) TIDs; matches
/// [`htm_sim::MAX_PROCS`].
const TID_PROC_BITS: u32 = 10;

/// The centralized TID generator.
///
/// Requests are serviced one at a time in serial mode (the vendor is a
/// single shared resource) or accepted every cycle in pipelined mode; each
/// request takes the configured vendor latency on top of the interconnect
/// time paid by the caller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TokenVendor {
    next_tid: Tid,
    port: SinglePortResource,
    issued: u64,
    pipelined: bool,
    latency: u64,
}

impl TokenVendor {
    /// Create a serial vendor with the given per-request service latency.
    #[must_use]
    pub fn new(latency: u64) -> Self {
        Self {
            next_tid: 1,
            port: SinglePortResource::new(latency),
            issued: 0,
            pipelined: false,
            latency,
        }
    }

    /// Create a pipelined vendor (sharded topologies): fixed reply latency,
    /// no queuing, Lamport TIDs of the form `arrival_cycle · 1024 + proc`.
    #[must_use]
    pub fn pipelined(latency: u64) -> Self {
        Self {
            pipelined: true,
            ..Self::new(latency)
        }
    }

    /// Whether this vendor runs in the pipelined (sharded) service model.
    #[must_use]
    pub fn is_pipelined(&self) -> bool {
        self.pipelined
    }

    /// Request a TID for `proc` at cycle `now`. Returns the assigned TID and
    /// the cycle at which the reply is ready to leave the vendor.
    pub fn request(&mut self, now: Cycle, proc: ProcId) -> (Tid, Cycle) {
        self.issued += 1;
        if self.pipelined {
            let tid = (now << TID_PROC_BITS) | proc as Tid;
            (tid, now + self.latency)
        } else {
            let ready = self.port.access(now);
            let tid = self.next_tid;
            self.next_tid += 1;
            (tid, ready)
        }
    }

    /// Number of TIDs issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The TID a serial vendor will hand out next (pipelined TIDs depend on
    /// the arrival cycle, so this is only meaningful in serial mode).
    #[must_use]
    pub fn peek_next(&self) -> Tid {
        self.next_tid
    }

    /// Serialize the vendor state into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_u64(self.next_tid);
        self.port.save_ckpt(w);
        w.put_u64(self.issued);
        w.put_bool(self.pipelined);
        w.put_u64(self.latency);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            next_tid: r.get_u64()?,
            port: SinglePortResource::load_ckpt(r)?,
            issued: r.get_u64()?,
            pipelined: r.get_bool()?,
            latency: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tids_are_monotonically_increasing() {
        let mut v = TokenVendor::new(5);
        let (a, _) = v.request(0, 0);
        let (b, _) = v.request(0, 1);
        let (c, _) = v.request(100, 0);
        assert!(a < b && b < c);
        assert_eq!(v.issued(), 3);
    }

    #[test]
    fn concurrent_requests_serialize() {
        let mut v = TokenVendor::new(10);
        let (_, r1) = v.request(0, 0);
        let (_, r2) = v.request(0, 1);
        assert_eq!(r1, 10);
        assert_eq!(r2, 20);
    }

    #[test]
    fn earlier_requester_gets_lower_tid() {
        let mut v = TokenVendor::new(5);
        let (first, _) = v.request(0, 1);
        let (second, _) = v.request(1, 0);
        assert!(first < second);
    }

    #[test]
    fn peek_does_not_consume() {
        let v = TokenVendor::new(5);
        assert_eq!(v.peek_next(), 1);
        assert_eq!(v.issued(), 0);
    }

    #[test]
    fn pipelined_vendor_never_queues() {
        let mut v = TokenVendor::pipelined(5);
        let (_, r1) = v.request(0, 0);
        let (_, r2) = v.request(0, 1);
        assert_eq!(r1, 5);
        assert_eq!(r2, 5, "same-cycle requests are not serialized");
        assert_eq!(v.issued(), 2);
    }

    #[test]
    fn pipelined_tids_preserve_age_order() {
        let mut v = TokenVendor::pipelined(5);
        let (t0a, _) = v.request(0, 3);
        let (t0b, _) = v.request(0, 7);
        let (t1, _) = v.request(1, 0);
        assert!(t0a < t0b, "same cycle: lower proc id is older");
        assert!(t0b < t1, "earlier cycle always beats later cycle");
    }

    #[test]
    fn pipelined_tids_depend_only_on_own_request() {
        // The TID proc 5 receives at cycle 40 is identical whether or not
        // other processors requested earlier.
        let mut busy = TokenVendor::pipelined(5);
        busy.request(0, 0);
        busy.request(10, 1);
        let (busy_tid, busy_ready) = busy.request(40, 5);
        let mut quiet = TokenVendor::pipelined(5);
        let (quiet_tid, quiet_ready) = quiet.request(40, 5);
        assert_eq!(busy_tid, quiet_tid);
        assert_eq!(busy_ready, quiet_ready);
    }
}
