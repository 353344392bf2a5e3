//! Common split-transaction bus model (Table II: "Interconnect").
//!
//! The bus is modelled at the occupancy level: every transfer occupies the
//! shared data/address path for a number of cycles derived from its payload
//! size, plus a fixed arbitration overhead. Transfers are granted in request
//! order (which, combined with the deterministic engine, approximates a
//! round-robin arbiter under the in-order cores of the paper). The model
//! captures the first-order effect the protocol cares about: commit bursts
//! and miss storms from many processors serialize on the interconnect.

use serde::{Deserialize, Serialize};

use crate::checkpoint::{CkptError, CkptReader, CkptWriter};
use crate::{cycles_after, Cycle};

/// Categories of bus transfers, used for statistics only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BusTraffic {
    /// Short control message (requests, acknowledgements, invalidations,
    /// gating control such as "Stop Clock" / "on" / `TxInfoReq`).
    Control,
    /// Full cache-line data transfer (miss fills, commit write-backs).
    Data,
}

/// Per-category transfer counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusStats {
    /// Number of control transfers granted.
    pub control_transfers: u64,
    /// Number of data (cache line) transfers granted.
    pub data_transfers: u64,
    /// Total cycles the bus was occupied by granted transfers.
    pub busy_cycles: u64,
    /// Total cycles requesters spent waiting for the bus to become free.
    pub wait_cycles: u64,
    /// Payload cycles ("flits") moved by control transfers, excluding
    /// arbitration. One flit is one cycle of occupancy of the data path, so
    /// the tally is the quantity the interconnect energy model charges.
    pub control_flits: u64,
    /// Payload cycles moved by data (cache line) transfers, excluding
    /// arbitration.
    pub data_flits: u64,
}

impl BusStats {
    /// Total payload flits of both categories (the interconnect activity the
    /// energy ledger charges).
    #[must_use]
    pub fn total_flits(&self) -> u64 {
        self.control_flits + self.data_flits
    }

    /// Serialize the tallies into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_u64(self.control_transfers);
        w.put_u64(self.data_transfers);
        w.put_u64(self.busy_cycles);
        w.put_u64(self.wait_cycles);
        w.put_u64(self.control_flits);
        w.put_u64(self.data_flits);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            control_transfers: r.get_u64()?,
            data_transfers: r.get_u64()?,
            busy_cycles: r.get_u64()?,
            wait_cycles: r.get_u64()?,
            control_flits: r.get_u64()?,
            data_flits: r.get_u64()?,
        })
    }

    /// Add another channel's tallies into this one (used to aggregate the
    /// banks of a sharded fabric). Every field is a plain sum, so
    /// aggregation is order-independent.
    pub fn absorb(&mut self, other: &BusStats) {
        self.control_transfers += other.control_transfers;
        self.data_transfers += other.data_transfers;
        self.busy_cycles += other.busy_cycles;
        self.wait_cycles += other.wait_cycles;
        self.control_flits += other.control_flits;
        self.data_flits += other.data_flits;
    }
}

/// Occupancy model of one split-transaction channel: the whole interconnect
/// of the legacy shared-bus machine, or one independently arbitrated bank
/// channel of the sharded fabric ([`crate::topology`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitTransactionBus {
    /// First cycle at which the bus is free again.
    next_free: Cycle,
    /// Cycles a control transfer occupies the bus.
    control_cycles: u64,
    /// Cycles a full-line data transfer occupies the bus.
    data_cycles: u64,
    /// Fixed arbitration overhead per transfer.
    arbitration: u64,
    /// Statistics.
    stats: BusStats,
}

impl SplitTransactionBus {
    /// Create a bus. `control_cycles` / `data_cycles` are the occupancy of a
    /// control message and of a full cache-line transfer respectively;
    /// `arbitration` is added to every transfer.
    #[must_use]
    pub fn new(control_cycles: u64, data_cycles: u64, arbitration: u64) -> Self {
        Self {
            next_free: 0,
            control_cycles: control_cycles.max(1),
            data_cycles: data_cycles.max(1),
            arbitration,
            stats: BusStats::default(),
        }
    }

    /// Build from a [`crate::config::SimConfig`].
    #[must_use]
    pub fn from_config(cfg: &crate::config::SimConfig) -> Self {
        Self::new(
            cfg.bus_control_transfer_cycles(),
            cfg.bus_line_transfer_cycles(),
            cfg.bus_arbitration_latency,
        )
    }

    /// Serialize the channel state (release time, occupancy parameters and
    /// tallies) into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_u64(self.next_free);
        w.put_u64(self.control_cycles);
        w.put_u64(self.data_cycles);
        w.put_u64(self.arbitration);
        self.stats.save_ckpt(w);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            next_free: r.get_u64()?,
            control_cycles: r.get_u64()?,
            data_cycles: r.get_u64()?,
            arbitration: r.get_u64()?,
            stats: BusStats::load_ckpt(r)?,
        })
    }

    /// Request the bus at cycle `now` for a transfer of class `kind`.
    ///
    /// Returns the cycle at which the transfer has fully traversed the bus
    /// (i.e. the earliest cycle the message may be considered delivered to
    /// the other side, before any receiver-side latency is added).
    pub fn request(&mut self, now: Cycle, kind: BusTraffic) -> Cycle {
        let occupancy = match kind {
            BusTraffic::Control => {
                self.stats.control_transfers += 1;
                self.stats.control_flits += self.control_cycles;
                self.control_cycles
            }
            BusTraffic::Data => {
                self.stats.data_transfers += 1;
                self.stats.data_flits += self.data_cycles;
                self.data_cycles
            }
        } + self.arbitration;

        let start = self.next_free.max(now);
        self.stats.wait_cycles += start - now;
        let done = cycles_after(start, occupancy);
        self.stats.busy_cycles += occupancy;
        self.next_free = done;
        done
    }

    /// Occupancy (in cycles, including arbitration) of a transfer of class
    /// `kind`.
    #[must_use]
    pub fn transfer_latency(&self, kind: BusTraffic) -> u64 {
        match kind {
            BusTraffic::Control => self.control_cycles + self.arbitration,
            BusTraffic::Data => self.data_cycles + self.arbitration,
        }
    }

    /// Account a transfer that will happen at the (future) cycle `at` without
    /// reserving the channel between now and then.
    ///
    /// A split-transaction bus releases the channel while a long-latency
    /// operation (a memory access behind a miss) is in flight; the reply is
    /// re-arbitrated when the data is ready. Modelling that re-arbitration
    /// exactly would require knowing the future occupancy of the bus, so the
    /// reply is charged its transfer time and counted in the statistics, but
    /// it does not block requests issued in the meantime. See DESIGN.md
    /// ("interconnect model") for the discussion of this simplification.
    pub fn schedule_future(&mut self, at: Cycle, kind: BusTraffic) -> Cycle {
        let occupancy = self.transfer_latency(kind);
        match kind {
            BusTraffic::Control => {
                self.stats.control_transfers += 1;
                self.stats.control_flits += self.control_cycles;
            }
            BusTraffic::Data => {
                self.stats.data_transfers += 1;
                self.stats.data_flits += self.data_cycles;
            }
        }
        self.stats.busy_cycles += occupancy;
        cycles_after(at, occupancy)
    }

    /// Cycle at which the bus next becomes idle.
    #[must_use]
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Bus utilisation over `total_cycles` of simulated time, in `[0, 1]`.
    #[must_use]
    pub fn utilisation(&self, total_cycles: Cycle) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.stats.busy_cycles as f64 / total_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    #[test]
    fn uncontended_transfer_takes_occupancy() {
        let mut bus = SplitTransactionBus::new(1, 4, 1);
        // control: 1 + 1 arbitration = 2 cycles
        assert_eq!(bus.request(0, BusTraffic::Control), 2);
        // bus now busy until cycle 2
        assert_eq!(bus.next_free(), 2);
    }

    #[test]
    fn back_to_back_transfers_serialize() {
        let mut bus = SplitTransactionBus::new(1, 4, 0);
        let a = bus.request(0, BusTraffic::Data); // 0..4
        let b = bus.request(0, BusTraffic::Data); // 4..8
        let c = bus.request(0, BusTraffic::Control); // 8..9
        assert_eq!(a, 4);
        assert_eq!(b, 8);
        assert_eq!(c, 9);
        assert_eq!(bus.stats().wait_cycles, 4 + 8);
    }

    #[test]
    fn idle_gaps_are_not_counted_busy() {
        let mut bus = SplitTransactionBus::new(1, 4, 0);
        bus.request(0, BusTraffic::Control);
        bus.request(100, BusTraffic::Control);
        assert_eq!(bus.stats().busy_cycles, 2);
        assert!(bus.utilisation(101) < 0.03);
    }

    #[test]
    fn from_config_uses_line_and_width() {
        let cfg = SimConfig::table2(4);
        let mut bus = SplitTransactionBus::from_config(&cfg);
        // 64B over 16B/cycle = 4 cycles + 1 arbitration
        assert_eq!(bus.request(0, BusTraffic::Data), 5);
    }

    #[test]
    fn stats_track_both_classes() {
        let mut bus = SplitTransactionBus::new(1, 4, 0);
        bus.request(0, BusTraffic::Control);
        bus.request(0, BusTraffic::Data);
        bus.request(0, BusTraffic::Data);
        let s = bus.stats();
        assert_eq!(s.control_transfers, 1);
        assert_eq!(s.data_transfers, 2);
        assert_eq!(s.busy_cycles, 1 + 4 + 4);
    }

    #[test]
    fn flit_tallies_exclude_arbitration_and_cover_future_transfers() {
        let mut bus = SplitTransactionBus::new(1, 4, 1);
        bus.request(0, BusTraffic::Control);
        bus.request(0, BusTraffic::Data);
        bus.schedule_future(100, BusTraffic::Data);
        let s = bus.stats();
        assert_eq!(s.control_flits, 1);
        assert_eq!(s.data_flits, 8, "two data transfers x 4 payload cycles");
        assert_eq!(s.total_flits(), 9);
        // busy_cycles additionally charges the per-transfer arbitration.
        assert_eq!(s.busy_cycles, 2 + 5 + 5);
    }

    #[test]
    fn utilisation_zero_cycles_is_zero() {
        let bus = SplitTransactionBus::new(1, 4, 0);
        assert_eq!(bus.utilisation(0), 0.0);
    }
}
