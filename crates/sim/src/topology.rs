//! Interconnect topologies: the shared bus and the banked/sharded fabrics.
//!
//! The paper's Table II machine hangs every processor, directory and the
//! commit-token vendor off one [`SplitTransactionBus`]. That is faithful up
//! to 16 processors but serializes the whole machine, so the reproduction
//! hides the interconnect behind the [`Topology`] trait:
//!
//! * [`SplitTransactionBus`] — the legacy shared bus. Routes are ignored;
//!   every transfer arbitrates for the single channel. This is the default
//!   and keeps all paper-configuration artifacts byte-identical.
//! * [`ShardedInterconnect`] — directories are grouped into independently
//!   arbitrated *banks* (channels), addresses stay interleaved across home
//!   directories, and a mesh or crossbar [`LatencyModel`] adds a
//!   receiver-side hop latency per route. Traffic to the token vendor uses a
//!   dedicated latency-only link, so commit-token arbitration never couples
//!   otherwise independent banks.
//!
//! The concrete machine holds an [`Interconnect`] (an enum over the two
//! implementations) so the simulation hot path stays free of virtual
//! dispatch; the trait exists so alternative fabrics can be plugged in and
//! tested against the same contract.

use serde::{Deserialize, Serialize};

use crate::bus::{BusStats, BusTraffic, SplitTransactionBus};
use crate::checkpoint::{CkptError, CkptReader, CkptWriter};
use crate::config::SimConfig;
use crate::{Cycle, DirId, ProcId};

/// An endpoint of the on-chip interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Node {
    /// A processor (core).
    Proc(ProcId),
    /// A directory (home node). Directory `d` is co-located with processor
    /// `d` on the mesh when both exist.
    Dir(DirId),
    /// The commit-token vendor (co-located with node 0 on the mesh).
    Vendor,
}

/// A source → destination pair describing one interconnect traversal.
///
/// ```
/// use htm_sim::topology::{Node, Route};
///
/// let miss_request = Route {
///     src: Node::Proc(3),
///     dst: Node::Dir(7),
/// };
/// assert_eq!(miss_request.dir(), Some(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Route {
    /// Sending endpoint.
    pub src: Node,
    /// Receiving endpoint.
    pub dst: Node,
}

impl Route {
    /// The directory endpoint of the route, if any. Protocol messages
    /// involve at most one directory; its bank decides which channel of a
    /// sharded fabric the transfer arbitrates for.
    #[must_use]
    pub fn dir(&self) -> Option<DirId> {
        match (self.src, self.dst) {
            (Node::Dir(d), _) | (_, Node::Dir(d)) => Some(d),
            _ => None,
        }
    }
}

/// Occupancy-and-latency contract every interconnect implements.
///
/// The trait mirrors the narrow interface `TccSystem` already used on the
/// shared bus: blocking transfers ([`Topology::request`]), future transfers
/// that do not reserve the channel ([`Topology::schedule_future`]) and the
/// statistics feeding the energy ledger. The fabric is demand-driven: a
/// channel release changes nothing until the next request, so the
/// fast-forward engine never asks it for a deadline. All methods are
/// deterministic functions of the call sequence, so any implementation
/// keeps runs bit-reproducible.
///
/// ```
/// use htm_sim::bus::{BusTraffic, SplitTransactionBus};
/// use htm_sim::topology::{Node, Route, Topology};
///
/// let mut bus = SplitTransactionBus::new(1, 4, 1);
/// let route = Route { src: Node::Proc(0), dst: Node::Dir(0) };
/// let done = Topology::request(&mut bus, 0, route, BusTraffic::Control);
/// assert_eq!(done, 2); // 1 payload cycle + 1 arbitration, route ignored
/// ```
pub trait Topology {
    /// Request a transfer along `route` at cycle `now`; returns the cycle at
    /// which the message is delivered (channel traversal plus any hop
    /// latency of the route).
    fn request(&mut self, now: Cycle, route: Route, kind: BusTraffic) -> Cycle;

    /// Account a transfer that happens at the future cycle `at` without
    /// reserving the channel in the meantime (split-transaction replies);
    /// returns the delivery cycle.
    fn schedule_future(&mut self, at: Cycle, route: Route, kind: BusTraffic) -> Cycle;

    /// Aggregate statistics over every channel of the fabric.
    fn stats(&self) -> BusStats;

    /// Per-bank statistics, in bank order; empty for the monolithic bus.
    fn shard_stats(&self) -> Vec<BusStats> {
        Vec::new()
    }
}

impl Topology for SplitTransactionBus {
    fn request(&mut self, now: Cycle, _route: Route, kind: BusTraffic) -> Cycle {
        SplitTransactionBus::request(self, now, kind)
    }

    fn schedule_future(&mut self, at: Cycle, _route: Route, kind: BusTraffic) -> Cycle {
        SplitTransactionBus::schedule_future(self, at, kind)
    }

    fn stats(&self) -> BusStats {
        SplitTransactionBus::stats(self)
    }
}

/// Hop-latency model of a sharded fabric: how long a message spends
/// traversing the switch fabric between its endpoints, *after* it has been
/// granted its bank channel. Receiver-side latency only — it never adds to
/// channel occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Single-stage crossbar: every route pays the same constant traversal
    /// latency.
    Crossbar {
        /// Cycles per crossbar traversal.
        hop_cycles: u64,
    },
    /// 2-D mesh: endpoints are laid out row-major on the smallest square
    /// grid that fits every node (directory `d` co-located with processor
    /// `d`, the vendor at node 0), and a route pays its Manhattan distance
    /// in hops.
    Mesh {
        /// Cycles per mesh hop.
        hop_cycles: u64,
    },
}

impl LatencyModel {
    /// Serialize into a checkpoint payload (tag byte + hop latency).
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        match *self {
            LatencyModel::Crossbar { hop_cycles } => {
                w.put_u8(0);
                w.put_u64(hop_cycles);
            }
            LatencyModel::Mesh { hop_cycles } => {
                w.put_u8(1);
                w.put_u64(hop_cycles);
            }
        }
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        match r.get_u8()? {
            0 => Ok(LatencyModel::Crossbar {
                hop_cycles: r.get_u64()?,
            }),
            1 => Ok(LatencyModel::Mesh {
                hop_cycles: r.get_u64()?,
            }),
            t => Err(CkptError::Corrupt(format!("invalid latency-model tag {t}"))),
        }
    }

    /// Default crossbar traversal latency (cycles).
    pub const DEFAULT_CROSSBAR_HOP: u64 = 2;
    /// Default per-hop mesh latency (cycles).
    pub const DEFAULT_MESH_HOP: u64 = 1;

    /// Short label used in sweep keys and CLI output: `x` for crossbar, `m`
    /// for mesh.
    #[must_use]
    pub fn key_letter(self) -> char {
        match self {
            LatencyModel::Crossbar { .. } => 'x',
            LatencyModel::Mesh { .. } => 'm',
        }
    }
}

/// Which interconnect a [`SimConfig`] machine instantiates.
///
/// The default is the paper's shared bus, which keeps every artifact of the
/// reproduction harness byte-identical; `Sharded` is the scale-out fabric
/// for 64–1024 processor machines.
///
/// ```
/// use htm_sim::topology::{LatencyModel, TopologyConfig};
///
/// assert_eq!(TopologyConfig::default(), TopologyConfig::Bus);
/// let sharded = TopologyConfig::parse("sharded:8:mesh").unwrap();
/// assert_eq!(sharded.effective_banks(64), 8);
/// assert_eq!(sharded.key_segment().as_deref(), Some("sh8m"));
/// assert_eq!(TopologyConfig::Bus.key_segment(), None);
/// assert!(matches!(
///     TopologyConfig::parse("sharded").unwrap(),
///     TopologyConfig::Sharded { banks: 0, model: LatencyModel::Crossbar { .. } }
/// ));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyConfig {
    /// One shared split-transaction bus (the paper's Table II machine).
    #[default]
    Bus,
    /// Banked directories on independently arbitrated channels with a
    /// point-to-point latency model.
    Sharded {
        /// Number of directory banks (independent channels). `0` means one
        /// bank per directory — the fully sharded machine.
        banks: usize,
        /// Fabric traversal latency model.
        model: LatencyModel,
    },
}

impl TopologyConfig {
    /// Serialize into a checkpoint payload (tag byte + per-variant fields).
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        match *self {
            TopologyConfig::Bus => w.put_u8(0),
            TopologyConfig::Sharded { banks, model } => {
                w.put_u8(1);
                w.put_usize(banks);
                model.save_ckpt(w);
            }
        }
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        match r.get_u8()? {
            0 => Ok(TopologyConfig::Bus),
            1 => Ok(TopologyConfig::Sharded {
                banks: r.get_usize()?,
                model: LatencyModel::load_ckpt(r)?,
            }),
            t => Err(CkptError::Corrupt(format!("invalid topology tag {t}"))),
        }
    }

    /// The fully sharded default: one bank per directory over a crossbar.
    #[must_use]
    pub fn sharded_default() -> Self {
        TopologyConfig::Sharded {
            banks: 0,
            model: LatencyModel::Crossbar {
                hop_cycles: LatencyModel::DEFAULT_CROSSBAR_HOP,
            },
        }
    }

    /// Parse a CLI topology spec: `bus`, `sharded`, `sharded:BANKS` or
    /// `sharded:BANKS:mesh|xbar` (`BANKS` = 0 means one bank per
    /// directory). Returns `None` on anything else.
    #[must_use]
    pub fn parse(spec: &str) -> Option<Self> {
        if spec == "bus" {
            return Some(TopologyConfig::Bus);
        }
        let mut parts = spec.split(':');
        if parts.next() != Some("sharded") {
            return None;
        }
        let banks = match parts.next() {
            None => 0,
            Some(b) => b.parse().ok()?,
        };
        let model = match parts.next() {
            None | Some("xbar" | "crossbar") => LatencyModel::Crossbar {
                hop_cycles: LatencyModel::DEFAULT_CROSSBAR_HOP,
            },
            Some("mesh") => LatencyModel::Mesh {
                hop_cycles: LatencyModel::DEFAULT_MESH_HOP,
            },
            Some(_) => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(TopologyConfig::Sharded { banks, model })
    }

    /// Number of independent bank channels this topology gives a machine
    /// with `num_dirs` directories. The bus counts as a single bank (every
    /// transfer shares one channel).
    #[must_use]
    pub fn effective_banks(&self, num_dirs: usize) -> usize {
        match *self {
            TopologyConfig::Bus => 1,
            TopologyConfig::Sharded { banks, .. } => {
                if banks == 0 {
                    num_dirs.max(1)
                } else {
                    banks.min(num_dirs.max(1))
                }
            }
        }
    }

    /// The bank channel directory `dir` lives on, for a machine with
    /// `num_dirs` directories.
    #[must_use]
    pub fn bank_of(&self, dir: DirId, num_dirs: usize) -> usize {
        dir % self.effective_banks(num_dirs)
    }

    /// Extra sweep-key segment (e.g. `sh8x`), or `None` for the default bus
    /// topology — bus sweep keys stay byte-identical to the pre-topology
    /// harness.
    #[must_use]
    pub fn key_segment(&self) -> Option<String> {
        match *self {
            TopologyConfig::Bus => None,
            TopologyConfig::Sharded { banks, model } => {
                Some(format!("sh{banks}{}", model.key_letter()))
            }
        }
    }

    /// Human-readable description for CLI banners and reports.
    #[must_use]
    pub fn describe(&self) -> String {
        match *self {
            TopologyConfig::Bus => "shared split-transaction bus".to_string(),
            TopologyConfig::Sharded { banks, model } => {
                let banks = if banks == 0 {
                    "one bank per directory".to_string()
                } else {
                    format!("{banks} banks")
                };
                let model = match model {
                    LatencyModel::Crossbar { hop_cycles } => {
                        format!("crossbar, {hop_cycles}-cycle traversal")
                    }
                    LatencyModel::Mesh { hop_cycles } => format!("mesh, {hop_cycles} cycles/hop"),
                };
                format!("sharded directories ({banks}; {model})")
            }
        }
    }
}

/// Banked/sharded directory interconnect.
///
/// Directories are interleaved across `banks` independently arbitrated
/// channels (`bank = dir % banks`); each channel is its own
/// [`SplitTransactionBus`] occupancy model, so commit bursts on one bank no
/// longer stall misses on another. Messages to or from the token vendor use
/// a dedicated latency-only link: they are charged transfer time and
/// statistics but never queue, which models a pipelined vendor port and
/// keeps banks independent of each other.
///
/// On top of the channel occupancy every delivery pays the
/// [`LatencyModel`]'s traversal latency for its route; that latency is
/// receiver-side and never occupies a channel.
///
/// ```
/// use htm_sim::bus::BusTraffic;
/// use htm_sim::config::SimConfig;
/// use htm_sim::topology::{Node, Route, ShardedInterconnect, Topology, TopologyConfig};
///
/// let mut cfg = SimConfig::table2(8);
/// cfg.topology = TopologyConfig::sharded_default();
/// let mut net = ShardedInterconnect::from_config(&cfg);
/// let a = net.request(0, Route { src: Node::Proc(0), dst: Node::Dir(0) }, BusTraffic::Control);
/// let b = net.request(0, Route { src: Node::Proc(1), dst: Node::Dir(1) }, BusTraffic::Control);
/// assert_eq!(a, b, "different banks never contend");
/// assert_eq!(net.shard_stats().len(), 8);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedInterconnect {
    banks: Vec<SplitTransactionBus>,
    num_dirs: usize,
    model: LatencyModel,
    /// Side of the square mesh grid (row-major node layout).
    mesh_side: usize,
    /// Occupancy of a control/data transfer on the vendor link.
    control_cycles: u64,
    data_cycles: u64,
    /// Tallies of the latency-only vendor link.
    vendor_stats: BusStats,
}

impl ShardedInterconnect {
    /// Build the fabric described by `cfg.topology` (which must be
    /// [`TopologyConfig::Sharded`]; a `Bus` config yields a single-bank
    /// fabric, useful only for tests).
    #[must_use]
    pub fn from_config(cfg: &SimConfig) -> Self {
        let banks = cfg.topology.effective_banks(cfg.num_dirs);
        let model = match cfg.topology {
            TopologyConfig::Sharded { model, .. } => model,
            TopologyConfig::Bus => LatencyModel::Crossbar {
                hop_cycles: LatencyModel::DEFAULT_CROSSBAR_HOP,
            },
        };
        let nodes = cfg.num_procs.max(cfg.num_dirs).max(1);
        let mut mesh_side = 1;
        while mesh_side * mesh_side < nodes {
            mesh_side += 1;
        }
        Self {
            banks: (0..banks)
                .map(|_| SplitTransactionBus::from_config(cfg))
                .collect(),
            num_dirs: cfg.num_dirs,
            model,
            mesh_side,
            control_cycles: cfg.bus_control_transfer_cycles().max(1),
            data_cycles: cfg.bus_line_transfer_cycles().max(1),
            vendor_stats: BusStats::default(),
        }
    }

    /// Number of bank channels.
    #[must_use]
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Fabric traversal latency of `route` under the configured model.
    #[must_use]
    pub fn hop_latency(&self, route: Route) -> u64 {
        let coord = |node: Node| {
            let idx = match node {
                Node::Proc(p) => p,
                Node::Dir(d) => d,
                Node::Vendor => 0,
            };
            (idx % self.mesh_side, idx / self.mesh_side)
        };
        match self.model {
            LatencyModel::Crossbar { hop_cycles } => hop_cycles,
            LatencyModel::Mesh { hop_cycles } => {
                let (sx, sy) = coord(route.src);
                let (dx, dy) = coord(route.dst);
                let hops = sx.abs_diff(dx) + sy.abs_diff(dy);
                hop_cycles * hops as u64
            }
        }
    }

    /// Serialize the fabric's full state (bank channels, geometry and the
    /// vendor-link tallies) into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_usize(self.banks.len());
        for bank in &self.banks {
            bank.save_ckpt(w);
        }
        w.put_usize(self.num_dirs);
        self.model.save_ckpt(w);
        w.put_usize(self.mesh_side);
        w.put_u64(self.control_cycles);
        w.put_u64(self.data_cycles);
        self.vendor_stats.save_ckpt(w);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let n = r.get_usize()?;
        let mut banks = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            banks.push(SplitTransactionBus::load_ckpt(r)?);
        }
        Ok(Self {
            banks,
            num_dirs: r.get_usize()?,
            model: LatencyModel::load_ckpt(r)?,
            mesh_side: r.get_usize()?,
            control_cycles: r.get_u64()?,
            data_cycles: r.get_u64()?,
            vendor_stats: BusStats::load_ckpt(r)?,
        })
    }

    /// Charge a transfer on the latency-only vendor link.
    fn vendor_transfer(&mut self, kind: BusTraffic) -> u64 {
        match kind {
            BusTraffic::Control => {
                self.vendor_stats.control_transfers += 1;
                self.vendor_stats.control_flits += self.control_cycles;
                self.vendor_stats.busy_cycles += self.control_cycles;
                self.control_cycles
            }
            BusTraffic::Data => {
                self.vendor_stats.data_transfers += 1;
                self.vendor_stats.data_flits += self.data_cycles;
                self.vendor_stats.busy_cycles += self.data_cycles;
                self.data_cycles
            }
        }
    }
}

impl Topology for ShardedInterconnect {
    fn request(&mut self, now: Cycle, route: Route, kind: BusTraffic) -> Cycle {
        let hop = self.hop_latency(route);
        let done = match route.dir() {
            Some(dir) => {
                let bank = dir % self.banks.len();

                self.banks[bank].request(now, kind)
            }
            None => crate::cycles_after(now, self.vendor_transfer(kind)),
        };
        crate::cycles_after(done, hop)
    }

    fn schedule_future(&mut self, at: Cycle, route: Route, kind: BusTraffic) -> Cycle {
        let hop = self.hop_latency(route);
        let done = match route.dir() {
            Some(dir) => {
                let bank = dir % self.banks.len();

                self.banks[bank].schedule_future(at, kind)
            }
            None => crate::cycles_after(at, self.vendor_transfer(kind)),
        };
        crate::cycles_after(done, hop)
    }

    fn stats(&self) -> BusStats {
        let mut total = self.vendor_stats;
        for bank in &self.banks {
            total.absorb(&bank.stats());
        }
        total
    }

    fn shard_stats(&self) -> Vec<BusStats> {
        self.banks.iter().map(SplitTransactionBus::stats).collect()
    }
}

/// The concrete interconnect a [`crate::config::SimConfig`] machine holds:
/// an enum over both [`Topology`] implementations, so the simulation hot
/// path pays no virtual dispatch.
///
/// ```
/// use htm_sim::config::SimConfig;
/// use htm_sim::topology::{Interconnect, TopologyConfig};
///
/// let mut cfg = SimConfig::table2(4);
/// assert!(matches!(Interconnect::from_config(&cfg), Interconnect::Bus(_)));
/// cfg.topology = TopologyConfig::sharded_default();
/// assert!(matches!(Interconnect::from_config(&cfg), Interconnect::Sharded(_)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Interconnect {
    /// The legacy shared bus.
    Bus(SplitTransactionBus),
    /// The banked/sharded fabric.
    Sharded(ShardedInterconnect),
}

impl Interconnect {
    /// Serialize the interconnect state (tag byte + variant payload).
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        match self {
            Interconnect::Bus(b) => {
                w.put_u8(0);
                b.save_ckpt(w);
            }
            Interconnect::Sharded(s) => {
                w.put_u8(1);
                s.save_ckpt(w);
            }
        }
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        match r.get_u8()? {
            0 => Ok(Interconnect::Bus(SplitTransactionBus::load_ckpt(r)?)),
            1 => Ok(Interconnect::Sharded(ShardedInterconnect::load_ckpt(r)?)),
            t => Err(CkptError::Corrupt(format!("invalid interconnect tag {t}"))),
        }
    }

    /// Instantiate the interconnect selected by `cfg.topology`.
    #[must_use]
    pub fn from_config(cfg: &SimConfig) -> Self {
        match cfg.topology {
            TopologyConfig::Bus => Interconnect::Bus(SplitTransactionBus::from_config(cfg)),
            TopologyConfig::Sharded { .. } => {
                Interconnect::Sharded(ShardedInterconnect::from_config(cfg))
            }
        }
    }
}

impl Topology for Interconnect {
    fn request(&mut self, now: Cycle, route: Route, kind: BusTraffic) -> Cycle {
        match self {
            Interconnect::Bus(b) => Topology::request(b, now, route, kind),
            Interconnect::Sharded(s) => s.request(now, route, kind),
        }
    }

    fn schedule_future(&mut self, at: Cycle, route: Route, kind: BusTraffic) -> Cycle {
        match self {
            Interconnect::Bus(b) => Topology::schedule_future(b, at, route, kind),
            Interconnect::Sharded(s) => s.schedule_future(at, route, kind),
        }
    }

    fn stats(&self) -> BusStats {
        match self {
            Interconnect::Bus(b) => SplitTransactionBus::stats(b),
            Interconnect::Sharded(s) => Topology::stats(s),
        }
    }

    fn shard_stats(&self) -> Vec<BusStats> {
        match self {
            Interconnect::Bus(_) => Vec::new(),
            Interconnect::Sharded(s) => Topology::shard_stats(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded_cfg(procs: usize, topology: TopologyConfig) -> SimConfig {
        let mut cfg = SimConfig::table2(procs);
        cfg.topology = topology;
        cfg
    }

    #[test]
    fn parse_covers_the_cli_grammar() {
        assert_eq!(TopologyConfig::parse("bus"), Some(TopologyConfig::Bus));
        assert!(TopologyConfig::parse("sharded").is_some());
        assert!(matches!(
            TopologyConfig::parse("sharded:4"),
            Some(TopologyConfig::Sharded { banks: 4, .. })
        ));
        assert!(matches!(
            TopologyConfig::parse("sharded:4:mesh"),
            Some(TopologyConfig::Sharded {
                banks: 4,
                model: LatencyModel::Mesh { .. }
            })
        ));
        assert!(TopologyConfig::parse("sharded:4:xbar").is_some());
        assert!(TopologyConfig::parse("ring").is_none());
        assert!(TopologyConfig::parse("sharded:x").is_none());
        assert!(TopologyConfig::parse("sharded:4:mesh:extra").is_none());
    }

    #[test]
    fn effective_banks_and_bank_of() {
        let t = TopologyConfig::sharded_default();
        assert_eq!(t.effective_banks(16), 16);
        assert_eq!(t.bank_of(13, 16), 13);
        let four = TopologyConfig::parse("sharded:4").unwrap();
        assert_eq!(four.effective_banks(16), 4);
        assert_eq!(four.bank_of(13, 16), 1);
        assert_eq!(TopologyConfig::Bus.effective_banks(16), 1);
        assert_eq!(TopologyConfig::Bus.bank_of(13, 16), 0);
    }

    #[test]
    fn disjoint_banks_do_not_contend() {
        let cfg = sharded_cfg(4, TopologyConfig::sharded_default());
        let mut net = ShardedInterconnect::from_config(&cfg);
        let r0 = Route {
            src: Node::Proc(0),
            dst: Node::Dir(0),
        };
        let r1 = Route {
            src: Node::Proc(1),
            dst: Node::Dir(1),
        };
        let a = net.request(0, r0, BusTraffic::Data);
        let b = net.request(0, r1, BusTraffic::Data);
        assert_eq!(a, b);
        // Same bank serializes exactly like the bus would.
        let c = net.request(0, r0, BusTraffic::Data);
        assert!(c > a);
    }

    #[test]
    fn mesh_routes_pay_manhattan_distance() {
        let cfg = sharded_cfg(
            16,
            TopologyConfig::Sharded {
                banks: 0,
                model: LatencyModel::Mesh { hop_cycles: 3 },
            },
        );
        let net = ShardedInterconnect::from_config(&cfg);
        // 16 nodes → 4x4 grid. Proc 0 is (0,0); dir 15 is (3,3): 6 hops.
        let far = Route {
            src: Node::Proc(0),
            dst: Node::Dir(15),
        };
        assert_eq!(net.hop_latency(far), 18);
        // Dir 5 is co-located with proc 5: zero hops.
        let local = Route {
            src: Node::Proc(5),
            dst: Node::Dir(5),
        };
        assert_eq!(net.hop_latency(local), 0);
    }

    #[test]
    fn crossbar_latency_is_route_independent() {
        let cfg = sharded_cfg(16, TopologyConfig::sharded_default());
        let net = ShardedInterconnect::from_config(&cfg);
        let near = Route {
            src: Node::Proc(0),
            dst: Node::Dir(0),
        };
        let far = Route {
            src: Node::Proc(0),
            dst: Node::Dir(15),
        };
        assert_eq!(net.hop_latency(near), net.hop_latency(far));
    }

    #[test]
    fn vendor_link_is_latency_only() {
        let cfg = sharded_cfg(4, TopologyConfig::sharded_default());
        let mut net = ShardedInterconnect::from_config(&cfg);
        let to_vendor = Route {
            src: Node::Proc(2),
            dst: Node::Vendor,
        };
        let a = net.request(0, to_vendor, BusTraffic::Control);
        let b = net.request(0, to_vendor, BusTraffic::Control);
        assert_eq!(a, b, "the pipelined vendor link never queues");
        let s = Topology::stats(&net);
        assert_eq!(s.control_transfers, 2);
        assert_eq!(s.wait_cycles, 0);
    }

    #[test]
    fn aggregate_stats_sum_banks_and_vendor() {
        let cfg = sharded_cfg(4, TopologyConfig::sharded_default());
        let mut net = ShardedInterconnect::from_config(&cfg);
        net.request(
            0,
            Route {
                src: Node::Proc(0),
                dst: Node::Dir(0),
            },
            BusTraffic::Data,
        );
        net.request(
            0,
            Route {
                src: Node::Proc(1),
                dst: Node::Dir(3),
            },
            BusTraffic::Control,
        );
        net.request(
            0,
            Route {
                src: Node::Proc(1),
                dst: Node::Vendor,
            },
            BusTraffic::Control,
        );
        let total = Topology::stats(&net);
        assert_eq!(total.data_transfers, 1);
        assert_eq!(total.control_transfers, 2);
        let per_bank = Topology::shard_stats(&net);
        assert_eq!(per_bank.len(), 4);
        assert_eq!(per_bank[0].data_transfers, 1);
        assert_eq!(per_bank[3].control_transfers, 1);
    }

    #[test]
    fn interconnect_enum_matches_config() {
        let bus = Interconnect::from_config(&SimConfig::table2(4));
        assert!(matches!(bus, Interconnect::Bus(_)));
        assert!(bus.shard_stats().is_empty());
        let cfg = sharded_cfg(4, TopologyConfig::parse("sharded:2").unwrap());
        let sharded = Interconnect::from_config(&cfg);
        assert!(matches!(sharded, Interconnect::Sharded(_)));
        assert_eq!(sharded.shard_stats().len(), 2);
    }

    #[test]
    fn key_segments_and_descriptions() {
        assert_eq!(TopologyConfig::Bus.key_segment(), None);
        assert_eq!(
            TopologyConfig::parse("sharded:8:mesh")
                .unwrap()
                .key_segment(),
            Some("sh8m".to_string())
        );
        assert_eq!(
            TopologyConfig::sharded_default().key_segment(),
            Some("sh0x".to_string())
        );
        assert!(TopologyConfig::Bus.describe().contains("bus"));
        assert!(TopologyConfig::sharded_default()
            .describe()
            .contains("bank"));
    }
}
