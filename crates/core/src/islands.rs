//! Island decomposition and the shard-parallel runner.
//!
//! On a sharded topology ([`htm_sim::topology::TopologyConfig::Sharded`])
//! the interconnect is partitioned into independent per-bank channels and the
//! token vendor is a pipelined latency-only link whose TIDs depend only on
//! the requester. A group of processors whose memory operations all home
//! into a set of banks touched by no other processor therefore evolves with
//! **zero interaction** with the rest of the machine: no shared channel, no
//! shared directory, no shared arbitration state. We call such a group an
//! *island*.
//!
//! [`run_shard_parallel`] exploits this: it computes the islands of a
//! workload from its static trace (a union-find over processors and the
//! banks their addresses home into), simulates every island on its own host
//! thread as a full-size machine in which all other processors are idle, and
//! merges the per-island outcomes into a single [`RunOutcome`] that is
//! **bit-identical** to what the serial fast-forward engine produces for the
//! whole machine. The merge is exact because:
//!
//! * per-processor state (`state_cycles`, `proc_stats`) is owned by exactly
//!   one island; finished lanes are padded with run-power cycles exactly as
//!   a serial run accounts processors that are already done,
//! * per-directory and per-bank counters are touched by exactly one island,
//!   so fieldwise sums reproduce the serial tallies,
//! * the interval decomposition is *not* additive (two islands gated in
//!   overlapping windows contribute to a single larger `Xi` bucket in the
//!   serial run), so each lane records a run-length-encoded log of its
//!   per-cycle state counts and the merge zip-sums the logs cycle-by-cycle
//!   and replays them through
//!   [`htm_sim::interval::IntervalTracker::from_segments`].
//!
//! When the topology is the shared bus, or the workload collapses into a
//! single island, [`run_shard_parallel`] returns `Ok(None)` and the caller
//! falls back to the serial engine (which is bit-identical anyway).

use htm_mem::AddressMap;
use htm_sim::bus::BusStats;
use htm_sim::config::SimConfig;
use htm_sim::interval::{IntervalSeg, IntervalTracker};
use htm_sim::topology::TopologyConfig;
use htm_sim::{Cycle, ProcId};
use htm_tcc::dirctrl::DirCtrlStats;
use htm_tcc::stats::{ProcStats, RunOutcome, StateCycles};
use htm_tcc::system::{SimError, TccSystem};
use htm_tcc::txn::{Op, ThreadTrace, WorkloadTrace};

use crate::gating::controller::GatingStats;
use crate::gating::policy::UncoreCharges;
use crate::sim::GatingMode;

/// Result of a successful shard-parallel run: the merged outcome plus the
/// policy-level by-products the serial path reads off the hook.
#[derive(Debug, Clone)]
pub struct IslandRun {
    /// Merged protocol outcome, bit-identical to a serial run.
    pub outcome: RunOutcome,
    /// Merged gating-controller statistics (`None` for retry-style policies).
    pub gating: Option<GatingStats>,
    /// Merged uncore-charge declaration of the per-lane hooks.
    pub charges: UncoreCharges,
    /// Number of islands that were simulated in parallel.
    pub islands: usize,
}

/// Union-find over processors and interconnect banks, with path halving.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, so island identity does not
            // depend on union order.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Partition the processors of `workload` into conflict-isolated islands on
/// the interconnect of `cfg`.
///
/// Two processors land in the same island iff they (transitively) touch a
/// common interconnect bank — the unit of sharing on a sharded fabric. On
/// the monolithic bus every processor shares the single channel, so the
/// partition is one island. Processors that execute no transactions at all
/// belong to no island (they finish at cycle 0 and are synthesized into the
/// merged outcome directly).
///
/// Islands are returned sorted by their smallest processor id, each with its
/// processors in ascending order, so the decomposition is deterministic.
///
/// ```
/// use clockgate_htm::islands::partition_islands;
/// use htm_sim::config::SimConfig;
/// use htm_sim::topology::TopologyConfig;
/// use htm_tcc::txn::{Op, ThreadTrace, Transaction, WorkloadTrace};
///
/// let cfg = SimConfig::table2_with_topology(4, TopologyConfig::sharded_default());
/// // Threads 0 and 1 share segment 0 (directory 0); threads 2 and 3 share
/// // segment 1 (directory 1). Two islands.
/// let tx = |id, addr| Transaction::new(id, vec![Op::Write(addr)]);
/// let w = WorkloadTrace::new(
///     "two-clusters",
///     vec![
///         ThreadTrace::new(vec![tx(0x10, 0)]),
///         ThreadTrace::new(vec![tx(0x20, 64)]),
///         ThreadTrace::new(vec![tx(0x30, 4096)]),
///         ThreadTrace::new(vec![tx(0x40, 4160)]),
///     ],
/// );
/// assert_eq!(partition_islands(&cfg, &w), vec![vec![0, 1], vec![2, 3]]);
/// ```
#[must_use]
pub fn partition_islands(cfg: &SimConfig, workload: &WorkloadTrace) -> Vec<Vec<ProcId>> {
    let num_procs = cfg.num_procs;
    let map = AddressMap::new(cfg.line_bytes, cfg.directory_segment_bytes, cfg.num_dirs);
    // Nodes 0..num_procs are processors; num_procs.. are interconnect banks.
    let mut dsu = Dsu::new(num_procs + cfg.topology.effective_banks(cfg.num_dirs));
    for (i, thread) in workload.threads.iter().enumerate().take(num_procs) {
        for txn in &thread.transactions {
            for op in &txn.ops {
                let addr = match *op {
                    Op::Read(a) | Op::Write(a) => a,
                    Op::Compute(_) => continue,
                };
                let bank = cfg
                    .topology
                    .bank_of(map.home_of(map.line_of(addr)), cfg.num_dirs);
                dsu.union(i, num_procs + bank);
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<ProcId>> =
        std::collections::BTreeMap::new();
    for (i, thread) in workload.threads.iter().enumerate().take(num_procs) {
        if thread.transactions.is_empty() {
            continue;
        }
        let root = dsu.find(i);
        groups.entry(root).or_default().push(i);
    }
    let mut islands: Vec<Vec<ProcId>> = groups.into_values().collect();
    islands.sort_by_key(|island| island[0]);
    islands
}

/// Restrict `workload` to the processors of one island: a full-size trace in
/// which every processor outside the island has an empty thread (it finishes
/// immediately and accrues run-power cycles, exactly as in the serial run).
fn restrict_workload(workload: &WorkloadTrace, island: &[ProcId]) -> WorkloadTrace {
    let mut threads = vec![ThreadTrace::default(); workload.threads.len()];
    for &p in island {
        threads[p] = workload.threads[p].clone();
    }
    WorkloadTrace::new(workload.name.clone(), threads)
}

/// What one island lane hands back to the merge step. Everything here is
/// `Send`; the boxed policy hook itself never crosses the thread boundary.
struct LaneOutput {
    outcome: RunOutcome,
    gating: Option<GatingStats>,
    charges: UncoreCharges,
    log: Vec<IntervalSeg>,
}

/// Simulate one island to completion on the calling thread.
fn run_lane(
    cfg: &SimConfig,
    workload: &WorkloadTrace,
    island: &[ProcId],
    mode: GatingMode,
    limit: Cycle,
) -> Result<LaneOutput, SimError> {
    let lane_workload = restrict_workload(workload, island);
    let hook = mode.build(cfg);
    let mut sys = TccSystem::new(cfg.clone(), lane_workload, hook)?;
    sys.enable_interval_log();
    sys.advance_until(limit);
    if !sys.is_complete() {
        return Err(SimError::CycleLimitExceeded { limit });
    }
    let (outcome, hook, log) = sys.into_parts_with_log();
    Ok(LaneOutput {
        gating: hook.gating_stats(),
        charges: hook.uncore_charges(),
        outcome,
        log,
    })
}

/// Zip-sum the per-lane run-length-encoded interval logs into the global
/// per-cycle state counts and replay them through the tracker.
///
/// Interval counts are not additive across islands — two islands gated in
/// overlapping windows must land in one larger `Xi` bucket, as the serial
/// tracker would record — but the tracker *is* a pure function of the
/// per-cycle count sequence, and that sequence is the cycle-wise sum of the
/// lane sequences (exhausted lanes contribute zero). The actual summing is
/// [`htm_sim::interval::zip_sum_segments`]; lanes that finish before the
/// slowest island are padded to the global length with a zero-count tail,
/// because a finished island's processors spend those cycles in no tracked
/// state.
fn merge_intervals(
    num_procs: usize,
    total_cycles: Cycle,
    logs: &[Vec<IntervalSeg>],
) -> IntervalTracker {
    let padded: Vec<Vec<IntervalSeg>> = logs
        .iter()
        .map(|log| {
            let covered: Cycle = log.iter().map(|seg| seg.cycles).sum();
            let mut log = log.clone();
            if covered < total_cycles {
                log.push(IntervalSeg {
                    cycles: total_cycles - covered,
                    ..IntervalSeg::default()
                });
            }
            log
        })
        .collect();
    let mut merged: Vec<IntervalSeg> = Vec::new();
    htm_sim::interval::zip_sum_segments(&padded, total_cycles, |seg| merged.push(seg));
    IntervalTracker::from_segments(num_procs, &merged)
}

/// Merge the per-island outcomes into the global one the serial engine would
/// have produced.
fn merge_lanes(
    cfg: &SimConfig,
    workload: &WorkloadTrace,
    islands: &[Vec<ProcId>],
    lanes: Vec<LaneOutput>,
) -> IslandRun {
    let num_procs = cfg.num_procs;
    let total_cycles = lanes
        .iter()
        .map(|l| l.outcome.total_cycles)
        .max()
        .unwrap_or(0);
    // Every lane contains at least one processor with at least one
    // transaction (zero-transaction processors are excluded from islands),
    // so each lane's first_tx_start is genuine and the global one is their
    // minimum.
    let first_tx_start = lanes
        .iter()
        .map(|l| l.outcome.first_tx_start)
        .min()
        .unwrap_or(0);
    let last_commit_end = lanes
        .iter()
        .map(|l| l.outcome.last_commit_end)
        .max()
        .unwrap_or(0);

    // Processors outside every island executed no transactions: in a serial
    // run they are done at cycle 0 and accrue run-power cycles for the whole
    // parallel section.
    let mut state_cycles = vec![
        StateCycles {
            run: total_cycles,
            ..Default::default()
        };
        num_procs
    ];
    let mut proc_stats = vec![ProcStats::new(); num_procs];
    let mut bus = BusStats::default();
    let mut shard_bus = vec![BusStats::default(); cfg.topology.effective_banks(cfg.num_dirs)];
    let mut dir_stats = vec![DirCtrlStats::default(); cfg.num_dirs];
    let mut gating: Option<GatingStats> = None;
    let mut charges = UncoreCharges::none();

    for (island, lane) in islands.iter().zip(&lanes) {
        for &p in island {
            let mut sc = lane.outcome.state_cycles[p];
            // A processor that is done keeps accruing run cycles in a serial
            // run; pad the owner lane's accounting out to the global length.
            sc.run += total_cycles - lane.outcome.total_cycles;
            state_cycles[p] = sc;
            proc_stats[p] = lane.outcome.proc_stats[p].clone();
        }
        bus.absorb(&lane.outcome.bus);
        for (merged, b) in shard_bus.iter_mut().zip(&lane.outcome.shard_bus) {
            merged.absorb(b);
        }
        for (merged, d) in dir_stats.iter_mut().zip(&lane.outcome.dir_stats) {
            merged.absorb(d);
        }
        if let Some(g) = &lane.gating {
            gating.get_or_insert_with(GatingStats::default).absorb(g);
        }
        charges.gating_hardware |= lane.charges.gating_hardware;
        charges.renewal_txinfo_roundtrips += lane.charges.renewal_txinfo_roundtrips;
    }

    let intervals = merge_intervals(
        num_procs,
        total_cycles,
        &lanes.iter().map(|l| l.log.clone()).collect::<Vec<_>>(),
    );

    let total_commits = proc_stats.iter().map(|s| s.commits).sum();
    let total_aborts = proc_stats.iter().map(|s| s.aborts).sum();
    let total_gatings = proc_stats.iter().map(|s| s.gatings).sum();

    IslandRun {
        outcome: RunOutcome {
            workload: workload.name.clone(),
            num_procs,
            total_cycles,
            first_tx_start,
            last_commit_end,
            state_cycles,
            proc_stats,
            intervals,
            bus,
            shard_bus,
            dir_stats,
            total_commits,
            total_aborts,
            total_gatings,
        },
        gating,
        charges,
        islands: islands.len(),
    }
}

/// Run `workload` on the machine of `cfg` with the islands simulated on
/// parallel host threads, producing an outcome bit-identical to the serial
/// fast-forward engine.
///
/// Returns `Ok(None)` when the decomposition cannot help — the topology is
/// the shared bus (every processor shares one channel) or the workload
/// collapses into at most one island — in which case the caller should fall
/// back to the serial engine. Returns an error if any lane fails (the lanes
/// are checked in island order, so the reported error is deterministic).
pub fn run_shard_parallel(
    cfg: &SimConfig,
    workload: &WorkloadTrace,
    mode: GatingMode,
    limit: Cycle,
) -> Result<Option<IslandRun>, SimError> {
    if !matches!(cfg.topology, TopologyConfig::Sharded { .. }) {
        return Ok(None);
    }
    cfg.validate().map_err(SimError::BadConfig)?;
    if workload.num_threads() != cfg.num_procs {
        return Err(SimError::BadWorkload(format!(
            "workload has {} threads but the machine has {} processors",
            workload.num_threads(),
            cfg.num_procs
        )));
    }
    let islands = partition_islands(cfg, workload);
    if islands.len() <= 1 {
        return Ok(None);
    }

    // Fan the lanes out over the persistent worker pool instead of spawning
    // a thread per island; each lane writes its own slot, so the results
    // stay in island order regardless of completion order.
    let mut results: Vec<Option<Result<LaneOutput, SimError>>> = Vec::new();
    results.resize_with(islands.len(), || None);
    crate::pool::WorkerPool::global().scope(|scope| {
        for (slot, island) in results.iter_mut().zip(&islands) {
            scope.spawn(move || *slot = Some(run_lane(cfg, workload, island, mode, limit)));
        }
    });
    let mut lanes = Vec::with_capacity(results.len());
    for result in results {
        lanes.push(result.expect("island lane completed")?);
    }
    Ok(Some(merge_lanes(cfg, workload, &islands, lanes)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_tcc::txn::Transaction;

    fn sharded_cfg(procs: usize) -> SimConfig {
        SimConfig::table2_with_topology(procs, TopologyConfig::sharded_default())
    }

    fn tx(id: u64, addrs: &[u64]) -> Transaction {
        Transaction::new(id, addrs.iter().map(|&a| Op::Write(a)).collect::<Vec<_>>())
    }

    fn clustered(procs: usize, cluster: usize) -> WorkloadTrace {
        // `cluster` threads per group, each group confined to its own 4 KiB
        // segment (= its own directory and bank).
        let threads = (0..procs)
            .map(|i| {
                let seg = (i / cluster) as u64 * 4096;
                ThreadTrace::new(vec![tx(0x100 + i as u64, &[seg, seg + 64, seg + 128])])
            })
            .collect();
        WorkloadTrace::new("clustered-test", threads)
    }

    #[test]
    fn bus_topology_is_one_island_and_falls_back() {
        let cfg = SimConfig::table2(8);
        let w = clustered(8, 2);
        assert_eq!(
            partition_islands(&cfg, &w),
            vec![(0..8).collect::<Vec<_>>()],
            "the monolithic bus couples every processor"
        );
        assert!(run_shard_parallel(&cfg, &w, GatingMode::Ungated, 1_000_000)
            .unwrap()
            .is_none());
    }

    #[test]
    fn disjoint_clusters_form_one_island_each() {
        let cfg = sharded_cfg(8);
        let islands = partition_islands(&cfg, &clustered(8, 2));
        assert_eq!(
            islands,
            vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]
        );
    }

    #[test]
    fn zero_transaction_threads_belong_to_no_island() {
        let cfg = sharded_cfg(4);
        let w = WorkloadTrace::new(
            "sparse",
            vec![
                ThreadTrace::new(vec![tx(1, &[0])]),
                ThreadTrace::default(),
                ThreadTrace::new(vec![tx(2, &[4096])]),
                ThreadTrace::default(),
            ],
        );
        assert_eq!(partition_islands(&cfg, &w), vec![vec![0], vec![2]]);
    }

    #[test]
    fn overlapping_segments_merge_islands() {
        let cfg = sharded_cfg(4);
        let w = WorkloadTrace::new(
            "chained",
            vec![
                ThreadTrace::new(vec![tx(1, &[0])]),
                ThreadTrace::new(vec![tx(2, &[0, 4096])]),
                ThreadTrace::new(vec![tx(3, &[4096])]),
                ThreadTrace::new(vec![tx(4, &[8192])]),
            ],
        );
        assert_eq!(partition_islands(&cfg, &w), vec![vec![0, 1, 2], vec![3]]);
    }

    /// The headline contract: the merged shard-parallel outcome is equal
    /// field-for-field to the serial fast-forward run of the whole machine.
    #[test]
    fn shard_parallel_outcome_is_bit_identical_to_serial() {
        use htm_tcc::system::EngineKind;
        for mode in [
            GatingMode::Ungated,
            GatingMode::ClockGate { w0: 8 },
            GatingMode::Throttle { w0: 8 },
        ] {
            let cfg = sharded_cfg(8);
            let w = clustered(8, 2);
            let parallel = run_shard_parallel(&cfg, &w, mode, 1_000_000)
                .unwrap()
                .expect("4 islands must parallelize");
            assert_eq!(parallel.islands, 4);

            let hook = mode.build(&cfg);
            let (serial, hook) = TccSystem::new(cfg, w, hook)
                .unwrap()
                .run_bounded(1_000_000, EngineKind::FastForward)
                .unwrap();
            assert_eq!(parallel.outcome, serial, "{mode:?}");
            assert_eq!(parallel.gating, hook.gating_stats(), "{mode:?}");
            assert_eq!(
                parallel.charges.renewal_txinfo_roundtrips,
                hook.uncore_charges().renewal_txinfo_roundtrips
            );
            parallel.outcome.check_consistency().unwrap();
        }
    }

    #[test]
    fn cycle_limit_errors_propagate_from_lanes() {
        let cfg = sharded_cfg(8);
        let w = clustered(8, 2);
        let err = run_shard_parallel(&cfg, &w, GatingMode::Ungated, 3).unwrap_err();
        assert!(matches!(err, SimError::CycleLimitExceeded { limit: 3 }));
    }
}
