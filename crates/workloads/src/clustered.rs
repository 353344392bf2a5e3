//! `clustered` — communication-clustered workload for large machines.
//!
//! The STAMP-like generators share one global hot region, so at any machine
//! size every processor conflicts (transitively) with every other one. That
//! is the right model for the paper's 4–16-processor bus machines, but a
//! 64–1024-processor machine running a server-consolidation or
//! partitioned-data workload looks different: threads form small groups that
//! share intensely *within* the group and not at all across groups.
//!
//! This generator models exactly that. Threads are grouped into clusters of
//! [`CLUSTER_THREADS`]; each cluster gets its own intruder-like shared
//! region (hot queue head + dictionary, cold table, private lines), confined
//! to a dedicated [`CLUSTER_STRIDE_BYTES`]-aligned address window. With the
//! default 4 KiB directory segments a cluster covers eight consecutive
//! segments, so on a machine with one directory per processor each cluster's
//! data is homed at directories no other cluster touches: the clusters are
//! conflict-isolated, and on the sharded fabric their traffic arbitrates
//! for disjoint banks.

use htm_mem::Addr;
use htm_tcc::txn::{Op, WorkloadTrace};

use crate::spec::{Range, SyntheticSpec, WorkloadScale};

/// Threads per cluster.
pub const CLUSTER_THREADS: usize = 8;

/// Byte stride between cluster address windows (32 KiB = eight 4 KiB
/// directory segments). Each cluster's footprint fits inside its window.
pub const CLUSTER_STRIDE_BYTES: u64 = 32 * 1024;

/// Default number of transactions per thread at full scale.
pub const DEFAULT_TXS_PER_THREAD: usize = 64;

/// The per-cluster synthetic specification: intruder-like contention (short
/// transactions, hot queue head, high abort rate) confined to the cluster.
#[must_use]
pub fn cluster_spec(seed: u64, cluster: usize) -> SyntheticSpec {
    SyntheticSpec {
        name: "clustered".into(),
        // Every cluster draws from its own deterministic stream.
        seed: seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cluster as u64 + 1)),
        // A queue head plus a few hot buckets, per cluster.
        hot_lines: 6,
        cold_lines: 128,
        private_lines: 32,
        txs_per_thread: DEFAULT_TXS_PER_THREAD,
        static_txs: 3,
        reads_per_tx: Range::new(2, 5),
        writes_per_tx: Range::new(1, 3),
        hot_read_prob: 0.50,
        hot_write_prob: 0.70,
        shared_cold_prob: 0.60,
        compute_between_ops: Range::new(3, 8),
        pre_compute: Range::new(5, 20),
        site_rmw_prob: 0.85,
        // Distinct static-transaction ids per cluster (like distinct code
        // copies), purely for report readability.
        tx_id_base: 0x8_0000 + cluster as u64 * 0x1000,
    }
}

/// Generate the clustered workload for `threads` threads.
///
/// Threads `[0, 8)` form cluster 0 confined to bytes `[0, 32 KiB)`, threads
/// `[8, 16)` form cluster 1 confined to `[32 KiB, 64 KiB)`, and so on; a
/// trailing partial cluster gets fewer threads but its own full window. The
/// per-cluster footprint always fits the 32 KiB window (checked by a test),
/// so clusters never share a cache line, a directory segment or — with at
/// least eight directories per cluster — a directory.
#[must_use]
pub fn generate(threads: usize, scale: WorkloadScale, seed: u64) -> WorkloadTrace {
    let mut all_threads = Vec::with_capacity(threads);
    let clusters = threads.div_ceil(CLUSTER_THREADS);
    for cluster in 0..clusters {
        let members = (threads - cluster * CLUSTER_THREADS).min(CLUSTER_THREADS);
        let spec = cluster_spec(seed, cluster);
        debug_assert!(
            spec.layout(members).footprint_bytes() <= CLUSTER_STRIDE_BYTES,
            "cluster footprint must fit its address window"
        );
        let base = cluster as u64 * CLUSTER_STRIDE_BYTES;
        let local = spec.generate(members, scale);
        for mut thread in local.threads {
            for tx in &mut thread.transactions {
                for op in &mut tx.ops {
                    match op {
                        Op::Read(a) | Op::Write(a) => *a += base as Addr,
                        Op::Compute(_) => {}
                    }
                }
            }
            all_threads.push(thread);
        }
    }
    WorkloadTrace::new("clustered", all_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_footprint_fits_the_window() {
        for members in 1..=CLUSTER_THREADS {
            let spec = cluster_spec(1, 0);
            assert!(
                spec.layout(members).footprint_bytes() <= CLUSTER_STRIDE_BYTES,
                "{members}-thread cluster overflows its 32 KiB window"
            );
        }
    }

    #[test]
    fn clusters_stay_inside_their_windows() {
        let w = generate(24, WorkloadScale::Full, 7);
        assert_eq!(w.num_threads(), 24);
        for (i, thread) in w.threads.iter().enumerate() {
            let cluster = (i / CLUSTER_THREADS) as u64;
            let lo = cluster * CLUSTER_STRIDE_BYTES;
            let hi = lo + CLUSTER_STRIDE_BYTES;
            for tx in &thread.transactions {
                for op in &tx.ops {
                    if let Op::Read(a) | Op::Write(a) = op {
                        assert!(
                            (lo..hi).contains(a),
                            "thread {i} touches {a:#x} outside [{lo:#x}, {hi:#x})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partial_trailing_cluster_is_generated() {
        let w = generate(12, WorkloadScale::Test, 3);
        assert_eq!(w.num_threads(), 12);
        assert!(w.threads.iter().all(|t| !t.transactions.is_empty()));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            generate(16, WorkloadScale::Small, 3),
            generate(16, WorkloadScale::Small, 3)
        );
        assert_ne!(
            generate(16, WorkloadScale::Small, 3),
            generate(16, WorkloadScale::Small, 4)
        );
    }

    #[test]
    fn clusters_use_distinct_streams() {
        let w = generate(16, WorkloadScale::Small, 3);
        // Thread 0 (cluster 0) and thread 8 (cluster 1) must not be shifted
        // copies of each other.
        let strip = |t: &htm_tcc::txn::ThreadTrace| -> Vec<Op> {
            t.transactions
                .iter()
                .flat_map(|tx| tx.ops.iter())
                .map(|op| match *op {
                    Op::Read(a) => Op::Read(a % CLUSTER_STRIDE_BYTES),
                    Op::Write(a) => Op::Write(a % CLUSTER_STRIDE_BYTES),
                    Op::Compute(c) => Op::Compute(c),
                })
                .collect()
        };
        assert_ne!(strip(&w.threads[0]), strip(&w.threads[8]));
    }
}
