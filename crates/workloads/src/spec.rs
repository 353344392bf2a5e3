//! Parameterized synthetic-workload generator.
//!
//! Every concrete workload (genome, yada, intruder, the extensions and any
//! user-defined scenario) is an instance of [`SyntheticSpec`]: a set of
//! distributions describing how long transactions are, how many lines they
//! read and write, how much of that traffic lands in the contended hot
//! region, and how the static transactions are arranged in loops. The
//! generator turns a spec into a deterministic [`WorkloadTrace`].

use serde::{Deserialize, Serialize};

use htm_sim::rng::DeterministicRng;
use htm_tcc::txn::{Op, ThreadTrace, Transaction, WorkloadTrace};

use crate::layout::AddressLayout;

/// How large a run of the workload to generate. The paper's evaluation runs
/// the STAMP inputs to completion; our traces scale the number of
/// transactions per thread instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadScale {
    /// Tiny runs for unit tests (a handful of transactions per thread).
    Test,
    /// Small runs for `reproduce --quick` (the full matrix at reduced size).
    Small,
    /// The default evaluation size used by the figure-reproduction harness.
    Full,
}

impl WorkloadScale {
    /// Transactions per thread for this scale, given the workload's baseline.
    #[must_use]
    pub fn txs_per_thread(self, baseline: usize) -> usize {
        match self {
            WorkloadScale::Test => baseline.div_ceil(8).max(2),
            WorkloadScale::Small => baseline.div_ceil(2).max(4),
            WorkloadScale::Full => baseline,
        }
    }

    /// Lower-case label used in artifact names and sweep cell keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkloadScale::Test => "test",
            WorkloadScale::Small => "small",
            WorkloadScale::Full => "full",
        }
    }
}

/// A range `[min, max]` from which the generator draws uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Range {
    /// Inclusive lower bound.
    pub min: u64,
    /// Inclusive upper bound.
    pub max: u64,
}

impl Range {
    /// Construct a range (clamping `max` up to `min` if needed).
    #[must_use]
    pub fn new(min: u64, max: u64) -> Self {
        Self {
            min,
            max: max.max(min),
        }
    }

    /// Sample the range uniformly.
    pub fn sample(&self, rng: &mut DeterministicRng) -> u64 {
        self.min + rng.gen_range(self.max - self.min + 1)
    }
}

/// Full description of a synthetic transactional workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Workload name (used in reports and figures).
    pub name: String,
    /// Base random seed; combined with the thread id so each thread gets an
    /// independent but reproducible stream.
    pub seed: u64,
    /// Number of cache lines in the hot (contended) shared region.
    pub hot_lines: u64,
    /// Number of cache lines in the cold shared region.
    pub cold_lines: u64,
    /// Number of private cache lines per thread.
    pub private_lines: u64,
    /// Baseline number of transactions each thread executes at
    /// [`WorkloadScale::Full`].
    pub txs_per_thread: usize,
    /// Number of distinct static transactions (loop bodies); the generator
    /// cycles through them, so `tx_id` values repeat across iterations
    /// exactly like a transaction inside a loop re-executes the same PC.
    pub static_txs: usize,
    /// Reads per transaction.
    pub reads_per_tx: Range,
    /// Writes per transaction.
    pub writes_per_tx: Range,
    /// Probability that a read targets the hot region (otherwise cold/private).
    pub hot_read_prob: f64,
    /// Probability that a write targets the hot region.
    pub hot_write_prob: f64,
    /// Probability that a non-hot access targets the cold shared region
    /// (otherwise it goes to the thread's private region).
    pub shared_cold_prob: f64,
    /// Compute cycles inserted between consecutive memory operations.
    pub compute_between_ops: Range,
    /// Non-transactional compute cycles before each transaction.
    pub pre_compute: Range,
    /// Probability that a transaction performs the read-modify-write of its
    /// static site's dedicated hot line (e.g. popping the shared work-queue
    /// head in intruder, grabbing the next bad triangle in yada). This is
    /// what makes retries of the same transaction conflict *deterministically*
    /// with whoever wins, driving the per-directory abort counters (and hence
    /// the Eq. 8 gating windows) up on contended workloads.
    pub site_rmw_prob: f64,
    /// Base value for generated `tx_id`s (keeps different workloads' static
    /// transaction ids disjoint, like different code addresses).
    pub tx_id_base: u64,
}

impl SyntheticSpec {
    /// The address-space layout implied by this spec for `threads` threads.
    #[must_use]
    pub fn layout(&self, threads: usize) -> AddressLayout {
        AddressLayout::new(
            self.hot_lines,
            self.cold_lines,
            self.private_lines,
            threads as u64,
        )
    }

    /// Generate the trace for one thread.
    #[must_use]
    pub fn generate_thread(
        &self,
        thread: usize,
        threads: usize,
        scale: WorkloadScale,
    ) -> ThreadTrace {
        let layout = self.layout(threads);
        let mut rng = DeterministicRng::new(self.seed).derive(thread as u64 + 1);
        let txs = scale.txs_per_thread(self.txs_per_thread);
        let mut transactions = Vec::with_capacity(txs);
        for iteration in 0..txs {
            let static_site = iteration % self.static_txs.max(1);
            let tx_id = self.tx_id_base + static_site as u64 * 0x40;
            transactions.push(self.generate_tx(tx_id, thread as u64, &layout, &mut rng));
        }
        ThreadTrace::new(transactions)
    }

    fn pick_addr(
        &self,
        rng: &mut DeterministicRng,
        thread: u64,
        layout: &AddressLayout,
        hot_prob: f64,
    ) -> u64 {
        if layout.hot_lines > 0 && rng.gen_bool(hot_prob) {
            layout.hot(rng.gen_range(layout.hot_lines))
        } else if layout.cold_lines > 0 && rng.gen_bool(self.shared_cold_prob) {
            layout.cold(rng.gen_range(layout.cold_lines))
        } else {
            layout.private(thread, rng.gen_range(layout.private_lines.max(1)))
        }
    }

    fn generate_tx(
        &self,
        tx_id: u64,
        thread: u64,
        layout: &AddressLayout,
        rng: &mut DeterministicRng,
    ) -> Transaction {
        let reads = self.reads_per_tx.sample(rng);
        let writes = self.writes_per_tx.sample(rng);
        let pre = self.pre_compute.sample(rng);
        let mut ops = Vec::with_capacity((reads + writes) as usize * 2 + 2);
        // The shared structure owned by this static transaction (work-queue
        // head, tree root, ...): read it first, update it last.
        let site_line = if self.hot_lines > 0 {
            Some(layout.hot((tx_id / 0x40) % self.hot_lines))
        } else {
            None
        };
        let site_rmw = site_line.is_some() && rng.gen_bool(self.site_rmw_prob);
        if let (true, Some(site)) = (site_rmw, site_line) {
            ops.push(Op::Read(site));
            ops.push(Op::Compute(self.compute_between_ops.sample(rng)));
        }
        // Interleave reads and writes the way typical STAMP transactions do:
        // reads first (lookups / traversal), writes towards the end (updates),
        // with compute in between.
        for _ in 0..reads {
            ops.push(Op::Read(self.pick_addr(
                rng,
                thread,
                layout,
                self.hot_read_prob,
            )));
            let c = self.compute_between_ops.sample(rng);
            if c > 0 {
                ops.push(Op::Compute(c));
            }
        }
        for _ in 0..writes {
            ops.push(Op::Write(self.pick_addr(
                rng,
                thread,
                layout,
                self.hot_write_prob,
            )));
            let c = self.compute_between_ops.sample(rng);
            if c > 0 {
                ops.push(Op::Compute(c));
            }
        }
        if let (true, Some(site)) = (site_rmw, site_line) {
            ops.push(Op::Write(site));
        }
        Transaction::with_pre_compute(tx_id, pre, ops)
    }

    /// Generate the complete workload for `threads` threads at `scale`.
    #[must_use]
    pub fn generate(&self, threads: usize, scale: WorkloadScale) -> WorkloadTrace {
        let traces = (0..threads)
            .map(|t| self.generate_thread(t, threads, scale))
            .collect::<Vec<_>>();
        WorkloadTrace::new(self.name.clone(), traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> SyntheticSpec {
        SyntheticSpec {
            name: "toy".into(),
            seed: 7,
            hot_lines: 4,
            cold_lines: 64,
            private_lines: 32,
            txs_per_thread: 16,
            static_txs: 2,
            reads_per_tx: Range::new(2, 4),
            writes_per_tx: Range::new(1, 2),
            hot_read_prob: 0.3,
            hot_write_prob: 0.3,
            shared_cold_prob: 0.5,
            compute_between_ops: Range::new(1, 5),
            pre_compute: Range::new(0, 10),
            site_rmw_prob: 0.5,
            tx_id_base: 0x1000,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = toy_spec();
        let a = spec.generate(4, WorkloadScale::Full);
        let b = spec.generate(4, WorkloadScale::Full);
        assert_eq!(a, b);
    }

    #[test]
    fn different_threads_get_different_traces() {
        let w = toy_spec().generate(2, WorkloadScale::Full);
        assert_ne!(w.threads[0], w.threads[1]);
    }

    #[test]
    fn scale_controls_transaction_count() {
        let spec = toy_spec();
        let test = spec.generate(2, WorkloadScale::Test).total_transactions();
        let small = spec.generate(2, WorkloadScale::Small).total_transactions();
        let full = spec.generate(2, WorkloadScale::Full).total_transactions();
        assert!(test < small && small < full);
        assert_eq!(full, 32);
    }

    #[test]
    fn static_tx_ids_repeat_like_loops() {
        let w = toy_spec().generate(1, WorkloadScale::Full);
        let ids: Vec<u64> = w.threads[0].transactions.iter().map(|t| t.tx_id).collect();
        let distinct: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            2,
            "two static transactions cycle through the loop"
        );
        assert_eq!(ids[0], ids[2]);
        assert_eq!(ids[1], ids[3]);
    }

    #[test]
    fn ops_respect_configured_ranges() {
        let spec = toy_spec();
        let w = spec.generate(2, WorkloadScale::Full);
        for tx in w.threads.iter().flat_map(|t| t.transactions.iter()) {
            let reads = tx.read_addrs().len() as u64;
            let writes = tx.write_addrs().len() as u64;
            // Dedup can only shrink the counts; the static site's
            // read-modify-write adds at most one read and one write.
            assert!(reads <= spec.reads_per_tx.max + 1);
            assert!(writes <= spec.writes_per_tx.max + 1);
            assert!(writes >= 1, "every toy transaction writes something");
            assert!(tx.pre_compute <= spec.pre_compute.max);
        }
    }

    #[test]
    fn addresses_stay_within_footprint() {
        let spec = toy_spec();
        let w = spec.generate(4, WorkloadScale::Full);
        let max = w.max_addr().unwrap();
        assert!(max < spec.layout(4).footprint_bytes());
    }

    #[test]
    fn range_sampling_is_inclusive() {
        let r = Range::new(3, 5);
        let mut rng = DeterministicRng::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let v = r.sample(&mut rng);
            assert!((3..=5).contains(&v));
            seen.insert(v);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn degenerate_range_is_constant() {
        let r = Range::new(7, 7);
        let mut rng = DeterministicRng::new(2);
        assert!((0..100).all(|_| r.sample(&mut rng) == 7));
    }
}
