//! Machine configuration (Table II of the paper).
//!
//! The defaults reproduce Table II: 1–16 single-issue in-order cores, a
//! 64 KB 2-way 64-byte-line L1 data cache with 1-cycle latency, a common
//! split-transaction bus, full-bit-vector directories with 10-cycle latency
//! and a single-ported 100-cycle main memory. The
//! [`topology`](SimConfig::topology) axis swaps the shared bus for a
//! banked/sharded fabric so the same protocol scales to 64–1024 cores (see
//! [`crate::topology`] and `docs/SCALING.md`).

use serde::{Deserialize, Serialize};

use crate::topology::TopologyConfig;
use crate::MAX_PROCS;

/// Complete description of the simulated machine.
///
/// A `SimConfig` is immutable for the duration of a simulation run; the
/// experiment harness builds one per data point (e.g. one per processor
/// count in Fig. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of processors (cores). The paper evaluates 4, 8 and 16.
    pub num_procs: usize,
    /// Number of directories (home nodes). The paper's example (Fig. 2) uses
    /// one directory per processor; we follow that default.
    pub num_dirs: usize,
    /// L1 data cache capacity in bytes (default 64 KB).
    pub l1_bytes: usize,
    /// L1 data cache associativity (default 2-way).
    pub l1_assoc: usize,
    /// Cache line size in bytes (default 64 B).
    pub line_bytes: usize,
    /// Size of the physical-memory segments interleaved across directories
    /// (default 4 KiB). Each directory is home to every `num_dirs`-th
    /// segment, matching the paper's "multiple directories ... map different
    /// segments of the physical memory".
    pub directory_segment_bytes: usize,
    /// L1 hit latency in cycles (default 1).
    pub l1_hit_latency: u64,
    /// Directory access latency in cycles (default 10).
    pub directory_latency: u64,
    /// Main memory access latency in cycles (default 100).
    pub memory_latency: u64,
    /// Cycles the single memory read/write port of a home node is tied up per
    /// access. The default equals the access latency (the strict reading of
    /// Table II's "Single Read/Write Port"); smaller values model a pipelined
    /// bank that can overlap accesses.
    pub memory_port_occupancy: u64,
    /// Main memory capacity in bytes (default 1 GB). Only used for sanity
    /// checks on workload address ranges.
    pub memory_bytes: u64,
    /// Width of the split-transaction bus data path in bytes per cycle.
    pub bus_width_bytes: usize,
    /// Bus arbitration overhead in cycles charged to every transfer.
    pub bus_arbitration_latency: u64,
    /// Latency of the centralized token vendor (TID request round trip),
    /// excluding bus transfer time.
    pub token_vendor_latency: u64,
    /// Number of cycles the directory-side "control circuit" of Fig. 2(e)
    /// needs to produce the "on" command after the gating timer expires.
    /// The paper notes the high fan-in OR takes multiple cycles; this models
    /// that small extension of the gating period.
    pub ungate_circuit_latency: u64,
    /// Cycles a processor takes to drain its in-flight instruction and enter
    /// standby after receiving "Stop Clock".
    pub stop_clock_drain_latency: u64,
    /// Cycles from the "on" command reaching the PLL output until the core
    /// resumes fetching (the paper assumes the main PLL keeps running, so the
    /// wake-up is essentially instantaneous; default 1).
    pub wake_up_latency: u64,
    /// Cycles needed to restore the check-pointed architectural state on an
    /// abort (register checkpoint restore + speculative-line flash clear).
    pub abort_rollback_latency: u64,
    /// Interconnect topology: the paper's shared bus (default) or the
    /// banked/sharded fabric used for 64–1024-processor machines.
    pub topology: TopologyConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::table2(8)
    }
}

impl SimConfig {
    /// The Table II configuration for `num_procs` processors.
    #[must_use]
    pub fn table2(num_procs: usize) -> Self {
        Self {
            num_procs,
            num_dirs: num_procs.max(1),
            l1_bytes: 64 * 1024,
            l1_assoc: 2,
            line_bytes: 64,
            directory_segment_bytes: 4096,
            l1_hit_latency: 1,
            directory_latency: 10,
            memory_latency: 100,
            memory_port_occupancy: 16,
            memory_bytes: 1 << 30,
            bus_width_bytes: 16,
            bus_arbitration_latency: 1,
            token_vendor_latency: 5,
            ungate_circuit_latency: 4,
            stop_clock_drain_latency: 1,
            wake_up_latency: 1,
            abort_rollback_latency: 5,
            topology: TopologyConfig::Bus,
        }
    }

    /// The Table II configuration with the interconnect swapped for a
    /// topology, e.g. [`TopologyConfig::sharded_default`] for large machines.
    #[must_use]
    pub fn table2_with_topology(num_procs: usize, topology: TopologyConfig) -> Self {
        Self {
            topology,
            ..Self::table2(num_procs)
        }
    }

    /// Replace the L1 data-cache geometry (capacity in KiB, associativity),
    /// keeping everything else. Used by the sensitivity-sweep harness to
    /// explore cache configurations beyond the Table II 64 KB 2-way point;
    /// the result still has to pass [`SimConfig::validate`].
    #[must_use]
    pub fn with_l1_geometry(mut self, l1_kb: usize, l1_assoc: usize) -> Self {
        self.l1_bytes = l1_kb * 1024;
        self.l1_assoc = l1_assoc;
        self
    }

    /// Number of sets in the L1 data cache.
    #[must_use]
    pub fn l1_sets(&self) -> usize {
        self.l1_bytes / (self.line_bytes * self.l1_assoc)
    }

    /// Number of cycles a full cache line occupies the bus data path.
    #[must_use]
    pub fn bus_line_transfer_cycles(&self) -> u64 {
        (self.line_bytes as u64).div_ceil(self.bus_width_bytes as u64)
    }

    /// Number of cycles a short (address / control only) message occupies the
    /// bus.
    #[must_use]
    pub fn bus_control_transfer_cycles(&self) -> u64 {
        1
    }

    /// Validate internal consistency; returns a human-readable description of
    /// the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_procs == 0 {
            return Err("num_procs must be >= 1".into());
        }
        if self.num_procs > MAX_PROCS {
            // Processor sets are full-bit vectors sized to the machine
            // (`proc_set_words`: 1, 4 or 16 words); the widest, `ProcSet`,
            // which the hook view's marked bits always use, holds 1024.
            return Err(format!(
                "num_procs ({}) exceeds the {MAX_PROCS}-processor full-bit-vector limit",
                self.num_procs
            ));
        }
        if self.num_dirs == 0 {
            return Err("num_dirs must be >= 1".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line_bytes ({}) must be a power of two",
                self.line_bytes
            ));
        }
        if !self.directory_segment_bytes.is_power_of_two()
            || self.directory_segment_bytes < self.line_bytes
        {
            return Err(format!(
                "directory_segment_bytes ({}) must be a power of two no smaller than a line",
                self.directory_segment_bytes
            ));
        }
        if self.l1_assoc == 0 {
            return Err("l1_assoc must be >= 1".into());
        }
        if !self
            .l1_bytes
            .is_multiple_of(self.line_bytes * self.l1_assoc)
        {
            return Err(format!(
                "l1_bytes ({}) must be a multiple of line_bytes*assoc ({})",
                self.l1_bytes,
                self.line_bytes * self.l1_assoc
            ));
        }
        if !self.l1_sets().is_power_of_two() {
            return Err(format!(
                "l1 set count ({}) must be a power of two",
                self.l1_sets()
            ));
        }
        if self.bus_width_bytes == 0 {
            return Err("bus_width_bytes must be >= 1".into());
        }
        Ok(())
    }

    /// Render the configuration as the rows of Table II of the paper.
    #[must_use]
    pub fn table2_rows(&self) -> Vec<(String, String)> {
        vec![
            (
                "CPU".to_string(),
                format!("{} single issue in-order cores", self.num_procs),
            ),
            (
                "L1D".to_string(),
                format!(
                    "{}KB {} byte line size, {}-way associative, {} cycle latency",
                    self.l1_bytes / 1024,
                    self.line_bytes,
                    self.l1_assoc,
                    self.l1_hit_latency
                ),
            ),
            (
                "Interconnect".to_string(),
                match self.topology {
                    TopologyConfig::Bus => format!(
                        "Common Split-Transaction Bus ({} bytes/cycle)",
                        self.bus_width_bytes
                    ),
                    TopologyConfig::Sharded { .. } => format!(
                        "{} ({} bytes/cycle per bank)",
                        self.topology.describe(),
                        self.bus_width_bytes
                    ),
                },
            ),
            (
                "Directory".to_string(),
                format!(
                    "Full-bit vector sharer, {} cycle latency, {} byte segments",
                    self.directory_latency, self.directory_segment_bytes
                ),
            ),
            (
                "Main Memory".to_string(),
                format!(
                    "{}GB, {} cycle latency, Single Read/Write Port",
                    self.memory_bytes >> 30,
                    self.memory_latency
                ),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults_match_paper() {
        let cfg = SimConfig::table2(16);
        assert_eq!(cfg.num_procs, 16);
        assert_eq!(cfg.l1_bytes, 64 * 1024);
        assert_eq!(cfg.l1_assoc, 2);
        assert_eq!(cfg.line_bytes, 64);
        assert_eq!(cfg.l1_hit_latency, 1);
        assert_eq!(cfg.directory_latency, 10);
        assert_eq!(cfg.memory_latency, 100);
        assert_eq!(cfg.memory_bytes, 1 << 30);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn l1_geometry() {
        let cfg = SimConfig::table2(4);
        // 64KB / (64B * 2 ways) = 512 sets
        assert_eq!(cfg.l1_sets(), 512);
        assert!(cfg.l1_sets().is_power_of_two());
    }

    #[test]
    fn bus_transfer_cycles() {
        let cfg = SimConfig::table2(4);
        // 64B line over a 16B bus = 4 data cycles
        assert_eq!(cfg.bus_line_transfer_cycles(), 4);
        assert_eq!(cfg.bus_control_transfer_cycles(), 1);
    }

    #[test]
    fn validation_rejects_zero_procs() {
        let mut cfg = SimConfig::table2(4);
        cfg.num_procs = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_too_many_procs() {
        let mut cfg = SimConfig::table2(MAX_PROCS);
        assert!(cfg.validate().is_ok(), "1024 processors is the ceiling");
        cfg.num_procs = MAX_PROCS + 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn topology_defaults_to_bus_and_renders_in_table2() {
        let cfg = SimConfig::table2(8);
        assert_eq!(cfg.topology, TopologyConfig::Bus);
        assert!(cfg.table2_rows()[2].1.contains("Split-Transaction Bus"));
        let sharded = SimConfig::table2_with_topology(64, TopologyConfig::sharded_default());
        assert_eq!(sharded.num_procs, 64);
        assert!(sharded.validate().is_ok());
        assert!(sharded.table2_rows()[2].1.contains("sharded"));
    }

    #[test]
    fn validation_rejects_non_pow2_line() {
        let mut cfg = SimConfig::table2(4);
        cfg.line_bytes = 48;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_capacity() {
        let mut cfg = SimConfig::table2(4);
        cfg.l1_bytes = 60 * 1024 + 17;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn table2_rows_render() {
        let rows = SimConfig::table2(8).table2_rows();
        assert_eq!(rows.len(), 5);
        assert!(rows[0].1.contains("8 single issue"));
        assert!(rows[3].1.contains("10 cycle"));
        assert!(rows[4].1.contains("100 cycle"));
    }

    #[test]
    fn default_is_eight_procs() {
        assert_eq!(SimConfig::default().num_procs, 8);
    }

    #[test]
    fn with_l1_geometry_replaces_cache_only() {
        let cfg = SimConfig::table2(4).with_l1_geometry(16, 4);
        assert_eq!(cfg.l1_bytes, 16 * 1024);
        assert_eq!(cfg.l1_assoc, 4);
        assert_eq!(cfg.l1_sets(), 64);
        assert_eq!(cfg.num_procs, 4, "non-cache parameters are untouched");
        assert!(cfg.validate().is_ok());
        // A non-power-of-two set count is still caught by validate().
        assert!(SimConfig::table2(4)
            .with_l1_geometry(48, 2)
            .validate()
            .is_err());
    }
}
