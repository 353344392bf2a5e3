//! The per-run context: what a run needs that must not reach an artifact.
//!
//! [`crate::experiments::ExperimentConfig`] and the sweep grid serialize into
//! the golden artifacts, which stay byte-identical whichever engine ran them
//! and whether or not the run was checkpointed; bus artifacts also keep their
//! pre-topology bytes. So the stepping engine, the interconnect topology,
//! checkpointing and a recorded trace travel in one [`RunContext`] instead,
//! taken by [`crate::experiments::run_matrix`], [`crate::experiments::fig7`],
//! [`crate::sweep::run_sweep`] and [`crate::sweep::runner::run_cell`]. The
//! context also owns the run path those share: building the
//! [`SimulationBuilder`], the plain or checkpointed run, and the key rule
//! that names a run on disk.

use std::path::PathBuf;

use htm_sim::topology::TopologyConfig;
use htm_sim::Cycle;
use htm_tcc::system::{EngineKind, SimError};
use htm_tcc::txn::WorkloadTrace;
use htm_workloads::WorkloadScale;

use crate::checkpoint::{
    remove_checkpoints, validate_checkpoint_dir, CheckpointConfig, CheckpointError,
};
use crate::sim::{SimReport, SimulationBuilder};

/// Durable checkpointing for every run of a matrix, fig7 sweep or sweep
/// grid: each run writes a checkpoint of its simulator state into `dir`
/// every `every` cycles under its [`RunContext::key`], and a re-run picks
/// every in-flight run up from its newest valid checkpoint instead of
/// restarting it. The checkpoints of a completed run are deleted, because
/// its artifact row supersedes them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory holding the checkpoint files (created if missing).
    pub dir: PathBuf,
    /// Checkpoint interval in simulated cycles (must be at least 1).
    pub every: Cycle,
}

/// A workload loaded from a trace file, made available under its
/// fingerprinted axis name: a run whose workload name equals
/// [`Self::axis_name`] is driven by the decoded trace instead of a registry
/// generator. Runs naming anything else still resolve through the workload
/// registry, so a trace and a synthetic workload can never silently swap
/// inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceWorkload {
    /// The axis name the trace is registered under
    /// (`htm_workloads::LoadedTrace::axis_name`, `trace-{name}-{fp8}`).
    pub axis_name: String,
    /// The decoded, fingerprint-verified workload.
    pub workload: WorkloadTrace,
}

impl TraceWorkload {
    /// Wrap a verified [`htm_workloads::LoadedTrace`].
    #[must_use]
    pub fn from_loaded(loaded: &htm_workloads::LoadedTrace) -> Self {
        Self {
            axis_name: loaded.axis_name(),
            workload: loaded.workload.clone(),
        }
    }
}

/// How to run: the stepping engine, the interconnect topology, optional
/// checkpointing and an optional recorded trace. None of it reaches an
/// artifact. The default is the fast-forward engine on the bus, with no
/// checkpoints and no trace.
#[derive(Debug, Clone, Default)]
pub struct RunContext<'a> {
    /// Stepping engine of every run.
    pub engine: EngineKind,
    /// Interconnect topology of every run.
    pub topology: TopologyConfig,
    /// Durable per-run checkpointing, if any.
    pub checkpoint: Option<CheckpointSpec>,
    /// A recorded trace that replaces the generator of the workload named
    /// after its axis name.
    pub trace: Option<&'a TraceWorkload>,
}

impl RunContext<'_> {
    /// The on-disk identity of a run named `base`: `base` itself on the bus
    /// (keeping every pre-topology `sweep.jsonl` and checkpoint resumable),
    /// with the topology's key segment appended on a sharded fabric (so bus
    /// and sharded runs never resume from each other's records).
    #[must_use]
    pub fn key(&self, base: &str) -> String {
        match self.topology.key_segment() {
            None => base.to_string(),
            Some(segment) => format!("{base}-{segment}"),
        }
    }

    /// Pre-flight scan of the checkpoint directory, run before any cell: a
    /// checkpoint of an incompatible format version is one clear error up
    /// front instead of a mid-run surprise.
    pub(crate) fn preflight(&self) -> Result<(), CheckpointError> {
        match &self.checkpoint {
            Some(spec) => validate_checkpoint_dir(&spec.dir),
            None => Ok(()),
        }
    }

    /// A builder for one run of `workload` on `procs` processors, on this
    /// context's topology and engine. The recorded trace drives the run when
    /// its axis name is `workload`; otherwise the registry generates it.
    pub(crate) fn builder(
        &self,
        procs: usize,
        workload: &str,
        scale: WorkloadScale,
        seed: u64,
    ) -> Result<SimulationBuilder, SimError> {
        let builder = SimulationBuilder::new()
            .processors(procs)
            .topology(self.topology)
            .engine(self.engine);
        match self.trace {
            Some(t) if t.axis_name == workload => Ok(builder.workload(t.workload.clone())),
            _ => builder
                .workload_by_name(workload, scale, seed)
                .map_err(SimError::BadWorkload),
        }
    }

    /// Run `builder` as the run named `key`. Under checkpointing the run
    /// auto-resumes from the newest valid checkpoint of `key`, reports
    /// skipped (torn or corrupt) files and a resume on stderr, and deletes
    /// its checkpoints once it completes.
    pub(crate) fn run(
        &self,
        builder: SimulationBuilder,
        key: &str,
    ) -> Result<SimReport, CheckpointError> {
        let Some(spec) = &self.checkpoint else {
            return Ok(builder.run()?);
        };
        let ckpt = CheckpointConfig::new(&spec.dir, spec.every, key);
        let (report, info) = builder.run_checkpointed(&ckpt)?;
        for (path, why) in &info.skipped {
            eprintln!(
                "run `{key}`: skipping unusable checkpoint '{}': {why}",
                path.display()
            );
        }
        if let Some(cycle) = info.resumed_from {
            eprintln!("run `{key}`: resumed from checkpoint at cycle {cycle}");
        }
        if let Err(e) = remove_checkpoints(&spec.dir, key) {
            // Leftover checkpoints are dead weight, not a correctness
            // problem: the completed run's artifact supersedes them.
            eprintln!("run `{key}`: could not clean up its checkpoints: {e}");
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_is_fast_forward_on_the_bus_without_extras() {
        let ctx = RunContext::default();
        assert_eq!(ctx.engine, EngineKind::FastForward);
        assert_eq!(ctx.topology, TopologyConfig::Bus);
        assert!(ctx.checkpoint.is_none() && ctx.trace.is_none());
    }
}
