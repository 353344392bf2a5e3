//! Parallel, resumable execution of a [`SweepGrid`].
//!
//! [`run_sweep`] expands the grid, runs every not-yet-recorded cell through
//! [`WorkerPool::run_in_order`] on the process-wide thread budget (the
//! `--threads` cap), and *streams* one compact JSON record per cell to
//! `<out>/sweep.jsonl` in deterministic cell order — cells may finish out
//! of order, but the writer only appends the next cell in grid order, so an
//! interrupted sweep always leaves an in-order prefix on disk. Re-running
//! with `resume = true` parses that prefix back and skips the recorded
//! cells, which makes a resumed run converge to the byte-identical artifact
//! a fresh run would have produced.
//!
//! After the cells complete, the runner post-processes all records (old and
//! new) into `pareto.json` (per-slice energy-vs-time frontiers) and
//! `sweep_summary.json`, plus a `grid.json` provenance artifact.

use std::fs;
use std::io::{BufWriter, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

use serde::Serialize;

use htm_power::ledger::{ComponentEnergy, ALL_COMPONENTS};
use htm_sim::pool::WorkerPool;
use htm_sim::topology::TopologyConfig;
use htm_sim::Cycle;
use htm_tcc::system::SimError;

use super::grid::{SweepCell, SweepGrid};
use super::pareto::{
    pareto_frontiers_with, summarize_slices, SliceFrontier, SliceSummary, SweepObjective,
};
use super::{CellRecord, SCHEMA_VERSION};
use crate::checkpoint::{atomic_write_bytes, CheckpointError};
use crate::context::RunContext;
use crate::report::{to_json, to_json_compact};
use crate::sim::{EngineKind, SimulationBuilder};

/// File name of the streamed per-cell record artifact.
pub const JSONL_NAME: &str = "sweep.jsonl";
/// File name of the Pareto-frontier artifact.
pub const PARETO_NAME: &str = "pareto.json";
/// File name of the per-slice summary artifact.
pub const SUMMARY_NAME: &str = "sweep_summary.json";
/// File name of the grid-provenance artifact.
pub const GRID_NAME: &str = "grid.json";
/// File name of the per-cell component-energy artifact.
pub const BREAKDOWN_NAME: &str = "energy_breakdown.json";

/// Everything that can go wrong while running a sweep.
#[derive(Debug)]
pub enum SweepError {
    /// The grid expanded to zero cells.
    EmptyGrid,
    /// Two cells of the grid share a key (a grid-construction bug).
    DuplicateKey(String),
    /// A cell's simulation failed; `key` is the first failing cell in
    /// deterministic grid order.
    Cell {
        /// Key of the failing cell.
        key: String,
        /// The underlying simulation error.
        source: SimError,
    },
    /// A cell's simulation panicked (a simulator bug); the panic is caught
    /// so that the sweep fails instead of deadlocking the in-order writer.
    CellPanic {
        /// Key of the panicking cell.
        key: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The existing `sweep.jsonl` records are not the in-order prefix of
    /// this grid's cell list (resuming with a reordered or regrown grid),
    /// so a resumed run could not converge to the fresh-run artifact.
    NonPrefixResume {
        /// 1-based line number in `sweep.jsonl`.
        line: usize,
        /// The cell key the grid expects at this position.
        expected: String,
        /// The cell key the file recorded there.
        found: String,
    },
    /// The on-disk checkpoint layer failed (`key` names the affected cell;
    /// `None` means the pre-flight scan of the checkpoint directory failed
    /// before any cell ran — e.g. it holds checkpoints of an incompatible
    /// format version, mirroring [`SweepError::SchemaMismatch`] for
    /// `sweep.jsonl`).
    Checkpoint {
        /// The cell whose checkpointing failed, if any.
        key: Option<String>,
        /// The underlying checkpoint error.
        source: CheckpointError,
    },
    /// Reading or writing an artifact failed.
    Io(std::io::Error),
    /// An existing `sweep.jsonl` line could not be parsed during resume.
    Resume {
        /// 1-based line number in `sweep.jsonl`.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// An existing `sweep.jsonl` record does not belong to this grid
    /// (resuming with a different grid than the one that wrote the file).
    ForeignRecord(String),
    /// An existing `sweep.jsonl` record was written under a different
    /// record-layout version (e.g. a pre-ledger file without the
    /// component-energy fields). Resuming would silently diverge from a
    /// fresh run's bytes, so the file must be regenerated.
    SchemaMismatch {
        /// 1-based line number in `sweep.jsonl`.
        line: usize,
        /// The `schema` field the record carries (`None`: the field is
        /// absent — a pre-versioning file).
        found: Option<u64>,
        /// The version this binary writes.
        expected: u32,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptyGrid => write!(f, "the sweep grid expands to zero cells"),
            SweepError::DuplicateKey(key) => {
                write!(f, "the sweep grid produced duplicate cell key `{key}`")
            }
            SweepError::Cell { key, source } => write!(f, "sweep cell `{key}` failed: {source}"),
            SweepError::CellPanic { key, message } => {
                write!(f, "sweep cell `{key}` panicked: {message}")
            }
            SweepError::NonPrefixResume {
                line,
                expected,
                found,
            } => write!(
                f,
                "cannot resume: {JSONL_NAME} line {line} records cell `{found}` where the \
                 grid expects `{expected}` (records must be the in-order prefix of the grid)"
            ),
            SweepError::Checkpoint { key, source } => match key {
                Some(key) => write!(f, "sweep cell `{key}` checkpointing failed: {source}"),
                None => write!(f, "checkpoint directory pre-flight failed: {source}"),
            },
            SweepError::Io(e) => write!(f, "sweep artifact I/O failed: {e}"),
            SweepError::Resume { line, message } => {
                write!(f, "cannot resume: {JSONL_NAME} line {line}: {message}")
            }
            SweepError::ForeignRecord(key) => write!(
                f,
                "cannot resume: {JSONL_NAME} contains cell `{key}` which is not in this \
                 grid (was the file produced by a different grid?)"
            ),
            SweepError::SchemaMismatch {
                line,
                found,
                expected,
            } => {
                let found = found.map_or_else(
                    || "no schema version (a pre-ledger file)".to_string(),
                    |v| format!("schema version {v}"),
                );
                write!(
                    f,
                    "cannot resume: {JSONL_NAME} line {line} carries {found} but this \
                     binary writes version {expected}; the record layout changed \
                     (component-energy ledger fields) — delete the old file or re-run \
                     without --resume"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Cell { source, .. } => Some(source),
            SweepError::Checkpoint { source, .. } => Some(source),
            SweepError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// The `pareto.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParetoReport {
    /// Grid name.
    pub grid: String,
    /// Objective minimized on the frontier's second axis.
    pub objective: String,
    /// One frontier per (workload, procs) slice, in deterministic order.
    pub frontiers: Vec<SliceFrontier>,
}

/// One cell of the sweep's `energy_breakdown.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepCellBreakdown {
    /// Cell key.
    pub key: String,
    /// Gating-mode label.
    pub mode: String,
    /// Per-component energies, in ledger component order.
    pub components: Vec<ComponentEnergy>,
    /// Core subset total (the legacy Table I accounting).
    pub core_energy: f64,
    /// Uncore total.
    pub uncore_energy: f64,
    /// Ledger grand total.
    pub total_energy: f64,
    /// Energy-delay product of the ledger total.
    pub edp: f64,
    /// Energy-delay-squared product.
    pub ed2p: f64,
    /// Ledger total per committed transaction.
    pub energy_per_commit: f64,
}

impl SweepCellBreakdown {
    fn from_record(r: &CellRecord) -> Self {
        let energies: Vec<f64> = r
            .core_component_energies()
            .into_iter()
            .chain(r.uncore_component_energies())
            .collect();
        let components = ALL_COMPONENTS
            .iter()
            .zip(&energies)
            .map(|(&c, &energy)| ComponentEnergy {
                component: c.label().to_string(),
                core: c.is_core(),
                energy,
                share_of_total: if r.total_energy_with_uncore > 0.0 {
                    energy / r.total_energy_with_uncore
                } else {
                    0.0
                },
            })
            .collect();
        Self {
            key: r.key.clone(),
            mode: r.mode.clone(),
            components,
            core_energy: r.total_energy,
            uncore_energy: r.uncore_energy,
            total_energy: r.total_energy_with_uncore,
            edp: r.edp,
            ed2p: r.ed2p,
            energy_per_commit: r.energy_per_commit,
        }
    }
}

/// The sweep's `energy_breakdown.json` artifact: per-cell component
/// energies, assembled from the streamed records (and therefore
/// byte-identical across stepping engines).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepBreakdownReport {
    /// Grid name.
    pub grid: String,
    /// One breakdown per cell, in grid order.
    pub cells: Vec<SweepCellBreakdown>,
}

/// The `sweep_summary.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SummaryReport {
    /// Grid name.
    pub grid: String,
    /// Total number of cells in the grid.
    pub cells: usize,
    /// One summary per (workload, procs) slice, in deterministic order.
    pub slices: Vec<SliceSummary>,
}

/// Result of a completed [`run_sweep`] call.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The grid that was run.
    pub grid: SweepGrid,
    /// The objective the frontiers were computed under.
    pub objective: SweepObjective,
    /// All cell records, in deterministic grid order (resumed and newly
    /// executed alike).
    pub records: Vec<CellRecord>,
    /// Cells simulated by this invocation.
    pub executed: usize,
    /// Cells skipped because `sweep.jsonl` already recorded them.
    pub skipped: usize,
    /// Per-slice Pareto frontiers.
    pub frontiers: Vec<SliceFrontier>,
    /// Per-slice summaries.
    pub summaries: Vec<SliceSummary>,
    /// Path of the streamed JSONL artifact.
    pub jsonl_path: PathBuf,
    /// Path of the Pareto artifact.
    pub pareto_path: PathBuf,
    /// Path of the summary artifact.
    pub summary_path: PathBuf,
    /// Path of the per-cell component-energy artifact.
    pub breakdown_path: PathBuf,
}

impl SweepError {
    /// File a failure of the run of cell `key`: a simulation failure is a
    /// [`SweepError::Cell`], anything else a [`SweepError::Checkpoint`].
    fn of_cell(key: String, error: CheckpointError) -> Self {
        match error {
            CheckpointError::Sim(source) => SweepError::Cell { key, source },
            source => SweepError::Checkpoint {
                key: Some(key),
                source,
            },
        }
    }
}

/// Configure the run of one cell of the grid in `ctx` (the engine, the
/// topology and the trace override come from the context; the machine
/// geometry, power model, mode and bound from the cell).
fn cell_builder(cell: &SweepCell, ctx: &RunContext<'_>) -> Result<SimulationBuilder, SimError> {
    Ok(ctx
        .builder(cell.procs, &cell.workload, cell.scale, cell.seed)?
        // `l1_geometry` already re-derives the power model's TCC d-cache
        // factor for the swept capacity; only the leakage axis is added.
        .l1_geometry(cell.geometry.l1_kb, cell.geometry.l1_assoc)
        .leakage_share(cell.leakage_share())
        .gating(cell.mode)
        .cycle_limit(cell.cycle_limit))
}

/// Simulate one cell in `ctx`. The record's key is the cell's
/// [`RunContext::key`]. Under checkpointing the cell resumes from its newest
/// valid checkpoint and deletes its checkpoints once it completes — its
/// record is about to be durably appended to `sweep.jsonl`, which
/// supersedes them.
pub fn run_cell(cell: &SweepCell, ctx: &RunContext<'_>) -> Result<CellRecord, SweepError> {
    let key = ctx.key(&cell.key());
    let run = cell_builder(cell, ctx)
        .map_err(CheckpointError::Sim)
        .and_then(|builder| ctx.run(builder, &key));
    match run {
        Ok(report) => {
            let mut record = CellRecord::from_report(cell, &report);
            record.key = key;
            Ok(record)
        }
        Err(error) => Err(SweepError::of_cell(key, error)),
    }
}

/// [`run_cell`] on an engine and topology, without checkpointing or a
/// trace. Kept with this signature for the out-of-tree benchmark.
pub fn run_cell_on(
    cell: &SweepCell,
    engine: EngineKind,
    topology: TopologyConfig,
) -> Result<CellRecord, SimError> {
    let ctx = RunContext {
        engine,
        topology,
        ..RunContext::default()
    };
    run_cell(cell, &ctx).map_err(|error| match error {
        SweepError::Cell { source, .. } => source,
        other => SimError::Checkpoint(other.to_string()),
    })
}

/// The resume key of a cell on a topology ([`RunContext::key`] of
/// [`SweepCell::key`]). Kept with this signature for the out-of-tree
/// benchmark.
#[must_use]
pub fn cell_key_on(cell: &SweepCell, topology: TopologyConfig) -> String {
    RunContext {
        topology,
        ..RunContext::default()
    }
    .key(&cell.key())
}

/// Time travel into one cell of a grid: restore the nearest checkpoint of
/// the cell's [`RunContext::key`] at or before `target` from `ckpt_dir` and
/// fast-forward the machine to exactly that cycle (see
/// [`crate::checkpoint::replay_to`]). A traced context replays trace-driven
/// cells too; the restored checkpoint still verifies the workload
/// fingerprint, which the loaded trace carries. Returns the replay report
/// and the corrupt checkpoint files skipped during the scan.
pub fn replay_cell_to(
    cell: &SweepCell,
    ctx: &RunContext<'_>,
    ckpt_dir: &Path,
    target: Cycle,
) -> Result<(crate::checkpoint::ReplayReport, Vec<(PathBuf, String)>), SweepError> {
    let key = ctx.key(&cell.key());
    cell_builder(cell, ctx)
        .map_err(CheckpointError::Sim)
        .and_then(|builder| builder.replay_to(ckpt_dir, &key, target))
        .map_err(|error| SweepError::of_cell(key, error))
}

/// Render a `catch_unwind` payload for an error message: panics carry a
/// `&str` or `String` when raised by `panic!`, but `panic_any` can throw any
/// type — those are reported as non-string payloads instead of crashing the
/// error path itself.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Parse an existing `sweep.jsonl` into records, in file order. Every line
/// must carry the current [`SCHEMA_VERSION`]; files written by older
/// binaries (whose records lack the ledger fields) are rejected with the
/// version story instead of a puzzling missing-field error or, worse, a
/// silently diverging resumed artifact.
///
/// A **torn final line** — the file does not end in `\n` because the writer
/// was killed mid-append — is *not* a corrupt file: it is exactly the state
/// a crash leaves behind, and the record it belonged to was never complete.
/// The torn tail is dropped, the file is truncated back to its last complete
/// line, and the resume proceeds with the (one-shorter) prefix; the resumed
/// run re-executes that cell and appends it again.
fn read_completed(path: &Path) -> Result<Vec<CellRecord>, SweepError> {
    let bytes = fs::read(path)?;
    let complete_len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    if complete_len < bytes.len() {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(complete_len as u64)?;
        file.sync_all()?;
        eprintln!(
            "{}: dropped a torn final line ({} bytes) left by an interrupted append",
            path.display(),
            bytes.len() - complete_len
        );
    }
    let text =
        String::from_utf8(bytes[..complete_len].to_vec()).map_err(|e| SweepError::Resume {
            line: 0,
            message: format!("not valid UTF-8: {e}"),
        })?;
    let mut completed = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = serde_json::from_str(line).map_err(|e| SweepError::Resume {
            line: i + 1,
            message: e.to_string(),
        })?;
        let schema = value.get("schema").and_then(serde::Value::as_u64);
        if schema != Some(u64::from(SCHEMA_VERSION)) {
            return Err(SweepError::SchemaMismatch {
                line: i + 1,
                found: schema,
                expected: SCHEMA_VERSION,
            });
        }
        let record = CellRecord::from_value(&value).map_err(|message| SweepError::Resume {
            line: i + 1,
            message,
        })?;
        completed.push(record);
    }
    Ok(completed)
}

/// Validate that the resumed records are exactly the in-order prefix of the
/// grid's key list — the shape every in-order writer run leaves behind.
/// Anything else (foreign keys, gaps, reorderings, duplicates) means the
/// file belongs to a different grid and a resumed run could not converge to
/// the fresh-run artifact.
fn check_resume_prefix(completed: &[CellRecord], keys: &[String]) -> Result<(), SweepError> {
    for (i, record) in completed.iter().enumerate() {
        match keys.get(i) {
            Some(expected) if *expected == record.key => {}
            _ if !keys.contains(&record.key) => {
                return Err(SweepError::ForeignRecord(record.key.clone()));
            }
            Some(expected) => {
                return Err(SweepError::NonPrefixResume {
                    line: i + 1,
                    expected: expected.clone(),
                    found: record.key.clone(),
                });
            }
            // More records than grid cells while every key is in the grid:
            // the file repeats a cell (e.g. a complete run resumed after a
            // duplicate append).
            None => {
                return Err(SweepError::Resume {
                    line: i + 1,
                    message: format!("more records than grid cells (cell `{}`)", record.key),
                });
            }
        }
    }
    Ok(())
}

/// Run a sweep grid in `ctx`, streaming records to `<out_dir>/sweep.jsonl`
/// and writing the Pareto / summary / grid / energy-breakdown artifacts,
/// with the Pareto frontiers computed under the chosen objective.
///
/// With `resume = true` and an existing `sweep.jsonl`, the recorded records
/// must carry the current schema version and be the in-order prefix of this
/// grid's cell list — exactly the shape any interrupted in-order run leaves
/// behind; they are skipped and the remaining cells appended, converging to
/// the byte-identical artifacts of an uninterrupted run. Resuming with a
/// different (reordered or regrown) grid or an old-schema file is rejected.
/// Without `resume`, the file is rewritten from scratch.
///
/// The pending cells run through [`WorkerPool::run_in_order`] on the
/// process-wide thread budget, and the calling thread appends (and fsyncs)
/// each record as its turn in grid order comes. On a cell failure, a cell
/// panic ([`SweepError::CellPanic`]) or an append error, no further cell
/// starts; the error names the first failing cell in grid order and the
/// records streamed so far remain on disk, so a subsequent `resume` run
/// picks up where the failure occurred.
///
/// The objective only affects the Pareto post-processing: `sweep.jsonl`,
/// `grid.json` and `energy_breakdown.json` are objective-independent, so an
/// interrupted `--objective edp` sweep can be resumed under any objective.
///
/// The context never changes an artifact byte either:
/// * The topology is a run parameter, not a grid axis. On a sharded fabric
///   the cell keys carry the topology segment ([`RunContext::key`]), so bus
///   and sharded `sweep.jsonl` files reject each other's records on resume.
/// * Under checkpointing every cell snapshots its simulator state at
///   `every`-cycle intervals, and a resumed sweep restores each in-flight
///   cell from its newest valid checkpoint instead of restarting it. The
///   checkpoint directory is pre-flight scanned **before any cell runs**:
///   checkpoints of an incompatible format version are a dedicated
///   [`SweepError::Checkpoint`] error up front (mirroring the
///   [`SweepError::SchemaMismatch`] gate on `sweep.jsonl`), while torn or
///   corrupt files are skipped loudly when the affected cell resumes.
/// * Cells whose workload axis name matches the trace's fingerprinted axis
///   name run the decoded trace. Because the axis name embeds the
///   fingerprint, a `sweep.jsonl` written for one trace file rejects a
///   resume against an edited file (or a synthetic grid) with
///   [`SweepError::ForeignRecord`].
pub fn run_sweep(
    grid: &SweepGrid,
    out_dir: &Path,
    resume: bool,
    objective: SweepObjective,
    ctx: &RunContext<'_>,
) -> Result<SweepOutcome, SweepError> {
    let cells = grid.expand();
    if cells.is_empty() {
        return Err(SweepError::EmptyGrid);
    }
    ctx.preflight()
        .map_err(|source| SweepError::Checkpoint { key: None, source })?;
    let keys: Vec<String> = cells.iter().map(|c| ctx.key(&c.key())).collect();
    {
        let mut seen = std::collections::BTreeSet::new();
        for key in &keys {
            if !seen.insert(key) {
                return Err(SweepError::DuplicateKey(key.clone()));
            }
        }
    }

    fs::create_dir_all(out_dir)?;
    let jsonl_path = out_dir.join(JSONL_NAME);
    let completed = if resume && jsonl_path.exists() {
        let completed = read_completed(&jsonl_path)?;
        check_resume_prefix(&completed, &keys)?;
        completed
    } else {
        Vec::new()
    };

    atomic_write_bytes(&out_dir.join(GRID_NAME), to_json(grid).as_bytes())?;

    // The recorded records are the first `skipped` cells of the grid; the
    // rest still need simulating, in grid order.
    let skipped = completed.len();
    let pending: Vec<&SweepCell> = cells.iter().skip(skipped).collect();

    let file = fs::OpenOptions::new()
        .create(true)
        .append(resume)
        .truncate(!resume)
        .write(true)
        .open(&jsonl_path)?;
    let mut writer = BufWriter::new(file);

    let mut new_records: Vec<CellRecord> = Vec::with_capacity(pending.len());
    let mut failure: Option<SweepError> = None;

    // The calling thread is the writer: the executor hands it the records
    // strictly in grid order, even while later cells are already done, and
    // the first failure stops the cells that have not started.
    WorkerPool::global().run_in_order(
        pending.len(),
        |idx| run_cell(pending[idx], ctx),
        |idx, result| {
            // A panicking cell reaches the writer as an error, so the sweep
            // fails instead of waiting on it.
            let appended = result
                .unwrap_or_else(|payload| {
                    Err(SweepError::CellPanic {
                        key: ctx.key(&pending[idx].key()),
                        message: panic_message(payload.as_ref()),
                    })
                })
                .and_then(|record| {
                    // Flush + fsync per record: a cell is simulated work
                    // worth keeping, and a crash immediately after the
                    // append must not lose it. A kill *during* the append
                    // leaves a torn final line, which `read_completed`
                    // drops on resume.
                    writeln!(writer, "{}", to_json_compact(&record))
                        .and_then(|()| writer.flush())
                        .and_then(|()| writer.get_ref().sync_data())?;
                    Ok(record)
                });
            match appended {
                Ok(record) => {
                    new_records.push(record);
                    ControlFlow::Continue(())
                }
                Err(error) => {
                    failure = Some(error);
                    ControlFlow::Break(())
                }
            }
        },
    );
    if let Some(error) = failure {
        return Err(error);
    }

    // Assemble the full record list in grid order: the resumed prefix
    // followed by the writer's newly-streamed records.
    let executed = new_records.len();
    let mut records = completed;
    records.append(&mut new_records);
    debug_assert!(records
        .iter()
        .zip(&keys)
        .all(|(record, key)| record.key == *key));

    let frontiers = pareto_frontiers_with(&records, objective);
    let summaries = summarize_slices(&records);
    let pareto_path = out_dir.join(PARETO_NAME);
    let summary_path = out_dir.join(SUMMARY_NAME);
    let breakdown_path = out_dir.join(BREAKDOWN_NAME);
    // The post-processed artifacts are written via temp file + fsync +
    // atomic rename: a crash mid-write leaves either the previous complete
    // artifact or the new one, never a truncated JSON file.
    atomic_write_bytes(
        &pareto_path,
        to_json(&ParetoReport {
            grid: grid.name.clone(),
            objective: objective.label().to_string(),
            frontiers: frontiers.clone(),
        })
        .as_bytes(),
    )?;
    atomic_write_bytes(
        &summary_path,
        to_json(&SummaryReport {
            grid: grid.name.clone(),
            cells: cells.len(),
            slices: summaries.clone(),
        })
        .as_bytes(),
    )?;
    atomic_write_bytes(
        &breakdown_path,
        to_json(&SweepBreakdownReport {
            grid: grid.name.clone(),
            cells: records
                .iter()
                .map(SweepCellBreakdown::from_record)
                .collect(),
        })
        .as_bytes(),
    )?;

    Ok(SweepOutcome {
        grid: grid.clone(),
        objective,
        records,
        executed,
        skipped,
        frontiers,
        summaries,
        jsonl_path,
        pareto_path,
        summary_path,
        breakdown_path,
    })
}

/// [`run_sweep`] on an engine and topology, without checkpointing or a
/// trace. Kept with this signature for the out-of-tree benchmark.
pub fn run_sweep_on(
    grid: &SweepGrid,
    engine: EngineKind,
    out_dir: &Path,
    resume: bool,
    objective: SweepObjective,
    topology: TopologyConfig,
) -> Result<SweepOutcome, SweepError> {
    let ctx = RunContext {
        engine,
        topology,
        ..RunContext::default()
    };
    run_sweep(grid, out_dir, resume, objective, &ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{CheckpointSpec, TraceWorkload};
    use crate::sim::GatingMode;
    use htm_workloads::WorkloadScale;

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clockgate-sweep-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A fresh or resumed sweep in the default context, under the energy
    /// objective.
    fn plain_sweep(grid: &SweepGrid, dir: &Path, resume: bool) -> Result<SweepOutcome, SweepError> {
        run_sweep(
            grid,
            dir,
            resume,
            SweepObjective::Energy,
            &RunContext::default(),
        )
    }

    /// A sweep whose trace-axis cells replay `trace`.
    fn traced_sweep(
        trace: &TraceWorkload,
        grid: &SweepGrid,
        dir: &Path,
        resume: bool,
    ) -> Result<SweepOutcome, SweepError> {
        let ctx = RunContext {
            trace: Some(trace),
            ..RunContext::default()
        };
        run_sweep(grid, dir, resume, SweepObjective::Energy, &ctx)
    }

    /// Checkpoint every cell into `dir` every 500 cycles.
    fn checkpointing(dir: &Path) -> RunContext<'static> {
        RunContext {
            checkpoint: Some(CheckpointSpec {
                dir: dir.to_path_buf(),
                every: 500,
            }),
            ..RunContext::default()
        }
    }

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            workloads: vec!["intruder".into()],
            processor_counts: vec![4],
            ..SweepGrid::smoke()
        }
    }

    #[test]
    fn run_cell_produces_a_record_for_every_smoke_cell() {
        for cell in SweepGrid::smoke().expand() {
            let record = run_cell(&cell, &RunContext::default()).unwrap();
            assert_eq!(record.key, cell.key());
            assert!(record.commits > 0, "{} must commit", record.key);
            assert!(record.total_energy > 0.0);
        }
    }

    #[test]
    fn sweep_writes_all_artifacts_and_is_deterministic() {
        let grid = tiny_grid();
        let dir_a = test_dir("det-a");
        let dir_b = test_dir("det-b");
        let a = plain_sweep(&grid, &dir_a, false).unwrap();
        let _b = plain_sweep(&grid, &dir_b, false).unwrap();
        assert_eq!(a.executed, grid.expand().len());
        assert_eq!(a.skipped, 0);
        for name in [
            JSONL_NAME,
            PARETO_NAME,
            SUMMARY_NAME,
            GRID_NAME,
            BREAKDOWN_NAME,
        ] {
            let bytes_a = fs::read(dir_a.join(name)).unwrap();
            let bytes_b = fs::read(dir_b.join(name)).unwrap();
            assert!(!bytes_a.is_empty());
            assert_eq!(bytes_a, bytes_b, "{name} must be byte-identical");
        }
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn resume_skips_completed_cells_and_leaves_artifacts_identical() {
        let grid = tiny_grid();
        let dir = test_dir("resume");
        let fresh = plain_sweep(&grid, &dir, false).unwrap();
        let jsonl = fs::read(&fresh.jsonl_path).unwrap();
        let pareto = fs::read(&fresh.pareto_path).unwrap();

        // Truncate the JSONL to a prefix, as an interrupted run would.
        let text = String::from_utf8(jsonl.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2);
        let prefix: String = lines[..1].iter().map(|l| format!("{l}\n")).collect();
        fs::write(&fresh.jsonl_path, prefix).unwrap();

        let resumed = plain_sweep(&grid, &dir, true).unwrap();
        assert_eq!(resumed.skipped, 1);
        assert_eq!(resumed.executed, lines.len() - 1);
        assert_eq!(fs::read(&resumed.jsonl_path).unwrap(), jsonl);
        assert_eq!(fs::read(&resumed.pareto_path).unwrap(), pareto);

        // Resuming a complete sweep runs nothing and changes nothing.
        let noop = plain_sweep(&grid, &dir, true).unwrap();
        assert_eq!(noop.executed, 0);
        assert_eq!(noop.skipped, lines.len());
        assert_eq!(fs::read(&noop.jsonl_path).unwrap(), jsonl);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_records_from_a_different_grid() {
        let dir = test_dir("foreign");
        plain_sweep(&tiny_grid(), &dir, false).unwrap();
        let other = SweepGrid {
            workloads: vec!["genome".into()],
            ..tiny_grid()
        };
        let err = plain_sweep(&other, &dir, true).unwrap_err();
        assert!(matches!(err, SweepError::ForeignRecord(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_non_prefix_records() {
        let grid = tiny_grid();
        let dir = test_dir("nonprefix");
        let fresh = plain_sweep(&grid, &dir, false).unwrap();
        // Drop the FIRST line: the remaining records are in the grid but no
        // longer the in-order prefix, so a resumed run could not converge
        // to the fresh-run byte stream.
        let text = fs::read_to_string(&fresh.jsonl_path).unwrap();
        let tail: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        fs::write(&fresh.jsonl_path, tail).unwrap();
        let err = plain_sweep(&grid, &dir, true).unwrap_err();
        assert!(
            matches!(err, SweepError::NonPrefixResume { line: 1, .. }),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_grown_grid() {
        // A superset grid passes a contains()-style check but breaks the
        // prefix invariant; the runner must refuse rather than produce a
        // JSONL whose order differs from a fresh run.
        let small = SweepGrid {
            workloads: vec!["intruder".into()],
            ..SweepGrid::smoke()
        };
        let grown = SweepGrid {
            workloads: vec!["genome".into(), "intruder".into()],
            ..SweepGrid::smoke()
        };
        let dir = test_dir("grown");
        plain_sweep(&small, &dir, false).unwrap();
        let err = plain_sweep(&grown, &dir, true).unwrap_err();
        assert!(
            matches!(err, SweepError::NonPrefixResume { line: 1, .. }),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_duplicate_records() {
        let grid = tiny_grid();
        let dir = test_dir("dup");
        let fresh = plain_sweep(&grid, &dir, false).unwrap();
        // Re-append the last line of a complete run: every key is in the
        // grid, but the file now has more records than cells.
        let text = fs::read_to_string(&fresh.jsonl_path).unwrap();
        let last = text.lines().last().unwrap().to_string();
        fs::write(&fresh.jsonl_path, format!("{text}{last}\n")).unwrap();
        let err = plain_sweep(&grid, &dir, true).unwrap_err();
        assert!(matches!(err, SweepError::Resume { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_corrupt_jsonl() {
        let dir = test_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(JSONL_NAME), "not json\n").unwrap();
        let err = plain_sweep(&tiny_grid(), &dir, true).unwrap_err();
        assert!(matches!(err, SweepError::Resume { line: 1, .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_failures_name_the_first_failing_cell_in_grid_order() {
        let grid = SweepGrid {
            cycle_limit: 10, // guaranteed CycleLimitExceeded for every cell
            ..tiny_grid()
        };
        let dir = test_dir("fail");
        let err = plain_sweep(&grid, &dir, false).unwrap_err();
        match err {
            SweepError::Cell { key, source } => {
                assert_eq!(key, grid.expand()[0].key(), "first cell in grid order");
                assert!(matches!(source, SimError::CycleLimitExceeded { .. }));
            }
            other => panic!("expected a cell failure, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_grid_is_rejected() {
        let grid = SweepGrid {
            workloads: vec![],
            ..tiny_grid()
        };
        let dir = test_dir("empty");
        assert!(matches!(
            plain_sweep(&grid, &dir, false),
            Err(SweepError::EmptyGrid)
        ));
    }

    #[test]
    fn both_engines_agree_byte_for_byte_on_a_tiny_sweep() {
        let grid = SweepGrid {
            scales: vec![WorkloadScale::Test],
            gating: super::super::GatingAxis {
                kinds: vec![
                    super::super::ModeKind::Ungated,
                    super::super::ModeKind::ClockGate,
                ],
                ..Default::default()
            },
            ..tiny_grid()
        };
        let dir_fast = test_dir("eng-fast");
        let dir_naive = test_dir("eng-naive");
        plain_sweep(&grid, &dir_fast, false).unwrap();
        let naive = RunContext {
            engine: EngineKind::Naive,
            ..RunContext::default()
        };
        run_sweep(&grid, &dir_naive, false, SweepObjective::Energy, &naive).unwrap();
        for name in [JSONL_NAME, PARETO_NAME, SUMMARY_NAME, BREAKDOWN_NAME] {
            assert_eq!(
                fs::read(dir_fast.join(name)).unwrap(),
                fs::read(dir_naive.join(name)).unwrap(),
                "{name} must not depend on the stepping engine"
            );
        }
        let _ = fs::remove_dir_all(&dir_fast);
        let _ = fs::remove_dir_all(&dir_naive);
    }

    #[test]
    fn sharded_topology_suffixes_keys_and_rejects_bus_resume() {
        use htm_sim::topology::LatencyModel;
        let grid = SweepGrid {
            scales: vec![WorkloadScale::Test],
            ..tiny_grid()
        };
        let sharded = TopologyConfig::Sharded {
            banks: 0,
            model: LatencyModel::Crossbar {
                hop_cycles: LatencyModel::DEFAULT_CROSSBAR_HOP,
            },
        };
        let dir = test_dir("topo");
        let ctx = RunContext {
            topology: sharded,
            ..RunContext::default()
        };
        let outcome = run_sweep(&grid, &dir, false, SweepObjective::Energy, &ctx).unwrap();
        let segment = sharded.key_segment().unwrap();
        for record in &outcome.records {
            assert!(
                record.key.ends_with(&segment),
                "{} must carry the topology segment",
                record.key
            );
        }
        // A bus run must refuse to resume from the sharded record stream.
        let err = plain_sweep(&grid, &dir, true).unwrap_err();
        assert!(matches!(err, SweepError::ForeignRecord(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_include_gating_activity_for_gated_modes() {
        let cell = SweepCell {
            workload: "intruder".into(),
            procs: 4,
            geometry: Default::default(),
            leakage_percent: 20,
            scale: WorkloadScale::Test,
            seed: 42,
            mode: GatingMode::ClockGate { w0: 8 },
            cycle_limit: 20_000_000,
        };
        let record = run_cell(&cell, &RunContext::default()).unwrap();
        assert!(record.gatings > 0);
        assert!(record.gated_cycles > 0);
        assert!(record.energy_gating_control > 0.0);
        assert!(record.uncore_energy > 0.0);
    }

    #[test]
    fn swept_leakage_share_flows_into_the_record() {
        let base = SweepCell {
            workload: "intruder".into(),
            procs: 4,
            geometry: Default::default(),
            leakage_percent: 20,
            scale: WorkloadScale::Test,
            seed: 42,
            mode: GatingMode::ClockGate { w0: 8 },
            cycle_limit: 20_000_000,
        };
        let leaky = SweepCell {
            leakage_percent: 40,
            ..base.clone()
        };
        let a = run_cell(&base, &RunContext::default()).unwrap();
        let b = run_cell(&leaky, &RunContext::default()).unwrap();
        assert_eq!(a.total_cycles, b.total_cycles, "power model is passive");
        assert_eq!(b.leakage_percent, 40);
        assert!(
            b.total_energy > a.total_energy,
            "a leakier node burns more during the gated/miss states"
        );
    }

    #[test]
    fn resume_rejects_old_schema_records_with_the_version_story() {
        let grid = tiny_grid();
        let dir = test_dir("schema");
        let fresh = plain_sweep(&grid, &dir, false).unwrap();
        // Forge a pre-ledger file: strip the schema field from every line
        // (the v1 layout had no such field at all).
        let text = fs::read_to_string(&fresh.jsonl_path).unwrap();
        let stripped: String = text
            .lines()
            .map(|l| format!("{}\n", l.replacen("\"schema\":2,", "", 1)))
            .collect();
        assert_ne!(stripped, text, "the schema field must have been present");
        fs::write(&fresh.jsonl_path, stripped).unwrap();
        let err = plain_sweep(&grid, &dir, true).unwrap_err();
        assert!(
            matches!(
                err,
                SweepError::SchemaMismatch {
                    line: 1,
                    found: None,
                    expected: super::super::SCHEMA_VERSION,
                }
            ),
            "{err}"
        );
        let rendered = err.to_string();
        assert!(rendered.contains("pre-ledger"), "{rendered}");
        assert!(rendered.contains("--resume"), "{rendered}");

        // A wrong (future/old numbered) version is told apart from a
        // missing field.
        let renumbered: String = text
            .lines()
            .map(|l| format!("{}\n", l.replacen("\"schema\":2,", "\"schema\":1,", 1)))
            .collect();
        fs::write(&fresh.jsonl_path, renumbered).unwrap();
        let err = plain_sweep(&grid, &dir, true).unwrap_err();
        assert!(
            matches!(err, SweepError::SchemaMismatch { found: Some(1), .. }),
            "{err}"
        );
    }

    #[test]
    fn objective_changes_the_pareto_artifact_but_not_the_records() {
        let grid = tiny_grid();
        let dir_energy = test_dir("obj-energy");
        let dir_edp = test_dir("obj-edp");
        let ctx = RunContext::default();
        let energy = run_sweep(&grid, &dir_energy, false, SweepObjective::Energy, &ctx).unwrap();
        let edp = run_sweep(&grid, &dir_edp, false, SweepObjective::Edp, &ctx).unwrap();
        // The measurement artifacts are objective-independent...
        for name in [JSONL_NAME, GRID_NAME, BREAKDOWN_NAME] {
            assert_eq!(
                fs::read(dir_energy.join(name)).unwrap(),
                fs::read(dir_edp.join(name)).unwrap(),
                "{name} must not depend on the objective"
            );
        }
        // ...while the frontier artifact records which objective it used.
        let pareto_energy = fs::read_to_string(&energy.pareto_path).unwrap();
        let pareto_edp = fs::read_to_string(&edp.pareto_path).unwrap();
        assert!(pareto_energy.contains("\"objective\": \"energy\""));
        assert!(pareto_edp.contains("\"objective\": \"edp\""));
        // An interrupted EDP sweep resumes cleanly (the records carry no
        // objective).
        let resumed = run_sweep(&grid, &dir_edp, true, SweepObjective::Edp, &ctx).unwrap();
        assert_eq!(resumed.executed, 0);
        let _ = fs::remove_dir_all(&dir_energy);
        let _ = fs::remove_dir_all(&dir_edp);
    }

    #[test]
    fn torn_final_jsonl_line_is_dropped_and_resume_converges() {
        let grid = tiny_grid();
        let dir = test_dir("torn");
        let fresh = plain_sweep(&grid, &dir, false).unwrap();
        let jsonl = fs::read(&fresh.jsonl_path).unwrap();
        let pareto = fs::read(&fresh.pareto_path).unwrap();

        // Kill-mid-write: the file ends with the first complete line plus
        // half of the second, with no trailing newline — exactly what a
        // SIGKILL during the append leaves behind.
        let text = String::from_utf8(jsonl.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2);
        let torn = format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]);
        fs::write(&fresh.jsonl_path, &torn).unwrap();

        let resumed = plain_sweep(&grid, &dir, true).unwrap();
        assert_eq!(resumed.skipped, 1, "only the complete line is a record");
        assert_eq!(resumed.executed, lines.len() - 1);
        assert_eq!(
            fs::read(&resumed.jsonl_path).unwrap(),
            jsonl,
            "the resumed stream converges to the uninterrupted bytes"
        );
        assert_eq!(fs::read(&resumed.pareto_path).unwrap(), pareto);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_single_line_without_newline_resumes_from_scratch() {
        let grid = tiny_grid();
        let dir = test_dir("torn-first");
        let fresh = plain_sweep(&grid, &dir, false).unwrap();
        let jsonl = fs::read(&fresh.jsonl_path).unwrap();
        // The very first append was interrupted: no newline anywhere.
        let text = String::from_utf8(jsonl.clone()).unwrap();
        let first = text.lines().next().unwrap();
        fs::write(&fresh.jsonl_path, &first[..first.len() / 2]).unwrap();
        let resumed = plain_sweep(&grid, &dir, true).unwrap();
        assert_eq!(resumed.skipped, 0);
        assert_eq!(fs::read(&resumed.jsonl_path).unwrap(), jsonl);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_messages_cover_str_string_and_non_string_payloads() {
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(42_u32)).unwrap_err();
        let err = SweepError::CellPanic {
            key: "cell".into(),
            message: panic_message(caught.as_ref()),
        };
        assert_eq!(
            err.to_string(),
            "sweep cell `cell` panicked: non-string panic payload"
        );

        let caught = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "plain str");

        let caught = std::panic::catch_unwind(|| panic!("formatted {}", "string")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "formatted string");
    }

    #[test]
    fn checkpointed_sweep_matches_plain_artifacts_and_cleans_up() {
        let grid = tiny_grid();
        let dir_plain = test_dir("ckpt-plain");
        let dir_ckpt = test_dir("ckpt-on");
        let ckpt_dir = test_dir("ckpt-files");
        plain_sweep(&grid, &dir_plain, false).unwrap();
        let ctx = checkpointing(&ckpt_dir);
        run_sweep(&grid, &dir_ckpt, false, SweepObjective::Energy, &ctx).unwrap();
        for name in [JSONL_NAME, PARETO_NAME, SUMMARY_NAME, BREAKDOWN_NAME] {
            assert_eq!(
                fs::read(dir_plain.join(name)).unwrap(),
                fs::read(dir_ckpt.join(name)).unwrap(),
                "{name} must not depend on checkpointing"
            );
        }
        // Completed cells delete their checkpoints: the records supersede
        // them.
        let leftovers: Vec<_> = fs::read_dir(&ckpt_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(leftovers.is_empty(), "stale checkpoints: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir_plain);
        let _ = fs::remove_dir_all(&dir_ckpt);
        let _ = fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn old_version_checkpoint_fails_before_any_cell_runs() {
        let grid = tiny_grid();
        let dir = test_dir("ckpt-version");
        let ckpt_dir = test_dir("ckpt-version-files");
        fs::create_dir_all(&ckpt_dir).unwrap();
        // A checkpoint written by a future (or past) format version.
        let stale = htm_sim::checkpoint::seal_with_version(
            htm_sim::checkpoint::CHECKPOINT_VERSION + 1,
            b"whatever",
        );
        fs::write(
            crate::checkpoint::checkpoint_path(&ckpt_dir, "some-cell", 100),
            stale,
        )
        .unwrap();
        let ctx = checkpointing(&ckpt_dir);
        let err = run_sweep(&grid, &dir, false, SweepObjective::Energy, &ctx).unwrap_err();
        assert!(
            matches!(
                &err,
                SweepError::Checkpoint {
                    key: None,
                    source: CheckpointError::UnsupportedVersion { .. },
                }
            ),
            "{err}"
        );
        // The pre-flight gate fired before any cell ran — mirroring the
        // SchemaMismatch gate, no sweep.jsonl was started.
        assert!(!dir.join(JSONL_NAME).exists(), "no cell may have run");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&ckpt_dir);
    }

    fn loaded_intruder_trace() -> htm_workloads::LoadedTrace {
        let w =
            htm_workloads::by_name("intruder", 4, htm_workloads::WorkloadScale::Test, 42).unwrap();
        htm_workloads::trace::read_from(htm_workloads::trace::render(&w).as_bytes()).unwrap()
    }

    #[test]
    fn traced_cells_match_their_generator_driven_twins_field_for_field() {
        let loaded = loaded_intruder_trace();
        let trace = TraceWorkload::from_loaded(&loaded);
        let trace_grid = SweepGrid::for_trace(&trace.axis_name, 4);
        let synth_grid = tiny_grid();
        let traced_ctx = RunContext {
            trace: Some(&trace),
            ..RunContext::default()
        };
        for (traced, synth) in trace_grid.expand().iter().zip(synth_grid.expand().iter()) {
            let a = run_cell(traced, &traced_ctx).unwrap();
            let b = run_cell(synth, &RunContext::default()).unwrap();
            // Same machine, same access stream: every physical field agrees;
            // only the identity fields (key/workload/scale/seed) differ.
            assert_eq!(a.total_cycles, b.total_cycles, "{}", a.key);
            assert_eq!(a.commits, b.commits);
            assert_eq!(a.aborts, b.aborts);
            assert_eq!(a.total_energy.to_bits(), b.total_energy.to_bits());
            assert_eq!(a.edp.to_bits(), b.edp.to_bits());
            assert!(a.key.starts_with("trace-intruder-"));
        }
    }

    #[test]
    fn trace_sweep_runs_resume_and_reject_foreign_records() {
        let loaded = loaded_intruder_trace();
        let trace = TraceWorkload::from_loaded(&loaded);
        let grid = SweepGrid::for_trace(&trace.axis_name, 4);
        let dir = test_dir("trace-sweep");
        let fresh = traced_sweep(&trace, &grid, &dir, false).unwrap();
        assert_eq!(fresh.executed, 3);
        // Resuming the same trace file skips everything.
        let noop = traced_sweep(&trace, &grid, &dir, true).unwrap();
        assert_eq!(noop.executed, 0);
        assert_eq!(noop.skipped, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_a_trace_grid_rejects_synthetic_records_as_foreign() {
        // Satellite: `sweep --resume` against a grid whose workload axis
        // names a trace file must reject the existing synthetic-sweep
        // records with ForeignRecord — never silently re-key them.
        let dir = test_dir("trace-foreign-synth");
        plain_sweep(&tiny_grid(), &dir, false).unwrap();
        let loaded = loaded_intruder_trace();
        let trace = TraceWorkload::from_loaded(&loaded);
        let grid = SweepGrid::for_trace(&trace.axis_name, 4);
        let err = traced_sweep(&trace, &grid, &dir, true).unwrap_err();
        assert!(matches!(err, SweepError::ForeignRecord(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_an_edited_trace_rejects_the_old_records_as_foreign() {
        let loaded = loaded_intruder_trace();
        let trace = TraceWorkload::from_loaded(&loaded);
        let dir = test_dir("trace-foreign-edit");
        traced_sweep(
            &trace,
            &SweepGrid::for_trace(&trace.axis_name, 4),
            &dir,
            false,
        )
        .unwrap();
        // "Edit" the trace: one extra compute op changes the fingerprint,
        // hence the axis name, hence every cell key.
        let mut edited = loaded.clone();
        edited.workload.threads[0].transactions[0]
            .ops
            .push(htm_tcc::txn::Op::Compute(1));
        edited.fingerprint = edited.workload.fingerprint();
        let edited_trace = TraceWorkload::from_loaded(&edited);
        assert_ne!(edited_trace.axis_name, trace.axis_name);
        let err = traced_sweep(
            &edited_trace,
            &SweepGrid::for_trace(&edited_trace.axis_name, 4),
            &dir,
            true,
        )
        .unwrap_err();
        assert!(matches!(err, SweepError::ForeignRecord(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
