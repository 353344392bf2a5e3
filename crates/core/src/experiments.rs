//! Reproduction of every table and figure of the paper's evaluation.
//!
//! | id | paper content | function |
//! |----|---------------|----------|
//! | Table I  | Alpha 21264 power factors | [`table1`] |
//! | Table II | simulation parameters | [`table2`] |
//! | Fig. 3   | TCC data-cache power vs. RW-bit resolution | [`fig3`] |
//! | Fig. 4   | parallel execution time with / without gating | [`render_fig4`] |
//! | Fig. 5   | energy consumption with / without gating | [`render_fig5`] |
//! | Fig. 6   | average power dissipation with / without gating | [`render_fig6`] |
//! | Fig. 7   | speed-up vs. `W0` and processor count | [`fig7`] |
//! | headline | 19 % energy / 4 % speed-up / 13 % power averages | [`summary`] |
//!
//! Figures 4–6 are three views of the same simulation matrix (the paper's
//! three applications × {4, 8, 16} processors × {ungated, gated}); the matrix
//! is computed once by [`run_matrix`] and each figure renders its slice.

use std::ops::ControlFlow;
use std::panic::resume_unwind;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use htm_power::cache_power::CachePowerModel;
use htm_power::energy::ComparisonReport;
use htm_power::ledger::EnergyLedgerReport;
use htm_power::model::PowerModel;
use htm_sim::config::SimConfig;
use htm_sim::pool::WorkerPool;
use htm_sim::Cycle;
use htm_tcc::system::SimError;
use htm_workloads::registry::PAPER_WORKLOADS;
use htm_workloads::WorkloadScale;

use crate::context::RunContext;
use crate::report::{fmt_f, fmt_factor, fmt_percent, format_table};
use crate::sim::{compare_runs, GatingMode, SimReport};

pub use htm_workloads::registry::PAPER_WORKLOADS as EVALUATED_WORKLOADS;

/// Parameters shared by the simulation-based experiments (Figs. 4–7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Processor counts to evaluate (the paper uses 4, 8 and 16).
    pub processor_counts: Vec<usize>,
    /// Workloads to evaluate (defaults to the paper's genome / yada /
    /// intruder).
    pub workloads: Vec<String>,
    /// Workload scale (number of transactions per thread).
    pub scale: WorkloadScale,
    /// Base seed for workload generation.
    pub seed: u64,
    /// The `W0` constant used for the gated runs of Figs. 4–6 (the paper uses
    /// 8).
    pub w0: Cycle,
    /// Safety bound on simulated cycles per run.
    pub cycle_limit: Cycle,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            processor_counts: vec![4, 8, 16],
            workloads: PAPER_WORKLOADS.iter().map(|s| (*s).to_string()).collect(),
            scale: WorkloadScale::Full,
            seed: 42,
            w0: 8,
            cycle_limit: crate::sim::DEFAULT_CYCLE_LIMIT,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for unit tests (one processor count,
    /// test-scale workloads).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            processor_counts: vec![4],
            scale: WorkloadScale::Test,
            ..Self::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Table I and Table II
// ---------------------------------------------------------------------------

/// Table I: the Alpha 21264 power factors.
#[must_use]
pub fn table1() -> Vec<(&'static str, f64)> {
    PowerModel::alpha_21264_65nm().table1_rows()
}

/// Render Table I as text.
#[must_use]
pub fn render_table1() -> String {
    let rows: Vec<Vec<String>> = table1()
        .into_iter()
        .map(|(op, f)| vec![op.to_string(), fmt_f(f, 2)])
        .collect();
    format!(
        "Table I: Power model of Alpha 21264\n{}",
        format_table(&["Operation", "Power Factor"], &rows)
    )
}

/// Table II: the simulation parameters for `procs` processors.
#[must_use]
pub fn table2(procs: usize) -> Vec<(String, String)> {
    SimConfig::table2(procs).table2_rows()
}

/// Render Table II as text.
#[must_use]
pub fn render_table2(procs: usize) -> String {
    let rows: Vec<Vec<String>> = table2(procs).into_iter().map(|(f, d)| vec![f, d]).collect();
    format!(
        "Table II: Parameters used in the simulation\n{}",
        format_table(&["Feature", "Description"], &rows)
    )
}

// ---------------------------------------------------------------------------
// Fig. 3 — TCC data-cache power vs. RW-bit resolution
// ---------------------------------------------------------------------------

/// One curve of Fig. 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Series {
    /// Cache capacity in KiB.
    pub cache_kb: usize,
    /// `(tracking resolution in bytes, normalized power)` points, from line
    /// granularity (64 B) down to byte granularity.
    pub points: Vec<(usize, f64)>,
}

/// Result of the Fig. 3 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Result {
    /// One series per cache size.
    pub series: Vec<Fig3Series>,
    /// Full TCC-cache factor (array + FIFO + controller) for the 64 KB cache
    /// with word-level tracking — the paper's "1.5×" number.
    pub tcc_cache_factor_64kb: f64,
}

/// Compute the Fig. 3 data for the standard cache sizes.
#[must_use]
pub fn fig3() -> Fig3Result {
    let sizes = [16usize, 32, 64, 128];
    let series = sizes
        .iter()
        .map(|&kb| Fig3Series {
            cache_kb: kb,
            points: CachePowerModel::new_kb(kb).fig3_series(),
        })
        .collect();
    Fig3Result {
        series,
        tcc_cache_factor_64kb: CachePowerModel::new_kb(64).tcc_breakdown(2).factor(),
    }
}

/// Render Fig. 3 as text.
#[must_use]
pub fn render_fig3(result: &Fig3Result) -> String {
    let resolutions: Vec<usize> = result
        .series
        .first()
        .map(|s| s.points.iter().map(|(r, _)| *r).collect())
        .unwrap_or_default();
    let mut headers: Vec<String> = vec!["cache size".to_string()];
    headers.extend(resolutions.iter().map(|r| format!("{r}B")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = result
        .series
        .iter()
        .map(|s| {
            let mut row = vec![format!("{}KB", s.cache_kb)];
            row.extend(s.points.iter().map(|(_, p)| fmt_f(*p, 1)));
            row
        })
        .collect();
    format!(
        "Fig. 3: Normalized power of a TCC data cache vs. RW-bit resolution (normal cache = 100)\n{}\nFull TCC data cache (array + store FIFO + commit controller, 64KB @ 2B tracking): {:.2}x a normal data cache\n",
        format_table(&header_refs, &rows),
        result.tcc_cache_factor_64kb
    )
}

// ---------------------------------------------------------------------------
// The Fig. 4/5/6 simulation matrix
// ---------------------------------------------------------------------------

/// One (workload, processor-count) cell of the evaluation matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Workload name.
    pub workload: String,
    /// Processor count.
    pub procs: usize,
    /// Gated-vs-ungated comparison (speed-up, energy reduction, …).
    pub comparison: ComparisonReport,
    /// Gatings, renewals and wake reasons observed in the gated run.
    pub gating: Option<crate::gating::controller::GatingStats>,
    /// Aborts per commit in the ungated baseline.
    pub baseline_abort_rate: f64,
}

/// The complete Fig. 4/5/6 evaluation matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluationMatrix {
    /// Experiment parameters used.
    pub config: ExperimentConfig,
    /// One cell per (workload, processor count).
    pub cells: Vec<MatrixCell>,
}

/// Wall-clock timing of one matrix cell (both runs of the gated/ungated
/// pair).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTiming {
    /// Workload name.
    pub workload: String,
    /// Processor count.
    pub procs: usize,
    /// Wall-clock milliseconds the cell took (ungated + gated run).
    pub wall_ms: f64,
}

/// Wall-clock timing of a whole [`run_matrix`] invocation; serialized
/// as the `BENCH_reproduce.json` artifact by the `reproduce --timing` flag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixTiming {
    /// Stepping engine used for every simulation of the matrix.
    pub engine: String,
    /// Interconnect topology every simulation ran on.
    pub topology: String,
    /// Worker threads the matrix was spread over.
    pub threads: usize,
    /// Per-cell wall-clock timings, in the deterministic cell order.
    pub cells: Vec<CellTiming>,
    /// End-to-end wall-clock milliseconds for the whole matrix.
    pub total_wall_ms: f64,
    /// Matrix cells completed per wall-clock second.
    pub cells_per_sec: f64,
}

/// Run one simulation of `workload` on `procs` processors under `mode`.
/// `kind` tags the run (`ungated`, `gated`, `fig7-w<N>`, ...) so that its
/// checkpoint key `{workload}-p{procs}-{kind}` (plus the topology segment
/// off the bus) is unique within a checkpoint directory.
fn run_one(
    workload: &str,
    procs: usize,
    cfg: &ExperimentConfig,
    mode: GatingMode,
    kind: &str,
    ctx: &RunContext<'_>,
) -> Result<SimReport, SimError> {
    let builder = ctx
        .builder(procs, workload, cfg.scale, cfg.seed)?
        .gating(mode)
        .cycle_limit(cfg.cycle_limit);
    Ok(ctx.run(builder, &ctx.key(&format!("{workload}-p{procs}-{kind}")))?)
}

/// Component-resolved energy ledgers of one matrix cell (both runs of the
/// ungated/gated pair), written as the `energy_breakdown.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellEnergyBreakdown {
    /// Workload name.
    pub workload: String,
    /// Processor count.
    pub procs: usize,
    /// Ledger of the ungated baseline run.
    pub ungated: EnergyLedgerReport,
    /// Ledger of the clock-gated run.
    pub gated: EnergyLedgerReport,
    /// Energy savings of gating on the core subset only (the paper's
    /// accounting), in percent of the ungated core energy.
    pub core_savings_percent: f64,
    /// Energy savings once the uncore is charged too, in percent of the
    /// ungated ledger total.
    pub total_savings_percent: f64,
}

impl CellEnergyBreakdown {
    fn new(
        workload: &str,
        procs: usize,
        ungated: EnergyLedgerReport,
        gated: EnergyLedgerReport,
    ) -> Self {
        let savings = |ug: f64, g: f64| {
            if ug > 0.0 {
                (1.0 - g / ug) * 100.0
            } else {
                0.0
            }
        };
        Self {
            workload: workload.to_string(),
            procs,
            core_savings_percent: savings(ungated.core_energy, gated.core_energy),
            total_savings_percent: savings(ungated.total_energy, gated.total_energy),
            ungated,
            gated,
        }
    }

    /// How many percentage points the uncore charge moves the
    /// gated-vs-ungated energy gap (negative: the uncore erodes the win).
    #[must_use]
    pub fn uncore_gap_shift_percent(&self) -> f64 {
        self.total_savings_percent - self.core_savings_percent
    }
}

/// The `energy_breakdown.json` artifact: per-component ledgers for every
/// cell of the evaluation matrix. Everything inside is a deterministic
/// function of the engine-exact outcomes, so the artifact is byte-identical
/// across stepping engines (CI compares it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdownReport {
    /// One breakdown per (workload, processor count), in matrix cell order.
    pub cells: Vec<CellEnergyBreakdown>,
}

fn run_cell(
    workload: &str,
    procs: usize,
    cfg: &ExperimentConfig,
    ctx: &RunContext<'_>,
) -> Result<(MatrixCell, CellEnergyBreakdown), SimError> {
    let ungated = run_one(workload, procs, cfg, GatingMode::Ungated, "ungated", ctx)?;
    let gated_mode = GatingMode::ClockGate { w0: cfg.w0 };
    let gated = run_one(workload, procs, cfg, gated_mode, "gated", ctx)?;
    let comparison = compare_runs(&ungated, &gated);
    let breakdown = CellEnergyBreakdown::new(workload, procs, ungated.ledger, gated.ledger.clone());
    Ok((
        MatrixCell {
            workload: workload.to_string(),
            procs,
            baseline_abort_rate: ungated.outcome.abort_rate(),
            gating: gated.gating,
            comparison,
        },
        breakdown,
    ))
}

/// Run `n` jobs on the process-wide thread budget
/// ([`WorkerPool::run_in_order`]) and collect their results in index order.
/// The first `Err` in index order stops the batch and is returned,
/// whichever job failed first in time; a job's panic is re-raised here.
fn run_batch<T: Send>(
    n: usize,
    job: impl Fn(usize) -> Result<T, SimError> + Sync,
) -> Result<Vec<T>, SimError> {
    let mut out = Vec::with_capacity(n);
    let mut failure = None;
    WorkerPool::global().run_in_order(n, job, |_, result| {
        match result.unwrap_or_else(|payload| resume_unwind(payload)) {
            Ok(value) => {
                out.push(value);
                ControlFlow::Continue(())
            }
            Err(error) => {
                failure = Some(error);
                ControlFlow::Break(())
            }
        }
    });
    failure.map_or(Ok(out), Err)
}

/// Run the full evaluation matrix (every workload × processor count, with
/// and without clock gating) in the given [`RunContext`], spreading the
/// independent (workload × processor-count) cells over the process-wide
/// thread budget ([`WorkerPool::global`], `--threads`) and collecting
/// per-cell wall-clock timings plus the per-component energy breakdown of
/// every cell.
///
/// Every cell is a self-contained deterministic simulation pair, so the
/// schedule cannot influence the results; cells are collected in index
/// order, which keeps the output ordering (workload-major, then processor
/// count — the paper's figure order) byte-identical to a serial loop. On
/// error, the first failing cell *in that deterministic order* is reported,
/// regardless of which thread hit an error first, and no later cell starts.
///
/// Under checkpointing the checkpoint directory is pre-flighted before any
/// cell runs, so a future-format checkpoint file is a dedicated error up
/// front rather than a mid-matrix surprise. Nothing in the context changes
/// an output byte: a checkpointed, killed and resumed matrix, a traced one
/// and one on any engine produce the same matrix and energy breakdown.
pub fn run_matrix(
    cfg: &ExperimentConfig,
    ctx: &RunContext<'_>,
) -> Result<(EvaluationMatrix, MatrixTiming, EnergyBreakdownReport), SimError> {
    ctx.preflight()?;
    let params: Vec<(&str, usize)> = cfg
        .workloads
        .iter()
        .flat_map(|w| cfg.processor_counts.iter().map(move |&p| (w.as_str(), p)))
        .collect();
    let threads = WorkerPool::global().workers().min(params.len().max(1));
    let started = Instant::now();
    let results = run_batch(params.len(), |i| {
        let (workload, procs) = params[i];
        let cell_started = Instant::now();
        let (cell, breakdown) = run_cell(workload, procs, cfg, ctx)?;
        Ok((cell, breakdown, cell_started.elapsed().as_secs_f64() * 1e3))
    })?;

    let mut cells = Vec::with_capacity(params.len());
    let mut breakdowns = Vec::with_capacity(params.len());
    let mut timings = Vec::with_capacity(params.len());
    for (cell, breakdown, wall_ms) in results {
        timings.push(CellTiming {
            workload: cell.workload.clone(),
            procs: cell.procs,
            wall_ms,
        });
        cells.push(cell);
        breakdowns.push(breakdown);
    }
    let total_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let timing = MatrixTiming {
        engine: ctx.engine.label().to_string(),
        topology: ctx.topology.describe(),
        threads,
        cells_per_sec: if total_wall_ms > 0.0 {
            cells.len() as f64 / (total_wall_ms / 1e3)
        } else {
            0.0
        },
        cells: timings,
        total_wall_ms,
    };
    Ok((
        EvaluationMatrix {
            config: cfg.clone(),
            cells,
        },
        timing,
        EnergyBreakdownReport { cells: breakdowns },
    ))
}

/// Render the energy-breakdown report as one aligned text table (component
/// energies of both runs per cell, plus the uncore's effect on the gap).
#[must_use]
pub fn render_energy_breakdown(report: &EnergyBreakdownReport) -> String {
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.workload.clone(),
                c.procs.to_string(),
                fmt_f(c.ungated.core_energy, 0),
                fmt_f(c.gated.core_energy, 0),
                fmt_f(c.ungated.uncore_energy, 0),
                fmt_f(c.gated.uncore_energy, 0),
                fmt_percent(c.core_savings_percent),
                fmt_percent(c.total_savings_percent),
                fmt_percent(c.uncore_gap_shift_percent()),
            ]
        })
        .collect();
    format!(
        "Component-resolved energy: core vs. uncore, without vs. with clock gating\n{}",
        format_table(
            &[
                "workload",
                "procs",
                "core Eug",
                "core Eg",
                "uncore Eug",
                "uncore Eg",
                "core savings",
                "total savings",
                "uncore shift"
            ],
            &rows
        )
    )
}

/// Render Fig. 4 (total parallel execution time) from the matrix.
#[must_use]
pub fn render_fig4(matrix: &EvaluationMatrix) -> String {
    let rows: Vec<Vec<String>> = matrix
        .cells
        .iter()
        .map(|c| {
            vec![
                c.workload.clone(),
                c.procs.to_string(),
                c.comparison.ungated_cycles.to_string(),
                c.comparison.gated_cycles.to_string(),
                fmt_factor(c.comparison.speedup),
            ]
        })
        .collect();
    format!(
        "Fig. 4: Total parallel execution time (cycles), without vs. with clock gating\n{}",
        format_table(
            &[
                "workload",
                "procs",
                "without gating",
                "with gating",
                "speed-up"
            ],
            &rows
        )
    )
}

/// Render Fig. 5 (energy consumption) from the matrix.
#[must_use]
pub fn render_fig5(matrix: &EvaluationMatrix) -> String {
    let rows: Vec<Vec<String>> = matrix
        .cells
        .iter()
        .map(|c| {
            vec![
                c.workload.clone(),
                c.procs.to_string(),
                fmt_f(c.comparison.ungated_energy, 0),
                fmt_f(c.comparison.gated_energy, 0),
                fmt_factor(c.comparison.energy_reduction),
                fmt_percent(c.comparison.energy_savings_percent()),
            ]
        })
        .collect();
    format!(
        "Fig. 5: Energy consumption (run-power x cycles), without vs. with clock gating\n{}",
        format_table(
            &[
                "workload",
                "procs",
                "Eug (ungated)",
                "Eg (gated)",
                "reduction",
                "savings"
            ],
            &rows
        )
    )
}

/// Render Fig. 6 (average power dissipation) from the matrix.
#[must_use]
pub fn render_fig6(matrix: &EvaluationMatrix) -> String {
    let rows: Vec<Vec<String>> = matrix
        .cells
        .iter()
        .map(|c| {
            let p = c.procs as f64;
            let avg_ungated =
                c.comparison.ungated_energy / (c.comparison.ungated_cycles.max(1) as f64 * p);
            let avg_gated =
                c.comparison.gated_energy / (c.comparison.gated_cycles.max(1) as f64 * p);
            vec![
                c.workload.clone(),
                c.procs.to_string(),
                fmt_f(avg_ungated, 3),
                fmt_f(avg_gated, 3),
                fmt_factor(c.comparison.average_power_reduction),
            ]
        })
        .collect();
    format!(
        "Fig. 6: Average power dissipation (fraction of run power per processor), without vs. with clock gating\n{}",
        format_table(
            &["workload", "procs", "without gating", "with gating", "reduction"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// Headline summary (the abstract's 19% / 4% / 13%)
// ---------------------------------------------------------------------------

/// Averages over the whole evaluation matrix, mirroring the numbers quoted in
/// the paper's abstract and Section VIII.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Average speed-up in percent (paper: 4 %).
    pub avg_speedup_percent: f64,
    /// Average reduction in total energy in percent (paper: 19 %).
    pub avg_energy_savings_percent: f64,
    /// Average reduction in average power dissipation in percent (paper: 13 %).
    pub avg_power_savings_percent: f64,
    /// Number of (workload, processor-count) configurations averaged.
    pub configurations: usize,
    /// Number of configurations where gating produced a slowdown (the paper
    /// observes exactly one).
    pub slowdown_configurations: usize,
}

/// Compute the headline averages from a matrix.
#[must_use]
pub fn summary(matrix: &EvaluationMatrix) -> Summary {
    let n = matrix.cells.len().max(1) as f64;
    let avg_speedup_percent = matrix
        .cells
        .iter()
        .map(|c| c.comparison.speedup_percent())
        .sum::<f64>()
        / n;
    let avg_energy_savings_percent = matrix
        .cells
        .iter()
        .map(|c| c.comparison.energy_savings_percent())
        .sum::<f64>()
        / n;
    let avg_power_savings_percent = matrix
        .cells
        .iter()
        .map(|c| c.comparison.average_power_savings_percent())
        .sum::<f64>()
        / n;
    Summary {
        avg_speedup_percent,
        avg_energy_savings_percent,
        avg_power_savings_percent,
        configurations: matrix.cells.len(),
        slowdown_configurations: matrix
            .cells
            .iter()
            .filter(|c| c.comparison.speedup < 1.0)
            .count(),
    }
}

/// Render the summary as text.
#[must_use]
pub fn render_summary(s: &Summary) -> String {
    format!(
        "Headline averages over {} configurations (paper: +4% speed-up, 19% energy, 13% power):\n  average speed-up:            {}\n  average energy savings:      {}\n  average power savings:       {}\n  configurations with slowdown: {}\n",
        s.configurations,
        fmt_percent(s.avg_speedup_percent),
        fmt_percent(s.avg_energy_savings_percent),
        fmt_percent(s.avg_power_savings_percent),
        s.slowdown_configurations
    )
}

// ---------------------------------------------------------------------------
// Fig. 7 — speed-up sensitivity to W0 and Np
// ---------------------------------------------------------------------------

/// One row of Fig. 7: the speed-up of every workload (and their average) for
/// a given `(W0, Np)` point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// The `W0` constant.
    pub w0: Cycle,
    /// Processor count.
    pub procs: usize,
    /// Per-workload speed-ups, in the order of the config's workload list.
    pub speedups: Vec<f64>,
    /// Average speed-up over the workloads.
    pub avg_speedup: f64,
}

/// Result of the Fig. 7 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Workload names (column order of [`Fig7Row::speedups`]).
    pub workloads: Vec<String>,
    /// The sweep rows.
    pub rows: Vec<Fig7Row>,
}

/// Sweep `W0` and the processor count in the given [`RunContext`]; the
/// ungated baseline per (workload, procs) is computed once and reused
/// across `W0` values. The runs go through the process-wide thread budget
/// in the order of a serial loop (per processor count: the baselines, then
/// each `W0` × workload), so an error names the first failing run in that
/// order. Checkpoint keys carry a `fig7-` tag so the sweep can share a
/// checkpoint directory with the evaluation matrix.
pub fn fig7(
    cfg: &ExperimentConfig,
    w0_values: &[Cycle],
    ctx: &RunContext<'_>,
) -> Result<Fig7Result, SimError> {
    ctx.preflight()?;
    let mut modes = vec![(GatingMode::Ungated, "fig7-ungated".to_string())];
    modes.extend(
        w0_values
            .iter()
            .map(|&w0| (GatingMode::ClockGate { w0 }, format!("fig7-w{w0}"))),
    );
    let mut runs = Vec::new();
    for &procs in &cfg.processor_counts {
        for (mode, kind) in &modes {
            runs.extend(
                cfg.workloads
                    .iter()
                    .map(|workload| (workload.as_str(), procs, *mode, kind.as_str())),
            );
        }
    }
    let mut reports = run_batch(runs.len(), |i| {
        let (workload, procs, mode, kind) = runs[i];
        run_one(workload, procs, cfg, mode, kind, ctx)
    })?
    .into_iter();

    let mut rows = Vec::new();
    for &procs in &cfg.processor_counts {
        let baselines: Vec<SimReport> = reports.by_ref().take(cfg.workloads.len()).collect();
        for &w0 in w0_values {
            let speedups: Vec<f64> = baselines
                .iter()
                .zip(reports.by_ref().take(baselines.len()))
                .map(|(ungated, gated)| compare_runs(ungated, &gated).speedup)
                .collect();
            let avg = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
            rows.push(Fig7Row {
                w0,
                procs,
                speedups,
                avg_speedup: avg,
            });
        }
    }
    Ok(Fig7Result {
        workloads: cfg.workloads.clone(),
        rows,
    })
}

/// Render Fig. 7 as text.
#[must_use]
pub fn render_fig7(result: &Fig7Result) -> String {
    let mut headers: Vec<String> = vec!["W0".to_string(), "procs".to_string()];
    headers.extend(result.workloads.iter().cloned());
    headers.push("average".to_string());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.w0.to_string(), r.procs.to_string()];
            row.extend(r.speedups.iter().map(|s| fmt_factor(*s)));
            row.push(fmt_factor(r.avg_speedup));
            row
        })
        .collect();
    format!(
        "Fig. 7: Speed-up as a function of W0 and the number of processors\n{}",
        format_table(&header_refs, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CheckpointSpec;
    use crate::sim::EngineKind;
    use htm_sim::topology::TopologyConfig;

    #[test]
    fn table1_matches_the_paper() {
        let t = table1();
        assert_eq!(t.len(), 4);
        assert!((t[0].1 - 1.0).abs() < 1e-12);
        assert!((t[1].1 - 0.32).abs() < 1e-12);
        assert!((t[2].1 - 0.44).abs() < 1e-12);
        assert!((t[3].1 - 0.20).abs() < 1e-12);
        let rendered = render_table1();
        assert!(rendered.contains("Clock Gated"));
        assert!(rendered.contains("0.44"));
    }

    #[test]
    fn table2_lists_the_five_features() {
        let t = table2(16);
        assert_eq!(t.len(), 5);
        let rendered = render_table2(16);
        assert!(rendered.contains("16 single issue"));
        assert!(rendered.contains("Full-bit vector"));
    }

    #[test]
    fn fig3_has_four_sizes_and_monotone_curves() {
        let f = fig3();
        assert_eq!(f.series.len(), 4);
        for s in &f.series {
            assert_eq!(s.points.len(), 7);
            for w in s.points.windows(2) {
                assert!(w[1].1 > w[0].1);
            }
        }
        assert!((1.3..=1.7).contains(&f.tcc_cache_factor_64kb));
        let rendered = render_fig3(&f);
        assert!(rendered.contains("64KB"));
        assert!(rendered.contains("1B"));
    }

    #[test]
    fn quick_matrix_runs_and_renders() {
        let cfg = ExperimentConfig::quick();
        let (matrix, _, _) = run_matrix(&cfg, &RunContext::default()).unwrap();
        assert_eq!(
            matrix.cells.len(),
            3,
            "three workloads at one processor count"
        );
        for cell in &matrix.cells {
            assert!(cell.comparison.ungated_cycles > 0);
            assert!(cell.comparison.gated_cycles > 0);
            assert!(cell.comparison.gated_energy > 0.0);
        }
        let f4 = render_fig4(&matrix);
        let f5 = render_fig5(&matrix);
        let f6 = render_fig6(&matrix);
        for (fig, needle) in [(&f4, "speed-up"), (&f5, "Eug"), (&f6, "Average power")] {
            assert!(fig.contains(needle), "{fig}");
        }
        let s = summary(&matrix);
        assert_eq!(s.configurations, 3);
        assert!(render_summary(&s).contains("average energy savings"));
    }

    #[test]
    fn parallel_matrix_keeps_deterministic_cell_order_and_reports_timing() {
        let cfg = ExperimentConfig::quick();
        let (matrix, timing, _) = run_matrix(&cfg, &RunContext::default()).unwrap();
        let order: Vec<(String, usize)> = matrix
            .cells
            .iter()
            .map(|c| (c.workload.clone(), c.procs))
            .collect();
        let expected: Vec<(String, usize)> = cfg
            .workloads
            .iter()
            .flat_map(|w| cfg.processor_counts.iter().map(move |&p| (w.clone(), p)))
            .collect();
        assert_eq!(
            order, expected,
            "workload-major cell order must survive parallel execution"
        );
        assert_eq!(timing.cells.len(), matrix.cells.len());
        assert_eq!(timing.engine, "fast-forward");
        assert!(timing.threads >= 1);
        assert!(timing.total_wall_ms >= 0.0);
        assert!(timing.cells_per_sec >= 0.0);
        for (t, c) in timing.cells.iter().zip(&matrix.cells) {
            assert_eq!(
                (t.workload.as_str(), t.procs),
                (c.workload.as_str(), c.procs)
            );
        }
    }

    #[test]
    fn naive_and_fast_matrices_serialize_identically() {
        let cfg = ExperimentConfig::quick();
        let (fast, _, fast_breakdown) = run_matrix(&cfg, &RunContext::default()).unwrap();
        let naive_ctx = RunContext {
            engine: EngineKind::Naive,
            ..RunContext::default()
        };
        let (naive, _, naive_breakdown) = run_matrix(&cfg, &naive_ctx).unwrap();
        assert_eq!(
            crate::report::to_json(&fast),
            crate::report::to_json(&naive),
            "the two engines must produce byte-identical matrix artifacts"
        );
        assert_eq!(
            crate::report::to_json(&fast_breakdown),
            crate::report::to_json(&naive_breakdown),
            "the energy-breakdown artifact must be engine-independent"
        );
    }

    #[test]
    fn breakdown_cells_cross_check_against_the_matrix_comparisons() {
        let cfg = ExperimentConfig::quick();
        let (matrix, _, breakdown) = run_matrix(&cfg, &RunContext::default()).unwrap();
        assert_eq!(breakdown.cells.len(), matrix.cells.len());
        for (b, m) in breakdown.cells.iter().zip(&matrix.cells) {
            assert_eq!(
                (b.workload.as_str(), b.procs),
                (m.workload.as_str(), m.procs)
            );
            // The ledger's core subset is exactly the accounting the
            // comparison report was computed from.
            assert!(
                (b.ungated.core_energy - m.comparison.ungated_energy).abs()
                    <= 1e-9 * m.comparison.ungated_energy.max(1.0),
                "{}@{}p: {} vs {}",
                b.workload,
                b.procs,
                b.ungated.core_energy,
                m.comparison.ungated_energy
            );
            assert!(
                (b.gated.core_energy - m.comparison.gated_energy).abs()
                    <= 1e-9 * m.comparison.gated_energy.max(1.0)
            );
            assert!(b.ungated.uncore_energy > 0.0);
            // The gated run pays for hardware the ungated run does not have.
            assert!(
                b.gated
                    .component_energy(htm_power::ledger::EnergyComponent::GatingControl)
                    > 0.0
            );
            assert_eq!(
                b.ungated
                    .component_energy(htm_power::ledger::EnergyComponent::GatingControl),
                0.0
            );
            assert!(b.uncore_gap_shift_percent().is_finite());
        }
        let rendered = render_energy_breakdown(&breakdown);
        assert!(rendered.contains("uncore shift"));
        assert!(rendered.contains(&breakdown.cells[0].workload));
    }

    #[test]
    fn quick_matrix_summary_is_well_formed() {
        // The `Test` scale is far too small for the headline energy averages
        // to be meaningful (see docs/REPRODUCING.md for the full-scale
        // numbers);
        // this only checks that the summary is computed consistently.
        let (matrix, _, _) =
            run_matrix(&ExperimentConfig::quick(), &RunContext::default()).unwrap();
        let s = summary(&matrix);
        assert_eq!(s.configurations, matrix.cells.len());
        assert!(s.avg_energy_savings_percent.is_finite());
        assert!(s.avg_speedup_percent.is_finite());
        assert!(s.slowdown_configurations <= s.configurations);
    }

    /// A quick config whose second and fourth workloads do not exist, so
    /// only some cells fail, and the later bad cell fails as fast as the
    /// earlier one.
    fn config_with_two_unknown_workloads() -> ExperimentConfig {
        ExperimentConfig {
            workloads: ["genome", "no-such-a", "intruder", "no-such-b"]
                .map(String::from)
                .to_vec(),
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn matrix_errors_name_the_first_failing_cell_in_matrix_order() {
        let err = run_matrix(&config_with_two_unknown_workloads(), &RunContext::default())
            .unwrap_err()
            .to_string();
        assert_eq!(err, "invalid workload: unknown workload 'no-such-a'");
    }

    #[test]
    fn fig7_errors_name_the_first_failing_run_in_loop_order() {
        let cfg = config_with_two_unknown_workloads();
        let err = fig7(&cfg, &[2, 8], &RunContext::default())
            .unwrap_err()
            .to_string();
        assert_eq!(err, "invalid workload: unknown workload 'no-such-a'");
    }

    #[test]
    fn fig7_quick_sweep_produces_rows_per_w0() {
        let cfg = ExperimentConfig::quick();
        let f = fig7(&cfg, &[2, 8, 32], &RunContext::default()).unwrap();
        assert_eq!(f.rows.len(), 3);
        assert!(f.rows.iter().all(|r| r.speedups.len() == 3));
        let rendered = render_fig7(&f);
        assert!(rendered.contains("W0"));
        assert!(rendered.contains("average"));
    }

    /// A completed run deletes every checkpoint file of its key, so files
    /// planted under the expected keys must all be gone after the runs,
    /// while a decoy under a foreign key stays. This pins the checkpoint
    /// key of every matrix and fig7 run on both topology kinds: a drifted
    /// key would silently strand the in-flight checkpoints of a resume.
    #[test]
    fn matrix_and_fig7_checkpoint_keys_are_pinned() {
        use crate::checkpoint::checkpoint_path;
        let cfg = ExperimentConfig::quick();
        for (topology, suffix) in [
            (TopologyConfig::Bus, ""),
            (TopologyConfig::sharded_default(), "-sh0x"),
        ] {
            let dir = std::env::temp_dir()
                .join(format!("clockgate-run-keys{suffix}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let kinds = ["ungated", "gated", "fig7-ungated", "fig7-w8"];
            let planted: Vec<_> = cfg
                .workloads
                .iter()
                .flat_map(|w| kinds.map(|kind| format!("{w}-p4-{kind}{suffix}")))
                .chain(std::iter::once(format!("genome-p4-bogus{suffix}")))
                .map(|key| checkpoint_path(&dir, &key, 1))
                .collect();
            for path in &planted {
                std::fs::write(path, b"not a checkpoint").unwrap();
            }
            let ctx = RunContext {
                topology,
                checkpoint: Some(CheckpointSpec {
                    dir: dir.clone(),
                    every: 1 << 40,
                }),
                ..RunContext::default()
            };
            run_matrix(&cfg, &ctx).unwrap();
            fig7(&cfg, &[8], &ctx).unwrap();
            let (decoy, keyed) = planted.split_last().unwrap();
            for path in keyed {
                assert!(!path.exists(), "no run used the key of {}", path.display());
            }
            assert!(decoy.exists(), "cleanup must only touch the run's own key");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn default_config_matches_the_paper_setup() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.processor_counts, vec![4, 8, 16]);
        assert_eq!(cfg.w0, 8);
        assert_eq!(cfg.workloads, vec!["genome", "yada", "intruder"]);
    }
}
