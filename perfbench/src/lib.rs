//! The repository benchmark, as a library: the three workloads, the runs
//! they are made of, the timing wrapper around a policy hook, the
//! layer-by-layer ("traced") runner and the output checks.
//!
//! Everything here drives the repository's public entry points from
//! outside: `htm_workloads::by_name`, `htm_workloads::trace::{write_to,
//! read_from}`, `SimulationBuilder::run`, `TccSystem::{new, step,
//! into_parts}`, `htm_power::{energy, ledger}::analyze` and
//! `clockgate_htm::sweep::run_sweep_on`. Only the default fast-forward engine
//! is used. `src/main.rs` turns these pieces into timed passes and metrics;
//! `README.md` explains the workloads and metrics.

use std::cell::Cell;
use std::time::{Duration, Instant};

use clockgate_htm::gating::policy::PolicyHook;
use clockgate_htm::sim::{SimReport, SimulationBuilder};
use clockgate_htm::sweep::{GatingAxis, SweepCell, SweepGrid};
use htm_power::ledger::UncoreActivity;
use htm_power::model::PowerModelConfig;
use htm_power::{energy, ledger};
use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::config::SimConfig;
use htm_sim::topology::TopologyConfig;
use htm_sim::{Cycle, DirId, ProcId};
use htm_tcc::hooks::{AbortAction, GateCommand, GatingHook, ScopedCmdKey, SystemView};
use htm_tcc::system::{EngineKind, SimError, TccSystem};
use htm_tcc::txn::{TxId, WorkloadTrace};
use htm_workloads::registry::{ALL_WORKLOADS, PAPER_WORKLOADS};
use htm_workloads::WorkloadScale;

/// Input seeds per benchmark seed in `paper-bus` (one sweep grid).
const PAPER_BUS_SEEDS: u64 = 8;

/// Input seeds per benchmark seed in `sharded-256`. Two rather than one, so
/// that a pass's time depends less on the inputs of one seed.
const SHARDED_SEEDS: u64 = 2;

/// Input seeds per benchmark seed in `policy-sweep`, one `run_sweep` call
/// each. Chosen so that one pass is long enough to time steadily.
pub const POLICY_SWEEP_SEEDS: u64 = 4;

/// The benchmark's workloads. Each is a fixed list of simulation runs (one
/// policy arm of one cell is one run), generated from the benchmark seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's operating point: genome, yada and intruder on 4, 8 and
    /// 16 processors, ungated vs clock-gate `W0 = 8`, full scale, shared
    /// bus, 8 input seeds — 144 runs, one after another on one thread.
    PaperBus,
    /// intruder, genome and clustered on 256 processors, ungated vs
    /// clock-gate `W0 = 8`, test scale, sharded crossbar with one bank per
    /// directory, 2 input seeds — 12 runs on one thread. Few active processors per executed
    /// cycle, many directories.
    Sharded256,
    /// All 13 registered workloads × all 10 policy families on 8
    /// processors, full scale, shared bus — 130 short runs per input seed,
    /// each seed's grid run through `run_sweep` on the worker pool.
    PolicySweep,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperBus,
        Workload::Sharded256,
        Workload::PolicySweep,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBus => "paper-bus",
            Workload::Sharded256 => "sharded-256",
            Workload::PolicySweep => "policy-sweep",
        }
    }

    /// Look a workload up by its `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The interconnect every run of the workload uses.
    #[must_use]
    pub fn topology(self) -> TopologyConfig {
        match self {
            Workload::Sharded256 => TopologyConfig::sharded_default(),
            Workload::PaperBus | Workload::PolicySweep => TopologyConfig::Bus,
        }
    }

    /// The sweep grids of one benchmark seed. Their cells, in order, are
    /// the workload's runs; `policy-sweep` runs each grid as one sweep.
    #[must_use]
    pub fn grids(self, seed: u64) -> Vec<SweepGrid> {
        let names = |list: &[&str]| list.iter().map(|s| (*s).to_string()).collect();
        // Every grid keeps the defaults of the `policies` preset for the
        // axes not named here: Table II cache, 20 % leakage, cycle bound.
        let base = SweepGrid::policies();
        match self {
            Workload::PaperBus => vec![SweepGrid {
                name: self.name().into(),
                workloads: names(&PAPER_WORKLOADS),
                processor_counts: vec![4, 8, 16],
                scales: vec![WorkloadScale::Full],
                seeds: input_seeds(seed, PAPER_BUS_SEEDS).collect(),
                gating: GatingAxis::default(),
                ..base
            }],
            Workload::Sharded256 => vec![SweepGrid {
                name: self.name().into(),
                workloads: names(&["intruder", "genome", "clustered"]),
                processor_counts: vec![256],
                scales: vec![WorkloadScale::Test],
                seeds: input_seeds(seed, SHARDED_SEEDS).collect(),
                gating: GatingAxis::default(),
                ..base
            }],
            Workload::PolicySweep => input_seeds(seed, POLICY_SWEEP_SEEDS)
                .map(|s| SweepGrid {
                    name: self.name().into(),
                    workloads: names(&ALL_WORKLOADS),
                    processor_counts: vec![8],
                    scales: vec![WorkloadScale::Full],
                    seeds: vec![s],
                    ..base.clone()
                })
                .collect(),
        }
    }

    /// Every run of one benchmark seed, in grid order.
    #[must_use]
    pub fn cells(self, seed: u64) -> Vec<SweepCell> {
        self.grids(seed)
            .iter()
            .flat_map(SweepGrid::expand)
            .collect()
    }
}

/// `count` distinct input seeds for benchmark seed `seed`; different
/// benchmark seeds give disjoint sets.
fn input_seeds(seed: u64, count: u64) -> impl Iterator<Item = u64> {
    (0..count).map(move |i| seed.wrapping_mul(count).wrapping_add(i))
}

/// One generated input: a workload trace, stored as an `htmtrace` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Registry workload name.
    pub name: String,
    /// Thread (processor) count.
    pub procs: usize,
    /// Workload scale.
    pub scale: WorkloadScale,
    /// Generation seed.
    pub seed: u64,
}

impl Input {
    /// The input a cell runs.
    #[must_use]
    pub fn of(cell: &SweepCell) -> Self {
        Self {
            name: cell.workload.clone(),
            procs: cell.procs,
            scale: cell.scale,
            seed: cell.seed,
        }
    }

    /// Generate the trace from the workload registry.
    #[must_use]
    pub fn generate(&self) -> WorkloadTrace {
        htm_workloads::by_name(&self.name, self.procs, self.scale, self.seed)
            .expect("benchmark workloads are registered")
    }

    /// File name of the trace.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{}-p{}-{}-s{}.htmtrace",
            self.name,
            self.procs,
            self.scale.label(),
            self.seed
        )
    }
}

/// The distinct inputs of `cells` in first-use order, and for each cell the
/// index of its input.
#[must_use]
pub fn inputs_of(cells: &[SweepCell]) -> (Vec<Input>, Vec<usize>) {
    let mut inputs: Vec<Input> = Vec::new();
    let index = cells
        .iter()
        .map(|cell| {
            let input = Input::of(cell);
            inputs.iter().position(|i| *i == input).unwrap_or_else(|| {
                inputs.push(input);
                inputs.len() - 1
            })
        })
        .collect();
    (inputs, index)
}

/// The machine a cell runs on, exactly as the sweep runner configures it.
#[must_use]
pub fn builder(
    cell: &SweepCell,
    topology: TopologyConfig,
    trace: WorkloadTrace,
) -> SimulationBuilder {
    SimulationBuilder::new()
        .processors(cell.procs)
        .topology(topology)
        .l1_geometry(cell.geometry.l1_kb, cell.geometry.l1_assoc)
        .leakage_share(cell.leakage_share())
        .workload(trace)
        .gating(cell.mode)
        .cycle_limit(cell.cycle_limit)
        .engine(EngineKind::FastForward)
}

/// Calls to, and host time spent in, one hook method.
#[derive(Debug, Default)]
struct MethodTimer {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl MethodTimer {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.set(self.nanos.get().saturating_add(nanos));
        self.calls.set(self.calls.get() + 1);
        result
    }

    fn totals(&self) -> (u64, Duration) {
        (self.calls.get(), Duration::from_nanos(self.nanos.get()))
    }
}

/// Calls and host time of the hook methods the engine calls most.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HookTotals {
    /// `on_tick` calls.
    pub tick_calls: u64,
    /// `on_abort` calls.
    pub abort_calls: u64,
    /// `next_deadline` calls.
    pub deadline_calls: u64,
    /// Host time in `on_tick`.
    pub tick: Duration,
    /// Host time in `on_abort`.
    pub abort: Duration,
    /// Host time in `next_deadline`.
    pub deadline: Duration,
}

impl HookTotals {
    fn add(&mut self, other: HookTotals) {
        self.tick_calls += other.tick_calls;
        self.abort_calls += other.abort_calls;
        self.deadline_calls += other.deadline_calls;
        self.tick += other.tick;
        self.abort += other.abort;
        self.deadline += other.deadline;
    }
}

/// A [`GatingHook`] around a boxed registry policy that forwards every
/// trait method and times `on_tick`, `on_abort` and `next_deadline`. The
/// policy's decisions are untouched, so a run through this wrapper is
/// byte-identical to the same run without it.
pub struct TimedHook {
    inner: Box<dyn PolicyHook>,
    tick: MethodTimer,
    abort: MethodTimer,
    deadline: MethodTimer,
}

impl TimedHook {
    /// Wrap a policy hook.
    #[must_use]
    pub fn new(inner: Box<dyn PolicyHook>) -> Self {
        Self {
            inner,
            tick: MethodTimer::default(),
            abort: MethodTimer::default(),
            deadline: MethodTimer::default(),
        }
    }

    /// The wrapped policy.
    #[must_use]
    pub fn inner(&self) -> &dyn PolicyHook {
        &*self.inner
    }

    /// Calls and time recorded so far.
    #[must_use]
    pub fn totals(&self) -> HookTotals {
        let (tick_calls, tick) = self.tick.totals();
        let (abort_calls, abort) = self.abort.totals();
        let (deadline_calls, deadline) = self.deadline.totals();
        HookTotals {
            tick_calls,
            abort_calls,
            deadline_calls,
            tick,
            abort,
            deadline,
        }
    }
}

impl GatingHook for TimedHook {
    fn on_abort(
        &mut self,
        dir: DirId,
        victim: ProcId,
        aborter: ProcId,
        aborter_tx: TxId,
        now: Cycle,
        view: &SystemView,
    ) -> AbortAction {
        let inner = &mut self.inner;
        self.abort
            .time(|| inner.on_abort(dir, victim, aborter, aborter_tx, now, view))
    }

    fn on_tick(&mut self, now: Cycle, view: &SystemView, out: &mut Vec<GateCommand>) {
        let inner = &mut self.inner;
        self.tick.time(|| inner.on_tick(now, view, out));
    }

    fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
        self.deadline.time(|| self.inner.next_deadline(now))
    }

    fn on_commit(&mut self, proc: ProcId, now: Cycle) {
        self.inner.on_commit(proc, now);
    }

    fn on_wake(&mut self, proc: ProcId, now: Cycle) {
        self.inner.on_wake(proc, now);
    }

    fn on_proc_activity(&mut self, proc: ProcId, dir: DirId, now: Cycle) {
        self.inner.on_proc_activity(proc, dir, now);
    }

    fn windowed_couplings(&self, out: &mut Vec<(DirId, ProcId)>) -> bool {
        self.inner.windowed_couplings(out)
    }

    fn on_tick_scoped(
        &mut self,
        now: Cycle,
        view: &SystemView,
        focus: &[bool],
        out: &mut Vec<(ScopedCmdKey, GateCommand)>,
    ) {
        self.inner.on_tick_scoped(now, view, focus, out);
    }

    fn snapshot(&self, w: &mut CkptWriter) {
        self.inner.snapshot(w);
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.inner.restore(r)
    }
}

/// What the traced runner measured, summed over runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    /// Host time in `TccSystem::new`.
    pub build: Duration,
    /// Host time in the `step()` loop.
    pub step: Duration,
    /// Host time in `TccSystem::into_parts`.
    pub finish: Duration,
    /// Host time in `energy::analyze` plus `ledger::analyze`.
    pub power: Duration,
    /// `step()` calls that advanced the clock by exactly one cycle.
    pub exec_cycles: u64,
    /// `step()` calls that advanced the clock by more than one cycle.
    pub jumps: u64,
    /// Simulated cycles covered by those jumps.
    pub jumped_cycles: u64,
    /// Simulated cycles of all runs.
    pub sim_cycles: u64,
    /// Hook calls and time.
    pub hook: HookTotals,
}

impl LayerTotals {
    /// The counts that are exact functions of the inputs, for comparing
    /// two runs of one seed.
    #[must_use]
    pub fn deterministic_counts(&self) -> [u64; 7] {
        [
            self.exec_cycles,
            self.jumps,
            self.jumped_cycles,
            self.sim_cycles,
            self.hook.tick_calls,
            self.hook.abort_calls,
            self.hook.deadline_calls,
        ]
    }
}

/// Run one cell layer by layer — `TccSystem::new`, a `step()` loop,
/// `into_parts`, then the energy and ledger analyses — timing each layer
/// into `layers`. Returns the same report `SimulationBuilder::run` gives.
///
/// # Errors
/// A configuration or workload error from `TccSystem::new`, or the cell's
/// cycle bound being reached.
pub fn run_traced(
    cell: &SweepCell,
    topology: TopologyConfig,
    trace: WorkloadTrace,
    layers: &mut LayerTotals,
) -> Result<SimReport, SimError> {
    let mut config = SimConfig::table2(cell.procs);
    config.topology = topology;
    let config = config.with_l1_geometry(cell.geometry.l1_kb, cell.geometry.l1_assoc);
    let power = PowerModelConfig::alpha_21264_65nm()
        .for_l1_geometry(cell.geometry.l1_kb)
        .with_leakage_share(cell.leakage_share());
    let hook = TimedHook::new(cell.mode.build(&config));

    let start = Instant::now();
    let mut system = TccSystem::new(config, trace, hook)?;
    layers.build += start.elapsed();

    let start = Instant::now();
    while !system.is_complete() {
        let before = system.now();
        if before >= cell.cycle_limit {
            return Err(SimError::CycleLimitExceeded {
                limit: cell.cycle_limit,
            });
        }
        system.step();
        match system.now() - before {
            0 | 1 => layers.exec_cycles += 1,
            delta => {
                layers.jumps += 1;
                layers.jumped_cycles += delta;
            }
        }
    }
    layers.step += start.elapsed();

    let start = Instant::now();
    let (outcome, hook) = system.into_parts();
    layers.finish += start.elapsed();
    layers.sim_cycles += outcome.total_cycles;
    layers.hook.add(hook.totals());

    let start = Instant::now();
    let charges = hook.inner().uncore_charges();
    let energy = energy::analyze(&outcome, &power.factors());
    let uncore = UncoreActivity::from_outcome(
        &outcome,
        charges.gating_hardware,
        charges.renewal_txinfo_roundtrips,
    );
    let ledger = ledger::analyze(&outcome, &power, uncore);
    layers.power += start.elapsed();

    Ok(SimReport {
        mode_label: cell.mode.label(),
        outcome,
        energy,
        ledger,
        gating: hook.inner().gating_stats(),
    })
}

/// Check one report: the outcome's accounting is consistent, the energy
/// ledger agrees with the legacy and interval accountings, and every
/// transaction of the input committed.
///
/// # Errors
/// A description of the first check that failed.
pub fn check_report(report: &SimReport, input_transactions: u64) -> Result<(), String> {
    report.outcome.check_consistency()?;
    let core = report.ledger.core_discrepancy();
    if core >= 1e-12 {
        return Err(format!("ledger core discrepancy {core:e}"));
    }
    let interval = report.ledger.interval_discrepancy();
    if interval >= 1e-9 {
        return Err(format!("ledger interval discrepancy {interval:e}"));
    }
    if report.outcome.total_commits != input_transactions {
        return Err(format!(
            "{} commits for {input_transactions} input transactions",
            report.outcome.total_commits
        ));
    }
    Ok(())
}

/// Number of transactions in a trace.
#[must_use]
pub fn transactions(trace: &WorkloadTrace) -> u64 {
    trace
        .threads
        .iter()
        .map(|t| t.transactions.len() as u64)
        .sum()
}

/// The canonical bytes of a report: its JSON rendering, which covers the
/// whole `RunOutcome`, the energy breakdown and totals, the ledger and the
/// controller statistics.
#[must_use]
pub fn report_bytes(report: &SimReport) -> String {
    serde_json::to_string(report).expect("the JSON encoder is total")
}

/// 64-bit FNV-1a, folded over `bytes` starting from `hash`.
#[must_use]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of one report.
#[must_use]
pub fn report_digest(report: &SimReport) -> u64 {
    fnv1a(FNV_BASIS, report_bytes(report).as_bytes())
}

/// Digest of a workload: the run digests in run order.
#[must_use]
pub fn workload_digest(run_digests: &[u64]) -> u64 {
    run_digests
        .iter()
        .fold(FNV_BASIS, |h, d| fnv1a(h, &d.to_le_bytes()))
}
