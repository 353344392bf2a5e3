//! The repository benchmark's command line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-bus --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of standard
//! output is a JSON object with the end-to-end metrics; with `--trace 1` it
//! holds the per-layer metrics of a separate traced run. `README.md` in this
//! directory describes the workloads and every metric.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use clockgate_htm::sim::SimReport;
use clockgate_htm::sweep::runner::{cell_key_on, run_cell_on};
use clockgate_htm::sweep::{run_sweep_on, CellRecord, SweepCell, SweepGrid, SweepObjective};
use htm_sim::pool::WorkerPool;
use htm_sim::topology::TopologyConfig;
use htm_tcc::system::EngineKind;
use htm_tcc::txn::WorkloadTrace;
use htm_workloads::trace;
use perfbench::{
    builder, check_report, inputs_of, report_digest, run_traced, transactions, workload_digest,
    Input, LayerTotals, Workload,
};

/// Reference digests per workload and seed, taken from the commit that
/// defined the benchmark.
const REFERENCE: &str = include_str!("../reference.json");

/// Scratch space for inputs and artifacts, inside the working directory.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: measure the sweep overhead on a one-worker pool and print
    /// it (spawned by the traced run).
    sweep_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut sweep_child = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--sweep-child" {
            sweep_child = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad(&format!("expected one of {}", names.join(", "))))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        sweep_child,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A per-process scratch directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tag: &str) -> io::Result<Self> {
        let path = Path::new(WORK_ROOT).join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the root.
        let _ = fs::remove_dir(WORK_ROOT);
    }
}

/// One workload at one seed: its runs, inputs and scratch directory.
struct Bench {
    workload: Workload,
    seed: u64,
    topology: TopologyConfig,
    cells: Vec<SweepCell>,
    inputs: Vec<Input>,
    /// For each cell, the index of its input.
    cell_input: Vec<usize>,
    dir: WorkDir,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> io::Result<Self> {
        let cells = workload.cells(seed);
        let (inputs, cell_input) = inputs_of(&cells);
        Ok(Self {
            workload,
            seed,
            topology: workload.topology(),
            cells,
            inputs,
            cell_input,
            dir: WorkDir::create(workload.name())?,
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.0.join(name)
    }

    /// Generate every input and write it as an `htmtrace` file.
    fn setup(&self) -> Result<SetupTimes, String> {
        self.write_inputs().map_err(|e| format!("set-up: {e}"))
    }

    fn write_inputs(&self) -> io::Result<SetupTimes> {
        let start = Instant::now();
        let mut times = SetupTimes::default();
        for input in &self.inputs {
            let t = Instant::now();
            let workload = input.generate();
            times.gen += t.elapsed();
            let t = Instant::now();
            let path = self.path(&input.file_name());
            let mut w = BufWriter::new(File::create(&path)?);
            trace::write_to(&mut w, &workload)?;
            w.flush()?;
            times.write += t.elapsed();
            times.bytes += fs::metadata(&path)?.len();
        }
        times.total = start.elapsed();
        Ok(times)
    }

    /// Read every input back.
    fn read_inputs(&self) -> Result<Vec<WorkloadTrace>, String> {
        self.inputs
            .iter()
            .map(|input| {
                let path = self.path(&input.file_name());
                let file = File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                trace::read_from(BufReader::new(file))
                    .map(|loaded| loaded.workload)
                    .map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect()
    }

    /// Run every cell one after another on this thread, through
    /// `SimulationBuilder::run`, or layer by layer when `layers` is given.
    fn serial_runs(
        &self,
        traces: &[WorkloadTrace],
        mut layers: Option<&mut LayerTotals>,
    ) -> Vec<RunResult> {
        (0..self.cells.len())
            .map(|i| self.run_cell(i, traces, layers.as_deref_mut()))
            .collect()
    }

    /// Run cell `i` on its input, through `SimulationBuilder::run`, or
    /// layer by layer when `layers` is given.
    fn run_cell(
        &self,
        i: usize,
        traces: &[WorkloadTrace],
        layers: Option<&mut LayerTotals>,
    ) -> RunResult {
        let cell = &self.cells[i];
        let trace = traces[self.cell_input[i]].clone();
        match layers {
            None => builder(cell, self.topology, trace).run(),
            Some(layers) => run_traced(cell, self.topology, trace, layers),
        }
        .map_err(|e| format!("{}: {e}", cell.key()))
    }

    /// Write one sweep record per run, then sync the file: the artifact of a
    /// serial pass.
    fn write_records(&self, results: &[RunResult]) -> io::Result<()> {
        let file = File::create(self.path("runs.jsonl"))?;
        let mut w = BufWriter::new(file);
        for (cell, result) in self.cells.iter().zip(results) {
            if let Ok(report) = result {
                let record = serde_json::to_string(&self.record(cell, report));
                writeln!(w, "{}", record.expect("the JSON encoder is total"))?;
            }
        }
        w.flush()?;
        w.get_ref().sync_all()
    }

    /// The sweep record of a cell's report.
    fn record(&self, cell: &SweepCell, report: &SimReport) -> CellRecord {
        let mut record = CellRecord::from_report(cell, report);
        record.key = cell_key_on(cell, self.topology);
        record
    }

    /// One serial pass: read the inputs, run every cell, write the records.
    fn serial_pass(&self, layers: Option<&mut LayerTotals>) -> Result<Pass, String> {
        let start = Instant::now();
        let traces = self.read_inputs()?;
        let read = start.elapsed();
        let results = self.serial_runs(&traces, layers);
        self.write_records(&results)
            .map_err(|e| format!("writing runs.jsonl: {e}"))?;
        Ok(Pass {
            results,
            read,
            wall: secs(start.elapsed()),
        })
    }

    /// Run each grid through `run_sweep` into its own directory, returning
    /// the records of all grids in cell order; every cell of a failed sweep
    /// gets its error.
    fn sweeps(&self, tag: &str) -> Vec<RecordResult> {
        let mut records = Vec::with_capacity(self.cells.len());
        for (i, grid) in self.workload.grids(self.seed).iter().enumerate() {
            records.extend(self.sweep(i, grid, tag));
        }
        records
    }

    /// Run grid `i` through `run_sweep` into its own directory.
    fn sweep(&self, i: usize, grid: &SweepGrid, tag: &str) -> Vec<RecordResult> {
        match run_sweep_on(
            grid,
            EngineKind::FastForward,
            &self.path(&format!("{tag}-{i}")),
            false,
            SweepObjective::Energy,
            self.topology,
        ) {
            Ok(outcome) => outcome.records.into_iter().map(Ok).collect(),
            Err(e) => {
                let error = format!("sweep {i}: {e}");
                grid.expand().iter().map(|_| Err(error.clone())).collect()
            }
        }
    }
}

type RunResult = Result<SimReport, String>;
type RecordResult = Result<CellRecord, String>;

/// What one serial pass produced and how long it took.
struct Pass {
    results: Vec<RunResult>,
    /// Host time spent reading the inputs.
    read: Duration,
    /// Seconds from reading the inputs to writing the records.
    wall: f64,
}

#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    total: Duration,
    gen: Duration,
    write: Duration,
    bytes: u64,
}

/// Operations attempted and failed, and the reasons for failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    /// Count one run, failing it unless `ok`.
    fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.fail(why);
        }
    }
}

/// Per-run checks of a serial pass: the report checks of [`check_report`]
/// and equality with the reference digests. The first checked pass becomes
/// the reference when none is set.
fn check_runs(
    bench: &Bench,
    results: &[RunResult],
    input_txs: &[u64],
    reference: &mut Option<Vec<u64>>,
    tally: &mut Tally,
) {
    let digests: Vec<u64> = results
        .iter()
        .map(|r| r.as_ref().map_or(0, report_digest))
        .collect();
    let expected = reference.get_or_insert_with(|| digests.clone());
    for (i, (cell, result)) in bench.cells.iter().zip(results).enumerate() {
        let ok = result.as_ref().map_err(Clone::clone).and_then(|report| {
            check_report(report, input_txs[bench.cell_input[i]])
                .map_err(|e| format!("{}: {e}", cell.key()))?;
            if digests[i] == expected[i] {
                Ok(())
            } else {
                Err(format!("{}: report differs from the reference", cell.key()))
            }
        });
        tally.op(ok);
    }
}

/// Compare the first pass's workload digest with the committed reference
/// for this seed, if there is one; on a mismatch every run of that pass
/// counts as failed.
fn check_committed(bench: &Bench, digests: &[u64], tally: &mut Tally) {
    let digest = format!("{:016x}", workload_digest(digests));
    println!(
        "# digest {} seed {} {digest}",
        bench.workload.name(),
        bench.seed
    );
    let reference = serde_json::from_str(REFERENCE).expect("reference.json is valid JSON");
    let expected = reference
        .get(bench.workload.name())
        .and_then(|w| w.get(&bench.seed.to_string()))
        .and_then(|v| v.as_str());
    match expected {
        Some(expected) if expected != digest => {
            tally.failed += digests.len() as u64;
            tally.errors.push(format!(
                "workload digest {digest} differs from the committed reference {expected}"
            ));
        }
        Some(_) => println!("# digest matches the committed reference"),
        None => println!("# no committed reference for this seed"),
    }
}

/// Compare sweep records with the records of the reference reports.
fn check_records(
    bench: &Bench,
    records: &[RecordResult],
    reports: &[RunResult],
    tally: &mut Tally,
) {
    for (i, cell) in bench.cells.iter().enumerate() {
        let ok = match (records.get(i), &reports[i]) {
            (Some(Ok(record)), Ok(report)) if *record == bench.record(cell, report) => Ok(()),
            (Some(Ok(_)), Ok(_)) => Err(format!("{}: sweep record differs", cell.key())),
            (None, _) => Err(format!("{}: sweep produced no record", cell.key())),
            (Some(Err(e)), _) | (_, Err(e)) => Err(e.clone()),
        };
        tally.op(ok);
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
fn max_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<(), String> {
    if args.sweep_child {
        return sweep_child(args);
    }
    let bench = Bench::new(args.workload, args.seed).map_err(|e| e.to_string())?;
    print_provenance(args, &bench);
    // One set-up here, then one before every pass, so that the set-up
    // times sample the same stretch of host time as the passes.
    let mut setups = vec![bench.setup()?];
    let traces = bench.read_inputs()?;
    let input_txs: Vec<u64> = traces.iter().map(transactions).collect();
    let budget = Duration::from_secs_f64(args.seconds);
    let (tally, metrics) = if args.trace {
        traced(&bench, &mut setups, &input_txs, budget)?
    } else {
        untraced(&bench, &mut setups, &input_txs, budget)?
    };
    report(&tally, &metrics);
    Ok(())
}

/// Source identity for the result: the commit when `.git` is readable, and
/// in every case a digest of the library sources, which a checkout without
/// `.git` still has.
fn print_provenance(args: &Args, bench: &Bench) {
    let commit = read_commit().unwrap_or_else(|| "unknown".into());
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let source = files.iter().fold(perfbench::FNV_BASIS, |h, path| {
        let h = perfbench::fnv1a(h, path.to_string_lossy().as_bytes());
        perfbench::fnv1a(h, &fs::read(path).unwrap_or_default())
    });
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let command: Vec<String> = std::env::args().collect();
    println!(
        "# provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"runs\": {}, \"inputs\": {}, \"commit\": \"{commit}\", \"source_digest\": \"{source:016x}\", \
         \"nproc\": {nproc}, \"command\": {}}}",
        bench.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bench.cells.len(),
        bench.inputs.len(),
        serde_json::to_string(&command).expect("the JSON encoder is total"),
    );
}

fn read_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(Path::new(".git").join(name)) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = fs::read_dir(path) {
        for entry in entries.flatten() {
            let child = entry.path();
            if child.file_name().is_some_and(|n| n != "target") {
                collect_files(&child, out);
            }
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Print every metric by name and unit, then the result line.
fn report(tally: &Tally, metrics: &[Metric]) {
    for e in &tally.errors {
        eprintln!("perfbench: failed: {e}");
    }
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed.min(tally.attempted),
        body.join(", ")
    );
}

/// Elements of the calibration kernel's buffer (8 MB of `u64`).
const KERNEL_BUFFER: usize = 1_000_000;

/// Buffer updates per calibration sample, about 1.5 ms on a 2-core Xeon VM.
const KERNEL_STEPS: usize = 100_000;

/// The calibration sample time at which calibrated times equal host times.
const KERNEL_NOMINAL: Duration = Duration::from_millis(1);

/// Host-speed calibration for the end-to-end times.
///
/// On a shared host the speed of a core swings by up to 1.7x in phases of
/// seconds to minutes, with the load of other tenants on the memory system.
/// Taking medians inside a run cannot remove a phase that outlasts the run.
/// So every timed step is bracketed by samples of a fixed kernel (sequential
/// and random updates of an 8 MB buffer, code of this benchmark, which no
/// change to the library touches), and its time is scaled by the kernel's
/// nominal time over the mean of the two samples around it. A calibrated time
/// is the step's host time on a host where the kernel takes
/// [`KERNEL_NOMINAL`]: a change to the library moves it as it moves host
/// time, while a slow phase of the host moves the kernel as well and
/// cancels out.
struct Calibrator {
    buffer: Vec<u64>,
    state: u64,
    /// The sample taken after the previous step.
    last: Duration,
}

impl Calibrator {
    fn new() -> Self {
        let mut calibrator = Self {
            buffer: (0..KERNEL_BUFFER as u64).collect(),
            state: 1,
            last: Duration::ZERO,
        };
        calibrator.last = calibrator.sample();
        calibrator
    }

    /// Host time of one run of the kernel.
    fn sample(&mut self) -> Duration {
        let start = Instant::now();
        let mut x = self.state;
        for i in 0..KERNEL_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(self.buffer[i]);
            self.buffer[i] = x >> 7;
            let j = usize::try_from(x % KERNEL_BUFFER as u64).expect("below the buffer length");
            self.buffer[j] ^= x;
        }
        self.state = std::hint::black_box(x);
        start.elapsed()
    }

    /// Run `step` and return its result with its calibrated time in
    /// seconds and its host time.
    fn time<R>(&mut self, step: impl FnOnce() -> R) -> (R, f64, Duration) {
        let start = Instant::now();
        let result = step();
        let host = start.elapsed();
        let before = self.last;
        self.last = self.sample();
        let speed = secs(KERNEL_NOMINAL) / (secs(before + self.last) / 2.0);
        (result, secs(host) * speed, host)
    }
}

/// Per step of a pass (reading the inputs, one run, one sweep, writing the
/// records), its calibrated time in every pass.
#[derive(Default)]
struct StepTimes(Vec<Vec<f64>>);

impl StepTimes {
    /// Record one pass's calibrated step times, in step order.
    fn push(&mut self, times: impl IntoIterator<Item = f64>) {
        for (i, t) in times.into_iter().enumerate() {
            match self.0.get_mut(i) {
                Some(samples) => samples.push(t),
                None => self.0.push(vec![t]),
            }
        }
    }

    /// Each step's median over the passes.
    fn medians(&mut self) -> Vec<f64> {
        self.0.iter_mut().map(|samples| median(samples)).collect()
    }
}

/// The end-to-end run: timed passes until the budget is spent, tracing off.
/// Times are calibrated (see [`Calibrator`]); each step's time is its median
/// over the passes, and a pass's time is the sum of its steps'.
fn untraced(
    bench: &Bench,
    setups: &mut Vec<SetupTimes>,
    input_txs: &[u64],
    budget: Duration,
) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let mut reference = None;
    let mut cal = Calibrator::new();
    let mut setup_s = Vec::new();
    let mut pass_steps = StepTimes::default();
    let mut runs = StepTimes::default();
    let mut host_walls = Vec::new();
    let mut sim_cycles = 0u64;
    let mut passes = 0;
    let start = Instant::now();
    loop {
        let (setup, setup_time, _) = cal.time(|| bench.setup());
        setups.push(setup?);
        setup_s.push(setup_time);

        // The calibrated and host time of each step of the pass.
        let (traces, read, read_host) = cal.time(|| bench.read_inputs());
        let traces = traces?;
        let mut steps = vec![(read, read_host)];
        let mut sweep_records = None;
        if bench.workload == Workload::PolicySweep {
            // The pass reads the inputs and runs the sweeps; the serial
            // runs follow outside it, for the per-run latencies.
            let mut records = Vec::with_capacity(bench.cells.len());
            for (i, grid) in bench.workload.grids(bench.seed).iter().enumerate() {
                let (grid_records, time, host) = cal.time(|| bench.sweep(i, grid, "sweep"));
                records.extend(grid_records);
                steps.push((time, host));
            }
            sweep_records = Some(records);
        }
        let mut results = Vec::with_capacity(bench.cells.len());
        let mut latencies = Vec::with_capacity(bench.cells.len());
        for i in 0..bench.cells.len() {
            let (result, time, host) = cal.time(|| bench.run_cell(i, &traces, None));
            results.push(result);
            latencies.push((time, host));
        }
        if sweep_records.is_none() {
            steps.extend(&latencies);
            let (written, time, host) = cal.time(|| bench.write_records(&results));
            written.map_err(|e| format!("writing runs.jsonl: {e}"))?;
            steps.push((time, host));
        }
        pass_steps.push(steps.iter().map(|s| s.0));
        runs.push(latencies.iter().map(|s| s.0));
        host_walls.push(steps.iter().map(|s| secs(s.1)).sum());

        let first = reference.is_none();
        check_runs(bench, &results, input_txs, &mut reference, &mut tally);
        if first {
            check_committed(bench, reference.as_deref().unwrap_or_default(), &mut tally);
            sim_cycles = results
                .iter()
                .flatten()
                .map(|report| report.outcome.total_cycles)
                .sum();
        }
        if let Some(records) = &sweep_records {
            check_records(bench, records, &results, &mut tally);
        }
        passes += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let wall_s: f64 = pass_steps.medians().iter().sum();
    let mut run_ms: Vec<f64> = runs.medians().iter().map(|t| t * 1e3).collect();
    let run_s: f64 = run_ms.iter().sum::<f64>() / 1e3;
    let mut kernel_ms: Vec<f64> = Vec::new();
    for _ in 0..5 {
        kernel_ms.push(ms(cal.sample()));
    }
    println!(
        "# {passes} passes; run_ms_p50 over {} runs, each its median over the passes",
        run_ms.len()
    );
    println!(
        "# uncalibrated: median pass {:.4} s; calibration kernel {:.4} ms (nominal {} ms)",
        median(&mut host_walls),
        median(&mut kernel_ms),
        ms(KERNEL_NOMINAL)
    );
    Ok((
        tally,
        vec![
            metric("setup_s", median(&mut setup_s), "s"),
            metric("wall_s", wall_s, "s"),
            metric("sim_cycles_per_s", ratio(sim_cycles as f64, run_s), "1/s"),
            metric("run_ms_p50", median(&mut run_ms), "ms"),
            metric("max_rss_mb", max_rss_mb(), "MiB"),
        ],
    ))
}

/// The per-layer run: until the budget is spent, pairs of passes, one
/// untraced and one traced, so that each traced pass has an untraced one
/// under the same host conditions; then the sweep layer.
fn traced(
    bench: &Bench,
    setups: &mut Vec<SetupTimes>,
    input_txs: &[u64],
    budget: Duration,
) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let mut reference = None;
    let mut reference_reports = Vec::new();
    // Per traced pass: its layer totals, its time reading the inputs, and
    // its wall time minus that of the untraced pass before it.
    let mut passes: Vec<(LayerTotals, Duration, f64)> = Vec::new();
    let mut outcome_totals = (0u64, 0u64, 0u64);
    let start = Instant::now();
    loop {
        setups.push(bench.setup()?);
        let untraced = bench.serial_pass(None)?;
        let first = reference.is_none();
        check_runs(
            bench,
            &untraced.results,
            input_txs,
            &mut reference,
            &mut tally,
        );
        if first {
            check_committed(bench, reference.as_deref().unwrap_or_default(), &mut tally);
            reference_reports = untraced.results;
        }

        // Every traced report must equal the untraced reference.
        let mut layers = LayerTotals::default();
        let traced = bench.serial_pass(Some(&mut layers))?;
        check_runs(
            bench,
            &traced.results,
            input_txs,
            &mut reference,
            &mut tally,
        );
        if let Some((first, _, _)) = passes.first() {
            if first.deterministic_counts() != layers.deterministic_counts() {
                tally.fail("deterministic layer counts differ between passes".into());
            }
        } else {
            for report in traced.results.iter().flatten() {
                outcome_totals.0 += report.outcome.total_commits;
                outcome_totals.1 += report.outcome.total_aborts;
                outcome_totals.2 += report.outcome.bus.wait_cycles;
            }
        }
        passes.push((layers, traced.read, traced.wall - untraced.wall));
        if start.elapsed() >= budget {
            break;
        }
    }

    let sweep = sweep_layer(bench, &reference_reports, &mut tally)?;

    let med = |f: &dyn Fn(&(LayerTotals, Duration, f64)) -> f64| {
        let mut values: Vec<f64> = passes.iter().map(f).collect();
        median(&mut values)
    };
    let first = passes[0].0;
    let (commits, aborts, net_wait) = outcome_totals;
    let mut gen: Vec<f64> = setups.iter().map(|s| ms(s.gen)).collect();
    let mut write: Vec<f64> = setups.iter().map(|s| ms(s.write)).collect();
    let exec = first.exec_cycles as f64;
    println!("# {} pairs of untraced and traced passes", passes.len());
    Ok((
        tally,
        vec![
            metric("workloads.gen_ms", median(&mut gen), "ms"),
            metric("workloads.trace_write_ms", median(&mut write), "ms"),
            metric("workloads.trace_read_ms", med(&|p| ms(p.1)), "ms"),
            metric("workloads.trace_bytes", setups[0].bytes as f64, "bytes"),
            metric("tcc.build_ms", med(&|p| ms(p.0.build)), "ms"),
            metric("tcc.step_ms", med(&|p| ms(p.0.step)), "ms"),
            metric("tcc.finish_ms", med(&|p| ms(p.0.finish)), "ms"),
            metric("tcc.exec_cycles", exec, "count"),
            metric("tcc.jumps", first.jumps as f64, "count"),
            metric("tcc.jumped_cycles", first.jumped_cycles as f64, "count"),
            metric(
                "tcc.ns_per_exec_cycle",
                med(&|p| ratio(secs(p.0.step) * 1e9, exec)),
                "ns",
            ),
            metric(
                "tcc.skip_ratio",
                ratio(first.jumped_cycles as f64, first.sim_cycles as f64),
                "ratio",
            ),
            metric("tcc.commits", commits as f64, "count"),
            metric("tcc.aborts", aborts as f64, "count"),
            metric(
                "tcc.commit_ratio",
                ratio(commits as f64, (commits + aborts) as f64),
                "ratio",
            ),
            metric("sim.net_wait_cycles", net_wait as f64, "count"),
            metric("gating.tick_calls", first.hook.tick_calls as f64, "count"),
            metric("gating.abort_calls", first.hook.abort_calls as f64, "count"),
            metric(
                "gating.deadline_calls",
                first.hook.deadline_calls as f64,
                "count",
            ),
            metric("gating.tick_ms", med(&|p| ms(p.0.hook.tick)), "ms"),
            metric("gating.abort_ms", med(&|p| ms(p.0.hook.abort)), "ms"),
            metric("gating.deadline_ms", med(&|p| ms(p.0.hook.deadline)), "ms"),
            metric("power.analyze_ms", med(&|p| ms(p.0.power)), "ms"),
            metric("sweep.overhead_ms", sweep.overhead_ms, "ms"),
            metric("pool.busy_frac", sweep.busy_frac, "ratio"),
            metric("trace.overhead_s", med(&|p| p.2), "s"),
        ],
    ))
}

struct SweepLayer {
    overhead_ms: f64,
    busy_frac: f64,
}

/// The sweep layer. The sweeps' overhead is measured on a one-worker pool
/// in a child process, since the pool size is fixed per process; the pool's
/// busy fraction on this process's pool.
fn sweep_layer(
    bench: &Bench,
    reference: &[RunResult],
    tally: &mut Tally,
) -> Result<SweepLayer, String> {
    let overhead_ms = one_worker_sweep_overhead_ms(bench)?;
    let workers = WorkerPool::global().workers();
    let timed = cells_and_sweeps(bench);
    check_records(bench, &timed.cells, reference, tally);
    check_records(bench, &timed.sweeps, reference, tally);
    let mut busy: Vec<f64> = timed
        .pairs
        .iter()
        .map(|&(cells, sweeps)| ratio(cells, workers as f64 * sweeps))
        .collect();
    for (cells, sweeps) in &timed.pairs {
        println!("# sweep layer: cells {cells:.4} s serial, sweeps {sweeps:.4} s on {workers}");
    }
    Ok(SweepLayer {
        overhead_ms,
        busy_frac: median(&mut busy),
    })
}

/// Host time of every cell through `run_cell_on`, one after another, and
/// of the workload's sweeps on this process's pool, with their records.
struct CellsAndSweeps {
    /// `(cells, sweeps)` seconds, per round.
    pairs: Vec<(f64, f64)>,
    cells: Vec<RecordResult>,
    sweeps: Vec<RecordResult>,
}

/// Two rounds, the second in the opposite order, so that a steady drift in
/// host speed cancels out of the differences and ratios.
fn cells_and_sweeps(bench: &Bench) -> CellsAndSweeps {
    let mut cells = Vec::new();
    let mut sweeps = Vec::new();
    let mut pairs = Vec::new();
    for round in 0..2 {
        let mut time_cells = || {
            let start = Instant::now();
            cells = bench
                .cells
                .iter()
                .map(|cell| {
                    run_cell_on(cell, EngineKind::FastForward, bench.topology)
                        .map_err(|e| format!("{}: {e}", cell.key()))
                })
                .collect();
            secs(start.elapsed())
        };
        let mut time_sweeps = || {
            let start = Instant::now();
            sweeps = bench.sweeps(&format!("sweep-{round}"));
            secs(start.elapsed())
        };
        pairs.push(if round == 0 {
            let cells = time_cells();
            (cells, time_sweeps())
        } else {
            let sweeps = time_sweeps();
            (time_cells(), sweeps)
        });
    }
    CellsAndSweeps {
        pairs,
        cells,
        sweeps,
    }
}

/// `sweep.overhead_ms`: the workload's sweeps on a one-worker pool minus
/// the same cells through `run_cell_on`, measured by a child process of
/// this program.
fn one_worker_sweep_overhead_ms(bench: &Bench) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--sweep-child",
            "--workload",
            bench.workload.name(),
            "--seed",
            &bench.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("starting the one-worker sweep: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "one-worker sweep failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    print!("{stdout}");
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("sweep_overhead_ms "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("one-worker sweep printed no overhead: {stdout}"))
}

/// Child side of [`one_worker_sweep_overhead_ms`]. Its sweep records must
/// equal its `run_cell_on` records.
fn sweep_child(args: &Args) -> Result<(), String> {
    if !WorkerPool::configure_global(1) {
        return Err("the worker pool was already sized".into());
    }
    let bench = Bench {
        workload: args.workload,
        seed: args.seed,
        topology: args.workload.topology(),
        cells: args.workload.cells(args.seed),
        inputs: Vec::new(),
        cell_input: Vec::new(),
        dir: WorkDir::create(&format!("{}-one-worker", args.workload.name()))
            .map_err(|e| e.to_string())?,
    };
    let timed = cells_and_sweeps(&bench);
    if let Some(Err(e)) = timed.cells.iter().chain(&timed.sweeps).find(|r| r.is_err()) {
        return Err(e.clone());
    }
    if timed.cells != timed.sweeps {
        return Err("one-worker sweep records differ from the run_cell_on records".into());
    }
    let mut overhead: Vec<f64> = timed
        .pairs
        .iter()
        .map(|&(cells, sweeps)| (sweeps - cells) * 1e3)
        .collect();
    for (cells, sweeps) in &timed.pairs {
        println!("# sweep layer: cells {cells:.4} s serial, sweeps {sweeps:.4} s on 1 worker");
    }
    println!("sweep_overhead_ms {}", median(&mut overhead));
    Ok(())
}
