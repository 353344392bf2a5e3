//! Run a sensitivity sweep and report its Pareto frontiers.
//!
//! ```bash
//! cargo run --release -p htm-bench --bin sweep -- --grid smoke --out sweep-out
//! cargo run --release -p htm-bench --bin sweep -- --grid w0
//! cargo run --release -p htm-bench --bin sweep -- --grid scaling --resume
//! cargo run --release -p htm-bench --bin sweep -- --grid default --engine naive
//! ```
//!
//! The sweep streams one compact JSON record per cell to
//! `<out>/sweep.jsonl` in deterministic cell order; `--resume` parses an
//! existing file and skips the recorded cells, so an interrupted sweep can
//! be continued without redoing work. After the cells complete, the runner
//! writes `pareto.json` (energy-vs-time frontier per workload ×
//! processor-count slice), `sweep_summary.json` and `grid.json`, and this
//! binary prints the frontier and summary tables.

use std::io::Write;
use std::path::PathBuf;

use clockgate_htm::report;
use clockgate_htm::sim::EngineChoice;
use clockgate_htm::sweep::{self, SweepGrid, SweepObjective};
use htm_sim::topology::TopologyConfig;

/// Print one line to stdout, exiting quietly if the reader went away
/// (`sweep ... | head` must not panic on the broken pipe).
fn outln(text: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    let ok = stdout
        .write_fmt(text)
        .and_then(|()| stdout.write_all(b"\n"))
        .is_ok();
    if !ok {
        std::process::exit(0);
    }
}

macro_rules! outln {
    ($($t:tt)*) => {
        outln(format_args!($($t)*))
    };
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep --grid NAME | --trace FILE [--out DIR] [--engine fast|naive|shard|auto] [--topology T] [--threads N] [--objective O]\n\
         \x20            [--resume] [--checkpoint-every N] [--checkpoint-dir D] [--replay-to CYCLE --replay-key KEY]\n\
         \x20            [--list] [--list-policies]\n\
         \n\
         Expand a sensitivity grid, simulate every cell in parallel, stream\n\
         per-cell records (with their component-resolved energy ledgers) to\n\
         <out>/sweep.jsonl and report Pareto frontiers per (workload,\n\
         processor-count) slice under the chosen objective.\n\
         \n\
         options:\n\
         \x20 --grid NAME     grid to run: {names} (required unless --list/--trace)\n\
         \x20 --trace FILE    sweep a recorded htmtrace file instead of a named\n\
         \x20                 grid: the trace becomes the single workload-axis\n\
         \x20                 entry (named trace-<workload>-<fp8> after its\n\
         \x20                 fingerprint) and is swept over the trio of gating\n\
         \x20                 modes; a corrupt or truncated file is a pre-flight\n\
         \x20                 error, and --resume against records from any other\n\
         \x20                 trace or grid is rejected as foreign\n\
         \x20 --out DIR       artifact directory (default sweep-out/<grid>)\n\
         \x20 --engine E      stepping engine: fast (default), naive, shard\n\
         \x20                 (shard-parallel islands on host threads), or\n\
         \x20                 auto (picks per cell: shard when a sharded\n\
         \x20                 workload splits into >1 island, fast otherwise);\n\
         \x20                 artifacts are byte-identical in every case\n\
         \x20 --topology T    interconnect: bus (default) or\n\
         \x20                 sharded[:BANKS[:mesh|xbar]] (BANKS=0: one bank per\n\
         \x20                 directory); sharded cell keys carry a topology\n\
         \x20                 segment, so bus and sharded sweeps never mix on\n\
         \x20                 resume; see docs/SCALING.md\n\
         \x20 --threads N     cap the process-wide worker pool at N threads\n\
         \x20                 (default: the host's available parallelism); sweep\n\
         \x20                 cells and shard-parallel islands draw from this\n\
         \x20                 one budget. Affects wall-clock\n\
         \x20                 only — artifacts are byte-identical for every N\n\
         \x20 --objective O   frontier objective: energy (default), edp or ed2p;\n\
         \x20                 only pareto.json depends on it, so a sweep can be\n\
         \x20                 resumed under any objective\n\
         \x20 --resume        skip cells already recorded in <out>/sweep.jsonl\n\
         \x20                 (a torn final line from a killed run is dropped)\n\
         \x20 --checkpoint-every N  durably checkpoint every in-flight cell's\n\
         \x20                 simulator state every N cycles; an interrupted\n\
         \x20                 sweep resumed with --resume restores each cell\n\
         \x20                 from its newest valid checkpoint instead of\n\
         \x20                 restarting it (artifacts stay byte-identical)\n\
         \x20 --checkpoint-dir D  where the .ckpt files live (default\n\
         \x20                 <out>/checkpoints)\n\
         \x20 --replay-to CYCLE   time travel: restore the nearest checkpoint\n\
         \x20                 of cell --replay-key at or before CYCLE,\n\
         \x20                 fast-forward to exactly CYCLE, print the state\n\
         \x20                 digest and exit (no sweep is run)\n\
         \x20 --replay-key KEY    the cell to replay (a key from sweep.jsonl)\n\
         \x20 --list          print the available grids and their cell counts\n\
         \x20 --list-policies list every registered contention policy and exit\n\
         \x20                 (every policy runs on either topology and engine)\n\
         \x20 -h, --help      this text",
        names = sweep::grid::GRID_NAMES.join("|")
    );
    std::process::exit(2);
}

/// Parse a required numeric flag value with an actionable message instead of
/// a panic.
fn parse_cycles(flag: &str, value: Option<String>) -> u64 {
    match value.as_deref().map(str::parse::<u64>) {
        Some(Ok(n)) => n,
        Some(Err(e)) => {
            eprintln!("{flag}: `{}` is not a cycle count: {e}", value.unwrap());
            std::process::exit(2);
        }
        None => usage(),
    }
}

fn list_grids() {
    outln!("available sweep grids:");
    for name in sweep::grid::GRID_NAMES {
        let grid = SweepGrid::by_name(name).expect("every listed grid exists");
        let cells = grid.expand();
        outln!(
            "  {name:<8} {:>4} cells  ({} workloads x {:?} procs, {} modes, {} geometries, {} leakage points, {} seeds)",
            cells.len(),
            grid.workloads.len(),
            grid.processor_counts,
            grid.gating.expand().len(),
            grid.cache_geometries.len(),
            grid.leakage_percents.len(),
            grid.seeds.len()
        );
    }
}

fn main() {
    let mut grid_name: Option<String> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut engine = EngineChoice::default();
    let mut topology = TopologyConfig::Bus;
    let mut objective = SweepObjective::Energy;
    let mut resume = false;
    let mut checkpoint_every: Option<u64> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut replay_to: Option<u64> = None;
    let mut replay_key: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--grid" => match args.next() {
                Some(name) => grid_name = Some(name),
                None => usage(),
            },
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--trace needs a file path (a recorded htmtrace file)");
                    std::process::exit(2);
                }
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--engine" => match args.next().as_deref().and_then(EngineChoice::parse) {
                Some(choice) => engine = choice,
                None => usage(),
            },
            "--topology" => match args.next().as_deref().and_then(TopologyConfig::parse) {
                Some(t) => topology = t,
                None => usage(),
            },
            "--threads" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => {
                    // Must land before anything touches the pool; arg parsing
                    // is the first thing main does, so this always wins.
                    htm_sim::pool::WorkerPool::configure_global(n);
                }
                _ => {
                    eprintln!("--threads needs a positive worker count, e.g. `--threads 4`");
                    std::process::exit(2);
                }
            },
            "--objective" => match args.next().as_deref().and_then(SweepObjective::parse) {
                Some(o) => objective = o,
                None => usage(),
            },
            "--resume" => resume = true,
            "--checkpoint-every" => {
                let n = parse_cycles("--checkpoint-every", args.next());
                if n == 0 {
                    eprintln!("--checkpoint-every must be at least 1 cycle");
                    std::process::exit(2);
                }
                checkpoint_every = Some(n);
            }
            "--checkpoint-dir" => match args.next() {
                Some(dir) => checkpoint_dir = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--replay-to" => replay_to = Some(parse_cycles("--replay-to", args.next())),
            "--replay-key" => match args.next() {
                Some(key) => replay_key = Some(key),
                None => usage(),
            },
            "--list" => {
                list_grids();
                return;
            }
            "--list-policies" => {
                outln!("{}", clockgate_htm::gating::policy::render_policy_list());
                outln!(
                    "\nEvery policy runs on either interconnect topology \
                     (--topology bus|sharded[:BANKS[:mesh|xbar]], default bus) \
                     and any stepping engine (--engine fast|naive|shard|auto)."
                );
                return;
            }
            _ => usage(),
        }
    }
    let (grid, trace) = match (grid_name, trace_path) {
        (Some(_), Some(_)) => {
            eprintln!("--grid and --trace are mutually exclusive; pass one workload source");
            std::process::exit(2);
        }
        (None, None) => usage(),
        (Some(grid_name), None) => {
            let Some(grid) = SweepGrid::by_name(&grid_name) else {
                eprintln!(
                    "unknown grid `{grid_name}` (available: {})",
                    sweep::grid::GRID_NAMES.join(", ")
                );
                std::process::exit(2);
            };
            (grid, None)
        }
        (None, Some(path)) => {
            let loaded = match htm_workloads::trace::read_from_path(&path) {
                Ok(loaded) => loaded,
                Err(e) => {
                    eprintln!("--trace {}: {e}", path.display());
                    std::process::exit(2);
                }
            };
            let trace = sweep::TraceWorkload::from_loaded(&loaded);
            eprintln!(
                "trace {}: workload `{}`, {} threads, {} transactions, fingerprint {:016x} -> axis `{}`",
                path.display(),
                loaded.workload.name,
                loaded.workload.num_threads(),
                loaded.workload.total_transactions(),
                loaded.fingerprint,
                trace.axis_name
            );
            let grid = SweepGrid::for_trace(&trace.axis_name, loaded.workload.num_threads());
            (grid, Some(trace))
        }
    };
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("sweep-out").join(&grid.name));
    let ckpt_dir = checkpoint_dir
        .clone()
        .unwrap_or_else(|| out_dir.join("checkpoints"));

    let cells = grid.expand();

    // Time travel: replay one cell to a cycle and exit (no sweep runs).
    if let Some(target) = replay_to {
        let Some(key) = replay_key else {
            eprintln!(
                "--replay-to needs --replay-key KEY naming the cell to replay \
                 (a key from {})",
                out_dir.join(sweep::runner::JSONL_NAME).display()
            );
            std::process::exit(2);
        };
        let Some(cell) = cells
            .iter()
            .find(|c| sweep::runner::cell_key_on(c, topology) == key)
        else {
            eprintln!(
                "no cell of grid `{}` on the {} topology has key `{key}`; \
                 the first cells are: {}",
                grid.name,
                topology.describe(),
                cells
                    .iter()
                    .take(4)
                    .map(|c| sweep::runner::cell_key_on(c, topology))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        };
        match sweep::runner::replay_cell_traced_to(
            cell,
            engine,
            topology,
            &ckpt_dir,
            target,
            trace.as_ref(),
        ) {
            Ok((report, skipped)) => {
                for (path, why) in &skipped {
                    eprintln!("skipping corrupt checkpoint '{}': {why}", path.display());
                }
                match report.resumed_from {
                    Some(cycle) => eprintln!(
                        "restored checkpoint at cycle {cycle} from {}",
                        ckpt_dir.display()
                    ),
                    None => eprintln!(
                        "no usable checkpoint at or before cycle {target} in {}; \
                         replayed from cycle 0",
                        ckpt_dir.display()
                    ),
                }
                outln!(
                    "replayed `{}` to cycle {} ({})",
                    report.key,
                    report.reached,
                    if report.completed {
                        "run complete"
                    } else {
                        "in flight"
                    }
                );
                outln!("state digest {:#018x}", report.state_digest);
                return;
            }
            Err(e) => {
                eprintln!("replay failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if replay_key.is_some() {
        eprintln!("--replay-key without --replay-to CYCLE has no effect");
        std::process::exit(2);
    }
    if checkpoint_dir.is_some() && checkpoint_every.is_none() {
        eprintln!(
            "--checkpoint-dir without --checkpoint-every N does nothing; \
             pass an interval to enable checkpointing"
        );
        std::process::exit(2);
    }
    let ckpt = checkpoint_every.map(|every| sweep::SweepCheckpoint {
        dir: ckpt_dir.clone(),
        every,
    });
    eprintln!(
        "sweep `{}`: {} cells -> {} ({} engine, {}, {} objective{}{})",
        grid.name,
        cells.len(),
        out_dir.display(),
        engine.label(),
        topology.describe(),
        objective.label(),
        if resume { ", resume" } else { "" },
        match &ckpt {
            Some(spec) => format!(
                ", checkpoint every {} cycles -> {}",
                spec.every,
                spec.dir.display()
            ),
            None => String::new(),
        }
    );
    let started = std::time::Instant::now();
    let outcome = match sweep::run_sweep_ckpt_traced(
        &grid,
        engine,
        &out_dir,
        resume,
        objective,
        topology,
        ckpt.as_ref(),
        trace.as_ref(),
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            eprintln!(
                "records streamed before the failure remain in {}; re-run with --resume \
                 to continue after fixing the cause",
                out_dir.join(sweep::runner::JSONL_NAME).display()
            );
            std::process::exit(1);
        }
    };
    eprintln!(
        "sweep `{}` done: {} executed, {} skipped, {:.1} ms wall",
        outcome.grid.name,
        outcome.executed,
        outcome.skipped,
        started.elapsed().as_secs_f64() * 1e3
    );
    for path in [
        &outcome.jsonl_path,
        &outcome.pareto_path,
        &outcome.summary_path,
        &outcome.breakdown_path,
    ] {
        eprintln!("wrote {}", path.display());
    }

    outln!("{}", report::render_pareto(&outcome.frontiers));
    outln!("{}", report::render_sweep_summary(&outcome.summaries));
}
