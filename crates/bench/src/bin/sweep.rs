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

use std::path::PathBuf;

use clockgate_htm::context::RunContext;
use clockgate_htm::report;
use clockgate_htm::sweep::{self, SweepGrid, SweepObjective};
use htm_bench::cli::{self, RunFlags, RUN_FLAGS_HELP};
use htm_bench::outln;

fn usage() -> ! {
    cli::fail(&format!(
        "usage: sweep --grid NAME | --trace FILE [--out DIR] [--engine fast|naive] [--topology T] [--threads N] [--objective O]\n\
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
         \x20 --out DIR       artifact directory (default sweep-out/<grid>)\n\
         \x20 --objective O   frontier objective: energy (default), edp or ed2p;\n\
         \x20                 only pareto.json depends on it, so a sweep can be\n\
         \x20                 resumed under any objective\n\
         \x20 --resume        skip cells already recorded in <out>/sweep.jsonl\n\
         \x20                 (a torn final line from a killed run is dropped);\n\
         \x20                 with --checkpoint-every, every in-flight cell\n\
         \x20                 restores from its newest valid checkpoint\n\
         \x20 --replay-to CYCLE   time travel: restore the nearest checkpoint\n\
         \x20                 of cell --replay-key at or before CYCLE,\n\
         \x20                 fast-forward to exactly CYCLE, print the state\n\
         \x20                 digest and exit (no sweep is run)\n\
         \x20 --replay-key KEY    the cell to replay (a key from sweep.jsonl)\n\
         \x20 --list          print the available grids and their cell counts\n\
         \x20 --list-policies list every registered contention policy and exit\n\
         \x20                 (every policy runs on either topology and engine)\n\
         \x20 -h, --help      this text\n\
         \n\
         {RUN_FLAGS_HELP}\n\
         \n\
         With --trace instead of --grid, the trace becomes the single\n\
         workload-axis entry (named trace-<workload>-<fp8> after its\n\
         fingerprint), swept over the trio of gating modes; --resume against\n\
         records from any other trace or grid is rejected as foreign.",
        names = sweep::grid::GRID_NAMES.join("|")
    ))
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
    let mut run_flags = RunFlags::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut objective = SweepObjective::Energy;
    let mut resume = false;
    let mut replay_to: Option<u64> = None;
    let mut replay_key: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--grid" => match args.next() {
                Some(name) => grid_name = Some(name),
                None => usage(),
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--objective" => match args.next().as_deref().and_then(SweepObjective::parse) {
                Some(o) => objective = o,
                None => usage(),
            },
            "--resume" => resume = true,
            "--replay-to" => replay_to = Some(cli::parse_cycles("--replay-to", args.next())),
            "--replay-key" => match args.next() {
                Some(key) => replay_key = Some(key),
                None => usage(),
            },
            "--list" => {
                list_grids();
                return;
            }
            "--list-policies" => {
                cli::print_policy_list();
                return;
            }
            other => match run_flags.take(other, &mut args) {
                Ok(true) => {}
                Ok(false) => usage(),
                Err(message) => cli::fail(&message),
            },
        }
    }
    run_flags.configure_pool();
    let (grid, trace) = match (grid_name, run_flags.trace.as_deref()) {
        (Some(_), Some(_)) => {
            cli::fail("--grid and --trace are mutually exclusive; pass one workload source")
        }
        (None, None) => usage(),
        (Some(grid_name), None) => {
            let Some(grid) = SweepGrid::by_name(&grid_name) else {
                cli::fail(&format!(
                    "unknown grid `{grid_name}` (available: {})",
                    sweep::grid::GRID_NAMES.join(", ")
                ));
            };
            (grid, None)
        }
        (None, Some(path)) => {
            let trace = cli::load_trace(path);
            let grid = SweepGrid::for_trace(&trace.axis_name, trace.workload.num_threads());
            (grid, Some(trace))
        }
    };
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("sweep-out").join(&grid.name));

    let cells = grid.expand();

    // Time travel: replay one cell to a cycle and exit (no sweep runs). The
    // replay reads the checkpoint directory without writing checkpoints, so
    // it needs no --checkpoint-every.
    if let Some(target) = replay_to {
        let ckpt_dir = run_flags.checkpoint_dir(&out_dir);
        let ctx = RunContext {
            engine: run_flags.engine,
            topology: run_flags.topology,
            checkpoint: None,
            trace: trace.as_ref(),
        };
        let Some(key) = replay_key else {
            cli::fail(&format!(
                "--replay-to needs --replay-key KEY naming the cell to replay \
                 (a key from {})",
                out_dir.join(sweep::runner::JSONL_NAME).display()
            ));
        };
        let Some(cell) = cells.iter().find(|c| ctx.key(&c.key()) == key) else {
            cli::fail(&format!(
                "no cell of grid `{}` on the {} topology has key `{key}`; \
                 the first cells are: {}",
                grid.name,
                ctx.topology.describe(),
                cells
                    .iter()
                    .take(4)
                    .map(|c| ctx.key(&c.key()))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        };
        match sweep::replay_cell_to(cell, &ctx, &ckpt_dir, target) {
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
        cli::fail("--replay-key without --replay-to CYCLE has no effect");
    }
    let ctx = run_flags.context(&out_dir, trace.as_ref());
    eprintln!(
        "sweep `{}`: {} cells -> {} ({} engine, {}, {} objective{}{})",
        grid.name,
        cells.len(),
        out_dir.display(),
        ctx.engine.label(),
        ctx.topology.describe(),
        objective.label(),
        if resume { ", resume" } else { "" },
        match &ctx.checkpoint {
            Some(spec) => format!(
                ", checkpoint every {} cycles -> {}",
                spec.every,
                spec.dir.display()
            ),
            None => String::new(),
        }
    );
    let started = std::time::Instant::now();
    let outcome = match sweep::run_sweep(&grid, &out_dir, resume, objective, &ctx) {
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
