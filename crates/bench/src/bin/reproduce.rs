//! Regenerate every table and figure of the paper.
//!
//! ```bash
//! cargo run --release -p htm-bench --bin reproduce -- all
//! cargo run --release -p htm-bench --bin reproduce -- table1 table2 fig3
//! cargo run --release -p htm-bench --bin reproduce -- fig4 fig5 fig6 summary
//! cargo run --release -p htm-bench --bin reproduce -- fig7
//! cargo run --release -p htm-bench --bin reproduce -- --json fig5
//! cargo run --release -p htm-bench --bin reproduce -- --smoke
//! ```
//!
//! `--quick` keeps the full evaluation matrix but at small workload scale;
//! `--smoke` is the CI gate: tiny workloads on a single processor count,
//! with every produced table/figure also written as a JSON artifact under
//! `--out` (default `reproduce-out/`).
//!
//! Engine and topology options:
//!
//! * `--engine fast|naive` selects the stepping engine (default `fast`, the
//!   event-driven fast-forward engine; `naive` is the one-step-per-cycle
//!   reference). Both produce byte-identical table/figure artifacts — CI
//!   runs the smoke matrices on both and fails on any divergence.
//! * `--topology bus|sharded[:BANKS[:mesh|xbar]]` swaps the interconnect
//!   (default `bus`, the paper's machine; see `docs/SCALING.md`).
//! * `--threads N` caps the process-wide worker pool: at most `N` matrix
//!   cells or Fig. 7 runs execute at once. Purely a wall-clock knob —
//!   output bytes are identical for every `N`.
//! * `--scale-smoke` is the large-machine CI gate: tiny workloads
//!   (including the cluster-isolated `clustered` one) on 64-, 512- and
//!   1024-processor machines — the last being the simulator's
//!   [`htm_sim::MAX_PROCS`] ceiling.
//! * `--timing` writes a `BENCH_reproduce.json` artifact with the wall-clock
//!   time of every matrix cell and the cells/second rate, so engine and
//!   parallelisation speedups are recorded next to the scientific output.
//! * `--trace FILE` drives the matrix targets from a recorded `htmtrace`
//!   file instead of the synthetic generators; `--record-trace FILE --from
//!   NAME[:PROCS[:SCALE[:SEED[:xTILES]]]]` produces such a file (see
//!   `docs/REPRODUCING.md`, "Bring your own trace").

use std::path::{Path, PathBuf};

use clockgate_htm::experiments::{self, EvaluationMatrix, ExperimentConfig, Fig7Result};
use clockgate_htm::report;
use htm_bench::cli::{self, RunFlags, RUN_FLAGS_HELP};
use htm_bench::outln;
use htm_power::model::PowerModel;

fn usage() -> ! {
    cli::fail(&format!(
        "usage: reproduce [options] [all|table1|table2|fig3|fig4|fig5|fig6|fig7|summary|breakdown]...\n\
         \n\
         Regenerate the paper's tables and figures (default target: all).\n\
         \n\
         options:\n\
         \x20 --json          print results as JSON instead of text tables\n\
         \x20 --quick         full matrix at small workload scale\n\
         \x20 --smoke         CI gate: tiny workloads, one processor count;\n\
         \x20                 also writes JSON artifacts (default dir reproduce-out/)\n\
         \x20 --scale-smoke   large-machine CI gate: tiny workloads (clustered,\n\
         \x20                 genome, intruder) on 64, 512 and 1024 processors;\n\
         \x20                 combine with --topology/--engine to exercise the\n\
         \x20                 sharded fabric\n\
         \x20 --max-procs N   drop matrix cells above N processors; CI uses it\n\
         \x20                 to keep the cycle-stepping naive reference arm of\n\
         \x20                 the scale smoke at 64p while the event-driven\n\
         \x20                 engine takes the full 512-1024p corpus\n\
         \x20 --record-trace FILE  record a workload as an htmtrace file and\n\
         \x20                 exit; the source is --from\n\
         \x20 --from SPEC     what --record-trace records, as\n\
         \x20                 NAME[:PROCS[:SCALE[:SEED[:xTILES]]]] with defaults\n\
         \x20                 4:test:42:x1 (e.g. `zipfian:8:full:7:x40`; xTILES\n\
         \x20                 repeats every thread's transaction sequence to\n\
         \x20                 build arbitrarily long traces)\n\
         \x20 --out DIR       write each produced table/figure as DIR/<name>.json;\n\
         \x20                 matrix targets additionally write the per-component\n\
         \x20                 energy_breakdown.json ledger artifact\n\
         \x20 --timing        write BENCH_reproduce.json (wall-clock per matrix\n\
         \x20                 cell and cells/second)\n\
         \x20 --list-policies list every registered contention policy and exit\n\
         \x20                 (every policy runs on either topology and engine)\n\
         \x20 -h, --help      this text\n\
         \n\
         {RUN_FLAGS_HELP}\n\
         \n\
         With --trace, the trace becomes the only workload of the matrix\n\
         targets, on the processor count it was recorded with; it excludes\n\
         --smoke, --scale-smoke and --quick.\n\
         \n\
         For sensitivity sweeps beyond the paper's operating point, see the\n\
         `sweep` binary (`cargo run -p htm-bench --bin sweep -- --list`)."
    ))
}

/// What `--record-trace` records: a registered workload generator plus the
/// tiling factor that repeats each thread's transaction sequence.
struct RecordSpec {
    name: String,
    procs: usize,
    scale: htm_workloads::WorkloadScale,
    seed: u64,
    tiles: usize,
}

/// Parse a `--from NAME[:PROCS[:SCALE[:SEED[:xTILES]]]]` spec, exiting with
/// an actionable message on any malformed segment.
fn parse_record_spec(spec: &str) -> RecordSpec {
    fn bad(spec: &str, why: &str) -> ! {
        cli::fail(&format!(
            "--from: `{spec}`: {why}\n\
             expected NAME[:PROCS[:SCALE[:SEED[:xTILES]]]], e.g. `intruder`, \
             `zipfian:8:full:7:x40` (SCALE is test, small or full)"
        ));
    }
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or_default().to_string();
    if name.is_empty() {
        bad(spec, "missing workload name");
    }
    let mut out = RecordSpec {
        name,
        procs: 4,
        scale: htm_workloads::WorkloadScale::Test,
        seed: 42,
        tiles: 1,
    };
    if let Some(procs) = parts.next() {
        match procs.parse::<usize>() {
            Ok(n) if n > 0 => out.procs = n,
            _ => bad(spec, "PROCS must be a positive integer"),
        }
    }
    if let Some(scale) = parts.next() {
        out.scale = match scale {
            "test" => htm_workloads::WorkloadScale::Test,
            "small" => htm_workloads::WorkloadScale::Small,
            "full" => htm_workloads::WorkloadScale::Full,
            _ => bad(spec, "SCALE must be test, small or full"),
        };
    }
    if let Some(seed) = parts.next() {
        match seed.parse::<u64>() {
            Ok(n) => out.seed = n,
            Err(_) => bad(spec, "SEED must be an unsigned integer"),
        }
    }
    if let Some(tiles) = parts.next() {
        match tiles.strip_prefix('x').map(str::parse::<usize>) {
            Some(Ok(n)) if n > 0 => out.tiles = n,
            _ => bad(
                spec,
                "TILES must be a positive integer prefixed with `x`, e.g. `x40`",
            ),
        }
    }
    if parts.next().is_some() {
        bad(spec, "too many `:`-separated segments");
    }
    out
}

/// Write one table/figure JSON artifact, creating the directory on demand.
fn write_artifact(dir: &Path, name: &str, json: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create artifact dir {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

fn main() {
    let mut json = false;
    let mut quick = false;
    let mut smoke = false;
    let mut scale_smoke = false;
    let mut timing = false;
    let mut run_flags = RunFlags::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut record_path: Option<PathBuf> = None;
    let mut record_from: Option<String> = None;
    let mut max_procs: Option<usize> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            "--smoke" => smoke = true,
            "--scale-smoke" => scale_smoke = true,
            "--timing" => timing = true,
            "--list-policies" => {
                cli::print_policy_list();
                return;
            }
            "--max-procs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => max_procs = Some(n),
                _ => {
                    cli::fail("--max-procs needs a positive processor count, e.g. `--max-procs 64`")
                }
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => usage(),
            },
            "--record-trace" => match args.next() {
                Some(path) => record_path = Some(PathBuf::from(path)),
                None => cli::fail("--record-trace needs an output file path"),
            },
            "--from" => match args.next() {
                Some(spec) => record_from = Some(spec),
                None => {
                    cli::fail("--from needs a workload spec: NAME[:PROCS[:SCALE[:SEED[:xTILES]]]]")
                }
            },
            "-h" | "--help" => usage(),
            other => match run_flags.take(other, &mut args) {
                Ok(true) => {}
                Ok(false) => targets.push(other.to_string()),
                Err(message) => cli::fail(&message),
            },
        }
    }
    run_flags.configure_pool();
    // Trace recording is its own mode: write the file and exit.
    if let Some(path) = record_path {
        let Some(spec) = record_from else {
            cli::fail("--record-trace needs --from NAME[:PROCS[:SCALE[:SEED[:xTILES]]]]");
        };
        if run_flags.trace.is_some() {
            cli::fail("--record-trace and --trace are mutually exclusive");
        }
        let spec = parse_record_spec(&spec);
        let Some(workload) = htm_workloads::by_name(&spec.name, spec.procs, spec.scale, spec.seed)
        else {
            cli::fail(&format!(
                "--from: unknown workload `{}` (available: {})",
                spec.name,
                htm_workloads::workload_names().join(", ")
            ));
        };
        let workload = workload.tiled(spec.tiles);
        if let Err(e) = htm_workloads::trace::record_to_path(&path, &workload) {
            eprintln!("--record-trace {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "recorded `{}` ({} threads, {} transactions, {} memory references, fingerprint {:016x}) -> {}",
            workload.name,
            workload.num_threads(),
            workload.total_transactions(),
            workload.total_memory_refs(),
            workload.fingerprint(),
            path.display()
        );
        return;
    }
    if record_from.is_some() {
        cli::fail("--from does nothing without --record-trace FILE");
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    const KNOWN: [&str; 10] = [
        "all",
        "table1",
        "table2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "summary",
        "breakdown",
    ];
    for t in &targets {
        if !KNOWN.contains(&t.as_str()) {
            eprintln!("unknown target `{t}`");
            usage();
        }
    }
    let all = targets.iter().any(|t| t == "all");
    let wants = |name: &str| all || targets.iter().any(|t| t == name);

    let mut cfg = if scale_smoke {
        ExperimentConfig {
            processor_counts: vec![64, 512, 1024],
            workloads: ["clustered", "genome", "intruder"]
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            scale: htm_workloads::WorkloadScale::Test,
            ..ExperimentConfig::default()
        }
    } else if smoke {
        ExperimentConfig {
            processor_counts: vec![4],
            scale: htm_workloads::WorkloadScale::Test,
            ..ExperimentConfig::default()
        }
    } else if quick {
        ExperimentConfig {
            scale: htm_workloads::WorkloadScale::Small,
            ..ExperimentConfig::default()
        }
    } else {
        ExperimentConfig::default()
    };
    if let Some(cap) = max_procs {
        cfg.processor_counts.retain(|&p| p <= cap);
        if cfg.processor_counts.is_empty() {
            cli::fail(&format!(
                "--max-procs {cap} drops every matrix cell; raise the cap"
            ));
        }
    }
    // A recorded trace replaces the synthetic workload axis entirely: the
    // matrix runs the trace (under its fingerprinted axis name) on exactly
    // the processor count it was recorded with.
    let trace = run_flags.trace.as_deref().map(|path| {
        if smoke || scale_smoke || quick {
            cli::fail(
                "--trace is mutually exclusive with --smoke/--scale-smoke/--quick: \
                 those presets fix their own workload lists",
            );
        }
        let trace = cli::load_trace(path);
        cfg.workloads = vec![trace.axis_name.clone()];
        cfg.processor_counts = vec![trace.workload.num_threads()];
        trace
    });
    if (smoke || scale_smoke) && out_dir.is_none() {
        out_dir = Some(PathBuf::from("reproduce-out"));
    }
    let ctx = run_flags.context(
        out_dir.as_deref().unwrap_or(Path::new("reproduce-out")),
        trace.as_ref(),
    );

    if wants("table1") {
        outln!("{}", experiments::render_table1());
        if let Some(dir) = &out_dir {
            write_artifact(
                dir,
                "table1_power_model",
                &report::to_json(&PowerModel::alpha_21264_65nm()),
            );
        }
    }
    if wants("table2") {
        for &p in &cfg.processor_counts {
            outln!("{}", experiments::render_table2(p));
        }
    }
    if wants("fig3") {
        let f = experiments::fig3();
        if json {
            outln!("{}", report::to_json(&f));
        } else {
            outln!("{}", experiments::render_fig3(&f));
        }
        if let Some(dir) = &out_dir {
            write_artifact(dir, "fig3_cache_power", &report::to_json(&f));
        }
    }

    let needs_matrix =
        wants("fig4") || wants("fig5") || wants("fig6") || wants("summary") || wants("breakdown");
    if timing && !needs_matrix {
        eprintln!(
            "warning: --timing only measures the evaluation matrix \
             (fig4/fig5/fig6/summary); no BENCH_reproduce.json will be written"
        );
    }
    let matrix: Option<EvaluationMatrix> = if needs_matrix {
        eprintln!(
            "running the evaluation matrix ({} workloads x {:?} processors, with and without gating, {} engine, {})...",
            cfg.workloads.len(),
            cfg.processor_counts,
            ctx.engine.label(),
            ctx.topology.describe()
        );
        if let Some(spec) = &ctx.checkpoint {
            eprintln!(
                "checkpointing every {} cycles into {}",
                spec.every,
                spec.dir.display()
            );
        }
        let (matrix, matrix_timing, breakdown) = match experiments::run_matrix(&cfg, &ctx) {
            Ok(results) => results,
            Err(err) => {
                eprintln!("the evaluation matrix failed: {err}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "matrix completed: {} cells in {:.1} ms on {} threads ({:.1} cells/s)",
            matrix_timing.cells.len(),
            matrix_timing.total_wall_ms,
            matrix_timing.threads,
            matrix_timing.cells_per_sec
        );
        if timing {
            let dir = out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
            write_artifact(&dir, "BENCH_reproduce", &report::to_json(&matrix_timing));
        }
        if wants("breakdown") {
            if json {
                outln!("{}", report::to_json(&breakdown));
            } else {
                outln!("{}", experiments::render_energy_breakdown(&breakdown));
            }
        }
        // The artifact is written whenever the matrix ran (like
        // evaluation_matrix.json), so `--smoke` always produces it for the
        // CI engine-divergence gate.
        if let Some(dir) = &out_dir {
            write_artifact(dir, "energy_breakdown", &report::to_json(&breakdown));
        }
        Some(matrix)
    } else {
        None
    };

    if let Some(matrix) = &matrix {
        if wants("fig4") {
            outln!("{}", experiments::render_fig4(matrix));
        }
        if wants("fig5") {
            outln!("{}", experiments::render_fig5(matrix));
        }
        if wants("fig6") {
            outln!("{}", experiments::render_fig6(matrix));
        }
        if wants("summary") {
            outln!(
                "{}",
                experiments::render_summary(&experiments::summary(matrix))
            );
        }
        if json {
            outln!("{}", report::to_json(matrix));
        }
        if let Some(dir) = &out_dir {
            write_artifact(dir, "evaluation_matrix", &report::to_json(matrix));
            write_artifact(
                dir,
                "summary",
                &report::to_json(&experiments::summary(matrix)),
            );
        }
    }

    if wants("fig7") {
        eprintln!("running the W0 sensitivity sweep...");
        let w0_values = [1, 2, 4, 8, 16, 32, 64];
        let f: Fig7Result = match experiments::fig7(&cfg, &w0_values, &ctx) {
            Ok(result) => result,
            Err(err) => {
                eprintln!("the fig7 sweep failed: {err}");
                std::process::exit(1);
            }
        };
        if json {
            outln!("{}", report::to_json(&f));
        } else {
            outln!("{}", experiments::render_fig7(&f));
        }
        if let Some(dir) = &out_dir {
            write_artifact(dir, "fig7_w0_sensitivity", &report::to_json(&f));
        }
    }
}
