//! Divergence-hunting fuzz harness (see `htm_bench::divergence`).
//!
//! ```bash
//! # Hunt: random + mutated cases across engines, topologies and policies.
//! cargo run --release -p htm-bench --bin divergence -- --budget 200 --seed 7
//!
//! # Replay a committed minimal case (regression check).
//! cargo run --release -p htm-bench --bin divergence -- \
//!     --case crates/bench/tests/cases/injected_fast_accounting.case
//!
//! # Self-test: plant the deliberate fast-engine accounting bug; the
//! # harness must find it, shrink it and exit 1.
//! cargo run --release -p htm-bench --bin divergence -- --inject-bug --budget 40
//! ```
//!
//! Exit codes: `0` — budget exhausted with every case engine-exact;
//! `1` — a divergence was found (shrunk case written under `--out`);
//! `2` — usage error.

use std::path::PathBuf;

use htm_bench::cli;
use htm_bench::divergence::{
    mutate_case, parse_case, random_case, render_case, run_case, shrink_case, CaseSpec, Divergence,
};
use htm_sim::rng::DeterministicRng;

fn usage() -> ! {
    cli::fail(
        "usage: divergence [--budget N] [--seed S] [--out DIR] [--case FILE] [--inject-bug]\n\
         \n\
         Fuzz the exactness invariant: run random/mutated conflict traces and\n\
         machine configurations on both stepping engines (naive reference and\n\
         fast-forward) and field-wise diff the full reports.\n\
         A found divergence is auto-shrunk to a minimal `.case` file.\n\
         \n\
         options:\n\
         \x20 --budget N     number of fuzz cases to run (default 48)\n\
         \x20 --seed S       deterministic fuzz seed (default 1)\n\
         \x20 --out DIR      where to write shrunk `.case` files\n\
         \x20                (default divergence-out/)\n\
         \x20 --case FILE    replay one `.case` file instead of fuzzing;\n\
         \x20                exit 1 if it diverges, 0 if engine-exact\n\
         \x20 --inject-bug   plant the deliberate fast-engine accounting bug\n\
         \x20                (self-test: the harness must catch and shrink it)\n\
         \x20 -h, --help     this text",
    );
}

fn parse_number(flag: &str, value: Option<String>) -> u64 {
    let Some(raw) = value else {
        cli::fail(&format!("{flag} needs a number"));
    };
    match raw.parse::<u64>() {
        Ok(n) => n,
        Err(err) => cli::fail(&format!("{flag}: `{raw}` is not a number ({err})")),
    }
}

fn print_divergence(d: &Divergence) {
    eprintln!(
        "  fast-forward vs naive reference: {} field(s) differ",
        d.fields.len()
    );
    for f in d.fields.iter().take(12) {
        eprintln!("    {}: {} vs {}", f.path, f.reference, f.diverging);
    }
    if d.fields.len() > 12 {
        eprintln!("    ... and {} more", d.fields.len() - 12);
    }
}

/// Does the case still diverge? Errors count as "no" so shrinking can never
/// wander into an unrunnable case.
fn still_diverges(case: &CaseSpec, inject_bug: bool) -> bool {
    matches!(run_case(case, inject_bug), Ok(Some(_)))
}

fn main() {
    let mut budget = 48u64;
    let mut seed = 1u64;
    let mut out_dir = PathBuf::from("divergence-out");
    let mut case_file: Option<PathBuf> = None;
    let mut inject_bug = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" => budget = parse_number("--budget", args.next()),
            "--seed" => seed = parse_number("--seed", args.next()),
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => cli::fail("--out needs a directory path"),
            },
            "--case" => match args.next() {
                Some(file) => case_file = Some(PathBuf::from(file)),
                None => cli::fail("--case needs a `.case` file path"),
            },
            "--inject-bug" => inject_bug = true,
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown option `{other}`");
                usage();
            }
        }
    }

    // Replay mode: one case, pass/fail.
    if let Some(path) = case_file {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) => cli::fail(&format!("cannot read {}: {err}", path.display())),
        };
        let case = match parse_case(&text) {
            Ok(case) => case,
            Err(err) => cli::fail(&format!("{}: {err}", path.display())),
        };
        let divergence = match run_case(&case, inject_bug) {
            Ok(Some(d)) => d,
            Ok(None) => {
                eprintln!("{}: engine-exact on both engines", path.display());
                return;
            }
            Err(err) => cli::fail(&format!("{}: simulation failed: {err}", path.display())),
        };
        eprintln!("{}: DIVERGENCE", path.display());
        print_divergence(&divergence);
        std::process::exit(1);
    }

    // Fuzz mode: random cases seeded deterministically, interleaved with
    // mutants of the previous case (the corpus of one).
    let mut rng = DeterministicRng::new(seed);
    let mut last: Option<CaseSpec> = None;
    let mut skipped = 0u64;
    for i in 0..budget {
        let case = match &last {
            Some(prev) if rng.gen_bool(0.5) => mutate_case(&mut rng, prev),
            _ => random_case(&mut rng),
        };
        let divergence = match run_case(&case, inject_bug) {
            Ok(Some(d)) => d,
            Ok(None) => {
                last = Some(case);
                continue;
            }
            Err(err) => {
                eprintln!("case {i}: skipped (simulation error: {err})");
                skipped += 1;
                continue;
            }
        };
        eprintln!("case {i}: DIVERGENCE found, shrinking...");
        print_divergence(&divergence);
        let shrunk = shrink_case(&case, |c| still_diverges(c, inject_bug));
        let shrunk_div = run_case(&shrunk, inject_bug)
            .expect("the shrunk case still runs")
            .expect("the shrunk case still diverges");
        eprintln!(
            "shrunk from {} to {} ops across {} thread(s):",
            case.total_ops(),
            shrunk.total_ops(),
            shrunk.procs()
        );
        print_divergence(&shrunk_div);
        if let Err(err) = std::fs::create_dir_all(&out_dir) {
            cli::fail(&format!("cannot create {}: {err}", out_dir.display()));
        }
        let path = out_dir.join(format!("divergence-seed{seed}-case{i}.case"));
        if let Err(err) = std::fs::write(&path, render_case(&shrunk)) {
            cli::fail(&format!("cannot write {}: {err}", path.display()));
        }
        eprintln!("wrote {}", path.display());
        std::process::exit(1);
    }
    eprintln!(
        "no divergence in {budget} case(s) (seed {seed}{}{})",
        if skipped > 0 { ", skipped " } else { "" },
        if skipped > 0 {
            skipped.to_string()
        } else {
            String::new()
        }
    );
}
