//! Command-line plumbing shared by the `reproduce` and `sweep` binaries.
//!
//! Both binaries take the same six run flags — `--engine`, `--topology`,
//! `--threads`, `--checkpoint-every`, `--checkpoint-dir` and `--trace` —
//! which [`RunFlags`] parses into a [`RunContext`], with one help text
//! ([`RUN_FLAGS_HELP`]) and one set of error messages. A bad or missing
//! value is a usage error: one actionable line on stderr and exit code 2.
//! Like every other flag, a repeated run flag keeps its last value.

use std::io::Write;
use std::path::{Path, PathBuf};

use clockgate_htm::context::{CheckpointSpec, RunContext, TraceWorkload};
use clockgate_htm::sim::EngineKind;
use htm_sim::pool::WorkerPool;
use htm_sim::topology::TopologyConfig;

/// Help text of the six run flags, as both binaries print it.
pub const RUN_FLAGS_HELP: &str = "\
run options (shared by reproduce and sweep):
  --engine E      stepping engine: fast (default, event-driven
                  fast-forward) or naive (one step per cycle, the
                  reference); artifacts are byte-identical
  --topology T    interconnect: bus (default) or
                  sharded[:BANKS[:mesh|xbar]] (BANKS=0: one bank per
                  directory); off the bus, run and cell keys carry a
                  topology segment, so bus and sharded runs never mix
                  on resume; see docs/SCALING.md
  --threads N     run at most N simulations at once (default: the
                  host's available parallelism); matrix or sweep
                  cells run in parallel up to that budget.
                  Affects wall-clock only — artifacts are
                  byte-identical for every N
  --checkpoint-every N  checkpoint every simulation run every N
                  simulated cycles; an interrupted run resumes from
                  its newest valid checkpoint with identical output
                  bytes (torn/corrupt files are skipped loudly,
                  future-format files are a hard error)
  --checkpoint-dir D    checkpoint directory (default
                  <out>/checkpoints); needs --checkpoint-every,
                  except for sweep --replay-to, which reads it
  --trace FILE    drive the run from a recorded htmtrace file instead
                  of the synthetic generators, streamed through a
                  fingerprint-verified bounded-memory reader; a
                  corrupt, truncated or future-format file is a
                  pre-flight error (exit 2)";

/// Print one line to stdout, exiting quietly if the reader went away
/// (`reproduce table1 | head` must not panic on the broken pipe).
pub fn outln(text: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    let ok = stdout
        .write_fmt(text)
        .and_then(|()| stdout.write_all(b"\n"))
        .is_ok();
    if !ok {
        std::process::exit(0);
    }
}

/// [`outln`] with `format!` arguments.
#[macro_export]
macro_rules! outln {
    ($($t:tt)*) => {
        $crate::cli::outln(format_args!($($t)*))
    };
}

/// Print `message` on stderr and exit with status 2, the binaries' code for
/// a usage or pre-flight error.
pub fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parse a `--flag CYCLES` value.
fn cycles(flag: &str, value: Option<String>) -> Result<u64, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a cycle count, e.g. `{flag} 100000`"))?;
    raw.parse::<u64>()
        .map_err(|e| format!("{flag}: `{raw}` is not a cycle count ({e})"))
}

/// Parse a `--flag CYCLES` value, exiting with an actionable message (not a
/// panic) on a missing or malformed number.
pub fn parse_cycles(flag: &str, value: Option<String>) -> u64 {
    cycles(flag, value).unwrap_or_else(|message| fail(&message))
}

/// Print the contention-policy registry, and the note that every policy
/// runs on every topology and engine (`--list-policies`).
pub fn print_policy_list() {
    outln!("{}", clockgate_htm::gating::policy::render_policy_list());
    outln!(
        "\nEvery policy runs on either interconnect topology \
         (--topology bus|sharded[:BANKS[:mesh|xbar]], default bus) \
         and either stepping engine (--engine fast|naive)."
    );
}

/// Load a `--trace` file, reporting what it holds on stderr. A file that
/// cannot be read, or fails validation, is a usage error (exit 2).
#[must_use]
pub fn load_trace(path: &Path) -> TraceWorkload {
    let loaded = htm_workloads::trace::read_from_path(path)
        .unwrap_or_else(|e| fail(&format!("--trace {}: {e}", path.display())));
    let trace = TraceWorkload::from_loaded(&loaded);
    let w = &loaded.workload;
    eprintln!(
        "trace {}: workload `{}`, {} threads, {} transactions, {} memory references, \
         fingerprint {:016x} -> axis `{}`",
        path.display(),
        w.name,
        w.num_threads(),
        w.total_transactions(),
        w.total_memory_refs(),
        loaded.fingerprint,
        trace.axis_name
    );
    trace
}

/// The six run flags as given on the command line.
#[derive(Debug, Default)]
pub struct RunFlags {
    /// `--engine`.
    pub engine: EngineKind,
    /// `--topology`.
    pub topology: TopologyConfig,
    /// `--trace`.
    pub trace: Option<PathBuf>,
    threads: Option<usize>,
    checkpoint_every: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
}

impl RunFlags {
    /// If `flag` is one of the six run flags, take its value from `args` and
    /// record it, replacing any earlier value; `Ok(false)` leaves any other
    /// flag (and `args`) to the caller. The error is the usage message of a
    /// missing or bad value.
    pub fn take(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--engine" => {
                let value = args.next().ok_or("--engine needs a value: fast or naive")?;
                self.engine = EngineKind::parse(&value).ok_or_else(|| {
                    format!("--engine: `{value}` is not an engine; use fast or naive")
                })?;
            }
            "--topology" => {
                let value = args
                    .next()
                    .ok_or("--topology needs a value: bus or sharded[:BANKS[:mesh|xbar]]")?;
                self.topology = TopologyConfig::parse(&value).ok_or_else(|| {
                    format!(
                        "--topology: `{value}` is not a topology; use bus or \
                         sharded[:BANKS[:mesh|xbar]], e.g. `sharded:8:mesh`"
                    )
                })?;
            }
            "--threads" => {
                let n = args.next().and_then(|n| n.parse::<usize>().ok());
                let n = n.filter(|&n| n > 0);
                self.threads =
                    Some(n.ok_or("--threads needs a positive worker count, e.g. `--threads 4`")?);
            }
            "--checkpoint-every" => {
                let every = cycles(flag, args.next())?;
                if every == 0 {
                    return Err("--checkpoint-every: the interval must be at least 1 cycle".into());
                }
                self.checkpoint_every = Some(every);
            }
            "--checkpoint-dir" => {
                let dir = args
                    .next()
                    .ok_or("--checkpoint-dir needs a directory path")?;
                self.checkpoint_dir = Some(PathBuf::from(dir));
            }
            "--trace" => {
                let path = args
                    .next()
                    .ok_or("--trace needs a file path (a recorded htmtrace file)")?;
                self.trace = Some(PathBuf::from(path));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Set the process-wide thread budget from `--threads`. Call once,
    /// after parsing and before the first batch of runs reads the budget.
    pub fn configure_pool(&self) {
        if let Some(n) = self.threads {
            let configured = WorkerPool::configure_global(n);
            debug_assert!(configured, "the thread budget was set before --threads");
        }
    }

    /// The checkpoint directory: `--checkpoint-dir`, or `<out>/checkpoints`.
    #[must_use]
    pub fn checkpoint_dir(&self, out: &Path) -> PathBuf {
        self.checkpoint_dir
            .clone()
            .unwrap_or_else(|| out.join("checkpoints"))
    }

    /// The run context the flags describe, with checkpoints under
    /// [`Self::checkpoint_dir`] of `out` and the loaded `trace`.
    /// `--checkpoint-dir` without `--checkpoint-every` is a usage error
    /// (exit 2), because it would silently do nothing.
    #[must_use]
    pub fn context<'a>(&self, out: &Path, trace: Option<&'a TraceWorkload>) -> RunContext<'a> {
        if self.checkpoint_dir.is_some() && self.checkpoint_every.is_none() {
            fail(
                "--checkpoint-dir does nothing without --checkpoint-every N; \
                 add an interval or drop the directory flag",
            );
        }
        RunContext {
            engine: self.engine,
            topology: self.topology,
            checkpoint: self.checkpoint_every.map(|every| CheckpointSpec {
                dir: self.checkpoint_dir(out),
                every,
            }),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `line` through [`RunFlags::take`], returning the flags and the
    /// arguments it left to the caller.
    fn parse(line: &str) -> Result<(RunFlags, Vec<String>), String> {
        let mut flags = RunFlags::default();
        let mut rest = Vec::new();
        let mut args = line.split_whitespace().map(String::from);
        while let Some(arg) = args.next() {
            if !flags.take(&arg, &mut args)? {
                rest.push(arg);
            }
        }
        Ok((flags, rest))
    }

    #[test]
    fn a_repeated_threads_flag_keeps_the_last_value() {
        let (flags, _) = parse("--threads 1 --threads 2").unwrap();
        assert_eq!(flags.threads, Some(2));
    }

    #[test]
    fn every_run_flag_keeps_its_last_value() {
        let (flags, rest) = parse(
            "--engine fast --engine naive --topology sharded --topology bus --smoke \
             --checkpoint-every 5 --checkpoint-every 7 --checkpoint-dir a --checkpoint-dir b \
             --trace x.trace --trace y.trace fig7",
        )
        .unwrap();
        assert_eq!(flags.engine, EngineKind::Naive);
        assert_eq!(flags.topology, TopologyConfig::Bus);
        assert_eq!(flags.checkpoint_every, Some(7));
        assert_eq!(flags.checkpoint_dir, Some(PathBuf::from("b")));
        assert_eq!(flags.trace, Some(PathBuf::from("y.trace")));
        assert_eq!(
            rest,
            ["--smoke", "fig7"],
            "other arguments stay with the caller"
        );
    }

    #[test]
    fn the_context_carries_the_flags() {
        let (flags, _) = parse("--engine naive --topology sharded --checkpoint-every 9").unwrap();
        let ctx = flags.context(Path::new("out"), None);
        assert_eq!(ctx.engine, EngineKind::Naive);
        assert_eq!(ctx.topology, TopologyConfig::sharded_default());
        assert_eq!(
            ctx.checkpoint,
            Some(CheckpointSpec {
                dir: PathBuf::from("out/checkpoints"),
                every: 9,
            })
        );
        let plain = RunFlags::default().context(Path::new("out"), None);
        assert!(plain.checkpoint.is_none());
    }
}
