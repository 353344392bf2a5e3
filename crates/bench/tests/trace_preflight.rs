//! Pre-flight behaviour of `reproduce --trace` and `sweep --trace` on
//! damaged trace files: every corruption mode must be a dedicated usage
//! error (exit code 2) with an actionable message — never a panic, and
//! never a partial run.
//!
//! The suite records a known-good trace through the binary itself, then
//! derives each corrupt variant from those bytes, so the fixtures can never
//! drift from the writer.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

fn sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("clockgate-preflight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Record the shared known-good trace into `dir` and return its text.
fn record_good(dir: &Path) -> String {
    let path = dir.join("good.trace");
    let out = reproduce()
        .args(["--record-trace"])
        .arg(&path)
        .args(["--from", "intruder:4:test:42"])
        .output()
        .expect("reproduce runs");
    assert!(
        out.status.success(),
        "recording failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(&path).unwrap()
}

/// Run `reproduce --trace FILE summary` and return the full output.
fn replay(path: &Path) -> Output {
    reproduce()
        .arg("--trace")
        .arg(path)
        .arg("summary")
        .output()
        .expect("reproduce runs")
}

/// Assert the run was refused in pre-flight: exit code 2 and a message
/// containing `needle`.
fn assert_preflight_error(out: &Output, needle: &str, context: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{context}: expected exit 2, got {:?}; stderr:\n{stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(needle),
        "{context}: stderr must mention `{needle}`:\n{stderr}"
    );
}

#[test]
fn truncated_body_is_a_dedicated_preflight_error() {
    let dir = TempDir::new("truncated");
    let good = record_good(dir.path());
    // Cut the file mid-body: drop the last quarter of the lines.
    let lines: Vec<&str> = good.lines().collect();
    let torn: String = lines[..lines.len() * 3 / 4].join("\n");
    let path = dir.path().join("torn.trace");
    std::fs::write(&path, torn).unwrap();
    assert_preflight_error(&replay(&path), "truncated", "truncated body");
}

#[test]
fn bad_fingerprint_is_a_dedicated_preflight_error() {
    let dir = TempDir::new("fingerprint");
    let good = record_good(dir.path());
    // Flip one op address in the body; the declared fingerprint no longer
    // matches what the body hashes to.
    let edited = good.replacen("\nr ", "\nw ", 1);
    assert_ne!(edited, good, "the fixture must contain a read op");
    let path = dir.path().join("edited.trace");
    std::fs::write(&path, edited).unwrap();
    assert_preflight_error(
        &replay(&path),
        "fingerprint mismatch",
        "edited body vs declared fingerprint",
    );
}

#[test]
fn future_format_version_is_a_dedicated_preflight_error() {
    let dir = TempDir::new("version");
    let good = record_good(dir.path());
    let future = good.replacen("htmtrace v1", "htmtrace v99", 1);
    let path = dir.path().join("future.trace");
    std::fs::write(&path, future).unwrap();
    assert_preflight_error(&replay(&path), "version", "future format version");
}

#[test]
fn over_declared_proc_count_is_a_dedicated_preflight_error() {
    let dir = TempDir::new("procs");
    let good = record_good(dir.path());
    let over = good.replacen("procs 4", "procs 64", 1);
    let path = dir.path().join("over.trace");
    std::fs::write(&path, over).unwrap();
    assert_preflight_error(
        &replay(&path),
        "thread",
        "header declares more threads than the body holds",
    );
}

#[test]
fn missing_file_and_non_trace_file_are_preflight_errors() {
    let dir = TempDir::new("misc");
    let out = replay(&dir.path().join("does-not-exist.trace"));
    assert_eq!(out.status.code(), Some(2), "missing file must exit 2");
    let path = dir.path().join("not-a-trace.trace");
    std::fs::write(&path, "PK\x03\x04 this is not a trace\n").unwrap();
    assert_preflight_error(&replay(&path), "htmtrace", "non-trace file");
}

#[test]
fn sweep_rejects_the_same_corruptions() {
    let dir = TempDir::new("sweep");
    let good = record_good(dir.path());
    let edited = good.replacen("\nr ", "\nw ", 1);
    let path = dir.path().join("edited.trace");
    std::fs::write(&path, edited).unwrap();
    let out = sweep()
        .arg("--trace")
        .arg(&path)
        .arg("--out")
        .arg(dir.path().join("out"))
        .output()
        .expect("sweep runs");
    assert_preflight_error(&out, "fingerprint mismatch", "sweep with edited trace");
}

/// Both binaries document the trace flags, and their full `--help` text is
/// pinned by the committed files under `tests/help/` (regenerate them with
/// `cargo run -p htm-bench --bin reproduce -- --help 2> crates/bench/tests/help/reproduce.txt`,
/// and likewise for `sweep`, after a deliberate help change).
#[test]
fn both_binaries_document_the_trace_flags_in_help() {
    for (mut cmd, name, extra) in [
        (reproduce(), "reproduce", "--record-trace"),
        (sweep(), "sweep", "--grid"),
    ] {
        let out = cmd.arg("--help").output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--trace"),
            "{name} --help must document --trace:\n{stderr}"
        );
        assert!(
            stderr.contains(extra),
            "{name} --help must document {extra}:\n{stderr}"
        );
        let expected_path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/help")
            .join(format!("{name}.txt"));
        let expected = std::fs::read_to_string(&expected_path).unwrap();
        assert_eq!(
            stderr,
            expected,
            "{name} --help differs from {}",
            expected_path.display()
        );
    }
}

#[test]
fn a_good_trace_replays_and_sweeps_cleanly() {
    let dir = TempDir::new("good");
    record_good(dir.path());
    let path = dir.path().join("good.trace");
    let out = replay(&path);
    assert!(
        out.status.success(),
        "replay of a good trace must succeed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Headline averages"),
        "summary output expected:\n{stdout}"
    );
}
