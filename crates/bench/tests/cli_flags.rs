//! The run flags both binaries share (`--engine`, `--topology`,
//! `--threads`, `--checkpoint-every`, `--checkpoint-dir`, `--trace`): a bad
//! or missing value is one actionable line naming the flag and exit code 2
//! in either binary, never a usage dump, and a repeated flag keeps its last
//! value.

use std::process::Command;

fn binaries() -> [(Command, &'static str); 2] {
    [
        (Command::new(env!("CARGO_BIN_EXE_reproduce")), "reproduce"),
        (Command::new(env!("CARGO_BIN_EXE_sweep")), "sweep"),
    ]
}

#[test]
fn bad_or_missing_run_flag_values_name_the_flag_and_exit_2() {
    for args in [
        &["--engine", "turbo"][..],
        &["--engine"],
        &["--topology", "ring"],
        &["--topology"],
        &["--threads", "0"],
        &["--checkpoint-every"],
        &["--checkpoint-every", "ten"],
        &["--checkpoint-dir"],
        &["--trace"],
    ] {
        for (mut cmd, name) in binaries() {
            let out = cmd.args(args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{name} {args:?}: {stderr}");
            assert!(stderr.starts_with(args[0]), "{name} {args:?}: {stderr}");
        }
    }
}

#[test]
fn a_checkpoint_dir_without_an_interval_is_refused_by_both_binaries() {
    let dir = std::env::temp_dir().join(format!("clockgate-cli-ckdir-{}", std::process::id()));
    for (mut cmd, name) in binaries() {
        if name == "sweep" {
            cmd.args(["--grid", "smoke"]);
        } else {
            cmd.arg("summary");
        }
        let out = cmd
            .arg("--out")
            .arg(&dir)
            .arg("--checkpoint-dir")
            .arg(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("--checkpoint-every"), "{name}: {stderr}");
    }
    assert!(!dir.exists(), "nothing may run before the usage error");
}

#[test]
fn a_repeated_threads_flag_keeps_the_last_value() {
    let dir = std::env::temp_dir().join(format!("clockgate-cli-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args([
            "--smoke",
            "--timing",
            "--threads",
            "1",
            "--threads",
            "2",
            "summary",
        ])
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("reproduce runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let timing = std::fs::read_to_string(dir.join("BENCH_reproduce.json")).unwrap();
    // The smoke matrix has three cells, so a two-worker pool uses both.
    assert!(timing.contains("\"threads\": 2"), "{timing}");
    let _ = std::fs::remove_dir_all(&dir);
}
