//! Golden-fixture gate: the six legacy contention policies must produce
//! **byte-identical** smoke artifacts through the pluggable-policy framework.
//!
//! The fixtures under `tests/golden/` were captured from the pre-framework
//! enum dispatch (plus the `backoff` cap-label fix, which landed first and
//! deliberately changed the back-off labels), by running
//!
//! ```bash
//! reproduce --smoke --out tests/golden/reproduce
//! sweep --grid smoke --out tests/golden/sweep
//! ```
//!
//! This suite regenerates the same artifacts through the library (registry →
//! boxed `PolicyHook` dispatch) and compares bytes, proving the refactor is
//! observationally identical. CI additionally re-runs the binaries on both
//! engines and `cmp`s their outputs against these fixtures.
//!
//! `tests/golden/trace/` extends the gate to the trace subsystem: a
//! committed `htmtrace` file (recorded via `reproduce --record-trace --from
//! intruder:4:test:42`) plus the matrix and sweep artifacts a traced run
//! produces from it. The trace fixture pins the on-disk format byte for
//! byte; the artifact fixtures pin the traced execution path.

use std::fs;
use std::path::{Path, PathBuf};

use clock_gate_on_abort::core::context::{RunContext, TraceWorkload};
use clock_gate_on_abort::core::experiments::{self, ExperimentConfig};
use clock_gate_on_abort::core::report::to_json;
use clock_gate_on_abort::core::sweep::{run_sweep, SweepGrid, SweepObjective};
use clock_gate_on_abort::power::model::PowerModel;
use clock_gate_on_abort::workloads::{trace, WorkloadScale};

fn golden_dir(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(sub)
}

fn golden(sub: &str, name: &str) -> String {
    let path = golden_dir(sub).join(name);
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()))
}

/// The `reproduce --smoke` experiment configuration (kept in sync with the
/// binary's `--smoke` branch).
fn smoke_config() -> ExperimentConfig {
    ExperimentConfig {
        processor_counts: vec![4],
        scale: WorkloadScale::Test,
        ..ExperimentConfig::default()
    }
}

#[test]
fn smoke_sweep_artifacts_match_the_golden_fixture() {
    let dir = std::env::temp_dir().join(format!("clockgate-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let ctx = RunContext::default();
    let outcome = run_sweep(
        &SweepGrid::smoke(),
        &dir,
        false,
        SweepObjective::Energy,
        &ctx,
    )
    .expect("smoke sweep must run");
    for (path, name) in [
        (&outcome.jsonl_path, "sweep.jsonl"),
        (&outcome.pareto_path, "pareto.json"),
        (&outcome.summary_path, "sweep_summary.json"),
        (&outcome.breakdown_path, "energy_breakdown.json"),
    ] {
        let produced = fs::read_to_string(path).unwrap();
        assert_eq!(
            produced,
            golden("sweep", name),
            "{name} diverged from the pre-refactor golden fixture"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn smoke_matrix_artifacts_match_the_golden_fixture() {
    let cfg = smoke_config();
    let (matrix, _timing, breakdown) =
        experiments::run_matrix(&cfg, &RunContext::default()).expect("smoke matrix");
    assert_eq!(
        to_json(&matrix),
        golden("reproduce", "evaluation_matrix.json"),
        "evaluation_matrix.json diverged from the golden fixture"
    );
    assert_eq!(
        to_json(&experiments::summary(&matrix)),
        golden("reproduce", "summary.json")
    );
    assert_eq!(
        to_json(&breakdown),
        golden("reproduce", "energy_breakdown.json")
    );
}

#[test]
fn static_table_artifacts_match_the_golden_fixture() {
    assert_eq!(
        to_json(&PowerModel::alpha_21264_65nm()),
        golden("reproduce", "table1_power_model.json"),
        "Table I must stay the four-factor paper model (the throttled state \
         is a derived method, not a fifth serialized row)"
    );
    assert_eq!(
        to_json(&experiments::fig3()),
        golden("reproduce", "fig3_cache_power.json")
    );
}

/// Load the committed golden trace fixture
/// (`intruder --record-trace --from intruder:4:test:42`).
fn golden_trace() -> (String, trace::LoadedTrace) {
    let text = golden("trace", "intruder-4p-test-s42.trace");
    let loaded = trace::read_from(text.as_bytes()).expect("the golden trace parses");
    (text, loaded)
}

#[test]
fn golden_trace_fixture_round_trips_byte_identically() {
    let (text, loaded) = golden_trace();
    // The committed file is exactly what the writer emits for its content —
    // pins the on-disk format, not just the parsed value.
    assert_eq!(
        trace::render(&loaded.workload),
        text,
        "re-rendering the golden trace must reproduce the committed bytes"
    );
    // And it is exactly the generator's workload: the recorded provenance
    // (intruder, 4 procs, Test scale, seed 42) still produces these bytes.
    let regenerated =
        clock_gate_on_abort::workloads::by_name("intruder", 4, WorkloadScale::Test, 42).unwrap();
    assert_eq!(loaded.workload, regenerated);
    assert_eq!(loaded.fingerprint, regenerated.fingerprint());
}

#[test]
fn golden_trace_matrix_artifacts_match_the_fixture() {
    // The library-side twin of `reproduce --trace <fixture> --out ...`:
    // same config surgery the binary performs, compared byte for byte.
    let (_, loaded) = golden_trace();
    let tw = TraceWorkload::from_loaded(&loaded);
    let cfg = ExperimentConfig {
        processor_counts: vec![loaded.workload.num_threads()],
        workloads: vec![tw.axis_name.clone()],
        ..ExperimentConfig::default()
    };
    let ctx = RunContext {
        trace: Some(&tw),
        ..RunContext::default()
    };
    let (matrix, _timing, breakdown) =
        experiments::run_matrix(&cfg, &ctx).expect("traced smoke matrix");
    assert_eq!(
        to_json(&matrix),
        golden("trace", "evaluation_matrix.json"),
        "traced evaluation_matrix.json diverged from the golden fixture"
    );
    assert_eq!(
        to_json(&experiments::summary(&matrix)),
        golden("trace", "summary.json")
    );
    assert_eq!(
        to_json(&breakdown),
        golden("trace", "energy_breakdown.json")
    );
}

#[test]
fn golden_trace_sweep_records_match_the_fixture() {
    let (_, loaded) = golden_trace();
    let tw = TraceWorkload::from_loaded(&loaded);
    let grid = SweepGrid::for_trace(&tw.axis_name, loaded.workload.num_threads());
    let dir = std::env::temp_dir().join(format!("clockgate-golden-trace-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let ctx = RunContext {
        trace: Some(&tw),
        ..RunContext::default()
    };
    let outcome =
        run_sweep(&grid, &dir, false, SweepObjective::Energy, &ctx).expect("traced smoke sweep");
    let produced = fs::read_to_string(&outcome.jsonl_path).unwrap();
    assert_eq!(
        produced,
        golden("trace", "sweep.jsonl"),
        "traced sweep.jsonl diverged from the golden fixture"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn smoke_fig7_matches_the_golden_fixture() {
    let cfg = smoke_config();
    let f = experiments::fig7(&cfg, &[1, 2, 4, 8, 16, 32, 64], &RunContext::default())
        .expect("fig7 smoke sweep");
    assert_eq!(to_json(&f), golden("reproduce", "fig7_w0_sensitivity.json"));
}
