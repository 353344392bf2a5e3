//! End-to-end sensitivity-sweep tests through the umbrella crate: grid →
//! runner → JSONL/Pareto artifacts, including resume and engine agreement.

use std::fs;
use std::path::{Path, PathBuf};

use clock_gate_on_abort::core::context::RunContext;
use clock_gate_on_abort::core::sim::EngineKind;
use clock_gate_on_abort::core::sweep::{
    self, dominates, pareto_frontiers, pareto_frontiers_with, run_sweep, CellRecord, SweepError,
    SweepGrid, SweepObjective, SweepOutcome,
};

/// A fresh or resumed sweep on `engine`, on the bus, under the energy
/// objective.
fn sweep_on(
    engine: EngineKind,
    grid: &SweepGrid,
    dir: &Path,
    resume: bool,
) -> Result<SweepOutcome, SweepError> {
    let ctx = RunContext {
        engine,
        ..RunContext::default()
    };
    run_sweep(grid, dir, resume, SweepObjective::Energy, &ctx)
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgoa-sweep-e2e-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn smoke_sweep_end_to_end() {
    let grid = SweepGrid::smoke();
    let dir = test_dir("smoke");
    let outcome = sweep_on(EngineKind::FastForward, &grid, &dir, false).unwrap();
    assert_eq!(outcome.records.len(), grid.expand().len());
    assert_eq!(outcome.skipped, 0);

    // Every slice has a non-empty frontier and the frontier is a subset of
    // the slice's cells.
    assert!(!outcome.frontiers.is_empty());
    for f in &outcome.frontiers {
        assert!(
            !f.frontier.is_empty(),
            "{}@{} frontier",
            f.workload,
            f.procs
        );
        assert_eq!(f.frontier.len() + f.dominated.len(), f.cells);
        // No frontier point dominates another frontier point.
        for a in &f.frontier {
            for b in &f.frontier {
                assert!(!dominates(a, b), "{} dominates {}", a.key, b.key);
            }
        }
    }

    // The JSONL artifact parses back into exactly the records the runner
    // reported, in the same order.
    let text = fs::read_to_string(&outcome.jsonl_path).unwrap();
    let parsed: Vec<CellRecord> = text
        .lines()
        .map(|line| CellRecord::from_value(&serde_json::from_str(line).unwrap()).unwrap())
        .collect();
    assert_eq!(parsed, outcome.records);

    // Recomputing the frontiers from the parsed records reproduces the
    // artifact's frontiers.
    assert_eq!(pareto_frontiers(&parsed), outcome.frontiers);

    // A second, resumed invocation executes nothing and leaves every
    // artifact byte-identical.
    let before = fs::read(&outcome.pareto_path).unwrap();
    let resumed = sweep_on(EngineKind::FastForward, &grid, &dir, true).unwrap();
    assert_eq!(resumed.executed, 0);
    assert_eq!(fs::read(&resumed.pareto_path).unwrap(), before);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweep_artifacts_are_engine_independent() {
    let grid = SweepGrid {
        workloads: vec!["yada".into()],
        ..SweepGrid::smoke()
    };
    let dir_fast = test_dir("fast");
    let dir_naive = test_dir("naive");
    sweep_on(EngineKind::FastForward, &grid, &dir_fast, false).unwrap();
    sweep_on(EngineKind::Naive, &grid, &dir_naive, false).unwrap();
    for name in [
        sweep::runner::JSONL_NAME,
        sweep::runner::PARETO_NAME,
        sweep::runner::SUMMARY_NAME,
        sweep::runner::BREAKDOWN_NAME,
    ] {
        assert_eq!(
            fs::read(dir_fast.join(name)).unwrap(),
            fs::read(dir_naive.join(name)).unwrap(),
            "{name} must be byte-identical across engines"
        );
    }
    let _ = fs::remove_dir_all(&dir_fast);
    let _ = fs::remove_dir_all(&dir_naive);
}

/// Acceptance gate: on every smoke cell the per-component ledger totals sum
/// to the legacy `EnergyReport.total_energy` within 1e-9, and the
/// `energy_breakdown.json` artifact is written next to the other sweep
/// artifacts.
#[test]
fn smoke_breakdown_components_sum_to_the_legacy_energy() {
    let grid = SweepGrid::smoke();
    let dir = test_dir("breakdown");
    let outcome = sweep_on(EngineKind::FastForward, &grid, &dir, false).unwrap();
    assert!(outcome.breakdown_path.exists());
    for record in &outcome.records {
        let core_sum: f64 = record.core_component_energies().iter().sum();
        let uncore_sum: f64 = record.uncore_component_energies().iter().sum();
        let tol = 1e-9 * record.total_energy.max(1.0);
        assert!(
            (core_sum - record.total_energy).abs() <= tol,
            "{}: core components sum to {core_sum}, legacy total is {}",
            record.key,
            record.total_energy
        );
        assert!(
            (core_sum + uncore_sum - record.total_energy_with_uncore).abs() <= tol,
            "{}: grand total mismatch",
            record.key
        );
        assert!(
            record.uncore_energy > 0.0,
            "{}: uncore is charged",
            record.key
        );
    }
    let breakdown = fs::read_to_string(&outcome.breakdown_path).unwrap();
    assert!(breakdown.contains("core_pipeline"));
    assert!(breakdown.contains("directory_sram"));
    let _ = fs::remove_dir_all(&dir);
}

/// Acceptance gate: on the `backoff` preset grid the EDP frontier differs
/// from the raw-energy frontier (the contended intruder@8 slice keeps both
/// the ungated and a clock-gated point on the energy frontier, while EDP
/// folds the time axis in and drops the slower point).
#[test]
fn edp_objective_changes_the_frontier_on_the_backoff_preset() {
    let grid = SweepGrid::by_name("backoff").unwrap();
    let dir = test_dir("objective");
    let outcome = run_sweep(
        &grid,
        &dir,
        false,
        SweepObjective::Edp,
        &RunContext::default(),
    )
    .unwrap();
    let energy_frontiers = pareto_frontiers(&outcome.records);
    let edp_frontiers = pareto_frontiers_with(&outcome.records, SweepObjective::Edp);
    assert_eq!(outcome.frontiers, edp_frontiers);
    let keys = |fs: &[sweep::SliceFrontier]| -> Vec<Vec<String>> {
        fs.iter()
            .map(|f| f.frontier.iter().map(|p| p.key.clone()).collect())
            .collect()
    };
    assert_ne!(
        keys(&energy_frontiers),
        keys(&edp_frontiers),
        "the EDP frontier must differ from the raw-energy frontier on this preset"
    );
    // Subset property: EDP-dominance is implied by energy-dominance, so
    // every EDP-frontier point also sits on the energy frontier.
    for (e, d) in energy_frontiers.iter().zip(&edp_frontiers) {
        for p in &d.frontier {
            assert!(
                e.frontier.iter().any(|q| q.key == p.key),
                "{} is on the EDP frontier but not the energy frontier",
                p.key
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A pre-ledger (schema-less) `sweep.jsonl` prefix is rejected on resume
/// with the dedicated schema error, not a field-level parse error and not a
/// silent divergence.
#[test]
fn resume_rejects_pre_ledger_jsonl_through_the_public_api() {
    let grid = SweepGrid {
        workloads: vec!["intruder".into()],
        processor_counts: vec![4],
        ..SweepGrid::smoke()
    };
    let dir = test_dir("oldschema");
    let outcome = sweep_on(EngineKind::FastForward, &grid, &dir, false).unwrap();
    let text = fs::read_to_string(&outcome.jsonl_path).unwrap();
    let stripped: String = text
        .lines()
        .map(|l| format!("{}\n", l.replacen("\"schema\":2,", "", 1)))
        .collect();
    assert_ne!(stripped, text);
    fs::write(&outcome.jsonl_path, stripped).unwrap();
    let err = sweep_on(EngineKind::FastForward, &grid, &dir, true).unwrap_err();
    assert!(
        matches!(
            err,
            sweep::SweepError::SchemaMismatch {
                line: 1,
                found: None,
                ..
            }
        ),
        "{err}"
    );
    assert!(err.to_string().contains("record layout changed"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
