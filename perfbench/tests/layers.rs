//! The traced runner must not change what it measures, and the counts it
//! reports must be exact functions of the inputs.

use clockgate_htm::sweep::SweepCell;
use htm_sim::topology::TopologyConfig;
use perfbench::{builder, report_bytes, run_traced, LayerTotals, Workload};

/// One bus cell of `paper-bus` and one sharded cell of `sharded-256`,
/// shrunk to 16 processors so the test stays fast in a debug build.
fn cells() -> Vec<(SweepCell, TopologyConfig)> {
    let bus = Workload::PaperBus
        .cells(3)
        .into_iter()
        .find(|c| c.procs == 4 && c.workload == "intruder" && c.mode.uses_gating())
        .expect("paper-bus has a gated intruder 4p cell");
    let mut sharded = Workload::Sharded256
        .cells(3)
        .into_iter()
        .find(|c| c.mode.uses_gating())
        .expect("sharded-256 has a gated cell");
    sharded.procs = 16;
    vec![
        (bus, Workload::PaperBus.topology()),
        (sharded, Workload::Sharded256.topology()),
    ]
}

#[test]
fn traced_runs_are_byte_identical_to_plain_runs() {
    for (cell, topology) in cells() {
        let trace = perfbench::Input::of(&cell).generate();
        let plain = builder(&cell, topology, trace.clone()).run().unwrap();
        let mut layers = LayerTotals::default();
        let traced = run_traced(&cell, topology, trace, &mut layers).unwrap();
        assert_eq!(
            report_bytes(&plain),
            report_bytes(&traced),
            "{}",
            cell.key()
        );
        assert_eq!(layers.sim_cycles, plain.outcome.total_cycles);
        assert!(layers.exec_cycles > 0 && layers.hook.abort_calls > 0);
    }
}

#[test]
fn deterministic_counts_repeat_exactly() {
    let counts = || {
        cells()
            .iter()
            .map(|(cell, topology)| {
                let trace = perfbench::Input::of(cell).generate();
                let mut layers = LayerTotals::default();
                run_traced(cell, *topology, trace, &mut layers).unwrap();
                layers.deterministic_counts()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(counts(), counts());
}

#[test]
fn workloads_have_the_documented_shape() {
    let runs: Vec<usize> = Workload::ALL.iter().map(|w| w.cells(1).len()).collect();
    assert_eq!(runs, [144, 12, 130 * perfbench::POLICY_SWEEP_SEEDS as usize]);
    for workload in Workload::ALL {
        assert_eq!(Workload::parse(workload.name()), Some(workload));
        let (a, _) = perfbench::inputs_of(&workload.cells(1));
        let (b, _) = perfbench::inputs_of(&workload.cells(2));
        assert!(
            a.iter().all(|input| !b.contains(input)),
            "{}: seeds 1 and 2 must not share an input",
            workload.name()
        );
    }
}
