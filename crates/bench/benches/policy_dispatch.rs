//! Hook-dispatch cost of the pluggable-policy framework.
//!
//! The policy refactor moved the simulation front end from a per-mode
//! monomorphized `TccSystem<ClockGateController>` to a single
//! `TccSystem<Box<dyn PolicyHook>>` resolved through the registry. Every
//! hook callback on the 16-processor hot path now goes through a vtable, so
//! this bench runs the *same* gated simulation both ways and compares —
//! guarding the fast-forward wins of the event-driven engine against a
//! dispatch regression. The ungated pair bounds the overhead on the
//! cheapest hook (whose callbacks do nearly nothing, making relative
//! dispatch cost maximal).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use clockgate_htm::gating::contention::GatingAwarePolicy;
use clockgate_htm::gating::controller::{ClockGateController, ControllerConfig};
use clockgate_htm::gating::policy::PolicySpec;
use htm_sim::config::SimConfig;
use htm_tcc::hooks::NoGating;
use htm_tcc::system::{EngineKind, TccSystem};
use htm_workloads::{by_name, WorkloadScale};

const PROCS: usize = 16;

fn workload() -> htm_tcc::txn::WorkloadTrace {
    by_name("intruder", PROCS, WorkloadScale::Test, 7).unwrap()
}

/// The pre-refactor shape: the concrete hook type monomorphizes the system.
fn run_monomorphized(engine: EngineKind) -> u64 {
    let cfg = SimConfig::table2(PROCS);
    let hook = ClockGateController::new(
        cfg.num_dirs,
        cfg.num_procs,
        Box::new(GatingAwarePolicy::new(8)),
        ControllerConfig::from_sim_config(&cfg),
    );
    TccSystem::new(cfg, workload(), hook)
        .unwrap()
        .run_bounded(50_000_000, engine)
        .unwrap()
        .0
        .total_cycles
}

/// The post-refactor shape: the registry hands back a boxed trait object.
fn run_boxed(engine: EngineKind) -> u64 {
    let cfg = SimConfig::table2(PROCS);
    let hook = PolicySpec::ClockGate { w0: 8 }.build(&cfg);
    TccSystem::new(cfg, workload(), hook)
        .unwrap()
        .run_bounded(50_000_000, engine)
        .unwrap()
        .0
        .total_cycles
}

fn run_monomorphized_ungated(engine: EngineKind) -> u64 {
    let cfg = SimConfig::table2(PROCS);
    TccSystem::new(cfg, workload(), NoGating)
        .unwrap()
        .run_bounded(50_000_000, engine)
        .unwrap()
        .0
        .total_cycles
}

fn run_boxed_ungated(engine: EngineKind) -> u64 {
    let cfg = SimConfig::table2(PROCS);
    let hook = PolicySpec::Ungated.build(&cfg);
    TccSystem::new(cfg, workload(), hook)
        .unwrap()
        .run_bounded(50_000_000, engine)
        .unwrap()
        .0
        .total_cycles
}

fn bench(c: &mut Criterion) {
    // Both dispatch shapes must simulate the exact same machine.
    assert_eq!(
        run_monomorphized(EngineKind::FastForward),
        run_boxed(EngineKind::FastForward),
        "dispatch must not change the simulated outcome"
    );
    let mut group = c.benchmark_group("policy_dispatch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    for engine in [EngineKind::FastForward, EngineKind::Naive] {
        group.bench_function(format!("clock_gate_16p_mono_{}", engine.label()), |b| {
            b.iter(|| black_box(run_monomorphized(engine)));
        });
        group.bench_function(format!("clock_gate_16p_boxed_{}", engine.label()), |b| {
            b.iter(|| black_box(run_boxed(engine)));
        });
        group.bench_function(format!("ungated_16p_mono_{}", engine.label()), |b| {
            b.iter(|| black_box(run_monomorphized_ungated(engine)));
        });
        group.bench_function(format!("ungated_16p_boxed_{}", engine.label()), |b| {
            b.iter(|| black_box(run_boxed_ungated(engine)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
