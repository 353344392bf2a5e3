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
//! dispatch cost maximal). The `hook_wake_commit_1024dirs` cell times the
//! controller's own abort → wake → commit hooks on a 1024-directory machine,
//! where a wake or commit that walks every directory's table instead of the
//! victim's logged entries costs a thousand cache misses.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use clockgate_htm::gating::contention::GatingAwarePolicy;
use clockgate_htm::gating::controller::{ClockGateController, ControllerConfig};
use clockgate_htm::gating::policy::PolicySpec;
use htm_sim::config::SimConfig;
use htm_tcc::hooks::{GatingHook, NoGating, SystemView};
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

/// Directories of the hook cell: one per processor of a 1024p machine.
const HOOK_DIRS: usize = 1024;
/// Victims the hook cell rotates through (kept small so the tables stay a
/// few MiB).
const HOOK_PROCS: usize = 64;

/// One gating episode per call: a directory logs an abort of a victim,
/// the victim wakes, retries and commits. Successive calls rotate the
/// directory and the victim.
fn hook_episode(hook: &mut ClockGateController, view: &SystemView, step: usize) {
    let (dir, victim) = ((step * 37) % HOOK_DIRS, step % HOOK_PROCS);
    let aborter = (victim + 1) % HOOK_PROCS;
    let now = step as u64 * 100;
    hook.on_abort(dir, victim, aborter, 0x400, now, view);
    hook.on_wake(victim, now + 50);
    hook.on_commit(victim, now + 90);
}

fn bench(c: &mut Criterion) {
    // Both dispatch shapes must simulate the exact same machine.
    assert_eq!(
        run_monomorphized(EngineKind::FastForward),
        run_boxed(EngineKind::FastForward),
        "dispatch must not change the simulated outcome"
    );
    let mut group = c.benchmark_group("policy_dispatch");
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
    let mut hook = ClockGateController::new(
        HOOK_DIRS,
        HOOK_PROCS,
        Box::new(GatingAwarePolicy::new(8)),
        ControllerConfig::from_sim_config(&SimConfig::table2(PROCS)),
    );
    let view = SystemView::new(HOOK_PROCS, HOOK_DIRS);
    let mut step = 0;
    group.bench_function("hook_wake_commit_1024dirs", |b| {
        b.iter(|| {
            hook_episode(&mut hook, &view, step);
            step += 1;
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
