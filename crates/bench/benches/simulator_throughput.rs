//! Simulator throughput — simulated cycles per wall-clock second.
//!
//! Not a figure from the paper; this measures the substrate itself (the
//! replacement for M5) so that regressions in the cycle loop, the cache
//! model or the directory bookkeeping are caught. Both stepping engines are
//! measured: `fast_forward` is the event-driven engine that leaps over
//! quiescent windows (the default everywhere), `naive` is the
//! one-step-per-cycle reference engine it is differentially tested against —
//! the ratio between the two is the engine speedup recorded in CHANGES.md.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use htm_sim::config::SimConfig;
use htm_tcc::hooks::NoGating;
use htm_tcc::system::{EngineKind, TccSystem};
use htm_workloads::{by_name, WorkloadScale};

fn simulated_cycles(procs: usize, engine: EngineKind) -> u64 {
    let w = by_name("intruder", procs, WorkloadScale::Test, 7).unwrap();
    TccSystem::new(SimConfig::table2(procs), w, NoGating)
        .unwrap()
        .run_bounded(50_000_000, engine)
        .unwrap()
        .0
        .total_cycles
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    for engine in [EngineKind::FastForward, EngineKind::Naive] {
        for procs in [4usize, 16] {
            let cycles = simulated_cycles(procs, engine);
            group.throughput(Throughput::Elements(cycles));
            group.bench_function(
                format!("intruder_test_scale_{procs}p_{}", engine.label()),
                |b| {
                    b.iter(|| black_box(simulated_cycles(procs, engine)));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
