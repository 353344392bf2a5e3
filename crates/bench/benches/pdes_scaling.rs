//! Parallel engine scaling — serial fast-forward vs island-parallel.
//!
//! Not a figure from the paper; this tracks the simulation substrate's
//! island-parallel engine against the serial fast-forward baseline on the
//! two workload regimes that distinguish them:
//!
//! * `clustered` decomposes into conflict-isolated islands — the
//!   shard-parallel engine's home turf.
//! * `hotspot` is one contended conflict component — the island engine
//!   falls back to serial fast-forward.
//!
//! Both engines produce byte-identical reports (pinned by the
//! `engine_differential` suite); this bench records what that exactness
//! costs or buys in wall-clock. Two arms per cell: `fast-forward` and
//! `shard-parallel` (islands on the process-wide worker pool). The
//! committed `BENCH_pdes.json` numbers are regenerated via
//! `tools/bench_pdes.sh`, which records the commit, the host's core count
//! and the command.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use clockgate_htm::sim::{EngineKind, GatingMode, SimulationBuilder};
use htm_sim::topology::TopologyConfig;
use htm_workloads::WorkloadScale;

fn total_cycles(workload: &str, procs: usize, engine: EngineKind) -> u64 {
    SimulationBuilder::new()
        .processors(procs)
        .topology(TopologyConfig::sharded_default())
        .workload_by_name(workload, WorkloadScale::Test, 11)
        .unwrap()
        .gating(GatingMode::ClockGate { w0: 8 })
        .cycle_limit(50_000_000)
        .engine(engine)
        .run()
        .unwrap()
        .outcome
        .total_cycles
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("pdes_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    for workload in ["hotspot", "clustered"] {
        for procs in [64usize, 256] {
            for (label, engine) in [
                ("fast-forward", EngineKind::FastForward),
                ("shard-parallel", EngineKind::ShardParallel),
            ] {
                group.bench_function(format!("{workload}_{procs}p_{label}"), |b| {
                    b.iter(|| black_box(total_cycles(workload, procs, engine)));
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
