//! Trace I/O: the `htmtrace v1` reader and writer on one recorded
//! full-scale intruder-16p trace, reported in bytes per second.
//!
//! The trace is rendered once into memory, so the cells time the parser
//! and the formatter (with the fingerprint the writer's header folds),
//! not the file system. `tools/ab_criterion.sh PARENT CHANGE trace_io/`
//! compares both cells between two commits.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use htm_workloads::{by_name, trace, WorkloadScale};

fn trace_io(c: &mut Criterion) {
    let workload = by_name("intruder", 16, WorkloadScale::Full, 42).unwrap();
    let text = trace::render(&workload).into_bytes();
    let mut group = c.benchmark_group("trace_io");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("read_intruder_full_16p", |b| {
        b.iter(|| trace::read_from(black_box(text.as_slice())).unwrap())
    });
    let mut out = Vec::with_capacity(text.len());
    group.bench_function("write_intruder_full_16p", |b| {
        b.iter(|| {
            out.clear();
            trace::write_to(&mut out, black_box(&workload)).unwrap();
            out.len()
        })
    });
    group.finish();
}

criterion_group!(benches, trace_io);
criterion_main!(benches);
