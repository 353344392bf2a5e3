//! Offline in-tree stand-in for the `criterion` crate.
//!
//! Provides the authoring API the workspace's benches use — [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher`], [`Throughput`], [`criterion_group!`] and
//! [`criterion_main!`] — backed by a deliberately simple harness: each
//! benchmark takes ten samples, each one untimed warm-up call and one timed
//! call, and prints their mean and min/max. No statistical analysis, no HTML
//! reports, no `target/criterion` output; the point is that `cargo bench`
//! compiles and produces usable wall-clock numbers in an offline container.

#![warn(missing_docs)]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark, mirroring `criterion::Throughput`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Number of abstract elements processed per iteration.
    Elements(u64),
    /// Number of bytes processed per iteration.
    Bytes(u64),
}

/// Timing loop handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    elapsed: Duration,
}

impl Bencher {
    /// Time one call of `routine`, after one untimed warm-up call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        let start = Instant::now();
        black_box(routine());
        self.elapsed = start.elapsed();
    }
}

/// Benchmark configuration and result sink, mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench` forwards trailing CLI args; the first non-flag
        // argument is a substring filter, like the real harness.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Self {
            sample_size: 10,
            filter,
        }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    fn run_one<F: FnMut(&mut Bencher)>(&self, id: &str, throughput: Option<Throughput>, mut f: F) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size.max(1) {
            let mut b = Bencher {
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            samples.push(b.elapsed.as_secs_f64());
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0f64, f64::max);
        print!(
            "bench: {id:<50} mean {:>12}  [min {}, max {}]",
            fmt_time(mean),
            fmt_time(min),
            fmt_time(max)
        );
        if let Some(tp) = throughput {
            let (count, unit) = match tp {
                Throughput::Elements(n) => (n, "elem"),
                Throughput::Bytes(n) => (n, "B"),
            };
            if mean > 0.0 {
                print!("  {:.3e} {unit}/s", count as f64 / mean);
            }
        }
        println!();
    }
}

/// A group of related benchmarks sharing configuration, mirroring
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Annotate subsequent benchmarks in this group with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmark a function under `group_name/id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into());
        let throughput = self.throughput;
        self.criterion.run_one(&full, throughput, f);
        self
    }

    /// Finish the group (a no-op in the stand-in harness).
    pub fn finish(self) {}
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Define a benchmark group function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define the bench entry point, mirroring `criterion::criterion_main!`.
/// Bench targets using this must set `harness = false`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion {
            sample_size: 2,
            filter: None,
        };
        let mut calls = 0u32;
        let mut g = c.benchmark_group("g");
        g.bench_function("smoke", |b| b.iter(|| calls += 1));
        g.finish();
        // 2 samples x (1 warm-up + 1 timed) = 4 calls.
        assert_eq!(calls, 4);
    }

    #[test]
    fn group_applies_filter() {
        let mut c = Criterion {
            sample_size: 1,
            filter: Some("nomatch".to_string()),
        };
        let mut calls = 0u32;
        let mut g = c.benchmark_group("g");
        g.bench_function("skipped", |b| b.iter(|| calls += 1));
        g.finish();
        assert_eq!(calls, 0);
    }
}
