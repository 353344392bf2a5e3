//! # htm-workloads — STAMP-like synthetic transactional workloads
//!
//! The paper evaluates its proposal with three applications from the STAMP
//! benchmark suite — **genome**, **yada** and **intruder** — running on the
//! M5 full-system simulator. We cannot execute the original C benchmarks on
//! our trace-driven substrate, so this crate generates synthetic
//! transactional traces whose *shape* follows the published STAMP
//! characterization (transaction length, read/write-set size, contention
//! level and the loop structure in which the transactions are executed):
//!
//! | workload | tx length | r/w sets | contention | notes |
//! |----------|-----------|----------|------------|-------|
//! | genome   | moderate  | moderate | low–moderate | hash-set insertions, phases with little sharing |
//! | yada     | long      | large    | moderate–high | mesh refinement; long transactions repeated in loops |
//! | intruder | short     | small    | high       | shared work queue + dictionary |
//!
//! Extension workloads (vacation, kmeans, ssca2, labyrinth, bayes) are
//! included for the "larger suite of applications" the paper's conclusion
//! plans to explore; they follow the same construction. The `clustered`
//! workload targets the 64–1024-processor sharded machines: threads form
//! conflict-isolated eight-thread clusters, each confined to its own 32 KiB
//! address window, so on the sharded fabric their traffic arbitrates for
//! disjoint banks (see [`clustered`] and `docs/SCALING.md`). The
//! [`adversarial`] module adds four worst-case microbenchmarks (hotspot,
//! zipfian, ring, longshort) that stress contention management directly.
//!
//! Beyond the generators, [`trace`] gives the workload interface a file
//! format: any workload can be recorded to a compact line-oriented
//! `htmtrace v1` file and read back — byte-exactly — through a streaming,
//! bounded-memory reader, so the simulator can also be driven by traces
//! captured outside this repo.
//!
//! All generators are deterministic: the same parameters and seed produce an
//! identical [`htm_tcc::WorkloadTrace`] on every platform, which the
//! experiment harness relies on for reproducibility.
//!
//! ```
//! use htm_workloads::{by_name, workload_names, WorkloadScale};
//!
//! let trace = by_name("intruder", 4, WorkloadScale::Test, 42).unwrap();
//! assert_eq!(trace.num_threads(), 4);
//! assert!(trace.total_transactions() > 0);
//! // Same name + parameters + seed => identical trace.
//! assert_eq!(trace, by_name("intruder", 4, WorkloadScale::Test, 42).unwrap());
//! assert_eq!(workload_names().len(), 13);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversarial;
pub mod clustered;
pub mod extensions;
pub mod genome;
pub mod intruder;
pub mod layout;
pub mod registry;
pub mod spec;
pub mod trace;
pub mod yada;

pub use layout::AddressLayout;
pub use registry::{by_name, stamp_trio, workload_names, CORPUS_WORKLOADS};
pub use spec::{SyntheticSpec, WorkloadScale};
pub use trace::{LoadedTrace, TraceError, TraceSummary};
