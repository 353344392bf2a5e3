//! Divergence-hunting fuzz harness for the stepping engines.
//!
//! The simulator's core robustness claim is the exactness invariant: the
//! event-driven fast-forward engine must reproduce the one-step-per-cycle
//! naive reference engine *byte for byte* in every report field, for every
//! machine configuration and every workload trace. The
//! `engine_differential` suite pins that claim on fixed grids and
//! proptest-generated traces; this module hunts for violations adversarially
//! and, when it finds one, boils it down to the smallest reproducing case:
//!
//! 1. [`random_case`] samples a configuration point (processor count ×
//!    topology × contention policy × L1 geometry) together with a small
//!    conflict-heavy transaction trace — usually drawn from the same raw
//!    shape the proptest differential suite generates, but about a quarter
//!    of the cases instead seed their threads from a truncated
//!    [`htm_workloads::CORPUS_WORKLOADS`] scenario (the STAMP-style kernels
//!    and adversarial microbenchmarks), so realistic hotspot/zipfian/ring
//!    access patterns reach the engine diff too; [`mutate_case`] perturbs an
//!    existing case the way a coverage-guided fuzzer would.
//! 2. [`run_case`] runs the case on both engines and diffs the full
//!    serialized [`SimReport`]s **field-wise**
//!    (flattened JSON paths, so a single drifting counter is named
//!    precisely).
//! 3. [`shrink_case`] greedily minimizes a diverging case — dropping
//!    threads, transactions and operations, zeroing compute — while the
//!    divergence persists (the vendored proptest compat crate does not
//!    shrink, so the harness brings its own delta-debugger).
//! 4. [`render_case`] / [`parse_case`] give every case a stable textual
//!    `.case` form, so found divergences are committed and replayed as
//!    regression tests.
//!
//! The harness proves it can catch real bugs via
//! [`SimulationBuilder::debug_perturb_fast_accounting`]: a deliberately
//! planted fast-engine accounting bug that the fuzz loop must detect and
//! shrink (see the `--inject-bug` flag of the `divergence` binary and the
//! `divergence_cases` integration test).

use std::collections::BTreeMap;

use clockgate_htm::report::to_json;
use clockgate_htm::sim::{EngineKind, GatingMode, SimReport, SimulationBuilder};
use htm_sim::rng::DeterministicRng;
use htm_sim::topology::TopologyConfig;
use htm_tcc::system::SimError;
use htm_tcc::txn::{Op, ThreadTrace, Transaction, WorkloadTrace};
use serde_json::Value;

/// Cycle bound for fuzz runs; the generated traces are tiny, so hitting the
/// bound means the case deadlocked the protocol — itself a reportable bug.
const CASE_CYCLE_LIMIT: u64 = 50_000_000;

/// Address pool the generator draws from. Kept deliberately small (two
/// lines per 4 KiB directory segment across four segments) so conflicts,
/// aborts, gating and renewals are common — the interesting engine paths.
const ADDR_POOL: [u64; 8] = [0, 64, 128, 192, 4096, 4160, 8192, 12288];

/// Configuration-point palettes the fuzzer samples from. Every entry is a
/// valid machine, so a generated or mutated case can never fail to build.
const TOPOLOGIES: [&str; 4] = ["bus", "sharded", "sharded:2", "sharded:0:mesh"];
const L1_GEOMETRIES: [(usize, usize); 3] = [(64, 2), (16, 2), (4, 1)];

/// Every contention-policy family of the registry, with the parameters the
/// differential suite uses.
#[must_use]
pub fn policy_palette() -> [GatingMode; 10] {
    [
        GatingMode::Ungated,
        GatingMode::ExponentialBackoff { base: 16, cap: 8 },
        GatingMode::ClockGate { w0: 8 },
        GatingMode::ClockGateFixedWindow { window: 64 },
        GatingMode::ClockGateNoRenew { w0: 8 },
        GatingMode::ClockGateLinear { w0: 8 },
        GatingMode::AdaptiveW0 { w0: 8 },
        GatingMode::Hybrid {
            gate_limit: 2,
            w0: 8,
            base: 16,
            cap: 8,
        },
        GatingMode::Throttle { w0: 8 },
        GatingMode::Oracle,
    ]
}

/// One transaction of a fuzz case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseTx {
    /// Static transaction id (the simulated PC of the atomic block).
    pub tx_id: u64,
    /// Non-transactional compute cycles before the transaction starts.
    pub pre: u64,
    /// The transaction body.
    pub ops: Vec<Op>,
}

/// A complete, self-contained divergence case: one machine configuration
/// point plus an explicit per-thread transaction trace. The processor count
/// is the number of threads.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Interconnect topology, in [`TopologyConfig::parse`] syntax.
    pub topology: String,
    /// Contention policy under test.
    pub policy: GatingMode,
    /// L1 data-cache capacity in KiB.
    pub l1_kb: usize,
    /// L1 data-cache associativity.
    pub l1_assoc: usize,
    /// Explicit transaction trace, one entry per thread/processor.
    pub threads: Vec<Vec<CaseTx>>,
}

impl CaseSpec {
    /// Number of simulated processors (one per thread).
    #[must_use]
    pub fn procs(&self) -> usize {
        self.threads.len()
    }

    /// Total number of operations across every transaction (the size the
    /// shrinker minimizes).
    #[must_use]
    pub fn total_ops(&self) -> usize {
        self.threads
            .iter()
            .flat_map(|txs| txs.iter())
            .map(|tx| tx.ops.len())
            .sum()
    }

    /// Materialize the case's trace as a runnable workload.
    #[must_use]
    pub fn workload(&self) -> WorkloadTrace {
        let threads = self
            .threads
            .iter()
            .map(|txs| {
                ThreadTrace::new(
                    txs.iter()
                        .map(|tx| Transaction::with_pre_compute(tx.tx_id, tx.pre, tx.ops.clone()))
                        .collect(),
                )
            })
            .collect();
        WorkloadTrace::new("divergence-case", threads)
    }
}

// ---------------------------------------------------------------------------
// Textual `.case` format
// ---------------------------------------------------------------------------

/// Render a case in the textual `.case` format parsed by [`parse_case`].
///
/// The format is line-oriented and stable: a header naming the machine
/// configuration point, then one `thread` marker per thread followed by its
/// `tx` lines. `#` starts a comment.
#[must_use]
pub fn render_case(case: &CaseSpec) -> String {
    let mut out = String::new();
    out.push_str("# htm divergence case v1\n");
    out.push_str(&format!("topology {}\n", case.topology));
    out.push_str(&format!("policy {}\n", case.policy.slug()));
    out.push_str(&format!("l1 {} {}\n", case.l1_kb, case.l1_assoc));
    for txs in &case.threads {
        out.push_str("thread\n");
        for tx in txs {
            out.push_str(&format!("tx id={:#x} pre={}", tx.tx_id, tx.pre));
            for op in &tx.ops {
                match op {
                    Op::Read(a) => out.push_str(&format!(" r{a}")),
                    Op::Write(a) => out.push_str(&format!(" w{a}")),
                    Op::Compute(c) => out.push_str(&format!(" c{c}")),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Parse a policy slug as produced by [`GatingMode::slug`].
fn parse_policy(slug: &str) -> Option<GatingMode> {
    fn num(s: &str, prefix: &str) -> Option<u64> {
        s.strip_prefix(prefix)?.parse().ok()
    }
    if slug == "ungated" {
        return Some(GatingMode::Ungated);
    }
    if slug == "oracle" {
        return Some(GatingMode::Oracle);
    }
    if let Some(rest) = slug.strip_prefix("backoff-") {
        let (b, c) = rest.split_once('-')?;
        return Some(GatingMode::ExponentialBackoff {
            base: num(b, "b")?,
            cap: num(c, "c")? as u32,
        });
    }
    if let Some(rest) = slug.strip_prefix("hyb-") {
        let mut parts = rest.split('-');
        return Some(GatingMode::Hybrid {
            gate_limit: num(parts.next()?, "g")? as u32,
            w0: num(parts.next()?, "w")?,
            base: num(parts.next()?, "b")?,
            cap: num(parts.next()?, "c")? as u32,
        });
    }
    if let Some(rest) = slug.strip_prefix("cgfix-") {
        return Some(GatingMode::ClockGateFixedWindow {
            window: rest.parse().ok()?,
        });
    }
    for (prefix, make) in [
        (
            "cg-w",
            (|w0| GatingMode::ClockGate { w0 }) as fn(u64) -> GatingMode,
        ),
        ("cgnr-w", |w0| GatingMode::ClockGateNoRenew { w0 }),
        ("cglin-w", |w0| GatingMode::ClockGateLinear { w0 }),
        ("cgad-w", |w0| GatingMode::AdaptiveW0 { w0 }),
        ("thr-w", |w0| GatingMode::Throttle { w0 }),
    ] {
        if let Some(rest) = slug.strip_prefix(prefix) {
            return Some(make(rest.parse().ok()?));
        }
    }
    None
}

/// Parse the textual `.case` format produced by [`render_case`].
///
/// # Errors
/// Returns a message naming the offending line on any syntax error.
pub fn parse_case(text: &str) -> Result<CaseSpec, String> {
    let mut topology: Option<String> = None;
    let mut policy: Option<GatingMode> = None;
    let mut l1: Option<(usize, usize)> = None;
    let mut threads: Vec<Vec<CaseTx>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let mut words = line.split_whitespace();
        match words.next() {
            Some("topology") => {
                let t = words
                    .next()
                    .ok_or(format!("line {lineno}: topology needs a value"))?;
                TopologyConfig::parse(t).ok_or(format!("line {lineno}: unknown topology `{t}`"))?;
                topology = Some(t.to_string());
            }
            Some("policy") => {
                let p = words
                    .next()
                    .ok_or(format!("line {lineno}: policy needs a slug"))?;
                policy =
                    Some(parse_policy(p).ok_or(format!("line {lineno}: unknown policy `{p}`"))?);
            }
            Some("l1") => {
                let kb = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or(format!("line {lineno}: l1 needs `l1 KB ASSOC`"))?;
                let assoc = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or(format!("line {lineno}: l1 needs `l1 KB ASSOC`"))?;
                l1 = Some((kb, assoc));
            }
            Some("thread") => threads.push(Vec::new()),
            Some("tx") => {
                let thread = threads
                    .last_mut()
                    .ok_or(format!("line {lineno}: `tx` before any `thread`"))?;
                let mut tx_id: Option<u64> = None;
                let mut pre = 0u64;
                let mut ops = Vec::new();
                for word in words {
                    if let Some(id) = word.strip_prefix("id=") {
                        let parsed = if let Some(hex) = id.strip_prefix("0x") {
                            u64::from_str_radix(hex, 16)
                        } else {
                            id.parse()
                        };
                        tx_id =
                            Some(parsed.map_err(|_| format!("line {lineno}: bad tx id `{id}`"))?);
                    } else if let Some(p) = word.strip_prefix("pre=") {
                        pre = p
                            .parse()
                            .map_err(|_| format!("line {lineno}: bad pre `{p}`"))?;
                    } else {
                        let (kind, rest) = word.split_at(1);
                        let n: u64 = rest
                            .parse()
                            .map_err(|_| format!("line {lineno}: bad op `{word}`"))?;
                        ops.push(match kind {
                            "r" => Op::Read(n),
                            "w" => Op::Write(n),
                            "c" => Op::Compute(n),
                            _ => return Err(format!("line {lineno}: bad op `{word}`")),
                        });
                    }
                }
                thread.push(CaseTx {
                    tx_id: tx_id.ok_or(format!("line {lineno}: tx needs id=..."))?,
                    pre,
                    ops,
                });
            }
            Some(other) => return Err(format!("line {lineno}: unknown directive `{other}`")),
            None => unreachable!("blank lines were skipped"),
        }
    }
    Ok(CaseSpec {
        topology: topology.ok_or("missing `topology` line".to_string())?,
        policy: policy.ok_or("missing `policy` line".to_string())?,
        l1_kb: l1.ok_or("missing `l1` line".to_string())?.0,
        l1_assoc: l1.unwrap().1,
        threads,
    })
}

// ---------------------------------------------------------------------------
// Case generation and mutation
// ---------------------------------------------------------------------------

fn random_tx(rng: &mut DeterministicRng, thread: u64, idx: u64) -> CaseTx {
    let tx_id = (thread << 16) | idx | 0x1000;
    let pre = rng.gen_range(11);
    let ops = (0..1 + rng.gen_range(5))
        .map(|_| match rng.gen_range(3) {
            0 => Op::Read(ADDR_POOL[rng.gen_index(ADDR_POOL.len())]),
            1 => Op::Write(ADDR_POOL[rng.gen_index(ADDR_POOL.len())]),
            _ => Op::Compute(1 + rng.gen_range(59)),
        })
        .collect();
    CaseTx { tx_id, pre, ops }
}

/// Seed case threads from a registered corpus scenario: generate the named
/// workload at `Test` scale and truncate it (first transactions of each
/// thread, first ops of each transaction) so the case stays small enough to
/// run on both engines and shrink quickly, while keeping the scenario's
/// characteristic access pattern (hot counters, zipfian pools, ring slots).
fn scenario_threads(rng: &mut DeterministicRng, name: &str) -> Vec<Vec<CaseTx>> {
    let procs = 2 + rng.gen_index(3);
    let seed = rng.gen_range(64);
    let workload = htm_workloads::by_name(name, procs, htm_workloads::WorkloadScale::Test, seed)
        .expect("corpus workload names are registered");
    workload
        .threads
        .iter()
        .map(|t| {
            t.transactions
                .iter()
                .take(3)
                .map(|tx| CaseTx {
                    tx_id: tx.tx_id,
                    pre: tx.pre_compute.min(10),
                    ops: tx.ops.iter().take(8).cloned().collect(),
                })
                .collect()
        })
        .collect()
}

/// Sample a random case: a configuration point from the palettes and a
/// small conflict-heavy trace — either 2–4 threads of 1–4 random
/// transactions (1–5 ops each over a small shared address pool so conflicts
/// are likely), or, for about one case in four, a truncated
/// [`htm_workloads::CORPUS_WORKLOADS`] scenario.
#[must_use]
pub fn random_case(rng: &mut DeterministicRng) -> CaseSpec {
    let threads = if rng.gen_range(4) == 0 {
        let name =
            htm_workloads::CORPUS_WORKLOADS[rng.gen_index(htm_workloads::CORPUS_WORKLOADS.len())];
        scenario_threads(rng, name)
    } else {
        (0..2 + rng.gen_range(3))
            .map(|t| {
                (0..1 + rng.gen_range(4))
                    .map(|x| random_tx(rng, t, x))
                    .collect()
            })
            .collect()
    };
    CaseSpec {
        topology: TOPOLOGIES[rng.gen_index(TOPOLOGIES.len())].to_string(),
        policy: policy_palette()[rng.gen_index(10)],
        l1_kb: L1_GEOMETRIES[rng.gen_index(3)].0,
        l1_assoc: L1_GEOMETRIES[rng.gen_index(3)].1,
        threads,
    }
}

/// Mutate an existing case: one random structural or configuration-point
/// change (flip an op, re-aim an address, perturb compute, append an op or
/// transaction, or move to a neighboring machine configuration). Palettes
/// keep every mutant valid.
#[must_use]
pub fn mutate_case(rng: &mut DeterministicRng, case: &CaseSpec) -> CaseSpec {
    let mut next = case.clone();
    match rng.gen_range(6) {
        0 => next.topology = TOPOLOGIES[rng.gen_index(TOPOLOGIES.len())].to_string(),
        1 => next.policy = policy_palette()[rng.gen_index(10)],
        2 => {
            let (kb, assoc) = L1_GEOMETRIES[rng.gen_index(3)];
            next.l1_kb = kb;
            next.l1_assoc = assoc;
        }
        3 => {
            // Flip one op in place.
            let t = rng.gen_index(next.threads.len());
            if let Some(tx) = next.threads[t].first_mut() {
                if !tx.ops.is_empty() {
                    let k = rng.gen_index(tx.ops.len());
                    tx.ops[k] = match rng.gen_range(3) {
                        0 => Op::Read(ADDR_POOL[rng.gen_index(ADDR_POOL.len())]),
                        1 => Op::Write(ADDR_POOL[rng.gen_index(ADDR_POOL.len())]),
                        _ => Op::Compute(1 + rng.gen_range(59)),
                    };
                }
            }
        }
        4 => {
            // Append a transaction to a random thread.
            let t = rng.gen_index(next.threads.len());
            let idx = next.threads[t].len() as u64;
            let tx = random_tx(rng, t as u64, idx);
            next.threads[t].push(tx);
        }
        _ => {
            // Append an op to a random transaction.
            let t = rng.gen_index(next.threads.len());
            if let Some(tx) = next.threads[t].last_mut() {
                tx.ops.push(match rng.gen_range(3) {
                    0 => Op::Read(ADDR_POOL[rng.gen_index(ADDR_POOL.len())]),
                    1 => Op::Write(ADDR_POOL[rng.gen_index(ADDR_POOL.len())]),
                    _ => Op::Compute(1 + rng.gen_range(59)),
                });
            }
        }
    }
    next
}

// ---------------------------------------------------------------------------
// Running and field-wise diffing
// ---------------------------------------------------------------------------

/// One field that differs between two engines' reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDiff {
    /// Flattened JSON path of the field (e.g. `outcome.per_proc[2].aborts`).
    pub path: String,
    /// The field's value in the reference (naive) engine's report.
    pub reference: String,
    /// The field's value in the diverging engine's report.
    pub diverging: String,
}

/// A detected engine divergence on one case: exactly which fields of the
/// fast-forward report differ from the naive reference's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The differing fields, in path order.
    pub fields: Vec<FieldDiff>,
}

fn run_engine(
    case: &CaseSpec,
    engine: EngineKind,
    inject_bug: bool,
) -> Result<SimReport, SimError> {
    let topology = TopologyConfig::parse(&case.topology)
        .ok_or_else(|| SimError::BadConfig(format!("unknown topology `{}`", case.topology)))?;
    let mut builder = SimulationBuilder::new()
        .processors(case.procs())
        .l1_geometry(case.l1_kb, case.l1_assoc)
        .topology(topology)
        .workload(case.workload())
        .gating(case.policy)
        .cycle_limit(CASE_CYCLE_LIMIT)
        .engine(engine);
    // The planted bug lives in the batched (fast-forward) accounting path,
    // which the naive engine never takes; perturbing only the fast engine
    // keeps the reference an honest witness.
    if inject_bug && engine == EngineKind::FastForward {
        builder = builder.debug_perturb_fast_accounting();
    }
    builder.run()
}

/// Run a case on both engines and field-wise diff the fast-forward report
/// against the naive reference. `None` means the exactness invariant held.
///
/// # Errors
/// Propagates simulation errors (bad configuration, cycle-limit overrun).
pub fn run_case(case: &CaseSpec, inject_bug: bool) -> Result<Option<Divergence>, SimError> {
    let reference = to_json(&run_engine(case, EngineKind::Naive, inject_bug)?);
    let candidate = to_json(&run_engine(case, EngineKind::FastForward, inject_bug)?);
    let fields = diff_reports(&reference, &candidate);
    Ok((!fields.is_empty()).then_some(Divergence { fields }))
}

/// Field-wise diff of two serialized reports: both JSON documents are
/// flattened to `path → atom` maps and compared key by key, so the result
/// names every drifting counter precisely (a field missing on one side
/// shows as `<absent>`).
#[must_use]
pub fn diff_reports(reference: &str, candidate: &str) -> Vec<FieldDiff> {
    let (a, b) = (flatten_json(reference), flatten_json(candidate));
    let mut paths: Vec<&String> = a.keys().chain(b.keys()).collect();
    paths.sort();
    paths.dedup();
    let absent = "<absent>".to_string();
    paths
        .into_iter()
        .filter_map(|path| {
            let left = a.get(path).unwrap_or(&absent);
            let right = b.get(path).unwrap_or(&absent);
            (left != right).then(|| FieldDiff {
                path: path.clone(),
                reference: left.clone(),
                diverging: right.clone(),
            })
        })
        .collect()
}

/// Flatten a JSON document to `dotted.path[index] → atom` pairs, each atom
/// rendered back to JSON text so that `-0.0` and `0.0` stay distinct. A
/// document that does not parse yields a `<parse-error>` entry, so a
/// corrupted report can never masquerade as "no differences".
fn flatten_json(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    match serde_json::from_str(text) {
        Ok(value) => flatten_value(&value, String::new(), &mut out),
        Err(err) => {
            out.insert("<parse-error>".to_string(), err.to_string());
        }
    }
    out
}

fn flatten_value(value: &Value, path: String, out: &mut BTreeMap<String, String>) {
    match value {
        Value::Map(entries) if !entries.is_empty() => {
            for (key, child) in entries {
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten_value(child, child_path, out);
            }
        }
        Value::Seq(items) if !items.is_empty() => {
            for (index, item) in items.iter().enumerate() {
                flatten_value(item, format!("{path}[{index}]"), out);
            }
        }
        // An atom, or an empty object or array.
        _ => {
            let atom = serde_json::to_string(value).expect("the encoder is total over Value");
            out.insert(path, atom);
        }
    }
}

// ---------------------------------------------------------------------------
// Greedy shrinking
// ---------------------------------------------------------------------------

/// Greedily minimize a diverging case: repeatedly try removing a thread, a
/// transaction or a single operation, and zeroing pre-compute, keeping any
/// reduction under which `diverges` still returns `true`, until no single
/// reduction does (1-minimality at operation granularity). The vendored
/// proptest compat crate cannot shrink, so the harness owns this.
pub fn shrink_case<F: FnMut(&CaseSpec) -> bool>(case: &CaseSpec, mut diverges: F) -> CaseSpec {
    let mut best = case.clone();
    loop {
        let mut reduced = false;
        for candidate in reductions(&best) {
            if diverges(&candidate) {
                best = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return best;
        }
    }
}

/// Every case one single reduction step smaller than `case`, most
/// aggressive first (whole threads, then transactions, then ops, then
/// scalar simplifications).
fn reductions(case: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    // Drop a whole thread (the machine needs at least two processors to
    // have an interconnect worth simulating).
    if case.threads.len() > 2 {
        for t in 0..case.threads.len() {
            let mut c = case.clone();
            c.threads.remove(t);
            out.push(c);
        }
    }
    // Drop one transaction.
    for t in 0..case.threads.len() {
        for x in 0..case.threads[t].len() {
            let mut c = case.clone();
            c.threads[t].remove(x);
            out.push(c);
        }
    }
    // Drop one op.
    for t in 0..case.threads.len() {
        for x in 0..case.threads[t].len() {
            for k in 0..case.threads[t][x].ops.len() {
                let mut c = case.clone();
                c.threads[t][x].ops.remove(k);
                out.push(c);
            }
        }
    }
    // Zero a pre-compute; shrink a compute op to 1.
    for t in 0..case.threads.len() {
        for x in 0..case.threads[t].len() {
            if case.threads[t][x].pre > 0 {
                let mut c = case.clone();
                c.threads[t][x].pre = 0;
                out.push(c);
            }
            for k in 0..case.threads[t][x].ops.len() {
                if let Op::Compute(n) = case.threads[t][x].ops[k] {
                    if n > 1 {
                        let mut c = case.clone();
                        c.threads[t][x].ops[k] = Op::Compute(1);
                        out.push(c);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A case guaranteed to trip the planted bug: a long Executing span
    /// (compute ≥ 4 cycles inside a transaction) that the fast engine
    /// settles in one batched flush.
    fn bug_trigger_case() -> CaseSpec {
        CaseSpec {
            topology: "bus".to_string(),
            policy: GatingMode::Ungated,
            l1_kb: 64,
            l1_assoc: 2,
            threads: vec![
                vec![CaseTx {
                    tx_id: 0x1000,
                    pre: 0,
                    ops: vec![Op::Read(0), Op::Compute(40), Op::Write(64)],
                }],
                vec![CaseTx {
                    tx_id: 0x11000,
                    pre: 3,
                    ops: vec![Op::Write(0), Op::Compute(12)],
                }],
            ],
        }
    }

    #[test]
    fn healthy_engines_never_diverge_on_random_cases() {
        let mut rng = DeterministicRng::new(7);
        for i in 0..6 {
            let case = random_case(&mut rng);
            let divergence = run_case(&case, false).expect("palette cases always run");
            assert!(
                divergence.is_none(),
                "case {i} diverged without an injected bug:\n{}\n{divergence:?}",
                render_case(&case)
            );
        }
    }

    #[test]
    fn injected_bug_is_caught_named_and_shrunk() {
        let case = bug_trigger_case();
        let fast = run_case(&case, true)
            .expect("the trigger case runs")
            .expect("the planted fast-accounting bug must be detected");
        assert!(
            fast.fields.iter().any(|f| f.path.contains("attempt_cycles")
                || f.path.contains("energy")
                || f.path.contains("cycles")),
            "the diff must name the drifting accounting fields: {:?}",
            fast.fields
        );
        // Shrinking keeps the divergence and never grows the case.
        let shrunk = shrink_case(&case, |c| matches!(run_case(c, true), Ok(Some(_))));
        assert!(shrunk.total_ops() <= case.total_ops());
        assert!(run_case(&shrunk, true).unwrap().is_some());
        // 1-minimality: no single further reduction still diverges.
        for candidate in super::reductions(&shrunk) {
            assert!(
                !matches!(run_case(&candidate, true), Ok(Some(_))),
                "shrunk case is not minimal"
            );
        }
    }

    #[test]
    fn every_corpus_scenario_seeds_a_runnable_engine_exact_case() {
        let mut rng = DeterministicRng::new(11);
        for name in htm_workloads::CORPUS_WORKLOADS {
            let case = CaseSpec {
                topology: "bus".to_string(),
                policy: GatingMode::ClockGate { w0: 8 },
                l1_kb: 64,
                l1_assoc: 2,
                threads: scenario_threads(&mut rng, name),
            };
            assert!(
                case.procs() >= 2,
                "{name}: scenario cases keep >= 2 threads"
            );
            parse_case(&render_case(&case)).expect("scenario cases stay well-formed");
            let divergence = run_case(&case, false).expect("scenario cases always run");
            assert!(
                divergence.is_none(),
                "scenario `{name}` diverged without an injected bug:\n{}\n{divergence:?}",
                render_case(&case)
            );
        }
    }

    #[test]
    fn diff_reports_names_exact_paths() {
        let a = r#"{"outcome": {"cycles": 10, "per": [1, 2]}, "ok": true}"#;
        let b = r#"{"outcome": {"cycles": 11, "per": [1, 3]}, "ok": true}"#;
        let diffs = diff_reports(a, b);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, ["outcome.cycles", "outcome.per[1]"]);
        assert_eq!(diffs[0].reference, "10");
        assert_eq!(diffs[0].diverging, "11");
    }

    #[test]
    fn diff_reports_compare_rendered_atoms_and_empty_containers() {
        // `-0.0 == 0.0` as f64, yet the two reports differ.
        let diffs = diff_reports(r#"{"x": 0.0}"#, r#"{"x": -0.0}"#);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "x");
        assert_eq!(
            (diffs[0].reference.as_str(), diffs[0].diverging.as_str()),
            ("0.0", "-0.0")
        );
        let escaped = r#"{"s": "a\"b\\n"}"#;
        assert!(diff_reports(escaped, escaped).is_empty());
        for (empty, full, expected) in [
            (r#"{"o": {}}"#, r#"{"o": {"k": 1}}"#, ["o", "o.k"]),
            (r#"{"v": []}"#, r#"{"v": [1]}"#, ["v", "v[0]"]),
        ] {
            let diffs = diff_reports(empty, full);
            let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
            assert_eq!(paths, expected);
            assert_eq!(diffs[0].diverging, "<absent>");
        }
    }

    #[test]
    fn diff_reports_marks_missing_fields_as_absent() {
        let diffs = diff_reports(r#"{"a": 1, "b": 2}"#, r#"{"a": 1}"#);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "b");
        assert_eq!(diffs[0].diverging, "<absent>");
    }

    #[test]
    fn corrupt_json_is_a_parse_error_not_a_clean_diff() {
        let diffs = diff_reports(r#"{"a": 1}"#, r#"{"a": 1"#);
        assert!(diffs.iter().any(|d| d.path == "<parse-error>"));
    }

    #[test]
    fn case_text_round_trips() {
        let mut rng = DeterministicRng::new(99);
        for _ in 0..50 {
            let case = random_case(&mut rng);
            let text = render_case(&case);
            let parsed = parse_case(&text).expect("rendered cases parse");
            assert_eq!(parsed, case, "case text round trip:\n{text}");
        }
    }

    #[test]
    fn every_palette_policy_slug_round_trips() {
        for policy in policy_palette() {
            let slug = policy.slug();
            assert_eq!(
                parse_policy(&slug),
                Some(policy),
                "slug `{slug}` must parse back"
            );
        }
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = parse_case("topology bus\npolicy cg-w8\nl1 64 2\nbogus x\n").unwrap_err();
        assert!(err.contains("line 4"), "{err}");
        let err = parse_case("tx id=0x1 pre=0 r0\n").unwrap_err();
        assert!(err.contains("before any `thread`"), "{err}");
        let err = parse_case("topology warp-drive\n").unwrap_err();
        assert!(err.contains("unknown topology"), "{err}");
    }

    #[test]
    fn mutants_stay_valid_and_runnable() {
        let mut rng = DeterministicRng::new(3);
        let mut case = random_case(&mut rng);
        for _ in 0..12 {
            case = mutate_case(&mut rng, &case);
            parse_case(&render_case(&case)).expect("mutants stay well-formed");
        }
        // One full run of the last mutant proves the palettes keep every
        // mutant buildable.
        run_case(&case, false).expect("mutants must run");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Proptest-generated raw traces flow through the same `.case`
        /// pipeline: build → render → parse is the identity.
        #[test]
        fn proptest_traces_round_trip_through_case_text(
            threads in prop::collection::vec(
                prop::collection::vec(
                    prop::collection::vec((0u8..3, 0usize..8, 1u64..60), 1..5),
                    1..4,
                ),
                2..5,
            ),
            policy_idx in 0usize..10,
            topo_idx in 0usize..4,
        ) {
            let case = CaseSpec {
                topology: TOPOLOGIES[topo_idx].to_string(),
                policy: policy_palette()[policy_idx],
                l1_kb: 64,
                l1_assoc: 2,
                threads: threads
                    .iter()
                    .enumerate()
                    .map(|(t, txs)| {
                        txs.iter()
                            .enumerate()
                            .map(|(x, ops)| CaseTx {
                                tx_id: ((t as u64) << 16) | (x as u64) | 0x1000,
                                pre: (x as u64 % 3) * 7,
                                ops: ops
                                    .iter()
                                    .map(|&(kind, addr, cycles)| match kind {
                                        0 => Op::Read(ADDR_POOL[addr]),
                                        1 => Op::Write(ADDR_POOL[addr]),
                                        _ => Op::Compute(cycles),
                                    })
                                    .collect(),
                            })
                            .collect()
                    })
                    .collect(),
            };
            let parsed = parse_case(&render_case(&case)).unwrap();
            prop_assert_eq!(parsed, case);
        }
    }
}
