//! Differential proof of the stepping engines' exactness invariant.
//!
//! The fast-forward engine (`EngineKind::FastForward`) must be bit-for-bit
//! cycle-exact with respect to the naive one-step-per-cycle reference engine
//! (`EngineKind::Naive`): identical `RunOutcome`s — total cycles, commits,
//! aborts, gatings, per-state cycle breakdowns, interval decomposition, bus
//! and shard statistics — identical controller statistics and identical
//! energy analyses, for **every registered contention policy** (the six
//! legacy modes and the adaptive / hybrid / throttle / oracle extensions),
//! every registered workload and **both interconnect topologies** (the
//! paper's shared bus and the banked sharded fabric). This suite sweeps the
//! full (policy × workload × topology) grid at `Test` scale, replays the
//! policy grid on a 64-processor sharded machine running the clustered
//! workload, and then hammers the same invariants with property-based random
//! traces designed to provoke conflicts, aborts, gating, renewal, throttled
//! windows and oracle subscriptions, on the bus and on the sharded fabric.

use std::cell::RefCell;
use std::rc::Rc;

use clockgate_htm::checkpoint::{atomic_write_bytes, checkpoint_path, CheckpointConfig};
use clockgate_htm::gating::policy::PolicyHook;
use clockgate_htm::report::to_json;
use clockgate_htm::sim::{EngineKind, GatingMode, SimReport, SimulationBuilder};
use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::config::SimConfig;
use htm_sim::topology::TopologyConfig;
use htm_sim::{Cycle, DirId, ProcId, ProcSet};
use htm_tcc::hooks::{AbortAction, GateCommand, GatingHook, SystemView};
use htm_tcc::system::{EngineCounters, TccSystem};
use htm_tcc::txn::{Op, ThreadTrace, Transaction, TxId, WorkloadTrace};
use htm_workloads::registry::ALL_WORKLOADS;
use htm_workloads::WorkloadScale;
use proptest::prelude::*;

/// Every policy family of the registry: the six legacy modes of the
/// evaluation plus the four framework extensions. Kept in sync with the
/// registry by the `covers_every_registered_family` test below.
fn all_modes() -> [GatingMode; 10] {
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

#[test]
fn covers_every_registered_family() {
    let covered: std::collections::BTreeSet<&str> =
        all_modes().iter().map(GatingMode::family).collect();
    for info in clockgate_htm::gating::policy::registry() {
        assert!(
            covered.contains(info.family),
            "policy family `{}` is missing from the differential sweep",
            info.family
        );
    }
}

/// The default (bank-per-directory, crossbar) sharded fabric.
fn sharded() -> TopologyConfig {
    TopologyConfig::parse("sharded").unwrap()
}

fn run_named_on(
    mode: GatingMode,
    workload: &str,
    procs: usize,
    engine: EngineKind,
    topology: TopologyConfig,
) -> SimReport {
    SimulationBuilder::new()
        .processors(procs)
        .topology(topology)
        .workload_by_name(workload, WorkloadScale::Test, 11)
        .unwrap()
        .gating(mode)
        .cycle_limit(50_000_000)
        .engine(engine)
        .run()
        .unwrap()
}

fn run_named(mode: GatingMode, workload: &str, procs: usize, engine: EngineKind) -> SimReport {
    run_named_on(mode, workload, procs, engine, TopologyConfig::Bus)
}

fn run_trace_on(
    mode: GatingMode,
    trace: WorkloadTrace,
    engine: EngineKind,
    topology: TopologyConfig,
) -> SimReport {
    SimulationBuilder::new()
        .processors(trace.num_threads())
        .topology(topology)
        .workload(trace)
        .gating(mode)
        .cycle_limit(50_000_000)
        .engine(engine)
        .run()
        .unwrap()
}

fn run_trace(mode: GatingMode, trace: WorkloadTrace, engine: EngineKind) -> SimReport {
    run_trace_on(mode, trace, engine, TopologyConfig::Bus)
}

/// Compare two reports field for field. `RunOutcome` derives `PartialEq`, so
/// the protocol-level comparison is exact; the full reports (including the
/// floating-point energy analysis and the controller statistics) are
/// additionally compared through their canonical JSON serialization, which
/// is total over every field.
fn assert_identical(fast: &SimReport, naive: &SimReport, context: &str) {
    assert_eq!(
        fast.outcome, naive.outcome,
        "{context}: protocol outcome diverged between engines"
    );
    assert_eq!(
        fast.gating, naive.gating,
        "{context}: controller statistics diverged between engines"
    );
    assert_eq!(
        to_json(fast),
        to_json(naive),
        "{context}: serialized reports diverged between engines"
    );
    assert_ledger_exact(fast, context);
}

/// The component ledger's exactness invariant: its core subset must
/// reproduce both the legacy direct four-state accounting and the paper's
/// Eq. 1 / Eq. 5 interval formulation (the batched `acct_until` settlement
/// of the fast engine and the per-cycle naive accounting feed the same
/// integer cycle tallies).
fn assert_ledger_exact(report: &SimReport, context: &str) {
    assert_eq!(
        report.ledger.legacy_total, report.energy.total_energy,
        "{context}: ledger cross-check total is not the legacy total"
    );
    assert!(
        report.ledger.core_discrepancy() < 1e-12,
        "{context}: ledger core subset {} vs legacy {}",
        report.ledger.core_energy,
        report.ledger.legacy_total
    );
    assert!(
        report.ledger.interval_discrepancy() < 1e-9,
        "{context}: ledger core subset {} vs Eq. 1/5 interval {}",
        report.ledger.core_energy,
        report.ledger.interval_total
    );
    let component_sum: f64 = report.ledger.components.iter().map(|c| c.energy).sum();
    let tol = 1e-9 * report.ledger.total_energy.max(1.0);
    assert!(
        (component_sum - report.ledger.total_energy).abs() <= tol,
        "{context}: component energies do not sum to the ledger total"
    );
}

#[test]
fn every_mode_and_workload_is_engine_exact() {
    for workload in ALL_WORKLOADS {
        for mode in all_modes() {
            let fast = run_named(mode, workload, 4, EngineKind::FastForward);
            let naive = run_named(mode, workload, 4, EngineKind::Naive);
            assert_identical(
                &fast,
                &naive,
                &format!("workload={workload} mode={}", mode.label()),
            );
            fast.outcome.check_consistency().unwrap();
        }
    }
}

#[test]
fn every_mode_and_workload_is_engine_exact_on_the_sharded_fabric() {
    // The same (policy × workload) grid on the banked topology.
    for workload in ALL_WORKLOADS {
        for mode in all_modes() {
            let fast = run_named_on(mode, workload, 4, EngineKind::FastForward, sharded());
            let naive = run_named_on(mode, workload, 4, EngineKind::Naive, sharded());
            let context = format!("sharded workload={workload} mode={}", mode.label());
            assert_identical(&fast, &naive, &context);
            fast.outcome.check_consistency().unwrap();
        }
    }
}

#[test]
fn clustered_64p_islands_are_engine_exact_for_every_policy() {
    // 64 processors, the clustered workload forming eight conflict-isolated
    // islands on the sharded fabric: many banks busy at once, with contention
    // inside every island. The fast engine must match the naive reference bit
    // for bit for all ten policy families, including the stateful adaptive /
    // hybrid / oracle extensions.
    for mode in all_modes() {
        let fast = run_named_on(mode, "clustered", 64, EngineKind::FastForward, sharded());
        let naive = run_named_on(mode, "clustered", 64, EngineKind::Naive, sharded());
        let context = format!("clustered 64p sharded mode={}", mode.label());
        assert_identical(&fast, &naive, &context);
        fast.outcome.check_consistency().unwrap();
    }
}

#[test]
fn hotspot_16p_sharded_is_engine_exact() {
    // A contended multi-bank run above four processors: every hotspot
    // thread hammers the same lines across several bank shards, so the
    // sharded fabric's per-bank arbitration and the gating timers interact
    // on every cycle. Both engines must agree byte for byte.
    let mode = GatingMode::ClockGate { w0: 8 };
    let fast = run_named_on(mode, "hotspot", 16, EngineKind::FastForward, sharded());
    let naive = run_named_on(mode, "hotspot", 16, EngineKind::Naive, sharded());
    assert_identical(&fast, &naive, "hotspot 16p fast-forward vs naive");
    fast.outcome.check_consistency().unwrap();
}

#[test]
fn contended_many_directory_runs_are_engine_exact() {
    // Many directories, one interconnect bank each, and enough conflicts
    // that commit spinners queue behind busy directories. The fast engine
    // neither refreshes every directory's view entry each cycle nor merges
    // every directory's and bank's deadline before a jump; it must still
    // match the naive reference byte for byte.
    for workload in ["intruder", "genome"] {
        for mode in [GatingMode::Ungated, GatingMode::ClockGate { w0: 8 }] {
            let fast = run_named_on(mode, workload, 64, EngineKind::FastForward, sharded());
            let naive = run_named_on(mode, workload, 64, EngineKind::Naive, sharded());
            let context = format!("{workload} 64p sharded mode={}", mode.label());
            assert_identical(&fast, &naive, &context);
            assert!(
                fast.outcome.total_aborts > 0,
                "{context}: must be contended"
            );
            fast.outcome.check_consistency().unwrap();
        }
    }
}

/// `procs` threads in groups of six (some groups straddle a 64-processor
/// word boundary), each running three transactions that read and write the
/// group's four hot lines: every group contends, and sharer and marked sets
/// hold members from every word of the machine.
fn grouped_trace(procs: usize) -> WorkloadTrace {
    let threads = (0..procs)
        .map(|p| {
            let hot = 4 * (p as u64 / 6);
            let txs = (0..3u64)
                .map(|t| {
                    let line = |k: u64| 64 * (hot + (p as u64 + k) % 4);
                    let ops = vec![
                        Op::Read(line(t)),
                        Op::Compute(10 + (p as u64 * 7 + t * 13) % 40),
                        Op::Write(line(t + 1)),
                        Op::Read(4096 * (p as u64 + 1)),
                    ];
                    Transaction::new(p as TxId * 16 + t, ops)
                })
                .collect();
            ThreadTrace::new(txs)
        })
        .collect();
    WorkloadTrace::new("grouped", threads)
}

#[test]
fn processor_set_width_boundaries_are_engine_exact() {
    // The engine keeps its processor sets 1 word wide up to 64 processors,
    // 4 up to 256 and 16 above: each side of both boundaries, gated.
    for procs in [64usize, 65, 256, 257] {
        let mode = GatingMode::ClockGate { w0: 8 };
        let fast = run_trace_on(
            mode,
            grouped_trace(procs),
            EngineKind::FastForward,
            sharded(),
        );
        let naive = run_trace_on(mode, grouped_trace(procs), EngineKind::Naive, sharded());
        let context = format!("grouped {procs}p sharded");
        assert_identical(&fast, &naive, &context);
        assert!(fast.outcome.total_gatings > 0, "{context}: must gate");
        assert_eq!(fast.outcome.total_commits, 3 * procs as u64, "{context}");
    }
}

/// Four processors contending on two lines, with pre-compute and compute
/// spans on both sides of the fast engine's 4096-cycle event-wheel horizon
/// (4095, 4096, 4097 and 10 000 cycles).
fn horizon_trace() -> WorkloadTrace {
    const SPANS: [u64; 4] = [4095, 4096, 4097, 10_000];
    let threads = (0..4u64)
        .map(|p| {
            let txs = (0..4u64)
                .map(|t| {
                    let span = SPANS[((p + t) % 4) as usize];
                    let ops = vec![
                        Op::Read(64 * (t % 2)),
                        Op::Compute(span),
                        Op::Write(64 * ((t + p) % 2)),
                    ];
                    Transaction::with_pre_compute(p * 16 + t, SPANS[(p % 4) as usize], ops)
                })
                .collect();
            ThreadTrace::new(txs)
        })
        .collect();
    WorkloadTrace::new("horizon", threads)
}

#[test]
fn deadlines_straddling_the_event_wheel_horizon_are_engine_exact() {
    // Back-offs of 3000–12 000 cycles, a 6000-cycle gating window and
    // throttle windows put hook and processor deadlines past the horizon.
    for mode in [
        GatingMode::Ungated,
        GatingMode::ExponentialBackoff { base: 3000, cap: 2 },
        GatingMode::ClockGateFixedWindow { window: 6000 },
        GatingMode::Throttle { w0: 5000 },
    ] {
        for topology in [TopologyConfig::Bus, sharded()] {
            let context = format!("{} on {topology:?}", mode.label());
            let fast = run_trace_on(mode, horizon_trace(), EngineKind::FastForward, topology);
            let naive = run_trace_on(mode, horizon_trace(), EngineKind::Naive, topology);
            assert_identical(&fast, &naive, &context);
            assert_eq!(fast.outcome.total_commits, 16, "{context}");
            assert!(fast.outcome.total_aborts > 0, "{context}: must contend");
        }
    }
}

/// A 64-processor intruder machine on the default sharded fabric with the
/// paper's Eq. 8 clock-gating controller.
fn contended_sharded_system() -> TccSystem<Box<dyn PolicyHook>> {
    let cfg = SimConfig::table2_with_topology(64, sharded());
    let hook = GatingMode::ClockGate { w0: 8 }.build(&cfg);
    let trace = htm_workloads::by_name("intruder", 64, WorkloadScale::Test, 11).unwrap();
    TccSystem::new(cfg, trace, hook).unwrap()
}

#[test]
fn incremental_view_equals_a_full_refresh_after_every_fast_step() {
    let mut sys = contended_sharded_system();
    let mut steps = 0u64;
    while !sys.is_complete() {
        sys.step();
        steps += 1;
        if let Err(e) = sys
            .debug_check_view()
            .and(sys.debug_check_queue())
            .and(sys.debug_check_waiters())
        {
            panic!("after fast step {steps}: {e}");
        }
        assert!(sys.now() < 50_000_000, "run must finish");
    }
    let (outcome, hook) = sys.into_parts();
    assert!(
        hook.gating_stats().unwrap().gatings > 0,
        "the run must gate"
    );
    assert!(outcome.total_aborts > 0, "the run must be contended");
}

#[test]
fn incremental_view_survives_interleaved_naive_steps() {
    // Naive steps mutate the marked sets without maintaining the fast
    // engine's dirty lists; the next fast plan must rebuild them. Alternate
    // bursts of both engines and check the view after every fast step, then
    // require the interleaved run to match an uninterrupted fast run.
    let mut sys = contended_sharded_system();
    let mut steps = 0u64;
    while !sys.is_complete() {
        if (steps / 7) % 3 == 2 {
            sys.step_naive();
        } else {
            sys.step();
            if let Err(e) = sys
                .debug_check_view()
                .and(sys.debug_check_queue())
                .and(sys.debug_check_waiters())
            {
                panic!("after step {steps}: {e}");
            }
        }
        steps += 1;
        assert!(sys.now() < 50_000_000, "run must finish");
    }
    let (mixed, _) = sys.into_parts();
    let reference = contended_sharded_system()
        .run_bounded(50_000_000, EngineKind::FastForward)
        .unwrap()
        .0;
    assert_eq!(
        mixed, reference,
        "interleaving engines must not change the run"
    );
}

/// Run `workload` (Test scale, seed 11) on both engines and require
/// identical reports, then step the fast engine once more and check its
/// waiter sets after every step. Returns the most commit spinners seen at
/// once.
fn assert_exact_with_waiter_checks(
    workload: &str,
    procs: usize,
    mode: GatingMode,
    topology: TopologyConfig,
) -> usize {
    let context = format!("{workload} {procs}p {topology:?} mode={}", mode.label());
    let fast = run_named_on(mode, workload, procs, EngineKind::FastForward, topology);
    let naive = run_named_on(mode, workload, procs, EngineKind::Naive, topology);
    assert_identical(&fast, &naive, &context);

    let cfg = SimConfig::table2_with_topology(procs, topology);
    let trace = htm_workloads::by_name(workload, procs, WorkloadScale::Test, 11).unwrap();
    let mut sys = TccSystem::new(cfg.clone(), trace, mode.build(&cfg)).unwrap();
    let mut most = 0;
    while !sys.is_complete() {
        sys.step();
        let spinners = sys
            .debug_check_waiters()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        most = most.max(spinners);
    }
    most
}

#[test]
fn bus_runs_with_many_parked_commit_spinners_are_engine_exact() {
    // Every commit on the bus serializes on the directories' oldest-TID
    // grant, so most of a 128p genome machine spins at its commit at once.
    // The fast engine parks every spinner its directory cannot grant; the
    // run must still match the naive reference byte for byte.
    for mode in [GatingMode::Ungated, GatingMode::ClockGate { w0: 8 }] {
        let most = assert_exact_with_waiter_checks("genome", 128, mode, TopologyConfig::Bus);
        assert!(
            most > 50,
            "{}: at most {most} spinners at once",
            mode.label()
        );
    }
}

#[test]
fn mesh_runs_whose_head_waiters_wait_on_an_occupancy_are_engine_exact() {
    // On the mesh, TID replies travel different distances, so a processor
    // can mark a directory with an older TID while a younger one holds it.
    // That head waiter is blocked only by the occupancy and must be woken
    // at its release by a queued directory wake, not by the occupant's
    // unmark, which the naive engine may step after it.
    let mesh = TopologyConfig::parse("sharded:0:mesh").unwrap();
    assert_exact_with_waiter_checks("genome", 64, GatingMode::Ungated, mesh);
    assert_exact_with_waiter_checks("hotspot", 64, GatingMode::ClockGate { w0: 8 }, mesh);
}

#[test]
fn a_512p_bus_run_steps_few_processors_per_executed_cycle() {
    // Cost pin: most of this machine spins at its commit. Stepping every
    // spinner in every executed cycle cost 211.5 processor steps per
    // executed cycle; parking the blocked ones brings it to 1.82. Counts
    // are exact functions of the run, so the bound cannot flake.
    let cfg = SimConfig::table2(512);
    let trace = htm_workloads::by_name("genome", 512, WorkloadScale::Test, 42).unwrap();
    let mut sys = TccSystem::new(cfg.clone(), trace, GatingMode::Ungated.build(&cfg)).unwrap();
    sys.advance_until(Cycle::MAX);
    assert!(sys.is_complete());
    let counters = sys.engine_counters();
    let per_cycle = counters.processor_steps as f64 / counters.executed_cycles as f64;
    assert!(
        per_cycle <= 2.0,
        "{per_cycle:.2} processors stepped per executed cycle ({counters:?})"
    );
}

#[test]
fn paper_16p_bus_runs_pin_their_engine_work() {
    // Cost pin: executed cycles, processor steps and the private ops
    // settled lazily are exact functions of the run, so a lost coalescing
    // of private ops (or any other change in engine work) fails here
    // instead of hiding in wall-clock noise. Each private op saves one
    // processor step: stepping every op, intruder-16p took 16 538 steps in
    // 11 007 executed cycles and yada-16p 30 451 in 20 057.
    for (workload, expect) in [
        (
            "intruder",
            EngineCounters {
                executed_cycles: 6924,
                processor_steps: 10496,
                private_ops: 6042,
            },
        ),
        (
            "yada",
            EngineCounters {
                executed_cycles: 12797,
                processor_steps: 16876,
                private_ops: 13575,
            },
        ),
    ] {
        let cfg = SimConfig::table2(16);
        let trace = htm_workloads::by_name(workload, 16, WorkloadScale::Test, 42).unwrap();
        let mut sys = TccSystem::new(cfg.clone(), trace, GatingMode::Ungated.build(&cfg)).unwrap();
        sys.advance_until(Cycle::MAX);
        assert!(sys.is_complete());
        assert_eq!(sys.engine_counters(), expect, "{workload}-16p");
    }
}

/// Drive a fast and a naive genome machine on the bus side by side and
/// compare their checkpoint payloads every 13 cycles, up to cycle `until`
/// or the end of the run. The replay state digest is a hash of that
/// payload, so the payload itself must not depend on the engine. Commits
/// queue behind busy directories here, which is where the engines' paths
/// differ most.
fn assert_checkpoints_engine_independent(procs: usize, until: Cycle) {
    const STRIDE: Cycle = 13;
    let cfg = SimConfig::table2(procs);
    let build = || {
        let trace = htm_workloads::by_name("genome", procs, WorkloadScale::Test, 42).unwrap();
        TccSystem::new(cfg.clone(), trace, GatingMode::Ungated.build(&cfg)).unwrap()
    };
    let (mut fast, mut naive) = (build(), build());
    while !fast.is_complete() && fast.now() < until {
        let target = fast.now() + STRIDE;
        fast.advance_until_engine(target, EngineKind::FastForward);
        naive.advance_until_engine(target, EngineKind::Naive);
        assert_eq!(fast.now(), naive.now(), "genome-{procs}p");
        assert!(
            fast.save_checkpoint() == naive.save_checkpoint(),
            "genome-{procs}p: checkpoints differ at cycle {}",
            fast.now()
        );
    }
    assert_eq!(fast.is_complete(), naive.is_complete(), "genome-{procs}p");
}

#[test]
fn checkpoint_bytes_are_engine_independent_on_16p_and_32p() {
    assert_checkpoints_engine_independent(16, Cycle::MAX);
    assert_checkpoints_engine_independent(32, Cycle::MAX);
}

#[test]
fn checkpoint_bytes_are_engine_independent_on_64p() {
    // The first 13 000 of 46 000 cycles: a full 64p run samples 1.3 MB
    // payloads 3 500 times, most of this suite's time in a debug build.
    assert_checkpoints_engine_independent(64, 13_000);
}

/// What [`GateProbe`] has seen of the run so far.
#[derive(Default)]
struct Seen {
    /// Processors stopped now: a `Gate` answer stops its victim (or one
    /// already past its validation point, which then commits instead), and
    /// a wake or a commit restarts it.
    stopped: ProcSet,
    wakes: u64,
    commits: u64,
}

/// Delegates to the gated hook and records what it sees into a shared
/// [`Seen`], which the test reads while the system owns the hook.
struct GateProbe {
    inner: Box<dyn PolicyHook>,
    seen: Rc<RefCell<Seen>>,
}

impl GatingHook for GateProbe {
    fn on_abort(
        &mut self,
        dir: DirId,
        victim: ProcId,
        aborter: ProcId,
        aborter_tx: TxId,
        now: Cycle,
        view: &SystemView,
    ) -> AbortAction {
        let action = self
            .inner
            .on_abort(dir, victim, aborter, aborter_tx, now, view);
        if action == AbortAction::Gate {
            self.seen.borrow_mut().stopped.insert(victim);
        }
        action
    }

    fn on_tick(&mut self, now: Cycle, view: &SystemView, out: &mut Vec<GateCommand>) {
        self.inner.on_tick(now, view, out);
    }

    fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_deadline(now)
    }

    fn on_commit(&mut self, proc: ProcId, now: Cycle) {
        let mut seen = self.seen.borrow_mut();
        seen.stopped.remove(proc);
        seen.commits += 1;
        drop(seen);
        self.inner.on_commit(proc, now);
    }

    fn on_wake(&mut self, proc: ProcId, now: Cycle) {
        let mut seen = self.seen.borrow_mut();
        seen.stopped.remove(proc);
        seen.wakes += 1;
        drop(seen);
        self.inner.on_wake(proc, now);
    }

    fn on_proc_activity(&mut self, proc: ProcId, dir: DirId, now: Cycle) {
        self.inner.on_proc_activity(proc, dir, now);
    }

    fn snapshot(&self, w: &mut CkptWriter) {
        self.inner.snapshot(w);
    }

    fn restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.inner.restore(r)
    }
}

#[test]
fn gated_64p_checkpoint_restored_while_processors_are_gated_is_exact() {
    // The gating controller keeps derived per-victim lists of its logged
    // directories and per-directory OFF sets, rebuilt on restore. Checkpoint
    // a contended, gated, sharded 64p run at window boundaries where
    // processors are stopped after wakes and commits have interleaved,
    // resume each checkpoint through the checkpointed runner, and require
    // the report of every resumed run to equal the uninterrupted run's and
    // the naive engine's byte for byte.
    let mode = GatingMode::ClockGate { w0: 8 };
    let cfg = SimConfig::table2_with_topology(64, sharded());
    let trace = || htm_workloads::by_name("intruder", 64, WorkloadScale::Test, 11).unwrap();
    let fast = run_named_on(mode, "intruder", 64, EngineKind::FastForward, sharded());
    let naive = run_named_on(mode, "intruder", 64, EngineKind::Naive, sharded());
    assert_identical(&fast, &naive, "gated intruder 64p sharded");

    let dir = std::env::temp_dir().join(format!("clockgate-gated-restore-{}", std::process::id()));
    let key = "gated-64p";
    let seen = Rc::new(RefCell::new(Seen::default()));
    let probe = GateProbe {
        inner: mode.build(&cfg),
        seen: Rc::clone(&seen),
    };
    let mut sys = TccSystem::new(cfg.clone(), trace(), probe).unwrap();
    let mut restored_at = Vec::new();
    let mut boundary = 0;
    while restored_at.len() < 3 && !sys.is_complete() {
        boundary += 1_000;
        sys.advance_until(boundary);
        let interleaved = {
            let seen = seen.borrow();
            seen.stopped.len() >= 2 && seen.wakes > 0 && seen.commits > 0
        };
        if !interleaved {
            continue;
        }
        let at = sys.now();
        let payload = sys.save_checkpoint();
        let path = checkpoint_path(&dir, key, at);
        std::fs::create_dir_all(&dir).unwrap();
        atomic_write_bytes(&path, &htm_sim::checkpoint::seal(&payload)).unwrap();
        let (resumed, info) = SimulationBuilder::new()
            .config(cfg.clone())
            .workload(trace())
            .gating(mode)
            .cycle_limit(50_000_000)
            .engine(EngineKind::FastForward)
            .run_checkpointed(&CheckpointConfig::new(&dir, 1 << 40, key))
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(info.resumed_from, Some(at), "must resume from cycle {at}");
        assert_identical(&resumed, &fast, &format!("resumed at cycle {at}"));
        restored_at.push(at);
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        restored_at.len(),
        3,
        "the run must stop processors at three window boundaries"
    );
}

#[test]
fn recorded_traces_replay_engine_exact_on_every_engine() {
    // The trace subsystem's round-trip contract meets the exactness
    // invariant: a workload recorded to htmtrace text and read back is the
    // same value, and replaying it must land on byte-identical reports on
    // every engine — so a trace file is as good a witness as the generator.
    for workload in [
        "intruder",
        "bayes",
        "hotspot",
        "zipfian",
        "ring",
        "longshort",
    ] {
        let original = htm_workloads::by_name(workload, 4, WorkloadScale::Test, 11).unwrap();
        let text = htm_workloads::trace::render(&original);
        let loaded = htm_workloads::trace::read_from(text.as_bytes()).unwrap();
        assert_eq!(
            loaded.workload, original,
            "{workload}: trace round trip must be the identity"
        );
        let mode = GatingMode::ClockGate { w0: 8 };
        let baseline = run_trace(mode, original, EngineKind::FastForward);
        for engine in [EngineKind::FastForward, EngineKind::Naive] {
            let replay = run_trace(mode, loaded.workload.clone(), engine);
            assert_identical(
                &replay,
                &baseline,
                &format!("trace replay workload={workload} engine={}", engine.label()),
            );
        }
    }
}

#[test]
fn paper_matrix_processor_counts_are_engine_exact() {
    // The gated mode across the paper's processor counts: the gating /
    // renewal timers interact with commit bursts differently at each size.
    for procs in [2usize, 8, 16] {
        let mode = GatingMode::ClockGate { w0: 8 };
        let fast = run_named(mode, "intruder", procs, EngineKind::FastForward);
        let naive = run_named(mode, "intruder", procs, EngineKind::Naive);
        assert_identical(&fast, &naive, &format!("intruder procs={procs}"));
    }
}

/// Raw proptest-sampled operations: one `(kind, address-pool index, cycles)`
/// triple per op, grouped into transactions, grouped into threads.
type RawThreads = Vec<Vec<Vec<(u8, usize, u64)>>>;

/// Build a workload from proptest-sampled raw data. Addresses come from a
/// small pool so that conflicts (and therefore aborts, gatings and renewals)
/// are common; every static transaction gets a distinct `TxId`.
fn trace_from_raw(threads: &RawThreads) -> WorkloadTrace {
    const POOL: [u64; 8] = [0, 64, 128, 192, 4096, 4160, 8192, 12288];
    let threads = threads
        .iter()
        .enumerate()
        .map(|(t, txs)| {
            ThreadTrace::new(
                txs.iter()
                    .enumerate()
                    .map(|(x, ops)| {
                        let tx_id = ((t as u64) << 16) | (x as u64) | 0x1000;
                        let ops = ops
                            .iter()
                            .map(|&(kind, addr, cycles)| match kind {
                                0 => Op::Read(POOL[addr]),
                                1 => Op::Write(POOL[addr]),
                                _ => Op::Compute(cycles),
                            })
                            .collect();
                        Transaction::with_pre_compute(tx_id, cycles_of(x), ops)
                    })
                    .collect(),
            )
        })
        .collect();
    WorkloadTrace::new("random-trace", threads)
}

/// Small deterministic prologue length so some transactions exercise the
/// `PreCompute` fast-forward path and others skip it.
fn cycles_of(tx_idx: usize) -> u64 {
    (tx_idx as u64 % 3) * 7
}

/// Like [`trace_from_raw`], but pairs of threads are confined to their own
/// 4 KiB directory segment: threads `2k` and `2k+1` draw every address from
/// segment `k`. On a sharded machine with one directory per processor each
/// pair talks to its own bank, so several banks arbitrate at once — with
/// conflicts, aborts and gating *inside* each pair.
fn clustered_trace_from_raw(threads: &RawThreads) -> WorkloadTrace {
    const POOL: [u64; 8] = [0, 64, 128, 192, 1024, 2048, 3072, 3968];
    let threads = threads
        .iter()
        .enumerate()
        .map(|(t, txs)| {
            let segment_base = (t as u64 / 2) * 4096;
            ThreadTrace::new(
                txs.iter()
                    .enumerate()
                    .map(|(x, ops)| {
                        let tx_id = ((t as u64) << 16) | (x as u64) | 0x1000;
                        let ops = ops
                            .iter()
                            .map(|&(kind, addr, cycles)| match kind {
                                0 => Op::Read(segment_base + POOL[addr]),
                                1 => Op::Write(segment_base + POOL[addr]),
                                _ => Op::Compute(cycles),
                            })
                            .collect();
                        Transaction::with_pre_compute(tx_id, cycles_of(x), ops)
                    })
                    .collect(),
            )
        })
        .collect();
    WorkloadTrace::new("random-clustered-trace", threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random conflicting traces: both engines must agree on the complete
    /// outcome for a randomly chosen gating mode.
    #[test]
    fn random_traces_are_engine_exact(
        threads in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((0u8..3, 0usize..8, 1u64..60), 1..6),
                1..5,
            ),
            2..5,
        ),
        mode_idx in 0usize..10,
    ) {
        let mode = all_modes()[mode_idx];
        let fast = run_trace(mode, trace_from_raw(&threads), EngineKind::FastForward);
        let naive = run_trace(mode, trace_from_raw(&threads), EngineKind::Naive);
        prop_assert_eq!(&fast.outcome, &naive.outcome);
        prop_assert_eq!(&fast.gating, &naive.gating);
        prop_assert_eq!(to_json(&fast), to_json(&naive));
        // The component ledger is part of the serialized report (so the
        // line above already proves engine byte-agreement); additionally
        // assert its exactness invariant on both engines' reports.
        for (report, engine) in [(&fast, "fast"), (&naive, "naive")] {
            prop_assert!(report.ledger.core_discrepancy() < 1e-12,
                "{} engine: core {} vs legacy {}",
                engine, report.ledger.core_energy, report.ledger.legacy_total);
            prop_assert!(report.ledger.interval_discrepancy() < 1e-9,
                "{} engine: core {} vs interval {}",
                engine, report.ledger.core_energy, report.ledger.interval_total);
            let component_sum: f64 =
                report.ledger.components.iter().map(|c| c.energy).sum();
            let tol = 1e-9 * report.ledger.total_energy.max(1.0);
            prop_assert!((component_sum - report.ledger.total_energy).abs() <= tol,
                "{} engine: components sum {} vs ledger total {}",
                engine, component_sum, report.ledger.total_energy);
        }
    }

    /// Random conflict traces on the sharded fabric: both engines must agree
    /// on the complete outcome for arbitrary op mixes. Eight threads form
    /// four two-thread groups on their own banks (see
    /// [`clustered_trace_from_raw`]), so per-bank arbitration runs on
    /// several banks at once.
    #[test]
    fn random_clustered_traces_are_engine_exact_on_the_sharded_fabric(
        threads in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((0u8..3, 0usize..8, 1u64..60), 1..6),
                1..5,
            ),
            8..9,
        ),
        mode_idx in 0usize..10,
    ) {
        let mode = all_modes()[mode_idx];
        let fast = run_trace_on(
            mode, clustered_trace_from_raw(&threads), EngineKind::FastForward, sharded());
        let naive = run_trace_on(
            mode, clustered_trace_from_raw(&threads), EngineKind::Naive, sharded());
        prop_assert_eq!(&fast.outcome, &naive.outcome);
        prop_assert_eq!(&fast.gating, &naive.gating);
        prop_assert_eq!(to_json(&fast), to_json(&naive));
        fast.outcome.check_consistency().unwrap();
    }
}

#[test]
fn engine_cli_values_round_trip() {
    for (value, expect) in [
        ("fast", EngineKind::FastForward),
        ("fast-forward", EngineKind::FastForward),
        ("naive", EngineKind::Naive),
    ] {
        assert_eq!(EngineKind::parse(value), Some(expect), "{value}");
        assert_eq!(EngineKind::parse(expect.label()), Some(expect));
    }
    // Removed and unknown engine names are rejected.
    for value in ["shard", "shard-parallel", "auto", "windowed", "warp"] {
        assert_eq!(EngineKind::parse(value), None, "{value}");
    }
}
