//! The Scalable-TCC system and its stepping engines.
//!
//! [`TccSystem`] wires processors, directories, the token vendor, the
//! configured interconnect [`Topology`] (the paper's shared
//! split-transaction bus, or the banked/sharded fabric for 64–1024 processor
//! machines) and main memory together and reports every abort to the
//! configured [`GatingHook`]. It is the replacement for the paper's
//! "substantially modified M5 full-system simulator with added support for a
//! Scalable-TCC system". Two stepping engines drive it ([`EngineKind`]):
//! the default event-driven fast-forward engine, which leaps over cycles in
//! which no component can act, and the one-step-per-cycle naive reference it
//! is differentially tested against. The two are bit-for-bit cycle-exact
//! with respect to each other.

use htm_mem::{AddressMap, LineAddr, MainMemory, SpecCache};
use htm_sim::bus::BusTraffic;
use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::config::SimConfig;
use htm_sim::interval::IntervalTracker;
use htm_sim::topology::{Interconnect, Node, Route, Topology, TopologyConfig};
use htm_sim::{proc_set_words, Cycle, DirId, ProcBits, ProcId};

use crate::deadlines::DeadlineQueue;
use crate::dirctrl::DirCtrl;
use crate::hooks::{AbortAction, GateCommand, GatingHook, SystemView};
use crate::processor::{CommitStep, Issued, Phase, ProcEvent, Processor, RetryAfter};
use crate::stats::{PowerState, RunOutcome};
use crate::token::TokenVendor;
use crate::txn::{fingerprint_parts, WorkloadTrace};

/// Errors that can occur when constructing or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The machine configuration is inconsistent.
    BadConfig(String),
    /// The workload does not fit the configured machine.
    BadWorkload(String),
    /// The simulation exceeded the cycle bound passed to
    /// [`TccSystem::run_bounded`] (indicates a livelock/deadlock or an
    /// undersized bound).
    CycleLimitExceeded {
        /// The bound that was exceeded.
        limit: Cycle,
    },
    /// A checkpoint payload could not be applied to this system: it was taken
    /// on a different machine configuration or workload trace, or its state
    /// records are internally inconsistent.
    Checkpoint(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::BadWorkload(msg) => write!(f, "invalid workload: {msg}"),
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded the cycle limit of {limit}")
            }
            SimError::Checkpoint(msg) => write!(f, "cannot restore checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Which stepping engine drives the simulation.
///
/// Both engines are bit-for-bit cycle-exact with respect to each other (the
/// differential test suite proves identical [`RunOutcome`]s for every gating
/// mode and workload); the fast-forward engine is simply the same machine
/// with its quiescent windows skipped in one jump. See `DESIGN.md`
/// ("event-horizon computation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Event-driven stepping: every component reports the next cycle at
    /// which it can act, and the clock leaps straight to the earliest such
    /// deadline whenever no component needs per-cycle processing.
    #[default]
    FastForward,
    /// The reference engine: one `step` per simulated cycle, touching every
    /// processor every cycle. Kept as the ground truth for differential
    /// testing and as the `--engine naive` option of the `reproduce` binary.
    Naive,
}

impl EngineKind {
    /// Short label used in reports and timing artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::FastForward => "fast-forward",
            EngineKind::Naive => "naive",
        }
    }

    /// Parse an `--engine` CLI value: `fast` / `fast-forward` or `naive`.
    #[must_use]
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "fast" | "fast-forward" => Some(EngineKind::FastForward),
            "naive" => Some(EngineKind::Naive),
            _ => None,
        }
    }
}

/// One planned advancement of the fast-forward engine, produced by
/// `Machine::plan_step`.
enum StepPlan<const W: usize> {
    /// Every component is quiescent for the next `n` cycles: leap over them
    /// in one batch-accounted jump.
    Jump(u64),
    /// Execute one exact cycle. Member `i` of `active` is set iff processor
    /// `i` needs its per-cycle processing (event delivery and/or a phase
    /// transition, or a commit spin that can be granted); the cleared ones
    /// are proven inert and only receive their countdown bookkeeping. The
    /// cycle may add spinners above the one it is stepping. `hook_due` says
    /// whether the hook's `on_tick` may act this cycle.
    Cycle {
        /// Set of processors that must be stepped individually.
        active: ProcBits<W>,
        /// Whether `on_tick` must run this cycle.
        hook_due: bool,
    },
    /// No component will ever act again (a protocol deadlock): the run can
    /// only end by hitting its cycle bound.
    Quiescent,
}

/// Work counters of the fast-forward engine, for cost tests and scaling
/// measurements. They count host work, not simulated behaviour: no output
/// depends on them, a checkpoint does not carry them, and naive steps do
/// not add to them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Cycles the fast engine executed one at a time (not jumped).
    pub executed_cycles: u64,
    /// Processors stepped individually in those cycles.
    pub processor_steps: u64,
    /// Private operations (compute ops, re-read hits and write hits)
    /// issued lazily when a processor's accounting was settled, instead of
    /// each in an executed cycle of its own.
    pub private_ops: u64,
}

/// The machine itself, with processor sets `W` words wide. [`TccSystem`]
/// holds one of these at the width its processor count needs.
struct Machine<H: GatingHook, const W: usize> {
    cfg: SimConfig,
    map: AddressMap,
    procs: Vec<Processor>,
    dirs: Vec<DirCtrl<W>>,
    token: TokenVendor,
    net: Interconnect,
    /// One memory bank per directory node (the distributed shared memory of
    /// Scalable TCC: each directory is the home node for its interleaved
    /// share of the physical memory and has its own single R/W port).
    memory_banks: Vec<MainMemory>,
    hook: H,
    view: SystemView,
    intervals: IntervalTracker,
    now: Cycle,
    workload_name: String,
    last_commit_end: Cycle,
    /// Scratch buffer handed to [`GatingHook::on_tick`] every cycle so the
    /// steady-state tick never allocates.
    tick_scratch: Vec<GateCommand>,
    /// Scratch buffer for the directories touched by an aborting/committing
    /// processor (avoids a `Vec` allocation per abort/commit).
    dir_scratch: Vec<DirId>,
    /// Set of processors whose view entries are stale because their
    /// transaction or gated state changed in the most recent executed cycle;
    /// `step_cycle` refreshes exactly these instead of sweeping every
    /// processor each cycle.
    view_dirty: ProcBits<W>,
    /// Directories whose marked set or waiter set may have changed since
    /// the last plan, pushed at every `mark`/`unmark` call site and when a
    /// spinner starts waiting on a directory (duplicates are harmless).
    /// `plan_step` refreshes exactly these view entries and probes their
    /// head waiters. `rebuild_fast_state` lists every directory and
    /// `refresh_view` empties the list, so naive stepping never grows it.
    dirs_dirty: Vec<DirId>,
    /// Per-processor accounting watermark: all cycles in `[0, acct_until[i])`
    /// are fully reflected in processor `i`'s `state_cycles`,
    /// `attempt_cycles`, countdown fields and `first_tx_start`. The fast
    /// engine accounts lazily (a processor parked in a waiting phase is not
    /// touched at all until something happens to it); `flush_accounting`
    /// settles the balance whenever the processor is processed or the run
    /// ends.
    acct_until: Vec<Cycle>,
    /// Event queue of the fast engine: `(deadline, key)` pairs on a timing
    /// wheel of one-cycle slots, with an overflow heap for deadlines past
    /// its horizon ([`DeadlineQueue`]). Key `i < procs.len()` is processor
    /// `i`; key `procs.len() + d` is a wake of directory `d` at the release
    /// of an occupancy that blocks its head waiter. Deletion is lazy:
    /// entries are validated against the actual state when popped. A
    /// commit spinner's grant is tracked through its directory, never here;
    /// only its inbox deliveries are.
    deadlines: DeadlineQueue,
    /// Processors due in the cycle after the last executed one, which is
    /// always the cycle the next plan looks at. A processor issuing an
    /// operation every cycle lands here instead of taking a round trip
    /// through the event queue, and its deadline needs no validation: it
    /// was computed at the end of its own step, and nothing before the next
    /// cycle can move it later.
    due_next: ProcBits<W>,
    /// Waiter set of each directory: the commit spinners whose current
    /// step targets it. Derived state, rebuilt by `rebuild_fast_state` and
    /// never serialized. Only a directory's oldest marked processor can be
    /// granted it, so a plan looks at one waiter per changed directory and
    /// the other spinners stay parked.
    waiters: Vec<ProcBits<W>>,
    /// Work done by the fast engine's executed cycles (see
    /// [`EngineCounters`]); derived, never serialized.
    counters: EngineCounters,
    /// Start-of-cycle population counts `(gated, missing, committing,
    /// throttled)`, maintained incrementally on every phase transition so
    /// each executed cycle records its interval data in O(1).
    state_counts: (usize, usize, usize, usize),
    /// Cycles the fast engine has spent at population counts `.1` since it
    /// last wrote to `intervals`. The tracker only sums, so consecutive
    /// cycles with the same counts go in as one record when the counts
    /// change or the tracker is read.
    interval_run: (u64, (usize, usize, usize, usize)),
    /// Number of processors in `Phase::Done` (replaces the O(procs)
    /// `all_done` sweep in the run loop).
    done_count: usize,
    /// Set whenever processors were mutated without maintaining the fast
    /// engine's incremental structures (construction, naive steps); the
    /// next `plan_step` rebuilds them once.
    fast_state_stale: bool,
    /// Fault-injection switch for the divergence harness's self-test: when
    /// set, [`Self::flush_accounting`] under-counts `attempt_cycles` by one
    /// on every batched `Executing` span of at least 4 cycles. The naive
    /// engine settles accounting cycle by cycle (span 1), so only the
    /// fast-forward engine is affected — a deliberately planted
    /// engine-equivalence bug the fuzz harness must be able to catch.
    perturb_accounting: bool,
}

/// The complete simulated machine.
///
/// The machine's processor sets (the engine's active set and waiter sets, the
/// directories' sharer and marked sets) are `W` 64-bit words wide, with `W`
/// fixed per machine by [`htm_sim::proc_set_words`]: 1 word up to 64
/// processors, 4 up to 256, 16 above. Each width is its own monomorphized
/// engine; `new` and `restore_checkpoint` pick one and every other method
/// forwards to it with a single `match`. The width never shows in any
/// output: sets iterate in ascending processor-id order, checkpoint as member
/// lists, and hooks see [`htm_sim::ProcSet`]s.
pub struct TccSystem<H: GatingHook>(Widths<H>);

/// One [`Machine`] per processor-set width.
enum Widths<H: GatingHook> {
    W1(Machine<H, 1>),
    W4(Machine<H, 4>),
    W16(Machine<H, 16>),
}

/// Evaluate `$body` with `$m` bound to the machine inside whichever width
/// arm `$widths` holds.
macro_rules! on_machine {
    ($widths:expr, $m:ident => $body:expr) => {
        match $widths {
            Widths::W1($m) => $body,
            Widths::W4($m) => $body,
            Widths::W16($m) => $body,
        }
    };
}

impl<H: GatingHook> TccSystem<H> {
    /// Build a system running `workload` on the machine described by `cfg`,
    /// with abort handling delegated to `hook`.
    ///
    /// The workload must provide exactly one thread per processor and must
    /// not reference addresses beyond the installed memory.
    pub fn new(cfg: SimConfig, workload: WorkloadTrace, hook: H) -> Result<Self, SimError> {
        Ok(Self(match proc_set_words(cfg.num_procs) {
            1 => Widths::W1(Machine::new(cfg, workload, hook)?),
            4 => Widths::W4(Machine::new(cfg, workload, hook)?),
            _ => Widths::W16(Machine::new(cfg, workload, hook)?),
        }))
    }

    /// Rebuild a system from a checkpoint payload produced by
    /// [`Self::save_checkpoint`].
    ///
    /// `cfg`, `workload` and `hook` must be the same values the checkpointed
    /// run was constructed with — the payload carries the configuration, the
    /// workload name and a full trace fingerprint, and restoring refuses to
    /// proceed on any mismatch (resuming against a different machine or trace
    /// would silently produce garbage). The hook must be freshly constructed
    /// with its original parameters; its mutable state is overwritten through
    /// [`GatingHook::restore`].
    pub fn restore_checkpoint(
        cfg: SimConfig,
        workload: WorkloadTrace,
        hook: H,
        payload: &[u8],
    ) -> Result<Self, SimError> {
        Ok(Self(match proc_set_words(cfg.num_procs) {
            1 => Widths::W1(Machine::restore_checkpoint(cfg, workload, hook, payload)?),
            4 => Widths::W4(Machine::restore_checkpoint(cfg, workload, hook, payload)?),
            _ => Widths::W16(Machine::restore_checkpoint(cfg, workload, hook, payload)?),
        }))
    }

    /// The machine configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        on_machine!(&self.0, m => &m.cfg)
    }

    /// Current simulation cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        on_machine!(&self.0, m => m.now)
    }

    /// Whether every processor has finished all of its transactions.
    #[must_use]
    pub fn all_done(&self) -> bool {
        on_machine!(&self.0, m => m.all_done())
    }

    /// Whether every processor has finished, in O(1) (maintained by the
    /// engines; [`Self::all_done`] is the O(procs) sweep).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        on_machine!(&self.0, m => m.is_complete())
    }

    /// Run to completion on the chosen engine with a safety bound on the
    /// number of cycles, returning the outcome and the hook (so callers read
    /// controller statistics straight from it).
    pub fn run_bounded(
        self,
        limit: Cycle,
        engine: EngineKind,
    ) -> Result<(RunOutcome, H), SimError> {
        on_machine!(self.0, m => m.run_bounded(limit, engine))
    }

    /// Plant the deliberate fast-engine accounting bug (see the
    /// `perturb_accounting` field). Exists solely so the divergence fuzz
    /// harness can prove, end to end, that it detects a real
    /// engine-equivalence violation and shrinks it to a minimal trace.
    pub fn debug_perturb_fast_accounting(&mut self) {
        on_machine!(&mut self.0, m => m.perturb_accounting = true);
    }

    /// Serialize the complete machine state at the current cycle into a raw
    /// checkpoint payload (frame it with [`htm_sim::checkpoint::seal`] before
    /// writing to disk).
    ///
    /// Every processor's lazy accounting backlog is settled first. Settling
    /// early is bit-exact: the skipped window `[acct_until[i], now)` is spent
    /// in one unchanged phase, and every batched update (state-cycle sums,
    /// `attempt_cycles`, countdown decrements, the `first_tx_start` stamp at
    /// the window's start) splits additively — so flushing now and flushing
    /// the remainder later yields exactly what one deferred flush would have.
    /// A checkpoint therefore observes — and a resumed run continues from —
    /// the same state the uninterrupted run passes through. A directory
    /// occupancy that has expired by now is dropped before it is written
    /// (it already reads as idle), so the payload is the same whichever
    /// engine reached the cycle.
    pub fn save_checkpoint(&mut self) -> Vec<u8> {
        on_machine!(&mut self.0, m => m.save_checkpoint())
    }

    /// Advance the machine to exactly cycle `target` (or until every
    /// processor is done, whichever comes first) with the fast-forward
    /// engine, clamping quiescent jumps at the window boundary.
    ///
    /// Splitting a quiescent jump of `n` cycles into `n1 + n2` is bit-exact
    /// (the interval record is the only observable effect and it is a pure
    /// count accumulation), so driving a machine through an arbitrary
    /// sequence of windows yields the same outcome as one uninterrupted run,
    /// and the machine can be inspected at the window boundaries without
    /// perturbing the simulation.
    pub fn advance_until(&mut self, target: Cycle) {
        on_machine!(&mut self.0, m => m.advance_until(target));
    }

    /// Engine-aware variant of [`Self::advance_until`]: the naive reference
    /// engine grinds one exact cycle at a time, the fast-forward engine
    /// jumps. Both stop at exactly `target` unless the run completes first, so
    /// a checkpoint taken at the boundary observes the same state whichever
    /// engine drove the machine there.
    pub fn advance_until_engine(&mut self, target: Cycle, engine: EngineKind) {
        on_machine!(&mut self.0, m => m.advance_until_engine(target, engine));
    }

    /// Advance the simulation by at least one cycle with the fast-forward
    /// engine: if every component agrees that nothing can happen before some
    /// future cycle, leap straight to it (batch-accounting the skipped
    /// cycles); otherwise execute one exact cycle, touching only the
    /// processors that act in it.
    pub fn step(&mut self) {
        on_machine!(&mut self.0, m => m.step());
    }

    /// Advance the simulation by exactly one cycle (the reference engine).
    pub fn step_naive(&mut self) {
        on_machine!(&mut self.0, m => m.step_naive());
    }

    /// Check the fast engine's incremental view maintenance: the view as
    /// the next executed cycle would see it after refreshing only the dirty
    /// processor and directory entries must equal a full rebuild from the
    /// current machine state. Returns the first differing entry. Does not
    /// change the system. Exists for the engine tests.
    pub fn debug_check_view(&self) -> Result<(), String> {
        on_machine!(&self.0, m => m.debug_check_view())
    }

    /// Check the fast engine's event queue: every processor that will act
    /// on its own (a phase deadline or a pending inbox delivery; for a
    /// commit spinner only the latter) has a queued entry at or before that
    /// cycle, or is in the set of processors due in the next cycle, and
    /// every executing processor's cached run end equals a recomputation.
    /// Returns the first violation. Does not change the system. Exists for
    /// the engine tests.
    pub fn debug_check_queue(&self) -> Result<(), String> {
        on_machine!(&self.0, m => m.debug_check_queue())
    }

    /// Check the fast engine's waiter sets: each must equal a rebuild from
    /// the processors' phases, and every directory whose oldest marked
    /// processor is one of its waiters must be due a probe (listed as
    /// changed, or a directory wake queued by the occupancy release that
    /// blocks it). Returns the number of commit spinners, or the first
    /// violation. Does not change the system. Exists for the engine tests.
    pub fn debug_check_waiters(&self) -> Result<usize, String> {
        on_machine!(&self.0, m => m.debug_check_waiters())
    }

    /// The fast engine's work counters since this system was built or
    /// restored.
    #[must_use]
    pub fn engine_counters(&self) -> EngineCounters {
        on_machine!(&self.0, m => m.counters)
    }

    /// Consume the system and return the outcome accumulated so far together
    /// with the hook (so controller statistics can be read out directly).
    #[must_use]
    pub fn into_parts(self) -> (RunOutcome, H) {
        on_machine!(self.0, m => m.into_parts())
    }
}

impl<H: GatingHook, const W: usize> Machine<H, W> {
    fn new(cfg: SimConfig, workload: WorkloadTrace, hook: H) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::BadConfig)?;
        if cfg.num_procs > ProcBits::<W>::CAPACITY {
            return Err(SimError::BadConfig(format!(
                "{} processors do not fit {W}-word processor sets",
                cfg.num_procs
            )));
        }
        if workload.num_threads() != cfg.num_procs {
            return Err(SimError::BadWorkload(format!(
                "workload '{}' has {} threads but the machine has {} processors",
                workload.name,
                workload.num_threads(),
                cfg.num_procs
            )));
        }
        if let Some(max) = workload.max_addr() {
            if max >= cfg.memory_bytes {
                return Err(SimError::BadWorkload(format!(
                    "workload references address {max:#x} beyond the {} byte memory",
                    cfg.memory_bytes
                )));
            }
        }

        let map = AddressMap::new(cfg.line_bytes, cfg.directory_segment_bytes, cfg.num_dirs);
        let WorkloadTrace {
            name: workload_name,
            threads,
        } = workload;
        let procs: Vec<Processor> = threads
            .into_iter()
            .enumerate()
            .map(|(id, thread)| Processor::new(id, thread, SpecCache::from_config(&cfg)))
            .collect();
        let dirs: Vec<DirCtrl<W>> = (0..cfg.num_dirs)
            .map(|d| DirCtrl::new(d, cfg.num_procs, cfg.directory_latency))
            .collect();
        let view = SystemView::new(cfg.num_procs, cfg.num_dirs);
        let intervals = IntervalTracker::new(cfg.num_procs);
        let net = Interconnect::from_config(&cfg);
        let memory_banks = (0..cfg.num_dirs)
            .map(|_| MainMemory::from_config(&cfg))
            .collect();
        // Sharded fabrics pair with the pipelined vendor (TIDs derived from
        // the request itself, so commit-token arbitration never couples
        // independent banks); the bus machine keeps the paper's serial
        // vendor port.
        let token = if matches!(cfg.topology, TopologyConfig::Sharded { .. }) {
            TokenVendor::pipelined(cfg.token_vendor_latency)
        } else {
            TokenVendor::new(cfg.token_vendor_latency)
        };
        let num_procs = procs.len();
        let num_dirs = dirs.len();
        let done_count = procs.iter().filter(|p| p.is_done()).count();
        let mut system = Self {
            cfg,
            map,
            procs,
            dirs,
            token,
            net,
            memory_banks,
            hook,
            view,
            intervals,
            now: 0,
            workload_name,
            last_commit_end: 0,
            tick_scratch: Vec::new(),
            dir_scratch: Vec::new(),
            view_dirty: ProcBits::empty(),
            dirs_dirty: Vec::new(),
            acct_until: vec![0; num_procs],
            deadlines: DeadlineQueue::new(),
            due_next: ProcBits::empty(),
            waiters: vec![ProcBits::empty(); num_dirs],
            counters: EngineCounters::default(),
            state_counts: (0, 0, 0, 0),
            interval_run: (0, (0, 0, 0, 0)),
            done_count,
            // The first fast plan populates the event queue and counters.
            fast_state_stale: true,
            perturb_accounting: false,
        };
        // Populate the hook-visible snapshot once; from here on the engines
        // keep it current (the naive engine by full refresh, the fast engine
        // incrementally via `view_dirty`).
        system.refresh_view();
        Ok(system)
    }

    fn all_done(&self) -> bool {
        self.procs.iter().all(Processor::is_done)
    }

    fn run_bounded(
        mut self,
        limit: Cycle,
        engine: EngineKind,
    ) -> Result<(RunOutcome, H), SimError> {
        // A quiescent machine (every processor gated or done, nothing in
        // flight) leaps straight to the bound and reports the same error the
        // naive engine reaches by grinding there.
        self.advance_until_engine(limit, engine);
        if !self.is_complete() {
            return Err(SimError::CycleLimitExceeded { limit });
        }
        Ok(self.into_parts())
    }

    // ----- checkpointing ---------------------------------------------------------

    fn save_checkpoint(&mut self) -> Vec<u8> {
        for i in 0..self.procs.len() {
            self.flush_accounting(i, self.now);
            self.acct_until[i] = self.now;
        }
        // An expired occupancy reads as idle; drop it so the payload does
        // not depend on whether anything looked at the directory since.
        for d in &mut self.dirs {
            d.release_expired(self.now);
        }
        let mut w = CkptWriter::new();
        self.cfg.save_ckpt(&mut w);
        w.put_str(&self.workload_name);
        w.put_u64(fingerprint_parts(
            &self.workload_name,
            self.procs.iter().map(|p| &p.thread),
        ));
        w.put_u64(self.now);
        w.put_u64(self.last_commit_end);
        self.flush_intervals();
        self.intervals.save_ckpt(&mut w);
        w.put_usize(self.procs.len());
        for p in &self.procs {
            p.save_ckpt(&mut w);
        }
        w.put_usize(self.dirs.len());
        for d in &self.dirs {
            d.save_ckpt(&mut w);
        }
        self.token.save_ckpt(&mut w);
        self.net.save_ckpt(&mut w);
        w.put_usize(self.memory_banks.len());
        for m in &self.memory_banks {
            m.save_ckpt(&mut w);
        }
        self.hook.snapshot(&mut w);
        w.into_payload()
    }

    fn restore_checkpoint(
        cfg: SimConfig,
        workload: WorkloadTrace,
        hook: H,
        payload: &[u8],
    ) -> Result<Self, SimError> {
        let expect_fp = workload.fingerprint();
        let expect_name = workload.name.clone();
        let mut sys = Self::new(cfg, workload, hook)?;
        let mut r = CkptReader::new(payload);
        fn ck(e: CkptError) -> SimError {
            SimError::Checkpoint(format!("corrupt checkpoint payload: {e}"))
        }

        let saved_cfg = SimConfig::load_ckpt(&mut r).map_err(ck)?;
        if saved_cfg != sys.cfg {
            return Err(SimError::Checkpoint(
                "checkpoint was taken on a different machine configuration".into(),
            ));
        }
        let name = r.get_str().map_err(ck)?;
        let fp = r.get_u64().map_err(ck)?;
        if name != expect_name || fp != expect_fp {
            return Err(SimError::Checkpoint(format!(
                "checkpoint belongs to workload '{name}' (fingerprint {fp:#018x}), \
                 not the supplied '{expect_name}' (fingerprint {expect_fp:#018x})"
            )));
        }
        let now = r.get_cycle().map_err(ck)?;
        let last_commit_end = r.get_cycle().map_err(ck)?;
        let intervals = IntervalTracker::load_ckpt(&mut r).map_err(ck)?;
        let n_procs = r.get_usize().map_err(ck)?;
        if n_procs != sys.procs.len() {
            return Err(SimError::Checkpoint(format!(
                "checkpoint holds {n_procs} processors but the machine has {}",
                sys.procs.len()
            )));
        }
        for proc in &mut sys.procs {
            proc.restore_ckpt(&mut r).map_err(ck)?;
        }
        let n_dirs = r.get_usize().map_err(ck)?;
        if n_dirs != sys.dirs.len() {
            return Err(SimError::Checkpoint(format!(
                "checkpoint holds {n_dirs} directories but the machine has {}",
                sys.dirs.len()
            )));
        }
        for (d, slot) in sys.dirs.iter_mut().enumerate() {
            *slot = DirCtrl::load_ckpt(&mut r).map_err(ck)?;
            if slot.id() != d {
                return Err(SimError::Checkpoint(format!(
                    "directory record {} restored into slot {d}",
                    slot.id()
                )));
            }
        }
        sys.token = TokenVendor::load_ckpt(&mut r).map_err(ck)?;
        sys.net = Interconnect::load_ckpt(&mut r).map_err(ck)?;
        let n_banks = r.get_usize().map_err(ck)?;
        if n_banks != sys.memory_banks.len() {
            return Err(SimError::Checkpoint(format!(
                "checkpoint holds {n_banks} memory banks but the machine has {}",
                sys.memory_banks.len()
            )));
        }
        for bank in &mut sys.memory_banks {
            *bank = MainMemory::load_ckpt(&mut r).map_err(ck)?;
        }
        sys.hook.restore(&mut r).map_err(ck)?;
        r.expect_end().map_err(ck)?;

        sys.now = now;
        sys.last_commit_end = last_commit_end;
        sys.intervals = intervals;
        // Derived engine state: accounting was settled to `now` at save time,
        // the event queue / waiter sets / population counters are rebuilt by
        // the next fast plan, and the hook-visible view is refreshed here so
        // naive stepping (which reads it before the first rebuild) sees a
        // current snapshot. Extra or missing *stale* queue entries never
        // change behaviour — entries are validated on pop and a conservative
        // (shorter) jump is always exact — so the rebuilt structures are
        // observably identical to the uninterrupted run's.
        sys.acct_until = vec![now; n_procs];
        sys.done_count = sys.procs.iter().filter(|p| p.is_done()).count();
        sys.fast_state_stale = true;
        sys.view_dirty = ProcBits::empty();
        sys.refresh_view();
        Ok(sys)
    }

    fn is_complete(&self) -> bool {
        self.done_count == self.procs.len()
    }

    fn advance_until(&mut self, target: Cycle) {
        while self.done_count < self.procs.len() && self.now < target {
            match self.plan_step() {
                StepPlan::Jump(n) => {
                    let clamped = n.min(target - self.now);
                    self.fast_forward(clamped);
                }
                StepPlan::Cycle { active, hook_due } => self.step_cycle(active, hook_due),
                StepPlan::Quiescent => self.fast_forward(target - self.now),
            }
        }
    }

    fn advance_until_engine(&mut self, target: Cycle, engine: EngineKind) {
        match engine {
            EngineKind::FastForward => self.advance_until(target),
            EngineKind::Naive => {
                while self.done_count < self.procs.len() && self.now < target {
                    self.step_naive();
                }
            }
        }
    }

    fn step(&mut self) {
        match self.plan_step() {
            StepPlan::Jump(n) => self.fast_forward(n),
            StepPlan::Cycle { active, hook_due } => self.step_cycle(active, hook_due),
            // No cycle bound available here: burn one reference cycle.
            StepPlan::Quiescent => self.step_naive(),
        }
    }

    fn step_naive(&mut self) {
        self.account_cycles(1);
        self.refresh_view();
        self.apply_hook_commands();
        for i in 0..self.procs.len() {
            self.handle_events(i);
            self.advance_processor(i);
        }
        // Keep the run-loop counter current and flag the fast engine's
        // incremental bookkeeping as stale, so the two stepping styles can
        // be interleaved freely (the next fast plan rebuilds its event
        // structures once). The recount costs no more than the `all_done`
        // sweep it replaces.
        self.done_count = self.procs.iter().filter(|p| p.is_done()).count();
        self.fast_state_stale = true;
        self.now += 1;
    }

    // ----- fast-forward engine ---------------------------------------------------

    /// Decide how to advance the clock: an exact cycle touching only the
    /// active processors, a multi-cycle jump, or the deadlock shortcut.
    ///
    /// The horizon has exactly three sources: the processors' own deadlines
    /// and the directory wakes (both in the event queue), and the hook's
    /// next timer. The cost is O(due entries + changed directories),
    /// independent of the number of processors, commit spinners,
    /// directories and interconnect banks.
    ///
    /// Exactness argument (see `DESIGN.md`, "event-horizon computation"):
    /// every observable state change in a cycle is triggered by one of
    /// (a) a processor phase completing or issuing a visible operation
    /// (private ones are replayed by `flush_accounting`), (b) an inbox
    /// message becoming deliverable, (c) the hook issuing commands
    /// from `on_tick`, or (d) a commit spin being granted a directory.
    /// (a)–(c) are reported by the processors ([`Processor::next_deadline`])
    /// and the hook ([`GatingHook::next_deadline`]). For (d), only a
    /// directory's oldest marked processor can be granted it, and only
    /// while it waits there and the directory is idle. That can start to
    /// hold only when the directory's marked or waiter set changes (it is
    /// then in `dirs_dirty`, probed here) or when an occupancy that blocks
    /// the head waiter releases (a directory wake, queued by the probe that
    /// found it blocked). Changes made *within* a cycle by a lower-id
    /// processor are picked up by `step_cycle` itself. The bus,
    /// token-vendor and miss ports are demand-driven: a release changes
    /// nothing until the next request, and every request is made in an
    /// executed cycle (by an active processor or a hook command), which
    /// computes its timing from the port's stored release cycle. Their
    /// deadlines are therefore not merged.
    fn plan_step(&mut self) -> StepPlan<W> {
        if self.fast_state_stale {
            self.rebuild_fast_state();
        }
        let now = self.now;
        let mut active = std::mem::take(&mut self.due_next);
        // Directories changed since the last plan: refresh their view
        // entries (jumps change nothing, so this is the start-of-cycle
        // snapshot the naive engine refreshes) and probe their heads.
        let mut dirs = std::mem::take(&mut self.dirs_dirty);
        for &d in &dirs {
            self.view.dir_marked[d] = self.dirs[d].marked_bits().widen();
            if let Some(head) = self.probe_dir(d, now) {
                active.insert(head);
            }
        }
        dirs.clear();
        self.dirs_dirty = dirs;
        // Drain the event queue up to `now`, validating lazily: an entry is
        // stale if the processor's deadline moved (it was processed since,
        // or the entry predates a newer, earlier event).
        let n = self.procs.len();
        while let Some(key) = self.deadlines.pop_due(now) {
            if key >= n {
                if let Some(head) = self.probe_dir(key - n, now) {
                    active.insert(head);
                }
                continue;
            }
            let i = key;
            if active.contains(i) {
                continue;
            }
            match self.own_deadline(i) {
                Some(e) if e <= now => active.insert(i),
                Some(e) => self.deadlines.push(e, i),
                None => {}
            }
        }
        let hook_deadline = self.hook.next_deadline(now);
        let hook_due = hook_deadline.is_some_and(|d| d <= now);
        if !active.is_empty() || hook_due {
            // A cycle in which only the hook acts steps no processor: hook
            // commands travel through inboxes and arrive strictly later.
            return StepPlan::Cycle { active, hook_due };
        }
        let mut horizon = self.deadlines.peek();
        if let Some(d) = hook_deadline {
            horizon = Some(horizon.map_or(d, |h| h.min(d)));
        }
        match horizon {
            Some(h) => {
                debug_assert!(h > now, "all now-or-earlier deadlines were handled above");
                StepPlan::Jump(h - now)
            }
            // The oldest marked processor of the machine is always
            // committing, grantable or blocked by an occupancy with a queued
            // release, so no spinner can be waiting here.
            None => {
                debug_assert!(
                    self.waiters.iter().all(|w| w.is_empty()),
                    "a commit spinner with no wake source"
                );
                StepPlan::Quiescent
            }
        }
    }

    /// The head waiter of directory `d` if the directory can be granted to
    /// it at `now`: its oldest marked processor, provided that processor is
    /// spinning on `d` and `d` is idle. When only the occupancy blocks the
    /// head waiter, queue a wake of `d` at its release instead. O(log
    /// marked), and O(1) for a directory nobody waits on.
    fn probe_dir(&mut self, d: DirId, now: Cycle) -> Option<ProcId> {
        let head = self.head_waiter(d)?;
        if let Some(release) = self.dirs[d].busy_release(now) {
            self.deadlines.push(release, self.procs.len() + d);
            return None;
        }
        self.grantable(head, d, now).then_some(head)
    }

    /// The oldest marked processor of directory `d`, if it is one of `d`'s
    /// waiters: the only spinner on `d` that can be granted it.
    fn head_waiter(&self, d: DirId) -> Option<ProcId> {
        if self.waiters[d].is_empty() {
            return None;
        }
        let (_, head) = self.dirs[d].oldest_marked()?;
        self.waiters[d].contains(head).then_some(head)
    }

    /// Whether spinner `i` would be granted directory `d` at `now`: the
    /// check its own step makes in `try_start_flush`.
    fn grantable(&self, i: ProcId, d: DirId, now: Cycle) -> bool {
        let tid = self.procs[i].tid.expect("commit spin requires a TID");
        self.dirs[d].would_grant(i, tid, now)
    }

    /// What processor `i`'s view entries are computed from: its transaction
    /// index, whether it is done and whether it is stopped.
    fn view_key(&self, i: ProcId) -> (usize, bool, bool) {
        let proc = &self.procs[i];
        (proc.tx_idx, proc.is_done(), proc.phase.is_gated_like())
    }

    /// The directory processor `i` spins on, if it is a commit spinner.
    fn waiting_on(&self, i: ProcId) -> Option<DirId> {
        let proc = &self.procs[i];
        match proc.phase {
            Phase::SpinCommit { step_idx } => Some(proc.commit_plan[step_idx].dir),
            _ => None,
        }
    }

    /// The cycle at which processor `i` next acts on its own, as the event
    /// queue tracks it: a commit spinner's next inbox delivery (its grant
    /// is probed through its directory), and for every other processor
    /// [`Processor::next_deadline`] from its accounting watermark, which
    /// folds in the earliest inbox delivery.
    fn own_deadline(&self, i: ProcId) -> Option<Cycle> {
        let proc = &self.procs[i];
        if matches!(proc.phase, Phase::SpinCommit { .. }) {
            proc.inbox.next_delivery()
        } else {
            proc.next_deadline(self.acct_until[i])
        }
    }

    /// Cache the end of processor `i`'s current run of private operations,
    /// seen from its accounting watermark (see `Processor::run_end`).
    fn plan_run(&mut self, i: ProcId) {
        let proc = &mut self.procs[i];
        proc.run_end = proc.find_run_end(self.acct_until[i], &self.map, self.cfg.l1_hit_latency);
    }

    /// Rebuild the fast engine's incremental structures from scratch (after
    /// construction they are only invalidated by interleaved `step_naive`
    /// calls, which mutate processors without maintaining them).
    fn rebuild_fast_state(&mut self) {
        self.deadlines.clear(self.now);
        self.due_next = ProcBits::empty();
        self.waiters.fill(ProcBits::empty());
        let mut gated = 0usize;
        let mut missing = 0usize;
        let mut committing = 0usize;
        let mut throttled = 0usize;
        for i in 0..self.procs.len() {
            self.plan_run(i);
            let proc = &self.procs[i];
            match proc.phase.power_state() {
                PowerState::Gated => gated += 1,
                PowerState::Miss => missing += 1,
                PowerState::Commit => committing += 1,
                PowerState::Throttled => throttled += 1,
                PowerState::Run => {}
            }
            if let Phase::SpinCommit { step_idx } = proc.phase {
                self.waiters[proc.commit_plan[step_idx].dir].insert(i);
            }
            if let Some(d) = self.own_deadline(i) {
                self.deadlines.push(d, i);
            }
        }
        self.state_counts = (gated, missing, committing, throttled);
        self.done_count = self.procs.iter().filter(|p| p.is_done()).count();
        self.view_dirty = ProcBits::all(self.procs.len());
        // Every directory is probed by the next plan, which also re-queues
        // the wakes of blocked head waiters.
        self.dirs_dirty.clear();
        self.dirs_dirty.extend(0..self.dirs.len());
        self.fast_state_stale = false;
    }

    /// Execute one exact cycle, doing per-processor work only for the
    /// processors in `active`. Every other processor was proven inert this
    /// cycle by [`Self::plan_step`] and is not touched at all — its
    /// per-cycle bookkeeping (state-cycle accounting, `attempt_cycles`
    /// increments, countdown decrements) is settled lazily by
    /// [`Self::flush_accounting`] the next time something happens to it.
    ///
    /// Processors are stepped in ascending id order, as the naive engine
    /// steps them. When processor `i` changes a directory, the directory's
    /// head waiter joins this cycle if its id is above `i` and it can be
    /// granted now: the naive engine would step it later in this cycle and
    /// see the change. A head waiter below `i` has had its turn; the
    /// directory stays in `dirs_dirty`, so the next plan probes it.
    fn step_cycle(&mut self, mut active: ProcBits<W>, hook_due: bool) {
        let now = self.now;
        // Interval accounting from the incrementally maintained population
        // counts: O(1) instead of a sweep over every processor.
        self.record_intervals(1);

        // Refresh the view entries of the processors whose entries changed
        // in the last executed cycle (the plan refreshed the changed
        // directories' entries). Jumps change neither, so the result is
        // byte-identical to the naive full refresh, and hooks keep seeing a
        // start-of-cycle snapshot.
        refresh_proc_entries(&mut self.view, &self.procs, self.view_dirty);
        self.view_dirty = ProcBits::empty();

        if hook_due {
            self.apply_hook_commands();
        }

        let mut pending = active;
        while let Some(i) = pending.pop_first() {
            // Settle the lazily skipped cycles, then account the current
            // cycle eagerly (state as of the start of the cycle, exactly
            // like the naive engine's accounting pass).
            self.flush_accounting(i, now);
            let pre_state = self.procs[i].phase.power_state();
            self.procs[i].state_cycles.add(pre_state, 1);
            self.acct_until[i] = now + 1;
            let pre_done = self.procs[i].is_done();
            let pre_view = self.view_key(i);
            let pre_wait = self.waiting_on(i);
            let changed_from = self.dirs_dirty.len();

            self.handle_events(i);
            self.advance_processor(i);

            // Maintain the incremental structures across the transition.
            if self.view_key(i) != pre_view {
                self.view_dirty.insert(i);
            }
            let post_wait = self.waiting_on(i);
            if post_wait != pre_wait {
                if let Some(d) = pre_wait {
                    self.waiters[d].remove(i);
                }
                if let Some(d) = post_wait {
                    self.waiters[d].insert(i);
                    self.dirs_dirty.push(d);
                }
            }
            for k in changed_from..self.dirs_dirty.len() {
                let d = self.dirs_dirty[k];
                if let Some(head) = self.head_waiter(d) {
                    if head > i && self.grantable(head, d, now) {
                        pending.insert(head);
                        active.insert(head);
                    }
                }
            }
            let proc = &self.procs[i];
            let post_state = proc.phase.power_state();
            if post_state != pre_state {
                let c = &mut self.state_counts;
                match pre_state {
                    PowerState::Gated => c.0 -= 1,
                    PowerState::Miss => c.1 -= 1,
                    PowerState::Commit => c.2 -= 1,
                    PowerState::Throttled => c.3 -= 1,
                    PowerState::Run => {}
                }
                match post_state {
                    PowerState::Gated => c.0 += 1,
                    PowerState::Miss => c.1 += 1,
                    PowerState::Commit => c.2 += 1,
                    PowerState::Throttled => c.3 += 1,
                    PowerState::Run => {}
                }
            }
            if proc.is_done() && !pre_done {
                self.done_count += 1;
            }
            // Re-queue at the processor's own deadline, once per step (the
            // run end is cached until its next one). A spinner's entry is its
            // next inbox delivery. Without it a pending delivery is
            // unreachable whenever the rest of the machine is quiescent at
            // its arrival cycle: the emission-time entry may have been
            // collapsed into a phase deadline by a queue rebuild (after
            // naive steps or a checkpoint restore).
            self.plan_run(i);
            match self.own_deadline(i) {
                Some(d) if d == now + 1 => self.due_next.insert(i),
                Some(d) => self.deadlines.push(d, i),
                None => {}
            }
        }
        self.counters.executed_cycles += 1;
        self.counters.processor_steps += active.len() as u64;
        self.now += 1;
    }

    /// Leap `n` quiescent cycles in one jump. Thanks to lazy per-processor
    /// accounting this is O(1): the interval record is taken from the
    /// maintained population counts and nothing else in the machine changes
    /// (the caller proved, via [`Self::plan_step`], that nothing would have
    /// happened).
    fn fast_forward(&mut self, n: u64) {
        debug_assert!(n >= 1);
        self.record_intervals(n);
        self.now += n;
    }

    // ----- per-cycle bookkeeping -------------------------------------------------

    /// Record `cycles` cycles of the current population counts into the
    /// interval tracker (through the pending run, see `interval_run`).
    fn record_intervals(&mut self, cycles: u64) {
        if self.interval_run.1 != self.state_counts {
            self.flush_intervals();
            self.interval_run.1 = self.state_counts;
        }
        self.interval_run.0 += cycles;
    }

    /// Write the pending run of [`Self::record_intervals`] to the tracker.
    fn flush_intervals(&mut self) {
        let (cycles, (gated, missing, committing, throttled)) = self.interval_run;
        if cycles > 0 {
            self.intervals
                .record_with_throttle(cycles, gated, missing, committing, throttled);
            self.interval_run.0 = 0;
        }
    }

    /// Settle processor `i`'s lazily skipped cycles up to (excluding)
    /// `target`: the per-cycle work its naive advance would have done in
    /// `[acct_until[i], target)` — all spent in one power state — is
    /// applied in a single batch. In `Executing` that includes issuing, in
    /// op order, the private operations of the span (`target` never passes
    /// the run end, where the next visible operation issues in a stepped
    /// cycle).
    fn flush_accounting(&mut self, i: ProcId, target: Cycle) {
        let from = self.acct_until[i];
        if target <= from {
            return;
        }
        let span = target - from;
        let proc = &mut self.procs[i];
        proc.state_cycles.add(proc.phase.power_state(), span);
        match &mut proc.phase {
            Phase::PreCompute { remaining } => *remaining -= span,
            Phase::Executing { .. } => {
                // The first skipped cycle is the one that would have stamped
                // the start of the first transaction.
                if proc.first_tx_start.is_none() {
                    proc.first_tx_start = Some(from);
                }
                proc.attempt_cycles += if self.perturb_accounting && span >= 4 {
                    span - 1
                } else {
                    span
                };
                self.counters.private_ops +=
                    proc.replay_private(span, &self.map, self.cfg.l1_hit_latency);
            }
            Phase::WaitMiss { .. }
            | Phase::WaitToken { .. }
            | Phase::SpinCommit { .. }
            | Phase::Committing { .. } => proc.attempt_cycles += span,
            Phase::Aborting { .. }
            | Phase::Backoff { .. }
            | Phase::Throttled { .. }
            | Phase::GateDraining { .. }
            | Phase::WakeRestart { .. }
            | Phase::Gated
            | Phase::Done => {}
        }
        self.acct_until[i] = target;
    }

    /// Eager accounting used by the naive engine: settle any lazy backlog
    /// (a no-op in pure naive runs), then account `cycles` cycles of the
    /// current state for every processor.
    fn account_cycles(&mut self, cycles: u64) {
        let now = self.now;
        for i in 0..self.procs.len() {
            self.flush_accounting(i, now);
        }
        let mut gated = 0usize;
        let mut missing = 0usize;
        let mut committing = 0usize;
        let mut throttled = 0usize;
        for proc in &mut self.procs {
            let state = proc.phase.power_state();
            proc.state_cycles.add(state, cycles);
            match state {
                PowerState::Gated => gated += 1,
                PowerState::Miss => missing += 1,
                PowerState::Commit => committing += 1,
                PowerState::Throttled => throttled += 1,
                PowerState::Run => {}
            }
        }
        for a in &mut self.acct_until {
            *a = now + cycles;
        }
        self.intervals
            .record_with_throttle(cycles, gated, missing, committing, throttled);
    }

    /// Rebuild the whole hook-visible view from the machine state (the
    /// naive engine's per-cycle refresh). It leaves nothing stale, so the
    /// dirty-directory list is emptied.
    fn refresh_view(&mut self) {
        fill_view(&mut self.view, &self.procs, &self.dirs);
        self.dirs_dirty.clear();
    }

    fn debug_check_view(&self) -> Result<(), String> {
        if self.fast_state_stale {
            // The next plan rebuilds the fast state, which marks every entry
            // dirty.
            return Ok(());
        }
        let mut incremental = self.view.clone();
        refresh_proc_entries(&mut incremental, &self.procs, self.view_dirty);
        for &d in &self.dirs_dirty {
            incremental.dir_marked[d] = self.dirs[d].marked_bits().widen();
        }
        let mut full = SystemView::new(self.procs.len(), self.dirs.len());
        fill_view(&mut full, &self.procs, &self.dirs);
        for i in 0..self.procs.len() {
            if incremental.proc_tx[i] != full.proc_tx[i]
                || incremental.proc_gated[i] != full.proc_gated[i]
            {
                return Err(format!("cycle {}: stale view of processor {i}", self.now));
            }
        }
        for d in 0..self.dirs.len() {
            if incremental.dir_marked[d] != full.dir_marked[d] {
                return Err(format!(
                    "cycle {}: stale marked set of directory {d}",
                    self.now
                ));
            }
        }
        Ok(())
    }

    fn debug_check_queue(&self) -> Result<(), String> {
        if self.fast_state_stale {
            // The next plan rebuilds the queue from every processor.
            return Ok(());
        }
        let n = self.procs.len();
        let mut earliest = vec![Cycle::MAX; n];
        self.deadlines.for_each(|d, key| {
            if key < n {
                earliest[key] = earliest[key].min(d);
            }
        });
        for i in self.due_next {
            earliest[i] = self.now;
        }
        for (i, proc) in self.procs.iter().enumerate() {
            if matches!(proc.phase, Phase::Executing { .. }) {
                let run_end =
                    proc.find_run_end(self.acct_until[i], &self.map, self.cfg.l1_hit_latency);
                if proc.run_end != run_end {
                    return Err(format!(
                        "cycle {}: processor {i}'s cached run end is {}, its ops end it at {run_end}",
                        self.now, proc.run_end
                    ));
                }
            }
            if let Some(d) = self.own_deadline(i).filter(|&d| earliest[i] > d) {
                return Err(format!(
                    "cycle {}: processor {i} acts at {d} but its earliest queued entry is {}",
                    self.now,
                    if earliest[i] == Cycle::MAX {
                        "none".to_string()
                    } else {
                        earliest[i].to_string()
                    }
                ));
            }
        }
        Ok(())
    }

    fn debug_check_waiters(&self) -> Result<usize, String> {
        let mut rebuilt = vec![ProcBits::<W>::empty(); self.dirs.len()];
        let mut spinners = 0;
        for i in 0..self.procs.len() {
            if let Some(d) = self.waiting_on(i) {
                rebuilt[d].insert(i);
                spinners += 1;
            }
        }
        if self.fast_state_stale {
            // The next plan rebuilds the waiter sets and probes everything.
            return Ok(spinners);
        }
        let n = self.procs.len();
        let mut wake = vec![Cycle::MAX; self.dirs.len()];
        self.deadlines.for_each(|c, key| {
            if key >= n {
                wake[key - n] = wake[key - n].min(c);
            }
        });
        for (d, dir) in self.dirs.iter().enumerate() {
            if rebuilt[d] != self.waiters[d] {
                return Err(format!(
                    "cycle {}: waiter set of directory {d} is {:?}, a rebuild gives {:?}",
                    self.now,
                    self.waiters[d].iter().collect::<Vec<_>>(),
                    rebuilt[d].iter().collect::<Vec<_>>()
                ));
            }
            let Some(head) = self.head_waiter(d) else {
                continue;
            };
            let ready = dir.busy_release(self.now).unwrap_or(self.now);
            if !self.dirs_dirty.contains(&d) && wake[d] > ready {
                return Err(format!(
                    "cycle {}: head waiter {head} of directory {d} can be granted at {ready} \
                     but nothing will probe the directory by then",
                    self.now
                ));
            }
        }
        Ok(spinners)
    }

    /// Queue `proc` for the fast engine at `deadline`, unless the queue is
    /// stale: the next plan then rebuilds it from every processor, so a
    /// naive step leaves nothing behind that only a fast plan would pop.
    fn queue_deadline(&mut self, deadline: Cycle, proc: ProcId) {
        if !self.fast_state_stale {
            self.deadlines.push(deadline, proc);
        }
    }

    fn apply_hook_commands(&mut self) {
        let mut commands = std::mem::take(&mut self.tick_scratch);
        commands.clear();
        self.hook.on_tick(self.now, &self.view, &mut commands);
        for cmd in &commands {
            match *cmd {
                GateCommand::UngateProcessor { proc, dir } => {
                    // The "on" command travels from the directory to the
                    // processor's PLL enable over the interconnect.
                    let route = Route {
                        src: Node::Dir(dir),
                        dst: Node::Proc(proc),
                    };
                    let arrive = self.net.request(self.now, route, BusTraffic::Control);
                    self.procs[proc]
                        .inbox
                        .push(arrive, ProcEvent::TurnOn { dir });
                    self.queue_deadline(arrive, proc);
                }
            }
        }
        self.tick_scratch = commands;
    }

    // ----- event handling --------------------------------------------------------

    fn handle_events(&mut self, i: ProcId) {
        // Pop directly instead of draining into a `Vec`: event handling is
        // on the per-cycle hot path and must not allocate. Events delivered
        // while handling (none today — every push targets a future cycle)
        // would also be picked up, exactly like the drain they replace.
        while let Some(ev) = self.procs[i].inbox.pop_ready(self.now) {
            match ev {
                ProcEvent::Invalidation {
                    line,
                    dir,
                    aborter,
                    aborter_tx,
                } => {
                    self.procs[i].cache.invalidate(line);
                    if !self.procs[i].read_set.contains(&line) {
                        // Stale invalidation (the attempt that read this line
                        // already ended); nothing to abort.
                        continue;
                    }
                    // Consult the hook: every directory that aborts a victim
                    // logs the abort locally, even if the victim is already
                    // stopped (Section V: gating decisions are directory-local).
                    let action = self
                        .hook
                        .on_abort(dir, i, aborter, aborter_tx, self.now, &self.view);
                    if action == AbortAction::Gate {
                        // A gating directory issues one `TxInfoReq` to the
                        // committing processor whenever it logs an abort in
                        // its table (Fig. 2(d)), even if the victim is
                        // already stopped; the round-trip latency is folded
                        // into the gating window by the controller, so only
                        // the energy-relevant count is recorded here.
                        self.dirs[dir].record_txinfo_roundtrip();
                    }
                    if self.procs[i].phase.is_gated_like() {
                        // Already stopped: the extra invalidation only updates
                        // the aborting directory's table.
                        continue;
                    }
                    if matches!(self.procs[i].phase, Phase::Committing { .. }) {
                        // The victim has already been granted a directory and
                        // passed its validation point; it wins and cannot be
                        // aborted any more.
                        continue;
                    }
                    match action {
                        AbortAction::Retry { backoff: 0 } => {
                            self.begin_abort(i, RetryAfter::Immediately);
                        }
                        AbortAction::Retry { backoff } => {
                            self.begin_abort(i, RetryAfter::Backoff(backoff));
                        }
                        AbortAction::Throttle { duration } => {
                            self.begin_abort(i, RetryAfter::Throttle(duration));
                        }
                        AbortAction::Gate => self.begin_gating(i),
                    }
                }
                ProcEvent::TurnOn { dir: _ } => {
                    if matches!(self.procs[i].phase, Phase::Gated) {
                        self.begin_wake(i);
                    }
                    // A stale "on" for a processor that is already running is
                    // ignored (Section V reconciliation).
                }
            }
        }
    }

    fn release_directory_state(&mut self, i: ProcId, clear_sharers: bool) {
        let mut touched = std::mem::take(&mut self.dir_scratch);
        touched.clear();
        touched.extend(self.procs[i].dirs_touched.iter().copied());
        let tid = self.procs[i].tid;
        for &d in &touched {
            if let Some(tid) = tid {
                self.dirs[d].unmark(tid, i);
            }
            if clear_sharers {
                self.dirs[d].directory.clear_proc(i);
            }
        }
        self.dirs_dirty.extend_from_slice(&touched);
        self.dir_scratch = touched;
    }

    fn begin_abort(&mut self, i: ProcId, then: RetryAfter) {
        let wasted = self.procs[i].attempt_cycles;
        self.procs[i].stats.aborts += 1;
        self.procs[i].stats.wasted_cycles += wasted;
        self.procs[i].aborts_this_tx += 1;
        self.procs[i].cache.abort_speculative();
        self.release_directory_state(i, true);
        self.procs[i].clear_attempt_state();
        self.procs[i].dirs_touched.clear();
        let until = self.now + self.cfg.abort_rollback_latency;
        self.procs[i].phase = Phase::Aborting { until, then };
    }

    fn begin_gating(&mut self, i: ProcId) {
        let wasted = self.procs[i].attempt_cycles;
        self.procs[i].stats.aborts += 1;
        self.procs[i].stats.gatings += 1;
        self.procs[i].stats.wasted_cycles += wasted;
        self.procs[i].aborts_this_tx += 1;
        self.procs[i].attempt_cycles = 0;
        // The frozen transaction keeps its speculative state until the
        // self-abort on wake-up, but it must stop participating in commit
        // arbitration: a gated processor can never be granted a directory
        // (this is what makes the protocol deadlock-free).
        self.release_directory_state(i, false);
        let until = self.now + self.cfg.stop_clock_drain_latency;
        self.procs[i].phase = Phase::GateDraining { until };
    }

    fn begin_wake(&mut self, i: ProcId) {
        // "After this wake-up, the processor needs to do a Self Abort of the
        // transaction it was executing at the time of freeze."
        self.procs[i].cache.abort_speculative();
        self.release_directory_state(i, true);
        self.procs[i].clear_attempt_state();
        self.procs[i].dirs_touched.clear();
        self.hook.on_wake(i, self.now);
        let until = self.now + self.cfg.wake_up_latency + self.cfg.abort_rollback_latency;
        self.procs[i].phase = Phase::WakeRestart { until };
    }

    // ----- processor stepping ----------------------------------------------------

    fn advance_processor(&mut self, i: ProcId) {
        match self.procs[i].phase {
            Phase::Done | Phase::Gated => {}
            Phase::PreCompute { remaining } => {
                if remaining <= 1 {
                    self.procs[i].phase = Phase::Executing {
                        op_idx: 0,
                        remaining: 0,
                    };
                } else {
                    self.procs[i].phase = Phase::PreCompute {
                        remaining: remaining - 1,
                    };
                }
            }
            Phase::Executing { op_idx, remaining } => {
                if self.procs[i].first_tx_start.is_none() {
                    self.procs[i].first_tx_start = Some(self.now);
                }
                self.procs[i].attempt_cycles += 1;
                if remaining > 0 {
                    self.procs[i].phase = Phase::Executing {
                        op_idx,
                        remaining: remaining - 1,
                    };
                } else {
                    self.issue_op(i, op_idx);
                }
            }
            Phase::WaitMiss {
                op_idx,
                until,
                line,
                is_store,
            } => {
                self.procs[i].attempt_cycles += 1;
                if self.now >= until {
                    self.procs[i].cache.fill(line, !is_store, is_store);
                    self.procs[i].phase = Phase::Executing {
                        op_idx,
                        remaining: 0,
                    };
                }
            }
            Phase::WaitToken { until } => {
                self.procs[i].attempt_cycles += 1;
                if self.now >= until {
                    self.mark_commit_plan(i);
                    self.procs[i].phase = Phase::SpinCommit { step_idx: 0 };
                }
            }
            Phase::SpinCommit { step_idx } => {
                self.procs[i].attempt_cycles += 1;
                self.try_start_flush(i, step_idx);
            }
            Phase::Committing { step_idx, until } => {
                self.procs[i].attempt_cycles += 1;
                if self.now >= until {
                    self.finish_flush_step(i, step_idx);
                }
            }
            Phase::Aborting { until, then } => {
                if self.now >= until {
                    match then {
                        RetryAfter::Immediately => self.procs[i].restart_transaction(),
                        RetryAfter::Backoff(backoff) => {
                            self.procs[i].stats.backoff_cycles += backoff;
                            self.procs[i].phase = Phase::Backoff {
                                until: self.now + backoff,
                            };
                        }
                        RetryAfter::Throttle(duration) => {
                            self.procs[i].phase = Phase::Throttled {
                                until: self.now + duration,
                            };
                        }
                    }
                }
            }
            Phase::Backoff { until } | Phase::Throttled { until } => {
                if self.now >= until {
                    self.procs[i].restart_transaction();
                }
            }
            Phase::GateDraining { until } => {
                if self.now >= until {
                    self.procs[i].phase = Phase::Gated;
                }
            }
            Phase::WakeRestart { until } => {
                if self.now >= until {
                    self.procs[i].restart_transaction();
                }
            }
        }
    }

    /// Issue operation `op_idx` of processor `i`: its local half through
    /// [`Processor::issue_local`] (the same path the lazy replay of private
    /// operations takes), then what the rest of the machine sees of it.
    fn issue_op(&mut self, i: ProcId, op_idx: usize) {
        let Some(tx) = self.procs[i].current_tx() else {
            self.procs[i].phase = Phase::Done;
            return;
        };
        if op_idx >= tx.ops.len() {
            self.begin_commit(i);
            return;
        }
        let Issued::Visible {
            line,
            home,
            is_store,
            hit,
        } = self.procs[i].issue_local(op_idx, &self.map, self.cfg.l1_hit_latency)
        else {
            return;
        };
        // A read registers this processor as a speculative sharer with the
        // home directory; stores stay private until commit.
        if !is_store {
            self.dirs[home].directory.add_sharer(line, i);
        }
        if hit {
            // The first read of a line that hits: a background control
            // message, the hit itself does not stall.
            let route = Route {
                src: Node::Proc(i),
                dst: Node::Dir(home),
            };
            self.net.request(self.now, route, BusTraffic::Control);
            self.hook.on_proc_activity(i, home, self.now);
        } else {
            // A read miss, or a write-allocate fetch of the line.
            self.hook.on_proc_activity(i, home, self.now);
            let until = self.miss_fill_time(i, home, line);
            self.procs[i].phase = Phase::WaitMiss {
                op_idx: op_idx + 1,
                until,
                line,
                is_store,
            };
        }
    }

    fn miss_fill_time(&mut self, i: ProcId, home: DirId, line: LineAddr) -> Cycle {
        // Request message competes for its channel now; the directory lookup
        // and (if needed) the memory-bank access queue behind earlier
        // requests to the same home node; the data reply is re-arbitrated
        // when the data is ready (split-transaction channels, so the channel
        // is not held during the memory wait).
        let to_dir = Route {
            src: Node::Proc(i),
            dst: Node::Dir(home),
        };
        let from_dir = Route {
            src: Node::Dir(home),
            dst: Node::Proc(i),
        };
        let req_at_dir = self.net.request(self.now, to_dir, BusTraffic::Control);
        let dir_done = self.dirs[home].service_miss(req_at_dir);
        // Lines that have been committed through this directory before are
        // served directly by the home node (the committed data lives in its
        // buffers / local memory controller); only cold lines pay the full
        // main-memory latency.
        let data_ready = if self.dirs[home].directory.owner(line).is_some() {
            dir_done
        } else {
            self.memory_banks[home].access(dir_done)
        };
        self.net
            .schedule_future(data_ready, from_dir, BusTraffic::Data)
    }

    fn begin_commit(&mut self, i: ProcId) {
        if self.procs[i].write_set.is_empty() {
            // Read-only transactions commit locally without arbitration.
            self.finish_commit(i);
            return;
        }
        // Build the commit plan: one step per home directory, visited in
        // ascending directory order.
        let mut by_dir: Vec<(DirId, Vec<LineAddr>)> = Vec::new();
        let mut lines: Vec<LineAddr> = self.procs[i].write_set.iter().copied().collect();
        lines.sort_unstable();
        for line in lines {
            let home = self.map.home_of(line);
            match by_dir.iter_mut().find(|(d, _)| *d == home) {
                Some((_, v)) => v.push(line),
                None => by_dir.push((home, vec![line])),
            }
        }
        by_dir.sort_unstable_by_key(|(d, _)| *d);
        self.procs[i].commit_plan = by_dir
            .into_iter()
            .map(|(dir, lines)| CommitStep { dir, lines })
            .collect();

        // Token acquisition: request over the interconnect, vendor service,
        // reply back to the processor.
        let to_vendor = Route {
            src: Node::Proc(i),
            dst: Node::Vendor,
        };
        let from_vendor = Route {
            src: Node::Vendor,
            dst: Node::Proc(i),
        };
        let req = self.net.request(self.now, to_vendor, BusTraffic::Control);
        let (tid, ready) = self.token.request(req, i);
        let reply = self.net.request(ready, from_vendor, BusTraffic::Control);
        self.procs[i].tid = Some(tid);
        self.procs[i].phase = Phase::WaitToken { until: reply };
    }

    fn mark_commit_plan(&mut self, i: ProcId) {
        let tid = self.procs[i].tid.expect("marking requires a TID");
        let dirs: Vec<DirId> = self.procs[i].commit_plan.iter().map(|s| s.dir).collect();
        for d in dirs {
            // One control message per directory announces the intention to
            // commit (sets the "Marked" bit the Fig. 2(e) circuit inspects).
            let route = Route {
                src: Node::Proc(i),
                dst: Node::Dir(d),
            };
            self.net.request(self.now, route, BusTraffic::Control);
            self.dirs[d].mark(tid, i);
            self.dirs_dirty.push(d);
        }
    }

    fn try_start_flush(&mut self, i: ProcId, step_idx: usize) {
        let tid = self.procs[i].tid.expect("commit spin requires a TID");
        let dir = self.procs[i].commit_plan[step_idx].dir;
        if !self.dirs[dir].would_grant(i, tid, self.now) {
            return;
        }
        // Granted: the flush occupies the directory for its lookup latency
        // plus one bus data transfer per committed line. Each line becomes
        // owned as it is flushed, and the invalidations to its speculative
        // sharers leave the directory as soon as *that* line commits — so a
        // victim can be aborted (and clock-gated) while the committer is
        // still flushing the rest of its write set here, which is exactly the
        // window the renewal check of Fig. 2(e) inspects.
        let aborter_tx = self.procs[i].current_tx_id().unwrap_or_default();
        let flush_route = Route {
            src: Node::Proc(i),
            dst: Node::Dir(dir),
        };
        // Borrowed out of the plan for the walk and put back after it; the
        // loop only touches other processors' state.
        let lines = std::mem::take(&mut self.procs[i].commit_plan[step_idx].lines);
        let mut t = self.now + self.cfg.directory_latency;
        for &line in &lines {
            t = self.net.request(t, flush_route, BusTraffic::Data);
            let victims = self.dirs[dir].directory.commit_line(line, i);
            for victim in victims {
                if victim == i {
                    continue;
                }
                let inval_route = Route {
                    src: Node::Dir(dir),
                    dst: Node::Proc(victim),
                };
                let deliver = self
                    .net
                    .schedule_future(t, inval_route, BusTraffic::Control);
                let deliver = deliver.max(self.now + 1);
                let ev = ProcEvent::Invalidation {
                    line,
                    dir,
                    aborter: i,
                    aborter_tx,
                };
                self.procs[victim].inbox.push(deliver, ev);
                self.queue_deadline(deliver, victim);
            }
        }
        self.procs[i].commit_plan[step_idx].lines = lines;
        self.dirs[dir].occupy(i, self.now, t);
        self.procs[i].phase = Phase::Committing { step_idx, until: t };
    }

    fn finish_flush_step(&mut self, i: ProcId, step_idx: usize) {
        let dir = self.procs[i].commit_plan[step_idx].dir;
        let tid = self.procs[i]
            .tid
            .expect("a committing processor holds a TID");
        self.dirs[dir].unmark(tid, i);
        self.dirs_dirty.push(dir);
        if step_idx + 1 < self.procs[i].commit_plan.len() {
            self.procs[i].phase = Phase::SpinCommit {
                step_idx: step_idx + 1,
            };
        } else {
            self.finish_commit(i);
        }
    }

    fn finish_commit(&mut self, i: ProcId) {
        let attempt = self.procs[i].attempt_cycles;
        let aborts = self.procs[i].aborts_this_tx;
        self.procs[i].stats.commits += 1;
        self.procs[i].stats.useful_cycles += attempt;
        self.procs[i].stats.aborts_per_tx.record(aborts);
        self.procs[i].cache.commit_speculative();
        self.release_directory_state(i, true);
        self.procs[i].clear_attempt_state();
        self.procs[i].dirs_touched.clear();
        self.hook.on_commit(i, self.now);
        self.last_commit_end = self.last_commit_end.max(self.now);
        self.procs[i].advance_to_next_tx();
    }

    // ----- outcome ---------------------------------------------------------------

    fn into_parts(mut self) -> (RunOutcome, H) {
        self.flush_intervals();
        // Settle every processor's lazy accounting backlog so the outcome
        // covers all `total_cycles` cycles (a no-op after naive runs).
        for i in 0..self.procs.len() {
            self.flush_accounting(i, self.now);
        }
        let total_cycles = self.now;
        let first_tx_start = self
            .procs
            .iter()
            .filter_map(|p| p.first_tx_start)
            .min()
            .unwrap_or(0);
        let state_cycles = self
            .procs
            .iter()
            .map(|p| p.state_cycles)
            .collect::<Vec<_>>();
        let proc_stats = self
            .procs
            .iter()
            .map(|p| p.stats.clone())
            .collect::<Vec<_>>();
        let total_commits = proc_stats.iter().map(|s| s.commits).sum();
        let total_aborts = proc_stats.iter().map(|s| s.aborts).sum();
        let total_gatings = proc_stats.iter().map(|s| s.gatings).sum();
        let dir_stats = self.dirs.iter().map(DirCtrl::stats).collect();
        let outcome = RunOutcome {
            workload: self.workload_name,
            num_procs: self.cfg.num_procs,
            total_cycles,
            first_tx_start,
            last_commit_end: self.last_commit_end,
            state_cycles,
            proc_stats,
            intervals: self.intervals,
            bus: self.net.stats(),
            shard_bus: self.net.shard_stats(),
            dir_stats,
            total_commits,
            total_aborts,
            total_gatings,
        };
        (outcome, self.hook)
    }
}

/// Write every entry of `view` from the machine state.
fn fill_view<const W: usize>(view: &mut SystemView, procs: &[Processor], dirs: &[DirCtrl<W>]) {
    for (i, proc) in procs.iter().enumerate() {
        view.proc_tx[i] = proc.current_tx_id();
        view.proc_gated[i] = proc.phase.is_gated_like();
    }
    for (d, dir) in dirs.iter().enumerate() {
        view.dir_marked[d] = dir.marked_bits().widen();
    }
}

/// Rewrite the view entries of processors `stale` from the machine state.
fn refresh_proc_entries<const W: usize>(
    view: &mut SystemView,
    procs: &[Processor],
    stale: ProcBits<W>,
) {
    for i in stale {
        view.proc_tx[i] = procs[i].current_tx_id();
        view.proc_gated[i] = procs[i].phase.is_gated_like();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{ExponentialBackoff, NoGating};
    use crate::txn::{Op, ThreadTrace, Transaction};
    use htm_sim::checkpoint::CkptWriter;

    fn cfg(procs: usize) -> SimConfig {
        SimConfig::table2(procs)
    }

    fn single_tx_workload() -> WorkloadTrace {
        WorkloadTrace::new(
            "single",
            vec![ThreadTrace::new(vec![Transaction::new(
                0x100,
                vec![Op::Read(0), Op::Compute(10), Op::Write(0)],
            )])],
        )
    }

    #[test]
    fn single_processor_single_transaction_commits() {
        let outcome = TccSystem::new(cfg(1), single_tx_workload(), NoGating)
            .unwrap()
            .run_bounded(100_000, EngineKind::FastForward)
            .unwrap()
            .0;
        assert_eq!(outcome.total_commits, 1);
        assert_eq!(outcome.total_aborts, 0);
        assert!(outcome.total_cycles > 0);
        outcome.check_consistency().unwrap();
    }

    #[test]
    fn read_only_transaction_commits_without_token() {
        let w = WorkloadTrace::new(
            "ro",
            vec![ThreadTrace::new(vec![Transaction::new(
                1,
                vec![Op::Read(0), Op::Read(64)],
            )])],
        );
        let outcome = TccSystem::new(cfg(1), w, NoGating)
            .unwrap()
            .run_bounded(100_000, EngineKind::FastForward)
            .unwrap()
            .0;
        assert_eq!(outcome.total_commits, 1);
        assert_eq!(outcome.total_aborts, 0);
    }

    #[test]
    fn wrong_thread_count_is_rejected() {
        let err = TccSystem::new(cfg(2), single_tx_workload(), NoGating)
            .err()
            .unwrap();
        assert!(matches!(err, SimError::BadWorkload(_)));
    }

    #[test]
    fn out_of_range_address_is_rejected() {
        let w = WorkloadTrace::new(
            "oob",
            vec![ThreadTrace::new(vec![Transaction::new(
                1,
                vec![Op::Read(1 << 40)],
            )])],
        );
        let err = TccSystem::new(cfg(1), w, NoGating).err().unwrap();
        assert!(matches!(err, SimError::BadWorkload(_)));
    }

    #[test]
    fn conflicting_writers_cause_aborts_and_still_commit() {
        // Two processors both read-modify-write the same line several times:
        // at least one abort is inevitable, but every transaction must commit
        // in the end (TCC guarantees progress).
        let tx = |id: u64| Transaction::new(id, vec![Op::Read(0), Op::Compute(50), Op::Write(0)]);
        let w = WorkloadTrace::new(
            "conflict",
            vec![
                ThreadTrace::new(vec![tx(1), tx(2), tx(3)]),
                ThreadTrace::new(vec![tx(11), tx(12), tx(13)]),
            ],
        );
        let outcome = TccSystem::new(cfg(2), w, NoGating)
            .unwrap()
            .run_bounded(1_000_000, EngineKind::FastForward)
            .unwrap()
            .0;
        assert_eq!(outcome.total_commits, 6);
        assert!(
            outcome.total_aborts > 0,
            "conflicting transactions must abort at least once"
        );
        assert_eq!(outcome.total_gatings, 0, "baseline never gates");
        outcome.check_consistency().unwrap();
    }

    #[test]
    fn disjoint_workloads_never_abort() {
        // Each processor works on its own lines: no conflicts, no aborts.
        let tx = |id: u64, base: u64| {
            Transaction::new(id, vec![Op::Read(base), Op::Compute(20), Op::Write(base)])
        };
        let w = WorkloadTrace::new(
            "disjoint",
            vec![
                ThreadTrace::new(vec![tx(1, 0), tx(2, 64)]),
                ThreadTrace::new(vec![tx(11, 4096), tx(12, 4160)]),
            ],
        );
        let outcome = TccSystem::new(cfg(2), w, NoGating)
            .unwrap()
            .run_bounded(1_000_000, EngineKind::FastForward)
            .unwrap()
            .0;
        assert_eq!(outcome.total_commits, 4);
        assert_eq!(outcome.total_aborts, 0);
    }

    #[test]
    fn miss_cycles_are_accounted() {
        let outcome = TccSystem::new(cfg(1), single_tx_workload(), NoGating)
            .unwrap()
            .run_bounded(100_000, EngineKind::FastForward)
            .unwrap()
            .0;
        assert!(outcome.total_miss_cycles() > 0, "the first read must miss");
        assert!(
            outcome.total_commit_cycles() > 0,
            "the write-set flush must be accounted"
        );
    }

    #[test]
    fn consistency_holds_for_conflicting_runs() {
        let tx =
            |id: u64| Transaction::new(id, vec![Op::Read(128), Op::Compute(30), Op::Write(128)]);
        let w = WorkloadTrace::new(
            "conflict",
            vec![
                ThreadTrace::new(vec![tx(1), tx(2)]),
                ThreadTrace::new(vec![tx(21), tx(22)]),
            ],
        );
        let outcome = TccSystem::new(cfg(2), w, NoGating)
            .unwrap()
            .run_bounded(1_000_000, EngineKind::FastForward)
            .unwrap()
            .0;
        outcome.check_consistency().unwrap();
        assert_eq!(outcome.num_procs, 2);
        assert!(outcome.last_commit_end <= outcome.total_cycles);
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let err = TccSystem::new(cfg(1), single_tx_workload(), NoGating)
            .unwrap()
            .run_bounded(3, EngineKind::FastForward)
            .err()
            .unwrap();
        assert_eq!(err, SimError::CycleLimitExceeded { limit: 3 });
    }

    /// A hook that gates on the first abort and ungates a fixed number of
    /// cycles later, used to exercise the gate/wake/self-abort path without
    /// pulling in the full clock-gating controller.
    struct FixedWindowGate {
        window: Cycle,
        pending: Vec<(ProcId, DirId, Cycle)>,
        gated: Vec<bool>,
    }

    impl FixedWindowGate {
        fn new(num_procs: usize, window: Cycle) -> Self {
            Self {
                window,
                pending: Vec::new(),
                gated: vec![false; num_procs],
            }
        }
    }

    impl GatingHook for FixedWindowGate {
        fn on_abort(
            &mut self,
            dir: DirId,
            victim: ProcId,
            _aborter: ProcId,
            _aborter_tx: u64,
            now: Cycle,
            _view: &SystemView,
        ) -> AbortAction {
            if self.gated[victim] {
                return AbortAction::Gate;
            }
            self.gated[victim] = true;
            self.pending.push((victim, dir, now + self.window));
            AbortAction::Gate
        }

        fn on_tick(&mut self, now: Cycle, _view: &SystemView, out: &mut Vec<GateCommand>) {
            // The timer is spent once it fires, whether or not the system
            // honoured the gate (it ignores one whose victim is already
            // committing): the next abort of that victim arms a new one.
            let gated = &mut self.gated;
            self.pending.retain(|&(proc, dir, due)| {
                if now >= due {
                    out.push(GateCommand::UngateProcessor { proc, dir });
                    gated[proc] = false;
                    false
                } else {
                    true
                }
            });
        }

        fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
            self.pending.iter().map(|&(_, _, due)| due.max(now)).min()
        }
    }

    #[test]
    fn gating_hook_produces_gated_cycles_and_all_commits() {
        let tx = |id: u64| Transaction::new(id, vec![Op::Read(0), Op::Compute(80), Op::Write(0)]);
        let w = WorkloadTrace::new(
            "gated-conflict",
            vec![
                ThreadTrace::new(vec![tx(1), tx(2), tx(3)]),
                ThreadTrace::new(vec![tx(11), tx(12), tx(13)]),
            ],
        );
        let outcome = TccSystem::new(cfg(2), w, FixedWindowGate::new(2, 200))
            .unwrap()
            .run_bounded(2_000_000, EngineKind::FastForward)
            .unwrap()
            .0;
        assert_eq!(
            outcome.total_commits, 6,
            "every transaction must still commit"
        );
        assert!(outcome.total_gatings > 0, "conflicts must trigger gating");
        assert!(
            outcome.total_gated_cycles() > 0,
            "gated cycles must be accounted"
        );
        outcome.check_consistency().unwrap();
    }

    /// In-crate differential check: the fast-forward engine must reproduce
    /// the naive engine's outcome bit for bit on a contended gated run (the
    /// exhaustive mode × workload sweep lives in the `clockgate-htm` crate's
    /// differential test suite).
    #[test]
    fn fast_forward_matches_naive_on_gated_conflict() {
        let tx = |id: u64| Transaction::new(id, vec![Op::Read(0), Op::Compute(80), Op::Write(0)]);
        let build = || {
            WorkloadTrace::new(
                "gated-conflict",
                vec![
                    ThreadTrace::new(vec![tx(1), tx(2), tx(3)]),
                    ThreadTrace::new(vec![tx(11), tx(12), tx(13)]),
                ],
            )
        };
        let (fast, _) = TccSystem::new(cfg(2), build(), FixedWindowGate::new(2, 200))
            .unwrap()
            .run_bounded(2_000_000, EngineKind::FastForward)
            .unwrap();
        let (naive, _) = TccSystem::new(cfg(2), build(), FixedWindowGate::new(2, 200))
            .unwrap()
            .run_bounded(2_000_000, EngineKind::Naive)
            .unwrap();
        assert_eq!(fast, naive);
    }

    #[test]
    fn quiescent_deadlock_errors_like_naive_without_burning_cycles() {
        // A hook that gates on the first abort and never wakes anyone: the
        // victim freezes forever and the run must hit the cycle bound. The
        // fast engine proves quiescence and leaps straight to the limit.
        struct GateForever;
        impl GatingHook for GateForever {
            fn on_abort(
                &mut self,
                _dir: DirId,
                _victim: ProcId,
                _aborter: ProcId,
                _aborter_tx: u64,
                _now: Cycle,
                _view: &SystemView,
            ) -> AbortAction {
                AbortAction::Gate
            }
            fn next_deadline(&self, _now: Cycle) -> Option<Cycle> {
                None
            }
        }
        let tx = |id: u64| Transaction::new(id, vec![Op::Read(0), Op::Compute(50), Op::Write(0)]);
        let build = || {
            WorkloadTrace::new(
                "freeze",
                vec![
                    ThreadTrace::new(vec![tx(1), tx(2)]),
                    ThreadTrace::new(vec![tx(11), tx(12)]),
                ],
            )
        };
        let limit = 50_000_000;
        let err = TccSystem::new(cfg(2), build(), GateForever)
            .unwrap()
            .run_bounded(limit, EngineKind::FastForward)
            .err()
            .unwrap();
        assert_eq!(err, SimError::CycleLimitExceeded { limit });
    }

    #[test]
    fn step_jumps_over_quiescent_windows() {
        // Single processor: the first read misses, so after the issue cycle
        // the machine is quiescent until the fill returns and `step` must
        // leap multiple cycles at once.
        let mut sys = TccSystem::new(cfg(1), single_tx_workload(), NoGating).unwrap();
        let mut jumped = false;
        let mut steps = 0u64;
        while !sys.all_done() {
            let before = sys.now();
            sys.step();
            assert!(sys.now() > before, "step must always advance the clock");
            jumped |= sys.now() > before + 1;
            steps += 1;
            assert!(steps < 10_000, "single transaction must finish quickly");
        }
        assert!(jumped, "the miss stall must be skipped in one jump");
        let outcome = sys.into_parts().0;
        assert_eq!(outcome.total_commits, 1);
        outcome.check_consistency().unwrap();
    }

    fn ckpt_workload() -> WorkloadTrace {
        let tx = |id: u64| Transaction::new(id, vec![Op::Read(0), Op::Compute(50), Op::Write(0)]);
        WorkloadTrace::new(
            "ckpt",
            vec![
                ThreadTrace::new(vec![tx(1), tx(2), tx(3)]),
                ThreadTrace::new(vec![tx(11), tx(12), tx(13)]),
            ],
        )
    }

    fn ckpt_hook() -> ExponentialBackoff {
        ExponentialBackoff::new(2, 16, 4)
    }

    #[test]
    fn checkpoint_resumed_run_equals_uninterrupted_run() {
        let (reference, _) = TccSystem::new(cfg(2), ckpt_workload(), ckpt_hook())
            .unwrap()
            .run_bounded(2_000_000, EngineKind::FastForward)
            .unwrap();
        // Checkpoint at several mid-run cycles, including awkward ones that
        // land inside miss stalls and commit arbitration.
        for t in [1, 37, 256, 1000, 3000] {
            let mut sys = TccSystem::new(cfg(2), ckpt_workload(), ckpt_hook()).unwrap();
            sys.advance_until(t);
            let saved_at = sys.now();
            let payload = sys.save_checkpoint();
            let resumed =
                TccSystem::restore_checkpoint(cfg(2), ckpt_workload(), ckpt_hook(), &payload)
                    .unwrap();
            assert_eq!(resumed.now(), saved_at);
            let (outcome, _) = resumed
                .run_bounded(2_000_000, EngineKind::FastForward)
                .unwrap();
            assert_eq!(outcome, reference, "resume at cycle {t} diverged");
        }
    }

    /// Two processors contending on one line with compute spans on both
    /// sides of the event queue's 4096-cycle wheel horizon.
    fn horizon_workload() -> WorkloadTrace {
        let tx = |id: u64, span: u64| {
            Transaction::new(id, vec![Op::Read(0), Op::Compute(span), Op::Write(0)])
        };
        WorkloadTrace::new(
            "horizon",
            vec![
                ThreadTrace::new(vec![tx(1, 4095), tx(2, 4097), tx(3, 10_000)]),
                ThreadTrace::new(vec![tx(11, 4096), tx(12, 10_000), tx(13, 4095)]),
            ],
        )
    }

    /// Back-offs of 3000, 6000 and 12 000 cycles: the later ones overflow
    /// the wheel.
    fn horizon_hook() -> ExponentialBackoff {
        ExponentialBackoff::new(2, 3000, 2)
    }

    #[test]
    fn checkpoint_with_far_deadlines_pending_resumes_byte_identically() {
        let mut sys = Machine::<_, 1>::new(cfg(2), horizon_workload(), horizon_hook()).unwrap();
        while sys.deadlines.overflow_len() == 0 {
            assert!(!sys.is_complete(), "no deadline ever passed the horizon");
            sys.step();
        }
        let payload = sys.save_checkpoint();
        let mut resumed = Machine::<_, 1>::restore_checkpoint(
            cfg(2),
            horizon_workload(),
            horizon_hook(),
            &payload,
        )
        .unwrap();
        let later = sys.now + 20_000;
        sys.advance_until(later);
        resumed.advance_until(later);
        assert!(!sys.is_complete(), "the run must still be going");
        assert_eq!(resumed.save_checkpoint(), sys.save_checkpoint());
        let (outcome, _) = resumed
            .run_bounded(5_000_000, EngineKind::FastForward)
            .unwrap();
        let (reference, _) = TccSystem::new(cfg(2), horizon_workload(), horizon_hook())
            .unwrap()
            .run_bounded(5_000_000, EngineKind::Naive)
            .unwrap();
        assert_eq!(outcome, reference);
        assert_eq!(outcome.total_commits, 6);
        assert!(
            outcome.total_aborts > 0,
            "the back-off windows must be used"
        );
    }

    #[test]
    fn checkpoint_resumed_run_equals_uninterrupted_run_naive_engine() {
        let (reference, _) = TccSystem::new(cfg(2), ckpt_workload(), ckpt_hook())
            .unwrap()
            .run_bounded(2_000_000, EngineKind::Naive)
            .unwrap();
        let mut sys = TccSystem::new(cfg(2), ckpt_workload(), ckpt_hook()).unwrap();
        while sys.now() < 700 && !sys.is_complete() {
            sys.step_naive();
        }
        let payload = sys.save_checkpoint();
        let resumed =
            TccSystem::restore_checkpoint(cfg(2), ckpt_workload(), ckpt_hook(), &payload).unwrap();
        let (outcome, _) = resumed.run_bounded(2_000_000, EngineKind::Naive).unwrap();
        assert_eq!(outcome, reference);
    }

    #[test]
    fn taking_a_checkpoint_does_not_perturb_the_run() {
        let (reference, _) = TccSystem::new(cfg(2), ckpt_workload(), ckpt_hook())
            .unwrap()
            .run_bounded(2_000_000, EngineKind::FastForward)
            .unwrap();
        let mut sys = TccSystem::new(cfg(2), ckpt_workload(), ckpt_hook()).unwrap();
        // Save (and discard) checkpoints repeatedly while the run proceeds:
        // the early accounting flush must be invisible.
        for t in [100, 400, 900, 1600] {
            sys.advance_until(t);
            let _ = sys.save_checkpoint();
        }
        let (outcome, _) = sys.run_bounded(2_000_000, EngineKind::FastForward).unwrap();
        assert_eq!(outcome, reference);
    }

    #[test]
    fn checkpoint_payload_is_deterministic() {
        let make = || {
            let mut sys = TccSystem::new(cfg(2), ckpt_workload(), ckpt_hook()).unwrap();
            sys.advance_until(900);
            sys.save_checkpoint()
        };
        assert_eq!(make(), make(), "identical runs must serialize identically");
    }

    #[test]
    fn restore_rejects_wrong_workload() {
        let mut sys = TccSystem::new(cfg(2), ckpt_workload(), ckpt_hook()).unwrap();
        sys.advance_until(500);
        let payload = sys.save_checkpoint();
        let mut other = ckpt_workload();
        other.threads[0].transactions[0].ops[0] = Op::Read(64);
        let err = TccSystem::restore_checkpoint(cfg(2), other, ckpt_hook(), &payload)
            .err()
            .unwrap();
        assert!(matches!(err, SimError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn restore_rejects_wrong_config() {
        let mut sys = TccSystem::new(cfg(2), ckpt_workload(), ckpt_hook()).unwrap();
        sys.advance_until(500);
        let payload = sys.save_checkpoint();
        let mut other_cfg = cfg(2);
        other_cfg.l1_hit_latency += 1;
        let err = TccSystem::restore_checkpoint(other_cfg, ckpt_workload(), ckpt_hook(), &payload)
            .err()
            .unwrap();
        assert!(matches!(err, SimError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn restore_rejects_truncated_payload() {
        let mut sys = TccSystem::new(cfg(2), ckpt_workload(), ckpt_hook()).unwrap();
        sys.advance_until(500);
        let payload = sys.save_checkpoint();
        let err = TccSystem::restore_checkpoint(
            cfg(2),
            ckpt_workload(),
            ckpt_hook(),
            &payload[..payload.len() - 3],
        )
        .err()
        .unwrap();
        assert!(matches!(err, SimError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn perturbed_fast_engine_diverges_from_naive() {
        // The planted accounting bug must be observable (the divergence
        // harness's self-test depends on it) and must only affect the
        // fast-forward engine.
        let run = |engine: EngineKind, perturb: bool| {
            let mut sys = TccSystem::new(cfg(2), ckpt_workload(), NoGating).unwrap();
            if perturb {
                sys.debug_perturb_fast_accounting();
            }
            sys.run_bounded(2_000_000, engine).unwrap().0
        };
        let naive = run(EngineKind::Naive, true);
        assert_eq!(
            naive,
            run(EngineKind::Naive, false),
            "naive engine settles accounting every cycle, so the bug is dormant there"
        );
        let fast = run(EngineKind::FastForward, true);
        assert_ne!(
            fast, naive,
            "the planted bug must make the fast engine observably diverge"
        );
    }

    /// A contended synthetic workload for `procs` processors in groups of
    /// six (so some groups straddle a 64-processor word boundary): every
    /// transaction reads one of its group's four hot lines, computes, writes
    /// another and reads a private line, so commits invalidate readers
    /// across words while the groups keep the run short.
    fn contended_workload(procs: usize, seed: u64) -> WorkloadTrace {
        let mut rng = htm_sim::rng::DeterministicRng::new(seed);
        let threads = (0..procs)
            .map(|p| {
                let hot = 4 * (p as u64 / 6);
                let txs = (0..3)
                    .map(|t| {
                        let ops = vec![
                            Op::Read(64 * (hot + rng.gen_range(4))),
                            Op::Compute(5 + rng.gen_range(30)),
                            Op::Write(64 * (hot + rng.gen_range(4))),
                            Op::Read(4096 * (p as u64 + 1)),
                        ];
                        Transaction::new((p * 16 + t) as u64, ops)
                    })
                    .collect();
                ThreadTrace::new(txs)
            })
            .collect();
        WorkloadTrace::new("contended", threads)
    }

    /// Backs a victim off by eight cycles per marked processor when the
    /// aborting directory has an odd-numbered processor marked, and gates
    /// it for 120 cycles otherwise, so the run depends on the widened marked
    /// sets of the view. Unlike [`FixedWindowGate`] it asks the view whether
    /// the victim is already stopped instead of keeping flags of its own.
    #[derive(Default)]
    struct MarkedAwareGate {
        pending: Vec<(ProcId, DirId, Cycle)>,
    }

    impl GatingHook for MarkedAwareGate {
        fn on_abort(
            &mut self,
            dir: DirId,
            victim: ProcId,
            _aborter: ProcId,
            _aborter_tx: u64,
            now: Cycle,
            view: &SystemView,
        ) -> AbortAction {
            let marked = view.marked_bits(dir);
            if marked.iter().any(|p| p % 2 == 1) {
                return AbortAction::Retry {
                    backoff: 8 * marked.len() as u64,
                };
            }
            if !view.is_gated(victim) {
                self.pending.push((victim, dir, now + 120));
            }
            AbortAction::Gate
        }

        fn on_tick(&mut self, now: Cycle, _view: &SystemView, out: &mut Vec<GateCommand>) {
            self.pending.retain(|&(proc, dir, due)| {
                if now >= due {
                    out.push(GateCommand::UngateProcessor { proc, dir });
                    false
                } else {
                    true
                }
            });
        }

        fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
            self.pending.iter().map(|&(_, _, due)| due.max(now)).min()
        }
    }

    fn width_cfg(procs: usize) -> SimConfig {
        if procs <= 16 {
            cfg(procs)
        } else {
            SimConfig::table2_with_topology(procs, TopologyConfig::parse("sharded").unwrap())
        }
    }

    /// Run the contended workload on a `W`-word machine, saving a
    /// checkpoint every 1000 cycles; returns the outcome and the payloads'
    /// digests.
    fn run_at_width<const W: usize>(procs: usize) -> (RunOutcome, Vec<u64>) {
        let hook = MarkedAwareGate::default();
        let mut sys =
            Machine::<_, W>::new(width_cfg(procs), contended_workload(procs, 3), hook).unwrap();
        let mut digests = Vec::new();
        while !sys.is_complete() {
            assert!(sys.now < 5_000_000, "{procs}p run at {W} words livelocked");
            sys.advance_until(sys.now + 1000);
            digests.push(htm_sim::checkpoint::fnv1a64(&sys.save_checkpoint()));
        }
        (sys.into_parts().0, digests)
    }

    #[test]
    fn every_admissible_width_runs_byte_identically() {
        for procs in [4, 16, 64, 65, 256] {
            let (wide, wide_digests) = run_at_width::<16>(procs);
            assert!(wide.total_gatings > 0, "{procs}p workload must gate");
            let (four, four_digests) = run_at_width::<4>(procs);
            assert_eq!(four, wide, "{procs}p outcome at 4 words");
            assert_eq!(four_digests, wide_digests, "{procs}p payloads at 4 words");
            if procs <= 64 {
                let (one, one_digests) = run_at_width::<1>(procs);
                assert_eq!(one, wide, "{procs}p outcome at 1 word");
                assert_eq!(one_digests, wide_digests, "{procs}p payloads at 1 word");
            }
            // The public system picks the narrowest width and agrees too.
            let hook = MarkedAwareGate::default();
            let (public, _) = TccSystem::new(width_cfg(procs), contended_workload(procs, 3), hook)
                .unwrap()
                .run_bounded(5_000_000, EngineKind::FastForward)
                .unwrap();
            assert_eq!(public, wide, "{procs}p through TccSystem");
        }
    }

    #[test]
    fn a_checkpoint_resumes_at_another_width() {
        // Saved by a one-word machine mid-run, resumed by a sixteen-word one.
        let (cfg16, workload) = (width_cfg(16), || contended_workload(16, 3));
        let mut narrow = Machine::<_, 1>::new(
            cfg16.clone(),
            workload(),
            ExponentialBackoff::new(16, 16, 4),
        )
        .unwrap();
        narrow.advance_until(1500);
        assert!(
            !narrow.is_complete(),
            "the checkpoint must be taken mid-run"
        );
        let payload = narrow.save_checkpoint();
        let reference = narrow
            .run_bounded(5_000_000, EngineKind::FastForward)
            .unwrap()
            .0;
        let resumed = Machine::<_, 16>::restore_checkpoint(
            cfg16,
            workload(),
            ExponentialBackoff::new(16, 16, 4),
            &payload,
        )
        .unwrap();
        let (outcome, _) = resumed
            .run_bounded(5_000_000, EngineKind::FastForward)
            .unwrap();
        assert_eq!(outcome, reference);
    }

    #[test]
    fn machines_refuse_processor_counts_past_their_width() {
        let err = Machine::<_, 1>::new(cfg(65), contended_workload(65, 1), NoGating)
            .err()
            .unwrap();
        assert!(matches!(err, SimError::BadConfig(_)), "{err}");
    }

    /// `payload` with directory 0's sharer/owner record replaced by one
    /// whose only line is shared by `sharer`, with or without the matching
    /// entry in `sharer`'s reader set.
    fn splice_sharer(
        sys: &mut Machine<NoGating, 1>,
        payload: &[u8],
        sharer: ProcId,
        reader_entry: bool,
    ) -> Vec<u8> {
        let mut r = CkptReader::new(payload);
        SimConfig::load_ckpt(&mut r).unwrap();
        r.get_str().unwrap();
        for _ in 0..3 {
            r.get_u64().unwrap();
        }
        IntervalTracker::load_ckpt(&mut r).unwrap();
        // Decoding a processor record needs a processor to decode into; the
        // machine's own processors are in exactly the saved state.
        assert_eq!(r.get_usize().unwrap(), sys.procs.len());
        for proc in &mut sys.procs {
            proc.restore_ckpt(&mut r).unwrap();
        }
        r.get_usize().unwrap();
        let start = payload.len() - r.remaining();
        htm_mem::Directory::<1>::load_ckpt(&mut r).unwrap();
        let end = payload.len() - r.remaining();

        let mut w = CkptWriter::new();
        w.put_usize(0); // directory id
        w.put_usize(sys.procs.len());
        w.put_usize(1); // one line
        w.put_u64(0);
        htm_sim::ProcSet::from_iter([sharer]).save_ckpt(&mut w);
        w.put_opt_usize(None);
        for p in 0..sys.procs.len() {
            w.put_u64_slice(if reader_entry && p == sharer {
                &[0]
            } else {
                &[]
            });
        }
        for _ in 0..3 {
            w.put_u64(0);
        }
        let mut spliced = payload[..start].to_vec();
        spliced.extend_from_slice(&w.into_payload());
        spliced.extend_from_slice(&payload[end..]);
        spliced
    }

    #[test]
    fn four_processor_restore_rejects_a_sharer_past_the_width() {
        let mut sys = Machine::<_, 1>::new(cfg(4), contended_workload(4, 1), NoGating).unwrap();
        sys.advance_until(60);
        let payload = sys.save_checkpoint();
        let restore = |payload: &[u8]| {
            TccSystem::restore_checkpoint(cfg(4), contended_workload(4, 1), NoGating, payload)
        };
        // The splice itself is well formed: a member the machine has loads,
        // with its reader-set entry.
        assert!(restore(&splice_sharer(&mut sys, &payload, 2, true)).is_ok());
        // The same sharer bit without its reader-set entry is inconsistent.
        match restore(&splice_sharer(&mut sys, &payload, 2, false)) {
            Err(SimError::Checkpoint(msg)) => assert!(msg.contains("reader-set"), "{msg}"),
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("a sharer bit without its reader-set entry restored"),
        }
        // Processor 100 does not fit one word: a clean error, no panic.
        match restore(&splice_sharer(&mut sys, &payload, 100, true)) {
            Err(SimError::Checkpoint(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("processor 100 restored into a 4-processor machine"),
        }
    }

    /// The gate-once hook on a grouped 128-processor machine: some of its
    /// gates land on victims already past their validation point, which the
    /// system ignores, and a later abort of such a victim must still get a
    /// timer of its own.
    #[test]
    fn fixed_window_gate_finishes_a_grouped_128_processor_run() {
        let procs = 128;
        let run = |engine| {
            TccSystem::new(
                width_cfg(procs),
                contended_workload(procs, 3),
                FixedWindowGate::new(procs, 120),
            )
            .unwrap()
            .run_bounded(5_000_000, engine)
            .unwrap()
            .0
        };
        let fast = run(EngineKind::FastForward);
        assert!(fast.total_gatings > 0, "the run must gate");
        assert_eq!(fast.total_commits, 3 * procs as u64);
        assert_eq!(fast, run(EngineKind::Naive));
    }

    /// Naive steps leave the fast engine's queue empty: the invalidations
    /// and `TurnOn`s they deliver are found by the next fast plan's
    /// rebuild, not by entries that only a fast plan would pop.
    #[test]
    fn naive_steps_leave_the_event_queue_empty() {
        let procs = 64;
        let mut sys = Machine::<_, 1>::new(
            width_cfg(procs),
            contended_workload(procs, 3),
            MarkedAwareGate::default(),
        )
        .unwrap();
        while !sys.is_complete() {
            assert!(sys.now < 5_000_000, "naive {procs}p run livelocked");
            sys.step_naive();
            if sys.now % 256 == 0 {
                assert_eq!(sys.deadlines.len(), 0, "cycle {}", sys.now);
            }
        }
        assert_eq!(sys.deadlines.len(), 0);
        let (outcome, _) = sys.into_parts();
        assert!(outcome.total_aborts > 0, "the run must invalidate");
        assert!(outcome.total_gatings > 0, "the run must gate and wake");
    }

    /// Processor 0 writes 48 lines homed at directory 0 and commits first;
    /// then `spinners` processors, which wrote one line there each, ask for
    /// younger TIDs and spin at their commits while processor 0's flush
    /// occupies the directory. The last processor reads eight lines, then
    /// re-reads them in read-only transactions: each re-read is the first
    /// read of its line in its attempt and a hit, a visible op, so it
    /// issues one every cycle and every cycle of that window is executed.
    /// The sharded fabric keeps the flush off the spinners' token path.
    fn parked_spinner_system(spinners: usize) -> TccSystem<NoGating> {
        let mut threads = vec![ThreadTrace::new(vec![Transaction::new(
            1,
            (0..48).map(|j| Op::Write(64 * j)).collect(),
        )])];
        for p in 1..=spinners as u64 {
            threads.push(ThreadTrace::new(vec![Transaction::new(
                1 + p,
                vec![Op::Write(64 * (48 + p)), Op::Compute(5_800)],
            )]));
        }
        let base = 4096 * (spinners as u64 + 1);
        let reads: Vec<Op> = (0..8).map(|j| Op::Read(base + 64 * j)).collect();
        let txs = (0..1_000)
            .map(|t| Transaction::new(100 + t, reads.clone()))
            .collect();
        threads.push(ThreadTrace::new(txs));
        let sharded = TopologyConfig::parse("sharded").unwrap();
        let cfg = SimConfig::table2_with_topology(spinners + 2, sharded);
        TccSystem::new(cfg, WorkloadTrace::new("parked", threads), NoGating).unwrap()
    }

    #[test]
    fn blocked_spinners_are_not_stepped_while_nothing_changes() {
        // Cost pin: in a cycle in which no directory changed and no
        // occupancy released, no blocked commit spinner is stepped. Here
        // only the executing processor is, however many spin.
        const SPINNERS: usize = 8;
        let mut sys = parked_spinner_system(SPINNERS);
        let (mut cycles, mut steps) = (0, 0);
        while !sys.is_complete() {
            let parked = on_machine!(&sys.0, m => {
                let spinning = (1..=SPINNERS)
                    .all(|i| matches!(m.procs[i].phase, Phase::SpinCommit { .. }));
                let occupied = matches!(
                    m.procs[0].phase,
                    Phase::Committing { until, .. } if until > m.now
                );
                spinning && occupied
            });
            let before = sys.engine_counters();
            sys.step();
            if parked {
                let after = sys.engine_counters();
                cycles += after.executed_cycles - before.executed_cycles;
                steps += after.processor_steps - before.processor_steps;
            }
        }
        assert!(cycles > 100, "the window must be long: {cycles} cycles");
        assert_eq!(steps, cycles, "one processor stepped per executed cycle");
    }

    /// Processor 1 reads line 0, then issues 120 private ops of one kind
    /// (`run`). Processor 0 computes for 60 cycles, then writes line 0 and
    /// commits, so its invalidation reaches processor 1 in the middle of
    /// that run.
    fn coalesced_run_workload(run: Op) -> WorkloadTrace {
        let mut ops = vec![Op::Read(0)];
        ops.extend(std::iter::repeat_n(run, 120));
        WorkloadTrace::new(
            "coalesced",
            vec![
                ThreadTrace::new(vec![Transaction::new(
                    1,
                    vec![Op::Compute(60), Op::Write(0)],
                )]),
                ThreadTrace::new(vec![Transaction::new(2, ops)]),
            ],
        )
    }

    /// Run [`coalesced_run_workload`] on both engines under `hook()`: the
    /// invalidation must land inside the run, the fast engine's payload at
    /// every cycle (advanced there in one go, and cycle by cycle) must equal
    /// the naive engine's, and so must the outcomes.
    fn assert_private_run_invalidation_is_exact<H: GatingHook>(run: Op, hook: impl Fn() -> H) {
        let build = || Machine::<_, 1>::new(cfg(2), coalesced_run_workload(run), hook()).unwrap();
        let mut naive = build();
        let mut payloads = Vec::new();
        let mut invalidated_in = None;
        while !naive.is_complete() {
            assert!(naive.now < 100_000, "{run:?}: the run must finish");
            payloads.push(naive.save_checkpoint());
            let (before, aborts) = (naive.procs[1].phase, naive.procs[1].stats.aborts);
            naive.step_naive();
            if naive.procs[1].stats.aborts > aborts {
                invalidated_in.get_or_insert(before);
            }
        }
        assert!(
            matches!(invalidated_in, Some(Phase::Executing { op_idx, .. }) if (2..120).contains(&op_idx)),
            "{run:?}: the invalidation landed in {invalidated_in:?}"
        );
        let mut stepped = build();
        for (t, payload) in payloads.iter().enumerate() {
            let t = t as Cycle;
            stepped.advance_until(t);
            assert!(
                stepped.save_checkpoint() == *payload,
                "{run:?}: stepped to cycle {t}"
            );
            let mut direct = build();
            direct.advance_until(t);
            assert!(
                direct.save_checkpoint() == *payload,
                "{run:?}: jumped to cycle {t}"
            );
        }
        let mut fast = build();
        fast.advance_until(Cycle::MAX);
        assert!(
            fast.counters.private_ops >= 100,
            "{run:?}: the run must be coalesced ({:?})",
            fast.counters
        );
        assert_eq!(fast.into_parts().0, naive.into_parts().0, "{run:?}");
    }

    #[test]
    fn invalidations_in_the_middle_of_private_runs_are_engine_exact() {
        // One run of each private kind: compute ops, re-read hits of line 0
        // and write hits on it. The fast engine settles the run lazily and
        // must replay exactly the ops issued before the delivery.
        for run in [Op::Compute(1), Op::Read(0), Op::Write(0)] {
            assert_private_run_invalidation_is_exact(run, || NoGating);
            assert_private_run_invalidation_is_exact(run, || FixedWindowGate::new(2, 50));
        }
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let tx = |id: u64| Transaction::new(id, vec![Op::Read(64), Op::Compute(25), Op::Write(64)]);
        let build = || {
            WorkloadTrace::new(
                "det",
                vec![
                    ThreadTrace::new(vec![tx(1), tx(2)]),
                    ThreadTrace::new(vec![tx(21), tx(22)]),
                ],
            )
        };
        let a = TccSystem::new(cfg(2), build(), NoGating)
            .unwrap()
            .run_bounded(1_000_000, EngineKind::FastForward)
            .unwrap()
            .0;
        let b = TccSystem::new(cfg(2), build(), NoGating)
            .unwrap()
            .run_bounded(1_000_000, EngineKind::FastForward)
            .unwrap()
            .0;
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.total_aborts, b.total_aborts);
        assert_eq!(a.state_cycles, b.state_cycles);
    }
}
