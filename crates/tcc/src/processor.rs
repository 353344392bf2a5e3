//! Per-core execution state machine.
//!
//! Each simulated processor executes the transactions of one [`ThreadTrace`]
//! in order. The phases follow the life of a TCC transaction as described in
//! Sections II, III and V of the paper:
//!
//! * non-transactional prologue → transactional execution (loads set SR bits,
//!   stores are buffered with SM bits),
//! * miss stalls while the distributed directory + memory service a line,
//! * at the end of the atomic region: TID acquisition from the token vendor,
//!   then spinning at the commit instruction until each write-set directory
//!   grants access in TID order,
//! * the actual commit flush (during which other speculative readers of the
//!   committed lines are invalidated and abort),
//! * abort roll-back and retry — either immediately / after a back-off spin
//!   (ungated baseline) or through the clock-gated standby of the paper's
//!   proposal, which ends with a "Self Abort" when the "on" signal arrives.
//!
//! The heavy lifting (interaction with the bus, directories, token vendor and
//! the gating hook) lives in [`crate::system::TccSystem`]; this module owns
//! only per-processor state so it can be unit-tested in isolation.

use serde::{Deserialize, Serialize};

use htm_mem::{AccessOutcome, AddressMap, LineAddr, SpecCache};
use htm_sim::checkpoint::{CkptError, CkptReader, CkptWriter};
use htm_sim::fxhash::FxHashSet;
use htm_sim::queue::TimedQueue;
use htm_sim::{Cycle, DirId, ProcId};

use crate::stats::{PowerState, ProcStats, StateCycles};
use crate::txn::{Op, ThreadTrace, Transaction, TxId};

/// An event delivered to a processor through the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcEvent {
    /// A directory committed a line this processor had speculatively read;
    /// the processor must abort its current transaction (and, under the
    /// paper's proposal, is clock-gated).
    Invalidation {
        /// The committed line.
        line: LineAddr,
        /// Directory that generated the invalidation.
        dir: DirId,
        /// The committing (aborting) processor.
        aborter: ProcId,
        /// Static transaction the aborter was committing.
        aborter_tx: TxId,
    },
    /// The "on" command from a directory: wake up, self-abort, retry.
    TurnOn {
        /// Directory that issued the command.
        dir: DirId,
    },
}

impl ProcEvent {
    /// Serialize into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        match *self {
            ProcEvent::Invalidation {
                line,
                dir,
                aborter,
                aborter_tx,
            } => {
                w.put_u8(0);
                w.put_u64(line.0);
                w.put_usize(dir);
                w.put_usize(aborter);
                w.put_u64(aborter_tx);
            }
            ProcEvent::TurnOn { dir } => {
                w.put_u8(1);
                w.put_usize(dir);
            }
        }
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        match r.get_u8()? {
            0 => Ok(ProcEvent::Invalidation {
                line: LineAddr(r.get_u64()?),
                dir: r.get_usize()?,
                aborter: r.get_usize()?,
                aborter_tx: r.get_u64()?,
            }),
            1 => Ok(ProcEvent::TurnOn {
                dir: r.get_usize()?,
            }),
            t => Err(CkptError::Corrupt(format!("unknown ProcEvent tag {t}"))),
        }
    }
}

/// One step of a commit plan: a directory and the write-set lines homed there.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitStep {
    /// Target directory.
    pub dir: DirId,
    /// Write-set lines homed at that directory.
    pub lines: Vec<LineAddr>,
}

impl CommitStep {
    /// Serialize into a checkpoint payload (line order preserved verbatim —
    /// the flush replays the lines in exactly this order).
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_usize(self.dir);
        w.put_usize(self.lines.len());
        for line in &self.lines {
            w.put_u64(line.0);
        }
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let dir = r.get_usize()?;
        let n = r.get_usize()?;
        let mut lines = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            lines.push(LineAddr(r.get_u64()?));
        }
        Ok(Self { dir, lines })
    }
}

/// What a processor does once its abort roll-back completes, decided by the
/// contention-management hook's [`crate::hooks::AbortAction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryAfter {
    /// Restart the transaction immediately (plain TCC).
    Immediately,
    /// Spin at full run power for the given back-off window first.
    Backoff(Cycle),
    /// Wait out the given window in the DVFS-reduced [`Phase::Throttled`]
    /// state first.
    Throttle(Cycle),
}

impl RetryAfter {
    /// Serialize into a checkpoint payload.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        match *self {
            RetryAfter::Immediately => w.put_u8(0),
            RetryAfter::Backoff(c) => {
                w.put_u8(1);
                w.put_u64(c);
            }
            RetryAfter::Throttle(c) => {
                w.put_u8(2);
                w.put_u64(c);
            }
        }
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        match r.get_u8()? {
            0 => Ok(RetryAfter::Immediately),
            1 => Ok(RetryAfter::Backoff(r.get_cycle()?)),
            2 => Ok(RetryAfter::Throttle(r.get_cycle()?)),
            t => Err(CkptError::Corrupt(format!("unknown RetryAfter tag {t}"))),
        }
    }
}

/// What the processor-local half of an issued operation leaves for the
/// machine to do ([`Processor::issue_local`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Issued {
    /// Only the processor's own cache, speculative sets and phase changed:
    /// a compute op, a re-read of a line already in the read set, or a
    /// write hit. No other component can observe it.
    Private,
    /// A memory access other components see: the first read of a line in
    /// this attempt (a hit registers a sharer and makes a bus request), or
    /// any miss. On a hit the next phase is already set; on a miss the
    /// machine times the fill and sets `Phase::WaitMiss`.
    Visible {
        /// The accessed line.
        line: LineAddr,
        /// Its home directory.
        home: DirId,
        /// Whether the access was a store.
        is_store: bool,
        /// Whether the cache held the line.
        hit: bool,
    },
}

/// Execution phase of a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Executing the non-transactional prologue of the next transaction.
    PreCompute {
        /// Cycles of prologue remaining.
        remaining: u64,
    },
    /// Executing operations inside the atomic region.
    Executing {
        /// Index of the next operation to issue.
        op_idx: usize,
        /// Remaining cycles of the operation currently in flight (compute
        /// cycles or the L1 hit latency).
        remaining: u64,
    },
    /// Stalled waiting for a miss fill.
    WaitMiss {
        /// Operation index to resume at (the memory op that missed has
        /// already been charged; execution resumes at `op_idx`).
        op_idx: usize,
        /// Cycle at which the fill completes.
        until: Cycle,
        /// The missing line (filled into the cache on completion).
        line: LineAddr,
        /// Whether the access was a store (sets the SM bit on fill).
        is_store: bool,
    },
    /// Waiting for the token vendor to return a TID.
    WaitToken {
        /// Cycle at which the TID reply arrives.
        until: Cycle,
    },
    /// Spinning at the commit instruction, waiting for the current target
    /// directory to grant access (full run power — the "futile spin" the
    /// paper's contention manager tries to eliminate).
    SpinCommit {
        /// Index into the commit plan of the directory being waited on.
        step_idx: usize,
    },
    /// Granted a directory; flushing the write-set lines homed there.
    Committing {
        /// Index into the commit plan of the directory being flushed.
        step_idx: usize,
        /// Cycle at which the flush completes.
        until: Cycle,
    },
    /// Rolling back after an abort (check-point restore).
    Aborting {
        /// Cycle at which the roll-back completes.
        until: Cycle,
        /// What to do once the roll-back completes (restart immediately,
        /// spin out a back-off window, or wait throttled).
        then: RetryAfter,
    },
    /// Spinning in a contention-management back-off window (run power).
    Backoff {
        /// Cycle at which the back-off expires.
        until: Cycle,
    },
    /// Waiting out a contention-management window at DVFS-reduced power (the
    /// `throttle` policy's intermediate state: clocks keep running at a
    /// reduced rate, so the wait costs more than gating but the processor
    /// needs no wake-up protocol and restarts itself when the window ends).
    Throttled {
        /// Cycle at which the throttled window expires.
        until: Cycle,
    },
    /// Received "Stop Clock"; draining the in-flight instruction.
    GateDraining {
        /// Cycle at which the drain completes and the clocks stop.
        until: Cycle,
    },
    /// Clocks gated: consuming only leakage + PLL power.
    Gated,
    /// Received "on"; waking up and performing the self-abort.
    WakeRestart {
        /// Cycle at which the processor is ready to re-execute.
        until: Cycle,
    },
    /// All transactions committed; spinning at the final synchronization
    /// point (run power) until the whole parallel section ends.
    Done,
}

impl Phase {
    /// The power-model state corresponding to this phase.
    #[must_use]
    pub fn power_state(&self) -> PowerState {
        match self {
            Phase::WaitMiss { .. } => PowerState::Miss,
            Phase::Committing { .. } => PowerState::Commit,
            Phase::Gated => PowerState::Gated,
            Phase::Throttled { .. } => PowerState::Throttled,
            // Everything else burns full run power: execution, commit spin,
            // back-off spin, roll-back, drain, wake-up and the final barrier.
            _ => PowerState::Run,
        }
    }

    /// Whether the processor currently counts as clock-gated from the point
    /// of view of the hook's `SystemView` (the drain and wake transitions are
    /// included: the processor is not executing instructions).
    #[must_use]
    pub fn is_gated_like(&self) -> bool {
        matches!(
            self,
            Phase::Gated | Phase::GateDraining { .. } | Phase::WakeRestart { .. }
        )
    }

    /// Whether a transaction execution attempt is currently in progress (used
    /// to decide if an incoming invalidation aborts anything).
    #[must_use]
    pub fn in_transaction(&self) -> bool {
        matches!(
            self,
            Phase::Executing { .. }
                | Phase::WaitMiss { .. }
                | Phase::WaitToken { .. }
                | Phase::SpinCommit { .. }
        )
    }

    /// Serialize into a checkpoint payload (one tag byte per variant plus the
    /// variant's payload fields in declaration order).
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        match *self {
            Phase::PreCompute { remaining } => {
                w.put_u8(0);
                w.put_u64(remaining);
            }
            Phase::Executing { op_idx, remaining } => {
                w.put_u8(1);
                w.put_usize(op_idx);
                w.put_u64(remaining);
            }
            Phase::WaitMiss {
                op_idx,
                until,
                line,
                is_store,
            } => {
                w.put_u8(2);
                w.put_usize(op_idx);
                w.put_u64(until);
                w.put_u64(line.0);
                w.put_bool(is_store);
            }
            Phase::WaitToken { until } => {
                w.put_u8(3);
                w.put_u64(until);
            }
            Phase::SpinCommit { step_idx } => {
                w.put_u8(4);
                w.put_usize(step_idx);
            }
            Phase::Committing { step_idx, until } => {
                w.put_u8(5);
                w.put_usize(step_idx);
                w.put_u64(until);
            }
            Phase::Aborting { until, then } => {
                w.put_u8(6);
                w.put_u64(until);
                then.save_ckpt(w);
            }
            Phase::Backoff { until } => {
                w.put_u8(7);
                w.put_u64(until);
            }
            Phase::Throttled { until } => {
                w.put_u8(8);
                w.put_u64(until);
            }
            Phase::GateDraining { until } => {
                w.put_u8(9);
                w.put_u64(until);
            }
            Phase::Gated => w.put_u8(10),
            Phase::WakeRestart { until } => {
                w.put_u8(11);
                w.put_u64(until);
            }
            Phase::Done => w.put_u8(12),
        }
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(match r.get_u8()? {
            0 => Phase::PreCompute {
                remaining: r.get_u64()?,
            },
            1 => Phase::Executing {
                op_idx: r.get_usize()?,
                remaining: r.get_u64()?,
            },
            2 => Phase::WaitMiss {
                op_idx: r.get_usize()?,
                until: r.get_cycle()?,
                line: LineAddr(r.get_u64()?),
                is_store: r.get_bool()?,
            },
            3 => Phase::WaitToken {
                until: r.get_cycle()?,
            },
            4 => Phase::SpinCommit {
                step_idx: r.get_usize()?,
            },
            5 => Phase::Committing {
                step_idx: r.get_usize()?,
                until: r.get_cycle()?,
            },
            6 => Phase::Aborting {
                until: r.get_cycle()?,
                then: RetryAfter::load_ckpt(r)?,
            },
            7 => Phase::Backoff {
                until: r.get_cycle()?,
            },
            8 => Phase::Throttled {
                until: r.get_cycle()?,
            },
            9 => Phase::GateDraining {
                until: r.get_cycle()?,
            },
            10 => Phase::Gated,
            11 => Phase::WakeRestart {
                until: r.get_cycle()?,
            },
            12 => Phase::Done,
            t => return Err(CkptError::Corrupt(format!("unknown Phase tag {t}"))),
        })
    }
}

/// A simulated processor core.
#[derive(Debug)]
pub struct Processor {
    /// This processor's identifier.
    pub id: ProcId,
    /// The thread of transactions it executes.
    pub thread: ThreadTrace,
    /// Index of the transaction currently being executed (or about to be).
    pub tx_idx: usize,
    /// Current execution phase.
    pub phase: Phase,
    /// Private L1 data cache (timing model).
    pub cache: SpecCache,
    /// Exact speculative read set of the current transaction attempt.
    pub read_set: FxHashSet<LineAddr>,
    /// Exact speculative write set of the current transaction attempt.
    pub write_set: FxHashSet<LineAddr>,
    /// Directories touched (read or written) by the current attempt; used to
    /// clear sharer registrations on commit/abort.
    pub dirs_touched: FxHashSet<DirId>,
    /// Commit plan (one step per write-set directory), built when the
    /// transaction reaches its commit point.
    pub commit_plan: Vec<CommitStep>,
    /// TID held for the current commit attempt.
    pub tid: Option<u64>,
    /// Aborts suffered by the current transaction so far.
    pub aborts_this_tx: u64,
    /// Cycles spent in the current execution attempt (discarded on abort).
    pub attempt_cycles: u64,
    /// Inbox of protocol events addressed to this processor.
    pub inbox: TimedQueue<ProcEvent>,
    /// Protocol counters.
    pub stats: ProcStats,
    /// Power-state cycle accounting.
    pub state_cycles: StateCycles,
    /// Cycle at which this processor started its first transaction.
    pub first_tx_start: Option<Cycle>,
    /// While `Executing`: the cycle at which the next visible operation
    /// issues, as last computed by [`Self::find_run_end`] (the fast engine
    /// refreshes it after every step of the processor). Derived state, never
    /// serialized; the naive engine does not read it.
    pub(crate) run_end: Cycle,
}

impl Processor {
    /// Create a processor executing `thread`, with an L1 built from `cache`.
    #[must_use]
    pub fn new(id: ProcId, thread: ThreadTrace, cache: SpecCache) -> Self {
        let phase = Self::entry_phase_for(&thread, 0);
        Self {
            id,
            thread,
            tx_idx: 0,
            phase,
            cache,
            read_set: FxHashSet::default(),
            write_set: FxHashSet::default(),
            dirs_touched: FxHashSet::default(),
            commit_plan: Vec::new(),
            tid: None,
            aborts_this_tx: 0,
            attempt_cycles: 0,
            inbox: TimedQueue::new(),
            stats: ProcStats::new(),
            state_cycles: StateCycles::default(),
            first_tx_start: None,
            run_end: 0,
        }
    }

    fn entry_phase_for(thread: &ThreadTrace, tx_idx: usize) -> Phase {
        match thread.transactions.get(tx_idx) {
            None => Phase::Done,
            Some(tx) if tx.pre_compute > 0 => Phase::PreCompute {
                remaining: tx.pre_compute,
            },
            Some(_) => Phase::Executing {
                op_idx: 0,
                remaining: 0,
            },
        }
    }

    /// The transaction currently being executed (or retried), if any.
    #[must_use]
    pub fn current_tx(&self) -> Option<&Transaction> {
        self.thread.transactions.get(self.tx_idx)
    }

    /// Static id of the current transaction, if the processor is inside (or
    /// about to commit) one.
    #[must_use]
    pub fn current_tx_id(&self) -> Option<TxId> {
        if matches!(self.phase, Phase::Done) {
            None
        } else {
            self.current_tx().map(|t| t.tx_id)
        }
    }

    /// Whether this processor has executed everything assigned to it.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Reset all per-attempt speculative state (read/write sets, commit plan,
    /// TID). The cache and directory bookkeeping is handled by the caller.
    pub fn clear_attempt_state(&mut self) {
        self.read_set.clear();
        self.write_set.clear();
        self.commit_plan.clear();
        self.tid = None;
        self.attempt_cycles = 0;
    }

    /// Move to the beginning of the atomic region of the current transaction
    /// (used when retrying after an abort; the prologue is not re-executed).
    pub fn restart_transaction(&mut self) {
        self.phase = Phase::Executing {
            op_idx: 0,
            remaining: 0,
        };
    }

    /// Advance to the next transaction after a commit. Returns `true` if
    /// there is another transaction to run.
    pub fn advance_to_next_tx(&mut self) -> bool {
        self.tx_idx += 1;
        self.aborts_this_tx = 0;
        self.phase = Self::entry_phase_for(&self.thread, self.tx_idx);
        !self.is_done()
    }

    /// Apply the processor-local half of issuing operation `op_idx` of the
    /// current transaction: the cache access (LRU, SR/SM bits, statistics),
    /// the read/write-set and `dirs_touched` inserts, and the next phase on
    /// a compute op or a hit. What other components must see is returned
    /// for the machine to apply. `op_idx` must index an operation (not the
    /// commit point).
    #[inline]
    pub(crate) fn issue_local(
        &mut self,
        op_idx: usize,
        map: &AddressMap,
        hit_latency: u64,
    ) -> Issued {
        let (line, is_store, newly_inserted, outcome) =
            match self.thread.transactions[self.tx_idx].ops[op_idx] {
                Op::Compute(c) => {
                    self.phase = Phase::Executing {
                        op_idx: op_idx + 1,
                        remaining: c.saturating_sub(1),
                    };
                    return Issued::Private;
                }
                Op::Read(addr) => {
                    let line = map.line_of(addr);
                    let newly_read = self.read_set.insert(line);
                    (line, false, newly_read, self.cache.load(line, true))
                }
                Op::Write(addr) => {
                    let line = map.line_of(addr);
                    let newly_written = self.write_set.insert(line);
                    (line, true, newly_written, self.cache.store(line, true))
                }
            };
        // The sets are cleared together with `dirs_touched`, so a line
        // already in its set has its home there: only a new line needs it.
        let home = map.home_of(line);
        if newly_inserted {
            self.dirs_touched.insert(home);
        }
        let hit = outcome == AccessOutcome::Hit;
        if hit {
            self.phase = Phase::Executing {
                op_idx: op_idx + 1,
                remaining: hit_latency.saturating_sub(1),
            };
            // A write hit stays in the L1 until commit; a re-read of a line
            // already in the read set was registered by its first read.
            if is_store || !newly_inserted {
                return Issued::Private;
            }
        }
        Issued::Visible {
            line,
            home,
            is_store,
            hit,
        }
    }

    /// The cycles `op` occupies from its issue to the next issue, if
    /// [`Self::issue_local`] would find it private in the current state:
    /// any compute op, a read of a line whose SR bit is set, a write to a
    /// line the cache holds.
    ///
    /// A set SR bit implies the line is present and in the read set (the bit
    /// is only set by a read, and commit, abort and invalidation clear it
    /// with the set). The converse can fail after a speculative eviction
    /// refilled by a write miss; such a re-read is then treated as visible,
    /// which costs an executed cycle and nothing else.
    #[inline]
    fn private_cycles(&self, op: Op, map: &AddressMap, hit_latency: u64) -> Option<u64> {
        let private = match op {
            Op::Compute(c) => return Some(c.max(1)),
            Op::Read(addr) => {
                let line = map.line_of(addr);
                let spec_read = self.cache.is_spec_read(line);
                debug_assert!(
                    !spec_read || self.read_set.contains(&line),
                    "SR bit set on line {line:?} outside the read set"
                );
                spec_read
            }
            Op::Write(addr) => self.cache.contains(map.line_of(addr)),
        };
        private.then_some(hit_latency.max(1))
    }

    /// The cycle at which this processor, `Executing` from cycle `from`
    /// on, issues its next visible operation: the first read of a line, a
    /// miss, the commit point or the end of its thread. Every operation
    /// issued before it is private, and stays private until an inbox
    /// delivery changes the cache (see `DESIGN.md`, "Coalesced private
    /// operations"). Returns `from` in any other phase.
    #[must_use]
    #[inline]
    pub(crate) fn find_run_end(&self, from: Cycle, map: &AddressMap, hit_latency: u64) -> Cycle {
        let Phase::Executing { op_idx, remaining } = self.phase else {
            return from;
        };
        let mut end = from + remaining;
        if let Some(tx) = self.current_tx() {
            for &op in tx.ops.get(op_idx..).unwrap_or_default() {
                match self.private_cycles(op, map, hit_latency) {
                    Some(cycles) => end += cycles,
                    None => break,
                }
            }
        }
        end
    }

    /// Replay `span` cycles of `Executing`: issue, in order, every private
    /// operation the per-cycle engine would have issued in them, and leave
    /// the countdown where that engine would. Returns the number of
    /// operations issued. The span must end at or before the run end.
    #[inline]
    pub(crate) fn replay_private(
        &mut self,
        mut span: u64,
        map: &AddressMap,
        hit_latency: u64,
    ) -> u64 {
        let mut issued = 0;
        while let Phase::Executing { op_idx, remaining } = self.phase {
            if remaining >= span {
                self.phase = Phase::Executing {
                    op_idx,
                    remaining: remaining - span,
                };
                break;
            }
            span -= remaining + 1;
            let effect = self.issue_local(op_idx, map, hit_latency);
            debug_assert_eq!(effect, Issued::Private, "replayed a visible op {op_idx}");
            issued += 1;
        }
        issued
    }

    /// Earliest future cycle at which this processor does anything beyond a
    /// pure countdown: the completion of the phase it is waiting in, or the
    /// arrival of the earliest inbox message, whichever comes first.
    ///
    /// `Some(now)` means the *current* cycle needs full per-cycle processing
    /// (a visible operation issues, a wait expires, a message is ready, or
    /// the phase — like the commit spin — polls shared state every cycle and
    /// must be refined by the system, which owns the directories). `None`
    /// means the processor is fully passive (`Done`, or `Gated` with an
    /// empty inbox) and only an external event can make it act again.
    ///
    /// In `Executing`, the private operations before the next visible one
    /// count as countdown: the deadline is the cached run end, the issue
    /// cycle of the next visible operation, which the fast engine
    /// recomputes after every step of the processor and whose private
    /// operations it replays lazily (see `DESIGN.md`, "Coalesced private
    /// operations").
    ///
    /// This is the processor's contribution to the fast-forward engine's
    /// event horizon; see `DESIGN.md` ("event-horizon computation") for the
    /// exactness argument.
    #[must_use]
    #[inline]
    pub fn next_deadline(&self, now: Cycle) -> Option<Cycle> {
        let phase_deadline = match self.phase {
            Phase::Done | Phase::Gated => None,
            // Transitions to `Executing` on the cycle where `remaining <= 1`.
            Phase::PreCompute { remaining } => Some(now + remaining.saturating_sub(1)),
            // Issues the next visible operation at the run end.
            Phase::Executing { .. } => Some(self.run_end.max(now)),
            // The commit spin polls the target directory every cycle; the
            // system refines this with the directory's grant state.
            Phase::SpinCommit { .. } => Some(now),
            Phase::WaitMiss { until, .. }
            | Phase::WaitToken { until }
            | Phase::Committing { until, .. }
            | Phase::Aborting { until, .. }
            | Phase::Backoff { until }
            | Phase::Throttled { until }
            | Phase::GateDraining { until }
            | Phase::WakeRestart { until } => Some(until.max(now)),
        };
        let inbox_deadline = self.inbox.next_delivery().map(|d| d.max(now));
        match (phase_deadline, inbox_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (d, None) | (None, d) => d,
        }
    }

    /// Serialize everything except the thread trace itself (the trace is
    /// immutable and is re-supplied by the caller on restore; a trace
    /// fingerprint stored at the system level guards against mismatches).
    ///
    /// The speculative read/write/directory sets are written in sorted order:
    /// their iteration order is never observable (the commit plan sorts the
    /// write set before use, and per-directory cleanup operations commute),
    /// so a canonical encoding keeps checkpoint bytes stable without
    /// perturbing the simulation.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_usize(self.id);
        w.put_usize(self.tx_idx);
        self.phase.save_ckpt(w);
        self.cache.save_ckpt(w);
        let mut sorted_lines: Vec<u64> = self.read_set.iter().map(|l| l.0).collect();
        sorted_lines.sort_unstable();
        w.put_u64_slice(&sorted_lines);
        sorted_lines = self.write_set.iter().map(|l| l.0).collect();
        sorted_lines.sort_unstable();
        w.put_u64_slice(&sorted_lines);
        let mut sorted_dirs: Vec<DirId> = self.dirs_touched.iter().copied().collect();
        sorted_dirs.sort_unstable();
        w.put_usize(sorted_dirs.len());
        for d in sorted_dirs {
            w.put_usize(d);
        }
        w.put_usize(self.commit_plan.len());
        for step in &self.commit_plan {
            step.save_ckpt(w);
        }
        w.put_opt_u64(self.tid);
        w.put_u64(self.aborts_this_tx);
        w.put_u64(self.attempt_cycles);
        self.inbox.save_ckpt(w, |w, ev| ev.save_ckpt(w));
        self.stats.save_ckpt(w);
        self.state_cycles.save_ckpt(w);
        w.put_opt_u64(self.first_tx_start);
    }

    /// Restore the checkpointed state onto `self` (a freshly constructed
    /// processor already holding the correct thread trace). Everything except
    /// `id` and `thread` is overwritten.
    pub fn restore_ckpt(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let id = r.get_usize()?;
        if id != self.id {
            return Err(CkptError::Corrupt(format!(
                "processor record {id} restored into slot {}",
                self.id
            )));
        }
        let tx_idx = r.get_usize()?;
        if tx_idx > self.thread.transactions.len() {
            return Err(CkptError::Corrupt(format!(
                "processor {id} at transaction {tx_idx} but its thread has only {}",
                self.thread.transactions.len()
            )));
        }
        self.tx_idx = tx_idx;
        self.phase = Phase::load_ckpt(r)?;
        self.cache = SpecCache::load_ckpt(r)?;
        self.read_set = r.get_u64_vec()?.into_iter().map(LineAddr).collect();
        self.write_set = r.get_u64_vec()?.into_iter().map(LineAddr).collect();
        let n_dirs = r.get_usize()?;
        self.dirs_touched.clear();
        for _ in 0..n_dirs {
            self.dirs_touched.insert(r.get_usize()?);
        }
        let n_steps = r.get_usize()?;
        self.commit_plan.clear();
        for _ in 0..n_steps {
            self.commit_plan.push(CommitStep::load_ckpt(r)?);
        }
        self.tid = r.get_opt_u64()?;
        self.aborts_this_tx = r.get_u64()?;
        self.attempt_cycles = r.get_u64()?;
        self.inbox = TimedQueue::load_ckpt(r, ProcEvent::load_ckpt)?;
        self.stats = ProcStats::load_ckpt(r)?;
        self.state_cycles = StateCycles::load_ckpt(r)?;
        self.first_tx_start = r.get_opt_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{Op, Transaction};

    fn cache() -> SpecCache {
        SpecCache::new(16, 2)
    }

    fn map() -> AddressMap {
        AddressMap::new(64, 4096, 1)
    }

    fn thread() -> ThreadTrace {
        ThreadTrace::new(vec![
            Transaction::with_pre_compute(0x100, 5, vec![Op::Read(0), Op::Compute(3)]),
            Transaction::new(0x200, vec![Op::Write(64)]),
        ])
    }

    #[test]
    fn starts_in_precompute_when_prologue_exists() {
        let p = Processor::new(0, thread(), cache());
        assert_eq!(p.phase, Phase::PreCompute { remaining: 5 });
        assert_eq!(p.current_tx_id(), Some(0x100));
        assert!(!p.is_done());
    }

    #[test]
    fn empty_thread_is_immediately_done() {
        let p = Processor::new(0, ThreadTrace::default(), cache());
        assert!(p.is_done());
        assert_eq!(p.current_tx_id(), None);
    }

    #[test]
    fn advance_moves_through_transactions() {
        let mut p = Processor::new(0, thread(), cache());
        assert!(p.advance_to_next_tx());
        assert_eq!(p.current_tx_id(), Some(0x200));
        // Second transaction has no prologue.
        assert_eq!(
            p.phase,
            Phase::Executing {
                op_idx: 0,
                remaining: 0
            }
        );
        assert!(!p.advance_to_next_tx());
        assert!(p.is_done());
    }

    #[test]
    fn clear_attempt_state_resets_speculative_bookkeeping() {
        let mut p = Processor::new(0, thread(), cache());
        p.read_set.insert(LineAddr(1));
        p.write_set.insert(LineAddr(2));
        p.tid = Some(7);
        p.attempt_cycles = 99;
        p.commit_plan.push(CommitStep {
            dir: 0,
            lines: vec![LineAddr(2)],
        });
        p.clear_attempt_state();
        assert!(p.read_set.is_empty());
        assert!(p.write_set.is_empty());
        assert!(p.commit_plan.is_empty());
        assert_eq!(p.tid, None);
        assert_eq!(p.attempt_cycles, 0);
    }

    #[test]
    fn restart_goes_back_to_first_op_without_prologue() {
        let mut p = Processor::new(0, thread(), cache());
        p.phase = Phase::SpinCommit { step_idx: 0 };
        p.restart_transaction();
        assert_eq!(
            p.phase,
            Phase::Executing {
                op_idx: 0,
                remaining: 0
            }
        );
    }

    #[test]
    fn phase_power_state_mapping_follows_table1_semantics() {
        assert_eq!(
            Phase::Executing {
                op_idx: 0,
                remaining: 0
            }
            .power_state(),
            PowerState::Run
        );
        assert_eq!(
            Phase::SpinCommit { step_idx: 0 }.power_state(),
            PowerState::Run
        );
        assert_eq!(Phase::Backoff { until: 10 }.power_state(), PowerState::Run);
        assert_eq!(Phase::Done.power_state(), PowerState::Run);
        assert_eq!(
            Phase::WaitMiss {
                op_idx: 0,
                until: 5,
                line: LineAddr(0),
                is_store: false
            }
            .power_state(),
            PowerState::Miss
        );
        assert_eq!(
            Phase::Committing {
                step_idx: 0,
                until: 9
            }
            .power_state(),
            PowerState::Commit
        );
        assert_eq!(Phase::Gated.power_state(), PowerState::Gated);
    }

    #[test]
    fn gated_like_covers_transitions() {
        assert!(Phase::Gated.is_gated_like());
        assert!(Phase::GateDraining { until: 1 }.is_gated_like());
        assert!(Phase::WakeRestart { until: 1 }.is_gated_like());
        assert!(!Phase::Executing {
            op_idx: 0,
            remaining: 0
        }
        .is_gated_like());
    }

    #[test]
    fn next_deadline_tracks_the_waiting_phase() {
        let mut p = Processor::new(0, thread(), cache());
        // PreCompute with 5 cycles remaining transitions at now + 4.
        assert_eq!(p.phase, Phase::PreCompute { remaining: 5 });
        assert_eq!(p.next_deadline(100), Some(104));
        // Op 1 (`Compute(3)`) issues at 107 and is private; the commit
        // point, the next visible op, issues three cycles later.
        p.phase = Phase::Executing {
            op_idx: 1,
            remaining: 7,
        };
        p.run_end = p.find_run_end(100, &map(), 1);
        assert_eq!(p.next_deadline(100), Some(110));
        p.phase = Phase::WaitMiss {
            op_idx: 1,
            until: 230,
            line: LineAddr(0),
            is_store: false,
        };
        assert_eq!(p.next_deadline(100), Some(230));
        // A stale `until` in the past clamps to `now` (process this cycle).
        assert_eq!(p.next_deadline(500), Some(500));
        p.phase = Phase::SpinCommit { step_idx: 0 };
        assert_eq!(
            p.next_deadline(100),
            Some(100),
            "commit spins poll every cycle until refined by the system"
        );
        p.phase = Phase::Gated;
        assert_eq!(p.next_deadline(100), None);
        p.phase = Phase::Done;
        assert_eq!(p.next_deadline(100), None);
    }

    #[test]
    fn next_deadline_includes_inbox_arrivals() {
        let mut p = Processor::new(0, thread(), cache());
        p.phase = Phase::Gated;
        p.inbox.push(140, ProcEvent::TurnOn { dir: 0 });
        assert_eq!(p.next_deadline(100), Some(140));
        // The earlier of inbox and phase deadline wins.
        p.phase = Phase::Backoff { until: 120 };
        assert_eq!(p.next_deadline(100), Some(120));
        p.phase = Phase::Backoff { until: 200 };
        assert_eq!(p.next_deadline(100), Some(140));
    }

    #[test]
    fn reads_are_private_once_their_sr_bit_is_set_and_writes_once_the_line_is_held() {
        let ops = vec![
            Op::Read(0),
            Op::Read(8),
            Op::Write(0),
            Op::Write(64),
            Op::Compute(4),
        ];
        let mut p = Processor::new(0, ThreadTrace::new(vec![Transaction::new(1, ops)]), cache());
        let miss = |line, is_store| Issued::Visible {
            line: LineAddr(line),
            home: 0,
            is_store,
            hit: false,
        };
        assert_eq!(
            p.find_run_end(10, &map(), 1),
            10,
            "the first read is visible"
        );
        assert_eq!(p.issue_local(0, &map(), 1), miss(0, false));
        p.cache.fill(LineAddr(0), true, false);
        p.phase = Phase::Executing {
            op_idx: 1,
            remaining: 0,
        };
        // The re-read of line 0 and the write hit on it are private; the
        // write miss on line 1 is the next visible op.
        assert_eq!(p.find_run_end(20, &map(), 1), 22);
        assert_eq!(p.replay_private(2, &map(), 1), 2);
        assert_eq!(
            p.phase,
            Phase::Executing {
                op_idx: 3,
                remaining: 0
            }
        );
        assert!(p.write_set.contains(&LineAddr(0)));
        assert_eq!(p.cache.stats().load_hits, 1);
        assert_eq!(p.cache.stats().store_hits, 1);
        assert_eq!(p.issue_local(3, &map(), 1), miss(1, true));
        // After the fill only the compute op and the commit point are left.
        p.cache.fill(LineAddr(1), false, true);
        p.phase = Phase::Executing {
            op_idx: 4,
            remaining: 0,
        };
        assert_eq!(p.find_run_end(30, &map(), 1), 34);
        assert_eq!(p.replay_private(4, &map(), 1), 1);
        assert_eq!(
            p.phase,
            Phase::Executing {
                op_idx: 5,
                remaining: 0
            }
        );
    }

    #[test]
    fn a_first_read_hit_is_visible() {
        let ops = vec![Op::Read(0)];
        let mut p = Processor::new(0, ThreadTrace::new(vec![Transaction::new(1, ops)]), cache());
        p.cache.fill(LineAddr(0), false, false);
        assert_eq!(p.find_run_end(5, &map(), 1), 5);
        assert_eq!(
            p.issue_local(0, &map(), 1),
            Issued::Visible {
                line: LineAddr(0),
                home: 0,
                is_store: false,
                hit: true,
            }
        );
        assert!(p.cache.is_spec_read(LineAddr(0)));
    }

    #[test]
    fn in_transaction_excludes_done_and_gated() {
        assert!(Phase::Executing {
            op_idx: 0,
            remaining: 0
        }
        .in_transaction());
        assert!(Phase::SpinCommit { step_idx: 0 }.in_transaction());
        assert!(!Phase::Gated.in_transaction());
        assert!(!Phase::Done.in_transaction());
        assert!(!Phase::PreCompute { remaining: 3 }.in_transaction());
    }
}
