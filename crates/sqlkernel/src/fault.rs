//! Deterministic fault injection for the engine.
//!
//! A [`FaultInjector`] sits between the connection layer and the
//! executor and perturbs statement execution according to a
//! [`FaultPlan`]: transient infrastructure errors ("connection reset",
//! "deadlock victim", "serialization failure"), torn statements that
//! die after N applied rows (exercising statement-atomicity rollback),
//! mid-statement panics (exercising lock-poison recovery), and slow
//! queries. Everything is deterministic: randomness comes from an
//! in-tree SplitMix64 PRNG seeded by the plan, and "time" is a virtual
//! tick counter — no wall-clock anywhere, so a fault schedule replays
//! identically on any host.
//!
//! Faults address statements by a monotone *statement index*: the
//! injector counts every gated statement (transaction control is never
//! gated — injecting into COMMIT/ROLLBACK would corrupt the very
//! atomicity semantics the layer exists to test). A scripted fault is
//! consumed when it fires, so a retry of the same statement draws the
//! next index and succeeds unless the plan scheduled another fault
//! there — which is exactly how "fails k times, then succeeds"
//! schedules are written.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::error::{SqlError, SqlResult};
use crate::sync::Mutex;

/// The error every statement surfaces once the injector is frozen by a
/// crash fault. Deliberately **not** transient: a retry loop must stop —
/// the "process" is dead, and only recovery from the log brings it back.
pub fn crashed_error() -> SqlError {
    SqlError::Crashed("process killed by fault injection".into())
}

/// SplitMix64: tiny, seedable, statistically solid for fault schedules
/// and the benchmarks' seeded datasets. Kept in-tree: the kernel has no
/// dependencies.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator; equal seeds yield equal streams.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The three transient failure shapes commercial engines report. All are
/// safe to retry: the failed statement rolled back before surfacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKind {
    /// The server closed the connection mid-flight.
    ConnectionReset,
    /// This statement lost a deadlock and was chosen as the victim.
    DeadlockVictim,
    /// Optimistic concurrency check failed at serialization point.
    SerializationFailure,
}

impl TransientKind {
    /// Human-readable message, mirroring real server error text.
    pub fn message(self) -> &'static str {
        match self {
            TransientKind::ConnectionReset => "connection reset",
            TransientKind::DeadlockVictim => "deadlock victim",
            TransientKind::SerializationFailure => "serialization failure",
        }
    }

    /// The corresponding retryable error.
    pub fn error(self) -> SqlError {
        SqlError::Transient(self.message().into())
    }

    /// Pick a kind from an arbitrary draw (round-robin over the three).
    pub fn from_index(i: u64) -> TransientKind {
        match i % 3 {
            0 => TransientKind::ConnectionReset,
            1 => TransientKind::DeadlockVictim,
            _ => TransientKind::SerializationFailure,
        }
    }
}

/// Where, relative to the write-ahead log protocol, a scripted crash
/// kills the process. The point determines what the log contains when
/// recovery later reads it — which is the whole observable difference
/// between the variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die before the statement's records reach the log: recovery sees
    /// nothing of the statement, as if it never ran.
    BeforeLog,
    /// Die after the records are durably appended but "before" the
    /// in-memory apply is acknowledged: recovery replays the statement.
    AfterLog,
    /// Die mid-append, leaving a torn record at the log tail: recovery
    /// must detect the tear and truncate at the first corrupt record.
    MidApply,
    /// Die while a checkpoint is being written (scheduled via
    /// [`FaultPlan::crash_at_checkpoint`], not by statement index): the
    /// partial snapshot lands after the intact old log, and recovery
    /// must fall back to the previous consistent state.
    DuringCheckpoint,
}

/// Where, relative to the two-phase-commit `Prepare` record, a scripted
/// crash kills a participant. Scheduled by prepare index (0-based,
/// counted per prepare attempt on this injector) via
/// [`FaultPlan::crash_at_prepare`], mirroring checkpoint crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepareCrash {
    /// Die before the `Prepare` record reaches the log: recovery sees an
    /// ordinary loser transaction and undoes it; the coordinator's
    /// prepare call fails, so it presumes abort.
    Before,
    /// The `Prepare` record lands durably, then the process dies before
    /// acknowledging the vote. The coordinator sees a dead participant
    /// and presumes abort — recovery finds the in-doubt transaction and
    /// must resolve it to *abort* against the decision log.
    AfterWrite,
    /// Die mid-append, leaving a torn `Prepare` frame at the log tail:
    /// recovery truncates at the tear and treats the transaction as a
    /// loser (a torn vote is no vote).
    Torn,
    /// The `Prepare` lands and the vote is acknowledged (`Ok`), then the
    /// process dies before the coordinator's phase-2 notify arrives.
    /// This is the classic in-doubt window: recovery must consult the
    /// decision log, which may say *commit*.
    AfterAck,
}

/// One injectable *disk* fault, fired at the page-store I/O boundary by
/// the pager. Scheduled by page-read or page-write index (0-based,
/// counted per I/O attempt on this injector) via
/// [`FaultPlan::fault_at_page_read`] / [`FaultPlan::fault_at_page_write`],
/// and consumed when it fires, like statement-scripted faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFault {
    /// The process dies mid-write: only a prefix of the page reaches the
    /// store, then the injector freezes. Recovery must detect the torn
    /// page by checksum and fall back to the previous checkpoint epoch.
    TornWrite,
    /// A *silent* short write: a prefix lands, the call reports success,
    /// and the process lives on. The corruption is latent until a later
    /// read fails the page checksum and triggers repair.
    PartialWrite,
    /// One bit of the transferred page flips (position drawn from the
    /// seeded PRNG). On a read this models media/cable corruption on the
    /// way in; on a write the corrupted bytes land at rest.
    ReadBitFlip,
    /// The I/O fails outright with a retryable error (`EIO`/`ENOSPC`
    /// class). Nothing is transferred; the caller surfaces a transient
    /// [`SqlError`] its retry layer can absorb.
    IoError,
    /// The I/O succeeds but advances the virtual clock by `ticks` first.
    SlowIo { ticks: u64 },
}

/// A page fault taken from the schedule, plus one PRNG draw for faults
/// that need a deterministic parameter (the bit position of
/// [`PageFault::ReadBitFlip`]).
#[derive(Debug, Clone, Copy)]
pub struct FiredPageFault {
    pub fault: PageFault,
    /// Seeded draw; interpretation is up to the fault kind.
    pub draw: u64,
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the statement up front, before it touches any row.
    Transient(TransientKind),
    /// Fail after plan binding but before execution — the plan-cache
    /// invalidation regression hook.
    AfterBind(TransientKind),
    /// Let the statement apply `rows` rows, then kill it. The engine
    /// must roll the applied prefix back (statement atomicity) before
    /// the error surfaces.
    TornAfterRows { rows: u64, kind: TransientKind },
    /// Like `TornAfterRows`, but panic instead of returning an error —
    /// exercises panic containment and lock-poison recovery.
    PanicAfterRows { rows: u64 },
    /// Succeed, but advance the virtual clock by `ticks` first.
    SlowQuery { ticks: u64 },
    /// Kill the process at the given WAL protocol point. `BeforeLog`
    /// fires at the statement gate (any statement); `AfterLog` and
    /// `MidApply` are armed here and consumed by the WAL append path,
    /// so they only bite statements that actually log (DML/DDL) — on a
    /// read they die unfired, like an unreached row fault.
    Crash(CrashPoint),
}

/// A deterministic fault schedule: scripted faults pinned to statement
/// indices, plus optional seeded random rates for soak/bench runs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    scripted: Vec<(u64, Fault)>,
    /// Checkpoint indices (0-based, counted per checkpoint attempt) at
    /// which a [`CrashPoint::DuringCheckpoint`] crash fires.
    checkpoint_crashes: Vec<u64>,
    /// Prepare indices (0-based, counted per 2PC prepare attempt) at
    /// which a [`PrepareCrash`] fires.
    prepare_crashes: Vec<(u64, PrepareCrash)>,
    /// Page-read indices (0-based, counted per page-store read) at which
    /// a [`PageFault`] fires.
    page_read_faults: Vec<(u64, PageFault)>,
    /// Page-write indices (0-based, counted per page-store write) at
    /// which a [`PageFault`] fires.
    page_write_faults: Vec<(u64, PageFault)>,
    transient_rate: f64,
    slow_rate: f64,
    slow_ticks: u64,
}

impl FaultPlan {
    /// Empty plan with a PRNG seed (only used once random rates are set).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Schedule `fault` for the statement with the given injector index.
    /// Scripted faults are consumed when they fire; scheduling faults at
    /// `i, i+1, … i+k` makes a retried statement fail `k+1` times.
    pub fn fault_at(mut self, statement_index: u64, fault: Fault) -> FaultPlan {
        self.scripted.push((statement_index, fault));
        self
    }

    /// Fail this fraction of unscripted statements with a transient
    /// error (kind drawn from the seeded PRNG).
    pub fn transient_rate(mut self, rate: f64) -> FaultPlan {
        self.transient_rate = rate;
        self
    }

    /// Slow down this fraction of unscripted statements by `ticks`
    /// virtual ticks each.
    pub fn slow_queries(mut self, rate: f64, ticks: u64) -> FaultPlan {
        self.slow_rate = rate;
        self.slow_ticks = ticks;
        self
    }

    /// Crash the process while the `checkpoint_index`-th checkpoint (per
    /// this injector, 0-based) is being written. Consumed when it fires,
    /// like statement-scripted faults.
    pub fn crash_at_checkpoint(mut self, checkpoint_index: u64) -> FaultPlan {
        self.checkpoint_crashes.push(checkpoint_index);
        self
    }

    /// Crash the process around the `prepare_index`-th 2PC prepare (per
    /// this injector, 0-based); `kind` picks the protocol point. Consumed
    /// when it fires, like statement-scripted faults.
    pub fn crash_at_prepare(mut self, prepare_index: u64, kind: PrepareCrash) -> FaultPlan {
        self.prepare_crashes.push((prepare_index, kind));
        self
    }

    /// Schedule `fault` for the `read_index`-th page-store read (per
    /// this injector, 0-based). Consumed when it fires.
    pub fn fault_at_page_read(mut self, read_index: u64, fault: PageFault) -> FaultPlan {
        self.page_read_faults.push((read_index, fault));
        self
    }

    /// Schedule `fault` for the `write_index`-th page-store write (per
    /// this injector, 0-based). Consumed when it fires.
    pub fn fault_at_page_write(mut self, write_index: u64, fault: PageFault) -> FaultPlan {
        self.page_write_faults.push((write_index, fault));
        self
    }
}

/// A row-level fault armed by the statement gate, consumed by the
/// executor's apply loop.
#[derive(Debug, Clone, Copy)]
enum ArmedRowFault {
    Error { remaining: u64, kind: TransientKind },
    Panic { remaining: u64 },
}

#[derive(Debug)]
struct InjectorState {
    rng: SplitMix64,
    /// Scripted faults not yet fired, keyed by statement index.
    scripted: HashMap<u64, Fault>,
    /// Checkpoint crashes not yet fired, keyed by checkpoint index.
    checkpoint_crashes: HashSet<u64>,
    /// Prepare crashes not yet fired, keyed by prepare index.
    prepare_crashes: HashMap<u64, PrepareCrash>,
    /// Page faults not yet fired, keyed by page-read index.
    page_read_faults: HashMap<u64, PageFault>,
    /// Page faults not yet fired, keyed by page-write index.
    page_write_faults: HashMap<u64, PageFault>,
    /// Row fault armed for the statement currently executing.
    row_fault: Option<ArmedRowFault>,
    /// After-bind fault armed for the statement currently executing.
    after_bind: Option<TransientKind>,
    /// Crash point armed for the statement currently executing, consumed
    /// by the WAL append path.
    armed_crash: Option<CrashPoint>,
}

/// The injector installed on a [`crate::Database`]. Thread-safe; the
/// statement gate serializes index assignment so a schedule means the
/// same thing regardless of how calls interleave.
#[derive(Debug)]
pub struct FaultInjector {
    transient_rate: f64,
    slow_rate: f64,
    slow_ticks: u64,
    /// True when the plan can never fire (no scripted faults, zero
    /// rates): the gate reduces to a lock-free index increment, keeping
    /// the cost of an installed-but-idle plan within measurement noise.
    passive: bool,
    /// Next statement index to be assigned by the gate.
    next_index: AtomicU64,
    /// Next checkpoint index to be assigned by the checkpoint hook.
    next_checkpoint: AtomicU64,
    /// Next prepare index to be assigned by the prepare hook.
    next_prepare: AtomicU64,
    /// Next page-read index to be assigned by the pager's read hook.
    next_page_read: AtomicU64,
    /// Next page-write index to be assigned by the pager's write hook.
    next_page_write: AtomicU64,
    state: Mutex<InjectorState>,
    /// Faults actually delivered (transients, torn rows, panics, slow ticks).
    injected: AtomicU64,
    /// Virtual clock, advanced by slow-query faults (and by the retry
    /// layer above, which shares the same notion of time).
    ticks: AtomicU64,
    /// Set once a crash fault fires. A frozen injector models a dead
    /// process: every subsequent gated statement fails with
    /// [`crashed_error`] and the WAL layer refuses further appends. Only
    /// [`crate::Database::recover`] (a fresh database) escapes.
    frozen: AtomicBool,
}

impl FaultInjector {
    /// Build an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            transient_rate: plan.transient_rate,
            slow_rate: plan.slow_rate,
            slow_ticks: plan.slow_ticks,
            passive: plan.scripted.is_empty()
                && plan.checkpoint_crashes.is_empty()
                && plan.prepare_crashes.is_empty()
                && plan.page_read_faults.is_empty()
                && plan.page_write_faults.is_empty()
                && plan.transient_rate <= 0.0
                && plan.slow_rate <= 0.0,
            next_index: AtomicU64::new(0),
            next_checkpoint: AtomicU64::new(0),
            next_prepare: AtomicU64::new(0),
            next_page_read: AtomicU64::new(0),
            next_page_write: AtomicU64::new(0),
            state: Mutex::new(InjectorState {
                rng: SplitMix64::new(plan.seed),
                scripted: plan.scripted.into_iter().collect(),
                checkpoint_crashes: plan.checkpoint_crashes.into_iter().collect(),
                prepare_crashes: plan.prepare_crashes.into_iter().collect(),
                page_read_faults: plan.page_read_faults.into_iter().collect(),
                page_write_faults: plan.page_write_faults.into_iter().collect(),
                row_fault: None,
                after_bind: None,
                armed_crash: None,
            }),
            injected: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            frozen: AtomicBool::new(false),
        }
    }

    /// Has a crash fault fired? A frozen injector means the "process"
    /// hosting this database is dead; only the log survives.
    pub fn frozen(&self) -> bool {
        self.frozen.load(Ordering::Relaxed)
    }

    /// Mark the crash as delivered: freeze the injector and count the
    /// fault. Called by the WAL layer after it has staged whatever bytes
    /// the crash point lets reach the log.
    pub fn deliver_crash(&self) {
        self.frozen.store(true, Ordering::Relaxed);
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Consume the crash point armed for the current statement, if any.
    /// The caller (the WAL append path) decides how many bytes reach the
    /// log, then calls [`FaultInjector::deliver_crash`].
    pub fn take_armed_crash(&self) -> Option<CrashPoint> {
        if self.passive {
            return None;
        }
        self.state.lock().armed_crash.take()
    }

    /// Checkpoint hook: called once per checkpoint attempt. Returns true
    /// when this checkpoint is scheduled to crash mid-write (consumed on
    /// fire, like scripted statement faults).
    pub fn on_checkpoint(&self) -> bool {
        let index = self.next_checkpoint.fetch_add(1, Ordering::Relaxed);
        if self.passive {
            return false;
        }
        self.state.lock().checkpoint_crashes.remove(&index)
    }

    /// Prepare hook: called once per 2PC prepare attempt. Returns the
    /// crash kind scheduled for this prepare, if any (consumed on fire);
    /// the prepare path decides how many bytes reach the log and whether
    /// the vote is acknowledged, then calls
    /// [`FaultInjector::deliver_crash`].
    pub fn on_prepare(&self) -> Option<PrepareCrash> {
        let index = self.next_prepare.fetch_add(1, Ordering::Relaxed);
        if self.passive {
            return None;
        }
        self.state.lock().prepare_crashes.remove(&index)
    }

    /// Page-read hook: called once per page-store read attempt. Returns
    /// the fault scheduled for this read, if any (consumed on fire),
    /// with a fresh PRNG draw for parameterized faults.
    pub fn on_page_read(&self) -> Option<FiredPageFault> {
        let index = self.next_page_read.fetch_add(1, Ordering::Relaxed);
        if self.passive {
            return None;
        }
        let mut st = self.state.lock();
        let fault = st.page_read_faults.remove(&index)?;
        let draw = st.rng.next_u64();
        Some(FiredPageFault { fault, draw })
    }

    /// Page-write hook: called once per page-store write attempt.
    /// Returns the fault scheduled for this write, if any (consumed on
    /// fire), with a fresh PRNG draw for parameterized faults.
    pub fn on_page_write(&self) -> Option<FiredPageFault> {
        let index = self.next_page_write.fetch_add(1, Ordering::Relaxed);
        if self.passive {
            return None;
        }
        let mut st = self.state.lock();
        let fault = st.page_write_faults.remove(&index)?;
        let draw = st.rng.next_u64();
        Some(FiredPageFault { fault, draw })
    }

    /// Count one delivered non-crash fault (used by the pager for page
    /// faults that do not freeze the process).
    pub fn note_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Faults delivered so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Current virtual-clock reading.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Advance the virtual clock (used by retry backoff as well as
    /// slow-query faults, so one timeline covers both layers).
    pub fn advance_ticks(&self, n: u64) {
        self.ticks.fetch_add(n, Ordering::Relaxed);
    }

    /// Statement gate: called once per non-transaction-control statement
    /// before execution. Immediate transient faults return `Err` here;
    /// torn/panic/after-bind faults are armed for the hooks below; slow
    /// queries advance the virtual clock and let the statement proceed.
    pub fn on_statement(&self) -> SqlResult<()> {
        let index = self.next_index.fetch_add(1, Ordering::Relaxed);
        if self.passive {
            // Nothing can ever fire and nothing was ever armed.
            return Ok(());
        }
        if self.frozen() {
            return Err(crashed_error());
        }
        let mut st = self.state.lock();
        // A fault armed for a previous statement that never reached its
        // trigger point (e.g. torn-row fault on a statement that matched
        // fewer rows) dies here rather than leaking onto this statement.
        // An armed *crash* is different: it models the whole process
        // dying, not a per-statement hiccup, so it stays pending until
        // some statement's append delivers it — with concurrent
        // connections, another statement's gate must not wipe a crash a
        // peer thread armed but has not yet carried to the WAL layer.
        st.row_fault = None;
        st.after_bind = None;

        let fault = match st.scripted.remove(&index) {
            Some(f) => Some(f),
            None if self.transient_rate > 0.0 || self.slow_rate > 0.0 => {
                let draw = st.rng.next_f64();
                if draw < self.transient_rate {
                    let kind = TransientKind::from_index(st.rng.next_u64());
                    Some(Fault::Transient(kind))
                } else if draw < self.transient_rate + self.slow_rate {
                    Some(Fault::SlowQuery {
                        ticks: self.slow_ticks,
                    })
                } else {
                    None
                }
            }
            None => None,
        };

        match fault {
            None => Ok(()),
            Some(Fault::Transient(kind)) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(kind.error())
            }
            Some(Fault::AfterBind(kind)) => {
                st.after_bind = Some(kind);
                Ok(())
            }
            Some(Fault::TornAfterRows { rows, kind }) => {
                st.row_fault = Some(ArmedRowFault::Error {
                    remaining: rows,
                    kind,
                });
                Ok(())
            }
            Some(Fault::PanicAfterRows { rows }) => {
                st.row_fault = Some(ArmedRowFault::Panic { remaining: rows });
                Ok(())
            }
            Some(Fault::SlowQuery { ticks }) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.ticks.fetch_add(ticks, Ordering::Relaxed);
                Ok(())
            }
            // BeforeLog (and a DuringCheckpoint misfiled onto a statement
            // index) kills right here: nothing of the statement reaches
            // the log, whatever kind of statement it is.
            Some(Fault::Crash(CrashPoint::BeforeLog | CrashPoint::DuringCheckpoint)) => {
                drop(st);
                self.deliver_crash();
                Err(crashed_error())
            }
            Some(Fault::Crash(point)) => {
                st.armed_crash = Some(point);
                Ok(())
            }
        }
    }

    /// Bind hook: called after a compiled plan is (re)bound, before any
    /// row is touched. Delivers an armed [`Fault::AfterBind`].
    pub fn on_bind_complete(&self) -> SqlResult<()> {
        if self.passive {
            return Ok(());
        }
        let kind = self.state.lock().after_bind.take();
        match kind {
            Some(kind) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(kind.error())
            }
            None => Ok(()),
        }
    }

    /// Row hook: called by DML apply loops after each applied row.
    /// Delivers armed torn-statement faults once their row budget is
    /// exhausted — by returning an error (the caller's undo machinery
    /// must wipe the applied prefix) or by panicking.
    pub fn on_row_applied(&self) -> SqlResult<()> {
        if self.passive {
            return Ok(());
        }
        let mut st = self.state.lock();
        match &mut st.row_fault {
            None => Ok(()),
            Some(ArmedRowFault::Error { remaining, kind }) => {
                if *remaining > 1 {
                    *remaining -= 1;
                    return Ok(());
                }
                let kind = *kind;
                st.row_fault = None;
                drop(st);
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(kind.error())
            }
            Some(ArmedRowFault::Panic { remaining }) => {
                if *remaining > 1 {
                    *remaining -= 1;
                    return Ok(());
                }
                st.row_fault = None;
                drop(st);
                self.injected.fetch_add(1, Ordering::Relaxed);
                panic!("fault injection: forced panic mid-statement");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), xs.len());
        let f = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn scripted_fault_fires_once_then_clears() {
        let inj = FaultInjector::new(
            FaultPlan::new(1).fault_at(1, Fault::Transient(TransientKind::DeadlockVictim)),
        );
        assert!(inj.on_statement().is_ok()); // index 0
        let err = inj.on_statement().unwrap_err(); // index 1
        assert_eq!(err.class(), "transient");
        assert!(err.to_string().contains("deadlock victim"));
        assert!(inj.on_statement().is_ok()); // index 2: consumed
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn torn_fault_fires_on_nth_row() {
        let inj = FaultInjector::new(FaultPlan::new(1).fault_at(
            0,
            Fault::TornAfterRows {
                rows: 2,
                kind: TransientKind::SerializationFailure,
            },
        ));
        inj.on_statement().unwrap();
        assert!(inj.on_row_applied().is_ok()); // row 1
        assert!(inj.on_row_applied().is_err()); // row 2 → boom
        assert!(inj.on_row_applied().is_ok()); // disarmed
    }

    #[test]
    fn unfired_row_fault_does_not_leak_to_next_statement() {
        let inj = FaultInjector::new(FaultPlan::new(1).fault_at(
            0,
            Fault::TornAfterRows {
                rows: 5,
                kind: TransientKind::ConnectionReset,
            },
        ));
        inj.on_statement().unwrap();
        assert!(inj.on_row_applied().is_ok()); // only one row applied
        inj.on_statement().unwrap(); // next statement disarms
        for _ in 0..10 {
            assert!(inj.on_row_applied().is_ok());
        }
    }

    #[test]
    fn slow_queries_advance_virtual_clock_only() {
        let inj =
            FaultInjector::new(FaultPlan::new(1).fault_at(0, Fault::SlowQuery { ticks: 250 }));
        assert!(inj.on_statement().is_ok());
        assert_eq!(inj.ticks(), 250);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn page_faults_fire_once_at_their_io_index() {
        let inj = FaultInjector::new(
            FaultPlan::new(5)
                .fault_at_page_read(1, PageFault::ReadBitFlip)
                .fault_at_page_write(0, PageFault::IoError),
        );
        // Write index 0 faults; write index 1 is clean.
        assert!(matches!(
            inj.on_page_write().map(|f| f.fault),
            Some(PageFault::IoError)
        ));
        assert!(inj.on_page_write().is_none());
        // Read index 0 is clean; read index 1 faults, then clears.
        assert!(inj.on_page_read().is_none());
        let fired = inj.on_page_read().expect("scheduled read fault");
        assert_eq!(fired.fault, PageFault::ReadBitFlip);
        assert!(inj.on_page_read().is_none());
    }

    #[test]
    fn page_fault_draws_are_deterministic_per_seed() {
        let draw = |seed: u64| {
            let inj = FaultInjector::new(
                FaultPlan::new(seed).fault_at_page_read(0, PageFault::ReadBitFlip),
            );
            inj.on_page_read().unwrap().draw
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn random_rate_is_reproducible_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(FaultPlan::new(seed).transient_rate(0.3));
            (0..64).map(|_| inj.on_statement().is_err()).collect()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
        let failures = run(99).iter().filter(|b| **b).count();
        assert!(failures > 5 && failures < 40, "rate wildly off: {failures}");
    }
}
