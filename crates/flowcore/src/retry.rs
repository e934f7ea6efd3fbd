//! Retry policies and circuit breakers over the engine's fault model.
//!
//! The recovery layer every product stack routes its SQL through:
//! a [`RetryPolicy`] (bounded attempts, exponential backoff with seeded
//! jitter) and a per-service [`CircuitBreaker`] (closed → open on
//! consecutive failures → half-open probe after a cooldown). Everything
//! is deterministic: jitter comes from the kernel's SplitMix64 PRNG and
//! time is virtual ticks on the runtime's own clock — each `run` call
//! advances it by one tick, and each backoff by its tick count — so a
//! given seed replays the exact same recovery trace.
//!
//! Only *transient* failures are retried (see
//! [`FlowError::is_transient`]): deterministic errors — constraint
//! violations, parse errors, missing variables — would fail identically
//! again, and retrying them just burns the budget.

use std::collections::HashMap;

use sqlkernel::fault::SplitMix64;
use sqlkernel::Database;

use crate::error::{FlowError, FlowResult};

/// Bounded retry with exponential backoff, in virtual ticks.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, the first one included. `1` disables retry.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff_ticks: u64,
    /// Exponential growth factor between consecutive backoffs.
    pub backoff_multiplier: u32,
    /// Ceiling on a single backoff (before jitter).
    pub max_backoff_ticks: u64,
    /// Uniform jitter in `[0, jitter_ticks]` added to every backoff.
    pub jitter_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ticks: 2,
            backoff_multiplier: 2,
            max_backoff_ticks: 64,
            jitter_ticks: 3,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (attempts = 1).
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before retry number `retry_index` (0-based), jittered.
    pub fn backoff_for(&self, retry_index: u32, rng: &mut SplitMix64) -> u64 {
        let mut backoff = self.base_backoff_ticks;
        for _ in 0..retry_index {
            backoff = backoff.saturating_mul(self.backoff_multiplier as u64);
            if backoff >= self.max_backoff_ticks {
                backoff = self.max_backoff_ticks;
                break;
            }
        }
        let backoff = backoff.min(self.max_backoff_ticks);
        if self.jitter_ticks == 0 {
            backoff
        } else {
            backoff + rng.next_below(self.jitter_ticks + 1)
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Virtual ticks the breaker stays open before half-open probing.
    pub cooldown_ticks: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 5,
            cooldown_ticks: 100,
        }
    }
}

/// Breaker state machine: `Closed` admits everything, `Open` fails fast,
/// `HalfOpen` admits a single probe whose outcome closes or reopens it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// A dehydrated breaker: `(key, state, consecutive_failures, opened_at)`.
/// The wire form of [`RetryRuntime::export_breakers`] /
/// [`RetryRuntime::import_breakers`].
pub type BreakerSnapshot = (String, BreakerState, u32, u64);

/// Per-service circuit breaker (keyed by service/database name inside
/// [`RetryRuntime`]).
#[derive(Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: u64,
}

impl CircuitBreaker {
    fn new() -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: 0,
        }
    }

    /// Rebuild a breaker from a dehydrated snapshot (see
    /// [`RetryRuntime::import_breakers`]).
    fn from_parts(
        state: BreakerState,
        consecutive_failures: u32,
        opened_at: u64,
    ) -> CircuitBreaker {
        CircuitBreaker {
            state,
            consecutive_failures,
            opened_at,
        }
    }

    /// Current state (for tests and introspection).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// May a call proceed at virtual time `now`? Transitions Open →
    /// HalfOpen once the cooldown elapsed. Returns whether this call is
    /// the half-open probe.
    fn admit(&mut self, now: u64, cfg: &BreakerConfig) -> Result<bool, ()> {
        match self.state {
            BreakerState::Closed => Ok(false),
            BreakerState::HalfOpen => Ok(true),
            BreakerState::Open => {
                if now >= self.opened_at + cfg.cooldown_ticks {
                    self.state = BreakerState::HalfOpen;
                    Ok(true)
                } else {
                    Err(())
                }
            }
        }
    }

    /// Record a success: closes the breaker and clears the failure run.
    fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Record a failure at `now`; returns `true` when this trips the
    /// breaker open (including a failed half-open probe re-opening it).
    fn on_failure(&mut self, now: u64, cfg: &BreakerConfig) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = now;
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= cfg.failure_threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }
}

/// What one [`RetryRuntime::run`] call did, for audit trails and stats.
#[derive(Debug, Default, Clone)]
pub struct RetryReport {
    /// Attempts made (1 = first try succeeded or failed terminally).
    pub attempts: u32,
    /// Retries after transient failures (`attempts - 1` unless the
    /// breaker cut the loop short).
    pub retries: u32,
    /// Total virtual backoff ticks slept.
    pub backoff_ticks: u64,
    /// Did this call trip a breaker open?
    pub breaker_tripped: bool,
    /// Human-readable recovery trace, one line per event — callers
    /// append these to the workflow audit trail.
    pub log: Vec<String>,
}

/// The per-deployment recovery runtime: one policy, one seeded PRNG, one
/// virtual clock, and a circuit breaker per service key.
#[derive(Debug)]
pub struct RetryRuntime {
    /// The retry policy applied to every `run` call.
    pub policy: RetryPolicy,
    breaker_cfg: BreakerConfig,
    rng: SplitMix64,
    clock: u64,
    breakers: HashMap<String, CircuitBreaker>,
    total_retries: u64,
    total_breaker_trips: u64,
}

impl RetryRuntime {
    /// Default policy/breaker with the given PRNG seed.
    pub fn new(seed: u64) -> RetryRuntime {
        RetryRuntime {
            policy: RetryPolicy::default(),
            breaker_cfg: BreakerConfig::default(),
            rng: SplitMix64::new(seed),
            clock: 0,
            breakers: HashMap::new(),
            total_retries: 0,
            total_breaker_trips: 0,
        }
    }

    /// Builder: replace the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> RetryRuntime {
        self.policy = policy;
        self
    }

    /// Builder: replace the breaker configuration.
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> RetryRuntime {
        self.breaker_cfg = cfg;
        self
    }

    /// Virtual-clock reading.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advance the virtual clock (lets tests and schedulers model idle
    /// time, e.g. to bring an open breaker into its half-open window).
    pub fn advance(&mut self, ticks: u64) {
        self.clock += ticks;
    }

    /// Retries performed over the runtime's lifetime.
    pub fn total_retries(&self) -> u64 {
        self.total_retries
    }

    /// Breaker trips over the runtime's lifetime.
    pub fn total_breaker_trips(&self) -> u64 {
        self.total_breaker_trips
    }

    /// Dehydrate every breaker as `(key, state, consecutive_failures,
    /// opened_at)`, sorted by key so the encoding is deterministic. Used
    /// by the persistence layer to park breaker state alongside process
    /// variables when an instance dehydrates.
    pub fn export_breakers(&self) -> Vec<BreakerSnapshot> {
        let mut out: Vec<BreakerSnapshot> = self
            .breakers
            .iter()
            .map(|(k, b)| (k.clone(), b.state, b.consecutive_failures, b.opened_at))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Rehydrate breakers from an [`export_breakers`](Self::export_breakers)
    /// snapshot, replacing any same-keyed breaker. Breakers for keys not
    /// in the snapshot are left untouched.
    pub fn import_breakers(&mut self, snapshot: &[BreakerSnapshot]) {
        for (key, state, failures, opened_at) in snapshot {
            self.breakers.insert(
                key.clone(),
                CircuitBreaker::from_parts(*state, *failures, *opened_at),
            );
        }
    }

    /// Fast-forward the virtual clock to at least `ticks` (rehydration:
    /// a restored `opened_at` is only meaningful against the clock it
    /// was recorded under). Never moves the clock backwards.
    pub fn restore_clock(&mut self, ticks: u64) {
        self.clock = self.clock.max(ticks);
    }

    /// Breaker state for `key` (`Closed` if never used).
    pub fn breaker_state(&self, key: &str) -> BreakerState {
        self.breakers
            .get(key)
            .map(|b| b.state())
            .unwrap_or(BreakerState::Closed)
    }

    /// Run `op` under the retry policy and the circuit breaker for
    /// `key`. Transient failures back off (virtual ticks) and retry up
    /// to the policy budget; deterministic failures and breaker-open
    /// conditions return immediately. When `db` is given, retries and
    /// breaker trips are also recorded in its [`sqlkernel::DbStats`] and
    /// backoff advances its fault injector's virtual clock, keeping both
    /// layers on one timeline.
    pub fn run<T>(
        &mut self,
        key: &str,
        db: Option<&Database>,
        mut op: impl FnMut() -> FlowResult<T>,
    ) -> (FlowResult<T>, RetryReport) {
        self.run_with(key, db, |_| op())
    }

    /// [`run`](Self::run) whose `op` also receives the runtime as the
    /// attempt sees it: the clock already advanced for this call and
    /// every backoff so far, and `key`'s breaker admitted but not yet
    /// closed by the attempt's success. The persistence layer uses this
    /// to write the breaker state inside the transaction the attempt
    /// commits.
    pub fn run_with<T>(
        &mut self,
        key: &str,
        db: Option<&Database>,
        mut op: impl FnMut(&RetryRuntime) -> FlowResult<T>,
    ) -> (FlowResult<T>, RetryReport) {
        let mut report = RetryReport::default();
        self.clock += 1; // one unit of work per run call
        loop {
            let now = self.clock;
            let probing = {
                let breaker = self
                    .breakers
                    .entry(key.to_string())
                    .or_insert_with(CircuitBreaker::new);
                match breaker.admit(now, &self.breaker_cfg) {
                    Ok(probing) => probing,
                    Err(()) => {
                        report
                            .log
                            .push(format!("circuit breaker open for '{key}': failing fast"));
                        return (
                            Err(FlowError::Service(format!(
                                "circuit breaker open for '{key}'"
                            ))),
                            report,
                        );
                    }
                }
            };
            if probing {
                report.log.push(format!("half-open probe for '{key}'"));
            }

            report.attempts += 1;
            match op(self) {
                Ok(v) => {
                    let breaker = self.breakers.get_mut(key).expect("inserted above");
                    if probing {
                        report
                            .log
                            .push(format!("probe succeeded: breaker for '{key}' closed"));
                    }
                    breaker.on_success();
                    return (Ok(v), report);
                }
                Err(e) => {
                    let tripped = {
                        let breaker = self.breakers.get_mut(key).expect("inserted above");
                        breaker.on_failure(now, &self.breaker_cfg)
                    };
                    if tripped {
                        report.breaker_tripped = true;
                        self.total_breaker_trips += 1;
                        if let Some(db) = db {
                            db.note_breaker_trip();
                        }
                        report
                            .log
                            .push(format!("circuit breaker for '{key}' tripped open"));
                    }
                    let out_of_budget = report.attempts >= self.policy.max_attempts;
                    if !e.is_transient() || out_of_budget || (tripped && probing) {
                        if e.is_transient() && out_of_budget {
                            report.log.push(format!(
                                "retries exhausted for '{key}' after {} attempts: {e}",
                                report.attempts
                            ));
                        }
                        return (Err(e), report);
                    }
                    let backoff = self.policy.backoff_for(report.retries, &mut self.rng);
                    self.clock += backoff;
                    report.retries += 1;
                    report.backoff_ticks += backoff;
                    self.total_retries += 1;
                    if let Some(db) = db {
                        db.note_retry();
                        if let Some(inj) = db.fault_injector() {
                            inj.advance_ticks(backoff);
                        }
                    }
                    report.log.push(format!(
                        "retry {} for '{key}' after transient failure ({e}); backoff {backoff} ticks",
                        report.retries
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkernel::SqlError;

    fn transient() -> FlowError {
        FlowError::Sql(SqlError::Transient("connection reset".into()))
    }

    #[test]
    fn first_try_success_is_untouched() {
        let mut rt = RetryRuntime::new(1);
        let (r, report) = rt.run("svc", None, || Ok(42));
        assert_eq!(r.unwrap(), 42);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.retries, 0);
        assert!(report.log.is_empty());
    }

    #[test]
    fn transient_failures_retry_with_growing_backoff() {
        let mut rt = RetryRuntime::new(1);
        let mut failures_left = 2;
        let (r, report) = rt.run("svc", None, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(transient())
            } else {
                Ok("done")
            }
        });
        assert_eq!(r.unwrap(), "done");
        assert_eq!(report.attempts, 3);
        assert_eq!(report.retries, 2);
        assert!(report.backoff_ticks >= 2 + 4, "exponential backoff");
        assert_eq!(rt.total_retries(), 2);
    }

    #[test]
    fn deterministic_errors_never_retry() {
        let mut rt = RetryRuntime::new(1);
        let mut calls = 0;
        let (r, report) = rt.run("svc", None, || {
            calls += 1;
            Err::<(), _>(FlowError::Sql(SqlError::Constraint("pk".into())))
        });
        assert!(r.is_err());
        assert_eq!(calls, 1);
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn budget_exhaustion_returns_last_transient() {
        let mut rt = RetryRuntime::new(1);
        let (r, report) = rt.run("svc", None, || Err::<(), _>(transient()));
        let err = r.unwrap_err();
        assert!(err.is_transient());
        assert_eq!(report.attempts, 4, "default budget");
        assert!(report.log.iter().any(|l| l.contains("exhausted")));
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let trace = |seed: u64| -> u64 {
            let mut rt = RetryRuntime::new(seed);
            let (_, report) = rt.run("svc", None, || Err::<(), _>(transient()));
            report.backoff_ticks
        };
        assert_eq!(trace(5), trace(5));
    }

    #[test]
    fn breaker_trips_fails_fast_then_half_open_probe_recovers() {
        let mut rt = RetryRuntime::new(1)
            .with_policy(RetryPolicy::no_retry())
            .with_breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown_ticks: 50,
            });
        // Three consecutive failures trip the breaker.
        for _ in 0..3 {
            let (r, _) = rt.run("db", None, || Err::<(), _>(transient()));
            assert!(r.is_err());
        }
        assert_eq!(rt.breaker_state("db"), BreakerState::Open);
        assert_eq!(rt.total_breaker_trips(), 1);
        // While open: fail fast without invoking the operation.
        let mut invoked = false;
        let (r, report) = rt.run("db", None, || {
            invoked = true;
            Ok(())
        });
        assert!(!invoked, "open breaker must not admit calls");
        assert!(r.unwrap_err().to_string().contains("circuit breaker open"));
        assert_eq!(report.attempts, 0);
        // After the cooldown, the half-open probe admits one call; its
        // success closes the breaker.
        rt.advance(50);
        let (r, report) = rt.run("db", None, || Ok("recovered"));
        assert_eq!(r.unwrap(), "recovered");
        assert!(report.log.iter().any(|l| l.contains("half-open probe")));
        assert_eq!(rt.breaker_state("db"), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_breaker() {
        let mut rt = RetryRuntime::new(1)
            .with_policy(RetryPolicy::no_retry())
            .with_breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown_ticks: 10,
            });
        let (_, _) = rt.run("db", None, || Err::<(), _>(transient()));
        assert_eq!(rt.breaker_state("db"), BreakerState::Open);
        rt.advance(10);
        let (r, _) = rt.run("db", None, || Err::<(), _>(transient()));
        assert!(r.is_err());
        assert_eq!(
            rt.breaker_state("db"),
            BreakerState::Open,
            "failed probe reopens"
        );
        assert_eq!(rt.total_breaker_trips(), 2);
    }

    #[test]
    fn breakers_are_per_key() {
        let mut rt = RetryRuntime::new(1)
            .with_policy(RetryPolicy::no_retry())
            .with_breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown_ticks: 1000,
            });
        let (_, _) = rt.run("bad", None, || Err::<(), _>(transient()));
        assert_eq!(rt.breaker_state("bad"), BreakerState::Open);
        let (r, _) = rt.run("good", None, || Ok(1));
        assert!(r.is_ok(), "unrelated key unaffected");
    }

    #[test]
    fn db_counters_record_retries_and_trips() {
        let db = Database::new("t");
        let mut rt = RetryRuntime::new(1).with_breaker(BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 1000,
        });
        let (r, _) = rt.run("t", Some(&db), || Err::<(), _>(transient()));
        // The breaker trips after the second failure and then fails the
        // next admit fast, cutting the retry loop short of its budget.
        assert!(r.unwrap_err().to_string().contains("circuit breaker open"));
        let stats = db.stats();
        assert_eq!(stats.retries, 2, "breaker cuts the retry loop short");
        assert_eq!(stats.breaker_trips, 1);
    }
}
