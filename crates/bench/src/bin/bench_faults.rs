//! Regenerates `docs/outputs/BENCH_faults.json` — cost of the fault
//! injection layer and recovered throughput under fault storms.
//!
//! Three questions, one row each:
//!
//! * **0% rate** — what does merely *installing* a fault plan cost?
//!   The same retry-wrapped workload runs once with no plan and once
//!   with a 0%-rate plan; the overhead of the injection gate must stay
//!   within noise (≤5%).
//! * **1% / 10% rate** — how much throughput does the retry layer
//!   *recover* when statements actually fail? Every operation still
//!   completes (the workload never loses a statement); the throughput
//!   row records what the faults and backoff cost.
//!
//! `BENCH_SMOKE=1` shortens the workload and skips the JSON write; the
//! asserts that every statement completes and that the 0%-rate plan
//! injects nothing run in both modes.

use std::time::Instant;

use bench::report::{self, Metric, Report};
use flowcore::retry::{BreakerConfig, RetryPolicy, RetryRuntime};
use flowcore::FlowError;
use sqlkernel::fault::FaultPlan;
use sqlkernel::{Database, Value};

const OPS: usize = 20_000;
const SMOKE_OPS: usize = 600;
const SEED: u64 = 20260807;

fn workload_db(name: &str) -> Database {
    let db = Database::new(name);
    db.connect()
        .execute("CREATE TABLE log (id INT PRIMARY KEY, v TEXT)", &[])
        .unwrap();
    db
}

/// Run `ops` retry-wrapped statements (alternating INSERT and the
/// re-read of the row just written), asserting every one completes;
/// returns statements per second per sample and the fault and retry
/// counts of the last sample.
fn measure(ops: usize, rate: f64, with_plan: bool) -> (Metric, u64, u64) {
    let mut rep = 0;
    let (mut faults, mut retries) = (0, 0);
    let samples = report::sample(|| {
        let db = workload_db("faults");
        if with_plan {
            db.set_fault_plan(Some(FaultPlan::new(SEED + rep).transient_rate(rate)));
        }
        rep += 1;
        let mut rt = RetryRuntime::new(SEED)
            .with_policy(RetryPolicy {
                max_attempts: 50,
                base_backoff_ticks: 1,
                jitter_ticks: 1,
                ..RetryPolicy::default()
            })
            .with_breaker(BreakerConfig {
                failure_threshold: 1_000_000,
                cooldown_ticks: 1,
            });
        let conn = db.connect();
        let insert = "INSERT INTO log VALUES (?, 'x')";
        let read = "SELECT v FROM log WHERE id = ?";
        let start = Instant::now();
        for i in 0..ops {
            let (sql, n) = if i % 2 == 0 {
                (insert, i as i64)
            } else {
                (read, (i - 1) as i64)
            };
            let (r, _) = rt.run(db.name(), Some(&db), || {
                conn.execute(sql, &[Value::Int(n)])
                    .map(|_| ())
                    .map_err(FlowError::from)
            });
            r.expect("the retry layer completes every statement");
        }
        let elapsed = start.elapsed().as_secs_f64();
        let stats = db.stats();
        (faults, retries) = (stats.faults_injected, stats.retries);
        ops as f64 / elapsed
    });
    (Metric::of("stmts/s", &samples), faults, retries)
}

fn main() {
    let ops = if report::smoke() { SMOKE_OPS } else { OPS };
    let mut report = Report::new(
        "faults",
        SEED,
        &format!(
            "{ops} retry-wrapped statements per sample; every run completes all \
             statements: faulted ones are retried to success, so the 1%/10% rows are \
             recovered throughput, not loss"
        ),
    );
    let (none, _, _) = measure(ops, 0.0, false);
    let base = none.median;
    eprintln!("no injector: {base:>10.0} stmts/s");
    report
        .point()
        .param("fault_plan", "none")
        .metric("throughput", none)
        .metric("vs_no_plan", Metric::value("x", 1.0))
        .stat("faults_injected", 0)
        .stat("retries", 0);

    for rate in [0.0f64, 0.01, 0.10] {
        let (m, faults, retries) = measure(ops, rate, true);
        if rate == 0.0 {
            assert_eq!(faults, 0, "a 0%-rate plan must never fire");
        }
        let vs_base = m.median / base;
        eprintln!(
            "{:>4.0}% faults: {:>10.0} stmts/s  ({vs_base:.2}x of no-injector, \
             {faults} injected, {retries} retries)",
            rate * 100.0,
            m.median,
        );
        report
            .point()
            .param(
                "fault_plan",
                format!("{}% transient", rate * 100.0).as_str(),
            )
            .metric("throughput", m)
            .metric("vs_no_plan", Metric::value("x", vs_base))
            .stat("faults_injected", faults)
            .stat("retries", retries);
    }
    report.finish();
}
