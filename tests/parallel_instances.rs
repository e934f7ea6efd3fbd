//! Parallel multi-instance execution, tested differentially across all
//! three product stacks: N workflow instances driven concurrently by the
//! [`InstanceScheduler`] worker pool must leave the database — user
//! tables AND the durable parts of every instance row — byte-identical
//! to the same N instances run sequentially (a one-worker pool), for
//! several scheduler seeds, both fault-free and under a seeded transient
//! storm with retries.
//!
//! This is the concurrency analog of `crash_recovery.rs`: where that
//! file proves crashes cannot corrupt state, this one proves parallelism
//! cannot — as long as instances follow the pattern every product in the
//! paper assumes, *multiple parallel instances over disjoint rows*.

use std::sync::Arc;

use flowsql::bis::{BisDeployment, DataSourceRegistry};
use flowsql::flowcore::persistence::{DurableProcess, PersistenceService};
use flowsql::flowcore::retry::{BreakerConfig, RetryPolicy, RetryRuntime};
use flowsql::flowcore::scheduler::InstanceScheduler;
use flowsql::flowcore::value::{VarValue, Variables};
use flowsql::patterns::chaos::{db_fingerprint_excluding, rows_fingerprint, scripted_storm};
use flowsql::soa::run_durable_pages_many;
use flowsql::sqlkernel::{Database, MemLogStore, Value};
use flowsql::wf::SqlWorkflowPersistenceService;

const INSTANCES: usize = 12;
const WORKERS: usize = 4;
const SEEDS: [u64; 3] = [11, 42, 1337];

/// Transient-storm coverage and a retry budget that outlasts it.
const STORM_HORIZON: u64 = 150;

fn storm_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: STORM_HORIZON as u32 + 2,
        max_backoff_ticks: 8,
        ..RetryPolicy::default()
    }
}

fn no_trip() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: u32::MAX,
        cooldown_ticks: 1,
    }
}

/// Per-instance retry runtime with a budget that outlasts the storm —
/// under parallel interleaving any one instance may absorb most of the
/// storm's faults, so the default 4-attempt budget is not enough.
fn storm_runtime(i: usize) -> RetryRuntime {
    RetryRuntime::new(9u64.wrapping_add(i as u64))
        .with_policy(storm_policy())
        .with_breaker(no_trip())
}

/// User tables plus the durable parts of every instance row. The breaker
/// column is excluded: retry clocks legitimately differ between a stormy
/// and a calm history (and between interleavings).
fn durable_fingerprint(db: &Database) -> String {
    let user = db_fingerprint_excluding(db, &["FLOW_INSTANCES"]);
    let instances = db
        .connect()
        .query(
            "SELECT InstanceKey, Process, Pc, Status, Vars FROM FLOW_INSTANCES \
             ORDER BY InstanceKey",
            &[],
        )
        .map(|rs| rows_fingerprint(&rs))
        .unwrap_or_default();
    format!("{user}\n-- instances --\n{instances}")
}

fn keys(prefix: &str) -> Vec<String> {
    (0..INSTANCES).map(|i| format!("{prefix}-{i}")).collect()
}

// ---------------------------------------------------------------------------
// BIS
// ---------------------------------------------------------------------------

fn bis_schema(db: &Database) {
    db.connect()
        .execute_script(
            "CREATE TABLE Orders (OrderId INT PRIMARY KEY, Qty INT);
             CREATE TABLE Shipments (ShipId INT PRIMARY KEY, OrderId INT);",
        )
        .unwrap();
    // FLOW_INSTANCES exists before any worker takes its first step, so
    // concurrent first-steppers never race on DDL.
    PersistenceService::new(db).unwrap();
}

/// Instance `i` works exclusively on rows keyed by `i`.
fn bis_process(i: usize) -> DurableProcess {
    let id = i as i64;
    DurableProcess::new("intake")
        .step("record", move |conn, vars| {
            conn.execute(
                "INSERT INTO Orders VALUES (?, ?)",
                &[Value::Int(id), Value::Int(id * 2)],
            )?;
            vars.set("order", VarValue::Scalar(Value::Int(id)));
            Ok(())
        })
        .step("ship", move |conn, vars| {
            conn.execute(
                "INSERT INTO Shipments VALUES (?, ?)",
                &[Value::Int(1000 + id), Value::Int(id)],
            )?;
            vars.set("shipped", VarValue::Scalar(Value::Bool(true)));
            Ok(())
        })
        .step("close", move |conn, vars| {
            conn.execute(
                "UPDATE Orders SET Qty = Qty + 1 WHERE OrderId = ?",
                &[Value::Int(id)],
            )?;
            vars.set("closed", VarValue::Scalar(Value::Bool(true)));
            Ok(())
        })
}

fn bis_run(workers: usize, sched_seed: u64, storm: Option<u64>) -> String {
    let store = MemLogStore::new();
    let db = Database::recover("par_bis", Arc::new(store)).unwrap();
    bis_schema(&db);
    if let Some(seed) = storm {
        db.set_fault_plan(Some(scripted_storm(seed, STORM_HORIZON, 8)));
    }
    let deployment = BisDeployment::new(DataSourceRegistry::new().with(db.clone()))
        .with_retry(77, storm_policy())
        .with_breaker(no_trip());
    let scheduler = InstanceScheduler::new(workers).with_seed(sched_seed);
    let results = deployment.run_many_durable(
        "par_bis",
        bis_process,
        &keys("order"),
        &Variables::new(),
        &scheduler,
    );
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "instance {i} failed: {r:?}");
    }
    db.set_fault_plan(None);
    durable_fingerprint(&db)
}

#[test]
fn bis_parallel_matches_sequential_fingerprint() {
    let sequential = bis_run(1, 0, None);
    for seed in SEEDS {
        assert_eq!(
            bis_run(WORKERS, seed, None),
            sequential,
            "seed {seed}: parallel run diverged from sequential"
        );
    }
}

#[test]
fn bis_parallel_matches_sequential_under_transient_storm() {
    let sequential = bis_run(1, 0, None);
    for seed in SEEDS {
        assert_eq!(
            bis_run(WORKERS, seed, Some(seed)),
            sequential,
            "seed {seed}: stormy parallel run diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// WF
// ---------------------------------------------------------------------------

fn wf_schema(db: &Database) {
    db.connect()
        .execute_script("CREATE TABLE Approvals (Id INT PRIMARY KEY, Decision TEXT);")
        .unwrap();
    PersistenceService::new(db).unwrap();
}

fn wf_process(i: usize) -> DurableProcess {
    let id = i as i64;
    DurableProcess::new("approval")
        .step("submit", move |conn, vars| {
            conn.execute(
                "INSERT INTO Approvals VALUES (?, 'pending')",
                &[Value::Int(id)],
            )?;
            vars.set("state", VarValue::Scalar(Value::text("pending")));
            Ok(())
        })
        .step("decide", move |conn, vars| {
            conn.execute(
                "UPDATE Approvals SET Decision = 'approved' WHERE Id = ?",
                &[Value::Int(id)],
            )?;
            vars.set("state", VarValue::Scalar(Value::text("approved")));
            Ok(())
        })
}

fn wf_run(workers: usize, sched_seed: u64, storm: Option<u64>) -> String {
    let store = MemLogStore::new();
    let db = Database::recover("par_wf", Arc::new(store)).unwrap();
    wf_schema(&db);
    if let Some(seed) = storm {
        db.set_fault_plan(Some(scripted_storm(seed, STORM_HORIZON, 8)));
    }
    let svc = SqlWorkflowPersistenceService::new(&db).unwrap();
    let scheduler = InstanceScheduler::new(workers).with_seed(sched_seed);
    let results = svc.run_workflows(
        wf_process,
        &keys("appr"),
        &Variables::new(),
        storm_runtime,
        &scheduler,
    );
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "instance {i} failed: {r:?}");
    }
    db.set_fault_plan(None);
    durable_fingerprint(&db)
}

#[test]
fn wf_parallel_matches_sequential_fingerprint() {
    let sequential = wf_run(1, 0, None);
    for seed in SEEDS {
        assert_eq!(wf_run(WORKERS, seed, None), sequential, "seed {seed}");
    }
}

#[test]
fn wf_parallel_matches_sequential_under_transient_storm() {
    let sequential = wf_run(1, 0, None);
    for seed in SEEDS {
        assert_eq!(wf_run(WORKERS, seed, Some(seed)), sequential, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// SOA
// ---------------------------------------------------------------------------

const SOA_PAGES: [(&str, &str); 2] = [
    (
        "stage",
        "<xsql:page xmlns:xsql=\"urn:oracle-xsql\">\
         <xsql:dml>INSERT INTO Staging VALUES ({@id}, {@item})</xsql:dml>\
         </xsql:page>",
    ),
    (
        "publish",
        "<xsql:page xmlns:xsql=\"urn:oracle-xsql\">\
         <xsql:dml>INSERT INTO Published VALUES ({@id}, {@item})</xsql:dml>\
         <xsql:query>SELECT Item FROM Published WHERE Id = {@id}</xsql:query>\
         </xsql:page>",
    ),
];

fn soa_schema(db: &Database) {
    db.connect()
        .execute_script(
            "CREATE TABLE Staging (Id INT PRIMARY KEY, Item TEXT);
             CREATE TABLE Published (Id INT PRIMARY KEY, Item TEXT);",
        )
        .unwrap();
    PersistenceService::new(db).unwrap();
}

fn soa_params(i: usize) -> Vec<(String, Value)> {
    vec![
        ("id".into(), Value::Int(i as i64)),
        ("item".into(), Value::text(format!("item{i}"))),
    ]
}

fn soa_run(workers: usize, sched_seed: u64, storm: Option<u64>) -> String {
    let store = MemLogStore::new();
    let db = Database::recover("par_soa", Arc::new(store)).unwrap();
    soa_schema(&db);
    if let Some(seed) = storm {
        db.set_fault_plan(Some(scripted_storm(seed, STORM_HORIZON, 8)));
    }
    let scheduler = InstanceScheduler::new(workers).with_seed(sched_seed);
    let results = run_durable_pages_many(
        &db,
        "xsql-seq",
        &SOA_PAGES,
        &keys("page"),
        soa_params,
        storm_runtime,
        &scheduler,
    );
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "instance {i} failed: {r:?}");
    }
    db.set_fault_plan(None);
    durable_fingerprint(&db)
}

#[test]
fn soa_parallel_matches_sequential_fingerprint() {
    let sequential = soa_run(1, 0, None);
    for seed in SEEDS {
        assert_eq!(soa_run(WORKERS, seed, None), sequential, "seed {seed}");
    }
}

#[test]
fn soa_parallel_matches_sequential_under_transient_storm() {
    let sequential = soa_run(1, 0, None);
    for seed in SEEDS {
        assert_eq!(
            soa_run(WORKERS, seed, Some(seed)),
            sequential,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------------
// Group commit under the same differential lens
// ---------------------------------------------------------------------------

#[test]
fn parallel_instances_with_group_commit_match_sequential() {
    // Same BIS workload, but the parallel run coalesces its commits
    // through the WAL group sequencer — durable state must not notice.
    let sequential = bis_run(1, 0, None);
    let store = MemLogStore::new();
    let db = Database::recover("par_bis", Arc::new(store.clone())).unwrap();
    bis_schema(&db);
    db.set_group_commit_window(3);
    let deployment = BisDeployment::new(DataSourceRegistry::new().with(db.clone()))
        .with_retry(77, storm_policy())
        .with_breaker(no_trip());
    let scheduler = InstanceScheduler::new(WORKERS).with_seed(42);
    let results = deployment.run_many_durable(
        "par_bis",
        bis_process,
        &keys("order"),
        &Variables::new(),
        &scheduler,
    );
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "instance {i} failed: {r:?}");
    }
    db.set_group_commit_window(0);
    assert_eq!(durable_fingerprint(&db), sequential);
    // And the grouped log recovers to the same state.
    drop(db);
    let db2 = Database::recover("par_bis", Arc::new(store)).unwrap();
    assert_eq!(durable_fingerprint(&db2), sequential);
}
