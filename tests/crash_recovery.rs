//! The headline crash-consistency claim, tested differentially across
//! all three product stacks: a workflow whose process keeps dying —
//! before the log write, after it, mid-apply, and during checkpoints —
//! must, after recovery and resumption, leave the user tables
//! **byte-identical** to a crash-free run, with every committed step
//! executed exactly once and no completed activity re-executed.
//!
//! Each scenario runs crash-free once on a durable database, then again
//! from scratch under ≥3 seeded crash schedules ([`crash_storm`]) and a
//! combined schedule mixing transient faults with process deaths
//! ([`combined_storm`]). Every "reboot" is a real one: the frozen
//! injector guarantees the dead process can contribute nothing more, and
//! `Database::recover` rebuilds state strictly from the log bytes.
//!
//! The `CRASH_SEED` environment variable adds one more schedule seed —
//! the CI crash-recovery step uses it to rotate schedules without
//! editing the test.

use std::sync::Arc;

use flowsql::bis::{BisDeployment, DataSourceRegistry};
use flowsql::flowcore::persistence::{DurableProcess, PersistenceService, STATUS_COMPLETED};
use flowsql::flowcore::retry::{BreakerConfig, RetryPolicy, RetryRuntime};
use flowsql::flowcore::value::{VarValue, Variables};
use flowsql::patterns::chaos::{
    combined_storm, crash_storm, db_fingerprint_excluding, rows_fingerprint, CrashSchedule,
};
use flowsql::soa::run_durable_pages;
use flowsql::sqlkernel::{wal, Database, MemLogStore, SqlError, Value};
use flowsql::wf::SqlWorkflowPersistenceService;

/// Statement indices covered by the storms.
const HORIZON: u64 = 120;

/// The three fixed schedule seeds, plus an optional CI-provided one.
fn schedule_seeds() -> Vec<u64> {
    let mut seeds = vec![11, 42, 1337];
    if let Some(extra) = std::env::var("CRASH_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        if !seeds.contains(&extra) {
            seeds.push(extra);
        }
    }
    seeds
}

/// A retry budget that guarantees eventual success against a bounded
/// transient storm: every failed attempt consumes at least one faulted
/// index, and there are at most `HORIZON` of them.
fn storm_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: HORIZON as u32 + 2,
        max_backoff_ticks: 8,
        ..RetryPolicy::default()
    }
}

/// A breaker that never trips — the claim under test is crash recovery,
/// not fail-fast (the breaker has its own tests).
fn no_trip() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: u32::MAX,
        cooldown_ticks: 1,
    }
}

fn fresh_runtime() -> RetryRuntime {
    RetryRuntime::new(77)
        .with_policy(storm_policy())
        .with_breaker(no_trip())
}

/// Fingerprint of the user tables plus the durable parts of the
/// instance row (variables, pc, status — NOT the breaker clock, which
/// legitimately differs between a crashed and a clean history).
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

/// Drive `run` against a durable store under a crash schedule: one
/// process lifetime per scheduled crash, then a final clean lifetime.
/// Every lifetime starts with `Database::recover` over the log bytes —
/// the only state that survives a crash. A checkpoint is attempted
/// between lifetimes (sometimes dying itself, per the schedule). Returns
/// the number of crashes that actually fired.
fn run_to_completion(
    store: &MemLogStore,
    schedule: &CrashSchedule,
    mut run: impl FnMut(&Database) -> Result<(), flowsql::flowcore::FlowError>,
) -> usize {
    let mut fired = 0usize;
    for life in 0..=schedule.crashes() {
        let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
        db.set_fault_plan(Some(schedule.plan(life)));
        let result = run(&db);
        let frozen = db.fault_injector().map(|i| i.frozen()).unwrap_or(false);
        if frozen {
            assert!(result.is_err(), "a crash must surface as an error");
            fired += 1;
            continue; // reboot: next lifetime recovers from the log
        }
        if result.is_ok() {
            // Completed. Attempt a checkpoint so late checkpoint-crash
            // schedules get their shot; a dying checkpoint just means
            // one more recovery below.
            if db.checkpoint().is_err() {
                fired += 1;
            }
            return fired;
        }
        // A non-crash failure (e.g. transient budget); with the storm
        // policy this cannot happen.
        panic!("run failed without a crash: {result:?}");
    }
    // All scheduled crashes fired and the final lifetime still did not
    // complete — one more clean lifetime must finish it.
    let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
    assert!(
        run(&db).is_ok(),
        "clean lifetime after the storm must complete"
    );
    fired
}

/// Final verification shared by every scenario: recover once more from
/// the log alone and compare against the crash-free baseline.
fn assert_recovers_to(store: &MemLogStore, baseline: &str, instance_key: &str) {
    let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
    assert_eq!(
        durable_fingerprint(&db),
        baseline,
        "recovered state must be byte-identical to the crash-free run"
    );
    let svc = PersistenceService::new(&db).unwrap();
    let (_, status) = svc.instance_status(instance_key).unwrap().unwrap();
    assert_eq!(status, STATUS_COMPLETED);
    assert!(db.stats().recoveries > 0, "recovery counter must report");
}

// ---------------------------------------------------------------------------
// BIS: deployment-resume over a durable data source
// ---------------------------------------------------------------------------

fn bis_schema(db: &Database) {
    db.connect()
        .execute_script(
            "CREATE TABLE Orders (OrderId INT PRIMARY KEY, Item TEXT, Qty INT);
             CREATE TABLE Shipments (ShipId INT PRIMARY KEY, OrderId INT);
             CREATE SEQUENCE ship_seq START WITH 100;",
        )
        .unwrap();
}

fn bis_process() -> DurableProcess {
    DurableProcess::new("order-intake")
        .step("record", |conn, vars| {
            conn.execute("INSERT INTO Orders VALUES (1, 'widget', 3)", &[])?;
            vars.set("order", VarValue::Scalar(Value::Int(1)));
            Ok(())
        })
        .step("ship", |conn, vars| {
            conn.execute("INSERT INTO Shipments VALUES (NEXTVAL('ship_seq'), 1)", &[])?;
            vars.set("shipped", VarValue::Scalar(Value::Bool(true)));
            Ok(())
        })
        .step("close", |conn, vars| {
            conn.execute("UPDATE Orders SET Qty = 0 WHERE OrderId = 1", &[])?;
            vars.set("closed", VarValue::Scalar(Value::Bool(true)));
            Ok(())
        })
}

fn bis_run(db: &Database) -> Result<(), flowsql::flowcore::FlowError> {
    let deployment = BisDeployment::new(DataSourceRegistry::new().with(db.clone()))
        .with_retry(77, storm_policy())
        .with_breaker(no_trip());
    deployment
        .run_durable("crash_db", &bis_process(), "intake-1", &Variables::new())
        .map(|_| ())
}

fn bis_baseline() -> String {
    let store = MemLogStore::new();
    let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
    bis_schema(&db);
    bis_run(&db).unwrap();
    durable_fingerprint(&db)
}

#[test]
fn bis_deployment_resumes_identically_under_crash_storms() {
    let baseline = bis_baseline();
    for seed in schedule_seeds() {
        let schedule = crash_storm(seed, HORIZON, 3);
        let store = MemLogStore::new();
        bis_schema(&Database::recover("crash_db", Arc::new(store.clone())).unwrap());
        run_to_completion(&store, &schedule, bis_run);
        assert_recovers_to(&store, &baseline, "intake-1");
    }
}

#[test]
fn bis_deployment_survives_combined_transient_and_crash_storm() {
    let baseline = bis_baseline();
    for seed in schedule_seeds() {
        let schedule = combined_storm(seed, HORIZON, 2, 10);
        let store = MemLogStore::new();
        bis_schema(&Database::recover("crash_db", Arc::new(store.clone())).unwrap());
        run_to_completion(&store, &schedule, bis_run);
        assert_recovers_to(&store, &baseline, "intake-1");
    }
}

#[test]
fn bis_deployment_with_group_commit_recovers_identically_under_crash_storms() {
    // Routing every commit through the WAL group sequencer must change
    // nothing about what a crash can destroy: the same storms, with
    // grouping enabled in every lifetime, recover to the same bytes as
    // the ungrouped crash-free baseline.
    let baseline = bis_baseline();
    for seed in schedule_seeds() {
        let schedule = crash_storm(seed, HORIZON, 3);
        let store = MemLogStore::new();
        bis_schema(&Database::recover("crash_db", Arc::new(store.clone())).unwrap());
        run_to_completion(&store, &schedule, |db| {
            db.set_group_commit_window(2);
            bis_run(db)
        });
        assert_recovers_to(&store, &baseline, "intake-1");
    }
}

#[test]
fn bis_deployment_with_group_commit_survives_combined_storm() {
    let baseline = bis_baseline();
    for seed in schedule_seeds() {
        let schedule = combined_storm(seed, HORIZON, 2, 10);
        let store = MemLogStore::new();
        bis_schema(&Database::recover("crash_db", Arc::new(store.clone())).unwrap());
        run_to_completion(&store, &schedule, |db| {
            db.set_group_commit_window(3);
            bis_run(db)
        });
        assert_recovers_to(&store, &baseline, "intake-1");
    }
}

// ---------------------------------------------------------------------------
// WF: SqlWorkflowPersistenceService (Fig. 5)
// ---------------------------------------------------------------------------

fn wf_schema(db: &Database) {
    db.connect()
        .execute_script(
            "CREATE TABLE Approvals (Id INT PRIMARY KEY, Decision TEXT);
             CREATE TABLE Audit (Seq INT PRIMARY KEY, What TEXT);",
        )
        .unwrap();
}

fn wf_process() -> DurableProcess {
    DurableProcess::new("approval")
        .step("submit", |conn, vars| {
            conn.execute("INSERT INTO Approvals VALUES (7, 'pending')", &[])?;
            conn.execute("INSERT INTO Audit VALUES (1, 'submitted')", &[])?;
            vars.set("state", VarValue::Scalar(Value::text("pending")));
            Ok(())
        })
        .step("decide", |conn, vars| {
            conn.execute(
                "UPDATE Approvals SET Decision = 'approved' WHERE Id = 7",
                &[],
            )?;
            conn.execute("INSERT INTO Audit VALUES (2, 'decided')", &[])?;
            vars.set("state", VarValue::Scalar(Value::text("approved")));
            Ok(())
        })
}

fn wf_run(db: &Database) -> Result<(), flowsql::flowcore::FlowError> {
    let svc = SqlWorkflowPersistenceService::new(db)?;
    let mut rt = fresh_runtime();
    svc.run_workflow(&wf_process(), "appr-7", &Variables::new(), &mut rt)
        .map(|_| ())
}

#[test]
fn wf_persistence_service_resumes_identically_under_crash_storms() {
    let baseline = {
        let store = MemLogStore::new();
        let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
        wf_schema(&db);
        wf_run(&db).unwrap();
        durable_fingerprint(&db)
    };
    for seed in schedule_seeds() {
        // Three statement crashes, then a checkpoint crash between
        // lifetimes (Fig. 5 host restart while the runtime snapshots).
        let mut schedule = crash_storm(seed, HORIZON, 3);
        schedule.checkpoint_crashes.push(0);
        let store = MemLogStore::new();
        wf_schema(&Database::recover("crash_db", Arc::new(store.clone())).unwrap());
        run_to_completion(&store, &schedule, wf_run);
        assert_recovers_to(&store, &baseline, "appr-7");
    }
}

// ---------------------------------------------------------------------------
// SOA: dehydration between XSQL pages
// ---------------------------------------------------------------------------

const SOA_PAGES: [(&str, &str); 2] = [
    (
        "stage",
        "<xsql:page xmlns:xsql=\"urn:oracle-xsql\">\
         <xsql:dml>INSERT INTO Staging VALUES (1, {@item})</xsql:dml>\
         </xsql:page>",
    ),
    (
        "publish",
        "<xsql:page xmlns:xsql=\"urn:oracle-xsql\">\
         <xsql:dml>INSERT INTO Published VALUES (1, {@item})</xsql:dml>\
         <xsql:query>SELECT Id FROM Published ORDER BY Id</xsql:query>\
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
}

fn soa_run(db: &Database) -> Result<(), flowsql::flowcore::FlowError> {
    let mut rt = fresh_runtime();
    run_durable_pages(
        db,
        "xsql-seq",
        &SOA_PAGES,
        "page-run-1",
        &[("item".into(), Value::text("widget"))],
        &mut rt,
    )
    .map(|_| ())
}

#[test]
fn soa_page_dehydration_resumes_identically_under_crash_storms() {
    let baseline = {
        let store = MemLogStore::new();
        let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
        soa_schema(&db);
        soa_run(&db).unwrap();
        durable_fingerprint(&db)
    };
    for seed in schedule_seeds() {
        let schedule = crash_storm(seed, HORIZON, 3);
        let store = MemLogStore::new();
        soa_schema(&Database::recover("crash_db", Arc::new(store.clone())).unwrap());
        run_to_completion(&store, &schedule, soa_run);
        assert_recovers_to(&store, &baseline, "page-run-1");
    }
}

// ---------------------------------------------------------------------------
// Cross-cutting guarantees
// ---------------------------------------------------------------------------

/// Completed activities are never re-executed: each step inserts a row
/// under a fixed primary key, so any replay would either violate the key
/// (failing the run) or duplicate the row (failing the fingerprint).
/// This test makes the count explicit across a double-crash schedule.
#[test]
fn no_completed_step_reexecutes_across_double_crash() {
    for seed in schedule_seeds() {
        let schedule = crash_storm(seed.wrapping_mul(31), HORIZON, 2);
        let store = MemLogStore::new();
        bis_schema(&Database::recover("crash_db", Arc::new(store.clone())).unwrap());
        run_to_completion(&store, &schedule, bis_run);
        let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
        let conn = db.connect();
        let orders = conn.query("SELECT OrderId FROM Orders", &[]).unwrap();
        assert_eq!(orders.rows.len(), 1, "record step committed exactly once");
        let ships = conn.query("SELECT ShipId FROM Shipments", &[]).unwrap();
        assert_eq!(ships.rows.len(), 1, "ship step committed exactly once");
        assert_eq!(
            ships.rows[0][0],
            Value::Int(100),
            "committed sequence draws survive recovery without gaps"
        );
    }
}

/// A crash during checkpoint must fall back to the intact pre-checkpoint
/// log: nothing committed is lost, and the next checkpoint succeeds.
#[test]
fn checkpoint_crash_preserves_committed_state() {
    let store = MemLogStore::new();
    let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
    bis_schema(&db);
    bis_run(&db).unwrap();
    let before = durable_fingerprint(&db);

    let mut schedule = CrashSchedule::default();
    schedule.checkpoint_crashes.push(0);
    db.set_fault_plan(Some(schedule.plan(0)));
    assert!(db.checkpoint().is_err(), "scheduled checkpoint crash");

    let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
    assert_eq!(durable_fingerprint(&db), before);
    db.checkpoint().unwrap();
    let db = Database::recover("crash_db", Arc::new(store)).unwrap();
    assert_eq!(durable_fingerprint(&db), before);
}

/// A torn tail — garbage bytes past the last intact frame, as a crash
/// mid-append leaves them — is dropped by the recovery scan, and the
/// exact number of dropped bytes is reported in [`DbStats`].
#[test]
fn torn_log_tail_is_dropped_and_counted() {
    use flowsql::sqlkernel::LogStore;

    let store = MemLogStore::new();
    let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
    bis_schema(&db);
    bis_run(&db).unwrap();
    let before = durable_fingerprint(&db);
    drop(db);

    // 37 bytes whose frame header claims an impossible length: the scan
    // must stop at the last intact frame and drop exactly these bytes.
    let garbage = [0xFFu8; 37];
    store.append(&garbage).unwrap();

    let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
    assert_eq!(
        durable_fingerprint(&db),
        before,
        "torn tail corrupted state"
    );
    assert_eq!(
        db.stats().torn_tails_dropped,
        garbage.len() as u64,
        "dropped torn-tail bytes must be reported exactly"
    );
    // A clean re-recovery after a checkpoint sees no torn tail at all.
    db.checkpoint().unwrap();
    let db = Database::recover("crash_db", Arc::new(store)).unwrap();
    assert_eq!(db.stats().torn_tails_dropped, 0);
}

/// FNV-1a 64, the checksum of version 1 logs and pages.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The same log in version 1: no header, every frame's digest FNV-1a.
fn to_version_one(log: &[u8]) -> Vec<u8> {
    let mut frames = log
        .strip_prefix(&wal::LOG_HEADER)
        .expect("a log starts with its header");
    let mut out = Vec::new();
    while !frames.is_empty() {
        let len = u32::from_le_bytes(frames[..4].try_into().unwrap()) as usize;
        let payload = &frames[12..12 + len];
        out.extend_from_slice(&frames[..4]);
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);
        frames = &frames[12 + len..];
    }
    out
}

/// A version 1 log is refused with its version and left as it is. It is
/// never read as a log torn at byte 0, which would open an empty
/// database in place of the one it holds.
#[test]
fn version_one_log_is_refused_not_recovered_empty() {
    let store = MemLogStore::new();
    let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
    bis_schema(&db);
    bis_run(&db).unwrap();
    drop(db);
    let v1 = MemLogStore::from_bytes(to_version_one(&store.bytes()));
    let before = v1.bytes();
    assert!(!before.is_empty());
    let err = Database::recover("crash_db", Arc::new(v1.clone())).unwrap_err();
    assert_eq!(err, SqlError::unsupported_format("log", 1));
    assert_eq!(v1.bytes(), before, "a refused log is left as it is");
}

// ---------------------------------------------------------------------------
// Batched reads after crash recovery: a database rebuilt strictly from
// the log bytes must read the same bytes through compiled/batched plans
// as through the row-at-a-time interpreter — on every recovered table
// and on a grouped aggregate over the recovered rows.
// ---------------------------------------------------------------------------

#[test]
fn batched_reads_match_interpreter_after_crash_storm() {
    use flowsql::sqlkernel::parser::parse_statement;
    use flowsql::sqlkernel::{QueryResult, StatementResult};

    let baseline = bis_baseline();
    let schedule = crash_storm(1337, HORIZON, 3);
    let store = MemLogStore::new();
    bis_schema(&Database::recover("crash_db", Arc::new(store.clone())).unwrap());
    run_to_completion(&store, &schedule, bis_run);
    assert_recovers_to(&store, &baseline, "intake-1");

    let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
    let conn = db.connect();
    let interpreted = |sql: &str| -> QueryResult {
        let stmt = parse_statement(sql).unwrap();
        match conn.execute_ast(&stmt, &[]).unwrap() {
            StatementResult::Rows(rs) => rs,
            other => panic!("expected rows from {sql}, got {other:?}"),
        }
    };

    let mut tables = db.table_names();
    tables.sort_unstable();
    for t in &tables {
        let sql = format!("SELECT * FROM {t}");
        let batched = conn.query(&sql, &[]).unwrap();
        assert_eq!(
            rows_fingerprint(&batched),
            rows_fingerprint(&interpreted(&sql)),
            "table {t}: batched read diverged from the interpreter after recovery"
        );
    }
    let agg = "SELECT OrderId, COUNT(*) FROM Shipments GROUP BY OrderId ORDER BY 1";
    let batched = conn.query(agg, &[]).unwrap();
    assert_eq!(
        rows_fingerprint(&batched),
        rows_fingerprint(&interpreted(agg)),
        "grouped aggregate diverged between executors after recovery"
    );
    assert!(
        db.stats().batch_evals > 0 && db.stats().hash_aggs > 0,
        "the batched path must have engaged on the recovered database"
    );
}
