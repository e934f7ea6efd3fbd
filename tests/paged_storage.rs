//! The paged-storage headline: a disk-backed database whose ledger spans
//! many pages, killed mid-writeback and mid-checkpoint and fed corrupted
//! pages, must recover to state byte-identical to an all-in-memory run —
//! no committed transaction lost, none re-applied.
//!
//! The page store under test is fault-injected at the I/O boundary
//! ([`PageFault`]): torn writes kill the process with only a prefix on
//! disk, partial writes and write-path bit flips corrupt pages
//! *silently*, `flip_bit` decays pages at rest, and `IoError`s surface
//! as transient `DbError`s the flowcore retry runtime absorbs. Every
//! "reboot" is a real one — a fresh [`Database::open_paged`] over the
//! surviving log + page bytes alone.
//!
//! `CRASH_SEED` adds one more schedule seed, as in `crash_recovery.rs`.

use std::sync::Arc;

use flowsql::flowcore::persistence::{DurableProcess, PersistenceService, STATUS_COMPLETED};
use flowsql::flowcore::retry::{BreakerConfig, RetryPolicy, RetryRuntime};
use flowsql::flowcore::value::{VarValue, Variables};
use flowsql::flowcore::FlowError;
use flowsql::patterns::chaos::{crash_storm, db_fingerprint_excluding, rows_fingerprint};
use flowsql::sqlkernel::{
    Database, FaultPlan, FileLogStore, FilePageStore, MemLogStore, MemPageStore, PageFault,
    PageStore, PagedEngine, SqlError, Value, PAGE_SIZE,
};
use flowsql::wf::SqlWorkflowPersistenceService;

/// Statement indices covered by the crash storms. The workload issues
/// a few dozen statements per lifetime, so most scheduled crashes land.
const HORIZON: u64 = 40;

/// Rows in the ledger; with [`pad`] each row is ~140 bytes on a page,
/// so the table image spans about nine pages.
const ROWS: i64 = 240;

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

fn storm_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: HORIZON as u32 + 2,
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

fn fresh_runtime() -> RetryRuntime {
    RetryRuntime::new(77)
        .with_policy(storm_policy())
        .with_breaker(no_trip())
}

/// 120 bytes of deterministic, row-distinct padding — the bulk that
/// spreads the ledger over many pages.
fn pad(id: i64) -> String {
    format!("{id:03}-").repeat(30)
}

fn ledger_schema(db: &Database) {
    db.connect()
        .execute_script(
            "CREATE TABLE Ledger (Id INT PRIMARY KEY, Tag TEXT, Pad TEXT);
             CREATE TABLE Summary (Seq INT PRIMARY KEY, Note TEXT);
             CREATE SEQUENCE audit_seq START WITH 500;",
        )
        .unwrap();
}

/// A multi-row `INSERT` for ledger ids `lo..hi`.
fn batch_sql(lo: i64, hi: i64) -> String {
    let mut sql = String::from("INSERT INTO Ledger VALUES ");
    for id in lo..hi {
        if id > lo {
            sql.push_str(", ");
        }
        sql.push_str(&format!("({id}, 'tag-{}', '{}')", id % 7, pad(id)));
    }
    sql
}

/// The workload: bulk-load half the ledger, churn it (update + delete +
/// load the other half), then close with an audited summary row. Each
/// step commits atomically with its pc advance, so a crash storm can
/// neither lose nor re-apply a completed step.
fn ledger_process() -> DurableProcess {
    DurableProcess::new("ledger")
        .step("load", |conn, vars| {
            for lo in (0..ROWS / 2).step_by(30) {
                conn.execute(&batch_sql(lo, lo + 30), &[])?;
            }
            vars.set("loaded", VarValue::Scalar(Value::Int(ROWS / 2)));
            Ok(())
        })
        .step("churn", |conn, vars| {
            conn.execute("UPDATE Ledger SET Tag = 'hot' WHERE Id < 40", &[])?;
            conn.execute("DELETE FROM Ledger WHERE Id >= 100 AND Id < 110", &[])?;
            for lo in (ROWS / 2..ROWS).step_by(30) {
                conn.execute(&batch_sql(lo, lo + 30), &[])?;
            }
            vars.set("churned", VarValue::Scalar(Value::Bool(true)));
            Ok(())
        })
        .step("close", |conn, vars| {
            conn.execute(
                "INSERT INTO Summary VALUES (NEXTVAL('audit_seq'), 'closed')",
                &[],
            )?;
            vars.set("closed", VarValue::Scalar(Value::Bool(true)));
            Ok(())
        })
}

fn ledger_run(db: &Database) -> Result<(), FlowError> {
    let svc = SqlWorkflowPersistenceService::new(db)?;
    let mut rt = fresh_runtime();
    svc.run_workflow(&ledger_process(), "ledger-1", &Variables::new(), &mut rt)
        .map(|_| ())
}

/// User tables plus the durable parts of the instance row, as in
/// `crash_recovery.rs`.
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

/// The crash-free all-in-memory run every paged storm must reproduce.
fn memory_baseline() -> String {
    let db = Database::recover("paged_db", Arc::new(MemLogStore::new())).unwrap();
    ledger_schema(&db);
    ledger_run(&db).unwrap();
    durable_fingerprint(&db)
}

/// A real reboot: a fresh database over the surviving bytes alone.
fn reopen(log: &MemLogStore, pages: &MemPageStore) -> Database {
    Database::open_paged(
        "paged_db",
        Arc::new(log.clone()),
        Arc::new(pages.clone()),
        0,
    )
    .unwrap()
}

/// Fresh paged store pair with the schema applied (and checkpointed into
/// the first page epoch by the open that follows).
fn fresh_paged() -> (MemLogStore, MemPageStore) {
    let log = MemLogStore::new();
    let pages = MemPageStore::new();
    ledger_schema(&reopen(&log, &pages));
    (log, pages)
}

/// Drive the workload under a crash schedule, one process lifetime per
/// scheduled crash, rebooting through [`reopen`] each time. Mirrors
/// `crash_recovery.rs::run_to_completion`, with the paged open path.
fn run_paged_to_completion(
    log: &MemLogStore,
    pages: &MemPageStore,
    schedule: &flowsql::patterns::chaos::CrashSchedule,
) -> usize {
    let mut fired = 0usize;
    for life in 0..=schedule.crashes() {
        let db = reopen(log, pages);
        db.set_fault_plan(Some(schedule.plan(life)));
        let result = ledger_run(&db);
        let frozen = db.fault_injector().map(|i| i.frozen()).unwrap_or(false);
        if frozen {
            assert!(result.is_err(), "a crash must surface as an error");
            fired += 1;
            continue;
        }
        if result.is_ok() {
            if db.checkpoint().is_err() {
                fired += 1;
            }
            return fired;
        }
        panic!("run failed without a crash: {result:?}");
    }
    let db = reopen(log, pages);
    assert!(
        ledger_run(&db).is_ok(),
        "clean lifetime after the storm must complete"
    );
    fired
}

/// Final verification: reboot once more and compare against the
/// all-in-memory baseline, byte for byte.
fn assert_paged_recovers_to(log: &MemLogStore, pages: &MemPageStore, baseline: &str) {
    let db = reopen(log, pages);
    assert_eq!(
        durable_fingerprint(&db),
        baseline,
        "paged recovery must be byte-identical to the all-in-memory run"
    );
    let svc = PersistenceService::new(&db).unwrap();
    let (_, status) = svc.instance_status("ledger-1").unwrap().unwrap();
    assert_eq!(status, STATUS_COMPLETED);
    let stats = db.stats();
    assert!(stats.recoveries > 0, "recovery counter must report");
    assert!(stats.pool_misses > 0, "recovery read pages from the store");
    // Exactly-once, explicitly: one summary row, carrying the first (and
    // only committed) sequence draw.
    let rs = db
        .connect()
        .query("SELECT Seq FROM Summary ORDER BY Seq", &[])
        .unwrap();
    assert_eq!(rs.rows.len(), 1, "close step committed exactly once");
    assert_eq!(
        rs.rows[0][0],
        Value::Int(500),
        "no lost or re-drawn sequence"
    );
}

// ---------------------------------------------------------------------------
// Headline storm: crash schedules over a multi-page ledger
// ---------------------------------------------------------------------------

#[test]
fn paged_storage_recovers_identically_under_crash_storms() {
    let baseline = memory_baseline();
    for seed in schedule_seeds() {
        let mut schedule = crash_storm(seed, HORIZON, 3);
        // One kill mid-checkpoint too: new-epoch pages land, the
        // metadata flip never happens, recovery falls back.
        schedule.checkpoint_crashes.push(0);
        let (log, pages) = fresh_paged();
        run_paged_to_completion(&log, &pages, &schedule);
        assert_paged_recovers_to(&log, &pages, &baseline);
    }
}

// ---------------------------------------------------------------------------
// Kill mid-writeback: torn page writes at seeded positions
// ---------------------------------------------------------------------------

/// A torn write during checkpoint writeback kills the process with only
/// a prefix of one page on disk. Because the flip to the new epoch never
/// happened, the torn page is unreferenced garbage: recovery falls back
/// to the intact previous epoch plus the WAL tail, losing nothing. Three
/// write positions cover an early data page, a mid-stream page, and the
/// directory/meta tail of the writeback.
#[test]
fn torn_write_mid_writeback_falls_back_to_the_intact_epoch() {
    let baseline = memory_baseline();
    let (log, pages) = fresh_paged();
    ledger_run(&reopen(&log, &pages)).unwrap();
    for write_index in [0, 4, 9] {
        let db = reopen(&log, &pages);
        // Dirty the ledger so the next checkpoint rewrites its extent.
        db.connect()
            .execute("UPDATE Ledger SET Tag = 'warm' WHERE Id = 1", &[])
            .unwrap();
        let before = durable_fingerprint(&db);
        db.set_fault_plan(Some(
            FaultPlan::new(7).fault_at_page_write(write_index, PageFault::TornWrite),
        ));
        let err = db.checkpoint().unwrap_err();
        assert!(
            db.fault_injector().unwrap().frozen(),
            "torn write at index {write_index} must kill the process (got {err})"
        );
        let recovered = reopen(&log, &pages);
        assert_eq!(
            durable_fingerprint(&recovered),
            before,
            "fallback after torn write at index {write_index} lost state"
        );
        recovered.checkpoint().unwrap();
    }
    assert_ne!(baseline, String::new());
}

// ---------------------------------------------------------------------------
// Silent corruption: partial writes, write-path bit flips, at-rest decay
// ---------------------------------------------------------------------------

/// A partial write (and a write-path bit flip) reports success, so the
/// checkpoint completes and the *new* epoch references a page whose
/// checksum cannot verify. The next open must detect it and rebuild the
/// damaged table from the previous epoch's image plus WAL redo.
#[test]
fn silently_corrupted_pages_are_repaired_on_reopen() {
    for fault in [PageFault::PartialWrite, PageFault::ReadBitFlip] {
        let (log, pages) = fresh_paged();
        ledger_run(&reopen(&log, &pages)).unwrap();
        let db = reopen(&log, &pages);
        db.connect()
            .execute("UPDATE Ledger SET Tag = 'cold' WHERE Id = 2", &[])
            .unwrap();
        let before = durable_fingerprint(&db);
        // Write index 0 is always the first new-epoch data page.
        db.set_fault_plan(Some(FaultPlan::new(7).fault_at_page_write(0, fault)));
        db.checkpoint()
            .expect("silent corruption must not fail the checkpoint");
        drop(db);
        let recovered = reopen(&log, &pages);
        assert_eq!(
            durable_fingerprint(&recovered),
            before,
            "repair after {fault:?} diverged"
        );
        assert!(
            recovered.stats().pages_repaired > 0,
            "{fault:?} must be detected and counted as a repair"
        );
    }
}

/// At-rest decay of a *data* page (one flipped bit, as a failing disk
/// would produce) is caught by the page checksum on the next open and
/// repaired from the previous epoch + WAL redo.
#[test]
fn at_rest_bit_flip_in_a_data_page_is_repaired() {
    let (log, pages) = fresh_paged();
    let db = reopen(&log, &pages);
    ledger_run(&db).unwrap();
    let before = durable_fingerprint(&db);
    db.checkpoint().unwrap();
    drop(db);
    // The live epoch is the newest, so its extents sit at the top of the
    // store: data pages, then the directory stream last. Flip one
    // payload bit in a data page just below the directory tail.
    let last_page = (pages.len() / PAGE_SIZE - 1) as u64;
    pages.flip_bit(last_page - 2, 100 * 8);
    let recovered = reopen(&log, &pages);
    assert_eq!(durable_fingerprint(&recovered), before);
    assert!(recovered.stats().pages_repaired > 0);
}

/// At-rest decay of the live epoch's *directory* page forces the
/// whole-epoch fallback: open rolls back to the previous checkpoint
/// image and replays the retained WAL window over it.
#[test]
fn at_rest_bit_flip_in_the_directory_rolls_back_an_epoch() {
    let (log, pages) = fresh_paged();
    let db = reopen(&log, &pages);
    ledger_run(&db).unwrap();
    let before = durable_fingerprint(&db);
    db.checkpoint().unwrap();
    drop(db);
    // The directory is allocated after the data extents, so the highest
    // page of the store belongs to the newest epoch's directory stream.
    let last_page = (pages.len() / PAGE_SIZE - 1) as u64;
    pages.flip_bit(last_page, 64 * 8);
    let recovered = reopen(&log, &pages);
    assert_eq!(durable_fingerprint(&recovered), before);
    assert!(recovered.stats().pages_repaired > 0);
}

/// A version 1 page store (version byte 1 and an FNV-1a digest on every
/// page) is refused with its version at open, before any page could be
/// taken for a torn one and repaired: nothing is written to it.
#[test]
fn version_one_page_store_is_refused_before_repair() {
    let (log, pages) = fresh_paged();
    let db = reopen(&log, &pages);
    ledger_run(&db).unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let v1 = MemPageStore::new();
    for no in 0..pages.page_count().unwrap() {
        let mut page = pages.read_page(no).unwrap();
        if page[8..12] == *b"GPSF" {
            page[13] = 1;
            let fnv = page[8..].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
            page[..8].copy_from_slice(&fnv.to_le_bytes());
        }
        v1.write_page(no, &page).unwrap();
    }
    let image = |store: &MemPageStore| -> Vec<Vec<u8>> {
        (0..store.page_count().unwrap())
            .map(|no| store.read_page(no).unwrap())
            .collect()
    };
    let before = image(&v1);
    let refused = SqlError::unsupported_format("page", 1);
    assert_eq!(
        PagedEngine::open(Arc::new(v1.clone()), 0).unwrap_err(),
        refused
    );
    let err = Database::open_paged("paged_db", Arc::new(log.clone()), Arc::new(v1.clone()), 0)
        .unwrap_err();
    assert_eq!(err, refused);
    assert!(
        image(&v1) == before,
        "a refused page store is left as it is"
    );
}

// ---------------------------------------------------------------------------
// Transient I/O errors
// ---------------------------------------------------------------------------

/// An injected `IoError` on the page path is a *transient* `DbError`:
/// the checkpoint fails without freezing the process, and the flowcore
/// retry runtime absorbs it — the immediate retry succeeds.
#[test]
fn injected_io_errors_are_transient_and_absorbed_by_retry() {
    let (log, pages) = fresh_paged();
    let db = reopen(&log, &pages);
    ledger_run(&db).unwrap();
    db.connect()
        .execute("UPDATE Ledger SET Tag = 'io' WHERE Id = 3", &[])
        .unwrap();
    db.set_fault_plan(Some(
        FaultPlan::new(7).fault_at_page_write(0, PageFault::IoError),
    ));
    let err = db.checkpoint().unwrap_err();
    assert!(
        err.is_transient(),
        "page IoError must map to transient: {err}"
    );
    assert!(
        !db.fault_injector().unwrap().frozen(),
        "a transient I/O error is not a crash"
    );
    let mut rt = fresh_runtime();
    let (result, report) = rt.run("checkpoint", Some(&db), || {
        db.checkpoint().map_err(FlowError::from)
    });
    result.expect("retry runtime must absorb the consumed IoError");
    assert_eq!(report.retries, 0, "the fault was already consumed");
    let fingerprint = durable_fingerprint(&db);
    drop(db);
    assert_eq!(durable_fingerprint(&reopen(&log, &pages)), fingerprint);
}

// ---------------------------------------------------------------------------
// Disk-backed stores
// ---------------------------------------------------------------------------

/// The file-backed pair under `open_paged` round-trips across a
/// real process-style reopen: everything rebuilt from `wal.log` +
/// `pages.db` alone.
#[test]
fn durable_paged_database_roundtrips_on_disk() {
    let dir = std::env::temp_dir().join(format!(
        "flowsql_paged_storage_{}_{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let open = || {
        Database::open_paged(
            "paged_db",
            Arc::new(FileLogStore::new(dir.join("wal.log"))),
            Arc::new(FilePageStore::new(dir.join("pages.db"))),
            0,
        )
        .unwrap()
    };
    {
        let db = open();
        ledger_schema(&db);
        ledger_run(&db).unwrap();
        db.checkpoint().unwrap();
    }
    let db = open();
    let rs = db
        .connect()
        .query("SELECT COUNT(*) FROM Ledger", &[])
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(ROWS - 10)); // 10 deleted by churn
    let (_, status) = PersistenceService::new(&db)
        .unwrap()
        .instance_status("ledger-1")
        .unwrap()
        .unwrap();
    assert_eq!(status, STATUS_COMPLETED);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
