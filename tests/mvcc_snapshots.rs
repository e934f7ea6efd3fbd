//! MVCC snapshot isolation, tested differentially (PR 7).
//!
//! The engine claim: every SELECT runs against a commit-timestamped
//! snapshot — readers never see a half-committed statement, a
//! transaction re-reads the same data until it commits, and none of
//! this changes what the database *contains*: storms (transient and
//! crash, with and without group commit) must still fingerprint-match
//! the fault-free run byte-for-byte, exactly as they did before MVCC.
//!
//! `CHAOS_SEED` / `CRASH_SEED` add one more storm seed each — the CI
//! chaos step rotates schedules without editing the test.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

use flowsql::bis::DataSourceRegistry;
use flowsql::patterns::chaos::{crash_storm, db_fingerprint, scripted_storm};
use flowsql::soa::SoaEnvironment;
use flowsql::sqlkernel::{
    Database, LogStore, MemLogStore, MemPageStore, PageStore, SqlResult, Value,
};
use flowsql::wf::WfHost;

// ---------------------------------------------------------------------------
// Snapshot semantics: what a reader is allowed to observe.
// ---------------------------------------------------------------------------

fn counter_db(name: &str) -> Database {
    let db = Database::new(name);
    db.connect()
        .execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT);
             INSERT INTO t VALUES (1, 10);
             INSERT INTO t VALUES (2, 20);",
        )
        .unwrap();
    db
}

fn read_v(db: &Database, id: i64) -> i64 {
    match &db
        .connect()
        .query("SELECT v FROM t WHERE id = ?", &[Value::Int(id)])
        .unwrap()
        .rows[0][0]
    {
        Value::Int(v) => *v,
        other => panic!("expected int, got {other:?}"),
    }
}

#[test]
fn uncommitted_writes_are_invisible_to_other_connections() {
    let db = counter_db("mvcc_dirty");
    let writer = db.connect();
    writer.execute("BEGIN", &[]).unwrap();
    writer
        .execute("UPDATE t SET v = 99 WHERE id = 1", &[])
        .unwrap();
    writer.execute("INSERT INTO t VALUES (3, 30)", &[]).unwrap();

    // A concurrent reader sees the pre-transaction state: no dirty reads.
    assert_eq!(read_v(&db, 1), 10);
    assert_eq!(
        db.connect().query("SELECT id FROM t", &[]).unwrap().len(),
        2
    );

    writer.execute("COMMIT", &[]).unwrap();
    assert_eq!(read_v(&db, 1), 99);
    assert_eq!(
        db.connect().query("SELECT id FROM t", &[]).unwrap().len(),
        3
    );
}

#[test]
fn transactions_get_repeatable_reads() {
    let db = counter_db("mvcc_rr");
    let reader = db.connect();
    reader.execute("BEGIN", &[]).unwrap();
    let first = reader.query("SELECT v FROM t ORDER BY id", &[]).unwrap();

    // Another connection commits an update *and* a delete mid-transaction.
    let writer = db.connect();
    writer
        .execute("UPDATE t SET v = 777 WHERE id = 1", &[])
        .unwrap();
    writer.execute("DELETE FROM t WHERE id = 2", &[]).unwrap();

    // The open transaction still sees its BEGIN-time snapshot.
    let again = reader.query("SELECT v FROM t ORDER BY id", &[]).unwrap();
    assert_eq!(first.rows, again.rows, "repeatable read violated");
    reader.execute("COMMIT", &[]).unwrap();

    // A fresh statement sees the committed truth.
    let now = reader.query("SELECT v FROM t ORDER BY id", &[]).unwrap();
    assert_eq!(now.rows, vec![vec![Value::Int(777)]]);
}

#[test]
fn rolled_back_writes_never_become_visible() {
    let db = counter_db("mvcc_rollback");
    let writer = db.connect();
    writer.execute("BEGIN", &[]).unwrap();
    writer
        .execute("UPDATE t SET v = 1000 WHERE id = 1", &[])
        .unwrap();
    writer.execute("DELETE FROM t WHERE id = 2", &[]).unwrap();
    writer.execute("ROLLBACK", &[]).unwrap();

    assert_eq!(read_v(&db, 1), 10);
    assert_eq!(read_v(&db, 2), 20);
}

/// A multi-row commit publishes atomically: scanning readers observe the
/// whole generation pre-commit or post-commit, never a mix of the two.
#[test]
fn scans_never_observe_a_torn_commit() {
    const ROWS: i64 = 16;
    const GENERATIONS: i64 = 60;
    let db = Database::new("mvcc_torn");
    let conn = db.connect();
    conn.execute("CREATE TABLE gen (id INT PRIMARY KEY, g INT)", &[])
        .unwrap();
    for id in 0..ROWS {
        conn.execute("INSERT INTO gen VALUES (?, 0)", &[Value::Int(id)])
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let torn = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        let torn = Arc::clone(&torn);
        readers.push(thread::spawn(move || {
            let conn = db.connect();
            while !stop.load(Ordering::Acquire) {
                let rs = conn.query("SELECT g FROM gen", &[]).unwrap();
                assert_eq!(rs.len() as i64, ROWS);
                let first = rs.rows[0][0].clone();
                if rs.rows.iter().any(|r| r[0] != first) {
                    torn.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }

    // One statement bumps every row to the next generation; each commit
    // must flip all sixteen rows at once for every concurrent scan.
    let wconn = db.connect();
    for g in 1..=GENERATIONS {
        wconn
            .execute("UPDATE gen SET g = ?", &[Value::Int(g)])
            .unwrap();
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(torn.load(Ordering::Relaxed), 0, "a scan saw a torn commit");
    assert_eq!(
        db.connect()
            .query(
                "SELECT COUNT(*) FROM gen WHERE g = ?",
                &[Value::Int(GENERATIONS)]
            )
            .unwrap()
            .rows[0][0],
        Value::Int(ROWS)
    );
}

/// Writer-writer conflicts still serialize: concurrent read-modify-write
/// increments lose nothing.
#[test]
fn concurrent_increments_serialize() {
    const THREADS: i64 = 4;
    const PER_THREAD: i64 = 50;
    let db = counter_db("mvcc_incr");
    let mut writers = Vec::new();
    for _ in 0..THREADS {
        let db = db.clone();
        writers.push(thread::spawn(move || {
            let conn = db.connect();
            for _ in 0..PER_THREAD {
                conn.execute("UPDATE t SET v = v + 1 WHERE id = 1", &[])
                    .unwrap();
            }
        }));
    }
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(read_v(&db, 1), 10 + THREADS * PER_THREAD);
}

/// Statements the connection hands straight to the interpreter — a
/// script, and the body of a stored procedure — run under the open
/// transaction's snapshot: they see its earlier writes and their own,
/// while other connections see none of it until COMMIT.
#[test]
fn interpreted_statements_see_their_transactions_writes() {
    let db = counter_db("mvcc_own_writes");
    let conn = db.connect();
    conn.execute(
        "CREATE PROCEDURE bump(k) AS BEGIN \
           UPDATE t SET v = v + 1 WHERE id = :k; \
           SELECT v FROM t WHERE id = :k; \
         END",
        &[],
    )
    .unwrap();
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (3, 30)", &[]).unwrap();

    let script = conn
        .execute_script("UPDATE t SET v = v + 5 WHERE id = 3; SELECT v FROM t WHERE id = 3")
        .unwrap();
    assert_eq!(
        script[0].affected(),
        Some(1),
        "script missed the txn's insert"
    );
    let rows = script.into_iter().nth(1).unwrap().rows().unwrap();
    assert_eq!(rows.rows, vec![vec![Value::Int(35)]]);

    let called = conn.execute("CALL bump(3)", &[]).unwrap().rows().unwrap();
    assert_eq!(called.rows, vec![vec![Value::Int(36)]]);
    assert_eq!(
        conn.query("SELECT v FROM t WHERE id = 3", &[])
            .unwrap()
            .rows,
        vec![vec![Value::Int(36)]]
    );

    // Nothing leaked to other connections before COMMIT.
    assert!(db
        .connect()
        .query("SELECT v FROM t WHERE id = 3", &[])
        .unwrap()
        .is_empty());
    conn.execute("COMMIT", &[]).unwrap();
    assert_eq!(read_v(&db, 3), 36);
}

/// A log store that, once armed, parks the next `append` until the test
/// releases it — a WAL write that takes as long as the test likes.
#[derive(Debug)]
struct ParkingLog {
    inner: MemLogStore,
    armed: AtomicBool,
    gate: Barrier,
}

impl LogStore for ParkingLog {
    fn append(&self, bytes: &[u8]) -> SqlResult<()> {
        if self.armed.swap(false, Ordering::AcqRel) {
            self.gate.wait(); // parked
            self.gate.wait(); // released
        }
        self.inner.append(bytes)
    }
    fn read_all(&self) -> SqlResult<Vec<u8>> {
        self.inner.read_all()
    }
    fn reset(&self, bytes: &[u8]) -> SqlResult<()> {
        self.inner.reset(bytes)
    }
    fn size(&self) -> SqlResult<u64> {
        self.inner.size()
    }
}

/// A writer parked inside its WAL append holds no guard a reader needs:
/// a SELECT on the same table from another connection completes and
/// sees the pre-statement value, and the new value appears only once
/// the append returns and the statement commits.
#[test]
fn readers_proceed_while_a_writer_waits_on_its_log_append() {
    let log = Arc::new(ParkingLog {
        inner: MemLogStore::new(),
        armed: AtomicBool::new(false),
        gate: Barrier::new(2),
    });
    let db = Database::recover("mvcc_append_window", log.clone()).unwrap();
    db.connect()
        .execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT);
             INSERT INTO t VALUES (1, 10);",
        )
        .unwrap();

    log.armed.store(true, Ordering::Release);
    let writer = {
        let db = db.clone();
        thread::spawn(move || {
            db.connect()
                .execute("UPDATE t SET v = 99 WHERE id = 1", &[])
                .unwrap()
        })
    };
    log.gate.wait(); // the writer is now inside its append

    let (tx, rx) = mpsc::channel();
    let reader = {
        let db = db.clone();
        thread::spawn(move || tx.send(read_v(&db, 1)).unwrap())
    };
    let seen = rx.recv_timeout(Duration::from_secs(10));
    log.gate.wait(); // release the writer, whatever the reader did
    reader.join().unwrap();
    assert_eq!(writer.join().unwrap().affected(), Some(1));
    assert_eq!(
        seen,
        Ok(10),
        "the reader must finish during the append and see the old value"
    );
    assert_eq!(read_v(&db, 1), 99);
}

/// Checkpoints serialize the committed snapshot and replace the log
/// history behind it, so one that slipped in between a COMMIT's log
/// append and its stamp would drop an acknowledged transaction. Park a
/// COMMIT inside its append, start a checkpoint on another thread, then
/// release the COMMIT: the checkpoint must wait for the stamp, and a
/// reopen from a copy of the surviving bytes must hold the transaction.
/// Runs on both durable engines.
#[test]
fn checkpoint_waits_for_a_commit_in_its_log_append() {
    fn race(log: Arc<ParkingLog>, db: Database, crash_copy: impl FnOnce() -> Database) {
        let conn = db.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("INSERT INTO t VALUES (1, 10)", &[]).unwrap();
        log.armed.store(true, Ordering::Release);
        let committer = thread::spawn(move || conn.execute("COMMIT", &[]).map(|_| ()));
        log.gate.wait(); // the COMMIT is now inside its append
        let checkpointer = {
            let db = db.clone();
            thread::spawn(move || db.checkpoint())
        };
        // Give the checkpoint time to queue on the catalog lock; if it
        // has not, the test is merely weaker, never wrong.
        thread::sleep(Duration::from_millis(50));
        log.gate.wait(); // release the COMMIT
        committer.join().unwrap().unwrap();
        checkpointer.join().unwrap().unwrap();
        let survived = crash_copy()
            .connect()
            .query("SELECT v FROM t WHERE id = 1", &[])
            .unwrap()
            .rows;
        assert_eq!(survived, vec![vec![Value::Int(10)]], "committed row lost");
    }
    let parking_log = || {
        Arc::new(ParkingLog {
            inner: MemLogStore::new(),
            armed: AtomicBool::new(false),
            gate: Barrier::new(2),
        })
    };

    let log = parking_log();
    let db = Database::recover("ckpt_commit_log", log.clone()).unwrap();
    race(log.clone(), db, || {
        Database::recover(
            "ckpt_commit_log",
            Arc::new(MemLogStore::from_bytes(log.inner.bytes())),
        )
        .unwrap()
    });

    let (log, pages) = (parking_log(), MemPageStore::new());
    let db = Database::open_paged(
        "ckpt_commit_paged",
        log.clone(),
        Arc::new(pages.clone()),
        16,
    )
    .unwrap();
    race(log.clone(), db, || {
        let copy = MemPageStore::new();
        for no in 0..pages.page_count().unwrap() {
            copy.write_page(no, &pages.read_page(no).unwrap()).unwrap();
        }
        let log = MemLogStore::from_bytes(log.inner.bytes());
        Database::open_paged("ckpt_commit_paged", Arc::new(log), Arc::new(copy), 16).unwrap()
    });
}

// ---------------------------------------------------------------------------
// Engagement: the new DbStats counters must prove MVCC actually ran.
// ---------------------------------------------------------------------------

#[test]
fn mvcc_counters_engage() {
    let db = counter_db("mvcc_stats");
    let conn = db.connect();
    for i in 0..300 {
        conn.execute("UPDATE t SET v = ? WHERE id = 1", &[Value::Int(i)])
            .unwrap();
        conn.query("SELECT v FROM t WHERE id = 1", &[]).unwrap();
    }
    db.checkpoint().unwrap();
    let stats = db.stats();
    assert!(stats.snapshots_taken > 0, "no snapshots were taken");
    assert!(stats.version_chains_walked > 0, "no version chains walked");
    assert!(stats.versions_gced > 0, "GC never reclaimed a version");
}

/// Checkpoint GC reclaims superseded versions and tombstones without
/// changing what any new snapshot reads.
#[test]
fn checkpoint_gc_preserves_visible_state() {
    let db = counter_db("mvcc_gc");
    let conn = db.connect();
    for i in 0..50 {
        conn.execute("UPDATE t SET v = ? WHERE id = 1", &[Value::Int(i)])
            .unwrap();
    }
    conn.execute("DELETE FROM t WHERE id = 2", &[]).unwrap();
    let before = db_fingerprint(&db);
    db.checkpoint().unwrap();
    assert!(db.stats().versions_gced > 0);
    assert_eq!(db_fingerprint(&db), before, "GC changed visible state");
    assert_eq!(read_v(&db, 1), 49);
    assert!(db
        .connect()
        .query("SELECT v FROM t WHERE id = 2", &[])
        .unwrap()
        .is_empty());
}

/// Index access under MVCC: a row whose indexed key moves is found at
/// its new key only, in new-key order — retained old-key entries for
/// older snapshots never leak into a fresh scan.
#[test]
fn index_scans_track_moved_keys() {
    let db = Database::new("mvcc_keys");
    let conn = db.connect();
    conn.execute_script(
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT);
         INSERT INTO items VALUES (1, 'a');
         INSERT INTO items VALUES (2, 'b');
         INSERT INTO items VALUES (3, 'c');",
    )
    .unwrap();
    conn.execute("UPDATE items SET id = 100 WHERE id = 1", &[])
        .unwrap();

    let ordered = conn.query("SELECT id FROM items ORDER BY id", &[]).unwrap();
    assert_eq!(
        ordered.rows,
        vec![
            vec![Value::Int(2)],
            vec![Value::Int(3)],
            vec![Value::Int(100)]
        ]
    );
    assert!(conn
        .query("SELECT name FROM items WHERE id = 1", &[])
        .unwrap()
        .is_empty());
    assert_eq!(
        conn.query("SELECT name FROM items WHERE id = 100", &[])
            .unwrap()
            .rows,
        vec![vec![Value::Text("a".into())]]
    );
    // The vacated key is genuinely free again.
    conn.execute("INSERT INTO items VALUES (1, 'a2')", &[])
        .unwrap();
    assert_eq!(
        conn.query("SELECT COUNT(*) FROM items", &[]).unwrap().rows,
        vec![vec![Value::Int(4)]]
    );
}

// ---------------------------------------------------------------------------
// Shared handles: the stacks reach one engine through the handle registry.
// ---------------------------------------------------------------------------

#[test]
fn stacks_share_one_engine_through_the_handle_registry() {
    // Some component creates and publishes the database...
    let db = Database::new("shared_orders_pr7");
    db.publish();
    db.connect()
        .execute_script(
            "CREATE TABLE Orders (OrderId INT PRIMARY KEY, Qty INT);
             INSERT INTO Orders VALUES (1, 3);",
        )
        .unwrap();

    // ...and every stack resolves the *same* engine without registering
    // it in its own directory.
    let bis = DataSourceRegistry::new()
        .resolve("sqlkernel://shared_orders_pr7")
        .unwrap();
    assert!(bis.same_as(&db));

    let wf = WfHost::new()
        .resolve_for_sql_activity("Provider=SqlServer;Database=shared_orders_pr7")
        .unwrap();
    assert!(wf.same_as(&db));

    let soa = SoaEnvironment::new()
        .resolve("jdbc:oracle:thin:@shared_orders_pr7")
        .unwrap();
    assert!(soa.same_as(&db));

    // A write through one stack's handle is a write through all of them.
    bis.connect()
        .execute("UPDATE Orders SET Qty = 7 WHERE OrderId = 1", &[])
        .unwrap();
    assert_eq!(
        soa.connect()
            .query("SELECT Qty FROM Orders", &[])
            .unwrap()
            .rows,
        vec![vec![Value::Int(7)]]
    );

    // The fallback never creates: unknown names still fail everywhere,
    // and the WF provider whitelist still applies to shared handles.
    assert!(DataSourceRegistry::new()
        .resolve("sqlkernel://no_such_db_pr7")
        .is_err());
    assert!(SoaEnvironment::new()
        .resolve("jdbc:oracle:thin:@no_such_db_pr7")
        .is_err());
    assert!(WfHost::new()
        .resolve_for_sql_activity("Provider=Db2;Database=shared_orders_pr7")
        .is_err());

    Database::unpublish("shared_orders_pr7");
}

// ---------------------------------------------------------------------------
// Storms: MVCC must not change what the database contains.
// ---------------------------------------------------------------------------

fn crash_seeds() -> Vec<u64> {
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

fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![7, 99];
    if let Some(extra) = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        if !seeds.contains(&extra) {
            seeds.push(extra);
        }
    }
    seeds
}

/// The storm workload: idempotent units (absolute updates, a delete, and
/// one multi-statement transaction), so a unit interrupted by a crash or
/// transient fault can simply run again.
const WORKLOAD: &[&str] = &[
    "UPDATE Ledger SET bal = 150 WHERE id = 1",
    "UPDATE Ledger SET bal = 250 WHERE id = 2",
    "BEGIN; UPDATE Ledger SET bal = 90 WHERE id = 1; \
     UPDATE Ledger SET bal = 310 WHERE id = 2; COMMIT",
    "DELETE FROM Ledger WHERE id = 3",
    "UPDATE Ledger SET bal = 400 WHERE id = 2",
];

fn ledger_schema(db: &Database) {
    db.connect()
        .execute_script(
            "CREATE TABLE Ledger (id INT PRIMARY KEY, bal INT);
             INSERT INTO Ledger VALUES (1, 100);
             INSERT INTO Ledger VALUES (2, 200);
             INSERT INTO Ledger VALUES (3, 300);",
        )
        .unwrap();
}

fn ledger_baseline() -> String {
    let store = MemLogStore::new();
    let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
    ledger_schema(&db);
    let conn = db.connect();
    for unit in WORKLOAD {
        conn.execute_script(unit).unwrap();
    }
    db_fingerprint(&db)
}

/// Crash storms against the versioned engine: the commit timestamp is
/// assigned at WAL-ack, so whatever the log retains after a crash must
/// replay to exactly the committed chain — including under group commit.
#[test]
fn crash_storms_recover_the_committed_chain() {
    let baseline = ledger_baseline();
    for group_window in [0u64, 3] {
        for seed in crash_seeds() {
            let schedule = crash_storm(seed, 120, 3);
            let store = MemLogStore::new();
            ledger_schema(&Database::recover("crash_db", Arc::new(store.clone())).unwrap());

            let mut next = 0usize; // first workload unit not yet acked
            'lifetimes: for life in 0..=schedule.crashes() + 1 {
                let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
                db.set_group_commit_window(group_window);
                db.set_fault_plan(Some(schedule.plan(life)));
                let conn = db.connect();
                while next < WORKLOAD.len() {
                    match conn.execute_script(WORKLOAD[next]) {
                        Ok(_) => next += 1,
                        Err(_) => {
                            let frozen = db.fault_injector().map(|i| i.frozen()).unwrap_or(false);
                            assert!(frozen, "seed {seed}: non-crash failure");
                            continue 'lifetimes; // reboot
                        }
                    }
                }
                break;
            }
            assert_eq!(next, WORKLOAD.len(), "seed {seed}: storm never completed");

            let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
            assert_eq!(
                db_fingerprint(&db),
                baseline,
                "seed {seed} window {group_window}: recovered state diverged"
            );
        }
    }
}

/// Transient-fault storms with concurrent snapshot readers: retried
/// writes push through while scans keep running against consistent
/// snapshots, and the final state fingerprint-matches the fault-free run.
#[test]
fn chaos_storms_with_concurrent_readers_match_fault_free() {
    let baseline = ledger_baseline();
    for seed in chaos_seeds() {
        const HORIZON: u64 = 200;
        const PERCENT: u64 = 25;
        let store = MemLogStore::new();
        let db = Database::recover("crash_db", Arc::new(store.clone())).unwrap();
        ledger_schema(&db);
        db.set_fault_plan(Some(scripted_storm(seed, HORIZON, PERCENT)));

        let stop = Arc::new(AtomicBool::new(false));
        let scans = Arc::new(AtomicU64::new(0));
        let reader = {
            let db = db.clone();
            let stop = Arc::clone(&stop);
            let scans = Arc::clone(&scans);
            thread::spawn(move || {
                let conn = db.connect();
                while !stop.load(Ordering::Acquire) {
                    // The storm faults readers too ("connection reset");
                    // a faulted scan is retried, a successful one must
                    // be a consistent snapshot.
                    if let Ok(rs) = conn.query("SELECT id, bal FROM Ledger ORDER BY id", &[]) {
                        assert!(rs.len() <= 3);
                        scans.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };

        // The storm faults at most HORIZON statement indices in total,
        // so HORIZON failed attempts guarantee the clock is past it.
        let conn = db.connect();
        for unit in WORKLOAD {
            let mut attempts = 0u64;
            while conn.execute_script(unit).is_err() {
                // A fault inside the BEGIN…COMMIT unit can leave the
                // transaction open; clear it before retrying the unit.
                let _ = conn.execute("ROLLBACK", &[]);
                attempts += 1;
                assert!(attempts <= HORIZON, "seed {seed}: retry budget exhausted");
            }
        }
        // On a single-CPU host the writer can finish before the reader
        // thread is ever scheduled; once the storm is drained, wait for
        // a few guaranteed-clean scans before stopping it.
        db.set_fault_plan(None);
        while scans.load(Ordering::Relaxed) < 3 {
            thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        reader.join().unwrap();
        assert_eq!(
            db_fingerprint(&db),
            baseline,
            "seed {seed}: faulted run diverged from fault-free"
        );
    }
}
