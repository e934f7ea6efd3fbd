//! Kernel-level two-phase commit: the `Prepare` record, the prepared
//! (in-doubt) window, checkpoint refusal inside it, and recovery's
//! in-doubt resolution against a caller-supplied decision.

use std::sync::Arc;

use sqlkernel::{Database, FaultPlan, MemLogStore, PrepareCrash, SqlError, Value};

fn durable(name: &str) -> (Database, Arc<MemLogStore>) {
    let store = Arc::new(MemLogStore::new());
    let db = Database::recover(name, Arc::clone(&store) as Arc<dyn sqlkernel::LogStore>).unwrap();
    db.connect()
        .execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)", &[])
        .unwrap();
    (db, store)
}

/// Satellite regression: checkpoint already refused while explicit
/// transactions were open; it must also refuse — with the sharper
/// error — while a participant sits in the 2PC prepared window, and
/// succeed again once phase 2 resolves the transaction.
#[test]
fn checkpoint_refuses_while_prepared_window_is_open() {
    let (db, _store) = durable("ckpt2pc");
    let conn = db.connect();
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'one')", &[])
        .unwrap();
    conn.prepare_transaction(77).unwrap();
    assert!(conn.is_prepared());

    let err = db.checkpoint().unwrap_err();
    assert_eq!(err.class(), "txn");
    assert!(
        err.to_string().contains("two-phase commit"),
        "error must name the prepared window, got: {err}"
    );

    conn.commit_prepared().unwrap();
    assert!(!conn.is_prepared());
    db.checkpoint()
        .expect("resolved window must checkpoint cleanly");
    assert_eq!(db.stats().wal_prepares, 1);
    assert_eq!(db.stats().prepared_txns, 0);
}

#[test]
fn prepare_requires_an_open_transaction_and_is_not_reentrant() {
    let (db, _store) = durable("2pcapi");
    let conn = db.connect();
    assert_eq!(conn.prepare_transaction(1).unwrap_err().class(), "txn");
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    conn.prepare_transaction(1).unwrap();
    assert_eq!(conn.prepare_transaction(1).unwrap_err().class(), "txn");
    conn.abort_prepared().unwrap();
    assert_eq!(db.table_len("t").unwrap(), 0, "abort left residue");
    assert_eq!(conn.commit_prepared().unwrap_err().class(), "txn");
}

#[test]
fn two_phase_commit_requires_durability() {
    let db = Database::new("mem2pc");
    let conn = db.connect();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)", &[])
        .unwrap();
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (1)", &[]).unwrap();
    let err = conn.prepare_transaction(5).unwrap_err();
    assert!(err.to_string().contains("durable"), "got: {err}");
}

/// The in-doubt window end to end: vote acknowledged, process dies,
/// recovery commits or aborts strictly according to the decision the
/// resolver reports — and the resolved state survives a *second*
/// recovery (the decision terminators are themselves logged).
#[test]
fn in_doubt_transaction_resolves_by_decision() {
    for (decision, expect_rows) in [(true, 1usize), (false, 0usize)] {
        let (db, store) = durable("indoubt");
        db.set_fault_plan(Some(
            FaultPlan::new(9).crash_at_prepare(0, PrepareCrash::AfterAck),
        ));
        let conn = db.connect();
        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("INSERT INTO t VALUES (?, 'in-doubt')", &[Value::Int(1)])
            .unwrap();
        conn.prepare_transaction(42).unwrap();
        // The process is dead: phase 2 can no longer be delivered.
        assert_eq!(conn.commit_prepared().unwrap_err().class(), "crashed");
        drop(conn);
        drop(db);

        let recovered = Database::recover_resolving(
            "indoubt",
            {
                let s: Arc<dyn sqlkernel::LogStore> = store.clone();
                s
            },
            |txn| {
                assert_eq!(txn.gid, 42);
                Ok(decision)
            },
        )
        .unwrap();
        assert_eq!(recovered.table_len("t").unwrap(), expect_rows);
        let stats = recovered.stats();
        assert_eq!(stats.in_doubt_commits, u64::from(decision));
        assert_eq!(stats.in_doubt_aborts, u64::from(!decision));

        // Second recovery: the appended terminator must have decided the
        // transaction for good — the resolver must not be consulted.
        drop(recovered);
        let again = Database::recover_resolving(
            "indoubt",
            {
                let s: Arc<dyn sqlkernel::LogStore> = store.clone();
                s
            },
            |_| panic!("transaction already decided"),
        )
        .unwrap();
        assert_eq!(again.table_len("t").unwrap(), expect_rows);
        assert_eq!(again.stats().in_doubt_commits, 0);
    }
}

/// Plain `recover` presumes abort: with no coordinator to ask, a
/// prepared-but-undecided transaction must roll back.
#[test]
fn plain_recover_presumes_abort() {
    let (db, store) = durable("presume");
    db.set_fault_plan(Some(
        FaultPlan::new(9).crash_at_prepare(0, PrepareCrash::AfterAck),
    ));
    let conn = db.connect();
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'gone')", &[])
        .unwrap();
    conn.prepare_transaction(7).unwrap();
    drop(conn);
    drop(db);
    let recovered = Database::recover("presume", store as Arc<dyn sqlkernel::LogStore>).unwrap();
    assert_eq!(recovered.table_len("t").unwrap(), 0);
    assert_eq!(recovered.stats().in_doubt_aborts, 1);
}

/// A torn `Prepare` frame is no vote: recovery truncates at the tear and
/// the transaction is an ordinary loser — never in-doubt.
#[test]
fn torn_prepare_is_a_loser_not_in_doubt() {
    let (db, store) = durable("torn");
    db.set_fault_plan(Some(
        FaultPlan::new(9).crash_at_prepare(0, PrepareCrash::Torn),
    ));
    let conn = db.connect();
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'torn')", &[])
        .unwrap();
    assert_eq!(conn.prepare_transaction(7).unwrap_err().class(), "crashed");
    drop(conn);
    drop(db);
    let recovered =
        Database::recover_resolving("torn", store as Arc<dyn sqlkernel::LogStore>, |_| {
            panic!("a torn vote must not surface as in-doubt")
        })
        .unwrap();
    assert_eq!(recovered.table_len("t").unwrap(), 0);
    assert_eq!(recovered.stats().in_doubt_aborts, 0);
}

/// An unacknowledged (but durable) vote surfaces as in-doubt — the
/// coordinator may have died after deciding, so recovery must ask.
#[test]
fn unacked_prepare_still_surfaces_as_in_doubt() {
    let (db, store) = durable("unacked");
    db.set_fault_plan(Some(
        FaultPlan::new(9).crash_at_prepare(0, PrepareCrash::AfterWrite),
    ));
    let conn = db.connect();
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'voted')", &[])
        .unwrap();
    assert_eq!(conn.prepare_transaction(7).unwrap_err().class(), "crashed");
    drop(conn);
    drop(db);
    let mut asked = false;
    let recovered =
        Database::recover_resolving("unacked", store as Arc<dyn sqlkernel::LogStore>, |txn| {
            asked = true;
            assert_eq!(txn.gid, 7);
            Ok(false)
        })
        .unwrap();
    assert!(
        asked,
        "durable vote must be resolved against the decision log"
    );
    assert_eq!(recovered.table_len("t").unwrap(), 0);
}

/// Sequence draws made inside a prepared transaction commit with it: the
/// `Prepare` record carries the sequence states a later `Commit` needs,
/// so recovery must restore them when it resolves to commit.
#[test]
fn committed_in_doubt_transaction_restores_sequences() {
    let store = Arc::new(MemLogStore::new());
    let db =
        Database::recover("seq2pc", Arc::clone(&store) as Arc<dyn sqlkernel::LogStore>).unwrap();
    db.connect()
        .execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY, v TEXT);
             CREATE SEQUENCE ids START WITH 100;",
        )
        .unwrap();
    db.set_fault_plan(Some(
        FaultPlan::new(9).crash_at_prepare(0, PrepareCrash::AfterAck),
    ));
    let conn = db.connect();
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (NEXTVAL('ids'), 'a')", &[])
        .unwrap();
    conn.prepare_transaction(11).unwrap();
    drop(conn);
    drop(db);
    let recovered =
        Database::recover_resolving("seq2pc", store as Arc<dyn sqlkernel::LogStore>, |_| {
            Ok(true)
        })
        .unwrap();
    assert_eq!(recovered.table_len("t").unwrap(), 1);
    // The next draw continues past the committed one instead of
    // re-issuing it.
    let rs = recovered
        .connect()
        .query("SELECT NEXTVAL('ids')", &[])
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(101));
}

/// A resolver error (decision log unreachable) must fail the recovery —
/// never guess.
#[test]
fn unreachable_decision_log_fails_recovery() {
    let (db, store) = durable("noanswer");
    db.set_fault_plan(Some(
        FaultPlan::new(9).crash_at_prepare(0, PrepareCrash::AfterAck),
    ));
    let conn = db.connect();
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute("INSERT INTO t VALUES (1, 'x')", &[]).unwrap();
    conn.prepare_transaction(3).unwrap();
    drop(conn);
    drop(db);
    let err =
        Database::recover_resolving("noanswer", store as Arc<dyn sqlkernel::LogStore>, |_| {
            Err(SqlError::Connection("coordinator unreachable".into()))
        })
        .unwrap_err();
    assert!(err.to_string().contains("unreachable"));
}

/// Dropping the connection of a prepared transaction detaches it
/// instead of aborting: the vote is durable, so only the coordinator's
/// decision (via recovery) may settle it — and until then the engine
/// refuses to checkpoint the undecided state away.
#[test]
fn dropping_a_prepared_connection_detaches_instead_of_aborting() {
    let (db, store) = durable("detach");
    {
        let conn = db.connect();
        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'kept')", &[])
            .unwrap();
        conn.prepare_transaction(99).unwrap();
    } // drop: detach, not rollback — no Abort record may hit the log
    assert!(db
        .checkpoint()
        .unwrap_err()
        .to_string()
        .contains("two-phase"));
    drop(db);
    let recovered =
        Database::recover_resolving("detach", store as Arc<dyn sqlkernel::LogStore>, |txn| {
            assert_eq!(txn.gid, 99);
            Ok(true)
        })
        .unwrap();
    assert_eq!(
        recovered.table_len("t").unwrap(),
        1,
        "decision said commit; the dropped connection must not have aborted the vote"
    );
}
