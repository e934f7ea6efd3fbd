//! Set-oriented batch DML and WAL group commit.
//!
//! Covers the set-at-a-time write surface: multi-row `INSERT … VALUES`,
//! `Connection::execute_batch` (N parameter sets, one lock / one undo
//! scope / one WAL append, all-or-nothing), and the commit sequencer
//! that coalesces concurrently arriving commit records into shared log
//! appends.

use std::sync::Arc;

use sqlkernel::{Database, MemLogStore, Value};

fn orders_db(name: &str) -> Database {
    let db = Database::new(name);
    db.connect()
        .execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)", &[])
        .unwrap();
    db
}

// ---------------------------------------------------------------------------
// Multi-row INSERT … VALUES
// ---------------------------------------------------------------------------

#[test]
fn multi_row_values_inserts_all_rows() {
    let db = orders_db("mrv");
    let conn = db.connect();
    let r = conn
        .execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')", &[])
        .unwrap();
    assert_eq!(r.affected(), Some(3));
    assert_eq!(db.table_len("t").unwrap(), 3);
}

#[test]
fn multi_row_values_mixed_arity_is_rejected_atomically() {
    let db = orders_db("mrv_arity");
    let conn = db.connect();
    let err = conn
        .execute("INSERT INTO t (id, v) VALUES (1, 'a'), (2)", &[])
        .unwrap_err();
    assert_eq!(err.class(), "semantic");
    assert_eq!(db.table_len("t").unwrap(), 0, "no partial row survived");
}

#[test]
fn multi_row_values_duplicate_key_rolls_back_whole_statement() {
    let db = orders_db("mrv_dup");
    let conn = db.connect();
    conn.execute("INSERT INTO t VALUES (5, 'seed')", &[])
        .unwrap();
    let err = conn
        .execute("INSERT INTO t VALUES (1, 'a'), (5, 'dup'), (2, 'b')", &[])
        .unwrap_err();
    assert_eq!(err.class(), "constraint");
    assert_eq!(
        db.table_len("t").unwrap(),
        1,
        "statement atomicity: the rows before the duplicate vanished too"
    );
}

#[test]
fn multi_row_values_with_nulls_in_composite_index_keys() {
    let db = Database::new("mrv_null");
    let conn = db.connect();
    conn.execute("CREATE TABLE pairs (id INT PRIMARY KEY, a INT, b INT)", &[])
        .unwrap();
    conn.execute("CREATE INDEX pairs_ab ON pairs (a, b)", &[])
        .unwrap();
    conn.execute(
        "INSERT INTO pairs VALUES (1, 10, 20), (2, NULL, 20), (3, 10, NULL), (4, NULL, NULL)",
        &[],
    )
    .unwrap();
    let rs = conn
        .query("SELECT id FROM pairs WHERE a IS NULL ORDER BY id", &[])
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    let rs = conn
        .query("SELECT id FROM pairs WHERE a = 10 AND b = 20", &[])
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    // Deleting the NULL-keyed rows maintains the index.
    conn.execute("DELETE FROM pairs WHERE a IS NULL", &[])
        .unwrap();
    assert_eq!(db.table_len("pairs").unwrap(), 2);
    let rs = conn
        .query("SELECT id FROM pairs WHERE a = 10 ORDER BY id", &[])
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
}

// ---------------------------------------------------------------------------
// execute_batch
// ---------------------------------------------------------------------------

#[test]
fn empty_batch_is_rejected() {
    let db = orders_db("eb_empty");
    let err = db
        .connect()
        .execute_batch("INSERT INTO t VALUES (?, ?)", &[])
        .unwrap_err();
    assert_eq!(err.class(), "semantic");
}

#[test]
fn non_dml_batch_is_rejected() {
    let db = orders_db("eb_sel");
    let err = db
        .connect()
        .execute_batch("SELECT * FROM t", &[vec![]])
        .unwrap_err();
    assert_eq!(err.class(), "semantic");
}

#[test]
fn batch_insert_applies_every_parameter_set() {
    let db = orders_db("eb_ins");
    let conn = db.connect();
    let sets: Vec<Vec<Value>> = (0..50)
        .map(|i| vec![Value::Int(i), Value::text(format!("row{i}"))])
        .collect();
    let n = conn
        .execute_batch("INSERT INTO t VALUES (?, ?)", &sets)
        .unwrap();
    assert_eq!(n, 50);
    assert_eq!(db.table_len("t").unwrap(), 50);
}

#[test]
fn batch_is_one_wal_append_not_n() {
    let store = MemLogStore::new();
    let db = Database::recover("eb_wal", Arc::new(store.clone())).unwrap();
    let conn = db.connect();
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)", &[])
        .unwrap();
    let before = db.snapshot();
    let sets: Vec<Vec<Value>> = (0..20)
        .map(|i| vec![Value::Int(i), Value::text("x")])
        .collect();
    conn.execute_batch("INSERT INTO t VALUES (?, ?)", &sets)
        .unwrap();
    let after = db.snapshot();
    assert_eq!(
        after.wal_appends - before.wal_appends,
        1,
        "the whole batch shares one log append"
    );
    // And the append is durable: recovery sees every row.
    drop(conn);
    drop(db);
    let db2 = Database::recover("eb_wal", Arc::new(store)).unwrap();
    assert_eq!(db2.table_len("t").unwrap(), 20);
}

#[test]
fn failed_batch_rolls_back_every_set() {
    let db = orders_db("eb_atomic");
    let conn = db.connect();
    conn.execute("INSERT INTO t VALUES (7, 'seed')", &[])
        .unwrap();
    let sets: Vec<Vec<Value>> = vec![
        vec![Value::Int(1), Value::text("a")],
        vec![Value::Int(2), Value::text("b")],
        vec![Value::Int(7), Value::text("dup")], // constraint violation
        vec![Value::Int(3), Value::text("c")],
    ];
    let err = conn
        .execute_batch("INSERT INTO t VALUES (?, ?)", &sets)
        .unwrap_err();
    assert_eq!(err.class(), "constraint");
    assert_eq!(
        db.table_len("t").unwrap(),
        1,
        "sets applied before the failure rolled back with it"
    );
}

#[test]
fn batch_update_and_delete_match_looped_execution() {
    // Differential: the same workload through execute_batch and through
    // a plain statement loop must converge to identical table contents.
    fn run(name: &str, batched: bool) -> Vec<Vec<Value>> {
        let db = orders_db(name);
        let conn = db.connect();
        let ins: Vec<Vec<Value>> = (0..40)
            .map(|i| vec![Value::Int(i), Value::text(format!("v{}", i % 5))])
            .collect();
        let upd: Vec<Vec<Value>> = (0..40)
            .step_by(3)
            .map(|i| vec![Value::text("bumped"), Value::Int(i)])
            .collect();
        let del: Vec<Vec<Value>> = (0..40).step_by(7).map(|i| vec![Value::Int(i)]).collect();
        if batched {
            conn.execute_batch("INSERT INTO t VALUES (?, ?)", &ins)
                .unwrap();
            conn.execute_batch("UPDATE t SET v = ? WHERE id = ?", &upd)
                .unwrap();
            conn.execute_batch("DELETE FROM t WHERE id = ?", &del)
                .unwrap();
        } else {
            for p in &ins {
                conn.execute("INSERT INTO t VALUES (?, ?)", p).unwrap();
            }
            for p in &upd {
                conn.execute("UPDATE t SET v = ? WHERE id = ?", p).unwrap();
            }
            for p in &del {
                conn.execute("DELETE FROM t WHERE id = ?", p).unwrap();
            }
        }
        conn.query("SELECT id, v FROM t ORDER BY id", &[])
            .unwrap()
            .rows
    }
    assert_eq!(run("eb_diff_b", true), run("eb_diff_l", false));
}

#[test]
fn indexed_batches_match_looped_and_full_scan_execution() {
    // Batches whose predicates hit the index paths — INT and TEXT keys,
    // NULL keys and `= NULL`, empty and BETWEEN ranges, key-moving
    // updates, and deletes inside a transaction after keys moved — must
    // end where the looped statements and an index-free table end.
    fn p(v: &[Option<i64>]) -> Vec<Value> {
        v.iter()
            .map(|x| x.map_or(Value::Null, Value::Int))
            .collect()
    }
    fn t(v: Option<&str>) -> Value {
        v.map_or(Value::Null, Value::text)
    }
    let steps: Vec<(&str, Vec<Vec<Value>>)> = vec![
        (
            "UPDATE t2 SET k = k + 100 WHERE k >= ?",
            vec![p(&[Some(50)]), p(&[Some(20)]), p(&[None]), p(&[Some(130)])],
        ),
        (
            "UPDATE t2 SET v = ? WHERE name = ?",
            vec![
                vec![Value::Int(-1), t(Some("n3"))],
                vec![Value::Int(-2), t(None)],
                vec![Value::Int(-3), t(Some("nope"))],
            ],
        ),
        (
            "DELETE FROM t2 WHERE k BETWEEN ? AND ?",
            vec![
                p(&[Some(40), Some(10)]),
                p(&[Some(5), Some(12)]),
                p(&[None, Some(90)]),
            ],
        ),
        (
            "DELETE FROM t2 WHERE name = ?",
            vec![vec![t(None)], vec![t(Some("n1"))]],
        ),
        ("BEGIN", vec![]),
        (
            "UPDATE t2 SET k = k + 100 WHERE k >= ? AND k < ?",
            vec![p(&[Some(0), Some(60)])],
        ),
        (
            "DELETE FROM t2 WHERE k = ?",
            vec![p(&[Some(30)]), p(&[Some(130)])],
        ),
        (
            "DELETE FROM t2 WHERE k < ?",
            vec![p(&[Some(15)]), p(&[Some(115)])],
        ),
        (
            "UPDATE t2 SET name = ? WHERE k > ?",
            vec![vec![t(Some("late")), Value::Int(200)]],
        ),
        ("COMMIT", vec![]),
    ];
    fn run(
        ddl: &str,
        steps: &[(&str, Vec<Vec<Value>>)],
        batched: bool,
    ) -> (Vec<usize>, Vec<Vec<Value>>) {
        let db = Database::new("eb_indexed");
        let conn = db.connect();
        conn.execute_script(ddl).unwrap();
        for i in 0..60i64 {
            let k = if i % 9 == 0 {
                Value::Null
            } else {
                Value::Int((i * 7) % 60)
            };
            let name = if i % 11 == 0 {
                Value::Null
            } else {
                Value::text(format!("n{}", i % 5))
            };
            conn.execute(
                "INSERT INTO t2 VALUES (?, ?, ?, ?)",
                &[Value::Int(i), k, name, Value::Int(i)],
            )
            .unwrap();
        }
        let mut affected = Vec::new();
        for (sql, sets) in steps {
            if sets.is_empty() {
                conn.execute(sql, &[]).unwrap();
            } else if batched {
                affected.push(conn.execute_batch(sql, sets).unwrap());
            } else {
                let n = sets
                    .iter()
                    .map(|s| conn.execute(sql, s).unwrap().affected().unwrap())
                    .sum();
                affected.push(n);
            }
        }
        let rows = conn
            .query("SELECT * FROM t2 ORDER BY id", &[])
            .unwrap()
            .rows;
        (affected, rows)
    }
    let indexed = "CREATE TABLE t2 (id INT PRIMARY KEY, k INT, name TEXT, v INT);
                   CREATE INDEX t2_k ON t2 (k);
                   CREATE INDEX t2_name ON t2 (name);";
    let bare = "CREATE TABLE t2 (id INT, k INT, name TEXT, v INT);";
    let batched = run(indexed, &steps, true);
    assert_eq!(batched, run(indexed, &steps, false));
    assert_eq!(batched, run(bare, &steps, true));
    assert!(
        batched.0.iter().sum::<usize>() > 20,
        "the steps touched rows"
    );
}

#[test]
fn batch_inside_transaction_rides_the_transaction() {
    let db = orders_db("eb_txn");
    let conn = db.connect();
    conn.execute("BEGIN", &[]).unwrap();
    let sets: Vec<Vec<Value>> = (0..5)
        .map(|i| vec![Value::Int(i), Value::text("tx")])
        .collect();
    conn.execute_batch("INSERT INTO t VALUES (?, ?)", &sets)
        .unwrap();
    conn.execute("ROLLBACK", &[]).unwrap();
    assert_eq!(db.table_len("t").unwrap(), 0, "batch undone by ROLLBACK");
}

// ---------------------------------------------------------------------------
// Statement memo: repeat executions do not re-parse or re-bind
// ---------------------------------------------------------------------------

#[test]
fn repeat_execution_hits_the_memo_without_rebinding() {
    let db = orders_db("memo");
    let conn = db.connect();
    conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
    // First parameterized execution: parse + plan bind.
    conn.execute(
        "UPDATE t SET v = ? WHERE id = ?",
        &[Value::text("b"), Value::Int(1)],
    )
    .unwrap();
    let before = db.snapshot();
    for i in 0..10 {
        conn.execute(
            "UPDATE t SET v = ? WHERE id = ?",
            &[Value::text(format!("x{i}")), Value::Int(1)],
        )
        .unwrap();
    }
    let after = db.snapshot();
    assert_eq!(after.parses, before.parses, "no re-parse on the hot path");
    assert_eq!(
        after.plan_binds, before.plan_binds,
        "no re-bind on the hot path"
    );
    assert_eq!(
        after.stmt_cache_hits - before.stmt_cache_hits,
        10,
        "every repeat counted as a cache hit"
    );
}

#[test]
fn memo_is_invalidated_by_ddl() {
    let db = orders_db("memo_ddl");
    let conn = db.connect();
    conn.execute("INSERT INTO t VALUES (1, 'a')", &[]).unwrap();
    conn.execute("SELECT * FROM t", &[]).unwrap();
    // DDL moves the cache generation; the memoized entry must re-bind
    // against the new schema epoch instead of serving a stale plan.
    conn.execute("CREATE INDEX t_v ON t (v)", &[]).unwrap();
    let rs = conn.query("SELECT * FROM t", &[]).unwrap();
    assert_eq!(rs.rows.len(), 1);
    conn.execute("DROP INDEX t_v", &[]).unwrap();
    let rs = conn.query("SELECT * FROM t", &[]).unwrap();
    assert_eq!(rs.rows.len(), 1);
}

// ---------------------------------------------------------------------------
// WAL group commit
// ---------------------------------------------------------------------------

#[test]
fn window_zero_is_byte_identical_to_ungrouped_logging() {
    let run = |window: u64| {
        let store = MemLogStore::new();
        let db = Database::recover("gc0", Arc::new(store.clone())).unwrap();
        db.set_group_commit_window(window);
        let conn = db.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)", &[])
            .unwrap();
        let base = db.snapshot();
        for i in 0..25i64 {
            conn.execute("INSERT INTO t VALUES (?, 'x')", &[Value::Int(i)])
                .unwrap();
        }
        let stats = db.snapshot();
        (
            stats.wal_appends - base.wal_appends,
            stats.wal_bytes - base.wal_bytes,
            stats.wal_commits - base.wal_commits,
        )
    };
    assert_eq!(run(0), run(0));
    let (appends, bytes, commits) = run(0);
    assert_eq!(commits, 25);
    assert!(appends >= 25, "one append per auto-commit statement");
    assert!(bytes > 0);
}

#[test]
fn group_commit_coalesces_concurrent_commits_into_fewer_appends() {
    let store = MemLogStore::new();
    let db = Database::recover("gc", Arc::new(store.clone())).unwrap();
    {
        let conn = db.connect();
        conn.execute_script(
            "CREATE TABLE a (id INT PRIMARY KEY, v INT);
             CREATE TABLE b (id INT PRIMARY KEY, v INT);
             CREATE TABLE c (id INT PRIMARY KEY, v INT);
             CREATE TABLE d (id INT PRIMARY KEY, v INT);",
        )
        .unwrap();
    }
    let before = db.snapshot();
    db.set_group_commit_window(4);

    const THREADS: usize = 8;
    const PER_THREAD: i64 = 100;
    std::thread::scope(|scope| {
        for w in 0..THREADS {
            let db = db.clone();
            scope.spawn(move || {
                let table = ["a", "b", "c", "d"][w % 4];
                let conn = db.connect();
                let stmt = conn
                    .prepare(&format!("INSERT INTO {table} VALUES (?, ?)"))
                    .unwrap();
                for i in 0..PER_THREAD {
                    conn.execute_prepared(
                        &stmt,
                        &[Value::Int((w as i64) * PER_THREAD + i), Value::Int(i)],
                    )
                    .unwrap();
                }
            });
        }
    });
    db.set_group_commit_window(0);

    let after = db.snapshot();
    let commits = after.wal_commits - before.wal_commits;
    let appends = after.wal_appends - before.wal_appends;
    assert_eq!(commits, (THREADS as u64) * (PER_THREAD as u64));
    assert!(
        appends < commits,
        "sequencer coalesced at least some commits ({appends} appends for {commits} commits)"
    );

    // Recovery replays the grouped log identically: all rows, no extras.
    drop(db);
    let db2 = Database::recover("gc", Arc::new(store)).unwrap();
    let total: usize = ["a", "b", "c", "d"]
        .iter()
        .map(|t| db2.table_len(t).unwrap())
        .sum();
    assert_eq!(total, THREADS * PER_THREAD as usize);
}

#[test]
fn group_commit_result_matches_sequential_fingerprint() {
    // The same disjoint-table workload, grouped-parallel vs sequential,
    // must produce identical table contents.
    fn run(name: &str, threads: usize, window: u64) -> Vec<(String, Vec<Vec<Value>>)> {
        let store = MemLogStore::new();
        let db = Database::recover(name, Arc::new(store)).unwrap();
        {
            let conn = db.connect();
            conn.execute_script(
                "CREATE TABLE w0 (id INT PRIMARY KEY, v INT);
                 CREATE TABLE w1 (id INT PRIMARY KEY, v INT);
                 CREATE TABLE w2 (id INT PRIMARY KEY, v INT);
                 CREATE TABLE w3 (id INT PRIMARY KEY, v INT);",
            )
            .unwrap();
        }
        db.set_group_commit_window(window);
        let work = |w: usize| {
            let conn = db.connect();
            let table = format!("w{w}");
            for i in 0..80i64 {
                conn.execute(
                    &format!("INSERT INTO {table} VALUES (?, ?)"),
                    &[Value::Int(i), Value::Int(i * 3 % 11)],
                )
                .unwrap();
                if i % 4 == 0 {
                    conn.execute(
                        &format!("UPDATE {table} SET v = v + 100 WHERE id = ?"),
                        &[Value::Int(i)],
                    )
                    .unwrap();
                }
            }
        };
        if threads > 1 {
            std::thread::scope(|scope| {
                for w in 0..4 {
                    let work = &work;
                    scope.spawn(move || work(w));
                }
            });
        } else {
            for w in 0..4 {
                work(w);
            }
        }
        db.set_group_commit_window(0);
        let conn = db.connect();
        (0..4)
            .map(|w| {
                let t = format!("w{w}");
                let rows = conn
                    .query(&format!("SELECT id, v FROM {t} ORDER BY id"), &[])
                    .unwrap()
                    .rows;
                (t, rows)
            })
            .collect()
    }
    let sequential = run("gcseq", 1, 0);
    let parallel = run("gcpar", 4, 3);
    assert_eq!(sequential, parallel);
}
