//! LIMIT pushdown into compiled single-table walks.
//!
//! When only the first OFFSET+LIMIT rows that pass the WHERE can reach
//! the output — the walk serves the ORDER BY, or there is none, and no
//! DISTINCT can drop a row — the compiled executor stops the walk once
//! that many rows passed. A WHERE of infallible comparisons runs during
//! the walk; any other WHERE runs after it over every row, so errors
//! surface where the interpreter raises them. These tests pin the
//! counters of each case and hold the results (and error classes)
//! equal to the interpreter's over a randomized corpus.

use sqlkernel::parser::parse_statement;
use sqlkernel::{Connection, Database, DbStats, SplitMix64, StatementResult, Value};

/// `t(k INT PRIMARY KEY, v INT)` holding `rows` rows `(i, i)`.
fn keyed(name: &str, rows: i64) -> Database {
    let db = Database::new(name);
    let conn = db.connect();
    conn.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)", &[])
        .unwrap();
    let sets: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int(i), Value::Int(i)])
        .collect();
    conn.execute_batch("INSERT INTO t VALUES (?, ?)", &sets)
        .unwrap();
    db
}

/// Run `sql` compiled (a warm-up run binds the plan) and return its rows
/// with the counter deltas of the second run.
fn compiled(db: &Database, conn: &Connection, sql: &str) -> (Vec<Vec<Value>>, DbStats, DbStats) {
    conn.query(sql, &[]).unwrap();
    let before = db.snapshot();
    let rows = conn.query(sql, &[]).unwrap().rows;
    (rows, before, db.snapshot())
}

fn interpreted(conn: &Connection, sql: &str) -> Vec<Vec<Value>> {
    match conn
        .execute_ast(&parse_statement(sql).unwrap(), &[])
        .unwrap()
    {
        StatementResult::Rows(rs) => rs.rows,
        other => panic!("{sql}: not a row set: {other:?}"),
    }
}

#[test]
fn limit_without_order_by_stops_the_full_scan() {
    let db = keyed("limit_no_order", 2_000);
    let conn = db.connect();
    for (sql, walked) in [
        ("SELECT k FROM t LIMIT 10", 10),
        ("SELECT k FROM t LIMIT 10 OFFSET 5", 15),
        ("SELECT k, v FROM t LIMIT 0", 0),
    ] {
        let (rows, before, after) = compiled(&db, &conn, sql);
        assert_eq!(rows, interpreted(&conn, sql), "{sql}");
        assert_eq!(after.full_scans - before.full_scans, 1, "{sql}");
        assert_eq!(
            after.full_scan_rows - before.full_scan_rows,
            walked,
            "{sql}"
        );
        assert_eq!(after.batched_rows - before.batched_rows, walked, "{sql}");
        assert_eq!(after.limit_pushdowns - before.limit_pushdowns, 1, "{sql}");
    }
}

#[test]
fn filtered_order_walk_stops_at_offset_plus_limit() {
    let db = keyed("limit_filtered_walk", 2_000);
    let conn = db.connect();
    // Rows k = 0..=5 fail `v > 5`; the walk stops at the tenth row that
    // passes, k = 15 — or the fifteenth with OFFSET 5, k = 20.
    for (sql, walked) in [
        ("SELECT v FROM t WHERE v > 5 ORDER BY k LIMIT 10", 16),
        (
            "SELECT v FROM t WHERE v > 5 ORDER BY k LIMIT 10 OFFSET 5",
            21,
        ),
        (
            "SELECT k FROM t WHERE v > 5 AND v <= 1990 ORDER BY k DESC LIMIT 3",
            12,
        ),
    ] {
        let (rows, before, after) = compiled(&db, &conn, sql);
        assert_eq!(rows, interpreted(&conn, sql), "{sql}");
        assert_eq!(after.range_scans - before.range_scans, 1, "{sql}");
        assert_eq!(after.batched_rows - before.batched_rows, walked, "{sql}");
        assert_eq!(after.limit_pushdowns - before.limit_pushdowns, 1, "{sql}");
        assert_eq!(after.topk_sorts, before.topk_sorts, "{sql}: no top-K sort");
    }
    // A filtered full scan with no ORDER BY stops the same way.
    let sql = "SELECT k FROM t WHERE v >= 100 LIMIT 4";
    let (rows, before, after) = compiled(&db, &conn, sql);
    assert_eq!(rows, interpreted(&conn, sql));
    assert_eq!(after.full_scan_rows - before.full_scan_rows, 104);
}

#[test]
fn other_filters_and_shapes_keep_the_whole_walk() {
    let db = keyed("limit_whole_walk", 2_000);
    let conn = db.connect();
    for sql in [
        // Not a comparison-only WHERE: it runs over every row after the walk.
        "SELECT v FROM t WHERE v + 1 > 6 ORDER BY k LIMIT 10",
        // DISTINCT may drop rows, and an unserved ORDER BY reorders them.
        "SELECT DISTINCT v FROM t LIMIT 10",
        "SELECT k FROM t ORDER BY v DESC LIMIT 10",
    ] {
        let (rows, before, after) = compiled(&db, &conn, sql);
        assert_eq!(rows, interpreted(&conn, sql), "{sql}");
        assert_eq!(after.batched_rows - before.batched_rows, 2_000, "{sql}");
        assert_eq!(after.limit_pushdowns, before.limit_pushdowns, "{sql}");
    }
    // Such a WHERE errs on row k = 1500 in both executors, although
    // the first ten rows pass before it.
    let sql = "SELECT v FROM t WHERE 10 / (k - 1500) <> 99 ORDER BY k LIMIT 10";
    let compiled_err = conn.query(sql, &[]).unwrap_err();
    let interpreted_err = conn
        .execute_ast(&parse_statement(sql).unwrap(), &[])
        .unwrap_err();
    assert_eq!(compiled_err.class(), interpreted_err.class());
    // A projection is evaluated only for the rows the LIMIT keeps, in
    // both executors.
    let sql = "SELECT 10 / (k - 1500) FROM t LIMIT 10";
    assert_eq!(conn.query(sql, &[]).unwrap().rows, interpreted(&conn, sql));
}

/// Twin tables: `id` is the primary key, `a` is indexed, `b` is not;
/// both hold NULLs and duplicates.
fn twin_tables(rng: &mut SplitMix64) -> (Database, Database) {
    let mut script = String::from(
        "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT);\
         CREATE INDEX t_a ON t (a);",
    );
    let cell = |rng: &mut SplitMix64| match rng.next_below(6) {
        0 => "NULL".to_string(),
        _ => (rng.next_below(20) as i64 - 5).to_string(),
    };
    for id in 0..rng.next_below(150) {
        let (a, b) = (cell(rng), cell(rng));
        script.push_str(&format!("INSERT INTO t VALUES ({id}, {a}, {b});"));
    }
    let pair = (
        Database::new("limit_compiled"),
        Database::new("limit_interpreted"),
    );
    pair.0.connect().execute_script(&script).unwrap();
    pair.1.connect().execute_script(&script).unwrap();
    (pair.0, pair.1)
}

fn gen_query(rng: &mut SplitMix64) -> String {
    let pick = |rng: &mut SplitMix64, items: &[&'static str]| {
        items[rng.next_below(items.len() as u64) as usize]
    };
    let projection = pick(rng, &["id", "id, a, b", "b", "a + b", "10 / b"]);
    let distinct = if rng.next_below(6) == 0 {
        "DISTINCT "
    } else {
        ""
    };
    let mut sql = format!("SELECT {distinct}{projection} FROM t");
    let atom = |rng: &mut SplitMix64| {
        let col = pick(rng, &["id", "a", "b"]);
        let op = pick(rng, &["=", "<>", "<", "<=", ">", ">="]);
        format!("{col} {op} {}", rng.next_below(20) as i64 - 5)
    };
    match rng.next_below(4) {
        0 => {}
        1 => sql.push_str(&format!(" WHERE {}", atom(rng))),
        2 => sql.push_str(&format!(" WHERE {} AND {}", atom(rng), atom(rng))),
        // Not comparison-only, and errs where b = 0.
        _ => sql.push_str(&format!(" WHERE 12 / b > {}", rng.next_below(5))),
    }
    sql.push_str(pick(
        rng,
        &[
            "",
            "",
            " ORDER BY id",
            " ORDER BY id DESC",
            " ORDER BY a",
            " ORDER BY b",
        ],
    ));
    sql.push_str(&format!(" LIMIT {}", rng.next_below(12)));
    if rng.next_below(2) == 0 {
        sql.push_str(&format!(" OFFSET {}", rng.next_below(6)));
    }
    sql
}

/// Randomized LIMIT queries return the interpreter's rows, or fail with
/// its error class, and the pushdown engages along the way.
#[test]
fn limit_pushdown_matches_interpreter() {
    let mut pushed = 0;
    for case in 0..120u64 {
        let mut rng = SplitMix64::new(case);
        let (cdb, idb) = twin_tables(&mut rng);
        let (c, i) = (cdb.connect(), idb.connect());
        for _ in 0..10 {
            let sql = gen_query(&mut rng);
            let before = cdb.stats().limit_pushdowns;
            let got = (c.query(&sql, &[]), c.query(&sql, &[]));
            let want = i.execute_ast(&parse_statement(&sql).unwrap(), &[]);
            pushed += cdb.stats().limit_pushdowns - before;
            match (got, want) {
                ((Ok(a), Ok(b)), Ok(StatementResult::Rows(w))) => {
                    assert_eq!(a.rows, b.rows, "case {case}: {sql}");
                    assert_eq!(a.rows, w.rows, "case {case}: {sql}");
                }
                ((Err(a), Err(b)), Err(w)) => {
                    assert_eq!(a.class(), b.class(), "case {case}: {sql}");
                    assert_eq!(a.class(), w.class(), "case {case}: {sql}");
                }
                (got, want) => panic!("case {case}: {sql}: {got:?} vs {want:?}"),
            }
        }
    }
    assert!(pushed > 100, "the pushdown engaged {pushed} times");
}
