//! LIMIT pushdown into compiled single-table walks.
//!
//! When only the first OFFSET+LIMIT rows that pass the WHERE can reach
//! the output — the walk serves the ORDER BY, or there is none, and no
//! DISTINCT can drop a row — the compiled executor stops the walk once
//! that many rows passed. A WHERE of infallible comparisons runs during
//! the walk; any other WHERE runs after it over every row, so errors
//! surface where the interpreter raises them. These tests pin the
//! counters of each case, hold the results (and error classes) equal
//! to the interpreter's over a randomized corpus, and hold them equal
//! to an index-free twin's: no index may change a result.

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

/// Triplet tables holding the same rows, inserted in `id` order, with
/// NULLs and duplicates: in the compiled and the interpreted twin `id`
/// is the primary key and `a` is indexed; the bare twin has no index
/// and no key.
fn twin_tables(rng: &mut SplitMix64) -> [Database; 3] {
    const INDEXED: &str = "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT);\
                           CREATE INDEX t_a ON t (a);";
    let mut rows = String::new();
    let cell = |rng: &mut SplitMix64| match rng.next_below(6) {
        0 => "NULL".to_string(),
        _ => (rng.next_below(20) as i64 - 5).to_string(),
    };
    for id in 0..rng.next_below(150) {
        let (a, b) = (cell(rng), cell(rng));
        rows.push_str(&format!("INSERT INTO t VALUES ({id}, {a}, {b});"));
    }
    let dbs = [
        Database::new("limit_compiled"),
        Database::new("limit_interpreted"),
        Database::new("limit_bare"),
    ];
    for (db, ddl) in dbs
        .iter()
        .zip([INDEXED, INDEXED, "CREATE TABLE t (id INT, a INT, b INT);"])
    {
        db.connect()
            .execute_script(&format!("{ddl}{rows}"))
            .unwrap();
    }
    dbs
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
    match rng.next_below(5) {
        0 => {}
        1 => sql.push_str(&format!(" WHERE {}", atom(rng))),
        2 => sql.push_str(&format!(" WHERE {} AND {}", atom(rng), atom(rng))),
        // Not comparison-only, and errs where b = 0.
        3 => sql.push_str(&format!(" WHERE 12 / b > {}", rng.next_below(5))),
        // The same, beside a comparison an index can serve: a row the
        // comparison rejects is dropped whether or not 12 / b errs.
        _ => {
            let div = format!("12 / b > {}", rng.next_below(5));
            let col = pick(rng, &["id", "a"]);
            let op = pick(rng, &["=", "<", "<=", ">", ">="]);
            let cmp = format!("{col} {op} {}", rng.next_below(20) as i64 - 5);
            match rng.next_below(2) {
                0 => sql.push_str(&format!(" WHERE {div} AND {cmp}")),
                _ => sql.push_str(&format!(" WHERE {cmp} AND {div}")),
            }
        }
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

/// `CHAOS_SEED`, when set, shifts every case seed of the randomized
/// corpus; unset, the corpus is fixed.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

/// Randomized LIMIT queries return the interpreter's rows, or fail with
/// its error class, on the indexed tables and on the bare twin alike,
/// and the pushdown engages along the way.
#[test]
fn limit_pushdown_matches_interpreter() {
    let mut pushed = 0;
    for case in 0..120u64 {
        let mut rng = SplitMix64::new(case.wrapping_add(chaos_seed()));
        let [cdb, idb, bdb] = twin_tables(&mut rng);
        let (c, i, b) = (cdb.connect(), idb.connect(), bdb.connect());
        for _ in 0..10 {
            let sql = gen_query(&mut rng);
            let before = cdb.stats().limit_pushdowns;
            let got = (c.query(&sql, &[]), c.query(&sql, &[]));
            let want = i.execute_ast(&parse_statement(&sql).unwrap(), &[]);
            let bare = b.query(&sql, &[]);
            pushed += cdb.stats().limit_pushdowns - before;
            match (got, want, bare) {
                ((Ok(x), Ok(y)), Ok(StatementResult::Rows(w)), Ok(z)) => {
                    assert_eq!(x.rows, y.rows, "case {case}: {sql}");
                    assert_eq!(x.rows, w.rows, "case {case}: {sql}");
                    assert_eq!(x.rows, z.rows, "case {case}: {sql}: the index changed it");
                }
                ((Err(x), Err(y)), Err(w), Err(z)) => {
                    assert_eq!(x.class(), y.class(), "case {case}: {sql}");
                    assert_eq!(x.class(), w.class(), "case {case}: {sql}");
                    assert_eq!(
                        x.class(),
                        z.class(),
                        "case {case}: {sql}: the index changed it"
                    );
                }
                (got, want, bare) => {
                    panic!("case {case}: {sql}: {got:?} vs {want:?} vs bare {bare:?}")
                }
            }
        }
    }
    assert!(pushed > 100, "the pushdown engaged {pushed} times");
}

/// Four statements through which an index on `a` could show: the row
/// order, the rows a LIMIT keeps, a WHERE that fails on a row the index
/// skips, and a projection that fails on a row the LIMIT drops. Each
/// gives the same rows, compiled and interpreted, with and without the
/// index.
#[test]
fn an_index_changes_no_result() {
    const TABLE: &str = "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT);\
                         INSERT INTO t VALUES (0, 9, 1), (1, 1, 0), (2, 7, 2), (3, 5, 3), (4, 8, 4);";
    let bare = Database::new("index_free");
    bare.connect().execute_script(TABLE).unwrap();
    let indexed = Database::new("index_on_a");
    (indexed.connect())
        .execute_script(&format!("{TABLE}CREATE INDEX t_a ON t (a);"))
        .unwrap();
    let ints =
        |ns: &[i64]| -> Vec<Vec<Value>> { ns.iter().map(|n| vec![Value::Int(*n)]).collect() };
    for (sql, want) in [
        ("SELECT id FROM t WHERE a > 3", ints(&[0, 2, 3, 4])),
        ("SELECT id FROM t WHERE a > 3 LIMIT 2", ints(&[0, 2])),
        (
            "SELECT id FROM t WHERE 12 / b > 1 AND a > 3",
            ints(&[0, 2, 3, 4]),
        ),
        ("SELECT 10 / b FROM t ORDER BY a DESC LIMIT 1", ints(&[10])),
    ] {
        for db in [&bare, &indexed] {
            let conn = db.connect();
            let compiled = conn.query(sql, &[]).map(|rs| rs.rows);
            assert_eq!(
                compiled.as_ref().ok(),
                Some(&want),
                "{sql}: compiled, {compiled:?}"
            );
            assert_eq!(interpreted(&conn, sql), want, "{sql}: interpreted");
        }
    }
}
