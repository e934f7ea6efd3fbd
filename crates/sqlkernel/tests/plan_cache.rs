//! Compiled-plan integration tests.
//!
//! Three concerns, in order: the plan cache amortizes binds (the
//! `plan_binds` counter stays flat across repeats and re-binds on DDL,
//! including `CREATE INDEX`/`DROP INDEX`); the index range-scan and
//! top-K access paths fire when they should and honor boundary
//! semantics (inclusive/exclusive ends, NULL keys, DESC order); and —
//! the load-bearing property — compiled execution is *byte-identical*
//! to interpreted execution over a randomized SELECT/UPDATE/DELETE
//! corpus. The differential harness drives one database through
//! `Connection::execute` (compiled plans) and a twin database through
//! `parse_statement` + `Connection::execute_ast` (the interpreter) and
//! asserts equal results and equal end states.

use sqlkernel::parser::parse_statement;
use std::sync::Arc;

use sqlkernel::{Connection, Database, MemLogStore, QueryResult, StatementResult, Value};

fn setup() -> (Database, Connection) {
    let db = Database::new("plan");
    let conn = db.connect();
    conn.execute_script(
        "CREATE TABLE Orders (OrderId INT PRIMARY KEY, ItemId TEXT, \
         Quantity INT, Approved BOOL);
         INSERT INTO Orders VALUES
           (1, 'widget', 10, TRUE),
           (2, 'widget', 5, TRUE),
           (3, 'gadget', 7, FALSE),
           (4, 'gadget', 3, TRUE),
           (5, 'sprocket', 2, TRUE);",
    )
    .unwrap();
    (db, conn)
}

// ---------------------------------------------------------------- plan cache

#[test]
fn plan_binds_stay_flat_across_repeated_executions() {
    let (db, conn) = setup();
    let sql = "SELECT ItemId FROM Orders WHERE Quantity > ? ORDER BY OrderId";
    conn.query(sql, &[Value::Int(4)]).unwrap();
    let after_first = db.stats().plan_binds;
    for _ in 0..20 {
        conn.query(sql, &[Value::Int(4)]).unwrap();
    }
    assert_eq!(
        db.stats().plan_binds,
        after_first,
        "repeat executions must reuse the bound plan"
    );
}

#[test]
fn compiled_plans_evaluate_bound_expressions() {
    let (db, conn) = setup();
    let before = db.stats().bound_evals;
    conn.query("SELECT Quantity + 1 FROM Orders WHERE Approved = TRUE", &[])
        .unwrap();
    assert!(
        db.stats().bound_evals > before,
        "compiled SELECT must run through the bound evaluator"
    );
}

#[test]
fn ddl_rebinds_plans_and_results_are_stable() {
    let (db, conn) = setup();
    // ORDER BY the same unindexed-then-indexed column, so dropping the
    // index cannot fall back to an ORDER-BY walk over the primary key.
    let sql = "SELECT OrderId FROM Orders WHERE Quantity BETWEEN 3 AND 7 ORDER BY Quantity";
    let before_index = conn.query(sql, &[]).unwrap();
    let binds_no_index = db.stats().plan_binds;
    conn.query(sql, &[]).unwrap();
    assert_eq!(db.stats().plan_binds, binds_no_index);

    // CREATE INDEX bumps the schema epoch: same text re-binds (now to a
    // range scan) and must return identical rows.
    conn.execute("CREATE INDEX idx_qty ON Orders (Quantity)", &[])
        .unwrap();
    let range_before = db.stats().range_scans;
    let with_index = conn.query(sql, &[]).unwrap();
    assert_eq!(before_index, with_index);
    assert!(
        db.stats().plan_binds > binds_no_index,
        "CREATE INDEX re-binds"
    );
    assert!(
        db.stats().range_scans > range_before,
        "BETWEEN uses the index"
    );

    // DROP INDEX re-binds again and falls back to a full scan.
    let binds_with_index = db.stats().plan_binds;
    conn.execute("DROP INDEX idx_qty", &[]).unwrap();
    let full_before = db.stats().full_scans;
    let dropped = conn.query(sql, &[]).unwrap();
    assert_eq!(before_index, dropped);
    assert!(
        db.stats().plan_binds > binds_with_index,
        "DROP INDEX re-binds"
    );
    assert!(
        db.stats().range_scans == range_before + 1,
        "no range scan without index"
    );
    assert!(db.stats().full_scans > full_before);
}

#[test]
fn range_scan_serves_indexed_between() {
    let (db, conn) = setup();
    conn.execute("CREATE INDEX idx_qty ON Orders (Quantity)", &[])
        .unwrap();
    let before = db.stats().range_scans;
    let rs = conn
        .query(
            "SELECT OrderId FROM Orders WHERE Quantity BETWEEN 3 AND 7 ORDER BY Quantity",
            &[],
        )
        .unwrap();
    assert!(db.stats().range_scans > before);
    // 3 (qty 7? no: qty per row: 1→10, 2→5, 3→7, 4→3, 5→2) → qty in [3,7]:
    // orders 4 (3), 2 (5), 3 (7), in Quantity order.
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(4)],
            vec![Value::Int(2)],
            vec![Value::Int(3)]
        ]
    );
}

#[test]
fn topk_heap_serves_order_by_limit_without_index() {
    let (db, conn) = setup();
    let before = db.stats().topk_sorts;
    let rs = conn
        .query(
            "SELECT OrderId FROM Orders ORDER BY Quantity DESC LIMIT 2 OFFSET 1",
            &[],
        )
        .unwrap();
    assert!(
        db.stats().topk_sorts > before,
        "ORDER BY + LIMIT takes top-K"
    );
    assert_eq!(rs.rows, vec![vec![Value::Int(3)], vec![Value::Int(2)]]);
}

#[test]
fn index_order_walk_skips_both_sort_and_topk() {
    let (db, conn) = setup();
    conn.execute("CREATE INDEX idx_qty ON Orders (Quantity)", &[])
        .unwrap();
    let before = db.stats();
    let rs = conn
        .query("SELECT OrderId FROM Orders ORDER BY Quantity LIMIT 3", &[])
        .unwrap();
    let after = db.stats();
    assert_eq!(
        after.topk_sorts, before.topk_sorts,
        "index order serves the sort"
    );
    assert!(after.range_scans > before.range_scans, "whole-index walk");
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(5)],
            vec![Value::Int(4)],
            vec![Value::Int(2)]
        ]
    );
}

// ---------------------------------------------------------------- range bounds

fn range_fixture() -> (Database, Connection) {
    let db = Database::new("range");
    let conn = db.connect();
    conn.execute_script(
        "CREATE TABLE t (id INT PRIMARY KEY, k INT);
         CREATE INDEX idx_k ON t (k);
         INSERT INTO t VALUES
           (1, 10), (2, 20), (3, 20), (4, 30), (5, NULL), (6, 40), (7, NULL);",
    )
    .unwrap();
    (db, conn)
}

fn ids(rs: &QueryResult) -> Vec<i64> {
    rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect()
}

#[test]
fn range_bounds_inclusive_and_exclusive() {
    let (db, conn) = range_fixture();
    let cases: &[(&str, &[i64])] = &[
        ("SELECT id FROM t WHERE k > 20 ORDER BY k", &[4, 6]),
        ("SELECT id FROM t WHERE k >= 20 ORDER BY k", &[2, 3, 4, 6]),
        ("SELECT id FROM t WHERE k < 20 ORDER BY k", &[1]),
        ("SELECT id FROM t WHERE k <= 20 ORDER BY k", &[1, 2, 3]),
        (
            "SELECT id FROM t WHERE k BETWEEN 20 AND 30 ORDER BY k",
            &[2, 3, 4],
        ),
        ("SELECT id FROM t WHERE k > 20 AND k < 40 ORDER BY k", &[4]),
        ("SELECT id FROM t WHERE 20 < k ORDER BY k", &[4, 6]),
        // Empty and inverted ranges.
        ("SELECT id FROM t WHERE k > 40 ORDER BY k", &[]),
        ("SELECT id FROM t WHERE k > 30 AND k < 20 ORDER BY k", &[]),
        ("SELECT id FROM t WHERE k > 20 AND k < 20 ORDER BY k", &[]),
    ];
    for (sql, want) in cases {
        let before = db.stats().range_scans;
        let rs = conn.query(sql, &[]).unwrap();
        assert_eq!(&ids(&rs), want, "{sql}");
        assert!(db.stats().range_scans > before, "{sql} should range-scan");
    }
}

#[test]
fn range_scans_exclude_null_keys() {
    let (_db, conn) = range_fixture();
    // An unbounded-below walk must not surface the NULL-keyed rows:
    // `k < x` is UNKNOWN for NULL k.
    let rs = conn
        .query("SELECT id FROM t WHERE k < 50 ORDER BY k", &[])
        .unwrap();
    assert_eq!(ids(&rs), vec![1, 2, 3, 4, 6]);
    // NULL bound → empty result, not an error.
    let rs = conn
        .query("SELECT id FROM t WHERE k < ?", &[Value::Null])
        .unwrap();
    assert!(rs.is_empty());
}

#[test]
fn range_walk_desc_order_matches_sorted() {
    let (db, conn) = range_fixture();
    let before = db.stats();
    let rs = conn
        .query("SELECT id FROM t WHERE k >= 20 ORDER BY k DESC", &[])
        .unwrap();
    // Key order descending; equal keys (rows 2 and 3) keep rowid order,
    // exactly as the interpreter's stable sort would leave them.
    assert_eq!(ids(&rs), vec![6, 4, 2, 3]);
    let after = db.stats();
    assert!(after.range_scans > before.range_scans);
    assert_eq!(after.topk_sorts, before.topk_sorts);
}

#[test]
fn pure_order_by_walk_places_nulls() {
    let (_db, conn) = range_fixture();
    // Ascending: NULLs first (engine total order); descending: last.
    let rs = conn.query("SELECT id FROM t ORDER BY k", &[]).unwrap();
    assert_eq!(ids(&rs), vec![5, 7, 1, 2, 3, 4, 6]);
    let rs = conn.query("SELECT id FROM t ORDER BY k DESC", &[]).unwrap();
    assert_eq!(ids(&rs), vec![6, 4, 2, 3, 1, 5, 7]);
}

// ---------------------------------------------------------------- LIMIT

#[test]
fn negative_limit_and_offset_are_semantic_errors() {
    let (_db, conn) = setup();
    for sql in [
        "SELECT OrderId FROM Orders LIMIT -1",
        "SELECT OrderId FROM Orders OFFSET -2",
        "SELECT OrderId FROM Orders ORDER BY OrderId LIMIT 1 - 2",
        "SELECT OrderId FROM Orders UNION SELECT OrderId FROM Orders LIMIT -1",
    ] {
        let err = conn.query(sql, &[]).unwrap_err();
        assert_eq!(err.class(), "semantic", "{sql}");
    }
}

#[test]
fn limit_expression_evaluates_once_per_statement() {
    let (_db, conn) = setup();
    conn.execute("CREATE SEQUENCE lim START WITH 1", &[])
        .unwrap();
    // NEXTVAL in LIMIT: one advance per statement, not per row.
    let rs = conn
        .query(
            "SELECT OrderId FROM Orders ORDER BY OrderId LIMIT NEXTVAL('lim')",
            &[],
        )
        .unwrap();
    assert_eq!(rs.len(), 1, "first execution: LIMIT 1");
    let rs = conn
        .query(
            "SELECT OrderId FROM Orders ORDER BY OrderId LIMIT NEXTVAL('lim')",
            &[],
        )
        .unwrap();
    assert_eq!(
        rs.len(),
        2,
        "second execution: LIMIT 2 — one advance per statement"
    );
}

/// The version chains one compiled `ORDER BY k LIMIT 10` resolves over a
/// `rows`-row table whose every row has two versions: a reader's open
/// transaction holds the snapshot from before a full-table `UPDATE`.
fn limit_walk_chains(rows: i64) -> u64 {
    let db = Database::new("limit_walk");
    let writer = db.connect();
    writer
        .execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)", &[])
        .unwrap();
    let sets: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int(i), Value::Int(i)])
        .collect();
    writer
        .execute_batch("INSERT INTO t VALUES (?, ?)", &sets)
        .unwrap();
    let reader = db.connect();
    reader.execute("BEGIN", &[]).unwrap();
    reader.query("SELECT v FROM t WHERE k = 0", &[]).unwrap();
    writer.execute("UPDATE t SET v = v + 1", &[]).unwrap();

    let sql = "SELECT k FROM t ORDER BY k LIMIT 10";
    writer.query(sql, &[]).unwrap();
    let before = db.stats();
    let rs = writer.query(sql, &[]).unwrap();
    let after = db.stats();
    assert_eq!(ids(&rs), (0..10).collect::<Vec<_>>());
    assert_eq!(after.plan_binds, before.plan_binds, "the cached plan ran");
    assert!(
        after.range_scans > before.range_scans,
        "an index order walk"
    );
    assert_eq!(after.topk_sorts, before.topk_sorts, "no top-K sort");
    reader.execute("COMMIT", &[]).unwrap();
    after.version_chains_walked - before.version_chains_walked
}

#[test]
fn limit_index_walk_stops_at_offset_plus_limit() {
    let small = limit_walk_chains(2_000);
    let large = limit_walk_chains(20_000);
    assert_eq!(small, large, "the walk must not grow with the table");
    assert!((1..=10).contains(&small), "walked {small} chains");
}

// ---------------------------------------------------------------- differential

/// SplitMix64, as in `tests/proptests.rs` — deterministic, dependency-free.
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    fn irange(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.range(0, items.len())]
    }
}

/// Twin databases with identical schema and data; `case` varies row
/// count, NULL density, and which secondary indexes exist.
fn twin_dbs(rng: &mut Rng) -> (Database, Database) {
    let compiled = Database::new("diff_compiled");
    let interpreted = Database::new("diff_interpreted");
    let mut ddl = String::from("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, s TEXT);");
    if rng.bool() {
        ddl.push_str("CREATE INDEX idx_a ON t (a);");
    }
    if rng.bool() {
        ddl.push_str("CREATE INDEX idx_b ON t (b);");
    }
    let n_rows = rng.range(0, 30);
    for id in 0..n_rows {
        let a = if rng.range(0, 5) == 0 {
            "NULL".to_string()
        } else {
            rng.irange(-20, 80).to_string()
        };
        let b = if rng.range(0, 6) == 0 {
            "NULL".to_string()
        } else {
            rng.irange(0, 50).to_string()
        };
        let s = match rng.range(0, 4) {
            0 => "NULL".to_string(),
            1 => "'widget'".to_string(),
            2 => "'gadget'".to_string(),
            _ => format!("'item{}'", rng.range(0, 8)),
        };
        ddl.push_str(&format!("INSERT INTO t VALUES ({id}, {a}, {b}, {s});"));
    }
    compiled.connect().execute_script(&ddl).unwrap();
    interpreted.connect().execute_script(&ddl).unwrap();
    (compiled, interpreted)
}

fn gen_predicate(rng: &mut Rng) -> String {
    let atom = |rng: &mut Rng| -> String {
        let col = rng.pick(&["id", "a", "b"]);
        match rng.range(0, 6) {
            0 => format!("{col} = {}", rng.irange(-5, 60)),
            1 => format!(
                "{col} {} {}",
                rng.pick(&["<", "<=", ">", ">="]),
                rng.irange(-5, 60)
            ),
            2 => {
                let lo = rng.irange(-5, 40);
                format!("{col} BETWEEN {lo} AND {}", lo + rng.irange(0, 30))
            }
            3 => format!(
                "{} {} {col}",
                rng.irange(-5, 60),
                rng.pick(&["<", "<=", ">", ">="])
            ),
            4 => format!("{col} IS {}NULL", if rng.bool() { "NOT " } else { "" }),
            _ => format!("s {} 'widget'", rng.pick(&["=", "<>"])),
        }
    };
    let mut pred = atom(rng);
    for _ in 0..rng.range(0, 3) {
        pred = format!("{pred} {} {}", rng.pick(&["AND", "OR"]), atom(rng));
    }
    pred
}

fn gen_select(rng: &mut Rng) -> String {
    let projection = rng.pick(&[
        "*",
        "id, a",
        "id, a + b AS ab",
        "s, b",
        "id, CASE WHEN a IS NULL THEN -1 ELSE a END AS a2",
    ]);
    let distinct = if rng.range(0, 5) == 0 {
        "DISTINCT "
    } else {
        ""
    };
    let mut sql = format!("SELECT {distinct}{projection} FROM t");
    if rng.range(0, 4) != 0 {
        sql.push_str(&format!(" WHERE {}", gen_predicate(rng)));
    }
    if rng.range(0, 3) != 0 {
        let key = rng.pick(&["id", "a", "b", "1", "a DESC", "b DESC, id"]);
        sql.push_str(&format!(" ORDER BY {key}"));
    }
    if rng.range(0, 3) == 0 {
        sql.push_str(&format!(" LIMIT {}", rng.range(0, 12)));
        if rng.bool() {
            sql.push_str(&format!(" OFFSET {}", rng.range(0, 5)));
        }
    }
    sql
}

/// Run one statement both ways: compiled through `execute` (twice, so
/// the second run exercises the cached plan), interpreted through
/// `parse_statement` + `execute_ast`. Results must match exactly.
fn run_both(
    compiled: &Connection,
    interpreted: &Connection,
    sql: &str,
    case: u64,
) -> (StatementResult, StatementResult) {
    let c1 = compiled.execute(sql, &[]);
    let c2 = compiled.execute(sql, &[]);
    let stmt = parse_statement(sql).unwrap();
    let i1 = interpreted.execute_ast(&stmt, &[]);
    match (&c1, &c2, &i1) {
        (Ok(a), Ok(b), Ok(c)) => {
            assert_eq!(a, b, "case {case}: compiled not idempotent: {sql}");
            assert_eq!(a, c, "case {case}: compiled != interpreted: {sql}");
        }
        (Err(a), Err(b), Err(c)) => {
            assert_eq!(a.class(), b.class(), "case {case}: {sql}");
            assert_eq!(a.class(), c.class(), "case {case}: {sql}");
        }
        _ => panic!("case {case}: divergent outcomes for {sql}: {c1:?} / {c2:?} / {i1:?}"),
    }
    (
        c1.unwrap_or(StatementResult::Ddl),
        i1.unwrap_or(StatementResult::Ddl),
    )
}

/// Full-table snapshot through the *interpreter* on both databases, so
/// the comparison itself cannot mask a compiled-path bug.
fn assert_same_state(compiled: &Connection, interpreted: &Connection, case: u64, sql: &str) {
    let stmt = parse_statement("SELECT * FROM t ORDER BY id").unwrap();
    let a = compiled.execute_ast(&stmt, &[]).unwrap();
    let b = interpreted.execute_ast(&stmt, &[]).unwrap();
    assert_eq!(a, b, "case {case}: table state diverged after {sql}");
}

#[test]
fn differential_select_corpus() {
    for case in 0..48 {
        let mut rng = Rng::new(0xC0FFEE ^ case);
        let (cdb, idb) = twin_dbs(&mut rng);
        let (cc, ic) = (cdb.connect(), idb.connect());
        for _ in 0..8 {
            let sql = gen_select(&mut rng);
            run_both(&cc, &ic, &sql, case);
        }
    }
}

/// A copy of `t` with no index at all, not even a key: every DML
/// statement against it runs as a full scan — the oracle for the
/// index-driven access paths. Rows go in in `id` order, so row ids (and
/// with them emission order) match the indexed twins.
fn scan_oracle(src: &Connection) -> Connection {
    let conn = Database::new("diff_scan_oracle").connect();
    conn.execute("CREATE TABLE t (id INT, a INT, b INT, s TEXT)", &[])
        .unwrap();
    for row in src.query("SELECT * FROM t ORDER BY id", &[]).unwrap().rows {
        conn.execute("INSERT INTO t VALUES (?, ?, ?, ?)", &row)
            .unwrap();
    }
    conn
}

/// WHERE clauses aimed at the index access paths: INT and TEXT keys,
/// `col = NULL`, empty ranges, BETWEEN — alone, or ANDed with a generic
/// predicate the full re-check must still apply.
fn gen_dml_predicate(rng: &mut Rng) -> String {
    let keyed = match rng.range(0, 10) {
        0 => format!(
            "s = '{}'",
            rng.pick(&["widget", "gadget", "item3", "item7"])
        ),
        1 => format!("s {} 'item4'", rng.pick(&["<", "<=", ">", ">="])),
        2 => "s BETWEEN 'gadget' AND 'item5'".to_string(),
        3 => format!("{} = NULL", rng.pick(&["a", "b", "s", "id"])),
        4 => {
            let hi = rng.irange(-5, 40);
            format!("a BETWEEN {} AND {hi}", hi + rng.irange(1, 20))
        }
        5 => format!(
            "id >= {} AND id < {}",
            rng.irange(10, 30),
            rng.irange(0, 10)
        ),
        6 => format!("a >= {}", rng.irange(-5, 80)),
        7 => format!("id = {}", rng.irange(0, 30)),
        _ => return gen_predicate(rng),
    };
    if rng.bool() {
        format!("{keyed} AND {}", gen_predicate(rng))
    } else {
        keyed
    }
}

fn gen_dml(rng: &mut Rng) -> String {
    if rng.bool() {
        let set = rng.pick(&[
            "b = b + 1",
            "a = NULL",
            "s = 'touched', b = a",
            "a = b, b = a",
            "a = a + 100",
            "s = 'item9'",
        ]);
        format!("UPDATE t SET {} WHERE {}", set, gen_dml_predicate(rng))
    } else {
        format!("DELETE FROM t WHERE {}", gen_dml_predicate(rng))
    }
}

/// Compiled, interpreted and full-scan executions of one DML statement
/// must affect the same rows.
fn run_dml_three_ways(conns: &[Connection; 3], sql: &str, ctx: &str) {
    let c = conns[0].execute(sql, &[]).unwrap();
    let stmt = parse_statement(sql).unwrap();
    let i = conns[1].execute_ast(&stmt, &[]).unwrap();
    let o = conns[2].execute_ast(&stmt, &[]).unwrap();
    assert_eq!(c.affected(), i.affected(), "{ctx}: {sql}");
    assert_eq!(
        c.affected(),
        o.affected(),
        "{ctx}: full scan disagrees: {sql}"
    );
}

#[test]
fn differential_update_delete_corpus() {
    for case in 0..64 {
        let mut rng = Rng::new(0xD1FF ^ case);
        let (cdb, idb) = twin_dbs(&mut rng);
        let (cc, ic) = (cdb.connect(), idb.connect());
        if rng.bool() {
            for c in [&cc, &ic] {
                c.execute("CREATE INDEX idx_s ON t (s)", &[]).unwrap();
            }
        }
        let conns = [cc, ic, scan_oracle(&cdb.connect())];
        for round in 0..8 {
            let ctx = format!("case {case} round {round}");
            if rng.range(0, 4) == 0 {
                // A transaction that moves keys, then deletes by the old
                // and the new keys: stale index entries for the old keys
                // must be skipped, the moved rows found under the new.
                let lo = rng.irange(-5, 60);
                let stmts = [
                    "BEGIN".to_string(),
                    format!("UPDATE t SET a = a + 100 WHERE a >= {lo}"),
                    format!("DELETE FROM t WHERE a = {}", rng.irange(-5, 80)),
                    format!(
                        "DELETE FROM t WHERE a BETWEEN {} AND 200",
                        lo + rng.irange(90, 130)
                    ),
                    format!("UPDATE t SET b = -1 WHERE a < {}", rng.irange(-5, 60)),
                    "COMMIT".to_string(),
                ];
                for sql in &stmts {
                    if sql == "BEGIN" || sql == "COMMIT" {
                        for c in &conns {
                            c.execute(sql, &[]).unwrap();
                        }
                    } else {
                        run_dml_three_ways(&conns, sql, &ctx);
                    }
                }
            } else {
                // Later rounds reuse earlier statements' cached plans on
                // the compiled side whenever the generator repeats itself.
                run_dml_three_ways(&conns, &gen_dml(&mut rng), &ctx);
            }
            assert_same_state(&conns[0], &conns[1], case, &ctx);
            assert_same_state(&conns[0], &conns[2], case, &ctx);
        }
    }
}

#[test]
fn parameterized_key_moves_match_interpreter_and_full_scan() {
    // `SET k = k + 100 WHERE k >= ?` through the range path, with the
    // cached plan re-run under fresh parameters.
    for case in 0..16 {
        let mut rng = Rng::new(0x0B0E ^ case);
        let (cdb, idb) = twin_dbs(&mut rng);
        let (cc, ic) = (cdb.connect(), idb.connect());
        for c in [&cc, &ic] {
            c.execute("CREATE INDEX IF NOT EXISTS idx_a ON t (a)", &[])
                .unwrap();
        }
        let oc = scan_oracle(&cc);
        let sql = "UPDATE t SET a = a + 100 WHERE a >= ?";
        let stmt = parse_statement(sql).unwrap();
        for _ in 0..4 {
            let p = [Value::Int(rng.irange(-5, 150))];
            let c = cc.execute(sql, &p).unwrap();
            assert_eq!(c, ic.execute_ast(&stmt, &p).unwrap(), "case {case}");
            assert_eq!(c, oc.execute_ast(&stmt, &p).unwrap(), "case {case}");
        }
        assert_same_state(&cc, &ic, case, sql);
        assert_same_state(&cc, &oc, case, sql);
    }
}

/// Random grouped SELECT: mixed inline-foldable aggregates (bare
/// columns, COUNT(*)), DISTINCT and computed-argument shapes that force
/// the member-list fallback, optional WHERE/HAVING/ORDER BY/LIMIT, and
/// single- and multi-column (and absent) group keys.
fn gen_aggregate(rng: &mut Rng) -> String {
    let group = rng.pick(&["", "a", "b", "s", "a, b"]);
    let aggs = [
        "COUNT(*)",
        "COUNT(b)",
        "SUM(a)",
        "AVG(b)",
        "MIN(s)",
        "MAX(a)",
        "SUM(DISTINCT a)",
        "COUNT(DISTINCT s)",
        "SUM(a + b)",
        "MIN(b * 2)",
    ];
    let mut proj: Vec<String> = Vec::new();
    if !group.is_empty() && rng.range(0, 4) != 0 {
        proj.push(group.to_string());
    }
    for _ in 0..rng.range(1, 4) {
        proj.push(rng.pick(&aggs).to_string());
    }
    let mut sql = format!("SELECT {} FROM t", proj.join(", "));
    if rng.range(0, 3) == 0 {
        sql.push_str(&format!(" WHERE {}", gen_predicate(rng)));
    }
    if !group.is_empty() {
        sql.push_str(&format!(" GROUP BY {group}"));
        if rng.range(0, 3) == 0 {
            let having = rng.pick(&[
                "COUNT(*) > 1",
                "SUM(a) > 10",
                "MIN(s) IS NOT NULL",
                "AVG(b) >= 5",
            ]);
            sql.push_str(&format!(" HAVING {having}"));
        }
    }
    if rng.range(0, 3) == 0 {
        sql.push_str(" ORDER BY 1");
        if rng.bool() {
            sql.push_str(&format!(" LIMIT {}", rng.range(0, 6)));
        }
    }
    sql
}

/// Aggregate corpus round: the hash aggregator (streamed, one-pass, and
/// member-list fallback alike) must be byte-identical to the
/// interpreter — including group emission order, NULL group keys,
/// empty-input behavior, and HAVING over completed groups.
#[test]
fn differential_aggregate_corpus() {
    for case in 0..48 {
        let mut rng = Rng::new(0xA66E ^ case);
        let (cdb, idb) = twin_dbs(&mut rng);
        let (cc, ic) = (cdb.connect(), idb.connect());
        for _ in 0..8 {
            let sql = gen_aggregate(&mut rng);
            run_both(&cc, &ic, &sql, case);
        }
    }
}

/// Hand-picked aggregate edges the random corpus reaches only rarely:
/// global aggregates over an empty table (one all-NULL/zero row), GROUP
/// BY over an empty table (zero rows), NULL group keys grouping
/// together, duplicate aggregate call sites, and overflow-adjacent SUMs
/// (both executors accumulate in f64, so the cast back must agree).
#[test]
fn aggregate_edge_cases_match_interpreter() {
    let cdb = Database::new("agg_edge_c");
    let idb = Database::new("agg_edge_i");
    let (cc, ic) = (cdb.connect(), idb.connect());
    let ddl = "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, s TEXT);";
    cc.execute_script(ddl).unwrap();
    ic.execute_script(ddl).unwrap();

    // Empty table first.
    for sql in [
        "SELECT COUNT(*), SUM(a), AVG(a), MIN(s), MAX(b) FROM t",
        "SELECT a, COUNT(*) FROM t GROUP BY a",
        "SELECT s, SUM(a) FROM t GROUP BY s HAVING COUNT(*) > 0",
    ] {
        run_both(&cc, &ic, sql, 0);
    }

    let rows = "INSERT INTO t VALUES
        (1, 9223372036854775806, 1, 'x'),
        (2, 1, 1, 'x'),
        (3, -9223372036854775807, NULL, 'y'),
        (4, NULL, NULL, 'y'),
        (5, 7, 2, NULL),
        (6, 7, 2, NULL),
        (7, 0, 3, 'x');";
    cc.execute_script(rows).unwrap();
    ic.execute_script(rows).unwrap();

    for sql in [
        // Overflow-adjacent SUM, globally and per group.
        "SELECT SUM(a), AVG(a) FROM t",
        "SELECT s, SUM(a) FROM t GROUP BY s",
        // NULL group keys form one group; NULL-only aggregate inputs.
        "SELECT b, COUNT(*), COUNT(b), SUM(a) FROM t GROUP BY b",
        "SELECT s, MIN(b), MAX(b) FROM t GROUP BY s",
        // Duplicate rows without DISTINCT vs the same with DISTINCT.
        "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY 1",
        "SELECT COUNT(s), COUNT(DISTINCT s), SUM(a), SUM(DISTINCT a) FROM t",
        // Duplicate call sites share one synthetic slot.
        "SELECT SUM(a), SUM(a), COUNT(*) FROM t",
        // SUM over a non-numeric column errors identically.
        "SELECT SUM(s) FROM t",
        "SELECT b, AVG(s) FROM t GROUP BY b",
    ] {
        run_both(&cc, &ic, sql, 1);
    }
}

/// The corpus must actually exercise the batch executor: grouped
/// statements tick `hash_aggs`, and every compiled SELECT ticks
/// `batch_evals`/`batched_rows`. Guards against a silent fallback to
/// the interpreter making the differential tests vacuous.
#[test]
fn grouped_queries_engage_the_hash_aggregator() {
    let (db, conn) = setup();
    for _ in 0..2 {
        conn.query(
            "SELECT ItemId, SUM(Quantity), COUNT(*) FROM Orders \
             WHERE Approved = TRUE GROUP BY ItemId",
            &[],
        )
        .unwrap();
        conn.query(
            "SELECT ItemId, SUM(DISTINCT Quantity) FROM Orders GROUP BY ItemId",
            &[],
        )
        .unwrap();
    }
    let s = db.stats();
    assert!(
        s.hash_aggs >= 4,
        "grouped statements must run through the hash aggregator (got {})",
        s.hash_aggs
    );
    assert!(s.batch_evals > 0, "batched passes must be recorded");
    assert!(s.batched_rows > 0, "batched row traffic must be recorded");
}

#[test]
fn differential_parameterized_statements() {
    for case in 0..24 {
        let mut rng = Rng::new(0xBEEF ^ case);
        let (cdb, idb) = twin_dbs(&mut rng);
        let (cc, ic) = (cdb.connect(), idb.connect());
        for _ in 0..6 {
            let sql = rng.pick(&[
                "SELECT id, a FROM t WHERE a > ? ORDER BY id",
                "SELECT id FROM t WHERE a BETWEEN ? AND ? ORDER BY a, id",
                "SELECT id FROM t WHERE b = ? OR a < ? ORDER BY 1",
                "SELECT id, b FROM t WHERE ? <= b ORDER BY b DESC LIMIT 4",
            ]);
            let params: Vec<Value> = (0..sql.matches('?').count())
                .map(|_| {
                    if rng.range(0, 6) == 0 {
                        Value::Null
                    } else {
                        Value::Int(rng.irange(-10, 60))
                    }
                })
                .collect();
            let a = cc.execute(sql, &params).unwrap();
            let b = cc.execute(sql, &params).unwrap();
            let stmt = parse_statement(sql).unwrap();
            let c = ic.execute_ast(&stmt, &params).unwrap();
            assert_eq!(a, b, "case {case}: {sql}");
            assert_eq!(a, c, "case {case}: {sql}");
        }
    }
}

/// Compiled UPDATE/DELETE test a comparison-only WHERE in place, as
/// column/constant conjuncts; the interpreter walks the expression tree.
/// Over NULL cells, Int vs Float keys, text ranges and a missing `?`
/// binding, both must change the same rows, record the same undo — seen
/// as the redo log derived from it and as the state ROLLBACK restores —
/// and fail with the same message.
#[test]
fn comparison_only_dml_filters_match_interpreter() {
    let setup = "CREATE TABLE c (id INT PRIMARY KEY, a INT, f FLOAT, s TEXT);
         INSERT INTO c VALUES (1, NULL, 1.5, 'apple'), (2, 2, NULL, 'Banana'),
           (3, 3, 3.0, NULL), (4, 4, 2.5, 'cherry'), (5, NULL, NULL, 'banana'),
           (6, 6, 6.0, 'b');";
    let cases: &[(&str, &[Value])] = &[
        ("UPDATE c SET a = 0 WHERE a = NULL", &[]),
        ("UPDATE c SET a = 0 WHERE a <> 2", &[]),
        ("UPDATE c SET s = 'x' WHERE f >= 2", &[]),
        ("DELETE FROM c WHERE a = 3.0", &[]),
        ("UPDATE c SET s = 'x' WHERE f = ?", &[Value::Int(3)]),
        ("UPDATE c SET s = 'x' WHERE a = ?", &[Value::Float(4.0)]),
        (
            "UPDATE c SET a = a + 1 WHERE a < ? AND f > ?",
            &[Value::Float(4.5), Value::Int(2)],
        ),
        ("UPDATE c SET s = NULL WHERE f > ?", &[Value::Null]),
        ("DELETE FROM c WHERE s < 'banana'", &[]),
        ("UPDATE c SET a = 9 WHERE s >= 'b' AND s < 'c'", &[]),
        ("UPDATE c SET a = 9 WHERE 'b' <= s", &[]),
        (
            "DELETE FROM c WHERE s > ? AND id < ?",
            &[Value::text("b"), Value::Int(6)],
        ),
        ("UPDATE c SET a = 1 WHERE a = ?", &[]),
        ("DELETE FROM c WHERE a > ? AND f < ?", &[Value::Int(1)]),
    ];
    let open = |name: &str| {
        let log = MemLogStore::new();
        let db = Database::recover(name, Arc::new(log.clone())).unwrap();
        db.connect().execute_script(setup).unwrap();
        (db, log)
    };
    let state = |conn: &Connection| conn.query("SELECT * FROM c ORDER BY id", &[]).unwrap();
    for (sql, params) in cases {
        let stmt = parse_statement(sql).unwrap();
        let (cdb, clog) = open("cmp_compiled");
        let (idb, ilog) = open("cmp_interpreted");
        let (cc, ic) = (cdb.connect(), idb.connect());
        let initial = state(&cc);
        // Inside a transaction, then rolled back: the undo both recorded
        // must restore the same state.
        for conn in [&cc, &ic] {
            conn.execute("BEGIN", &[]).unwrap();
        }
        let c = cc.execute(sql, params).map_err(|e| e.to_string());
        let i = ic.execute_ast(&stmt, params).map_err(|e| e.to_string());
        assert_eq!(c, i, "{sql}");
        assert_eq!(state(&cc), state(&ic), "{sql}");
        for conn in [&cc, &ic] {
            conn.execute("ROLLBACK", &[]).unwrap();
            assert_eq!(state(conn), initial, "{sql}: rollback");
        }
        // Autocommit: same rows changed, same redo derived from the undo.
        let c = cc.execute(sql, params).map_err(|e| e.to_string());
        let i = ic.execute_ast(&stmt, params).map_err(|e| e.to_string());
        assert_eq!(c, i, "{sql}");
        assert_eq!(state(&cc), state(&ic), "{sql}");
        assert_eq!(clog.bytes(), ilog.bytes(), "{sql}: logs differ");
    }
}
