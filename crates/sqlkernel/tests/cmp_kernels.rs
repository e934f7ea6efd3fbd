//! The comparison kernel against the naive interpreter.
//!
//! Every AND-chain of `column <cmp> constant` conjuncts the compiled
//! executor runs goes through one typed kernel: a fast arm for cells of
//! the key's own variant, the interpreter's `Value::sql_cmp` for every
//! other cell, and no row for a NULL key. These tests run each
//! comparison through every place that kernel serves — the plain
//! filter, the streamed aggregate, the LIMIT walk, compiled UPDATE and
//! DELETE, and both join-side prefilters (hash join and index nested
//! loop) — and hold each result equal to the interpreter's: all six ops
//! against Bool, Int, Float (NaN and -0.0 included) and Text keys, a
//! NULL key and `?` parameters of each kind, over columns of the same
//! kind, NULL cells, the Int/Float cross type and the other kinds.
//!
//! Beside them, integer SUM is exact in both executors: 2^53 + 1 reads
//! 2^53 + 1, and a total beyond `i64` fails as integer `+` does.
//!
//! `CHAOS_SEED`, when set, shifts the seed of the randomized
//! multi-conjunct corpus; unset, the corpus is fixed.

use sqlkernel::parser::parse_statement;
use sqlkernel::{Connection, Database, SplitMix64, SqlResult, StatementResult, Value};

const BOOLS: [Option<bool>; 3] = [Some(true), Some(false), None];
const INTS: [Option<i64>; 8] = [
    Some(-2),
    Some(-1),
    Some(0),
    Some(1),
    Some(2),
    Some(3),
    Some(9_007_199_254_740_993),
    None,
];
const FLOATS: [Option<f64>; 11] = [
    Some(-1.5),
    Some(-0.0),
    Some(0.0),
    Some(0.5),
    Some(1.0),
    Some(2.0),
    Some(f64::NAN),
    Some(f64::INFINITY),
    Some(f64::NEG_INFINITY),
    Some(9_007_199_254_740_992.0),
    None,
];
const TEXTS: [Option<&str>; 6] = [Some(""), Some("a"), Some("ab"), Some("b"), Some("B"), None];

/// `t` holds 66 rows whose typed columns cycle through the value lists
/// above at different strides, with an index on `g` (the join key) and
/// none on a compared column; `u` holds the two join partners.
fn database() -> Database {
    let db = Database::new("cmp_kernels");
    let conn = db.connect();
    conn.execute_script(
        "CREATE TABLE t (id INT PRIMARY KEY, g INT, b BOOL, i INT, f FLOAT, s TEXT);\
         CREATE INDEX t_g ON t (g);\
         CREATE TABLE u (uid INT PRIMARY KEY, ug INT);\
         INSERT INTO u VALUES (1, 1), (2, 3);",
    )
    .unwrap();
    let opt = |v: Option<Value>| v.unwrap_or(Value::Null);
    let rows: Vec<Vec<Value>> = (0..66usize)
        .map(|r| {
            vec![
                Value::Int(r as i64),
                Value::Int(r as i64 % 4),
                opt(BOOLS[r % BOOLS.len()].map(Value::Bool)),
                opt(INTS[r % INTS.len()].map(Value::Int)),
                opt(FLOATS[r % FLOATS.len()].map(Value::Float)),
                opt(TEXTS[r % TEXTS.len()].map(Value::text)),
            ]
        })
        .collect();
    conn.execute_batch("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", &rows)
        .unwrap();
    db
}

/// A comparison key: its SQL spelling as a literal (none for NaN, which
/// has no literal) and its value as a `?` parameter.
fn keys() -> Vec<(Option<&'static str>, Value)> {
    vec![
        (Some("TRUE"), Value::Bool(true)),
        (Some("FALSE"), Value::Bool(false)),
        (Some("-1"), Value::Int(-1)),
        (Some("0"), Value::Int(0)),
        (Some("1"), Value::Int(1)),
        (Some("3"), Value::Int(3)),
        (Some("9007199254740992"), Value::Int(9_007_199_254_740_992)),
        (Some("-1.5"), Value::Float(-1.5)),
        (Some("-0.0"), Value::Float(-0.0)),
        (Some("0.0"), Value::Float(0.0)),
        (Some("0.5"), Value::Float(0.5)),
        (Some("1.0"), Value::Float(1.0)),
        (
            Some("9007199254740992.0"),
            Value::Float(9_007_199_254_740_992.0),
        ),
        (None, Value::Float(f64::NAN)),
        (Some("''"), Value::text("")),
        (Some("'a'"), Value::text("a")),
        (Some("'ab'"), Value::text("ab")),
        (Some("'B'"), Value::text("B")),
        (Some("NULL"), Value::Null),
    ]
}

const COLUMNS: [&str; 4] = ["b", "i", "f", "s"];
const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// One conjunct: `col op key` or, flipped, `key op' col`, with the key
/// inline or as the next `?` parameter.
fn conjunct(col: &str, op: &str, key: &str, flipped: bool) -> String {
    if flipped {
        let op = match op {
            "<" => ">",
            "<=" => ">=",
            ">" => "<",
            ">=" => "<=",
            same => same,
        };
        format!("{key} {op} {col}")
    } else {
        format!("{col} {op} {key}")
    }
}

fn interpreted(conn: &Connection, sql: &str, params: &[Value]) -> SqlResult<StatementResult> {
    conn.execute_ast(&parse_statement(sql).unwrap(), params)
}

/// Rows or row count, or the error class: what must agree.
fn outcome(r: SqlResult<StatementResult>) -> Result<StatementResult, &'static str> {
    r.map_err(|e| e.class())
}

fn same(
    a: &Result<StatementResult, &'static str>,
    b: &Result<StatementResult, &'static str>,
) -> bool {
    match (a, b) {
        (Ok(StatementResult::Rows(x)), Ok(StatementResult::Rows(y))) => x.rows == y.rows,
        (Ok(StatementResult::Affected(x)), Ok(StatementResult::Affected(y))) => x == y,
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Run the WHERE clause `cond` through every kernel site, compiled and
/// interpreted, and require equal outcomes.
fn check_everywhere(conn: &Connection, cond: &str, params: &[Value]) {
    let statements = [
        format!("SELECT id FROM t WHERE {cond}"),
        format!("SELECT g, COUNT(*), SUM(i), MIN(f), MAX(s) FROM t WHERE {cond} GROUP BY g"),
        format!("SELECT id, f FROM t WHERE {cond} LIMIT 7"),
        format!("SELECT t.id, u.uid FROM t JOIN u ON t.g = u.ug WHERE {cond}"),
        format!("SELECT u.uid, t.id FROM u JOIN t ON u.ug = t.g WHERE {cond}"),
        format!("UPDATE t SET g = g WHERE {cond}"),
    ];
    for sql in &statements {
        let want = outcome(interpreted(conn, sql, params));
        // The first run binds the plan, the second runs the cached one.
        for run in 0..2 {
            let got = outcome(conn.execute(sql, params));
            assert!(
                same(&got, &want),
                "{sql} {params:?} (run {run}): compiled {got:?}, interpreted {want:?}"
            );
        }
    }
    // DELETE in a transaction rolled back, so `t` stays as it is.
    let sql = format!("DELETE FROM t WHERE {cond}");
    let mut counts = Vec::new();
    for compiled in [true, false] {
        conn.execute("BEGIN", &[]).unwrap();
        counts.push(outcome(if compiled {
            conn.execute(&sql, params)
        } else {
            interpreted(conn, &sql, params)
        }));
        conn.execute("ROLLBACK", &[]).unwrap();
    }
    assert!(
        same(&counts[0], &counts[1]),
        "{sql} {params:?}: compiled {:?}, interpreted {:?}",
        counts[0],
        counts[1]
    );
}

/// Each op against each key, inline and as a parameter, on each column.
#[test]
fn every_op_key_and_column_matches_the_interpreter() {
    let db = database();
    let conn = db.connect();
    let before = db.snapshot();
    for (n, (col, op)) in COLUMNS
        .iter()
        .flat_map(|c| OPS.iter().map(move |o| (*c, *o)))
        .enumerate()
    {
        for (k, (literal, value)) in keys().into_iter().enumerate() {
            let flipped = (n + k) % 2 == 1;
            if let Some(lit) = literal {
                check_everywhere(&conn, &conjunct(col, op, lit, flipped), &[]);
            }
            check_everywhere(&conn, &conjunct(col, op, "?", !flipped), &[value]);
        }
    }
    let after = db.snapshot();
    // Every site ran compiled at least once.
    assert!(after.plan_binds > before.plan_binds);
    assert!(after.hash_aggs > before.hash_aggs);
    assert!(after.limit_pushdowns > before.limit_pushdowns);
    assert!(after.pushed_predicates > before.pushed_predicates);
    assert!(after.hash_joins > before.hash_joins);
    assert!(after.index_nl_joins > before.index_nl_joins);
}

/// `CHAOS_SEED`, when set, shifts the corpus seed; unset, it is fixed.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

/// AND-chains of two or three conjuncts: the first writes the selection
/// vector, the later ones compact it.
#[test]
fn random_conjunct_chains_match_the_interpreter() {
    let db = database();
    let conn = db.connect();
    let keys = keys();
    let mut rng = SplitMix64::new(0xC0FFEE ^ chaos_seed());
    for _ in 0..150 {
        let mut conjuncts = Vec::new();
        let mut params = Vec::new();
        for _ in 0..2 + rng.next_below(2) {
            let col = COLUMNS[rng.next_below(COLUMNS.len() as u64) as usize];
            let op = OPS[rng.next_below(OPS.len() as u64) as usize];
            let (literal, value) = &keys[rng.next_below(keys.len() as u64) as usize];
            let flipped = rng.next_below(2) == 1;
            match literal {
                Some(lit) if rng.next_below(2) == 0 => {
                    conjuncts.push(conjunct(col, op, lit, flipped));
                }
                _ => {
                    conjuncts.push(conjunct(col, op, "?", flipped));
                    params.push(value.clone());
                }
            }
        }
        check_everywhere(&conn, &conjuncts.join(" AND "), &params);
    }
}

/// A statement's rows, or its error class.
type Rows = Result<Vec<Vec<Value>>, &'static str>;

/// Integer SUM is exact and fails beyond `i64` as integer `+` does,
/// grouped and ungrouped, through every aggregate path of both
/// executors; a float makes the sum a float. Aggregate errors surface
/// group-major, then spec-major.
#[test]
fn integer_sum_is_exact_in_both_executors() {
    let db = Database::new("exact_sum");
    let conn = db.connect();
    conn.execute_script(
        "CREATE TABLE n (id INT PRIMARY KEY, g INT, h INT, v INT, x FLOAT, w TEXT);\
         CREATE INDEX n_g ON n (g);",
    )
    .unwrap();
    // `g` and `h` hold the same group number; only `g` is indexed, so a
    // filter on `h` scans in full (the streamed aggregate when grouped).
    let two53 = 9_007_199_254_740_992i64;
    let rows = [
        // Group 1: 2^53 + 1, which an f64 total reads as 2^53.
        (1, two53, "NULL"),
        (1, 1, "'w'"),
        // Group 2: i64::MAX + 1, beyond i64.
        (2, i64::MAX, "NULL"),
        (2, 1, "NULL"),
        // Group 3: i64::MAX + 1 - 1 = i64::MAX, in range again.
        (3, i64::MAX, "NULL"),
        (3, 1, "NULL"),
        (3, -1, "NULL"),
        // Group 4: i64::MIN - 1, beyond i64 below.
        (4, i64::MIN, "NULL"),
        (4, -1, "NULL"),
    ];
    for (id, (g, v, w)) in rows.iter().enumerate() {
        conn.execute(
            &format!("INSERT INTO n VALUES ({id}, {g}, {g}, ?, 0.5, {w})"),
            &[Value::Int(*v)],
        )
        .unwrap();
    }
    let int = |v: i64| Ok(vec![vec![Value::Int(v)]]);
    let overflow = Err("runtime");
    let cases: Vec<(&str, Rows)> = vec![
        // Ungrouped: a full scan, an index probe, a computed argument,
        // DISTINCT, and a column folded beside a DISTINCT spec.
        ("SELECT SUM(v) FROM n WHERE h = 1", int(two53 + 1)),
        ("SELECT SUM(v) FROM n WHERE g = 1", int(two53 + 1)),
        ("SELECT SUM(v) FROM n WHERE h = 3", int(i64::MAX)),
        ("SELECT SUM(v) FROM n WHERE h = 2", overflow.clone()),
        ("SELECT SUM(v) FROM n WHERE g = 4", overflow.clone()),
        ("SELECT SUM(v + 0) FROM n WHERE h = 1", int(two53 + 1)),
        (
            "SELECT SUM(DISTINCT v) FROM n WHERE h = 2",
            overflow.clone(),
        ),
        (
            "SELECT SUM(v), COUNT(DISTINCT v) FROM n WHERE h = 1",
            Ok(vec![vec![Value::Int(two53 + 1), Value::Int(2)]]),
        ),
        // Groups 2 to 4 leave i64 and come back: the total fits.
        ("SELECT SUM(v) FROM n WHERE h >= 2", int(i64::MAX - 1)),
        (
            "SELECT AVG(v) FROM n WHERE h = 2",
            Ok(vec![vec![Value::Float(i64::MAX as f64 / 2.0)]]),
        ),
        // A float makes the sum a float total in arrival order.
        (
            "SELECT SUM(v + x) FROM n WHERE h = 1",
            Ok(vec![vec![Value::Float(two53 as f64 + 0.5 + 1.5)]]),
        ),
        // Grouped: the streamed aggregate, an index walk, a computed
        // argument and a DISTINCT spec beside the column fold.
        (
            "SELECT h, SUM(v) FROM n WHERE h <> 2 AND h <> 4 GROUP BY h",
            Ok(vec![
                vec![Value::Int(1), Value::Int(two53 + 1)],
                vec![Value::Int(3), Value::Int(i64::MAX)],
            ]),
        ),
        (
            "SELECT g, SUM(v) FROM n WHERE g <= 1 GROUP BY g",
            Ok(vec![vec![Value::Int(1), Value::Int(two53 + 1)]]),
        ),
        ("SELECT h, SUM(v) FROM n GROUP BY h", overflow.clone()),
        (
            "SELECT g, SUM(v) FROM n WHERE g >= 3 GROUP BY g",
            overflow.clone(),
        ),
        ("SELECT h, SUM(v + 0) FROM n GROUP BY h", overflow.clone()),
        (
            "SELECT h, SUM(v), COUNT(DISTINCT v) FROM n GROUP BY h",
            overflow.clone(),
        ),
        (
            "SELECT h, SUM(v) FROM n WHERE h > 2 GROUP BY h HAVING h = 3",
            overflow.clone(),
        ),
        // Group-major, spec-major: group 1's non-numeric SUM(w) comes
        // before group 2's overflow, whatever the spec order.
        (
            "SELECT h, SUM(v), SUM(w) FROM n GROUP BY h",
            Err("semantic"),
        ),
        (
            "SELECT h, SUM(w), SUM(v) FROM n GROUP BY h",
            Err("semantic"),
        ),
        (
            "SELECT h, SUM(w), SUM(v) FROM n WHERE h >= 2 GROUP BY h",
            overflow.clone(),
        ),
        (
            "SELECT h, SUM(v) FROM n WHERE h = 2 OR h = 3 GROUP BY h ORDER BY h",
            overflow,
        ),
    ];
    for (sql, want) in cases {
        let rows = |r: SqlResult<StatementResult>| match r {
            Ok(StatementResult::Rows(rs)) => Ok(rs.rows),
            Ok(other) => panic!("{sql}: not a row set: {other:?}"),
            Err(e) => Err(e.class()),
        };
        assert_eq!(
            rows(interpreted(&conn, sql, &[])),
            want,
            "{sql}: interpreted"
        );
        for run in 0..2 {
            assert_eq!(
                rows(conn.execute(sql, &[])),
                want,
                "{sql}: compiled, run {run}"
            );
        }
    }
}
