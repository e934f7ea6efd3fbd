//! The grouping kernel against the naive interpreter.
//!
//! Every compiled GROUP BY assigns groups through one kernel: hash each
//! key of a batch, give each key a group id through one open-addressing
//! table (new groups in row order), then fold each aggregate over the
//! batch's ids. These tests run grouped statements through every loop
//! that uses it — the streamed aggregate, the staged single-column loop
//! (an index walk, a WHERE that does not flatten, and DISTINCT or
//! computed arguments), the staged multi-column loop, a computed key and
//! a join input — and require the interpreter's rows in the
//! interpreter's order (no ORDER BY), or its error class.
//!
//! The data spans several batches and thousands of groups, so the table
//! grows several times; text keys of every length 0..=24, pairs that
//! differ in one byte only (`abcdXefgh` / `abcdYefgh`) and multi-byte
//! UTF-8; float keys 0.0, -0.0, NaN, -NaN and ±inf; equal Int and Float
//! keys from one `CASE`; NULL keys; and float values whose SUM depends
//! on the order they are added in.
//!
//! `CHAOS_SEED`, when set, shifts the seed of the random keys and
//! values; unset, the data is fixed.

use sqlkernel::parser::parse_statement;
use sqlkernel::{Connection, Database, SplitMix64, SqlResult, StatementResult, Value};

const ROWS: usize = 6_000;
/// Distinct `k` values: the first `KEYS` rows take each once.
const KEYS: usize = 2_400;

/// `CHAOS_SEED`, when set, shifts the data seed; unset, it is fixed.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

/// Text keys: for each length 0..=24 a base text and every variant of it
/// with one byte replaced, some multi-byte texts, then random texts over
/// a two-letter alphabet, so many share long prefixes and suffixes;
/// `KEYS` texts, all different.
fn texts(rng: &mut SplitMix64) -> Vec<String> {
    let mut out = Vec::new();
    for len in 0..=24usize {
        let base: Vec<u8> = (0..len).map(|i| b"abcdefghijklmnopqrstuvwxy"[i]).collect();
        out.push(String::from_utf8(base.clone()).unwrap());
        for p in 0..len {
            for sub in [b'X', b'Y'] {
                let mut v = base.clone();
                v[p] = sub;
                out.push(String::from_utf8(v).unwrap());
            }
        }
    }
    out.extend(
        [
            "abcdXefgh",
            "abcdYefgh",
            "é",
            "ée",
            "éé",
            "日本語",
            "日本語テキスト",
        ]
        .map(String::from),
    );
    while out.len() < KEYS {
        let len = rng.next_below(25) as usize;
        let t: String = (0..len)
            .map(|_| if rng.next_below(2) == 0 { 'a' } else { 'b' })
            .collect();
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    -1.0,
    2.5,
    1e300,
    5e-324,
    9_007_199_254_740_992.0,
    -0.5,
];
/// Summands whose float total depends on the order they come in.
const SUMMANDS: [f64; 7] = [1e16, -1e16, 1.0, 0.1, 3.3, -2.7, 1e-3];

/// `g` holds `ROWS` rows, `k` indexed; `u` holds one join partner for
/// every third `k`.
fn database() -> Database {
    let db = Database::new("group_kernels");
    let conn = db.connect();
    conn.execute_script(
        "CREATE TABLE g (id INT PRIMARY KEY, k INT, f FLOAT, s TEXT, q INT, x FLOAT);\
         CREATE INDEX g_k ON g (k);\
         CREATE TABLE u (uk INT PRIMARY KEY, w INT);",
    )
    .unwrap();
    let mut rng = SplitMix64::new(0x6E0C_4B1D ^ chaos_seed());
    let texts = texts(&mut rng);
    let mut pick = |n: usize| rng.next_below(n as u64) as usize;
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            let null = |every: usize, v: Value| {
                if i % every == every - 1 {
                    Value::Null
                } else {
                    v
                }
            };
            // Each of the first `KEYS` rows takes a different key (1031
            // is prime to `KEYS`); later rows repeat random ones.
            let slot = if i < KEYS {
                i * 1031 % KEYS
            } else {
                pick(KEYS)
            };
            let f = match pick(3) {
                0 => FLOATS[pick(FLOATS.len())],
                1 => -f64::NAN,
                _ => pick(40) as f64 / 4.0,
            };
            vec![
                Value::Int(i as i64),
                null(53, Value::Int(slot as i64)),
                null(29, Value::Float(f)),
                null(31, Value::text(&texts[slot])),
                null(17, Value::Int(pick(100) as i64 - 50)),
                null(19, Value::Float(SUMMANDS[pick(SUMMANDS.len())])),
            ]
        })
        .collect();
    conn.execute_batch("INSERT INTO g VALUES (?, ?, ?, ?, ?, ?)", &rows)
        .unwrap();
    let partners: Vec<Vec<Value>> = (0..KEYS as i64)
        .step_by(3)
        .map(|k| vec![Value::Int(k), Value::Int(k % 7)])
        .collect();
    conn.execute_batch("INSERT INTO u VALUES (?, ?)", &partners)
        .unwrap();
    db
}

/// A cell as its variant and exact bits: `Value`'s `==` would call
/// `Int(1)` and `Float(1.0)` one value, and Debug prints every NaN alike.
fn exact(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Bool(b) => format!("B{b}"),
        Value::Int(i) => format!("I{i}"),
        Value::Float(f) => format!("F{:016x}", f.to_bits()),
        Value::Text(s) => format!("T{s:?}"),
    }
}

/// Rows as exact cells, in order, or the error class: what must agree.
type Outcome = Result<Vec<Vec<String>>, &'static str>;

fn outcome(r: SqlResult<StatementResult>) -> Outcome {
    match r.map_err(|e| e.class())? {
        StatementResult::Rows(q) => Ok(q
            .rows
            .iter()
            .map(|r| r.iter().map(exact).collect())
            .collect()),
        other => panic!("a query returns rows, got {other:?}"),
    }
}

/// Where two outcomes part: the first row that differs, or the errors.
fn difference(got: &Outcome, want: &Outcome) -> String {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            let i = (0..g.len().max(w.len()))
                .find(|&i| g.get(i) != w.get(i))
                .unwrap_or(0);
            format!(
                "{} vs {} rows; row {i}: compiled {:?}, interpreted {:?}",
                g.len(),
                w.len(),
                g.get(i),
                w.get(i)
            )
        }
        _ => format!(
            "compiled error {:?}, interpreted error {:?}",
            got.as_ref().err(),
            want.as_ref().err()
        ),
    }
}

/// Run `sql` compiled (binding the plan, then from the cache) and
/// interpreted, and require equal outcomes. Returns the row count.
fn check(conn: &Connection, sql: &str, params: &[Value]) -> usize {
    let want = outcome(conn.execute_ast(&parse_statement(sql).unwrap(), params));
    for run in 0..2 {
        let got = outcome(conn.execute(sql, params));
        assert!(
            got == want,
            "{sql} {params:?} (run {run}): {}",
            difference(&got, &want)
        );
    }
    want.map_or(0, |rows| rows.len())
}

/// Aggregates over every kind of argument column, all of which fold
/// inline (so a stored-column key streams).
const AGGS: &str =
    "COUNT(*), COUNT(q), SUM(q), SUM(x), AVG(x), MIN(x), MAX(x), MIN(s), MAX(f), AVG(q)";

/// One stored-column key over a full scan with no WHERE or a WHERE of
/// column comparisons: the streamed aggregate.
#[test]
fn streamed_keys_match_the_interpreter() {
    let db = database();
    let conn = db.connect();
    let before = db.snapshot();
    for key in ["s", "f", "k", "x", "q"] {
        let groups = check(
            &conn,
            &format!("SELECT {key}, {AGGS} FROM g GROUP BY {key}"),
            &[],
        );
        if key == "s" || key == "k" {
            assert!(groups > 2_000, "{key}: {groups} groups");
        }
        check(
            &conn,
            &format!("SELECT {AGGS}, {key} FROM g WHERE q > ? GROUP BY {key}"),
            &[Value::Int(-20)],
        );
        check(
            &conn,
            &format!("SELECT {key}, SUM(x) FROM g WHERE x <> 1.0 AND q <= 30 GROUP BY {key}"),
            &[],
        );
    }
    let after = db.snapshot();
    assert_eq!(after.index_scans, before.index_scans);
    assert_eq!(after.range_scans, before.range_scans);
    assert!(after.hash_aggs > before.hash_aggs);
}

/// One stored-column key through the staged loop: an index walk, a WHERE
/// that does not flatten, and aggregates that keep member lists
/// (DISTINCT, computed arguments).
#[test]
fn staged_single_column_keys_match_the_interpreter() {
    let db = database();
    let conn = db.connect();
    let before = db.snapshot();
    for key in ["s", "f", "k"] {
        check(
            &conn,
            &format!("SELECT {key}, {AGGS} FROM g WHERE k >= ? GROUP BY {key}"),
            &[Value::Int(100)],
        );
        check(
            &conn,
            &format!("SELECT {key}, {AGGS} FROM g WHERE q > 10 OR x < 0.0 GROUP BY {key}"),
            &[],
        );
        check(
            &conn,
            &format!(
                "SELECT {key}, COUNT(DISTINCT q), SUM(DISTINCT x), SUM(q + 1), MIN(x * 2.0), COUNT(*) \
                 FROM g GROUP BY {key}"
            ),
            &[],
        );
    }
    // Errors at finalization, in group-major then spec-major order.
    check(&conn, "SELECT f, SUM(s) FROM g GROUP BY f", &[]);
    check(
        &conn,
        "SELECT s, COUNT(*), AVG(s), SUM(f) FROM g WHERE q > 10 OR q < -10 GROUP BY s",
        &[],
    );
    let after = db.snapshot();
    assert!(after.range_scans > before.range_scans, "the index walk ran");
}

/// Keys of several columns, and computed keys: evaluated per row, then
/// grouped.
#[test]
fn multi_column_and_computed_keys_match_the_interpreter() {
    let db = database();
    let conn = db.connect();
    for keys in ["s, f", "f, s", "k, s", "f, k, s", "q, f", "s, s"] {
        check(
            &conn,
            &format!("SELECT {keys}, {AGGS} FROM g GROUP BY {keys}"),
            &[],
        );
        check(
            &conn,
            &format!("SELECT {AGGS} FROM g WHERE q > 10 OR f < 1.0 GROUP BY {keys}"),
            &[],
        );
        check(
            &conn,
            &format!("SELECT {keys}, COUNT(DISTINCT s), SUM(x * 1.0) FROM g GROUP BY {keys}"),
            &[],
        );
    }
    // Equal Int and Float keys land in one group, whose key reads as its
    // first row's.
    let mixed = "CASE WHEN id % 2 = 0 THEN k ELSE k * 1.0 END";
    let groups = check(
        &conn,
        &format!("SELECT {mixed}, {AGGS} FROM g GROUP BY {mixed}"),
        &[],
    );
    assert!(groups > 2_000 && groups <= KEYS + 1, "{groups} groups");
    check(
        &conn,
        &format!("SELECT {mixed}, s, SUM(x) FROM g GROUP BY {mixed}, s"),
        &[],
    );
    let zero = "CASE WHEN id % 3 = 0 THEN 0 WHEN id % 3 = 1 THEN 0.0 ELSE -0.0 END";
    assert_eq!(
        check(
            &conn,
            &format!("SELECT {zero}, COUNT(*), SUM(x) FROM g GROUP BY {zero}"),
            &[]
        ),
        2
    );
    for key in ["s || ''", "q % 7", "f * 1.0", "x + 0.0"] {
        check(
            &conn,
            &format!("SELECT {key}, {AGGS} FROM g GROUP BY {key}"),
            &[],
        );
    }
    // A key expression that fails on one row fails both executors.
    check(
        &conn,
        "SELECT COUNT(*) FROM g GROUP BY k / (id - 3000)",
        &[],
    );
    check(
        &conn,
        "SELECT COUNT(*) FROM g GROUP BY s, 1 / (id - 4500)",
        &[],
    );
}

/// Grouping over the rows a join produced.
#[test]
fn joined_input_matches_the_interpreter() {
    let db = database();
    let conn = db.connect();
    let before = db.snapshot();
    for keys in ["g.s", "g.f", "u.w", "u.w, g.f", "g.s, u.uk"] {
        check(
            &conn,
            &format!("SELECT {keys}, COUNT(*), SUM(g.x), MIN(g.s), AVG(g.q) FROM g JOIN u ON g.k = u.uk GROUP BY {keys}"),
            &[],
        );
        check(
            &conn,
            &format!("SELECT {keys}, COUNT(DISTINCT g.q) FROM u JOIN g ON u.uk = g.k WHERE g.q > 0 GROUP BY {keys}"),
            &[],
        );
    }
    let after = db.snapshot();
    assert!(after.hash_joins + after.index_nl_joins > before.hash_joins + before.index_nl_joins);
}
