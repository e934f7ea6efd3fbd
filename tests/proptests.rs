//! Property-based tests over the workspace's core invariants.
//!
//! Self-contained randomized testing: a deterministic SplitMix64 PRNG
//! drives the generators, so every run exercises the same cases (no
//! external property-testing crate required — the workspace builds
//! hermetically). Each test runs `CASES` generated inputs and reports
//! the case index on failure so a seed can be replayed exactly. Setting
//! `CHAOS_SEED` XORs it into every case seed, so a seed rotation explores
//! fresh cases; unset, every run replays the same ones.

use flowsql::sqlkernel::{DataType, Database, QueryResult, Value};
use flowsql::wf::{DataAdapter, DataTable};
use flowsql::xmlval::{self, rowset, Path, XmlNode};

const CASES: u64 = 64;
const HEAVY_CASES: u64 = 32;

// ---------------------------------------------------------------- PRNG

/// `CHAOS_SEED` if set, else 0 (which leaves every case seed as written).
fn chaos_seed() -> u64 {
    static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    })
}

struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng {
            state: seed ^ chaos_seed(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform usize in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform i64 in `[lo, hi)`.
    fn irange(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

// ---------------------------------------------------------------- generators

/// A random SQL value: NULL, bool, full-range int, bounded float, or a
/// short printable-ASCII string (including quotes/brackets).
fn gen_value(rng: &mut Rng) -> Value {
    match rng.range(0, 5) {
        0 => Value::Null,
        1 => Value::Bool(rng.bool()),
        2 => Value::Int(rng.next_u64() as i64),
        3 => Value::Float((rng.f64() - 0.5) * 2.0e12),
        _ => {
            let len = rng.range(0, 25);
            Value::Text(
                (0..len)
                    .map(|_| (0x20 + rng.range(0, 0x7F - 0x20) as u8) as char)
                    .collect(),
            )
        }
    }
}

fn gen_ident(rng: &mut Rng) -> String {
    const FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_";
    let mut s = String::new();
    s.push(FIRST[rng.range(0, FIRST.len())] as char);
    for _ in 0..rng.range(0, 9) {
        s.push(REST[rng.range(0, REST.len())] as char);
    }
    s
}

/// A random query result: 1–4 columns with case-insensitively distinct
/// names, 0–7 rows of random values.
fn gen_result(rng: &mut Rng) -> QueryResult {
    let ncols = rng.range(1, 5);
    let mut columns: Vec<String> = Vec::new();
    while columns.len() < ncols {
        let c = gen_ident(rng);
        if !columns.iter().any(|e| e.eq_ignore_ascii_case(&c)) {
            columns.push(c);
        }
    }
    let rows = (0..rng.range(0, 8))
        .map(|_| (0..ncols).map(|_| gen_value(rng)).collect())
        .collect();
    QueryResult { columns, rows }
}

// ---------------------------------------------------------------- value laws

#[test]
fn total_cmp_is_total_and_antisymmetric() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x1001 ^ case);
        let a = gen_value(&mut rng);
        let b = gen_value(&mut rng);
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        assert_eq!(ab, ba.reverse(), "case {case}: {a:?} vs {b:?}");
    }
}

#[test]
fn total_cmp_is_transitive() {
    use std::cmp::Ordering::Greater;
    for case in 0..CASES {
        let mut rng = Rng::new(0x1002 ^ case);
        let mut v = [
            gen_value(&mut rng),
            gen_value(&mut rng),
            gen_value(&mut rng),
        ];
        v.sort_by(|x, y| x.total_cmp(y));
        // sorted order must be internally consistent
        assert_ne!(v[0].total_cmp(&v[1]), Greater, "case {case}");
        assert_ne!(v[1].total_cmp(&v[2]), Greater, "case {case}");
        assert_ne!(v[0].total_cmp(&v[2]), Greater, "case {case}");
    }
}

#[test]
fn equality_implies_equal_hashes() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    for case in 0..CASES * 4 {
        let mut rng = Rng::new(0x1003 ^ case);
        let a = gen_value(&mut rng);
        // Mix freshly generated values with clones so the equal branch
        // is actually exercised.
        let b = if case % 2 == 0 {
            a.clone()
        } else {
            gen_value(&mut rng)
        };
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            assert_eq!(ha.finish(), hb.finish(), "case {case}: {a:?}");
        }
    }
}

#[test]
fn sql_cmp_matches_total_cmp_for_non_null() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x1004 ^ case);
        let a = gen_value(&mut rng);
        let b = gen_value(&mut rng);
        if !a.is_null() && !b.is_null() {
            assert_eq!(a.sql_cmp(&b), Some(a.total_cmp(&b)), "case {case}");
        } else {
            assert_eq!(a.sql_cmp(&b), None, "case {case}");
        }
    }
}

#[test]
fn text_coercion_round_trips() {
    // Coercing to TEXT and back to the original type is lossless for
    // ints and bools (floats render with enough precision for the
    // ranges generated here).
    for case in 0..CASES {
        let mut rng = Rng::new(0x1005 ^ case);
        let v = gen_value(&mut rng);
        if let Some(ty) = v.data_type() {
            let as_text = v.coerce(DataType::Text).unwrap();
            if ty == DataType::Int || ty == DataType::Bool {
                assert_eq!(as_text.coerce(ty).unwrap(), v, "case {case}");
            }
        }
    }
}

#[test]
fn sql_literal_round_trips_through_parser() {
    // to_sql_literal must re-parse to an equal constant.
    for case in 0..CASES {
        let mut rng = Rng::new(0x1006 ^ case);
        let v = gen_value(&mut rng);
        let lit = v.to_sql_literal();
        let expr = flowsql::sqlkernel::parser::parse_expression(&lit).unwrap();
        let catalog = flowsql::sqlkernel::catalog::Catalog::new();
        let snap = flowsql::sqlkernel::storage::Snapshot::committed();
        let ctx = flowsql::sqlkernel::expr::EvalCtx::constant(&catalog, &snap, &[]);
        let back = flowsql::sqlkernel::expr::eval(&expr, &ctx).unwrap();
        match (&v, &back) {
            (Value::Float(a), Value::Float(b)) => {
                assert!((a - b).abs() <= a.abs() * 1e-12, "case {case}: {a} vs {b}")
            }
            _ => assert_eq!(&back, &v, "case {case}: literal {lit}"),
        }
    }
}

// ---------------------------------------------------------------- rowset codec

#[test]
fn rowset_round_trips() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x2001 ^ case);
        let rs = gen_result(&mut rng);
        let xml = rowset::encode(&rs);
        let back = rowset::decode(&xml).unwrap();
        assert_eq!(&back.columns, &rs.columns, "case {case}");
        assert_eq!(back.rows.len(), rs.rows.len(), "case {case}");
        for (a, b) in back.rows.iter().zip(&rs.rows) {
            for (x, y) in a.iter().zip(b) {
                match (x, y) {
                    (Value::Float(p), Value::Float(q)) => {
                        assert!((p - q).abs() <= q.abs() * 1e-12 + 1e-12, "case {case}")
                    }
                    _ => assert_eq!(x, y, "case {case}"),
                }
            }
        }
    }
}

#[test]
fn rowset_survives_serialization() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x2002 ^ case);
        let rs = gen_result(&mut rng);
        let text = rowset::encode(&rs).to_pretty_xml();
        let parsed = xmlval::parse(&text).unwrap();
        let back = rowset::decode(&XmlNode::Element(parsed)).unwrap();
        assert_eq!(back.rows.len(), rs.rows.len(), "case {case}");
        assert_eq!(&back.columns, &rs.columns, "case {case}");
    }
}

#[test]
fn row_count_consistent() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x2003 ^ case);
        let rs = gen_result(&mut rng);
        let xml = rowset::encode(&rs);
        assert_eq!(rowset::row_count(&xml), rs.rows.len(), "case {case}");
    }
}

// ---------------------------------------------------------------- dehydration codec

use flowsql::flowcore::persistence::{
    decode_breakers, decode_variables, encode_breakers, encode_variables,
};
use flowsql::flowcore::retry::BreakerSnapshot;
use flowsql::flowcore::{BreakerState, RetryRuntime, VarValue, Variables};

/// A short string over every ASCII byte plus multi-byte UTF-8, with the
/// bytes the dehydration frame must escape (`%`, space, `\n`, `\r`)
/// weighted up.
fn gen_codec_text(rng: &mut Rng) -> String {
    const SPECIAL: &[char] = &['%', ' ', '\n', '\r', '\t', '\u{7f}', 'ü', '€', '😀'];
    (0..rng.range(0, 12))
        .map(|_| match rng.range(0, 3) {
            0 => SPECIAL[rng.range(0, SPECIAL.len())],
            _ => char::from(rng.range(0, 0x80) as u8),
        })
        .collect()
}

/// Any dehydratable variable value.
fn gen_var_value(rng: &mut Rng) -> VarValue {
    // Quiet NaN, negative signalling NaN, -0.0, +inf.
    const FLOAT_BITS: [u64; 4] = [
        0x7FF8_0000_0000_0000,
        0xFFF0_0000_0000_0001,
        0x8000_0000_0000_0000,
        0x7FF0_0000_0000_0000,
    ];
    match rng.range(0, 9) {
        0 => VarValue::Null,
        1 => VarValue::Scalar(Value::Null),
        2 => VarValue::Scalar(Value::Bool(rng.bool())),
        3 => VarValue::Scalar(Value::Int(rng.next_u64() as i64)),
        4 => {
            let bits = if rng.bool() {
                FLOAT_BITS[rng.range(0, FLOAT_BITS.len())]
            } else {
                rng.next_u64()
            };
            VarValue::Scalar(Value::Float(f64::from_bits(bits)))
        }
        5 => VarValue::Scalar(Value::Text(gen_codec_text(rng))),
        6 => VarValue::Xml(XmlNode::Text(gen_codec_text(rng))),
        _ => VarValue::Xml(rowset::encode(&gen_result(rng))),
    }
}

/// `v` as it reads back after dehydration: an XML element goes through
/// the parser, which drops empty and whitespace-only text runs.
fn reparsed(v: &VarValue) -> VarValue {
    match v {
        VarValue::Xml(x @ XmlNode::Element(_)) => {
            VarValue::Xml(XmlNode::Element(xmlval::parse(&x.to_xml()).unwrap()))
        }
        other => other.clone(),
    }
}

/// Exact equality: same scalar type, floats by bit pattern.
fn same_var(a: &VarValue, b: &VarValue) -> bool {
    match (a, b) {
        (VarValue::Null, VarValue::Null) => true,
        (VarValue::Scalar(Value::Float(x)), VarValue::Scalar(Value::Float(y))) => {
            x.to_bits() == y.to_bits()
        }
        (VarValue::Scalar(x), VarValue::Scalar(y)) => {
            std::mem::discriminant(x) == std::mem::discriminant(y) && x == y
        }
        (VarValue::Xml(x), VarValue::Xml(y)) => x == y,
        _ => false,
    }
}

#[test]
fn dehydrated_variables_round_trip() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x9001 ^ case);
        let mut vars = Variables::new();
        for _ in 0..rng.range(0, 8) {
            let name = gen_codec_text(&mut rng);
            vars.set(name, gen_var_value(&mut rng));
        }
        let text = encode_variables(&vars).unwrap();
        let back = decode_variables(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back.names(), vars.names(), "case {case}");
        for name in vars.names() {
            let (want, got) = (reparsed(vars.get(name).unwrap()), back.get(name).unwrap());
            assert!(
                same_var(&want, got),
                "case {case}: {name:?}: {want:?} read back as {got:?}"
            );
        }
        // Once read back, decode→encode reproduces the text exactly.
        let again = encode_variables(&back).unwrap();
        let third = encode_variables(&decode_variables(&again).unwrap()).unwrap();
        assert_eq!(third, again, "case {case}");
    }
}

#[test]
fn dehydrated_breakers_round_trip() {
    const STATES: [BreakerState; 3] = [
        BreakerState::Closed,
        BreakerState::Open,
        BreakerState::HalfOpen,
    ];
    for case in 0..CASES {
        let mut rng = Rng::new(0x9002 ^ case);
        let mut snaps: Vec<BreakerSnapshot> = (0..rng.range(0, 6))
            .map(|_| {
                (
                    gen_codec_text(&mut rng),
                    STATES[rng.range(0, STATES.len())],
                    rng.next_u64() as u32,
                    rng.next_u64(),
                )
            })
            .collect();
        snaps.sort_by(|a, b| a.0.cmp(&b.0));
        snaps.dedup_by(|a, b| a.0 == b.0);
        let mut rt = RetryRuntime::new(case);
        rt.restore_clock(rng.next_u64());
        rt.import_breakers(&snaps);
        let text = encode_breakers(&rt);
        let (clock, back) = decode_breakers(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!((clock, &back), (rt.now(), &snaps), "case {case}");
        let mut rt2 = RetryRuntime::new(case);
        rt2.restore_clock(clock);
        rt2.import_breakers(&back);
        assert_eq!(encode_breakers(&rt2), text, "case {case}");
    }
}

// ---------------------------------------------------------------- LIKE

fn gen_lower(rng: &mut Rng, lo: usize, hi: usize) -> String {
    (0..rng.range(lo, hi))
        .map(|_| (b'a' + rng.range(0, 26) as u8) as char)
        .collect()
}

#[test]
fn like_self_match() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x3001 ^ case);
        let s = gen_lower(&mut rng, 0, 13);
        assert!(
            flowsql::sqlkernel::expr::like_match(&s, &s),
            "case {case}: {s}"
        );
    }
}

#[test]
fn like_percent_prefix_suffix() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x3002 ^ case);
        let s = gen_lower(&mut rng, 0, 13);
        let pre = gen_lower(&mut rng, 0, 5);
        let suf = gen_lower(&mut rng, 0, 5);
        let full = format!("{pre}{s}{suf}");
        let pat = format!("%{s}%");
        assert!(
            flowsql::sqlkernel::expr::like_match(&full, &pat),
            "case {case}: {full} LIKE {pat}"
        );
        let pat2 = format!("{pre}%{suf}");
        assert!(
            flowsql::sqlkernel::expr::like_match(&full, &pat2),
            "case {case}: {full} LIKE {pat2}"
        );
    }
}

#[test]
fn like_underscore_matches_any_single() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x3003 ^ case);
        let s = gen_lower(&mut rng, 1, 13);
        let idx = rng.range(0, s.len());
        let mut pattern: Vec<char> = s.chars().collect();
        pattern[idx] = '_';
        let pattern: String = pattern.into_iter().collect();
        assert!(
            flowsql::sqlkernel::expr::like_match(&s, &pattern),
            "case {case}: {s} LIKE {pattern}"
        );
    }
}

// ---------------------------------------------------------------- DataSet model

// Model-based test: a random operation sequence applied to both a
// `DataTable` and a plain vector model must agree — and after
// `DataAdapter::update`, the backing SQL table must equal the model too.
#[test]
fn dataset_agrees_with_model_and_adapter_syncs() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0x4001 ^ case);
        let db = Database::new("m");
        let conn = db.connect();
        conn.execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT);
             INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40);",
        )
        .unwrap();
        let rs = conn.query("SELECT id, v FROM t ORDER BY id", &[]).unwrap();
        let mut table = DataTable::from_result("t", &rs);
        table.set_key_columns(&["id"]).unwrap();
        let mut model: Vec<(i64, i64)> = vec![(1, 10), (2, 20), (3, 30), (4, 40)];
        let mut next_id = 100i64;

        for _ in 0..rng.range(0, 24) {
            let op = rng.range(0, 4);
            let pick = rng.range(0, 1 << 16);
            let val = rng.irange(i32::MIN as i64, i32::MAX as i64 + 1);
            match op {
                0 if !model.is_empty() => {
                    // update v of a random live row
                    let i = pick % model.len();
                    table.set_cell(i, "v", Value::Int(val)).unwrap();
                    model[i].1 = val;
                }
                1 if !model.is_empty() => {
                    // delete a random live row
                    let i = pick % model.len();
                    table.delete_row(i).unwrap();
                    model.remove(i);
                }
                2 => {
                    // append a new row
                    table
                        .add_row(vec![Value::Int(next_id), Value::Int(val)])
                        .unwrap();
                    model.push((next_id, val));
                    next_id += 1;
                }
                _ => {} // no-op
            }
            // Cache view matches the model at every step.
            let live: Vec<(i64, i64)> = table
                .live_rows()
                .map(|r| {
                    (
                        r.values()[0].as_i64().unwrap(),
                        r.values()[1].as_i64().unwrap(),
                    )
                })
                .collect();
            assert_eq!(&live, &model, "case {case}");
        }

        // Sync back and compare the database to the model.
        DataAdapter::update(&conn, &mut table, "t").unwrap();
        let mut want = model.clone();
        want.sort();
        let got: Vec<(i64, i64)> = conn
            .query("SELECT id, v FROM t ORDER BY id", &[])
            .unwrap()
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        assert_eq!(got, want, "case {case}");
        // And the cache is clean afterwards.
        assert!(table.changes().is_empty(), "case {case}");
    }
}

// ---------------------------------------------------------------- paths

#[test]
fn path_display_round_trips() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5001 ^ case);
        let names: Vec<String> = (0..rng.range(1, 4))
            .map(|_| {
                // letters/digits only (no underscore) as in the original
                let mut s = gen_lower(&mut rng, 1, 2);
                s.push_str(
                    &(0..rng.range(0, 7))
                        .map(|_| {
                            let c = rng.range(0, 36);
                            if c < 26 {
                                (b'a' + c as u8) as char
                            } else {
                                (b'0' + (c - 26) as u8) as char
                            }
                        })
                        .collect::<String>(),
                );
                s
            })
            .collect();
        let idx = if rng.bool() {
            Some(rng.range(1, 9))
        } else {
            None
        };
        let absolute = rng.bool();
        let mut src = String::new();
        if absolute {
            src.push('/');
        }
        src.push_str(&names.join("/"));
        if let Some(i) = idx {
            src.push_str(&format!("[{i}]"));
        }
        let p = Path::parse(&src).unwrap();
        let p2 = Path::parse(&p.to_string()).unwrap();
        assert_eq!(p, p2, "case {case}: {src}");
    }
}

#[test]
fn chains_and_elements_agree() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5002 ^ case);
        let nrows = rng.range(0, 8);
        let pick = rng.range(1, 9);
        let rs = QueryResult {
            columns: vec!["a".into()],
            rows: (0..nrows).map(|i| vec![Value::Int(i as i64)]).collect(),
        };
        let xml = rowset::encode(&rs);
        let root = xml.as_element().unwrap();
        for src in [
            "/RowSet/Row".to_string(),
            format!("/RowSet/Row[{pick}]"),
            format!("/RowSet/Row[{pick}]/a"),
            "/RowSet/*/a".to_string(),
        ] {
            let p = Path::parse(&src).unwrap();
            let elements = p.select_elements(root);
            let chains = p.select_chains(root).unwrap();
            assert_eq!(elements.len(), chains.len(), "case {case}: {src}");
            for (el, chain) in elements.iter().zip(&chains) {
                let via_chain = xmlval::path::element_by_chain(root, chain).unwrap();
                assert_eq!(*el, via_chain, "case {case}: {src}");
            }
        }
    }
}

// ---------------------------------------------------------------- transactions

// Any sequence of DML inside BEGIN…ROLLBACK leaves the table exactly
// as it was (transaction atomicity over the undo log).
#[test]
fn rollback_restores_exact_state() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0x6001 ^ case);
        let db = Database::new("txn");
        let conn = db.connect();
        conn.execute_script(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT);
             INSERT INTO t VALUES (1, 1), (2, 2), (3, 3);",
        )
        .unwrap();
        let before = conn.query("SELECT * FROM t ORDER BY id", &[]).unwrap();

        conn.execute("BEGIN", &[]).unwrap();
        let mut next = 1000i64;
        for _ in 0..rng.range(1, 16) {
            let op = rng.range(0, 3);
            let pick = rng.range(0, 256) as i64;
            let val = rng.irange(i16::MIN as i64, i16::MAX as i64 + 1);
            let r = match op {
                0 => {
                    next += 1;
                    conn.execute(
                        "INSERT INTO t VALUES (?, ?)",
                        &[Value::Int(next), Value::Int(val)],
                    )
                }
                1 => conn.execute(
                    "UPDATE t SET v = ? WHERE id % 3 = ?",
                    &[Value::Int(val), Value::Int(pick % 3)],
                ),
                _ => conn.execute("DELETE FROM t WHERE id % 5 = ?", &[Value::Int(pick % 5)]),
            };
            assert!(r.is_ok(), "case {case}");
        }
        conn.execute("ROLLBACK", &[]).unwrap();

        let after = conn.query("SELECT * FROM t ORDER BY id", &[]).unwrap();
        assert_eq!(before, after, "case {case}");
    }
}

// ORDER BY produces rows sorted under the engine's total order.
#[test]
fn order_by_sorts() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0x6002 ^ case);
        let values: Vec<Value> = (0..rng.range(0, 20)).map(|_| gen_value(&mut rng)).collect();
        let db = Database::new("sort");
        let conn = db.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)", &[])
            .unwrap();
        for (i, v) in values.iter().enumerate() {
            let as_text = match v {
                Value::Null => Value::Null,
                other => other.coerce(DataType::Text).unwrap(),
            };
            conn.execute(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i as i64), as_text],
            )
            .unwrap();
        }
        let rs = conn.query("SELECT v FROM t ORDER BY v", &[]).unwrap();
        for w in rs.rows.windows(2) {
            assert_ne!(
                w[0][0].total_cmp(&w[1][0]),
                std::cmp::Ordering::Greater,
                "case {case}"
            );
        }
        assert_eq!(rs.rows.len(), values.len(), "case {case}");
    }
}

// ---------------------------------------------------------------- executor vs model

// The SQL executor compared against a hand-rolled reference model on
// random data: filtering with three-valued logic, grouped aggregation,
// DISTINCT, and UNION semantics.
#[test]
fn where_filter_matches_model() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0x7001 ^ case);
        let rows: Vec<Option<i64>> = (0..rng.range(0, 30))
            .map(|_| {
                if rng.range(0, 4) == 0 {
                    None
                } else {
                    Some(rng.irange(-5, 15))
                }
            })
            .collect();
        let threshold = rng.irange(-5, 15);
        let db = Database::new("model1");
        let conn = db.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        for (i, v) in rows.iter().enumerate() {
            conn.execute(
                "INSERT INTO t VALUES (?, ?)",
                &[
                    Value::Int(i as i64),
                    v.map(Value::Int).unwrap_or(Value::Null),
                ],
            )
            .unwrap();
        }
        let got = conn
            .query(
                "SELECT id FROM t WHERE v > ? ORDER BY id",
                &[Value::Int(threshold)],
            )
            .unwrap();
        // Model: NULL comparisons are unknown → row dropped.
        let want: Vec<i64> = rows
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_some_and(|x| x > threshold))
            .map(|(i, _)| i as i64)
            .collect();
        let got_ids: Vec<i64> = got.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(got_ids, want, "case {case}");
    }
}

#[test]
fn group_by_sum_matches_model() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0x7002 ^ case);
        let rows: Vec<(i64, i64)> = (0..rng.range(0, 40))
            .map(|_| (rng.irange(0, 5), rng.irange(-100, 100)))
            .collect();
        let db = Database::new("model2");
        let conn = db.connect();
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT)", &[])
            .unwrap();
        for (i, (g, v)) in rows.iter().enumerate() {
            conn.execute(
                "INSERT INTO t VALUES (?, ?, ?)",
                &[Value::Int(i as i64), Value::Int(*g), Value::Int(*v)],
            )
            .unwrap();
        }
        let got = conn
            .query(
                "SELECT grp, SUM(v), COUNT(*) FROM t GROUP BY grp ORDER BY grp",
                &[],
            )
            .unwrap();
        let mut model: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for (g, v) in &rows {
            let e = model.entry(*g).or_insert((0, 0));
            e.0 += v;
            e.1 += 1;
        }
        assert_eq!(got.rows.len(), model.len(), "case {case}");
        for row in &got.rows {
            let g = row[0].as_i64().unwrap();
            let (sum, count) = model[&g];
            assert_eq!(row[1].as_i64().unwrap(), sum, "case {case}");
            assert_eq!(row[2].as_i64().unwrap(), count, "case {case}");
        }
    }
}

#[test]
fn distinct_and_union_match_model() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0x7003 ^ case);
        let left: Vec<i64> = (0..rng.range(0, 20)).map(|_| rng.irange(0, 8)).collect();
        let right: Vec<i64> = (0..rng.range(0, 20)).map(|_| rng.irange(0, 8)).collect();
        let db = Database::new("model3");
        let conn = db.connect();
        conn.execute("CREATE TABLE a (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        conn.execute("CREATE TABLE b (id INT PRIMARY KEY, v INT)", &[])
            .unwrap();
        for (i, v) in left.iter().enumerate() {
            conn.execute(
                "INSERT INTO a VALUES (?, ?)",
                &[Value::Int(i as i64), Value::Int(*v)],
            )
            .unwrap();
        }
        for (i, v) in right.iter().enumerate() {
            conn.execute(
                "INSERT INTO b VALUES (?, ?)",
                &[Value::Int(i as i64), Value::Int(*v)],
            )
            .unwrap();
        }

        // DISTINCT = set semantics.
        let got = conn
            .query("SELECT DISTINCT v FROM a ORDER BY v", &[])
            .unwrap();
        let mut want: Vec<i64> = left.clone();
        want.sort_unstable();
        want.dedup();
        let got_vals: Vec<i64> = got.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(&got_vals, &want, "case {case}");

        // UNION dedupes across both arms; UNION ALL concatenates.
        let got = conn
            .query("SELECT v FROM a UNION SELECT v FROM b ORDER BY v", &[])
            .unwrap();
        let mut union_want: Vec<i64> = left.iter().chain(right.iter()).copied().collect();
        union_want.sort_unstable();
        union_want.dedup();
        let got_vals: Vec<i64> = got.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(&got_vals, &union_want, "case {case}");

        let got = conn
            .query("SELECT v FROM a UNION ALL SELECT v FROM b", &[])
            .unwrap();
        assert_eq!(got.rows.len(), left.len() + right.len(), "case {case}");
    }
}

#[test]
fn inner_join_matches_nested_loop_model() {
    for case in 0..HEAVY_CASES {
        let mut rng = Rng::new(0x7004 ^ case);
        let left: Vec<i64> = (0..rng.range(0, 12)).map(|_| rng.irange(0, 6)).collect();
        let right: Vec<i64> = (0..rng.range(0, 12)).map(|_| rng.irange(0, 6)).collect();
        let db = Database::new("model4");
        let conn = db.connect();
        conn.execute("CREATE TABLE l (id INT PRIMARY KEY, k INT)", &[])
            .unwrap();
        conn.execute("CREATE TABLE r (id INT PRIMARY KEY, k INT)", &[])
            .unwrap();
        for (i, v) in left.iter().enumerate() {
            conn.execute(
                "INSERT INTO l VALUES (?, ?)",
                &[Value::Int(i as i64), Value::Int(*v)],
            )
            .unwrap();
        }
        for (i, v) in right.iter().enumerate() {
            conn.execute(
                "INSERT INTO r VALUES (?, ?)",
                &[Value::Int(i as i64), Value::Int(*v)],
            )
            .unwrap();
        }
        let got = conn
            .query("SELECT COUNT(*) FROM l JOIN r ON l.k = r.k", &[])
            .unwrap();
        let want: usize = left
            .iter()
            .map(|lk| right.iter().filter(|rk| *rk == lk).count())
            .sum();
        assert_eq!(
            got.single_value().unwrap().as_i64().unwrap(),
            want as i64,
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------- WAL codec

use flowsql::sqlkernel::wal::{self, WalOp, WalRecord};
use flowsql::sqlkernel::{Column, TableSchema};

fn gen_row(rng: &mut Rng) -> Vec<Value> {
    (0..rng.range(0, 5)).map(|_| gen_value(rng)).collect()
}

fn gen_wal_op(rng: &mut Rng) -> WalOp {
    match rng.range(0, 6) {
        0 => WalOp::Insert {
            table: gen_ident(rng),
            row_id: rng.next_u64(),
            after: gen_row(rng),
        },
        1 => WalOp::Update {
            table: gen_ident(rng),
            row_id: rng.next_u64(),
            before: gen_row(rng),
            after: gen_row(rng),
        },
        2 => WalOp::Delete {
            table: gen_ident(rng),
            row_id: rng.next_u64(),
            before: gen_row(rng),
        },
        3 => {
            let types = [
                DataType::Int,
                DataType::Float,
                DataType::Text,
                DataType::Bool,
            ];
            let cols = (0..rng.range(1, 5))
                .map(|i| {
                    let mut c = Column::new(
                        format!("c{i}_{}", gen_ident(rng)),
                        types[rng.range(0, types.len())],
                    );
                    c.not_null = rng.bool();
                    c
                })
                .collect();
            WalOp::CreateTable {
                schema: TableSchema::new(gen_ident(rng), cols, false).unwrap(),
            }
        }
        4 => WalOp::CreateSequence {
            name: gen_ident(rng),
            current: rng.irange(-1000, 1000),
            increment: rng.irange(1, 10),
        },
        _ => WalOp::DropSequence {
            name: gen_ident(rng),
            current: rng.irange(-1000, 1000),
            increment: rng.irange(1, 10),
        },
    }
}

fn gen_wal_record(rng: &mut Rng) -> WalRecord {
    match rng.range(0, 6) {
        0 => WalRecord::Begin {
            txn: rng.next_u64(),
        },
        1 => WalRecord::Abort {
            txn: rng.next_u64(),
        },
        2 => WalRecord::Commit {
            txn: rng.next_u64(),
            epoch: rng.next_u64(),
            sequences: (0..rng.range(0, 4))
                .map(|i| {
                    (
                        format!("s{i}_{}", gen_ident(rng)),
                        rng.irange(-1000, 1000),
                        rng.irange(1, 10),
                    )
                })
                .collect(),
        },
        _ => WalRecord::Op {
            txn: rng.next_u64(),
            op: gen_wal_op(rng),
        },
    }
}

/// A random log: concatenated frames plus the frame boundary offsets.
fn gen_log(rng: &mut Rng) -> (Vec<u8>, Vec<usize>, Vec<(u64, WalRecord)>) {
    let mut buf = Vec::new();
    let mut boundaries = vec![0usize];
    let mut records = Vec::new();
    for lsn in 1..=(rng.range(1, 8) as u64) {
        let record = gen_wal_record(rng);
        buf.extend_from_slice(&wal::encode_record(lsn, &record));
        boundaries.push(buf.len());
        records.push((lsn, record));
    }
    (buf, boundaries, records)
}

/// Frame codec round-trip: every generated record survives
/// encode → scan byte-exactly, with the full buffer valid.
#[test]
fn wal_records_round_trip_through_frame_codec() {
    let mut rng = Rng::new(0x0A11_0C47);
    for case in 0..CASES {
        let (buf, _, records) = gen_log(&mut rng);
        let scanned = wal::scan(&buf);
        assert!(!scanned.truncated, "case {case}");
        assert_eq!(scanned.valid_len, buf.len(), "case {case}");
        assert_eq!(scanned.records, records, "case {case}");
    }
}

/// Any single-bit flip is rejected: the scan never returns a record that
/// differs from what was written — it stops at the corrupted frame and
/// keeps the intact prefix.
#[test]
fn wal_single_bit_flips_never_pass_the_checksum() {
    let mut rng = Rng::new(0xB17F11B);
    for case in 0..CASES {
        let (mut buf, boundaries, records) = gen_log(&mut rng);
        let byte = rng.range(0, buf.len());
        let bit = rng.range(0, 8);
        buf[byte] ^= 1 << bit;
        // Which frame did the flip land in?
        let frame = boundaries[1..].iter().filter(|&&end| end <= byte).count();
        let scanned = wal::scan(&buf);
        assert!(scanned.truncated, "case {case}: corruption must be noticed");
        assert!(
            scanned.records.len() <= frame,
            "case {case}: scan read past the corrupted frame"
        );
        assert_eq!(
            scanned.records,
            records[..scanned.records.len()],
            "case {case}: surviving prefix must be byte-exact"
        );
        assert!(scanned.valid_len <= boundaries[frame], "case {case}");
    }
}

/// A log cut at any byte (a torn tail) yields exactly the complete-frame
/// prefix — nothing invented, nothing lost before the cut.
#[test]
fn wal_truncated_tails_yield_the_complete_frame_prefix() {
    let mut rng = Rng::new(0x7047_7A11);
    for case in 0..CASES {
        let (buf, boundaries, records) = gen_log(&mut rng);
        let cut = rng.range(0, buf.len() + 1);
        let scanned = wal::scan(&buf[..cut]);
        let complete = boundaries[1..].iter().filter(|&&end| end <= cut).count();
        assert_eq!(
            scanned.records.len(),
            complete,
            "case {case}: cut at {cut} of {}",
            buf.len()
        );
        assert_eq!(scanned.records, records[..complete], "case {case}");
        assert_eq!(scanned.valid_len, boundaries[complete], "case {case}");
        assert_eq!(
            scanned.truncated,
            cut != boundaries[complete],
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------- page codec

use flowsql::sqlkernel::page::{pack_stream, unpack_stream, PageBuilder, PageView, MAX_CELL};
use flowsql::sqlkernel::{PageKind, PAGE_SIZE};

/// Random cells, bounded so several fit on one page.
fn gen_cells(rng: &mut Rng) -> Vec<Vec<u8>> {
    (0..rng.range(0, 6))
        .map(|_| {
            let len = rng.range(0, MAX_CELL / 8);
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect()
}

fn gen_kind(rng: &mut Rng) -> PageKind {
    match rng.range(0, 3) {
        0 => PageKind::Meta,
        1 => PageKind::Directory,
        _ => PageKind::Data,
    }
}

/// Build → parse round-trips every header field and every cell byte.
#[test]
fn page_codec_round_trips_random_cells() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x8001 ^ case);
        let kind = gen_kind(&mut rng);
        let page_no = rng.next_u64() % 1_000_000;
        let (epoch, lsn) = (rng.next_u64() % 9999, rng.next_u64() % 99_999);
        let cells = gen_cells(&mut rng);
        let mut b = PageBuilder::new(kind, page_no);
        let mut pushed = Vec::new();
        for c in &cells {
            if b.try_push(c) {
                pushed.push(c.clone());
            }
        }
        let bytes = b.finalize(epoch, lsn);
        assert_eq!(bytes.len(), PAGE_SIZE, "case {case}");
        let v = PageView::parse(&bytes).unwrap();
        assert_eq!(v.kind(), kind, "case {case}");
        assert_eq!(v.page_no(), page_no, "case {case}");
        assert_eq!(v.epoch(), epoch, "case {case}");
        assert_eq!(v.page_lsn(), lsn, "case {case}");
        assert_eq!(v.cell_count(), pushed.len(), "case {case}");
        for (i, c) in pushed.iter().enumerate() {
            assert_eq!(v.cell(i), &c[..], "case {case} cell {i}");
        }
    }
}

/// Any single flipped bit — header, slot directory, payload, or the
/// checksum field itself — must make the page unreadable. This is the
/// whole torn-page/bit-rot defense: detection is the checksum's job.
#[test]
fn page_single_bit_flip_is_always_rejected() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x8002 ^ case);
        let mut b = PageBuilder::new(gen_kind(&mut rng), rng.next_u64() % 1000);
        for c in gen_cells(&mut rng) {
            b.try_push(&c);
        }
        let mut bytes = b.finalize(1, 7);
        let bit = rng.range(0, PAGE_SIZE * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert!(
            PageView::parse(&bytes).is_err(),
            "case {case}: flipped bit {bit} went undetected"
        );
    }
}

/// A torn write leaves a prefix: parsed as-is (short buffer) it must
/// never verify; padded with zeros to a full page (as a zero-filling
/// store returns it) it must fail whenever the tear destroyed any
/// non-zero byte — a tear across already-zero slack reconstructs the
/// identical page, which rightly verifies.
#[test]
fn page_torn_prefix_truncation_is_always_rejected() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x8003 ^ case);
        let mut b = PageBuilder::new(gen_kind(&mut rng), rng.next_u64() % 1000);
        for c in gen_cells(&mut rng) {
            b.try_push(&c);
        }
        let bytes = b.finalize(2, 9);
        let cut = rng.range(0, PAGE_SIZE);
        assert!(
            PageView::parse(&bytes[..cut]).is_err(),
            "case {case}: short buffer of {cut} bytes parsed"
        );
        if bytes[cut..].iter().any(|&b| b != 0) {
            let mut padded = bytes[..cut].to_vec();
            padded.resize(PAGE_SIZE, 0);
            assert!(
                PageView::parse(&padded).is_err(),
                "case {case}: zero-padded torn prefix of {cut} bytes parsed"
            );
        }
    }
}

/// `pack_stream`/`unpack_stream` round-trip arbitrary streams at any
/// length (empty, sub-page, many-page) and detect misdirected writes.
#[test]
fn pack_stream_round_trips_and_catches_misdirected_writes() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x8004 ^ case);
        let len = rng.range(0, 3 * MAX_CELL + 17);
        let stream: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let base = rng.next_u64() % 500;
        let mut next = base;
        let pages = pack_stream(PageKind::Data, &stream, 3, 11, || {
            next += 1;
            next
        });
        assert!(
            !pages.is_empty(),
            "case {case}: even empty streams get a page"
        );
        let back = unpack_stream(PageKind::Data, &pages).unwrap();
        assert_eq!(back, stream, "case {case}");
        // Swapping two page slots (a misdirected write) must be caught
        // by the stamped page number, not silently reassembled.
        if pages.len() >= 2 {
            let mut swapped = pages.clone();
            let a = swapped[0].0;
            let b = swapped[1].0;
            swapped[0].0 = b;
            swapped[1].0 = a;
            assert!(
                unpack_stream(PageKind::Data, &swapped).is_err(),
                "case {case}: misdirected write went undetected"
            );
        }
    }
}
