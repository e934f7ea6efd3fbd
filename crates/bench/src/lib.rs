//! Shared code of the table/figure regeneration binaries and the bench
//! binaries: the paper's products, seeded datasets, and the one report
//! schema every bench binary writes.

pub mod report;

use patterns::SqlIntegration;
use report::{time_us_paired, Metric, Report};
use sqlkernel::parser::parse_statement;
use sqlkernel::{Connection, Database, SplitMix64, StatementResult, Value};

/// Base seed of [`seeded_orders_db`] (offset by the order count).
pub const ORDERS_SEED: u64 = 0x5EED;

/// Base seed of [`seeded_wide_db`] (offset by the row count).
pub const WIDE_SEED: u64 = 0xDA7A;

/// All three surveyed products, in Table order.
pub fn all_products() -> Vec<Box<dyn SqlIntegration>> {
    vec![
        Box::new(bis::BisProduct),
        Box::new(wf::WfProduct),
        Box::new(soa::OracleProduct),
    ]
}

/// Item-type vocabulary for synthetic workloads.
pub const ITEM_TYPES: [&str; 8] = [
    "widget", "gadget", "sprocket", "cog", "flange", "bracket", "gear", "bolt",
];

/// Build an order database with `n_orders` synthetic orders over the
/// standard probe schema (deterministic: seeded RNG).
pub fn seeded_orders_db(name: &str, n_orders: usize) -> Database {
    let db = Database::new(name);
    let conn = db.connect();
    conn.execute_script(
        "CREATE TABLE Orders (
            OrderId INT PRIMARY KEY,
            ItemId TEXT NOT NULL,
            Quantity INT NOT NULL,
            Approved BOOL NOT NULL);
         CREATE TABLE OrderConfirmations (
            ConfId INT PRIMARY KEY,
            ItemId TEXT NOT NULL,
            Quantity INT NOT NULL,
            Confirmation TEXT);
         CREATE SEQUENCE conf_ids START WITH 1;",
    )
    .expect("schema is valid");
    let mut rng = SplitMix64::new(ORDERS_SEED + n_orders as u64);
    let insert = conn
        .prepare("INSERT INTO Orders VALUES (?, ?, ?, ?)")
        .expect("valid insert");
    for i in 0..n_orders {
        let item = ITEM_TYPES[rng.next_below(ITEM_TYPES.len() as u64) as usize];
        let qty = 1 + rng.next_below(49) as i64;
        let approved = rng.next_f64() < 0.7;
        conn.execute_prepared(
            &insert,
            &[
                Value::Int(i as i64 + 1),
                Value::text(item),
                Value::Int(qty),
                Value::Bool(approved),
            ],
        )
        .expect("insert succeeds");
    }
    db
}

/// A wide staging table for data-volume sweeps: `n_rows` rows × 4 data
/// columns plus key.
pub fn seeded_wide_db(name: &str, n_rows: usize) -> Database {
    let db = Database::new(name);
    let conn = db.connect();
    conn.execute(
        "CREATE TABLE src (id INT PRIMARY KEY, a TEXT, b INT, c FLOAT, d TEXT)",
        &[],
    )
    .expect("valid ddl");
    conn.execute(
        "CREATE TABLE sink (id INT PRIMARY KEY, a TEXT, b INT, c FLOAT, d TEXT)",
        &[],
    )
    .expect("valid ddl");
    let mut rng = SplitMix64::new(WIDE_SEED + n_rows as u64);
    let insert = conn
        .prepare("INSERT INTO src VALUES (?, ?, ?, ?, ?)")
        .expect("valid");
    for i in 0..n_rows {
        conn.execute_prepared(
            &insert,
            &[
                Value::Int(i as i64),
                Value::Text(format!("payload-{i:06}")),
                Value::Int(rng.next_below(1000) as i64),
                Value::Float(rng.next_f64()),
                Value::Text(format!("tail-{}", rng.next_below(100))),
            ],
        )
        .expect("insert succeeds");
    }
    db
}

/// Times `query` through the tree-walking interpreter (its pre-parsed
/// AST, so parsing is excluded) and through its warm compiled plan, their
/// samples interleaved ([`time_us_paired`]), and adds the point
/// `workload = name`. Asserts first that both return byte-identical rows.
pub fn interpreted_vs_compiled(conn: &Connection, name: &str, query: &str, report: &mut Report) {
    let stmt = parse_statement(query).expect("benchmark query parses");
    let interpreted_rows = match conn.execute_ast(&stmt, &[]).unwrap() {
        StatementResult::Rows(r) => r,
        other => panic!("workload must return rows, got {other:?}"),
    };
    assert_eq!(
        interpreted_rows,
        conn.query(query, &[]).unwrap(),
        "{name}: compiled result must be byte-identical to interpreted"
    );

    let (interpreted, compiled) = time_us_paired(
        || {
            std::hint::black_box(conn.execute_ast(&stmt, &[]).unwrap());
        },
        || {
            std::hint::black_box(conn.execute(query, &[]).unwrap());
        },
    );
    let speedup = interpreted.median / compiled.median;
    eprintln!(
        "{name}: interpreted {:.1}us vs compiled {:.1}us  (x{speedup:.2})",
        interpreted.median, compiled.median
    );
    report
        .point()
        .param("workload", name)
        .metric("interpreted", interpreted)
        .metric("compiled", compiled)
        .metric("speedup", Metric::value("x", speedup));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_orders_are_deterministic() {
        let a = seeded_orders_db("a", 100);
        let b = seeded_orders_db("b", 100);
        let qa = a
            .connect()
            .query("SELECT SUM(Quantity) FROM Orders", &[])
            .unwrap();
        let qb = b
            .connect()
            .query("SELECT SUM(Quantity) FROM Orders", &[])
            .unwrap();
        assert_eq!(qa, qb);
        assert_eq!(a.table_len("Orders").unwrap(), 100);
    }

    #[test]
    fn wide_db_sizes() {
        let db = seeded_wide_db("w", 50);
        assert_eq!(db.table_len("src").unwrap(), 50);
        assert_eq!(db.table_len("sink").unwrap(), 0);
    }

    #[test]
    fn three_products() {
        assert_eq!(all_products().len(), 3);
    }
}
