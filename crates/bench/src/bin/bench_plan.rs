//! Regenerates `docs/outputs/BENCH_plan.json` — the compiled-plan-cache
//! benchmark.
//!
//! Three comparisons, each isolating one layer of the plan work:
//!
//! 1. **interpreted vs compiled**: the same parameterized SELECT executed
//!    by re-parsing + tree-walking every iteration versus through
//!    `Connection::execute`, which reuses the cached bound plan (ordinal
//!    column access, folded constants) after the first call.
//! 2. **full scan vs index range scan**: an identical `BETWEEN` probe on
//!    twin databases, one with a secondary index on the probed column.
//! 3. **full sort vs top-K heap vs index-ordered walk**: `ORDER BY`
//!    alone, `ORDER BY … LIMIT k` without an index (bounded heap), and
//!    `ORDER BY … LIMIT k` served directly in index key order.
//!
//! All workloads are deterministic (seeded data); wall-clock numbers
//! vary by host but the orderings should not.
//!
//! `BENCH_SMOKE=1` shrinks the database and skips the JSON write; the
//! asserts that compiled rows equal interpreted rows and that a plan was
//! bound run in both modes.

use bench::report::{self, time_us, Metric, Report};
use sqlkernel::parser::parse_statement;
use sqlkernel::{Database, DbStats, StatementResult, Value};

const DB_ROWS: usize = 20_000;
const SMOKE_ROWS: usize = 2_000;

/// The parameterized SELECT re-parsed and tree-walked per call versus
/// run through the plan cache. Asserts both return the same rows and
/// that the compiled path bound a plan.
fn parse_interpret_vs_plan(db: &Database, report: &mut Report) {
    const Q: &str = "SELECT OrderId, Quantity * 2 + 1 FROM Orders \
                     WHERE Quantity > ? AND Approved = TRUE";
    let conn = db.connect();
    let params = [Value::Int(25)];
    let binds = db.stats().plan_binds;
    let interpreted_rows = match conn.execute_ast(&parse_statement(Q).unwrap(), &params) {
        Ok(StatementResult::Rows(r)) => r,
        other => panic!("the SELECT must return rows, got {other:?}"),
    };
    assert_eq!(
        interpreted_rows,
        conn.query(Q, &params).unwrap(),
        "compiled rows must equal interpreted rows"
    );
    assert!(
        db.stats().plan_binds > binds,
        "the compiled path must bind a plan"
    );

    // Interpreted: parse + tree-walk per call (what every execution
    // cost before the statement and plan caches).
    let interpreted = time_us(|| {
        let stmt = parse_statement(Q).unwrap();
        std::hint::black_box(conn.execute_ast(&stmt, &params).unwrap());
    });
    let compiled = time_us(|| {
        std::hint::black_box(conn.execute(Q, &params).unwrap());
    });
    push_pair(
        report,
        "select",
        [
            ("parse_interpret", interpreted),
            ("compiled_plan", compiled),
        ],
    );
}

/// Appends one point per variant, each with its speedup over the first.
fn push_pair<const N: usize>(report: &mut Report, query: &str, variants: [(&str, Metric); N]) {
    let base = variants[0].1.median;
    for (variant, m) in variants {
        eprintln!("{query} {variant}: {:.1}us", m.median);
        let speedup = base / m.median;
        report
            .point()
            .param("query", query)
            .param("variant", variant)
            .metric("per_stmt", m)
            .metric("speedup", Metric::value("x", speedup));
    }
}

/// Twin seeded databases, the second with an index on `Quantity`.
fn twins(rows: usize) -> (Database, Database) {
    let plain = bench::seeded_orders_db("plan_plain", rows);
    let indexed = bench::seeded_orders_db("plan_indexed", rows);
    indexed
        .connect()
        .execute("CREATE INDEX idx_qty ON Orders (Quantity)", &[])
        .unwrap();
    (plain, indexed)
}

fn scan_vs_range(rows: usize, report: &mut Report) -> [Database; 2] {
    const Q: &str = "SELECT OrderId FROM Orders WHERE Quantity BETWEEN 10 AND 12";
    let (plain, indexed) = twins(rows);
    let c_plain = plain.connect();
    let c_indexed = indexed.connect();
    assert_eq!(
        c_plain.query(Q, &[]).unwrap(),
        c_indexed.query(Q, &[]).unwrap(),
        "index must not change the result"
    );
    let full = time_us(|| {
        std::hint::black_box(c_plain.query(Q, &[]).unwrap());
    });
    let range = time_us(|| {
        std::hint::black_box(c_indexed.query(Q, &[]).unwrap());
    });
    assert!(indexed.stats().range_scans > 0, "range path must be taken");
    push_pair(
        report,
        "between",
        [("full_scan", full), ("index_range_scan", range)],
    );
    [plain, indexed]
}

fn sort_topk_indexorder(rows: usize, report: &mut Report) -> [Database; 2] {
    const Q_SORT: &str = "SELECT OrderId FROM Orders ORDER BY Quantity";
    const Q_TOPK: &str = "SELECT OrderId FROM Orders ORDER BY Quantity LIMIT 10";
    let (plain, indexed) = twins(rows);
    let c_plain = plain.connect();
    let c_indexed = indexed.connect();
    let full_sort = time_us(|| {
        std::hint::black_box(c_plain.query(Q_SORT, &[]).unwrap());
    });
    let topk = time_us(|| {
        std::hint::black_box(c_plain.query(Q_TOPK, &[]).unwrap());
    });
    let before = indexed.stats();
    let index_order = time_us(|| {
        std::hint::black_box(c_indexed.query(Q_TOPK, &[]).unwrap());
    });
    let after = indexed.stats();
    assert!(plain.stats().topk_sorts > 0, "top-K path must be taken");
    assert!(after.range_scans > before.range_scans, "index order walk");
    assert_eq!(after.topk_sorts, before.topk_sorts, "no top-K fallback");
    push_pair(
        report,
        "order_by",
        [
            ("full_sort", full_sort),
            ("limit_topk_heap", topk),
            ("limit_index_order", index_order),
        ],
    );
    [plain, indexed]
}

fn main() {
    let rows = if report::smoke() { SMOKE_ROWS } else { DB_ROWS };
    let mut report = Report::new(
        "plan",
        bench::ORDERS_SEED,
        &format!(
            "{rows}-row seeded orders database; per_stmt is wall time per statement; \
             speedup compares against the first variant of each query; the total point \
             sums engine counters over all benchmark databases"
        ),
    );
    let db = bench::seeded_orders_db("plan_exec", rows);
    parse_interpret_vs_plan(&db, &mut report);
    let mut dbs = vec![db];
    dbs.extend(scan_vs_range(rows, &mut report));
    dbs.extend(sort_topk_indexorder(rows, &mut report));

    let stats: Vec<DbStats> = dbs.iter().map(Database::stats).collect();
    let sum = |get: fn(&DbStats) -> u64| stats.iter().map(get).sum();
    report
        .point()
        .param("query", "total")
        .stat("statements_executed", sum(|s| s.statements_executed))
        .stat("parses", sum(|s| s.parses))
        .stat("plan_binds", sum(|s| s.plan_binds))
        .stat("bound_evals", sum(|s| s.bound_evals))
        .stat("index_scans", sum(|s| s.index_scans))
        .stat("range_scans", sum(|s| s.range_scans))
        .stat("full_scans", sum(|s| s.full_scans))
        .stat("topk_sorts", sum(|s| s.topk_sorts));
    report.finish();
}
