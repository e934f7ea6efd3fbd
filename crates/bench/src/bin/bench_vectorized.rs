//! Regenerates `docs/outputs/BENCH_vectorized.json` — the vectorized
//! batch-executor benchmark.
//!
//! Four micro-workloads over the standard seeded order database, each
//! run two ways against the same data:
//!
//! - **interpreted**: pre-parsed AST through `execute_ast` — tree
//!   walking with name resolution per row, no compiled plan. Parsing is
//!   excluded, so the comparison isolates execution, not the parser.
//! - **compiled**: warm `execute` through the compiled-plan cache — the
//!   batch executor with selection vectors, fused filter+project, and
//!   (for the GROUP BY workload) the one-pass hash aggregator.
//!
//! Workloads: full-table *scan* projection, *filter* selectivity,
//! *fused* filter+compute projection, and the *aggregate* GROUP BY
//! query from `BENCH_concurrency`. Row count is 10x the older read
//! benchmarks (20k vs 2k) so per-row costs dominate fixed overheads.
//!
//! `BENCH_SMOKE=1` shrinks the workload and skips the JSON write; the
//! byte-identity and engagement asserts run in both modes.

use bench::report::{self, Report};

const DB_ROWS: usize = 20_000;
const SMOKE_ROWS: usize = 2_000;

fn main() {
    let rows = if report::smoke() { SMOKE_ROWS } else { DB_ROWS };
    let mut report = Report::new(
        "vectorized",
        bench::ORDERS_SEED,
        &format!(
            "{rows}-row seeded orders database; times are wall time per statement; \
             interpreted is the pre-parsed AST through the tree-walking executor, compiled \
             is the warm compiled plan through the batch executor; results are asserted \
             byte-identical before timing"
        ),
    );
    let db = bench::seeded_orders_db("vectorized", rows);
    let conn = db.connect();

    for (name, query) in [
        (
            "scan",
            "SELECT OrderId, ItemId, Quantity, Approved FROM Orders",
        ),
        (
            "filter",
            "SELECT OrderId FROM Orders WHERE Quantity > 25 AND Approved = TRUE",
        ),
        (
            "fused",
            "SELECT OrderId, Quantity * 2 + 1 FROM Orders WHERE Quantity > 25 AND Approved = TRUE",
        ),
        (
            "aggregate",
            "SELECT ItemId, SUM(Quantity) FROM Orders WHERE Approved = TRUE GROUP BY ItemId",
        ),
    ] {
        bench::interpreted_vs_compiled(&conn, name, query, &mut report);
    }

    // The whole point of the benchmark: prove the batched path engaged,
    // not just that two interpreters raced each other.
    let stats = db.stats();
    assert!(
        stats.batch_evals > 0,
        "compiled statements must run through the batch executor"
    );
    assert!(
        stats.hash_aggs > 0,
        "the GROUP BY workload must run through the hash aggregator"
    );
    assert!(stats.batched_rows > 0 && stats.full_scan_rows > 0);

    report
        .point()
        .param("workload", "total")
        .stat("statements_executed", stats.statements_executed)
        .stat("plan_binds", stats.plan_binds)
        .stat("bound_evals", stats.bound_evals)
        .stat("batch_evals", stats.batch_evals)
        .stat("batched_rows", stats.batched_rows)
        .stat("hash_aggs", stats.hash_aggs)
        .stat("full_scans", stats.full_scans)
        .stat("full_scan_rows", stats.full_scan_rows);
    report.finish();
}
