//! Regenerates `docs/outputs/BENCH_joins.json` — the compiled join
//! executor benchmark.
//!
//! A star-shaped pair of tables (20k-row `fact`, 20k-row `dim` keyed by
//! primary key) plus a small 2k-row `probe` table, each workload run
//! two ways against the same data:
//!
//! - **interpreted**: pre-parsed AST through `execute_ast` — the
//!   row-at-a-time join with per-row `Arc` traffic and name resolution.
//! - **compiled**: warm `execute` through the compiled-plan cache — the
//!   vectorized join executor (predicate pushdown into side scans,
//!   borrowed-key hash join with runtime build-side choice, index
//!   nested-loop for small outers over indexed inners) feeding the
//!   batch engine's fused filter/project/aggregate tails.
//!
//! Workloads sweep the build/probe size ratio: an unfiltered 20k x 20k
//! equi-join aggregate (`hash_join`), the same join with single-side
//! WHERE conjuncts the compiler pushes into both scans
//! (`pushdown_join` — the headline point), a 2k-outer join into the
//! indexed 20k dimension (`index_nl`), and a plain row-returning join
//! with an asymmetric 2k/20k ratio (`build_small`, exercising the
//! build-on-left replay path).
//!
//! Every workload asserts byte-identical results between the two
//! executors *before* timing, and the engine counters afterwards prove
//! the compiled join machinery (not a second interpreter) was timed.
//!
//! `BENCH_SMOKE=1` shrinks the workload and skips the JSON write.

use bench::report::{self, Report};
use sqlkernel::{Database, SplitMix64, Value};

const FACT_ROWS: usize = 20_000;
const DIM_ROWS: usize = 20_000;
const PROBE_ROWS: usize = 2_000;
const SMOKE_SCALE: usize = 10;
const SEED: u64 = 0x101_5EED;

/// The join benchmark database: `fact` fans out over `dim` through
/// `dim_id` (uniform over the dimension), `dim` carries its primary-key
/// backing index (the index-nested-loop target), and `probe` is the
/// small outer for ratio sweeps.
fn seeded_join_db(scale_div: usize) -> Database {
    let (nf, nd, np) = (
        FACT_ROWS / scale_div,
        DIM_ROWS / scale_div,
        PROBE_ROWS / scale_div,
    );
    let db = Database::new("bench_joins");
    let conn = db.connect();
    conn.execute_script(
        "CREATE TABLE fact (id INT PRIMARY KEY, dim_id INT, qty INT, grp INT);
         CREATE TABLE dim (id INT PRIMARY KEY, code INT, price INT);
         CREATE TABLE probe (id INT PRIMARY KEY, dim_id INT);",
    )
    .expect("schema is valid");
    let mut rng = SplitMix64::new(SEED);
    let ins_fact = conn
        .prepare("INSERT INTO fact VALUES (?, ?, ?, ?)")
        .expect("valid insert");
    for i in 0..nf {
        conn.execute_prepared(
            &ins_fact,
            &[
                Value::Int(i as i64),
                Value::Int(rng.next_below(nd as u64) as i64),
                Value::Int(1 + rng.next_below(49) as i64),
                Value::Int(rng.next_below(32) as i64),
            ],
        )
        .expect("insert succeeds");
    }
    let ins_dim = conn
        .prepare("INSERT INTO dim VALUES (?, ?, ?)")
        .expect("valid insert");
    for i in 0..nd {
        conn.execute_prepared(
            &ins_dim,
            &[
                Value::Int(i as i64),
                Value::Int(rng.next_below(64) as i64),
                Value::Int(rng.next_below(1000) as i64),
            ],
        )
        .expect("insert succeeds");
    }
    let ins_probe = conn
        .prepare("INSERT INTO probe VALUES (?, ?)")
        .expect("valid insert");
    for i in 0..np {
        conn.execute_prepared(
            &ins_probe,
            &[
                Value::Int(i as i64),
                Value::Int(rng.next_below(nd as u64) as i64),
            ],
        )
        .expect("insert succeeds");
    }
    db
}

fn main() {
    let scale_div = if report::smoke() { SMOKE_SCALE } else { 1 };
    let mut report = Report::new(
        "joins",
        SEED,
        &format!(
            "{} fact, {} dim and {} probe rows; times are wall time per statement; \
             interpreted is the pre-parsed AST through the row-at-a-time join, compiled \
             is the warm plan through the vectorized join executor; results are asserted \
             byte-identical before timing",
            FACT_ROWS / scale_div,
            DIM_ROWS / scale_div,
            PROBE_ROWS / scale_div
        ),
    );
    let db = seeded_join_db(scale_div);
    let conn = db.connect();

    // Unfiltered 20k x 20k equi-join folded into a grouped aggregate.
    bench::interpreted_vs_compiled(
        &conn,
        "hash_join",
        "SELECT d.code, COUNT(*) AS n, SUM(f.qty) AS q FROM fact f \
         JOIN dim d ON f.dim_id = d.id GROUP BY d.code ORDER BY d.code",
        &mut report,
    );

    // The headline point: the same join with one pushable conjunct per
    // side. The compiler prefilters both scans before the join; the
    // interpreter joins everything and filters after.
    bench::interpreted_vs_compiled(
        &conn,
        "pushdown_join",
        "SELECT d.code, COUNT(*) AS n, SUM(f.qty) AS q FROM fact f \
         JOIN dim d ON f.dim_id = d.id \
         WHERE f.qty > 45 AND d.price < 100 GROUP BY d.code ORDER BY d.code",
        &mut report,
    );

    // Small outer against the dimension's primary-key index: the
    // executor probes the B-tree per outer row instead of hashing 20k.
    bench::interpreted_vs_compiled(
        &conn,
        "index_nl",
        "SELECT probe.id, d.price FROM probe JOIN dim d ON probe.dim_id = d.id \
         ORDER BY probe.id",
        &mut report,
    );

    // Asymmetric 2k/20k ratio returning plain rows: the compiled
    // executor hashes the small side and replays matches in probe-left
    // order (dim_id > threshold defeats the index, forcing the hash).
    bench::interpreted_vs_compiled(
        &conn,
        "build_small",
        "SELECT probe.id, f.qty FROM probe JOIN fact f ON probe.dim_id = f.dim_id \
         WHERE f.qty > 40",
        &mut report,
    );

    // The whole point of the benchmark: prove the compiled join
    // machinery engaged, not just that two interpreters raced.
    let stats = db.stats();
    assert!(
        stats.hash_joins > 0,
        "equi-join workloads must run through the vectorized hash join"
    );
    assert!(
        stats.index_nl_joins > 0,
        "the small-outer workload must probe the dimension index"
    );
    assert!(
        stats.pushed_predicates > 0,
        "the pushdown workload must prefilter its side scans"
    );
    assert!(stats.join_build_rows > 0 && stats.join_probe_rows > 0);
    assert!(stats.hash_aggs > 0, "grouped joins must hash-aggregate");

    report
        .point()
        .param("workload", "total")
        .stat("hash_joins", stats.hash_joins)
        .stat("index_nl_joins", stats.index_nl_joins)
        .stat("join_build_rows", stats.join_build_rows)
        .stat("join_probe_rows", stats.join_probe_rows)
        .stat("pushed_predicates", stats.pushed_predicates)
        .stat("hash_aggs", stats.hash_aggs)
        .stat("batch_evals", stats.batch_evals)
        .stat("full_scan_rows", stats.full_scan_rows);
    report.finish();
}
