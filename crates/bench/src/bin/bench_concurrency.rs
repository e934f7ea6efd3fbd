//! Regenerates `docs/outputs/BENCH_concurrency.json` — read-throughput
//! scaling of the `sqlkernel` concurrent read path, uncontended and
//! **contended** (readers scanning while a writer commits).
//!
//! Phase 1 (uncontended): for each thread count, N reader threads
//! hammer the shared database with the standard aggregation probe for a
//! fixed wall-clock window; throughput is total completed queries over
//! the window.
//!
//! Phase 2 (correctness gate, before any timing): a fixed budget of
//! balance-transfer transactions runs once serialized and once under
//! concurrent snapshot readers; the final table bytes must be identical
//! and no concurrent scan may observe a torn transfer (the quantity sum
//! is invariant). A bench that publishes numbers for a broken engine is
//! worse than no bench.
//!
//! Phase 3 (contended): N readers scan while one writer continuously
//! commits transfers. With MVCC snapshots, readers never block on the
//! writer, so the bar is *utilization*: with R = readers-alone rate and
//! W = writer-alone rate, a non-blocking engine must reach
//! r/R + w/W ≥ 0.9 under contention (blocked time would show up as
//! cycles delivered to neither side); the best of 3 reps filters
//! scheduler noise. That readers never wait on a writer's log append is
//! pinned deterministically by `tests/mvcc_snapshots.rs`.
//!
//! `BENCH_SMOKE=1` shrinks the windows, skips the JSON write, and skips
//! the timing bars (correctness gates still run).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bench::report::{self, Metric, Report};
use sqlkernel::{Database, Value};

const QUERY: &str =
    "SELECT ItemId, SUM(Quantity) FROM Orders WHERE Approved = TRUE GROUP BY ItemId";
const DB_ROWS: usize = 2_000;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const CONTENDED_COUNTS: [usize; 3] = [1, 2, 4];
/// Contended windows per point; the utilization bar takes the best.
const CONTENDED_REPS: usize = 3;
/// Transfer transactions in the identity gate.
const IDENTITY_TRANSFERS: usize = 600;

fn window(smoke: bool) -> Duration {
    Duration::from_millis(if smoke { 60 } else { 500 })
}

/// One balance transfer: moves one unit between two orders inside a
/// transaction, preserving `SUM(Quantity)` — the torn-read detector.
fn transfer(conn: &sqlkernel::Connection, i: usize, rows: usize) {
    let a = (i % rows) as i64 + 1;
    let b = ((i + rows / 2) % rows) as i64 + 1;
    if a == b {
        return;
    }
    conn.execute("BEGIN", &[]).unwrap();
    conn.execute(
        "UPDATE Orders SET Quantity = Quantity + 1 WHERE OrderId = ?",
        &[Value::Int(a)],
    )
    .unwrap();
    conn.execute(
        "UPDATE Orders SET Quantity = Quantity - 1 WHERE OrderId = ?",
        &[Value::Int(b)],
    )
    .unwrap();
    conn.execute("COMMIT", &[]).unwrap();
}

/// Full-table bytes, for the serialized-vs-concurrent identity check.
fn table_bytes(db: &Database) -> String {
    let rs = db
        .connect()
        .query(
            "SELECT OrderId, ItemId, Quantity, Approved FROM Orders ORDER BY OrderId",
            &[],
        )
        .unwrap();
    format!("{:?}", rs.rows)
}

fn quantity_sum(conn: &sqlkernel::Connection) -> i64 {
    match conn
        .query("SELECT SUM(Quantity) FROM Orders", &[])
        .unwrap()
        .rows[0][0]
    {
        Value::Int(v) => v,
        ref other => panic!("expected int sum, got {other:?}"),
    }
}

/// The correctness gate: same transfer budget serialized and contended
/// must leave identical bytes, and every concurrent scan must see the
/// invariant sum.
fn verify_snapshot_identity(rows: usize, transfers: usize) {
    let serial = bench::seeded_orders_db("ident_serial", rows);
    {
        let conn = serial.connect();
        for i in 0..transfers {
            transfer(&conn, i, rows);
        }
    }
    let want = table_bytes(&serial);

    let db = bench::seeded_orders_db("ident_concurrent", rows);
    let expected_sum = quantity_sum(&db.connect());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let conn = db.connect();
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(
                        quantity_sum(&conn),
                        expected_sum,
                        "a concurrent scan observed a torn transfer"
                    );
                }
            });
        }
        let conn = db.connect();
        for i in 0..transfers {
            transfer(&conn, i, rows);
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(
        table_bytes(&db),
        want,
        "contended run diverged from the serialized run"
    );
}

/// Readers-only window (uncontended baseline): queries/s.
fn measure(db: &Database, threads: usize, win: Duration) -> f64 {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let total: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let conn = db.connect();
                let stop = &stop;
                s.spawn(move || {
                    let mut done = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::black_box(conn.query(QUERY, &[]).unwrap());
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        std::thread::sleep(win);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    total as f64 / start.elapsed().as_secs_f64()
}

/// Writer-alone window: transfer commits/s with no readers running.
fn measure_writer_alone(db: &Database, win: Duration) -> f64 {
    let conn = db.connect();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < win {
        transfer(&conn, i, DB_ROWS);
        i += 1;
    }
    i as f64 / start.elapsed().as_secs_f64()
}

/// N readers scanning while one writer commits transfers continuously.
/// Returns (reader queries/s, writer commits/s).
fn measure_contended(db: &Database, threads: usize, win: Duration) -> (f64, f64) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (reads, commits) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..threads)
            .map(|_| {
                let conn = db.connect();
                let stop = &stop;
                s.spawn(move || {
                    let mut done = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::black_box(conn.query(QUERY, &[]).unwrap());
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        let writer = {
            let conn = db.connect();
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    transfer(&conn, i, DB_ROWS);
                    i += 1;
                }
                i as u64
            })
        };
        std::thread::sleep(win);
        stop.store(true, Ordering::Relaxed);
        let reads: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        (reads, writer.join().unwrap())
    });
    let elapsed = start.elapsed().as_secs_f64();
    (reads as f64 / elapsed, commits as f64 / elapsed)
}

fn main() {
    let smoke = report::smoke();
    let win = window(smoke);
    let rows = if smoke { 200 } else { DB_ROWS };
    let transfers = if smoke { 60 } else { IDENTITY_TRANSFERS };
    let mut report = Report::new(
        "concurrency",
        bench::ORDERS_SEED,
        &format!(
            "{DB_ROWS}-row seeded orders, {} ms windows, query {QUERY:?}; speedup is \
             bounded by host_cpus. Contended points run one transfer-committing writer \
             against N snapshot readers, {CONTENDED_REPS} reps each; the identity gate \
             verified the contended run byte-identical to a serialized run before timing",
            win.as_millis()
        ),
    );

    // Correctness gate first: no timing for an engine that tears reads.
    verify_snapshot_identity(rows, transfers);
    eprintln!("identity gate: serialized and contended runs byte-identical");

    let db = bench::seeded_orders_db("concurrency", DB_ROWS);

    // Warm the statement cache so measurement covers the cached path.
    db.connect().query(QUERY, &[]).unwrap();

    let mut base_qps = 0.0f64;
    for &threads in &THREAD_COUNTS {
        let qps = measure(&db, threads, win);
        if threads == 1 {
            base_qps = qps;
        }
        let speedup = qps / base_qps;
        eprintln!("{threads} readers: {qps:>10.0} queries/s  (×{speedup:.2} vs 1 reader)");
        report
            .point()
            .param("readers", threads)
            .metric("reads", Metric::value("queries/s", qps))
            .metric("speedup_vs_1", Metric::value("x", speedup));
    }

    // Writer-alone baseline (headline number; the utilization bar
    // re-measures its own adjacent baselines below).
    let writer_alone = measure_writer_alone(&db, win);
    eprintln!("writer alone: {writer_alone:.0} commits/s");
    report
        .point()
        .param("writer", "alone")
        .metric("commits", Metric::value("commits/s", writer_alone));

    // Contended sweep: N snapshot readers against one writer, in
    // several reps per point — a 1-CPU host's scheduler can starve
    // either side for a whole window, and the claim is what the engine
    // *can* sustain, so the bar below takes the best rep. Each rep
    // measures its *own* readers-alone and writer-alone baselines in
    // the windows directly adjacent to the contended one: on a shared
    // host the available cycles drift minute to minute, and a ratio of
    // windows taken far apart compares two different machines.
    let reps = if smoke { 1 } else { CONTENDED_REPS };
    let mut best_utilization = Vec::new();
    for &threads in &CONTENDED_COUNTS {
        let (mut reads, mut commits, mut util) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps {
            let r_base = measure(&db, threads, win);
            let w_base = measure_writer_alone(&db, win);
            let (r, w) = measure_contended(&db, threads, win);
            reads.push(r);
            commits.push(w);
            util.push(r / r_base.max(1.0) + w / w_base.max(1.0));
        }
        let best = util.iter().copied().fold(0.0, f64::max);
        eprintln!("{threads} readers + writer: best utilization {best:.2}");
        best_utilization.push((threads, best));
        report
            .point()
            .param("readers", threads)
            .param("writer", "one")
            .metric("reads", Metric::of("queries/s", &reads))
            .metric("commits", Metric::of("commits/s", &commits))
            .metric("utilization", Metric::of("ratio", &util));
    }

    // Acceptance bar (skipped in smoke mode: windows are too short for
    // stable ratios, and CI runs the correctness gate above regardless).
    if !smoke {
        for (threads, util) in best_utilization {
            assert!(
                util >= 0.9,
                "{threads} readers + writer utilization fell below 0.9: {util:.2} \
                 (blocking is burning cycles)"
            );
        }
    }

    // Force a GC pass so versions_gced reflects reclamation, then prove
    // the MVCC machinery engaged during the sweep.
    db.checkpoint().unwrap();
    let stats = db.stats();
    assert!(stats.snapshots_taken > 0, "no snapshots taken");
    assert!(stats.version_chains_walked > 0, "no version chains walked");
    assert!(stats.versions_gced > 0, "GC never reclaimed a version");

    report
        .point()
        .param("phase", "total")
        .stat("statements_executed", stats.statements_executed)
        .stat("parses", stats.parses)
        .stat("stmt_cache_hits", stats.stmt_cache_hits)
        .stat("stmt_cache_misses", stats.stmt_cache_misses)
        .stat("plan_binds", stats.plan_binds)
        .stat("snapshots_taken", stats.snapshots_taken)
        .stat("version_chains_walked", stats.version_chains_walked)
        .stat("versions_gced", stats.versions_gced);
    report.finish();
}
