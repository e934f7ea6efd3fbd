//! Regenerates `docs/outputs/BENCH_throughput.json` — write-throughput
//! scaling of the parallel DML path.
//!
//! The workload is the paper's "many parallel instances" shape reduced
//! to its storage essentials: each worker owns a private table and
//! alternates fast-path INSERT/UPDATE statements against it for a fixed
//! wall-clock window. With per-table locking, disjoint writers should
//! scale with the worker count instead of serializing behind a global
//! write lock; with a non-zero group-commit window, concurrent commits
//! should coalesce into fewer WAL appends (`appends_per_commit` < 1).
//!
//! `BENCH_SMOKE=1` shrinks the window and skips the JSON write.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::report::{self, Metric, Report};
use sqlkernel::{Database, MemLogStore, Value};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const GROUP_WINDOWS: [u64; 2] = [0, 4];

fn fresh_db(workers: usize) -> Database {
    let db = Database::recover("throughput", Arc::new(MemLogStore::new())).unwrap();
    let conn = db.connect();
    for w in 0..workers {
        conn.execute(
            &format!("CREATE TABLE w{w} (id INT PRIMARY KEY, v INT)"),
            &[],
        )
        .unwrap();
    }
    db
}

/// N workers, each hammering its own table with INSERT-then-UPDATE
/// pairs until the window closes. Returns statements per second and the
/// WAL append/commit deltas over the measured region.
fn measure(workers: usize, group_window: u64, window: Duration) -> (f64, u64, u64) {
    let db = fresh_db(workers);
    db.set_group_commit_window(group_window);
    let base = db.snapshot();

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let statements: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let conn = db.connect();
                let stop = &stop;
                s.spawn(move || {
                    let insert = format!("INSERT INTO w{w} VALUES (?, ?)");
                    let update = format!("UPDATE w{w} SET v = v + 1 WHERE id = ?");
                    let mut done = 0u64;
                    let mut id = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        conn.execute(&insert, &[Value::Int(id), Value::Int(0)])
                            .unwrap();
                        conn.execute(&update, &[Value::Int(id)]).unwrap();
                        done += 2;
                        id += 1;
                    }
                    done
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let stats = db.snapshot();
    (
        statements as f64 / elapsed,
        stats.wal_appends - base.wal_appends,
        stats.wal_commits - base.wal_commits,
    )
}

fn main() {
    let window = Duration::from_millis(if report::smoke() { 40 } else { 400 });
    let mut report = Report::new(
        "throughput",
        0,
        &format!(
            "per-worker private table, INSERT/UPDATE pairs on the fast path, one {} ms \
             window per point; speedup is bounded by host_cpus; appends_per_commit < 1 \
             means the group-commit sequencer coalesced concurrent commits into shared \
             appends",
            window.as_millis()
        ),
    );
    for &group_window in &GROUP_WINDOWS {
        let mut base_qps = 0.0f64;
        for &workers in &WORKER_COUNTS {
            let (qps, appends, commits) = measure(workers, group_window, window);
            if workers == 1 {
                base_qps = qps;
            }
            let apc = appends as f64 / commits.max(1) as f64;
            eprintln!(
                "{workers} workers, window {group_window}: {qps:>9.0} stmts/s \
                 (×{:.2} vs 1)  {apc:.3} appends/commit",
                qps / base_qps
            );
            report
                .point()
                .param("group_window", group_window)
                .param("workers", workers)
                .metric("throughput", Metric::value("stmts/s", qps))
                .metric("speedup_vs_1", Metric::value("x", qps / base_qps))
                .metric("appends_per_commit", Metric::value("ratio", apc))
                .stat("wal_appends", appends)
                .stat("wal_commits", commits);
        }
    }
    report.finish();
}
