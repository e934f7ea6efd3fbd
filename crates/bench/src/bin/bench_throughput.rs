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
//! `BENCH_SMOKE=1` shrinks the window and skips the JSON write — used
//! by `scripts/verify.sh` to prove the binary runs without clobbering
//! recorded results.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqlkernel::{Database, MemLogStore, Value};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const GROUP_WINDOWS: [u64; 2] = [0, 4];

struct Point {
    workers: usize,
    group_window: u64,
    statements: u64,
    stmts_per_sec: f64,
    speedup_vs_1: f64,
    wal_appends: u64,
    wal_commits: u64,
    appends_per_commit: f64,
}

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
/// pairs until the window closes. Returns completed statements and the
/// WAL append/commit deltas over the measured region.
fn measure(workers: usize, group_window: u64, window: Duration) -> Point {
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
    let wal_appends = stats.wal_appends - base.wal_appends;
    let wal_commits = stats.wal_commits - base.wal_commits;
    Point {
        workers,
        group_window,
        statements,
        stmts_per_sec: statements as f64 / elapsed,
        speedup_vs_1: 0.0,
        wal_appends,
        wal_commits,
        appends_per_commit: if wal_commits > 0 {
            wal_appends as f64 / wal_commits as f64
        } else {
            0.0
        },
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let window = if smoke {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(400)
    };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut points = Vec::new();
    for &group_window in &GROUP_WINDOWS {
        let mut base_qps = 0.0f64;
        for &workers in &WORKER_COUNTS {
            let mut p = measure(workers, group_window, window);
            if workers == 1 {
                base_qps = p.stmts_per_sec;
            }
            p.speedup_vs_1 = if base_qps > 0.0 {
                p.stmts_per_sec / base_qps
            } else {
                0.0
            };
            eprintln!(
                "{workers} workers, window {group_window}: {qps:>9.0} stmts/s \
                 (×{speedup:.2} vs 1)  {apc:.3} appends/commit",
                qps = p.stmts_per_sec,
                speedup = p.speedup_vs_1,
                apc = p.appends_per_commit,
            );
            points.push(p);
        }
    }

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{ \"workers\": {}, \"group_window\": {}, \"statements\": {}, \
                 \"stmts_per_sec\": {:.1}, \"speedup_vs_1\": {:.3}, \
                 \"wal_appends\": {}, \"wal_commits\": {}, \"appends_per_commit\": {:.3} }}",
                p.workers,
                p.group_window,
                p.statements,
                p.stmts_per_sec,
                p.speedup_vs_1,
                p.wal_appends,
                p.wal_commits,
                p.appends_per_commit,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"parallel_dml_throughput\",\n  \
         \"workload\": \"per-worker private table, INSERT/UPDATE pairs, fast-path DML\",\n  \
         \"window_ms\": {window},\n  \"host_cpus\": {cpus},\n  \
         \"note\": \"speedup is bounded by host_cpus; appends_per_commit < 1 means the \
         group-commit sequencer coalesced concurrent commits into shared appends\",\n  \
         \"points\": [\n{points}\n  ]\n}}\n",
        window = window.as_millis(),
        points = rows.join(",\n"),
    );

    if smoke {
        eprintln!("smoke mode: skipping JSON write");
    } else {
        let path = "docs/outputs/BENCH_throughput.json";
        std::fs::write(path, &json).expect("write BENCH_throughput.json");
        eprintln!("wrote {path}");
    }
    print!("{json}");
}
