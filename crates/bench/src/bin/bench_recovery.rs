//! Regenerates `docs/outputs/BENCH_recovery.json` — the cost of
//! crash-consistent durability.
//!
//! Three questions, one section each:
//!
//! * **WAL overhead** — the same auto-commit DML workload runs against a
//!   plain in-memory database and against one logging every write to a
//!   [`MemLogStore`]. The acceptance bar is ≤10% throughput loss.
//! * **Recovery replay** — a log holding N committed operations is
//!   handed to [`Database::recover`] with no surviving in-memory state;
//!   the row records how many logged records per second replay sustains.
//! * **Checkpoint interval** — the identical workload checkpointed every
//!   K statements: more frequent checkpoints keep the log (and therefore
//!   recovery) small at the price of snapshot writes during the run.
//!
//! `BENCH_SMOKE=1` shortens the workload and skips the JSON write; the
//! recovered row count is asserted in both modes.

use std::sync::Arc;
use std::time::Instant;

use bench::report::{self, Metric, Report};
use sqlkernel::{Database, MemLogStore, Value};

const OPS: usize = 20_000;
const SMOKE_OPS: usize = 600;

fn schema(db: &Database) {
    db.connect()
        .execute(
            "CREATE TABLE journal (id INT PRIMARY KEY, step TEXT, amount INT)",
            &[],
        )
        .unwrap();
}

/// The DML mix: insert, update the row just written, read it back.
fn run_workload(db: &Database, ops: usize, checkpoint_every: usize) {
    let conn = db.connect();
    for i in 0..ops {
        let id = Value::Int((i / 3) as i64);
        match i % 3 {
            0 => conn
                .execute("INSERT INTO journal VALUES (?, 'open', 0)", &[id])
                .map(|_| ()),
            1 => conn
                .execute("UPDATE journal SET amount = 7 WHERE id = ?", &[id])
                .map(|_| ()),
            _ => conn
                .execute("SELECT step FROM journal WHERE id = ?", &[id])
                .map(|_| ()),
        }
        .unwrap();
        if checkpoint_every > 0 && (i + 1) % checkpoint_every == 0 {
            db.checkpoint().unwrap();
        }
    }
}

fn main() {
    let ops = if report::smoke() { SMOKE_OPS } else { OPS };
    let mut report = Report::new(
        "recovery",
        0,
        &format!(
            "{ops}-statement DML mix (INSERT, UPDATE of the row just written, re-read) on \
             MemLogStore; WAL overhead budget 10% time; checkpoint_every = 0 means never: \
             the whole history replays at recovery"
        ),
    );
    // -------------------------------------------------- WAL overhead
    let plain = report::sample(|| {
        let db = Database::new("plain");
        schema(&db);
        let start = Instant::now();
        run_workload(&db, ops, 0);
        ops as f64 / start.elapsed().as_secs_f64()
    });
    let logged = report::sample(|| {
        let db = Database::recover("durable", Arc::new(MemLogStore::new())).unwrap();
        schema(&db);
        let start = Instant::now();
        run_workload(&db, ops, 0);
        ops as f64 / start.elapsed().as_secs_f64()
    });
    let plain = Metric::of("stmts/s", &plain);
    let logged = Metric::of("stmts/s", &logged);
    let overhead_pct = (plain.median / logged.median - 1.0) * 100.0;
    eprintln!("plain:   {:>10.0} stmts/s", plain.median);
    eprintln!(
        "wal on:  {:>10.0} stmts/s  ({overhead_pct:+.2}% time)",
        logged.median
    );
    for (wal, m, pct) in [("off", plain, 0.0), ("on", logged, overhead_pct)] {
        report
            .point()
            .param("wal", wal)
            .metric("throughput", m)
            .metric("time_vs_off", Metric::value("%", pct));
    }

    // -------------------------------------------------- recovery replay
    let store = MemLogStore::new();
    let db = Database::recover("writer", Arc::new(store.clone())).unwrap();
    schema(&db);
    run_workload(&db, ops, 0);
    let log_bytes = store.bytes();
    let records = sqlkernel::wal::scan(&log_bytes).records.len();
    drop(db); // the crash: only the log survives
    let recover = Metric::of(
        "ms",
        &report::sample(|| {
            let replica = Arc::new(MemLogStore::from_bytes(log_bytes.clone()));
            let start = Instant::now();
            let db = Database::recover("reborn", replica).unwrap();
            let elapsed = start.elapsed().as_secs_f64();
            let rows = db
                .connect()
                .execute("SELECT COUNT(*) FROM journal", &[])
                .unwrap();
            let grid = rows.rows().unwrap();
            assert_eq!(grid.rows[0][0], Value::Int(ops.div_ceil(3) as i64));
            elapsed * 1e3
        }),
    );
    let records_per_sec = records as f64 / (recover.median / 1e3);
    eprintln!(
        "recovery: {records} records, {} bytes -> {records_per_sec:>10.0} records/s",
        log_bytes.len()
    );
    report
        .point()
        .param("replay", "whole log")
        .metric("log_records", Metric::value("records", records as f64))
        .metric("log_bytes", Metric::value("bytes", log_bytes.len() as f64))
        .metric("recovery", recover)
        .metric("replay_rate", Metric::value("records/s", records_per_sec));

    // -------------------------------------------------- checkpoint interval
    for every in [0usize, 5_000, 1_000, 200] {
        let store = MemLogStore::new();
        let db = Database::recover("ckpt", Arc::new(store.clone())).unwrap();
        schema(&db);
        let start = Instant::now();
        run_workload(&db, ops, every);
        let run_secs = start.elapsed().as_secs_f64();
        let bytes = store.bytes();
        let start = Instant::now();
        Database::recover(
            "ckpt_reborn",
            Arc::new(MemLogStore::from_bytes(bytes.clone())),
        )
        .unwrap();
        let recover_secs = start.elapsed().as_secs_f64();
        eprintln!(
            "checkpoint every {every:>5}: run {:.0} stmts/s, log {:>8} bytes, \
             recover {:.1} ms",
            ops as f64 / run_secs,
            bytes.len(),
            recover_secs * 1e3,
        );
        report
            .point()
            .param("checkpoint_every", every)
            .metric(
                "throughput",
                Metric::value("stmts/s", ops as f64 / run_secs),
            )
            .metric("final_log", Metric::value("bytes", bytes.len() as f64))
            .metric("recovery", Metric::value("ms", recover_secs * 1e3));
    }
    report.finish();
}
