//! Regenerates `docs/outputs/BENCH_storage.json` — what checkpoints of
//! the disk-backed paged storage engine cost, and the recovery time
//! they buy.
//!
//! A ledger of ~140-byte rows is loaded with a checkpoint every K insert
//! batches. Each checkpoint truncates the WAL head, so frequent
//! checkpoints buy near-instant recovery at the price of page writeback
//! during the run; `checkpoint_every = 0` (never) pays the whole replay
//! at recovery.
//!
//! The run uses in-memory page/log stores so the numbers profile the
//! engine (checksums, slotted codec, epoch writeback), not the host's
//! disk. `BENCH_SMOKE=1` shrinks the row count and skips the JSON write;
//! the row-count assertions run in both modes.

use std::sync::Arc;
use std::time::Instant;

use bench::report::{self, Metric, Report};
use sqlkernel::{Database, MemLogStore, MemPageStore, Value};

/// Ledger rows loaded per run (about 320 pages' worth).
const ROWS: usize = 8960;

/// Rows per page: ~140 bytes each against a ~4052-byte payload.
const ROWS_PER_PAGE: usize = 28;

fn pad(id: usize) -> String {
    format!("{id:04}").repeat(30)
}

fn open(log: &MemLogStore, pages: &MemPageStore) -> Database {
    Database::open_paged("bench", Arc::new(log.clone()), Arc::new(pages.clone()), 0).unwrap()
}

/// Insert `rows` ledger rows in multi-row batches, checkpointing every
/// `checkpoint_every` batches (0 = never).
fn load_rows(db: &Database, rows: usize, checkpoint_every: usize) {
    let conn = db.connect();
    conn.execute(
        "CREATE TABLE IF NOT EXISTS ledger (id INT PRIMARY KEY, pad TEXT)",
        &[],
    )
    .unwrap();
    let mut batches = 0usize;
    for lo in (0..rows).step_by(25) {
        let hi = (lo + 25).min(rows);
        let mut sql = String::from("INSERT INTO ledger VALUES ");
        for id in lo..hi {
            if id > lo {
                sql.push_str(", ");
            }
            sql.push_str(&format!("({id}, '{}')", pad(id)));
        }
        conn.execute(&sql, &[]).unwrap();
        batches += 1;
        if checkpoint_every > 0 && batches.is_multiple_of(checkpoint_every) {
            db.checkpoint().unwrap();
        }
    }
}

fn count_rows(db: &Database) -> i64 {
    let rs = db
        .connect()
        .query("SELECT COUNT(*) FROM ledger", &[])
        .unwrap();
    match rs.rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("COUNT(*) returned {v:?}"),
    }
}

fn main() {
    let rows = ROWS / if report::smoke() { 4 } else { 1 };
    let mut report = Report::new(
        "storage",
        0,
        &format!(
            "{rows} ledger rows, about {ROWS_PER_PAGE} per page, on in-memory page/log \
             stores: numbers profile the paged engine (checksummed slotted codec, epoch \
             writeback), not disk; checkpoint_every_batches = 0 means never, so the whole \
             WAL replays at recovery"
        ),
    );
    for every in [0usize, 16, 4, 1] {
        let log = MemLogStore::new();
        let pages = MemPageStore::new();
        let db = open(&log, &pages);
        let start = Instant::now();
        load_rows(&db, rows, every);
        let run_secs = start.elapsed().as_secs_f64();
        drop(db);
        let wal_bytes = log.bytes().len();
        let start = Instant::now();
        let db = open(&log, &pages);
        let recover_secs = start.elapsed().as_secs_f64();
        assert_eq!(count_rows(&db) as usize, rows, "interval {every} lost rows");
        eprintln!(
            "checkpoint every {every:>2} batches: load {:>7.1} rows/s, wal tail {:>8} bytes, \
             recover {:>7.2} ms",
            rows as f64 / run_secs,
            wal_bytes,
            recover_secs * 1e3,
        );
        report
            .point()
            .param("checkpoint_every_batches", every)
            .metric("load", Metric::value("rows/s", rows as f64 / run_secs))
            .metric("wal_tail", Metric::value("bytes", wal_bytes as f64))
            .metric("recovery", Metric::value("ms", recover_secs * 1e3));
    }
    report.finish();
}
