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
//! `BENCH_SMOKE=1` shortens the workload and skips the JSON write — used
//! by `scripts/verify.sh` to prove the binary runs without clobbering
//! recorded results; the recovered row count is asserted in both modes.

use std::sync::Arc;
use std::time::Instant;

use sqlkernel::{Database, MemLogStore, Value};

const OPS: usize = 20_000;
const SMOKE_OPS: usize = 600;
const REPS: usize = 3;

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

fn best_of<F: FnMut() -> f64>(mut f: F) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::MAX, f64::min)
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let ops = if smoke { SMOKE_OPS } else { OPS };
    // -------------------------------------------------- WAL overhead
    let t_mem = best_of(|| {
        let db = Database::new("plain");
        schema(&db);
        let start = Instant::now();
        run_workload(&db, ops, 0);
        start.elapsed().as_secs_f64()
    });
    let t_wal = best_of(|| {
        let db = Database::recover("durable", Arc::new(MemLogStore::new())).unwrap();
        schema(&db);
        let start = Instant::now();
        run_workload(&db, ops, 0);
        start.elapsed().as_secs_f64()
    });
    let mem_sps = ops as f64 / t_mem;
    let wal_sps = ops as f64 / t_wal;
    let overhead_pct = (t_wal - t_mem) / t_mem * 100.0;
    eprintln!("plain:   {mem_sps:>10.0} stmts/s");
    eprintln!("wal on:  {wal_sps:>10.0} stmts/s  ({overhead_pct:+.2}% time)");

    // -------------------------------------------------- recovery replay
    let store = MemLogStore::new();
    let db = Database::recover("writer", Arc::new(store.clone())).unwrap();
    schema(&db);
    run_workload(&db, ops, 0);
    let log_bytes = store.bytes();
    let logged = sqlkernel::wal::scan(&log_bytes).records.len();
    drop(db); // the crash: only the log survives
    let t_recover = best_of(|| {
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
        elapsed
    });
    let records_per_sec = logged as f64 / t_recover;
    eprintln!(
        "recovery: {logged} records, {} bytes -> {records_per_sec:>10.0} records/s",
        log_bytes.len()
    );

    // -------------------------------------------------- checkpoint interval
    let mut interval_rows = Vec::new();
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
        interval_rows.push(format!(
            "    {{ \"checkpoint_every\": {every}, \"run_stmts_per_sec\": {:.1}, \
             \"final_log_bytes\": {}, \"recovery_ms\": {:.3} }}",
            ops as f64 / run_secs,
            bytes.len(),
            recover_secs * 1e3,
        ));
    }

    if smoke {
        eprintln!("BENCH_SMOKE set: assertions passed, JSON not written");
        return;
    }

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"crash_recovery\",\n  \"statements_per_run\": {OPS},\n  \
         \"reps\": {REPS},\n  \"host_cpus\": {cpus},\n  \"plain_stmts_per_sec\": {mem_sps:.1},\n  \
         \"wal_stmts_per_sec\": {wal_sps:.1},\n  \
         \"wal_overhead_pct\": {overhead_pct:.2},\n  \
         \"wal_overhead_budget_pct\": 10.0,\n  \
         \"recovery\": {{ \"log_records\": {logged}, \"log_bytes\": {}, \
         \"records_per_sec\": {records_per_sec:.1} }},\n  \
         \"note\": \"checkpoint_every = 0 means never: the whole history replays \
         at recovery; smaller intervals trade run-time snapshot writes for a \
         compact log and near-instant recovery\",\n  \
         \"checkpoint_intervals\": [\n{rows}\n  ]\n}}\n",
        log_bytes.len(),
        cpus = cpus,
        rows = interval_rows.join(",\n"),
    );

    let path = "docs/outputs/BENCH_recovery.json";
    std::fs::write(path, &json).expect("write BENCH_recovery.json");
    print!("{json}");
    eprintln!("wrote {path}");
}
