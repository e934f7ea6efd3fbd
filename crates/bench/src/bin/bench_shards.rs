//! Regenerates `docs/outputs/BENCH_shards.json` — throughput scaling of
//! sharded multi-engine execution and the price of crossing shards.
//!
//! Two measurements:
//!
//! 1. **Routed traffic**: W workers hash-route single-shard INSERTs
//!    across a fleet of 1/2/4 engines. Each engine has its own WAL and
//!    table locks, so a wider fleet should spread the write path the
//!    same way disjoint tables do inside one engine.
//! 2. **Cross-shard 2PC overhead**: microseconds per committed
//!    transaction for a single-shard `transact` (fast path: plain
//!    COMMIT) versus a two-shard one (prepare → decision → notify,
//!    three WAL forces plus a coordinator write) on the same fleet.
//!
//! `BENCH_SMOKE=1` shrinks the window and skips the JSON write; the
//! assert that both commit paths committed runs in both modes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::report::{self, Metric, Report};
use sqlkernel::shard::ShardedDatabase;
use sqlkernel::{LogStore, MemLogStore, Value};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const WORKERS: usize = 4;
/// Seed of the fleet's coordinator.
const FLEET_SEED: u64 = 7;

fn fresh_fleet(shards: usize) -> ShardedDatabase {
    let stores: Vec<Arc<dyn LogStore>> = (0..shards)
        .map(|_| Arc::new(MemLogStore::new()) as Arc<dyn LogStore>)
        .collect();
    let sdb = ShardedDatabase::recover("bench", &stores, Arc::new(MemLogStore::new()), FLEET_SEED)
        .unwrap();
    for shard in sdb.shards() {
        shard
            .connect()
            .execute("CREATE TABLE KV (K TEXT PRIMARY KEY, V INT)", &[])
            .unwrap();
    }
    sdb
}

/// W workers hammering routed single-shard INSERTs until the window
/// closes. Keys are `w{worker}-{id}`, routed by the canonical hash; each
/// worker keeps one connection per shard. Returns statements/s.
fn measure_routed(shards: usize, window: Duration) -> f64 {
    let sdb = fresh_fleet(shards);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let statements: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let sdb = sdb.clone();
                let stop = &stop;
                s.spawn(move || {
                    let conns: Vec<_> = sdb.shards().iter().map(|db| db.connect()).collect();
                    let mut done = 0u64;
                    let mut id = 0i64;
                    while !stop.load(Ordering::Relaxed) {
                        let key = format!("w{w}-{id}");
                        let conn = &conns[sdb.shard_for(&key)];
                        conn.execute(
                            "INSERT INTO KV VALUES (?, ?)",
                            &[Value::text(&key), Value::Int(id)],
                        )
                        .unwrap();
                        done += 1;
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
    statements as f64 / start.elapsed().as_secs_f64()
}

/// Commit cost: run `transact` bodies touching one shard (fast path) and
/// two shards (full 2PC) back to back on a 2-shard fleet; report µs per
/// committed transaction and the 2PC prepares logged, for each.
fn measure_two_pc(window: Duration) -> [(f64, u64); 2] {
    let sdb = fresh_fleet(2);
    // Two keys pinned to different shards.
    let mut keys = (0..64).map(|i| format!("k{i}"));
    let a = keys.by_ref().find(|k| sdb.shard_for(k) == 0).unwrap();
    let b = keys.by_ref().find(|k| sdb.shard_for(k) == 1).unwrap();

    let time_commits = |cross: bool| -> f64 {
        let start = Instant::now();
        let mut commits = 0u64;
        let mut id = 0i64;
        while start.elapsed() < window {
            let second = if cross { &b } else { &a };
            sdb.transact(|txn| {
                txn.execute(
                    &a,
                    "INSERT INTO KV VALUES (?, ?)",
                    &[Value::text(format!("{a}-{cross}-{id}")), Value::Int(id)],
                )?;
                txn.execute(
                    second,
                    "INSERT INTO KV VALUES (?, ?)",
                    &[
                        Value::text(format!("{second}-x{cross}-{id}")),
                        Value::Int(id),
                    ],
                )?;
                Ok(())
            })
            .unwrap();
            commits += 1;
            id += 1;
        }
        start.elapsed().as_secs_f64() * 1e6 / commits as f64
    };

    let prepares = || -> u64 { sdb.shards().iter().map(|db| db.stats().wal_prepares).sum() };
    let single_us = time_commits(false);
    let single_prepares = prepares();
    let cross_us = time_commits(true);
    assert!(sdb.single_shard_commits() > 0 && sdb.cross_shard_commits() > 0);
    [
        (single_us, single_prepares),
        (cross_us, prepares() - single_prepares),
    ]
}

fn main() {
    let window = Duration::from_millis(if report::smoke() { 40 } else { 400 });
    let mut report = Report::new(
        "shards",
        FLEET_SEED,
        &format!(
            "{WORKERS} workers hash-route single-shard INSERTs across independent engines, \
             then transact() commit cost with 1 vs 2 participants; one {} ms window per \
             point; speedup is bounded by host_cpus; cross-shard overhead buys atomicity \
             across engines (prepare records + coordinator decision write)",
            window.as_millis()
        ),
    );
    let mut base_qps = 0.0f64;
    for &shards in &SHARD_COUNTS {
        let qps = measure_routed(shards, window);
        if shards == 1 {
            base_qps = qps;
        }
        let speedup = qps / base_qps;
        eprintln!("{shards} shards: {qps:>9.0} stmts/s (×{speedup:.2} vs 1 shard)");
        report
            .point()
            .param("shards", shards)
            .metric("routed", Metric::value("stmts/s", qps))
            .metric("speedup_vs_1", Metric::value("x", speedup));
    }

    let [(single_us, single_prepares), (cross_us, cross_prepares)] = measure_two_pc(window);
    eprintln!(
        "2PC: {single_us:.1} µs/commit single-shard, {cross_us:.1} µs/commit cross-shard \
         (×{:.2})",
        cross_us / single_us,
    );
    for (path, us, prepares) in [
        ("single_shard", single_us, single_prepares),
        ("cross_shard_2pc", cross_us, cross_prepares),
    ] {
        report
            .point()
            .param("commit_path", path)
            .metric("commit", Metric::value("us", us))
            .metric("vs_single_shard", Metric::value("x", us / single_us))
            .stat("wal_prepares", prepares);
    }
    report.finish();
}
