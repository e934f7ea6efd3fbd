//! Crash consistency of WAL group commit: a process death that tears a
//! grouped append mid-write must lose *only* the torn transaction.
//! Every statement the database acknowledged — including group members
//! whose bytes the crashing leader flushed on their behalf — survives
//! recovery, and nothing unacknowledged resurrects.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use sqlkernel::{CrashPoint, Database, Fault, FaultPlan, MemLogStore, Value};

const THREADS: usize = 4;
const INSERTS_PER_THREAD: i64 = 60;

type RowSet = HashSet<(usize, i64)>;

/// The repo's fixed schedule seeds, plus the CI-provided `CRASH_SEED`.
fn seeds() -> Vec<u64> {
    let mut seeds = vec![11, 42, 1337];
    if let Some(extra) = std::env::var("CRASH_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        if !seeds.contains(&extra) {
            seeds.push(extra);
        }
    }
    seeds
}

/// Run the concurrent workload until `crash` fires, then recover from
/// the log bytes alone and return (acknowledged, recovered) row sets.
fn run_with_crash(seed: u64, crash: Fault) -> (RowSet, RowSet) {
    let store = MemLogStore::new();
    let db = Database::recover("gc_crash", Arc::new(store.clone())).unwrap();
    let conn = db.connect();
    for t in 0..THREADS {
        conn.execute(&format!("CREATE TABLE t{t} (id INT PRIMARY KEY)"), &[])
            .unwrap();
    }
    db.set_group_commit_window(4);

    // Land the crash while all threads are mid-stream: every statement
    // before it succeeds, so the gated index is always reached.
    let crash_at = 40 + seed % 120;
    db.set_fault_plan(Some(FaultPlan::new(seed).fault_at(crash_at, crash)));

    let acked: Mutex<RowSet> = Mutex::new(HashSet::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            let acked = &acked;
            s.spawn(move || {
                let conn = db.connect();
                for i in 0..INSERTS_PER_THREAD {
                    match conn.execute(&format!("INSERT INTO t{t} VALUES (?)"), &[Value::Int(i)]) {
                        Ok(_) => {
                            acked.lock().unwrap().insert((t, i));
                        }
                        // The crash itself, or the frozen injector
                        // refusing everything after it.
                        Err(_) => break,
                    }
                }
            });
        }
    });
    assert!(
        db.fault_injector().map(|i| i.frozen()).unwrap_or(false),
        "seed {seed}: the scheduled crash never fired"
    );
    let acked = acked.into_inner().unwrap();
    drop(db);

    let db = Database::recover("gc_crash", Arc::new(store)).unwrap();
    let conn = db.connect();
    let mut recovered = HashSet::new();
    for t in 0..THREADS {
        let rs = conn
            .query(&format!("SELECT id FROM t{t} ORDER BY id"), &[])
            .unwrap();
        for row in &rs.rows {
            if let Value::Int(n) = row[0] {
                recovered.insert((t, n));
            }
        }
    }
    (acked, recovered)
}

#[test]
fn torn_group_append_loses_only_the_torn_transaction() {
    for seed in seeds() {
        let (acked, recovered) = run_with_crash(seed, Fault::Crash(CrashPoint::MidApply));
        assert_eq!(
            recovered, acked,
            "seed {seed}: recovery must keep exactly the acknowledged inserts"
        );
    }
}

#[test]
fn crash_before_group_append_loses_nothing_acknowledged() {
    // BeforeLog kills the statement before any bytes reach the store:
    // previously acknowledged group members must all still be there.
    for seed in seeds() {
        let (acked, recovered) = run_with_crash(seed, Fault::Crash(CrashPoint::BeforeLog));
        assert_eq!(recovered, acked, "seed {seed}");
    }
}

#[test]
fn crash_after_group_append_makes_the_last_transaction_durable() {
    // AfterLog crashes once the frame is fully on the log: the dying
    // statement reports an error to its caller, but recovery must
    // replay it — along with every acknowledged member before it.
    for seed in seeds() {
        let (acked, recovered) = run_with_crash(seed, Fault::Crash(CrashPoint::AfterLog));
        assert!(
            recovered.is_superset(&acked),
            "seed {seed}: an acknowledged insert vanished"
        );
        let extras: Vec<_> = recovered.difference(&acked).collect();
        assert!(
            extras.len() <= 1,
            "seed {seed}: only the logged-then-crashed statement may exceed \
             the acknowledged set, got {extras:?}"
        );
    }
}
