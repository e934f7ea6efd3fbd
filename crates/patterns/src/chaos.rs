//! Chaos harness: deterministic fault storms and logical-state
//! fingerprints for differential (exactly-once) testing.
//!
//! The robustness claim the workspace makes is differential: for any
//! fault schedule that eventually permits success, a workflow run under
//! injected faults must leave the database — and emit rowsets —
//! **byte-identical** to the fault-free run. [`db_fingerprint`] and
//! [`rows_fingerprint`] produce the canonical byte strings compared;
//! [`scripted_storm`] produces the seeded schedules.

use sqlkernel::fault::{CrashPoint, Fault, FaultPlan, PrepareCrash, SplitMix64, TransientKind};
use sqlkernel::shard::ShardedDatabase;
use sqlkernel::{Database, QueryResult};

/// Canonical fingerprint of a database's full logical state: every table
/// (sorted by name) with its column list and its rows rendered and
/// sorted. Two databases with the same fingerprint hold the same data,
/// whatever order statements arrived in.
///
/// The fingerprint runs plain SELECTs, so clear any active fault plan
/// (`db.set_fault_plan(None)`) before calling.
pub fn db_fingerprint(db: &Database) -> String {
    db_fingerprint_excluding(db, &[])
}

/// [`db_fingerprint`] over every table EXCEPT the named ones. The crash
/// tests use this to compare user data while skipping bookkeeping whose
/// bytes legitimately differ between a crashed and a clean run (the
/// `FLOW_INSTANCES` breaker column records retry clocks).
pub fn db_fingerprint_excluding(db: &Database, exclude: &[&str]) -> String {
    let conn = db.connect();
    let mut tables = db.table_names();
    tables.retain(|t| !exclude.iter().any(|e| e.eq_ignore_ascii_case(t)));
    tables.sort_unstable();
    let mut out = String::new();
    for t in &tables {
        let rs = conn
            .query(&format!("SELECT * FROM {t}"), &[])
            .expect("fingerprint SELECT on an existing table");
        out.push_str("== ");
        out.push_str(t);
        out.push_str(" (");
        out.push_str(&rs.columns.join(", "));
        out.push_str(")\n");
        let mut rows: Vec<String> = rs
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(sqlkernel::Value::render)
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        rows.sort_unstable();
        for row in rows {
            out.push_str(&row);
            out.push('\n');
        }
    }
    out
}

/// Canonical fingerprint of an emitted rowset, order preserved — emitted
/// results must match the fault-free run row-for-row, not merely as a
/// set.
pub fn rows_fingerprint(rs: &QueryResult) -> String {
    let mut out = rs.columns.join(", ");
    out.push('\n');
    for r in &rs.rows {
        out.push_str(
            &r.iter()
                .map(sqlkernel::Value::render)
                .collect::<Vec<_>>()
                .join("|"),
        );
        out.push('\n');
    }
    out
}

/// Build a scripted fault storm: over the next `horizon` gated
/// statement executions, each index independently faults with
/// `percent`% probability, drawn from a PRNG seeded by `seed` — fully
/// deterministic and replayable.
///
/// Because the injector assigns indices per *execution* (a retry gets a
/// fresh index), runs of consecutive faulted indices behave as
/// fail-k-times schedules. A retry budget larger than the longest run
/// makes the schedule "eventually permitting success".
pub fn scripted_storm(seed: u64, horizon: u64, percent: u64) -> FaultPlan {
    let mut rng = SplitMix64::new(seed);
    let mut plan = FaultPlan::new(seed);
    for i in 0..horizon {
        if rng.next_below(100) < percent {
            plan = plan.fault_at(
                i,
                Fault::Transient(TransientKind::from_index(rng.next_u64())),
            );
        }
    }
    plan
}

/// A crash schedule: `statement_crashes` pins [`Fault::Crash`] points to
/// statement indices, `checkpoint_crashes` kills the process during the
/// given checkpoint attempts. Built by [`crash_storm`] /
/// [`combined_storm`]; applied with [`CrashSchedule::plan`].
///
/// Unlike transient storms, a crash storm describes a *sequence of
/// process lifetimes*: each crash freezes the injector, the test
/// "reboots" with `Database::recover`, installs the schedule's next
/// crash, and continues. [`CrashSchedule::crashes`] is the number of
/// lifetimes minus one.
#[derive(Debug, Clone, Default)]
pub struct CrashSchedule {
    /// `(statement_index, crash_point)` pairs, one per process lifetime.
    pub statement_crashes: Vec<(u64, CrashPoint)>,
    /// Checkpoint indices at which `DuringCheckpoint` crashes fire.
    pub checkpoint_crashes: Vec<u64>,
    /// Transient-fault plan mixed into every lifetime (empty horizon =
    /// pure crash storm).
    pub transient: Option<(u64, u64, u64)>,
}

impl CrashSchedule {
    /// Number of scheduled crashes across all lifetimes.
    pub fn crashes(&self) -> usize {
        self.statement_crashes.len() + self.checkpoint_crashes.len()
    }

    /// The fault plan for process lifetime `life` (0-based): the
    /// lifetime's scheduled crash (if any) plus the shared transient
    /// storm. Lifetimes past the schedule run crash-free — the final,
    /// completing lifetime.
    pub fn plan(&self, life: usize) -> FaultPlan {
        let seed = match self.transient {
            Some((seed, _, _)) => seed,
            None => 0,
        };
        let mut plan = match self.transient {
            Some((seed, horizon, percent)) => scripted_storm(seed, horizon, percent),
            None => FaultPlan::new(seed),
        };
        if let Some((idx, point)) = self.statement_crashes.get(life) {
            plan = plan.fault_at(*idx, Fault::Crash(*point));
        }
        let ckpt_life = life.saturating_sub(self.statement_crashes.len());
        if self.statement_crashes.get(life).is_none() {
            if let Some(ckpt) = self.checkpoint_crashes.get(ckpt_life) {
                plan = plan.crash_at_checkpoint(*ckpt);
            }
        }
        plan
    }
}

/// Build a pure crash storm: `crashes` process deaths at seeded
/// statement indices below `horizon`, cycling through the crash points
/// (`BeforeLog`, `AfterLog`, `MidApply`) so every protocol window is
/// exercised. Deterministic in `seed`.
pub fn crash_storm(seed: u64, horizon: u64, crashes: usize) -> CrashSchedule {
    let mut rng = SplitMix64::new(seed);
    let points = [
        CrashPoint::BeforeLog,
        CrashPoint::AfterLog,
        CrashPoint::MidApply,
    ];
    let mut schedule = CrashSchedule::default();
    for i in 0..crashes {
        let idx = rng.next_below(horizon.max(1));
        schedule
            .statement_crashes
            .push((idx, points[i % points.len()]));
    }
    schedule
}

/// Build a combined storm: the crash schedule of [`crash_storm`] with a
/// [`scripted_storm`] of transient faults layered onto every lifetime.
/// This is the harshest schedule the differential tests run: statements
/// are failing transiently *and* the process keeps dying, yet the final
/// database fingerprint must equal the clean run's.
pub fn combined_storm(
    seed: u64,
    horizon: u64,
    crashes: usize,
    transient_percent: u64,
) -> CrashSchedule {
    let mut schedule = crash_storm(seed, horizon, crashes);
    schedule.transient = Some((seed.wrapping_add(1), horizon, transient_percent));
    schedule
}

/// Merged fingerprint of a *sharded* database: same-named tables across
/// the given engines are unioned row-wise before sorting, producing
/// exactly the [`db_fingerprint_excluding`] byte format — so a sharded
/// run compares directly against its unsharded baseline. Hash routing
/// partitions rows disjointly, so the union is a true merge.
pub fn merged_fingerprint(dbs: &[Database], exclude: &[&str]) -> String {
    use std::collections::BTreeMap;
    // table name → (columns header, merged rendered rows)
    let mut tables: BTreeMap<String, (String, Vec<String>)> = BTreeMap::new();
    for db in dbs {
        let conn = db.connect();
        let mut names = db.table_names();
        names.retain(|t| !exclude.iter().any(|e| e.eq_ignore_ascii_case(t)));
        for t in names {
            let rs = conn
                .query(&format!("SELECT * FROM {t}"), &[])
                .expect("fingerprint SELECT on an existing table");
            let entry = tables
                .entry(t)
                .or_insert_with(|| (rs.columns.join(", "), Vec::new()));
            entry.1.extend(rs.rows.iter().map(|r| {
                r.iter()
                    .map(sqlkernel::Value::render)
                    .collect::<Vec<_>>()
                    .join("|")
            }));
        }
    }
    let mut out = String::new();
    for (name, (columns, mut rows)) in tables {
        out.push_str("== ");
        out.push_str(&name);
        out.push_str(" (");
        out.push_str(&columns);
        out.push_str(")\n");
        rows.sort_unstable();
        for row in rows {
            out.push_str(&row);
            out.push('\n');
        }
    }
    out
}

/// One scheduled process death inside a sharded 2PC deployment — each
/// variant targets a different protocol window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardCrash {
    /// Kill shard `shard` right after its `prepare_index`-th prepare is
    /// acknowledged: the classic in-doubt window, where only the
    /// coordinator's decision log knows the transaction's fate.
    ParticipantPrepared { shard: usize, prepare_index: u64 },
    /// Kill the coordinator after its `statement_index`-th gated
    /// statement (a decision `INSERT`) is durably logged but before any
    /// participant is notified: the decision exists, nobody heard it.
    CoordinatorPreNotify { statement_index: u64 },
    /// Kill shard `shard` mid-append of its `prepare_index`-th prepare,
    /// leaving a torn `Prepare` frame: a torn vote is no vote, so
    /// recovery treats the transaction as a loser.
    TornPrepare { shard: usize, prepare_index: u64 },
    /// Plain statement crash on shard `shard` (the PR 4 crash points,
    /// aimed at one shard of the fleet).
    Statement {
        shard: usize,
        index: u64,
        point: CrashPoint,
    },
}

/// A shard-targeted crash schedule: one process death per lifetime,
/// cycling through every 2PC protocol window. Applied per lifetime with
/// [`ShardCrashSchedule::install`]; lifetimes past the schedule run
/// crash-free (the final, completing lifetime).
#[derive(Debug, Clone, Default)]
pub struct ShardCrashSchedule {
    /// The crash for each lifetime, in order.
    pub crashes: Vec<ShardCrash>,
    seed: u64,
}

impl ShardCrashSchedule {
    /// Number of scheduled crashes (= lifetimes minus the clean last one).
    pub fn crashes(&self) -> usize {
        self.crashes.len()
    }

    /// Install lifetime `life`'s fault plans across the fleet: the
    /// targeted engine gets the scheduled crash, everyone else an empty
    /// plan (cleared), so exactly one process dies per lifetime.
    pub fn install(&self, life: usize, sdb: &ShardedDatabase) {
        for shard in sdb.shards() {
            shard.set_fault_plan(None);
        }
        sdb.coordinator().set_fault_plan(None);
        let Some(crash) = self.crashes.get(life) else {
            return;
        };
        let seed = self.seed ^ (life as u64);
        match *crash {
            ShardCrash::ParticipantPrepared {
                shard,
                prepare_index,
            } => sdb.shard(shard % sdb.num_shards()).set_fault_plan(Some(
                FaultPlan::new(seed).crash_at_prepare(prepare_index, PrepareCrash::AfterAck),
            )),
            ShardCrash::TornPrepare {
                shard,
                prepare_index,
            } => sdb.shard(shard % sdb.num_shards()).set_fault_plan(Some(
                FaultPlan::new(seed).crash_at_prepare(prepare_index, PrepareCrash::Torn),
            )),
            ShardCrash::CoordinatorPreNotify { statement_index } => {
                // The coordinator's gated statements are the decision
                // INSERTs; AfterLog lands the decision durably and then
                // kills the process before anyone hears it.
                sdb.coordinator().set_fault_plan(Some(
                    FaultPlan::new(seed)
                        .fault_at(statement_index, Fault::Crash(CrashPoint::AfterLog)),
                ));
            }
            ShardCrash::Statement {
                shard,
                index,
                point,
            } => sdb.shard(shard % sdb.num_shards()).set_fault_plan(Some(
                FaultPlan::new(seed).fault_at(index, Fault::Crash(point)),
            )),
        }
    }
}

/// Build a shard-targeted crash storm: `crashes` process deaths cycling
/// through the four [`ShardCrash`] variants, aimed at seeded shards and
/// protocol indices. `xshard_txns` bounds the prepare/decision indices
/// (how many cross-shard commits a lifetime attempts); `horizon` bounds
/// plain statement indices. Deterministic in `seed`.
pub fn sharded_crash_storm(
    seed: u64,
    num_shards: usize,
    horizon: u64,
    xshard_txns: u64,
    crashes: usize,
) -> ShardCrashSchedule {
    let mut rng = SplitMix64::new(seed);
    let points = [
        CrashPoint::BeforeLog,
        CrashPoint::AfterLog,
        CrashPoint::MidApply,
    ];
    let mut schedule = ShardCrashSchedule {
        crashes: Vec::with_capacity(crashes),
        seed,
    };
    for i in 0..crashes {
        let shard = rng.next_below(num_shards.max(1) as u64) as usize;
        let prepare_index = rng.next_below(xshard_txns.max(1));
        let crash = match i % 4 {
            0 => ShardCrash::ParticipantPrepared {
                shard,
                prepare_index,
            },
            1 => ShardCrash::CoordinatorPreNotify {
                statement_index: prepare_index,
            },
            2 => ShardCrash::TornPrepare {
                shard,
                prepare_index,
            },
            _ => ShardCrash::Statement {
                shard,
                index: rng.next_below(horizon.max(1)),
                point: points[(i / 4) % points.len()],
            },
        };
        schedule.crashes.push(crash);
    }
    schedule
}

/// Longest run of consecutive faulted indices a [`scripted_storm`] with
/// these arguments contains — callers size their retry budget above it.
pub fn storm_longest_run(seed: u64, horizon: u64, percent: u64) -> u32 {
    let mut rng = SplitMix64::new(seed);
    let (mut longest, mut current) = (0u32, 0u32);
    for _ in 0..horizon {
        if rng.next_below(100) < percent {
            rng.next_u64(); // the kind draw consumed by scripted_storm
            current += 1;
            longest = longest.max(current);
        } else {
            current = 0;
        }
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkernel::Value;

    fn small_db(name: &str) -> Database {
        let db = Database::new(name);
        db.connect()
            .execute_script(
                "CREATE TABLE a (x INT PRIMARY KEY, y TEXT);
                 INSERT INTO a VALUES (2, 'two'), (1, 'one');
                 CREATE TABLE b (z INT PRIMARY KEY);",
            )
            .unwrap();
        db
    }

    #[test]
    fn fingerprint_is_insertion_order_independent() {
        let d1 = small_db("d1");
        let d2 = Database::new("d2");
        d2.connect()
            .execute_script(
                "CREATE TABLE b (z INT PRIMARY KEY);
                 CREATE TABLE a (x INT PRIMARY KEY, y TEXT);
                 INSERT INTO a VALUES (1, 'one');
                 INSERT INTO a VALUES (2, 'two');",
            )
            .unwrap();
        assert_eq!(db_fingerprint(&d1), db_fingerprint(&d2));
    }

    #[test]
    fn fingerprint_detects_differences() {
        let d1 = small_db("d1");
        let d2 = small_db("d2");
        d2.connect()
            .execute("UPDATE a SET y = 'TWO' WHERE x = 2", &[])
            .unwrap();
        assert_ne!(db_fingerprint(&d1), db_fingerprint(&d2));
    }

    #[test]
    fn rows_fingerprint_is_order_sensitive() {
        let a = QueryResult {
            columns: vec!["c".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        };
        let b = QueryResult {
            columns: vec!["c".into()],
            rows: vec![vec![Value::Int(2)], vec![Value::Int(1)]],
        };
        assert_ne!(rows_fingerprint(&a), rows_fingerprint(&b));
    }

    #[test]
    fn storms_are_deterministic_and_seed_sensitive() {
        let runs = |seed| {
            let db = small_db("s");
            db.set_fault_plan(Some(scripted_storm(seed, 50, 30)));
            let conn = db.connect();
            let hits: Vec<bool> = (0..50)
                .map(|_| conn.query("SELECT COUNT(*) FROM a", &[]).is_err())
                .collect();
            hits
        };
        assert_eq!(runs(42), runs(42));
        assert_ne!(runs(42), runs(43));
    }

    #[test]
    fn crash_storms_are_deterministic_and_cycle_crash_points() {
        let a = crash_storm(9, 40, 4);
        let b = crash_storm(9, 40, 4);
        assert_eq!(a.statement_crashes, b.statement_crashes);
        assert_eq!(a.crashes(), 4);
        let points: Vec<CrashPoint> = a.statement_crashes.iter().map(|(_, p)| *p).collect();
        assert_eq!(points[0], CrashPoint::BeforeLog);
        assert_eq!(points[1], CrashPoint::AfterLog);
        assert_eq!(points[2], CrashPoint::MidApply);
        assert_eq!(points[3], CrashPoint::BeforeLog);
        assert_ne!(
            crash_storm(9, 40, 4).statement_crashes,
            crash_storm(10, 40, 4).statement_crashes,
        );
    }

    #[test]
    fn crash_schedule_plans_one_crash_per_lifetime() {
        let mut schedule = crash_storm(3, 30, 2);
        schedule.checkpoint_crashes.push(0);
        assert_eq!(schedule.crashes(), 3);
        // Lifetimes 0..=1 carry statement crashes, lifetime 2 the
        // checkpoint crash, lifetime 3 is clean. Verify by driving a
        // database with each plan and watching which ones freeze.
        for life in 0..4 {
            let db = Database::new("c");
            let store = std::sync::Arc::new(sqlkernel::MemLogStore::new());
            let db = {
                drop(db);
                Database::recover("c", store).unwrap()
            };
            db.connect()
                .execute("CREATE TABLE t (v INT PRIMARY KEY)", &[])
                .unwrap();
            db.set_fault_plan(Some(schedule.plan(life)));
            let conn = db.connect();
            for i in 0..40 {
                let _ = conn.execute(&format!("INSERT INTO t VALUES ({i})"), &[]);
            }
            let _ = db.checkpoint();
            let frozen = db.fault_injector().map(|i| i.frozen()).unwrap_or(false);
            assert_eq!(frozen, life < 3, "lifetime {life}");
        }
    }

    #[test]
    fn combined_storm_layers_transients_onto_crashes() {
        let schedule = combined_storm(5, 50, 2, 30);
        assert_eq!(schedule.crashes(), 2);
        assert!(schedule.transient.is_some());
        // A late lifetime's plan still carries the transient storm.
        let db = small_db("m");
        db.set_fault_plan(Some(schedule.plan(9)));
        let conn = db.connect();
        let failures = (0..50)
            .filter(|_| conn.query("SELECT COUNT(*) FROM a", &[]).is_err())
            .count();
        assert!(failures > 0, "transient layer must fire");
        assert!(
            !db.fault_injector().unwrap().frozen(),
            "no crash scheduled past the storm"
        );
    }

    #[test]
    fn merged_fingerprint_equals_unsharded_fingerprint() {
        // The same logical rows, whole on one engine vs split across
        // two, must fingerprint byte-identically.
        let whole = Database::new("whole");
        whole
            .connect()
            .execute_script(
                "CREATE TABLE kv (k TEXT PRIMARY KEY, v INT);
                 INSERT INTO kv VALUES ('a', 1), ('b', 2), ('c', 3);",
            )
            .unwrap();
        let s0 = Database::new("s0");
        let s1 = Database::new("s1");
        for s in [&s0, &s1] {
            s.connect()
                .execute("CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)", &[])
                .unwrap();
        }
        s0.connect()
            .execute("INSERT INTO kv VALUES ('b', 2)", &[])
            .unwrap();
        s1.connect()
            .execute_script("INSERT INTO kv VALUES ('c', 3); INSERT INTO kv VALUES ('a', 1);")
            .unwrap();
        assert_eq!(merged_fingerprint(&[s0, s1], &[]), db_fingerprint(&whole),);
    }

    #[test]
    fn sharded_storms_are_deterministic_and_cycle_variants() {
        let a = sharded_crash_storm(17, 4, 100, 10, 8);
        let b = sharded_crash_storm(17, 4, 100, 10, 8);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.crashes(), 8);
        assert!(matches!(
            a.crashes[0],
            ShardCrash::ParticipantPrepared { .. }
        ));
        assert!(matches!(
            a.crashes[1],
            ShardCrash::CoordinatorPreNotify { .. }
        ));
        assert!(matches!(a.crashes[2], ShardCrash::TornPrepare { .. }));
        assert!(matches!(a.crashes[3], ShardCrash::Statement { .. }));
        assert_ne!(
            sharded_crash_storm(18, 4, 100, 10, 8).crashes,
            a.crashes,
            "seed must matter"
        );
    }

    #[test]
    fn longest_run_matches_the_storm() {
        // Re-derive the storm's faulted indices and verify the run
        // length helper agrees.
        for seed in [1u64, 7, 99] {
            let mut rng = SplitMix64::new(seed);
            let mut faulted = Vec::new();
            for i in 0..200u64 {
                if rng.next_below(100) < 25 {
                    rng.next_u64();
                    faulted.push(i);
                }
            }
            let (mut longest, mut current, mut prev) = (0u32, 0u32, None::<u64>);
            for &i in &faulted {
                current = match prev {
                    Some(p) if p + 1 == i => current + 1,
                    _ => 1,
                };
                longest = longest.max(current);
                prev = Some(i);
            }
            assert_eq!(storm_longest_run(seed, 200, 25), longest);
        }
    }
}
