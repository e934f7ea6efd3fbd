//! Sharded multi-engine execution with crash-tolerant two-phase commit.
//!
//! A [`ShardedDatabase`] hash-partitions state across N independent
//! [`Database`] engines — each with its own WAL, table locks, and MVCC
//! clock — plus one coordinator engine holding the 2PC decision log.
//! Single-shard statements route directly to their shard by key
//! ([`shard_of`]); cross-shard writes run through a two-phase commit
//! riding the existing WAL:
//!
//! 1. **Phase 1 (prepare).** Every participant durably appends a
//!    `Prepare` record carrying the global transaction id and everything
//!    a later `Commit` needs (epoch, sequence states), then votes yes.
//!    Any failed or dead participant vetoes: the coordinator aborts the
//!    survivors and *presumes abort* for the dead one — its unterminated
//!    (or merely prepared) transaction resolves to abort at recovery.
//! 2. **Decision.** The coordinator inserts a commit row into its
//!    `TWO_PC_DECISIONS` table; the row's durability *is* the decision
//!    point, riding the ordinary WAL commit of the `INSERT`. Presumed
//!    abort means no row is ever written for aborts.
//! 3. **Phase 2 (notify).** Participants finish with `COMMIT`. A
//!    participant that dies in the window between its acknowledged
//!    prepare and the notify is *in-doubt*: recovery finds the
//!    unterminated `Prepare` on its log and resolves it against the
//!    decision log ([`ShardedDatabase::recover`]) — commit if the
//!    decision row exists, abort otherwise — with seeded retry/backoff
//!    when the coordinator answers transiently, and a hard error (never
//!    a guess) when it stays unreachable.
//!
//! The coordinator itself can die between logging the decision and
//! notifying anyone: its own recovery replays the decision `INSERT`, so
//! the in-doubt participants still learn the truth.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::db::{Connection, Database, StatementResult};
use crate::error::{SqlError, SqlResult};
use crate::fault::SplitMix64;
use crate::types::Value;
use crate::wal::{InDoubtTxn, LogStore};

/// Attempts the in-doubt resolver makes against a transiently failing
/// coordinator before giving up (and failing the recovery).
const IN_DOUBT_RETRY_ATTEMPTS: u64 = 6;

/// Stable, unseeded FNV-1a shard router: the same key maps to the same
/// shard on every host, every run, every shard-count-N deployment. Keep
/// this canonical — FLOW_INSTANCES placement and every routed statement
/// depend on it.
pub fn shard_of(key: &str, n: usize) -> usize {
    debug_assert!(n > 0, "shard_of over zero shards");
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % n as u64) as usize
}

/// The coordinator's decision table. A row `(gid, 'commit')` is the
/// durable commit decision for global transaction `gid`; absence of a
/// row means abort (presumed abort — aborts are never logged).
const DECISIONS_TABLE: &str = "TWO_PC_DECISIONS";

struct ShardedInner {
    name: String,
    shards: Vec<Database>,
    coordinator: Database,
    /// Next global transaction id; recovered past every decision and
    /// in-doubt gid so ids never collide across restarts.
    next_gid: AtomicU64,
    /// Cross-shard transactions driven through the full 2PC protocol.
    cross_shard_commits: AtomicU64,
    /// Transactions that touched one shard and took the plain-commit
    /// fast path (no prepare, no decision row).
    single_shard_commits: AtomicU64,
}

/// N independent engines plus a 2PC coordinator, routed by key hash.
/// Cloning is cheap (`Arc`); all clones drive the same shards.
#[derive(Clone)]
pub struct ShardedDatabase {
    inner: Arc<ShardedInner>,
}

impl std::fmt::Debug for ShardedDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDatabase")
            .field("name", &self.inner.name)
            .field("shards", &self.inner.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedDatabase {
    /// Recover (or bootstrap — the stores may be empty) a sharded
    /// database from its logs. Recovery order matters: the coordinator
    /// first, so its decision table reflects every durable decision,
    /// then each shard with an in-doubt resolver that consults it.
    /// `seed` drives the resolver's retry/backoff jitter.
    pub fn recover(
        name: impl Into<String>,
        stores: &[Arc<dyn LogStore>],
        coord_store: Arc<dyn LogStore>,
        seed: u64,
    ) -> SqlResult<ShardedDatabase> {
        let name = name.into();
        if stores.is_empty() {
            return Err(SqlError::Connection(
                "a sharded database needs at least one shard store".into(),
            ));
        }
        let coordinator = Database::recover(format!("{name}.coord"), coord_store)?;
        if !coordinator.has_table(DECISIONS_TABLE) {
            coordinator.connect().execute(
                "CREATE TABLE TWO_PC_DECISIONS (Gid INT PRIMARY KEY, Decision TEXT)",
                &[],
            )?;
        }
        // Highest gid anywhere on durable record: decision rows plus the
        // in-doubt gids the shard resolvers surface below.
        let mut max_gid: u64 = 0;
        {
            let rs = coordinator
                .connect()
                .query("SELECT Gid FROM TWO_PC_DECISIONS", &[])?;
            for row in &rs.rows {
                if let Value::Int(g) = &row[0] {
                    max_gid = max_gid.max(*g as u64);
                }
            }
        }
        let max_in_doubt = AtomicU64::new(0);
        let mut shards = Vec::with_capacity(stores.len());
        for (i, store) in stores.iter().enumerate() {
            let shard = Database::recover_resolving(
                format!("{name}#{i}"),
                Arc::clone(store),
                |txn: &InDoubtTxn| {
                    max_in_doubt.fetch_max(txn.gid, Ordering::Relaxed);
                    decide_with_retry(&coordinator, seed, txn)
                },
            )?;
            shards.push(shard);
        }
        max_gid = max_gid.max(max_in_doubt.load(Ordering::Relaxed));
        Ok(ShardedDatabase {
            inner: Arc::new(ShardedInner {
                name,
                shards,
                coordinator,
                next_gid: AtomicU64::new(max_gid + 1),
                cross_shard_commits: AtomicU64::new(0),
                single_shard_commits: AtomicU64::new(0),
            }),
        })
    }

    /// The sharded database's name (shards are `name#i`, the coordinator
    /// `name.coord`).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard engines, in shard order.
    pub fn shards(&self) -> &[Database] {
        &self.inner.shards
    }

    /// The shard a key routes to.
    pub fn shard_for(&self, key: &str) -> usize {
        shard_of(key, self.inner.shards.len())
    }

    /// Engine for shard `i`.
    pub fn shard(&self, i: usize) -> &Database {
        &self.inner.shards[i]
    }

    /// Engine the given key routes to — the single-shard fast path:
    /// connect here and run ordinary statements, no 2PC involved.
    pub fn shard_db_for(&self, key: &str) -> &Database {
        &self.inner.shards[self.shard_for(key)]
    }

    /// The coordinator engine holding the decision log.
    pub fn coordinator(&self) -> &Database {
        &self.inner.coordinator
    }

    /// Publish every shard (`name#i`) and the coordinator (`name.coord`)
    /// in the shared DSN registry, so the workflow stacks reach shards
    /// through their existing `Database::lookup` fallback.
    pub fn publish(&self) {
        for shard in &self.inner.shards {
            shard.publish();
        }
        self.inner.coordinator.publish();
    }

    /// Checkpoint every shard and the coordinator. Fails if any engine
    /// refuses (open transactions, prepared window, crashed).
    pub fn checkpoint_all(&self) -> SqlResult<()> {
        for shard in &self.inner.shards {
            shard.checkpoint()?;
        }
        self.inner.coordinator.checkpoint()
    }

    /// Cross-shard transactions committed through the full 2PC protocol.
    pub fn cross_shard_commits(&self) -> u64 {
        self.inner.cross_shard_commits.load(Ordering::Relaxed)
    }

    /// Transactions that touched one shard and skipped the protocol.
    pub fn single_shard_commits(&self) -> u64 {
        self.inner.single_shard_commits.load(Ordering::Relaxed)
    }

    /// Run `body` as one atomic transaction across however many shards
    /// it touches. Statements route by key through the [`CrossShardTxn`]
    /// handle; a shard's transaction is begun lazily on first touch.
    /// One participant commits plainly; two or more go through
    /// prepare → decision → notify. On any error the transaction is
    /// aborted everywhere it *can* be — a dead participant is left for
    /// presumed-abort recovery, and a coordinator that crashed while
    /// logging the decision leaves the participants prepared (in-doubt)
    /// because the decision may have landed: only recovery against the
    /// actual decision log can tell.
    pub fn transact<T>(
        &self,
        body: impl FnOnce(&mut CrossShardTxn<'_>) -> SqlResult<T>,
    ) -> SqlResult<T> {
        let mut txn = CrossShardTxn {
            sdb: self,
            conns: (0..self.inner.shards.len()).map(|_| None).collect(),
        };
        let value = match body(&mut txn) {
            Ok(v) => v,
            Err(e) => {
                // Nothing is prepared yet: plain rollback everywhere.
                for conn in txn.conns.iter().flatten() {
                    conn.rollback_if_open();
                }
                return Err(e);
            }
        };
        let participants: Vec<&Connection> = txn.conns.iter().flatten().collect();
        match participants.len() {
            0 => Ok(value),
            1 => {
                participants[0].execute("COMMIT", &[])?;
                self.inner
                    .single_shard_commits
                    .fetch_add(1, Ordering::Relaxed);
                Ok(value)
            }
            _ => {
                self.commit_two_phase(&participants)?;
                self.inner
                    .cross_shard_commits
                    .fetch_add(1, Ordering::Relaxed);
                Ok(value)
            }
        }
    }

    /// The 2PC driver for `transact`. Participants all have open
    /// transactions; on return they are all terminated, detached
    /// in-doubt, or dead.
    fn commit_two_phase(&self, participants: &[&Connection]) -> SqlResult<()> {
        let gid = self.inner.next_gid.fetch_add(1, Ordering::Relaxed);

        // Phase 1: collect yes-votes. First veto aborts every live
        // participant — prepared ones via phase-2 abort, unprepared ones
        // via plain rollback; a dead one is left for presumed-abort
        // recovery (no decision row will ever exist for this gid).
        for (i, conn) in participants.iter().enumerate() {
            if let Err(e) = conn.prepare_transaction(gid) {
                for peer in &participants[..i] {
                    let _ = peer.abort_prepared();
                }
                for peer in &participants[i..] {
                    peer.rollback_if_open();
                }
                return Err(e);
            }
        }

        // Decision point: the INSERT's WAL commit is the moment the
        // global transaction commits.
        let decided = self.inner.coordinator.connect().execute(
            "INSERT INTO TWO_PC_DECISIONS VALUES (?, 'commit')",
            &[Value::Int(gid as i64)],
        );
        match decided {
            Ok(_) => {}
            Err(SqlError::Crashed(_)) => {
                // The coordinator died *while logging the decision* — the
                // row may or may not be durable, so neither committing nor
                // aborting here is safe. Leave every participant prepared:
                // dropping the connections detaches (never aborts) them,
                // and recovery resolves against whatever the decision log
                // actually holds.
                return Err(SqlError::Crashed(
                    "2PC coordinator crashed at the decision point; participants left in doubt"
                        .into(),
                ));
            }
            Err(e) => {
                // The decision never reached the log (e.g. transient):
                // presumed abort, told to everyone still alive.
                for peer in participants {
                    let _ = peer.abort_prepared();
                }
                return Err(e);
            }
        }

        // Phase 2: notify. A participant that died in the window stays
        // in-doubt on its own log; recovery finds the decision row and
        // finishes the commit — the global transaction is already
        // committed either way, so a dead shard is not an error here.
        let mut failure = None;
        for conn in participants {
            match conn.commit_prepared() {
                Ok(()) | Err(SqlError::Crashed(_)) => {}
                Err(e) => failure = Some(e),
            }
        }
        match failure {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// The routing handle `ShardedDatabase::transact` passes to its body:
/// statements route by key, and each shard's transaction is begun
/// lazily the first time a key lands on it.
pub struct CrossShardTxn<'a> {
    sdb: &'a ShardedDatabase,
    conns: Vec<Option<Connection>>,
}

impl CrossShardTxn<'_> {
    /// The shard the given key routes to.
    pub fn shard_for(&self, key: &str) -> usize {
        self.sdb.shard_for(key)
    }

    fn conn_for_shard(&mut self, shard: usize) -> SqlResult<&Connection> {
        if self.conns[shard].is_none() {
            let conn = self.sdb.inner.shards[shard].connect();
            conn.execute("BEGIN", &[])?;
            self.conns[shard] = Some(conn);
        }
        Ok(self.conns[shard].as_ref().expect("just installed"))
    }

    /// Execute a statement on the shard the key routes to.
    pub fn execute(
        &mut self,
        key: &str,
        sql: &str,
        params: &[Value],
    ) -> SqlResult<StatementResult> {
        let shard = self.shard_for(key);
        self.execute_on(shard, sql, params)
    }

    /// Execute a statement on an explicit shard (for callers that
    /// already resolved routing).
    pub fn execute_on(
        &mut self,
        shard: usize,
        sql: &str,
        params: &[Value],
    ) -> SqlResult<StatementResult> {
        self.conn_for_shard(shard)?.execute(sql, params)
    }

    /// Query the shard the key routes to (inside the transaction, so
    /// reads see the transaction's own writes).
    pub fn query(
        &mut self,
        key: &str,
        sql: &str,
        params: &[Value],
    ) -> SqlResult<crate::QueryResult> {
        let shard = self.shard_for(key);
        self.conn_for_shard(shard)?.query(sql, params)
    }
}

/// Consult the coordinator's decision table for an in-doubt transaction,
/// with seeded exponential backoff across transient failures. A decision
/// row means commit; a clean "no row" means presumed abort; a coordinator
/// that stays unreachable is a hard error — recovery must not guess.
fn decide_with_retry(coordinator: &Database, seed: u64, txn: &InDoubtTxn) -> SqlResult<bool> {
    let conn = coordinator.connect();
    let mut rng = SplitMix64::new(seed ^ txn.gid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut backoff: u64 = 1;
    let mut last_err = None;
    for attempt in 0..IN_DOUBT_RETRY_ATTEMPTS {
        match conn.query(
            "SELECT Decision FROM TWO_PC_DECISIONS WHERE Gid = ?",
            &[Value::Int(txn.gid as i64)],
        ) {
            Ok(rs) => return Ok(!rs.rows.is_empty()),
            Err(e) if e.class() == "transient" && attempt + 1 < IN_DOUBT_RETRY_ATTEMPTS => {
                // Deterministic jittered backoff on the coordinator's
                // virtual clock (shared with its fault injector, so the
                // schedule replays identically).
                let wait = backoff + rng.next_below(backoff + 1);
                if let Some(inj) = coordinator.fault_injector() {
                    inj.advance_ticks(wait);
                }
                coordinator.note_retry();
                backoff = backoff.saturating_mul(2);
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        SqlError::Connection("2PC decision log unreachable during in-doubt resolution".into())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemLogStore;

    fn mem_stores(n: usize) -> (Vec<Arc<dyn LogStore>>, Arc<dyn LogStore>) {
        let stores: Vec<Arc<dyn LogStore>> = (0..n)
            .map(|_| Arc::new(MemLogStore::new()) as Arc<dyn LogStore>)
            .collect();
        (stores, Arc::new(MemLogStore::new()))
    }

    fn fresh(n: usize) -> (ShardedDatabase, Vec<Arc<dyn LogStore>>, Arc<dyn LogStore>) {
        let (stores, coord) = mem_stores(n);
        let sdb = ShardedDatabase::recover("s", &stores, Arc::clone(&coord), 7).unwrap();
        for shard in sdb.shards() {
            shard
                .connect()
                .execute("CREATE TABLE KV (K TEXT PRIMARY KEY, V INT)", &[])
                .unwrap();
        }
        (sdb, stores, coord)
    }

    /// Placement is pinned, not only stable within a run: rows already
    /// stored under these keys must keep their shard across releases.
    #[test]
    fn routing_matches_pinned_placements_at_four_shards() {
        let pinned = [
            ("", 1),
            ("i1", 3),
            ("i2", 2),
            ("key-0", 1),
            ("key-1", 2),
            ("key-2", 3),
            ("key-3", 0),
            ("inst-41", 3),
            ("order-7", 3),
        ];
        for (key, shard) in pinned {
            assert_eq!(shard_of(key, 4), shard, "key {key:?}");
        }
    }

    #[test]
    fn routing_is_stable_and_covers_all_shards() {
        let keys: Vec<String> = (0..64).map(|i| format!("key-{i}")).collect();
        let a: Vec<usize> = keys.iter().map(|k| shard_of(k, 4)).collect();
        let b: Vec<usize> = keys.iter().map(|k| shard_of(k, 4)).collect();
        assert_eq!(a, b);
        for s in 0..4 {
            assert!(a.contains(&s), "no key routed to shard {s}");
        }
        assert!(keys.iter().all(|k| shard_of(k, 1) == 0));
    }

    #[test]
    fn cross_shard_commit_lands_on_every_shard() {
        let (sdb, _, _) = fresh(4);
        let keys: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();
        sdb.transact(|t| {
            for (i, k) in keys.iter().enumerate() {
                t.execute(
                    k,
                    "INSERT INTO KV VALUES (?, ?)",
                    &[Value::text(k.clone()), Value::Int(i as i64)],
                )?;
            }
            Ok(())
        })
        .unwrap();
        let total: usize = sdb
            .shards()
            .iter()
            .map(|s| s.table_len("KV").unwrap())
            .sum();
        assert_eq!(total, keys.len());
        assert!(sdb.cross_shard_commits() >= 1);
        // The commit decision is on the coordinator's durable record.
        let rs = sdb
            .coordinator()
            .connect()
            .query("SELECT Gid FROM TWO_PC_DECISIONS", &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn single_shard_transactions_skip_the_protocol() {
        let (sdb, _, _) = fresh(4);
        sdb.transact(|t| {
            t.execute("solo", "INSERT INTO KV VALUES ('solo', 1)", &[])?;
            Ok(())
        })
        .unwrap();
        assert_eq!(sdb.single_shard_commits(), 1);
        assert_eq!(sdb.cross_shard_commits(), 0);
        let rs = sdb
            .coordinator()
            .connect()
            .query("SELECT Gid FROM TWO_PC_DECISIONS", &[])
            .unwrap();
        assert!(rs.rows.is_empty(), "fast path must not log a decision");
    }

    #[test]
    fn body_error_rolls_back_every_touched_shard() {
        let (sdb, _, _) = fresh(4);
        let keys: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();
        let err = sdb
            .transact(|t| -> SqlResult<()> {
                for k in &keys {
                    t.execute(k, "INSERT INTO KV VALUES (?, 0)", &[Value::text(k.clone())])?;
                }
                Err(SqlError::Runtime("business rule veto".into()))
            })
            .unwrap_err();
        assert!(err.to_string().contains("veto"));
        for shard in sdb.shards() {
            assert_eq!(shard.table_len("KV").unwrap(), 0, "abort left residue");
        }
    }

    #[test]
    fn in_doubt_transaction_commits_from_decision_log_after_crash() {
        use crate::fault::{FaultPlan, PrepareCrash};
        let (sdb, stores, coord) = fresh(2);
        // Find two keys on different shards.
        let k0 = (0..64)
            .map(|i| format!("a{i}"))
            .find(|k| sdb.shard_for(k) == 0)
            .unwrap();
        let k1 = (0..64)
            .map(|i| format!("b{i}"))
            .find(|k| sdb.shard_for(k) == 1)
            .unwrap();
        // Shard 1's participant dies right after acknowledging its vote
        // (the in-doubt window); the coordinator still logs commit and
        // shard 0 commits normally.
        sdb.shard(1).set_fault_plan(Some(
            FaultPlan::new(3).crash_at_prepare(0, PrepareCrash::AfterAck),
        ));
        sdb.transact(|t| {
            t.execute(
                &k0,
                "INSERT INTO KV VALUES (?, 10)",
                &[Value::text(k0.clone())],
            )?;
            t.execute(
                &k1,
                "INSERT INTO KV VALUES (?, 20)",
                &[Value::text(k1.clone())],
            )?;
            Ok(())
        })
        .unwrap();
        assert_eq!(sdb.shard(0).table_len("KV").unwrap(), 1);
        // Shard 1 is dead with the row invisible; recovery must finish
        // the commit from the decision log.
        let recovered = ShardedDatabase::recover("s", &stores, coord, 7).unwrap();
        assert_eq!(recovered.shard(1).table_len("KV").unwrap(), 1);
        assert_eq!(recovered.shard(1).stats().in_doubt_commits, 1);
        assert_eq!(recovered.shard(0).table_len("KV").unwrap(), 1);
    }

    #[test]
    fn unacknowledged_prepare_presumes_abort_everywhere() {
        use crate::fault::{FaultPlan, PrepareCrash};
        let (sdb, stores, coord) = fresh(2);
        let k0 = (0..64)
            .map(|i| format!("a{i}"))
            .find(|k| sdb.shard_for(k) == 0)
            .unwrap();
        let k1 = (0..64)
            .map(|i| format!("b{i}"))
            .find(|k| sdb.shard_for(k) == 1)
            .unwrap();
        // The vote lands durably but is never acknowledged: the driver
        // sees a dead participant, aborts the survivor, and never logs a
        // decision — recovery must abort the in-doubt transaction.
        sdb.shard(1).set_fault_plan(Some(
            FaultPlan::new(3).crash_at_prepare(0, PrepareCrash::AfterWrite),
        ));
        let err = sdb
            .transact(|t| {
                t.execute(
                    &k0,
                    "INSERT INTO KV VALUES (?, 10)",
                    &[Value::text(k0.clone())],
                )?;
                t.execute(
                    &k1,
                    "INSERT INTO KV VALUES (?, 20)",
                    &[Value::text(k1.clone())],
                )?;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err.class(), "crashed");
        let recovered = ShardedDatabase::recover("s", &stores, coord, 7).unwrap();
        for shard in recovered.shards() {
            assert_eq!(shard.table_len("KV").unwrap(), 0, "abort left residue");
        }
        assert_eq!(recovered.shard(1).stats().in_doubt_aborts, 1);
    }

    #[test]
    fn gids_never_collide_across_restarts() {
        let (sdb, stores, coord) = fresh(2);
        let keys: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();
        sdb.transact(|t| {
            for k in &keys {
                t.execute(k, "INSERT INTO KV VALUES (?, 1)", &[Value::text(k.clone())])?;
            }
            Ok(())
        })
        .unwrap();
        let recovered = ShardedDatabase::recover("s", &stores, Arc::clone(&coord), 7).unwrap();
        recovered
            .transact(|t| {
                for k in &keys {
                    t.execute(
                        k,
                        "UPDATE KV SET V = 2 WHERE K = ?",
                        &[Value::text(k.clone())],
                    )?;
                }
                Ok(())
            })
            .unwrap();
        let rs = recovered
            .coordinator()
            .connect()
            .query("SELECT Gid FROM TWO_PC_DECISIONS", &[])
            .unwrap();
        let mut gids: Vec<i64> = rs
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Int(g) => *g,
                other => panic!("non-int gid {other:?}"),
            })
            .collect();
        gids.sort_unstable();
        gids.dedup();
        assert_eq!(gids.len(), 2, "gid reused across restart");
    }
}
