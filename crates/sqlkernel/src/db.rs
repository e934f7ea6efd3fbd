//! The embeddable database facade: [`Database`], [`Connection`],
//! prepared statements and result grids.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::error::{SqlError, SqlResult};
use crate::fault::{crashed_error, CrashPoint, FaultInjector, FaultPlan, PrepareCrash};
use crate::pager::{self, PageStore, PagedEngine, Pager};
use crate::parser::{parse_script, parse_statement};
use crate::plan::CompiledPlan;
use crate::storage::{new_stamp, MvccShared, Snapshot, Table, TxnStamp};
use crate::sync::{Mutex, RwLock};
use crate::txn::{UndoLog, UndoOp};
use crate::types::Value;
use crate::wal::{self, AppendMode, LogStore, Wal, WalRecord};

/// Process-wide database instance counter. Each [`Database`] gets a
/// unique tag; compiled-plan slots are keyed by `(tag, epoch)` so a plan
/// bound by one instance can never satisfy another — in particular, a
/// plan bound before a crash is never served to the recovered instance
/// (whose epoch counter restarts from what the log happened to record).
static GLOBAL_DB_TAG: AtomicU64 = AtomicU64::new(1);

/// A materialized query result: column names plus a row grid.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Empty result with the given columns.
    pub fn empty(columns: Vec<String>) -> QueryResult {
        QueryResult {
            columns,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the grid empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Cell accessor by row number and column name.
    pub fn cell(&self, row: usize, column: &str) -> Option<&Value> {
        let c = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(c))
    }

    /// The single value of a 1×1 result.
    pub fn single_value(&self) -> SqlResult<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Ok(&self.rows[0][0])
        } else {
            Err(SqlError::Runtime(format!(
                "expected a 1x1 result, got {}x{}",
                self.rows.len(),
                self.columns.len()
            )))
        }
    }

    /// Render as an aligned text grid (for examples and figure output).
    pub fn to_grid(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.render()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// The outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// A query (or result-returning `CALL`).
    Rows(QueryResult),
    /// DML row count.
    Affected(usize),
    /// DDL completed.
    Ddl,
    /// Transaction control completed.
    TxnControl,
}

impl StatementResult {
    /// The result grid, if this was a query.
    pub fn rows(self) -> Option<QueryResult> {
        match self {
            StatementResult::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// Affected-row count, if DML.
    pub fn affected(&self) -> Option<usize> {
        match self {
            StatementResult::Affected(n) => Some(*n),
            _ => None,
        }
    }
}

/// Cumulative engine counters, used by the benchmark harness to report
/// work volumes (e.g. rows shipped into the process space) and by tests
/// to prove the statement cache and index fast paths are actually taken.
#[derive(Debug, Default, Clone, Copy)]
pub struct DbStats {
    pub statements_executed: u64,
    pub rows_returned: u64,
    /// Scans answered through an index fast path.
    pub index_scans: u64,
    /// Scans that walked a whole base table.
    pub full_scans: u64,
    /// Statement texts run through the parser.
    pub parses: u64,
    /// Statement-cache lookups answered without parsing.
    pub stmt_cache_hits: u64,
    /// Statement-cache lookups that had to parse.
    pub stmt_cache_misses: u64,
    /// Scans served by an index *range* walk (incl. order-only walks).
    pub range_scans: u64,
    /// Statements compiled to a bound plan (re-binds after DDL included).
    pub plan_binds: u64,
    /// Bound-expression evaluations performed by compiled plans.
    pub bound_evals: u64,
    /// `ORDER BY … LIMIT` sorts served by the bounded top-K heap.
    pub topk_sorts: u64,
    /// Expression-over-batch passes run by the vectorized executor (one
    /// per expression per batch, not one per row).
    pub batch_evals: u64,
    /// Input rows that flowed through the batch executor.
    pub batched_rows: u64,
    /// Statements aggregated through the one-pass hash aggregator.
    pub hash_aggs: u64,
    /// Rows walked by full table scans (`full_scans` counts scans once
    /// each; this counts their rows, for rows/sec reporting).
    pub full_scan_rows: u64,
    /// Compiled join steps executed as a vectorized hash join.
    pub hash_joins: u64,
    /// Compiled join steps executed as an index nested-loop probe.
    pub index_nl_joins: u64,
    /// Rows inserted into hash-join build tables.
    pub join_build_rows: u64,
    /// Rows that probed a hash-join table or index nested loop.
    pub join_probe_rows: u64,
    /// WHERE/ON conjuncts pushed into join-side scans.
    pub pushed_predicates: u64,
    /// Faults delivered by the installed [`FaultInjector`] (cumulative
    /// across plan swaps).
    pub faults_injected: u64,
    /// Statement retries reported by the recovery layer above the engine
    /// (via [`Database::note_retry`]).
    pub retries: u64,
    /// Rollbacks performed: statement-atomicity undo after a failed or
    /// panicked statement, explicit `ROLLBACK`, and rollback-on-drop.
    pub rollbacks: u64,
    /// Circuit-breaker trips reported by the recovery layer (via
    /// [`Database::note_breaker_trip`]).
    pub breaker_trips: u64,
    /// WAL append batches written (one per logged statement or commit).
    pub wal_appends: u64,
    /// Bytes appended to the write-ahead log (checkpoints included).
    pub wal_bytes: u64,
    /// Commit records appended to the WAL (group-commit members each
    /// count once, so `wal_appends / wal_commits` measures coalescing).
    pub wal_commits: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// 2PC `Prepare` records appended to the WAL.
    pub wal_prepares: u64,
    /// Transactions currently sitting in the prepared (in-doubt) window.
    pub prepared_txns: u64,
    /// In-doubt transactions this instance resolved to commit at recovery.
    pub in_doubt_commits: u64,
    /// In-doubt transactions this instance resolved to abort at recovery
    /// (presumed abort included).
    pub in_doubt_aborts: u64,
    /// Crash recoveries this instance was born from (0 or 1: a recovered
    /// database is a fresh instance; counters do not leak across reopen).
    /// A log-only open over an empty log replays nothing and reports 0.
    pub recoveries: u64,
    /// MVCC read snapshots registered (per statement in autocommit, per
    /// transaction under BEGIN…COMMIT).
    pub snapshots_taken: u64,
    /// Visibility resolutions that had to walk a multi-version chain
    /// (single-version rows resolve without a walk and are not counted).
    pub version_chains_walked: u64,
    /// Superseded row versions dropped by inline trims and GC sweeps.
    pub versions_gced: u64,
    /// Version chains GC sweeps visited. A sweep visits only the chains
    /// listed as garbage (more than one version, or a tombstone on top),
    /// however large the table.
    pub gc_chains_visited: u64,
    /// Torn-tail bytes the WAL scan dropped when this instance was
    /// recovered — recorded, never silently discarded.
    pub torn_tails_dropped: u64,
    /// Checksum-failing pages detected and rebuilt from the previous
    /// checkpoint epoch + WAL redo (paged storage only).
    pub pages_repaired: u64,
    /// Always 0. Paged storage has no buffer pool: tables live in
    /// memory, so there is nothing to evict.
    pub pool_evictions: u64,
    /// Always 0: every page read goes to the page store (see
    /// `pool_misses`).
    pub pool_hits: u64,
    /// Pages read from the page store (paged storage only): each live
    /// page once at open, plus re-reads while repairing a corrupt one.
    pub pool_misses: u64,
    /// Pages written to the page store (paged storage only): each page
    /// of a new checkpoint epoch once.
    pub pages_written: u64,
}

/// A parsed statement plus the catalog object names it references —
/// the unit stored in the statement cache and shared by [`Prepared`].
#[derive(Debug)]
pub(crate) struct CachedStmt {
    pub(crate) stmt: Statement,
    /// Lowercased referenced object names, for DDL invalidation.
    objects: Vec<String>,
    /// The compiled plan, tagged with the database instance tag and the
    /// catalog epoch it was bound against. Any DDL bumps the epoch, so a
    /// stale plan is never executed — it is silently re-bound on the next
    /// use. The instance tag guards the cross-instance case: epochs are
    /// per-catalog counters, so after crash recovery (a new instance) an
    /// epoch match alone would be meaningless.
    plan: Mutex<Option<(u64, u64, Arc<CompiledPlan>)>>,
}

/// Bounded LRU map from SQL text to parsed plan. Recency is tracked with
/// a monotone tick per entry; eviction removes the stalest entry. The
/// cache is small and hit-dominated, so the O(n) eviction scan is cheaper
/// than maintaining an ordered structure on every hit.
struct StmtCache {
    map: HashMap<String, (Arc<CachedStmt>, u64)>,
    tick: u64,
    capacity: usize,
}

impl StmtCache {
    fn new(capacity: usize) -> StmtCache {
        StmtCache {
            map: HashMap::new(),
            tick: 0,
            capacity,
        }
    }

    fn get(&mut self, sql: &str) -> Option<Arc<CachedStmt>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(sql).map(|(cached, last_used)| {
            *last_used = tick;
            Arc::clone(cached)
        })
    }

    fn insert(&mut self, sql: String, cached: Arc<CachedStmt>) {
        if self.map.len() >= self.capacity && !self.map.contains_key(&sql) {
            if let Some(stalest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&stalest);
            }
        }
        self.tick += 1;
        self.map.insert(sql, (cached, self.tick));
    }

    /// Drop every plan that references any of the given (lowercased)
    /// object names.
    fn invalidate(&mut self, objects: &[String]) {
        if objects.is_empty() {
            return;
        }
        self.map
            .retain(|_, (cached, _)| !cached.objects.iter().any(|o| objects.contains(o)));
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

struct DbInner {
    name: String,
    /// Unique instance tag (see [`GLOBAL_DB_TAG`]).
    tag: u64,
    /// The write-ahead log, when this database is durable.
    wal: Option<Wal>,
    /// The paged storage engine, when this database was opened with
    /// [`Database::open_paged`]. MVCC version chains stay the in-memory
    /// representation; the engine is consulted only at checkpoint (dirty
    /// tables written as a new page epoch) and open (base image + repair).
    paged: Option<Arc<PagedEngine>>,
    /// 1 when this instance was rebuilt from a log or page store (an
    /// empty log opens fresh and leaves it 0).
    recovery_counter: AtomicU64,
    /// Torn-tail bytes the recovery scan dropped from the log.
    torn_tail_counter: AtomicU64,
    /// In-doubt transactions resolved to commit / abort when this
    /// instance was recovered (see [`Database::recover_resolving`]).
    in_doubt_commit_counter: AtomicU64,
    in_doubt_abort_counter: AtomicU64,
    catalog: RwLock<Catalog>,
    stmt_cache: Mutex<StmtCache>,
    stmt_counter: AtomicU64,
    rows_counter: AtomicU64,
    conn_counter: AtomicU64,
    parse_counter: AtomicU64,
    cache_hit_counter: AtomicU64,
    cache_miss_counter: AtomicU64,
    /// Bumped by every statement-cache invalidation; connection-local
    /// statement memos compare it to discard stale entries without ever
    /// touching the global cache mutex on the hit path.
    cache_generation: AtomicU64,
    /// The installed fault injector, if any. The same `Arc` is mirrored
    /// into the catalog so executor apply loops can reach it; this copy
    /// serves the per-statement gate without touching the catalog lock.
    injector: Mutex<Option<Arc<FaultInjector>>>,
    /// Fault/tick counts carried over from injectors replaced by
    /// [`Database::set_fault_plan`], so stats stay cumulative.
    faults_base: AtomicU64,
    ticks_base: AtomicU64,
    retry_counter: AtomicU64,
    rollback_counter: AtomicU64,
    breaker_counter: AtomicU64,
    /// Shared MVCC state (GC watermark + counters), also attached to
    /// every table in the catalog so storage-level trims can see the
    /// oldest-active-snapshot floor without reaching back up here.
    mvcc: Arc<MvccShared>,
    /// Active read snapshots: commit timestamp → number of holders. The
    /// smallest key is the GC floor; versions superseded before it are
    /// unreachable. This mutex also fences commit stamping: a commit
    /// timestamp is allocated *and stored* under it, so a snapshot never
    /// observes a half-stamped commit (all of a transaction's versions
    /// share one stamp cell, made visible by a single atomic store).
    snapshots: Mutex<BTreeMap<u64, usize>>,
    /// Latest committed timestamp. Starts at 1 (the bootstrap stamp) so
    /// the first real commit gets 2.
    commit_clock: AtomicU64,
    snapshot_counter: AtomicU64,
    /// Commits since the last auto-GC sweep (see `maybe_gc`).
    commits_since_gc: AtomicU64,
    gc_due: AtomicBool,
}

/// A named in-memory database. Cloning is cheap (`Arc`); all clones see
/// the same data.
#[derive(Clone)]
pub struct Database {
    inner: Arc<DbInner>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("name", &self.inner.name)
            .finish_non_exhaustive()
    }
}

/// Bound on distinct statement texts kept parsed. Workflow deployments
/// run a small, fixed set of statements per activity, so this is generous;
/// ad-hoc floods (e.g. SQL with inlined literals) evict in LRU order.
const STMT_CACHE_CAPACITY: usize = 256;

impl Database {
    fn build(name: String, wal: Option<Wal>, paged: Option<Arc<PagedEngine>>) -> Database {
        let catalog = Catalog::new();
        let mvcc = Arc::clone(catalog.mvcc());
        Database {
            inner: Arc::new(DbInner {
                name,
                tag: GLOBAL_DB_TAG.fetch_add(1, Ordering::Relaxed),
                wal,
                paged,
                recovery_counter: AtomicU64::new(0),
                torn_tail_counter: AtomicU64::new(0),
                in_doubt_commit_counter: AtomicU64::new(0),
                in_doubt_abort_counter: AtomicU64::new(0),
                catalog: RwLock::new(catalog),
                stmt_cache: Mutex::new(StmtCache::new(STMT_CACHE_CAPACITY)),
                stmt_counter: AtomicU64::new(0),
                rows_counter: AtomicU64::new(0),
                conn_counter: AtomicU64::new(0),
                parse_counter: AtomicU64::new(0),
                cache_hit_counter: AtomicU64::new(0),
                cache_miss_counter: AtomicU64::new(0),
                cache_generation: AtomicU64::new(0),
                injector: Mutex::new(None),
                faults_base: AtomicU64::new(0),
                ticks_base: AtomicU64::new(0),
                retry_counter: AtomicU64::new(0),
                rollback_counter: AtomicU64::new(0),
                breaker_counter: AtomicU64::new(0),
                mvcc,
                snapshots: Mutex::new(BTreeMap::new()),
                commit_clock: AtomicU64::new(1),
                snapshot_counter: AtomicU64::new(0),
                commits_since_gc: AtomicU64::new(0),
                gc_due: AtomicBool::new(false),
            }),
        }
    }

    /// Create an empty, purely in-memory database (no durability).
    pub fn new(name: impl Into<String>) -> Database {
        Database::build(name.into(), None, None)
    }

    /// Open a database whose writes are logged to `store`, rebuilt from
    /// the log alone. The in-memory state of the instance that wrote the
    /// log is deliberately not consulted — this is the crash path.
    /// Replays committed transactions, rolls back uncommitted ones,
    /// discards any torn tail, then writes a fresh checkpoint so the log
    /// is compact going forward. An empty log (a new `MemLogStore`, a
    /// `FileLogStore` path that does not exist yet) opens a fresh
    /// database and writes nothing. A standalone database has no
    /// coordinator to consult, so any in-doubt 2PC transaction resolves
    /// by the presumed-abort rule.
    pub fn recover(name: impl Into<String>, store: Arc<dyn LogStore>) -> SqlResult<Database> {
        Database::recover_resolving(name, store, |_| Ok(false))
    }

    /// [`Database::recover`], but with a caller-supplied decision for
    /// in-doubt two-phase-commit transactions: `decide` is called once
    /// per prepared-but-undecided transaction found in the log and
    /// returns `true` to commit it (typically by consulting the 2PC
    /// coordinator's decision log — see `shard::ShardedDatabase`).
    /// Resolutions are appended to the log as ordinary `Commit`/`Abort`
    /// records before the post-recovery checkpoint, so the next recovery
    /// finds every transaction decided. An error from `decide` fails the
    /// whole recovery: guessing would break cross-shard atomicity.
    pub fn recover_resolving(
        name: impl Into<String>,
        store: Arc<dyn LogStore>,
        decide: impl FnMut(&wal::InDoubtTxn) -> SqlResult<bool>,
    ) -> SqlResult<Database> {
        Database::recover_with(name.into(), store, None, decide)
    }

    /// Open (or create) a database over a paged heap-file store plus a
    /// WAL. Recovery loads the newest intact checkpoint epoch from the
    /// page store — rebuilding any checksum-failing page from the
    /// previous epoch + WAL redo instead of failing the whole database —
    /// then replays the WAL tail past the epoch's anchor. Tables live in
    /// memory; the page store is their checkpoint format. The `usize`
    /// argument is ignored (see [`PagedEngine::open`]). In-doubt 2PC
    /// transactions resolve by presumed abort, as in
    /// [`Database::recover`]. Unlike a log-only open, this one always
    /// checkpoints, so a fresh page store gets its first epoch here.
    pub fn open_paged(
        name: impl Into<String>,
        log_store: Arc<dyn LogStore>,
        page_store: Arc<dyn PageStore>,
        pool_pages: usize,
    ) -> SqlResult<Database> {
        let engine = Arc::new(PagedEngine::open(page_store, pool_pages)?);
        Database::recover_with(name.into(), log_store, Some(engine), |_| Ok(false))
    }

    /// The recovery body behind every durable open: scan the log once,
    /// take the base from the page store's epoch (paged) or from the
    /// log's last checkpoint record, replay the tail once, resolve the
    /// in-doubt transactions, install the catalog and the recovery
    /// counters, and checkpoint.
    fn recover_with(
        name: String,
        store: Arc<dyn LogStore>,
        paged: Option<Arc<PagedEngine>>,
        decide: impl FnMut(&wal::InDoubtTxn) -> SqlResult<bool>,
    ) -> SqlResult<Database> {
        let bytes = store.read_all()?;
        let scanned = wal::scan(&bytes);
        let base = match &paged {
            Some(engine) => engine.load_base(&scanned)?,
            // Nothing to fold: open fresh. Replay would bump the catalog
            // epoch, and every Commit record logs the epoch.
            None if bytes.is_empty() => {
                return Ok(Database::build(name, Some(Wal::new(store, 1, 1)), None));
            }
            None => wal::checkpoint_base(&scanned),
        };
        let mut outcome = wal::replay_scanned(base, &scanned);
        let in_doubt = std::mem::take(&mut outcome.in_doubt);
        let resolution = wal::resolve_in_doubt(&mut outcome.catalog, in_doubt, decide)?;
        let wal = Wal::new(store, outcome.next_lsn, outcome.next_txn);
        if !resolution.records.is_empty() {
            wal.append(&resolution.records, wal::AppendMode::Full)?;
        }
        let db = Database::build(name, Some(wal), paged);
        {
            let mut catalog = db.inner.catalog.write();
            *catalog = outcome.catalog;
            // The replayed catalog was built with its own MVCC state;
            // re-attach this instance's so the GC watermark and counters
            // the connections maintain reach the recovered tables.
            catalog.attach_mvcc(Arc::clone(&db.inner.mvcc));
        }
        db.inner
            .in_doubt_commit_counter
            .store(resolution.committed, Ordering::Relaxed);
        db.inner
            .in_doubt_abort_counter
            .store(resolution.aborted, Ordering::Relaxed);
        db.inner.recovery_counter.store(1, Ordering::Relaxed);
        db.inner
            .torn_tail_counter
            .store(outcome.dropped_bytes, Ordering::Relaxed);
        // Fold the tail (and any page repair) into a fresh checkpoint, so
        // the store is compact and repaired extents are rewritten.
        db.checkpoint()?;
        Ok(db)
    }

    /// Is a write-ahead log attached?
    pub fn wal_enabled(&self) -> bool {
        self.inner.wal.is_some()
    }

    /// The attached log store, if any — tests keep a handle so they can
    /// recover from the bytes a "crashed" instance left behind.
    pub fn log_store(&self) -> Option<Arc<dyn LogStore>> {
        self.inner.wal.as_ref().map(|w| w.store())
    }

    /// Compact the log into a single catalog snapshot record.
    ///
    /// Requires quiescence: fails with a `txn` error while any explicit
    /// transaction has logged records without a terminator (its undo
    /// information lives only in the log being replaced). Auto-commit
    /// statements are invisible here — each is fully terminated by its
    /// own append.
    pub fn checkpoint(&self) -> SqlResult<()> {
        let Some(wal) = &self.inner.wal else {
            // Non-durable databases have no log to compact, but the
            // version-chain sweep still runs so delete-heavy in-memory
            // workloads reclaim superseded versions and tombstones.
            let catalog = self.inner.catalog.write();
            catalog.gc_tables(self.inner.mvcc.floor.load(Ordering::Acquire));
            return Ok(());
        };
        let catalog = self.inner.catalog.write();
        // Check the prepared window first: a prepared transaction also
        // counts as active (its `Prepare` is not a terminator), but it
        // deserves the sharper error — its fate belongs to the 2PC
        // coordinator, and a checkpoint here would bake an undecided
        // transaction into the snapshot.
        if wal.prepared_txns() > 0 {
            return Err(SqlError::Txn(
                "cannot checkpoint while a two-phase commit participant is prepared (in-doubt window)"
                    .into(),
            ));
        }
        if wal.active_txns() > 0 {
            return Err(SqlError::Txn(
                "cannot checkpoint while explicit transactions are open".into(),
            ));
        }
        // Reclaim versions below the oldest-active-snapshot watermark
        // before serializing: the checkpoint image carries only the
        // newest committed version of each row anyway.
        catalog.gc_tables(self.inner.mvcc.floor.load(Ordering::Acquire));
        let injector = self.inner.injector.lock().clone();
        if let Some(engine) = &self.inner.paged {
            // Paged checkpoint: incremental dirty-page flush + metadata
            // flip + WAL head truncation, instead of a whole-catalog
            // snapshot record. The dirty set is derived from the WAL
            // tail — every mutation is logged anyway, so the log *is*
            // the dirty tracking.
            let anchor = wal.last_lsn();
            let mut dirty = Default::default();
            wal.store()
                .visit(&mut |log| dirty = pager::log_dirty_tables(log, engine.anchor()))?;
            if let Some(inj) = &injector {
                if inj.frozen() {
                    return Err(crashed_error());
                }
                if inj.on_checkpoint() {
                    // Crash mid-checkpoint: some new-epoch data pages
                    // land, the metadata flip never happens, and the
                    // process freezes. Recovery falls back to the old
                    // epoch + the (sealed) WAL tail.
                    engine.checkpoint(&catalog, anchor, &dirty, true)?;
                    wal.seal();
                    inj.deliver_crash();
                    return Err(crashed_error());
                }
            }
            engine.checkpoint(&catalog, anchor, &dirty, false)?;
            // Only after the flip is durable may the log shed history —
            // and it keeps everything past the *previous* anchor, the
            // window torn-page repair replays.
            return wal.truncate_before(engine.retain_after());
        }
        if let Some(inj) = &injector {
            if inj.frozen() {
                return Err(crashed_error());
            }
            if inj.on_checkpoint() {
                // Crash mid-checkpoint: half of the snapshot record lands
                // *appended* after the intact history (modelling death
                // before the atomic swap), then the process freezes.
                // Recovery must fall back to the pre-checkpoint history.
                wal.write_checkpoint(&catalog, true)?;
                inj.deliver_crash();
                return Err(crashed_error());
            }
        }
        wal.write_checkpoint(&catalog, false)
    }

    /// Set the WAL group-commit flush window, in scheduler yields a
    /// commit leader holds the window open for concurrent arrivals to
    /// coalesce into one physical append. 0 (the default) appends each
    /// statement's records directly — single-threaded behavior is
    /// byte-identical either way; only the append *batching* changes.
    /// No-op on a non-durable database.
    pub fn set_group_commit_window(&self, window: u64) {
        if let Some(wal) = &self.inner.wal {
            wal.set_group_window(window);
        }
    }

    /// Install a fault plan (or clear it with `None`). Replacing an
    /// injector folds its delivered-fault and virtual-clock counts into
    /// the database totals, so [`DbStats`] stays cumulative.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let injector = plan.map(|p| Arc::new(FaultInjector::new(p)));
        self.inner
            .catalog
            .write()
            .set_fault_injector(injector.clone());
        if let Some(engine) = &self.inner.paged {
            // Mirror into the pager so scripted PageFaults reach disk I/O.
            engine.pager().set_injector(injector.clone());
        }
        let mut slot = self.inner.injector.lock();
        if let Some(old) = slot.take() {
            self.inner
                .faults_base
                .fetch_add(old.injected(), Ordering::Relaxed);
            self.inner
                .ticks_base
                .fetch_add(old.ticks(), Ordering::Relaxed);
        }
        *slot = injector;
    }

    /// The installed fault injector, if any — the retry layer shares its
    /// virtual clock so backoff and slow queries live on one timeline.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.inner.injector.lock().clone()
    }

    /// Virtual-clock reading: ticks accumulated by slow-query faults
    /// (cumulative across plan swaps).
    pub fn fault_ticks(&self) -> u64 {
        let live = self
            .inner
            .injector
            .lock()
            .as_ref()
            .map(|i| i.ticks())
            .unwrap_or(0);
        self.inner.ticks_base.load(Ordering::Relaxed) + live
    }

    /// Record that a client retried a statement after a transient fault.
    /// Called by the recovery layer (flowcore and the product stacks).
    pub fn note_retry(&self) {
        self.inner.retry_counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that a client's circuit breaker tripped open for this
    /// database.
    pub fn note_breaker_trip(&self) {
        self.inner.breaker_counter.fetch_add(1, Ordering::Relaxed);
    }

    fn note_rollback(&self) {
        self.inner.rollback_counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Register a read snapshot at the current commit timestamp, with a
    /// fresh write stamp (0 = uncommitted) for any versions written under
    /// it. Taken under the registry mutex so a concurrent commit is
    /// either fully stamped before the timestamp is read or gets a
    /// strictly later timestamp.
    fn register_snapshot(&self) -> Snapshot {
        let mut reg = self.inner.snapshots.lock();
        let ts = self.inner.commit_clock.load(Ordering::Acquire).max(1);
        *reg.entry(ts).or_insert(0) += 1;
        if let Some(&floor) = reg.keys().next() {
            self.inner.mvcc.floor.store(floor, Ordering::Release);
        }
        drop(reg);
        self.inner.snapshot_counter.fetch_add(1, Ordering::Relaxed);
        Snapshot {
            ts,
            stamp: new_stamp(),
        }
    }

    /// Release a snapshot registration and advance the GC floor to the
    /// new oldest-active snapshot (`u64::MAX` when none are active).
    fn release_snapshot(&self, ts: u64) {
        let mut reg = self.inner.snapshots.lock();
        if let Some(n) = reg.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                reg.remove(&ts);
            }
        }
        let floor = reg.keys().next().copied().unwrap_or(u64::MAX);
        self.inner.mvcc.floor.store(floor, Ordering::Release);
    }

    /// The commit point: allocate the next commit timestamp and store it
    /// into `stamp`, making every row version written under that stamp
    /// visible in one atomic step. Runs under the registry mutex (see
    /// `snapshots`) and must only be called once the statement's WAL
    /// append — its durability point — has been acknowledged.
    fn commit_stamp(&self, stamp: &TxnStamp) {
        let reg = self.inner.snapshots.lock();
        let ts = self.inner.commit_clock.fetch_add(1, Ordering::AcqRel) + 1;
        stamp.store(ts, Ordering::Release);
        drop(reg);
        const GC_COMMIT_INTERVAL: u64 = 256;
        if self.inner.commits_since_gc.fetch_add(1, Ordering::Relaxed) % GC_COMMIT_INTERVAL
            == GC_COMMIT_INTERVAL - 1
        {
            self.inner.gc_due.store(true, Ordering::Release);
        }
    }

    /// Periodic version-chain sweep, run from statement entry points with
    /// no locks held. Inline trims keep actively updated chains short;
    /// this pass reclaims chains that stopped being written (including
    /// committed delete tombstones, which only a sweep can remove).
    fn maybe_gc(&self) {
        if !self.inner.gc_due.swap(false, Ordering::AcqRel) {
            return;
        }
        let floor = self.inner.mvcc.floor.load(Ordering::Acquire);
        let catalog = self.inner.catalog.read();
        catalog.gc_tables(floor);
    }

    /// Fetch (or parse and cache) the plan for one statement text.
    ///
    /// Every `execute`/`query`/`prepare` call funnels through here, so a
    /// statement text is parsed at most once until DDL invalidates it or
    /// LRU pressure evicts it. DDL and transaction control are parsed but
    /// not cached: they are not hot, and caching them would let a `DROP`
    /// outlive its own invalidation.
    pub(crate) fn cached_statement(&self, sql: &str) -> SqlResult<Arc<CachedStmt>> {
        // Transaction control is hot on the write path — every
        // transaction utters a BEGIN and a COMMIT — yet deliberately
        // uncacheable. Recognize the bare keywords without invoking the
        // parser; anything fancier ("BEGIN TRANSACTION") still parses.
        let trimmed = sql.trim().trim_end_matches(';').trim_end();
        let txn_ctl = if trimmed.eq_ignore_ascii_case("BEGIN") {
            Some(Statement::Begin)
        } else if trimmed.eq_ignore_ascii_case("COMMIT") {
            Some(Statement::Commit)
        } else if trimmed.eq_ignore_ascii_case("ROLLBACK") {
            Some(Statement::Rollback)
        } else {
            None
        };
        if let Some(stmt) = txn_ctl {
            return Ok(Arc::new(CachedStmt {
                objects: Vec::new(),
                stmt,
                plan: Mutex::new(None),
            }));
        }
        if let Some(hit) = self.inner.stmt_cache.lock().get(sql) {
            self.inner.cache_hit_counter.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.inner
            .cache_miss_counter
            .fetch_add(1, Ordering::Relaxed);
        self.inner.parse_counter.fetch_add(1, Ordering::Relaxed);
        let stmt = parse_statement(sql)?;
        let cached = Arc::new(CachedStmt {
            objects: stmt.referenced_objects(),
            stmt,
            plan: Mutex::new(None),
        });
        let cacheable = !matches!(
            cached.stmt,
            Statement::Begin | Statement::Commit | Statement::Rollback
        ) && !cached.stmt.is_ddl();
        if cacheable {
            self.inner
                .stmt_cache
                .lock()
                .insert(sql.to_string(), Arc::clone(&cached));
        }
        Ok(cached)
    }

    /// Evict cached plans referencing any of the given object names
    /// (already lowercased). Called after DDL executes or rolls back.
    fn invalidate_statements(&self, objects: &[String]) {
        self.inner.stmt_cache.lock().invalidate(objects);
        self.inner.cache_generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of statements currently held by the statement cache.
    pub fn stmt_cache_len(&self) -> usize {
        self.inner.stmt_cache.lock().len()
    }

    /// The database name (used by connection strings in the workflow layers).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Open a connection.
    pub fn connect(&self) -> Connection {
        let id = self.inner.conn_counter.fetch_add(1, Ordering::Relaxed) + 1;
        Connection {
            db: self.clone(),
            id,
            txn: std::cell::RefCell::new(None),
            txn_snap: std::cell::RefCell::new(None),
            temp_tables: std::cell::RefCell::new(Vec::new()),
            stmt_memo: std::cell::RefCell::new(StmtMemo::default()),
            wal_txn: std::cell::Cell::new(None),
            prepared: std::cell::Cell::new(false),
            batch: std::cell::RefCell::new(crate::exec::batch::BatchScratch::default()),
        }
    }

    /// Sorted table names (catalog introspection).
    pub fn table_names(&self) -> Vec<String> {
        self.inner.catalog.read().table_names()
    }

    /// Does a table exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.inner.catalog.read().has_table(name)
    }

    /// Number of rows in a table.
    pub fn table_len(&self, name: &str) -> SqlResult<usize> {
        Ok(self.inner.catalog.read().table(name)?.len())
    }

    /// Engine counters. Cheap but *racy* under concurrent load: each
    /// counter is read independently, so a statement in flight on
    /// another thread may be half-reflected. Use [`Database::snapshot`]
    /// when the numbers must be mutually consistent.
    pub fn stats(&self) -> DbStats {
        let catalog = self.inner.catalog.read();
        self.stats_from(&catalog)
    }

    /// Consistent point-in-time counters: briefly acquires the exclusive
    /// catalog-shape lock, which waits out every in-flight statement, so
    /// no counter reflects half of anything. Used by benchmarks and
    /// differential tests; for monitoring-style reads prefer
    /// [`Database::stats`].
    pub fn snapshot(&self) -> DbStats {
        let catalog = self.inner.catalog.write();
        self.stats_from(&catalog)
    }

    fn stats_from(&self, catalog: &Catalog) -> DbStats {
        let pager = self.inner.paged.as_ref().map(|e| e.pager());
        DbStats {
            statements_executed: self.inner.stmt_counter.load(Ordering::Relaxed),
            rows_returned: self.inner.rows_counter.load(Ordering::Relaxed),
            index_scans: catalog.index_scans(),
            full_scans: catalog.full_scans(),
            parses: self.inner.parse_counter.load(Ordering::Relaxed),
            stmt_cache_hits: self.inner.cache_hit_counter.load(Ordering::Relaxed),
            stmt_cache_misses: self.inner.cache_miss_counter.load(Ordering::Relaxed),
            range_scans: catalog.range_scans(),
            plan_binds: catalog.plan_binds(),
            bound_evals: catalog.bound_evals(),
            topk_sorts: catalog.topk_sorts(),
            batch_evals: catalog.batch_evals(),
            batched_rows: catalog.batched_rows(),
            hash_aggs: catalog.hash_aggs(),
            full_scan_rows: catalog.full_scan_rows(),
            hash_joins: catalog.hash_joins(),
            index_nl_joins: catalog.index_nl_joins(),
            join_build_rows: catalog.join_build_rows(),
            join_probe_rows: catalog.join_probe_rows(),
            pushed_predicates: catalog.pushed_predicates(),
            faults_injected: self.inner.faults_base.load(Ordering::Relaxed)
                + self
                    .inner
                    .injector
                    .lock()
                    .as_ref()
                    .map(|i| i.injected())
                    .unwrap_or(0),
            retries: self.inner.retry_counter.load(Ordering::Relaxed),
            rollbacks: self.inner.rollback_counter.load(Ordering::Relaxed),
            breaker_trips: self.inner.breaker_counter.load(Ordering::Relaxed),
            wal_appends: self.inner.wal.as_ref().map(|w| w.appends()).unwrap_or(0),
            wal_bytes: self
                .inner
                .wal
                .as_ref()
                .map(|w| w.bytes_written())
                .unwrap_or(0),
            wal_commits: self.inner.wal.as_ref().map(|w| w.commits()).unwrap_or(0),
            checkpoints: self
                .inner
                .wal
                .as_ref()
                .map(|w| w.checkpoints())
                .unwrap_or(0),
            wal_prepares: self.inner.wal.as_ref().map(|w| w.prepares()).unwrap_or(0),
            prepared_txns: self
                .inner
                .wal
                .as_ref()
                .map(|w| w.prepared_txns())
                .unwrap_or(0),
            in_doubt_commits: self.inner.in_doubt_commit_counter.load(Ordering::Relaxed),
            in_doubt_aborts: self.inner.in_doubt_abort_counter.load(Ordering::Relaxed),
            recoveries: self.inner.recovery_counter.load(Ordering::Relaxed),
            snapshots_taken: self.inner.snapshot_counter.load(Ordering::Relaxed),
            version_chains_walked: self.inner.mvcc.chains_walked.load(Ordering::Relaxed),
            versions_gced: self.inner.mvcc.versions_gced.load(Ordering::Relaxed),
            gc_chains_visited: self.inner.mvcc.gc_chains_visited.load(Ordering::Relaxed),
            torn_tails_dropped: self.inner.torn_tail_counter.load(Ordering::Relaxed),
            pages_repaired: self
                .inner
                .paged
                .as_ref()
                .map(|e| e.pages_repaired())
                .unwrap_or(0),
            pool_evictions: 0,
            pool_hits: 0,
            pool_misses: pager.map_or(0, Pager::reads),
            pages_written: pager.map_or(0, Pager::writes),
        }
    }

    /// Two handles to the same database?
    pub fn same_as(&self, other: &Database) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Name part of a DSN: `sqlkernel://name`, or a bare name.
    fn dsn_name(dsn: &str) -> &str {
        dsn.strip_prefix("sqlkernel://").unwrap_or(dsn)
    }

    /// Fetch the shared database named by `dsn` if some component has
    /// published it. Never creates.
    pub fn lookup(dsn: &str) -> Option<Database> {
        shared_registry()
            .lock()
            .get(Database::dsn_name(dsn))
            .cloned()
    }

    /// Publish this handle under its name so other components can reach
    /// it via [`Database::lookup`]. Replaces any previous entry under the
    /// same name.
    pub fn publish(&self) {
        shared_registry()
            .lock()
            .insert(self.inner.name.clone(), self.clone());
    }

    /// Remove a name from the shared registry, returning the handle if
    /// one was registered. Existing handles stay fully usable.
    pub fn unpublish(dsn: &str) -> Option<Database> {
        shared_registry().lock().remove(Database::dsn_name(dsn))
    }
}

/// Process-wide registry behind [`Database::lookup`]: name → shared
/// handle. The mutex is poison-transparent (see [`crate::sync`]), so a
/// thread that panics while holding it leaves the registry usable.
fn shared_registry() -> &'static Mutex<HashMap<String, Database>> {
    static REGISTRY: std::sync::OnceLock<Mutex<HashMap<String, Database>>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A pre-parsed statement, reusable with different `?` bindings. The
/// plan is shared with the statement cache, so `prepare` + `execute` of
/// the same text costs one parse total.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(crate) cached: Arc<CachedStmt>,
    sql: String,
}

impl Prepared {
    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The statement verb (for audit trails).
    pub fn verb(&self) -> &'static str {
        self.cached.stmt.verb()
    }
}

/// Entries a connection keeps out of the global statement cache's way.
/// `generation` is the database cache generation the entries were taken
/// at; a mismatch means DDL ran somewhere and everything here is suspect.
#[derive(Debug, Default)]
struct StmtMemo {
    generation: u64,
    entries: HashMap<String, Arc<CachedStmt>>,
}

/// Per-connection memo bound: plenty for a workflow instance's statement
/// repertoire, small enough that clearing on overflow is painless.
const STMT_MEMO_CAPACITY: usize = 64;

/// A connection: the unit of transaction scope and temp-table ownership.
///
/// Connections are intentionally *not* `Sync`; each workflow instance in
/// the layers above owns its connections. Open transactions are rolled
/// back and temporary tables dropped when the connection is dropped.
pub struct Connection {
    db: Database,
    id: u64,
    txn: std::cell::RefCell<Option<UndoLog>>,
    /// Snapshot of the open explicit transaction: every statement inside
    /// BEGIN…COMMIT reads at the same timestamp (repeatable read) and
    /// writes under the same stamp, which `COMMIT` stores the commit
    /// timestamp into at the WAL-ack point.
    txn_snap: std::cell::RefCell<Option<Snapshot>>,
    temp_tables: std::cell::RefCell<Vec<String>>,
    /// Connection-local statement memo: repeat executions of the same
    /// text skip the global statement-cache mutex entirely. Entries are
    /// discarded wholesale whenever the database's cache generation
    /// moves (any DDL), so a memoized plan can never outlive the schema
    /// it was parsed against.
    stmt_memo: std::cell::RefCell<StmtMemo>,
    /// WAL transaction id of the open explicit transaction, allocated
    /// lazily on its first logged write (read-only transactions never
    /// touch the log).
    wal_txn: std::cell::Cell<Option<u64>>,
    /// True while this connection's open transaction sits in the 2PC
    /// prepared window: a `Prepare` record is on the log and the vote is
    /// cast, so only `COMMIT` / `ROLLBACK` (phase 2) may follow.
    prepared: std::cell::Cell<bool>,
    /// Reusable batch-execution buffers (selection vector, group keys,
    /// aggregate values). Never re-entered: compiled plans delegate
    /// subqueries to the interpreter, not to another compiled plan.
    batch: std::cell::RefCell<crate::exec::batch::BatchScratch>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("db", &self.db.name())
            .field("id", &self.id)
            .field("in_txn", &self.in_transaction())
            .finish()
    }
}

/// One statement's MVCC snapshot, passed by reference to every executor
/// and storage call that resolves visibility. A per-statement
/// (autocommit) snapshot releases its registry entry on drop.
struct SnapshotCtx<'a> {
    /// `Some` when this ctx owns a registry entry to release.
    db: Option<&'a Database>,
    snap: Snapshot,
}

impl Drop for SnapshotCtx<'_> {
    fn drop(&mut self) {
        if let Some(db) = self.db {
            db.release_snapshot(self.snap.ts);
        }
    }
}

impl Connection {
    /// The owning database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Establish the snapshot this statement reads under: the
    /// transaction's under BEGIN…COMMIT, or a freshly registered
    /// per-statement snapshot in autocommit. Statements the connection
    /// runs on a statement's behalf (CALL bodies, subqueries) get the
    /// same snapshot as an argument, not a new one.
    fn snapshot_ctx(&self) -> SnapshotCtx<'_> {
        if let Some(snap) = self.txn_snap.borrow().clone() {
            return SnapshotCtx { db: None, snap };
        }
        SnapshotCtx {
            db: Some(&self.db),
            snap: self.db.register_snapshot(),
        }
    }

    /// Connection id (unique within the database).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Is an explicit transaction open?
    pub fn in_transaction(&self) -> bool {
        self.txn.borrow().is_some()
    }

    /// Parse without executing. The plan lands in (or comes from) the
    /// database-wide statement cache.
    pub fn prepare(&self, sql: &str) -> SqlResult<Prepared> {
        Ok(Prepared {
            cached: self.db.cached_statement(sql)?,
            sql: sql.to_string(),
        })
    }

    /// Fault-injection gate: every statement entering through the public
    /// execution surface passes here exactly once. Transaction control is
    /// never gated — failing a `COMMIT`/`ROLLBACK` artificially would
    /// corrupt the very atomicity semantics the chaos layer exists to
    /// test, and `BEGIN` is pure bookkeeping.
    fn fault_gate(&self, stmt: &Statement) -> SqlResult<()> {
        if matches!(
            stmt,
            Statement::Begin | Statement::Commit | Statement::Rollback
        ) {
            return Ok(());
        }
        let injector = self.db.inner.injector.lock().clone();
        match injector {
            Some(inj) => inj.on_statement(),
            None => Ok(()),
        }
    }

    /// Was this abort caused by the fault layer (injected transient or a
    /// contained panic)? Such aborts also invalidate the statement's
    /// compiled-plan slot: the plan may have been bound mid-flight, and
    /// a defensive re-bind on the next use is cheap insurance.
    fn fault_aborted(e: &SqlError) -> bool {
        matches!(e, SqlError::Transient(_))
            || matches!(e, SqlError::Runtime(m) if m.starts_with("statement panicked"))
    }

    /// Drop the compiled-plan slot of `cached` so the next execution
    /// re-binds against the current catalog.
    fn invalidate_plan_slot(cached: &CachedStmt) {
        *cached.plan.lock() = None;
    }

    /// Is this `INSERT` eligible for the fast path (shared shape lock,
    /// exclusive only on its target table)? Requires a `VALUES` source —
    /// `INSERT ... SELECT` reads other tables — with every expression
    /// subquery-free, so execution never re-enters the table map while
    /// the target's guard is held.
    fn insert_is_fast(stmt: &crate::ast::InsertStmt) -> bool {
        match &stmt.source {
            crate::ast::InsertSource::Values(rows) => rows
                .iter()
                .all(|row| row.iter().all(|e| !e.contains_subquery())),
            crate::ast::InsertSource::Select(_) => false,
        }
    }

    /// Convert a caught panic payload into a clean engine error.
    fn panic_error(payload: Box<dyn std::any::Any + Send>) -> SqlError {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        SqlError::Runtime(format!("statement panicked: {msg}"))
    }

    /// Execute one statement, parsing it at most once per distinct text
    /// (the plan is reused from the statement cache on repeat calls).
    pub fn execute(&self, sql: &str, params: &[Value]) -> SqlResult<StatementResult> {
        let cached = self.memoized_statement(sql)?;
        self.fault_gate(&cached.stmt)?;
        let mark = crate::catalog::draw_mark();
        let result = self.execute_cached(&cached, params);
        self.settle_draws(mark, result.is_err());
        self.db.maybe_gc();
        result
    }

    /// Settle this statement's `NEXTVAL` draws once it resolves: a
    /// failed statement gives the values back immediately (statement
    /// atomicity covers sequence cursors, not just rows); a successful
    /// one inside an open transaction parks them in the transaction's
    /// undo log so a later ROLLBACK returns them too. Committed draws
    /// are simply dropped.
    fn settle_draws(&self, mark: usize, failed: bool) {
        let draws = crate::catalog::drain_draws(mark);
        if draws.is_empty() {
            return;
        }
        if failed {
            self.db.inner.catalog.read().undo_draws(&draws);
        } else if let Some(txn) = self.txn.borrow_mut().as_mut() {
            for (name, drawn) in draws {
                txn.record(UndoOp::SequenceDraw { name, drawn });
            }
        }
    }

    /// Resolve a statement text through the connection-local memo first,
    /// falling back to the database-wide cache on a miss. A memo hit
    /// costs one atomic load and a hash lookup — no global mutex — which
    /// is what keeps N workers executing the same prepared texts from
    /// convoying on statement-cache bookkeeping.
    fn memoized_statement(&self, sql: &str) -> SqlResult<Arc<CachedStmt>> {
        let generation = self.db.inner.cache_generation.load(Ordering::Relaxed);
        {
            let mut memo = self.stmt_memo.borrow_mut();
            if memo.generation != generation {
                memo.generation = generation;
                memo.entries.clear();
            } else if let Some(hit) = memo.entries.get(sql) {
                self.db
                    .inner
                    .cache_hit_counter
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(hit));
            }
        }
        let cached = self.db.cached_statement(sql)?;
        // Mirror the global cache's policy: DDL and transaction control
        // stay out, so a memoized `DROP` can never dodge invalidation.
        let memoable = !matches!(
            cached.stmt,
            Statement::Begin | Statement::Commit | Statement::Rollback
        ) && !cached.stmt.is_ddl();
        if memoable {
            let mut memo = self.stmt_memo.borrow_mut();
            if memo.generation == generation {
                if memo.entries.len() >= STMT_MEMO_CAPACITY {
                    memo.entries.clear();
                }
                memo.entries.insert(sql.to_string(), Arc::clone(&cached));
            }
        }
        Ok(cached)
    }

    /// Execute a previously prepared statement.
    pub fn execute_prepared(
        &self,
        prepared: &Prepared,
        params: &[Value],
    ) -> SqlResult<StatementResult> {
        self.fault_gate(&prepared.cached.stmt)?;
        let mark = crate::catalog::draw_mark();
        let result = self.execute_cached(&prepared.cached, params);
        self.settle_draws(mark, result.is_err());
        self.db.maybe_gc();
        result
    }

    /// Run one DML statement once per parameter set, as a single atomic
    /// unit: one statement-cache resolution, one table (or catalog)
    /// lock acquisition, one undo scope, and one WAL append cover the
    /// whole batch. Either every set applies or none does — a failure on
    /// set *k* rolls back sets *0..k* too. Returns the total number of
    /// rows affected.
    ///
    /// This is the set-oriented path the workflow layers use to post N
    /// audit rows or advance N instances in one call, instead of paying
    /// per-statement locking and logging N times.
    pub fn execute_batch(&self, sql: &str, param_sets: &[Vec<Value>]) -> SqlResult<usize> {
        let mark = crate::catalog::draw_mark();
        let result = self.execute_batch_inner(sql, param_sets);
        self.settle_draws(mark, result.is_err());
        self.db.maybe_gc();
        result
    }

    fn execute_batch_inner(&self, sql: &str, param_sets: &[Vec<Value>]) -> SqlResult<usize> {
        if param_sets.is_empty() {
            return Err(SqlError::Semantic(
                "execute_batch requires at least one parameter set".into(),
            ));
        }
        let cached = self.memoized_statement(sql)?;
        if !matches!(
            cached.stmt,
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)
        ) {
            return Err(SqlError::Semantic(
                "execute_batch supports only INSERT, UPDATE, and DELETE".into(),
            ));
        }
        self.fault_gate(&cached.stmt)?;
        self.db.inner.stmt_counter.fetch_add(1, Ordering::Relaxed);
        let named: HashMap<String, Value> = HashMap::new();

        // Subquery-free single-table DML batches run on the fast path:
        // shared shape lock, exclusive only on the target table.
        let fast_table = match &cached.stmt {
            Statement::Insert(i) if Self::insert_is_fast(i) => Some(i.table.clone()),
            Statement::Update(u)
                if !u.assignments.iter().any(|(_, e)| e.contains_subquery())
                    && !u
                        .where_clause
                        .as_ref()
                        .is_some_and(|e| e.contains_subquery()) =>
            {
                Some(u.table.clone())
            }
            Statement::Delete(d)
                if !d
                    .where_clause
                    .as_ref()
                    .is_some_and(|e| e.contains_subquery()) =>
            {
                Some(d.table.clone())
            }
            _ => None,
        };

        if let Some(table_name) = fast_table {
            let catalog = self.db.inner.catalog.read();
            // UPDATE/DELETE sets share one compiled plan when the
            // statement compiles; the interpreter covers the rest.
            let plan = (!matches!(cached.stmt, Statement::Insert(_)))
                .then(|| self.compiled_plan(&cached, &catalog));
            return self.fast_write(&catalog, &table_name, None, |snap, table, undo| {
                let mut total = 0;
                for params in param_sets {
                    total += match plan.as_deref() {
                        Some(CompiledPlan::Dml(p)) => crate::plan::run_dml_plan(
                            &catalog,
                            snap,
                            Some(&mut *table),
                            p,
                            params,
                            &named,
                            undo,
                        )?,
                        _ => crate::exec::dml::run_write(
                            &catalog,
                            snap,
                            Some(&mut *table),
                            &cached.stmt,
                            params,
                            &named,
                            undo,
                        )?,
                    };
                }
                Ok(total)
            });
        }

        // Subquery-bearing batch: the exclusive general path.
        let mut catalog = self.db.inner.catalog.write();
        self.exclusive_write(&mut catalog, None, |catalog, snap, undo| {
            let mut total = 0;
            for params in param_sets {
                total += crate::exec::dml::run_write(
                    catalog,
                    snap,
                    None,
                    &cached.stmt,
                    params,
                    &named,
                    undo,
                )?;
            }
            Ok(total)
        })
    }

    /// Fetch the cached compiled plan for this statement, re-binding it
    /// if the catalog schema epoch moved (any DDL, including
    /// `CREATE INDEX` / `DROP INDEX`, bumps the epoch). Must be called
    /// with a catalog lock held so the epoch cannot move underneath.
    fn compiled_plan(&self, cached: &CachedStmt, catalog: &Catalog) -> Arc<CompiledPlan> {
        let epoch = catalog.epoch();
        let tag = self.db.inner.tag;
        let mut slot = cached.plan.lock();
        if let Some((bound_tag, bound_at, plan)) = slot.as_ref() {
            if *bound_tag == tag && *bound_at == epoch {
                return Arc::clone(plan);
            }
        }
        catalog.note_plan_bind();
        let plan = Arc::new(crate::plan::compile(catalog, &cached.stmt));
        *slot = Some((tag, epoch, Arc::clone(&plan)));
        plan
    }

    /// Log a successful mutating statement to the WAL, before its success
    /// is acknowledged to the caller. Must run while the statement's
    /// exclusive catalog lock is still held, so the after-images derived
    /// from the scratch undo log are exactly what the statement wrote.
    ///
    /// Auto-commit statements append `[Begin, ops…, Commit]` in one
    /// write; statements inside an explicit transaction append their ops
    /// under a lazily allocated transaction id whose `Commit`/`Abort`
    /// arrives with the `COMMIT`/`ROLLBACK` statement.
    ///
    /// Armed crash points fire here: `AfterLog` appends everything then
    /// kills the process (the statement is durable but its caller never
    /// learns); `MidApply` tears the final record mid-write (the log ends
    /// in garbage recovery must discard). An error return means the
    /// caller must treat the statement as failed and undo its in-memory
    /// effects.
    fn wal_log_statement(
        &self,
        catalog: &Catalog,
        snap: &Snapshot,
        scratch: &UndoLog,
    ) -> SqlResult<()> {
        self.wal_log_with(catalog, || wal::ops_from_undo(catalog, snap, scratch.ops()))
    }

    /// Fast-path variant of [`Connection::wal_log_statement`]: derives
    /// the redo ops through one table guard per statement instead of
    /// one catalog lookup per op. Everything else — crash points,
    /// transaction framing, group commit — is identical.
    fn wal_log_statement_on(
        &self,
        catalog: &Catalog,
        table: &Table,
        scratch: &UndoLog,
    ) -> SqlResult<()> {
        self.wal_log_with(catalog, || wal::ops_from_undo_on(table, scratch.ops()))
    }

    fn wal_log_with(
        &self,
        catalog: &Catalog,
        derive_ops: impl FnOnce() -> Vec<wal::WalOp>,
    ) -> SqlResult<()> {
        let injector = self.db.inner.injector.lock().clone();
        if let Some(inj) = &injector {
            if inj.frozen() {
                return Err(crashed_error());
            }
        }
        let armed = injector.as_ref().and_then(|i| i.take_armed_crash());
        let Some(wal) = self.db.inner.wal.as_ref() else {
            // No log attached: a crash point still kills the process —
            // there is simply nothing durable to come back to.
            if armed.is_some() {
                if let Some(inj) = &injector {
                    inj.deliver_crash();
                }
                return Err(crashed_error());
            }
            return Ok(());
        };
        let ops = derive_ops();
        if ops.is_empty() && armed.is_none() {
            return Ok(());
        }
        let in_txn = self.txn.borrow().is_some();
        let mut records = Vec::with_capacity(ops.len() + 2);
        let txn_id = if in_txn {
            match self.wal_txn.get() {
                Some(id) => id,
                None => {
                    let id = wal.alloc_txn();
                    self.wal_txn.set(Some(id));
                    records.push(WalRecord::Begin { txn: id });
                    wal.note_txn_open();
                    id
                }
            }
        } else {
            let id = wal.alloc_txn();
            records.push(WalRecord::Begin { txn: id });
            id
        };
        for op in ops {
            records.push(WalRecord::Op { txn: txn_id, op });
        }
        if !in_txn {
            records.push(WalRecord::Commit {
                txn: txn_id,
                epoch: catalog.epoch(),
                sequences: catalog.sequence_states(),
            });
        }
        match armed {
            None => wal.append(&records, AppendMode::Full),
            Some(CrashPoint::AfterLog) => {
                wal.append(&records, AppendMode::Full)?;
                if let Some(inj) = &injector {
                    inj.deliver_crash();
                }
                Err(crashed_error())
            }
            Some(CrashPoint::MidApply) => {
                wal.append(&records, AppendMode::Torn)?;
                if let Some(inj) = &injector {
                    inj.deliver_crash();
                }
                Err(crashed_error())
            }
            // These are delivered at the statement gate / checkpoint and
            // never reach the armed state; treat defensively as a crash
            // before any append.
            Some(CrashPoint::BeforeLog | CrashPoint::DuringCheckpoint) => {
                if let Some(inj) = &injector {
                    inj.deliver_crash();
                }
                Err(crashed_error())
            }
        }
    }

    /// Append the `Abort` terminator for this connection's logged
    /// transaction, if any. Skipped silently when the process is frozen
    /// (crashed): recovery treats the unterminated transaction as a
    /// loser and rolls it back from the log — same outcome.
    fn wal_abort(&self) {
        let Some(wal) = self.db.inner.wal.as_ref() else {
            return;
        };
        if let Some(id) = self.wal_txn.take() {
            let frozen = self
                .db
                .inner
                .injector
                .lock()
                .as_ref()
                .is_some_and(|i| i.frozen());
            if !frozen {
                let _ = wal.append(&[WalRecord::Abort { txn: id }], AppendMode::Full);
            }
            wal.note_txn_closed();
        }
    }

    /// Run one single-table write on the fast path. The caller holds the
    /// shared catalog-shape lock; `body` runs under the statement's
    /// snapshot, the table's statement mutex (writer-writer serialization
    /// without excluding readers: one write statement per table at a
    /// time) and its exclusive guard, in a fresh undo scope, with panics
    /// contained. A failed body is unwound with the guard still held.
    /// `plan_slot`, if given, is invalidated when the write aborts for a
    /// fault or never becomes durable.
    ///
    /// Durability and commit: the exclusive table guard is dropped
    /// *before* the WAL append and the after-images are re-derived under
    /// a shared guard. The statement's versions are still unstamped —
    /// invisible to every snapshot — so readers proceed against the
    /// pre-statement state while the append (and any group-commit
    /// window) runs. The statement mutex keeps other writers out, so the
    /// rows the shared guard exposes are exactly what this statement
    /// wrote. Only after the append is acknowledged does the commit
    /// stamp (autocommit) or the enclosing transaction's eventual COMMIT
    /// publish the versions. On append failure the statement's versions
    /// are unwound under a re-taken exclusive guard and the error is
    /// returned; nothing was ever visible.
    fn fast_write(
        &self,
        catalog: &Catalog,
        table_name: &str,
        plan_slot: Option<&CachedStmt>,
        body: impl FnOnce(&Snapshot, &mut Table, &mut UndoLog) -> SqlResult<usize>,
    ) -> SqlResult<usize> {
        let _stmt = catalog.table_stmt(table_name)?;
        let ctx = self.snapshot_ctx();
        let mut table = catalog.table_mut(table_name)?;
        let mut scratch = UndoLog::new(Arc::clone(&ctx.snap.stamp));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&ctx.snap, &mut table, &mut scratch)
        }))
        .unwrap_or_else(|payload| Err(Self::panic_error(payload)));
        let n = match result {
            Ok(n) => n,
            Err(e) => {
                scratch.rollback_on_table(&mut table);
                self.note_failed_write(plan_slot, Self::fault_aborted(&e));
                return Err(e);
            }
        };
        drop(table);
        let logged = self.wal_log_statement_on(catalog, &*catalog.table(table_name)?, &scratch);
        if let Err(e) = logged {
            scratch.rollback_on_table(&mut *catalog.table_mut(table_name)?);
            self.note_failed_write(plan_slot, true);
            return Err(e);
        }
        self.publish(scratch, &ctx.snap.stamp);
        Ok(n)
    }

    /// Run one statement on the exclusive path, under the caller's
    /// catalog write lock: `body` runs under a snapshot taken after the
    /// lock (the transaction's inside BEGIN…COMMIT) in a fresh undo
    /// scope, with panics contained so a crashing statement surfaces as
    /// an error with its partial work undone instead of poisoning the
    /// lock. The WAL append follows while the lock is still held, so the
    /// after-images derived from the undo log are exactly what `body`
    /// wrote; a failed body or append is rolled back before the error
    /// returns. `plan_slot`, if given, is invalidated as in
    /// [`Connection::fast_write`].
    fn exclusive_write<T>(
        &self,
        catalog: &mut Catalog,
        plan_slot: Option<&CachedStmt>,
        body: impl FnOnce(&mut Catalog, &Snapshot, &mut UndoLog) -> SqlResult<T>,
    ) -> SqlResult<T> {
        let ctx = self.snapshot_ctx();
        let mut scratch = UndoLog::new(Arc::clone(&ctx.snap.stamp));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(catalog, &ctx.snap, &mut scratch)
        }))
        .unwrap_or_else(|payload| Err(Self::panic_error(payload)));
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                scratch.rollback(catalog);
                self.note_failed_write(plan_slot, Self::fault_aborted(&e));
                return Err(e);
            }
        };
        if let Err(e) = self.wal_log_statement(catalog, &ctx.snap, &scratch) {
            scratch.rollback(catalog);
            self.note_failed_write(plan_slot, true);
            return Err(e);
        }
        self.publish(scratch, &ctx.snap.stamp);
        Ok(out)
    }

    /// Account for a write statement whose effects were just rolled
    /// back, dropping `plan_slot`'s plan when it may be `stale`.
    fn note_failed_write(&self, plan_slot: Option<&CachedStmt>, stale: bool) {
        self.db.note_rollback();
        if let Some(cached) = plan_slot.filter(|_| stale) {
            Self::invalidate_plan_slot(cached);
        }
    }

    /// Publish a durable statement: fold its undo scope into the open
    /// transaction, or in autocommit store the commit timestamp into
    /// its stamp.
    fn publish(&self, scratch: UndoLog, stamp: &TxnStamp) {
        match self.txn.borrow_mut().as_mut() {
            Some(txn) => txn.absorb(scratch),
            None => self.db.commit_stamp(stamp),
        }
    }

    /// Execute through the compiled plan when one applies; otherwise
    /// fall back to [`Connection::execute_ast`] (the interpreter).
    fn execute_cached(&self, cached: &CachedStmt, params: &[Value]) -> SqlResult<StatementResult> {
        match &cached.stmt {
            Statement::Select(s) => {
                self.db.inner.stmt_counter.fetch_add(1, Ordering::Relaxed);
                let named: HashMap<String, Value> = HashMap::new();
                // Readers resolve row visibility against this snapshot;
                // they take per-table guards only in shared mode and
                // never observe an unstamped (uncommitted) version.
                let ctx = self.snapshot_ctx();
                let catalog = self.db.inner.catalog.read();
                let plan = self.compiled_plan(cached, &catalog);
                if let Err(e) = catalog.fault_bind_complete() {
                    Self::invalidate_plan_slot(cached);
                    return Err(e);
                }
                let rs = match &*plan {
                    CompiledPlan::Select(p) => crate::exec::batch::run_select_batched(
                        &catalog,
                        &ctx.snap,
                        p,
                        params,
                        &named,
                        &mut self.batch.borrow_mut(),
                    )?,
                    CompiledPlan::Aggregate(p) => crate::exec::batch::run_agg_plan(
                        &catalog,
                        &ctx.snap,
                        p,
                        params,
                        &named,
                        &mut self.batch.borrow_mut(),
                    )?,
                    _ => crate::exec::select::run_select(&catalog, &ctx.snap, s, params, &named)?,
                };
                self.db
                    .inner
                    .rows_counter
                    .fetch_add(rs.rows.len() as u64, Ordering::Relaxed);
                Ok(StatementResult::Rows(rs))
            }
            Statement::Update(_) | Statement::Delete(_) => {
                let named: HashMap<String, Value> = HashMap::new();
                // Bind (or fetch) the plan under the *shared* shape lock:
                // a compiled, subquery-free single-table statement runs on
                // the fast path — exclusive only on its own table — so DML
                // on disjoint tables proceeds truly concurrently.
                let catalog = self.db.inner.catalog.read();
                let plan = self.compiled_plan(cached, &catalog);
                if let CompiledPlan::Dml(p) = &*plan {
                    if !p.has_subquery() {
                        self.db.inner.stmt_counter.fetch_add(1, Ordering::Relaxed);
                        if let Err(e) = catalog.fault_bind_complete() {
                            Self::invalidate_plan_slot(cached);
                            return Err(e);
                        }
                        return self
                            .fast_write(
                                &catalog,
                                p.table_name(),
                                Some(cached),
                                |snap, table, undo| {
                                    crate::plan::run_dml_plan(
                                        &catalog,
                                        snap,
                                        Some(table),
                                        p,
                                        params,
                                        &named,
                                        undo,
                                    )
                                },
                            )
                            .map(StatementResult::Affected);
                    }
                }
                drop(catalog);
                if matches!(&*plan, CompiledPlan::Unsupported) {
                    return self.execute_ast_inner(&cached.stmt, params);
                }
                // Subquery-bearing compiled plan: the exclusive path. The
                // plan must be re-fetched under the write lock — DDL may
                // have moved the epoch in the lock gap.
                let mut catalog = self.db.inner.catalog.write();
                let plan = self.compiled_plan(cached, &catalog);
                let CompiledPlan::Dml(p) = &*plan else {
                    drop(catalog);
                    return self.execute_ast_inner(&cached.stmt, params);
                };
                self.db.inner.stmt_counter.fetch_add(1, Ordering::Relaxed);
                if let Err(e) = catalog.fault_bind_complete() {
                    Self::invalidate_plan_slot(cached);
                    return Err(e);
                }
                self.exclusive_write(&mut catalog, Some(cached), |catalog, snap, undo| {
                    crate::plan::run_dml_plan(catalog, snap, None, p, params, &named, undo)
                })
                .map(StatementResult::Affected)
            }
            Statement::Insert(ins) if Self::insert_is_fast(ins) => {
                // Subquery-free `INSERT … VALUES`: runs under the shared
                // shape lock, exclusive only on its target table.
                self.db.inner.stmt_counter.fetch_add(1, Ordering::Relaxed);
                let named: HashMap<String, Value> = HashMap::new();
                let catalog = self.db.inner.catalog.read();
                self.fast_write(&catalog, &ins.table, None, |snap, table, undo| {
                    crate::exec::dml::run_write(
                        &catalog,
                        snap,
                        Some(table),
                        &cached.stmt,
                        params,
                        &named,
                        undo,
                    )
                })
                .map(StatementResult::Affected)
            }
            _ => self.execute_ast_inner(&cached.stmt, params),
        }
    }

    /// Execute and require a result grid.
    pub fn query(&self, sql: &str, params: &[Value]) -> SqlResult<QueryResult> {
        match self.execute(sql, params)? {
            StatementResult::Rows(r) => Ok(r),
            other => Err(SqlError::Semantic(format!(
                "statement did not return rows ({other:?})"
            ))),
        }
    }

    /// Execute a semicolon-separated script; returns one result per statement.
    pub fn execute_script(&self, sql: &str) -> SqlResult<Vec<StatementResult>> {
        let stmts = parse_script(sql)?;
        self.db
            .inner
            .parse_counter
            .fetch_add(stmts.len() as u64, Ordering::Relaxed);
        let mut out = Vec::with_capacity(stmts.len());
        for s in &stmts {
            self.fault_gate(s)?;
            let mark = crate::catalog::draw_mark();
            let result = self.execute_ast_inner(s, &[]);
            self.settle_draws(mark, result.is_err());
            out.push(result?);
        }
        self.db.maybe_gc();
        Ok(out)
    }

    /// Execute an already-parsed statement (public surface; gated by the
    /// fault injector like every other entry point).
    pub fn execute_ast(&self, stmt: &Statement, params: &[Value]) -> SqlResult<StatementResult> {
        self.fault_gate(stmt)?;
        self.execute_ast_inner(stmt, params)
    }

    /// Execute an already-parsed statement.
    ///
    /// `SELECT` runs under a *shared* catalog lock — any number of readers
    /// proceed in parallel — while DDL, `CALL`, subquery-bearing DML, and
    /// rollback take the exclusive lock. Isolation is snapshot-per-
    /// statement (snapshot-per-transaction under BEGIN…COMMIT): every
    /// read resolves row visibility against a commit-timestamped
    /// snapshot, so a reader sees either all of a statement's writes or
    /// none of them, never a torn mix — and never another connection's
    /// uncommitted work.
    fn execute_ast_inner(&self, stmt: &Statement, params: &[Value]) -> SqlResult<StatementResult> {
        self.db.inner.stmt_counter.fetch_add(1, Ordering::Relaxed);
        match stmt {
            Statement::Begin => {
                let mut txn = self.txn.borrow_mut();
                if txn.is_some() {
                    return Err(SqlError::Txn("transaction already open".into()));
                }
                // One snapshot and one write stamp for the whole
                // transaction: repeatable reads, and a single COMMIT-time
                // store publishes every row it wrote.
                let snap = self.db.register_snapshot();
                *txn = Some(UndoLog::new(Arc::clone(&snap.stamp)));
                *self.txn_snap.borrow_mut() = Some(snap);
                Ok(StatementResult::TxnControl)
            }
            Statement::Commit => {
                // A frozen (crashed) process must not acknowledge a
                // commit: the terminator would never reach the log.
                if self
                    .db
                    .inner
                    .injector
                    .lock()
                    .as_ref()
                    .is_some_and(|i| i.frozen())
                {
                    return Err(crashed_error());
                }
                let mut txn = self.txn.borrow_mut();
                if txn.take().is_none() {
                    return Err(SqlError::Txn("COMMIT without open transaction".into()));
                }
                drop(txn);
                self.clear_prepared();
                let finished = self.txn_snap.borrow_mut().take();
                // The shared catalog lock spans the Commit append *and*
                // the stamp: a checkpoint (exclusive lock, reading under
                // the committed snapshot) must never find a transaction
                // closed on the log but not yet stamped, or its image
                // would drop acknowledged rows from the log it replaces.
                let catalog = self.db.inner.catalog.read();
                let appended = match (self.db.inner.wal.as_ref(), self.wal_txn.take()) {
                    (Some(wal), Some(id)) => wal
                        .append(
                            &[WalRecord::Commit {
                                txn: id,
                                epoch: catalog.epoch(),
                                sequences: catalog.sequence_states(),
                            }],
                            AppendMode::Full,
                        )
                        .map(|()| wal.note_txn_closed()),
                    _ => Ok(()),
                };
                if let Some(snap) = finished {
                    if appended.is_ok() {
                        // The commit point: stamping at WAL-ack makes
                        // every version this transaction wrote visible
                        // in one atomic store, and crash recovery
                        // reconstructs exactly this committed state. A
                        // failed append leaves the versions unstamped —
                        // invisible forever, the same outcome recovery
                        // would produce.
                        self.db.commit_stamp(&snap.stamp);
                    }
                    self.db.release_snapshot(snap.ts);
                }
                drop(catalog);
                appended.map(|()| StatementResult::TxnControl)
            }
            Statement::Rollback => {
                let log = self
                    .txn
                    .borrow_mut()
                    .take()
                    .ok_or_else(|| SqlError::Txn("ROLLBACK without open transaction".into()))?;
                self.clear_prepared();
                let mut catalog = self.db.inner.catalog.write();
                log.rollback(&mut catalog);
                self.db.note_rollback();
                drop(catalog);
                self.wal_abort();
                if let Some(snap) = self.txn_snap.borrow_mut().take() {
                    self.db.release_snapshot(snap.ts);
                }
                Ok(StatementResult::TxnControl)
            }
            Statement::Select(s) => {
                let named: HashMap<String, Value> = HashMap::new();
                let ctx = self.snapshot_ctx();
                let catalog = self.db.inner.catalog.read();
                let rs = crate::exec::select::run_select(&catalog, &ctx.snap, s, params, &named)?;
                self.db
                    .inner
                    .rows_counter
                    .fetch_add(rs.rows.len() as u64, Ordering::Relaxed);
                Ok(StatementResult::Rows(rs))
            }
            other => {
                let named: HashMap<String, Value> = HashMap::new();
                let mut catalog = self.db.inner.catalog.write();
                let result = self.exclusive_write(&mut catalog, None, |catalog, snap, undo| {
                    crate::exec::execute(catalog, snap, other, params, &named, undo)
                })?;
                if let StatementResult::Rows(rs) = &result {
                    self.db
                        .inner
                        .rows_counter
                        .fetch_add(rs.rows.len() as u64, Ordering::Relaxed);
                }
                // Track temp tables for drop-on-close.
                if let Statement::CreateTable(c) = other {
                    if c.temporary {
                        self.temp_tables.borrow_mut().push(c.name.clone());
                    }
                }
                if let Statement::DropTable { name, .. } = other {
                    self.temp_tables
                        .borrow_mut()
                        .retain(|t| !t.eq_ignore_ascii_case(name));
                }
                // DDL invalidates dependent cached plans. For CALL, the
                // procedure body may itself run DDL; collect its targets
                // too (one call level deep — nested CALLs running DDL are
                // not a supported pattern).
                let mut targets = other.ddl_targets();
                if let Statement::Call { name, .. } = other {
                    if let Ok(proc) = catalog.procedure(name) {
                        for body_stmt in &proc.body {
                            targets.extend(body_stmt.ddl_targets());
                        }
                    }
                }
                drop(catalog);
                if !targets.is_empty() {
                    self.db.invalidate_statements(&targets);
                }
                Ok(result)
            }
        }
    }

    /// Roll back any open transaction (no-op otherwise).
    ///
    /// A transaction in the 2PC *prepared* window is not rolled back: the
    /// yes-vote is durable and the transaction's fate belongs to the
    /// coordinator, so unilaterally aborting here would break cross-shard
    /// atomicity (the decision log may already say commit). It is
    /// *detached* instead — the connection forgets it, its snapshot is
    /// released, and the unterminated `Prepare` on the log leaves it
    /// in-doubt for the next recovery to resolve against the decision
    /// log. Its writes stay unstamped (invisible) in this instance, and
    /// the open-transaction and prepared gauges keep blocking checkpoints
    /// so the undecided transaction can never be baked into a snapshot.
    pub fn rollback_if_open(&self) {
        if self.prepared.get() {
            let _ = self.txn.borrow_mut().take();
            if let Some(snap) = self.txn_snap.borrow_mut().take() {
                self.db.release_snapshot(snap.ts);
            }
            return;
        }
        if let Some(log) = self.txn.borrow_mut().take() {
            self.clear_prepared();
            let mut catalog = self.db.inner.catalog.write();
            log.rollback(&mut catalog);
            self.db.note_rollback();
            drop(catalog);
            self.wal_abort();
            if let Some(snap) = self.txn_snap.borrow_mut().take() {
                self.db.release_snapshot(snap.ts);
            }
        }
    }

    /// Leave the prepared window, decrementing the WAL gauge that blocks
    /// checkpoints. Idempotent; called by every path that terminates the
    /// transaction (COMMIT, ROLLBACK, rollback-on-drop).
    fn clear_prepared(&self) {
        if self.prepared.replace(false) {
            if let Some(wal) = self.db.inner.wal.as_ref() {
                wal.note_prepared_resolved();
            }
        }
    }

    /// Is this connection's transaction sitting in the prepared window?
    pub fn is_prepared(&self) -> bool {
        self.prepared.get()
    }

    /// Phase 1 of two-phase commit: durably record this participant's
    /// *yes* vote for the open explicit transaction under global
    /// transaction id `gid`. The `Prepare` record carries the catalog
    /// epoch and sequence states a later `Commit` needs, so recovery can
    /// finish the commit from the log alone. After `Ok`, the transaction
    /// is in-doubt: this connection may only [`commit_prepared`]
    /// (coordinator said commit) or [`abort_prepared`] (coordinator said
    /// abort) — and if the process dies first, recovery resolves the
    /// transaction against the coordinator's decision log.
    ///
    /// [`commit_prepared`]: Connection::commit_prepared
    /// [`abort_prepared`]: Connection::abort_prepared
    pub fn prepare_transaction(&self, gid: u64) -> SqlResult<()> {
        let injector = self.db.inner.injector.lock().clone();
        if let Some(inj) = &injector {
            if inj.frozen() {
                return Err(crashed_error());
            }
        }
        if self.txn.borrow().is_none() {
            return Err(SqlError::Txn("PREPARE without open transaction".into()));
        }
        if self.prepared.get() {
            return Err(SqlError::Txn("transaction already prepared".into()));
        }
        let Some(wal) = self.db.inner.wal.as_ref() else {
            return Err(SqlError::Txn(
                "two-phase commit requires a durable (WAL-backed) database".into(),
            ));
        };
        let crash = injector.as_ref().and_then(|i| i.on_prepare());
        if crash == Some(PrepareCrash::Before) {
            // Die before the vote reaches the log: recovery sees an
            // ordinary loser and undoes it; the coordinator sees a dead
            // participant and presumes abort. Consistent either way.
            if let Some(inj) = &injector {
                inj.deliver_crash();
            }
            return Err(crashed_error());
        }
        let mut records = Vec::with_capacity(2);
        let txn_id = match self.wal_txn.get() {
            Some(id) => id,
            None => {
                // A participant that only read still votes; its Prepare
                // must name a logged transaction, so open one now.
                let id = wal.alloc_txn();
                self.wal_txn.set(Some(id));
                records.push(WalRecord::Begin { txn: id });
                wal.note_txn_open();
                id
            }
        };
        {
            let catalog = self.db.inner.catalog.read();
            records.push(WalRecord::Prepare {
                txn: txn_id,
                gid,
                epoch: catalog.epoch(),
                sequences: catalog.sequence_states(),
            });
        }
        match crash {
            Some(PrepareCrash::AfterWrite) => {
                // The vote lands durably but is never acknowledged: the
                // coordinator presumes abort, and recovery must resolve
                // the in-doubt transaction to abort from the decision log.
                wal.append(&records, AppendMode::Full)?;
                if let Some(inj) = &injector {
                    inj.deliver_crash();
                }
                Err(crashed_error())
            }
            Some(PrepareCrash::Torn) => {
                // A torn vote is no vote: recovery truncates at the tear
                // and treats the transaction as a loser.
                wal.append(&records, AppendMode::Torn)?;
                if let Some(inj) = &injector {
                    inj.deliver_crash();
                }
                Err(crashed_error())
            }
            Some(PrepareCrash::AfterAck) => {
                // The classic in-doubt window: vote cast and acknowledged,
                // then the process dies before phase 2 arrives. The later
                // COMMIT fails `Crashed`; recovery consults the decision
                // log, which may well say commit.
                wal.append(&records, AppendMode::Full)?;
                self.prepared.set(true);
                wal.note_prepared();
                if let Some(inj) = &injector {
                    inj.deliver_crash();
                }
                Ok(())
            }
            Some(PrepareCrash::Before) | None => {
                wal.append(&records, AppendMode::Full)?;
                self.prepared.set(true);
                wal.note_prepared();
                Ok(())
            }
        }
    }

    /// Phase 2, commit side: finish a prepared transaction after the
    /// coordinator logged a commit decision.
    pub fn commit_prepared(&self) -> SqlResult<()> {
        if !self.prepared.get() {
            return Err(SqlError::Txn(
                "COMMIT PREPARED without a prepared transaction".into(),
            ));
        }
        self.execute("COMMIT", &[]).map(|_| ())
    }

    /// Phase 2, abort side: roll a prepared transaction back after the
    /// coordinator decided (or presumed) abort.
    pub fn abort_prepared(&self) -> SqlResult<()> {
        if !self.prepared.get() {
            return Err(SqlError::Txn(
                "ROLLBACK PREPARED without a prepared transaction".into(),
            ));
        }
        self.execute("ROLLBACK", &[]).map(|_| ())
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.rollback_if_open();
        let temp: Vec<String> = self.temp_tables.borrow_mut().drain(..).collect();
        if !temp.is_empty() {
            let mut catalog = self.db.inner.catalog.write();
            for t in &temp {
                let _ = catalog.remove_table(t);
            }
            drop(catalog);
            // Plans over the dead temp tables must not survive either.
            let names: Vec<String> = temp.iter().map(|t| t.to_ascii_lowercase()).collect();
            self.db.invalidate_statements(&names);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Database, Connection) {
        let db = Database::new("test");
        let conn = db.connect();
        conn.execute_script(
            "CREATE TABLE Orders (OrderId INT PRIMARY KEY, ItemId TEXT, \
             Quantity INT, Approved BOOL);
             INSERT INTO Orders VALUES
               (1, 'widget', 10, TRUE),
               (2, 'widget', 5, TRUE),
               (3, 'gadget', 7, FALSE),
               (4, 'gadget', 3, TRUE),
               (5, 'sprocket', 2, TRUE);",
        )
        .unwrap();
        (db, conn)
    }

    #[test]
    fn basic_query() {
        let (_db, conn) = setup();
        let rs = conn
            .query("SELECT ItemId, Quantity FROM Orders WHERE OrderId = 1", &[])
            .unwrap();
        assert_eq!(rs.columns, vec!["ItemId", "Quantity"]);
        assert_eq!(rs.rows, vec![vec![Value::text("widget"), Value::Int(10)]]);
    }

    #[test]
    fn the_papers_aggregation_query() {
        // SQL_1 from Figure 4.
        let (_db, conn) = setup();
        let rs = conn
            .query(
                "SELECT ItemId, SUM(Quantity) AS Quantity FROM Orders \
                 WHERE Approved = TRUE GROUP BY ItemId ORDER BY ItemId",
                &[],
            )
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::text("gadget"), Value::Int(3)],
                vec![Value::text("sprocket"), Value::Int(2)],
                vec![Value::text("widget"), Value::Int(15)],
            ]
        );
    }

    #[test]
    fn host_parameters() {
        let (_db, conn) = setup();
        let rs = conn
            .query(
                "SELECT OrderId FROM Orders WHERE ItemId = ? AND Quantity > ? ORDER BY OrderId",
                &[Value::text("widget"), Value::Int(4)],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn dml_roundtrip_and_affected_counts() {
        let (_db, conn) = setup();
        let r = conn
            .execute(
                "UPDATE Orders SET Approved = TRUE WHERE Approved = FALSE",
                &[],
            )
            .unwrap();
        assert_eq!(r.affected(), Some(1));
        let r = conn
            .execute("DELETE FROM Orders WHERE Quantity < 5", &[])
            .unwrap();
        assert_eq!(r.affected(), Some(2));
        let rs = conn.query("SELECT COUNT(*) FROM Orders", &[]).unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(3));
    }

    #[test]
    fn transaction_commit_and_rollback() {
        let (_db, conn) = setup();
        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("DELETE FROM Orders", &[]).unwrap();
        conn.execute("ROLLBACK", &[]).unwrap();
        assert_eq!(
            conn.query("SELECT COUNT(*) FROM Orders", &[])
                .unwrap()
                .single_value()
                .unwrap(),
            &Value::Int(5)
        );

        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("DELETE FROM Orders WHERE OrderId = 1", &[])
            .unwrap();
        conn.execute("COMMIT", &[]).unwrap();
        assert_eq!(
            conn.query("SELECT COUNT(*) FROM Orders", &[])
                .unwrap()
                .single_value()
                .unwrap(),
            &Value::Int(4)
        );
    }

    #[test]
    fn txn_misuse_errors() {
        let (_db, conn) = setup();
        assert_eq!(conn.execute("COMMIT", &[]).unwrap_err().class(), "txn");
        assert_eq!(conn.execute("ROLLBACK", &[]).unwrap_err().class(), "txn");
        conn.execute("BEGIN", &[]).unwrap();
        assert_eq!(conn.execute("BEGIN", &[]).unwrap_err().class(), "txn");
    }

    #[test]
    fn statement_atomicity_on_error() {
        let (_db, conn) = setup();
        // Second row violates the primary key; the first must not stick.
        let err = conn
            .execute(
                "INSERT INTO Orders VALUES (100, 'x', 1, TRUE), (1, 'dup', 1, TRUE)",
                &[],
            )
            .unwrap_err();
        assert_eq!(err.class(), "constraint");
        let rs = conn
            .query("SELECT COUNT(*) FROM Orders WHERE OrderId = 100", &[])
            .unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(0));
    }

    #[test]
    fn dropping_connection_rolls_back_open_txn() {
        let (db, conn) = setup();
        {
            let c2 = db.connect();
            c2.execute("BEGIN", &[]).unwrap();
            c2.execute("DELETE FROM Orders", &[]).unwrap();
            // c2 dropped here without COMMIT.
        }
        assert_eq!(
            conn.query("SELECT COUNT(*) FROM Orders", &[])
                .unwrap()
                .single_value()
                .unwrap(),
            &Value::Int(5)
        );
    }

    #[test]
    fn temp_tables_die_with_connection() {
        let (db, _conn) = setup();
        {
            let c2 = db.connect();
            c2.execute("CREATE TEMP TABLE scratch (v INT)", &[])
                .unwrap();
            assert!(db.has_table("scratch"));
        }
        assert!(!db.has_table("scratch"));
    }

    #[test]
    fn prepared_statements_rebind() {
        let (_db, conn) = setup();
        let p = conn
            .prepare("SELECT Quantity FROM Orders WHERE OrderId = ?")
            .unwrap();
        assert_eq!(p.verb(), "SELECT");
        let q1 = conn
            .execute_prepared(&p, &[Value::Int(1)])
            .unwrap()
            .rows()
            .unwrap();
        let q2 = conn
            .execute_prepared(&p, &[Value::Int(4)])
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(q1.single_value().unwrap(), &Value::Int(10));
        assert_eq!(q2.single_value().unwrap(), &Value::Int(3));
    }

    #[test]
    fn stored_procedure_end_to_end() {
        let (_db, conn) = setup();
        conn.execute(
            "CREATE PROCEDURE approve_item(item) AS BEGIN \
               UPDATE Orders SET Approved = TRUE WHERE ItemId = :item; \
               SELECT COUNT(*) AS n FROM Orders WHERE ItemId = :item AND Approved = TRUE; \
             END",
            &[],
        )
        .unwrap();
        let rs = conn
            .execute("CALL approve_item('gadget')", &[])
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(2));
    }

    #[test]
    fn procedure_wrong_arity() {
        let (_db, conn) = setup();
        conn.execute("CREATE PROCEDURE p(a) AS BEGIN SELECT :a; END", &[])
            .unwrap();
        assert_eq!(
            conn.execute("CALL p()", &[]).unwrap_err().class(),
            "semantic"
        );
    }

    #[test]
    fn sequences_via_nextval() {
        let (_db, conn) = setup();
        conn.execute("CREATE SEQUENCE ids START WITH 1000", &[])
            .unwrap();
        let rs = conn.query("SELECT NEXTVAL('ids')", &[]).unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(1000));
        let rs = conn.query("SELECT NEXTVAL('ids')", &[]).unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(1001));
    }

    #[test]
    fn joins_inner_left() {
        let (_db, conn) = setup();
        conn.execute_script(
            "CREATE TABLE Items (ItemId TEXT PRIMARY KEY, Price FLOAT);
             INSERT INTO Items VALUES ('widget', 2.5), ('gadget', 4.0);",
        )
        .unwrap();
        let rs = conn
            .query(
                "SELECT o.OrderId, i.Price FROM Orders o JOIN Items i \
                 ON o.ItemId = i.ItemId ORDER BY o.OrderId",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 4); // sprocket has no price
        let rs = conn
            .query(
                "SELECT o.OrderId, i.Price FROM Orders o LEFT JOIN Items i \
                 ON o.ItemId = i.ItemId ORDER BY o.OrderId",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 5);
        assert!(rs.rows[4][1].is_null());
    }

    #[test]
    fn right_join_pads_left() {
        let (_db, conn) = setup();
        conn.execute_script(
            "CREATE TABLE Items (ItemId TEXT PRIMARY KEY, Price FLOAT);
             INSERT INTO Items VALUES ('widget', 2.5), ('unused', 9.9);",
        )
        .unwrap();
        let rs = conn
            .query(
                "SELECT o.OrderId, i.ItemId FROM Orders o RIGHT JOIN Items i \
                 ON o.ItemId = i.ItemId",
                &[],
            )
            .unwrap();
        // widget matches orders 1 and 2; 'unused' padded with NULL left side.
        assert_eq!(rs.rows.len(), 3);
        assert!(rs.rows.iter().any(|r| r[0].is_null()));
    }

    #[test]
    fn derived_tables_and_subqueries() {
        let (_db, conn) = setup();
        let rs = conn
            .query(
                "SELECT t.ItemId FROM (SELECT ItemId, SUM(Quantity) q FROM Orders \
                 GROUP BY ItemId) t WHERE t.q > 10",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::text("widget")]]);

        let rs = conn
            .query(
                "SELECT OrderId FROM Orders WHERE Quantity = (SELECT MAX(Quantity) FROM Orders)",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);

        let rs = conn
            .query(
                "SELECT COUNT(*) FROM Orders WHERE ItemId IN \
                 (SELECT ItemId FROM Orders WHERE Quantity > 6)",
                &[],
            )
            .unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(4));
    }

    #[test]
    fn distinct_order_limit_offset() {
        let (_db, conn) = setup();
        let rs = conn
            .query("SELECT DISTINCT ItemId FROM Orders ORDER BY ItemId", &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        let rs = conn
            .query(
                "SELECT OrderId FROM Orders ORDER BY Quantity DESC LIMIT 2 OFFSET 1",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(3)], vec![Value::Int(2)]]);
    }

    #[test]
    fn order_by_ordinal_and_alias() {
        let (_db, conn) = setup();
        let rs = conn
            .query(
                "SELECT ItemId, SUM(Quantity) AS total FROM Orders GROUP BY ItemId \
                 ORDER BY total DESC",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::text("widget"));
        let rs = conn
            .query(
                "SELECT ItemId, Quantity FROM Orders ORDER BY 2 DESC LIMIT 1",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows[0][1], Value::Int(10));
    }

    #[test]
    fn aggregates_over_empty_input() {
        let (_db, conn) = setup();
        let rs = conn
            .query(
                "SELECT COUNT(*), SUM(Quantity), MIN(Quantity) FROM Orders WHERE OrderId > 999",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
        assert!(rs.rows[0][2].is_null());
    }

    #[test]
    fn count_distinct() {
        let (_db, conn) = setup();
        let rs = conn
            .query("SELECT COUNT(DISTINCT ItemId) FROM Orders", &[])
            .unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(3));
    }

    #[test]
    fn insert_from_select() {
        let (_db, conn) = setup();
        conn.execute(
            "CREATE TABLE Summary (ItemId TEXT PRIMARY KEY, Total INT)",
            &[],
        )
        .unwrap();
        let r = conn
            .execute(
                "INSERT INTO Summary SELECT ItemId, SUM(Quantity) FROM Orders \
                 WHERE Approved = TRUE GROUP BY ItemId",
                &[],
            )
            .unwrap();
        assert_eq!(r.affected(), Some(3));
    }

    #[test]
    fn qualified_wildcard() {
        let (_db, conn) = setup();
        let rs = conn
            .query("SELECT o.* FROM Orders o WHERE o.OrderId = 1", &[])
            .unwrap();
        assert_eq!(rs.columns.len(), 4);
    }

    #[test]
    fn grid_rendering() {
        let (_db, conn) = setup();
        let rs = conn
            .query("SELECT ItemId, Quantity FROM Orders WHERE OrderId = 1", &[])
            .unwrap();
        let grid = rs.to_grid();
        assert!(grid.contains("ItemId"));
        assert!(grid.contains("widget"));
    }

    #[test]
    fn stats_count_statements_and_rows() {
        let (db, conn) = setup();
        let before = db.stats();
        conn.query("SELECT * FROM Orders", &[]).unwrap();
        let after = db.stats();
        assert_eq!(after.statements_executed, before.statements_executed + 1);
        assert_eq!(after.rows_returned, before.rows_returned + 5);
    }

    #[test]
    fn cross_connection_visibility() {
        let (db, conn) = setup();
        let c2 = db.connect();
        conn.execute("INSERT INTO Orders VALUES (9, 'x', 1, TRUE)", &[])
            .unwrap();
        assert_eq!(
            c2.query("SELECT COUNT(*) FROM Orders", &[])
                .unwrap()
                .single_value()
                .unwrap(),
            &Value::Int(6)
        );
        assert!(!db.same_as(&Database::new("other")));
        assert!(db.same_as(&db.clone()));
    }

    #[test]
    fn index_ddl_and_usage() {
        let (_db, conn) = setup();
        conn.execute("CREATE INDEX idx_item ON Orders (ItemId)", &[])
            .unwrap();
        assert_eq!(
            conn.execute("CREATE INDEX idx_item ON Orders (ItemId)", &[])
                .unwrap_err()
                .class(),
            "already_exists"
        );
        conn.execute("DROP INDEX idx_item", &[]).unwrap();
        conn.execute("DROP INDEX IF EXISTS idx_item", &[]).unwrap();
    }

    #[test]
    fn index_fast_path_used_for_pk_equality() {
        let (db, conn) = setup();
        let before = db.stats().index_scans;
        let rs = conn
            .query("SELECT ItemId FROM Orders WHERE OrderId = 3", &[])
            .unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::text("gadget"));
        assert_eq!(db.stats().index_scans, before + 1);
    }

    #[test]
    fn index_fast_path_with_params_and_reversed_sides() {
        let (db, conn) = setup();
        let before = db.stats().index_scans;
        let rs = conn
            .query(
                "SELECT ItemId FROM Orders WHERE ? = OrderId",
                &[Value::Int(5)],
            )
            .unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::text("sprocket"));
        assert_eq!(db.stats().index_scans, before + 1);
    }

    #[test]
    fn index_fast_path_respects_residual_predicates() {
        let (_db, conn) = setup();
        let rs = conn
            .query(
                "SELECT COUNT(*) FROM Orders WHERE OrderId = 1 AND Approved = FALSE",
                &[],
            )
            .unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(0));
    }

    #[test]
    fn no_index_fast_path_without_index() {
        let (db, conn) = setup();
        let before = db.stats().index_scans;
        conn.query("SELECT OrderId FROM Orders WHERE ItemId = 'widget'", &[])
            .unwrap();
        assert_eq!(db.stats().index_scans, before);
        // After creating a secondary index the same query takes the fast
        // path and returns identical results.
        let slow = conn
            .query(
                "SELECT OrderId FROM Orders WHERE ItemId = 'widget' ORDER BY OrderId",
                &[],
            )
            .unwrap();
        conn.execute("CREATE INDEX idx_item ON Orders (ItemId)", &[])
            .unwrap();
        let fast = conn
            .query(
                "SELECT OrderId FROM Orders WHERE ItemId = 'widget' ORDER BY OrderId",
                &[],
            )
            .unwrap();
        assert_eq!(slow, fast);
        assert_eq!(db.stats().index_scans, before + 1);
    }

    #[test]
    fn index_fast_path_equals_null_is_empty() {
        let (db, conn) = setup();
        let before = db.stats().index_scans;
        let rs = conn
            .query("SELECT * FROM Orders WHERE OrderId = NULL", &[])
            .unwrap();
        assert!(rs.is_empty());
        assert_eq!(db.stats().index_scans, before + 1);
    }

    #[test]
    fn union_and_union_all() {
        let (_db, conn) = setup();
        let rs = conn
            .query(
                "SELECT ItemId FROM Orders WHERE Approved = TRUE                  UNION SELECT ItemId FROM Orders WHERE Quantity > 5                  ORDER BY ItemId",
                &[],
            )
            .unwrap();
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::text("gadget")],
                vec![Value::text("sprocket")],
                vec![Value::text("widget")],
            ]
        );
        let rs = conn
            .query(
                "SELECT ItemId FROM Orders UNION ALL SELECT ItemId FROM Orders",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 10);
    }

    #[test]
    fn union_order_by_ordinal_and_limit() {
        let (_db, conn) = setup();
        let rs = conn
            .query(
                "SELECT OrderId, Quantity FROM Orders WHERE OrderId <= 2                  UNION SELECT OrderId, Quantity FROM Orders WHERE OrderId >= 4                  ORDER BY 2 DESC LIMIT 2",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows[0][1], Value::Int(10));
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn union_arity_mismatch_errors() {
        let (_db, conn) = setup();
        let err = conn
            .query(
                "SELECT OrderId FROM Orders UNION SELECT OrderId, Quantity FROM Orders",
                &[],
            )
            .unwrap_err();
        assert_eq!(err.class(), "semantic");
    }

    #[test]
    fn union_order_by_source_expression_rejected() {
        let (_db, conn) = setup();
        let err = conn
            .query(
                "SELECT OrderId FROM Orders UNION SELECT OrderId FROM Orders ORDER BY Quantity",
                &[],
            )
            .unwrap_err();
        assert_eq!(err.class(), "semantic");
    }

    #[test]
    fn views_basic() {
        let (_db, conn) = setup();
        conn.execute(
            "CREATE VIEW approved AS SELECT ItemId, SUM(Quantity) AS Total              FROM Orders WHERE Approved = TRUE GROUP BY ItemId",
            &[],
        )
        .unwrap();
        let rs = conn
            .query("SELECT Total FROM approved WHERE ItemId = 'widget'", &[])
            .unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(15));
        // Views see live data.
        conn.execute("INSERT INTO Orders VALUES (10, 'widget', 5, TRUE)", &[])
            .unwrap();
        let rs = conn
            .query("SELECT Total FROM approved WHERE ItemId = 'widget'", &[])
            .unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(20));
    }

    #[test]
    fn views_compose_and_alias() {
        let (_db, conn) = setup();
        conn.execute(
            "CREATE VIEW v1 AS SELECT OrderId, Quantity FROM Orders",
            &[],
        )
        .unwrap();
        conn.execute("CREATE VIEW v2 AS SELECT * FROM v1 WHERE Quantity > 4", &[])
            .unwrap();
        let rs = conn
            .query(
                "SELECT a.OrderId FROM v2 a JOIN Orders o ON a.OrderId = o.OrderId",
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn view_name_conflicts() {
        let (_db, conn) = setup();
        conn.execute("CREATE VIEW w AS SELECT 1", &[]).unwrap();
        assert_eq!(
            conn.execute("CREATE VIEW w AS SELECT 2", &[])
                .unwrap_err()
                .class(),
            "already_exists"
        );
        assert_eq!(
            conn.execute("CREATE TABLE w (a INT)", &[])
                .unwrap_err()
                .class(),
            "already_exists"
        );
        assert_eq!(
            conn.execute("CREATE VIEW Orders AS SELECT 1", &[])
                .unwrap_err()
                .class(),
            "already_exists"
        );
        conn.execute("CREATE VIEW IF NOT EXISTS w AS SELECT 3", &[])
            .unwrap();
        conn.execute("DROP VIEW w", &[]).unwrap();
        assert_eq!(
            conn.execute("DROP VIEW w", &[]).unwrap_err().class(),
            "not_found"
        );
        conn.execute("DROP VIEW IF EXISTS w", &[]).unwrap();
    }

    #[test]
    fn recursive_views_detected() {
        let (_db, conn) = setup();
        // v3 -> v4 created later -> v3 creates a cycle once both exist.
        conn.execute("CREATE VIEW v4 AS SELECT OrderId FROM Orders", &[])
            .unwrap();
        conn.execute("CREATE VIEW v3 AS SELECT * FROM v4", &[])
            .unwrap();
        conn.execute("DROP VIEW v4", &[]).unwrap();
        conn.execute("CREATE VIEW v4 AS SELECT * FROM v3", &[])
            .unwrap();
        let err = conn.query("SELECT * FROM v3", &[]).unwrap_err();
        assert_eq!(err.class(), "runtime");
    }

    #[test]
    fn view_rollback() {
        let (db, conn) = setup();
        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("CREATE VIEW tmpv AS SELECT 1", &[]).unwrap();
        conn.execute("ROLLBACK", &[]).unwrap();
        assert_eq!(
            conn.query("SELECT * FROM tmpv", &[]).unwrap_err().class(),
            "not_found"
        );
        let _ = db;
    }

    #[test]
    fn ddl_transactionality() {
        let (db, conn) = setup();
        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("CREATE TABLE tmp1 (a INT)", &[]).unwrap();
        conn.execute("INSERT INTO tmp1 VALUES (1)", &[]).unwrap();
        conn.execute("ROLLBACK", &[]).unwrap();
        assert!(!db.has_table("tmp1"));
    }

    // ------------------------------------------------------------- WAL

    use crate::wal::MemLogStore;

    fn durable_setup() -> (Database, MemLogStore) {
        let store = MemLogStore::new();
        let db = Database::recover("d", Arc::new(store.clone())).unwrap();
        let conn = db.connect();
        conn.execute_script(
            "CREATE TABLE Orders (OrderId INT PRIMARY KEY, ItemId TEXT, Quantity INT);
             INSERT INTO Orders VALUES (1, 'widget', 10), (2, 'gadget', 7);",
        )
        .unwrap();
        (db, store)
    }

    #[test]
    fn recovery_replays_committed_work() {
        let (db, store) = durable_setup();
        let conn = db.connect();
        conn.execute("UPDATE Orders SET Quantity = 99 WHERE OrderId = 1", &[])
            .unwrap();
        conn.execute("DELETE FROM Orders WHERE OrderId = 2", &[])
            .unwrap();
        drop(conn);
        drop(db); // the "crash": in-memory state is gone

        let db2 = Database::recover("d", Arc::new(store)).unwrap();
        assert_eq!(db2.stats().recoveries, 1);
        let c2 = db2.connect();
        let rs = c2
            .query("SELECT OrderId, Quantity FROM Orders ORDER BY OrderId", &[])
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1), Value::Int(99)]]);
        // Row-id allocation continues where the original left off.
        c2.execute("INSERT INTO Orders VALUES (3, 'sprocket', 1)", &[])
            .unwrap();
        assert_eq!(db2.table_len("Orders").unwrap(), 2);
    }

    #[test]
    fn recovery_rolls_back_open_transaction() {
        let (db, store) = durable_setup();
        let conn = db.connect();
        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("DELETE FROM Orders", &[]).unwrap();
        conn.execute("INSERT INTO Orders VALUES (9, 'x', 1)", &[])
            .unwrap();
        // No COMMIT: simulate the process dying here by never terminating
        // the logged transaction (std::mem::forget keeps Drop's rollback
        // terminator off the log, exactly like a kill -9).
        std::mem::forget(conn);
        drop(db);

        let db2 = Database::recover("d", Arc::new(store)).unwrap();
        let c2 = db2.connect();
        let rs = c2.query("SELECT COUNT(*) FROM Orders", &[]).unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(2));
    }

    #[test]
    fn recovery_honours_explicit_commit_and_abort() {
        let (db, store) = durable_setup();
        let conn = db.connect();
        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("UPDATE Orders SET Quantity = 1 WHERE OrderId = 1", &[])
            .unwrap();
        conn.execute("COMMIT", &[]).unwrap();
        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("UPDATE Orders SET Quantity = 555 WHERE OrderId = 2", &[])
            .unwrap();
        conn.execute("ROLLBACK", &[]).unwrap();
        drop(conn);
        drop(db);

        let db2 = Database::recover("d", Arc::new(store)).unwrap();
        let c2 = db2.connect();
        let rs = c2
            .query("SELECT Quantity FROM Orders ORDER BY OrderId", &[])
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(7)]]);
    }

    #[test]
    fn checkpoint_compacts_and_preserves_state() {
        let (db, store) = durable_setup();
        let size_before = db.log_store().unwrap().size().unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.stats().checkpoints, 1);
        let conn = db.connect();
        conn.execute("INSERT INTO Orders VALUES (3, 's', 4)", &[])
            .unwrap();
        drop(conn);
        drop(db);
        let db2 = Database::recover("d", Arc::new(store)).unwrap();
        assert_eq!(db2.table_len("Orders").unwrap(), 3);
        let _ = size_before;
    }

    #[test]
    fn checkpoint_refused_with_open_transaction() {
        let (db, _store) = durable_setup();
        let conn = db.connect();
        conn.execute("BEGIN", &[]).unwrap();
        conn.execute("INSERT INTO Orders VALUES (3, 's', 4)", &[])
            .unwrap();
        assert_eq!(db.checkpoint().unwrap_err().class(), "txn");
        conn.execute("COMMIT", &[]).unwrap();
        db.checkpoint().unwrap();
    }

    #[test]
    fn sequences_survive_recovery() {
        let (db, store) = durable_setup();
        let conn = db.connect();
        conn.execute("CREATE SEQUENCE ids START WITH 100", &[])
            .unwrap();
        // Draw two values inside a logged write so the commit record
        // carries the advanced counter.
        conn.execute("INSERT INTO Orders VALUES (NEXTVAL('ids'), 'a', 1)", &[])
            .unwrap();
        conn.execute("INSERT INTO Orders VALUES (NEXTVAL('ids'), 'b', 1)", &[])
            .unwrap();
        drop(conn);
        drop(db);
        let db2 = Database::recover("d", Arc::new(store)).unwrap();
        let c2 = db2.connect();
        // The recovered sequence must not re-issue 100 or 101.
        c2.execute("INSERT INTO Orders VALUES (NEXTVAL('ids'), 'c', 1)", &[])
            .unwrap();
        let rs = c2.query("SELECT MAX(OrderId) FROM Orders", &[]).unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(102));
    }

    #[test]
    fn temp_tables_not_logged_or_recovered() {
        let (db, store) = durable_setup();
        let conn = db.connect();
        conn.execute("CREATE TEMP TABLE scratch (v INT)", &[])
            .unwrap();
        conn.execute("INSERT INTO scratch VALUES (1)", &[]).unwrap();
        std::mem::forget(conn);
        drop(db);
        let db2 = Database::recover("d", Arc::new(store)).unwrap();
        assert!(!db2.has_table("scratch"));
        assert!(db2.has_table("Orders"));
    }

    #[test]
    fn stale_prepared_plan_rebinds_on_recovered_instance() {
        // Regression (cross-instance plan reuse): a Prepared bound on the
        // pre-crash instance must re-bind — not execute a stale plan —
        // when run against the recovered instance, even if the two
        // catalogs happen to be at the same epoch number.
        let (db, store) = durable_setup();
        let conn = db.connect();
        let p = conn
            .prepare("UPDATE Orders SET Quantity = Quantity + 1 WHERE OrderId = ?")
            .unwrap();
        conn.execute_prepared(&p, &[Value::Int(1)]).unwrap();
        drop(conn);
        drop(db);

        let db2 = Database::recover("d", Arc::new(store)).unwrap();
        let binds_before = db2.stats().plan_binds;
        let c2 = db2.connect();
        c2.execute_prepared(&p, &[Value::Int(1)]).unwrap();
        assert!(db2.stats().plan_binds > binds_before);
        let rs = c2
            .query("SELECT Quantity FROM Orders WHERE OrderId = 1", &[])
            .unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(12));
    }

    #[test]
    fn wal_counters_reported() {
        let (db, _store) = durable_setup();
        let stats = db.stats();
        assert!(stats.wal_appends >= 2);
        assert!(stats.wal_bytes > 0);
        assert_eq!(stats.recoveries, 0);
    }

    #[test]
    fn file_backed_database_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "sqlkernel_wal_test_{}_{}",
            std::process::id(),
            GLOBAL_DB_TAG.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.wal");
        let open = || Database::recover("f", Arc::new(wal::FileLogStore::new(&path))).unwrap();
        {
            let db = open();
            let conn = db.connect();
            conn.execute("CREATE TABLE T (a INT PRIMARY KEY)", &[])
                .unwrap();
            conn.execute("INSERT INTO T VALUES (1), (2)", &[]).unwrap();
        }
        {
            let db = open();
            assert_eq!(db.table_len("T").unwrap(), 2);
            let conn = db.connect();
            conn.execute("INSERT INTO T VALUES (3)", &[]).unwrap();
        }
        let db = open();
        assert_eq!(db.table_len("T").unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An empty log opens fresh: nothing is written at open, no recovery
    /// is counted, and the log then reads as if the database had been
    /// logging from birth — txn 1 at LSN 1, and every Commit carrying the
    /// epoch an in-memory run of the same statements reaches.
    #[test]
    fn recover_over_an_empty_log_opens_fresh() {
        let store = MemLogStore::new();
        let db = Database::recover("e", Arc::new(store.clone())).unwrap();
        assert!(store.bytes().is_empty());
        assert_eq!(db.stats().recoveries, 0);
        let plain = Database::new("e");
        for sql in [
            "CREATE TABLE T (a INT PRIMARY KEY, b INT)",
            "INSERT INTO T VALUES (1, 10), (2, 20)",
        ] {
            db.connect().execute(sql, &[]).unwrap();
            plain.connect().execute(sql, &[]).unwrap();
            let records = wal::scan(&store.bytes()).records;
            let Some((_, WalRecord::Commit { epoch, .. })) = records.last() else {
                panic!("autocommit must end in a Commit record: {records:?}");
            };
            assert_eq!(*epoch, plain.inner.catalog.read().epoch());
        }
        let records = wal::scan(&store.bytes()).records;
        assert!(
            matches!(records.first(), Some((1, WalRecord::Begin { txn: 1 }))),
            "{:?}",
            records.first()
        );
    }

    /// The registry mutex is poison-transparent: a thread that dies
    /// holding it does not take `lookup`/`publish` down with it.
    #[test]
    fn registry_survives_a_panic_while_locked() {
        let crashed = std::thread::spawn(|| {
            let _guard = shared_registry().lock();
            panic!("dies holding the registry lock");
        })
        .join();
        assert!(crashed.is_err());
        let db = Database::new("registry_after_panic");
        db.publish();
        let found = Database::lookup("sqlkernel://registry_after_panic").unwrap();
        assert!(found.same_as(&db));
        assert!(Database::unpublish("registry_after_panic").is_some());
        assert!(Database::lookup("registry_after_panic").is_none());
    }

    /// An insert/update/delete history (a key move included) that ends
    /// in a loser transaction the process dies inside, so replay both
    /// redoes and undoes every kind of row op.
    fn crash_after_dml_history(db: &Database) {
        let conn = db.connect();
        conn.execute_script(
            "CREATE TABLE h (id INT PRIMARY KEY, v INT);
             INSERT INTO h VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60);
             UPDATE h SET v = v + 1 WHERE id <= 3;
             DELETE FROM h WHERE id = 2 OR id = 5;
             UPDATE h SET id = 10 WHERE id = 1;",
        )
        .unwrap();
        conn.execute_script(
            "BEGIN;
             INSERT INTO h VALUES (7, 70);
             DELETE FROM h WHERE id = 3;
             UPDATE h SET v = 0 WHERE id = 4;",
        )
        .unwrap();
        // Die inside the transaction: no terminator reaches the log.
        std::mem::forget(conn);
    }

    /// One version per live row: replay left no tombstone or superseded
    /// version behind.
    fn assert_single_versions(catalog: &Catalog) {
        let t = catalog.table("h").unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.version_count(), t.len());
    }

    #[test]
    fn log_recovery_leaves_one_version_per_live_row() {
        let store = MemLogStore::new();
        crash_after_dml_history(&Database::recover("h", Arc::new(store.clone())).unwrap());
        assert_single_versions(&wal::replay(&store.bytes()).catalog);
        let db = Database::recover("h", Arc::new(store)).unwrap();
        assert_single_versions(&db.inner.catalog.read());
    }

    #[test]
    fn paged_recovery_leaves_one_version_per_live_row() {
        let log = MemLogStore::new();
        let pages = crate::pager::MemPageStore::new();
        let db =
            Database::open_paged("hp", Arc::new(log.clone()), Arc::new(pages.clone()), 16).unwrap();
        db.checkpoint().unwrap();
        crash_after_dml_history(&db);
        drop(db);
        // The history lives in the WAL tail past the base epoch.
        let engine = PagedEngine::open(Arc::new(pages.clone()), 16).unwrap();
        let scanned = wal::scan(&log.bytes());
        let base = engine.load_base(&scanned).unwrap();
        let outcome = wal::replay_scanned(base, &scanned);
        assert_single_versions(&outcome.catalog);
        let db = Database::open_paged("hp", Arc::new(log), Arc::new(pages), 16).unwrap();
        assert_single_versions(&db.inner.catalog.read());
    }

    // ------------------------------------------------------------- GC

    /// The history seeds of the sweep differential; `CHAOS_SEED`, if
    /// set, adds one more.
    fn gc_history_seeds() -> Vec<u64> {
        let mut seeds: Vec<u64> = (1..=12).collect();
        if let Some(seed) = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            seeds.push(seed);
        }
        seeds
    }

    /// One side of the differential: a durable database with a
    /// connection for autocommit writes, one for an explicit write
    /// transaction and one holding a read snapshot open.
    struct GcTwin {
        db: Database,
        store: MemLogStore,
        auto: Connection,
        writer: Connection,
        reader: Connection,
    }

    impl GcTwin {
        fn new(name: &str) -> GcTwin {
            let store = MemLogStore::new();
            let db = Database::recover(name, Arc::new(store.clone())).unwrap();
            let auto = db.connect();
            auto.execute_script(
                "CREATE TABLE g (id INT PRIMARY KEY, v INT, w INT);
                 CREATE INDEX g_v ON g (v);",
            )
            .unwrap();
            for id in 0..20i64 {
                auto.execute(
                    "INSERT INTO g VALUES (?, ?, 0)",
                    &[Value::Int(id), Value::Int(id % 6)],
                )
                .unwrap();
            }
            GcTwin {
                writer: db.connect(),
                reader: db.connect(),
                auto,
                db,
                store,
            }
        }

        /// Sweep every table: through the garbage lists, or through the
        /// full-walk oracle. Returns versions dropped.
        fn sweep(&self, full_walk: bool) -> u64 {
            let floor = self.db.inner.mvcc.floor.load(Ordering::Acquire);
            let catalog = self.db.inner.catalog.read();
            if full_walk {
                catalog.gc_tables_full_walk(floor)
            } else {
                catalog.gc_tables(floor)
            }
        }

        fn version_count(&self) -> usize {
            let catalog = self.db.inner.catalog.read();
            catalog
                .table_names()
                .iter()
                .map(|n| catalog.table(n).unwrap().version_count())
                .sum()
        }

        fn assert_garbage_exact(&self, ctx: &str) {
            let catalog = self.db.inner.catalog.read();
            for name in catalog.table_names() {
                assert!(
                    catalog.table(&name).unwrap().garbage_is_exact(),
                    "{ctx}: garbage list of {name} is not exact"
                );
            }
        }
    }

    /// What a fresh snapshot reads: every row, and the row ids under
    /// each `v` key through the secondary index.
    fn gc_fingerprint(db: &Database) -> String {
        let conn = db.connect();
        let mut out = format!(
            "{:?}",
            conn.query("SELECT * FROM g ORDER BY id", &[]).unwrap().rows
        );
        for v in 0..6 {
            let ids = conn
                .query("SELECT id FROM g WHERE v = ? ORDER BY id", &[Value::Int(v)])
                .unwrap();
            out.push_str(&format!("\nv={v}: {:?}", ids.rows));
        }
        out
    }

    /// A random autocommit-or-transactional write: key-preserving and
    /// key-moving updates, inserts that may clash, deletes by key and by
    /// index.
    fn gc_random_write(rng: &mut crate::fault::SplitMix64) -> (&'static str, Vec<Value>) {
        let mut int = |n: u64| Value::Int(rng.next_below(n) as i64);
        match int(6) {
            Value::Int(0) => ("UPDATE g SET w = w + 1 WHERE id = ?", vec![int(30)]),
            Value::Int(1) => ("UPDATE g SET v = ? WHERE id = ?", vec![int(6), int(30)]),
            Value::Int(2) => ("UPDATE g SET w = w + 1 WHERE v = ?", vec![int(6)]),
            Value::Int(3) => ("UPDATE g SET id = ? WHERE id = ?", vec![int(30), int(30)]),
            Value::Int(4) => ("INSERT INTO g VALUES (?, ?, 0)", vec![int(30), int(6)]),
            _ => (
                "DELETE FROM g WHERE id = ? OR v = ?",
                vec![int(30), int(12)],
            ),
        }
    }

    /// Randomized write / snapshot / rollback histories, swept through
    /// the garbage lists on one twin and by the full walk on the other,
    /// leave identical version counts and contents at every sweep, and
    /// every write keeps the lists exact. The recovered twins agree too.
    #[test]
    fn gc_garbage_list_sweep_matches_full_walk() {
        for seed in gc_history_seeds() {
            let mut rng = crate::fault::SplitMix64::new(seed);
            let twins = [GcTwin::new("gc_list"), GcTwin::new("gc_walk")];
            let (mut in_txn, mut reading) = (false, false);
            for step in 0..300 {
                let ctx = format!("seed {seed} step {step}");
                let outcomes: Vec<String> = match rng.next_below(12) {
                    0..=5 => {
                        let (sql, params) = gc_random_write(&mut rng);
                        let on_writer = in_txn && rng.next_below(2) == 0;
                        twins
                            .iter()
                            .map(|t| {
                                let conn = if on_writer { &t.writer } else { &t.auto };
                                format!("{:?}", conn.execute(sql, &params).map(|r| r.affected()))
                            })
                            .collect()
                    }
                    6 | 7 => {
                        let sql = match (in_txn, rng.next_below(2)) {
                            (false, _) => "BEGIN",
                            (true, 0) => "COMMIT",
                            (true, _) => "ROLLBACK",
                        };
                        in_txn = !in_txn;
                        twins
                            .iter()
                            .map(|t| format!("{:?}", t.writer.execute(sql, &[]).map(|_| ())))
                            .collect()
                    }
                    8 | 9 => {
                        let sql = if reading { "COMMIT" } else { "BEGIN" };
                        reading = !reading;
                        twins
                            .iter()
                            .map(|t| {
                                t.reader.execute(sql, &[]).unwrap();
                                // The snapshot is taken at the first read.
                                format!(
                                    "{:?}",
                                    t.reader.query("SELECT * FROM g", &[]).map(|r| r.rows)
                                )
                            })
                            .collect()
                    }
                    _ => {
                        let dropped = [twins[0].sweep(false), twins[1].sweep(true)];
                        assert_eq!(dropped[0], dropped[1], "{ctx}: versions dropped");
                        assert_eq!(
                            twins[0].version_count(),
                            twins[1].version_count(),
                            "{ctx}: version counts"
                        );
                        twins.iter().map(|t| gc_fingerprint(&t.db)).collect()
                    }
                };
                assert_eq!(outcomes[0], outcomes[1], "{ctx}");
                for t in &twins {
                    t.assert_garbage_exact(&ctx);
                }
            }
            // Recover each twin from its log while the writer's
            // transaction (if any) is still open: replay redoes the
            // committed history and undoes the loser.
            let recovered: Vec<Database> = twins
                .iter()
                .map(|t| {
                    let log = MemLogStore::from_bytes(t.store.bytes());
                    Database::recover("gc_recovered", Arc::new(log)).unwrap()
                })
                .collect();
            for t in &twins {
                t.writer.rollback_if_open();
                t.reader.rollback_if_open();
            }
            assert_eq!(twins[0].sweep(false), twins[1].sweep(true), "seed {seed}");
            assert_eq!(twins[0].version_count(), twins[1].version_count());
            assert_eq!(
                gc_fingerprint(&twins[0].db),
                gc_fingerprint(&twins[1].db),
                "seed {seed}"
            );
            assert_eq!(
                gc_fingerprint(&recovered[0]),
                gc_fingerprint(&recovered[1]),
                "seed {seed}: recovered"
            );
            for db in &recovered {
                let catalog = db.inner.catalog.read();
                let g = catalog.table("g").unwrap();
                assert!(g.garbage_is_exact(), "seed {seed}: recovered garbage list");
                assert_eq!(
                    g.version_count(),
                    g.len(),
                    "seed {seed}: recovered versions"
                );
            }
        }
    }
}
