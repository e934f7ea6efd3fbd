//! The engine's counters, declared once.
//!
//! Every [`DbStats`] field is one entry of the table at the bottom of
//! this file: its doc comment, its name, and where its value comes
//! from.
//!
//! * `counted Slot`: the engine counts it. The field has a slot in
//!   [`Counters`], one `AtomicU64` named by `Counter::Slot`, and the
//!   engine adds to it through [`Counters::add`]. The array lives in the
//!   `Arc<MvccShared>` that the database, its catalog, every table and
//!   the WAL share, so no layer needs a new pointer to count.
//! * `owner`: the component that owns the value keeps it, and
//!   `Database::stats` reads it there through one accessor.
//!
//! The table generates the public [`DbStats`] struct (fields in table
//! order), [`DbStats::fields`], the [`Counter`] enum and
//! [`Counters::snapshot`]. A new counter is one line here (plus a
//! work-budget re-record).

use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counters {
    ($(
        $(#[$doc:meta])*
        $field:ident: $(counted $slot:ident)? $(owner)?,
    )*) => {
        /// Cumulative engine counters, used by the benchmark harness to
        /// report work volumes (e.g. rows shipped into the process space)
        /// and by tests to prove the statement cache and index fast paths
        /// are actually taken.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct DbStats {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl DbStats {
            /// Every field's name and value, in declaration order.
            pub fn fields(&self) -> [(&'static str, u64); FIELDS] {
                [$( (stringify!($field), self.$field), )*]
            }
        }

        /// Number of [`DbStats`] fields.
        const FIELDS: usize = [$( stringify!($field), )*].len();

        /// A counted [`DbStats`] field: the index of its slot in
        /// [`Counters`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Counter {
            $( $( $slot, )? )*
        }

        /// Number of counted fields.
        const SLOTS: usize = [$( $( stringify!($slot), )? )*].len();

        impl Counter {
            /// Every counter, in slot order.
            #[cfg(test)]
            const ALL: [Counter; SLOTS] = [$( $( Counter::$slot, )? )*];
        }

        impl Counters {
            /// The counted fields' values. Owner-read fields are 0; the
            /// database fills them in.
            pub(crate) fn snapshot(&self) -> DbStats {
                let mut stats = DbStats::default();
                $( $( stats.$field = self.get(Counter::$slot); )? )*
                stats
            }
        }
    };
}

/// One atomic slot per counted [`DbStats`] field, indexed by
/// [`Counter`].
#[derive(Debug)]
pub(crate) struct Counters([AtomicU64; SLOTS]);

impl Default for Counters {
    fn default() -> Self {
        Counters([const { AtomicU64::new(0) }; SLOTS])
    }
}

impl Counters {
    /// Add `n` to `counter`.
    #[inline]
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    #[inline]
    pub(crate) fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize].load(Ordering::Relaxed)
    }
}

counters! {
    /// Statements executed: each statement of a script once, and an
    /// `execute_batch` call once, whatever its parameter sets.
    statements_executed: counted StatementsExecuted,
    /// Rows returned to callers by queries.
    rows_returned: counted RowsReturned,
    /// Scans answered through an index fast path.
    index_scans: counted IndexScans,
    /// Scans that walked a whole base table.
    full_scans: counted FullScans,
    /// Statement texts run through the parser.
    parses: counted Parses,
    /// Statement-cache lookups answered without parsing.
    stmt_cache_hits: counted StmtCacheHits,
    /// Statement-cache lookups that had to parse.
    stmt_cache_misses: counted StmtCacheMisses,
    /// Scans served by an index *range* walk (incl. order-only walks).
    range_scans: counted RangeScans,
    /// Statements compiled to a bound plan (re-binds after DDL included).
    plan_binds: counted PlanBinds,
    /// Bound-expression evaluations performed by compiled plans.
    bound_evals: counted BoundEvals,
    /// `ORDER BY … LIMIT` sorts served by the bounded top-K heap.
    topk_sorts: counted TopkSorts,
    /// Expression-over-batch passes run by the vectorized executor (one
    /// per expression per batch, not one per row).
    batch_evals: counted BatchEvals,
    /// Input rows that flowed through the batch executor.
    batched_rows: counted BatchedRows,
    /// Statements aggregated through the one-pass hash aggregator.
    hash_aggs: counted HashAggs,
    /// Rows walked by full table scans (`full_scans` counts scans once
    /// each; this counts their rows, for rows/sec reporting).
    full_scan_rows: counted FullScanRows,
    /// Compiled single-table walks that stopped at OFFSET + LIMIT rows:
    /// the walk served the output order (an order-serving index walk or
    /// no ORDER BY) and its WHERE, if any, ran during the walk.
    limit_pushdowns: counted LimitPushdowns,
    /// Compiled join steps executed as a vectorized hash join.
    hash_joins: counted HashJoins,
    /// Compiled join steps executed as an index nested-loop probe.
    index_nl_joins: counted IndexNlJoins,
    /// Rows inserted into hash-join build tables.
    join_build_rows: counted JoinBuildRows,
    /// Rows that probed a hash-join table or index nested loop.
    join_probe_rows: counted JoinProbeRows,
    /// WHERE/ON conjuncts pushed into join-side scans.
    pushed_predicates: counted PushedPredicates,
    // Owned by the injector, which counts as it delivers; the database
    // carries over the counts of injectors a plan swap replaced.
    /// Faults delivered by the installed
    /// [`FaultInjector`](crate::FaultInjector) (cumulative across plan
    /// swaps).
    faults_injected: owner,
    /// Statement retries reported by the recovery layer above the engine
    /// (via [`Database::note_retry`](crate::Database::note_retry)).
    retries: counted Retries,
    /// Rollbacks performed: statement-atomicity undo after a failed or
    /// panicked statement, explicit `ROLLBACK`, and rollback-on-drop.
    rollbacks: counted Rollbacks,
    /// Circuit-breaker trips reported by the recovery layer (via
    /// [`Database::note_breaker_trip`](crate::Database::note_breaker_trip)).
    breaker_trips: counted BreakerTrips,
    /// WAL append batches written (one per logged statement or commit).
    wal_appends: counted WalAppends,
    /// Bytes appended to the write-ahead log (checkpoints included).
    wal_bytes: counted WalBytes,
    /// Commit records appended to the WAL (group-commit members each
    /// count once, so `wal_appends / wal_commits` measures coalescing).
    wal_commits: counted WalCommits,
    /// Checkpoints completed.
    checkpoints: counted Checkpoints,
    /// 2PC `Prepare` records appended to the WAL.
    wal_prepares: counted WalPrepares,
    // A gauge, not a counter: the WAL raises and lowers it, and a
    // checkpoint is refused while it is non-zero.
    /// Transactions currently sitting in the prepared (in-doubt) window.
    prepared_txns: owner,
    /// In-doubt transactions this instance resolved to commit at recovery.
    in_doubt_commits: counted InDoubtCommits,
    /// In-doubt transactions this instance resolved to abort at recovery
    /// (presumed abort included).
    in_doubt_aborts: counted InDoubtAborts,
    /// Crash recoveries this instance was born from (0 or 1: a recovered
    /// database is a fresh instance; counters do not leak across reopen).
    /// A log-only open over an empty log replays nothing and reports 0.
    recoveries: counted Recoveries,
    /// MVCC read snapshots registered (per statement in autocommit, per
    /// transaction under BEGIN…COMMIT).
    snapshots_taken: counted SnapshotsTaken,
    /// Visibility resolutions that had to walk a multi-version chain
    /// (single-version rows resolve without a walk and are not counted).
    version_chains_walked: counted VersionChainsWalked,
    /// Superseded row versions dropped by inline trims and GC sweeps.
    versions_gced: counted VersionsGced,
    /// Version chains GC sweeps visited. A sweep visits only the chains
    /// listed as garbage (more than one version, or a tombstone on top),
    /// however large the table.
    gc_chains_visited: counted GcChainsVisited,
    /// Torn-tail bytes the WAL scan dropped when this instance was
    /// recovered — recorded, never silently discarded.
    torn_tails_dropped: counted TornTailsDropped,
    // The page counters belong to the pager, which
    // `PagedEngine::open(store, usize)` builds before any database (and
    // so any shared counter array) exists.
    /// Checksum-failing pages detected and rebuilt from the previous
    /// checkpoint epoch + WAL redo (paged storage only).
    pages_repaired: owner,
    // Always 0, with nothing to count.
    /// Always 0. Paged storage has no buffer pool: tables live in
    /// memory, so there is nothing to evict.
    pool_evictions: owner,
    /// Always 0: every page read goes to the page store (see
    /// `pool_misses`).
    pool_hits: owner,
    /// Pages read from the page store (paged storage only): each live
    /// page once at open, plus re-reads while repairing a corrupt one.
    pool_misses: owner,
    /// Pages written to the page store (paged storage only): each page
    /// of a new checkpoint epoch once.
    pages_written: owner,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `FullScans` → `full_scans`.
    fn snake_case(camel: &str) -> String {
        let mut out = String::new();
        for c in camel.chars() {
            if c.is_ascii_uppercase() && !out.is_empty() {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        }
        out
    }

    /// Bumping one slot moves exactly the `DbStats` field of the same
    /// name, and no other: an index or order slip in the generator fails
    /// here.
    #[test]
    fn each_counter_moves_exactly_its_own_field() {
        assert_eq!((FIELDS, SLOTS), (44, 37));
        for counter in Counter::ALL {
            let counters = Counters::default();
            counters.add(counter, 7);
            let stats = counters.snapshot();
            let moved: Vec<(&str, u64)> = stats
                .fields()
                .into_iter()
                .filter(|&(_, v)| v != 0)
                .collect();
            let name = snake_case(&format!("{counter:?}"));
            assert_eq!(moved, [(name.as_str(), 7)], "{counter:?}");
            assert_eq!(counters.get(counter), 7);
        }
    }
}
