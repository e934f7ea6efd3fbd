//! The catalog: all named objects of one database — tables, sequences,
//! stored procedures — plus the index-name → table mapping.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::ast::{CreateProcedureStmt, SelectStmt};
use crate::error::{SqlError, SqlResult};
use crate::fault::FaultInjector;
use crate::storage::{MvccShared, Table};
use crate::sync::{Mutex, MutexGuard, TableLock, TableReadGuard, TableWriteGuard};

/// A table's concurrency envelope: the row-data lock plus a *statement*
/// mutex that serializes write statements on the table. Under MVCC a
/// write statement holds the statement mutex for its whole duration
/// (collect → apply → WAL) but the row-data write lock only for the
/// brief apply phase, so snapshot readers are never blocked for longer
/// than an in-memory apply.
#[derive(Debug)]
struct TableSlot {
    stmt: Mutex<()>,
    lock: TableLock<Table>,
}

impl TableSlot {
    fn new(table: Table) -> TableSlot {
        TableSlot {
            stmt: Mutex::new(()),
            lock: TableLock::new(table),
        }
    }
}

/// A monotonically advancing sequence generator.
///
/// The counter is atomic so that `NEXTVAL` can advance from the
/// read-locked (shared) query path: many concurrent readers still draw
/// unique values. Unlike the sequence objects of commercial engines,
/// a *failed statement's* (or rolled-back transaction's) draws are given
/// back when no later draw intervened — see [`draw_mark`]: the engine's
/// deterministic-retry story requires a retried statement to redraw the
/// same value. Draws consumed by committed statements are never
/// re-issued (they ride the WAL commit record).
#[derive(Debug)]
pub struct Sequence {
    pub name: String,
    next: AtomicI64,
    pub increment: i64,
}

thread_local! {
    /// Journal of `NEXTVAL` draws made by the statement currently
    /// executing on this thread: `(sequence name, drawn value)` in draw
    /// order. Statements run start-to-finish on one thread, so the
    /// journal needs no cross-thread view; the statement entry points
    /// take a mark on entry and settle the suffix on exit.
    static DRAW_JOURNAL: std::cell::RefCell<Vec<(String, i64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Position of this thread's draw journal — take before running a
/// statement, pass to [`drain_draws`] after.
pub fn draw_mark() -> usize {
    DRAW_JOURNAL.with(|j| j.borrow().len())
}

/// Remove and return every draw journaled since `mark`, in draw order.
pub fn drain_draws(mark: usize) -> Vec<(String, i64)> {
    DRAW_JOURNAL.with(|j| {
        let mut j = j.borrow_mut();
        if mark >= j.len() {
            return Vec::new();
        }
        j.split_off(mark)
    })
}

impl Sequence {
    /// Create a sequence starting at `start`.
    pub fn new(name: impl Into<String>, start: i64, increment: i64) -> Sequence {
        Sequence {
            name: name.into(),
            next: AtomicI64::new(start),
            increment,
        }
    }

    /// Return the next value and advance, journaling the draw for
    /// statement-failure restoration.
    pub fn next_value(&self) -> i64 {
        // fetch_add wraps on overflow, matching the previous wrapping_add.
        let drawn = self.next.fetch_add(self.increment, Ordering::Relaxed);
        DRAW_JOURNAL.with(|j| j.borrow_mut().push((self.name.clone(), drawn)));
        drawn
    }

    /// Give back a draw: rewind the cursor to `drawn` if — and only if —
    /// no later draw intervened (compare-and-swap against
    /// `drawn + increment`). Under concurrent draws from a shared
    /// sequence the CAS loses and the value stays consumed, which is the
    /// only safe answer there.
    pub fn undo_draw(&self, drawn: i64) -> bool {
        self.next
            .compare_exchange(
                drawn.wrapping_add(self.increment),
                drawn,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Peek at the value the next call will return.
    pub fn peek(&self) -> i64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Force the counter to a specific value (recovery only): committed
    /// `NEXTVAL` draws are replayed from commit records so a recovered
    /// sequence never re-issues a value a committed transaction consumed.
    pub fn set_current(&self, value: i64) {
        self.next.store(value, Ordering::Relaxed);
    }
}

/// A named stored query (`CREATE VIEW`).
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    pub name: String,
    pub query: SelectStmt,
}

/// A stored procedure: named formal parameters and a statement body.
#[derive(Debug, Clone, PartialEq)]
pub struct Procedure {
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<crate::ast::Statement>,
}

impl From<CreateProcedureStmt> for Procedure {
    fn from(s: CreateProcedureStmt) -> Procedure {
        Procedure {
            name: s.name,
            params: s.params,
            body: s.body,
        }
    }
}

/// All named objects of one database. Object names are case-insensitive;
/// the original spelling is preserved inside the object.
///
/// Concurrency shape (see DESIGN.md §10): the database facade wraps the
/// whole catalog in a *catalog-shape* reader-writer lock that guards the
/// object maps themselves; each table's row data additionally sits
/// behind its own [`TableLock`], so statements holding the shape lock in
/// *shared* mode can still write disjoint tables in parallel. Lock order
/// is always shape → table; [`Catalog::table_mut`] therefore takes
/// `&self` and hands out a per-table write guard.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, TableSlot>,
    /// MVCC bookkeeping shared with every table (GC watermark + version
    /// counters). The owning database installs its own instance via
    /// [`Catalog::attach_mvcc`]; a standalone catalog gets a private one.
    mvcc: Arc<MvccShared>,
    sequences: HashMap<String, Sequence>,
    procedures: HashMap<String, Procedure>,
    /// index name (lowered) → table name (lowered)
    index_owner: HashMap<String, String>,
    views: HashMap<String, View>,
    /// How many scans were answered through an index fast path (telemetry
    /// for tests and benchmarks; atomic so the shared-lock read path can
    /// bump it).
    index_scans: AtomicU64,
    /// How many scans fell back to a full table walk.
    full_scans: AtomicU64,
    /// How many scans were answered through an index *range* walk.
    range_scans: AtomicU64,
    /// How many statements compiled (bound) a plan.
    plan_binds: AtomicU64,
    /// How many rows were evaluated through bound (ordinal) expressions.
    bound_evals: AtomicU64,
    /// How many ORDER BY + LIMIT statements used the bounded top-K heap
    /// instead of a full materialize-then-sort.
    topk_sorts: AtomicU64,
    /// How many expression-over-batch passes the vectorized executor ran
    /// (one per expression per batch of rows, not one per row).
    batch_evals: AtomicU64,
    /// How many input rows flowed through the batch executor.
    batched_rows: AtomicU64,
    /// How many statements ran grouped aggregation through the one-pass
    /// hash aggregator instead of the interpreter's grouping loop.
    hash_aggs: AtomicU64,
    /// How many rows full table scans have walked (for rows/sec
    /// reporting; `full_scans` counts scans, this counts their rows).
    full_scan_rows: AtomicU64,
    /// How many compiled join steps executed as a vectorized hash join.
    hash_joins: AtomicU64,
    /// How many compiled join steps executed as an index nested-loop
    /// probe through the visibility-aware index entry API.
    index_nl_joins: AtomicU64,
    /// How many rows were inserted into hash-join build tables.
    join_build_rows: AtomicU64,
    /// How many rows probed hash-join tables or index nested loops.
    join_probe_rows: AtomicU64,
    /// How many WHERE/ON conjuncts were pushed into join-side scans.
    pushed_predicates: AtomicU64,
    /// Schema epoch: bumped on every change that can invalidate a compiled
    /// plan (table/index/view/sequence/procedure creation or removal,
    /// including undo-log rollback, which funnels through the same
    /// methods). Plain `u64`: every bump site already holds `&mut self`.
    epoch: u64,
    /// Fault injector installed by [`crate::Database::set_fault_plan`].
    /// Held here (in addition to the database facade) so the executor's
    /// row-apply loops — which only see the catalog — can reach it.
    fault: Option<Arc<FaultInjector>>,
}

thread_local! {
    /// View-expansion nesting depth (guards against recursive views).
    /// Thread-local rather than a catalog field: expansion is a per-query
    /// (hence per-thread) property, and concurrent readers must not see
    /// each other's nesting.
    static VIEW_DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Current schema epoch. Compiled plans are keyed by this value: a
    /// plan bound at epoch `e` is valid exactly while `epoch() == e`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the schema epoch, invalidating every compiled plan.
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Force the schema epoch (recovery only): a recovered catalog takes
    /// an epoch strictly above everything the log ever saw, so any plan
    /// bound before the crash re-binds on its next use.
    pub(crate) fn force_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    // ------------------------------------------------------------- tables

    /// Register a table. Fails if the name is taken.
    pub fn add_table(&mut self, mut table: Table) -> SqlResult<()> {
        let k = key(&table.schema.name);
        if self.tables.contains_key(&k) {
            return Err(SqlError::AlreadyExists(format!(
                "table '{}'",
                table.schema.name
            )));
        }
        table.attach_mvcc(Arc::clone(&self.mvcc));
        self.tables.insert(k, TableSlot::new(table));
        self.bump_epoch();
        Ok(())
    }

    /// Install the owning database's shared MVCC state (GC watermark +
    /// version counters), re-attaching every existing table. Called at
    /// database construction and again after recovery swaps in a
    /// replayed catalog.
    pub(crate) fn attach_mvcc(&mut self, shared: Arc<MvccShared>) {
        self.mvcc = Arc::clone(&shared);
        for slot in self.tables.values_mut() {
            slot.lock.get_mut().attach_mvcc(Arc::clone(&shared));
        }
    }

    /// The shared MVCC state currently attached to this catalog's tables.
    pub(crate) fn mvcc(&self) -> &Arc<MvccShared> {
        &self.mvcc
    }

    /// Drop row versions superseded before the `floor` watermark in every
    /// table, taking each table's write lock briefly. Returns versions
    /// dropped. Safe under the shared shape lock; the caller must not
    /// hold any table guard.
    pub fn gc_tables(&self, floor: u64) -> u64 {
        let mut dropped = 0;
        for slot in self.tables.values() {
            dropped += slot.lock.write().gc_versions(floor);
        }
        dropped
    }

    /// [`Catalog::gc_tables`] through [`Table::gc_versions_full_walk`]:
    /// the oracle of the garbage-list sweep.
    #[cfg(test)]
    pub(crate) fn gc_tables_full_walk(&self, floor: u64) -> u64 {
        let mut dropped = 0;
        for slot in self.tables.values() {
            dropped += slot.lock.write().gc_versions_full_walk(floor);
        }
        dropped
    }

    /// Look up a table: returns a shared per-table guard. Reader
    /// preference makes re-acquiring a table this thread already reads
    /// safe (self-joins, subqueries over the scanned table).
    pub fn table(&self, name: &str) -> SqlResult<TableReadGuard<'_, Table>> {
        self.tables
            .get(&key(name))
            .map(|s| s.lock.read())
            .ok_or_else(|| SqlError::NotFound(format!("table '{name}'")))
    }

    /// Acquire the table's *statement* mutex: serializes write statements
    /// against each other for their full duration without excluding
    /// readers. Lock order: statement mutex before any row-data guard on
    /// the same table.
    pub fn table_stmt(&self, name: &str) -> SqlResult<MutexGuard<'_, ()>> {
        self.tables
            .get(&key(name))
            .map(|s| s.stmt.lock())
            .ok_or_else(|| SqlError::NotFound(format!("table '{name}'")))
    }

    /// Look up a table for writing: returns the exclusive per-table
    /// guard. Takes `&self` — exclusion is per table, not per catalog —
    /// so DML holding the catalog-shape lock in shared mode can write.
    /// A thread must never request this guard while holding any guard on
    /// the same table (self-deadlock); the executor's two-phase scans
    /// drop their read guards before applying.
    pub fn table_mut(&self, name: &str) -> SqlResult<TableWriteGuard<'_, Table>> {
        self.tables
            .get(&key(name))
            .map(|s| s.lock.write())
            .ok_or_else(|| SqlError::NotFound(format!("table '{name}'")))
    }

    /// Does a table exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&key(name))
    }

    /// Remove a table, returning it (for undo). Also unregisters its indexes.
    pub fn remove_table(&mut self, name: &str) -> SqlResult<Table> {
        let t = self
            .tables
            .remove(&key(name))
            .ok_or_else(|| SqlError::NotFound(format!("table '{name}'")))?
            .lock
            .into_inner();
        self.index_owner.retain(|_, owner| owner != &key(name));
        self.bump_epoch();
        Ok(t)
    }

    /// All table names, sorted (stable output for introspection).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .values()
            .map(|s| s.lock.read().schema.name.clone())
            .collect();
        names.sort();
        names
    }

    // ------------------------------------------------------------- faults

    /// Install (or clear) the fault injector. Called by the database
    /// facade under the exclusive catalog lock.
    pub(crate) fn set_fault_injector(&mut self, fault: Option<Arc<FaultInjector>>) {
        self.fault = fault;
    }

    /// Row hook for DML apply loops: delivers armed torn-statement
    /// faults. No-op (and branch-predictable) when no injector is set.
    #[inline]
    pub fn fault_row_applied(&self) -> SqlResult<()> {
        match &self.fault {
            Some(f) => f.on_row_applied(),
            None => Ok(()),
        }
    }

    /// Bind hook: delivers armed after-bind faults.
    #[inline]
    pub fn fault_bind_complete(&self) -> SqlResult<()> {
        match &self.fault {
            Some(f) => f.on_bind_complete(),
            None => Ok(()),
        }
    }

    /// Record that a statement used an index fast path.
    pub fn note_index_scan(&self) {
        self.index_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of index fast-path scans so far.
    pub fn index_scans(&self) -> u64 {
        self.index_scans.load(Ordering::Relaxed)
    }

    /// Record that a statement walked a whole base table.
    pub fn note_full_scan(&self) {
        self.full_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of full table scans so far.
    pub fn full_scans(&self) -> u64 {
        self.full_scans.load(Ordering::Relaxed)
    }

    /// Record that a statement walked an index key range.
    pub fn note_range_scan(&self) {
        self.range_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of index range scans so far.
    pub fn range_scans(&self) -> u64 {
        self.range_scans.load(Ordering::Relaxed)
    }

    /// Record that a statement compiled (bound) a plan.
    pub fn note_plan_bind(&self) {
        self.plan_binds.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of plan binds so far.
    pub fn plan_binds(&self) -> u64 {
        self.plan_binds.load(Ordering::Relaxed)
    }

    /// Record `n` rows evaluated through bound expressions. Callers batch
    /// one add per statement rather than one per row.
    pub fn note_bound_evals(&self, n: u64) {
        self.bound_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of bound row evaluations so far.
    pub fn bound_evals(&self) -> u64 {
        self.bound_evals.load(Ordering::Relaxed)
    }

    /// Record that a statement used the bounded top-K heap.
    pub fn note_topk_sort(&self) {
        self.topk_sorts.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of top-K sorts so far.
    pub fn topk_sorts(&self) -> u64 {
        self.topk_sorts.load(Ordering::Relaxed)
    }

    /// Record `n` expression-over-batch passes. Callers batch one add per
    /// statement rather than one per pass.
    pub fn note_batch_evals(&self, n: u64) {
        self.batch_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of expression-over-batch passes so far.
    pub fn batch_evals(&self) -> u64 {
        self.batch_evals.load(Ordering::Relaxed)
    }

    /// Record `n` input rows processed by the batch executor.
    pub fn note_batched_rows(&self, n: u64) {
        self.batched_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of rows that flowed through the batch executor so far.
    pub fn batched_rows(&self) -> u64 {
        self.batched_rows.load(Ordering::Relaxed)
    }

    /// Record that a statement ran through the one-pass hash aggregator.
    pub fn note_hash_agg(&self) {
        self.hash_aggs.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of hash-aggregated statements so far.
    pub fn hash_aggs(&self) -> u64 {
        self.hash_aggs.load(Ordering::Relaxed)
    }

    /// Record `n` rows walked by a full table scan. A batched scan counts
    /// its rows once here and the scan itself once in `full_scans`.
    pub fn note_full_scan_rows(&self, n: u64) {
        self.full_scan_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of rows walked by full table scans so far.
    pub fn full_scan_rows(&self) -> u64 {
        self.full_scan_rows.load(Ordering::Relaxed)
    }

    /// Record that a compiled join step ran as a vectorized hash join.
    pub fn note_hash_join(&self) {
        self.hash_joins.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of hash-join steps executed so far.
    pub fn hash_joins(&self) -> u64 {
        self.hash_joins.load(Ordering::Relaxed)
    }

    /// Record that a compiled join step ran as an index nested loop.
    pub fn note_index_nl_join(&self) {
        self.index_nl_joins.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of index nested-loop join steps executed so far.
    pub fn index_nl_joins(&self) -> u64 {
        self.index_nl_joins.load(Ordering::Relaxed)
    }

    /// Record `n` rows inserted into a hash-join build table.
    pub fn note_join_build_rows(&self, n: u64) {
        self.join_build_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of hash-join build rows so far.
    pub fn join_build_rows(&self) -> u64 {
        self.join_build_rows.load(Ordering::Relaxed)
    }

    /// Record `n` rows that probed a hash table or index nested loop.
    pub fn note_join_probe_rows(&self, n: u64) {
        self.join_probe_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of join probe rows so far.
    pub fn join_probe_rows(&self) -> u64 {
        self.join_probe_rows.load(Ordering::Relaxed)
    }

    /// Record `n` conjuncts pushed into join-side scans for one execution.
    pub fn note_pushed_predicates(&self, n: u64) {
        self.pushed_predicates.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of pushed-down join-side conjuncts so far.
    pub fn pushed_predicates(&self) -> u64 {
        self.pushed_predicates.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------- indexes

    /// Record that `index` belongs to `table` (both original spellings).
    pub fn register_index(&mut self, index: &str, table: &str) -> SqlResult<()> {
        if self.index_owner.contains_key(&key(index)) {
            return Err(SqlError::AlreadyExists(format!("index '{index}'")));
        }
        self.index_owner.insert(key(index), key(table));
        self.bump_epoch();
        Ok(())
    }

    /// Which table owns `index`?
    pub fn index_table(&self, index: &str) -> Option<&str> {
        self.index_owner.get(&key(index)).map(|s| s.as_str())
    }

    /// Forget an index registration.
    pub fn unregister_index(&mut self, index: &str) {
        self.index_owner.remove(&key(index));
        self.bump_epoch();
    }

    // ------------------------------------------------------------- views

    /// Register a view.
    pub fn add_view(&mut self, view: View) -> SqlResult<()> {
        let k = key(&view.name);
        if self.views.contains_key(&k) {
            return Err(SqlError::AlreadyExists(format!("view '{}'", view.name)));
        }
        self.views.insert(k, view);
        self.bump_epoch();
        Ok(())
    }

    /// Look up a view.
    pub fn view(&self, name: &str) -> SqlResult<&View> {
        self.views
            .get(&key(name))
            .ok_or_else(|| SqlError::NotFound(format!("view '{name}'")))
    }

    /// Does a view exist?
    pub fn has_view(&self, name: &str) -> bool {
        self.views.contains_key(&key(name))
    }

    /// Remove a view (for DROP / undo).
    pub fn remove_view(&mut self, name: &str) -> SqlResult<View> {
        let v = self
            .views
            .remove(&key(name))
            .ok_or_else(|| SqlError::NotFound(format!("view '{name}'")))?;
        self.bump_epoch();
        Ok(v)
    }

    /// Sorted view names.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.values().map(|v| v.name.clone()).collect();
        names.sort();
        names
    }

    /// Enter a view expansion; the guard decrements on drop. Errors once
    /// nesting exceeds a sanity bound (recursive view definitions).
    pub fn enter_view(&self) -> SqlResult<ViewDepthGuard> {
        let d = VIEW_DEPTH.get();
        if d >= 16 {
            return Err(SqlError::Runtime(
                "view expansion too deep (recursive view definition?)".into(),
            ));
        }
        VIEW_DEPTH.set(d + 1);
        Ok(ViewDepthGuard { _private: () })
    }

    // ------------------------------------------------------------- sequences

    /// Register a sequence.
    pub fn add_sequence(&mut self, seq: Sequence) -> SqlResult<()> {
        let k = key(&seq.name);
        if self.sequences.contains_key(&k) {
            return Err(SqlError::AlreadyExists(format!("sequence '{}'", seq.name)));
        }
        self.sequences.insert(k, seq);
        self.bump_epoch();
        Ok(())
    }

    /// Look up a sequence.
    pub fn sequence(&self, name: &str) -> SqlResult<&Sequence> {
        self.sequences
            .get(&key(name))
            .ok_or_else(|| SqlError::NotFound(format!("sequence '{name}'")))
    }

    /// Remove a sequence (for DROP / undo).
    pub fn remove_sequence(&mut self, name: &str) -> SqlResult<Sequence> {
        let s = self
            .sequences
            .remove(&key(name))
            .ok_or_else(|| SqlError::NotFound(format!("sequence '{name}'")))?;
        self.bump_epoch();
        Ok(s)
    }

    /// Does a sequence exist?
    pub fn has_sequence(&self, name: &str) -> bool {
        self.sequences.contains_key(&key(name))
    }

    /// Give back a failed statement's `NEXTVAL` draws, latest first.
    /// Needs only shared access — the cursors are atomic and the
    /// give-back is CAS-guarded per draw.
    pub fn undo_draws(&self, draws: &[(String, i64)]) {
        for (name, drawn) in draws.iter().rev() {
            if let Ok(seq) = self.sequence(name) {
                let _ = seq.undo_draw(*drawn);
            }
        }
    }

    /// Snapshot of every sequence as `(name, current, increment)`,
    /// sorted by name. Commit records and checkpoints carry this so
    /// committed `NEXTVAL` draws survive a crash.
    pub fn sequence_states(&self) -> Vec<(String, i64, i64)> {
        let mut states: Vec<(String, i64, i64)> = self
            .sequences
            .values()
            .map(|s| (s.name.clone(), s.peek(), s.increment))
            .collect();
        states.sort();
        states
    }

    // ------------------------------------------------------------- procedures

    /// Register a stored procedure.
    pub fn add_procedure(&mut self, proc: Procedure) -> SqlResult<()> {
        let k = key(&proc.name);
        if self.procedures.contains_key(&k) {
            return Err(SqlError::AlreadyExists(format!(
                "procedure '{}'",
                proc.name
            )));
        }
        self.procedures.insert(k, proc);
        self.bump_epoch();
        Ok(())
    }

    /// Look up a procedure.
    pub fn procedure(&self, name: &str) -> SqlResult<&Procedure> {
        self.procedures
            .get(&key(name))
            .ok_or_else(|| SqlError::NotFound(format!("procedure '{name}'")))
    }

    /// Remove a procedure (for DROP / undo).
    pub fn remove_procedure(&mut self, name: &str) -> SqlResult<Procedure> {
        let p = self
            .procedures
            .remove(&key(name))
            .ok_or_else(|| SqlError::NotFound(format!("procedure '{name}'")))?;
        self.bump_epoch();
        Ok(p)
    }

    /// Does a procedure exist?
    pub fn has_procedure(&self, name: &str) -> bool {
        self.procedures.contains_key(&key(name))
    }
}

/// RAII guard for view-expansion depth.
pub struct ViewDepthGuard {
    _private: (),
}

impl Drop for ViewDepthGuard {
    fn drop(&mut self) {
        let d = VIEW_DEPTH.get();
        VIEW_DEPTH.set(d.saturating_sub(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::types::DataType;

    fn table(name: &str) -> Table {
        Table::new(TableSchema::new(name, vec![Column::new("a", DataType::Int)], false).unwrap())
    }

    #[test]
    fn table_names_case_insensitive() {
        let mut c = Catalog::new();
        c.add_table(table("Orders")).unwrap();
        assert!(c.has_table("orders"));
        assert!(c.table("ORDERS").is_ok());
        assert!(c.add_table(table("ORDERS")).is_err());
        assert_eq!(c.table_names(), vec!["Orders"]);
    }

    #[test]
    fn remove_table_unregisters_indexes() {
        let mut c = Catalog::new();
        c.add_table(table("t")).unwrap();
        c.register_index("i1", "t").unwrap();
        assert_eq!(c.index_table("I1"), Some("t"));
        c.remove_table("t").unwrap();
        assert_eq!(c.index_table("i1"), None);
    }

    #[test]
    fn sequence_advances_and_peeks() {
        let s = Sequence::new("s", 10, 5);
        assert_eq!(s.peek(), 10);
        assert_eq!(s.next_value(), 10);
        assert_eq!(s.next_value(), 15);
        assert_eq!(s.peek(), 20);
    }

    #[test]
    fn sequence_negative_increment() {
        let s = Sequence::new("s", 0, -2);
        assert_eq!(s.next_value(), 0);
        assert_eq!(s.next_value(), -2);
    }

    #[test]
    fn catalog_sequences_and_procedures() {
        let mut c = Catalog::new();
        c.add_sequence(Sequence::new("OrderIds", 1, 1)).unwrap();
        assert!(c.has_sequence("orderids"));
        assert!(c.add_sequence(Sequence::new("orderIDS", 1, 1)).is_err());
        c.remove_sequence("ORDERIDS").unwrap();
        assert!(!c.has_sequence("orderids"));

        let p = Procedure {
            name: "P".into(),
            params: vec![],
            body: vec![],
        };
        c.add_procedure(p.clone()).unwrap();
        assert!(c.procedure("p").is_ok());
        assert!(c.add_procedure(p).is_err());
        c.remove_procedure("p").unwrap();
        assert!(!c.has_procedure("p"));
    }

    #[test]
    fn missing_objects_report_not_found() {
        let c = Catalog::new();
        assert_eq!(c.table("x").unwrap_err().class(), "not_found");
        assert_eq!(c.sequence("x").unwrap_err().class(), "not_found");
        assert_eq!(c.procedure("x").unwrap_err().class(), "not_found");
    }
}
