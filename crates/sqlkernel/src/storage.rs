//! Row storage: multi-versioned tables with stable row ids and B-tree
//! secondary indexes.
//!
//! Rows live in a `BTreeMap<RowId, Chain>` where each chain is a short
//! vector of row *versions* ordered oldest→newest. A version carries a
//! commit stamp (an `Arc<AtomicU64>`; `0` = still uncommitted) and an
//! optional `Arc<Row>` payload (`None` = deletion tombstone). Ids stay
//! stable across deletes (the undo log and the indexes both key on
//! [`RowId`]) and read paths *share* a row instead of deep-copying it:
//! a scan hands out `Arc` clones, and mutation pushes a new version
//! (copy-on-write at row granularity).
//!
//! One visibility rule: every read and write that depends on visibility
//! takes an explicit [`Snapshot`]. A read resolves each chain newest
//! version first; the first version that is *our own* (same stamp `Arc`)
//! or committed at or before the snapshot timestamp wins. A write pushes
//! a new version stamped with the snapshot's stamp; commit later stores
//! the timestamp into the shared stamp, making every version of the
//! transaction visible atomically. Checkpoint serialization reads under
//! [`Snapshot::committed`], which sees every committed version and
//! nothing else.
//!
//! Redo and undo application use the physical primitives instead
//! ([`Table::restore`], [`Table::raw_replace`], [`Table::remove`]): they
//! replace or drop whole chains, so a replayed table holds one version
//! per row and no tombstones.
//!
//! Indexes map composite key values to the set of row ids holding them;
//! under MVCC an entry is kept for **every retained version's** key, and
//! visibility-aware lookups re-check that the resolved version actually
//! carries the entry key (skipped for single-version chains, the common
//! case). Unique indexes enforce at-most-one id per key against the
//! newest version (ignoring keys containing NULL, per SQL convention).
//! Superseded versions are trimmed inline on write and swept by
//! [`Table::gc_versions`] using the oldest-active-snapshot watermark. The
//! sweep visits only the chains each table lists as garbage (more than
//! one version, or a tombstone on top), so its cost follows the garbage,
//! not the table size.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, OnceLock};

use crate::error::{SqlError, SqlResult};
use crate::schema::TableSchema;
use crate::types::Value;

/// Stable identifier of a row within one table.
pub type RowId = u64;

/// A stored row; always has exactly `schema.columns.len()` values.
pub type Row = Vec<Value>;

/// A transaction/statement commit stamp. `0` means uncommitted; commit
/// stores the commit timestamp, atomically publishing every version that
/// shares the stamp.
pub type TxnStamp = Arc<AtomicU64>;

/// Allocate a fresh (uncommitted) stamp.
pub fn new_stamp() -> TxnStamp {
    Arc::new(AtomicU64::new(0))
}

/// The stamp of rows installed by the physical primitives (WAL replay,
/// checkpoint reload, undo of recovery) and of writes made under
/// [`Snapshot::committed`]. Committed at timestamp 1, which every
/// snapshot timestamp is at least, so bootstrap rows are visible to all
/// readers.
fn bootstrap_stamp() -> TxnStamp {
    static BOOTSTRAP: OnceLock<TxnStamp> = OnceLock::new();
    Arc::clone(BOOTSTRAP.get_or_init(|| Arc::new(AtomicU64::new(1))))
}

/// A read snapshot: everything committed at or before `ts` is visible,
/// plus this statement/transaction's own writes (matched by stamp
/// identity, not timestamp).
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub ts: u64,
    pub stamp: TxnStamp,
}

impl Snapshot {
    /// The snapshot that sees every committed version and no
    /// uncommitted one — what checkpoint serialization reads under. Its
    /// writes carry the bootstrap stamp, so they are committed the
    /// moment they are made.
    pub fn committed() -> Snapshot {
        Snapshot {
            ts: u64::MAX,
            stamp: bootstrap_stamp(),
        }
    }
}

/// MVCC bookkeeping shared between a database handle and every table it
/// owns: the GC watermark (oldest active snapshot timestamp, `u64::MAX`
/// when no snapshot is active) and engine-wide version counters.
#[derive(Debug)]
pub struct MvccShared {
    /// Oldest active snapshot timestamp; versions superseded before this
    /// point are unreachable and may be garbage-collected.
    pub floor: AtomicU64,
    /// Visibility walks that had to consider more than one version.
    pub chains_walked: AtomicU64,
    /// Superseded versions dropped by inline trims and GC sweeps.
    pub versions_gced: AtomicU64,
    /// Chains GC sweeps visited: the garbage lists they drained.
    pub gc_chains_visited: AtomicU64,
}

impl Default for MvccShared {
    fn default() -> Self {
        MvccShared {
            floor: AtomicU64::new(u64::MAX),
            chains_walked: AtomicU64::new(0),
            versions_gced: AtomicU64::new(0),
            gc_chains_visited: AtomicU64::new(0),
        }
    }
}

/// One version of a row. `row == None` is a deletion tombstone.
#[derive(Debug, Clone)]
struct RowVersion {
    begin: TxnStamp,
    row: Option<Arc<Row>>,
}

impl RowVersion {
    fn committed_at(&self) -> u64 {
        self.begin.load(AtomicOrd::Acquire)
    }
}

/// A row's version chain, oldest first. Most chains hold one committed
/// version; writes push, trims and GC sweeps drop.
#[derive(Debug, Clone, Default)]
struct Chain {
    versions: Vec<RowVersion>,
}

impl Chain {
    fn single(begin: TxnStamp, row: Arc<Row>) -> Chain {
        Chain {
            versions: vec![RowVersion {
                begin,
                row: Some(row),
            }],
        }
    }

    /// The newest version's payload — the "physical latest" row the WAL
    /// after-image derivation reads. `None` when the newest version is a
    /// tombstone.
    fn latest(&self) -> Option<&Arc<Row>> {
        self.versions.last().and_then(|v| v.row.as_ref())
    }

    /// Is the newest version a live row (not a tombstone)?
    fn top_is_live(&self) -> bool {
        self.versions.last().is_some_and(|v| v.row.is_some())
    }

    /// Does a sweep have work here: a superseded version or a tombstone?
    fn is_garbage(&self) -> bool {
        self.versions.len() > 1 || !self.top_is_live()
    }

    /// Resolve against a snapshot: newest first, first own-or-committed
    /// version wins; its tombstone means "not visible".
    fn visible(&self, snap: &Snapshot) -> Option<&Arc<Row>> {
        for v in self.versions.iter().rev() {
            if Arc::ptr_eq(&v.begin, &snap.stamp) {
                return v.row.as_ref();
            }
            let ts = v.committed_at();
            if ts != 0 && ts <= snap.ts {
                return v.row.as_ref();
            }
        }
        None
    }
}

/// A totally ordered composite key, usable in `BTreeMap`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey(pub Vec<Value>);

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.total_cmp(b) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A secondary (or constraint-backing) index.
#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    /// Positions of the indexed columns in the table schema.
    pub columns: Vec<usize>,
    pub unique: bool,
    map: BTreeMap<SortKey, BTreeSet<RowId>>,
}

impl Index {
    fn key_of(&self, row: &Row) -> SortKey {
        SortKey(self.columns.iter().map(|&i| row[i].clone()).collect())
    }

    fn key_has_null(key: &SortKey) -> bool {
        key.0.iter().any(Value::is_null)
    }

    /// Does the row's index key contain a NULL? Borrowed counterpart of
    /// [`Index::key_has_null`], used to skip key construction entirely.
    fn row_key_has_null(&self, row: &Row) -> bool {
        self.columns.iter().any(|&i| row[i].is_null())
    }

    /// Do two rows carry the same key under this index? Compares the key
    /// columns in place, with the index map's own equality.
    fn same_key(&self, a: &Row, b: &Row) -> bool {
        self.columns.iter().all(|&i| a[i] == b[i])
    }

    /// Does `row` carry `key` under this index? [`Index::same_key`]
    /// against an already-built key.
    fn carries_key(&self, row: &Row, key: &SortKey) -> bool {
        self.columns.iter().zip(&key.0).all(|(&i, k)| row[i] == *k)
    }

    fn add_entry(&mut self, row: &Row, id: RowId) {
        let key = self.key_of(row);
        self.map.entry(key).or_default().insert(id);
    }

    fn remove_entry(&mut self, key: &SortKey, id: RowId) {
        if let Some(set) = self.map.get_mut(key) {
            set.remove(&id);
            if set.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Row ids matching an exact key. Under MVCC the result may include
    /// ids whose *visible* version carries a different key (stale or
    /// future entries) — use [`Table::index_eq_entries`] for
    /// visibility-aware lookups.
    pub fn lookup(&self, key: &SortKey) -> impl Iterator<Item = RowId> + '_ {
        self.map.get(key).into_iter().flatten().copied()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Translate `lookup_range`-style bounds into `BTreeMap::range`
    /// bounds, or `None` when the range is provably empty.
    fn range_bounds(
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
        include_null_keys: bool,
    ) -> Option<(std::ops::Bound<SortKey>, std::ops::Bound<SortKey>)> {
        use std::ops::Bound;
        if lower.is_some_and(|(v, _)| v.is_null()) || upper.is_some_and(|(v, _)| v.is_null()) {
            return None;
        }
        // BTreeMap::range panics on inverted bounds (and on equal bounds
        // with either end excluded); such ranges are simply empty.
        if let (Some((lo, lo_inc)), Some((hi, hi_inc))) = (lower, upper) {
            match lo.total_cmp(hi) {
                Ordering::Greater => return None,
                Ordering::Equal if !(lo_inc && hi_inc) => return None,
                _ => {}
            }
        }
        let start: Bound<SortKey> = match lower {
            Some((v, true)) => Bound::Included(SortKey(vec![v.clone()])),
            Some((v, false)) => Bound::Excluded(SortKey(vec![v.clone()])),
            None if include_null_keys => Bound::Unbounded,
            // NULL sorts before every non-NULL value, so excluding the
            // NULL key is the same as starting just past it.
            None => Bound::Excluded(SortKey(vec![Value::Null])),
        };
        let end: Bound<SortKey> = match upper {
            Some((v, true)) => Bound::Included(SortKey(vec![v.clone()])),
            Some((v, false)) => Bound::Excluded(SortKey(vec![v.clone()])),
            None => Bound::Unbounded,
        };
        Some((start, end))
    }

    /// Row ids whose (single-column) key falls within the given bounds,
    /// emitted in key order — descending when `rev`. Each bound is
    /// `(value, inclusive)`; `None` means unbounded on that side.
    ///
    /// SQL comparison semantics: a NULL bound compares UNKNOWN against
    /// every key, so the range is empty. NULL *keys* never satisfy a
    /// comparison predicate either, so an unbounded-from-below range
    /// excludes them — unless `include_null_keys` is set, which the
    /// executor uses for pure ORDER BY (no range predicate) walks where
    /// NULL keys must appear in their NULLS-first sort position.
    ///
    /// Within one key, row ids come out ascending even when `rev`: the
    /// interpreted path's stable sort preserves scan order (ascending row
    /// id) among equal keys, and index emission must match it exactly.
    pub fn lookup_range(
        &self,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
        rev: bool,
        include_null_keys: bool,
    ) -> Vec<RowId> {
        let Some(bounds) = Index::range_bounds(lower, upper, include_null_keys) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let entries = self.map.range(bounds);
        if rev {
            for (_, ids) in entries.rev() {
                out.extend(ids.iter().copied());
            }
        } else {
            for (_, ids) in entries {
                out.extend(ids.iter().copied());
            }
        }
        out
    }
}

/// Remove the dropped row's index entries unless a `retained` version of
/// the same chain still carries the same key. (Every index entry must be
/// backed by at least one retained version — lookups rely on that
/// invariant to skip the key re-check on single-version chains.)
fn unindex_unless_retained(
    indexes: &mut [Index],
    retained: &[RowVersion],
    id: RowId,
    dropped: &Row,
) {
    for idx in indexes.iter_mut() {
        let retained = retained
            .iter()
            .any(|v| v.row.as_deref().is_some_and(|r| idx.same_key(r, dropped)));
        if !retained {
            idx.remove_entry(&idx.key_of(dropped), id);
        }
    }
}

/// Keep `id`'s membership in a table's garbage list exact after its
/// chain changed.
fn track_garbage(garbage: &mut BTreeSet<RowId>, id: RowId, chain: &Chain) {
    if chain.is_garbage() {
        garbage.insert(id);
    } else {
        garbage.remove(&id);
    }
}

/// A snapshot walk over a table's chains in row-id order. It counts the
/// multi-version chains it resolves and adds them to
/// [`MvccShared::chains_walked`] in one step, when the walk is dropped.
struct Walk<'t, 's> {
    chains: std::collections::btree_map::Iter<'t, RowId, Chain>,
    snap: &'s Snapshot,
    mvcc: &'t MvccShared,
    walked: u64,
}

impl<'t> Iterator for Walk<'t, '_> {
    type Item = (RowId, &'t Arc<Row>);

    fn next(&mut self) -> Option<Self::Item> {
        for (id, chain) in self.chains.by_ref() {
            if chain.versions.len() > 1 {
                self.walked += 1;
            }
            if let Some(row) = chain.visible(self.snap) {
                return Some((*id, row));
            }
        }
        None
    }
}

impl Drop for Walk<'_, '_> {
    fn drop(&mut self) {
        if self.walked > 0 {
            self.mvcc
                .chains_walked
                .fetch_add(self.walked, AtomicOrd::Relaxed);
        }
    }
}

/// Drop versions superseded before `floor`: keep the newest version
/// committed at or before the watermark (the anchor — some active or
/// future snapshot may still need it) and everything newer; drop all
/// older versions. Returns how many versions were dropped.
fn trim_chain(indexes: &mut [Index], id: RowId, chain: &mut Chain, floor: u64) -> u64 {
    let Some(anchor) = chain.versions.iter().rposition(|v| {
        let ts = v.committed_at();
        ts != 0 && ts <= floor
    }) else {
        return 0;
    };
    if anchor == 0 {
        return 0;
    }
    let (removed, retained) = chain.versions.split_at(anchor);
    for r in removed.iter().filter_map(|v| v.row.as_deref()) {
        unindex_unless_retained(indexes, retained, id, r);
    }
    chain.versions.drain(..anchor);
    anchor as u64
}

/// A stored table: schema + versioned rows + indexes.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    rows: BTreeMap<RowId, Chain>,
    /// Number of chains whose newest version is a live row (the physical
    /// `len()`); maintained incrementally by every mutation.
    live: usize,
    next_row_id: RowId,
    indexes: Vec<Index>,
    mvcc: Arc<MvccShared>,
    /// Exactly the row ids whose chain is garbage (more than one version,
    /// or a tombstone on top): what the next sweep visits. Writes add to
    /// it, sweeps drain it, and the physical primitives keep it exact.
    garbage: BTreeSet<RowId>,
}

impl Table {
    /// Create an empty table. A unique index backing the primary key (if
    /// any) is created automatically, as are single-column unique indexes
    /// for `UNIQUE` columns.
    pub fn new(schema: TableSchema) -> Table {
        let mut t = Table {
            rows: BTreeMap::new(),
            live: 0,
            next_row_id: 1,
            indexes: Vec::new(),
            mvcc: Arc::new(MvccShared::default()),
            garbage: BTreeSet::new(),
            schema,
        };
        let pk = t.schema.primary_key_cols();
        if !pk.is_empty() {
            t.indexes.push(Index {
                name: format!("{}_pk", t.schema.name),
                columns: pk,
                unique: true,
                map: BTreeMap::new(),
            });
        }
        let uniques: Vec<usize> = t
            .schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique && !c.primary_key)
            .map(|(i, _)| i)
            .collect();
        for i in uniques {
            t.indexes.push(Index {
                name: format!("{}_{}_unique", t.schema.name, t.schema.columns[i].name),
                columns: vec![i],
                unique: true,
                map: BTreeMap::new(),
            });
        }
        t
    }

    /// Share GC watermark and version counters with the owning database
    /// (called when the table is added to a catalog).
    pub fn attach_mvcc(&mut self, shared: Arc<MvccShared>) {
        self.mvcc = shared;
    }

    /// Number of live rows (newest version not a tombstone). Snapshot
    /// readers should count via a scan; this is the physical count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the table physically empty of live rows?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Resolve a chain under `snap`, ticking the chain-walk counter for
    /// multi-version chains.
    fn resolve<'t>(&'t self, snap: &Snapshot, chain: &'t Chain) -> Option<&'t Arc<Row>> {
        if chain.versions.len() > 1 {
            self.mvcc.chains_walked.fetch_add(1, AtomicOrd::Relaxed);
        }
        chain.visible(snap)
    }

    /// Iterate the rows visible to `snap` in row-id order. Rows come out
    /// as shared `Arc`s so a scan can retain them without deep-copying.
    pub fn iter<'t, 's>(
        &'t self,
        snap: &'s Snapshot,
    ) -> impl Iterator<Item = (RowId, &'t Arc<Row>)> + use<'t, 's> {
        Walk {
            chains: self.rows.iter(),
            snap,
            mvcc: &self.mvcc,
            walked: 0,
        }
    }

    /// Iterate row data in row-id order *by reference* — the batch
    /// executor's scan primitive. Unlike [`Table::iter`] the `Arc` is
    /// never cloned: the borrow pins each row to the caller's table
    /// guard, so a whole-table scan costs zero refcount traffic and
    /// zero per-row allocation. Snapshot-filtered like [`Table::iter`].
    pub fn scan<'t, 's>(
        &'t self,
        snap: &'s Snapshot,
    ) -> impl Iterator<Item = &'t Arc<Row>> + use<'t, 's> {
        self.iter(snap).map(|(_, row)| row)
    }

    /// Fetch one row's newest version — the *physical* latest, whatever
    /// its stamp. WAL after-image derivation depends on this; snapshot
    /// readers use [`Table::get_visible`].
    pub fn get(&self, id: RowId) -> Option<&Arc<Row>> {
        self.rows.get(&id).and_then(|c| c.latest())
    }

    /// Fetch the version of one row visible to `snap`.
    pub fn get_visible(&self, snap: &Snapshot, id: RowId) -> Option<&Arc<Row>> {
        self.rows.get(&id).and_then(|c| self.resolve(snap, c))
    }

    /// Visibility-aware exact-key index lookup: resolves each candidate
    /// id against `snap` and keeps it only if the visible version
    /// actually carries the probe key (historical entries for other keys
    /// are skipped). Ids come out ascending, matching scan order among
    /// equal keys.
    pub fn index_eq_entries<'t>(
        &'t self,
        snap: &Snapshot,
        idx: &'t Index,
        key: &SortKey,
    ) -> Vec<(RowId, &'t Arc<Row>)> {
        let mut out = Vec::new();
        for id in idx.lookup(key) {
            let Some(chain) = self.rows.get(&id) else {
                continue;
            };
            let multi = chain.versions.len() > 1;
            let Some(row) = self.resolve(snap, chain) else {
                continue;
            };
            if multi && !idx.carries_key(row, key) {
                continue;
            }
            out.push((id, row));
        }
        out
    }

    /// Visibility-aware range walk over a (single-column) index: bounds
    /// and ordering exactly as [`Index::lookup_range`], but each candidate
    /// resolves through `snap` and must carry the entry key it was found
    /// under (so a row whose key changed after the snapshot neither
    /// vanishes nor appears twice).
    pub fn index_range_entries<'t>(
        &'t self,
        snap: &Snapshot,
        idx: &'t Index,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
        rev: bool,
        include_null_keys: bool,
    ) -> Vec<(RowId, &'t Arc<Row>)> {
        let Some(bounds) = Index::range_bounds(lower, upper, include_null_keys) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut emit = |key: &SortKey, ids: &BTreeSet<RowId>| {
            for &id in ids {
                let Some(chain) = self.rows.get(&id) else {
                    continue;
                };
                let multi = chain.versions.len() > 1;
                let Some(row) = self.resolve(snap, chain) else {
                    continue;
                };
                if multi && !idx.carries_key(row, key) {
                    continue;
                }
                out.push((id, row));
            }
        };
        let entries = idx.map.range(bounds);
        if rev {
            for (key, ids) in entries.rev() {
                emit(key, ids);
            }
        } else {
            for (key, ids) in entries {
                emit(key, ids);
            }
        }
        out
    }

    /// Validate a row against NOT NULL constraints and coerce cell types.
    pub fn normalize_row(&self, mut row: Row) -> SqlResult<Row> {
        if row.len() != self.schema.columns.len() {
            return Err(SqlError::Semantic(format!(
                "table '{}' expects {} values, got {}",
                self.schema.name,
                self.schema.columns.len(),
                row.len()
            )));
        }
        for (cell, col) in row.iter_mut().zip(&self.schema.columns) {
            if cell.is_null() {
                if let Some(d) = &col.default {
                    *cell = d.clone();
                }
            }
            // A cell already of the column's type stays as it is.
            match cell.data_type() {
                None if col.not_null || col.primary_key => {
                    return Err(SqlError::Constraint(format!(
                        "column '{}' of table '{}' is NOT NULL",
                        col.name, self.schema.name
                    )));
                }
                Some(ty) if ty != col.ty => {
                    *cell = cell
                        .coerce(col.ty)
                        .map_err(|m| SqlError::Semantic(format!("column '{}': {m}", col.name)))?;
                }
                _ => {}
            }
        }
        Ok(row)
    }

    /// Insert a normalized row as a version stamped with `snap`'s stamp,
    /// enforcing unique indexes. Returns its id.
    pub fn insert(&mut self, snap: &Snapshot, row: Row) -> SqlResult<RowId> {
        let row = self.normalize_row(row)?;
        self.check_unique(&row, None, |_| false)?;
        let id = self.next_row_id;
        self.next_row_id += 1;
        for idx in &mut self.indexes {
            idx.add_entry(&row, id);
        }
        self.rows
            .insert(id, Chain::single(Arc::clone(&snap.stamp), Arc::new(row)));
        self.live += 1;
        Ok(id)
    }

    /// Re-insert a row under a specific id (redo of insert, undo of
    /// delete, checkpoint reload). Physical: replaces the whole chain
    /// with one bootstrap-stamped version.
    pub fn restore(&mut self, id: RowId, row: Row) {
        self.drop_chain_entries(id);
        self.garbage.remove(&id);
        let was_live = self.rows.get(&id).is_some_and(Chain::top_is_live);
        for idx in &mut self.indexes {
            idx.add_entry(&row, id);
        }
        self.next_row_id = self.next_row_id.max(id + 1);
        self.rows
            .insert(id, Chain::single(bootstrap_stamp(), Arc::new(row)));
        if !was_live {
            self.live += 1;
        }
    }

    /// Remove every retained version's index entries for `id` (prelude
    /// to physically replacing the chain).
    fn drop_chain_entries(&mut self, id: RowId) {
        let Some(chain) = self.rows.get(&id) else {
            return;
        };
        for v in &chain.versions {
            if let Some(r) = &v.row {
                for idx in &mut self.indexes {
                    let key = idx.key_of(r);
                    idx.remove_entry(&key, id);
                }
            }
        }
    }

    /// Replace the row at `id` visible to `snap`. Returns that row, the
    /// superseded version itself (shared, not copied). The new version is
    /// stamped with `snap`'s stamp; the old one stays for concurrent
    /// readers until a trim or GC sweep drops it.
    ///
    /// When the visible version is the chain's newest, an index whose key
    /// columns the update leaves equal is left alone: the newest version
    /// already holds that key's entry and passed its unique check, and no
    /// other chain's newest version can hold the key. A newer version the
    /// snapshot cannot see (another writer's) voids that argument, so
    /// then every index is checked and entered as usual.
    pub fn update(&mut self, snap: &Snapshot, id: RowId, row: Row) -> SqlResult<Arc<Row>> {
        let row = self.normalize_row(row)?;
        let Some((old, newest)) = self.rows.get(&id).and_then(|c| {
            let old = self.resolve(snap, c)?;
            let newest = c.latest().is_some_and(|top| Arc::ptr_eq(top, old));
            Some((Arc::clone(old), newest))
        }) else {
            return Err(SqlError::NotFound(format!(
                "row {id} in table '{}'",
                self.schema.name
            )));
        };
        let stable = |idx: &Index| newest && idx.same_key(&old, &row);
        self.check_unique(&row, Some(id), stable)?;
        let floor = self.mvcc.floor.load(AtomicOrd::Acquire);
        let Table {
            rows,
            indexes,
            mvcc,
            live,
            garbage,
            ..
        } = self;
        let chain = rows.get_mut(&id).expect("chain exists: resolved above");
        for idx in indexes.iter_mut() {
            if !stable(idx) {
                idx.add_entry(&row, id);
            }
        }
        let was_live = chain.top_is_live();
        chain.versions.push(RowVersion {
            begin: Arc::clone(&snap.stamp),
            row: Some(Arc::new(row)),
        });
        if !was_live {
            *live += 1;
        }
        let gced = trim_chain(indexes, id, chain, floor);
        if gced > 0 {
            mvcc.versions_gced.fetch_add(gced, AtomicOrd::Relaxed);
        }
        track_garbage(garbage, id, chain);
        Ok(old)
    }

    /// Replace the row at `id` without constraint checks or normalization.
    /// Only for redo/undo application, where the restored state is
    /// known-valid. Physical: replaces the whole chain.
    pub fn raw_replace(&mut self, id: RowId, row: Row) {
        self.drop_chain_entries(id);
        self.garbage.remove(&id);
        let was_live = self.rows.get(&id).is_some_and(Chain::top_is_live);
        let absent = !self.rows.contains_key(&id);
        for idx in &mut self.indexes {
            idx.add_entry(&row, id);
        }
        self.rows
            .insert(id, Chain::single(bootstrap_stamp(), Arc::new(row)));
        if !was_live || absent {
            self.live += 1;
        }
    }

    /// Physically remove the chain at `id` and every index entry of its
    /// versions (redo of delete, undo of insert). Leaves no tombstone.
    pub fn remove(&mut self, id: RowId) {
        self.drop_chain_entries(id);
        self.garbage.remove(&id);
        if self.rows.remove(&id).is_some_and(|c| c.top_is_live()) {
            self.live -= 1;
        }
    }

    /// Delete the row at `id` visible to `snap`, returning it (shared,
    /// not copied). Pushes a tombstone stamped with `snap`'s stamp so
    /// concurrent snapshots keep reading the old version.
    pub fn delete(&mut self, snap: &Snapshot, id: RowId) -> SqlResult<Arc<Row>> {
        let Some(old) = self
            .rows
            .get(&id)
            .and_then(|c| self.resolve(snap, c))
            .cloned()
        else {
            return Err(SqlError::NotFound(format!(
                "row {id} in table '{}'",
                self.schema.name
            )));
        };
        let floor = self.mvcc.floor.load(AtomicOrd::Acquire);
        let Table {
            rows,
            indexes,
            mvcc,
            live,
            garbage,
            ..
        } = self;
        let chain = rows.get_mut(&id).expect("chain exists: resolved above");
        let was_live = chain.top_is_live();
        chain.versions.push(RowVersion {
            begin: Arc::clone(&snap.stamp),
            row: None,
        });
        if was_live {
            *live -= 1;
        }
        let gced = trim_chain(indexes, id, chain, floor);
        if gced > 0 {
            mvcc.versions_gced.fetch_add(gced, AtomicOrd::Relaxed);
        }
        garbage.insert(id);
        Ok(old)
    }

    /// Undo one insert, update or delete of `id` made under `stamp`:
    /// remove the version it pushed (the newest such, if the statement
    /// touched the row more than once), re-exposing whatever was
    /// underneath, without disturbing versions other transactions pushed
    /// above or below.
    pub fn undo_write(&mut self, id: RowId, stamp: &TxnStamp) {
        let Table {
            rows,
            indexes,
            live,
            garbage,
            ..
        } = self;
        let Some(chain) = rows.get_mut(&id) else {
            return;
        };
        let was_live = chain.top_is_live();
        let Some(pos) = chain
            .versions
            .iter()
            .rposition(|v| Arc::ptr_eq(&v.begin, stamp))
        else {
            return;
        };
        let removed = chain.versions.remove(pos);
        if let Some(r) = &removed.row {
            unindex_unless_retained(indexes, &chain.versions, id, r);
        }
        let now_live = chain.top_is_live();
        if chain.versions.is_empty() {
            rows.remove(&id);
            garbage.remove(&id);
        } else {
            track_garbage(garbage, id, chain);
        }
        match (was_live, now_live) {
            (true, false) => *live -= 1,
            (false, true) => *live += 1,
            _ => {}
        }
    }

    /// Drop versions superseded before the `floor` watermark (oldest
    /// active snapshot timestamp; `u64::MAX` when no snapshot is active)
    /// and physically remove rows whose only remaining version is a
    /// committed tombstone at or before it. Visits only the garbage list;
    /// a chain the floor cannot trim yet stays on it. Returns versions
    /// dropped.
    pub fn gc_versions(&mut self, floor: u64) -> u64 {
        let Table {
            rows,
            indexes,
            mvcc,
            garbage,
            ..
        } = self;
        let visited = garbage.len() as u64;
        if visited == 0 {
            return 0;
        }
        let mut dropped = 0u64;
        garbage.retain(|&id| {
            let Some(chain) = rows.get_mut(&id) else {
                return false;
            };
            dropped += trim_chain(indexes, id, chain, floor);
            let dead = match chain.versions.as_slice() {
                [only] if only.row.is_none() => {
                    let ts = only.committed_at();
                    ts != 0 && ts <= floor
                }
                _ => false,
            };
            if dead {
                rows.remove(&id);
                dropped += 1;
                return false;
            }
            chain.is_garbage()
        });
        mvcc.gc_chains_visited
            .fetch_add(visited, AtomicOrd::Relaxed);
        if dropped > 0 {
            mvcc.versions_gced.fetch_add(dropped, AtomicOrd::Relaxed);
        }
        dropped
    }

    /// Total retained versions across all chains (tombstones included) —
    /// test/diagnostic aid for GC behavior.
    pub fn version_count(&self) -> usize {
        self.rows.values().map(|c| c.versions.len()).sum()
    }

    /// Check `row` against every unique index except those `skip`
    /// names, ignoring the chain `exclude` (the row being updated).
    fn check_unique(
        &self,
        row: &Row,
        exclude: Option<RowId>,
        skip: impl Fn(&Index) -> bool,
    ) -> SqlResult<()> {
        for idx in &self.indexes {
            if !idx.unique || skip(idx) {
                continue;
            }
            // Keys containing NULL never clash (SQL convention); checking
            // on the borrowed row skips building the key at all.
            if idx.row_key_has_null(row) {
                continue;
            }
            let key = idx.key_of(row);
            // A candidate clashes only if its *newest* version is live and
            // still carries this key (historical entries of superseded
            // versions don't constrain new writes).
            let clash = idx.lookup(&key).any(|id| {
                Some(id) != exclude
                    && self.rows.get(&id).is_some_and(|c| {
                        c.latest()
                            .is_some_and(|r| c.versions.len() == 1 || idx.carries_key(r, &key))
                    })
            });
            if clash {
                let cols: Vec<&str> = idx
                    .columns
                    .iter()
                    .map(|&i| self.schema.columns[i].name.as_str())
                    .collect();
                return Err(SqlError::Constraint(format!(
                    "duplicate key ({}) = ({}) violates unique index '{}'",
                    cols.join(", "),
                    key.0
                        .iter()
                        .map(|v| v.render())
                        .collect::<Vec<_>>()
                        .join(", "),
                    idx.name
                )));
            }
        }
        Ok(())
    }

    /// Add a secondary index over the named columns, backfilling it with
    /// every retained version's key. Uniqueness is checked against the
    /// newest live version of each row only, as writes check it.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        column_names: &[String],
        unique: bool,
    ) -> SqlResult<()> {
        let name = name.into();
        if self
            .indexes
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(&name))
        {
            return Err(SqlError::AlreadyExists(format!("index '{name}'")));
        }
        let mut columns = Vec::new();
        for c in column_names {
            columns.push(self.schema.resolve(c)?);
        }
        let mut idx = Index {
            name,
            columns,
            unique,
            map: BTreeMap::new(),
        };
        for (id, chain) in &self.rows {
            if let Some(row) = chain.latest() {
                let key = idx.key_of(row);
                if unique && !Index::key_has_null(&key) && idx.map.contains_key(&key) {
                    return Err(SqlError::Constraint(format!(
                        "cannot create unique index '{}': duplicate existing keys",
                        idx.name
                    )));
                }
                idx.map.entry(key).or_default().insert(*id);
            }
        }
        // Historical versions: index them too so snapshot readers keep
        // finding the rows they can see (no uniqueness constraint — only
        // the newest version constrains).
        for (id, chain) in &self.rows {
            if chain.versions.len() > 1 {
                for v in &chain.versions {
                    if let Some(r) = &v.row {
                        idx.map.entry(idx.key_of(r)).or_default().insert(*id);
                    }
                }
            }
        }
        self.indexes.push(idx);
        Ok(())
    }

    /// Drop an index by name. Returns it (for undo).
    pub fn drop_index(&mut self, name: &str) -> SqlResult<Index> {
        let pos = self
            .indexes
            .iter()
            .position(|i| i.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| SqlError::NotFound(format!("index '{name}'")))?;
        Ok(self.indexes.remove(pos))
    }

    /// Re-attach a previously dropped index (undo).
    pub fn restore_index(&mut self, index: Index) {
        self.indexes.push(index);
    }

    /// Find an equality index covering exactly the given column positions
    /// (used by the executor's index-lookup fast path).
    pub fn find_index(&self, columns: &[usize]) -> Option<&Index> {
        self.indexes.iter().find(|i| i.columns == columns)
    }

    /// Does an index with this name exist on this table?
    pub fn has_index(&self, name: &str) -> bool {
        self.indexes
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(name))
    }

    /// All index names (for catalog introspection).
    pub fn index_names(&self) -> Vec<String> {
        self.indexes.iter().map(|i| i.name.clone()).collect()
    }

    /// Iterate index definitions (name, column positions, uniqueness) —
    /// used by checkpoint serialization, which must rebuild the exact
    /// index set on recovery.
    pub fn index_iter(&self) -> impl Iterator<Item = &Index> {
        self.indexes.iter()
    }

    /// The row id the next insert will take. Serialized by checkpoints so
    /// a recovered table allocates ids exactly as the original would
    /// have — recovery must be byte-identical, row ids included.
    pub fn next_row_id(&self) -> RowId {
        self.next_row_id
    }

    /// Restore the row-id allocator (recovery only). Never moves it
    /// backwards: ids already in use stay unreachable.
    pub fn set_next_row_id(&mut self, next: RowId) {
        self.next_row_id = self.next_row_id.max(next);
    }
}

#[cfg(test)]
impl Table {
    /// The sweep's oracle: list every chain as garbage, then sweep, so
    /// the sweep walks the whole table as it did before the list existed.
    pub(crate) fn gc_versions_full_walk(&mut self, floor: u64) -> u64 {
        let Table { rows, garbage, .. } = self;
        garbage.extend(rows.keys().copied());
        self.gc_versions(floor)
    }

    /// Is the garbage list exactly the chains a sweep has work on?
    pub(crate) fn garbage_is_exact(&self) -> bool {
        self.rows
            .iter()
            .filter(|(_, c)| c.is_garbage())
            .map(|(id, _)| *id)
            .eq(self.garbage.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::types::DataType;

    fn table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                {
                    let mut c = Column::new("id", DataType::Int);
                    c.primary_key = true;
                    c
                },
                Column::new("name", DataType::Text),
                Column::new("qty", DataType::Int),
            ],
            false,
        )
        .unwrap();
        Table::new(schema)
    }

    fn row(id: i64, name: &str, qty: i64) -> Row {
        vec![Value::Int(id), Value::text(name), Value::Int(qty)]
    }

    #[test]
    fn insert_and_get() {
        let s = Snapshot::committed();
        let mut t = table();
        let id = t.insert(&s, row(1, "a", 10)).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::text("a"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn primary_key_enforced() {
        let s = Snapshot::committed();
        let mut t = table();
        t.insert(&s, row(1, "a", 10)).unwrap();
        let err = t.insert(&s, row(1, "b", 20)).unwrap_err();
        assert_eq!(err.class(), "constraint");
    }

    #[test]
    fn pk_null_rejected() {
        let s = Snapshot::committed();
        let mut t = table();
        let err = t
            .insert(&s, vec![Value::Null, Value::text("x"), Value::Int(1)])
            .unwrap_err();
        assert_eq!(err.class(), "constraint");
    }

    #[test]
    fn arity_checked() {
        let s = Snapshot::committed();
        let mut t = table();
        assert!(t.insert(&s, vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn coercion_on_insert() {
        let s = Snapshot::committed();
        let mut t = table();
        let id = t
            .insert(&s, vec![Value::text("7"), Value::Int(5), Value::Float(3.0)])
            .unwrap();
        let r = t.get(id).unwrap();
        assert_eq!(r[0], Value::Int(7));
        assert_eq!(r[1], Value::text("5"));
        assert_eq!(r[2], Value::Int(3));
    }

    #[test]
    fn update_moves_index_entries() {
        let s = Snapshot::committed();
        let mut t = table();
        let id = t.insert(&s, row(1, "a", 10)).unwrap();
        t.update(&s, id, row(2, "a", 10)).unwrap();
        // old key free again
        t.insert(&s, row(1, "c", 1)).unwrap();
        // new key taken
        assert!(t.insert(&s, row(2, "d", 1)).is_err());
    }

    #[test]
    fn update_to_conflicting_pk_fails() {
        let s = Snapshot::committed();
        let mut t = table();
        let a = t.insert(&s, row(1, "a", 1)).unwrap();
        t.insert(&s, row(2, "b", 2)).unwrap();
        assert!(t.update(&s, a, row(2, "a", 1)).is_err());
        // a unchanged
        assert_eq!(t.get(a).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn update_same_key_allowed() {
        let s = Snapshot::committed();
        let mut t = table();
        let a = t.insert(&s, row(1, "a", 1)).unwrap();
        t.update(&s, a, row(1, "a2", 2)).unwrap();
        assert_eq!(t.get(a).unwrap()[1], Value::text("a2"));
    }

    #[test]
    fn delete_frees_key_and_restore_brings_back() {
        let s = Snapshot::committed();
        let mut t = table();
        let id = t.insert(&s, row(1, "a", 1)).unwrap();
        let old = t.delete(&s, id).unwrap();
        assert_eq!(t.len(), 0);
        t.restore(id, Row::clone(&old));
        assert_eq!(t.get(id).unwrap()[0], Value::Int(1));
        assert!(t.insert(&s, row(1, "again", 9)).is_err());
    }

    #[test]
    fn restore_bumps_next_row_id() {
        let s = Snapshot::committed();
        let mut t = table();
        let id = t.insert(&s, row(1, "a", 1)).unwrap();
        let old = t.delete(&s, id).unwrap();
        t.restore(id, Row::clone(&old));
        let id2 = t.insert(&s, row(2, "b", 2)).unwrap();
        assert_ne!(id, id2);
    }

    #[test]
    fn secondary_index_lookup() {
        let s = Snapshot::committed();
        let mut t = table();
        t.insert(&s, row(1, "a", 10)).unwrap();
        t.insert(&s, row(2, "a", 20)).unwrap();
        t.insert(&s, row(3, "b", 30)).unwrap();
        t.create_index("t_name", &["name".into()], false).unwrap();
        let idx = t.find_index(&[1]).unwrap();
        let hits: Vec<RowId> = idx.lookup(&SortKey(vec![Value::text("a")])).collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(idx.key_count(), 2);
    }

    #[test]
    fn unique_index_creation_fails_on_duplicates() {
        let s = Snapshot::committed();
        let mut t = table();
        t.insert(&s, row(1, "a", 10)).unwrap();
        t.insert(&s, row(2, "a", 20)).unwrap();
        let err = t
            .create_index("u_name", &["name".into()], true)
            .unwrap_err();
        assert_eq!(err.class(), "constraint");
    }

    #[test]
    fn unique_index_ignores_null_keys() {
        let s = Snapshot::committed();
        let schema = TableSchema::new(
            "t",
            vec![Column::new("a", DataType::Int), {
                let mut c = Column::new("b", DataType::Int);
                c.unique = true;
                c
            }],
            false,
        )
        .unwrap();
        let mut t = Table::new(schema);
        t.insert(&s, vec![Value::Int(1), Value::Null]).unwrap();
        t.insert(&s, vec![Value::Int(2), Value::Null]).unwrap(); // two NULLs fine
        t.insert(&s, vec![Value::Int(3), Value::Int(9)]).unwrap();
        assert!(t.insert(&s, vec![Value::Int(4), Value::Int(9)]).is_err());
    }

    #[test]
    fn drop_and_restore_index() {
        let mut t = table();
        t.create_index("x", &["qty".into()], false).unwrap();
        let idx = t.drop_index("X").unwrap();
        assert!(!t.has_index("x"));
        t.restore_index(idx);
        assert!(t.has_index("x"));
        assert!(t.drop_index("nope").is_err());
    }

    #[test]
    fn defaults_fill_nulls() {
        let s = Snapshot::committed();
        let schema = TableSchema::new(
            "t",
            vec![Column::new("a", DataType::Int), {
                let mut c = Column::new("b", DataType::Int);
                c.default = Some(Value::Int(42));
                c
            }],
            false,
        )
        .unwrap();
        let mut t = Table::new(schema);
        let id = t.insert(&s, vec![Value::Int(1), Value::Null]).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::Int(42));
    }

    #[test]
    fn sort_key_ordering() {
        let a = SortKey(vec![Value::Int(1), Value::text("a")]);
        let b = SortKey(vec![Value::Int(1), Value::text("b")]);
        let c = SortKey(vec![Value::Null]);
        assert!(a < b);
        assert!(c < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn unique_composite_index_ignores_null_keys() {
        let s = Snapshot::committed();
        // SQL unique semantics: a key containing NULL never conflicts,
        // even with an identical NULL-containing key.
        let mut t = table();
        t.create_index("u", &["name".into(), "qty".into()], true)
            .unwrap();
        t.insert(&s, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();
        t.insert(&s, vec![Value::Int(2), Value::Null, Value::Int(5)])
            .unwrap();
        t.insert(&s, vec![Value::Int(3), Value::text("a"), Value::Null])
            .unwrap();
        t.insert(&s, vec![Value::Int(4), Value::text("a"), Value::Null])
            .unwrap();
        assert_eq!(t.len(), 4);
        // Fully non-NULL duplicates are still rejected.
        t.insert(&s, row(5, "b", 7)).unwrap();
        let err = t.insert(&s, row(6, "b", 7)).unwrap_err();
        assert_eq!(err.class(), "constraint");
    }

    #[test]
    fn update_moves_null_composite_keys_correctly() {
        let s = Snapshot::committed();
        let mut t = table();
        t.create_index("u", &["name".into(), "qty".into()], true)
            .unwrap();
        let id = t
            .insert(&s, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();

        // NULL → value: the row must move to the concrete key and start
        // participating in uniqueness.
        t.update(&s, id, row(1, "a", 5)).unwrap();
        let idx = t.find_index(&[1, 2]).unwrap();
        let hits: Vec<_> = idx
            .lookup(&SortKey(vec![Value::text("a"), Value::Int(5)]))
            .collect();
        assert_eq!(hits, vec![id]);
        let err = t.insert(&s, row(2, "a", 5)).unwrap_err();
        assert_eq!(err.class(), "constraint");

        // value → NULL: leaves the concrete key free again.
        t.update(&s, id, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();
        t.insert(&s, row(2, "a", 5)).unwrap();

        // NULL-key update where the key is unchanged (NULL == NULL under
        // total order, so the entry stays put).
        t.update(&s, id, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_removes_null_composite_keys() {
        let s = Snapshot::committed();
        let mut t = table();
        t.create_index("u", &["name".into(), "qty".into()], true)
            .unwrap();
        let a = t
            .insert(&s, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();
        let b = t
            .insert(&s, vec![Value::Int(2), Value::Null, Value::Int(5)])
            .unwrap();
        t.delete(&s, a).unwrap();
        let idx = t.find_index(&[1, 2]).unwrap();
        let hits: Vec<_> = idx
            .lookup(&SortKey(vec![Value::Null, Value::Int(5)]))
            .collect();
        assert_eq!(hits, vec![b]);
        t.delete(&s, b).unwrap();
        assert_eq!(t.find_index(&[1, 2]).unwrap().key_count(), 0);
    }

    // ---- MVCC version-chain semantics ----

    fn snap(ts: u64) -> (Snapshot, TxnStamp) {
        let stamp = new_stamp();
        (
            Snapshot {
                ts,
                stamp: Arc::clone(&stamp),
            },
            stamp,
        )
    }

    #[test]
    fn committed_snapshot_skips_unstamped_versions() {
        let mut t = table();
        let committed = Snapshot::committed();
        let id = t.insert(&committed, row(1, "a", 10)).unwrap();
        // An open writer pushes an unstamped version and a new row.
        let (w, _) = snap(5);
        t.update(&w, id, row(1, "a", 20)).unwrap();
        t.insert(&w, row(2, "b", 30)).unwrap();
        // The physical latest is the unstamped version...
        assert_eq!(t.get(id).unwrap()[2], Value::Int(20));
        // ...but the committed snapshot reads the committed one only.
        assert_eq!(t.get_visible(&committed, id).unwrap()[2], Value::Int(10));
        let rows: Vec<_> = t.iter(&committed).map(|(_, r)| r[2].clone()).collect();
        assert_eq!(rows, vec![Value::Int(10)]);
    }

    #[test]
    fn versioned_update_preserves_old_version_for_older_snapshot() {
        let mut t = table();
        let id = t.insert(&Snapshot::committed(), row(1, "a", 10)).unwrap(); // ts=1

        // Writer at snapshot ts=5 updates; not yet committed.
        let (w, wstamp) = snap(5);
        t.update(&w, id, row(1, "a", 20)).unwrap();
        // Writer sees its own uncommitted version.
        assert_eq!(t.get_visible(&w, id).unwrap()[2], Value::Int(20));
        assert_eq!(t.version_count(), 2);

        // A reader snapshot (any ts) does not see the uncommitted write.
        let (r, _) = snap(9);
        assert_eq!(t.get_visible(&r, id).unwrap()[2], Value::Int(10));

        // Commit at ts=6: readers at ts>=6 see it, older snapshots don't.
        wstamp.store(6, AtomicOrd::Release);
        assert_eq!(t.get_visible(&snap(9).0, id).unwrap()[2], Value::Int(20));
        assert_eq!(t.get_visible(&snap(5).0, id).unwrap()[2], Value::Int(10));
    }

    #[test]
    fn versioned_delete_is_tombstone_until_gc() {
        let mut t = table();
        let id = t.insert(&Snapshot::committed(), row(1, "a", 10)).unwrap();
        let (w, wstamp) = snap(5);
        t.delete(&w, id).unwrap();
        assert!(t.get_visible(&w, id).is_none()); // own delete visible
                                                  // Old snapshot still sees the row.
        let (r, _) = snap(5);
        assert_eq!(t.get_visible(&r, id).unwrap()[0], Value::Int(1));
        assert_eq!(t.iter(&r).count(), 1);
        assert_eq!(t.len(), 0); // physically dead (newest is tombstone)
        wstamp.store(6, AtomicOrd::Release);
        // After commit + GC past the tombstone, the chain is gone.
        assert!(t.gc_versions(u64::MAX) >= 1);
        assert_eq!(t.version_count(), 0);
    }

    #[test]
    fn stamped_undo_restores_exact_state() {
        let mut t = table();
        let a = t.insert(&Snapshot::committed(), row(1, "a", 10)).unwrap();
        let (w, wstamp) = snap(5);
        let b = t.insert(&w, row(2, "b", 20)).unwrap();
        t.update(&w, a, row(1, "a", 99)).unwrap();
        t.delete(&w, a).unwrap();
        // Roll all three back (reverse order, as the undo log would).
        t.undo_write(a, &wstamp);
        t.undo_write(a, &wstamp);
        t.undo_write(b, &wstamp);
        assert_eq!(t.len(), 1);
        assert_eq!(t.version_count(), 1);
        assert_eq!(t.get(a).unwrap()[2], Value::Int(10));
        // Index state restored: key 2 free again, key 1 still taken.
        t.insert(&w, row(2, "b2", 1)).unwrap();
        assert!(t.insert(&w, row(1, "dup", 1)).is_err());
    }

    #[test]
    fn index_entries_follow_visibility() {
        let mut t = table();
        let committed = Snapshot::committed();
        let id = t.insert(&committed, row(1, "a", 10)).unwrap();
        t.insert(&committed, row(2, "b", 20)).unwrap();
        t.create_index("t_name", &["name".into()], false).unwrap();

        let (w, wstamp) = snap(5);
        t.update(&w, id, row(1, "z", 11)).unwrap();
        wstamp.store(6, AtomicOrd::Release);

        // Old snapshot: sees the row under its old key, not the new one.
        let (old_r, _) = snap(5);
        let idx = t.find_index(&[1]).unwrap();
        let a_hits = t.index_eq_entries(&old_r, idx, &SortKey(vec![Value::text("a")]));
        assert_eq!(a_hits.len(), 1);
        assert_eq!(a_hits[0].1[2], Value::Int(10));
        assert!(t
            .index_eq_entries(&old_r, idx, &SortKey(vec![Value::text("z")]))
            .is_empty());
        // Range walk emits each visible row exactly once.
        let all = t.index_range_entries(&old_r, idx, None, None, false, true);
        assert_eq!(all.len(), 2);

        // New snapshot: new key only.
        let (new_r, _) = snap(6);
        assert!(t
            .index_eq_entries(&new_r, idx, &SortKey(vec![Value::text("a")]))
            .is_empty());
        assert_eq!(
            t.index_eq_entries(&new_r, idx, &SortKey(vec![Value::text("z")]))
                .len(),
            1
        );
        let all = t.index_range_entries(&new_r, idx, None, None, false, true);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn stale_index_entries_do_not_block_unique_inserts() {
        let mut t = table();
        let id = t.insert(&Snapshot::committed(), row(1, "a", 10)).unwrap();
        let (w, wstamp) = snap(5);
        // Move pk 1 -> 7; the historical pk-1 entry must not block a
        // fresh insert of pk 1, and pk 7 must now clash.
        t.update(&w, id, row(7, "a", 10)).unwrap();
        wstamp.store(6, AtomicOrd::Release);
        let (w2, _) = snap(6);
        t.insert(&w2, row(1, "fresh", 1)).unwrap();
        assert!(t.insert(&w2, row(7, "dup", 1)).is_err());
    }

    #[test]
    fn gc_respects_floor_watermark() {
        let mut t = table();
        // Pin the watermark low so inline trim retains history, as it
        // would while an old snapshot is still registered.
        let shared = Arc::new(MvccShared::default());
        shared.floor.store(1, AtomicOrd::Release);
        t.attach_mvcc(Arc::clone(&shared));
        let id = t.insert(&Snapshot::committed(), row(1, "a", 0)).unwrap();
        for (i, commit_ts) in [(1i64, 10u64), (2, 20), (3, 30)] {
            let (w, wstamp) = snap(commit_ts - 1);
            t.update(&w, id, row(1, "a", i)).unwrap();
            wstamp.store(commit_ts, AtomicOrd::Release);
        }
        assert_eq!(t.version_count(), 4);
        // Floor 15: versions at ts 1 and 10 are superseded by ts 10's
        // successor... anchor is ts=10 (newest committed <= 15), so only
        // the bootstrap version drops.
        t.gc_versions(15);
        assert_eq!(t.version_count(), 3);
        // Snapshot at 15 still reads qty=1 (the ts=10 version).
        assert_eq!(t.get_visible(&snap(15).0, id).unwrap()[2], Value::Int(1));
        // No active snapshots: everything but the newest drops.
        t.gc_versions(u64::MAX);
        assert_eq!(t.version_count(), 1);
        assert_eq!(t.get(id).unwrap()[2], Value::Int(3));
    }

    #[test]
    fn inline_trim_bounds_chain_growth() {
        let mut t = table();
        let id = t.insert(&Snapshot::committed(), row(1, "a", 0)).unwrap();
        // Repeated committed autocommit updates with no active snapshots
        // (floor = MAX): chains must not grow without bound.
        for i in 1..100i64 {
            let (w, wstamp) = snap(u64::MAX - 1);
            t.update(&w, id, row(1, "a", i)).unwrap();
            wstamp.store(i as u64 + 1, AtomicOrd::Release);
        }
        assert!(t.version_count() <= 3, "chain grew: {}", t.version_count());
    }

    #[test]
    fn physical_remove_leaves_no_tombstone() {
        let mut t = table();
        let committed = Snapshot::committed();
        let a = t.insert(&committed, row(1, "a", 1)).unwrap();
        t.insert(&committed, row(2, "b", 2)).unwrap();
        t.remove(a);
        assert_eq!(t.len(), 1);
        assert_eq!(t.version_count(), 1);
        // Its key is free again.
        t.insert(&committed, row(1, "again", 3)).unwrap();
    }
}
