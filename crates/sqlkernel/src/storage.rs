//! Row storage: multi-versioned tables with stable row ids and B-tree
//! secondary indexes.
//!
//! Rows live in a row map: version chains indexed by row id, in chunks
//! of `CHUNK_SLOTS` (64) consecutive ids. Each chain holds the row's
//! *versions* ordered oldest→newest — inline when there is one (the
//! common case), spilled to a vector when there are more. A version
//! carries a commit stamp (an `Arc<AtomicU64>`; `0` = still uncommitted)
//! and an optional [`StoredRow`] payload (`None` = deletion tombstone),
//! whose refcounts and cells share one allocation. Ids stay stable
//! across deletes (the undo log and the indexes both key on [`RowId`])
//! and read paths *share* a row instead of deep-copying it: a scan
//! borrows rows, the interpreter and undo entries clone the `Arc`, and
//! mutation pushes a new version (copy-on-write at row granularity).
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
use std::collections::{btree_map, btree_set, BTreeMap, BTreeSet};
use std::ops::{Bound, Deref};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, OnceLock};

use crate::counters::{Counter, Counters};
use crate::error::{SqlError, SqlResult};
use crate::schema::TableSchema;
use crate::types::Value;

/// Stable identifier of a row within one table.
pub type RowId = u64;

/// An owned row: what inserts, updates and recovery hand the table.
/// Always has exactly `schema.columns.len()` values once normalized.
pub type Row = Vec<Value>;

/// A stored row image, shared by its version chain, undo entries and
/// interpreted scans. The refcounts and the cells share one allocation,
/// so reaching a cell from the chain is one pointer hop.
pub type StoredRow = Arc<[Value]>;

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

/// State shared between a database handle, its catalog, every table it
/// owns and its WAL: the GC watermark (oldest active snapshot timestamp,
/// `u64::MAX` when no snapshot is active) and the engine counters.
#[derive(Debug)]
pub struct MvccShared {
    /// Oldest active snapshot timestamp; versions superseded before this
    /// point are unreachable and may be garbage-collected.
    pub floor: AtomicU64,
    /// The counted `DbStats` fields.
    pub(crate) counters: Counters,
}

impl Default for MvccShared {
    fn default() -> Self {
        MvccShared {
            floor: AtomicU64::new(u64::MAX),
            counters: Counters::default(),
        }
    }
}

/// One version of a row. `row == None` is a deletion tombstone.
#[derive(Debug, Clone)]
struct RowVersion {
    begin: TxnStamp,
    row: Option<StoredRow>,
}

impl RowVersion {
    fn committed_at(&self) -> u64 {
        self.begin.load(AtomicOrd::Acquire)
    }
}

/// A row's version chain, oldest first, never empty. A chain with one
/// version keeps it inline, so a scan reaches the row payload without
/// a hop through a vector; writes spill it to [`Chain::Many`], and a
/// trim or undo that leaves one version brings it back inline. Derefs
/// to the versions as a slice.
#[derive(Debug, Clone)]
enum Chain {
    One(RowVersion),
    /// Two or more versions.
    Many(Vec<RowVersion>),
}

impl Deref for Chain {
    type Target = [RowVersion];

    #[inline]
    fn deref(&self) -> &[RowVersion] {
        match self {
            Chain::One(v) => std::slice::from_ref(v),
            Chain::Many(vs) => vs,
        }
    }
}

impl Chain {
    fn single(begin: TxnStamp, row: StoredRow) -> Chain {
        Chain::One(RowVersion {
            begin,
            row: Some(row),
        })
    }

    /// Append a newer version, spilling an inline chain.
    fn push(&mut self, version: RowVersion) {
        match self {
            Chain::Many(vs) => vs.push(version),
            Chain::One(_) => {
                let Chain::One(first) = std::mem::replace(self, Chain::Many(Vec::new())) else {
                    unreachable!("matched One above");
                };
                *self = Chain::Many(vec![first, version]);
            }
        }
    }

    /// Remove the version at `pos` from a chain of two or more, going
    /// inline again when one is left.
    fn remove(&mut self, pos: usize) -> RowVersion {
        let Chain::Many(vs) = self else {
            unreachable!("removing from a one-version chain empties it");
        };
        let removed = vs.remove(pos);
        self.inline_if_single();
        removed
    }

    /// Drop the `n` oldest versions, keeping at least one; go inline
    /// again when one is left.
    fn drop_oldest(&mut self, n: usize) {
        if let Chain::Many(vs) = self {
            vs.drain(..n);
            self.inline_if_single();
        }
    }

    fn inline_if_single(&mut self) {
        if let Chain::Many(vs) = self {
            if vs.len() == 1 {
                let only = vs.pop().expect("one version");
                *self = Chain::One(only);
            }
        }
    }

    /// The newest version's payload — the "physical latest" row the WAL
    /// after-image derivation reads. `None` when the newest version is a
    /// tombstone.
    fn latest(&self) -> Option<&StoredRow> {
        self.last().and_then(|v| v.row.as_ref())
    }

    /// Is the newest version a live row (not a tombstone)?
    fn top_is_live(&self) -> bool {
        self.last().is_some_and(|v| v.row.is_some())
    }

    /// Does a sweep have work here: a superseded version or a tombstone?
    fn is_garbage(&self) -> bool {
        self.len() > 1 || !self.top_is_live()
    }

    /// Resolve against a snapshot: newest first, first own-or-committed
    /// version wins; its tombstone means "not visible".
    #[inline]
    fn visible(&self, snap: &Snapshot) -> Option<&StoredRow> {
        self.iter()
            .rev()
            .find(|v| {
                if Arc::ptr_eq(&v.begin, &snap.stamp) {
                    return true;
                }
                let ts = v.committed_at();
                ts != 0 && ts <= snap.ts
            })
            .and_then(|v| v.row.as_ref())
    }
}

/// Row ids per [`RowMap`] chunk.
const CHUNK_SLOTS: usize = 64;

/// One chunk of a [`RowMap`]: slot `i` holds the chain of row
/// `chunk * CHUNK_SLOTS + i`. The slot vector grows on demand up to
/// [`CHUNK_SLOTS`], so a table of a few rows pays for a few slots.
#[derive(Debug, Clone, Default)]
struct Chunk {
    slots: Vec<Option<Chain>>,
    /// Occupied slots; the chunk is freed when the last one empties.
    used: u32,
}

/// The chains of a table, indexed by row id: a `BTreeMap` from chunk
/// number to a chunk of [`CHUNK_SLOTS`] slots. A lookup is one map
/// lookup plus an array index, and a walk visits ids in ascending
/// order, stepping through each chunk's slots in sequence. Ids are
/// never compacted — WAL records and indexes name them — so memory is
/// bounded instead by freeing a chunk with its last row: at most
/// `CHUNK_SLOTS - 1` empty slots per live chain.
#[derive(Debug, Clone, Default)]
struct RowMap {
    chunks: BTreeMap<u64, Chunk>,
}

/// The chunk number and slot of `id`.
fn chunk_slot(id: RowId) -> (u64, usize) {
    (id / CHUNK_SLOTS as u64, (id % CHUNK_SLOTS as u64) as usize)
}

impl RowMap {
    fn get(&self, id: RowId) -> Option<&Chain> {
        let (c, s) = chunk_slot(id);
        self.chunks.get(&c)?.slots.get(s)?.as_ref()
    }

    fn get_mut(&mut self, id: RowId) -> Option<&mut Chain> {
        let (c, s) = chunk_slot(id);
        self.chunks.get_mut(&c)?.slots.get_mut(s)?.as_mut()
    }

    /// Put `chain` at `id`, returning the chain it replaced.
    fn insert(&mut self, id: RowId, chain: Chain) -> Option<Chain> {
        let (c, s) = chunk_slot(id);
        let chunk = self.chunks.entry(c).or_default();
        if chunk.slots.len() <= s {
            chunk.slots.resize_with(s + 1, || None);
        }
        let old = chunk.slots[s].replace(chain);
        if old.is_none() {
            chunk.used += 1;
        }
        old
    }

    /// Take the chain at `id` out, freeing its chunk if it was the last.
    fn remove(&mut self, id: RowId) -> Option<Chain> {
        let (c, s) = chunk_slot(id);
        let btree_map::Entry::Occupied(mut entry) = self.chunks.entry(c) else {
            return None;
        };
        let chain = entry.get_mut().slots.get_mut(s)?.take()?;
        entry.get_mut().used -= 1;
        if entry.get().used == 0 {
            entry.remove();
        }
        Some(chain)
    }

    /// Every chain with its id, ids ascending.
    fn iter(&self) -> Chains<'_> {
        Chains {
            chunks: self.chunks.iter(),
            base: 0,
            slots: [].iter().enumerate(),
        }
    }

    /// Allocated chunks — test aid for the memory bound.
    #[cfg(test)]
    fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

/// The chains of a [`RowMap`] in ascending id order ([`RowMap::iter`]).
struct Chains<'t> {
    chunks: btree_map::Iter<'t, u64, Chunk>,
    /// The first id of the chunk being visited.
    base: RowId,
    slots: std::iter::Enumerate<std::slice::Iter<'t, Option<Chain>>>,
}

impl<'t> Iterator for Chains<'t> {
    type Item = (RowId, &'t Chain);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            for (i, slot) in self.slots.by_ref() {
                if let Some(chain) = slot {
                    return Some((self.base + i as RowId, chain));
                }
            }
            let (c, chunk) = self.chunks.next()?;
            self.base = c * CHUNK_SLOTS as RowId;
            self.slots = chunk.slots.iter().enumerate();
        }
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
    fn key_of(&self, row: &[Value]) -> SortKey {
        SortKey(self.columns.iter().map(|&i| row[i].clone()).collect())
    }

    fn key_has_null(key: &SortKey) -> bool {
        key.0.iter().any(Value::is_null)
    }

    /// Does the row's index key contain a NULL? Borrowed counterpart of
    /// [`Index::key_has_null`], used to skip key construction entirely.
    fn row_key_has_null(&self, row: &[Value]) -> bool {
        self.columns.iter().any(|&i| row[i].is_null())
    }

    /// Do two rows carry the same key under this index? Compares the key
    /// columns in place, with the index map's own equality.
    fn same_key(&self, a: &[Value], b: &[Value]) -> bool {
        self.columns.iter().all(|&i| a[i] == b[i])
    }

    /// Does `row` carry `key` under this index? [`Index::same_key`]
    /// against an already-built key.
    fn carries_key(&self, row: &[Value], key: &SortKey) -> bool {
        self.columns.iter().zip(&key.0).all(|(&i, k)| row[i] == *k)
    }

    fn add_entry(&mut self, row: &[Value], id: RowId) {
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
    /// future entries) — use [`Table::index_eq`] for visibility-aware
    /// lookups.
    pub fn lookup(&self, key: &SortKey) -> impl Iterator<Item = RowId> + '_ {
        self.map.get(key).into_iter().flatten().copied()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
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
    dropped: &[Value],
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

/// The multi-version chains one read resolves, added to the
/// `version_chains_walked` counter in one step when the read is done
/// (dropped).
struct ChainTally<'t> {
    mvcc: &'t MvccShared,
    walked: u64,
}

impl ChainTally<'_> {
    /// Resolve `chain` under `snap`, counting it if it has more than one
    /// version.
    fn resolve<'c>(&mut self, snap: &Snapshot, chain: &'c Chain) -> Option<&'c StoredRow> {
        if chain.len() > 1 {
            self.walked += 1;
        }
        chain.visible(snap)
    }
}

impl Drop for ChainTally<'_> {
    fn drop(&mut self) {
        if self.walked > 0 {
            self.mvcc
                .counters
                .add(Counter::VersionChainsWalked, self.walked);
        }
    }
}

/// A snapshot walk over a table's rows in row-id order
/// ([`Table::iter`]). Multi-version chains it resolves are added to
/// the `version_chains_walked` counter when the walk is dropped.
pub struct Walk<'t, 's> {
    chains: Chains<'t>,
    snap: &'s Snapshot,
    tally: ChainTally<'t>,
}

impl<'t> Iterator for Walk<'t, '_> {
    type Item = (RowId, &'t StoredRow);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        for (id, chain) in self.chains.by_ref() {
            if let Some(row) = self.tally.resolve(self.snap, chain) {
                return Some((id, row));
            }
        }
        None
    }
}

/// A snapshot walk over one index ([`Table::index_eq`],
/// [`Table::index_range`]): keys in key order, backwards when `rev`; row
/// ids ascending within a key even then — the order a stable sort of a
/// full scan gives equal keys. Each entry resolves through the snapshot,
/// and on a multi-version chain it is kept only if the visible version
/// still carries the entry's key, so a row whose key moved neither
/// vanishes nor appears twice. Rows are resolved one `next` at a time:
/// a walk stopped early has resolved (and counted into
/// the `version_chains_walked` counter) only the entries it reached.
pub struct IndexCursor<'t, 's> {
    rows: &'t RowMap,
    index: &'t Index,
    snap: &'s Snapshot,
    /// The keys still to visit; `None` for a point lookup.
    keys: Option<btree_map::Range<'t, SortKey, BTreeSet<RowId>>>,
    rev: bool,
    /// The key being visited and its ids not yet visited.
    current: Option<(&'t SortKey, btree_set::Iter<'t, RowId>)>,
    tally: ChainTally<'t>,
}

impl<'t> Iterator for IndexCursor<'t, '_> {
    type Item = (RowId, &'t StoredRow);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((key, ids)) = &mut self.current {
                for &id in ids.by_ref() {
                    let Some(chain) = self.rows.get(id) else {
                        continue;
                    };
                    let Some(row) = self.tally.resolve(self.snap, chain) else {
                        continue;
                    };
                    if chain.len() > 1 && !self.index.carries_key(row, key) {
                        continue;
                    }
                    return Some((id, row));
                }
            }
            let keys = self.keys.as_mut()?;
            let (key, ids) = if self.rev {
                keys.next_back()
            } else {
                keys.next()
            }?;
            self.current = Some((key, ids.iter()));
        }
    }
}

/// Drop versions superseded before `floor`: keep the newest version
/// committed at or before the watermark (the anchor — some active or
/// future snapshot may still need it) and everything newer; drop all
/// older versions. Returns how many versions were dropped.
fn trim_chain(indexes: &mut [Index], id: RowId, chain: &mut Chain, floor: u64) -> u64 {
    let Some(anchor) = chain.iter().rposition(|v| {
        let ts = v.committed_at();
        ts != 0 && ts <= floor
    }) else {
        return 0;
    };
    if anchor == 0 {
        return 0;
    }
    let (removed, retained) = chain.split_at(anchor);
    for r in removed.iter().filter_map(|v| v.row.as_deref()) {
        unindex_unless_retained(indexes, retained, id, r);
    }
    chain.drop_oldest(anchor);
    anchor as u64
}

/// A stored table: schema + versioned rows + indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Shared, so undo entries and the log can name the table (and know
    /// whether it is temporary) without a catalog lookup.
    pub schema: Arc<TableSchema>,
    rows: RowMap,
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
    /// Create an empty table sharing `mvcc` (its catalog's GC watermark
    /// and counters). A unique index backing the primary key (if any) is
    /// created automatically, as are single-column unique indexes for
    /// `UNIQUE` columns.
    pub fn new(schema: TableSchema, mvcc: Arc<MvccShared>) -> Table {
        let mut t = Table {
            rows: RowMap::default(),
            live: 0,
            next_row_id: 1,
            indexes: Vec::new(),
            mvcc,
            garbage: BTreeSet::new(),
            schema: Arc::new(schema),
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

    /// Share the GC watermark and the engine counters with the owning database
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

    /// A count of the chains one read resolves, shared with the database.
    fn tally(&self) -> ChainTally<'_> {
        ChainTally {
            mvcc: &self.mvcc,
            walked: 0,
        }
    }

    /// Iterate the rows visible to `snap` in row-id order. Rows come out
    /// borrowed from the table, so a walk costs no refcount traffic and
    /// no per-row allocation; a caller that keeps a row past its table
    /// guard clones the `Arc`.
    pub fn iter<'t, 's>(&'t self, snap: &'s Snapshot) -> Walk<'t, 's> {
        Walk {
            chains: self.rows.iter(),
            snap,
            tally: self.tally(),
        }
    }

    /// Fetch one row's newest version — the *physical* latest, whatever
    /// its stamp. WAL after-image derivation depends on this; snapshot
    /// readers use [`Table::get_visible`].
    pub fn get(&self, id: RowId) -> Option<&StoredRow> {
        self.rows.get(id).and_then(|c| c.latest())
    }

    /// Fetch the version of one row visible to `snap`.
    pub fn get_visible(&self, snap: &Snapshot, id: RowId) -> Option<&StoredRow> {
        self.rows
            .get(id)
            .and_then(|c| self.tally().resolve(snap, c))
    }

    /// The rows visible to `snap` whose key under `index` is `key`, row
    /// ids ascending. A key containing NULL matches nothing: SQL
    /// equality is never true against NULL.
    pub fn index_eq<'t, 's>(
        &'t self,
        snap: &'s Snapshot,
        index: &'t Index,
        key: &SortKey,
    ) -> IndexCursor<'t, 's> {
        let mut cursor = self.index_cursor(snap, index);
        if !Index::key_has_null(key) {
            cursor.current = index.map.get_key_value(key).map(|(k, ids)| (k, ids.iter()));
        }
        cursor
    }

    /// The rows visible to `snap` whose key under the single-column
    /// `index` falls within the bounds, in key order — descending when
    /// `rev`. Each bound is `(value, inclusive)`; `None` means unbounded
    /// on that side.
    ///
    /// SQL comparison semantics: a NULL bound compares UNKNOWN against
    /// every key, so the walk is empty, and so is an inverted range. NULL
    /// *keys* never satisfy a comparison predicate either, so an
    /// unbounded-from-below walk excludes them — unless
    /// `include_null_keys` is set, which the executor uses for pure
    /// ORDER BY (no range predicate) walks where NULL keys must appear in
    /// their NULLS-first sort position.
    pub fn index_range<'t, 's>(
        &'t self,
        snap: &'s Snapshot,
        index: &'t Index,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
        rev: bool,
        include_null_keys: bool,
    ) -> IndexCursor<'t, 's> {
        let mut cursor = self.index_cursor(snap, index);
        cursor.rev = rev;
        if lower.is_some_and(|(v, _)| v.is_null()) || upper.is_some_and(|(v, _)| v.is_null()) {
            return cursor;
        }
        // BTreeMap::range panics on inverted bounds (and on equal bounds
        // with either end excluded); such ranges are simply empty.
        if let (Some((lo, lo_inc)), Some((hi, hi_inc))) = (lower, upper) {
            match lo.total_cmp(hi) {
                Ordering::Greater => return cursor,
                Ordering::Equal if !(lo_inc && hi_inc) => return cursor,
                _ => {}
            }
        }
        let bound = |(v, inclusive): (&Value, bool)| {
            let key = SortKey(vec![v.clone()]);
            if inclusive {
                Bound::Included(key)
            } else {
                Bound::Excluded(key)
            }
        };
        let start = match lower {
            Some(b) => bound(b),
            None if include_null_keys => Bound::Unbounded,
            // NULL sorts before every non-NULL value, so excluding the
            // NULL key is the same as starting just past it.
            None => Bound::Excluded(SortKey(vec![Value::Null])),
        };
        let end = upper.map_or(Bound::Unbounded, bound);
        cursor.keys = Some(index.map.range((start, end)));
        cursor
    }

    /// An empty walk over `index` under `snap`.
    fn index_cursor<'t, 's>(&'t self, snap: &'s Snapshot, index: &'t Index) -> IndexCursor<'t, 's> {
        IndexCursor {
            rows: &self.rows,
            index,
            snap,
            keys: None,
            rev: false,
            current: None,
            tally: self.tally(),
        }
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
    /// enforcing unique indexes. Returns its id and the installed version
    /// (shared with the chain).
    pub fn insert(&mut self, snap: &Snapshot, row: Row) -> SqlResult<(RowId, StoredRow)> {
        let row = self.normalize_row(row)?;
        self.check_unique(&row, None, |_| false)?;
        let id = self.next_row_id;
        self.next_row_id += 1;
        for idx in &mut self.indexes {
            idx.add_entry(&row, id);
        }
        let row = StoredRow::from(row);
        self.rows
            .insert(id, Chain::single(Arc::clone(&snap.stamp), Arc::clone(&row)));
        self.live += 1;
        Ok((id, row))
    }

    /// Re-insert a row under a specific id (redo of insert, undo of
    /// delete, checkpoint reload). Physical: replaces the whole chain
    /// with one bootstrap-stamped version.
    pub fn restore(&mut self, id: RowId, row: Row) {
        self.drop_chain_entries(id);
        self.garbage.remove(&id);
        for idx in &mut self.indexes {
            idx.add_entry(&row, id);
        }
        self.next_row_id = self.next_row_id.max(id + 1);
        let old = (self.rows).insert(id, Chain::single(bootstrap_stamp(), row.into()));
        if !old.is_some_and(|c| c.top_is_live()) {
            self.live += 1;
        }
    }

    /// Remove every retained version's index entries for `id` (prelude
    /// to physically replacing the chain).
    fn drop_chain_entries(&mut self, id: RowId) {
        let Some(chain) = self.rows.get(id) else {
            return;
        };
        for v in chain.iter() {
            if let Some(r) = &v.row {
                for idx in &mut self.indexes {
                    let key = idx.key_of(r);
                    idx.remove_entry(&key, id);
                }
            }
        }
    }

    /// Replace the row at `id` visible to `snap`. Returns that row, the
    /// superseded version itself, and the installed version (both
    /// shared, not copied). The new version is
    /// stamped with `snap`'s stamp; the old one stays for concurrent
    /// readers until a trim or GC sweep drops it.
    ///
    /// When the visible version is the chain's newest, an index whose key
    /// columns the update leaves equal is left alone: the newest version
    /// already holds that key's entry and passed its unique check, and no
    /// other chain's newest version can hold the key. A newer version the
    /// snapshot cannot see (another writer's) voids that argument, so
    /// then every index is checked and entered as usual.
    pub fn update(
        &mut self,
        snap: &Snapshot,
        id: RowId,
        row: Row,
    ) -> SqlResult<(StoredRow, StoredRow)> {
        let row = self.normalize_row(row)?;
        let Some((old, newest)) = self.rows.get(id).and_then(|c| {
            let old = self.tally().resolve(snap, c)?;
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
        let chain = rows.get_mut(id).expect("chain exists: resolved above");
        for idx in indexes.iter_mut() {
            if !stable(idx) {
                idx.add_entry(&row, id);
            }
        }
        let was_live = chain.top_is_live();
        let row = StoredRow::from(row);
        chain.push(RowVersion {
            begin: Arc::clone(&snap.stamp),
            row: Some(Arc::clone(&row)),
        });
        if !was_live {
            *live += 1;
        }
        let gced = trim_chain(indexes, id, chain, floor);
        if gced > 0 {
            mvcc.counters.add(Counter::VersionsGced, gced);
        }
        track_garbage(garbage, id, chain);
        Ok((old, row))
    }

    /// Replace the row at `id` without constraint checks or normalization.
    /// Only for redo/undo application, where the restored state is
    /// known-valid. Physical: replaces the whole chain.
    pub fn raw_replace(&mut self, id: RowId, row: Row) {
        self.drop_chain_entries(id);
        self.garbage.remove(&id);
        for idx in &mut self.indexes {
            idx.add_entry(&row, id);
        }
        let old = (self.rows).insert(id, Chain::single(bootstrap_stamp(), row.into()));
        if !old.is_some_and(|c| c.top_is_live()) {
            self.live += 1;
        }
    }

    /// Physically remove the chain at `id` and every index entry of its
    /// versions (redo of delete, undo of insert). Leaves no tombstone.
    pub fn remove(&mut self, id: RowId) {
        self.drop_chain_entries(id);
        self.garbage.remove(&id);
        if self.rows.remove(id).is_some_and(|c| c.top_is_live()) {
            self.live -= 1;
        }
    }

    /// Delete the row at `id` visible to `snap`, returning it (shared,
    /// not copied). Pushes a tombstone stamped with `snap`'s stamp so
    /// concurrent snapshots keep reading the old version.
    pub fn delete(&mut self, snap: &Snapshot, id: RowId) -> SqlResult<StoredRow> {
        let Some(old) = self
            .rows
            .get(id)
            .and_then(|c| self.tally().resolve(snap, c))
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
        let chain = rows.get_mut(id).expect("chain exists: resolved above");
        let was_live = chain.top_is_live();
        chain.push(RowVersion {
            begin: Arc::clone(&snap.stamp),
            row: None,
        });
        if was_live {
            *live -= 1;
        }
        let gced = trim_chain(indexes, id, chain, floor);
        if gced > 0 {
            mvcc.counters.add(Counter::VersionsGced, gced);
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
        let Some(chain) = rows.get_mut(id) else {
            return;
        };
        let was_live = chain.top_is_live();
        let Some(pos) = chain.iter().rposition(|v| Arc::ptr_eq(&v.begin, stamp)) else {
            return;
        };
        let removed = if chain.len() > 1 {
            chain.remove(pos)
        } else {
            let Some(Chain::One(only)) = rows.remove(id) else {
                unreachable!("a one-version chain is inline");
            };
            only
        };
        let chain = rows.get(id);
        if let Some(r) = &removed.row {
            unindex_unless_retained(indexes, chain.map_or(&[], |c| c), id, r);
        }
        let now_live = chain.is_some_and(Chain::top_is_live);
        match chain {
            Some(c) => track_garbage(garbage, id, c),
            None => {
                garbage.remove(&id);
            }
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
            let Some(chain) = rows.get_mut(id) else {
                return false;
            };
            dropped += trim_chain(indexes, id, chain, floor);
            let dead = match &**chain {
                [only] if only.row.is_none() => {
                    let ts = only.committed_at();
                    ts != 0 && ts <= floor
                }
                _ => false,
            };
            if dead {
                rows.remove(id);
                dropped += 1;
                return false;
            }
            chain.is_garbage()
        });
        mvcc.counters.add(Counter::GcChainsVisited, visited);
        if dropped > 0 {
            mvcc.counters.add(Counter::VersionsGced, dropped);
        }
        dropped
    }

    /// Total retained versions across all chains (tombstones included) —
    /// test/diagnostic aid for GC behavior.
    pub fn version_count(&self) -> usize {
        self.rows.iter().map(|(_, c)| c.len()).sum()
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
                    && self.rows.get(id).is_some_and(|c| {
                        c.latest()
                            .is_some_and(|r| c.len() == 1 || idx.carries_key(r, &key))
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
        for (id, chain) in self.rows.iter() {
            if let Some(row) = chain.latest() {
                let key = idx.key_of(row);
                if unique && !Index::key_has_null(&key) && idx.map.contains_key(&key) {
                    return Err(SqlError::Constraint(format!(
                        "cannot create unique index '{}': duplicate existing keys",
                        idx.name
                    )));
                }
                idx.map.entry(key).or_default().insert(id);
            }
        }
        // Historical versions: index them too so snapshot readers keep
        // finding the rows they can see (no uniqueness constraint — only
        // the newest version constrains).
        for (id, chain) in self.rows.iter() {
            if chain.len() > 1 {
                for v in chain.iter() {
                    if let Some(r) = &v.row {
                        idx.map.entry(idx.key_of(r)).or_default().insert(id);
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
        garbage.extend(rows.iter().map(|(id, _)| id));
        self.gc_versions(floor)
    }

    /// Is the garbage list exactly the chains a sweep has work on?
    pub(crate) fn garbage_is_exact(&self) -> bool {
        self.rows
            .iter()
            .filter(|(_, c)| c.is_garbage())
            .map(|(id, _)| id)
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
        Table::new(schema, Default::default())
    }

    fn row(id: i64, name: &str, qty: i64) -> Row {
        vec![Value::Int(id), Value::text(name), Value::Int(qty)]
    }

    #[test]
    fn insert_and_get() {
        let s = Snapshot::committed();
        let mut t = table();
        let (id, _) = t.insert(&s, row(1, "a", 10)).unwrap();
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
        let (id, _) = t
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
        let (id, _) = t.insert(&s, row(1, "a", 10)).unwrap();
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
        let (a, _) = t.insert(&s, row(1, "a", 1)).unwrap();
        t.insert(&s, row(2, "b", 2)).unwrap();
        assert!(t.update(&s, a, row(2, "a", 1)).is_err());
        // a unchanged
        assert_eq!(t.get(a).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn update_same_key_allowed() {
        let s = Snapshot::committed();
        let mut t = table();
        let (a, _) = t.insert(&s, row(1, "a", 1)).unwrap();
        t.update(&s, a, row(1, "a2", 2)).unwrap();
        assert_eq!(t.get(a).unwrap()[1], Value::text("a2"));
    }

    #[test]
    fn delete_frees_key_and_restore_brings_back() {
        let s = Snapshot::committed();
        let mut t = table();
        let (id, _) = t.insert(&s, row(1, "a", 1)).unwrap();
        let old = t.delete(&s, id).unwrap();
        assert_eq!(t.len(), 0);
        t.restore(id, old.to_vec());
        assert_eq!(t.get(id).unwrap()[0], Value::Int(1));
        assert!(t.insert(&s, row(1, "again", 9)).is_err());
    }

    #[test]
    fn restore_bumps_next_row_id() {
        let s = Snapshot::committed();
        let mut t = table();
        let (id, _) = t.insert(&s, row(1, "a", 1)).unwrap();
        let old = t.delete(&s, id).unwrap();
        t.restore(id, old.to_vec());
        let (id2, _) = t.insert(&s, row(2, "b", 2)).unwrap();
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
        let mut t = Table::new(schema, Default::default());
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
        let mut t = Table::new(schema, Default::default());
        let (id, _) = t.insert(&s, vec![Value::Int(1), Value::Null]).unwrap();
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
        let (id, _) = t
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
        let (a, _) = t
            .insert(&s, vec![Value::Int(1), Value::Null, Value::Int(5)])
            .unwrap();
        let (b, _) = t
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
        let (id, _) = t.insert(&committed, row(1, "a", 10)).unwrap();
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
        let (id, _) = t.insert(&Snapshot::committed(), row(1, "a", 10)).unwrap(); // ts=1

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
        let (id, _) = t.insert(&Snapshot::committed(), row(1, "a", 10)).unwrap();
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
        let (a, _) = t.insert(&Snapshot::committed(), row(1, "a", 10)).unwrap();
        let (w, wstamp) = snap(5);
        let (b, _) = t.insert(&w, row(2, "b", 20)).unwrap();
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
    fn index_cursors_follow_visibility() {
        let mut t = table();
        let committed = Snapshot::committed();
        let (id, _) = t.insert(&committed, row(1, "a", 10)).unwrap();
        t.insert(&committed, row(2, "b", 20)).unwrap();
        t.create_index("t_name", &["name".into()], false).unwrap();

        let (w, wstamp) = snap(5);
        t.update(&w, id, row(1, "z", 11)).unwrap();
        wstamp.store(6, AtomicOrd::Release);

        // Old snapshot: sees the row under its old key, not the new one.
        let (old_r, _) = snap(5);
        let idx = t.find_index(&[1]).unwrap();
        let eq = |s: &Snapshot, k: &str| -> Vec<(RowId, &StoredRow)> {
            t.index_eq(s, idx, &SortKey(vec![Value::text(k)])).collect()
        };
        let a_hits = eq(&old_r, "a");
        assert_eq!(a_hits.len(), 1);
        assert_eq!(a_hits[0].1[2], Value::Int(10));
        assert!(eq(&old_r, "z").is_empty());
        // Range walk emits each visible row exactly once.
        let all = t.index_range(&old_r, idx, None, None, false, true);
        assert_eq!(all.count(), 2);

        // New snapshot: new key only.
        let (new_r, _) = snap(6);
        assert!(eq(&new_r, "a").is_empty());
        assert_eq!(eq(&new_r, "z").len(), 1);
        let all = t.index_range(&new_r, idx, None, None, false, true);
        assert_eq!(all.count(), 2);

        // A reverse walk stopped after one row ("z", a two-version
        // chain) counts that chain only; run out, it also resolves the
        // stale "a" entry of the same chain and skips it.
        let walked = || t.mvcc.counters.get(Counter::VersionChainsWalked);
        let before = walked();
        let mut rev = t.index_range(&new_r, idx, None, None, true, true);
        assert_eq!(rev.next().unwrap().1[1], Value::text("z"));
        drop(rev);
        assert_eq!(walked() - before, 1);
        let before = walked();
        assert_eq!(
            t.index_range(&new_r, idx, None, None, true, true).count(),
            2
        );
        assert_eq!(walked() - before, 2);
    }

    #[test]
    fn stale_index_entries_do_not_block_unique_inserts() {
        let mut t = table();
        let (id, _) = t.insert(&Snapshot::committed(), row(1, "a", 10)).unwrap();
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
        let (id, _) = t.insert(&Snapshot::committed(), row(1, "a", 0)).unwrap();
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
        let (id, _) = t.insert(&Snapshot::committed(), row(1, "a", 0)).unwrap();
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
        let (a, _) = t.insert(&committed, row(1, "a", 1)).unwrap();
        t.insert(&committed, row(2, "b", 2)).unwrap();
        t.remove(a);
        assert_eq!(t.len(), 1);
        assert_eq!(t.version_count(), 1);
        // Its key is free again.
        t.insert(&committed, row(1, "again", 3)).unwrap();
    }

    // ---- chunked row map vs a BTreeMap model ----

    /// The reference: every chain as a plain vector of versions in a
    /// `BTreeMap`, with the visibility, trim and sweep rules written
    /// out over it directly.
    #[derive(Default)]
    struct Model {
        chains: BTreeMap<RowId, Vec<(TxnStamp, Option<Row>)>>,
        next_row_id: RowId,
    }

    impl Model {
        fn visible(&self, snap: &Snapshot, id: RowId) -> Option<&Row> {
            let chain = self.chains.get(&id)?;
            let v = chain.iter().rev().find(|(stamp, _)| {
                let ts = stamp.load(AtomicOrd::Acquire);
                Arc::ptr_eq(stamp, &snap.stamp) || (ts != 0 && ts <= snap.ts)
            })?;
            v.1.as_ref()
        }

        fn trim(&mut self, id: RowId, floor: u64) -> u64 {
            let chain = self.chains.get_mut(&id).unwrap();
            let anchor = chain.iter().rposition(|(stamp, _)| {
                let ts = stamp.load(AtomicOrd::Acquire);
                ts != 0 && ts <= floor
            });
            let n = anchor.unwrap_or(0);
            chain.drain(..n);
            n as u64
        }

        fn push(&mut self, snap: &Snapshot, id: RowId, row: Option<Row>, floor: u64) {
            let chain = self.chains.get_mut(&id).unwrap();
            chain.push((Arc::clone(&snap.stamp), row));
            self.trim(id, floor);
        }

        fn gc(&mut self, floor: u64) -> u64 {
            let ids: Vec<RowId> = self.chains.keys().copied().collect();
            let mut dropped = 0;
            for id in ids {
                dropped += self.trim(id, floor);
                if let [(stamp, None)] = self.chains[&id].as_slice() {
                    let ts = stamp.load(AtomicOrd::Acquire);
                    if ts != 0 && ts <= floor {
                        self.chains.remove(&id);
                        dropped += 1;
                    }
                }
            }
            dropped
        }

        fn undo(&mut self, id: RowId, stamp: &TxnStamp) {
            let Some(chain) = self.chains.get_mut(&id) else {
                return;
            };
            if let Some(pos) = chain.iter().rposition(|(s, _)| Arc::ptr_eq(s, stamp)) {
                chain.remove(pos);
            }
            if chain.is_empty() {
                self.chains.remove(&id);
            }
        }

        fn live(&self) -> usize {
            let top_live = |c: &Vec<(TxnStamp, Option<Row>)>| c.last().unwrap().1.is_some();
            self.chains.values().filter(|c| top_live(c)).count()
        }
    }

    fn model_table() -> Table {
        let schema = TableSchema::new(
            "m",
            vec![
                Column::new("a", DataType::Int),
                Column::new("v", DataType::Int),
            ],
            false,
        )
        .unwrap();
        let mut t = Table::new(schema, Default::default());
        t.create_index("m_v", &["v".into()], false).unwrap();
        t
    }

    /// Everything a reader can observe, and the layout invariants: one
    /// version inline, two or more spilled; no empty chunk; each chunk's
    /// `used` counts its occupied slots.
    fn assert_matches_model(t: &Table, m: &Model, snaps: &[Snapshot], ctx: &str) {
        for snap in snaps {
            let got: Vec<(RowId, Row)> = t.iter(snap).map(|(id, r)| (id, r.to_vec())).collect();
            let want: Vec<(RowId, Row)> = (m.chains.keys())
                .filter_map(|&id| Some((id, m.visible(snap, id)?.clone())))
                .collect();
            assert_eq!(got, want, "{ctx}: walk at ts {}", snap.ts);
            for id in 0..=m.next_row_id {
                let got = t.get_visible(snap, id).map(|r| r.to_vec());
                assert_eq!(
                    got.as_ref(),
                    m.visible(snap, id),
                    "{ctx}: get_visible({id})"
                );
            }
            let idx = t.find_index(&[1]).unwrap();
            for v in 0..4 {
                let key = SortKey(vec![Value::Int(v)]);
                let got: Vec<RowId> = t.index_eq(snap, idx, &key).map(|(id, _)| id).collect();
                let want: Vec<RowId> = (want.iter())
                    .filter(|(_, r)| r[1] == Value::Int(v))
                    .map(|(id, _)| *id)
                    .collect();
                assert_eq!(got, want, "{ctx}: index_eq(v = {v}) at ts {}", snap.ts);
            }
        }
        let versions: usize = m.chains.values().map(Vec::len).sum();
        assert_eq!(t.version_count(), versions, "{ctx}: version_count");
        assert_eq!(t.len(), m.live(), "{ctx}: live rows");
        assert_eq!(t.next_row_id(), m.next_row_id, "{ctx}: next_row_id");
        assert!(t.garbage_is_exact(), "{ctx}: garbage list");
        for (id, chain) in t.rows.iter() {
            let inline = matches!(chain, Chain::One(_));
            assert_eq!(inline, chain.len() == 1, "{ctx}: chain {id} layout");
        }
        let chunks: BTreeSet<u64> = m.chains.keys().map(|&id| chunk_slot(id).0).collect();
        assert!(t.rows.chunks.keys().copied().eq(chunks), "{ctx}: chunks");
        for chunk in t.rows.chunks.values() {
            let used = chunk.slots.iter().filter(|s| s.is_some()).count();
            assert_eq!(chunk.used as usize, used, "{ctx}: chunk occupancy");
            assert!(chunk.slots.len() <= CHUNK_SLOTS, "{ctx}: chunk width");
        }
    }

    fn model_seeds() -> Vec<u64> {
        let mut seeds: Vec<u64> = (1..=8).collect();
        if let Some(seed) = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            seeds.push(seed);
        }
        seeds
    }

    /// Random histories of every chain operation, over ids that cross
    /// chunk boundaries, leave the chunked row map observably equal to a
    /// `BTreeMap` of version vectors after every step. `CHAOS_SEED` adds
    /// a history seed.
    #[test]
    fn chunked_chains_match_btreemap_model() {
        for seed in model_seeds() {
            let mut rng = crate::fault::SplitMix64::new(seed);
            let mut t = model_table();
            let shared = Arc::new(MvccShared::default());
            t.attach_mvcc(Arc::clone(&shared));
            let mut m = Model {
                next_row_id: 1,
                ..Model::default()
            };
            // Open transactions (snapshot + uncommitted stamp) and the
            // commit clock.
            let mut open: Vec<Snapshot> = Vec::new();
            let mut clock = 1u64;
            // Chunks whose last row went, as the model counts them.
            let mut freed = 0;
            for step in 0..600 {
                let ctx = format!("seed {seed} step {step}");
                let mut pick = |n: u64| rng.next_below(n);
                let cell = |n: u64| Value::Int(n as i64);
                // Half the time a row that exists, else any id near the
                // allocator, so writes miss too.
                let id = match m.chains.len() as u64 {
                    n if n > 0 && pick(2) == 0 => *m.chains.keys().nth(pick(n) as usize).unwrap(),
                    _ => pick(m.next_row_id + 8),
                };
                let writer = match open.len() {
                    0 => Snapshot::committed(),
                    n => open[pick(n as u64) as usize].clone(),
                };
                let floor = match pick(3) {
                    0 => clock.saturating_sub(pick(4)),
                    _ => u64::MAX,
                };
                shared.floor.store(floor, AtomicOrd::Release);
                let chunks_before: BTreeSet<u64> =
                    m.chains.keys().map(|&id| chunk_slot(id).0).collect();
                match pick(20) {
                    0..=3 => {
                        let r = vec![cell(pick(100)), cell(pick(4))];
                        let (got, _) = t.insert(&writer, r.clone()).unwrap();
                        assert_eq!(got, m.next_row_id, "{ctx}: insert id");
                        m.chains
                            .insert(got, vec![(Arc::clone(&writer.stamp), Some(r))]);
                        m.next_row_id += 1;
                    }
                    4..=6 => {
                        let r = vec![cell(pick(100)), cell(pick(4))];
                        let ok = t.update(&writer, id, r.clone()).is_ok();
                        assert_eq!(ok, m.visible(&writer, id).is_some(), "{ctx}: update");
                        if ok {
                            m.push(&writer, id, Some(r), floor);
                        }
                    }
                    7 | 8 => {
                        let ok = t.delete(&writer, id).is_ok();
                        assert_eq!(ok, m.visible(&writer, id).is_some(), "{ctx}: delete");
                        if ok {
                            m.push(&writer, id, None, floor);
                        }
                    }
                    9 => {
                        t.undo_write(id, &writer.stamp);
                        m.undo(id, &writer.stamp);
                    }
                    10 => {
                        // Sometimes a chunk or two past the allocator.
                        let id = match pick(4) {
                            0 => m.next_row_id + pick(2 * CHUNK_SLOTS as u64),
                            _ => id,
                        };
                        let r = vec![cell(pick(100)), cell(pick(4))];
                        t.restore(id, r.clone());
                        m.chains.insert(id, vec![(bootstrap_stamp(), Some(r))]);
                        m.next_row_id = m.next_row_id.max(id + 1);
                    }
                    11..=13 => {
                        // The sliding-window purge: the oldest row goes.
                        if let Some(&oldest) = m.chains.keys().next() {
                            t.remove(oldest);
                            m.chains.remove(&oldest);
                        }
                    }
                    14 | 15 => {
                        let floor = open.iter().map(|s| s.ts).min().unwrap_or(u64::MAX);
                        assert_eq!(t.gc_versions(floor), m.gc(floor), "{ctx}: gc");
                    }
                    16 | 17 => {
                        open.push(Snapshot {
                            ts: clock,
                            stamp: new_stamp(),
                        });
                    }
                    _ => {
                        if let Some(done) = open.pop() {
                            clock += 1;
                            done.stamp.store(clock, AtomicOrd::Release);
                        }
                    }
                }
                let chunks: BTreeSet<u64> = m.chains.keys().map(|&id| chunk_slot(id).0).collect();
                freed += chunks_before.difference(&chunks).count();
                let mut snaps = vec![Snapshot::committed(), snap(clock / 2).0];
                snaps.extend(open.iter().cloned());
                assert_matches_model(&t, &m, &snaps, &ctx);
            }
            assert!(
                m.next_row_id > 2 * CHUNK_SLOTS as u64,
                "seed {seed}: ids span chunks"
            );
            assert!(freed > 0, "seed {seed}: no chunk emptied");
        }
    }

    /// A chain a sweep shortens to one version is inline again, and a
    /// chunk whose last row goes is freed.
    #[test]
    fn swept_chains_go_inline_and_empty_chunks_are_freed() {
        let mut t = model_table();
        let committed = Snapshot::committed();
        let ids: Vec<RowId> = (0..CHUNK_SLOTS as i64 + 2)
            .map(|i| {
                t.insert(&committed, vec![Value::Int(i), Value::Int(0)])
                    .unwrap()
                    .0
            })
            .collect();
        assert_eq!(t.rows.chunk_count(), 2);
        let (w, wstamp) = snap(5);
        t.update(&w, ids[0], vec![Value::Int(-1), Value::Int(1)])
            .unwrap();
        assert!(matches!(t.rows.get(ids[0]), Some(Chain::Many(_))));
        wstamp.store(6, AtomicOrd::Release);
        assert_eq!(t.gc_versions(u64::MAX), 1);
        assert!(matches!(t.rows.get(ids[0]), Some(Chain::One(_))));
        // Ids 1..=63 fill chunk 0; deleting them all frees it.
        let first_chunk: Vec<RowId> = ids.iter().copied().filter(|&id| id < 64).collect();
        for &id in &first_chunk {
            t.delete(&committed, id).unwrap();
        }
        t.gc_versions(u64::MAX);
        assert_eq!(t.rows.chunk_count(), 1);
        assert_eq!(t.len(), ids.len() - first_chunk.len());
        for &id in &ids[first_chunk.len()..] {
            t.remove(id);
        }
        assert_eq!(t.rows.chunk_count(), 0);
    }
}
