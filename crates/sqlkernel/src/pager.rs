//! Page stores, the fault-injected pager, and the paged heap-file
//! engine behind [`crate::Database::open_paged`].
//!
//! ## Layering
//!
//! ```text
//! PagedEngine        epochs, directory, checkpoint, torn-page repair
//!   └─ BufferPool    clock eviction, pinning, steal/no-force writeback
//!        └─ Pager    seeded disk faults (PageFault) applied per I/O
//!             └─ PageStore   MemPageStore / FilePageStore
//! ```
//!
//! ## On-disk layout (ping-pong metadata)
//!
//! Pages 0 and 1 are the two metadata slots. A checkpoint writes a
//! complete new *page epoch* — data pages for dirty tables, then
//! directory pages, then one metadata page into the slot the previous
//! epoch did **not** use (`epoch % 2`) — each stage synced before the
//! next. The metadata write is the atomic flip: a crash anywhere before
//! it leaves the old slot's epoch fully intact, and a torn metadata
//! write corrupts only the slot being written, so open always finds a
//! checksum-valid epoch to fall back to.
//!
//! New pages are allocated outside the live-page sets of the **two**
//! newest epochs, and the WAL keeps every record after the *previous*
//! anchor. That two-window retention is what makes torn-page repair
//! possible: a checksum-failing page in the current epoch is rebuilt
//! from the previous epoch's image of its table plus the committed WAL
//! ops between the two anchors — instead of failing the whole database.
//!
//! ## WAL ordering
//!
//! Checkpoints are quiesced (no open or prepared transactions), so the
//! anchor LSN is a clean point: every transaction on or before it is
//! terminated. Dirty pages are stamped with the anchor LSN and the
//! buffer pool refuses to write any page whose LSN is past the WAL's
//! flush point — write-ahead, enforced rather than assumed.

use std::collections::HashSet;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bufferpool::BufferPool;
use crate::catalog::{Catalog, Sequence};
use crate::error::{SqlError, SqlResult};
use crate::fault::{crashed_error, FaultInjector, PageFault};
use crate::page::{pack_stream, PageBuilder, PageKind, PageView, StreamPacker, PAGE_SIZE};
use crate::schema::TableSchema;
use crate::storage::{Row, RowId};
use crate::sync::Mutex;
use crate::wal::{self, Frames, IndexDef, Reader, ScannedLog, TableImage, WalOp, WalRecord};

// ---------------------------------------------------------------- stores

/// Where page bytes live. `write_page` accepts a *prefix* of a page
/// (≤ [`PAGE_SIZE`] bytes, written at the page's start, leaving whatever
/// was beyond it untouched) — that is the physical primitive torn and
/// partial writes are modelled with. Reads always return a full page;
/// space never written reads as zeros, exactly like a sparse file.
pub trait PageStore: std::fmt::Debug + Send + Sync {
    /// Read page `page_no` ([`PAGE_SIZE`] bytes).
    fn read_page(&self, page_no: u64) -> SqlResult<Vec<u8>>;
    /// Write `bytes` (≤ [`PAGE_SIZE`]) at the start of page `page_no`.
    fn write_page(&self, page_no: u64, bytes: &[u8]) -> SqlResult<()>;
    /// Make every prior write durable.
    fn sync(&self) -> SqlResult<()>;
    /// Number of (possibly partial) pages the store currently holds.
    fn page_count(&self) -> SqlResult<u64>;
}

fn page_io_err(e: std::io::Error) -> SqlError {
    // Same policy as the WAL's store: disk trouble (ENOSPC, EIO) is
    // environmental and retryable, not a logic bug.
    SqlError::Transient(format!("page io: {e}"))
}

fn oversized(len: usize) -> SqlError {
    SqlError::Runtime(format!(
        "page store: write of {len} bytes exceeds page size"
    ))
}

/// In-memory page store. Clones share the same buffer (mirroring
/// [`crate::MemLogStore`]), so a test can keep a handle to the "disk"
/// across simulated process crashes — and reach past the pager to plant
/// at-rest corruption. Each page keeps its own buffer (the bytes written
/// to it so far), so growing the store never re-copies it.
#[derive(Debug, Clone, Default)]
pub struct MemPageStore {
    disk: Arc<Mutex<MemDisk>>,
}

#[derive(Debug, Default)]
struct MemDisk {
    /// Per page, its bytes up to the furthest one written (empty =
    /// never written); missing bytes read as zeros.
    pages: Vec<Vec<u8>>,
    /// Furthest byte offset ever written, as a flat file would report it.
    len: usize,
}

impl MemPageStore {
    /// Fresh, empty store.
    pub fn new() -> MemPageStore {
        MemPageStore::default()
    }

    /// Total bytes written so far (partial tail pages included).
    pub fn len(&self) -> usize {
        self.disk.lock().len
    }

    /// Is the store untouched?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flip one bit of a stored page in place — at-rest corruption, as a
    /// decaying disk would produce it. No-op past the end of the store.
    pub fn flip_bit(&self, page_no: u64, bit: usize) {
        let mut disk = self.disk.lock();
        let at = bit / 8;
        if page_no as usize * PAGE_SIZE + at >= disk.len {
            return;
        }
        let page = disk.page_mut(page_no, at + 1);
        page[at] ^= 1 << (bit % 8);
    }
}

impl MemDisk {
    /// Page `page_no`'s buffer, zero-extended to at least `len` bytes.
    fn page_mut(&mut self, page_no: u64, len: usize) -> &mut Vec<u8> {
        let no = page_no as usize;
        if self.pages.len() <= no {
            self.pages.resize_with(no + 1, Vec::new);
        }
        let page = &mut self.pages[no];
        if page.len() < len {
            page.resize(len, 0);
        }
        page
    }
}

impl PageStore for MemPageStore {
    fn read_page(&self, page_no: u64) -> SqlResult<Vec<u8>> {
        let disk = self.disk.lock();
        let mut out = vec![0u8; PAGE_SIZE];
        if let Some(page) = disk.pages.get(page_no as usize) {
            out[..page.len()].copy_from_slice(page);
        }
        Ok(out)
    }

    fn write_page(&self, page_no: u64, bytes: &[u8]) -> SqlResult<()> {
        if bytes.len() > PAGE_SIZE {
            return Err(oversized(bytes.len()));
        }
        let mut disk = self.disk.lock();
        disk.page_mut(page_no, bytes.len())[..bytes.len()].copy_from_slice(bytes);
        disk.len = disk.len.max(page_no as usize * PAGE_SIZE + bytes.len());
        Ok(())
    }

    fn sync(&self) -> SqlResult<()> {
        Ok(())
    }

    fn page_count(&self) -> SqlResult<u64> {
        Ok(self.len().div_ceil(PAGE_SIZE) as u64)
    }
}

/// File-backed page store. Plain positioned I/O through a fresh handle
/// per call (portable; the engine's access pattern is checkpoint-batched
/// so handle reuse would buy nothing), `sync_data` on [`PageStore::sync`].
#[derive(Debug)]
pub struct FilePageStore {
    path: std::path::PathBuf,
}

impl FilePageStore {
    /// Store backed by the given path (created on first write).
    pub fn new(path: impl Into<std::path::PathBuf>) -> FilePageStore {
        FilePageStore { path: path.into() }
    }

    /// The backing path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl PageStore for FilePageStore {
    fn read_page(&self, page_no: u64) -> SqlResult<Vec<u8>> {
        let mut out = vec![0u8; PAGE_SIZE];
        let mut f = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(page_io_err(e)),
        };
        f.seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))
            .map_err(page_io_err)?;
        let mut filled = 0usize;
        while filled < PAGE_SIZE {
            match f.read(&mut out[filled..]).map_err(page_io_err)? {
                0 => break, // EOF: the rest stays zeroed
                n => filled += n,
            }
        }
        Ok(out)
    }

    fn write_page(&self, page_no: u64, bytes: &[u8]) -> SqlResult<()> {
        if bytes.len() > PAGE_SIZE {
            return Err(oversized(bytes.len()));
        }
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.path)
            .map_err(page_io_err)?;
        f.seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))
            .map_err(page_io_err)?;
        f.write_all(bytes).map_err(page_io_err)
    }

    fn sync(&self) -> SqlResult<()> {
        match std::fs::File::open(&self.path) {
            Ok(f) => f.sync_data().map_err(page_io_err),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(page_io_err(e)),
        }
    }

    fn page_count(&self) -> SqlResult<u64> {
        match std::fs::metadata(&self.path) {
            Ok(m) => Ok(m.len().div_ceil(PAGE_SIZE as u64)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(page_io_err(e)),
        }
    }
}

// ----------------------------------------------------------------- pager

/// The fault-application layer between the buffer pool and a
/// [`PageStore`]. Every read and write consults the installed
/// [`FaultInjector`] (if any) and applies whichever scripted
/// [`PageFault`] is due at this I/O index — the page-level analogue of
/// the statement-level fault gate in `db.rs`.
#[derive(Debug)]
pub struct Pager {
    store: Arc<dyn PageStore>,
    injector: Mutex<Option<Arc<FaultInjector>>>,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl Pager {
    /// Pager over `store`, with no faults installed.
    pub fn new(store: Arc<dyn PageStore>) -> Pager {
        Pager {
            store,
            injector: Mutex::new(None),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> Arc<dyn PageStore> {
        Arc::clone(&self.store)
    }

    /// Install (or clear) the fault injector page I/O runs through.
    pub fn set_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.injector.lock() = injector;
    }

    /// Page reads issued (faulted ones included).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Page writes issued (faulted ones included).
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Read one page, applying any scripted read fault due at this index.
    pub fn read_page(&self, page_no: u64) -> SqlResult<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let injector = self.injector.lock().clone();
        if let Some(inj) = &injector {
            if inj.frozen() {
                return Err(crashed_error());
            }
            if let Some(fired) = inj.on_page_read() {
                match fired.fault {
                    PageFault::IoError => {
                        inj.note_injected();
                        return Err(SqlError::Transient(format!(
                            "page io: injected read error on page {page_no}"
                        )));
                    }
                    PageFault::SlowIo { ticks } => {
                        inj.advance_ticks(ticks);
                        inj.note_injected();
                    }
                    PageFault::ReadBitFlip => {
                        inj.note_injected();
                        let mut bytes = self.store.read_page(page_no)?;
                        let bit = fired.draw as usize % (bytes.len() * 8).max(1);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                        return Ok(bytes);
                    }
                    // Write-side faults scheduled on the read index are
                    // consumed without effect.
                    PageFault::TornWrite | PageFault::PartialWrite => {}
                }
            }
        }
        self.store.read_page(page_no)
    }

    /// Write one page, applying any scripted write fault due at this
    /// index.
    pub fn write_page(&self, page_no: u64, bytes: &[u8]) -> SqlResult<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        let injector = self.injector.lock().clone();
        if let Some(inj) = &injector {
            if inj.frozen() {
                return Err(crashed_error());
            }
            if let Some(fired) = inj.on_page_write() {
                match fired.fault {
                    PageFault::TornWrite => {
                        // Half the page lands, then the process dies.
                        let cut = (bytes.len() / 2).max(1).min(bytes.len());
                        let _ = self.store.write_page(page_no, &bytes[..cut]);
                        inj.deliver_crash();
                        return Err(crashed_error());
                    }
                    PageFault::PartialWrite => {
                        // Half the page lands and the write *reports
                        // success* — latent corruption the checksum must
                        // catch at next read.
                        inj.note_injected();
                        let cut = (bytes.len() / 2).max(1).min(bytes.len());
                        return self.store.write_page(page_no, &bytes[..cut]);
                    }
                    PageFault::ReadBitFlip => {
                        // On the write side: one bit decays at rest.
                        inj.note_injected();
                        let mut corrupted = bytes.to_vec();
                        let bit = fired.draw as usize % (corrupted.len() * 8).max(1);
                        corrupted[bit / 8] ^= 1 << (bit % 8);
                        return self.store.write_page(page_no, &corrupted);
                    }
                    PageFault::IoError => {
                        inj.note_injected();
                        return Err(SqlError::Transient(format!(
                            "page io: injected write error on page {page_no}"
                        )));
                    }
                    PageFault::SlowIo { ticks } => {
                        inj.advance_ticks(ticks);
                        inj.note_injected();
                    }
                }
            }
        }
        self.store.write_page(page_no, bytes)
    }

    /// Sync the store (refused once the injector has delivered a crash).
    pub fn sync(&self) -> SqlResult<()> {
        if let Some(inj) = self.injector.lock().as_ref() {
            if inj.frozen() {
                return Err(crashed_error());
            }
        }
        self.store.sync()
    }
}

// ---------------------------------------------------------------- codecs

fn corrupt(detail: impl Into<String>) -> SqlError {
    SqlError::Runtime(format!("paged: {}", detail.into()))
}

/// Decode a table's data-page stream: a row count, then `(row id, row)`
/// pairs (written by [`PagedEngine::checkpoint`]).
fn decode_rows(bytes: &[u8]) -> SqlResult<Vec<(RowId, Row)>> {
    let mut r = Reader::new(bytes);
    let n = r.u32()? as usize;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u64()?;
        rows.push((id, r.row()?));
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after row stream"));
    }
    Ok(rows)
}

/// One table's entry in an epoch's directory: everything needed to
/// rebuild its [`TableImage`] except the row bytes, plus the pages that
/// hold them.
#[derive(Debug, Clone)]
struct TableEntry {
    schema: TableSchema,
    next_row_id: RowId,
    indexes: Vec<IndexDef>,
    /// Exact byte length of the packed row stream.
    stream_len: u64,
    /// Data pages, in stream order.
    pages: Vec<u64>,
}

fn encode_dir(entries: &[TableEntry]) -> Vec<u8> {
    let mut buf = Vec::new();
    wal::put_u32(&mut buf, entries.len() as u32);
    for e in entries {
        wal::put_schema(&mut buf, &e.schema);
        wal::put_u64(&mut buf, e.next_row_id);
        wal::put_u32(&mut buf, e.indexes.len() as u32);
        for def in &e.indexes {
            wal::put_index_def(&mut buf, def);
        }
        wal::put_u64(&mut buf, e.stream_len);
        wal::put_u32(&mut buf, e.pages.len() as u32);
        for &p in &e.pages {
            wal::put_u64(&mut buf, p);
        }
    }
    buf
}

fn decode_dir(bytes: &[u8]) -> SqlResult<Vec<TableEntry>> {
    let mut r = Reader::new(bytes);
    let n = r.u32()? as usize;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let schema = r.schema()?;
        let next_row_id = r.u64()?;
        let n_idx = r.u32()? as usize;
        let mut indexes = Vec::with_capacity(n_idx);
        for _ in 0..n_idx {
            indexes.push(r.index_def()?);
        }
        let stream_len = r.u64()?;
        let n_pages = r.u32()? as usize;
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            pages.push(r.u64()?);
        }
        entries.push(TableEntry {
            schema,
            next_row_id,
            indexes,
            stream_len,
            pages,
        });
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after directory"));
    }
    Ok(entries)
}

/// One epoch's metadata cell: where its directory lives and which WAL
/// position (`anchor_lsn`) its page images are consistent with.
#[derive(Debug, Clone)]
struct Meta {
    page_epoch: u64,
    catalog_epoch: u64,
    anchor_lsn: u64,
    /// `(name, current, increment)` per sequence, sorted by name.
    sequences: Vec<(String, i64, i64)>,
    dir_stream_len: u64,
    dir_pages: Vec<u64>,
}

fn encode_meta_page(meta: &Meta, slot: u64) -> SqlResult<Vec<u8>> {
    let mut cell = Vec::new();
    wal::put_u64(&mut cell, meta.page_epoch);
    wal::put_u64(&mut cell, meta.catalog_epoch);
    wal::put_u64(&mut cell, meta.anchor_lsn);
    wal::put_sequences(&mut cell, &meta.sequences);
    wal::put_u64(&mut cell, meta.dir_stream_len);
    wal::put_u32(&mut cell, meta.dir_pages.len() as u32);
    for &p in &meta.dir_pages {
        wal::put_u64(&mut cell, p);
    }
    let mut builder = PageBuilder::new(PageKind::Meta, slot);
    if !builder.try_push(&cell) {
        return Err(corrupt("checkpoint metadata exceeds one page"));
    }
    Ok(builder.finalize(meta.page_epoch, meta.anchor_lsn))
}

fn decode_meta_page(bytes: &[u8], slot: u64) -> SqlResult<Meta> {
    let view = PageView::parse(bytes)?;
    if view.kind() != PageKind::Meta {
        return Err(corrupt(format!("slot {slot} is not a metadata page")));
    }
    if view.page_no() != slot {
        return Err(corrupt(format!(
            "metadata page stamped {} read from slot {slot}",
            view.page_no()
        )));
    }
    if view.cell_count() != 1 {
        return Err(corrupt("metadata page must hold exactly one cell"));
    }
    let mut r = Reader::new(view.cell(0));
    let page_epoch = r.u64()?;
    let catalog_epoch = r.u64()?;
    let anchor_lsn = r.u64()?;
    let sequences = r.sequences()?;
    let dir_stream_len = r.u64()?;
    let n = r.u32()? as usize;
    let mut dir_pages = Vec::with_capacity(n);
    for _ in 0..n {
        dir_pages.push(r.u64()?);
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after metadata cell"));
    }
    Ok(Meta {
        page_epoch,
        catalog_epoch,
        anchor_lsn,
        sequences,
        dir_stream_len,
        dir_pages,
    })
}

// ---------------------------------------------------------------- engine

/// The table touched by a redo op, if any (sequence ops touch none).
fn op_table(op: &WalOp) -> Option<&str> {
    match op {
        WalOp::Insert { table, .. }
        | WalOp::Update { table, .. }
        | WalOp::Delete { table, .. }
        | WalOp::CreateIndex { table, .. }
        | WalOp::DropIndex { table, .. } => Some(table),
        WalOp::CreateTable { schema } => Some(&schema.name),
        WalOp::DropTable { image } => Some(&image.schema.name),
        WalOp::CreateSequence { .. } | WalOp::DropSequence { .. } => None,
    }
}

/// Lowercased names of tables touched by ops after `after_lsn` — the
/// dirty set an incremental checkpoint must rewrite. Derived from the
/// WAL tail instead of hot-path instrumentation: every mutation is
/// logged anyway, so the log *is* the dirty tracking.
pub fn dirty_tables(scanned: &ScannedLog, after_lsn: u64) -> HashSet<String> {
    let mut out = HashSet::new();
    for (lsn, rec) in &scanned.records {
        note_dirty(&mut out, *lsn, rec, after_lsn);
    }
    out
}

/// [`dirty_tables`] straight from raw log bytes: frames are decoded one
/// at a time (same checksum and stop rule as [`wal::scan`]) and dropped
/// once their table name is noted, so the checkpoint never holds the
/// decoded log.
pub fn log_dirty_tables(log: &[u8], after_lsn: u64) -> HashSet<String> {
    let mut out = HashSet::new();
    for (lsn, rec) in Frames::new(log) {
        note_dirty(&mut out, lsn, &rec, after_lsn);
    }
    out
}

fn note_dirty(out: &mut HashSet<String>, lsn: u64, rec: &WalRecord, after_lsn: u64) {
    if lsn <= after_lsn {
        return;
    }
    if let WalRecord::Op { op, .. } = rec {
        if let Some(t) = op_table(op) {
            out.insert(t.to_lowercase());
        }
    }
}

/// Page-number allocator for one checkpoint: monotone from 2, skipping
/// every page the two newest epochs still reference.
struct PageAlloc {
    forbidden: HashSet<u64>,
    next: u64,
}

impl PageAlloc {
    fn next_page(&mut self) -> u64 {
        while self.forbidden.contains(&self.next) {
            self.next += 1;
        }
        let n = self.next;
        self.next += 1;
        n
    }
}

#[derive(Debug, Clone)]
struct Epoch {
    meta: Meta,
    dir: Vec<TableEntry>,
}

#[derive(Debug, Default)]
struct EngineState {
    /// Newest durable epoch (`None` = fresh store, nothing checkpointed).
    cur: Option<Epoch>,
    /// The epoch before it — the repair fallback.
    prev: Option<Epoch>,
    /// Lowercased names of tables rebuilt by repair since the last
    /// checkpoint: force-dirty, so the next checkpoint rewrites their
    /// extents from the healthy in-memory image.
    repaired: HashSet<String>,
}

/// The paged storage engine: owns the buffer pool and the epoch state,
/// loads the base catalog at open (repairing corrupt pages), and writes
/// incremental checkpoints.
#[derive(Debug)]
pub struct PagedEngine {
    pool: BufferPool,
    state: Mutex<EngineState>,
    pages_repaired: AtomicU64,
}

/// What [`PagedEngine::load_base`] recovered from the page store: the
/// catalog image at the newest intact anchor, ready for
/// [`wal::replay_onto`] to roll the WAL tail forward over.
#[derive(Debug)]
pub struct BaseLoad {
    pub catalog: Catalog,
    /// Catalog epoch at the anchor (floor for the replayed epoch).
    pub catalog_epoch: u64,
    /// WAL position the images are consistent with; replay starts here.
    pub anchor_lsn: u64,
}

impl PagedEngine {
    /// Open a page store: read both metadata slots, adopt the newest
    /// checksum-valid epoch, and keep the one before it for repair. A
    /// corrupt *directory* in the newest epoch rolls the whole store
    /// back one epoch (the WAL tail re-derives everything since); both
    /// slots corrupt on a non-empty store is fatal.
    pub fn open(store: Arc<dyn PageStore>, pool_pages: usize) -> SqlResult<PagedEngine> {
        let fresh = store.page_count()? == 0;
        let engine = PagedEngine {
            pool: BufferPool::new(Pager::new(store), pool_pages),
            state: Mutex::new(EngineState::default()),
            pages_repaired: AtomicU64::new(0),
        };
        let mut metas = Vec::new();
        for slot in 0..2u64 {
            if let Ok(bytes) = engine.pool.get(slot) {
                if let Ok(meta) = decode_meta_page(&bytes, slot) {
                    metas.push(meta);
                }
            }
        }
        if metas.is_empty() {
            if fresh {
                return Ok(engine);
            }
            return Err(corrupt(
                "both metadata slots corrupt — no consistent epoch to open",
            ));
        }
        metas.sort_by_key(|m| m.page_epoch);
        let cur_meta = metas.pop().expect("non-empty");
        let prev = metas.pop().and_then(|m| {
            // Best-effort: a broken previous epoch only disables repair.
            engine.load_dir(&m).ok().map(|dir| Epoch { meta: m, dir })
        });
        {
            let mut st = engine.state.lock();
            match engine.load_dir(&cur_meta) {
                Ok(dir) => {
                    st.cur = Some(Epoch {
                        meta: cur_meta,
                        dir,
                    });
                    st.prev = prev;
                }
                Err(e) => {
                    // The newest epoch's directory is unreadable: fall
                    // back to the previous epoch wholesale. Its tables
                    // are all marked repaired so the next checkpoint
                    // rewrites every extent.
                    let Some(p) = prev else {
                        return Err(corrupt(format!(
                            "epoch {} directory corrupt and no previous epoch survives: {e}",
                            cur_meta.page_epoch
                        )));
                    };
                    let bad = cur_meta
                        .dir_pages
                        .iter()
                        .filter(|&&no| !engine.page_ok(PageKind::Directory, no))
                        .count()
                        .max(1);
                    engine
                        .pages_repaired
                        .fetch_add(bad as u64, Ordering::Relaxed);
                    st.repaired = p.dir.iter().map(|t| t.schema.name.to_lowercase()).collect();
                    st.cur = Some(p);
                    st.prev = None;
                }
            }
        }
        Ok(engine)
    }

    /// The buffer pool (stats and flush-LSN live there).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Install (or clear) the fault injector on the underlying pager.
    pub fn set_injector(&self, injector: Option<Arc<FaultInjector>>) {
        self.pool.pager().set_injector(injector);
    }

    /// Pages detected corrupt and rebuilt (directory rollbacks included).
    pub fn pages_repaired(&self) -> u64 {
        self.pages_repaired.load(Ordering::Relaxed)
    }

    /// Anchor LSN of the current epoch (0 if nothing checkpointed yet).
    pub fn anchor(&self) -> u64 {
        self.state
            .lock()
            .cur
            .as_ref()
            .map_or(0, |e| e.meta.anchor_lsn)
    }

    /// Page epoch of the current checkpoint (0 = fresh store).
    pub fn page_epoch(&self) -> u64 {
        self.state
            .lock()
            .cur
            .as_ref()
            .map_or(0, |e| e.meta.page_epoch)
    }

    /// WAL position log truncation must preserve records *after*: the
    /// previous epoch's anchor, so the repair window stays on the log.
    pub fn retain_after(&self) -> u64 {
        self.state
            .lock()
            .prev
            .as_ref()
            .map_or(0, |e| e.meta.anchor_lsn)
    }

    fn page_ok(&self, kind: PageKind, page_no: u64) -> bool {
        self.pool.get(page_no).is_ok_and(|bytes| {
            PageView::parse(&bytes).is_ok_and(|v| v.kind() == kind && v.page_no() == page_no)
        })
    }

    /// Read and reassemble one packed stream, verifying every page.
    fn read_stream(&self, kind: PageKind, pages: &[u64], stream_len: u64) -> SqlResult<Vec<u8>> {
        let mut out = Vec::with_capacity(stream_len as usize);
        for &no in pages {
            let bytes = self.pool.get(no)?;
            let view = PageView::parse(&bytes)?;
            if view.kind() != kind {
                return Err(corrupt(format!(
                    "page {no}: expected {kind:?}, found {:?}",
                    view.kind()
                )));
            }
            if view.page_no() != no {
                return Err(corrupt(format!(
                    "page stamped {} read from slot {no} (misdirected write)",
                    view.page_no()
                )));
            }
            view.concat_cells(&mut out);
        }
        if out.len() as u64 != stream_len {
            return Err(corrupt(format!(
                "stream reassembled to {} bytes, directory says {stream_len}",
                out.len()
            )));
        }
        Ok(out)
    }

    fn load_dir(&self, meta: &Meta) -> SqlResult<Vec<TableEntry>> {
        let stream = self.read_stream(PageKind::Directory, &meta.dir_pages, meta.dir_stream_len)?;
        decode_dir(&stream)
    }

    fn table_image(&self, entry: &TableEntry) -> SqlResult<TableImage> {
        let stream = self.read_stream(PageKind::Data, &entry.pages, entry.stream_len)?;
        Ok(TableImage {
            schema: entry.schema.clone(),
            next_row_id: entry.next_row_id,
            rows: decode_rows(&stream)?,
            indexes: entry.indexes.clone(),
        })
    }

    /// Rebuild one corrupt table: previous epoch's image + the committed
    /// WAL ops between the two anchors, replayed on a scratch catalog.
    /// Every transaction in that window is terminated (checkpoints are
    /// quiesced), so "committed" is decidable from the log alone, and
    /// redo after-images are absolute — replaying only committed ops in
    /// LSN order reproduces the anchor state exactly.
    fn repair_table(
        &self,
        entry: &TableEntry,
        prev: Option<&Epoch>,
        cur_epoch: u64,
        cur_anchor: u64,
        scanned: &ScannedLog,
    ) -> SqlResult<TableImage> {
        let name = &entry.schema.name;
        let mut scratch = Catalog::new();
        let window_lo = match prev {
            Some(p) => {
                if let Some(pe) = p
                    .dir
                    .iter()
                    .find(|e| e.schema.name.eq_ignore_ascii_case(name))
                {
                    let image = self.table_image(pe).map_err(|e| {
                        corrupt(format!(
                            "repair failed: table '{name}' corrupt in epoch {cur_epoch} AND epoch {}: {e}",
                            p.meta.page_epoch
                        ))
                    })?;
                    wal::install_image(&mut scratch, &image);
                }
                p.meta.anchor_lsn
            }
            // Epoch 1 has no predecessor by construction: the whole
            // history is still on the WAL, so rebuild from empty.
            None if cur_epoch <= 1 => 0,
            None => {
                return Err(corrupt(format!(
                    "repair failed: table '{name}' corrupt in epoch {cur_epoch} and no previous epoch survives"
                )))
            }
        };
        let committed: HashSet<u64> = scanned
            .records
            .iter()
            .filter_map(|(lsn, r)| match r {
                WalRecord::Commit { txn, .. } if *lsn <= cur_anchor => Some(*txn),
                _ => None,
            })
            .collect();
        for (lsn, rec) in &scanned.records {
            if *lsn <= window_lo || *lsn > cur_anchor {
                continue;
            }
            if let WalRecord::Op { txn, op } = rec {
                if committed.contains(txn)
                    && op_table(op).is_some_and(|t| t.eq_ignore_ascii_case(name))
                {
                    wal::apply_redo(&mut scratch, op);
                }
            }
        }
        let table = scratch.table(name).map_err(|_| {
            corrupt(format!(
                "repair failed: WAL window reconstructs no table '{name}'"
            ))
        })?;
        Ok(wal::image_of(&scratch, &table))
    }

    /// Load the base catalog for recovery: install every table of the
    /// current epoch, rebuilding any whose pages fail verification from
    /// the previous epoch + the WAL window between the anchors.
    pub fn load_base(&self, scanned: &ScannedLog) -> SqlResult<BaseLoad> {
        let st = self.state.lock();
        let Some(cur) = st.cur.clone() else {
            return Ok(BaseLoad {
                catalog: Catalog::new(),
                catalog_epoch: 0,
                anchor_lsn: 0,
            });
        };
        let prev = st.prev.clone();
        drop(st);
        let mut catalog = Catalog::new();
        let mut repaired_now = Vec::new();
        for entry in &cur.dir {
            let image = match self.table_image(entry) {
                Ok(image) => image,
                Err(_) => {
                    let image = self.repair_table(
                        entry,
                        prev.as_ref(),
                        cur.meta.page_epoch,
                        cur.meta.anchor_lsn,
                        scanned,
                    )?;
                    let bad = entry
                        .pages
                        .iter()
                        .filter(|&&no| !self.page_ok(PageKind::Data, no))
                        .count()
                        .max(1);
                    self.pages_repaired.fetch_add(bad as u64, Ordering::Relaxed);
                    repaired_now.push(entry.schema.name.to_lowercase());
                    image
                }
            };
            wal::install_image(&mut catalog, &image);
        }
        for (name, current, increment) in &cur.meta.sequences {
            let _ = catalog.add_sequence(Sequence::new(name.clone(), *current, *increment));
        }
        self.state.lock().repaired.extend(repaired_now);
        Ok(BaseLoad {
            catalog,
            catalog_epoch: cur.meta.catalog_epoch,
            anchor_lsn: cur.meta.anchor_lsn,
        })
    }

    /// Write a checkpoint epoch: data pages for dirty tables (clean ones
    /// keep their extents), directory, then the metadata flip — each
    /// stage synced before the next. `partial` models a crash after the
    /// data-page stage: some new-epoch pages land, no flip, no state
    /// change; the abandoned pages are unreferenced garbage the next
    /// successful checkpoint may reuse.
    ///
    /// `anchor_lsn` must be the WAL's last LSN under checkpoint
    /// quiescence, already durable (appends sync) — it becomes both the
    /// page LSN of every written page and the pool's flush gate.
    pub fn checkpoint(
        &self,
        catalog: &Catalog,
        anchor_lsn: u64,
        dirty: &HashSet<String>,
        partial: bool,
    ) -> SqlResult<()> {
        let mut st = self.state.lock();
        let new_epoch = st.cur.as_ref().map_or(0, |e| e.meta.page_epoch) + 1;
        let mut forbidden: HashSet<u64> = [0u64, 1u64].into_iter().collect();
        for ep in st.cur.iter().chain(st.prev.iter()) {
            forbidden.extend(ep.meta.dir_pages.iter().copied());
            for e in &ep.dir {
                forbidden.extend(e.pages.iter().copied());
            }
        }
        let mut alloc = PageAlloc { forbidden, next: 2 };
        // The WAL through `anchor_lsn` is durable; open the gate first so
        // steal evictions during the put loop pass the write-ahead check.
        self.pool.set_flush_lsn(anchor_lsn);

        let mut names = catalog.table_names();
        names.sort(); // deterministic page layout
        let mut new_dir = Vec::with_capacity(names.len());
        // Data pages go to the pool as they fill (it writes back what
        // it evicts), so no table's image or stream is ever held whole.
        // A dying checkpoint collects them instead and lands half.
        let mut pending: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut put = |no: u64, page: Vec<u8>| {
            if partial {
                pending.push((no, page));
                Ok(())
            } else {
                self.pool.put(no, page, anchor_lsn)
            }
        };
        let mut cell = Vec::new();
        for name in &names {
            let table = catalog.table(name)?;
            if table.schema.temporary {
                continue;
            }
            let lname = name.to_lowercase();
            if !dirty.contains(&lname) && !st.repaired.contains(&lname) {
                if let Some(e) = st.cur.as_ref().and_then(|c| {
                    c.dir
                        .iter()
                        .find(|e| e.schema.name.eq_ignore_ascii_case(name))
                }) {
                    new_dir.push(e.clone());
                    continue;
                }
            }
            let mut packer = StreamPacker::new(
                PageKind::Data,
                new_epoch,
                anchor_lsn,
                || alloc.next_page(),
                &mut put,
            );
            // The row stream: a row count, then `(row id, row)` pairs.
            cell.clear();
            wal::put_u32(&mut cell, table.iter().count() as u32);
            packer.write(&cell)?;
            for (id, row) in table.iter() {
                cell.clear();
                wal::put_u64(&mut cell, id);
                wal::put_row(&mut cell, row);
                packer.write(&cell)?;
            }
            let (stream_len, pages) = packer.finish()?;
            new_dir.push(TableEntry {
                schema: table.schema.clone(),
                next_row_id: table.next_row_id(),
                indexes: wal::index_defs_of(catalog, &table),
                stream_len,
                pages,
            });
        }

        if partial {
            // Death mid-checkpoint: roughly half the new data pages
            // reach the store, nothing is flipped, nothing mutates.
            let cut = pending.len().div_ceil(2).min(pending.len());
            for (no, bytes) in pending.into_iter().take(cut) {
                self.pool.put(no, bytes, anchor_lsn)?;
            }
            return self.pool.flush_all();
        }
        self.pool.flush_all()?; // data pages durable

        let dir_stream = encode_dir(&new_dir);
        let dir_pages = pack_stream(
            PageKind::Directory,
            &dir_stream,
            new_epoch,
            anchor_lsn,
            || alloc.next_page(),
        );
        let meta = Meta {
            page_epoch: new_epoch,
            catalog_epoch: catalog.epoch(),
            anchor_lsn,
            sequences: catalog.sequence_states(),
            dir_stream_len: dir_stream.len() as u64,
            dir_pages: dir_pages.iter().map(|(no, _)| *no).collect(),
        };
        for (no, bytes) in dir_pages {
            self.pool.put(no, bytes, anchor_lsn)?;
        }
        self.pool.flush_all()?; // directory durable

        // The flip: one page into the slot the current epoch does not
        // occupy. Torn here → this slot fails its checksum at open and
        // the old epoch still rules.
        let slot = new_epoch % 2;
        let meta_bytes = encode_meta_page(&meta, slot)?;
        self.pool.put(slot, meta_bytes, anchor_lsn)?;
        self.pool.flush_all()?;

        st.prev = st.cur.take();
        st.cur = Some(Epoch { meta, dir: new_dir });
        st.repaired.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn data_page(no: u64, fill: u8) -> Vec<u8> {
        let mut b = PageBuilder::new(PageKind::Data, no);
        assert!(b.try_push(&[fill; 128]));
        b.finalize(1, 7)
    }

    #[test]
    fn mem_store_roundtrip_and_zero_fill() {
        let store = MemPageStore::new();
        assert_eq!(store.page_count().unwrap(), 0);
        // Unwritten pages read as zeros.
        assert_eq!(store.read_page(3).unwrap(), vec![0u8; PAGE_SIZE]);
        let page = data_page(2, 0xAA);
        store.write_page(2, &page).unwrap();
        assert_eq!(store.read_page(2).unwrap(), page);
        let clone = store.clone();
        assert_eq!(clone.read_page(2).unwrap(), page, "clones share the disk");
    }

    #[test]
    fn file_store_roundtrip_and_sparse_reads() {
        let dir = std::env::temp_dir().join(format!(
            "sqlkernel_pager_test_{}_{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let store = FilePageStore::new(dir.join("pages.db"));
        assert_eq!(store.page_count().unwrap(), 0);
        assert_eq!(store.read_page(0).unwrap(), vec![0u8; PAGE_SIZE]);
        let page = data_page(5, 0x5C);
        store.write_page(5, &page).unwrap();
        store.sync().unwrap();
        assert_eq!(store.read_page(5).unwrap(), page);
        // Pages 0..5 were never written: sparse zeros.
        assert_eq!(store.read_page(1).unwrap(), vec![0u8; PAGE_SIZE]);
        assert_eq!(store.page_count().unwrap(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_error_is_transient_and_consumed() {
        let store = MemPageStore::new();
        store.write_page(0, &data_page(0, 1)).unwrap();
        let pager = Pager::new(Arc::new(store));
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(9).fault_at_page_read(0, PageFault::IoError),
        ));
        pager.set_injector(Some(Arc::clone(&inj)));
        let err = pager.read_page(0).unwrap_err();
        assert!(err.is_transient(), "injected io error must be retryable");
        // Consumed on fire: the retry succeeds.
        assert!(PageView::parse(&pager.read_page(0).unwrap()).is_ok());
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn read_bit_flip_breaks_the_checksum() {
        let store = MemPageStore::new();
        store.write_page(0, &data_page(0, 2)).unwrap();
        let pager = Pager::new(Arc::new(store));
        pager.set_injector(Some(Arc::new(FaultInjector::new(
            FaultPlan::new(11).fault_at_page_read(0, PageFault::ReadBitFlip),
        ))));
        let corrupted = pager.read_page(0).unwrap();
        assert!(
            PageView::parse(&corrupted).is_err(),
            "flip must be detected"
        );
        assert!(PageView::parse(&pager.read_page(0).unwrap()).is_ok());
    }

    #[test]
    fn torn_write_leaves_prefix_and_freezes() {
        let store = MemPageStore::new();
        let pager = Pager::new(Arc::new(store.clone()));
        pager.set_injector(Some(Arc::new(FaultInjector::new(
            FaultPlan::new(13).fault_at_page_write(0, PageFault::TornWrite),
        ))));
        let page = data_page(4, 3);
        let err = pager.write_page(4, &page).unwrap_err();
        assert!(!err.is_transient(), "a torn write is a crash, not a retry");
        // Half the page landed; the checksum catches it.
        let on_disk = store.read_page(4).unwrap();
        assert_eq!(&on_disk[..PAGE_SIZE / 2], &page[..PAGE_SIZE / 2]);
        assert!(PageView::parse(&on_disk).is_err());
        // The process is dead: every further I/O is refused.
        assert!(pager.read_page(0).is_err());
        assert!(pager.sync().is_err());
    }

    #[test]
    fn partial_write_reports_success_but_corrupts_at_rest() {
        let store = MemPageStore::new();
        store.write_page(6, &data_page(6, 0xFF)).unwrap();
        let pager = Pager::new(Arc::new(store.clone()));
        pager.set_injector(Some(Arc::new(FaultInjector::new(
            FaultPlan::new(17).fault_at_page_write(0, PageFault::PartialWrite),
        ))));
        pager.write_page(6, &data_page(6, 0x01)).unwrap(); // "succeeds"
        let on_disk = store.read_page(6).unwrap();
        assert!(
            PageView::parse(&on_disk).is_err(),
            "half new + half old must fail verification"
        );
    }

    #[test]
    fn slow_io_advances_the_virtual_clock() {
        let store = MemPageStore::new();
        store.write_page(0, &data_page(0, 9)).unwrap();
        let pager = Pager::new(Arc::new(store));
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::new(19).fault_at_page_read(0, PageFault::SlowIo { ticks: 40 }),
        ));
        pager.set_injector(Some(Arc::clone(&inj)));
        let page = pager.read_page(0).unwrap();
        assert!(PageView::parse(&page).is_ok(), "slow, not wrong");
        assert_eq!(inj.ticks(), 40);
    }

    #[test]
    fn page_alloc_skips_forbidden_pages() {
        let mut alloc = PageAlloc {
            forbidden: [0u64, 1, 2, 4, 5].into_iter().collect(),
            next: 2,
        };
        assert_eq!(alloc.next_page(), 3);
        assert_eq!(alloc.next_page(), 6);
        assert_eq!(alloc.next_page(), 7);
    }
}
