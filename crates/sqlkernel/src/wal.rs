//! Write-ahead logging and crash recovery.
//!
//! Every mutating statement appends redo records to a pluggable
//! [`LogStore`] *before* its success is acknowledged; a checkpoint
//! compacts the log into one catalog snapshot record; and
//! [`crate::Database::recover`] rebuilds a byte-identical catalog from
//! the log alone — the in-memory database is treated as lost, exactly as
//! a process crash would lose it.
//!
//! ## Log format
//!
//! The log is an 8-byte header followed by a flat byte stream of framed
//! records:
//!
//! ```text
//! ┌──────────────┬─────────────────┐
//! │ magic "FWAL" │ version: u32 LE │   header (LOG_HEADER, version 2)
//! └──────────────┴─────────────────┘
//! ┌─────────────┬──────────────┬───────────────────────────────┐
//! │ len: u32 LE │ checksum:u64 │ payload (len bytes)           │
//! ├─────────────┴──────────────┼───────────┬──────┬────────────┤
//! │                            │ lsn: u64  │ type │ body …     │
//! └────────────────────────────┴───────────┴──────┴────────────┘
//! ```
//!
//! The header names the format. Opening a log whose header is missing
//! (the headerless version 1) or names another version fails with
//! [`SqlError::UnsupportedFormat`]; such a log is never read as a torn
//! tail, which would recover an empty database. Every rewrite of the
//! log (checkpoint reset, incremental truncation) keeps the header.
//!
//! The checksum ([`checksum`] over the payload) plus the length prefix
//! give torn-tail detection: recovery scans from the first frame and
//! stops at the first record whose frame is short, whose checksum
//! mismatches, or whose body fails to decode — everything before that
//! point is the durable history, everything after is discarded.
//!
//! ## Record types
//!
//! * `Begin { txn }` — a transaction produced its first logged write.
//! * `Op { txn, op }` — one redo/undo-capable operation: row DML with
//!   before/after images, or DDL with enough state to reverse it.
//! * `Commit { txn, epoch, sequences }` — the transaction is durable.
//!   Carries the schema epoch (plan-cache invalidation across recovery)
//!   and all sequence counters (committed `NEXTVAL` draws must never be
//!   re-issued).
//! * `Abort { txn }` — the transaction rolled back; recovery undoes it.
//! * `Checkpoint { snapshot }` — full catalog image; the log is reset to
//!   just this record.
//!
//! Recovery is redo-committed / undo-uncommitted (ARIES-lite): replay
//! every op in LSN order from the last valid checkpoint, then undo — in
//! reverse LSN order — the ops of transactions with neither commit nor
//! abort on the log.
//!
//! ## Deliberate non-goals
//!
//! Views and stored procedures are **not** crash-durable (their bodies
//! are ASTs; serializing those is out of scope), and temporary tables
//! are session-scoped by definition — all three are skipped by both op
//! logging and checkpoints.

use std::collections::HashMap;
use std::io::Write;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::catalog::{Catalog, Sequence};
use crate::counters::Counter;
use crate::error::{SqlError, SqlResult};
use crate::fault::crashed_error;
use crate::schema::{Column, TableSchema};
use crate::storage::{Index, MvccShared, Row, RowId, Snapshot, Table};
use crate::sync::Mutex;
use crate::txn::UndoOp;
use crate::types::{DataType, Value};

// ---------------------------------------------------------------- checksum

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

/// One multiply-rotate step. For a fixed `acc` it is a bijection of
/// `word`, and for a fixed `word` a bijection of `acc`: multiplying by
/// an odd constant, adding, and rotating are all invertible mod 2^64.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The 64-bit checksum of log frames and pages: four multiply-rotate
/// lanes over 32-byte stripes of little-endian words, then the leftover
/// words, a zero-padded tail word and the length into one state, and a
/// bijective finalizer.
///
/// Every single-bit flip changes the digest, by construction rather than
/// by chance. A flip changes exactly one input word (the tail counts as
/// one word: its length is fixed, so its padding is too). Every step
/// that absorbs a word is a bijection of that word for a fixed state,
/// and a bijection of the state for a fixed word. The four lanes enter
/// the merge once each, through a rotation and an addition, so the
/// merge is a bijection of each lane with the others fixed. The length
/// addition and the finalizer (xor-shifts and odd multiplies) are
/// bijections of the state. So the digest, seen as a function of any
/// one word with the rest of the input fixed, is injective, and any
/// change confined to one word is always detected. Other corruptions
/// are caught with the usual 2^-64 odds of a 64-bit digest.
///
/// The digest is part of the on-disk format (log version 2, page
/// version 2); known-answer tests pin it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = round(*lane, le_word(&stripe[8 * i..]));
            }
        }
        let [a, b, c, d] = lanes;
        a.rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ round(0, le_word(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = (h ^ u64::from_le_bytes(word).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

// ---------------------------------------------------------------- header

/// The log's format version: 2 since logs carry a header and frames use
/// [`checksum`]. Version 1 is the headerless FNV-1a log.
pub const LOG_VERSION: u32 = 2;

/// The bytes every log starts with: the magic `FWAL`, then
/// [`LOG_VERSION`] (u32 LE). Read as a frame length, the magic is over
/// 1 GiB, so a headerless frame stream never starts with it.
pub const LOG_HEADER: [u8; 8] = {
    let v = LOG_VERSION.to_le_bytes();
    [b'F', b'W', b'A', b'L', v[0], v[1], v[2], v[3]]
};

/// Length of the header, if `bytes` start with the current one.
fn header_len(bytes: &[u8]) -> usize {
    if bytes.starts_with(&LOG_HEADER) {
        LOG_HEADER.len()
    } else {
        0
    }
}

/// Read a log store for recovery. A log this build does not read — not
/// empty, and not starting with [`LOG_HEADER`] — fails with
/// [`SqlError::UnsupportedFormat`] naming the version it declares (1
/// for a log with no header at all), and is left as it is. An empty log
/// gets its header, so every later write lands after it. Returns the
/// bytes as read.
pub fn read_log(store: &dyn LogStore) -> SqlResult<Vec<u8>> {
    let bytes = store.read_all()?;
    check_log_header(&bytes)?;
    if bytes.is_empty() {
        store.reset(&LOG_HEADER)?;
    }
    Ok(bytes)
}

fn check_log_header(bytes: &[u8]) -> SqlResult<()> {
    if bytes.is_empty() || header_len(bytes) > 0 {
        return Ok(());
    }
    let version = match bytes.get(..8) {
        Some(head) if head.starts_with(&LOG_HEADER[..4]) => {
            u32::from_le_bytes(head[4..].try_into().unwrap())
        }
        _ => 1,
    };
    Err(SqlError::unsupported_format("log", version))
}

// ---------------------------------------------------------------- log store

/// Where log bytes live. Implementations must make `append` atomic with
/// respect to concurrent appends (the WAL serializes its own callers, so
/// a simple lock or O_APPEND suffices).
pub trait LogStore: std::fmt::Debug + Send + Sync {
    /// Append bytes to the end of the log.
    fn append(&self, bytes: &[u8]) -> SqlResult<()>;
    /// Read the entire log.
    fn read_all(&self) -> SqlResult<Vec<u8>>;
    /// Atomically replace the whole log (checkpoint truncation).
    fn reset(&self, bytes: &[u8]) -> SqlResult<()>;
    /// Current size in bytes.
    fn size(&self) -> SqlResult<u64>;
    /// Run `f` over the entire log. Stores that hold the log in memory
    /// lend it without a copy.
    fn visit(&self, f: &mut dyn FnMut(&[u8])) -> SqlResult<()> {
        f(&self.read_all()?);
        Ok(())
    }
    /// Drop a run of bytes from the log: `cut` sees the whole log and
    /// returns the range to discard (the WAL's oldest frames, after its
    /// header). Atomic like [`LogStore::reset`]; in-memory stores drop
    /// the range in place.
    fn drop_range(&self, cut: &mut dyn FnMut(&[u8]) -> Range<usize>) -> SqlResult<()> {
        let bytes = self.read_all()?;
        let range = clamp(cut(&bytes), bytes.len());
        self.reset(&[&bytes[..range.start], &bytes[range.end..]].concat())
    }
}

/// `range` cut to a log of `len` bytes.
fn clamp(range: Range<usize>, len: usize) -> Range<usize> {
    let end = range.end.min(len);
    range.start.min(end)..end
}

/// In-memory log store for tests: cloning shares the buffer, so a test
/// can keep a handle, "kill" the database, and recover from the bytes
/// the dead instance left behind.
#[derive(Debug, Clone, Default)]
pub struct MemLogStore {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemLogStore {
    /// Empty store.
    pub fn new() -> MemLogStore {
        MemLogStore::default()
    }

    /// A store pre-loaded with existing log bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> MemLogStore {
        MemLogStore {
            buf: Arc::new(Mutex::new(bytes)),
        }
    }

    /// Copy of the current log contents.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.lock().clone()
    }
}

impl LogStore for MemLogStore {
    fn append(&self, bytes: &[u8]) -> SqlResult<()> {
        self.buf.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn read_all(&self) -> SqlResult<Vec<u8>> {
        Ok(self.buf.lock().clone())
    }

    fn reset(&self, bytes: &[u8]) -> SqlResult<()> {
        let mut buf = self.buf.lock();
        buf.clear();
        buf.extend_from_slice(bytes);
        Ok(())
    }

    fn size(&self) -> SqlResult<u64> {
        Ok(self.buf.lock().len() as u64)
    }

    fn visit(&self, f: &mut dyn FnMut(&[u8])) -> SqlResult<()> {
        f(&self.buf.lock());
        Ok(())
    }

    fn drop_range(&self, cut: &mut dyn FnMut(&[u8]) -> Range<usize>) -> SqlResult<()> {
        let mut buf = self.buf.lock();
        let range = clamp(cut(&buf), buf.len());
        buf.drain(range);
        Ok(())
    }
}

fn io_err(e: std::io::Error) -> SqlError {
    // Disk-full and friends are environmental, not logic bugs: surface
    // them as transient so the retry runtime can absorb the failure.
    SqlError::Transient(format!("wal io: {e}"))
}

/// File-backed log store. A path that does not exist yet reads as an
/// empty log, so [`crate::Database::recover`] over it opens fresh.
/// Appends go through `O_APPEND`; reset writes a sibling temp file and
/// renames it over the log, so a crash mid-reset leaves either the old
/// or the new log intact, never a mix.
#[derive(Debug)]
pub struct FileLogStore {
    path: std::path::PathBuf,
}

impl FileLogStore {
    /// Store backed by the given path (created on first append).
    pub fn new(path: impl Into<std::path::PathBuf>) -> FileLogStore {
        FileLogStore { path: path.into() }
    }

    /// The backing path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl LogStore for FileLogStore {
    fn append(&self, bytes: &[u8]) -> SqlResult<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(io_err)?;
        f.write_all(bytes).map_err(io_err)?;
        // Commit-acknowledge durability: the append must survive power
        // loss before the caller reports success.
        f.sync_data().map_err(io_err)
    }

    fn read_all(&self) -> SqlResult<Vec<u8>> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(io_err(e)),
        }
    }

    fn reset(&self, bytes: &[u8]) -> SqlResult<()> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, bytes).map_err(io_err)?;
        std::fs::File::open(&tmp)
            .and_then(|f| f.sync_data())
            .map_err(io_err)?;
        std::fs::rename(&tmp, &self.path).map_err(io_err)
    }

    fn size(&self) -> SqlResult<u64> {
        match std::fs::metadata(&self.path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(io_err(e)),
        }
    }
}

// ---------------------------------------------------------------- records

/// One secondary-index definition, as serialized into images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub name: String,
    /// Column positions in the owning table's schema.
    pub columns: Vec<u32>,
    pub unique: bool,
    /// Was the index registered in the catalog's index→table map (true
    /// for `CREATE INDEX` indexes, false for auto-created constraint
    /// backings, which `Table::new` rebuilds on its own)?
    pub registered: bool,
}

/// Full image of one table: schema, rows, row-id allocator, and index
/// definitions. Used by checkpoints and by `DROP TABLE` ops (whose undo
/// must restore the whole table).
#[derive(Debug, Clone, PartialEq)]
pub struct TableImage {
    pub schema: TableSchema,
    pub next_row_id: RowId,
    pub rows: Vec<(RowId, Row)>,
    pub indexes: Vec<IndexDef>,
}

/// One logged operation, carrying enough state for both redo and undo.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    Insert {
        table: String,
        row_id: RowId,
        after: Row,
    },
    Update {
        table: String,
        row_id: RowId,
        before: Row,
        after: Row,
    },
    Delete {
        table: String,
        row_id: RowId,
        before: Row,
    },
    CreateTable {
        schema: TableSchema,
    },
    DropTable {
        image: TableImage,
    },
    CreateIndex {
        table: String,
        def: IndexDef,
    },
    DropIndex {
        table: String,
        def: IndexDef,
    },
    CreateSequence {
        name: String,
        current: i64,
        increment: i64,
    },
    DropSequence {
        name: String,
        current: i64,
        increment: i64,
    },
}

/// Full catalog snapshot written by a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSnapshot {
    pub epoch: u64,
    pub tables: Vec<TableImage>,
    /// `(name, current, increment)` per sequence, sorted by name.
    pub sequences: Vec<(String, i64, i64)>,
}

/// One log record (without its frame).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Begin {
        txn: u64,
    },
    Op {
        txn: u64,
        op: WalOp,
    },
    Commit {
        txn: u64,
        epoch: u64,
        sequences: Vec<(String, i64, i64)>,
    },
    Abort {
        txn: u64,
    },
    Checkpoint(CheckpointSnapshot),
    /// Two-phase-commit participant vote: the transaction's ops are
    /// durable and the participant promises to commit or abort on the
    /// coordinator's decision. Carries everything a later `Commit` needs
    /// (epoch, sequence states at prepare time) so recovery can finish
    /// the transaction from the log alone. `gid` is the coordinator's
    /// global transaction id — the key into its decision log.
    Prepare {
        txn: u64,
        gid: u64,
        epoch: u64,
        sequences: Vec<(String, i64, i64)>,
    },
}

// ---------------------------------------------------------------- encoding

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            put_bool(buf, *b);
        }
        Value::Int(i) => {
            buf.push(2);
            put_i64(buf, *i);
        }
        Value::Float(f) => {
            buf.push(3);
            put_u64(buf, f.to_bits());
        }
        Value::Text(s) => {
            buf.push(4);
            put_str(buf, s);
        }
    }
}

pub(crate) fn put_row(buf: &mut Vec<u8>, row: &[Value]) {
    put_u32(buf, row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

pub(crate) fn put_schema(buf: &mut Vec<u8>, schema: &TableSchema) {
    put_str(buf, &schema.name);
    put_bool(buf, schema.temporary);
    put_u32(buf, schema.columns.len() as u32);
    for c in &schema.columns {
        put_str(buf, &c.name);
        buf.push(match c.ty {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Text => 2,
            DataType::Bool => 3,
        });
        put_bool(buf, c.not_null);
        put_bool(buf, c.primary_key);
        put_bool(buf, c.unique);
        match &c.default {
            None => put_bool(buf, false),
            Some(v) => {
                put_bool(buf, true);
                put_value(buf, v);
            }
        }
    }
}

pub(crate) fn put_index_def(buf: &mut Vec<u8>, def: &IndexDef) {
    put_str(buf, &def.name);
    put_u32(buf, def.columns.len() as u32);
    for c in &def.columns {
        put_u32(buf, *c);
    }
    put_bool(buf, def.unique);
    put_bool(buf, def.registered);
}

fn put_image(buf: &mut Vec<u8>, image: &TableImage) {
    put_schema(buf, &image.schema);
    put_u64(buf, image.next_row_id);
    put_u32(buf, image.rows.len() as u32);
    for (id, row) in &image.rows {
        put_u64(buf, *id);
        put_row(buf, row);
    }
    put_u32(buf, image.indexes.len() as u32);
    for def in &image.indexes {
        put_index_def(buf, def);
    }
}

pub(crate) fn put_sequences(buf: &mut Vec<u8>, seqs: &[(String, i64, i64)]) {
    put_u32(buf, seqs.len() as u32);
    for (name, current, increment) in seqs {
        put_str(buf, name);
        put_i64(buf, *current);
        put_i64(buf, *increment);
    }
}

/// The body of a row op: what [`put_op`] writes for `Insert` (tag 1,
/// `rows` = after), `Update` (2, before and after) and `Delete` (3,
/// before), shared with the undo-log encoder so the two cannot drift.
fn put_row_change(buf: &mut Vec<u8>, tag: u8, table: &str, row_id: RowId, rows: &[&[Value]]) {
    buf.push(tag);
    put_str(buf, table);
    put_u64(buf, row_id);
    for row in rows {
        put_row(buf, row);
    }
}

fn put_op(buf: &mut Vec<u8>, op: &WalOp) {
    match op {
        WalOp::Insert {
            table,
            row_id,
            after,
        } => put_row_change(buf, 1, table, *row_id, &[after]),
        WalOp::Update {
            table,
            row_id,
            before,
            after,
        } => put_row_change(buf, 2, table, *row_id, &[before, after]),
        WalOp::Delete {
            table,
            row_id,
            before,
        } => put_row_change(buf, 3, table, *row_id, &[before]),
        WalOp::CreateTable { schema } => {
            buf.push(4);
            put_schema(buf, schema);
        }
        WalOp::DropTable { image } => {
            buf.push(5);
            put_image(buf, image);
        }
        WalOp::CreateIndex { table, def } => {
            buf.push(6);
            put_str(buf, table);
            put_index_def(buf, def);
        }
        WalOp::DropIndex { table, def } => {
            buf.push(7);
            put_str(buf, table);
            put_index_def(buf, def);
        }
        WalOp::CreateSequence {
            name,
            current,
            increment,
        } => {
            buf.push(8);
            put_str(buf, name);
            put_i64(buf, *current);
            put_i64(buf, *increment);
        }
        WalOp::DropSequence {
            name,
            current,
            increment,
        } => {
            buf.push(9);
            put_str(buf, name);
            put_i64(buf, *current);
            put_i64(buf, *increment);
        }
    }
}

/// The op body of a row undo entry, byte for byte what [`put_op`]
/// writes for the [`WalOp`] it stands for, read from the images the
/// entry shares with the table.
fn put_undo_row(buf: &mut Vec<u8>, op: &UndoOp) {
    match op {
        UndoOp::Insert { table, row_id, row } => {
            put_row_change(buf, 1, &table.name, *row_id, &[&**row]);
        }
        UndoOp::Update {
            table,
            row_id,
            old,
            new,
        } => put_row_change(buf, 2, &table.name, *row_id, &[&**old, &**new]),
        UndoOp::Delete { table, row_id, row } => {
            put_row_change(buf, 3, &table.name, *row_id, &[&**row]);
        }
        _ => unreachable!("only row undo entries are framed from the undo log"),
    }
}

/// The payload of `record` after its LSN: type tag and body.
fn put_record(buf: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Begin { txn } => {
            buf.push(1);
            put_u64(buf, *txn);
        }
        WalRecord::Op { txn, op } => {
            buf.push(2);
            put_u64(buf, *txn);
            put_op(buf, op);
        }
        WalRecord::Commit {
            txn,
            epoch,
            sequences,
        } => {
            buf.push(3);
            put_u64(buf, *txn);
            put_u64(buf, *epoch);
            put_sequences(buf, sequences);
        }
        WalRecord::Abort { txn } => {
            buf.push(4);
            put_u64(buf, *txn);
        }
        WalRecord::Checkpoint(snap) => {
            buf.push(5);
            put_u64(buf, snap.epoch);
            put_u32(buf, snap.tables.len() as u32);
            for t in &snap.tables {
                put_image(buf, t);
            }
            put_sequences(buf, &snap.sequences);
        }
        WalRecord::Prepare {
            txn,
            gid,
            epoch,
            sequences,
        } => {
            buf.push(6);
            put_u64(buf, *txn);
            put_u64(buf, *gid);
            put_u64(buf, *epoch);
            put_sequences(buf, sequences);
        }
    }
}

/// Bytes of a frame header: payload length (u32) and checksum (u64).
const FRAME_HEADER: usize = 12;

/// Frame one record in place at the end of `buf`: a zeroed header, the
/// payload (`lsn`, then what `body` writes), and finally the length and
/// checksum patched into the header over the payload slice. Returns the
/// frame's start.
fn frame(buf: &mut Vec<u8>, lsn: u64, body: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    put_u64(buf, lsn);
    body(buf);
    let payload = &buf[start + FRAME_HEADER..];
    let (len, sum) = (payload.len() as u32, checksum(payload));
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + FRAME_HEADER].copy_from_slice(&sum.to_le_bytes());
    start
}

/// Encode one record — frame, checksum, and payload — at the given LSN.
pub fn encode_record(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    frame(&mut buf, lsn, |b| put_record(b, record));
    buf
}

/// Frames records in place at the end of the WAL's append buffer, each
/// at the next LSN. Handed to the closure of [`Wal::append_with`], which
/// runs under the group mutex, so byte order equals LSN order.
pub(crate) struct FrameWriter<'a> {
    buf: &'a mut Vec<u8>,
    next_lsn: &'a AtomicU64,
    /// Where this append's frames begin in `buf`.
    first: usize,
    /// Start of the last frame written (a torn append keeps half of it).
    last: usize,
    /// Commit records written.
    commits: u64,
}

impl FrameWriter<'_> {
    fn frame(&mut self, body: impl FnOnce(&mut Vec<u8>)) {
        let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
        self.last = frame(self.buf, lsn, body);
    }

    /// Frame `record`.
    pub(crate) fn record(&mut self, record: &WalRecord) {
        if matches!(record, WalRecord::Commit { .. }) {
            self.commits += 1;
        }
        self.frame(|b| put_record(b, record));
    }

    /// Frame a successful statement's redo records under `txn`, in the
    /// order of its undo entries: a row entry of a logged table straight
    /// from the images it shares with the table (no row is copied), any
    /// other entry from `ddl`, the ops [`ops_from_undo`] derived for it.
    pub(crate) fn statement(&mut self, txn: u64, undo_ops: &[UndoOp], ddl: &[(usize, WalOp)]) {
        let mut ddl = ddl.iter().peekable();
        for (i, op) in undo_ops.iter().enumerate() {
            let ddl_op = ddl.next_if(|(at, _)| *at == i).map(|(_, o)| o);
            if ddl_op.is_none() && !logs_row(op) {
                continue;
            }
            // An `Op` record: tag 2, the transaction, the op body.
            self.frame(|b| {
                b.push(2);
                put_u64(b, txn);
                match ddl_op {
                    Some(ddl_op) => put_op(b, ddl_op),
                    None => put_undo_row(b, op),
                }
            });
        }
    }

    /// Nothing framed yet?
    fn is_empty(&self) -> bool {
        self.buf.len() == self.first
    }
}

// ---------------------------------------------------------------- decoding

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn short() -> SqlError {
    SqlError::Runtime("wal: truncated record body".into())
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed — full-consumption checks by out-of-module
    /// decoders (the paged engine's directory/meta codecs).
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> SqlResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(short());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> SqlResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> SqlResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> SqlResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> SqlResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bool(&mut self) -> SqlResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SqlError::Runtime(format!("wal: bad bool byte {b}"))),
        }
    }

    fn str(&mut self) -> SqlResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SqlError::Runtime("wal: invalid utf-8 in record".into()))
    }

    fn value(&mut self) -> SqlResult<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.bool()?)),
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            4 => Ok(Value::Text(self.str()?)),
            t => Err(SqlError::Runtime(format!("wal: bad value tag {t}"))),
        }
    }

    pub(crate) fn row(&mut self) -> SqlResult<Row> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            // A row can't have more cells than remaining bytes; reject
            // early so a corrupt length can't trigger a huge allocation.
            return Err(short());
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row)
    }

    pub(crate) fn schema(&mut self) -> SqlResult<TableSchema> {
        let name = self.str()?;
        let temporary = self.bool()?;
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(short());
        }
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            let cname = self.str()?;
            let ty = match self.u8()? {
                0 => DataType::Int,
                1 => DataType::Float,
                2 => DataType::Text,
                3 => DataType::Bool,
                t => return Err(SqlError::Runtime(format!("wal: bad type tag {t}"))),
            };
            let mut col = Column::new(cname, ty);
            col.not_null = self.bool()?;
            col.primary_key = self.bool()?;
            col.unique = self.bool()?;
            if self.bool()? {
                col.default = Some(self.value()?);
            }
            columns.push(col);
        }
        TableSchema::new(name, columns, temporary)
    }

    pub(crate) fn index_def(&mut self) -> SqlResult<IndexDef> {
        let name = self.str()?;
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(short());
        }
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            columns.push(self.u32()?);
        }
        let unique = self.bool()?;
        let registered = self.bool()?;
        Ok(IndexDef {
            name,
            columns,
            unique,
            registered,
        })
    }

    fn image(&mut self) -> SqlResult<TableImage> {
        let schema = self.schema()?;
        let next_row_id = self.u64()?;
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(short());
        }
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let id = self.u64()?;
            rows.push((id, self.row()?));
        }
        let ni = self.u32()? as usize;
        if ni > self.buf.len() - self.pos {
            return Err(short());
        }
        let mut indexes = Vec::with_capacity(ni);
        for _ in 0..ni {
            indexes.push(self.index_def()?);
        }
        Ok(TableImage {
            schema,
            next_row_id,
            rows,
            indexes,
        })
    }

    pub(crate) fn sequences(&mut self) -> SqlResult<Vec<(String, i64, i64)>> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(short());
        }
        let mut seqs = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.str()?;
            let current = self.i64()?;
            let increment = self.i64()?;
            seqs.push((name, current, increment));
        }
        Ok(seqs)
    }

    fn op(&mut self) -> SqlResult<WalOp> {
        match self.u8()? {
            1 => Ok(WalOp::Insert {
                table: self.str()?,
                row_id: self.u64()?,
                after: self.row()?,
            }),
            2 => Ok(WalOp::Update {
                table: self.str()?,
                row_id: self.u64()?,
                before: self.row()?,
                after: self.row()?,
            }),
            3 => Ok(WalOp::Delete {
                table: self.str()?,
                row_id: self.u64()?,
                before: self.row()?,
            }),
            4 => Ok(WalOp::CreateTable {
                schema: self.schema()?,
            }),
            5 => Ok(WalOp::DropTable {
                image: self.image()?,
            }),
            6 => Ok(WalOp::CreateIndex {
                table: self.str()?,
                def: self.index_def()?,
            }),
            7 => Ok(WalOp::DropIndex {
                table: self.str()?,
                def: self.index_def()?,
            }),
            8 => Ok(WalOp::CreateSequence {
                name: self.str()?,
                current: self.i64()?,
                increment: self.i64()?,
            }),
            9 => Ok(WalOp::DropSequence {
                name: self.str()?,
                current: self.i64()?,
                increment: self.i64()?,
            }),
            t => Err(SqlError::Runtime(format!("wal: bad op tag {t}"))),
        }
    }
}

/// Decode one framed payload (everything after the len+checksum header).
/// Fails — and the scanner treats the log as ending — on any malformed
/// byte or trailing garbage.
pub fn decode_payload(payload: &[u8]) -> SqlResult<(u64, WalRecord)> {
    let mut r = Reader::new(payload);
    let lsn = r.u64()?;
    let record = match r.u8()? {
        1 => WalRecord::Begin { txn: r.u64()? },
        2 => WalRecord::Op {
            txn: r.u64()?,
            op: r.op()?,
        },
        3 => WalRecord::Commit {
            txn: r.u64()?,
            epoch: r.u64()?,
            sequences: r.sequences()?,
        },
        4 => WalRecord::Abort { txn: r.u64()? },
        5 => {
            let epoch = r.u64()?;
            let nt = r.u32()? as usize;
            if nt > payload.len() {
                return Err(short());
            }
            let mut tables = Vec::with_capacity(nt);
            for _ in 0..nt {
                tables.push(r.image()?);
            }
            let sequences = r.sequences()?;
            WalRecord::Checkpoint(CheckpointSnapshot {
                epoch,
                tables,
                sequences,
            })
        }
        6 => WalRecord::Prepare {
            txn: r.u64()?,
            gid: r.u64()?,
            epoch: r.u64()?,
            sequences: r.sequences()?,
        },
        t => return Err(SqlError::Runtime(format!("wal: bad record tag {t}"))),
    };
    if r.pos != payload.len() {
        return Err(SqlError::Runtime("wal: trailing bytes in record".into()));
    }
    Ok((lsn, record))
}

/// Result of scanning a raw log: the valid record prefix and where it ends.
#[derive(Debug)]
pub struct ScannedLog {
    /// `(lsn, record)` pairs in log order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte length of the valid prefix.
    pub valid_len: usize,
    /// True when bytes past `valid_len` were discarded (torn tail or
    /// checksum corruption).
    pub truncated: bool,
    /// How many tail bytes were dropped — recorded, not silently lost,
    /// so recovery can report the damage in [`crate::DbStats`].
    pub dropped_bytes: u64,
}

/// A log's records, decoded one frame at a time. Iteration stops at the
/// first frame that is short, fails its checksum, or fails to decode —
/// everything before that point is the durable history, and
/// [`Frames::valid_len`] is its byte length.
#[derive(Debug)]
pub(crate) struct Frames<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Frames<'a> {
    /// Frames of `bytes`, after the log header if they start with one.
    pub(crate) fn new(bytes: &'a [u8]) -> Frames<'a> {
        Frames {
            bytes,
            pos: header_len(bytes),
        }
    }

    /// Byte length of the header and the frames yielded so far.
    pub(crate) fn valid_len(&self) -> usize {
        self.pos
    }
}

impl Iterator for Frames<'_> {
    type Item = (u64, WalRecord);

    fn next(&mut self) -> Option<(u64, WalRecord)> {
        let rest = &self.bytes[self.pos..];
        if rest.len() < 12 {
            return None;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        // Torn frame, corrupt payload, or undecodable record.
        let payload = rest.get(12..12 + len)?;
        if checksum(payload) != sum {
            return None;
        }
        let record = decode_payload(payload).ok()?;
        self.pos += 12 + len;
        Some(record)
    }
}

/// Scan a log, stopping at the first record that is short, fails its
/// checksum, or fails to decode. Everything before that point is the
/// durable history. A leading [`LOG_HEADER`] is skipped; bytes without
/// one are read as a bare frame stream (what [`encode_record`]s
/// concatenate to). Opening a store checks its header first, with
/// [`read_log`].
pub fn scan(bytes: &[u8]) -> ScannedLog {
    let mut frames = Frames::new(bytes);
    let records = frames.by_ref().collect();
    let pos = frames.valid_len();
    ScannedLog {
        records,
        valid_len: pos,
        truncated: pos < bytes.len(),
        dropped_bytes: (bytes.len() - pos) as u64,
    }
}

// ------------------------------------------------------------ op derivation

fn is_temp(catalog: &Catalog, table: &str) -> bool {
    catalog
        .table(table)
        .map(|t| t.schema.temporary)
        .unwrap_or(false)
}

pub(crate) fn index_defs_of(catalog: &Catalog, table: &Table) -> Vec<IndexDef> {
    table
        .index_iter()
        .map(|i| IndexDef {
            name: i.name.clone(),
            columns: i.columns.iter().map(|&c| c as u32).collect(),
            unique: i.unique,
            registered: catalog.index_table(&i.name).is_some(),
        })
        .collect()
}

pub(crate) fn image_of(catalog: &Catalog, table: &Table) -> TableImage {
    TableImage {
        schema: TableSchema::clone(&table.schema),
        next_row_id: table.next_row_id(),
        rows: table
            .iter(&Snapshot::committed())
            .map(|(id, row)| (id, row.to_vec()))
            .collect(),
        indexes: index_defs_of(catalog, table),
    }
}

/// Build a checkpoint snapshot of the catalog: every committed row, read
/// under [`Snapshot::committed`] (temporary tables excluded — they die
/// with their connection, so they must not be resurrected by recovery).
pub fn snapshot_catalog(catalog: &Catalog) -> CheckpointSnapshot {
    let mut tables = Vec::new();
    for name in catalog.table_names() {
        let t = catalog.table(&name).expect("table listed by catalog");
        if t.schema.temporary {
            continue;
        }
        tables.push(image_of(catalog, &t));
    }
    CheckpointSnapshot {
        epoch: catalog.epoch(),
        tables,
        sequences: catalog.sequence_states(),
    }
}

/// Is `op` a row entry whose redo goes on the log — a write to a table
/// that is not temporary? Such entries are framed straight from the
/// undo log by [`FrameWriter::statement`].
pub(crate) fn logs_row(op: &UndoOp) -> bool {
    matches!(
        op,
        UndoOp::Insert { table, .. } | UndoOp::Update { table, .. } | UndoOp::Delete { table, .. }
            if !table.temporary
    )
}

/// Derive the redo ops of a successful statement's non-row undo entries
/// (DDL), each with its entry's position in `undo_ops`; row entries need
/// no derivation, the log frames them straight from the undo log. Must
/// run while the statement's catalog lock is still held, so what is read
/// here is exactly what the statement produced. A dropped table's image
/// holds the rows visible to `snap`, the statement's snapshot. A
/// statement without DDL returns an empty, unallocated list.
///
/// Views and stored procedures are skipped (not crash-durable), as is
/// anything touching a temporary table.
pub fn ops_from_undo(
    catalog: &Catalog,
    snap: &Snapshot,
    undo_ops: &[UndoOp],
) -> Vec<(usize, WalOp)> {
    undo_ops
        .iter()
        .enumerate()
        .filter_map(|(at, op)| Some((at, ddl_op(catalog, snap, op)?)))
        .collect()
}

/// The redo op of one non-row undo entry, if the log carries one.
fn ddl_op(catalog: &Catalog, snap: &Snapshot, op: &UndoOp) -> Option<WalOp> {
    let index_def = |i: &Index, registered: bool| IndexDef {
        name: i.name.clone(),
        columns: i.columns.iter().map(|&c| c as u32).collect(),
        unique: i.unique,
        registered,
    };
    match op {
        UndoOp::CreateTable { name } => {
            let t = catalog.table(name).ok()?;
            (!t.schema.temporary).then(|| WalOp::CreateTable {
                schema: TableSchema::clone(&t.schema),
            })
        }
        // The table is out of the catalog now; `registered` is
        // reconstructed as "non-auto" (`CREATE INDEX` registers,
        // constraint backings don't).
        UndoOp::DropTable { table } => (!table.schema.temporary).then(|| WalOp::DropTable {
            image: TableImage {
                schema: TableSchema::clone(&table.schema),
                next_row_id: table.next_row_id(),
                rows: table
                    .iter(snap)
                    .map(|(id, row)| (id, row.to_vec()))
                    .collect(),
                indexes: table
                    .index_iter()
                    .map(|i| index_def(i, !is_auto_index(&table.schema, &i.name)))
                    .collect(),
            },
        }),
        UndoOp::CreateIndex { table, index } => {
            if is_temp(catalog, table) {
                return None;
            }
            let t = catalog.table(table).ok()?;
            let i = t
                .index_iter()
                .find(|i| i.name.eq_ignore_ascii_case(index))?;
            Some(WalOp::CreateIndex {
                table: table.clone(),
                def: index_def(i, catalog.index_table(&i.name).is_some()),
            })
        }
        // Only registered indexes are reachable by DROP INDEX.
        UndoOp::DropIndex { table, index } => {
            (!is_temp(catalog, table)).then(|| WalOp::DropIndex {
                table: table.clone(),
                def: index_def(index, true),
            })
        }
        UndoOp::CreateSequence { name } => {
            let s = catalog.sequence(name).ok()?;
            Some(WalOp::CreateSequence {
                name: s.name.clone(),
                current: s.peek(),
                increment: s.increment,
            })
        }
        UndoOp::DropSequence { seq } => Some(WalOp::DropSequence {
            name: seq.name.clone(),
            current: seq.peek(),
            increment: seq.increment,
        }),
        // Framed straight from the undo log.
        UndoOp::Insert { .. } | UndoOp::Update { .. } | UndoOp::Delete { .. } => None,
        // Not crash-durable: procedure and view bodies are ASTs.
        UndoOp::CreateProcedure { .. }
        | UndoOp::DropProcedure { .. }
        | UndoOp::CreateView { .. }
        | UndoOp::DropView { .. } => None,
        // No redo needed: the Commit record's sequence snapshot carries
        // the cursor; draws only matter for in-memory undo.
        UndoOp::SequenceDraw { .. } => None,
    }
}

/// Is this index one that `Table::new` re-creates automatically from the
/// schema (primary-key or single-column UNIQUE backing)?
fn is_auto_index(schema: &TableSchema, index_name: &str) -> bool {
    if index_name.eq_ignore_ascii_case(&format!("{}_pk", schema.name)) {
        return true;
    }
    schema.columns.iter().any(|c| {
        c.unique
            && !c.primary_key
            && index_name.eq_ignore_ascii_case(&format!("{}_{}_unique", schema.name, c.name))
    })
}

// ---------------------------------------------------------------- replay

fn column_names(schema: &TableSchema, positions: &[u32]) -> Vec<String> {
    positions
        .iter()
        .filter_map(|&p| schema.columns.get(p as usize).map(|c| c.name.clone()))
        .collect()
}

pub(crate) fn install_image(catalog: &mut Catalog, image: &TableImage) {
    if catalog.has_table(&image.schema.name) {
        return;
    }
    let mut t = Table::new(image.schema.clone(), Arc::clone(catalog.mvcc()));
    for def in &image.indexes {
        if t.has_index(&def.name) {
            continue; // auto-created by Table::new
        }
        let cols = column_names(&image.schema, &def.columns);
        let _ = t.create_index(def.name.clone(), &cols, def.unique);
    }
    for (id, row) in &image.rows {
        t.restore(*id, row.clone());
    }
    t.set_next_row_id(image.next_row_id);
    let name = image.schema.name.clone();
    if catalog.add_table(t).is_ok() {
        for def in &image.indexes {
            if def.registered {
                let _ = catalog.register_index(&def.name, &name);
            }
        }
    }
}

/// Apply one op forward (redo). Individual failures are ignored: redo is
/// idempotent over already-present state by construction.
pub(crate) fn apply_redo(catalog: &mut Catalog, op: &WalOp) {
    match op {
        WalOp::Insert {
            table,
            row_id,
            after,
        } => {
            if let Ok(mut t) = catalog.table_mut(table) {
                t.restore(*row_id, after.clone());
            }
        }
        WalOp::Update {
            table,
            row_id,
            after,
            ..
        } => {
            if let Ok(mut t) = catalog.table_mut(table) {
                t.raw_replace(*row_id, after.clone());
            }
        }
        WalOp::Delete { table, row_id, .. } => {
            if let Ok(mut t) = catalog.table_mut(table) {
                t.remove(*row_id);
            }
        }
        WalOp::CreateTable { schema } => {
            let table = Table::new(schema.clone(), Arc::clone(catalog.mvcc()));
            let _ = catalog.add_table(table);
        }
        WalOp::DropTable { image } => {
            let _ = catalog.remove_table(&image.schema.name);
        }
        WalOp::CreateIndex { table, def } => {
            if let Ok(mut t) = catalog.table_mut(table) {
                if !t.has_index(&def.name) {
                    let cols = column_names(&t.schema, &def.columns);
                    let _ = t.create_index(def.name.clone(), &cols, def.unique);
                }
            }
            if def.registered {
                let _ = catalog.register_index(&def.name, table);
            }
        }
        WalOp::DropIndex { table, def } => {
            catalog.unregister_index(&def.name);
            if let Ok(mut t) = catalog.table_mut(table) {
                let _ = t.drop_index(&def.name);
            }
        }
        WalOp::CreateSequence {
            name,
            current,
            increment,
        } => {
            let _ = catalog.add_sequence(Sequence::new(name.clone(), *current, *increment));
        }
        WalOp::DropSequence { name, .. } => {
            let _ = catalog.remove_sequence(name);
        }
    }
}

/// Apply one op backward (undo of an uncommitted/aborted transaction).
fn apply_undo(catalog: &mut Catalog, op: &WalOp) {
    match op {
        WalOp::Insert { table, row_id, .. } => {
            if let Ok(mut t) = catalog.table_mut(table) {
                t.remove(*row_id);
            }
        }
        WalOp::Update {
            table,
            row_id,
            before,
            ..
        } => {
            if let Ok(mut t) = catalog.table_mut(table) {
                t.raw_replace(*row_id, before.clone());
            }
        }
        WalOp::Delete {
            table,
            row_id,
            before,
        } => {
            if let Ok(mut t) = catalog.table_mut(table) {
                t.restore(*row_id, before.clone());
            }
        }
        WalOp::CreateTable { schema } => {
            let _ = catalog.remove_table(&schema.name);
        }
        WalOp::DropTable { image } => {
            install_image(catalog, image);
        }
        WalOp::CreateIndex { table, def } => {
            catalog.unregister_index(&def.name);
            if let Ok(mut t) = catalog.table_mut(table) {
                let _ = t.drop_index(&def.name);
            }
        }
        WalOp::DropIndex { table, def } => {
            if let Ok(mut t) = catalog.table_mut(table) {
                if !t.has_index(&def.name) {
                    let cols = column_names(&t.schema, &def.columns);
                    let _ = t.create_index(def.name.clone(), &cols, def.unique);
                }
            }
            if def.registered {
                let _ = catalog.register_index(&def.name, table);
            }
        }
        WalOp::CreateSequence { name, .. } => {
            let _ = catalog.remove_sequence(name);
        }
        WalOp::DropSequence {
            name,
            current,
            increment,
        } => {
            let _ = catalog.add_sequence(Sequence::new(name.clone(), *current, *increment));
        }
    }
}

/// Rebuild a catalog from a snapshot.
fn catalog_from_snapshot(snap: &CheckpointSnapshot) -> Catalog {
    let mut catalog = Catalog::new();
    for image in &snap.tables {
        install_image(&mut catalog, image);
    }
    for (name, current, increment) in &snap.sequences {
        let _ = catalog.add_sequence(Sequence::new(name.clone(), *current, *increment));
    }
    catalog
}

/// A transaction the crash interrupted *after* its `Prepare` record but
/// before a decision terminator: its ops are durable (and stay applied
/// in the replayed catalog) but only the coordinator's decision log
/// knows whether they stand. [`resolve_in_doubt`] finishes the job.
#[derive(Debug, Clone)]
pub struct InDoubtTxn {
    /// Participant-local transaction id.
    pub txn: u64,
    /// Coordinator's global transaction id (decision-log key).
    pub gid: u64,
    /// Catalog epoch carried by the prepare record.
    pub epoch: u64,
    /// Sequence states at prepare time — applied only on commit.
    pub sequences: Vec<(String, i64, i64)>,
    /// The transaction's redone ops, in LSN order, still applied in the
    /// replayed catalog. An abort decision undoes them in reverse.
    pub ops: Vec<(u64, WalOp)>,
}

/// Everything [`crate::Database::recover`] needs to resurrect a database.
#[derive(Debug)]
pub struct RecoveryOutcome {
    pub catalog: Catalog,
    /// First LSN the revived WAL should assign.
    pub next_lsn: u64,
    /// First transaction id the revived WAL should assign.
    pub next_txn: u64,
    /// Byte length of the valid log prefix.
    pub valid_len: usize,
    /// True when a torn tail or corrupt record was discarded.
    pub truncated: bool,
    /// Committed transactions replayed.
    pub committed: u64,
    /// Uncommitted or aborted transactions rolled back.
    pub rolled_back: u64,
    /// Individual ops redone during replay.
    pub replayed_ops: u64,
    /// Prepared-but-undecided transactions awaiting a coordinator
    /// decision. Their ops are applied in `catalog`; the caller MUST run
    /// [`resolve_in_doubt`] before serving traffic from it.
    pub in_doubt: Vec<InDoubtTxn>,
    /// Torn-tail bytes dropped by the scan, surfaced for observability.
    pub dropped_bytes: u64,
}

/// The catalog a replay starts from and the log position it is
/// consistent with: the snapshot in the log's last `Checkpoint` record,
/// or the page store's newest epoch ([`crate::PagedEngine::load_base`]).
#[derive(Debug)]
pub struct BaseLoad {
    pub catalog: Catalog,
    /// Catalog epoch at the anchor (floor for the replayed epoch).
    pub catalog_epoch: u64,
    /// WAL position the base is consistent with; replay starts past it.
    pub anchor_lsn: u64,
}

/// The base of a log-only recovery: the snapshot in the log's last
/// valid `Checkpoint` record, or an empty catalog when there is none.
pub(crate) fn checkpoint_base(scanned: &ScannedLog) -> BaseLoad {
    let checkpoint = scanned.records.iter().rev().find_map(|(lsn, r)| match r {
        WalRecord::Checkpoint(snap) => Some((*lsn, snap)),
        _ => None,
    });
    match checkpoint {
        // Records at or before the checkpoint's LSN are folded into the
        // snapshot; the byte order of a log is its LSN order.
        Some((lsn, snap)) => BaseLoad {
            catalog: catalog_from_snapshot(snap),
            catalog_epoch: snap.epoch,
            anchor_lsn: lsn,
        },
        None => BaseLoad {
            catalog: Catalog::new(),
            catalog_epoch: 0,
            anchor_lsn: 0,
        },
    }
}

/// Replay a raw log: load the last valid checkpoint, redo every op after
/// it in LSN order, then undo — in reverse LSN order — the ops of
/// transactions that neither committed nor aborted.
pub fn replay(bytes: &[u8]) -> RecoveryOutcome {
    let scanned = scan(bytes);
    replay_scanned(checkpoint_base(&scanned), &scanned)
}

/// [`replay`] over an already scanned log from an explicit base: only
/// ops past `base.anchor_lsn` are redone, everything at or before it is
/// already folded into `base.catalog`.
pub(crate) fn replay_scanned(base: BaseLoad, scanned: &ScannedLog) -> RecoveryOutcome {
    let BaseLoad {
        mut catalog,
        catalog_epoch: mut max_epoch,
        anchor_lsn,
    } = base;
    let mut open: HashMap<u64, Vec<(u64, WalOp)>> = HashMap::new();
    // gid, epoch, and the prepare-time sequence states, keyed by txn id.
    type PreparedState = (u64, u64, Vec<(String, i64, i64)>);
    let mut prepared: HashMap<u64, PreparedState> = HashMap::new();
    let mut max_lsn = 0u64;
    let mut max_txn = 0u64;
    let mut committed = 0u64;
    let mut rolled_back = 0u64;
    let mut replayed_ops = 0u64;

    for (lsn, record) in scanned.records.iter() {
        max_lsn = max_lsn.max(*lsn);
        match record {
            WalRecord::Checkpoint(_) => {}
            WalRecord::Begin { txn } => {
                max_txn = max_txn.max(*txn);
            }
            WalRecord::Op { txn, op } => {
                max_txn = max_txn.max(*txn);
                // Ops at or before the anchor are already folded into
                // the base image; only replay past it.
                if *lsn <= anchor_lsn {
                    continue;
                }
                apply_redo(&mut catalog, op);
                replayed_ops += 1;
                open.entry(*txn).or_default().push((*lsn, op.clone()));
            }
            WalRecord::Commit {
                txn,
                epoch,
                sequences,
            } => {
                max_txn = max_txn.max(*txn);
                max_epoch = max_epoch.max(*epoch);
                prepared.remove(txn);
                if open.remove(txn).is_some() {
                    committed += 1;
                }
                if *lsn <= anchor_lsn {
                    // Pre-anchor sequence states are older than the base
                    // image's; applying them would regress the counters.
                    continue;
                }
                for (name, current, _inc) in sequences {
                    if let Ok(s) = catalog.sequence(name) {
                        s.set_current(*current);
                    }
                }
            }
            WalRecord::Abort { txn } => {
                max_txn = max_txn.max(*txn);
                prepared.remove(txn);
                if let Some(mut ops) = open.remove(txn) {
                    rolled_back += 1;
                    while let Some((_, op)) = ops.pop() {
                        apply_undo(&mut catalog, &op);
                    }
                }
            }
            WalRecord::Prepare {
                txn,
                gid,
                epoch,
                sequences,
            } => {
                max_txn = max_txn.max(*txn);
                max_epoch = max_epoch.max(*epoch);
                prepared.insert(*txn, (*gid, *epoch, sequences.clone()));
            }
        }
    }

    // Prepared-but-undecided transactions are NOT losers: their ops stay
    // applied and the caller resolves them against the coordinator's
    // decision log ([`resolve_in_doubt`]). Everything else without a
    // terminator is a loser and gets undone below.
    let mut in_doubt = Vec::new();
    for (txn, (gid, epoch, sequences)) in prepared {
        let ops = open.remove(&txn).unwrap_or_default();
        in_doubt.push(InDoubtTxn {
            txn,
            gid,
            epoch,
            sequences,
            ops,
        });
    }
    // Deterministic resolution order regardless of hash-map iteration.
    in_doubt.sort_by_key(|t| t.txn);

    // Loser transactions: no commit, no abort — the crash interrupted
    // them. Undo all their ops in reverse global LSN order.
    let mut losers: Vec<(u64, WalOp)> = open.into_values().flatten().collect();
    if !losers.is_empty() {
        rolled_back += 1;
        losers.sort_by_key(|(lsn, _)| *lsn);
        for (_, op) in losers.iter().rev() {
            apply_undo(&mut catalog, op);
        }
    }

    // The recovered epoch must exceed anything a pre-crash plan could
    // have been bound against. `max_epoch` covers committed history;
    // replay's own bumps cover the rest; the +1 makes it strict.
    let epoch_floor = max_epoch.max(catalog.epoch()) + 1;
    catalog.force_epoch(epoch_floor);

    RecoveryOutcome {
        catalog,
        next_lsn: max_lsn + 1,
        next_txn: max_txn + 1,
        valid_len: scanned.valid_len,
        truncated: scanned.truncated,
        committed,
        rolled_back,
        replayed_ops,
        in_doubt,
        dropped_bytes: scanned.dropped_bytes,
    }
}

/// What [`resolve_in_doubt`] did, plus the decision terminators the
/// caller must append to the revived log so the next recovery finds
/// every transaction decided.
#[derive(Debug, Default)]
pub struct InDoubtResolution {
    /// `Commit` / `Abort` terminators to append, in resolution order.
    pub records: Vec<WalRecord>,
    /// In-doubt transactions resolved to commit.
    pub committed: u64,
    /// In-doubt transactions resolved to abort (presumed abort included).
    pub aborted: u64,
}

/// Resolve replay's in-doubt transactions against a coordinator
/// decision: `decide` returns `true` to commit (the 2PC presumed-abort
/// rule means "no decision on record" must map to `false`). Commit
/// applies the prepare-time sequence states; abort undoes the
/// transactions' ops in reverse global LSN order. An error from `decide`
/// (e.g. the decision log is unreachable after retries) aborts the whole
/// recovery — guessing would break cross-shard atomicity.
pub fn resolve_in_doubt(
    catalog: &mut Catalog,
    in_doubt: Vec<InDoubtTxn>,
    mut decide: impl FnMut(&InDoubtTxn) -> SqlResult<bool>,
) -> SqlResult<InDoubtResolution> {
    let mut out = InDoubtResolution::default();
    let mut abort_ops: Vec<(u64, WalOp)> = Vec::new();
    for txn in in_doubt {
        if decide(&txn)? {
            for (name, current, _inc) in &txn.sequences {
                if let Ok(s) = catalog.sequence(name) {
                    s.set_current(*current);
                }
            }
            out.records.push(WalRecord::Commit {
                txn: txn.txn,
                epoch: txn.epoch,
                sequences: txn.sequences,
            });
            out.committed += 1;
        } else {
            abort_ops.extend(txn.ops);
            out.records.push(WalRecord::Abort { txn: txn.txn });
            out.aborted += 1;
        }
    }
    abort_ops.sort_by_key(|(lsn, _)| *lsn);
    for (_, op) in abort_ops.iter().rev() {
        apply_undo(catalog, op);
    }
    Ok(out)
}

// ---------------------------------------------------------------- manager

/// How much of an append actually reaches the store — crash faults chop
/// the buffer to model a process dying mid-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendMode {
    /// All records, fully framed.
    Full,
    /// All but roughly half of the final record's bytes: a torn tail.
    Torn,
}

/// Shared state of the group-commit sequencer. All LSN assignment and
/// byte accumulation happens under this mutex, so the byte order of the
/// log always equals LSN order.
#[derive(Debug, Default)]
struct GroupState {
    /// Framed bytes of the generation currently accumulating. Appends
    /// frame their records in place here; the buffer is reused across
    /// appends and keeps at most [`APPEND_BUF_KEEP`] bytes of capacity.
    buf: Vec<u8>,
    /// The empty buffer a flushing leader swaps in for the generation it
    /// takes, and gets back once the write lands.
    spare: Vec<u8>,
    /// Commit records contained in `buf` (for the commits counter).
    buf_commits: u64,
    /// Generation currently accumulating; bumped when a leader takes the
    /// buffer to flush it.
    gen: u64,
    /// Is a leader currently flushing a taken generation?
    flushing: bool,
    /// Highest generation whose flush has completed (ok or failed).
    done_gen: u64,
    /// Generations whose flush failed: every member of such a generation
    /// must report failure so its caller rolls back its in-memory
    /// effects. Only ever populated by genuine store errors, so growth is
    /// not a concern.
    failed: Vec<u64>,
}

/// Capacity an append buffer keeps once its bytes are written. A large
/// append (a bulk load) grows the buffer past it; it shrinks back after
/// the write, so one big statement does not pin its encoding.
const APPEND_BUF_KEEP: usize = 64 * 1024;

/// Empty a written append buffer for reuse, capping what it keeps.
fn recycle(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(APPEND_BUF_KEEP);
}

/// The per-database WAL manager: assigns LSNs and transaction ids,
/// encodes and appends records, and writes checkpoints.
///
/// Appends go through a *group-commit sequencer*: records arriving from
/// concurrent statements are coalesced into one store append per flush
/// window. The window is measured in scheduler yields (virtual ticks,
/// like the fault clock) so single-threaded behavior is untouched at the
/// default window of 0 — an uncontended append with an empty buffer
/// bypasses grouping entirely and hits the store directly.
#[derive(Debug)]
pub struct Wal {
    store: Arc<dyn LogStore>,
    next_lsn: AtomicU64,
    next_txn: AtomicU64,
    /// The owning database's shared state, for the WAL counters.
    mvcc: Arc<MvccShared>,
    /// Explicit transactions with a logged `Begin` but no terminator yet.
    active_txns: AtomicU64,
    /// Transactions sitting in the 2PC prepared window: a `Prepare`
    /// record is on the log but the coordinator's decision has not been
    /// applied yet. Checkpointing while this is non-zero would bake an
    /// undecided transaction into the snapshot, so `Database::checkpoint`
    /// refuses while it is non-zero.
    prepared_txns: AtomicU64,
    /// Flush window in scheduler yields a group-commit leader waits
    /// before taking the buffer. 0 disables the wait (but concurrent
    /// arrivals during a flush still coalesce into the next generation).
    group_window: AtomicU64,
    group: Mutex<GroupState>,
    /// Signalled when a flush generation completes or a leader steps down.
    group_done: std::sync::Condvar,
    /// Set (under the group mutex) once a torn append has put its
    /// truncated tail on the log: the modeled process is dead and the
    /// tear must stay the *last* bytes of the stream. Recovery stops
    /// scanning at the tear, so any append accepted after it would be
    /// acknowledged to its caller and then silently discarded — a
    /// durability violation. Concurrent appends that passed the
    /// injector's frozen check before the crash landed are refused here
    /// instead.
    sealed: AtomicBool,
}

impl Wal {
    /// Manager over `store`, continuing from the given LSN and
    /// transaction id and counting into `mvcc`'s counters. Its writes go
    /// after whatever the store holds; [`read_log`] gives a new log its
    /// [`LOG_HEADER`] first.
    pub fn new(
        store: Arc<dyn LogStore>,
        next_lsn: u64,
        next_txn: u64,
        mvcc: Arc<MvccShared>,
    ) -> Wal {
        Wal {
            store,
            next_lsn: AtomicU64::new(next_lsn.max(1)),
            next_txn: AtomicU64::new(next_txn.max(1)),
            mvcc,
            active_txns: AtomicU64::new(0),
            prepared_txns: AtomicU64::new(0),
            group_window: AtomicU64::new(0),
            group: Mutex::new(GroupState::default()),
            group_done: std::sync::Condvar::new(),
            sealed: AtomicBool::new(false),
        }
    }

    /// The backing store.
    pub fn store(&self) -> Arc<dyn LogStore> {
        Arc::clone(&self.store)
    }

    /// Highest LSN handed out so far (0 if none).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Seal the log: refuse every further append, as if the process died
    /// with this tail. Used when a paged checkpoint is killed mid-flight.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::Relaxed);
    }

    /// Drop every record with `lsn <= keep_after_lsn` from the head of
    /// the log — the paged engine's incremental checkpoint: once a page
    /// epoch is durable at anchor A(N), only the tail past the *previous*
    /// anchor is still needed (the extra window backs torn-page repair).
    /// Walks whole frames so the retained suffix stays self-framing.
    pub fn truncate_before(&self, keep_after_lsn: u64) -> SqlResult<()> {
        let _guard = self.group.lock();
        if self.sealed.load(Ordering::Relaxed) {
            return Err(crashed_error());
        }
        self.store.drop_range(&mut |bytes| {
            let start = header_len(bytes);
            let mut pos = start;
            while bytes.len() - pos >= 12 {
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                if bytes.len() - pos - 12 < len || len < 8 {
                    break; // torn or undecodable frame: keep it and the rest
                }
                let lsn = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().unwrap());
                if lsn > keep_after_lsn {
                    break;
                }
                pos += 12 + len;
            }
            start..pos
        })?;
        self.count(Counter::Checkpoints, 1);
        Ok(())
    }

    /// Allocate a transaction id.
    pub fn alloc_txn(&self) -> u64 {
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// An explicit transaction logged its `Begin`.
    pub fn note_txn_open(&self) {
        self.active_txns.fetch_add(1, Ordering::Relaxed);
    }

    /// An explicit transaction logged its `Commit`/`Abort`.
    pub fn note_txn_closed(&self) {
        self.active_txns.fetch_sub(1, Ordering::Relaxed);
    }

    /// Explicit transactions currently open on the log.
    pub fn active_txns(&self) -> u64 {
        self.active_txns.load(Ordering::Relaxed)
    }

    /// A transaction logged its `Prepare` and entered the in-doubt window.
    pub fn note_prepared(&self) {
        self.prepared_txns.fetch_add(1, Ordering::Relaxed);
        self.count(Counter::WalPrepares, 1);
    }

    /// A prepared transaction was decided (committed or aborted).
    pub fn note_prepared_resolved(&self) {
        self.prepared_txns.fetch_sub(1, Ordering::Relaxed);
    }

    /// Transactions currently sitting in the prepared (in-doubt) window.
    pub fn prepared_txns(&self) -> u64 {
        self.prepared_txns.load(Ordering::Relaxed)
    }

    /// Add `n` to one of the WAL's engine counters.
    fn count(&self, counter: Counter, n: u64) {
        self.mvcc.counters.add(counter, n);
    }

    /// Set the group-commit flush window, in scheduler yields a leader
    /// waits before taking the buffer. 0 (the default) disables grouping
    /// for uncontended appends entirely.
    pub fn set_group_window(&self, window: u64) {
        self.group_window.store(window, Ordering::Relaxed);
    }

    /// The configured group-commit flush window.
    pub fn group_window(&self) -> u64 {
        self.group_window.load(Ordering::Relaxed)
    }

    /// Frame what `write` writes at the end of `buf`, with fresh LSNs.
    /// Must be called with the group mutex held so byte order in the log
    /// equals LSN order. Returns the start of the last frame and the
    /// number of commit records, or `None` if nothing was framed.
    fn frame_locked(
        &self,
        buf: &mut Vec<u8>,
        write: impl FnOnce(&mut FrameWriter),
    ) -> Option<(usize, u64)> {
        let first = buf.len();
        let mut w = FrameWriter {
            buf,
            next_lsn: &self.next_lsn,
            first,
            last: first,
            commits: 0,
        };
        write(&mut w);
        (!w.is_empty()).then_some((w.last, w.commits))
    }

    /// One physical store append, with counter upkeep.
    fn store_write(&self, bytes: &[u8]) -> SqlResult<()> {
        self.store.append(bytes)?;
        self.count(Counter::WalAppends, 1);
        self.count(Counter::WalBytes, bytes.len() as u64);
        Ok(())
    }

    /// Frame `records` with fresh LSNs and append them. `Torn` mode
    /// chops the final record to model a mid-write crash.
    ///
    /// `Full` appends run through the group-commit sequencer: if other
    /// appends are pending or in flight, this one coalesces into a
    /// *generation* that a single leader thread writes with one store
    /// append, acknowledging every member once the shared write lands.
    /// A failed generation write fails every member, whose callers each
    /// roll back their own in-memory effects — all-or-nothing per
    /// member transaction is preserved because each member's records are
    /// individually framed and terminated (recovery never sees a group
    /// boundary; it replays the stream record by record).
    pub fn append(&self, records: &[WalRecord], mode: AppendMode) -> SqlResult<()> {
        self.append_with(mode, |w| {
            for r in records {
                w.record(r);
            }
        })
    }

    /// [`Wal::append`] for the records `write` frames. `write` runs under
    /// the group mutex and frames straight into the group buffer, so a
    /// statement's row ops are encoded from its undo entries with no
    /// intermediate record; an append that frames nothing writes nothing.
    pub(crate) fn append_with(
        &self,
        mode: AppendMode,
        write: impl FnOnce(&mut FrameWriter),
    ) -> SqlResult<()> {
        match mode {
            AppendMode::Torn => self.append_torn(write),
            AppendMode::Full => self.append_grouped(write),
        }
    }

    /// A torn append models the process dying mid-write, so its bytes
    /// must be the *last* thing on the log: any pending generation is
    /// flushed first (those members' records are complete and committed),
    /// then the truncated tail goes down. Recovery stops at the tear, so
    /// the group members stay durable and only the torn transaction is
    /// discarded — all-or-nothing per member.
    fn append_torn(&self, write: impl FnOnce(&mut FrameWriter)) -> SqlResult<()> {
        let mut state = self.group.lock();
        if self.sealed.load(Ordering::Relaxed) {
            return Err(crashed_error());
        }
        while state.flushing {
            state = self
                .group_done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if !state.buf.is_empty() {
            let commits = std::mem::take(&mut state.buf_commits);
            let gen = state.gen;
            state.gen += 1;
            state.done_gen = gen;
            // Holding the lock across the write is fine here: the
            // process is about to freeze, so throughput is irrelevant.
            if self.store_write(&state.buf).is_err() {
                state.failed.push(gen);
            } else {
                self.count(Counter::WalCommits, commits);
            }
            recycle(&mut state.buf);
            self.group_done.notify_all();
        }
        let Some((last, _)) = self.frame_locked(&mut state.buf, write) else {
            return Ok(());
        };
        // Keep a strict, non-empty prefix of the final record (every
        // framed record is ≥ 21 bytes, so half is always both).
        let keep = last + (state.buf.len() - last) / 2;
        let res = self.store_write(&state.buf[..keep]);
        recycle(&mut state.buf);
        // The tear is the last thing this "process" ever writes: seal
        // the log (still under the group mutex) so concurrent appends
        // that raced past the injector's frozen check cannot land bytes
        // after it — recovery stops at the tear and would silently drop
        // them despite their callers having been acknowledged.
        self.sealed.store(true, Ordering::Relaxed);
        drop(state);
        res
    }

    fn append_grouped(&self, write: impl FnOnce(&mut FrameWriter)) -> SqlResult<()> {
        let window = self.group_window.load(Ordering::Relaxed);
        let mut state = self.group.lock();
        // Checked under the group mutex: a torn append seals the log
        // before releasing it, so an append that arrives here after a
        // modeled process death is refused rather than written past the
        // tear (where recovery would never see it).
        if self.sealed.load(Ordering::Relaxed) {
            return Err(crashed_error());
        }

        // Window 0, nothing pending: append directly under the mutex.
        // This is the single-threaded path — byte-for-byte and
        // count-for-count identical to an ungrouped WAL.
        if window == 0 && !state.flushing && state.buf.is_empty() {
            let Some((_, commits)) = self.frame_locked(&mut state.buf, write) else {
                return Ok(());
            };
            let res = self.store_write(&state.buf);
            recycle(&mut state.buf);
            if res.is_ok() {
                self.count(Counter::WalCommits, commits);
            }
            return res;
        }

        // Join the accumulating generation.
        let my_gen = state.gen;
        let Some((_, commits)) = self.frame_locked(&mut state.buf, write) else {
            return Ok(());
        };
        state.buf_commits += commits;

        if state.flushing {
            // A leader is writing the previous generation; it keeps
            // flushing while the buffer refills, so it will pick this
            // generation up. Wait to be acknowledged.
            while state.done_gen < my_gen {
                state = self
                    .group_done
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            return if state.failed.contains(&my_gen) {
                Err(SqlError::Runtime("wal group append failed".into()))
            } else {
                Ok(())
            };
        }

        // Become the leader: hold the flush window open so concurrent
        // arrivals coalesce, then write generation after generation until
        // the buffer stays empty.
        state.flushing = true;
        drop(state);
        for _ in 0..window {
            std::thread::yield_now();
        }
        let mut my_result = Ok(());
        let mut state = self.group.lock();
        loop {
            // Take the generation, leaving the spare buffer to refill.
            let spare = std::mem::take(&mut state.spare);
            let mut bytes = std::mem::replace(&mut state.buf, spare);
            let commits = std::mem::take(&mut state.buf_commits);
            let gen = state.gen;
            state.gen += 1;
            drop(state);
            let res = self.store_write(&bytes);
            if res.is_ok() {
                self.count(Counter::WalCommits, commits);
            }
            recycle(&mut bytes);
            state = self.group.lock();
            state.spare = bytes;
            state.done_gen = gen;
            if res.is_err() {
                state.failed.push(gen);
            }
            if gen == my_gen {
                my_result = res;
            }
            self.group_done.notify_all();
            if state.buf.is_empty() {
                state.flushing = false;
                drop(state);
                // Wake torn appends waiting for the flusher to step down.
                self.group_done.notify_all();
                return my_result;
            }
        }
    }

    /// Write a checkpoint: snapshot the catalog and atomically replace
    /// the log with the single snapshot record. With `partial` set (the
    /// `DuringCheckpoint` crash), roughly half of the record is instead
    /// *appended* after the existing log — the old history stays intact,
    /// exactly like a crash before the atomic rename, and recovery falls
    /// back to it.
    pub fn write_checkpoint(&self, catalog: &Catalog, partial: bool) -> SqlResult<()> {
        // Serialized against appends so the checkpoint cannot interleave
        // with a group flush, and so the sealed flag is read consistently
        // (a torn tail must stay the last bytes on the log).
        let state = self.group.lock();
        if self.sealed.load(Ordering::Relaxed) {
            return Err(crashed_error());
        }
        let snap = snapshot_catalog(catalog);
        let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
        let mut log = LOG_HEADER.to_vec();
        frame(&mut log, lsn, |b| {
            put_record(b, &WalRecord::Checkpoint(snap))
        });
        if partial {
            // A mid-write checkpoint crash is a tear like any other:
            // the half-record is the last thing this process writes.
            let framed = &log[LOG_HEADER.len()..];
            let keep = (framed.len() / 2).max(1);
            let res = self.store.append(&framed[..keep]);
            self.sealed.store(true, Ordering::Relaxed);
            drop(state);
            return res.map(|_| ());
        }
        drop(state);
        self.store.reset(&log)?;
        self.count(Counter::Checkpoints, 1);
        self.count(Counter::WalBytes, log.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StoredRow;

    fn sample_ops() -> Vec<WalOp> {
        let schema = TableSchema::new(
            "t",
            vec![
                {
                    let mut c = Column::new("id", DataType::Int);
                    c.primary_key = true;
                    c
                },
                Column::new("v", DataType::Text),
            ],
            false,
        )
        .unwrap();
        vec![
            WalOp::CreateTable {
                schema: schema.clone(),
            },
            WalOp::Insert {
                table: "t".into(),
                row_id: 1,
                after: vec![Value::Int(1), Value::text("a")],
            },
            WalOp::Update {
                table: "t".into(),
                row_id: 1,
                before: vec![Value::Int(1), Value::text("a")],
                after: vec![Value::Int(1), Value::text("b")],
            },
            WalOp::Delete {
                table: "t".into(),
                row_id: 1,
                before: vec![Value::Int(1), Value::text("b")],
            },
            WalOp::CreateSequence {
                name: "s".into(),
                current: 10,
                increment: 2,
            },
        ]
    }

    #[test]
    fn records_roundtrip() {
        let ops = sample_ops();
        let mut recs: Vec<WalRecord> = vec![WalRecord::Begin { txn: 7 }];
        for op in ops {
            recs.push(WalRecord::Op { txn: 7, op });
        }
        recs.push(WalRecord::Commit {
            txn: 7,
            epoch: 3,
            sequences: vec![("s".into(), 12, 2)],
        });
        recs.push(WalRecord::Abort { txn: 8 });
        let mut log = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            log.extend_from_slice(&encode_record(i as u64 + 1, r));
        }
        let scanned = scan(&log);
        assert!(!scanned.truncated);
        assert_eq!(scanned.valid_len, log.len());
        assert_eq!(scanned.records.len(), recs.len());
        for (i, (lsn, rec)) in scanned.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(rec, &recs[i]);
        }
    }

    /// A statement's row undo entries, framed in place through
    /// `append_with`, put the same bytes on the log as the owned records
    /// they stand for through `encode_record`.
    #[test]
    fn undo_entries_frame_the_bytes_of_their_owned_records() {
        let schema = Arc::new(
            TableSchema::new(
                "t",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("v", DataType::Text),
                ],
                false,
            )
            .unwrap(),
        );
        let row = |cells: Vec<Value>| StoredRow::from(cells);
        let (a, b) = (
            row(vec![Value::Int(1), Value::text("a")]),
            row(vec![Value::Float(2.5), Value::Null]),
        );
        let undo = vec![
            UndoOp::Insert {
                table: Arc::clone(&schema),
                row_id: 1,
                row: Arc::clone(&a),
            },
            UndoOp::CreateSequence { name: "s".into() },
            UndoOp::Update {
                table: Arc::clone(&schema),
                row_id: 1,
                old: Arc::clone(&a),
                new: Arc::clone(&b),
            },
            UndoOp::Delete {
                table: Arc::clone(&schema),
                row_id: 1,
                row: Arc::clone(&b),
            },
        ];
        let seq = WalOp::CreateSequence {
            name: "s".into(),
            current: 1,
            increment: 1,
        };
        let commit = WalRecord::Commit {
            txn: 7,
            epoch: 3,
            sequences: vec![("s".into(), 1, 1)],
        };
        let store = MemLogStore::new();
        let wal = Wal::new(Arc::new(store.clone()), 1, 1, Arc::default());
        wal.append_with(AppendMode::Full, |w| {
            w.record(&WalRecord::Begin { txn: 7 });
            w.statement(7, &undo, &[(1, seq.clone())]);
            w.record(&commit);
        })
        .unwrap();
        let owned = [
            WalRecord::Begin { txn: 7 },
            WalRecord::Op {
                txn: 7,
                op: WalOp::Insert {
                    table: "t".into(),
                    row_id: 1,
                    after: a.to_vec(),
                },
            },
            WalRecord::Op { txn: 7, op: seq },
            WalRecord::Op {
                txn: 7,
                op: WalOp::Update {
                    table: "t".into(),
                    row_id: 1,
                    before: a.to_vec(),
                    after: b.to_vec(),
                },
            },
            WalRecord::Op {
                txn: 7,
                op: WalOp::Delete {
                    table: "t".into(),
                    row_id: 1,
                    before: b.to_vec(),
                },
            },
            commit,
        ];
        let mut expected = Vec::new();
        for (i, r) in owned.iter().enumerate() {
            expected.extend_from_slice(&encode_record(i as u64 + 1, r));
        }
        assert_eq!(store.bytes(), expected);
        let counters = &wal.mvcc.counters;
        assert_eq!(
            (
                counters.get(Counter::WalAppends),
                counters.get(Counter::WalCommits)
            ),
            (1, 1)
        );
    }

    /// The reused append buffer gives back what a large append grew it
    /// to, keeping at most `APPEND_BUF_KEEP`.
    #[test]
    fn append_buffer_capacity_is_capped() {
        let store = MemLogStore::new();
        let wal = Wal::new(Arc::new(store.clone()), 1, 1, Arc::default());
        let big = WalRecord::Op {
            txn: 1,
            op: WalOp::Insert {
                table: "t".into(),
                row_id: 1,
                after: vec![Value::text("x".repeat(4 * APPEND_BUF_KEEP))],
            },
        };
        wal.append(&[big], AppendMode::Full).unwrap();
        assert!(store.bytes().len() > 4 * APPEND_BUF_KEEP);
        assert!(wal.group.lock().buf.capacity() <= APPEND_BUF_KEEP);
        wal.append(&[WalRecord::Begin { txn: 2 }], AppendMode::Full)
            .unwrap();
        assert!(wal.group.lock().buf.capacity() > 0, "the buffer is reused");
    }

    /// The checksum is part of the log and page formats: these digests
    /// of `0, 1, 2, …` (as bytes) pin it at every code path's boundary —
    /// empty, the tail word, one word, just under, at and over one
    /// stripe, and a page's checksummed region.
    #[test]
    fn checksum_known_answers() {
        let pinned = [
            (0, 0xef46_db37_51d8_e999),
            (1, 0xd6b5_d81a_1f88_81f0),
            (7, 0xd784_1486_e3ff_f311),
            (8, 0x884a_1736_14b8_1b8d),
            (31, 0xcc4c_54ea_b9f2_2e24),
            (32, 0x6958_8587_ca7e_6ddd),
            (33, 0x8960_ee23_5458_2dfd),
            (4088, 0x739a_9f61_7a31_366a),
        ];
        for (len, digest) in pinned {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(checksum(&bytes), digest, "length {len}");
        }
    }

    /// Every single-bit flip of one frame over 4 KB — length, checksum
    /// and payload — is rejected: the scan keeps nothing of it.
    #[test]
    fn every_bit_flip_of_a_large_frame_is_rejected() {
        let record = WalRecord::Op {
            txn: 9,
            op: WalOp::Insert {
                table: "t".into(),
                row_id: 1,
                after: vec![Value::Int(1), Value::text("x".repeat(4096))],
            },
        };
        let frame = encode_record(1, &record);
        assert!(frame.len() >= 4096);
        assert_eq!(scan(&frame).records, vec![(1, record)]);
        let mut log = frame.clone();
        for bit in 0..frame.len() * 8 {
            log[bit / 8] ^= 1 << (bit % 8);
            let scanned = scan(&log);
            assert!(scanned.records.is_empty(), "flip of bit {bit} passed");
            assert!(scanned.truncated, "flip of bit {bit}");
            log[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// FNV-1a, the version 1 checksum, to build a version 1 log.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// A log of another format is refused with its version and left as
    /// it is; a log without a header is version 1, never a frame stream
    /// torn at 0. An empty log gets its header.
    #[test]
    fn logs_of_other_formats_are_refused_with_their_version() {
        let payload = &encode_record(1, &WalRecord::Begin { txn: 1 })[FRAME_HEADER..];
        let mut v1 = (payload.len() as u32).to_le_bytes().to_vec();
        v1.extend_from_slice(&fnv1a(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        let mut v3 = b"FWAL".to_vec();
        v3.extend_from_slice(&3u32.to_le_bytes());
        v3.extend_from_slice(&v1);
        for (bytes, version) in [(v1, 1), (v3, 3), (vec![0x46, 0x57], 1)] {
            let store = MemLogStore::from_bytes(bytes.clone());
            assert_eq!(
                read_log(&store),
                Err(SqlError::unsupported_format("log", version))
            );
            assert_eq!(store.bytes(), bytes);
        }
        let store = MemLogStore::new();
        assert_eq!(read_log(&store), Ok(Vec::new()));
        assert_eq!(read_log(&store), Ok(LOG_HEADER.to_vec()));
    }

    /// The header survives both rewrites of the log: a checkpoint's
    /// reset and an incremental truncation.
    #[test]
    fn log_rewrites_keep_the_header() {
        let store = MemLogStore::from_bytes(LOG_HEADER.to_vec());
        let wal = Wal::new(Arc::new(store.clone()), 1, 1, Arc::default());
        let begin = |txn| WalRecord::Begin { txn };
        wal.append(&[begin(1), begin(2), begin(3)], AppendMode::Full)
            .unwrap();
        wal.truncate_before(2).unwrap();
        let log = store.bytes();
        assert!(log.starts_with(&LOG_HEADER));
        assert_eq!(scan(&log).records, vec![(3, begin(3))]);
        assert_eq!(scan(&log).valid_len, log.len());
        wal.write_checkpoint(&Catalog::new(), false).unwrap();
        let log = store.bytes();
        assert!(log.starts_with(&LOG_HEADER));
        let records = scan(&log).records;
        assert!(matches!(records[..], [(4, WalRecord::Checkpoint(_))]));
    }

    #[test]
    fn bit_flip_truncates_at_corrupt_record() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(1, &WalRecord::Begin { txn: 1 }));
        let keep = log.len();
        log.extend_from_slice(&encode_record(2, &WalRecord::Abort { txn: 1 }));
        // Flip one bit inside the second record's payload.
        let flip_at = keep + 13;
        log[flip_at] ^= 0x10;
        let scanned = scan(&log);
        assert!(scanned.truncated);
        assert_eq!(scanned.valid_len, keep);
        assert_eq!(scanned.records.len(), 1);
    }

    #[test]
    fn torn_tail_detected() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_record(1, &WalRecord::Begin { txn: 1 }));
        let keep = log.len();
        let second = encode_record(
            2,
            &WalRecord::Commit {
                txn: 1,
                epoch: 0,
                sequences: vec![],
            },
        );
        log.extend_from_slice(&second[..second.len() / 2]);
        let scanned = scan(&log);
        assert!(scanned.truncated);
        assert_eq!(scanned.valid_len, keep);
    }

    #[test]
    fn replay_redo_commit_undo_loser() {
        let schema = TableSchema::new(
            "t",
            vec![{
                let mut c = Column::new("id", DataType::Int);
                c.primary_key = true;
                c
            }],
            false,
        )
        .unwrap();
        let mut log = Vec::new();
        let mut lsn = 0u64;
        let mut push = |log: &mut Vec<u8>, r: &WalRecord| {
            lsn += 1;
            log.extend_from_slice(&encode_record(lsn, r));
        };
        // txn 1 commits: create table + insert row 1.
        push(&mut log, &WalRecord::Begin { txn: 1 });
        push(
            &mut log,
            &WalRecord::Op {
                txn: 1,
                op: WalOp::CreateTable {
                    schema: schema.clone(),
                },
            },
        );
        push(
            &mut log,
            &WalRecord::Op {
                txn: 1,
                op: WalOp::Insert {
                    table: "t".into(),
                    row_id: 1,
                    after: vec![Value::Int(1)],
                },
            },
        );
        push(
            &mut log,
            &WalRecord::Commit {
                txn: 1,
                epoch: 2,
                sequences: vec![],
            },
        );
        // txn 2 never terminates: its insert must be undone.
        push(&mut log, &WalRecord::Begin { txn: 2 });
        push(
            &mut log,
            &WalRecord::Op {
                txn: 2,
                op: WalOp::Insert {
                    table: "t".into(),
                    row_id: 2,
                    after: vec![Value::Int(2)],
                },
            },
        );
        let outcome = replay(&log);
        assert_eq!(outcome.committed, 1);
        assert_eq!(outcome.rolled_back, 1);
        let t = outcome.catalog.table("t").unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.get(1).is_some());
        assert!(t.get(2).is_none());
        assert!(outcome.next_txn >= 3);
        assert!(outcome.catalog.epoch() > 2);
    }

    #[test]
    fn checkpoint_snapshot_roundtrip() {
        let mut catalog = Catalog::new();
        let schema = TableSchema::new(
            "o",
            vec![
                {
                    let mut c = Column::new("id", DataType::Int);
                    c.primary_key = true;
                    c
                },
                Column::new("x", DataType::Float),
            ],
            false,
        )
        .unwrap();
        let mut t = Table::new(schema, Default::default());
        let committed = Snapshot::committed();
        t.insert(&committed, vec![Value::Int(1), Value::Float(1.5)])
            .unwrap();
        t.insert(&committed, vec![Value::Int(2), Value::Null])
            .unwrap();
        t.create_index("o_x", &["x".into()], false).unwrap();
        catalog.add_table(t).unwrap();
        catalog.register_index("o_x", "o").unwrap();
        catalog.add_sequence(Sequence::new("s", 5, 1)).unwrap();

        let snap = snapshot_catalog(&catalog);
        let log = encode_record(1, &WalRecord::Checkpoint(snap));
        let outcome = replay(&log);
        let t2 = outcome.catalog.table("o").unwrap();
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.next_row_id(), 3);
        assert!(t2.has_index("o_x"));
        assert!(t2.has_index("o_pk"));
        assert_eq!(outcome.catalog.index_table("o_x"), Some("o"));
        assert_eq!(outcome.catalog.sequence("s").unwrap().peek(), 5);
    }

    #[test]
    fn empty_log_recovers_empty_catalog() {
        let outcome = replay(&[]);
        assert!(outcome.catalog.table_names().is_empty());
        assert!(!outcome.truncated);
        assert_eq!(outcome.next_lsn, 1);
    }
}
