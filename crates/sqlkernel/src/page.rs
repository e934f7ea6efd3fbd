//! Fixed-size checksummed pages with a slotted cell layout.
//!
//! Every on-disk page is exactly [`PAGE_SIZE`] bytes:
//!
//! ```text
//! ┌──────────────┬───────┬──────┬───────┬─────────┬───────┬─────────┐
//! │ checksum u64 │ magic │ kind │ slots │ page_no │ epoch │ page_lsn│
//! ├──────────────┴──┬────┴──────┴───────┴───┬─────┴───────┴─────────┤
//! │ slot dir (4B ea)│    free space         │ cells (grow downward) │
//! └─────────────────┴───────────────────────┴───────────────────────┘
//! ```
//!
//! The checksum is FNV-1a over everything after the checksum field, so a
//! single flipped bit anywhere in header or payload is detected. Each
//! slot is `(offset: u16, len: u16)`; cells are appended from the end of
//! the page downward, slots from the header upward — the classic slotted
//! page. The header also carries the *page LSN*: the WAL position the
//! page's contents are consistent with. The buffer pool refuses to write
//! back any dirty page whose LSN exceeds the WAL flush point
//! (write-ahead ordering), and recovery uses the mismatch between a
//! checksum-failing page and an intact previous-epoch image to repair
//! torn or bit-flipped pages from the log.
//!
//! Pages do not interpret their cells. The pager stores each table as a
//! byte stream (row count + encoded rows) chunked into cells: a row that
//! fits becomes one cell; oversized streams simply continue in the next
//! cell/page. Reassembly is concatenation in (page, slot) order, so the
//! page layer needs no fragment flags.

use crate::error::{SqlError, SqlResult};
use crate::wal::checksum;

/// Size of every page, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Byte offset where the checksummed region starts (the checksum field
/// itself is excluded from the digest).
const SUM_END: usize = 8;
/// Fixed header length; the slot directory starts here.
pub const HEADER_LEN: usize = 40;
/// Bytes of directory overhead per cell.
const SLOT_LEN: usize = 4;
/// Largest single cell a page can hold.
pub const MAX_CELL: usize = PAGE_SIZE - HEADER_LEN - SLOT_LEN;

const MAGIC: u32 = 0x4653_5047; // "FSPG" little-endian tag

/// What a page holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// One of the two ping-pong metadata slots (pages 0 and 1).
    Meta,
    /// A chunk of the serialized table directory.
    Directory,
    /// A chunk of one table's row stream.
    Data,
}

impl PageKind {
    fn to_byte(self) -> u8 {
        match self {
            PageKind::Meta => 1,
            PageKind::Directory => 2,
            PageKind::Data => 3,
        }
    }

    fn from_byte(b: u8) -> SqlResult<PageKind> {
        match b {
            1 => Ok(PageKind::Meta),
            2 => Ok(PageKind::Directory),
            3 => Ok(PageKind::Data),
            b => Err(corrupt(format!("bad page kind {b}"))),
        }
    }
}

/// The error every structural failure surfaces. Distinguishable by
/// message prefix so the recovery path can treat *any* parse failure of
/// a page as "this page is corrupt, try repair" — which is exactly the
/// right response whether the cause is a torn write, a flipped bit, or
/// garbage where a page was expected.
fn corrupt(detail: String) -> SqlError {
    SqlError::Runtime(format!("page: {detail}"))
}

/// Incrementally fills one page with cells, then seals it.
#[derive(Debug)]
pub struct PageBuilder {
    kind: PageKind,
    page_no: u64,
    /// `(offset, len)` per cell, in insertion order.
    slots: Vec<(u16, u16)>,
    /// Cell bytes already placed; `cell_floor` is the lowest used offset.
    buf: Vec<u8>,
    cell_floor: usize,
}

impl PageBuilder {
    /// Empty page of the given kind and number.
    pub fn new(kind: PageKind, page_no: u64) -> PageBuilder {
        PageBuilder {
            kind,
            page_no,
            slots: Vec::new(),
            buf: vec![0u8; PAGE_SIZE],
            cell_floor: PAGE_SIZE,
        }
    }

    /// Bytes still available for one more cell (slot overhead included).
    pub fn free(&self) -> usize {
        let used_front = HEADER_LEN + self.slots.len() * SLOT_LEN;
        (self.cell_floor - used_front).saturating_sub(SLOT_LEN)
    }

    /// Append one cell; `false` when it does not fit (callers start the
    /// next page and retry). Cells larger than [`MAX_CELL`] never fit.
    pub fn try_push(&mut self, cell: &[u8]) -> bool {
        if cell.len() > self.free() {
            return false;
        }
        let start = self.cell_floor - cell.len();
        self.buf[start..self.cell_floor].copy_from_slice(cell);
        self.slots.push((start as u16, cell.len() as u16));
        self.cell_floor = start;
        true
    }

    /// Number of cells pushed so far.
    pub fn cell_count(&self) -> usize {
        self.slots.len()
    }

    /// Seal the page: stamp epoch and page LSN, write the slot
    /// directory, and checksum the result. Always [`PAGE_SIZE`] bytes.
    pub fn finalize(mut self, epoch: u64, page_lsn: u64) -> Vec<u8> {
        self.buf[8..12].copy_from_slice(&MAGIC.to_le_bytes());
        self.buf[12] = self.kind.to_byte();
        self.buf[13] = 1; // format version
        self.buf[14..16].copy_from_slice(&(self.slots.len() as u16).to_le_bytes());
        self.buf[16..24].copy_from_slice(&self.page_no.to_le_bytes());
        self.buf[24..32].copy_from_slice(&epoch.to_le_bytes());
        self.buf[32..40].copy_from_slice(&page_lsn.to_le_bytes());
        for (i, (off, len)) in self.slots.iter().enumerate() {
            let at = HEADER_LEN + i * SLOT_LEN;
            self.buf[at..at + 2].copy_from_slice(&off.to_le_bytes());
            self.buf[at + 2..at + 4].copy_from_slice(&len.to_le_bytes());
        }
        let sum = checksum(&self.buf[SUM_END..]);
        self.buf[0..8].copy_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// A parsed, checksum-verified view over one page's bytes.
#[derive(Debug)]
pub struct PageView<'a> {
    buf: &'a [u8],
    kind: PageKind,
    slot_count: usize,
    page_no: u64,
    epoch: u64,
    page_lsn: u64,
}

impl<'a> PageView<'a> {
    /// Validate and open a page. Rejects — with a plain [`SqlError`] the
    /// repair path catches — short buffers, bad magic, checksum
    /// mismatches (torn writes, bit flips), and slot entries that point
    /// outside the cell area.
    pub fn parse(buf: &'a [u8]) -> SqlResult<PageView<'a>> {
        if buf.len() != PAGE_SIZE {
            return Err(corrupt(format!(
                "expected {PAGE_SIZE} bytes, got {}",
                buf.len()
            )));
        }
        let stored = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        if checksum(&buf[SUM_END..]) != stored {
            return Err(corrupt("checksum mismatch".into()));
        }
        if u32::from_le_bytes(buf[8..12].try_into().unwrap()) != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let kind = PageKind::from_byte(buf[12])?;
        let slot_count = u16::from_le_bytes(buf[14..16].try_into().unwrap()) as usize;
        let dir_end = HEADER_LEN + slot_count * SLOT_LEN;
        if dir_end > PAGE_SIZE {
            return Err(corrupt(format!(
                "slot directory overflows page ({slot_count} slots)"
            )));
        }
        let view = PageView {
            buf,
            kind,
            slot_count,
            page_no: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            epoch: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
            page_lsn: u64::from_le_bytes(buf[32..40].try_into().unwrap()),
        };
        // Validate every slot up front so `cell()` cannot panic.
        for i in 0..slot_count {
            let (off, len) = view.slot(i);
            if off < dir_end || off + len > PAGE_SIZE {
                return Err(corrupt(format!("slot {i} points outside the cell area")));
            }
        }
        Ok(view)
    }

    fn slot(&self, i: usize) -> (usize, usize) {
        let at = HEADER_LEN + i * SLOT_LEN;
        let off = u16::from_le_bytes(self.buf[at..at + 2].try_into().unwrap()) as usize;
        let len = u16::from_le_bytes(self.buf[at + 2..at + 4].try_into().unwrap()) as usize;
        (off, len)
    }

    /// The page kind.
    pub fn kind(&self) -> PageKind {
        self.kind
    }

    /// The page number stamped at write time (cross-checked by the pager
    /// against the number it asked for, catching misdirected writes).
    pub fn page_no(&self) -> u64 {
        self.page_no
    }

    /// The checkpoint epoch that wrote this page.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The WAL position this page's contents are consistent with.
    pub fn page_lsn(&self) -> u64 {
        self.page_lsn
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.slot_count
    }

    /// One cell's bytes (bounds pre-validated by [`PageView::parse`]).
    pub fn cell(&self, i: usize) -> &'a [u8] {
        let (off, len) = self.slot(i);
        &self.buf[off..off + len]
    }

    /// All cells concatenated in slot order — the stream-reassembly
    /// primitive used for table and directory payloads.
    pub fn concat_cells(&self, out: &mut Vec<u8>) {
        for i in 0..self.slot_count {
            out.extend_from_slice(self.cell(i));
        }
    }
}

/// Chunk an arbitrary byte stream into finalized pages of `kind`, using
/// page numbers yielded by `alloc`. Each row-sized piece of `stream` is
/// cut at cell granularity purely by capacity — reassembly is
/// concatenation. Returns `(page_no, bytes)` pairs in stream order.
pub fn pack_stream(
    kind: PageKind,
    stream: &[u8],
    epoch: u64,
    page_lsn: u64,
    alloc: impl FnMut() -> u64,
) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    let mut packer = StreamPacker::new(kind, epoch, page_lsn, alloc, |no, page| {
        out.push((no, page));
        Ok(())
    });
    packer.write(stream).expect("collecting pages cannot fail");
    packer.finish().expect("collecting pages cannot fail");
    out
}

/// [`pack_stream`] for a stream produced piecemeal: bytes go in through
/// [`StreamPacker::write`], and each page is sealed and handed to `put`
/// as soon as it is full, so the whole stream never exists at once. The
/// layout is `pack_stream`'s: one maximal cell per page, at least one page.
pub struct StreamPacker<A, P> {
    kind: PageKind,
    epoch: u64,
    page_lsn: u64,
    alloc: A,
    put: P,
    /// The open page's cell.
    cell: Vec<u8>,
    pages: Vec<u64>,
    len: u64,
}

impl<A, P> StreamPacker<A, P>
where
    A: FnMut() -> u64,
    P: FnMut(u64, Vec<u8>) -> SqlResult<()>,
{
    /// An empty stream of `kind` pages.
    pub fn new(kind: PageKind, epoch: u64, page_lsn: u64, alloc: A, put: P) -> Self {
        StreamPacker {
            kind,
            epoch,
            page_lsn,
            alloc,
            put,
            cell: Vec::with_capacity(MAX_CELL),
            pages: Vec::new(),
            len: 0,
        }
    }

    /// Append bytes to the stream, sealing every page they fill.
    pub fn write(&mut self, mut bytes: &[u8]) -> SqlResult<()> {
        while !bytes.is_empty() {
            if self.cell.len() == MAX_CELL {
                self.seal()?;
            }
            let take = (MAX_CELL - self.cell.len()).min(bytes.len());
            self.cell.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            self.len += take as u64;
        }
        Ok(())
    }

    fn seal(&mut self) -> SqlResult<()> {
        let page_no = (self.alloc)();
        let mut builder = PageBuilder::new(self.kind, page_no);
        let pushed = builder.try_push(&self.cell);
        debug_assert!(pushed, "a MAX_CELL-sized cell always fits");
        self.cell.clear();
        self.pages.push(page_no);
        (self.put)(page_no, builder.finalize(self.epoch, self.page_lsn))
    }

    /// Seal the last page; returns the stream length and its pages in
    /// stream order.
    pub fn finish(mut self) -> SqlResult<(u64, Vec<u64>)> {
        self.seal()?;
        Ok((self.len, self.pages))
    }
}

/// Reassemble a stream packed by [`pack_stream`]: parse each page,
/// verify its kind and stamped page number, and concatenate cells.
pub fn unpack_stream(kind: PageKind, pages: &[(u64, Vec<u8>)]) -> SqlResult<Vec<u8>> {
    let mut out = Vec::new();
    for (page_no, bytes) in pages {
        let view = PageView::parse(bytes)?;
        if view.kind() != kind {
            return Err(corrupt(format!(
                "expected {:?} page, found {:?}",
                kind,
                view.kind()
            )));
        }
        if view.page_no() != *page_no {
            return Err(corrupt(format!(
                "page stamped {} read from slot {page_no} (misdirected write)",
                view.page_no()
            )));
        }
        view.concat_cells(&mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slotted_cells_roundtrip() {
        let mut b = PageBuilder::new(PageKind::Data, 7);
        assert!(b.try_push(b"hello"));
        assert!(b.try_push(b""));
        assert!(b.try_push(&[0xAB; 100]));
        let bytes = b.finalize(3, 42);
        assert_eq!(bytes.len(), PAGE_SIZE);
        let v = PageView::parse(&bytes).unwrap();
        assert_eq!(v.kind(), PageKind::Data);
        assert_eq!(v.page_no(), 7);
        assert_eq!(v.epoch(), 3);
        assert_eq!(v.page_lsn(), 42);
        assert_eq!(v.cell_count(), 3);
        assert_eq!(v.cell(0), b"hello");
        assert_eq!(v.cell(1), b"");
        assert_eq!(v.cell(2), &[0xAB; 100]);
    }

    #[test]
    fn full_page_refuses_overflow() {
        let mut b = PageBuilder::new(PageKind::Data, 0);
        let cell = vec![1u8; MAX_CELL];
        assert!(b.try_push(&cell));
        assert!(!b.try_push(b"x"), "a full page must refuse more cells");
        let bytes = b.finalize(1, 1);
        let v = PageView::parse(&bytes).unwrap();
        assert_eq!(v.cell_count(), 1);
        assert_eq!(v.cell(0).len(), MAX_CELL);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut b = PageBuilder::new(PageKind::Directory, 9);
        b.try_push(b"payload bytes");
        let bytes = b.finalize(2, 11);
        // Flip a bit in the header, the slot directory, and the cell.
        for &at in &[9usize, 13, 15, HEADER_LEN + 1, PAGE_SIZE - 4] {
            let mut copy = bytes.clone();
            copy[at] ^= 0x04;
            assert!(
                PageView::parse(&copy).is_err(),
                "flip at byte {at} must be rejected"
            );
        }
    }

    #[test]
    fn torn_prefix_is_rejected() {
        let mut b = PageBuilder::new(PageKind::Data, 1);
        b.try_push(&[7u8; 200]);
        let bytes = b.finalize(1, 5);
        assert!(PageView::parse(&bytes[..PAGE_SIZE / 2]).is_err());
        // A torn write over old content: prefix of new, tail of old.
        let mut old = PageBuilder::new(PageKind::Data, 1);
        old.try_push(&[9u8; 300]);
        let mut torn = old.finalize(0, 1);
        torn[..PAGE_SIZE / 2].copy_from_slice(&bytes[..PAGE_SIZE / 2]);
        assert!(PageView::parse(&torn).is_err(), "half-new half-old page");
    }

    #[test]
    fn stream_packing_roundtrips_across_pages() {
        let stream: Vec<u8> = (0..11_000u32).map(|i| (i % 251) as u8).collect();
        let mut next = 10u64;
        let pages = pack_stream(PageKind::Data, &stream, 4, 99, || {
            next += 1;
            next
        });
        assert!(pages.len() >= 3, "11k bytes must span several 4k pages");
        let back = unpack_stream(PageKind::Data, &pages).unwrap();
        assert_eq!(back, stream);
    }

    #[test]
    fn empty_stream_packs_to_one_page() {
        let pages = pack_stream(PageKind::Data, &[], 1, 1, || 5);
        assert_eq!(pages.len(), 1);
        assert_eq!(
            unpack_stream(PageKind::Data, &pages).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn misdirected_write_is_caught_by_stamped_page_no() {
        let mut b = PageBuilder::new(PageKind::Data, 3);
        b.try_push(b"abc");
        let bytes = b.finalize(1, 1);
        let err = unpack_stream(PageKind::Data, &[(4, bytes)]).unwrap_err();
        assert!(err.to_string().contains("misdirected"));
    }
}
