//! Batch-at-a-time execution of compiled plans.
//!
//! Where the interpreter walks one row through the whole pipeline at a
//! time, this module runs each pipeline *stage* over a batch of rows:
//! the scan borrows stored rows by reference (no `Arc` refcount
//! traffic), the WHERE clause fills a **selection vector** of passing
//! row indexes in [`BATCH_SIZE`] chunks, and projection + ORDER BY keys
//! read storage rows *through* that selection vector — filter and
//! project are fused in the sense that no filtered intermediate row set
//! is ever materialized. Grouped queries run through a one-pass hash
//! aggregator ([`run_agg_plan`]) instead of the interpreter's
//! string-keyed aggregate map.
//!
//! All scratch space (selection vector, group-key buffer, aggregate
//! value buffer) lives in a per-connection [`BatchScratch`], so steady
//! state execution does no per-statement allocation for these buffers.
//!
//! **Semantics contract**: output rows, NULL handling, and errors are
//! the interpreter's, whatever access path the plan takes
//! (`docs/adr/0003-access-path-independent-results.md`). That is why
//! evaluation stays row-major *within* each pass — a stage processes
//! whole batches, but inside a batch rows are visited in arrival order,
//! so over rows in row id order the first row to raise an error is the
//! same row the interpreter would have raised it on. Stage order itself matches
//! the interpreter's stage order (WHERE over all rows, then grouping
//! keys over all rows, then aggregates group-major, then HAVING, then
//! the output stage of `emit_rows`), so cross-stage error precedence
//! is preserved too. The differential corpus in `tests/plan_cache.rs`
//! holds both executors byte-identical.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use crate::ast::JoinKind;
use crate::bound::{
    eval_bound_batch, filter_bound_batch, flatten_col_cmps, row_passes, select_rows, BoundCtx,
    BoundExpr,
};
use crate::catalog::Catalog;
use crate::counters::Counter;
use crate::db::QueryResult;
use crate::error::SqlResult;
use crate::exec::select::{cmp_keys, combine_agg_values, fold_agg_values, IntTotal};
use crate::plan::{
    bound_usize, Access, AggPlan, BoundAggSpec, Evals, InputPlan, JoinPlan, JoinSide, JoinStep,
    OrderKey, OutputPlan, SelectPlan,
};
use crate::storage::{Snapshot, SortKey, Table};
use crate::sync::TableReadGuard;
use crate::types::Value;

/// Rows per filter batch. Large enough to amortize per-batch overhead,
/// small enough that the selection vector chunk stays cache-resident.
pub const BATCH_SIZE: usize = 1024;

/// One FxHash round: rotate, xor in the word, multiply. The multiply
/// carries each input bit only upward, so the high bits of the result
/// are the well-mixed ones.
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Little-endian load of the first 8 bytes of `b`.
fn word64(b: &[u8]) -> u64 {
    u64::from_le_bytes(*b.first_chunk().expect("at least 8 bytes"))
}

/// Little-endian load of the first 4 bytes of `b`.
fn word32(b: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(
        *b.first_chunk().expect("at least 4 bytes"),
    ))
}

/// Minimal multiply-rotate hasher (FxHash-style) for the hash-join
/// maps. A join probes its map once per input row, and SipHash is the
/// single largest cost of that probe; this trades DoS resistance (moot
/// for hashing a user's own stored values) for a few instructions per
/// key.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    /// Each whole 8-byte chunk as one word, then the rest as one word
    /// padded with zeros — built from its bytes, so no buffer is copied.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(word64(chunk));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            self.write_u64(rest.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0, n);
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // Fold the high half into the low bits. The multiply in
        // `mix` only propagates entropy upward, and integer keys
        // hashed through f64 bit patterns (see `Value::hash`) have
        // all-zero low mantissa bits — without this fold every small
        // int would share its low 38 hash bits, and the bucket index
        // (taken from the low bits) would degenerate to one chain.
        self.0 ^ (self.0 >> 32)
    }
}

type FxMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// Per-connection reusable buffers for batch execution. Cleared (not
/// shrunk) between statements, so steady-state execution allocates
/// nothing here. Held by [`crate::db::Connection`] behind a `RefCell`;
/// re-entrancy is impossible because subqueries execute through the
/// interpreter (`run_select`), never through another compiled plan.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Selection vector: indexes (into the gathered row slice) of rows
    /// that passed the WHERE clause.
    sel: Vec<u32>,
    /// A batch's evaluated group keys, row-major, when the key is not
    /// one stored column.
    key_buf: Vec<Value>,
    /// Non-NULL aggregate argument values for the group being folded.
    agg_values: Vec<Value>,
}

/// Materialize the access path as *borrowed* rows, in the order
/// [`crate::exec::Probe::rows`] yields them (row id order unless the
/// walk serves the ORDER BY), ticking the scan counters and
/// `batched_rows`.
fn gather_rows<'t>(
    catalog: &Catalog,
    table: &'t Table,
    access: &Access,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
) -> SqlResult<Vec<&'t [Value]>> {
    let rows: Vec<&[Value]> = (access.probe(ctx, evals)?.rows(catalog, ctx.snap, table))
        .map(|(_, row)| &**row)
        .collect();
    catalog.count(Counter::BatchedRows, rows.len() as u64);
    Ok(rows)
}

/// Gather one join side as *borrowed* rows in row id order — the order
/// the interpreter's full scan of that side produces, whatever the
/// access path — applying the pushed-down prefilter conjuncts during the
/// walk and ticking the scan counters for the access path actually used.
/// Keys and bounds in a join side's access are plan constants (they come
/// from pushed column-vs-constant comparisons), so evaluation cannot
/// error on a row.
fn gather_side<'t>(
    catalog: &Catalog,
    table: &'t Table,
    side: &JoinSide,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
) -> SqlResult<Vec<&'t [Value]>> {
    let probe = side.access.probe(ctx, evals)?;
    Ok(probe
        .rows(catalog, ctx.snap, table)
        .map(|(_, row)| &**row)
        .filter(|r| row_passes(&side.prefilter, r))
        .collect())
}

/// Equi-key hash side of a join step. Single-column keys index the map
/// by borrowed `&Value` directly (no per-row allocation); composite
/// keys use borrowed slices. Rows with any NULL key column are never
/// inserted and NULL probes never match — SQL equality cannot match
/// NULL — which is also what gives LEFT/RIGHT pads their semantics.
enum JoinHash<'r> {
    One(FxMap<&'r Value, Vec<u32>>),
    Many(FxMap<Vec<&'r Value>, Vec<u32>>),
}

impl<'r> JoinHash<'r> {
    fn build(rows: &[&'r [Value]], cols: &[usize]) -> JoinHash<'r> {
        if let [c] = cols {
            let mut h: FxMap<&Value, Vec<u32>> = FxMap::default();
            for (i, r) in rows.iter().enumerate() {
                let k = &r[*c];
                if !k.is_null() {
                    h.entry(k).or_default().push(i as u32);
                }
            }
            JoinHash::One(h)
        } else {
            let mut h: FxMap<Vec<&Value>, Vec<u32>> = FxMap::default();
            for (i, r) in rows.iter().enumerate() {
                let key: Vec<&Value> = cols.iter().map(|&c| &r[c]).collect();
                if key.iter().any(|v| v.is_null()) {
                    continue;
                }
                h.entry(key).or_default().push(i as u32);
            }
            JoinHash::Many(h)
        }
    }

    /// Candidate row indexes for one probe row (empty on NULL keys).
    /// `probe` is a reusable key-assembly buffer for composite keys.
    fn candidates(&self, row: &'r [Value], cols: &[usize], probe: &mut Vec<&'r Value>) -> &[u32] {
        match self {
            JoinHash::One(h) => {
                let k = &row[cols[0]];
                if k.is_null() {
                    &[]
                } else {
                    h.get(k).map(Vec::as_slice).unwrap_or(&[])
                }
            }
            JoinHash::Many(h) => {
                probe.clear();
                probe.extend(cols.iter().map(|&c| &row[c]));
                if probe.iter().any(|v| v.is_null()) {
                    &[]
                } else {
                    h.get(probe.as_slice()).map(Vec::as_slice).unwrap_or(&[])
                }
            }
        }
    }
}

/// Emit the joined rows for one accumulated-left row given its
/// candidate right rows, replicating the interpreter's inner loop:
/// candidates in rowid order, residual conjuncts evaluated in flatten
/// order over the combined row (short-circuiting on the first false),
/// a LEFT pad inline when nothing matched. `skip_residual` is the
/// interpreter's fast pass — an equi-join whose ON had no residual.
#[allow(clippy::too_many_arguments)]
fn join_emit<I: IntoIterator<Item = u32>>(
    step: &JoinStep,
    l: &[Value],
    candidates: I,
    right: &[&[Value]],
    rw: usize,
    skip_residual: bool,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
    right_matched: &mut [bool],
    out: &mut Vec<Vec<Value>>,
) -> SqlResult<()> {
    let mut matched = false;
    for ri in candidates {
        let r = right[ri as usize];
        let mut row = Vec::with_capacity(l.len() + rw);
        row.extend_from_slice(l);
        row.extend_from_slice(r);
        let ok = if skip_residual {
            true
        } else {
            let rc = BoundCtx {
                row: Some(&row),
                ..*ctx
            };
            let mut pass = true;
            for cond in &step.residual {
                if !evals.pred(cond, &rc)? {
                    pass = false;
                    break;
                }
            }
            pass
        };
        if ok {
            matched = true;
            right_matched[ri as usize] = true;
            out.push(row);
        }
    }
    if !matched && step.kind == JoinKind::Left {
        let mut row = Vec::with_capacity(l.len() + rw);
        row.extend_from_slice(l);
        row.extend(std::iter::repeat_n(Value::Null, rw));
        out.push(row);
    }
    Ok(())
}

/// Index nested-loop step: probe the new side's B-tree index once per
/// accumulated-left row instead of scanning it. [`Table::index_eq`] is
/// visibility-aware (MVCC), compares keys with the same total order
/// `Value`'s `Eq`/`Hash` use, matches nothing for a NULL key, and yields
/// rowid-ascending — so the emitted rows are indistinguishable from the
/// hash path's. The candidate buffers are reused across left rows.
fn inl_join(
    catalog: &Catalog,
    step: &JoinStep,
    left: &[&[Value]],
    side: &JoinSide,
    table: &Table,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
) -> SqlResult<Vec<Vec<Value>>> {
    let (lcol, rcol) = step.pairs[0];
    let index = table.find_index(&[rcol]).expect("plan epoch guards index");
    catalog.count(Counter::IndexNlJoins, 1);
    catalog.count(Counter::JoinProbeRows, left.len() as u64);
    let skip_residual = step.residual.is_empty();
    let mut out: Vec<Vec<Value>> = Vec::new();
    let mut probe = SortKey(vec![Value::Null]);
    let (mut right, mut right_matched) = (Vec::new(), Vec::new());
    for l in left {
        probe.0[0] = l[lcol].clone();
        right.clear();
        right.extend(
            table
                .index_eq(ctx.snap, index, &probe)
                .map(|(_, r)| &**r)
                .filter(|r| row_passes(&side.prefilter, r)),
        );
        right_matched.clear();
        right_matched.resize(right.len(), false);
        join_emit(
            step,
            l,
            0..right.len() as u32,
            &right,
            side.width,
            skip_residual,
            ctx,
            evals,
            &mut right_matched,
            &mut out,
        )?;
    }
    Ok(out)
}

/// Execute one join step: combine the accumulated left rows with the
/// next side. Strategy is chosen here, at execution time, because the
/// accumulated left cardinality is only known now — and every strategy
/// (hash either direction, index nested loop, nested loop) emits
/// byte-identical rows, so the choice is free.
fn exec_join_step(
    catalog: &Catalog,
    step: &JoinStep,
    left: &[&[Value]],
    side: &JoinSide,
    table: &Table,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
) -> SqlResult<Vec<Vec<Value>>> {
    let rw = side.width;

    // CROSS: plain product, no ON clause to evaluate.
    if step.kind == JoinKind::Cross {
        let right = gather_side(catalog, table, side, ctx, evals)?;
        let mut out = Vec::with_capacity(left.len().saturating_mul(right.len()));
        for l in left {
            for r in &right {
                let mut row = Vec::with_capacity(l.len() + rw);
                row.extend_from_slice(l);
                row.extend_from_slice(r);
                out.push(row);
            }
        }
        return Ok(out);
    }

    // Index nested loop beats building a hash table when the outer side
    // is much smaller than the indexed side — probing k rows costs
    // O(k log n) against O(n) just to gather and hash the scan.
    if step.inl_eligible && left.len().saturating_mul(8) <= table.len() {
        return inl_join(catalog, step, left, side, table, ctx, evals);
    }

    let right = gather_side(catalog, table, side, ctx, evals)?;
    let mut out: Vec<Vec<Value>> = Vec::new();
    let mut right_matched = vec![false; right.len()];

    if step.pairs.is_empty() {
        // No equi pairs: nested loop with the full ON as residual.
        for l in left {
            join_emit(
                step,
                l,
                0..right.len() as u32,
                &right,
                rw,
                false,
                ctx,
                evals,
                &mut right_matched,
                &mut out,
            )?;
        }
    } else {
        catalog.count(Counter::HashJoins, 1);
        let skip_residual = step.residual.is_empty();
        let lcols: Vec<usize> = step.pairs.iter().map(|(i, _)| *i).collect();
        let rcols: Vec<usize> = step.pairs.iter().map(|(_, j)| *j).collect();
        let mut probe: Vec<&Value> = Vec::with_capacity(step.pairs.len());
        if left.len() < right.len() {
            // Build on the smaller accumulated left, probe the right
            // scan, then replay the matches left-major so the output
            // order is exactly the probe-left order the interpreter
            // produces.
            catalog.count(Counter::JoinBuildRows, left.len() as u64);
            catalog.count(Counter::JoinProbeRows, right.len() as u64);
            let hash = JoinHash::build(left, &lcols);
            let mut matches: Vec<(u32, u32)> = Vec::new();
            for (ri, r) in right.iter().enumerate() {
                for &li in hash.candidates(r, &rcols, &mut probe) {
                    matches.push((li, ri as u32));
                }
            }
            matches.sort_unstable();
            let mut pos = 0;
            for (li, l) in left.iter().enumerate() {
                let start = pos;
                while pos < matches.len() && matches[pos].0 as usize == li {
                    pos += 1;
                }
                join_emit(
                    step,
                    l,
                    matches[start..pos].iter().map(|&(_, ri)| ri),
                    &right,
                    rw,
                    skip_residual,
                    ctx,
                    evals,
                    &mut right_matched,
                    &mut out,
                )?;
            }
        } else {
            // Build on the right, probe left rows in order — the
            // interpreter's own shape.
            catalog.count(Counter::JoinBuildRows, right.len() as u64);
            catalog.count(Counter::JoinProbeRows, left.len() as u64);
            let hash = JoinHash::build(&right, &rcols);
            for l in left {
                let cands = hash.candidates(l, &lcols, &mut probe);
                join_emit(
                    step,
                    l,
                    cands.iter().copied(),
                    &right,
                    rw,
                    skip_residual,
                    ctx,
                    evals,
                    &mut right_matched,
                    &mut out,
                )?;
            }
        }
    }

    // RIGHT pads append at the end, in right-scan order — exactly where
    // the interpreter puts rows whose right side never matched.
    if step.kind == JoinKind::Right {
        for (ri, r) in right.iter().enumerate() {
            if !right_matched[ri] {
                let mut row = Vec::with_capacity(step.left_width + rw);
                row.extend(std::iter::repeat_n(Value::Null, step.left_width));
                row.extend_from_slice(r);
                out.push(row);
            }
        }
    }
    Ok(out)
}

/// Execute a compiled join chain: acquire every side's table guard up
/// front (sorted unique-name order, so concurrent compiled joins can
/// never deadlock through the writer-starvation gate), gather each
/// side in rowid order, and fold the steps left-to-right. Returns
/// owned combined rows; the guards drop on return.
fn run_join(
    catalog: &Catalog,
    jp: &JoinPlan,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
) -> SqlResult<Vec<Vec<Value>>> {
    let mut names: Vec<String> = jp
        .sides
        .iter()
        .map(|s| s.table.to_ascii_lowercase())
        .collect();
    names.sort();
    names.dedup();
    let mut guards: Vec<TableReadGuard<'_, Table>> = Vec::with_capacity(names.len());
    for n in &names {
        guards.push(catalog.table(n)?);
    }
    let tables: Vec<&Table> = jp
        .sides
        .iter()
        .map(|s| {
            let i = names
                .binary_search(&s.table.to_ascii_lowercase())
                .expect("guard acquired above");
            &*guards[i]
        })
        .collect();

    catalog.count(Counter::PushedPredicates, jp.pushed);

    let left0 = gather_side(catalog, tables[0], &jp.sides[0], ctx, evals)?;
    let mut cur = exec_join_step(
        catalog,
        &jp.steps[0],
        &left0,
        &jp.sides[1],
        tables[1],
        ctx,
        evals,
    )?;
    for (i, step) in jp.steps.iter().enumerate().skip(1) {
        let view: Vec<&[Value]> = cur.iter().map(Vec::as_slice).collect();
        let next = exec_join_step(
            catalog,
            step,
            &view,
            &jp.sides[i + 1],
            tables[i + 1],
            ctx,
            evals,
        )?;
        drop(view);
        cur = next;
    }
    Ok(cur)
}

/// Run the WHERE clause batch-at-a-time into the selection vector.
/// Returns the number of filter passes. With no filter the selection is
/// the identity — every gathered row, in arrival order.
fn fill_selection(
    filter: Option<&BoundExpr>,
    ctx: &BoundCtx<'_>,
    rows: &[&[Value]],
    evals: &mut Evals,
    sel: &mut Vec<u32>,
) -> SqlResult<u64> {
    sel.clear();
    let Some(pred) = filter else {
        sel.extend(0..rows.len() as u32);
        return Ok(0);
    };
    if rows.is_empty() {
        return Ok(0);
    }
    let mut cmps = Vec::new();
    let cmps = flatten_col_cmps(pred, ctx, &mut cmps).then_some(cmps.as_slice());
    let mut passes = 0u64;
    for (ci, chunk) in rows.chunks(BATCH_SIZE).enumerate() {
        passes += 1;
        evals.0 += chunk.len() as u64;
        filter_bound_batch(pred, cmps, ctx, chunk, (ci * BATCH_SIZE) as u32, sel)?;
    }
    Ok(passes)
}

/// Batch passes the fused projection stage amounts to: one pass per
/// projection and per row-sourced ORDER BY key, per [`BATCH_SIZE`]
/// chunk of the selection.
fn projection_passes(n_selected: usize, projections: usize, order: &[(OrderKey, bool)]) -> u64 {
    let row_keys = order
        .iter()
        .filter(|(k, _)| matches!(k, OrderKey::Row(_)))
        .count();
    (n_selected.div_ceil(BATCH_SIZE) as u64) * ((projections + row_keys) as u64)
}

/// The words a text group key is read as, each a plain load: up to 8
/// bytes, one word from two overlapping 4-byte loads (below 4 bytes, the
/// first, middle and last byte); above 8 bytes, each whole 8-byte chunk
/// and then the last 8 bytes, which overlap the chunks. Every byte lands
/// in some word, so two texts of one length are equal exactly when
/// their words are.
fn text_words(b: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let n = b.len();
    let (body, last) = match n {
        0 => (&b[..0], 0),
        1..=3 => (
            &b[..0],
            u64::from(b[0]) << 16 | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]),
        ),
        4..=8 => (&b[..0], word32(b) << 32 | word32(&b[n - 4..])),
        _ => (b, word64(&b[n - 8..])),
    };
    body.chunks_exact(8)
        .map(word64)
        .chain(std::iter::once(last))
}

/// Fold one group-key cell into the hash `h`. Cells equal under
/// `Value`'s `Eq` hash alike: Int and Float through their f64 bits, as
/// `Value::hash` does, and text through its length and [`text_words`].
fn key_hash(h: u64, cell: &Value) -> u64 {
    match cell {
        Value::Null => mix(h, 1),
        Value::Bool(b) => mix(h, 2 + u64::from(*b)),
        Value::Int(i) => mix(h, (*i as f64).to_bits()),
        Value::Float(f) => mix(h, f.to_bits()),
        Value::Text(s) => text_words(s.as_bytes()).fold(mix(h, s.len() as u64), mix),
    }
}

/// Whether two group-key cells are one key: `Value`'s `Eq`, with the
/// Text/Text and Int/Int pairs compared inline. Every other pair —
/// Int/Float among them — goes through `Value`'s `Eq` itself.
fn key_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Text(x), Value::Text(y)) => {
            x.len() == y.len() && text_words(x.as_bytes()).eq(text_words(y.as_bytes()))
        }
        (Value::Int(x), Value::Int(y)) => x == y,
        _ => a == b,
    }
}

/// A free slot's group id in a [`GroupTable`].
const FREE: u32 = u32::MAX;

/// The grouping table: open addressing with linear probing over
/// `(hash, group id)` slots, at most half full, doubling as it fills.
/// It holds no keys — `same(g)` compares with group `g`'s key where the
/// caller keeps it — so growing moves slots and hashes nothing again.
/// The hash is FxHash-style and unkeyed: keys crafted to collide make
/// probing slow, never wrong (DESIGN §11.3).
#[derive(Default)]
struct GroupTable {
    /// A power of two long from the first key on.
    slots: Vec<(u64, u32)>,
    groups: u32,
}

impl GroupTable {
    /// The id of the group whose key hashes to `h` and satisfies `same`,
    /// and whether it is new: ids are 0, 1, 2, … in first-seen order.
    fn id(&mut self, h: u64, same: impl Fn(usize) -> bool) -> (u32, bool) {
        if self.slots.len() < 2 * (self.groups as usize + 1) {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(h);
        loop {
            match self.slots[i] {
                (_, FREE) => {
                    let g = self.groups;
                    self.slots[i] = (h, g);
                    self.groups += 1;
                    return (g, true);
                }
                (sh, g) if sh == h && same(g as usize) => return (g, false),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The slot a hash starts probing at: its top bits, the ones [`mix`]
    /// mixes best.
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, FREE); len]);
        for (h, g) in old.into_iter().filter(|&(_, g)| g != FREE) {
            let mut i = self.home(h);
            while self.slots[i].1 != FREE {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = (h, g);
        }
    }
}

/// `SUM(col)` of one group: the float total in arrival order, the exact
/// total of Int values, and whether any value came, one was a Float, one
/// was not numeric.
#[derive(Clone, Copy, Default)]
struct SumAcc {
    total: f64,
    exact: IntTotal,
    seen: bool,
    float: bool,
    bad: bool,
}

impl SumAcc {
    fn add(&mut self, v: &Value) {
        match *v {
            Value::Null => {}
            Value::Int(i) => {
                self.total += i as f64;
                self.exact.add(i);
                self.seen = true;
            }
            Value::Float(f) => {
                self.total += f;
                self.float = true;
                self.seen = true;
            }
            _ => self.bad = true,
        }
    }
}

/// `AVG(col)` of one group: the float total, the count, and whether one
/// value was not numeric.
#[derive(Clone, Copy, Default)]
struct AvgAcc {
    total: f64,
    n: u64,
    bad: bool,
}

impl AvgAcc {
    fn add(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        match v.as_f64() {
            Some(f) => {
                self.total += f;
                self.n += 1;
            }
            None => self.bad = true,
        }
    }
}

/// `MIN`/`MAX` step: keep `v` when it is not NULL and `better` holds of
/// its order against the value kept so far.
fn keep(best: &mut Option<Value>, v: &Value, better: impl Fn(Ordering) -> bool) {
    if !v.is_null() && best.as_ref().is_none_or(|b| better(v.total_cmp(b))) {
        *best = Some(v.clone());
    }
}

/// One aggregate call site's running state for every group, indexed by
/// group id, for call sites that fold *inline during the grouping pass*
/// — the true one-pass path. Eligible call sites are `COUNT(*)` and
/// non-DISTINCT `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` over a bare stored
/// column; since those five are the only aggregates the binder admits,
/// every all-plain-column grouped query (the common shape by far)
/// aggregates in the same pass that assigns groups.
///
/// [`Accs::fold`] is infallible by construction: the aggregate errors
/// the interpreter can raise (`SUM`/`AVG` over a non-numeric value, an
/// integer `SUM` beyond `i64`) are recorded in the state and raised in
/// [`Accs::finish`], which runs group-major then spec-major — the exact
/// order the interpreter computes aggregates in — so the error surfaces
/// for the same (group, spec) with the same message.
enum Accs {
    /// `COUNT(*)`: member rows, NULLs included.
    CountStar(Vec<i64>),
    /// `COUNT(col)`: non-NULL members.
    Count(usize, Vec<i64>),
    Sum(usize, Vec<SumAcc>),
    Avg(usize, Vec<AvgAcc>),
    /// `MIN(col)` keeps the first of equals, `MAX(col)` the last —
    /// matching the interpreter's `min_by`/`max_by` tie behavior.
    Min(usize, Vec<Option<Value>>),
    Max(usize, Vec<Option<Value>>),
}

impl Accs {
    /// `Some` when this spec can fold inline during grouping.
    fn of(spec: &BoundAggSpec) -> Option<Accs> {
        let col = match &spec.arg {
            // `COUNT(*)`: DISTINCT is irrelevant without an argument.
            None if spec.name == "COUNT" => return Some(Accs::CountStar(Vec::new())),
            Some(BoundExpr::Column(c)) if !spec.distinct => *c,
            _ => return None,
        };
        Some(match spec.name.as_str() {
            "COUNT" => Accs::Count(col, Vec::new()),
            "SUM" => Accs::Sum(col, Vec::new()),
            "AVG" => Accs::Avg(col, Vec::new()),
            "MIN" => Accs::Min(col, Vec::new()),
            "MAX" => Accs::Max(col, Vec::new()),
            _ => return None,
        })
    }

    /// Start the next group's state.
    fn open(&mut self) {
        match self {
            Accs::CountStar(n) | Accs::Count(_, n) => n.push(0),
            Accs::Sum(_, s) => s.push(SumAcc::default()),
            Accs::Avg(_, s) => s.push(AvgAcc::default()),
            Accs::Min(_, b) | Accs::Max(_, b) => b.push(None),
        }
    }

    /// Fold one batch, in arrival order: row `rows[sel[k]]` belongs to
    /// group `ids[k]`. The call site's kind is matched once per batch.
    fn fold(&mut self, rows: &[&[Value]], sel: &[u32], ids: &[u32]) {
        let members = || (ids.iter().zip(sel)).map(|(&g, &i)| (g as usize, rows[i as usize]));
        match self {
            Accs::CountStar(n) => ids.iter().for_each(|&g| n[g as usize] += 1),
            Accs::Count(c, n) => {
                members().for_each(|(g, row)| n[g] += i64::from(!row[*c].is_null()))
            }
            Accs::Sum(c, s) => members().for_each(|(g, row)| s[g].add(&row[*c])),
            Accs::Avg(c, s) => members().for_each(|(g, row)| s[g].add(&row[*c])),
            Accs::Min(c, b) => {
                members().for_each(|(g, row)| keep(&mut b[g], &row[*c], Ordering::is_lt))
            }
            Accs::Max(c, b) => {
                members().for_each(|(g, row)| keep(&mut b[g], &row[*c], Ordering::is_ge))
            }
        }
    }

    /// Group `g`'s value — exactly what [`combine_agg_values`] gives over
    /// the same non-NULL values in member order.
    fn finish(&self, g: usize) -> SqlResult<Value> {
        use crate::error::SqlError;
        Ok(match self {
            Accs::CountStar(n) | Accs::Count(_, n) => Value::Int(n[g]),
            Accs::Sum(_, s) => match s[g] {
                SumAcc { bad: true, .. } => {
                    return Err(SqlError::Semantic("SUM() over non-numeric value".into()))
                }
                SumAcc { seen: false, .. } => Value::Null,
                SumAcc {
                    float: false,
                    exact,
                    ..
                } => exact.value()?,
                SumAcc { total, .. } => Value::Float(total),
            },
            Accs::Avg(_, s) => match s[g] {
                AvgAcc { bad: true, .. } => {
                    return Err(SqlError::Semantic("AVG() over non-numeric value".into()))
                }
                AvgAcc { n: 0, .. } => Value::Null,
                AvgAcc { total, n, .. } => Value::Float(total / n as f64),
            },
            Accs::Min(_, b) | Accs::Max(_, b) => b[g].clone().unwrap_or(Value::Null),
        })
    }
}

/// The groups of one grouped statement in first-seen order, built by
/// the grouping kernel one batch of rows at a time, in three passes:
/// hash every key of the batch, assign group ids in row order through
/// the [`GroupTable`] (opening a group at each new key), then fold the
/// batch into the groups' aggregate state spec-major.
struct Groups<'r> {
    table: GroupTable,
    /// Each group's first row: its representative, and where a key that
    /// is one stored column is read from, so no key is cloned.
    reprs: Vec<&'r [Value]>,
    /// Any other key, evaluated: `group_by.len()` cells a group.
    keys: Vec<Value>,
    /// One state per spec when every spec folds inline ([`Accs`]);
    /// otherwise `None`, and `members` keeps each group's rows for a
    /// fold after grouping (DISTINCT or computed arguments).
    accs: Option<Vec<Accs>>,
    members: Vec<Vec<u32>>,
}

impl<'r> Groups<'r> {
    fn new(specs: &[BoundAggSpec]) -> Groups<'r> {
        Groups {
            table: GroupTable::default(),
            reprs: Vec::new(),
            keys: Vec::new(),
            accs: specs.iter().map(Accs::of).collect(),
            members: Vec::new(),
        }
    }

    /// Open the next group's aggregate state.
    fn open(&mut self) {
        match &mut self.accs {
            Some(accs) => accs.iter_mut().for_each(Accs::open),
            None => self.members.push(Vec::new()),
        }
    }

    /// The kernel over one batch — rows `rows[sel[k]]`, at most
    /// [`BATCH_SIZE`] — whose key is the stored column `c`.
    fn by_column(
        &mut self,
        c: usize,
        rows: &[&'r [Value]],
        sel: &[u32],
        hashes: &mut [u64; BATCH_SIZE],
        ids: &mut [u32; BATCH_SIZE],
    ) {
        let (hashes, ids) = (&mut hashes[..sel.len()], &mut ids[..sel.len()]);
        for (h, &i) in hashes.iter_mut().zip(sel) {
            *h = key_hash(0, &rows[i as usize][c]);
        }
        for ((id, &h), &i) in ids.iter_mut().zip(&*hashes).zip(sel) {
            let row = rows[i as usize];
            let reprs = &self.reprs;
            let (g, new) = self.table.id(h, |g| key_eq(&reprs[g][c], &row[c]));
            if new {
                self.reprs.push(row);
                self.open();
            }
            *id = g;
        }
        self.fold(rows, sel, ids);
    }

    /// The kernel over one batch whose keys were evaluated into `keys`,
    /// `w` cells a row in `sel` order. A new group moves its key out.
    fn by_keys(
        &mut self,
        w: usize,
        keys: &mut [Value],
        rows: &[&'r [Value]],
        sel: &[u32],
        hashes: &mut [u64; BATCH_SIZE],
        ids: &mut [u32; BATCH_SIZE],
    ) {
        let (hashes, ids) = (&mut hashes[..sel.len()], &mut ids[..sel.len()]);
        for (k, h) in hashes.iter_mut().enumerate() {
            *h = keys[k * w..][..w].iter().fold(0, key_hash);
        }
        for (k, ((id, &h), &i)) in ids.iter_mut().zip(&*hashes).zip(sel).enumerate() {
            let key = &mut keys[k * w..][..w];
            let stored = &self.keys;
            let (g, new) = self.table.id(h, |g| {
                (stored[g * w..][..w].iter().zip(&*key)).all(|(a, b)| key_eq(a, b))
            });
            if new {
                (self.keys).extend(key.iter_mut().map(|v| std::mem::replace(v, Value::Null)));
                self.reprs.push(rows[i as usize]);
                self.open();
            }
            *id = g;
        }
        self.fold(rows, sel, ids);
    }

    fn fold(&mut self, rows: &[&'r [Value]], sel: &[u32], ids: &[u32]) {
        match &mut self.accs {
            Some(accs) => accs.iter_mut().for_each(|a| a.fold(rows, sel, ids)),
            None => {
                for (&g, &i) in ids.iter().zip(sel) {
                    self.members[g as usize].push(i);
                }
            }
        }
    }

    /// One virtual row per group: the representative row's values, then
    /// one slot per aggregate, group-major then spec-major — exactly the
    /// interpreter's computation order. In one-pass mode this only
    /// finalizes the accumulators; otherwise it folds each spec over the
    /// group's members in `rows`. With no rows and no GROUP BY there is
    /// one empty group (global aggregates).
    fn finish(
        mut self,
        plan: &AggPlan,
        ctx: &BoundCtx<'_>,
        evals: &mut Evals,
        passes: &mut u64,
        rows: &[&[Value]],
        agg_values: &mut Vec<Value>,
    ) -> SqlResult<Vec<Vec<Value>>> {
        let n = if self.reprs.is_empty() && plan.group_by.is_empty() {
            self.open();
            1
        } else {
            self.reprs.len()
        };
        let mut vrows = Vec::with_capacity(n);
        for g in 0..n {
            let mut vrow = Vec::with_capacity(plan.base_width + plan.specs.len());
            match self.reprs.get(g) {
                Some(repr) => vrow.extend_from_slice(repr),
                None => vrow.resize(plan.base_width, Value::Null),
            }
            if let Some(accs) = &self.accs {
                for acc in accs {
                    vrow.push(acc.finish(g)?);
                }
                vrows.push(vrow);
                continue;
            }
            let members = &self.members[g];
            for spec in &plan.specs {
                let v = match &spec.arg {
                    // COUNT(*) counts member rows directly (DISTINCT is
                    // irrelevant without an argument).
                    None => Value::Int(members.len() as i64),
                    // Aggregate over a bare stored column without
                    // DISTINCT: fold the values in place, no clone per
                    // member.
                    Some(BoundExpr::Column(c)) if !spec.distinct => {
                        evals.0 += members.len() as u64;
                        *passes += 1;
                        let values = members.iter().map(|&i| &rows[i as usize][*c]);
                        fold_agg_values(&spec.name, values.filter(|v| !v.is_null()))?
                    }
                    Some(arg) => {
                        agg_values.clear();
                        evals.0 += members.len() as u64;
                        *passes += 1;
                        eval_bound_batch(arg, ctx, rows, members, agg_values)?;
                        agg_values.retain(|v| !v.is_null());
                        combine_agg_values(&spec.name, agg_values, spec.distinct)?
                    }
                };
                vrow.push(v);
            }
            vrows.push(vrow);
        }
        Ok(vrows)
    }
}

/// One SELECT-list value: a bare column is an ordinal load, anything
/// else goes through the evaluator.
fn project(e: &BoundExpr, row: &[Value], rc: &BoundCtx<'_>, evals: &mut Evals) -> SqlResult<Value> {
    match e {
        BoundExpr::Column(c) => {
            evals.0 += 1;
            Ok(row[*c].clone())
        }
        _ => evals.eval(e, rc),
    }
}

/// The output stage both compiled `SELECT` shapes end in, over the `n`
/// rows that passed WHERE (and HAVING), `row(i)` the `i`-th in input
/// order (ADR 0003, rule c). With neither OFFSET nor LIMIT every row is
/// an output row, and DISTINCT must compare evaluated rows: then each
/// row evaluates its SELECT list, then its sort keys, in input order.
/// Otherwise the output rows are chosen first — the input order when it
/// is the output order, else the sort keys of every row through a
/// stable sort, or a bounded top-K heap under a LIMIT — and only the
/// rows kept evaluate the SELECT list, reusing any output column a sort
/// key already evaluated.
#[allow(clippy::too_many_arguments)]
fn emit_rows<'r>(
    catalog: &Catalog,
    out: &OutputPlan,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
    passes: &mut u64,
    n: usize,
    row: impl Fn(usize) -> &'r [Value],
    offset: Option<usize>,
    limit: Option<usize>,
) -> SqlResult<Vec<Vec<Value>>> {
    let descs: Vec<bool> = out.order.iter().map(|(_, d)| *d).collect();
    let sorted = !out.order.is_empty() && !out.order_served;
    let (skip, take) = (offset.unwrap_or(0), limit.unwrap_or(usize::MAX));
    if out.distinct || (offset.is_none() && limit.is_none()) {
        *passes += projection_passes(n, out.projections.len(), &out.order);
        let mut out_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(n);
        for i in 0..n {
            let r = row(i);
            let rc = BoundCtx {
                row: Some(r),
                ..*ctx
            };
            let mut vals = Vec::with_capacity(out.projections.len());
            for e in &out.projections {
                vals.push(project(e, r, &rc, evals)?);
            }
            let mut keys = Vec::with_capacity(out.order.len());
            for (key, _) in &out.order {
                keys.push(match key {
                    OrderKey::Output(i) => vals[*i].clone(),
                    OrderKey::Row(e) => evals.eval(e, &rc)?,
                });
            }
            out_rows.push((vals, keys));
        }
        if out.distinct {
            let mut seen: HashSet<Vec<Value>> = HashSet::new();
            out_rows.retain(|(r, _)| seen.insert(r.clone()));
        }
        if sorted {
            out_rows.sort_by(|(_, ka), (_, kb)| cmp_keys(ka, kb, &descs));
        }
        let mut rows: Vec<Vec<Value>> = out_rows.into_iter().map(|(r, _)| r).collect();
        rows.drain(..skip.min(rows.len()));
        rows.truncate(take);
        return Ok(rows);
    }

    // The rows kept, in output order, each with its sort keys.
    let chosen: Vec<(Vec<Value>, usize)> = if sorted {
        *passes += projection_passes(n, 0, &out.order);
        let mut topk = limit.map(|k| {
            catalog.count(Counter::TopkSorts, 1);
            TopK::new(k.saturating_add(skip), descs.clone())
        });
        let mut keyed = Vec::new();
        for i in 0..n {
            let r = row(i);
            let rc = BoundCtx {
                row: Some(r),
                ..*ctx
            };
            let mut keys = Vec::with_capacity(out.order.len());
            for (key, _) in &out.order {
                keys.push(match key {
                    OrderKey::Output(c) => project(&out.projections[*c], r, &rc, evals)?,
                    OrderKey::Row(e) => evals.eval(e, &rc)?,
                });
            }
            match &mut topk {
                Some(t) => t.push(keys, i),
                None => keyed.push((keys, i)),
            }
        }
        match topk {
            Some(t) => keyed = t.into_sorted(),
            None => keyed.sort_by(|(ka, _), (kb, _)| cmp_keys(ka, kb, &descs)),
        }
        keyed.into_iter().skip(skip).take(take).collect()
    } else {
        (skip.min(n)..n)
            .take(take)
            .map(|i| (Vec::new(), i))
            .collect()
    };

    *passes += (chosen.len().div_ceil(BATCH_SIZE) * out.projections.len()) as u64;
    let mut rows = Vec::with_capacity(chosen.len());
    for (keys, i) in chosen {
        let r = row(i);
        let rc = BoundCtx {
            row: Some(r),
            ..*ctx
        };
        let mut vals = Vec::with_capacity(out.projections.len());
        for (j, e) in out.projections.iter().enumerate() {
            let key = (out.order.iter())
                .position(|(o, _)| matches!(o, OrderKey::Output(c) if *c == j))
                .filter(|_| sorted);
            vals.push(match key {
                Some(k) => keys[k].clone(),
                None => project(e, r, &rc, evals)?,
            });
        }
        rows.push(vals);
    }
    Ok(rows)
}

/// Bounded top-K accumulator for `ORDER BY … LIMIT n`: keeps the `k`
/// smallest `(keys, seq)` entries under the ORDER BY comparator in a
/// max-heap, so each insertion costs O(log k) instead of sorting all `n`
/// rows. `seq` is the row's input position; using it as the final
/// tiebreaker makes the kept set and its order exactly what a stable
/// full sort followed by truncation would produce.
struct TopK {
    k: usize,
    descs: Vec<bool>,
    /// Max-heap: `heap[0]` is the largest kept entry.
    heap: Vec<(Vec<Value>, usize)>,
}

impl TopK {
    fn new(k: usize, descs: Vec<bool>) -> TopK {
        TopK {
            k,
            descs,
            heap: Vec::new(),
        }
    }

    fn cmp_entries(&self, a: &(Vec<Value>, usize), b: &(Vec<Value>, usize)) -> std::cmp::Ordering {
        cmp_keys(&a.0, &b.0, &self.descs).then(a.1.cmp(&b.1))
    }

    fn push(&mut self, keys: Vec<Value>, seq: usize) {
        if self.k == 0 {
            return;
        }
        let entry = (keys, seq);
        if self.heap.len() < self.k {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else if self.cmp_entries(&entry, &self.heap[0]).is_lt() {
            self.heap[0] = entry;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.cmp_entries(&self.heap[i], &self.heap[parent]).is_gt() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut largest = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len()
                    && self
                        .cmp_entries(&self.heap[child], &self.heap[largest])
                        .is_gt()
                {
                    largest = child;
                }
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }

    /// The kept entries in final ORDER BY order.
    fn into_sorted(self) -> Vec<(Vec<Value>, usize)> {
        let descs = self.descs;
        let mut entries = self.heap;
        entries.sort_by(|a, b| cmp_keys(&a.0, &b.0, &descs).then(a.1.cmp(&b.1)));
        entries
    }
}

/// Execute a compiled plain `SELECT` batch-at-a-time. Mirrors the
/// interpreter's single-table pipeline stage for stage; the scan
/// counters (`index_scans`, `range_scans`, `full_scans`, `topk_sorts`)
/// tick exactly as on the interpreted path, plus the batch counters
/// (`batch_evals`, `batched_rows`).
pub fn run_select_batched(
    catalog: &Catalog,
    snap: &Snapshot,
    plan: &SelectPlan,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    scratch: &mut BatchScratch,
) -> SqlResult<QueryResult> {
    let ctx = BoundCtx {
        catalog,
        snap,
        params,
        named_params,
        row: None,
    };
    let mut evals = Evals(0);

    // OFFSET/LIMIT once per statement, before any row work.
    let offset = match &plan.output.offset {
        Some(e) => Some(bound_usize(e, &ctx, &mut evals, "OFFSET")?),
        None => None,
    };
    let limit = match &plan.output.limit {
        Some(e) => Some(bound_usize(e, &ctx, &mut evals, "LIMIT")?),
        None => None,
    };

    match &plan.input {
        InputPlan::Single { table, access } => {
            let table = catalog.table(table)?;

            // Limit pushdown into the walk: when only the first
            // OFFSET+LIMIT rows that pass the WHERE can reach the output,
            // a WHERE of infallible comparisons runs during the walk and
            // the walk stops at the last of those rows. Any other WHERE
            // runs over every row after the walk, as in the interpreter,
            // so its errors surface on the same row.
            let mut cmps = Vec::new();
            let stop = match limit {
                Some(n)
                    if plan.output.limit_cuts_input()
                        && (plan.filter.as_ref())
                            .is_none_or(|p| flatten_col_cmps(p, &ctx, &mut cmps)) =>
                {
                    Some(n.saturating_add(offset.unwrap_or(0)))
                }
                _ => None,
            };
            if let Some(n) = stop {
                catalog.count(Counter::LimitPushdowns, 1);
                let mut walked = 0u64;
                let rows: Vec<&[Value]> = (access.probe(&ctx, &mut evals)?)
                    .rows(catalog, snap, &table)
                    .inspect(|_| walked += 1)
                    .map(|(_, row)| &**row)
                    .filter(|row| row_passes(&cmps, row))
                    .take(n)
                    .collect();
                catalog.count(Counter::BatchedRows, walked);
                let mut passes = 0;
                if plan.filter.is_some() {
                    evals.0 += walked;
                    passes = walked.div_ceil(BATCH_SIZE as u64);
                }
                return select_tail(
                    catalog, plan, &ctx, evals, passes, scratch, &rows, None, offset, limit,
                );
            }
            let rows = gather_rows(catalog, &table, access, &ctx, &mut evals)?;
            let filter = plan.filter.as_ref();
            select_tail(
                catalog, plan, &ctx, evals, 0, scratch, &rows, filter, offset, limit,
            )
        }
        InputPlan::Join(jp) => {
            let joined = run_join(catalog, jp, &ctx, &mut evals)?;
            catalog.count(Counter::BatchedRows, joined.len() as u64);
            let rows: Vec<&[Value]> = joined.iter().map(Vec::as_slice).collect();
            let filter = plan.filter.as_ref();
            select_tail(
                catalog, plan, &ctx, evals, 0, scratch, &rows, filter, offset, limit,
            )
        }
    }
}

/// The shared `SELECT` tail over gathered (or joined) input rows:
/// `filter` selection (the WHERE, unless the walk already ran it), then
/// the output stage ([`emit_rows`]) through the selection vector.
/// `passes` are the batch passes the input already cost.
#[allow(clippy::too_many_arguments)]
fn select_tail(
    catalog: &Catalog,
    plan: &SelectPlan,
    ctx: &BoundCtx<'_>,
    mut evals: Evals,
    mut passes: u64,
    scratch: &mut BatchScratch,
    rows: &[&[Value]],
    filter: Option<&BoundExpr>,
    offset: Option<usize>,
    limit: Option<usize>,
) -> SqlResult<QueryResult> {
    passes += fill_selection(filter, ctx, rows, &mut evals, &mut scratch.sel)?;
    // Fused filter+project: the output stage reads storage rows through
    // the selection vector — no filtered intermediate is materialized.
    let sel = &scratch.sel;
    let rows = emit_rows(
        catalog,
        &plan.output,
        ctx,
        &mut evals,
        &mut passes,
        sel.len(),
        |i| rows[sel[i] as usize],
        offset,
        limit,
    )?;

    catalog.count(Counter::BoundEvals, evals.0);
    catalog.count(Counter::BatchEvals, passes);
    Ok(QueryResult {
        columns: plan.output.columns.clone(),
        rows,
    })
}

/// The staged grouped path over already-gathered (or joined) input
/// rows: the selection vector, then the grouping kernel over it in
/// [`BATCH_SIZE`] chunks, then one completed virtual row per group
/// ([`Groups::finish`]). A key that is one stored column is read from
/// the rows; any other is evaluated row-major into `key_buf` first, so
/// a failing key expression errors at the row the interpreter's would.
#[allow(clippy::too_many_arguments)]
fn run_agg_staged<'r>(
    catalog: &Catalog,
    plan: &AggPlan,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
    passes: &mut u64,
    scratch: &mut BatchScratch,
    rows: &[&'r [Value]],
    mut groups: Groups<'r>,
    single_col: Option<usize>,
) -> SqlResult<Vec<Vec<Value>>> {
    *passes += fill_selection(plan.filter.as_ref(), ctx, rows, evals, &mut scratch.sel)?;
    let (sel, key_buf) = (&scratch.sel, &mut scratch.key_buf);
    let batches = sel.len().div_ceil(BATCH_SIZE) as u64;
    let mut hashes = [0u64; BATCH_SIZE];
    let mut ids = [0u32; BATCH_SIZE];
    if let Some(c) = single_col {
        evals.0 += sel.len() as u64;
        *passes += batches;
        for chunk in sel.chunks(BATCH_SIZE) {
            groups.by_column(c, rows, chunk, &mut hashes, &mut ids);
        }
    } else {
        let w = plan.group_by.len();
        *passes += batches * w as u64;
        for chunk in sel.chunks(BATCH_SIZE) {
            key_buf.clear();
            for &i in chunk {
                let rc = BoundCtx {
                    row: Some(rows[i as usize]),
                    ..*ctx
                };
                for g in &plan.group_by {
                    key_buf.push(evals.eval(g, &rc)?);
                }
            }
            groups.by_keys(w, key_buf, rows, chunk, &mut hashes, &mut ids);
        }
    }
    catalog.count(Counter::HashAggs, 1);
    if groups.accs.is_some() {
        // Inline accumulation visits every selected row once per
        // argument-bearing spec — same eval count the second pass would
        // have ticked, just earned during grouping.
        let arg_specs = plan.specs.iter().filter(|s| s.arg.is_some()).count() as u64;
        evals.0 += sel.len() as u64 * arg_specs;
        *passes += batches * arg_specs;
    }
    groups.finish(plan, ctx, evals, passes, rows, &mut scratch.agg_values)
}

/// Execute a compiled grouped `SELECT` through the one-pass hash
/// aggregator. Stage order replicates the interpreter exactly: WHERE
/// over all rows, group keys over all surviving rows (first-seen group
/// order), aggregates group-major then spec-major, HAVING group-major
/// over completed virtual rows, then the shared projection tail.
///
/// Column-arg aggregates accumulate inline during the grouping pass
/// (`Accs`); that is unobservable because inline updates are
/// infallible — the sole aggregate error is deferred and raised in
/// finalization order, which *is* the interpreter's group-major,
/// spec-major computation order.
pub fn run_agg_plan(
    catalog: &Catalog,
    snap: &Snapshot,
    plan: &AggPlan,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    scratch: &mut BatchScratch,
) -> SqlResult<QueryResult> {
    let ctx = BoundCtx {
        catalog,
        snap,
        params,
        named_params,
        row: None,
    };
    let mut evals = Evals(0);

    let offset = match &plan.output.offset {
        Some(e) => Some(bound_usize(e, &ctx, &mut evals, "OFFSET")?),
        None => None,
    };
    let limit = match &plan.output.limit {
        Some(e) => Some(bound_usize(e, &ctx, &mut evals, "LIMIT")?),
        None => None,
    };

    let single_col = match plan.group_by.as_slice() {
        [BoundExpr::Column(c)] => Some(*c),
        _ => None,
    };
    let mut cmps = Vec::new();
    let tight_filter = match &plan.filter {
        None => true,
        Some(p) => flatten_col_cmps(p, &ctx, &mut cmps),
    };
    let mut passes = 0u64;

    // Streamed specialization (single-table full scans only): full scan
    // + comparison-only filter + single stored-column key + inline
    // accumulators means the whole aggregation folds in ONE walk over
    // the table, `BATCH_SIZE` rows at a time — no whole-table row
    // vector. Fusing the stages is unobservable because every per-row
    // step here is infallible (comparisons and column loads cannot
    // error; accumulation defers its sole error to finalization), so no
    // cross-stage error precedence exists to disturb, and groups still
    // appear in first-seen scan order.
    let mut vrows: Vec<Vec<Value>> = match &plan.input {
        InputPlan::Join(jp) => {
            let joined = run_join(catalog, jp, &ctx, &mut evals)?;
            catalog.count(Counter::BatchedRows, joined.len() as u64);
            let rows: Vec<&[Value]> = joined.iter().map(Vec::as_slice).collect();
            let groups = Groups::new(&plan.specs);
            run_agg_staged(
                catalog,
                plan,
                &ctx,
                &mut evals,
                &mut passes,
                scratch,
                &rows,
                groups,
                single_col,
            )?
        }
        InputPlan::Single { table, access } => {
            let table = catalog.table(table)?;
            let mut groups = Groups::new(&plan.specs);
            match single_col {
                Some(c)
                    if matches!(access, Access::Full) && tight_filter && groups.accs.is_some() =>
                {
                    let mut rows = access.probe(&ctx, &mut evals)?.rows(catalog, snap, &table);
                    let mut walked = 0u64;
                    let mut kept = 0u64;
                    // Gather a batch of rows, filter it, then group the
                    // rows that passed: the loads of different rows'
                    // payloads overlap instead of waiting on each other
                    // row by row. The buffers live on the stack:
                    // connections are often opened per statement, so
                    // per-connection scratch would allocate again each
                    // time.
                    let mut batch: [&[Value]; BATCH_SIZE] = [&[]; BATCH_SIZE];
                    let mut sel = [0u32; BATCH_SIZE];
                    let mut hashes = [0u64; BATCH_SIZE];
                    let mut ids = [0u32; BATCH_SIZE];
                    loop {
                        let mut n = 0;
                        for (slot, (_, row)) in batch.iter_mut().zip(rows.by_ref()) {
                            *slot = row;
                            n += 1;
                        }
                        if n == 0 {
                            break;
                        }
                        let passed = select_rows(&cmps, &batch[..n], 0, &mut sel);
                        walked += n as u64;
                        kept += passed as u64;
                        groups.by_column(c, &batch[..n], &sel[..passed], &mut hashes, &mut ids);
                    }
                    catalog.count(Counter::BatchedRows, walked);
                    catalog.count(Counter::HashAggs, 1);
                    if plan.filter.is_some() {
                        evals.0 += walked;
                        passes += walked.div_ceil(BATCH_SIZE as u64);
                    }
                    let arg_specs = plan.specs.iter().filter(|s| s.arg.is_some()).count() as u64;
                    evals.0 += kept * (1 + arg_specs);
                    passes += kept.div_ceil(BATCH_SIZE as u64) * (1 + arg_specs);
                    let agg_values = &mut scratch.agg_values;
                    groups.finish(plan, &ctx, &mut evals, &mut passes, &[], agg_values)?
                }
                _ => {
                    let rows = gather_rows(catalog, &table, access, &ctx, &mut evals)?;
                    run_agg_staged(
                        catalog,
                        plan,
                        &ctx,
                        &mut evals,
                        &mut passes,
                        scratch,
                        &rows,
                        groups,
                        single_col,
                    )?
                }
            }
        }
    };

    // HAVING — group-major, after every aggregate has been computed.
    if let Some(h) = &plan.having {
        passes += vrows.len().div_ceil(BATCH_SIZE) as u64;
        let mut kept = Vec::with_capacity(vrows.len());
        for vrow in vrows {
            let rc = BoundCtx {
                row: Some(&vrow),
                ..ctx
            };
            if evals.pred(h, &rc)? {
                kept.push(vrow);
            }
        }
        vrows = kept;
    }

    // Output stage over the virtual rows.
    let rows = emit_rows(
        catalog,
        &plan.output,
        &ctx,
        &mut evals,
        &mut passes,
        vrows.len(),
        |i| &vrows[i],
        offset,
        limit,
    )?;

    catalog.count(Counter::BoundEvals, evals.0);
    catalog.count(Counter::BatchEvals, passes);
    Ok(QueryResult {
        columns: plan.output.columns.clone(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    /// The hasher's `write` as it was before it read words in place: each
    /// chunk of up to 8 bytes copied into a zeroed buffer.
    fn chunk_and_pad(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            h.write_u64(u64::from_le_bytes(buf));
        }
        h.finish()
    }

    #[test]
    fn fx_write_hashes_as_the_padded_copy_did() {
        let bytes: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for len in 0..=24 {
            // Two starts, so the words are read at different alignments.
            for start in [0, 3] {
                let mut h = FxHasher::default();
                h.write(&bytes[start..start + len]);
                let want = chunk_and_pad(&bytes[start..start + len]);
                assert_eq!(h.finish(), want, "length {len} from {start}");
            }
        }
    }

    /// Keys whose equal pairs are few and easy to miss: zeros, NaNs,
    /// equal Int and Float, and texts of every length 0..=24 with
    /// variants that differ in one byte (past the first 8 too).
    fn tricky_keys() -> Vec<Value> {
        let mut keys = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(-7),
            Value::Float(-7.5),
        ];
        let base = "abcdefghijklmnopqrstuvwxy";
        for len in 0..=24 {
            keys.push(Value::text(&base[..len]));
            for p in 0..len {
                let mut v = base[..len].to_string();
                v.replace_range(p..=p, "X");
                keys.push(Value::text(&v));
            }
        }
        keys.extend(["é", "ée", "日本語テキスト"].map(Value::text));
        keys
    }

    #[test]
    fn key_hash_and_key_eq_agree_with_value_eq() {
        let keys = tricky_keys();
        for a in &keys {
            for b in &keys {
                assert_eq!(key_eq(a, b), a == b, "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(key_hash(0, a), key_hash(0, b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    /// With every hash equal the key compare alone tells groups apart:
    /// the ids must be `Value`'s `Eq` classes, numbered in first-seen
    /// order, through every growth of the table.
    #[test]
    fn colliding_hashes_group_by_value_eq() {
        let keys = tricky_keys();
        let mut table = GroupTable::default();
        let mut firsts: Vec<&Value> = Vec::new();
        for k in keys.iter().chain(keys.iter().rev()) {
            let want = firsts.iter().position(|f| *f == k);
            let (g, new) = table.id(0, |g| key_eq(firsts[g], k));
            assert_eq!(
                (g as usize, new),
                (want.unwrap_or(firsts.len()), want.is_none()),
                "{k:?}"
            );
            if new {
                firsts.push(k);
            }
        }
    }

    #[test]
    fn growth_keeps_every_group() {
        let mut table = GroupTable::default();
        let id = |table: &mut GroupTable, i: i64| {
            table.id(key_hash(0, &Value::Int(i)), |g| g as i64 == i)
        };
        for i in 0..5_000 {
            assert_eq!(id(&mut table, i), (i as u32, true));
        }
        for i in (0..5_000).rev() {
            assert_eq!(id(&mut table, i), (i as u32, false));
        }
        assert!(table.slots.len() >= 2 * 5_000);
    }
}
