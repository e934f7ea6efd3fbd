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
//! **Semantics contract**: output rows, NULL handling, and error
//! *positions* are byte-identical to the interpreter. That is why
//! evaluation stays row-major *within* each pass — a stage processes
//! whole batches, but inside a batch rows are visited in arrival order,
//! so the first row to raise an error is the same row the interpreter
//! would have raised it on. Stage order itself matches the
//! interpreter's stage order (WHERE over all rows, then grouping keys
//! over all rows, then aggregates group-major, then HAVING), so
//! cross-stage error precedence is preserved too. The differential
//! corpus in `tests/plan_cache.rs` holds both executors byte-identical.

use std::collections::{HashMap, HashSet};

use crate::ast::JoinKind;
use crate::bound::{eval_bound_batch, filter_bound_batch, BoundCtx, BoundExpr};
use crate::catalog::Catalog;
use crate::db::QueryResult;
use crate::error::SqlResult;
use crate::exec::select::{cmp_keys, combine_agg_values, TopK};
use crate::exec::Probe;
use crate::plan::{
    bound_usize, Access, AggPlan, Evals, InputPlan, JoinPlan, JoinSide, JoinStep, OrderKey,
    SelectPlan,
};
use crate::storage::{RowId, SortKey, Table};
use crate::sync::TableReadGuard;
use crate::types::Value;

/// Rows per filter batch. Large enough to amortize per-batch overhead,
/// small enough that the selection vector chunk stays cache-resident.
pub const BATCH_SIZE: usize = 1024;

/// Minimal multiply-rotate hasher (FxHash-style) for the group-key
/// maps. Grouping probes the map once per input row, and SipHash is the
/// single largest cost of that probe; this trades DoS resistance (moot
/// for hashing a user's own stored values) for a few instructions per
/// key. Group *order* is tracked separately as first-seen order, so the
/// hash function can never affect results.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // Fold the high half into the low bits. The multiply in
        // `write_u64` only propagates entropy upward, and integer keys
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
    /// Group-key assembly buffer for the general hash-aggregate path.
    key_buf: Vec<Value>,
    /// Non-NULL aggregate argument values for the group being folded.
    agg_values: Vec<Value>,
}

/// Materialize the access path as *borrowed* rows, in exactly the
/// physical order the interpreter's scan would produce, ticking the
/// same scan counters. `pushdown` truncates an `IndexOrder` walk to the
/// first N ids (callers establish the no-filter / order-served / no-
/// distinct conditions that make this safe).
fn gather_rows<'t>(
    catalog: &Catalog,
    table: &'t Table,
    access: &Access,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
    pushdown: Option<usize>,
) -> SqlResult<Vec<&'t [Value]>> {
    let probe = access.probe(ctx, evals)?;
    if let Probe::Full = probe {
        catalog.note_full_scan();
        let rows: Vec<&[Value]> = table.scan().map(|r| r.as_slice()).collect();
        catalog.note_full_scan_rows(rows.len() as u64);
        return Ok(rows);
    }
    let mut rows: Vec<&[Value]> = probe
        .index_entries(catalog, table)
        .into_iter()
        .map(|(_, row)| row.as_slice())
        .collect();
    if let (Access::IndexOrder { .. }, Some(n)) = (access, pushdown) {
        rows.truncate(n);
    }
    Ok(rows)
}

/// Gather one join side as *borrowed* rows in rowid order — the order
/// the interpreter's full scan of that side would produce — applying
/// the pushed-down prefilter conjuncts during the walk and ticking the
/// scan counters for the access path actually used. Keys and bounds in
/// a join side's access are plan constants (they come from pushed
/// column-vs-constant comparisons), so evaluation cannot error on a row.
/// Join sides never take an order-only walk: output order is rowid order
/// regardless of access, so order can't be served.
fn gather_side<'t>(
    catalog: &Catalog,
    table: &'t Table,
    side: &JoinSide,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
) -> SqlResult<Vec<&'t [Value]>> {
    let keep = |row: &[Value]| side.prefilter.iter().all(|c| c.passes(row));
    let probe = side.access.probe(ctx, evals)?;
    if let Probe::Full = probe {
        catalog.note_full_scan();
        let mut walked = 0u64;
        let rows: Vec<&[Value]> = table
            .scan()
            .map(|r| r.as_slice())
            .inspect(|_| walked += 1)
            .filter(|r| keep(r))
            .collect();
        catalog.note_full_scan_rows(walked);
        return Ok(rows);
    }
    // A range walk is key-major; re-sort to rowid order so the side is
    // indistinguishable from the interpreter's scan.
    let mut entries: Vec<(RowId, &[Value])> = probe
        .index_entries(catalog, table)
        .into_iter()
        .map(|(id, row)| (id, row.as_slice()))
        .filter(|(_, r)| keep(r))
        .collect();
    entries.sort_unstable_by_key(|(id, _)| *id);
    Ok(entries.into_iter().map(|(_, r)| r).collect())
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
/// accumulated-left row instead of scanning it. `index_eq_entries` is
/// visibility-aware (MVCC) and compares keys with the same total order
/// `Value`'s `Eq`/`Hash` use, and its entries arrive rowid-ascending —
/// so the emitted rows are indistinguishable from the hash path's.
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
    catalog.note_index_nl_join();
    catalog.note_join_probe_rows(left.len() as u64);
    let skip_residual = step.residual.is_empty();
    let mut out: Vec<Vec<Value>> = Vec::new();
    let mut probe = SortKey(vec![Value::Null]);
    for l in left {
        let key = &l[lcol];
        let mut matched = false;
        if !key.is_null() {
            probe.0[0] = key.clone();
            for (_, r) in table.index_eq_entries(index, &probe) {
                let r: &[Value] = r;
                if !side.prefilter.iter().all(|c| c.passes(r)) {
                    continue;
                }
                let mut row = Vec::with_capacity(l.len() + side.width);
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
                    out.push(row);
                }
            }
        }
        if !matched && step.kind == JoinKind::Left {
            let mut row = Vec::with_capacity(l.len() + side.width);
            row.extend_from_slice(l);
            row.extend(std::iter::repeat_n(Value::Null, side.width));
            out.push(row);
        }
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
        catalog.note_hash_join();
        let skip_residual = step.residual.is_empty();
        let lcols: Vec<usize> = step.pairs.iter().map(|(i, _)| *i).collect();
        let rcols: Vec<usize> = step.pairs.iter().map(|(_, j)| *j).collect();
        let mut probe: Vec<&Value> = Vec::with_capacity(step.pairs.len());
        if left.len() < right.len() {
            // Build on the smaller accumulated left, probe the right
            // scan, then replay the matches left-major so the output
            // order is exactly the probe-left order the interpreter
            // produces.
            catalog.note_join_build_rows(left.len() as u64);
            catalog.note_join_probe_rows(right.len() as u64);
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
            catalog.note_join_build_rows(right.len() as u64);
            catalog.note_join_probe_rows(left.len() as u64);
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

    catalog.note_pushed_predicates(jp.pushed);

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
    filter: &Option<BoundExpr>,
    ctx: &BoundCtx<'_>,
    rows: &[&[Value]],
    evals: &mut Evals,
    sel: &mut Vec<u32>,
) -> SqlResult<u64> {
    sel.clear();
    match filter {
        Some(pred) => {
            let mut passes = 0u64;
            for (ci, chunk) in rows.chunks(BATCH_SIZE).enumerate() {
                passes += 1;
                evals.0 += chunk.len() as u64;
                filter_bound_batch(pred, ctx, chunk, (ci * BATCH_SIZE) as u32, sel)?;
            }
            Ok(passes)
        }
        None => {
            sel.extend(0..rows.len() as u32);
            Ok(0)
        }
    }
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

/// Running state for one aggregate call site that folds *inline during
/// the grouping pass* — the true one-pass path. Eligible call sites are
/// `COUNT(*)` and non-DISTINCT `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` over a
/// bare stored column; since those five are the only aggregates the
/// binder admits, every all-plain-column grouped query (the common
/// shape by far) aggregates in the same pass that assigns groups.
///
/// `update` is infallible by construction: the one aggregate error the
/// interpreter can raise (`SUM`/`AVG` over a non-numeric value) is
/// recorded as a `bad` flag and raised in [`Acc::finish`], which runs
/// group-major then spec-major — the exact order the interpreter
/// computes aggregates in — so the error surfaces for the same (group,
/// spec) with the same message.
#[derive(Clone)]
enum Acc {
    /// `COUNT(*)`: member rows, NULLs included.
    CountStar(i64),
    /// `COUNT(col)`: non-NULL members.
    Count {
        col: usize,
        n: i64,
    },
    /// `SUM(col)` / `AVG(col)` share one accumulator; `avg` picks the
    /// finish rule (and the error message).
    Sum {
        col: usize,
        avg: bool,
        total: f64,
        n: u64,
        all_int: bool,
        bad: bool,
    },
    /// `MIN(col)` keeps the first of equals, `MAX(col)` the last —
    /// matching the interpreter's `min_by`/`max_by` tie behavior.
    Min {
        col: usize,
        best: Option<Value>,
    },
    Max {
        col: usize,
        best: Option<Value>,
    },
}

impl Acc {
    /// `Some` when this spec can fold inline during grouping.
    fn of(spec: &crate::plan::BoundAggSpec) -> Option<Acc> {
        let col = match &spec.arg {
            // `COUNT(*)`: DISTINCT is irrelevant without an argument.
            None if spec.name == "COUNT" => return Some(Acc::CountStar(0)),
            Some(BoundExpr::Column(c)) if !spec.distinct => *c,
            _ => return None,
        };
        Some(match spec.name.as_str() {
            "COUNT" => Acc::Count { col, n: 0 },
            "SUM" | "AVG" => Acc::Sum {
                col,
                avg: spec.name == "AVG",
                total: 0.0,
                n: 0,
                all_int: true,
                bad: false,
            },
            "MIN" => Acc::Min { col, best: None },
            "MAX" => Acc::Max { col, best: None },
            _ => return None,
        })
    }

    fn update(&mut self, row: &[Value]) {
        match self {
            Acc::CountStar(n) => *n += 1,
            Acc::Count { col, n } => {
                if !row[*col].is_null() {
                    *n += 1;
                }
            }
            Acc::Sum {
                col,
                total,
                n,
                all_int,
                bad,
                ..
            } => {
                let v = &row[*col];
                if v.is_null() {
                    return;
                }
                match v.as_f64() {
                    Some(f) => {
                        *total += f;
                        *n += 1;
                        *all_int &= matches!(v, Value::Int(_));
                    }
                    None => *bad = true,
                }
            }
            Acc::Min { col, best } => {
                let v = &row[*col];
                if !v.is_null()
                    && best
                        .as_ref()
                        .is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Less)
                {
                    *best = Some(v.clone());
                }
            }
            Acc::Max { col, best } => {
                let v = &row[*col];
                if !v.is_null()
                    && best
                        .as_ref()
                        .is_none_or(|b| v.total_cmp(b) != std::cmp::Ordering::Less)
                {
                    *best = Some(v.clone());
                }
            }
        }
    }

    /// Finalize — produces exactly what [`combine_agg_values`] would
    /// over the same non-NULL values in member order.
    fn finish(&self) -> SqlResult<Value> {
        use crate::error::SqlError;
        Ok(match self {
            Acc::CountStar(n) | Acc::Count { n, .. } => Value::Int(*n),
            Acc::Sum {
                avg,
                total,
                n,
                all_int,
                bad,
                ..
            } => {
                let name = if *avg { "AVG" } else { "SUM" };
                if *bad {
                    return Err(SqlError::Semantic(format!(
                        "{name}() over non-numeric value"
                    )));
                } else if *n == 0 {
                    Value::Null
                } else if *avg {
                    Value::Float(*total / *n as f64)
                } else if *all_int {
                    Value::Int(*total as i64)
                } else {
                    Value::Float(*total)
                }
            }
            Acc::Min { best, .. } | Acc::Max { best, .. } => best.clone().unwrap_or(Value::Null),
        })
    }
}

/// Per-group state: representative first member (repr base-row values),
/// plus either inline accumulators (one-pass mode) or a member index
/// list (fallback mode for DISTINCT / computed arguments).
struct Group {
    first: Option<u32>,
    members: Vec<u32>,
    accs: Vec<Acc>,
}

impl Group {
    fn new(first: u32, inline: &Option<Vec<Acc>>) -> Group {
        Group {
            first: Some(first),
            members: Vec::new(),
            accs: inline.clone().unwrap_or_default(),
        }
    }
}

/// Fold one aggregate directly over a stored column's values for a
/// group's members — the no-DISTINCT fast path that skips collecting a
/// `Vec<Value>` per group. Produces exactly what
/// [`combine_agg_values`] would over the same non-NULL values in member
/// order: same empty-group NULLs, same Int/Float SUM typing, same
/// non-numeric error at the same member, and the same tie behavior
/// (MIN keeps the first of equals, MAX the last).
fn fold_column_agg(name: &str, rows: &[&[Value]], members: &[u32], col: usize) -> SqlResult<Value> {
    use crate::error::SqlError;
    let values = members
        .iter()
        .map(|&i| &rows[i as usize][col])
        .filter(|v| !v.is_null());
    match name {
        "COUNT" => Ok(Value::Int(values.count() as i64)),
        "SUM" | "AVG" => {
            let mut total = 0f64;
            let mut n = 0u64;
            let mut all_int = true;
            for v in values {
                total += v.as_f64().ok_or_else(|| {
                    SqlError::Semantic(format!("{name}() over non-numeric value"))
                })?;
                n += 1;
                all_int &= matches!(v, Value::Int(_));
            }
            if n == 0 {
                Ok(Value::Null)
            } else if name == "AVG" {
                Ok(Value::Float(total / n as f64))
            } else if all_int {
                Ok(Value::Int(total as i64))
            } else {
                Ok(Value::Float(total))
            }
        }
        "MIN" => {
            let mut best: Option<&Value> = None;
            for v in values {
                if best.is_none_or(|b| v.total_cmp(b) == std::cmp::Ordering::Less) {
                    best = Some(v);
                }
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
        "MAX" => {
            let mut best: Option<&Value> = None;
            for v in values {
                if best.is_none_or(|b| v.total_cmp(b) != std::cmp::Ordering::Less) {
                    best = Some(v);
                }
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
        other => Err(SqlError::Semantic(format!("unknown aggregate '{other}'"))),
    }
}

/// Shared output tail: DISTINCT → sort (or top-K drain) → OFFSET →
/// LIMIT. `out_rows` is `(projected row, order keys)`; `topk` is `Some`
/// when the rows were pushed through the bounded heap instead.
#[allow(clippy::too_many_arguments)]
fn finish_output(
    mut out_rows: Vec<(Vec<Value>, Vec<Value>)>,
    topk: Option<TopK>,
    distinct: bool,
    order_nonempty: bool,
    order_served: bool,
    descs: &[bool],
    offset: Option<usize>,
    limit: Option<usize>,
) -> Vec<Vec<Value>> {
    if distinct {
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        out_rows.retain(|(r, _)| seen.insert(r.clone()));
    }
    let mut rows: Vec<Vec<Value>> = match topk {
        Some(t) => t.into_sorted_rows(),
        None => {
            if order_nonempty && !order_served {
                out_rows.sort_by(|(_, ka), (_, kb)| cmp_keys(ka, kb, descs));
            }
            out_rows.into_iter().map(|(r, _)| r).collect()
        }
    };
    if let Some(n) = offset {
        rows = rows.into_iter().skip(n).collect();
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
    rows
}

/// Execute a compiled plain `SELECT` batch-at-a-time. Mirrors the
/// interpreter's single-table pipeline stage for stage; the scan
/// counters (`index_scans`, `range_scans`, `full_scans`, `topk_sorts`)
/// tick exactly as on the interpreted path, plus the batch counters
/// (`batch_evals`, `batched_rows`).
pub fn run_select_batched(
    catalog: &Catalog,
    plan: &SelectPlan,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    scratch: &mut BatchScratch,
) -> SqlResult<QueryResult> {
    let ctx = BoundCtx {
        catalog,
        params,
        named_params,
        row: None,
    };
    let mut evals = Evals(0);

    // OFFSET/LIMIT once per statement, before any row work.
    let offset = match &plan.offset {
        Some(e) => Some(bound_usize(e, &ctx, &mut evals, "OFFSET")?),
        None => None,
    };
    let limit = match &plan.limit {
        Some(e) => Some(bound_usize(e, &ctx, &mut evals, "LIMIT")?),
        None => None,
    };

    match &plan.input {
        InputPlan::Single { table, access } => {
            let table = catalog.table(table)?;

            // Limit pushdown into an order-serving index walk: with no
            // filter the id→row mapping is 1:1, so rows past
            // OFFSET+LIMIT can never reach the output.
            let pushdown = if plan.filter.is_none() && plan.order_served && !plan.distinct {
                limit.map(|n| n.saturating_add(offset.unwrap_or(0)))
            } else {
                None
            };

            let rows = gather_rows(catalog, &table, access, &ctx, &mut evals, pushdown)?;
            catalog.note_batched_rows(rows.len() as u64);
            select_tail(catalog, plan, &ctx, evals, scratch, &rows, offset, limit)
        }
        InputPlan::Join(jp) => {
            let joined = run_join(catalog, jp, &ctx, &mut evals)?;
            catalog.note_batched_rows(joined.len() as u64);
            let rows: Vec<&[Value]> = joined.iter().map(Vec::as_slice).collect();
            select_tail(catalog, plan, &ctx, evals, scratch, &rows, offset, limit)
        }
    }
}

/// The shared `SELECT` tail over gathered (or joined) input rows:
/// WHERE selection → fused projection/ORDER-key pass (optionally into a
/// top-K heap) → DISTINCT/sort/OFFSET/LIMIT. Joined inputs never have
/// `order_served` set, so the truncate and top-K conditions degrade to
/// the plain paths for them.
#[allow(clippy::too_many_arguments)]
fn select_tail(
    catalog: &Catalog,
    plan: &SelectPlan,
    ctx: &BoundCtx<'_>,
    mut evals: Evals,
    scratch: &mut BatchScratch,
    rows: &[&[Value]],
    offset: Option<usize>,
    limit: Option<usize>,
) -> SqlResult<QueryResult> {
    let mut passes = fill_selection(&plan.filter, ctx, rows, &mut evals, &mut scratch.sel)?;

    // Post-filter limit pushdown (mirrors the interpreter's truncate of
    // the kept set when the walk serves the order).
    if plan.order_served && !plan.distinct {
        if let Some(n) = limit {
            scratch.sel.truncate(n.saturating_add(offset.unwrap_or(0)));
        }
    }
    passes += projection_passes(scratch.sel.len(), plan.projections.len(), &plan.order);

    // Fused filter+project: projection reads storage rows through the
    // selection vector — no filtered intermediate is materialized.
    let descs: Vec<bool> = plan.order.iter().map(|(_, d)| *d).collect();
    let mut topk = match limit {
        Some(n) if !plan.order.is_empty() && !plan.order_served && !plan.distinct => {
            catalog.note_topk_sort();
            Some(TopK::new(
                n.saturating_add(offset.unwrap_or(0)),
                descs.clone(),
            ))
        }
        _ => None,
    };
    let mut out_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(scratch.sel.len());
    for (seq, &i) in scratch.sel.iter().enumerate() {
        let row = rows[i as usize];
        let rc = BoundCtx {
            row: Some(row),
            ..*ctx
        };
        let mut out = Vec::with_capacity(plan.projections.len());
        for e in &plan.projections {
            out.push(match e {
                // Bare column: ordinal load, no evaluator dispatch.
                BoundExpr::Column(c) => {
                    evals.0 += 1;
                    row[*c].clone()
                }
                _ => evals.eval(e, &rc)?,
            });
        }
        let mut keys = Vec::with_capacity(plan.order.len());
        for (key, _) in &plan.order {
            keys.push(match key {
                OrderKey::Output(i) => out[*i].clone(),
                OrderKey::Row(e) => evals.eval(e, &rc)?,
            });
        }
        match &mut topk {
            Some(t) => t.push(keys, seq, out),
            None => out_rows.push((out, keys)),
        }
    }

    let rows = finish_output(
        out_rows,
        topk,
        plan.distinct,
        !plan.order.is_empty(),
        plan.order_served,
        &descs,
        offset,
        limit,
    );

    catalog.note_bound_evals(evals.0);
    catalog.note_batch_evals(passes);
    Ok(QueryResult {
        columns: plan.columns.clone(),
        rows,
    })
}

/// The staged grouped path: selection vector → grouping pass →
/// virtual-row build over already-gathered (or joined) input rows,
/// returning one completed virtual row per group. When every spec folds
/// a stored column (or is `COUNT(*)`), accumulation happens *inline*
/// during the grouping pass — the one-pass path — and no member lists
/// are built; only DISTINCT or computed arguments fall back to member
/// lists plus a second fold pass.
#[allow(clippy::too_many_arguments)]
fn run_agg_staged(
    catalog: &Catalog,
    plan: &AggPlan,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
    passes: &mut u64,
    scratch: &mut BatchScratch,
    rows: &[&[Value]],
    inline: &Option<Vec<Acc>>,
    single_col: Option<usize>,
) -> SqlResult<Vec<Vec<Value>>> {
    let one_pass = inline.is_some();
    *passes += fill_selection(&plan.filter, ctx, rows, evals, &mut scratch.sel)?;

    // Pass 1 — group keys over the selection, row-major, groups kept in
    // first-seen order.
    let mut grouped: Vec<Group> = Vec::new();
    if let Some(c) = single_col {
        // Fast path: the key is one stored column — probe the table by
        // reference and clone the value only when a new group appears.
        let mut groups: FxMap<Value, usize> = FxMap::default();
        evals.0 += scratch.sel.len() as u64;
        *passes += scratch.sel.len().div_ceil(BATCH_SIZE) as u64;
        for &i in &scratch.sel {
            let row = rows[i as usize];
            let g = match groups.get(&row[c]) {
                Some(&g) => g,
                None => {
                    let g = grouped.len();
                    groups.insert(row[c].clone(), g);
                    grouped.push(Group::new(i, inline));
                    g
                }
            };
            let st = &mut grouped[g];
            if one_pass {
                for a in &mut st.accs {
                    a.update(row);
                }
            } else {
                st.members.push(i);
            }
        }
    } else {
        let mut groups: FxMap<Vec<Value>, usize> = FxMap::default();
        *passes += (scratch.sel.len().div_ceil(BATCH_SIZE) as u64) * (plan.group_by.len() as u64);
        for &i in &scratch.sel {
            let row = rows[i as usize];
            let rc = BoundCtx {
                row: Some(row),
                ..*ctx
            };
            scratch.key_buf.clear();
            for g in &plan.group_by {
                let v = evals.eval(g, &rc)?;
                scratch.key_buf.push(v);
            }
            let g = match groups.get(scratch.key_buf.as_slice()) {
                Some(&g) => g,
                None => {
                    let g = grouped.len();
                    groups.insert(scratch.key_buf.clone(), g);
                    grouped.push(Group::new(i, inline));
                    g
                }
            };
            let st = &mut grouped[g];
            if one_pass {
                for a in &mut st.accs {
                    a.update(row);
                }
            } else {
                st.members.push(i);
            }
        }
    }
    // No rows and no GROUP BY → one empty group (global aggregates).
    if grouped.is_empty() && plan.group_by.is_empty() {
        grouped.push(Group {
            first: None,
            members: Vec::new(),
            accs: inline.clone().unwrap_or_default(),
        });
    }
    catalog.note_hash_agg();
    if one_pass {
        // Inline accumulation visits every selected row once per
        // argument-bearing spec — same eval count the second pass would
        // have ticked, just earned during grouping.
        let arg_specs = plan.specs.iter().filter(|s| s.arg.is_some()).count() as u64;
        evals.0 += scratch.sel.len() as u64 * arg_specs;
        *passes += scratch.sel.len().div_ceil(BATCH_SIZE) as u64 * arg_specs;
    }

    // Pass 2 — one virtual row per group: representative base row
    // values, then one slot per aggregate. Group-major, spec-major,
    // exactly the interpreter's computation order. In one-pass mode
    // this only finalizes accumulators; otherwise aggregates are folded
    // over the member lists here.
    let mut vrows: Vec<Vec<Value>> = Vec::with_capacity(grouped.len());
    for st in &grouped {
        let mut vrow = Vec::with_capacity(plan.base_width + plan.specs.len());
        match st.first {
            Some(i) => vrow.extend(rows[i as usize].iter().cloned()),
            None => vrow.extend(std::iter::repeat_n(Value::Null, plan.base_width)),
        }
        if one_pass {
            for acc in &st.accs {
                vrow.push(acc.finish()?);
            }
        } else {
            let members = &st.members;
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
                        fold_column_agg(&spec.name, rows, members, *c)?
                    }
                    Some(arg) => {
                        scratch.agg_values.clear();
                        evals.0 += members.len() as u64;
                        *passes += 1;
                        eval_bound_batch(arg, ctx, rows, members, &mut scratch.agg_values)?;
                        scratch.agg_values.retain(|v| !v.is_null());
                        combine_agg_values(&spec.name, &mut scratch.agg_values, spec.distinct)?
                    }
                };
                vrow.push(v);
            }
        }
        vrows.push(vrow);
    }
    Ok(vrows)
}

/// Execute a compiled grouped `SELECT` through the one-pass hash
/// aggregator. Stage order replicates the interpreter exactly: WHERE
/// over all rows, group keys over all surviving rows (first-seen group
/// order), aggregates group-major then spec-major, HAVING group-major
/// over completed virtual rows, then the shared projection tail.
///
/// Column-arg aggregates accumulate inline during the grouping pass
/// ([`Acc`]); that is unobservable because inline updates are
/// infallible — the sole aggregate error is deferred and raised in
/// finalization order, which *is* the interpreter's group-major,
/// spec-major computation order.
pub fn run_agg_plan(
    catalog: &Catalog,
    plan: &AggPlan,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    scratch: &mut BatchScratch,
) -> SqlResult<QueryResult> {
    let ctx = BoundCtx {
        catalog,
        params,
        named_params,
        row: None,
    };
    let mut evals = Evals(0);

    let offset = match &plan.offset {
        Some(e) => Some(bound_usize(e, &ctx, &mut evals, "OFFSET")?),
        None => None,
    };
    let limit = match &plan.limit {
        Some(e) => Some(bound_usize(e, &ctx, &mut evals, "LIMIT")?),
        None => None,
    };

    let inline: Option<Vec<Acc>> = plan.specs.iter().map(Acc::of).collect();
    let single_col = match plan.group_by.as_slice() {
        [BoundExpr::Column(c)] => Some(*c),
        _ => None,
    };
    let mut cmps = Vec::new();
    let tight_filter = match &plan.filter {
        None => true,
        Some(p) => crate::bound::flatten_col_cmps(p, &ctx, &mut cmps),
    };
    let mut passes = 0u64;

    // Fully-streamed specialization (single-table full scans only):
    // full scan + comparison-only filter + single stored-column key +
    // inline accumulators means the whole aggregation folds in ONE walk
    // over the table — no gathered row vector, no selection vector.
    // Fusing the stages is unobservable because every per-row step here
    // is infallible (comparisons and column loads cannot error;
    // accumulation defers its sole error to finalization), so no
    // cross-stage error precedence exists to disturb, and groups still
    // appear in first-seen scan order.
    let mut vrows: Vec<Vec<Value>> = match &plan.input {
        InputPlan::Join(jp) => {
            let joined = run_join(catalog, jp, &ctx, &mut evals)?;
            catalog.note_batched_rows(joined.len() as u64);
            let rows: Vec<&[Value]> = joined.iter().map(Vec::as_slice).collect();
            run_agg_staged(
                catalog,
                plan,
                &ctx,
                &mut evals,
                &mut passes,
                scratch,
                &rows,
                &inline,
                single_col,
            )?
        }
        InputPlan::Single { table, access } => {
            let table = catalog.table(table)?;
            let streamable = match (single_col, &inline) {
                (Some(c), Some(tmpl)) if matches!(access, Access::Full) && tight_filter => {
                    Some((c, tmpl))
                }
                _ => None,
            };
            if let Some((c, tmpl)) = streamable {
                catalog.note_full_scan();
                let mut groups: FxMap<Value, usize> = FxMap::default();
                // (representative base row, accumulators), first-seen order.
                let mut sgroups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
                let mut walked = 0u64;
                let mut kept = 0u64;
                for row in table.scan() {
                    walked += 1;
                    let row: &[Value] = row;
                    if !cmps.iter().all(|m| m.passes(row)) {
                        continue;
                    }
                    kept += 1;
                    let g = match groups.get(&row[c]) {
                        Some(&g) => g,
                        None => {
                            let g = sgroups.len();
                            groups.insert(row[c].clone(), g);
                            sgroups.push((row.to_vec(), tmpl.clone()));
                            g
                        }
                    };
                    for a in &mut sgroups[g].1 {
                        a.update(row);
                    }
                }
                catalog.note_full_scan_rows(walked);
                catalog.note_batched_rows(walked);
                catalog.note_hash_agg();
                if plan.filter.is_some() {
                    evals.0 += walked;
                    passes += walked.div_ceil(BATCH_SIZE as u64);
                }
                let arg_specs = plan.specs.iter().filter(|s| s.arg.is_some()).count() as u64;
                evals.0 += kept * (1 + arg_specs);
                passes += kept.div_ceil(BATCH_SIZE as u64) * (1 + arg_specs);

                // Finalize group-major, spec-major — the interpreter's
                // aggregate computation (and error) order.
                let mut vrows = Vec::with_capacity(sgroups.len());
                for (repr, accs) in sgroups {
                    let mut vrow = repr;
                    vrow.reserve(plan.specs.len());
                    for acc in &accs {
                        vrow.push(acc.finish()?);
                    }
                    vrows.push(vrow);
                }
                vrows
            } else {
                let rows = gather_rows(catalog, &table, access, &ctx, &mut evals, None)?;
                catalog.note_batched_rows(rows.len() as u64);
                run_agg_staged(
                    catalog,
                    plan,
                    &ctx,
                    &mut evals,
                    &mut passes,
                    scratch,
                    &rows,
                    &inline,
                    single_col,
                )?
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

    // Projection tail over virtual rows. Grouped queries never have the
    // order served by the access path.
    passes += projection_passes(vrows.len(), plan.projections.len(), &plan.order);
    let descs: Vec<bool> = plan.order.iter().map(|(_, d)| *d).collect();
    let mut topk = match limit {
        Some(n) if !plan.order.is_empty() && !plan.distinct => {
            catalog.note_topk_sort();
            Some(TopK::new(
                n.saturating_add(offset.unwrap_or(0)),
                descs.clone(),
            ))
        }
        _ => None,
    };
    let mut out_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(vrows.len());
    for (seq, vrow) in vrows.iter().enumerate() {
        let rc = BoundCtx {
            row: Some(vrow),
            ..ctx
        };
        let mut out = Vec::with_capacity(plan.projections.len());
        for e in &plan.projections {
            out.push(match e {
                BoundExpr::Column(c) => {
                    evals.0 += 1;
                    vrow[*c].clone()
                }
                _ => evals.eval(e, &rc)?,
            });
        }
        let mut keys = Vec::with_capacity(plan.order.len());
        for (key, _) in &plan.order {
            keys.push(match key {
                OrderKey::Output(i) => out[*i].clone(),
                OrderKey::Row(e) => evals.eval(e, &rc)?,
            });
        }
        match &mut topk {
            Some(t) => t.push(keys, seq, out),
            None => out_rows.push((out, keys)),
        }
    }

    let rows = finish_output(
        out_rows,
        topk,
        plan.distinct,
        !plan.order.is_empty(),
        false,
        &descs,
        offset,
        limit,
    );

    catalog.note_bound_evals(evals.0);
    catalog.note_batch_evals(passes);
    Ok(QueryResult {
        columns: plan.columns.clone(),
        rows,
    })
}
