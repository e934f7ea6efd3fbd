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
    bound_usize, Access, AggPlan, Evals, InputPlan, JoinPlan, JoinSide, JoinStep, OrderKey,
    OutputPlan, SelectPlan,
};
use crate::storage::{Snapshot, SortKey, Table};
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

/// Running state for one aggregate call site that folds *inline during
/// the grouping pass* — the true one-pass path. Eligible call sites are
/// `COUNT(*)` and non-DISTINCT `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` over a
/// bare stored column; since those five are the only aggregates the
/// binder admits, every all-plain-column grouped query (the common
/// shape by far) aggregates in the same pass that assigns groups.
///
/// `update` is infallible by construction: the aggregate errors the
/// interpreter can raise (`SUM`/`AVG` over a non-numeric value, an
/// integer `SUM` beyond `i64`) are recorded in the state and raised in
/// [`Acc::finish`], which runs group-major then spec-major — the exact
/// order the interpreter computes aggregates in — so the error surfaces
/// for the same (group, spec) with the same message.
#[derive(Clone)]
enum Acc {
    /// `COUNT(*)`: member rows, NULLs included.
    CountStar(i64),
    /// `COUNT(col)`: non-NULL members.
    Count {
        col: usize,
        n: i64,
    },
    /// `SUM(col)`: the float total in arrival order, the exact total of
    /// Int values, and whether any value came, all were Ints, one was
    /// not numeric.
    Sum {
        col: usize,
        total: f64,
        exact: IntTotal,
        seen: bool,
        all_int: bool,
        bad: bool,
    },
    /// `AVG(col)`: the float total and the count.
    Avg {
        col: usize,
        total: f64,
        n: u64,
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
            "SUM" => Acc::Sum {
                col,
                total: 0.0,
                exact: IntTotal::default(),
                seen: false,
                all_int: true,
                bad: false,
            },
            "AVG" => Acc::Avg {
                col,
                total: 0.0,
                n: 0,
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
                exact,
                seen,
                all_int,
                bad,
            } => match row[*col] {
                Value::Null => {}
                Value::Int(i) => {
                    *total += i as f64;
                    exact.add(i);
                    *seen = true;
                }
                Value::Float(f) => {
                    *total += f;
                    *all_int = false;
                    *seen = true;
                }
                _ => *bad = true,
            },
            Acc::Avg { col, total, n, bad } => match &row[*col] {
                Value::Null => {}
                v => match v.as_f64() {
                    Some(f) => {
                        *total += f;
                        *n += 1;
                    }
                    None => *bad = true,
                },
            },
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
            Acc::Sum { bad: true, .. } => {
                return Err(SqlError::Semantic("SUM() over non-numeric value".into()))
            }
            Acc::Avg { bad: true, .. } => {
                return Err(SqlError::Semantic("AVG() over non-numeric value".into()))
            }
            Acc::Sum { seen: false, .. } | Acc::Avg { n: 0, .. } => Value::Null,
            Acc::Sum {
                all_int: true,
                exact,
                ..
            } => exact.value()?,
            Acc::Sum { total, .. } => Value::Float(*total),
            Acc::Avg { total, n, .. } => Value::Float(*total / *n as f64),
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
    *passes += fill_selection(plan.filter.as_ref(), ctx, rows, evals, &mut scratch.sel)?;

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
    catalog.count(Counter::HashAggs, 1);
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
                        let values = members.iter().map(|&i| &rows[i as usize][*c]);
                        fold_agg_values(&spec.name, values.filter(|v| !v.is_null()))?
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
/// (`Acc`); that is unobservable because inline updates are
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

    let inline: Option<Vec<Acc>> = plan.specs.iter().map(Acc::of).collect();
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
                let mut rows = access.probe(&ctx, &mut evals)?.rows(catalog, snap, &table);
                let mut groups: FxMap<Value, usize> = FxMap::default();
                // (representative base row, accumulators), first-seen order.
                let mut sgroups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
                let mut walked = 0u64;
                let mut kept = 0u64;
                // Gather a batch of rows, filter it, then fold the rows
                // that passed: the loads of different rows' payloads
                // overlap instead of waiting on each other row by row.
                // The buffers live on the stack: connections are often
                // opened per statement, so per-connection scratch would
                // allocate again each time.
                let mut batch: [&[Value]; BATCH_SIZE] = [&[]; BATCH_SIZE];
                let mut sel = [0u32; BATCH_SIZE];
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
                    for &i in &sel[..passed] {
                        let row = batch[i as usize];
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
                let rows = gather_rows(catalog, &table, access, &ctx, &mut evals)?;
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
