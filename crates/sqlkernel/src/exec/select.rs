//! `SELECT` execution: scan → join → filter → group/aggregate → project →
//! distinct → order → limit.
//!
//! The executor is a straightforward materializing pipeline. Joins use a
//! hash join whenever the `ON` clause contains at least one pure
//! left-column = right-column equality; remaining conjuncts become a
//! residual filter. Grouped aggregation hashes on the `GROUP BY` key
//! values and pre-computes every aggregate call site, which the shared
//! expression evaluator then reads back by key.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::*;
use crate::catalog::Catalog;
use crate::db::QueryResult;
use crate::error::{SqlError, SqlResult};
use crate::exec::Probe;
use crate::expr::{aggregate_key, eval, eval_predicate, is_aggregate_name, EvalCtx, RowSchema};
use crate::storage::Row;
use crate::types::Value;

/// One logical row to project: the source row plus its pre-computed
/// aggregate values (grouped queries only). The source row is shared with
/// the pipeline input, so grouping never deep-copies row data.
type GroupedRow = (Arc<Row>, Option<HashMap<String, Value>>);

/// A materialized intermediate row set. Rows are `Arc`-shared: a base
/// table scan hands out pointers to stored rows, and derived rows (joins,
/// views, subqueries) are allocated once and shared from then on.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    pub schema: RowSchema,
    pub rows: Vec<Arc<Row>>,
}

/// Run a `SELECT` and materialize its result.
pub fn run_select(
    catalog: &Catalog,
    stmt: &SelectStmt,
    params: &[Value],
    named_params: &HashMap<String, Value>,
) -> SqlResult<QueryResult> {
    if !stmt.unions.is_empty() {
        return run_union(catalog, stmt, params, named_params);
    }

    let ctx = EvalCtx {
        catalog,
        params,
        named_params,
        row: None,
        aggregates: None,
    };

    // OFFSET / LIMIT are row-independent: evaluate them exactly once per
    // statement, up front. Negative values are rejected here.
    let offset = match &stmt.offset {
        Some(e) => Some(const_usize(e, &ctx, "OFFSET")?),
        None => None,
    };
    let limit = match &stmt.limit {
        Some(e) => Some(const_usize(e, &ctx, "LIMIT")?),
        None => None,
    };

    // 1. FROM — with an index fast path (point lookup or range walk) for
    //    single-table statements. A range walk emits rows in key order
    //    and reports that order, letting an ORDER BY over the same column
    //    skip the sort below.
    let (mut input, index_order) = match &stmt.from {
        Some(from) if from.joins.is_empty() => {
            match try_index_scan(
                catalog,
                from,
                stmt.where_clause.as_ref(),
                &stmt.order_by,
                &ctx,
            )? {
                Some((rows, ord)) => (rows, ord),
                None => (build_from(catalog, from, &ctx)?, None),
            }
        }
        Some(from) => (build_from(catalog, from, &ctx)?, None),
        None => (
            Rows {
                schema: RowSchema::empty(),
                rows: vec![Arc::new(Vec::new())],
            },
            None,
        ),
    };

    // 2. WHERE
    if let Some(pred) = &stmt.where_clause {
        if pred.contains_aggregate() {
            return Err(SqlError::Semantic(
                "aggregates are not allowed in WHERE".into(),
            ));
        }
        let mut kept = Vec::with_capacity(input.rows.len());
        for row in input.rows {
            let rc = ctx.with_row(&input.schema, &row);
            if eval_predicate(pred, &rc)? {
                kept.push(row);
            }
        }
        input.rows = kept;
    }

    // 3. GROUP BY / aggregates
    let needs_grouping = !stmt.group_by.is_empty()
        || stmt.projections.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
        || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || stmt.order_by.iter().any(|o| o.expr.contains_aggregate());

    // Each logical row to project: (source row, optional aggregate map).
    let groups: Vec<GroupedRow> = if needs_grouping {
        group_rows(stmt, &input, &ctx)?
    } else {
        input.rows.iter().cloned().map(|r| (r, None)).collect()
    };

    // 3b. HAVING
    let groups: Vec<GroupedRow> = if let Some(having) = &stmt.having {
        let mut kept = Vec::new();
        for (row, aggs) in groups {
            let rc = EvalCtx {
                catalog,
                params,
                named_params,
                row: Some((&input.schema, &row)),
                aggregates: aggs.as_ref(),
            };
            if eval_predicate(having, &rc)? {
                kept.push((row, aggs));
            }
        }
        kept
    } else {
        groups
    };

    // 4. Projection (also computes ORDER BY keys against source rows).
    let (columns, proj_exprs) = projection_plan(stmt, &input.schema)?;

    // Did an index range walk already emit rows in ORDER BY order?
    let order_served = !needs_grouping
        && stmt.order_by.len() == 1
        && index_order.is_some_and(|(col, rev)| {
            stmt.order_by[0].desc == rev
                && order_targets_column(
                    &stmt.order_by[0].expr,
                    &columns,
                    &proj_exprs,
                    &input.schema,
                    col,
                )
        });

    // Limit pushdown: once WHERE/HAVING/grouping have run, nothing below
    // drops or reorders rows when the scan already serves the ORDER BY
    // (and DISTINCT is absent), so only the first OFFSET+LIMIT candidates
    // can reach the output.
    let mut groups = groups;
    if order_served && !stmt.distinct {
        if let Some(n) = limit {
            groups.truncate(n.saturating_add(offset.unwrap_or(0)));
        }
    }

    // ORDER BY + LIMIT with no index order: accumulate through a bounded
    // top-K heap instead of materialize-then-sort. (DISTINCT must see
    // every row before truncation, so it keeps the full sort.)
    let descs: Vec<bool> = stmt.order_by.iter().map(|o| o.desc).collect();
    let mut topk = match limit {
        Some(n) if !stmt.order_by.is_empty() && !order_served && !stmt.distinct => {
            catalog.note_topk_sort();
            Some(TopK::new(
                n.saturating_add(offset.unwrap_or(0)),
                descs.clone(),
            ))
        }
        _ => None,
    };

    let mut out_rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(groups.len());
    for (seq, (row, aggs)) in groups.iter().enumerate() {
        let rc = EvalCtx {
            catalog,
            params,
            named_params,
            row: Some((&input.schema, row)),
            aggregates: aggs.as_ref(),
        };
        let mut out = Vec::with_capacity(proj_exprs.len());
        for e in &proj_exprs {
            out.push(eval(e, &rc)?);
        }
        let mut keys = Vec::with_capacity(stmt.order_by.len());
        for item in &stmt.order_by {
            keys.push(order_key(&item.expr, &columns, &out, &rc)?);
        }
        match &mut topk {
            Some(t) => t.push(keys, seq, out),
            None => out_rows.push((out, keys)),
        }
    }

    // 5. DISTINCT
    if stmt.distinct {
        let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
        out_rows.retain(|(r, _)| seen.insert(r.clone()));
    }

    // 6. ORDER BY
    let mut rows: Vec<Vec<Value>> = match topk {
        Some(t) => t.into_sorted_rows(),
        None => {
            if !stmt.order_by.is_empty() && !order_served {
                out_rows.sort_by(|(_, ka), (_, kb)| cmp_keys(ka, kb, &descs));
            }
            out_rows.into_iter().map(|(r, _)| r).collect()
        }
    };

    // 7. OFFSET / LIMIT
    if let Some(n) = offset {
        rows = rows.into_iter().skip(n).collect();
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }

    Ok(QueryResult { columns, rows })
}

/// Execute a select with `UNION` arms: run every core, combine, then
/// apply the trailing DISTINCT-like dedup, ORDER BY (output columns or
/// ordinals only) and LIMIT/OFFSET.
fn run_union(
    catalog: &Catalog,
    stmt: &SelectStmt,
    params: &[Value],
    named_params: &HashMap<String, Value>,
) -> SqlResult<QueryResult> {
    let mut head = stmt.clone();
    head.unions = Vec::new();
    head.order_by = Vec::new();
    head.limit = None;
    head.offset = None;

    let ctx = EvalCtx {
        catalog,
        params,
        named_params,
        row: None,
        aggregates: None,
    };
    // As in `run_select`: evaluate OFFSET / LIMIT exactly once, up front.
    let offset = match &stmt.offset {
        Some(e) => Some(const_usize(e, &ctx, "OFFSET")?),
        None => None,
    };
    let limit = match &stmt.limit {
        Some(e) => Some(const_usize(e, &ctx, "LIMIT")?),
        None => None,
    };

    let mut combined = run_select(catalog, &head, params, named_params)?;
    for arm in &stmt.unions {
        let rs = run_select(catalog, &arm.select, params, named_params)?;
        if rs.columns.len() != combined.columns.len() {
            return Err(SqlError::Semantic(format!(
                "UNION arms have {} and {} columns",
                combined.columns.len(),
                rs.columns.len()
            )));
        }
        combined.rows.extend(rs.rows);
        if !arm.all {
            let mut seen = std::collections::HashSet::new();
            combined.rows.retain(|r| seen.insert(r.clone()));
        }
    }

    if !stmt.order_by.is_empty() {
        // Keys must reference output columns (by name or ordinal).
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(combined.rows.len());
        for row in combined.rows {
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for item in &stmt.order_by {
                let key = match &item.expr {
                    Expr::Literal(Value::Int(n)) if *n >= 1 && (*n as usize) <= row.len() => {
                        row[*n as usize - 1].clone()
                    }
                    Expr::Column { table: None, name } => {
                        let i = combined
                            .columns
                            .iter()
                            .position(|c| c.eq_ignore_ascii_case(name))
                            .ok_or_else(|| {
                                SqlError::Semantic(format!(
                                    "ORDER BY after UNION must name an output column ('{name}')"
                                ))
                            })?;
                        row[i].clone()
                    }
                    _ => {
                        return Err(SqlError::Semantic(
                            "ORDER BY after UNION supports output columns and ordinals only".into(),
                        ))
                    }
                };
                keys.push(key);
            }
            keyed.push((row, keys));
        }
        let descs: Vec<bool> = stmt.order_by.iter().map(|o| o.desc).collect();
        keyed.sort_by(|(_, ka), (_, kb)| cmp_keys(ka, kb, &descs));
        combined = QueryResult {
            columns: combined.columns,
            rows: keyed.into_iter().map(|(r, _)| r).collect(),
        };
    }

    if let Some(n) = offset {
        combined.rows = combined.rows.into_iter().skip(n).collect();
    }
    if let Some(n) = limit {
        combined.rows.truncate(n);
    }
    Ok(combined)
}

pub(crate) fn const_usize(e: &Expr, ctx: &EvalCtx<'_>, what: &str) -> SqlResult<usize> {
    match eval(e, ctx)? {
        Value::Int(n) if n >= 0 => Ok(n as usize),
        other => Err(SqlError::Semantic(format!(
            "{what} must be a non-negative integer, got {other:?}"
        ))),
    }
}

/// Compute one ORDER BY sort key. Resolution order: ordinal literal →
/// output alias → source-row expression.
fn order_key(
    expr: &Expr,
    out_columns: &[String],
    out_row: &[Value],
    rc: &EvalCtx<'_>,
) -> SqlResult<Value> {
    if let Expr::Literal(Value::Int(n)) = expr {
        let i = *n;
        if i >= 1 && (i as usize) <= out_row.len() {
            return Ok(out_row[i as usize - 1].clone());
        }
        return Err(SqlError::Semantic(format!(
            "ORDER BY ordinal {i} out of range"
        )));
    }
    if let Expr::Column { table: None, name } = expr {
        if let Some(i) = out_columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
        {
            return Ok(out_row[i].clone());
        }
    }
    eval(expr, rc)
}

/// Expand the projection list into output column names + expressions.
/// Shared with the plan compiler, which binds the expanded expressions.
pub(crate) fn projection_plan(
    stmt: &SelectStmt,
    schema: &RowSchema,
) -> SqlResult<(Vec<String>, Vec<Expr>)> {
    let mut columns = Vec::new();
    let mut exprs = Vec::new();
    for item in &stmt.projections {
        match item {
            SelectItem::Wildcard => {
                if schema.is_empty() {
                    return Err(SqlError::Semantic("SELECT * without FROM".into()));
                }
                for (binding, name) in schema.columns() {
                    columns.push(name.clone());
                    exprs.push(Expr::Column {
                        table: binding.clone(),
                        name: name.clone(),
                    });
                }
            }
            SelectItem::QualifiedWildcard(binding) => {
                let positions = schema.binding_positions(binding);
                if positions.is_empty() {
                    return Err(SqlError::NotFound(format!("table alias '{binding}'")));
                }
                for i in positions {
                    let (b, name) = &schema.columns()[i];
                    columns.push(name.clone());
                    exprs.push(Expr::Column {
                        table: b.clone(),
                        name: name.clone(),
                    });
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.clone(),
                    None => derive_column_name(expr, columns.len()),
                };
                columns.push(name);
                exprs.push(expr.clone());
            }
        }
    }
    Ok((columns, exprs))
}

fn derive_column_name(expr: &Expr, ordinal: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{}", ordinal + 1),
    }
}

/// Rows produced by an index scan, plus `(column ordinal, descending)`
/// when the access path already emitted them in `ORDER BY` order.
type ServedScan = (Rows, Option<(usize, bool)>);

/// Index fast path: for single-table statements, serve the scan through a
/// B-tree index instead of a full walk — a point lookup for an equality
/// conjunct, a range walk for `<`/`<=`/`>`/`>=`/`BETWEEN` conjuncts, or a
/// whole-index walk when only an `ORDER BY` over an indexed column asks
/// for key order. The full WHERE still runs afterwards, so this is purely
/// an access-path optimization. Range and whole-index walks emit rows in
/// key order and return `Some((col, desc))` so the caller can skip the
/// sort. Returns `None` when inapplicable.
fn try_index_scan(
    catalog: &Catalog,
    from: &FromClause,
    where_clause: Option<&Expr>,
    order_by: &[OrderItem],
    ctx: &EvalCtx<'_>,
) -> SqlResult<Option<ServedScan>> {
    let TableSource::Named(name) = &from.base.source else {
        return Ok(None);
    };
    if let Some(pred) = where_clause {
        if pred.contains_aggregate() {
            return Ok(None);
        }
    }
    // Views (and unknown names) fall through to the general scan path,
    // which produces the proper view expansion or error.
    let Ok(table) = catalog.table(name) else {
        return Ok(None);
    };
    let binding = from.base.binding_name().unwrap_or(name).to_string();

    let mut conjuncts = Vec::new();
    if let Some(pred) = where_clause {
        flatten_and(pred, &mut conjuncts);
    }
    let schema = RowSchema::new(
        table
            .schema
            .columns
            .iter()
            .map(|c| (Some(binding.clone()), c.name.clone()))
            .collect(),
    );

    let order_hint = naive_order_hint(order_by, &binding, &table);
    let probe = match index_probe(&conjuncts, &binding, &table, order_hint, ctx)? {
        Some(probe) => probe,
        // Pure ORDER BY over an indexed column: a whole-index walk emits
        // all rows already sorted — NULL keys included, in their
        // NULLS-first (or, descending, NULLS-last) sort position.
        None => match order_hint {
            Some((col, desc)) if table.find_index(&[col]).is_some() => Probe::Range {
                col,
                lower: None,
                upper: None,
                rev: desc,
                nulls: true,
            },
            _ => return Ok(None),
        },
    };
    // Range and whole-index walks emit rows in key order.
    let served = match &probe {
        Probe::Range { col, rev, .. } => Some((*col, *rev)),
        _ => None,
    };
    let rows: Vec<Arc<Row>> = probe
        .index_entries(catalog, &table)
        .into_iter()
        .map(|(_, row)| Arc::clone(row))
        .collect();
    Ok(Some((Rows { schema, rows }, served)))
}

/// The index access the interpreter takes for a single-table WHERE, keys
/// evaluated: an equality probe first (a point lookup beats any range
/// walk), then a range walk over the first indexed column with a range
/// conjunct — backwards when `order_hint` asks for that column
/// descending, so the emission order serves the sort. `None` when no
/// index serves a conjunct. The plan compiler's `choose_access` makes the
/// same choice.
pub(crate) fn index_probe(
    conjuncts: &[Expr],
    binding: &str,
    table: &crate::storage::Table,
    order_hint: Option<(usize, bool)>,
    ctx: &EvalCtx<'_>,
) -> SqlResult<Option<Probe>> {
    if let Some((col, key)) = find_eq_candidate(conjuncts, binding, table) {
        return Ok(Some(Probe::Eq {
            col,
            key: eval(key, ctx)?,
        }));
    }
    let Some(spec) = find_range_candidate(conjuncts, binding, table) else {
        return Ok(None);
    };
    let bound = |b: Option<(&Expr, bool)>| b.map(|(e, inc)| Ok((eval(e, ctx)?, inc))).transpose();
    Ok(Some(Probe::Range {
        col: spec.col,
        lower: bound(spec.lower)?,
        upper: bound(spec.upper)?,
        rev: order_hint.is_some_and(|(c, desc)| c == spec.col && desc),
        nulls: false,
    }))
}

/// First conjunct of the form `col = row-independent-expr` (either side)
/// over a column with a single-column index. Shared with the plan
/// compiler, which must pick the same access path as the interpreter so
/// both emit rows in the same order.
pub(crate) fn find_eq_candidate<'a>(
    conjuncts: &'a [Expr],
    binding: &str,
    table: &crate::storage::Table,
) -> Option<(usize, &'a Expr)> {
    for c in conjuncts {
        let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        // One side must be a column of this table, the other a
        // row-independent expression.
        let (col, value_expr) = match (left.as_ref(), right.as_ref()) {
            (Expr::Column { table: t, name: n }, e) if is_row_independent(e) => {
                match resolve_local(binding, t.as_deref(), n, table) {
                    Some(pos) => (pos, e),
                    None => continue,
                }
            }
            (e, Expr::Column { table: t, name: n }) if is_row_independent(e) => {
                match resolve_local(binding, t.as_deref(), n, table) {
                    Some(pos) => (pos, e),
                    None => continue,
                }
            }
            _ => continue,
        };
        if table.find_index(&[col]).is_some() {
            return Some((col, value_expr));
        }
    }
    None
}

/// What one conjunct contributes to a single-column range. Bounds are
/// `(expr, inclusive)`.
enum RangeConstraint<'a> {
    Lower(&'a Expr, bool),
    Upper(&'a Expr, bool),
    Both((&'a Expr, bool), (&'a Expr, bool)),
}

fn range_conjunct<'a>(
    c: &'a Expr,
    binding: &str,
    table: &crate::storage::Table,
) -> Option<(usize, RangeConstraint<'a>)> {
    match c {
        Expr::Binary { left, op, right }
            if matches!(op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) =>
        {
            // col <op> value
            if let Expr::Column { table: t, name: n } = left.as_ref() {
                if is_row_independent(right) {
                    let col = resolve_local(binding, t.as_deref(), n, table)?;
                    let rc = match op {
                        BinOp::Lt => RangeConstraint::Upper(right, false),
                        BinOp::LtEq => RangeConstraint::Upper(right, true),
                        BinOp::Gt => RangeConstraint::Lower(right, false),
                        BinOp::GtEq => RangeConstraint::Lower(right, true),
                        _ => unreachable!(),
                    };
                    return Some((col, rc));
                }
            }
            // value <op> col — same constraint with the sides flipped.
            if let Expr::Column { table: t, name: n } = right.as_ref() {
                if is_row_independent(left) {
                    let col = resolve_local(binding, t.as_deref(), n, table)?;
                    let rc = match op {
                        BinOp::Lt => RangeConstraint::Lower(left, false),
                        BinOp::LtEq => RangeConstraint::Lower(left, true),
                        BinOp::Gt => RangeConstraint::Upper(left, false),
                        BinOp::GtEq => RangeConstraint::Upper(left, true),
                        _ => unreachable!(),
                    };
                    return Some((col, rc));
                }
            }
            None
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            if let Expr::Column { table: t, name: n } = expr.as_ref() {
                if is_row_independent(low) && is_row_independent(high) {
                    let col = resolve_local(binding, t.as_deref(), n, table)?;
                    return Some((col, RangeConstraint::Both((low, true), (high, true))));
                }
            }
            None
        }
        _ => None,
    }
}

/// A resolved range-scan candidate: the indexed column plus at most one
/// lower and one upper bound taken from the conjuncts. Remaining
/// conjuncts (including further bounds on the same column) stay in the
/// residual WHERE, which always re-runs.
pub(crate) struct RangeSpec<'a> {
    pub col: usize,
    pub lower: Option<(&'a Expr, bool)>,
    pub upper: Option<(&'a Expr, bool)>,
}

/// First indexed column constrained by a range conjunct, with its first
/// lower and first upper bound. Deterministic — the plan compiler calls
/// this too and must agree with the interpreter on the access path.
pub(crate) fn find_range_candidate<'a>(
    conjuncts: &'a [Expr],
    binding: &str,
    table: &crate::storage::Table,
) -> Option<RangeSpec<'a>> {
    let mut target = None;
    for c in conjuncts {
        if let Some((col, _)) = range_conjunct(c, binding, table) {
            if table.find_index(&[col]).is_some() {
                target = Some(col);
                break;
            }
        }
    }
    let col = target?;
    let mut lower: Option<(&Expr, bool)> = None;
    let mut upper: Option<(&Expr, bool)> = None;
    for c in conjuncts {
        match range_conjunct(c, binding, table) {
            Some((c2, rc)) if c2 == col => match rc {
                RangeConstraint::Lower(e, inc) => {
                    if lower.is_none() {
                        lower = Some((e, inc));
                    }
                }
                RangeConstraint::Upper(e, inc) => {
                    if upper.is_none() {
                        upper = Some((e, inc));
                    }
                }
                RangeConstraint::Both(lo, hi) => {
                    if lower.is_none() {
                        lower = Some(lo);
                    }
                    if upper.is_none() {
                        upper = Some(hi);
                    }
                }
            },
            _ => {}
        }
    }
    Some(RangeSpec { col, lower, upper })
}

/// Cheap syntactic check: does the (single-item) ORDER BY name a column of
/// the scanned table directly? Used only to pick the walk direction — the
/// authoritative skip-sort decision re-resolves against the projection
/// (aliases can shadow source columns).
pub(crate) fn naive_order_hint(
    order_by: &[OrderItem],
    binding: &str,
    table: &crate::storage::Table,
) -> Option<(usize, bool)> {
    if order_by.len() != 1 {
        return None;
    }
    let item = &order_by[0];
    if let Expr::Column { table: t, name: n } = &item.expr {
        let col = resolve_local(binding, t.as_deref(), n, table)?;
        return Some((col, item.desc));
    }
    None
}

/// Does this ORDER BY item sort by exactly the given source column?
/// Mirrors [`order_key`]'s resolution order — ordinal literal, then
/// output alias, then source expression — so an alias shadowing a source
/// column is honored.
pub(crate) fn order_targets_column(
    expr: &Expr,
    out_columns: &[String],
    proj_exprs: &[Expr],
    schema: &RowSchema,
    col: usize,
) -> bool {
    let target = match expr {
        Expr::Literal(Value::Int(n)) => {
            if *n >= 1 && (*n as usize) <= proj_exprs.len() {
                &proj_exprs[*n as usize - 1]
            } else {
                return false;
            }
        }
        Expr::Column { table: None, name } => {
            match out_columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(name))
            {
                Some(i) => &proj_exprs[i],
                None => expr,
            }
        }
        e => e,
    };
    match target {
        Expr::Column { table, name } => schema.resolve(table.as_deref(), name).ok() == Some(col),
        _ => false,
    }
}

/// Does the expression avoid column references and aggregates (i.e. can
/// it be evaluated once per statement)? Subqueries are conservatively
/// rejected to keep the fast path cheap to test for.
pub(crate) fn is_row_independent(e: &Expr) -> bool {
    let mut independent = true;
    e.walk(&mut |node| {
        if matches!(
            node,
            Expr::Column { .. }
                | Expr::InSubquery { .. }
                | Expr::Exists { .. }
                | Expr::ScalarSubquery(_)
        ) {
            independent = false;
        }
        if let Expr::Function { name, .. } = node {
            if is_aggregate_name(name) || name == "NEXTVAL" {
                independent = false;
            }
        }
    });
    independent
}

pub(crate) fn resolve_local(
    binding: &str,
    qualifier: Option<&str>,
    column: &str,
    table: &crate::storage::Table,
) -> Option<usize> {
    if let Some(q) = qualifier {
        if !q.eq_ignore_ascii_case(binding) {
            return None;
        }
    }
    table.schema.col_index(column)
}

// ---------------------------------------------------------------- FROM / joins

fn build_from(catalog: &Catalog, from: &FromClause, ctx: &EvalCtx<'_>) -> SqlResult<Rows> {
    let mut left = scan_table_ref(catalog, &from.base, ctx)?;
    for join in &from.joins {
        let right = scan_table_ref(catalog, &join.table, ctx)?;
        left = join_rows(left, right, join, ctx)?;
    }
    Ok(left)
}

fn scan_table_ref(catalog: &Catalog, tref: &TableRef, ctx: &EvalCtx<'_>) -> SqlResult<Rows> {
    match &tref.source {
        TableSource::Named(name) => {
            // Views shadow nothing: names are unique across tables and
            // views (enforced by DDL), so check views first.
            if catalog.has_view(name) {
                let view = catalog.view(name)?.clone();
                let _guard = catalog.enter_view()?;
                let rs = run_select(catalog, &view.query, ctx.params, ctx.named_params)?;
                let binding = tref.binding_name().unwrap_or(name).to_string();
                let schema = RowSchema::new(
                    rs.columns
                        .iter()
                        .map(|c| (Some(binding.clone()), c.clone()))
                        .collect(),
                );
                return Ok(Rows {
                    schema,
                    rows: rs.rows.into_iter().map(Arc::new).collect(),
                });
            }
            let table = catalog.table(name)?;
            let binding = tref.binding_name().unwrap_or(name).to_string();
            let schema = RowSchema::new(
                table
                    .schema
                    .columns
                    .iter()
                    .map(|c| (Some(binding.clone()), c.name.clone()))
                    .collect(),
            );
            catalog.note_full_scan();
            // Arc clones: the scan shares stored rows, no deep copy.
            let rows: Vec<Arc<Row>> = table.iter().map(|(_, r)| Arc::clone(r)).collect();
            catalog.note_full_scan_rows(rows.len() as u64);
            Ok(Rows { schema, rows })
        }
        TableSource::Subquery(sub) => {
            let rs = run_select(ctx.catalog, sub, ctx.params, ctx.named_params)?;
            let binding = tref
                .alias
                .clone()
                .expect("parser enforces derived-table alias");
            let schema = RowSchema::new(
                rs.columns
                    .iter()
                    .map(|c| (Some(binding.clone()), c.clone()))
                    .collect(),
            );
            Ok(Rows {
                schema,
                rows: rs.rows.into_iter().map(Arc::new).collect(),
            })
        }
    }
}

/// Split an `ON` conjunction into hashable equi-pairs and a residual.
/// Shared with the plan compiler, which reuses the exact same pair
/// extraction so compiled joins hash on the same keys the interpreter does.
pub(crate) fn split_equi_join(
    on: &Expr,
    left: &RowSchema,
    right: &RowSchema,
) -> (Vec<(usize, usize)>, Vec<Expr>) {
    let mut conjuncts = Vec::new();
    flatten_and(on, &mut conjuncts);
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        if let Expr::Binary {
            left: a,
            op: BinOp::Eq,
            right: b,
        } = &c
        {
            if let (
                Expr::Column {
                    table: ta,
                    name: na,
                },
                Expr::Column {
                    table: tb,
                    name: nb,
                },
            ) = (a.as_ref(), b.as_ref())
            {
                let la = left.resolve(ta.as_deref(), na);
                let rb = right.resolve(tb.as_deref(), nb);
                if let (Ok(i), Ok(j)) = (la, rb) {
                    pairs.push((i, j));
                    continue;
                }
                let lb = left.resolve(tb.as_deref(), nb);
                let ra = right.resolve(ta.as_deref(), na);
                if let (Ok(i), Ok(j)) = (lb, ra) {
                    pairs.push((i, j));
                    continue;
                }
            }
        }
        residual.push(c);
    }
    (pairs, residual)
}

pub(crate) fn flatten_and(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary {
        left,
        op: BinOp::And,
        right,
    } = e
    {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(e.clone());
    }
}

fn join_rows(left: Rows, right: Rows, join: &Join, ctx: &EvalCtx<'_>) -> SqlResult<Rows> {
    // Combined schema: left columns then right columns.
    let mut schema = left.schema.clone();
    for (b, n) in right.schema.columns() {
        schema.push(b.clone(), n.clone());
    }

    let left_width = left.schema.len();
    let right_width = right.schema.len();

    let mut out = Vec::new();
    match join.kind {
        JoinKind::Cross => {
            for l in &left.rows {
                for r in &right.rows {
                    let mut row = Vec::with_capacity(left_width + right_width);
                    row.extend(l.iter().cloned());
                    row.extend(r.iter().cloned());
                    out.push(Arc::new(row));
                }
            }
        }
        JoinKind::Inner | JoinKind::Left | JoinKind::Right => {
            let on = join
                .on
                .as_ref()
                .expect("parser enforces ON for non-cross joins");
            let (pairs, residual) = split_equi_join(on, &left.schema, &right.schema);

            // Track which right rows matched (for RIGHT join padding).
            let mut right_matched = vec![false; right.rows.len()];

            // Build hash table on the right side when we have equi-pairs.
            // Keys borrow the right rows' values; probes borrow the left
            // row's — no per-row `Vec<Value>` key clones on either side.
            let hash: Option<HashMap<Vec<&Value>, Vec<usize>>> = if pairs.is_empty() {
                None
            } else {
                let mut h: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
                for (ri, r) in right.rows.iter().enumerate() {
                    let key: Vec<&Value> = pairs.iter().map(|(_, j)| &r[*j]).collect();
                    if key.iter().any(|v| v.is_null()) {
                        continue; // NULL never equi-joins
                    }
                    h.entry(key).or_default().push(ri);
                }
                Some(h)
            };

            // Candidate list for the no-equi-pair nested loop, built once
            // instead of per outer row.
            let all_right: Vec<usize> = if hash.is_none() {
                (0..right.rows.len()).collect()
            } else {
                Vec::new()
            };
            let mut probe_key: Vec<&Value> = Vec::with_capacity(pairs.len());

            for l in &left.rows {
                let candidates: &[usize] = match &hash {
                    Some(h) => {
                        probe_key.clear();
                        probe_key.extend(pairs.iter().map(|(i, _)| &l[*i]));
                        if probe_key.iter().any(|v| v.is_null()) {
                            &[]
                        } else {
                            h.get(&probe_key).map(Vec::as_slice).unwrap_or(&[])
                        }
                    }
                    None => all_right.as_slice(),
                };
                let mut matched = false;
                for &ri in candidates {
                    let r = &right.rows[ri];
                    let mut row = Vec::with_capacity(left_width + right_width);
                    row.extend(l.iter().cloned());
                    row.extend(r.iter().cloned());
                    let ok = if residual.is_empty() && hash.is_some() {
                        true
                    } else {
                        let rc = ctx.with_row(&schema, &row);
                        let mut pass = true;
                        // With no equi-pairs the full ON is the residual set.
                        for cond in &residual {
                            if !eval_predicate(cond, &rc)? {
                                pass = false;
                                break;
                            }
                        }
                        pass
                    };
                    if ok {
                        matched = true;
                        right_matched[ri] = true;
                        out.push(Arc::new(row));
                    }
                }
                if !matched && join.kind == JoinKind::Left {
                    let mut row: Vec<Value> = l.iter().cloned().collect();
                    row.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(Arc::new(row));
                }
            }
            if join.kind == JoinKind::Right {
                for (ri, m) in right_matched.iter().enumerate() {
                    if !m {
                        let mut row: Vec<Value> =
                            std::iter::repeat_n(Value::Null, left_width).collect();
                        row.extend(right.rows[ri].iter().cloned());
                        out.push(Arc::new(row));
                    }
                }
            }
        }
    }
    Ok(Rows { schema, rows: out })
}

// ---------------------------------------------------------------- grouping

/// One aggregate call site found in the statement. Shared with the plan
/// compiler, which lowers each spec into a synthetic virtual-row column.
pub(crate) struct AggSpec {
    pub(crate) key: String,
    pub(crate) name: String,
    pub(crate) arg: Option<Expr>,
    pub(crate) distinct: bool,
}

pub(crate) fn collect_aggregates(stmt: &SelectStmt) -> Vec<AggSpec> {
    let mut specs: Vec<AggSpec> = Vec::new();
    let mut visit = |e: &Expr| {
        e.walk(&mut |node| {
            if let Expr::Function {
                name,
                args,
                distinct,
                star,
            } = node
            {
                if is_aggregate_name(name) {
                    let key = aggregate_key(node);
                    if specs.iter().any(|s| s.key == key) {
                        return;
                    }
                    let arg = if *star { None } else { args.first().cloned() };
                    specs.push(AggSpec {
                        key,
                        name: name.clone(),
                        arg,
                        distinct: *distinct,
                    });
                }
            }
        });
    };
    for p in &stmt.projections {
        if let SelectItem::Expr { expr, .. } = p {
            visit(expr);
        }
    }
    if let Some(h) = &stmt.having {
        visit(h);
    }
    for o in &stmt.order_by {
        visit(&o.expr);
    }
    specs
}

fn group_rows(stmt: &SelectStmt, input: &Rows, ctx: &EvalCtx<'_>) -> SqlResult<Vec<GroupedRow>> {
    let specs = collect_aggregates(stmt);

    // Hash rows into groups by GROUP BY key (single global group if none).
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, row) in input.rows.iter().enumerate() {
        let rc = ctx.with_row(&input.schema, row);
        let mut key = Vec::with_capacity(stmt.group_by.len());
        for g in &stmt.group_by {
            key.push(eval(g, &rc)?);
        }
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(i);
    }

    // No rows and no GROUP BY → one empty group (global aggregates).
    if groups.is_empty() && stmt.group_by.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), Vec::new());
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let members = &groups[&key];
        let mut aggs = HashMap::new();
        for spec in &specs {
            let v = compute_aggregate(spec, members, input, ctx)?;
            aggs.insert(spec.key.clone(), v);
        }
        // Representative row: first member, or all-NULL for the empty group.
        let repr = members
            .first()
            .map(|&i| input.rows[i].clone())
            .unwrap_or_else(|| Arc::new(vec![Value::Null; input.schema.len()]));
        out.push((repr, Some(aggs)));
    }
    Ok(out)
}

fn compute_aggregate(
    spec: &AggSpec,
    members: &[usize],
    input: &Rows,
    ctx: &EvalCtx<'_>,
) -> SqlResult<Value> {
    // COUNT(*) counts rows directly.
    if spec.name == "COUNT" && spec.arg.is_none() {
        return Ok(Value::Int(members.len() as i64));
    }
    let arg = spec
        .arg
        .as_ref()
        .ok_or_else(|| SqlError::Semantic(format!("{}(*) is only valid for COUNT", spec.name)))?;

    let mut values = Vec::with_capacity(members.len());
    for &i in members {
        let rc = ctx.with_row(&input.schema, &input.rows[i]);
        let v = eval(arg, &rc)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    combine_agg_values(&spec.name, &mut values, spec.distinct)
}

/// Fold a group's already-collected non-NULL argument values into one
/// aggregate result. Shared by the interpreter (above) and the batch
/// executor's hash aggregator — keeping the combine step single-sourced
/// is what makes their results byte-identical, including the
/// first-of-equals tie behavior of MIN and last-of-equals of MAX.
pub(crate) fn combine_agg_values(
    name: &str,
    values: &mut Vec<Value>,
    distinct: bool,
) -> SqlResult<Value> {
    if distinct {
        let mut seen = std::collections::HashSet::new();
        values.retain(|v| seen.insert(v.clone()));
    }

    match name {
        "COUNT" => Ok(Value::Int(values.len() as i64)),
        "SUM" | "AVG" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = values.iter().all(|v| matches!(v, Value::Int(_)));
            let mut total = 0f64;
            for v in values.iter() {
                total += v.as_f64().ok_or_else(|| {
                    SqlError::Semantic(format!("{name}() over non-numeric value"))
                })?;
            }
            if name == "AVG" {
                Ok(Value::Float(total / values.len() as f64))
            } else if all_int {
                Ok(Value::Int(total as i64))
            } else {
                Ok(Value::Float(total))
            }
        }
        "MIN" => Ok(values
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null)),
        "MAX" => Ok(values
            .iter()
            .max_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null)),
        other => Err(SqlError::Semantic(format!("unknown aggregate '{other}'"))),
    }
}

// ---------------------------------------------------------------- ordering

/// Compare two ORDER BY key vectors under per-key direction flags.
pub(crate) fn cmp_keys(ka: &[Value], kb: &[Value], descs: &[bool]) -> std::cmp::Ordering {
    for ((a, b), desc) in ka.iter().zip(kb).zip(descs) {
        let ord = a.total_cmp(b);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Bounded top-K accumulator for `ORDER BY … LIMIT n`: keeps the `k`
/// smallest `(keys, seq)` entries under the ORDER BY comparator in a
/// max-heap, so each insertion costs O(log k) instead of sorting all `n`
/// rows. `seq` is the arrival position; using it as the final tiebreaker
/// makes the kept set and its order exactly what a stable full sort
/// followed by truncation would produce.
pub(crate) struct TopK {
    k: usize,
    descs: Vec<bool>,
    /// Max-heap: `heap[0]` is the largest kept entry.
    heap: Vec<(Vec<Value>, usize, Vec<Value>)>,
}

impl TopK {
    pub(crate) fn new(k: usize, descs: Vec<bool>) -> TopK {
        TopK {
            k,
            descs,
            heap: Vec::new(),
        }
    }

    fn cmp_entries(
        &self,
        a: &(Vec<Value>, usize, Vec<Value>),
        b: &(Vec<Value>, usize, Vec<Value>),
    ) -> std::cmp::Ordering {
        cmp_keys(&a.0, &b.0, &self.descs).then(a.1.cmp(&b.1))
    }

    pub(crate) fn push(&mut self, keys: Vec<Value>, seq: usize, row: Vec<Value>) {
        if self.k == 0 {
            return;
        }
        let entry = (keys, seq, row);
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

    /// The kept rows in final ORDER BY order.
    pub(crate) fn into_sorted_rows(self) -> Vec<Vec<Value>> {
        let descs = self.descs;
        let mut entries = self.heap;
        entries.sort_by(|a, b| cmp_keys(&a.0, &b.0, &descs).then(a.1.cmp(&b.1)));
        entries.into_iter().map(|(_, _, r)| r).collect()
    }
}
