//! `SELECT` execution by the tree-walking interpreter: scan → join →
//! filter → group/aggregate → sort → offset/limit → project.
//!
//! The interpreter is the differential oracle for the compiled plans and
//! the fallback for statements that do not compile, so it is naive on
//! purpose: it takes no access path — every table is scanned in full, in
//! row id order — has no top-K and no LIMIT cut, and follows the three
//! rules of `docs/adr/0003-access-path-independent-results.md` in their
//! plainest form. What it shares with the compiled engine is value
//! semantics (`crate::expr`, `cmp_keys`, `combine_agg_values`) and
//! the hash-join key split (`split_equi_join`), never a plan decision.
//!
//! Joins use a hash join whenever the `ON` clause contains at least one
//! pure left-column = right-column equality (large joins run through
//! here too); remaining conjuncts become a residual filter. Grouped
//! aggregation hashes on the `GROUP BY` key values and pre-computes
//! every aggregate call site, which the shared expression evaluator then
//! reads back by key.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::*;
use crate::catalog::Catalog;
use crate::db::QueryResult;
use crate::error::{SqlError, SqlResult};
use crate::exec::Probe;
use crate::expr::{aggregate_key, eval, eval_predicate, is_aggregate_name, EvalCtx, RowSchema};
use crate::storage::{Snapshot, StoredRow};
use crate::types::Value;

/// One logical row to project: the source row plus its pre-computed
/// aggregate values (grouped queries only). The source row is shared with
/// the pipeline input, so grouping never deep-copies row data.
type GroupedRow = (StoredRow, Option<HashMap<String, Value>>);

/// A materialized intermediate row set. Rows are `Arc`-shared: a base
/// table scan hands out pointers to stored rows, and derived rows (joins,
/// views, subqueries) are allocated once and shared from then on.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    pub schema: RowSchema,
    pub rows: Vec<StoredRow>,
}

/// Run a `SELECT` and materialize its result: full scans, WHERE, GROUP
/// BY/HAVING, stable sort, OFFSET/LIMIT, then the SELECT list on the
/// rows kept.
pub fn run_select(
    catalog: &Catalog,
    snap: &Snapshot,
    stmt: &SelectStmt,
    params: &[Value],
    named_params: &HashMap<String, Value>,
) -> SqlResult<QueryResult> {
    if !stmt.unions.is_empty() {
        return run_union(catalog, snap, stmt, params, named_params);
    }

    let ctx = EvalCtx {
        catalog,
        snap,
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

    // 1. FROM: every table scanned in full, in row id order.
    let mut input = match &stmt.from {
        Some(from) => build_from(catalog, from, &ctx)?,
        None => Rows {
            schema: RowSchema::empty(),
            rows: vec![StoredRow::from(Vec::new())],
        },
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
        for group in groups {
            if eval_predicate(having, &group_ctx(&ctx, &input.schema, &group))? {
                kept.push(group);
            }
        }
        kept
    } else {
        groups
    };

    // 4. Output (ADR 0003, rule c).
    let (columns, proj_exprs) = projection_plan(stmt, &input.schema)?;
    let keys: Vec<SortKey> = stmt
        .order_by
        .iter()
        .map(|o| sort_key(&o.expr, &columns))
        .collect();
    let descs: Vec<bool> = stmt.order_by.iter().map(|o| o.desc).collect();
    let (skip, take) = (offset.unwrap_or(0), limit.unwrap_or(usize::MAX));
    let rows = if stmt.distinct || (offset.is_none() && limit.is_none()) {
        // Every row is an output row, or DISTINCT must compare evaluated
        // rows: the SELECT list, then the sort keys, row by row.
        let mut out_rows = Vec::with_capacity(groups.len());
        for group in &groups {
            let rc = group_ctx(&ctx, &input.schema, group);
            let mut out = Vec::with_capacity(proj_exprs.len());
            for e in &proj_exprs {
                out.push(eval(e, &rc)?);
            }
            let mut row_keys = Vec::with_capacity(keys.len());
            for key in &keys {
                row_keys.push(match key {
                    SortKey::Output(i) => out[*i].clone(),
                    _ => key.eval(&proj_exprs, &rc)?,
                });
            }
            out_rows.push((out, row_keys));
        }
        if stmt.distinct {
            let mut seen = std::collections::HashSet::new();
            out_rows.retain(|(r, _)| seen.insert(r.clone()));
        }
        if !keys.is_empty() {
            out_rows.sort_by(|(_, ka), (_, kb)| cmp_keys(ka, kb, &descs));
        }
        (out_rows.into_iter().skip(skip).take(take))
            .map(|(r, _)| r)
            .collect()
    } else {
        // Choose the output rows first — sort keys for every row, a
        // stable sort, OFFSET and LIMIT — then evaluate the SELECT list
        // on the rows kept, reusing the output columns a key evaluated.
        let mut keyed = Vec::with_capacity(groups.len());
        for group in &groups {
            let rc = group_ctx(&ctx, &input.schema, group);
            let row_keys = (keys.iter())
                .map(|key| key.eval(&proj_exprs, &rc))
                .collect::<SqlResult<Vec<_>>>()?;
            keyed.push((row_keys, group));
        }
        if !keys.is_empty() {
            keyed.sort_by(|(ka, _), (kb, _)| cmp_keys(ka, kb, &descs));
        }
        let mut rows = Vec::new();
        for (row_keys, group) in keyed.into_iter().skip(skip).take(take) {
            let rc = group_ctx(&ctx, &input.schema, group);
            let mut out = Vec::with_capacity(proj_exprs.len());
            for (i, e) in proj_exprs.iter().enumerate() {
                out.push(match keys.iter().position(|k| *k == SortKey::Output(i)) {
                    Some(k) => row_keys[k].clone(),
                    None => eval(e, &rc)?,
                });
            }
            rows.push(out);
        }
        rows
    };

    Ok(QueryResult { columns, rows })
}

/// The evaluation context of one logical row: its source row and, when
/// grouped, its aggregate values.
fn group_ctx<'a>(ctx: &EvalCtx<'a>, schema: &'a RowSchema, group: &'a GroupedRow) -> EvalCtx<'a> {
    EvalCtx {
        aggregates: group.1.as_ref(),
        ..ctx.with_row(schema, &group.0)
    }
}

/// Where one ORDER BY key comes from, resolved as the plan compiler's
/// `compile_order_key` resolves it: an ordinal literal or a bare name
/// matching an output column names that output column; anything else is
/// an expression over the source row.
#[derive(PartialEq)]
enum SortKey<'a> {
    Output(usize),
    Row(&'a Expr),
    /// An ordinal past the SELECT list: an error once a row is sorted.
    BadOrdinal(i64),
}

fn sort_key<'a>(expr: &'a Expr, out_columns: &[String]) -> SortKey<'a> {
    match expr {
        Expr::Literal(Value::Int(n)) if *n >= 1 && (*n as usize) <= out_columns.len() => {
            SortKey::Output(*n as usize - 1)
        }
        Expr::Literal(Value::Int(n)) => SortKey::BadOrdinal(*n),
        Expr::Column { table: None, name } => {
            match out_columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(name))
            {
                Some(i) => SortKey::Output(i),
                None => SortKey::Row(expr),
            }
        }
        e => SortKey::Row(e),
    }
}

impl SortKey<'_> {
    /// This key's value for one row.
    fn eval(&self, proj_exprs: &[Expr], rc: &EvalCtx<'_>) -> SqlResult<Value> {
        match self {
            SortKey::Output(i) => eval(&proj_exprs[*i], rc),
            SortKey::Row(e) => eval(e, rc),
            SortKey::BadOrdinal(n) => Err(SqlError::Semantic(format!(
                "ORDER BY ordinal {n} out of range"
            ))),
        }
    }
}

/// Execute a select with `UNION` arms: run every core, combine, then
/// apply the trailing DISTINCT-like dedup, ORDER BY (output columns or
/// ordinals only) and LIMIT/OFFSET.
fn run_union(
    catalog: &Catalog,
    snap: &Snapshot,
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
        snap,
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

    let mut combined = run_select(catalog, snap, &head, params, named_params)?;
    for arm in &stmt.unions {
        let rs = run_select(catalog, snap, &arm.select, params, named_params)?;
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
                let rs = run_select(catalog, ctx.snap, &view.query, ctx.params, ctx.named_params)?;
                let binding = tref.binding_name().unwrap_or(name).to_string();
                let schema = RowSchema::for_binding(&binding, &rs.columns);
                return Ok(Rows {
                    schema,
                    rows: rs.rows.into_iter().map(StoredRow::from).collect(),
                });
            }
            let table = catalog.table(name)?;
            let binding = tref.binding_name().unwrap_or(name).to_string();
            let schema =
                RowSchema::for_binding(&binding, table.schema.columns.iter().map(|c| &c.name));
            // Arc clones: the scan shares stored rows, no deep copy.
            let rows: Vec<StoredRow> = Probe::Full
                .rows(catalog, ctx.snap, &table)
                .map(|(_, r)| Arc::clone(r))
                .collect();
            Ok(Rows { schema, rows })
        }
        TableSource::Subquery(sub) => {
            let rs = run_select(ctx.catalog, ctx.snap, sub, ctx.params, ctx.named_params)?;
            let binding = tref
                .alias
                .clone()
                .expect("parser enforces derived-table alias");
            let schema = RowSchema::for_binding(&binding, &rs.columns);
            Ok(Rows {
                schema,
                rows: rs.rows.into_iter().map(StoredRow::from).collect(),
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
                    out.push(StoredRow::from(row));
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
                        out.push(StoredRow::from(row));
                    }
                }
                if !matched && join.kind == JoinKind::Left {
                    let mut row: Vec<Value> = l.iter().cloned().collect();
                    row.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(StoredRow::from(row));
                }
            }
            if join.kind == JoinKind::Right {
                for (ri, m) in right_matched.iter().enumerate() {
                    if !m {
                        let mut row: Vec<Value> =
                            std::iter::repeat_n(Value::Null, left_width).collect();
                        row.extend(right.rows[ri].iter().cloned());
                        out.push(StoredRow::from(row));
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
            .unwrap_or_else(|| StoredRow::from(vec![Value::Null; input.schema.len()]));
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
    fold_agg_values(name, values.iter())
}

/// [`combine_agg_values`] without DISTINCT, over non-NULL values in
/// member order. A SUM of Int values only is exact ([`IntTotal`]); any
/// Float makes it, like AVG, a float total in arrival order.
pub(crate) fn fold_agg_values<'v>(
    name: &str,
    values: impl Iterator<Item = &'v Value>,
) -> SqlResult<Value> {
    match name {
        "COUNT" => Ok(Value::Int(values.count() as i64)),
        "SUM" | "AVG" => {
            let (mut total, mut exact, mut n, mut all_int) =
                (0f64, IntTotal::default(), 0u64, true);
            for v in values {
                total += v.as_f64().ok_or_else(|| {
                    SqlError::Semantic(format!("{name}() over non-numeric value"))
                })?;
                match v {
                    Value::Int(i) => exact.add(*i),
                    _ => all_int = false,
                }
                n += 1;
            }
            if n == 0 {
                Ok(Value::Null)
            } else if name == "AVG" {
                Ok(Value::Float(total / n as f64))
            } else if all_int {
                exact.value()
            } else {
                Ok(Value::Float(total))
            }
        }
        "MIN" => Ok(values
            .min_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null)),
        "MAX" => Ok(values
            .max_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null)),
        other => Err(SqlError::Semantic(format!("unknown aggregate '{other}'"))),
    }
}

/// The exact total of a SUM over Int values: a 128-bit integer held as
/// the wrapping `i64` sum and the net count of its wraps. Two 8-byte
/// words keep a group's inline SUM state (`exec::batch`'s `SumAcc`) at
/// 32 bytes, where an `i128` would align it to 16 and grow it to 48.
/// The total fits `i64` exactly when the wraps cancel out.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntTotal {
    low: i64,
    wraps: i64,
}

impl IntTotal {
    pub(crate) fn add(&mut self, v: i64) {
        let (low, wrapped) = self.low.overflowing_add(v);
        self.low = low;
        if wrapped {
            self.wraps += v.signum();
        }
    }

    /// The total as an `Int`, or the runtime error integer `+` raises
    /// when it leaves `i64`.
    pub(crate) fn value(self) -> SqlResult<Value> {
        match self.wraps {
            0 => Ok(Value::Int(self.low)),
            _ => Err(SqlError::Runtime("integer overflow".into())),
        }
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
