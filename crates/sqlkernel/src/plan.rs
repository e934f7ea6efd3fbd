//! Compiled statement plans.
//!
//! [`compile`] turns a parsed `SELECT`, `UPDATE`, or `DELETE` into a
//! [`CompiledPlan`]: column references resolved to row ordinals
//! ([`BoundExpr`]), constants folded, the access path (point lookup,
//! range walk, whole-index walk, or full scan) chosen once, and the
//! projection / ORDER BY shape fixed. Executing a compiled plan skips
//! name resolution entirely — the per-row work is ordinal loads and
//! value operations.
//!
//! Compilation is best-effort and *must not change semantics*. Anything
//! the compiler does not understand — views, unions, derived tables,
//! unresolvable names — yields [`CompiledPlan::Unsupported`] and the
//! caller falls back to the tree-walking interpreter, which reports
//! errors canonically. The interpreter takes no access path at all: it
//! scans every table in full. The access path chosen here can never show
//! in a result, because the executor follows the three rules of
//! `docs/adr/0003-access-path-independent-results.md` — rows leave in
//! row id order unless the ORDER BY decides, a row some WHERE conjunct
//! rejects is dropped even if another conjunct fails, and the SELECT
//! list is evaluated only on the rows the output keeps. The differential
//! tests in `tests/plan_cache.rs` hold both executors byte-identical.
//!
//! Plans are cached per statement, keyed by the catalog's schema
//! [`epoch`](crate::catalog::Catalog::epoch). Any DDL — including
//! `CREATE INDEX` / `DROP INDEX`, which silently change the best access
//! path — bumps the epoch and forces a re-bind on next execution.

use std::collections::HashMap;

use crate::ast::{
    BinOp, Expr, FromClause, JoinKind, OrderItem, SelectItem, SelectStmt, Statement, TableSource,
};
use crate::bound::{
    as_col_cmps, bind, eval_bound, eval_bound_predicate, flatten_col_cmps, infallible_predicate,
    row_passes, BoundCtx, BoundExpr, ColCmp,
};
use crate::catalog::Catalog;
use crate::counters::Counter;
use crate::error::{SqlError, SqlResult};
use crate::exec::dml::{run_dml, DmlEval, RowChange};
use crate::exec::select::{collect_aggregates, flatten_and, projection_plan, split_equi_join};
use crate::exec::Probe;
use crate::expr::{aggregate_key, is_aggregate_name, RowSchema};
use crate::storage::{Snapshot, Table};
use crate::txn::UndoLog;
use crate::types::Value;

/// Synthetic binding under which aggregate results appear in the virtual
/// row schema of an [`AggPlan`]. Contains `#`, which the parser cannot
/// produce in an identifier, so it can never capture a user column.
pub(crate) const AGG_BINDING: &str = "#agg";

/// How a compiled single-table `SELECT` reaches its rows.
#[derive(Debug)]
pub(crate) enum Access {
    /// Walk the whole table in rowid order.
    Full,
    /// Point lookup: `col = key` over a single-column index.
    IndexEq { col: usize, key: BoundExpr },
    /// Range walk over a single-column index. Bounds are
    /// `(expr, inclusive)`; with neither, the walk covers the whole
    /// index, NULL keys included, and is taken only for its order.
    /// `order` is `Some(desc)` when the walk's key order serves the
    /// ORDER BY, `None` when rows leave in row id order.
    IndexRange {
        col: usize,
        lower: Option<(BoundExpr, bool)>,
        upper: Option<(BoundExpr, bool)>,
        order: Option<bool>,
    },
}

impl Access {
    /// Evaluate the path's keys for one execution.
    pub(crate) fn probe(&self, ctx: &BoundCtx<'_>, evals: &mut Evals) -> SqlResult<Probe> {
        Ok(match self {
            Access::Full => Probe::Full,
            Access::IndexEq { col, key } => Probe::Eq {
                col: *col,
                key: evals.eval(key, ctx)?,
            },
            Access::IndexRange {
                col,
                lower,
                upper,
                order,
            } => Probe::Range {
                col: *col,
                lower: evals.bound(lower, ctx)?,
                upper: evals.bound(upper, ctx)?,
                order: *order,
            },
        })
    }

    /// Keep the walk's key order only where `serves(col, desc)` says the
    /// ORDER BY is that order: otherwise a range walk yields row id
    /// order, and a walk taken only for its order becomes a full scan.
    /// Returns whether the access path serves the ORDER BY.
    fn settle_order(&mut self, serves: impl Fn(usize, bool) -> bool) -> bool {
        let Access::IndexRange {
            col,
            lower,
            upper,
            order,
        } = self
        else {
            return false;
        };
        if order.is_some_and(|desc| serves(*col, desc)) {
            return true;
        }
        if lower.is_none() && upper.is_none() {
            *self = Access::Full;
        } else {
            *order = None;
        }
        false
    }
}

/// One base-table side of a compiled join: how to scan it and which
/// pushed-down conjuncts to apply while gathering. Pushing never removes
/// a conjunct from the WHERE clause or an ON residual — the prefilter is
/// purely an optimization, so the retained copies keep the output (and
/// its error positions) byte-identical to the interpreter's.
#[derive(Debug)]
pub(crate) struct JoinSide {
    /// Catalog table name, as written.
    pub(crate) table: String,
    /// Access path chosen from the pushed conjuncts (a range walk yields
    /// row id order: no ORDER BY reaches a join side). Every key is a
    /// plan constant.
    pub(crate) access: Access,
    /// Pushed conjuncts, column ordinals local to this side's schema.
    pub(crate) prefilter: Vec<ColCmp<'static>>,
    /// Number of columns this side contributes to the combined row.
    pub(crate) width: usize,
}

/// One join step: combines the accumulated left rows (sides `0..=i`)
/// with side `i+1`. Pair extraction reuses the interpreter's
/// `split_equi_join`, so both executors hash on the same keys and
/// evaluate the same residual conjuncts in the same order.
#[derive(Debug)]
pub(crate) struct JoinStep {
    pub(crate) kind: JoinKind,
    /// `(ordinal in accumulated left row, ordinal local to the new side)`
    /// equi-key pairs; empty means nested loop over the full `ON`.
    pub(crate) pairs: Vec<(usize, usize)>,
    /// Non-equi `ON` conjuncts, bound against the combined row, in the
    /// interpreter's flatten order.
    pub(crate) residual: Vec<BoundExpr>,
    /// The new side has a single-column index on the lone equi-key, and
    /// the join kind allows probing it (INNER/LEFT): the executor may
    /// run this step as an index nested loop when the outer side is
    /// small. RIGHT would still need the full scan for its end pads.
    pub(crate) inl_eligible: bool,
    /// Width of the accumulated left row entering this step.
    pub(crate) left_width: usize,
}

/// A compiled multi-table `FROM`: base-table sides joined left-to-right.
#[derive(Debug)]
pub(crate) struct JoinPlan {
    /// `sides[0]` is the base table; `steps[i]` joins `sides[i + 1]`.
    pub(crate) sides: Vec<JoinSide>,
    /// Total conjuncts pushed into side scans (for `pushed_predicates`).
    pub(crate) pushed: u64,
    pub(crate) steps: Vec<JoinStep>,
}

/// Where a compiled `SELECT` gets its input rows: one base table scan,
/// or a chain of joins over base tables.
#[derive(Debug)]
pub(crate) enum InputPlan {
    Single { table: String, access: Access },
    Join(JoinPlan),
}

impl InputPlan {
    /// [`Access::settle_order`] for a single-table input; a join never
    /// serves an order.
    fn settle_order(&mut self, serves: impl Fn(usize, bool) -> bool) -> bool {
        match self {
            InputPlan::Single { access, .. } => access.settle_order(serves),
            InputPlan::Join(_) => false,
        }
    }
}

/// Where one ORDER BY sort key comes from, resolved at compile time
/// following the interpreter's rules: ordinal literal → output column;
/// bare name matching an output alias → output column; anything else →
/// expression over the source row.
#[derive(Debug)]
pub(crate) enum OrderKey {
    /// The already-projected output value at this position.
    Output(usize),
    /// An expression evaluated against the source row.
    Row(BoundExpr),
}

/// The output stage of a compiled `SELECT`: the SELECT list, DISTINCT,
/// ORDER BY, OFFSET and LIMIT. The SELECT list and the ORDER BY keys of
/// an [`AggPlan`] are bound against its virtual row.
#[derive(Debug)]
pub(crate) struct OutputPlan {
    pub(crate) columns: Vec<String>,
    pub(crate) projections: Vec<BoundExpr>,
    pub(crate) distinct: bool,
    /// `(key source, descending)` per ORDER BY item.
    pub(crate) order: Vec<(OrderKey, bool)>,
    /// Does the access path already emit rows in ORDER BY order?
    pub(crate) order_served: bool,
    pub(crate) limit: Option<BoundExpr>,
    pub(crate) offset: Option<BoundExpr>,
}

impl OutputPlan {
    /// Are the first OFFSET + LIMIT input rows exactly the rows the
    /// output is cut from? They are when the input already is in output
    /// order (the access path serves the ORDER BY, or there is none) and
    /// no DISTINCT can drop a row.
    pub(crate) fn limit_cuts_input(&self) -> bool {
        (self.order_served || self.order.is_empty()) && !self.distinct
    }
}

/// A compiled `SELECT` over one table or a join chain. Executed
/// batch-at-a-time by [`crate::exec::batch::run_select_batched`].
#[derive(Debug)]
pub struct SelectPlan {
    pub(crate) input: InputPlan,
    /// The full WHERE clause; always re-checked, so the access path is
    /// purely an optimization.
    pub(crate) filter: Option<BoundExpr>,
    pub(crate) output: OutputPlan,
}

/// One aggregate call site of an [`AggPlan`], argument pre-bound against
/// the base row. `arg == None` encodes `COUNT(*)`; lowering declines
/// `*` under any other aggregate so the interpreter raises its canonical
/// error.
#[derive(Debug)]
pub(crate) struct BoundAggSpec {
    /// Upper-cased aggregate name (the parser canonicalizes case).
    pub(crate) name: String,
    pub(crate) arg: Option<BoundExpr>,
    pub(crate) distinct: bool,
}

/// A compiled single-table grouped `SELECT`, executed through the
/// one-pass hash aggregator in [`crate::exec::batch::run_agg_plan`].
///
/// Aggregate call sites in the projection / HAVING / ORDER BY are
/// rewritten at compile time into references to *synthetic columns*
/// appended after the base row: the executor materializes one virtual
/// row per group — representative base row values followed by one slot
/// per aggregate — and every downstream expression is bound against
/// that widened schema. This reproduces the interpreter's "pre-computed
/// aggregates map" semantics with plain ordinal loads.
#[derive(Debug)]
pub struct AggPlan {
    pub(crate) input: InputPlan,
    pub(crate) filter: Option<BoundExpr>,
    /// GROUP BY key expressions over the base row.
    pub(crate) group_by: Vec<BoundExpr>,
    /// Aggregate call sites in the interpreter's discovery order
    /// (projections, then HAVING, then ORDER BY), deduplicated by call
    /// site; slot `i` of the virtual row tail holds spec `i`'s value.
    pub(crate) specs: Vec<BoundAggSpec>,
    /// Width of the base row; aggregate slots start here.
    pub(crate) base_width: usize,
    /// HAVING over the virtual row (aggregates already rewritten).
    pub(crate) having: Option<BoundExpr>,
    /// Never `order_served`: groups are sorted after they are formed.
    pub(crate) output: OutputPlan,
}

/// A compiled `UPDATE` or `DELETE`: the access path that finds candidate
/// rows (chosen exactly as for a `SELECT`), the full WHERE re-checked on
/// every candidate, and, for an `UPDATE`, the SET list. Executed by the
/// shared collect/apply path in [`crate::exec::dml`].
#[derive(Debug)]
pub struct DmlPlan {
    table: String,
    access: Access,
    filter: Option<BoundExpr>,
    /// `(column ordinal, value)` per SET item; `None` for a `DELETE`.
    assignments: Option<Vec<(usize, BoundExpr)>>,
}

impl DmlPlan {
    /// The target table, as written in the statement.
    pub fn table_name(&self) -> &str {
        &self.table
    }

    /// Does any filter or assignment expression run a subquery? If so
    /// the statement must not take the fast single-table-guard path.
    pub fn has_subquery(&self) -> bool {
        self.filter
            .as_ref()
            .is_some_and(BoundExpr::contains_subquery)
            || self
                .assignments
                .iter()
                .flatten()
                .any(|(_, e)| e.contains_subquery())
    }
}

/// The result of compiling one statement against one catalog epoch.
#[derive(Debug)]
pub enum CompiledPlan {
    /// Plans are boxed: they differ widely in size, and are built once
    /// then executed many times.
    Select(Box<SelectPlan>),
    /// Grouped/aggregating `SELECT`, run through the hash aggregator.
    Aggregate(Box<AggPlan>),
    /// `UPDATE` or `DELETE`.
    Dml(Box<DmlPlan>),
    /// Compilation declined; execute through the interpreter.
    Unsupported,
}

/// Compile a statement against the current catalog state. Never fails:
/// anything outside the compilable subset (or that would error at bind
/// time where the interpreter errors at run time) is `Unsupported`.
pub fn compile(catalog: &Catalog, stmt: &Statement) -> CompiledPlan {
    match stmt {
        Statement::Select(s) => compile_select(catalog, s).unwrap_or(CompiledPlan::Unsupported),
        Statement::Update(u) => compile_dml(
            catalog,
            &u.table,
            u.where_clause.as_ref(),
            Some(&u.assignments),
        ),
        Statement::Delete(d) => compile_dml(catalog, &d.table, d.where_clause.as_ref(), None),
        _ => CompiledPlan::Unsupported,
    }
}

/// Row schema of a base-table scan: every column under the scan binding.
fn table_row_schema(table: &Table, binding: &str) -> RowSchema {
    RowSchema::new(
        table
            .schema
            .columns
            .iter()
            .map(|c| (Some(binding.to_string()), c.name.clone()))
            .collect(),
    )
}

fn bind_opt(expr: Option<&crate::ast::Expr>, schema: &RowSchema) -> Option<Option<BoundExpr>> {
    match expr {
        Some(e) => match bind(e, schema) {
            Ok(b) => Some(Some(b)),
            Err(_) => None,
        },
        None => Some(None),
    }
}

/// Choose a single table's access path: a point lookup for an equality
/// conjunct (it beats any range walk), else a range walk over the first
/// indexed column with a range conjunct, else a whole-index walk when
/// the ORDER BY names an indexed column, else a full scan. A walk keeps
/// its key order when the ORDER BY names its column; the caller settles
/// that against the projection ([`Access::settle_order`]). `None` when a
/// bound expression fails to bind (decline compilation).
fn choose_access(
    where_clause: Option<&Expr>,
    order_by: &[OrderItem],
    binding: &str,
    table: &Table,
    schema: &RowSchema,
) -> Option<Access> {
    let mut conjuncts = Vec::new();
    if let Some(pred) = where_clause {
        flatten_and(pred, &mut conjuncts);
    }
    let order_hint = naive_order_hint(order_by, binding, table);
    if let Some((col, value_expr)) = find_eq_candidate(&conjuncts, binding, table) {
        let key = bind(value_expr, schema).ok()?;
        Some(Access::IndexEq { col, key })
    } else if let Some(spec) = find_range_candidate(&conjuncts, binding, table) {
        let bind_bound = |b: Option<(&Expr, bool)>| match b {
            Some((e, inc)) => bind(e, schema).ok().map(|be| Some((be, inc))),
            None => Some(None),
        };
        Some(Access::IndexRange {
            col: spec.col,
            lower: bind_bound(spec.lower)?,
            upper: bind_bound(spec.upper)?,
            order: order_hint
                .filter(|(c, _)| *c == spec.col)
                .map(|(_, desc)| desc),
        })
    } else if let Some((col, desc)) =
        order_hint.filter(|(col, _)| table.find_index(&[*col]).is_some())
    {
        Some(Access::IndexRange {
            col,
            lower: None,
            upper: None,
            order: Some(desc),
        })
    } else {
        Some(Access::Full)
    }
}

/// First conjunct of the form `col = row-independent-expr` (either side)
/// over a column with a single-column index.
fn find_eq_candidate<'a>(
    conjuncts: &'a [Expr],
    binding: &str,
    table: &Table,
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
    table: &Table,
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
struct RangeSpec<'a> {
    col: usize,
    lower: Option<(&'a Expr, bool)>,
    upper: Option<(&'a Expr, bool)>,
}

/// First indexed column constrained by a range conjunct, with its first
/// lower and first upper bound.
fn find_range_candidate<'a>(
    conjuncts: &'a [Expr],
    binding: &str,
    table: &Table,
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
/// the scanned table directly? Used only to pick the walk — the
/// authoritative skip-sort decision re-resolves against the projection
/// (aliases can shadow source columns).
fn naive_order_hint(order_by: &[OrderItem], binding: &str, table: &Table) -> Option<(usize, bool)> {
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
/// Mirrors [`compile_order_key`]'s resolution order — ordinal literal,
/// then output alias, then source expression — so an alias shadowing a
/// source column is honored.
fn order_targets_column(
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
fn is_row_independent(e: &Expr) -> bool {
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

fn resolve_local(
    binding: &str,
    qualifier: Option<&str>,
    column: &str,
    table: &Table,
) -> Option<usize> {
    if let Some(q) = qualifier {
        if !q.eq_ignore_ascii_case(binding) {
            return None;
        }
    }
    table.schema.col_index(column)
}

/// Does any expression position of this statement run a subquery?
/// Compiled joins hold several table guards at once; a subquery would
/// re-enter the executor (and the catalog's table map) under those
/// guards, so join compilation declines the whole statement instead.
fn stmt_contains_subquery(stmt: &SelectStmt) -> bool {
    stmt.projections.iter().any(|p| match p {
        SelectItem::Expr { expr, .. } => expr.contains_subquery(),
        _ => false,
    }) || stmt
        .where_clause
        .as_ref()
        .is_some_and(Expr::contains_subquery)
        || stmt.group_by.iter().any(Expr::contains_subquery)
        || stmt.having.as_ref().is_some_and(Expr::contains_subquery)
        || stmt.order_by.iter().any(|o| o.expr.contains_subquery())
        || stmt.limit.as_ref().is_some_and(Expr::contains_subquery)
        || stmt.offset.as_ref().is_some_and(Expr::contains_subquery)
        || stmt.from.as_ref().is_some_and(|f| {
            f.joins
                .iter()
                .any(|j| j.on.as_ref().is_some_and(Expr::contains_subquery))
        })
}

/// Compile the FROM clause into an input plan plus the combined row
/// schema every downstream expression binds against.
fn compile_input(
    catalog: &Catalog,
    stmt: &SelectStmt,
    from: &FromClause,
) -> Option<(InputPlan, RowSchema)> {
    let TableSource::Named(name) = &from.base.source else {
        return None;
    };
    if catalog.has_view(name) {
        return None;
    }
    if from.joins.is_empty() {
        let table = catalog.table(name).ok()?;
        let binding = from.base.binding_name().unwrap_or(name).to_string();
        let schema = table_row_schema(&table, &binding);
        let access = choose_access(
            stmt.where_clause.as_ref(),
            &stmt.order_by,
            &binding,
            &table,
            &schema,
        )?;
        return Some((
            InputPlan::Single {
                table: name.clone(),
                access,
            },
            schema,
        ));
    }
    let (join, schema) = compile_join(catalog, stmt, from)?;
    Some((InputPlan::Join(join), schema))
}

/// The side whose column range contains every cmp ordinal, if exactly
/// one side does. Ordinals are in combined-row space here; the caller
/// rebases them to the side's local schema when pushing.
fn side_of(cmps: &[ColCmp<'_>], offsets: &[usize], widths: &[usize]) -> Option<usize> {
    let first = cmps.first()?.col;
    let s = offsets.partition_point(|o| *o <= first) - 1;
    cmps.iter()
        .all(|c| c.col >= offsets[s] && c.col < offsets[s] + widths[s])
        .then_some(s)
}

/// Choose a join side's access path from its pushed conjuncts: any index
/// that serves part of the prefilter is fair game (the full prefilter
/// still runs over whatever the index yields, in row id order). Keys are
/// plan constants, so the scan itself can never raise an evaluation
/// error the interpreter would not.
fn access_from_cmps(table: &Table, cmps: &[ColCmp<'_>]) -> Access {
    for c in cmps {
        if c.op == BinOp::Eq && table.find_index(&[c.col]).is_some() {
            return Access::IndexEq {
                col: c.col,
                key: BoundExpr::Const((*c.key).clone()),
            };
        }
    }
    for c in cmps {
        if !matches!(c.op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq)
            || table.find_index(&[c.col]).is_none()
        {
            continue;
        }
        let mut lower = None;
        let mut upper = None;
        for c2 in cmps.iter().filter(|c2| c2.col == c.col) {
            let bound = Some((
                BoundExpr::Const((*c2.key).clone()),
                matches!(c2.op, BinOp::LtEq | BinOp::GtEq),
            ));
            match c2.op {
                BinOp::Gt | BinOp::GtEq if lower.is_none() => lower = bound,
                BinOp::Lt | BinOp::LtEq if upper.is_none() => upper = bound,
                _ => {}
            }
        }
        return Access::IndexRange {
            col: c.col,
            lower,
            upper,
            order: None,
        };
    }
    Access::Full
}

/// Compile a joined FROM clause. Declines (→ interpreter) on views or
/// derived tables anywhere, subqueries in any expression position, bind
/// failures, and LEFT/RIGHT joins with no equi-pairs (nested-loop outer
/// padding stays interpreter-canonical).
///
/// Pushdown analysis: a WHERE or residual-ON conjunct of the
/// `column <cmp> constant` family whose columns land in exactly one side
/// may run as that side's scan prefilter — WHERE conjuncts into any
/// side, an ON conjunct of step `i` into the step's new side only for
/// INNER/LEFT (a RIGHT join must still end-pad the rows it would have
/// removed) and into a left-part side only for INNER/RIGHT (mirror
/// argument). Nothing is ever *removed* from the WHERE or a residual,
/// and no conjunct is pushed unless the whole WHERE and every residual
/// are structurally infallible, so the engines cannot diverge on output
/// rows or on which row surfaces an evaluation error first.
fn compile_join(
    catalog: &Catalog,
    stmt: &SelectStmt,
    from: &FromClause,
) -> Option<(JoinPlan, RowSchema)> {
    if stmt_contains_subquery(stmt) {
        return None;
    }

    // Every side must be a named base table.
    let mut refs = vec![&from.base];
    refs.extend(from.joins.iter().map(|j| &j.table));
    let mut names: Vec<String> = Vec::with_capacity(refs.len());
    let mut side_schemas: Vec<RowSchema> = Vec::with_capacity(refs.len());
    for r in &refs {
        let TableSource::Named(n) = &r.source else {
            return None;
        };
        if catalog.has_view(n) {
            return None;
        }
        let table = catalog.table(n).ok()?;
        side_schemas.push(table_row_schema(&table, r.binding_name().unwrap_or(n)));
        names.push(n.clone());
    }
    let widths: Vec<usize> = side_schemas.iter().map(RowSchema::len).collect();
    let mut offsets = Vec::with_capacity(widths.len());
    let mut acc = 0usize;
    for w in &widths {
        offsets.push(acc);
        acc += w;
    }

    // Accumulated prefix schemas: `prefixes[i]` covers sides `0..=i`,
    // matching the interpreter's left schema entering step `i`. Step
    // `i`'s expressions bind against `prefixes[i + 1]`; a prefix is a
    // prefix of the combined schema, so ordinals agree everywhere.
    let mut prefixes: Vec<RowSchema> = Vec::with_capacity(side_schemas.len());
    let mut cols: Vec<(Option<String>, String)> = Vec::new();
    for s in &side_schemas {
        cols.extend(s.columns().iter().cloned());
        prefixes.push(RowSchema::new(cols.clone()));
    }
    let schema = prefixes.last()?.clone();

    let mut steps = Vec::with_capacity(from.joins.len());
    for (i, j) in from.joins.iter().enumerate() {
        let (pairs, residual_ast) = match (j.kind, &j.on) {
            (JoinKind::Cross, _) => (Vec::new(), Vec::new()),
            (_, Some(on)) => split_equi_join(on, &prefixes[i], &side_schemas[i + 1]),
            (_, None) => return None, // parser enforces ON for non-cross
        };
        if pairs.is_empty() && matches!(j.kind, JoinKind::Left | JoinKind::Right) {
            return None;
        }
        let residual: Vec<BoundExpr> = residual_ast
            .iter()
            .map(|e| bind(e, &prefixes[i + 1]))
            .collect::<SqlResult<_>>()
            .ok()?;
        steps.push(JoinStep {
            kind: j.kind,
            // Index presence for INL is checked below, guard in hand.
            inl_eligible: matches!(j.kind, JoinKind::Inner | JoinKind::Left) && pairs.len() == 1,
            pairs,
            residual,
            left_width: offsets[i + 1],
        });
    }

    // Pushdown gate: pushing changes which intermediate rows exist, so
    // evaluation errors must be impossible everywhere they could surface
    // differently — the whole WHERE and every step's residual.
    let mut where_conjs: Vec<Expr> = Vec::new();
    if let Some(w) = &stmt.where_clause {
        flatten_and(w, &mut where_conjs);
    }
    let bound_where: Vec<BoundExpr> = where_conjs
        .iter()
        .map(|e| bind(e, &schema))
        .collect::<SqlResult<_>>()
        .ok()?;
    let pushdown_ok = bound_where.iter().all(infallible_predicate)
        && steps
            .iter()
            .flat_map(|s| s.residual.iter())
            .all(infallible_predicate);

    let mut prefilters: Vec<Vec<ColCmp<'static>>> = vec![Vec::new(); names.len()];
    let mut pushed = 0u64;
    if pushdown_ok {
        for b in &bound_where {
            let Some(cmps) = as_col_cmps(b) else { continue };
            let Some(s) = side_of(&cmps, &offsets, &widths) else {
                continue;
            };
            pushed += 1;
            for mut c in cmps {
                c.col -= offsets[s];
                prefilters[s].push(c);
            }
        }
        for (i, step) in steps.iter().enumerate() {
            for b in &step.residual {
                let Some(cmps) = as_col_cmps(b) else { continue };
                let Some(s) = side_of(&cmps, &offsets, &widths) else {
                    continue;
                };
                let allowed = if s == i + 1 {
                    matches!(step.kind, JoinKind::Inner | JoinKind::Left)
                } else {
                    matches!(step.kind, JoinKind::Inner | JoinKind::Right)
                };
                if !allowed {
                    continue;
                }
                pushed += 1;
                for mut c in cmps {
                    c.col -= offsets[s];
                    prefilters[s].push(c);
                }
            }
        }
    }

    let mut sides = Vec::with_capacity(names.len());
    for (s, n) in names.iter().enumerate() {
        let table = catalog.table(n).ok()?;
        if s > 0 {
            let step = &mut steps[s - 1];
            if step.inl_eligible {
                step.inl_eligible = step
                    .pairs
                    .first()
                    .is_some_and(|(_, rc)| table.find_index(&[*rc]).is_some());
            }
        }
        sides.push(JoinSide {
            table: n.clone(),
            access: access_from_cmps(&table, &prefilters[s]),
            prefilter: std::mem::take(&mut prefilters[s]),
            width: widths[s],
        });
    }

    Some((
        JoinPlan {
            sides,
            pushed,
            steps,
        },
        schema,
    ))
}

/// Resolve one ORDER BY item the way the interpreter's `sort_key`
/// resolves it: in-range ordinal literal → output column; bare name
/// matching an output alias → output column; anything else → bound
/// expression over the (virtual) source row. An out-of-range ordinal
/// declines compilation — the interpreter only errors when a row
/// actually reaches the sort.
fn compile_order_key(
    item_expr: &Expr,
    columns: &[String],
    n_outputs: usize,
    bind_row: impl Fn(&Expr) -> Option<BoundExpr>,
) -> Option<OrderKey> {
    match item_expr {
        Expr::Literal(Value::Int(n)) => {
            if *n >= 1 && (*n as usize) <= n_outputs {
                Some(OrderKey::Output(*n as usize - 1))
            } else {
                None
            }
        }
        Expr::Column { table: None, name } => {
            match columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                Some(i) => Some(OrderKey::Output(i)),
                None => Some(OrderKey::Row(bind_row(item_expr)?)),
            }
        }
        e => Some(OrderKey::Row(bind_row(e)?)),
    }
}

fn compile_select(catalog: &Catalog, stmt: &SelectStmt) -> Option<CompiledPlan> {
    // The compilable subset: one named base table, no set operations.
    if !stmt.unions.is_empty() {
        return None;
    }
    // Grouping machinery — mirror the interpreter's `needs_grouping`
    // test exactly, then lower through the hash-aggregate path.
    let needs_grouping = !stmt.group_by.is_empty()
        || stmt.projections.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
        || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || stmt.order_by.iter().any(|o| o.expr.contains_aggregate());
    if needs_grouping {
        return compile_select_agg(catalog, stmt);
    }
    // HAVING without grouping: rare and interpreter-defined; decline.
    if stmt.having.is_some() {
        return None;
    }
    let from = stmt.from.as_ref()?;
    let (mut input, schema) = compile_input(catalog, stmt, from)?;

    // Projection expansion + binding. Aggregates fail `bind`, sending
    // anything the grouping test above missed to the interpreter.
    let (columns, proj_exprs) = projection_plan(stmt, &schema).ok()?;
    let projections: Vec<BoundExpr> = proj_exprs
        .iter()
        .map(|e| bind(e, &schema))
        .collect::<SqlResult<_>>()
        .ok()?;

    let filter = bind_opt(stmt.where_clause.as_ref(), &schema)?;

    let mut order = Vec::with_capacity(stmt.order_by.len());
    for item in &stmt.order_by {
        let key = compile_order_key(&item.expr, &columns, projections.len(), |e| {
            bind(e, &schema).ok()
        })?;
        order.push((key, item.desc));
    }

    // DISTINCT keeps the first of equal rows in row id order, and that
    // row's sort key: rows must arrive in row id order.
    let order_served = input.settle_order(|col, desc| {
        !stmt.distinct
            && stmt.order_by.len() == 1
            && stmt.order_by[0].desc == desc
            && order_targets_column(&stmt.order_by[0].expr, &columns, &proj_exprs, &schema, col)
    });

    // LIMIT/OFFSET are row-independent; bind against the empty schema.
    let empty = RowSchema::empty();
    let limit = bind_opt(stmt.limit.as_ref(), &empty)?;
    let offset = bind_opt(stmt.offset.as_ref(), &empty)?;

    Some(CompiledPlan::Select(Box::new(SelectPlan {
        input,
        filter,
        output: OutputPlan {
            columns,
            projections,
            distinct: stmt.distinct,
            order,
            order_served,
            limit,
            offset,
        },
    })))
}

/// Replace every aggregate call site in `e` with a reference to its
/// synthetic column (`"#agg"."#<i>"`, where `i` is the spec's slot).
/// Call sites were deduplicated by [`aggregate_key`], so textually equal
/// aggregates share a slot — exactly the interpreter's pre-computed-map
/// behavior. Subqueries are left untouched (their aggregates are their
/// own; the AST walk that collected specs does not descend either).
fn rewrite_aggs(e: &Expr, keys: &[String]) -> Expr {
    if let Expr::Function { name, .. } = e {
        if is_aggregate_name(name) {
            let key = aggregate_key(e);
            let i = keys
                .iter()
                .position(|k| *k == key)
                .expect("every aggregate call site was collected");
            return Expr::Column {
                table: Some(AGG_BINDING.to_string()),
                name: format!("#{i}"),
            };
        }
    }
    match e {
        Expr::Literal(_)
        | Expr::Column { .. }
        | Expr::Param(_)
        | Expr::NamedParam(_)
        | Expr::Exists { .. }
        | Expr::ScalarSubquery(_) => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_aggs(expr, keys)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite_aggs(left, keys)),
            op: *op,
            right: Box::new(rewrite_aggs(right, keys)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_aggs(expr, keys)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite_aggs(expr, keys)),
            list: list.iter().map(|x| rewrite_aggs(x, keys)).collect(),
            negated: *negated,
        },
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => Expr::InSubquery {
            expr: Box::new(rewrite_aggs(expr, keys)),
            subquery: subquery.clone(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite_aggs(expr, keys)),
            low: Box::new(rewrite_aggs(low, keys)),
            high: Box::new(rewrite_aggs(high, keys)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rewrite_aggs(expr, keys)),
            pattern: Box::new(rewrite_aggs(pattern, keys)),
            negated: *negated,
        },
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(rewrite_aggs(o, keys))),
            branches: branches
                .iter()
                .map(|(w, t)| (rewrite_aggs(w, keys), rewrite_aggs(t, keys)))
                .collect(),
            else_branch: else_branch
                .as_ref()
                .map(|e| Box::new(rewrite_aggs(e, keys))),
        },
        Expr::Function {
            name,
            args,
            distinct,
            star,
        } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| rewrite_aggs(a, keys)).collect(),
            distinct: *distinct,
            star: *star,
        },
    }
}

/// Lower a grouped/aggregating single-table `SELECT` into an [`AggPlan`].
/// Declines (→ interpreter) on joins, views, nested aggregates, `*` under
/// non-COUNT aggregates, unresolvable names, and anything whose canonical
/// error the interpreter must report.
fn compile_select_agg(catalog: &Catalog, stmt: &SelectStmt) -> Option<CompiledPlan> {
    let from = stmt.from.as_ref()?;
    // The ORDER BY sorts groups, never input rows: rows arrive in row id
    // order, so groups appear in the interpreter's first-seen order.
    let (mut input, schema) = compile_input(catalog, stmt, from)?;
    input.settle_order(|_, _| false);

    // Aggregate call sites, discovered in the interpreter's walk order
    // (projections, HAVING, ORDER BY; deduplicated by call-site key).
    let ast_specs = collect_aggregates(stmt);
    let mut specs = Vec::with_capacity(ast_specs.len());
    for s in &ast_specs {
        let arg = match &s.arg {
            Some(e) => {
                // Nested aggregates error at runtime in the interpreter;
                // let it report that canonically.
                if e.contains_aggregate() {
                    return None;
                }
                Some(bind(e, &schema).ok()?)
            }
            None => {
                // `*` under non-COUNT raises per-group in the
                // interpreter; decline rather than re-implement it.
                if s.name != "COUNT" {
                    return None;
                }
                None
            }
        };
        specs.push(BoundAggSpec {
            name: s.name.clone(),
            arg,
            distinct: s.distinct,
        });
    }
    let spec_keys: Vec<String> = ast_specs.into_iter().map(|s| s.key).collect();

    // GROUP BY keys evaluate against the base row. Aggregates inside
    // GROUP BY fail `bind` here → interpreter's canonical error.
    let group_by: Vec<BoundExpr> = stmt
        .group_by
        .iter()
        .map(|e| bind(e, &schema))
        .collect::<SqlResult<_>>()
        .ok()?;

    // WHERE also sees only the base row (aggregates fail bind →
    // interpreter raises "aggregates are not allowed in WHERE").
    let filter = bind_opt(stmt.where_clause.as_ref(), &schema)?;

    // Everything downstream of grouping sees the virtual row: the base
    // columns followed by one synthetic column per aggregate slot.
    let mut virt_cols = schema.columns().to_vec();
    for i in 0..specs.len() {
        virt_cols.push((Some(AGG_BINDING.to_string()), format!("#{i}")));
    }
    let virt_schema = RowSchema::new(virt_cols);

    let (columns, proj_exprs) = projection_plan(stmt, &schema).ok()?;
    let projections: Vec<BoundExpr> = proj_exprs
        .iter()
        .map(|e| bind(&rewrite_aggs(e, &spec_keys), &virt_schema))
        .collect::<SqlResult<_>>()
        .ok()?;

    let having = match &stmt.having {
        Some(h) => Some(bind(&rewrite_aggs(h, &spec_keys), &virt_schema).ok()?),
        None => None,
    };

    let mut order = Vec::with_capacity(stmt.order_by.len());
    for item in &stmt.order_by {
        let key = compile_order_key(&item.expr, &columns, projections.len(), |e| {
            bind(&rewrite_aggs(e, &spec_keys), &virt_schema).ok()
        })?;
        order.push((key, item.desc));
    }

    let empty = RowSchema::empty();
    let limit = bind_opt(stmt.limit.as_ref(), &empty)?;
    let offset = bind_opt(stmt.offset.as_ref(), &empty)?;

    Some(CompiledPlan::Aggregate(Box::new(AggPlan {
        input,
        filter,
        group_by,
        specs,
        base_width: schema.len(),
        having,
        output: OutputPlan {
            columns,
            projections,
            distinct: stmt.distinct,
            order,
            order_served: false,
            limit,
            offset,
        },
    })))
}

/// Compile an `UPDATE` (`set` present) or `DELETE`.
fn compile_dml(
    catalog: &Catalog,
    name: &str,
    where_clause: Option<&Expr>,
    set: Option<&[(String, Expr)]>,
) -> CompiledPlan {
    let compile = || {
        let table = catalog.table(name).ok()?;
        // The interpreter binds the scan under the table's declared name.
        let binding = table.schema.name.clone();
        let schema = table_row_schema(&table, &binding);
        let assignments = match set {
            Some(set) => Some(
                set.iter()
                    .map(|(col, e)| Some((table.schema.resolve(col).ok()?, bind(e, &schema).ok()?)))
                    .collect::<Option<Vec<_>>>()?,
            ),
            None => None,
        };
        let access = choose_access(where_clause, &[], &binding, &table, &schema)?;
        Some(CompiledPlan::Dml(Box::new(DmlPlan {
            table: name.to_string(),
            access,
            filter: bind_opt(where_clause, &schema)?,
            assignments,
        })))
    };
    compile().unwrap_or(CompiledPlan::Unsupported)
}

// ---------------------------------------------------------------- execution

/// Bound-evaluation tally for one statement, flushed to the catalog's
/// `bound_evals` counter in one atomic add at the end.
pub(crate) struct Evals(pub(crate) u64);

impl Evals {
    pub(crate) fn eval(&mut self, e: &BoundExpr, ctx: &BoundCtx<'_>) -> SqlResult<Value> {
        self.0 += 1;
        eval_bound(e, ctx)
    }

    pub(crate) fn pred(&mut self, e: &BoundExpr, ctx: &BoundCtx<'_>) -> SqlResult<bool> {
        self.0 += 1;
        eval_bound_predicate(e, ctx)
    }

    /// Evaluate one `(expr, inclusive)` range bound of an access path.
    pub(crate) fn bound(
        &mut self,
        b: &Option<(BoundExpr, bool)>,
        ctx: &BoundCtx<'_>,
    ) -> SqlResult<Option<(Value, bool)>> {
        b.as_ref()
            .map(|(e, inc)| Ok((self.eval(e, ctx)?, *inc)))
            .transpose()
    }
}

pub(crate) fn bound_usize(
    e: &BoundExpr,
    ctx: &BoundCtx<'_>,
    evals: &mut Evals,
    what: &str,
) -> SqlResult<usize> {
    match evals.eval(e, ctx)? {
        Value::Int(n) if n >= 0 => Ok(n as usize),
        other => Err(SqlError::Semantic(format!(
            "{what} must be a non-negative integer, got {other:?}"
        ))),
    }
}

// Compiled `SELECT` execution lives in [`crate::exec::batch`]: both the
// plain plan (`run_select_batched`) and the aggregate plan
// (`run_agg_plan`) run batch-at-a-time over borrowed storage rows.

/// The compiled plan's [`DmlEval`]: ordinal loads over bound expressions.
struct BoundDml<'a> {
    plan: &'a DmlPlan,
    ctx: BoundCtx<'a>,
    /// The WHERE flattened once into `column <cmp> constant` conjuncts,
    /// when it is nothing else: each row is then tested in place, with
    /// no per-row context and no `Value` clones.
    cmps: Option<Vec<ColCmp<'a>>>,
    evals: Evals,
}

impl DmlEval for BoundDml<'_> {
    fn probe(&mut self, _table: &Table) -> SqlResult<Probe> {
        self.plan.access.probe(&self.ctx, &mut self.evals)
    }

    fn change(&mut self, row: &[Value]) -> SqlResult<Option<RowChange>> {
        let rc = BoundCtx {
            row: Some(row),
            ..self.ctx
        };
        let passes = match (&self.cmps, &self.plan.filter) {
            (Some(cmps), _) => {
                self.evals.0 += 1;
                row_passes(cmps, row)
            }
            (None, Some(pred)) => self.evals.pred(pred, &rc)?,
            (None, None) => true,
        };
        if !passes {
            return Ok(None);
        }
        let Some(set) = &self.plan.assignments else {
            return Ok(Some(RowChange::Delete));
        };
        let mut new_row = row.to_vec();
        for (pos, e) in set {
            new_row[*pos] = self.evals.eval(e, &rc)?;
        }
        Ok(Some(RowChange::Update(new_row)))
    }
}

/// Execute a compiled `UPDATE`/`DELETE`; returns the rows changed.
/// `held` is the caller's write guard on the plan's table, for plans
/// without a subquery (see [`crate::exec::dml`] for the guard discipline).
pub fn run_dml_plan(
    catalog: &Catalog,
    snap: &Snapshot,
    held: Option<&mut Table>,
    plan: &DmlPlan,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    undo: &mut UndoLog,
) -> SqlResult<usize> {
    let ctx = BoundCtx {
        catalog,
        snap,
        params,
        named_params,
        row: None,
    };
    let cmps = plan.filter.as_ref().and_then(|pred| {
        let mut cmps = Vec::new();
        flatten_col_cmps(pred, &ctx, &mut cmps).then_some(cmps)
    });
    let mut eval = BoundDml {
        plan,
        ctx,
        cmps,
        evals: Evals(0),
    };
    let n = run_dml(catalog, snap, held, &plan.table, &mut eval, undo)?;
    catalog.count(Counter::BoundEvals, eval.evals.0);
    Ok(n)
}
