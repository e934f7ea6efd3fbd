//! Bound (compiled) scalar expressions.
//!
//! A [`BoundExpr`] is an [`Expr`] whose column references
//! have been resolved to row ordinals once, at plan time, and whose constant
//! subtrees have been folded. Evaluating one never touches column *names*,
//! so the per-row cost of the interpreted evaluator's case-insensitive
//! string scan (`RowSchema::resolve`) disappears from the hot path.
//!
//! Binding is strictly an optimization: evaluation semantics — SQL
//! three-valued logic, NULL propagation, error messages — are shared with
//! `expr.rs` through the `apply_*` helpers, and the differential tests in
//! `tests/plan_cache.rs` hold the two evaluators byte-identical. Constant
//! folding is conservative for the same reason: a subtree folds only when
//! every child is already constant, the node is pure (no parameters,
//! subqueries, or `NEXTVAL`), and folding *succeeds* — a subtree whose
//! evaluation errors (e.g. `1/0`) is left unfolded so the error still
//! surfaces at run time, exactly where the interpreter would raise it.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

use crate::ast::{BinOp, Expr, SelectStmt, UnOp};
use crate::catalog::Catalog;
use crate::error::{SqlError, SqlResult};
use crate::exec::batch::BATCH_SIZE;
use crate::expr::{
    apply_binary_op, apply_negation, apply_unary_op, compare, in_membership, is_aggregate_name,
    like_match, predicate_truth, scalar_function, three_and, value_to_three, RowSchema,
};
use crate::storage::Snapshot;
use crate::types::Value;

/// An expression with column references resolved to ordinals.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    /// A constant — literals and successfully folded pure subtrees.
    Const(Value),
    /// Column at this position of the input row.
    Column(usize),
    /// `?` host parameter, positional.
    Param(usize),
    /// `:name` parameter (already lower-cased).
    NamedParam(String),
    Unary {
        op: UnOp,
        expr: Box<BoundExpr>,
    },
    Binary {
        left: Box<BoundExpr>,
        op: BinOp,
        right: Box<BoundExpr>,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    /// Subqueries stay as ASTs and run through the interpreted executor:
    /// they are uncorrelated, so they see no row and gain nothing from
    /// ordinal binding of the outer statement.
    InSubquery {
        expr: Box<BoundExpr>,
        subquery: Box<SelectStmt>,
        negated: bool,
    },
    Exists {
        subquery: Box<SelectStmt>,
        negated: bool,
    },
    ScalarSubquery(Box<SelectStmt>),
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<BoundExpr>>,
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_branch: Option<Box<BoundExpr>>,
    },
    Function {
        name: String,
        args: Vec<BoundExpr>,
    },
}

impl BoundExpr {
    fn is_const(&self) -> bool {
        matches!(self, BoundExpr::Const(_))
    }

    /// The folded value, if this is a constant.
    pub fn const_value(&self) -> Option<&Value> {
        match self {
            BoundExpr::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Does evaluating this expression run a subquery? Subqueries go
    /// through the interpreted executor and re-enter the catalog's table
    /// map, so the fast DML path — which evaluates while holding a table
    /// guard — is only safe for subquery-free statements.
    pub fn contains_subquery(&self) -> bool {
        match self {
            BoundExpr::Const(_)
            | BoundExpr::Column(_)
            | BoundExpr::Param(_)
            | BoundExpr::NamedParam(_) => false,
            BoundExpr::Unary { expr, .. } | BoundExpr::IsNull { expr, .. } => {
                expr.contains_subquery()
            }
            BoundExpr::Binary { left, right, .. } => {
                left.contains_subquery() || right.contains_subquery()
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.contains_subquery() || list.iter().any(BoundExpr::contains_subquery)
            }
            BoundExpr::InSubquery { .. }
            | BoundExpr::Exists { .. }
            | BoundExpr::ScalarSubquery(_) => true,
            BoundExpr::Between {
                expr, low, high, ..
            } => expr.contains_subquery() || low.contains_subquery() || high.contains_subquery(),
            BoundExpr::Like { expr, pattern, .. } => {
                expr.contains_subquery() || pattern.contains_subquery()
            }
            BoundExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                operand.as_deref().is_some_and(BoundExpr::contains_subquery)
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_subquery() || t.contains_subquery())
                    || else_branch
                        .as_deref()
                        .is_some_and(BoundExpr::contains_subquery)
            }
            BoundExpr::Function { args, .. } => args.iter().any(BoundExpr::contains_subquery),
        }
    }
}

/// Everything a bound expression may need at evaluation time. Unlike
/// [`EvalCtx`](crate::expr::EvalCtx) there is no schema: positions were
/// fixed at bind time.
pub struct BoundCtx<'a> {
    pub catalog: &'a Catalog,
    pub snap: &'a Snapshot,
    pub params: &'a [Value],
    pub named_params: &'a HashMap<String, Value>,
    pub row: Option<&'a [Value]>,
}

/// Resolve every column reference of `expr` against `schema` and fold
/// constant subtrees. Errors (unresolvable or ambiguous columns,
/// aggregates) make the whole statement uncompilable — the caller falls
/// back to the interpreter, which reports them canonically.
pub fn bind(expr: &Expr, schema: &RowSchema) -> SqlResult<BoundExpr> {
    let bound = bind_inner(expr, schema)?;
    Ok(bound)
}

fn bind_inner(expr: &Expr, schema: &RowSchema) -> SqlResult<BoundExpr> {
    let node = match expr {
        Expr::Literal(v) => BoundExpr::Const(v.clone()),
        Expr::Column { table, name } => BoundExpr::Column(schema.resolve(table.as_deref(), name)?),
        Expr::Param(i) => BoundExpr::Param(*i),
        Expr::NamedParam(n) => BoundExpr::NamedParam(n.to_ascii_lowercase()),
        Expr::Unary { op, expr } => BoundExpr::Unary {
            op: *op,
            expr: Box::new(bind_inner(expr, schema)?),
        },
        Expr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(bind_inner(left, schema)?),
            op: *op,
            right: Box::new(bind_inner(right, schema)?),
        },
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(bind_inner(expr, schema)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(bind_inner(expr, schema)?),
            list: list
                .iter()
                .map(|e| bind_inner(e, schema))
                .collect::<SqlResult<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => BoundExpr::InSubquery {
            expr: Box::new(bind_inner(expr, schema)?),
            subquery: subquery.clone(),
            negated: *negated,
        },
        Expr::Exists { subquery, negated } => BoundExpr::Exists {
            subquery: subquery.clone(),
            negated: *negated,
        },
        Expr::ScalarSubquery(subquery) => BoundExpr::ScalarSubquery(subquery.clone()),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => BoundExpr::Between {
            expr: Box::new(bind_inner(expr, schema)?),
            low: Box::new(bind_inner(low, schema)?),
            high: Box::new(bind_inner(high, schema)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: Box::new(bind_inner(expr, schema)?),
            pattern: Box::new(bind_inner(pattern, schema)?),
            negated: *negated,
        },
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => BoundExpr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(bind_inner(o, schema)?)),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(w, t)| Ok((bind_inner(w, schema)?, bind_inner(t, schema)?)))
                .collect::<SqlResult<Vec<_>>>()?,
            else_branch: match else_branch {
                Some(e) => Some(Box::new(bind_inner(e, schema)?)),
                None => None,
            },
        },
        Expr::Function { name, .. } if is_aggregate_name(name) => {
            return Err(SqlError::Semantic(format!(
                "aggregate {name}() cannot be bound"
            )));
        }
        Expr::Function { name, args, .. } => BoundExpr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| bind_inner(a, schema))
                .collect::<SqlResult<Vec<_>>>()?,
        },
    };
    Ok(fold(node))
}

/// Fold a node whose children are all constants into a constant — if it
/// is pure and evaluation succeeds. Failed folds keep the node as-is so
/// runtime errors stay runtime errors.
fn fold(node: BoundExpr) -> BoundExpr {
    let foldable = match &node {
        BoundExpr::Const(_)
        | BoundExpr::Column(_)
        | BoundExpr::Param(_)
        | BoundExpr::NamedParam(_)
        | BoundExpr::InSubquery { .. }
        | BoundExpr::Exists { .. }
        | BoundExpr::ScalarSubquery(_) => false,
        BoundExpr::Unary { expr, .. } | BoundExpr::IsNull { expr, .. } => expr.is_const(),
        BoundExpr::Binary { left, right, .. } => left.is_const() && right.is_const(),
        BoundExpr::InList { expr, list, .. } => {
            expr.is_const() && list.iter().all(BoundExpr::is_const)
        }
        BoundExpr::Between {
            expr, low, high, ..
        } => expr.is_const() && low.is_const() && high.is_const(),
        BoundExpr::Like { expr, pattern, .. } => expr.is_const() && pattern.is_const(),
        BoundExpr::Case {
            operand,
            branches,
            else_branch,
        } => {
            operand.as_deref().is_none_or(BoundExpr::is_const)
                && branches.iter().all(|(w, t)| w.is_const() && t.is_const())
                && else_branch.as_deref().is_none_or(BoundExpr::is_const)
        }
        // NEXTVAL advances a sequence — never fold it.
        BoundExpr::Function { name, args } => {
            name != "NEXTVAL" && args.iter().all(BoundExpr::is_const)
        }
    };
    if !foldable {
        return node;
    }
    // A constant subtree needs no catalog, snapshot, parameters, or row;
    // a throwaway empty catalog satisfies the context. (NEXTVAL — the
    // only catalog-dependent function — was excluded above.)
    let catalog = Catalog::new();
    let snap = Snapshot::committed();
    static EMPTY: std::sync::OnceLock<HashMap<String, Value>> = std::sync::OnceLock::new();
    let ctx = BoundCtx {
        catalog: &catalog,
        snap: &snap,
        params: &[],
        named_params: EMPTY.get_or_init(HashMap::new),
        row: None,
    };
    match eval_bound(&node, &ctx) {
        Ok(v) => BoundExpr::Const(v),
        Err(_) => node,
    }
}

/// Evaluate a bound expression. Mirrors [`crate::expr::eval`] exactly.
pub fn eval_bound(expr: &BoundExpr, ctx: &BoundCtx<'_>) -> SqlResult<Value> {
    match expr {
        BoundExpr::Const(v) => Ok(v.clone()),
        BoundExpr::Column(i) => {
            let row = ctx.row.ok_or_else(|| {
                SqlError::Semantic(format!("column #{i} referenced outside a row context"))
            })?;
            Ok(row[*i].clone())
        }
        BoundExpr::Param(i) => ctx
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| SqlError::Binding(format!("missing host parameter #{}", i + 1))),
        BoundExpr::NamedParam(n) => ctx
            .named_params
            .get(n)
            .cloned()
            .ok_or_else(|| SqlError::Binding(format!("unbound named parameter ':{n}'"))),
        BoundExpr::Unary { op, expr } => {
            let v = eval_bound(expr, ctx)?;
            apply_unary_op(*op, v)
        }
        BoundExpr::Binary { left, op, right } => {
            if matches!(op, BinOp::And | BinOp::Or) {
                let l = eval_bound(left, ctx)?;
                let l3 = value_to_three(&l, "AND/OR")?;
                match (op, l3) {
                    (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
                    (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                    _ => {}
                }
                let r = eval_bound(right, ctx)?;
                let r3 = value_to_three(&r, "AND/OR")?;
                let out = match op {
                    BinOp::And => three_and(l3, r3),
                    _ => match (l3, r3) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    },
                };
                return Ok(match out {
                    None => Value::Null,
                    Some(b) => Value::Bool(b),
                });
            }
            let l = eval_bound(left, ctx)?;
            let r = eval_bound(right, ctx)?;
            apply_binary_op(*op, &l, &r)
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval_bound(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval_bound(expr, ctx)?;
            let mut values = Vec::with_capacity(list.len());
            for e in list {
                values.push(eval_bound(e, ctx)?);
            }
            Ok(apply_negation(in_membership(&needle, &values), *negated))
        }
        BoundExpr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let needle = eval_bound(expr, ctx)?;
            let rs = run_subquery(subquery, ctx)?;
            if rs.columns.len() != 1 {
                return Err(SqlError::Semantic(
                    "IN subquery must return exactly one column".into(),
                ));
            }
            let values: Vec<Value> = rs.rows.into_iter().map(|mut r| r.pop().unwrap()).collect();
            Ok(apply_negation(in_membership(&needle, &values), *negated))
        }
        BoundExpr::Exists { subquery, negated } => {
            let rs = run_subquery(subquery, ctx)?;
            Ok(Value::Bool(rs.rows.is_empty() == *negated))
        }
        BoundExpr::ScalarSubquery(subquery) => {
            let rs = run_subquery(subquery, ctx)?;
            if rs.columns.len() != 1 {
                return Err(SqlError::Semantic(
                    "scalar subquery must return exactly one column".into(),
                ));
            }
            match rs.rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(rs.rows[0][0].clone()),
                n => Err(SqlError::Runtime(format!(
                    "scalar subquery returned {n} rows"
                ))),
            }
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_bound(expr, ctx)?;
            let lo = eval_bound(low, ctx)?;
            let hi = eval_bound(high, ctx)?;
            let ge = compare(&v, &lo).map(|o| o != Ordering::Less);
            let le = compare(&v, &hi).map(|o| o != Ordering::Greater);
            Ok(apply_negation(three_and(ge, le), *negated))
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_bound(expr, ctx)?;
            let p = eval_bound(pattern, ctx)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(s), Value::Text(pat)) => {
                    Ok(Value::Bool(like_match(&s, &pat) != *negated))
                }
                (a, b) => Err(SqlError::Semantic(format!(
                    "LIKE requires text operands, got {a:?} and {b:?}"
                ))),
            }
        }
        BoundExpr::Case {
            operand,
            branches,
            else_branch,
        } => {
            match operand {
                Some(op) => {
                    let subject = eval_bound(op, ctx)?;
                    for (when, then) in branches {
                        let w = eval_bound(when, ctx)?;
                        if !subject.is_null() && !w.is_null() && subject == w {
                            return eval_bound(then, ctx);
                        }
                    }
                }
                None => {
                    for (when, then) in branches {
                        if eval_bound(when, ctx)? == Value::Bool(true) {
                            return eval_bound(then, ctx);
                        }
                    }
                }
            }
            match else_branch {
                Some(e) => eval_bound(e, ctx),
                None => Ok(Value::Null),
            }
        }
        BoundExpr::Function { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_bound(a, ctx)?);
            }
            scalar_function(name, &vals, ctx.catalog)
        }
    }
}

// ------------------------------------------------------------- batch eval
//
// The batch executor (`exec::batch`) evaluates expressions over row
// batches instead of driving `eval_bound` through per-row plumbing in the
// pipeline. Evaluation stays *row-major within a pass*: a pass visits the
// batch's rows in order, so an erroring row surfaces its error at exactly
// the position the row-at-a-time interpreter would — batching changes the
// memory access pattern and the bookkeeping granularity, never the
// evaluation order.

/// One `column <cmp> constant` conjunct: the shape the comparison
/// kernel below runs. `key` is a plan constant or a resolved `?`
/// parameter — borrowed for the statement that runs, or owned where a
/// compiled join plan keeps the conjunct as a side's prefilter. `col` is
/// an ordinal of the rows the conjunct tests. A conjunct never errs and
/// a NULL cell fails it: the properties the join pushdown below needs.
#[derive(Debug, Clone)]
pub(crate) struct ColCmp<'a> {
    pub(crate) col: usize,
    pub(crate) op: BinOp,
    pub(crate) key: Cow<'a, Value>,
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// Does `ord` (from [`Value::sql_cmp`]) satisfy the comparison? `None`
/// (a NULL operand) fails every comparison — exactly the three-valued
/// outcome [`eval_bound_predicate`] produces for a NULL result.
fn cmp_passes(op: BinOp, ord: Option<Ordering>) -> bool {
    match ord {
        None => false,
        Some(o) => match op {
            BinOp::Eq => o == Ordering::Equal,
            BinOp::NotEq => o != Ordering::Equal,
            BinOp::Lt => o == Ordering::Less,
            BinOp::LtEq => o != Ordering::Greater,
            BinOp::Gt => o == Ordering::Greater,
            BinOp::GtEq => o != Ordering::Less,
            _ => unreachable!("only comparison ops are flattened"),
        },
    }
}

// ------------------------------------------------------ comparison kernel
//
// Every AND-chain of `column <cmp> constant` conjuncts the compiled
// executor runs goes through `select_rows`: the WHERE of a batch, the
// streamed aggregate, the LIMIT walk, a join side's prefilter and a
// compiled UPDATE/DELETE (the last three one row at a time). Over a
// batch it runs conjunct-at-a-time: the first conjunct writes the
// selection vector and each later one compacts it in place. Per
// conjunct, the key's variant and the op are resolved before the row
// loop. The loop's fast arm compares a cell of the key's own variant
// inline; every other cell goes through `Value::sql_cmp`, the
// interpreter's comparison, so a NULL cell fails and the Int/Float
// cross-type order, `f64::total_cmp` on NaN and -0.0 and the type-rank
// order of mixed kinds are the interpreter's by construction. A NULL
// key passes no row.

/// Write the positions (offset by `base`) of the rows that pass every
/// conjunct to the front of `sel`, in row order, and return how many
/// passed. `sel` holds at least `rows.len()` entries. With no conjunct
/// every row passes.
pub(crate) fn select_rows(
    cmps: &[ColCmp<'_>],
    rows: &[&[Value]],
    base: u32,
    sel: &mut [u32],
) -> usize {
    let Some((first, rest)) = cmps.split_first() else {
        for (s, i) in sel[..rows.len()].iter_mut().zip(base..) {
            *s = i;
        }
        return rows.len();
    };
    let mut n = first.refine::<true>(rows, base, sel, rows.len());
    for c in rest {
        n = c.refine::<false>(rows, base, sel, n);
    }
    n
}

/// Does `row` pass every conjunct? The kernel over a one-row batch.
pub(crate) fn row_passes(cmps: &[ColCmp<'_>], row: &[Value]) -> bool {
    select_rows(cmps, std::slice::from_ref(&row), 0, &mut [0]) == 1
}

impl ColCmp<'_> {
    /// Keep the selected rows that pass this conjunct, compacting
    /// `sel[..n]` in place, and return how many are kept. With `FIRST`
    /// the selection is the whole batch, `base..base + n`.
    fn refine<const FIRST: bool>(
        &self,
        rows: &[&[Value]],
        base: u32,
        sel: &mut [u32],
        n: usize,
    ) -> usize {
        match self.op {
            BinOp::Eq => self.by_key::<FIRST>(rows, base, sel, n, Ordering::is_eq),
            BinOp::NotEq => self.by_key::<FIRST>(rows, base, sel, n, Ordering::is_ne),
            BinOp::Lt => self.by_key::<FIRST>(rows, base, sel, n, Ordering::is_lt),
            BinOp::LtEq => self.by_key::<FIRST>(rows, base, sel, n, Ordering::is_le),
            BinOp::Gt => self.by_key::<FIRST>(rows, base, sel, n, Ordering::is_gt),
            BinOp::GtEq => self.by_key::<FIRST>(rows, base, sel, n, Ordering::is_ge),
            _ => unreachable!("only comparison ops are flattened"),
        }
    }

    /// [`Self::refine`] with the op resolved to `want`: one row loop per
    /// key variant.
    #[inline(always)]
    fn by_key<const FIRST: bool>(
        &self,
        rows: &[&[Value]],
        base: u32,
        sel: &mut [u32],
        n: usize,
        want: impl Fn(Ordering) -> bool + Copy,
    ) -> usize {
        match &*self.key {
            Value::Null => 0,
            &Value::Bool(k) => self.scan::<FIRST>(rows, base, sel, n, move |c| match c {
                Value::Bool(a) => Some(want(a.cmp(&k))),
                _ => None,
            }),
            &Value::Int(k) => self.scan::<FIRST>(rows, base, sel, n, move |c| match c {
                Value::Int(a) => Some(want(a.cmp(&k))),
                _ => None,
            }),
            &Value::Float(k) => self.scan::<FIRST>(rows, base, sel, n, move |c| match c {
                Value::Float(a) => Some(want(a.total_cmp(&k))),
                _ => None,
            }),
            Value::Text(k) => {
                let k = k.as_str();
                self.scan::<FIRST>(rows, base, sel, n, move |c| match c {
                    Value::Text(a) => Some(want(a.as_str().cmp(k))),
                    _ => None,
                })
            }
        }
    }

    /// The row loop: `fast` tests a cell of the key's variant; any other
    /// cell takes the interpreter's comparison.
    #[inline(always)]
    fn scan<const FIRST: bool>(
        &self,
        rows: &[&[Value]],
        base: u32,
        sel: &mut [u32],
        n: usize,
        fast: impl Fn(&Value) -> Option<bool>,
    ) -> usize {
        let col = self.col;
        let pass = |cell: &Value| fast(cell).unwrap_or_else(|| self.other(cell));
        let mut kept = 0;
        if FIRST {
            for (i, row) in (base..).zip(&rows[..n]) {
                sel[kept] = i;
                kept += pass(&row[col]) as usize;
            }
        } else {
            for t in 0..n {
                let i = sel[t];
                sel[kept] = i;
                kept += pass(&rows[(i - base) as usize][col]) as usize;
            }
        }
        kept
    }

    /// A cell of another variant than the key's: NULL, the Int/Float
    /// cross type or another kind.
    #[cold]
    #[inline(never)]
    fn other(&self, cell: &Value) -> bool {
        cmp_passes(self.op, cell.sql_cmp(&self.key))
    }
}

/// Try to flatten `pred` into an AND-chain of `column <cmp> constant`
/// conjuncts. Succeeds only when *every* leaf is such a comparison, so
/// the caller can run the comparison kernel knowing the general evaluator
/// could never have produced an error or a different row set: a pure
/// comparison yields `Bool` or `NULL` (never an error, never another
/// type), and a 3VL AND of those is TRUE iff every conjunct is TRUE.
pub(crate) fn flatten_col_cmps<'a>(
    pred: &'a BoundExpr,
    ctx: &BoundCtx<'a>,
    out: &mut Vec<ColCmp<'a>>,
) -> bool {
    match pred {
        BoundExpr::Binary {
            left,
            op: BinOp::And,
            right,
        } => flatten_col_cmps(left, ctx, out) && flatten_col_cmps(right, ctx, out),
        BoundExpr::Binary { left, op, right }
            if matches!(
                op,
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
            ) =>
        {
            let leaf = |e: &'a BoundExpr| match e {
                BoundExpr::Const(v) => Some(v),
                // A missing `?` binding falls back to the general path,
                // which raises the canonical error on the first row.
                BoundExpr::Param(i) => ctx.params.get(*i),
                _ => None,
            };
            match (&**left, &**right) {
                (BoundExpr::Column(c), r) => match leaf(r) {
                    Some(key) => {
                        out.push(ColCmp {
                            col: *c,
                            op: *op,
                            key: Cow::Borrowed(key),
                        });
                        true
                    }
                    None => false,
                },
                (l, BoundExpr::Column(c)) => match leaf(l) {
                    Some(key) => {
                        out.push(ColCmp {
                            col: *c,
                            op: flip_cmp(*op),
                            key: Cow::Borrowed(key),
                        });
                        true
                    }
                    None => false,
                },
                _ => false,
            }
        }
        _ => false,
    }
}

// ---------------------------------------------------------- join pushdown
//
// The join compiler pushes one-sided WHERE/ON conjuncts into the side's
// scan. Pushing never *removes* a conjunct from its original position —
// the full WHERE and every ON residual still run — so a pushed conjunct
// is a pure prefilter. Safety then needs exactly two properties, both
// enforced structurally here: the pushed conjunct is infallible and false
// on NULL (so pad rows cascading from a removed row, whose side columns
// are NULL, are re-killed by the retained copy), and the *whole* WHERE
// plus every residual is infallible (so the engines' differing
// intermediate row sets cannot surface different evaluation errors).

/// Extract the pushable `column <cmp> constant` shape from a bound
/// conjunct. `BETWEEN` (non-negated) splits into its two bounding
/// comparisons. Returns `None` for every other shape — parameters fold
/// to constants only at bind time, so a `?` that reached here stays
/// unpushed rather than freezing one execution's binding into the plan.
pub(crate) fn as_col_cmps(e: &BoundExpr) -> Option<Vec<ColCmp<'static>>> {
    match e {
        BoundExpr::Binary { left, op, right }
            if matches!(
                op,
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
            ) =>
        {
            match (&**left, &**right) {
                (BoundExpr::Column(c), BoundExpr::Const(v)) => Some(vec![ColCmp {
                    col: *c,
                    op: *op,
                    key: Cow::Owned(v.clone()),
                }]),
                (BoundExpr::Const(v), BoundExpr::Column(c)) => Some(vec![ColCmp {
                    col: *c,
                    op: flip_cmp(*op),
                    key: Cow::Owned(v.clone()),
                }]),
                _ => None,
            }
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match (&**expr, &**low, &**high) {
            (BoundExpr::Column(c), BoundExpr::Const(lo), BoundExpr::Const(hi)) => Some(vec![
                ColCmp {
                    col: *c,
                    op: BinOp::GtEq,
                    key: Cow::Owned(lo.clone()),
                },
                ColCmp {
                    col: *c,
                    op: BinOp::LtEq,
                    key: Cow::Owned(hi.clone()),
                },
            ]),
            _ => None,
        },
        _ => None,
    }
}

/// Is this bound predicate structurally incapable of raising an error,
/// whatever row it sees? Conservative: comparisons, `IS [NOT] NULL`, and
/// `[NOT] BETWEEN` over column/constant operands yield `Bool` or `NULL`
/// for *any* operand values (mixed types order by type rank rather than
/// erroring), and `AND`/`OR`/`NOT` over such predicates are three-valued
/// and total. Everything else — arithmetic (division), `LIKE` (pattern
/// must be text), parameters (may be unbound), functions, subqueries —
/// is treated as fallible.
pub(crate) fn infallible_predicate(e: &BoundExpr) -> bool {
    fn value_leaf(e: &BoundExpr) -> bool {
        matches!(e, BoundExpr::Const(_) | BoundExpr::Column(_))
    }
    match e {
        BoundExpr::Const(v) => matches!(v, Value::Bool(_) | Value::Null),
        BoundExpr::Binary { left, op, right } => match op {
            BinOp::And | BinOp::Or => infallible_predicate(left) && infallible_predicate(right),
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                value_leaf(left) && value_leaf(right)
            }
            _ => false,
        },
        BoundExpr::Unary {
            op: UnOp::Not,
            expr,
        } => infallible_predicate(expr),
        BoundExpr::IsNull { expr, .. } => value_leaf(expr),
        BoundExpr::Between {
            expr, low, high, ..
        } => value_leaf(expr) && value_leaf(low) && value_leaf(high),
        _ => false,
    }
}

/// Evaluate a bound predicate over one batch of rows, appending the
/// ordinals (offset by `base`) of passing rows to the selection vector.
/// One call is one expression-over-batch pass, over at most
/// [`BATCH_SIZE`] rows.
///
/// `cmps` is `pred` flattened by [`flatten_col_cmps`], when it is an
/// AND-chain of `column <cmp> constant` comparisons — the dominant WHERE
/// shape, which the comparison kernel runs with no per-row context and
/// no `Value` clones. Anything else goes through the general evaluator
/// row by row.
pub(crate) fn filter_bound_batch(
    pred: &BoundExpr,
    cmps: Option<&[ColCmp<'_>]>,
    ctx: &BoundCtx<'_>,
    rows: &[&[Value]],
    base: u32,
    sel: &mut Vec<u32>,
) -> SqlResult<()> {
    if let Some(cmps) = cmps {
        let mut kept = [0u32; BATCH_SIZE];
        let n = select_rows(cmps, rows, base, &mut kept);
        // Pushed one at a time, as on the general path below, so the
        // selection vector grows the same way whichever path runs.
        for &i in &kept[..n] {
            sel.push(i);
        }
        return Ok(());
    }
    for (i, row) in rows.iter().enumerate() {
        let rc = BoundCtx {
            row: Some(row),
            ..*ctx
        };
        if eval_bound_predicate(pred, &rc)? {
            sel.push(base + i as u32);
        }
    }
    Ok(())
}

/// Evaluate one bound expression for every selected row, appending the
/// results to `out` (a reusable scratch buffer — the caller clears it).
/// Row-major over the selection, so error positions match the
/// interpreter's per-row loop.
pub fn eval_bound_batch(
    expr: &BoundExpr,
    ctx: &BoundCtx<'_>,
    rows: &[&[Value]],
    sel: &[u32],
    out: &mut Vec<Value>,
) -> SqlResult<()> {
    out.reserve(sel.len());
    for &i in sel {
        let rc = BoundCtx {
            row: Some(rows[i as usize]),
            ..*ctx
        };
        out.push(eval_bound(expr, &rc)?);
    }
    Ok(())
}

/// Evaluate a bound predicate: NULL and FALSE both drop the row, and a
/// failing conjunct surfaces only if no other conjunct is FALSE or NULL.
/// Mirrors [`crate::expr::eval_predicate`] exactly.
pub fn eval_bound_predicate(expr: &BoundExpr, ctx: &BoundCtx<'_>) -> SqlResult<bool> {
    let mut failed = None;
    let kept = conjuncts_hold(expr, ctx, &mut failed);
    match failed {
        Some(e) if kept => Err(e),
        _ => Ok(kept),
    }
}

/// [`eval_bound_predicate`]'s walk over an `AND` chain.
fn conjuncts_hold(expr: &BoundExpr, ctx: &BoundCtx<'_>, failed: &mut Option<SqlError>) -> bool {
    if let BoundExpr::Binary {
        left,
        op: BinOp::And,
        right,
    } = expr
    {
        return conjuncts_hold(left, ctx, failed) && conjuncts_hold(right, ctx, failed);
    }
    match eval_bound(expr, ctx).and_then(predicate_truth) {
        Ok(holds) => holds,
        Err(e) => {
            failed.get_or_insert(e);
            true
        }
    }
}

fn run_subquery(stmt: &SelectStmt, ctx: &BoundCtx<'_>) -> SqlResult<crate::db::QueryResult> {
    // Subqueries are uncorrelated: no outer row is passed down.
    crate::exec::select::run_select(ctx.catalog, ctx.snap, stmt, ctx.params, ctx.named_params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    fn bind_const(src: &str) -> BoundExpr {
        let e = parse_expression(src).unwrap();
        bind(&e, &RowSchema::empty()).unwrap()
    }

    #[test]
    fn literals_and_pure_subtrees_fold() {
        assert_eq!(bind_const("1 + 2 * 3").const_value(), Some(&Value::Int(7)));
        assert_eq!(
            bind_const("UPPER('abc') || '!'").const_value(),
            Some(&Value::text("ABC!"))
        );
        assert_eq!(
            bind_const("CASE WHEN 1 < 2 THEN 'y' ELSE 'n' END").const_value(),
            Some(&Value::text("y"))
        );
    }

    #[test]
    fn params_do_not_fold() {
        assert!(bind_const("? + 1").const_value().is_none());
        assert!(bind_const(":x || 'a'").const_value().is_none());
    }

    #[test]
    fn failed_fold_keeps_runtime_error() {
        // 1/0 must error when the statement runs, not when it binds.
        let b = bind_const("1 / 0");
        assert!(b.const_value().is_none());
        let catalog = Catalog::new();
        let snap = Snapshot::committed();
        let named = HashMap::new();
        let ctx = BoundCtx {
            catalog: &catalog,
            snap: &snap,
            params: &[],
            named_params: &named,
            row: None,
        };
        assert_eq!(eval_bound(&b, &ctx).unwrap_err().class(), "runtime");
    }

    #[test]
    fn short_circuit_hides_foldable_error_like_interpreter() {
        let b = bind_const("FALSE AND (1 / 0 = 1)");
        let catalog = Catalog::new();
        let snap = Snapshot::committed();
        let named = HashMap::new();
        let ctx = BoundCtx {
            catalog: &catalog,
            snap: &snap,
            params: &[],
            named_params: &named,
            row: None,
        };
        assert_eq!(eval_bound(&b, &ctx).unwrap(), Value::Bool(false));
    }

    #[test]
    fn nextval_never_folds() {
        let b = bind_const("NEXTVAL('s')");
        assert!(b.const_value().is_none());
    }

    #[test]
    fn columns_bind_to_ordinals() {
        let schema = RowSchema::new(vec![
            (Some("t".into()), "a".into()),
            (Some("t".into()), "b".into()),
        ]);
        let e = parse_expression("t.b + a").unwrap();
        let b = bind(&e, &schema).unwrap();
        let catalog = Catalog::new();
        let snap = Snapshot::committed();
        let named = HashMap::new();
        let row = vec![Value::Int(40), Value::Int(2)];
        let ctx = BoundCtx {
            catalog: &catalog,
            snap: &snap,
            params: &[],
            named_params: &named,
            row: Some(&row),
        };
        assert_eq!(eval_bound(&b, &ctx).unwrap(), Value::Int(42));
    }

    #[test]
    fn unknown_column_fails_bind() {
        let e = parse_expression("zzz + 1").unwrap();
        assert!(bind(&e, &RowSchema::empty()).is_err());
    }

    #[test]
    fn aggregates_fail_bind() {
        let e = parse_expression("SUM(1)").unwrap();
        assert!(bind(&e, &RowSchema::empty()).is_err());
    }
}
