//! Scalar expression evaluation with SQL three-valued logic.
//!
//! The evaluator is shared by the `WHERE`/`HAVING` filters, projection
//! lists, `UPDATE` assignments and `INSERT` value lists. Rows are addressed
//! through a [`RowSchema`] mapping qualified column names to positions;
//! aggregates are computed by the executor and injected via
//! [`EvalCtx::aggregates`]. Subqueries must be uncorrelated — they are
//! evaluated against the catalog without a row context.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, SelectStmt, UnOp};
use crate::catalog::Catalog;
use crate::error::{SqlError, SqlResult};
use crate::storage::Snapshot;
use crate::types::Value;

/// Names visible to column references of one row stream.
#[derive(Debug, Clone, Default)]
pub struct RowSchema {
    cols: Vec<(Option<String>, String)>,
}

impl RowSchema {
    /// Empty schema (no columns resolvable).
    pub fn empty() -> RowSchema {
        RowSchema::default()
    }

    /// Build from `(binding, column)` pairs.
    pub fn new(cols: Vec<(Option<String>, String)>) -> RowSchema {
        RowSchema { cols }
    }

    /// Every column of one table or derived table, under its `binding`.
    pub fn for_binding<'c>(
        binding: &str,
        names: impl IntoIterator<Item = &'c String>,
    ) -> RowSchema {
        let cols = names.into_iter();
        RowSchema::new(
            cols.map(|c| (Some(binding.to_string()), c.clone()))
                .collect(),
        )
    }

    /// Append a column.
    pub fn push(&mut self, binding: Option<String>, name: String) {
        self.cols.push((binding, name));
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// All `(binding, name)` pairs.
    pub fn columns(&self) -> &[(Option<String>, String)] {
        &self.cols
    }

    /// Positions of all columns bound under `binding` (for `alias.*`).
    pub fn binding_positions(&self, binding: &str) -> Vec<usize> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, (b, _))| {
                b.as_deref()
                    .is_some_and(|x| x.eq_ignore_ascii_case(binding))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Resolve `table.name` or bare `name`; ambiguous bare names error.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> SqlResult<usize> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (b, n))| {
                n.eq_ignore_ascii_case(name)
                    && match table {
                        Some(t) => b.as_deref().is_some_and(|x| x.eq_ignore_ascii_case(t)),
                        None => true,
                    }
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(SqlError::NotFound(format!(
                "column '{}{}'",
                table.map(|t| format!("{t}.")).unwrap_or_default(),
                name
            ))),
            1 => Ok(matches[0]),
            _ => Err(SqlError::Semantic(format!("ambiguous column '{name}'"))),
        }
    }
}

/// Everything an expression may need at evaluation time.
pub struct EvalCtx<'a> {
    /// The catalog, for subqueries and `NEXTVAL`.
    pub catalog: &'a Catalog,
    /// The statement's snapshot, for subqueries.
    pub snap: &'a Snapshot,
    /// `?` host parameters, positional.
    pub params: &'a [Value],
    /// `:name` parameters (stored-procedure formals).
    pub named_params: &'a HashMap<String, Value>,
    /// Current row, if any.
    pub row: Option<(&'a RowSchema, &'a [Value])>,
    /// Pre-computed aggregate values, keyed by [`aggregate_key`].
    pub aggregates: Option<&'a HashMap<String, Value>>,
}

impl<'a> EvalCtx<'a> {
    /// Context with no row — constants, DDL defaults, procedure args.
    pub fn constant(catalog: &'a Catalog, snap: &'a Snapshot, params: &'a [Value]) -> EvalCtx<'a> {
        static EMPTY: std::sync::OnceLock<HashMap<String, Value>> = std::sync::OnceLock::new();
        EvalCtx {
            catalog,
            snap,
            params,
            named_params: EMPTY.get_or_init(HashMap::new),
            row: None,
            aggregates: None,
        }
    }

    /// Same context focused on a different row.
    pub fn with_row(&self, schema: &'a RowSchema, row: &'a [Value]) -> EvalCtx<'a> {
        EvalCtx {
            catalog: self.catalog,
            snap: self.snap,
            params: self.params,
            named_params: self.named_params,
            row: Some((schema, row)),
            aggregates: self.aggregates,
        }
    }
}

/// Is `name` (upper-cased) an aggregate function?
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

/// Canonical key identifying one aggregate call site within a statement.
pub fn aggregate_key(expr: &Expr) -> String {
    format!("{expr:?}")
}

/// Evaluate `expr` to a [`Value`].
pub fn eval(expr: &Expr, ctx: &EvalCtx<'_>) -> SqlResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { table, name } => {
            let (schema, row) = ctx.row.ok_or_else(|| {
                SqlError::Semantic(format!("column '{name}' referenced outside a row context"))
            })?;
            let i = schema.resolve(table.as_deref(), name)?;
            Ok(row[i].clone())
        }
        Expr::Param(i) => ctx
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| SqlError::Binding(format!("missing host parameter #{}", i + 1))),
        Expr::NamedParam(n) => ctx
            .named_params
            .get(&n.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| SqlError::Binding(format!("unbound named parameter ':{n}'"))),
        Expr::Unary { op, expr } => {
            let v = eval(expr, ctx)?;
            apply_unary_op(*op, v)
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, ctx),
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval(expr, ctx)?;
            let mut values = Vec::with_capacity(list.len());
            for e in list {
                values.push(eval(e, ctx)?);
            }
            Ok(apply_negation(in_membership(&needle, &values), *negated))
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let needle = eval(expr, ctx)?;
            let values = subquery_column(subquery, ctx)?;
            Ok(apply_negation(in_membership(&needle, &values), *negated))
        }
        Expr::Exists { subquery, negated } => {
            let rs = run_subquery(subquery, ctx)?;
            Ok(Value::Bool(rs.rows.is_empty() == *negated))
        }
        Expr::ScalarSubquery(subquery) => {
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
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let lo = eval(low, ctx)?;
            let hi = eval(high, ctx)?;
            let ge = compare(&v, &lo).map(|o| o != std::cmp::Ordering::Less);
            let le = compare(&v, &hi).map(|o| o != std::cmp::Ordering::Greater);
            let r = three_and(ge, le);
            Ok(apply_negation(r, *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            let p = eval(pattern, ctx)?;
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
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            match operand {
                Some(op) => {
                    let subject = eval(op, ctx)?;
                    for (when, then) in branches {
                        let w = eval(when, ctx)?;
                        if !subject.is_null() && !w.is_null() && subject == w {
                            return eval(then, ctx);
                        }
                    }
                }
                None => {
                    for (when, then) in branches {
                        if eval(when, ctx)? == Value::Bool(true) {
                            return eval(then, ctx);
                        }
                    }
                }
            }
            match else_branch {
                Some(e) => eval(e, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Function { name, .. } if is_aggregate_name(name) => {
            let aggs = ctx.aggregates.ok_or_else(|| {
                SqlError::Semantic(format!("aggregate {name}() not allowed here"))
            })?;
            aggs.get(&aggregate_key(expr)).cloned().ok_or_else(|| {
                SqlError::Semantic(format!("aggregate {name}() was not pre-computed"))
            })
        }
        Expr::Function { name, args, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, ctx)?);
            }
            scalar_function(name, &vals, ctx.catalog)
        }
    }
}

/// Evaluate a predicate for filtering: NULL and FALSE both drop the row.
/// Conjuncts of an `AND` chain run left to right and stop at the first
/// FALSE or NULL. One that fails does not stop them: the row is dropped
/// if a later conjunct is FALSE or NULL, and only otherwise does the
/// first failure surface (ADR 0003, rule b) — so no index that skips
/// the row can change whether the statement fails.
pub fn eval_predicate(expr: &Expr, ctx: &EvalCtx<'_>) -> SqlResult<bool> {
    let mut failed = None;
    let kept = conjuncts_hold(expr, ctx, &mut failed);
    match failed {
        Some(e) if kept => Err(e),
        _ => Ok(kept),
    }
}

/// [`eval_predicate`]'s walk: `false` once a conjunct is FALSE or NULL;
/// a failing conjunct counts as holding, its error kept in `failed`.
fn conjuncts_hold(expr: &Expr, ctx: &EvalCtx<'_>, failed: &mut Option<SqlError>) -> bool {
    if let Expr::Binary {
        left,
        op: BinOp::And,
        right,
    } = expr
    {
        return conjuncts_hold(left, ctx, failed) && conjuncts_hold(right, ctx, failed);
    }
    match eval(expr, ctx).and_then(predicate_truth) {
        Ok(holds) => holds,
        Err(e) => {
            failed.get_or_insert(e);
            true
        }
    }
}

/// A predicate value as a filter verdict: NULL drops the row like FALSE.
pub(crate) fn predicate_truth(v: Value) -> SqlResult<bool> {
    match v {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(SqlError::Semantic(format!(
            "predicate evaluated to non-boolean {other:?}"
        ))),
    }
}

fn run_subquery(stmt: &SelectStmt, ctx: &EvalCtx<'_>) -> SqlResult<crate::db::QueryResult> {
    // Subqueries are uncorrelated: no outer row is passed down.
    crate::exec::select::run_select(ctx.catalog, ctx.snap, stmt, ctx.params, ctx.named_params)
}

fn subquery_column(stmt: &SelectStmt, ctx: &EvalCtx<'_>) -> SqlResult<Vec<Value>> {
    let rs = run_subquery(stmt, ctx)?;
    if rs.columns.len() != 1 {
        return Err(SqlError::Semantic(
            "IN subquery must return exactly one column".into(),
        ));
    }
    Ok(rs.rows.into_iter().map(|mut r| r.pop().unwrap()).collect())
}

/// SQL `IN` membership with NULL semantics. `None` encodes UNKNOWN.
pub(crate) fn in_membership(needle: &Value, haystack: &[Value]) -> Option<bool> {
    if haystack.is_empty() {
        return Some(false);
    }
    if needle.is_null() {
        return None;
    }
    let mut saw_null = false;
    for v in haystack {
        if v.is_null() {
            saw_null = true;
        } else if v == needle {
            return Some(true);
        }
    }
    if saw_null {
        None
    } else {
        Some(false)
    }
}

pub(crate) fn apply_negation(r: Option<bool>, negated: bool) -> Value {
    match r {
        None => Value::Null,
        Some(b) => Value::Bool(b != negated),
    }
}

pub(crate) fn three_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

pub(crate) fn compare(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    a.sql_cmp(b)
}

fn eval_binary(left: &Expr, op: BinOp, right: &Expr, ctx: &EvalCtx<'_>) -> SqlResult<Value> {
    // AND/OR get short-circuit + three-valued handling.
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = eval(left, ctx)?;
        let l3 = value_to_three(&l, "AND/OR")?;
        // Short-circuit on determined outcomes.
        match (op, l3) {
            (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
            (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
            _ => {}
        }
        let r = eval(right, ctx)?;
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

    let l = eval(left, ctx)?;
    let r = eval(right, ctx)?;
    apply_binary_op(op, &l, &r)
}

/// Apply a unary operator to an already-computed operand. Shared by the
/// interpreted evaluator and the bound (compiled) one.
pub(crate) fn apply_unary_op(op: UnOp, v: Value) -> SqlResult<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(SqlError::Semantic(format!("cannot negate {other:?}"))),
        },
        UnOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(SqlError::Semantic(format!("NOT applied to {other:?}"))),
        },
    }
}

/// Apply a non-logical binary operator to two already-computed operands.
/// Shared by the interpreted evaluator and the bound (compiled) one.
pub(crate) fn apply_binary_op(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    match op {
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let cmp = compare(l, r);
            let out = cmp.map(|o| match op {
                BinOp::Eq => o == std::cmp::Ordering::Equal,
                BinOp::NotEq => o != std::cmp::Ordering::Equal,
                BinOp::Lt => o == std::cmp::Ordering::Less,
                BinOp::LtEq => o != std::cmp::Ordering::Greater,
                BinOp::Gt => o == std::cmp::Ordering::Greater,
                BinOp::GtEq => o != std::cmp::Ordering::Less,
                _ => unreachable!(),
            });
            Ok(match out {
                None => Value::Null,
                Some(b) => Value::Bool(b),
            })
        }
        BinOp::Concat => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Ok(Value::Text(format!("{}{}", l.render(), r.render()))),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arithmetic(op, l, r),
        BinOp::And | BinOp::Or => unreachable!("logical ops are handled by the caller"),
    }
}

pub(crate) fn value_to_three(v: &Value, what: &str) -> SqlResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(SqlError::Semantic(format!(
            "{what} operand must be boolean, got {other:?}"
        ))),
    }
}

pub(crate) fn arithmetic(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            let out = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(SqlError::Runtime("division by zero".into()));
                    }
                    a.checked_div(b)
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(SqlError::Runtime("division by zero".into()));
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Int)
                .ok_or_else(|| SqlError::Runtime("integer overflow".into()))
        }
        _ => {
            let a = l
                .as_f64()
                .ok_or_else(|| SqlError::Semantic(format!("arithmetic on non-numeric {l:?}")))?;
            let b = r
                .as_f64()
                .ok_or_else(|| SqlError::Semantic(format!("arithmetic on non-numeric {r:?}")))?;
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(SqlError::Runtime("division by zero".into()));
                    }
                    a / b
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        return Err(SqlError::Runtime("division by zero".into()));
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

/// `LIKE` pattern matching: `%` = any run, `_` = any single char.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=s.len()).any(|k| rec(&s[k..], rest))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

pub(crate) fn scalar_function(name: &str, args: &[Value], catalog: &Catalog) -> SqlResult<Value> {
    let arity = |n: usize| -> SqlResult<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(SqlError::Semantic(format!(
                "{name}() expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match name {
        "UPPER" => {
            arity(1)?;
            text_fn(&args[0], |s| s.to_uppercase())
        }
        "LOWER" => {
            arity(1)?;
            text_fn(&args[0], |s| s.to_lowercase())
        }
        "TRIM" => {
            arity(1)?;
            text_fn(&args[0], |s| s.trim().to_string())
        }
        "LENGTH" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(SqlError::Semantic(format!("LENGTH of {other:?}"))),
            }
        }
        "ABS" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => {
                    Ok(Value::Int(i.checked_abs().ok_or_else(|| {
                        SqlError::Runtime("integer overflow in ABS".into())
                    })?))
                }
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(SqlError::Semantic(format!("ABS of {other:?}"))),
            }
        }
        "FLOOR" | "CEIL" | "CEILING" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(Value::Int(if name == "FLOOR" {
                    f.floor() as i64
                } else {
                    f.ceil() as i64
                })),
                other => Err(SqlError::Semantic(format!("{name} of {other:?}"))),
            }
        }
        "ROUND" => {
            if args.is_empty() || args.len() > 2 {
                return Err(SqlError::Semantic("ROUND expects 1 or 2 arguments".into()));
            }
            let digits = if args.len() == 2 {
                args[1]
                    .as_i64()
                    .ok_or_else(|| SqlError::Semantic("ROUND digits must be integer".into()))?
            } else {
                0
            };
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => {
                    let m = 10f64.powi(digits as i32);
                    let r = (f * m).round() / m;
                    if args.len() == 1 {
                        Ok(Value::Int(r as i64))
                    } else {
                        Ok(Value::Float(r))
                    }
                }
                other => Err(SqlError::Semantic(format!("ROUND of {other:?}"))),
            }
        }
        "COALESCE" | "IFNULL" => {
            if args.is_empty() {
                return Err(SqlError::Semantic("COALESCE expects arguments".into()));
            }
            Ok(args
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(Value::Null))
        }
        "NULLIF" => {
            arity(2)?;
            if !args[0].is_null() && !args[1].is_null() && args[0] == args[1] {
                Ok(Value::Null)
            } else {
                Ok(args[0].clone())
            }
        }
        "SUBSTR" | "SUBSTRING" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(SqlError::Semantic("SUBSTR expects 2 or 3 arguments".into()));
            }
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s = args[0]
                .as_str()
                .ok_or_else(|| SqlError::Semantic("SUBSTR of non-text".into()))?;
            let start = args[1]
                .as_i64()
                .ok_or_else(|| SqlError::Semantic("SUBSTR start must be integer".into()))?;
            let chars: Vec<char> = s.chars().collect();
            let begin = (start.max(1) - 1) as usize;
            let len = if args.len() == 3 {
                args[2]
                    .as_i64()
                    .ok_or_else(|| SqlError::Semantic("SUBSTR length must be integer".into()))?
                    .max(0) as usize
            } else {
                chars.len().saturating_sub(begin)
            };
            let out: String = chars.iter().skip(begin).take(len).collect();
            Ok(Value::Text(out))
        }
        "REPLACE" => {
            arity(3)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            match (&args[0], &args[1], &args[2]) {
                (Value::Text(s), Value::Text(from), Value::Text(to)) => {
                    Ok(Value::Text(s.replace(from.as_str(), to)))
                }
                _ => Err(SqlError::Semantic("REPLACE requires text arguments".into())),
            }
        }
        "CONCAT" => {
            let mut out = String::new();
            for v in args {
                if v.is_null() {
                    continue; // CONCAT skips NULLs, unlike ||
                }
                out.push_str(&v.render());
            }
            Ok(Value::Text(out))
        }
        "MOD" => {
            arity(2)?;
            arithmetic(BinOp::Mod, &args[0], &args[1])
        }
        "NEXTVAL" => {
            arity(1)?;
            let seq_name = args[0]
                .as_str()
                .ok_or_else(|| SqlError::Semantic("NEXTVAL expects a sequence name".into()))?;
            let seq = catalog.sequence(seq_name)?;
            Ok(Value::Int(seq.next_value()))
        }
        other => Err(SqlError::NotFound(format!("function '{other}'"))),
    }
}

fn text_fn(v: &Value, f: impl Fn(&str) -> String) -> SqlResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Text(s) => Ok(Value::Text(f(s))),
        other => Err(SqlError::Semantic(format!(
            "string function applied to {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    fn eval_const(src: &str) -> SqlResult<Value> {
        let catalog = Catalog::new();
        let snap = Snapshot::committed();
        let e = parse_expression(src)?;
        let ctx = EvalCtx::constant(&catalog, &snap, &[]);
        eval(&e, &ctx)
    }

    fn v(src: &str) -> Value {
        eval_const(src).unwrap()
    }

    #[test]
    fn arithmetic_int_and_float() {
        assert_eq!(v("1 + 2 * 3"), Value::Int(7));
        assert_eq!(v("7 / 2"), Value::Int(3));
        assert_eq!(v("7.0 / 2"), Value::Float(3.5));
        assert_eq!(v("7 % 3"), Value::Int(1));
        assert_eq!(v("-(3 - 5)"), Value::Int(2));
    }

    #[test]
    fn division_by_zero_errors() {
        assert_eq!(eval_const("1 / 0").unwrap_err().class(), "runtime");
        assert_eq!(eval_const("1.0 / 0.0").unwrap_err().class(), "runtime");
        assert_eq!(eval_const("1 % 0").unwrap_err().class(), "runtime");
    }

    #[test]
    fn integer_overflow_detected() {
        assert_eq!(
            eval_const("9223372036854775807 + 1").unwrap_err().class(),
            "runtime"
        );
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(v("1 + NULL"), Value::Null);
        assert_eq!(v("NULL * 0"), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(v("TRUE AND NULL"), Value::Null);
        assert_eq!(v("FALSE AND NULL"), Value::Bool(false));
        assert_eq!(v("TRUE OR NULL"), Value::Bool(true));
        assert_eq!(v("FALSE OR NULL"), Value::Null);
        assert_eq!(v("NOT NULL"), Value::Null);
    }

    #[test]
    fn comparisons_with_null_are_unknown() {
        assert_eq!(v("NULL = NULL"), Value::Null);
        assert_eq!(v("1 < NULL"), Value::Null);
        assert_eq!(v("NULL IS NULL"), Value::Bool(true));
        assert_eq!(v("1 IS NOT NULL"), Value::Bool(true));
    }

    #[test]
    fn in_list_null_semantics() {
        assert_eq!(v("1 IN (1, 2)"), Value::Bool(true));
        assert_eq!(v("3 IN (1, 2)"), Value::Bool(false));
        assert_eq!(v("3 IN (1, NULL)"), Value::Null);
        assert_eq!(v("NULL IN (1, 2)"), Value::Null);
        assert_eq!(v("3 NOT IN (1, NULL)"), Value::Null);
        assert_eq!(v("1 NOT IN (2, 3)"), Value::Bool(true));
    }

    #[test]
    fn between_and_like() {
        assert_eq!(v("5 BETWEEN 1 AND 10"), Value::Bool(true));
        assert_eq!(v("11 BETWEEN 1 AND 10"), Value::Bool(false));
        assert_eq!(v("5 NOT BETWEEN 1 AND 10"), Value::Bool(false));
        assert_eq!(v("NULL BETWEEN 1 AND 10"), Value::Null);
        assert_eq!(v("'widget' LIKE 'w%'"), Value::Bool(true));
        assert_eq!(v("'widget' LIKE 'w_dget'"), Value::Bool(true));
        assert_eq!(v("'widget' NOT LIKE '%x%'"), Value::Bool(true));
        assert_eq!(v("NULL LIKE 'a'"), Value::Null);
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%c"));
        assert!(like_match("a%c", "a%c")); // literal interpretation of middle % also matches
        assert!(!like_match("abc", "ab"));
    }

    #[test]
    fn case_expressions() {
        assert_eq!(
            v("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END"),
            Value::text("b")
        );
        assert_eq!(
            v("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END"),
            Value::text("two")
        );
        assert_eq!(v("CASE 9 WHEN 1 THEN 'one' END"), Value::Null);
    }

    #[test]
    fn concat_operator_and_function() {
        assert_eq!(v("'a' || 'b' || 1"), Value::text("ab1"));
        assert_eq!(v("'a' || NULL"), Value::Null);
        assert_eq!(v("CONCAT('a', NULL, 'b')"), Value::text("ab"));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(v("UPPER('abc')"), Value::text("ABC"));
        assert_eq!(v("LOWER('ABC')"), Value::text("abc"));
        assert_eq!(v("LENGTH('héllo')"), Value::Int(5));
        assert_eq!(v("ABS(-4)"), Value::Int(4));
        assert_eq!(v("ABS(-4.5)"), Value::Float(4.5));
        assert_eq!(v("COALESCE(NULL, NULL, 3)"), Value::Int(3));
        assert_eq!(v("NULLIF(1, 1)"), Value::Null);
        assert_eq!(v("NULLIF(1, 2)"), Value::Int(1));
        assert_eq!(v("SUBSTR('workflow', 5)"), Value::text("flow"));
        assert_eq!(v("SUBSTR('workflow', 1, 4)"), Value::text("work"));
        assert_eq!(v("REPLACE('a-b-c', '-', '+')"), Value::text("a+b+c"));
        assert_eq!(v("TRIM('  x ')"), Value::text("x"));
        assert_eq!(v("ROUND(2.6)"), Value::Int(3));
        assert_eq!(v("ROUND(2.345, 2)"), Value::Float(2.35));
        assert_eq!(v("FLOOR(2.9)"), Value::Int(2));
        assert_eq!(v("CEIL(2.1)"), Value::Int(3));
        assert_eq!(v("MOD(10, 3)"), Value::Int(1));
    }

    #[test]
    fn unknown_function_errors() {
        assert_eq!(
            eval_const("FROBNICATE(1)").unwrap_err().class(),
            "not_found"
        );
    }

    #[test]
    fn wrong_arity_errors() {
        assert_eq!(eval_const("UPPER()").unwrap_err().class(), "semantic");
        assert_eq!(
            eval_const("UPPER('a', 'b')").unwrap_err().class(),
            "semantic"
        );
    }

    #[test]
    fn nextval_advances_sequence() {
        let mut catalog = Catalog::new();
        let snap = Snapshot::committed();
        catalog
            .add_sequence(crate::catalog::Sequence::new("s", 7, 1))
            .unwrap();
        let e = parse_expression("NEXTVAL('s')").unwrap();
        let ctx = EvalCtx::constant(&catalog, &snap, &[]);
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Int(7));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Int(8));
    }

    #[test]
    fn host_params_bind_positionally() {
        let catalog = Catalog::new();
        let snap = Snapshot::committed();
        let e = parse_expression("? + ?").unwrap();
        let params = vec![Value::Int(2), Value::Int(40)];
        let ctx = EvalCtx::constant(&catalog, &snap, &params);
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Int(42));
    }

    #[test]
    fn missing_param_is_binding_error() {
        let catalog = Catalog::new();
        let snap = Snapshot::committed();
        let e = parse_expression("?").unwrap();
        let ctx = EvalCtx::constant(&catalog, &snap, &[]);
        assert_eq!(eval(&e, &ctx).unwrap_err().class(), "binding");
    }

    #[test]
    fn named_params_resolve_case_insensitively() {
        let catalog = Catalog::new();
        let snap = Snapshot::committed();
        let e = parse_expression(":Item").unwrap();
        let mut named = HashMap::new();
        named.insert("item".to_string(), Value::text("widget"));
        let ctx = EvalCtx {
            catalog: &catalog,
            snap: &snap,
            params: &[],
            named_params: &named,
            row: None,
            aggregates: None,
        };
        assert_eq!(eval(&e, &ctx).unwrap(), Value::text("widget"));
    }

    #[test]
    fn row_schema_resolution() {
        let schema = RowSchema::new(vec![
            (Some("o".into()), "id".into()),
            (Some("i".into()), "id".into()),
            (Some("i".into()), "name".into()),
        ]);
        assert_eq!(schema.resolve(Some("o"), "id").unwrap(), 0);
        assert_eq!(schema.resolve(Some("I"), "ID").unwrap(), 1);
        assert_eq!(schema.resolve(None, "name").unwrap(), 2);
        assert_eq!(schema.resolve(None, "id").unwrap_err().class(), "semantic");
        assert_eq!(
            schema.resolve(None, "zzz").unwrap_err().class(),
            "not_found"
        );
        assert_eq!(schema.binding_positions("i"), vec![1, 2]);
    }

    #[test]
    fn column_reference_against_row() {
        let catalog = Catalog::new();
        let snap = Snapshot::committed();
        let schema = RowSchema::new(vec![(Some("t".into()), "a".into())]);
        let row = vec![Value::Int(5)];
        let base = EvalCtx::constant(&catalog, &snap, &[]);
        let ctx = base.with_row(&schema, &row);
        let e = parse_expression("t.a * 2").unwrap();
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Int(10));
    }

    #[test]
    fn aggregate_outside_group_context_errors() {
        assert_eq!(eval_const("SUM(1)").unwrap_err().class(), "semantic");
    }

    #[test]
    fn predicate_null_is_false() {
        let catalog = Catalog::new();
        let snap = Snapshot::committed();
        let ctx = EvalCtx::constant(&catalog, &snap, &[]);
        let e = parse_expression("NULL = 1").unwrap();
        assert!(!eval_predicate(&e, &ctx).unwrap());
        let e = parse_expression("1 + 1").unwrap();
        assert!(eval_predicate(&e, &ctx).is_err());
    }
}
