//! DML execution: `INSERT`, `UPDATE`, `DELETE`.
//!
//! Mutations run in two phases: an immutable phase that evaluates
//! predicates and new values against a snapshot view, then a mutable phase
//! that applies the collected changes. This sidesteps the Halloween
//! problem (an `UPDATE` whose predicate matches its own output) and lets
//! every change record an undo entry for statement atomicity.
//!
//! `UPDATE` and `DELETE` share one collect/apply path for every executor:
//! the compiled plan ([`crate::plan::DmlPlan`]), the interpreter and
//! `Connection::execute_batch` differ only in where candidate rows come
//! from and how expressions are evaluated (`DmlEval`). The compiled plan
//! finds candidates through the access path a `SELECT` would take —
//! point lookup, range walk or full scan — and the interpreter, the
//! differential oracle, always walks the whole table. Either way the
//! full WHERE is re-checked on each candidate and candidates arrive in
//! ascending row id (`Probe::rows`), so undo entries and WAL frames
//! come out exactly as a full scan would produce them.
//!
//! Every runner takes an optional *held* table guard. With one, both
//! phases run under the guard the caller holds — the fast path under the
//! shared catalog-shape lock, safe only for subquery-free statements since
//! a subquery would re-enter the catalog's table map. Without one, the
//! runner takes a shared guard to collect — subqueries may re-read the
//! same table — and an exclusive one to apply, relying on the
//! catalog-shape write lock to make the guard gap invisible.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::*;
use crate::catalog::Catalog;
use crate::error::{SqlError, SqlResult};
use crate::exec::Probe;
use crate::expr::{eval, eval_predicate, EvalCtx, RowSchema};
use crate::storage::{Row, RowId, Snapshot, Table};
use crate::txn::{UndoLog, UndoOp};
use crate::types::Value;

/// Run `collect` then `apply` against table `name`: under `held`, the
/// caller's write guard on it, or else under guards taken here.
fn two_phase<C>(
    catalog: &Catalog,
    held: Option<&mut Table>,
    name: &str,
    collect: impl FnOnce(&Table) -> SqlResult<C>,
    apply: impl FnOnce(&mut Table, C) -> SqlResult<usize>,
) -> SqlResult<usize> {
    match held {
        Some(table) => {
            let collected = collect(table)?;
            apply(table, collected)
        }
        None => {
            let collected = collect(&*catalog.table(name)?)?;
            apply(&mut *catalog.table_mut(name)?, collected)
        }
    }
}

/// Phase 1 of an `INSERT`: compute the full rows to insert.
fn collect_insert(
    catalog: &Catalog,
    snap: &Snapshot,
    table: &Table,
    stmt: &InsertStmt,
    params: &[Value],
    named_params: &HashMap<String, Value>,
) -> SqlResult<Vec<Vec<Value>>> {
    let width = table.schema.columns.len();

    // Map provided columns → schema positions.
    let positions: Vec<usize> = match &stmt.columns {
        Some(cols) => {
            let mut out = Vec::with_capacity(cols.len());
            for c in cols {
                let i = table.schema.resolve(c)?;
                if out.contains(&i) {
                    return Err(SqlError::Semantic(format!(
                        "column '{c}' listed twice in INSERT"
                    )));
                }
                out.push(i);
            }
            out
        }
        None => (0..width).collect(),
    };

    let source_rows: Vec<Vec<Value>> = match &stmt.source {
        InsertSource::Values(rows) => {
            let ctx = EvalCtx {
                catalog,
                snap,
                params,
                named_params,
                row: None,
                aggregates: None,
            };
            let mut out = Vec::with_capacity(rows.len());
            for exprs in rows {
                let mut row = Vec::with_capacity(exprs.len());
                for e in exprs {
                    row.push(eval(e, &ctx)?);
                }
                out.push(row);
            }
            out
        }
        InsertSource::Select(sel) => {
            super::select::run_select(catalog, snap, sel, params, named_params)?.rows
        }
    };

    let mut full_rows = Vec::with_capacity(source_rows.len());
    for src in source_rows {
        if src.len() != positions.len() {
            return Err(SqlError::Semantic(format!(
                "INSERT expects {} values per row, got {}",
                positions.len(),
                src.len()
            )));
        }
        let mut row = vec![Value::Null; width];
        for (v, &pos) in src.into_iter().zip(&positions) {
            row[pos] = v;
        }
        full_rows.push(row);
    }
    Ok(full_rows)
}

/// Phase 2 of an `INSERT`: apply under the exclusive guard.
fn apply_insert(
    catalog: &Catalog,
    snap: &Snapshot,
    table: &mut Table,
    rows: Vec<Vec<Value>>,
    undo: &mut UndoLog,
) -> SqlResult<usize> {
    let mut n = 0;
    for row in rows {
        let (row_id, row) = table.insert(snap, row)?;
        undo.record(UndoOp::Insert {
            table: Arc::clone(&table.schema),
            row_id,
            row,
        });
        n += 1;
        catalog.fault_row_applied()?;
    }
    Ok(n)
}

/// What a matched row becomes.
pub(crate) enum RowChange {
    Update(Row),
    Delete,
}

/// How one executor evaluates an `UPDATE` or `DELETE`.
pub(crate) trait DmlEval {
    /// Once per statement, before any row is read: the candidate source.
    fn probe(&mut self, table: &Table) -> SqlResult<Probe>;
    /// The full WHERE on one candidate and, if it holds, the change.
    fn change(&mut self, row: &[Value]) -> SqlResult<Option<RowChange>>;
}

/// Phase 1 of an `UPDATE`/`DELETE`: the changes, in ascending row id.
fn collect_changes(
    catalog: &Catalog,
    snap: &Snapshot,
    table: &Table,
    eval: &mut impl DmlEval,
) -> SqlResult<Vec<(RowId, RowChange)>> {
    let probe = eval.probe(table)?;
    let mut changes = Vec::new();
    for (id, row) in probe.rows(catalog, snap, table) {
        if let Some(change) = eval.change(row)? {
            changes.push((id, change));
        }
    }
    Ok(changes)
}

/// Phase 2 of an `UPDATE`/`DELETE`: apply under the exclusive guard,
/// recording undo for atomicity.
fn apply_changes(
    catalog: &Catalog,
    snap: &Snapshot,
    table: &mut Table,
    changes: Vec<(RowId, RowChange)>,
    undo: &mut UndoLog,
) -> SqlResult<usize> {
    let n = changes.len();
    for (row_id, change) in changes {
        let op = match change {
            RowChange::Update(new_row) => {
                let (old, new) = table.update(snap, row_id, new_row)?;
                UndoOp::Update {
                    table: Arc::clone(&table.schema),
                    row_id,
                    old,
                    new,
                }
            }
            RowChange::Delete => UndoOp::Delete {
                table: Arc::clone(&table.schema),
                row_id,
                row: table.delete(snap, row_id)?,
            },
        };
        undo.record(op);
        catalog.fault_row_applied()?;
    }
    Ok(n)
}

/// Execute an `UPDATE` or `DELETE` on table `name` under `snap` through
/// the shared collect/apply path; returns the number of rows changed.
pub(crate) fn run_dml(
    catalog: &Catalog,
    snap: &Snapshot,
    held: Option<&mut Table>,
    name: &str,
    eval: &mut impl DmlEval,
    undo: &mut UndoLog,
) -> SqlResult<usize> {
    two_phase(
        catalog,
        held,
        name,
        |table| collect_changes(catalog, snap, table, eval),
        |table, changes| apply_changes(catalog, snap, table, changes, undo),
    )
}

/// The interpreter's [`DmlEval`]: every row a candidate, names resolved
/// per execution, expressions walked as trees — the differential oracle
/// for [`crate::plan::DmlPlan`].
struct AstDml<'a> {
    catalog: &'a Catalog,
    snap: &'a Snapshot,
    params: &'a [Value],
    named_params: &'a HashMap<String, Value>,
    where_clause: Option<&'a Expr>,
    /// The SET list; `None` for a `DELETE`.
    set: Option<&'a [(String, Expr)]>,
    /// Filled by [`DmlEval::probe`], once the table is in hand.
    schema: RowSchema,
    positions: Vec<usize>,
}

impl DmlEval for AstDml<'_> {
    fn probe(&mut self, table: &Table) -> SqlResult<Probe> {
        // The scan binds under the table's declared name.
        let binding = table.schema.name.clone();
        if let Some(set) = self.set {
            self.positions = set
                .iter()
                .map(|(col, _)| table.schema.resolve(col))
                .collect::<SqlResult<_>>()?;
        }
        self.schema =
            RowSchema::for_binding(&binding, table.schema.columns.iter().map(|c| &c.name));
        Ok(Probe::Full)
    }

    fn change(&mut self, row: &[Value]) -> SqlResult<Option<RowChange>> {
        let ctx = EvalCtx {
            catalog: self.catalog,
            snap: self.snap,
            params: self.params,
            named_params: self.named_params,
            row: Some((&self.schema, row)),
            aggregates: None,
        };
        if let Some(pred) = self.where_clause {
            if !eval_predicate(pred, &ctx)? {
                return Ok(None);
            }
        }
        let Some(set) = self.set else {
            return Ok(Some(RowChange::Delete));
        };
        let mut new_row = row.to_vec();
        for (pos, (_, e)) in self.positions.iter().zip(set) {
            new_row[*pos] = eval(e, &ctx)?;
        }
        Ok(Some(RowChange::Update(new_row)))
    }
}

/// Execute one `INSERT`, `UPDATE` or `DELETE` under `snap` through the
/// interpreter; returns the rows affected. `held` is the caller's write
/// guard on the statement's table, for statements checked subquery-free
/// (and, for an `INSERT`, sourced from `VALUES`: an `INSERT ... SELECT`
/// reads other tables).
pub fn run_write(
    catalog: &Catalog,
    snap: &Snapshot,
    held: Option<&mut Table>,
    stmt: &Statement,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    undo: &mut UndoLog,
) -> SqlResult<usize> {
    let (name, where_clause, set) = match stmt {
        Statement::Insert(s) => {
            return two_phase(
                catalog,
                held,
                &s.table,
                |table| collect_insert(catalog, snap, table, s, params, named_params),
                |table, rows| apply_insert(catalog, snap, table, rows, undo),
            )
        }
        Statement::Update(s) => (&s.table, s.where_clause.as_ref(), Some(&s.assignments[..])),
        Statement::Delete(s) => (&s.table, s.where_clause.as_ref(), None),
        _ => return Err(SqlError::Semantic("not an INSERT, UPDATE or DELETE".into())),
    };
    let mut eval = AstDml {
        catalog,
        snap,
        params,
        named_params,
        where_clause,
        set,
        schema: RowSchema::empty(),
        positions: Vec::new(),
    };
    run_dml(catalog, snap, held, name, &mut eval, undo)
}
