//! DDL execution: tables, indexes, sequences, stored procedures.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::*;
use crate::catalog::{Catalog, Procedure, Sequence, View};
use crate::error::{SqlError, SqlResult};
use crate::expr::{eval, EvalCtx};
use crate::schema::{Column, TableSchema};
use crate::storage::{Snapshot, Table};
use crate::txn::{UndoLog, UndoOp};
use crate::types::Value;

/// `CREATE TABLE`.
pub fn create_table(
    catalog: &mut Catalog,
    snap: &Snapshot,
    stmt: &CreateTableStmt,
    params: &[Value],
    undo: &mut UndoLog,
) -> SqlResult<bool> {
    if catalog.has_table(&stmt.name) {
        if stmt.if_not_exists {
            return Ok(false);
        }
        return Err(SqlError::AlreadyExists(format!("table '{}'", stmt.name)));
    }
    if catalog.has_view(&stmt.name) {
        return Err(SqlError::AlreadyExists(format!(
            "view '{}' (views and tables share a namespace)",
            stmt.name
        )));
    }
    let mut columns = Vec::with_capacity(stmt.columns.len());
    for c in &stmt.columns {
        let default = match &c.default {
            Some(e) => {
                let ctx = EvalCtx::constant(catalog, snap, params);
                let v = eval(e, &ctx)?;
                Some(v.coerce(c.ty).map_err(SqlError::Semantic)?)
            }
            None => None,
        };
        columns.push(Column {
            name: c.name.clone(),
            ty: c.ty,
            not_null: c.not_null,
            primary_key: c.primary_key,
            unique: c.unique,
            default,
        });
    }
    let schema = TableSchema::new(stmt.name.clone(), columns, stmt.temporary)?;
    let table = Table::new(schema, Arc::clone(catalog.mvcc()));
    catalog.add_table(table)?;
    undo.record(UndoOp::CreateTable {
        name: stmt.name.clone(),
    });
    Ok(true)
}

/// `DROP TABLE`.
pub fn drop_table(
    catalog: &mut Catalog,
    name: &str,
    if_exists: bool,
    undo: &mut UndoLog,
) -> SqlResult<bool> {
    if !catalog.has_table(name) {
        if if_exists {
            return Ok(false);
        }
        return Err(SqlError::NotFound(format!("table '{name}'")));
    }
    let table = catalog.remove_table(name)?;
    undo.record(UndoOp::DropTable {
        table: Box::new(table),
    });
    Ok(true)
}

/// `CREATE [UNIQUE] INDEX`.
pub fn create_index(
    catalog: &mut Catalog,
    name: &str,
    table: &str,
    columns: &[String],
    unique: bool,
    if_not_exists: bool,
    undo: &mut UndoLog,
) -> SqlResult<bool> {
    if catalog.index_table(name).is_some() {
        if if_not_exists {
            return Ok(false);
        }
        return Err(SqlError::AlreadyExists(format!("index '{name}'")));
    }
    let table_name = {
        let mut t = catalog.table_mut(table)?;
        t.create_index(name, columns, unique)?;
        t.schema.name.clone()
    };
    catalog.register_index(name, &table_name)?;
    undo.record(UndoOp::CreateIndex {
        table: table_name,
        index: name.to_string(),
    });
    Ok(true)
}

/// `DROP INDEX`.
pub fn drop_index(
    catalog: &mut Catalog,
    name: &str,
    if_exists: bool,
    undo: &mut UndoLog,
) -> SqlResult<bool> {
    let owner = match catalog.index_table(name) {
        Some(t) => t.to_string(),
        None => {
            if if_exists {
                return Ok(false);
            }
            return Err(SqlError::NotFound(format!("index '{name}'")));
        }
    };
    let index = catalog.table_mut(&owner)?.drop_index(name)?;
    catalog.unregister_index(name);
    undo.record(UndoOp::DropIndex {
        table: owner,
        index: Box::new(index),
    });
    Ok(true)
}

/// `CREATE SEQUENCE`.
pub fn create_sequence(
    catalog: &mut Catalog,
    name: &str,
    start: i64,
    increment: i64,
    if_not_exists: bool,
    undo: &mut UndoLog,
) -> SqlResult<bool> {
    if catalog.has_sequence(name) {
        if if_not_exists {
            return Ok(false);
        }
        return Err(SqlError::AlreadyExists(format!("sequence '{name}'")));
    }
    catalog.add_sequence(Sequence::new(name, start, increment))?;
    undo.record(UndoOp::CreateSequence {
        name: name.to_string(),
    });
    Ok(true)
}

/// `DROP SEQUENCE`.
pub fn drop_sequence(
    catalog: &mut Catalog,
    name: &str,
    if_exists: bool,
    undo: &mut UndoLog,
) -> SqlResult<bool> {
    if !catalog.has_sequence(name) {
        if if_exists {
            return Ok(false);
        }
        return Err(SqlError::NotFound(format!("sequence '{name}'")));
    }
    let seq = catalog.remove_sequence(name)?;
    undo.record(UndoOp::DropSequence { seq: Box::new(seq) });
    Ok(true)
}

/// `CREATE PROCEDURE`. Bodies may not contain transaction control — the
/// enclosing statement owns the transaction boundary (this mirrors how the
/// paper's *atomic SQL sequence* defines boundaries at the activity level).
pub fn create_procedure(
    catalog: &mut Catalog,
    stmt: &CreateProcedureStmt,
    undo: &mut UndoLog,
) -> SqlResult<()> {
    if catalog.has_procedure(&stmt.name) {
        return Err(SqlError::AlreadyExists(format!(
            "procedure '{}'",
            stmt.name
        )));
    }
    for s in &stmt.body {
        if matches!(
            s,
            Statement::Begin | Statement::Commit | Statement::Rollback
        ) {
            return Err(SqlError::Semantic(
                "transaction control is not allowed inside a procedure body".into(),
            ));
        }
        if matches!(s, Statement::CreateProcedure(_)) {
            return Err(SqlError::Semantic(
                "nested CREATE PROCEDURE is not allowed".into(),
            ));
        }
    }
    // Duplicate parameter names would make :name binding ambiguous.
    let mut seen = std::collections::HashSet::new();
    for p in &stmt.params {
        if !seen.insert(p.to_ascii_lowercase()) {
            return Err(SqlError::Semantic(format!(
                "duplicate procedure parameter '{p}'"
            )));
        }
    }
    catalog.add_procedure(Procedure::from(stmt.clone()))?;
    undo.record(UndoOp::CreateProcedure {
        name: stmt.name.clone(),
    });
    Ok(())
}

/// `DROP PROCEDURE`.
pub fn drop_procedure(
    catalog: &mut Catalog,
    name: &str,
    if_exists: bool,
    undo: &mut UndoLog,
) -> SqlResult<bool> {
    if !catalog.has_procedure(name) {
        if if_exists {
            return Ok(false);
        }
        return Err(SqlError::NotFound(format!("procedure '{name}'")));
    }
    let proc = catalog.remove_procedure(name)?;
    undo.record(UndoOp::DropProcedure {
        proc: Box::new(proc),
    });
    Ok(true)
}

/// `CREATE VIEW`. Names are unique across tables *and* views so that
/// `FROM name` resolution stays unambiguous.
pub fn create_view(
    catalog: &mut Catalog,
    name: &str,
    query: &crate::ast::SelectStmt,
    if_not_exists: bool,
    undo: &mut UndoLog,
) -> SqlResult<bool> {
    if catalog.has_view(name) {
        if if_not_exists {
            return Ok(false);
        }
        return Err(SqlError::AlreadyExists(format!("view '{name}'")));
    }
    if catalog.has_table(name) {
        return Err(SqlError::AlreadyExists(format!(
            "table '{name}' (views and tables share a namespace)"
        )));
    }
    catalog.add_view(View {
        name: name.to_string(),
        query: query.clone(),
    })?;
    undo.record(UndoOp::CreateView {
        name: name.to_string(),
    });
    Ok(true)
}

/// `DROP VIEW`.
pub fn drop_view(
    catalog: &mut Catalog,
    name: &str,
    if_exists: bool,
    undo: &mut UndoLog,
) -> SqlResult<bool> {
    if !catalog.has_view(name) {
        if if_exists {
            return Ok(false);
        }
        return Err(SqlError::NotFound(format!("view '{name}'")));
    }
    let view = catalog.remove_view(name)?;
    undo.record(UndoOp::DropView {
        view: Box::new(view),
    });
    Ok(true)
}

/// `CALL name(args…)`: bind arguments to the formals as named parameters,
/// run the body, and return the last result set (if any).
pub fn call_procedure(
    catalog: &mut Catalog,
    snap: &Snapshot,
    name: &str,
    args: &[Expr],
    params: &[Value],
    named_params: &HashMap<String, Value>,
    undo: &mut UndoLog,
) -> SqlResult<Option<crate::db::QueryResult>> {
    let proc = catalog.procedure(name)?.clone();
    if args.len() != proc.params.len() {
        return Err(SqlError::Semantic(format!(
            "procedure '{}' expects {} argument(s), got {}",
            proc.name,
            proc.params.len(),
            args.len()
        )));
    }
    // Evaluate arguments in the caller's context.
    let mut bound = HashMap::new();
    {
        let ctx = EvalCtx {
            catalog,
            snap,
            params,
            named_params,
            row: None,
            aggregates: None,
        };
        for (formal, actual) in proc.params.iter().zip(args) {
            bound.insert(formal.to_ascii_lowercase(), eval(actual, &ctx)?);
        }
    }
    let mut last_rows = None;
    for stmt in &proc.body {
        let r = super::execute(catalog, snap, stmt, &[], &bound, undo)?;
        if let crate::db::StatementResult::Rows(rs) = r {
            last_rows = Some(rs);
        }
    }
    Ok(last_rows)
}
