//! Statement execution dispatcher.
//!
//! [`execute`] runs one non-transaction-control statement against a
//! catalog, recording undo entries as it goes. Transaction control
//! (`BEGIN`/`COMMIT`/`ROLLBACK`) is owned by [`crate::db::Connection`],
//! which also provides statement-level atomicity by rolling the statement
//! undo log back on error.

pub mod batch;
pub mod ddl;
pub mod dml;
pub mod select;

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::db::StatementResult;
use crate::error::{SqlError, SqlResult};
use crate::storage::{Row, RowId, SortKey, Table};
use crate::txn::UndoLog;
use crate::types::Value;

/// A single-table access path with its keys evaluated for one execution
/// — what every executor's scan starts from.
#[derive(Debug)]
pub(crate) enum Probe {
    /// Walk the whole table in row id order.
    Full,
    /// Point lookup of `key` on the single-column index over `col`.
    Eq { col: usize, key: Value },
    /// Walk of the single-column index over `col` between the bounds
    /// (`(value, inclusive)`, `None` = unbounded), backwards when `rev`;
    /// NULL keys only when `nulls` (a pure ORDER BY walk).
    Range {
        col: usize,
        lower: Option<(Value, bool)>,
        upper: Option<(Value, bool)>,
        rev: bool,
        nulls: bool,
    },
}

impl Probe {
    /// The rows an index probe selects, in key order (row ids ascending
    /// within a key), resolved through the installed snapshot — an entry
    /// whose visible version no longer carries its key is skipped. Ticks
    /// `index_scans` or `range_scans`. Callers walk `Full` probes
    /// themselves.
    pub(crate) fn index_entries<'t>(
        self,
        catalog: &Catalog,
        table: &'t Table,
    ) -> Vec<(RowId, &'t Arc<Row>)> {
        let index = |col: usize| table.find_index(&[col]).expect("probe implies index");
        match self {
            Probe::Full => unreachable!("full scans walk the table"),
            Probe::Eq { col, key } => {
                catalog.note_index_scan();
                // `col = NULL` is never true.
                if key.is_null() {
                    return Vec::new();
                }
                table.index_eq_entries(index(col), &SortKey(vec![key]))
            }
            Probe::Range {
                col,
                lower,
                upper,
                rev,
                nulls,
            } => {
                catalog.note_range_scan();
                table.index_range_entries(
                    index(col),
                    lower.as_ref().map(|(v, i)| (v, *i)),
                    upper.as_ref().map(|(v, i)| (v, *i)),
                    rev,
                    nulls,
                )
            }
        }
    }
}

/// Execute one statement. `params` are `?` host parameters, `named_params`
/// are `:name` bindings (lower-cased keys; used inside procedure bodies).
pub fn execute(
    catalog: &mut Catalog,
    stmt: &Statement,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    undo: &mut UndoLog,
) -> SqlResult<StatementResult> {
    match stmt {
        Statement::Select(s) => {
            let rs = select::run_select(catalog, s, params, named_params)?;
            Ok(StatementResult::Rows(rs))
        }
        Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
            let n = dml::run_write(catalog, None, stmt, params, named_params, undo)?;
            Ok(StatementResult::Affected(n))
        }
        Statement::CreateTable(s) => {
            ddl::create_table(catalog, s, params, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropTable { name, if_exists } => {
            ddl::drop_table(catalog, name, *if_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::CreateIndex {
            name,
            table,
            columns,
            unique,
            if_not_exists,
        } => {
            ddl::create_index(catalog, name, table, columns, *unique, *if_not_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropIndex { name, if_exists } => {
            ddl::drop_index(catalog, name, *if_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::CreateSequence {
            name,
            start,
            increment,
            if_not_exists,
        } => {
            ddl::create_sequence(catalog, name, *start, *increment, *if_not_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropSequence { name, if_exists } => {
            ddl::drop_sequence(catalog, name, *if_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::CreateProcedure(s) => {
            ddl::create_procedure(catalog, s, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropProcedure { name, if_exists } => {
            ddl::drop_procedure(catalog, name, *if_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::CreateView {
            name,
            if_not_exists,
            query,
        } => {
            ddl::create_view(catalog, name, query, *if_not_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::DropView { name, if_exists } => {
            ddl::drop_view(catalog, name, *if_exists, undo)?;
            Ok(StatementResult::Ddl)
        }
        Statement::Call { name, args } => {
            let rows = ddl::call_procedure(catalog, name, args, params, named_params, undo)?;
            match rows {
                Some(rs) => Ok(StatementResult::Rows(rs)),
                None => Ok(StatementResult::Affected(0)),
            }
        }
        Statement::Begin | Statement::Commit | Statement::Rollback => Err(SqlError::Txn(
            "transaction control must go through a connection".into(),
        )),
    }
}
