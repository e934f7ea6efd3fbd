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

use crate::ast::Statement;
use crate::catalog::Catalog;
use crate::counters::Counter;
use crate::db::StatementResult;
use crate::error::{SqlError, SqlResult};
use crate::storage::{IndexCursor, RowId, Snapshot, SortKey, StoredRow, Table, Walk};
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
    /// (`(value, inclusive)`, `None` = unbounded); with neither bound,
    /// the whole index, NULL keys included in their sort position.
    /// `order` is `Some(desc)` when the statement's ORDER BY is this key
    /// order, descending when `desc`; `None` when nothing asks for it.
    Range {
        col: usize,
        lower: Option<(Value, bool)>,
        upper: Option<(Value, bool)>,
        order: Option<bool>,
    },
}

impl Probe {
    /// The rows the probe selects, resolved through `snap`, in ascending
    /// row id unless the ORDER BY decides (ADR 0003, rule a): a full walk
    /// and a point lookup yield row id order as they go; a range walk
    /// yields key order, row ids ascending within a key (see
    /// [`IndexCursor`]), when its `order` is the ORDER BY's, and is
    /// otherwise gathered and re-sorted to row id order — so an index
    /// never decides the order of a result. Ticks `full_scans`,
    /// `index_scans` or `range_scans` now, and a full walk's
    /// `full_scan_rows` (the rows it yielded) when it is dropped.
    pub(crate) fn rows<'t, 'a>(
        self,
        catalog: &'a Catalog,
        snap: &'a Snapshot,
        table: &'t Table,
    ) -> ProbeRows<'t, 'a> {
        let index = |col: usize| table.find_index(&[col]).expect("probe implies index");
        match self {
            Probe::Full => {
                catalog.count(Counter::FullScans, 1);
                ProbeRows::Full {
                    walk: table.iter(snap),
                    catalog,
                    yielded: 0,
                }
            }
            Probe::Eq { col, key } => {
                catalog.count(Counter::IndexScans, 1);
                ProbeRows::Index(table.index_eq(snap, index(col), &SortKey(vec![key])))
            }
            Probe::Range {
                col,
                lower,
                upper,
                order,
            } => {
                catalog.count(Counter::RangeScans, 1);
                let walk = table.index_range(
                    snap,
                    index(col),
                    lower.as_ref().map(|(v, i)| (v, *i)),
                    upper.as_ref().map(|(v, i)| (v, *i)),
                    order == Some(true),
                    lower.is_none() && upper.is_none(),
                );
                if order.is_some() {
                    return ProbeRows::Index(walk);
                }
                let mut hits: Vec<_> = walk.collect();
                hits.sort_unstable_by_key(|(id, _)| *id);
                ProbeRows::Sorted(hits.into_iter())
            }
        }
    }
}

/// The lazy walk [`Probe::rows`] returns.
pub(crate) enum ProbeRows<'t, 'a> {
    Full {
        walk: Walk<'t, 'a>,
        catalog: &'a Catalog,
        yielded: u64,
    },
    Index(IndexCursor<'t, 'a>),
    /// A range walk re-sorted to row id order.
    Sorted(std::vec::IntoIter<(RowId, &'t StoredRow)>),
}

impl<'t> Iterator for ProbeRows<'t, '_> {
    type Item = (RowId, &'t StoredRow);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            ProbeRows::Full { walk, yielded, .. } => {
                let next = walk.next();
                *yielded += next.is_some() as u64;
                next
            }
            ProbeRows::Index(cursor) => cursor.next(),
            ProbeRows::Sorted(hits) => hits.next(),
        }
    }
}

impl Drop for ProbeRows<'_, '_> {
    fn drop(&mut self) {
        if let ProbeRows::Full {
            catalog, yielded, ..
        } = self
        {
            catalog.count(Counter::FullScanRows, *yielded);
        }
    }
}

/// Execute one statement under `snap`. `params` are `?` host parameters,
/// `named_params` are `:name` bindings (lower-cased keys; used inside
/// procedure bodies).
pub fn execute(
    catalog: &mut Catalog,
    snap: &Snapshot,
    stmt: &Statement,
    params: &[Value],
    named_params: &HashMap<String, Value>,
    undo: &mut UndoLog,
) -> SqlResult<StatementResult> {
    match stmt {
        Statement::Select(s) => {
            let rs = select::run_select(catalog, snap, s, params, named_params)?;
            Ok(StatementResult::Rows(rs))
        }
        Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
            let n = dml::run_write(catalog, snap, None, stmt, params, named_params, undo)?;
            Ok(StatementResult::Affected(n))
        }
        Statement::CreateTable(s) => {
            ddl::create_table(catalog, snap, s, params, undo)?;
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
            let rows = ddl::call_procedure(catalog, snap, name, args, params, named_params, undo)?;
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
