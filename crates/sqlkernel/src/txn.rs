//! Undo-log based transactions.
//!
//! Every mutating statement records compensation entries into an
//! [`UndoLog`]. Rolling back applies the entries in reverse. Two logs are
//! in play per statement: a *statement log* that guarantees statement
//! atomicity even in auto-commit mode (a failed multi-row `INSERT` leaves
//! nothing behind), and — inside an explicit transaction — the
//! *transaction log* the statement log is folded into on success.
//!
//! Concurrency note: statements run under MVCC snapshots (see
//! `storage.rs`): an open transaction's writes are versions stamped with
//! its [`TxnStamp`] and stay invisible to other connections until COMMIT
//! publishes the commit timestamp. Every log carries that stamp, so it
//! rolls row ops back surgically — `Table::undo_write` removes exactly
//! the version this transaction pushed, leaving versions other
//! transactions stacked above or below untouched.
//! (WAL recovery never builds an `UndoLog`: it undoes losers from the
//! log's own before-images.)

use std::sync::Arc;

use crate::catalog::{Catalog, Procedure, Sequence, View};
use crate::schema::TableSchema;
use crate::storage::{Index, RowId, StoredRow, Table, TxnStamp};

/// One compensation entry.
///
/// A row entry names its table by the table's shared schema and holds
/// the row images the write installed or superseded, shared with the
/// table's chain: the WAL frames its redo record straight from the
/// entry, with no catalog lookup and no row copy. The rare DDL entries
/// that carry whole objects are boxed, so a row entry stays narrow.
#[derive(Debug)]
pub enum UndoOp {
    /// A row was inserted → undo deletes it. `row` is the inserted
    /// version itself.
    Insert {
        table: Arc<TableSchema>,
        row_id: RowId,
        row: StoredRow,
    },
    /// A row was deleted → undo restores it. `row` is the deleted
    /// version itself, shared with the table's chain.
    Delete {
        table: Arc<TableSchema>,
        row_id: RowId,
        row: StoredRow,
    },
    /// A row was updated → undo restores the old image. `old` is the
    /// superseded version and `new` the version the update installed,
    /// both shared with the table's chain.
    Update {
        table: Arc<TableSchema>,
        row_id: RowId,
        old: StoredRow,
        new: StoredRow,
    },
    /// A table was created → undo drops it.
    CreateTable { name: String },
    /// A table was dropped → undo restores it wholesale.
    DropTable { table: Box<Table> },
    /// An index was created → undo drops it.
    CreateIndex { table: String, index: String },
    /// An index was dropped → undo re-attaches it.
    DropIndex { table: String, index: Box<Index> },
    /// A sequence was created → undo removes it.
    CreateSequence { name: String },
    /// A `NEXTVAL` draw by a statement that later joined this log → undo
    /// gives the value back (CAS-guarded: skipped if a later draw
    /// intervened), so a rolled-back transaction's retry redraws it.
    SequenceDraw { name: String, drawn: i64 },
    /// A sequence was dropped → undo restores it (current value included).
    DropSequence { seq: Box<Sequence> },
    /// A procedure was created → undo removes it.
    CreateProcedure { name: String },
    /// A procedure was dropped → undo restores it.
    DropProcedure { proc: Box<Procedure> },
    /// A view was created → undo removes it.
    CreateView { name: String },
    /// A view was dropped → undo restores it.
    DropView { view: Box<View> },
}

/// An ordered list of compensation entries.
#[derive(Debug)]
pub struct UndoLog {
    ops: Vec<UndoOp>,
    /// The version stamp this log's row writes carry; rollback removes
    /// exactly the versions stamped with it.
    stamp: TxnStamp,
}

impl UndoLog {
    /// Empty log whose row writes are stamped with `stamp`.
    pub fn new(stamp: TxnStamp) -> UndoLog {
        UndoLog {
            ops: Vec::new(),
            stamp,
        }
    }

    /// Record one entry.
    pub fn record(&mut self, op: UndoOp) {
        self.ops.push(op);
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Any entries recorded?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded entries in apply order — the WAL derives its redo
    /// records from a successful statement's scratch log.
    pub fn ops(&self) -> &[UndoOp] {
        &self.ops
    }

    /// Fold `other` into this log (statement commit inside a transaction).
    pub fn absorb(&mut self, other: UndoLog) {
        self.ops.extend(other.ops);
    }

    /// Roll back a statement log whose entries are all row operations on
    /// the caller's held table — the fast path's rollback, which must not
    /// re-enter the catalog's table map while its guard is held. Non-row
    /// entries cannot occur on that path (DDL never takes it).
    pub fn rollback_on_table(self, table: &mut Table) {
        let stamp = &self.stamp;
        for op in self.ops.into_iter().rev() {
            match op {
                UndoOp::Insert { row_id, .. }
                | UndoOp::Delete { row_id, .. }
                | UndoOp::Update { row_id, .. } => table.undo_write(row_id, stamp),
                _ => debug_assert!(false, "fast-path undo log holds only row ops"),
            }
        }
    }

    /// Apply all entries in reverse, restoring the pre-log state.
    ///
    /// Undo application is infallible by construction: every entry restores
    /// state that was valid when recorded, and reverse order re-establishes
    /// the intermediate states exactly. Failures (which would indicate
    /// corruption) are ignored rather than panicking.
    pub fn rollback(self, catalog: &mut Catalog) {
        let stamp = &self.stamp;
        for op in self.ops.into_iter().rev() {
            match op {
                UndoOp::Insert { table, row_id, .. }
                | UndoOp::Delete { table, row_id, .. }
                | UndoOp::Update { table, row_id, .. } => {
                    if let Ok(mut t) = catalog.table_mut(&table.name) {
                        t.undo_write(row_id, stamp);
                    }
                }
                UndoOp::CreateTable { name } => {
                    let _ = catalog.remove_table(&name);
                }
                UndoOp::DropTable { table } => {
                    let name = table.schema.name.clone();
                    let index_names = table.index_names();
                    if catalog.add_table(*table).is_ok() {
                        for idx in index_names {
                            // pk/unique backing indexes were never registered;
                            // re-registering is idempotent-by-ignore here.
                            let _ = catalog.register_index(&idx, &name);
                        }
                    }
                }
                UndoOp::CreateIndex { table, index } => {
                    catalog.unregister_index(&index);
                    if let Ok(mut t) = catalog.table_mut(&table) {
                        let _ = t.drop_index(&index);
                    }
                }
                UndoOp::DropIndex { table, index } => {
                    let _ = catalog.register_index(&index.name, &table);
                    if let Ok(mut t) = catalog.table_mut(&table) {
                        t.restore_index(*index);
                    }
                }
                UndoOp::CreateSequence { name } => {
                    let _ = catalog.remove_sequence(&name);
                }
                UndoOp::SequenceDraw { name, drawn } => {
                    if let Ok(seq) = catalog.sequence(&name) {
                        let _ = seq.undo_draw(drawn);
                    }
                }
                UndoOp::DropSequence { seq } => {
                    let _ = catalog.add_sequence(*seq);
                }
                UndoOp::CreateProcedure { name } => {
                    let _ = catalog.remove_procedure(&name);
                }
                UndoOp::DropProcedure { proc } => {
                    let _ = catalog.add_procedure(*proc);
                }
                UndoOp::CreateView { name } => {
                    let _ = catalog.remove_view(&name);
                }
                UndoOp::DropView { view } => {
                    let _ = catalog.add_view(*view);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::schema::{Column, TableSchema};
    use crate::storage::{new_stamp, Snapshot};
    use crate::types::{DataType, Value};

    fn catalog_with_table() -> Catalog {
        let mut c = Catalog::new();
        let schema = TableSchema::new(
            "t",
            vec![
                {
                    let mut col = Column::new("id", DataType::Int);
                    col.primary_key = true;
                    col
                },
                Column::new("v", DataType::Text),
            ],
            false,
        )
        .unwrap();
        c.add_table(Table::new(schema, Default::default())).unwrap();
        c
    }

    /// An open transaction: a snapshot with a fresh (uncommitted) stamp
    /// and an empty undo log carrying the same stamp.
    fn txn() -> (Snapshot, UndoLog) {
        let stamp = new_stamp();
        let log = UndoLog::new(Arc::clone(&stamp));
        (Snapshot { ts: 1, stamp }, log)
    }

    /// Insert one committed row (the state a transaction starts from).
    fn committed_row(c: &mut Catalog, v: &str) -> RowId {
        c.table_mut("t")
            .unwrap()
            .insert(&Snapshot::committed(), vec![Value::Int(1), Value::text(v)])
            .unwrap()
            .0
    }

    #[test]
    fn rollback_insert() {
        let mut c = catalog_with_table();
        let (snap, mut log) = txn();
        let mut t = c.table_mut("t").unwrap();
        let (row_id, row) = t
            .insert(&snap, vec![Value::Int(1), Value::text("a")])
            .unwrap();
        log.record(UndoOp::Insert {
            table: Arc::clone(&t.schema),
            row_id,
            row,
        });
        drop(t);
        log.rollback(&mut c);
        assert_eq!(c.table("t").unwrap().len(), 0);
        assert_eq!(c.table("t").unwrap().version_count(), 0);
    }

    #[test]
    fn rollback_delete_restores_row() {
        let mut c = catalog_with_table();
        let id = committed_row(&mut c, "a");
        let (snap, mut log) = txn();
        let mut t = c.table_mut("t").unwrap();
        let row = t.delete(&snap, id).unwrap();
        log.record(UndoOp::Delete {
            table: Arc::clone(&t.schema),
            row_id: id,
            row,
        });
        drop(t);
        log.rollback(&mut c);
        let t = c.table("t").unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::text("a"));
        assert_eq!(t.version_count(), 1);
    }

    #[test]
    fn rollback_update_restores_old_image() {
        let mut c = catalog_with_table();
        let id = committed_row(&mut c, "old");
        let (snap, mut log) = txn();
        let mut t = c.table_mut("t").unwrap();
        let (old, new) = t
            .update(&snap, id, vec![Value::Int(1), Value::text("new")])
            .unwrap();
        // The entry shares the installed version with the chain.
        assert!(Arc::ptr_eq(&new, t.get(id).unwrap()));
        log.record(UndoOp::Update {
            table: Arc::clone(&t.schema),
            row_id: id,
            old,
            new,
        });
        drop(t);
        log.rollback(&mut c);
        assert_eq!(
            c.table("t").unwrap().get(id).unwrap()[1],
            Value::text("old")
        );
    }

    #[test]
    fn rollback_reverses_in_order() {
        // insert then update then delete of the same row rolls back cleanly.
        let mut c = catalog_with_table();
        let (snap, mut log) = txn();
        let mut t = c.table_mut("t").unwrap();
        let (id, row) = t
            .insert(&snap, vec![Value::Int(9), Value::text("x")])
            .unwrap();
        log.record(UndoOp::Insert {
            table: Arc::clone(&t.schema),
            row_id: id,
            row,
        });
        let (old, new) = t
            .update(&snap, id, vec![Value::Int(9), Value::text("y")])
            .unwrap();
        log.record(UndoOp::Update {
            table: Arc::clone(&t.schema),
            row_id: id,
            old,
            new,
        });
        let row = t.delete(&snap, id).unwrap();
        log.record(UndoOp::Delete {
            table: Arc::clone(&t.schema),
            row_id: id,
            row,
        });
        drop(t);
        log.rollback(&mut c);
        assert_eq!(c.table("t").unwrap().len(), 0);
        assert_eq!(c.table("t").unwrap().version_count(), 0);
    }

    #[test]
    fn rollback_on_table_leaves_other_writers_versions() {
        // The held-guard rollback removes only its own stamp's versions.
        let mut c = catalog_with_table();
        let id = committed_row(&mut c, "base");
        let (other, _other_log) = txn();
        let (snap, mut log) = txn();
        let mut t = c.table_mut("t").unwrap();
        let (mine, row) = t
            .insert(&snap, vec![Value::Int(2), Value::text("mine")])
            .unwrap();
        log.record(UndoOp::Insert {
            table: Arc::clone(&t.schema),
            row_id: mine,
            row,
        });
        t.update(&other, id, vec![Value::Int(1), Value::text("theirs")])
            .unwrap();
        log.rollback_on_table(&mut t);
        assert!(t.get(mine).is_none());
        assert_eq!(t.get(id).unwrap()[1], Value::text("theirs"));
        assert_eq!(t.version_count(), 2);
    }

    #[test]
    fn row_entries_stay_narrow() {
        // Boxed DDL payloads keep an entry at two `String`s and a tag,
        // not the width of a whole `Table`.
        assert!(std::mem::size_of::<UndoOp>() <= 56);
    }

    #[test]
    fn rollback_ddl() {
        let mut c = Catalog::new();
        let (_, mut log) = txn();
        let schema = TableSchema::new("n", vec![Column::new("a", DataType::Int)], false).unwrap();
        c.add_table(Table::new(schema, Default::default())).unwrap();
        log.record(UndoOp::CreateTable { name: "n".into() });
        c.add_sequence(Sequence::new("s", 1, 1)).unwrap();
        log.record(UndoOp::CreateSequence { name: "s".into() });
        log.rollback(&mut c);
        assert!(!c.has_table("n"));
        assert!(!c.has_sequence("s"));
    }

    #[test]
    fn rollback_drop_table_restores_contents() {
        let mut c = catalog_with_table();
        committed_row(&mut c, "keep");
        let (_, mut log) = txn();
        let table = Box::new(c.remove_table("t").unwrap());
        log.record(UndoOp::DropTable { table });
        log.rollback(&mut c);
        assert_eq!(c.table("t").unwrap().len(), 1);
    }

    #[test]
    fn absorb_concatenates() {
        let (_, mut a) = txn();
        a.record(UndoOp::CreateTable { name: "x".into() });
        let (_, mut b) = txn();
        b.record(UndoOp::CreateTable { name: "y".into() });
        a.absorb(b);
        assert_eq!(a.len(), 2);
    }
}
