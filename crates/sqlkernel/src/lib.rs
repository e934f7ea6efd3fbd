//! `sqlkernel` — an embeddable, in-memory relational database engine.
//!
//! This crate is the data-management substrate of the *flowsql* workspace.
//! The workflow-product survey reproduced by this repository evaluates how
//! workflow languages embed SQL; to do that credibly we need a real SQL
//! engine underneath. `sqlkernel` provides:
//!
//! * a SQL lexer/parser covering queries (joins, grouping, ordering,
//!   subqueries in `FROM`), DML (`INSERT`/`UPDATE`/`DELETE`), DDL
//!   (`CREATE`/`DROP` for tables, indexes, sequences, and stored
//!   procedures), `CALL`, and transaction control;
//! * a tree-walking executor with hash joins, grouped aggregation,
//!   sorting, and secondary index maintenance;
//! * connection-scoped transactions backed by an undo log;
//! * prepared statements with `?` host parameters — the mechanism all
//!   three workflow stacks in the paper use to pass scalar process
//!   variables into SQL;
//! * stored procedures and sequences (needed by Oracle-style
//!   `sequence-next-val` and the Stored Procedure pattern);
//! * named temporary *result-set tables*, the server-side half of IBM
//!   BIS-style result-set references.
//!
//! # Quickstart
//!
//! ```
//! use sqlkernel::Database;
//!
//! let db = Database::new("orders_db");
//! let conn = db.connect();
//! conn.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)", &[]).unwrap();
//! conn.execute("INSERT INTO t VALUES (1, 'widget'), (2, 'gadget')", &[]).unwrap();
//! let rs = conn.query("SELECT name FROM t WHERE id = ?", &[1i64.into()]).unwrap();
//! assert_eq!(rs.rows[0][0], sqlkernel::Value::text("widget"));
//! ```

pub mod ast;
pub mod bound;
pub mod catalog;
mod counters;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fault;
pub mod lexer;
pub mod page;
pub mod pager;
pub mod parser;
pub mod plan;
pub mod schema;
pub mod shard;
pub mod storage;
pub mod sync;
pub mod token;
pub mod txn;
pub mod types;
pub mod wal;

pub use db::{Connection, Database, DbStats, Prepared, QueryResult, StatementResult};
pub use error::{SqlError, SqlResult};
pub use fault::{
    crashed_error, CrashPoint, Fault, FaultInjector, FaultPlan, PageFault, PrepareCrash,
    SplitMix64, TransientKind,
};
pub use page::{PageKind, PAGE_SIZE};
pub use pager::{FilePageStore, MemPageStore, PageStore, PagedEngine, Pager};
pub use schema::{Column, TableSchema};
pub use shard::{shard_of, CrossShardTxn, ShardedDatabase};
pub use types::{DataType, Value};
pub use wal::{FileLogStore, InDoubtTxn, LogStore, MemLogStore};

/// The error type the database layer surfaces — an alias for
/// [`SqlError`], under the name the workflow stacks use when talking
/// about connection/registry failures rather than SQL ones.
pub type DbError = SqlError;
