//! Error type shared by every layer of the engine.

use std::fmt;

/// Convenient alias used throughout the crate.
pub type SqlResult<T> = Result<T, SqlError>;

/// All the ways a SQL statement can fail, from lexing to execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// The lexer met a character sequence it cannot tokenize.
    Lex(String),
    /// The parser met an unexpected token.
    Parse(String),
    /// A referenced catalog object (table, column, procedure, …) does not exist.
    NotFound(String),
    /// An object with the same name already exists.
    AlreadyExists(String),
    /// The statement is well-formed but violates a semantic rule
    /// (type mismatch, wrong arity, aggregate misuse, …).
    Semantic(String),
    /// A constraint (primary key, NOT NULL) was violated at runtime.
    Constraint(String),
    /// Transaction control misuse (nested BEGIN, COMMIT without BEGIN, …).
    Txn(String),
    /// Host-parameter binding mismatch.
    Binding(String),
    /// Division by zero and other runtime evaluation failures.
    Runtime(String),
    /// The connection was refused (unknown database, provider restriction…).
    Connection(String),
    /// A transient infrastructure failure (connection reset, deadlock
    /// victim, serialization failure). The statement had no durable
    /// effect — its partial work was rolled back — so retrying the same
    /// statement is safe and is expected to eventually succeed.
    Transient(String),
    /// The process hosting the database "died" (crash fault injection).
    /// Unlike [`SqlError::Transient`], this is **not** retryable on the
    /// same handle: every subsequent statement fails the same way until
    /// the database is re-opened from its log via recovery.
    Crashed(String),
    /// A log or page store written in a format this build does not read.
    /// The message names the store and the format version it declares
    /// ([`SqlError::unsupported_format`]). Not corruption: nothing is
    /// repaired or truncated, the store is left as it is.
    UnsupportedFormat(String),
}

impl SqlError {
    /// The error for a `what` store (`"log"` or `"page"`) that declares
    /// format `version`.
    pub fn unsupported_format(what: &str, version: u32) -> SqlError {
        SqlError::UnsupportedFormat(format!("{what} format version {version}"))
    }

    /// A short machine-readable class name, handy for assertions in tests.
    pub fn class(&self) -> &'static str {
        match self {
            SqlError::Lex(_) => "lex",
            SqlError::Parse(_) => "parse",
            SqlError::NotFound(_) => "not_found",
            SqlError::AlreadyExists(_) => "already_exists",
            SqlError::Semantic(_) => "semantic",
            SqlError::Constraint(_) => "constraint",
            SqlError::Txn(_) => "txn",
            SqlError::Binding(_) => "binding",
            SqlError::Runtime(_) => "runtime",
            SqlError::Connection(_) => "connection",
            SqlError::Transient(_) => "transient",
            SqlError::Crashed(_) => "crashed",
            SqlError::UnsupportedFormat(_) => "unsupported_format",
        }
    }

    /// Is this error safe to retry? Only [`SqlError::Transient`] failures
    /// qualify: everything else (constraint violations, parse errors, …)
    /// is deterministic and would fail again identically.
    pub fn is_transient(&self) -> bool {
        matches!(self, SqlError::Transient(_))
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lex error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::NotFound(m) => write!(f, "not found: {m}"),
            SqlError::AlreadyExists(m) => write!(f, "already exists: {m}"),
            SqlError::Semantic(m) => write!(f, "semantic error: {m}"),
            SqlError::Constraint(m) => write!(f, "constraint violation: {m}"),
            SqlError::Txn(m) => write!(f, "transaction error: {m}"),
            SqlError::Binding(m) => write!(f, "binding error: {m}"),
            SqlError::Runtime(m) => write!(f, "runtime error: {m}"),
            SqlError::Connection(m) => write!(f, "connection error: {m}"),
            SqlError::Transient(m) => write!(f, "transient error: {m}"),
            SqlError::Crashed(m) => write!(f, "crashed: {m}"),
            SqlError::UnsupportedFormat(m) => write!(f, "unsupported format: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = SqlError::Parse("unexpected FROM".into());
        assert!(e.to_string().contains("unexpected FROM"));
        assert_eq!(e.class(), "parse");
    }

    #[test]
    fn classes_are_distinct() {
        let all = [
            SqlError::Lex(String::new()),
            SqlError::Parse(String::new()),
            SqlError::NotFound(String::new()),
            SqlError::AlreadyExists(String::new()),
            SqlError::Semantic(String::new()),
            SqlError::Constraint(String::new()),
            SqlError::Txn(String::new()),
            SqlError::Binding(String::new()),
            SqlError::Runtime(String::new()),
            SqlError::Connection(String::new()),
            SqlError::Transient(String::new()),
            SqlError::Crashed(String::new()),
            SqlError::UnsupportedFormat(String::new()),
        ];
        let mut classes: Vec<_> = all.iter().map(|e| e.class()).collect();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes.len(), all.len());
    }
}
