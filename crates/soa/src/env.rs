//! The SOA Suite runtime environment: static connection strings resolved
//! against the BPEL server's data source directory.

use std::collections::HashMap;

use flowcore::{ActivityContext, FlowError, FlowResult, ProcessDefinition};
use sqlkernel::Database;

/// Connection-string prefix (Oracle thin-driver style).
pub const SCHEME: &str = "jdbc:oracle:thin:@";

/// Build a connection string.
pub fn connection_string(db_name: &str) -> String {
    format!("{SCHEME}{db_name}")
}

/// Parse a connection string.
pub fn parse_connection_string(s: &str) -> FlowResult<&str> {
    s.strip_prefix(SCHEME).ok_or_else(|| {
        FlowError::Variable(format!(
            "'{s}' is not a valid connection string (expected {SCHEME}<database>)"
        ))
    })
}

/// The database directory of the BPEL server.
#[derive(Debug, Clone, Default)]
pub struct SoaEnvironment {
    databases: HashMap<String, Database>,
}

impl SoaEnvironment {
    /// Empty environment.
    pub fn new() -> SoaEnvironment {
        SoaEnvironment::default()
    }

    /// Register a database.
    pub fn with_database(mut self, db: Database) -> SoaEnvironment {
        self.databases.insert(db.name().to_string(), db);
        self
    }

    /// Resolve a static connection string. Names missing from the
    /// server directory fall back to the process-wide shared handle
    /// registry ([`Database::lookup`]) — never creating, so unknown
    /// names still fail.
    pub fn resolve(&self, conn_string: &str) -> FlowResult<Database> {
        let name = parse_connection_string(conn_string)?;
        if let Some(db) = self.databases.get(name) {
            return Ok(db.clone());
        }
        Database::lookup(name)
            .ok_or_else(|| FlowError::Variable(format!("unknown database '{name}'")))
    }

    /// Install into a process definition (setup hook).
    pub fn install(self, def: ProcessDefinition) -> ProcessDefinition {
        let env = self;
        def.with_setup(move |ctx| {
            ctx.extensions.insert(env.clone());
            Ok(())
        })
    }
}

/// Fetch the environment from the instance extensions.
pub fn env_of<'a>(ctx: &'a ActivityContext<'_>) -> FlowResult<&'a SoaEnvironment> {
    ctx.extensions
        .get::<SoaEnvironment>()
        .ok_or_else(|| FlowError::Definition("SOA environment not installed".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_strings() {
        let s = connection_string("orders_db");
        assert_eq!(s, "jdbc:oracle:thin:@orders_db");
        assert_eq!(parse_connection_string(&s).unwrap(), "orders_db");
        assert!(parse_connection_string("sqlkernel://x").is_err());
    }

    #[test]
    fn resolution() {
        let env = SoaEnvironment::new().with_database(Database::new("d"));
        assert_eq!(env.resolve("jdbc:oracle:thin:@d").unwrap().name(), "d");
        assert!(env.resolve("jdbc:oracle:thin:@x").is_err());
    }
}
