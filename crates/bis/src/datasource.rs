//! Data source variables and dynamic binding (Sec. III-B).
//!
//! IBM's signature capability: *“WID provides data source variables that
//! hold the connection string to refer to a database system. […] This
//! allows to dynamically switch between different databases without
//! re-deploying the process.”* Binding happens either at deployment time
//! or at runtime (an assign overwriting the connection string).

use std::collections::HashMap;

use flowcore::retry::RetryRuntime;
use flowcore::{ActivityContext, FlowError, FlowResult};
use sqlkernel::{Connection, Database};

/// Connection-string scheme used by the whole workspace.
pub const SCHEME: &str = "sqlkernel://";

/// Build a connection string for a database name.
pub fn connection_string(db_name: &str) -> String {
    format!("{SCHEME}{db_name}")
}

/// Parse a connection string back to a database name.
pub fn parse_connection_string(s: &str) -> FlowResult<&str> {
    s.strip_prefix(SCHEME).ok_or_else(|| {
        FlowError::Variable(format!(
            "'{s}' is not a valid connection string (expected {SCHEME}<database>)"
        ))
    })
}

/// The set of reachable database systems, keyed by name. Plays the role
/// of the JNDI / data-source directory a WPS installation would provide.
#[derive(Debug, Clone, Default)]
pub struct DataSourceRegistry {
    databases: HashMap<String, Database>,
}

impl DataSourceRegistry {
    /// Empty registry.
    pub fn new() -> DataSourceRegistry {
        DataSourceRegistry::default()
    }

    /// Register a database.
    pub fn add(&mut self, db: Database) {
        self.databases.insert(db.name().to_string(), db);
    }

    /// Builder form of [`DataSourceRegistry::add`].
    pub fn with(mut self, db: Database) -> DataSourceRegistry {
        self.add(db);
        self
    }

    /// Resolve a connection string to a database. Names missing from
    /// the local directory fall back to the process-wide shared handle
    /// registry ([`Database::lookup`]), so a database another component
    /// published with [`Database::publish`] is reachable without
    /// re-registering it here. The fallback never creates: unknown names
    /// still fail.
    pub fn resolve(&self, conn_string: &str) -> FlowResult<Database> {
        let name = parse_connection_string(conn_string)?;
        if let Some(db) = self.databases.get(name) {
            return Ok(db.clone());
        }
        Database::lookup(name)
            .ok_or_else(|| FlowError::Variable(format!("unknown data source '{name}'")))
    }

    /// Registered database names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.databases.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

/// Per-instance BIS runtime state, installed into the context extensions
/// by [`crate::deployment::BisDeployment`].
pub struct BisRuntime {
    /// The reachable data sources.
    pub registry: DataSourceRegistry,
    /// Open transactional connections, keyed by database name — present
    /// only inside an atomic SQL sequence (or for the whole instance in
    /// short-running mode).
    pub atomic_connections: HashMap<String, Connection>,
    /// Is an atomic scope currently active?
    pub atomic_active: bool,
    /// Result-set tables created for this instance: `(database, table)`
    /// pairs dropped at cleanup.
    pub result_tables: Vec<(String, String)>,
    /// The recovery layer: when configured by the deployment, every SQL
    /// sent to a data source runs under this retry policy and its
    /// per-database circuit breakers.
    pub retry: Option<RetryRuntime>,
}

impl BisRuntime {
    /// Fresh runtime around a registry.
    pub fn new(registry: DataSourceRegistry) -> BisRuntime {
        BisRuntime {
            registry,
            atomic_connections: HashMap::new(),
            atomic_active: false,
            result_tables: Vec::new(),
            retry: None,
        }
    }
}

/// Read a data source variable and resolve it against the instance
/// runtime. The variable holds the connection string as a scalar — which
/// is exactly what makes runtime re-binding a plain assign.
pub fn resolve_data_source(
    ctx: &ActivityContext<'_>,
    data_source_var: &str,
) -> FlowResult<Database> {
    let conn_string = ctx
        .variables
        .require_scalar(data_source_var)?
        .as_str()
        .ok_or_else(|| {
            FlowError::Variable(format!(
                "data source variable '{data_source_var}' must hold a connection string"
            ))
        })?
        .to_string();
    let runtime = ctx
        .extensions
        .get::<BisRuntime>()
        .ok_or_else(|| FlowError::Definition("BIS runtime not installed".into()))?;
    runtime.registry.resolve(&conn_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_string_round_trip() {
        let s = connection_string("orders_db");
        assert_eq!(s, "sqlkernel://orders_db");
        assert_eq!(parse_connection_string(&s).unwrap(), "orders_db");
        assert!(parse_connection_string("jdbc:db2://x").is_err());
    }

    #[test]
    fn registry_resolution() {
        let reg = DataSourceRegistry::new()
            .with(Database::new("a"))
            .with(Database::new("b"));
        assert_eq!(reg.names(), vec!["a", "b"]);
        assert_eq!(reg.resolve("sqlkernel://a").unwrap().name(), "a");
        assert!(reg.resolve("sqlkernel://c").is_err());
    }

    #[test]
    fn runtime_initial_state() {
        let rt = BisRuntime::new(DataSourceRegistry::new());
        assert!(!rt.atomic_active);
        assert!(rt.atomic_connections.is_empty());
        assert!(rt.result_tables.is_empty());
    }
}
