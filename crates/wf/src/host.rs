//! The WF *host process* (Fig. 5) and provider-restricted connection
//! strings.
//!
//! WF activities carry **static** connection strings (Sec. IV-B); the
//! implementation of the SQL database activity surveyed in the paper is
//! *“restricted to SQL Server and Oracle database systems”* (Sec. VI-B).
//! The host process resolves connection strings against its database
//! directory and enforces that restriction.

use std::collections::HashMap;

use flowcore::{ActivityContext, FlowError, FlowResult, ProcessDefinition};
use sqlkernel::Database;

/// Database providers a connection string can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    SqlServer,
    Oracle,
    Db2,
    Generic,
}

impl Provider {
    /// Parse a provider token.
    pub fn from_name(s: &str) -> Option<Provider> {
        match s.to_ascii_lowercase().as_str() {
            "sqlserver" => Some(Provider::SqlServer),
            "oracle" => Some(Provider::Oracle),
            "db2" => Some(Provider::Db2),
            "generic" => Some(Provider::Generic),
            _ => None,
        }
    }

    /// Canonical spelling for connection strings.
    pub fn name(&self) -> &'static str {
        match self {
            Provider::SqlServer => "SqlServer",
            Provider::Oracle => "Oracle",
            Provider::Db2 => "Db2",
            Provider::Generic => "Generic",
        }
    }

    /// Is this provider supported by the customized SQL database
    /// activity (the paper's restriction)?
    pub fn supported_by_sql_database_activity(&self) -> bool {
        matches!(self, Provider::SqlServer | Provider::Oracle)
    }
}

/// Build a WF connection string.
pub fn connection_string(provider: Provider, database: &str) -> String {
    format!("Provider={};Database={database}", provider.name())
}

/// Parse a WF connection string into provider and database name.
pub fn parse_connection_string(s: &str) -> FlowResult<(Provider, &str)> {
    let mut provider = None;
    let mut database = None;
    for part in s.split(';') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| FlowError::Variable(format!("malformed connection string '{s}'")))?;
        match k.trim().to_ascii_lowercase().as_str() {
            "provider" => {
                provider = Some(
                    Provider::from_name(v.trim())
                        .ok_or_else(|| FlowError::Variable(format!("unknown provider '{v}'")))?,
                )
            }
            "database" => database = Some(v.trim()),
            other => {
                return Err(FlowError::Variable(format!(
                    "unknown connection string key '{other}'"
                )))
            }
        }
    }
    match (provider, database) {
        (Some(p), Some(d)) => Ok((p, d)),
        _ => Err(FlowError::Variable(format!(
            "connection string '{s}' must name Provider and Database"
        ))),
    }
}

/// The host process: owns the runtime services and the database
/// directory visible to activities.
#[derive(Debug, Clone, Default)]
pub struct WfHost {
    databases: HashMap<String, (Provider, Database)>,
}

impl WfHost {
    /// Empty host.
    pub fn new() -> WfHost {
        WfHost::default()
    }

    /// Register a database under a provider.
    pub fn with_database(mut self, provider: Provider, db: Database) -> WfHost {
        self.databases.insert(db.name().to_string(), (provider, db));
        self
    }

    /// Resolve a connection string, enforcing the provider whitelist of
    /// the SQL database activity.
    pub fn resolve_for_sql_activity(&self, conn_string: &str) -> FlowResult<Database> {
        let (provider, name) = parse_connection_string(conn_string)?;
        let Some((registered, db)) = self.databases.get(name) else {
            // Shared-handle fallback: a database another component
            // published. The provider whitelist still applies to the
            // provider the string claims, and `lookup` never creates, so
            // unknown names still fail.
            if !provider.supported_by_sql_database_activity() {
                return Err(FlowError::Service(format!(
                    "SQL database activity supports SqlServer and Oracle only; '{name}' is {}",
                    provider.name()
                )));
            }
            return Database::lookup(name)
                .ok_or_else(|| FlowError::Variable(format!("unknown database '{name}'")));
        };
        if *registered != provider {
            return Err(FlowError::Variable(format!(
                "database '{name}' is registered as {} (connection string says {})",
                registered.name(),
                provider.name()
            )));
        }
        if !provider.supported_by_sql_database_activity() {
            return Err(FlowError::Service(format!(
                "SQL database activity supports SqlServer and Oracle only; '{name}' is {}",
                provider.name()
            )));
        }
        Ok(db.clone())
    }

    /// Install the host into a process definition (setup hook inserting
    /// the directory into the instance extensions).
    pub fn install(self, def: ProcessDefinition) -> ProcessDefinition {
        let host = self;
        def.with_setup(move |ctx| {
            ctx.extensions.insert(host.clone());
            Ok(())
        })
    }
}

/// Fetch the host from the instance extensions.
pub fn host_of<'a>(ctx: &'a ActivityContext<'_>) -> FlowResult<&'a WfHost> {
    ctx.extensions
        .get::<WfHost>()
        .ok_or_else(|| FlowError::Definition("WF host process not installed".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_string_round_trip() {
        let s = connection_string(Provider::SqlServer, "orders_db");
        assert_eq!(s, "Provider=SqlServer;Database=orders_db");
        let (p, d) = parse_connection_string(&s).unwrap();
        assert_eq!(p, Provider::SqlServer);
        assert_eq!(d, "orders_db");
    }

    #[test]
    fn malformed_connection_strings() {
        assert!(parse_connection_string("nope").is_err());
        assert!(parse_connection_string("Provider=SqlServer").is_err());
        assert!(parse_connection_string("Provider=Access;Database=x").is_err());
        assert!(parse_connection_string("Foo=1;Database=x").is_err());
    }

    #[test]
    fn provider_whitelist() {
        assert!(Provider::SqlServer.supported_by_sql_database_activity());
        assert!(Provider::Oracle.supported_by_sql_database_activity());
        assert!(!Provider::Db2.supported_by_sql_database_activity());
    }

    #[test]
    fn host_resolution_and_restriction() {
        let host = WfHost::new()
            .with_database(Provider::SqlServer, Database::new("good"))
            .with_database(Provider::Db2, Database::new("legacy"));
        assert!(host
            .resolve_for_sql_activity("Provider=SqlServer;Database=good")
            .is_ok());
        // Wrong provider claim.
        assert!(host
            .resolve_for_sql_activity("Provider=Oracle;Database=good")
            .is_err());
        // Unsupported provider.
        let err = host
            .resolve_for_sql_activity("Provider=Db2;Database=legacy")
            .unwrap_err();
        assert_eq!(err.class(), "service");
        // Unknown database.
        assert!(host
            .resolve_for_sql_activity("Provider=SqlServer;Database=missing")
            .is_err());
    }
}
