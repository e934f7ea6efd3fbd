//! Deployment configuration: data-source binding, set-reference
//! declarations, and the lifecycle management of Sec. III-B
//! (“Additional Features”): preparation and cleanup statements for data
//! sources, and per-instance lifecycle of result set tables.

use std::sync::Arc;

use flowcore::persistence::{DurableProcess, DurableRun, PersistenceService};
use flowcore::retry::{BreakerConfig, RetryPolicy, RetryRuntime};
use flowcore::scheduler::InstanceScheduler;
use flowcore::value::Variables;
use flowcore::{ActivityContext, ExecutionMode, FlowError, FlowResult, ProcessDefinition};
use sqlkernel::Value;

use crate::datasource::{connection_string, BisRuntime, DataSourceRegistry};
use crate::setref::SetRef;

/// Declaration of a result set reference variable whose backing table is
/// created per instance (with a generated unique name) and dropped at the
/// end of the workflow.
#[derive(Debug, Clone)]
pub struct ResultSetDecl {
    /// The variable name (e.g. `SR_ItemList`).
    pub var: String,
    /// The data source variable the table lives on.
    pub data_source_var: String,
    /// Column DDL, e.g. `(ItemId TEXT, Quantity INT)`. When `None`, the
    /// table is created lazily by the first SQL activity storing into it.
    pub columns_ddl: Option<String>,
}

/// The deployment descriptor for a BIS process: everything WID would
/// configure outside the flow itself.
#[derive(Debug, Clone, Default)]
pub struct BisDeployment {
    registry: DataSourceRegistry,
    data_source_bindings: Vec<(String, String)>,
    input_sets: Vec<(String, String)>,
    result_sets: Vec<ResultSetDecl>,
    preparations: Vec<(String, String)>,
    cleanups: Vec<(String, String)>,
    retry: Option<RetryConfig>,
}

/// Retry/breaker configuration installed into the instance runtime.
#[derive(Debug, Clone)]
struct RetryConfig {
    seed: u64,
    policy: RetryPolicy,
    breaker: BreakerConfig,
}

impl BisDeployment {
    /// Deployment over a data source registry.
    pub fn new(registry: DataSourceRegistry) -> BisDeployment {
        BisDeployment {
            registry,
            ..Default::default()
        }
    }

    /// Bind a data source variable to a database name (deployment-time
    /// binding; the process may re-bind at runtime with an assign).
    pub fn bind_data_source(
        mut self,
        var: impl Into<String>,
        db_name: impl Into<String>,
    ) -> BisDeployment {
        self.data_source_bindings.push((var.into(), db_name.into()));
        self
    }

    /// Declare an input set reference to an existing table.
    pub fn input_set(mut self, var: impl Into<String>, table: impl Into<String>) -> BisDeployment {
        self.input_sets.push((var.into(), table.into()));
        self
    }

    /// Declare a result set reference with per-instance table lifecycle.
    pub fn result_set(
        mut self,
        var: impl Into<String>,
        data_source_var: impl Into<String>,
        columns_ddl: Option<&str>,
    ) -> BisDeployment {
        self.result_sets.push(ResultSetDecl {
            var: var.into(),
            data_source_var: data_source_var.into(),
            columns_ddl: columns_ddl.map(str::to_string),
        });
        self
    }

    /// Add a preparation script (DDL) run on a data source before the
    /// process body.
    pub fn prepare(
        mut self,
        data_source_var: impl Into<String>,
        script: impl Into<String>,
    ) -> BisDeployment {
        self.preparations
            .push((data_source_var.into(), script.into()));
        self
    }

    /// Add a cleanup script run on a data source after the process body.
    pub fn cleanup(
        mut self,
        data_source_var: impl Into<String>,
        script: impl Into<String>,
    ) -> BisDeployment {
        self.cleanups.push((data_source_var.into(), script.into()));
        self
    }

    /// Configure the recovery layer: every SQL statement an information
    /// service activity sends to a data source runs under `policy`, with
    /// a per-database circuit breaker and backoff jitter seeded by
    /// `seed` (deterministic replay).
    pub fn with_retry(mut self, seed: u64, policy: RetryPolicy) -> BisDeployment {
        let breaker = self.retry.take().map(|c| c.breaker).unwrap_or_default();
        self.retry = Some(RetryConfig {
            seed,
            policy,
            breaker,
        });
        self
    }

    /// Configure the circuit breaker used with [`BisDeployment::with_retry`].
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> BisDeployment {
        let (seed, policy) = self
            .retry
            .take()
            .map(|c| (c.seed, c.policy))
            .unwrap_or((0, RetryPolicy::default()));
        self.retry = Some(RetryConfig {
            seed,
            policy,
            breaker,
        });
        self
    }

    /// The registry (for re-use by probes).
    pub fn registry(&self) -> &DataSourceRegistry {
        &self.registry
    }

    /// Build the recovery runtime this deployment configures (defaults
    /// when [`BisDeployment::with_retry`] was never called).
    pub fn retry_runtime(&self) -> RetryRuntime {
        match &self.retry {
            Some(cfg) => RetryRuntime::new(cfg.seed)
                .with_policy(cfg.policy.clone())
                .with_breaker(cfg.breaker.clone()),
            None => RetryRuntime::new(0).with_policy(RetryPolicy::no_retry()),
        }
    }

    /// Run (or resume) a *durable* activity sequence against one of this
    /// deployment's data sources.
    ///
    /// This is the deployment-resume path: instance state dehydrates into
    /// the data source's `FLOW_INSTANCES` table at every step boundary,
    /// in the same transaction as the step's own SQL. When the data
    /// source is durable (opened with a WAL), re-deploying after a crash
    /// and calling `run_durable` with the same `instance_key` resumes at
    /// the interrupted step — committed steps never re-execute. The
    /// deployment's retry/breaker configuration wraps every step, and the
    /// breaker state itself dehydrates with the instance.
    pub fn run_durable(
        &self,
        db_name: &str,
        process: &DurableProcess,
        instance_key: &str,
        initial: &Variables,
    ) -> FlowResult<DurableRun> {
        let db = self.registry.resolve(&connection_string(db_name))?;
        let mut rt = self.retry_runtime();
        // The FLOW_INSTANCES bootstrap DDL runs under the same retry
        // envelope as the steps — a transient on the first statement of
        // a fresh lifetime must not fail the whole run.
        let (service, _) = rt.run("persistence:init", Some(&db), || {
            PersistenceService::new(&db)
        });
        service?.run(process, instance_key, initial, &mut rt)
    }

    /// Drive N durable instances across `scheduler`'s worker pool — the
    /// BIS analog of WebSphere running many process instances from its
    /// application-server thread pool.
    ///
    /// Step bodies are not `Send`, so each worker builds its own process
    /// definition via `process(index)` rather than sharing one. Results
    /// come back in job order. Each job runs exactly as `run_durable`
    /// would — same dehydration, retry, and breaker behavior — so a
    /// one-worker scheduler is byte-for-byte equivalent to a sequential
    /// loop, and N workers are equivalent whenever the instances touch
    /// disjoint rows (the *multiple parallel instances* pattern the
    /// paper's products all assume).
    pub fn run_many_durable<P>(
        &self,
        db_name: &str,
        process: P,
        instance_keys: &[String],
        initial: &Variables,
        scheduler: &InstanceScheduler,
    ) -> Vec<FlowResult<DurableRun>>
    where
        P: Fn(usize) -> DurableProcess + Send + Sync,
    {
        // Create FLOW_INSTANCES up front so concurrent first-steppers
        // never race on the table's DDL.
        if let Ok(db) = self.registry.resolve(&connection_string(db_name)) {
            let _ = PersistenceService::new(&db);
        }
        scheduler.run_indexed(instance_keys.len(), |i| {
            self.run_durable(db_name, &process(i), &instance_keys[i], initial)
        })
    }

    /// Install this deployment onto a process definition: adds the setup
    /// hook (runtime installation, variable binding, preparation
    /// statements, result-table creation) and the cleanup hook (cleanup
    /// statements, result-table drop, short-running commit).
    pub fn deploy(self, def: ProcessDefinition) -> ProcessDefinition {
        let d = Arc::new(self);
        let setup = d.clone();
        let cleanup = d;
        def.with_setup(move |ctx| setup.run_setup(ctx))
            .with_cleanup(move |ctx| cleanup.run_cleanup(ctx))
    }

    fn run_setup(&self, ctx: &mut ActivityContext<'_>) -> FlowResult<()> {
        let mut runtime = BisRuntime::new(self.registry.clone());
        if let Some(cfg) = &self.retry {
            runtime.retry = Some(
                RetryRuntime::new(cfg.seed)
                    .with_policy(cfg.policy.clone())
                    .with_breaker(cfg.breaker.clone()),
            );
        }
        ctx.extensions.insert(runtime);

        for (var, db_name) in &self.data_source_bindings {
            ctx.variables
                .set(var.clone(), Value::Text(connection_string(db_name)));
        }
        for (var, table) in &self.input_sets {
            ctx.variables
                .set(var.clone(), SetRef::input(table.clone()).into_var());
        }

        let preparations = self.preparations.clone();
        for (ds_var, script) in &preparations {
            self.run_script(ctx, ds_var, script)?;
        }

        for decl in &self.result_sets {
            let table = format!(
                "rs_{}_{}",
                decl.var.to_lowercase().replace(['#', ' '], "_"),
                ctx.instance_id
            );
            if let Some(cols) = &decl.columns_ddl {
                let ddl = format!("CREATE TABLE {table} {cols}");
                self.run_script(ctx, &decl.data_source_var, &ddl)?;
                let db_name = self.db_name_of(ctx, &decl.data_source_var)?;
                let runtime = ctx
                    .extensions
                    .get_mut::<BisRuntime>()
                    .expect("installed above");
                runtime.result_tables.push((db_name, table.clone()));
            }
            ctx.variables
                .set(decl.var.clone(), SetRef::result(table).into_var());
        }

        if ctx.mode == ExecutionMode::ShortRunning {
            let runtime = ctx
                .extensions
                .get_mut::<BisRuntime>()
                .expect("installed above");
            runtime.atomic_active = true;
        }
        Ok(())
    }

    fn run_cleanup(&self, ctx: &mut ActivityContext<'_>) -> FlowResult<()> {
        // Close the instance-level transaction of short-running processes.
        if ctx.mode == ExecutionMode::ShortRunning {
            if let Some(runtime) = ctx.extensions.get_mut::<BisRuntime>() {
                runtime.atomic_active = false;
                let conns: Vec<_> = runtime.atomic_connections.drain().collect();
                for (_, conn) in conns {
                    conn.execute("COMMIT", &[])?;
                }
            }
        }

        let cleanups = self.cleanups.clone();
        for (ds_var, script) in &cleanups {
            self.run_script(ctx, ds_var, script)?;
        }

        // Drop per-instance result set tables.
        let tables = ctx
            .extensions
            .get_mut::<BisRuntime>()
            .map(|r| std::mem::take(&mut r.result_tables))
            .unwrap_or_default();
        for (db_name, table) in tables {
            let db = self.registry.resolve(&connection_string(&db_name))?;
            let conn = db.connect();
            let drop = format!("DROP TABLE IF EXISTS {table}");
            let retry = ctx
                .extensions
                .get_mut::<BisRuntime>()
                .and_then(|r| r.retry.as_mut());
            match retry {
                Some(rt) => {
                    let (r, report) = rt.run(db.name(), Some(&db), || {
                        conn.execute(&drop, &[])
                            .map(|_| ())
                            .map_err(FlowError::from)
                    });
                    for line in report.log {
                        ctx.note("retry", db.name(), line);
                    }
                    r?;
                }
                None => {
                    conn.execute(&drop, &[])?;
                }
            }
        }
        Ok(())
    }

    fn db_name_of(&self, ctx: &ActivityContext<'_>, ds_var: &str) -> FlowResult<String> {
        let conn_string = ctx.variables.require_scalar(ds_var)?.render();
        Ok(self.registry.resolve(&conn_string)?.name().to_string())
    }

    /// Run a deployment script under the instance's retry policy (when
    /// configured). Retries re-run the whole script, so multi-statement
    /// scripts should be idempotent; single-statement scripts (result-set
    /// DDL, drops) always retry safely because a gated fault fires before
    /// anything executes.
    fn run_script(
        &self,
        ctx: &mut ActivityContext<'_>,
        ds_var: &str,
        script: &str,
    ) -> FlowResult<()> {
        let conn_string = ctx.variables.require_scalar(ds_var)?.render();
        let db = self.registry.resolve(&conn_string)?;
        let conn = db.connect();
        let retry = ctx
            .extensions
            .get_mut::<BisRuntime>()
            .and_then(|r| r.retry.as_mut());
        match retry {
            Some(rt) => {
                let (r, report) = rt.run(db.name(), Some(&db), || {
                    conn.execute_script(script)
                        .map(|_| ())
                        .map_err(FlowError::from)
                });
                for line in report.log {
                    ctx.note("retry", db.name(), line);
                }
                r
            }
            None => conn
                .execute_script(script)
                .map(|_| ())
                .map_err(FlowError::from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcore::builtins::Empty;
    use flowcore::{Engine, Variables};
    use sqlkernel::Database;

    fn registry_with(db: &Database) -> DataSourceRegistry {
        DataSourceRegistry::new().with(db.clone())
    }

    #[test]
    fn deploys_variables_and_runtime() {
        let db = Database::new("orders_db");
        db.connect()
            .execute("CREATE TABLE Orders (a INT)", &[])
            .unwrap();
        let def = BisDeployment::new(registry_with(&db))
            .bind_data_source("DS_Orders", "orders_db")
            .input_set("SR_Orders", "Orders")
            .deploy(ProcessDefinition::new("p", Empty::new("e")));
        let engine = Engine::new();
        let inst = engine.run(&def, Variables::new()).unwrap();
        assert!(inst.is_completed(), "{:?}", inst.outcome);
        assert_eq!(
            inst.variables.require_scalar("DS_Orders").unwrap().render(),
            "sqlkernel://orders_db"
        );
        let sr = inst
            .variables
            .require_opaque::<SetRef>("SR_Orders")
            .unwrap();
        assert_eq!(sr.table, "Orders");
    }

    #[test]
    fn result_set_lifecycle_creates_and_drops_table() {
        let db = Database::new("orders_db");
        let def = BisDeployment::new(registry_with(&db))
            .bind_data_source("DS", "orders_db")
            .result_set("SR_ItemList", "DS", Some("(ItemId TEXT, Quantity INT)"))
            .deploy(ProcessDefinition::new(
                "p",
                flowcore::builtins::Snippet::new("check", |ctx| {
                    let sr = ctx.variables.require_opaque::<SetRef>("SR_ItemList")?;
                    ctx.variables
                        .set("observed_table", Value::Text(sr.table.clone()));
                    Ok(())
                }),
            ));
        let engine = Engine::new();
        let inst = engine.run(&def, Variables::new()).unwrap();
        assert!(inst.is_completed(), "{:?}", inst.outcome);
        let table = inst
            .variables
            .require_scalar("observed_table")
            .unwrap()
            .render();
        assert!(table.starts_with("rs_sr_itemlist_"));
        // Dropped after the instance finished.
        assert!(!db.has_table(&table));
    }

    #[test]
    fn unique_result_table_names_per_instance() {
        let db = Database::new("d");
        let def = BisDeployment::new(registry_with(&db))
            .bind_data_source("DS", "d")
            .result_set("SR", "DS", Some("(v INT)"))
            .deploy(ProcessDefinition::new(
                "p",
                flowcore::builtins::Snippet::new("remember", |ctx| {
                    let sr = ctx.variables.require_opaque::<SetRef>("SR")?;
                    ctx.variables.set("t", Value::Text(sr.table.clone()));
                    Ok(())
                }),
            ));
        let engine = Engine::new();
        let a = engine.run(&def, Variables::new()).unwrap();
        let b = engine.run(&def, Variables::new()).unwrap();
        assert_ne!(
            a.variables.require_scalar("t").unwrap(),
            b.variables.require_scalar("t").unwrap()
        );
    }

    #[test]
    fn preparation_and_cleanup_scripts_run() {
        let db = Database::new("d");
        let def = BisDeployment::new(registry_with(&db))
            .bind_data_source("DS", "d")
            .prepare(
                "DS",
                "CREATE TABLE staging (v INT); INSERT INTO staging VALUES (1);",
            )
            .cleanup("DS", "DROP TABLE staging")
            .deploy(ProcessDefinition::new(
                "p",
                flowcore::builtins::Snippet::new("observe", |ctx| {
                    ctx.variables.set("present", Value::Bool(true));
                    Ok(())
                }),
            ));
        let engine = Engine::new();
        let inst = engine.run(&def, Variables::new()).unwrap();
        assert!(inst.is_completed(), "{:?}", inst.outcome);
        assert!(!db.has_table("staging"));
    }

    #[test]
    fn run_durable_resumes_after_crash_without_replaying_steps() {
        use flowcore::value::VarValue;
        use sqlkernel::{CrashPoint, Fault, FaultPlan, MemLogStore};
        use std::sync::Arc;

        let two_steps = || {
            DurableProcess::new("intake")
                .step("stage", |conn, vars| {
                    conn.execute("INSERT INTO intake VALUES (1, 'staged')", &[])?;
                    vars.set("phase", VarValue::Scalar(Value::Int(1)));
                    Ok(())
                })
                .step("post", |conn, vars| {
                    conn.execute("INSERT INTO intake VALUES (2, 'posted')", &[])?;
                    vars.set("phase", VarValue::Scalar(Value::Int(2)));
                    Ok(())
                })
        };

        let store = MemLogStore::new();
        {
            let db = Database::recover("orders_db", Arc::new(store.clone())).unwrap();
            db.connect()
                .execute("CREATE TABLE intake (id INT PRIMARY KEY, s TEXT)", &[])
                .unwrap();
        }

        let mut crashed = false;
        for idx in 0..24 {
            let db = Database::recover("orders_db", Arc::new(store.clone())).unwrap();
            let deployment =
                BisDeployment::new(registry_with(&db)).with_retry(5, RetryPolicy::default());
            db.set_fault_plan(Some(
                FaultPlan::new(5).fault_at(idx, Fault::Crash(CrashPoint::AfterLog)),
            ));
            let r = deployment.run_durable("orders_db", &two_steps(), "job-1", &Variables::new());
            if db.fault_injector().map(|i| i.frozen()).unwrap_or(false) {
                assert!(r.is_err());
                crashed = true;
                break;
            }
            if r.is_ok() {
                let conn = db.connect();
                conn.execute(
                    "DELETE FROM FLOW_INSTANCES WHERE InstanceKey = 'job-1'",
                    &[],
                )
                .unwrap();
                conn.execute("DELETE FROM intake", &[]).unwrap();
            }
        }
        assert!(crashed, "no probe index produced a crash");

        // Re-deploy over the recovered database and resume.
        let db = Database::recover("orders_db", Arc::new(store.clone())).unwrap();
        let deployment =
            BisDeployment::new(registry_with(&db)).with_retry(5, RetryPolicy::default());
        let run = deployment
            .run_durable("orders_db", &two_steps(), "job-1", &Variables::new())
            .unwrap();
        assert!(!run.already_completed);
        assert_eq!(
            run.variables.require_scalar("phase").unwrap(),
            &Value::Int(2)
        );
        let rs = db
            .connect()
            .query("SELECT id FROM intake ORDER BY id", &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 2, "each step committed exactly once");
    }

    #[test]
    fn bad_preparation_fails_instance_start() {
        let db = Database::new("d");
        let def = BisDeployment::new(registry_with(&db))
            .bind_data_source("DS", "d")
            .prepare("DS", "CREATE BOGUS")
            .deploy(ProcessDefinition::new("p", Empty::new("e")));
        let engine = Engine::new();
        assert!(engine.run(&def, Variables::new()).is_err());
    }
}
