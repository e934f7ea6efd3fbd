//! The `SqlWorkflowPersistenceService` of the WF host process (Fig. 5).
//!
//! The paper's Figure 5 shows the WF host wiring runtime services into
//! the workflow runtime — among them the SQL persistence service that
//! saves idle workflow instances to a database and reloads them on
//! resumption. This module reproduces that service on top of
//! [`flowcore::persistence`]: instance state lives in the
//! `FLOW_INSTANCES` table of a host-registered database, and when that
//! database is durable (WAL-backed), parked instances survive process
//! crashes.
//!
//! The service keeps WF's shape: it is constructed from a *connection
//! string* resolved through the [`WfHost`] directory (subject to the
//! same SqlServer/Oracle provider restriction as the SQL database
//! activity), and exposes save/load entry points named after the .NET
//! originals.

use flowcore::persistence::{DurableProcess, DurableRun, HydratedInstance, PersistenceService};
use flowcore::retry::RetryRuntime;
use flowcore::scheduler::InstanceScheduler;
use flowcore::value::Variables;
use flowcore::FlowResult;
use sqlkernel::{Database, Value};

use crate::host::WfHost;

/// The WF persistence runtime service.
#[derive(Debug, Clone)]
pub struct SqlWorkflowPersistenceService {
    inner: PersistenceService,
}

impl SqlWorkflowPersistenceService {
    /// Attach directly to a database (creates `FLOW_INSTANCES` if
    /// missing).
    pub fn new(db: &Database) -> FlowResult<SqlWorkflowPersistenceService> {
        Ok(SqlWorkflowPersistenceService {
            inner: PersistenceService::new(db)?,
        })
    }

    /// WF-style construction: resolve `conn_string` through the host
    /// directory. The persistence store rides the same provider
    /// whitelist as the SQL database activity.
    pub fn from_connection_string(
        host: &WfHost,
        conn_string: &str,
    ) -> FlowResult<SqlWorkflowPersistenceService> {
        let db = host.resolve_for_sql_activity(conn_string)?;
        SqlWorkflowPersistenceService::new(&db)
    }

    /// The underlying generic persistence service.
    pub fn service(&self) -> &PersistenceService {
        &self.inner
    }

    /// Park instance state (the .NET `SaveWorkflowInstanceState`).
    pub fn save_workflow_instance_state(
        &self,
        instance_key: &str,
        process: &str,
        pc: usize,
        status: &str,
        vars: &Variables,
        rt: &RetryRuntime,
    ) -> FlowResult<()> {
        self.inner
            .dehydrate(instance_key, process, pc, status, vars, rt)
    }

    /// Reload instance state (the .NET `LoadWorkflowInstanceState`), or
    /// `None` when the key is unknown.
    pub fn load_workflow_instance_state(
        &self,
        instance_key: &str,
    ) -> FlowResult<Option<HydratedInstance>> {
        self.inner.rehydrate(instance_key)
    }

    /// Run (or resume) a durable workflow under the service — each step
    /// checkpoints into the persistence store in its own transaction.
    pub fn run_workflow(
        &self,
        process: &DurableProcess,
        instance_key: &str,
        initial: &Variables,
        rt: &mut RetryRuntime,
    ) -> FlowResult<DurableRun> {
        self.inner.run(process, instance_key, initial, rt)
    }

    /// Run N workflows across `scheduler`'s worker pool — WF's runtime
    /// scheduling many instances onto CLR threads, with this service as
    /// their shared persistence store. `process(index)` builds each
    /// worker's own definition (step bodies are not `Send`);
    /// `runtime(index)` builds each job's retry runtime — seed it with
    /// the index so backoff jitter is per-instance deterministic
    /// regardless of which worker runs it, and size its policy to the
    /// fault environment (the default budget is 4 attempts). Results
    /// come back in job order.
    pub fn run_workflows<P, R>(
        &self,
        process: P,
        instance_keys: &[String],
        initial: &Variables,
        runtime: R,
        scheduler: &InstanceScheduler,
    ) -> Vec<FlowResult<DurableRun>>
    where
        P: Fn(usize) -> DurableProcess + Send + Sync,
        R: Fn(usize) -> RetryRuntime + Send + Sync,
    {
        scheduler.run_indexed(instance_keys.len(), |i| {
            let mut rt = runtime(i);
            self.inner
                .run(&process(i), &instance_keys[i], initial, &mut rt)
        })
    }

    /// Number of instances currently parked in the store.
    pub fn persisted_instance_count(&self) -> FlowResult<usize> {
        let rs = self
            .inner
            .database()
            .connect()
            .query("SELECT COUNT(*) FROM FLOW_INSTANCES", &[])?;
        match rs.rows.first().map(|r| r[0].clone()) {
            Some(Value::Int(n)) => Ok(n as usize),
            _ => Ok(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{connection_string, Provider};
    use flowcore::persistence::{STATUS_COMPLETED, STATUS_RUNNING};
    use flowcore::value::VarValue;
    use sqlkernel::{CrashPoint, Fault, FaultPlan, MemLogStore};
    use std::sync::Arc;

    fn two_step_process() -> DurableProcess {
        DurableProcess::new("order-flow")
            .step("reserve", |conn, vars| {
                conn.execute("INSERT INTO steps VALUES (1, 'reserve')", &[])?;
                vars.set("stage", VarValue::Scalar(Value::text("reserved")));
                Ok(())
            })
            .step("confirm", |conn, vars| {
                conn.execute("INSERT INTO steps VALUES (2, 'confirm')", &[])?;
                vars.set("stage", VarValue::Scalar(Value::text("confirmed")));
                Ok(())
            })
    }

    fn steps_table(db: &Database) {
        db.connect()
            .execute("CREATE TABLE steps (id INT PRIMARY KEY, what TEXT)", &[])
            .unwrap();
    }

    #[test]
    fn host_resolved_persistence_store_honors_provider_whitelist() {
        let host = WfHost::new()
            .with_database(Provider::SqlServer, Database::new("state"))
            .with_database(Provider::Db2, Database::new("legacy"));
        assert!(SqlWorkflowPersistenceService::from_connection_string(
            &host,
            &connection_string(Provider::SqlServer, "state"),
        )
        .is_ok());
        let err = SqlWorkflowPersistenceService::from_connection_string(
            &host,
            &connection_string(Provider::Db2, "legacy"),
        )
        .unwrap_err();
        assert_eq!(err.class(), "service");
    }

    #[test]
    fn save_and_load_round_trip() {
        let db = Database::new("state");
        let svc = SqlWorkflowPersistenceService::new(&db).unwrap();
        let rt = RetryRuntime::new(1);
        let mut vars = Variables::new();
        vars.set("stage", VarValue::Scalar(Value::text("reserved")));
        svc.save_workflow_instance_state("wf-1", "order-flow", 1, STATUS_RUNNING, &vars, &rt)
            .unwrap();
        let h = svc.load_workflow_instance_state("wf-1").unwrap().unwrap();
        assert_eq!(h.pc, 1);
        assert_eq!(h.process, "order-flow");
        assert_eq!(
            h.variables.require_scalar("stage").unwrap(),
            &Value::text("reserved")
        );
        assert_eq!(svc.persisted_instance_count().unwrap(), 1);
        assert!(svc.load_workflow_instance_state("nope").unwrap().is_none());
    }

    #[test]
    fn crashed_workflow_resumes_from_persisted_state() {
        let store = MemLogStore::new();
        {
            let db = Database::recover("state", Arc::new(store.clone())).unwrap();
            steps_table(&db);
        }
        let mut rt = RetryRuntime::new(1);

        let mut crashed = false;
        for idx in 0..24 {
            let db = Database::recover("state", Arc::new(store.clone())).unwrap();
            let svc = SqlWorkflowPersistenceService::new(&db).unwrap();
            db.set_fault_plan(Some(
                FaultPlan::new(11).fault_at(idx, Fault::Crash(CrashPoint::MidApply)),
            ));
            let r = svc.run_workflow(&two_step_process(), "wf-9", &Variables::new(), &mut rt);
            if db.fault_injector().map(|i| i.frozen()).unwrap_or(false) {
                assert!(r.is_err());
                crashed = true;
                break;
            }
            if r.is_ok() {
                let conn = db.connect();
                conn.execute("DELETE FROM FLOW_INSTANCES WHERE InstanceKey = 'wf-9'", &[])
                    .unwrap();
                conn.execute("DELETE FROM steps", &[]).unwrap();
            }
        }
        assert!(crashed, "no probe index produced a crash");

        let db = Database::recover("state", Arc::new(store.clone())).unwrap();
        let svc = SqlWorkflowPersistenceService::new(&db).unwrap();
        let run = svc
            .run_workflow(&two_step_process(), "wf-9", &Variables::new(), &mut rt)
            .unwrap();
        assert!(!run.already_completed);
        assert_eq!(
            run.variables.require_scalar("stage").unwrap(),
            &Value::text("confirmed")
        );
        let rs = db
            .connect()
            .query("SELECT id FROM steps ORDER BY id", &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 2, "each step's insert applied exactly once");
        let h = svc.load_workflow_instance_state("wf-9").unwrap().unwrap();
        assert_eq!(h.status, STATUS_COMPLETED);
    }
}
