//! Dehydration between XSQL pages (paper Sec. V).
//!
//! Oracle BPEL Process Manager parks ("dehydrates") long-running
//! instances in its dehydration store between invoke activities. This
//! module reproduces that behavior for XSQL work: a *durable page
//! sequence* runs each page as one [`flowcore::persistence::DurableStep`],
//! so the page's SQL effects and the instance checkpoint (program
//! counter, variables) commit in the same transaction. A crash between —
//! or inside — pages resumes at the interrupted page after recovery,
//! with every committed page executed exactly once.
//!
//! Page parameters (`{@name}` references) are drawn from the instance's
//! *scalar* variables, which dehydrate with the instance; each page's
//! `<xsql-results>` document is stored back into the variables under
//! `result_<step>`, so page outputs also survive rehydration.

use flowcore::persistence::{DurableProcess, DurableRun, PersistenceService};
use flowcore::retry::RetryRuntime;
use flowcore::scheduler::InstanceScheduler;
use flowcore::value::{VarValue, Variables};
use flowcore::FlowResult;
use sqlkernel::{Database, Value};

use crate::xsql::process_xsql_on;

/// Collect the scalar variables as XSQL parameters (XML-valued results
/// and nulls are not addressable from `{@name}` references).
fn scalar_params(vars: &Variables) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for name in vars.names() {
        if let Some(VarValue::Scalar(v)) = vars.get(name) {
            out.push((name.to_string(), v.clone()));
        }
    }
    out
}

/// Build the durable process for a page sequence: one step per
/// `(step_name, page_text)` pair, in order.
pub fn durable_page_process(db: &Database, name: &str, pages: &[(&str, &str)]) -> DurableProcess {
    let mut process = DurableProcess::new(name);
    for (step, page) in pages {
        let step_name = (*step).to_string();
        let page = (*page).to_string();
        let db = db.clone();
        process = process.step(step_name.clone(), move |conn, vars| {
            let params = scalar_params(vars);
            let result = process_xsql_on(&db, conn, &page, &params)?;
            vars.set(format!("result_{step_name}"), VarValue::Xml(result));
            Ok(())
        });
    }
    process
}

/// Run (or resume) a durable XSQL page sequence under `instance_key`.
///
/// `initial_params` seed the instance's scalar variables on first run
/// (ignored on resume — the dehydrated state wins). Returns the
/// persistence layer's [`DurableRun`], whose variables hold the
/// `result_<step>` documents of every committed page.
pub fn run_durable_pages(
    db: &Database,
    process_name: &str,
    pages: &[(&str, &str)],
    instance_key: &str,
    initial_params: &[(String, Value)],
    rt: &mut RetryRuntime,
) -> FlowResult<DurableRun> {
    // Bootstrap DDL under the retry envelope: a transient on the first
    // statement of a fresh lifetime must not fail the whole run.
    let (service, _) = rt.run("persistence:init", Some(db), || PersistenceService::new(db));
    let service = service?;
    let mut vars = Variables::new();
    for (name, value) in initial_params {
        vars.set(name.clone(), VarValue::Scalar(value.clone()));
    }
    let process = durable_page_process(db, process_name, pages);
    service.run(&process, instance_key, &vars, rt)
}

/// Run N page-sequence instances across `scheduler`'s worker pool — the
/// BPEL Process Manager dispatcher pulling many dehydrated instances
/// from the store at once. `params(index)` supplies each instance's
/// initial scalar parameters; `runtime(index)` builds each instance's
/// retry runtime — seed it with the index so jitter is per-instance
/// deterministic regardless of worker assignment, and size its policy
/// to the fault environment (the default budget is 4 attempts).
/// Results come back in job order.
pub fn run_durable_pages_many<F, R>(
    db: &Database,
    process_name: &str,
    pages: &[(&str, &str)],
    instance_keys: &[String],
    params: F,
    runtime: R,
    scheduler: &InstanceScheduler,
) -> Vec<FlowResult<DurableRun>>
where
    F: Fn(usize) -> Vec<(String, Value)> + Send + Sync,
    R: Fn(usize) -> RetryRuntime + Send + Sync,
{
    // Create FLOW_INSTANCES before fanning out, so first-step workers
    // never race on its DDL.
    let _ = PersistenceService::new(db);
    scheduler.run_indexed(instance_keys.len(), |i| {
        let mut rt = runtime(i);
        run_durable_pages(
            db,
            process_name,
            pages,
            &instance_keys[i],
            &params(i),
            &mut rt,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcore::persistence::STATUS_COMPLETED;
    use sqlkernel::{CrashPoint, Fault, FaultPlan, MemLogStore};
    use std::sync::Arc;

    const PAGE_A: &str = "<xsql:page xmlns:xsql=\"urn:oracle-xsql\">\
        <xsql:dml>INSERT INTO audit VALUES (1, {@who})</xsql:dml>\
        </xsql:page>";
    const PAGE_B: &str = "<xsql:page xmlns:xsql=\"urn:oracle-xsql\">\
        <xsql:dml>INSERT INTO audit VALUES (2, {@who})</xsql:dml>\
        <xsql:query>SELECT id FROM audit ORDER BY id</xsql:query>\
        </xsql:page>";

    fn audit_table(db: &Database) {
        db.connect()
            .execute("CREATE TABLE audit (id INT PRIMARY KEY, who TEXT)", &[])
            .unwrap();
    }

    fn pages() -> Vec<(&'static str, &'static str)> {
        vec![("first", PAGE_A), ("second", PAGE_B)]
    }

    #[test]
    fn pages_run_in_order_and_results_dehydrate() {
        let db = Database::new("soa");
        audit_table(&db);
        let mut rt = RetryRuntime::new(1);
        let run = run_durable_pages(
            &db,
            "page-seq",
            &pages(),
            "inst-1",
            &[("who".into(), Value::text("ops"))],
            &mut rt,
        )
        .unwrap();
        assert_eq!(run.steps_executed, 2);
        let result = run.variables.require_xml("result_second").unwrap();
        let rowset = result.as_element().unwrap().child("RowSet").unwrap();
        assert_eq!(rowset.children_named("Row").count(), 2);
        let rs = db
            .connect()
            .query("SELECT id FROM audit ORDER BY id", &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn crash_between_pages_resumes_exactly_once() {
        let store = MemLogStore::new();
        {
            let db = Database::recover("soa", Arc::new(store.clone())).unwrap();
            audit_table(&db);
        }
        let mut rt = RetryRuntime::new(1);
        let params = [("who".into(), Value::text("ops"))];

        // Probe statement indexes until a crash fires mid-sequence.
        let mut crashed = false;
        for idx in 0..24 {
            let db = Database::recover("soa", Arc::new(store.clone())).unwrap();
            db.set_fault_plan(Some(
                FaultPlan::new(3).fault_at(idx, Fault::Crash(CrashPoint::AfterLog)),
            ));
            let r = run_durable_pages(&db, "page-seq", &pages(), "inst-9", &params, &mut rt);
            if db.fault_injector().map(|i| i.frozen()).unwrap_or(false) {
                assert!(r.is_err());
                crashed = true;
                break;
            }
            if r.is_ok() {
                let conn = db.connect();
                conn.execute(
                    "DELETE FROM FLOW_INSTANCES WHERE InstanceKey = 'inst-9'",
                    &[],
                )
                .unwrap();
                conn.execute("DELETE FROM audit", &[]).unwrap();
            }
        }
        assert!(crashed, "no probe index produced a crash");

        let db = Database::recover("soa", Arc::new(store.clone())).unwrap();
        let run = run_durable_pages(&db, "page-seq", &pages(), "inst-9", &params, &mut rt).unwrap();
        assert!(!run.already_completed);
        let rs = db
            .connect()
            .query("SELECT id FROM audit ORDER BY id", &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 2, "each page's DML applied exactly once");
        let svc = PersistenceService::new(&db).unwrap();
        assert_eq!(
            svc.instance_status("inst-9").unwrap(),
            Some((2, STATUS_COMPLETED.into()))
        );
    }
}
