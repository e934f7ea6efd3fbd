//! The running example's engine work, pinned as a committed budget.
//!
//! Wall-clock timing on a shared host cannot resolve effects below
//! about 15%. The engine's own counters can: for a fixed workload they
//! repeat exactly, on any number of CPUs. This test runs the paper's
//! running example on each stack and asserts every counter delta
//! against `docs/outputs/WORK_running_example.json`, byte for byte.
//!
//! Three modes:
//!
//! * `memory`: Figs. 4/6/8 and the adapter baseline as flowcore
//!   processes over an in-memory database;
//! * `log`: the three stacks' durable entry points (BIS `run_durable`,
//!   WF `run_workflow`, SOA `run_durable_pages`) over a log-only
//!   durable database (`Database::recover`);
//! * `paged`: the same durable entry points over paged storage
//!   (`Database::open_paged`).
//!
//! Each stack gets a fresh database. Its rows are the deltas of a
//! `first` instance (cold statement cache), a `steady` instance and a
//! `checkpoint`; the durable modes add `reopen`, the counters of the
//! database recovered from the stores right after it opened.
//!
//! A change that alters the work re-records the file and explains the
//! diff in its change notes:
//!
//! ```text
//! WORK_RECORD=1 cargo test --test work_budget
//! ```

use std::sync::Arc;

use flowsql::adapter;
use flowsql::bis;
use flowsql::flowcore::persistence::{DurableProcess, DurableRun};
use flowsql::flowcore::retry::{RetryPolicy, RetryRuntime};
use flowsql::flowcore::{Engine, FlowResult, VarValue, Variables};
use flowsql::patterns::chaos::db_fingerprint;
use flowsql::patterns::probe::{aggregation_query, seed_orders, ProbeEnv};
use flowsql::soa;
use flowsql::sqlkernel::{Database, DbStats, MemLogStore, MemPageStore, Value};
use flowsql::wf;
use flowsql::xmlval;

const BUDGET: &str = "docs/outputs/WORK_running_example.json";

const REGENERATE: &str = "WORK_RECORD=1 cargo test --test work_budget";

const DB_NAME: &str = "orders_db";

/// A `DbStats` field the budget pins, with its name.
type Counter = (&'static str, fn(&DbStats) -> u64);

/// The counters the budget pins, by `DbStats` field name. `pool_misses`
/// is the number of pages read from the page store.
const COUNTERS: [Counter; 13] = [
    ("full_scans", |s| s.full_scans),
    ("index_scans", |s| s.index_scans),
    ("range_scans", |s| s.range_scans),
    ("full_scan_rows", |s| s.full_scan_rows),
    ("parses", |s| s.parses),
    ("plan_binds", |s| s.plan_binds),
    ("wal_appends", |s| s.wal_appends),
    ("wal_bytes", |s| s.wal_bytes),
    ("wal_commits", |s| s.wal_commits),
    ("version_chains_walked", |s| s.version_chains_walked),
    ("versions_gced", |s| s.versions_gced),
    ("pool_misses", |s| s.pool_misses),
    ("pages_written", |s| s.pages_written),
];

/// One measured phase: counter deltas plus the flowcore audit events
/// the phase recorded (0 where no audited process ran).
struct Row {
    mode: &'static str,
    stack: &'static str,
    phase: &'static str,
    counters: Vec<u64>,
    audit_events: usize,
}

impl Row {
    fn render(&self) -> String {
        let mut out = format!(
            "{{\"mode\": \"{}\", \"stack\": \"{}\", \"phase\": \"{}\"",
            self.mode, self.stack, self.phase
        );
        for ((name, _), value) in COUNTERS.iter().zip(&self.counters) {
            out.push_str(&format!(", \"{name}\": {value}"));
        }
        out.push_str(&format!(", \"audit_events\": {}}}", self.audit_events));
        out
    }
}

fn read_counters(s: &DbStats) -> Vec<u64> {
    COUNTERS.iter().map(|(_, get)| get(s)).collect()
}

/// Counter deltas of `db` over `f`.
fn measure<T>(db: &Database, f: impl FnOnce() -> T) -> (Vec<u64>, T) {
    let before = read_counters(&db.snapshot());
    let out = f();
    let after = read_counters(&db.snapshot());
    let delta = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    (delta, out)
}

// ---------------------------------------------------------------- memory

/// Figs. 4/6/8 and the adapter as flowcore processes, in memory.
fn memory_rows(rows: &mut Vec<Row>) {
    for stack in ["bis", "wf", "soa", "adapter"] {
        let env = ProbeEnv::fresh();
        let mut engine = Engine::with_services(env.engine.services().clone());
        adapter::register_data_adapter(engine.services_mut(), "ds", env.db.clone());
        let process = match stack {
            "bis" => bis::figure4_process(
                bis::DataSourceRegistry::new().with(env.db.clone()),
                env.db.name(),
            ),
            "wf" => wf::figure6_process(env.db.clone()),
            "soa" => soa::figure8_process(env.db.clone()),
            _ => adapter::sample_process_via_adapter("ds"),
        };
        for phase in ["first", "steady"] {
            let (counters, inst) =
                measure(&env.db, || engine.run(&process, Variables::new()).unwrap());
            assert!(inst.is_completed(), "{stack}: {:?}", inst.outcome);
            rows.push(Row {
                mode: "memory",
                stack,
                phase,
                counters,
                audit_events: inst.audit.events().len(),
            });
        }
        let (counters, ()) = measure(&env.db, || env.db.checkpoint().unwrap());
        rows.push(Row {
            mode: "memory",
            stack,
            phase: "checkpoint",
            counters,
            audit_events: 0,
        });
    }
}

// --------------------------------------------------------------- durable

/// The SOA realization as XSQL pages. XSQL cannot call a Web service,
/// so the confirmation text is computed in SQL; the rows it records are
/// the other stacks'.
const SOA_PAGES: [(&str, &str); 3] = [
    (
        "aggregate",
        "<xsql:page xmlns:xsql=\"urn:oracle-xsql\"><xsql:query>\
         SELECT ItemId, SUM(Quantity) AS Quantity FROM Orders \
         WHERE Approved = TRUE GROUP BY ItemId ORDER BY ItemId\
         </xsql:query></xsql:page>",
    ),
    (
        "order",
        "<xsql:page xmlns:xsql=\"urn:oracle-xsql\"><xsql:dml>\
         INSERT INTO OrderConfirmations (ConfId, ItemId, Quantity, Confirmation) \
         SELECT NEXTVAL('conf_ids'), ItemId, SUM(Quantity), \
         'confirmed:' || ItemId || ':' || SUM(Quantity) FROM Orders \
         WHERE Approved = TRUE GROUP BY ItemId\
         </xsql:dml></xsql:page>",
    ),
    (
        "close",
        "<xsql:page xmlns:xsql=\"urn:oracle-xsql\"><xsql:query>\
         SELECT COUNT(*) AS Confirmed FROM OrderConfirmations\
         </xsql:query></xsql:page>",
    ),
];

/// The running example as three durable steps: aggregate the approved
/// orders (SQL_1), order every item and record its confirmation, close.
fn durable_running_example() -> DurableProcess {
    DurableProcess::new("OrderAggregation/durable")
        .step("aggregate", |conn, vars| {
            let rs = conn.query(&aggregation_query("Orders"), &[])?;
            vars.set("SV_ItemList", VarValue::Xml(xmlval::rowset::encode(&rs)));
            Ok(())
        })
        .step("order", |conn, vars| {
            let items = xmlval::rowset::decode(vars.require_xml("SV_ItemList")?)?;
            for row in &items.rows {
                let confirmation = format!("confirmed:{}:{}", row[0].render(), row[1].render());
                conn.execute(
                    "INSERT INTO OrderConfirmations (ConfId, ItemId, Quantity, Confirmation) \
                     VALUES (NEXTVAL('conf_ids'), ?, ?, ?)",
                    &[row[0].clone(), row[1].clone(), Value::text(confirmation)],
                )?;
            }
            vars.set("Confirmed", Value::Int(items.rows.len() as i64));
            Ok(())
        })
        .step("close", |_conn, vars| {
            vars.set("Closed", Value::Bool(true));
            Ok(())
        })
}

fn runtime() -> RetryRuntime {
    RetryRuntime::new(0).with_policy(RetryPolicy::no_retry())
}

/// Open a durable database over `log` (and `pages`, for paged storage).
fn open(log: &MemLogStore, pages: Option<&MemPageStore>) -> Database {
    match pages {
        Some(pages) => {
            Database::open_paged(DB_NAME, Arc::new(log.clone()), Arc::new(pages.clone()), 0)
        }
        None => Database::recover(DB_NAME, Arc::new(log.clone())),
    }
    .unwrap()
}

/// The three stacks' durable entry points over a log-only or a paged
/// database.
fn durable_rows(rows: &mut Vec<Row>, mode: &'static str) {
    for stack in ["bis", "wf", "soa"] {
        let log = MemLogStore::new();
        let pages = (mode == "paged").then(MemPageStore::new);
        let db = open(&log, pages.as_ref());
        seed_orders(&db);
        let process = durable_running_example();
        let deployment = bis::BisDeployment::new(bis::DataSourceRegistry::new().with(db.clone()));
        let wf_service = wf::SqlWorkflowPersistenceService::new(&db).unwrap();
        let run = |key: &str| -> FlowResult<DurableRun> {
            match stack {
                "bis" => deployment.run_durable(DB_NAME, &process, key, &Variables::new()),
                "wf" => wf_service.run_workflow(&process, key, &Variables::new(), &mut runtime()),
                _ => soa::run_durable_pages(
                    &db,
                    "OrderAggregation/SOA",
                    &SOA_PAGES,
                    key,
                    &[],
                    &mut runtime(),
                ),
            }
        };
        for (phase, key) in [("first", "i1"), ("steady", "i2")] {
            let (counters, result) = measure(&db, || run(key).unwrap());
            assert_eq!(result.steps_executed, 3, "{mode}/{stack}/{phase}");
            rows.push(Row {
                mode,
                stack,
                phase,
                counters,
                audit_events: 0,
            });
        }
        let (counters, ()) = measure(&db, || db.checkpoint().unwrap());
        rows.push(Row {
            mode,
            stack,
            phase: "checkpoint",
            counters,
            audit_events: 0,
        });
        let fingerprint = db_fingerprint(&db);
        drop((deployment, wf_service, db));
        let reopened = open(&log, pages.as_ref());
        rows.push(Row {
            mode,
            stack,
            phase: "reopen",
            counters: read_counters(&reopened.snapshot()),
            audit_events: 0,
        });
        assert_eq!(
            db_fingerprint(&reopened),
            fingerprint,
            "{mode}/{stack}: reopen changed the state"
        );
    }
}

fn render(rows: &[Row]) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
    format!(
        "{{\n  \"workload\": \"running_example\",\n  \"regenerate\": \"{REGENERATE}\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

#[test]
fn running_example_work_matches_the_committed_budget() {
    let mut rows = Vec::new();
    memory_rows(&mut rows);
    durable_rows(&mut rows, "log");
    durable_rows(&mut rows, "paged");
    let actual = render(&rows);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(BUDGET);
    if std::env::var("WORK_RECORD").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual != expected {
        let mut diff = String::new();
        for (want, got) in expected.lines().zip(actual.lines()) {
            if want != got {
                diff.push_str(&format!("- {want}\n+ {got}\n"));
            }
        }
        let (want, got) = (expected.lines().count(), actual.lines().count());
        if want != got {
            diff.push_str(&format!("({want} committed lines, {got} measured)\n"));
        }
        panic!("the running example's work changed; re-record with `{REGENERATE}` and explain the diff:\n{diff}");
    }
}
