//! The running example's engine work, pinned as a committed budget.
//!
//! Wall-clock timing on a shared host cannot resolve effects below
//! about 15%. The engine's own counters can: for a fixed workload they
//! repeat exactly, on any number of CPUs. This test runs the paper's
//! running example on each stack and asserts the delta of every
//! `DbStats` field against `docs/outputs/WORK_running_example.json`,
//! byte for byte.
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
//! Beside the counters, every row records the heap allocations the
//! phase made and the bytes they asked for, counted on the measuring
//! thread by this binary's own global allocator (a `realloc` counts as
//! one allocation of its new size). Counters do not see copies;
//! allocations do. The durable modes' `steady` and `checkpoint` rows
//! also pin an FNV-1a digest of the whole log, so the log's content is
//! pinned and not only its length. Allocation counts depend on the
//! standard library, so the file names the `rustc` it was recorded
//! with.
//!
//! A change that alters the work re-records the file and explains the
//! diff in its change notes:
//!
//! ```text
//! WORK_RECORD=1 cargo test --test work_budget
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use flowsql::adapter;
use flowsql::bis;
use flowsql::flowcore::persistence::{DurableProcess, DurableRun};
use flowsql::flowcore::retry::{RetryPolicy, RetryRuntime};
use flowsql::flowcore::{Engine, FlowResult, VarValue, Variables};
use flowsql::patterns::chaos::db_fingerprint;
use flowsql::patterns::probe::{aggregation_query, seed_orders, ProbeEnv};
use flowsql::soa;
use flowsql::sqlkernel::{Database, MemLogStore, MemPageStore, Value};
use flowsql::wf;
use flowsql::xmlval;

const BUDGET: &str = "docs/outputs/WORK_running_example.json";

const REGENERATE: &str = "WORK_RECORD=1 cargo test --test work_budget";

const DB_NAME: &str = "orders_db";

// ------------------------------------------------------------ allocations

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    /// Allocations made by this thread and the bytes they asked for.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note_alloc(bytes: usize) {
    // `try_with`: a thread tearing down its locals may still free and
    // allocate; those are not measured.
    let _ = ALLOCATED.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counting touches only a `const` thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> (u64, u64) {
    ALLOCATED.with(Cell::get)
}

/// The `rustc` release that built this test (`rustc --version`'s second
/// word), or `unknown`.
fn rustc_release() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|v| v.split_whitespace().nth(1).map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// What one phase did: the delta of every `DbStats` field, by name in
/// declaration order (`pool_misses` is the number of pages read from
/// the page store), and the allocations it made.
struct Work {
    counters: Vec<(&'static str, u64)>,
    allocs: u64,
    alloc_bytes: u64,
}

/// One measured phase: its work plus the flowcore audit events it
/// recorded (0 where no audited process ran) and, where taken, the
/// digest of the log after it.
struct Row {
    mode: &'static str,
    stack: &'static str,
    phase: &'static str,
    work: Work,
    audit_events: usize,
    log_fnv: Option<u64>,
}

impl Row {
    fn render(&self) -> String {
        let mut out = format!(
            "{{\"mode\": \"{}\", \"stack\": \"{}\", \"phase\": \"{}\"",
            self.mode, self.stack, self.phase
        );
        for (name, value) in &self.work.counters {
            out.push_str(&format!(", \"{name}\": {value}"));
        }
        out.push_str(&format!(
            ", \"allocs\": {}, \"alloc_bytes\": {}, \"audit_events\": {}",
            self.work.allocs, self.work.alloc_bytes, self.audit_events
        ));
        if let Some(fnv) = self.log_fnv {
            out.push_str(&format!(", \"log_fnv\": \"{fnv:016x}\""));
        }
        out.push('}');
        out
    }
}

/// Counter deltas of `db` and this thread's allocations over `f`.
fn measure<T>(db: &Database, f: impl FnOnce() -> T) -> (Work, T) {
    let before = db.snapshot().fields();
    let (allocs, bytes) = allocated();
    let out = f();
    let (allocs_after, bytes_after) = allocated();
    let after = db.snapshot().fields();
    let work = Work {
        counters: after
            .into_iter()
            .zip(before)
            .map(|((name, a), (_, b))| (name, a - b))
            .collect(),
        allocs: allocs_after - allocs,
        alloc_bytes: bytes_after - bytes,
    };
    (work, out)
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
            let (work, inst) = measure(&env.db, || engine.run(&process, Variables::new()).unwrap());
            assert!(inst.is_completed(), "{stack}: {:?}", inst.outcome);
            rows.push(Row {
                mode: "memory",
                stack,
                phase,
                work,
                audit_events: inst.audit.events().len(),
                log_fnv: None,
            });
        }
        let (work, ()) = measure(&env.db, || env.db.checkpoint().unwrap());
        rows.push(Row {
            mode: "memory",
            stack,
            phase: "checkpoint",
            work,
            audit_events: 0,
            log_fnv: None,
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

/// FNV-1a 64 of the log. The digest is the test's own, so it moves only
/// when the log's bytes do, never when the engine's checksum changes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
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
        let log_fnv = || fnv1a(&log.bytes());
        for (phase, key) in [("first", "i1"), ("steady", "i2")] {
            let (work, result) = measure(&db, || run(key).unwrap());
            assert_eq!(result.steps_executed, 3, "{mode}/{stack}/{phase}");
            rows.push(Row {
                mode,
                stack,
                phase,
                work,
                audit_events: 0,
                log_fnv: (phase == "steady").then(log_fnv),
            });
        }
        let (work, ()) = measure(&db, || db.checkpoint().unwrap());
        rows.push(Row {
            mode,
            stack,
            phase: "checkpoint",
            work,
            audit_events: 0,
            log_fnv: Some(log_fnv()),
        });
        let fingerprint = db_fingerprint(&db);
        drop((deployment, wf_service, db));
        let (allocs, bytes) = allocated();
        let reopened = open(&log, pages.as_ref());
        let (allocs_after, bytes_after) = allocated();
        rows.push(Row {
            mode,
            stack,
            phase: "reopen",
            work: Work {
                counters: reopened.snapshot().fields().to_vec(),
                allocs: allocs_after - allocs,
                alloc_bytes: bytes_after - bytes,
            },
            audit_events: 0,
            log_fnv: None,
        });
        assert_eq!(
            db_fingerprint(&reopened),
            fingerprint,
            "{mode}/{stack}: reopen changed the state"
        );
    }
}

/// The budget file's line naming the `rustc` release.
fn rustc_line(release: &str) -> String {
    format!("  \"rustc\": \"{release}\",")
}

fn render(rows: &[Row], rustc: &str) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
    format!(
        "{{\n  \"workload\": \"running_example\",\n  \"regenerate\": \"{REGENERATE}\",\n{}\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        rustc_line(rustc),
        body.join(",\n")
    )
}

#[test]
fn running_example_work_matches_the_committed_budget() {
    let mut rows = Vec::new();
    memory_rows(&mut rows);
    durable_rows(&mut rows, "log");
    durable_rows(&mut rows, "paged");
    let rustc = rustc_release();
    let actual = render(&rows, &rustc);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(BUDGET);
    if std::env::var("WORK_RECORD").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    // The rustc line alone is no failure: the rows decide.
    let recorded = expected
        .lines()
        .find_map(|l| l.strip_prefix("  \"rustc\": \"")?.strip_suffix("\","))
        .unwrap_or("unknown");
    let rows_of = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with("  \"rustc\""))
            .map(str::to_owned)
            .collect()
    };
    let (want_rows, got_rows) = (rows_of(&expected), rows_of(&actual));
    if want_rows != got_rows {
        let mut diff = String::new();
        for (want, got) in want_rows.iter().zip(&got_rows) {
            if want != got {
                diff.push_str(&format!("- {want}\n+ {got}\n"));
            }
        }
        let (want, got) = (want_rows.len(), got_rows.len());
        if want != got {
            diff.push_str(&format!("({want} committed lines, {got} measured)\n"));
        }
        panic!(
            "the running example's work changed (budget recorded with rustc {recorded}, \
             measured with rustc {rustc}; allocation counts move with the standard library, \
             so compare on the recorded release first); re-record with `{REGENERATE}` and \
             explain the diff:\n{diff}"
        );
    }
}
