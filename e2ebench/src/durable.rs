//! The durable running example over paged storage with retained history.
//!
//! One instance aggregates approved orders (SQL_1), orders every item
//! from the supplier and records its confirmation with `NEXTVAL`, then
//! closes: three durable steps. It runs round-robin through the three
//! stacks' durable entry points: `BisDeployment::run_durable`,
//! `SqlWorkflowPersistenceService::run_workflow` and
//! `soa::run_durable_pages`. The database is `Database::open_paged` over
//! in-memory log and page stores (no fsync) with a 256-page pool.
//!
//! `FLOW_INSTANCES` is a sliding window of the most recent `history`
//! instances: between batches the oldest completed rows are purged, so
//! the table size is the same at every batch start however fast the
//! instances run. Between batches a checkpoint runs only once 16 MiB were
//! logged since the last one, which bounds the log's memory.

use std::sync::Arc;
use std::time::Instant;

use flowcore::persistence::{DurableProcess, DurableRun, PersistenceService};
use flowcore::retry::{RetryPolicy, RetryRuntime};
use flowcore::{Message, VarValue, Variables};
use sqlkernel::{Database, MemLogStore, MemPageStore, PageStore, PagedEngine, Value};

use crate::trace::{self, Slot};
use crate::world::{self, OrdersModel};

/// The durable stacks, in metric-name order.
pub const STACKS: [&str; 3] = ["bis", "wf", "soa"];

/// Buffer-pool size of the paged engine.
pub const POOL_PAGES: usize = 256;

/// Log volume between checkpoints during the timed phase.
const LOG_CHECKPOINT_BYTES: u64 = 16 << 20;

const DB_NAME: &str = "orders_db";

/// The SOA realization as XSQL pages. XSQL cannot call a Web service, so
/// the confirmation text is computed in SQL; the rows recorded are the
/// same as the other stacks'.
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

/// The benchmark-owned step bodies shared by the BIS and WF stacks.
fn running_example(name: &str) -> DurableProcess {
    DurableProcess::new(name)
        .step("aggregate", |conn, vars| {
            trace::span(Slot::StepBody, || {
                let rs = conn.query(&world::sql_1(), &[])?;
                vars.set("SV_ItemList", VarValue::Xml(xmlval::rowset::encode(&rs)));
                Ok(())
            })
        })
        .step("order", |conn, vars| {
            trace::span(Slot::StepBody, || {
                let items = xmlval::rowset::decode(vars.require_xml("SV_ItemList")?)?;
                for row in &items.rows {
                    let reply = world::supplier(
                        &Message::new()
                            .with_part("ItemType", row[0].clone())
                            .with_part("Quantity", row[1].clone()),
                    )?;
                    let confirmation = reply.scalar_part("Confirmation")?.clone();
                    conn.execute(
                        "INSERT INTO OrderConfirmations (ConfId, ItemId, Quantity, Confirmation) \
                         VALUES (NEXTVAL('conf_ids'), ?, ?, ?)",
                        &[row[0].clone(), row[1].clone(), confirmation],
                    )?;
                }
                vars.set("Confirmed", Value::Int(items.rows.len() as i64));
                Ok(())
            })
        })
        .step("close", |_conn, vars| {
            trace::span(Slot::StepBody, || {
                vars.set("Closed", Value::Bool(true));
                Ok(())
            })
        })
}

fn runtime() -> RetryRuntime {
    RetryRuntime::new(0).with_policy(RetryPolicy::no_retry())
}

/// Instance keys sort in creation order, so the retention purge is one
/// range predicate.
pub fn instance_key(n: u64) -> String {
    format!("h{n:09}")
}

/// Number of instances that are not `completed`.
fn unfinished(db: &Database) -> Result<i64, String> {
    let rs = db
        .connect()
        .query(
            "SELECT COUNT(*) FROM FLOW_INSTANCES WHERE Status <> ?",
            &[Value::text(flowcore::persistence::STATUS_COMPLETED)],
        )
        .map_err(|e| e.to_string())?;
    rs.rows[0][0]
        .as_i64()
        .ok_or_else(|| "count is not an integer".to_string())
}

/// A full copy of a page store: the bytes a crash leaves on disk.
fn copy_pages(src: &MemPageStore) -> MemPageStore {
    let dst = MemPageStore::new();
    let pages = src.page_count().expect("in-memory page count");
    for no in 0..pages {
        let page = src.read_page(no).expect("in-memory page read");
        dst.write_page(no, &page).expect("in-memory page write");
    }
    dst
}

/// What a crash and reopen measured.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// `Database::open_paged` of identical copies of the crashed stores.
    pub reopen_s: Vec<f64>,
    /// `sqlkernel::wal::scan` of the crashed log.
    pub wal_scan_s: Vec<f64>,
    /// `PagedEngine::open` plus `load_base`.
    pub pager_open_s: Vec<f64>,
    /// Sizes of the crashed log and page stores.
    pub log_bytes: usize,
    pub page_bytes: usize,
    /// Buffer-pool counters of the first reopen.
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    /// The first reopened database, for replays after the crash.
    pub reopened: Option<Database>,
}

/// A durable database with its stores and the three stacks' entry points.
pub struct DurableSession {
    log: MemLogStore,
    pages: MemPageStore,
    pub db: Database,
    model: OrdersModel,
    history: u64,
    next_key: u64,
    process: DurableProcess,
    /// The variables the gate's first instance parked: the set the codec
    /// replay encodes and decodes.
    pub parked: Variables,
    /// Duration of the set-up checkpoint, which writes the whole history.
    pub setup_checkpoint_s: f64,
    /// `wal_bytes` at the last checkpoint.
    wal_at_checkpoint: u64,
    deployment: bis::BisDeployment,
    wf_service: wf::SqlWorkflowPersistenceService,
}

impl DurableSession {
    /// Open fresh stores, seed the orders, run the correctness gate (one
    /// instance per stack), pre-seed `history` completed instances and
    /// checkpoint.
    pub fn setup(extra_orders: usize, seed: u64, history: u64) -> Result<DurableSession, String> {
        let log = MemLogStore::new();
        let pages = MemPageStore::new();
        let db = Database::open_paged(
            DB_NAME,
            Arc::new(log.clone()),
            Arc::new(pages.clone()),
            POOL_PAGES,
        )
        .map_err(|e| e.to_string())?;
        let model = world::seed_database(&db, extra_orders, seed);
        PersistenceService::new(&db).map_err(|e| e.to_string())?;
        let mut s = DurableSession {
            log,
            pages,
            deployment: bis::BisDeployment::new(bis::DataSourceRegistry::new().with(db.clone())),
            wf_service: wf::SqlWorkflowPersistenceService::new(&db).map_err(|e| e.to_string())?,
            db,
            model,
            history,
            next_key: 0,
            process: running_example("OrderAggregation/durable"),
            parked: Variables::new(),
            setup_checkpoint_s: 0.0,
            wal_at_checkpoint: 0,
        };
        for (stack, name) in STACKS.iter().enumerate() {
            s.run(stack).map_err(|e| format!("gate: {e}"))?;
            s.verify(1).map_err(|e| format!("gate {name}: {e}"))?;
        }
        s.seed_history()?;
        s.setup_checkpoint_s = s.checkpoint()?;
        Ok(s)
    }

    /// Fill `FLOW_INSTANCES` up to `history` completed rows, copying the
    /// state the gate's first instance parked.
    fn seed_history(&mut self) -> Result<(), String> {
        let conn = self.db.connect();
        let rs = conn
            .query(
                "SELECT Process, Vars, Breakers FROM FLOW_INSTANCES WHERE InstanceKey = ?",
                &[Value::text(instance_key(0))],
            )
            .map_err(|e| e.to_string())?;
        let row = rs.rows.first().ok_or("gate instance not parked")?.clone();
        self.parked =
            flowcore::persistence::decode_variables(&row[1].render()).map_err(|e| e.to_string())?;
        let rows: Vec<Vec<Value>> = (self.next_key..self.history)
            .map(|n| {
                vec![
                    Value::text(instance_key(n)),
                    row[0].clone(),
                    Value::Int(3),
                    Value::text(flowcore::persistence::STATUS_COMPLETED),
                    row[1].clone(),
                    row[2].clone(),
                ]
            })
            .collect();
        if !rows.is_empty() {
            conn.execute_batch(
                "INSERT INTO FLOW_INSTANCES VALUES (?, ?, ?, ?, ?, ?)",
                &rows,
            )
            .map_err(|e| e.to_string())?;
        }
        self.next_key = self.next_key.max(self.history);
        Ok(())
    }

    /// Run one durable instance on stack `stack` (an index into [`STACKS`]).
    pub fn run(&mut self, stack: usize) -> Result<(), String> {
        let key = instance_key(self.next_key);
        self.next_key += 1;
        let run: DurableRun = match stack {
            0 => self
                .deployment
                .run_durable(DB_NAME, &self.process, &key, &Variables::new()),
            1 => {
                self.wf_service
                    .run_workflow(&self.process, &key, &Variables::new(), &mut runtime())
            }
            _ => soa::run_durable_pages(
                &self.db,
                "OrderAggregation/SOA",
                &SOA_PAGES,
                &key,
                &[],
                &mut runtime(),
            ),
        }
        .map_err(|e| format!("{} durable: {e}", STACKS[stack]))?;
        if run.already_completed || run.steps_executed != 3 {
            return Err(format!(
                "{} durable: {} steps executed, already completed: {}",
                STACKS[stack], run.steps_executed, run.already_completed
            ));
        }
        Ok(())
    }

    /// Check the last `instances` instances' confirmations and clear them.
    pub fn verify(&self, instances: usize) -> Result<(), String> {
        world::verify_and_clear(&self.db, &self.model.expected(), instances)
    }

    /// Purge the oldest completed instances so `FLOW_INSTANCES` holds the
    /// most recent `history` rows.
    pub fn purge(&self) -> Result<(), String> {
        let floor = self.next_key.saturating_sub(self.history);
        self.db
            .connect()
            .execute(
                "DELETE FROM FLOW_INSTANCES WHERE InstanceKey < ?",
                &[Value::text(instance_key(floor))],
            )
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Checkpoint, returning its duration in seconds.
    pub fn checkpoint(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        self.db.checkpoint().map_err(|e| e.to_string())?;
        self.wal_at_checkpoint = self.db.snapshot().wal_bytes;
        Ok(start.elapsed().as_secs_f64())
    }

    /// Checkpoint once `LOG_CHECKPOINT_BYTES` were logged since the last
    /// one, which bounds the log's memory however fast instances run.
    pub fn checkpoint_if_log_full(&mut self) -> Result<(), String> {
        if self.db.snapshot().wal_bytes - self.wal_at_checkpoint >= LOG_CHECKPOINT_BYTES {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Crash (drop the database without a checkpoint) and reopen
    /// `reopens` identical copies of the crashed stores. The first
    /// reopen must hold exactly the state `fingerprint` recorded before
    /// the crash, with every instance completed.
    pub fn crash_and_reopen(self, reopens: usize) -> Result<Recovery, String> {
        let fingerprint = patterns::chaos::db_fingerprint(&self.db);
        let log_bytes = self.log.bytes();
        let page_image = copy_pages(&self.pages);
        drop(self);
        let mut out = Recovery {
            log_bytes: log_bytes.len(),
            page_bytes: page_image.len(),
            ..Recovery::default()
        };
        for i in 0..reopens.max(1) {
            let pages = copy_pages(&page_image);
            let start = Instant::now();
            let scanned = sqlkernel::wal::scan(&log_bytes);
            out.wal_scan_s.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let engine =
                PagedEngine::open(Arc::new(pages), POOL_PAGES).map_err(|e| e.to_string())?;
            engine.load_base(&scanned).map_err(|e| e.to_string())?;
            out.pager_open_s.push(start.elapsed().as_secs_f64());

            let log = MemLogStore::from_bytes(log_bytes.clone());
            let pages = copy_pages(&page_image);
            let start = Instant::now();
            let db = Database::open_paged(DB_NAME, Arc::new(log), Arc::new(pages), POOL_PAGES)
                .map_err(|e| format!("reopen: {e}"))?;
            out.reopen_s.push(start.elapsed().as_secs_f64());
            if i == 0 {
                let stats = db.snapshot();
                out.pool_hits = stats.pool_hits;
                out.pool_misses = stats.pool_misses;
                out.pool_evictions = stats.pool_evictions;
                if patterns::chaos::db_fingerprint(&db) != fingerprint {
                    return Err("reopened state differs from the state before the crash".into());
                }
                let unfinished = unfinished(&db)?;
                if unfinished != 0 {
                    return Err(format!("{unfinished} instances not completed after reopen"));
                }
                out.reopened = Some(db);
            }
        }
        Ok(out)
    }
}
