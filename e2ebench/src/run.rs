//! The workloads, the closed-loop timed phase, and the per-layer replays.
//!
//! One client thread drives one instance at a time. The timed phase is a
//! sequence of fixed-size batches; untimed maintenance between batches
//! (verification, fresh databases, purges) returns the data
//! to the same state at every batch start, so the per-instance cost does
//! not drift with run length.

use std::collections::BTreeMap;
use std::time::Instant;

use flowcore::Variables;
use sqlkernel::{Database, DbStats, SplitMix64, Value};

use crate::durable::{self, DurableSession, Recovery};
use crate::report::{mean, median, percentile, ratio, Metrics};
use crate::trace::{self, Slot};
use crate::world::{self, OrdersModel, World};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RunningExample,
    LargeOrders,
    DurableHistory,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RunningExample,
        Workload::LargeOrders,
        Workload::DurableHistory,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RunningExample => "running_example",
            Workload::LargeOrders => "large_orders",
            Workload::DurableHistory => "durable_history",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Data sizes and repetition counts. [`Sizes::full`] is the benchmark;
/// [`Sizes::tiny`] exercises every code path in well under a second.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Generated Orders rows on `large_orders` (on top of the paper's 6).
    pub large_orders: usize,
    /// Retained `FLOW_INSTANCES` rows on `durable_history`.
    pub history: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed warm-up batches at the end of each set-up, per workload
    /// (in [`Workload::ALL`] order).
    pub warmup_batches: [usize; 3],
    /// Reopens of copies of the crashed stores.
    pub reopens: usize,
    /// Traced batches the per-instance counts are taken from.
    pub count_batches: usize,
    /// Batches of the probes that measure layers a workload's loop skips.
    pub probe_batches: usize,
    /// Repetitions of each replay.
    pub replays: usize,
    /// Timed batches run even when `--seconds` has passed.
    pub min_batches: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            large_orders: 20_000,
            history: 20_000,
            setups: 5,
            warmup_batches: [16, 8, 1],
            reopens: 7,
            count_batches: 4,
            probe_batches: 8,
            replays: 201,
            min_batches: 8,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            large_orders: 300,
            history: 200,
            setups: 2,
            warmup_batches: [1, 1, 1],
            reopens: 2,
            count_batches: 2,
            probe_batches: 2,
            replays: 5,
            min_batches: 4,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// What a run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// One JSON object: seed, git rev, host, sample counts, table sizes.
    pub record: String,
    pub error: Option<String>,
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// `DbStats` fields the traced run reports per instance.
const COUNTERS: [&str; 15] = [
    "full_scan_rows",
    "index_scans",
    "batched_rows",
    "hash_aggs",
    "rows_returned",
    "snapshots_taken",
    "version_chains_walked",
    "versions_gced",
    "wal_appends",
    "wal_commits",
    "wal_bytes",
    "parses",
    "plan_binds",
    "stmt_cache_hits",
    "stmt_cache_misses",
];

type Counts = [u64; COUNTERS.len()];

fn counters(s: &DbStats) -> Counts {
    [
        s.full_scan_rows,
        s.index_scans,
        s.batched_rows,
        s.hash_aggs,
        s.rows_returned,
        s.snapshots_taken,
        s.version_chains_walked,
        s.versions_gced,
        s.wal_appends,
        s.wal_commits,
        s.wal_bytes,
        s.parses,
        s.plan_binds,
        s.stmt_cache_hits,
        s.stmt_cache_misses,
    ]
}

fn counter(c: &Counts, name: &str) -> u64 {
    c[COUNTERS
        .iter()
        .position(|n| *n == name)
        .expect("known counter")]
}

fn add_delta(acc: &mut Counts, before: &Counts, after: &Counts) {
    for i in 0..acc.len() {
        acc[i] += after[i] - before[i];
    }
}

// ---------------------------------------------------------------------------
// Benches: what one instance and one batch are
// ---------------------------------------------------------------------------

trait Bench {
    fn stacks(&self) -> &'static [&'static str];
    /// Instances per batch, a multiple of the stack count.
    fn batch_len(&self) -> usize;
    fn db(&self) -> &Database;
    /// Timed work at the start of a batch.
    fn before_batch(&mut self, _batch: usize) -> Result<(), String> {
        Ok(())
    }
    /// One instance on `stack`; returns its audit-event count.
    fn run(&mut self, stack: usize) -> Result<usize, String>;
    /// Does `stack` run the benchmark's own step bodies?
    fn owns_bodies(&self, _stack: usize) -> bool {
        false
    }
    /// Untimed: check the batch's `instances` and restore the start state.
    fn after_batch(&mut self, instances: usize) -> Result<(), String>;
}

/// The four in-memory stacks through `Engine::run`.
struct EngineBench {
    world: World,
    model: OrdersModel,
    extra: usize,
    seed: u64,
    /// `running_example`: every batch starts from a freshly seeded database.
    fresh_per_batch: bool,
    /// `large_orders`: a set-oriented non-key UPDATE starts every batch.
    flip: bool,
}

impl EngineBench {
    fn new(extra: usize, seed: u64, fresh_per_batch: bool, flip: bool) -> EngineBench {
        let db = Database::new("orders_db");
        let model = world::seed_database(&db, extra, seed);
        EngineBench {
            world: World::new(db),
            model,
            extra,
            seed,
            fresh_per_batch,
            flip,
        }
    }
}

impl Bench for EngineBench {
    fn stacks(&self) -> &'static [&'static str] {
        &world::STACKS
    }

    fn batch_len(&self) -> usize {
        if self.flip {
            32
        } else {
            64
        }
    }

    fn db(&self) -> &Database {
        &self.world.db
    }

    fn before_batch(&mut self, batch: usize) -> Result<(), String> {
        if self.flip {
            let item = (batch + self.seed as usize) % world::ITEMS.len();
            self.world
                .db
                .connect()
                .execute(
                    "UPDATE Orders SET Approved = NOT Approved WHERE ItemId = ?",
                    &[Value::text(world::ITEMS[item])],
                )
                .map_err(|e| format!("non-key UPDATE: {e}"))?;
            self.model.flip(item);
        }
        Ok(())
    }

    fn run(&mut self, stack: usize) -> Result<usize, String> {
        Ok(self.world.run(stack)?.audit.events().len())
    }

    fn after_batch(&mut self, instances: usize) -> Result<(), String> {
        let expected = self.model.expected();
        let direct = world::direct_answer(&self.world.db)?;
        if direct != expected {
            return Err(format!(
                "direct SQL_1 answer {direct:?} differs from the model {expected:?}"
            ));
        }
        world::verify_and_clear(&self.world.db, &expected, instances)?;
        if self.fresh_per_batch {
            *self = EngineBench::new(self.extra, self.seed, true, self.flip);
        }
        Ok(())
    }
}

/// The three durable stacks over paged storage.
impl Bench for DurableSession {
    fn stacks(&self) -> &'static [&'static str] {
        &durable::STACKS
    }

    fn batch_len(&self) -> usize {
        6
    }

    fn db(&self) -> &Database {
        &self.db
    }

    fn run(&mut self, stack: usize) -> Result<usize, String> {
        DurableSession::run(self, stack)?;
        Ok(0)
    }

    fn owns_bodies(&self, stack: usize) -> bool {
        durable::STACKS[stack] != "soa"
    }

    fn after_batch(&mut self, instances: usize) -> Result<(), String> {
        self.verify(instances)?;
        self.purge()?;
        self.checkpoint_if_log_full()
    }
}

/// Checkpoint, run one more batch, crash, and reopen copies of the crashed
/// stores. A paged checkpoint keeps the log past the previous anchor, so
/// checkpointing twice leaves the crash batch as the whole log tail,
/// whatever the run length. Returns the instances run.
fn crash(
    mut session: DurableSession,
    seed: u64,
    reopens: usize,
    checkpoint_s: Vec<f64>,
) -> Result<(DurableFinish, u64), String> {
    session.checkpoint()?;
    session.checkpoint()?;
    let vars = session.parked.clone();
    let n = session.batch_len();
    let offset = seed as usize % durable::STACKS.len();
    for i in 0..n {
        DurableSession::run(&mut session, (i + offset) % durable::STACKS.len())?;
    }
    session.verify(n)?;
    session.purge()?;
    let recovery = session.crash_and_reopen(reopens)?;
    Ok((
        DurableFinish {
            recovery,
            checkpoint_s,
            vars,
        },
        n as u64,
    ))
}

struct DurableFinish {
    recovery: Recovery,
    checkpoint_s: Vec<f64>,
    vars: Variables,
}

// ---------------------------------------------------------------------------
// The timed loop
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    Off,
    /// Odd batches traced, even batches not: the overhead comparison.
    Alternate,
    All,
}

struct Plan {
    seconds: f64,
    min_batches: usize,
    max_batches: Option<usize>,
    trace: TraceMode,
    count_batches: usize,
}

#[derive(Default)]
struct LoopOut {
    /// Latency of every untraced instance, batch after batch; batch `i`
    /// ends at `batch_ends[i]`. One flat buffer keeps the samples out of
    /// the heap the program under test allocates from.
    lat_us: Vec<f64>,
    batch_ends: Vec<usize>,
    /// Instances per second of each untraced and each traced batch.
    rates: Vec<f64>,
    traced_rates: Vec<f64>,
    /// Traced instance latency per stack.
    stack_us: Vec<Vec<f64>>,
    /// Counter deltas over the count window, in total and per stack.
    counts: Counts,
    stack_counts: Vec<Counts>,
    stack_instances: Vec<u64>,
    count_instances: u64,
    audit_events: u64,
    /// Spans over traced batches.
    service_ns: u64,
    service_calls: u64,
    body_ns: u64,
    owned_entry_ns: u64,
    owned_instances: u64,
    attempted: u64,
}

/// Run batches as `plan` says. `between` runs after each batch's
/// maintenance with the seconds elapsed so far; its time is in no batch.
fn timed_loop(
    b: &mut dyn Bench,
    seed: u64,
    plan: &Plan,
    between: &mut dyn FnMut(f64) -> Result<(), String>,
) -> (LoopOut, Result<(), String>) {
    let stacks = b.stacks().len();
    let n = b.batch_len();
    let offset = seed as usize % stacks;
    let mut out = LoopOut {
        lat_us: Vec::with_capacity(1 << 20),
        stack_us: vec![Vec::new(); stacks],
        stack_counts: vec![[0; COUNTERS.len()]; stacks],
        stack_instances: vec![0; stacks],
        ..LoopOut::default()
    };
    let start = Instant::now();
    let mut traced_batches = 0usize;
    for batch in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        let done = batch >= plan.min_batches && elapsed >= plan.seconds;
        if done || plan.max_batches.is_some_and(|m| batch >= m) {
            break;
        }
        let traced = match plan.trace {
            TraceMode::Off => false,
            TraceMode::Alternate => batch % 2 == 1,
            TraceMode::All => true,
        };
        let counting = traced && traced_batches < plan.count_batches;
        let (service0, body0) = (trace::totals(Slot::Service), trace::totals(Slot::StepBody));
        trace::set(traced);
        let batch_start = Instant::now();
        let result = (|| {
            b.before_batch(batch)?;
            for i in 0..n {
                let stack = (i + offset) % stacks;
                let before = counting.then(|| counters(&b.db().snapshot()));
                out.attempted += 1;
                let t = Instant::now();
                let events = b.run(stack)?;
                let ns = t.elapsed().as_nanos() as u64;
                if let Some(before) = before {
                    let after = counters(&b.db().snapshot());
                    add_delta(&mut out.counts, &before, &after);
                    add_delta(&mut out.stack_counts[stack], &before, &after);
                    out.stack_instances[stack] += 1;
                    out.count_instances += 1;
                    out.audit_events += events as u64;
                }
                if traced {
                    out.stack_us[stack].push(ns as f64 / 1e3);
                    if b.owns_bodies(stack) {
                        out.owned_entry_ns += ns;
                        out.owned_instances += 1;
                    }
                } else {
                    out.lat_us.push(ns as f64 / 1e3);
                }
            }
            Ok::<_, String>(())
        })();
        let rate = n as f64 / batch_start.elapsed().as_secs_f64();
        trace::set(false);
        if let Err(e) = result {
            return (out, Err(e));
        }
        if traced {
            traced_batches += 1;
            out.traced_rates.push(rate);
            let (service1, body1) = (trace::totals(Slot::Service), trace::totals(Slot::StepBody));
            out.service_ns += service1.0 - service0.0;
            out.service_calls += service1.1 - service0.1;
            out.body_ns += body1.0 - body0.0;
        } else {
            out.rates.push(rate);
            out.batch_ends.push(out.lat_us.len());
        }
        if let Err(e) = b
            .after_batch(n)
            .and_then(|()| between(start.elapsed().as_secs_f64()))
        {
            return (out, Err(e));
        }
    }
    (out, Ok(()))
}

/// The host alternates, on a scale of seconds, between a fast state and
/// one about 1.5 times slower (a co-tenant on the same physical core:
/// thread CPU time inflates by the same factor, so it is not preemption).
/// End-to-end figures come from the fast state: the batches whose
/// throughput is within 15% of the 90th-percentile batch. Returns their
/// indices.
fn fast_batches(rates: &[f64]) -> Vec<usize> {
    let floor = 0.85 * percentile(rates, 90.0);
    (0..rates.len()).filter(|&i| rates[i] >= floor).collect()
}

// ---------------------------------------------------------------------------
// Replays: single layers timed at the workload's data
// ---------------------------------------------------------------------------

fn time_us(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let t = Instant::now();
    f()?;
    Ok(t.elapsed().as_nanos() as f64 / 1e3)
}

fn median_us(n: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let samples = (0..n)
        .map(|_| time_us(&mut f))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(median(&samples))
}

/// Replays at the workload's table sizes. `pk_update` is the primary-key
/// UPDATE on the workload's largest table and the keys it draws from.
fn replays(
    db: &Database,
    vars: &Variables,
    pk_update: &str,
    keys: &[Value],
    n: usize,
    seed: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let conn = db.connect();
    let sql = world::sql_1();
    let err = |e: sqlkernel::SqlError| e.to_string();
    // Back-to-back pairs, so the RowSet overhead is not lost in the
    // query's own noise on a large Orders table.
    let mut sql1 = Vec::with_capacity(n);
    let mut rowset_overhead = Vec::with_capacity(n);
    for _ in 0..n {
        let plain = time_us(|| conn.query(&sql, &[]).map(|_| ()).map_err(err))?;
        let wrapped = time_us(|| {
            soa::functions::query_database(db, &sql)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })?;
        sql1.push(plain);
        rowset_overhead.push(wrapped - plain);
    }
    let rs = conn.query(&sql, &[]).map_err(err)?;
    let rowset = median_us(n, || {
        let node = xmlval::rowset::encode(&rs);
        xmlval::rowset::decode(&node)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    let codec = median_us(n, || {
        let text = flowcore::persistence::encode_variables(vars).map_err(|e| e.to_string())?;
        flowcore::persistence::decode_variables(&text)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let before = db.snapshot().full_scan_rows;
    let pk = median_us(n, || {
        let key = keys[rng.next_below(keys.len() as u64) as usize].clone();
        conn.execute(pk_update, &[key]).map(|_| ()).map_err(err)
    })?;
    let scanned = db.snapshot().full_scan_rows - before;

    // A 1-row autocommit INSERT: every 256th commit pays the GC sweep over
    // every row of every table, so mean minus median is its amortized cost.
    conn.execute("CREATE TABLE bench_probe (id INT PRIMARY KEY, v INT)", &[])
        .map_err(err)?;
    let inserts = (0..1024i64)
        .map(|i| {
            time_us(|| {
                conn.execute(
                    "INSERT INTO bench_probe VALUES (?, ?)",
                    &[Value::Int(i), Value::Int(i)],
                )
                .map(|_| ())
                .map_err(err)
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    m.push("flowcore.codec_us", codec, "us");
    m.push("soa.query_database_us", median(&rowset_overhead), "us");
    m.push("xmlval.rowset_us", rowset, "us");
    m.push("sqlkernel.exec.sql1_us", median(&sql1), "us");
    m.push("sqlkernel.dml.pk_update_us", pk, "us");
    m.push(
        "sqlkernel.dml.scan_rows_per_update",
        ratio(scanned as f64, n as f64),
        "rows",
    );
    m.push(
        "sqlkernel.mvcc.gc_excess_us",
        mean(&inserts) - median(&inserts),
        "us",
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-layer metrics from a loop
// ---------------------------------------------------------------------------

fn per_instance(out: &LoopOut, name: &str) -> f64 {
    ratio(
        counter(&out.counts, name) as f64,
        out.count_instances as f64,
    )
}

/// Engine-side layers: flowcore dispatch per stack, the audit trail, the
/// supplier control and the SQL front end per stack.
fn engine_layers(out: &LoopOut, m: &mut Metrics) {
    for (s, stack) in world::STACKS.iter().enumerate() {
        m.push(
            format!("flowcore.engine.instance_us.{stack}"),
            median(&out.stack_us[s]),
            "us",
        );
    }
    m.push(
        "flowcore.audit_events",
        ratio(out.audit_events as f64, out.count_instances as f64),
        "count",
    );
    m.push(
        "service.invoke_us",
        ratio(out.service_ns as f64, out.service_calls as f64) / 1e3,
        "us",
    );
    for (s, stack) in world::STACKS.iter().enumerate() {
        let c = &out.stack_counts[s];
        let n = out.stack_instances[s] as f64;
        let hits = counter(c, "stmt_cache_hits") as f64;
        let misses = counter(c, "stmt_cache_misses") as f64;
        m.push(
            format!("sqlkernel.parses.{stack}"),
            ratio(counter(c, "parses") as f64, n),
            "count",
        );
        m.push(
            format!("sqlkernel.plan_binds.{stack}"),
            ratio(counter(c, "plan_binds") as f64, n),
            "count",
        );
        m.push(
            format!("sqlkernel.stmt_cache_hit_ratio.{stack}"),
            ratio(hits, hits + misses),
            "ratio",
        );
    }
}

/// Durable-side layers: persistence, WAL, pager and recovery.
fn durable_layers(out: &LoopOut, fin: &DurableFinish, m: &mut Metrics) {
    let owned = out.owned_instances as f64;
    m.push(
        "flowcore.persistence.self_us",
        ratio(out.owned_entry_ns.saturating_sub(out.body_ns) as f64, owned) / 1e3,
        "us",
    );
    m.push(
        "flowcore.persistence.step_body_us",
        ratio(out.body_ns as f64, owned) / 1e3,
        "us",
    );
    for (s, stack) in durable::STACKS.iter().enumerate() {
        m.push(
            format!("flowcore.persistence.instance_us.{stack}"),
            median(&out.stack_us[s]),
            "us",
        );
    }
    m.push(
        "sqlkernel.wal.appends",
        per_instance(out, "wal_appends"),
        "count",
    );
    m.push(
        "sqlkernel.wal.commits",
        per_instance(out, "wal_commits"),
        "count",
    );
    m.push(
        "sqlkernel.wal.bytes",
        per_instance(out, "wal_bytes"),
        "bytes",
    );
    let r = &fin.recovery;
    m.push("sqlkernel.wal.scan_s", median(&r.wal_scan_s), "s");
    m.push("sqlkernel.pager.open_s", median(&r.pager_open_s), "s");
    m.push("sqlkernel.pager.pool_hits", r.pool_hits as f64, "count");
    m.push("sqlkernel.pager.pool_misses", r.pool_misses as f64, "count");
    m.push(
        "sqlkernel.pager.pool_evictions",
        r.pool_evictions as f64,
        "count",
    );
    m.push(
        "sqlkernel.pager.checkpoint_s",
        median(&fin.checkpoint_s),
        "s",
    );
    m.push("recover_s", median(&r.reopen_s), "s");
}

/// Executor and MVCC counts per instance of the workload's own loop.
fn loop_counts(out: &LoopOut, m: &mut Metrics) {
    for name in [
        "full_scan_rows",
        "index_scans",
        "batched_rows",
        "hash_aggs",
        "rows_returned",
    ] {
        m.push(
            format!("sqlkernel.exec.{name}"),
            per_instance(out, name),
            "count",
        );
    }
    for name in ["snapshots_taken", "version_chains_walked", "versions_gced"] {
        m.push(
            format!("sqlkernel.mvcc.{name}"),
            per_instance(out, name),
            "count",
        );
    }
}

// ---------------------------------------------------------------------------
// Running a workload
// ---------------------------------------------------------------------------

/// A set-up workload: the in-memory stacks or the durable ones.
enum Session {
    Engine(EngineBench),
    Durable(Box<DurableSession>),
}

impl Session {
    fn bench(&mut self) -> &mut dyn Bench {
        match self {
            Session::Engine(b) => b,
            Session::Durable(b) => b.as_mut(),
        }
    }

    fn db(&self) -> &Database {
        match self {
            Session::Engine(b) => b.db(),
            Session::Durable(b) => b.db(),
        }
    }
}

fn setup(cfg: &Config) -> Result<Session, String> {
    let s = &cfg.sizes;
    let mut session = match cfg.workload {
        Workload::RunningExample => {
            let b = EngineBench::new(0, cfg.seed, true, false);
            let expected: Vec<world::Confirmation> = patterns::probe::expected_item_list()
                .into_iter()
                .map(|(item, qty)| (item.to_string(), qty, format!("confirmed:{item}:{qty}")))
                .collect();
            world::gate_stacks(&b.world, &expected)?;
            Session::Engine(b)
        }
        Workload::LargeOrders => {
            let b = EngineBench::new(s.large_orders, cfg.seed, false, true);
            world::gate_stacks(&b.world, &world::direct_answer(b.db())?)?;
            Session::Engine(b)
        }
        Workload::DurableHistory => {
            Session::Durable(Box::new(DurableSession::setup(0, cfg.seed, s.history)?))
        }
    };
    let warmup = Plan {
        seconds: 0.0,
        min_batches: s.warmup_batches[cfg.workload as usize],
        max_batches: Some(s.warmup_batches[cfg.workload as usize]),
        trace: TraceMode::Off,
        count_batches: 0,
    };
    timed_loop(session.bench(), cfg.seed, &warmup, &mut |_| Ok(()))
        .1
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(session)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn sizes_json(sizes: &BTreeMap<String, usize>) -> String {
    let fields: Vec<String> = sizes.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

/// Run one workload as `cfg` says.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut record = vec![
        format!("\"workload\": \"{}\"", cfg.workload.name()),
        format!("\"seed\": {}", cfg.seed),
        format!("\"git_rev\": {}", crate::report::json_str(&git_rev())),
        format!(
            "\"host_cpus\": {}",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
        format!("\"trace\": {}", cfg.trace),
        format!("\"seconds\": {}", cfg.seconds),
    ];
    let result = run_inner(cfg, &mut report, &mut record);
    report.correct = result.is_ok();
    if let Err(e) = result {
        report.failed = report.failed.max(1);
        report.attempted = report.attempted.max(report.failed);
        record.push(format!("\"error\": {}", crate::report::json_str(&e)));
        report.error = Some(e);
    }
    record.push(format!(
        "\"failed_frac\": {}",
        ratio(report.failed as f64, report.attempted as f64)
    ));
    report.record = format!("{{{}}}", record.join(", "));
    report
}

/// One set-up, timed. The durable set-up checkpoint's time is kept too.
fn timed_setup(
    cfg: &Config,
    setup_s: &mut Vec<f64>,
    checkpoint_s: &mut Vec<f64>,
) -> Result<Session, String> {
    let t = Instant::now();
    let session = setup(cfg)?;
    setup_s.push(t.elapsed().as_secs_f64());
    if let Session::Durable(d) = &session {
        checkpoint_s.push(d.setup_checkpoint_s);
    }
    Ok(session)
}

fn run_inner(cfg: &Config, report: &mut Report, record: &mut Vec<String>) -> Result<(), String> {
    let s = &cfg.sizes;
    let mut setup_s = Vec::new();
    let mut checkpoint_s = Vec::new();
    let mut bench = timed_setup(cfg, &mut setup_s, &mut checkpoint_s)?;

    let start_sizes = world::table_sizes(bench.db());
    let plan = Plan {
        seconds: cfg.seconds,
        min_batches: s.min_batches,
        max_batches: None,
        trace: if cfg.trace {
            TraceMode::Alternate
        } else {
            TraceMode::Off
        },
        count_batches: s.count_batches,
    };
    // The other set-ups are spread over the timed phase, so their median
    // does not depend on the host's speed state in its first second.
    // Peak memory is read before the first of them: it is the workload's
    // set-up and steady state, without the benchmark's extra set-ups.
    let setups = s.setups.max(1);
    let mut peak_rss = None;
    let mut between = |elapsed: f64| -> Result<(), String> {
        while setup_s.len() < setups
            && elapsed >= cfg.seconds * setup_s.len() as f64 / setups as f64
        {
            peak_rss.get_or_insert_with(peak_rss_mb);
            timed_setup(cfg, &mut setup_s, &mut checkpoint_s)?;
        }
        Ok(())
    };
    let (out, result) = timed_loop(bench.bench(), cfg.seed, &plan, &mut between);
    report.attempted = out.attempted;
    result?;
    let peak_rss = peak_rss.unwrap_or_else(peak_rss_mb);
    while setup_s.len() < setups {
        timed_setup(cfg, &mut setup_s, &mut checkpoint_s)?;
    }
    let end_sizes = world::table_sizes(bench.db());
    let fast = fast_batches(&out.rates);
    let fast_lat: Vec<f64> = fast
        .iter()
        .flat_map(|&i| {
            let start = if i == 0 { 0 } else { out.batch_ends[i - 1] };
            out.lat_us[start..out.batch_ends[i]].iter().copied()
        })
        .collect();
    let fast_rates: Vec<f64> = fast.iter().map(|&i| out.rates[i]).collect();
    let fastest_setup = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    let fast_setups: Vec<f64> = setup_s
        .iter()
        .copied()
        .filter(|&t| t <= 1.25 * fastest_setup)
        .collect();
    record.push(format!(
        "\"samples\": {{\"instances\": {}, \"batches\": {}, \"fast_batches\": {}, \"fast_instances\": {}, \
         \"instance_p99_us\": {}, \"traced_batches\": {}, \"setups\": {}, \"fast_setups\": {}, \
         \"reopens\": {}, \"replays\": {}}}",
        out.lat_us.len(),
        out.rates.len(),
        fast.len(),
        fast_lat.len(),
        percentile(&fast_lat, 99.0),
        out.traced_rates.len(),
        setup_s.len(),
        fast_setups.len(),
        s.reopens,
        s.replays
    ));
    record.push(format!(
        "\"tables\": {{\"start\": {}, \"end\": {}}}",
        sizes_json(&start_sizes),
        sizes_json(&end_sizes)
    ));

    let m = &mut report.metrics;
    match bench {
        Session::Durable(bench) => {
            let (fin, n) = crash(*bench, cfg.seed, s.reopens, checkpoint_s)?;
            report.attempted += n;
            let db = fin.recovery.reopened.clone().expect("first reopen kept");
            record.push(format!(
                "\"crash\": {{\"log_bytes\": {}, \"page_bytes\": {}}}",
                fin.recovery.log_bytes, fin.recovery.page_bytes
            ));
            if cfg.trace {
                loop_counts(&out, m);
                durable_layers(&out, &fin, m);
                let mut probe = EngineBench::new(0, cfg.seed, true, false);
                let probe_out = probe_loop(&mut probe, cfg)?;
                engine_layers(&probe_out, m);
                let keys: Vec<Value> = db
                    .connect()
                    .query("SELECT InstanceKey FROM FLOW_INSTANCES", &[])
                    .map_err(|e| e.to_string())?
                    .rows
                    .into_iter()
                    .map(|mut r| r.swap_remove(0))
                    .collect();
                replays(
                    &db,
                    &fin.vars,
                    "UPDATE FLOW_INSTANCES SET Pc = Pc WHERE InstanceKey = ?",
                    &keys,
                    s.replays,
                    cfg.seed,
                    m,
                )?;
            } else {
                record.push(format!("\"recover_s\": {}", median(&fin.recovery.reopen_s)));
            }
        }
        Session::Engine(bench) => {
            if cfg.trace {
                loop_counts(&out, m);
                engine_layers(&out, m);
                let extra = if cfg.workload == Workload::LargeOrders {
                    s.large_orders
                } else {
                    0
                };
                let mut probe = DurableSession::setup(extra, cfg.seed, 0)?;
                let probe_out = probe_loop(&mut probe, cfg)?;
                let checkpoint_s = vec![probe.setup_checkpoint_s];
                let (fin, _) = crash(probe, cfg.seed, s.reopens, checkpoint_s)?;
                durable_layers(&probe_out, &fin, m);
                let rows = bench.db().table_len("Orders").map_err(|e| e.to_string())?;
                let keys: Vec<Value> = (1..=rows as i64).map(Value::Int).collect();
                replays(
                    bench.db(),
                    &fin.vars,
                    "UPDATE Orders SET Quantity = Quantity WHERE OrderId = ?",
                    &keys,
                    s.replays,
                    cfg.seed,
                    m,
                )?;
            }
        }
    }

    if cfg.trace {
        // Untraced batch 2k and traced batch 2k+1 ran back to back, in the
        // same host speed state: compare them pairwise.
        let slowdowns: Vec<f64> = out
            .rates
            .iter()
            .zip(&out.traced_rates)
            .map(|(plain, traced)| 1.0 - traced / plain)
            .collect();
        m.push("trace.overhead_frac", median(&slowdowns), "ratio");
    } else {
        m.push("instances_per_s", median(&fast_rates), "1/s");
        m.push("instance_p50_us", percentile(&fast_lat, 50.0), "us");
        m.push("instance_p90_us", percentile(&fast_lat, 90.0), "us");
        m.push("setup_s", median(&fast_setups), "s");
        m.push("peak_rss_mb", peak_rss, "MB");
    }
    Ok(())
}

/// A fixed number of fully traced batches, for the layers a workload's
/// own loop does not cross.
fn probe_loop(b: &mut dyn Bench, cfg: &Config) -> Result<LoopOut, String> {
    let plan = Plan {
        seconds: 0.0,
        min_batches: cfg.sizes.probe_batches,
        max_batches: Some(cfg.sizes.probe_batches),
        trace: TraceMode::All,
        count_batches: cfg.sizes.probe_batches,
    };
    let (out, result) = timed_loop(b, cfg.seed, &plan, &mut |_| Ok(()));
    result.map_err(|e| format!("probe: {e}"))?;
    Ok(out)
}
