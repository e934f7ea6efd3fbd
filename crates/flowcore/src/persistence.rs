//! Workflow instance dehydration and rehydration.
//!
//! The paper's products all park long-running instances in the database
//! between activities — WebSphere Process Server persists BPEL state in
//! DB2, Windows Workflow Foundation ships a `SqlWorkflowPersistenceService`
//! (Fig. 5), and BPEL Process Manager dehydrates between invoke pages.
//! This module reproduces that layer on top of `sqlkernel`'s WAL: instance
//! state (variables, program counter, circuit-breaker state) lives in an
//! ordinary `FLOW_INSTANCES` table, so dehydration rides the same
//! write-ahead log as user data and survives crashes with no extra
//! machinery.
//!
//! # Exactly-once stepping
//!
//! [`PersistenceService::run`] executes a [`DurableProcess`] one
//! [`DurableStep`] at a time. Each step runs inside ONE explicit SQL
//! transaction together with all of the instance's bookkeeping: the
//! program counter, the status, the variables and the breaker state.
//!
//! ```text
//! BEGIN;
//!   <step body: arbitrary SQL against user tables>;
//!   UPDATE FLOW_INSTANCES SET Pc = pc+1, Status = <running | completed>,
//!          Vars = <encoded>, Breakers = <encoded> WHERE InstanceKey = ?;
//!   -- a fresh instance's first step inserts the row instead:
//!   -- INSERT INTO FLOW_INSTANCES VALUES (?, <process>, 1, <status>, <vars>, <breakers>);
//! COMMIT;
//! ```
//!
//! A crash anywhere inside the window leaves the transaction uncommitted;
//! recovery undoes it wholesale, so on resume the program counter still
//! points at the interrupted step and it re-runs — its user-table effects
//! and its checkpoint commit or vanish *together*. A completed (committed)
//! step is never re-executed. The last step writes `completed` in the
//! same statement, so an `n`-step instance costs `n` commits. Only two
//! writes happen outside a step transaction: the completion of a run
//! that executes no step (an empty process, or a row already past its
//! last step), and the best-effort breaker park when a step fails.
//!
//! A fresh instance has no row until its first step commits. A call that
//! resumes a key whose first step never committed and never parked (the
//! process died first) therefore starts from its own `initial`.
//!
//! # Encoding
//!
//! Variables and breaker snapshots are stored as line-oriented text with
//! percent-escaping — deliberately human-readable (`SELECT Vars FROM
//! FLOW_INSTANCES` shows the parked state, just like the paper's products
//! expose instance tables to admin queries). Floats round-trip via their
//! IEEE-754 bit patterns; XML variables via `to_xml` + re-parse. Opaque
//! values cannot be dehydrated and fail fast.
//!
//! Only the bytes the line/space frame needs are escaped as `%XX`: `%`,
//! every byte ≤ 0x20 (space, `\n`, `\r`, tab, the other controls) and
//! 0x7F. UTF-8 and XML punctuation pass through, so parked XML reads as
//! XML. The decoder accepts any `%XX` of exactly two hex digits, so text
//! from the earlier encoder, which escaped every byte outside
//! `[A-Za-z0-9_.-]`, decodes too — and the earlier decoder reads this
//! encoder's text. Both encodings are one format.
//!
//! Decided against: carrying the committed [`Variables`] from step to
//! step instead of decoding them per attempt. `xmlval::parse` drops empty
//! and whitespace-only text runs, so `decode(encode(v))` can differ from
//! `v`, and a resumed run would then see other variables than an
//! uninterrupted one. Every attempt decodes the parked text.

use std::borrow::Cow;
use std::fmt::{self, Write};

use sqlkernel::{Connection, Database, Value};
use xmlval::XmlNode;

use crate::error::{FlowError, FlowResult};
use crate::retry::{BreakerSnapshot, BreakerState, RetryRuntime};
use crate::value::{VarValue, Variables};

/// Name of the instance-state table.
pub const INSTANCES_TABLE: &str = "FLOW_INSTANCES";

/// Status value while an instance has steps left.
pub const STATUS_RUNNING: &str = "running";
/// Status value once every step has committed.
pub const STATUS_COMPLETED: &str = "completed";

// ---------------------------------------------------------------------------
// Durable process shape
// ---------------------------------------------------------------------------

/// A step body: arbitrary work over process variables and the instance's
/// connection. Runs *inside* the step transaction — it must not issue
/// `BEGIN`/`COMMIT` itself.
pub type StepBody = Box<dyn Fn(&Connection, &mut Variables) -> FlowResult<()>>;

/// One activity of a durable process: a name (used as the retry/breaker
/// key) and its [`StepBody`].
pub struct DurableStep {
    name: String,
    body: StepBody,
}

impl std::fmt::Debug for DurableStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStep")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// A linear sequence of durable steps — the dehydration-aware analog of
/// the engine's `Sequence`. Built with the same fluent style.
#[derive(Debug)]
pub struct DurableProcess {
    name: String,
    steps: Vec<DurableStep>,
}

impl DurableProcess {
    /// Empty process.
    pub fn new(name: impl Into<String>) -> DurableProcess {
        DurableProcess {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Append a step.
    pub fn step(
        mut self,
        name: impl Into<String>,
        body: impl Fn(&Connection, &mut Variables) -> FlowResult<()> + 'static,
    ) -> DurableProcess {
        self.steps.push(DurableStep {
            name: name.into(),
            body: Box::new(body),
        });
        self
    }

    /// Process name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Any steps at all?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Step names in order.
    pub fn step_names(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.name.as_str()).collect()
    }
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

/// What a [`PersistenceService::run`] call did.
#[derive(Debug, Clone)]
pub struct DurableRun {
    /// Final process variables (decoded from the committed row).
    pub variables: Variables,
    /// Program counter the run started from (0 = fresh instance).
    pub resumed_from: usize,
    /// Steps executed (and committed) by THIS call.
    pub steps_executed: usize,
    /// The instance had already completed before this call; nothing ran.
    pub already_completed: bool,
}

/// A rehydrated instance image, as read back from `FLOW_INSTANCES`.
#[derive(Debug, Clone)]
pub struct HydratedInstance {
    /// Owning process name.
    pub process: String,
    /// Program counter: index of the next step to run.
    pub pc: usize,
    /// `running` or `completed`.
    pub status: String,
    /// Decoded variables.
    pub variables: Variables,
    /// Dehydrated breaker snapshot `(key, state, failures, opened_at)`.
    pub breakers: Vec<BreakerSnapshot>,
    /// Virtual clock at dehydration time.
    pub clock: u64,
}

/// The persistence service: owns (a handle to) the database holding
/// `FLOW_INSTANCES` and knows how to park and resume instances on it.
#[derive(Debug, Clone)]
pub struct PersistenceService {
    db: Database,
}

impl PersistenceService {
    /// Attach to `db`, creating `FLOW_INSTANCES` if missing. On a durable
    /// database the DDL itself is WAL-logged, so the table survives
    /// crashes like any user table.
    pub fn new(db: &Database) -> FlowResult<PersistenceService> {
        if !db.has_table(INSTANCES_TABLE) {
            let conn = db.connect();
            conn.execute(
                "CREATE TABLE FLOW_INSTANCES (
                    InstanceKey TEXT PRIMARY KEY,
                    Process TEXT,
                    Pc INT,
                    Status TEXT,
                    Vars TEXT,
                    Breakers TEXT
                )",
                &[],
            )?;
        }
        Ok(PersistenceService { db: db.clone() })
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Park instance state explicitly (upsert). `run` does this
    /// implicitly at every step boundary; this entry point serves hosts
    /// that manage their own stepping (the wf stack's Fig. 5 API).
    pub fn dehydrate(
        &self,
        instance_key: &str,
        process: &str,
        pc: usize,
        status: &str,
        vars: &Variables,
        rt: &RetryRuntime,
    ) -> FlowResult<()> {
        let conn = self.db.connect();
        let vars_txt = encode_variables(vars)?;
        let breakers_txt = encode_breakers(rt);
        let existing = conn.query(
            "SELECT Pc FROM FLOW_INSTANCES WHERE InstanceKey = ?",
            &[Value::text(instance_key)],
        )?;
        write_instance(
            &conn,
            !existing.rows.is_empty(),
            instance_row(instance_key, process, pc, status, &vars_txt, &breakers_txt),
        )?;
        Ok(())
    }

    /// Read an instance back, or `None` if the key is unknown.
    pub fn rehydrate(&self, instance_key: &str) -> FlowResult<Option<HydratedInstance>> {
        let conn = self.db.connect();
        let rs = conn.query(
            "SELECT Process, Pc, Status, Vars, Breakers FROM FLOW_INSTANCES WHERE InstanceKey = ?",
            &[Value::text(instance_key)],
        )?;
        let Some(row) = rs.rows.first() else {
            return Ok(None);
        };
        let (clock, breakers) = decode_breakers(&as_text(&row[4])?)?;
        Ok(Some(HydratedInstance {
            process: as_text(&row[0])?,
            pc: as_int(&row[1])? as usize,
            status: as_text(&row[2])?,
            variables: decode_variables(&as_text(&row[3])?)?,
            breakers,
            clock,
        }))
    }

    /// Program counter and status for `key`, or `None` if unknown.
    pub fn instance_status(&self, instance_key: &str) -> FlowResult<Option<(usize, String)>> {
        Ok(self.rehydrate(instance_key)?.map(|h| (h.pc, h.status)))
    }

    /// Run (or resume) `process` under `instance_key`.
    ///
    /// A known key resumes from the parked program counter, variables and
    /// breaker state (ignoring `initial`). A fresh key starts from
    /// `initial` at pc 0 and has no row until its first step commits:
    /// that step's transaction inserts it. Each step executes inside one
    /// explicit transaction with the instance row's update (see module
    /// docs), wrapped in `rt`'s retry/breaker envelope keyed
    /// `"<process>:<step>"`. An already-completed instance returns
    /// immediately with `already_completed = true`.
    pub fn run(
        &self,
        process: &DurableProcess,
        instance_key: &str,
        initial: &Variables,
        rt: &mut RetryRuntime,
    ) -> FlowResult<DurableRun> {
        let conn = self.db.connect();
        // Bookkeeping statements run under the same retry envelope as
        // step bodies — a transient on the hydrate query must not fail
        // the whole run.
        let hydrate_key = format!("{}:hydrate", process.name);
        let (rs, _) = rt.run(&hydrate_key, Some(&self.db), || {
            conn.query(
                "SELECT Process, Pc, Status, Vars, Breakers FROM FLOW_INSTANCES \
                 WHERE InstanceKey = ?",
                &[Value::text(instance_key)],
            )
            .map_err(FlowError::from)
        });
        let rs = rs?;
        let mut row_exists = !rs.rows.is_empty();
        let (pc, mut vars_txt) = match rs.rows.first() {
            Some(row) => {
                let owner = as_text(&row[0])?;
                if owner != process.name {
                    return Err(FlowError::Definition(format!(
                        "instance '{instance_key}' belongs to process '{owner}', not '{}'",
                        process.name
                    )));
                }
                let pc = as_int(&row[1])? as usize;
                let status = as_text(&row[2])?;
                let vars_txt = as_text(&row[3])?;
                let (clock, snaps) = decode_breakers(&as_text(&row[4])?)?;
                rt.restore_clock(clock);
                rt.import_breakers(&snaps);
                if status == STATUS_COMPLETED {
                    return Ok(DurableRun {
                        variables: decode_variables(&vars_txt)?,
                        resumed_from: pc,
                        steps_executed: 0,
                        already_completed: true,
                    });
                }
                (pc, vars_txt)
            }
            None => (0, encode_variables(initial)?),
        };
        let resumed_from = pc;
        let row = |pc, status, vars_txt: &str, breakers_txt: &str| {
            instance_row(
                instance_key,
                &process.name,
                pc,
                status,
                vars_txt,
                breakers_txt,
            )
        };

        let mut steps_executed = 0usize;
        for (i, step) in process.steps.iter().enumerate().skip(pc) {
            let retry_key = format!("{}:{}", process.name, step.name);
            let status = if i + 1 == process.steps.len() {
                STATUS_COMPLETED
            } else {
                STATUS_RUNNING
            };
            let (result, _report) = rt.run_with(&retry_key, Some(&self.db), |rt| {
                // Each attempt decodes a fresh copy of the parked
                // variables, so a half-mutated attempt never leaks into
                // the next one — attempts are deterministic replays.
                let mut v = decode_variables(&vars_txt)?;
                conn.execute("BEGIN", &[])?;
                let r = (step.body)(&conn, &mut v).and_then(|()| {
                    let encoded = encode_variables(&v)?;
                    // The breakers as they stand once this attempt
                    // succeeds, so the row needs no second write.
                    let breakers = encode_breakers_closing(rt, Some(&retry_key));
                    write_instance(&conn, row_exists, row(i + 1, status, &encoded, &breakers))?;
                    conn.execute("COMMIT", &[])?;
                    Ok(encoded)
                });
                if r.is_err() {
                    conn.rollback_if_open();
                }
                r
            });
            match result {
                Ok(encoded) => {
                    vars_txt = encoded;
                    row_exists = true;
                    steps_executed += 1;
                }
                Err(e) => {
                    // Best effort: park the breaker trips with the state
                    // the last commit left, so a later resume fails fast
                    // where this run did. A fresh instance whose first
                    // step failed has no row yet and gets its `running`
                    // row here, at pc 0 with the initial variables. If
                    // the database just "crashed" this fails too — fine.
                    let breakers = encode_breakers(rt);
                    let _ = write_instance(
                        &conn,
                        row_exists,
                        row(i, STATUS_RUNNING, &vars_txt, &breakers),
                    );
                    return Err(e);
                }
            }
        }

        if steps_executed == 0 {
            // No step transaction ran to write the completion: an empty
            // process, or a resumed row already past its last step.
            let breakers = encode_breakers(rt);
            let (r, _) = rt.run(&hydrate_key, Some(&self.db), || {
                write_instance(
                    &conn,
                    row_exists,
                    row(pc, STATUS_COMPLETED, &vars_txt, &breakers),
                )
                .map(|_| ())
                .map_err(FlowError::from)
            });
            r?;
        }
        Ok(DurableRun {
            variables: decode_variables(&vars_txt)?,
            resumed_from,
            steps_executed,
            already_completed: false,
        })
    }
}

/// One `FLOW_INSTANCES` row in column order.
fn instance_row(
    instance_key: &str,
    process: &str,
    pc: usize,
    status: &str,
    vars_txt: &str,
    breakers_txt: &str,
) -> [Value; 6] {
    [
        Value::text(instance_key),
        Value::text(process),
        Value::Int(pc as i64),
        Value::text(status),
        Value::text(vars_txt),
        Value::text(breakers_txt),
    ]
}

/// Write a whole [`instance_row`]: an `UPDATE` of every column when the
/// row exists, an `INSERT` otherwise.
fn write_instance(
    conn: &Connection,
    exists: bool,
    mut row: [Value; 6],
) -> sqlkernel::SqlResult<sqlkernel::StatementResult> {
    if exists {
        row.rotate_left(1);
        conn.execute(
            "UPDATE FLOW_INSTANCES SET Process = ?, Pc = ?, Status = ?, Vars = ?, Breakers = ? \
             WHERE InstanceKey = ?",
            &row,
        )
    } else {
        conn.execute("INSERT INTO FLOW_INSTANCES VALUES (?, ?, ?, ?, ?, ?)", &row)
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn corrupt(what: &str) -> FlowError {
    FlowError::Variable(format!("corrupt dehydrated state: {what}"))
}

fn as_text(v: &Value) -> FlowResult<String> {
    match v {
        Value::Text(s) => Ok(s.clone()),
        other => Err(corrupt(&format!("expected text column, got {other:?}"))),
    }
}

fn as_int(v: &Value) -> FlowResult<i64> {
    match v {
        Value::Int(i) => Ok(*i),
        other => Err(corrupt(&format!("expected int column, got {other:?}"))),
    }
}

/// A payload as it appears in the line/space frame: `%`, every byte up to
/// and including space (newline, carriage return, tab and the other
/// controls) and DEL become `%XX`; everything else, UTF-8 and XML
/// punctuation included, is copied through in runs.
struct Esc<'a>(&'a str);

impl fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const HEX: &[u8; 16] = b"0123456789ABCDEF";
        let s = self.0;
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if b == b'%' || b <= b' ' || b == 0x7F {
                f.write_str(&s[run..i])?;
                f.write_char('%')?;
                f.write_char(char::from(HEX[usize::from(b >> 4)]))?;
                f.write_char(char::from(HEX[usize::from(b & 0xF)]))?;
                run = i + 1;
            }
        }
        f.write_str(&s[run..])
    }
}

/// Inverse of [`Esc`]. Any `%` followed by two hex digits decodes, so text
/// escaped more eagerly than [`Esc`] does (older rows) reads back too.
fn unesc(s: &str) -> FlowResult<Cow<'_, str>> {
    if !s.contains('%') {
        return Ok(Cow::Borrowed(s));
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 2 >= bytes.len() {
                return Err(corrupt("truncated escape sequence"));
            }
            let hex = |b: u8| char::from(b).to_digit(16);
            match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                (Some(hi), Some(lo)) => out.push((hi << 4 | lo) as u8),
                _ => return Err(corrupt("bad hex escape sequence")),
            }
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out)
        .map(Cow::Owned)
        .map_err(|_| corrupt("escaped payload is not utf-8"))
}

/// Encode variables as one `name tag [payload]` line each, sorted by name
/// (deterministic — identical states encode identically, which the crash
/// tests rely on for fingerprint comparison).
pub fn encode_variables(vars: &Variables) -> FlowResult<String> {
    let mut out = String::new();
    for name in vars.names() {
        let v = vars.get(name).expect("name listed by names()");
        if !out.is_empty() {
            out.push('\n');
        }
        let n = Esc(name);
        // Writing into a `String` cannot fail.
        let _ = match v {
            VarValue::Null => write!(out, "{n} null"),
            VarValue::Scalar(Value::Null) => write!(out, "{n} snull"),
            VarValue::Scalar(Value::Bool(b)) => write!(out, "{n} bool {b}"),
            VarValue::Scalar(Value::Int(i)) => write!(out, "{n} int {i}"),
            VarValue::Scalar(Value::Float(f)) => write!(out, "{n} float {}", f.to_bits()),
            VarValue::Scalar(Value::Text(t)) => write!(out, "{n} text {}", Esc(t)),
            VarValue::Xml(x @ XmlNode::Element(_)) => {
                write!(out, "{n} xml {}", Esc(&x.to_xml()))
            }
            VarValue::Xml(XmlNode::Text(t)) => write!(out, "{n} xmltext {}", Esc(t)),
            VarValue::Opaque(_) => {
                return Err(FlowError::Variable(format!(
                    "variable '{name}' holds an opaque host object and cannot be dehydrated"
                )))
            }
        };
    }
    Ok(out)
}

/// Inverse of [`encode_variables`].
pub fn decode_variables(text: &str) -> FlowResult<Variables> {
    let mut vars = Variables::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        let name = unesc(parts.next().ok_or_else(|| corrupt("empty variable line"))?)?.into_owned();
        let tag = parts
            .next()
            .ok_or_else(|| corrupt("variable line missing type tag"))?;
        let payload = parts.next();
        fn need(p: Option<&str>) -> FlowResult<&str> {
            p.ok_or_else(|| corrupt("variable line missing payload"))
        }
        let value = match tag {
            "null" => VarValue::Null,
            "snull" => VarValue::Scalar(Value::Null),
            "bool" => VarValue::Scalar(Value::Bool(match need(payload)? {
                "true" => true,
                "false" => false,
                other => return Err(corrupt(&format!("bad bool payload '{other}'"))),
            })),
            "int" => VarValue::Scalar(Value::Int(
                need(payload)?
                    .parse::<i64>()
                    .map_err(|_| corrupt("bad int payload"))?,
            )),
            "float" => VarValue::Scalar(Value::Float(f64::from_bits(
                need(payload)?
                    .parse::<u64>()
                    .map_err(|_| corrupt("bad float payload"))?,
            ))),
            "text" => VarValue::Scalar(Value::Text(unesc(need(payload)?)?.into_owned())),
            "xml" => {
                let xml = unesc(need(payload)?)?;
                VarValue::Xml(XmlNode::Element(xmlval::parse(&xml)?))
            }
            "xmltext" => VarValue::Xml(XmlNode::Text(unesc(need(payload)?)?.into_owned())),
            other => return Err(corrupt(&format!("unknown variable tag '{other}'"))),
        };
        vars.set(name, value);
    }
    Ok(vars)
}

fn state_name(s: BreakerState) -> &'static str {
    match s {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half_open",
    }
}

fn state_from_name(s: &str) -> FlowResult<BreakerState> {
    match s {
        "closed" => Ok(BreakerState::Closed),
        "open" => Ok(BreakerState::Open),
        "half_open" => Ok(BreakerState::HalfOpen),
        other => Err(corrupt(&format!("unknown breaker state '{other}'"))),
    }
}

/// Encode the runtime's virtual clock and breaker snapshot.
pub fn encode_breakers(rt: &RetryRuntime) -> String {
    encode_breakers_closing(rt, None)
}

/// [`encode_breakers`], with the `closed` key's breaker as a success
/// leaves it: closed at zero failures. Inside a [`RetryRuntime::run_with`]
/// attempt under that key, this is the encoding the runtime will have
/// once the attempt returns `Ok`.
fn encode_breakers_closing(rt: &RetryRuntime, closed: Option<&str>) -> String {
    let mut out = format!("clock {}", rt.now());
    for (key, mut state, mut failures, opened_at) in rt.export_breakers() {
        if closed == Some(key.as_str()) {
            state = BreakerState::Closed;
            failures = 0;
        }
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "\n{} {} {failures} {opened_at}",
            Esc(&key),
            state_name(state)
        );
    }
    out
}

/// Inverse of [`encode_breakers`]: `(clock, snapshot)`.
pub fn decode_breakers(text: &str) -> FlowResult<(u64, Vec<BreakerSnapshot>)> {
    let mut clock = 0u64;
    let mut snaps = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split(' ').collect();
        match parts.as_slice() {
            ["clock", ticks] => {
                clock = ticks.parse().map_err(|_| corrupt("bad clock payload"))?;
            }
            [key, state, failures, opened_at] => snaps.push((
                unesc(key)?.into_owned(),
                state_from_name(state)?,
                failures
                    .parse()
                    .map_err(|_| corrupt("bad breaker failure count"))?,
                opened_at
                    .parse()
                    .map_err(|_| corrupt("bad breaker opened_at"))?,
            )),
            _ => return Err(corrupt("malformed breaker line")),
        }
    }
    Ok((clock, snaps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkernel::{Database, MemLogStore};
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::Arc;
    use xmlval::Element;

    fn demo_vars() -> Variables {
        let mut v = Variables::new();
        v.set("count", VarValue::Scalar(Value::Int(7)));
        v.set("ratio", VarValue::Scalar(Value::Float(0.1 + 0.2)));
        v.set("who", VarValue::Scalar(Value::Text("a b\nc%".into())));
        v.set("flag", VarValue::Scalar(Value::Bool(true)));
        v.set("missing", VarValue::Null);
        v.set(
            "doc",
            VarValue::Xml(XmlNode::Element(
                Element::new("order").with_child(XmlNode::text("x<y&z")),
            )),
        );
        v
    }

    #[test]
    fn variables_roundtrip() {
        let vars = demo_vars();
        let encoded = encode_variables(&vars).unwrap();
        let back = decode_variables(&encoded).unwrap();
        assert_eq!(back.names(), vars.names());
        assert_eq!(
            back.require_scalar("who").unwrap(),
            &Value::Text("a b\nc%".into())
        );
        assert_eq!(
            back.require_scalar("ratio").unwrap(),
            &Value::Float(0.1 + 0.2),
            "floats round-trip bit-exactly"
        );
        assert_eq!(
            back.require_xml("doc").unwrap().text_content(),
            "x<y&z",
            "xml text survives escaping"
        );
        // Deterministic: encoding the decoded state is byte-identical.
        assert_eq!(encode_variables(&back).unwrap(), encoded);
    }

    /// Text written by the encoder that escaped every byte outside
    /// `[A-Za-z0-9_.-]`, as older rows hold it.
    const FULLY_ESCAPED_VARS: &str = "Menge%20%C3%BC text \n\
        count int -7\n\
        doc xml %3Corder%20id%3D%22a%26quot%3Bb%20c%22%3Ex%26lt%3By%26amp%3Bz%3C%2Forder%3E\n\
        flag bool true\n\
        frag xmltext x%20%3C%20y%20%26%20%22z%22\n\
        missing null\n\
        none snull\n\
        ratio float 4599075939470750516\n\
        who text a%20b%0Ac%25%0D%09%C3%BC%E2%82%AC";

    const FULLY_ESCAPED_BREAKERS: &str = "clock 42\n\
        bis%3A100%25 half_open 1 4\n\
        soa%3Aok closed 0 0\n\
        wf%3Astep%20one open 3 17";

    #[test]
    fn fully_escaped_rows_still_decode() {
        let vars = decode_variables(FULLY_ESCAPED_VARS).unwrap();
        let scalar = |n| vars.require_scalar(n).unwrap().clone();
        assert_eq!(scalar("Menge ü"), Value::Text(String::new()));
        assert_eq!(scalar("count"), Value::Int(-7));
        assert_eq!(scalar("flag"), Value::Bool(true));
        assert_eq!(scalar("none"), Value::Null);
        assert_eq!(scalar("ratio"), Value::Float(0.1 + 0.2));
        assert_eq!(scalar("who"), Value::Text("a b\nc%\r\tü€".into()));
        assert!(matches!(vars.get("missing"), Some(VarValue::Null)));
        assert_eq!(
            vars.require_xml("doc").unwrap(),
            &XmlNode::Element(
                Element::new("order")
                    .with_attr("id", "a\"b c")
                    .with_child(XmlNode::text("x<y&z"))
            )
        );
        assert_eq!(
            vars.require_xml("frag").unwrap(),
            &XmlNode::text("x < y & \"z\"")
        );
        // Re-encoding escapes only what the frame needs: the XML reads as
        // XML in `SELECT Vars FROM FLOW_INSTANCES`.
        assert_eq!(
            encode_variables(&vars).unwrap(),
            "Menge%20ü text \n\
             count int -7\n\
             doc xml <order%20id=\"a&quot;b%20c\">x&lt;y&amp;z</order>\n\
             flag bool true\n\
             frag xmltext x%20<%20y%20&%20\"z\"\n\
             missing null\n\
             none snull\n\
             ratio float 4599075939470750516\n\
             who text a%20b%0Ac%25%0D%09ü€"
        );

        let (clock, snaps) = decode_breakers(FULLY_ESCAPED_BREAKERS).unwrap();
        assert_eq!(clock, 42);
        assert_eq!(
            snaps,
            vec![
                ("bis:100%".into(), BreakerState::HalfOpen, 1, 4),
                ("soa:ok".into(), BreakerState::Closed, 0, 0),
                ("wf:step one".into(), BreakerState::Open, 3, 17),
            ]
        );
        let mut rt = RetryRuntime::new(1);
        rt.restore_clock(clock);
        rt.import_breakers(&snaps);
        assert_eq!(
            encode_breakers(&rt),
            "clock 42\n\
             bis:100%25 half_open 1 4\n\
             soa:ok closed 0 0\n\
             wf:step%20one open 3 17"
        );
    }

    #[test]
    fn malformed_escapes_are_corrupt() {
        for (text, why) in [
            ("who text %+A", "bad hex escape sequence"),
            ("who text %G0", "bad hex escape sequence"),
            ("who text %A", "truncated escape sequence"),
            ("who text %FF", "escaped payload is not utf-8"),
        ] {
            let err = decode_variables(text).unwrap_err().to_string();
            assert!(err.contains(why), "{text}: {err}");
        }
    }

    #[test]
    fn opaque_variables_refuse_to_dehydrate() {
        let mut v = Variables::new();
        v.set(
            "handle",
            VarValue::Opaque(crate::value::OpaqueValue::new("conn", 1u32)),
        );
        let err = encode_variables(&v).unwrap_err();
        assert!(err.to_string().contains("opaque"));
    }

    #[test]
    fn breaker_snapshot_roundtrip() {
        let mut rt = RetryRuntime::new(3)
            .with_policy(crate::retry::RetryPolicy::no_retry())
            .with_breaker(crate::retry::BreakerConfig {
                failure_threshold: 1,
                cooldown_ticks: 50,
            });
        let (_, _) = rt.run("svc a", None, || {
            Err::<(), _>(FlowError::Sql(sqlkernel::SqlError::Transient("r".into())))
        });
        assert_eq!(rt.breaker_state("svc a"), BreakerState::Open);
        let encoded = encode_breakers(&rt);

        let mut rt2 = RetryRuntime::new(3).with_breaker(crate::retry::BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 50,
        });
        let (clock, snaps) = decode_breakers(&encoded).unwrap();
        rt2.restore_clock(clock);
        rt2.import_breakers(&snaps);
        assert_eq!(rt2.breaker_state("svc a"), BreakerState::Open);
        assert_eq!(rt2.now(), rt.now());
        // Still inside the cooldown: fails fast without admitting the op.
        let mut invoked = false;
        let (r, _) = rt2.run("svc a", None, || {
            invoked = true;
            Ok(())
        });
        assert!(r.is_err() && !invoked, "rehydrated breaker still open");
    }

    fn counting_process(effects: &Rc<Cell<u32>>) -> DurableProcess {
        let e1 = Rc::clone(effects);
        let e2 = Rc::clone(effects);
        DurableProcess::new("demo")
            .step("first", move |conn, vars| {
                e1.set(e1.get() + 1);
                conn.execute("INSERT INTO LOG VALUES (1, 'first')", &[])?;
                vars.set("stage", VarValue::Scalar(Value::Int(1)));
                Ok(())
            })
            .step("second", move |conn, vars| {
                e2.set(e2.get() + 1);
                conn.execute("INSERT INTO LOG VALUES (2, 'second')", &[])?;
                vars.set("stage", VarValue::Scalar(Value::Int(2)));
                Ok(())
            })
    }

    fn log_table(db: &Database) {
        db.connect()
            .execute("CREATE TABLE LOG (id INT PRIMARY KEY, note TEXT)", &[])
            .unwrap();
    }

    #[test]
    fn fresh_instance_runs_all_steps_and_completes() {
        let db = Database::new("p");
        log_table(&db);
        let svc = PersistenceService::new(&db).unwrap();
        let effects = Rc::new(Cell::new(0));
        let proc_ = counting_process(&effects);
        let mut rt = RetryRuntime::new(1);
        let run = svc.run(&proc_, "i-1", &Variables::new(), &mut rt).unwrap();
        assert_eq!(run.steps_executed, 2);
        assert_eq!(run.resumed_from, 0);
        assert!(!run.already_completed);
        assert_eq!(
            run.variables.require_scalar("stage").unwrap(),
            &Value::Int(2)
        );
        assert_eq!(
            svc.instance_status("i-1").unwrap(),
            Some((2, STATUS_COMPLETED.into()))
        );
        assert_eq!(effects.get(), 2);
    }

    #[test]
    fn completed_instance_does_not_rerun() {
        let db = Database::new("p");
        log_table(&db);
        let svc = PersistenceService::new(&db).unwrap();
        let effects = Rc::new(Cell::new(0));
        let proc_ = counting_process(&effects);
        let mut rt = RetryRuntime::new(1);
        svc.run(&proc_, "i-1", &Variables::new(), &mut rt).unwrap();
        let again = svc.run(&proc_, "i-1", &Variables::new(), &mut rt).unwrap();
        assert!(again.already_completed);
        assert_eq!(again.steps_executed, 0);
        assert_eq!(effects.get(), 2, "no step re-executed");
    }

    #[test]
    fn key_collision_across_processes_is_rejected() {
        let db = Database::new("p");
        log_table(&db);
        let svc = PersistenceService::new(&db).unwrap();
        let effects = Rc::new(Cell::new(0));
        let proc_ = counting_process(&effects);
        let mut rt = RetryRuntime::new(1);
        svc.run(&proc_, "i-1", &Variables::new(), &mut rt).unwrap();
        let other = DurableProcess::new("other").step("s", |_, _| Ok(()));
        let err = svc
            .run(&other, "i-1", &Variables::new(), &mut rt)
            .unwrap_err();
        assert_eq!(err.class(), "definition");
    }

    #[test]
    fn crash_mid_step_resumes_without_replaying_committed_steps() {
        // Durable database; crash during the SECOND step's body, after the
        // first step committed. Resume from the recovered log must re-run
        // only the second step, and its first attempt's partial work must
        // be invisible.
        let store = MemLogStore::new();
        let db = Database::recover("p", Arc::new(store.clone())).unwrap();
        log_table(&db);
        let svc = PersistenceService::new(&db).unwrap();
        let effects = Rc::new(Cell::new(0));
        let proc_ = counting_process(&effects);
        let mut rt = RetryRuntime::new(1);

        // The second step's INSERT is the 2nd statement of its txn
        // (BEGIN is unnumbered by the fault gate only for Begin itself);
        // probe statement indexes until the crash actually fires.
        let mut crashed = false;
        for idx in 0..24 {
            let db = Database::recover("p", Arc::new(store.clone())).unwrap();
            let svc = PersistenceService::new(&db).unwrap();
            db.set_fault_plan(Some(sqlkernel::FaultPlan::new(7).fault_at(
                idx,
                sqlkernel::Fault::Crash(sqlkernel::CrashPoint::MidApply),
            )));
            let r = svc.run(&proc_, "i-9", &Variables::new(), &mut rt);
            if db.fault_injector().map(|i| i.frozen()).unwrap_or(false) {
                assert!(r.is_err(), "a crash must surface as an error");
                crashed = true;
                break;
            }
            // No crash fired at this index (read statement or run already
            // complete): reset the instance for the next probe.
            if r.is_ok() {
                let conn = db.connect();
                conn.execute("DELETE FROM FLOW_INSTANCES WHERE InstanceKey = 'i-9'", &[])
                    .unwrap();
                conn.execute("DELETE FROM LOG", &[]).unwrap();
                effects.set(0);
            }
        }
        assert!(crashed, "no probe index produced a crash");

        // "Reboot": recover strictly from the log.
        let db2 = Database::recover("p", Arc::new(store.clone())).unwrap();
        let svc2 = PersistenceService::new(&db2).unwrap();
        let before = effects.get();
        let run = svc2.run(&proc_, "i-9", &Variables::new(), &mut rt).unwrap();
        assert!(!run.already_completed);
        assert!(run.resumed_from <= 2);
        let rs = db2
            .connect()
            .query("SELECT id FROM LOG ORDER BY id", &[])
            .unwrap();
        assert_eq!(rs.rows.len(), 2, "exactly one row per step, exactly once");
        assert_eq!(
            svc2.instance_status("i-9").unwrap(),
            Some((2, STATUS_COMPLETED.into()))
        );
        assert!(
            effects.get() > before,
            "the interrupted step re-executed after recovery"
        );
        let _ = svc; // first durable handle kept alive until here
    }

    #[test]
    fn completed_row_parks_the_runtime_as_the_run_leaves_it() {
        // The last step fails transiently once, so its breaker holds one
        // failure while the retried attempt commits; the row must carry
        // the breaker as that success closes it, and the final clock.
        let db = Database::new("p");
        let svc = PersistenceService::new(&db).unwrap();
        let flaked = Cell::new(false);
        let proc_ = DurableProcess::new("demo")
            .step("first", |_, _| Ok(()))
            .step("second", move |_, _| {
                if flaked.replace(true) {
                    Ok(())
                } else {
                    Err(FlowError::Sql(sqlkernel::SqlError::Transient("r".into())))
                }
            });
        let mut rt = RetryRuntime::new(1);
        svc.run(&proc_, "i-1", &Variables::new(), &mut rt).unwrap();
        assert_eq!(rt.total_retries(), 1);
        let h = svc.rehydrate("i-1").unwrap().unwrap();
        assert_eq!(h.status, STATUS_COMPLETED);
        assert_eq!(
            (h.clock, h.breakers),
            decode_breakers(&encode_breakers(&rt)).unwrap()
        );
    }

    #[test]
    fn crash_after_first_commit_recovers_its_breaker_park() {
        // Crash at each statement index in turn, each on a fresh log. The
        // first index whose recovered row has pc 1 is the first statement
        // after step 1's COMMIT: the row must already carry step 1's
        // breaker and the clock as step 1 left it.
        let effects = Rc::new(Cell::new(0));
        let proc_ = counting_process(&effects);
        for idx in 0..24 {
            let store = MemLogStore::new();
            let db = Database::recover("p", Arc::new(store.clone())).unwrap();
            log_table(&db);
            let svc = PersistenceService::new(&db).unwrap();
            db.set_fault_plan(Some(sqlkernel::FaultPlan::new(7).fault_at(
                idx,
                sqlkernel::Fault::Crash(sqlkernel::CrashPoint::BeforeLog),
            )));
            let mut rt = RetryRuntime::new(1);
            let r = svc.run(&proc_, "i-9", &Variables::new(), &mut rt);
            assert!(r.is_err(), "every run below pc 1 ends in the crash");
            let db2 = Database::recover("p", Arc::new(store)).unwrap();
            let svc2 = PersistenceService::new(&db2).unwrap();
            let Some(h) = svc2.rehydrate("i-9").unwrap() else {
                continue;
            };
            if h.pc == 0 {
                continue;
            }
            assert_eq!(h.pc, 1);
            assert_eq!(h.status, STATUS_RUNNING);
            // The hydrate query and step 1 each tick the clock once.
            assert_eq!(h.clock, 2);
            assert!(
                h.breakers
                    .contains(&("demo:first".into(), BreakerState::Closed, 0, 0)),
                "step 1's breaker is parked with its commit: {:?}",
                h.breakers
            );
            return;
        }
        panic!("no probe index crashed after step 1 committed");
    }

    #[test]
    fn empty_process_leaves_one_completed_row() {
        let db = Database::new("p");
        let svc = PersistenceService::new(&db).unwrap();
        let empty = DurableProcess::new("empty");
        let mut rt = RetryRuntime::new(1);
        let run = svc.run(&empty, "e-1", &Variables::new(), &mut rt).unwrap();
        assert_eq!(run.steps_executed, 0);
        assert!(!run.already_completed);
        assert_eq!(
            svc.instance_status("e-1").unwrap(),
            Some((0, STATUS_COMPLETED.into()))
        );
        let rs = db
            .connect()
            .query("SELECT COUNT(*) FROM FLOW_INSTANCES", &[])
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn fresh_instance_failing_step_one_parks_its_breaker_trip() {
        // The run that fails in step 1 never commits a step, so the error
        // path must create the row that carries the open breaker; a later
        // resume then fails fast without invoking the body.
        let breaker = crate::retry::BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 50,
        };
        let db = Database::new("p");
        let svc = PersistenceService::new(&db).unwrap();
        let calls = Rc::new(Cell::new(0));
        let c = Rc::clone(&calls);
        let proc_ = DurableProcess::new("demo").step("first", move |_, _| {
            c.set(c.get() + 1);
            Err(FlowError::Service("down".into()))
        });
        let mut initial = Variables::new();
        initial.set("order", VarValue::Scalar(Value::Int(42)));
        let mut rt = RetryRuntime::new(1).with_breaker(breaker.clone());
        assert!(svc.run(&proc_, "f-1", &initial, &mut rt).is_err());
        assert_eq!(calls.get(), 1);
        let h = svc.rehydrate("f-1").unwrap().unwrap();
        assert_eq!((h.pc, h.status.as_str()), (0, STATUS_RUNNING));
        assert_eq!(
            h.variables.require_scalar("order").unwrap(),
            &Value::Int(42)
        );

        let mut rt2 = RetryRuntime::new(2).with_breaker(breaker);
        let err = svc
            .run(&proc_, "f-1", &Variables::new(), &mut rt2)
            .unwrap_err();
        assert!(err.to_string().contains("circuit breaker open"), "{err}");
        assert_eq!(calls.get(), 1, "the parked breaker failed fast");
    }

    #[test]
    fn dehydrate_rehydrate_explicit_api() {
        let db = Database::new("p");
        let svc = PersistenceService::new(&db).unwrap();
        let rt = RetryRuntime::new(9);
        let vars = demo_vars();
        svc.dehydrate("wf-1", "explicit", 3, STATUS_RUNNING, &vars, &rt)
            .unwrap();
        let h = svc.rehydrate("wf-1").unwrap().unwrap();
        assert_eq!(h.process, "explicit");
        assert_eq!(h.pc, 3);
        assert_eq!(h.status, STATUS_RUNNING);
        assert_eq!(h.variables.names(), vars.names());
        // Upsert path.
        svc.dehydrate("wf-1", "explicit", 4, STATUS_COMPLETED, &vars, &rt)
            .unwrap();
        assert_eq!(
            svc.instance_status("wf-1").unwrap(),
            Some((4, STATUS_COMPLETED.into()))
        );
        assert!(svc.rehydrate("nope").unwrap().is_none());
    }
}
