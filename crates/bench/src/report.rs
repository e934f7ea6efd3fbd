//! The one output schema of every `bench_*` binary.
//!
//! A [`Report`] names its bench, the git revision and host CPU count it
//! was measured on, and the seed of its datasets (0 when the workload
//! draws no random numbers). Each [`Point`] carries its parameters, its
//! metrics — median, p50, p99 and sample count, with a unit — and
//! optional `DbStats` counter deltas. Binaries write it to
//! `docs/outputs/BENCH_<bench>.json`; the `experiments` binary reads it
//! back and renders the tables of EXPERIMENTS.md from it. The reader
//! accepts exactly what the writer emits.

use std::fmt::{self, Write as _};
use std::time::{Duration, Instant};

/// Wall time one timing sample aims for; call counts are calibrated to it.
const SAMPLE_TIME: Duration = Duration::from_millis(10);

/// Samples per timed metric.
const SAMPLES: usize = 11;

/// `BENCH_SMOKE` is set: binaries shrink their workloads, keep their
/// in-process asserts, and [`Report::finish`] writes no JSON.
pub fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// Runs `f` `SAMPLES` times (once in smoke mode) and collects what
/// each run measured; `f` excludes its own set-up from its measurement.
pub fn sample(f: impl FnMut() -> f64) -> Vec<f64> {
    let n = if smoke() { 1 } else { SAMPLES };
    std::iter::repeat_with(f).take(n).collect()
}

/// Times `f`: calibrates a call count so that one sample lasts at least
/// `SAMPLE_TIME` (one call in smoke mode), then [`sample`]s the wall
/// time per call, in µs.
pub fn time_us(f: impl FnMut()) -> Metric {
    Metric::of("us", &sample(calibrated(f)))
}

/// Samples per arm of [`time_us_paired`].
const PAIRED_SAMPLES: usize = 31;

/// Times two arms `a` and `b` as [`time_us`] does, but takes their
/// samples interleaved, `PAIRED_SAMPLES` each (one in smoke mode), with
/// the arm that goes first alternating: a drift of the host's speed
/// during the run lands on both arms alike instead of on the arm that
/// happened to run second.
pub fn time_us_paired(a: impl FnMut(), b: impl FnMut()) -> (Metric, Metric) {
    let (mut a, mut b) = (calibrated(a), calibrated(b));
    let n = if smoke() { 1 } else { PAIRED_SAMPLES };
    let (mut sa, mut sb) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        if i % 2 == 0 {
            sa.push(a());
            sb.push(b());
        } else {
            sb.push(b());
            sa.push(a());
        }
    }
    (Metric::of("us", &sa), Metric::of("us", &sb))
}

/// A sampler for `f`: the call count is calibrated so that one sample
/// lasts at least `SAMPLE_TIME` (one call in smoke mode); each call of
/// the sampler returns the wall time per call of one sample, in µs.
fn calibrated(mut f: impl FnMut()) -> impl FnMut() -> f64 {
    let mut run = move |iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed()
    };
    let mut iters = 1u32;
    while !smoke() {
        let t = run(iters);
        if t >= SAMPLE_TIME || iters >= 1 << 20 {
            break;
        }
        let scale = (SAMPLE_TIME.as_secs_f64() / t.as_secs_f64().max(1e-9)).ceil() as u32;
        iters = iters.saturating_mul(scale).clamp(iters + 1, 1 << 20);
    }
    move || run(iters).as_secs_f64() * 1e6 / f64::from(iters)
}

/// One measured quantity: order statistics over its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub unit: String,
    /// Mean of the middle two samples (the middle one for odd counts).
    pub median: f64,
    /// Nearest-rank percentiles: below 100 samples, p99 is the maximum.
    pub p50: f64,
    pub p99: f64,
    pub samples: usize,
}

impl Metric {
    /// Summarizes `samples` (at least one) measured in `unit`.
    pub fn of(unit: &str, samples: &[f64]) -> Metric {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let rank = |p: f64| s[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1];
        Metric {
            unit: unit.to_string(),
            median: round((s[(n - 1) / 2] + s[n / 2]) / 2.0),
            p50: round(rank(50.0)),
            p99: round(rank(99.0)),
            samples: n,
        }
    }

    /// A single derived or counted value.
    pub fn value(unit: &str, v: f64) -> Metric {
        Metric::of(unit, &[v])
    }
}

/// Three decimals, and 0 for a non-finite value (a ratio over nothing).
fn round(v: f64) -> f64 {
    if v.is_finite() {
        (v * 1000.0).round() / 1000.0
    } else {
        0.0
    }
}

/// A point's parameter: a number or a label.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    Num(f64),
    Text(String),
}

impl From<&str> for Param {
    fn from(v: &str) -> Param {
        Param::Text(v.to_string())
    }
}

impl From<f64> for Param {
    fn from(v: f64) -> Param {
        Param::Num(v)
    }
}

impl From<usize> for Param {
    fn from(v: usize) -> Param {
        Param::Num(v as f64)
    }
}

impl From<u64> for Param {
    fn from(v: u64) -> Param {
        Param::Num(v as f64)
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Param::Num(v) => write!(f, "{v}"),
            Param::Text(s) => f.write_str(s),
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Point {
    params: Vec<(String, Param)>,
    metrics: Vec<(String, Metric)>,
    /// `DbStats` counter deltas over the point's run.
    stats: Vec<(String, u64)>,
}

impl Point {
    pub fn param(&mut self, name: &str, v: impl Into<Param>) -> &mut Point {
        self.params.push((name.to_string(), v.into()));
        self
    }

    pub fn metric(&mut self, name: &str, m: Metric) -> &mut Point {
        self.metrics.push((name.to_string(), m));
        self
    }

    pub fn stat(&mut self, name: &str, v: u64) -> &mut Point {
        self.stats.push((name.to_string(), v));
        self
    }

    /// Parameter, metric (with unit) and counter names: points with
    /// equal shapes share a rendered table.
    fn shape(&self) -> Vec<String> {
        let params = self.params.iter().map(|(n, _)| n.clone());
        let metrics = self
            .metrics
            .iter()
            .map(|(n, m)| format!("{n} ({})", m.unit));
        let stats = self.stats.iter().map(|(n, _)| n.clone());
        params.chain(metrics).chain(stats).collect()
    }
}

/// One bench binary's recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    bench: String,
    git_rev: String,
    host_cpus: usize,
    seed: u64,
    note: String,
    points: Vec<Point>,
}

impl Report {
    /// An empty report stamped with this checkout's revision and this
    /// host's CPU count.
    pub fn new(bench: &str, seed: u64, note: &str) -> Report {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Report {
            bench: bench.to_string(),
            git_rev,
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            seed,
            note: note.to_string(),
            points: Vec::new(),
        }
    }

    /// Appends an empty point and returns it for filling.
    pub fn point(&mut self) -> &mut Point {
        self.points.push(Point::default());
        self.points.last_mut().expect("just pushed")
    }

    /// Where the report of `bench` is committed, relative to the repo root.
    fn path(bench: &str) -> String {
        format!("docs/outputs/BENCH_{bench}.json")
    }

    /// Writes and prints the JSON, or in smoke mode only says it did not.
    pub fn finish(&self) {
        if smoke() {
            eprintln!("BENCH_SMOKE set: asserts passed, JSON not written");
            return;
        }
        let json = self.to_json();
        let path = Report::path(&self.bench);
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        print!("{json}");
        eprintln!("wrote {path}");
    }

    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "{{\n  \"bench\": {},", quote(&self.bench));
        let _ = writeln!(w, "  \"git_rev\": {},", quote(&self.git_rev));
        let _ = writeln!(w, "  \"host_cpus\": {},", self.host_cpus);
        let _ = writeln!(w, "  \"seed\": {},", self.seed);
        let _ = writeln!(w, "  \"note\": {},", quote(&self.note));
        let _ = writeln!(w, "  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            let params: Vec<String> = p
                .params
                .iter()
                .map(|(n, v)| match v {
                    Param::Num(x) => format!("{}: {x}", quote(n)),
                    Param::Text(s) => format!("{}: {}", quote(n), quote(s)),
                })
                .collect();
            let _ = writeln!(w, "    {{\n      \"params\": {{{}}},", params.join(", "));
            let _ = writeln!(w, "      \"metrics\": {{");
            for (j, (n, m)) in p.metrics.iter().enumerate() {
                let _ = writeln!(
                    w,
                    "        {}: {{\"unit\": {}, \"median\": {}, \"p50\": {}, \"p99\": {}, \
                     \"samples\": {}}}{}",
                    quote(n),
                    quote(&m.unit),
                    m.median,
                    m.p50,
                    m.p99,
                    m.samples,
                    if j + 1 < p.metrics.len() { "," } else { "" }
                );
            }
            let stats: Vec<String> = p
                .stats
                .iter()
                .map(|(n, v)| format!("{}: {v}", quote(n)))
                .collect();
            let _ = writeln!(w, "      }},\n      \"stats\": {{{}}}", stats.join(", "));
            let _ = writeln!(
                w,
                "    }}{}",
                if i + 1 < self.points.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses what [`Report::to_json`] writes.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let mut parser = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let root = parser.value()?;
        parser.ws();
        if parser.i != parser.s.len() {
            return Err(format!("trailing bytes at offset {}", parser.i));
        }
        let point = |j: &Json| -> Result<Point, String> {
            let params = j
                .field("params")?
                .obj()?
                .iter()
                .map(|(k, v)| {
                    let p = match v {
                        Json::Num(x) => Param::Num(*x),
                        Json::Str(s) => Param::Text(s.clone()),
                        _ => return Err(format!("param {k}: not a number or string")),
                    };
                    Ok((k.clone(), p))
                })
                .collect::<Result<_, String>>()?;
            let metrics = j
                .field("metrics")?
                .obj()?
                .iter()
                .map(|(k, m)| {
                    let metric = Metric {
                        unit: m.field("unit")?.str()?.to_string(),
                        median: m.field("median")?.num()?,
                        p50: m.field("p50")?.num()?,
                        p99: m.field("p99")?.num()?,
                        samples: m.field("samples")?.num()? as usize,
                    };
                    Ok((k.clone(), metric))
                })
                .collect::<Result<_, String>>()?;
            let stats = j
                .field("stats")?
                .obj()?
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.num()? as u64)))
                .collect::<Result<_, String>>()?;
            Ok(Point {
                params,
                metrics,
                stats,
            })
        };
        Ok(Report {
            bench: root.field("bench")?.str()?.to_string(),
            git_rev: root.field("git_rev")?.str()?.to_string(),
            host_cpus: root.field("host_cpus")?.num()? as usize,
            seed: root.field("seed")?.num()? as u64,
            note: root.field("note")?.str()?.to_string(),
            points: root
                .field("points")?
                .arr()?
                .iter()
                .map(point)
                .collect::<Result<_, String>>()?,
        })
    }

    /// Reads the committed report of `bench`.
    pub fn read(bench: &str) -> Result<Report, String> {
        let path = Report::path(bench);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        Report::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Markdown: a provenance line, then one table per run of points
    /// with the same shape. A metric with more than one sample shows
    /// its median with its p99 and sample count.
    pub fn render(&self) -> String {
        let mut out = format!(
            "`{}` · rev `{}` · host_cpus {} · seed {}\n",
            Report::path(&self.bench),
            self.git_rev,
            self.host_cpus,
            self.seed
        );
        let mut last_shape = None;
        for p in &self.points {
            let shape = p.shape();
            if last_shape.as_ref() != Some(&shape) {
                let _ = write!(out, "\n| {} |\n|", shape.join(" | "));
                out.push_str(&"---|".repeat(shape.len()));
                out.push('\n');
                last_shape = Some(shape);
            }
            let params = p.params.iter().map(|(_, v)| v.to_string());
            let metrics = p.metrics.iter().map(|(_, m)| {
                if m.samples > 1 {
                    format!(
                        "{} (p99 {}, n {})",
                        fmt_num(m.median),
                        fmt_num(m.p99),
                        m.samples
                    )
                } else {
                    fmt_num(m.median)
                }
            });
            let stats = p.stats.iter().map(|(_, v)| group(&v.to_string()));
            let cells: Vec<String> = params.chain(metrics).chain(stats).collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }
}

/// Three significant digits below 100, whole numbers with thousands
/// separators above.
fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if a >= 100.0 {
        group(&format!("{v:.0}"))
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else if a == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.3}")
    }
}

/// `-1234567` → `-1,234,567`.
fn group(digits: &str) -> String {
    let (sign, digits) = digits.split_at(usize::from(digits.starts_with('-')));
    let mut out = String::from(sign);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A JSON string literal: Rust's escaping of `"`, `\\`, `\n` and `\t`
/// is JSON's.
fn quote(s: &str) -> String {
    format!("{s:?}")
}

/// The JSON values the writer emits: no booleans, no nulls.
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn field(&self, key: &str) -> Result<&Json, String> {
        self.obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn obj(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(o) => Ok(o),
            _ => Err("expected an object".into()),
        }
    }

    fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err("expected an array".into()),
        }
    }

    fn str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err("expected a string".into()),
        }
    }

    fn num(&self) -> Result<f64, String> {
        match self {
            Json::Num(v) => Ok(*v),
            _ => Err("expected a number".into()),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&b);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.i))
        }
    }

    /// The elements of a list closed by `close`, each read by `item`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(close) {
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let fields = self.list(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.i += 1;
                Ok(Json::Arr(self.list(b']', Self::value)?))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b"+-.0123456789eE".contains(b))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad value at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut bytes = Vec::new();
        loop {
            let b = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    bytes.push(match e {
                        b'"' | b'\\' => e,
                        b'n' => b'\n',
                        b't' => b'\t',
                        _ => return Err(format!("unknown escape at offset {}", self.i)),
                    });
                }
                b => bytes.push(b),
            }
        }
        String::from_utf8(bytes).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_order_statistics() {
        let m = Metric::of("us", &[5.0, 1.0, 4.0, 2.0]);
        assert_eq!((m.median, m.p50, m.p99, m.samples), (3.0, 2.0, 5.0, 4));
        let one = Metric::value("x", 1.23456);
        assert_eq!(
            (one.median, one.p50, one.p99, one.samples),
            (1.235, 1.235, 1.235, 1)
        );
    }

    #[test]
    fn write_read_render_round_trip() {
        let mut r = Report::new("roundtrip", 42, "quote \" backslash \\ newline \n tab \t µ");
        r.point()
            .param("workload", "scan")
            .param("rows", 4096usize)
            .metric("time", Metric::of("us", &[10.5, 12.25, 9.75]))
            .metric("speedup", Metric::value("x", 3.25))
            .stat("parses", 7)
            .stat("full_scan_rows", 2_880_000);
        r.point()
            .param("workload", "filter")
            .param("rows", 0.5)
            .metric("time", Metric::value("us", 1234567.0))
            .metric("speedup", Metric::value("x", 0.096))
            .stat("parses", 0)
            .stat("full_scan_rows", 1);
        r.point().param("phase", "total");

        let json = r.to_json();
        let back = Report::from_json(&json).expect("parses its own output");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
        assert_eq!(back.render(), r.render());

        let table = r.render();
        assert!(table
            .contains("| workload | rows | time (us) | speedup (x) | parses | full_scan_rows |"));
        assert!(table.contains("| scan | 4096 | 10.5 (p99 12.2, n 3) | 3.25 | 7 | 2,880,000 |"));
        assert!(table.contains("| filter | 0.5 | 1,234,567 | 0.096 | 0 | 1 |"));
        assert!(table.contains("\n| phase |\n|---|\n| total |\n"));
    }

    #[test]
    fn reader_rejects_other_shapes() {
        assert!(Report::from_json("{\"bench\": \"x\"}").is_err());
        assert!(Report::from_json("[1, 2]").is_err());
        assert!(Report::from_json("{\"bench\": tru}").is_err());
    }
}
