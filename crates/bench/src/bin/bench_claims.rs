//! Regenerates `docs/outputs/BENCH_claims.json` — the paper's
//! qualitative cost claims, measured on one substrate:
//!
//! * **by reference vs by value** (Sec. II-A/III-B/VI-B): copy a staging
//!   table into a sink with one set-oriented `INSERT … SELECT` (the BIS
//!   set-reference way, rows never leave the data source) versus query →
//!   XML RowSet → decode on the consuming side → row-wise re-insert.
//! * **inline vs adapter** (Sec. II): the same query as a direct
//!   statement versus through the Web-service envelope (request
//!   serialized, parsed by the adapter, RowSet response serialized and
//!   parsed back).
//! * **atomic SQL sequence** (Sec. III-B): k UPDATE activities bundled in
//!   one transaction versus k auto-commits, through the full BIS stack.
//! * **set access** (Sec. III-C/IV-C/V-C): a full cursor pass over an XML
//!   RowSet versus DataSet iteration, and one positional XPath access
//!   versus one `DataTable.Select`.
//!
//! `BENCH_SMOKE=1` runs the smallest size of each claim with one sample
//! and skips the JSON write; the assert that by-reference and by-value
//! leave identical sink contents runs in both modes.

use std::hint::black_box;

use adapter::{build_request, parse_response, AdapterResponse, DataAdapterService};
use bench::report::{self, time_us, Metric, Report};
use bis::{AtomicSqlSequence, BisDeployment, DataSourceRegistry, SqlActivity};
use flowcore::builtins::Sequence;
use flowcore::{Activity, Engine, ProcessDefinition, Variables};
use sqlkernel::{Connection, Database, QueryResult, Value};
use wf::{DataSet, DataTable};
use xmlval::Path;

/// The sizes of a sweep, or only its smallest in smoke mode.
fn sizes<const N: usize>(all: [usize; N]) -> Vec<usize> {
    let n = if report::smoke() { 1 } else { N };
    all[..n].to_vec()
}

fn sink(conn: &Connection) -> QueryResult {
    conn.query("SELECT * FROM sink ORDER BY id", &[]).unwrap()
}

fn ref_vs_materialize(report: &mut Report) {
    for n in sizes([16, 128, 1024, 4096]) {
        let db = bench::seeded_wide_db("refmat", n);
        let conn = db.connect();
        let insert = conn
            .prepare("INSERT INTO sink VALUES (?, ?, ?, ?, ?)")
            .unwrap();
        let by_reference = || {
            conn.execute("DELETE FROM sink", &[]).unwrap();
            black_box(
                conn.execute("INSERT INTO sink SELECT * FROM src", &[])
                    .unwrap(),
            );
        };
        let by_value = || {
            conn.execute("DELETE FROM sink", &[]).unwrap();
            // Materialize into the process space…
            let rs = conn.query("SELECT * FROM src", &[]).unwrap();
            let xml = xmlval::rowset::encode(&rs);
            // …hand the XML across the activity boundary…
            let decoded = xmlval::rowset::decode(black_box(&xml)).unwrap();
            // …and push it back row by row.
            for row in &decoded.rows {
                conn.execute_prepared(&insert, row).unwrap();
            }
        };
        by_reference();
        let want = sink(&conn);
        by_value();
        assert_eq!(
            sink(&conn),
            want,
            "by-value must leave the sink by-reference leaves ({n} rows)"
        );
        let r = time_us(by_reference);
        let v = time_us(by_value);
        let factor = v.median / r.median;
        report
            .point()
            .param("rows", n)
            .metric("by_reference", r)
            .metric("by_value", v)
            .metric("value_over_reference", Metric::value("x", factor));
    }
}

fn inline_vs_adapter(report: &mut Report) {
    const SQL: &str = "SELECT id, a, b, c, d FROM src";
    for n in sizes([16, 128, 1024, 4096]) {
        let db = bench::seeded_wide_db("adaptvs", n);
        let conn = db.connect();
        let service = DataAdapterService::new(db.clone());
        // Inline support: direct statement + RowSet materialization
        // (what a retrieve set does).
        let inline = || xmlval::rowset::encode(&conn.query(black_box(SQL), &[]).unwrap());
        let adapter = || {
            let request = build_request("executeQuery", black_box(SQL), &[]);
            let response_text = service.handle(&request).unwrap();
            match parse_response(&response_text).unwrap() {
                AdapterResponse::Rows(rs) => xmlval::rowset::encode(&rs),
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(
            inline(),
            adapter(),
            "both paths must return the same RowSet"
        );
        let i = time_us(|| {
            black_box(inline());
        });
        let a = time_us(|| {
            black_box(adapter());
        });
        let factor = a.median / i.median;
        report
            .point()
            .param("rows", n)
            .metric("inline", i)
            .metric("adapter", a)
            .metric("adapter_over_inline", Metric::value("x", factor));
    }
}

fn update_activity(i: usize) -> SqlActivity {
    SqlActivity::new(
        format!("SQL_{i}"),
        "DS",
        format!("UPDATE src SET b = b + 1 WHERE id % 16 = {}", i % 16),
    )
}

fn deployed(db: &Database, root: impl Activity + 'static) -> ProcessDefinition {
    BisDeployment::new(DataSourceRegistry::new().with(db.clone()))
        .bind_data_source("DS", db.name())
        .deploy(ProcessDefinition::new("bench", root))
}

fn atomic_sequence(report: &mut Report) {
    let engine = Engine::new();
    for k in sizes([2, 8, 32]) {
        let db = bench::seeded_wide_db("atomic", 512);
        let atomic = (0..k).fold(AtomicSqlSequence::new("atomic"), |s, i| {
            s.then(update_activity(i))
        });
        let separate = (0..k).fold(Sequence::new("separate"), |s, i| s.then(update_activity(i)));
        let (atomic, separate) = (deployed(&db, atomic), deployed(&db, separate));
        let run = |def: &ProcessDefinition| {
            let inst = engine.run(def, Variables::new()).unwrap();
            assert!(inst.is_completed());
        };
        let one = time_us(|| run(&atomic));
        let each = time_us(|| run(&separate));
        let saving = (1.0 - one.median / each.median) * 100.0;
        report
            .point()
            .param("k", k)
            .metric("one_transaction", one)
            .metric("k_autocommits", each)
            .metric("saving", Metric::value("%", saving));
    }
}

fn set_access(report: &mut Report) {
    for n in sizes([64, 512, 4096]) {
        let rs = QueryResult {
            columns: vec!["ItemId".into(), "Quantity".into()],
            rows: (0..n)
                .map(|i| vec![Value::Text(format!("item-{i:05}")), Value::Int(i as i64)])
                .collect(),
        };
        let xml = xmlval::rowset::encode(&rs);
        let root = xml.as_element().unwrap().clone();
        let mut ds = DataSet::new();
        ds.add_table(DataTable::from_result("t", &rs));
        let table = ds.first_table().unwrap();
        let mid_path = Path::parse(&format!("/RowSet/Row[{}]/Quantity", n / 2)).unwrap();
        let needle = Value::Text(format!("item-{:05}", n / 2));

        // The while + Java-Snippet cursor over an XML RowSet (BIS / SOA).
        let xml_cursor = time_us(|| {
            let total: i64 = (0..n)
                .map(|i| {
                    let v = xmlval::rowset::cell_value(black_box(&xml), i, "Quantity");
                    v.unwrap().as_i64().unwrap()
                })
                .sum();
            black_box(total);
        });
        // WF's code-activity iteration over a DataSet.
        let dataset = time_us(|| {
            let total: i64 = table
                .live_rows()
                .map(|row| row.values()[1].as_i64().unwrap())
                .sum();
            black_box(total);
        });
        // One positional access: the BPEL-specific assign vs DataTable.Select.
        let xpath = time_us(|| {
            black_box(mid_path.select_strings(black_box(&root)));
        });
        let select = time_us(|| {
            black_box(table.select(|r| r.values()[0] == needle));
        });
        report
            .point()
            .param("rows", n)
            .metric("xml_cursor_pass", xml_cursor)
            .metric("dataset_pass", dataset)
            .metric("xpath_row_mid", xpath)
            .metric("datatable_select", select);
    }
}

fn main() {
    let mut report = Report::new(
        "claims",
        bench::WIDE_SEED,
        "in-memory engine, wall time per operation; ratios compare medians; the atomic \
         sequence runs k UPDATE activities over a 512-row table through the BIS engine",
    );
    ref_vs_materialize(&mut report);
    inline_vs_adapter(&mut report);
    atomic_sequence(&mut report);
    set_access(&mut report);
    report.finish();
}
