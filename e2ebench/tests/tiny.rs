//! A tiny run of each workload passes the correctness gate and emits every
//! metric `BENCHMARK.json` names, with its unit. No test asserts a speed or
//! a count that depends on the engine's access paths: the counts are only
//! checked to repeat exactly between two runs of the same seed.

use e2ebench::{run, Config, Report, Sizes, Workload};

/// `(name, unit)` of the metrics listed under `section` in BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    // Sections are arrays of flat objects; the first `]` closes this one.
    let body = &text[start..start + text[start..].find(']').expect("array closes")];
    let field = |from: &str, key: &str| -> Option<(String, usize)> {
        let at = from.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = from[at..].find('"')?;
        Some((from[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, end)) = field(rest, "name") {
        let (unit, unit_end) = field(&rest[end..], "unit").expect("unit follows name");
        out.push((name, unit));
        rest = &rest[end + unit_end..];
    }
    assert!(!out.is_empty(), "no metrics under {section}");
    out
}

/// A tiny run. With no time to fill, the timed phase is exactly the
/// minimum number of batches, so two runs do the same work.
fn tiny(workload: Workload, trace: bool) -> Report {
    let report = run(&Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        sizes: Sizes::tiny(),
    });
    assert!(report.correct, "{}: {:?}", workload.name(), report.error);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    report
}

fn assert_emits(report: &Report, section: &str) {
    let want = declared(section);
    assert_eq!(
        report.metrics.0.len(),
        want.len(),
        "{section}: metric count"
    );
    for (name, unit) in want {
        let m = report
            .metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{section} metric {name} missing"));
        assert_eq!(m.unit, unit, "{name}: unit");
        assert!(m.value.is_finite(), "{name}: value");
    }
}

#[test]
fn every_workload_passes_the_gate_and_emits_the_end_to_end_metrics() {
    for w in Workload::ALL {
        let report = tiny(w, false);
        assert_emits(&report, "end_to_end");
        for m in &report.metrics.0 {
            assert!(
                m.value > 0.0,
                "{}: end-to-end {} is {}",
                w.name(),
                m.name,
                m.value
            );
        }
        for key in [
            "\"seed\": 7",
            "\"host_cpus\"",
            "\"git_rev\"",
            "\"samples\"",
            "\"tables\"",
        ] {
            assert!(
                report.record.contains(key),
                "{}: record lacks {key}",
                w.name()
            );
        }
    }
}

#[test]
fn every_workload_emits_the_per_layer_metrics() {
    for w in Workload::ALL {
        assert_emits(&tiny(w, true), "per_layer");
    }
}

#[test]
fn counts_repeat_exactly_between_runs() {
    for w in Workload::ALL {
        let a = tiny(w, true);
        let b = tiny(w, true);
        for m in a
            .metrics
            .0
            .iter()
            .filter(|m| matches!(m.unit, "count" | "bytes" | "rows"))
        {
            let other = b.metrics.get(&m.name).expect("same metrics");
            assert_eq!(m.value, other.value, "{}: {} differs", w.name(), m.name);
        }
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("hit"), None);
}
