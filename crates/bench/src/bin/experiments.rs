//! Renders every `docs/outputs/BENCH_<bench>.json` into EXPERIMENTS.md,
//! between its `<!-- BEGIN BENCH_<bench> -->` and
//! `<!-- END BENCH_<bench> -->` markers, so that no measured number in
//! EXPERIMENTS.md is typed by hand.
//!
//! With `--check` it writes nothing and exits non-zero when a block
//! differs from what the committed JSONs render: a hand edit of a
//! generated table, or of a JSON, fails the gate. Run from the
//! repository root: `cargo run -p bench --bin experiments [-- --check]`.

use std::process::ExitCode;

use bench::report::Report;

const DOC: &str = "EXPERIMENTS.md";
const OUTPUTS: &str = "docs/outputs";
const BEGIN: &str = "<!-- BEGIN BENCH_";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = match args.as_slice() {
        [] => false,
        [flag] if flag == "--check" => true,
        _ => {
            eprintln!("usage: experiments [--check]");
            return ExitCode::from(2);
        }
    };
    match render_all(check) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::from(2)
        }
    }
}

/// Re-renders every block; returns whether all were already current.
fn render_all(check: bool) -> Result<bool, String> {
    let doc = std::fs::read_to_string(DOC).map_err(|e| format!("{DOC}: {e}"))?;
    let mut benches: Vec<String> = std::fs::read_dir(OUTPUTS)
        .map_err(|e| format!("{OUTPUTS}: {e}"))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            Some(
                name.strip_prefix("BENCH_")?
                    .strip_suffix(".json")?
                    .to_string(),
            )
        })
        .collect();
    benches.sort();

    let mut out = doc.clone();
    let mut stale = Vec::new();
    for bench in &benches {
        let begin = format!("{BEGIN}{bench} -->\n");
        let end = format!("<!-- END BENCH_{bench} -->");
        let start = out
            .find(&begin)
            .ok_or_else(|| format!("{DOC} has no `{}` marker", begin.trim_end()))?
            + begin.len();
        let stop = start
            + out[start..]
                .find(&end)
                .ok_or_else(|| format!("{DOC} has no `{end}` marker"))?;
        let block = Report::read(bench)?.render();
        if out[start..stop] != block {
            out.replace_range(start..stop, &block);
            stale.push(bench);
        }
    }
    for (at, _) in doc.match_indices(BEGIN) {
        let name = doc[at + BEGIN.len()..]
            .split(' ')
            .next()
            .unwrap_or_default();
        if !benches.iter().any(|b| b == name) {
            return Err(format!(
                "{DOC} has a block for BENCH_{name} but {OUTPUTS} has no JSON"
            ));
        }
    }

    if stale.is_empty() {
        return Ok(true);
    }
    for bench in &stale {
        eprintln!("{DOC}: block BENCH_{bench} differs from {OUTPUTS}/BENCH_{bench}.json");
    }
    if check {
        eprintln!("regenerate with `cargo run -p bench --bin experiments`");
        return Ok(false);
    }
    std::fs::write(DOC, out).map_err(|e| format!("{DOC}: {e}"))?;
    eprintln!("rewrote {} block(s) of {DOC}", stale.len());
    Ok(true)
}
