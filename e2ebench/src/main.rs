//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a record line (seed, git rev, host, sample counts, table sizes)
//! and then, as the last line, the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits non-zero when the run was not correct.

use e2ebench::{run, Config, Sizes, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <running_example|large_orders|durable_history> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a non-negative number"));
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let report = run(&Config {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::full(),
    });
    if let Some(e) = &report.error {
        eprintln!("e2ebench: {} failed: {e}", workload.name());
    }
    println!("{}", report.record);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        report.metrics.to_json()
    );
    if !report.correct {
        std::process::exit(1);
    }
}
