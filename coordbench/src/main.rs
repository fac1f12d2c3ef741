//! `coordbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each metric as `metric <name> <value> <unit>`, the outcome digest,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The traced run also writes its spans as JSON
//! lines under `out/` beside this crate.

use std::path::PathBuf;
use std::process::ExitCode;

use coordbench::inputs::{WorkloadSpec, WORKLOADS};
use coordbench::{report, run, RunConfig};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("coordbench: {error}");
            eprintln!(
                "usage: coordbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = WorkloadSpec::named(&args.workload, report::host_cores()) else {
        eprintln!(
            "coordbench: unknown workload {}; choose one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let mode = if args.traced { "traced" } else { "untraced" };
    let spans_path = args.traced.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", spec.name, args.seed))
    });
    let report = run(&RunConfig {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        spans_path,
    });

    println!(
        "workload {} seed {} mode {mode} workers {} host_cores {} episodes {} quanta {}",
        report.workload,
        report.seed,
        report.workers,
        report.host_cores,
        report.episodes,
        report.quanta
    );
    for metric in report.metrics.iter().chain(&report.printed) {
        println!("metric {} {} {}", metric.name, metric.value, metric.unit);
    }
    if let Some(sim) = report.sim {
        println!("outcome_digest {:016x}", sim.digest);
    }
    for failure in &report.failures {
        println!("failure {failure}");
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
