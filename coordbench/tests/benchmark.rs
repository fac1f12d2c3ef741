//! The benchmark's own checks: every metric `BENCHMARK.json` names comes
//! out with its unit and no operation fails, at tiny sizes; and the
//! simulated outcome repeats exactly across runs and worker counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use coordbench::closed_loop::run_episode;
use coordbench::inputs::{WorkloadSpec, WORKLOADS};
use coordbench::trace::Untraced;
use coordbench::{run, RunConfig, RunReport};
use exec::ExecPool;
use serde::Deserialize;
use xeon_sim::XeonServer;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

/// The metric sections of `BENCHMARK.json`.
#[derive(Deserialize)]
struct Benchmark {
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

/// A metric's entry in the result line.
#[derive(Deserialize)]
struct Reading {
    value: f64,
    unit: String,
}

/// The result line's object.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reading>,
}

fn benchmark() -> Benchmark {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// A few-second version of the named workload.
fn tiny(name: &str, traced: bool) -> RunReport {
    let spec = WorkloadSpec::named(name, 2)
        .expect("known workload")
        .shrunk(80, 10);
    run(&RunConfig {
        spec,
        seed: 11,
        seconds: 0.0,
        traced,
        spans_path: None,
    })
}

fn assert_prints(report: &RunReport, declared: &[Declared]) {
    let line = report.result_line();
    assert!(
        report.correct(),
        "{}: {:?}",
        report.workload,
        report.failures
    );
    assert_eq!(report.failed_ops_share(), 0.0);
    let result: ResultLine = serde_json::from_str(&line).expect("the result line parses");
    assert!(result.correct, "{}: {line}", report.workload);
    assert!(result.attempted > 0, "{}: {line}", report.workload);
    assert_eq!(
        result.failed, 0,
        "{}: {:?}",
        report.workload, report.failures
    );
    assert!(!declared.is_empty());
    assert_eq!(
        result.metrics.len(),
        declared.len(),
        "{}: {line}",
        report.workload
    );
    for metric in declared {
        let reading = result
            .metrics
            .get(&metric.name)
            .unwrap_or_else(|| panic!("{}: {} missing from {line}", report.workload, metric.name));
        assert!(reading.value.is_finite(), "{}: {line}", metric.name);
        assert_eq!(
            reading.unit, metric.unit,
            "{}: {} must carry unit {}",
            report.workload, metric.name, metric.unit
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_and_fails_nothing() {
    let declared = benchmark();
    for name in WORKLOADS {
        let untraced = tiny(name, false);
        assert_prints(&untraced, &declared.end_to_end);
        let printed: Vec<&str> = untraced.printed.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            printed,
            ["step_p90_us", "cap_violation_rate", "failed_ops_share"]
        );
        let traced = tiny(name, true);
        assert_prints(&traced, &declared.per_layer);
        assert_eq!(
            traced.sim, untraced.sim,
            "{name}: tracing changed the outcome"
        );
    }
}

#[test]
fn outcome_repeats_across_runs_and_worker_counts() {
    let server = XeonServer::dell_r410_calibrated();
    let pool = Arc::new(ExecPool::new(2));
    for name in WORKLOADS {
        // 80 apps clear the coordinator's 64-app shard threshold, so the
        // two-worker episode really dispatches to the pool.
        let spec = WorkloadSpec::named(name, 1).expect("known").shrunk(80, 12);
        let one = run_episode(&spec, 5, &server, None, None, &mut Untraced);
        let again = run_episode(&spec, 5, &server, None, None, &mut Untraced);
        let two = run_episode(&spec, 5, &server, Some(&pool), None, &mut Untraced);
        assert_eq!(one.failed, 0, "{name}: {:?}", one.failures);
        assert_eq!(one.sim, again.sim, "{name}: two runs of one seed differ");
        assert_eq!(one.sim, two.sim, "{name}: workers 1 and 2 differ");
        let other_seed = run_episode(&spec, 6, &server, None, None, &mut Untraced);
        assert_ne!(
            one.sim.digest, other_seed.sim.digest,
            "{name}: digest ignores the seed"
        );
    }
}
