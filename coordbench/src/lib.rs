//! The closed-loop coordination benchmark.
//!
//! A run builds a fleet from a seed and drives the coordinated closed loop
//! (platform evaluation, contention, heartbeat ingestion, lifecycle and
//! budget steps, `Coordinator::step`) in episodes until its time is up. The
//! untraced run reports the end-to-end metrics; the traced run alternates
//! untraced and traced episodes and reports per-layer metrics plus its own
//! overhead. See `README.md` beside this crate for the workloads, metrics
//! and the layer → end-to-end mapping.

pub mod closed_loop;
pub mod inputs;
pub mod report;
pub mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use exec::ExecPool;
use obs::{Counter, Recorder, Stage};
use xeon_sim::XeonServer;

use crate::closed_loop::{run_episode, Episode, SimOutcome};
use crate::inputs::WorkloadSpec;
use crate::report::{floors, median, percentile, rss_kib, Metric};
use crate::trace::{Layer, Trace, Untraced};

/// Episodes a run completes at least, whatever its time budget, so set-up
/// time is a median of several set-ups.
const MIN_EPISODES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub spec: WorkloadSpec,
    pub seed: u64,
    /// Host seconds to keep starting episodes for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub traced: bool,
    /// Where the traced run writes its spans (`None` = keep them in memory
    /// only).
    pub spans_path: Option<PathBuf>,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub workers: usize,
    pub host_cores: usize,
    pub episodes: usize,
    pub quanta: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run):
    /// the result line's metrics.
    pub metrics: Vec<Metric>,
    /// Metrics printed beside the result but kept out of it: two that are
    /// 0 whenever the run is correct, and the step-time tail (see
    /// `end_to_end_metrics`).
    pub printed: Vec<Metric>,
    /// The simulated outcome of the first episode (every episode must
    /// repeat it exactly).
    pub sim: Option<SimOutcome>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|metric| metric.value.is_finite())
    }

    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn result_line(&self) -> String {
        report::result_line(
            self.correct(),
            self.attempted.max(1),
            self.failed,
            &self.metrics,
        )
    }
}

/// Accumulates episodes and the cross-episode checks.
struct Tally {
    episodes: Vec<Episode>,
    sim: Option<SimOutcome>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            episodes: Vec::new(),
            sim: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(message);
        }
    }

    /// Books a finished episode (or the panic that ended it) and checks
    /// that its simulated outcome repeats the first episode's exactly.
    /// Returns whether the episode finished.
    fn book(&mut self, outcome: std::thread::Result<Episode>) -> bool {
        let episode = match outcome {
            Ok(episode) => episode,
            Err(panic) => {
                self.attempted += 1;
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".to_string());
                self.fail(format!("panic: {message}"));
                return false;
            }
        };
        self.attempted += episode.attempted;
        self.failed += episode.failed;
        for failure in &episode.failures {
            if self.failures.len() < 16 {
                self.failures.push(failure.clone());
            }
        }
        match self.sim {
            None => self.sim = Some(episode.sim),
            Some(first) => {
                self.attempted += 1;
                if first != episode.sim {
                    self.fail(format!(
                        "simulated outcome differs between episodes of one seed: \
                         {first:?} vs {:?}",
                        episode.sim
                    ));
                }
            }
        }
        self.episodes.push(episode);
        true
    }
}

/// Runs `config` and reports its metrics.
pub fn run(config: &RunConfig) -> RunReport {
    let spec = &config.spec;
    let server = XeonServer::dell_r410_calibrated();
    let pool = (spec.workers > 1).then(|| Arc::new(ExecPool::new(spec.workers)));
    let (baseline_rss_kib, _) = rss_kib();
    let started = Instant::now();

    let mut untraced = Tally::new();
    let mut peak_rss_kib = 0;
    let mut traced = Tally::new();
    let mut trace = Trace::default();
    let recorder = Arc::new(Recorder::null());
    loop {
        let episode = catch_unwind(AssertUnwindSafe(|| {
            run_episode(
                spec,
                config.seed,
                &server,
                pool.as_ref(),
                None,
                &mut Untraced,
            )
        }));
        let ok = untraced.book(episode);
        if untraced.episodes.len() == 1 {
            peak_rss_kib = rss_kib().1;
        }
        let mut ok_traced = true;
        if config.traced && ok {
            trace.keep_spans = traced.episodes.is_empty();
            if let Some(pool) = &pool {
                let timer = Arc::clone(&recorder);
                pool.set_dispatch_observer(Some(Arc::new(move |ns| {
                    timer.time(Stage::Dispatch, ns)
                })));
            }
            let episode = catch_unwind(AssertUnwindSafe(|| {
                run_episode(
                    spec,
                    config.seed,
                    &server,
                    pool.as_ref(),
                    Some(&recorder),
                    &mut trace,
                )
            }));
            if let Some(pool) = &pool {
                pool.set_dispatch_observer(None);
            }
            // Telemetry is passive: a traced episode must repeat the
            // untraced outcome exactly.
            if let (Ok(episode), Some(first)) = (&episode, untraced.sim) {
                traced.attempted += 1;
                if episode.sim != first {
                    traced.fail("tracing changed the simulated outcome".to_string());
                }
            }
            ok_traced = traced.book(episode);
        }
        let done = untraced.episodes.len() >= MIN_EPISODES
            && started.elapsed().as_secs_f64() >= config.seconds;
        if done || !ok || !ok_traced {
            break;
        }
    }

    let (metrics, mut printed) = if config.traced {
        if let Some(path) = &config.spans_path {
            let run_id = report::fnv1a(
                spec.name
                    .bytes()
                    .map(u64::from)
                    .chain([config.seed, u64::from(std::process::id())]),
            );
            if let Err(error) = trace.write_spans(path, run_id) {
                traced.fail(format!("writing spans to {}: {error}", path.display()));
            }
        }
        if trace.accounting_errors > 0 {
            traced.fail(format!(
                "{} spans overran by their children or calls",
                trace.accounting_errors
            ));
        }
        let metrics = per_layer_metrics(&untraced.episodes, &traced.episodes, &trace, &recorder);
        (metrics, Vec::new())
    } else {
        end_to_end_metrics(&untraced, baseline_rss_kib, peak_rss_kib)
    };

    let episodes = untraced.episodes.len() + traced.episodes.len();
    let quanta = untraced
        .episodes
        .iter()
        .chain(&traced.episodes)
        .map(|e| e.quanta as u64)
        .sum();
    let mut failures = untraced.failures;
    failures.extend(traced.failures);
    let mut report = RunReport {
        workload: spec.name,
        seed: config.seed,
        workers: spec.workers,
        host_cores: report::host_cores(),
        episodes,
        quanta,
        metrics,
        printed: Vec::new(),
        sim: untraced.sim,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        failures,
    };
    printed.extend([
        Metric::new(
            "cap_violation_rate",
            "ratio",
            report.sim.map_or(0.0, |sim| sim.cap_violation_rate),
        ),
        Metric::new("failed_ops_share", "ratio", report.failed_ops_share()),
    ]);
    report.printed = printed;
    report
}

/// Host-time figures come from per-quantum floors over the run's episodes.
/// Every episode repeats the same work quantum by quantum (its simulated
/// outcome is checked to be bit-identical), and a shared host only ever
/// adds time to it: other tenants of the host slow it by up to
/// about 1.6x in phases of seconds to minutes. The least time each quantum
/// took in any episode is its cost with that interference removed, and it
/// repeats from run to run where means and medians follow the host's
/// phase. Set-up time is the median over the run's episodes.
///
/// Returns the result's metrics and the step-time tail, which is printed
/// beside the result but kept out of it: on `churn-steps` the tail is the
/// whole-fleet wake after each budget step, and its run-to-run spread on a
/// shared host (0.13 and 0.22 over two ten-seed sets) is too close to the
/// largest bound a metric may have.
fn end_to_end_metrics(
    tally: &Tally,
    baseline_rss_kib: u64,
    peak_rss_kib: u64,
) -> (Vec<Metric>, Vec<Metric>) {
    let episodes = &tally.episodes;
    let mut setups: Vec<f64> = episodes.iter().map(|e| e.setup_ns as f64 / 1e9).collect();
    let loop_ns: u64 = floors(episodes.iter().map(|e| e.quantum_ns.as_slice()))
        .iter()
        .sum();
    let app_quanta = episodes.first().map_or(0, |e| e.app_quanta);
    let mut steps = floors(episodes.iter().map(|e| e.step_ns.as_slice()));
    steps.sort_unstable();
    let step_percentile = |p: f64| percentile(&steps, p) / 1e3;
    let peak_fleet = episodes.iter().map(|e| e.peak_fleet).max().unwrap_or(0);
    let rss_growth_kib = peak_rss_kib.saturating_sub(baseline_rss_kib);
    let sim = tally.sim.unwrap_or(SimOutcome {
        goal_attainment: 0.0,
        perf_per_watt: 0.0,
        cap_violation_rate: 0.0,
        digest: 0,
    });
    let metrics = vec![
        Metric::new("setup_s", "s", median(&mut setups)),
        Metric::new(
            "app_quanta_per_s",
            "1/s",
            app_quanta as f64 / (loop_ns.max(1) as f64 / 1e9),
        ),
        Metric::new("step_p50_us", "us", step_percentile(0.50)),
        Metric::new(
            "rss_per_app_kib",
            "KiB",
            rss_growth_kib as f64 / peak_fleet.max(1) as f64,
        ),
        Metric::new("goal_attainment", "ratio", sim.goal_attainment),
        Metric::new("perf_per_watt", "1/W", sim.perf_per_watt),
        // The cap metric enters the result as its complement: the
        // violation rate is 0 on a held cap, and a 0 has no relative spread.
        Metric::new("cap_compliance", "ratio", 1.0 - sim.cap_violation_rate),
    ];
    // The 90th percentile, not the 99th: a churn-steps episode has 120
    // quanta, and only the 90th leaves at least ten of them beyond it.
    let tail = vec![Metric::new("step_p90_us", "us", step_percentile(0.90))];
    (metrics, tail)
}

fn per_layer_metrics(
    untraced: &[Episode],
    traced: &[Episode],
    trace: &Trace,
    recorder: &Recorder,
) -> Vec<Metric> {
    let snapshot = recorder.snapshot();
    let quanta = trace.quanta.max(1) as f64;
    let episodes = traced.len().max(1) as f64;
    let per_quantum_us = |ns: u64| ns as f64 / 1e3 / quanta;
    let per_quantum = |count: u64| count as f64 / quanta;
    let looped = |layer: Layer| trace.looped[layer as usize];
    let whole = |layer: Layer| trace.episode[layer as usize];
    let mean_us = |stage: Stage| snapshot.stage(stage).mean_ns() / 1e3;
    let stage_us = |stage: Stage| per_quantum_us(snapshot.stage(stage).sum_ns);
    let counter = |counter: Counter| snapshot.counter(counter);

    let active: u64 = traced.iter().map(|e| e.app_quanta).sum();
    let share = |part: u64| part as f64 / active.max(1) as f64;
    let decisions = counter(Counter::AppsDecided) + counter(Counter::AppsRearbitrated);
    let changed = counter(Counter::AwardsChanged);
    let held = counter(Counter::AwardsHeld);
    let loop_time = |episodes: &[Episode]| {
        let ns: u64 = episodes.iter().map(Episode::loop_ns).sum();
        let quanta: usize = episodes.iter().map(|e| e.quanta).sum();
        ns as f64 / quanta.max(1) as f64
    };

    let step_ns = looped(Layer::Step).busy_ns;
    let loop_ns = trace.quantum_ns.max(1) as f64;
    let mut metrics = vec![
        Metric::new(
            "xeon_sim.evaluate_us",
            "us/quantum",
            per_quantum_us(looped(Layer::Evaluate).busy_ns),
        ),
        Metric::new(
            "xeon_sim.evaluations",
            "count/quantum",
            per_quantum(looped(Layer::Evaluate).calls),
        ),
        Metric::new(
            "xeon_sim.meter_us",
            "us/quantum",
            per_quantum_us(looped(Layer::Meter).busy_ns),
        ),
        Metric::new(
            "heartbeats.advance_us",
            "us/quantum",
            per_quantum_us(looped(Layer::Advance).busy_ns),
        ),
        Metric::new(
            "heartbeats.reports",
            "count/quantum",
            per_quantum(looped(Layer::Advance).calls),
        ),
        Metric::new("coordinator.step_us", "us/quantum", per_quantum_us(step_ns)),
    ];
    // Stage histograms are log2-bucketed, so their quantiles move in
    // powers of two; the exact mean and total are reported instead.
    for (name, stage) in [
        ("observe", Stage::Observe),
        ("arbitrate", Stage::Arbitrate),
        ("decide", Stage::Decide),
        ("summarise", Stage::Summarise),
    ] {
        metrics.push(Metric::new(
            format!("coordinator.{name}_mean_us"),
            "us",
            mean_us(stage),
        ));
        metrics.push(Metric::new(
            format!("coordinator.{name}_us"),
            "us/quantum",
            stage_us(stage),
        ));
    }
    let dispatch = snapshot.stage(Stage::Dispatch);
    metrics.extend([
        Metric::new("seec.decision_mean_us", "us", mean_us(Stage::Decision)),
        Metric::new("seec.decisions", "count/quantum", per_quantum(decisions)),
        Metric::new("coordinator.awake_share", "ratio", share(decisions)),
        Metric::new(
            "coordinator.slept_share",
            "ratio",
            share(counter(Counter::AppsSlept)),
        ),
        Metric::new(
            "coordinator.awards_changed_share",
            "ratio",
            changed as f64 / (changed + held).max(1) as f64,
        ),
        // Below the shard threshold nothing is dispatched, so dispatch
        // time is given as its share of step time (0 there, by design).
        Metric::new(
            "exec.dispatch_share",
            "ratio",
            dispatch.sum_ns as f64 / step_ns.max(1) as f64,
        ),
        Metric::new(
            "exec.dispatches",
            "count/quantum",
            per_quantum(dispatch.count),
        ),
    ]);
    // Set-up calls happen in every workload: median call and busy time.
    for (name, layer) in [
        ("coordinator.register", Layer::Register),
        ("seec.runtime_build", Layer::RuntimeBuild),
        ("workloads.phases", Layer::Phases),
        ("workloads.driver_build", Layer::DriverBuild),
    ] {
        metrics.push(Metric::new(
            format!("{name}_us"),
            "us",
            trace.median_ns(layer) / 1e3,
        ));
        metrics.push(Metric::new(
            format!("{name}_ms"),
            "ms/episode",
            whole(layer).busy_ns as f64 / 1e6 / episodes,
        ));
        metrics.push(Metric::new(
            format!("{name}_calls"),
            "count/episode",
            whole(layer).calls as f64 / episodes,
        ));
    }
    // Retirements and budget steps happen only where the input churns or
    // steps: their share of loop time, and their count.
    for (name, layer) in [
        ("coordinator.retire", Layer::Retire),
        ("coordinator.set_budget", Layer::SetBudget),
    ] {
        metrics.push(Metric::new(
            format!("{name}_share"),
            "ratio",
            looped(layer).busy_ns as f64 / loop_ns,
        ));
        metrics.push(Metric::new(
            format!("{name}_calls"),
            "count/episode",
            whole(layer).calls as f64 / episodes,
        ));
    }
    metrics.extend([
        Metric::new(
            "bench.self_us",
            "us/quantum",
            per_quantum_us(trace.bench_self_ns),
        ),
        Metric::new(
            "bench.quantum_us",
            "us/quantum",
            per_quantum_us(trace.quantum_ns),
        ),
        Metric::new(
            "obs.traced_overhead",
            "ratio",
            loop_time(traced) / loop_time(untraced).max(1.0) - 1.0,
        ),
    ]);
    metrics
}
