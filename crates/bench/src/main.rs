//! The performance harness: `cargo run --release -p bench`.
//!
//! Measures the two numbers the perf trajectory is tracked by —
//!
//! * `BENCH_fig3.json` — end-to-end wall-clock of a full Figure-3 run
//!   (the heaviest figure: five benchmarks × five policies over the
//!   560-configuration grid), compared against the pre-optimisation
//!   baseline recorded below;
//! * `BENCH_decide.json` — the hot-path micro-costs: one SEEC decision
//!   over the Xeon action space, one heartbeat emission, and one
//!   heart-rate statistics query.
//!
//! All timings are summarised as min/median/mean/max over repeated samples
//! (`criterion::summarize`); machine-readable consumers should key on the
//! median, which is robust to scheduler noise. Pass `--fast` (the CI smoke
//! mode) to cut sample counts; the JSON then carries `"mode": "fast"` so
//! trend dashboards can ignore those points.

use std::sync::Arc;
use std::time::{Duration, Instant};

use coordinator::{Coordinator, ManagedApp, PerformanceMarket};
use obs::Recorder;
use criterion::{black_box, summarize, Summary};
use experiments::Figure3;
use heartbeats::{Goal, HeartbeatRegistry, PerformanceGoal};
use seec::SeecRuntime;
use serde::Serialize;
use workloads::{HeartbeatedWorkload, SplashBenchmark, Workload};
use xeon_sim::XeonServer;

/// Figure-3 wall-clock of the unoptimised pipeline (seed 2012, 120 quanta),
/// measured at the commit immediately before the allocation-free decision
/// loop and memoized experiment harness landed, on the same reference host
/// the optimised numbers in EXPERIMENTS.md were measured on. Kept so every
/// future `BENCH_fig3.json` records the cumulative speedup.
const PRE_OPTIMIZATION_FIG3_SECONDS: f64 = 0.107;

#[derive(Serialize)]
struct TimingSummary {
    unit: &'static str,
    samples: usize,
    min: f64,
    median: f64,
    mean: f64,
    max: f64,
}

impl TimingSummary {
    fn from_summary(summary: &Summary, unit: &'static str, scale: f64) -> Self {
        let convert = |d: Duration| d.as_secs_f64() * scale;
        TimingSummary {
            unit,
            samples: summary.samples,
            min: convert(summary.min),
            median: convert(summary.median),
            mean: convert(summary.mean),
            max: convert(summary.max),
        }
    }
}

#[derive(Serialize)]
struct Fig3Bench {
    mode: &'static str,
    seed: u64,
    quanta_per_run: usize,
    wall_clock: TimingSummary,
    pre_optimization_baseline_seconds: f64,
    speedup_vs_baseline: f64,
}

#[derive(Serialize)]
struct DecideBench {
    mode: &'static str,
    /// One full observe–decide–act iteration over the 8 × 7 × 10 Xeon
    /// action space (560 configurations), including heartbeat emission.
    ns_per_decision: TimingSummary,
    /// One heartbeat emission into a 64-beat window.
    ns_per_heartbeat: TimingSummary,
    /// One O(1) heart-rate statistics query.
    ns_per_stats_query: TimingSummary,
}

fn sample<F: FnMut() -> usize>(samples: usize, mut routine: F) -> (Summary, f64) {
    // One warm-up, then timed samples; returns the per-iteration scale
    // factor (iterations of the last sample) alongside the summary.
    let mut iterations = routine();
    let mut timings = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        iterations = routine();
        timings.push(start.elapsed());
    }
    (summarize(&timings), iterations as f64)
}

fn bench_fig3(samples: usize, mode: &'static str) -> Fig3Bench {
    let spec = experiments::fig3::Figure3Spec::default();
    let (summary, _) = sample(samples, || {
        black_box(Figure3::compute(&spec));
        1
    });
    let median_seconds = summary.median.as_secs_f64();
    Fig3Bench {
        mode,
        seed: spec.seed,
        quanta_per_run: spec.quanta_per_run,
        wall_clock: TimingSummary::from_summary(&summary, "seconds", 1.0),
        pre_optimization_baseline_seconds: PRE_OPTIMIZATION_FIG3_SECONDS,
        speedup_vs_baseline: PRE_OPTIMIZATION_FIG3_SECONDS / median_seconds,
    }
}

fn bench_decide(samples: usize, iterations: usize, mode: &'static str) -> DecideBench {
    let server = XeonServer::dell_r410();

    // ns/decision: a closed loop emitting four beats per period, so every
    // decision runs the full observe–decide–act path (window attribution,
    // model selection over 560 configurations, schedule, actuation).
    let (decision_summary, decision_iters) = sample(samples, || {
        let registry = HeartbeatRegistry::new("bench");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(25.0)));
        let issuer = registry.issuer();
        let mut runtime = SeecRuntime::builder(registry.monitor())
            .actuators(experiments::fig3::xeon_actuators(&server))
            .seed(7)
            .build()
            .expect("actuators registered");
        let mut now = 0.0;
        for _ in 0..iterations {
            for _ in 0..4 {
                now += 0.01;
                issuer.heartbeat(now);
            }
            black_box(runtime.decide(now).expect("goal registered"));
        }
        iterations
    });

    // ns/heartbeat: emission into the default 64-beat ring.
    let beat_iterations = iterations * 100;
    let (heartbeat_summary, heartbeat_iters) = sample(samples, || {
        let registry = HeartbeatRegistry::new("bench");
        let issuer = registry.issuer();
        let mut now = 0.0;
        for _ in 0..beat_iterations {
            now += 0.001;
            black_box(issuer.heartbeat(now));
        }
        beat_iterations
    });

    // ns/stats query: the O(1) rolling statistics read.
    let registry = HeartbeatRegistry::new("bench");
    let issuer = registry.issuer();
    let monitor = registry.monitor();
    let mut now = 0.0;
    for _ in 0..128 {
        now += 0.001;
        issuer.heartbeat(now);
    }
    let (stats_summary, stats_iters) = sample(samples, || {
        for _ in 0..beat_iterations {
            black_box(monitor.heart_rate());
        }
        beat_iterations
    });

    DecideBench {
        mode,
        ns_per_decision: TimingSummary::from_summary(
            &decision_summary,
            "nanoseconds",
            1.0e9 / decision_iters,
        ),
        ns_per_heartbeat: TimingSummary::from_summary(
            &heartbeat_summary,
            "nanoseconds",
            1.0e9 / heartbeat_iters,
        ),
        ns_per_stats_query: TimingSummary::from_summary(
            &stats_summary,
            "nanoseconds",
            1.0e9 / stats_iters,
        ),
    }
}

#[derive(Serialize)]
struct CoordinatorStepBench {
    /// Registered (and active) applications.
    apps: usize,
    /// One full coordinator step — fleet snapshot, arbitration, and one
    /// power-capped decision per app over the 560-configuration Xeon
    /// action space — with every per-app stage inline on one thread.
    ns_per_step_sequential: TimingSummary,
    /// The same step with its per-app stages sharded across the
    /// coordinator's *persistent* `exec::ExecPool` (`pool_workers`
    /// threads, shard threshold forced to 0 so every fleet size exercises
    /// the pool). Bit-identical output; only the wall-clock differs.
    ns_per_step_pool: TimingSummary,
    /// Worker threads the pooled measurement used
    /// (`min(available_parallelism, 8)`; 1 on single-core hosts, where
    /// pooled ≈ sequential plus scheduling noise).
    pool_workers: usize,
    /// `sequential median / pool median` — above 1.0 when sharding pays.
    pool_speedup: f64,
}

/// Raw fan-out hand-off cost: what one no-op dispatch round costs under
/// per-call `std::thread::scope` spawning (the coordinator's pre-pool
/// design, reconstructed here) vs. the persistent pool's wake-up.
#[derive(Serialize)]
struct DispatchBench {
    /// Threads per round (fixed, so the comparison is host-independent).
    workers: usize,
    /// Spawn `workers` no-op scoped threads and join them — the per-step
    /// price the old `thread::scope` sharding paid at every quantum.
    ns_per_scope_round: TimingSummary,
    /// One `ExecPool::map_indexed` round over `workers` no-op tasks on a
    /// pool that was spawned once and is reused across rounds.
    ns_per_pool_round: TimingSummary,
    /// `scope median / pool median` — how much the persistent pool
    /// amortises the per-quantum hand-off.
    pool_amortization: f64,
    /// Tasks per chunked-claiming round below: wide and near-free, so the
    /// per-index atomic claim is a real fraction of the cost.
    claim_tasks: usize,
    /// Before: `claim_stride` pinned to 1 — one contended `fetch_add` per
    /// index, the original dispatch.
    ns_per_task_claim_single: TimingSummary,
    /// After: `claim_stride` 0 (auto) — each claim hands out a chunk of
    /// consecutive indices, amortising the atomic.
    ns_per_task_claim_chunked: TimingSummary,
    /// `single median / chunked median` — what chunked claiming buys on
    /// fine-grained batches (≈ 1.0 on a 1-core host, where the atomic was
    /// never contended).
    claim_speedup: f64,
}

/// What the telemetry layer costs per coordinator step — both with the
/// recorder detached (the shipping default, one `Option` branch) and with
/// full in-memory recording live. The off/control pair is an A/A
/// measurement: identical configuration measured twice, so its delta is
/// pure scheduler noise and bounds what the disabled telemetry branch can
/// be costing (the < 2 % obs-off budget in ISSUE acceptance).
#[derive(Serialize)]
struct ObsOverheadBench {
    /// Registered (and active) applications in the measured fleet.
    apps: usize,
    /// Timed coordinator steps per sample.
    steps_per_sample: usize,
    /// Telemetry detached (`Coordinator` obs = `None`) — the default path.
    ns_per_step_obs_off: TimingSummary,
    /// The same fleet and step count re-measured, still detached — the A/A
    /// control.
    ns_per_step_obs_off_control: TimingSummary,
    /// An in-memory [`obs::Recorder`] attached: counters, stage clocks, and
    /// latency histograms recording on every step.
    ns_per_step_obs_on: TimingSummary,
    /// `|control − off| / off` over the per-sample *minimum* — the
    /// standard noise-robust microbenchmark estimator (the minimum strips
    /// scheduler preemptions the median still carries on a busy host).
    /// This is the upper bound on the disabled branch's cost. Target: < 2 %.
    obs_off_overhead_percent: f64,
    /// `(on − off) / off` over the per-sample minimum — the full
    /// recording cost.
    obs_on_overhead_percent: f64,
}

/// One row of the worker-scaling arm: the same 1000-app coordinated fleet
/// stepped at a fixed worker count from the 1/2/4/8 protocol grid.
#[derive(Serialize)]
struct WorkerScalingBench {
    /// Worker count the protocol asks for (always emitted, so a 1-core
    /// container still produces the full grid and the dashboard can see
    /// the clamp).
    workers_requested: usize,
    /// Worker count actually measured (`min(requested, host_cores)` —
    /// oversubscribing a small host would measure scheduler churn, not
    /// sharding).
    workers_used: usize,
    /// One full coordinator step at this worker count.
    ns_per_step: TimingSummary,
    /// `workers=1 median / this median` — the sharding scaling curve.
    speedup_vs_one_worker: f64,
}

/// The contended-machine arm: the same sharded cache-line walk at two
/// per-worker working-set sizes — one that fits comfortably in cache and
/// one that spills any shared last-level slice — touching the same number
/// of lines either way. The ratio says how much of the pooled speedup
/// survives when shards compete for cache and memory bandwidth instead of
/// each owning a warm slice, which is the regime a consolidated
/// million-app host actually runs in.
#[derive(Serialize)]
struct ContentionBench {
    /// Pool threads walking concurrently.
    workers: usize,
    /// Bytes each worker's shard spans in the cache-resident variant.
    resident_bytes_per_worker: usize,
    /// Bytes each worker's shard spans in the thrashing variant.
    thrash_bytes_per_worker: usize,
    /// Per cache line touched, shards resident.
    ns_per_line_resident: TimingSummary,
    /// Per cache line touched, shards thrashing (same total lines).
    ns_per_line_thrash: TimingSummary,
    /// `thrash median / resident median` — ≥ 1, and the gap is the cache
    /// contention cost the fleet-scaling projections must budget for.
    contention_penalty: f64,
}

#[derive(Serialize)]
struct Fig5Bench {
    mode: &'static str,
    /// Cores the host actually exposes (`std::thread::available_parallelism`;
    /// 1 when detection fails). Interprets `pool_workers` and the pooled
    /// timings: on a 1-core host pooled ≈ sequential and that is not a
    /// regression.
    host_cores: usize,
    /// Pool-vs-scope dispatch cost (no-op tasks, fixed thread count) and
    /// the chunked-claiming before/after.
    dispatch: DispatchBench,
    /// Sequential-vs-pooled step latency at each fleet size.
    fleet: Vec<CoordinatorStepBench>,
    /// Step latency across the 1/2/4/8 worker grid at 1000 apps.
    worker_scaling: Vec<WorkerScalingBench>,
    /// Cache-resident vs. thrashing shard walks.
    contention: ContentionBench,
    /// Telemetry cost per step: off vs. A/A control vs. recording.
    obs_overhead: ObsOverheadBench,
}

fn bench_dispatch(samples: usize, iterations: usize) -> DispatchBench {
    let workers = 4;
    let rounds = iterations.max(50);
    let (scope_summary, scope_iters) = sample(samples, || {
        for _ in 0..rounds {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| black_box(()));
                }
            });
        }
        rounds
    });
    let pool = exec::ExecPool::new(workers);
    let (pool_summary, pool_iters) = sample(samples, || {
        for _ in 0..rounds {
            black_box(pool.map_indexed(workers, |_| ()));
        }
        rounds
    });

    // Chunked index claiming, before/after: the same wide batch of
    // near-free tasks drained one-index-per-claim (the original dispatch)
    // and chunk-per-claim (the shipping auto stride). The task body writes
    // one word, so the difference is claim traffic, not work.
    let claim_tasks = 65_536usize;
    let mut buffer = vec![0u64; claim_tasks];
    pool.set_claim_stride(1);
    let (single_summary, single_iters) = sample(samples, || {
        pool.for_each_mut(&mut buffer, |i, item| *item = i as u64);
        claim_tasks
    });
    pool.set_claim_stride(0);
    let (chunked_summary, chunked_iters) = sample(samples, || {
        pool.for_each_mut(&mut buffer, |i, item| *item = i as u64);
        claim_tasks
    });
    black_box(&buffer);

    let scope = TimingSummary::from_summary(&scope_summary, "nanoseconds", 1.0e9 / scope_iters);
    let pooled = TimingSummary::from_summary(&pool_summary, "nanoseconds", 1.0e9 / pool_iters);
    let amortization = scope.median / pooled.median.max(f64::MIN_POSITIVE);
    let single =
        TimingSummary::from_summary(&single_summary, "nanoseconds", 1.0e9 / single_iters);
    let chunked =
        TimingSummary::from_summary(&chunked_summary, "nanoseconds", 1.0e9 / chunked_iters);
    let claim_speedup = single.median / chunked.median.max(f64::MIN_POSITIVE);
    DispatchBench {
        workers,
        ns_per_scope_round: scope,
        ns_per_pool_round: pooled,
        pool_amortization: amortization,
        claim_tasks,
        ns_per_task_claim_single: single,
        ns_per_task_claim_chunked: chunked,
        claim_speedup,
    }
}

fn coordinator_with_apps(apps: usize) -> (Coordinator, Vec<coordinator::AppHandle>) {
    let server = XeonServer::dell_r410_calibrated();
    let mut coordinator = Coordinator::new(500.0, Box::new(PerformanceMarket::default()));
    let mut handles = Vec::with_capacity(apps);
    for index in 0..apps {
        let workload = Workload::new(
            SplashBenchmark::ALL[index % SplashBenchmark::ALL.len()],
            index as u64,
        );
        let driver = HeartbeatedWorkload::new(workload);
        driver.set_heart_rate_goal(25.0);
        let runtime = SeecRuntime::builder(driver.monitor())
            .actuators(experiments::fig3::xeon_actuators(&server))
            .seed(index as u64)
            .build()
            .expect("actuators registered");
        handles.push(coordinator.register(
            ManagedApp::new(driver, runtime)
                .with_weight(1.0 + (index % 4) as f64)
                .with_nominal_power_hint(5.0),
        ));
    }
    (coordinator, handles)
}

fn bench_obs_overhead(samples: usize, iterations: usize) -> ObsOverheadBench {
    let apps = 100;
    // Longer samples than the fleet bench: the off/control delta is the
    // quantity of interest and it needs the per-sample noise well under
    // the 2 % budget it is bounding.
    let steps = (iterations / apps).max(8) * 5;
    let (mut coordinator, handles) = coordinator_with_apps(apps);
    coordinator.set_workers(1);
    let recorder = Arc::new(Recorder::in_memory());
    let mut now = 0.0;
    let mut off = Vec::with_capacity(samples);
    let mut control = Vec::with_capacity(samples);
    let mut on = Vec::with_capacity(samples);
    // The three configurations are interleaved inside every pass so slow
    // drift (thermal, sibling load) hits all of them equally; pass 0 is
    // the warm-up and is discarded.
    for pass in 0..=samples {
        let configurations: [(&mut Vec<Duration>, Option<Arc<Recorder>>); 3] = [
            (&mut off, None),
            (&mut control, None),
            (&mut on, Some(Arc::clone(&recorder))),
        ];
        for (timings, observer) in configurations {
            coordinator.set_obs(observer);
            let mut timed = Duration::ZERO;
            for _ in 0..steps {
                now += 0.1;
                for &handle in &handles {
                    coordinator.advance(handle, now - 0.1, now, 2.0, 5.0);
                }
                let start = Instant::now();
                black_box(coordinator.step(now).expect("goals registered"));
                timed += start.elapsed();
            }
            if pass > 0 {
                timings.push(timed);
            }
        }
    }
    coordinator.set_obs(None);
    let scale = 1.0e9 / steps as f64;
    let off = TimingSummary::from_summary(&summarize(&off), "nanoseconds", scale);
    let control = TimingSummary::from_summary(&summarize(&control), "nanoseconds", scale);
    let on = TimingSummary::from_summary(&summarize(&on), "nanoseconds", scale);
    let baseline = off.min.max(f64::MIN_POSITIVE);
    let obs_off_overhead_percent = (control.min - off.min).abs() / baseline * 100.0;
    let obs_on_overhead_percent = (on.min - off.min) / baseline * 100.0;
    ObsOverheadBench {
        apps,
        steps_per_sample: steps,
        ns_per_step_obs_off: off,
        ns_per_step_obs_off_control: control,
        ns_per_step_obs_on: on,
        obs_off_overhead_percent,
        obs_on_overhead_percent,
    }
}

fn bench_worker_scaling(
    samples: usize,
    iterations: usize,
    host_cores: usize,
) -> Vec<WorkerScalingBench> {
    let apps = 1000;
    let steps = (iterations / apps).max(4);
    let (mut coordinator, handles) = coordinator_with_apps(apps);
    // Threshold 0 so every row actually exercises the pool at its worker
    // count; the fleet is built once and reused across the whole grid.
    coordinator.set_shard_threshold(0);
    let mut now = 0.0;
    let mut baseline = f64::NAN;
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|requested| {
            let used = requested.min(host_cores).max(1);
            coordinator.set_workers(used);
            let mut timings = Vec::with_capacity(samples);
            for pass in 0..=samples {
                let mut timed = Duration::ZERO;
                for _ in 0..steps {
                    now += 0.1;
                    for &handle in &handles {
                        coordinator.advance(handle, now - 0.1, now, 2.0, 5.0);
                    }
                    let start = Instant::now();
                    black_box(coordinator.step(now).expect("goals registered"));
                    timed += start.elapsed();
                }
                if pass > 0 {
                    timings.push(timed);
                }
            }
            let summary = TimingSummary::from_summary(
                &summarize(&timings),
                "nanoseconds",
                1.0e9 / steps as f64,
            );
            if requested == 1 {
                baseline = summary.median;
            }
            let speedup = baseline / summary.median.max(f64::MIN_POSITIVE);
            WorkerScalingBench {
                workers_requested: requested,
                workers_used: used,
                ns_per_step: summary,
                speedup_vs_one_worker: speedup,
            }
        })
        .collect()
}

fn bench_contention(samples: usize) -> ContentionBench {
    let workers = 4;
    let pool = exec::ExecPool::new(workers);
    // 32 KiB/worker sits in L1/L2 on anything; 8 MiB/worker spills any
    // shared LLC slice once four shards walk at once.
    let resident_bytes = 32 << 10;
    let thrash_bytes = 8 << 20;
    let resident_words = resident_bytes / 8;
    let thrash_words = thrash_bytes / 8;
    let resident: Vec<u64> = (0..resident_words * workers).map(|i| i as u64).collect();
    let thrash: Vec<u64> = (0..thrash_words * workers).map(|i| i as u64).collect();
    // Both variants touch the same total line count: the resident walk
    // loops its small shard until it has covered one thrash-shard's worth.
    let touches_per_worker = thrash_words;
    let measure = |data: &[u64], words_per_worker: usize| {
        let rounds = touches_per_worker / words_per_worker;
        sample(samples, || {
            let total: u64 = pool
                .map_indexed(workers, |w| {
                    let shard = &data[w * words_per_worker..(w + 1) * words_per_worker];
                    let mut acc = 0u64;
                    for _ in 0..rounds {
                        // One word per 64-byte line: the walk is a cache /
                        // memory probe, not an ALU benchmark.
                        let mut i = 0;
                        while i < shard.len() {
                            acc = acc.wrapping_add(shard[i]);
                            i += 8;
                        }
                    }
                    acc
                })
                .into_iter()
                .sum();
            black_box(total);
            touches_per_worker / 8 * workers
        })
    };
    let (resident_summary, resident_lines) = measure(&resident, resident_words);
    let (thrash_summary, thrash_lines) = measure(&thrash, thrash_words);
    let resident_timing = TimingSummary::from_summary(
        &resident_summary,
        "nanoseconds",
        1.0e9 / resident_lines,
    );
    let thrash_timing =
        TimingSummary::from_summary(&thrash_summary, "nanoseconds", 1.0e9 / thrash_lines);
    let penalty = thrash_timing.median / resident_timing.median.max(f64::MIN_POSITIVE);
    ContentionBench {
        workers,
        resident_bytes_per_worker: resident_bytes,
        thrash_bytes_per_worker: thrash_bytes,
        ns_per_line_resident: resident_timing,
        ns_per_line_thrash: thrash_timing,
        contention_penalty: penalty,
    }
}

fn bench_coordinator_step(samples: usize, iterations: usize, mode: &'static str) -> Fig5Bench {
    let dispatch = bench_dispatch(samples, iterations / 4);
    let pool_workers = Coordinator::default_workers();
    let fleet = [10usize, 100, 1000, 5000]
        .into_iter()
        .map(|apps| {
            // Scale the iteration count down with fleet size so every
            // configuration samples comparable wall-clock.
            let steps = (iterations / apps.max(1)).max(4);
            // Construction (5000 apps × a 560-configuration table each) is
            // set-up, not step latency: build once and keep stepping the
            // same fleet across samples and both worker counts. Beat
            // emission between steps is application-side work and is
            // excluded from the timings — only the coordinator's
            // observe–arbitrate–decide pipeline counts.
            let (mut coordinator, handles) = coordinator_with_apps(apps);
            let mut now = 0.0;
            let mut sample_steps = |coordinator: &mut Coordinator, timings: &mut Vec<Duration>| {
                // Warm-up pass first: windows populated, buffers sized, so
                // every timed step decides for real on warm state.
                for pass in 0..=samples {
                    let mut timed = Duration::ZERO;
                    for _ in 0..steps {
                        now += 0.1;
                        for &handle in &handles {
                            coordinator.advance(handle, now - 0.1, now, 2.0, 5.0);
                        }
                        let start = Instant::now();
                        black_box(coordinator.step(now).expect("goals registered"));
                        timed += start.elapsed();
                    }
                    if pass > 0 {
                        timings.push(timed);
                    }
                }
            };
            let mut sequential = Vec::with_capacity(samples);
            coordinator.set_workers(1);
            sample_steps(&mut coordinator, &mut sequential);
            let mut pooled = Vec::with_capacity(samples);
            coordinator.set_workers(pool_workers);
            // Threshold 0: even the 10-app fleet goes through the pool, so
            // the column measures the pooled path at every size.
            coordinator.set_shard_threshold(0);
            sample_steps(&mut coordinator, &mut pooled);
            let scale = 1.0e9 / steps as f64;
            let sequential = TimingSummary::from_summary(
                &summarize(&sequential),
                "nanoseconds",
                scale,
            );
            let pooled =
                TimingSummary::from_summary(&summarize(&pooled), "nanoseconds", scale);
            let speedup = sequential.median / pooled.median.max(f64::MIN_POSITIVE);
            CoordinatorStepBench {
                apps,
                ns_per_step_sequential: sequential,
                ns_per_step_pool: pooled,
                pool_workers,
                pool_speedup: speedup,
            }
        })
        .collect();
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    Fig5Bench {
        mode,
        host_cores,
        dispatch,
        fleet,
        worker_scaling: bench_worker_scaling(samples, iterations, host_cores),
        contention: bench_contention(samples),
        obs_overhead: bench_obs_overhead(samples, iterations),
    }
}

/// Writes `BENCH_fig5.json`, carrying over the `fleet_scaling` rows that
/// `fig5 --fleet N` merges into the same file — the perf harness measures
/// the coordinator-step numbers, the fleet harness measures the
/// arbitration-fold scaling, and neither may clobber the other.
fn write_fig5_json(path: &str, fig5: &Fig5Bench) {
    use serde::ser::Value;
    let preserved = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|value| match value {
            Value::Object(entries) => entries
                .into_iter()
                .find(|(key, _)| key == "fleet_scaling")
                .map(|(_, rows)| rows),
            _ => None,
        });
    let mut value = fig5.to_value();
    if let (Value::Object(entries), Some(rows)) = (&mut value, preserved) {
        entries.push(("fleet_scaling".to_string(), rows));
    }
    write_json(path, &value);
}

fn write_json<T: Serialize>(path: &str, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => match std::fs::write(path, json) {
            Ok(()) => println!("wrote {path}"),
            Err(err) => {
                eprintln!("could not write {path}: {err}");
                std::process::exit(1);
            }
        },
        Err(err) => {
            eprintln!("could not serialise {path}: {err}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let fast = std::env::args().any(|arg| arg == "--fast");
    let (mode, fig3_samples, micro_samples, decide_iterations) = if fast {
        ("fast", 3, 3, 200)
    } else {
        ("full", 7, 5, 2000)
    };

    println!("mode: {mode}");
    let fig3 = bench_fig3(fig3_samples, mode);
    println!(
        "fig3 end-to-end: median {:.3} ms over {} samples ({:.1}x vs pre-optimisation baseline)",
        fig3.wall_clock.median * 1.0e3,
        fig3.wall_clock.samples,
        fig3.speedup_vs_baseline
    );
    write_json("BENCH_fig3.json", &fig3);

    let decide = bench_decide(micro_samples, decide_iterations, mode);
    println!(
        "decision: median {:.0} ns   heartbeat: median {:.0} ns   stats query: median {:.0} ns",
        decide.ns_per_decision.median,
        decide.ns_per_heartbeat.median,
        decide.ns_per_stats_query.median
    );
    write_json("BENCH_decide.json", &decide);

    let fig5 = bench_coordinator_step(micro_samples, decide_iterations, mode);
    println!(
        "dispatch round ({} workers, {} host cores): thread::scope median {:.1} µs, \
         persistent pool {:.1} µs ({:.1}x amortised)",
        fig5.dispatch.workers,
        fig5.host_cores,
        fig5.dispatch.ns_per_scope_round.median / 1.0e3,
        fig5.dispatch.ns_per_pool_round.median / 1.0e3,
        fig5.dispatch.pool_amortization,
    );
    println!(
        "index claiming over {} tasks: single-claim median {:.1} ns/task, chunked {:.1} ns/task \
         ({:.2}x)",
        fig5.dispatch.claim_tasks,
        fig5.dispatch.ns_per_task_claim_single.median,
        fig5.dispatch.ns_per_task_claim_chunked.median,
        fig5.dispatch.claim_speedup,
    );
    for entry in &fig5.fleet {
        println!(
            "coordinator step @ {:4} apps: sequential median {:.1} µs, pooled {:.1} µs \
             ({} workers, {:.2}x)",
            entry.apps,
            entry.ns_per_step_sequential.median / 1.0e3,
            entry.ns_per_step_pool.median / 1.0e3,
            entry.pool_workers,
            entry.pool_speedup,
        );
    }
    for entry in &fig5.worker_scaling {
        println!(
            "worker scaling @ 1000 apps: requested {} (used {}): median {:.1} µs \
             ({:.2}x vs one worker)",
            entry.workers_requested,
            entry.workers_used,
            entry.ns_per_step.median / 1.0e3,
            entry.speedup_vs_one_worker,
        );
    }
    println!(
        "contended shards ({} workers): resident {:.2} ns/line, thrashing {:.2} ns/line \
         ({:.2}x penalty)",
        fig5.contention.workers,
        fig5.contention.ns_per_line_resident.median,
        fig5.contention.ns_per_line_thrash.median,
        fig5.contention.contention_penalty,
    );
    println!(
        "obs overhead @ {} apps: off median {:.1} µs, recording {:.1} µs \
         (off-branch bound {:.2}%, recording {:+.2}%)",
        fig5.obs_overhead.apps,
        fig5.obs_overhead.ns_per_step_obs_off.median / 1.0e3,
        fig5.obs_overhead.ns_per_step_obs_on.median / 1.0e3,
        fig5.obs_overhead.obs_off_overhead_percent,
        fig5.obs_overhead.obs_on_overhead_percent,
    );
    write_fig5_json("BENCH_fig5.json", &fig5);
}
