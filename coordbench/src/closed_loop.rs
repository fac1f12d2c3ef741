//! One episode of the coordinated closed loop: a fresh fleet built from the
//! seed, then `quanta` quanta of evaluate → contention → advance →
//! lifecycle/budget → step, mirroring the coordinated arm of
//! `experiments::fig5` through public APIs only.

use std::sync::Arc;
use std::time::Instant;

use coordinator::invariants::{
    active_total, check_award_vector, check_budget_conservation, AwardedApp,
};
use coordinator::{AppHandle, Coordinator, ManagedApp, PerformanceMarket};
use exec::ExecPool;
use experiments::driver::to_server_demand;
use experiments::fig3::{map_configuration, xeon_actuators, CONVEX_PROTOCOL_KI};
use obs::{Counter, Recorder};
use seec::control::PiController;
use seec::SeecRuntime;
use workloads::{HeartbeatedWorkload, QuantumDemand, Workload};
use xeon_sim::{MachineMeter, ServerConfiguration, ServerDemand, XeonServer};

use crate::inputs::{generate, AppInput, WorkloadSpec, PHASES};
use crate::report::Digest;
use crate::trace::{span, timed, Layer, Probe};

/// Simulated seconds per quantum (as in fig5).
const QUANTUM_SECONDS: f64 = 1.0;

/// Beats an app emits per quantum when exactly on target (as in fig5).
const BEATS_PER_QUANTUM_AT_TARGET: f64 = 8.0;

/// The coordinator's default headroom: awards must sum within
/// `budget × HEADROOM`.
const HEADROOM: f64 = 0.95;

/// Failure messages kept per episode; the rest are only counted.
const KEPT_FAILURES: usize = 8;

/// The simulated outcome of an episode: a function of the seed alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Mean over apps of `min(achieved rate / target rate, 1)`.
    pub goal_attainment: f64,
    /// Summed attainment over mean machine watts above idle.
    pub perf_per_watt: f64,
    /// Fraction of simulated time the machine exceeded its cap.
    pub cap_violation_rate: f64,
    /// Hash of every quantum's award vector and chosen configurations.
    pub digest: u64,
}

/// Everything one episode measured.
#[derive(Debug, Clone)]
pub struct Episode {
    pub setup_ns: u64,
    /// Host time of each quantum of the loop, per-quantum checks excluded.
    pub quantum_ns: Vec<u64>,
    pub quanta: usize,
    /// Present apps summed over quanta.
    pub app_quanta: u64,
    /// Host time of each `Coordinator::step`.
    pub step_ns: Vec<u64>,
    pub peak_fleet: usize,
    pub sim: SimOutcome,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Episode {
    /// Host time of the whole quantum loop.
    pub fn loop_ns(&self) -> u64 {
        self.quantum_ns.iter().sum()
    }

    fn fail(&mut self, message: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message());
        }
    }
}

/// Per-app simulation state (fig5's `AppSim`).
struct AppSim {
    input: AppInput,
    demands: Vec<ServerDemand>,
    target_rate: f64,
    active_seconds: f64,
    work_done: f64,
    handle: AppHandle,
}

impl AppSim {
    fn attainment(&self) -> f64 {
        if self.active_seconds <= 0.0 || self.target_rate <= 0.0 {
            return 0.0;
        }
        (self.work_done / self.active_seconds / self.target_rate).min(1.0)
    }
}

/// Builds one app: its phases and platform demands, its goal, and the
/// `ManagedApp` to register (fig5's `build_apps` + `managed_for`, with the
/// convex SEEC tuning). The returned sim's handle is a placeholder until
/// registration.
fn build_app<P: Probe>(
    server: &XeonServer,
    input: AppInput,
    probe: &mut P,
) -> (AppSim, ManagedApp) {
    let (phases, demands, average): (Vec<QuantumDemand>, Vec<ServerDemand>, ServerDemand) =
        timed(probe, Layer::Phases, || {
            let workload = Workload::new(input.benchmark, input.seed);
            let phases = workload.quanta(PHASES);
            let demands = phases.iter().map(to_server_demand).collect();
            (
                phases,
                demands,
                to_server_demand(&workload.average_quantum()),
            )
        });
    let launch = ServerConfiguration::new(1, server.pstates().len() - 1, 1.0);
    let solo = timed(probe, Layer::Evaluate, || {
        server.evaluate(&average, &server.default_configuration())
    });
    let launch_power_watts = timed(probe, Layer::Evaluate, || {
        server.evaluate(&average, &launch)
    })
    .power_above_idle_watts;
    let target_rate = input.target_fraction * solo.work_units / solo.seconds;
    let work_per_beat = target_rate * QUANTUM_SECONDS / BEATS_PER_QUANTUM_AT_TARGET;

    let driver = timed(probe, Layer::DriverBuild, || {
        let driver = HeartbeatedWorkload::with_work_per_beat(
            Workload::new(input.benchmark, input.seed),
            work_per_beat,
        );
        driver.set_heart_rate_goal(target_rate / work_per_beat);
        driver
    });
    let builder = SeecRuntime::builder(driver.monitor())
        .actuators(xeon_actuators(server))
        .seed(input.seed)
        .anchored_estimation(true)
        .controller(PiController::new(1.0, CONVEX_PROTOCOL_KI, 1.0 / 64.0, 64.0));
    let runtime = timed(probe, Layer::RuntimeBuild, || builder.build())
        .expect("the Xeon actuators form a valid action space");
    let managed = ManagedApp::new(driver, runtime)
        .with_weight(input.weight)
        .with_arrival(input.arrival)
        .with_phases(phases)
        .with_nominal_power_hint(launch_power_watts);
    let sim = AppSim {
        input,
        demands,
        target_rate,
        active_seconds: 0.0,
        work_done: 0.0,
        handle: AppHandle::from_index(usize::MAX),
    };
    (sim, managed)
}

/// Sum of the four decide-ledger counters: every active app-quantum lands
/// in exactly one of them.
fn ledger(recorder: &Recorder) -> u64 {
    [
        Counter::AppsSlept,
        Counter::AppsSkipped,
        Counter::AppsRearbitrated,
        Counter::AppsDecided,
    ]
    .into_iter()
    .map(|counter| recorder.counter(counter))
    .sum()
}

/// Runs one episode of `spec` at `seed`. `pool` shards the coordinator's
/// per-app stages; `recorder`, when attached, receives the coordinator's
/// telemetry and enables the decide-ledger check.
pub fn run_episode<P: Probe>(
    spec: &WorkloadSpec,
    seed: u64,
    server: &XeonServer,
    pool: Option<&Arc<ExecPool>>,
    recorder: Option<&Arc<Recorder>>,
    probe: &mut P,
) -> Episode {
    let mut episode = Episode {
        setup_ns: 0,
        quantum_ns: Vec::with_capacity(spec.quanta),
        quanta: spec.quanta,
        app_quanta: 0,
        step_ns: Vec::with_capacity(spec.quanta),
        peak_fleet: 0,
        sim: SimOutcome {
            goal_attainment: 0.0,
            perf_per_watt: 0.0,
            cap_violation_rate: 0.0,
            digest: 0,
        },
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    // ---- Set-up: generate inputs, build and register the initial fleet.
    let setup_started = Instant::now();
    probe.open(span::SETUP);
    probe.open(span::GENERATE);
    let inputs = generate(spec, seed);
    probe.close();
    let budget_range = server.max_power_watts() - server.idle_power_watts();
    let budget = spec.budget.fraction_at(0) * budget_range;
    let mut coordinator = Coordinator::new(budget, Box::new(PerformanceMarket::default()));
    if let Some(pool) = pool {
        coordinator = coordinator.with_pool(Arc::clone(pool));
    }
    if let Some(tolerance) = spec.tolerance {
        coordinator = coordinator.with_arbitration_tolerance(tolerance);
    }
    if let Some(wake) = spec.wake {
        coordinator = coordinator.with_wake_schedule(wake);
    }
    coordinator.set_obs(recorder.cloned());

    let mut sims: Vec<Option<AppSim>> = (0..inputs.apps.len()).map(|_| None).collect();
    let initial = inputs.arrivals.first().map_or(&[][..], Vec::as_slice);
    probe.open(span::BUILD);
    let built: Vec<(AppSim, ManagedApp)> = initial
        .iter()
        .map(|&index| build_app(server, inputs.apps[index], probe))
        .collect();
    probe.close();
    probe.open(span::REGISTER);
    for (&index, (mut sim, managed)) in initial.iter().zip(built) {
        sim.handle = timed(probe, Layer::Register, || coordinator.register(managed));
        sims[index] = Some(sim);
        episode.attempted += 1;
    }
    probe.close();
    probe.close();
    episode.setup_ns = setup_started.elapsed().as_nanos() as u64;

    // ---- The quantum loop.
    let mut meter = MachineMeter::new(budget);
    let mut present: Vec<usize> = initial.to_vec();
    let mut reports: Vec<(f64, f64)> = Vec::new();
    let mut slots: Vec<AwardedApp> = Vec::new();
    let mut digest = Digest::default();
    let mut now = 0.0;
    for quantum in 0..spec.quanta {
        let quantum_started = Instant::now();
        probe.open(span::QUANTUM);
        let start = now;
        now += QUANTUM_SECONDS;

        // Lifecycle: the meter adopts this quantum's cap, departures
        // retire, arrivals register (fig5's order: ascending app index).
        probe.open(span::LIFECYCLE);
        let cap = spec.budget.fraction_at(quantum) * budget_range;
        if cap != meter.cap_watts() {
            meter.set_cap(cap);
        }
        for &index in &inputs.departures[quantum] {
            let handle = sims[index]
                .as_ref()
                .expect("departing apps were built")
                .handle;
            timed(probe, Layer::Retire, || coordinator.retire(handle));
            episode.attempted += 1;
            if let Ok(position) = present.binary_search(&index) {
                present.remove(position);
            }
        }
        if quantum > 0 {
            for &index in &inputs.arrivals[quantum] {
                let (mut sim, managed) = build_app(server, inputs.apps[index], probe);
                sim.handle = timed(probe, Layer::Register, || coordinator.register(managed));
                sims[index] = Some(sim);
                present.push(index);
                episode.attempted += 1;
            }
        }
        probe.close();

        // Evaluate every present app under its current configuration.
        probe.open(span::EVALUATE);
        let mut core_duty_total = 0.0;
        reports.clear();
        for &index in &present {
            let sim = sims[index].as_ref().expect("present apps were built");
            let configuration = map_configuration(
                server,
                coordinator
                    .app(sim.handle)
                    .runtime()
                    .current_configuration(),
            );
            let demand = &sim.demands[(quantum - sim.input.arrival) % sim.demands.len()];
            let report = timed(probe, Layer::Evaluate, || {
                server.evaluate(demand, &configuration)
            });
            reports.push((
                report.work_units / report.seconds,
                report.power_above_idle_watts,
            ));
            core_duty_total += configuration.cores as f64 * configuration.active_cycle_fraction;
        }
        probe.close();

        // Time-multiplex an oversubscribed machine, then feed each app's
        // delivered work and power back through its heartbeats.
        probe.open(span::ADVANCE);
        let contention = if core_duty_total > server.total_cores() as f64 {
            server.total_cores() as f64 / core_duty_total
        } else {
            1.0
        };
        let mut machine_power = 0.0;
        for (&index, &(rate, power)) in present.iter().zip(&reports) {
            let sim = sims[index].as_mut().expect("present apps were built");
            let work = rate * contention * QUANTUM_SECONDS;
            let power = power * contention;
            machine_power += power;
            sim.active_seconds += QUANTUM_SECONDS;
            sim.work_done += work;
            let handle = sim.handle;
            timed(probe, Layer::Advance, || {
                coordinator.advance(handle, start, now, work, power)
            });
        }
        timed(probe, Layer::Meter, || {
            meter.record(QUANTUM_SECONDS, machine_power)
        });
        probe.close();

        // Decide for the next quantum under the budget in force there.
        probe.open(span::STEP);
        let next_budget = spec.budget.fraction_at(quantum + 1) * budget_range;
        if next_budget != coordinator.budget_watts() {
            timed(probe, Layer::SetBudget, || {
                coordinator.set_budget(next_budget)
            });
            episode.attempted += 1;
        }
        let ledger_before = recorder.map(|recorder| ledger(recorder));
        let step_started = Instant::now();
        let stepped = timed(probe, Layer::Step, || coordinator.step(now));
        episode
            .step_ns
            .push(step_started.elapsed().as_nanos() as u64);
        episode.attempted += 1;
        probe.close();
        probe.close();
        episode
            .quantum_ns
            .push(quantum_started.elapsed().as_nanos() as u64);

        // ---- Per-quantum output checks (outside the timed loop).
        episode.app_quanta += present.len() as u64;
        episode.peak_fleet = episode.peak_fleet.max(present.len());
        let summary = match stepped {
            Ok(summary) => summary,
            Err(error) => {
                episode.fail(|| format!("quantum {quantum}: step failed: {error}"));
                continue;
            }
        };
        episode.attempted += 3;
        if summary.active_apps != present.len() || summary.quantum != quantum {
            episode.fail(|| {
                format!(
                    "quantum {quantum}: summary reports {} active apps at quantum {}, \
                     the benchmark counts {}",
                    summary.active_apps,
                    summary.quantum,
                    present.len()
                )
            });
        }
        slots.clear();
        slots.extend(coordinator.apps().iter().map(|app| {
            if app.active_at(quantum) {
                AwardedApp::active()
            } else {
                AwardedApp::absent()
            }
        }));
        let awards = coordinator.awards();
        let violations = check_award_vector(awards, &slots);
        if !violations.is_empty() || awards.len() != slots.len() {
            episode.fail(|| format!("quantum {quantum}: award vector: {violations:?}"));
        }
        let total = active_total(awards, &slots);
        if let Some(violation) =
            check_budget_conservation(total, coordinator.budget_watts() * HEADROOM)
        {
            episode.fail(|| format!("quantum {quantum}: {violation:?}"));
        }
        if let (Some(recorder), Some(before)) = (recorder, ledger_before) {
            episode.attempted += 1;
            let booked = ledger(recorder) - before;
            if booked != summary.active_apps as u64 {
                episode.fail(|| {
                    format!(
                        "quantum {quantum}: decide ledger booked {booked} of {} active apps",
                        summary.active_apps
                    )
                });
            }
        }
        digest.push(quantum as u64);
        for award in awards {
            digest.push(award.to_bits());
        }
        for &index in &present {
            let handle = sims[index]
                .as_ref()
                .expect("present apps were built")
                .handle;
            let chosen = map_configuration(
                server,
                coordinator.app(handle).runtime().current_configuration(),
            );
            digest.push(index as u64);
            digest.push(chosen.cores as u64);
            digest.push(chosen.pstate_index as u64);
            digest.push(chosen.active_cycle_fraction.to_bits());
        }
    }

    let attainments: Vec<f64> = sims.iter().flatten().map(AppSim::attainment).collect();
    let summed: f64 = attainments.iter().sum();
    let mean_watts = meter.mean_watts();
    episode.sim = SimOutcome {
        goal_attainment: summed / attainments.len().max(1) as f64,
        perf_per_watt: if mean_watts > 0.0 {
            summed / mean_watts
        } else {
            0.0
        },
        cap_violation_rate: meter.violation_rate(),
        digest: digest.value(),
    };
    episode
}
