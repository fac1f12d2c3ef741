//! The multi-application scenario runner: one quantum loop for every
//! Figure-5 arm, every chaos arm, and the fuzzer's probe.
//!
//! A [`ScenarioRun`] simulates one [`Scenario`] on the calibrated R410
//! under one [`Control`] (who decides: nobody, each app alone, a flat
//! [`Coordinator`], or a [`DatacenterArbiter`] over per-rack
//! coordinators) and one [`Layout`] (what the hardware is: one machine, or
//! one machine per rack tag). Every quantum it runs the same pipeline:
//!
//! 1. **lifecycle** — the meter adopts the budget step in force, arrivals
//!    register (through [`Coordinator::try_register`], which is exactly
//!    `register` unless the admission feasibility check is on) and
//!    departures retire;
//! 2. **evaluate** — every launched app runs its current configuration
//!    (crashed apps draw nothing);
//! 3. **contend** — an oversubscribed machine time-multiplexes its cores,
//!    scaling work and dynamic power down together;
//! 4. **execute and report** — racks admit the rail draw (their
//!    enforcement point), the meter and attainment accumulate physical
//!    truth, and each runtime hears only what the fault plan lets its app
//!    claim;
//! 5. **decide** — local runtimes decide for the next quantum, and the
//!    platform steps.
//!
//! The layout fixes everything the hardware implies: the contention scope,
//! the budget range (one machine's, or one per rack), the meter counter
//! ([`Counter::MachineMeterViolations`] or
//! [`Counter::DatacenterMeterViolations`]), and the step discipline. On one
//! machine the platform steps at the *end* of each quantum, under the next
//! quantum's budget, so a budget step binds with no violation lag. Across
//! racks it steps at the *start* of each quantum, under the current cap,
//! after registration, so an arrival burst is decided under an envelope
//! before it draws its first watt. An optional after-step hook sees the
//! fleet right after every platform step; the fuzzer's per-quantum oracles
//! live there.

use std::sync::Arc;
use std::time::Instant;

use coordinator::{
    AppHandle, ArbitrationPolicy, Coordinator, DatacenterArbiter, EnforcementMode, ManagedApp,
    PerformanceMarket, RackCoordinator, WakeConfig, WatchdogConfig,
};
use obs::{Counter, ObsSnapshot, Recorder};
use seec::SeecRuntime;
use workloads::{HeartbeatedWorkload, QuantumDemand, Scenario, ScenarioApp, Workload};
use xeon_sim::{MachineMeter, ServerConfiguration, XeonServer};

use crate::driver::{run_cells, to_server_demand};
use crate::faults::FaultRuntime;
use crate::fig3::{
    map_configuration, xeon_actuators, Adaptation, ConvexTuning, LocalRuntime, Protocol,
};
use crate::fig5::{budget_watts, ArmOutcome, RuntimeBlock, QUANTUM_SECONDS};

/// Beats each application should emit per quantum when exactly on target
/// (sets its work-per-beat granularity; the 64-beat window then spans eight
/// quanta).
const BEATS_PER_QUANTUM_AT_TARGET: f64 = 8.0;

/// Seed-mixing constant: cell `i` of a figure with salt `s` runs with seed
/// `seed · SEED_MIX + s + i`.
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// What a multi-application figure computes: the scenarios, the seed
/// every cell derives its own from, and whether to record telemetry.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Root seed. Every (scenario, arm) cell derives its seed from this,
    /// the figure, and the cell index, so results are identical regardless
    /// of worker count or interleaving.
    pub seed: u64,
    /// The scenarios; each runs through every arm of the figure.
    pub scenarios: Vec<Scenario>,
    /// Run every cell under its own in-memory [`Recorder`] and merge the
    /// snapshots in cell-index order, so the combined stream is identical
    /// regardless of worker count. The figure itself is byte-identical
    /// either way — telemetry is read-only.
    pub observe: bool,
}

impl RunSpec {
    /// A spec over `scenarios` with telemetry off.
    pub fn new(seed: u64, scenarios: Vec<Scenario>) -> Self {
        RunSpec {
            seed,
            scenarios,
            observe: false,
        }
    }
}

/// `seed · SEED_MIX + salt`.
pub(crate) fn mix_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(SEED_MIX).wrapping_add(salt)
}

/// Runs every (scenario, arm) cell of `spec` across the worker pool —
/// `cell(scenario, arm, seed, recorder)` with the seed mixed from `salt`
/// and the cell index — and returns the outcomes grouped per scenario in
/// arm order, plus the merged telemetry when `spec.observe` is set.
pub(crate) fn run_arms<T: Send>(
    spec: &RunSpec,
    arms: usize,
    salt: u64,
    cell: impl Fn(&Scenario, usize, u64, Option<&Arc<Recorder>>) -> T + Sync,
) -> (Vec<Vec<T>>, Option<ObsSnapshot>) {
    let cells = run_cells(spec.scenarios.len() * arms, |index| {
        let recorder = spec.observe.then(|| Arc::new(Recorder::in_memory()));
        let seed = mix_seed(spec.seed, salt).wrapping_add(index as u64);
        let outcome = cell(
            &spec.scenarios[index / arms],
            index % arms,
            seed,
            recorder.as_ref(),
        );
        (outcome, recorder.map(|recorder| recorder.snapshot()))
    });
    let mut merged = spec.observe.then(ObsSnapshot::empty);
    let mut cells = cells.into_iter();
    let outcomes = spec
        .scenarios
        .iter()
        .map(|_| {
            cells
                .by_ref()
                .take(arms)
                .map(|(outcome, snapshot)| {
                    if let (Some(merged), Some(snapshot)) = (merged.as_mut(), snapshot) {
                        merged.merge(&snapshot);
                    }
                    outcome
                })
                .collect()
        })
        .collect();
    (outcomes, merged)
}

/// The hardware a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// One machine: cores contend machine-wide, the budget is the
    /// scenario's fraction of one machine's range, the platform steps at
    /// the end of each quantum.
    Machine,
    /// One machine per rack tag: cores contend within a rack, the budget
    /// is the fraction of every rack's range together, the platform steps
    /// at the start of each quantum.
    Racks,
}

impl Layout {
    /// Independent machines (contention scopes).
    fn machines(self, scenario: &Scenario) -> usize {
        match self {
            Layout::Machine => 1,
            Layout::Racks => scenario.rack_count(),
        }
    }

    /// The machine `app` runs on.
    fn machine(self, app: &ScenarioApp) -> usize {
        match self {
            Layout::Machine => 0,
            Layout::Racks => app.rack,
        }
    }

    /// The counter budget-meter violations are booked under.
    fn meter_counter(self) -> Counter {
        match self {
            Layout::Machine => Counter::MachineMeterViolations,
            Layout::Racks => Counter::DatacenterMeterViolations,
        }
    }
}

/// The choices a coordinated control makes.
#[derive(Clone, Copy)]
pub(crate) struct Coordination {
    /// Builds the arbitration policy (once per coordinator, and once for
    /// the datacenter level).
    pub(crate) policy: fn() -> Box<dyn ArbitrationPolicy>,
    /// [`Coordinator::with_admission_control`].
    pub(crate) admission: bool,
    /// [`Coordinator::with_admission_feasibility`].
    pub(crate) feasibility: bool,
    /// The watchdog ladder, calibrated to the fleet ([`fleet_watchdog`]).
    pub(crate) watchdog: bool,
    /// Each rack's [`EnforcementMode`] (racks only).
    pub(crate) enforcement: EnforcementMode,
}

impl Coordination {
    /// The performance market with every robustness knob off.
    pub(crate) const MARKET: Coordination = Coordination {
        policy: || Box::new(PerformanceMarket::default()),
        admission: false,
        feasibility: false,
        watchdog: false,
        enforcement: EnforcementMode::Audit,
    };
}

/// Who decides each application's configuration.
#[derive(Clone, Copy)]
pub(crate) enum Control {
    /// Every app runs the default (flat-out) configuration.
    Fixed,
    /// Every app decides alone through its own runtime.
    Local(Adaptation),
    /// One flat coordinator arbitrates every app.
    Flat(Coordination),
    /// A datacenter arbiter over one rack coordinator per rack tag.
    Racks(Coordination),
}

/// Per-app simulation state shared by every control.
pub(crate) struct AppSim {
    /// The scenario slot (activity window, weight, seed, benchmark); the
    /// single source of the half-open residency semantics
    /// ([`workloads::ScenarioApp::active_at`]).
    pub(crate) spec: ScenarioApp,
    phases: Vec<QuantumDemand>,
    /// Target work rate (work units per second): the app's solo maximum
    /// under the default configuration, scaled by its requested fraction.
    target_rate: f64,
    work_per_beat: f64,
    launch_power_watts: f64,
    // Accumulators over the app's residency.
    active_seconds: f64,
    work_done: f64,
}

impl AppSim {
    pub(crate) fn active_at(&self, quantum: usize) -> bool {
        self.spec.active_at(quantum)
    }

    fn demand_at(&self, quantum: usize) -> &QuantumDemand {
        &self.phases[(quantum - self.spec.arrival) % self.phases.len()]
    }

    /// `min(rate/target, 1)` over the app's residency.
    pub(crate) fn attainment(&self) -> f64 {
        if self.active_seconds <= 0.0 || self.target_rate <= 0.0 {
            return 0.0;
        }
        (self.work_done / self.active_seconds / self.target_rate).min(1.0)
    }
}

/// Builds the per-app simulation state for one scenario.
fn build_apps(server: &XeonServer, scenario: &Scenario) -> Vec<AppSim> {
    let launch = ServerConfiguration::new(1, server.pstates().len() - 1, 1.0);
    scenario
        .apps
        .iter()
        .map(|app| {
            let workload = Workload::new(app.benchmark, app.seed);
            let phases = workload.quanta(scenario.quanta.max(8));
            let average = to_server_demand(&workload.average_quantum());
            let solo = server.evaluate(&average, &server.default_configuration());
            let target_rate = app.target_fraction * solo.work_units / solo.seconds;
            AppSim {
                spec: *app,
                phases,
                target_rate,
                work_per_beat: target_rate * QUANTUM_SECONDS / BEATS_PER_QUANTUM_AT_TARGET,
                launch_power_watts: server.evaluate(&average, &launch).power_above_idle_watts,
                active_seconds: 0.0,
                work_done: 0.0,
            }
        })
        .collect()
}

/// The protocol every closed-loop runtime in a scenario uses: the convex
/// (goal-respecting) one of [`crate::fig3`] with its default tuning.
fn protocol() -> Protocol {
    Protocol::Convex(ConvexTuning::default())
}

/// A heartbeat-instrumented driver for one scenario app, its goal set to
/// the scenario's target rate.
fn heartbeated(sim: &AppSim) -> HeartbeatedWorkload {
    let workload = Workload::new(sim.spec.benchmark, sim.spec.seed);
    let driver = HeartbeatedWorkload::with_work_per_beat(workload, sim.work_per_beat);
    driver.set_heart_rate_goal(sim.target_rate / sim.work_per_beat);
    driver
}

/// The [`ManagedApp`] a coordinated control registers for app `index` at
/// its arrival quantum.
fn managed_for(server: &XeonServer, sim: &AppSim, seed: u64, index: usize) -> ManagedApp {
    let driver = heartbeated(sim);
    let runtime = protocol()
        .tune(
            SeecRuntime::builder(driver.monitor())
                .actuators(xeon_actuators(server))
                .seed(seed.wrapping_add(index as u64)),
        )
        .build()
        .expect("actuators registered");
    ManagedApp::new(driver, runtime)
        .with_weight(sim.spec.weight)
        .with_arrival(sim.spec.arrival)
        .with_phases(sim.phases.clone())
        .with_nominal_power_hint(sim.launch_power_watts)
}

/// The watchdog thresholds a fleet runs under: the defaults, with the
/// quarantine floor raised to the fleet's most expensive cheapest
/// configuration so an honest quarantined app (whose floor-capped decide
/// lands it in its cheapest configuration) can always requalify under the
/// overdraw rule, and the overdraw tolerance opened to 1.75x. The tolerance
/// has to clear the fleet's *steady-state* calibration error — on this
/// platform an honest app squeezed under a tight rack budget can draw
/// ~1.5x its award for as long as the squeeze lasts (the model believes
/// the cheap config it was put in, the rail disagrees) — while staying
/// under the 3x a deliberate misreporter shows at fault onset (the
/// market re-converges toward a self-consistent lie within a few quanta,
/// so the threshold must catch the transient before award inflation
/// closes the gap).
pub(crate) fn fleet_watchdog(apps: &[AppSim]) -> WatchdogConfig {
    let default = WatchdogConfig::default();
    WatchdogConfig {
        quarantine_floor_watts: apps
            .iter()
            .map(|sim| sim.launch_power_watts)
            .fold(default.quarantine_floor_watts, f64::max),
        overdraw_tolerance: 0.75,
        ..default
    }
}

/// The arbitration structure of a run.
pub(crate) enum Platform {
    /// No platform arbitration (fixed and local controls).
    Local,
    /// One coordinator over every app.
    Flat(Box<Coordinator>),
    /// A datacenter arbiter over one coordinator per rack.
    Racks(DatacenterArbiter),
}

impl Platform {
    fn new(
        control: Control,
        budget: f64,
        scenario: &Scenario,
        apps: &[AppSim],
        observer: Option<&Arc<Recorder>>,
    ) -> Platform {
        // Every coordinator shares the process-wide pool the cell itself
        // runs on (nested dispatch degrades gracefully); the shard
        // threshold decides per step whether a fleet is big enough to fan
        // out. The scenario's engine settings apply to every coordinator.
        let coordinator = |choices: &Coordination| {
            let mut coordinator = Coordinator::new(budget, (choices.policy)())
                .with_pool(Arc::clone(exec::global_pool_arc()))
                .with_arbitration_tolerance(scenario.arbitration_tolerance)
                .with_wake_schedule(WakeConfig {
                    steady_quanta: scenario.wake_steady_quanta,
                    horizon: scenario.wake_horizon,
                })
                .with_admission_control(choices.admission)
                .with_admission_feasibility(choices.feasibility);
            if choices.watchdog {
                coordinator = coordinator.with_watchdog(fleet_watchdog(apps));
            }
            coordinator
        };
        let mut platform = match control {
            Control::Fixed | Control::Local(_) => Platform::Local,
            Control::Flat(choices) => Platform::Flat(Box::new(coordinator(&choices))),
            Control::Racks(choices) => {
                let mut datacenter = DatacenterArbiter::new(budget, (choices.policy)());
                for rack in 0..scenario.rack_count() {
                    datacenter.add_rack(
                        RackCoordinator::new(format!("rack-{rack}"), coordinator(&choices))
                            .with_enforcement(choices.enforcement),
                    );
                }
                Platform::Racks(datacenter)
            }
        };
        let observer = observer.map(Arc::clone);
        match &mut platform {
            Platform::Local => {}
            Platform::Flat(coordinator) => coordinator.set_obs(observer),
            Platform::Racks(datacenter) => datacenter.set_obs(observer),
        }
        platform
    }

    /// The coordinator an app on `rack` registers with.
    fn coordinator(&self, rack: usize) -> &Coordinator {
        match self {
            Platform::Local => unreachable!("managed apps imply a coordinator"),
            Platform::Flat(coordinator) => coordinator,
            Platform::Racks(datacenter) => datacenter.rack(rack).coordinator(),
        }
    }

    fn coordinator_mut(&mut self, rack: usize) -> &mut Coordinator {
        match self {
            Platform::Local => unreachable!("managed apps imply a coordinator"),
            Platform::Flat(coordinator) => coordinator,
            Platform::Racks(datacenter) => datacenter.rack_mut(rack).coordinator_mut(),
        }
    }

    /// The racks (empty unless the platform is a datacenter).
    pub(crate) fn racks(&self) -> &[RackCoordinator] {
        match self {
            Platform::Racks(datacenter) => datacenter.racks(),
            _ => &[],
        }
    }

    /// Steps the platform under `budget`; returns the watts its top level
    /// handed out (to apps, or to racks), or `None` without a platform.
    fn step(&mut self, budget: f64, now: f64) -> Option<f64> {
        match self {
            Platform::Local => None,
            Platform::Flat(coordinator) => {
                if budget != coordinator.budget_watts() {
                    coordinator.set_budget(budget);
                }
                let summary = coordinator.step(now).expect("every app declares a goal");
                Some(summary.awarded_watts_total)
            }
            Platform::Racks(datacenter) => {
                if budget != datacenter.budget_watts() {
                    datacenter.set_budget(budget);
                }
                let summary = datacenter.step(now).expect("every app declares a goal");
                Some(summary.rack_awarded_watts_total)
            }
        }
    }
}

/// How one application is driven.
enum Seat {
    Fixed,
    Local(LocalRuntime, HeartbeatedWorkload),
    /// Registered with the platform (`None` before arrival, and for good
    /// once admission refuses it: a refused app never launches).
    Managed(Option<AppHandle>),
}

impl Seat {
    fn launched(&self) -> bool {
        !matches!(self, Seat::Managed(None))
    }
}

/// The simulated fleet: per-app state, how each app is driven, and the
/// platform arbitrating them.
pub(crate) struct Fleet {
    pub(crate) apps: Vec<AppSim>,
    seats: Vec<Seat>,
    pub(crate) platform: Platform,
}

impl Fleet {
    /// App `index`'s registration with the platform, if it was admitted.
    pub(crate) fn managed(&self, index: usize) -> Option<&ManagedApp> {
        match self.seats[index] {
            Seat::Managed(Some(handle)) => Some(
                self.platform
                    .coordinator(self.apps[index].spec.rack)
                    .app(handle),
            ),
            _ => None,
        }
    }

    fn configuration(&self, index: usize, server: &XeonServer) -> ServerConfiguration {
        match &self.seats[index] {
            Seat::Fixed => server.default_configuration(),
            Seat::Local(runtime, _) => runtime.configuration(server),
            Seat::Managed(_) => map_configuration(
                server,
                self.managed(index)
                    .expect("launched apps have registered")
                    .runtime()
                    .current_configuration(),
            ),
        }
    }

    /// Registers this quantum's arrivals and retires its departures.
    fn lifecycle(&mut self, server: &XeonServer, seed: u64, quantum: usize) {
        for (index, sim) in self.apps.iter().enumerate() {
            let Seat::Managed(handle) = &mut self.seats[index] else {
                continue;
            };
            let coordinator = self.platform.coordinator_mut(sim.spec.rack);
            // A degenerate window (departure ≤ arrival) means the app is
            // never active; registering it would leave a phantom in the
            // coordinator with no departure ever stamped.
            let never_active = sim.spec.departure.is_some_and(|d| d <= sim.spec.arrival);
            if sim.spec.arrival == quantum && !never_active {
                *handle = coordinator
                    .try_register(managed_for(server, sim, seed, index))
                    .ok();
            }
            if let (Some(handle), true) = (*handle, sim.spec.departure == Some(quantum)) {
                coordinator.retire(handle);
            }
        }
    }
}

/// What an after-step hook sees: the quantum just stepped, the watts the
/// platform's top level handed out (to apps on a flat coordinator, to
/// racks on a datacenter), and the fleet.
pub(crate) struct Stepped<'a> {
    pub(crate) quantum: usize,
    pub(crate) awarded_watts_total: f64,
    pub(crate) fleet: &'a Fleet,
}

/// One scenario under one control on one layout.
pub(crate) struct ScenarioRun<'a> {
    pub(crate) server: &'a XeonServer,
    pub(crate) scenario: &'a Scenario,
    pub(crate) layout: Layout,
    pub(crate) control: Control,
    /// Seed for every runtime (app `i` uses `seed + i`).
    pub(crate) seed: u64,
    /// Telemetry: the platform streams its stages and events here, and the
    /// run books the fleet gauge and meter violations. Read-only — the
    /// outcome is bit-identical without it.
    pub(crate) observer: Option<&'a Arc<Recorder>>,
}

/// A finished run: the fleet's final state and the budget meter.
pub(crate) struct RunResult {
    pub(crate) fleet: Fleet,
    pub(crate) meter: MachineMeter,
    pub(crate) runtime: RuntimeBlock,
}

impl ScenarioRun<'_> {
    /// The initial power budget above idle: the scenario's fraction of
    /// every machine's range.
    pub(crate) fn budget_watts(&self) -> f64 {
        budget_watts(self.server, self.scenario) * self.layout.machines(self.scenario) as f64
    }

    /// Runs the scenario, calling `after_step` right after every platform
    /// step.
    pub(crate) fn run(&self, mut after_step: impl FnMut(&Stepped<'_>)) -> RunResult {
        let started = Instant::now();
        let (server, scenario, layout) = (self.server, self.scenario, self.layout);
        let apps = build_apps(server, scenario);
        let machines = layout.machines(scenario);
        let budget_range = (server.max_power_watts() - server.idle_power_watts()) * machines as f64;
        let budget = self.budget_watts();
        let mut meter = MachineMeter::new(budget);
        // Fault-free scenarios carry no runtime and take byte-identical paths.
        let mut faults = FaultRuntime::for_plan(&scenario.fault_plan, apps.len());
        // Coordinated controls start from an *empty* platform: every app
        // registers at its arrival quantum and retires at its departure.
        let platform = Platform::new(self.control, budget, scenario, &apps, self.observer);
        let seats = apps
            .iter()
            .enumerate()
            .map(|(index, sim)| match self.control {
                Control::Fixed => Seat::Fixed,
                Control::Local(adaptation) => {
                    let driver = heartbeated(sim);
                    let seed = self.seed.wrapping_add(index as u64);
                    let runtime =
                        LocalRuntime::new(adaptation, &driver.monitor(), server, seed, protocol());
                    Seat::Local(runtime, driver)
                }
                Control::Flat(_) | Control::Racks(_) => Seat::Managed(None),
            })
            .collect();
        let mut fleet = Fleet {
            apps,
            seats,
            platform,
        };

        let cores = server.total_cores() as f64;
        let mut peak_fleet: u64 = 0;
        let mut now = 0.0;
        let mut per_app_power = vec![0.0f64; fleet.apps.len()];
        let mut rates = vec![0.0f64; fleet.apps.len()];
        let mut core_duty = vec![0.0f64; machines];
        for quantum in 0..scenario.quanta {
            let start = now;
            now += QUANTUM_SECONDS;

            // ---- Lifecycle.
            let cap = scenario.budget_fraction_at(quantum) * budget_range;
            if cap != meter.cap_watts() {
                meter.set_cap(cap);
            }
            fleet.lifecycle(server, self.seed, quantum);
            if layout == Layout::Racks {
                if let Some(awarded_watts_total) = fleet.platform.step(cap, start) {
                    after_step(&Stepped {
                        quantum,
                        awarded_watts_total,
                        fleet: &fleet,
                    });
                }
            }

            // ---- Evaluate every launched app under its configuration.
            core_duty.fill(0.0);
            let mut active_count: u64 = 0;
            for (index, sim) in fleet.apps.iter().enumerate() {
                per_app_power[index] = 0.0;
                rates[index] = 0.0;
                if !sim.active_at(quantum) || !fleet.seats[index].launched() {
                    continue;
                }
                active_count += 1;
                if faults.as_ref().is_some_and(|f| !f.executes(index, quantum)) {
                    continue; // crashed: no cycles, no watts
                }
                let configuration = fleet.configuration(index, server);
                let report =
                    server.evaluate(&to_server_demand(sim.demand_at(quantum)), &configuration);
                rates[index] = report.work_units / report.seconds;
                per_app_power[index] = report.power_above_idle_watts;
                core_duty[layout.machine(&sim.spec)] +=
                    configuration.cores as f64 * configuration.active_cycle_fraction;
            }

            // ---- Time-multiplex each oversubscribed machine: delivered
            // cycles (work and dynamic power alike) scale down together.
            let contention: Vec<f64> = core_duty
                .iter()
                .map(|&duty| if duty > cores { cores / duty } else { 1.0 })
                .collect();

            let mut machine_power = 0.0;
            for (index, sim) in fleet.apps.iter_mut().enumerate() {
                if !sim.active_at(quantum) || !fleet.seats[index].launched() {
                    continue;
                }
                let scale = contention[layout.machine(&sim.spec)];
                let mut work = rates[index] * scale * QUANTUM_SECONDS;
                let mut power = per_app_power[index] * scale;
                // The rack boundary is the physical metering (and, under
                // Clamp, enforcement) point: it sees the rail, not the
                // app's claim, so it admits the draw before anything else.
                if let Platform::Racks(datacenter) = &mut fleet.platform {
                    (work, power) = datacenter
                        .rack_mut(sim.spec.rack)
                        .admit(start, now, work, power);
                }
                machine_power += power;
                sim.active_seconds += QUANTUM_SECONDS;
                sim.work_done += work;
                // The meter and attainment saw physical truth above; the
                // platform sees only what the (possibly faulty) app reports.
                let report = match faults.as_mut() {
                    None => Some((work, power)),
                    Some(f) => f.report(index, quantum, work, power),
                };
                let Some((work, power)) = report else {
                    continue; // stalled pipe or dead app: nothing arrives
                };
                match &mut fleet.seats[index] {
                    Seat::Local(_, driver) => {
                        driver.advance_metered(start, now, work, power);
                    }
                    Seat::Managed(Some(handle)) => fleet
                        .platform
                        .coordinator_mut(sim.spec.rack)
                        .advance(*handle, start, now, work, power),
                    _ => {}
                }
            }
            peak_fleet = peak_fleet.max(active_count);
            let violations_before = meter.violation_intervals();
            meter.record(QUANTUM_SECONDS, machine_power);
            if let Some(observer) = self.observer {
                observer.observe_fleet_size(active_count);
                observer.add(
                    layout.meter_counter(),
                    meter.violation_intervals() - violations_before,
                );
            }

            // ---- Decide for the next quantum.
            for (sim, seat) in fleet.apps.iter().zip(&mut fleet.seats) {
                if let (true, Seat::Local(runtime, _)) = (sim.active_at(quantum), seat) {
                    runtime.decide(now).expect("goal declared");
                }
            }
            if layout == Layout::Machine {
                let next_budget = scenario.budget_fraction_at(quantum + 1) * budget_range;
                if let Some(awarded_watts_total) = fleet.platform.step(next_budget, now) {
                    after_step(&Stepped {
                        quantum,
                        awarded_watts_total,
                        fleet: &fleet,
                    });
                }
            }
        }
        RunResult {
            fleet,
            meter,
            runtime: RuntimeBlock::measure(started, scenario.quanta, peak_fleet),
        }
    }
}

impl RunResult {
    /// Every app's `min(rate/target, 1)` over its residency, in scenario
    /// order.
    pub(crate) fn attainments(&self) -> Vec<f64> {
        self.fleet.apps.iter().map(AppSim::attainment).collect()
    }

    /// Mean attainment over every app.
    pub(crate) fn goal_attainment(&self) -> f64 {
        let attainments = self.attainments();
        attainments.iter().sum::<f64>() / attainments.len().max(1) as f64
    }

    /// Goal-weighted throughput per watt: summed attainment over mean
    /// power above idle.
    pub(crate) fn performance_per_watt(&self) -> f64 {
        let mean_power = self.meter.mean_watts();
        if mean_power > 0.0 {
            self.attainments().iter().sum::<f64>() / mean_power
        } else {
            0.0
        }
    }

    /// Worst per-rack fraction of time above the awarded envelope (0.0
    /// without racks).
    pub(crate) fn max_rack_violation_rate(&self) -> f64 {
        self.fleet
            .platform
            .racks()
            .iter()
            .map(|rack| rack.meter().violation_rate())
            .fold(0.0, f64::max)
    }

    /// The machine-level outcome under arm name `name`.
    pub(crate) fn arm_outcome(&self, name: &str) -> ArmOutcome {
        ArmOutcome {
            name: name.to_string(),
            performance_per_watt: self.performance_per_watt(),
            goal_attainment: self.goal_attainment(),
            cap_violation_rate: self.meter.violation_rate(),
            mean_power_watts: self.meter.mean_watts(),
            peak_power_watts: self.meter.peak_watts(),
            runtime: self.runtime.clone(),
        }
    }
}
