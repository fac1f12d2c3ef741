//! Figure 5 (reproduction-specific): many self-aware applications on one
//! machine, with and without platform arbitration.
//!
//! The paper's premise is that *many* applications each run their own
//! observe–decide–act loop while the platform arbitrates shared resources
//! (§2); §5.2's uncoordinated-composition pathology is what happens without
//! that arbitration. The original evaluation only measures one application
//! at a time, so this figure extends it: heterogeneous application mixes
//! (staggered arrivals/departures, phase-shifting workloads, priority
//! tiers — [`workloads::scenario_mixes`]) share the calibrated R410 under a
//! machine-level power budget, compared across four regimes:
//!
//! * **no adaptation** — every app runs the default (flat-out)
//!   configuration; the machine oversubscribes and blows through the cap.
//! * **uncoordinated composition** — each app runs one independent SEEC
//!   instance *per actuator* (§5.2's baseline), nobody watches the cap.
//! * **per-app SEEC** — each app runs one coordinated SEEC runtime, but
//!   there is no cross-application arbitration; apps meet their goals
//!   efficiently yet the sum still ignores the cap.
//! * **coordinated SEEC** — a [`coordinator::Coordinator`] arbitrates the
//!   budget every quantum (performance market by default; the static-share
//!   and weighted-fair policies are reported alongside) and every app
//!   decides under its awarded power envelope.
//!
//! Metrics are machine-level: goal-weighted throughput per watt above idle
//! (each app's delivered rate capped at its target and normalised by it,
//! summed, divided by mean machine power above idle) and the
//! cap-violation rate (fraction of simulated time the machine total
//! exceeded the budget, from [`xeon_sim::MachineMeter`]).
//!
//! The experiment uses [`XeonServer::dell_r410_calibrated`] and the convex
//! (goal-respecting) protocol of [`crate::fig3`]: under the linear default
//! model power is linear in utilisation, so a power cap would barely
//! distinguish the regimes.

use std::time::Instant;

use coordinator::{StaticShare, WeightedFair};
use obs::ObsSnapshot;
use serde::{Deserialize, Serialize};
use workloads::Scenario;
use xeon_sim::XeonServer;

use crate::fig3::Adaptation;
use crate::run::{run_arms, Control, Coordination, Layout, RunSpec, ScenarioRun};

/// Length of one shared scheduling quantum, in seconds.
pub const QUANTUM_SECONDS: f64 = 1.0;

/// Wall-clock accounting for one simulation cell, reported alongside the
/// simulated metrics. The timing fields are measurement-environment facts,
/// not simulation outputs: determinism checks compare
/// [`ArmOutcome::canonical`] forms, which zero them (the fleet gauge is
/// deterministic and survives).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeBlock {
    /// Wall-clock time the cell took to simulate, in seconds.
    pub wall_clock_seconds: f64,
    /// Simulated quanta per wall-clock second (0 when the clock read 0).
    pub quanta_per_second: f64,
    /// Largest number of simultaneously active applications in any
    /// quantum.
    pub peak_fleet_size: u64,
}

impl RuntimeBlock {
    pub(crate) fn measure(started: Instant, quanta: usize, peak_fleet_size: u64) -> Self {
        let wall_clock_seconds = started.elapsed().as_secs_f64();
        RuntimeBlock {
            wall_clock_seconds,
            quanta_per_second: if wall_clock_seconds > 0.0 {
                quanta as f64 / wall_clock_seconds
            } else {
                0.0
            },
            peak_fleet_size,
        }
    }

    /// The block with its wall-clock fields zeroed — the deterministic
    /// residue compared by determinism tests.
    pub fn canonical(&self) -> Self {
        RuntimeBlock {
            wall_clock_seconds: 0.0,
            quanta_per_second: 0.0,
            peak_fleet_size: self.peak_fleet_size,
        }
    }
}

/// One regime's machine-level outcome on one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmOutcome {
    /// Regime (or arbitration policy) name.
    pub name: String,
    /// Goal-weighted throughput per watt: `Σ_apps min(rate/target, 1)`
    /// divided by mean machine power above idle, in 1/W.
    pub performance_per_watt: f64,
    /// Mean over apps of `min(rate/target, 1)` — 1.0 when every app met
    /// its goal over its residency.
    pub goal_attainment: f64,
    /// Fraction of simulated time the machine total exceeded the budget.
    pub cap_violation_rate: f64,
    /// Mean machine power above idle, in watts.
    pub mean_power_watts: f64,
    /// Peak quantum machine power above idle, in watts.
    pub peak_power_watts: f64,
    /// Wall-clock accounting for the cell (zeroed under
    /// [`Self::canonical`]).
    pub runtime: RuntimeBlock,
}

impl ArmOutcome {
    /// The outcome with wall-clock timing zeroed; everything else — the
    /// simulated metrics and the peak-fleet gauge — must be bit-identical
    /// across reruns and with telemetry on or off.
    pub fn canonical(&self) -> Self {
        ArmOutcome {
            runtime: self.runtime.canonical(),
            ..self.clone()
        }
    }
}

/// One scenario's results across every regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure5Scenario {
    /// Scenario name (see [`workloads::scenario_mixes`]).
    pub name: String,
    /// Number of applications in the mix.
    pub apps: usize,
    /// Quanta simulated.
    pub quanta: usize,
    /// The arbitrated machine power budget (above idle), in watts.
    pub budget_watts: f64,
    /// No adaptation: every app flat out.
    pub no_adaptation: ArmOutcome,
    /// Uncoordinated composition: one SEEC instance per actuator per app.
    pub uncoordinated: ArmOutcome,
    /// Per-app SEEC without cross-application arbitration.
    pub per_app_seec: ArmOutcome,
    /// Coordinated SEEC under the performance-market policy (the headline
    /// regime).
    pub coordinated: ArmOutcome,
    /// The coordinated regime under every shipped arbitration policy
    /// (static-share, weighted-fair, performance-market).
    pub policies: Vec<ArmOutcome>,
}

impl Figure5Scenario {
    /// The scenario with every arm's wall-clock timing zeroed (see
    /// [`ArmOutcome::canonical`]).
    pub fn canonical(&self) -> Self {
        Figure5Scenario {
            name: self.name.clone(),
            apps: self.apps,
            quanta: self.quanta,
            budget_watts: self.budget_watts,
            no_adaptation: self.no_adaptation.canonical(),
            uncoordinated: self.uncoordinated.canonical(),
            per_app_seec: self.per_app_seec.canonical(),
            coordinated: self.coordinated.canonical(),
            policies: self.policies.iter().map(ArmOutcome::canonical).collect(),
        }
    }
}

/// The Figure-5 data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure5 {
    /// One entry per scenario mix.
    pub scenarios: Vec<Figure5Scenario>,
}

/// The Figure-5 regimes, in cell order: the three uncoordinated ones, then
/// the coordinated one under every shipped arbitration policy.
const ARMS: [(&str, Control); 6] = [
    ("no-adaptation", Control::Fixed),
    ("uncoordinated", Control::Local(Adaptation::Uncoordinated)),
    ("per-app-seec", Control::Local(Adaptation::Seec)),
    ("coordinated/performance-market", Control::Flat(Coordination::MARKET)),
    (
        "coordinated/static-share",
        Control::Flat(Coordination {
            policy: || Box::new(StaticShare),
            ..Coordination::MARKET
        }),
    ),
    (
        "coordinated/weighted-fair",
        Control::Flat(Coordination {
            policy: || Box::new(WeightedFair),
            ..Coordination::MARKET
        }),
    ),
];

impl Figure5 {
    /// Runs every (scenario, regime) cell of `spec` on one machine; see
    /// [`RunSpec`] for seeding and telemetry. The fig5 binary runs
    /// [`workloads::scenario_mixes`] into `fig5.json` and, under
    /// `--extended`, [`workloads::extended_scenario_mixes`] (the 100-app
    /// arrival storm and the 1200-app stepped-budget mix) into
    /// `fig5_extended.json`.
    pub fn compute(spec: &RunSpec) -> (Self, Option<ObsSnapshot>) {
        let server = XeonServer::dell_r410_calibrated();
        let (outcomes, snapshot) =
            run_arms(spec, ARMS.len(), 0, |scenario, arm, seed, observer| {
                let (name, control) = ARMS[arm];
                let layout = Layout::Machine;
                ScenarioRun { server: &server, scenario, layout, control, seed, observer }
                    .run(|_| {})
                    .arm_outcome(name)
            });
        let scenarios = spec
            .scenarios
            .iter()
            .zip(outcomes)
            .map(|(scenario, outcomes)| Figure5Scenario {
                name: scenario.name.clone(),
                apps: scenario.apps.len(),
                quanta: scenario.quanta,
                budget_watts: budget_watts(&server, scenario),
                no_adaptation: outcomes[0].clone(),
                uncoordinated: outcomes[1].clone(),
                per_app_seec: outcomes[2].clone(),
                coordinated: outcomes[3].clone(),
                policies: vec![outcomes[4].clone(), outcomes[5].clone(), outcomes[3].clone()],
            })
            .collect();
        (Figure5 { scenarios }, snapshot)
    }

    /// The figure with every arm's wall-clock timing zeroed — the form
    /// determinism tests compare (reruns agree bit-for-bit on everything
    /// except how long the simulation took to run).
    pub fn canonical(&self) -> Self {
        Figure5 {
            scenarios: self.scenarios.iter().map(Figure5Scenario::canonical).collect(),
        }
    }

    /// Renders the figure as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "scenario            regime                          perf/W  goal%  viol%  meanW  peakW\n",
        );
        for scenario in &self.scenarios {
            let mut rows: Vec<&ArmOutcome> = vec![
                &scenario.no_adaptation,
                &scenario.uncoordinated,
                &scenario.per_app_seec,
                &scenario.coordinated,
            ];
            rows.extend(scenario.policies.iter().take(2));
            for (i, arm) in rows.iter().enumerate() {
                let label = if i == 0 {
                    format!("{} ({} apps, {:.0} W)", scenario.name, scenario.apps, scenario.budget_watts)
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "{label:19} {:30}  {:6.4} {:6.1} {:6.1} {:6.1} {:6.1}\n",
                    arm.name,
                    arm.performance_per_watt,
                    arm.goal_attainment * 100.0,
                    arm.cap_violation_rate * 100.0,
                    arm.mean_power_watts,
                    arm.peak_power_watts,
                ));
            }
        }
        out
    }
}

/// The scenario's absolute power budget: its fraction of the machine's
/// full-load power above idle.
pub fn budget_watts(server: &XeonServer, scenario: &Scenario) -> f64 {
    scenario.power_budget_fraction * (server.max_power_watts() - server.idle_power_watts())
}

/// The scenario's absolute *datacenter* power budget: its fraction of the
/// datacenter's full-load power above idle, which is one machine's range
/// per rack. A datacenter of R racks brings R machines' worth of cores
/// *and* watts; applying the fraction to a single machine's range would
/// make large rack-tagged mixes infeasible by construction (even every app
/// parked in its cheapest configuration would exceed the cap).
pub fn datacenter_budget_watts(server: &XeonServer, scenario: &Scenario) -> f64 {
    budget_watts(server, scenario) * scenario.rack_count() as f64
}

// ---------------------------------------------------------------------
// The hierarchical (rack → datacenter) arm: `fig5 --hierarchy`.
// ---------------------------------------------------------------------

/// One scenario's results in the hierarchy experiment: the same
/// rack-partitioned datacenter (each rack is its own machine, so contention
/// is per rack; the watt budget is shared datacenter-wide) under three
/// coordination topologies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyScenario {
    /// Scenario name (see [`workloads::extended_scenario_mixes`]).
    pub name: String,
    /// Number of applications in the mix.
    pub apps: usize,
    /// Number of racks the mix is partitioned into
    /// ([`workloads::ScenarioApp::rack`]).
    pub racks: usize,
    /// Quanta simulated.
    pub quanta: usize,
    /// The shared datacenter power budget (above idle), in watts.
    pub budget_watts: f64,
    /// No arbitration anywhere: every app its own uncoordinated
    /// (one-instance-per-actuator) adaptation.
    pub uncoordinated: ArmOutcome,
    /// One flat [`Coordinator`](coordinator::Coordinator) arbitrating every
    /// app across all racks.
    pub flat: ArmOutcome,
    /// A [`DatacenterArbiter`](coordinator::DatacenterArbiter) over
    /// per-rack [`RackCoordinator`](coordinator::RackCoordinator)s: budget
    /// flows datacenter → rack → app.
    pub rack_coordinated: ArmOutcome,
    /// Worst per-rack audit in the rack-coordinated arm: the highest
    /// fraction of time any rack spent above the envelope the datacenter
    /// awarded it
    /// ([`RackCoordinator::meter`](coordinator::RackCoordinator::meter)).
    pub max_rack_violation_rate: f64,
}

impl HierarchyScenario {
    /// The scenario with every arm's wall-clock timing zeroed (see
    /// [`ArmOutcome::canonical`]).
    pub fn canonical(&self) -> Self {
        HierarchyScenario {
            name: self.name.clone(),
            apps: self.apps,
            racks: self.racks,
            quanta: self.quanta,
            budget_watts: self.budget_watts,
            uncoordinated: self.uncoordinated.canonical(),
            flat: self.flat.canonical(),
            rack_coordinated: self.rack_coordinated.canonical(),
            max_rack_violation_rate: self.max_rack_violation_rate,
        }
    }
}

/// The `fig5 --hierarchy` data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure5Hierarchy {
    /// One entry per rack-tagged scenario mix.
    pub scenarios: Vec<HierarchyScenario>,
}

/// The hierarchy topologies, in cell order.
const HIERARCHY_ARMS: [(&str, Control); 3] = [
    ("uncoordinated", Control::Local(Adaptation::Uncoordinated)),
    ("flat-coordinated", Control::Flat(Coordination::MARKET)),
    ("rack-coordinated", Control::Racks(Coordination::MARKET)),
];

impl Figure5Hierarchy {
    /// Runs every (scenario, topology) cell of `spec` on the rack layout
    /// (the fig5 binary runs the rack-tagged
    /// [`workloads::extended_scenario_mixes`] under `--hierarchy`).
    ///
    /// The physical layout is identical across topologies, so the
    /// comparison isolates the *coordination structure*: the scenario's
    /// apps are placed on their tagged racks, each rack is one machine
    /// (core oversubscription contends per rack), and one datacenter-wide
    /// watt budget — stepping mid-run where the scenario says so — is
    /// audited by a datacenter-level meter. Only who arbitrates differs:
    /// nobody (uncoordinated), one flat coordinator spanning every rack,
    /// or a [`DatacenterArbiter`](coordinator::DatacenterArbiter)
    /// re-running the performance market over rack aggregates so budget
    /// flows datacenter → rack → app.
    pub fn compute(spec: &RunSpec) -> (Self, Option<ObsSnapshot>) {
        let server = XeonServer::dell_r410_calibrated();
        let (outcomes, snapshot) =
            run_arms(spec, HIERARCHY_ARMS.len(), 0x5ace_0000, |scenario, arm, seed, observer| {
                let (name, control) = HIERARCHY_ARMS[arm];
                let layout = Layout::Racks;
                let run = ScenarioRun { server: &server, scenario, layout, control, seed, observer }
                    .run(|_| {});
                (run.arm_outcome(name), run.max_rack_violation_rate())
            });
        let scenarios = spec
            .scenarios
            .iter()
            .zip(outcomes)
            .map(|(scenario, outcomes)| HierarchyScenario {
                name: scenario.name.clone(),
                apps: scenario.apps.len(),
                racks: scenario.rack_count(),
                quanta: scenario.quanta,
                budget_watts: datacenter_budget_watts(&server, scenario),
                uncoordinated: outcomes[0].0.clone(),
                flat: outcomes[1].0.clone(),
                rack_coordinated: outcomes[2].0.clone(),
                max_rack_violation_rate: outcomes[2].1,
            })
            .collect();
        (Figure5Hierarchy { scenarios }, snapshot)
    }

    /// The figure with every arm's wall-clock timing zeroed (see
    /// [`Figure5::canonical`]).
    pub fn canonical(&self) -> Self {
        Figure5Hierarchy {
            scenarios: self.scenarios.iter().map(HierarchyScenario::canonical).collect(),
        }
    }

    /// Renders the figure as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "scenario            topology          perf/W  goal%  viol%  rack-viol%  meanW  peakW\n",
        );
        for scenario in &self.scenarios {
            let rows = [
                (&scenario.uncoordinated, None),
                (&scenario.flat, None),
                (&scenario.rack_coordinated, Some(scenario.max_rack_violation_rate)),
            ];
            for (i, (arm, rack_violation)) in rows.iter().enumerate() {
                let label = if i == 0 {
                    format!(
                        "{} ({} apps, {} racks)",
                        scenario.name, scenario.apps, scenario.racks
                    )
                } else {
                    String::new()
                };
                let rack_violation = rack_violation
                    .map_or("     -".to_string(), |rate| format!("{:6.1}", rate * 100.0));
                out.push_str(&format!(
                    "{label:19} {:16}  {:6.4} {:6.1} {:6.1} {rack_violation:>10} {:6.1} {:6.1}\n",
                    arm.name,
                    arm.performance_per_watt,
                    arm.goal_attainment * 100.0,
                    arm.cap_violation_rate * 100.0,
                    arm.mean_power_watts,
                    arm.peak_power_watts,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Counter;
    use workloads::scenario_mixes;

    fn figure(scenarios: &[Scenario], seed: u64) -> Figure5 {
        Figure5::compute(&RunSpec::new(seed, scenarios.to_vec())).0
    }

    fn observed(scenarios: &[Scenario], seed: u64) -> (Figure5, ObsSnapshot) {
        let spec = RunSpec {
            observe: true,
            ..RunSpec::new(seed, scenarios.to_vec())
        };
        let (figure, snapshot) = Figure5::compute(&spec);
        (figure, snapshot.expect("observe=true returns a snapshot"))
    }

    fn reduced_scenarios(seed: u64) -> Vec<Scenario> {
        let mut scenarios = scenario_mixes(seed);
        for scenario in &mut scenarios {
            scenario.quanta = 40;
            for app in &mut scenario.apps {
                app.arrival = app.arrival.min(20);
                if let Some(departure) = &mut app.departure {
                    *departure = (*departure).clamp(app.arrival + 5, 40);
                }
            }
        }
        scenarios
    }

    #[test]
    fn coordinated_beats_uncoordinated_and_holds_the_cap() {
        let fig = figure(&reduced_scenarios(2012), 2012);
        assert_eq!(fig.scenarios.len(), 3);
        for scenario in &fig.scenarios {
            assert!(
                scenario.coordinated.performance_per_watt
                    > scenario.uncoordinated.performance_per_watt,
                "{}: coordinated ({:.4}) must beat uncoordinated ({:.4}) on perf/W",
                scenario.name,
                scenario.coordinated.performance_per_watt,
                scenario.uncoordinated.performance_per_watt
            );
            assert_eq!(
                scenario.coordinated.cap_violation_rate, 0.0,
                "{}: coordinated SEEC must hold the cap",
                scenario.name
            );
            assert!(
                scenario.no_adaptation.cap_violation_rate > 0.5,
                "{}: flat-out no-adaptation must blow the budget",
                scenario.name
            );
            assert!(scenario.coordinated.goal_attainment > 0.0);
            assert!(scenario.budget_watts > 0.0);
            assert_eq!(scenario.policies.len(), 3);
        }
        assert!(fig.to_table().contains("coordinated/performance-market"));
    }

    #[test]
    fn fig5_is_deterministic_across_runs_including_the_threaded_path() {
        let scenarios = reduced_scenarios(7);
        let a = figure(&scenarios, 7);
        let b = figure(&scenarios, 7);
        assert_eq!(a.canonical(), b.canonical());
        let c = figure(&scenarios, 8);
        assert_ne!(a.canonical(), c.canonical(), "different seeds must differ");
        // The runtime block carries real measurements alongside the
        // deterministic gauge.
        let first = &a.scenarios[0].coordinated.runtime;
        assert!(first.wall_clock_seconds > 0.0);
        assert!(first.quanta_per_second > 0.0);
        assert!(first.peak_fleet_size > 0);
        assert_eq!(first.canonical().wall_clock_seconds, 0.0);
    }

    #[test]
    fn telemetry_is_passive_and_reconciles_with_the_arm_summaries() {
        let scenarios = reduced_scenarios(11);
        let baseline = figure(&scenarios, 11);
        let (observed, snapshot) = observed(&scenarios, 11);
        // Telemetry must never perturb the figure.
        assert_eq!(baseline.canonical(), observed.canonical());

        // Each of the three coordinated arms per scenario steps once per
        // quantum; the uncoordinated arms never touch a coordinator.
        let expected_steps: u64 =
            scenarios.iter().map(|s| 3 * s.quanta as u64).sum();
        assert_eq!(snapshot.counter(Counter::QuantaStepped), expected_steps);
        assert_eq!(snapshot.stage(obs::Stage::Step).count, expected_steps);
        // Every decided app ran exactly one timed decision, and every
        // arbitration either moved or held its award.
        let decided = snapshot.counter(Counter::AppsDecided);
        assert!(decided > 0);
        assert_eq!(snapshot.stage(obs::Stage::Decision).count, decided);
        assert_eq!(
            snapshot.counter(Counter::AwardsChanged) + snapshot.counter(Counter::AwardsHeld),
            decided
        );
        // Machine-meter violation counts fold back to the per-arm
        // violation rates (one recorded interval per quantum).
        let expected_violations: u64 = observed
            .scenarios
            .iter()
            .flat_map(|s| {
                let policies = s.policies[..2].iter();
                [&s.no_adaptation, &s.uncoordinated, &s.per_app_seec, &s.coordinated]
                    .into_iter()
                    .chain(policies)
                    .map(|arm| (arm.cap_violation_rate * s.quanta as f64).round() as u64)
                    .collect::<Vec<_>>()
            })
            .sum();
        assert_eq!(
            snapshot.counter(Counter::MachineMeterViolations),
            expected_violations
        );
        // The fleet gauge saw the largest mix.
        let largest = observed
            .scenarios
            .iter()
            .map(|s| s.no_adaptation.runtime.peak_fleet_size)
            .max()
            .unwrap();
        assert_eq!(snapshot.peak_fleet_size, largest);
        // Lifecycle events reconcile with the registration counters.
        let registers = snapshot
            .events
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::Register { .. }))
            .count() as u64;
        assert_eq!(snapshot.counter(Counter::Registrations), registers);
        assert!(registers > 0);
    }

    /// Every coordinated arm runs under the scenario's engine settings:
    /// with a positive tolerance and sleep horizon, steady apps sleep
    /// through quanta, and the cap still holds.
    #[test]
    fn coordinated_arms_apply_the_scenario_engine_settings() {
        let mut scenarios = reduced_scenarios(2012);
        for scenario in &mut scenarios {
            scenario.arbitration_tolerance = 0.05;
            scenario.wake_horizon = 8;
            scenario.wake_steady_quanta = 2;
        }
        let (fig, snapshot) = observed(&scenarios, 2012);
        assert!(
            snapshot.counter(Counter::AppsSlept) > 0,
            "the wake scheduler must put steady apps to sleep"
        );
        for scenario in &fig.scenarios {
            assert_eq!(
                scenario.coordinated.cap_violation_rate, 0.0,
                "{}: the incremental engine must still hold the cap",
                scenario.name
            );
        }
    }

    /// The extended mixes, shrunk for a debug-profile test: fewer apps,
    /// fewer quanta, lifecycle events and budget steps clamped inside the
    /// shortened run.
    fn reduced_extended_scenarios(seed: u64) -> Vec<Scenario> {
        let mut scenarios = workloads::extended_scenario_mixes(seed);
        for scenario in &mut scenarios {
            scenario.quanta = 30;
            scenario.apps.truncate(40);
            scenario.apps.retain(|app| app.arrival < 24);
            for app in &mut scenario.apps {
                if let Some(departure) = &mut app.departure {
                    *departure = (*departure).clamp(app.arrival + 4, 30);
                }
            }
            scenario.budget_steps.retain(|step| step.quantum < 28);
        }
        scenarios
    }

    /// [`reduced_extended_scenarios`] further adapted for the hierarchy
    /// test: rack tags folded down to two racks (40 remaining apps cannot
    /// load 8 racks' worth of budget), and the stepped mix's budget
    /// fractions quartered so the truncated fleet still makes the
    /// datacenter budget *bind* — the regime the full mixes are in.
    fn reduced_hierarchy_scenarios(seed: u64) -> Vec<Scenario> {
        let mut scenarios = reduced_extended_scenarios(seed);
        for scenario in &mut scenarios {
            for app in &mut scenario.apps {
                app.rack %= 2;
            }
        }
        let stepped = &mut scenarios[1];
        stepped.power_budget_fraction /= 4.0;
        for step in &mut stepped.budget_steps {
            step.fraction /= 4.0;
        }
        scenarios
    }

    #[test]
    fn extended_mixes_hold_stepped_budgets_with_the_runtime_lifecycle() {
        let scenarios = reduced_extended_scenarios(2012);
        assert!(
            scenarios[1].budget_steps.iter().any(|s| s.quantum < 28),
            "the reduced stepped mix must still step its budget"
        );
        let fig = figure(&scenarios, 2012);
        for scenario in &fig.scenarios {
            assert_eq!(
                scenario.coordinated.cap_violation_rate, 0.0,
                "{}: coordinated SEEC must hold the (stepping) cap",
                scenario.name
            );
            assert!(
                scenario.coordinated.performance_per_watt
                    > scenario.uncoordinated.performance_per_watt,
                "{}: coordinated ({:.4}) must beat uncoordinated ({:.4}) on perf/W",
                scenario.name,
                scenario.coordinated.performance_per_watt,
                scenario.uncoordinated.performance_per_watt
            );
            assert!(scenario.no_adaptation.cap_violation_rate > 0.5, "{}", scenario.name);
        }
        // Deterministic, including runtime registration/retirement order
        // and the sharded coordinator path.
        assert_eq!(
            fig.canonical(),
            figure(&scenarios, 2012).canonical()
        );
    }

    #[test]
    fn hierarchy_holds_the_datacenter_budget_across_rack_partitions() {
        let scenarios = reduced_hierarchy_scenarios(2012);
        let spec = RunSpec::new(2012, scenarios.clone());
        let fig = Figure5Hierarchy::compute(&spec).0;
        assert_eq!(fig.scenarios.len(), scenarios.len());
        for scenario in &fig.scenarios {
            assert!(
                scenario.racks > 1,
                "{}: the extended mixes are rack-tagged",
                scenario.name
            );
            assert_eq!(
                scenario.rack_coordinated.cap_violation_rate, 0.0,
                "{}: rack-coordinated SEEC must hold the datacenter cap",
                scenario.name
            );
            assert_eq!(
                scenario.flat.cap_violation_rate, 0.0,
                "{}: the flat coordinator must hold the datacenter cap",
                scenario.name
            );
            // The hierarchy's whole point: decentralising into per-rack
            // coordinators costs (almost) nothing against the flat
            // arbiter over the same fleet.
            let ratio = scenario.rack_coordinated.performance_per_watt
                / scenario.flat.performance_per_watt;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{}: rack-coordinated perf/W must track flat, ratio {ratio:.4}",
                scenario.name
            );
            assert!(scenario.rack_coordinated.goal_attainment > 0.0);
            assert!(scenario.budget_watts > 0.0);
        }
        // Where the budget binds (the stepped mix), coordination is what
        // keeps the cap: uncoordinated adaptation violates it massively
        // and pays for the overdraw in perf/W.
        let stepped = &fig.scenarios[1];
        assert!(
            stepped.uncoordinated.cap_violation_rate > 0.2,
            "budget-steps: uncoordinated must blow the stepping cap, got {:.3}",
            stepped.uncoordinated.cap_violation_rate
        );
        assert!(
            stepped.rack_coordinated.performance_per_watt
                > stepped.uncoordinated.performance_per_watt,
            "budget-steps: rack-coordinated ({:.4}) must beat uncoordinated ({:.4}) on perf/W",
            stepped.rack_coordinated.performance_per_watt,
            stepped.uncoordinated.performance_per_watt
        );
        assert!(fig.to_table().contains("rack-coordinated"));
        // Deterministic across runs, including the pooled coordinator and
        // datacenter paths — and passive under telemetry.
        let (observed, snapshot) = Figure5Hierarchy::compute(&RunSpec {
            observe: true,
            ..spec
        });
        assert_eq!(fig.canonical(), observed.canonical());
        let snapshot = snapshot.expect("observe=true returns a snapshot");
        // Flat arm: one coordinator step per quantum. Rack arm: one step
        // per rack per quantum, plus one datacenter step per quantum.
        let expected_steps: u64 = scenarios
            .iter()
            .map(|s| (1 + s.rack_count() as u64) * s.quanta as u64)
            .sum();
        assert_eq!(snapshot.counter(Counter::QuantaStepped), expected_steps);
        let expected_datacenter_steps: u64 =
            scenarios.iter().map(|s| s.quanta as u64).sum();
        assert_eq!(
            snapshot.stage(obs::Stage::DatacenterStep).count,
            expected_datacenter_steps
        );
    }
}
