//! The scenario fuzzer's execution probe: one [`Scenario`] in, one
//! [`ScenarioOutcome`] out.
//!
//! The probe *is* the shipped scenario runner — the same quantum loop
//! every Figure-5 and chaos arm runs — plus an after-step oracle hook. It
//! picks the coordinated control by rack tagging, with the two robustness
//! knobs that closed pinned incident classes:
//!
//! * single-rack scenarios run the flat performance market on one machine
//!   (arbitration at the *end* of each quantum) with **admission
//!   control** on — registration decides a mid-run arrival under a zero
//!   envelope, closing the landing-quantum cap hole of
//!   `tests/corpus/cap_violation_machine.json` — and the admission
//!   **feasibility** pre-check, which refuses registrants whose
//!   cheapest-configuration floor no longer fits under the cap (the
//!   infeasible launch storm of
//!   `tests/corpus/cap_violation_launch_storm.json`);
//! * multi-rack scenarios run the rack → datacenter hierarchy
//!   (arbitration at the *start* of each quantum, rack envelopes audited
//!   but not enforced) with **award hysteresis** at both levels, closing
//!   the award limit cycle of `tests/corpus/oscillation.json`;
//! * both apply the scenario's [`workloads::FaultPlan`] and the engine
//!   settings it carries, and both also run the uncoordinated baseline on
//!   the same layout, which anchors the perf/W-cliff oracle.
//!
//! The hook asserts the shared [`coordinator::invariants`] oracles after
//! every platform step (award sanity, budget conservation, summary
//! consistency, hierarchy conservation); the end of the run adds cap
//! violations, starvation, award oscillation, and the perf/W cliff.
//! Violations are deduplicated by label — the fuzzer cares about incident
//! *classes*, not how many quanta exhibited one.

use coordinator::invariants::{
    active_total, check_award_vector, check_budget_conservation, check_cap_violation,
    check_hierarchy_conservation, check_perf_per_watt_cliff, check_starvation,
    check_summary_total, AwardedApp, HierarchyTotals, InvariantViolation, OscillationTracker,
};
use coordinator::{AwardHysteresis, PerformanceMarket};
use obs::{Counter, Recorder};
use scenario_fuzz::{violation_label, PolicyPathCounters, ScenarioOutcome};
use workloads::Scenario;
use xeon_sim::XeonServer;

use crate::fig3::Adaptation;
use crate::run::{
    mix_seed, Control, Coordination, Layout, Platform, RunResult, ScenarioRun, Stepped,
};

/// Coordinated runs must hold the machine cap outright (the fig5 tests pin
/// exactly this for the hand-written mixes).
const MACHINE_CAP_LIMIT: f64 = 0.0;

/// Rack envelopes are audited, not enforced; any overdraw is an incident
/// class worth a fixture (the known defect of the hierarchy design).
const RACK_CAP_LIMIT: f64 = 0.0;

/// An app resident at least this many quanta …
const STARVATION_MIN_RESIDENCY: usize = 8;

/// … that attains less than this fraction of its goal is starved.
const STARVATION_FLOOR: f64 = 0.05;

/// Coordinated perf/W below this fraction of the uncoordinated baseline is
/// a cliff: coordination actively hurt.
const CLIFF_FLOOR_RATIO: f64 = 0.9;

/// Award moves below this fraction of the budget are dither, not
/// oscillation.
const OSCILLATION_THRESHOLD_FRACTION: f64 = 0.02;

/// The award-hysteresis dead band — and slew limit — the rack probe
/// arbitrates under, deliberately equal to the oscillation oracle's
/// material-move threshold: any proposal the dead band holds is by
/// definition dither, and any move the slew limit emits is at most one
/// threshold per quantum, so a real redistribution arrives as a ramp the
/// oracle reads as a single direction, never as a flip. (The rack-level
/// coordinators arbitrate under their envelope, a fraction of the
/// datacenter budget, so their per-quantum steps are strictly inside the
/// oracle's band.)
const HYSTERESIS_DEAD_BAND: f64 = OSCILLATION_THRESHOLD_FRACTION;

/// Tolerated direction-flip rate in an app's award series.
const OSCILLATION_FLIP_LIMIT: f64 = 0.6;

/// The single-rack probe's market: admission control and the feasibility
/// pre-check on.
const FLAT: Coordination = Coordination {
    admission: true,
    feasibility: true,
    ..Coordination::MARKET
};

/// The multi-rack probe's market, at the datacenter and in every rack:
/// sub-dead-band proposals are held, so dither never reaches the apps;
/// larger ones are approached under the slew limit, so the market's
/// launch-transient swings decay into sub-band dither instead of being
/// adopted flip after flip. Real redistributions still pass — as ramps.
const RACKS: Coordination = Coordination {
    policy: || {
        Box::new(
            AwardHysteresis::new(Box::new(PerformanceMarket::default()), HYSTERESIS_DEAD_BAND)
                .with_max_step_fraction(HYSTERESIS_DEAD_BAND),
        )
    },
    ..Coordination::MARKET
};

/// Violations deduplicated by [`violation_label`]: the first instance of
/// each label is kept, later ones (more quanta, more apps) are dropped.
#[derive(Default)]
struct ViolationLog {
    violations: Vec<InvariantViolation>,
}

impl ViolationLog {
    fn push(&mut self, violation: InvariantViolation) {
        let label = violation_label(&violation);
        if !self
            .violations
            .iter()
            .any(|seen| violation_label(seen) == label)
        {
            self.violations.push(violation);
        }
    }

    fn extend(&mut self, violations: Vec<InvariantViolation>) {
        for violation in violations {
            self.push(violation);
        }
    }

    fn push_opt(&mut self, violation: Option<InvariantViolation>) {
        if let Some(violation) = violation {
            self.push(violation);
        }
    }
}

/// Counts the quanta at which the budget staircase changes the cap.
fn budget_step_count(scenario: &Scenario) -> u64 {
    (1..scenario.quanta)
        .filter(|&q| scenario.budget_fraction_at(q) != scenario.budget_fraction_at(q - 1))
        .count() as u64
}

/// Tallies one app's post-step decision into the policy-path counters.
fn count_decision(counters: &mut PolicyPathCounters, decision: Option<seec::CapDecision>) {
    let Some(decision) = decision else { return };
    counters.decisions += 1;
    match decision.goal_met {
        Some(true) => counters.goal_met += 1,
        Some(false) => counters.goal_missed += 1,
        None => counters.goal_unknown += 1,
    }
}

/// Per-step oracles — the same checks the proptests pin: the award
/// vector (apps, or rack envelopes), budget conservation (datacenter →
/// rack → app), and summary consistency.
fn check_step(log: &mut ViolationLog, stepped: &Stepped<'_>) {
    let quantum = stepped.quantum;
    match &stepped.fleet.platform {
        Platform::Flat(coordinator) => {
            let slots: Vec<AwardedApp> = coordinator
                .apps()
                .iter()
                .map(|app| AwardedApp {
                    active: app.active_at(quantum),
                    ceiling: None,
                })
                .collect();
            log.extend(check_award_vector(coordinator.awards(), &slots));
            let total = active_total(coordinator.awards(), &slots);
            log.push_opt(check_budget_conservation(
                total,
                coordinator.budget_watts() * 0.95,
            ));
            log.push_opt(check_summary_total(stepped.awarded_watts_total, total));
        }
        Platform::Racks(datacenter) => {
            let rack_slots: Vec<AwardedApp> = datacenter
                .racks()
                .iter()
                .map(|rack| AwardedApp {
                    active: rack.coordinator().apps().iter().any(|app| app.active_at(quantum)),
                    ceiling: None,
                })
                .collect();
            log.extend(check_award_vector(datacenter.rack_awards(), &rack_slots));
            let totals = HierarchyTotals {
                budget: datacenter.budget_watts(),
                rack_envelopes: datacenter.rack_awards().to_vec(),
                rack_fleet_totals: datacenter
                    .racks()
                    .iter()
                    .map(|rack| rack.coordinator().awards().iter().sum())
                    .collect(),
                headroom: 0.95,
            };
            log.extend(check_hierarchy_conservation(&totals));
            let rack_total: f64 = totals.rack_envelopes.iter().sum();
            log.push_opt(check_summary_total(stepped.awarded_watts_total, rack_total));
        }
        Platform::Local => {}
    }
}

/// End-of-run oracles: machine cap, per-app starvation, award
/// oscillation.
fn finish_run_checks(
    log: &mut ViolationLog,
    scenario: &Scenario,
    run: &RunResult,
    oscillations: &[OscillationTracker],
) {
    let quanta = scenario.quanta;
    log.push_opt(check_cap_violation(
        "machine",
        run.meter.violation_rate(),
        MACHINE_CAP_LIMIT,
    ));
    for (index, sim) in run.fleet.apps.iter().enumerate() {
        let residency = sim
            .spec
            .departure
            .unwrap_or(quanta)
            .min(quanta)
            .saturating_sub(sim.spec.arrival);
        // A fault-targeted app is *supposed* to underperform (a crashed
        // app attains nothing by construction); starving it is the
        // injected fault's doing, not an arbitration defect. Neither is an
        // app admission refused: it never launched.
        let admitted = run.fleet.managed(index).is_some();
        if residency >= STARVATION_MIN_RESIDENCY
            && admitted
            && !scenario.fault_plan.targets_app(index)
        {
            log.push_opt(check_starvation(
                &format!("app-{index}"),
                sim.attainment(),
                STARVATION_FLOOR,
            ));
        }
        log.push_opt(oscillations[index].check(&format!("app-{index}"), OSCILLATION_FLIP_LIMIT));
    }
}

/// Executes one scenario through the coordinated control its rack tagging
/// selects (flat for one rack, rack → datacenter otherwise) plus the
/// uncoordinated baseline on the same layout, and reports the invariant
/// verdicts.
pub fn fuzz_probe(server: &XeonServer, scenario: &Scenario, seed: u64) -> ScenarioOutcome {
    let hierarchical = scenario.rack_count() > 1;
    let probe = ScenarioRun {
        server,
        scenario,
        layout: if hierarchical { Layout::Racks } else { Layout::Machine },
        control: if hierarchical { Control::Racks(RACKS) } else { Control::Flat(FLAT) },
        seed,
        observer: None,
    };
    let threshold = probe.budget_watts() * OSCILLATION_THRESHOLD_FRACTION;
    let mut oscillations = vec![OscillationTracker::new(threshold); scenario.apps.len()];
    let mut log = ViolationLog::default();
    let mut counters = PolicyPathCounters {
        budget_steps: budget_step_count(scenario),
        hierarchical,
        ..PolicyPathCounters::default()
    };
    let run = probe.run(|stepped| {
        check_step(&mut log, stepped);
        // Only apps present at the stepped quantum count: a retired app
        // keeps its final decision forever, and must not re-count it.
        for (index, sim) in stepped.fleet.apps.iter().enumerate() {
            let app = stepped.fleet.managed(index);
            if let (Some(app), true) = (app, sim.active_at(stepped.quantum)) {
                count_decision(&mut counters, app.last_decision());
                oscillations[index].observe(app.awarded_watts());
            }
        }
    });
    for (index, sim) in run.fleet.apps.iter().enumerate() {
        if run.fleet.managed(index).is_some() {
            counters.arrivals += 1;
            let departed = sim.spec.departure.is_some_and(|d| d < scenario.quanta);
            counters.departures += u64::from(departed);
        }
    }
    if hierarchical {
        // The audited-but-not-enforced rack envelopes: worst overdraw.
        log.push_opt(check_cap_violation("rack", run.max_rack_violation_rate(), RACK_CAP_LIMIT));
    }
    finish_run_checks(&mut log, scenario, &run, &oscillations);

    let baseline = ScenarioRun {
        control: Control::Local(Adaptation::Uncoordinated),
        seed: mix_seed(seed, 0xba5e),
        ..probe
    }
    .run(|_| {});
    let baseline_perf_per_watt = baseline.performance_per_watt();
    log.push_opt(check_perf_per_watt_cliff(
        run.performance_per_watt(),
        baseline_perf_per_watt,
        CLIFF_FLOOR_RATIO,
    ));
    ScenarioOutcome {
        violations: log.violations,
        counters,
        apps: scenario.apps.len(),
        racks: scenario.rack_count(),
        cap_violation_fraction: run.meter.violation_rate(),
        mean_attainment: run.goal_attainment(),
        perf_per_watt: run.performance_per_watt(),
        baseline_perf_per_watt,
    }
}

/// A ready-made executor closure for [`scenario_fuzz::fuzz`]: one
/// calibrated R410 shared across all executions, every run derived from
/// `seed` alone.
pub fn probe_executor(seed: u64) -> impl FnMut(&Scenario) -> ScenarioOutcome {
    probe_executor_obs(seed, None)
}

/// [`probe_executor`] with telemetry: every execution (candidate, replay,
/// or shrink step) ticks [`Counter::FuzzExecutions`] on the recorder. The
/// probe outcomes themselves are unchanged — counting is read-only.
pub fn probe_executor_obs(
    seed: u64,
    observer: Option<std::sync::Arc<Recorder>>,
) -> impl FnMut(&Scenario) -> ScenarioOutcome {
    let server = XeonServer::dell_r410_calibrated();
    move |scenario: &Scenario| {
        if let Some(observer) = &observer {
            observer.count(Counter::FuzzExecutions);
        }
        fuzz_probe(&server, scenario, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small clean mix: the probe must agree with the fig5 pins (the
    /// coordinated arm holds the cap on the hand-written mixes).
    fn small_flat_scenario() -> Scenario {
        let mut scenario = workloads::scenario_mixes(2012).swap_remove(0);
        scenario.quanta = 24;
        for app in &mut scenario.apps {
            app.arrival = app.arrival.min(12);
            if let Some(departure) = &mut app.departure {
                *departure = (*departure).clamp(app.arrival + 4, 24);
            }
        }
        scenario.sanitize();
        scenario
    }

    #[test]
    fn probe_is_deterministic_and_clean_on_a_tame_mix() {
        let server = XeonServer::dell_r410_calibrated();
        let scenario = small_flat_scenario();
        let a = fuzz_probe(&server, &scenario, 7);
        let b = fuzz_probe(&server, &scenario, 7);
        assert_eq!(a, b);
        assert!(
            !a.violations
                .iter()
                .any(|v| violation_label(v) == "cap_violation:machine"),
            "a tame resident mix must hold the cap: {:?}",
            a.violations
        );
        assert!(a.counters.decisions > 0);
        assert!(a.mean_attainment > 0.0);
        assert!(!a.counters.hierarchical);
    }

    #[test]
    fn probe_takes_the_hierarchy_path_for_rack_tagged_scenarios() {
        let server = XeonServer::dell_r410_calibrated();
        let mut scenario = workloads::vocabulary_mixes(2012).swap_remove(2);
        assert!(scenario.rack_count() > 1);
        scenario.quanta = 16;
        scenario.sanitize();
        let outcome = fuzz_probe(&server, &scenario, 7);
        assert!(outcome.counters.hierarchical);
        assert_eq!(outcome.racks, scenario.rack_count());
    }
}
