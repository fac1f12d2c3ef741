//! Coordinated arbitration vs. uncoordinated composition, head to head.
//!
//! The same four-application mix runs twice on the calibrated Xeon model
//! under the same machine power budget: once with every application running
//! one independent SEEC instance *per actuator* and nobody watching the cap
//! (§5.2's uncoordinated-composition baseline), and once under a
//! [`Coordinator`] whose performance market splits the budget into per-app
//! power envelopes each quantum. Halfway through, the machine budget
//! *steps down* by a third — rack-level power management the fleet gets no
//! warning about. The uncoordinated machine overshoots the budget most of
//! the run; the coordinated one holds both the original and the cut budget
//! at zero violations while delivering more goal-weighted throughput per
//! watt.
//!
//! Run with: `cargo run --release --example coordinated_vs_uncoordinated`

use angstrom_seec::experiments::fig5::{budget_watts, QUANTUM_SECONDS};
use angstrom_seec::prelude::*;
use angstrom_seec::workloads::{BudgetStep, FaultPlan, Scenario, ScenarioApp};
use angstrom_seec::xeon_sim::XeonServer;

fn main() {
    let server = XeonServer::dell_r410_calibrated();
    let scenario = Scenario {
        name: "example-mix".to_string(),
        apps: vec![
            app(SplashBenchmark::Barnes, 1, 2.0, 0, None),
            app(SplashBenchmark::OceanNonContiguous, 2, 1.0, 0, None),
            app(SplashBenchmark::Raytrace, 3, 1.0, 10, None),
            app(SplashBenchmark::Volrend, 4, 4.0, 0, Some(50)),
        ],
        quanta: 72,
        power_budget_fraction: 0.45,
        budget_steps: vec![BudgetStep {
            quantum: 36,
            fraction: 0.3,
        }],
        fault_plan: FaultPlan::default(),
        arbitration_tolerance: 0.0,
        wake_horizon: 0,
        wake_steady_quanta: 0,
    };
    println!(
        "four applications, {} quanta of {QUANTUM_SECONDS:.0} s, budget {:.0} W above idle \
         stepping to {:.0} W at quantum 36\n",
        scenario.quanta,
        budget_watts(&server, &scenario),
        scenario.budget_fraction_at(36)
            * (server.max_power_watts() - server.idle_power_watts()),
    );

    // Figure 5's harness runs exactly this comparison; reuse it so the
    // example and the experiment can never disagree.
    let spec = angstrom_seec::experiments::RunSpec::new(42, vec![scenario]);
    let (figure, _) = angstrom_seec::experiments::Figure5::compute(&spec);
    let result = &figure.scenarios[0];
    println!("regime                          perf/W   goal attainment  cap violations");
    for arm in [
        &result.uncoordinated,
        &result.per_app_seec,
        &result.coordinated,
    ] {
        println!(
            "{:30}  {:.4}   {:14.1}%  {:12.1}%",
            arm.name,
            arm.performance_per_watt,
            arm.goal_attainment * 100.0,
            arm.cap_violation_rate * 100.0,
        );
    }
    let coordinated = &result.coordinated;
    let uncoordinated = &result.uncoordinated;
    println!(
        "\ncoordinated SEEC delivers {:+.0}% perf/W over uncoordinated composition \
         and cuts cap violations from {:.0}% to {:.0}% of the run",
        (coordinated.performance_per_watt / uncoordinated.performance_per_watt - 1.0) * 100.0,
        uncoordinated.cap_violation_rate * 100.0,
        coordinated.cap_violation_rate * 100.0,
    );
    assert!(coordinated.performance_per_watt > uncoordinated.performance_per_watt);
    assert_eq!(coordinated.cap_violation_rate, 0.0);
}

fn app(
    benchmark: SplashBenchmark,
    seed: u64,
    weight: f64,
    arrival: usize,
    departure: Option<usize>,
) -> ScenarioApp {
    ScenarioApp {
        benchmark,
        seed,
        weight,
        arrival,
        departure,
        target_fraction: 0.5,
        rack: 0,
    }
}
