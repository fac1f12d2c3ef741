//! Cross-crate integration tests: the full observe–decide–act loop over both
//! substrates, plus property-based tests of the core invariants.

use angstrom_seec::experiments::driver::{run_fixed_on_xeon, to_chip_demand, to_server_demand};
use angstrom_seec::experiments::fig3::{map_configuration, xeon_actuators};
use angstrom_seec::prelude::*;
use angstrom_seec::seec::SeecRuntime;
use proptest::prelude::*;

/// SEEC on the Xeon model: starting from one core at the minimum clock, the
/// runtime must raise a parallel benchmark to (near) its requested rate and
/// settle on a configuration cheaper than running flat out.
#[test]
fn seec_closes_the_loop_on_the_xeon_server() {
    let server = XeonServer::dell_r410();
    let workload = Workload::new(SplashBenchmark::Barnes, 11);
    let quanta = workload.quanta(80);
    let max_rate = run_fixed_on_xeon(&server, &quanta, &server.default_configuration()).heart_rate;
    let target = max_rate / 2.0;

    let mut app = HeartbeatedWorkload::new(workload);
    app.set_heart_rate_goal(target);
    let mut runtime = SeecRuntime::builder(app.monitor())
        .actuators(xeon_actuators(&server))
        .build()
        .expect("actuators registered");
    let monitor = app.monitor();

    let mut now = 0.0;
    let mut above_idle_energy = 0.0;
    for quantum in &quanta {
        let cfg = map_configuration(&server, runtime.current_configuration());
        let report = server.evaluate(&to_server_demand(quantum), &cfg);
        now += report.seconds;
        above_idle_energy += report.power_above_idle_watts * report.seconds;
        app.advance(now, report.work_units);
        monitor.record_power_sample(now, report.power_above_idle_watts);
        runtime.decide(now, f64::INFINITY).expect("goal registered");
    }

    let achieved = app.completed_work() / now;
    assert!(
        achieved >= target * 0.6,
        "SEEC should approach the target: {achieved:.1} of {target:.1}"
    );
    // SEEC's energy above idle must be below the flat-out run's (it only
    // needs half the performance).
    let flat_out = run_fixed_on_xeon(&server, &quanta, &server.default_configuration());
    let flat_energy = flat_out.power_above_idle_watts * flat_out.seconds;
    assert!(
        above_idle_energy < flat_energy,
        "meeting half the performance should take less energy than flat out"
    );
    assert!(app.is_finished());
}

/// The same SEEC runtime drives the Angstrom chip model: heartbeats come from
/// the instrumented workload, power from the chip's energy sensors.
#[test]
fn seec_controls_the_angstrom_chip_through_hardware_actuators() {
    use angstrom_seec::actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
    use angstrom_seec::angstrom_sim::chip::ChipConfiguration;

    let mut chip = AngstromChip::new(ChipConfig::angstrom_256());
    let chip_config = chip.config().clone();
    let workload = Workload::new(SplashBenchmark::Volrend, 5);
    let quanta = workload.quanta(60);

    // Hardware-exposed actuators: core allocation and the DVFS point.
    let mut cores = ActuatorSpec::builder("cores");
    for &n in &chip_config.core_allocation_options {
        cores = cores.setting(
            SettingSpec::new(format!("{n}"))
                .effect(Axis::Performance, n as f64)
                .effect(Axis::Power, n as f64),
        );
    }
    let cores = cores.nominal(0).build().expect("valid spec");
    let mut dvfs = ActuatorSpec::builder("dvfs");
    for (i, point) in chip_config.operating_points.iter().enumerate() {
        let ratio = point.frequency / chip_config.operating_points[0].frequency;
        dvfs = dvfs.setting(
            SettingSpec::new(format!("op{i}"))
                .effect(Axis::Performance, ratio)
                .effect(Axis::Power, ratio * ratio),
        );
    }
    let dvfs = dvfs.nominal(0).build().expect("valid spec");

    let mut app = HeartbeatedWorkload::new(workload);
    // A modest goal: 4x the single-core low-voltage rate.
    let probe = chip.evaluate(
        &to_chip_demand(&quanta[0]),
        &ChipConfiguration {
            cores: 1,
            cache_per_core_kb: 128.0,
            operating_point_index: 0,
            coherence: chip_config.coherence,
            noc_features: None,
            decision_placement: chip_config.decision_placement,
        },
    );
    let nominal_rate = probe.work_units / probe.seconds;
    app.set_heart_rate_goal(nominal_rate * 4.0);

    let mut runtime = SeecRuntime::builder(app.monitor())
        .actuator(Box::new(TableActuator::new(cores)))
        .actuator(Box::new(TableActuator::new(dvfs)))
        .build()
        .expect("actuators registered");
    let monitor = app.monitor();

    for quantum in &quanta {
        let joint = runtime.current_configuration().clone();
        let cfg = ChipConfiguration {
            cores: chip_config.core_allocation_options[joint.setting(0).unwrap_or(0)],
            cache_per_core_kb: 128.0,
            operating_point_index: joint.setting(1).unwrap_or(0),
            coherence: chip_config.coherence,
            noc_features: None,
            decision_placement: chip_config.decision_placement,
        };
        let report = chip.execute(&to_chip_demand(quantum), &cfg);
        let now = chip.now();
        app.advance(now, report.work_units);
        monitor.record_power_sample(now, report.average_power_watts);
        runtime.decide(now, f64::INFINITY).expect("goal registered");
    }

    assert!(runtime.decisions_made() as usize >= quanta.len());
    assert!(
        monitor.window_heart_rate() >= nominal_rate * 2.0,
        "SEEC must have scaled the chip up from its single-core launch state"
    );
    // The chip's observability surface recorded the run.
    assert!(chip.total_sensed_energy() > 0.0);
    assert!(
        chip.tiles()[0]
            .counters
            .read(angstrom_seec::angstrom_sim::counters::CounterId::Instructions)
            > 0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chip reports are physically sensible for any demand and configuration
    /// within the documented domains.
    #[test]
    fn chip_reports_are_physical(
        instructions in 1.0e6..1.0e10f64,
        parallel in 0.0..1.0f64,
        mem_ops in 0.0..0.6f64,
        ws_mb in 0.1..128.0f64,
        cores_exp in 0u32..8,
        cache_kb in 8.0..128.0f64,
        op in 0usize..2,
    ) {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let demand = angstrom_seec::angstrom_sim::WorkloadDemand::builder()
            .instructions(instructions)
            .parallel_fraction(parallel)
            .memory_ops_per_instruction(mem_ops)
            .working_set_bytes(ws_mb * 1024.0 * 1024.0)
            .build();
        let cfg = ChipConfiguration {
            cores: 1 << cores_exp,
            cache_per_core_kb: cache_kb,
            operating_point_index: op,
            coherence: chip.config().coherence,
            noc_features: None,
            decision_placement: chip.config().decision_placement,
        };
        let report = chip.evaluate(&demand, &cfg);
        prop_assert!(report.seconds > 0.0 && report.seconds.is_finite());
        prop_assert!(report.energy_joules > 0.0 && report.energy_joules.is_finite());
        prop_assert!(report.average_power_watts > 0.0);
        prop_assert!((report.breakdown.total() - report.energy_joules).abs() <= 1e-9 * report.energy_joules.max(1.0));
        prop_assert!((0.0..=1.0).contains(&report.offchip_rate));
    }

    /// For an embarrassingly parallel, compute-only workload, more cores
    /// never slow the run down and never reduce chip power. (Workloads with
    /// serial sections or memory traffic may legitimately slow down when
    /// over-allocated — that is the heterogeneity the oracles exploit.)
    #[test]
    fn monotonicity_in_core_allocation(
        base_cpi in 0.5..2.0f64,
        cores_exp in 0u32..7,
    ) {
        let chip = AngstromChip::new(ChipConfig::angstrom_256());
        let demand = angstrom_seec::angstrom_sim::WorkloadDemand::builder()
            .parallel_fraction(1.0)
            .memory_ops_per_instruction(0.0)
            .communication_flits_per_instruction(0.0)
            .base_cpi(base_cpi)
            .build();
        let mut cfg = angstrom_seec::angstrom_sim::chip::ChipConfiguration::default_for(chip.config());
        cfg.cores = 1 << cores_exp;
        let fewer = chip.evaluate(&demand, &cfg);
        cfg.cores = 1 << (cores_exp + 1);
        let more = chip.evaluate(&demand, &cfg);
        prop_assert!(more.seconds <= fewer.seconds * 1.0001);
        prop_assert!(more.average_power_watts >= fewer.average_power_watts * 0.999);
    }

    /// The Xeon model stays inside its published power envelope for every
    /// valid configuration.
    #[test]
    fn xeon_power_stays_in_envelope(
        cores in 1usize..=8,
        pstate in 0usize..7,
        duty_step in 1usize..=10,
        llc_miss in 0.0..0.2f64,
    ) {
        let server = XeonServer::dell_r410();
        let demand = ServerDemand::builder().llc_miss_rate(llc_miss).build();
        let cfg = ServerConfiguration::new(cores, pstate, duty_step as f64 / 10.0);
        let report = server.evaluate(&demand, &cfg);
        prop_assert!(report.total_power_watts >= server.idle_power_watts());
        prop_assert!(report.total_power_watts <= server.max_power_watts() + 1e-9);
        prop_assert!(report.seconds > 0.0 && report.seconds.is_finite());
    }

    /// Heart-rate accounting: the registry's global rate equals beats over
    /// elapsed time for any positive beat spacing.
    #[test]
    fn heartbeat_global_rate_matches_definition(intervals in proptest::collection::vec(1.0e-3..1.0f64, 2..100)) {
        let registry = HeartbeatRegistry::with_window("app", 16);
        let issuer = registry.issuer();
        let mut now = 0.0;
        for dt in &intervals {
            now += dt;
            issuer.heartbeat(now);
        }
        let stats = registry.monitor().heart_rate();
        let expected = (intervals.len() as f64 - 1.0) / (now - intervals[0]);
        prop_assert!((stats.global - expected).abs() <= 1e-6 * expected);
    }
}
