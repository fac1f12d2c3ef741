//! Micro-benchmarks of the substrates themselves: a single chip evaluation,
//! a single server evaluation, and one SEEC decision. These track the cost of
//! the building blocks every figure is assembled from.

use angstrom_sim::chip::{AngstromChip, ChipConfiguration};
use angstrom_sim::config::ChipConfig;
use angstrom_sim::WorkloadDemand;
use criterion::{criterion_group, criterion_main, Criterion};
use seec::SeecRuntime;
use xeon_sim::{ServerConfiguration, ServerDemand, XeonServer};

fn substrates(c: &mut Criterion) {
    let chip = AngstromChip::new(ChipConfig::angstrom_256());
    let chip_cfg = ChipConfiguration::default_for(chip.config());
    let demand = WorkloadDemand::builder().build();
    c.bench_function("angstrom_chip_evaluate", |b| {
        b.iter(|| chip.evaluate(&demand, &chip_cfg))
    });

    let server = XeonServer::dell_r410();
    let server_demand = ServerDemand::builder().build();
    let server_cfg = ServerConfiguration::new(8, 0, 1.0);
    c.bench_function("xeon_server_evaluate", |b| {
        b.iter(|| server.evaluate(&server_demand, &server_cfg))
    });

    c.bench_function("seec_decision", |b| {
        use actuation::{ActuatorSpec, Axis, SettingSpec, TableActuator};
        use heartbeats::{Goal, HeartbeatRegistry, PerformanceGoal};
        let registry = HeartbeatRegistry::new("bench");
        registry
            .issuer()
            .set_goal(Goal::Performance(PerformanceGoal::heart_rate(100.0)));
        let spec = ActuatorSpec::builder("dvfs")
            .setting(SettingSpec::new("slow").effect(Axis::Performance, 0.5).effect(Axis::Power, 0.4))
            .setting(SettingSpec::new("fast"))
            .nominal(1)
            .build()
            .expect("valid spec");
        let mut runtime = SeecRuntime::builder(registry.monitor())
            .actuator(Box::new(TableActuator::new(spec)))
            .build()
            .expect("actuator registered");
        let issuer = registry.issuer();
        let mut now = 0.0;
        b.iter(|| {
            now += 0.01;
            issuer.heartbeat(now);
            runtime.decide(now, f64::INFINITY)
        })
    });
}

criterion_group!(benches, substrates);
criterion_main!(benches);
