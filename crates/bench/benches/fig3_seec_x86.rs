//! Criterion bench regenerating Figure 3 (SEEC on an existing Linux/x86
//! system): the five benchmarks under no adaptation, uncoordinated
//! adaptation, SEEC, and the oracles.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::fig3::Figure3Spec;
use experiments::Figure3;

fn fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_seec_x86");
    group.sample_size(10);
    // A reduced quantum count keeps each iteration affordable; the printed
    // report below uses a longer run.
    group.bench_function("five_benchmarks_all_baselines", |b| {
        b.iter(|| {
            Figure3::compute(&Figure3Spec {
                quanta_per_run: 20,
                ..Figure3Spec::default()
            })
        })
    });
    group.finish();

    let figure = Figure3::compute(&Figure3Spec {
        quanta_per_run: 60,
        ..Figure3Spec::default()
    });
    println!("\n{}", figure.to_table());
}

criterion_group!(benches, fig3);
criterion_main!(benches);
