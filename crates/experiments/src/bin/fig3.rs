//! Regenerates Figure 3: SEEC on an existing Linux/x86 system.
//!
//! By default this reproduces the historical figure bit-for-bit
//! (`fig3.json`). Pass `--leaky-pi` to *additionally* run the calibrated
//! (convex) goal-respecting protocol twice — classical integral vs. the
//! flag-gated leaky integral (`CONVEX_PROTOCOL_LEAK`) — print the fidelity
//! delta, and write the comparison to `fig3_leaky.json`. Pass
//! `--belief-aging` to sweep the flag-gated belief-aging halflives
//! (`BELIEF_AGING_HALFLIVES`) through the same calibrated protocol — the
//! ROADMAP's phase-stale-beliefs probe — and write the sweep to
//! `fig3_belief_aging.json`. The default outputs are unchanged either way.

use experiments::fig3::{ConvexTuning, Figure3Spec, BELIEF_AGING_HALFLIVES, CONVEX_PROTOCOL_LEAK};
use experiments::Figure3;
use serde::Serialize;
use xeon_sim::XeonServer;

/// The leaky-integral comparison on the calibrated server, as raw data.
#[derive(Serialize)]
struct LeakyComparison {
    leak: f64,
    classical_mean_seec_vs_dynamic_oracle: f64,
    leaky_mean_seec_vs_dynamic_oracle: f64,
    classical: Figure3,
    leaky: Figure3,
}

/// One halflife's arm of the belief-aging sweep.
#[derive(Serialize)]
struct BeliefAgingArm {
    halflife_periods: f64,
    mean_seec_vs_dynamic_oracle: f64,
    figure: Figure3,
}

/// The belief-aging sweep on the calibrated server, as raw data.
#[derive(Serialize)]
struct BeliefAgingSweep {
    classical_mean_seec_vs_dynamic_oracle: f64,
    classical: Figure3,
    arms: Vec<BeliefAgingArm>,
}

fn mean_seec_ratio(figure: &Figure3) -> f64 {
    let sum: f64 = figure.rows.iter().map(|row| row.normalized()[2]).sum();
    sum / figure.rows.len() as f64
}

fn write_json<T: Serialize>(value: &T, path: &str) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(err) = std::fs::write(path, json) {
                eprintln!("could not write {path}: {err}");
            } else {
                println!("raw data written to {path}");
            }
        }
        Err(err) => eprintln!("could not serialise {path}: {err}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let leaky = args.iter().any(|arg| arg == "--leaky-pi");
    let belief_aging = args.iter().any(|arg| arg == "--belief-aging");

    let figure = Figure3::compute(&Figure3Spec::default());
    println!("Figure 3 — SEEC on the Xeon E5530 server, perf/W normalised to the dynamic oracle\n");
    println!("{}", figure.to_table());
    match serde_json::to_string_pretty(&figure) {
        Ok(json) => {
            if let Err(err) = std::fs::write("fig3.json", json) {
                eprintln!("could not write fig3.json: {err}");
            } else {
                println!("raw data written to fig3.json");
            }
        }
        Err(err) => eprintln!("could not serialise figure 3: {err}"),
    }

    // Both studies compare against the same calibrated classical baseline;
    // compute it once when either flag asks for it.
    let calibrated = Figure3Spec {
        server: XeonServer::dell_r410_calibrated(),
        ..Figure3Spec::default()
    };
    let tuned = |tuning: ConvexTuning| {
        Figure3::compute(&Figure3Spec {
            tuning,
            ..calibrated.clone()
        })
    };
    let classical = (leaky || belief_aging).then(|| Figure3::compute(&calibrated));

    if leaky {
        let classical = classical.clone().expect("computed when --leaky-pi is set");
        let leaky = tuned(ConvexTuning {
            leak: CONVEX_PROTOCOL_LEAK,
            ..ConvexTuning::default()
        });
        let comparison = LeakyComparison {
            leak: CONVEX_PROTOCOL_LEAK,
            classical_mean_seec_vs_dynamic_oracle: mean_seec_ratio(&classical),
            leaky_mean_seec_vs_dynamic_oracle: mean_seec_ratio(&leaky),
            classical,
            leaky,
        };
        println!(
            "\nLeaky-PI experiment on the calibrated (convex) protocol \
             (leak {:.2}):\n  classical integral: SEEC at {:.3} of the dynamic oracle\n  \
             leaky integral:     SEEC at {:.3} of the dynamic oracle",
            comparison.leak,
            comparison.classical_mean_seec_vs_dynamic_oracle,
            comparison.leaky_mean_seec_vs_dynamic_oracle,
        );
        write_json(&comparison, "fig3_leaky.json");
    }

    if belief_aging {
        let classical = classical.expect("computed when --belief-aging is set");
        let classical_mean = mean_seec_ratio(&classical);
        println!(
            "\nBelief-aging experiment on the calibrated (convex) protocol:\n  \
             no aging (halflife ∞): SEEC at {classical_mean:.3} of the dynamic oracle"
        );
        let arms: Vec<BeliefAgingArm> = BELIEF_AGING_HALFLIVES
            .iter()
            .map(|&halflife_periods| {
                let figure = tuned(ConvexTuning {
                    belief_halflife: halflife_periods,
                    ..ConvexTuning::default()
                });
                let mean = mean_seec_ratio(&figure);
                println!(
                    "  halflife {halflife_periods:>4.0} periods:   SEEC at {mean:.3} \
                     of the dynamic oracle"
                );
                BeliefAgingArm {
                    halflife_periods,
                    mean_seec_vs_dynamic_oracle: mean,
                    figure,
                }
            })
            .collect();
        let sweep = BeliefAgingSweep {
            classical_mean_seec_vs_dynamic_oracle: classical_mean,
            classical,
            arms,
        };
        write_json(&sweep, "fig3_belief_aging.json");
    }
}
