//! Regenerates Figure 4: anticipated SEEC results on the Angstrom processor.

use experiments::fig3::Figure3Spec;
use experiments::{Figure3, Figure4};

fn main() {
    // The Figure-4 prediction reuses the SEEC-vs-static-oracle multiplier
    // measured on the existing system (Figure 3), exactly as the paper does.
    let fig3 = Figure3::compute(&Figure3Spec::default());
    let multiplier = fig3.seec_vs_static_oracle();
    let figure = Figure4::compute_with_multiplier(multiplier);
    println!("Figure 4 — anticipated SEEC results on the 256-core Angstrom processor\n");
    println!("{}", figure.to_table());
    match serde_json::to_string_pretty(&figure) {
        Ok(json) => {
            if let Err(err) = std::fs::write("fig4.json", json) {
                eprintln!("could not write fig4.json: {err}");
            } else {
                println!("raw data written to fig4.json");
            }
        }
        Err(err) => eprintln!("could not serialise figure 4: {err}"),
    }
}
