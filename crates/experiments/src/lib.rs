//! # Experiment harness: baselines, oracles, sweeps, and figure generators
//!
//! This crate reproduces the evaluation of *Self-aware Computing in the
//! Angstrom Processor* (DAC 2012, §2 and §5):
//!
//! * [`fig2`] — the closed-adaptive-systems experiment (Figure 2): `barnes`
//!   on a 64-core Graphite-style multicore swept over core counts and cache
//!   sizes, with the Pareto frontier and the points a cache-only or
//!   core-only closed system would pick.
//! * [`fig3`] — SEEC on the existing Linux/x86 Xeon server (Figure 3): the
//!   five SPLASH-2 benchmarks requesting half their maximum performance,
//!   compared across no adaptation, uncoordinated adaptation, SEEC, the
//!   static oracle, and the dynamic oracle, as performance per watt beyond
//!   idle normalised to the dynamic oracle.
//! * [`fig4`] — anticipated SEEC results on the 256-core Angstrom (Figure 4):
//!   no adaptation, static oracle, and predicted SEEC (static oracle scaled
//!   by the SEEC-vs-static-oracle multiplier measured in Figure 3).
//! * [`fig5`] — reproduction-specific: many self-aware applications sharing
//!   the calibrated R410 under a machine power budget, comparing
//!   no-adaptation / uncoordinated composition / per-app SEEC / coordinated
//!   SEEC (the [`coordinator`] subsystem) on goal-weighted perf/W and
//!   cap-violation rate. Every arm — and the chaos arms of [`chaos`] and
//!   the scenario fuzzer's probe in [`fuzz`] — runs through one quantum
//!   loop; each multi-application figure has one `compute` taking a
//!   [`RunSpec`].
//! * [`fleet`] — reproduction-specific: the million-app fleet-scaling
//!   harness behind `fig5 --fleet N`, driving the coordinator's incremental
//!   arbitration engine directly over synthetic request arrays with a
//!   built-in full-vs-tolerance-0 differential check.
//! * [`ablation`] — design-choice ablations this reproduction calls out in
//!   DESIGN.md: partner-core decision placement, adaptive NoC features, and
//!   adaptive cache coherence.
//!
//! Lower-level pieces — demand conversion ([`driver`]), exhaustive
//! configuration sweeps ([`sweep`]), and Pareto analysis ([`pareto`]) — are
//! public so examples and benches can reuse them.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod ablation;
pub mod chaos;
pub mod driver;
mod faults;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fleet;
pub mod fuzz;
pub mod pareto;
mod run;
pub mod sweep;

pub use fig2::Figure2;
pub use fig3::{Figure3, Figure3Row};
pub use fig4::{Figure4, Figure4Row};
pub use chaos::{FigureChaos, FigureEnforce};
pub use fig5::{ArmOutcome, Figure5, Figure5Hierarchy, Figure5Scenario, HierarchyScenario, RuntimeBlock};
pub use fleet::FleetScalingReport;
pub use run::RunSpec;
