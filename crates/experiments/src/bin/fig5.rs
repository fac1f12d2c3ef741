//! Regenerates Figure 5: multi-application coordination under a power budget.
//!
//! By default this reproduces the original three-mix figure bit-for-bit
//! (`fig5.json`). Pass `--extended` to *additionally* run the extended
//! scenario family — the 100-app arrival storm and the 1200-app
//! stepped-budget mix, exercising runtime registration/retirement, mid-run
//! budget steps, and the sharded coordinator — and write it to
//! `fig5_extended.json`. Pass `--hierarchy` to run the same rack-tagged
//! extended mixes through the two-level (rack → datacenter) coordination
//! stack — uncoordinated vs. one flat coordinator vs.
//! `DatacenterArbiter` over per-rack `RackCoordinator`s — and write
//! `fig5_hierarchy.json`. Pass `--chaos` to run the fault-injected chaos
//! mixes through all five robustness regimes (uncoordinated, naive and
//! degraded coordination, each behind audit-only or clamping rack
//! enforcement) and write `fig5_chaos.json`; `--enforce` writes the
//! breaker-focused projection of the same runs to `fig5_enforce.json`.
//! The default output is unchanged either way.
//!
//! Pass `--fleet N` to additionally run the fleet-scaling harness
//! ([`experiments::fleet`]): N synthetic applications (up to 1,000,000)
//! driven through the coordinator's incremental arbitration engine with
//! churn, measuring µs/quantum for the full fold, the incremental fold,
//! and the wake-scheduled engine (whose rounds cost O(awake) instead of
//! O(fleet)), checking that the skipped/re-arbitrated counters reconcile
//! on both incremental arms (the scheduled arm adds `apps_slept` to the
//! ledger), and differentially verifying that tolerance 0 reproduces the
//! full fold bit-for-bit and that sleep horizon 0 reproduces the plain
//! incremental engine bit-for-bit. The report merges into
//! `BENCH_fig5.json` under the `fleet_scaling` key (all other keys and
//! rows at other fleet sizes are preserved — including rows written by
//! older builds without the scheduled-arm fields). The figure JSONs are
//! unchanged by `--fleet`.
//!
//! Pass `--obs PATH` to also write an [`obs::ObsReport`] covering every
//! figure computed in the run: phase counters, stage latency histograms,
//! executor dispatch timing, and the structured event stream, merged in
//! cell-index order so the report is deterministic up to wall-clock
//! timings. Telemetry is passive — the figure JSONs are byte-identical
//! with and without `--obs` (the determinism tests pin this).

use std::sync::Arc;

use experiments::{Figure5, Figure5Hierarchy, FigureChaos, FigureEnforce, RunSpec};
use obs::{ObsSnapshot, Recorder, Stage};
use serde::Serialize;
use workloads::{chaos_mixes, extended_scenario_mixes, scenario_mixes};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|arg| arg == flag)
        .and_then(|index| args.get(index + 1))
        .cloned()
}

fn write_figure<T: Serialize>(figure: &T, path: &str) {
    match serde_json::to_string_pretty(figure) {
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
    let extended = args.iter().any(|arg| arg == "--extended");
    let hierarchy = args.iter().any(|arg| arg == "--hierarchy");
    let chaos = args.iter().any(|arg| arg == "--chaos");
    let enforce = args.iter().any(|arg| arg == "--enforce");
    let obs_path = flag_value(&args, "--obs");
    let fleet = flag_value(&args, "--fleet").map(|value| {
        value
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("--fleet takes a positive app count, got {value:?}"))
    });

    let mut merged = obs_path.as_ref().map(|_| ObsSnapshot::empty());

    // Executor dispatch timing rides on its own recorder attached to the
    // shared pool for the duration of the run; its histogram merges into
    // the report last so the deterministic sections stay in figure order.
    let dispatch = if merged.is_some() {
        let recorder = Arc::new(Recorder::in_memory());
        let timer = Arc::clone(&recorder);
        exec::global_pool().set_dispatch_observer(Some(Arc::new(move |ns| {
            timer.time(Stage::Dispatch, ns);
        })));
        Some(recorder)
    } else {
        None
    };

    // Every figure runs at the canonical seed; with --obs each returns its
    // merged telemetry, folded into the report in figure order.
    let observe = merged.is_some();
    let spec = |scenarios| RunSpec {
        observe,
        ..RunSpec::new(2012, scenarios)
    };
    let mut record = |snapshot: Option<ObsSnapshot>| {
        if let (Some(merged), Some(snapshot)) = (merged.as_mut(), snapshot) {
            merged.merge(&snapshot);
        }
    };

    let (figure, snapshot) = Figure5::compute(&spec(scenario_mixes(2012)));
    record(snapshot);
    println!(
        "Figure 5 — multi-application SEEC on the calibrated R410 under a machine power budget\n"
    );
    println!("{}", figure.to_table());
    write_figure(&figure, "fig5.json");

    if extended {
        let (figure, snapshot) = Figure5::compute(&spec(extended_scenario_mixes(2012)));
        record(snapshot);
        println!(
            "\nExtended scenario family — runtime lifecycle, budget steps, sharded coordinator\n"
        );
        println!("{}", figure.to_table());
        write_figure(&figure, "fig5_extended.json");
    }

    if hierarchy {
        let (figure, snapshot) = Figure5Hierarchy::compute(&spec(extended_scenario_mixes(2012)));
        record(snapshot);
        println!(
            "\nHierarchical coordination — the rack-tagged extended mixes, budget flowing \
             datacenter → rack → app\n"
        );
        println!("{}", figure.to_table());
        write_figure(&figure, "fig5_hierarchy.json");
    }

    if chaos || enforce {
        let (figure, snapshot) = FigureChaos::compute(&spec(chaos_mixes(2012)));
        record(snapshot);
        if chaos {
            println!(
                "\nChaos — fault-injected mixes under degradation and rack enforcement\n"
            );
            println!("{}", figure.to_table());
            write_figure(&figure, "fig5_chaos.json");
        }
        if enforce {
            let projection = FigureEnforce::from_chaos(&figure);
            println!(
                "\nEnforcement — what the rack breaker closes, and what it costs\n"
            );
            println!("{}", projection.to_table());
            write_figure(&projection, "fig5_enforce.json");
        }
    }

    if let Some(fleet) = fleet {
        println!(
            "\nFleet scaling — incremental arbitration over {fleet} synthetic applications\n"
        );
        let report = experiments::FleetScalingReport::measure(fleet);
        println!("{}", report.to_line());
        assert!(
            report.counters_reconcile,
            "skipped + re-arbitrated must cover every active app-quantum"
        );
        assert!(
            report.tolerance_zero_identical,
            "tolerance 0 must reproduce the full fold bit-for-bit"
        );
        assert!(
            report.scheduled_counters_reconcile,
            "slept + skipped + re-arbitrated must cover every active app-quantum"
        );
        assert!(
            report.horizon_zero_identical,
            "sleep horizon 0 must reproduce the plain incremental engine bit-for-bit"
        );
        match experiments::fleet::merge_fleet_scaling("BENCH_fig5.json", &[report]) {
            Ok(()) => println!("fleet row merged into BENCH_fig5.json"),
            Err(err) => eprintln!("could not update BENCH_fig5.json: {err}"),
        }
    }

    if let (Some(obs_path), Some(mut merged)) = (obs_path, merged) {
        if let Some(dispatch) = dispatch {
            exec::global_pool().set_dispatch_observer(None);
            merged.merge(&dispatch.snapshot());
        }
        write_figure(&merged.to_report(), &obs_path);
    }
}
