//! Replays the pinned fuzz corpus under `tests/corpus/`.
//!
//! Every fixture is a shrunk incident emitted by the scenario fuzzer
//! (`cargo run --release --bin fuzz`), wrapped with a status:
//!
//! * `"expected"` — a known incident class: the replay must still raise
//!   every recorded class. If one of these starts passing clean, the
//!   underlying behavior changed (possibly a fix!) and the fixture must be
//!   consciously retired, not ignored.
//! * `"clean"` — a scenario pinned to stay violation-free.
//!
//! Replays are fully deterministic: the fixture records the probe seed,
//! and `fuzz_probe` derives everything else from it.

use experiments::fuzz::fuzz_probe;
use scenario_fuzz::Incident;
use serde::Deserialize;
use xeon_sim::XeonServer;

#[derive(Deserialize)]
struct Fixture {
    status: String,
    note: String,
    seed: u64,
    incident: Incident,
}

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

fn load_fixtures() -> Vec<(String, Fixture)> {
    let mut fixtures: Vec<(String, Fixture)> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|entry| entry.expect("corpus entry is readable").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| {
            let name = path
                .file_stem()
                .expect("fixture has a stem")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&path).expect("fixture is readable");
            let fixture: Fixture = serde_json::from_str(&text)
                .unwrap_or_else(|err| panic!("fixture {name} parses: {err}"));
            (name, fixture)
        })
        .collect();
    fixtures.sort_by(|a, b| a.0.cmp(&b.0));
    fixtures
}

#[test]
fn corpus_is_present_and_well_formed() {
    let fixtures = load_fixtures();
    assert!(
        fixtures.len() >= 5,
        "the pinned corpus holds at least the five discovered incident classes, found {}",
        fixtures.len()
    );
    for (name, fixture) in &fixtures {
        assert!(
            fixture.incident.scenario.is_well_formed(),
            "fixture {name} carries a well-formed scenario"
        );
        assert!(
            matches!(fixture.status.as_str(), "expected" | "clean"),
            "fixture {name} has unknown status {:?}",
            fixture.status
        );
        assert!(!fixture.note.is_empty(), "fixture {name} documents itself");
        if fixture.status == "expected" {
            assert!(
                !fixture.incident.classes.is_empty(),
                "expected fixture {name} names its incident classes"
            );
        }
    }
}

#[test]
fn replaying_the_corpus_reproduces_every_pinned_verdict() {
    let server = XeonServer::dell_r410_calibrated();
    for (name, fixture) in load_fixtures() {
        let outcome = fuzz_probe(&server, &fixture.incident.scenario, fixture.seed);
        let labels = outcome.incident_labels();
        match fixture.status.as_str() {
            "expected" => {
                for class in &fixture.incident.classes {
                    assert!(
                        labels.contains(class),
                        "fixture {name}: class {class} no longer reproduces \
                         (got {labels:?}); if this is an intentional fix, retire \
                         the fixture"
                    );
                }
            }
            "clean" => {
                assert!(
                    labels.is_empty(),
                    "fixture {name}: pinned-clean scenario now violates {labels:?}"
                );
            }
            other => panic!("fixture {name} has unknown status {other:?}"),
        }
    }
}

fn fixture(name: &str) -> Fixture {
    load_fixtures()
        .into_iter()
        .find(|(stem, _)| stem == name)
        .unwrap_or_else(|| panic!("fixture {name} is pinned"))
        .1
}

/// The policy-path counters count one decision per present app-quantum at
/// most: an app that retired (or never arrived) takes no further
/// decisions, however long the run goes on.
#[test]
fn decision_counters_cover_only_present_app_quanta() {
    let server = XeonServer::dell_r410_calibrated();
    for name in ["flat_market_limit_cycle", "perf_per_watt_cliff"] {
        let fixture = fixture(name);
        let scenario = &fixture.incident.scenario;
        let present: u64 = scenario
            .apps
            .iter()
            .map(|app| (0..scenario.quanta).filter(|&q| app.active_at(q)).count() as u64)
            .sum();
        let outcome = fuzz_probe(&server, scenario, fixture.seed);
        assert!(
            outcome.counters.decisions <= present,
            "{name}: {} decisions counted over {present} present app-quanta",
            outcome.counters.decisions
        );
        assert!(outcome.counters.decisions > 0, "{name}: the fleet decides");
    }
}

/// An app the admission feasibility check refuses never launches, so it
/// attains nothing by construction; the starvation oracle judges only
/// admitted apps. The launch storm stretched to 24 quanta refuses app-6.
#[test]
fn starvation_oracle_skips_apps_refused_admission() {
    let server = XeonServer::dell_r410_calibrated();
    let fixture = fixture("cap_violation_launch_storm");
    let mut scenario = fixture.incident.scenario.clone();
    scenario.quanta = 24;
    let outcome = fuzz_probe(&server, &scenario, fixture.seed);
    let starved: Vec<_> = outcome
        .violations
        .iter()
        .filter(|violation| {
            matches!(violation, coordinator::invariants::InvariantViolation::Starvation { .. })
        })
        .collect();
    assert!(starved.is_empty(), "refused apps were judged: {starved:?}");
}
