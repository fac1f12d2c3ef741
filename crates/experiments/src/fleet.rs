//! Fleet-scale incremental arbitration: the `fig5 --fleet N` arm.
//!
//! The coordinated-SEEC figure runs full [`coordinator::Coordinator`] stacks
//! — heartbeat windows, SEEC runtimes, per-application beliefs over a shared
//! 560-configuration action table — which is the right fidelity at hundreds
//! of apps and the wrong tool at a million. This harness measures the piece
//! that actually has to scale: the arbitration fold itself. It drives a
//! [`coordinator::IncrementalArbiter`] directly over synthetic
//! [`AppRequest`] arrays with realistic churn (a small fraction of requests
//! move per quantum, plus arrivals and departures), and reports:
//!
//! * measured **µs/quantum** for the full re-arbitration fold, for the
//!   incremental engine at [`FLEET_TOLERANCE`], and for the **wake-scheduled
//!   engine** (same tolerance plus [`WakeConfig::default`]) whose rounds
//!   cost O(awake) instead of O(fleet);
//! * the skipped / re-arbitrated counters and whether they **reconcile**
//!   (`skipped + rearbitrated == active app-quanta` — the same identity the
//!   coordinator's obs counters satisfy), and the scheduled arm's four-way
//!   twin (`slept + skipped + rearbitrated == active app-quanta`);
//! * a differential check: an incremental engine pinned at tolerance
//!   **0** (wake explicitly [`WakeConfig::OFF`]) runs the same trace and its
//!   award vector is compared *bit-for-bit* against the raw policy fold
//!   every quantum ([`FleetScalingReport::tolerance_zero_identical`]).
//!
//! The scheduled arm treats each churned request as a **wake event** for its
//! slot (the raw-engine twin of the coordinator's wake calendar and
//! force-wake rules): the wake calls sit inside the timed region, so the
//! measured cost is the whole event-driven round, not just the fold.
//!
//! Every run is deterministic: the request trace comes from a splitmix64
//! stream seeded only by the fleet size, so two invocations at the same size
//! produce identical counters and an identical differential verdict (only the
//! wall-clock timings vary). Reports merge into `BENCH_fig5.json` under the
//! `fleet_scaling` key via [`merge_fleet_scaling`], replacing any previous
//! row at the same fleet size and leaving the rest of the file untouched —
//! including rows written by older builds that lack the scheduled-arm
//! fields, which survive a merge verbatim.

use std::time::Instant;

use coordinator::{
    AppRequest, ArbitrationPolicy, IncrementalArbiter, PerformanceMarket, WakeConfig,
};
use serde::ser::Value;
use serde::{Deserialize, Serialize};

/// Quanta simulated per fleet measurement. Enough rounds for the steady
/// state after the first (always-full) round to dominate the averages,
/// small enough that a million-app run completes in seconds.
pub const FLEET_QUANTA: usize = 24;

/// The tolerance the measured incremental engine runs at: requests whose
/// largest relative field movement stays under 5 % hold their award.
pub const FLEET_TOLERANCE: f64 = 0.05;

/// Fraction of the fleet whose request moves past the tolerance each
/// quantum (at least one app). 1 % per quantum is aggressive for a steady
/// datacenter fleet; it keeps the dirty set visibly non-empty at every size.
pub const FLEET_CHURN_FRACTION: f64 = 0.01;

/// One measured fleet size: timings, counters, and differential verdicts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetScalingReport {
    /// Request slots in the synthetic fleet (`fig5 --fleet N`).
    pub fleet: usize,
    /// Quanta simulated ([`FLEET_QUANTA`]).
    pub quanta: usize,
    /// Tolerance of the measured incremental engine ([`FLEET_TOLERANCE`]).
    pub tolerance: f64,
    /// Per-quantum request churn fraction ([`FLEET_CHURN_FRACTION`]).
    pub churn_fraction: f64,
    /// The arbitration policy under the fold.
    pub policy: String,
    /// Machine budget the fold splits (watts; scales with the fleet).
    pub budget_watts: f64,
    /// Measured mean µs/quantum of the full re-arbitration fold.
    pub us_per_quantum_full: f64,
    /// Measured mean µs/quantum of the incremental engine at
    /// [`Self::tolerance`].
    pub us_per_quantum_incremental: f64,
    /// `us_per_quantum_full / us_per_quantum_incremental`.
    pub incremental_speedup: f64,
    /// Active apps that held their award without entering the fold, summed
    /// over the run (the engine-level twin of the coordinator's
    /// `apps_skipped` counter).
    pub apps_skipped: u64,
    /// Active apps re-arbitrated, summed over the run (twin of
    /// `apps_rearbitrated`).
    pub apps_rearbitrated: u64,
    /// Active app-quanta in the trace: `Σ_quantum (active apps)`.
    pub active_app_quanta: u64,
    /// Whether `apps_skipped + apps_rearbitrated == active_app_quanta` —
    /// the counter-reconciliation identity.
    pub counters_reconcile: bool,
    /// Whether a tolerance-0 incremental engine produced awards
    /// **bit-identical** to the full fold on every quantum of the trace.
    pub tolerance_zero_identical: bool,
    /// Measured mean µs/quantum of the wake-scheduled engine
    /// ([`Self::tolerance`] plus the default [`WakeConfig`]).
    pub us_per_quantum_scheduled: f64,
    /// `us_per_quantum_full / us_per_quantum_scheduled`.
    pub scheduled_speedup: f64,
    /// Sleep horizon of the scheduled arm ([`WakeConfig::horizon`]).
    pub sleep_horizon: usize,
    /// Steady-streak threshold of the scheduled arm
    /// ([`WakeConfig::steady_quanta`]).
    pub steady_quanta: u32,
    /// Active apps that slept through whole quanta on the scheduled arm,
    /// summed over the run (twin of the coordinator's `apps_slept`).
    pub apps_slept: u64,
    /// Awake active apps that held their award on the scheduled arm.
    pub apps_skipped_scheduled: u64,
    /// Active apps re-arbitrated on the scheduled arm.
    pub apps_rearbitrated_scheduled: u64,
    /// Whether `apps_slept + apps_skipped_scheduled +
    /// apps_rearbitrated_scheduled == active_app_quanta` — the scheduled
    /// arm's four-way ledger identity.
    pub scheduled_counters_reconcile: bool,
    /// Cores available to the measuring process: the µs/quantum figures
    /// are single-threaded, but comparable only between like hosts.
    pub host_cores: usize,
}

/// Deterministic splitmix64 stream: the only randomness in the harness, so
/// a fleet size fully determines its request trace.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_index(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }
}

fn synthetic_request(rng: &mut SplitMix64) -> AppRequest {
    AppRequest {
        active: rng.next_f64() < 0.9,
        weight: 0.5 + 3.5 * rng.next_f64(),
        urgency: 0.5 + 1.5 * rng.next_f64(),
        max_power_watts: 5.0 + 45.0 * rng.next_f64(),
    }
}

/// Mutates the trace for one quantum: `churn` requests move far past the
/// tolerance, and a couple of slots flip presence (arrival / departure).
/// The touched indices land in `changed` (cleared first; duplicates
/// possible) — the wake events the scheduled arm delivers to its engine.
fn churn_quantum(
    rng: &mut SplitMix64,
    requests: &mut [AppRequest],
    churn: usize,
    changed: &mut Vec<u32>,
) {
    changed.clear();
    for _ in 0..churn {
        let index = rng.next_index(requests.len());
        let request = &mut requests[index];
        request.weight = 0.5 + 3.5 * rng.next_f64();
        request.urgency = 0.5 + 1.5 * rng.next_f64();
        changed.push(index as u32);
    }
    for _ in 0..2 {
        let index = rng.next_index(requests.len());
        let request = &mut requests[index];
        request.active = !request.active;
        changed.push(index as u32);
    }
}

impl FleetScalingReport {
    /// Runs the fleet harness at `fleet` request slots (see the module
    /// docs) and returns the measured report.
    ///
    /// # Panics
    ///
    /// Panics when `fleet` is zero.
    pub fn measure(fleet: usize) -> FleetScalingReport {
        assert!(fleet > 0, "fleet size must be positive");
        let mut rng = SplitMix64(0xf1ee_7000 ^ fleet as u64);
        let mut requests: Vec<AppRequest> = (0..fleet)
            .map(|_| synthetic_request(&mut rng))
            .collect();
        let budget_watts = 10.0 * fleet as f64;
        let churn = ((fleet as f64 * FLEET_CHURN_FRACTION) as usize).max(1);

        // Four engines in lockstep over the identical request trace. Each
        // gets its own policy instance so any internal policy state evolves
        // under exactly the calls that path would make on its own.
        let wake = WakeConfig::default();
        let mut full_policy = PerformanceMarket::default();
        let mut incremental_policy = PerformanceMarket::default();
        let mut scheduled_policy = PerformanceMarket::default();
        let mut zero_policy = PerformanceMarket::default();
        let mut incremental = IncrementalArbiter::new(FLEET_TOLERANCE);
        let mut scheduled = IncrementalArbiter::new(FLEET_TOLERANCE).with_wake(wake);
        // The differential arm takes the *configured* path with the
        // degenerate knob value, so the comparison pins the knob itself.
        let mut zero = IncrementalArbiter::new(0.0).with_wake(WakeConfig::OFF);
        let mut full_awards = Vec::new();
        let mut incremental_awards = Vec::new();
        let mut scheduled_awards = Vec::new();
        let mut zero_awards = Vec::new();
        let mut changed: Vec<u32> = Vec::new();

        let mut full_nanos = 0u128;
        let mut incremental_nanos = 0u128;
        let mut scheduled_nanos = 0u128;
        let mut apps_skipped = 0u64;
        let mut apps_rearbitrated = 0u64;
        let mut apps_slept = 0u64;
        let mut apps_skipped_scheduled = 0u64;
        let mut apps_rearbitrated_scheduled = 0u64;
        let mut active_app_quanta = 0u64;
        let mut tolerance_zero_identical = true;

        let bits_equal = |left: &[f64], right: &[f64]| {
            left.len() == right.len()
                && left
                    .iter()
                    .zip(right)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };

        for quantum in 0..FLEET_QUANTA {
            changed.clear();
            if quantum > 0 {
                churn_quantum(&mut rng, &mut requests, churn, &mut changed);
            }
            active_app_quanta += requests.iter().filter(|request| request.active).count() as u64;

            let start = Instant::now();
            full_policy.arbitrate(budget_watts, &requests, &mut full_awards);
            full_nanos += start.elapsed().as_nanos();

            let start = Instant::now();
            let outcome = incremental.arbitrate(
                &mut incremental_policy,
                budget_watts,
                &requests,
                &mut incremental_awards,
            );
            incremental_nanos += start.elapsed().as_nanos();
            apps_skipped += outcome.skipped as u64;
            apps_rearbitrated += outcome.rearbitrated as u64;

            // The wake-scheduled arm: every churned slot is a wake event —
            // the raw-engine stand-in for the coordinator's calendar and
            // force-wake plumbing (a sleeping request must not move
            // silently) — and the events are part of the measured cost.
            let start = Instant::now();
            for &index in &changed {
                scheduled.wake(index as usize);
            }
            let outcome = scheduled.arbitrate(
                &mut scheduled_policy,
                budget_watts,
                &requests,
                &mut scheduled_awards,
            );
            scheduled_nanos += start.elapsed().as_nanos();
            apps_slept += outcome.slept as u64;
            apps_skipped_scheduled += outcome.skipped as u64;
            apps_rearbitrated_scheduled += outcome.rearbitrated as u64;

            // Differential check: tolerance 0 must reproduce the full fold
            // bit-for-bit, every quantum, at every fleet size.
            zero.arbitrate(&mut zero_policy, budget_watts, &requests, &mut zero_awards);
            tolerance_zero_identical &= bits_equal(&full_awards, &zero_awards);
        }

        let us_per_quantum_full = full_nanos as f64 / FLEET_QUANTA as f64 / 1.0e3;
        let us_per_quantum_incremental =
            incremental_nanos as f64 / FLEET_QUANTA as f64 / 1.0e3;
        let us_per_quantum_scheduled = scheduled_nanos as f64 / FLEET_QUANTA as f64 / 1.0e3;
        FleetScalingReport {
            fleet,
            quanta: FLEET_QUANTA,
            tolerance: FLEET_TOLERANCE,
            churn_fraction: FLEET_CHURN_FRACTION,
            policy: "performance-market".to_string(),
            budget_watts,
            us_per_quantum_full,
            us_per_quantum_incremental,
            incremental_speedup: us_per_quantum_full
                / us_per_quantum_incremental.max(f64::MIN_POSITIVE),
            apps_skipped,
            apps_rearbitrated,
            active_app_quanta,
            counters_reconcile: apps_skipped + apps_rearbitrated == active_app_quanta,
            tolerance_zero_identical,
            us_per_quantum_scheduled,
            scheduled_speedup: us_per_quantum_full
                / us_per_quantum_scheduled.max(f64::MIN_POSITIVE),
            sleep_horizon: wake.horizon,
            steady_quanta: wake.steady_quanta,
            apps_slept,
            apps_skipped_scheduled,
            apps_rearbitrated_scheduled,
            scheduled_counters_reconcile: apps_slept
                + apps_skipped_scheduled
                + apps_rearbitrated_scheduled
                == active_app_quanta,
            host_cores: std::thread::available_parallelism().map_or(1, |cores| cores.get()),
        }
    }

    /// One human-readable summary line for the console.
    pub fn to_line(&self) -> String {
        format!(
            "fleet {:>9}: full {:>12.1} µs/quantum, incremental {:>11.1} µs/quantum \
             ({:.1}x), scheduled {:>11.1} µs/quantum ({:.1}x), \
             slept {} / skipped {} / re-arbitrated {} of {} app-quanta \
             [reconcile: {}/{}, tolerance-0: {}]",
            self.fleet,
            self.us_per_quantum_full,
            self.us_per_quantum_incremental,
            self.incremental_speedup,
            self.us_per_quantum_scheduled,
            self.scheduled_speedup,
            self.apps_slept,
            self.apps_skipped_scheduled,
            self.apps_rearbitrated_scheduled,
            self.active_app_quanta,
            if self.counters_reconcile { "ok" } else { "FAIL" },
            if self.scheduled_counters_reconcile { "ok" } else { "FAIL" },
            if self.tolerance_zero_identical { "ok" } else { "FAIL" },
        )
    }
}

/// Merges `reports` into the JSON file at `path` under the `fleet_scaling`
/// key: rows replace any existing row at the same fleet size, other rows
/// and every other top-level key survive untouched, and rows come out
/// sorted by fleet size. The file is created (as a bare
/// `{"fleet_scaling": [...]}` object) when missing, so `fig5 --fleet` works
/// before the perf harness has ever run.
///
/// Existing rows are handled as **raw JSON values**, never re-parsed into
/// [`FleetScalingReport`]: rows written by older builds lack the
/// scheduled-arm fields, and a merge that does not re-measure their size
/// must carry them through verbatim rather than reject the file.
///
/// # Errors
///
/// Returns the underlying message when the existing file cannot be parsed
/// or the merged file cannot be written.
pub fn merge_fleet_scaling(path: &str, reports: &[FleetScalingReport]) -> Result<(), String> {
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<Value>(&text)
            .map_err(|err| format!("could not parse {path}: {err:?}"))?
        {
            Value::Object(entries) => entries,
            other => return Err(format!("{path} holds {other:?}, not a JSON object")),
        },
        Err(_) => Vec::new(),
    };
    let mut rows: Vec<Value> = match root.iter().find(|(key, _)| key == "fleet_scaling") {
        Some((_, Value::Array(rows))) => rows.clone(),
        Some((_, other)) => {
            return Err(format!(
                "fleet_scaling in {path} holds {other:?}, not a JSON array"
            ))
        }
        None => Vec::new(),
    };
    // The fleet size of a raw row, for replacement and ordering; rows
    // without one sort last and are never replaced.
    let fleet_of = |row: &Value| -> Option<u64> {
        let Value::Object(entries) = row else {
            return None;
        };
        entries
            .iter()
            .find(|(key, _)| key == "fleet")
            .and_then(|(_, value)| match value {
                Value::UInt(fleet) => Some(*fleet),
                Value::Int(fleet) => u64::try_from(*fleet).ok(),
                _ => None,
            })
    };
    rows.retain(|row| {
        fleet_of(row).is_none_or(|fleet| {
            !reports.iter().any(|report| report.fleet as u64 == fleet)
        })
    });
    rows.extend(reports.iter().map(|report| report.to_value()));
    rows.sort_by_key(|row| fleet_of(row).unwrap_or(u64::MAX));
    let rows = Value::Array(rows);
    match root.iter_mut().find(|(key, _)| key == "fleet_scaling") {
        Some((_, value)) => *value = rows,
        None => root.push(("fleet_scaling".to_string(), rows)),
    }
    let json = serde_json::to_string_pretty(&Value::Object(root))
        .map_err(|err| format!("could not serialise {path}: {err:?}"))?;
    std::fs::write(path, json).map_err(|err| format!("could not write {path}: {err}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_reconciles_and_matches_the_full_fold_bitwise() {
        let report = FleetScalingReport::measure(500);
        assert_eq!(report.fleet, 500);
        assert!(report.counters_reconcile, "{report:?}");
        assert!(report.tolerance_zero_identical, "{report:?}");
        assert!(report.apps_skipped > 0, "steady apps skip: {report:?}");
        assert!(report.apps_rearbitrated > 0, "churn re-enters: {report:?}");
        assert!(report.scheduled_counters_reconcile, "{report:?}");
        assert!(report.apps_slept > 0, "steady apps sleep: {report:?}");
        assert!(
            report.apps_slept + report.apps_skipped_scheduled >= report.apps_skipped,
            "sleep must cover at least the quanta skipping covered: {report:?}"
        );
    }

    #[test]
    fn the_trace_is_deterministic_up_to_wall_clock() {
        let first = FleetScalingReport::measure(300);
        let second = FleetScalingReport::measure(300);
        assert_eq!(first.apps_skipped, second.apps_skipped);
        assert_eq!(first.apps_rearbitrated, second.apps_rearbitrated);
        assert_eq!(first.active_app_quanta, second.active_app_quanta);
        assert_eq!(first.apps_slept, second.apps_slept);
        assert_eq!(first.apps_skipped_scheduled, second.apps_skipped_scheduled);
        assert_eq!(
            first.apps_rearbitrated_scheduled,
            second.apps_rearbitrated_scheduled
        );
        assert_eq!(
            first.tolerance_zero_identical,
            second.tolerance_zero_identical
        );
    }

    #[test]
    fn merge_replaces_same_size_rows_and_preserves_other_keys() {
        let dir = std::env::temp_dir().join("fleet_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, "{\n  \"mode\": \"full\",\n  \"existing\": 7\n}").unwrap();

        let mut report = FleetScalingReport::measure(100);
        merge_fleet_scaling(path, std::slice::from_ref(&report)).unwrap();
        report.us_per_quantum_full = 123.0;
        merge_fleet_scaling(path, std::slice::from_ref(&report)).unwrap();

        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"mode\""), "other keys survive: {text}");
        assert!(text.contains("\"existing\""), "other keys survive: {text}");
        assert_eq!(
            text.matches("\"fleet\":").count(),
            1,
            "same-size row replaced, not appended: {text}"
        );
        assert!(text.contains("123"), "replacement row wins: {text}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn merge_carries_old_schema_rows_through_verbatim() {
        // A row written before the scheduled-arm fields existed must
        // survive a merge at a *different* fleet size untouched — the merge
        // treats foreign rows as raw JSON, never re-parses them.
        let dir = std::env::temp_dir().join("fleet_merge_old_schema_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        std::fs::write(
            path,
            "{\n  \"fleet_scaling\": [\n    {\"fleet\": 42, \"us_per_quantum_full\": 9.5}\n  ]\n}",
        )
        .unwrap();

        let report = FleetScalingReport::measure(100);
        merge_fleet_scaling(path, std::slice::from_ref(&report)).unwrap();

        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.contains("\"fleet\": 42"),
            "old-schema row survives: {text}"
        );
        assert_eq!(
            text.matches("\"fleet\":").count(),
            2,
            "old row kept alongside the new one: {text}"
        );
        let old_pos = text.find("\"fleet\": 42").unwrap();
        let new_pos = text.find("\"fleet\": 100").unwrap();
        assert!(old_pos < new_pos, "rows sorted by fleet size: {text}");
        std::fs::remove_file(path).unwrap();
    }
}
