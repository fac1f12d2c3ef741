//! The named workloads and the seeded inputs each one generates: the fleet,
//! its churn schedule and its budget schedule. The program under test sees
//! only these generated inputs, never the seed.

use coordinator::WakeConfig;
use workloads::SplashBenchmark;

/// Demand phases each app cycles through while resident.
pub const PHASES: usize = 64;

/// Arbitration weights (priority tiers), assigned round-robin.
const WEIGHTS: [f64; 3] = [1.0, 2.0, 4.0];

/// The golden-ratio conjugate: consecutive multiples spread evenly mod 1.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// The machine power budget over the run, as a fraction of the platform's
/// full-load power above idle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetSchedule {
    /// One fraction for the whole run.
    Constant(f64),
    /// `high` for `period` quanta, then `low` for `period` quanta, repeating.
    Stepping { high: f64, low: f64, period: usize },
}

impl BudgetSchedule {
    /// The budget fraction in force at `quantum`.
    pub fn fraction_at(self, quantum: usize) -> f64 {
        match self {
            BudgetSchedule::Constant(fraction) => fraction,
            BudgetSchedule::Stepping { high, low, period } => {
                if (quantum / period).is_multiple_of(2) {
                    high
                } else {
                    low
                }
            }
        }
    }
}

/// One named workload: fleet size, churn, budget schedule, and the
/// coordinator's engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Apps resident from quantum 0 (the fleet built during set-up).
    pub apps: usize,
    /// Quanta in one episode. An episode is a fresh fleet driven from
    /// quantum 0; a run repeats episodes until its time is up, so every
    /// simulated outcome is a function of the seed alone.
    pub quanta: usize,
    /// Apps retiring, and apps registering, at every quantum after the first.
    pub churn_per_quantum: usize,
    pub budget: BudgetSchedule,
    /// Incremental arbitration tolerance (`None` = full fold every quantum).
    pub tolerance: Option<f64>,
    /// Wake scheduler (`None` = every app awake every quantum).
    pub wake: Option<WakeConfig>,
    /// Coordinator worker threads.
    pub workers: usize,
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["resident-wake", "churn-steps", "paper-mix"];

impl WorkloadSpec {
    /// The named workload with `workers` coordinator threads (`churn-steps`
    /// always runs one), or `None` for an unknown name.
    pub fn named(name: &str, workers: usize) -> Option<Self> {
        let incremental_wake = (Some(0.05), Some(WakeConfig::default()));
        let spec = match name {
            // Most app-quanta sleep: the incremental and wake path plus the
            // exec pool, with heartbeat ingestion dominating the loop and a
            // working set larger than the last-level cache.
            "resident-wake" => WorkloadSpec {
                name: "resident-wake",
                apps: 2000,
                quanta: 600,
                churn_per_quantum: 0,
                budget: BudgetSchedule::Constant(0.5),
                tolerance: incremental_wake.0,
                wake: incremental_wake.1,
                workers,
            },
            // Budget steps wake the whole fleet every eighth quantum and
            // arrivals wake their own slots, so the input (not a setting)
            // drives the wake mechanism; lifecycle writes sit beside step
            // reads. Sized to be steady on a shared two-vCPU host: one
            // worker, because the second vCPU comes and goes for minutes
            // at a time and with it the pooled step's speed-up; 300 apps,
            // because at 1000 the working set competes with other tenants
            // for the last-level cache and throughput swung by 1.7x
            // between runs of one seed.
            "churn-steps" => WorkloadSpec {
                name: "churn-steps",
                apps: 300,
                quanta: 120,
                churn_per_quantum: 3,
                budget: BudgetSchedule::Stepping {
                    high: 0.60,
                    low: 0.35,
                    period: 8,
                },
                tolerance: incremental_wake.0,
                wake: incremental_wake.1,
                workers: 1,
            },
            // Paper scale on the shipping default: below the shard
            // threshold and in cache, so pool, wake and memory levers
            // should show no change; the per-app decision dominates.
            "paper-mix" => WorkloadSpec {
                name: "paper-mix",
                apps: 16,
                quanta: 4000,
                churn_per_quantum: 0,
                budget: BudgetSchedule::Constant(0.4),
                tolerance: None,
                wake: None,
                workers,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The same workload shrunk to `apps` resident apps and `quanta`
    /// quanta per episode (churn scaled down with the fleet), for tests.
    pub fn shrunk(mut self, apps: usize, quanta: usize) -> Self {
        if self.churn_per_quantum > 0 {
            self.churn_per_quantum = (apps / 100).max(1);
        }
        self.apps = apps;
        self.quanta = quanta;
        self
    }
}

/// One app of the generated fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppInput {
    pub benchmark: SplashBenchmark,
    /// Seed of the app's phase stream and of its runtime's exploration.
    pub seed: u64,
    pub weight: f64,
    /// Fraction of the app's solo maximum rate it asks for as its goal.
    pub target_fraction: f64,
    /// First quantum the app is present.
    pub arrival: usize,
    /// Quantum at which the app retires (`None` = stays to the end).
    pub departure: Option<usize>,
}

/// Every input of one episode, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Every app that is ever present, in registration order.
    pub apps: Vec<AppInput>,
    /// Per quantum: indices into `apps` registering there (quantum 0's
    /// entries are the initial fleet, registered during set-up).
    pub arrivals: Vec<Vec<usize>>,
    /// Per quantum: indices into `apps` retiring there.
    pub departures: Vec<Vec<usize>>,
}

/// SplitMix64: a small, fully specified generator, so the inputs for a seed
/// never depend on a library's choice of algorithm.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Generates the inputs of `spec` for `seed`.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> Inputs {
    let name_hash = crate::report::fnv1a(spec.name.bytes().map(u64::from));
    let mut rng = SplitMix64(seed ^ name_hash);
    // The fleet's composition is fixed by slot: benchmarks and weights
    // round-robin, goals spread over 0.8-1.2x the fleet-wide share by a
    // golden-ratio sequence. The seed draws each app's phase and
    // exploration stream. Goals scale with the fleet so the machine is
    // oversubscribed by a similar factor at every fleet size.
    let share = (2.0 / spec.apps.max(1) as f64).min(0.5);
    let new_app = |rng: &mut SplitMix64, slot: usize, arrival: usize| AppInput {
        benchmark: SplashBenchmark::ALL[slot % SplashBenchmark::ALL.len()],
        seed: rng.next_u64(),
        weight: WEIGHTS[slot % WEIGHTS.len()],
        target_fraction: share * (0.8 + 0.4 * (slot as f64 * GOLDEN).fract()),
        arrival,
        departure: None,
    };

    let mut apps: Vec<AppInput> = (0..spec.apps)
        .map(|slot| new_app(&mut rng, slot, 0))
        .collect();
    let mut arrivals = vec![Vec::new(); spec.quanta];
    let mut departures = vec![Vec::new(); spec.quanta];
    if let Some(first) = arrivals.first_mut() {
        *first = (0..spec.apps).collect();
    }
    // Present apps in ascending index order; new apps append at the end.
    let mut present: Vec<usize> = (0..spec.apps).collect();
    for quantum in 1..spec.quanta {
        for _ in 0..spec.churn_per_quantum.min(present.len()) {
            let leaving = present.remove(rng.below(present.len()));
            apps[leaving].departure = Some(quantum);
            departures[quantum].push(leaving);
        }
        for _ in 0..spec.churn_per_quantum {
            present.push(apps.len());
            arrivals[quantum].push(apps.len());
            apps.push(new_app(&mut rng, apps.len(), quantum));
        }
    }
    Inputs {
        apps,
        arrivals,
        departures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keeps_the_fleet_size_and_is_seeded() {
        let spec = WorkloadSpec::named("churn-steps", 1)
            .expect("known")
            .shrunk(200, 30);
        let inputs = generate(&spec, 7);
        assert_eq!(inputs, generate(&spec, 7));
        assert_ne!(inputs, generate(&spec, 8));
        for quantum in 0..spec.quanta {
            let present = inputs
                .apps
                .iter()
                .filter(|app| app.arrival <= quantum && app.departure.is_none_or(|d| d > quantum))
                .count();
            assert_eq!(present, 200);
        }
    }

    #[test]
    fn stepping_budget_alternates() {
        let budget = BudgetSchedule::Stepping {
            high: 0.6,
            low: 0.35,
            period: 8,
        };
        assert_eq!(budget.fraction_at(0), 0.6);
        assert_eq!(budget.fraction_at(7), 0.6);
        assert_eq!(budget.fraction_at(8), 0.35);
        assert_eq!(budget.fraction_at(16), 0.6);
    }
}
