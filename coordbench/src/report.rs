//! Statistics, the outcome digest, host facts, and the result line.

use std::collections::BTreeMap;

use serde::Serialize;

/// FNV-1a over 64-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut digest = Digest::default();
    for word in words {
        digest.push(word);
    }
    digest.value()
}

/// Running FNV-1a hash of the simulated outcome, fed word by word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Median of `values` (sorts them in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of sorted `samples`; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Element-wise minimum of equally long runs of samples (sample `i` of the
/// result is the least sample `i` of any run); empty when there are none.
pub fn floors<'a>(mut runs: impl Iterator<Item = &'a [u64]>) -> Vec<u64> {
    let mut floor = runs.next().map_or_else(Vec::new, <[u64]>::to_vec);
    for run in runs {
        for (least, &sample) in floor.iter_mut().zip(run) {
            *least = (*least).min(sample);
        }
    }
    floor
}

/// Resident-set figures of this process from `/proc/self/status`, in KiB:
/// `(current, peak)`. Zeros where the file is unavailable.
pub fn rss_kib() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kib| kib.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Logical cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// A metric's entry in the result line.
#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: &'static str,
}

/// The result line's object.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reading>,
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. A value that is not finite cannot be written as a JSON
/// number and is reported as 0 (the caller marks such a run incorrect).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let reading = Reading {
                value,
                unit: metric.unit,
            };
            (metric.name.clone(), reading)
        })
        .collect();
    let line = ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    };
    serde_json::to_string(&line).expect("serialising to a string cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_match_their_definitions() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.99), 990.0);
        assert_eq!(percentile(&sorted, 0.5), 500.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        let runs: [&[u64]; 3] = [&[5, 1, 9], &[3, 4, 9], &[6, 2, 8]];
        assert_eq!(floors(runs.into_iter()), vec![3, 1, 8]);
        assert!(floors(std::iter::empty()).is_empty());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("setup_s", "s", 0.25),
                Metric::new("app_quanta_per_s", "1/s", f64::NAN),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"app_quanta_per_s\":{\"value\":0.0,\"unit\":\"1/s\"},\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }
}
