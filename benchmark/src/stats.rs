//! Sample summaries and the correctness ledger.

use std::collections::BTreeMap;

/// Median and quartiles of a sample, by Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// numbers here match the ones the driver computes over runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// Summarize `values` (`None` when empty).
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (first, last) = (*v.first()?, *v.last()?);
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let (q1, q3) = if n < 2 {
        (first, first)
    } else {
        let q = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        (q(1), q(3))
    };
    Some(Summary {
        n,
        median,
        q1,
        q3,
        min: first,
        max: last,
    })
}

/// Samples per metric name, in insertion-independent (sorted) order.
#[derive(Debug, Default)]
pub struct Samples {
    map: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, name: &str, value: f64) {
        self.map.entry(name.to_string()).or_default().push(value);
    }

    /// Summary of one metric.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.map.get(name).and_then(|v| summarize(v))
    }

    /// Every metric with its summary.
    pub fn summaries(&self) -> Vec<(String, Summary)> {
        self.map
            .iter()
            .filter_map(|(k, v)| summarize(v).map(|s| (k.clone(), s)))
            .collect()
    }
}

/// Operations attempted and failed, with the reason for each failure, and
/// every value that must repeat exactly: outcome digests and exact counts.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// First reading of each repeatable value in this process.
    seen: BTreeMap<String, String>,
    /// Values stored with the benchmark for this workload and seed.
    expected: BTreeMap<String, String>,
}

impl Ledger {
    /// A ledger that also checks against the stored `expected` values.
    pub fn new(expected: BTreeMap<String, String>) -> Self {
        Ledger {
            expected,
            ..Ledger::default()
        }
    }

    /// Count one operation; `problems` lists every disagreement it showed.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.failures.len() < 32 {
                    self.failures.push(format!("{what}: {p}"));
                }
            }
        }
    }

    /// Check a value that must repeat exactly: against the stored value for
    /// this seed, if any, and against its first reading in this process.
    /// Returns the disagreement, for the caller's operation.
    pub fn agree(&mut self, key: &str, value: &str) -> Option<String> {
        if let Some(want) = self.expected.get(key) {
            if want != value {
                return Some(format!("{key} is {value}, stored value is {want}"));
            }
        }
        match self.seen.get(key) {
            Some(prev) if prev != value => Some(format!("{key} changed from {prev} to {value}")),
            Some(_) => None,
            None => {
                self.seen.insert(key.to_string(), value.to_string());
                None
            }
        }
    }

    /// Every repeatable value read so far.
    pub fn seen(&self) -> &BTreeMap<String, String> {
        &self.seen
    }

    /// How many stored values this run was checked against.
    pub fn expected_len(&self) -> usize {
        self.expected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn ledger_fails_on_drift_from_stored_or_first_reading() {
        let stored = BTreeMap::from([("count.quanta".to_string(), "10".to_string())]);
        let mut l = Ledger::new(stored);
        assert!(l.agree("count.quanta", "10").is_none());
        assert!(
            l.agree("count.quanta", "11").is_some(),
            "stored value differs"
        );
        assert!(
            l.agree("digest.a", "x").is_none(),
            "first reading is the reference"
        );
        assert!(
            l.agree("digest.a", "y").is_some(),
            "a later reading drifted"
        );
        l.op("good", Vec::new());
        l.op("bad", vec!["differs".to_string()]);
        assert_eq!((l.attempted, l.failed), (2, 1));
        assert_eq!(l.failures, vec!["bad: differs".to_string()]);
    }
}
