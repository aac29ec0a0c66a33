//! Order statistics over samples, and the result record the benchmark
//! prints.

use std::fmt::Write as _;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method), so numbers here and in `spread.py`
/// agree. Returns `(q1, median, q3)`; a single sample is all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile (`p` in `0..=100`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    assert!(!data.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// One reported metric: its value plus the spread of the samples it was
/// reduced from (all equal when the value is a single measurement).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Metric {
    /// A metric reported as the median of `samples`.
    pub fn median_of(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        let (q1, value, q3) = quartiles(samples);
        Metric {
            name: name.to_string(),
            unit,
            value,
            q1,
            q3,
            samples: samples.len(),
        }
    }

    /// A metric that is one number (a count, a ratio of totals, or a
    /// percentile over `samples` observations).
    pub fn single(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            q1: value,
            q3: value,
            samples,
        }
    }
}

/// What one benchmark run observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable description of every failure (printed to stderr).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one attempted operation; `Err` counts it as failed.
    pub fn check(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 20 {
                    self.failures.push(why);
                }
                false
            }
        }
    }

    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps; non-finite values (a broken measurement) become 0 so
/// the line still parses, and the run is already failed by then.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.metrics.push(Metric::single("setup_s", "s", 0.8127, 1));
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        o.check(Err("mismatch".into()));
        assert!(o.result_json().starts_with("{\"correct\": false"));
    }
}
