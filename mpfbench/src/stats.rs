//! Sample summaries: percentiles over latency samples and the metric map
//! a run prints.

use std::collections::BTreeMap;

/// Latency samples of one operation class, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Percentile `p` in `[0, 100]` by linear interpolation between the
    /// two closest ranks (the "linear" method of numpy). `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.0, p)
    }
}

/// Percentile `p` of `xs` (see [`Samples::percentile`]).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `xs` (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Named metrics with their units, in print order, and the values a
/// median metric was taken over.
#[derive(Debug, Default, Clone)]
pub struct Metrics(
    pub BTreeMap<String, (f64, &'static str)>,
    pub BTreeMap<String, Vec<f64>>,
);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Set `name` to the median of `values` and keep the values, so that
    /// the parts of a run can be pooled (see `crate::parts`).
    pub fn set_median(&mut self, name: &str, values: Vec<f64>, unit: &'static str) {
        self.set(name, median(&values), unit);
        self.1.insert(name.to_string(), values);
    }

    /// The values behind a median metric.
    pub fn values(&self, name: &str) -> &[f64] {
        self.1.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// The JSON object `{"name": {"value": v, "unit": "u"}, ...}`.
    /// Non-finite values print as `null` (JSON has no NaN).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                let value = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                format!("\"{k}\": {{\"value\": {value}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
