//! Order statistics and the JSON the benchmark prints.

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100); 0 for
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes its percentile.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Which intervals of a phase to measure over. Given cumulative `(steal,
/// total)` CPU jiffies read at each interval boundary (one more reading
/// than intervals), an interval is *quiet* when the share of CPU time the
/// hypervisor stole from this machine during it is at most the lower
/// quartile interval's share: at least a quarter of the intervals, and
/// every interval with no steal at all. On a shared host steal slows every
/// request in flight; a slower program is slower in every interval, so it
/// still shows.
pub fn quiet_intervals(marks: &[(u64, u64)]) -> Vec<bool> {
    let share: Vec<f64> = marks
        .windows(2)
        .map(|w| w[1].0.saturating_sub(w[0].0) as f64 / w[1].1.saturating_sub(w[0].1).max(1) as f64)
        .collect();
    let mut sorted = share.clone();
    sorted.sort_by(f64::total_cmp);
    let Some(&cut) = sorted.get(sorted.len().saturating_sub(1) / 4) else {
        return Vec::new();
    };
    share.iter().map(|&s| s <= cut).collect()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how the spread of repeated
/// runs is judged.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        // Python: m = n + 1; j = clamp(i·m // 4, 1, n − 1); delta = i·m − 4j.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    // `{:?}` prints integral floats as "3.0" and large ones as "1e21";
    // both are valid JSON numbers.
    format!("{v:?}")
}

/// A quoted, escaped JSON string.
pub fn json_str(s: &str) -> String {
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
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 4.5));
    }

    #[test]
    fn quiet_intervals_skip_stolen_time() {
        // Four intervals of 100 jiffies losing 2, 30, 5 and 1.
        let marks = [(0, 0), (2, 100), (32, 200), (37, 300), (38, 400)];
        assert_eq!(quiet_intervals(&marks), vec![false, false, false, true]);
        // Mostly steal-free: every steal-free interval counts.
        let marks = [(0, 0), (0, 100), (0, 200), (9, 300), (9, 400)];
        assert_eq!(quiet_intervals(&marks), vec![true, true, false, true]);
        assert_eq!(quiet_intervals(&marks[..2]), vec![true]);
        assert!(quiet_intervals(&[]).is_empty());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
