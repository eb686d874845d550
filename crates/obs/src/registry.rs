//! Named metrics registry and its exposition formats.
//!
//! A [`Registry`] hands out shared [`Counter`]s and [`Histogram`]s keyed
//! by name. Labels are encoded Prometheus-style inside the name itself
//! (`sas_requests_total{tag="query"}`), which keeps the registry a flat
//! sorted map and makes the Prometheus exposition a plain text rendering
//! of the snapshot. Hot paths resolve their `Arc` handles once at startup
//! and record without touching the registry lock again.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{bucket_upper, Histogram, HistogramSnapshot};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the cell to `v` if it is below it (for watermark/duration
    /// cells that record a one-shot measurement like recovery time).
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A process-wide catalog of named counters and histograms.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "Registry({n} metrics)")
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Panics if `name` is already registered as a histogram — metric
    /// names are static, so that is a programming error, not input.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            Metric::Histogram(_) => panic!("metric {name:?} already registered as a histogram"),
        }
    }

    /// Returns the histogram registered under `name`, creating it on first
    /// use. Panics if `name` is already registered as a counter.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            Metric::Counter(_) => panic!("metric {name:?} already registered as a counter"),
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsReport {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut report = MetricsReport::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => report.counters.push((name.clone(), c.get())),
                Metric::Histogram(h) => report.histograms.push((name.clone(), h.snapshot())),
            }
        }
        report
    }
}

/// A snapshot of a [`Registry`]: what `REQ_METRICS` ships over the wire.
///
/// Both lists are sorted by metric name; the wire codec round-trips the
/// struct field-for-field, so equality is byte-level fidelity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReport {
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Splits `sas_foo_total{tag="query"}` into `("sas_foo_total", "tag=\"query\"")`.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(at) => (&name[..at], name[at..].trim_matches(['{', '}'])),
        None => (name, ""),
    }
}

impl MetricsReport {
    /// Prometheus text exposition format (version 0.0.4).
    ///
    /// Histogram values are raw `u64`s in whatever unit they were recorded
    /// in (the daemon records nanoseconds and names the series `*_ns`);
    /// bucket lines are cumulative and sparse — only buckets that hold
    /// observations appear, plus the mandatory `+Inf` line.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base = "";
        for (name, value) in &self.counters {
            let (base, _) = split_labels(name);
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} counter");
                last_base = base;
            }
            let _ = writeln!(out, "{name} {value}");
        }
        let mut last_base = "";
        for (name, snap) in &self.histograms {
            let (base, labels) = split_labels(name);
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} histogram");
                last_base = base;
            }
            let sep = if labels.is_empty() { "" } else { "," };
            let mut cumulative = 0u64;
            for &(i, n) in &snap.buckets {
                cumulative += n;
                let le = bucket_upper(i as usize);
                let _ = writeln!(
                    out,
                    "{base}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "{base}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
                snap.count
            );
            let label_block = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            };
            let _ = writeln!(out, "{base}_sum{label_block} {}", snap.sum);
            let _ = writeln!(out, "{base}_count{label_block} {}", snap.count);
        }
        out
    }

    /// Tab-separated `name\tvalue` lines; histograms expand into
    /// `count/sum/min/p50/p95/p99/max` rows.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name}\t{value}");
        }
        for (name, snap) in &self.histograms {
            let _ = writeln!(out, "{name}.count\t{}", snap.count);
            let _ = writeln!(out, "{name}.sum\t{}", snap.sum);
            let _ = writeln!(out, "{name}.min\t{}", snap.min);
            let _ = writeln!(out, "{name}.p50\t{}", snap.percentile(50.0));
            let _ = writeln!(out, "{name}.p95\t{}", snap.percentile(95.0));
            let _ = writeln!(out, "{name}.p99\t{}", snap.percentile(99.0));
            let _ = writeln!(out, "{name}.max\t{}", snap.max);
        }
        out
    }

    /// A single JSON object: counters as numbers, histograms as objects
    /// with summary percentiles (bucket detail stays on the wire format).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\n    {}: {value}", json_string(name));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, snap)) in self.histograms.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                json_string(name),
                snap.count,
                snap.sum,
                snap.min,
                snap.percentile(50.0),
                snap.percentile(95.0),
                snap.percentile(99.0),
                snap.max,
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Quotes and escapes `s` as a JSON string (metric names carry `"` from
/// their label values).
fn json_string(s: &str) -> String {
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
    fn counter_and_histogram_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("sas_events_total");
        let b = r.counter("sas_events_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let h1 = r.histogram("sas_lat_ns");
        let h2 = r.histogram("sas_lat_ns");
        h1.record(5);
        h2.record(7);
        assert_eq!(h1.count(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("sas_x");
        r.histogram("sas_x");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("sas_b_total");
        r.counter("sas_a_total");
        r.histogram("sas_z_ns");
        r.histogram("sas_m_ns");
        let report = r.snapshot();
        let counter_names: Vec<_> = report.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(counter_names, ["sas_a_total", "sas_b_total"]);
        let hist_names: Vec<_> = report.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(hist_names, ["sas_m_ns", "sas_z_ns"]);
    }

    #[test]
    fn prometheus_output_is_well_formed() {
        let r = Registry::new();
        r.counter("sas_requests_total{tag=\"query\"}").add(3);
        r.counter("sas_requests_total{tag=\"ping\"}").inc();
        let h = r.histogram("sas_request_ns{tag=\"query\"}");
        h.record(100);
        h.record(200);
        h.record(300);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE sas_requests_total counter"));
        assert!(text.contains("sas_requests_total{tag=\"query\"} 3"));
        assert!(text.contains("# TYPE sas_request_ns histogram"));
        assert!(text.contains("sas_request_ns_bucket{tag=\"query\",le=\"+Inf\"} 3"));
        assert!(text.contains("sas_request_ns_sum{tag=\"query\"} 600"));
        assert!(text.contains("sas_request_ns_count{tag=\"query\"} 3"));
        // Cumulative bucket counts end at the total.
        let last_le = text
            .lines()
            .rfind(|l| l.starts_with("sas_request_ns_bucket"))
            .unwrap();
        assert!(last_le.ends_with(" 3"));
        // Every line is `name value` or a comment: parseable exposition.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "unparseable line: {line}"
            );
        }
    }

    #[test]
    fn tsv_and_json_render_both_metric_kinds() {
        let r = Registry::new();
        r.counter("sas_hits_total").add(41);
        r.histogram("sas_lat_ns").record(1000);
        let report = r.snapshot();
        let tsv = report.to_tsv();
        assert!(tsv.contains("sas_hits_total\t41"));
        assert!(tsv.contains("sas_lat_ns.count\t1"));
        let json = report.to_json();
        assert!(json.contains("\"sas_hits_total\": 41"));
        assert!(json.contains("\"count\": 1"));
        // Label quotes must be escaped so the JSON stays parseable.
        let r2 = Registry::new();
        r2.counter("sas_x_total{tag=\"q\"}").inc();
        let json2 = r2.snapshot().to_json();
        assert!(json2.contains("\"sas_x_total{tag=\\\"q\\\"}\": 1"));
    }

    #[test]
    fn empty_registry_renders_empty_documents() {
        let report = Registry::new().snapshot();
        assert_eq!(report.to_prometheus(), "");
        assert_eq!(report.to_tsv(), "");
        assert!(report.to_json().contains("\"counters\": {"));
    }
}
