//! Typed point-in-time snapshot of every metric, with JSON and
//! Prometheus-text rendering.

use crate::events::Event;
use crate::metrics::{Histogram, HistogramSnapshot};

/// The value carried by one [`Sample`]. Histograms are boxed so a
/// counter-only `Sample` stays small; snapshots are built on the scrape
/// path, never on a hot path, so the allocation is free to make.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(Box<HistogramSnapshot>),
}

/// One named metric reading. Histograms recorded in nanoseconds use
/// `unit == "seconds"`; exporters scale their bucket bounds by 1e-9 so the
/// rendered output is in the named unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub name: &'static str,
    pub labels: Vec<(&'static str, String)>,
    pub unit: &'static str,
    pub help: &'static str,
    pub value: MetricValue,
}

impl Sample {
    fn scale(&self) -> f64 {
        if self.unit == "seconds" {
            1e-9
        } else {
            1.0
        }
    }

    /// The value of label `key` on this sample, if present.
    pub fn label_value(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A typed, consistent point-in-time read of every metric plus the recent
/// structured events. Built by the instrumented layers (one pass over live
/// atomics), rendered here.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    samples: Vec<Sample>,
    events: Vec<Event>,
}

impl TelemetrySnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push_counter(
        &mut self,
        name: &'static str,
        labels: Vec<(&'static str, String)>,
        unit: &'static str,
        help: &'static str,
        value: u64,
    ) {
        self.samples.push(Sample {
            name,
            labels,
            unit,
            help,
            value: MetricValue::Counter(value),
        });
    }

    pub fn push_gauge(
        &mut self,
        name: &'static str,
        labels: Vec<(&'static str, String)>,
        unit: &'static str,
        help: &'static str,
        value: i64,
    ) {
        self.samples.push(Sample {
            name,
            labels,
            unit,
            help,
            value: MetricValue::Gauge(value),
        });
    }

    pub fn push_histogram(
        &mut self,
        name: &'static str,
        labels: Vec<(&'static str, String)>,
        unit: &'static str,
        help: &'static str,
        value: HistogramSnapshot,
    ) {
        self.samples.push(Sample {
            name,
            labels,
            unit,
            help,
            value: MetricValue::Histogram(Box::new(value)),
        });
    }

    pub fn set_events(&mut self, events: Vec<Event>) {
        self.events = events;
    }

    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Sum of a counter across all label sets, if any sample carries it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let mut found = false;
        let mut total = 0u64;
        for s in &self.samples {
            if s.name == name {
                if let MetricValue::Counter(v) = s.value {
                    found = true;
                    total += v;
                }
            }
        }
        found.then_some(total)
    }

    /// A counter restricted to one `label == value` pair.
    pub fn counter_with(&self, name: &str, label: &str, value: &str) -> Option<u64> {
        self.samples.iter().find_map(|s| {
            if s.name == name && s.label_value(label) == Some(value) {
                if let MetricValue::Counter(v) = s.value {
                    return Some(v);
                }
            }
            None
        })
    }

    /// First gauge sample with this name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.samples.iter().find_map(|s| {
            if s.name == name {
                if let MetricValue::Gauge(v) = s.value {
                    return Some(v);
                }
            }
            None
        })
    }

    /// First histogram sample with this name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.samples.iter().find_map(|s| {
            if s.name == name {
                if let MetricValue::Histogram(h) = &s.value {
                    return Some(h.as_ref());
                }
            }
            None
        })
    }

    /// A histogram restricted to one `label == value` pair.
    pub fn histogram_with(
        &self,
        name: &str,
        label: &str,
        value: &str,
    ) -> Option<&HistogramSnapshot> {
        self.samples.iter().find_map(|s| {
            if s.name == name && s.label_value(label) == Some(value) {
                if let MetricValue::Histogram(h) = &s.value {
                    return Some(h.as_ref());
                }
            }
            None
        })
    }

    /// Render the snapshot as a single JSON object:
    /// `{"metrics": [...], "events": [...]}`. Histogram bucket bounds and
    /// quantiles are scaled into the sample's declared unit.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"metrics\": [");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            render_sample_json(&mut out, s);
        }
        out.push_str("\n  ],\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"seq\": {}, \"elapsed_us\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}",
                e.seq,
                e.elapsed_us,
                json_escape(e.kind),
                json_escape(&e.detail)
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Render the snapshot in the Prometheus text exposition format.
    /// `# HELP` / `# TYPE` headers are emitted once per metric name;
    /// histograms render cumulative `_bucket{le=...}` series plus `_sum`
    /// (midpoint-approximated) and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut seen: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !seen.contains(&s.name) {
                seen.push(s.name);
                let kind = match s.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", s.name, s.help));
                out.push_str(&format!("# TYPE {} {}\n", s.name, kind));
            }
            render_sample_prometheus(&mut out, s);
        }
        out
    }
}

fn render_sample_json(out: &mut String, s: &Sample) {
    out.push_str(&format!("{{\"name\": \"{}\", ", s.name));
    out.push_str("\"labels\": {");
    for (i, (k, v)) in s.labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": \"{}\"", k, json_escape(v)));
    }
    out.push_str("}, ");
    if !s.unit.is_empty() {
        out.push_str(&format!("\"unit\": \"{}\", ", s.unit));
    }
    match &s.value {
        MetricValue::Counter(v) => {
            out.push_str(&format!("\"type\": \"counter\", \"value\": {v}}}"));
        }
        MetricValue::Gauge(v) => {
            out.push_str(&format!("\"type\": \"gauge\", \"value\": {v}}}"));
        }
        MetricValue::Histogram(h) => {
            let scale = s.scale();
            out.push_str(&format!(
                "\"type\": \"histogram\", \"count\": {}, \"p50\": {}, \"p99\": {}, \"mean\": {}, \"buckets\": [",
                h.count(),
                fmt_f64(h.quantile(0.5) as f64 * scale),
                fmt_f64(h.quantile(0.99) as f64 * scale),
                fmt_f64(h.mean_approx() * scale),
            ));
            let n = h.nonzero_len();
            for (i, &c) in h.counts()[..n].iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"le\": {}, \"count\": {}}}",
                    fmt_le(Histogram::bucket_upper(i), scale),
                    c
                ));
            }
            out.push_str("]}");
        }
    }
}

fn render_sample_prometheus(out: &mut String, s: &Sample) {
    match &s.value {
        MetricValue::Counter(v) => {
            out.push_str(&format!(
                "{}{} {}\n",
                s.name,
                prom_labels(&s.labels, None),
                v
            ));
        }
        MetricValue::Gauge(v) => {
            out.push_str(&format!(
                "{}{} {}\n",
                s.name,
                prom_labels(&s.labels, None),
                v
            ));
        }
        MetricValue::Histogram(h) => {
            let scale = s.scale();
            let n = h.nonzero_len();
            let mut cum = 0u64;
            for (i, &c) in h.counts()[..n].iter().enumerate() {
                cum += c;
                let le = fmt_le(Histogram::bucket_upper(i), scale);
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    s.name,
                    prom_labels(&s.labels, Some(&le)),
                    cum
                ));
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                s.name,
                prom_labels(&s.labels, Some("+Inf")),
                h.count()
            ));
            out.push_str(&format!(
                "{}_sum{} {}\n",
                s.name,
                prom_labels(&s.labels, None),
                fmt_f64(h.sum_approx() * scale)
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                s.name,
                prom_labels(&s.labels, None),
                h.count()
            ));
        }
    }
}

/// `{k="v",...}` including an optional trailing `le` label; empty string when
/// there are no labels at all.
fn prom_labels(labels: &[(&'static str, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}=\"{}\"", k, prom_escape(v)));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

/// Bucket upper bound in the sample's unit. The unbounded last bucket
/// renders as `+Inf` only via the explicit prometheus series; here it gets
/// its saturated numeric value, which JSON consumers treat as "huge".
fn fmt_le(upper: u64, scale: f64) -> String {
    if scale == 1.0 {
        format!("{upper}")
    } else {
        fmt_f64(upper as f64 * scale)
    }
}

/// Compact float rendering that is still valid JSON (never NaN/inf — inputs
/// are finite by construction).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::event_kind;
    use crate::metrics::Histogram;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        snap.push_counter(
            "bellamy_serve_queries_total",
            vec![("model", "sgd".to_string())],
            "queries",
            "Single queries served.",
            42,
        );
        snap.push_gauge(
            "bellamy_serve_inflight",
            vec![("model", "sgd".to_string())],
            "queries",
            "In-flight queries.",
            3,
        );
        let h = Histogram::new();
        for _ in 0..9 {
            h.record(1_000);
        }
        h.record(1_000_000);
        snap.push_histogram(
            "bellamy_serve_submit_latency_seconds",
            vec![("model", "sgd".to_string())],
            "seconds",
            "Per-query submit latency.",
            h.snapshot(),
        );
        snap.set_events(vec![Event {
            seq: 0,
            elapsed_us: 5,
            kind: event_kind::SERVE_PANIC,
            detail: "forward pass \"panicked\"".to_string(),
        }]);
        snap
    }

    #[test]
    fn typed_accessors_find_samples() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter("bellamy_serve_queries_total"), Some(42));
        assert_eq!(
            snap.counter_with("bellamy_serve_queries_total", "model", "sgd"),
            Some(42)
        );
        assert_eq!(
            snap.counter_with("bellamy_serve_queries_total", "model", "other"),
            None
        );
        assert_eq!(snap.gauge("bellamy_serve_inflight"), Some(3));
        let h = snap
            .histogram("bellamy_serve_submit_latency_seconds")
            .unwrap();
        assert_eq!(h.count(), 10);
        assert_eq!(snap.counter("no_such_metric"), None);
    }

    #[test]
    fn json_rendering_is_balanced_and_escaped() {
        let json = sample_snapshot().to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in: {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"bellamy_serve_queries_total\""));
        assert!(json.contains("\"value\": 42"));
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(json.contains("\"count\": 10"));
        // The quoted word inside the event detail must be escaped.
        assert!(json.contains("forward pass \\\"panicked\\\""));
    }

    #[test]
    fn prometheus_rendering_has_headers_and_cumulative_buckets() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# HELP bellamy_serve_queries_total"));
        assert!(text.contains("# TYPE bellamy_serve_queries_total counter"));
        assert!(text.contains("# TYPE bellamy_serve_inflight gauge"));
        assert!(text.contains("# TYPE bellamy_serve_submit_latency_seconds histogram"));
        assert!(text.contains("bellamy_serve_queries_total{model=\"sgd\"} 42"));
        assert!(text.contains("bellamy_serve_submit_latency_seconds_count{model=\"sgd\"} 10"));
        assert!(text
            .contains("bellamy_serve_submit_latency_seconds_bucket{model=\"sgd\",le=\"+Inf\"} 10"));
        // Bucket series must be cumulative and non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts not cumulative: {line}");
            last = v;
        }
        assert_eq!(last, 10);
    }

    #[test]
    fn headers_emitted_once_per_name() {
        let mut snap = TelemetrySnapshot::new();
        for mode in ["deserialize", "mmap"] {
            snap.push_counter(
                "bellamy_hub_disk_recalls_total",
                vec![("mode", mode.to_string())],
                "recalls",
                "Disk recalls.",
                1,
            );
        }
        let text = snap.to_prometheus();
        assert_eq!(
            text.matches("# HELP bellamy_hub_disk_recalls_total")
                .count(),
            1
        );
        assert_eq!(text.matches("bellamy_hub_disk_recalls_total{").count(), 2);
    }
}
