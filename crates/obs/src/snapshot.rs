//! Point-in-time metric values and their text expositions.
//!
//! Two renderers cover the two consumers: `render_prometheus` produces
//! the Prometheus text format (for scraping / eyeballing), `render_json`
//! a flat JSON document (what `repro` writes as its per-run artifact and
//! what EXPERIMENTS.md analysis scripts consume). Both are generated from
//! the same [`MetricsSnapshot`], so they always agree.

use std::fmt::Write as _;

use p2kvs_util::histogram::Histogram;

/// Digest of one histogram at snapshot time (values in the recorded unit,
/// nanoseconds throughout p2KVS).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u128,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Mean observation (0 when empty).
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl From<&Histogram> for HistogramStats {
    fn from(h: &Histogram) -> HistogramStats {
        HistogramStats {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
            p999: h.percentile(99.9),
        }
    }
}

/// Every registered metric's value at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)`, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, digest)`, sorted by name.
    pub histograms: Vec<(String, HistogramStats)>,
}

/// Splits `base{labels}` into `("base", "labels")`; labels is empty when
/// the name is unlabeled.
fn split_name(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (
            &name[..i],
            name[i..].trim_start_matches('{').trim_end_matches('}'),
        ),
        None => (name, ""),
    }
}

/// Appends `extra` (e.g. `quantile="0.5"`) to a possibly-labeled name,
/// optionally replacing the base with `base_suffix`.
fn with_labels(name: &str, suffix: &str, extra: &str) -> String {
    let (base, labels) = split_name(name);
    let mut all = String::new();
    if !labels.is_empty() {
        all.push_str(labels);
    }
    if !extra.is_empty() {
        if !all.is_empty() {
            all.push(',');
        }
        all.push_str(extra);
    }
    if all.is_empty() {
        format!("{base}{suffix}")
    } else {
        format!("{base}{suffix}{{{all}}}")
    }
}

/// Formats an `f64` so the Prometheus and JSON renders print identical
/// digits (shortest round-trippable representation).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

impl MetricsSnapshot {
    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram digest by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStats> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Merges every histogram series sharing `base` (across label sets)
    /// is not supported — series are independent; this finds all series
    /// of a base name instead.
    pub fn histograms_of(&self, base: &str) -> Vec<(&str, &HistogramStats)> {
        self.histograms
            .iter()
            .filter(|(n, _)| split_name(n).0 == base)
            .map(|(n, v)| (n.as_str(), v))
            .collect()
    }

    /// Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<(String, &'static str)> = None;
        let mut type_line = |out: &mut String, base: &str, kind: &'static str| {
            if last_type.as_ref().map(|(b, k)| (b.as_str(), *k)) != Some((base, kind)) {
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_type = Some((base.to_string(), kind));
            }
        };
        for (name, v) in &self.counters {
            type_line(&mut out, split_name(name).0, "counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            type_line(&mut out, split_name(name).0, "gauge");
            let _ = writeln!(out, "{name} {}", fmt_f64(*v));
        }
        for (name, h) in &self.histograms {
            type_line(&mut out, split_name(name).0, "summary");
            for (q, v) in [("0.5", h.p50), ("0.99", h.p99), ("0.999", h.p999)] {
                let series = with_labels(name, "", &format!("quantile=\"{q}\""));
                let _ = writeln!(out, "{series} {v}");
            }
            let _ = writeln!(out, "{} {}", with_labels(name, "_count", ""), h.count);
            let _ = writeln!(out, "{} {}", with_labels(name, "_sum", ""), h.sum);
            let _ = writeln!(out, "{} {}", with_labels(name, "_min", ""), h.min);
            let _ = writeln!(out, "{} {}", with_labels(name, "_max", ""), h.max);
        }
        out
    }

    /// JSON exposition: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum, min, max, mean, p50, p99,
    /// p999}}}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", json_escape(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {}", json_escape(name), fmt_f64(*v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                json_escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                fmt_f64(h.mean),
                h.p50,
                h.p99,
                h.p999,
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses the *value lines* of a Prometheus render back into
    /// `(series, value)` pairs — used by tests to prove the two renders
    /// agree, and handy for scraping the text format without a client
    /// library.
    pub fn parse_prometheus(text: &str) -> Vec<(String, f64)> {
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| {
                let cut = l.rfind(' ')?;
                let value: f64 = l[cut + 1..].parse().ok()?;
                Some((l[..cut].to_string(), value))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        MetricsSnapshot {
            counters: vec![
                ("ops_total{worker=\"0\"}".into(), 7),
                ("ops_total{worker=\"1\"}".into(), 9),
            ],
            gauges: vec![("queue_depth{worker=\"0\"}".into(), 3.0)],
            histograms: vec![("lat_ns{class=\"write\"}".into(), HistogramStats::from(&h))],
        }
    }

    #[test]
    fn lookup_helpers() {
        let s = sample();
        assert_eq!(s.counter("ops_total{worker=\"1\"}"), Some(9));
        assert_eq!(s.gauge("queue_depth{worker=\"0\"}"), Some(3.0));
        assert!(s.histogram("lat_ns{class=\"write\"}").unwrap().count == 1000);
        assert_eq!(s.histograms_of("lat_ns").len(), 1);
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn prometheus_render_shape() {
        let s = sample();
        let text = s.render_prometheus();
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total{worker=\"0\"} 7"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("# TYPE lat_ns summary"));
        assert!(text.contains("lat_ns{class=\"write\",quantile=\"0.5\"}"));
        assert!(text.contains("lat_ns_count{class=\"write\"} 1000"));
        assert!(text.contains("lat_ns_sum{class=\"write\"} 500500"));
    }

    #[test]
    fn renders_round_trip_the_same_values() {
        let s = sample();
        let parsed = MetricsSnapshot::parse_prometheus(&s.render_prometheus());
        let json = s.render_json();
        // Every counter/gauge appears in both renders with the same value.
        for (name, v) in &s.counters {
            let p = parsed.iter().find(|(n, _)| n == name).unwrap().1;
            assert_eq!(p as u64, *v);
            assert!(json.contains(&format!("\"{}\": {v}", json_escape(name))));
        }
        for (name, v) in &s.gauges {
            let p = parsed.iter().find(|(n, _)| n == name).unwrap().1;
            assert_eq!(p, *v);
            assert!(json.contains(&format!("\"{}\": {}", json_escape(name), fmt_f64(*v))));
        }
        // Histogram digests agree between renders.
        for (name, h) in &s.histograms {
            let find = |series: &str| parsed.iter().find(|(n, _)| n == series).unwrap().1;
            assert_eq!(find(&with_labels(name, "_count", "")) as u64, h.count);
            assert_eq!(find(&with_labels(name, "_sum", "")) as u128, h.sum);
            assert_eq!(
                find(&with_labels(name, "", "quantile=\"0.99\"")) as u64,
                h.p99
            );
            assert!(json.contains(&format!("\"count\": {}", h.count)));
            assert!(json.contains(&format!("\"p99\": {}", h.p99)));
        }
    }

    #[test]
    fn unlabeled_names_render_cleanly() {
        let s = MetricsSnapshot {
            counters: vec![("plain_total".into(), 1)],
            gauges: vec![],
            histograms: vec![("h_ns".into(), HistogramStats::from(&Histogram::new()))],
        };
        let text = s.render_prometheus();
        assert!(text.contains("plain_total 1"));
        assert!(text.contains("h_ns{quantile=\"0.5\"} 0"));
        assert!(text.contains("h_ns_count 0"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\tx"), "tab\\u0009x");
    }

    #[test]
    fn f64_formatting_is_stable() {
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(-2.0), "-2.0");
    }
}
