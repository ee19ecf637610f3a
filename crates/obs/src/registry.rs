//! The metrics registry: named counters, gauges, and histograms.
//!
//! Names follow the Prometheus convention and may carry baked-in labels:
//! `p2kvs_queue_wait_ns{worker="0",class="write"}`. The registry is only
//! locked to *look up or create* a metric; recording goes through the
//! returned `Arc` handle and never touches the registry lock, so hot
//! paths resolve their metrics once at startup and then record with a
//! single atomic op.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{ConcurrentHistogram, Counter, Gauge};
use crate::snapshot::{HistogramStats, MetricsSnapshot};

/// Formats `base{k1="v1",k2="v2"}`; returns `base` alone when `labels` is
/// empty. A `base` that already carries labels gets the new ones appended
/// to its set.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    match base.strip_suffix('}') {
        Some(open) => format!("{open},{}}}", body.join(",")),
        None => format!("{base}{{{}}}", body.join(",")),
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<ConcurrentHistogram>>,
}

/// A registry of named metrics.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns (creating if absent) the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// Returns (creating if absent) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// Returns (creating if absent) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<ConcurrentHistogram> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(ConcurrentHistogram::new()))
            .clone()
    }

    /// Convenience: set gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.gauge(name).set(v);
    }

    /// Point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), HistogramStats::from(&h.snapshot())))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_formatting() {
        assert_eq!(labeled("ops", &[]), "ops");
        assert_eq!(
            labeled("ops", &[("worker", "3"), ("class", "read")]),
            "ops{worker=\"3\",class=\"read\"}"
        );
        assert_eq!(
            labeled("bytes{level=\"1\"}", &[("instance", "0")]),
            "bytes{level=\"1\",instance=\"0\"}"
        );
    }

    #[test]
    fn get_or_create_returns_same_metric() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        assert_eq!(r.counter("a").get(), 3);
        r.set_gauge("g", 1.5);
        assert_eq!(r.gauge("g").get(), 1.5);
        r.histogram("h").record(42);
        assert_eq!(r.histogram("h").count(), 1);
    }

    #[test]
    fn snapshot_lists_everything_sorted() {
        let r = MetricsRegistry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").add(1);
        r.set_gauge("depth", 4.0);
        r.histogram("lat_ns").record(100);
        let s = r.snapshot();
        assert_eq!(
            s.counters,
            vec![("a_total".to_string(), 1), ("b_total".to_string(), 2)]
        );
        assert_eq!(s.gauges, vec![("depth".to_string(), 4.0)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].1.count, 1);
    }
}
