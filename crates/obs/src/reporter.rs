//! A small periodic background task: `P2Kvs` runs its balancer on one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A background thread running a closure every `interval` until dropped.
///
/// The thread wakes every few tens of milliseconds to check the stop
/// flag, so dropping the task never blocks for a full interval.
pub struct PeriodicTask {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Poll granularity for the stop flag.
const POLL: Duration = Duration::from_millis(25);

impl PeriodicTask {
    /// Spawns the task; `tick` runs once per `interval` (first run after
    /// one full interval).
    pub fn spawn(
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> PeriodicTask {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let mut next = Instant::now() + interval;
                loop {
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                    let now = Instant::now();
                    if now >= next {
                        tick();
                        next = now + interval;
                    }
                    std::thread::sleep(POLL.min(next.saturating_duration_since(now)).max(
                        Duration::from_millis(1),
                    ));
                }
            })
            .expect("spawn periodic task");
        PeriodicTask {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops and joins the thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PeriodicTask {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn ticks_and_stops() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let mut task = PeriodicTask::spawn("test-reporter", Duration::from_millis(30), move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        std::thread::sleep(Duration::from_millis(200));
        task.stop();
        let after_stop = hits.load(Ordering::Relaxed);
        assert!(after_stop >= 2, "expected a few ticks, got {after_stop}");
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(hits.load(Ordering::Relaxed), after_stop, "no ticks after stop");
    }

    #[test]
    fn ticks_snapshot_a_registry_under_concurrent_mutation() {
        use crate::registry::{labeled, MetricsRegistry};
        let registry = Arc::new(MetricsRegistry::new());
        let ticks = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        // Mutators: register fresh series and hammer existing handles
        // while the reporter snapshots — the get-or-create lock and the
        // snapshot path must coexist without deadlock or panic.
        let mutators: Vec<_> = (0..3)
            .map(|t| {
                let reg = registry.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let w = (i % 17).to_string();
                        reg.counter(&labeled("rep_ops_total", &[("worker", &w)])).inc();
                        reg.histogram(&labeled("rep_lat_ns", &[("worker", &w)]))
                            .record(t * 1000 + i);
                        reg.set_gauge(&labeled("rep_depth", &[("worker", &w)]), i as f64);
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        let mut task = {
            let reg = registry.clone();
            let ticks = ticks.clone();
            PeriodicTask::spawn("test-snap", Duration::from_millis(5), move || {
                let snap = reg.snapshot();
                // Sorted output and internally consistent counts.
                assert!(snap.counters.windows(2).all(|w| w[0].0 <= w[1].0));
                for (_, h) in &snap.histograms {
                    assert!(h.min <= h.max || h.count == 0);
                }
                ticks.fetch_add(1, Ordering::Relaxed);
            })
        };
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);
        let recorded: u64 = mutators.into_iter().map(|m| m.join().unwrap()).sum();
        task.stop();
        assert!(ticks.load(Ordering::Relaxed) >= 3, "reporter ticked while mutated");
        assert!(recorded > 0);
        // Post-quiesce, the registry totals match what the mutators did.
        let snap = registry.snapshot();
        let total: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("rep_ops_total"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, recorded);
    }

    #[test]
    fn drop_joins_quickly() {
        let start = Instant::now();
        {
            let _task = PeriodicTask::spawn("t", Duration::from_secs(3600), || {});
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(start.elapsed() < Duration::from_secs(2), "drop must not wait an interval");
    }
}
