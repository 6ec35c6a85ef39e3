//! The named-metric registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use tabs_kernel::{PerfCounters, PerfSnapshot, PrimitiveOp};

/// A named counter: monotonically increasing through [`Counter::inc`] /
/// [`Counter::add`], or a *reading* of some current level when its owner
/// only ever calls [`Counter::set`] (e.g. `tm.phase2.pending`).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value: publishes a reading rather than a count.
    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of latency buckets: powers of two from 1 µs up.
const BUCKETS: usize = 24;

/// A latency histogram with logarithmic (power-of-two microsecond)
/// buckets plus count/sum/max.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Histogram {
    /// Records one observed duration.
    pub fn observe(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean observed latency (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_micros.load(Ordering::Relaxed) / n)
    }

    /// Largest observed latency.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros.load(Ordering::Relaxed))
    }

    /// `(upper_bound_micros, count)` for each non-empty bucket.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then(|| (1u64 << i, n))
            })
            .collect()
    }
}

/// A point-in-time copy of every metric in a [`Metrics`] registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The nine Table 5-1 primitive-operation counts.
    pub primitives: PerfSnapshot,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl MetricsSnapshot {
    /// Looks up a named counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    }
}

/// Per-node registry of named counters and latency histograms.
///
/// The registry wraps the node's [`PerfCounters`], so the nine Table 5-1
/// primitive counters are metrics here *and* stay the single source of
/// truth that `tabs-perf` reads — the two views can never disagree.
pub struct Metrics {
    perf: Arc<PerfCounters>,
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Metrics {
    /// Creates a registry over the node's primitive-operation counters.
    pub fn new(perf: Arc<PerfCounters>) -> Arc<Self> {
        Arc::new(Metrics {
            perf,
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        })
    }

    /// The underlying primitive-operation counters.
    pub fn perf(&self) -> &Arc<PerfCounters> {
        &self.perf
    }

    /// Current count of one Table 5-1 primitive.
    pub fn primitive(&self, op: PrimitiveOp) -> u64 {
        self.perf.get(op)
    }

    /// Returns (registering on first use) the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters.lock().entry(name.to_string()).or_default().clone()
    }

    /// Returns (registering on first use) the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::default())),
        )
    }

    /// Captures primitives and named counters atomically enough for
    /// delta arithmetic (each counter is read once).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            primitives: self.perf.snapshot(),
            counters: self.counters.lock().iter().map(|(n, c)| (n.clone(), c.get())).collect(),
        }
    }

    /// Renders every metric (primitives, counters, histograms) as
    /// `name value` lines, sorted, for dumps and debugging.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (op, n) in self.perf.snapshot().iter() {
            out.push_str(&format!("primitive/{:<28} {n}\n", op.label()));
        }
        for (name, value) in self.snapshot().counters {
            out.push_str(&format!("counter/{name:<30} {value}\n"));
        }
        for (name, h) in self.histograms.lock().iter() {
            out.push_str(&format!(
                "histogram/{name:<28} count={} mean={:?} max={:?}\n",
                h.count(),
                h.mean(),
                h.max()
            ));
        }
        out
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("counters", &self.counters.lock().len())
            .field("histograms", &self.histograms.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_share_state() {
        let m = Metrics::new(PerfCounters::new());
        m.counter("txn.commit").inc();
        m.counter("txn.commit").add(2);
        assert_eq!(m.counter("txn.commit").get(), 3);
        assert_eq!(m.snapshot().counter("txn.commit"), 3);
        assert_eq!(m.snapshot().counter("missing"), 0);
    }

    #[test]
    fn primitives_share_the_perf_source_of_truth() {
        let perf = PerfCounters::new();
        let m = Metrics::new(Arc::clone(&perf));
        perf.record(PrimitiveOp::Datagram);
        perf.record_n(PrimitiveOp::StableStorageWrite, 3);
        assert_eq!(m.primitive(PrimitiveOp::Datagram), 1);
        assert_eq!(
            m.snapshot().primitives.get(PrimitiveOp::StableStorageWrite),
            perf.snapshot().get(PrimitiveOp::StableStorageWrite),
        );
    }

    #[test]
    fn histogram_tracks_count_mean_max() {
        let m = Metrics::new(PerfCounters::new());
        let h = m.histogram("commit.latency");
        h.observe(Duration::from_micros(10));
        h.observe(Duration::from_micros(30));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Duration::from_micros(20));
        assert_eq!(h.max(), Duration::from_micros(30));
        assert!(!h.buckets().is_empty());
        // Same name returns the same histogram.
        assert_eq!(m.histogram("commit.latency").count(), 2);
    }

    #[test]
    fn render_lists_all_sections() {
        let perf = PerfCounters::new();
        perf.record(PrimitiveOp::DataServerCall);
        let m = Metrics::new(perf);
        m.counter("c").inc();
        m.histogram("h").observe(Duration::from_micros(5));
        let text = m.render();
        assert!(text.contains("primitive/Data Server Call"));
        assert!(text.contains("counter/c"));
        assert!(text.contains("histogram/h"));
    }
}
