//! Counters and fixed-bucket latency histograms.
//!
//! Both are lock-free on the hot path: a counter is an `AtomicU64`
//! handed out as an `Arc`, and a histogram is a fixed array of atomic
//! bucket counts indexed by the position of the highest set bit of the
//! observed nanosecond value. Registration (first use of a name) takes
//! a short-lived write lock; every subsequent observation is a relaxed
//! atomic increment.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

/// Number of power-of-two latency buckets. Bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds, so 64 buckets span the full `u64`
/// range (bucket 0 also absorbs a zero observation).
pub const BUCKETS: usize = 64;

/// Returns the bucket index for a nanosecond observation.
#[must_use]
pub fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` in nanoseconds.
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A fixed-bucket latency histogram with power-of-two bucket bounds.
///
/// Observations are recorded lock-free; quantile queries walk the
/// bucket array and report the bucket upper bound (clamped to the
/// observed maximum), so `p50 <= p90 <= p99 <= max` always holds.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one latency observation.
    pub fn observe(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) in nanoseconds.
    ///
    /// Returns the upper bound of the bucket containing the quantile,
    /// clamped to the observed maximum; `0` when empty.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper_bound(i).min(self.max_ns.load(Ordering::Relaxed));
            }
        }
        self.max_ns.load(Ordering::Relaxed)
    }

    /// An immutable summary of the current state.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 { 0 } else { self.min_ns.load(Ordering::Relaxed) },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            p50_ns: self.quantile_ns(0.50),
            p90_ns: self.quantile_ns(0.90),
            p95_ns: self.quantile_ns(0.95),
            p99_ns: self.quantile_ns(0.99),
        }
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations in nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation (0 when empty).
    pub min_ns: u64,
    /// Largest observation.
    pub max_ns: u64,
    /// Estimated median.
    pub p50_ns: u64,
    /// Estimated 90th percentile.
    pub p90_ns: u64,
    /// Estimated 95th percentile.
    pub p95_ns: u64,
    /// Estimated 99th percentile.
    pub p99_ns: u64,
}

impl HistogramSummary {
    /// Mean observation in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Name-keyed registries for counters, gauges and histograms.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<HashMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    /// Bumped by [`Registry::clear`]; lets cached handles detect that
    /// their `Arc` no longer backs a registered metric.
    generation: AtomicU64,
}

impl Registry {
    /// Returns the counter handle for `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        let mut w = self.counters.write();
        Arc::clone(w.entry(name.to_owned()).or_default())
    }

    /// Returns the gauge handle for `name`, registering it on first use.
    /// A gauge is a last-write-wins value (e.g. a queue depth), unlike
    /// the monotonic counters.
    pub fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        let mut w = self.gauges.write();
        Arc::clone(w.entry(name.to_owned()).or_default())
    }

    /// Returns the histogram handle for `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        let mut w = self.histograms.write();
        Arc::clone(w.entry(name.to_owned()).or_default())
    }

    /// All counters as `(name, value)`, sorted by name.
    #[must_use]
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let mut out: Vec<_> = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        out.sort();
        out
    }

    /// All gauges as `(name, value)`, sorted by name.
    #[must_use]
    pub fn gauge_values(&self) -> Vec<(String, u64)> {
        let mut out: Vec<_> = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        out.sort();
        out
    }

    /// All histogram summaries as `(name, summary)`, sorted by name.
    #[must_use]
    pub fn histogram_summaries(&self) -> Vec<(String, HistogramSummary)> {
        let mut out: Vec<_> =
            self.histograms.read().iter().map(|(k, v)| (k.clone(), v.summary())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The clear-generation of this registry. Handles cached against an
    /// older generation must re-resolve through [`Registry::counter`].
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Drops all registered counters, gauges and histograms.
    pub fn clear(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
        self.histograms.write().clear();
        self.generation.fetch_add(1, Ordering::AcqRel);
    }
}

/// A pre-registered handle onto a global counter for hot paths.
///
/// [`crate::incr`] resolves its counter through a name lookup (and its
/// callers often build the name with `format!`) on every increment; a
/// `CounterHandle` does the lookup once and afterwards pays one relaxed
/// atomic add. The handle survives [`crate::reset`]: it remembers the
/// registry generation it resolved against and re-resolves when the
/// registry has been cleared since.
///
/// Designed to live in a `static`:
///
/// ```
/// use wideleak_telemetry::CounterHandle;
/// static REQUESTS: CounterHandle = CounterHandle::new("server.requests");
/// REQUESTS.incr();
/// ```
pub struct CounterHandle {
    name: &'static str,
    /// Registry generation `slot` was resolved against, plus one so that
    /// the initial value (0) never matches a real generation.
    resolved_at: AtomicU64,
    slot: RwLock<Option<Arc<AtomicU64>>>,
}

impl CounterHandle {
    /// Creates an unresolved handle; the counter registers on first use.
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        CounterHandle { name, resolved_at: AtomicU64::new(0), slot: RwLock::new(None) }
    }

    /// The counter name this handle resolves.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the counter on the global collector. No-op while
    /// telemetry is disabled (one relaxed load, like [`crate::add`]).
    pub fn add(&self, n: u64) {
        let collector = crate::global();
        if !collector.is_enabled() {
            return;
        }
        let generation = collector.registry().generation();
        if self.resolved_at.load(Ordering::Acquire) == generation + 1 {
            if let Some(counter) = self.slot.read().as_ref() {
                counter.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
        // First use, or the registry was cleared since we resolved:
        // re-register and cache the fresh handle.
        let counter = collector.registry().counter(self.name);
        counter.fetch_add(n, Ordering::Relaxed);
        *self.slot.write() = Some(counter);
        self.resolved_at.store(generation + 1, Ordering::Release);
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(9), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn histogram_tracks_min_max_and_count() {
        let h = Histogram::default();
        for ns in [100u64, 200, 3_000, 40_000] {
            h.observe(Duration::from_nanos(ns));
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 40_000);
        assert_eq!(s.sum_ns, 43_300);
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let s = Histogram::default().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.max_ns, 0);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = Histogram::default();
        // 90 fast observations (~1us) and 10 slow ones (~1ms).
        for _ in 0..90 {
            h.observe(Duration::from_nanos(1_000));
        }
        for _ in 0..10 {
            h.observe(Duration::from_nanos(1_000_000));
        }
        let s = h.summary();
        // p50 must fall inside the 1us bucket [1024, 2047].
        assert!(s.p50_ns < 2_048, "p50={}", s.p50_ns);
        // p95 and p99 must land in the slow bucket, clamped to max.
        assert_eq!(s.p95_ns, 1_000_000);
        assert_eq!(s.p99_ns, 1_000_000);
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
    }

    #[test]
    fn registry_reuses_handles_by_name() {
        let r = Registry::default();
        r.counter("a").fetch_add(2, Ordering::Relaxed);
        r.counter("a").fetch_add(3, Ordering::Relaxed);
        r.counter("b").fetch_add(1, Ordering::Relaxed);
        assert_eq!(r.counter_values(), vec![("a".to_owned(), 5), ("b".to_owned(), 1)]);
    }

    #[test]
    fn gauges_are_last_write_wins_and_sorted() {
        let r = Registry::default();
        r.gauge("queue").store(5, Ordering::Relaxed);
        r.gauge("queue").store(2, Ordering::Relaxed);
        r.gauge("peak").fetch_max(7, Ordering::Relaxed);
        r.gauge("peak").fetch_max(3, Ordering::Relaxed);
        assert_eq!(r.gauge_values(), vec![("peak".to_owned(), 7), ("queue".to_owned(), 2)]);
    }

    #[test]
    fn clear_bumps_generation_and_drops_all_stores() {
        let r = Registry::default();
        let g0 = r.generation();
        r.counter("c").fetch_add(1, Ordering::Relaxed);
        r.gauge("g").store(9, Ordering::Relaxed);
        r.clear();
        assert_eq!(r.generation(), g0 + 1);
        assert!(r.counter_values().is_empty());
        assert!(r.gauge_values().is_empty());
    }

    #[test]
    fn counter_handle_survives_registry_clear() {
        static HANDLE: CounterHandle = CounterHandle::new("metrics.test.survives_clear");
        let _guard = crate::test_lock();
        crate::enable();
        HANDLE.add(3);
        let registry = crate::global().registry();
        assert_eq!(registry.counter(HANDLE.name()).load(Ordering::Relaxed), 3);
        registry.clear();
        // The cached Arc now backs an orphaned counter; the handle must
        // re-resolve so the increment lands in the fresh registration.
        HANDLE.incr();
        assert_eq!(registry.counter(HANDLE.name()).load(Ordering::Relaxed), 1);
    }
}
