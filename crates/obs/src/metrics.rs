//! The metrics registry: named counters, gauges and histograms, one
//! atomic per value. Concurrent increments from the executor's workers
//! are exact; no more than the run's `jobs` workers ever record, and an
//! event has already taken the sink's and the name map's read locks
//! before it reaches its atomic.

use crate::trace::{Ring, SpanRecord};
use crate::unpoisoned;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Histogram bucket upper bounds in microseconds. The last implicit
/// bucket is overflow. These are part of the exported format and
/// pinned by a test — do not reorder or edit without bumping consumers.
pub const BUCKET_BOUNDS_US: [u64; 19] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000,
];

/// Bucket count including the overflow bucket.
pub const NUM_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// A monotone counter: one atomic.
///
/// Overflow **clamps and flags** instead of wrapping: a wrapped
/// `u64` reads as a plausible small total, which is the worst failure
/// mode a metric can have; a clamped `u64::MAX` with
/// [`Counter::saturated`] set cannot be mistaken for a real value.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
    saturated: AtomicBool,
}

impl Counter {
    /// Add `n`. One relaxed `fetch_add`.
    #[inline]
    pub fn add(&self, n: u64) {
        let prev = self.value.fetch_add(n, Ordering::Relaxed);
        if prev.checked_add(n).is_none() {
            self.value.store(u64::MAX, Ordering::Relaxed);
            self.saturated.store(true, Ordering::Relaxed);
        }
    }

    /// The total; `u64::MAX` once saturated.
    pub fn value(&self) -> u64 {
        if self.saturated() {
            u64::MAX
        } else {
            self.value.load(Ordering::Relaxed)
        }
    }

    /// True once the counter has overflowed and been clamped.
    pub fn saturated(&self) -> bool {
        self.saturated.load(Ordering::Relaxed)
    }
}

/// A last-write / high-water gauge (single atomic: gauges are not on
/// the per-event hot path).
#[derive(Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Set the gauge (last write wins).
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A duration histogram with fixed exponential buckets
/// ([`BUCKET_BOUNDS_US`]): one atomic per bucket plus one for the sum.
/// Overflow of the duration sum (or a bucket count) clamps and flags
/// rather than wrapping, same contract as [`Counter`].
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum_ns: AtomicU64,
    saturated: AtomicBool,
}

impl Histogram {
    /// Index of the bucket a value in microseconds falls into.
    pub fn bucket_index(us: u64) -> usize {
        BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len())
    }

    /// Record one observation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let bucket = &self.buckets[Self::bucket_index(ns / 1_000)];
        if bucket.fetch_add(1, Ordering::Relaxed) == u64::MAX {
            bucket.store(u64::MAX, Ordering::Relaxed);
            self.saturated.store(true, Ordering::Relaxed);
        }
        let prev = self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if prev.checked_add(ns).is_none() {
            self.sum_ns.store(u64::MAX, Ordering::Relaxed);
            self.saturated.store(true, Ordering::Relaxed);
        }
    }

    /// Point-in-time snapshot. Once saturated, the sum reads
    /// `u64::MAX` (see [`Histogram::saturated`]).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().fold(0u64, |a, &b| a.saturating_add(b)),
            sum_ns: if self.saturated() {
                u64::MAX
            } else {
                self.sum_ns.load(Ordering::Relaxed)
            },
            buckets,
        }
    }

    /// True once any bucket count or the duration sum has overflowed
    /// and been clamped.
    pub fn saturated(&self) -> bool {
        self.saturated.load(Ordering::Relaxed)
    }
}

/// Point-in-time view of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed durations in nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket counts, `BUCKET_BOUNDS_US` order plus overflow.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The estimated `q`-quantile (0 < q <= 1) in nanoseconds, by
    /// linear interpolation inside the bucket the quantile rank lands
    /// in (the same estimator as Prometheus' `histogram_quantile`).
    /// Ranks that land in the overflow bucket are clamped to the last
    /// finite bound — the estimate is then a lower bound. 0 when the
    /// histogram is empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().clamp(1.0, self.count as f64) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if n == 0 || cum < rank {
                continue;
            }
            let last = BUCKET_BOUNDS_US.len() - 1;
            if i > last {
                return BUCKET_BOUNDS_US[last] * 1_000;
            }
            let lo_us = if i == 0 { 0 } else { BUCKET_BOUNDS_US[i - 1] };
            let hi_us = BUCKET_BOUNDS_US[i];
            let frac = (rank - (cum - n)) as f64 / n as f64;
            return ((lo_us as f64 + frac * (hi_us - lo_us) as f64) * 1_000.0) as u64;
        }
        0
    }

    /// This snapshot minus `prev` (per-bucket, count and sum), i.e. the
    /// observations recorded between the two snapshots.
    fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(prev.count),
            sum_ns: self.sum_ns.saturating_sub(prev.sum_ns),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &b)| b.saturating_sub(prev.buckets.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// The sink: named metrics, the span ring and the last error. Created
/// once per profiled run and installed globally via
/// [`crate::install_registry`].
pub struct Registry {
    epoch: Instant,
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
    calls: Counter,
    trace: Ring<SpanRecord>,
    last_error: Mutex<Option<String>>,
}

impl Registry {
    /// A registry whose span ring keeps the 65 536 most recent spans
    /// (oldest dropped first; the drop count is reported in the trace
    /// export).
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry {
            epoch: Instant::now(),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            calls: Counter::default(),
            trace: Ring::new(65_536),
            last_error: Mutex::new(None),
        })
    }

    /// Count one instrumentation call. The disabled-overhead bench
    /// multiplies this by the measured cost of the disabled fast path
    /// to bound what the instrumentation costs a run with no sink.
    #[inline]
    pub(crate) fn note_call(&self) {
        self.calls.add(1);
    }

    /// Total instrumentation calls routed to this registry.
    pub fn calls(&self) -> u64 {
        self.calls.value()
    }

    /// The instant all span timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub(crate) fn trace_ring(&self) -> &Ring<SpanRecord> {
        &self.trace
    }

    fn named<T: Default>(
        map: &RwLock<BTreeMap<&'static str, Arc<T>>>,
        name: &'static str,
    ) -> Arc<T> {
        if let Some(m) = unpoisoned(map.read()).get(name) {
            return m.clone();
        }
        unpoisoned(map.write()).entry(name).or_default().clone()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Self::named(&self.counters, name)
    }

    /// The counter registered under a runtime-built name, e.g. a
    /// per-tenant label like `serve.requests{tenant=a}`. The name is
    /// leaked once on first registration (the registry stores
    /// `&'static str` keys); lookups never allocate, so the leak is
    /// bounded by the number of distinct labels ever used.
    pub fn counter_labeled(&self, name: &str) -> Arc<Counter> {
        if let Some(m) = unpoisoned(self.counters.read()).get(name) {
            return m.clone();
        }
        let mut map = unpoisoned(self.counters.write());
        if let Some(m) = map.get(name) {
            return m.clone();
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        map.entry(leaked).or_default().clone()
    }

    /// The gauge registered under `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Self::named(&self.gauges, name)
    }

    /// The histogram registered under `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Self::named(&self.histograms, name)
    }

    /// All spans currently in the ring, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.trace.drain_copy()
    }

    /// Latch `msg` as the last error (the flight dump's headline),
    /// replacing the one before.
    pub fn record_error(&self, msg: &str) {
        *unpoisoned(self.last_error.lock()) = Some(msg.to_string());
    }

    /// The most recently latched error.
    pub fn last_error(&self) -> Option<String> {
        unpoisoned(self.last_error.lock()).clone()
    }

    /// The flight-recorder dump: one self-contained post-mortem JSON —
    /// the recent-span ring as a loadable Chrome trace, the last error,
    /// and the full metrics snapshot.
    pub fn flight_json(&self) -> Value {
        let mut v = self.chrome_trace();
        if let Value::Object(map) = &mut v {
            map.push((
                "last_error".to_string(),
                match self.last_error() {
                    Some(e) => Value::Str(e),
                    None => Value::Null,
                },
            ));
            map.push(("metrics".to_string(), self.snapshot().to_json()));
        }
        v
    }

    /// Point-in-time view of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: unpoisoned(self.counters.read())
                .iter()
                .map(|(k, v)| (k.to_string(), v.value()))
                .collect(),
            gauges: unpoisoned(self.gauges.read())
                .iter()
                .map(|(k, v)| (k.to_string(), v.value()))
                .collect(),
            histograms: unpoisoned(self.histograms.read())
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time view of a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's total (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 when never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// This snapshot minus `prev`: per-name counter and histogram
    /// differences (what happened *between* the two snapshots — the
    /// source of per-round rates), with gauges passed through as their
    /// current level (a gauge delta is meaningless).
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v.saturating_sub(prev.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    let d = match prev.histograms.get(k) {
                        Some(p) => h.delta_since(p),
                        None => h.clone(),
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// JSON rendering: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum_ns, p50_ns, p95_ns, p99_ns,
    /// buckets}}}`.
    pub fn to_json(&self) -> Value {
        let counters: Vec<(String, Value)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        let gauges: Vec<(String, Value)> = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        let hists: Vec<(String, Value)> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Value::Object(vec![
                        ("count".to_string(), Value::UInt(h.count)),
                        ("sum_ns".to_string(), Value::UInt(h.sum_ns)),
                        ("p50_ns".to_string(), Value::UInt(h.quantile_ns(0.50))),
                        ("p95_ns".to_string(), Value::UInt(h.quantile_ns(0.95))),
                        ("p99_ns".to_string(), Value::UInt(h.quantile_ns(0.99))),
                        (
                            "buckets".to_string(),
                            Value::Array(h.buckets.iter().map(|&b| Value::UInt(b)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("counters".to_string(), Value::Object(counters)),
            ("gauges".to_string(), Value::Object(gauges)),
            ("histograms".to_string(), Value::Object(hists)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_across_threads_exactly() {
        let c = Arc::new(Counter::default());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn histogram_bucket_boundaries_are_stable() {
        // Pinned: these indices are part of the exported format.
        assert_eq!(NUM_BUCKETS, 20);
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(10), 3);
        assert_eq!(Histogram::bucket_index(11), 4);
        assert_eq!(Histogram::bucket_index(1_000), 9);
        assert_eq!(Histogram::bucket_index(999_999), 18);
        assert_eq!(Histogram::bucket_index(1_000_000), 18);
        assert_eq!(Histogram::bucket_index(1_000_001), 19);
        assert_eq!(Histogram::bucket_index(u64::MAX), 19);
        // Boundary values land exactly on their own bucket edge.
        for (i, &b) in BUCKET_BOUNDS_US.iter().enumerate() {
            assert_eq!(Histogram::bucket_index(b), i, "bound {b}us moved");
        }
    }

    #[test]
    fn histogram_records_into_expected_buckets() {
        let h = Histogram::default();
        h.record_ns(500); // 0us -> bucket 0
        h.record_ns(1_000); // 1us -> bucket 0
        h.record_ns(7_000); // 7us -> bucket 3 (<=10)
        h.record_ns(3_000_000_000); // 3s -> overflow
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_ns, 3_000_008_500);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 1);
    }

    #[test]
    fn counter_overflow_clamps_and_flags() {
        // Regression for zoo-scale wrap-around: totals sized during
        // 50-router runs wrapped silently past u64::MAX. Overflow must
        // clamp to u64::MAX and flag, never wrap to a small value.
        let c = Counter::default();
        c.add(u64::MAX - 1);
        assert_eq!(c.value(), u64::MAX - 1);
        assert!(!c.saturated());
        c.add(5); // wraps the atomic
        assert_eq!(c.value(), u64::MAX);
        assert!(c.saturated());
        // Saturation is sticky: further adds cannot shrink the value.
        c.add(1);
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn histogram_sum_overflow_clamps_and_flags() {
        let h = Histogram::default();
        h.record_ns(u64::MAX - 10);
        assert!(!h.saturated());
        h.record_ns(u64::MAX - 10); // sum wraps
        let s = h.snapshot();
        assert!(h.saturated());
        assert_eq!(s.sum_ns, u64::MAX);
        assert_eq!(s.count, 2); // counts stay honest
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 2);
    }

    #[test]
    fn registry_names_are_interned_once() {
        let reg = Registry::new();
        let a = reg.counter("same");
        let b = reg.counter("same");
        a.add(1);
        b.add(2);
        assert_eq!(reg.snapshot().counter("same"), 3);
    }

    #[test]
    fn every_registry_lock_answers_after_a_panicking_holder_poisons_it() {
        let reg = Registry::new();
        reg.counter("kept").add(1);
        crate::poison_with(|| {
            let _held = reg.counters.write().unwrap();
            panic!("poisons the counter map");
        });
        crate::poison_with(|| {
            let _held = reg.gauges.write().unwrap();
            panic!("poisons the gauge map");
        });
        crate::poison_with(|| {
            let _held = reg.histograms.write().unwrap();
            panic!("poisons the histogram map");
        });
        crate::poison_with(|| {
            let _held = reg.last_error.lock().unwrap();
            panic!("poisons the last error");
        });
        assert!(reg.counters.is_poisoned() && reg.last_error.is_poisoned());

        reg.counter("kept").add(2);
        reg.counter_labeled("added{tenant=a}").add(1);
        reg.gauge("level").set(7);
        reg.histogram("wait").record_ns(3_000);
        reg.record_error("after the panic");
        {
            let _l = crate::test_lock();
            crate::install_registry(Arc::clone(&reg));
            crate::add("kept", 4);
            crate::uninstall();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("kept"), 7);
        assert_eq!(snap.counter("added{tenant=a}"), 1);
        assert_eq!(snap.gauge("level"), 7);
        assert_eq!(snap.histograms["wait"].count, 1);
        assert_eq!(reg.last_error().as_deref(), Some("after the panic"));
    }

    #[test]
    fn quantiles_match_known_distributions() {
        // Uniform over [0, 100ms): 1000 observations, one per 100us.
        // Every rank interpolates close to its true value (bucket edges
        // bound the error by the bucket width).
        let h = Histogram::default();
        for i in 0..1_000u64 {
            h.record_ns(i * 100_000);
        }
        let s = h.snapshot();
        let p50 = s.quantile_ns(0.50);
        let p95 = s.quantile_ns(0.95);
        let p99 = s.quantile_ns(0.99);
        // True p50 = 50ms, inside the (25ms, 50ms] bucket.
        assert!((25_000_000..=50_000_000).contains(&p50), "p50={p50}");
        // True p95 = 95ms, inside the (50ms, 100ms] bucket.
        assert!((50_000_000..=100_000_000).contains(&p95), "p95={p95}");
        assert!(p99 >= p95 && p95 >= p50, "quantiles must be monotone");
        // Interpolation should land within one bucket-width of truth.
        assert!((p50 as i64 - 50_000_000).unsigned_abs() <= 25_000_000);
        assert!((p95 as i64 - 95_000_000).unsigned_abs() <= 50_000_000);

        // A point mass: every observation in one bucket — all quantiles
        // land inside that bucket's bounds.
        let h = Histogram::default();
        for _ in 0..100 {
            h.record_ns(7_000); // 7us -> (5us, 10us]
        }
        let s = h.snapshot();
        for q in [0.5, 0.95, 0.99] {
            let v = s.quantile_ns(q);
            assert!((5_000..=10_000).contains(&v), "q={q} v={v}");
        }

        // Bimodal: 90 fast (≈1us) + 10 slow (≈900ms). p50 sits in the
        // fast mode, p95/p99 in the slow mode.
        let h = Histogram::default();
        for _ in 0..90 {
            h.record_ns(1_000);
        }
        for _ in 0..10 {
            h.record_ns(900_000_000);
        }
        let s = h.snapshot();
        assert!(s.quantile_ns(0.50) <= 1_000);
        assert!(s.quantile_ns(0.95) >= 500_000_000);
        assert!(s.quantile_ns(0.99) >= 500_000_000);

        // Overflow clamps to the last finite bound, empty returns 0.
        let h = Histogram::default();
        h.record_ns(10_000_000_000);
        assert_eq!(h.snapshot().quantile_ns(0.99), 1_000_000 * 1_000);
        let empty = HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            buckets: vec![0; NUM_BUCKETS],
        };
        assert_eq!(empty.quantile_ns(0.5), 0);
    }

    #[test]
    fn snapshot_delta_isolates_a_round() {
        let reg = Registry::new();
        reg.counter("solves").add(10);
        reg.gauge("depth").set(3);
        reg.histogram("lat").record_ns(5_000);
        let before = reg.snapshot();
        reg.counter("solves").add(7);
        reg.counter("fresh").add(2); // appears only after `before`
        reg.gauge("depth").set(9);
        reg.histogram("lat").record_ns(50_000);
        let after = reg.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.counter("solves"), 7);
        assert_eq!(d.counter("fresh"), 2);
        // Gauges pass through as current levels.
        assert_eq!(d.gauge("depth"), 9);
        let lat = &d.histograms["lat"];
        assert_eq!(lat.count, 1);
        assert_eq!(lat.sum_ns, 50_000);
    }

    #[test]
    fn snapshot_json_shape() {
        let reg = Registry::new();
        reg.counter("c").add(4);
        reg.gauge("g").set(2);
        reg.histogram("h").record_ns(10_000);
        let v = reg.snapshot().to_json();
        let text = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        let obj = back.as_object().unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["counters", "gauges", "histograms"]);
    }
}
