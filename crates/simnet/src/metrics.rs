//! Per-rank metrics registry: named counters, gauges and log₂-bucketed
//! histograms keyed by `(subsystem, op, algorithm)`.
//!
//! The flat [`crate::Stats`] struct answers "where did the lifetime total
//! go"; this registry answers the distribution questions the datatype
//! literature demands (per-operation, per-size, per-algorithm): is
//! `allgatherv/ring` slower than `allgatherv/recursive_doubling` *for this
//! volume shape*, what is the p99 packed-block size, how often did the
//! outlier detector fire. Registries are per rank (no locks — each rank is
//! a thread that owns its own) and [`MetricsRegistry::merge`]able into a
//! cluster-wide view after the run.
//!
//! The per-kind `time/<kind>` counters (the Figure 13 breakdown, charged
//! on every clock advance) live in one fixed slot per [`CostKind`] rather
//! than in the key map: a charge is one array add. A slot is absent until
//! its first charge, as a map key would be, and every read — `counter`,
//! `counters`, `snapshot`, `render`, `merge`, `is_empty` — presents the
//! slots as `time/<label>` keys in key order, so nothing outside this
//! module can tell the two stores apart. `counter_add("time", <label>,
//! "", n)` lands in the same slot.
//!
//! A rank holds no registry unless the run observes metrics
//! ([`crate::Observers`]); until then instrumented hot paths cost the one
//! `if let Some` on [`crate::Rank::metrics_mut`] — the same contract as
//! [`crate::trace`]. The run's [`crate::Capture`] merges the registries.

use std::collections::BTreeMap;
use std::sync::LazyLock;

use crate::json::{parse_schema_led, Json, JsonValue, JsonWriter};
use crate::stats::CostKind;

/// Identifies one metric stream. `algorithm` distinguishes competing
/// implementations of the same operation (`ring` vs `recursive_doubling`,
/// `single-context` vs `dual-context`); leave it empty when there is only
/// one.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    pub subsystem: String,
    pub op: String,
    pub algorithm: String,
}

impl MetricKey {
    pub fn new(subsystem: &str, op: &str, algorithm: &str) -> Self {
        MetricKey {
            subsystem: subsystem.to_string(),
            op: op.to_string(),
            algorithm: algorithm.to_string(),
        }
    }

    /// `subsystem/op` or `subsystem/op/algorithm` — the display form.
    pub fn path(&self) -> String {
        if self.algorithm.is_empty() {
            format!("{}/{}", self.subsystem, self.op)
        } else {
            format!("{}/{}/{}", self.subsystem, self.op, self.algorithm)
        }
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i` (1..=64)
/// holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index of a value: 0 for 0, otherwise its bit length.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` — the value a quantile query
/// reports for samples landing in that bucket.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log₂-bucketed histogram of `u64` samples (latencies in ns, sizes in
/// bytes, counts). Constant memory, exact count/sum/min/max, quantiles
/// resolved to the bucket's upper bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum recorded value (0 on an empty histogram).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value below which a fraction `q` (in `[0, 1]`) of the samples
    /// fall, resolved to the containing bucket's upper bound. Returns 0 on
    /// an empty histogram. Monotone in `q` by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        // Rank of the sample the quantile refers to (1-based, ceil — the
        // "nearest rank" definition, exact for q=1.0).
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.9)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one (cluster-wide aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, for export.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bound(i), c))
    }
}

/// A registry as its JSON export holds it: every key flattened to its
/// [`MetricKey::path`] (ops and algorithms contain `/`, so a path does not
/// split back into a key), each family in key order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, Histogram)>,
}

/// `{"counters":[…],"gauges":[…],"histograms":[…]}`: histograms with
/// count/sum/min/max, p50/p90/p99, and the non-empty log₂ buckets as
/// `[upper_bound, count]` pairs.
impl JsonValue for MetricsSnapshot {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.objects("counters", &self.counters, |w, (k, v)| {
                w.field("key", k).field("value", v);
            });
            w.objects("gauges", &self.gauges, |w, (k, v)| {
                w.field("key", k).field("value", v);
            });
            w.objects("histograms", &self.histograms, |w, (k, h)| {
                w.field("key", k).field("count", h.count());
                w.field("sum", h.sum()).field("min", h.min());
                w.field("max", h.max()).field("p50", h.p50());
                w.field("p90", h.p90()).field("p99", h.p99());
                w.key("buckets").array(|w| {
                    for bucket in h.nonzero_buckets() {
                        w.value(bucket);
                    }
                });
            });
        });
    }
}

/// JSON snapshot of a metrics registry (unversioned: embedded in reports).
pub fn metrics_json(reg: &MetricsRegistry) -> String {
    let mut w = JsonWriter::new();
    w.value(reg.snapshot());
    w.finish()
}

/// The `metrics.json` ledger artifact: the snapshot under the shared
/// schema version, `{"schema":…,"metrics":{…}}`.
pub fn metrics_artifact_json(snapshot: &MetricsSnapshot) -> String {
    JsonWriter::schema_led(|w| {
        w.field("metrics", snapshot);
    })
}

/// Read a [`metrics_artifact_json`] document back. The quantiles are not
/// read: they follow from the buckets.
pub fn parse_metrics(text: &str) -> Result<MetricsSnapshot, String> {
    let v = parse_schema_led(text)?;
    let m = v.field("metrics")?;
    let keyed = |item: &Json| Ok::<_, String>(item.str("key")?.to_string());
    Ok(MetricsSnapshot {
        counters: m.list("counters", |c| Ok((keyed(c)?, c.u64("value")?)))?,
        gauges: m.list("gauges", |g| {
            let value = g.field("value")?.as_f64().unwrap_or(f64::NAN);
            Ok((keyed(g)?, value))
        })?,
        histograms: m.list("histograms", |h| {
            let mut out = Histogram {
                count: h.u64("count")?,
                sum: h.u64("sum")?,
                min: h.u64("min")?,
                max: h.u64("max")?,
                ..Histogram::default()
            };
            if out.count == 0 {
                out.min = u64::MAX;
            }
            for [bound, count] in h.list("buckets", Json::counts)? {
                let i = bucket_index(bound);
                if bucket_bound(i) != bound {
                    return Err(format!("\"buckets\": {bound} is not a log2 bucket bound"));
                }
                out.buckets[i] = count;
            }
            Ok((keyed(h)?, out))
        })?,
    })
}

/// The `time/<kind>` slots in key order (`time/comm` < `time/compute` <
/// …), the order every read merges them into the other counters.
const TIME_KEY_ORDER: [CostKind; 5] = [
    CostKind::Comm,
    CostKind::Compute,
    CostKind::Pack,
    CostKind::Search,
    CostKind::Wait,
];

/// The key of each slot of [`TIME_KEY_ORDER`], for the reads that hand
/// out `&MetricKey`.
static TIME_KEYS: LazyLock<[MetricKey; 5]> =
    LazyLock::new(|| TIME_KEY_ORDER.map(|k| MetricKey::new("time", k.label(), "")));

/// The cost kind whose slot holds `subsystem/op/algorithm`, if any.
fn time_slot(subsystem: &str, op: &str, algorithm: &str) -> Option<CostKind> {
    if subsystem != "time" || !algorithm.is_empty() {
        return None;
    }
    CostKind::ALL.into_iter().find(|k| k.label() == op)
}

/// Per-rank registry of named metrics; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    /// The `time/<kind>` counters, indexed by `CostKind as usize`: `None`
    /// until the first charge (of any size) creates the key. No key in
    /// `counters` is ever one of these.
    time: [Option<u64>; 5],
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry (a registry that exists records; the name is the
    /// one the benchmark froze).
    pub fn enabled() -> Self {
        Self::default()
    }

    /// Add `ns` to the `time/<kind>` counter (creating it at zero): the
    /// per-charge write of [`crate::Rank`]'s clock.
    pub(crate) fn charge_time(&mut self, kind: CostKind, ns: u64) {
        *self.time[kind as usize].get_or_insert(0) += ns;
    }

    /// Add `delta` to a counter (creating it at zero).
    pub fn counter_add(&mut self, subsystem: &str, op: &str, algorithm: &str, delta: u64) {
        if let Some(kind) = time_slot(subsystem, op, algorithm) {
            self.charge_time(kind, delta);
            return;
        }
        *self
            .counters
            .entry(MetricKey::new(subsystem, op, algorithm))
            .or_insert(0) += delta;
    }

    /// Set a gauge to its latest observed value.
    pub fn gauge_set(&mut self, subsystem: &str, op: &str, algorithm: &str, value: f64) {
        self.gauges
            .insert(MetricKey::new(subsystem, op, algorithm), value);
    }

    /// Record one sample into a histogram (creating it empty).
    pub fn observe(&mut self, subsystem: &str, op: &str, algorithm: &str, value: u64) {
        self.histograms
            .entry(MetricKey::new(subsystem, op, algorithm))
            .or_default()
            .record(value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, subsystem: &str, op: &str, algorithm: &str) -> u64 {
        let value = match time_slot(subsystem, op, algorithm) {
            Some(kind) => self.time[kind as usize],
            None => self
                .counters
                .get(&MetricKey::new(subsystem, op, algorithm))
                .copied(),
        };
        value.unwrap_or(0)
    }

    /// Latest value of a gauge, if ever set.
    pub fn gauge(&self, subsystem: &str, op: &str, algorithm: &str) -> Option<f64> {
        self.gauges
            .get(&MetricKey::new(subsystem, op, algorithm))
            .copied()
    }

    /// A histogram, if any sample was ever recorded under the key.
    pub fn histogram(&self, subsystem: &str, op: &str, algorithm: &str) -> Option<&Histogram> {
        self.histograms
            .get(&MetricKey::new(subsystem, op, algorithm))
    }

    /// Every counter in key order, the `time/<kind>` slots merged in.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        let mut named = self.counters.iter().map(|(k, &v)| (k, v)).peekable();
        let mut time = TIME_KEY_ORDER
            .iter()
            .zip(TIME_KEYS.iter())
            .filter_map(|(&kind, key)| Some((key, self.time[kind as usize]?)))
            .peekable();
        std::iter::from_fn(move || match (named.peek(), time.peek()) {
            (Some((n, _)), Some((t, _))) if t < n => time.next(),
            (Some(_), _) => named.next(),
            (None, _) => time.next(),
        })
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Histogram)> {
        self.histograms.iter()
    }

    pub fn is_empty(&self) -> bool {
        self.counters().next().is_none() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The registry as it exports: keys as paths, families in key order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters().map(|(k, v)| (k.path(), v)).collect(),
            gauges: self.gauges().map(|(k, v)| (k.path(), v)).collect(),
            histograms: self
                .histograms()
                .map(|(k, h)| (k.path(), h.clone()))
                .collect(),
        }
    }

    /// Merge another rank's registry into this one: counters and histogram
    /// buckets add; gauges keep the maximum (the only order-independent
    /// choice for a last-value metric aggregated across ranks).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for kind in CostKind::ALL {
            if let Some(ns) = other.time[kind as usize] {
                self.charge_time(kind, ns);
            }
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges
                .entry(k.clone())
                .and_modify(|g| *g = g.max(v))
                .or_insert(v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Human-readable dump: counters, gauges, then histograms with
    /// count/mean/p50/p90/p99/max.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut counters = self.counters().peekable();
        if counters.peek().is_some() {
            out.push_str("counters:\n");
            for (k, v) in counters {
                out.push_str(&format!("  {:<46} {v}\n", k.path()));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {:<46} {v:.3}\n", k.path()));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "histograms: {:<34} {:>9} {:>12} {:>10} {:>10} {:>10} {:>12}\n",
                "", "count", "mean", "p50", "p90", "p99", "max"
            ));
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {:<44} {:>9} {:>12.1} {:>10} {:>10} {:>10} {:>12}\n",
                    k.path(),
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 221.2).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_bucket_bounds_and_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // p50 of 1..=1000 is 500, whose bucket [256,512) reports 511.
        assert_eq!(p50, 511);
        assert_eq!(h.quantile(1.0), 1023);
        // Rank clamps to the first sample: value 1 lives in bucket [1,2),
        // whose reported bound is 1.
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3u64, 7, 900, 0, 15] {
            a.record(v);
            whole.record(v);
        }
        for v in [1u64, 1 << 40, 12] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn registry_round_trip() {
        let mut r = MetricsRegistry::enabled();
        r.counter_add("coll", "rounds", "ring", 7);
        r.counter_add("coll", "rounds", "ring", 3);
        r.gauge_set("coll", "ratio", "", 4.5);
        r.gauge_set("coll", "ratio", "", 2.5);
        r.observe("coll", "bytes", "ring", 1024);
        assert_eq!(r.counter("coll", "rounds", "ring"), 10);
        assert_eq!(r.gauge("coll", "ratio", ""), Some(2.5));
        assert_eq!(r.histogram("coll", "bytes", "ring").unwrap().count(), 1);
        assert_eq!(r.histogram("coll", "bytes", "x"), None);
    }

    #[test]
    fn registry_merge_sums_counters_and_maxes_gauges() {
        let mut a = MetricsRegistry::enabled();
        let mut b = MetricsRegistry::enabled();
        a.counter_add("s", "o", "", 2);
        b.counter_add("s", "o", "", 5);
        a.gauge_set("s", "g", "", 1.0);
        b.gauge_set("s", "g", "", 9.0);
        b.gauge_set("s", "g2", "", -3.0);
        a.observe("s", "h", "", 8);
        b.observe("s", "h", "", 64);
        a.merge(&b);
        assert_eq!(a.counter("s", "o", ""), 7);
        assert_eq!(a.gauge("s", "g", ""), Some(9.0));
        assert_eq!(a.gauge("s", "g2", ""), Some(-3.0));
        assert_eq!(a.histogram("s", "h", "").unwrap().count(), 2);
    }

    #[test]
    fn metrics_artifact_round_trips() {
        let reg = crate::ledger::tests::observed_ring().metrics;
        let bare = metrics_json(&reg);
        assert!(bare.starts_with("{\"counters\":[{\"key\":"), "{bare}");
        assert!(
            bare.contains("{\"key\":\"ring/round\",\"value\":1.5}"),
            "{bare}"
        );
        assert!(bare.contains("\"key\":\"ring/block_bytes\",\"count\":16,"));
        assert!(bare.contains("\"buckets\":[[4095,8],[8191,8]]"), "{bare}");
        let json = metrics_artifact_json(&reg.snapshot());
        assert_eq!(json, format!("{{\"schema\":1,\"metrics\":{bare}}}"));
        crate::ledger::tests::assert_round_trip(
            &json,
            parse_metrics,
            metrics_artifact_json,
            ("[4095,8]", "[4096,8]", "\"buckets\""),
        );
        assert_eq!(parse_metrics(&json), Ok(reg.snapshot()));
    }

    #[test]
    fn key_paths_elide_empty_algorithm() {
        assert_eq!(MetricKey::new("a", "b", "").path(), "a/b");
        assert_eq!(MetricKey::new("a", "b", "c").path(), "a/b/c");
    }

    #[test]
    fn render_lists_everything() {
        let mut r = MetricsRegistry::enabled();
        r.counter_add("engine", "search", "single-context", 42);
        r.observe("engine", "bytes", "dual-context", 4096);
        let s = r.render();
        assert!(s.contains("engine/search/single-context"));
        assert!(s.contains("42"));
        assert!(s.contains("engine/bytes/dual-context"));
    }

    #[test]
    fn time_slots_are_in_key_order() {
        let mut sorted = TIME_KEYS.to_vec();
        sorted.sort();
        assert_eq!(sorted, *TIME_KEYS);
        for (kind, key) in TIME_KEY_ORDER.iter().zip(TIME_KEYS.iter()) {
            assert_eq!(key.path(), format!("time/{}", kind.label()));
        }
        let mut kinds = TIME_KEY_ORDER.map(|k| k as usize);
        kinds.sort();
        assert_eq!(kinds, [0, 1, 2, 3, 4], "one slot per kind");
    }

    #[test]
    fn a_zero_charge_creates_its_key() {
        let mut r = MetricsRegistry::enabled();
        assert!(r.is_empty());
        r.charge_time(CostKind::Wait, 0);
        assert!(!r.is_empty());
        assert_eq!(r.snapshot().counters, vec![("time/wait".to_string(), 0)]);
    }

    /// The registry as it was before the `time/<kind>` slots: every
    /// family one `BTreeMap`. The oracle of every read.
    #[derive(Default)]
    struct Reference {
        counters: BTreeMap<MetricKey, u64>,
        gauges: BTreeMap<MetricKey, f64>,
        histograms: BTreeMap<MetricKey, Histogram>,
    }

    impl Reference {
        fn counter_add(&mut self, subsystem: &str, op: &str, algorithm: &str, delta: u64) {
            *self
                .counters
                .entry(MetricKey::new(subsystem, op, algorithm))
                .or_insert(0) += delta;
        }

        fn gauge_set(&mut self, subsystem: &str, op: &str, algorithm: &str, value: f64) {
            self.gauges
                .insert(MetricKey::new(subsystem, op, algorithm), value);
        }

        fn observe(&mut self, subsystem: &str, op: &str, algorithm: &str, value: u64) {
            self.histograms
                .entry(MetricKey::new(subsystem, op, algorithm))
                .or_default()
                .record(value);
        }

        fn counter(&self, subsystem: &str, op: &str, algorithm: &str) -> u64 {
            self.counters
                .get(&MetricKey::new(subsystem, op, algorithm))
                .copied()
                .unwrap_or(0)
        }

        fn is_empty(&self) -> bool {
            self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
        }

        fn snapshot(&self) -> MetricsSnapshot {
            MetricsSnapshot {
                counters: self.counters.iter().map(|(k, &v)| (k.path(), v)).collect(),
                gauges: self.gauges.iter().map(|(k, &v)| (k.path(), v)).collect(),
                histograms: self
                    .histograms
                    .iter()
                    .map(|(k, h)| (k.path(), h.clone()))
                    .collect(),
            }
        }

        fn merge(&mut self, other: &Reference) {
            for (k, v) in &other.counters {
                *self.counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, &v) in &other.gauges {
                self.gauges
                    .entry(k.clone())
                    .and_modify(|g| *g = g.max(v))
                    .or_insert(v);
            }
            for (k, h) in &other.histograms {
                self.histograms.entry(k.clone()).or_default().merge(h);
            }
        }

        fn render(&self) -> String {
            let mut out = String::new();
            if !self.counters.is_empty() {
                out.push_str("counters:\n");
                for (k, v) in &self.counters {
                    out.push_str(&format!("  {:<46} {v}\n", k.path()));
                }
            }
            if !self.gauges.is_empty() {
                out.push_str("gauges:\n");
                for (k, v) in &self.gauges {
                    out.push_str(&format!("  {:<46} {v:.3}\n", k.path()));
                }
            }
            if !self.histograms.is_empty() {
                out.push_str(&format!(
                    "histograms: {:<34} {:>9} {:>12} {:>10} {:>10} {:>10} {:>12}\n",
                    "", "count", "mean", "p50", "p90", "p99", "max"
                ));
                for (k, h) in &self.histograms {
                    out.push_str(&format!(
                        "  {:<44} {:>9} {:>12.1} {:>10} {:>10} {:>10} {:>12}\n",
                        k.path(),
                        h.count(),
                        h.mean(),
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.max()
                    ));
                }
            }
            out
        }
    }

    /// Key parts that land in a slot, beside it (`time/comm/ring`,
    /// `time/comn`) and far from it.
    const SUBSYSTEMS: [&str; 4] = ["time", "tima", "coll", "datatype"];
    const OPS: [&str; 8] = [
        "comm", "compute", "pack", "search", "wait", "comn", "rounds", "x",
    ];
    const ALGORITHMS: [&str; 3] = ["", "ring", "a"];

    #[derive(Clone, Debug)]
    enum Op {
        Counter(usize, usize, usize, u64),
        Observe(usize, usize, usize, u64),
        Gauge(usize, usize, usize, f64),
        Charge(CostKind, u64),
    }

    fn any_op() -> impl Strategy<Value = Op> {
        let key = (0..SUBSYSTEMS.len(), 0..OPS.len(), 0..ALGORITHMS.len());
        let amount = prop_oneof![Just(0u64), 0u64..1 << 20];
        prop_oneof![
            (key.clone(), amount.clone()).prop_map(|((s, o, a), d)| Op::Counter(s, o, a, d)),
            (key.clone(), amount.clone()).prop_map(|((s, o, a), v)| Op::Observe(s, o, a, v)),
            (key, -1000i64..1000).prop_map(|((s, o, a), v)| Op::Gauge(s, o, a, v as f64 / 8.0)),
            (0..CostKind::ALL.len(), amount).prop_map(|(k, ns)| Op::Charge(CostKind::ALL[k], ns)),
        ]
    }

    fn apply(ops: &[Op], reg: &mut MetricsRegistry, reference: &mut Reference) {
        for op in ops {
            match *op {
                Op::Counter(s, o, a, d) => {
                    reg.counter_add(SUBSYSTEMS[s], OPS[o], ALGORITHMS[a], d);
                    reference.counter_add(SUBSYSTEMS[s], OPS[o], ALGORITHMS[a], d);
                }
                Op::Observe(s, o, a, v) => {
                    reg.observe(SUBSYSTEMS[s], OPS[o], ALGORITHMS[a], v);
                    reference.observe(SUBSYSTEMS[s], OPS[o], ALGORITHMS[a], v);
                }
                Op::Gauge(s, o, a, v) => {
                    reg.gauge_set(SUBSYSTEMS[s], OPS[o], ALGORITHMS[a], v);
                    reference.gauge_set(SUBSYSTEMS[s], OPS[o], ALGORITHMS[a], v);
                }
                // What `Rank::charge_span` does, against what it did.
                Op::Charge(kind, ns) => {
                    reg.charge_time(kind, ns);
                    reference.counter_add("time", kind.label(), "", ns);
                }
            }
        }
    }

    /// Every read of `reg` equals the same read of `reference`.
    fn same_reads(reg: &MetricsRegistry, reference: &Reference) -> Result<(), TestCaseError> {
        let counters: Vec<(&MetricKey, u64)> = reg.counters().collect();
        let want: Vec<(&MetricKey, u64)> =
            reference.counters.iter().map(|(k, &v)| (k, v)).collect();
        prop_assert_eq!(&counters, &want, "counters {:?}", counters);
        for s in SUBSYSTEMS {
            for o in OPS {
                for a in ALGORITHMS {
                    prop_assert_eq!(
                        reg.counter(s, o, a),
                        reference.counter(s, o, a),
                        "{}/{}/{}",
                        s,
                        o,
                        a
                    );
                }
            }
        }
        prop_assert_eq!(reg.is_empty(), reference.is_empty());
        let snapshot = reference.snapshot();
        prop_assert_eq!(&reg.snapshot(), &snapshot);
        let mut w = JsonWriter::new();
        w.value(&snapshot);
        prop_assert_eq!(metrics_json(reg), w.finish());
        prop_assert_eq!(reg.render(), reference.render());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slotted_registry_reads_like_the_all_map_reference(
            before in proptest::collection::vec(any_op(), 0..24),
            other in proptest::collection::vec(any_op(), 0..24),
            after in proptest::collection::vec(any_op(), 0..8),
        ) {
            let (mut reg, mut reference) = (MetricsRegistry::enabled(), Reference::default());
            apply(&before, &mut reg, &mut reference);
            same_reads(&reg, &reference)?;
            let (mut reg_b, mut reference_b) = (MetricsRegistry::enabled(), Reference::default());
            apply(&other, &mut reg_b, &mut reference_b);
            reg.merge(&reg_b);
            reference.merge(&reference_b);
            same_reads(&reg, &reference)?;
            apply(&after, &mut reg, &mut reference);
            same_reads(&reg, &reference)?;
        }
    }
}
