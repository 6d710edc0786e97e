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
//! A metric that restates an event — a collective's rounds, an adaptive
//! collective's decision, a pack block — has one writer,
//! `MetricsRegistry::fold_event`, which [`crate::Rank::record`] calls for
//! every event: a key exists only if its event was recorded. Producers of
//! metrics that restate no event (engine totals, collective volumes,
//! scatter applies, V-cycles, wait residuals) write them directly.
//!
//! A rank holds no registry unless the run observes metrics
//! ([`crate::Observers`]); until then instrumented hot paths cost the one
//! `if let Some` on [`crate::Rank::metrics_mut`] — the same contract as
//! [`crate::trace`]. The run's [`crate::Capture`] merges the registries.

use std::borrow::Cow;
use std::sync::LazyLock;

use crate::commmap::millis_to_ratio;
use crate::json::{parse_schema_led, Json, JsonValue, JsonWriter};
use crate::stats::CostKind;
use crate::trace::EventKind;

/// One part of a metric key: borrowed when it is a literal, owned when
/// built at run time (the V-cycle's per-level key, built at set-up).
pub type Label = Cow<'static, str>;

/// A metric stream's name as text: `(subsystem, op, algorithm)`.
/// `algorithm` distinguishes competing implementations of the same
/// operation (`ring` vs `recursive_doubling`, `single-context` vs
/// `dual-context`); it is empty when there is only one.
pub type KeyParts<'a> = (&'a str, &'a str, &'a str);

/// `subsystem/op` or `subsystem/op/algorithm` — a key's display form.
fn path((subsystem, op, algorithm): KeyParts<'_>) -> String {
    if algorithm.is_empty() {
        format!("{subsystem}/{op}")
    } else {
        format!("{subsystem}/{op}/{algorithm}")
    }
}

/// A stored key: the three [`Label`]s a stream was first recorded under,
/// ordered part by part. A literal part is borrowed, so a key of literals
/// allocates nothing.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key(Label, Label, Label);

impl Key {
    fn parts(&self) -> KeyParts<'_> {
        (&self.0, &self.1, &self.2)
    }
}

/// One family of streams (the counters, the gauges or the histograms):
/// every key in key order with its value, the order every read walks,
/// binary-searched by text.
#[derive(Clone, Debug)]
struct Family<V>(Vec<(Key, V)>);

impl<V> Default for Family<V> {
    fn default() -> Self {
        Family(Vec::new())
    }
}

impl<V: Default> Family<V> {
    /// The value under `key`, created empty on first use.
    fn slot(&mut self, key: Key) -> &mut V {
        let at = match self.find(key.parts()) {
            Ok(at) => at,
            Err(at) => {
                self.0.insert(at, (key, V::default()));
                at
            }
        };
        &mut self.0[at].1
    }

    /// Where `parts` is in key order, or where it would go.
    fn find(&self, parts: KeyParts<'_>) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.parts().cmp(&parts))
    }

    fn get(&self, parts: KeyParts<'_>) -> Option<&V> {
        let at = self.find(parts).ok()?;
        Some(&self.0[at].1)
    }

    /// Every stream in key order.
    fn iter(&self) -> impl Iterator<Item = (&Key, &V)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
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
/// path, `subsystem/op[/algorithm]` (ops and algorithms contain `/`, so a
/// path does not split back into a key), each family in key order.
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
/// read: they follow from the buckets. What the writer never writes is an
/// error naming the key: a gauge that is neither a number nor `null` (a
/// non-finite gauge, which reads back as NaN), a bucket that is empty or
/// repeated, bucket counts that do not sum to `count`, and a nonempty
/// histogram whose `min` exceeds its `max`.
pub fn parse_metrics(text: &str) -> Result<MetricsSnapshot, String> {
    let v = parse_schema_led(text)?;
    let m = v.field("metrics")?;
    let keyed = |item: &Json| Ok::<_, String>(item.str("key")?.to_string());
    Ok(MetricsSnapshot {
        counters: m.list("counters", |c| Ok((keyed(c)?, c.u64("value")?)))?,
        gauges: m.list("gauges", |g| {
            let (key, value) = (keyed(g)?, g.field("value")?);
            let nan = matches!(value, Json::Null).then_some(f64::NAN);
            let number = value.as_f64().or(nan);
            let bad = || format!("{key}: a gauge is a number or null");
            Ok((key.clone(), number.ok_or_else(bad)?))
        })?,
        histograms: m.list("histograms", |h| {
            let key = keyed(h)?;
            let mut out = Histogram {
                count: h.u64("count")?,
                sum: h.u64("sum")?,
                min: h.u64("min")?,
                max: h.u64("max")?,
                ..Histogram::default()
            };
            for [bound, count] in h.list("buckets", Json::counts)? {
                let i = bucket_index(bound);
                if bucket_bound(i) != bound || count == 0 || out.buckets[i] != 0 {
                    let bad = "not a log2 bucket bound, empty or repeated";
                    return Err(format!("{key}: \"buckets\": {bound} is {bad}"));
                }
                out.buckets[i] = count;
            }
            let counted = out.buckets.iter().fold(0u64, |n, &c| n.saturating_add(c));
            if counted != out.count || (out.count > 0 && out.min > out.max) {
                return Err(format!("{key}: the buckets, count, min and max disagree"));
            }
            if out.count == 0 {
                out.min = u64::MAX;
            }
            Ok((key, out))
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

/// The key of each slot of [`TIME_KEY_ORDER`], for the reads that merge
/// the slots into the keyed counters.
static TIME_KEYS: LazyLock<[Key; 5]> =
    LazyLock::new(|| TIME_KEY_ORDER.map(|k| Key("time".into(), k.label().into(), "".into())));

/// The cost kind whose slot holds `subsystem/op/algorithm`, if any.
fn time_slot(subsystem: &str, op: &str, algorithm: &str) -> Option<CostKind> {
    if subsystem != "time" || !algorithm.is_empty() {
        return None;
    }
    CostKind::ALL.into_iter().find(|k| k.label() == op)
}

/// Per-rank registry of named metrics; see the module docs.
///
/// Recording calls take each key part as a [`Label`]: a literal is
/// borrowed (a key of literals allocates nothing) and a part built at run
/// time is passed owned; the stream is found by its text. They are
/// never inlined, so the collective paths that call them keep their
/// frames, which every rank's fiber stack holds, as small with metrics
/// off as before.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    /// The `time/<kind>` counters, indexed by `CostKind as usize`: `None`
    /// until the first charge (of any size) creates the key. No key in
    /// `counters` is ever one of these.
    time: [Option<u64>; 5],
    /// Boxed, so a registry stays small where it is held inline: every
    /// rank's fiber stack holds its rank, observed or not.
    keyed: Box<Keyed>,
}

/// The keyed streams of a [`MetricsRegistry`], one family per kind.
#[derive(Clone, Debug, Default)]
struct Keyed {
    counters: Family<u64>,
    gauges: Family<f64>,
    histograms: Family<Histogram>,
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

    /// Write the keys `kind` restates: the one writer of every metric
    /// derived from an event, called by [`crate::Rank::record`] for each
    /// event while metrics are on, so a key exists only if its event was
    /// recorded.
    ///
    /// - a [`EventKind::Round`] of `<collective>/<algorithm>` counts
    ///   `<collective>/rounds/<algorithm>` (an op without `/` counts
    ///   `<op>/rounds`);
    /// - an [`EventKind::AlgoDecision`] counts `decision` and
    ///   `decision_reason`, samples `decision_bytes`, and sets the
    ///   `decision_ratio` gauge to the event's thousandths when they are
    ///   finite;
    /// - a [`EventKind::PackBlock`] writes six `datatype/*` keys under its
    ///   engine: seek, look-ahead and byte histograms, and the block, seek
    ///   and density counters.
    ///
    /// Every other kind writes nothing.
    #[inline(never)]
    pub(crate) fn fold_event(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::Round { op, .. } => {
                let (collective, algorithm) = op.split_once('/').unwrap_or((op, ""));
                self.counter_add(collective, "rounds", algorithm, 1);
            }
            EventKind::AlgoDecision {
                collective,
                total_bytes,
                ratio_millis,
                chosen,
                reason,
                ..
            } => {
                self.counter_add("decision", collective, chosen, 1);
                self.counter_add("decision_reason", collective, reason, 1);
                let ratio = millis_to_ratio(ratio_millis);
                if ratio.is_finite() {
                    self.gauge_set("decision_ratio", collective, chosen, ratio);
                }
                self.observe("decision_bytes", collective, chosen, total_bytes);
            }
            EventKind::PackBlock {
                engine,
                sparse,
                seek,
                lookahead,
                bytes,
                ..
            } => {
                self.observe("datatype", "seek_segments", engine, seek);
                self.observe("datatype", "lookahead_window", engine, lookahead);
                self.observe("datatype", "block_bytes", engine, bytes);
                self.counter_add("datatype", "blocks", engine, 1);
                self.counter_add("datatype", "seek_total", engine, seek);
                let density = ["dense_blocks", "sparse_blocks"][usize::from(sparse)];
                self.counter_add("datatype", density, engine, 1);
            }
            _ => {}
        }
    }

    /// Add `delta` to a counter (creating it at zero).
    #[inline(never)]
    pub fn counter_add(
        &mut self,
        subsystem: impl Into<Label>,
        op: impl Into<Label>,
        algorithm: impl Into<Label>,
        delta: u64,
    ) {
        let key = Key(subsystem.into(), op.into(), algorithm.into());
        if let Some(kind) = time_slot(&key.0, &key.1, &key.2) {
            self.charge_time(kind, delta);
            return;
        }
        *self.keyed.counters.slot(key) += delta;
    }

    /// Set a gauge to its latest observed value.
    #[inline(never)]
    pub fn gauge_set(
        &mut self,
        subsystem: impl Into<Label>,
        op: impl Into<Label>,
        algorithm: impl Into<Label>,
        value: f64,
    ) {
        let key = Key(subsystem.into(), op.into(), algorithm.into());
        *self.keyed.gauges.slot(key) = value;
    }

    /// Record one sample into a histogram (creating it empty).
    #[inline(never)]
    pub fn observe(
        &mut self,
        subsystem: impl Into<Label>,
        op: impl Into<Label>,
        algorithm: impl Into<Label>,
        value: u64,
    ) {
        let key = Key(subsystem.into(), op.into(), algorithm.into());
        self.keyed.histograms.slot(key).record(value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, subsystem: &str, op: &str, algorithm: &str) -> u64 {
        let value = match time_slot(subsystem, op, algorithm) {
            Some(kind) => self.time[kind as usize],
            None => self.keyed.counters.get((subsystem, op, algorithm)).copied(),
        };
        value.unwrap_or(0)
    }

    /// Latest value of a gauge, if ever set.
    pub fn gauge(&self, subsystem: &str, op: &str, algorithm: &str) -> Option<f64> {
        self.keyed.gauges.get((subsystem, op, algorithm)).copied()
    }

    /// A histogram, if any sample was ever recorded under the key.
    pub fn histogram(&self, subsystem: &str, op: &str, algorithm: &str) -> Option<&Histogram> {
        self.keyed.histograms.get((subsystem, op, algorithm))
    }

    /// Every counter in key order, the `time/<kind>` slots merged in.
    pub fn counters(&self) -> impl Iterator<Item = (KeyParts<'_>, u64)> {
        self.counter_keys().map(|(k, v)| (k.parts(), v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (KeyParts<'_>, f64)> {
        self.keyed.gauges.iter().map(|(k, &v)| (k.parts(), v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (KeyParts<'_>, &Histogram)> {
        self.keyed.histograms.iter().map(|(k, h)| (k.parts(), h))
    }

    /// [`MetricsRegistry::counters`] with the stored keys.
    fn counter_keys(&self) -> impl Iterator<Item = (&Key, u64)> {
        let mut named = self.keyed.counters.iter().map(|(k, &v)| (k, v)).peekable();
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

    pub fn is_empty(&self) -> bool {
        self.counters().next().is_none()
            && self.keyed.gauges.is_empty()
            && self.keyed.histograms.is_empty()
    }

    /// The registry as it exports: keys as paths, families in key order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters().map(|(k, v)| (path(k), v)).collect(),
            gauges: self.gauges().map(|(k, v)| (path(k), v)).collect(),
            histograms: self
                .histograms()
                .map(|(k, h)| (path(k), h.clone()))
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
        for (k, v) in other.keyed.counters.iter() {
            *self.keyed.counters.slot(k.clone()) += v;
        }
        for (k, &v) in other.keyed.gauges.iter() {
            let merged = self.keyed.gauges.get(k.parts()).map_or(v, |g| g.max(v));
            *self.keyed.gauges.slot(k.clone()) = merged;
        }
        for (k, h) in other.keyed.histograms.iter() {
            self.keyed.histograms.slot(k.clone()).merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

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
    fn parse_metrics_refuses_what_the_writer_never_writes() {
        let doc = |gauge: &str, histogram: &str| {
            format!(
                "{{\"schema\":1,\"metrics\":{{\"counters\":[],\
                 \"gauges\":[{{\"key\":\"g/x\",\"value\":{gauge}}}],\
                 \"histograms\":[{{\"key\":\"h/x\",{histogram}}}]}}}}"
            )
        };
        let histogram = |count: u64, (min, max): (u64, u64), buckets: &str| {
            format!(
                "\"count\":{count},\"sum\":13,\"min\":{min},\"max\":{max},\
                 \"p50\":7,\"p90\":7,\"p99\":7,\"buckets\":[{buckets}]"
            )
        };
        let fine = histogram(3, (1, 6), "[1,1],[7,2]");
        let parsed = parse_metrics(&doc("1.5", &fine)).expect("a written document");
        assert_eq!(parsed.gauges, vec![("g/x".to_string(), 1.5)]);
        assert_eq!(parsed.histograms[0].1.p50(), 7);
        let null = parse_metrics(&doc("null", &fine)).expect("a non-finite gauge");
        assert!(null.gauges[0].1.is_nan());
        for (what, gauge, histogram) in [
            (
                "bucket counts short of count",
                "1.5",
                histogram(4, (1, 6), "[1,1],[7,2]"),
            ),
            ("a bound twice", "1.5", histogram(3, (1, 6), "[7,1],[7,2]")),
            (
                "an empty bucket",
                "1.5",
                histogram(3, (1, 6), "[1,3],[7,0]"),
            ),
            ("min above max", "1.5", histogram(3, (6, 1), "[1,1],[7,2]")),
            ("a string gauge", "\"1.5\"", fine.clone()),
            ("a bool gauge", "true", fine.clone()),
        ] {
            let err = parse_metrics(&doc(gauge, &histogram)).expect_err(what);
            let key = if gauge == "1.5" { "h/x" } else { "g/x" };
            assert!(err.contains(key), "{what}: {err}");
        }
    }

    #[test]
    fn key_paths_elide_empty_algorithm() {
        assert_eq!(path(("a", "b", "")), "a/b");
        assert_eq!(path(("a", "b", "c")), "a/b/c");
    }

    #[test]
    fn time_slots_are_in_key_order() {
        let mut sorted = TIME_KEYS.to_vec();
        sorted.sort();
        assert_eq!(sorted, *TIME_KEYS);
        for (kind, key) in TIME_KEY_ORDER.iter().zip(TIME_KEYS.iter()) {
            assert_eq!(path(key.parts()), format!("time/{}", kind.label()));
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

    /// A key as the registry stored it before it held [`Label`]s: three
    /// owned strings, built on every call.
    type OwnedKey = (String, String, String);

    fn owned_key(subsystem: &str, op: &str, algorithm: &str) -> OwnedKey {
        (subsystem.into(), op.into(), algorithm.into())
    }

    fn owned_path(k: &OwnedKey) -> String {
        path((&k.0, &k.1, &k.2))
    }

    /// The registry as it was before the `time/<kind>` slots and the
    /// label keys: every family one `BTreeMap` of [`OwnedKey`]s. The
    /// oracle of every read.
    #[derive(Default)]
    struct Reference {
        counters: BTreeMap<OwnedKey, u64>,
        gauges: BTreeMap<OwnedKey, f64>,
        histograms: BTreeMap<OwnedKey, Histogram>,
    }

    impl Reference {
        fn counter_add(&mut self, subsystem: &str, op: &str, algorithm: &str, delta: u64) {
            *self
                .counters
                .entry(owned_key(subsystem, op, algorithm))
                .or_insert(0) += delta;
        }

        fn gauge_set(&mut self, subsystem: &str, op: &str, algorithm: &str, value: f64) {
            self.gauges
                .insert(owned_key(subsystem, op, algorithm), value);
        }

        fn observe(&mut self, subsystem: &str, op: &str, algorithm: &str, value: u64) {
            self.histograms
                .entry(owned_key(subsystem, op, algorithm))
                .or_default()
                .record(value);
        }

        fn counter(&self, subsystem: &str, op: &str, algorithm: &str) -> u64 {
            self.counters
                .get(&owned_key(subsystem, op, algorithm))
                .copied()
                .unwrap_or(0)
        }

        fn is_empty(&self) -> bool {
            self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
        }

        fn snapshot(&self) -> MetricsSnapshot {
            MetricsSnapshot {
                counters: self
                    .counters
                    .iter()
                    .map(|(k, &v)| (owned_path(k), v))
                    .collect(),
                gauges: self
                    .gauges
                    .iter()
                    .map(|(k, &v)| (owned_path(k), v))
                    .collect(),
                histograms: self
                    .histograms
                    .iter()
                    .map(|(k, h)| (owned_path(k), h.clone()))
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
    }

    impl Reference {
        /// What the producers wrote beside each event before the fold:
        /// the metrics blocks of `Comm::round`, `Comm::audit_decision` and
        /// `Comm::pack_pipeline`'s block loop, as they were, but for a
        /// `Round` op without `/`, which counts under `<op>/rounds`.
        fn producers(&mut self, kind: &EventKind) {
            let m = self;
            match *kind {
                EventKind::Round { op, .. } => {
                    let (collective, algorithm) = op.split_once('/').unwrap_or((op, ""));
                    m.counter_add(collective, "rounds", algorithm, 1);
                }
                EventKind::AlgoDecision {
                    collective,
                    total_bytes,
                    ratio_millis,
                    chosen,
                    reason,
                    ..
                } => {
                    m.counter_add("decision", collective, chosen, 1);
                    m.counter_add("decision_reason", collective, reason, 1);
                    let ratio = millis_to_ratio(ratio_millis);
                    if ratio.is_finite() {
                        m.gauge_set("decision_ratio", collective, chosen, ratio);
                    }
                    m.observe("decision_bytes", collective, chosen, total_bytes);
                }
                EventKind::PackBlock {
                    engine: name,
                    sparse,
                    seek,
                    lookahead,
                    bytes,
                    ..
                } => {
                    m.observe("datatype", "seek_segments", name, seek);
                    m.observe("datatype", "lookahead_window", name, lookahead);
                    m.observe("datatype", "block_bytes", name, bytes);
                    m.counter_add("datatype", "blocks", name, 1);
                    m.counter_add("datatype", "seek_total", name, seek);
                    let density = if sparse {
                        "sparse_blocks"
                    } else {
                        "dense_blocks"
                    };
                    m.counter_add("datatype", density, name, 1);
                }
                _ => {}
            }
        }
    }

    /// One of `pool`'s labels.
    fn pick(pool: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
        (0..pool.len()).prop_map(move |i| pool[i])
    }

    /// The kinds the fold reads — rounds with and without `/`, decisions
    /// with finite and infinite ratios, sparse and dense pack blocks — and
    /// two it must leave alone.
    fn any_event() -> impl Strategy<Value = EventKind> {
        const OPS: &[&str] = &["allgatherv/ring", "alltoallw/binned", "done", "warm-up"];
        const COLLECTIVES: &[&str] = &["allgatherv", "alltoallw"];
        const CHOSEN: &[&str] = &["ring", "recursive_doubling", "binned"];
        const REASONS: &[&str] = &["pinned", "outliers: binomial movement"];
        const ENGINES: &[&str] = &["single-context", "dual-context"];
        let size = || prop_oneof![Just(0u64), 0u64..1 << 24];
        let millis = prop_oneof![0u64..100_000, Just(u64::MAX)];
        prop_oneof![
            (pick(OPS), 0u32..4).prop_map(|(op, round)| EventKind::Round { op, round }),
            (
                pick(COLLECTIVES),
                0usize..64,
                size(),
                millis,
                pick(CHOSEN),
                pick(REASONS)
            )
                .prop_map(
                    |(collective, n, total_bytes, ratio_millis, chosen, reason)| {
                        EventKind::AlgoDecision {
                            collective,
                            n,
                            total_bytes,
                            ratio_millis,
                            pow2: n.is_power_of_two(),
                            chosen,
                            reason,
                        }
                    }
                ),
            (pick(ENGINES), any::<bool>(), size(), size(), size()).prop_map(
                |(engine, sparse, seek, lookahead, bytes)| EventKind::PackBlock {
                    engine,
                    index: seek % 7,
                    sparse,
                    seek,
                    lookahead,
                    bytes,
                }
            ),
            Just(EventKind::IrecvPost { src: None, tag: 3 }),
            Just(EventKind::SendWait {
                residual: crate::SimTime(5)
            }),
        ]
    }

    /// Key parts that land in a slot, beside it (`time/comm/ring`,
    /// `time/comn`) and far from it.
    const SUBSYSTEMS: [&str; 4] = ["time", "tima", "coll", "datatype"];
    const OPS: [&str; 8] = [
        "comm", "compute", "pack", "search", "wait", "comn", "rounds", "x",
    ];
    const ALGORITHMS: [&str; 4] = ["", "ring", "a", "rin"];

    /// How a key part reaches the registry: a literal, or text built at
    /// run time — an owned `String` (the V-cycle's `l{lev}`) or a slice of
    /// one copied out.
    #[derive(Clone, Copy, Debug)]
    enum Text {
        Literal,
        Owned,
        Sliced,
    }

    /// Part `i` of `pool` as a [`Label`] reached the way `how` says.
    fn label(pool: &[&'static str], (i, how): (usize, Text)) -> Label {
        match how {
            Text::Literal => pool[i].into(),
            Text::Owned => pool[i].to_string().into(),
            Text::Sliced => format!("mg_vcycle_{}", pool[i])[10..].to_owned().into(),
        }
    }

    type PartsIx = [(usize, Text); 3];

    #[derive(Clone, Debug)]
    enum Op {
        Counter(PartsIx, u64),
        Observe(PartsIx, u64),
        Gauge(PartsIx, f64),
        Charge(CostKind, u64),
    }

    fn any_part(len: usize) -> impl Strategy<Value = (usize, Text)> {
        let how = prop_oneof![Just(Text::Literal), Just(Text::Owned), Just(Text::Sliced)];
        (0..len, how)
    }

    fn any_op() -> impl Strategy<Value = Op> {
        let key = || {
            (
                any_part(SUBSYSTEMS.len()),
                any_part(OPS.len()),
                any_part(ALGORITHMS.len()),
            )
                .prop_map(|(s, o, a)| [s, o, a])
        };
        let amount = prop_oneof![Just(0u64), 0u64..1 << 20];
        prop_oneof![
            (key(), amount.clone()).prop_map(|(k, d)| Op::Counter(k, d)),
            (key(), amount.clone()).prop_map(|(k, v)| Op::Observe(k, v)),
            (key(), -1000i64..1000).prop_map(|(k, v)| Op::Gauge(k, v as f64 / 8.0)),
            (0..CostKind::ALL.len(), amount).prop_map(|(k, ns)| Op::Charge(CostKind::ALL[k], ns)),
        ]
    }

    /// Up to `len` ops, each repeated one to three times in a row, so an
    /// existing key is looked up again through every kind of text.
    fn any_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((any_op(), 1usize..4), 0..len).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(op, n)| std::iter::repeat_n(op, n))
                .collect()
        })
    }

    fn apply(ops: &[Op], reg: &mut MetricsRegistry, reference: &mut Reference) {
        let labels =
            |[s, o, a]: PartsIx| (label(&SUBSYSTEMS, s), label(&OPS, o), label(&ALGORITHMS, a));
        let text = |[s, o, a]: PartsIx| (SUBSYSTEMS[s.0], OPS[o.0], ALGORITHMS[a.0]);
        for op in ops {
            match *op {
                Op::Counter(k, d) => {
                    let (s, o, a) = labels(k);
                    reg.counter_add(s, o, a, d);
                    let (s, o, a) = text(k);
                    reference.counter_add(s, o, a, d);
                }
                Op::Observe(k, v) => {
                    let (s, o, a) = labels(k);
                    reg.observe(s, o, a, v);
                    let (s, o, a) = text(k);
                    reference.observe(s, o, a, v);
                }
                Op::Gauge(k, v) => {
                    let (s, o, a) = labels(k);
                    reg.gauge_set(s, o, a, v);
                    let (s, o, a) = text(k);
                    reference.gauge_set(s, o, a, v);
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
        let counters: Vec<(KeyParts<'_>, u64)> = reg.counters().collect();
        let want: Vec<(KeyParts<'_>, u64)> = reference
            .counters
            .iter()
            .map(|(k, &v)| ((k.0.as_str(), k.1.as_str(), k.2.as_str()), v))
            .collect();
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
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Events recorded through `Rank::record` with metrics on, traced
        /// or not, leave the registry the producers' blocks left.
        #[test]
        fn recorded_events_fold_to_what_their_producers_wrote(
            events in proptest::collection::vec(any_event(), 0..24),
            trace in any::<bool>(),
        ) {
            let observers = crate::Observers {
                metrics: true,
                trace,
                ..crate::Observers::NONE
            };
            let cluster = crate::ClusterConfig::uniform(1).observe(observers);
            let recorded = events.clone();
            let (_, capture) = crate::Cluster::new(cluster)
                .try_run(move |r| {
                    for kind in recorded.iter().cloned() {
                        r.record(r.now(), kind);
                    }
                })
                .unwrap();
            let mut reference = Reference::default();
            for kind in &events {
                reference.producers(kind);
            }
            same_reads(&capture.metrics.expect("metered"), &reference)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slotted_registry_reads_like_the_all_map_reference(
            before in any_ops(16),
            other in any_ops(16),
            after in any_ops(6),
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
