//! Epoch time-series history: the temporal layer over the comm map.
//!
//! The comm map ([`crate::commmap`]) answers *who talked to whom* inside
//! one epoch; this module answers *how that changes over time*. When a
//! run observes it ([`crate::Observers`], the one way in; `enable_history`
//! is the frozen benchmark's primitive), every closed epoch — one per
//! auto- or pinned collective call (`<collective>/<algorithm>`) and one per profiling stage
//! (`stage:<path>`) — is kept per rank as the comm map's own
//! [`RankEpoch`] with its simulated close time. The cross-rank merge
//! ([`merge_histories`]) joins them by `(label, occurrence)` with the
//! comm map's join and derives, per cluster-wide epoch, the delivered
//! totals, an order-invariant 64-bit **pattern hash** of the per-source
//! recv-length vectors, and the nonuniformity analytics the paper's
//! selection heuristics consume: outlier ratio and Gini
//! ([`crate::volume`], the selector's own definitions) and spread over
//! the per-rank delivered totals.
//!
//! The pattern hash is the recurrence signal the adaptive-selection
//! roadmap needs: two epochs whose recv-length vectors are identical hash
//! identically, so a hash join across occurrences reports how often a
//! communication pattern repeats — and therefore whether caching a
//! persistent plan for it would pay. The cluster hash is a wrapping sum
//! of per-rank FNV-1a partials ([`crate::volume::pattern_hash_rank`]), so
//! it is invariant to the order ranks are merged in but sensitive
//! (w.h.p.) to any single length change.
//!
//! Like the comm map and the flight recorder, the history store never
//! touches the simulated clock: enabling it changes no timing.

use std::fmt::Write as _;

use crate::analysis::render_ratio;
use crate::commmap::{join_epochs, ratio_to_millis, RankEpoch, SHADES};
use crate::json::JsonWriter;
use crate::time::SimTime;
use crate::volume;

/// Per-rank epoch time-series store: the closed comm-map epochs, each
/// with its close time. Owned by [`crate::Rank`]; construct directly
/// only in tests and fixtures.
#[derive(Debug, Clone)]
pub struct RankHistory {
    rank: usize,
    size: usize,
    epochs: Vec<(RankEpoch, SimTime)>,
}

impl RankHistory {
    /// An empty history for `rank` in a cluster of `size` ranks.
    pub fn new(rank: usize, size: usize) -> Self {
        RankHistory {
            rank,
            size,
            epochs: Vec::new(),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Keep a just-closed comm-map epoch, closed at simulated time
    /// `time`. Normally fed by [`crate::Rank::comm_epoch`] /
    /// [`crate::Rank::stage_end`]; public so fixtures can build histories
    /// by hand.
    pub fn append(&mut self, epoch: &RankEpoch, time: SimTime) {
        self.epochs.push((epoch.clone(), time));
    }
}

/// One cluster-wide epoch of the merged history: the per-call analytics
/// record the drift detector consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPoint {
    pub label: String,
    pub occurrence: u32,
    /// Latest close time across the contributing ranks.
    pub time: SimTime,
    /// Total bytes delivered cluster-wide during the epoch.
    pub bytes: u64,
    pub msgs: u64,
    /// Outlier ratio over the per-rank delivered totals (max over the 0.9
    /// bulk quantile; `f64::INFINITY` when the bulk is zero but the max is
    /// not).
    pub outlier_ratio: f64,
    /// Gini coefficient over the per-rank delivered totals (zeros count).
    pub gini: f64,
    /// Max over min of the *nonzero* per-rank totals (0 when fewer than
    /// one rank received traffic).
    pub spread: f64,
    /// Algorithm parsed from a `<collective>/<algorithm>` label; `None`
    /// for `stage:` epochs.
    pub algo: Option<String>,
    /// Order-invariant cluster pattern hash (wrapping sum of the per-rank
    /// shares).
    pub pattern: u64,
}

/// The merged, cluster-wide epoch time-series.
#[derive(Debug, Clone)]
pub struct History {
    pub n: usize,
    /// Epochs in first-seen merge order (call order in an SPMD program).
    pub points: Vec<EpochPoint>,
}

impl History {
    /// Distinct labels in first-seen order.
    pub fn series_labels(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for p in &self.points {
            if !out.contains(&p.label.as_str()) {
                out.push(&p.label);
            }
        }
        out
    }

    /// The points of one labelled series, in occurrence order as merged.
    pub fn series(&self, label: &str) -> Vec<&EpochPoint> {
        self.points.iter().filter(|p| p.label == label).collect()
    }
}

fn algo_of(label: &str) -> Option<String> {
    label
        .split_once('/')
        .map(|(_, algorithm)| algorithm.to_string())
}

/// Max over min of the *nonzero* per-rank totals (0 when no rank
/// received traffic).
fn spread(per_rank: &[u64]) -> f64 {
    let nonzero = per_rank.iter().copied().filter(|&b| b > 0);
    match (nonzero.clone().max(), nonzero.min()) {
        (Some(max), Some(min)) => max as f64 / min as f64,
        _ => 0.0,
    }
}

/// Merge per-rank histories into the cluster-wide time-series. Epochs
/// are matched across ranks by `(label, occurrence)` and appear in the
/// order first seen scanning ranks 0..n (the comm map's join, like
/// [`crate::merge_comm_maps`]); a rank that never closed a given epoch
/// contributes zero bytes to its analytics and nothing to its pattern
/// hash. Panics if `histories` is empty or the ranks disagree on cluster
/// size.
pub fn merge_histories(histories: &[RankHistory]) -> History {
    let n = histories.first().expect("merge_histories on no ranks").size;
    for h in histories {
        assert_eq!(h.size, n, "rank histories from different cluster sizes");
    }
    let ranks = histories.iter().map(|h| (h.rank, h.epochs.as_slice()));
    let points = join_epochs(ranks, |(epoch, _)| epoch)
        .into_iter()
        .map(|group| {
            let (first, _) = group[0].1;
            let mut per_rank = vec![0u64; n];
            let (mut time, mut msgs, mut pattern) = (SimTime::ZERO, 0, 0u64);
            for &(rank, (epoch, close)) in &group {
                time = time.max(*close);
                msgs += epoch.msgs.iter().sum::<u64>();
                pattern = pattern.wrapping_add(volume::pattern_hash_rank(rank, &epoch.bytes));
                per_rank[rank] += epoch.bytes.iter().sum::<u64>();
            }
            EpochPoint {
                algo: algo_of(&first.label),
                label: first.label.clone(),
                occurrence: first.occurrence,
                time,
                bytes: per_rank.iter().sum(),
                msgs,
                outlier_ratio: volume::outlier_ratio_of(&per_rank, volume::OUTLIER_FRACTION),
                gini: volume::gini(&per_rank),
                spread: spread(&per_rank),
                pattern,
            }
        })
        .collect();
    History { n, points }
}

/// Render `values` as a one-character-per-point sparkline in the
/// comm-map heatmap's shades, linearly scaled so the series maximum maps
/// to the darkest shade and exact zero to `.`.
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            let c = if v == 0 || max == 0 {
                SHADES[0]
            } else {
                let hi = (SHADES.len() - 1) as u64;
                SHADES[(1 + (v.saturating_mul(hi - 1)) / max).min(hi) as usize]
            };
            c as char
        })
        .collect()
}

/// ASCII dashboard of the merged history: one row per labelled series
/// with bytes-over-time and skew-over-time sparklines, the last epoch's
/// analytics, and the number of distinct communication patterns seen.
pub fn history_report(history: &History) -> String {
    let mut out = format!(
        "=== epoch history ({} ranks, {} epochs, {} series) ===\n",
        history.n,
        history.points.len(),
        history.series_labels().len()
    );
    let _ = writeln!(
        out,
        "{:<30} {:>6}  {:<20} {:<20} {:>10} {:>6} {:>8}",
        "series", "epochs", "bytes/epoch", "gini/epoch", "last B", "ratio", "patterns"
    );
    for label in history.series_labels() {
        let points = history.series(label);
        let bytes: Vec<u64> = points.iter().map(|p| p.bytes).collect();
        let ginis: Vec<u64> = points.iter().map(|p| ratio_to_millis(p.gini)).collect();
        let mut patterns: Vec<u64> = points.iter().map(|p| p.pattern).collect();
        patterns.sort_unstable();
        patterns.dedup();
        let last = points.last().expect("series labels come from points");
        let _ = writeln!(
            out,
            "{:<30} {:>6}  {:<20} {:<20} {:>10} {:>6} {:>8}",
            label,
            points.len(),
            sparkline(&bytes),
            sparkline(&ginis),
            last.bytes,
            render_ratio(last.outlier_ratio),
            patterns.len()
        );
    }
    out
}

/// Serialize the merged history as JSON (golden-tested): one series
/// object per label in first-seen order, each point as
/// `[occurrence, time_ns, bytes, msgs, ratio_millis, gini_millis,
/// spread_millis, "pattern hex"]`. Ratios are stored in integer
/// thousandths ([`ratio_to_millis`]; `u64::MAX` = infinite) so the output
/// has no float formatting to drift.
pub fn history_json(history: &History) -> String {
    JsonWriter::schema_led(|w| {
        w.field("ranks", history.n);
        w.field("epochs", history.points.len());
        w.objects("series", history.series_labels(), |w, label| {
            let points = history.series(label);
            w.field("label", label).field("algo", &points[0].algo);
            w.key("points").array(|w| {
                for p in points {
                    w.array(|w| {
                        w.value(p.occurrence).value(p.time.as_ns());
                        w.value(p.bytes).value(p.msgs);
                        w.value(ratio_to_millis(p.outlier_ratio));
                        w.value(ratio_to_millis(p.gini));
                        w.value(ratio_to_millis(p.spread));
                        w.value(format_args!("{:016x}", p.pattern));
                    });
                }
            });
        });
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use crate::commmap::RankCommMap;
    use crate::volume::pattern_hash_rank;

    /// The sort-based outlier ratio the history computed before it read
    /// [`volume::outlier_ratio_of`]: the oracle the Floyd–Rivest version
    /// must match bit for bit.
    fn outlier_ratio(volumes: &[u64], fraction: f64) -> f64 {
        if volumes.len() < 2 {
            return 0.0;
        }
        let mut sorted = volumes.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let max = sorted[n - 1];
        if max == 0 {
            return 0.0;
        }
        let k_bulk = (((n as f64) * fraction).ceil() as usize).clamp(1, n) - 1;
        let bulk = sorted[k_bulk];
        if bulk == 0 {
            return f64::INFINITY;
        }
        max as f64 / bulk as f64
    }

    /// The compact per-rank record the history derived at append time
    /// before it kept the comm map's epochs.
    struct ReferenceRecord {
        label: String,
        occurrence: u32,
        time: SimTime,
        bytes: u64,
        msgs: u64,
        pattern: u64,
    }

    impl ReferenceRecord {
        fn derive(rank: usize, epoch: &RankEpoch, time: SimTime) -> Self {
            ReferenceRecord {
                label: epoch.label.clone(),
                occurrence: epoch.occurrence,
                time,
                bytes: epoch.bytes.iter().sum(),
                msgs: epoch.msgs.iter().sum(),
                pattern: pattern_hash_rank(rank, &epoch.bytes),
            }
        }
    }

    /// The history's own `(label, occurrence)` join over those records,
    /// as it was before it read the comm map's: the reference
    /// [`merge_histories`] must reproduce field for field.
    fn reference_merge(n: usize, ranks: &[(usize, Vec<ReferenceRecord>)]) -> History {
        struct Partial {
            label: String,
            occurrence: u32,
            time: SimTime,
            msgs: u64,
            pattern: u64,
            per_rank: Vec<u64>,
        }
        let mut partials: Vec<Partial> = Vec::new();
        let mut index: HashMap<(String, u32), usize> = HashMap::new();
        for (rank, records) in ranks {
            for r in records {
                let key = (r.label.clone(), r.occurrence);
                let slot = *index.entry(key).or_insert_with(|| {
                    partials.push(Partial {
                        label: r.label.clone(),
                        occurrence: r.occurrence,
                        time: SimTime::ZERO,
                        msgs: 0,
                        pattern: 0,
                        per_rank: vec![0; n],
                    });
                    partials.len() - 1
                });
                let p = &mut partials[slot];
                p.time = p.time.max(r.time);
                p.msgs += r.msgs;
                p.pattern = p.pattern.wrapping_add(r.pattern);
                p.per_rank[*rank] += r.bytes;
            }
        }
        let points = partials
            .into_iter()
            .map(|p| {
                let nonzero: Vec<u64> = p.per_rank.iter().copied().filter(|&b| b > 0).collect();
                let spread = match (nonzero.iter().max(), nonzero.iter().min()) {
                    (Some(&max), Some(&min)) if min > 0 => max as f64 / min as f64,
                    _ => 0.0,
                };
                EpochPoint {
                    algo: algo_of(&p.label),
                    label: p.label,
                    occurrence: p.occurrence,
                    time: p.time,
                    bytes: p.per_rank.iter().sum(),
                    msgs: p.msgs,
                    outlier_ratio: outlier_ratio(&p.per_rank, volume::OUTLIER_FRACTION),
                    gini: volume::gini(&p.per_rank),
                    spread,
                    pattern: p.pattern,
                }
            })
            .collect();
        History { n, points }
    }

    const LABELS: [&str; 3] = ["allgatherv/ring", "alltoallw/binned", "stage:solve"];
    const MAX_RANKS: usize = 6;
    const MAX_CALLS: usize = 10;

    /// Volumes that are mostly zero, often repeated, sometimes large.
    fn volume() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(0u64), Just(64u64), 0u64..4, 0u64..1 << 20]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn floyd_rivest_ratio_is_bit_equal_to_the_sorted_oracle(
            volumes in proptest::collection::vec(volume(), 0..41),
            fraction in prop_oneof![Just(0.0f64), Just(0.9f64), Just(1.0f64), 0.0f64..1.0],
        ) {
            let oracle = outlier_ratio(&volumes, fraction);
            let fr = volume::outlier_ratio_of(&volumes, fraction);
            prop_assert_eq!(fr.to_bits(), oracle.to_bits(), "{:?} at {}", volumes, fraction);
        }

        /// Random multi-label, multi-epoch ranks, each skipping calls at
        /// random (and the last rank always skipping the first call),
        /// merged in a rotated rank order.
        #[test]
        fn merge_matches_the_record_and_partial_join_reference(
            n in 1usize..MAX_RANKS + 1,
            calls in proptest::collection::vec(0usize..LABELS.len(), 0..MAX_CALLS + 1),
            volumes in proptest::collection::vec(volume(), MAX_RANKS * MAX_RANKS * MAX_CALLS),
            skips in proptest::collection::vec(0u8..6, MAX_RANKS * MAX_CALLS),
            times in proptest::collection::vec(0u64..1000, MAX_RANKS * MAX_CALLS),
            rotate in 0usize..MAX_RANKS,
        ) {
            let mut histories = Vec::new();
            let mut reference = Vec::new();
            for rank in (0..n).map(|r| (r + rotate) % n) {
                let mut map = RankCommMap::new(rank, n);
                let mut history = RankHistory::new(rank, n);
                let mut records = Vec::new();
                for (c, &label) in calls.iter().enumerate() {
                    let skipped = skips[rank * MAX_CALLS + c] == 0 || (n > 1 && rank == n - 1 && c == 0);
                    if skipped {
                        continue;
                    }
                    for src in 0..n {
                        // v % 4 messages of v / 4 bytes: zero-byte messages too.
                        let v = volumes[(rank * MAX_RANKS + src) * MAX_CALLS + c];
                        for _ in 0..v % 4 {
                            map.record_delivery(src, v / 4);
                        }
                    }
                    map.close_epoch(LABELS[label]);
                    let time = SimTime(times[rank * MAX_CALLS + c]);
                    let epoch = map.epochs().last().expect("just closed");
                    history.append(epoch, time);
                    records.push(ReferenceRecord::derive(rank, epoch, time));
                }
                histories.push(history);
                reference.push((rank, records));
            }
            let got = merge_histories(&histories);
            let want = reference_merge(n, &reference);
            prop_assert_eq!(got.n, want.n);
            prop_assert_eq!(got.points.len(), want.points.len());
            for (g, w) in got.points.iter().zip(&want.points) {
                prop_assert_eq!(&g.label, &w.label);
                prop_assert_eq!(g.occurrence, w.occurrence);
                prop_assert_eq!(g.time, w.time);
                prop_assert_eq!((g.bytes, g.msgs, g.pattern), (w.bytes, w.msgs, w.pattern));
                prop_assert_eq!(g.outlier_ratio.to_bits(), w.outlier_ratio.to_bits());
                prop_assert_eq!(g.gini.to_bits(), w.gini.to_bits());
                prop_assert_eq!(g.spread.to_bits(), w.spread.to_bits());
                prop_assert_eq!(&g.algo, &w.algo);
            }
        }
    }

    fn epoch(label: &str, occurrence: u32, bytes: Vec<u64>) -> RankEpoch {
        let msgs = bytes.iter().map(|&b| u64::from(b > 0)).collect();
        RankEpoch {
            label: label.to_string(),
            occurrence,
            bytes,
            msgs,
        }
    }

    fn two_rank_fixture() -> Vec<RankHistory> {
        let mut a = RankHistory::new(0, 2);
        let mut b = RankHistory::new(1, 2);
        a.append(&epoch("allgatherv/ring", 0, vec![0, 64]), SimTime(100));
        b.append(&epoch("allgatherv/ring", 0, vec![32, 0]), SimTime(120));
        a.append(&epoch("allgatherv/ring", 1, vec![0, 8]), SimTime(200));
        b.append(&epoch("allgatherv/ring", 1, vec![8, 0]), SimTime(190));
        a.append(&epoch("stage:solve", 0, vec![0, 0]), SimTime(300));
        b.append(&epoch("stage:solve", 0, vec![0, 0]), SimTime(300));
        vec![a, b]
    }

    #[test]
    fn merge_joins_by_label_and_occurrence() {
        let merged = merge_histories(&two_rank_fixture());
        assert_eq!(merged.n, 2);
        assert_eq!(merged.points.len(), 3);
        let p = &merged.points[0];
        assert_eq!((p.label.as_str(), p.occurrence), ("allgatherv/ring", 0));
        assert_eq!(p.bytes, 96);
        assert_eq!(p.msgs, 2);
        assert_eq!(
            p.time,
            SimTime(120),
            "cluster epoch closes with the last rank"
        );
        assert_eq!(p.algo.as_deref(), Some("ring"));
        assert!((p.spread - 2.0).abs() < 1e-12, "64 vs 32: spread 2");
        assert!(p.gini > 0.0);
        assert_eq!(
            merged.points[2].algo, None,
            "stage epochs carry no algorithm"
        );
        assert_eq!(merged.points[2].bytes, 0);
        assert_eq!(merged.points[2].spread, 0.0);
    }

    #[test]
    fn cluster_pattern_hash_is_merge_order_invariant() {
        let maps = two_rank_fixture();
        let forward = merge_histories(&maps);
        let reversed: Vec<RankHistory> = maps.into_iter().rev().collect();
        let backward = merge_histories(&reversed);
        let key = |h: &History| {
            h.points
                .iter()
                .map(|p| (p.label.clone(), p.occurrence, p.pattern))
                .collect::<std::collections::HashSet<_>>()
        };
        assert_eq!(key(&forward), key(&backward));
    }

    #[test]
    fn outlier_ratio_matches_analytics_convention() {
        assert_eq!(outlier_ratio(&[], 0.9), 0.0);
        assert_eq!(outlier_ratio(&[7], 0.9), 0.0);
        assert_eq!(outlier_ratio(&[0, 0], 0.9), 0.0);
        assert_eq!(outlier_ratio(&[0, 5], 0.9), 1.0);
        let mut sparse = vec![0u64; 9];
        sparse.push(5);
        assert!(outlier_ratio(&sparse, 0.9).is_infinite());
        let r = outlier_ratio(&[10, 10, 10, 10, 10, 10, 10, 10, 10, 1000], 0.9);
        assert!((r - 100.0).abs() < 1e-12, "ratio {r}");
    }

    #[test]
    fn sparkline_scales_zero_and_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "..");
        let s = sparkline(&[0, 1, 100]);
        assert_eq!(s.len(), 3);
        assert!(s.starts_with('.'));
        assert!(s.ends_with('@'));
    }

    #[test]
    fn report_lists_every_series_with_sparklines() {
        let report = history_report(&merge_histories(&two_rank_fixture()));
        assert!(report.contains("2 ranks, 3 epochs, 2 series"), "{report}");
        assert!(report.contains("allgatherv/ring"), "{report}");
        assert!(report.contains("stage:solve"), "{report}");
        assert!(report.contains("patterns"), "{report}");
    }

    #[test]
    fn json_has_fixed_field_order() {
        let json = history_json(&merge_histories(&two_rank_fixture()));
        assert!(json.starts_with("{\"schema\":1,\"ranks\":2,\"epochs\":3,\"series\":["));
        assert!(json.contains("\"label\":\"allgatherv/ring\",\"algo\":\"ring\",\"points\":["));
        assert!(json.contains("\"label\":\"stage:solve\",\"algo\":null"));
        assert!(json.ends_with("]}"));
    }
}
