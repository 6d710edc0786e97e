//! Temporal drift detection and pattern-recurrence analytics.
//!
//! The paper's central observation is that communication in adaptive PETSc
//! applications is *nonuniform* — and in adaptive mesh codes the shape of
//! that nonuniformity is not even stationary: a remesh moves the hotspot,
//! and yesterday's tuned algorithm choice quietly becomes today's
//! misselection. This module watches the per-epoch time series recorded by
//! [`ncd_simnet::history`] and flags **regime shifts** — sustained changes
//! in traffic volume or skew — as structured [`DriftEvent`]s, the same way
//! `commstats` surfaces per-call [`AlgorithmDecision`]s.
//!
//! There is one entry point, [`detect_drift`], over a run's merged
//! [`History`]: the cluster-wide series every observed run already
//! captures. No rank watches its own epochs while it runs, so turning the
//! history observer on changes nothing the trace, the metrics or the
//! flight recorder hold.
//!
//! The detector is an EWMA-normalised CUSUM with fixed parameters: an
//! exponentially weighted mean/deviation tracks the current regime, each
//! sample's z-score feeds two one-sided cumulative sums, and a sum
//! exceeding the decision threshold fires a shift in that direction. After
//! firing, the detector re-warms on the new regime, so a large step is
//! flagged within the first [`DRIFT_DETECTION_BOUND`] epochs of the new
//! regime.
//!
//! [`pattern_recurrence`] answers the complementary question — "is the
//! *shape* of the traffic recurring?" — by joining the order-invariant
//! pattern hashes across epochs of each series.
//!
//! [`AlgorithmDecision`]: crate::commstats::AlgorithmDecision

use std::collections::HashMap;
use std::fmt::Write as _;

use ncd_simnet::{render_ratio, History};

/// EWMA smoothing factor for the running mean and deviation; higher
/// adapts faster but forgets the baseline sooner.
const EWMA_ALPHA: f64 = 0.3;
/// CUSUM slack in z-score units: drift smaller than this many sigmas per
/// epoch never accumulates.
const CUSUM_K: f64 = 0.5;
/// CUSUM decision threshold: fire when a one-sided sum exceeds it.
const CUSUM_H: f64 = 4.0;
/// Samples absorbed into the baseline before testing begins — both at
/// startup and after each fired event (re-warming on the new regime).
const WARMUP: u32 = 3;
/// Deviation floor as a fraction of `max(|mean|, 1)`, so a perfectly
/// steady baseline cannot make an infinitesimal wiggle look like an
/// infinite z-score.
const SIGMA_FLOOR: f64 = 0.05;

/// The detection bound: a large step in a series is flagged within the
/// first this-many epochs of the new regime (the warm-up window plus one).
pub const DRIFT_DETECTION_BOUND: u32 = WARMUP + 1;

/// Which way a monitored series moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftDirection {
    Up,
    Down,
}

/// One detected regime shift in a monitored series.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftEvent {
    /// Epoch label (`<collective>/<algorithm>` or `stage:<path>`).
    pub label: String,
    /// Monitored metric within the series: `"bytes"` or `"skew"`.
    pub metric: String,
    /// Occurrence index of the epoch that fired the detector.
    pub occurrence: u32,
    pub direction: DriftDirection,
    /// EWMA mean of the pre-shift regime.
    pub baseline: f64,
    /// The observation that fired the detector.
    pub observed: f64,
}

/// EWMA-normalised two-sided CUSUM changepoint detector over one scalar
/// series. Feed observations in order with [`observe`](Self::observe);
/// a `Some` return is a fired shift, after which the detector has already
/// reset onto the new regime.
#[derive(Debug, Default)]
struct CusumDetector {
    mean: f64,
    dev: f64,
    s_pos: f64,
    s_neg: f64,
    count: u32,
}

impl CusumDetector {
    /// Feed the next observation. Returns the fired shift, if any, as
    /// `(direction, baseline)` — the caller owns labelling/occurrence
    /// bookkeeping. Non-finite observations are absorbed into nothing and
    /// never fire (an infinite outlier ratio is a *shape* statement, not a
    /// volume one — the skew series uses the bounded Gini instead).
    fn observe(&mut self, x: f64) -> Option<(DriftDirection, f64)> {
        if !x.is_finite() {
            return None;
        }
        self.count += 1;
        if self.count == 1 {
            self.mean = x;
            self.dev = 0.0;
            return None;
        }
        let fired = if self.count > WARMUP {
            let sigma = self.dev.max(SIGMA_FLOOR * self.mean.abs().max(1.0));
            let z = (x - self.mean) / sigma;
            self.s_pos = (self.s_pos + z - CUSUM_K).max(0.0);
            self.s_neg = (self.s_neg - z - CUSUM_K).max(0.0);
            if self.s_pos > CUSUM_H {
                Some(DriftDirection::Up)
            } else if self.s_neg > CUSUM_H {
                Some(DriftDirection::Down)
            } else {
                None
            }
        } else {
            None
        };
        if let Some(direction) = fired {
            let baseline = self.mean;
            // Re-warm on the new regime: the fired observation becomes the
            // seed of the next baseline.
            self.mean = x;
            self.dev = 0.0;
            self.s_pos = 0.0;
            self.s_neg = 0.0;
            self.count = 1;
            return Some((direction, baseline));
        }
        let a = EWMA_ALPHA;
        self.dev = a * (x - self.mean).abs() + (1.0 - a) * self.dev;
        self.mean = a * x + (1.0 - a) * self.mean;
        None
    }
}

/// Replay a merged [`History`] through the detector: every series
/// contributes a `bytes` (cluster total) and a `skew` (per-rank Gini)
/// stream, each with its own CUSUM, since traffic volume and skew move
/// independently (a remesh can redistribute the same total). Events come
/// out grouped by series in first-seen order, each series' events in
/// occurrence order, `bytes` before `skew` within one epoch.
pub fn detect_drift(history: &History) -> Vec<DriftEvent> {
    let mut out = Vec::new();
    for label in history.series_labels() {
        let (mut bytes, mut skew) = (CusumDetector::default(), CusumDetector::default());
        for p in history.series(label) {
            for (metric, detector, x) in [
                ("bytes", &mut bytes, p.bytes as f64),
                ("skew", &mut skew, p.gini),
            ] {
                if let Some((direction, baseline)) = detector.observe(x) {
                    out.push(DriftEvent {
                        label: label.to_string(),
                        metric: metric.to_string(),
                        occurrence: p.occurrence,
                        direction,
                        baseline,
                        observed: x,
                    });
                }
            }
        }
    }
    out
}

/// How often each series' traffic *shape* recurs across its epochs.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternRecurrence {
    pub label: String,
    /// Epochs observed for this series.
    pub epochs: usize,
    /// Distinct pattern hashes among them.
    pub distinct: usize,
    /// Most frequent pattern hash (ties break to the smallest hash).
    pub dominant: u64,
    pub dominant_count: usize,
    /// `dominant_count / epochs` — 1.0 means the shape never changed.
    pub stability: f64,
}

/// Join the pattern hashes across each series' epochs: a stable series
/// (stability 1.0) is a candidate for caching its packing schedule or
/// algorithm choice; a series whose hash churns every epoch is not.
pub fn pattern_recurrence(history: &History) -> Vec<PatternRecurrence> {
    history
        .series_labels()
        .into_iter()
        .map(|label| {
            let points = history.series(label);
            let mut counts: HashMap<u64, usize> = HashMap::new();
            for p in &points {
                *counts.entry(p.pattern).or_insert(0) += 1;
            }
            let (dominant, dominant_count) = counts
                .iter()
                .map(|(&h, &c)| (h, c))
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .unwrap_or((0, 0));
            PatternRecurrence {
                label: label.to_string(),
                epochs: points.len(),
                distinct: counts.len(),
                dominant,
                dominant_count,
                stability: if points.is_empty() {
                    0.0
                } else {
                    dominant_count as f64 / points.len() as f64
                },
            }
        })
        .collect()
}

/// Human-readable drift log, one line per event.
pub fn render_drift_events(events: &[DriftEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== drift events ({}) ===", events.len());
    for e in events {
        let _ = writeln!(
            out,
            "{:<30} {:<6} occ={:<4} {:<4} baseline={} observed={}",
            e.label,
            e.metric,
            e.occurrence,
            match e.direction {
                DriftDirection::Up => "up",
                DriftDirection::Down => "down",
            },
            render_ratio(e.baseline),
            render_ratio(e.observed),
        );
    }
    out
}

/// Human-readable recurrence table, one line per series.
pub fn render_recurrence(recurrences: &[PatternRecurrence]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<30} {:>6} {:>8} {:>18} {:>9}",
        "series", "epochs", "distinct", "dominant", "stability"
    );
    for r in recurrences {
        let _ = writeln!(
            out,
            "{:<30} {:>6} {:>8} {:>18} {:>8.0}%",
            r.label,
            r.epochs,
            r.distinct,
            format!("{:016x}", r.dominant),
            r.stability * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncd_simnet::{EpochPoint, SimTime};

    fn point(label: &str, occurrence: u32, bytes: u64, gini: f64, pattern: u64) -> EpochPoint {
        EpochPoint {
            label: label.to_string(),
            occurrence,
            time: SimTime(1_000 * (occurrence as u64 + 1)),
            bytes,
            msgs: 4,
            outlier_ratio: 1.0,
            gini,
            spread: 1.0,
            algo: label.split_once('/').map(|(_, a)| a.to_string()),
            pattern,
        }
    }

    #[test]
    fn stationary_series_never_fires() {
        let mut d = CusumDetector::default();
        for i in 0..200u64 {
            // Small bounded wiggle around 1000.
            let x = 1000.0 + ((i * 7) % 13) as f64 - 6.0;
            assert_eq!(d.observe(x), None, "fired spuriously at sample {i}");
        }
    }

    #[test]
    fn step_up_fires_within_warmup_plus_one() {
        let mut d = CusumDetector::default();
        for _ in 0..20 {
            assert_eq!(d.observe(1000.0), None);
        }
        // A 16x step: the z-score dwarfs k and h, so the very first
        // post-shift sample past warmup must fire.
        let mut fired_at = None;
        for lag in 0..=DRIFT_DETECTION_BOUND {
            if let Some((direction, baseline)) = d.observe(16_000.0) {
                assert_eq!(direction, DriftDirection::Up);
                assert!((baseline - 1000.0).abs() < 1e-9, "baseline {baseline}");
                fired_at = Some(lag);
                break;
            }
        }
        assert_eq!(fired_at, Some(0), "large step must fire immediately");
        // Post-fire the detector re-warmed on the new regime: the new
        // level is now quiet.
        for _ in 0..20 {
            assert_eq!(d.observe(16_000.0), None);
        }
    }

    #[test]
    fn step_down_fires_down() {
        let mut d = CusumDetector::default();
        for _ in 0..10 {
            d.observe(8_000.0);
        }
        let fired = d.observe(100.0);
        assert!(
            matches!(fired, Some((DriftDirection::Down, _))),
            "got {fired:?}"
        );
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut d = CusumDetector::default();
        for _ in 0..10 {
            d.observe(100.0);
        }
        assert_eq!(d.observe(f64::INFINITY), None);
        assert_eq!(d.observe(f64::NAN), None);
        assert_eq!(d.count, 10, "non-finite samples must not count");
    }

    #[test]
    fn series_and_metrics_are_detected_independently() {
        // Two interleaved series; only the skew of one shifts, at its
        // tenth epoch. The other series and the bytes metric stay quiet.
        let mut points = Vec::new();
        for occ in 0..12u32 {
            let gini = if occ < 10 { 0.1 } else { 0.9 };
            points.push(point("allgatherv/ring", occ, 1000, gini, 7));
            points.push(point("alltoallw/binned", occ, 500, 0.5, 9));
        }
        let events = detect_drift(&History { n: 4, points });
        assert_eq!(events.len(), 1, "events {events:?}");
        assert_eq!(events[0].label, "allgatherv/ring");
        assert_eq!(events[0].metric, "skew");
        assert_eq!(events[0].direction, DriftDirection::Up);
        assert_eq!(events[0].occurrence, 10);
        assert!((events[0].baseline - 0.1).abs() < 1e-9);
        assert_eq!(events[0].observed, 0.9);
    }

    #[test]
    fn offline_detect_reports_history_occurrences() {
        let mut points = Vec::new();
        for occ in 0..12u32 {
            let bytes = if occ < 8 { 4_096 } else { 262_144 };
            points.push(point("allgatherv/ring", occ, bytes, 0.2, 7));
        }
        let history = History { n: 4, points };
        let events = detect_drift(&history);
        assert_eq!(events.len(), 1, "events {events:?}");
        assert_eq!(events[0].metric, "bytes");
        assert_eq!(events[0].direction, DriftDirection::Up);
        assert_eq!(events[0].occurrence, 8, "shift lands at occurrence 8");
    }

    #[test]
    fn recurrence_counts_dominant_pattern_with_tiebreak() {
        let history = History {
            n: 2,
            points: vec![
                point("stage:solve", 0, 100, 0.0, 0xbbb),
                point("stage:solve", 1, 100, 0.0, 0xaaa),
                point("stage:solve", 2, 100, 0.0, 0xbbb),
                point("stage:solve", 3, 100, 0.0, 0xaaa),
                point("allgatherv/ring", 0, 64, 0.0, 0x1),
            ],
        };
        let rec = pattern_recurrence(&history);
        assert_eq!(rec.len(), 2);
        let solve = &rec[0];
        assert_eq!(solve.label, "stage:solve");
        assert_eq!((solve.epochs, solve.distinct), (4, 2));
        // 2-2 tie between 0xaaa and 0xbbb: smallest hash wins.
        assert_eq!((solve.dominant, solve.dominant_count), (0xaaa, 2));
        assert!((solve.stability - 0.5).abs() < 1e-12);
        let ag = &rec[1];
        assert_eq!(
            (ag.dominant, ag.dominant_count, ag.stability),
            (0x1, 1, 1.0)
        );
    }

    #[test]
    fn renderers_cover_every_event_and_series() {
        let events = vec![DriftEvent {
            label: "allgatherv/ring".to_string(),
            metric: "bytes".to_string(),
            occurrence: 8,
            direction: DriftDirection::Up,
            baseline: 4096.0,
            observed: 262_144.0,
        }];
        let log = render_drift_events(&events);
        assert!(log.contains("=== drift events (1) ==="));
        assert!(log.contains("allgatherv/ring"));
        assert!(log.contains("up"));
        assert!(log.contains("baseline=4096.0 "));
        assert!(log.contains("observed=262144.0\n"));

        let table = render_recurrence(&pattern_recurrence(&History {
            n: 2,
            points: vec![point("stage:solve", 0, 100, 0.0, 0xabc)],
        }));
        assert!(table.contains("stage:solve"));
        assert!(table.contains("0000000000000abc"));
        assert!(table.contains("100%"));
    }
}
