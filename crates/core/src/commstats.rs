//! Nonuniformity analytics over measured communication maps, and the
//! algorithm-decision audit that joins them.
//!
//! The simnet layer measures *who talked to whom* ([`ncd_simnet::commmap`]:
//! per-rank delivery accounting, epoch snapshots, cluster-wide merge). This
//! module owns the judgement calls on top of that raw matrix:
//!
//! * [`analyze_matrix`] — nonuniformity analytics for one matrix: the
//!   paper's outlier ratio (two Floyd–Rivest selections) over the measured
//!   per-pair volumes, max/min/mean spread, a Gini coefficient over all
//!   cells, and the top-k hottest pairs — the ratio and the Gini are
//!   [`ncd_simnet::volume`]'s, the same definitions the selector and the
//!   epoch history use;
//! * [`AlgorithmDecision`] / [`decisions_from_trace`] — the audit record
//!   every auto-selected [`crate::Comm::allgatherv`] /
//!   [`crate::Comm::alltoallw`] call emits (what was chosen, from what
//!   evidence, and why), parsed back out of the trace;
//! * [`detect_misselections`] — joins the k-th decision of a collective
//!   with the k-th measured epoch it produced (matched by
//!   `(label, occurrence)`, exactly like the cross-rank epoch merge) and
//!   flags selections the measured traffic contradicts, with a
//!   cost-model what-if estimate of the alternative.
//!
//! The ring deliberately *smears* an outlier block across every link
//! (each hop forwards nearly the whole payload), so a ring epoch's
//! measured per-pair volumes look uniform even when the input volume set
//! was wildly skewed. The detector therefore judges the ring on
//! `max(declared, measured)` ratio — the declared ratio is the evidence
//! the selector itself computed from the count array at call time.

use std::collections::{BTreeMap, HashMap, HashSet};

use ncd_simnet::{
    millis_to_ratio, parse_schema_led, ratio_to_millis, volume, ClusterCommMap, CommMatrix,
    CostModel, EpochMatrix, EventKind, JsonWriter, TraceEvent,
};

use crate::config::MpiConfig;

/// One audited algorithm selection: what an auto-selecting collective
/// chose, the evidence it chose from, and the stated reason. Emitted by
/// [`crate::Comm::allgatherv`] and [`crate::Comm::alltoallw`] (never by
/// the explicit `_with` variants, whose algorithm is pinned by the
/// caller) into the trace, the flight recorder, and the metrics
/// registry; this is the trace-side view.
#[derive(Clone, Debug, PartialEq)]
pub struct AlgorithmDecision {
    pub collective: String,
    /// Communicator size at the call.
    pub n: usize,
    /// Total payload bytes across the volume set the selector examined.
    pub total_bytes: u64,
    /// The outlier-ratio evidence (max / bulk-quantile of the volume
    /// set); `f64::INFINITY` when the bulk quantile was zero.
    pub outlier_ratio: f64,
    pub pow2: bool,
    /// Stable algorithm label (e.g. `ring`, `binned`).
    pub chosen: String,
    pub reason: String,
}

/// Extract the decision audit from one rank's trace, in call order.
pub fn decisions_from_trace(events: &[TraceEvent]) -> Vec<AlgorithmDecision> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::AlgoDecision {
                collective,
                n,
                total_bytes,
                ratio_millis,
                pow2,
                chosen,
                reason,
            } => Some(AlgorithmDecision {
                collective: collective.to_string(),
                n: *n,
                total_bytes: *total_bytes,
                outlier_ratio: millis_to_ratio(*ratio_millis),
                pow2: *pow2,
                chosen: chosen.to_string(),
                reason: reason.to_string(),
            }),
            _ => None,
        })
        .collect()
}

/// [`decisions_from_trace`] over every rank's trace.
pub fn decisions_from_traces(traces: &[Vec<TraceEvent>]) -> Vec<Vec<AlgorithmDecision>> {
    traces.iter().map(|t| decisions_from_trace(t)).collect()
}

/// JSON export of a decision list (the `decisions.json` ledger artifact):
/// occurrence indices assigned per collective in call order, ratios in
/// integer thousandths so no float formatting drifts.
pub fn decisions_json(decisions: &[AlgorithmDecision]) -> String {
    let mut occurrence: BTreeMap<&str, u32> = BTreeMap::new();
    JsonWriter::schema_led(|w| {
        w.objects("decisions", decisions, |w, d| {
            let occ = occurrence.entry(d.collective.as_str()).or_insert(0);
            w.field("collective", &d.collective);
            w.field("occurrence", *occ).field("n", d.n);
            w.field("total_bytes", d.total_bytes);
            w.field("ratio_millis", ratio_to_millis(d.outlier_ratio));
            w.field("pow2", d.pow2).field("chosen", &d.chosen);
            w.field("reason", &d.reason);
            *occ += 1;
        });
    })
}

/// Read a [`decisions_json`] document back: each decision with its
/// occurrence index within the collective (the cross-run join key).
pub fn parse_decisions(text: &str) -> Result<Vec<(u32, AlgorithmDecision)>, String> {
    parse_schema_led(text)?.list("decisions", |d| {
        let decision = AlgorithmDecision {
            collective: d.str("collective")?.to_string(),
            n: d.u64("n")? as usize,
            total_bytes: d.u64("total_bytes")?,
            outlier_ratio: millis_to_ratio(d.u64("ratio_millis")?),
            pow2: d.bool("pow2")?,
            chosen: d.str("chosen")?.to_string(),
            reason: d.str("reason")?.to_string(),
        };
        Ok((d.u32("occurrence")?, decision))
    })
}

/// Nonuniformity analytics for one communication matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CommAnalysis {
    /// Number of (src, dst) pairs with any traffic.
    pub pairs: usize,
    /// Largest per-pair byte volume.
    pub max_bytes: u64,
    /// Smallest *nonzero* per-pair byte volume.
    pub min_bytes: u64,
    /// Mean bytes over the nonzero pairs.
    pub mean_bytes: f64,
    /// `max_bytes / min_bytes` — the raw spread of active pairs.
    pub spread: f64,
    /// The paper's outlier ratio over the nonzero per-pair volumes.
    pub outlier_ratio: f64,
    /// Gini coefficient over **all** cells (silent pairs included).
    pub gini: f64,
    /// The hottest pairs, descending by bytes: `(src, dst, bytes)`.
    pub top: Vec<(usize, usize, u64)>,
}

/// Analyze one matrix, the outlier test's bulk quantile being
/// [`volume::OUTLIER_FRACTION`]; `top_k` bounds the hot-pair list. `None`
/// if the matrix carried no traffic at all.
pub fn analyze_matrix(m: &CommMatrix, top_k: usize) -> Option<CommAnalysis> {
    let pairs = m.nonzero_pairs();
    if pairs.is_empty() {
        return None;
    }
    let vols: Vec<u64> = pairs.iter().map(|&(_, _, b, _)| b).collect();
    let max_bytes = *vols.iter().max().unwrap();
    let min_bytes = *vols.iter().min().unwrap();
    let sum: u128 = vols.iter().map(|&v| v as u128).sum();
    let n = m.n();
    let all_cells: Vec<u64> = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .map(|(s, d)| m.bytes(s, d))
        .collect();
    Some(CommAnalysis {
        pairs: vols.len(),
        max_bytes,
        min_bytes,
        mean_bytes: sum as f64 / vols.len() as f64,
        spread: if min_bytes == 0 {
            0.0
        } else {
            max_bytes as f64 / min_bytes as f64
        },
        outlier_ratio: volume::outlier_ratio_of(&vols, volume::OUTLIER_FRACTION),
        gini: volume::gini(&all_cells),
        top: m.top_pairs(top_k),
    })
}

/// [`analyze_matrix`] applied to one epoch of the merged map.
#[derive(Clone, Debug)]
pub struct EpochAnalysis {
    pub label: String,
    pub occurrence: u32,
    pub analysis: CommAnalysis,
}

/// Analyze the merged map: the running total plus every epoch that
/// carried traffic.
pub fn analyze_comm_map(
    map: &ClusterCommMap,
    top_k: usize,
) -> (Option<CommAnalysis>, Vec<EpochAnalysis>) {
    let total = analyze_matrix(&map.total, top_k);
    let epochs = map
        .epochs
        .iter()
        .filter_map(|e| {
            analyze_matrix(&e.matrix, top_k).map(|analysis| EpochAnalysis {
                label: e.label.clone(),
                occurrence: e.occurrence,
                analysis,
            })
        })
        .collect();
    (total, epochs)
}

/// A selection the measured traffic contradicts, with a what-if estimate
/// from the cost model.
#[derive(Clone, Debug)]
pub struct Misselection {
    pub collective: String,
    /// 0-based occurrence of `<collective>/<chosen>` (the epoch key).
    pub occurrence: u32,
    pub chosen: String,
    pub suggested: String,
    /// The ratio the selector declared at call time.
    pub declared_ratio: f64,
    /// The ratio measured from the epoch's per-pair volumes (0 when the
    /// epoch was not captured).
    pub measured_ratio: f64,
    /// Coarse cost-model estimate of the chosen schedule, ns.
    pub est_chosen_ns: f64,
    /// Coarse cost-model estimate of the suggested schedule, ns.
    pub est_suggested_ns: f64,
    pub detail: String,
}

/// Result of [`detect_misselections`]: the flagged selections plus the
/// join's coverage accounting, so a decision log and a comm map captured
/// over different windows cannot silently produce an empty-looking audit.
#[derive(Clone, Debug, Default)]
pub struct MisselectionAudit {
    /// Selections the measured traffic contradicts.
    pub flags: Vec<Misselection>,
    /// Decisions whose `(label, occurrence)` epoch was not in the map —
    /// all of them when no map was provided.
    pub unmatched_decisions: usize,
    /// Collective (non-`stage:`) epochs no decision joined with; 0 when
    /// no map was provided.
    pub unmatched_epochs: usize,
}

fn ceil_log2(n: usize) -> u32 {
    debug_assert!(n >= 1);
    usize::BITS - (n - 1).leading_zeros()
}

/// Audit one rank's decision log against the merged measured map.
///
/// The k-th decision that chose algorithm `A` for collective `C` is
/// joined with the epoch `(label = "C/A", occurrence = k)` — the same
/// key the cross-rank merge uses, so in an SPMD program the join is
/// exact. Two patterns are flagged:
///
/// * **allgatherv chose the ring over a skewed volume set** —
///   `max(declared, measured)` outlier ratio exceeds
///   `cfg.outlier_ratio`. The ring serializes the outlier into O(N)
///   sequential hops; the what-if estimates one ring rotation against
///   ceil(log2 N) binomial rounds, each step costed at
///   `o_send + o_recv + L + wire(max pair)`.
/// * **alltoallw ran round-robin over a sparse exchange** — more than
///   half the off-diagonal pairs of the measured epoch moved zero
///   bytes, yet the lock-step schedule synchronized with every peer.
///   The what-if compares N-1 pairwise steps against only the nonzero
///   peers (the binned schedule's zero-bin exemption). This pattern
///   needs the measured epoch; without a captured map it is skipped.
///
/// Estimates are deliberately coarse — single-step LogGP terms, no
/// overlap — and are meant to rank the alternative, not predict it.
///
/// The join is keyed, not scanned: the map's epochs are indexed by
/// `(label, occurrence)` once up front, and every decision that finds no
/// epoch — and every collective epoch no decision claims — is *counted*
/// in the returned [`MisselectionAudit`] instead of being silently
/// skipped, so a truncated trace or a map captured over a different
/// window is visible in the result.
pub fn detect_misselections(
    decisions: &[AlgorithmDecision],
    map: Option<&ClusterCommMap>,
    cost: &CostModel,
    cfg: &MpiConfig,
) -> MisselectionAudit {
    let mut epoch_index: HashMap<(&str, u32), &EpochMatrix> = HashMap::new();
    if let Some(m) = map {
        for e in &m.epochs {
            epoch_index.insert((e.label.as_str(), e.occurrence), e);
        }
    }
    let mut matched: HashSet<(&str, u32)> = HashSet::new();
    let mut unmatched_decisions = 0usize;
    let mut occurrences: HashMap<String, u32> = HashMap::new();
    let mut out = Vec::new();
    for d in decisions {
        let label = format!("{}/{}", d.collective, d.chosen);
        let occ = {
            let c = occurrences.entry(label.clone()).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        let epoch = epoch_index.get(&(label.as_str(), occ)).copied();
        match epoch {
            Some(e) => {
                matched.insert((e.label.as_str(), e.occurrence));
            }
            None => unmatched_decisions += 1,
        }
        if d.n < 2 {
            continue;
        }
        match (d.collective.as_str(), d.chosen.as_str()) {
            ("allgatherv", "ring") => {
                let measured = epoch
                    .and_then(|e| analyze_matrix(&e.matrix, 1))
                    .map(|a| a.outlier_ratio)
                    .unwrap_or(0.0);
                let evidence = d.outlier_ratio.max(measured);
                if evidence <= cfg.outlier_ratio {
                    continue;
                }
                // The dominating message: the hottest measured pair, or —
                // with no captured epoch — the declared total, which the
                // outlier dominates at these ratios.
                let max_pair = epoch
                    .map(|e| e.matrix.top_pairs(1).first().map_or(0, |&(_, _, b)| b))
                    .filter(|&b| b > 0)
                    .unwrap_or(d.total_bytes);
                let step = cost.send_overhead_ns
                    + cost.recv_overhead_ns
                    + cost.latency_ns
                    + cost.wire_ns(max_pair as usize);
                let est_ring = (d.n - 1) as f64 * step;
                let est_binom = ceil_log2(d.n) as f64 * step;
                let suggested = if d.pow2 {
                    "recursive_doubling"
                } else {
                    "dissemination"
                };
                out.push(Misselection {
                    collective: d.collective.clone(),
                    occurrence: occ,
                    chosen: d.chosen.clone(),
                    suggested: suggested.to_string(),
                    declared_ratio: d.outlier_ratio,
                    measured_ratio: measured,
                    est_chosen_ns: est_ring,
                    est_suggested_ns: est_binom,
                    detail: format!(
                        "ring serializes an outlier volume set (ratio {:.1} > threshold {:.1}): \
                         {} sequential hops vs {} binomial rounds",
                        evidence,
                        cfg.outlier_ratio,
                        d.n - 1,
                        ceil_log2(d.n)
                    ),
                });
            }
            ("alltoallw", "round_robin") => {
                let Some(e) = epoch else { continue };
                let n = e.matrix.n();
                if n < 2 {
                    continue;
                }
                let off_diag = (n * (n - 1)) as f64;
                let nonzero = e
                    .matrix
                    .nonzero_pairs()
                    .iter()
                    .filter(|&&(s, dst, b, _)| s != dst && b > 0)
                    .count();
                let zero_fraction = 1.0 - nonzero as f64 / off_diag;
                if zero_fraction <= 0.5 {
                    continue;
                }
                let measured = analyze_matrix(&e.matrix, 1)
                    .map(|a| a.outlier_ratio)
                    .unwrap_or(0.0);
                let step = cost.send_overhead_ns + cost.recv_overhead_ns + cost.latency_ns;
                let est_rr = (n - 1) as f64 * step;
                let est_binned = (nonzero as f64 / n as f64) * step;
                out.push(Misselection {
                    collective: d.collective.clone(),
                    occurrence: occ,
                    chosen: d.chosen.clone(),
                    suggested: "binned".to_string(),
                    declared_ratio: d.outlier_ratio,
                    measured_ratio: measured,
                    est_chosen_ns: est_rr,
                    est_suggested_ns: est_binned,
                    detail: format!(
                        "{:.0}% of pairwise exchanges moved zero bytes, yet round-robin \
                         synchronized with every peer; the zero-bin exemption skips them",
                        zero_fraction * 100.0
                    ),
                });
            }
            _ => {}
        }
    }
    // Collective epochs (not `stage:` profiling epochs — those never have
    // a matching decision by construction) that no decision joined with.
    let unmatched_epochs = map.map_or(0, |m| {
        m.epochs
            .iter()
            .filter(|e| {
                !e.label.starts_with("stage:")
                    && !matched.contains(&(e.label.as_str(), e.occurrence))
            })
            .count()
    });
    MisselectionAudit {
        flags: out,
        unmatched_decisions,
        unmatched_epochs,
    }
}

/// Format a ratio for the fixed-width tables: `inf` for a zero bulk
/// quantile, else three decimals.
pub(crate) fn render_ratio(r: f64) -> String {
    if r.is_infinite() {
        "inf".to_string()
    } else {
        format!("{r:.3}")
    }
}

/// Render a decision log as a fixed-width table, one row per decision.
pub fn render_decision_log(decisions: &[AlgorithmDecision]) -> String {
    let mut out = String::new();
    out.push_str("collective    chosen                  n      bytes     ratio pow2  reason\n");
    for d in decisions {
        out.push_str(&format!(
            "{:<13} {:<20} {:>4} {:>10} {:>9} {:<5} {}\n",
            d.collective,
            d.chosen,
            d.n,
            d.total_bytes,
            render_ratio(d.outlier_ratio),
            d.pow2,
            d.reason
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncd_simnet::{EpochMatrix, SimTime};

    fn decision_event(d: &AlgorithmDecision) -> TraceEvent {
        TraceEvent {
            kind: EventKind::AlgoDecision {
                collective: d.collective.clone().into(),
                n: d.n,
                total_bytes: d.total_bytes,
                ratio_millis: ncd_simnet::ratio_to_millis(d.outlier_ratio),
                pow2: d.pow2,
                chosen: d.chosen.clone().into(),
                reason: d.reason.clone().into(),
            },
            start: SimTime(5),
            end: SimTime(5),
        }
    }

    fn ring_decision(ratio: f64) -> AlgorithmDecision {
        AlgorithmDecision {
            collective: "allgatherv".to_string(),
            n: 8,
            total_bytes: 64 * 1024 + 7 * 8,
            outlier_ratio: ratio,
            pow2: true,
            chosen: "ring".to_string(),
            reason: "total >= long threshold".to_string(),
        }
    }

    /// The audit of a real run — 8 traced ranks, an outlier allgatherv
    /// and a uniform one, twice — survives `decisions.json` both ways.
    #[test]
    fn decisions_json_round_trips() {
        let mut counts = vec![[8usize; 8], [16; 8]];
        counts[0][0] = 64 * 1024;
        let trace = ncd_simnet::Observers {
            trace: true,
            ..ncd_simnet::Observers::NONE
        };
        let cluster = ncd_simnet::ClusterConfig::uniform(8).observe(trace);
        let (_, capture) = ncd_simnet::Cluster::new(cluster)
            .try_run(|rank| {
                let mut comm = crate::Comm::new(rank, MpiConfig::optimized());
                for counts in counts.iter().chain(&counts) {
                    let mut recv = vec![0u8; counts.iter().sum()];
                    comm.allgatherv(&vec![1u8; counts[comm.rank()]], counts, &mut recv);
                }
            })
            .unwrap();
        let traces = capture.traces.expect("traced");
        let decisions = decisions_from_trace(&traces[0]);
        assert_eq!(decisions.len(), 4);
        let json = decisions_json(&decisions);
        assert!(json.starts_with("{\"schema\":1,\"decisions\":[{\"collective\":\"allgatherv\","));
        assert!(json.contains("\"occurrence\":3,\"n\":8,"), "{json}");
        let back = parse_decisions(&json).expect("own output parses");
        let occurrences: Vec<u32> = back.iter().map(|(occ, _)| *occ).collect();
        assert_eq!(occurrences, [0, 1, 2, 3]);
        let back: Vec<AlgorithmDecision> = back.into_iter().map(|(_, d)| d).collect();
        assert_eq!(back, decisions);
        assert_eq!(decisions_json(&back), json);
        for prefix in (1..json.len())
            .step_by(13)
            .filter_map(|cut| json.get(..cut))
        {
            assert!(parse_decisions(prefix).is_err(), "truncated: {prefix}");
        }
        let err = parse_decisions(&json.replacen("\"pow2\":true", "\"pow2\":1", 1));
        assert!(err.unwrap_err().contains("\"pow2\""));
    }

    #[test]
    fn decisions_json_assigns_occurrences_per_collective() {
        let d = |collective: &str| AlgorithmDecision {
            collective: collective.to_string(),
            ..ring_decision(2.0)
        };
        let json = decisions_json(&[d("allgatherv"), d("alltoallw"), d("allgatherv")]);
        assert!(json.contains("\"collective\":\"allgatherv\",\"occurrence\":0"));
        assert!(json.contains("\"collective\":\"alltoallw\",\"occurrence\":0"));
        assert!(json.contains("\"collective\":\"allgatherv\",\"occurrence\":1"));
        assert!(json.contains("\"ratio_millis\":2000"));
        // An infinite ratio (zero bulk quantile) survives as its sentinel.
        let json = decisions_json(&[ring_decision(f64::INFINITY)]);
        assert_eq!(
            parse_decisions(&json).unwrap()[0].1.outlier_ratio,
            f64::INFINITY
        );
    }

    #[test]
    fn a_decision_occurrence_past_u32_is_refused_not_wrapped() {
        let json = decisions_json(&[ring_decision(2.0), ring_decision(2.0)]);
        let wrapped = json.replacen("\"occurrence\":1,", "\"occurrence\":4294967296,", 1);
        let err = parse_decisions(&wrapped).unwrap_err();
        assert!(err.contains("\"occurrence\": 4294967296"), "{err}");
    }

    #[test]
    fn decisions_round_trip_through_the_trace() {
        let d = ring_decision(8192.0);
        let trace = vec![decision_event(&d)];
        let parsed = decisions_from_trace(&trace);
        assert_eq!(parsed, vec![d]);

        let mut inf = ring_decision(f64::INFINITY);
        inf.collective = "alltoallw".to_string();
        let per_rank = decisions_from_traces(&[vec![decision_event(&inf)], vec![]]);
        assert_eq!(per_rank.len(), 2);
        assert!(per_rank[0][0].outlier_ratio.is_infinite());
        assert!(per_rank[1].is_empty());
    }

    #[test]
    fn analyze_matrix_reports_spread_and_hot_pairs() {
        let mut m = CommMatrix::new(4);
        m.add(0, 1, 1000, 1);
        m.add(1, 2, 10, 1);
        m.add(2, 3, 10, 1);
        let a = analyze_matrix(&m, 2).expect("traffic present");
        assert_eq!(a.pairs, 3);
        assert_eq!(a.max_bytes, 1000);
        assert_eq!(a.min_bytes, 10);
        assert!((a.spread - 100.0).abs() < 1e-12);
        assert!((a.mean_bytes - 340.0).abs() < 1e-12);
        // With only 3 active pairs the bulk quantile is the max itself, so
        // the ratio degenerates to 1.
        assert_eq!(a.outlier_ratio, 1.0);
        assert!(a.gini > 0.8, "mostly-silent matrix is unequal: {}", a.gini);
        assert_eq!(a.top, vec![(0, 1, 1000), (1, 2, 10)]);
        assert!(analyze_matrix(&CommMatrix::new(3), 2).is_none());
    }

    #[test]
    fn analyze_comm_map_covers_total_and_epochs() {
        let mut total = CommMatrix::new(2);
        total.add(0, 1, 64, 1);
        let mut em = CommMatrix::new(2);
        em.add(0, 1, 64, 1);
        let map = ClusterCommMap {
            n: 2,
            total,
            epochs: vec![
                EpochMatrix {
                    label: "allgatherv/ring".to_string(),
                    occurrence: 0,
                    matrix: em,
                },
                EpochMatrix {
                    label: "stage:idle".to_string(),
                    occurrence: 0,
                    matrix: CommMatrix::new(2),
                },
            ],
        };
        let (tot, epochs) = analyze_comm_map(&map, 3);
        assert_eq!(tot.unwrap().max_bytes, 64);
        assert_eq!(epochs.len(), 1, "silent epochs are dropped");
        assert_eq!(epochs[0].label, "allgatherv/ring");
    }

    #[test]
    fn ring_over_outliers_is_flagged_even_without_a_map() {
        let cfg = MpiConfig::baseline();
        let cost = CostModel::default();
        let audit = detect_misselections(&[ring_decision(8192.0)], None, &cost, &cfg);
        assert_eq!(audit.flags.len(), 1);
        let f = &audit.flags[0];
        assert_eq!(f.suggested, "recursive_doubling");
        assert_eq!(f.occurrence, 0);
        assert!(f.est_suggested_ns < f.est_chosen_ns);
        assert!(f.detail.contains("ring serializes"));
        assert_eq!(audit.unmatched_decisions, 1, "no map joins no decision");
        assert_eq!(audit.unmatched_epochs, 0);

        // A uniform ring selection is left alone.
        let ok = detect_misselections(&[ring_decision(1.0)], None, &cost, &cfg);
        assert!(ok.flags.is_empty());
    }

    #[test]
    fn measured_epoch_ratio_can_convict_when_declared_cannot() {
        let cfg = MpiConfig::baseline();
        let cost = CostModel::default();
        // 16 active pairs (two ring lanes) so the 0.9 bulk quantile sits
        // below the single hot pair.
        let mut em = CommMatrix::new(8);
        for r in 0..8 {
            em.add(r, (r + 1) % 8, 10, 1);
            em.add(r, (r + 2) % 8, 10, 1);
        }
        em.add(0, 1, 100_000, 1);
        let map = ClusterCommMap {
            n: 8,
            total: em.clone(),
            epochs: vec![EpochMatrix {
                label: "allgatherv/ring".to_string(),
                occurrence: 0,
                matrix: em,
            }],
        };
        let audit = detect_misselections(&[ring_decision(1.0)], Some(&map), &cost, &cfg);
        assert_eq!(audit.flags.len(), 1);
        assert!(audit.flags[0].measured_ratio > cfg.outlier_ratio);
        assert_eq!(audit.flags[0].declared_ratio, 1.0);
        assert_eq!(
            (audit.unmatched_decisions, audit.unmatched_epochs),
            (0, 0),
            "decision and epoch joined exactly"
        );
    }

    #[test]
    fn sparse_round_robin_is_flagged_and_binned_is_not() {
        let cfg = MpiConfig::baseline();
        let cost = CostModel::default();
        let mk = |chosen: &str| AlgorithmDecision {
            collective: "alltoallw".to_string(),
            n: 8,
            total_bytes: 1600,
            outlier_ratio: 1.0,
            pow2: true,
            chosen: chosen.to_string(),
            reason: "x".to_string(),
        };
        // Nearest-neighbour traffic only: 8 of 56 off-diagonal pairs.
        let mut em = CommMatrix::new(8);
        for r in 0..8 {
            em.add(r, (r + 1) % 8, 200, 1);
        }
        let map_for = |label: &str| ClusterCommMap {
            n: 8,
            total: em.clone(),
            epochs: vec![EpochMatrix {
                label: label.to_string(),
                occurrence: 0,
                matrix: em.clone(),
            }],
        };
        let audit = detect_misselections(
            &[mk("round_robin")],
            Some(&map_for("alltoallw/round_robin")),
            &cost,
            &cfg,
        );
        assert_eq!(audit.flags.len(), 1);
        assert_eq!(audit.flags[0].suggested, "binned");
        assert!(audit.flags[0].est_suggested_ns < audit.flags[0].est_chosen_ns);
        assert!(audit.flags[0].detail.contains("zero bytes"));

        let ok = detect_misselections(
            &[mk("binned")],
            Some(&map_for("alltoallw/binned")),
            &cost,
            &cfg,
        );
        assert!(ok.flags.is_empty(), "binned over sparse traffic is the fix");

        // Round-robin without a captured epoch cannot be judged.
        let no_map = detect_misselections(&[mk("round_robin")], None, &cost, &cfg);
        assert!(no_map.flags.is_empty());
        assert_eq!(no_map.unmatched_decisions, 1);
    }

    #[test]
    fn occurrences_join_the_kth_call_to_the_kth_epoch() {
        let cfg = MpiConfig::baseline();
        let cost = CostModel::default();
        // Two ring calls; only the SECOND epoch is skewed.
        let uniform = {
            let mut m = CommMatrix::new(8);
            for r in 0..8 {
                m.add(r, (r + 1) % 8, 500, 1);
                m.add(r, (r + 2) % 8, 500, 1);
            }
            m
        };
        let skewed = {
            let mut m = CommMatrix::new(8);
            for r in 0..8 {
                m.add(r, (r + 1) % 8, 10, 1);
                m.add(r, (r + 2) % 8, 10, 1);
            }
            m.add(0, 1, 100_000, 1);
            m
        };
        let map = ClusterCommMap {
            n: 8,
            total: CommMatrix::new(8),
            epochs: vec![
                EpochMatrix {
                    label: "allgatherv/ring".to_string(),
                    occurrence: 0,
                    matrix: uniform,
                },
                EpochMatrix {
                    label: "allgatherv/ring".to_string(),
                    occurrence: 1,
                    matrix: skewed,
                },
            ],
        };
        let audit = detect_misselections(
            &[ring_decision(1.0), ring_decision(1.0)],
            Some(&map),
            &cost,
            &cfg,
        );
        assert_eq!(audit.flags.len(), 1);
        assert_eq!(
            audit.flags[0].occurrence, 1,
            "only the second call is flagged"
        );
    }

    #[test]
    fn mismatched_decision_and_epoch_counts_are_reported_not_skipped() {
        let cfg = MpiConfig::baseline();
        let cost = CostModel::default();
        // Three ring decisions, but the map holds only the first epoch —
        // plus an orphan epoch from a collective that logged no decision
        // and a stage: epoch (which never has a decision by design).
        let em = |label: &str, occ: u32| EpochMatrix {
            label: label.to_string(),
            occurrence: occ,
            matrix: CommMatrix::new(8),
        };
        let map = ClusterCommMap {
            n: 8,
            total: CommMatrix::new(8),
            epochs: vec![
                em("allgatherv/ring", 0),
                em("alltoallw/binned", 0),
                em("stage:solve", 0),
            ],
        };
        let audit = detect_misselections(
            &[ring_decision(1.0), ring_decision(1.0), ring_decision(1.0)],
            Some(&map),
            &cost,
            &cfg,
        );
        assert_eq!(
            audit.unmatched_decisions, 2,
            "ring occurrences 1 and 2 found no epoch"
        );
        assert_eq!(
            audit.unmatched_epochs, 1,
            "the binned epoch is orphaned; the stage: epoch is exempt"
        );
    }

    #[test]
    fn decision_log_renders_one_row_per_decision() {
        let mut d2 = ring_decision(f64::INFINITY);
        d2.chosen = "recursive_doubling".to_string();
        d2.reason = "outliers: binomial movement".to_string();
        let table = render_decision_log(&[ring_decision(8192.0), d2]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("collective"));
        assert!(lines[1].contains("ring") && lines[1].contains("8192.000"));
        assert!(lines[2].contains("recursive_doubling") && lines[2].contains("inf"));
    }
}
