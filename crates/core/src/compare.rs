//! The differential engine: compare two ledgered runs and explain what
//! regressed and who is to blame.
//!
//! The per-run observability layers (metrics, comm matrices, critical
//! paths, decision audits, diagnosis) each answer a question about *one*
//! run; the paper's whole argument is differential — ring vs
//! outlier-aware allgatherv, single- vs dual-context packing — and so is
//! every regression investigation. This module takes two
//! [`ncd_simnet::LedgerRun`] entries (see `ncd_simnet::ledger`), re-loads
//! their byte-stable artifacts into a [`RunRecord`], and produces a
//! [`RunDiff`]:
//!
//! * per-point **series deltas** over the gated latency series;
//! * per-metric **counter deltas** and log₂-histogram **distribution
//!   shifts** (mean movement plus the fraction of probability mass that
//!   moved buckets);
//! * **comm-matrix structural diff**: new / vanished pairs, per-cell byte
//!   deltas, and hot-pair turnover;
//! * **critical-path diff** aligned by step label `(rank, event, op,
//!   occurrence)`, plus per-`(op, rank)` wait/transfer attribution deltas
//!   — the "which rank's wait grew" answer;
//! * **algorithm-decision flips** joined by `(collective, occurrence)`;
//! * **diagnosis finding diff** matched by `(pattern, op, blamed rank)`:
//!   new, resolved, worsened, improved;
//! * a ranked **cause classification** of the regression as
//!   decision / wait / pack / wire, built from the layers above.
//!
//! Everything is exact: the simulation is deterministic, so
//! `compare(run, run)` is the identity — an empty diff with zero deltas
//! and no flips (property-tested). Renderers: [`render_compare`] for the
//! ASCII blame table, [`diff_json`] for the byte-stable machine-readable
//! artifact (golden-tested).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ncd_simnet::{
    millis_to_ratio, parse_json, ratio_to_millis, Json, JsonValue, JsonWriter, LedgerRun, SimTime,
};

use crate::commstats::AlgorithmDecision;

/// One gated series re-loaded from a ledger entry.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesRecord {
    pub label: String,
    pub points: Vec<(String, f64)>,
}

/// Histogram summary re-loaded from the metrics snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramRecord {
    pub key: String,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// Non-empty log₂ buckets as `(upper_bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramRecord {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Comm matrix re-loaded from `comm.json` (totals only; the epoch
/// breakdown stays in the artifact for human inspection).
#[derive(Clone, Debug, PartialEq)]
pub struct CommRecord {
    pub ranks: usize,
    pub bytes: u64,
    pub msgs: u64,
    /// Nonzero cells as `(src, dst, bytes, msgs)` in `(src, dst)` order.
    pub pairs: Vec<(usize, usize, u64, u64)>,
}

/// One critical-path step re-loaded from `analysis.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct StepRecord {
    pub rank: usize,
    pub label: String,
    pub op: Option<String>,
    pub wait_ns: u64,
    pub slack_ns: u64,
}

/// Critical path + per-(op, rank) attribution re-loaded from
/// `analysis.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct PathRecord {
    pub makespan_ns: u64,
    pub message_hops: u64,
    pub steps: Vec<StepRecord>,
    /// op → per-rank `(wait_ns, transfer_ns)` (indexed by rank).
    pub attribution: Vec<(String, Vec<(u64, u64)>)>,
}

/// One algorithm decision re-loaded from `decisions.json`, with its
/// occurrence index within the collective (the flip-join key).
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionRecord {
    pub collective: String,
    pub occurrence: u32,
    pub n: usize,
    pub total_bytes: u64,
    pub ratio_millis: u64,
    pub pow2: bool,
    pub chosen: String,
    pub reason: String,
}

/// One diagnosis finding re-loaded from `diagnosis.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct FindingRecord {
    pub pattern: String,
    pub op: Option<String>,
    pub blamed: usize,
    pub instances: u64,
    pub severity_ns: u64,
}

/// Diagnosis summary re-loaded from `diagnosis.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnosisRecord {
    pub total_wait_ns: u64,
    pub classified_ns: u64,
    /// Per-pattern `(label, severity_ns, instances)` in export order.
    pub patterns: Vec<(String, u64, u64)>,
    pub findings: Vec<FindingRecord>,
}

/// One run re-loaded from the ledger: everything the differential engine
/// consumes. Artifacts a bench did not record parse to `None`/empty.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub bench: String,
    pub mode: String,
    pub run_id: String,
    pub knobs: Vec<(String, String)>,
    pub series: Vec<SeriesRecord>,
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<HistogramRecord>,
    pub comm: Option<CommRecord>,
    pub path: Option<PathRecord>,
    pub decisions: Vec<DecisionRecord>,
    pub diagnosis: Option<DiagnosisRecord>,
}

/// `run`'s artifact `name`, parsed and handed to `load`; `None` when the
/// run did not record it. Errors name the file.
fn artifact<T>(
    run: &LedgerRun,
    name: &str,
    load: impl FnOnce(&Json) -> Result<T, String>,
) -> Result<Option<T>, String> {
    run.artifact(name)
        .map(|text| parse_json(text).and_then(|v| load(&v)))
        .transpose()
        .map_err(|e| format!("{name}: {e}"))
}

/// A `[a, b, …]` element of exactly `N` counts.
fn counts<const N: usize>(v: &Json, what: &str) -> Result<[u64; N], String> {
    let bad = || format!("{what} is not {N} numbers");
    let items = v.as_array().filter(|a| a.len() == N).ok_or_else(bad)?;
    let mut out = [0; N];
    for (o, i) in out.iter_mut().zip(items) {
        *o = i.as_u64().ok_or_else(bad)?;
    }
    Ok(out)
}

fn load_series(v: &Json) -> Result<Vec<SeriesRecord>, String> {
    v.list("series", |s| {
        let points = s.list("points", |p| match p.as_array() {
            Some([x, y]) => Ok((
                x.as_str().ok_or("x not a string")?.to_string(),
                y.as_f64().unwrap_or(f64::NAN),
            )),
            _ => Err("point is not a pair".to_string()),
        })?;
        Ok(SeriesRecord {
            label: s.str("label")?.to_string(),
            points,
        })
    })
}

type Metrics = (Vec<(String, u64)>, Vec<HistogramRecord>);

fn load_metrics(v: &Json) -> Result<Metrics, String> {
    let m = v.field("metrics")?;
    let counters = m.list("counters", |c| {
        Ok((c.str("key")?.to_string(), c.u64("value")?))
    })?;
    let histograms = m.list("histograms", |h| {
        Ok(HistogramRecord {
            key: h.str("key")?.to_string(),
            count: h.u64("count")?,
            sum: h.u64("sum")?,
            min: h.u64("min")?,
            max: h.u64("max")?,
            p50: h.u64("p50")?,
            p90: h.u64("p90")?,
            p99: h.u64("p99")?,
            buckets: h.list("buckets", |b| counts(b, "bucket").map(<[u64; 2]>::into))?,
        })
    })?;
    Ok((counters, histograms))
}

fn load_comm(v: &Json) -> Result<CommRecord, String> {
    let total = v.field("total")?;
    Ok(CommRecord {
        ranks: v.u64("ranks")? as usize,
        bytes: total.u64("bytes")?,
        msgs: total.u64("msgs")?,
        pairs: total.list("pairs", |p| {
            counts(p, "pair").map(|[s, d, b, m]| (s as usize, d as usize, b, m))
        })?,
    })
}

fn load_path(v: &Json) -> Result<PathRecord, String> {
    Ok(PathRecord {
        makespan_ns: v.u64("makespan_ns")?,
        message_hops: v.u64("message_hops")?,
        steps: v.list("steps", |s| {
            Ok(StepRecord {
                rank: s.u64("rank")? as usize,
                label: s.str("event")?.to_string(),
                op: s.opt_str("op").map(str::to_string),
                wait_ns: s.u64("wait_ns")?,
                slack_ns: s.u64("slack_ns")?,
            })
        })?,
        attribution: v.list("attribution", |a| {
            let ranks = a.list("ranks", |r| Ok((r.u64("wait_ns")?, r.u64("transfer_ns")?)))?;
            Ok((a.str("op")?.to_string(), ranks))
        })?,
    })
}

fn load_decisions(v: &Json) -> Result<Vec<DecisionRecord>, String> {
    v.list("decisions", |d| {
        Ok(DecisionRecord {
            collective: d.str("collective")?.to_string(),
            occurrence: d.u64("occurrence")? as u32,
            n: d.u64("n")? as usize,
            total_bytes: d.u64("total_bytes")?,
            ratio_millis: d.u64("ratio_millis")?,
            pow2: d.bool("pow2")?,
            chosen: d.str("chosen")?.to_string(),
            reason: d.str("reason")?.to_string(),
        })
    })
}

fn load_diagnosis(v: &Json) -> Result<DiagnosisRecord, String> {
    Ok(DiagnosisRecord {
        total_wait_ns: v.u64("total_wait_ns")?,
        classified_ns: v.u64("classified_ns")?,
        patterns: v.list("patterns", |p| {
            Ok((
                p.str("pattern")?.to_string(),
                p.u64("severity_ns")?,
                p.u64("instances")?,
            ))
        })?,
        findings: v.list("findings", |f| {
            Ok(FindingRecord {
                pattern: f.str("pattern")?.to_string(),
                op: f.opt_str("op").map(str::to_string),
                blamed: f.u64("blamed")? as usize,
                instances: f.u64("instances")?,
                severity_ns: f.u64("severity_ns")?,
            })
        })?,
    })
}

impl RunRecord {
    /// Re-load a ledgered run into the comparison model. Fails loudly on
    /// malformed artifacts (a corrupted ledger must not silently compare
    /// as "unchanged").
    pub fn from_ledger(run: &LedgerRun) -> Result<RunRecord, String> {
        let (counters, histograms) =
            artifact(run, "metrics.json", load_metrics)?.unwrap_or_default();
        Ok(RunRecord {
            bench: run.manifest.bench.clone(),
            mode: run.manifest.mode.clone(),
            run_id: run.manifest.run_id.clone(),
            knobs: run.manifest.knobs.clone(),
            series: artifact(run, "series.json", load_series)?.unwrap_or_default(),
            counters,
            histograms,
            comm: artifact(run, "comm.json", load_comm)?,
            path: artifact(run, "analysis.json", load_path)?,
            decisions: artifact(run, "decisions.json", load_decisions)?.unwrap_or_default(),
            diagnosis: artifact(run, "diagnosis.json", load_diagnosis)?,
        })
    }
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

/// One series point that moved: positive delta = current is larger
/// (slower, for the latency series the gate feeds in).
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesDelta {
    pub series: String,
    pub x: String,
    pub base: f64,
    pub current: f64,
    /// Percent change relative to base, in integer thousandths of a
    /// percent (keeps the JSON float-free).
    pub delta_pct_millis: i64,
}

/// One counter that moved.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDelta {
    pub key: String,
    pub base: u64,
    pub current: u64,
}

/// One histogram whose distribution moved: mean shift plus the fraction
/// of probability mass that changed buckets (total-variation distance,
/// in integer thousandths).
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramShift {
    pub key: String,
    pub base_mean_millis: u64,
    pub cur_mean_millis: u64,
    pub base_p90: u64,
    pub cur_p90: u64,
    pub moved_millis: u64,
}

/// Structural diff of two comm matrices.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommDiff {
    pub base_bytes: u64,
    pub cur_bytes: u64,
    /// Pairs with traffic only in the current run: `(src, dst, bytes)`.
    pub new_pairs: Vec<(usize, usize, u64)>,
    /// Pairs with traffic only in the base run.
    pub vanished_pairs: Vec<(usize, usize, u64)>,
    /// Cells present in both whose bytes changed: `(src, dst, delta)`,
    /// sorted by |delta| descending then `(src, dst)`.
    pub cell_deltas: Vec<(usize, usize, i64)>,
    /// Top-5 pairs of the current run that were not top-5 in the base.
    pub new_hot: Vec<(usize, usize, u64)>,
    /// Top-5 pairs of the base run no longer top-5 in the current.
    pub vanished_hot: Vec<(usize, usize, u64)>,
}

impl CommDiff {
    pub fn is_empty(&self) -> bool {
        self.base_bytes == self.cur_bytes
            && self.new_pairs.is_empty()
            && self.vanished_pairs.is_empty()
            && self.cell_deltas.is_empty()
            && self.new_hot.is_empty()
            && self.vanished_hot.is_empty()
    }
}

/// One aligned critical-path step whose wait or slack changed.
#[derive(Clone, Debug, PartialEq)]
pub struct StepDelta {
    pub rank: usize,
    pub label: String,
    pub op: Option<String>,
    pub base_wait_ns: u64,
    pub cur_wait_ns: u64,
    pub base_slack_ns: u64,
    pub cur_slack_ns: u64,
}

/// Per-`(op, rank)` wait/transfer change from the round attribution.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributionDelta {
    pub op: String,
    pub rank: usize,
    pub base_wait_ns: u64,
    pub cur_wait_ns: u64,
    pub base_transfer_ns: u64,
    pub cur_transfer_ns: u64,
}

impl AttributionDelta {
    pub fn wait_delta_ns(&self) -> i64 {
        self.cur_wait_ns as i64 - self.base_wait_ns as i64
    }
}

/// Critical-path diff.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PathDiff {
    pub base_makespan_ns: u64,
    pub cur_makespan_ns: u64,
    pub base_hops: u64,
    pub cur_hops: u64,
    /// Steps aligned by `(rank, label, op, occurrence)` whose wait or
    /// slack changed.
    pub step_deltas: Vec<StepDelta>,
    /// Path steps with no counterpart in the other run (the path routed
    /// through different events).
    pub unaligned_base: u64,
    pub unaligned_cur: u64,
    /// `(op, rank)` attribution changes, largest wait growth first.
    pub attribution_deltas: Vec<AttributionDelta>,
}

impl PathDiff {
    pub fn is_empty(&self) -> bool {
        self.base_makespan_ns == self.cur_makespan_ns
            && self.base_hops == self.cur_hops
            && self.step_deltas.is_empty()
            && self.unaligned_base == 0
            && self.unaligned_cur == 0
            && self.attribution_deltas.is_empty()
    }
}

/// An auto-selection that chose a different algorithm in the two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionFlip {
    pub collective: String,
    pub occurrence: u32,
    pub base_chosen: String,
    pub cur_chosen: String,
    pub base_reason: String,
    pub cur_reason: String,
}

/// What happened to a diagnosis finding between the runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingStatus {
    /// Only in the current run.
    New,
    /// Only in the base run.
    Resolved,
    /// In both; severity grew.
    Worsened,
    /// In both; severity shrank.
    Improved,
}

impl FindingStatus {
    pub fn label(self) -> &'static str {
        match self {
            FindingStatus::New => "new",
            FindingStatus::Resolved => "resolved",
            FindingStatus::Worsened => "worsened",
            FindingStatus::Improved => "improved",
        }
    }
}

/// One finding that changed, matched by `(pattern, op, blamed rank)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FindingDelta {
    pub status: FindingStatus,
    pub pattern: String,
    pub op: Option<String>,
    pub blamed: usize,
    pub base_ns: u64,
    pub cur_ns: u64,
}

/// The four regression classes the observatory attributes a delta to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegressionClass {
    /// An auto-selecting collective chose a different algorithm.
    Decision,
    /// Classified wait-state time moved (skew, serialization, lateness).
    Wait,
    /// Datatype pack work moved (context-search segments, pack-bound
    /// waits).
    Pack,
    /// Traffic volume on the wire moved.
    Wire,
}

impl RegressionClass {
    pub fn label(self) -> &'static str {
        match self {
            RegressionClass::Decision => "decision",
            RegressionClass::Wait => "wait",
            RegressionClass::Pack => "pack",
            RegressionClass::Wire => "wire",
        }
    }
}

/// One ranked cause: the class, a signed magnitude in its native unit
/// (ns for wait, segments for pack, bytes for wire, flip count for
/// decision; positive = current run has more), and a human evidence
/// line.
#[derive(Clone, Debug, PartialEq)]
pub struct Cause {
    pub class: RegressionClass,
    pub magnitude: i64,
    pub evidence: String,
}

/// The full differential between two ledgered runs.
#[derive(Clone, Debug)]
pub struct RunDiff {
    pub bench: String,
    pub base_id: String,
    pub cur_id: String,
    /// Knobs that differ: `(key, base value, current value)`; absent
    /// knobs show as `-`.
    pub knob_deltas: Vec<(String, String, String)>,
    pub series_deltas: Vec<SeriesDelta>,
    pub metric_deltas: Vec<MetricDelta>,
    pub histogram_shifts: Vec<HistogramShift>,
    pub comm: Option<CommDiff>,
    pub path: Option<PathDiff>,
    pub flips: Vec<DecisionFlip>,
    pub finding_deltas: Vec<FindingDelta>,
    pub causes: Vec<Cause>,
    /// Shape mismatches (series present on one side only, artifact
    /// missing on one side, rank-count changes).
    pub notes: Vec<String>,
}

impl RunDiff {
    /// True when the two runs are observationally identical — no deltas,
    /// no flips, no shape changes. `compare(run, run)` must satisfy this
    /// (property-tested).
    pub fn is_empty(&self) -> bool {
        self.knob_deltas.is_empty()
            && self.series_deltas.is_empty()
            && self.metric_deltas.is_empty()
            && self.histogram_shifts.is_empty()
            && self.comm.as_ref().is_none_or(CommDiff::is_empty)
            && self.path.as_ref().is_none_or(PathDiff::is_empty)
            && self.flips.is_empty()
            && self.finding_deltas.is_empty()
            && self.causes.is_empty()
            && self.notes.is_empty()
    }
}

fn pct_millis(base: f64, cur: f64) -> i64 {
    if base == 0.0 {
        return 0;
    }
    (100_000.0 * (cur - base) / base).round() as i64
}

fn mean_millis(h: &HistogramRecord) -> u64 {
    (h.mean() * 1000.0).round() as u64
}

/// Total-variation distance between two bucketed distributions, in
/// integer thousandths: 0 = identical shape, 1000 = disjoint support.
fn moved_millis(a: &HistogramRecord, b: &HistogramRecord) -> u64 {
    if a.count == 0 || b.count == 0 {
        return if a.count == b.count { 0 } else { 1000 };
    }
    let mut bounds: Vec<u64> = a
        .buckets
        .iter()
        .chain(&b.buckets)
        .map(|&(bound, _)| bound)
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mass = |h: &HistogramRecord, bound: u64| -> f64 {
        h.buckets
            .iter()
            .find(|&&(b, _)| b == bound)
            .map_or(0.0, |&(_, c)| c as f64 / h.count as f64)
    };
    let tv: f64 = bounds
        .iter()
        .map(|&bound| (mass(a, bound) - mass(b, bound)).abs())
        .sum::<f64>()
        / 2.0;
    (tv * 1000.0).round() as u64
}

fn diff_comm(base: &CommRecord, cur: &CommRecord, notes: &mut Vec<String>) -> CommDiff {
    if base.ranks != cur.ranks {
        notes.push(format!(
            "comm: rank count changed {} -> {}",
            base.ranks, cur.ranks
        ));
    }
    let to_map = |r: &CommRecord| -> BTreeMap<(usize, usize), u64> {
        r.pairs.iter().map(|&(s, d, b, _)| ((s, d), b)).collect()
    };
    let bm = to_map(base);
    let cm = to_map(cur);
    let mut out = CommDiff {
        base_bytes: base.bytes,
        cur_bytes: cur.bytes,
        ..CommDiff::default()
    };
    for (&(s, d), &b) in &cm {
        match bm.get(&(s, d)) {
            None => out.new_pairs.push((s, d, b)),
            Some(&prev) if prev != b => out.cell_deltas.push((s, d, b as i64 - prev as i64)),
            Some(_) => {}
        }
    }
    for (&(s, d), &b) in &bm {
        if !cm.contains_key(&(s, d)) {
            out.vanished_pairs.push((s, d, b));
        }
    }
    out.cell_deltas
        .sort_by_key(|&(s, d, delta)| (std::cmp::Reverse(delta.unsigned_abs()), s, d));
    let hot = |r: &CommRecord| -> Vec<(usize, usize, u64)> {
        let mut pairs: Vec<(usize, usize, u64)> =
            r.pairs.iter().map(|&(s, d, b, _)| (s, d, b)).collect();
        pairs.sort_by_key(|&(s, d, b)| (std::cmp::Reverse(b), s, d));
        pairs.truncate(5);
        pairs
    };
    let base_hot = hot(base);
    let cur_hot = hot(cur);
    out.new_hot = cur_hot
        .iter()
        .filter(|(s, d, _)| !base_hot.iter().any(|(bs, bd, _)| (bs, bd) == (s, d)))
        .copied()
        .collect();
    out.vanished_hot = base_hot
        .iter()
        .filter(|(s, d, _)| !cur_hot.iter().any(|(cs, cd, _)| (cs, cd) == (s, d)))
        .copied()
        .collect();
    out
}

fn diff_path(base: &PathRecord, cur: &PathRecord) -> PathDiff {
    let mut out = PathDiff {
        base_makespan_ns: base.makespan_ns,
        cur_makespan_ns: cur.makespan_ns,
        base_hops: base.message_hops,
        cur_hops: cur.message_hops,
        ..PathDiff::default()
    };
    // Align steps by (rank, label, op, occurrence): the k-th step with
    // the same identity on each side matches. Steps the other run never
    // produced are counted, not force-matched.
    type StepKey = (usize, String, Option<String>);
    let index = |steps: &[StepRecord]| -> BTreeMap<(StepKey, usize), (u64, u64)> {
        let mut occ: BTreeMap<StepKey, usize> = BTreeMap::new();
        let mut out = BTreeMap::new();
        for s in steps {
            let key = (s.rank, s.label.clone(), s.op.clone());
            let k = occ.entry(key.clone()).or_insert(0);
            out.insert((key, *k), (s.wait_ns, s.slack_ns));
            *k += 1;
        }
        out
    };
    let bi = index(&base.steps);
    let ci = index(&cur.steps);
    for (key, &(bw, bs)) in &bi {
        match ci.get(key) {
            None => out.unaligned_base += 1,
            Some(&(cw, cs)) if (cw, cs) != (bw, bs) => out.step_deltas.push(StepDelta {
                rank: key.0 .0,
                label: key.0 .1.clone(),
                op: key.0 .2.clone(),
                base_wait_ns: bw,
                cur_wait_ns: cw,
                base_slack_ns: bs,
                cur_slack_ns: cs,
            }),
            Some(_) => {}
        }
    }
    out.unaligned_cur = ci.keys().filter(|k| !bi.contains_key(*k)).count() as u64;

    // Attribution join by (op, rank); an op or rank absent on one side
    // contributes zeros there.
    let attr = |p: &PathRecord| -> BTreeMap<(String, usize), (u64, u64)> {
        let mut out = BTreeMap::new();
        for (op, ranks) in &p.attribution {
            for (rank, &(wait, transfer)) in ranks.iter().enumerate() {
                out.insert((op.clone(), rank), (wait, transfer));
            }
        }
        out
    };
    let ba = attr(base);
    let ca = attr(cur);
    let mut keys: Vec<&(String, usize)> = ba.keys().chain(ca.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let (bw, bt) = ba.get(key).copied().unwrap_or((0, 0));
        let (cw, ct) = ca.get(key).copied().unwrap_or((0, 0));
        if (bw, bt) != (cw, ct) {
            out.attribution_deltas.push(AttributionDelta {
                op: key.0.clone(),
                rank: key.1,
                base_wait_ns: bw,
                cur_wait_ns: cw,
                base_transfer_ns: bt,
                cur_transfer_ns: ct,
            });
        }
    }
    out.attribution_deltas
        .sort_by_key(|d| (std::cmp::Reverse(d.wait_delta_ns()), d.op.clone(), d.rank));
    out
}

/// Compare two re-loaded runs. Exact: only genuine differences are
/// recorded, so comparing a run against itself yields
/// [`RunDiff::is_empty`].
pub fn compare(base: &RunRecord, cur: &RunRecord) -> RunDiff {
    let mut diff = RunDiff {
        bench: cur.bench.clone(),
        base_id: base.run_id.clone(),
        cur_id: cur.run_id.clone(),
        knob_deltas: Vec::new(),
        series_deltas: Vec::new(),
        metric_deltas: Vec::new(),
        histogram_shifts: Vec::new(),
        comm: None,
        path: None,
        flips: Vec::new(),
        finding_deltas: Vec::new(),
        causes: Vec::new(),
        notes: Vec::new(),
    };

    // Knobs: differing values name the configuration change up front.
    let mut knob_keys: Vec<&String> = base
        .knobs
        .iter()
        .chain(&cur.knobs)
        .map(|(k, _)| k)
        .collect();
    knob_keys.sort();
    knob_keys.dedup();
    let knob_of = |knobs: &[(String, String)], key: &str| -> String {
        knobs
            .iter()
            .find(|(k, _)| k == key)
            .map_or_else(|| "-".to_string(), |(_, v)| v.clone())
    };
    for key in knob_keys {
        let (b, c) = (knob_of(&base.knobs, key), knob_of(&cur.knobs, key));
        if b != c {
            diff.knob_deltas.push((key.clone(), b, c));
        }
    }
    if base.bench != cur.bench {
        diff.notes
            .push(format!("bench changed: {} -> {}", base.bench, cur.bench));
    }
    if base.mode != cur.mode {
        diff.notes
            .push(format!("mode changed: {} -> {}", base.mode, cur.mode));
    }

    // Series: join by (label, x); moved points become deltas, shape
    // mismatches become notes.
    for bs in &base.series {
        let Some(cs) = cur.series.iter().find(|c| c.label == bs.label) else {
            diff.notes
                .push(format!("series '{}' missing from current run", bs.label));
            continue;
        };
        for (x, by) in &bs.points {
            let Some((_, cy)) = cs.points.iter().find(|(cx, _)| cx == x) else {
                diff.notes.push(format!(
                    "series '{}' point {x} missing from current run",
                    bs.label
                ));
                continue;
            };
            // NaN points (exported as null) compare equal to each other:
            // "both unmeasured" is not a regression.
            if by != cy && !(by.is_nan() && cy.is_nan()) {
                diff.series_deltas.push(SeriesDelta {
                    series: bs.label.clone(),
                    x: x.clone(),
                    base: *by,
                    current: *cy,
                    delta_pct_millis: pct_millis(*by, *cy),
                });
            }
        }
        for (x, _) in &cs.points {
            if !bs.points.iter().any(|(bx, _)| bx == x) {
                diff.notes.push(format!(
                    "series '{}' point {x} new in current run",
                    bs.label
                ));
            }
        }
    }
    for cs in &cur.series {
        if !base.series.iter().any(|b| b.label == cs.label) {
            diff.notes
                .push(format!("series '{}' new in current run", cs.label));
        }
    }

    // Counters: any key whose value moved (absent = 0).
    let mut counter_keys: Vec<&String> = base
        .counters
        .iter()
        .chain(&cur.counters)
        .map(|(k, _)| k)
        .collect();
    counter_keys.sort();
    counter_keys.dedup();
    let counter_of = |counters: &[(String, u64)], key: &str| -> u64 {
        counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |&(_, v)| v)
    };
    for key in counter_keys {
        let (b, c) = (
            counter_of(&base.counters, key),
            counter_of(&cur.counters, key),
        );
        if b != c {
            diff.metric_deltas.push(MetricDelta {
                key: key.clone(),
                base: b,
                current: c,
            });
        }
    }

    // Histograms: distribution shift for keys present in both whose
    // summary moved; keys on one side only are counter-level news and
    // land in notes.
    for bh in &base.histograms {
        match cur.histograms.iter().find(|c| c.key == bh.key) {
            None => diff
                .notes
                .push(format!("histogram '{}' missing from current run", bh.key)),
            Some(ch) if bh != ch => diff.histogram_shifts.push(HistogramShift {
                key: bh.key.clone(),
                base_mean_millis: mean_millis(bh),
                cur_mean_millis: mean_millis(ch),
                base_p90: bh.p90,
                cur_p90: ch.p90,
                moved_millis: moved_millis(bh, ch),
            }),
            Some(_) => {}
        }
    }
    for ch in &cur.histograms {
        if !base.histograms.iter().any(|b| b.key == ch.key) {
            diff.notes
                .push(format!("histogram '{}' new in current run", ch.key));
        }
    }

    // Structured artifacts: diff where both sides recorded them, note
    // one-sided presence.
    let sided = |name: &str, b: bool, c: bool, notes: &mut Vec<String>| -> bool {
        match (b, c) {
            (true, true) => true,
            (true, false) => {
                notes.push(format!("{name} missing from current run"));
                false
            }
            (false, true) => {
                notes.push(format!("{name} new in current run"));
                false
            }
            (false, false) => false,
        }
    };
    if sided(
        "comm matrix",
        base.comm.is_some(),
        cur.comm.is_some(),
        &mut diff.notes,
    ) {
        let d = diff_comm(
            base.comm.as_ref().unwrap(),
            cur.comm.as_ref().unwrap(),
            &mut diff.notes,
        );
        if !d.is_empty() {
            diff.comm = Some(d);
        }
    }
    if sided(
        "critical path",
        base.path.is_some(),
        cur.path.is_some(),
        &mut diff.notes,
    ) {
        let d = diff_path(base.path.as_ref().unwrap(), cur.path.as_ref().unwrap());
        if !d.is_empty() {
            diff.path = Some(d);
        }
    }

    // Decision flips: join by (collective, occurrence).
    for bd in &base.decisions {
        let Some(cd) = cur
            .decisions
            .iter()
            .find(|c| c.collective == bd.collective && c.occurrence == bd.occurrence)
        else {
            diff.notes.push(format!(
                "decision {}#{} missing from current run",
                bd.collective, bd.occurrence
            ));
            continue;
        };
        if bd.chosen != cd.chosen {
            diff.flips.push(DecisionFlip {
                collective: bd.collective.clone(),
                occurrence: bd.occurrence,
                base_chosen: bd.chosen.clone(),
                cur_chosen: cd.chosen.clone(),
                base_reason: bd.reason.clone(),
                cur_reason: cd.reason.clone(),
            });
        }
    }
    for cd in &cur.decisions {
        if !base
            .decisions
            .iter()
            .any(|b| b.collective == cd.collective && b.occurrence == cd.occurrence)
        {
            diff.notes.push(format!(
                "decision {}#{} new in current run",
                cd.collective, cd.occurrence
            ));
        }
    }

    // Findings: match by (pattern, op, blamed).
    if sided(
        "diagnosis",
        base.diagnosis.is_some(),
        cur.diagnosis.is_some(),
        &mut diff.notes,
    ) {
        let bd = base.diagnosis.as_ref().unwrap();
        let cd = cur.diagnosis.as_ref().unwrap();
        let fkey = |f: &FindingRecord| (f.pattern.clone(), f.op.clone(), f.blamed);
        for bf in &bd.findings {
            match cd.findings.iter().find(|cf| fkey(cf) == fkey(bf)) {
                None => diff.finding_deltas.push(FindingDelta {
                    status: FindingStatus::Resolved,
                    pattern: bf.pattern.clone(),
                    op: bf.op.clone(),
                    blamed: bf.blamed,
                    base_ns: bf.severity_ns,
                    cur_ns: 0,
                }),
                Some(cf) if cf.severity_ns != bf.severity_ns => {
                    diff.finding_deltas.push(FindingDelta {
                        status: if cf.severity_ns > bf.severity_ns {
                            FindingStatus::Worsened
                        } else {
                            FindingStatus::Improved
                        },
                        pattern: bf.pattern.clone(),
                        op: bf.op.clone(),
                        blamed: bf.blamed,
                        base_ns: bf.severity_ns,
                        cur_ns: cf.severity_ns,
                    })
                }
                Some(_) => {}
            }
        }
        for cf in &cd.findings {
            if !bd.findings.iter().any(|bf| fkey(bf) == fkey(cf)) {
                diff.finding_deltas.push(FindingDelta {
                    status: FindingStatus::New,
                    pattern: cf.pattern.clone(),
                    op: cf.op.clone(),
                    blamed: cf.blamed,
                    base_ns: 0,
                    cur_ns: cf.severity_ns,
                });
            }
        }
        diff.finding_deltas
            .sort_by_key(|f| std::cmp::Reverse(f.cur_ns.abs_diff(f.base_ns)));
    }

    diff.causes = classify(base, cur, &diff);
    diff
}

/// Attribute the delta between two runs to the four regression classes,
/// using each layer's own evidence: decision flips, diagnosis wait
/// movement, pack-pipeline counters, and wire traffic. Ordered
/// decision → wait → pack → wire (most actionable first); classes with
/// no movement are omitted.
fn classify(base: &RunRecord, cur: &RunRecord, diff: &RunDiff) -> Vec<Cause> {
    let mut out = Vec::new();
    if !diff.flips.is_empty() {
        let f = &diff.flips[0];
        out.push(Cause {
            class: RegressionClass::Decision,
            magnitude: diff.flips.len() as i64,
            evidence: format!(
                "{} flip(s): {} #{} chose {} (was {}) — {}",
                diff.flips.len(),
                f.collective,
                f.occurrence,
                f.cur_chosen,
                f.base_chosen,
                f.cur_reason
            ),
        });
    }
    if let (Some(bd), Some(cd)) = (&base.diagnosis, &cur.diagnosis) {
        let delta = cd.classified_ns as i64 - bd.classified_ns as i64;
        if delta != 0 {
            let top = diff
                .finding_deltas
                .first()
                .map(|f| {
                    format!(
                        "top mover: {} blamed rank {} {} ({} -> {})",
                        f.pattern,
                        f.blamed,
                        f.status.label(),
                        SimTime::from_ns(f.base_ns),
                        SimTime::from_ns(f.cur_ns),
                    )
                })
                .unwrap_or_default();
            out.push(Cause {
                class: RegressionClass::Wait,
                magnitude: delta,
                evidence: format!(
                    "classified wait {} -> {}; {top}",
                    SimTime::from_ns(bd.classified_ns),
                    SimTime::from_ns(cd.classified_ns),
                ),
            });
        }
    }
    let seek = |r: &RunRecord| -> u64 {
        r.counters
            .iter()
            .filter(|(k, _)| k.starts_with("datatype/seek_total/"))
            .map(|&(_, v)| v)
            .sum()
    };
    let (bs, cs) = (seek(base), seek(cur));
    if bs != cs {
        out.push(Cause {
            class: RegressionClass::Pack,
            magnitude: cs as i64 - bs as i64,
            evidence: format!("context-search segments {bs} -> {cs}"),
        });
    }
    if let (Some(bc), Some(cc)) = (&base.comm, &cur.comm) {
        if bc.bytes != cc.bytes {
            out.push(Cause {
                class: RegressionClass::Wire,
                magnitude: cc.bytes as i64 - bc.bytes as i64,
                evidence: format!("wire traffic {} B -> {} B", bc.bytes, cc.bytes),
            });
        }
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    SimTime::from_ns(ns).to_string()
}

/// Render the differential as the "what regressed and who is to blame"
/// report. `top_k` caps each section's row count.
pub fn render_compare(diff: &RunDiff, top_k: usize) -> String {
    let mut out = format!(
        "=== run differential: {} (base {} -> current {}) ===\n",
        diff.bench, diff.base_id, diff.cur_id
    );
    if diff.is_empty() {
        out.push_str("runs are observationally identical: no deltas, no flips\n");
        return out;
    }
    if !diff.knob_deltas.is_empty() {
        out.push_str("configuration changes:\n");
        for (k, b, c) in &diff.knob_deltas {
            let _ = writeln!(out, "  {k}: {b} -> {c}");
        }
    }
    if !diff.causes.is_empty() {
        out.push_str("regression classification (most actionable first):\n");
        for cause in &diff.causes {
            let _ = writeln!(
                out,
                "  [{}] {:+}  {}",
                cause.class.label(),
                cause.magnitude,
                cause.evidence
            );
        }
    }
    if !diff.series_deltas.is_empty() {
        let _ = writeln!(
            out,
            "series deltas ({} point(s) moved):",
            diff.series_deltas.len()
        );
        let _ = writeln!(
            out,
            "  {:<26} {:>10} {:>14} {:>14} {:>9}",
            "series", "x", "base", "current", "delta"
        );
        let mut rows: Vec<&SeriesDelta> = diff.series_deltas.iter().collect();
        rows.sort_by_key(|d| std::cmp::Reverse(d.delta_pct_millis.unsigned_abs()));
        for d in rows.iter().take(top_k) {
            let _ = writeln!(
                out,
                "  {:<26} {:>10} {:>14.3} {:>14.3} {:>+8.1}%",
                d.series,
                d.x,
                d.base,
                d.current,
                d.delta_pct_millis as f64 / 1000.0
            );
        }
        if rows.len() > top_k {
            let _ = writeln!(out, "  ... {} more point(s)", rows.len() - top_k);
        }
    }
    if !diff.flips.is_empty() {
        out.push_str("algorithm-decision flips:\n");
        for f in &diff.flips {
            let _ = writeln!(
                out,
                "  {}#{}: {} -> {}\n    base: {}\n    now:  {}",
                f.collective,
                f.occurrence,
                f.base_chosen,
                f.cur_chosen,
                f.base_reason,
                f.cur_reason
            );
        }
    }
    if let Some(p) = &diff.path {
        let _ = writeln!(
            out,
            "critical path: makespan {} -> {} ({:+} ns), message hops {} -> {}",
            fmt_ns(p.base_makespan_ns),
            fmt_ns(p.cur_makespan_ns),
            p.cur_makespan_ns as i64 - p.base_makespan_ns as i64,
            p.base_hops,
            p.cur_hops
        );
        if p.unaligned_base + p.unaligned_cur > 0 {
            let _ = writeln!(
                out,
                "  path re-routed: {} base / {} current step(s) had no counterpart",
                p.unaligned_base, p.unaligned_cur
            );
        }
        if !p.attribution_deltas.is_empty() {
            out.push_str("  wait attribution deltas (who absorbed the change):\n");
            let _ = writeln!(
                out,
                "  {:<28} {:>5} {:>14} {:>14} {:>14}",
                "op", "rank", "base wait", "current wait", "delta"
            );
            for a in p.attribution_deltas.iter().take(top_k) {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>5} {:>14} {:>14} {:>+14}",
                    a.op,
                    a.rank,
                    fmt_ns(a.base_wait_ns),
                    fmt_ns(a.cur_wait_ns),
                    a.wait_delta_ns()
                );
            }
            if p.attribution_deltas.len() > top_k {
                let _ = writeln!(
                    out,
                    "  ... {} more (op, rank) cell(s)",
                    p.attribution_deltas.len() - top_k
                );
            }
        }
    }
    if !diff.finding_deltas.is_empty() {
        out.push_str("diagnosis finding diff:\n");
        for f in diff.finding_deltas.iter().take(top_k) {
            let _ = writeln!(
                out,
                "  {:<9} {:<22} op {:<26} blamed {:>3}  {} -> {}",
                f.status.label(),
                f.pattern,
                f.op.as_deref().unwrap_or("-"),
                f.blamed,
                fmt_ns(f.base_ns),
                fmt_ns(f.cur_ns)
            );
        }
        if diff.finding_deltas.len() > top_k {
            let _ = writeln!(
                out,
                "  ... {} more finding(s)",
                diff.finding_deltas.len() - top_k
            );
        }
    }
    if let Some(c) = &diff.comm {
        let _ = writeln!(
            out,
            "comm matrix: {} B -> {} B ({:+} B)",
            c.base_bytes,
            c.cur_bytes,
            c.cur_bytes as i64 - c.base_bytes as i64
        );
        let pair_list = |label: &str, pairs: &[(usize, usize, u64)], out: &mut String| {
            if pairs.is_empty() {
                return;
            }
            let _ = write!(out, "  {label}:");
            for (s, d, b) in pairs.iter().take(top_k) {
                let _ = write!(out, " {s}->{d}:{b}B");
            }
            out.push('\n');
        };
        pair_list("new pairs", &c.new_pairs, &mut out);
        pair_list("vanished pairs", &c.vanished_pairs, &mut out);
        pair_list("newly hot", &c.new_hot, &mut out);
        pair_list("no longer hot", &c.vanished_hot, &mut out);
        if !c.cell_deltas.is_empty() {
            out.push_str("  largest cell deltas:");
            for (s, d, delta) in c.cell_deltas.iter().take(top_k) {
                let _ = write!(out, " {s}->{d}:{delta:+}B");
            }
            out.push('\n');
        }
    }
    if !diff.metric_deltas.is_empty() {
        let _ = writeln!(
            out,
            "metric deltas ({} counter(s) moved):",
            diff.metric_deltas.len()
        );
        let mut rows: Vec<&MetricDelta> = diff.metric_deltas.iter().collect();
        rows.sort_by_key(|d| std::cmp::Reverse(d.current.abs_diff(d.base)));
        for d in rows.iter().take(top_k) {
            let _ = writeln!(
                out,
                "  {:<44} {:>12} -> {:>12} ({:+})",
                d.key,
                d.base,
                d.current,
                d.current as i64 - d.base as i64
            );
        }
        if rows.len() > top_k {
            let _ = writeln!(out, "  ... {} more counter(s)", rows.len() - top_k);
        }
    }
    if !diff.histogram_shifts.is_empty() {
        out.push_str("distribution shifts:\n");
        for h in diff.histogram_shifts.iter().take(top_k) {
            let _ = writeln!(
                out,
                "  {:<44} mean {:.1} -> {:.1}  p90 {} -> {}  moved {:.1}%",
                h.key,
                h.base_mean_millis as f64 / 1000.0,
                h.cur_mean_millis as f64 / 1000.0,
                h.base_p90,
                h.cur_p90,
                h.moved_millis as f64 / 10.0
            );
        }
        if diff.histogram_shifts.len() > top_k {
            let _ = writeln!(
                out,
                "  ... {} more histogram(s)",
                diff.histogram_shifts.len() - top_k
            );
        }
    }
    if !diff.notes.is_empty() {
        out.push_str("shape changes:\n");
        for n in &diff.notes {
            let _ = writeln!(out, "  {n}");
        }
    }
    out
}

impl JsonValue for PathDiff {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("base_makespan_ns", self.base_makespan_ns);
            w.field("cur_makespan_ns", self.cur_makespan_ns);
            w.field("base_hops", self.base_hops);
            w.field("cur_hops", self.cur_hops);
            w.field("unaligned_base", self.unaligned_base);
            w.field("unaligned_cur", self.unaligned_cur);
            w.objects("steps", &self.step_deltas, |w, s| {
                w.field("rank", s.rank).field("event", &s.label);
                w.field("op", &s.op);
                w.field("base_wait_ns", s.base_wait_ns);
                w.field("cur_wait_ns", s.cur_wait_ns);
                w.field("base_slack_ns", s.base_slack_ns);
                w.field("cur_slack_ns", s.cur_slack_ns);
            });
            w.objects("attribution", &self.attribution_deltas, |w, a| {
                w.field("op", &a.op).field("rank", a.rank);
                w.field("base_wait_ns", a.base_wait_ns);
                w.field("cur_wait_ns", a.cur_wait_ns);
                w.field("base_transfer_ns", a.base_transfer_ns);
                w.field("cur_transfer_ns", a.cur_transfer_ns);
            });
        });
    }
}

impl JsonValue for CommDiff {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("base_bytes", self.base_bytes);
            w.field("cur_bytes", self.cur_bytes);
            w.field("new_pairs", &self.new_pairs);
            w.field("vanished_pairs", &self.vanished_pairs);
            w.field("new_hot", &self.new_hot);
            w.field("vanished_hot", &self.vanished_hot);
            w.field("cell_deltas", &self.cell_deltas);
        });
    }
}

/// JSON export of a differential (golden-tested). Every numeric field is
/// an integer — ratios and percentages in thousandths
/// ([`ncd_simnet::millis_to_ratio`] converts back) — except the raw
/// series values, whose shortest-round-trip formatting is stable for the
/// parsed f64 (`null` where the run recorded none).
pub fn diff_json(diff: &RunDiff) -> String {
    JsonWriter::schema_led(|w| {
        w.field("bench", &diff.bench).field("base", &diff.base_id);
        w.field("current", &diff.cur_id)
            .field("empty", diff.is_empty());
        w.field("knobs", &diff.knob_deltas);
        w.objects("causes", &diff.causes, |w, c| {
            w.field("class", c.class.label());
            w.field("magnitude", c.magnitude);
            w.field("evidence", &c.evidence);
        });
        w.objects("series", &diff.series_deltas, |w, d| {
            w.field("series", &d.series).field("x", &d.x);
            w.field("base", d.base).field("current", d.current);
            w.field("delta_pct_millis", d.delta_pct_millis);
        });
        w.objects("flips", &diff.flips, |w, f| {
            w.field("collective", &f.collective);
            w.field("occurrence", f.occurrence);
            w.field("base", &f.base_chosen);
            w.field("current", &f.cur_chosen);
            w.field("base_reason", &f.base_reason);
            w.field("cur_reason", &f.cur_reason);
        });
        w.field("path", &diff.path);
        w.objects("findings", &diff.finding_deltas, |w, f| {
            w.field("status", f.status.label());
            w.field("pattern", &f.pattern).field("op", &f.op);
            w.field("blamed", f.blamed).field("base_ns", f.base_ns);
            w.field("cur_ns", f.cur_ns);
        });
        w.field("comm", &diff.comm);
        w.objects("metrics", &diff.metric_deltas, |w, d| {
            w.field("key", &d.key).field("base", d.base);
            w.field("current", d.current);
        });
        w.objects("histograms", &diff.histogram_shifts, |w, h| {
            w.field("key", &h.key);
            w.field("base_mean_millis", h.base_mean_millis);
            w.field("cur_mean_millis", h.cur_mean_millis);
            w.field("base_p90", h.base_p90).field("cur_p90", h.cur_p90);
            w.field("moved_millis", h.moved_millis);
        });
        w.field("notes", &diff.notes);
    })
}

/// Convenience used by tests and tooling: the outlier ratio a decision
/// record carries, back in float form.
pub fn decision_ratio(d: &DecisionRecord) -> f64 {
    millis_to_ratio(d.ratio_millis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncd_simnet::{RunManifest, SCHEMA_VERSION};

    fn run_with(artifacts: &[(&str, String)]) -> RunRecord {
        let run = LedgerRun {
            manifest: RunManifest {
                bench: "t".to_string(),
                mode: "smoke".to_string(),
                schema: SCHEMA_VERSION,
                knobs: vec![],
                run_id: "0000000000000000".to_string(),
            },
            artifacts: artifacts
                .iter()
                .map(|(n, c)| (n.to_string(), c.clone()))
                .collect(),
        };
        RunRecord::from_ledger(&run).expect("parse")
    }

    fn series_artifact(points: &[(&str, f64)]) -> String {
        JsonWriter::schema_led(|w| {
            w.field("name", "t").field("mode", "smoke");
            w.key("series").array(|w| {
                w.object(|w| {
                    w.field("label", "lat").field("points", points);
                });
            });
        })
    }

    #[test]
    fn identical_runs_compare_empty() {
        let art = [("series.json", series_artifact(&[("1", 10.0), ("2", 20.0)]))];
        let a = run_with(&art);
        let b = run_with(&art);
        let diff = compare(&a, &b);
        assert!(diff.is_empty(), "diff: {diff:?}");
        assert!(render_compare(&diff, 10).contains("observationally identical"));
        assert!(diff_json(&diff).contains("\"empty\":true"));
    }

    #[test]
    fn series_regression_is_reported() {
        let a = run_with(&[("series.json", series_artifact(&[("1", 10.0)]))]);
        let b = run_with(&[("series.json", series_artifact(&[("1", 15.0)]))]);
        let diff = compare(&a, &b);
        assert_eq!(diff.series_deltas.len(), 1);
        assert_eq!(diff.series_deltas[0].delta_pct_millis, 50_000);
        assert!(!diff.is_empty());
        let table = render_compare(&diff, 10);
        assert!(table.contains("+50.0%"), "{table}");
    }

    /// A point one run did not measure is `null` in `series.json` and
    /// NaN in the record: the delta must export as `null`, not `NaN`.
    #[test]
    fn unmeasured_points_export_as_null() {
        let measured = run_with(&[("series.json", series_artifact(&[("1", 2.5)]))]);
        let unmeasured = run_with(&[("series.json", series_artifact(&[("1", f64::NAN)]))]);
        for (base, cur, expect) in [
            (&unmeasured, &measured, "\"base\":null,\"current\":2.5"),
            (&measured, &unmeasured, "\"base\":2.5,\"current\":null"),
        ] {
            let json = diff_json(&compare(base, cur));
            assert!(json.contains(expect), "{json}");
            let back = parse_json(&json).expect("diff.json parses back");
            assert_eq!(back.array("series").map(<[Json]>::len), Ok(1));
        }
    }

    #[test]
    fn shape_mismatches_become_notes() {
        let a = run_with(&[("series.json", series_artifact(&[("1", 10.0), ("2", 1.0)]))]);
        let b = run_with(&[("series.json", series_artifact(&[("1", 10.0)]))]);
        let diff = compare(&a, &b);
        assert!(diff.series_deltas.is_empty());
        assert_eq!(diff.notes.len(), 1);
        assert!(diff.notes[0].contains("point 2 missing"));
    }

    #[test]
    fn decision_flip_is_detected_and_classified() {
        let base = "{\"schema\":1,\"decisions\":[{\"collective\":\"allgatherv\",\"occurrence\":0,\"n\":16,\"total_bytes\":33280,\"ratio_millis\":4096000,\"pow2\":true,\"chosen\":\"ring\",\"reason\":\"total >= long threshold\"}]}";
        let cur = "{\"schema\":1,\"decisions\":[{\"collective\":\"allgatherv\",\"occurrence\":0,\"n\":16,\"total_bytes\":33280,\"ratio_millis\":4096000,\"pow2\":true,\"chosen\":\"recursive_doubling\",\"reason\":\"outliers: adaptive path\"}]}";
        let a = run_with(&[("decisions.json", base.to_string())]);
        let b = run_with(&[("decisions.json", cur.to_string())]);
        let diff = compare(&a, &b);
        assert_eq!(diff.flips.len(), 1);
        assert_eq!(diff.flips[0].base_chosen, "ring");
        assert_eq!(diff.flips[0].cur_chosen, "recursive_doubling");
        assert_eq!(diff.causes.len(), 1);
        assert_eq!(diff.causes[0].class, RegressionClass::Decision);
        // And the identity still holds per artifact kind.
        assert!(compare(&a, &a).is_empty());
    }

    #[test]
    fn decisions_json_assigns_occurrences_per_collective() {
        let d = |collective: &str, chosen: &str| AlgorithmDecision {
            collective: collective.to_string(),
            n: 4,
            total_bytes: 100,
            outlier_ratio: 2.0,
            pow2: true,
            chosen: chosen.to_string(),
            reason: "r".to_string(),
        };
        let json = decisions_json(&[
            d("allgatherv", "ring"),
            d("alltoallw", "binned"),
            d("allgatherv", "ring"),
        ]);
        assert!(json.starts_with(&format!("{{\"schema\":{SCHEMA_VERSION},\"decisions\":[")));
        assert!(json.contains("\"collective\":\"allgatherv\",\"occurrence\":0"));
        assert!(json.contains("\"collective\":\"alltoallw\",\"occurrence\":0"));
        assert!(json.contains("\"collective\":\"allgatherv\",\"occurrence\":1"));
        assert!(json.contains("\"ratio_millis\":2000"));
    }

    #[test]
    fn comm_structural_diff_finds_new_and_vanished_pairs() {
        let base = "{\"schema\":1,\"ranks\":4,\"total\":{\"bytes\":100,\"msgs\":2,\"pairs\":[[0,1,60,1],[1,2,40,1]]},\"epochs\":[]}";
        let cur = "{\"schema\":1,\"ranks\":4,\"total\":{\"bytes\":130,\"msgs\":3,\"pairs\":[[0,1,80,1],[2,3,50,2]]},\"epochs\":[]}";
        let a = run_with(&[("comm.json", base.to_string())]);
        let b = run_with(&[("comm.json", cur.to_string())]);
        let diff = compare(&a, &b);
        let c = diff.comm.as_ref().expect("comm diff");
        assert_eq!(c.new_pairs, vec![(2, 3, 50)]);
        assert_eq!(c.vanished_pairs, vec![(1, 2, 40)]);
        assert_eq!(c.cell_deltas, vec![(0, 1, 20)]);
        assert_eq!(diff.causes.len(), 1);
        assert_eq!(diff.causes[0].class, RegressionClass::Wire);
        assert_eq!(diff.causes[0].magnitude, 30);
        assert!(compare(&b, &b).is_empty());
    }

    #[test]
    fn finding_diff_tracks_all_four_statuses() {
        let diag = |findings: &str, classified: u64| {
            format!(
                "{{\"schema\":1,\"ranks\":2,\"makespan_ns\":100,\"total_wait_ns\":50,\"classified_ns\":{classified},\"patterns\":[],\"findings\":[{findings}],\"blame\":[],\"unmatched_recvs\":0,\"unmatched_sends\":0}}"
            )
        };
        let f = |pattern: &str, blamed: usize, sev: u64| {
            format!(
                "{{\"pattern\":\"{pattern}\",\"op\":\"allgatherv/ring\",\"blamed\":{blamed},\"waiters\":1,\"instances\":1,\"severity_ns\":{sev},\"max_ns\":{sev}}}"
            )
        };
        let base_f = format!("{},{}", f("late-sender", 0, 40), f("late-receiver", 1, 10));
        let cur_f = format!(
            "{},{}",
            f("late-sender", 0, 25),
            f("serialization-chain", 2, 5)
        );
        let a = run_with(&[("diagnosis.json", diag(&base_f, 50))]);
        let b = run_with(&[("diagnosis.json", diag(&cur_f, 30))]);
        let diff = compare(&a, &b);
        let statuses: Vec<(&str, usize)> = diff
            .finding_deltas
            .iter()
            .map(|f| (f.status.label(), f.blamed))
            .collect();
        assert!(statuses.contains(&("improved", 0)), "{statuses:?}");
        assert!(statuses.contains(&("resolved", 1)), "{statuses:?}");
        assert!(statuses.contains(&("new", 2)), "{statuses:?}");
        assert_eq!(diff.causes[0].class, RegressionClass::Wait);
        assert_eq!(diff.causes[0].magnitude, -20);
        assert!(compare(&a, &a).is_empty());
    }

    #[test]
    fn histogram_shift_reports_moved_mass() {
        let metrics = |buckets: &str, sum: u64, p90: u64| {
            format!(
                "{{\"schema\":1,\"metrics\":{{\"counters\":[],\"gauges\":[],\"histograms\":[{{\"key\":\"a/b/c\",\"count\":4,\"sum\":{sum},\"min\":1,\"max\":64,\"p50\":2,\"p90\":{p90},\"p99\":{p90},\"buckets\":[{buckets}]}}]}}}}"
            )
        };
        let a = run_with(&[("metrics.json", metrics("[3,4]", 8, 3))]);
        let b = run_with(&[("metrics.json", metrics("[3,2],[63,2]", 70, 63))]);
        let diff = compare(&a, &b);
        assert_eq!(diff.histogram_shifts.len(), 1);
        let h = &diff.histogram_shifts[0];
        // Half the mass moved to the 63-bound bucket.
        assert_eq!(h.moved_millis, 500);
        assert_eq!(h.base_p90, 3);
        assert_eq!(h.cur_p90, 63);
        assert!(compare(&b, &b).is_empty());
    }

    #[test]
    fn path_diff_aligns_steps_and_attribution() {
        let analysis = |wait: u64, makespan: u64| {
            format!(
                "{{\"schema\":1,\"makespan_ns\":{makespan},\"message_hops\":2,\"steps\":[{{\"rank\":1,\"event\":\"recv from 0\",\"op\":\"allgatherv/ring\",\"start_ns\":0,\"end_ns\":10,\"wait_ns\":{wait},\"via_message\":true,\"slack_ns\":0}}],\"attribution\":[{{\"op\":\"allgatherv/ring\",\"ranks\":[{{\"rounds\":1,\"wait_ns\":0,\"transfer_ns\":5,\"msgs\":1,\"bytes\":8}},{{\"rounds\":1,\"wait_ns\":{wait},\"transfer_ns\":5,\"msgs\":1,\"bytes\":8}}]}}]}}"
            )
        };
        let a = run_with(&[("analysis.json", analysis(40, 100))]);
        let b = run_with(&[("analysis.json", analysis(10, 70))]);
        let diff = compare(&a, &b);
        let p = diff.path.as_ref().expect("path diff");
        assert_eq!(p.base_makespan_ns, 100);
        assert_eq!(p.cur_makespan_ns, 70);
        assert_eq!(p.step_deltas.len(), 1);
        assert_eq!(p.step_deltas[0].base_wait_ns, 40);
        assert_eq!(p.step_deltas[0].cur_wait_ns, 10);
        assert_eq!(p.attribution_deltas.len(), 1);
        assert_eq!(p.attribution_deltas[0].rank, 1);
        assert_eq!(p.attribution_deltas[0].wait_delta_ns(), -30);
        assert!(compare(&b, &b).is_empty());
    }

    #[test]
    fn diff_json_is_byte_stable_and_schema_led() {
        let a = run_with(&[("series.json", series_artifact(&[("1", 10.0)]))]);
        let b = run_with(&[("series.json", series_artifact(&[("1", 15.5)]))]);
        let d1 = diff_json(&compare(&a, &b));
        let d2 = diff_json(&compare(&a, &b));
        assert_eq!(d1, d2);
        assert!(d1.starts_with(&format!("{{\"schema\":{SCHEMA_VERSION},\"bench\":")));
        assert!(d1.contains("\"base\":15.5") || d1.contains("\"current\":15.5"));
    }
}
