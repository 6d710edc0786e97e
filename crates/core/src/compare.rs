//! The differential engine: compare two ledgered runs and explain what
//! regressed and who is to blame.
//!
//! The per-run observability layers (metrics, comm matrices, critical
//! paths, decision audits, diagnosis) each answer a question about *one*
//! run; the paper's whole argument is differential — ring vs
//! outlier-aware allgatherv, single- vs dual-context packing — and so is
//! every regression investigation. This module takes two
//! [`ncd_simnet::LedgerRun`] entries (see `ncd_simnet::ledger`), re-loads
//! their byte-stable artifacts into a [`RunRecord`] — each through the
//! reader that lives beside its writer, so no artifact's key names are
//! spelled here — and produces a [`RunDiff`], every section of it one
//! [`outer_join`]:
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

use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Write as _};

use ncd_simnet::{
    parse_analysis, parse_comm_matrix, parse_diagnosis, parse_metrics, parse_series,
    AnalysisSummary, CommMatrix, DiagnosisSummary, Finding, Histogram, JsonValue, JsonWriter,
    LedgerRun, MetricsSnapshot, Series, SimTime,
};

use crate::commstats::{parse_decisions, AlgorithmDecision};

/// One run re-loaded from the ledger: everything the differential engine
/// consumes, each artifact through the reader beside its writer. Artifacts
/// a bench did not record are `None`/empty.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    pub bench: String,
    pub mode: String,
    pub run_id: String,
    pub knobs: Vec<(String, String)>,
    pub series: Vec<Series>,
    pub metrics: MetricsSnapshot,
    /// The run's total traffic matrix (`comm.json` without its epochs).
    pub comm: Option<CommMatrix>,
    pub path: Option<AnalysisSummary>,
    /// Each decision with its occurrence index within the collective.
    pub decisions: Vec<(u32, AlgorithmDecision)>,
    pub diagnosis: Option<DiagnosisSummary>,
}

impl RunRecord {
    /// Re-load a ledgered run into the comparison model. Fails loudly on
    /// malformed artifacts (a corrupted ledger must not silently compare
    /// as "unchanged"); errors name the file.
    pub fn from_ledger(run: &LedgerRun) -> Result<RunRecord, String> {
        fn read<T>(
            run: &LedgerRun,
            name: &str,
            parse: impl FnOnce(&str) -> Result<T, String>,
        ) -> Result<Option<T>, String> {
            let parsed = run.artifact(name).map(parse).transpose();
            parsed.map_err(|e| format!("{name}: {e}"))
        }
        Ok(RunRecord {
            bench: run.manifest.bench.clone(),
            mode: run.manifest.mode.clone(),
            run_id: run.manifest.run_id.clone(),
            knobs: run.manifest.knobs.clone(),
            series: read(run, "series.json", parse_series)?.unwrap_or_default(),
            metrics: read(run, "metrics.json", parse_metrics)?.unwrap_or_default(),
            comm: read(run, "comm.json", parse_comm_matrix)?.map(|map| map.total),
            path: read(run, "analysis.json", parse_analysis)?,
            decisions: read(run, "decisions.json", parse_decisions)?.unwrap_or_default(),
            diagnosis: read(run, "diagnosis.json", parse_diagnosis)?,
        })
    }
}

/// The keyed full outer join every section of the differential is: each
/// row of `base` and of `cur` exactly once, as `(key, base side, current
/// side)` with at least one side present. Matched and base-only rows come
/// first, in base order, then the current-only rows in current order; a
/// section reported in key order sorts the result (stably). Rows sharing
/// a key pair up by occurrence — the k-th of `base` with the k-th of `cur`
/// — and the surplus is one-sided. O((n + m) log(n + m)).
pub fn outer_join<'a, T, K: Ord>(
    base: &'a [T],
    cur: &'a [T],
    key: impl Fn(&'a T) -> K,
) -> Vec<(K, Option<&'a T>, Option<&'a T>)> {
    let mut unmatched: BTreeMap<K, VecDeque<usize>> = BTreeMap::new();
    for (i, c) in cur.iter().enumerate() {
        unmatched.entry(key(c)).or_default().push_back(i);
    }
    let mut rows = Vec::with_capacity(base.len().max(cur.len()));
    let mut matched = vec![false; cur.len()];
    for b in base {
        let k = key(b);
        let hit = unmatched.get_mut(&k).and_then(VecDeque::pop_front);
        rows.push((k, Some(b), hit.map(|i| &cur[i])));
        if let Some(i) = hit {
            matched[i] = true;
        }
    }
    let surplus = cur.iter().zip(matched).filter(|(_, matched)| !matched);
    rows.extend(surplus.map(|(c, _)| (key(c), None, Some(c))));
    rows
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
#[derive(Clone, Debug, Default)]
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

/// Both sides of `what` — a joined row, or an artifact only some benches
/// record — or a note naming the run that lacks it.
fn present<'a, T>(
    what: fmt::Arguments<'_>,
    base: Option<&'a T>,
    cur: Option<&'a T>,
    notes: &mut Vec<String>,
) -> Option<(&'a T, &'a T)> {
    match (base, cur) {
        (Some(b), Some(c)) => return Some((b, c)),
        (Some(_), None) => notes.push(format!("{what} missing from current run")),
        (None, Some(_)) => notes.push(format!("{what} new in current run")),
        (None, None) => {}
    }
    None
}

fn pct_millis(base: f64, cur: f64) -> i64 {
    if base == 0.0 {
        return 0;
    }
    (100_000.0 * (cur - base) / base).round() as i64
}

fn mean_millis(h: &Histogram) -> u64 {
    (h.mean() * 1000.0).round() as u64
}

/// Total-variation distance between two bucketed distributions, in
/// integer thousandths: 0 = identical shape, 1000 = disjoint support.
fn moved_millis(a: &Histogram, b: &Histogram) -> u64 {
    if a.count() == 0 || b.count() == 0 {
        return if a.count() == b.count() { 0 } else { 1000 };
    }
    let (a_buckets, b_buckets): (Vec<_>, Vec<_>) =
        (a.nonzero_buckets().collect(), b.nonzero_buckets().collect());
    let mut rows = outer_join(&a_buckets, &b_buckets, |&(bound, _)| bound);
    rows.sort_by_key(|&(bound, ..)| bound);
    let mass = |bucket: Option<&(u64, u64)>, h: &Histogram| {
        bucket.map_or(0.0, |&(_, count)| count as f64 / h.count() as f64)
    };
    let tv: f64 = rows
        .iter()
        .map(|&(_, in_a, in_b)| (mass(in_a, a) - mass(in_b, b)).abs())
        .sum::<f64>()
        / 2.0;
    (tv * 1000.0).round() as u64
}

fn diff_comm(base: &CommMatrix, cur: &CommMatrix, notes: &mut Vec<String>) -> CommDiff {
    if base.n() != cur.n() {
        notes.push(format!(
            "comm: rank count changed {} -> {}",
            base.n(),
            cur.n()
        ));
    }
    let mut out = CommDiff {
        base_bytes: base.total_bytes(),
        cur_bytes: cur.total_bytes(),
        ..CommDiff::default()
    };
    let (base_pairs, cur_pairs) = (base.nonzero_pairs(), cur.nonzero_pairs());
    for ((s, d), b, c) in outer_join(&base_pairs, &cur_pairs, |&(s, d, _, _)| (s, d)) {
        match (b, c) {
            (None, Some(&(_, _, bytes, _))) => out.new_pairs.push((s, d, bytes)),
            (Some(&(_, _, bytes, _)), None) => out.vanished_pairs.push((s, d, bytes)),
            (Some(&(_, _, prev, _)), Some(&(_, _, bytes, _))) if prev != bytes => {
                out.cell_deltas.push((s, d, bytes as i64 - prev as i64))
            }
            _ => {}
        }
    }
    out.cell_deltas
        .sort_by_key(|&(s, d, delta)| (std::cmp::Reverse(delta.unsigned_abs()), s, d));
    let (base_hot, cur_hot) = (base.top_pairs(5), cur.top_pairs(5));
    for (_, b, c) in outer_join(&base_hot, &cur_hot, |&(s, d, _)| (s, d)) {
        match (b, c) {
            (None, Some(&pair)) => out.new_hot.push(pair),
            (Some(&pair), None) => out.vanished_hot.push(pair),
            _ => {}
        }
    }
    out
}

fn diff_path(base: &AnalysisSummary, cur: &AnalysisSummary) -> PathDiff {
    let mut out = PathDiff {
        base_makespan_ns: base.makespan.as_ns(),
        cur_makespan_ns: cur.makespan.as_ns(),
        base_hops: base.message_hops as u64,
        cur_hops: cur.message_hops as u64,
        ..PathDiff::default()
    };
    // Align steps by (rank, label, op, occurrence): the k-th step with
    // the same identity on each side matches. Steps the other run never
    // produced are counted, not force-matched.
    let mut steps = outer_join(&base.steps, &cur.steps, |s| {
        (s.rank, s.label.as_str(), s.op.as_deref())
    });
    steps.sort_by(|a, b| a.0.cmp(&b.0));
    for ((rank, label, op), b, c) in steps {
        match (b, c) {
            (Some(_), None) => out.unaligned_base += 1,
            (None, Some(_)) => out.unaligned_cur += 1,
            (Some(b), Some(c)) if (b.wait, b.slack) != (c.wait, c.slack) => {
                out.step_deltas.push(StepDelta {
                    rank,
                    label: label.to_string(),
                    op: op.map(str::to_string),
                    base_wait_ns: b.wait.as_ns(),
                    cur_wait_ns: c.wait.as_ns(),
                    base_slack_ns: b.slack.as_ns(),
                    cur_slack_ns: c.slack.as_ns(),
                })
            }
            _ => {}
        }
    }

    // Attribution join by (op, rank); an op or rank absent on one side
    // contributes zeros there.
    type Cell<'a> = ((&'a str, usize), (u64, u64));
    fn cells(a: &AnalysisSummary) -> Vec<Cell<'_>> {
        let mut out = Vec::new();
        for (op, ranks) in &a.attribution.per_op {
            for (rank, s) in ranks.iter().enumerate() {
                out.push(((op.as_str(), rank), (s.wait.as_ns(), s.transfer.as_ns())));
            }
        }
        out
    }
    let (base_cells, cur_cells) = (cells(base), cells(cur));
    for ((op, rank), b, c) in outer_join(&base_cells, &cur_cells, |cell| cell.0) {
        let (bw, bt) = b.map_or((0, 0), |cell| cell.1);
        let (cw, ct) = c.map_or((0, 0), |cell| cell.1);
        if (bw, bt) != (cw, ct) {
            out.attribution_deltas.push(AttributionDelta {
                op: op.to_string(),
                rank,
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
        ..RunDiff::default()
    };

    // Knobs, in key order: differing values name the configuration change
    // up front.
    for (key, b, c) in outer_join(&base.knobs, &cur.knobs, |(k, _)| k) {
        let value = |knob: Option<&(String, String)>| knob.map_or("-", |(_, v)| v).to_string();
        let (b, c) = (value(b), value(c));
        if b != c {
            diff.knob_deltas.push((key.clone(), b, c));
        }
    }
    diff.knob_deltas.sort_by(|a, b| a.0.cmp(&b.0));
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
    for (label, b, c) in outer_join(&base.series, &cur.series, |s| &s.label) {
        let series = format!("series '{label}'");
        let Some((bs, cs)) = present(format_args!("{series}"), b, c, &mut diff.notes) else {
            continue;
        };
        for (x, b, c) in outer_join(&bs.points, &cs.points, |(x, _)| x) {
            let what = format_args!("{series} point {x}");
            let Some((&(_, by), &(_, cy))) = present(what, b, c, &mut diff.notes) else {
                continue;
            };
            // NaN points (exported as null) compare equal to each other:
            // "both unmeasured" is not a regression.
            if by != cy && !(by.is_nan() && cy.is_nan()) {
                diff.series_deltas.push(SeriesDelta {
                    series: label.clone(),
                    x: x.clone(),
                    base: by,
                    current: cy,
                    delta_pct_millis: pct_millis(by, cy),
                });
            }
        }
    }

    // Counters, in key order: any key whose value moved (absent = 0).
    let (base_counters, cur_counters) = (&base.metrics.counters, &cur.metrics.counters);
    for (key, b, c) in outer_join(base_counters, cur_counters, |(k, _)| k) {
        let value = |counter: Option<&(String, u64)>| counter.map_or(0, |&(_, v)| v);
        let (b, c) = (value(b), value(c));
        if b != c {
            diff.metric_deltas.push(MetricDelta {
                key: key.clone(),
                base: b,
                current: c,
            });
        }
    }
    diff.metric_deltas.sort_by(|a, b| a.key.cmp(&b.key));

    // Histograms: distribution shift for keys present in both whose
    // summary moved; keys on one side only are counter-level news and
    // land in notes.
    let (base_hists, cur_hists) = (&base.metrics.histograms, &cur.metrics.histograms);
    for (key, b, c) in outer_join(base_hists, cur_hists, |(k, _)| k) {
        let what = format_args!("histogram '{key}'");
        let sides = present(what, b, c, &mut diff.notes);
        let Some(((_, bh), (_, ch))) = sides.filter(|(b, c)| b.1 != c.1) else {
            continue;
        };
        diff.histogram_shifts.push(HistogramShift {
            key: key.clone(),
            base_mean_millis: mean_millis(bh),
            cur_mean_millis: mean_millis(ch),
            base_p90: bh.p90(),
            cur_p90: ch.p90(),
            moved_millis: moved_millis(bh, ch),
        });
    }

    // Structured artifacts: diff where both sides recorded them, note
    // one-sided presence.
    let (b, c) = (base.comm.as_ref(), cur.comm.as_ref());
    if let Some((b, c)) = present(format_args!("comm matrix"), b, c, &mut diff.notes) {
        let d = diff_comm(b, c, &mut diff.notes);
        diff.comm = (!d.is_empty()).then_some(d);
    }
    let (b, c) = (base.path.as_ref(), cur.path.as_ref());
    if let Some((b, c)) = present(format_args!("critical path"), b, c, &mut diff.notes) {
        let d = diff_path(b, c);
        diff.path = (!d.is_empty()).then_some(d);
    }

    // Decision flips: join by (collective, occurrence).
    let calls = outer_join(&base.decisions, &cur.decisions, |(occ, d)| {
        (d.collective.as_str(), *occ)
    });
    for ((collective, occurrence), b, c) in calls {
        let what = format_args!("decision {collective}#{occurrence}");
        let sides = present(what, b, c, &mut diff.notes);
        let Some(((_, bd), (_, cd))) = sides.filter(|(b, c)| b.1.chosen != c.1.chosen) else {
            continue;
        };
        diff.flips.push(DecisionFlip {
            collective: collective.to_string(),
            occurrence,
            base_chosen: bd.chosen.clone(),
            cur_chosen: cd.chosen.clone(),
            base_reason: bd.reason.clone(),
            cur_reason: cd.reason.clone(),
        });
    }

    // Findings: match by (pattern, op, blamed).
    let (b, c) = (base.diagnosis.as_ref(), cur.diagnosis.as_ref());
    if let Some((bd, cd)) = present(format_args!("diagnosis"), b, c, &mut diff.notes) {
        let findings = outer_join(&bd.findings, &cd.findings, |f| {
            (f.pattern, f.op.as_deref(), f.blamed)
        });
        for ((pattern, op, blamed), b, c) in findings {
            let severity = |f: Option<&Finding>| f.map_or(0, |f| f.severity.as_ns());
            let (base_ns, cur_ns) = (severity(b), severity(c));
            let status = match (b, c) {
                (Some(_), None) => FindingStatus::Resolved,
                (None, Some(_)) => FindingStatus::New,
                _ if cur_ns > base_ns => FindingStatus::Worsened,
                _ if cur_ns < base_ns => FindingStatus::Improved,
                _ => continue,
            };
            diff.finding_deltas.push(FindingDelta {
                status,
                pattern: pattern.label().to_string(),
                op: op.map(str::to_string),
                blamed,
                base_ns,
                cur_ns,
            });
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
        let delta = cd.classified.as_ns() as i64 - bd.classified.as_ns() as i64;
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
                    bd.classified, cd.classified,
                ),
            });
        }
    }
    let seek = |r: &RunRecord| -> u64 {
        r.metrics
            .counters
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
        let (bytes, cur_bytes) = (bc.total_bytes(), cc.total_bytes());
        if bytes != cur_bytes {
            out.push(Cause {
                class: RegressionClass::Wire,
                magnitude: cur_bytes as i64 - bytes as i64,
                evidence: format!("wire traffic {bytes} B -> {cur_bytes} B"),
            });
        }
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    SimTime::from_ns(ns).to_string()
}

/// The first `top_k` of `rows` through `line`, then how many `what` were
/// left out.
fn capped<T>(
    out: &mut String,
    rows: &[T],
    top_k: usize,
    what: &str,
    mut line: impl FnMut(&mut String, &T),
) {
    for row in rows.iter().take(top_k) {
        line(out, row);
    }
    if rows.len() > top_k {
        let _ = writeln!(out, "  ... {} more {what}", rows.len() - top_k);
    }
}

/// The column a table's keys are padded to: its longest printed key.
fn key_width<'a>(keys: impl Iterator<Item = &'a String>) -> usize {
    keys.map(|k| k.chars().count()).max().unwrap_or(0)
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
        capped(&mut out, &rows, top_k, "point(s)", |out, d| {
            let _ = writeln!(
                out,
                "  {:<26} {:>10} {:>14.3} {:>14.3} {:>+8.1}%",
                d.series,
                d.x,
                d.base,
                d.current,
                d.delta_pct_millis as f64 / 1000.0
            );
        });
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
            let cells = &p.attribution_deltas;
            capped(&mut out, cells, top_k, "(op, rank) cell(s)", |out, a| {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>5} {:>14} {:>14} {:>+14}",
                    a.op,
                    a.rank,
                    fmt_ns(a.base_wait_ns),
                    fmt_ns(a.cur_wait_ns),
                    a.wait_delta_ns()
                );
            });
        }
    }
    if !diff.finding_deltas.is_empty() {
        out.push_str("diagnosis finding diff:\n");
        capped(
            &mut out,
            &diff.finding_deltas,
            top_k,
            "finding(s)",
            |out, f| {
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
            },
        );
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
        let width = key_width(rows.iter().take(top_k).map(|d| &d.key));
        capped(&mut out, &rows, top_k, "counter(s)", |out, d| {
            let _ = writeln!(
                out,
                "  {:<width$} {:>12} -> {:>12} ({:+})",
                d.key,
                d.base,
                d.current,
                d.current as i64 - d.base as i64
            );
        });
    }
    if !diff.histogram_shifts.is_empty() {
        out.push_str("distribution shifts:\n");
        let shifts = &diff.histogram_shifts;
        let width = key_width(shifts.iter().take(top_k).map(|h| &h.key));
        capped(&mut out, shifts, top_k, "histogram(s)", |out, h| {
            let _ = writeln!(
                out,
                "  {:<width$} mean {:.1} -> {:.1}  p90 {} -> {}  moved {:.1}%",
                h.key,
                h.base_mean_millis as f64 / 1000.0,
                h.cur_mean_millis as f64 / 1000.0,
                h.base_p90,
                h.cur_p90,
                h.moved_millis as f64 / 10.0
            );
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use ncd_simnet::{
        series_json, OpRankStats, RoundAttribution, RunManifest, StepSummary, WaitPattern,
        SCHEMA_VERSION,
    };

    fn with_series(points: &[(&str, f64)]) -> RunRecord {
        let mut lat = Series::new("lat");
        for &(x, y) in points {
            lat.push(x, y);
        }
        RunRecord {
            series: vec![lat],
            ..RunRecord::default()
        }
    }

    #[test]
    fn identical_runs_compare_empty() {
        let a = with_series(&[("1", 10.0), ("2", 20.0)]);
        let diff = compare(&a, &a);
        assert!(diff.is_empty(), "diff: {diff:?}");
        assert!(render_compare(&diff, 10).contains("observationally identical"));
        assert!(diff_json(&diff).contains("\"empty\":true"));
    }

    #[test]
    fn series_regression_is_reported() {
        let diff = compare(&with_series(&[("1", 10.0)]), &with_series(&[("1", 15.0)]));
        assert_eq!(diff.series_deltas.len(), 1);
        assert_eq!(diff.series_deltas[0].delta_pct_millis, 50_000);
        assert!(!diff.is_empty());
        let table = render_compare(&diff, 10);
        assert!(table.contains("+50.0%"), "{table}");
    }

    /// A key longer than any fixed column still lines its row up with the
    /// others: every row's `->` sits in one column.
    #[test]
    fn metric_rows_align_past_a_long_key() {
        let delta = |key: &str, current| MetricDelta {
            key: key.into(),
            base: 0,
            current,
        };
        let diff = RunDiff {
            metric_deltas: vec![
                delta("time/wait", 9),
                delta("decision_reason/allgatherv/outliers: binomial movement", 8),
            ],
            ..RunDiff::default()
        };
        let table = render_compare(&diff, 10);
        let rows = table.lines().filter(|l| l.starts_with("  "));
        let arrows: Vec<usize> = rows.filter_map(|l| l.find("->")).collect();
        assert_eq!(arrows.len(), 2, "{table}");
        assert_eq!(arrows[0], arrows[1], "{table}");
    }

    /// A point one run did not measure is NaN in the record: the delta
    /// must export as `null`, not `NaN`.
    #[test]
    fn unmeasured_points_export_as_null() {
        let measured = with_series(&[("1", 2.5)]);
        let unmeasured = with_series(&[("1", f64::NAN)]);
        assert!(compare(&unmeasured, &unmeasured).is_empty());
        for (base, cur, expect) in [
            (&unmeasured, &measured, "\"base\":null,\"current\":2.5"),
            (&measured, &unmeasured, "\"base\":2.5,\"current\":null"),
        ] {
            let json = diff_json(&compare(base, cur));
            assert!(json.contains(expect), "{json}");
            let back = ncd_simnet::parse_json(&json).expect("diff.json parses back");
            assert_eq!(back.array("series").map(<[_]>::len), Ok(1));
        }
    }

    #[test]
    fn shape_mismatches_become_notes() {
        let a = with_series(&[("1", 10.0), ("2", 1.0)]);
        let b = with_series(&[("1", 10.0)]);
        let diff = compare(&a, &b);
        assert!(diff.series_deltas.is_empty());
        assert_eq!(diff.notes.len(), 1);
        assert!(diff.notes[0].contains("point 2 missing"));
        let diff = compare(&b, &RunRecord::default());
        assert_eq!(diff.notes, ["series 'lat' missing from current run"]);
    }

    /// Every artifact goes through the reader beside its writer, so one
    /// written under another schema is refused, by file name.
    #[test]
    fn from_ledger_refuses_another_schema_and_names_the_file() {
        let series = series_json("t", true, &with_series(&[("1", 10.0)]).series);
        let run = |artifact: &str, contents: String| LedgerRun {
            manifest: RunManifest {
                bench: "t".to_string(),
                mode: "smoke".to_string(),
                schema: SCHEMA_VERSION,
                knobs: vec![],
                run_id: "0000000000000000".to_string(),
            },
            artifacts: vec![(artifact.to_string(), contents)],
        };
        let rec = RunRecord::from_ledger(&run("series.json", series.clone())).expect("parse");
        assert_eq!(rec.series, with_series(&[("1", 10.0)]).series);
        assert!(rec.comm.is_none() && rec.decisions.is_empty());
        let newer = series.replacen("\"schema\":1", "\"schema\":2", 1);
        assert_eq!(
            RunRecord::from_ledger(&run("series.json", newer)).err(),
            Some("series.json: written under schema 2, this build reads schema 1".to_string())
        );
        let err = RunRecord::from_ledger(&run("comm.json", series)).unwrap_err();
        assert_eq!(err, "comm.json: missing number \"ranks\"");
    }

    #[test]
    fn decision_flip_is_detected_and_classified() {
        let decided = |chosen: &str, reason: &str| RunRecord {
            decisions: vec![(
                0,
                AlgorithmDecision {
                    collective: "allgatherv".to_string(),
                    n: 16,
                    total_bytes: 33_280,
                    outlier_ratio: 4096.0,
                    pow2: true,
                    chosen: chosen.to_string(),
                    reason: reason.to_string(),
                },
            )],
            ..RunRecord::default()
        };
        let a = decided("ring", "total >= long threshold");
        let b = decided("recursive_doubling", "outliers: adaptive path");
        let diff = compare(&a, &b);
        assert_eq!(diff.flips.len(), 1);
        assert_eq!(diff.flips[0].base_chosen, "ring");
        assert_eq!(diff.flips[0].cur_chosen, "recursive_doubling");
        assert_eq!(diff.causes.len(), 1);
        assert_eq!(diff.causes[0].class, RegressionClass::Decision);
        // And the identity still holds per artifact kind.
        assert!(compare(&a, &a).is_empty());
        let diff = compare(&a, &RunRecord::default());
        assert_eq!(
            diff.notes,
            ["decision allgatherv#0 missing from current run"]
        );
    }

    #[test]
    fn comm_structural_diff_finds_new_and_vanished_pairs() {
        let traffic = |pairs: &[(usize, usize, u64, u64)]| {
            let mut m = CommMatrix::new(4);
            for &(s, d, bytes, msgs) in pairs {
                m.add(s, d, bytes, msgs);
            }
            RunRecord {
                comm: Some(m),
                ..RunRecord::default()
            }
        };
        let a = traffic(&[(0, 1, 60, 1), (1, 2, 40, 1)]);
        let b = traffic(&[(0, 1, 80, 1), (2, 3, 50, 2)]);
        let diff = compare(&a, &b);
        let c = diff.comm.as_ref().expect("comm diff");
        assert_eq!(c.new_pairs, vec![(2, 3, 50)]);
        assert_eq!(c.vanished_pairs, vec![(1, 2, 40)]);
        assert_eq!(c.cell_deltas, vec![(0, 1, 20)]);
        assert_eq!(
            (&c.new_hot, &c.vanished_hot),
            (&c.new_pairs, &c.vanished_pairs)
        );
        assert_eq!(diff.causes.len(), 1);
        assert_eq!(diff.causes[0].class, RegressionClass::Wire);
        assert_eq!(diff.causes[0].magnitude, 30);
        assert!(compare(&b, &b).is_empty());
    }

    #[test]
    fn finding_diff_tracks_all_four_statuses() {
        let diagnosed = |classified: u64, findings: &[(WaitPattern, usize, u64)]| {
            let finding = |&(pattern, blamed, ns): &(WaitPattern, usize, u64)| Finding {
                pattern,
                op: Some("allgatherv/ring".to_string()),
                blamed,
                waiters: 1,
                instances: 1,
                severity: SimTime::from_ns(ns),
                max_severity: SimTime::from_ns(ns),
                verified_gain: None,
            };
            RunRecord {
                diagnosis: Some(DiagnosisSummary {
                    n: 4,
                    makespan: SimTime::from_ns(100),
                    total_wait: SimTime::from_ns(50),
                    classified: SimTime::from_ns(classified),
                    per_pattern: vec![],
                    findings: findings.iter().map(finding).collect(),
                    blame: CommMatrix::new(4),
                    unmatched_recvs: 0,
                    unmatched_sends: 0,
                }),
                ..RunRecord::default()
            }
        };
        let (sender, receiver) = (WaitPattern::LateSender, WaitPattern::LateReceiver);
        let a = diagnosed(50, &[(sender, 0, 40), (receiver, 1, 10)]);
        let b = diagnosed(
            30,
            &[(sender, 0, 25), (WaitPattern::SerializationChain, 2, 5)],
        );
        let diff = compare(&a, &b);
        let statuses: Vec<(&str, usize)> = diff
            .finding_deltas
            .iter()
            .map(|f| (f.status.label(), f.blamed))
            .collect();
        assert_eq!(statuses, [("improved", 0), ("resolved", 1), ("new", 2)]);
        assert_eq!(diff.causes[0].class, RegressionClass::Wait);
        assert_eq!(diff.causes[0].magnitude, -20);
        assert!(compare(&a, &a).is_empty());
    }

    #[test]
    fn histogram_shift_reports_moved_mass() {
        let observed = |samples: &[u64]| {
            let mut h = Histogram::new();
            samples.iter().for_each(|&v| h.record(v));
            let mut rec = RunRecord::default();
            rec.metrics.histograms.push(("a/b/c".to_string(), h));
            rec
        };
        let a = observed(&[2, 2, 3, 3]);
        let b = observed(&[2, 3, 40, 60]);
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
        let analysed = |wait: u64, makespan: u64| {
            let stats = |wait: u64| OpRankStats {
                rounds: 1,
                wait: SimTime::from_ns(wait),
                transfer: SimTime::from_ns(5),
                msgs: 1,
                bytes: 8,
            };
            let op = "allgatherv/ring".to_string();
            RunRecord {
                path: Some(AnalysisSummary {
                    makespan: SimTime::from_ns(makespan),
                    message_hops: 2,
                    steps: vec![StepSummary {
                        rank: 1,
                        label: "recv from 0".to_string(),
                        op: Some(op.clone()),
                        start: SimTime::ZERO,
                        end: SimTime::from_ns(10),
                        wait: SimTime::from_ns(wait),
                        via_message: true,
                        slack: SimTime::ZERO,
                    }],
                    attribution: RoundAttribution {
                        per_op: [(op, vec![stats(0), stats(wait)])].into(),
                    },
                }),
                ..RunRecord::default()
            }
        };
        let (a, b) = (analysed(40, 100), analysed(10, 70));
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
}
