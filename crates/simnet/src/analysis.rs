//! Post-mortem trace analysis: happens-before graph, critical path,
//! and per-rank wait/skew attribution.
//!
//! The paper's two pathologies are *attribution* problems: quadratic
//! datatype-search time hides inside pack loops (§4.1), and synchronization
//! skew from 0-byte alltoallw exchanges or ring-forwarded outlier blocks
//! hides inside "communication time" (§4.2). The tracing layer
//! ([`crate::trace`]) records what every rank did; this module answers
//! *why the run took as long as it did*:
//!
//! * [`HbGraph`] rebuilds the happens-before relation from per-rank
//!   timelines — program order within a rank, plus send→recv message edges
//!   matched through the correlation ids the runtime stamps on every
//!   message ([`crate::mailbox::NetMsg::seq`]). Matching happens once, at
//!   build, by index into each sender's seq-ordered sends; the unmatched
//!   receives and sends are kept, so later questions are reads.
//! * [`HbGraph::critical_path`] walks that graph backward from the last
//!   event to finish, following a message edge exactly when the receive
//!   was the binding constraint (`wait > 0`), producing the dependency
//!   chain that determined the makespan. For the paper's Fig 14 outlier
//!   scenario, the ring allgatherv's O(N) hop chain literally *is* this
//!   path, while recursive doubling's is O(log N).
//! * [`attribute_rounds`] decomposes each collective's elapsed time per
//!   rank into transfer vs. wait-on-peer, and [`imbalance`] summarizes
//!   the spread PETSc-style (max/min/avg/ratio).
//!
//! All figures are simulated time, so every number here is deterministic
//! and byte-stable across runs (see [`analysis_json`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{parse_schema_led, Json, JsonWriter};
use crate::time::SimTime;
use crate::trace::{EventKind, TraceEvent};

/// A node in the happens-before graph: `(rank, index into that rank's
/// trace)`.
pub type NodeId = (usize, usize);

/// Happens-before graph over a set of per-rank traces (indexed by rank, as
/// a traced run's [`crate::Capture::traces`] holds them).
///
/// Edges are implicit: each event depends on its program-order predecessor
/// on the same rank, and each receive additionally depends on the matching
/// send (located via the `(source rank, seq)` correlation id). Every
/// receive is matched once, in [`HbGraph::build`], by index rather than by
/// hashing; the unmatched lists are kept, so every later question is a
/// read. Sends from ranks that were not tracing have no node; such
/// receives simply lack a message edge ([`HbGraph::unmatched_recvs`] lists
/// them).
pub struct HbGraph<'a> {
    traces: &'a [Vec<TraceEvent>],
    /// Per sender rank, its traced sends as `(seq, event index)` in
    /// increasing seq order.
    sends: Vec<Vec<(u64, usize)>>,
    unmatched_recvs: Vec<NodeId>,
    unmatched_sends: Vec<NodeId>,
    /// Per rank, per event: index of the governing [`EventKind::Round`]
    /// event (the latest one at or before the event), if any.
    round_idx: Vec<Vec<Option<usize>>>,
}

impl<'a> HbGraph<'a> {
    /// Index the traces: list every rank's sends by correlation id, match
    /// every receive against that index, and precompute which collective
    /// round governs each event.
    pub fn build(traces: &'a [Vec<TraceEvent>]) -> Self {
        let mut sends = Vec::with_capacity(traces.len());
        let mut round_idx = Vec::with_capacity(traces.len());
        for events in traces {
            let mut current = None;
            let mut mine = Vec::new();
            let mut per_event = Vec::with_capacity(events.len());
            for (i, e) in events.iter().enumerate() {
                match &e.kind {
                    EventKind::Send { seq, .. } => mine.push((*seq, i)),
                    EventKind::Round { .. } => current = Some(i),
                    _ => {}
                }
                per_event.push(current);
            }
            // The runtime numbers a rank's sends in trace order. A trace
            // built by hand may not; there the last send of a seq wins.
            if !mine.windows(2).all(|w| w[0].0 < w[1].0) {
                mine.sort_unstable_by_key(|&(seq, i)| (seq, std::cmp::Reverse(i)));
                mine.dedup_by_key(|s| s.0);
            }
            sends.push(mine);
            round_idx.push(per_event);
        }
        let mut matched: Vec<Vec<bool>> = sends.iter().map(|s| vec![false; s.len()]).collect();
        let mut unmatched_recvs = Vec::new();
        for (rank, events) in traces.iter().enumerate() {
            for (i, e) in events.iter().enumerate() {
                if let EventKind::Recv { src, seq, .. } = &e.kind {
                    match send_slot(&sends, *src, *seq) {
                        Some(k) => matched[*src][k] = true,
                        None => unmatched_recvs.push((rank, i)),
                    }
                }
            }
        }
        let mut unmatched_sends = Vec::new();
        for (rank, (sends, matched)) in sends.iter().zip(&matched).enumerate() {
            let unmarked = sends.iter().zip(matched).filter(|(_, &m)| !m);
            unmatched_sends.extend(unmarked.map(|(&(_, i), _)| (rank, i)));
        }
        unmatched_sends.sort_unstable();
        HbGraph {
            traces,
            sends,
            unmatched_recvs,
            unmatched_sends,
            round_idx,
        }
    }

    pub fn traces(&self) -> &[Vec<TraceEvent>] {
        self.traces
    }

    pub fn event(&self, node: NodeId) -> &TraceEvent {
        &self.traces[node.0][node.1]
    }

    /// The send node matching a receive node, if the sender was tracing.
    /// Returns `None` for non-receive nodes.
    pub fn matching_send(&self, node: NodeId) -> Option<NodeId> {
        match &self.event(node).kind {
            EventKind::Recv { src, seq, .. } => {
                send_slot(&self.sends, *src, *seq).map(|k| (*src, self.sends[*src][k].1))
            }
            _ => None,
        }
    }

    /// Receive nodes whose matching send was not found (sender not
    /// tracing, or a correlation bug — the property tests assert this is
    /// empty when every rank traces), sorted by `(rank, index)`.
    pub fn unmatched_recvs(&self) -> &[NodeId] {
        &self.unmatched_recvs
    }

    /// Send nodes no traced receive consumed (receiver not tracing, a
    /// truncated trace, or a correlation bug), sorted by `(rank, index)`.
    /// The dual of [`HbGraph::unmatched_recvs`]; both are surfaced as an
    /// explicit WARNING in [`CriticalPath::render`] and the diagnosis
    /// report instead of being silently dropped.
    pub fn unmatched_sends(&self) -> &[NodeId] {
        &self.unmatched_sends
    }

    /// The collective-round label (`op` of the governing
    /// [`EventKind::Round`]) in effect at `node`, if any.
    pub fn op_label(&self, node: NodeId) -> Option<&str> {
        let idx = self.round_idx[node.0][node.1]?;
        match &self.traces[node.0][idx].kind {
            EventKind::Round { op, .. } => Some(op),
            _ => unreachable!("round_idx points at a Round event"),
        }
    }

    /// Extract the critical path: the happens-before chain ending at the
    /// globally last event to finish, walking backward and crossing a
    /// message edge exactly when the receive blocked (`wait > 0`, i.e. the
    /// sender was the binding constraint). Along program order the walk
    /// takes the immediate predecessor. Every edge chosen this way has
    /// zero float, so delaying any step on the path delays the makespan.
    ///
    /// Returns an empty path when no rank recorded any event.
    pub fn critical_path(&self) -> CriticalPath {
        let unmatched_recvs = self.unmatched_recvs().len();
        let unmatched_sends = self.unmatched_sends().len();
        // Deterministic tie-break: highest end wins, then lowest rank,
        // then latest index (the later event of equal end is downstream).
        let mut cur: Option<NodeId> = None;
        for (rank, events) in self.traces.iter().enumerate() {
            for (i, e) in events.iter().enumerate() {
                let better = match cur {
                    None => true,
                    Some(c) => e.end > self.event(c).end,
                };
                if better {
                    cur = Some((rank, i));
                }
            }
        }
        let Some(mut cur) = cur else {
            return CriticalPath {
                steps: Vec::new(),
                makespan: SimTime::ZERO,
                message_hops: 0,
                unmatched_recvs,
                unmatched_sends,
            };
        };
        let makespan = self.event(cur).end;
        let mut steps = Vec::new();
        let mut message_hops = 0;
        loop {
            let e = self.event(cur);
            let wait = match &e.kind {
                EventKind::Recv { wait, .. } => *wait,
                _ => SimTime::ZERO,
            };
            // Where does the walk go next, and what float did the edge we
            // did NOT take have? (The chosen edge always has zero float.)
            let msg_pred = if wait > SimTime::ZERO {
                self.matching_send(cur)
            } else {
                None
            };
            let (via_message, slack) = match msg_pred {
                // Bound by the sender: the local predecessor finished
                // `wait` before it was needed.
                Some(_) => (true, wait),
                // Bound locally: if the message was already in the mailbox
                // its slack is (approximately) how early it arrived.
                None => {
                    let early = self
                        .matching_send(cur)
                        .map(|s| e.start.saturating_sub(self.event(s).end))
                        .unwrap_or(SimTime::ZERO);
                    (false, early)
                }
            };
            steps.push(PathStep {
                rank: cur.0,
                index: cur.1,
                label: describe(&e.kind),
                op: self.op_label(cur).map(str::to_string),
                start: e.start,
                end: e.end,
                wait,
                via_message,
                slack,
            });
            if via_message {
                message_hops += 1;
            }
            cur = match msg_pred {
                Some(s) => s,
                None if cur.1 > 0 => (cur.0, cur.1 - 1),
                None => break,
            };
        }
        steps.reverse();
        CriticalPath {
            steps,
            makespan,
            message_hops,
            unmatched_recvs,
            unmatched_sends,
        }
    }
}

/// Where the send `(src, seq)` sits in `src`'s send index: at slot
/// `seq - first seq` (a trace may start mid-run) when that slot holds
/// `seq`, else by binary search (seqs with gaps: tracing was toggled).
fn send_slot(sends: &[Vec<(u64, usize)>], src: usize, seq: u64) -> Option<usize> {
    let sends = sends.get(src)?;
    let guess = seq.checked_sub(sends.first()?.0)? as usize;
    match sends.get(guess) {
        Some(&(s, _)) if s == seq => Some(guess),
        _ => sends.binary_search_by_key(&seq, |&(s, _)| s).ok(),
    }
}

/// Human description of an event kind for path/report rendering.
fn describe(kind: &EventKind) -> String {
    match kind {
        EventKind::Send { dst, bytes, .. } => format!("send to {dst} ({bytes} B)"),
        EventKind::Recv { src, bytes, .. } => format!("recv from {src} ({bytes} B)"),
        EventKind::Round { op, round } => format!("round {op}#{round}"),
        EventKind::PackBlock {
            engine,
            index,
            seek,
            ..
        } => format!("pack {engine} block {index} (seek {seek})"),
        EventKind::IrecvPost { src, tag } => match src {
            Some(s) => format!("irecv posted (src {s}, tag {tag})"),
            None => format!("irecv posted (any src, tag {tag})"),
        },
        EventKind::SendWait { residual } => format!("send drain ({residual} residual)"),
        EventKind::AlgoDecision {
            collective, chosen, ..
        } => format!("decision {collective} -> {chosen}"),
    }
}

/// One event on the critical path.
#[derive(Clone, Debug)]
pub struct PathStep {
    pub rank: usize,
    /// Index of the event in its rank's trace.
    pub index: usize,
    /// Human description of the event (see the trace for raw fields).
    pub label: String,
    /// Collective round in effect (`op` of the governing round marker).
    pub op: Option<String>,
    pub start: SimTime,
    pub end: SimTime,
    /// Time this event spent blocked on a peer (receives only).
    pub wait: SimTime,
    /// True when the edge *into* this step is a message edge (the sender
    /// was the binding constraint); the path hopped ranks here.
    pub via_message: bool,
    /// Float of the dependency edge NOT taken into this step: for a
    /// blocked receive, how long the local predecessor sat idle; for an
    /// unblocked receive, how early the message had arrived. Zero means
    /// both inputs were tight. Path edges themselves have zero float by
    /// construction.
    pub slack: SimTime,
}

impl PathStep {
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// The dependency chain that determined the makespan; see
/// [`HbGraph::critical_path`]. Steps are in time order (earliest first).
#[derive(Clone, Debug)]
pub struct CriticalPath {
    pub steps: Vec<PathStep>,
    /// End time of the last event in the whole run.
    pub makespan: SimTime,
    /// Number of message edges (rank hops) on the path — Θ(N) for the
    /// ring allgatherv's outlier chain, Θ(log N) for recursive doubling.
    pub message_hops: usize,
    /// Receives whose matching send was not in the traces (see
    /// [`HbGraph::unmatched_recvs`]); nonzero means waits went
    /// unattributed and the render carries a WARNING block.
    pub unmatched_recvs: usize,
    /// Sends no traced receive consumed (see
    /// [`HbGraph::unmatched_sends`]).
    pub unmatched_sends: usize,
}

impl CriticalPath {
    /// Render a summary plus the path table. When the path has more than
    /// `top_k` steps, only the `top_k` longest-duration steps are shown
    /// (in time order), so the expensive links dominate the output.
    pub fn render(&self, top_k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: makespan {}  steps {}  message hops {}",
            self.makespan,
            self.steps.len(),
            self.message_hops
        );
        if let Some(w) = crate::diagnosis::warning_block(self.unmatched_recvs, self.unmatched_sends)
        {
            out.push_str(&w);
        }
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>12} {:>10} {:>10}  {:<4} event",
            "rank", "start", "dur", "wait", "slack", "hop"
        );
        let mut shown: Vec<&PathStep> = self.steps.iter().collect();
        if shown.len() > top_k {
            shown.sort_by_key(|s| std::cmp::Reverse(s.duration()));
            shown.truncate(top_k);
            shown.sort_by_key(|s| (s.end, s.rank, s.index));
        }
        let elided = self.steps.len() - shown.len();
        for s in shown {
            let op =
                s.op.as_deref()
                    .map(|o| format!("  [{o}]"))
                    .unwrap_or_default();
            let _ = writeln!(
                out,
                "{:>5} {:>12} {:>12} {:>10} {:>10}  {:<4} {}{}",
                s.rank,
                s.start.to_string(),
                s.duration().to_string(),
                s.wait.to_string(),
                s.slack.to_string(),
                if s.via_message { "msg" } else { "-" },
                s.label,
                op,
            );
        }
        if elided > 0 {
            let _ = writeln!(out, "  ... {elided} shorter steps elided");
        }
        out
    }
}

/// Per-rank decomposition of one collective op's traced activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpRankStats {
    /// Round markers this rank recorded for the op.
    pub rounds: u32,
    /// Time blocked waiting for a peer's message (late arrival / skew).
    pub wait: SimTime,
    /// Send/receive span time minus the blocked portion (wire + overhead).
    pub transfer: SimTime,
    /// Messages sent plus received while the op was in effect.
    pub msgs: u64,
    /// Bytes sent plus received while the op was in effect.
    pub bytes: u64,
}

/// Wait/skew attribution per collective op per rank; see
/// [`attribute_rounds`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundAttribution {
    /// op → per-rank stats (indexed by rank).
    pub per_op: BTreeMap<String, Vec<OpRankStats>>,
}

/// Decompose each rank's traced time into per-collective transfer and
/// wait-on-peer components.
///
/// Attribution is positional: a [`EventKind::Round`] marker sets the rank's
/// "current op"; every subsequent send/receive is attributed to it until
/// the next round marker. Events before the first marker (and on ranks
/// that recorded no marker) are unattributed and skipped. Point-to-point
/// traffic *after* a collective's last round is attributed to that
/// collective until the next marker — acceptable for the benchmark-style
/// programs this repo traces, where collectives dominate the timeline.
pub fn attribute_rounds(traces: &[Vec<TraceEvent>]) -> RoundAttribution {
    let nranks = traces.len();
    let mut per_op: BTreeMap<String, Vec<OpRankStats>> = BTreeMap::new();
    for (rank, events) in traces.iter().enumerate() {
        let mut current: Option<&str> = None;
        for e in events {
            match &e.kind {
                EventKind::Round { op, .. } => {
                    current = Some(op);
                    let stats = per_op
                        .entry(op.to_string())
                        .or_insert_with(|| vec![OpRankStats::default(); nranks]);
                    stats[rank].rounds += 1;
                }
                EventKind::Send { bytes, .. } => {
                    if let Some(op) = current {
                        let s = &mut per_op.get_mut(op).expect("op registered")[rank];
                        s.transfer += e.duration();
                        s.msgs += 1;
                        s.bytes += *bytes as u64;
                    }
                }
                EventKind::Recv { bytes, wait, .. } => {
                    if let Some(op) = current {
                        let s = &mut per_op.get_mut(op).expect("op registered")[rank];
                        s.wait += *wait;
                        s.transfer += e.duration().saturating_sub(*wait);
                        s.msgs += 1;
                        s.bytes += *bytes as u64;
                    }
                }
                // A send-drain span is transfer time the sender could not
                // hide; attribute it like send activity.
                EventKind::SendWait { .. } => {
                    if let Some(op) = current {
                        per_op.get_mut(op).expect("op registered")[rank].transfer += e.duration();
                    }
                }
                EventKind::PackBlock { .. }
                | EventKind::IrecvPost { .. }
                | EventKind::AlgoDecision { .. } => {}
            }
        }
    }
    RoundAttribution { per_op }
}

impl RoundAttribution {
    /// Total wait-on-peer across ranks for one op.
    pub fn total_wait(&self, op: &str) -> SimTime {
        self.per_op
            .get(op)
            .map(|v| v.iter().map(|s| s.wait).fold(SimTime::ZERO, |a, b| a + b))
            .unwrap_or(SimTime::ZERO)
    }

    /// One summary row per op: rounds, wait and transfer spread across
    /// ranks (max/min/ratio, PETSc `-log_view` style), message/byte
    /// totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>12} {:>12} {:>7} {:>12} {:>7} {:>8} {:>12}",
            "op", "rounds", "wait max", "wait min", "ratio", "xfer max", "ratio", "msgs", "bytes"
        );
        for (op, ranks) in &self.per_op {
            let wait = imbalance(
                &ranks
                    .iter()
                    .map(|s| s.wait.as_ns() as f64)
                    .collect::<Vec<_>>(),
            );
            let xfer = imbalance(
                &ranks
                    .iter()
                    .map(|s| s.transfer.as_ns() as f64)
                    .collect::<Vec<_>>(),
            );
            let rounds = ranks.iter().map(|s| s.rounds).max().unwrap_or(0);
            let msgs: u64 = ranks.iter().map(|s| s.msgs).sum();
            let bytes: u64 = ranks.iter().map(|s| s.bytes).sum();
            let _ = writeln!(
                out,
                "{:<28} {:>6} {:>12} {:>12} {:>7} {:>12} {:>7} {:>8} {:>12}",
                op,
                rounds,
                SimTime::from_ns(wait.max as u64).to_string(),
                SimTime::from_ns(wait.min as u64).to_string(),
                render_ratio(wait.ratio),
                SimTime::from_ns(xfer.max as u64).to_string(),
                render_ratio(xfer.ratio),
                msgs,
                bytes,
            );
        }
        out
    }
}

/// One critical-path step as `analysis.json` holds it: a [`PathStep`]
/// without its trace index.
#[derive(Clone, Debug, PartialEq)]
pub struct StepSummary {
    pub rank: usize,
    pub label: String,
    pub op: Option<String>,
    pub start: SimTime,
    pub end: SimTime,
    pub wait: SimTime,
    pub via_message: bool,
    pub slack: SimTime,
}

/// A critical path and its round attribution as `analysis.json` holds
/// them. The steps' trace indices and the unmatched-message counts stay
/// with the run that was analysed; the attribution is exported whole.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisSummary {
    pub makespan: SimTime,
    pub message_hops: usize,
    pub steps: Vec<StepSummary>,
    pub attribution: RoundAttribution,
}

/// JSON snapshot of a critical-path analysis plus round attribution,
/// suitable for committing as a CI artifact or diffing across commits.
pub fn analysis_json(path: &CriticalPath, attr: &RoundAttribution) -> String {
    let step = |s: &PathStep| StepSummary {
        rank: s.rank,
        label: s.label.clone(),
        op: s.op.clone(),
        start: s.start,
        end: s.end,
        wait: s.wait,
        via_message: s.via_message,
        slack: s.slack,
    };
    summary_json(&AnalysisSummary {
        makespan: path.makespan,
        message_hops: path.message_hops,
        steps: path.steps.iter().map(step).collect(),
        attribution: attr.clone(),
    })
}

fn summary_json(a: &AnalysisSummary) -> String {
    JsonWriter::schema_led(|w| {
        w.field("makespan_ns", a.makespan.as_ns());
        w.field("message_hops", a.message_hops);
        w.objects("steps", &a.steps, |w, s| {
            w.field("rank", s.rank).field("event", &s.label);
            w.field("op", &s.op).field("start_ns", s.start.as_ns());
            w.field("end_ns", s.end.as_ns());
            w.field("wait_ns", s.wait.as_ns());
            w.field("via_message", s.via_message);
            w.field("slack_ns", s.slack.as_ns());
        });
        w.objects("attribution", &a.attribution.per_op, |w, (op, ranks)| {
            w.field("op", op).objects("ranks", ranks, |w, s| {
                w.field("rounds", s.rounds);
                w.field("wait_ns", s.wait.as_ns());
                w.field("transfer_ns", s.transfer.as_ns());
                w.field("msgs", s.msgs).field("bytes", s.bytes);
            });
        });
    })
}

/// Read an [`analysis_json`] document back.
pub fn parse_analysis(text: &str) -> Result<AnalysisSummary, String> {
    let v = parse_schema_led(text)?;
    let ns = |item: &Json, key: &str| item.u64(key).map(SimTime::from_ns);
    let attribution = v.list("attribution", |a| {
        let ranks = a.list("ranks", |r| {
            Ok(OpRankStats {
                rounds: r.u32("rounds")?,
                wait: ns(r, "wait_ns")?,
                transfer: ns(r, "transfer_ns")?,
                msgs: r.u64("msgs")?,
                bytes: r.u64("bytes")?,
            })
        })?;
        Ok((a.str("op")?.to_string(), ranks))
    })?;
    Ok(AnalysisSummary {
        makespan: ns(&v, "makespan_ns")?,
        message_hops: v.u64("message_hops")? as usize,
        steps: v.list("steps", |s| {
            Ok(StepSummary {
                rank: s.u64("rank")? as usize,
                label: s.str("event")?.to_string(),
                op: s.opt_str("op").map(str::to_string),
                start: ns(s, "start_ns")?,
                end: ns(s, "end_ns")?,
                wait: ns(s, "wait_ns")?,
                via_message: s.bool("via_message")?,
                slack: ns(s, "slack_ns")?,
            })
        })?,
        attribution: RoundAttribution {
            per_op: attribution.into_iter().collect(),
        },
    })
}

/// Max/min/avg/ratio spread of a per-rank quantity — the columns of a
/// PETSc `-log_view` imbalance report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Imbalance {
    pub max: f64,
    pub min: f64,
    pub avg: f64,
    /// `max/min`; infinite when `min` is zero but `max` is not (total
    /// skew, e.g. one rank never waited), and 1.0 when all values are
    /// zero.
    pub ratio: f64,
}

/// Compute the spread of one value per rank. Empty input yields all zeros
/// with ratio 1.0.
pub fn imbalance(values: &[f64]) -> Imbalance {
    if values.is_empty() {
        return Imbalance {
            max: 0.0,
            min: 0.0,
            avg: 0.0,
            ratio: 1.0,
        };
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let avg = values.iter().sum::<f64>() / values.len() as f64;
    let ratio = if min > 0.0 {
        max / min
    } else if max > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    Imbalance {
        max,
        min,
        avg,
        ratio,
    }
}

/// Format a ratio column: `inf` for total skew, else one decimal.
pub fn render_ratio(r: f64) -> String {
    if r.is_infinite() {
        "inf".to_string()
    } else {
        format!("{r:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::tests::traced;
    use crate::diagnosis::{diagnose, diagnose_graph};
    use crate::runtime::ClusterConfig;
    use crate::Tag;
    use proptest::prelude::*;

    /// The graph's matching before the send index: a SipHash map from
    /// `(sender rank, seq)` to the send node, probed once per receive on
    /// every call, and a `HashSet` of every receive's id for the
    /// unmatched sends.
    mod oracle {
        use std::collections::{HashMap, HashSet};

        use crate::analysis::{HbGraph, NodeId};
        use crate::trace::{EventKind, TraceEvent};

        pub struct Graph<'a> {
            traces: &'a [Vec<TraceEvent>],
            sends: HashMap<(usize, u64), NodeId>,
        }

        impl<'a> Graph<'a> {
            pub fn build(traces: &'a [Vec<TraceEvent>]) -> Self {
                let mut sends = HashMap::new();
                for (rank, events) in traces.iter().enumerate() {
                    for (i, e) in events.iter().enumerate() {
                        if let EventKind::Send { seq, .. } = &e.kind {
                            sends.insert((rank, *seq), (rank, i));
                        }
                    }
                }
                Graph { traces, sends }
            }

            pub fn matching_send(&self, node: NodeId) -> Option<NodeId> {
                match &self.traces[node.0][node.1].kind {
                    EventKind::Recv { src, seq, .. } => self.sends.get(&(*src, *seq)).copied(),
                    _ => None,
                }
            }

            pub fn unmatched_recvs(&self) -> Vec<NodeId> {
                let mut out = Vec::new();
                for (rank, events) in self.traces.iter().enumerate() {
                    for (i, e) in events.iter().enumerate() {
                        if matches!(e.kind, EventKind::Recv { .. })
                            && self.matching_send((rank, i)).is_none()
                        {
                            out.push((rank, i));
                        }
                    }
                }
                out
            }

            pub fn unmatched_sends(&self) -> Vec<NodeId> {
                let mut matched = HashSet::new();
                for e in self.traces.iter().flatten() {
                    if let EventKind::Recv { src, seq, .. } = &e.kind {
                        matched.insert((*src, *seq));
                    }
                }
                let mut out: Vec<NodeId> = (self.sends.iter())
                    .filter(|(key, _)| !matched.contains(key))
                    .map(|(_, node)| *node)
                    .collect();
                out.sort_unstable();
                out
            }

            /// This matching as an [`HbGraph`]: the map's entries as the
            /// per-rank send index, the unmatched lists computed here. The
            /// critical path and the diagnosis then read only what this
            /// oracle matched.
            pub fn as_graph(&self) -> HbGraph<'a> {
                let mut sends = vec![Vec::new(); self.traces.len()];
                for (&(rank, seq), &(_, i)) in &self.sends {
                    sends[rank].push((seq, i));
                }
                for s in &mut sends {
                    s.sort_unstable();
                }
                HbGraph {
                    traces: self.traces,
                    sends,
                    unmatched_recvs: self.unmatched_recvs(),
                    unmatched_sends: self.unmatched_sends(),
                    round_idx: HbGraph::build(self.traces).round_idx,
                }
            }
        }
    }

    /// Random traces of `n` ranks, made in one global time order so every
    /// message edge points back in time. A step is `(rank, kind, a, b,
    /// duration)`. Rank `r` numbers its sends from `first[r]` and sometimes
    /// skips seqs (tracing toggled). A receive names an issued send, a send
    /// of rank `n` (which has no trace), or a seq no rank reaches. Then
    /// rank `r` loses `cuts[r].0` events at its front and `cuts[r].1` at
    /// its back, or its whole trace when `cuts[r].2` is 0.
    fn random_traces(
        n: usize,
        first: &[u64],
        steps: &[(usize, u32, u32, u32, u64)],
        cuts: &[(usize, usize, u32)],
    ) -> Vec<Vec<TraceEvent>> {
        let mut traces = vec![Vec::new(); n];
        let mut next = first.to_vec();
        let mut issued = Vec::new();
        let mut t = 0;
        for &(rank, kind, a, b, dur) in steps {
            let rank = rank % n;
            let start = SimTime::from_ns(t);
            t += dur;
            let end = SimTime::from_ns(t);
            t += 1;
            let kind = match kind {
                0 | 1 => {
                    let seq = next[rank];
                    next[rank] += 1 + u64::from(b % 8 == 0) * u64::from(a % 5);
                    issued.push((rank, seq));
                    let (dst, bytes) = (a as usize % n, b as usize);
                    EventKind::Send { dst, bytes, seq }
                }
                2 | 3 => {
                    let (src, seq) = match b % 6 {
                        0 => (n, u64::from(a)),
                        1 => (a as usize % n, u64::MAX - u64::from(a)),
                        _ if issued.is_empty() => (n, 0),
                        _ => issued[a as usize % issued.len()],
                    };
                    let wait = SimTime::from_ns(u64::from(b % 3) * dur / 2);
                    let bytes = a as usize;
                    EventKind::Recv {
                        src,
                        bytes,
                        seq,
                        wait,
                    }
                }
                4 => EventKind::Round {
                    op: if a % 2 == 0 { "ag/ring" } else { "a2aw" },
                    round: b,
                },
                _ => EventKind::PackBlock {
                    engine: "dt",
                    index: a.into(),
                    sparse: false,
                    seek: 0,
                    lookahead: 0,
                    bytes: b.into(),
                },
            };
            traces[rank].push(TraceEvent { kind, start, end });
        }
        for (events, &(front, back, traced)) in traces.iter_mut().zip(cuts) {
            let back = if traced == 0 { events.len() } else { back };
            events.truncate(events.len().saturating_sub(back));
            events.drain(..front.min(events.len()));
        }
        traces
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn matching_by_index_is_the_hashed_matching(
            n in 1usize..6,
            first in proptest::collection::vec(0u64..4, 6),
            steps in proptest::collection::vec((0usize..6, 0u32..6, 0u32..256, 0u32..256, 0u64..7), 0..120),
            cuts in proptest::collection::vec((0usize..4, 0usize..4, 0u32..7), 6),
        ) {
            let traces = random_traces(n, &first, &steps, &cuts);
            let graph = HbGraph::build(&traces);
            let oracle = oracle::Graph::build(&traces);
            for (rank, events) in traces.iter().enumerate() {
                for i in 0..events.len() {
                    prop_assert_eq!(graph.matching_send((rank, i)), oracle.matching_send((rank, i)));
                }
            }
            prop_assert_eq!(graph.unmatched_recvs(), oracle.unmatched_recvs());
            prop_assert_eq!(graph.unmatched_sends(), oracle.unmatched_sends());
            let hashed = oracle.as_graph();
            prop_assert_eq!(
                format!("{:?}", graph.critical_path()),
                format!("{:?}", hashed.critical_path())
            );
            prop_assert_eq!(
                format!("{:?}", diagnose(&traces)),
                format!("{:?}", diagnose_graph(&hashed))
            );
        }
    }

    #[test]
    fn out_of_order_seqs_match_like_the_hashed_graph() {
        let event = |kind| TraceEvent {
            kind,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        };
        let (dst, src, bytes, wait) = (1, 0, 0, SimTime::ZERO);
        let send = |seq| event(EventKind::Send { dst, bytes, seq });
        let recv = |seq| {
            event(EventKind::Recv {
                src,
                bytes,
                seq,
                wait,
            })
        };
        let traces = vec![
            vec![send(5), send(2), send(5), send(9), send(3)],
            vec![recv(5), recv(2), recv(4)],
        ];
        let graph = HbGraph::build(&traces);
        let oracle = oracle::Graph::build(&traces);
        // The later of the two sends numbered 5 is the one matched.
        assert_eq!(graph.matching_send((1, 0)), Some((0, 2)));
        for i in 0..3 {
            assert_eq!(graph.matching_send((1, i)), oracle.matching_send((1, i)));
        }
        assert_eq!(graph.unmatched_recvs(), [(1, 2)]);
        // Seq order (3, then 9) is not trace order here.
        assert_eq!(graph.unmatched_sends(), [(0, 3), (0, 4)]);
        assert_eq!(graph.unmatched_sends(), oracle.unmatched_sends());
    }

    fn ring_traces(n: usize, bytes: usize) -> Vec<Vec<TraceEvent>> {
        traced(ClusterConfig::uniform(n), move |rank| {
            let me = rank.rank();
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            let op = "ring/step";
            rank.record(rank.now(), EventKind::Round { op, round: 0 });
            rank.send_bytes(right, Tag(0), vec![0u8; bytes]);
            let _ = rank.recv_bytes(Some(left), Tag(0));
        })
    }

    #[test]
    fn analysis_json_round_trips() {
        let traces = crate::ledger::tests::observed_ring().traces;
        let path = HbGraph::build(&traces).critical_path();
        let attr = attribute_rounds(&traces);
        assert!(path.message_hops > 0 && attr.per_op["allgatherv/ring"].len() == 8);
        let json = analysis_json(&path, &attr);
        let makespan = path.makespan.as_ns();
        assert!(
            json.starts_with(&format!("{{\"schema\":1,\"makespan_ns\":{makespan},")),
            "{json}"
        );
        crate::ledger::tests::assert_round_trip(
            &json,
            parse_analysis,
            summary_json,
            (
                "\"via_message\":true",
                "\"via_message\":1",
                "\"via_message\"",
            ),
        );
        assert_eq!(parse_analysis(&json).unwrap().attribution, attr);
    }

    #[test]
    fn rounds_past_u32_are_refused_not_wrapped() {
        let traces = ring_traces(2, 64);
        let json = analysis_json(
            &HbGraph::build(&traces).critical_path(),
            &attribute_rounds(&traces),
        );
        let wrapped = json.replacen("\"rounds\":1,", "\"rounds\":4294967297,", 1);
        let err = parse_analysis(&wrapped).unwrap_err();
        assert!(err.contains("\"rounds\": 4294967297"), "{err}");
    }

    #[test]
    fn every_recv_is_matched_when_all_ranks_trace() {
        let traces = ring_traces(4, 512);
        let g = HbGraph::build(&traces);
        assert!(g.unmatched_recvs().is_empty());
        // Each rank: one round marker, one send, one recv.
        for rank in 0..4 {
            let recv = (rank, 2);
            let send = g.matching_send(recv).expect("matched");
            assert_eq!(send.0, (rank + 3) % 4, "send comes from the left peer");
        }
    }

    #[test]
    fn truncated_trace_surfaces_unmatched_warning() {
        let mut traces = ring_traces(4, 512);
        let g = HbGraph::build(&traces);
        assert!(g.unmatched_sends().is_empty(), "fully traced run is clean");
        // Lose rank 1's trace: rank 2's recv loses its send, and rank 0's
        // send loses its recv.
        traces[1].clear();
        let g = HbGraph::build(&traces);
        assert_eq!(g.unmatched_recvs(), vec![(2, 2)]);
        assert_eq!(g.unmatched_sends(), vec![(0, 1)]);
        let path = g.critical_path();
        assert_eq!((path.unmatched_recvs, path.unmatched_sends), (1, 1));
        let rendered = path.render(10);
        assert!(
            rendered.contains("WARNING: 1 unmatched recv(s), 1 unmatched send(s)"),
            "{rendered}"
        );
        // A clean path renders no warning.
        let full = ring_traces(4, 512);
        let clean = HbGraph::build(&full).critical_path().render(10);
        assert!(!clean.contains("WARNING"), "{clean}");
    }

    #[test]
    fn sequential_chain_is_the_critical_path() {
        // 0 sends to 1, 1 forwards to 2: the path must cross both messages.
        let traces = traced(ClusterConfig::uniform(3), |rank| match rank.rank() {
            0 => rank.send_bytes(1, Tag(0), vec![0u8; 4096]),
            1 => {
                let (data, _) = rank.recv_bytes(Some(0), Tag(0));
                rank.send_bytes(2, Tag(0), data);
            }
            _ => {
                let _ = rank.recv_bytes(Some(1), Tag(0));
            }
        });
        let g = HbGraph::build(&traces);
        let path = g.critical_path();
        assert_eq!(
            path.message_hops, 2,
            "both forwards are binding:\n{:#?}",
            path.steps
        );
        // Path ends at rank 2's recv and starts at rank 0.
        assert_eq!(path.steps.last().expect("nonempty").rank, 2);
        assert_eq!(path.steps.first().expect("nonempty").rank, 0);
        assert_eq!(path.makespan, path.steps.last().expect("nonempty").end);
        // Ends are monotone along the path.
        for w in path.steps.windows(2) {
            assert!(w[0].end <= w[1].end, "path must be monotone in end time");
        }
    }

    #[test]
    fn blocked_recv_reports_local_slack() {
        let traces = traced(ClusterConfig::uniform(2), |rank| {
            if rank.rank() == 0 {
                rank.compute_flops(500_000); // sender is late
                rank.send_bytes(1, Tag(0), vec![0u8; 64]);
            } else {
                let _ = rank.recv_bytes(Some(0), Tag(0));
            }
        });
        let g = HbGraph::build(&traces);
        let path = g.critical_path();
        let recv = path
            .steps
            .iter()
            .find(|s| s.via_message)
            .expect("message edge on path");
        assert!(recv.wait > SimTime::ZERO);
        assert_eq!(recv.slack, recv.wait, "idle receiver slack == its wait");
    }

    #[test]
    fn empty_traces_yield_empty_path() {
        let traces: Vec<Vec<TraceEvent>> = vec![vec![], vec![]];
        let g = HbGraph::build(&traces);
        let path = g.critical_path();
        assert!(path.steps.is_empty());
        assert_eq!(path.message_hops, 0);
        assert_eq!(path.makespan, SimTime::ZERO);
    }

    #[test]
    fn attribution_splits_wait_from_transfer() {
        let traces = ring_traces(4, 2048);
        let attr = attribute_rounds(&traces);
        let ranks = attr.per_op.get("ring/step").expect("op attributed");
        assert_eq!(ranks.len(), 4);
        for s in ranks {
            assert_eq!(s.rounds, 1);
            assert_eq!(s.msgs, 2); // one send + one recv
            assert_eq!(s.bytes, 2 * 2048);
            assert!(s.transfer > SimTime::ZERO);
        }
        let report = attr.render();
        assert!(report.contains("ring/step"), "{report}");
    }

    #[test]
    fn events_before_any_round_are_unattributed() {
        let traces = traced(ClusterConfig::uniform(2), |rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, Tag(0), vec![1]);
            } else {
                let _ = rank.recv_bytes(Some(0), Tag(0));
            }
        });
        let attr = attribute_rounds(&traces);
        assert!(attr.per_op.is_empty());
    }

    #[test]
    fn imbalance_math() {
        let b = imbalance(&[2.0, 4.0, 6.0]);
        assert_eq!((b.max, b.min, b.avg, b.ratio), (6.0, 2.0, 4.0, 3.0));
        assert!(imbalance(&[0.0, 5.0]).ratio.is_infinite());
        assert_eq!(imbalance(&[0.0, 0.0]).ratio, 1.0);
        assert_eq!(imbalance(&[]).ratio, 1.0);
        assert_eq!(render_ratio(f64::INFINITY), "inf");
        assert_eq!(render_ratio(2.5), "2.5");
    }

    #[test]
    fn render_elides_short_steps() {
        let traces = ring_traces(4, 512);
        let g = HbGraph::build(&traces);
        let path = g.critical_path();
        let full = path.render(100);
        assert!(full.contains("critical path: makespan"));
        if path.steps.len() > 2 {
            let short = path.render(2);
            assert!(short.contains("elided"), "{short}");
        }
    }
}
