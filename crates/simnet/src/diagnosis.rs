//! Root-cause diagnosis: Scalasca-style automatic classification of wait
//! states over the happens-before graph.
//!
//! The observability layers below answer *what happened* — traces, comm
//! matrices, decision audits, epoch histories. This module answers *why rank R
//! was slow*: every blocked receive in a set of per-rank traces is
//! classified into one typed inefficiency pattern with a severity equal to
//! the simulated time the instance cost, then aggregated into a ranked
//! finding table and a rank×rank **blame matrix** (who made whom wait).
//!
//! The patterns, in classification priority order for a blocked receive
//! whose matching send is in the trace. A receive is **sender-caused**
//! (first three patterns) when the sender's posting delay accounts for
//! the majority of the wait — a prompt send still carries a small posting
//! overhead, which must not masquerade as lateness when the wait is
//! really wire transit:
//!
//! * **serialization chain** — the sender posted late *because it was
//!   itself blocked* on someone else during the waiter's window; the walk
//!   continues transitively along the message edges and blames the chain's
//!   root (the first rank that was not blocked). The ring allgatherv
//!   forwarding an outlier block is exactly this shape.
//! * **pack-bound sender** — the sender posted late and at least half of
//!   the posting delay was spent in datatype pack blocks
//!   ([`EventKind::PackBlock`]) feeding that send: the paper's §4.1
//!   quadratic-search cost surfacing as a peer's wait.
//! * **late sender** — the sender posted its isend after the receiver had
//!   already blocked (data not yet on the wire), and neither of the
//!   refinements above applies: plain computational skew.
//! * **wait at collective** — the sender was not meaningfully late and a
//!   collective round governs the receive: an early rank idling at the
//!   collective's internal barrier-like round while the data is still in
//!   flight.
//! * **late receiver** — the sender was not meaningfully late and no
//!   collective round governs the receive: it was posted too late to
//!   overlap the wire transit it then had to absorb (the residual tail of
//!   a point-to-point exchange the sender had finished its part of).
//!
//! Each blocked, matched receive lands in exactly **one** pattern with
//! severity = its full blocked time, so per-op pattern severities sum to
//! at most the op's total wait from
//! [`crate::analysis::attribute_rounds`] (property-tested). Blocked
//! receives whose sender was *not* tracing stay unclassified and are
//! surfaced as an explicit WARNING (see
//! [`crate::analysis::HbGraph::unmatched_recvs`]).
//!
//! Diagnosis is purely post-mortem — it reads traces after the cluster has
//! finished and never touches the simulated clock, so enabling it cannot
//! change any timing (guarded by the zero-overhead test).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::analysis::{attribute_rounds, HbGraph, NodeId};
use crate::commmap::{matrix_from, ranks_from, render_heatmap, CommMatrix};
use crate::json::{parse_schema_led, Json, JsonWriter};
use crate::time::SimTime;
use crate::trace::{EventKind, TraceEvent};

/// The typed inefficiency patterns a blocked receive can classify into.
/// Variant order is the tie-break order of equal-severity findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitPattern {
    LateSender,
    SerializationChain,
    PackBoundSender,
    WaitAtCollective,
    LateReceiver,
}

/// All patterns in stable report order.
pub const ALL_PATTERNS: [WaitPattern; 5] = [
    WaitPattern::LateSender,
    WaitPattern::SerializationChain,
    WaitPattern::PackBoundSender,
    WaitPattern::WaitAtCollective,
    WaitPattern::LateReceiver,
];

impl WaitPattern {
    /// Stable kebab-case label (used in reports and JSON).
    pub fn label(self) -> &'static str {
        match self {
            WaitPattern::LateSender => "late-sender",
            WaitPattern::SerializationChain => "serialization-chain",
            WaitPattern::PackBoundSender => "pack-bound-sender",
            WaitPattern::WaitAtCollective => "wait-at-collective",
            WaitPattern::LateReceiver => "late-receiver",
        }
    }

    /// True for the sender-caused family: the blamed rank posted its send
    /// late (directly, through a chain, or through pack cost).
    pub fn sender_caused(self) -> bool {
        matches!(
            self,
            WaitPattern::LateSender
                | WaitPattern::SerializationChain
                | WaitPattern::PackBoundSender
        )
    }
}

/// One classified blocked receive.
#[derive(Clone, Debug)]
pub struct WaitInstance {
    pub pattern: WaitPattern,
    /// The rank that sat blocked.
    pub waiter: usize,
    /// The direct matching sender.
    pub sender: usize,
    /// The rank the wait is charged to: the sender, except for
    /// serialization chains where blame walks to the chain root.
    pub blamed: usize,
    /// Governing collective round label (e.g. `allgatherv/ring`), if any.
    pub op: Option<String>,
    /// Simulated time attributable to this instance (the full blocked
    /// span of the receive).
    pub severity: SimTime,
    /// Message hops walked to reach the blamed rank (0 unless the pattern
    /// is a serialization chain).
    pub chain_depth: u32,
    /// The receive node in the waiter's trace.
    pub node: NodeId,
}

/// Instances aggregated by `(pattern, op, blamed rank)`, ranked by
/// severity; `diagnosis.json` holds every field.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    pub pattern: WaitPattern,
    pub op: Option<String>,
    pub blamed: usize,
    pub instances: u64,
    /// Distinct ranks that waited on the blamed rank in this group.
    pub waiters: u64,
    pub severity: SimTime,
    /// Largest single instance in the group.
    pub max_severity: SimTime,
    /// Causally verified gain in nanoseconds, filled in by the what-if
    /// profiler (`core::whatif`) after replaying the workload with this
    /// finding's cost removed: baseline makespan minus intervention
    /// makespan (negative = the intervention made things worse). `None`
    /// until a replay has measured it; [`diagnosis_json`] only emits the
    /// field when present, so un-profiled exports are byte-identical to
    /// earlier schema-1 artifacts.
    pub verified_gain: Option<i64>,
}

/// The full diagnosis of one run's traces; see [`diagnose`].
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// Number of ranks (trace slots).
    pub n: usize,
    /// End of the last traced event.
    pub makespan: SimTime,
    /// Total blocked time across every receive in the traces.
    pub total_wait: SimTime,
    /// Portion of [`Self::total_wait`] that classified (equals it when
    /// every blocked receive's sender was tracing).
    pub classified: SimTime,
    /// Every classified blocked receive, in trace order.
    pub instances: Vec<WaitInstance>,
    /// Aggregated findings, highest severity first.
    pub findings: Vec<Finding>,
    /// Who made whom wait: row = blamed rank, column = waiting rank,
    /// "bytes" = classified wait in ns, "msgs" = instance count. The same
    /// [`CommMatrix`] type as the traffic map, so hot pairs and blame
    /// pairs compare side by side.
    pub blame: CommMatrix,
    /// Severity and instance count per pattern, in [`ALL_PATTERNS`] order
    /// (zero entries included, so the shape is stable).
    pub per_pattern: Vec<(WaitPattern, SimTime, u64)>,
    /// Receives whose matching send was not found (sender not tracing or
    /// truncated trace) — their waits are unclassified.
    pub unmatched_recvs: usize,
    /// Sends no receive consumed (receiver not tracing or truncated
    /// trace).
    pub unmatched_sends: usize,
}

/// Walk backward from a send: was the sender itself blocked during the
/// waiter's window, and if so, who is the chain's root? Returns
/// `(root rank, hops)`; hops = 0 means the sender was not blocked (no
/// chain). The walk is bounded by the rank count (a chain cannot revisit
/// a rank without going back in time).
fn chain_root(graph: &HbGraph<'_>, send: NodeId, window_start: SimTime) -> (usize, u32) {
    let traces = graph.traces();
    let (mut rank, mut idx) = send;
    let mut depth = 0u32;
    let max_depth = traces.len() as u32 + 1;
    loop {
        let blocker = traces[rank][..idx]
            .iter()
            .enumerate()
            .rev()
            .find_map(|(j, e)| match &e.kind {
                EventKind::Recv { src, wait, .. }
                    if *wait > SimTime::ZERO && e.end > window_start =>
                {
                    Some((j, *src))
                }
                _ => None,
            });
        let Some((j, src)) = blocker else {
            return (rank, depth);
        };
        depth += 1;
        if depth >= max_depth {
            return (src, depth);
        }
        match graph.matching_send((rank, j)) {
            Some(s) => (rank, idx) = s,
            None => return (src, depth),
        }
    }
}

/// Was the posting delay of `send` dominated (≥ half) by datatype pack
/// blocks feeding it? Scans the contiguous run of non-message events
/// immediately before the send, counting pack time inside the waiter's
/// window.
fn pack_bound(
    traces: &[Vec<TraceEvent>],
    send: NodeId,
    window_start: SimTime,
    post_delay: SimTime,
) -> bool {
    let mut pack = SimTime::ZERO;
    for e in traces[send.0][..send.1].iter().rev() {
        match &e.kind {
            EventKind::PackBlock { .. } if e.end > window_start => pack += e.duration(),
            EventKind::PackBlock { .. } => {}
            EventKind::Send { .. } | EventKind::Recv { .. } | EventKind::SendWait { .. } => break,
            _ => {}
        }
    }
    pack.as_ns().saturating_mul(2) >= post_delay.as_ns()
}

/// Classify every blocked receive in `traces`; see the module docs for
/// the pattern taxonomy. Deterministic for deterministic traces, so the
/// JSON export is byte-stable.
pub fn diagnose(traces: &[Vec<TraceEvent>]) -> Diagnosis {
    diagnose_graph(&HbGraph::build(traces))
}

/// [`diagnose`] over a graph already built from the traces.
pub(crate) fn diagnose_graph(graph: &HbGraph<'_>) -> Diagnosis {
    let traces = graph.traces();
    let n = traces.len();
    let makespan = traces
        .iter()
        .flatten()
        .map(|e| e.end)
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut total_wait = SimTime::ZERO;
    let mut classified = SimTime::ZERO;
    let mut instances = Vec::new();
    for (rank, events) in traces.iter().enumerate() {
        for (i, e) in events.iter().enumerate() {
            let EventKind::Recv { src, wait, .. } = &e.kind else {
                continue;
            };
            total_wait += *wait;
            if *wait == SimTime::ZERO {
                continue;
            }
            let Some(send) = graph.matching_send((rank, i)) else {
                continue; // unmatched: surfaced via the WARNING counts
            };
            // How late did the sender *enter* its send, relative to the
            // receiver blocking? The send span's end covers wire
            // serialization (a blocking send serializes on the sender's
            // CPU timeline), so the entry time is the lateness anchor.
            let send_entered = graph.event(send).start;
            let post_delay = send_entered.saturating_sub(e.start);
            let op = graph.op_label((rank, i)).map(str::to_string);
            // Sender-caused only when late entry explains the majority of
            // the wait — jitter on a prompt send must not masquerade as
            // lateness when the wait is really wire transit the receiver
            // failed to hide.
            let sender_late = post_delay.as_ns().saturating_mul(2) > wait.as_ns();
            let (pattern, blamed, chain_depth) = if sender_late {
                let (root, depth) = chain_root(graph, send, e.start);
                if depth > 0 {
                    (WaitPattern::SerializationChain, root, depth)
                } else if pack_bound(traces, send, e.start, post_delay) {
                    (WaitPattern::PackBoundSender, *src, 0)
                } else {
                    (WaitPattern::LateSender, *src, 0)
                }
            } else if op.is_some() {
                (WaitPattern::WaitAtCollective, *src, 0)
            } else {
                (WaitPattern::LateReceiver, *src, 0)
            };
            classified += *wait;
            instances.push(WaitInstance {
                pattern,
                waiter: rank,
                sender: *src,
                blamed,
                op,
                severity: *wait,
                chain_depth,
                node: (rank, i),
            });
        }
    }

    let mut blame = CommMatrix::new(n);
    type GroupKey = (WaitPattern, Option<String>, usize);
    let mut groups: BTreeMap<GroupKey, (u64, BTreeSet<usize>, SimTime, SimTime)> = BTreeMap::new();
    for inst in &instances {
        blame.add(inst.blamed, inst.waiter, inst.severity.as_ns(), 1);
        let g = groups
            .entry((inst.pattern, inst.op.clone(), inst.blamed))
            .or_insert((0, BTreeSet::new(), SimTime::ZERO, SimTime::ZERO));
        g.0 += 1;
        g.1.insert(inst.waiter);
        g.2 += inst.severity;
        g.3 = g.3.max(inst.severity);
    }
    let mut findings: Vec<Finding> = groups
        .into_iter()
        .map(
            |((pattern, op, blamed), (count, waiters, severity, max_severity))| Finding {
                pattern,
                op,
                blamed,
                instances: count,
                waiters: waiters.len() as u64,
                severity,
                max_severity,
                verified_gain: None,
            },
        )
        .collect();
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.pattern.cmp(&b.pattern))
            .then(a.op.cmp(&b.op))
            .then(a.blamed.cmp(&b.blamed))
    });

    let per_pattern = ALL_PATTERNS
        .iter()
        .map(|&p| {
            let (mut sev, mut count) = (SimTime::ZERO, 0u64);
            for inst in instances.iter().filter(|i| i.pattern == p) {
                sev += inst.severity;
                count += 1;
            }
            (p, sev, count)
        })
        .collect();

    Diagnosis {
        n,
        makespan,
        total_wait,
        classified,
        instances,
        findings,
        blame,
        per_pattern,
        unmatched_recvs: graph.unmatched_recvs().len(),
        unmatched_sends: graph.unmatched_sends().len(),
    }
}

impl Diagnosis {
    /// Classified severity of instances whose governing op starts with
    /// `prefix` (e.g. `"allgatherv"` matches every algorithm).
    pub fn op_severity(&self, prefix: &str) -> SimTime {
        self.instances
            .iter()
            .filter(|i| i.op.as_deref().is_some_and(|op| op.starts_with(prefix)))
            .map(|i| i.severity)
            .fold(SimTime::ZERO, |a, b| a + b)
    }

    /// Severity of the sender-caused family (late-sender, serialization
    /// chain, pack-bound) blamed on `rank` within ops starting with
    /// `prefix` — "how much waiting did rank R's lateness cost everyone
    /// in this collective".
    pub fn sender_caused_severity(&self, prefix: &str, rank: usize) -> SimTime {
        self.instances
            .iter()
            .filter(|i| i.pattern.sender_caused() && i.blamed == rank)
            .filter(|i| i.op.as_deref().is_some_and(|op| op.starts_with(prefix)))
            .map(|i| i.severity)
            .fold(SimTime::ZERO, |a, b| a + b)
    }

    /// The WARNING block for unmatched messages, if any (also embedded in
    /// [`Self::render`]).
    pub fn warnings(&self) -> Option<String> {
        warning_block(self.unmatched_recvs, self.unmatched_sends)
    }

    /// Render the ASCII diagnosis report: totals, WARNING block, the
    /// per-pattern table, the `top_k` ranked findings, and the blame
    /// heatmap with its top pairs.
    pub fn render(&self, top_k: usize) -> String {
        let mut out = String::new();
        let share = |part: SimTime| {
            if self.total_wait == SimTime::ZERO {
                "  0.0%".to_string()
            } else {
                format!(
                    "{:>5.1}%",
                    100.0 * part.as_ns() as f64 / self.total_wait.as_ns() as f64
                )
            }
        };
        let _ = writeln!(
            out,
            "diagnosis: total wait {}  classified {} ({})  instances {}",
            self.total_wait,
            self.classified,
            share(self.classified).trim(),
            self.instances.len(),
        );
        if let Some(w) = self.warnings() {
            out.push_str(&w);
        }
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>14} {:>7}",
            "pattern", "instances", "severity", "share"
        );
        for (p, sev, count) in &self.per_pattern {
            if *count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<22} {:>9} {:>14} {:>7}",
                p.label(),
                count,
                sev.to_string(),
                share(*sev),
            );
        }
        if !self.findings.is_empty() {
            let _ = writeln!(out, "top findings:");
            for (i, f) in self.findings.iter().take(top_k).enumerate() {
                let op = f.op.as_deref().unwrap_or("-");
                let verified = match f.verified_gain {
                    Some(gain) => format!("  verified {gain} ns"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  #{:<2} {:<22} op {:<26} blamed {:>3}  waiters {:>3}  instances {:>4}  severity {}{}",
                    i + 1,
                    f.pattern.label(),
                    op,
                    f.blamed,
                    f.waiters,
                    f.instances,
                    f.severity,
                    verified,
                );
            }
            if self.findings.len() > top_k {
                let _ = writeln!(out, "  ... {} more findings", self.findings.len() - top_k);
            }
        }
        if self.blame.total_msgs() > 0 {
            let _ = writeln!(
                out,
                "blame matrix (row = blamed rank, col = waiting rank, cell = classified wait ns):"
            );
            out.push_str(&render_heatmap(&self.blame));
            let _ = writeln!(out, "top blame pairs (blamed -> waiter):");
            for (src, dst, ns) in self.blame.top_pairs(5) {
                let _ = writeln!(
                    out,
                    "  {:>3} -> {:<3} {:>14} ({} instances)",
                    src,
                    dst,
                    SimTime::from_ns(ns).to_string(),
                    self.blame.msgs(src, dst),
                );
            }
        }
        out
    }
}

/// Shared WARNING block for unmatched messages (also used by the
/// critical-path render).
pub(crate) fn warning_block(unmatched_recvs: usize, unmatched_sends: usize) -> Option<String> {
    if unmatched_recvs == 0 && unmatched_sends == 0 {
        return None;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "WARNING: {unmatched_recvs} unmatched recv(s), {unmatched_sends} unmatched send(s) \
         — peer not tracing or truncated trace; their waits are unclassified"
    );
    Some(out)
}

/// A diagnosis as `diagnosis.json` holds it: the totals, per-pattern rows,
/// ranked findings and blame matrix of a [`Diagnosis`]; the classified
/// instances stay with the run.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnosisSummary {
    pub n: usize,
    pub makespan: SimTime,
    pub total_wait: SimTime,
    pub classified: SimTime,
    pub per_pattern: Vec<(WaitPattern, SimTime, u64)>,
    pub findings: Vec<Finding>,
    pub blame: CommMatrix,
    pub unmatched_recvs: usize,
    pub unmatched_sends: usize,
}

/// JSON export of a diagnosis (golden-tested).
pub fn diagnosis_json(d: &Diagnosis) -> String {
    summary_json(&DiagnosisSummary {
        n: d.n,
        makespan: d.makespan,
        total_wait: d.total_wait,
        classified: d.classified,
        per_pattern: d.per_pattern.clone(),
        findings: d.findings.clone(),
        blame: d.blame.clone(),
        unmatched_recvs: d.unmatched_recvs,
        unmatched_sends: d.unmatched_sends,
    })
}

fn summary_json(d: &DiagnosisSummary) -> String {
    JsonWriter::schema_led(|w| {
        w.field("ranks", d.n);
        w.field("makespan_ns", d.makespan.as_ns());
        w.field("total_wait_ns", d.total_wait.as_ns());
        w.field("classified_ns", d.classified.as_ns());
        w.objects("patterns", &d.per_pattern, |w, (p, sev, count)| {
            w.field("pattern", p.label()).field("instances", count);
            w.field("severity_ns", sev.as_ns());
        });
        w.objects("findings", &d.findings, |w, f| {
            w.field("pattern", f.pattern.label()).field("op", &f.op);
            w.field("blamed", f.blamed).field("waiters", f.waiters);
            w.field("instances", f.instances);
            w.field("severity_ns", f.severity.as_ns());
            w.field("max_ns", f.max_severity.as_ns());
            if let Some(gain) = f.verified_gain {
                w.field("verified_gain_ns", gain);
            }
        });
        w.field("blame", d.blame.nonzero_pairs());
        w.field("unmatched_recvs", d.unmatched_recvs);
        w.field("unmatched_sends", d.unmatched_sends);
    })
}

/// Read a [`diagnosis_json`] document back.
pub fn parse_diagnosis(text: &str) -> Result<DiagnosisSummary, String> {
    let v = parse_schema_led(text)?;
    let ns = |item: &Json, key: &str| item.u64(key).map(SimTime::from_ns);
    let pattern = |item: &Json| {
        let label = item.str("pattern")?;
        let known = ALL_PATTERNS.into_iter().find(|p| p.label() == label);
        known.ok_or_else(|| format!("\"pattern\": unknown wait pattern {label:?}"))
    };
    let n = ranks_from(&v)?;
    Ok(DiagnosisSummary {
        n,
        makespan: ns(&v, "makespan_ns")?,
        total_wait: ns(&v, "total_wait_ns")?,
        classified: ns(&v, "classified_ns")?,
        per_pattern: v.list("patterns", |p| {
            Ok((pattern(p)?, ns(p, "severity_ns")?, p.u64("instances")?))
        })?,
        findings: v.list("findings", |f| {
            Ok(Finding {
                pattern: pattern(f)?,
                op: f.opt_str("op").map(str::to_string),
                blamed: f.u64("blamed")? as usize,
                waiters: f.u64("waiters")?,
                instances: f.u64("instances")?,
                severity: ns(f, "severity_ns")?,
                max_severity: ns(f, "max_ns")?,
                verified_gain: f
                    .get("verified_gain_ns")
                    .and_then(Json::as_f64)
                    .map(|gain| gain as i64),
            })
        })?,
        blame: matrix_from(&v, "blame", n)?,
        unmatched_recvs: v.u64("unmatched_recvs")? as usize,
        unmatched_sends: v.u64("unmatched_sends")? as usize,
    })
}

/// Property-test hook: per-op classified severity must never exceed that
/// op's total wait from [`attribute_rounds`]. Returns the first violated
/// op, if any.
pub fn check_severity_bound(traces: &[Vec<TraceEvent>], d: &Diagnosis) -> Option<String> {
    let attr = attribute_rounds(traces);
    let mut per_op: BTreeMap<&str, SimTime> = BTreeMap::new();
    for inst in &d.instances {
        if let Some(op) = inst.op.as_deref() {
            *per_op.entry(op).or_insert(SimTime::ZERO) += inst.severity;
        }
    }
    for (op, sev) in per_op {
        if sev > attr.total_wait(op) {
            return Some(format!(
                "op {op}: classified severity {sev} exceeds attributed wait {}",
                attr.total_wait(op)
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::tests::traced;
    use crate::runtime::ClusterConfig;
    use crate::{Tag, SCHEMA_VERSION};

    /// Rank 0 computes before sending: rank 1's blocked recv is a plain
    /// late-sender blamed on 0.
    #[test]
    fn late_posting_sender_classifies_as_late_sender() {
        let traces = traced(ClusterConfig::uniform(2), |rank| {
            if rank.rank() == 0 {
                rank.compute_flops(500_000);
                rank.send_bytes(1, Tag(0), vec![0u8; 64]);
            } else {
                let _ = rank.recv_bytes(Some(0), Tag(0));
            }
        });
        let d = diagnose(&traces);
        assert_eq!(d.instances.len(), 1);
        let inst = &d.instances[0];
        assert_eq!(inst.pattern, WaitPattern::LateSender);
        assert_eq!((inst.waiter, inst.blamed), (1, 0));
        assert_eq!(d.classified, d.total_wait);
        assert_eq!(d.blame.bytes(0, 1), inst.severity.as_ns());
        assert_eq!(d.blame.msgs(0, 1), 1);
    }

    /// 0 computes, sends to 1; 1 forwards to 2 immediately: 2's wait is a
    /// serialization chain whose root is 0.
    #[test]
    fn forwarded_delay_walks_to_the_chain_root() {
        let traces = traced(ClusterConfig::uniform(3), |rank| match rank.rank() {
            0 => {
                rank.compute_flops(2_000_000);
                rank.send_bytes(1, Tag(0), vec![0u8; 64]);
            }
            1 => {
                let (data, _) = rank.recv_bytes(Some(0), Tag(0));
                rank.send_bytes(2, Tag(0), data);
            }
            _ => {
                let _ = rank.recv_bytes(Some(1), Tag(0));
            }
        });
        let d = diagnose(&traces);
        let chain = d
            .instances
            .iter()
            .find(|i| i.waiter == 2)
            .expect("rank 2 waited");
        assert_eq!(chain.pattern, WaitPattern::SerializationChain);
        assert_eq!(chain.sender, 1, "direct sender is the forwarder");
        assert_eq!(chain.blamed, 0, "blame walks to the root");
        assert_eq!(chain.chain_depth, 1);
        // Rank 1's own wait is a plain late-sender on 0.
        let direct = d
            .instances
            .iter()
            .find(|i| i.waiter == 1)
            .expect("rank 1 waited");
        assert_eq!(direct.pattern, WaitPattern::LateSender);
        assert_eq!(direct.blamed, 0);
        // Both instances charge rank 0's row of the blame matrix.
        assert_eq!(d.blame.row_bytes(0), d.classified.as_ns());
    }

    /// An early send into a late receiver: the wait (wire tail) outside
    /// any collective round classifies as late-receiver; inside a round
    /// it classifies as wait-at-collective.
    #[test]
    fn early_send_splits_on_collective_context() {
        for round in [false, true] {
            let traces = traced(ClusterConfig::uniform(2), move |rank| {
                if rank.rank() == 0 {
                    rank.send_bytes(1, Tag(0), vec![0u8; 1 << 20]);
                } else {
                    if round {
                        let op = "allgatherv/ring";
                        rank.record(rank.now(), EventKind::Round { op, round: 0 });
                    }
                    let _ = rank.recv_bytes(Some(0), Tag(0));
                }
            });
            let d = diagnose(&traces);
            assert_eq!(d.instances.len(), 1, "big message must block the recv");
            let expect = if round {
                WaitPattern::WaitAtCollective
            } else {
                WaitPattern::LateReceiver
            };
            assert_eq!(d.instances[0].pattern, expect);
        }
    }

    #[test]
    fn unmatched_messages_surface_as_warnings() {
        let mut traces = traced(ClusterConfig::uniform(2), |rank| {
            if rank.rank() == 0 {
                rank.compute_flops(100_000);
                rank.send_bytes(1, Tag(0), vec![0u8; 64]);
            } else {
                let _ = rank.recv_bytes(Some(0), Tag(0));
            }
        });
        // Truncate rank 0's trace: its send disappears, so rank 1's
        // blocked recv is unmatched — and stays unclassified.
        traces[0].clear();
        let d = diagnose(&traces);
        assert_eq!(d.unmatched_recvs, 1);
        assert!(d.instances.is_empty());
        assert!(d.classified < d.total_wait);
        let report = d.render(5);
        assert!(report.contains("WARNING: 1 unmatched recv(s)"), "{report}");
    }

    #[test]
    fn severity_never_exceeds_attributed_wait() {
        let n = 4;
        let traces = traced(ClusterConfig::paper_testbed(n), move |rank| {
            let me = rank.rank();
            let op = "ring/step";
            rank.record(rank.now(), EventKind::Round { op, round: 0 });
            rank.compute_flops(50_000 * (me as u64 + 1));
            rank.send_bytes((me + 1) % n, Tag(0), vec![0u8; 4096]);
            let _ = rank.recv_bytes(Some((me + n - 1) % n), Tag(0));
        });
        let d = diagnose(&traces);
        assert_eq!(check_severity_bound(&traces, &d), None);
    }

    #[test]
    fn diagnosis_json_round_trips() {
        let mut d = diagnose(&crate::ledger::tests::observed_ring().traces);
        assert!(d.findings.len() > 1 && !d.instances.is_empty());
        // As the what-if profiler leaves it: one finding verified.
        d.findings[0].verified_gain = Some(-12);
        let json = diagnosis_json(&d);
        assert!(
            json.starts_with(&format!("{{\"schema\":{SCHEMA_VERSION},\"ranks\":8,")),
            "{json}"
        );
        assert!(json.contains("\"verified_gain_ns\":-12},{"), "{json}");
        assert!(json.ends_with("\"unmatched_recvs\":0,\"unmatched_sends\":0}"));
        // All five patterns are present even when empty.
        for p in ALL_PATTERNS {
            assert!(json.contains(p.label()), "{json} missing {}", p.label());
        }
        crate::ledger::tests::assert_round_trip(
            &json,
            parse_diagnosis,
            summary_json,
            (
                "\"pattern\":\"late-sender\"",
                "\"pattern\":\"late\"",
                "\"pattern\"",
            ),
        );
        let back = parse_diagnosis(&json).unwrap();
        assert_eq!((back.classified, &back.blame), (d.classified, &d.blame));
    }

    #[test]
    fn empty_traces_diagnose_cleanly() {
        let traces: Vec<Vec<TraceEvent>> = vec![vec![], vec![]];
        let d = diagnose(&traces);
        assert_eq!(d.total_wait, SimTime::ZERO);
        assert!(d.findings.is_empty());
        let report = d.render(5);
        assert!(
            report.contains("total wait 0ns") || report.contains("total wait"),
            "{report}"
        );
        let json = diagnosis_json(&d);
        assert!(json.contains("\"findings\":[]"), "{json}");
    }
}
