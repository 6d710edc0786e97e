//! Remediation hints: joining a wait-state diagnosis against the
//! algorithm-decision audit.
//!
//! [`ncd_simnet::diagnosis`] classifies *why* ranks waited; this module
//! answers *what to do about it* by cross-referencing each ranked finding
//! with the core-layer evidence the lower layer cannot see:
//!
//! * a finding on a `collective/algorithm` epoch that
//!   [`crate::detect_misselections`] also flagged becomes "consistent with
//!   flagged misselection — see decision #k", pointing at the exact entry
//!   in the decision log;
//! * a finding on an epoch whose selection the audit did *not* contradict
//!   becomes "selection-consistent", steering the reader toward
//!   computational skew on the blamed rank instead of the algorithm;
//! * when one rank owns the majority of the blame matrix, a concentration
//!   hint names it — the paper's outlier-rank shape.
//!
//! Hints are plain strings in finding order, ready for a report; the join
//! never re-ranks or filters the findings themselves.

use ncd_simnet::diagnosis::{Diagnosis, Finding};

use crate::commstats::{AlgorithmDecision, MisselectionAudit};

/// The index of the `occurrence`-th decision matching
/// `(collective, chosen)` in call order — the "#k" a hint points at.
fn decision_index(
    decisions: &[AlgorithmDecision],
    collective: &str,
    chosen: &str,
    occurrence: u32,
) -> Option<usize> {
    decisions
        .iter()
        .enumerate()
        .filter(|(_, d)| d.collective == collective && d.chosen == chosen)
        .nth(occurrence as usize)
        .map(|(k, _)| k)
}

fn hint_for_finding(
    idx: usize,
    f: &Finding,
    decisions: &[AlgorithmDecision],
    audit: &MisselectionAudit,
    seen: &mut std::collections::BTreeSet<(String, &'static str)>,
) -> Vec<String> {
    let mut out = Vec::new();
    let Some(op) = f.op.as_deref() else {
        return out;
    };
    // Epoch labels are `<collective>/<algorithm>` — the same key the
    // misselection join uses.
    let Some((collective, algo)) = op.split_once('/') else {
        return out;
    };
    let head = format!(
        "finding #{}: {} on {} blamed on rank {}",
        idx + 1,
        f.pattern.label(),
        op,
        f.blamed
    );
    // Each piece of evidence is cited once, anchored at the op's
    // top-ranked finding — every lower finding on the same epoch would
    // repeat it verbatim.
    if !seen.insert((op.to_string(), "selection")) {
        return out;
    }
    if let Some(flag) = audit
        .flags
        .iter()
        .find(|m| m.collective == collective && m.chosen == algo)
    {
        let k = decision_index(decisions, collective, algo, flag.occurrence);
        let at = match k {
            Some(k) => format!("see decision #{}", k + 1),
            None => "decision not in the provided log".to_string(),
        };
        out.push(format!(
            "{head} — consistent with flagged misselection: selector chose `{}` \
             (declared ratio {:.1}) but measured ratio {:.1} suggests `{}` \
             (est {:.0}ns vs {:.0}ns); {at}",
            flag.chosen,
            flag.declared_ratio,
            flag.measured_ratio,
            flag.suggested,
            flag.est_chosen_ns,
            flag.est_suggested_ns,
        ));
    } else if let Some(k) = decisions
        .iter()
        .position(|d| d.collective == collective && d.chosen == algo)
    {
        out.push(format!(
            "{head} — selection-consistent (decision #{}: {}); look at rank {}'s \
             own schedule, not the algorithm",
            k + 1,
            decisions[k].reason,
            f.blamed
        ));
    }
    out
}

/// Join a diagnosis against the decision audit and return remediation
/// hints, one or more strings per joined finding plus a
/// blame-concentration hint when a single rank owns the majority of the
/// classified wait. Empty when nothing joins — callers should print
/// the diagnosis itself regardless.
pub fn remediation_hints(
    diag: &Diagnosis,
    decisions: &[AlgorithmDecision],
    audit: &MisselectionAudit,
) -> Vec<String> {
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (i, f) in diag.findings.iter().enumerate() {
        out.extend(hint_for_finding(i, f, decisions, audit, &mut seen));
    }
    let total = diag.blame.total_bytes();
    if total > 0 {
        if let Some((rank, bytes)) = (0..diag.n)
            .map(|r| (r, diag.blame.row_bytes(r)))
            .max_by_key(|&(_, b)| b)
        {
            if bytes.saturating_mul(2) > total {
                out.push(format!(
                    "blame concentrates on rank {rank}: {:.0}% of all classified wait \
                     is attributed to it — an outlier rank in the paper's sense; \
                     rebalance its volume or overlap its compute",
                    100.0 * bytes as f64 / total as f64,
                ));
            }
        }
    }
    out
}

/// Render hints as an ASCII block for appending to a report; empty
/// string when there are none.
pub fn render_hints(hints: &[String]) -> String {
    if hints.is_empty() {
        return String::new();
    }
    let mut out = String::from("remediation hints:\n");
    for h in hints {
        out.push_str("  * ");
        out.push_str(h);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commstats::Misselection;
    use ncd_simnet::diagnosis::WaitPattern;
    use ncd_simnet::{CommMatrix, SimTime};

    fn decision(collective: &str, chosen: &str) -> AlgorithmDecision {
        AlgorithmDecision {
            collective: collective.to_string(),
            n: 8,
            total_bytes: 1 << 20,
            outlier_ratio: 512.0,
            pow2: true,
            chosen: chosen.to_string(),
            reason: "nonuniform path".to_string(),
        }
    }

    fn diag_with_finding(op: &str, blamed: usize) -> Diagnosis {
        let mut blame = CommMatrix::new(4);
        blame.add(blamed, 1, 900, 1);
        blame.add(2, 3, 100, 1);
        Diagnosis {
            n: 4,
            makespan: SimTime::from_ns(1_000),
            total_wait: SimTime::from_ns(1_000),
            classified: SimTime::from_ns(1_000),
            instances: Vec::new(),
            findings: vec![Finding {
                pattern: WaitPattern::LateSender,
                op: Some(op.to_string()),
                blamed,
                waiters: 3,
                instances: 3,
                severity: SimTime::from_ns(900),
                max_severity: SimTime::from_ns(400),
                last_end: SimTime::from_ns(950),
                verified_gain: None,
            }],
            blame,
            per_pattern: Vec::new(),
            unmatched_recvs: 0,
            unmatched_sends: 0,
        }
    }

    #[test]
    fn flagged_misselection_cross_references_the_decision() {
        let decisions = vec![
            decision("alltoallw", "binned"),
            decision("allgatherv", "ring"),
        ];
        let audit = MisselectionAudit {
            flags: vec![Misselection {
                collective: "allgatherv".to_string(),
                occurrence: 0,
                chosen: "ring".to_string(),
                suggested: "binomial".to_string(),
                declared_ratio: 512.0,
                measured_ratio: 512.0,
                est_chosen_ns: 9_000.0,
                est_suggested_ns: 3_000.0,
                detail: String::new(),
            }],
            ..Default::default()
        };
        let hints = remediation_hints(&diag_with_finding("allgatherv/ring", 0), &decisions, &audit);
        assert!(
            hints[0].contains("consistent with flagged misselection"),
            "{hints:?}"
        );
        assert!(hints[0].contains("see decision #2"), "{hints:?}");
        assert!(hints[0].contains("suggests `binomial`"), "{hints:?}");
    }

    #[test]
    fn unflagged_selection_reads_as_consistent() {
        let decisions = vec![decision("allgatherv", "ring")];
        let hints = remediation_hints(
            &diag_with_finding("allgatherv/ring", 2),
            &decisions,
            &MisselectionAudit::default(),
        );
        assert!(hints[0].contains("selection-consistent"), "{hints:?}");
        assert!(hints[0].contains("rank 2"), "{hints:?}");
    }

    #[test]
    fn concentrated_blame_names_the_outlier_rank() {
        let hints = remediation_hints(
            &diag_with_finding("allgatherv/ring", 0),
            &[],
            &MisselectionAudit::default(),
        );
        assert!(
            hints
                .iter()
                .any(|h| h.contains("blame concentrates on rank 0")),
            "{hints:?}"
        );
        assert!(hints.iter().any(|h| h.contains("90%")), "{hints:?}");
    }

    #[test]
    fn no_evidence_no_noise() {
        let mut d = diag_with_finding("allgatherv/ring", 0);
        d.blame = CommMatrix::new(4); // no concentration signal either
        let hints = remediation_hints(&d, &[], &MisselectionAudit::default());
        assert!(hints.is_empty(), "{hints:?}");
        assert_eq!(render_hints(&hints), "");
    }

    #[test]
    fn render_lists_one_bullet_per_hint() {
        let hints = vec!["a".to_string(), "b".to_string()];
        let block = render_hints(&hints);
        assert_eq!(block, "remediation hints:\n  * a\n  * b\n");
    }
}
