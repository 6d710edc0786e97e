//! The reference gate, end to end and in memory: a real observed run is
//! the reference, the "current" run is the same run with its latency
//! series rewritten through the series writer and re-loaded the way
//! `--compare` loads it, and `ncd_bench::regressions` reads the verdict
//! off the differential — slower beyond the tolerance or reshaped fails,
//! everything else only shows in the diff.

mod common;

use common::ledgered;
use ncd_bench::{gate_failure_report, regressions};
use nucomm::core::{compare, MpiConfig, RunRecord};
use nucomm::simnet::{series_json, LedgerRun, Series};

const LATENCY: &str = "allgatherv-ns";

/// `run` with its latency series renamed to `label` and every point
/// scaled by `factor`.
fn reshaped(run: &LedgerRun, label: &str, factor: f64) -> RunRecord {
    let measured = RunRecord::from_ledger(run).expect("reads back").series;
    let mut series = Series::new(label);
    for (x, y) in &measured[0].points {
        series.push(x.clone(), y * factor);
    }
    let mut run = run.clone();
    for (name, contents) in &mut run.artifacts {
        if name == "series.json" {
            *contents = series_json("roundtrip", true, std::slice::from_ref(&series));
        }
    }
    RunRecord::from_ledger(&run).expect("reads back")
}

#[test]
fn slower_beyond_tolerance_or_reshaped_fails_and_nothing_else_does() {
    let run = ledgered("optimized", MpiConfig::optimized());
    let reference = RunRecord::from_ledger(&run).expect("reads back");
    for (case, label, factor, fails) in [
        ("unchanged", LATENCY, 1.0, false),
        ("+9 %", LATENCY, 1.09, false),
        ("+11 %", LATENCY, 1.11, true),
        ("-50 %", LATENCY, 0.5, false),
        ("gated series renamed", "allgatherv-latency", 1.0, true),
    ] {
        let diff = compare(&reference, &reshaped(&run, label, factor));
        assert_eq!(!regressions(&diff, &[LATENCY]).is_empty(), fails, "{case}");
        // Outside the gated set the same change only shows in the diff.
        assert!(regressions(&diff, &[]).is_empty(), "{case}");
        assert_eq!(diff.is_empty(), case == "unchanged", "{case}");
    }
}

/// A real regression — the selector sending the outlier round the ring —
/// fails with its explanation attached: the flip and the waits it caused.
#[test]
fn a_failing_gate_arrives_with_the_differentials_causes() {
    let load = |flavor, cfg| RunRecord::from_ledger(&ledgered(flavor, cfg)).expect("reads back");
    let reference = load("optimized", MpiConfig::optimized());
    let ring = load("baseline", MpiConfig::baseline());
    let failing = regressions(&compare(&reference, &ring), &[LATENCY]);
    assert_eq!(failing.series_deltas.len(), 1);
    let report = gate_failure_report("roundtrip", &failing, &[]);
    for expected in [
        "reference gate FAILED for roundtrip: 1 gated point(s)",
        "[decision] +1",
        "[wait] +",
        LATENCY,
    ] {
        assert!(report.contains(expected), "{expected:?} not in:\n{report}");
    }
    // The other way round the ring run is the reference and the
    // outlier-aware run only improves on it.
    assert!(regressions(&compare(&ring, &reference), &[LATENCY]).is_empty());
}
