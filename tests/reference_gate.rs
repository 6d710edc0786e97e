//! The reference gate, end to end and in memory: a real observed run is
//! the reference, and the "current" run is the same run with its latency
//! series rewritten through the series writer, or with one file the
//! differential never reads changed. `ncd_bench::mismatches` reads the
//! verdict: only a run that is its reference byte for byte passes.

mod common;

use common::ledgered;
use ncd_bench::{gate_failure_report, mismatches};
use nucomm::core::{compare, whatif_json, CausalProfile, MpiConfig, RunRecord};
use nucomm::simnet::{series_json, LedgerRun, Series};

const LATENCY: &str = "allgatherv-ns";

fn record(run: &LedgerRun) -> RunRecord {
    RunRecord::from_ledger(run).expect("reads back")
}

/// `run` with its latency series renamed to `label` and every point
/// scaled by `factor`.
fn reshaped(run: &LedgerRun, label: &str, factor: f64) -> LedgerRun {
    let mut series = Series::new(label);
    for (x, y) in &record(run).series[0].points {
        series.push(x.clone(), y * factor);
    }
    let mut run = run.clone();
    for (name, contents) in &mut run.artifacts {
        if name == "series.json" {
            *contents = series_json("roundtrip", true, std::slice::from_ref(&series));
        }
    }
    run
}

#[test]
fn only_a_run_that_reproduces_its_reference_passes() {
    let run = ledgered("optimized", MpiConfig::optimized());
    for (case, label, factor, fails) in [
        ("unchanged", LATENCY, 1.0, false),
        ("+9 %", LATENCY, 1.09, true),
        ("+11 %", LATENCY, 1.11, true),
        ("-50 %", LATENCY, 0.5, true),
        ("renamed", "allgatherv-latency", 1.0, true),
    ] {
        let current = reshaped(&run, label, factor);
        let named: &[&str] = if fails { &["series.json"] } else { &[] };
        assert_eq!(mismatches(&run, &current), named, "{case}");
        assert_eq!(compare(&record(&run), &record(&current)).is_empty(), !fails);
    }

    // One byte of a file the differential never reads: the diff sees
    // nothing, and the gate still fails, naming the file.
    let with_whatif = |baseline_ns| {
        let profile = CausalProfile {
            baseline_ns,
            outcomes: Vec::new(),
        };
        let mut run = run.clone();
        run.artifacts
            .push(("whatif.json".to_string(), whatif_json(&profile)));
        run
    };
    let (reference, current) = (with_whatif(1000), with_whatif(1001));
    assert!(compare(&record(&reference), &record(&current)).is_empty());
    assert_eq!(mismatches(&reference, &current), ["whatif.json"]);
}

/// A real regression — the selector sending the outlier round the ring —
/// fails with its explanation attached: the flip and the waits it caused.
#[test]
fn a_failing_gate_arrives_with_the_differentials_causes() {
    let reference = ledgered("optimized", MpiConfig::optimized());
    let ring = ledgered("baseline", MpiConfig::baseline());
    let differing = mismatches(&reference, &ring);
    let diff = compare(&record(&reference), &record(&ring));
    assert_eq!(diff.series_deltas.len(), 1);
    let report = gate_failure_report("roundtrip", true, &diff, &differing, &[]);
    for expected in [
        "reference gate FAILED for roundtrip: run ",
        "differs from the reference: manifest (mode or knobs), analysis.json, comm.json",
        "[decision] +1",
        "[wait] +",
        LATENCY,
        "rm -r crates/bench/benches/baselines/observatory/roundtrip",
    ] {
        assert!(report.contains(expected), "{expected:?} not in:\n{report}");
    }
    // The other way round the outlier-aware run improves on the ring
    // run's reference, and that is a change as well.
    assert!(!mismatches(&ring, &reference).is_empty());
}
