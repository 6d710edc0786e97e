//! Golden test of the differential export: two canned ledger entries
//! with one *known, injected* regression between them — latency up 60%
//! on one sweep point, wait time up 1.5 us, pack seeks up 50 segments,
//! doubled traffic on one pair, an allgatherv selection flipped back to
//! the ring, and the serialization-chain finding worsened — must produce
//! exactly the committed `diff_json` bytes. Any formatting drift, field
//! reorder, or schema change shows up here as a byte diff, the same way
//! it would break a downstream consumer of the observatory.

use ncd_core::{compare, decisions_json, diff_json, AlgorithmDecision, RegressionClass, RunRecord};
use ncd_simnet::{
    comm_matrix_json, diagnosis_json, metrics_artifact_json, series_json, ClusterCommMap,
    CommMatrix, Diagnosis, Finding, LedgerRun, MetricsRegistry, RunManifest, Series, SimTime,
    WaitPattern, SCHEMA_VERSION,
};

/// One canned ledger entry, every artifact rendered by its real writer.
#[allow(clippy::too_many_arguments)]
fn canned_run(
    knobs: &[(&str, &str)],
    run_id: &str,
    latency_128: u64,
    wait_ns: u64,
    seek_total: u64,
    pair_bytes: u64,
    chosen: &str,
    reason: &str,
    finding_ns: u64,
) -> RunRecord {
    let mut latency = Series::new("latency-usec");
    latency.push("64", 100.0);
    latency.push("128", latency_128 as f64);
    let series = series_json("golden", true, &[latency]);
    let mut metrics = MetricsRegistry::enabled();
    metrics.counter_add("datatype", "seek_total", "baseline", seek_total);
    metrics.counter_add("time", "wait", "", wait_ns);
    let metrics = metrics_artifact_json(&metrics.snapshot());
    let mut total = CommMatrix::new(4);
    total.add(0, 1, pair_bytes, 1);
    let comm = comm_matrix_json(&ClusterCommMap {
        n: 4,
        total,
        epochs: vec![],
    });
    let decisions = decisions_json(&[AlgorithmDecision {
        collective: "allgatherv".to_string(),
        n: 4,
        total_bytes: 32_768,
        outlier_ratio: 64.0,
        pow2: true,
        chosen: chosen.to_string(),
        reason: reason.to_string(),
    }]);
    let (wait, severity) = (SimTime::from_ns(wait_ns), SimTime::from_ns(finding_ns));
    let diagnosis = diagnosis_json(&Diagnosis {
        n: 4,
        makespan: SimTime::from_ns(5000),
        total_wait: wait,
        classified: wait,
        instances: vec![],
        findings: vec![Finding {
            pattern: WaitPattern::SerializationChain,
            op: Some("allgatherv".to_string()),
            blamed: 0,
            instances: 1,
            waiters: 3,
            severity,
            max_severity: severity,
            verified_gain: None,
        }],
        blame: CommMatrix::new(4),
        per_pattern: vec![(WaitPattern::SerializationChain, severity, 1)],
        unmatched_recvs: 0,
        unmatched_sends: 0,
    });
    let run = LedgerRun {
        manifest: RunManifest {
            bench: "golden".to_string(),
            mode: "smoke".to_string(),
            schema: SCHEMA_VERSION,
            knobs: knobs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            run_id: run_id.to_string(),
        },
        artifacts: vec![
            ("comm.json".to_string(), comm),
            ("decisions.json".to_string(), decisions),
            ("diagnosis.json".to_string(), diagnosis),
            ("metrics.json".to_string(), metrics),
            ("series.json".to_string(), series),
        ],
    };
    RunRecord::from_ledger(&run).expect("canned run must parse")
}

fn base() -> RunRecord {
    canned_run(
        &[("flavor", "auto")],
        "aaaaaaaaaaaaaaaa",
        250,
        1000,
        40,
        800,
        "recursive_doubling",
        "outliers: binomial movement",
        1000,
    )
}

fn current() -> RunRecord {
    canned_run(
        &[("flavor", "auto")],
        "bbbbbbbbbbbbbbbb",
        400,
        2500,
        90,
        1600,
        "ring",
        "total >= long threshold",
        2200,
    )
}

/// The committed golden bytes. Regenerate by running this test and
/// copying the printed actual value — but treat any change as a
/// schema-compatibility decision, not a formality.
const GOLDEN: &str = r#"{"schema":1,"bench":"golden","base":"aaaaaaaaaaaaaaaa","current":"bbbbbbbbbbbbbbbb","empty":false,"knobs":[],"causes":[{"class":"decision","magnitude":1,"evidence":"1 flip(s): allgatherv #0 chose ring (was recursive_doubling) — total >= long threshold"},{"class":"wait","magnitude":1500,"evidence":"classified wait 1.000us -> 2.500us; top mover: serialization-chain blamed rank 0 worsened (1.000us -> 2.200us)"},{"class":"pack","magnitude":50,"evidence":"context-search segments 40 -> 90"},{"class":"wire","magnitude":800,"evidence":"wire traffic 800 B -> 1600 B"}],"series":[{"series":"latency-usec","x":"128","base":250,"current":400,"delta_pct_millis":60000}],"flips":[{"collective":"allgatherv","occurrence":0,"base":"recursive_doubling","current":"ring","base_reason":"outliers: binomial movement","cur_reason":"total >= long threshold"}],"path":null,"findings":[{"status":"worsened","pattern":"serialization-chain","op":"allgatherv","blamed":0,"base_ns":1000,"cur_ns":2200}],"comm":{"base_bytes":800,"cur_bytes":1600,"new_pairs":[],"vanished_pairs":[],"new_hot":[],"vanished_hot":[],"cell_deltas":[[0,1,800]]},"metrics":[{"key":"datatype/seek_total/baseline","base":40,"current":90},{"key":"time/wait","base":1000,"current":2500}],"histograms":[],"notes":[]}"#;

#[test]
fn injected_regression_produces_exact_golden_diff_json() {
    let diff = compare(&base(), &current());

    // The injected deltas must each be attributed before trusting the
    // bytes: the flip, the wait growth, the pack growth, the wire growth,
    // the worsened finding, and the 60% series regression.
    assert_eq!(diff.flips.len(), 1, "one decision flip was injected");
    assert_eq!(diff.flips[0].base_chosen, "recursive_doubling");
    assert_eq!(diff.flips[0].cur_chosen, "ring");
    let classes: Vec<RegressionClass> = diff.causes.iter().map(|c| c.class).collect();
    assert!(classes.contains(&RegressionClass::Decision), "{classes:?}");
    assert!(classes.contains(&RegressionClass::Wait), "{classes:?}");
    assert!(classes.contains(&RegressionClass::Pack), "{classes:?}");
    assert!(classes.contains(&RegressionClass::Wire), "{classes:?}");
    assert_eq!(diff.series_deltas.len(), 1);
    assert_eq!(diff.series_deltas[0].delta_pct_millis, 60_000);
    assert_eq!(diff.finding_deltas.len(), 1);
    assert_eq!(diff.finding_deltas[0].base_ns, 1000);
    assert_eq!(diff.finding_deltas[0].cur_ns, 2200);

    let json = diff_json(&diff);
    assert!(
        json.starts_with(&format!("{{\"schema\":{SCHEMA_VERSION},")),
        "diff_json must lead with the shared schema version: {}",
        &json[..40.min(json.len())]
    );
    // Byte stability: recomputing the same comparison renders the same
    // bytes.
    assert_eq!(json, diff_json(&compare(&base(), &current())));
    assert_eq!(json, GOLDEN, "diff_json drifted from the committed golden");
}
