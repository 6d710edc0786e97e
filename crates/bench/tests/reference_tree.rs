//! The committed reference tree is the baseline every gated bench is held
//! to, so it is checked as data: each `<bench>/latest` must name a run
//! directory that loads through the same readers `--compare` uses, whose
//! content-hash id — recomputed from the files — is the directory's name
//! (an edited artifact no longer loads as if nothing happened), and which
//! holds a measured point for every series its bench gates.

use std::path::Path;

use ncd_bench::REFERENCE_ROOT;
use ncd_core::RunRecord;
use ncd_simnet::{latest_run_id, ledger, read_run};

/// The series each bench hands to `BenchCli::observatory` as gated in
/// smoke mode, the mode every committed reference is ledgered in.
const GATED: &[(&str, &[&str])] = &[
    ("fig12_transpose", &["MVAPICH2-0.9.5", "MVAPICH2-New"]),
    (
        "fig14_allgatherv",
        &[
            "a/MVAPICH2-0.9.5",
            "a/MVAPICH2-New",
            "b/MVAPICH2-0.9.5",
            "b/MVAPICH2-New",
        ],
    ),
    ("fig15_alltoallw", &["MVAPICH2-0.9.5", "MVAPICH2-New"]),
    (
        "fig16_vecscatter",
        &["hand-tuned", "MVAPICH2-0.9.5", "MVAPICH2-New"],
    ),
    ("ext_overlap", &["sequential", "overlapped"]),
    (
        "ext_amr_skew",
        &[
            "depth/round-robin",
            "depth/three-bin",
            "scaling/round-robin",
            "scaling/three-bin",
            "outlier-blame-share-%",
        ],
    ),
    ("ext_drift", &["step-latency"]),
    ("ext_scale", &["ring", "recursive-doubling", "MVAPICH2-New"]),
];

/// The order `ncd_bench::ledger_run` hands a run's artifacts to the id
/// hash in.
const HASH_ORDER: [&str; 8] = [
    "series.json",
    "metrics.json",
    "comm.json",
    "history.json",
    "analysis.json",
    "decisions.json",
    "diagnosis.json",
    "whatif.json",
];

#[test]
fn every_committed_reference_loads_hashes_to_its_name_and_holds_its_gated_series() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(REFERENCE_ROOT);
    let mut benches: Vec<String> = std::fs::read_dir(&root)
        .expect("reference tree")
        .map(|entry| entry.expect("entry").file_name().into_string().unwrap())
        .collect();
    benches.sort();
    let mut gated: Vec<&str> = GATED.iter().map(|&(bench, _)| bench).collect();
    gated.sort();
    assert_eq!(benches, gated, "one committed reference per gating bench");

    for &(bench, labels) in GATED {
        let id = latest_run_id(&root, bench).unwrap_or_else(|| panic!("{bench}/latest"));
        let dir = root.join(bench).join(&id);
        let entries = std::fs::read_dir(root.join(bench))
            .expect("bench dir")
            .count();
        assert_eq!(entries, 2, "{bench}: `latest` and the run it names, only");
        let run = read_run(&dir).unwrap_or_else(|e| panic!("{bench}: {e}"));
        let manifest = &run.manifest;
        assert_eq!(
            (manifest.bench.as_str(), manifest.mode.as_str()),
            (bench, "smoke")
        );
        assert_eq!(manifest.run_id, id, "{bench}: manifest vs directory name");

        let mut artifacts = run.artifacts.clone();
        artifacts.sort_by_key(|(name, _)| {
            let at = HASH_ORDER.iter().position(|known| known == name);
            at.unwrap_or_else(|| panic!("{bench}: unexpected file {name}"))
        });
        assert_eq!(
            ledger::run_id(bench, &manifest.mode, &manifest.knobs, &artifacts),
            id,
            "{bench}: the files no longer hash to the run id they are committed under"
        );

        let record = RunRecord::from_ledger(&run).unwrap_or_else(|e| panic!("{bench}: {e}"));
        for label in labels {
            let series = record.series.iter().find(|s| s.label == *label);
            let series = series.unwrap_or_else(|| panic!("{bench}: no gated series {label:?}"));
            assert!(!series.points.is_empty(), "{bench}: {label:?} is empty");
            for (x, y) in &series.points {
                assert!(y.is_finite(), "{bench}: {label:?} point {x} is unmeasured");
            }
        }
    }
}
