//! The committed reference tree is the baseline every gated bench is held
//! to, so it is checked as data: each `<bench>/latest` must name a run
//! directory that loads through the same readers `--compare` uses, whose
//! content-hash id — recomputed from the files — is the directory's name
//! (an edited artifact no longer loads as if nothing happened), and whose
//! series hold no unmeasured point.

use std::path::Path;

use ncd_bench::REFERENCE_ROOT;
use ncd_core::RunRecord;
use ncd_simnet::{latest_run_id, ledger, read_run};

/// The benches with a committed smoke reference. CI gates every directory
/// of the tree, so this list is checked against it.
const GATED: [&str; 9] = [
    "ext_amr_skew",
    "ext_drift",
    "ext_overlap",
    "ext_scale",
    "fig12_transpose",
    "fig13_breakdown",
    "fig14_allgatherv",
    "fig15_alltoallw",
    "fig16_vecscatter",
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
fn every_committed_reference_loads_hashes_to_its_name_and_is_measured() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(REFERENCE_ROOT);
    let mut benches: Vec<String> = std::fs::read_dir(&root)
        .expect("reference tree")
        .map(|entry| entry.expect("entry").file_name().into_string().unwrap())
        .collect();
    benches.sort();
    assert_eq!(benches, GATED, "one committed reference per gated bench");

    for bench in GATED {
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
        assert!(!record.series.is_empty(), "{bench}: no series");
        for series in &record.series {
            let label = &series.label;
            assert!(!series.points.is_empty(), "{bench}: {label:?} is empty");
            for (x, y) in &series.points {
                assert!(y.is_finite(), "{bench}: {label:?} point {x} is unmeasured");
            }
        }
    }
}
