//! The observatory's compatibility handshake, observed from outside: a
//! consumer (the differential engine, CI artifact tooling, a committed
//! reference run) reads `"schema":SCHEMA_VERSION` off the first bytes
//! before trusting the rest. `ncd_simnet::json` writes that prefix in one
//! place and tests it there; this test drives one real traced run
//! through the ledger and checks what reaches disk — the prefix on every
//! artifact, the artifact set, and the content-hash run id — plus a few
//! writers the ledger does not own.

use ncd_bench::{ledger_run, series_json, time_phase, Series};
use ncd_core::{compare, diff_json, Comm, MpiConfig, RunRecord};
use ncd_simnet::{ledger_root, manifest_json, read_run, ClusterConfig, Observers, SCHEMA_VERSION};

fn schema_prefix() -> String {
    format!("{{\"schema\":{SCHEMA_VERSION},")
}

#[test]
fn every_byte_stable_export_leads_with_the_shared_schema_version() {
    let root = std::env::temp_dir().join(format!("ncd-schema-test-{}", std::process::id()));
    std::env::set_var("NCD_OBSERVATORY", &root);

    // One real run exercising a collective, so every artifact (series,
    // metrics, comm matrix, history, analysis, decisions, diagnosis) is
    // non-trivial.
    let mut capture = time_phase(
        ClusterConfig::uniform(4).observe(Observers::ALL),
        MpiConfig::optimized(),
        2,
        |comm: &mut Comm, _| {
            let counts = vec![64usize; comm.size()];
            let me = comm.rank();
            let send = vec![me as u8; counts[me]];
            let mut recv = vec![0u8; counts.iter().sum()];
            comm.allgatherv(&send, &counts, &mut recv);
        },
    );
    let mut s = Series::new("latency-usec");
    s.push("4", 1.0);
    let series = [s];
    capture.whatif = Some(ncd_core::whatif_json(&ncd_core::CausalProfile {
        baseline_ns: 1,
        outcomes: Vec::new(),
    }));
    let knobs = [("ranks".to_string(), "4".to_string())];
    let manifest =
        ledger_run("schema_probe", true, &knobs, &series, &capture).expect("ledger the probe run");
    // The id is a content hash over the manifest and every artifact's
    // bytes. It was produced by the five-rung harness this one replaced
    // (commit fb51a8f) as `481a6a6a460907d6`, and moved only when the
    // `allgatherv/{bytes/adaptive, selected, verdict, outlier_ratio}`
    // metrics, copies of the `decision*/*` keys, left `metrics.json`.
    assert_eq!(manifest.run_id, "13d3cb8b4a032521");

    // Every persisted artifact, the manifest included, leads with the
    // shared version.
    let dir = ledger_root().join("schema_probe").join(&manifest.run_id);
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("run dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).expect("artifact");
            assert!(
                text.starts_with(&schema_prefix()),
                "{} must lead with {}, got: {}",
                path.display(),
                schema_prefix(),
                &text[..40.min(text.len())]
            );
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        9,
        "expected manifest + 8 artifacts under {}",
        dir.display()
    );

    // Writers the ledger does not own.
    let direct = [
        ("series_json", series_json("schema_probe", true, &series)),
        ("manifest_json", manifest_json(&manifest)),
        ("diff_json", {
            let run = read_run(&dir).expect("re-read run");
            let rec = RunRecord::from_ledger(&run).expect("parse run");
            diff_json(&compare(&rec, &rec))
        }),
    ];
    for (name, text) in direct {
        assert!(
            text.starts_with(&schema_prefix()),
            "{name} must lead with {}, got: {}",
            schema_prefix(),
            &text[..40.min(text.len())]
        );
    }
}
