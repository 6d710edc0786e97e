//! Golden-file test for the diagnosis serializer: `diagnosis_json`
//! promises byte-stable output (schema field first, all five patterns in
//! fixed order, findings sorted severity-descending, blame pairs in
//! `(src, dst)` order), so a deterministic fixture must serialize to
//! exactly the committed golden file.

use ncd_simnet::{
    diagnose, diagnosis_json, Cluster, ClusterConfig, EventKind, Observers, Tag, TraceEvent,
};

/// A deterministic 4-rank fixture exercising three patterns at once:
/// rank 0 computes late then feeds a ring (late-sender on 1, chain on
/// 2/3), all inside a labelled collective round.
fn fixture() -> Vec<Vec<TraceEvent>> {
    let n = 4;
    let trace = Observers {
        trace: true,
        ..Observers::NONE
    };
    let cluster = Cluster::new(ClusterConfig::paper_testbed(n).observe(trace));
    let (_, capture) = cluster
        .try_run(move |rank| {
            let me = rank.rank();
            let op = "allgatherv/ring";
            rank.record(rank.now(), EventKind::Round { op, round: 0 });
            if me == 0 {
                rank.compute_flops(5_000_000);
            }
            rank.send_bytes((me + 1) % n, Tag(0), vec![0u8; 2048]);
            let (data, _) = rank.recv_bytes(Some((me + n - 1) % n), Tag(0));
            let op = "allgatherv/ring";
            rank.record(rank.now(), EventKind::Round { op, round: 1 });
            rank.send_bytes((me + 1) % n, Tag(1), data);
            let _ = rank.recv_bytes(Some((me + n - 1) % n), Tag(1));
        })
        .unwrap();
    capture.traces.expect("traced")
}

const GOLDEN: &str = include_str!("golden/diagnosis.json");

/// Regenerate the golden file after an intentional format change:
/// `cargo test -p ncd-simnet --test diagnosis_golden -- --ignored`
#[test]
#[ignore = "writes the golden file; run explicitly after format changes"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/diagnosis.json");
    let d = diagnose(&fixture());
    std::fs::write(path, diagnosis_json(&d) + "\n").expect("write golden");
}

#[test]
fn serializer_output_is_byte_stable() {
    let json = diagnosis_json(&diagnose(&fixture()));
    assert_eq!(
        json,
        GOLDEN.trim_end(),
        "diagnosis_json output diverged from tests/golden/diagnosis.json; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn golden_reflects_the_fixture_shape() {
    let d = diagnose(&fixture());
    assert!(d.classified > ncd_simnet::SimTime::ZERO);
    let json = diagnosis_json(&d);
    assert!(json.starts_with("{\"schema\":1,\"ranks\":4,"), "{json}");
    assert!(json.contains("\"pattern\":\"late-sender\""), "{json}");
    assert!(json.contains("\"op\":\"allgatherv/ring\""), "{json}");
    // Rank 0 is the skew source: it must own blame-matrix traffic.
    assert!(d.blame.row_bytes(0) > 0, "rank 0 must be blamed");
}
