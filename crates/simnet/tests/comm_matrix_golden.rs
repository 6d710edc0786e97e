//! Golden-file test for the comm-matrix serializer: `comm_matrix_json`
//! promises byte-stable output (fixed field order, nonzero pairs in
//! `(src, dst)` order, epochs in merge order), so a fixed fixture must
//! serialize to exactly the committed golden file.

use ncd_simnet::{comm_matrix_json, merge_comm_maps, ClusterCommMap, RankCommMap};

/// A deterministic 3-rank fixture: skewed totals, two distinguishable
/// epochs, and a stage label that needs JSON escaping.
fn fixture() -> ClusterCommMap {
    let mut maps: Vec<RankCommMap> = (0..3).map(|r| RankCommMap::new(r, 3)).collect();
    // Epoch 0: an outlier pair (0 -> 1) next to small neighbour traffic.
    maps[1].record_delivery(0, 64 * 1024);
    maps[1].record_delivery(2, 16);
    maps[2].record_delivery(1, 16);
    for m in &mut maps {
        m.close_epoch("allgatherv/ring");
    }
    // Epoch 1: sparse nearest-neighbour exchange, two messages one way.
    maps[0].record_delivery(2, 32);
    maps[0].record_delivery(2, 32);
    maps[2].record_delivery(0, 8);
    for m in &mut maps {
        m.close_epoch("stage:solve \"hot\"");
    }
    merge_comm_maps(&maps)
}

const GOLDEN: &str = include_str!("golden/comm_matrix.json");

/// Regenerate the golden file after an intentional format change:
/// `cargo test -p ncd-simnet --test comm_matrix_golden -- --ignored`
#[test]
#[ignore = "writes the golden file; run explicitly after format changes"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/comm_matrix.json");
    std::fs::write(path, comm_matrix_json(&fixture()) + "\n").expect("write golden");
}

#[test]
fn serializer_output_is_byte_stable() {
    let json = comm_matrix_json(&fixture());
    assert_eq!(
        json,
        GOLDEN.trim_end(),
        "comm_matrix_json output diverged from tests/golden/comm_matrix.json; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn golden_reflects_the_fixture_traffic() {
    let map = fixture();
    assert_eq!(map.total.bytes(0, 1), 64 * 1024);
    assert_eq!(map.total.msgs(2, 0), 2);
    assert_eq!(map.epochs.len(), 2);
    let json = comm_matrix_json(&map);
    assert!(json.contains("\"label\":\"allgatherv/ring\""));
    assert!(json.contains("stage:solve \\\"hot\\\""), "label is escaped");
}
