//! Golden test for the epoch-history JSON export: the byte-stable format
//! downstream tooling parses must not drift. The fixture runs a real
//! four-rank cluster (deterministic simulated clocks, deterministic
//! traffic), so any change to epoch accounting, analytics, or the JSON
//! field order shows up as a byte diff.

use ncd_simnet::{history_json, Cluster, ClusterConfig, History, Observers, Tag};

const GOLDEN: &str = include_str!("golden/history.json");

/// A deterministic two-epoch exchange: epoch 0 is a skewed send into rank
/// 0's column, epoch 1 is a uniform ring shift, plus a `stage:`-style
/// quiet epoch closed with no traffic.
fn fixture() -> History {
    let history = Observers {
        history: true,
        ..Observers::NONE
    };
    let cluster = Cluster::new(ClusterConfig::uniform(4).observe(history));
    let (_, capture) = cluster
        .try_run(|rank| {
            let me = rank.rank();
            let n = rank.size();
            // Epoch 0: everyone sends 64*(src+1) bytes to rank 0.
            if me == 0 {
                for _ in 1..n {
                    let _ = rank.recv_bytes(None, Tag(1));
                }
            } else {
                rank.send_bytes(0, Tag(1), vec![7u8; 64 * (me + 1)]);
            }
            rank.comm_epoch("gather/skewed");
            // Epoch 1: ring shift of 32 bytes.
            rank.send_bytes((me + 1) % n, Tag(2), vec![1u8; 32]);
            let _ = rank.recv_bytes(Some((me + n - 1) % n), Tag(2));
            rank.comm_epoch("shift/ring");
            // Epoch 2: closed with no traffic at all.
            rank.comm_epoch("stage:quiet");
        })
        .unwrap();
    capture.history.expect("history")
}

#[test]
fn history_json_matches_golden() {
    let json = history_json(&fixture());
    assert_eq!(
        json,
        GOLDEN.trim_end(),
        "history JSON drifted from tests/golden/history.json; \
         run the regenerate test and review the diff"
    );
}

#[test]
fn export_is_deterministic_across_runs() {
    assert_eq!(history_json(&fixture()), history_json(&fixture()));
}

#[test]
#[ignore = "writes the golden file; run explicitly after format changes"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/history.json");
    let mut json = history_json(&fixture());
    json.push('\n');
    std::fs::write(path, json).expect("write golden");
}
