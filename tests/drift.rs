//! Temporal observability, end to end: a remeshing run through the full
//! stack must leave a complete temporal record — every injected remesh
//! flagged by [`detect_drift`] over the merged history within its bounded
//! detection lag, and the pattern-recurrence join seeing exactly one hash
//! per stationary regime.

use nucomm::core::{
    detect_drift, pattern_recurrence, AllgathervAlgorithm, Comm, DriftDirection, DriftEvent,
    MpiConfig, DRIFT_DETECTION_BOUND,
};
use nucomm::simnet::{history_json, Cluster, ClusterConfig, History, Observers};

const RANKS: usize = 8;
/// Epochs per stationary regime; remeshes land at EPOCHS and 2*EPOCHS.
const EPOCHS: usize = 6;

/// Refinement level of `rank` under a periodic hotspot at `spot`.
fn level(rank: usize, spot: usize, depth: u32) -> u32 {
    let d = rank.abs_diff(spot).min(RANKS - rank.abs_diff(spot));
    depth.saturating_sub(d as u32)
}

fn counts(spot: Option<usize>, depth: u32) -> Vec<usize> {
    (0..RANKS)
        .map(|r| {
            let lvl = spot.map_or(0, |s| level(r, s, depth));
            (16usize << (2 * lvl)) * 8
        })
        .collect()
}

/// Three stationary regimes: uniform, hotspot at rank 2, hotspot moved to
/// rank 6 and deepened. The transitions into regimes 1 and 2 are the
/// injected remeshes. Returns the merged history.
fn remeshing_run() -> History {
    let observers = Observers {
        history: true,
        ..Observers::NONE
    };
    let cluster = ClusterConfig::paper_testbed(RANKS).observe(observers);
    let run = Cluster::new(cluster).try_run(|rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let me = comm.rank();
        for (spot, depth) in [(None, 0u32), (Some(2), 2), (Some(6), 3)] {
            let counts = counts(spot, depth);
            let total: usize = counts.iter().sum();
            for _ in 0..EPOCHS {
                let send = vec![me as u8; counts[me]];
                let mut recv = vec![0u8; total];
                // Pinned ring so a regime shift can't split the epoch
                // series by changing the selector's choice.
                comm.allgatherv_with(AllgathervAlgorithm::Ring, &send, &counts, &mut recv);
            }
        }
    });
    run.results.expect("the remeshing run completes");
    run.capture.history.expect("history")
}

#[test]
fn every_injected_remesh_is_flagged_within_bounded_lag() {
    let events = detect_drift(&remeshing_run());
    // The detector's re-warm bound: a step change must fire within the
    // first `DRIFT_DETECTION_BOUND` epochs of the new regime.
    let bound = DRIFT_DETECTION_BOUND;
    for boundary in [EPOCHS as u32, 2 * EPOCHS as u32] {
        let flagged = |e: &&DriftEvent| {
            e.metric == "bytes" && e.occurrence >= boundary && e.occurrence < boundary + bound
        };
        assert!(
            events.iter().any(|e| flagged(&e)),
            "remesh at epoch {boundary} not flagged within {bound} epochs; \
             events: {events:?}"
        );
        // Both remeshes grow the hotspot volume, so the flagged shift on
        // the bytes series points up.
        assert!(events
            .iter()
            .filter(flagged)
            .all(|e| e.direction == DriftDirection::Up));
    }
}

#[test]
fn recurrence_join_sees_one_hash_per_regime() {
    let history = remeshing_run();
    // Recurrence: three stationary regimes leave exactly three distinct
    // pattern hashes, each recurring across its whole regime.
    let rec = pattern_recurrence(&history);
    let ring = rec
        .iter()
        .find(|r| r.label == "allgatherv/ring")
        .expect("ring series present");
    assert_eq!((ring.epochs, ring.distinct), (3 * EPOCHS, 3));
    assert_eq!(ring.dominant_count, EPOCHS);
    // And the byte-stable export covers the full series.
    let json = history_json(&history);
    assert!(json.starts_with(&format!(
        "{{\"schema\":1,\"ranks\":{RANKS},\"epochs\":{}",
        3 * EPOCHS
    )));
}
