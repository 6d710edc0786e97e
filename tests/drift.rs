//! Temporal observability, end to end: a remeshing run through the full
//! stack must leave a complete temporal record — every injected remesh
//! flagged by the online drift monitor within its bounded detection lag,
//! the events mirrored into trace, metrics, and the flight recorder's
//! drift ring, and the pattern-recurrence join seeing exactly one hash
//! per stationary regime.

use nucomm::core::{
    detect_drift, drift_events_from_trace, pattern_recurrence, AllgathervAlgorithm, Comm,
    DriftDirection, MpiConfig, DRIFT_DETECTION_BOUND,
};
use nucomm::simnet::{
    history_json, render_dump, Cluster, ClusterConfig, EventKind, History, Observers, TraceEvent,
};

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
/// injected remeshes. Returns rank 0's trace, the merged history and the
/// run's flight-recorder dump.
fn remeshing_run() -> (Vec<TraceEvent>, History, String) {
    let observers = Observers {
        metrics: true,
        trace: true,
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
        // Each rank's own registry (the merged one is the capture's).
        let metrics = comm.rank_mut().metrics_mut().expect("metered");
        metrics.counter("drift", "allgatherv/ring", "bytes")
    });
    let out = run.results.expect("the remeshing run completes");
    // The drift counter must have fired on every rank's registry.
    for fired in out {
        assert!(
            fired > 0,
            "drift events must be mirrored into drift/* metrics"
        );
    }
    let traces = run.capture.traces.expect("traced");
    (
        traces.into_iter().next().unwrap(),
        run.capture.history.expect("history"),
        render_dump(&run.recorders),
    )
}

#[test]
fn every_injected_remesh_is_flagged_within_bounded_lag() {
    let (trace, history, _) = remeshing_run();
    let online = drift_events_from_trace(&trace);
    // The detector's re-warm bound: a step change must fire within the
    // first `DRIFT_DETECTION_BOUND` epochs of the new regime.
    let bound = DRIFT_DETECTION_BOUND;
    for boundary in [EPOCHS as u32, 2 * EPOCHS as u32] {
        let hit = online
            .iter()
            .find(|e| e.occurrence >= boundary && e.occurrence < boundary + bound);
        assert!(
            hit.is_some(),
            "remesh at epoch {boundary} not flagged within {bound} epochs; \
             events: {online:?}"
        );
        // Both remeshes grow the hotspot volume, so the flagged shift on
        // the bytes series points up.
        assert!(online
            .iter()
            .filter(|e| e.metric == "bytes")
            .filter(|e| e.occurrence >= boundary && e.occurrence < boundary + bound)
            .all(|e| e.direction == DriftDirection::Up));
    }
    // Offline replay over the merged history agrees with the online
    // monitor on where the bytes series shifted.
    let offline = detect_drift(&history);
    for boundary in [EPOCHS as u32, 2 * EPOCHS as u32] {
        assert!(
            offline.iter().any(|e| e.metric == "bytes"
                && e.occurrence >= boundary
                && e.occurrence < boundary + bound),
            "offline replay must also flag the remesh at epoch {boundary}"
        );
    }
}

#[test]
fn drift_events_reach_trace_ring_and_recurrence_join() {
    let (trace, history, dump) = remeshing_run();
    // Trace: structured Drift events present.
    assert!(trace
        .iter()
        .any(|e| matches!(&e.kind, EventKind::Drift { label, .. } if label == "allgatherv/ring")));
    // Flight recorder: the dedicated drift ring survives into the dump.
    assert!(
        dump.lines().any(|l| l.contains("drift      ")),
        "flight recorder dump must show the drift ring"
    );
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
