//! Watching traffic drift: the epoch time series, the online drift
//! monitor, and the pattern-recurrence join on a remeshing workload.
//!
//! The comm-map example (`examples/comm_matrix.rs`) shows *where* the
//! bytes go; this one shows *when that changes*. A 16-rank cluster runs
//! an AMR-style boundary exchange whose mesh is remeshed twice mid-run —
//! the refinement hotspot appears at rank 5, then jumps to rank 10 and
//! deepens — while the per-communicator epoch history records one point
//! per collective call (volume, skew, algorithm, and an order-invariant
//! pattern hash of the receive-length vector). The run then prints:
//!
//! * the sparkline dashboard of every epoch series (bytes and Gini over
//!   time, last volume, distinct patterns);
//! * the regime shifts the online EWMA/CUSUM monitor fired — mirrored
//!   into the trace, the metrics registry, and the flight recorder's
//!   dedicated drift ring as they happened;
//! * the pattern-recurrence table: each regime's hash recurs while the
//!   mesh stays put, so three regimes leave exactly three distinct
//!   patterns on the series.
//!
//! Run with: `cargo run --release --example drift_watch`

use nucomm::core::{
    drift_events_from_trace, pattern_recurrence, render_drift_events, render_recurrence,
    AllgathervAlgorithm, Comm, MpiConfig, DRIFT_DETECTION_BOUND,
};
use nucomm::simnet::{
    history_json, history_report, render_dump, write_artifact, Cluster, ClusterConfig, Observers,
};

const RANKS: usize = 16;
/// Epochs per stationary regime; the remeshes land at epoch boundaries
/// EPOCHS and 2*EPOCHS.
const EPOCHS: usize = 8;

/// Refinement level of `rank` under a hotspot at `spot`.
fn level(rank: usize, spot: usize, depth: u32) -> u32 {
    let d = rank.abs_diff(spot).min(RANKS - rank.abs_diff(spot));
    depth.saturating_sub(d as u32)
}

/// Per-rank boundary payload (bytes) for one regime of the run.
fn counts(spot: Option<usize>, depth: u32) -> Vec<usize> {
    (0..RANKS)
        .map(|r| {
            let lvl = spot.map_or(0, |s| level(r, s, depth));
            (16usize << (2 * lvl)) * 8
        })
        .collect()
}

fn main() {
    // (spot, depth) per regime: uniform, refine at 5, remesh to 10 deeper.
    let regimes = [(None, 0u32), (Some(5), 2), (Some(10), 3)];
    let observers = Observers {
        trace: true,
        history: true,
        ..Observers::NONE
    };
    let cluster = ClusterConfig::paper_testbed(RANKS).observe(observers);
    let run = Cluster::new(cluster).try_run(move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let me = comm.rank();
        for (spot, depth) in regimes {
            let counts = counts(spot, depth);
            let total: usize = counts.iter().sum();
            for _ in 0..EPOCHS {
                let send = vec![me as u8; counts[me]];
                let mut recv = vec![0u8; total];
                // Pinned ring: the subject is the traffic shifting under a
                // fixed algorithm, not the selector.
                comm.allgatherv_with(AllgathervAlgorithm::Ring, &send, &counts, &mut recv);
            }
        }
    });
    let recorders = run.recorders.clone();
    let (_, capture) = run.unwrap();

    // --- The epoch time series -------------------------------------------
    let merged = capture.history.expect("history");
    print!("{}", history_report(&merged));

    // --- Drift events the online monitor fired ----------------------------
    let drift = drift_events_from_trace(&capture.traces.expect("traced")[0]);
    print!("\n{}", render_drift_events(&drift));
    let bound = DRIFT_DETECTION_BOUND;
    for boundary in [EPOCHS as u32, 2 * EPOCHS as u32] {
        assert!(
            drift
                .iter()
                .any(|e| e.occurrence >= boundary && e.occurrence < boundary + bound),
            "remesh at epoch {boundary} must be flagged within {bound} epochs"
        );
    }

    // The same events survive in the flight recorder's drift ring, immune
    // to main-ring eviction — this is what a post-mortem dump shows.
    let dump = render_dump(&recorders);
    let drift_lines: Vec<&str> = dump
        .lines()
        .filter(|l| l.contains("drift      "))
        .take(8)
        .collect();
    println!("\nflight recorder drift ring (first ranks):");
    for l in &drift_lines {
        println!("  {l}");
    }
    assert!(!drift_lines.is_empty(), "drift ring must hold the shifts");

    // --- Pattern recurrence ------------------------------------------------
    let rec = pattern_recurrence(&merged);
    print!("\n{}", render_recurrence(&rec));
    assert_eq!(rec[0].distinct, 3, "one pattern hash per regime");

    // The byte-stable export (golden-tested in the simnet crate).
    let json = history_json(&merged);
    let path = "target/analysis/drift_watch.history.json";
    write_artifact(path, &json).expect("write history");
    println!("\nwrote {path} ({} bytes)", json.len());
}
