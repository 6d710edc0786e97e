//! Extension study: watching communication **drift** through an
//! AMR-style remeshing run.
//!
//! The paper's workloads are nonuniform but *stationary* — the outlier
//! pattern of one allgatherv call looks like the next. Adaptive mesh
//! refinement breaks that: every remesh moves the refined region, so the
//! per-process volume set (and with it the right algorithm choice) shifts
//! mid-run. This bench drives a synthetic remeshing schedule — three
//! regimes, each ending in an injected remesh that relocates and deepens
//! the refinement hotspot — through a pinned-ring allgatherv boundary
//! exchange, with the epoch history and online drift monitor armed.
//!
//! What the temporal layer must show (and this bench asserts):
//!
//! * every injected remesh fires a [`DriftEvent`] on the volume or skew
//!   series within the detector's warmup bound of the boundary epoch;
//! * the pattern-recurrence join sees each regime's hash recur while the
//!   regimes stay put, so recurrence stability drops as remeshes pile up.
//!
//! The per-regime step latencies are gated against the committed
//! reference run with `--compare benches/baselines/observatory`.

use ncd_bench::{report, BenchCli, RunCapture, Series, OBSERVATORY};
use ncd_core::{
    drift_events_from_trace, pattern_recurrence, AllgathervAlgorithm, Comm, DriftConfig,
    DriftEvent, MpiConfig,
};
use ncd_simnet::{Cluster, ClusterConfig, SimTime};

const BASE_DOUBLES: usize = 16;

/// One stationary stretch of the run: a refinement hotspot (or a uniform
/// mesh) held for `epochs` boundary exchanges. The transition *into* a
/// regime is the injected remesh.
#[derive(Clone, Copy)]
struct Regime {
    epochs: usize,
    /// Hotspot rank as a fraction of the communicator (None = uniform).
    spot_frac: Option<(usize, usize)>,
    depth: u32,
}

fn regimes(epochs: usize) -> [Regime; 3] {
    [
        Regime {
            epochs,
            spot_frac: None,
            depth: 0,
        },
        // First remesh: refine around n/3, two levels deep.
        Regime {
            epochs,
            spot_frac: Some((1, 3)),
            depth: 2,
        },
        // Second remesh: the front moves to 2n/3 and deepens.
        Regime {
            epochs,
            spot_frac: Some((2, 3)),
            depth: 3,
        },
    ]
}

fn level(rank: usize, spot: usize, n: usize, depth: u32) -> u32 {
    let d = rank.abs_diff(spot).min(n - rank.abs_diff(spot));
    depth.saturating_sub(d as u32)
}

/// Per-rank boundary payload in bytes under the regime's mesh.
fn counts_for(n: usize, r: &Regime) -> Vec<usize> {
    (0..n)
        .map(|rank| {
            let lvl = match r.spot_frac {
                None => 0,
                Some((num, den)) => level(rank, n * num / den, n, r.depth),
            };
            (BASE_DOUBLES << (2 * lvl)) * 8
        })
        .collect()
}

/// The whole remeshing run under every observer (no warm-up: the first
/// regime is part of the story). Returns the per-regime step latencies,
/// the drift events the online monitor fired, and the capture.
fn run(nranks: usize, epochs: usize) -> (Vec<SimTime>, Vec<DriftEvent>, RunCapture) {
    let cluster = ClusterConfig::paper_testbed(nranks).observe(OBSERVATORY);
    let run = Cluster::new(cluster).try_run(|rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let me = comm.rank();
        let n = comm.size();
        // Per-regime clock marks, so the report shows the cost shift the
        // drift detector is flagging.
        let mut marks = Vec::new();
        let mut last = comm.rank_ref().now();
        for regime in regimes(epochs) {
            let counts = counts_for(n, &regime);
            let total: usize = counts.iter().sum();
            for _ in 0..regime.epochs {
                let send = vec![me as u8; counts[me]];
                let mut recv = vec![0u8; total];
                // Pinned ring: the subject here is the *traffic* shifting
                // under a fixed algorithm, not the selector.
                comm.allgatherv_with(AllgathervAlgorithm::Ring, &send, &counts, &mut recv);
            }
            let now = comm.rank_ref().now();
            marks.push(SimTime::from_ns(
                (now.as_ns() - last.as_ns()) / regime.epochs as u64,
            ));
            last = now;
        }
        marks
    });
    let (sched, recorders) = (run.sched.clone(), run.recorders.clone());
    let (out, capture) = run.unwrap();
    let marks = (0..out[0].len())
        .map(|i| out.iter().map(|m| m[i]).max().expect("nonempty"))
        .collect();
    let capture = RunCapture {
        capture,
        sched: Some(sched),
        recorders,
        ..RunCapture::default()
    };
    // SPMD: every rank's monitor fires identically; the first rank that
    // saw any event stands for the run.
    let drift = capture
        .capture
        .traces
        .iter()
        .flatten()
        .map(|trace| drift_events_from_trace(trace))
        .find(|events| !events.is_empty())
        .unwrap_or_default();
    (marks, drift, capture)
}

fn main() {
    let cli = BenchCli::parse();
    let (nranks, epochs) = if cli.smoke { (16, 8) } else { (64, 12) };

    let (marks, drift, mut capture) = run(nranks, epochs);
    let mut lat = Series::new("step-latency");
    for (i, t) in marks.iter().enumerate() {
        lat.push(format!("regime{i}"), t.as_us());
    }
    let series = vec![lat];
    // The report is about the history; the traces (and the diagnosis
    // section they would add) are for the ledger only.
    let traces = capture.capture.traces.take();
    report(
        &cli,
        "ext_drift",
        "regime",
        &format!("time per exchange step (usec), {nranks} ranks, pinned ring"),
        &series,
        &capture,
    );

    // Every injected remesh (the entry into regimes 1 and 2) must be
    // flagged within the detector's re-warm bound of the boundary epoch.
    let bound = DriftConfig::default().warmup + 1;
    for (i, boundary) in [epochs as u32, 2 * epochs as u32].iter().enumerate() {
        let hit = drift
            .iter()
            .find(|e| e.occurrence >= *boundary && e.occurrence < boundary + bound);
        assert!(
            hit.is_some(),
            "remesh {} at epoch {boundary} not flagged within {bound} epochs; events: {drift:?}",
            i + 1
        );
    }
    println!(
        "\ninjected remeshes: 2, drift events fired: {} (detection bound {bound} epochs)",
        drift.len()
    );

    // Recurrence: three stationary regimes → exactly three distinct
    // pattern hashes on the ring series, dominant recurring every epoch
    // of its regime.
    let rec = pattern_recurrence(capture.capture.history.as_ref().expect("history observed"));
    let ring = rec
        .iter()
        .find(|r| r.label == "allgatherv/ring")
        .expect("ring series present");
    assert_eq!(
        (ring.epochs, ring.distinct),
        (3 * epochs, 3),
        "one pattern hash per regime"
    );
    assert_eq!(ring.dominant_count, epochs);

    // Observatory pass: the drift run is already fully traced (the
    // detector feeds off the trace), so ledgering it costs nothing extra.
    // The epoch history rides along, letting the differential flag a
    // regime whose step latency drifted between commits.
    if cli.wants_observatory() {
        let knobs = vec![
            ("ranks".to_string(), nranks.to_string()),
            ("epochs_per_regime".to_string(), epochs.to_string()),
            ("regimes".to_string(), "3".to_string()),
            ("algorithm".to_string(), "ring-pinned".to_string()),
        ];
        capture.capture.traces = traces;
        cli.observatory("ext_drift", &knobs, &series, &["step-latency"], &capture);
    }
}
