//! Who talks to whom: the communication-topology map and the
//! algorithm-decision audit on the AMR-skew workload.
//!
//! The paper's second half is about *nonuniform communication volumes*;
//! this example makes them visible. An AMR-style moving refinement
//! hotspot (see `examples/amr_skew.rs`) runs its boundary exchanges under
//! the baseline flavor with the comm map and tracing enabled, plus one
//! nonuniform allgatherv whose volume set carries a 64 KB outlier. The
//! run then prints:
//!
//! * the cluster-wide src×dst byte matrix as a log₂-shaded ASCII heatmap,
//!   with nonuniformity analytics (outlier ratio, spread, Gini) and the
//!   hottest pairs;
//! * the algorithm-decision log — one audited record per auto-selected
//!   `allgatherv`/`alltoallw` call, with the evidence and stated reason;
//! * the misselections the measured traffic convicts: the baseline rings
//!   the outlier allgatherv (O(N) serial hops) and round-robins the
//!   sparse neighbour exchange (zero-byte synchronization with every
//!   peer), and the detector flags both with a cost-model what-if.
//!
//! Run with: `cargo run --release --example comm_matrix`

use nucomm::core::{
    analyze_comm_map, decisions_from_trace, detect_misselections, render_decision_log, Comm,
    MpiConfig, WPeer,
};
use nucomm::datatype::Datatype;
use nucomm::simnet::{
    comm_matrix_json, render_heatmap, write_artifact, Cluster, ClusterConfig, CostModel, Observers,
};

const RANKS: usize = 16;
const STEPS: usize = 8;

/// Refinement level of `rank` when the hotspot is at `spot`: level 2 at
/// the hotspot, 1 beside it, 0 elsewhere.
fn level(rank: usize, spot: usize) -> u32 {
    let d = rank.abs_diff(spot).min(RANKS - rank.abs_diff(spot));
    match d {
        0 => 2,
        1 => 1,
        _ => 0,
    }
}

fn main() {
    let cfg = MpiConfig::baseline();
    let observers = Observers {
        trace: true,
        comm_map: true,
        ..Observers::NONE
    };
    let cluster = ClusterConfig::paper_testbed(RANKS).observe(observers);
    let (_, capture) = Cluster::new(cluster)
        .try_run(|rank| {
            let mut comm = Comm::new(rank, cfg.clone());
            let me = comm.rank();
            let n = comm.size();

            // AMR boundary exchanges: sparse nearest-neighbour alltoallw,
            // refined boundaries carrying 4x the data per level.
            for step in 0..STEPS {
                let spot = (step * 3) % n;
                let succ = (me + 1) % n;
                let pred = (me + n - 1) % n;
                let cells = 16usize << (2 * level(me, spot));
                let dt = Datatype::contiguous(cells, &Datatype::double()).expect("boundary");
                let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty");
                let mut sends: Vec<WPeer> =
                    (0..n).map(|_| WPeer::new(0, 0, empty.clone())).collect();
                let mut recvs = sends.clone();
                sends[succ] = WPeer::new(0, 1, dt.clone());
                sends[pred] = WPeer::new(0, 1, dt.clone());
                let sc = 16usize << (2 * level(succ, spot));
                let pc = 16usize << (2 * level(pred, spot));
                recvs[succ] = WPeer::new(
                    0,
                    1,
                    Datatype::contiguous(sc, &Datatype::double()).expect("succ"),
                );
                recvs[pred] = WPeer::new(
                    sc * 8,
                    1,
                    Datatype::contiguous(pc, &Datatype::double()).expect("pred"),
                );
                let sendbuf = vec![me as u8; cells * 8];
                let mut recvbuf = vec![0u8; (sc + pc) * 8];
                comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
            }

            // One nonuniform allgatherv: rank 0 contributes 64 KB, the
            // rest 8 bytes. The baseline's total-size rule picks the ring.
            let mut counts = vec![8usize; n];
            counts[0] = 64 * 1024;
            let send = vec![me as u8; counts[me]];
            let mut recv = vec![0u8; counts.iter().sum()];
            comm.allgatherv(&send, &counts, &mut recv);
        })
        .unwrap();

    println!(
        "AMR-skew workload under MpiFlavor::Baseline: {RANKS} ranks, {STEPS} boundary \
         exchanges + 1 outlier allgatherv\n"
    );

    // --- Who talks to whom -------------------------------------------------
    let merged = capture.comm_map.expect("mapped");
    println!("{}", render_heatmap(&merged.total));
    let (total, epochs) = analyze_comm_map(&merged, 4);
    let total = total.expect("traffic present");
    println!(
        "pairs={} max={} B min={} B outlier-ratio={:.1} gini={:.3}",
        total.pairs, total.max_bytes, total.min_bytes, total.outlier_ratio, total.gini
    );
    print!("hot pairs:");
    for (s, d, b) in &total.top {
        print!(" {s}->{d}:{b}B");
    }
    println!("  (the ring smears rank 0's 64 KB block across every link)\n");

    println!("per-epoch nonuniformity (one epoch per collective call):");
    for e in epochs.iter().take(3) {
        println!(
            "  {:<24} pairs={:>3} outlier-ratio={:>6.1} gini={:.3}",
            format!("{}#{}", e.label, e.occurrence),
            e.analysis.pairs,
            e.analysis.outlier_ratio,
            e.analysis.gini
        );
    }
    println!("  ... ({} epochs total)\n", epochs.len());

    // --- The decision audit ------------------------------------------------
    let decisions = decisions_from_trace(&capture.traces.expect("traced")[0]);
    println!("algorithm decisions (rank 0):");
    print!("{}", render_decision_log(&decisions));

    // --- Misselections -----------------------------------------------------
    let audit = detect_misselections(&decisions, Some(&merged), &CostModel::default(), &cfg);
    let flags = &audit.flags;
    println!(
        "\nmisselections (measured traffic vs chosen algorithm, \
         {} unjoined decisions / {} orphan epochs):",
        audit.unmatched_decisions, audit.unmatched_epochs
    );
    for f in flags {
        println!(
            "  {}#{}: chose {}, suggest {} — {} (est {:.0} us -> {:.0} us)",
            f.collective,
            f.occurrence,
            f.chosen,
            f.suggested,
            f.detail,
            f.est_chosen_ns / 1000.0,
            f.est_suggested_ns / 1000.0
        );
    }
    assert!(
        flags.iter().any(|f| f.chosen == "ring"),
        "the ringed outlier allgatherv must be flagged"
    );
    assert!(
        flags.iter().any(|f| f.chosen == "round_robin"),
        "the sparse round-robin alltoallw must be flagged"
    );

    // The raw matrix exports byte-stable JSON (golden-tested).
    let json = comm_matrix_json(&merged);
    let path = "target/figures/comm_matrix.json";
    write_artifact(path, &json).expect("write comm matrix");
    println!("\nwrote {path} ({} bytes)", json.len());
}
