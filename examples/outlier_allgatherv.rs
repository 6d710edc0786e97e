//! Nonuniform allgatherv: watch the optimized implementation detect an
//! outlier in the communication-volume set and switch algorithms.
//!
//! One rank contributes a large message while everyone else contributes a
//! single double — the workload of the paper's Figure 14. The baseline
//! picks the ring algorithm from the *total* volume and serializes the
//! large message across O(N) hops; the optimized implementation runs the
//! paper's outlier-ratio test (two linear-time Floyd–Rivest selections)
//! and moves the outlier along a binomial tree instead.
//!
//! Run with: `cargo run --release --example outlier_allgatherv`

use nucomm::core::{detect_outliers, Comm, MpiConfig, VolumeShape};
use nucomm::simnet::volume::OUTLIER_FRACTION;
use nucomm::simnet::{Cluster, ClusterConfig, SimTime};

fn gather(nprocs: usize, outlier_bytes: usize, cfg: MpiConfig) -> (SimTime, String) {
    let out = Cluster::new(ClusterConfig::uniform(nprocs)).run(|rank| {
        let mut comm = Comm::new(rank, cfg.clone());
        let mut counts = vec![8usize; nprocs];
        counts[0] = outlier_bytes;
        let algo = comm.allgatherv_choose(&counts);
        let me = comm.rank();
        let send = vec![me as u8; counts[me]];
        let mut recv = vec![0u8; counts.iter().sum()];
        comm.barrier();
        comm.rank_mut().reset_clock();
        comm.allgatherv(&send, &counts, &mut recv);
        // Verify: every block holds its sender's rank byte.
        let mut off = 0;
        for (r, &c) in counts.iter().enumerate() {
            assert!(recv[off..off + c].iter().all(|&b| b == r as u8));
            off += c;
        }
        (comm.rank_ref().now(), format!("{algo:?}"))
    });
    let t = out.iter().map(|(t, _)| *t).max().expect("nonempty");
    (t, out[0].1.clone())
}

fn main() {
    let n = 64;
    let outlier = 32 * 1024;

    let mut vols = vec![8usize; n];
    vols[0] = outlier;
    let shape = detect_outliers(&vols, OUTLIER_FRACTION, 8.0);
    let ranks = n - 1;
    println!("volume set: one rank at {outlier} B, {ranks} ranks at 8 B -> {shape:?}");
    assert_eq!(shape, VolumeShape::Outliers);

    let (tb, algo_b) = gather(n, outlier, MpiConfig::baseline());
    let (tn, algo_n) = gather(n, outlier, MpiConfig::optimized());
    println!("baseline  (MVAPICH2-0.9.5): {algo_b:<18} {tb}");
    println!("optimized (MVAPICH2-New)  : {algo_n:<18} {tn}");
    println!(
        "improvement: {:.1}%",
        100.0 * (tb.as_ns() as f64 - tn.as_ns() as f64) / tb.as_ns() as f64
    );

    // Uniform volumes: both flavors agree the ring is right.
    let (tu_b, algo_ub) = gather(n, 8, MpiConfig::baseline());
    let (tu_n, algo_un) = gather(n, 8, MpiConfig::optimized());
    println!("\nuniform volumes: baseline {algo_ub} ({tu_b}), optimized {algo_un} ({tu_n})");
}
