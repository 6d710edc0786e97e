//! End-to-end audit of collective algorithm selection: every
//! auto-selected `allgatherv`/`alltoallw` call leaves exactly one
//! [`AlgorithmDecision`] in the trace (pinned `_with` runs leave none),
//! and [`detect_misselections`] flags selections the measured
//! communication map contradicts.

use ncd_core::datatype::Datatype;
use ncd_core::{
    decisions_from_trace, detect_misselections, AlgorithmDecision, AllgathervAlgorithm, Comm,
    MpiConfig, WPeer,
};
use ncd_simnet::{Cluster, ClusterConfig, CostModel, Observers};

const TRACE: Observers = Observers {
    trace: true,
    ..Observers::NONE
};
const TRACE_AND_MAP: Observers = Observers {
    comm_map: true,
    ..TRACE
};

/// Nearest-neighbour alltoallw specs: 8 bytes to the successor, 8 bytes
/// from the predecessor, zero-volume slots everywhere else.
fn neighbor_specs(rank: usize, size: usize) -> (Vec<WPeer>, Vec<WPeer>) {
    let succ = (rank + 1) % size;
    let pred = (rank + size - 1) % size;
    let dt = Datatype::contiguous(8, &Datatype::byte()).unwrap();
    let empty = Datatype::contiguous(0, &Datatype::byte()).unwrap();
    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    for i in 0..size {
        if i == succ {
            sends.push(WPeer::new(0, 1, dt.clone()));
        } else {
            sends.push(WPeer::new(0, 0, empty.clone()));
        }
        if i == pred {
            recvs.push(WPeer::new(0, 1, dt.clone()));
        } else {
            recvs.push(WPeer::new(0, 0, empty.clone()));
        }
    }
    (sends, recvs)
}

#[test]
fn every_auto_call_emits_exactly_one_decision() {
    let n = 16usize;
    let mut outlier_counts = vec![8usize; n];
    outlier_counts[0] = 64 * 1024;
    let small_counts = vec![16usize; n];
    let cluster = Cluster::new(ClusterConfig::uniform(n).observe(TRACE));
    let (_, capture) = cluster
        .try_run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let me = comm.rank();

            let send = vec![1u8; outlier_counts[me]];
            let mut recv = vec![0u8; outlier_counts.iter().sum()];
            comm.allgatherv(&send, &outlier_counts, &mut recv);

            let send = vec![2u8; small_counts[me]];
            let mut recv = vec![0u8; small_counts.iter().sum()];
            comm.allgatherv(&send, &small_counts, &mut recv);
            // Pinned algorithm: the caller decided, so no audit record.
            comm.allgatherv_with(AllgathervAlgorithm::Ring, &send, &small_counts, &mut recv);

            let (sends, recvs) = neighbor_specs(me, n);
            let sendbuf = vec![me as u8; 8];
            let mut recvbuf = vec![0u8; 8];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
        })
        .unwrap();
    let traces = capture.traces.expect("traced");
    for (r, trace) in traces.iter().enumerate() {
        let ds: Vec<AlgorithmDecision> = decisions_from_trace(trace);
        assert_eq!(ds.len(), 3, "rank {r}: 3 auto calls, 3 decisions");
        assert!(ds.iter().all(|d| !d.reason.is_empty()), "rank {r}");
        assert!(ds.iter().all(|d| d.n == n && d.pow2), "rank {r}");

        assert_eq!(ds[0].collective, "allgatherv");
        assert_eq!(ds[0].chosen, "recursive_doubling");
        assert_eq!(ds[0].reason, "outliers: binomial movement");
        assert!((ds[0].outlier_ratio - 8192.0).abs() < 1e-9);

        assert_eq!(ds[1].collective, "allgatherv");
        assert_eq!(ds[1].chosen, "recursive_doubling");
        assert_eq!(ds[1].reason, "uniform small total: binomial latency path");

        assert_eq!(ds[2].collective, "alltoallw");
        assert_eq!(ds[2].chosen, "binned");
        assert_eq!(ds[2].total_bytes, 8);
    }
}

#[test]
fn forced_ring_over_outliers_is_flagged_as_misselection() {
    let n = 16usize;
    let mut counts = vec![8usize; n];
    counts[0] = 64 * 1024; // total >= long threshold => Baseline rings it
    let cluster = Cluster::new(ClusterConfig::uniform(n).observe(TRACE_AND_MAP));
    let (_, capture) = cluster
        .try_run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::baseline());
            let me = comm.rank();
            let send = vec![3u8; counts[me]];
            let mut recv = vec![0u8; counts.iter().sum()];
            comm.allgatherv(&send, &counts, &mut recv);
        })
        .unwrap();

    let decisions = decisions_from_trace(&capture.traces.expect("traced")[0]);
    assert_eq!(decisions.len(), 1);
    assert_eq!(decisions[0].chosen, "ring");
    assert_eq!(decisions[0].reason, "total >= long threshold");
    assert!((decisions[0].outlier_ratio - 8192.0).abs() < 1e-9);

    let merged = capture.comm_map.expect("mapped");
    assert!(
        merged
            .epochs
            .iter()
            .any(|e| e.label == "allgatherv/ring" && e.occurrence == 0),
        "the call closed a measured epoch"
    );

    let audit = detect_misselections(
        &decisions,
        Some(&merged),
        &CostModel::default(),
        &MpiConfig::baseline(),
    );
    let flags = &audit.flags;
    assert_eq!(flags.len(), 1, "the ring over outliers is a misselection");
    assert_eq!(flags[0].chosen, "ring");
    assert_eq!(flags[0].suggested, "recursive_doubling");
    assert!(
        flags[0].est_suggested_ns < flags[0].est_chosen_ns,
        "what-if: binomial {} ns beats ring {} ns",
        flags[0].est_suggested_ns,
        flags[0].est_chosen_ns
    );
    assert_eq!(
        (audit.unmatched_decisions, audit.unmatched_epochs),
        (0, 0),
        "same-run decision log and map join fully"
    );

    // The Optimized flavor's choice on the same volume set is clean.
    let clean = AlgorithmDecision {
        chosen: "recursive_doubling".to_string(),
        ..decisions[0].clone()
    };
    assert!(detect_misselections(
        &[clean],
        Some(&merged),
        &CostModel::default(),
        &MpiConfig::baseline()
    )
    .flags
    .is_empty());
}

#[test]
fn sparse_round_robin_is_flagged_from_the_measured_epoch() {
    let n = 8usize;
    let cluster = Cluster::new(ClusterConfig::uniform(n).observe(TRACE_AND_MAP));
    let (_, capture) = cluster
        .try_run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::baseline());
            let me = comm.rank();
            let (sends, recvs) = neighbor_specs(me, n);
            let sendbuf = vec![me as u8; 8];
            let mut recvbuf = vec![0u8; 8];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
        })
        .unwrap();
    let decisions = decisions_from_trace(&capture.traces.expect("traced")[0]);
    assert_eq!(decisions.len(), 1);
    assert_eq!(decisions[0].chosen, "round_robin");

    let merged = capture.comm_map.expect("mapped");
    let audit = detect_misselections(
        &decisions,
        Some(&merged),
        &CostModel::default(),
        &MpiConfig::baseline(),
    );
    assert_eq!(audit.flags.len(), 1);
    assert_eq!(audit.flags[0].suggested, "binned");
    assert!(audit.flags[0].detail.contains("zero bytes"));

    // Without the measured map there is no evidence to convict — and the
    // audit says exactly how much went unjoined.
    let no_map = detect_misselections(
        &decisions,
        None,
        &CostModel::default(),
        &MpiConfig::baseline(),
    );
    assert!(no_map.flags.is_empty());
    assert_eq!(no_map.unmatched_decisions, decisions.len());
}
