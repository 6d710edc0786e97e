//! Conservation property of the communication map: the merged matrix's
//! per-pair byte totals must exactly equal the bytes the mailbox actually
//! delivered, message by message, under random alltoallw volume matrices
//! (both schedules) and random scatterv part sizes. The receiver-side
//! accounting makes this exact — every delivery funnels through
//! `complete_recv_msg`, which is also where `Stats::bytes_recvd` counts.

use ncd_core::{AlltoallwSchedule, Comm, MpiConfig, WPeer};
use ncd_datatype::Datatype;
use ncd_simnet::{Cluster, ClusterConfig, Observers};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merged_matrix_conserves_delivered_bytes(
        n in 2usize..7,
        // Per-(src,dst) element counts, 0..6 doubles, flattened over a
        // 6x6 grid (extra rows/cols unused for smaller n).
        vols in proptest::collection::vec(0usize..6, 36),
        binned in any::<bool>(),
        root_pick in 0usize..6,
        parts in proptest::collection::vec(0usize..50, 6),
    ) {
        let root = root_pick % n;
        let schedule = if binned {
            AlltoallwSchedule::Binned
        } else {
            AlltoallwSchedule::RoundRobin
        };
        let vols = std::sync::Arc::new(vols);
        let parts = std::sync::Arc::new(parts);
        let comm_map = Observers {
            comm_map: true,
            ..Observers::NONE
        };
        let (out, capture) = Cluster::new(ClusterConfig::uniform(n).observe(comm_map))
            .try_run({
                let vols = vols.clone();
                let parts = parts.clone();
                move |rank| {
                    let mut comm = Comm::new(rank, MpiConfig::optimized());
                    let me = comm.rank();
                    let vol = |src: usize, dst: usize| vols[src * 6 + dst];

                    // Random alltoallw: slot j at offset j*48 bytes.
                    let dt = Datatype::double();
                    let mut sends = Vec::new();
                    let mut recvs = Vec::new();
                    for j in 0..n {
                        sends.push(WPeer::new(j * 48, vol(me, j), dt.clone()));
                        recvs.push(WPeer::new(j * 48, vol(j, me), dt.clone()));
                    }
                    let sendbuf = vec![7u8; n * 48];
                    let mut recvbuf = vec![0u8; n * 48];
                    comm.alltoallw_with(schedule, &sendbuf, &sends, &mut recvbuf, &recvs);

                    // Random scatterv from the root.
                    let chunks: Vec<Vec<u8>> =
                        (0..n).map(|r| vec![r as u8; parts[r]]).collect();
                    let spec = if me == root { Some(&chunks[..]) } else { None };
                    let got = comm.scatterv(spec, root);
                    assert_eq!(got.len(), parts[me]);

                    let stats = comm.rank_ref().stats();
                    (stats.bytes_recvd, stats.msgs_recvd)
                }
            })
            .unwrap();
        let merged = capture.comm_map.expect("mapped");

        // Column r of the merged matrix is exactly what rank r's mailbox
        // delivered — bytes and message counts alike.
        for (r, &(bytes, msgs)) in out.iter().enumerate() {
            prop_assert_eq!(merged.total.col_bytes(r), bytes, "rank {} bytes", r);
            let col_msgs: u64 = (0..n).map(|s| merged.total.msgs(s, r)).sum();
            prop_assert_eq!(col_msgs, msgs, "rank {} msgs", r);
        }
        let delivered: u64 = out.iter().map(|&(b, _)| b).sum();
        prop_assert_eq!(merged.total.total_bytes(), delivered);

        // The alltoallw epoch reproduces the generated volume matrix on
        // the off-diagonal (self exchanges never touch the mailbox).
        let label = format!("alltoallw/{}", if binned { "binned" } else { "round_robin" });
        let epoch = merged
            .epochs
            .iter()
            .find(|e| e.label == label && e.occurrence == 0)
            .expect("alltoallw epoch captured");
        for src in 0..n {
            for dst in 0..n {
                let expect = if src == dst {
                    0
                } else {
                    (vols[src * 6 + dst] * 8) as u64
                };
                prop_assert_eq!(
                    epoch.matrix.bytes(src, dst),
                    expect,
                    "pair ({}, {})",
                    src,
                    dst
                );
            }
        }

        // The scatterv epoch boundary was never closed (scatterv is not an
        // audited collective), so its traffic sits in the residual tail:
        // totals minus all closed epochs.
        let closed: u64 = merged.epochs.iter().map(|e| e.matrix.total_bytes()).sum();
        let scatter_bytes: u64 = (0..n)
            .filter(|&r| r != root)
            .map(|r| parts[r] as u64)
            .sum();
        prop_assert_eq!(merged.total.total_bytes() - closed, scatter_bytes);
    }
}
