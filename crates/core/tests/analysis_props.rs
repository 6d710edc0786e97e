//! Property-based tests of the happens-before graph builder and
//! critical-path extractor over *random* alltoallw workloads: arbitrary
//! sparse/zero-containing volume matrices, both schedules.
//!
//! Invariants (ISSUE 2 satellite):
//! 1. Every traced receive has a matching send edge — the correlation ids
//!    stamped by the runtime pair up exactly when all ranks trace.
//! 2. The critical path is monotone in simulated time (event *end* times
//!    never decrease along the path; starts need not be monotone — a
//!    sender can start after its blocked receiver did).
//! 3. The path terminates at the makespan and crosses a message edge only
//!    where the receive actually blocked.

use ncd_core::{AlltoallwSchedule, Comm, MpiConfig, WPeer};
use ncd_datatype::Datatype;
use ncd_simnet::{Cluster, ClusterConfig, EventKind, HbGraph, Observers, SimTime, TraceEvent};
use proptest::prelude::*;

/// Run a traced alltoallw with per-(src,dst) volumes from a flat matrix.
fn traced_alltoallw(
    n: usize,
    vols: std::sync::Arc<Vec<usize>>,
    schedule: AlltoallwSchedule,
) -> Vec<Vec<TraceEvent>> {
    let trace = Observers {
        trace: true,
        ..Observers::NONE
    };
    let cluster = Cluster::new(ClusterConfig::paper_testbed(n).observe(trace));
    let (_, capture) = cluster
        .try_run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            let me = comm.rank();
            let vol = |src: usize, dst: usize| vols[src * 6 + dst];
            let dt = Datatype::double();
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for j in 0..n {
                let contig = Datatype::contiguous(1, &dt).expect("contig");
                sends.push(WPeer::new(j * 48, vol(me, j), contig.clone()));
                recvs.push(WPeer::new(j * 48, vol(j, me), contig));
            }
            let sendbuf = vec![me as u8; n * 48];
            let mut recvbuf = vec![0u8; n * 48];
            comm.alltoallw_with(schedule, &sendbuf, &sends, &mut recvbuf, &recvs);
        })
        .unwrap();
    capture.traces.expect("traced")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_recv_has_a_matching_send_and_path_is_monotone(
        n in 2usize..7,
        vols in proptest::collection::vec(0usize..6, 36),
        binned in any::<bool>(),
    ) {
        let schedule = if binned {
            AlltoallwSchedule::Binned
        } else {
            AlltoallwSchedule::RoundRobin
        };
        let traces = traced_alltoallw(n, std::sync::Arc::new(vols), schedule);
        let graph = HbGraph::build(&traces);

        // (1) Complete matching: every recv pairs with the exact send that
        // produced it, and the pair agrees on byte count.
        prop_assert!(graph.unmatched_recvs().is_empty());
        for (rank, events) in traces.iter().enumerate() {
            for (i, e) in events.iter().enumerate() {
                if let EventKind::Recv { src, bytes, .. } = &e.kind {
                    let send = graph.matching_send((rank, i)).expect("matched");
                    prop_assert_eq!(send.0, *src);
                    match &graph.event(send).kind {
                        EventKind::Send { dst, bytes: sb, .. } => {
                            prop_assert_eq!(*dst, rank);
                            prop_assert_eq!(sb, bytes);
                        }
                        other => prop_assert!(false, "send node is {other:?}"),
                    }
                }
            }
        }

        // (2) + (3) Path invariants.
        let path = graph.critical_path();
        prop_assert!(!path.steps.is_empty());
        for w in path.steps.windows(2) {
            prop_assert!(
                w[0].end <= w[1].end,
                "critical path must be monotone in end time: {:?} then {:?}",
                w[0], w[1]
            );
        }
        let last = path.steps.last().expect("nonempty");
        prop_assert_eq!(last.end, path.makespan);
        let global_max = traces
            .iter()
            .flatten()
            .map(|e| e.end)
            .max()
            .unwrap_or(SimTime::ZERO);
        prop_assert_eq!(path.makespan, global_max);

        // Message edges appear exactly where a receive blocked, and the
        // hop count tallies them.
        let mut hops = 0;
        for s in &path.steps {
            if s.via_message {
                hops += 1;
                prop_assert!(s.wait > SimTime::ZERO, "hop without blocking: {s:?}");
            }
        }
        prop_assert_eq!(hops, path.message_hops);
    }
}
