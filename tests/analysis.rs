//! Integration checks on the trace-analysis engine against the paper's
//! Fig 14 outlier scenario (§4.2.1): rank 0 contributes a 32 KB block to
//! an 8-rank allgatherv, everyone else 8 bytes.
//!
//! The asymptotics must be visible in the extracted critical path: the
//! ring algorithm forwards the outlier through N−1 = 7 sequential hops
//! (Θ(N) message edges), recursive doubling through a binomial tree
//! (Θ(log N) = 3 rounds). This is the ISSUE's acceptance criterion and
//! the analyzer's raison d'être — the pathology *is* the path.

use nucomm::core::{AllgathervAlgorithm, Comm, MpiConfig};
use nucomm::simnet::{
    analysis_json, attribute_rounds, Cluster, ClusterConfig, HbGraph, Observers, SimTime,
    TraceEvent,
};

const RANKS: usize = 8;

fn outlier_allgatherv(algo: AllgathervAlgorithm) -> Vec<Vec<TraceEvent>> {
    let trace = Observers {
        trace: true,
        ..Observers::NONE
    };
    let cluster = Cluster::new(ClusterConfig::paper_testbed(RANKS).observe(trace));
    let run = cluster.try_run(move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::baseline());
        comm.barrier();
        comm.rank_mut().reset_clock();
        let _ = comm.rank_mut().harvest(); // trace from here on
        let me = comm.rank();
        let mut counts = vec![8usize; RANKS];
        counts[0] = 4096 * 8;
        let send = vec![me as u8; counts[me]];
        let mut recv = vec![0u8; counts.iter().sum()];
        comm.allgatherv_with(algo, &send, &counts, &mut recv);
    });
    run.unwrap().1.traces.expect("traced")
}

#[test]
fn ring_critical_path_has_theta_n_hops_recursive_doubling_theta_log_n() {
    let ring = outlier_allgatherv(AllgathervAlgorithm::Ring);
    let rd = outlier_allgatherv(AllgathervAlgorithm::RecursiveDoubling);

    let ring_graph = HbGraph::build(&ring);
    let rd_graph = HbGraph::build(&rd);
    assert!(ring_graph.unmatched_recvs().is_empty());
    assert!(rd_graph.unmatched_recvs().is_empty());

    let ring_path = ring_graph.critical_path();
    let rd_path = rd_graph.critical_path();

    // Θ(N): the outlier block crosses every one of the N−1 ring links,
    // each a binding message edge on the path.
    assert!(
        ring_path.message_hops >= RANKS - 1,
        "ring path must chain at least N-1 = {} hops, got {}",
        RANKS - 1,
        ring_path.message_hops
    );
    let ring_hops = ring_path
        .steps
        .iter()
        .filter(|s| s.via_message)
        .filter(|s| {
            s.op.as_deref()
                .is_some_and(|op| op.starts_with("allgatherv/ring"))
        })
        .count();
    assert!(
        ring_hops >= RANKS - 1,
        "the ring hops must be attributed to allgatherv/ring rounds"
    );

    // Θ(log N): recursive doubling needs log2(8) = 3 exchange rounds; the
    // path crosses one message edge per round (a little slop allowed for
    // jitter reordering, but nowhere near N).
    assert!(
        (1..=5).contains(&rd_path.message_hops),
        "recursive doubling should take ~log2(N) = 3 hops, got {}",
        rd_path.message_hops
    );
    assert!(ring_path.message_hops > rd_path.message_hops);

    // The ring's serialization costs real simulated time too.
    assert!(ring_path.makespan > rd_path.makespan);

    // Path sanity: ends monotone, makespan is the last end.
    for path in [&ring_path, &rd_path] {
        for w in path.steps.windows(2) {
            assert!(w[0].end <= w[1].end, "critical path ends must be monotone");
        }
        assert_eq!(path.steps.last().expect("nonempty").end, path.makespan);
    }
}

#[test]
fn ring_wait_attribution_dwarfs_recursive_doubling() {
    let ring = outlier_allgatherv(AllgathervAlgorithm::Ring);
    let rd = outlier_allgatherv(AllgathervAlgorithm::RecursiveDoubling);
    let ring_attr = attribute_rounds(&ring);
    let rd_attr = attribute_rounds(&rd);

    let ring_wait = ring_attr.total_wait("allgatherv/ring");
    let rd_wait = rd_attr.total_wait("allgatherv/recursive_doubling");
    assert!(ring_wait > SimTime::ZERO);
    assert!(
        ring_wait > rd_wait,
        "ring serialization must accumulate more wait-on-peer ({ring_wait} vs {rd_wait})"
    );

    // Every rank participated in all N-1 ring rounds.
    let per_rank = &ring_attr.per_op["allgatherv/ring"];
    assert_eq!(per_rank.len(), RANKS);
    for s in per_rank {
        assert_eq!(s.rounds as usize, RANKS - 1);
        assert!(s.msgs > 0 && s.bytes > 0);
    }

    // The analysis export is well-formed and carries both sections.
    let json = analysis_json(&HbGraph::build(&ring).critical_path(), &ring_attr);
    assert!(json.contains("\"message_hops\""));
    assert!(json.contains("\"op\":\"allgatherv/ring\""));
}

#[test]
fn analysis_is_deterministic_across_runs() {
    // Same seed, same schedule ⇒ byte-identical analysis JSON.
    let a = outlier_allgatherv(AllgathervAlgorithm::Ring);
    let b = outlier_allgatherv(AllgathervAlgorithm::Ring);
    let ja = analysis_json(&HbGraph::build(&a).critical_path(), &attribute_rounds(&a));
    let jb = analysis_json(&HbGraph::build(&b).critical_path(), &attribute_rounds(&b));
    assert_eq!(ja, jb);
}
