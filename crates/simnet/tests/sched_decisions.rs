//! Pins the scheduler's *decisions*, not only the results they lead to.
//!
//! Goldens and baselines prove that simulated time, traces and matrices
//! are unchanged; they cannot see whether the event loop got there by
//! the same sequence of parks and wakes. This test runs one fixed
//! program and compares the scheduler's own survey, and every rank's
//! final clock, against literals under both task backends.

use ncd_simnet::{Cluster, ClusterConfig, Rank, Tag, TaskBackend, DEPTH_BUCKETS};

/// A 16-rank ring exchange in both directions with rank-dependent
/// compute (blocking parks and deposit wakes), then an any-source gather
/// onto rank 0: rank 0 releases ranks 1..8 with a `GO` each and takes
/// their contributions with seven blocking wildcard receives, so the
/// gather's order follows the contributors' posting order.
fn program(r: &mut Rank) -> u64 {
    let (me, n) = (r.rank(), r.size());
    let (right, left) = ((me + 1) % n, (me + n - 1) % n);
    for i in 0..6u32 {
        r.compute_flops(25_000 * (me as u64 % 5 + 1));
        r.send_bytes(right, Tag(i), vec![i as u8; 128 * (me + 1)]);
        let (d, src) = r.recv_bytes(Some(left), Tag(i));
        assert_eq!((d.len(), src), (128 * (left + 1), left));
        r.send_bytes(left, Tag(i), vec![i as u8; 16]);
        let (d, src) = r.recv_bytes(Some(right), Tag(i));
        assert_eq!((d.len(), src), (16, right));
    }
    const GO: Tag = Tag(99);
    const GATHER: Tag = Tag(100);
    if me == 0 {
        for peer in 1..8 {
            r.send_bytes(peer, GO, Vec::new());
        }
        for _ in 1..8 {
            let (d, src) = r.recv_bytes(None, GATHER);
            assert_eq!(d, vec![src as u8; 64]);
        }
    } else if me < 8 {
        let _ = r.recv_bytes(Some(0), GO);
        r.compute_flops(40_000 * (8 - me as u64));
        r.send_bytes(0, GATHER, vec![me as u8; 64]);
    }
    r.now().as_ns()
}

#[test]
fn scheduling_decisions_match_the_recorded_survey() {
    let mut ready_depth_log2 = [0u64; DEPTH_BUCKETS];
    ready_depth_log2[..5].copy_from_slice(&[1, 2, 4, 109, 1]);
    let clocks: [u64; 16] = [
        951332, 935334, 904230, 874198, 844432, 813252, 782758, 808757, 800152, 804722, 800724,
        724658, 774839, 800873, 805265, 800117,
    ];
    for backend in [TaskBackend::default_for_target(), TaskBackend::Handoff] {
        let cfg = ClusterConfig::paper_testbed(16).with_task_backend(backend);
        let run = Cluster::new(cfg).try_run(program);
        let (out, s) = (run.results.expect("the program completes"), run.sched);
        assert_eq!(s.backend, backend.label());
        assert_eq!(
            (
                s.resumes,
                s.parks_blocked,
                s.deposit_wakes,
                s.max_mailbox_depth
            ),
            (117, 101, 101, 7),
            "{backend:?}"
        );
        assert_eq!(s.ready_depth_log2, ready_depth_log2, "{backend:?}");
        assert_eq!(out, clocks, "{backend:?}");
    }
}
