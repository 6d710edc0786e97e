//! Differential proof for the task backends: the same workloads produce
//! byte-identical observability artifacts whether ranks are carried by
//! the hand-written fiber switch or by the portable condvar baton.
//!
//! Simulated time, message matching, and every recorded artifact are
//! supposed to be functions of the *simulation* alone, not of who runs
//! it. These tests run the fig14 / fig15 / ext_overlap workload shapes
//! under `TaskBackend::Fiber` and `TaskBackend::Handoff` and assert the
//! makespan, the chrome trace export, the communication matrix, and the
//! wait-state diagnosis JSON agree byte for byte. Off x86-64 unix there
//! is no fiber backend; the workloads then run under the baton alone.

use ncd_bench::{time_phase, OBSERVATORY};
use ncd_core::{Comm, MpiConfig, WPeer};
use ncd_datatype::Datatype;
use ncd_petsc::{DistributedArray, ScatterBackend, StencilKind};
use ncd_simnet::{
    chrome_trace_json, comm_matrix_json, diagnosis_json, ClusterConfig, SimTime, TaskBackend,
};

/// Run `body` under one backend and collapse the observable artifacts to
/// comparable byte strings.
fn artifacts<F>(
    cfg: ClusterConfig,
    backend: TaskBackend,
    body: F,
) -> (SimTime, String, String, String)
where
    F: Fn(&mut Comm, usize) + Send + Sync,
{
    let run = time_phase(
        cfg.with_task_backend(backend).observe(OBSERVATORY),
        MpiConfig::optimized(),
        2,
        body,
    );
    let trace = chrome_trace_json(run.capture.traces.as_ref().expect("traced"));
    let matrix = comm_matrix_json(run.capture.comm_map.as_ref().expect("comm map observed"));
    let diag = diagnosis_json(&run.diagnosis().expect("traced"));
    (run.time, trace, matrix, diag)
}

fn assert_backends_agree<F>(name: &str, cfg: ClusterConfig, body: F)
where
    F: Fn(&mut Comm, usize) + Send + Sync + Clone,
{
    let (th, trace_h, matrix_h, diag_h) =
        artifacts(cfg.clone(), TaskBackend::Handoff, body.clone());
    assert!(th > SimTime::ZERO, "{name}: workload did no simulated work");
    assert!(
        trace_h.matches("\"ph\"").count() > 10,
        "{name}: trace export is vacuously small"
    );
    if cfg!(all(target_arch = "x86_64", unix)) {
        let (tf, trace_f, matrix_f, diag_f) = artifacts(cfg, TaskBackend::Fiber, body);
        assert_eq!(tf, th, "{name}: makespan differs across backends");
        assert_eq!(trace_f, trace_h, "{name}: chrome trace differs");
        assert_eq!(matrix_f, matrix_h, "{name}: comm matrix differs");
        assert_eq!(diag_f, diag_h, "{name}: diagnosis differs");
    }
}

/// fig14's workload: allgatherv where rank 0 contributes a 32 KB outlier
/// and everyone else a single double.
#[test]
fn fig14_allgatherv_is_backend_invariant() {
    assert_backends_agree("fig14", ClusterConfig::uniform(16), |comm: &mut Comm, _| {
        let mut counts = vec![8usize; comm.size()];
        counts[0] = 4096 * 8;
        let me = comm.rank();
        let send = vec![me as u8; counts[me]];
        let mut recv = vec![0u8; counts.iter().sum()];
        comm.allgatherv(&send, &counts, &mut recv);
    });
}

/// fig15's workload: nearest-neighbour alltoallw ring exchange on the
/// heterogeneous paper testbed (the skew-sensitive case).
#[test]
fn fig15_alltoallw_is_backend_invariant() {
    assert_backends_agree(
        "fig15",
        ClusterConfig::paper_testbed(8),
        |comm: &mut Comm, _| {
            let me = comm.rank();
            let n = comm.size();
            let succ = (me + 1) % n;
            let pred = (me + n - 1) % n;
            let matrix = Datatype::contiguous(100, &Datatype::double()).expect("matrix type");
            let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty");
            let mut sends: Vec<WPeer> = (0..n).map(|_| WPeer::new(0, 0, empty.clone())).collect();
            let mut recvs = sends.clone();
            sends[succ] = WPeer::new(0, 1, matrix.clone());
            recvs[pred] = WPeer::new(0, 1, matrix.clone());
            sends[pred] = WPeer::new(800, 1, matrix.clone());
            recvs[succ] = WPeer::new(800, 1, matrix.clone());
            let sendbuf = vec![me as u8; 1600];
            let mut recvbuf = vec![0u8; 1600];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
        },
    );
}

/// ext_overlap's workload: split ghost exchange (begin / interior compute
/// / end) on a 2-D star-stencil DA — exercises petsc::scatter's
/// nonblocking path and compute interleaving.
#[test]
fn ext_overlap_scatter_is_backend_invariant() {
    assert_backends_agree(
        "ext_overlap",
        ClusterConfig::paper_testbed(4),
        |comm: &mut Comm, _| {
            let da = DistributedArray::new(comm, &[48, 48], 1, StencilKind::Star, 1);
            let mut g = da.create_global_vec();
            for (off, p) in da.owned_points().enumerate() {
                g.local_mut()[off] = (p[0] * 31 + p[1]) as f64;
            }
            let mut l = da.create_local_vec();
            let h = da.global_to_local_begin(comm, &g, &mut l, ScatterBackend::HandTuned);
            comm.rank_mut().compute_flops(1_000_000);
            da.global_to_local_end(comm, h, &mut l);
        },
    );
}
