//! Overlap-efficiency diagnosis of the split scatter: the
//! begin/compute/end stage mirrors must let `stage_overlap` tell a run
//! that hid its ghost-exchange wire time behind compute apart from one
//! that exposed it.

use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{
    DistributedArray, ScatterBackend, StencilKind, STAGE_SCATTER_BEGIN, STAGE_SCATTER_END,
};
use ncd_simnet::{
    render_stage_overlap, stage_overlap, Cluster, ClusterConfig, Observers, Rank, StageOverlap,
    TraceEvent,
};

const GRID: usize = 64;

/// Split ghost exchanges with `flops` of compute inside each window,
/// returning every rank's trace (profiling + tracing on, so the scatter
/// stages mirror as spans).
fn traced_ghost_exchange(flops: u64, reps: usize) -> Vec<Vec<TraceEvent>> {
    let profiled = Observers {
        profile: true,
        ..TRACE
    };
    traced(ClusterConfig::uniform(4).observe(profiled), move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let da = DistributedArray::new(&mut comm, &[GRID, GRID], 1, StencilKind::Star, 1);
        let mut g = da.create_global_vec();
        for (off, p) in da.owned_points().enumerate() {
            g.local_mut()[off] = (p[0] * 100 + p[1]) as f64;
        }
        let mut l = da.create_local_vec();
        comm.barrier();
        for _ in 0..reps {
            let h = da.global_to_local_begin(&mut comm, &g, &mut l, ScatterBackend::HandTuned);
            if flops > 0 {
                comm.rank_mut().compute_flops(flops);
            }
            da.global_to_local_end(&mut comm, h, &mut l);
        }
    })
}

const TRACE: Observers = Observers {
    trace: true,
    ..Observers::NONE
};

/// Every rank's trace of `f` on `cfg`, which configures the observers.
fn traced(cfg: ClusterConfig, f: impl Fn(&mut Rank) + Send + Sync) -> Vec<Vec<TraceEvent>> {
    let (_, capture) = Cluster::new(cfg).try_run(f).unwrap();
    capture.traces.expect("traced")
}

fn overall_efficiency(findings: &[StageOverlap]) -> f64 {
    let window: u64 = findings.iter().map(|f| f.window.as_ns()).sum();
    let leaked: u64 = findings.iter().map(|f| f.leaked().as_ns()).sum();
    if window + leaked == 0 {
        1.0
    } else {
        window as f64 / (window + leaked) as f64
    }
}

#[test]
fn big_compute_window_hides_the_scatter_wire() {
    let traces = traced_ghost_exchange(5_000_000, 5);
    let findings = stage_overlap(&traces, STAGE_SCATTER_BEGIN, STAGE_SCATTER_END);
    assert_eq!(findings.len(), 4, "every rank recorded stage pairs");
    for f in &findings {
        assert_eq!(f.windows, 5, "one window per repetition");
    }
    let eff = overall_efficiency(&findings);
    assert!(
        eff > 0.95,
        "5M flops must hide the ghost wire: efficiency {eff:.3}"
    );
    let report = render_stage_overlap(&findings, "scatter");
    assert!(report.contains("scatter overlap"), "{report}");
    assert!(report.contains("% hidden)"), "{report}");
}

#[test]
fn empty_compute_window_exposes_the_scatter_wire() {
    let traces = traced_ghost_exchange(0, 5);
    let findings = stage_overlap(&traces, STAGE_SCATTER_BEGIN, STAGE_SCATTER_END);
    assert_eq!(findings.len(), 4);
    let hidden = overall_efficiency(&stage_overlap(
        &traced_ghost_exchange(5_000_000, 5),
        STAGE_SCATTER_BEGIN,
        STAGE_SCATTER_END,
    ));
    let exposed = overall_efficiency(&findings);
    assert!(
        exposed < hidden,
        "no compute window must expose more wire: exposed-run eff {exposed:.3} \
         vs hidden-run eff {hidden:.3}"
    );
    // With no compute at all, the wait shows up somewhere: either as
    // send-drain residual or as blocked receives inside the end stage.
    let waited: u64 = findings.iter().map(|f| f.leaked().as_ns()).sum();
    assert!(waited > 0, "an empty window cannot hide the exchange");
}

#[test]
fn missing_stages_report_cleanly() {
    // Tracing without profiling: stages do not mirror, so the diagnosis
    // must say so instead of fabricating windows.
    let traces = traced(ClusterConfig::uniform(2).observe(TRACE), |rank| {
        Comm::new(rank, MpiConfig::optimized()).barrier();
    });
    let findings = stage_overlap(&traces, STAGE_SCATTER_BEGIN, STAGE_SCATTER_END);
    assert!(findings.is_empty());
    let report = render_stage_overlap(&findings, "scatter");
    assert!(
        report.contains("(no scatter begin/end stage pairs traced)"),
        "{report}"
    );
}
