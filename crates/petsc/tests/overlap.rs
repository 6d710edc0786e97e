//! Overlap guarantees of the split scatter: `begin` + compute + `end`
//! must hide communication behind computation **on the simulated clock**,
//! and the split form must deliver bit-identical data to the monolithic
//! `apply`.

use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{DistributedArray, ScatterBackend, StencilKind};
use ncd_simnet::{Cluster, ClusterConfig, SimTime};

const GRID: usize = 64;
const FLOPS: u64 = 5_000_000;

/// One ghost exchange plus a fixed slab of compute, with and without
/// overlap, on a uniform (noise-free) cluster so the comparison is exact.
/// Returns the slowest rank's simulated finish time.
fn ghost_exchange_makespan(overlap: bool, reps: usize) -> SimTime {
    let out = Cluster::new(ClusterConfig::uniform(4)).run(move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let da = DistributedArray::new(&mut comm, &[GRID, GRID], 1, StencilKind::Star, 1);
        let mut g = da.create_global_vec();
        for (off, p) in da.owned_points().enumerate() {
            g.local_mut()[off] = (p[0] * 100 + p[1]) as f64;
        }
        let mut l = da.create_local_vec();
        comm.barrier();
        comm.rank_mut().reset_clock();
        for _ in 0..reps {
            if overlap {
                let h = da.global_to_local_begin(&mut comm, &g, &mut l, ScatterBackend::HandTuned);
                comm.rank_mut().compute_flops(FLOPS);
                da.global_to_local_end(&mut comm, h, &mut l);
            } else {
                da.global_to_local(&mut comm, &g, &mut l, ScatterBackend::HandTuned);
                comm.rank_mut().compute_flops(FLOPS);
            }
        }
        comm.rank_ref().now()
    });
    out.into_iter().max().unwrap()
}

#[test]
fn overlapped_ghost_exchange_beats_sequential_on_simulated_time() {
    let sequential = ghost_exchange_makespan(false, 10);
    let overlapped = ghost_exchange_makespan(true, 10);
    assert!(
        overlapped < sequential,
        "overlap must win: overlapped={overlapped} sequential={sequential}"
    );
}

#[test]
fn split_scatter_delivers_the_same_ghosts_as_apply() {
    let out = Cluster::new(ClusterConfig::uniform(4)).run(|rank| {
        let mut comm = Comm::new(rank, MpiConfig::baseline());
        let da = DistributedArray::new(&mut comm, &[17, 13], 1, StencilKind::Box, 2);
        let mut g = da.create_global_vec();
        for (off, p) in da.owned_points().enumerate() {
            g.local_mut()[off] = (p[0] * 31 + p[1] * 7) as f64;
        }
        let mut via_apply = da.create_local_vec();
        da.global_to_local(&mut comm, &g, &mut via_apply, ScatterBackend::HandTuned);
        let mut via_split = da.create_local_vec();
        let h = da.global_to_local_begin(&mut comm, &g, &mut via_split, ScatterBackend::HandTuned);
        comm.rank_mut().compute_flops(100_000);
        da.global_to_local_end(&mut comm, h, &mut via_split);
        assert_eq!(via_apply.local(), via_split.local());
        true
    });
    assert!(out.iter().all(|&b| b));
}

#[test]
fn datatype_backend_begin_completes_eagerly() {
    // The datatype backend has no split form: everything happens in
    // begin, end is a no-op — but the API contract still holds.
    let out = Cluster::new(ClusterConfig::uniform(4)).run(|rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let da = DistributedArray::new(&mut comm, &[12, 12], 1, StencilKind::Star, 1);
        let mut g = da.create_global_vec();
        for (off, p) in da.owned_points().enumerate() {
            g.local_mut()[off] = (p[0] + 10 * p[1]) as f64;
        }
        let mut l = da.create_local_vec();
        let h = da.global_to_local_begin(&mut comm, &g, &mut l, ScatterBackend::Datatype);
        assert_eq!(h.pending_ops(), 0, "datatype backend completes in begin");
        da.global_to_local_end(&mut comm, h, &mut l);
        let (gs, gl) = da.ghosted();
        for j in gs[1]..gs[1] + gl[1] {
            for i in gs[0]..gs[0] + gl[0] {
                let p = [i, j, 0];
                if da.point_in_local_form(p) {
                    assert_eq!(l.local()[da.local_vec_offset(p, 0)], (i + 10 * j) as f64);
                }
            }
        }
        true
    });
    assert!(out.iter().all(|&b| b));
}

#[test]
fn apply_and_begin_then_end_leave_identical_clocks_and_stats() {
    // `apply` is the forward-insert `begin` + `end` under another stage
    // name: on a noise-free cluster the two spellings must be
    // indistinguishable on every rank — clock, every `Stats` counter, data.
    for backend in [ScatterBackend::HandTuned, ScatterBackend::Datatype] {
        let run = |split: bool| {
            Cluster::new(ClusterConfig::uniform(4)).run(move |rank| {
                let mut comm = Comm::new(rank, MpiConfig::optimized());
                let da = DistributedArray::new(&mut comm, &[17, 13], 1, StencilKind::Box, 2);
                let mut g = da.create_global_vec();
                for (off, p) in da.owned_points().enumerate() {
                    g.local_mut()[off] = (p[0] * 31 + p[1] * 7) as f64;
                }
                let mut l = da.create_local_vec();
                for _ in 0..3 {
                    if split {
                        let h = da.global_to_local_begin(&mut comm, &g, &mut l, backend);
                        da.global_to_local_end(&mut comm, h, &mut l);
                    } else {
                        da.global_to_local(&mut comm, &g, &mut l, backend);
                    }
                }
                let stats = format!("{:?}", comm.rank_ref().stats());
                (comm.rank_ref().now(), stats, l.local().to_vec())
            })
        };
        assert_eq!(run(false), run(true), "{backend:?}");
    }
}
