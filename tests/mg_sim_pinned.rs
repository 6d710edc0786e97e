//! The multigrid solve, pinned: how the V-cycle walks memory — row kernel,
//! fused sweeps, reused workspace, weight palette — is a host-side matter
//! and must not move one bit of the answer, one simulated nanosecond, one
//! message, byte or packed segment.

use nucomm::core::{Comm, MpiConfig};
use nucomm::petsc::{
    richardson, KspSettings, LaplacianOp, Multigrid, PVec, ScatterBackend, SmootherKind,
};
use nucomm::simnet::{Cluster, ClusterConfig};

const RANKS: usize = 8;
const N: usize = 16;

/// `(iterations, residual_norm.to_bits())` and every rank's final clock
/// (simulated ns) and `Stats.{msgs_sent, bytes_sent, segments_packed}`
/// after a 16³ three-level MG-preconditioned Richardson solve to 1e-8.
type Pinned = ((usize, u64), [(u64, u64, u64, u64); RANKS]);

fn run(backend: ScatterBackend, smoother: SmootherKind) -> Pinned {
    let cluster = ClusterConfig::paper_testbed(RANKS).with_seed(20070326);
    let out = Cluster::new(cluster).run(move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let h = 1.0 / N as f64;
        let mg = Multigrid::new(&mut comm, &[N, N, N], h, 3, backend).with_smoother(smoother);
        let da = mg.fine_da();
        let op = LaplacianOp::new(da, h);
        let mut b = PVec::zeros(da.global_layout().clone(), comm.rank());
        for (off, p) in da.owned_points().enumerate() {
            b.local_mut()[off] = 1.0 + (p[0] + 3 * p[1] + 7 * p[2]) as f64 / 17.0;
        }
        let mut x = PVec::zeros(da.global_layout().clone(), comm.rank());
        let settings = KspSettings {
            rtol: 1e-8,
            max_it: 40,
            backend,
            ..Default::default()
        };
        let res = richardson(&mut comm, &op, &mg, 1.0, &b, &mut x, &settings);
        assert!(res.converged);
        let stats = comm.rank_ref().stats();
        (
            (res.iterations, res.residual_norm.to_bits()),
            (
                comm.rank_ref().now().as_ns(),
                stats.msgs_sent,
                stats.bytes_sent,
                stats.segments_packed,
            ),
        )
    });
    let solve = out[0].0;
    assert!(out.iter().all(|o| o.0 == solve), "ranks agree on the solve");
    let per_rank: Vec<_> = out.iter().map(|o| o.1).collect();
    (solve, per_rank.try_into().expect("one entry per rank"))
}

#[test]
fn mg_solve_numbers_sim_clock_and_traffic_are_pinned() {
    // Captured at the commit before the V-cycle's arithmetic was rewritten
    // (PR 23's tree).
    let cases: [(&str, ScatterBackend, SmootherKind, Pinned); 4] = [
        (
            "hand_tuned/jacobi",
            ScatterBackend::HandTuned,
            SmootherKind::Jacobi,
            (
                (24, 0x3ec24130e0238e0d),
                [
                    (31_363_505, 3_153, 333_912, 56),
                    (31_368_360, 2_243, 326_632, 56),
                    (31_367_575, 2_698, 330_272, 56),
                    (31_373_177, 2_243, 326_632, 56),
                    (31_369_395, 3_153, 333_912, 56),
                    (31_375_770, 2_243, 326_632, 56),
                    (31_375_524, 2_698, 330_272, 56),
                    (31_381_461, 2_243, 326_632, 56),
                ],
            ),
        ),
        (
            "hand_tuned/chebyshev2",
            ScatterBackend::HandTuned,
            SmootherKind::Chebyshev { degree: 2 },
            (
                (8, 0x3ea956d215eab8f1),
                [
                    (13_666_486, 1_453, 190_976, 56),
                    (13_672_410, 1_113, 188_256, 56),
                    (13_671_049, 1_283, 189_616, 56),
                    (13_676_815, 1_113, 188_256, 56),
                    (13_672_302, 1_453, 190_976, 56),
                    (13_678_485, 1_113, 188_256, 56),
                    (13_677_245, 1_283, 189_616, 56),
                    (13_683_639, 1_113, 188_256, 56),
                ],
            ),
        ),
        (
            "datatype/jacobi",
            ScatterBackend::Datatype,
            SmootherKind::Jacobi,
            (
                (24, 0x3ec24130e0238e0d),
                [
                    (32_013_533, 3_153, 333_912, 53_285),
                    (32_018_388, 2_243, 326_632, 53_285),
                    (32_017_603, 2_698, 330_272, 54_149),
                    (32_023_205, 2_243, 326_632, 54_149),
                    (32_019_423, 3_153, 333_912, 53_822),
                    (32_025_798, 2_243, 326_632, 53_822),
                    (32_025_552, 2_698, 330_272, 54_254),
                    (32_031_489, 2_243, 326_632, 54_158),
                ],
            ),
        ),
        (
            "datatype/chebyshev2",
            ScatterBackend::Datatype,
            SmootherKind::Chebyshev { degree: 2 },
            (
                (8, 0x3ea956d215eab8f1),
                [
                    (14_038_105, 1_453, 190_976, 28_392),
                    (14_044_029, 1_113, 188_256, 28_392),
                    (14_042_668, 1_283, 189_616, 28_680),
                    (14_048_434, 1_113, 188_256, 28_680),
                    (14_043_921, 1_453, 190_976, 28_528),
                    (14_050_104, 1_113, 188_256, 28_528),
                    (14_048_864, 1_283, 189_616, 28_672),
                    (14_055_258, 1_113, 188_256, 28_640),
                ],
            ),
        ),
    ];
    for (label, backend, smoother, want) in cases {
        assert_eq!(run(backend, smoother), want, "{label}");
    }
}
