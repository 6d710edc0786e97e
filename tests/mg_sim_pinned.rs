//! The multigrid solve, pinned: how the V-cycle walks memory — row kernel,
//! fused sweeps, reused workspace, weight palette — is a host-side matter
//! and must not move one bit of the answer, one simulated nanosecond, one
//! message, byte or packed segment.

use nucomm::core::{Comm, MpiConfig};
use nucomm::petsc::{richardson, KspSettings, LaplacianOp, Multigrid, PVec, ScatterBackend};
use nucomm::simnet::{Cluster, ClusterConfig};

const RANKS: usize = 8;
const N: usize = 16;

/// `(iterations, residual_norm.to_bits())` and every rank's final clock
/// (simulated ns) and `Stats.{msgs_sent, bytes_sent, segments_packed}`
/// after a 16³ three-level MG-preconditioned Richardson solve to 1e-8.
type Pinned = ((usize, u64), [(u64, u64, u64, u64); RANKS]);

fn run(backend: ScatterBackend) -> Pinned {
    let cluster = ClusterConfig::paper_testbed(RANKS).with_seed(20070326);
    let out = Cluster::new(cluster).run(move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let h = 1.0 / N as f64;
        let mg = Multigrid::new(&mut comm, &[N, N, N], h, 3, backend);
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
    // The answer and the traffic were captured at the commit before the
    // V-cycle's arithmetic was rewritten (PR 23's tree), when `Multigrid::new`
    // still ran an 8-step power iteration per level for a Chebyshev
    // smoother. That set-up sent, per rank 0..8, msgs 144 96 120 96 144 96
    // 120 96 and bytes 16_704 16_320 16_512 16_320 16_704 16_320 16_512
    // 16_320 under both backends, and packed segments 0 (hand-tuned) or
    // 2_368 ×4 then 2_352 ×4 (datatype). Each count below is the old one
    // minus that; the answer bits are unchanged. Only the clocks were
    // captured afresh: the deleted set-up messages drew from each rank's
    // jitter generator, so every later draw moved.
    let cases: [(&str, ScatterBackend, Pinned); 2] = [
        (
            "hand_tuned/jacobi",
            ScatterBackend::HandTuned,
            (
                (24, 0x3ec24130e0238e0d),
                [
                    (29_803_412, 3_009, 317_208, 56),
                    (29_808_887, 2_147, 310_312, 56),
                    (29_810_310, 2_578, 313_760, 56),
                    (29_815_700, 2_147, 310_312, 56),
                    (29_810_449, 3_009, 317_208, 56),
                    (29_815_876, 2_147, 310_312, 56),
                    (29_816_997, 2_578, 313_760, 56),
                    (29_822_933, 2_147, 310_312, 56),
                ],
            ),
        ),
        (
            "datatype/jacobi",
            ScatterBackend::Datatype,
            (
                (24, 0x3ec24130e0238e0d),
                [
                    (30_434_012, 3_009, 317_208, 50_917),
                    (30_439_487, 2_147, 310_312, 50_917),
                    (30_440_910, 2_578, 313_760, 51_781),
                    (30_446_300, 2_147, 310_312, 51_781),
                    (30_441_049, 3_009, 317_208, 51_470),
                    (30_446_476, 2_147, 310_312, 51_470),
                    (30_447_597, 2_578, 313_760, 51_902),
                    (30_453_533, 2_147, 310_312, 51_806),
                ],
            ),
        ),
    ];
    for (label, backend, want) in cases {
        assert_eq!(run(backend), want, "{label}");
    }
}
