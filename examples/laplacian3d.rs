//! The paper's application (§5.5) in miniature: a 3-D Laplacian solved by
//! a three-level geometric multigrid through the PETSc layer, comparing
//! the three implementations of Figure 17 on a smaller grid.
//!
//! Run with: `cargo run --release --example laplacian3d`

use nucomm::core::{Comm, MpiConfig};
use nucomm::petsc::{richardson, KspSettings, LaplacianOp, Multigrid, PVec, ScatterBackend};
use nucomm::simnet::{Cluster, ClusterConfig, SimTime};

const GRID: usize = 40;
const RANKS: usize = 16;

fn solve(cfg: MpiConfig, backend: ScatterBackend) -> (SimTime, usize, f64) {
    let out = Cluster::new(ClusterConfig::paper_testbed(RANKS)).run(|rank| {
        let mut comm = Comm::new(rank, cfg.clone());
        let h = 1.0 / GRID as f64;
        let mg = Multigrid::new(&mut comm, &[GRID, GRID, GRID], h, 3, backend);
        let da = mg.fine_da();
        let op = LaplacianOp::new(da, h);

        // -∇²u = x + y + z on the unit cube, u = 0 on the boundary.
        let mut b = PVec::zeros(da.global_layout().clone(), comm.rank());
        for (off, p) in da.owned_points().enumerate() {
            b.local_mut()[off] = (p[0] as f64 + p[1] as f64 + p[2] as f64 + 1.5) * h;
        }
        let mut x = PVec::zeros(da.global_layout().clone(), comm.rank());
        comm.barrier();
        comm.rank_mut().reset_clock();
        let res = richardson(
            &mut comm,
            &op,
            &mg,
            1.0,
            &b,
            &mut x,
            &KspSettings {
                rtol: 1e-8,
                max_it: 40,
                backend,
            },
        );
        assert!(res.converged, "solver did not converge: {res:?}");
        (comm.rank_ref().now(), res.iterations, x.norm2(&mut comm))
    });
    let t = out.iter().map(|o| o.0).max().expect("nonempty");
    (t, out[0].1, out[0].2)
}

fn main() {
    println!("-∇²u = f on a {GRID}³ grid, 3-level multigrid, {RANKS} simulated ranks\n");
    let configs = [
        (
            "hand-tuned",
            MpiConfig::optimized(),
            ScatterBackend::HandTuned,
        ),
        (
            "MVAPICH2-0.9.5",
            MpiConfig::baseline(),
            ScatterBackend::Datatype,
        ),
        (
            "MVAPICH2-New",
            MpiConfig::optimized(),
            ScatterBackend::Datatype,
        ),
    ];
    let mut results = Vec::new();
    for (label, cfg, backend) in configs {
        let (t, iters, norm) = solve(cfg, backend);
        println!("{label:>16}: {t} ({iters} MG iterations, |u| = {norm:.6})");
        results.push((label, t, norm));
    }
    // All three run identical numerics.
    assert!(results.windows(2).all(|w| (w[0].2 - w[1].2).abs() < 1e-12));
    let base = results[1].1;
    let new = results[2].1;
    println!(
        "\noptimized framework improves the solve by {:.1}% over the baseline",
        100.0 * (base.as_ns() as f64 - new.as_ns() as f64) / base.as_ns() as f64
    );
    println!(
        "(run `cargo bench -p ncd-bench --bench fig17_multigrid` for the full 100³ scaling study)"
    );
}
