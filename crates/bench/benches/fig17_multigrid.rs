//! Figure 17 — 3-D Laplacian multigrid solver application.
//!
//! The paper's application: a 100x100x100 grid with one degree of freedom,
//! solved by a three-level multigrid (Richardson iteration preconditioned
//! by a V-cycle) through the PETSc layer. Every smoother sweep, residual,
//! restriction and interpolation goes through DA ghost exchanges and
//! gather scatters — i.e. through `MPI_Alltoallw` with derived datatypes
//! when the `Datatype` backend is selected.
//!
//! Three implementations as in the paper: hand-tuned scatters, datatypes +
//! collectives over the baseline MPI ("MVAPICH2-0.9.5"), and over the
//! optimized framework ("MVAPICH2-New").
//!
//! Paper result: with the baseline the execution time stops improving
//! beyond 32 processes; the optimized implementation keeps scaling to 128
//! (≈90% improvement there) and sits within ~3% of hand-tuned (which leads
//! by ~10% at 4 processes).

use ncd_bench::{improvement_pct, report, time_phase, BenchCli, RunCapture, Series, OBSERVATORY};
use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{richardson, KspSettings, LaplacianOp, Multigrid, PVec, ScatterBackend};
use ncd_simnet::{Cluster, ClusterConfig, SimTime};

const GRID: usize = 100;
const LEVELS: usize = 3;

/// One full multigrid solve (setup + Richardson/V-cycle) on this
/// communicator — the body both the timed sweep and the traced
/// observatory pass run.
fn mg_solve(comm: &mut Comm, backend: ScatterBackend) {
    let h = 1.0 / GRID as f64;
    let mg = Multigrid::new(comm, &[GRID, GRID, GRID], h, LEVELS, backend);
    let da = mg.fine_da();
    let op = LaplacianOp::new(da, h);
    let mut b = PVec::zeros(da.global_layout().clone(), comm.rank());
    for (off, p) in da.owned_points().enumerate() {
        let (x, y, z) = (
            (p[0] as f64 + 0.5) * h,
            (p[1] as f64 + 0.5) * h,
            (p[2] as f64 + 0.5) * h,
        );
        b.local_mut()[off] = x + y + z;
    }
    let mut x = PVec::zeros(da.global_layout().clone(), comm.rank());
    let settings = KspSettings {
        rtol: 1e-6,
        max_it: 30,
        backend,
        ..Default::default()
    };
    let res = richardson(comm, &op, &mg, 1.0, &b, &mut x, &settings);
    assert!(res.converged, "MG solve did not converge: {res:?}");
}

fn solve_time(nprocs: usize, cfg: MpiConfig, backend: ScatterBackend) -> (SimTime, usize) {
    let out = Cluster::new(ClusterConfig::paper_testbed(nprocs)).run(|rank| {
        let mut comm = Comm::new(rank, cfg.clone());
        let h = 1.0 / GRID as f64;
        let mg = Multigrid::new(&mut comm, &[GRID, GRID, GRID], h, LEVELS, backend);
        let da = mg.fine_da();
        let op = LaplacianOp::new(da, h);
        // Right-hand side varies linearly across the domain (the paper:
        // "the data grid varies the values of the variants (x, y, z)
        // uniformly across the grid in each dimension").
        let mut b = PVec::zeros(da.global_layout().clone(), comm.rank());
        for (off, p) in da.owned_points().enumerate() {
            let (x, y, z) = (
                (p[0] as f64 + 0.5) * h,
                (p[1] as f64 + 0.5) * h,
                (p[2] as f64 + 0.5) * h,
            );
            b.local_mut()[off] = x + y + z;
        }
        let mut x = PVec::zeros(da.global_layout().clone(), comm.rank());
        // Setup (DA + plans) done; time the solve only.
        comm.barrier();
        comm.rank_mut().reset_clock();
        let settings = KspSettings {
            rtol: 1e-6,
            max_it: 30,
            backend,
            ..Default::default()
        };
        let res = richardson(&mut comm, &op, &mg, 1.0, &b, &mut x, &settings);
        assert!(res.converged, "MG solve did not converge: {res:?}");
        (comm.rank_ref().now(), res.iterations)
    });
    let iters = out[0].1;
    let tmax = out.into_iter().map(|(t, _)| t).max().expect("nonempty");
    (tmax, iters)
}

fn main() {
    let cli = BenchCli::parse();
    let procs: &[usize] = if cli.smoke {
        &[4, 8, 16]
    } else {
        &[4, 8, 16, 32, 64, 128]
    };
    let mut hand = Series::new("hand-tuned");
    let mut base = Series::new("MVAPICH2-0.9.5");
    let mut new = Series::new("MVAPICH2-New");
    let mut imp_new = Series::new("imp-new-%");
    let mut imp_hand = Series::new("imp-hand-%");
    for &n in procs {
        let (th, it_h) = solve_time(n, MpiConfig::optimized(), ScatterBackend::HandTuned);
        let (tb, it_b) = solve_time(n, MpiConfig::baseline(), ScatterBackend::Datatype);
        let (tn, it_n) = solve_time(n, MpiConfig::optimized(), ScatterBackend::Datatype);
        assert_eq!(it_h, it_b, "implementations must run identical numerics");
        assert_eq!(it_h, it_n, "implementations must run identical numerics");
        hand.push(n.to_string(), th.as_secs());
        base.push(n.to_string(), tb.as_secs());
        new.push(n.to_string(), tn.as_secs());
        imp_new.push(n.to_string(), improvement_pct(tb, tn));
        imp_hand.push(n.to_string(), improvement_pct(tb, th));
        eprintln!("n={n}: solver iterations = {it_h}");
    }
    let time = [hand, base, new];
    let improvement = [imp_new, imp_hand];
    let plain = RunCapture::default();
    report(
        &cli,
        "fig17a_multigrid",
        "processes",
        "execution time (sec)",
        &time,
        &plain,
    );
    report(
        &cli,
        "fig17b_multigrid_improvement",
        "processes",
        "% improvement over MVAPICH2-0.9.5",
        &improvement,
        &plain,
    );

    // Observatory pass: one traced solve on the smallest machine of the
    // sweep (the solve itself is the expensive part; the trace only needs
    // a representative ghost-exchange pattern), optimized datatype path.
    if cli.wants_observatory() {
        let n = procs[0];
        let traced = time_phase(
            ClusterConfig::paper_testbed(n).observe(OBSERVATORY),
            MpiConfig::optimized(),
            1,
            |comm, _| mg_solve(comm, ScatterBackend::Datatype),
        );
        let knobs = vec![
            ("procs".to_string(), n.to_string()),
            ("grid".to_string(), format!("{GRID}^3")),
            ("levels".to_string(), LEVELS.to_string()),
            ("backend".to_string(), "datatype".to_string()),
        ];
        let mut ledgered: Vec<Series> = Vec::new();
        ledgered.extend(time);
        ledgered.extend(improvement);
        // Nothing is gated: the smoke sweep alone takes minutes.
        cli.observatory("fig17_multigrid", &knobs, &ledgered, &[], &traced);
    }
}
