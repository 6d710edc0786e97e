//! A PETSc `-log_view`-style profiling report for the paper's multigrid
//! application (§5.5, Figure 17) on a reduced grid: every V-cycle level
//! runs inside nested profiling stages (`mg_vcycle_l0/smooth`,
//! `.../restrict`, ...), and the per-stage inclusive/exclusive simulated
//! times are merged across ranks into one table — the analogue of running
//! PETSc with `-log_view`.
//!
//! Run with: `cargo run --release --example profile_report`

use nucomm::core::{Comm, MpiConfig};
use nucomm::petsc::{richardson, KspSettings, LaplacianOp, Multigrid, PVec, ScatterBackend};
use nucomm::simnet::{Cluster, ClusterConfig, Observers, Profiler};

const GRID: usize = 24;
const RANKS: usize = 8;

fn main() {
    println!("-∇²u = f on a {GRID}³ grid, 3-level multigrid, {RANKS} simulated ranks");
    println!("(stage times are simulated nanoseconds, merged over all ranks)\n");

    for (label, cfg, backend) in [
        (
            "MVAPICH2-0.9.5 + datatypes",
            MpiConfig::baseline(),
            ScatterBackend::Datatype,
        ),
        (
            "MVAPICH2-New + datatypes",
            MpiConfig::optimized(),
            ScatterBackend::Datatype,
        ),
    ] {
        let observers = Observers {
            profile: true,
            metrics: true,
            ..Observers::NONE
        };
        let cluster = ClusterConfig::paper_testbed(RANKS).observe(observers);
        let run = Cluster::new(cluster).try_run(|rank| {
            let mut comm = Comm::new(rank, cfg.clone());
            let h = 1.0 / GRID as f64;
            let mg = Multigrid::new(&mut comm, &[GRID, GRID, GRID], h, 3, backend);
            let da = mg.fine_da();
            let op = LaplacianOp::new(da, h);

            let mut b = PVec::zeros(da.global_layout().clone(), comm.rank());
            for (off, p) in da.owned_points().enumerate() {
                b.local_mut()[off] = (p[0] as f64 + p[1] as f64 + p[2] as f64 + 1.5) * h;
            }
            let mut x = PVec::zeros(da.global_layout().clone(), comm.rank());
            comm.barrier();
            comm.rank_mut().reset_clock();
            comm.rank_mut().stage_begin("solve");
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
            comm.rank_mut().stage_end("solve");
            assert!(res.converged, "solver did not converge: {res:?}");
        });

        let (_, capture) = run.unwrap();
        let mut profile = Profiler::default();
        for p in &capture.profiles.expect("profiled") {
            profile.merge(p);
        }
        let metrics = capture.metrics.expect("metered");
        println!("=== {label} ===");
        println!("{}", profile.report());
        println!(
            "v-cycles: l0={} l1={} l2={}   scatter applies: {}",
            metrics.counter("mg", "vcycle", "l0"),
            metrics.counter("mg", "vcycle", "l1"),
            metrics.counter("mg", "vcycle", "l2"),
            metrics.counter("scatter", "apply", backend.label()),
        );
        let searched = metrics.counter("engine", "searched_segments", "single-context");
        println!("datatype search segments: {searched}\n");
    }
    println!("Ghost messages on this grid fit one pipeline block, so datatype");
    println!("search barely registers; the gap is the round-robin alltoallw's");
    println!("zero-byte synchronization, visible as fatter scatter_apply stages");
    println!("at every level of the baseline column.");
}
