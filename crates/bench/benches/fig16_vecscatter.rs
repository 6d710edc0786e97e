//! Figure 16 — PETSc vector-scatter benchmark.
//!
//! Two 1-D grids (one degree of freedom) are laid out in parallel; each
//! process scatters the elements of its portion of the first vector to
//! unique portions of the second. The destination pattern is
//! neighbour-heavy with a sparse long-range component, so per-peer volumes
//! are nonuniform, most peer pairs exchange nothing, and both sides are
//! noncontiguous in memory — the communication PETSc's ghost updates and
//! reorderings generate.
//!
//! Three implementations, as in the paper:
//!   * hand-tuned      — PETSc's explicit pack / point-to-point / unpack;
//!   * MVAPICH2-0.9.5  — derived datatypes + alltoallw over the baseline;
//!   * MVAPICH2-New    — same plan over the optimized framework.
//!
//! Paper result: the optimized MPI recovers to within ~4% of hand-tuned
//! (>95% better than the baseline at 128 procs).

use ncd_bench::{improvement_pct, report, time_phase, BenchCli, RunCapture, Series};
use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{IndexSet, Layout, PVec, ScatterBackend, VecScatter};
use ncd_simnet::{Cluster, ClusterConfig, Observers, SimTime};

/// Elements per process (the grid scales with the process count).
const LOCAL_ELEMS: usize = 4096;

/// Destination for global source index `g`: most elements shift to the
/// next process's block (large neighbour message); every 16th element goes
/// half the machine away (small long-range message). The interleaving
/// leaves short (≤15-element) contiguous runs on both sides — the
/// fine-grained noncontiguity PETSc index scatters produce. The map is a
/// permutation, so destinations are unique.
fn dest_of(g: usize, n_global: usize) -> usize {
    if g.is_multiple_of(16) {
        (g + n_global / 2 + 16) % n_global
    } else {
        (g + LOCAL_ELEMS) % n_global
    }
}

fn scatter_latency(nprocs: usize, cfg: MpiConfig, backend: ScatterBackend) -> SimTime {
    const REPS: usize = 5;
    let out = Cluster::new(ClusterConfig::paper_testbed(nprocs)).run(|rank| {
        let mut comm = Comm::new(rank, cfg.clone());
        let n = LOCAL_ELEMS * comm.size();
        let layout = Layout::balanced(n, comm.size());
        let (s, e) = layout.range(comm.rank());
        let x = PVec::from_local(
            layout.clone(),
            comm.rank(),
            (s..e).map(|g| g as f64).collect(),
        );
        let mut y = PVec::zeros(layout.clone(), comm.rank());
        let src = IndexSet::stride(s, 1, e - s);
        let dst = IndexSet::general((s..e).map(|g| dest_of(g, n)).collect::<Vec<_>>());
        // Plan creation is setup (PETSc's VecScatterCreate); time only the
        // scatter itself.
        let plan = VecScatter::create(&mut comm, layout.clone(), &src, layout, &dst);
        plan.apply(&mut comm, &x, &mut y, backend); // warmup
        comm.barrier();
        comm.rank_mut().reset_clock();
        for _ in 0..REPS {
            plan.apply(&mut comm, &x, &mut y, backend);
        }
        comm.rank_ref().now()
    });
    let tmax = out.into_iter().max().expect("nonempty");
    SimTime::from_ns(tmax.as_ns() / REPS as u64)
}

fn main() {
    let cli = BenchCli::parse();
    let procs: &[usize] = if cli.smoke {
        &[2, 4, 8, 16]
    } else {
        &[2, 4, 8, 16, 32, 64, 128]
    };
    let mut hand = Series::new("hand-tuned");
    let mut base = Series::new("MVAPICH2-0.9.5");
    let mut new = Series::new("MVAPICH2-New");
    let mut imp_new = Series::new("imp-new-%");
    let mut imp_hand = Series::new("imp-hand-%");
    for &n in procs {
        let th = scatter_latency(n, MpiConfig::optimized(), ScatterBackend::HandTuned);
        let tb = scatter_latency(n, MpiConfig::baseline(), ScatterBackend::Datatype);
        let tn = scatter_latency(n, MpiConfig::optimized(), ScatterBackend::Datatype);
        hand.push(n.to_string(), th.as_us());
        base.push(n.to_string(), tb.as_us());
        new.push(n.to_string(), tn.as_us());
        imp_new.push(n.to_string(), improvement_pct(tb, tn));
        imp_hand.push(n.to_string(), improvement_pct(tb, th));
    }
    let latency = [hand, base, new];
    let improvement = [imp_new, imp_hand];
    let plain = RunCapture::default();
    report(
        "fig16a_vecscatter",
        "processes",
        "latency (usec)",
        &latency,
        &plain,
    );
    report(
        "fig16b_vecscatter_improvement",
        "processes",
        "% improvement over MVAPICH2-0.9.5",
        &improvement,
        &plain,
    );

    // Observatory pass: one traced scatter (plan creation + apply) under
    // the optimized datatype path, so the ledgered run carries the
    // alltoallw schedule decisions and the per-peer traffic matrix the
    // differential diffs structurally.
    if cli.wants_observatory() {
        let n = if cli.smoke { 16 } else { 32 };
        let traced = time_phase(
            ClusterConfig::paper_testbed(n).observe(Observers::ALL),
            MpiConfig::optimized(),
            3,
            |comm, _| {
                let n_global = LOCAL_ELEMS * comm.size();
                let layout = Layout::balanced(n_global, comm.size());
                let (s, e) = layout.range(comm.rank());
                let x = PVec::from_local(
                    layout.clone(),
                    comm.rank(),
                    (s..e).map(|g| g as f64).collect(),
                );
                let mut y = PVec::zeros(layout.clone(), comm.rank());
                let src = IndexSet::stride(s, 1, e - s);
                let dst =
                    IndexSet::general((s..e).map(|g| dest_of(g, n_global)).collect::<Vec<_>>());
                let plan = VecScatter::create(comm, layout.clone(), &src, layout, &dst);
                plan.apply(comm, &x, &mut y, ScatterBackend::Datatype);
            },
        );
        let knobs = vec![
            ("procs".to_string(), n.to_string()),
            ("local_elems".to_string(), LOCAL_ELEMS.to_string()),
            ("backend".to_string(), "datatype".to_string()),
            ("flavor".to_string(), "auto".to_string()),
        ];
        let mut ledgered: Vec<Series> = Vec::new();
        ledgered.extend(latency);
        ledgered.extend(improvement);
        cli.observatory("fig16_vecscatter", &knobs, &ledgered, &traced);
    }
}
