//! Extension study: how much ghost-exchange latency the split scatter
//! (`VecScatterBegin` / interior compute / `VecScatterEnd`) hides.
//!
//! A 2-D star-stencil DA performs its ghost exchange while a fixed slab of
//! interior compute runs, in two forms: sequential (monolithic `apply`,
//! then compute) and overlapped (begin / compute / end). We sweep the
//! interior compute per exchange; the overlapped curve flattens to
//! max(compute, communication) while the sequential curve is their sum.
//!
//! `--smoke` shrinks the grid, the machine, and the sweep for CI; the
//! lower-is-better latency series are gated against the committed
//! reference run with `--compare benches/baselines/observatory`.

use ncd_bench::{improvement_pct, report, time_phase, BenchCli, RunCapture, Series, OBSERVATORY};
use ncd_core::{Comm, MpiConfig};
use ncd_petsc::{DistributedArray, ScatterBackend, StencilKind};
use ncd_simnet::{Cluster, ClusterConfig, SimTime};

/// Per-iteration makespan (max over ranks / reps) of one ghost exchange
/// plus `flops` of interior compute, split or sequential.
fn exchange_latency(nranks: usize, grid: usize, flops: u64, overlap: bool, reps: usize) -> SimTime {
    let out = Cluster::new(ClusterConfig::paper_testbed(nranks)).run(move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let da = DistributedArray::new(&mut comm, &[grid, grid], 1, StencilKind::Star, 1);
        let mut g = da.create_global_vec();
        for (off, p) in da.owned_points().enumerate() {
            g.local_mut()[off] = (p[0] * 31 + p[1]) as f64;
        }
        let mut l = da.create_local_vec();
        // Warmup round, then measure.
        da.global_to_local(&mut comm, &g, &mut l, ScatterBackend::HandTuned);
        comm.barrier();
        comm.rank_mut().reset_clock();
        for _ in 0..reps {
            if overlap {
                let h = da.global_to_local_begin(&mut comm, &g, &mut l, ScatterBackend::HandTuned);
                comm.rank_mut().compute_flops(flops);
                da.global_to_local_end(&mut comm, h, &mut l);
            } else {
                da.global_to_local(&mut comm, &g, &mut l, ScatterBackend::HandTuned);
                comm.rank_mut().compute_flops(flops);
            }
        }
        comm.rank_ref().now()
    });
    let tmax = out.into_iter().max().expect("nonempty");
    SimTime::from_ns(tmax.as_ns() / reps as u64)
}

fn main() {
    let cli = BenchCli::parse();
    let smoke = cli.smoke;
    let (nranks, grid, reps) = if smoke { (4, 48, 5) } else { (16, 128, 10) };
    let sweep: &[u64] = if smoke {
        &[0, 1_000_000, 4_000_000]
    } else {
        &[0, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000]
    };

    let mut seq = Series::new("sequential");
    let mut ovl = Series::new("overlapped");
    let mut hidden = Series::new("hidden-%");
    for &flops in sweep {
        let ts = exchange_latency(nranks, grid, flops, false, reps);
        let to = exchange_latency(nranks, grid, flops, true, reps);
        seq.push(flops.to_string(), ts.as_us());
        ovl.push(flops.to_string(), to.as_us());
        hidden.push(flops.to_string(), improvement_pct(ts, to));
    }
    let series = vec![seq, ovl, hidden];
    report(
        &cli,
        "ext_overlap",
        "interior flops",
        &format!("latency per exchange (usec), {grid}x{grid} star DA, {nranks} ranks"),
        &series,
        &RunCapture::default(),
    );

    // Observatory pass: one traced overlapped exchange at the sweep's
    // largest compute slab, so a shrinking overlap window shows up in the
    // differential as wait-time growth on the scatter's end phase. The
    // gate reads the two latency series only; the derived hidden-% series
    // is higher-is-better and stays out.
    if cli.wants_observatory() {
        let flops = *sweep.last().expect("nonempty sweep");
        let traced = time_phase(
            ClusterConfig::paper_testbed(nranks).observe(OBSERVATORY),
            MpiConfig::optimized(),
            3,
            move |comm, _| {
                let da = DistributedArray::new(comm, &[grid, grid], 1, StencilKind::Star, 1);
                let mut g = da.create_global_vec();
                for (off, p) in da.owned_points().enumerate() {
                    g.local_mut()[off] = (p[0] * 31 + p[1]) as f64;
                }
                let mut l = da.create_local_vec();
                let h = da.global_to_local_begin(comm, &g, &mut l, ScatterBackend::HandTuned);
                comm.rank_mut().compute_flops(flops);
                da.global_to_local_end(comm, h, &mut l);
            },
        );
        let knobs = vec![
            ("ranks".to_string(), nranks.to_string()),
            ("grid".to_string(), format!("{grid}x{grid}")),
            ("interior_flops".to_string(), flops.to_string()),
            ("mode".to_string(), "overlapped".to_string()),
        ];
        let gated = ["sequential", "overlapped"];
        cli.observatory("ext_overlap", &knobs, &series, &gated, &traced);
    }
}
