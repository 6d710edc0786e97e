//! ext_scale — collective scaling knees at process counts the event
//! scheduler unlocked.
//!
//! The paper's evaluation stops at 64–128 processes because that is where
//! its testbed stopped; the algorithmic crossovers it studies keep moving
//! with N. This bench sweeps `MPI_Allgatherv` to N = 1024 with the ring
//! and recursive-doubling algorithms pinned, and runs the §5.5 multigrid
//! application at 128 ranks.
//!
//! What the sweep shows: the ring pays `(N-1)` serialized neighbour hops,
//! recursive doubling pays `ceil(log2 N)` rounds of doubling volume. For
//! a small fixed per-rank block the total volume is latency-dominated and
//! the ring's O(N) hop count loses by a factor that grows with N — the
//! knee small-N sweeps (fig14's 64 procs) can only hint at. For a large
//! per-rank block both move the same bytes and the gap closes to the
//! overhead term. The multigrid point pins the §5.5 claim at the paper's
//! full 128-process machine size.

use ncd_bench::{relabel, report, time_phase, BenchCli, RunCapture, Series};
use ncd_core::{AllgathervAlgorithm, Comm, MpiConfig};
use ncd_petsc::{richardson, KspSettings, LaplacianOp, Multigrid, PVec, ScatterBackend};
use ncd_simnet::{Cluster, ClusterConfig, Observers, SimTime};

/// Uniform allgatherv with the algorithm pinned: every rank contributes
/// `block` bytes.
fn uniform_allgatherv(comm: &mut Comm, algo: AllgathervAlgorithm, block: usize) {
    let counts = vec![block; comm.size()];
    let send = vec![comm.rank() as u8; block];
    let mut recv = vec![0u8; block * comm.size()];
    comm.allgatherv_with(algo, &send, &counts, &mut recv);
}

fn allgatherv_latency(nprocs: usize, algo: AllgathervAlgorithm, block: usize) -> SimTime {
    time_phase(
        ClusterConfig::uniform(nprocs),
        MpiConfig::optimized(),
        1,
        move |comm, _| uniform_allgatherv(comm, algo, block),
    )
    .time
}

const GRID: usize = 100;
const LEVELS: usize = 3;

/// One multigrid solve (setup excluded from the clock), as in fig17 but
/// at machine sizes that sweep past the paper's testbed.
fn mg_solve_time(nprocs: usize) -> SimTime {
    let out = Cluster::new(ClusterConfig::paper_testbed(nprocs)).run(|rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        let h = 1.0 / GRID as f64;
        let mg = Multigrid::new(
            &mut comm,
            &[GRID, GRID, GRID],
            h,
            LEVELS,
            ScatterBackend::Datatype,
        );
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
        comm.barrier();
        comm.rank_mut().reset_clock();
        let settings = KspSettings {
            rtol: 1e-6,
            max_it: 30,
            backend: ScatterBackend::Datatype,
        };
        let res = richardson(&mut comm, &op, &mg, 1.0, &b, &mut x, &settings);
        assert!(res.converged, "MG solve did not converge: {res:?}");
        comm.rank_ref().now()
    });
    out.into_iter().max().expect("nonempty")
}

/// 8 doubles per rank: latency-dominated, where the ring's O(N) hop
/// count shows its knee.
const SMALL_BLOCK: usize = 64;
/// 2K doubles per rank: bandwidth-dominated, where the algorithms
/// converge to moving the same bytes.
const LARGE_BLOCK: usize = 16 * 1024;

fn main() {
    let cli = BenchCli::parse();
    let wall = std::time::Instant::now();
    let mut last_mark = 0.0f64;
    let mut mark = |label: &str| {
        let t = wall.elapsed().as_secs_f64();
        eprintln!(
            "[ext_scale wall] {label}: {:.1}s (total {t:.1}s)",
            t - last_mark
        );
        last_mark = t;
    };
    // The whole point of this bench is the big-N tail, so `--smoke` keeps
    // the issue's headline sizes (N = 1024 allgatherv, 128-rank
    // multigrid) and trims only the interior points and the
    // large-message sweep.
    let procs: &[usize] = if cli.smoke {
        &[64, 256, 1024]
    } else {
        &[64, 128, 256, 512, 1024]
    };

    // (a) Small fixed block: latency-bound knee.
    let mut ring_s = Series::new("ring");
    let mut rd_s = Series::new("recursive-doubling");
    let mut ratio = Series::new("ring/rd ratio");
    for &n in procs {
        let tr = allgatherv_latency(n, AllgathervAlgorithm::Ring, SMALL_BLOCK);
        let td = allgatherv_latency(n, AllgathervAlgorithm::RecursiveDoubling, SMALL_BLOCK);
        ring_s.push(n.to_string(), tr.as_us());
        rd_s.push(n.to_string(), td.as_us());
        ratio.push(n.to_string(), tr.as_ns() as f64 / td.as_ns() as f64);
    }
    mark("allgatherv small-block sweep");
    let series_a = [ring_s, rd_s, ratio];
    let plain = RunCapture::default();
    report(
        "ext_scale_allgatherv_small",
        "processes",
        "latency (usec), 64 B/rank",
        &series_a,
        &plain,
    );

    // (b) Large block: bandwidth-bound, gap closes. Skipped in smoke —
    // it moves 16 MB per rank pair at N=1024 and adds nothing to the
    // gate the small-block sweep doesn't already pin.
    let mut series_b: Vec<Series> = Vec::new();
    if !cli.smoke {
        let mut ring_l = Series::new("ring");
        let mut rd_l = Series::new("recursive-doubling");
        for &n in procs {
            let tr = allgatherv_latency(n, AllgathervAlgorithm::Ring, LARGE_BLOCK);
            let td = allgatherv_latency(n, AllgathervAlgorithm::RecursiveDoubling, LARGE_BLOCK);
            ring_l.push(n.to_string(), tr.as_us());
            rd_l.push(n.to_string(), td.as_us());
        }
        mark("allgatherv large-block sweep");
        series_b = vec![ring_l, rd_l];
        report(
            "ext_scale_allgatherv_large",
            "processes",
            "latency (usec), 16 KB/rank",
            &series_b,
            &plain,
        );
    }

    // (c) §5.5 multigrid at the paper's full machine size.
    let mg_procs: &[usize] = if cli.smoke { &[128] } else { &[32, 64, 128] };
    let mut mg = Series::new("MVAPICH2-New");
    for &n in mg_procs {
        let t = mg_solve_time(n);
        mg.push(n.to_string(), t.as_secs());
    }
    mark("multigrid sweep");
    let series_c = [mg];
    report(
        "ext_scale_multigrid",
        "processes",
        "execution time (sec)",
        &series_c,
        &plain,
    );

    // Observatory pass: one fully traced run of the smallest sweep point
    // (tracing all 1024 ranks would dominate the bench); the ledgered run
    // still carries every big-N series.
    if cli.wants_observatory() {
        let traced = time_phase(
            ClusterConfig::uniform(procs[0]).observe(Observers::ALL),
            MpiConfig::optimized(),
            1,
            |comm, _| uniform_allgatherv(comm, AllgathervAlgorithm::RecursiveDoubling, SMALL_BLOCK),
        );
        let knobs = vec![
            ("procs".to_string(), procs[0].to_string()),
            ("block_bytes".to_string(), SMALL_BLOCK.to_string()),
            ("algo".to_string(), "recursive_doubling".to_string()),
        ];
        let mut ledgered: Vec<Series> = Vec::new();
        ledgered.extend(series_a);
        ledgered.extend(series_c);
        if !cli.smoke {
            // The large-block sweep reuses the small-block pair's labels.
            ledgered.extend(relabel("large", &series_b));
        }
        cli.observatory("ext_scale", &knobs, &ledgered, &traced);
    }
}
