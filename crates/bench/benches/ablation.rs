//! Ablation studies of the design constants the paper (and DESIGN.md)
//! call out, in simulated time:
//!
//! * the look-ahead window size — the paper uses ~15 elements and argues
//!   the look-ahead cost is "near constant"; sweeping the window shows the
//!   trade-off between classification quality and redundant parsing;
//! * the alltoallw bin structure — {1 bin (= round robin order but
//!   zero-exempt), 2 bins (zero + rest), 3 bins (zero/small/large, the
//!   paper's choice)};
//! * the outlier-ratio threshold of the allgatherv detector.

use ncd_bench::{report, time_phase, BenchCli, RunCapture, Series};
use ncd_core::{AlltoallwSchedule, Comm, MpiConfig, WPeer};
use ncd_datatype::{matrix_column_type, Datatype, EngineParams};
use ncd_simnet::{Cluster, ClusterConfig, SimTime, Tag};

/// Like `ncd_bench::time_phase` but reporting the MEAN per-rank completion
/// time: the bin ablation's effect is that *cheap receivers finish early*,
/// which a max-over-ranks metric cannot see.
fn mean_time_phase<F>(
    cluster_cfg: ClusterConfig,
    mpi_cfg: MpiConfig,
    reps: usize,
    body: F,
) -> SimTime
where
    F: Fn(&mut Comm, usize) + Send + Sync,
{
    let out = Cluster::new(cluster_cfg).run(|rank| {
        let mut comm = Comm::new(rank, mpi_cfg.clone());
        body(&mut comm, usize::MAX);
        comm.barrier();
        comm.rank_mut().reset_clock();
        for it in 0..reps {
            body(&mut comm, it);
        }
        comm.rank_ref().now()
    });
    let mean_ns = out.iter().map(|t| t.as_ns()).sum::<u64>() / out.len() as u64;
    SimTime::from_ns(mean_ns / reps as u64)
}

/// Sweep the dual-context engine's look-ahead window on the transpose
/// workload.
fn ablate_lookahead(cli: &BenchCli) {
    let n = 512usize;
    let mut s = Series::new("dual-context");
    for window in [1usize, 4, 15, 64, 256] {
        let mut cfg = MpiConfig::optimized();
        cfg.engine = EngineParams {
            lookahead_segments: window,
            ..EngineParams::default()
        };
        let bytes = n * n * 24;
        let cluster = ClusterConfig::uniform(2);
        let run = time_phase(cluster, cfg, 2, move |comm, _| {
            let col = matrix_column_type(n, n, 3).expect("column type");
            if comm.rank() == 0 {
                comm.send(&vec![1u8; bytes], &col, n, 1, Tag(0));
            } else {
                let row = Datatype::contiguous(bytes, &Datatype::byte()).expect("row");
                let mut dst = vec![0u8; bytes];
                comm.recv(&mut dst, &row, 1, Some(0), Tag(0));
            }
        });
        s.push(window.to_string(), run.time.as_ms());
    }
    report(
        cli,
        "ablation_lookahead_window",
        "window (segments)",
        "512x512 transpose latency (msec)",
        &[s],
        &RunCapture::default(),
    );
}

/// Compare alltoallw schedules: the full round robin, a zero-exempt
/// variant without small-first ordering, and the paper's three bins.
///
/// Workload: every rank sends an *expensive-to-pack* noncontiguous 32 KB
/// message to its successor and a tiny message two ranks ahead. With only
/// zero exemption the tiny message is packed after the large one (ring
/// distance order), so its receiver idles through ~170 us of datatype
/// processing; the small-first bin removes that wait. Metric: mean
/// per-rank completion (the benefit accrues to the cheap receivers).
fn ablate_bins(cli: &BenchCli) {
    let mut rr = Series::new("round-robin (1 bin)");
    let mut zero_exempt = Series::new("zero-exempt (2 bins)");
    let mut binned = Series::new("three bins");
    for &n in &[8usize, 32, 128] {
        let run = |schedule: AlltoallwSchedule, small_threshold: usize| -> SimTime {
            let mut cfg = MpiConfig::optimized();
            cfg.small_msg_threshold = small_threshold;
            // One iteration: the small-first ordering is a *latency* effect
            // on each operation; back-to-back repetitions pipeline and hide
            // it behind the busy ranks' steady-state packing throughput.
            mean_time_phase(ClusterConfig::paper_testbed(n), cfg, 1, move |comm, _| {
                let me = comm.rank();
                let size = comm.size();
                let b = size / 2; // ranks 0..b are "busy", the rest "light"
                                  // Sparse 32 KB type: every other double of a 64 KB
                                  // region — expensive to pack (one segment per element).
                let sparse = Datatype::vector(4096, 1, 2, &Datatype::double()).expect("big");
                let small = Datatype::contiguous(2, &Datatype::double()).expect("small");
                let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty");
                let mut sends: Vec<WPeer> =
                    (0..size).map(|_| WPeer::new(0, 0, empty.clone())).collect();
                let mut recvs = sends.clone();
                if me < b {
                    // Busy: big message around the busy ring, plus a
                    // tiny message to a light partner — which, without
                    // the small-first bin, queues behind the expensive
                    // pack of the big one.
                    sends[(me + 1) % b] = WPeer::new(0, 1, sparse.clone());
                    recvs[(me + b - 1) % b] = WPeer::new(0, 1, sparse.clone());
                    sends[b + me] = WPeer::new(8, 1, small.clone());
                    recvs[b + me] = WPeer::new(16, 1, small.clone());
                } else {
                    // Light: exchanges a tiny message with its busy
                    // partner; its completion time is what the
                    // small-first ordering protects.
                    let partner = me - b;
                    sends[partner] = WPeer::new(8, 1, small.clone());
                    recvs[partner] = WPeer::new(16, 1, small.clone());
                }
                let sendbuf = vec![me as u8; 65536];
                let mut recvbuf = vec![0u8; 65536];
                comm.alltoallw_with(schedule, &sendbuf, &sends, &mut recvbuf, &recvs);
            })
        };
        rr.push(
            n.to_string(),
            run(AlltoallwSchedule::RoundRobin, 1024).as_us(),
        );
        // "2 bins": zero exemption but everything else in one bin (a tiny
        // small-threshold puts all real messages in the large bin).
        zero_exempt.push(n.to_string(), run(AlltoallwSchedule::Binned, 0).as_us());
        binned.push(n.to_string(), run(AlltoallwSchedule::Binned, 1024).as_us());
    }
    report(
        cli,
        "ablation_alltoallw_bins",
        "processes",
        "mean completion (usec)",
        &[rr, zero_exempt, binned],
        &RunCapture::default(),
    );
}

/// Sweep the outlier-ratio threshold on a mildly skewed volume set: too
/// low a threshold sends uniform workloads down the (slower there)
/// binomial algorithms; too high misses real outliers.
fn ablate_outlier_threshold(cli: &BenchCli) {
    let n = 64usize;
    let mut uniform_s = Series::new("heavy tail (ratio=4)");
    let mut outlier_s = Series::new("one 32KB outlier");
    for threshold in [1.5f64, 4.0, 8.0, 64.0, 1e9] {
        let run = |outlier: bool| -> SimTime {
            let mut cfg = MpiConfig::optimized();
            cfg.outlier_ratio = threshold;
            let cluster = ClusterConfig::uniform(n);
            time_phase(cluster, cfg, 5, move |comm, _| {
                // Heavy-tailed spread (ratio exactly 4 between the max and
                // the 0.9-quantile) vs one true outlier (ratio ~4096).
                let mut counts: Vec<usize> = (0..n)
                    .map(|i| if i % 13 == 0 { 4096 } else { 1024 })
                    .collect();
                if outlier {
                    counts = vec![8usize; n];
                    counts[0] = 32 * 1024;
                }
                let me = comm.rank();
                let send = vec![me as u8; counts[me]];
                let mut recv = vec![0u8; counts.iter().sum()];
                comm.allgatherv(&send, &counts, &mut recv);
            })
            .time
        };
        uniform_s.push(format!("{threshold}"), run(false).as_us());
        outlier_s.push(format!("{threshold}"), run(true).as_us());
    }
    report(
        cli,
        "ablation_outlier_threshold",
        "ratio threshold",
        "allgatherv latency (usec), 64 procs",
        &[uniform_s, outlier_s],
        &RunCapture::default(),
    );
}

fn main() {
    let cli = BenchCli::parse();
    ablate_lookahead(&cli);
    ablate_bins(&cli);
    ablate_outlier_threshold(&cli);
}
