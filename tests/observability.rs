//! Cross-layer checks on the observability layer:
//!
//! 1. The metrics registry's per-kind time counters equal the flat
//!    [`Stats`] accounting on the Figure 13 transpose exactly, kind by
//!    kind: both are fed from the one charge site, `Rank::charge_span`.
//! 2. The paper's qualitative claim read back through metrics alone: the
//!    single-context engine's search share grows with the matrix, the
//!    dual-context engine's stays at zero.
//! 3. Turning every observability feature on changes nothing about the
//!    simulated timings: instrumentation must never touch the clock.

use nucomm::core::{Comm, MpiConfig};
use nucomm::datatype::{matrix_column_type, Datatype};
use nucomm::simnet::{
    check_severity_bound, diagnose, Cluster, ClusterConfig, CostKind, MetricsRegistry, Observers,
    SimTime, Stats, Tag,
};

/// The Figure 13 workload: rank 0 sends `n` strided columns, rank 1
/// receives them contiguously. Returns per-rank stats and the cluster-wide
/// merged metrics registry.
fn transpose_run(n: usize, cfg: MpiConfig) -> (Vec<Stats>, MetricsRegistry) {
    let metrics = Observers {
        metrics: true,
        ..Observers::NONE
    };
    let run = Cluster::new(ClusterConfig::uniform(2).observe(metrics)).try_run(|rank| {
        let mut comm = Comm::new(rank, cfg.clone());
        let bytes = n * n * 24;
        let col = matrix_column_type(n, n, 3).expect("column type");
        if comm.rank() == 0 {
            let src = vec![1u8; bytes];
            comm.send(&src, &col, n, 1, Tag(7));
        } else {
            let row = Datatype::contiguous(bytes, &Datatype::byte()).expect("row type");
            let mut dst = vec![0u8; bytes];
            comm.recv(&mut dst, &row, 1, Some(0), Tag(7));
        }
        comm.rank_ref().stats().clone()
    });
    let (stats, capture) = run.unwrap();
    (stats, capture.metrics.expect("metered"))
}

#[test]
fn metrics_time_counters_equal_stats_exactly() {
    // A kind's key exists once anything was charged to it, zero-ns
    // charges included: compute is charged nowhere in a transpose, search
    // only by the single-context engine.
    let baseline_keys = ["time/comm", "time/pack", "time/search", "time/wait"];
    let optimized_keys = ["time/comm", "time/pack", "time/wait"];
    for (cfg, want_keys) in [
        (MpiConfig::baseline(), &baseline_keys[..]),
        (MpiConfig::optimized(), &optimized_keys[..]),
    ] {
        let (stats, metrics) = transpose_run(256, cfg);
        let mut total = Stats::new();
        for s in &stats {
            total.merge(s);
        }
        for kind in CostKind::ALL {
            let from_stats = match kind {
                CostKind::Comm => total.comm,
                CostKind::Pack => total.pack,
                CostKind::Search => total.search,
                CostKind::Compute => total.compute,
                CostKind::Wait => total.wait,
            }
            .as_ns();
            assert_eq!(
                metrics.counter("time", kind.label(), ""),
                from_stats,
                "{kind:?}: the time counter and Stats disagree"
            );
        }
        let keys: Vec<String> = metrics
            .snapshot()
            .counters
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| k.starts_with("time/"))
            .collect();
        assert_eq!(keys, want_keys);
    }
}

#[test]
fn search_share_grows_single_context_and_stays_zero_dual() {
    let search_ns = |metrics: &MetricsRegistry| metrics.counter("time", "search", "");
    let searched = |metrics: &MetricsRegistry, engine: &str| {
        metrics.counter("engine", "searched_segments", engine)
    };

    let (_, small_base) = transpose_run(64, MpiConfig::baseline());
    let (_, large_base) = transpose_run(512, MpiConfig::baseline());
    assert!(
        search_ns(&large_base) > search_ns(&small_base),
        "baseline search time must grow with the matrix: {} !> {}",
        search_ns(&large_base),
        search_ns(&small_base)
    );
    assert!(
        searched(&large_base, "single-context") > searched(&small_base, "single-context"),
        "baseline must walk more segments on the larger matrix"
    );

    let (_, large_opt) = transpose_run(512, MpiConfig::optimized());
    assert_eq!(
        search_ns(&large_opt),
        0,
        "dual-context engine must charge no search time"
    );
    assert_eq!(
        searched(&large_opt, "dual-context"),
        0,
        "dual-context engine must walk no segments"
    );
    // Both flavors still pack the same noncontiguous source.
    assert!(searched(&large_base, "single-context") > 0);
    assert!(large_opt.counter("engine", "invocations", "dual-context") > 0);
}

/// The workload for the no-overhead check: an allgatherv (multi-round
/// collective, exercises rounds instrumentation) followed by an alltoallw
/// (bin counters) and a strided send/recv pair (engine counters), inside
/// one profiling stage (a no-op unless the run profiles).
fn busy_workload(rank: &mut nucomm::simnet::Rank, cfg: &MpiConfig) -> SimTime {
    rank.stage_begin("workload");
    let mut comm = Comm::new(rank, cfg.clone());
    let n = comm.size();
    let me = comm.rank();

    let counts: Vec<usize> = (0..n).map(|r| 64 * (r + 1)).collect();
    let mine = vec![me as u8; counts[me]];
    let mut gathered = vec![0u8; counts.iter().sum()];
    comm.allgatherv(&mine, &counts, &mut gathered);

    let m = Datatype::contiguous(128, &Datatype::byte()).expect("block");
    let empty = Datatype::contiguous(0, &Datatype::byte()).expect("empty");
    let succ = (me + 1) % n;
    let mut sends: Vec<nucomm::core::WPeer> = (0..n)
        .map(|_| nucomm::core::WPeer::new(0, 0, empty.clone()))
        .collect();
    let mut recvs = sends.clone();
    sends[succ] = nucomm::core::WPeer::new(0, 1, m.clone());
    recvs[(me + n - 1) % n] = nucomm::core::WPeer::new(0, 1, m.clone());
    let sendbuf = vec![me as u8; 128];
    let mut recvbuf = vec![0u8; 128];
    comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);

    let col = matrix_column_type(32, 32, 3).expect("column type");
    let bytes = 32 * 32 * 24;
    if me == 0 {
        comm.send(&vec![2u8; bytes], &col, 32, 1, Tag(9));
    } else if me == 1 {
        let row = Datatype::contiguous(bytes, &Datatype::byte()).expect("row");
        let mut dst = vec![0u8; bytes];
        comm.recv(&mut dst, &row, 1, Some(0), Tag(9));
    }
    comm.barrier();
    comm.rank_mut().stage_end("workload");
    comm.rank_ref().now()
}

#[test]
fn observability_disabled_and_enabled_produce_identical_times() {
    for cfg in [MpiConfig::baseline(), MpiConfig::optimized()] {
        for ranks in [4, 8] {
            let quiet = Cluster::new(ClusterConfig::paper_testbed(ranks))
                .run(|rank| busy_workload(rank, &cfg));
            // Every observer, the temporal layer included: epoch history
            // (which pulls in the comm map) and the drift monitor it arms.
            let everything = ClusterConfig::paper_testbed(ranks).observe(Observers::ALL);
            let (observed, capture) = Cluster::new(everything)
                .try_run(|rank| busy_workload(rank, &cfg))
                .unwrap();
            let traces = capture.traces.expect("traced");
            assert_eq!(
                quiet, observed,
                "metrics/tracing/profiling/history must not perturb simulated time \
                 ({:?}, {ranks} ranks)",
                cfg.flavor
            );

            // Diagnosis is post-mortem: it classifies the traces the
            // observed run captured at zero cost, so the full diagnosis
            // pipeline runs off a clock that matches the quiet run's.
            let diag = diagnose(&traces);
            assert_eq!(diag.n, ranks);
            assert!(
                diag.makespan <= *observed.iter().max().expect("nonempty"),
                "the diagnosed makespan comes from the same unperturbed clock"
            );
            assert_eq!(
                check_severity_bound(&traces, &diag),
                None,
                "classified severity stays within the attributed wait"
            );
        }
    }
}
