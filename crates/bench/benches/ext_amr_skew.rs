//! Extension study (the paper's §7 future work): how adaptive-mesh load
//! imbalance interacts with the alltoallw schedule.
//!
//! A moving refinement hotspot gives a few ranks `2^(2·level)` times the
//! compute and boundary volume of the rest. We sweep the refinement depth
//! and the machine size; the round-robin schedule globalizes the hotspot's
//! delay through its zero-byte synchronizations, the binned schedule
//! confines it to the hotspot's neighbourhood.
//!
//! Every run also collects the communication map and the decision-audit
//! metrics (neither touches the simulated clock, so the latencies are
//! identical to an uninstrumented run): the depth-sweep report appends
//! the who-talks-to-whom heatmap and the algorithm-decision table.
//!
//! `--smoke` shrinks the machine and the sweeps for CI, which gates the
//! run against its committed reference with
//! `--compare benches/baselines/observatory`.

use ncd_bench::{
    amr_diag_loop, amr_diag_workload, improvement_pct, relabel, report, whatif_phase, BenchCli,
    RunCapture, Series, AMR_DIAG_OUTLIER,
};
use ncd_core::{decisions_from_trace, detect_misselections, Comm, MpiConfig, WPeer};
use ncd_datatype::Datatype;
use ncd_simnet::{Capture, Cluster, ClusterCommMap, ClusterConfig, MetricsRegistry, Observers};

const STEPS: usize = 10;
const BASE_CELLS: u64 = 2_000;

fn level(rank: usize, spot: usize, n: usize, depth: u32) -> u32 {
    let d = rank.abs_diff(spot).min(n - rank.abs_diff(spot));
    depth.saturating_sub(d as u32)
}

/// One run of [`STEPS`] refinement steps; `time` is the whole run's
/// makespan.
fn run(nranks: usize, depth: u32, cfg: MpiConfig) -> RunCapture {
    const OBSERVE: Observers = Observers {
        metrics: true,
        comm_map: true,
        ..Observers::NONE
    };
    let cluster = ClusterConfig::paper_testbed(nranks).observe(OBSERVE);
    let out = Cluster::new(cluster).try_run(|rank| {
        let mut comm = Comm::new(rank, cfg.clone());
        let me = comm.rank();
        let n = comm.size();
        comm.barrier();
        let rank = comm.rank_mut();
        rank.reset_clock();
        // Drop the warmup barrier's stats and traffic.
        let _ = rank.take_stats();
        let _ = rank.harvest();
        for step in 0..STEPS {
            let spot = (step * 5) % n;
            let my_level = level(me, spot, n, depth);
            comm.rank_mut().compute_flops(BASE_CELLS << (2 * my_level));

            let succ = (me + 1) % n;
            let pred = (me + n - 1) % n;
            let cells = 16usize << (2 * my_level);
            let dt = Datatype::contiguous(cells, &Datatype::double()).expect("boundary");
            let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty");
            let mut sends: Vec<WPeer> = (0..n).map(|_| WPeer::new(0, 0, empty.clone())).collect();
            let mut recvs = sends.clone();
            sends[succ] = WPeer::new(0, 1, dt.clone());
            sends[pred] = WPeer::new(0, 1, dt.clone());
            let sc = 16usize << (2 * level(succ, spot, n, depth));
            let pc = 16usize << (2 * level(pred, spot, n, depth));
            recvs[succ] = WPeer::new(
                0,
                1,
                Datatype::contiguous(sc, &Datatype::double()).expect("succ"),
            );
            recvs[pred] = WPeer::new(
                sc * 8,
                1,
                Datatype::contiguous(pc, &Datatype::double()).expect("pred"),
            );
            let sendbuf = vec![me as u8; cells * 8];
            let mut recvbuf = vec![0u8; (sc + pc) * 8];
            comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
        }
        (comm.rank_ref().now(), comm.rank_mut().take_stats())
    });
    RunCapture::of(out)
}

fn main() {
    let cli = BenchCli::parse();
    let smoke = cli.smoke;
    let (depth_ranks, depths) = if smoke {
        (16usize, 0..=2u32)
    } else {
        (64usize, 0..=4u32)
    };
    let scaling: &[usize] = if smoke {
        &[8, 16]
    } else {
        &[8, 16, 32, 64, 128]
    };

    // (a) Refinement-depth sweep. The decision metrics from every run are
    // merged (so the audit table shows both schedules side by side); the
    // comm map shown is the deepest baseline run's — the most skewed
    // traffic the sweep produces.
    let mut base = Series::new("round-robin");
    let mut binned = Series::new("three-bin");
    let mut imp = Series::new("improvement-%");
    let mut decisions = MetricsRegistry::enabled();
    let mut skew_map: Option<ClusterCommMap> = None;
    for depth in depths {
        let rb = run(depth_ranks, depth, MpiConfig::baseline());
        let rn = run(depth_ranks, depth, MpiConfig::optimized());
        decisions.merge(rb.capture.metrics.as_ref().expect("metrics observed"));
        decisions.merge(rn.capture.metrics.as_ref().expect("metrics observed"));
        skew_map = rb.capture.comm_map;
        base.push(depth.to_string(), rb.time.as_ms());
        binned.push(depth.to_string(), rn.time.as_ms());
        imp.push(depth.to_string(), improvement_pct(rb.time, rn.time));
    }
    let series_depth = vec![base, binned, imp];
    let sweep = RunCapture {
        capture: Capture {
            metrics: Some(decisions),
            comm_map: skew_map,
            ..Capture::default()
        },
        ..RunCapture::default()
    };
    report(
        "ext_amr_depth",
        "refinement depth",
        &format!("time per run (msec), {depth_ranks} ranks"),
        &series_depth,
        &sweep,
    );

    // (b) Scaling sweep at depth 2.
    let mut base = Series::new("round-robin");
    let mut binned = Series::new("three-bin");
    let mut imp = Series::new("improvement-%");
    for &n in scaling {
        let tb = run(n, 2, MpiConfig::baseline()).time;
        let tn = run(n, 2, MpiConfig::optimized()).time;
        base.push(n.to_string(), tb.as_ms());
        binned.push(n.to_string(), tn.as_ms());
        imp.push(n.to_string(), improvement_pct(tb, tn));
    }
    let series_scaling = vec![base, binned, imp];
    report(
        "ext_amr_scaling",
        "processes",
        "time per run (msec), depth 2",
        &series_scaling,
        &RunCapture::default(),
    );

    // (c) Root-cause diagnosis phase. Its capture carries the run's flight
    // recorders, so a reference-gate failure dumps this run.
    let (diag_series, mut diag_run) = diagnosis_phase(depth_ranks);

    // (d) Counterfactual verification (`--whatif`): plan interventions
    // from the diagnosis the phase above just produced, deterministically
    // replay the same workload under each one, and report which claims
    // survive measurement. The resulting byte-stable JSON rides into the
    // observatory ledger as the run's `whatif.json` artifact.
    if cli.whatif {
        diag_run.whatif = whatif_phase(
            "ext_amr_skew",
            &ClusterConfig::paper_testbed(depth_ranks),
            &MpiConfig::baseline(),
            &diag_run,
            amr_diag_workload,
        );
    }

    // Observatory pass: both sweeps' series (relabelled so the two
    // round-robin/three-bin pairs stay distinct in the differential's
    // join) plus the diagnosis run's traffic matrix and traces — the
    // skewed-allgatherv workload whose wait blame and finding set the
    // finding-diff tracks across commits. Gated: both sweeps' latencies
    // and the outlier's blame share, so the classifier cannot silently
    // drift; the improvement-% series stay out.
    if cli.wants_observatory() {
        let mut ledgered = relabel("depth", &series_depth);
        ledgered.extend(relabel("scaling", &series_scaling));
        ledgered.push(diag_series);
        let knobs = vec![
            ("ranks".to_string(), depth_ranks.to_string()),
            ("steps".to_string(), STEPS.to_string()),
            ("diag_flavor".to_string(), "baseline-ring".to_string()),
        ];
        cli.observatory("ext_amr_skew", &knobs, &ledgered, &diag_run);
    }
}

/// A skewed-counts allgatherv under the *baseline* selector: the outlier
/// rank both computes longest and contributes the outlier volume, and the
/// baseline picks the ring over it (total over the long threshold). The
/// wait-state classifier must blame the majority of the allgatherv wait
/// on the outlier rank via sender-caused patterns, and the decision audit
/// must flag the ring as a misselection.
/// Returns the outlier's blame-share series plus the run's capture
/// (traffic matrix and per-rank traces) so the observatory pass can
/// ledger it.
fn diagnosis_phase(nranks: usize) -> (Series, RunCapture) {
    const OUTLIER: usize = AMR_DIAG_OUTLIER;
    const OBSERVE: Observers = Observers {
        trace: true,
        comm_map: true,
        ..Observers::NONE
    };
    let cluster = ClusterConfig::paper_testbed(nranks).observe(OBSERVE);
    let cost = cluster.cost.clone();
    let cfg = MpiConfig::baseline();
    let mpi = cfg.clone();
    let out = Cluster::new(cluster).try_run(move |rank| {
        let mut comm = Comm::new(rank, mpi.clone());
        comm.barrier();
        let rank = comm.rank_mut();
        rank.reset_clock();
        // Drop the warmup barrier's stats and traffic; its trace events
        // stay, as in the committed reference run.
        let _ = rank.take_stats();
        let _ = rank.take_comm_map();
        // The measured loop is shared with the what-if replay
        // (`amr_diag_workload`), so the counterfactual verifies exactly
        // the workload this phase diagnosed.
        amr_diag_loop(&mut comm);
        (comm.rank_ref().now(), comm.rank_mut().take_stats())
    });
    let run = RunCapture::of(out);
    let traces = run.capture.traces.as_ref().expect("traced");
    let diag = run.diagnosis().expect("traced");
    let decisions = decisions_from_trace(&traces[OUTLIER]);
    let audit = detect_misselections(&decisions, run.capture.comm_map.as_ref(), &cost, &cfg);
    report(
        "ext_amr_diagnosis",
        "metric",
        &format!("skewed allgatherv under the baseline ring, {nranks} ranks"),
        &[],
        &run,
    );

    let op_total = diag.op_severity("allgatherv");
    let outlier_caused = diag.sender_caused_severity("allgatherv", OUTLIER);
    let share = 100.0 * outlier_caused.as_ns() as f64 / op_total.as_ns().max(1) as f64;
    println!(
        "outlier blame share: {share:.1}% of {op_total} allgatherv wait is \
         sender-caused by rank {OUTLIER}"
    );
    assert!(
        share > 50.0,
        "the outlier rank must own the majority of the allgatherv wait, got {share:.1}%"
    );
    assert!(
        audit
            .flags
            .iter()
            .any(|m| m.collective == "allgatherv" && m.chosen == "ring"),
        "the decision audit must flag allgatherv's ring: {:?}",
        audit.flags
    );

    let mut s = Series::new("outlier-blame-share-%");
    s.push("allgatherv", share);
    (s, run)
}
