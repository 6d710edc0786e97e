//! The metric tables: every name the benchmark prints, its unit, which
//! direction is better, and whether it must repeat exactly. `BENCHMARK.json`
//! lists the same names (a test keeps the two in step); `README.md` says
//! what each means and which end-to-end number it should move.

use crate::harness::RunData;
use crate::probes::Values;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Host timings vary run to run; simulated times and counts are a
    /// function of the seed and must repeat bit for bit.
    pub exact: bool,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only; layer metrics have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, exact: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact,
        bound,
    }
}

/// The four end-to-end metrics, per workload.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_s", "s", false, 0.25),
    e2e("sim_makespan_us", "us", true, 0.02),
    e2e("peak_rss_mib", "MiB", false, 0.20),
    e2e("setup_s", "s", false, 0.25),
];

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
        bound: 0.0,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: true,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Every layer metric, grouped by the module it measures.
pub const PER_LAYER: [MetricDef; 76] = [
    // datatype
    host("datatype.pack_single_gbps", "GB/s", Higher),
    host("datatype.pack_dual_gbps", "GB/s", Higher),
    host("datatype.pack_tree_gbps", "GB/s", Higher),
    host("datatype.unpack_gbps", "GB/s", Higher),
    host("datatype.handcopy_gbps", "GB/s", Higher),
    host("datatype.pack_vs_handcopy", "ratio", Higher),
    host("datatype.commit_us", "us", Lower),
    exact("datatype.segments_packed", "count"),
    exact("datatype.segments_searched", "count"),
    // simnet.sched
    host("sched.switch_ns", "ns", Lower),
    host("sched.switch_handoff_ns", "ns", Lower),
    host("sched.spawn_us_per_rank", "us", Lower),
    exact("sched.resumes", "count"),
    exact("sched.parks_blocked", "count"),
    exact("sched.deposit_wakes", "count"),
    exact("sched.mean_ready_depth", "count"),
    exact("sched.max_stack_bytes", "B"),
    // simnet.mailbox
    host("mailbox.recv_ns_d1", "ns", Lower),
    host("mailbox.recv_ns_d64", "ns", Lower),
    host("mailbox.recv_ns_d1024", "ns", Lower),
    host("mailbox.wildcard_ns_d1024", "ns", Lower),
    // simnet.runtime + core.comm / core.request
    host("p2p.pingpong_ns", "ns", Lower),
    host("p2p.stream_ns_per_msg", "ns", Lower),
    host("p2p.bulk_gbps", "GB/s", Higher),
    exact("p2p.msgs", "count"),
    exact("p2p.bytes", "B"),
    host("p2p.host_ns_per_msg", "ns", Lower),
    // core.coll
    host("coll.agv_ring64_msgs_per_s", "1/s", Higher),
    host("coll.agv_rd64_msgs_per_s", "1/s", Higher),
    host("coll.agv_ring1024_msgs_per_s", "1/s", Higher),
    host("coll.agv_rd1024_msgs_per_s", "1/s", Higher),
    exact("coll.agv_ring1024_sim_us", "us"),
    exact("coll.agv_rd1024_sim_us", "us"),
    host("coll.a2aw_rr_ns_per_msg", "ns", Lower),
    host("coll.a2aw_binned_ns_per_msg", "ns", Lower),
    host("coll.select_outlier_ns_n1024", "ns", Lower),
    host("coll.kselect_ns_n1e6", "ns", Lower),
    // petsc
    host("petsc.scatter_create_ms", "ms", Lower),
    host("petsc.scatter_apply_dt_us", "us", Lower),
    exact("petsc.scatter_sim_dt_us", "us"),
    host("petsc.scatter_apply_hand_us", "us", Lower),
    exact("petsc.scatter_sim_hand_us", "us"),
    host("petsc.scatter_apply_base_us", "us", Lower),
    exact("petsc.scatter_sim_base_us", "us"),
    host("petsc.mg_setup_s", "s", Lower),
    host("petsc.mg_solve_s", "s", Lower),
    exact("petsc.mg_iterations", "count"),
    host("petsc.ghost_exchange_us", "us", Lower),
    host("petsc.stencil_mpts_per_s", "Mpt/s", Higher),
    // observers: simnet.trace / metrics / commmap / history
    host("observe.run_plain_s", "s", Lower),
    host("observe.run_traced_s", "s", Lower),
    host("observe.bill_tracing_x", "ratio", Lower),
    host("observe.bill_metrics_x", "ratio", Lower),
    host("observe.bill_commmap_x", "ratio", Lower),
    host("observe.bill_history_x", "ratio", Lower),
    host("observe.bill_all_x", "ratio", Lower),
    exact("observe.trace_events", "count"),
    host("observe.trace_ns_per_event", "ns", Lower),
    exact("observe.trace_mib", "MiB"),
    // simnet.analysis / diagnosis / export / ledger, core.compare / whatif
    host("analysis.hb_build_s", "s", Lower),
    host("analysis.critical_path_s", "s", Lower),
    host("analysis.attribute_s", "s", Lower),
    host("analysis.ns_per_event", "ns", Lower),
    host("diagnosis.classify_s", "s", Lower),
    exact("diagnosis.findings", "count"),
    host("export.chrome_json_s", "s", Lower),
    host("export.chrome_mb_per_s", "MB/s", Higher),
    host("export.artifacts_s", "s", Lower),
    exact("export.bytes", "B"),
    host("ledger.write_s", "s", Lower),
    host("ledger.read_parse_s", "s", Lower),
    host("compare.diff_s", "s", Lower),
    host("whatif.profile_s", "s", Lower),
    exact("whatif.replays", "count"),
    // the traced workload run itself
    host("run.wall_s", "s", Lower),
    host("run.measure_cover_pct", "%", Higher),
];

/// Layer metrics that describe the traced workload run (the rest come
/// from the probes): scheduler survey, message counts of round 0, and
/// how much of the `measure` span its children account for.
pub fn workload_values(d: &RunData) -> Values {
    let msgs: u64 = d.rounds[0].iter().map(|p| p.msgs).sum();
    let bytes: u64 = d.rounds[0].iter().map(|p| p.bytes).sum();
    let measure = d
        .spans
        .find("measure")
        .expect("every run has a measure span");
    let cover =
        (100.0 * d.spans.child_coverage_s(measure) / d.spans.duration_s(measure)).min(100.0);
    vec![
        ("sched.resumes", d.sched.resumes as f64),
        ("sched.parks_blocked", d.sched.parks_blocked as f64),
        ("sched.deposit_wakes", d.sched.deposit_wakes as f64),
        ("sched.mean_ready_depth", d.sched.mean_depth()),
        ("sched.max_stack_bytes", d.sched.max_stack_bytes as f64),
        ("p2p.msgs", msgs as f64),
        ("p2p.bytes", bytes as f64),
        (
            "p2p.host_ns_per_msg",
            d.wall_s() * 1e9 / (msgs.max(1)) as f64,
        ),
        ("run.wall_s", d.wall_s()),
        ("run.measure_cover_pct", cover),
    ]
}

/// Order `values` like [`PER_LAYER`], insisting every metric appears
/// exactly once.
pub fn per_layer_in_order(values: &Values) -> Result<Vec<(MetricDef, f64)>, String> {
    for (name, _) in values {
        if !PER_LAYER.iter().any(|m| m.name == *name) {
            return Err(format!("measured a metric the table does not list: {name}"));
        }
    }
    PER_LAYER
        .iter()
        .map(|def| {
            let mut hits = values.iter().filter(|(n, _)| *n == def.name);
            match (hits.next(), hits.next()) {
                (Some((_, v)), None) if v.is_finite() => Ok((*def, *v)),
                (Some((_, v)), None) => Err(format!("{} is not finite: {v}", def.name)),
                (None, _) => Err(format!("{} was not measured", def.name)),
                (Some(_), Some(_)) => Err(format!("{} was measured twice", def.name)),
            }
        })
        .collect()
}
