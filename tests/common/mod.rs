//! What the observatory tests share: one small observed run, rendered to
//! its ledger artifacts by the real writers.

use nucomm::core::{decisions_from_trace, decisions_json, Comm, MpiConfig};
use nucomm::simnet::{
    analysis_json, attribute_rounds, comm_matrix_json, diagnose, diagnosis_json, merge_comm_maps,
    metrics_artifact_json, series_json, Cluster, ClusterConfig, HbGraph, LedgerRun,
    MetricsRegistry, RunManifest, Series, SCHEMA_VERSION,
};

/// Sixteen ranks gather one 32 KiB outlier among 8-byte blocks, every
/// observer on; returns the run as the ledger would hold it.
pub fn ledgered(flavor: &str, cfg: MpiConfig) -> LedgerRun {
    let n = 16;
    let mut counts = vec![8usize; n];
    counts[0] = 32 * 1024;
    let parts = Cluster::new(ClusterConfig::paper_testbed(n)).run(move |rank| {
        rank.enable_tracing();
        rank.enable_metrics();
        rank.enable_comm_map();
        let mut comm = Comm::new(rank, cfg.clone());
        let mut recv = vec![0u8; counts.iter().sum()];
        comm.allgatherv(&vec![1u8; counts[comm.rank()]], &counts, &mut recv);
        let rank = comm.rank_mut();
        let done = rank.now();
        (
            rank.take_trace(),
            rank.take_comm_map(),
            rank.take_metrics(),
            done,
        )
    });
    let mut metrics = MetricsRegistry::enabled();
    let (mut traces, mut maps, mut makespan) = (Vec::new(), Vec::new(), 0);
    for (trace, map, reg, done) in parts {
        traces.push(trace);
        maps.push(map);
        metrics.merge(&reg);
        makespan = makespan.max(done.as_ns());
    }
    let mut latency = Series::new("allgatherv-ns");
    latency.push("16", makespan as f64);
    let path = HbGraph::build(&traces).critical_path();
    let artifacts: Vec<(String, String)> = [
        (
            "analysis.json",
            analysis_json(&path, &attribute_rounds(&traces)),
        ),
        ("comm.json", comm_matrix_json(&merge_comm_maps(&maps))),
        (
            "decisions.json",
            decisions_json(&decisions_from_trace(&traces[0])),
        ),
        ("diagnosis.json", diagnosis_json(&diagnose(&traces))),
        ("metrics.json", metrics_artifact_json(&metrics.snapshot())),
        ("series.json", series_json("roundtrip", true, &[latency])),
    ]
    .into_iter()
    .map(|(name, json)| (name.to_string(), json))
    .collect();
    let knobs = vec![("flavor".to_string(), flavor.to_string())];
    LedgerRun {
        manifest: RunManifest {
            bench: "roundtrip".to_string(),
            mode: "smoke".to_string(),
            schema: SCHEMA_VERSION,
            run_id: nucomm::simnet::ledger::run_id("roundtrip", "smoke", &knobs, &artifacts),
            knobs,
        },
        artifacts,
    }
}
