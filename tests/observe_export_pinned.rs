//! Every observer export of one fully observed run, pinned: how the
//! metrics registry stores a counter and how the JSON writer prints a
//! number are host-side matters and must not move one byte of any
//! artifact or one per-kind `time/<kind>` value.
//!
//! The fixture is a 16-rank run on the jittered testbed with tracing,
//! metrics, comm map and history on: eight auto-selected `allgatherv`s
//! whose outlier grows mid-run (decisions, rounds, a drift in the
//! history), a strided-type `alltoallw` (pack blocks) and one column send
//! (search time). It runs twice, observed through
//! `ClusterConfig::observe(Observers::ALL)` and through the in-closure
//! `enable_*` / `take_*` path the frozen benchmark uses, and both must hit
//! the same digests. Observers are independent: a run with only the trace
//! on, or none at all, holds the same traces and flight recorders, and a
//! run with only metrics on holds the same metrics export.

#[path = "common/observed16.rs"]
mod observed16;

use nucomm::simnet::{
    analysis_json, attribute_rounds, chrome_trace_json, comm_matrix_json, diagnose, diagnosis_json,
    history_json, merge_comm_maps, merge_histories, metrics_json, render_dump, Cluster,
    ClusterCommMap, CostKind, HbGraph, History, MetricsRegistry, Observers, TraceEvent,
};
use observed16::{cluster, program};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The run observed by configuration: every observer, harvested by the
/// runtime.
fn configured() -> Observed {
    let (_, capture) = Cluster::new(cluster().observe(Observers::ALL))
        .try_run(program)
        .unwrap();
    Observed {
        traces: capture.traces.expect("traced"),
        metrics: capture.metrics.expect("metered"),
        comm_map: capture.comm_map.expect("mapped"),
        history: capture.history.expect("history"),
    }
}

/// The run observed the way the frozen benchmark does it: `enable_*`
/// inside the program, `take_*` out through its return value, and the
/// merge by hand. The reference the configured path must match.
fn in_closure() -> Observed {
    let parts = Cluster::new(cluster()).run(|rank| {
        rank.enable_tracing();
        rank.enable_metrics();
        rank.enable_comm_map();
        rank.enable_history();
        program(rank);
        (
            rank.take_trace(),
            rank.take_metrics(),
            rank.take_comm_map(),
            rank.take_history(),
        )
    });
    let mut traces = Vec::new();
    let mut metrics = MetricsRegistry::enabled();
    let mut maps = Vec::new();
    let mut histories = Vec::new();
    for (trace, m, map, history) in parts {
        traces.push(trace);
        metrics.merge(&m);
        maps.push(map);
        histories.push(history);
    }
    Observed {
        traces,
        metrics,
        comm_map: merge_comm_maps(&maps),
        history: merge_histories(&histories),
    }
}

/// What one fully observed run left behind, cluster-wide.
struct Observed {
    traces: Vec<Vec<TraceEvent>>,
    metrics: MetricsRegistry,
    comm_map: ClusterCommMap,
    history: History,
}

/// Every export's name, byte length and digest, and every `time/<kind>`
/// value.
type Digests = (Vec<(&'static str, usize, u64)>, Vec<(&'static str, u64)>);

fn digests(run: &Observed) -> Digests {
    let Observed {
        traces,
        metrics,
        comm_map,
        history,
    } = run;
    let path = HbGraph::build(traces).critical_path();
    let docs = [
        ("chrome_trace_json", chrome_trace_json(traces)),
        ("metrics_json", metrics_json(metrics)),
        ("comm_matrix_json", comm_matrix_json(comm_map)),
        ("history_json", history_json(history)),
        (
            "analysis_json",
            analysis_json(&path, &attribute_rounds(traces)),
        ),
        ("diagnosis_json", diagnosis_json(&diagnose(traces))),
    ];
    let got = docs
        .iter()
        .map(|(name, doc)| (*name, doc.len(), fnv1a(doc.as_bytes())))
        .collect();
    let times = CostKind::ALL
        .iter()
        .map(|k| (k.label(), metrics.counter("time", k.label(), "")))
        .collect();
    (got, times)
}

#[test]
fn every_export_and_time_counter_of_an_observed_run_is_pinned() {
    let want = (DOCS.to_vec(), TIME_NS.to_vec());
    assert_eq!(digests(&in_closure()), want, "enable/take path");
    assert_eq!(digests(&configured()), want, "configured path");
}

/// What a run under `observers` holds: its traces and its metrics export,
/// where observed, and the dump of its flight recorders.
struct Held {
    traces: Option<Vec<Vec<TraceEvent>>>,
    metrics: Option<String>,
    dump: String,
}

fn held(observers: Observers) -> Held {
    let run = Cluster::new(cluster().observe(observers)).try_run(program);
    let dump = render_dump(&run.recorders);
    let capture = run.unwrap().1;
    Held {
        traces: capture.traces,
        metrics: capture.metrics.as_ref().map(metrics_json),
        dump,
    }
}

#[test]
fn one_observer_changes_nothing_another_holds() {
    let all = held(Observers::ALL);
    let (all_traces, events) = (all.traces.expect("traced"), |t: &[Vec<TraceEvent>]| {
        t.iter().map(Vec::len).sum::<usize>()
    });
    let trace_only = held(Observers {
        trace: true,
        ..Observers::NONE
    });
    let traces = trace_only.traces.expect("traced");
    assert!(
        traces == all_traces,
        "the trace alone holds {} events, every observer {}",
        events(&traces),
        events(&all_traces)
    );
    assert_eq!(
        trace_only.dump, all.dump,
        "flight recorders: trace alone vs every observer"
    );
    assert_eq!(
        held(Observers::NONE).dump,
        all.dump,
        "flight recorders: none vs every observer"
    );
    let metrics_only = held(Observers {
        metrics: true,
        ..Observers::NONE
    });
    assert!(
        metrics_only.metrics == all.metrics,
        "metrics_json: metrics alone vs every observer"
    );
    assert_eq!(
        metrics_only.dump, all.dump,
        "flight recorders: metrics alone vs every observer"
    );
}

// Captured at the commit before the time counters moved into fixed slots
// and the writer stopped formatting through `core::fmt`; never edit them
// for a host-side change. The Chrome trace, metrics and analysis digests
// were re-pinned when the per-rank drift monitor and its trace events and
// `drift*/*` metrics were deleted, and the metrics digest again (3 568 →
// 3 360 B) when `allgatherv/{bytes/adaptive, selected/*}`, copies of the
// `decision*/*` keys, were deleted, and again (3 360 → 3 175 B) when
// `engine/{searched_segments, lookahead_segments, packed_blocks}`, copies
// of the `datatype/*` keys folded from the `PackBlock` events, were.
const DOCS: [(&str, usize, u64); 6] = [
    ("chrome_trace_json", 1_108_550, 0xa5f32e2f976c74bf),
    ("metrics_json", 3_175, 0x333c9e05bdb111e2),
    ("comm_matrix_json", 9_185, 0xbc26765417872114),
    ("history_json", 677, 0x396717b307bea3d0),
    ("analysis_json", 91_278, 0xf48bb67185b4c9ac),
    ("diagnosis_json", 12_892, 0x43c6269b3647a9c0),
];

const TIME_NS: [(&str, u64); 5] = [
    ("comm", 16_510_062),
    ("pack", 11_885_352),
    ("search", 10_924),
    ("compute", 12_800_000),
    ("wait", 294_538_185),
];
