//! Every observer export of one fully observed run, pinned: how the
//! metrics registry stores a counter and how the JSON writer prints a
//! number are host-side matters and must not move one byte of any
//! artifact, one line of `render()`, or one per-kind `time/<kind>` value.
//!
//! The fixture is a 16-rank run on the jittered testbed with tracing,
//! metrics, comm map and history on: eight auto-selected `allgatherv`s
//! whose outlier grows mid-run (decisions, rounds, drift), a strided-type
//! `alltoallw` (pack blocks) and one column send (search time). It runs
//! twice, observed through `ClusterConfig::observe(Observers::ALL)` and
//! through the in-closure `enable_*` / `take_*` path the frozen benchmark
//! uses, and both must hit the same digests.

use nucomm::core::{Comm, MpiConfig, WPeer};
use nucomm::datatype::{matrix_column_type, Datatype};
use nucomm::simnet::{
    analysis_json, attribute_rounds, chrome_trace_json, comm_matrix_json, diagnose, diagnosis_json,
    history_json, merge_comm_maps, merge_histories, metrics_json, Cluster, ClusterCommMap,
    ClusterConfig, CostKind, HbGraph, History, MetricsRegistry, Observers, Rank, Tag, TraceEvent,
};

const RANKS: usize = 16;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Doubles `src` sends `dst` through the strided type (zero included).
fn len(src: usize, dst: usize) -> usize {
    (src * 7 + dst * 13) % 20 * 10
}

/// The fixture's program: eight auto-selected `allgatherv`s whose outlier
/// grows mid-run, a strided-type `alltoallw` and one column send.
fn program(rank: &mut Rank) {
    const REGION: usize = 2 * 190;
    let mut comm = Comm::new(rank, MpiConfig::baseline());
    let me = comm.rank();
    for step in 0..8 {
        let mut counts = vec![64usize; RANKS];
        counts[3] = if step < 5 { 40 * 1024 } else { 160 * 1024 };
        if me == 3 {
            comm.rank_mut().compute_flops(2_000_000);
        }
        let send = vec![(me + step) as u8; counts[me]];
        let mut recv = vec![0u8; counts.iter().sum()];
        comm.allgatherv(&send, &counts, &mut recv);
    }
    let double = Datatype::double();
    let slot = |peer: usize, n: usize| {
        let dt = Datatype::vector(n, 1, 2, &double).expect("vector type");
        WPeer::new(peer * REGION * 8, 1, dt)
    };
    let sends: Vec<WPeer> = (0..RANKS).map(|j| slot(j, len(me, j))).collect();
    let recvs: Vec<WPeer> = (0..RANKS).map(|j| slot(j, len(j, me))).collect();
    let sendbuf: Vec<u8> = (0..RANKS * REGION)
        .flat_map(|k| ((me * 100_000 + k) as f64).to_le_bytes())
        .collect();
    let mut recvbuf = vec![0u8; sendbuf.len()];
    comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
    // A Figure 12 column send, so the single-context engine searches.
    let col = matrix_column_type(64, 64, 3).expect("column type");
    let bytes = 64 * 64 * 24;
    if me == 0 {
        comm.send(&vec![2u8; bytes], &col, 64, 1, Tag(9));
    } else if me == 1 {
        let row = Datatype::contiguous(bytes, &Datatype::byte()).expect("row type");
        comm.recv(&mut vec![0u8; bytes], &row, 1, Some(0), Tag(9));
    }
    comm.barrier();
}

fn cluster() -> ClusterConfig {
    ClusterConfig::paper_testbed(RANKS).with_seed(20070326)
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
        ("render", metrics.render()),
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

// Captured at the commit before the time counters moved into fixed slots
// and the writer stopped formatting through `core::fmt`; never edit them
// for a host-side change.
const DOCS: [(&str, usize, u64); 7] = [
    ("chrome_trace_json", 1_112_348, 0x37683eb7c3a32ba6),
    ("metrics_json", 3_679, 0x25344862d5265bc8),
    ("comm_matrix_json", 9_185, 0xbc26765417872114),
    ("history_json", 677, 0x396717b307bea3d0),
    ("analysis_json", 91_433, 0xc7691491eb43fa82),
    ("diagnosis_json", 12_892, 0x43c6269b3647a9c0),
    ("render", 3_120, 0xc3d63ff5c3a5b9bb),
];

const TIME_NS: [(&str, u64); 5] = [
    ("comm", 16_510_062),
    ("pack", 11_885_352),
    ("search", 10_924),
    ("compute", 12_800_000),
    ("wait", 294_538_185),
];
