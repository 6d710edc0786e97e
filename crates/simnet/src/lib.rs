//! # ncd-simnet — a simulated cluster substrate
//!
//! The paper this workspace reproduces ("Nonuniformly Communicating
//! Noncontiguous Data: A Case Study with PETSc and MPI", IPPS 2007) was
//! evaluated on a 64-node InfiniBand cluster (32 Intel EM64T nodes + 32
//! Opteron nodes, two processes per node). That hardware is not available
//! here, so this crate provides the substitution: a cluster **simulated in a
//! single OS process**, where every MPI-style *rank* is a cooperatively
//! scheduled resumable task (see [`sched`]) and every message is pushed
//! into the receiving rank's in-memory [`mailbox`].
//!
//! Correctness is real — ranks exchange real bytes and algorithms run
//! unmodified. Performance is *simulated*: each rank owns a logical clock
//! ([`SimTime`], nanoseconds) that advances according to a LogGP-style
//! [`CostModel`] (latency, bandwidth, per-message overheads, memory-copy
//! bandwidth and per-segment datatype-processing costs). A message carries
//! its arrival timestamp; a receive completes at
//! `max(local_clock, arrival) + overhead`. Because the effects studied by
//! the paper (quadratic datatype search, ring serialization of an outlier
//! message, round-robin synchronization skew) are *counts of operations
//! actually executed*, converting those counts to time with a fixed cost
//! model preserves the shape of every figure even though absolute
//! microseconds differ from the 2007 testbed.
//!
//! Determinism: every source of noise (per-operation jitter modelling OS and
//! heterogeneity skew) is drawn from a per-rank RNG seeded from
//! `(cluster seed, rank)`, so simulated timings are bit-reproducible across
//! runs, as long as the algorithms themselves consume randomness and
//! messages in a deterministic order.
//!
//! ```
//! use ncd_simnet::{ClusterConfig, Cluster, Tag};
//!
//! let times = Cluster::new(ClusterConfig::uniform(2)).run(|rank| {
//!     if rank.rank() == 0 {
//!         rank.send_bytes(1, Tag(7), b"hello".to_vec());
//!     } else {
//!         let (msg, src) = rank.recv_bytes(Some(0), Tag(7));
//!         assert_eq!((msg.as_slice(), src), (&b"hello"[..], 0));
//!     }
//!     rank.now()
//! });
//! assert!(times[1] > times[0]); // the receiver waited for the wire
//! ```

pub mod analysis;
pub mod capture;
pub mod commmap;
pub mod diagnosis;
pub mod export;
pub mod history;
pub mod json;
pub mod knobs;
pub mod ledger;
pub mod mailbox;
pub mod metrics;
pub mod recorder;
pub mod runtime;
pub mod sched;
pub mod stats;
pub mod time;
pub mod trace;
pub mod volume;

pub use analysis::{
    analysis_json, attribute_rounds, imbalance, parse_analysis, render_ratio, AnalysisSummary,
    CriticalPath, HbGraph, Imbalance, OpRankStats, PathStep, RoundAttribution, StepSummary,
};
pub use capture::{Capture, Observers, RankCapture};
pub use commmap::{
    comm_matrix_json, merge_comm_maps, millis_to_ratio, parse_comm_matrix, ratio_to_millis,
    render_heatmap, ClusterCommMap, CommMatrix, EpochMatrix, RankCommMap, RankEpoch,
};
pub use diagnosis::{
    check_severity_bound, diagnose, diagnosis_json, parse_diagnosis, Diagnosis, DiagnosisSummary,
    Finding, WaitInstance, WaitPattern, ALL_PATTERNS,
};
pub use export::chrome_trace_json;
pub use history::{
    history_json, history_report, merge_histories, sparkline, EpochPoint, History, RankHistory,
};
pub use json::{parse_json, parse_schema_led, Json, JsonValue, JsonWriter, SCHEMA_VERSION};
pub use knobs::{CostKnobs, KnobDim, ResolvedKnobs};
pub use ledger::{
    latest_run_id, ledger_root, manifest_json, parse_manifest, parse_series, read_run,
    resolve_run_dir, series_json, write_artifact, write_run, LedgerRun, RunManifest, Series,
};
pub use mailbox::{NetMsg, Tag};
pub use metrics::{
    metrics_artifact_json, metrics_json, parse_metrics, Histogram, MetricsRegistry, MetricsSnapshot,
};
pub use recorder::{render_dump, RankRecorder, RecCode, Recorded, DECISION_RING_SLOTS};
pub use runtime::{last_sched_stats, Cluster, ClusterConfig, Rank, RunOutput, SpeedProfile};
pub use sched::{
    ParkedWait, RunError, SchedStats, TaskBackend, Violation, DEPTH_BUCKETS, MIN_STACK_BYTES,
};
pub use stats::{CostKind, Stats};
pub use time::{CostModel, SimTime};
pub use trace::{render_timeline_fit, EventKind, TraceEvent, TIMELINE_GUTTER};
pub use volume::pattern_hash_rank;
