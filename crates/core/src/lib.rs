//! # ncd-core — the message-passing core
//!
//! The MPI-analogue layer of the workspace: a [`Comm`] communicator over a
//! simulated [`ncd_simnet`] rank, with
//!
//! * typed point-to-point send/receive running the configured derived-
//!   datatype pack engine (single-context baseline vs the paper's
//!   dual-context look-ahead design);
//! * nonuniform-volume collectives: [`Comm::allgatherv`] with outlier-aware
//!   algorithm selection backed by Floyd–Rivest [`k_select`]
//!   (paper §4.2.1), and [`Comm::alltoallw`] with the three-bin schedule
//!   (paper §4.2.2);
//! * the supporting collectives (barrier, bcast, scatterv, reduce,
//!   allreduce, allgather, alltoall) higher layers need.
//!
//! The [`MpiFlavor`] switch reproduces the paper's two measured
//! configurations: `Baseline` behaves like MVAPICH2-0.9.5, `Optimized` is
//! the paper's integrated framework.
//!
//! ```
//! use ncd_core::{Comm, MpiConfig};
//! use ncd_simnet::{Cluster, ClusterConfig};
//!
//! let sums = Cluster::new(ClusterConfig::uniform(4)).run(|rank| {
//!     let mut comm = Comm::new(rank, MpiConfig::optimized());
//!     comm.allreduce_scalar(comm.rank() as f64)
//! });
//! assert!(sums.iter().all(|&s| s == 6.0));
//! ```

pub mod coll;
pub mod comm;
pub mod commstats;
pub mod compare;
pub mod config;
pub mod drift;
pub mod request;
pub mod select;
pub mod view;
pub mod whatif;

pub use coll::{AllgathervAlgorithm, AlltoallwSchedule, WPeer};
pub use comm::{bytes_to_f64s, f64s_to_bytes, Comm};
pub use commstats::{
    analyze_comm_map, analyze_matrix, decisions_from_trace, decisions_json, detect_misselections,
    parse_decisions, AlgorithmDecision, CommAnalysis, EpochAnalysis, Misselection,
    MisselectionAudit,
};
pub use compare::{
    compare, diff_json, outer_join, render_compare, AttributionDelta, Cause, CommDiff,
    DecisionFlip, FindingDelta, FindingStatus, HistogramShift, MetricDelta, PathDiff,
    RegressionClass, RunDiff, RunRecord, SeriesDelta, StepDelta,
};
pub use config::{MpiConfig, MpiFlavor};
pub use drift::{
    detect_drift, pattern_recurrence, render_drift_events, render_recurrence, DriftDirection,
    DriftEvent, PatternRecurrence, DRIFT_DETECTION_BOUND,
};
pub use ncd_simnet::volume::{k_select, outlier_ratio_of};
pub use request::{Completion, Request};
pub use select::{detect_outliers, detect_outliers_with_ratio, VolumeShape};
pub use whatif::{
    causal_profile, plan_experiments, whatif_json, whatif_report, Action, CausalProfile,
    Experiment, Outcome,
};

// Re-export the layers below for convenience of downstream crates.
pub use ncd_datatype as datatype;
pub use ncd_simnet as simnet;
