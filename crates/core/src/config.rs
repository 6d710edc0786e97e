//! Configuration selecting between the baseline MPI behaviour
//! ("MVAPICH2-0.9.5" in the paper's figures) and the optimized framework
//! ("MVAPICH2-New").

use ncd_datatype::{EngineKind, EngineParams};

use crate::coll::{AllgathervAlgorithm, AlltoallwSchedule};

/// Which implementation personality a communicator runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpiFlavor {
    /// The behaviour the paper measures against: single-context datatype
    /// processing, ring allgatherv for large totals, round-robin alltoallw
    /// including zero-byte exchanges.
    Baseline,
    /// The paper's integrated framework: dual-context look-ahead datatype
    /// processing, outlier-aware allgatherv, binned alltoallw.
    Optimized,
}

impl MpiFlavor {
    pub fn label(self) -> &'static str {
        match self {
            MpiFlavor::Baseline => "MVAPICH2-0.9.5",
            MpiFlavor::Optimized => "MVAPICH2-New",
        }
    }
}

/// Tunables of the communication stack. Defaults follow the constants the
/// paper reports (15-element look-ahead window, three alltoallw bins).
/// The bulk quantile ([`ncd_simnet::volume::OUTLIER_FRACTION`]) and the
/// allgatherv long-message switchover are constants, not fields.
#[derive(Clone, Debug)]
pub struct MpiConfig {
    pub flavor: MpiFlavor,
    /// Pipelined pack engine parameters (block size, look-ahead window,
    /// density threshold).
    pub engine: EngineParams,
    /// Ratio above which the volume set is declared to contain outliers.
    pub outlier_ratio: f64,
    /// Alltoallw bin boundary: messages up to this many bytes are "small"
    /// and processed first.
    pub small_msg_threshold: usize,
    /// When set, [`crate::Comm::allgatherv`] skips its selection policy and
    /// runs this algorithm unconditionally — the decision-flip intervention
    /// of the what-if profiler (`core::whatif`). The audit records the
    /// choice with reason `"pinned"`. Pinning
    /// [`AllgathervAlgorithm::RecursiveDoubling`] requires a power-of-two
    /// communicator.
    pub allgatherv_pin: Option<AllgathervAlgorithm>,
    /// When set, [`crate::Comm::alltoallw`] runs this schedule instead of
    /// the flavor's default (same intervention mechanism as
    /// [`MpiConfig::allgatherv_pin`]).
    pub alltoallw_pin: Option<AlltoallwSchedule>,
}

impl MpiConfig {
    pub fn baseline() -> Self {
        MpiConfig {
            flavor: MpiFlavor::Baseline,
            engine: EngineParams::default(),
            outlier_ratio: 8.0,
            small_msg_threshold: 1024,
            allgatherv_pin: None,
            alltoallw_pin: None,
        }
    }

    pub fn optimized() -> Self {
        MpiConfig {
            flavor: MpiFlavor::Optimized,
            ..Self::baseline()
        }
    }

    pub fn engine_kind(&self) -> EngineKind {
        match self.flavor {
            MpiFlavor::Baseline => EngineKind::SingleContext,
            MpiFlavor::Optimized => EngineKind::DualContext,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavors_map_to_engines() {
        assert_eq!(
            MpiConfig::baseline().engine_kind(),
            EngineKind::SingleContext
        );
        assert_eq!(
            MpiConfig::optimized().engine_kind(),
            EngineKind::DualContext
        );
    }

    #[test]
    fn labels_match_paper_series() {
        assert_eq!(MpiFlavor::Baseline.label(), "MVAPICH2-0.9.5");
        assert_eq!(MpiFlavor::Optimized.label(), "MVAPICH2-New");
    }
}
