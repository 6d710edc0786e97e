//! Observers are run configuration; captures are run output.
//!
//! [`crate::ClusterConfig::observe`] names the observers every rank
//! starts with: the one way in, as PETSc's logging is a run option and not
//! an edit to the program. [`crate::Cluster::try_run`] harvests them from
//! each rank after its program returns ([`crate::Rank::harvest`]) and
//! merges the parts, in rank order, into [`crate::RunOutput::capture`].
//! No observer touches the simulated clock.

use crate::commmap::{merge_comm_maps, ClusterCommMap, RankCommMap};
use crate::history::{merge_histories, History, RankHistory};
use crate::metrics::MetricsRegistry;
use crate::profile::Profiler;
use crate::trace::TraceEvent;

/// Which observers every rank of a run starts with (see [`crate::trace`],
/// [`crate::metrics`], [`crate::profile`], [`crate::commmap`] and
/// [`crate::history`]). A history is fed from closed comm-map epochs, so
/// it brings the comm map along, into the capture too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observers {
    pub trace: bool,
    pub metrics: bool,
    pub profile: bool,
    pub comm_map: bool,
    pub history: bool,
}

impl Observers {
    pub const NONE: Observers = Observers::every(false);
    pub const ALL: Observers = Observers::every(true);

    const fn every(on: bool) -> Observers {
        Observers {
            trace: on,
            metrics: on,
            profile: on,
            comm_map: on,
            history: on,
        }
    }
}

/// One rank's observers, each present only while on: what a rank records
/// into, and its share of a [`Capture`] ([`crate::Rank::harvest`]).
pub struct RankCapture {
    pub(crate) trace: Option<Vec<TraceEvent>>,
    pub(crate) metrics: Option<MetricsRegistry>,
    pub(crate) profile: Option<Profiler>,
    pub(crate) comm_map: Option<RankCommMap>,
    pub(crate) history: Option<RankHistory>,
}

impl RankCapture {
    /// Fresh observers of the `on` set for `rank` of `size`.
    pub(crate) fn new(on: Observers, rank: usize, size: usize) -> Self {
        RankCapture {
            trace: on.trace.then(Vec::new),
            metrics: on.metrics.then(MetricsRegistry::enabled),
            profile: on.profile.then(Profiler::enabled),
            comm_map: (on.comm_map || on.history).then(|| RankCommMap::new(rank, size)),
            history: on.history.then(|| RankHistory::new(rank, size)),
        }
    }
}

/// What a run's observers saw: a part is `Some` exactly when its observer
/// was configured and the run completed. Traces and profiles stay per
/// rank, indexed by rank ([`crate::imbalance_report`] reads one profile
/// per rank); the rest is merged cluster-wide.
#[derive(Debug, Default)]
pub struct Capture {
    pub traces: Option<Vec<Vec<TraceEvent>>>,
    pub profiles: Option<Vec<Profiler>>,
    pub metrics: Option<MetricsRegistry>,
    pub comm_map: Option<ClusterCommMap>,
    pub history: Option<History>,
}

impl Capture {
    /// Join the ranks' shares, in rank order.
    pub(crate) fn merge(parts: impl IntoIterator<Item = RankCapture>) -> Capture {
        let mut metrics: Option<MetricsRegistry> = None;
        let (mut traces, mut profiles) = (Vec::new(), Vec::new());
        let (mut maps, mut histories) = (Vec::new(), Vec::new());
        for part in parts {
            if let Some(m) = part.metrics {
                metrics
                    .get_or_insert_with(MetricsRegistry::enabled)
                    .merge(&m);
            }
            traces.extend(part.trace);
            profiles.extend(part.profile);
            maps.extend(part.comm_map);
            histories.extend(part.history);
        }
        Capture {
            traces: (!traces.is_empty()).then_some(traces),
            profiles: (!profiles.is_empty()).then_some(profiles),
            metrics,
            comm_map: (!maps.is_empty()).then(|| merge_comm_maps(&maps)),
            history: (!histories.is_empty()).then(|| merge_histories(&histories)),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig, Rank};

    /// Every rank's trace of `f` run on `cfg`, traced by configuration.
    pub(crate) fn traced(
        cfg: ClusterConfig,
        f: impl Fn(&mut Rank) + Send + Sync,
    ) -> Vec<Vec<TraceEvent>> {
        let trace = Observers {
            trace: true,
            ..Observers::NONE
        };
        let (_, capture) = Cluster::new(cfg.observe(trace)).try_run(f).unwrap();
        capture.traces.expect("traced")
    }
}
