//! Collective communication operations.
//!
//! * [`basic`] — the supporting cast (barrier, bcast, scatterv, reduce,
//!   allreduce, allgather, alltoall) used by the PETSc layer's setup
//!   phases;
//! * [`allgatherv`] — `MPI_Allgatherv` with the baseline ring algorithm and
//!   the paper's outlier-aware recursive-doubling / dissemination designs
//!   (§4.2.1);
//! * [`alltoallw`] — `MPI_Alltoallw` with the baseline round-robin schedule
//!   and the paper's three-bin (zero-exempt, small-first) design (§4.2.2).

pub mod allgatherv;
pub mod alltoallw;
pub mod basic;

pub use allgatherv::AllgathervAlgorithm;
pub use alltoallw::{AlltoallwSchedule, WPeer};

use ncd_simnet::{ratio_to_millis, EventKind, Tag};

use crate::comm::Comm;

/// Identifiers keeping different collectives' wire traffic apart.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CollOp {
    Barrier = 1,
    Bcast = 2,
    Scatter = 4,
    Reduce = 5,
    Allgatherv = 6,
    Alltoallw = 7,
    Alltoall = 8,
}

/// Tags in the collective range: bit 31 set, op in bits 24..31, phase in
/// the low bits. Per-(source, tag) FIFO matching plus distinct phases make
/// consecutive collectives safe without a sequence number.
///
/// With one communicator and exact-tag receives, the tag is the only
/// thing that separates a collective's messages from everything else on
/// the same (source, destination) pair: mini-PETSc's scatter and matrix
/// set-up use `0x4000_00xx`, and user code tags below both ranges. A
/// receive never names a wildcard tag, so no user receive can take a
/// collective's envelope.
pub(crate) fn coll_tag(op: CollOp, phase: u32) -> Tag {
    debug_assert!(phase < 1 << 24);
    Tag(0x8000_0000 | ((op as u32) << 24) | phase)
}

impl Comm<'_> {
    /// Mark the start of round `round` of the multi-round collective `op`
    /// (`<collective>/<algorithm>`): an [`EventKind::Round`] instant, from
    /// which `Rank::record` folds the `<collective>/rounds/<algorithm>`
    /// counter.
    pub(crate) fn round(&mut self, op: &'static str, round: u32) {
        let now = self.rank_ref().now();
        let event = EventKind::Round { op, round };
        self.rank_mut().record(now, event);
    }

    /// Audit one algorithm selection of an adaptive collective: an
    /// [`EventKind::AlgoDecision`] instant (which the flight recorder also
    /// parks in its decision ring) carrying the evidence — `n` volumes
    /// totalling `total_bytes` with outlier ratio `ratio` (infinite for a
    /// zero bulk quantile under a nonzero max) — what was `chosen` and the
    /// policy branch (`reason`) that chose it. `Rank::record` folds the
    /// `decision*/*` metrics from it. Charges no simulated time.
    pub(crate) fn audit_decision(
        &mut self,
        collective: &'static str,
        n: usize,
        total_bytes: u64,
        ratio: f64,
        chosen: &'static str,
        reason: &'static str,
    ) {
        let decision = EventKind::AlgoDecision {
            collective,
            n,
            total_bytes,
            ratio_millis: ratio_to_millis(ratio),
            pow2: n.is_power_of_two(),
            chosen,
            reason,
        };
        let now = self.rank_ref().now();
        self.rank_mut().record(now, decision);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct_per_op_and_phase() {
        let a = coll_tag(CollOp::Barrier, 0);
        let b = coll_tag(CollOp::Barrier, 1);
        let c = coll_tag(CollOp::Bcast, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert!(a.0 & 0x8000_0000 != 0);
        // Wire tags are pinned as literals: the explicit discriminants keep
        // each op's tags fixed when another op is removed.
        assert_eq!(a, Tag(0x8100_0000));
        assert_eq!(c, Tag(0x8200_0000));
        assert_eq!(coll_tag(CollOp::Scatter, 0), Tag(0x8400_0000));
        assert_eq!(coll_tag(CollOp::Reduce, 0), Tag(0x8500_0000));
        assert_eq!(coll_tag(CollOp::Allgatherv, 0), Tag(0x8600_0000));
        assert_eq!(coll_tag(CollOp::Alltoallw, 0), Tag(0x8700_0000));
        assert_eq!(coll_tag(CollOp::Alltoall, 0), Tag(0x8800_0000));
    }
}
