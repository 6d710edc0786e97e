//! The six workloads. Each file's header says what the workload loads
//! and why it was chosen.

pub mod allgatherv;
pub mod alltoallw;
pub mod multigrid;
pub mod observe;
pub mod transpose;
pub mod vecscatter;

/// Problem size. `Full` is what numbers are quoted from; `Probe` is the
/// reduced size a traced run uses for the layer metrics a workload's
/// phases define; `Quick` exists for tests only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Probe,
    Quick,
}

/// Name and one-line reason, in the order a set runs them.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "allgatherv_1k",
        "per-message send path, fiber spawn and stack memory at N=1024; datatype, petsc and observers idle",
    ),
    (
        "alltoallw_dense_256",
        "255 envelopes queued per mailbox: linear match scan and request layer dominate, round-robin and binned",
    ),
    (
        "transpose_1k",
        "Figure 12: the pack engines and a 25 MB receive copy are the whole run; scheduler and mailbox idle",
    ),
    (
        "multigrid_64",
        "Figure 17 application: stencil arithmetic dominates, so scheduler changes should not move it; large set-up",
    ),
    (
        "vecscatter_128",
        "Figure 16: one scatter plan applied repeatedly three ways with no compute to hide behind",
    ),
    (
        "observe_64",
        "the only workload with observers on and the analysis, export, ledger, compare and what-if layers running",
    ),
];
