//! Shared diagnosis workloads: the exact closures a bench measures, a
//! gated test replays, and the CI what-if smoke re-verifies must be one
//! definition, or "the profiler reproduced the finding" silently stops
//! meaning anything. Each workload here is deterministic given the
//! cluster/MPI configuration, so a [`ncd_core::causal_profile`] replay of
//! it is bit-reproducible, on whichever thread it runs.

use ncd_core::Comm;

/// Measured iterations of the AMR-skew diagnosis workload.
pub const AMR_DIAG_STEPS: usize = 4;

/// The refinement-hotspot rank: contributes the outlier volume and the
/// extra compute, entering every collective late.
pub const AMR_DIAG_OUTLIER: usize = 0;

/// Per-rank allgatherv counts for the AMR-skew diagnosis workload: 64 B
/// everywhere, 64 KiB on the outlier — the paper's skewed-volume shape,
/// extreme enough that the baseline selector picks the ring over it.
pub fn amr_diag_counts(n: usize) -> Vec<usize> {
    let mut counts = vec![64usize; n];
    counts[AMR_DIAG_OUTLIER] = 64 * 1024;
    counts
}

/// The measured loop of the AMR-skew diagnosis phase: `AMR_DIAG_STEPS`
/// rounds of hotspot compute on the outlier rank followed by the skewed
/// allgatherv. Callers synchronize and reset clocks first (see
/// [`amr_diag_workload`]); the bench's instrumented prologue also drops
/// its warmup observations before calling this.
pub fn amr_diag_loop(comm: &mut Comm) {
    let me = comm.rank();
    let counts = amr_diag_counts(comm.size());
    let total: usize = counts.iter().sum();
    for _ in 0..AMR_DIAG_STEPS {
        if me == AMR_DIAG_OUTLIER {
            // The refinement hotspot: more cells, more compute,
            // entering the collective late every step.
            comm.rank_mut().compute_flops(20_000_000);
        }
        let send = vec![me as u8; counts[me]];
        let mut recv = vec![0u8; total];
        comm.allgatherv(&send, &counts, &mut recv);
    }
}

/// The full AMR-skew diagnosis workload as a what-if replay target:
/// barrier, clock reset, then [`amr_diag_loop`] — so the replayed
/// makespan covers exactly the window the diagnosis classified.
pub fn amr_diag_workload(comm: &mut Comm) {
    comm.barrier();
    comm.rank_mut().reset_clock();
    amr_diag_loop(comm);
}
