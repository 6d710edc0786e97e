//! The observatory's read side, end to end and in memory: one small
//! observed run rendered to its ledger artifacts by the real writers,
//! re-loaded through `RunRecord::from_ledger` (each artifact through the
//! reader beside its writer), compared against itself — which must be the
//! identity — and against the same workload with the ring pinned, where
//! the differential must find the selection flip it caused.

mod common;

use common::ledgered;
use nucomm::core::{compare, MpiConfig, RunRecord};

#[test]
fn a_ledgered_run_reloads_to_the_identity_and_a_flip_is_found() {
    let auto = ledgered("optimized", MpiConfig::optimized());
    let record = RunRecord::from_ledger(&auto).expect("every artifact reads back");
    assert_eq!(record.series.len(), 1);
    assert!(record.comm.is_some() && record.path.is_some() && record.diagnosis.is_some());
    assert!(!record.metrics.counters.is_empty() && record.decisions.len() == 1);
    let same = compare(&record, &record);
    assert!(same.is_empty(), "compare(run, run) must be empty: {same:?}");

    // The deterministic simulator reproduces the run, id included.
    let again = ledgered("optimized", MpiConfig::optimized());
    assert_eq!(again.manifest.run_id, auto.manifest.run_id);

    // The baseline flavor sends the outlier round the ring.
    let ring = RunRecord::from_ledger(&ledgered("baseline", MpiConfig::baseline()))
        .expect("every artifact reads back");
    let diff = compare(&ring, &record);
    assert_eq!(diff.knob_deltas.len(), 1);
    assert_eq!(diff.flips.len(), 1, "{:?}", diff.notes);
    assert_eq!(diff.flips[0].base_chosen, "ring");
    assert_ne!(diff.flips[0].cur_chosen, "ring");
    assert!(!diff.series_deltas.is_empty() && diff.path.is_some());
}
