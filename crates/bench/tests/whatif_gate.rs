//! Causal-verification gate for the what-if profiler on the AMR-skew
//! diagnosis workload (the `ext_amr_skew` bench's phase (c)/(d), via the
//! shared [`ncd_bench::workloads`] definition):
//!
//! * the planner must target the diagnosed outlier rank and the flagged
//!   ring misselection, and append a control;
//! * fixing the blamed rank's compute must measure the dominant gain,
//!   consistent with the finding's severity (positive, bounded by it, and
//!   a large share of the makespan);
//! * flipping ring -> recursive doubling must reproduce the known win;
//! * the irrelevant control intervention must measure ~0;
//! * every replay must be tie-break-seed invariant (spread 0), and the
//!   serialized profile must match the committed golden byte-for-byte.

use ncd_bench::{amr_diag_loop, amr_diag_workload, AMR_DIAG_OUTLIER, WHATIF_SEEDS};
use ncd_core::{
    causal_profile, decisions_from_trace, detect_misselections, plan_experiments, whatif_json,
    CausalProfile, Comm, MpiConfig,
};
use ncd_simnet::{diagnose, Cluster, ClusterConfig, Diagnosis, Observers};

/// The `--smoke` machine size of `ext_amr_skew` — what CI diagnoses and
/// what the committed golden pins.
const NRANKS: usize = 16;

/// Trace the diagnosis workload, plan from its findings and audit, and
/// replay the causal profile — the exact pipeline `ext_amr_skew --whatif`
/// runs.
fn profile_amr_run() -> (Diagnosis, CausalProfile) {
    let cluster = ClusterConfig::paper_testbed(NRANKS);
    let mpi = MpiConfig::baseline();
    let cfg = mpi.clone();
    let observers = Observers {
        trace: true,
        comm_map: true,
        ..Observers::NONE
    };
    let (_, capture) = Cluster::new(cluster.clone().observe(observers))
        .try_run(move |rank| {
            let mut comm = Comm::new(rank, cfg.clone());
            comm.barrier();
            comm.rank_mut().reset_clock();
            let _ = comm.rank_mut().take_comm_map(); // drop warmup traffic
            amr_diag_loop(&mut comm);
        })
        .unwrap();
    let (traces, map) = (
        capture.traces.expect("traced"),
        capture.comm_map.expect("mapped"),
    );
    let diag = diagnose(&traces);
    let decisions = decisions_from_trace(&traces[0]);
    let audit = detect_misselections(&decisions, Some(&map), &cluster.cost, &mpi);
    let plan = plan_experiments(&diag, &decisions, &audit, 3);
    let profile = causal_profile(&cluster, &mpi, &plan, WHATIF_SEEDS, amr_diag_workload);
    (diag, profile)
}

const GOLDEN: &str = include_str!("golden/whatif.json");

/// Regenerate the golden file after an intentional format or cost-model
/// change: `cargo test -p ncd-bench --test whatif_gate -- --ignored`
#[test]
#[ignore = "writes the golden file; run explicitly after format changes"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/whatif.json");
    let (_, profile) = profile_amr_run();
    std::fs::write(path, whatif_json(&profile) + "\n").expect("write golden");
}

#[test]
fn whatif_verifies_the_outlier_blame_causally() {
    let (mut diag, profile) = profile_amr_run();
    assert!(profile.baseline_ns > 0);
    let by_id = |id: &str| {
        profile
            .outcomes
            .iter()
            .find(|o| o.experiment.id == id)
            .unwrap_or_else(|| panic!("{id} missing from the plan"))
    };

    // Determinism first: the event scheduler's tie order must not move
    // any measurement, so every outcome is fully confident.
    for o in &profile.outcomes {
        assert_eq!(o.spread_ns, 0, "{} is seed-sensitive", o.experiment.id);
        assert_eq!(o.confidence, 1.0, "{}", o.experiment.id);
    }

    // The diagnosis blames the outlier; fixing exactly that rank's
    // compute must be the best intervention the profiler measured.
    let fix = by_id(&format!("compute-half-rank{AMR_DIAG_OUTLIER}"));
    assert_eq!(
        profile.ranked()[0].experiment.id,
        fix.experiment.id,
        "the fix to the blamed rank must rank first"
    );
    // Consistent with the finding's severity: positive, a dominant share
    // of the makespan (the outlier owns >50% of the allgatherv wait, and
    // the intervention removes half its compute), and never more than
    // the severity the finding claims.
    let severity = diag
        .findings
        .iter()
        .filter(|f| f.blamed == AMR_DIAG_OUTLIER)
        .map(|f| f.severity.as_ns())
        .max()
        .expect("a finding blames the outlier");
    assert!(fix.gain_ns > 0, "gain {}", fix.gain_ns);
    assert!(
        fix.gain_pct > 25.0,
        "fixing the blamed rank must dominate the makespan, got {:.2}%",
        fix.gain_pct
    );
    assert!(
        (fix.gain_ns as u64) <= severity,
        "measured gain {} cannot exceed the claimed severity {severity}",
        fix.gain_ns
    );

    // The audit flagged ring over this outlier set; the pinned flip must
    // reproduce the known recursive-doubling win.
    let flip = by_id("pin-allgatherv-recursive_doubling");
    assert!(
        flip.gain_ns > 0,
        "ring -> rd must win, got {}",
        flip.gain_ns
    );

    // The control touches a rank no targeted finding blames: its gain
    // must be noise-level (within 0.1% of the baseline makespan).
    let control = profile
        .outcomes
        .iter()
        .find(|o| o.experiment.id.starts_with("control-pack-rank"))
        .expect("the planner always appends a control");
    assert!(
        control.gain_ns.unsigned_abs() * 1000 <= profile.baseline_ns,
        "control gain {} is not ~0 of baseline {}",
        control.gain_ns,
        profile.baseline_ns
    );

    // The measured gains flow back into the findings as verifications.
    profile.apply_verified_gains(&mut diag);
    let top = &diag.findings[0];
    assert_eq!(top.blamed, AMR_DIAG_OUTLIER);
    assert_eq!(top.verified_gain, Some(fix.gain_ns));
    assert!(
        ncd_simnet::diagnosis_json(&diag).contains("\"verified_gain_ns\":"),
        "verified gains must serialize"
    );

    // Byte-stable contract: the committed golden pins every measured
    // number; any drift is a behaviour change to be reviewed, not noise.
    assert_eq!(
        whatif_json(&profile),
        GOLDEN.trim_end(),
        "whatif_json diverged from tests/golden/whatif.json; \
         if the change is intentional, regenerate the golden file"
    );
}
