//! Diagnosing a run: wait-state classification, the blame matrix, and
//! remediation hints joined against the decision audit.
//!
//! The critical-path example (`examples/critical_path.rs`) shows *where*
//! the makespan went; this one shows *why ranks waited and who to blame*.
//! A 16-rank cluster runs a skewed allgatherv under the **baseline**
//! selector: rank 0 holds a 4096x outlier block *and* computes longest,
//! and the baseline's total-size rule picks the ring over it. The run
//! then prints:
//!
//! * the diagnosis report — every blocked receive classified into a
//!   typed wait pattern (late-sender, serialization-chain,
//!   pack-bound-sender, wait-at-collective, late-receiver) with severity
//!   equal to the simulated time it cost, the ranked finding table, and
//!   the rank×rank blame heatmap;
//! * the remediation hints — the top finding cross-referenced against
//!   the algorithm-decision audit ("consistent with flagged
//!   misselection; see decision #k") and the blame-concentration verdict
//!   naming the outlier rank;
//! * the flight-recorder dump with the top findings mirrored into each
//!   blamed rank's diagnosis ring.
//!
//! The byte-stable classification JSON lands in
//! `target/analysis/diagnose.diagnosis.json`.
//!
//! Run with: `cargo run --release --example diagnose`

use nucomm::core::{
    decisions_from_trace, detect_misselections, remediation_hints, render_hints, Comm, MpiConfig,
};
use nucomm::simnet::{
    diagnose, diagnosis_json, mirror_to_recorders, render_dump, write_artifact, Cluster,
    ClusterConfig, Observers, WaitPattern,
};

const RANKS: usize = 16;
const STEPS: usize = 3;
const OUTLIER: usize = 0;

fn main() {
    let observers = Observers {
        trace: true,
        comm_map: true,
        ..Observers::NONE
    };
    let cluster = ClusterConfig::paper_testbed(RANKS).observe(observers);
    let cost = cluster.cost.clone();
    let cfg = MpiConfig::baseline();
    let mpi = cfg.clone();
    let run = Cluster::new(cluster).try_run(move |rank| {
        let mut comm = Comm::new(rank, mpi.clone());
        let me = comm.rank();
        let n = comm.size();
        let mut counts = vec![8usize; n];
        counts[OUTLIER] = 4096 * 8;
        let total: usize = counts.iter().sum();
        for _ in 0..STEPS {
            if me == OUTLIER {
                // The outlier computes longest, entering the ring late.
                comm.rank_mut().compute_flops(10_000_000);
            }
            let send = vec![me as u8; counts[me]];
            let mut recv = vec![0u8; total];
            comm.allgatherv(&send, &counts, &mut recv);
        }
    });
    let recorders = run.recorders.clone();
    let (_, capture) = run.unwrap();
    let traces = capture.traces.expect("traced");
    let map = capture.comm_map.expect("mapped");

    // Classify every blocked receive and rank the findings.
    let diag = diagnose(&traces);
    println!("{}", diag.render(8));

    // Join against the decision audit for remediation hints.
    let decisions = decisions_from_trace(&traces[OUTLIER]);
    let audit = detect_misselections(&decisions, Some(&map), &cost, &cfg);
    let hints = remediation_hints(&diag, &decisions, &audit, &[]);
    print!("{}", render_hints(&hints));

    // Mirror the top findings into the blamed ranks' flight recorders,
    // then show the dump a failure would produce.
    let mirrored = mirror_to_recorders(&diag, 3, &recorders);
    println!("\n{mirrored} finding(s) mirrored into the flight recorder;");
    let dump = render_dump(&recorders);
    for line in dump.lines().filter(|l| l.contains("diag ")) {
        println!("{line}");
    }

    // The byte-stable artifact, as the benches write it.
    let path = "target/analysis/diagnose.diagnosis.json";
    let json = diagnosis_json(&diag);
    write_artifact(path, &json).expect("write diagnosis artifact");
    println!("\ndiagnosis json: {path} ({} bytes)", json.len());

    // The shape this example promises: the outlier rank owns the
    // majority of the allgatherv wait through sender-caused patterns,
    // and the audit cross-reference fires.
    let share = diag.sender_caused_severity("allgatherv", OUTLIER).as_ns() as f64
        / diag.op_severity("allgatherv").as_ns().max(1) as f64;
    assert!(
        share > 0.5,
        "outlier must own the majority of the wait, got {:.1}%",
        100.0 * share
    );
    assert!(
        diag.pattern_severity(WaitPattern::SerializationChain)
            .as_ns()
            > 0,
        "the ring must forward the outlier delay as a chain"
    );
    assert!(
        hints.iter().any(|h| h.contains("misselection")),
        "the ring-over-outlier misselection must be cross-referenced: {hints:?}"
    );
    println!(
        "ok: rank {OUTLIER} owns {:.1}% of the allgatherv wait",
        100.0 * share
    );
}
