//! Critical-path analysis of the Fig 14 outlier-allgatherv scenario:
//! *why* is the ring algorithm slow when one rank contributes a large
//! block?
//!
//! Eight ranks run `MPI_Allgatherv` where rank 0 contributes 4096 doubles
//! (32 KB) and everyone else a single double — the paper's §4.2.1
//! nonuniform pattern. The ring algorithm forwards the outlier block
//! through N−1 sequential hops, so the happens-before chain of that one
//! block *is* the critical path: the analyzer reports Θ(N) message hops.
//! Recursive doubling moves it along a binomial tree: Θ(log N) hops and a
//! proportionally shorter makespan.
//!
//! Output: top-k critical-path table per algorithm, the per-op wait/skew
//! attribution, a PETSc `-log_view`-style imbalance table across ranks,
//! and machine-readable artifacts under `target/analysis/` plus a Chrome
//! trace under `target/figures/`.
//!
//! Run with: `cargo run --release --example critical_path`

use nucomm::core::{AllgathervAlgorithm, Comm, MpiConfig};
use nucomm::simnet::{
    analysis_json, attribute_rounds, chrome_trace_json, imbalance_report, write_artifact, Capture,
    Cluster, ClusterConfig, HbGraph, Observers,
};

const RANKS: usize = 8;
const OUTLIER_DOUBLES: usize = 4096; // 32 KB from rank 0

fn run(algo: AllgathervAlgorithm) -> Capture {
    let observers = Observers {
        trace: true,
        profile: true,
        ..Observers::NONE
    };
    let cluster = ClusterConfig::paper_testbed(RANKS).observe(observers);
    let run = Cluster::new(cluster).try_run(move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::baseline());
        comm.barrier();
        comm.rank_mut().reset_clock();
        let _ = comm.rank_mut().harvest(); // observe from here on

        let me = comm.rank();
        let mut counts = vec![8usize; RANKS];
        counts[0] = OUTLIER_DOUBLES * 8;
        let send = vec![me as u8; counts[me]];
        let mut recv = vec![0u8; counts.iter().sum()];
        comm.rank_mut().stage_begin("allgatherv");
        comm.allgatherv_with(algo, &send, &counts, &mut recv);
        comm.rank_mut().stage_end("allgatherv");
    });
    run.unwrap().1
}

fn main() {
    println!(
        "allgatherv critical path, {RANKS} ranks, rank 0 contributes {OUTLIER_DOUBLES} doubles\n"
    );
    for (algo, slug) in [
        (AllgathervAlgorithm::Ring, "ring"),
        (AllgathervAlgorithm::RecursiveDoubling, "recursive_doubling"),
    ] {
        let capture = run(algo);
        let traces = capture.traces.expect("traced");
        let graph = HbGraph::build(&traces);
        let path = graph.critical_path();
        let attr = attribute_rounds(&traces);

        println!("=== {} ===", algo.label());
        println!("{}", path.render(12));
        println!("wait/skew attribution (per op, spread across ranks):");
        println!("{}", attr.render());
        println!("stage imbalance across ranks (-log_view style):");
        println!("{}", imbalance_report(&capture.profiles.expect("profiled")));

        let json = format!("target/analysis/critical_path_{slug}.json");
        write_artifact(&json, &analysis_json(&path, &attr)).expect("write analysis json");
        let trace = format!("target/figures/critical_path_{slug}_trace.json");
        write_artifact(&trace, &chrome_trace_json(&traces)).expect("write chrome trace");
        println!("artifacts: {json}, {trace}\n");
    }
    println!(
        "The ring forwards rank 0's 32 KB block through {} sequential",
        RANKS - 1
    );
    println!("hops — every one a message edge on the critical path — while");
    println!("recursive doubling needs only log2({RANKS}) = 3 exchange rounds.");
}
