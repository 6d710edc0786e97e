//! Render the communication timeline of an `MPI_Alltoallw`
//! nearest-neighbour exchange under both schedules — making the paper's
//! §4.2.2 argument *visible*: the round-robin schedule's zero-byte
//! exchanges serialize every rank against every other, while the binned
//! schedule finishes after touching only real neighbours.
//!
//! Besides the ASCII art, a 4-rank run of the same pattern is exported as
//! Chrome trace-event JSON (load `target/figures/alltoallw_trace.json`
//! into chrome://tracing or https://ui.perfetto.dev): one lane per rank
//! with send/recv spans and the per-round instants of both schedules.
//!
//! Run with: `cargo run --release --example timeline`

use nucomm::core::{Comm, MpiConfig, WPeer};
use nucomm::datatype::Datatype;
use nucomm::simnet::{
    chrome_trace_json, render_timeline_fit, write_artifact, Cluster, ClusterConfig, TraceEvent,
};

const RANKS: usize = 8;

fn run(cfg: MpiConfig, ranks: usize) -> Vec<Vec<TraceEvent>> {
    Cluster::new(ClusterConfig::paper_testbed(ranks)).run(|rank| {
        let mut comm = Comm::new(rank, cfg.clone());
        comm.barrier();
        comm.rank_mut().reset_clock();
        comm.rank_mut().enable_tracing();

        let me = comm.rank();
        let n = comm.size();
        let succ = (me + 1) % n;
        let pred = (me + n - 1) % n;
        let m = Datatype::contiguous(100, &Datatype::double()).expect("matrix");
        let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty");
        let mut sends: Vec<WPeer> = (0..n).map(|_| WPeer::new(0, 0, empty.clone())).collect();
        let mut recvs = sends.clone();
        sends[succ] = WPeer::new(0, 1, m.clone());
        recvs[pred] = WPeer::new(0, 1, m.clone());
        sends[pred] = WPeer::new(800, 1, m.clone());
        recvs[succ] = WPeer::new(800, 1, m.clone());
        let sendbuf = vec![me as u8; 1600];
        let mut recvbuf = vec![0u8; 1600];
        comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
        comm.rank_mut().take_trace()
    })
}

fn main() {
    println!(
        "alltoallw neighbour exchange on {RANKS} ranks (s = sending, r = receiving/waiting)\n"
    );
    for cfg in [MpiConfig::baseline(), MpiConfig::optimized()] {
        let label = cfg.flavor.label();
        let traces = run(cfg, RANKS);
        let total_events: usize = traces.iter().map(Vec::len).sum();
        println!("--- {label} ({total_events} message events) ---");
        println!("{}", render_timeline_fit(&traces, 76)); // 76-col terminal budget
    }
    println!("The baseline's rows are full of synchronization (zero-byte");
    println!("round-robin steps with all {RANKS} peers); the optimized rows touch");
    println!("only the two real neighbours and finish an order of magnitude earlier.");

    // Chrome trace export: a 4-rank baseline run, small enough to read
    // event by event in the viewer.
    let traces = run(MpiConfig::baseline(), 4);
    let path = "target/figures/alltoallw_trace.json";
    match write_artifact(path, &chrome_trace_json(&traces)) {
        Ok(()) => println!("\nChrome trace (4-rank alltoallw): {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
