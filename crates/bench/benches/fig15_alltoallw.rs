//! Figure 15 — `MPI_Alltoallw` nearest-neighbour exchange under natural
//! skew.
//!
//! Processes form a logical ring; each exchanges a 10x10 matrix of doubles
//! with its successor and predecessor and nothing with anyone else. The
//! baseline round-robin schedule still performs a (zero-byte) exchange
//! with *every* rank — each a synchronization point that propagates skew —
//! while the optimized schedule exempts the zero bin entirely and
//! processes small messages first.
//!
//! The cluster model reproduces the paper's testbed heterogeneity (two
//! different 32-node clusters plus OS jitter), which §5.3 credits for the
//! skew: "we did not add any artificial skew to the benchmark".
//!
//! Paper result: ~50% improvement at 32 processes, >88% at 128.

use ncd_bench::{improvement_pct, report, time_phase, BenchCli, RunCapture, Series};
use ncd_core::{Comm, MpiConfig, WPeer};
use ncd_datatype::Datatype;
use ncd_simnet::{ClusterConfig, Observers, SimTime};

/// One ring exchange: each rank sends a 10x10 matrix of doubles (800 B)
/// to its ring successor and predecessor.
fn ring_exchange(comm: &mut Comm) {
    let me = comm.rank();
    let n = comm.size();
    let succ = (me + 1) % n;
    let pred = (me + n - 1) % n;
    let matrix = Datatype::contiguous(100, &Datatype::double()).expect("matrix type");
    let empty = Datatype::contiguous(0, &Datatype::double()).expect("empty");
    let mut sends: Vec<WPeer> = (0..n).map(|_| WPeer::new(0, 0, empty.clone())).collect();
    let mut recvs = sends.clone();
    sends[succ] = WPeer::new(0, 1, matrix.clone());
    recvs[pred] = WPeer::new(0, 1, matrix.clone());
    if n > 2 {
        sends[pred] = WPeer::new(800, 1, matrix.clone());
        recvs[succ] = WPeer::new(800, 1, matrix.clone());
    }
    let sendbuf = vec![me as u8; 1600];
    let mut recvbuf = vec![0u8; 1600];
    comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
}

fn ring_exchange_latency(nprocs: usize, cfg: MpiConfig) -> SimTime {
    let cluster = ClusterConfig::paper_testbed(nprocs);
    time_phase(cluster, cfg, 10, |comm, _| ring_exchange(comm)).time
}

fn main() {
    // `--smoke` shrinks the sweep so CI can gate every push.
    let cli = BenchCli::parse();
    let procs: &[usize] = if cli.smoke {
        &[2, 4, 8, 16]
    } else {
        &[2, 4, 8, 16, 32, 64, 128]
    };
    let mut base = Series::new("MVAPICH2-0.9.5");
    let mut new = Series::new("MVAPICH2-New");
    let mut imp = Series::new("improvement-%");
    for &n in procs {
        let tb = ring_exchange_latency(n, MpiConfig::baseline());
        let tn = ring_exchange_latency(n, MpiConfig::optimized());
        base.push(n.to_string(), tb.as_us());
        new.push(n.to_string(), tn.as_us());
        imp.push(n.to_string(), improvement_pct(tb, tn));
    }
    let series = [base, new, imp];
    report(
        "fig15_alltoallw",
        "processes",
        "latency (usec)",
        &series,
        &RunCapture::default(),
    );

    // Observatory pass: one fully traced ring exchange under the
    // optimized schedule (a mid-size machine — tracing 128 heterogeneous
    // ranks adds nothing the differential needs), so skew regressions
    // show up with wait-state blame attached.
    if cli.wants_observatory() {
        let n = if cli.smoke { 16 } else { 32 };
        let traced = time_phase(
            ClusterConfig::paper_testbed(n).observe(Observers::ALL),
            MpiConfig::optimized(),
            10,
            |comm, _| ring_exchange(comm),
        );
        let knobs = vec![
            ("procs".to_string(), n.to_string()),
            ("matrix".to_string(), "10x10-doubles".to_string()),
            ("flavor".to_string(), "auto".to_string()),
        ];
        cli.observatory("fig15_alltoallw", &knobs, &series, &traced);
    }
}
