//! Figure 14 — `MPI_Allgatherv` with one outlier message.
//!
//! (a) 64 processes; rank 0 contributes 1…16K doubles while everyone else
//!     contributes a single double; latency vs rank 0's message size.
//! (b) rank 0 contributes 32 KB (4096 doubles); latency vs process count.
//!
//! The baseline selects the ring algorithm from the *total* volume, so the
//! single large message crosses the ring in O(N) sequential hops. The
//! optimized implementation detects the outlier (Floyd–Rivest selection)
//! and switches to recursive doubling / dissemination, moving it along a
//! binomial tree.
//!
//! Paper result: both series grow, the baseline faster; ~20% improvement
//! at 64 processes / 32 KB.

use ncd_bench::{
    improvement_pct, relabel, report, time_phase, BenchCli, RunCapture, Series, OBSERVATORY,
};
use ncd_core::{Comm, MpiConfig};
use ncd_simnet::{ClusterConfig, SimTime};

/// One allgatherv where rank 0 contributes `outlier_doubles` doubles and
/// everyone else a single double.
fn skewed_allgatherv(comm: &mut Comm, outlier_doubles: usize) {
    let mut counts = vec![8usize; comm.size()];
    counts[0] = outlier_doubles * 8;
    let me = comm.rank();
    let send = vec![me as u8; counts[me]];
    let mut recv = vec![0u8; counts.iter().sum()];
    comm.allgatherv(&send, &counts, &mut recv);
}

fn allgatherv_latency(nprocs: usize, outlier_doubles: usize, cfg: MpiConfig) -> SimTime {
    let cluster = ClusterConfig::uniform(nprocs);
    time_phase(cluster, cfg, 5, move |comm, _| {
        skewed_allgatherv(comm, outlier_doubles)
    })
    .time
}

fn main() {
    // `--smoke` shrinks both sweeps so CI can gate every push.
    let cli = BenchCli::parse();
    let smoke = cli.smoke;
    let (procs_a, max_exp) = if smoke { (16, 4) } else { (64, 7) };

    // (a) Varying outlier size.
    let mut base_a = Series::new("MVAPICH2-0.9.5");
    let mut new_a = Series::new("MVAPICH2-New");
    let mut imp_a = Series::new("improvement-%");
    for exp in 0..=max_exp {
        let m = 4usize.pow(exp); // 1, 4, 16, ..., 16384 doubles
        let tb = allgatherv_latency(procs_a, m, MpiConfig::baseline());
        let tn = allgatherv_latency(procs_a, m, MpiConfig::optimized());
        base_a.push(m.to_string(), tb.as_us());
        new_a.push(m.to_string(), tn.as_us());
        imp_a.push(m.to_string(), improvement_pct(tb, tn));
    }
    let series_a = [base_a, new_a, imp_a];
    report(
        &cli,
        "fig14a_allgatherv_size",
        "msg (doubles)",
        if smoke {
            "latency (usec), 16 procs"
        } else {
            "latency (usec), 64 procs"
        },
        &series_a,
        &RunCapture::default(),
    );

    // (b) Varying process count with a 32 KB outlier.
    let procs_b: &[usize] = if smoke {
        &[2, 4, 8, 16]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    let mut base_b = Series::new("MVAPICH2-0.9.5");
    let mut new_b = Series::new("MVAPICH2-New");
    let mut imp_b = Series::new("improvement-%");
    for &n in procs_b {
        let tb = allgatherv_latency(n, 4096, MpiConfig::baseline());
        let tn = allgatherv_latency(n, 4096, MpiConfig::optimized());
        base_b.push(n.to_string(), tb.as_us());
        new_b.push(n.to_string(), tn.as_us());
        imp_b.push(n.to_string(), improvement_pct(tb, tn));
    }
    let series_b = [base_b, new_b, imp_b];
    report(
        &cli,
        "fig14b_allgatherv_procs",
        "processes",
        "latency (usec), 32KB outlier",
        &series_b,
        &RunCapture::default(),
    );

    // Observatory pass: one fully traced run of the representative
    // configuration (the 32 KB outlier on the largest machine of the
    // sweep, selector left on auto), so the ledgered run carries the
    // decision audit, the critical path and the wait-state diagnosis the
    // differential engine attributes regressions with. The gate reads
    // the raw latencies only: improvement-% is higher-is-better and
    // derived from them anyway.
    if cli.wants_observatory() {
        let traced = time_phase(
            ClusterConfig::uniform(procs_a).observe(OBSERVATORY),
            MpiConfig::optimized(),
            5,
            |comm, _| skewed_allgatherv(comm, 4096),
        );
        let knobs = vec![
            ("procs".to_string(), procs_a.to_string()),
            ("outlier_doubles".to_string(), "4096".to_string()),
            ("flavor".to_string(), "auto".to_string()),
        ];
        let mut ledgered = relabel("a", &series_a);
        ledgered.extend(relabel("b", &series_b));
        let gated = [
            "a/MVAPICH2-0.9.5",
            "a/MVAPICH2-New",
            "b/MVAPICH2-0.9.5",
            "b/MVAPICH2-New",
        ];
        cli.observatory("fig14_allgatherv", &knobs, &ledgered, &gated, &traced);
    }
}
