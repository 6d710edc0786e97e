//! Figure 12 — matrix-transpose benchmark.
//!
//! One rank sends an NxN matrix (each element three doubles) in
//! column-major order using a derived datatype; the other receives it
//! contiguously (row-major), effectively transposing it. Because the send
//! type is sparse (24-byte pieces), the pipelined pack engine classifies
//! every block sparse; the baseline single-context engine then re-searches
//! the datatype per block, so its latency grows super-linearly with the
//! matrix size, while the dual-context engine stays linear.
//!
//! Paper result: >85% improvement at 1024x1024, growing with size.
//!
//! The run collects `datatype/*` pack-pipeline metrics, so the report ends
//! with a `-log_view`-style per-engine table (blocks, sparse/dense mix,
//! seek segments) that makes the quadratic re-search directly visible.

use ncd_bench::{improvement_pct, report, time_phase, BenchCli, RunCapture, Series};
use ncd_core::{Comm, MpiConfig};
use ncd_datatype::{matrix_column_type, Datatype};
use ncd_simnet::{Capture, ClusterConfig, MetricsRegistry, Observers, SimTime, Tag};

/// The sweep's observer: the metrics registry alone.
const METRICS: Observers = Observers {
    metrics: true,
    ..Observers::NONE
};

/// One column-major send / contiguous receive of an NxN matrix of
/// three-double elements between ranks 0 and 1.
fn transpose_once(comm: &mut Comm, n: usize) {
    let bytes = n * n * 24;
    let col = matrix_column_type(n, n, 3).expect("column type");
    if comm.rank() == 0 {
        let src = vec![1u8; bytes];
        comm.send(&src, &col, n, 1, Tag(1));
    } else {
        let mut dst = vec![0u8; bytes];
        let row = Datatype::contiguous(bytes, &Datatype::byte()).expect("contiguous");
        comm.recv(&mut dst, &row, 1, Some(0), Tag(1));
    }
}

fn transpose_latency(n: usize, cfg: MpiConfig, merged: &mut MetricsRegistry) -> SimTime {
    let reps = if n <= 256 { 3 } else { 1 };
    let cluster = ClusterConfig::uniform(2);
    let run = time_phase(cluster.observe(METRICS), cfg, reps, move |comm, _| {
        transpose_once(comm, n)
    });
    merged.merge(run.capture.metrics.as_ref().expect("metrics observed"));
    run.time
}

fn main() {
    let cli = BenchCli::parse();
    let sizes: &[usize] = if cli.smoke {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let mut base = Series::new("MVAPICH2-0.9.5");
    let mut new = Series::new("MVAPICH2-New");
    let mut imp = Series::new("improvement-%");
    let mut metrics = MetricsRegistry::enabled();
    for &n in sizes {
        let tb = transpose_latency(n, MpiConfig::baseline(), &mut metrics);
        let tn = transpose_latency(n, MpiConfig::optimized(), &mut metrics);
        let label = format!("{n}x{n}");
        base.push(label.clone(), tb.as_ms());
        new.push(label.clone(), tn.as_ms());
        imp.push(label, improvement_pct(tb, tn));
    }
    let series = [base, new, imp];
    let sweep = RunCapture {
        capture: Capture {
            metrics: Some(metrics),
            ..Capture::default()
        },
        ..RunCapture::default()
    };
    report(
        "fig12_transpose",
        "matrix",
        "latency (msec)",
        &series,
        &sweep,
    );

    // Observatory pass: one traced transpose at the sweep's largest
    // matrix under the optimized engine, so pack-pipeline regressions
    // (seek counters, per-block search) land in the ledgered metrics the
    // differential classifies as pack-side.
    if cli.wants_observatory() {
        let n = *sizes.last().expect("nonempty sweep");
        let traced = time_phase(
            ClusterConfig::uniform(2).observe(Observers::ALL),
            MpiConfig::optimized(),
            1,
            move |comm, _| transpose_once(comm, n),
        );
        let knobs = vec![
            ("matrix".to_string(), format!("{n}x{n}")),
            ("ranks".to_string(), "2".to_string()),
            ("flavor".to_string(), "auto".to_string()),
        ];
        cli.observatory("fig12_transpose", &knobs, &series, &traced);
    }
}
