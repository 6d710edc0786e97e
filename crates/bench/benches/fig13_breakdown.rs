//! Figure 13 — datatype-processing time breakdown of the transpose
//! benchmark: the percentage of time spent in communication, packing and
//! context search, for the baseline and the dual-context engine.
//!
//! Paper result: the baseline's search share grows to dominate as the
//! matrix grows; the optimized engine eliminates search entirely, leaving
//! communication dominant.
//!
//! Pass `--report json` to also write a machine-readable run report — the
//! plotted series plus the cluster-wide metrics snapshot — to
//! `target/figures/<name>.json`.

use ncd_bench::{
    aggregate, relabel, report, time_phase, BenchCli, RunCapture, Series, OBSERVATORY,
};
use ncd_core::{Comm, MpiConfig};
use ncd_datatype::{matrix_column_type, Datatype};
use ncd_simnet::{Capture, ClusterConfig, CostKind, MetricsRegistry, Observers, Tag};

/// The sweep's observer: the metrics registry alone.
const METRICS: Observers = Observers {
    metrics: true,
    ..Observers::NONE
};

/// The transpose exchange the breakdown instruments (same communication
/// as Figure 12's benchmark).
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

fn breakdown(n: usize, cfg: MpiConfig) -> (f64, f64, f64, MetricsRegistry) {
    let cluster = ClusterConfig::uniform(2);
    let run = time_phase(cluster.observe(METRICS), cfg, 1, move |comm, _| {
        transpose_once(comm, n)
    });
    let total = aggregate(&run.stats);
    // "Comm" from the application's view includes time blocked on the wire.
    let comm_frac = total.fraction(CostKind::Comm) + total.fraction(CostKind::Wait);
    let pack_frac = total.fraction(CostKind::Pack);
    let search_frac = total.fraction(CostKind::Search);
    let scale = 100.0 / (comm_frac + pack_frac + search_frac).max(f64::MIN_POSITIVE);
    (
        comm_frac * scale,
        pack_frac * scale,
        search_frac * scale,
        run.capture.metrics.expect("metrics observed"),
    )
}

fn main() {
    let cli = BenchCli::parse();
    let sizes: &[usize] = if cli.smoke {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let mut ledgered: Vec<Series> = Vec::new();
    for (cfg, name, prefix) in [
        (MpiConfig::baseline(), "fig13a_breakdown_baseline", "base"),
        (MpiConfig::optimized(), "fig13b_breakdown_optimized", "opt"),
    ] {
        let mut comm_s = Series::new("comm-%");
        let mut pack_s = Series::new("pack-%");
        let mut search_s = Series::new("search-%");
        let mut merged = MetricsRegistry::enabled();
        for &n in sizes {
            let (c, p, s, m) = breakdown(n, cfg.clone());
            let label = format!("{n}x{n}");
            comm_s.push(label.clone(), c);
            pack_s.push(label.clone(), p);
            search_s.push(label, s);
            merged.merge(&m);
        }
        let series = [comm_s, pack_s, search_s];
        let sweep = RunCapture {
            capture: Capture {
                metrics: Some(merged),
                ..Capture::default()
            },
            ..RunCapture::default()
        };
        report(&cli, name, "matrix", "% of time", &series, &sweep);
        if cli.wants_observatory() {
            ledgered.extend(relabel(prefix, &series));
        }
    }

    // Observatory pass: both engines' breakdown series in one ledgered
    // run, plus a traced transpose at the largest matrix under the
    // optimized engine so a search-share regression arrives with the
    // pack-pipeline counters that explain it. Nothing is gated: percent
    // shares are not lower-is-better.
    if cli.wants_observatory() {
        let n = *sizes.last().expect("nonempty sweep");
        let traced = time_phase(
            ClusterConfig::uniform(2).observe(OBSERVATORY),
            MpiConfig::optimized(),
            1,
            move |comm, _| transpose_once(comm, n),
        );
        let knobs = vec![
            ("matrix".to_string(), format!("{n}x{n}")),
            ("ranks".to_string(), "2".to_string()),
            ("flavor".to_string(), "auto".to_string()),
        ];
        cli.observatory("fig13_breakdown", &knobs, &ledgered, &[], &traced);
    }
}
