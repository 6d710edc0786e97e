//! Observatory ledger listing: enumerate every run persisted under the
//! ledger root, one row per run — bench, content-hash run id, mode, the
//! bench's declared knobs, how many artifacts the run carries, and the
//! critical-path makespan when the run was traced. The run the bench's
//! `latest` pointer names is marked with `*`.
//!
//! The walkthrough is self-contained: it shares its ledger with the
//! `compare_runs` example (`target/observatory-example`) and seeds two
//! runs of the Figure 14 skewed-allgatherv workload (baseline ring vs
//! optimized selector) if the ledger is empty, so the listing always
//! has something to show.
//!
//! Run with: `cargo run --release --example observatory_ls`

use ncd_bench::{ledger_run, time_phase, Series, OBSERVATORY};
use ncd_core::{MpiConfig, RunRecord};
use ncd_simnet::{latest_run_id, ledger_root, read_run, ClusterConfig};

const PROCS: usize = 16;

/// One listing row, parsed back out of a persisted run directory.
struct Row {
    bench: String,
    run_id: String,
    latest: bool,
    mode: String,
    knobs: String,
    artifacts: usize,
    makespan_ms: Option<f64>,
}

/// Ledger one run of the Figure 14 workload under `cfg`.
fn seed_run(flavor: &str, cfg: MpiConfig) {
    let cluster = ClusterConfig::uniform(PROCS);
    let run = time_phase(cluster.observe(OBSERVATORY), cfg, 3, |comm, _| {
        let mut counts = vec![8usize; comm.size()];
        counts[0] = 4096 * 8;
        let me = comm.rank();
        let send = vec![me as u8; counts[me]];
        let mut recv = vec![0u8; counts.iter().sum()];
        comm.allgatherv(&send, &counts, &mut recv);
    });
    let mut latency = Series::new("latency-usec");
    latency.push(format!("{PROCS}procs"), run.time.as_us());
    let knobs = [("flavor".to_string(), flavor.to_string())];
    ledger_run("observatory_ls", true, &knobs, &[latency], &run).expect("write the run ledger");
}

/// Walk `<root>/<bench>/<run-id>/` and parse every run found.
fn collect_rows() -> Vec<Row> {
    let root = ledger_root();
    let mut rows = Vec::new();
    let Ok(benches) = std::fs::read_dir(&root) else {
        return rows;
    };
    for bench_entry in benches.flatten() {
        if !bench_entry.path().is_dir() {
            continue;
        }
        let bench = bench_entry.file_name().to_string_lossy().to_string();
        let latest = latest_run_id(&root, &bench);
        let Ok(runs) = std::fs::read_dir(bench_entry.path()) else {
            continue;
        };
        for run_entry in runs.flatten() {
            if !run_entry.path().is_dir() {
                continue; // the `latest` pointer file
            }
            let run = match read_run(&run_entry.path()) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("skipping {}: {e}", run_entry.path().display());
                    continue;
                }
            };
            let artifacts = run.artifacts.len();
            let rec = match RunRecord::from_ledger(&run) {
                Ok(rec) => rec,
                Err(e) => {
                    eprintln!("skipping {}: {e}", run_entry.path().display());
                    continue;
                }
            };
            rows.push(Row {
                latest: latest.as_deref() == Some(rec.run_id.as_str()),
                bench: bench.clone(),
                mode: rec.mode,
                knobs: rec
                    .knobs
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(","),
                artifacts,
                makespan_ms: rec.path.map(|p| p.makespan.as_ns() as f64 / 1e6),
                run_id: rec.run_id,
            });
        }
    }
    rows.sort_by(|a, b| (&a.bench, &a.run_id).cmp(&(&b.bench, &b.run_id)));
    rows
}

fn main() {
    // Share the self-contained example ledger with `compare_runs`.
    if std::env::var("NCD_OBSERVATORY").is_err() {
        std::env::set_var("NCD_OBSERVATORY", "target/observatory-example");
    }

    if collect_rows().is_empty() {
        println!("ledger empty; seeding two runs of the skewed-allgatherv workload ...");
        seed_run("ring", MpiConfig::baseline());
        seed_run("auto", MpiConfig::optimized());
    }

    let rows = collect_rows();
    println!(
        "\n=== observatory ledger ({} run(s) under {}) ===",
        rows.len(),
        ledger_root().display()
    );
    println!(
        "{:<24}{:<19}{:<7}{:>10}{:>14}  knobs",
        "bench", "run-id", "mode", "artifacts", "makespan-ms"
    );
    for r in &rows {
        let makespan = r
            .makespan_ms
            .map(|ms| format!("{ms:.3}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<24}{:<19}{:<7}{:>10}{:>14}  {}",
            r.bench,
            format!("{}{}", r.run_id, if r.latest { "*" } else { "" }),
            r.mode,
            r.artifacts,
            makespan,
            r.knobs
        );
    }
    println!("(* = the run the bench's `latest` pointer names)");

    assert!(
        rows.len() >= 2,
        "the seeded ledger must list at least two runs"
    );
    assert!(
        rows.iter().any(|r| r.latest),
        "every bench directory must resolve a latest pointer"
    );
    assert!(
        rows.iter().all(|r| r.run_id.len() == 16),
        "run ids are 16 hex digits"
    );
}
