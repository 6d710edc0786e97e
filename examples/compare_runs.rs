//! Cross-run observatory walkthrough: ledger the Figure 14 workload
//! twice and let the differential engine explain what changed and why.
//!
//! The workload is the paper's skewed allgatherv — rank 0 contributes
//! 4096 doubles, everyone else one. The first (base) run pins the
//! baseline selector, which picks the ring algorithm from the *total*
//! volume and serializes the outlier message across O(N) hops; the
//! second (current) run lets the optimized outlier-aware selector
//! switch to recursive doubling. Both runs are fully traced and
//! persisted into the run ledger; `ncd_core::compare` then re-loads the
//! two entries and must attribute the improvement to the allgatherv
//! decision flip and the disappearance of the ring's sender-caused
//! waits.
//!
//! Run with: `cargo run --release --example compare_runs`

use ncd_bench::{ledger_run, time_phase, Series};
use ncd_core::{compare, render_compare, Comm, MpiConfig, RegressionClass, RunRecord};
use ncd_simnet::{ledger_root, read_run, ClusterConfig, Observers};

const PROCS: usize = 16;
const OUTLIER_DOUBLES: usize = 4096;

/// The Figure 14 workload: one allgatherv with a single outlier volume.
fn skewed_allgatherv(comm: &mut Comm) {
    let mut counts = vec![8usize; comm.size()];
    counts[0] = OUTLIER_DOUBLES * 8;
    let me = comm.rank();
    let send = vec![me as u8; counts[me]];
    let mut recv = vec![0u8; counts.iter().sum()];
    comm.allgatherv(&send, &counts, &mut recv);
}

/// Run the workload fully traced under `cfg` and persist it into the
/// ledger as one run of the `compare_runs` bench; returns the loaded
/// [`RunRecord`] the differential engine consumes.
fn ledger_once(flavor: &str, cfg: MpiConfig) -> RunRecord {
    let cluster = ClusterConfig::uniform(PROCS);
    let run = time_phase(cluster.observe(Observers::ALL), cfg, 5, |comm, _| {
        skewed_allgatherv(comm)
    });
    let mut latency = Series::new("latency-usec");
    latency.push(
        format!("{PROCS}procs/{OUTLIER_DOUBLES}doubles"),
        run.time.as_us(),
    );
    let knobs = vec![
        ("procs".to_string(), PROCS.to_string()),
        ("outlier_doubles".to_string(), OUTLIER_DOUBLES.to_string()),
        ("flavor".to_string(), flavor.to_string()),
    ];
    let manifest =
        ledger_run("compare_runs", true, &knobs, &[latency], &run).expect("write the run ledger");
    let dir = ledger_root().join("compare_runs").join(&manifest.run_id);
    let run = read_run(&dir).expect("re-read the ledgered run");
    RunRecord::from_ledger(&run).expect("parse the ledgered artifacts")
}

fn main() {
    // Keep the walkthrough self-contained: its ledger lives under
    // target/ next to the other example outputs.
    std::env::set_var("NCD_OBSERVATORY", "target/observatory-example");

    println!("base run: allgatherv selector pinned to the baseline (ring) ...");
    let base = ledger_once("ring", MpiConfig::baseline());
    println!("current run: optimized outlier-aware selector ...");
    let cur = ledger_once("auto", MpiConfig::optimized());

    let diff = compare(&base, &cur);
    print!("\n{}", render_compare(&diff, 10));

    // The differential must explain the improvement, not just report it:
    // (1) the allgatherv auto-selection flipped away from the ring ...
    let flip = diff
        .flips
        .iter()
        .find(|f| f.collective == "allgatherv")
        .expect("the allgatherv decision flip must be detected");
    assert_eq!(flip.base_chosen, "ring", "base run pinned the ring");
    assert_ne!(flip.cur_chosen, "ring", "current run left the ring");
    assert!(
        diff.causes
            .iter()
            .any(|c| c.class == RegressionClass::Decision),
        "the ranked causes must lead with the decision flip: {:?}",
        diff.causes
    );

    // ... and (2) the ring's serialized waits disappeared: total wait
    // time attributed to the allgatherv (the trace labels rounds with
    // the algorithm, e.g. `allgatherv/ring`) dropped for the waiting
    // ranks.
    let path = diff.path.as_ref().expect("both runs carry traces");
    let wait_delta: i64 = path
        .attribution_deltas
        .iter()
        .filter(|a| a.op.starts_with("allgatherv"))
        .map(|a| a.wait_delta_ns())
        .sum();
    assert!(
        wait_delta < 0,
        "leaving the ring must reduce allgatherv wait time, got {wait_delta} ns"
    );
    println!(
        "\nexplained: allgatherv {} -> {} (occurrence {}), {} us of allgatherv wait removed",
        flip.base_chosen,
        flip.cur_chosen,
        flip.occurrence,
        -wait_delta / 1_000
    );
}
