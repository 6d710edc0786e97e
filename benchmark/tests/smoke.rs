//! `--quick` smoke of the whole benchmark: every metric printed once with
//! a unit, exact metrics a function of the seed, a wrong output counted
//! as failed, and `BENCHMARK.json` in step with the metric tables.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use ncd_benchmark::harness::{run_cluster_workload, Plan};
use ncd_benchmark::metrics::{END_TO_END, PER_LAYER};
use ncd_benchmark::runner::{run_one, Opts, Outcome};
use ncd_benchmark::workloads::allgatherv::Allgatherv;
use ncd_benchmark::workloads::{Scale, WORKLOADS};
use ncd_simnet::{parse_json, Json};

/// Clusters run strictly one after another: the scheduler survey the
/// benchmark reads is process-global, and the test harness runs tests on
/// parallel threads.
static ONE_CLUSTER_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    ONE_CLUSTER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn quick(workload: &str, seed: u64, trace: bool) -> Outcome {
    run_one(&Opts {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace,
        quick: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out"),
    })
    .unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn every_metric_appears_once_with_a_unit() {
    let _g = serial();
    for (workload, _) in WORKLOADS {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let o = quick(workload, 7, trace);
            assert_eq!(o.failed, 0, "{workload}: operations failed");
            assert!(o.attempted >= 1);
            let names: Vec<&str> = o.metrics.iter().map(|(d, _)| d.name).collect();
            let expected: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(names, expected, "{workload} trace={trace}");
            for (def, v) in &o.metrics {
                assert!(well_formed(def.name), "bad metric name {:?}", def.name);
                assert!(!def.unit.is_empty() && def.unit.len() <= 16, "{}", def.name);
                assert!(v.is_finite(), "{} = {v}", def.name);
            }
            // The last stdout line of a run is this object.
            let j = parse_json(&o.to_json()).expect("result object parses");
            assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(o.attempted));
        }
    }
    let mut all: Vec<&str> = PER_LAYER
        .iter()
        .chain(&END_TO_END)
        .map(|d| d.name)
        .collect();
    all.sort_unstable();
    let n = all.len();
    all.dedup();
    assert_eq!(all.len(), n, "a metric name is used twice");
}

#[test]
fn exact_metrics_are_a_function_of_the_seed() {
    let _g = serial();
    for (workload, _) in WORKLOADS {
        let sim = |seed| quick(workload, seed, false).metrics[1].1;
        assert_eq!(END_TO_END[1].name, "sim_makespan_us");
        assert_eq!(sim(11), sim(11), "{workload}: simulated time repeats");
        assert_ne!(
            sim(11),
            sim(12),
            "{workload}: simulated time follows the seed"
        );

        let exact = |seed| -> Vec<(&str, f64)> {
            quick(workload, seed, true)
                .metrics
                .iter()
                .filter(|(d, _)| d.exact)
                .map(|(d, v)| (d.name, *v))
                .collect()
        };
        let (a, b, c) = (exact(11), exact(11), exact(12));
        assert_eq!(a, b, "{workload}: counts repeat bit for bit");
        assert_ne!(a, c, "{workload}: counts follow the seed");
    }
}

#[test]
fn a_wrong_output_is_counted_not_panicked() {
    let _g = serial();
    let w = Allgatherv::new(Scale::Quick, 3).corrupted();
    let d = run_cluster_workload(&w, &Plan::fixed(2, 1), Instant::now());
    assert!(d.ops_attempted() > 0);
    assert_eq!(d.ops_failed(), d.ops_attempted());
    let good = run_cluster_workload(
        &Allgatherv::new(Scale::Quick, 3),
        &Plan::fixed(2, 1),
        Instant::now(),
    );
    assert_eq!(good.ops_failed(), 0);
    assert_eq!(good.ops_attempted(), d.ops_attempted());
}

#[test]
fn traced_run_accounts_for_its_time() {
    let _g = serial();
    let d = run_cluster_workload(
        &Allgatherv::new(Scale::Quick, 3),
        &Plan::fixed(3, 2),
        Instant::now(),
    );
    let measure = d.spans.find("measure").expect("measure span");
    let cover = d.spans.child_coverage_s(measure) / d.spans.duration_s(measure);
    assert!(cover >= 0.95, "children cover {cover} of measure");
    for name in [
        "workload",
        "setup",
        "cluster_spawn",
        "warmup",
        "agv_ring",
        "agv_rd",
        "check",
    ] {
        assert!(d.spans.find(name).is_some(), "no {name} span");
    }
    assert!(parse_json(&d.spans.to_json()).is_ok());
    assert!(
        d.setup_s.len() >= 2,
        "set-up is sampled at least as often as asked"
    );
    assert_eq!(d.rounds.len(), 3);
}

/// `BENCHMARK.json` at the repository root names the same workloads and
/// metrics, with the same units, directions and bounds, as the tables the
/// binary prints from.
#[test]
fn benchmark_json_matches_the_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let j = parse_json(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| j.get(key).and_then(Json::as_array).expect(key).to_vec();
    let field = |o: &Json, k: &str| o.get(k).and_then(Json::as_str).expect(k).to_string();

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, why)| (n.to_string(), why.to_string()))
        .collect();
    assert_eq!(workloads, expected);
    assert!(workloads
        .iter()
        .all(|(n, why)| well_formed(n) && why.len() <= 200));

    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key);
        assert_eq!(listed.len(), table.len(), "{key}");
        for (m, def) in listed.iter().zip(table) {
            assert_eq!(field(m, "name"), def.name);
            assert_eq!(field(m, "unit"), def.unit, "{}", def.name);
            assert_eq!(field(m, "better"), def.better.label(), "{}", def.name);
            if key == "end_to_end" {
                assert_eq!(m.get("bound").and_then(Json::as_f64), Some(def.bound));
            }
        }
    }
    assert_eq!(list("paths"), vec![Json::Str("benchmark".to_string())]);
}
