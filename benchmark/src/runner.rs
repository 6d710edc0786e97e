//! One workload run in this process: the child mode every other command
//! is built from, and the form the benchmark contract calls directly
//! (`--workload <name> --seed <n> --seconds <s> --trace <0|1>`).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::harness::{run_cluster_workload, Plan, RunData};
use crate::metrics::{per_layer_in_order, workload_values, MetricDef, END_TO_END};
use crate::probes;
use crate::util::peak_rss_mib;
use crate::workloads::allgatherv::Allgatherv;
use crate::workloads::alltoallw::Alltoallw;
use crate::workloads::multigrid::MultigridSolve;
use crate::workloads::observe::Observe;
use crate::workloads::transpose::Transpose;
use crate::workloads::vecscatter::Vecscatter;
use crate::workloads::{Scale, WORKLOADS};

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    /// Generates inputs only; the crates never see it except as the
    /// cluster's jitter seed.
    pub seed: u64,
    /// How long an end-to-end run measures. A traced run ignores it: its
    /// round count is fixed so its counters repeat exactly.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for tests — never for numbers.
    pub quick: bool,
    /// Where `trace_<workload>.json` and the observe ledger go.
    pub out_dir: PathBuf,
}

pub const DEFAULT_SEED: u64 = 20070326;
pub const DEFAULT_SECONDS: f64 = 8.0;

/// What the run printed: the contract's result object.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) or every layer metric (traced).
    pub metrics: Vec<(MetricDef, f64)>,
    /// Raw host seconds of every measured round, in order, and how much
    /// slower than nominal the yardsticks around each ran.
    pub raw_round_wall_s: Vec<f64>,
    pub round_slowdown: Vec<f64>,
}

/// The benchmark's `out/` directory, next to its manifest.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(o: &Opts, scale: Scale, plan: &Plan, origin: Instant) -> Result<RunData, String> {
    let seed = o.seed;
    Ok(match o.workload.as_str() {
        "allgatherv_1k" => run_cluster_workload(&Allgatherv::new(scale, seed), plan, origin),
        "alltoallw_dense_256" => run_cluster_workload(&Alltoallw::new(scale, seed), plan, origin),
        "transpose_1k" => run_cluster_workload(&Transpose::new(scale, seed), plan, origin),
        "multigrid_64" => run_cluster_workload(&MultigridSolve::new(scale, seed), plan, origin),
        "vecscatter_128" => run_cluster_workload(&Vecscatter::new(scale, seed), plan, origin),
        "observe_64" => Observe::new(scale, seed, &o.out_dir).run(plan, origin).0,
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload {other:?}; one of {names:?}"));
        }
    })
}

/// Rounds of a traced run: about four seconds of measuring on the
/// reference box, fixed so that every counter repeats bit for bit.
fn traced_rounds(workload: &str) -> usize {
    match workload {
        "multigrid_64" => 1,
        "observe_64" => 3,
        "transpose_1k" => 8,
        _ => 4,
    }
}

pub fn run_one(o: &Opts) -> Result<Outcome, String> {
    let origin = Instant::now();
    std::fs::create_dir_all(&o.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", o.out_dir.display()))?;
    let scale = if o.quick { Scale::Quick } else { Scale::Full };
    let plan = match (o.trace, o.quick) {
        (false, false) => Plan::timed(o.seconds),
        (false, true) => Plan::fixed(2, 2),
        (true, false) => Plan::fixed(traced_rounds(&o.workload), 3),
        (true, true) => Plan::fixed(1, 1),
    };
    let d = run_workload(o, scale, &plan, origin)?;
    let metrics = if o.trace {
        let path = o.out_dir.join(format!("trace_{}.json", o.workload));
        std::fs::write(&path, d.spans.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let probe_scale = if o.quick { Scale::Quick } else { Scale::Probe };
        let mut values = probes::run_all(o.seed, probe_scale, &o.out_dir, origin);
        values.extend(workload_values(&d));
        per_layer_in_order(&values)?
    } else {
        let rss = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        let values = [d.wall_s(), d.sim_makespan_us(), rss, d.setup_s()];
        END_TO_END.iter().copied().zip(values).collect()
    };
    Ok(Outcome {
        workload: o.workload.clone(),
        attempted: d.ops_attempted(),
        failed: d.ops_failed(),
        metrics,
        raw_round_wall_s: (0..d.rounds.len()).map(|r| d.raw_round_wall_s(r)).collect(),
        round_slowdown: d.round_slowdown,
    })
}

/// A value with all the digits it was measured with.
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

impl Outcome {
    /// The single-line JSON object the contract asks for.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (def, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                num(*v),
                def.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, one per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: {} ops attempted, {} failed\n  rounds, raw host s: {:.4?}\n  \
             yardstick slowdown: {:.3?}\n",
            self.workload, self.attempted, self.failed, self.raw_round_wall_s, self.round_slowdown
        );
        for (def, v) in &self.metrics {
            let _ = writeln!(out, "  {:<32} {:>16} {}", def.name, num(*v), def.unit);
        }
        out
    }
}
