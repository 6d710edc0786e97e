//! Shared harness utilities for the figure-reproduction benchmarks.
//!
//! Every evaluation figure of the paper (Figures 12–17) has a bench target
//! in `benches/` that prints the same series the paper plots and writes a
//! CSV next to it. The helpers here standardize how a timed phase runs:
//! synchronize (barrier), reset the simulated clocks, run the operation
//! `reps` times, and report the **maximum per-rank simulated time divided
//! by reps** — the way MPI benchmarks report collective latency.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ncd_core::{Comm, MpiConfig, RunDiff, RunRecord};
use ncd_simnet::{
    render_ratio, Capture, Cluster, ClusterCommMap, ClusterConfig, Diagnosis, LedgerRun,
    MetricsRegistry, RankRecorder, RunManifest, RunOutput, SchedStats, SimTime, Stats,
};

pub mod workloads;

pub use ncd_simnet::{series_json, Series};
pub use workloads::{
    amr_diag_counts, amr_diag_loop, amr_diag_workload, AMR_DIAG_OUTLIER, AMR_DIAG_STEPS,
};

/// The harness options every bench target accepts, parsed once at the top
/// of `main`, so `--smoke`, `--ledger`, `--compare <spec>` and `--whatif`
/// behave identically across every `fig*`/`ext_*`/`ablation` bench. The
/// ledger ([`BenchCli::observatory`]) is a run's one machine-readable
/// output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchCli {
    /// Reduced problem sizes (`--smoke`), so CI does not run the full
    /// figure sweep on every push. The mode is part of a ledgered run's
    /// manifest: a smoke run never gates against a full reference.
    pub smoke: bool,
    /// Persist this run's byte-stable exports to the observatory ledger
    /// (`--ledger`).
    pub ledger: bool,
    /// Compare against, and gate on, a prior ledgered run
    /// (`--compare <run-id|latest|path>`). Implies `--ledger` for the
    /// current run.
    pub compare: Option<String>,
    /// Run the counterfactual what-if profiler after the diagnosis phase
    /// (`--whatif`): plan interventions from the findings, replay each
    /// deterministically, report verified gains.
    pub whatif: bool,
}

/// The reference tree CI gates against, relative to the bench cwd
/// (`crates/bench`).
pub const REFERENCE_ROOT: &str = "benches/baselines/observatory";

/// Exit code when `--compare` resolves to no ledgered run, kept distinct
/// from `1` (a run that differs from its reference) so CI logs are
/// unambiguous about *why* the gate failed.
pub const EXIT_NO_REFERENCE: i32 = 3;

impl BenchCli {
    /// Parse the process arguments; exits 2 on a command line
    /// [`BenchCli::from_args`] refuses.
    pub fn parse() -> BenchCli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        BenchCli::from_args(&args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// One pass over `args`: `--smoke`, `--ledger`, `--compare <spec>` /
    /// `--compare=<spec>`, `--whatif`.
    /// Anything else that looks like a flag is an error — a misspelt flag
    /// must not silently switch the gate off — except `--bench`, which
    /// cargo appends to every `harness = false` target; bare words are
    /// cargo's name filter and are ignored.
    pub fn from_args(args: &[String]) -> Result<BenchCli, String> {
        const ACCEPTED: &str = "--smoke, --ledger, --compare <run-id|latest|path>, --whatif";
        let mut cli = BenchCli::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value)),
                None => (arg.as_str(), None),
            };
            let mut value = |what: &str| {
                let next = inline.map(str::to_string).or_else(|| it.next().cloned());
                next.ok_or_else(|| format!("{flag} needs {what}"))
            };
            match flag {
                "--smoke" | "--ledger" | "--whatif" | "--bench" if inline.is_some() => {
                    return Err(format!("{flag} takes no value, got {arg:?}"))
                }
                "--smoke" => cli.smoke = true,
                "--ledger" => cli.ledger = true,
                "--whatif" => cli.whatif = true,
                "--bench" => {}
                "--compare" => cli.compare = Some(value("a run id, 'latest', or a path")?),
                _ if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag}; accepted: {ACCEPTED}"))
                }
                _ => {}
            }
        }
        Ok(cli)
    }

    /// Whether the bench should run its (more expensive, fully traced)
    /// observatory pass at all: only when the run is being ledgered or
    /// compared.
    pub fn wants_observatory(&self) -> bool {
        self.ledger || self.compare.is_some()
    }

    /// Ledger the captured run ([`ledger_run`]) and, when `--compare` was
    /// given, gate it on the base run: it passes only when it reproduces
    /// the base byte for byte ([`mismatches`] is empty), and otherwise
    /// exits 1 with [`gate_failure_report`]; it exits
    /// [`EXIT_NO_REFERENCE`] with the refresh command when the spec
    /// resolves to no run. The differential against the base is printed
    /// either way (`render_compare`); nothing is written beside the run.
    ///
    /// CI gates every bench with a reference run committed under
    /// [`REFERENCE_ROOT`]; `fig17_multigrid` (a ≈ 30 s smoke sweep on a
    /// 2-vCPU Intel Xeon, ledgering megabytes) commits none.
    ///
    /// The comparison base is resolved *before* the current run is
    /// written, so `--compare latest` means "the previous ledgered run",
    /// not the one this call creates.
    pub fn observatory(
        &self,
        name: &str,
        knobs: &[(String, String)],
        series: &[Series],
        capture: &RunCapture,
    ) {
        if !self.wants_observatory() {
            return;
        }
        let root = ncd_simnet::ledger_root();
        let base_dir = self
            .compare
            .as_ref()
            .map(|spec| resolve_compare_dir(&root, name, spec));
        let manifest = ledger_run(name, self.smoke, knobs, series, capture)
            .unwrap_or_else(|e| die(format!("cannot write the run ledger for {name}: {e}")));
        let Some(base_dir) = base_dir else { return };
        let base_dir = base_dir.unwrap_or_else(|e| {
            eprint!("{}", missing_reference_message(name, self.smoke, &e));
            std::process::exit(EXIT_NO_REFERENCE)
        });
        let read = |dir: &Path| {
            ncd_simnet::read_run(dir)
                .unwrap_or_else(|e| die(format!("cannot read ledgered run {}: {e}", dir.display())))
        };
        let record = |run: &LedgerRun| {
            let id = &run.manifest.run_id;
            RunRecord::from_ledger(run).unwrap_or_else(|e| die(format!("malformed run {id}: {e}")))
        };
        let base = read(&base_dir);
        let cur = read(&root.join(name).join(&manifest.run_id));
        let diff = ncd_core::compare(&record(&base), &record(&cur));
        let differing = mismatches(&base, &cur);
        if !differing.is_empty() {
            let report =
                gate_failure_report(name, self.smoke, &diff, &differing, &capture.recorders);
            eprint!("{report}");
            std::process::exit(1);
        }
        print!("\n{}", ncd_core::render_compare(&diff, 10));
        println!(
            "reference gate passed: {name} reproduces run {}",
            base.manifest.run_id
        );
    }
}

/// A failure a CI step must not skip over: say why and exit 1.
fn die(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Best-effort write of `target/<sub>/<file>` (benches may run in
/// read-only setups): the path when it worked.
fn write_out(sub: &str, file: String, text: &str) -> Option<PathBuf> {
    let path = Path::new("target").join(sub).join(file);
    ncd_simnet::write_artifact(&path, text).ok().map(|()| path)
}

/// The command, run from the repository root, that ledgers `name`'s
/// reference run into the committed tree.
fn ledger_command(name: &str, smoke: bool) -> String {
    let smoke_flag = if smoke { "--smoke " } else { "" };
    format!(
        "NCD_OBSERVATORY={REFERENCE_ROOT} \
         cargo bench -p ncd-bench --bench {name} -- {smoke_flag}--ledger"
    )
}

/// What `--compare` prints when its spec resolves to no ledgered run:
/// why, and the command that ledgers the committed reference, so the fix
/// is copy-paste instead of archaeology.
pub fn missing_reference_message(name: &str, smoke: bool, err: &str) -> String {
    format!(
        "reference gate FAILED for {name}: no reference run ({err})\n\
         ledger one with: {}\n\
         then commit crates/bench/{REFERENCE_ROOT}/{name}/ \
         (exit code {EXIT_NO_REFERENCE} = no reference; 1 = differs)\n",
        ledger_command(name, smoke)
    )
}

/// Everything that keeps `cur` from reproducing `reference` byte for
/// byte, empty when it does: the manifest's mode and knobs, then each
/// artifact file, by name, whose bytes differ or which one run
/// lacks. A file the differential never reads (`history.json`,
/// `whatif.json`, the comm map's epochs) is named like any other.
pub fn mismatches(reference: &LedgerRun, cur: &LedgerRun) -> Vec<String> {
    let (b, c) = (&reference.manifest, &cur.manifest);
    let mut out = Vec::new();
    if (&b.mode, &b.knobs) != (&c.mode, &c.knobs) {
        out.push("manifest (mode or knobs)".to_string());
    }
    let files = ncd_core::outer_join(&reference.artifacts, &cur.artifacts, |(file, _)| file);
    for (file, b, c) in files {
        match (b, c) {
            (Some((_, b)), Some((_, c))) if b == c => {}
            (Some(_), Some(_)) => out.push(file.clone()),
            (Some(_), None) => out.push(format!("{file} (reference only)")),
            (None, _) => out.push(format!("{file} (current run only)")),
        }
    }
    out
}

/// Compose the full failure output of the gate: what differs from the
/// reference ([`mismatches`]), the differential `diff` through its own
/// renderer (ranked causes, every moved point, the shape changes), the
/// flight recorder's last-window events for every rank of the measured
/// run (`recorders`, [`RunCapture::recorders`]) — also written to
/// `target/flight/<name>.flight.txt` for CI artifact upload — and the
/// commands that refresh the reference when the change is meant to move
/// it.
///
/// Split out of [`BenchCli::observatory`] so tests can exercise the whole
/// failure path without exiting the process.
pub fn gate_failure_report(
    name: &str,
    smoke: bool,
    diff: &RunDiff,
    differing: &[String],
    recorders: &[Arc<RankRecorder>],
) -> String {
    let mut out = format!(
        "reference gate FAILED for {name}: run {} does not reproduce reference {}\n\
         differs from the reference: {}\n{}",
        diff.cur_id,
        diff.base_id,
        differing.join(", "),
        ncd_core::render_compare(diff, usize::MAX)
    );
    if !recorders.is_empty() {
        let dump = ncd_simnet::render_dump(recorders);
        out.push_str(&dump);
        if let Some(path) = write_out("flight", format!("{name}.flight.txt"), &dump) {
            out.push_str(&format!(
                "flight recorder dump written: {}\n",
                path.display()
            ));
        }
    }
    out.push_str(&format!(
        "if the change is meant to move this reference, refresh it:\n  \
         rm -r crates/bench/{REFERENCE_ROOT}/{name}\n  {}\n\
         then commit crates/bench/{REFERENCE_ROOT}/{name}/\n",
        ledger_command(name, smoke)
    ));
    out
}

/// `-log_view`-style summary of the datatype pack pipeline, built from the
/// `datatype/*` metrics that the communication layer records per pipeline
/// block. One row per engine: blocks processed, sparse/dense classification
/// mix, total context-search segments (the quadratic signal), per-block
/// search and look-ahead averages, and bytes produced. Returns `None` when
/// the registry saw no datatype activity.
pub fn datatype_report(reg: &MetricsRegistry) -> Option<String> {
    let mut engines: Vec<String> = reg
        .counters()
        .filter(|((subsystem, op, _), _)| (*subsystem, *op) == ("datatype", "blocks"))
        .map(|((_, _, algorithm), _)| algorithm.to_string())
        .collect();
    engines.sort();
    engines.dedup();
    if engines.is_empty() {
        return None;
    }
    let mut out = String::from("\n=== datatype pack pipeline ===\n");
    out.push_str(&format!(
        "{:<16}{:>8}{:>8}{:>8}{:>12}{:>10}{:>12}{:>12}\n",
        "engine", "blocks", "sparse", "dense", "seek segs", "seek/blk", "lookahd/blk", "bytes"
    ));
    for e in &engines {
        let blocks = reg.counter("datatype", "blocks", e);
        let sparse = reg.counter("datatype", "sparse_blocks", e);
        let dense = reg.counter("datatype", "dense_blocks", e);
        let seek = reg.counter("datatype", "seek_total", e);
        let seek_per_block = if blocks > 0 {
            seek as f64 / blocks as f64
        } else {
            0.0
        };
        let lookahead_per_block = reg
            .histogram("datatype", "lookahead_window", e)
            .map(|h| h.mean())
            .unwrap_or(0.0);
        let bytes = reg
            .histogram("datatype", "block_bytes", e)
            .map(|h| h.sum())
            .unwrap_or(0);
        out.push_str(&format!(
            "{e:<16}{blocks:>8}{sparse:>8}{dense:>8}{seek:>12}{seek_per_block:>10.1}{lookahead_per_block:>12.1}{bytes:>12}\n"
        ));
    }
    Some(out)
}

/// `-log_view`-style summary of the event scheduler's own work during a
/// run (see [`ncd_simnet::SchedStats`]): context switches, parks, wakes,
/// ready-queue pressure, and the fiber-stack high-water mark. One header
/// row plus one value row, followed by the occupied buckets of the
/// ready-depth log₂ histogram. Returns `None` for an empty survey (no
/// tasks driven).
pub fn sched_report(stats: &SchedStats) -> Option<String> {
    if stats.tasks == 0 {
        return None;
    }
    let mut out = format!("\n=== event scheduler ({}) ===\n", stats.backend);
    out.push_str(&format!(
        "{:>8}{:>10}{:>11}{:>10}{:>12}{:>12}\n",
        "tasks", "resumes", "parks-blk", "wakes", "mean-depth", "max-stack-B"
    ));
    out.push_str(&format!(
        "{:>8}{:>10}{:>11}{:>10}{:>12.2}{:>12}\n",
        stats.tasks,
        stats.resumes,
        stats.parks_blocked,
        stats.deposit_wakes,
        stats.mean_depth(),
        stats.max_stack_bytes
    ));
    let buckets: Vec<String> = stats
        .ready_depth_log2
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(i, count)| {
            let lo = 1u64 << i;
            let hi = (1u64 << (i + 1)) - 1;
            if lo == hi {
                format!("{lo}:{count}")
            } else {
                format!("{lo}-{hi}:{count}")
            }
        })
        .collect();
    if !buckets.is_empty() {
        out.push_str(&format!("ready-queue depth: {}\n", buckets.join("  ")));
    }
    Some(out)
}

/// Table of the `decision/*` metrics the auto-selecting collectives emit:
/// one row per (collective, chosen algorithm) with call count, bytes seen,
/// and the last recorded outlier-ratio evidence, followed by the stated
/// selection reasons. Returns `None` when no decision was recorded.
pub fn decision_report(reg: &MetricsRegistry) -> Option<String> {
    let mut rows: Vec<(String, String)> = reg
        .counters()
        .filter(|((subsystem, _, _), _)| *subsystem == "decision")
        .map(|((_, op, algorithm), _)| (op.to_string(), algorithm.to_string()))
        .collect();
    rows.sort();
    rows.dedup();
    if rows.is_empty() {
        return None;
    }
    let mut out = String::from("\n=== collective algorithm decisions ===\n");
    out.push_str(&format!(
        "{:<13}{:<22}{:>8}{:>14}{:>12}{:>10}\n",
        "collective", "chosen", "calls", "bytes", "mean B", "ratio"
    ));
    for (coll, chosen) in &rows {
        let calls = reg.counter("decision", coll, chosen);
        let h = reg.histogram("decision_bytes", coll, chosen);
        let bytes = h.map(|h| h.sum()).unwrap_or(0);
        let mean = h.map(|h| h.mean()).unwrap_or(0.0);
        let ratio = reg
            .gauge("decision_ratio", coll, chosen)
            .map(|r| format!("{r:.1}"))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{coll:<13}{chosen:<22}{calls:>8}{bytes:>14}{mean:>12.0}{ratio:>10}\n"
        ));
    }
    let mut reasons: Vec<(String, String, u64)> = reg
        .counters()
        .filter(|((subsystem, _, _), _)| *subsystem == "decision_reason")
        .map(|((_, op, algorithm), v)| (op.to_string(), algorithm.to_string(), v))
        .collect();
    reasons.sort();
    for (coll, reason, count) in &reasons {
        out.push_str(&format!("  {coll}: {reason} ({count})\n"));
    }
    Some(out)
}

/// "Who talks to whom" summary of a merged communication map: the ASCII
/// heatmap, nonuniformity analytics of the total matrix (outlier ratio,
/// spread, Gini), the hottest pairs, and the per-epoch breakdown. Returns
/// `None` when the map saw no traffic.
pub fn comm_report(map: &ClusterCommMap) -> Option<String> {
    let (total, epochs) = ncd_core::analyze_comm_map(map, 5);
    let total = total?;
    let mut out = format!(
        "\n=== communication map ({} ranks, {} B, {} msgs) ===\n",
        map.n,
        map.total.total_bytes(),
        map.total.total_msgs()
    );
    out.push_str(&ncd_simnet::render_heatmap(&map.total));
    out.push_str(&format!(
        "pairs={} max={} B min={} B mean={:.0} B spread={} outlier-ratio={} gini={:.3}\n",
        total.pairs,
        total.max_bytes,
        total.min_bytes,
        total.mean_bytes,
        render_ratio(total.spread),
        render_ratio(total.outlier_ratio),
        total.gini
    ));
    out.push_str("hot pairs:");
    for (s, d, b) in &total.top {
        out.push_str(&format!(" {s}->{d}:{b}B"));
    }
    out.push('\n');
    if !epochs.is_empty() {
        out.push_str("per-epoch nonuniformity:\n");
        for e in &epochs {
            let a = &e.analysis;
            let bytes = (a.mean_bytes * a.pairs as f64).round() as u64;
            out.push_str(&format!(
                "  {:<30} pairs={:>4} bytes={:>12} outlier-ratio={:>8} gini={:.3}\n",
                format!("{}#{}", e.label, e.occurrence),
                a.pairs,
                bytes,
                render_ratio(a.outlier_ratio),
                a.gini
            ));
        }
    }
    Some(out)
}

/// Everything one captured run produced. [`report`], [`ledger_run`] and
/// [`BenchCli::observatory`] print and persist a section or artifact for
/// exactly the parts that are `Some`; the default value holds nothing.
#[derive(Default)]
pub struct RunCapture {
    /// Completion time, max over ranks ([`time_phase`]: per iteration).
    pub time: SimTime,
    /// Each rank's cost breakdown over the measured part of the run.
    pub stats: Vec<Stats>,
    /// What the run's configured observers saw.
    pub capture: Capture,
    /// The causal profile's byte-stable JSON when the bench ran
    /// [`whatif_phase`]; `None` keeps the ledgered artifact set — and
    /// therefore the run id — identical to a run without it.
    pub whatif: Option<String>,
    /// The captured run's scheduler survey ([`time_phase`] fills it).
    pub sched: Option<SchedStats>,
    /// The captured run's flight recorders, dumped by a failing gate.
    pub recorders: Vec<Arc<RankRecorder>>,
}

impl RunCapture {
    /// A completed run whose ranks each returned their clock reading and
    /// [`Stats`], with its capture, survey and recorders; a failed run is
    /// raised ([`RunOutput::unwrap`]).
    pub fn of(out: RunOutput<(SimTime, Stats)>) -> RunCapture {
        let (sched, recorders) = (out.sched.clone(), out.recorders.clone());
        let (parts, capture) = out.unwrap();
        let time = parts.iter().map(|(t, _)| *t).max().unwrap_or_default();
        RunCapture {
            time,
            stats: parts.into_iter().map(|(_, s)| s).collect(),
            capture,
            whatif: None,
            sched: Some(sched),
            recorders,
        }
    }

    /// The wait-state classification of the traces, when the run was
    /// traced.
    pub fn diagnosis(&self) -> Option<Diagnosis> {
        self.capture.traces.as_deref().map(ncd_simnet::diagnose)
    }
}

/// Run `body` on a cluster, observed as `cluster_cfg` configures
/// ([`ClusterConfig::observe`]), and capture the per-iteration completion
/// time (max over ranks), each rank's stats for breakdown reporting, and
/// what the observers saw over the measured iterations.
///
/// `body` receives the communicator and the iteration index; one warmup
/// iteration (index `usize::MAX`) runs before the clocks reset, and its
/// stats and observations are dropped ([`ncd_simnet::Rank::harvest`]).
pub fn time_phase(
    cluster_cfg: ClusterConfig,
    mpi_cfg: MpiConfig,
    reps: usize,
    body: impl Fn(&mut Comm, usize) + Send + Sync,
) -> RunCapture {
    assert!(reps > 0);
    let run = Cluster::new(cluster_cfg).try_run(|rank| {
        let mut comm = Comm::new(rank, mpi_cfg.clone());
        body(&mut comm, usize::MAX); // warmup
        comm.barrier();
        let rank = comm.rank_mut();
        rank.reset_clock();
        let _ = (rank.take_stats(), rank.harvest());
        for it in 0..reps {
            body(&mut comm, it);
        }
        (comm.rank_ref().now(), comm.rank_mut().take_stats())
    });
    let mut capture = RunCapture::of(run);
    capture.time = SimTime::from_ns(capture.time.as_ns() / reps as u64);
    capture
}

/// Persist one run into the observatory ledger
/// (`target/observatory/<name>/<run-id>/`, override with
/// `NCD_OBSERVATORY`): the series plus every byte-stable export the
/// capture holds — metrics snapshot, comm matrix, epoch history, (from
/// the traces) critical-path analysis, the algorithm-decision audit and
/// the wait-state diagnosis, and the what-if profile. The run id is a
/// deterministic content hash, so re-ledgering an unchanged run is
/// idempotent and an id change is itself a behaviour-change signal.
pub fn ledger_run(
    name: &str,
    smoke: bool,
    knobs: &[(String, String)],
    series: &[Series],
    capture: &RunCapture,
) -> std::io::Result<RunManifest> {
    let mut artifacts: Vec<(String, String)> = Vec::new();
    let mut add = |file: &str, json: String| artifacts.push((file.to_string(), json));
    add("series.json", series_json(name, smoke, series));
    if let Some(m) = &capture.capture.metrics {
        let json = ncd_simnet::metrics_artifact_json(&m.snapshot());
        add("metrics.json", json);
    }
    if let Some(map) = &capture.capture.comm_map {
        add("comm.json", ncd_simnet::comm_matrix_json(map));
    }
    if let Some(h) = &capture.capture.history {
        add("history.json", ncd_simnet::history_json(h));
    }
    if let Some(traces) = &capture.capture.traces {
        let path = ncd_simnet::HbGraph::build(traces).critical_path();
        let attr = ncd_simnet::attribute_rounds(traces);
        add("analysis.json", ncd_simnet::analysis_json(&path, &attr));
        // Decisions are symmetric across ranks (every rank selects from
        // the same counts); rank 0's audit stands for the run.
        let decisions = ncd_core::decisions_from_trace(&traces[0]);
        add("decisions.json", ncd_core::decisions_json(&decisions));
        let diagnosis = ncd_simnet::diagnose(traces);
        add("diagnosis.json", ncd_simnet::diagnosis_json(&diagnosis));
    }
    if let Some(json) = &capture.whatif {
        add("whatif.json", json.clone());
    }
    let root = ncd_simnet::ledger_root();
    let mode = if smoke { "smoke" } else { "full" };
    let manifest = ncd_simnet::write_run(&root, name, mode, knobs, &artifacts)?;
    println!(
        "run ledgered: {name} {} -> {}",
        manifest.run_id,
        root.join(name).join(&manifest.run_id).display()
    );
    Ok(manifest)
}

/// Resolve a `--compare` spec for `name` against the ledger at `root`.
/// Beyond [`ncd_simnet::resolve_run_dir`]'s forms (`latest`, a 16-hex run
/// id, a run-directory path), a path to an *alternate ledger root*
/// containing `<name>/latest` — e.g. a committed reference tree — is
/// followed to that root's latest run for this bench.
fn resolve_compare_dir(root: &Path, name: &str, spec: &str) -> Result<PathBuf, String> {
    let p = Path::new(spec);
    if p.is_dir() && p.join(name).join("latest").is_file() {
        let id = ncd_simnet::latest_run_id(p, name)
            .ok_or_else(|| format!("empty latest pointer under {}/{name}", p.display()))?;
        return Ok(p.join(name).join(id));
    }
    let dir = ncd_simnet::resolve_run_dir(root, name, spec)?;
    if dir.join("manifest.json").is_file() {
        Ok(dir)
    } else {
        Err(format!("no ledgered run at {}", dir.display()))
    }
}

/// Tie-break-seed perturbations the what-if phase replays each intervened
/// configuration under. The event scheduler's contract says the result
/// must not change, so any spread across these marks the measurement (not
/// the simulation) as fragile.
pub const WHATIF_SEEDS: &[u64] = &[7, 99];

/// Run the counterfactual what-if profiler over a traced diagnosis run:
/// plan targeted interventions from the findings and the decision audit
/// ([`ncd_core::plan_experiments`]), deterministically replay each one
/// ([`ncd_core::causal_profile`], one replay per core at a time), print
/// the causal profile and the findings with their measured `verified_gain`.
///
/// Returns the byte-stable JSON for ledgering — benches store it in
/// [`RunCapture::whatif`] before calling [`BenchCli::observatory`].
/// `None` when the planner found nothing to test. `workload` must be the
/// same workload `run` captured, or the replayed gains verify a different
/// run than the one diagnosed.
pub fn whatif_phase(
    name: &str,
    cluster: &ClusterConfig,
    mpi: &MpiConfig,
    run: &RunCapture,
    workload: impl Fn(&mut Comm) + Send + Sync,
) -> Option<String> {
    let traces = run.capture.traces.as_deref();
    let traces = traces.expect("what-if needs a traced run");
    let mut diag = ncd_simnet::diagnose(traces);
    let decisions = ncd_core::decisions_from_trace(&traces[0]);
    let audit = ncd_core::detect_misselections(
        &decisions,
        run.capture.comm_map.as_ref(),
        &cluster.cost,
        mpi,
    );
    let plan = ncd_core::plan_experiments(&diag, &decisions, &audit, 3);
    if plan.is_empty() {
        println!("\nwhat-if: no findings or flags to test for {name}");
        return None;
    }
    let profile = ncd_core::causal_profile(cluster, mpi, &plan, WHATIF_SEEDS, &workload);
    profile.apply_verified_gains(&mut diag);
    print!("{}", ncd_core::whatif_report(&profile));
    print!("\n{}", diag.render(5));
    Some(ncd_core::whatif_json(&profile))
}

/// Aggregate per-rank stats into one cluster-wide breakdown.
pub fn aggregate(stats: &[Stats]) -> Stats {
    let mut total = Stats::new();
    for s in stats {
        total.merge(s);
    }
    total
}

/// Percentage improvement of `new` over `old` (positive = new is faster).
pub fn improvement_pct(old: SimTime, new: SimTime) -> f64 {
    if old.as_ns() == 0 {
        return 0.0;
    }
    100.0 * (old.as_ns() as f64 - new.as_ns() as f64) / old.as_ns() as f64
}

/// Prefix every series label with `prefix/` so two sweeps of the same
/// bench (which often reuse labels like "MVAPICH2-0.9.5") can share one
/// ledgered run without colliding in the differential's label-keyed
/// series join.
pub fn relabel(prefix: &str, series: &[Series]) -> Vec<Series> {
    series
        .iter()
        .map(|s| Series {
            label: format!("{prefix}/{}", s.label),
            points: s.points.clone(),
        })
        .collect()
}

/// Print an aligned table of several series sharing the x axis and write
/// the same data as CSV under `target/figures/<name>.csv`, followed by one
/// printed section per part `capture` holds. Pass `&RunCapture::default()`
/// for a plain sweep. The parts' byte-stable JSON is written only by the
/// ledger ([`BenchCli::observatory`]).
pub fn report(name: &str, x_label: &str, y_label: &str, series: &[Series], capture: &RunCapture) {
    println!("\n=== {name} ({y_label}) ===");
    print!("{:>14}", x_label);
    for s in series {
        print!("{:>22}", s.label);
    }
    println!();
    // One row per point index, named by the first series that has it.
    let npoints = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    let rows: Vec<(&str, Vec<Option<f64>>)> = (0..npoints)
        .map(|i| {
            let x = series.iter().find_map(|s| s.points.get(i));
            let ys = series.iter().map(|s| s.points.get(i).map(|(_, y)| *y));
            (x.map_or("", |(x, _)| x.as_str()), ys.collect())
        })
        .collect();
    for (x, ys) in &rows {
        print!("{x:>14}");
        for y in ys {
            match y {
                Some(y) => print!("{y:>22.3}"),
                None => print!("{:>22}", "-"),
            }
        }
        println!();
    }

    // Metrics: the pack-pipeline summary whenever the registry saw
    // datatype-engine activity (noncontiguous sends), and the
    // algorithm-decision audit whenever an auto-selecting collective ran
    // under it.
    let metrics = capture.capture.metrics.as_ref();
    if let Some(table) = metrics.and_then(datatype_report) {
        print!("{table}");
    }
    if let Some(table) = metrics.and_then(decision_report) {
        print!("{table}");
    }

    // Comm map: who talks to whom.
    if let Some(table) = capture.capture.comm_map.as_ref().and_then(comm_report) {
        print!("{table}");
    }

    // History: the sparkline dashboard, any regime shifts an offline
    // replay detects, and the pattern-recurrence table.
    if let Some(h) = &capture.capture.history {
        print!("\n{}", ncd_simnet::history_report(h));
        let drift = ncd_core::detect_drift(h);
        if !drift.is_empty() {
            print!("\n{}", ncd_core::render_drift_events(&drift));
        }
        let recurrence = ncd_core::pattern_recurrence(h);
        if !recurrence.is_empty() {
            print!("\n{}", ncd_core::render_recurrence(&recurrence));
        }
    }

    // Traces: the ranked wait-pattern findings and blame matrix.
    if let Some(d) = capture.diagnosis() {
        print!("\n{}", d.render(10));
    }

    // The scheduler's survey of the captured run — how hard the event
    // loop itself worked to produce the numbers above.
    if let Some(table) = capture.sched.as_ref().and_then(sched_report) {
        print!("{table}");
    }

    let mut csv = x_label.to_string();
    for s in series {
        csv.push(',');
        csv.push_str(&s.label);
    }
    csv.push('\n');
    for (x, ys) in &rows {
        csv.push_str(x);
        for y in ys {
            csv.push(',');
            if let Some(y) = y {
                csv.push_str(&y.to_string());
            }
        }
        csv.push('\n');
    }
    write_out("figures", format!("{name}.csv"), &csv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncd_simnet::{Observers, Tag};

    #[test]
    fn time_phase_measures_per_iteration() {
        let ping = |comm: &mut Comm, _it: usize| {
            if comm.rank() == 0 {
                comm.rank_mut().send_bytes(1, Tag(0), vec![0; 1200]);
            } else {
                let _ = comm.rank_mut().recv_bytes(Some(0), Tag(0));
            }
        };
        let run = |reps| {
            let cluster = ClusterConfig::uniform(2);
            time_phase(cluster, MpiConfig::optimized(), reps, ping).time
        };
        // Per-iteration time should be roughly rep-count independent.
        let ratio = run(1).as_ns() as f64 / run(4).as_ns() as f64;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn improvement_pct_signs() {
        assert_eq!(improvement_pct(SimTime(100), SimTime(50)), 50.0);
        assert_eq!(improvement_pct(SimTime(100), SimTime(100)), 0.0);
        assert!(improvement_pct(SimTime(50), SimTime(100)) < 0.0);
        assert_eq!(improvement_pct(SimTime(0), SimTime(10)), 0.0);
    }

    /// The 4-rank uniform allgatherv the observer tests below share.
    fn allgatherv4(comm: &mut Comm, _it: usize) {
        let counts = vec![64usize; 4];
        let send = vec![1u8; 64];
        let mut recv = vec![0u8; 256];
        comm.allgatherv(&send, &counts, &mut recv);
    }

    #[test]
    fn observers_never_move_the_clock_and_captures_hold_what_was_asked() {
        const REPS: usize = 3;
        let run = |observe| {
            let cluster = ClusterConfig::uniform(4).observe(observe);
            time_phase(cluster, MpiConfig::optimized(), REPS, allgatherv4)
        };
        let plain = run(Observers::NONE);
        assert_eq!(plain.stats.len(), 4);
        // Every set a caller uses: the figure sweeps (none, metrics), the
        // observatory passes and ext_drift, ext_amr_skew's sweeps and its
        // diagnosis phase, a history alone, and everything.
        let metrics = Observers {
            metrics: true,
            ..Observers::NONE
        };
        let amr_sweep = Observers {
            comm_map: true,
            ..metrics
        };
        let amr_diag = Observers {
            comm_map: true,
            trace: true,
            ..Observers::NONE
        };
        let history = Observers {
            history: true,
            ..Observers::NONE
        };
        for observe in [
            Observers::NONE,
            metrics,
            amr_sweep,
            amr_diag,
            history,
            Observers::ALL,
        ] {
            let c = run(observe);
            assert_eq!(c.time, plain.time, "{observe:?}");
            assert_eq!(
                format!("{:?}", c.stats),
                format!("{:?}", plain.stats),
                "{observe:?}"
            );
            let parts = &c.capture;
            assert_eq!(
                (
                    parts.metrics.is_some(),
                    parts.comm_map.is_some(),
                    parts.history.is_some(),
                    parts.traces.is_some(),
                    c.whatif.is_some()
                ),
                (
                    observe.metrics,
                    observe.comm_map || observe.history, // a history brings its map
                    observe.history,
                    observe.trace,
                    false
                ),
                "{observe:?}"
            );
            assert_eq!(c.diagnosis().is_some(), observe.trace);
        }

        let all = run(Observers::ALL).capture;
        let stats = run(Observers::NONE).stats;
        // Metrics: 4 ranks x 3 measured reps, warm-up dropped.
        let metrics = all.metrics.as_ref().expect("metrics");
        let h = metrics
            .histogram("decision_bytes", "allgatherv", "recursive_doubling")
            .expect("audited bytes");
        assert_eq!(h.count(), 4 * REPS as u64);
        assert_eq!(
            metrics.counter("decision", "allgatherv", "recursive_doubling"),
            4 * REPS as u64
        );
        // The flat-time counters mirror Stats exactly, cluster-wide.
        let total: u64 = aggregate(&stats).total().as_ns();
        let counted: u64 = ncd_simnet::CostKind::ALL
            .iter()
            .map(|k| metrics.counter("time", k.label(), ""))
            .sum();
        assert_eq!(counted, total);

        // Comm map: exactly the measured epochs, and its columns match
        // what each rank's mailbox delivered.
        let map = all.comm_map.as_ref().expect("comm map");
        assert_eq!(map.n, 4);
        assert!(map.total.total_bytes() > 0);
        let epochs = map
            .epochs
            .iter()
            .filter(|e| e.label == "allgatherv/recursive_doubling");
        assert_eq!(epochs.count(), REPS);
        for (r, s) in stats.iter().enumerate() {
            assert_eq!(map.total.col_bytes(r), s.bytes_recvd, "rank {r}");
        }
        let table = comm_report(map).expect("traffic present");
        assert!(table.contains("communication map (4 ranks"));
        assert!(table.contains("allgatherv/recursive_doubling#0"));
        assert!(table.contains("hot pairs:"));
        let silent = ncd_simnet::merge_comm_maps(&[ncd_simnet::RankCommMap::new(0, 1)]);
        assert!(comm_report(&silent).is_none());

        // History: one point per measured call, totals agreeing with the
        // comm map's; a uniform steady series recurs perfectly.
        let history = all.history.as_ref().expect("history");
        assert_eq!(history.n, 4);
        let pts = history.series("allgatherv/recursive_doubling");
        assert_eq!(pts.len(), REPS, "labels: {:?}", history.series_labels());
        assert_eq!(
            pts.iter().map(|p| p.bytes).sum::<u64>(),
            map.total.total_bytes()
        );
        let rec = ncd_core::pattern_recurrence(history);
        assert_eq!(rec[0].distinct, 1);
        assert_eq!(rec[0].stability, 1.0);

        // Traces: one per rank, in rank order.
        let traces = all.traces.as_ref().expect("traces");
        assert_eq!(traces.len(), 4);
        assert!(traces.iter().all(|t| !t.is_empty()));
    }

    /// `report` prints a section per captured part and writes the CSV and
    /// nothing else: every part's byte-stable JSON is the ledger's alone.
    #[test]
    fn report_writes_only_the_csv() {
        let mut s = Series::new("latency");
        s.push("4", 1.0);
        s.push("8", 2.5);
        let cluster = ClusterConfig::uniform(4).observe(Observers::ALL);
        let capture = time_phase(cluster, MpiConfig::optimized(), 3, allgatherv4);
        let name = "unit_test_csv_only_fig";
        report(name, "n", "us", &[s], &capture);
        let csv = std::fs::read_to_string(format!("target/figures/{name}.csv")).expect("csv");
        assert_eq!(csv, "n,latency\n4,1\n8,2.5\n");
        let written = |path: String| Path::new(&path).exists();
        assert!(!written(format!("target/figures/{name}.json")));
        for part in [
            "comm.json",
            "history.json",
            "diagnosis.json",
            "decisions.txt",
        ] {
            assert!(!written(format!("target/analysis/{name}.{part}")), "{part}");
        }
    }

    #[test]
    fn datatype_report_summarizes_engines() {
        let mut reg = MetricsRegistry::enabled();
        reg.counter_add("datatype", "blocks", "single-context", 4);
        reg.counter_add("datatype", "sparse_blocks", "single-context", 3);
        reg.counter_add("datatype", "dense_blocks", "single-context", 1);
        reg.counter_add("datatype", "seek_total", "single-context", 120);
        reg.observe("datatype", "lookahead_window", "single-context", 8);
        reg.observe("datatype", "block_bytes", "single-context", 4096);
        reg.counter_add("datatype", "blocks", "dual-context", 4);
        let table = datatype_report(&reg).expect("datatype activity present");
        assert!(table.contains("datatype pack pipeline"));
        assert!(table.contains("single-context"));
        assert!(table.contains("dual-context"));
        // 120 seeks over 4 blocks = 30.0 per block.
        assert!(table.contains("30.0"), "table:\n{table}");
        assert!(table.contains("4096"), "table:\n{table}");
    }

    #[test]
    fn decision_report_tabulates_choices_and_reasons() {
        let mut reg = MetricsRegistry::enabled();
        reg.counter_add("decision", "allgatherv", "ring", 16);
        reg.counter_add(
            "decision_reason",
            "allgatherv",
            "total >= long threshold",
            16,
        );
        reg.gauge_set("decision_ratio", "allgatherv", "ring", 8192.0);
        reg.observe("decision_bytes", "allgatherv", "ring", 65_664);
        let table = decision_report(&reg).expect("decisions present");
        assert!(table.contains("collective algorithm decisions"));
        assert!(table.contains("ring") && table.contains("8192.0"));
        assert!(table.contains("total >= long threshold (16)"));
        assert!(decision_report(&MetricsRegistry::enabled()).is_none());
    }

    #[test]
    fn datatype_report_empty_without_pack_activity() {
        let mut reg = MetricsRegistry::enabled();
        reg.counter_add("allgatherv", "bytes", "ring", 7);
        assert!(datatype_report(&reg).is_none());
    }

    #[test]
    fn gate_failure_report_attaches_flight_dump() {
        // Capture a run with noncontiguous traffic so its flight recorders
        // hold pack-pipeline events, then force a regression.
        use ncd_datatype::{matrix_column_type, Datatype};
        let mut cfg = MpiConfig::baseline();
        cfg.engine.block_size = 4096;
        let capture = time_phase(ClusterConfig::uniform(2), cfg, 1, |comm, _| {
            let col = matrix_column_type(32, 32, 3).unwrap();
            let n = 32 * 32 * 24;
            if comm.rank() == 0 {
                comm.send(&vec![1u8; n], &col, 32, 1, Tag(0));
            } else {
                let row = Datatype::contiguous(n, &Datatype::byte()).unwrap();
                comm.recv(&mut vec![0u8; n], &row, 1, Some(0), Tag(0));
            }
        });
        let mut base = record("latency", &[("1024", 10.0)]);
        let mut cur = record("latency", &[("1024", 20.0)]);
        let seeks = |n| ("datatype/seek_total/single-context".to_string(), n);
        base.metrics.counters.push(seeks(40));
        cur.metrics.counters.push(seeks(120));
        (base.run_id, cur.run_id) = ("00000000000000aa".into(), "00000000000000bb".into());
        let diff = ncd_core::compare(&base, &cur);
        let differing = ["metrics.json".to_string(), "series.json".to_string()];
        let report = gate_failure_report(
            "unit_test_gate_fig",
            true,
            &diff,
            &differing,
            &capture.recorders,
        );
        assert!(report.starts_with(
            "reference gate FAILED for unit_test_gate_fig: run 00000000000000bb does not \
             reproduce reference 00000000000000aa\n\
             differs from the reference: metrics.json, series.json\n"
        ));
        assert!(report.contains("+100.0%"), "moved point:\n{report}");
        assert!(
            report.contains("[pack] +80  context-search segments 40 -> 120"),
            "ranked causes:\n{report}"
        );
        assert_eq!(report.matches("run differential").count(), 1, "{report}");
        assert!(
            report.contains("flight recorder: last events per rank"),
            "report missing dump:\n{report}"
        );
        assert!(
            report.contains("pack-block engine=single-context"),
            "dump missing pack events:\n{report}"
        );
        let on_disk = std::fs::read_to_string("target/flight/unit_test_gate_fig.flight.txt")
            .expect("flight dump written for artifact upload");
        assert!(on_disk.contains("pack-block engine=single-context"));
    }

    #[test]
    fn sched_report_formats_the_survey() {
        let mut stats = SchedStats {
            tasks: 4,
            backend: "fiber",
            resumes: 12,
            parks_blocked: 8,
            deposit_wakes: 8,
            depth_sum: 30,
            max_stack_bytes: 18_432,
            ..Default::default()
        };
        stats.ready_depth_log2[0] = 3;
        stats.ready_depth_log2[1] = 6;
        stats.ready_depth_log2[2] = 3;
        let table = sched_report(&stats).expect("non-empty survey");
        assert!(table.contains("=== event scheduler (fiber) ==="), "{table}");
        assert!(
            table.contains("ready-queue depth: 1:3  2-3:6  4-7:3"),
            "{table}"
        );
        assert!(table.contains("2.50"), "mean depth 30/12:\n{table}");
        assert!(table.contains("18432"), "{table}");
        assert!(
            sched_report(&SchedStats::default()).is_none(),
            "an empty survey renders nothing"
        );
    }

    /// Every accepted form parses; everything else that looks like a flag
    /// stops the bench — ignored, a misspelt `--compare` runs everything
    /// and gates nothing.
    #[test]
    fn bench_cli_parses_every_flag_form_and_refuses_the_rest() {
        let cli = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            BenchCli::from_args(&args)
        };
        let all = BenchCli {
            smoke: true,
            ledger: true,
            compare: Some("latest".to_string()),
            whatif: true,
        };
        let spaced = cli("--smoke --ledger --compare latest --whatif");
        let inline = cli("--smoke --ledger --compare=latest --whatif");
        assert_eq!((spaced, inline), (Ok(all.clone()), Ok(all)));
        assert_eq!(cli(""), Ok(BenchCli::default()));
        assert!(!BenchCli::default().wants_observatory());
        let compared = cli("--compare=0123456789abcdef").expect("run id");
        assert!(compared.wants_observatory() && !compared.ledger);
        // What cargo itself passes: `--bench` to every `harness = false`
        // target, and the user's name filter as a bare word.
        let smoke = BenchCli {
            smoke: true,
            ..BenchCli::default()
        };
        assert_eq!(cli("fig14 --smoke --bench"), Ok(smoke));

        for (line, names) in [
            ("--smoke --basline check", "unknown flag --basline"),
            ("--comprae=latest", "unknown flag --comprae"),
            ("-smoke", "unknown flag -smoke"),
            ("--smoke=1", "--smoke takes no value, got \"--smoke=1\""),
            ("--ledger=yes", "--ledger takes no value"),
            ("--whatif=1", "--whatif takes no value"),
            ("--bench=x", "--bench takes no value"),
            ("--report json", "unknown flag --report"),
            ("--report=json", "unknown flag --report"),
            ("--compare", "--compare needs a run id"),
        ] {
            let err = cli(line).expect_err(names);
            assert!(err.contains(names), "{line}: {err}");
        }
        let err = cli("--basline").unwrap_err();
        let accepted = "--smoke, --ledger, --compare <run-id|latest|path>, --whatif";
        assert!(
            err.ends_with(accepted),
            "must list the accepted flags: {err}"
        );
    }

    /// A run record holding one series, as the differential reads it.
    fn record(label: &str, points: &[(&str, f64)]) -> RunRecord {
        let mut series = Series::new(label);
        points.iter().for_each(|&(x, y)| series.push(x, y));
        RunRecord {
            mode: "smoke".to_string(),
            series: vec![series],
            ..RunRecord::default()
        }
    }

    /// A ledgered run of the bench `gate`, its id hashed from its parts.
    fn ledgered(mode: &str, knobs: &[(&str, &str)], files: &[(&str, String)]) -> LedgerRun {
        let knobs: Vec<_> = knobs.iter().map(|&(k, v)| (k.into(), v.into())).collect();
        let artifacts: Vec<_> = files
            .iter()
            .map(|(f, c)| (f.to_string(), c.clone()))
            .collect();
        LedgerRun {
            manifest: RunManifest {
                bench: "gate".to_string(),
                mode: mode.to_string(),
                schema: ncd_simnet::SCHEMA_VERSION,
                run_id: ncd_simnet::ledger::run_id("gate", mode, &knobs, &artifacts),
                knobs,
            },
            artifacts,
        }
    }

    /// The `series.json` of one series `label` in `mode`.
    fn series_file(mode: &str, label: &str, points: &[(&str, f64)]) -> (&'static str, String) {
        let mut series = Series::new(label);
        points.iter().for_each(|&(x, y)| series.push(x, y));
        (
            "series.json",
            series_json("gate", mode == "smoke", &[series]),
        )
    }

    #[test]
    fn the_gate_passes_only_a_run_that_is_its_reference_byte_for_byte() {
        const POINTS: [(&str, f64); 2] = [("1", 100.0), ("2", 200.0)];
        const SERIES: &[&str] = &["series.json"];
        const MANIFEST: &str = "manifest (mode or knobs)";
        let run = |mode, label, points: &[(&str, f64)]| {
            ledgered(mode, &[], &[series_file(mode, label, points)])
        };
        let lat = |points: &[(&str, f64)]| run("smoke", "lat", points);
        let base = || lat(&POINTS);
        // The reference plus a `whatif.json` holding `n`.
        let whatif = |n: u32| {
            let file = ("whatif.json", format!("{{\"schema\":1,\"n\":{n}}}"));
            ledgered("smoke", &[], &[series_file("smoke", "lat", &POINTS), file])
        };
        let procs = ledgered(
            "smoke",
            &[("procs", "4")],
            &[series_file("smoke", "lat", &POINTS)],
        );
        // (reference, current, what the gate names)
        let table: [(_, _, &[&str]); 12] = [
            (base(), base(), &[]),
            // Slower within the old 10 % slack, faster, or unmeasured.
            (base(), lat(&[("1", 109.0), POINTS[1]]), SERIES),
            (base(), lat(&[("1", 50.0), POINTS[1]]), SERIES),
            (base(), lat(&[POINTS[0], ("2", f64::NAN)]), SERIES),
            // Renamed, or a point gone.
            (base(), run("smoke", "latency", &POINTS), SERIES),
            (base(), lat(&POINTS[..1]), SERIES),
            // A smoke run against a full reference sweeps other sizes.
            (run("full", "lat", &POINTS), base(), &[MANIFEST, SERIES[0]]),
            (base(), procs, &[MANIFEST]),
            // A file the differential never reads, on one side only or
            // one byte apart.
            (base(), whatif(1), &["whatif.json (current run only)"]),
            (whatif(1), base(), &["whatif.json (reference only)"]),
            (whatif(1), whatif(2), &["whatif.json"]),
            (whatif(1), whatif(1), &[]),
        ];
        for (case, (reference, current, names)) in table.into_iter().enumerate() {
            assert_eq!(mismatches(&reference, &current), names, "row {case}");
            let same_id = reference.manifest.run_id == current.manifest.run_id;
            assert_eq!(names.is_empty(), same_id, "row {case}");
        }
    }

    #[test]
    fn missing_reference_message_names_reason_command_and_exit_code() {
        let why = "no ledgered run at benches/baselines/observatory";
        let msg = missing_reference_message("fig14_allgatherv", true, why);
        assert!(msg.contains("(no ledgered run at benches/baselines/observatory)"));
        assert!(
            msg.contains(
                "NCD_OBSERVATORY=benches/baselines/observatory \
                 cargo bench -p ncd-bench --bench fig14_allgatherv -- --smoke --ledger"
            ),
            "{msg}"
        );
        assert!(msg.contains("crates/bench/benches/baselines/observatory/fig14_allgatherv/"));
        assert!(msg.contains("exit code 3"));
        // Full mode drops the --smoke flag.
        let full = missing_reference_message("f", false, "e");
        assert!(full.contains("--bench f -- --ledger"), "{full}");
    }

    #[test]
    fn ledger_run_persists_and_reloads_every_artifact() {
        let root = std::env::temp_dir().join(format!("ncd_obs_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::env::set_var("NCD_OBSERVATORY", &root);
        let run_once = || {
            let cluster = ClusterConfig::uniform(4).observe(Observers::ALL);
            let mut capture = time_phase(cluster, MpiConfig::optimized(), 2, allgatherv4);
            capture.whatif = Some(ncd_core::whatif_json(&ncd_core::CausalProfile {
                baseline_ns: 1000,
                outcomes: Vec::new(),
            }));
            let mut s = Series::new("latency");
            s.push("4", capture.time.as_ns() as f64 / 1000.0);
            let knobs = [("procs".to_string(), "4".to_string())];
            ledger_run("unit_test_ledger", true, &knobs, &[s], &capture).expect("ledger write")
        };
        let m1 = run_once();
        let m2 = run_once();
        std::env::remove_var("NCD_OBSERVATORY");
        // Determinism: the same bench at the same knobs reproduces the
        // same content hash.
        assert_eq!(m1.run_id, m2.run_id);
        let dir = root.join("unit_test_ledger").join(&m1.run_id);
        let run = ncd_simnet::read_run(&dir).expect("read back");
        for artifact in [
            "series.json",
            "metrics.json",
            "comm.json",
            "history.json",
            "analysis.json",
            "decisions.json",
            "diagnosis.json",
            "whatif.json",
        ] {
            let text = run
                .artifact(artifact)
                .unwrap_or_else(|| panic!("{artifact} missing"));
            assert!(
                text.starts_with("{\"schema\":1,"),
                "{artifact} must lead with the schema: {}",
                &text[..text.len().min(40)]
            );
        }
        // And the differential engine re-loads it into an exact identity.
        let rec = ncd_core::RunRecord::from_ledger(&run).expect("parse artifacts");
        assert!(ncd_core::compare(&rec, &rec).is_empty());
        assert!(!rec.decisions.is_empty(), "decision audit persisted");
        assert!(rec.path.is_some() && rec.comm.is_some() && rec.diagnosis.is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn aggregate_merges_all_ranks() {
        let cluster = ClusterConfig::uniform(3);
        let run = time_phase(cluster, MpiConfig::optimized(), 1, |comm, _| comm.barrier());
        let total = aggregate(&run.stats);
        assert!(total.msgs_sent >= 3);
    }
}
