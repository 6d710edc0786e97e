//! `observe_64` — the AMR-skew loop (64 B from every rank, 64 KiB and
//! 20 Mflop on a seeded hotspot rank, auto-selected `allgatherv`) under
//! the baseline and the optimized personality: run plain, run again with
//! tracing + metrics + comm map + history on, then the whole analysis
//! pipeline over what was captured — merge, happens-before graph,
//! critical path, round attribution, diagnosis, Chrome trace and the
//! JSON artifacts, ledger write and read-back, the baseline-vs-optimized
//! differential, and the what-if causal profile.
//!
//! Why: the only workload where the observers and the analysis layers
//! run — the same runtime used with its write side on. Every other
//! workload runs with all toggles off, so an always-on observer tax shows
//! there and a pipeline or serializer change shows only here.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ncd_core::{
    causal_profile, compare, decisions_from_trace, decisions_json, detect_misselections, diff_json,
    plan_experiments, whatif_json, Comm, MpiConfig, RunRecord,
};
use ncd_simnet::{
    analysis_json, attribute_rounds, chrome_trace_json, comm_matrix_json, diagnose, diagnosis_json,
    history_json, last_sched_stats, merge_comm_maps, merge_histories, metrics_json, parse_json,
    read_run, write_run, Cluster, ClusterCommMap, ClusterConfig, HbGraph, History, MetricsRegistry,
    RankCommMap, RankHistory, TraceEvent, SCHEMA_VERSION,
};

use crate::harness::{build_spans, PhaseRec, Plan, RunData};
use crate::spans::SpanLog;
use crate::util::{slowdown, yardstick, Rng};
use crate::workloads::Scale;

pub struct Observe {
    pub ranks: usize,
    pub steps: usize,
    pub seed: u64,
    /// The refinement hotspot: contributes the outlier volume and the
    /// extra compute, entering every collective late. Drawn from the
    /// homogeneous lower half of the testbed so every seed loads a rank
    /// of the same speed.
    pub hotspot: usize,
    /// Ledger root (inside the benchmark's `out/`).
    pub ledger: PathBuf,
}

/// Which observers a run turns on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Observers {
    pub tracing: bool,
    pub metrics: bool,
    pub comm_map: bool,
    pub history: bool,
}

impl Observers {
    pub const ALL: Observers = Observers {
        tracing: true,
        metrics: true,
        comm_map: true,
        history: true,
    };
}

/// What one run of the loop left behind.
pub struct Capture {
    pub sim_ns: u64,
    /// Host seconds, post-warm-up barrier → last rank done.
    pub wall_s: f64,
    /// Messages and bytes the loop sent, summed over ranks.
    pub msgs: u64,
    pub bytes: u64,
    pub traces: Vec<Vec<TraceEvent>>,
    /// Cluster-merged registry (empty unless metrics were on).
    pub metrics: MetricsRegistry,
    /// Per-rank pieces; merging them is a pipeline stage of its own.
    pub comm_maps: Vec<RankCommMap>,
    pub histories: Vec<RankHistory>,
}

impl Capture {
    pub fn trace_events(&self) -> usize {
        self.traces.iter().map(Vec::len).sum()
    }
}

const STAGES: [&str; 13] = [
    "run_plain",
    "run_traced",
    "merge",
    "hb_build",
    "critical_path",
    "attribute",
    "diagnose",
    "export_chrome",
    "export_artifacts",
    "ledger_write",
    "ledger_read",
    "compare",
    "whatif",
];

/// Numbers the pipeline produced besides its timings (round 0).
#[derive(Clone, Debug, Default)]
pub struct PipelineFacts {
    pub trace_events: usize,
    pub findings: usize,
    pub chrome_bytes: usize,
    pub export_bytes: usize,
    pub whatif_replays: usize,
}

/// Order-sensitive 64-bit digest of a set of documents.
fn digest(docs: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in docs.iter().flat_map(|d| d.as_bytes().chunks(8)) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

fn no_sim<T>(_: &T) -> u64 {
    0
}

fn always_ok<T>(_: &T) -> bool {
    true
}

impl Observe {
    pub fn new(scale: Scale, seed: u64, out_dir: &Path) -> Self {
        let (ranks, steps) = match scale {
            Scale::Full => (64, 30),
            Scale::Probe => (32, 24),
            Scale::Quick => (8, 4),
        };
        Observe {
            ranks,
            steps,
            seed,
            hotspot: Rng::new(seed).range(0, ranks / 2 - 1),
            ledger: out_dir.join(format!("ledger-{}", std::process::id())),
        }
    }

    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig::paper_testbed(self.ranks).with_seed(self.seed)
    }

    fn counts(&self) -> Vec<usize> {
        let mut counts = vec![64usize; self.ranks];
        counts[self.hotspot] = 64 * 1024;
        counts
    }

    /// The measured loop. Returns whether the last step's gathered buffer
    /// matched the expectation (rank `r` contributes `counts[r]` bytes of
    /// value `r + step`).
    fn amr_loop(&self, comm: &mut Comm, steps: usize) -> bool {
        let me = comm.rank();
        let counts = self.counts();
        let total: usize = counts.iter().sum();
        let mut recv = vec![0u8; total];
        for step in 0..steps {
            if me == self.hotspot {
                comm.rank_mut().compute_flops(20_000_000);
            }
            let send = vec![(me + step) as u8; counts[me]];
            comm.allgatherv(&send, &counts, &mut recv);
        }
        let mut at = 0;
        counts.iter().enumerate().all(|(r, &c)| {
            let ok = recv[at..at + c].iter().all(|&b| b == (r + steps - 1) as u8);
            at += c;
            ok
        })
    }

    /// One cluster run of the loop under `mpi` with `obs` on.
    pub fn run_loop(&self, mpi: &MpiConfig, obs: Observers, steps: usize) -> (Capture, bool) {
        let start = std::sync::Mutex::new(None::<Instant>);
        let out = Cluster::new(self.cluster()).run(|rank| {
            if obs.tracing {
                rank.enable_tracing();
            }
            if obs.metrics {
                rank.enable_metrics();
            }
            if obs.comm_map {
                rank.enable_comm_map();
            }
            if obs.history {
                rank.enable_history();
            }
            let mut comm = Comm::new(rank, mpi.clone());
            comm.barrier();
            comm.rank_mut().reset_clock();
            // Drop the warm-up barrier from every observer's view.
            let _ = comm.rank_mut().take_trace();
            let _ = comm.rank_mut().take_metrics();
            let _ = comm.rank_mut().take_comm_map();
            let _ = comm.rank_mut().take_history();
            start
                .lock()
                .expect("start stamp lock")
                .get_or_insert_with(Instant::now);
            let sent = |c: &Comm| {
                (
                    c.rank_ref().stats().msgs_sent,
                    c.rank_ref().stats().bytes_sent,
                )
            };
            let before = sent(&comm);
            let ok = self.amr_loop(&mut comm, steps);
            let after = sent(&comm);
            let now = comm.rank_ref().now().as_ns();
            let r = comm.rank_mut();
            (
                now,
                ok,
                (after.0 - before.0, after.1 - before.1),
                r.take_trace(),
                r.take_metrics(),
                r.take_comm_map(),
                r.take_history(),
            )
        });
        let wall_s = start
            .into_inner()
            .expect("start stamp lock")
            .expect("ranks ran")
            .elapsed()
            .as_secs_f64();
        let mut cap = Capture {
            sim_ns: 0,
            wall_s,
            msgs: 0,
            bytes: 0,
            traces: Vec::new(),
            metrics: MetricsRegistry::enabled(),
            comm_maps: Vec::new(),
            histories: Vec::new(),
        };
        let mut ok = true;
        for (now, rank_ok, sent, trace, metrics, map, history) in out {
            cap.sim_ns = cap.sim_ns.max(now);
            ok &= rank_ok;
            cap.msgs += sent.0;
            cap.bytes += sent.1;
            cap.traces.push(trace);
            cap.metrics.merge(&metrics);
            cap.comm_maps.push(map);
            cap.histories.push(history);
        }
        (cap, ok)
    }

    /// The what-if replay target: exactly the window the diagnosis saw.
    fn replay(&self, comm: &mut Comm) {
        comm.barrier();
        comm.rank_mut().reset_clock();
        self.amr_loop(comm, self.steps);
    }

    /// One round: every stage once, for both personalities.
    ///
    /// `chrome_ref` is the (length, digest) of the Chrome traces of round
    /// 0, which are parsed back in full; later rounds must reproduce them
    /// byte for byte, which is cheaper to check and no weaker.
    fn round(
        &self,
        facts: &mut PipelineFacts,
        chrome_ref: &mut Option<(usize, u64)>,
    ) -> Vec<PhaseRec> {
        let cfgs = [MpiConfig::baseline(), MpiConfig::optimized()];
        let mut recs: Vec<PhaseRec> = Vec::with_capacity(STAGES.len());
        // Time `body`, then `check` (excluded from the stage).
        macro_rules! stage {
            ($sim:expr, $body:expr, $check:expr) => {{
                let t_in = Instant::now();
                let value = $body;
                let t_out = Instant::now();
                let ok: bool = $check(&value);
                recs.push(PhaseRec::stage(
                    STAGES[recs.len()],
                    t_in,
                    t_out,
                    Instant::now(),
                    $sim(&value),
                    ok,
                ));
                value
            }};
        }

        let plain = stage!(
            |v: &Vec<(Capture, bool)>| v.iter().map(|(c, _)| c.sim_ns).sum(),
            cfgs.iter()
                .map(|c| self.run_loop(c, Observers::default(), self.steps))
                .collect::<Vec<_>>(),
            |v: &Vec<(Capture, bool)>| v.iter().all(|(_, ok)| *ok)
        );
        recs[0].msgs = plain.iter().map(|(c, _)| c.msgs).sum();
        recs[0].bytes = plain.iter().map(|(c, _)| c.bytes).sum();
        let traced = stage!(
            no_sim,
            cfgs.iter()
                .map(|c| self.run_loop(c, Observers::ALL, self.steps))
                .collect::<Vec<_>>(),
            // Observers must not touch the simulated clock.
            |v: &Vec<(Capture, bool)>| v
                .iter()
                .zip(&plain)
                .all(|((t, ok), (p, _))| *ok && t.sim_ns == p.sim_ns)
        );
        let caps: Vec<&Capture> = traced.iter().map(|(c, _)| c).collect();
        facts.trace_events = caps.iter().map(|c| c.trace_events()).sum();

        let merged = stage!(
            no_sim,
            caps.iter()
                .map(|c| (merge_comm_maps(&c.comm_maps), merge_histories(&c.histories)))
                .collect::<Vec<_>>(),
            |v: &Vec<(ClusterCommMap, History)>| v.iter().all(|(m, _)| !m.epochs.is_empty())
        );
        let graphs = stage!(
            no_sim,
            caps.iter()
                .map(|c| HbGraph::build(&c.traces))
                .collect::<Vec<_>>(),
            |v: &Vec<HbGraph>| v
                .iter()
                .all(|g| g.unmatched_sends().is_empty() && g.unmatched_recvs().is_empty())
        );
        let paths = stage!(
            no_sim,
            graphs
                .iter()
                .map(HbGraph::critical_path)
                .collect::<Vec<_>>(),
            |v: &Vec<ncd_simnet::CriticalPath>| v.iter().zip(&caps).all(|(p, c)| p
                .makespan
                .as_ns()
                <= c.sim_ns
                && !p.steps.is_empty())
        );
        let attrs = stage!(
            no_sim,
            caps.iter()
                .map(|c| attribute_rounds(&c.traces))
                .collect::<Vec<_>>(),
            always_ok
        );
        let diags = stage!(
            no_sim,
            caps.iter().map(|c| diagnose(&c.traces)).collect::<Vec<_>>(),
            |v: &Vec<ncd_simnet::Diagnosis>| v
                .iter()
                .all(|d| d.unmatched_recvs == 0 && d.classified <= d.total_wait)
        );
        facts.findings = diags.iter().map(|d| d.findings.len()).sum();
        let chrome = stage!(
            no_sim,
            caps.iter()
                .map(|c| chrome_trace_json(&c.traces))
                .collect::<Vec<_>>(),
            |v: &Vec<String>| {
                let seen = (v.iter().map(String::len).sum(), digest(v));
                match *chrome_ref {
                    Some(first) => first == seen,
                    None => {
                        *chrome_ref = Some(seen);
                        v.iter().all(|j| parse_json(j).is_ok())
                    }
                }
            }
        );
        facts.chrome_bytes = chrome.iter().map(String::len).sum();
        drop(chrome);
        let artifacts = stage!(
            no_sim,
            (0..cfgs.len())
                .map(|i| {
                    let sim_us = caps[i].sim_ns as f64 / 1e3;
                    vec![
                        (
                            "series.json".to_string(),
                            format!(
                                "{{\"schema\":{SCHEMA_VERSION},\"name\":\"observe\",\"mode\":\"full\",\
                                 \"series\":[{{\"label\":\"makespan-usec\",\"points\":[[\"{}\",{sim_us}]]}}]}}",
                                self.ranks
                            ),
                        ),
                        (
                            "metrics.json".to_string(),
                            format!(
                                "{{\"schema\":{SCHEMA_VERSION},\"metrics\":{}}}",
                                metrics_json(&caps[i].metrics)
                            ),
                        ),
                        ("comm.json".to_string(), comm_matrix_json(&merged[i].0)),
                        ("history.json".to_string(), history_json(&merged[i].1)),
                        (
                            "analysis.json".to_string(),
                            analysis_json(&paths[i], &attrs[i]),
                        ),
                        (
                            "decisions.json".to_string(),
                            decisions_json(&decisions_from_trace(&caps[i].traces[0])),
                        ),
                        ("diagnosis.json".to_string(), diagnosis_json(&diags[i])),
                    ]
                })
                .collect::<Vec<_>>(),
            |v: &Vec<Vec<(String, String)>>| v.iter().flatten().all(|(_, j)| parse_json(j).is_ok())
        );
        facts.export_bytes = facts.chrome_bytes
            + artifacts
                .iter()
                .flatten()
                .map(|(_, j)| j.len())
                .sum::<usize>();
        let knobs = |flavor: &str| {
            vec![
                ("ranks".to_string(), self.ranks.to_string()),
                ("steps".to_string(), self.steps.to_string()),
                ("flavor".to_string(), flavor.to_string()),
            ]
        };
        let manifests = stage!(
            no_sim,
            artifacts
                .iter()
                .zip(["baseline", "optimized"])
                .map(|(a, flavor)| write_run(&self.ledger, "observe", "full", &knobs(flavor), a))
                .collect::<Vec<_>>(),
            |v: &Vec<std::io::Result<ncd_simnet::RunManifest>>| v.iter().all(Result::is_ok)
        );
        let records = stage!(
            no_sim,
            manifests
                .iter()
                .map(|m| {
                    let id = &m.as_ref().map_err(|e| e.to_string())?.run_id;
                    let run = read_run(&self.ledger.join("observe").join(id))?;
                    RunRecord::from_ledger(&run)
                })
                .collect::<Vec<Result<RunRecord, String>>>(),
            |v: &Vec<Result<RunRecord, String>>| v.iter().all(Result::is_ok)
        );
        stage!(
            no_sim,
            match (&records[0], &records[1]) {
                (Ok(base), Ok(cur)) => Some(diff_json(&compare(base, cur))),
                _ => None,
            },
            |v: &Option<String>| v.as_ref().is_some_and(|j| parse_json(j).is_ok())
        );
        // What-if on the baseline run: the one with findings to verify.
        let profile = stage!(
            no_sim,
            {
                let cluster = self.cluster();
                let decisions = decisions_from_trace(&caps[0].traces[self.hotspot]);
                let audit =
                    detect_misselections(&decisions, Some(&merged[0].0), &cluster.cost, &cfgs[0]);
                let plan = plan_experiments(&diags[0], &decisions, &audit, 2);
                causal_profile(&cluster, &cfgs[0], &plan, &[7], |comm| self.replay(comm))
            },
            |p: &ncd_core::CausalProfile| p.baseline_ns == plain[0].0.sim_ns
                && parse_json(&whatif_json(p)).is_ok()
        );
        // Baseline replay + per experiment one replay and one perturbed.
        facts.whatif_replays = 1 + 2 * profile.outcomes.len();
        recs
    }

    /// Run the workload. Set-up here is what every cluster run of the
    /// loop pays before its first step: spawn, `Comm::new`, the warm-up
    /// barrier and one warm-up step.
    pub fn run(&self, plan: &Plan, origin: Instant) -> (RunData, PipelineFacts) {
        let t_run = Instant::now();
        let mut setup_s = Vec::new();
        let mut t_setup = t_run;
        let mut yards = vec![yardstick()];
        while plan.wants_setup(setup_s.len(), t_run) {
            t_setup = Instant::now();
            self.run_loop(&MpiConfig::optimized(), Observers::default(), 1);
            let raw = t_setup.elapsed().as_secs_f64();
            let after = yardstick();
            setup_s.push(raw / slowdown(&[yards[0], after]));
            yards[0] = after;
        }
        let setup_end = Instant::now();

        let mut facts = PipelineFacts::default();
        let mut rounds: Vec<Vec<PhaseRec>> = Vec::new();
        let mut sched = None;
        let m_start = Instant::now();
        let mut chrome_ref = None;
        loop {
            let mut f = PipelineFacts::default();
            rounds.push(self.round(&mut f, &mut chrome_ref));
            if rounds.len() == 1 {
                facts = f;
                // The scheduler survey of the last what-if replay.
                sched = last_sched_stats();
            }
            yards.push(yardstick());
            let used = m_start.elapsed();
            let more = rounds.len() < plan.rounds
                && plan
                    .budget
                    .is_none_or(|b| used + used / rounds.len() as u32 <= b);
            if !more {
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&self.ledger);
        // Host-side stages have no barrier: their `sync` spans are empty.
        let spans = build_spans(
            SpanLog::new("observe_64", origin),
            t_setup,
            &[],
            setup_end,
            &rounds,
            &yards[1..],
            Instant::now(),
        );
        (
            RunData {
                workload: "observe_64",
                setup_s,
                rounds,
                round_slowdown: yards.windows(2).map(slowdown).collect(),
                sched: sched.expect("event backend publishes its stats"),
                spans,
            },
            facts,
        )
    }
}
