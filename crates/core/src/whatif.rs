//! Counterfactual what-if profiler: verify diagnosis blame by replay.
//!
//! The diagnosis layer ([`ncd_simnet::diagnose`]) and the decision audit
//! ([`crate::detect_misselections`]) produce *claims*: "rank 3's slow
//! pack is the bottleneck", "the ring over this outlier set costs X".
//! This module checks those claims the way Coz checks a virtual speedup —
//! by measurement. The deterministic event scheduler makes replays
//! bit-reproducible, so the check is exact:
//!
//! 1. **Plan** ([`plan_experiments`]): turn each top finding and each
//!    flagged misselection into a targeted intervention — a
//!    [`ncd_simnet::CostKnobs`] overlay ("pack 2× faster on the blamed
//!    rank", "zero the outlier's wire time") or a decision flip
//!    ([`crate::MpiConfig::allgatherv_pin`]) — plus one deliberately
//!    irrelevant control experiment that must measure ~0.
//! 2. **Replay** ([`causal_profile`]): re-run the workload unchanged and
//!    once per experiment, and report each intervention's measured
//!    makespan delta. Confidence comes from tie-break-seed perturbation:
//!    the scheduler's equal-time tie order must not change the result, so
//!    any spread across perturbed seeds marks the measurement (not the
//!    simulation) as fragile. The replays are independent, so they run
//!    concurrently, one cluster per OS thread; the profile is the same
//!    for every thread count.
//! 3. **Join back** ([`CausalProfile::apply_verified_gains`]): each
//!    finding the plan targeted gains a measured `verified_gain`,
//!    upgrading "probably the bottleneck" to "removing it saves N ns".
//!
//! Rendered by [`whatif_report`] (ASCII) and [`whatif_json`]
//! (byte-stable, `"schema":1`), ledgered by the bench harness as the
//! `whatif.json` observatory artifact behind `BenchCli --whatif`.

use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use ncd_simnet::{
    Cluster, ClusterConfig, CostKnobs, Diagnosis, JsonValue, JsonWriter, KnobDim, TaskBackend,
    WaitPattern,
};

use crate::coll::{AllgathervAlgorithm, AlltoallwSchedule};
use crate::comm::Comm;
use crate::commstats::{AlgorithmDecision, MisselectionAudit};
use crate::config::MpiConfig;

/// One intervention primitive of an [`Experiment`].
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Scale one cost dimension of one rank by `factor`.
    Cost {
        rank: usize,
        dim: KnobDim,
        factor: f64,
    },
    /// Pin the allgatherv algorithm (decision flip).
    PinAllgatherv(AllgathervAlgorithm),
    /// Pin the alltoallw schedule (decision flip).
    PinAlltoallw(AlltoallwSchedule),
}

impl Action {
    /// Human-readable one-liner, e.g. `pack x0.5 on rank 3`.
    pub fn describe(&self) -> String {
        match self {
            Action::Cost { rank, dim, factor } => {
                format!("{} x{factor} on rank {rank}", dim.label())
            }
            Action::PinAllgatherv(a) => format!("pin allgatherv={}", a.label()),
            Action::PinAlltoallw(s) => format!("pin alltoallw={}", s.label()),
        }
    }
}

impl JsonValue for Action {
    fn write_json(&self, w: &mut JsonWriter) {
        let pin = |w: &mut JsonWriter, collective: &str, algorithm: &str| {
            w.field("kind", "pin").field("collective", collective);
            w.field("algorithm", algorithm);
        };
        w.object(|w| match self {
            Action::Cost { rank, dim, factor } => {
                w.field("kind", "cost").field("rank", rank);
                w.field("dim", dim.label()).field("factor", factor);
            }
            Action::PinAllgatherv(a) => pin(w, "allgatherv", a.label()),
            Action::PinAlltoallw(s) => pin(w, "alltoallw", s.label()),
        });
    }
}

/// One planned counterfactual: a stable id, the reasoning that produced
/// it, the diagnosis finding it targets (if any), and the actions to
/// apply to the run configuration before replay.
#[derive(Clone, Debug, PartialEq)]
pub struct Experiment {
    /// Stable slug, e.g. `pack-half-rank3` or `pin-allgatherv-recursive_doubling`.
    pub id: String,
    /// Why the planner proposed this intervention.
    pub rationale: String,
    /// Index into `Diagnosis::findings` of the claim this tests; `None`
    /// for decision flips and the control.
    pub target_finding: Option<usize>,
    pub actions: Vec<Action>,
}

impl Experiment {
    /// Apply every action to a run configuration pair.
    pub fn apply(&self, cluster: &mut ClusterConfig, mpi: &mut MpiConfig) {
        for a in &self.actions {
            match a {
                Action::Cost { rank, dim, factor } => {
                    let knobs = cluster.knobs.take().unwrap_or_else(CostKnobs::neutral);
                    cluster.knobs = Some(knobs.scale_rank(*rank, *dim, *factor));
                }
                Action::PinAllgatherv(algo) => mpi.allgatherv_pin = Some(*algo),
                Action::PinAlltoallw(s) => mpi.alltoallw_pin = Some(*s),
            }
        }
    }
}

/// Plan targeted interventions from a run's diagnosis and decision audit.
///
/// Per sender-caused finding, most severe first, up to `max_targets`:
///
/// * pack-bound sender → pack 2× faster on the blamed rank (the paper's
///   dual-context fix, as a counterfactual);
/// * late sender / serialization chain → two separate experiments,
///   compute 2× faster on the blamed rank and that rank's wire time
///   zeroed, distinguishing "it computes too long" from "its messages
///   are too big".
///
/// Per flagged misselection: pin the suggested algorithm (skipped when
/// the suggestion is recursive doubling on a non-power-of-two
/// communicator, which the implementation rejects).
///
/// Always appends one **control**: a pack scaling on the
/// highest-numbered rank no finding blames. A correct profiler must
/// measure ~0 gain for it; a nonzero control gain means the measurement
/// itself is broken.
pub fn plan_experiments(
    diag: &Diagnosis,
    decisions: &[AlgorithmDecision],
    audit: &MisselectionAudit,
    max_targets: usize,
) -> Vec<Experiment> {
    let mut out: Vec<Experiment> = Vec::new();
    let push = |e: Experiment, out: &mut Vec<Experiment>| {
        if !out.iter().any(|x| x.id == e.id) {
            out.push(e);
        }
    };

    for (idx, f) in diag.findings.iter().enumerate().take(max_targets) {
        if !f.pattern.sender_caused() {
            continue;
        }
        let r = f.blamed;
        let op = f.op.as_deref().unwrap_or("-");
        match f.pattern {
            WaitPattern::PackBoundSender => {
                push(
                    Experiment {
                        id: format!("pack-half-rank{r}"),
                        rationale: format!(
                            "finding #{}: pack-bound sender rank {r} in {op} \
                             (severity {} ns); what if it packed 2x faster?",
                            idx + 1,
                            f.severity.as_ns()
                        ),
                        target_finding: Some(idx),
                        actions: vec![Action::Cost {
                            rank: r,
                            dim: KnobDim::Pack,
                            factor: 0.5,
                        }],
                    },
                    &mut out,
                );
            }
            WaitPattern::LateSender | WaitPattern::SerializationChain => {
                push(
                    Experiment {
                        id: format!("compute-half-rank{r}"),
                        rationale: format!(
                            "finding #{}: {} blames rank {r} in {op} \
                             (severity {} ns); what if it computed 2x faster?",
                            idx + 1,
                            f.pattern.label(),
                            f.severity.as_ns()
                        ),
                        target_finding: Some(idx),
                        actions: vec![Action::Cost {
                            rank: r,
                            dim: KnobDim::Compute,
                            factor: 0.5,
                        }],
                    },
                    &mut out,
                );
                push(
                    Experiment {
                        id: format!("wire-zero-rank{r}"),
                        rationale: format!(
                            "finding #{}: {} blames rank {r} in {op}; \
                             what if its wire time were zero?",
                            idx + 1,
                            f.pattern.label()
                        ),
                        target_finding: Some(idx),
                        actions: vec![Action::Cost {
                            rank: r,
                            dim: KnobDim::Wire,
                            factor: 0.0,
                        }],
                    },
                    &mut out,
                );
            }
            _ => {}
        }
    }

    for m in &audit.flags {
        let action = match m.collective.as_str() {
            "allgatherv" => AllgathervAlgorithm::from_label(&m.suggested).and_then(|a| {
                // The implementation asserts pow2 for recursive doubling;
                // the decision record carries the evidence.
                let pow2_ok = a != AllgathervAlgorithm::RecursiveDoubling
                    || decisions
                        .iter()
                        .any(|d| d.collective == "allgatherv" && d.pow2);
                pow2_ok.then_some(Action::PinAllgatherv(a))
            }),
            "alltoallw" => AlltoallwSchedule::from_label(&m.suggested).map(Action::PinAlltoallw),
            _ => None,
        };
        if let Some(action) = action {
            push(
                Experiment {
                    id: format!("pin-{}-{}", m.collective, m.suggested),
                    rationale: format!(
                        "misselection audit: {} chose {} over {} ({}); \
                         what if the suggestion ran instead?",
                        m.collective, m.chosen, m.suggested, m.detail
                    ),
                    target_finding: None,
                    actions: vec![action],
                },
                &mut out,
            );
        }
    }

    // Control: intervene where nothing under test is blamed. Any measured
    // gain here indicts the measurement, not the run. Only the *targeted*
    // findings exclude ranks — on a big run the long tail of minor
    // findings can blame every rank, and a control must still exist.
    let blamed: Vec<usize> = diag
        .findings
        .iter()
        .take(max_targets)
        .map(|f| f.blamed)
        .collect();
    if let Some(r) = (0..diag.n).rev().find(|r| !blamed.contains(r)) {
        push(
            Experiment {
                id: format!("control-pack-rank{r}"),
                rationale: format!(
                    "control: no targeted finding blames rank {r}; \
                     scaling its pack time must gain ~0"
                ),
                target_finding: None,
                actions: vec![Action::Cost {
                    rank: r,
                    dim: KnobDim::Pack,
                    factor: 0.5,
                }],
            },
            &mut out,
        );
    }
    out
}

/// One experiment's measured outcome.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub experiment: Experiment,
    /// Makespan of the intervened replay (max rank completion, ns).
    pub makespan_ns: u64,
    /// `baseline - makespan`: positive = the intervention helped.
    pub gain_ns: i64,
    /// Gain as a percentage of the baseline makespan.
    pub gain_pct: f64,
    /// Max − min makespan across the tie-break-seed perturbations (0 =
    /// perfectly seed-invariant, as the scheduler contract requires).
    pub spread_ns: u64,
    /// 1.0 when the perturbations agree exactly; decays toward 0 as the
    /// spread approaches the measured gain (a gain smaller than the
    /// measurement's own wobble proves nothing).
    pub confidence: f64,
}

/// The causal profile of one workload: baseline plus every experiment's
/// measured outcome, in plan order.
#[derive(Clone, Debug)]
pub struct CausalProfile {
    /// Unmodified replay makespan (ns).
    pub baseline_ns: u64,
    pub outcomes: Vec<Outcome>,
}

impl CausalProfile {
    /// Outcomes ranked by measured gain, best first (ties by id).
    pub fn ranked(&self) -> Vec<&Outcome> {
        let mut v: Vec<&Outcome> = self.outcomes.iter().collect();
        v.sort_by(|a, b| {
            b.gain_ns
                .cmp(&a.gain_ns)
                .then_with(|| a.experiment.id.cmp(&b.experiment.id))
        });
        v
    }

    /// Write each targeted finding's best measured gain back into the
    /// diagnosis (`Finding::verified_gain`), converting its claim into a
    /// measurement.
    pub fn apply_verified_gains(&self, diag: &mut Diagnosis) {
        for o in &self.outcomes {
            if let Some(idx) = o.experiment.target_finding {
                if let Some(f) = diag.findings.get_mut(idx) {
                    f.verified_gain = Some(match f.verified_gain {
                        Some(prev) => prev.max(o.gain_ns),
                        None => o.gain_ns,
                    });
                }
            }
        }
    }
}

/// Deterministically replay `workload` under every experiment and
/// measure the causal profile.
///
/// The replays are the baseline, then per experiment its intervened
/// configuration once plus once per `perturb_seeds` entry, which
/// re-runs it with the scheduler's equal-time tie order shuffled; the
/// simulation contract says results must not change, so the observed
/// spread is the confidence term of each outcome.
///
/// The workload runs once per configuration from a cold start; its
/// makespan (all it measures: it observes nothing) is the latest rank
/// completion time. The replays are independent, so they run at once,
/// one cluster per OS thread, on up to `available_parallelism` threads
/// (one when the cluster's ranks are handoff threads already); the
/// profile does not depend on the thread count. The calling thread runs
/// the last replay, so [`ncd_simnet::last_sched_stats`] is its survey.
/// A replay that panics is re-raised with its own payload.
pub fn causal_profile<F>(
    cluster: &ClusterConfig,
    mpi: &MpiConfig,
    experiments: &[Experiment],
    perturb_seeds: &[u64],
    workload: F,
) -> CausalProfile
where
    F: Fn(&mut Comm) + Send + Sync,
{
    let replays = 1 + experiments.len() * (1 + perturb_seeds.len());
    let threads = replay_threads(cluster, replays);
    profile_on(threads, cluster, mpi, experiments, perturb_seeds, &workload)
}

/// OS threads for `replays` replays of `cluster`: the available cores,
/// but one when each replay's ranks already hold an OS thread apiece.
fn replay_threads(cluster: &ClusterConfig, replays: usize) -> usize {
    let backend = cluster
        .task_backend
        .unwrap_or_else(TaskBackend::default_for_target);
    if backend == TaskBackend::Handoff {
        return 1;
    }
    thread::available_parallelism()
        .map_or(1, usize::from)
        .min(replays)
}

/// [`causal_profile`] on `threads` OS threads, the caller's included.
fn profile_on<F>(
    threads: usize,
    cluster: &ClusterConfig,
    mpi: &MpiConfig,
    experiments: &[Experiment],
    perturb_seeds: &[u64],
    workload: &F,
) -> CausalProfile
where
    F: Fn(&mut Comm) + Send + Sync,
{
    // Plan order: the baseline, then per experiment its replay and one
    // per perturb seed.
    let mut replays = vec![(cluster.clone(), mpi.clone())];
    for e in experiments {
        let mut cl = e_cluster(cluster);
        let mut mp = mpi.clone();
        e.apply(&mut cl, &mut mp);
        replays.push((cl.clone(), mp.clone()));
        replays.extend(
            perturb_seeds
                .iter()
                .map(|&seed| (cl.clone().with_tie_break_seed(seed), mp.clone())),
        );
    }
    let makespans = replay_all(&replays, threads, workload);
    let baseline_ns = makespans[0];
    let outcomes = experiments
        .iter()
        .zip(makespans[1..].chunks(1 + perturb_seeds.len()))
        .map(|(e, runs)| {
            let makespan_ns = runs[0];
            let spread_ns = runs.iter().max().unwrap_or(&0) - runs.iter().min().unwrap_or(&0);
            let gain_ns = baseline_ns as i64 - makespan_ns as i64;
            let gain_pct = if baseline_ns > 0 {
                100.0 * gain_ns as f64 / baseline_ns as f64
            } else {
                0.0
            };
            let confidence = if spread_ns == 0 {
                1.0
            } else {
                (1.0 - spread_ns as f64 / gain_ns.unsigned_abs().max(1) as f64).max(0.0)
            };
            Outcome {
                experiment: e.clone(),
                makespan_ns,
                gain_ns,
                gain_pct,
                spread_ns,
                confidence,
            }
        })
        .collect();
    CausalProfile {
        baseline_ns,
        outcomes,
    }
}

/// Every replay's makespan, by index. Thread `k` of `threads` runs
/// replays `k`, `k + threads`, … in order; the caller is the thread
/// whose share ends with the last replay. No replay past a failed one
/// starts, and the lowest-indexed panic is re-raised with its own
/// payload, as a sequential loop would raise it.
fn replay_all<F>(replays: &[(ClusterConfig, MpiConfig)], threads: usize, workload: &F) -> Vec<u64>
where
    F: Fn(&mut Comm) + Send + Sync,
{
    let n = replays.len();
    let t = threads.clamp(1, n);
    // The lowest failed index so far; it only skips work, so `Relaxed`.
    let failed = AtomicUsize::new(n);
    let share = |k: usize| -> Vec<thread::Result<u64>> {
        (k..n)
            .step_by(t)
            .take_while(|&i| i < failed.load(Ordering::Relaxed))
            .map(|i| {
                let (cl, mp) = &replays[i];
                let ran = panic::catch_unwind(AssertUnwindSafe(|| makespan(cl, mp, workload)));
                if ran.is_err() {
                    failed.fetch_min(i, Ordering::Relaxed);
                }
                ran
            })
            .collect()
    };
    let share = &share;
    let caller = (n - 1) % t;
    let shares = thread::scope(|s| {
        let workers: Vec<_> = (0..t)
            .filter(|&k| k != caller)
            .map(|k| s.spawn(move || share(k)))
            .collect();
        let mine = share(caller);
        let mut shares: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| panic::resume_unwind(p)))
            .collect();
        shares.insert(caller, mine);
        shares
    });
    let mut shares: Vec<_> = shares.into_iter().map(Vec::into_iter).collect();
    (0..n)
        .map(|i| {
            let ran = shares[i % t].next().expect("replays up to a failure ran");
            ran.unwrap_or_else(|payload| panic::resume_unwind(payload))
        })
        .collect()
}

/// One unobserved replay's makespan: the latest rank completion (ns).
fn makespan<F>(cluster: &ClusterConfig, mpi: &MpiConfig, workload: &F) -> u64
where
    F: Fn(&mut Comm) + Send + Sync,
{
    let cl = cluster.clone().observe(ncd_simnet::Observers::NONE);
    let times = Cluster::new(cl).run(|rank| {
        let mut comm = Comm::new(rank, mpi.clone());
        workload(&mut comm);
        comm.rank_ref().now()
    });
    times.iter().map(|t| t.as_ns()).max().unwrap_or(0)
}

fn e_cluster(base: &ClusterConfig) -> ClusterConfig {
    let mut cl = base.clone();
    // Experiments always start from a clean overlay; the base
    // configuration's own knobs (if any) are part of the baseline.
    cl.sched_tie_seed = None;
    cl
}

/// ASCII causal profile: interventions ranked by measured gain.
pub fn whatif_report(p: &CausalProfile) -> String {
    let mut out = String::from("\n=== what-if causal profile ===\n");
    let _ = writeln!(out, "baseline makespan: {} ns", p.baseline_ns);
    let _ = writeln!(
        out,
        "{:<34}{:>16}{:>14}{:>9}{:>9}{:>7}",
        "experiment", "makespan ns", "gain ns", "gain %", "spread", "conf"
    );
    for o in p.ranked() {
        let _ = writeln!(
            out,
            "{:<34}{:>16}{:>14}{:>9.2}{:>9}{:>7.2}",
            o.experiment.id, o.makespan_ns, o.gain_ns, o.gain_pct, o.spread_ns, o.confidence
        );
    }
    for o in &p.outcomes {
        let actions: Vec<String> = o.experiment.actions.iter().map(|a| a.describe()).collect();
        let _ = writeln!(
            out,
            "  {} [{}]: {}",
            o.experiment.id,
            actions.join("; "),
            o.experiment.rationale
        );
    }
    out
}

/// JSON of the causal profile, led by the shared schema version like
/// every observatory artifact.
pub fn whatif_json(p: &CausalProfile) -> String {
    JsonWriter::schema_led(|w| {
        w.field("baseline_ns", p.baseline_ns);
        w.objects("experiments", &p.outcomes, |w, o| {
            w.field("id", &o.experiment.id);
            w.field("rationale", &o.experiment.rationale);
            w.field("target_finding", o.experiment.target_finding);
            w.field("actions", &o.experiment.actions);
            w.field("makespan_ns", o.makespan_ns);
            w.field("gain_ns", o.gain_ns);
            w.key("gain_pct").number(format_args!("{:.4}", o.gain_pct));
            w.field("spread_ns", o.spread_ns);
            w.key("confidence")
                .number(format_args!("{:.4}", o.confidence));
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commstats::Misselection;
    use ncd_simnet::{diagnose, last_sched_stats, Observers, Tag, TraceEvent};
    use proptest::prelude::*;

    /// The sequential replay loop [`causal_profile`] replaced: the
    /// baseline, then per experiment its replay and its perturbed ones,
    /// one after another on the calling thread.
    mod oracle {
        use super::super::*;

        pub fn causal_profile<F>(
            cluster: &ClusterConfig,
            mpi: &MpiConfig,
            experiments: &[Experiment],
            perturb_seeds: &[u64],
            workload: F,
        ) -> CausalProfile
        where
            F: Fn(&mut Comm) + Send + Sync,
        {
            let run = |cl: ClusterConfig, mp: &MpiConfig| -> u64 {
                let times = Cluster::new(cl.observe(ncd_simnet::Observers::NONE)).run(|rank| {
                    let mut comm = Comm::new(rank, mp.clone());
                    workload(&mut comm);
                    comm.rank_ref().now()
                });
                times.iter().map(|t| t.as_ns()).max().unwrap_or(0)
            };
            let baseline_ns = run(cluster.clone(), mpi);
            let mut outcomes = Vec::with_capacity(experiments.len());
            for e in experiments {
                let mut cl = e_cluster(cluster);
                let mut mp = mpi.clone();
                e.apply(&mut cl, &mut mp);
                let makespan_ns = run(cl.clone(), &mp);
                let mut lo = makespan_ns;
                let mut hi = makespan_ns;
                for &seed in perturb_seeds {
                    let m = run(cl.clone().with_tie_break_seed(seed), &mp);
                    lo = lo.min(m);
                    hi = hi.max(m);
                }
                let spread_ns = hi - lo;
                let gain_ns = baseline_ns as i64 - makespan_ns as i64;
                let gain_pct = if baseline_ns > 0 {
                    100.0 * gain_ns as f64 / baseline_ns as f64
                } else {
                    0.0
                };
                let confidence = if spread_ns == 0 {
                    1.0
                } else {
                    (1.0 - spread_ns as f64 / gain_ns.unsigned_abs().max(1) as f64).max(0.0)
                };
                outcomes.push(Outcome {
                    experiment: e.clone(),
                    makespan_ns,
                    gain_ns,
                    gain_pct,
                    spread_ns,
                    confidence,
                });
            }
            CausalProfile {
                baseline_ns,
                outcomes,
            }
        }
    }

    /// Field by field, floats by bits, and the JSON byte for byte.
    fn assert_same_profile(got: &CausalProfile, want: &CausalProfile) {
        assert_eq!(got.baseline_ns, want.baseline_ns);
        assert_eq!(got.outcomes.len(), want.outcomes.len());
        for (g, w) in got.outcomes.iter().zip(&want.outcomes) {
            assert_eq!(g.experiment, w.experiment);
            assert_eq!(g.makespan_ns, w.makespan_ns, "{}", w.experiment.id);
            assert_eq!(g.gain_ns, w.gain_ns, "{}", w.experiment.id);
            assert_eq!(g.gain_pct.to_bits(), w.gain_pct.to_bits());
            assert_eq!(g.spread_ns, w.spread_ns, "{}", w.experiment.id);
            assert_eq!(g.confidence.to_bits(), w.confidence.to_bits());
        }
        assert_eq!(whatif_json(got), whatif_json(want));
    }

    /// A skewed allgatherv loop: rank `r` computes `flops[r]` and
    /// contributes `counts[r]` bytes, twice.
    fn skewed_loop(flops: &[u64], counts: &[usize]) -> impl Fn(&mut Comm) + Send + Sync {
        let (flops, counts) = (flops.to_vec(), counts.to_vec());
        move |comm| {
            let me = comm.rank();
            let total: usize = counts.iter().sum();
            for _ in 0..2 {
                comm.rank_mut().compute_flops(flops[me]);
                let send = vec![me as u8; counts[me]];
                let mut recv = vec![0u8; total];
                comm.allgatherv(&send, &counts, &mut recv);
            }
        }
    }

    fn cost(rank: usize, dim: KnobDim, factor: f64) -> Action {
        Action::Cost { rank, dim, factor }
    }

    const DISSEMINATE: Action = Action::PinAllgatherv(AllgathervAlgorithm::Dissemination);

    fn experiment(id: usize, actions: Vec<Action>) -> Experiment {
        Experiment {
            id: format!("e{id}"),
            rationale: "test".to_string(),
            target_finding: None,
            actions,
        }
    }

    /// An action on `n` ranks from three draws: a rank, a kind (three
    /// cost dimensions or a pin) and a factor (or which algorithm).
    fn action(n: usize, (rank, kind, f): (usize, usize, usize)) -> Action {
        let dims = [KnobDim::Pack, KnobDim::Wire, KnobDim::Compute];
        match (kind, f) {
            (3, 0) => Action::PinAllgatherv(AllgathervAlgorithm::Ring),
            (3, 2) if n.is_power_of_two() => {
                Action::PinAllgatherv(AllgathervAlgorithm::RecursiveDoubling)
            }
            (3, _) => DISSEMINATE,
            _ => cost(rank % n, dims[kind], [0.0, 0.5, 2.0][f]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// 4–8 ranks on the jittered testbed, 0–4 experiments of one or
        /// two actions, perturb seeds `[]`, `[7]` or `[7, 99]`, and the
        /// base configuration's own tie seed on or off.
        #[test]
        fn concurrent_replays_match_the_sequential_oracle(
            n in 4usize..9,
            flops in proptest::collection::vec(0u64..4_000_000, 8),
            counts in proptest::collection::vec(0usize..3_000, 8),
            draws in proptest::collection::vec(
                ((0usize..8, 0usize..4, 0usize..3), (0usize..8, 0usize..4, 0usize..3), any::<bool>()),
                0..5,
            ),
            seeds in 0usize..3,
            tie in (any::<bool>(), 0u64..1_000),
        ) {
            let plan: Vec<Experiment> = draws
                .into_iter()
                .enumerate()
                .map(|(i, (a, b, two))| {
                    let mut actions = vec![action(n, a)];
                    if two {
                        actions.push(action(n, b));
                    }
                    experiment(i, actions)
                })
                .collect();
            let seeds = &[7, 99][..seeds];
            let mut cluster = ClusterConfig::paper_testbed(n);
            cluster.sched_tie_seed = tie.0.then_some(tie.1);
            let mpi = MpiConfig::baseline();
            let work = skewed_loop(&flops[..n], &counts[..n]);
            let want = oracle::causal_profile(&cluster, &mpi, &plan, seeds, &work);
            for threads in 1..=4 {
                let got = profile_on(threads, &cluster, &mpi, &plan, seeds, &work);
                assert_same_profile(&got, &want);
            }
            assert_same_profile(&causal_profile(&cluster, &mpi, &plan, seeds, &work), &want);
        }
    }

    #[test]
    fn handoff_replays_match_the_oracle_on_the_calling_thread() {
        let cluster = ClusterConfig::paper_testbed(6).with_task_backend(TaskBackend::Handoff);
        let plan = vec![
            experiment(0, vec![DISSEMINATE]),
            experiment(1, vec![cost(5, KnobDim::Compute, 0.5)]),
        ];
        let mpi = MpiConfig::baseline();
        let work = skewed_loop(&[0, 0, 0, 0, 0, 3_000_000], &[64, 64, 64, 64, 64, 2_048]);
        assert_eq!(replay_threads(&cluster, 7), 1, "handoff ranks hold threads");
        let want = oracle::causal_profile(&cluster, &mpi, &plan, &[7], &work);
        assert_same_profile(&causal_profile(&cluster, &mpi, &plan, &[7], &work), &want);
    }

    #[test]
    fn replay_threads_are_bounded_by_cores_and_replays() {
        let fiber = ClusterConfig::uniform(4).with_task_backend(TaskBackend::Fiber);
        let cores = thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(replay_threads(&fiber, 1), 1);
        assert_eq!(replay_threads(&fiber, 9), cores.min(9));
        let handoff = fiber.with_task_backend(TaskBackend::Handoff);
        assert_eq!(replay_threads(&handoff, 9), 1);
    }

    #[test]
    fn a_replays_panic_is_raised_with_its_own_payload() {
        let cluster = ClusterConfig::paper_testbed(5);
        let plan = vec![
            experiment(0, vec![cost(1, KnobDim::Wire, 0.0)]),
            experiment(1, vec![DISSEMINATE]),
            experiment(2, vec![cost(4, KnobDim::Pack, 0.5)]),
        ];
        let base = skewed_loop(&[0; 5], &[32, 32, 32, 32, 900]);
        let entered = AtomicUsize::new(0);
        let work = |comm: &mut Comm| {
            entered.fetch_add(1, Ordering::Relaxed);
            let pinned = comm.config().allgatherv_pin == Some(AllgathervAlgorithm::Dissemination);
            if pinned && comm.rank() == 3 {
                panic!("rank {} refuses to disseminate", comm.rank());
            }
            base(comm);
        };
        for threads in 1..=4 {
            let raised = panic::catch_unwind(AssertUnwindSafe(|| {
                profile_on(
                    threads,
                    &cluster,
                    &MpiConfig::baseline(),
                    &plan,
                    &[7],
                    &work,
                )
            }))
            .expect_err("the pinned replay panics");
            assert_eq!(
                raised.downcast_ref::<String>().map(String::as_str),
                Some("rank 3 refuses to disseminate"),
                "{threads} threads"
            );
            if threads == 1 {
                // The baseline, experiment 0 twice, then the failure: no
                // replay after it starts.
                assert_eq!(entered.swap(0, Ordering::Relaxed), 4 * 5);
            }
        }
    }

    #[test]
    fn the_caller_keeps_the_final_replays_survey() {
        let cluster = ClusterConfig::paper_testbed(8);
        let mpi = MpiConfig::baseline();
        let plan = vec![
            experiment(0, vec![cost(7, KnobDim::Compute, 0.5)]),
            experiment(1, vec![DISSEMINATE]),
        ];
        let seeds = [7, 99];
        let work = skewed_loop(&[0, 0, 0, 0, 0, 0, 0, 4_000_000], &[16; 8]);
        // The final replay, and the baseline, each run alone on a fresh thread.
        let alone = |cl: &ClusterConfig, mp: &MpiConfig| {
            thread::scope(|s| {
                s.spawn(|| {
                    makespan(cl, mp, &work);
                    last_sched_stats()
                })
                .join()
                .unwrap()
            })
        };
        let mut last = e_cluster(&cluster).with_tie_break_seed(99);
        let mut last_mpi = mpi.clone();
        plan[1].apply(&mut last, &mut last_mpi);
        let survey = alone(&last, &last_mpi);
        assert!(survey.is_some());
        assert_ne!(survey, alone(&cluster, &mpi), "the check tells runs apart");
        for threads in 1..=4 {
            profile_on(threads, &cluster, &mpi, &plan, &seeds, &work);
            assert_eq!(last_sched_stats(), survey, "{threads} threads");
        }
    }

    /// Two ranks; rank 0 computes, then sends. Rank 1 waits — a
    /// late-sender finding blaming rank 0.
    fn late_sender_traces() -> Vec<Vec<TraceEvent>> {
        let trace = Observers {
            trace: true,
            ..Observers::NONE
        };
        let cluster = Cluster::new(ClusterConfig::uniform(2).observe(trace));
        let (_, capture) = cluster
            .try_run(|rank| {
                if rank.rank() == 0 {
                    rank.compute_flops(5_000_000);
                    rank.send_bytes(1, Tag(0), vec![0u8; 64]);
                } else {
                    let _ = rank.recv_bytes(Some(0), Tag(0));
                }
            })
            .unwrap();
        capture.traces.expect("traced")
    }

    #[test]
    fn planner_targets_late_sender_and_appends_control() {
        let diag = diagnose(&late_sender_traces());
        assert!(!diag.findings.is_empty());
        let plan = plan_experiments(&diag, &[], &MisselectionAudit::default(), 3);
        let ids: Vec<&str> = plan.iter().map(|e| e.id.as_str()).collect();
        assert!(ids.contains(&"compute-half-rank0"), "{ids:?}");
        assert!(ids.contains(&"wire-zero-rank0"), "{ids:?}");
        assert!(ids.contains(&"control-pack-rank1"), "{ids:?}");
        // The targeted experiments reference the finding they test.
        assert_eq!(plan[0].target_finding, Some(0));
    }

    #[test]
    fn planner_pins_suggested_algorithm_when_legal() {
        let audit = MisselectionAudit {
            flags: vec![Misselection {
                collective: "allgatherv".to_string(),
                occurrence: 0,
                chosen: "ring".to_string(),
                suggested: "recursive_doubling".to_string(),
                declared_ratio: 1024.0,
                measured_ratio: 1024.0,
                est_chosen_ns: 2.0e6,
                est_suggested_ns: 1.0e6,
                detail: "outlier ratio 1024 >= 8".to_string(),
            }],
            ..Default::default()
        };
        let decision = AlgorithmDecision {
            collective: "allgatherv".to_string(),
            n: 4,
            total_bytes: 1 << 20,
            outlier_ratio: 1024.0,
            pow2: true,
            chosen: "ring".to_string(),
            reason: "total >= long threshold".to_string(),
        };
        let diag = diagnose(&late_sender_traces());
        let plan = plan_experiments(&diag, std::slice::from_ref(&decision), &audit, 0);
        assert!(plan
            .iter()
            .any(|e| e.id == "pin-allgatherv-recursive_doubling"));
        // Same suggestion on a non-pow2 communicator is skipped.
        let non_pow2 = AlgorithmDecision {
            pow2: false,
            ..decision
        };
        let plan = plan_experiments(&diag, &[non_pow2], &audit, 0);
        assert!(!plan.iter().any(|e| e.id.starts_with("pin-allgatherv")));
    }

    #[test]
    fn replay_measures_compute_gain_and_zero_control() {
        let traces = late_sender_traces();
        let mut diag = diagnose(&traces);
        let plan = plan_experiments(&diag, &[], &MisselectionAudit::default(), 3);
        let cluster = ClusterConfig::uniform(2);
        let mpi = MpiConfig::baseline();
        let profile = causal_profile(&cluster, &mpi, &plan, &[7, 99], |comm| {
            if comm.rank() == 0 {
                comm.rank_mut().compute_flops(5_000_000);
                comm.rank_mut().send_bytes(1, Tag(0), vec![0u8; 64]);
            } else {
                let _ = comm.rank_mut().recv_bytes(Some(0), Tag(0));
            }
        });
        assert!(profile.baseline_ns > 0);
        let by_id = |id: &str| {
            profile
                .outcomes
                .iter()
                .find(|o| o.experiment.id == id)
                .unwrap_or_else(|| panic!("{id} missing"))
        };
        // Halving the blamed rank's compute halves the dominant term.
        let compute = by_id("compute-half-rank0");
        assert!(
            compute.gain_ns > profile.baseline_ns as i64 / 4,
            "gain {} of baseline {}",
            compute.gain_ns,
            profile.baseline_ns
        );
        assert_eq!(compute.spread_ns, 0, "event replay must be seed-invariant");
        assert_eq!(compute.confidence, 1.0);
        // The control interferes with nothing.
        let control = by_id("control-pack-rank1");
        assert_eq!(control.gain_ns, 0, "control must measure no gain");
        // Ranked order puts the real intervention above the control.
        let ranked = profile.ranked();
        assert_eq!(ranked[0].experiment.id, "compute-half-rank0");
        // And the finding gains its measured verification.
        profile.apply_verified_gains(&mut diag);
        assert_eq!(diag.findings[0].verified_gain, Some(compute.gain_ns));
        let json = ncd_simnet::diagnosis_json(&diag);
        assert!(json.contains("\"verified_gain_ns\":"), "{json}");
    }

    #[test]
    fn whatif_exports_are_stable_and_schema_led() {
        let profile = CausalProfile {
            baseline_ns: 1000,
            outcomes: vec![Outcome {
                experiment: Experiment {
                    id: "wire-zero-rank0".to_string(),
                    rationale: "test".to_string(),
                    target_finding: Some(0),
                    actions: vec![
                        Action::Cost {
                            rank: 0,
                            dim: KnobDim::Wire,
                            factor: 0.0,
                        },
                        Action::PinAllgatherv(AllgathervAlgorithm::RecursiveDoubling),
                    ],
                },
                makespan_ns: 750,
                gain_ns: 250,
                gain_pct: 25.0,
                spread_ns: 0,
                confidence: 1.0,
            }],
        };
        let json = whatif_json(&profile);
        assert_eq!(
            json,
            "{\"schema\":1,\"baseline_ns\":1000,\"experiments\":[\
             {\"id\":\"wire-zero-rank0\",\"rationale\":\"test\",\"target_finding\":0,\
             \"actions\":[{\"kind\":\"cost\",\"rank\":0,\"dim\":\"wire\",\"factor\":0},\
             {\"kind\":\"pin\",\"collective\":\"allgatherv\",\"algorithm\":\"recursive_doubling\"}],\
             \"makespan_ns\":750,\"gain_ns\":250,\"gain_pct\":25.0000,\"spread_ns\":0,\
             \"confidence\":1.0000}]}"
        );
        let report = whatif_report(&profile);
        assert!(report.contains("what-if causal profile"), "{report}");
        assert!(report.contains("wire-zero-rank0"), "{report}");
    }
}
