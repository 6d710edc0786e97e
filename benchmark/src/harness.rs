//! Timing harness shared by the workloads.
//!
//! Ranks are fibers on one OS thread, so a host timestamp taken on one
//! rank includes whatever other ranks executed in between. In-cluster
//! phases are therefore bracketed by barriers and recorded cluster-wide:
//! a phase starts when the *first* rank leaves the barrier and ends when
//! the *last* rank finishes the body. The simulated clock is reset at the
//! barrier, so a phase's simulated time is the max over ranks of the
//! clock at the end of the body.
//!
//! Host times are reported in *yardstick-normalized* seconds: a yardstick
//! (see [`crate::util::yardstick`]) is timed when set-up ends, after every
//! round and — where a workload calls [`Harness::tick`] — every half
//! second inside a long phase, and each raw time is divided by how much
//! slower than nominal the yardsticks around and inside it ran. The machine's own speed
//! changes are most of the run-to-run noise; this removes most of them.
//!
//! A workload is a loop of *rounds* of fixed work. Rounds repeat until
//! the time budget is used (end-to-end runs) or for a fixed count (traced
//! runs, whose counters must repeat exactly); host time is reported per
//! round, simulated time and counts from round 0 only, so neither depends
//! on how many rounds the host had time for.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use ncd_core::{Comm, MpiConfig};
use ncd_simnet::{last_sched_stats, Cluster, ClusterConfig, Rank, SchedStats};

use crate::spans::SpanLog;
use crate::util::{median, slowdown, yardstick, Yard};

/// How much one workload run measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// `Some`: start another round while the budget is expected to hold
    /// one more. `None`: run exactly `rounds`.
    pub budget: Option<Duration>,
    /// Round count when `budget` is `None`, else the cap.
    pub rounds: usize,
    /// How many times set-up runs at least; `setup_s` is the median.
    pub setups: usize,
    /// Keep sampling a cheap set-up beyond `setups` (see [`SETUP_FILL`]).
    pub fill_setups: bool,
}

/// With `Plan::fill_setups`, a cheap set-up repeats beyond
/// `Plan::setups` until this much time is spent on it (or [`MAX_SETUPS`] samples are in), so that millisecond
/// set-ups report a median as steady as second-long ones.
const SETUP_FILL: Duration = Duration::from_millis(400);
const MAX_SETUPS: usize = 25;

impl Plan {
    /// End-to-end run: measure for `seconds`.
    pub fn timed(seconds: f64) -> Plan {
        Plan {
            budget: Some(Duration::from_secs_f64(seconds)),
            rounds: usize::MAX,
            setups: 3,
            fill_setups: true,
        }
    }

    /// Is another set-up sample wanted after `have`, `since` the first?
    pub fn wants_setup(&self, have: usize, since: Instant) -> bool {
        have < self.setups.max(1)
            || (self.fill_setups && have < MAX_SETUPS && since.elapsed() < SETUP_FILL)
    }

    /// Traced / probe run: a fixed number of rounds.
    pub fn fixed(rounds: usize, setups: usize) -> Plan {
        Plan {
            budget: None,
            rounds,
            setups,
            fill_setups: false,
        }
    }
}

/// One phase of one round, cluster-wide.
#[derive(Clone, Debug)]
pub struct PhaseRec {
    pub name: &'static str,
    /// Operations (collectives, scatters, solves, pipeline stages) the
    /// phase performs per round.
    pub ops: u64,
    /// First rank entering the pre-phase barrier.
    pub sync_in: Instant,
    /// First rank leaving the barrier: the phase starts.
    pub t_in: Instant,
    /// Last rank finishing the body: the phase ends.
    pub t_out: Instant,
    /// Last rank finishing its output check.
    pub t_checked: Instant,
    /// Max over ranks of the simulated clock at the end of the body.
    pub sim_ns: u64,
    pub msgs: u64,
    pub bytes: u64,
    /// Host seconds of yardsticks taken inside the phase (not its work).
    pub yard_s: f64,
    /// Every rank's output matched its independently computed expectation.
    pub ok: bool,
    /// Ranks that have entered the phase (the first one sets the stamps).
    ranks_in: u32,
}

impl PhaseRec {
    fn new(name: &'static str, ops: u64, now: Instant) -> PhaseRec {
        PhaseRec {
            name,
            ops,
            sync_in: now,
            t_in: now,
            t_out: now,
            t_checked: now,
            sim_ns: 0,
            msgs: 0,
            bytes: 0,
            yard_s: 0.0,
            ok: true,
            ranks_in: 0,
        }
    }

    /// A host-side stage (no ranks, no barrier): `[t_in, t_out]` is the
    /// stage, `[t_out, t_checked]` its output check.
    pub fn stage(
        name: &'static str,
        t_in: Instant,
        t_out: Instant,
        t_checked: Instant,
        sim_ns: u64,
        ok: bool,
    ) -> PhaseRec {
        PhaseRec {
            t_in,
            t_out,
            t_checked,
            sim_ns,
            ok,
            ..PhaseRec::new(name, 1, t_in)
        }
    }

    /// Raw host seconds of the phase's own work.
    pub fn host_s(&self) -> f64 {
        (self.t_out - self.t_in).as_secs_f64() - self.yard_s
    }
}

/// Phase names and per-round operation counts of a workload.
pub type PhaseDefs = &'static [(&'static str, u64)];

struct Inner {
    /// Set-up sub-spans: (name, first rank in, last rank out).
    marks: Vec<(&'static str, Instant, Instant)>,
    /// First rank released from the post-warm-up barrier (which every
    /// rank has entered by then): set-up is over.
    setup_done: Option<Instant>,
    /// Yardsticks in time order; `true` marks the ones on a boundary (end
    /// of set-up, end of each round), the rest were taken inside a phase.
    yards: Vec<(Yard, bool)>,
    /// The phase ranks are in, for [`Harness::tick`].
    current: (usize, usize),
    rounds: Vec<Vec<PhaseRec>>,
    /// `decisions[k]`: does round `k+1` run? Taken once, by whichever rank
    /// asks first, so every rank runs the same number of rounds.
    decisions: Vec<bool>,
}

/// Shared by all ranks of one cluster run.
pub struct Harness {
    defs: PhaseDefs,
    setup_only: bool,
    budget: Option<Duration>,
    max_rounds: usize,
    inner: Mutex<Inner>,
}

impl Harness {
    fn new(defs: PhaseDefs, plan: &Plan, setup_only: bool) -> Harness {
        Harness {
            defs,
            setup_only,
            budget: plan.budget,
            max_rounds: plan.rounds.max(1),
            inner: Mutex::new(Inner {
                marks: Vec::new(),
                setup_done: None,
                yards: Vec::new(),
                current: (0, 0),
                rounds: Vec::new(),
                decisions: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a rank panicked while holding the harness lock")
    }

    /// Time one named step of set-up on this rank; the span recorded is
    /// first rank in → last rank out.
    pub fn setup_step<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let mut g = self.lock();
        match g.marks.iter_mut().find(|m| m.0 == name) {
            Some(m) => {
                m.1 = m.1.min(t0);
                m.2 = m.2.max(t1);
            }
            None => g.marks.push((name, t0, t1)),
        }
        r
    }

    /// The post-warm-up barrier that ends set-up. Returns `false` when
    /// this cluster run only measures set-up and the rank should return.
    pub fn end_setup(&self, rank: &mut Rank) -> bool {
        Comm::new(rank, MpiConfig::optimized()).barrier();
        let mut g = self.lock();
        if g.setup_done.is_none() {
            g.setup_done = Some(Instant::now());
            g.yards.push((yardstick(), true));
        }
        !self.setup_only
    }

    /// Run phase `idx` of `round` on this rank: barrier, clock reset,
    /// body. `cfg` is the MPI personality the phase runs under.
    pub fn phase(
        &self,
        rank: &mut Rank,
        cfg: &MpiConfig,
        round: usize,
        idx: usize,
        body: impl FnOnce(&mut Comm),
    ) {
        let sync_in = Instant::now();
        let mut comm = Comm::new(rank, cfg.clone());
        comm.barrier();
        comm.rank_mut().reset_clock();
        let s0 = {
            let s = comm.rank_ref().stats();
            (s.msgs_sent, s.bytes_sent)
        };
        let t_in = Instant::now();
        {
            let mut g = self.lock();
            while g.rounds.len() <= round {
                let row = self
                    .defs
                    .iter()
                    .map(|&(name, ops)| PhaseRec::new(name, ops, sync_in))
                    .collect();
                g.rounds.push(row);
            }
            g.current = (round, idx);
            let rec = &mut g.rounds[round][idx];
            if rec.ranks_in == 0 {
                (rec.sync_in, rec.t_in, rec.t_out, rec.t_checked) = (sync_in, t_in, t_in, t_in);
            } else {
                rec.sync_in = rec.sync_in.min(sync_in);
                rec.t_in = rec.t_in.min(t_in);
            }
            rec.ranks_in += 1;
        }
        body(&mut comm);
        let sim_ns = comm.rank_ref().now().as_ns();
        let s1 = comm.rank_ref().stats();
        let (msgs, bytes) = (s1.msgs_sent - s0.0, s1.bytes_sent - s0.1);
        let t_out = Instant::now();
        let mut g = self.lock();
        let rec = &mut g.rounds[round][idx];
        rec.t_out = rec.t_out.max(t_out);
        rec.t_checked = rec.t_checked.max(t_out);
        rec.sim_ns = rec.sim_ns.max(sim_ns);
        rec.msgs += msgs;
        rec.bytes += bytes;
    }

    /// Called by rank 0 from inside a long phase body, between
    /// operations: takes a yardstick if the last one is half a second old.
    /// Every rank is a fiber on this thread, so the yardstick is a pure
    /// insertion of known length; it is subtracted from the phase.
    pub fn tick(&self, rank: usize) {
        const EVERY: Duration = Duration::from_millis(500);
        if rank != 0 {
            return;
        }
        let mut g = self.lock();
        if g.yards
            .last()
            .is_some_and(|(y, _)| y.end.elapsed() >= EVERY)
        {
            let y = yardstick();
            let (round, idx) = g.current;
            g.rounds[round][idx].yard_s += (y.end - y.start).as_secs_f64();
            g.yards.push((y, false));
        }
    }

    /// Report this rank's output check for a phase it just ran. A
    /// mismatch is *counted* (the phase's operations are failed), never
    /// a panic.
    pub fn check(&self, round: usize, idx: usize, ok: bool) {
        let now = Instant::now();
        let mut g = self.lock();
        let rec = &mut g.rounds[round][idx];
        rec.ok &= ok;
        rec.t_checked = rec.t_checked.max(now);
    }

    /// Does another round follow `round`? Identical answer on every rank.
    pub fn next_round(&self, round: usize) -> bool {
        let mut g = self.lock();
        if g.decisions.len() <= round {
            let more = round + 1 < self.max_rounds
                && self.budget.is_none_or(|budget| {
                    let first = g.rounds[0][0].sync_in;
                    let last = g.rounds[round].last().expect("phases").t_checked;
                    let used = last - first;
                    // Expect the next round to cost what the rounds so far
                    // cost on average; never start one that would overrun.
                    used + used / (round as u32 + 1) <= budget
                });
            g.yards.push((yardstick(), true));
            g.decisions.push(more);
        }
        g.decisions[round]
    }
}

/// What one workload run produced.
#[derive(Clone, Debug)]
pub struct RunData {
    pub workload: &'static str,
    /// One sample per set-up repetition (cluster start → first rank
    /// released from the post-warm-up barrier), yardstick-normalized.
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Vec<PhaseRec>>,
    /// Per round: how much slower than nominal the yardsticks before and
    /// after it ran.
    pub round_slowdown: Vec<f64>,
    /// Scheduler survey of the measured cluster run.
    pub sched: SchedStats,
    pub spans: SpanLog,
}

impl RunData {
    /// Raw host seconds of one round: the sum of its phases (barriers and
    /// output checks between phases are not part of any phase).
    pub fn raw_round_wall_s(&self, round: usize) -> f64 {
        self.rounds[round].iter().map(PhaseRec::host_s).sum()
    }

    /// Yardstick-normalized host seconds of one round.
    pub fn round_wall_s(&self, round: usize) -> f64 {
        self.raw_round_wall_s(round) / self.round_slowdown[round]
    }

    /// Median round, yardstick-normalized.
    pub fn wall_s(&self) -> f64 {
        let v: Vec<f64> = (0..self.rounds.len())
            .map(|r| self.round_wall_s(r))
            .collect();
        median(&v)
    }

    /// Simulated makespan of round 0: sum over phases of the max over
    /// ranks. A function of the seed alone.
    pub fn sim_makespan_us(&self) -> f64 {
        self.rounds[0].iter().map(|p| p.sim_ns).sum::<u64>() as f64 / 1e3
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.setup_s)
    }

    pub fn ops_attempted(&self) -> u64 {
        self.rounds.iter().flatten().map(|p| p.ops).sum()
    }

    pub fn ops_failed(&self) -> u64 {
        self.rounds
            .iter()
            .flatten()
            .filter(|p| !p.ok)
            .map(|p| p.ops)
            .sum()
    }

    /// Median raw host seconds of phase `name` over the rounds (layer
    /// metrics are diagnostics and stay in raw seconds).
    pub fn phase_host_s(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .rounds
            .iter()
            .flatten()
            .filter(|p| p.name == name)
            .map(PhaseRec::host_s)
            .collect();
        median(&v)
    }

    /// Round-0 record of phase `name` (counts and simulated time).
    pub fn phase0(&self, name: &str) -> &PhaseRec {
        self.rounds[0]
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("workload {} has no phase {name}", self.workload))
    }
}

/// The span tree of one run: `workload` → `setup` (its steps) ·
/// `measure` (per round and phase contiguous `sync` / phase / `check`
/// spans, and the yardsticks) · `teardown`. The run starts at `t0`, the
/// start of the measured set-up; earlier set-up repetitions are samples
/// of `setup_s`, not part of it.
pub fn build_spans(
    mut spans: SpanLog,
    t0: Instant,
    setup_steps: &[(&'static str, Instant, Instant)],
    setup_done: Instant,
    rounds: &[Vec<PhaseRec>],
    yards: &[Yard],
    t_end: Instant,
) -> SpanLog {
    let root = spans.push("workload", None, t0, t_end);
    let setup = spans.push("setup", Some(root), t0, setup_done);
    for (name, a, b) in setup_steps {
        spans.push(*name, Some(setup), *a, *b);
    }
    let m_start = rounds[0][0].sync_in;
    let m_end = rounds
        .last()
        .expect("rounds")
        .last()
        .expect("phases")
        .t_checked;
    let measure = spans.push("measure", Some(root), m_start, m_end);
    for p in rounds.iter().flatten() {
        spans.push("sync", Some(measure), p.sync_in, p.t_in);
        spans.push(p.name, Some(measure), p.t_in, p.t_out);
        spans.push("check", Some(measure), p.t_out, p.t_checked);
    }
    for y in yards {
        spans.push("yardstick", Some(measure), y.start, y.end);
    }
    spans.push("teardown", Some(root), m_end, t_end);
    spans
}

/// A workload whose measured phases run inside one simulated cluster.
pub trait ClusterWorkload: Sync {
    fn name(&self) -> &'static str;
    fn cluster(&self) -> ClusterConfig;
    fn phases(&self) -> PhaseDefs;
    /// The SPMD program: set-up (ending in [`Harness::end_setup`]), then
    /// rounds of [`Harness::phase`] + [`Harness::check`] until
    /// [`Harness::next_round`] says stop.
    fn rank_main(&self, h: &Harness, rank: &mut Rank);
}

/// Run a cluster workload: set-up-only cluster runs while the plan wants
/// more set-up samples, then the measured one. Clusters run strictly one after another —
/// `last_sched_stats` is process-global.
pub fn run_cluster_workload(w: &dyn ClusterWorkload, plan: &Plan, origin: Instant) -> RunData {
    let mut setup_s = Vec::with_capacity(plan.setups);
    let t_first = Instant::now();
    // Set-up-only cluster runs while one more sample is wanted after the
    // measured run's own.
    let (h, t0) = loop {
        let measured = !plan.wants_setup(setup_s.len() + 1, t_first);
        let h = Harness::new(w.phases(), plan, !measured);
        let before = yardstick();
        let t0 = Instant::now();
        Cluster::new(w.cluster()).run(|rank| w.rank_main(&h, rank));
        let (done, after) = {
            let g = h.lock();
            (
                g.setup_done.expect("workload never ended set-up"),
                g.yards[0].0,
            )
        };
        setup_s.push((done - t0).as_secs_f64() / slowdown(&[before, after]));
        if measured {
            break (h, t0);
        }
    };
    let t_end = Instant::now();
    let sched = last_sched_stats().expect("event backend publishes its stats");
    let inner = h.inner.into_inner().expect("harness lock poisoned");
    let done = inner.setup_done.expect("checked above");

    let first_in = inner.marks.iter().map(|m| m.1).min().unwrap_or(done);
    let mut steps = vec![("cluster_spawn", t0, first_in)];
    steps.extend(&inner.marks);
    let in_measure: Vec<Yard> = inner.yards[1..].iter().map(|(y, _)| *y).collect();
    let spans = build_spans(
        SpanLog::new(w.name(), origin),
        t0,
        &steps,
        done,
        &inner.rounds,
        &in_measure,
        t_end,
    );
    // Round k: from the boundary yardstick before it to the one after,
    // with whatever was taken inside.
    let bounds: Vec<usize> = (0..inner.yards.len())
        .filter(|&i| inner.yards[i].1)
        .collect();
    let round_slowdown = bounds
        .windows(2)
        .map(|b| {
            let yards: Vec<Yard> = inner.yards[b[0]..=b[1]].iter().map(|(y, _)| *y).collect();
            slowdown(&yards)
        })
        .collect();

    RunData {
        workload: w.name(),
        setup_s,
        rounds: inner.rounds,
        round_slowdown,
        sched,
        spans,
    }
}
