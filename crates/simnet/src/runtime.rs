//! The cluster runtime: ranks as scheduled tasks over simulated time.
//!
//! [`Cluster::try_run`] hands every rank a [`Rank`] handle — its identity,
//! its simulated clock, its side of the scheduler and the cost model — runs
//! all of them to completion and returns everything the run produced as a
//! [`RunOutput`], observers' [`crate::capture`] included. All
//! communication is real (bytes move from the sender into the receiver's
//! mailbox); all timing is simulated (see the crate
//! docs for the rationale). Every rank is a resumable task driven by the
//! deterministic event scheduler in [`crate::sched`]: fiber context
//! switches instead of kernel ones, park/unpark on the simulated clock.
//! This is what lets N=1024 sweeps run in CI smoke time.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::capture::{Capture, Observers, RankCapture};
use crate::commmap::RankCommMap;
use crate::history::RankHistory;
use crate::knobs::{CostKnobs, ResolvedKnobs};
use crate::mailbox::{NetMsg, Tag};
use crate::metrics::MetricsRegistry;
use crate::recorder::{render_dump, RankRecorder};
use crate::sched::{
    self, EventCtl, EventHandle, RunError, SchedStats, Stacks, Task, TaskBackend, TaskShared,
    Violation,
};
use crate::stats::{CostKind, Stats};
use crate::time::{CostModel, SimTime};
use crate::trace::{EventKind, TraceEvent};

/// How per-rank CPU speeds are assigned, modelling node heterogeneity.
///
/// The paper's testbed mixed a 32-node Intel EM64T cluster with a 32-node
/// AMD Opteron cluster; [`SpeedProfile::MixedHalves`] reproduces that split
/// (lower half of the ranks fast, upper half slow), matching the paper's
/// note that runs up to 32 processes stayed on one homogeneous cluster.
#[derive(Clone, Debug)]
pub enum SpeedProfile {
    /// Every rank runs at speed 1.0.
    Uniform,
    /// Ranks `0..n/2` run at `fast`, ranks `n/2..n` at `slow`
    /// (relative CPU speed multipliers; CPU costs are divided by speed).
    MixedHalves { fast: f64, slow: f64 },
}

impl SpeedProfile {
    fn speed_of(&self, rank: usize, size: usize) -> f64 {
        match self {
            SpeedProfile::Uniform => 1.0,
            SpeedProfile::MixedHalves { fast, slow } => {
                if rank < size / 2 || size == 1 {
                    *fast
                } else {
                    *slow
                }
            }
        }
    }
}

/// Configuration of a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    pub n_ranks: usize,
    pub cost: CostModel,
    pub speeds: SpeedProfile,
    /// Seed for the deterministic per-rank jitter streams.
    pub seed: u64,
    /// Capacity of each rank's always-on flight recorder (rounded up to a
    /// power of two, at most [`MAX_RECORDER_CAPACITY`]; see
    /// [`crate::recorder`]).
    pub recorder_capacity: usize,
    /// When set, the event scheduler breaks equal-simulated-time ties in
    /// its ready queue pseudorandomly from this seed instead of by rank
    /// id. Simulated results must not depend on it — the knob exists so
    /// property tests can prove that.
    pub sched_tie_seed: Option<u64>,
    /// Counterfactual cost overlay (see [`crate::knobs`]): per-rank /
    /// per-dimension scale factors applied to the cost model's charges.
    /// `None` (the default) charges the model unmodified with zero
    /// overhead; all-1.0 knobs are bitwise identical to `None`.
    pub knobs: Option<CostKnobs>,
    /// Suspend/resume primitive for rank tasks (see [`TaskBackend`]).
    /// `None` resolves to the target default at run time; constructors
    /// seed it from `NCD_SCHED_TASKS` so a whole suite can be flipped
    /// onto the portable backend without code changes.
    pub task_backend: Option<TaskBackend>,
    /// The observers every rank starts with (see [`crate::capture`]).
    pub observers: Observers,
}

/// Default flight-recorder window per rank.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// Largest flight-recorder window [`Cluster::new`] accepts per rank: 2^16
/// slots of 64 bytes, 4 MiB a rank.
pub const MAX_RECORDER_CAPACITY: usize = 1 << 16;

/// Per-rank task stack (1 MiB, lazily committed by the OS so idle ranks
/// cost address space, not memory).
pub const DEFAULT_STACK_BYTES: usize = 1 << 20;

impl ClusterConfig {
    /// Homogeneous, noise-free cluster — the right choice for correctness
    /// tests and for experiments that isolate algorithmic effects.
    pub fn uniform(n_ranks: usize) -> Self {
        ClusterConfig {
            n_ranks,
            cost: CostModel::default(),
            speeds: SpeedProfile::Uniform,
            seed: 0x5eed,
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
            sched_tie_seed: None,
            knobs: None,
            task_backend: TaskBackend::from_env(),
            observers: Observers::NONE,
        }
    }

    /// A cluster shaped like the paper's testbed: two 32-node halves with
    /// slightly different CPU speeds plus mild per-operation OS jitter.
    /// Within the first half (≤ 32 ranks) the machine is homogeneous, which
    /// mirrors the paper's "evaluation till 32 processes was done completely
    /// on the Opteron cluster".
    pub fn paper_testbed(n_ranks: usize) -> Self {
        ClusterConfig {
            n_ranks,
            cost: CostModel::default().with_noise(1_500.0),
            speeds: SpeedProfile::MixedHalves {
                fast: 1.0,
                slow: 0.85,
            },
            seed: 0x2007,
            ..ClusterConfig::uniform(n_ranks)
        }
    }

    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_recorder_capacity(mut self, capacity: usize) -> Self {
        self.recorder_capacity = capacity;
        self
    }

    /// Seed the event scheduler's equal-time tie-breaking (see
    /// [`ClusterConfig::sched_tie_seed`]).
    pub fn with_tie_break_seed(mut self, seed: u64) -> Self {
        self.sched_tie_seed = Some(seed);
        self
    }

    /// Overlay counterfactual cost scale factors (see [`crate::knobs`]).
    pub fn with_cost_knobs(mut self, knobs: CostKnobs) -> Self {
        self.knobs = Some(knobs);
        self
    }

    /// Pin the task suspend/resume primitive, ignoring `NCD_SCHED_TASKS`
    /// (differential tests pit the asm fiber switch against the portable
    /// baton this way).
    pub fn with_task_backend(mut self, backend: TaskBackend) -> Self {
        self.task_backend = Some(backend);
        self
    }

    /// Observe every rank with `observers` (see [`crate::capture`]).
    pub fn observe(mut self, observers: Observers) -> Self {
        self.observers = observers;
        self
    }
}

/// A simulated cluster, ready to run a program on every rank.
pub struct Cluster {
    cfg: ClusterConfig,
}

impl Cluster {
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.n_ranks > 0, "cluster needs at least one rank");
        assert!(
            cfg.recorder_capacity <= MAX_RECORDER_CAPACITY,
            "flight-recorder capacity {} exceeds the cap of {MAX_RECORDER_CAPACITY} slots",
            cfg.recorder_capacity
        );
        Cluster { cfg }
    }

    fn make_rank(
        cfg: &ClusterConfig,
        rank_id: usize,
        recorder: Arc<RankRecorder>,
        sched: EventHandle,
    ) -> Rank {
        let n = cfg.n_ranks;
        Rank {
            rank: rank_id,
            size: n,
            now: SimTime::ZERO,
            nic_free: SimTime::ZERO,
            cost: cfg.cost.clone(),
            speed: cfg.speeds.speed_of(rank_id, n),
            rng: StdRng::seed_from_u64(
                cfg.seed ^ (rank_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            stats: Stats::new(),
            send_seq: 0,
            recorder,
            observed: RankCapture::new(cfg.observers, rank_id, n),
            observers: cfg.observers,
            sched,
            knobs: cfg.knobs.as_ref().map(|k| k.resolve(rank_id)),
        }
    }

    /// Run `f` on every rank concurrently (SPMD style): the per-rank
    /// return values, indexed by rank, or why the run stopped, and what
    /// the configured observers saw ([`Rank::harvest`] after `f`).
    ///
    /// Every rank is a resumable task; one scheduler drives them in
    /// simulated-time order (see [`crate::sched`] for the event loop and
    /// the park/unpark protocol). A failed run still runs every other
    /// rank as far as it can go, and still returns its survey and its
    /// recorders; its capture is empty. A rank that notices a misuse
    /// (ranks that disagree, a receive too small) raises a [`Violation`],
    /// which comes back as [`RunError::Violation`].
    pub fn try_run<R, F>(&self, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Rank) -> R + Send + Sync,
    {
        let n = self.cfg.n_ranks;
        // Each recorder is written only by its rank and returned on every
        // path: a failed run's recorders are its evidence.
        let recorders: Vec<Arc<RankRecorder>> = (0..n)
            .map(|r| Arc::new(RankRecorder::new(r, self.cfg.recorder_capacity)))
            .collect();
        let ctl = Arc::new(EventCtl::new(n));
        let task_backend = self
            .cfg
            .task_backend
            .unwrap_or_else(TaskBackend::default_for_target);
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // An unobserved run (every benchmark workload) has no part slots
        // and harvests nothing.
        let observing = self.cfg.observers != Observers::NONE;
        let parts: Vec<Mutex<Option<RankCapture>>> = (0..if observing { n } else { 0 })
            .map(|_| Mutex::new(None))
            .collect();
        let mut stacks = Stacks::new(task_backend, n, DEFAULT_STACK_BYTES);
        let mut tasks: Vec<Task> = Vec::with_capacity(n);
        for (rank_id, recorder) in recorders.iter().enumerate() {
            let shared = Arc::new(TaskShared::new(task_backend));
            let handle = EventHandle::new(ctl.clone(), shared.clone(), rank_id);
            let cfg = &self.cfg;
            let f = &f;
            let (results, parts) = (&results, &parts);
            let recorder = recorder.clone();
            let body = Box::new(move || {
                let mut rank = Self::make_rank(cfg, rank_id, recorder, handle);
                let r = f(&mut rank);
                if let Some(slot) = parts.get(rank_id) {
                    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(rank.harvest());
                }
                *results[rank_id].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
            // SAFETY: the body borrows `f`, `results`, `parts` and `self.cfg`;
            // `sched::drive` runs or unwinds every task before
            // returning, and the task vector is dropped before any of
            // those borrows expire, and before `stacks`, below.
            tasks.push(unsafe { Task::spawn(shared, body, &mut stacks, rank_id) });
        }
        let (outcome, sched) = sched::drive(&ctl, &mut tasks, self.cfg.sched_tie_seed);
        drop(tasks);
        let results = outcome.map(|()| results.into_iter().map(finished).collect());
        let capture = match results {
            Ok(_) => Capture::merge(parts.into_iter().map(finished)),
            Err(_) => Capture::default(),
        };
        RunOutput {
            results,
            sched,
            recorders,
            capture,
        }
    }

    /// An unobserved [`Cluster::try_run`], failing loudly
    /// ([`RunOutput::unwrap`]). The run's survey is kept for
    /// [`last_sched_stats`] on this thread. Panics if the config observes
    /// anything: an observed run's capture is in `try_run`'s output.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Rank) -> R + Send + Sync,
    {
        let observers = self.cfg.observers;
        assert_eq!(observers, Observers::NONE, "Cluster::run drops a capture");
        let out = self.try_run(f);
        LAST_SCHED_STATS.set(Some(out.sched.clone()));
        out.unwrap().0
    }
}

/// Everything one cluster run produced, whether it completed or not.
pub struct RunOutput<R> {
    /// Each rank's return value, indexed by rank, or why the run stopped.
    pub results: Result<Vec<R>, RunError>,
    /// The scheduler's survey of the run.
    pub sched: SchedStats,
    /// Every rank's flight recorder, indexed by rank, as its rank left
    /// it when its program returned or unwound.
    pub recorders: Vec<Arc<RankRecorder>>,
    /// What the configured observers saw ([`ClusterConfig::observe`]);
    /// empty when the run failed.
    pub capture: Capture,
}

impl<R> RunOutput<R> {
    /// A completed run's results and capture; a failed one is raised.
    pub fn unwrap(self) -> (Vec<R>, Capture) {
        match self.results {
            Ok(results) => (results, self.capture),
            Err(err) => err.raise(&self.recorders),
        }
    }
}

impl RunError {
    /// Fail loudly, as [`Cluster::run`] does: write the flight-recorder
    /// dump of the failed run's `recorders` to stderr, then re-raise a
    /// rank's own panic with its payload, or panic with this error's text
    /// (a [`Violation`]'s `Display`, a stall's report) as a `String`.
    pub fn raise(self, recorders: &[Arc<RankRecorder>]) -> ! {
        eprintln!(
            "flight recorder: panic on rank {}\n{}",
            self.rank(),
            render_dump(recorders)
        );
        match self {
            RunError::RankPanicked { payload, .. } => std::panic::resume_unwind(payload),
            err => panic!("{err}"),
        }
    }
}

thread_local! {
    /// The survey of the last [`Cluster::run`] on this thread.
    static LAST_SCHED_STATS: RefCell<Option<SchedStats>> = const { RefCell::new(None) };
}

/// The scheduler survey of the most recent [`Cluster::run`] on the
/// calling thread; `None` before the first. For callers that hold only
/// `run`'s results — [`Cluster::try_run`] returns the survey with them.
pub fn last_sched_stats() -> Option<SchedStats> {
    LAST_SCHED_STATS.with_borrow(Option::clone)
}

/// Handle given to each rank's task: identity, clock, network, stats —
/// and its observers. The flight recorder is always on. The other four
/// (trace, metrics, comm map, history) exist only when the run
/// is configured with them ([`ClusterConfig::observe`], the one way in)
/// and cost one branch and no memory otherwise; [`Rank::harvest`] takes
/// them. `enable_*` / `take_*` are the frozen benchmark's primitive and a
/// program's mid-run phase split: `take_*` hands back what was gathered and
/// leaves a fresh observer in place; on an observer that is off it returns
/// an empty value and leaves it off. No observer touches the simulated
/// clock. Every observed event leaves the rank through [`Rank::record`].
pub struct Rank {
    rank: usize,
    size: usize,
    now: SimTime,
    /// Simulated time at which this rank's NIC finishes serializing all
    /// bytes reserved so far (the nonblocking-send progress model: wire
    /// serialization proceeds on the NIC timeline while the CPU clock
    /// advances independently, and a completion wait charges only the
    /// residual). Never behind `now` after a blocking send.
    nic_free: SimTime,
    cost: CostModel,
    speed: f64,
    rng: StdRng,
    stats: Stats,
    /// Monotone per-rank message counter; stamped onto every outgoing
    /// message as its correlation id (see [`crate::analysis`]).
    send_seq: u64,
    /// Always-on flight recorder (shared with the run's [`RunOutput`]; see
    /// [`crate::recorder`]). This rank is its only writer until dropped.
    pub(crate) recorder: Arc<RankRecorder>,
    /// The four optional observers, and the set the run configured.
    observed: RankCapture,
    observers: Observers,
    /// This rank's side of the scheduler: its mailbox, its peers'
    /// mailboxes, and the park/unpark protocol.
    sched: EventHandle,
    /// Counterfactual cost factors for this rank, resolved once from
    /// [`ClusterConfig::knobs`]. `None` = charge the model unmodified.
    knobs: Option<ResolvedKnobs>,
}

impl Rank {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Current simulated time at this rank.
    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Take the accumulated stats, resetting them (benchmark phases).
    pub fn take_stats(&mut self) -> Stats {
        std::mem::take(&mut self.stats)
    }

    /// Take what the observers gathered, leaving fresh ones of the
    /// configured set: [`Cluster::try_run`] calls it after the program, and
    /// a program that discards one mid-run drops a warm-up's observations.
    pub fn harvest(&mut self) -> RankCapture {
        let fresh = RankCapture::new(self.observers, self.rank, self.size);
        std::mem::replace(&mut self.observed, fresh)
    }

    /// Start recording a timeline of events (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        self.observed.trace.get_or_insert_with(Vec::new);
    }

    /// Drain the recorded timeline (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        take_observer(&mut self.observed.trace, Vec::new())
    }

    /// The one way an observed event leaves this rank: `kind` happened
    /// over `[start, now]`. It always goes into the flight recorder, and
    /// onto the trace when tracing is on; metrics derived from an event are
    /// written by its producer (see [`Rank::metrics_mut`]). Allocates
    /// nothing with tracing off.
    ///
    /// Force-inlined with `RankRecorder::record_event`: every caller
    /// passes a literal variant, so the table folds to that variant's row
    /// and, with tracing off, the words go straight into the recorder slot.
    /// Otherwise each event is first built on the rank's stack, which at
    /// N = 1024 ranks cost a ring allgatherv ~10 % host time per message.
    #[inline(always)]
    pub fn record(&mut self, start: SimTime, kind: EventKind) {
        let event = TraceEvent {
            kind,
            start,
            end: self.now,
        };
        self.recorder.record_event(&event);
        if let Some(trace) = &mut self.observed.trace {
            trace.push(event);
        }
    }

    /// Start recording named metrics (see [`crate::metrics`]).
    pub fn enable_metrics(&mut self) {
        self.observed
            .metrics
            .get_or_insert_with(MetricsRegistry::enabled);
    }

    /// The metrics registry when metrics are on: every producer writes its
    /// keys under one `if let Some(m) = rank.metrics_mut()`.
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.observed.metrics.as_mut()
    }

    /// Take the accumulated metrics.
    pub fn take_metrics(&mut self) -> MetricsRegistry {
        take_observer(&mut self.observed.metrics, MetricsRegistry::enabled())
    }

    /// Start accumulating the communication-topology map (see
    /// [`crate::commmap`]).
    pub fn enable_comm_map(&mut self) {
        let (rank, size) = (self.rank, self.size);
        self.observed
            .comm_map
            .get_or_insert_with(|| RankCommMap::new(rank, size));
    }

    pub fn comm_map_enabled(&self) -> bool {
        self.observed.comm_map.is_some()
    }

    /// Take the accumulated comm map.
    pub fn take_comm_map(&mut self) -> RankCommMap {
        take_observer(
            &mut self.observed.comm_map,
            RankCommMap::new(self.rank, self.size),
        )
    }

    /// Close the current comm-map epoch under `label` and mirror it into
    /// the history when that is on (no-op when the map is off). The
    /// collectives call this once per call with
    /// `<collective>/<algorithm>`.
    pub fn comm_epoch(&mut self, label: &str) {
        let Some(map) = &mut self.observed.comm_map else {
            return;
        };
        map.close_epoch(label);
        if let (Some(history), Some(epoch)) = (&mut self.observed.history, map.epochs().last()) {
            history.append(epoch, self.now);
        }
    }

    /// Start appending the epoch time-series history (see
    /// [`crate::history`]). The history keeps the closed comm-map epochs,
    /// so enabling it also enables the comm map.
    pub fn enable_history(&mut self) {
        self.enable_comm_map();
        let (rank, size) = (self.rank, self.size);
        self.observed
            .history
            .get_or_insert_with(|| RankHistory::new(rank, size));
    }

    pub fn history_enabled(&self) -> bool {
        self.observed.history.is_some()
    }

    /// Take the accumulated history.
    pub fn take_history(&mut self) -> RankHistory {
        take_observer(
            &mut self.observed.history,
            RankHistory::new(self.rank, self.size),
        )
    }

    /// Deterministic per-operation jitter in `[0, noise_ns)`.
    fn jitter_ns(&mut self) -> f64 {
        if self.cost.noise_ns > 0.0 {
            self.rng.gen_range(0.0..self.cost.noise_ns)
        } else {
            0.0
        }
    }

    /// Charge a span to both the flat [`Stats`] and (when enabled) the
    /// per-kind `time/<label>` slot of the metrics registry, keeping the
    /// two accounting layers in exact agreement.
    fn charge_span(&mut self, kind: CostKind, span: SimTime) {
        self.stats.charge(kind, span);
        if let Some(metrics) = &mut self.observed.metrics {
            metrics.charge_time(kind, span.as_ns());
        }
    }

    /// The counterfactual factor for a CPU charge of `kind`: pack/search
    /// and compute are scalable [`crate::KnobDim`]s; everything else
    /// (comm overheads) charges unmodified. One branch when knobs are
    /// unset — the zero-overhead-when-disabled guard.
    #[inline]
    fn knob_cpu_factor(&self, kind: CostKind) -> f64 {
        match &self.knobs {
            None => 1.0,
            Some(k) => match kind {
                CostKind::Pack | CostKind::Search => k.pack,
                CostKind::Compute => k.compute,
                _ => 1.0,
            },
        }
    }

    /// Wire serialization time for `bytes`, under the counterfactual wire
    /// factor when knobs are set. Scaling happens on the `f64` model cost
    /// *before* quantization, so a 1.0 factor is bitwise neutral.
    #[inline]
    fn wire_ns_scaled(&self, bytes: usize) -> f64 {
        let ns = self.cost.wire_ns(bytes);
        match &self.knobs {
            None => ns,
            Some(k) => ns * k.wire,
        }
    }

    /// Charge `ns` of *CPU* time (scaled by this rank's speed) to `kind`.
    pub fn charge_cpu(&mut self, kind: CostKind, ns: f64) {
        let ns = ns * self.knob_cpu_factor(kind);
        let span = SimTime::from_ns_f64(ns / self.speed);
        self.now += span;
        self.charge_span(kind, span);
    }

    /// Charge `ns` of *fixed-rate* time (wire or memory, not CPU-speed
    /// scaled) to `kind`.
    pub fn charge_fixed(&mut self, kind: CostKind, ns: f64) {
        let span = SimTime::from_ns_f64(ns);
        self.now += span;
        self.charge_span(kind, span);
    }

    /// Charge application compute time for `flops` floating point ops.
    pub fn compute_flops(&mut self, flops: u64) {
        let ns = self.cost.compute_ns(flops);
        self.charge_cpu(CostKind::Compute, ns);
    }

    /// Charge the cost of a local memcpy of `bytes` over `segments`
    /// contiguous pieces (hand-tuned packing, vector copies, ...).
    pub fn charge_copy(&mut self, kind: CostKind, bytes: usize, segments: u64) {
        let ns = self.cost.copy_ns(bytes) + self.cost.pack_segments_ns(segments);
        self.charge_cpu(kind, ns);
        self.stats.segments_packed += segments;
    }

    /// Charge the cost of walking `segments` datatype-signature entries
    /// while re-searching for a lost context.
    pub fn charge_search(&mut self, segments: u64) {
        let ns = self.cost.search_segments_ns(segments);
        self.charge_cpu(CostKind::Search, ns);
        self.stats.segments_searched += segments;
    }

    /// Send raw bytes to `dst` with `tag`.
    ///
    /// Charges the sender `o_send + jitter` of CPU plus the wire
    /// serialization time, and stamps the message with
    /// `departure + latency` as its arrival time. Sends are eager and never
    /// block (mailboxes are unbounded), which matches the "post sends in
    /// any order, receive later" usage the collective algorithms rely on.
    pub fn send_bytes(&mut self, dst: usize, tag: Tag, data: Vec<u8>) {
        let trace_start = self.now;
        let overhead = self.cost.send_overhead_ns + self.jitter_ns();
        self.charge_cpu(CostKind::Comm, overhead);
        self.charge_fixed(CostKind::Comm, self.wire_ns_scaled(data.len()));
        // A blocking send serializes on the CPU timeline; keep the NIC
        // timeline consistent for any nonblocking sends that follow.
        self.nic_free = self.nic_free.max(self.now);
        self.post(dst, tag, data, trace_start, self.now);
    }

    /// The one way a message leaves this rank: stats, correlation id,
    /// the [`EventKind::Send`] record, and delivery into the destination's
    /// mailbox. Its last byte is on the wire at `departure`, and it
    /// arrives one latency later (self-sends skip the wire).
    fn post(
        &mut self,
        dst: usize,
        tag: Tag,
        data: Vec<u8>,
        trace_start: SimTime,
        departure: SimTime,
    ) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        let bytes = data.len();
        let arrival = if dst == self.rank {
            departure
        } else {
            departure + SimTime::from_ns_f64(self.cost.latency_ns)
        };
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        let seq = self.send_seq;
        self.send_seq += 1;
        self.record(trace_start, EventKind::Send { dst, bytes, seq });
        let msg = NetMsg {
            src: self.rank,
            tag,
            data,
            arrival,
            seq,
        };
        // A send to a rank whose program has returned is an error in the
        // program being simulated, reported on the sender.
        if !self.sched.post(dst, msg) {
            let rank = self.rank;
            Violation::HungUp { rank, dst, tag }.raise();
        }
    }

    /// Blockingly receive a message matching `(src, tag)`; returns the
    /// payload and the actual source rank.
    ///
    /// If the message has not yet arrived in simulated time, the gap is
    /// charged as [`CostKind::Wait`]; the receive overhead is then charged
    /// as [`CostKind::Comm`].
    pub fn recv_bytes(&mut self, src: Option<usize>, tag: Tag) -> (Vec<u8>, usize) {
        let msg = self.fetch_msg(src, tag);
        let (data, src, _waited) = self.complete_recv_msg(msg);
        (data, src)
    }

    /// Blockingly take the envelope matching `(src, tag)` out of this
    /// rank's mailbox *without any simulated-time accounting* — the
    /// physical half of a receive. Pair with [`Rank::complete_recv_msg`],
    /// which does the accounting; [`Rank::recv_bytes`] is exactly that
    /// composition.
    ///
    /// "Blocking" means parking this rank's task with the scheduler until
    /// a matching envelope has been posted.
    pub fn fetch_msg(&mut self, src: Option<usize>, tag: Tag) -> NetMsg {
        loop {
            if let Some(msg) = self.sched.mailbox(|mb| mb.try_match(src, tag)) {
                return msg;
            }
            self.sched.park_blocked(src, tag, self.now);
        }
    }

    /// The accounting half of a receive: charge the residual wait (zero
    /// when the message arrived while this rank was computing — the
    /// overlap win), then the receive overhead; update stats and comm map
    /// and record the [`EventKind::Recv`]. Returns the payload, the source
    /// rank, and the wait residual.
    pub fn complete_recv_msg(&mut self, msg: NetMsg) -> (Vec<u8>, usize, SimTime) {
        let trace_start = self.now;
        let mut waited = SimTime::ZERO;
        if msg.arrival > self.now {
            waited = msg.arrival - self.now;
            self.now = msg.arrival;
            self.charge_span(CostKind::Wait, waited);
        }
        let overhead = self.cost.recv_overhead_ns + self.jitter_ns();
        self.charge_cpu(CostKind::Comm, overhead);
        let bytes = msg.data.len();
        self.stats.msgs_recvd += 1;
        self.stats.bytes_recvd += bytes as u64;
        if let Some(map) = &mut self.observed.comm_map {
            map.record_delivery(msg.src, bytes as u64);
        }
        let (src, seq) = (msg.src, msg.seq);
        self.record(
            trace_start,
            EventKind::Recv {
                src,
                bytes,
                seq,
                wait: waited,
            },
        );
        (msg.data, msg.src, waited)
    }

    /// Charge the CPU-side posting cost of a nonblocking send (`o_send`
    /// plus jitter — the same draw the blocking path makes) and return the
    /// simulated time the posting started, for the eventual trace span.
    /// Callers then reserve wire time with [`Rank::nic_reserve`] (possibly
    /// once per pipeline block) and post with [`Rank::isend_finish`];
    /// [`Rank::isend_bytes`] is the one-shot composition.
    pub fn isend_begin(&mut self) -> SimTime {
        let trace_start = self.now;
        let overhead = self.cost.send_overhead_ns + self.jitter_ns();
        self.charge_cpu(CostKind::Comm, overhead);
        trace_start
    }

    /// Reserve `bytes` of wire serialization on this rank's NIC timeline
    /// and return the simulated time the NIC will be done with them. The
    /// CPU clock does *not* advance — that is the point: the wire drains
    /// while the CPU packs the next pipeline block or computes. The NIC
    /// serializes reservations in order, starting no earlier than the
    /// current CPU time.
    pub fn nic_reserve(&mut self, bytes: usize) -> SimTime {
        let start = self.nic_free.max(self.now);
        self.nic_free = start + SimTime::from_ns_f64(self.wire_ns_scaled(bytes));
        self.nic_free
    }

    /// Post a nonblocking message whose wire serialization completes at
    /// `done` (from [`Rank::nic_reserve`]): stats, the send record, and
    /// delivery. The message arrives at `done` plus latency
    /// (self-sends skip the latency, as in the blocking path).
    pub fn isend_finish(
        &mut self,
        dst: usize,
        tag: Tag,
        data: Vec<u8>,
        trace_start: SimTime,
        done: SimTime,
    ) {
        self.post(dst, tag, data, trace_start, done);
    }

    /// Nonblocking eager send of a pre-packed payload: posting overhead on
    /// the CPU, wire serialization reserved on the NIC timeline. Returns
    /// the NIC completion time to pass to [`Rank::send_drain`] when the
    /// send must locally complete.
    pub fn isend_bytes(&mut self, dst: usize, tag: Tag, data: Vec<u8>) -> SimTime {
        let trace_start = self.isend_begin();
        let done = self.nic_reserve(data.len());
        self.isend_finish(dst, tag, data, trace_start, done);
        done
    }

    /// Complete a nonblocking send: block (charged as [`CostKind::Comm`],
    /// exactly like the blocking path's wire serialization) until the NIC
    /// has drained through `done`. Returns the residual actually waited —
    /// zero when the wire already drained under overlapped CPU work.
    pub fn send_drain(&mut self, done: SimTime) -> SimTime {
        if done <= self.now {
            return SimTime::ZERO;
        }
        let start = self.now;
        let residual = done - self.now;
        self.now = done;
        self.charge_span(CostKind::Comm, residual);
        self.record(start, EventKind::SendWait { residual });
        residual
    }

    /// Reset the simulated clock to zero (start of a timed benchmark
    /// phase). The NIC timeline resets with it — a clock epoch boundary
    /// must not leave old reservations in the new epoch's future. Does not
    /// touch stats; pair with [`Rank::take_stats`].
    pub fn reset_clock(&mut self) {
        self.now = SimTime::ZERO;
        self.nic_free = SimTime::ZERO;
    }

    /// Force the clock to at least `t` (used by synchronization helpers
    /// that learn a remote clock value, e.g. barrier exit).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            let wait = t - self.now;
            self.charge_span(CostKind::Wait, wait);
            self.now = t;
        }
    }
}

/// A finished rank's slot.
fn finished<T>(slot: Mutex<Option<T>>) -> T {
    let slot = slot.into_inner().unwrap_or_else(|e| e.into_inner());
    slot.expect("finished rank left no result")
}

/// What every `take_*` does: hand back what an observer gathered, leaving
/// `fresh` in its place; an observer that is off stays off, and `fresh` is
/// the empty answer.
fn take_observer<T>(slot: &mut Option<T>, fresh: T) -> T {
    match slot {
        Some(on) => std::mem::replace(on, fresh),
        None => fresh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = Cluster::new(ClusterConfig::uniform(1)).run(|r| (r.rank(), r.size()));
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    fn ranks_are_distinct_and_results_indexed_by_rank() {
        let out = Cluster::new(ClusterConfig::uniform(8)).run(|r| r.rank());
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ping_pong_advances_clocks_causally() {
        let out = Cluster::new(ClusterConfig::uniform(2)).run(|r| {
            if r.rank() == 0 {
                r.send_bytes(1, Tag(1), vec![0u8; 1200]);
                let (d, _) = r.recv_bytes(Some(1), Tag(2));
                assert_eq!(d.len(), 4);
            } else {
                let (d, _) = r.recv_bytes(Some(0), Tag(1));
                assert_eq!(d.len(), 1200);
                r.send_bytes(0, Tag(2), vec![1, 2, 3, 4]);
            }
            r.now()
        });
        // Rank 0's final clock must exceed one round trip of latency.
        assert!(out[0].as_ns() > 2 * 4_000);
        // And the receive on rank 0 happens after rank 1 sent.
        assert!(out[0] > out[1].saturating_sub(SimTime::from_ns(1)));
    }

    #[test]
    fn simulated_time_is_deterministic_across_runs() {
        let run = || {
            Cluster::new(ClusterConfig::paper_testbed(6)).run(|r| {
                let right = (r.rank() + 1) % r.size();
                let left = (r.rank() + r.size() - 1) % r.size();
                for i in 0..10u32 {
                    r.send_bytes(right, Tag(i), vec![i as u8; 64 * (r.rank() + 1)]);
                    let _ = r.recv_bytes(Some(left), Tag(i));
                }
                r.now()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wait_time_is_accounted() {
        let out = Cluster::new(ClusterConfig::uniform(2)).run(|r| {
            if r.rank() == 0 {
                // Do a lot of compute before sending, so rank 1 waits.
                r.compute_flops(1_000_000);
                r.send_bytes(1, Tag(0), vec![9; 8]);
                SimTime::ZERO
            } else {
                let _ = r.recv_bytes(Some(0), Tag(0));
                r.stats().wait
            }
        });
        assert!(out[1].as_ns() > 100_000, "receiver should have waited");
    }

    #[test]
    fn mixed_halves_slow_ranks_take_longer() {
        let cfg = ClusterConfig {
            n_ranks: 4,
            cost: CostModel::default(),
            speeds: SpeedProfile::MixedHalves {
                fast: 1.0,
                slow: 0.5,
            },
            seed: 1,
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
            sched_tie_seed: None,
            knobs: None,
            task_backend: None,
            observers: Observers::NONE,
        };
        let out = Cluster::new(cfg).run(|r| {
            r.compute_flops(1000);
            r.now()
        });
        assert_eq!(out[0], out[1]);
        assert_eq!(out[2], out[3]);
        assert!(out[2] > out[0]);
        assert_eq!(out[2].as_ns(), 2 * out[0].as_ns());
    }

    #[test]
    fn self_send_works() {
        let out = Cluster::new(ClusterConfig::uniform(1)).run(|r| {
            r.send_bytes(0, Tag(3), vec![42]);
            let (d, src) = r.recv_bytes(Some(0), Tag(3));
            (d[0], src)
        });
        assert_eq!(out[0], (42, 0));
    }

    #[test]
    fn eager_sends_do_not_block() {
        // Both ranks send first, then receive: would deadlock with
        // synchronous sends; must complete with eager buffering.
        let out = Cluster::new(ClusterConfig::uniform(2)).run(|r| {
            let peer = 1 - r.rank();
            r.send_bytes(peer, Tag(0), vec![r.rank() as u8; 100_000]);
            let (d, _) = r.recv_bytes(Some(peer), Tag(0));
            d[0]
        });
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn stats_track_messages_and_bytes() {
        let out = Cluster::new(ClusterConfig::uniform(2)).run(|r| {
            if r.rank() == 0 {
                r.send_bytes(1, Tag(0), vec![0; 500]);
                r.send_bytes(1, Tag(1), vec![0; 300]);
                (r.stats().msgs_sent, r.stats().bytes_sent)
            } else {
                let _ = r.recv_bytes(Some(0), Tag(0));
                let _ = r.recv_bytes(Some(0), Tag(1));
                (r.stats().msgs_recvd, r.stats().bytes_recvd)
            }
        });
        assert_eq!(out[0], (2, 800));
        assert_eq!(out[1], (2, 800));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        Cluster::new(ClusterConfig::uniform(1)).run(|r| {
            r.compute_flops(1000);
            let t = r.now();
            r.advance_to(SimTime::ZERO);
            assert_eq!(r.now(), t);
            r.advance_to(t + SimTime(500));
            assert_eq!(r.now(), t + SimTime(500));
        });
    }

    #[test]
    fn flight_recorder_is_always_on() {
        let out = Cluster::new(ClusterConfig::uniform(2)).try_run(|r| {
            // No tracing, no metrics: the recorder still sees traffic.
            if r.rank() == 0 {
                r.send_bytes(1, Tag(0), vec![0u8; 64]);
            } else {
                let _ = r.recv_bytes(Some(0), Tag(0));
            }
            r.record(
                r.now(),
                EventKind::Round {
                    op: "done".into(),
                    round: 0,
                },
            );
            r.recorder.recorded()
        });
        assert_eq!(out.results.unwrap(), vec![2, 2]); // send+round / recv+round
        let dump = render_dump(&out.recorders);
        assert!(dump.contains("send       dst=1 bytes=64"), "{dump}");
        assert!(dump.contains("recv       src=0 bytes=64"), "{dump}");
        assert!(dump.contains("round      done #0"), "{dump}");
    }

    #[test]
    fn recorder_capacity_is_configurable() {
        let caps = Cluster::new(ClusterConfig::uniform(1).with_recorder_capacity(32))
            .run(|r| r.recorder.capacity());
        assert_eq!(caps, vec![32]);
    }

    #[test]
    #[should_panic(expected = "flight-recorder capacity 65537 exceeds the cap of 65536 slots")]
    fn recorder_capacity_over_the_cap_is_rejected_at_construction() {
        Cluster::new(ClusterConfig::uniform(1).with_recorder_capacity(MAX_RECORDER_CAPACITY + 1));
    }

    /// A failed run's recorders are returned with its error: the victim's
    /// last send is in them.
    #[test]
    fn a_panicking_runs_recorders_hold_the_victims_last_send() {
        let out = Cluster::new(ClusterConfig::uniform(2)).try_run(|r| {
            if r.rank() == 1 {
                r.send_bytes(0, Tag(0), vec![1, 2, 3]);
                panic!("rank 1 exploded");
            }
            let _ = r.recv_bytes(Some(1), Tag(0));
            let _ = r.recv_bytes(Some(1), Tag(1));
        });
        let err = out.results.expect_err("rank 1 panicked");
        assert_eq!((err.rank(), err.to_string()), (1, "rank 1 exploded".into()));
        let dump = render_dump(&out.recorders);
        assert!(dump.contains("send       dst=0 bytes=3"), "{dump}");
        assert_eq!(out.sched.tasks, 2);
    }

    /// A rank's own panic keeps its rank and its payload, whatever type
    /// the payload has.
    #[test]
    fn a_rank_panic_keeps_its_rank_and_payload() {
        let out = Cluster::new(ClusterConfig::uniform(3)).try_run(|r| {
            if r.rank() >= 1 {
                std::panic::panic_any(r.rank() as u64 * 10);
            }
        });
        let Err(RunError::RankPanicked { rank, payload }) = out.results else {
            panic!("not a rank panic");
        };
        assert_eq!(rank, 1, "the lowest panicking rank");
        assert_eq!(payload.downcast_ref::<u64>(), Some(&10));
    }

    const TRACE: Observers = Observers {
        trace: true,
        ..Observers::NONE
    };

    /// A configured observer is on from the rank's first instruction and
    /// is harvested after the program; a history brings its comm map.
    #[test]
    fn the_configured_observers_are_harvested_after_the_program() {
        let history = Observers {
            history: true,
            ..Observers::NONE
        };
        let out = Cluster::new(ClusterConfig::uniform(2).observe(history)).try_run(|r| {
            let on = &r.observed;
            assert!(on.comm_map.is_some() && on.history.is_some());
            assert!(on.trace.is_none() && on.metrics.is_none());
            r.compute_flops(100);
            r.comm_epoch("allgatherv/ring");
        });
        let capture = out.capture;
        assert!(capture.traces.is_none() && capture.metrics.is_none());
        let epochs = &capture.comm_map.expect("the history's map").epochs;
        let points = &capture.history.expect("history").points;
        assert_eq!((epochs.len(), points.len()), (1, 1), "one epoch closed");
    }

    /// `run` hands back no capture, so it refuses to gather one.
    #[test]
    #[should_panic(expected = "Cluster::run drops a capture")]
    fn run_refuses_an_observed_config() {
        Cluster::new(ClusterConfig::uniform(1).observe(TRACE)).run(|_| ());
    }

    /// A harvest mid-run (a warm-up to drop) empties the observers and
    /// leaves them on; the final harvest holds only what came after.
    #[test]
    fn a_mid_run_harvest_drops_what_came_before() {
        let cluster = Cluster::new(ClusterConfig::uniform(1).observe(Observers::ALL));
        let (_, capture) = cluster
            .try_run(|r| {
                let round = |op: &'static str| EventKind::Round {
                    op: op.into(),
                    round: 0,
                };
                r.record(r.now(), round("warm-up"));
                let warm = r.harvest();
                assert_eq!(warm.trace.as_ref().map(Vec::len), Some(1));
                r.record(r.now(), round("measured"));
            })
            .unwrap();
        let traces = capture.traces.expect("traced");
        let kinds: Vec<_> = traces[0].iter().map(|e| e.kind.clone()).collect();
        let op = "measured".into();
        assert_eq!(kinds, [EventKind::Round { op, round: 0 }]);
    }

    /// A rank that panics in an observed run fails the run, and the run's
    /// capture is empty: the surviving ranks' parts are not merged.
    #[test]
    fn an_observed_runs_panic_leaves_an_empty_capture() {
        let out = Cluster::new(ClusterConfig::uniform(3).observe(Observers::ALL)).try_run(|r| {
            r.comm_epoch("allgatherv/ring");
            if r.rank() == 2 {
                panic!("rank 2 exploded");
            }
        });
        let err = out.results.expect_err("rank 2 panicked");
        assert!(matches!(err, RunError::RankPanicked { rank: 2, .. }));
        let c = out.capture;
        assert!(c.traces.is_none() && c.metrics.is_none());
        assert!(c.comm_map.is_none() && c.history.is_none());
    }

    fn pack_block(index: u64, sparse: bool, seek: u64) -> EventKind {
        EventKind::PackBlock {
            engine: "single-context".into(),
            index,
            sparse,
            seek,
            lookahead: 4,
            bytes: 48,
        }
    }

    #[test]
    fn record_feeds_the_recorder_and_the_trace_with_the_span_since_start() {
        let cfg = ClusterConfig::uniform(1).observe(TRACE);
        let out = Cluster::new(cfg).try_run(|r| {
            let t0 = r.now();
            r.charge_search(10);
            r.record(t0, pack_block(0, true, 10));
            r.record(r.now(), pack_block(1, false, 0));
            r.now()
        });
        let now = &out.results.unwrap()[0];
        let trace = &out.capture.traces.expect("traced")[0];
        let kinds: Vec<_> = trace.iter().map(|e| e.kind.clone()).collect();
        assert_eq!(kinds, [pack_block(0, true, 10), pack_block(1, false, 0)]);
        assert_eq!((trace[0].start, trace[0].end), (SimTime::ZERO, *now));
        assert!(trace[0].end > trace[0].start, "span covers the charge");
        assert_eq!(trace[1].duration(), SimTime::ZERO);
        let dump = render_dump(&out.recorders);
        assert!(
            dump.contains(
                "pack-block engine=single-context index=0 sparse seek=10 lookahead=4 bytes=48"
            ),
            "{dump}"
        );
        assert!(dump.contains("index=1 dense seek=0"), "{dump}");
    }

    #[test]
    fn an_observer_that_is_off_does_not_exist() {
        Cluster::new(ClusterConfig::uniform(2)).run(|r| {
            // Traffic, an event and an epoch with nothing enabled: only the
            // flight recorder sees them.
            let peer = 1 - r.rank();
            r.send_bytes(peer, Tag(0), vec![0u8; 64]);
            let _ = r.recv_bytes(Some(peer), Tag(0));
            r.record(r.now(), pack_block(0, true, 0));
            r.comm_epoch("allgatherv/ring");
            assert_eq!(r.recorder.recorded(), 3);
            // Taking from an absent observer answers empty...
            assert!(r.take_trace().is_empty());
            assert!(r.take_metrics().is_empty());
            let map = r.take_comm_map();
            assert_eq!((map.rank(), map.size()), (r.rank(), 2));
            assert!(map.epochs().is_empty());
            assert_eq!(crate::merge_comm_maps(&[map]).total.total_msgs(), 0);
            let history = r.take_history();
            assert_eq!((history.rank(), history.size()), (r.rank(), 2));
            assert!(crate::merge_histories(&[history]).points.is_empty());
            // ...and does not switch it on.
            assert!(r.observed.trace.is_none() && r.observed.metrics.is_none());
            assert!(r.observed.comm_map.is_none() && r.observed.history.is_none());
            assert!(r.metrics_mut().is_none());

            // The history derives from the comm map, so it brings it along
            // — and nothing else.
            r.enable_history();
            assert!(r.observed.comm_map.is_some() && r.observed.history.is_some());
            assert!(r.observed.trace.is_none() && r.observed.metrics.is_none());
            // Taking from an observer that is on leaves it on.
            r.comm_epoch("allgatherv/ring");
            let epochs = |h: RankHistory| crate::merge_histories(&[h]).points.len();
            assert_eq!(epochs(r.take_history()), 1);
            assert!(r.observed.history.is_some() && epochs(r.take_history()) == 0);
        });
    }

    #[test]
    fn isend_plus_drain_matches_blocking_send_exactly() {
        // For a contiguous payload with no overlapped work, the
        // nonblocking path must charge the same time as the blocking one:
        // overhead on the CPU, then the full wire as the drain residual.
        let run = |nonblocking: bool| {
            Cluster::new(ClusterConfig::uniform(2)).run(move |r| {
                if r.rank() == 0 {
                    if nonblocking {
                        let done = r.isend_bytes(1, Tag(0), vec![7u8; 4096]);
                        r.send_drain(done);
                    } else {
                        r.send_bytes(1, Tag(0), vec![7u8; 4096]);
                    }
                } else {
                    let _ = r.recv_bytes(Some(0), Tag(0));
                }
                (r.now(), r.stats().comm, r.stats().wait)
            })
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn overlapped_compute_hides_the_wire_and_the_wait() {
        // Sender: isend, compute while the NIC drains, then drain (free).
        // Receiver: compute past the arrival, then receive (wait ~0).
        let out = Cluster::new(ClusterConfig::uniform(2)).run(|r| {
            if r.rank() == 0 {
                let done = r.isend_bytes(1, Tag(0), vec![0u8; 1 << 20]);
                r.compute_flops(100_000_000); // far longer than the wire
                let residual = r.send_drain(done);
                assert_eq!(residual, SimTime::ZERO, "wire hid under compute");
                r.now()
            } else {
                r.compute_flops(100_000_000);
                let msg = r.fetch_msg(Some(0), Tag(0));
                let (_, _, waited) = r.complete_recv_msg(msg);
                assert_eq!(waited, SimTime::ZERO, "message arrived under compute");
                r.now()
            }
        });
        assert!(out[0] > SimTime::ZERO && out[1] > SimTime::ZERO);
    }

    #[test]
    fn nic_serializes_reservations_in_order() {
        Cluster::new(ClusterConfig::uniform(2)).run(|r| {
            if r.rank() == 0 {
                let d1 = r.isend_bytes(1, Tag(1), vec![0u8; 64 * 1024]);
                let d2 = r.isend_bytes(1, Tag(2), vec![0u8; 64 * 1024]);
                assert!(d2 > d1, "second message queues behind the first");
                r.send_drain(d2);
                assert!(r.now() >= d2);
                assert_eq!(r.send_drain(d1), SimTime::ZERO, "already drained");
            } else {
                let _ = r.recv_bytes(Some(0), Tag(1));
                let _ = r.recv_bytes(Some(0), Tag(2));
            }
        });
    }

    #[test]
    fn send_drain_and_irecv_post_hit_recorder_and_trace() {
        let run = Cluster::new(ClusterConfig::uniform(2).observe(TRACE)).try_run(|r| {
            if r.rank() == 0 {
                let done = r.isend_bytes(1, Tag(0), vec![0u8; 4096]);
                r.send_drain(done);
            } else {
                let posted = EventKind::IrecvPost {
                    src: Some(0),
                    tag: 0,
                };
                r.record(r.now(), posted);
                let msg = r.fetch_msg(Some(0), Tag(0));
                let _ = r.complete_recv_msg(msg);
            }
        });
        let out = run.capture.traces.expect("traced");
        assert!(out[0].iter().any(
            |e| matches!(e.kind, EventKind::SendWait { residual } if residual > SimTime::ZERO)
        ));
        assert!(out[1].iter().any(|e| matches!(
            e.kind,
            EventKind::IrecvPost {
                src: Some(0),
                tag: 0
            }
        )));
        let dump = render_dump(&run.recorders);
        assert!(dump.contains("send-wait  residual_ns="), "{dump}");
        assert!(dump.contains("irecv      src=0 tag=0"), "{dump}");
    }

    #[test]
    fn reset_clock_zeroes_time_only() {
        Cluster::new(ClusterConfig::uniform(1)).run(|r| {
            r.compute_flops(10_000);
            assert!(r.now() > SimTime::ZERO);
            r.reset_clock();
            assert_eq!(r.now(), SimTime::ZERO);
            assert!(r.stats().compute > SimTime::ZERO);
        });
    }

    /// The portable handoff task backend and the asm fiber backend must
    /// produce bitwise-identical simulated results: same event-loop
    /// policy, different suspend/resume primitive (the bench crate
    /// proves it on full workloads).
    #[cfg(all(target_arch = "x86_64", unix))]
    #[test]
    fn fiber_and_handoff_task_backends_agree() {
        let run = |tb: TaskBackend| {
            Cluster::new(ClusterConfig::paper_testbed(6).with_task_backend(tb)).run(|r| {
                let right = (r.rank() + 1) % r.size();
                let left = (r.rank() + r.size() - 1) % r.size();
                for i in 0..8u32 {
                    r.compute_flops(10_000 * (r.rank() as u64 + 1));
                    r.send_bytes(right, Tag(i), vec![i as u8; 256 * (r.rank() + 1)]);
                    let (d, src) = r.recv_bytes(Some(left), Tag(i));
                    assert_eq!((d[0], src), (i as u8, left));
                }
                (r.now(), r.stats().wait, r.stats().comm, r.stats().compute)
            })
        };
        assert_eq!(run(TaskBackend::Fiber), run(TaskBackend::Handoff));
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message")
    }

    /// Two ranks blocked on receives nobody will send: the event
    /// scheduler proves the negative (no runnable rank, no message in
    /// flight) and panics instead of hanging, naming what each rank
    /// waits on.
    #[test]
    fn event_backend_detects_deadlock() {
        let res = std::panic::catch_unwind(|| {
            Cluster::new(ClusterConfig::uniform(2)).run(|r| {
                let peer = 1 - r.rank();
                let _ = r.recv_bytes(Some(peer), Tag(0));
            })
        });
        let payload = res.expect_err("deadlocked cluster must not return");
        let msg = panic_message(payload);
        assert_eq!(
            msg,
            "simulated deadlock: every rank is parked and no message can arrive; \
             rank 0 waits on src 1 tag 0, rank 1 waits on src 0 tag 0"
        );
    }

    /// Rank 0 sends rank 1 a message tagged `tag` after rank 1's program
    /// has returned (its one message to rank 0 was its last act).
    fn send_after_hang_up(r: &mut Rank, tag: Tag) {
        if r.rank() == 0 {
            let _ = r.recv_bytes(Some(1), Tag(0));
            r.send_bytes(1, tag, vec![1]);
        } else {
            r.send_bytes(0, Tag(0), vec![1]);
        }
    }

    /// A send to a rank whose program has already returned is an error
    /// in the simulated program, reported on the sender.
    #[test]
    fn send_to_finished_rank_panics() {
        let out =
            Cluster::new(ClusterConfig::uniform(2)).try_run(|r| send_after_hang_up(r, Tag(0)));
        let Err(RunError::Violation { rank, violation }) = out.results else {
            panic!("send to an exited rank must not succeed");
        };
        let want = Violation::HungUp {
            rank: 0,
            dst: 1,
            tag: Tag(0),
        };
        assert_eq!((rank, violation), (0, want));
    }

    /// The same send, as data: the sender's violation names both parties
    /// and the tag.
    #[test]
    fn a_send_to_a_finished_rank_names_the_sender_destination_and_tag() {
        let out =
            Cluster::new(ClusterConfig::uniform(2)).try_run(|r| send_after_hang_up(r, Tag(5)));
        let err = out.results.expect_err("rank 1 has returned");
        let want = Violation::HungUp {
            rank: 0,
            dst: 1,
            tag: Tag(5),
        };
        assert_eq!(
            want.to_string(),
            "destination rank 1 hung up: rank 0 sent it tag 5 after its program returned"
        );
        assert_eq!(err.to_string(), want.to_string());
        let RunError::Violation { rank, violation } = err else {
            panic!("{err:?}");
        };
        assert_eq!((rank, violation), (0, want));
    }

    /// `Cluster::run` raises a violation as a panic whose payload is the
    /// violation's text, as a `String`.
    #[test]
    fn run_panics_with_a_violations_text() {
        let res = std::panic::catch_unwind(|| {
            Cluster::new(ClusterConfig::uniform(2)).run(|r| send_after_hang_up(r, Tag(5)))
        });
        let payload = res.expect_err("a violating run must not return");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("destination rank 1 hung up: rank 0 sent it tag 5 after its program returned")
        );
    }

    /// A rank that exits while a peer still waits on it is reported as a
    /// disconnect, not as a deadlock.
    #[test]
    fn event_backend_reports_peer_disconnect() {
        let res = std::panic::catch_unwind(|| {
            Cluster::new(ClusterConfig::uniform(2)).run(|r| {
                if r.rank() == 0 {
                    let _ = r.recv_bytes(Some(1), Tag(0));
                }
            })
        });
        let payload = res.expect_err("orphaned receive must not return");
        let msg = panic_message(payload);
        assert_eq!(
            msg,
            "peer rank disconnected while a receive was pending; rank 0 waits on src 1 tag 0"
        );
    }

    /// Each rank of a three-rank ring first receives from its right
    /// neighbour: the wait-for cycle is the whole ring.
    #[test]
    fn a_ring_deadlock_yields_its_wait_for_cycle() {
        let out = Cluster::new(ClusterConfig::uniform(3)).try_run(|r| {
            let right = (r.rank() + 1) % r.size();
            let _ = r.recv_bytes(Some(right), Tag(4));
        });
        let Err(RunError::Deadlock { waits, cycle }) = out.results else {
            panic!("not a deadlock");
        };
        assert_eq!(cycle, [0, 1, 2]);
        let edges: Vec<_> = waits.iter().map(|w| (w.rank, w.src, w.tag)).collect();
        assert_eq!(
            edges,
            [
                (0, Some(1), Tag(4)),
                (1, Some(2), Tag(4)),
                (2, Some(0), Tag(4))
            ]
        );
    }

    #[test]
    fn a_disconnect_yields_the_orphaned_wait() {
        let out = Cluster::new(ClusterConfig::uniform(2)).try_run(|r| {
            if r.rank() == 0 {
                let _ = r.recv_bytes(Some(1), Tag(0));
            }
        });
        let Err(RunError::Disconnected { waits }) = out.results else {
            panic!("not a disconnect");
        };
        let wait = crate::sched::ParkedWait {
            rank: 0,
            src: Some(1),
            tag: Tag(0),
        };
        assert_eq!(waits, [wait]);
    }

    /// One token passed once around the ring of all ranks.
    fn pass_token(r: &mut Rank) -> usize {
        let (me, n) = (r.rank(), r.size());
        if me > 0 {
            let _ = r.recv_bytes(Some(me - 1), Tag(0));
        }
        r.send_bytes((me + 1) % n, Tag(0), vec![me as u8]);
        if me == 0 {
            let _ = r.recv_bytes(Some(n - 1), Tag(0));
        }
        me
    }

    fn token_ring(n: usize) -> RunOutput<usize> {
        Cluster::new(ClusterConfig::uniform(n)).try_run(pass_token)
    }

    /// Runs on two OS threads at once each see their own survey, in the
    /// output and in the thread's `last_sched_stats`.
    #[test]
    fn concurrent_runs_on_two_threads_keep_their_own_stats() {
        let threads: Vec<_> = [3usize, 5]
            .into_iter()
            .map(|n| {
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        assert_eq!(token_ring(n).sched.tasks, n);
                        Cluster::new(ClusterConfig::uniform(n)).run(pass_token);
                        assert_eq!(last_sched_stats().map(|s| s.tasks), Some(n));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("a thread's runs saw another's stats");
        }
    }

    /// `run` keeps its survey for the thread it ran on, and only there.
    #[test]
    fn last_sched_stats_on_a_fresh_thread_is_that_threads_run() {
        let expected = token_ring(4).sched;
        let seen = std::thread::spawn(|| {
            assert_eq!(last_sched_stats(), None, "no run on this thread yet");
            Cluster::new(ClusterConfig::uniform(4)).run(pass_token);
            last_sched_stats()
        })
        .join()
        .unwrap();
        assert_eq!(seen, Some(expected));
    }
}
