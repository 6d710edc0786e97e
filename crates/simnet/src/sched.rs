//! The event-driven rank scheduler: ranks as cooperatively scheduled
//! resumable tasks over the simulated clock.
//!
//! Each rank runs on a userspace *fiber* (a heap-allocated stack plus a
//! ~20-instruction context switch) or, off x86-64 unix, on a parked OS
//! thread handed a baton; a single scheduler drives all of them and
//! exactly one rank runs at any instant. That costs no kernel scheduling
//! per message, scales to thousands of ranks, and keeps host scheduling
//! noise out of the run entirely.
//!
//! ## The event loop
//!
//! The scheduler keeps a ready queue ordered by `(simulated time at
//! park, rank id)` and always resumes the minimum entry — the rank
//! furthest behind in simulated time. A resumed rank runs *until it
//! parks itself*: a receive that finds no matching envelope calls
//! `EventHandle::park_blocked`, which records the `(src, tag)`
//! pattern the rank waits for and switches back to the scheduler. That
//! is the only way a rank parks.
//!
//! ## Delivery
//!
//! The scheduler's control block owns every rank's [`Mailbox`]. Senders
//! never block: `EventHandle::post` enters the control block once,
//! appends the envelope to the destination's mailbox and, if the
//! destination is parked on a pattern the envelope covers, moves it onto
//! the ready queue right there. A post is the only thing that wakes a
//! parked rank. The block has no lock: only one party — the scheduler
//! or the one running rank — is ever awake, so every access is already
//! serialized (see `EventCtl::with`).
//!
//! ## Determinism
//!
//! The loop consults nothing but simulated time, rank ids and the
//! posting order produced by the ranks themselves, and only one rank
//! runs at a time, so physical message order — and with it the whole
//! cluster run — is a deterministic function of the program; host
//! thread interleaving has no way in. For tie-break robustness testing,
//! `drive` accepts a seed that shuffles which of several ready ranks
//! *with equal simulated time* runs first; results must not depend on
//! it.
//!
//! ## Stalls
//!
//! Because only a post wakes a parked rank, and only a running rank
//! posts, an empty ready queue with a rank still live *is* a deadlock:
//! nothing can ever run again. The scheduler names it instead of
//! hanging — a [`RunError`] holding each parked rank's [`ParkedWait`],
//! its edge in the wait-for graph — then *poisons* the run: every parked
//! rank's next park panics, unwinding its fiber so stacks and results
//! drop cleanly. A rank's own panic outranks the stall it caused, and
//! the lowest-numbered panicking rank is the one reported, so the
//! failure is attributed to the same rank on every run.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mailbox::{Mailbox, NetMsg, Tag};
use crate::time::SimTime;

/// Smallest fiber stack the scheduler will allocate; requests below it
/// are rounded up.
pub const MIN_STACK_BYTES: usize = 64 * 1024;

/// Most parked ranks a stall report names one by one; the rest are
/// counted.
const STALL_NAMED_RANKS: usize = 8;

/// Cap on poison resumes per task while draining a failed run, so a
/// rank that swallows the poison panic cannot wedge the scheduler; a
/// task still live after this many attempts leaks its stack.
const MAX_DRAIN_RESUMES: u32 = 16;

// ---------------------------------------------------------------------------
// Park/unpark protocol shared between ranks and the scheduler
// ---------------------------------------------------------------------------

/// A parked rank's edge in the wait-for graph: `rank` waits in a
/// receive for an envelope matching `(src, tag)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParkedWait {
    pub rank: usize,
    /// `None` = any source.
    pub src: Option<usize>,
    pub tag: Tag,
}

impl fmt::Display for ParkedWait {
    /// `rank 0 waits on src 1 tag 0`; an any-source wait prints `src any`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} waits on ", self.rank)?;
        match self.src {
            Some(src) => write!(f, "src {src}")?,
            None => f.write_str("src any")?,
        }
        write!(f, " tag {}", self.tag.0)
    }
}

/// A misuse of the message layer that the rank noticing it names: ranks
/// that disagree about what they exchange, or a receive that cannot hold
/// what arrived. Raised with [`Violation::raise`] on that rank; a run that
/// raises one fails with [`RunError::Violation`]. `Display` is the text
/// [`crate::Cluster::run`] panics with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A receive on `rank` cannot hold what arrived: `bytes` bytes of
    /// `what` overflow the `room` bytes of `into`. The `"message"` must
    /// fit the `"receive type"` (`count` × its size), and the `"receive
    /// buffer"` must hold the message (contiguous type) or the
    /// `"receive type"`'s span.
    RecvOverflow {
        rank: usize,
        what: &'static str,
        into: &'static str,
        bytes: usize,
        room: usize,
    },
    /// `rank` expected `expected` bytes from `peer` and got `got` — the
    /// sign that the two passed different counts, types or plans. `check`
    /// names the exchange; `step` is allgatherv's algorithm and step.
    ByteCount {
        check: &'static str,
        rank: usize,
        peer: usize,
        expected: usize,
        got: usize,
        step: Option<(&'static str, u32)>,
    },
    /// A scatter plan fills destination `index` more than once: `rank`
    /// owns it and would receive it from each rank in `from`.
    RepeatedDestination {
        index: usize,
        rank: usize,
        from: Vec<usize>,
    },
    /// `rank` sent `dst` a message tagged `tag` after `dst`'s program had
    /// returned.
    HungUp { rank: usize, dst: usize, tag: Tag },
}

impl Violation {
    /// Unwind the calling rank with `self` as the payload. Cold and out
    /// of line, so a check costs its caller one comparison; unwinding
    /// with `resume_unwind` skips the panic hook's message, since the
    /// run's error carries the text.
    #[cold]
    #[inline(never)]
    pub fn raise(self) -> ! {
        std::panic::resume_unwind(Box::new(self))
    }

    /// Raise a [`Violation::ByteCount`] unless `got == expected`.
    #[inline]
    pub fn expect_bytes(
        check: &'static str,
        step: Option<(&'static str, u32)>,
        (rank, peer): (usize, usize),
        (expected, got): (usize, usize),
    ) {
        if got != expected {
            let v = Violation::ByteCount {
                check,
                rank,
                peer,
                expected,
                got,
                step,
            };
            v.raise();
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::RecvOverflow {
                what,
                into,
                bytes,
                room,
                ..
            } => {
                write!(
                    f,
                    "{what} of {bytes} bytes overflows {into} of {room} bytes"
                )
            }
            Violation::ByteCount {
                check,
                rank,
                peer,
                expected,
                got,
                step,
            } => {
                let at = step.map_or(String::new(), |(algo, n)| format!(" in {algo} step {n}"));
                write!(
                    f,
                    "{check} mismatch: rank {rank} expected {expected} bytes from rank {peer}{at}, \
                     got {got}"
                )
            }
            Violation::RepeatedDestination { index, rank, from } => write!(
                f,
                "scatter destination {index} is named by more than one pair: rank {rank} \
                 would receive it from ranks {from:?}"
            ),
            Violation::HungUp { rank, dst, tag } => write!(
                f,
                "destination rank {dst} hung up: rank {rank} sent it tag {} \
                 after its program returned",
                tag.0
            ),
        }
    }
}

/// Why a cluster run did not complete — what [`crate::Cluster::try_run`]
/// returns in place of the results. `Display` is the text
/// [`crate::Cluster::run`] panics with.
pub enum RunError {
    /// The lowest-numbered panicking rank raised a [`Violation`]. It
    /// outranks any stall it left behind, as a panic does.
    Violation { rank: usize, violation: Violation },
    /// The lowest-numbered rank whose program panicked, with its panic
    /// payload. It outranks any stall the panic left behind.
    RankPanicked {
        rank: usize,
        payload: Box<dyn Any + Send>,
    },
    /// Every live rank is parked and no message can arrive. `waits` holds
    /// each parked rank's edge in rank order; `cycle` is the wait-for
    /// cycle reached from the lowest parked rank along specific-source
    /// edges, empty when a wildcard receive breaks the chain.
    Deadlock {
        waits: Vec<ParkedWait>,
        cycle: Vec<usize>,
    },
    /// A rank finished while others were still parked, perhaps on it.
    Disconnected { waits: Vec<ParkedWait> },
}

impl RunError {
    /// The rank the failure is attributed to: the panicking rank, else
    /// the lowest parked one.
    pub fn rank(&self) -> usize {
        match self {
            RunError::Violation { rank, .. } | RunError::RankPanicked { rank, .. } => *rank,
            RunError::Deadlock { waits, .. } | RunError::Disconnected { waits } => {
                waits.first().map_or(0, |w| w.rank)
            }
        }
    }
}

impl fmt::Display for RunError {
    /// A violation's or a panic's own message; a stall's kind, then each
    /// parked rank's wait, the first eight by name and the rest counted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let waits = match self {
            RunError::Violation { violation, .. } => return violation.fmt(f),
            RunError::RankPanicked { rank, payload } => {
                return match (
                    payload.downcast_ref::<String>(),
                    payload.downcast_ref::<&str>(),
                ) {
                    (Some(text), _) => f.write_str(text),
                    (None, Some(text)) => f.write_str(text),
                    (None, None) => write!(f, "rank {rank} panicked"),
                };
            }
            RunError::Deadlock { waits, .. } => {
                f.write_str("simulated deadlock: every rank is parked and no message can arrive")?;
                waits
            }
            RunError::Disconnected { waits } => {
                f.write_str("peer rank disconnected while a receive was pending")?;
                waits
            }
        };
        for (i, wait) in waits.iter().take(STALL_NAMED_RANKS).enumerate() {
            let sep = if i == 0 { "; " } else { ", " };
            write!(f, "{sep}{wait}")?;
        }
        if waits.len() > STALL_NAMED_RANKS {
            write!(f, ", and {} more", waits.len() - STALL_NAMED_RANKS)?;
        }
        Ok(())
    }
}

impl fmt::Debug for RunError {
    /// The text, naming the failing rank; a deadlock adds its cycle.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run failed on rank {}: {self}", self.rank())?;
        match self {
            RunError::Deadlock { cycle, .. } => write!(f, " (cycle {cycle:?})"),
            _ => Ok(()),
        }
    }
}

impl std::error::Error for RunError {}

/// Scheduler-visible state of one rank.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Running, on the ready queue, or not yet started.
    Runnable,
    /// Parked in a blocking receive: wake only on a matching post (or
    /// poison).
    Blocked { wait: ParkedWait, at: SimTime },
    /// The rank's program returned or panicked; a send to it is an
    /// error in the program being simulated.
    Finished,
}

struct CtlInner {
    slots: Vec<Slot>,
    /// Per rank: the envelopes posted to it and not yet received.
    mailboxes: Vec<Mailbox>,
    /// Runnable ranks waiting for their turn, by `(park time, rank)`.
    ready: BTreeSet<(SimTime, usize)>,
    /// When set, every park attempt panics with this message instead of
    /// suspending — how the scheduler unwinds ranks after a peer died
    /// or the run deadlocked.
    poison: Option<String>,
    /// Introspection: blocking parks taken ([`EventHandle::park_blocked`]).
    parks_blocked: u64,
    /// Introspection: parked ranks woken by [`EventHandle::post`].
    deposit_wakes: u64,
    /// Introspection: the most envelopes one mailbox has held.
    max_mailbox_depth: usize,
}

/// Shared scheduler state: one per [`drive`] invocation, visible to
/// every rank of that cluster through its [`EventHandle`].
pub(crate) struct EventCtl {
    inner: UnsafeCell<CtlInner>,
    /// Set while a [`EventCtl::with`] closure runs, so a closure that
    /// calls back into the scheduler panics instead of aliasing `inner`.
    entered: AtomicBool,
}

// SAFETY: `inner` is only reached through `with`, and no two `with`s
// ever overlap. Exactly one party is awake at any instant: the
// scheduler, or the one task it resumed, and a rank's `EventHandle` is
// only used from inside that rank's own task. Under
// `TaskBackend::Fiber` all of them run on the one OS thread that called
// `drive`, switching only at `suspend`/`resume`, never inside a `with`.
// Under `TaskBackend::Handoff` each task is its own OS thread, but the
// turn passes only through the baton's `Mutex<Turn>` + `Condvar`: the
// side giving it up releases the mutex after its last `with`, and the
// side taking it acquires the mutex before its first, so every access
// happens-after the previous one. `CtlInner` is plain owned data
// (`Send`), so handing it between those threads is sound. `entered` is an
// atomic, `Sync` on its own; it catches re-entry on the one awake
// thread, publishes nothing, and is not, and need not be, a lock.
unsafe impl Sync for EventCtl {}

impl EventCtl {
    pub(crate) fn new(n_ranks: usize) -> Self {
        EventCtl {
            inner: UnsafeCell::new(CtlInner {
                slots: vec![Slot::Runnable; n_ranks],
                mailboxes: (0..n_ranks).map(|_| Mailbox::default()).collect(),
                ready: (0..n_ranks).map(|r| (SimTime::ZERO, r)).collect(),
                poison: None,
                parks_blocked: 0,
                deposit_wakes: 0,
                max_mailbox_depth: 0,
            }),
            entered: AtomicBool::new(false),
        }
    }

    /// Run `f` on the control block — the only way in. `f` must not
    /// call back into the scheduler (post, look at a mailbox, park):
    /// that panics rather than hand out a second `&mut`.
    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut CtlInner) -> R) -> R {
        /// Clears the flag on the way out, unwinding included, so a
        /// panic inside `f` is not misreported as re-entry later.
        struct Exit<'a>(&'a AtomicBool);
        impl Drop for Exit<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Relaxed);
            }
        }
        assert!(
            !self.entered.load(Ordering::Relaxed),
            "scheduler control block re-entered: a closure run on it called back into the scheduler"
        );
        self.entered.store(true, Ordering::Relaxed);
        let _exit = Exit(&self.entered);
        // SAFETY: no other `with` is running (see `unsafe impl Sync`
        // above; the assert rules out this thread's own), so this is
        // the only reference to `inner` until `f` returns.
        f(unsafe { &mut *self.inner.get() })
    }
}

/// A rank's side of the scheduler: its mailbox, posting to its peers'
/// mailboxes, and the park/unpark protocol. Held by
/// [`crate::runtime::Rank`].
#[derive(Clone)]
pub(crate) struct EventHandle {
    ctl: Arc<EventCtl>,
    shared: Arc<TaskShared>,
    rank: usize,
}

impl EventHandle {
    pub(crate) fn new(ctl: Arc<EventCtl>, shared: Arc<TaskShared>, rank: usize) -> Self {
        EventHandle { ctl, shared, rank }
    }

    /// Park in a blocking receive until an envelope matching
    /// `(src, tag)` is posted (the caller re-checks its mailbox on return
    /// and parks again on a false wake).
    #[inline]
    pub(crate) fn park_blocked(&self, src: Option<usize>, tag: Tag, at: SimTime) {
        let wait = ParkedWait {
            rank: self.rank,
            src,
            tag,
        };
        let poison = self.ctl.with(|inner| {
            if inner.poison.is_none() {
                inner.parks_blocked += 1;
                inner.slots[self.rank] = Slot::Blocked { wait, at };
            }
            inner.poison.clone()
        });
        if let Some(msg) = poison {
            panic!("{msg}");
        }
        // The switch happens outside `with`: the scheduler enters the
        // control block on its side while this task is suspended.
        self.shared.suspend();
        if let Some(msg) = self.ctl.with(|inner| inner.poison.clone()) {
            panic!("{msg}");
        }
    }

    /// Deliver `msg` to rank `dst`: append it to the destination's
    /// mailbox and, if the destination is parked on a pattern the
    /// envelope covers, make it runnable — in one visit to the control
    /// block. Only one rank runs at a time, so nothing can change the
    /// destination's slot between this post and the scheduler's next
    /// decision. A self-send only queues: a running rank is not parked.
    /// Returns `false`, delivering nothing, when `dst` has finished.
    #[inline]
    pub(crate) fn post(&self, dst: usize, msg: NetMsg) -> bool {
        self.ctl.with(|inner| {
            if matches!(inner.slots[dst], Slot::Finished) {
                return false;
            }
            if let Slot::Blocked { wait, at } = inner.slots[dst] {
                if msg.matches(wait.src, wait.tag) {
                    inner.slots[dst] = Slot::Runnable;
                    inner.ready.insert((at, dst));
                    inner.deposit_wakes += 1;
                }
            }
            let mailbox = &mut inner.mailboxes[dst];
            mailbox.push(msg);
            inner.max_mailbox_depth = inner.max_mailbox_depth.max(mailbox.len());
            true
        })
    }

    /// Run `f` on this rank's mailbox, inside the control block (so `f`
    /// must not post, park or look at a mailbox itself).
    pub(crate) fn mailbox<R>(&self, f: impl FnOnce(&mut Mailbox) -> R) -> R {
        self.ctl.with(|inner| f(&mut inner.mailboxes[self.rank]))
    }
}

// ---------------------------------------------------------------------------
// Task backends and scheduler introspection
// ---------------------------------------------------------------------------

/// Which suspend/resume primitive carries the ranks of an event-driven
/// run. The *scheduling policy* — and therefore every simulated
/// result — is identical across backends; only the context-switch
/// mechanism and its cost differ (differentially tested at the
/// workspace level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskBackend {
    /// Stackful userspace fibers over a hand-written SysV context
    /// switch — x86_64 unix only, and the default there.
    Fiber,
    /// Portable condvar-baton handoff: one parked OS thread per task,
    /// exactly one of {scheduler, some task} ever runnable. The only
    /// backend off x86_64 unix; selectable everywhere so the asm
    /// switch can be differentially tested against it.
    Handoff,
}

impl TaskBackend {
    /// The fastest backend this target supports.
    pub fn default_for_target() -> TaskBackend {
        if cfg!(all(target_arch = "x86_64", unix)) {
            TaskBackend::Fiber
        } else {
            TaskBackend::Handoff
        }
    }

    /// Override from the `NCD_SCHED_TASKS` environment variable
    /// (`fiber` | `handoff`); `None` when unset. Any other value panics
    /// rather than silently running — and timing — the wrong primitive.
    pub fn from_env() -> Option<TaskBackend> {
        std::env::var_os("NCD_SCHED_TASKS").map(|v| Self::parse_env(&v.to_string_lossy()))
    }

    fn parse_env(value: &str) -> TaskBackend {
        match value {
            "fiber" => TaskBackend::Fiber,
            "handoff" => TaskBackend::Handoff,
            other => panic!("NCD_SCHED_TASKS={other:?} is not one of \"fiber\", \"handoff\""),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            TaskBackend::Fiber => "fiber",
            TaskBackend::Handoff => "handoff",
        }
    }
}

/// Buckets in the [`SchedStats::ready_depth_log2`] histogram; the last
/// bucket absorbs every depth `>= 2^(DEPTH_BUCKETS-1)`.
pub const DEPTH_BUCKETS: usize = 16;

/// Counters and distributions from one cluster run — the
/// scheduler observing itself, so a bench can report how hard the
/// event loop worked (switch counts, queue pressure, stack use)
/// alongside the simulated results it produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SchedStats {
    /// Ranks driven.
    pub tasks: usize,
    /// Label of the task backend that carried them
    /// (`"fiber"` / `"handoff"`).
    pub backend: &'static str,
    /// Context switches into a task (clean scheduling decisions; the
    /// poison resumes of a failed run's drain are not counted).
    pub resumes: u64,
    /// Blocking parks taken (a blocking receive found no envelope).
    pub parks_blocked: u64,
    /// Parked ranks woken by a matching post.
    pub deposit_wakes: u64,
    /// log₂ histogram of ready-queue depth, sampled at every resume
    /// *before* the pop: bucket `i` counts decisions taken with
    /// `2^i <= depth < 2^(i+1)`, so the buckets sum to `resumes`.
    pub ready_depth_log2: [u64; DEPTH_BUCKETS],
    /// Sum of the sampled depths (`mean_depth` = this / `resumes`).
    pub depth_sum: u64,
    /// High-water mark of fiber stack bytes in use at a park, across
    /// all tasks and parks. 0 under the handoff backend — OS thread
    /// stacks are opaque.
    pub max_stack_bytes: usize,
    /// High-water mark of envelopes queued in one mailbox, across all
    /// ranks and posts: how far an eager sender ran ahead of a late
    /// receiver. A drained queue deeper than
    /// [`crate::mailbox::RELEASE_FLOOR`] gave its buffer back.
    pub max_mailbox_depth: usize,
}

impl SchedStats {
    fn observe_depth(&mut self, depth: usize) {
        debug_assert!(depth > 0, "depth sampled before a successful pop");
        self.depth_sum += depth as u64;
        let bucket = (usize::BITS - 1 - depth.leading_zeros()) as usize;
        self.ready_depth_log2[bucket.min(DEPTH_BUCKETS - 1)] += 1;
    }

    /// Mean ready-queue depth over all scheduling decisions.
    pub fn mean_depth(&self) -> f64 {
        if self.resumes == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.resumes as f64
        }
    }
}

// ---------------------------------------------------------------------------
// The scheduler loop
// ---------------------------------------------------------------------------

/// Run every task to completion under the deterministic event loop, and
/// survey the run whether it completed or not. The lowest-numbered
/// rank's own panic is the run's error (a [`RunError::Violation`] when it
/// raised one); failing that, a stall.
///
/// `tie_seed` perturbs which of several ready ranks with *equal*
/// simulated park time runs first — `None` breaks ties by rank id.
/// Simulated results must be independent of it (property-tested at the
/// workspace level).
pub(crate) fn drive(
    ctl: &EventCtl,
    tasks: &mut [Task],
    tie_seed: Option<u64>,
) -> (Result<(), RunError>, SchedStats) {
    let mut stats = SchedStats {
        tasks: tasks.len(),
        backend: tasks.first().map_or("", |t| t.backend().label()),
        ..SchedStats::default()
    };
    let mut n_finished = 0usize;
    let mut panics: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
    let mut tie_rng = tie_seed.map(StdRng::seed_from_u64);

    // One visit to the control block per decision: pop the next rank and
    // the queue depth it was popped at.
    while let Some((r, depth)) = ctl.with(|inner| {
        let depth = inner.ready.len();
        pop_min(&mut inner.ready, &mut tie_rng).map(|r| (r, depth))
    }) {
        // The switch happens outside `with`: the resumed rank enters the
        // control block on every mailbox operation.
        stats.resumes += 1;
        stats.observe_depth(depth);
        tasks[r].resume();
        stats.max_stack_bytes = stats.max_stack_bytes.max(tasks[r].stack_in_use());
        if tasks[r].is_done() {
            ctl.with(|inner| inner.slots[r] = Slot::Finished);
            n_finished += 1;
            panics.extend(tasks[r].take_panic().map(|p| (r, p)));
        }
    }
    // The queue is dry. Only a running rank posts, so no parked rank can
    // ever wake: the run is over, or stuck.
    let stalled = (n_finished < tasks.len()).then(|| stall(ctl, tasks));
    ctl.with(|inner| {
        stats.parks_blocked = inner.parks_blocked;
        stats.deposit_wakes = inner.deposit_wakes;
        stats.max_mailbox_depth = inner.max_mailbox_depth;
    });
    let panicked = panics.into_iter().min_by_key(|(r, _)| *r);
    let err = panicked.map(|(rank, payload)| match payload.downcast::<Violation>() {
        Ok(violation) => RunError::Violation {
            rank,
            violation: *violation,
        },
        Err(payload) => RunError::RankPanicked { rank, payload },
    });
    (err.or(stalled).map_or(Ok(()), Err), stats)
}

/// The run can make no further progress: name the stall, then poison
/// and unwind every live rank.
fn stall(ctl: &EventCtl, tasks: &mut [Task]) -> RunError {
    let err = ctl.with(|inner| {
        let err = stall_error(&inner.slots);
        inner.poison = Some(err.to_string());
        err
    });
    for task in tasks.iter_mut() {
        let mut tries = 0;
        while !task.is_done() && tries < MAX_DRAIN_RESUMES {
            task.resume();
            tries += 1;
        }
    }
    err
}

/// Why the run is stuck, with each parked rank's wait-for edge. A
/// finished peer makes it a disconnect (the parked ranks may wait on it
/// in vain), otherwise every live rank is parked and it is a deadlock.
fn stall_error(slots: &[Slot]) -> RunError {
    let waits = slots
        .iter()
        .filter_map(|s| match s {
            Slot::Blocked { wait, .. } => Some(*wait),
            Slot::Runnable | Slot::Finished => None,
        })
        .collect();
    if slots.iter().any(|s| matches!(s, Slot::Finished)) {
        RunError::Disconnected { waits }
    } else {
        let cycle = wait_cycle(slots);
        RunError::Deadlock { waits, cycle }
    }
}

/// Follow specific-source edges from the lowest parked rank until a rank
/// repeats; the ranks from its first visit on are the cycle. Empty when
/// the chain reaches a wildcard receive or a rank that is not parked.
fn wait_cycle(slots: &[Slot]) -> Vec<usize> {
    let src_of = |r: usize| match slots.get(r) {
        Some(Slot::Blocked { wait, .. }) => wait.src,
        _ => None,
    };
    let first = slots.iter().position(|s| matches!(s, Slot::Blocked { .. }));
    let mut path: Vec<usize> = first.into_iter().collect();
    while let Some(src) = path.last().and_then(|&r| src_of(r)) {
        if let Some(at) = path.iter().position(|&r| r == src) {
            return path.split_off(at);
        }
        path.push(src);
    }
    Vec::new()
}

/// Pop the minimum `(park time, rank)` entry; with a tie RNG, pick
/// uniformly among all entries sharing the minimum park time.
fn pop_min(ready: &mut BTreeSet<(SimTime, usize)>, rng: &mut Option<StdRng>) -> Option<usize> {
    let &(t0, first) = ready.iter().next()?;
    let pick = match rng {
        None => (t0, first),
        Some(rng) => {
            let ties: Vec<(SimTime, usize)> =
                ready.range((t0, 0)..=(t0, usize::MAX)).copied().collect();
            ties[rng.gen_range(0..ties.len())]
        }
    };
    ready.remove(&pick);
    Some(pick.1)
}

// ---------------------------------------------------------------------------
// Resumable tasks
// ---------------------------------------------------------------------------
//
// On x86_64 unix a task is by default a stackful fiber: a heap stack
// plus a hand-written SysV context switch (no dependencies — the
// workspace vendors no libc, so ucontext/mmap are out of reach). The
// portable fallback maps each task to a parked OS thread with a
// condvar baton; the *scheduling policy* (and therefore every
// simulated result) is identical, only the suspend/resume primitive
// differs. Both backends compile wherever they can (the baton
// everywhere, the fiber on x86_64 unix only) and the [`TaskBackend`]
// baked into a task's [`TaskShared`] picks per spawn, so the asm
// switch stays differentially testable against the portable one on
// the same machine.

/// State shared between a task and the scheduler: completion flag,
/// captured panic payload, and the backend-specific switch state.
pub(crate) struct TaskShared {
    done: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    imp: SharedImpl,
}

enum SharedImpl {
    #[cfg(all(target_arch = "x86_64", unix))]
    Fiber(fiber::Ctx),
    Handoff(handoff::Baton),
}

impl TaskShared {
    pub(crate) fn new(backend: TaskBackend) -> Self {
        let imp = match backend {
            #[cfg(all(target_arch = "x86_64", unix))]
            TaskBackend::Fiber => SharedImpl::Fiber(fiber::Ctx::new()),
            #[cfg(not(all(target_arch = "x86_64", unix)))]
            TaskBackend::Fiber => {
                panic!("the fiber task backend requires x86_64 unix; use TaskBackend::Handoff")
            }
            TaskBackend::Handoff => SharedImpl::Handoff(handoff::Baton::new()),
        };
        TaskShared {
            done: AtomicBool::new(false),
            panic: Mutex::new(None),
            imp,
        }
    }

    /// Switch from the task back to the scheduler (called from
    /// *inside* the task via [`EventHandle::park_blocked`]).
    pub(crate) fn suspend(&self) {
        match &self.imp {
            #[cfg(all(target_arch = "x86_64", unix))]
            SharedImpl::Fiber(ctx) => ctx.suspend(),
            SharedImpl::Handoff(baton) => baton.suspend(),
        }
    }

    /// Record the body's outcome and mark the task finished (called by
    /// both backends' shims, exactly once).
    fn finish(&self, result: std::thread::Result<()>) {
        if let Err(payload) = result {
            *self.panic.lock().unwrap_or_else(|e| e.into_inner()) = Some(payload);
        }
        self.done.store(true, Ordering::Release);
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    #[cfg(all(target_arch = "x86_64", unix))]
    fn ctx(&self) -> &fiber::Ctx {
        match &self.imp {
            SharedImpl::Fiber(ctx) => ctx,
            SharedImpl::Handoff(_) => unreachable!("fiber task over a handoff shared"),
        }
    }

    fn baton(&self) -> &handoff::Baton {
        match &self.imp {
            #[cfg(all(target_arch = "x86_64", unix))]
            SharedImpl::Fiber(_) => unreachable!("handoff task over a fiber shared"),
            SharedImpl::Handoff(baton) => baton,
        }
    }
}

/// Fiber stacks per allocation: 64 MiB at the default stack size. (One
/// allocation for all could exceed what the OS grants a single request.)
const STACKS_PER_SLAB: usize = 64;

/// The stacks of one run's tasks. Fiber stacks are equal slices of a few
/// large allocations, not an allocation each: a request that large is
/// served with fresh, lazily committed pages that go back to the OS when
/// the run ends, whereas a thousand separate 1 MiB requests are carved
/// out of whatever heap earlier runs left dirty, and resident memory
/// then swings with allocator history.
pub(crate) struct Stacks {
    /// Per-task stack size, a multiple of 16.
    bytes: usize,
    /// The vectors never hold an element: only their capacity is used,
    /// as 16-aligned uninitialized memory. Empty under the handoff
    /// backend, whose threads bring their own stacks.
    slabs: Vec<Vec<u128>>,
}

impl Stacks {
    pub(crate) fn new(backend: TaskBackend, n_tasks: usize, stack_bytes: usize) -> Self {
        let bytes = stack_bytes.max(MIN_STACK_BYTES).next_multiple_of(16);
        let slabs = (0..n_tasks)
            .step_by(STACKS_PER_SLAB)
            .filter(|_| backend == TaskBackend::Fiber)
            .map(|first| Vec::with_capacity((n_tasks - first).min(STACKS_PER_SLAB) * (bytes / 16)))
            .collect();
        Stacks { bytes, slabs }
    }
}

/// A rank as a resumable task on the backend its [`TaskShared`] was
/// built for.
pub(crate) enum Task {
    #[cfg(all(target_arch = "x86_64", unix))]
    Fiber(fiber::Task),
    Handoff(handoff::Task),
}

impl Task {
    /// Prepare a suspended task that will run `body` on its first
    /// resume, on the backend `shared` was built for, with slot `index`
    /// of `stacks` as its stack.
    ///
    /// # Safety
    /// `body`'s borrows are erased to `'static`. The caller must keep
    /// everything `body` captures alive until the task is done or the
    /// task is leaked without further resumes — [`drive`] guarantees
    /// the former by draining every task before returning. `stacks`
    /// must outlive the task, and no other live task may use `index`.
    pub(crate) unsafe fn spawn(
        shared: Arc<TaskShared>,
        body: Box<dyn FnOnce() + Send + '_>,
        stacks: &mut Stacks,
        index: usize,
    ) -> Task {
        let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
        match shared.imp {
            #[cfg(all(target_arch = "x86_64", unix))]
            SharedImpl::Fiber(_) => {
                let bytes = stacks.bytes;
                let (slab, slot) = (index / STACKS_PER_SLAB, index % STACKS_PER_SLAB);
                let slab = stacks.slabs.get_mut(slab).expect("no fiber stack slab");
                assert!(
                    (slot + 1) * bytes <= slab.capacity() * 16,
                    "no fiber stack slot {index}"
                );
                // SAFETY: the slot lies inside the slab's allocation by
                // the assert above.
                let base = unsafe { slab.as_mut_ptr().cast::<u8>().add(slot * bytes) };
                Task::Fiber(unsafe { fiber::Task::spawn(shared, body, base, bytes) })
            }
            SharedImpl::Handoff(_) => {
                Task::Handoff(handoff::Task::spawn(shared, body, stacks.bytes))
            }
        }
    }

    /// Run the task until it parks or finishes.
    pub(crate) fn resume(&mut self) {
        match self {
            #[cfg(all(target_arch = "x86_64", unix))]
            Task::Fiber(t) => t.resume(),
            Task::Handoff(t) => t.resume(),
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.shared().is_done()
    }

    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.shared()
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// Bytes of stack in use at the task's last park — the fiber's
    /// top-of-stack minus its saved stack pointer; 0 for the handoff
    /// backend, whose OS thread stacks are opaque.
    pub(crate) fn stack_in_use(&self) -> usize {
        match self {
            #[cfg(all(target_arch = "x86_64", unix))]
            Task::Fiber(t) => t.stack_in_use(),
            Task::Handoff(_) => 0,
        }
    }

    pub(crate) fn backend(&self) -> TaskBackend {
        match self {
            #[cfg(all(target_arch = "x86_64", unix))]
            Task::Fiber(_) => TaskBackend::Fiber,
            Task::Handoff(_) => TaskBackend::Handoff,
        }
    }

    fn shared(&self) -> &TaskShared {
        match self {
            #[cfg(all(target_arch = "x86_64", unix))]
            Task::Fiber(t) => t.shared(),
            Task::Handoff(t) => t.shared(),
        }
    }
}

#[cfg(all(target_arch = "x86_64", unix))]
mod fiber {
    use super::*;
    use std::arch::{asm, global_asm};
    use std::sync::atomic::AtomicPtr;

    // The context switch saves the SysV callee-saved state (rbp, rbx,
    // r12-r15, x87 control word, mxcsr) on the current stack, stores
    // rsp through `save`, installs `target` as rsp and restores the
    // same state from it. Frame layout, from the saved rsp upward:
    //   [0] fcw  [4] mxcsr  [8] r15  [16] r14  [24] r13  [32] r12
    //   [40] rbx  [48] rbp  [56] return address
    // A fresh fiber's frame "returns" into `ncd_fiber_entry`, which
    // moves the entry argument (parked in r12) into rdi and calls the
    // shim (parked in r13).
    global_asm!(
        ".text",
        ".balign 16",
        ".globl ncd_fiber_switch",
        ".hidden ncd_fiber_switch",
        ".type ncd_fiber_switch,@function",
        "ncd_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp+4]",
        "fnstcw [rsp]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "fldcw [rsp]",
        "ldmxcsr [rsp+4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size ncd_fiber_switch,.-ncd_fiber_switch",
        ".balign 16",
        ".globl ncd_fiber_entry",
        ".hidden ncd_fiber_entry",
        ".type ncd_fiber_entry,@function",
        "ncd_fiber_entry:",
        "mov rdi, r12",
        "call r13",
        "ud2",
        ".size ncd_fiber_entry,.-ncd_fiber_entry",
    );

    unsafe extern "C" {
        fn ncd_fiber_switch(save: *mut *mut u8, target: *mut u8);
        fn ncd_fiber_entry();
    }

    /// Written at the lowest stack address; a fiber that overflows its
    /// stack tramples it (best-effort detection — there is no guard
    /// page without mmap).
    const STACK_CANARY: u64 = 0x5EED_F1BE_DEAD_57AC;

    /// One task's slot of the run's [`Stacks`]: `len` bytes at the
    /// 16-aligned `base`. Uninitialized memory is fine for a stack, and
    /// it is lazily committed by the OS, so a 1 MiB default costs
    /// address space, not resident pages.
    struct Stack {
        base: *mut u8,
        len: usize,
    }

    impl Stack {
        /// 16-aligned top-of-stack (stacks grow down).
        fn top(&self) -> *mut u8 {
            let top = self.base as usize + self.len;
            (top & !0xF) as *mut u8
        }

        fn canary_intact(&self) -> bool {
            unsafe { (self.base as *const u64).read() == STACK_CANARY }
        }
    }

    /// The switch-pair state of one fiber: the two saved stack
    /// pointers (completion flag and panic payload live in the
    /// backend-agnostic [`TaskShared`]).
    pub(super) struct Ctx {
        fiber_sp: AtomicPtr<u8>,
        sched_sp: AtomicPtr<u8>,
    }

    impl Ctx {
        pub(super) fn new() -> Self {
            Ctx {
                fiber_sp: AtomicPtr::new(std::ptr::null_mut()),
                sched_sp: AtomicPtr::new(std::ptr::null_mut()),
            }
        }

        /// Switch from the task back to the scheduler (called from
        /// *inside* the fiber via [`TaskShared::suspend`]).
        pub(super) fn suspend(&self) {
            // SAFETY: only ever called on the fiber whose shared state
            // this is, while the scheduler that resumed it waits at
            // `sched_sp`; both pointers are exchanged exclusively
            // through this pair of switches on one OS thread.
            unsafe {
                ncd_fiber_switch(
                    self.fiber_sp.as_ptr(),
                    self.sched_sp.load(Ordering::Acquire),
                )
            };
        }
    }

    /// What a fresh fiber starts with: the erased rank body plus the
    /// shared cell to report completion through.
    struct FiberEntry {
        body: Box<dyn FnOnce() + Send + 'static>,
        shared: Arc<TaskShared>,
    }

    unsafe extern "C" fn fiber_shim(arg: *mut FiberEntry) -> ! {
        // SAFETY: `arg` is the Box leaked by `Task::spawn`, entered
        // exactly once.
        let entry = unsafe { Box::from_raw(arg) };
        let FiberEntry { body, shared } = *entry;
        shared.finish(catch_unwind(AssertUnwindSafe(body)));
        // Hand control back forever; a finished task is never resumed
        // (asserted in `resume`), the loop is belt-and-braces.
        loop {
            shared.suspend();
        }
    }

    /// A rank as a resumable fiber.
    pub(crate) struct Task {
        shared: Arc<TaskShared>,
        stack: Stack,
    }

    impl Task {
        /// Prepare a suspended fiber that will run `body` on its first
        /// resume, on the `len`-byte stack at `base` (see
        /// [`super::Task::spawn`] for the safety contract; `shared.imp`
        /// must be the fiber variant).
        pub(super) unsafe fn spawn(
            shared: Arc<TaskShared>,
            body: Box<dyn FnOnce() + Send + 'static>,
            base: *mut u8,
            len: usize,
        ) -> Task {
            let stack = Stack { base, len };
            unsafe { (base as *mut u64).write(STACK_CANARY) };
            let entry = Box::into_raw(Box::new(FiberEntry {
                body,
                shared: shared.clone(),
            }));
            let sp = unsafe { init_stack(stack.top(), entry) };
            shared.ctx().fiber_sp.store(sp, Ordering::Release);
            Task { shared, stack }
        }

        /// Run the task until it parks or finishes.
        pub(super) fn resume(&mut self) {
            assert!(!self.shared.is_done(), "resumed a finished task");
            let ctx = self.shared.ctx();
            // SAFETY: `fiber_sp` holds the valid suspended context
            // written either by `init_stack` or by the fiber's own
            // last `suspend`; the switch pair runs on this thread only.
            unsafe {
                ncd_fiber_switch(ctx.sched_sp.as_ptr(), ctx.fiber_sp.load(Ordering::Acquire))
            };
        }

        /// Stack bytes in use at the last park: 16-aligned top minus
        /// the stack pointer the fiber saved when it suspended.
        pub(super) fn stack_in_use(&self) -> usize {
            let sp = self.shared.ctx().fiber_sp.load(Ordering::Acquire) as usize;
            if sp == 0 {
                return 0;
            }
            (self.stack.top() as usize).saturating_sub(sp)
        }

        pub(super) fn shared(&self) -> &TaskShared {
            &self.shared
        }
    }

    impl Drop for Task {
        fn drop(&mut self) {
            if self.shared.is_done() && !self.stack.canary_intact() && !std::thread::panicking() {
                panic!(
                    "fiber stack overflow detected (canary trampled): the rank program \
                     needs more than {} stack bytes",
                    self.stack.len
                );
            }
            // An unfinished task's stack still holds live frames whose
            // destructors cannot run; freeing the memory is safe (the
            // scheduler never resumes it again), the frames' heap
            // allocations leak. `drive` drains tasks precisely so this
            // branch stays cold.
        }
    }

    /// Build the initial switch frame (see the layout comment on the
    /// asm above) so the first resume "returns" into the trampoline.
    unsafe fn init_stack(top: *mut u8, entry: *mut FiberEntry) -> *mut u8 {
        let shim: unsafe extern "C" fn(*mut FiberEntry) -> ! = fiber_shim;
        let trampoline: unsafe extern "C" fn() = ncd_fiber_entry;
        // Capture the caller's floating-point control state so fibers
        // inherit the same rounding/precision environment.
        let mut mxcsr: u32 = 0;
        let mut fcw: u16 = 0;
        unsafe {
            asm!("stmxcsr [{p}]", p = in(reg) &mut mxcsr);
            asm!("fnstcw [{p}]", p = in(reg) &mut fcw);
        }
        unsafe {
            let sp = top.sub(64);
            (sp as *mut u16).write(fcw);
            (sp.add(4) as *mut u32).write(mxcsr);
            (sp.add(8) as *mut u64).write(0); // r15
            (sp.add(16) as *mut u64).write(0); // r14
            (sp.add(24) as *mut u64).write(shim as usize as u64); // r13
            (sp.add(32) as *mut u64).write(entry as u64); // r12
            (sp.add(40) as *mut u64).write(0); // rbx
            (sp.add(48) as *mut u64).write(0); // rbp
            (sp.add(56) as *mut u64).write(trampoline as usize as u64); // ret
            sp
        }
    }
}

/// Portable fallback: each task is an OS thread, but exactly one of
/// {scheduler, some task} is ever runnable, handing a condvar baton
/// back and forth. Scheduling policy and simulated results are identical
/// to the fiber backend; only the suspend/resume cost differs.
mod handoff {
    use super::*;
    use std::sync::Condvar;

    #[derive(Clone, Copy, PartialEq)]
    enum Turn {
        Task,
        Scheduler,
    }

    /// The baton: whose turn it is to run, plus the condvar the other
    /// side parks on (completion flag and panic payload live in the
    /// backend-agnostic [`TaskShared`]).
    pub(super) struct Baton {
        turn: Mutex<Turn>,
        cv: Condvar,
    }

    impl Baton {
        pub(super) fn new() -> Self {
            Baton {
                turn: Mutex::new(Turn::Scheduler),
                cv: Condvar::new(),
            }
        }

        fn pass_to(&self, to: Turn) {
            let mut turn = self.turn.lock().unwrap_or_else(|e| e.into_inner());
            *turn = to;
            self.cv.notify_all();
        }

        fn wait_for(&self, me: Turn) {
            let mut turn = self.turn.lock().unwrap_or_else(|e| e.into_inner());
            while *turn != me {
                turn = self.cv.wait(turn).unwrap_or_else(|e| e.into_inner());
            }
        }

        pub(super) fn suspend(&self) {
            self.pass_to(Turn::Scheduler);
            self.wait_for(Turn::Task);
        }
    }

    pub(crate) struct Task {
        shared: Arc<TaskShared>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl Task {
        /// The baton protocol guarantees the (already `'static`-erased)
        /// body only runs while the scheduler is parked inside
        /// `resume`; `shared.imp` must be the handoff variant.
        pub(super) fn spawn(
            shared: Arc<TaskShared>,
            body: Box<dyn FnOnce() + Send + 'static>,
            stack_bytes: usize,
        ) -> Task {
            let inner = shared.clone();
            let thread = std::thread::Builder::new()
                .stack_size(stack_bytes)
                .spawn(move || {
                    inner.baton().wait_for(Turn::Task);
                    inner.finish(catch_unwind(AssertUnwindSafe(body)));
                    inner.baton().pass_to(Turn::Scheduler);
                })
                .expect("spawn rank task thread");
            Task {
                shared,
                thread: Some(thread),
            }
        }

        pub(super) fn resume(&mut self) {
            assert!(!self.shared.is_done(), "resumed a finished task");
            self.shared.baton().pass_to(Turn::Task);
            self.shared.baton().wait_for(Turn::Scheduler);
        }

        pub(super) fn shared(&self) -> &TaskShared {
            &self.shared
        }
    }

    impl Drop for Task {
        fn drop(&mut self) {
            if self.shared.is_done() {
                if let Some(t) = self.thread.take() {
                    let _ = t.join();
                }
            }
            // An unfinished task's thread stays parked on the baton
            // forever and is detached — same leak semantics as an
            // unfinished fiber stack.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_shared() -> Arc<TaskShared> {
        Arc::new(TaskShared::new(TaskBackend::default_for_target()))
    }

    /// `n` minimum-size stacks for tasks made by [`new_shared`]; declare
    /// it before the tasks so it is dropped after them.
    fn new_stacks(n: usize) -> Stacks {
        Stacks::new(TaskBackend::default_for_target(), n, MIN_STACK_BYTES)
    }

    /// The runtime's blocking receive in miniature: take the envelope
    /// from `src` (`None` = any) on tag 3, parking at `at` until one is
    /// posted.
    fn take(handle: &EventHandle, src: Option<usize>, at: SimTime) -> NetMsg {
        loop {
            if let Some(msg) = handle.mailbox(|mb| mb.try_match(src, Tag(3))) {
                return msg;
            }
            handle.park_blocked(src, Tag(3), at);
        }
    }

    /// Task `id` of an `n`-task token ring: `rounds` times, take the
    /// token from the left neighbour (rank 0 starts holding it), log its
    /// id and pass the token right. Everyone starts ready at time zero,
    /// so the first round runs straight through; in every later round
    /// each task parks once and is woken by its neighbour's post.
    fn spawn_counted(
        shared: &Arc<TaskShared>,
        log: Arc<Mutex<Vec<usize>>>,
        id: usize,
        n: usize,
        rounds: usize,
        ctl: Arc<EventCtl>,
        stacks: &mut Stacks,
    ) -> Task {
        let handle = EventHandle::new(ctl, shared.clone(), id);
        let body = Box::new(move || {
            for round in 0..rounds {
                if id > 0 || round > 0 {
                    take(&handle, Some((id + n - 1) % n), SimTime::ZERO);
                }
                log.lock().unwrap().push(id);
                if id < n - 1 || round < rounds - 1 {
                    handle.post((id + 1) % n, envelope(id));
                }
            }
        });
        unsafe { Task::spawn(shared.clone(), body, stacks, id) }
    }

    #[test]
    fn task_backend_env_values_parse() {
        assert_eq!(TaskBackend::parse_env("fiber"), TaskBackend::Fiber);
        assert_eq!(TaskBackend::parse_env("handoff"), TaskBackend::Handoff);
    }

    #[test]
    #[should_panic(expected = "NCD_SCHED_TASKS=\"handof\" is not one of \"fiber\", \"handoff\"")]
    fn misspelt_task_backend_env_value_is_rejected() {
        TaskBackend::parse_env("handof");
    }

    #[test]
    fn task_suspends_and_resumes_to_completion() {
        let ctl = Arc::new(EventCtl::new(8));
        let log = Arc::new(Mutex::new(Vec::new()));
        let shared = new_shared();
        let mut stacks = new_stacks(8);
        let handle = EventHandle::new(ctl, shared.clone(), 7);
        let body = {
            let log = log.clone();
            Box::new(move || {
                for _ in 0..3 {
                    log.lock().unwrap().push(7);
                    handle.park_blocked(None, Tag(3), SimTime::ZERO);
                }
                log.lock().unwrap().push(7);
            })
        };
        // Resumed by hand, not driven: a park suspends whatever it waits on.
        let mut task = unsafe { Task::spawn(shared, body, &mut stacks, 7) };
        let mut resumes = 0;
        while !task.is_done() {
            task.resume();
            resumes += 1;
        }
        assert_eq!(*log.lock().unwrap(), vec![7, 7, 7, 7]);
        assert_eq!(resumes, 4, "three parks + final return");
        assert!(task.take_panic().is_none());
    }

    /// A four-task token ring of three rounds, driven to completion;
    /// returns the execution log and the run's introspection survey.
    fn interleave_run(backend: TaskBackend) -> (Vec<usize>, SchedStats) {
        let n = 4;
        let ctl = Arc::new(EventCtl::new(n));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut stacks = Stacks::new(backend, n, MIN_STACK_BYTES);
        let mut tasks = Vec::new();
        for id in 0..n {
            let shared = Arc::new(TaskShared::new(backend));
            tasks.push(spawn_counted(
                &shared,
                log.clone(),
                id,
                n,
                3,
                ctl.clone(),
                &mut stacks,
            ));
        }
        let (result, stats) = drive(&ctl, &mut tasks, None);
        result.expect("the token ring completes");
        let v = log.lock().unwrap().clone();
        (v, stats)
    }

    #[test]
    fn drive_interleaves_blocked_tasks_deterministically() {
        // The token visits the ranks in id order, round after round.
        let (log, _) = interleave_run(TaskBackend::default_for_target());
        assert_eq!(log, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn handoff_tasks_schedule_identically_to_the_default_backend() {
        // The portable baton backend must produce the same execution
        // order and the same scheduling survey as the target default
        // (on x86_64 unix that pits it against the asm fiber switch).
        let (d_log, d_stats) = interleave_run(TaskBackend::default_for_target());
        let (h_log, h_stats) = interleave_run(TaskBackend::Handoff);
        assert_eq!(h_stats.backend, "handoff");
        assert_eq!(d_log, h_log);
        // Everything but the backend label and the (fiber-only) stack
        // high-water must agree.
        let strip = |s: &SchedStats| SchedStats {
            backend: "",
            max_stack_bytes: 0,
            ..s.clone()
        };
        assert_eq!(strip(&d_stats), strip(&h_stats));
    }

    #[test]
    fn sched_stats_survey_the_interleave_run() {
        let (_, stats) = interleave_run(TaskBackend::default_for_target());
        assert_eq!(stats.tasks, 4);
        assert_eq!(stats.backend, TaskBackend::default_for_target().label());
        // Three resumes per task: the start plus two wakes by the token.
        assert_eq!(stats.resumes, 12);
        assert_eq!(stats.parks_blocked, 8);
        assert_eq!(stats.deposit_wakes, 8);
        // The token is the only envelope ever in flight.
        assert_eq!(stats.max_mailbox_depth, 1);
        // The first round drains depths 4, 3, 2, 1; after that only the
        // token's holder is ever ready.
        assert_eq!(stats.depth_sum, 18);
        assert!((stats.mean_depth() - 1.5).abs() < 1e-12);
        let mut hist = [0u64; DEPTH_BUCKETS];
        hist[0] = 9; // depth 1
        hist[1] = 2; // depths 2 and 3
        hist[2] = 1; // depth 4
        assert_eq!(stats.ready_depth_log2, hist);
        assert_eq!(
            stats.ready_depth_log2.iter().sum::<u64>(),
            stats.resumes,
            "histogram buckets must sum to the resume count"
        );
        if cfg!(all(target_arch = "x86_64", unix)) {
            assert!(
                stats.max_stack_bytes > 0 && stats.max_stack_bytes < MIN_STACK_BYTES,
                "fiber parks must record a plausible stack high-water, got {}",
                stats.max_stack_bytes
            );
        } else {
            assert_eq!(stats.max_stack_bytes, 0, "OS thread stacks are opaque");
        }
    }

    #[test]
    fn panic_in_task_is_captured_and_attributed() {
        let ctl = Arc::new(EventCtl::new(2));
        let mut stacks = new_stacks(2);
        let mut tasks = Vec::new();
        for id in 0..2 {
            let shared = new_shared();
            let body: Box<dyn FnOnce() + Send> = if id == 1 {
                Box::new(|| panic!("task 1 exploded"))
            } else {
                Box::new(|| {})
            };
            tasks.push(unsafe { Task::spawn(shared, body, &mut stacks, id) });
        }
        let err = drive(&ctl, &mut tasks, None).0.expect_err("panic surfaces");
        let RunError::RankPanicked { rank, payload } = err else {
            panic!("not a rank panic: {err:?}");
        };
        assert_eq!(rank, 1);
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 1 exploded"));
    }

    #[test]
    fn blocked_forever_is_reported_as_deadlock() {
        // Rank 0 waits on itself (the one-rank cycle); ranks 1..10 on tag
        // 2 from any source.
        let n = 10;
        let ctl = Arc::new(EventCtl::new(n));
        let mut stacks = new_stacks(n);
        let mut tasks = Vec::new();
        for id in 0..n {
            let shared = new_shared();
            let handle = EventHandle::new(ctl.clone(), shared.clone(), id);
            let body = Box::new(move || match id {
                0 => handle.park_blocked(Some(0), Tag(1), SimTime::ZERO),
                _ => handle.park_blocked(None, Tag(2), SimTime::ZERO),
            });
            tasks.push(unsafe { Task::spawn(shared, body, &mut stacks, id) });
        }
        let err = drive(&ctl, &mut tasks, None).0.expect_err("deadlock");
        assert_eq!(err.rank(), 0);
        let wildcards: String = (1..STALL_NAMED_RANKS)
            .map(|r| format!(", rank {r} waits on src any tag 2"))
            .collect();
        assert_eq!(
            err.to_string(),
            format!(
                "simulated deadlock: every rank is parked and no message can arrive; \
                 rank 0 waits on src 0 tag 1{wildcards}, and 2 more"
            )
        );
        let RunError::Deadlock { waits, cycle } = err else {
            panic!("not a deadlock: {err:?}");
        };
        assert_eq!(cycle, [0]);
        assert_eq!(waits.len(), n);
        assert_eq!(
            waits[1],
            ParkedWait {
                rank: 1,
                src: None,
                tag: Tag(2)
            }
        );
        assert!(tasks.iter().all(Task::is_done), "poisoned ranks unwound");
    }

    #[test]
    fn deposit_wakes_matching_blocked_task() {
        let ctl = Arc::new(EventCtl::new(2));
        let mut stacks = new_stacks(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut tasks = Vec::new();
        {
            let shared = new_shared();
            let handle = EventHandle::new(ctl.clone(), shared.clone(), 0);
            let log = log.clone();
            let body = Box::new(move || {
                handle.park_blocked(Some(1), Tag(9), SimTime(5));
                let msg = handle.mailbox(|mb| mb.try_match(Some(1), Tag(9)));
                assert_eq!(msg.expect("woken by its envelope").arrival, SimTime(7));
                log.lock().unwrap().push("woken");
            });
            tasks.push(unsafe { Task::spawn(shared, body, &mut stacks, 0) });
        }
        {
            let shared = new_shared();
            let handle = EventHandle::new(ctl.clone(), shared.clone(), 1);
            let log = log.clone();
            let body = Box::new(move || {
                log.lock().unwrap().push("sent");
                handle.post(
                    0,
                    NetMsg {
                        src: 1,
                        tag: Tag(9),
                        data: Vec::new(),
                        arrival: SimTime(7),
                        seq: 0,
                    },
                );
            });
            tasks.push(unsafe { Task::spawn(shared, body, &mut stacks, 1) });
        }
        let (result, stats) = drive(&ctl, &mut tasks, None);
        result.expect("the post wakes the receiver");
        assert_eq!(*log.lock().unwrap(), vec!["sent", "woken"]);
        assert_eq!(stats.deposit_wakes, 1);
        assert_eq!(stats.parks_blocked, 1);
    }

    fn envelope(src: usize) -> NetMsg {
        NetMsg {
            src,
            tag: Tag(3),
            data: vec![1, 2, 3],
            arrival: SimTime(1),
            seq: 0,
        }
    }

    #[test]
    #[should_panic(
        expected = "scheduler control block re-entered: a closure run on it called back into the scheduler"
    )]
    fn a_mailbox_closure_that_posts_panics_by_name() {
        let handle = EventHandle::new(Arc::new(EventCtl::new(2)), new_shared(), 0);
        handle.mailbox(|_| handle.post(1, envelope(0)));
    }

    #[test]
    fn a_panic_inside_the_control_block_leaves_it_enterable() {
        let ctl = Arc::new(EventCtl::new(2));
        let sender = EventHandle::new(ctl.clone(), new_shared(), 0);
        let receiver = EventHandle::new(ctl, new_shared(), 1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sender.mailbox(|_| panic!("a mailbox closure failed"))
        }));
        assert!(caught.is_err());
        sender.post(1, envelope(0));
        let got = receiver.mailbox(|mb| mb.try_match(Some(0), Tag(3)));
        assert_eq!(got.expect("delivered after the panic").data, vec![1, 2, 3]);
    }

    #[test]
    fn thousand_tasks_are_cheap() {
        let n = 1000;
        let ctl = Arc::new(EventCtl::new(n));
        let mut stacks = new_stacks(n);
        let total = Arc::new(Mutex::new(0u64));
        let mut tasks = Vec::new();
        for id in 0..n {
            let shared = new_shared();
            let handle = EventHandle::new(ctl.clone(), shared.clone(), id);
            let total = total.clone();
            // Every task but the last parks until the last, which runs
            // after all of them, wakes them all at once.
            let body = Box::new(move || {
                if id < n - 1 {
                    take(&handle, Some(n - 1), SimTime(id as u64));
                } else {
                    (0..n - 1).for_each(|dst| assert!(handle.post(dst, envelope(id))));
                }
                *total.lock().unwrap() += id as u64;
            });
            tasks.push(unsafe { Task::spawn(shared, body, &mut stacks, id) });
        }
        drive(&ctl, &mut tasks, None)
            .0
            .expect("the last task wakes every other");
        assert_eq!(*total.lock().unwrap(), (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn tie_seed_shuffles_equal_time_order_only() {
        // With distinct park times the seed must not matter.
        let run = |seed: Option<u64>| {
            let n = 5;
            let ctl = Arc::new(EventCtl::new(n + 1));
            let mut stacks = new_stacks(n + 1);
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut tasks = Vec::new();
            for id in 0..n {
                let shared = new_shared();
                let handle = EventHandle::new(ctl.clone(), shared.clone(), id);
                let log = log.clone();
                let body = Box::new(move || {
                    // Check in with the releaser, then park once at a
                    // distinct time; resume order must be by park time
                    // regardless of the seed.
                    handle.post(n, envelope(id));
                    take(&handle, Some(n), SimTime((n - id) as u64));
                    log.lock().unwrap().push(id);
                });
                tasks.push(unsafe { Task::spawn(shared, body, &mut stacks, id) });
            }
            // The releaser wakes all five at once. Only one task runs at
            // a time, so it sees the fifth check-in only after that
            // task has parked.
            let shared = new_shared();
            let handle = EventHandle::new(ctl.clone(), shared.clone(), n);
            let body = Box::new(move || {
                for _ in 0..n {
                    take(&handle, None, SimTime::ZERO);
                }
                (0..n).for_each(|dst| assert!(handle.post(dst, envelope(n))));
            });
            tasks.push(unsafe { Task::spawn(shared, body, &mut stacks, n) });
            drive(&ctl, &mut tasks, seed)
                .0
                .expect("the releaser wakes all five");
            let v = log.lock().unwrap().clone();
            v
        };
        assert_eq!(run(None), vec![4, 3, 2, 1, 0]);
        assert_eq!(run(Some(1)), vec![4, 3, 2, 1, 0]);
        assert_eq!(run(Some(99)), vec![4, 3, 2, 1, 0]);
    }
}
