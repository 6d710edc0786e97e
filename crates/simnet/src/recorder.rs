//! Always-on flight recorder: a fixed-capacity ring buffer of recent
//! events per rank, plus anomaly-triggered dump hooks.
//!
//! Tracing ([`crate::trace`]) is opt-in and unbounded; the flight recorder
//! is the opposite trade: **always on**, bounded, and cheap enough to leave
//! enabled everywhere — the black box that survives a crash. Each rank owns
//! a [`RankRecorder`] fed by [`crate::Rank::record`] through
//! [`RankRecorder::record_event`], the one place an event is packed into
//! slot words (`render_record` is its inverse). The hot path is lock-free:
//! a relaxed fetch-add claims a slot and plain atomic stores fill it, with
//! a release-ordered sequence stamp last so readers can tell complete
//! records from in-flight ones. Recording never touches the simulated
//! clock.
//!
//! When something goes wrong — a panic inside [`crate::Cluster::run`], a
//! reference-gate (`--compare`) regression in `ncd-bench`, or a receive
//! that waited past a configured threshold — the recent window is rendered
//! with [`render_dump`] and handed to the process-wide hook installed with
//! [`dump_on`] (default: stderr). The last run's recorders are also parked
//! in a process global so out-of-runtime code (the bench reference gate)
//! can grab evidence after the fact via [`last_run_dump`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::time::SimTime;
use crate::trace::{EventKind, TraceEvent};

/// What kind of event a flight-recorder slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecCode {
    Send = 1,
    Recv = 2,
    Mark = 3,
    Stage = 4,
    Round = 5,
    PackBlock = 6,
    IrecvPost = 7,
    SendWait = 8,
    AlgoDecision = 9,
    Drift = 10,
    Diagnosis = 11,
}

impl RecCode {
    fn from_u64(v: u64) -> Option<RecCode> {
        match v {
            1 => Some(RecCode::Send),
            2 => Some(RecCode::Recv),
            3 => Some(RecCode::Mark),
            4 => Some(RecCode::Stage),
            5 => Some(RecCode::Round),
            6 => Some(RecCode::PackBlock),
            7 => Some(RecCode::IrecvPost),
            8 => Some(RecCode::SendWait),
            9 => Some(RecCode::AlgoDecision),
            10 => Some(RecCode::Drift),
            11 => Some(RecCode::Diagnosis),
            _ => None,
        }
    }
}

/// One decoded flight-recorder record. Payload word meaning per code:
///
/// | code        | a            | b        | c         | d         | e     |
/// |-------------|--------------|----------|-----------|-----------|-------|
/// | `Send`      | dst          | bytes    | msg seq   | –         | –     |
/// | `Recv`      | src          | bytes    | wait ns   | –         | –     |
/// | `Mark`      | label hash   | –        | –         | –         | –     |
/// | `Stage`     | label hash   | dur ns   | –         | –         | –     |
/// | `Round`     | op hash      | round    | –         | –         | –     |
/// | `PackBlock` | engine hash  | index    | seek segs | la<<1\|sp | bytes |
/// | `IrecvPost` | src (MAX=any)| tag      | –         | –         | –     |
/// | `SendWait`  | residual ns  | –        | –         | –         | –     |
/// | `AlgoDecision` | coll hash | chosen hash | n<<1\|pow2 | bytes | ratio millis |
/// | `Drift`     | label hash | metric hash | occ<<1\|up | baseline millis | observed millis |
/// | `Diagnosis` | pattern hash | op hash | blamed rank | instances | severity ns |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recorded {
    /// Global order within the rank (1-based claim order).
    pub seq: u64,
    /// Simulated time of the event.
    pub time: SimTime,
    pub code: RecCode,
    pub a: u64,
    pub b: u64,
    pub c: u64,
    pub d: u64,
    pub e: u64,
}

/// One ring slot: eight word-sized atomics = one cache line. `seq` is
/// written last (release) and doubles as the "record complete" flag.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    time: AtomicU64,
    code: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
    d: AtomicU64,
    e: AtomicU64,
}

/// FNV-1a 64-bit — the label hash used for string payloads.
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How many records each side ring keeps. Decisions, drift events and
/// mirrored diagnosis findings are rare, but the traffic that caused them
/// evicts them from the main ring long before an anomaly fires; a
/// dedicated ring per such code cannot be evicted by traffic, so a
/// reference-gate dump always shows which algorithms were active, when
/// the traffic shifted, and what the post-mortem diagnosis
/// (`crate::diagnosis::mirror_to_flight_recorder`) blamed.
pub const SIDE_RING_SLOTS: usize = 8;

/// The codes that get a side ring, with the dump heading of each.
const SIDE_RINGS: [(RecCode, &str); 3] = [
    (RecCode::AlgoDecision, "algorithm decisions"),
    (RecCode::Drift, "drift events"),
    (RecCode::Diagnosis, "diagnosis findings"),
];

/// A per-rank flight recorder: fixed capacity, overwrites oldest.
pub struct RankRecorder {
    rank: usize,
    head: AtomicU64,
    slots: Box<[Slot]>,
    /// Hash → string for label payloads (marks, stages, engine names).
    /// Touched only on label-carrying records and renders, never on the
    /// hot send/recv path.
    labels: Mutex<Vec<(u64, String)>>,
    /// The last [`SIDE_RING_SLOTS`] records of each [`SIDE_RINGS`] code,
    /// in table order. Those codes are rare (one per adaptive collective
    /// call at most), so a mutex off the hot path is fine.
    side: [Mutex<Vec<Recorded>>; SIDE_RINGS.len()],
}

impl RankRecorder {
    /// `capacity` is rounded up to a power of two (minimum 8).
    pub fn new(rank: usize, capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        RankRecorder {
            rank,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::default()).collect(),
            labels: Mutex::new(Vec::new()),
            side: Default::default(),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (not bounded by capacity).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Write one packed record. Lock-free; safe to call from the owning
    /// rank's thread while other threads snapshot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &self,
        code: RecCode,
        time: SimTime,
        a: u64,
        b: u64,
        c: u64,
        d: u64,
        e: u64,
    ) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = &self.slots[(seq - 1) as usize & (self.slots.len() - 1)];
        slot.time.store(time.as_ns(), Ordering::Relaxed);
        slot.code.store(code as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        slot.d.store(d, Ordering::Relaxed);
        slot.e.store(e, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
        if let Some(ring) = self.side_ring(code) {
            let mut ring = ring.lock().expect("side ring poisoned");
            if ring.len() == SIDE_RING_SLOTS {
                ring.remove(0);
            }
            ring.push(Recorded {
                seq,
                time,
                code,
                a,
                b,
                c,
                d,
                e,
            });
        }
    }

    fn side_ring(&self, code: RecCode) -> Option<&Mutex<Vec<Recorded>>> {
        let at = SIDE_RINGS.iter().position(|(c, _)| *c == code)?;
        Some(&self.side[at])
    }

    /// The last [`SIDE_RING_SLOTS`] records of `code`, oldest → newest
    /// (empty for a code without a side ring).
    pub fn recent(&self, code: RecCode) -> Vec<Recorded> {
        self.side_ring(code).map_or_else(Vec::new, |ring| {
            ring.lock().expect("side ring poisoned").clone()
        })
    }

    /// Intern `label` so dumps can print it back; returns its hash, the
    /// word [`RankRecorder::record`] stores for it.
    pub(crate) fn intern(&self, label: &str) -> u64 {
        let h = fnv1a(label);
        let mut labels = self.labels.lock().expect("label table poisoned");
        if !labels.iter().any(|(hash, _)| *hash == h) {
            labels.push((h, label.to_string()));
        }
        h
    }

    fn label_of(&self, hash: u64) -> String {
        let labels = self.labels.lock().expect("label table poisoned");
        labels
            .iter()
            .find(|(h, _)| *h == hash)
            .map(|(_, s)| s.clone())
            .unwrap_or_else(|| format!("#{hash:016x}"))
    }

    /// The surviving window, oldest → newest. Incomplete (torn) slots are
    /// skipped; with a quiescent writer the snapshot is exact.
    pub fn snapshot(&self) -> Vec<Recorded> {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let first = head.saturating_sub(cap) + 1;
        let mut out = Vec::new();
        for want in first..=head {
            if head == 0 {
                break;
            }
            let slot = &self.slots[(want - 1) as usize & (self.slots.len() - 1)];
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // overwritten or still being written
            }
            let code = match RecCode::from_u64(slot.code.load(Ordering::Relaxed)) {
                Some(c) => c,
                None => continue,
            };
            out.push(Recorded {
                seq: want,
                time: SimTime(slot.time.load(Ordering::Relaxed)),
                code,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
                c: slot.c.load(Ordering::Relaxed),
                d: slot.d.load(Ordering::Relaxed),
                e: slot.e.load(Ordering::Relaxed),
            });
        }
        out
    }

    /// Pack one observed event into a slot, stamped with the time it
    /// ended. The only `EventKind → (RecCode, a…e)` table;
    /// `render_record` below is its inverse and [`Recorded`] documents the
    /// word layout. Force-inlined for the reason given at
    /// [`crate::Rank::record`], its one caller.
    #[inline(always)]
    pub fn record_event(&self, event: &TraceEvent) {
        let (code, [a, b, c, d, e]) = match &event.kind {
            EventKind::Send { dst, bytes, seq } => {
                (RecCode::Send, [*dst as u64, *bytes as u64, *seq, 0, 0])
            }
            EventKind::Recv {
                src, bytes, wait, ..
            } => (
                RecCode::Recv,
                [*src as u64, *bytes as u64, wait.as_ns(), 0, 0],
            ),
            EventKind::Mark { label } => (RecCode::Mark, [self.intern(label), 0, 0, 0, 0]),
            EventKind::Span { name } => (
                RecCode::Stage,
                [self.intern(name), event.duration().as_ns(), 0, 0, 0],
            ),
            EventKind::Round { op, round } => (
                RecCode::Round,
                [self.intern(op), u64::from(*round), 0, 0, 0],
            ),
            EventKind::PackBlock {
                engine,
                index,
                sparse,
                seek,
                lookahead,
                bytes,
            } => (
                RecCode::PackBlock,
                [
                    self.intern(engine),
                    *index,
                    *seek,
                    (lookahead << 1) | u64::from(*sparse),
                    *bytes,
                ],
            ),
            EventKind::IrecvPost { src, tag } => (
                RecCode::IrecvPost,
                [src.map_or(u64::MAX, |s| s as u64), u64::from(*tag), 0, 0, 0],
            ),
            EventKind::SendWait { residual } => (RecCode::SendWait, [residual.as_ns(), 0, 0, 0, 0]),
            EventKind::AlgoDecision {
                collective,
                n,
                total_bytes,
                ratio_millis,
                pow2,
                chosen,
                reason: _,
            } => (
                RecCode::AlgoDecision,
                [
                    self.intern(collective),
                    self.intern(chosen),
                    ((*n as u64) << 1) | u64::from(*pow2),
                    *total_bytes,
                    *ratio_millis,
                ],
            ),
            EventKind::Drift {
                label,
                metric,
                occurrence,
                up,
                baseline_millis,
                observed_millis,
            } => (
                RecCode::Drift,
                [
                    self.intern(label),
                    self.intern(metric),
                    (u64::from(*occurrence) << 1) | u64::from(*up),
                    *baseline_millis,
                    *observed_millis,
                ],
            ),
        };
        self.record(code, event.end, a, b, c, d, e);
    }

    fn render_record(&self, r: &Recorded) -> String {
        let head = format!(
            "[rank {:>3}] #{:<6} t={:<12}",
            self.rank,
            r.seq,
            r.time.as_ns()
        );
        let body = match r.code {
            RecCode::Send => format!("send       dst={} bytes={} seq={}", r.a, r.b, r.c),
            RecCode::Recv => format!("recv       src={} bytes={} wait_ns={}", r.a, r.b, r.c),
            RecCode::Mark => format!("mark       {}", self.label_of(r.a)),
            RecCode::Stage => format!("stage      {} dur_ns={}", self.label_of(r.a), r.b),
            RecCode::Round => format!("round      {} #{}", self.label_of(r.a), r.b),
            RecCode::PackBlock => format!(
                "pack-block engine={} index={} {} seek={} lookahead={} bytes={}",
                self.label_of(r.a),
                r.b,
                if r.d & 1 == 1 { "sparse" } else { "dense" },
                r.c,
                r.d >> 1,
                r.e,
            ),
            RecCode::IrecvPost => format!(
                "irecv      src={} tag={}",
                if r.a == u64::MAX {
                    "any".to_string()
                } else {
                    r.a.to_string()
                },
                r.b
            ),
            RecCode::SendWait => format!("send-wait  residual_ns={}", r.a),
            RecCode::AlgoDecision => format!(
                "algo       {} -> {} n={} pow2={} bytes={} ratio={}",
                self.label_of(r.a),
                self.label_of(r.b),
                r.c >> 1,
                r.c & 1 == 1,
                r.d,
                render_millis(r.e),
            ),
            RecCode::Drift => format!(
                "drift      {} {} occ={} {} baseline={} observed={}",
                self.label_of(r.a),
                self.label_of(r.b),
                r.c >> 1,
                if r.c & 1 == 1 { "up" } else { "down" },
                render_millis(r.d),
                render_millis(r.e),
            ),
            RecCode::Diagnosis => format!(
                "diag       {} op={} blamed={} instances={} severity_ns={}",
                self.label_of(r.a),
                self.label_of(r.b),
                r.c,
                r.d,
                r.e,
            ),
        };
        format!("{head} {body}")
    }
}

/// Format an integer-thousandths payload word (`u64::MAX` = infinite).
fn render_millis(millis: u64) -> String {
    if millis == u64::MAX {
        "inf".to_string()
    } else {
        format!("{}.{:03}", millis / 1000, millis % 1000)
    }
}

/// Render the recent window of every recorder as a human-readable table,
/// one section per rank, oldest → newest.
pub fn render_dump(recorders: &[Arc<RankRecorder>]) -> String {
    let mut out = String::from("=== flight recorder: last events per rank ===\n");
    for rec in recorders {
        let snap = rec.snapshot();
        let total = rec.recorded();
        out.push_str(&format!(
            "rank {:>3}: {} recorded, showing last {}\n",
            rec.rank(),
            total,
            snap.len()
        ));
        for r in &snap {
            out.push_str(&rec.render_record(r));
            out.push('\n');
        }
        for (code, heading) in SIDE_RINGS {
            let recent = rec.recent(code);
            if !recent.is_empty() {
                out.push_str(&format!(
                    "rank {:>3}: last {} {heading}\n",
                    rec.rank(),
                    recent.len()
                ));
                for r in &recent {
                    out.push_str(&rec.render_record(r));
                    out.push('\n');
                }
            }
        }
    }
    out
}

/// Why a flight-recorder dump was triggered.
#[derive(Clone, Debug, PartialEq)]
pub enum Anomaly {
    /// A rank's thread panicked inside [`crate::Cluster::run`].
    Panic { rank: usize },
    /// A receive waited longer than the configured threshold
    /// (see [`crate::Rank::dump_on_wait_over`]).
    LatencySpike {
        rank: usize,
        wait_ns: u64,
        threshold_ns: u64,
    },
    /// A benchmark's reference gate (`--compare`) detected a regression
    /// (`name` is the benchmark's observatory name).
    BaselineRegression { name: String },
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::Panic { rank } => write!(f, "panic on rank {rank}"),
            Anomaly::LatencySpike {
                rank,
                wait_ns,
                threshold_ns,
            } => write!(
                f,
                "latency spike on rank {rank}: waited {wait_ns} ns (threshold {threshold_ns} ns)"
            ),
            Anomaly::BaselineRegression { name } => {
                write!(f, "baseline regression in {name}")
            }
        }
    }
}

type DumpHook = Box<dyn Fn(&Anomaly, &str) + Send + Sync>;

static DUMP_HOOK: Mutex<Option<DumpHook>> = Mutex::new(None);
static LAST_RUN: Mutex<Option<Vec<Arc<RankRecorder>>>> = Mutex::new(None);

/// Install a process-wide anomaly hook: `f(anomaly, dump)` is called with
/// the rendered flight-recorder dump whenever an anomaly fires. Replaces
/// any previous hook. Without a hook, dumps go to stderr.
pub fn dump_on(f: impl Fn(&Anomaly, &str) + Send + Sync + 'static) {
    *DUMP_HOOK.lock().expect("dump hook poisoned") = Some(Box::new(f));
}

/// Remove the installed anomaly hook (dumps revert to stderr).
pub fn clear_dump_hook() {
    *DUMP_HOOK.lock().expect("dump hook poisoned") = None;
}

/// Fire an anomaly: route the dump to the installed hook, or stderr.
pub fn trigger(anomaly: &Anomaly, dump: &str) {
    let hook = DUMP_HOOK.lock().expect("dump hook poisoned");
    match &*hook {
        Some(f) => f(anomaly, dump),
        None => eprintln!("flight recorder: {anomaly}\n{dump}"),
    }
}

/// Park a run's recorders so post-run code (the bench reference gate) can
/// dump them after the cluster has finished. Called by
/// [`crate::Cluster::run`]; the newest run wins.
pub fn store_last_run(recorders: Vec<Arc<RankRecorder>>) {
    *LAST_RUN.lock().expect("last-run store poisoned") = Some(recorders);
}

/// The most recent run's flight recorders, if any run has happened in
/// this process. Post-mortem analyses (e.g.
/// [`crate::diagnosis::mirror_to_flight_recorder`]) use this to attach
/// findings to the ranks they implicate.
pub fn last_run_recorders() -> Option<Vec<Arc<RankRecorder>>> {
    LAST_RUN.lock().expect("last-run store poisoned").clone()
}

/// Render the most recent run's flight recorders, if any run has happened
/// in this process.
pub fn last_run_dump() -> Option<String> {
    let last = LAST_RUN.lock().expect("last-run store poisoned");
    last.as_ref().map(|recs| render_dump(recs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_returned_oldest_to_newest() {
        let rec = RankRecorder::new(0, 8);
        for i in 0..5u64 {
            rec.record(RecCode::Send, SimTime(i * 10), i, 100, i, 0, 0);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap[0].seq, 1);
        assert_eq!(snap[4].seq, 5);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(snap[3].a, 3);
        assert_eq!(rec.recorded(), 5);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let rec = RankRecorder::new(1, 8);
        for i in 0..20u64 {
            rec.record(RecCode::Recv, SimTime(i), i, i, i, 0, 0);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 8, "capacity bounds the window");
        assert_eq!(snap[0].seq, 13, "oldest surviving record");
        assert_eq!(snap[7].seq, 20);
        assert_eq!(rec.recorded(), 20);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(RankRecorder::new(0, 100).capacity(), 128);
        assert_eq!(RankRecorder::new(0, 0).capacity(), 8);
        assert_eq!(RankRecorder::new(0, 256).capacity(), 256);
    }

    #[test]
    fn labels_render_back_in_dumps() {
        let rec = RankRecorder::new(2, 16);
        let (mark, round) = (rec.intern("phase-1"), rec.intern("allgatherv/ring"));
        rec.record(RecCode::Mark, SimTime(5), mark, 0, 0, 0, 0);
        rec.record(RecCode::Round, SimTime(9), round, 3, 0, 0, 0);
        let dump = render_dump(&[Arc::new(rec)]);
        assert!(dump.contains("mark       phase-1"), "{dump}");
        assert!(dump.contains("round      allgatherv/ring #3"), "{dump}");
        assert!(dump.contains("rank   2"), "{dump}");
    }

    #[test]
    fn pack_block_payload_decodes() {
        let rec = RankRecorder::new(0, 16);
        let engine = rec.intern("single-context");
        // index 7, sparse, seek 42, lookahead 4, bytes 48
        rec.record(
            RecCode::PackBlock,
            SimTime(100),
            engine,
            7,
            42,
            (4 << 1) | 1,
            48,
        );
        let dump = render_dump(&[Arc::new(rec)]);
        assert!(
            dump.contains(
                "pack-block engine=single-context index=7 sparse seek=42 lookahead=4 bytes=48"
            ),
            "{dump}"
        );
    }

    #[test]
    fn decisions_survive_main_ring_eviction() {
        // Flood the main ring after one decision: the dump must still show
        // the decision via the dedicated ring.
        let rec = RankRecorder::new(0, 8);
        let coll = rec.intern("allgatherv");
        let chosen = rec.intern("ring");
        rec.record(
            RecCode::AlgoDecision,
            SimTime(5),
            coll,
            chosen,
            (16 << 1) | 1,
            65_664,
            8_192_000,
        );
        for i in 0..100u64 {
            rec.record(RecCode::Send, SimTime(i + 10), 1, 64, i, 0, 0);
        }
        let dump = render_dump(&[Arc::new(rec)]);
        assert!(dump.contains("last 1 algorithm decisions"), "{dump}");
        assert!(
            dump.contains(
                "algo       allgatherv -> ring n=16 pow2=true bytes=65664 ratio=8192.000"
            ),
            "{dump}"
        );
    }

    #[test]
    fn decision_ring_keeps_only_the_last_slots() {
        let rec = RankRecorder::new(0, 256);
        let coll = rec.intern("alltoallw");
        let chosen = rec.intern("binned");
        for i in 0..(SIDE_RING_SLOTS as u64 + 3) {
            rec.record(
                RecCode::AlgoDecision,
                SimTime(i),
                coll,
                chosen,
                8 << 1,
                i,
                0,
            );
        }
        let decisions = rec.recent(RecCode::AlgoDecision);
        assert_eq!(decisions.len(), SIDE_RING_SLOTS);
        assert_eq!(decisions[0].d, 3, "oldest surviving decision");
        assert_eq!(decisions.last().unwrap().d, SIDE_RING_SLOTS as u64 + 2);
    }

    #[test]
    fn drift_events_survive_main_ring_eviction() {
        let rec = RankRecorder::new(0, 8);
        let label = rec.intern("allgatherv/ring");
        let metric = rec.intern("bytes");
        rec.record(
            RecCode::Drift,
            SimTime(5),
            label,
            metric,
            (4 << 1) | 1,
            1_000,
            5_500,
        );
        for i in 0..100u64 {
            rec.record(RecCode::Send, SimTime(i + 10), 1, 64, i, 0, 0);
        }
        let dump = render_dump(&[Arc::new(rec)]);
        assert!(dump.contains("last 1 drift events"), "{dump}");
        assert!(
            dump.contains(
                "drift      allgatherv/ring bytes occ=4 up baseline=1.000 observed=5.500"
            ),
            "{dump}"
        );
    }

    #[test]
    fn drift_ring_keeps_only_the_last_slots() {
        let rec = RankRecorder::new(0, 256);
        let label = rec.intern("alltoallw/binned");
        let metric = rec.intern("skew");
        for i in 0..(SIDE_RING_SLOTS as u64 + 2) {
            rec.record(RecCode::Drift, SimTime(i), label, metric, i << 1, i, 0);
        }
        let drifts = rec.recent(RecCode::Drift);
        assert_eq!(drifts.len(), SIDE_RING_SLOTS);
        assert_eq!(drifts[0].d, 2, "oldest surviving drift event");
        assert_eq!(drifts.last().unwrap().d, SIDE_RING_SLOTS as u64 + 1);
    }

    #[test]
    fn infinite_ratio_renders_as_inf() {
        let rec = RankRecorder::new(0, 8);
        let coll = rec.intern("allgatherv");
        let chosen = rec.intern("recursive_doubling");
        rec.record(
            RecCode::AlgoDecision,
            SimTime(0),
            coll,
            chosen,
            4 << 1,
            128,
            u64::MAX,
        );
        let dump = render_dump(&[Arc::new(rec)]);
        assert!(dump.contains("ratio=inf"), "{dump}");
    }

    #[test]
    fn unknown_label_renders_as_hash() {
        let rec = RankRecorder::new(0, 8);
        rec.record(RecCode::Mark, SimTime(0), 0xdead_beef, 0, 0, 0, 0);
        let dump = render_dump(&[Arc::new(rec)]);
        assert!(dump.contains("#00000000deadbeef"), "{dump}");
    }

    #[test]
    fn empty_recorder_dumps_cleanly() {
        let dump = render_dump(&[Arc::new(RankRecorder::new(0, 8))]);
        assert!(
            dump.contains("rank   0: 0 recorded, showing last 0"),
            "{dump}"
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a("single-context"), fnv1a("dual-context"));
    }

    #[test]
    fn concurrent_snapshot_never_sees_torn_codes() {
        // A writer hammers the ring while readers snapshot: every decoded
        // record must carry a valid code and a seq within the written range.
        let rec = Arc::new(RankRecorder::new(0, 16));
        let w = rec.clone();
        let writer = std::thread::spawn(move || {
            for i in 0..50_000u64 {
                w.record(RecCode::Send, SimTime(i), i, i, i, i, i);
            }
        });
        for _ in 0..100 {
            for r in rec.snapshot() {
                assert!(r.seq >= 1);
                assert_eq!(r.code, RecCode::Send);
            }
        }
        writer.join().unwrap();
        assert_eq!(rec.snapshot().len(), 16);
    }
}
