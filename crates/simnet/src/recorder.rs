//! Always-on flight recorder: a fixed-capacity ring buffer of recent
//! events per rank, rendered as a dump when something goes wrong.
//!
//! Tracing ([`crate::trace`]) is opt-in and unbounded; the flight recorder
//! is the opposite trade: **always on**, bounded, and cheap enough to leave
//! enabled everywhere — the black box that survives a crash. Each rank owns
//! a [`RankRecorder`] fed by [`crate::Rank::record`] through
//! `RankRecorder::record_event`, the one place an event is packed into
//! slot words (`render_record` is its inverse). Recording an event costs
//! the stores of its slot and nothing else: the owning rank is the ring's
//! only writer while it runs, so a slot is claimed with a plain load and
//! store of the ring head, filled with relaxed stores, and stamped last
//! with a release-ordered sequence number so readers on other threads can
//! tell complete records from in-flight ones. A literal label the rank
//! has recorded before costs no hash, lock or scan. Recording never
//! touches the simulated clock.
//!
//! The single-writer contract holds by visibility: `RankRecorder::new`
//! and `RankRecorder::record_event` are crate-private, and the one
//! caller of the latter is [`crate::Rank::record`], so the only thing that
//! writes a recorder is its own rank. Every field is an atomic or behind
//! a lock, so a broken contract loses records but never memory safety.
//!
//! A run hands its recorders back in its [`crate::RunOutput`], failed or
//! not. Whoever holds them renders the recent window with [`render_dump`]:
//! [`crate::Cluster::run`] writes it to stderr when a rank panics or the
//! run stalls, and the bench reference gate (`--compare`) appends its own
//! run's dump to a regression report.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::time::SimTime;
use crate::trace::{EventKind, Label, TraceEvent};
use crate::volume::{fnv_bytes, FNV_OFFSET};

/// What kind of event a flight-recorder slot holds. Codes 3, 4 and 11 are
/// retired (they held user marks, profiling stages and post-run diagnosis
/// findings) and are not reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecCode {
    Send = 1,
    Recv = 2,
    Round = 5,
    PackBlock = 6,
    IrecvPost = 7,
    SendWait = 8,
    AlgoDecision = 9,
    Drift = 10,
}

impl RecCode {
    fn from_u64(v: u64) -> Option<RecCode> {
        match v {
            1 => Some(RecCode::Send),
            2 => Some(RecCode::Recv),
            5 => Some(RecCode::Round),
            6 => Some(RecCode::PackBlock),
            7 => Some(RecCode::IrecvPost),
            8 => Some(RecCode::SendWait),
            9 => Some(RecCode::AlgoDecision),
            10 => Some(RecCode::Drift),
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
/// | `Round`     | op hash      | round    | –         | –         | –     |
/// | `PackBlock` | engine hash  | index    | seek segs | la<<1\|sp | bytes |
/// | `IrecvPost` | src (MAX=any)| tag      | –         | –         | –     |
/// | `SendWait`  | residual ns  | –        | –         | –         | –     |
/// | `AlgoDecision` | coll hash | chosen hash | n<<1\|pow2 | bytes | ratio millis |
/// | `Drift`     | label hash | metric hash | occ<<1\|up | baseline millis | observed millis |
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

/// One ring slot: eight word-sized atomics, 64 bytes. `stamp` is written
/// last (release) and doubles as the "record complete" flag; `words` are
/// `[time, code, a, b, c, d, e]` in the main ring and
/// `[time, main-ring seq, a, b, c, d, e]` in a side ring, whose code is
/// fixed. (Not cache-line aligned: at N = 1024 an aligned ring costs
/// ~3 MiB of allocator padding.)
#[derive(Default)]
struct Slot {
    stamp: AtomicU64,
    words: [AtomicU64; 7],
}

/// A power-of-two ring of [`Slot`]s with one writer at a time (the
/// contract in the module docs), so claiming a slot needs no
/// read-modify-write: the writer is the only one that moves `head`.
struct Ring {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
        }
    }

    /// Records ever pushed (not bounded by capacity).
    fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    fn slot(&self, stamp: u64) -> &Slot {
        &self.slots[(stamp - 1) as usize & (self.slots.len() - 1)]
    }

    /// Claim the next slot and fill it; returns its 1-based stamp. `head`
    /// moves first, so a reader that sees it finds the slot's old stamp
    /// until the release store below, which pairs with the acquire load
    /// in [`Ring::read`].
    #[inline(always)]
    fn push(&self, words: [u64; 7]) -> u64 {
        let stamp = self.head.load(Ordering::Relaxed) + 1;
        self.head.store(stamp, Ordering::Relaxed);
        let slot = self.slot(stamp);
        for (word, value) in slot.words.iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
        slot.stamp.store(stamp, Ordering::Release);
        stamp
    }

    /// The surviving window, oldest → newest, as `(stamp, words)`. Slots
    /// overwritten or still being written are skipped; with a quiescent
    /// writer the window is exact.
    fn read(&self) -> impl Iterator<Item = (u64, [u64; 7])> + '_ {
        let head = self.pushed();
        let first = head.saturating_sub(self.slots.len() as u64) + 1;
        (first..=head).filter_map(move |want| {
            let slot = self.slot(want);
            (slot.stamp.load(Ordering::Acquire) == want).then(|| {
                (
                    want,
                    std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed)),
                )
            })
        })
    }
}

/// FNV-1a 64-bit — the label hash used for string payloads.
fn fnv1a(s: &str) -> u64 {
    fnv_bytes(FNV_OFFSET, s.as_bytes())
}

/// How many records each side ring keeps. Decisions and drift events are
/// rare, but the traffic that caused them evicts them from the main ring
/// long before anything dumps it; a dedicated ring per such code cannot
/// be evicted by traffic, so a reference-gate dump always shows which
/// algorithms were active and when the traffic shifted.
pub const SIDE_RING_SLOTS: usize = 8;

/// The codes that get a side ring, with the dump heading of each.
const SIDE_RINGS: [(RecCode, &str); 2] = [
    (RecCode::AlgoDecision, "algorithm decisions"),
    (RecCode::Drift, "drift events"),
];

/// Entries in the writer-side label cache (a power of two).
const LABEL_CACHE_SLOTS: usize = 16;

/// One label-cache entry: a `'static` label's address and length, and the
/// word recorded for it.
#[derive(Default)]
struct CachedLabel {
    addr: AtomicUsize,
    len: AtomicUsize,
    word: AtomicU64,
}

/// A per-rank flight recorder: fixed capacity, overwrites oldest.
pub struct RankRecorder {
    rank: usize,
    main: Ring,
    /// Hash → string for label payloads (collective ops, engine names).
    /// Touched only the first time a literal label is recorded, on every
    /// owned label, and by renders.
    labels: Mutex<Vec<(u64, String)>>,
    /// Literal labels already interned, keyed by address and length; read
    /// and written only by the writer.
    label_cache: [CachedLabel; LABEL_CACHE_SLOTS],
    /// The last [`SIDE_RING_SLOTS`] records of each [`SIDE_RINGS`] code,
    /// in table order, allocated on the code's first record.
    side: [OnceLock<Ring>; SIDE_RINGS.len()],
}

impl RankRecorder {
    /// `capacity` is rounded up to a power of two (minimum 8). Panics,
    /// naming the value, when no power of two that large fits a `usize`.
    pub(crate) fn new(rank: usize, capacity: usize) -> Self {
        let cap = capacity
            .max(8)
            .checked_next_power_of_two()
            .unwrap_or_else(|| panic!("flight-recorder capacity {capacity} has no power of two"));
        RankRecorder {
            rank,
            main: Ring::new(cap),
            labels: Mutex::new(Vec::new()),
            label_cache: Default::default(),
            side: Default::default(),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn capacity(&self) -> usize {
        self.main.slots.len()
    }

    /// Total records ever written (not bounded by capacity).
    pub fn recorded(&self) -> u64 {
        self.main.pushed()
    }

    /// Write one packed record: the stores of one slot (two when the
    /// code has a side ring). Safe to call from the writer while other
    /// threads snapshot.
    #[allow(clippy::too_many_arguments)]
    fn record(&self, code: RecCode, time: SimTime, a: u64, b: u64, c: u64, d: u64, e: u64) {
        let time = time.as_ns();
        let seq = self.main.push([time, code as u64, a, b, c, d, e]);
        if let Some(at) = side_ring_index(code) {
            self.side[at]
                .get_or_init(|| Ring::new(SIDE_RING_SLOTS))
                .push([time, seq, a, b, c, d, e]);
        }
    }

    /// The last [`SIDE_RING_SLOTS`] records of `code`, oldest → newest
    /// (empty for a code without a side ring).
    pub fn recent(&self, code: RecCode) -> Vec<Recorded> {
        let Some(ring) = side_ring_index(code).and_then(|at| self.side[at].get()) else {
            return Vec::new();
        };
        ring.read()
            .map(|(_, [time, seq, a, b, c, d, e])| Recorded {
                seq,
                time: SimTime(time),
                code,
                a,
                b,
                c,
                d,
                e,
            })
            .collect()
    }

    /// Intern `label` so dumps can print it back; returns its hash, the
    /// word [`RankRecorder::record`] stores for it.
    fn intern(&self, label: &str) -> u64 {
        let h = fnv1a(label);
        let mut labels = self.labels.lock().expect("label table poisoned");
        if !labels.iter().any(|(hash, _)| *hash == h) {
            labels.push((h, label.to_string()));
        }
        h
    }

    /// The word recorded for `label` — always `fnv1a(label)`, interned.
    /// A literal already seen resolves by address from the writer-side
    /// cache, with no hash, lock or scan; an owned label, or a literal
    /// seen for the first time (or evicted by one sharing its cache
    /// entry), goes through [`Self::intern`].
    #[inline(always)]
    fn label_word(&self, label: &Label) -> u64 {
        let Label::Borrowed(text) = label else {
            return self.intern(label);
        };
        let (addr, len) = (text.as_ptr() as usize, text.len());
        let entry = &self.label_cache[label_cache_index(addr, len)];
        if entry.addr.load(Ordering::Relaxed) == addr && entry.len.load(Ordering::Relaxed) == len {
            return entry.word.load(Ordering::Relaxed);
        }
        let word = self.intern(text);
        entry.addr.store(addr, Ordering::Relaxed);
        entry.len.store(len, Ordering::Relaxed);
        entry.word.store(word, Ordering::Relaxed);
        word
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
        self.main
            .read()
            .filter_map(|(seq, [time, code, a, b, c, d, e])| {
                Some(Recorded {
                    seq,
                    time: SimTime(time),
                    code: RecCode::from_u64(code)?,
                    a,
                    b,
                    c,
                    d,
                    e,
                })
            })
            .collect()
    }

    /// Pack one observed event into a slot, stamped with the time it
    /// ended. Force-inlined for the reason given at
    /// [`crate::Rank::record`], its one caller.
    #[inline(always)]
    pub(crate) fn record_event(&self, event: &TraceEvent) {
        let (code, [a, b, c, d, e]) = pack_event(event, |label| self.label_word(label));
        self.record(code, event.end, a, b, c, d, e);
    }
}

/// Which [`SIDE_RINGS`] entry holds `code`, if any.
#[inline(always)]
fn side_ring_index(code: RecCode) -> Option<usize> {
    SIDE_RINGS.iter().position(|(c, _)| *c == code)
}

/// The label-cache entry for a literal at `addr` of `len` bytes
/// (Fibonacci hashing of both; the top bits pick the entry).
#[inline(always)]
fn label_cache_index(addr: usize, len: usize) -> usize {
    let mixed = (addr as u64 ^ (len as u64).rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - LABEL_CACHE_SLOTS.trailing_zeros())) as usize
}

/// The only `EventKind → (RecCode, a…e)` table: `render_record` below is
/// its inverse and [`Recorded`] documents the word layout. `label` gives
/// the word for a label payload.
#[inline(always)]
fn pack_event(event: &TraceEvent, mut label: impl FnMut(&Label) -> u64) -> (RecCode, [u64; 5]) {
    match &event.kind {
        EventKind::Send { dst, bytes, seq } => {
            (RecCode::Send, [*dst as u64, *bytes as u64, *seq, 0, 0])
        }
        EventKind::Recv {
            src, bytes, wait, ..
        } => (
            RecCode::Recv,
            [*src as u64, *bytes as u64, wait.as_ns(), 0, 0],
        ),
        EventKind::Round { op, round } => (RecCode::Round, [label(op), u64::from(*round), 0, 0, 0]),
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
                label(engine),
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
                label(collective),
                label(chosen),
                ((*n as u64) << 1) | u64::from(*pow2),
                *total_bytes,
                *ratio_millis,
            ],
        ),
        EventKind::Drift {
            label: series,
            metric,
            occurrence,
            up,
            baseline_millis,
            observed_millis,
        } => (
            RecCode::Drift,
            [
                label(series),
                label(metric),
                (u64::from(*occurrence) << 1) | u64::from(*up),
                *baseline_millis,
                *observed_millis,
            ],
        ),
    }
}

fn render_record(rank: usize, r: &Recorded, label: &impl Fn(u64) -> String) -> String {
    let head = format!("[rank {:>3}] #{:<6} t={:<12}", rank, r.seq, r.time.as_ns());
    let body = match r.code {
        RecCode::Send => format!("send       dst={} bytes={} seq={}", r.a, r.b, r.c),
        RecCode::Recv => format!("recv       src={} bytes={} wait_ns={}", r.a, r.b, r.c),
        RecCode::Round => format!("round      {} #{}", label(r.a), r.b),
        RecCode::PackBlock => format!(
            "pack-block engine={} index={} {} seek={} lookahead={} bytes={}",
            label(r.a),
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
            label(r.a),
            label(r.b),
            r.c >> 1,
            r.c & 1 == 1,
            r.d,
            render_millis(r.e),
        ),
        RecCode::Drift => format!(
            "drift      {} {} occ={} {} baseline={} observed={}",
            label(r.a),
            label(r.b),
            r.c >> 1,
            if r.c & 1 == 1 { "up" } else { "down" },
            render_millis(r.d),
            render_millis(r.e),
        ),
    };
    format!("{head} {body}")
}

/// Format an integer-thousandths payload word (`u64::MAX` = infinite).
fn render_millis(millis: u64) -> String {
    if millis == u64::MAX {
        "inf".to_string()
    } else {
        format!("{}.{:03}", millis / 1000, millis % 1000)
    }
}

const DUMP_TITLE: &str = "=== flight recorder: last events per rank ===\n";

/// Render the recent window of every recorder as a human-readable table,
/// one section per rank, oldest → newest.
pub fn render_dump(recorders: &[Arc<RankRecorder>]) -> String {
    let mut out = String::from(DUMP_TITLE);
    for rec in recorders {
        render_rank(
            &mut out,
            rec.rank(),
            rec.recorded(),
            &rec.snapshot(),
            |code| rec.recent(code),
            |hash| rec.label_of(hash),
        );
    }
    out
}

/// Append one rank's section of [`render_dump`]: its main-ring window,
/// then every non-empty side ring. `label` resolves a label word.
fn render_rank(
    out: &mut String,
    rank: usize,
    recorded: u64,
    snapshot: &[Recorded],
    recent: impl Fn(RecCode) -> Vec<Recorded>,
    label: impl Fn(u64) -> String,
) {
    out.push_str(&format!(
        "rank {rank:>3}: {recorded} recorded, showing last {}\n",
        snapshot.len()
    ));
    for r in snapshot {
        out.push_str(&render_record(rank, r, &label));
        out.push('\n');
    }
    for (code, heading) in SIDE_RINGS {
        let recent = recent(code);
        if !recent.is_empty() {
            out.push_str(&format!(
                "rank {rank:>3}: last {} {heading}\n",
                recent.len()
            ));
            for r in &recent {
                out.push_str(&render_record(rank, r, &label));
                out.push('\n');
            }
        }
    }
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
        let round = rec.intern("allgatherv/ring");
        rec.record(RecCode::Round, SimTime(9), round, 3, 0, 0, 0);
        let dump = render_dump(&[Arc::new(rec)]);
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
        rec.record(RecCode::Round, SimTime(0), 0xdead_beef, 0, 0, 0, 0);
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

    #[test]
    #[should_panic(expected = "flight-recorder capacity 18446744073709551615 has no power of two")]
    fn capacity_without_a_power_of_two_is_named() {
        RankRecorder::new(0, usize::MAX);
    }

    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;

    /// The recorder as it was before the single-writer claim and the
    /// label cache, kept as the oracle: a `fetch_add` claims each slot,
    /// every label is hashed and interned under the table lock, and each
    /// side ring is a `Mutex<Vec>`.
    struct Reference {
        rank: usize,
        head: AtomicU64,
        /// `[seq, time, code, a, b, c, d, e]`; `seq` stored last.
        slots: Box<[[AtomicU64; 8]]>,
        labels: Mutex<Vec<(u64, String)>>,
        side: [Mutex<Vec<Recorded>>; SIDE_RINGS.len()],
    }

    impl Reference {
        fn new(rank: usize, capacity: usize) -> Self {
            let cap = capacity.max(8).next_power_of_two();
            Reference {
                rank,
                head: AtomicU64::new(0),
                slots: (0..cap).map(|_| Default::default()).collect(),
                labels: Mutex::new(Vec::new()),
                side: Default::default(),
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn record(&self, code: RecCode, time: SimTime, a: u64, b: u64, c: u64, d: u64, e: u64) {
            let seq = self.head.fetch_add(1, Ordering::Relaxed) + 1;
            let slot = &self.slots[(seq - 1) as usize & (self.slots.len() - 1)];
            let words = [time.as_ns(), code as u64, a, b, c, d, e];
            for (word, value) in slot[1..].iter().zip(words) {
                word.store(value, Ordering::Relaxed);
            }
            slot[0].store(seq, Ordering::Release);
            if let Some(at) = side_ring_index(code) {
                let mut ring = self.side[at].lock().unwrap();
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

        fn intern(&self, label: &str) -> u64 {
            let h = fnv1a(label);
            let mut labels = self.labels.lock().unwrap();
            if !labels.iter().any(|(hash, _)| *hash == h) {
                labels.push((h, label.to_string()));
            }
            h
        }

        fn record_event(&self, event: &TraceEvent) {
            let (code, [a, b, c, d, e]) = pack_event(event, |label| self.intern(label));
            self.record(code, event.end, a, b, c, d, e);
        }

        fn recorded(&self) -> u64 {
            self.head.load(Ordering::Relaxed)
        }

        fn snapshot(&self) -> Vec<Recorded> {
            let head = self.recorded();
            let first = head.saturating_sub(self.slots.len() as u64) + 1;
            let mut out = Vec::new();
            for want in first..=head {
                let slot = &self.slots[(want - 1) as usize & (self.slots.len() - 1)];
                if slot[0].load(Ordering::Acquire) != want {
                    continue;
                }
                let [time, code, a, b, c, d, e] =
                    std::array::from_fn(|i| slot[i + 1].load(Ordering::Relaxed));
                out.push(Recorded {
                    seq: want,
                    time: SimTime(time),
                    code: RecCode::from_u64(code).unwrap(),
                    a,
                    b,
                    c,
                    d,
                    e,
                });
            }
            out
        }

        fn recent(&self, code: RecCode) -> Vec<Recorded> {
            side_ring_index(code).map_or_else(Vec::new, |at| self.side[at].lock().unwrap().clone())
        }

        fn dump(&self) -> String {
            let mut out = String::from(DUMP_TITLE);
            let label_of = |hash: u64| {
                let labels = self.labels.lock().unwrap();
                labels
                    .iter()
                    .find(|(h, _)| *h == hash)
                    .map_or_else(|| format!("#{hash:016x}"), |(_, s)| s.clone())
            };
            let snapshot = self.snapshot();
            let recent = |code| self.recent(code);
            render_rank(
                &mut out,
                self.rank,
                self.recorded(),
                &snapshot,
                recent,
                label_of,
            );
            out
        }
    }

    /// More literals than the label cache has entries, so they collide.
    const LITERALS: [&str; 20] = [
        "allgatherv/ring",
        "allgatherv/recursive_doubling",
        "alltoallw/round_robin",
        "alltoallw/binned",
        "single-context",
        "dual-context",
        "tree",
        "allgatherv",
        "alltoallw",
        "ring",
        "recursive_doubling",
        "binned",
        "round_robin",
        "bytes",
        "skew",
        "late-sender",
        "wait-at-collective",
        "phase-1",
        "solve/smooth",
        "-",
    ];

    /// Its prefixes are literals at one address that differ in length
    /// (and two of them repeat a [`LITERALS`] text at another address).
    const PREFIXED: &str = "allgatherv/ring/prefix";

    /// Any `u64` (the stand-in `proptest` draws from ranges).
    const ANY: std::ops::Range<u64> = 0..u64::MAX;

    fn label() -> impl Strategy<Value = Label> {
        prop_oneof![
            (0..LITERALS.len()).prop_map(|i| Label::Borrowed(LITERALS[i])),
            (0..LITERALS.len()).prop_map(|i| Label::Borrowed(LITERALS[i])),
            (0..LITERALS.len()).prop_map(|i| Label::Owned(LITERALS[i].to_string())),
            (0..PREFIXED.len() + 1).prop_map(|len| Label::Borrowed(&PREFIXED[..len])),
            (0..64u32).prop_map(|n| Label::Owned(format!("fresh-{n}"))),
        ]
    }

    fn event_kind() -> impl Strategy<Value = EventKind> {
        prop_oneof![
            (0..64usize, 0..4096usize, ANY).prop_map(|(dst, bytes, seq)| EventKind::Send {
                dst,
                bytes,
                seq
            }),
            (0..64usize, 0..4096usize, ANY, ANY).prop_map(|(src, bytes, seq, wait)| {
                EventKind::Recv {
                    src,
                    bytes,
                    seq,
                    wait: SimTime(wait),
                }
            }),
            (label(), 0..u32::MAX).prop_map(|(op, round)| EventKind::Round { op, round }),
            (label(), ANY, any::<bool>(), ANY, 0..u64::MAX >> 1, ANY).prop_map(
                |(engine, index, sparse, seek, lookahead, bytes)| EventKind::PackBlock {
                    engine,
                    index,
                    sparse,
                    seek,
                    lookahead,
                    bytes,
                }
            ),
            (any::<bool>(), 0..64usize, 0..u32::MAX).prop_map(|(wildcard, src, tag)| {
                EventKind::IrecvPost {
                    src: (!wildcard).then_some(src),
                    tag,
                }
            }),
            ANY.prop_map(|ns| EventKind::SendWait {
                residual: SimTime(ns),
            }),
            (
                label(),
                label(),
                0..usize::MAX >> 1,
                ANY,
                ANY,
                any::<bool>()
            )
                .prop_map(
                    |(collective, chosen, n, total_bytes, ratio_millis, pow2)| {
                        EventKind::AlgoDecision {
                            collective,
                            n,
                            total_bytes,
                            ratio_millis,
                            pow2,
                            chosen,
                            reason: "why".into(),
                        }
                    }
                ),
            (label(), label(), 0..u32::MAX, any::<bool>(), ANY, ANY).prop_map(
                |(label, metric, occurrence, up, baseline_millis, observed_millis)| {
                    EventKind::Drift {
                        label,
                        metric,
                        occurrence,
                        up,
                        baseline_millis,
                        observed_millis,
                    }
                }
            ),
        ]
    }

    fn event() -> impl Strategy<Value = TraceEvent> {
        (event_kind(), 0..1u64 << 40, 0..1u64 << 20).prop_map(|(kind, start, len)| {
            let (start, end) = (SimTime(start), SimTime(start + len));
            TraceEvent { kind, start, end }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every record, side ring, count and dump equals the reference's,
        /// through evictions of the main ring, the side rings and the
        /// label cache; every label word is the label's FNV-1a hash.
        #[test]
        fn single_writer_recorder_matches_the_reference(
            capacity in (3..6u32).prop_map(|log2| 1usize << log2),
            events in proptest::collection::vec(event(), 1..160),
        ) {
            let rec = RankRecorder::new(3, capacity);
            let reference = Reference::new(3, capacity);
            for (i, event) in events.iter().enumerate() {
                rec.record_event(event);
                reference.record_event(event);
                let (code, words) = pack_event(event, |label| fnv1a(label));
                let last = rec.snapshot().pop().expect("a record was just written");
                prop_assert_eq!(
                    (last.seq, last.code, [last.a, last.b, last.c, last.d, last.e]),
                    (i as u64 + 1, code, words)
                );
            }
            prop_assert_eq!(rec.recorded(), reference.recorded());
            prop_assert_eq!(rec.snapshot(), reference.snapshot());
            for (code, _) in SIDE_RINGS {
                prop_assert_eq!(rec.recent(code), reference.recent(code));
            }
            prop_assert_eq!(render_dump(&[Arc::new(rec)]), reference.dump());
        }
    }
}
