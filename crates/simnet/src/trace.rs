//! Per-rank event tracing: an optional timeline of message events in
//! simulated time, for understanding *why* a schedule is slow — the
//! counterpart of PETSc's `-log_view`/`Draw` instrumentation.
//!
//! Every observed event leaves a rank through [`crate::Rank::record`],
//! which hands it to the always-on flight recorder and, when the run
//! observes traces ([`crate::Observers`], the one way in; `enable_tracing`
//! is the frozen benchmark's primitive), appends it to the timeline the
//! run's [`crate::Capture`] returns. Until then the rank holds no
//! timeline, and because labels are [`Cow`]s — every label the runtime
//! and the collectives emit is a `&'static str`; only marks, stage paths
//! and drift labels are built at run time — recording allocates nothing.
//! The `examples/timeline.rs` demo renders the events of every rank as an
//! ASCII Gantt chart that makes the round-robin alltoallw's serialization
//! directly visible.

use std::borrow::Cow;

use crate::time::SimTime;

/// An event label: borrowed when it is a literal, owned when built at run
/// time.
pub type Label = Cow<'static, str>;

/// What happened during a traced span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A message left this rank. `seq` is the sender-assigned correlation
    /// id carried by the message, matching the receiver's [`EventKind::Recv`].
    Send { dst: usize, bytes: usize, seq: u64 },
    /// A message was received (the span includes any blocking wait).
    /// `(src, seq)` identifies the matching send; `wait` is the portion of
    /// the span spent blocked because the message had not yet arrived in
    /// simulated time (zero when it was already waiting in the mailbox).
    Recv {
        src: usize,
        bytes: usize,
        seq: u64,
        wait: SimTime,
    },
    /// A user-defined marker (phase boundaries and the like); may be
    /// dynamically named (`format!("vcycle-{i}")`).
    Mark { label: Label },
    /// A closed profiling stage (see [`crate::profile`]), mirrored into
    /// the trace so exports show the stage hierarchy over the messages.
    Span { name: Label },
    /// One round of a multi-round collective (`op` names the collective
    /// and algorithm, e.g. `allgatherv/ring`); a zero-length instant.
    Round { op: Label, round: u32 },
    /// One pipeline block produced by a datatype pack engine (`engine` is
    /// the engine name, e.g. `single-context`). `seek` is the number of
    /// segments re-walked from the type root to recover a lost context —
    /// the paper's quadratic signal, zero for dual-context — `lookahead`
    /// the window-classification work, and `sparse` the density verdict
    /// (true = packed through an intermediate buffer). Rendered on a
    /// separate per-rank `dt` lane, not the message row.
    PackBlock {
        engine: Label,
        index: u64,
        sparse: bool,
        seek: u64,
        lookahead: u64,
        bytes: u64,
    },
    /// A nonblocking receive was posted (request layer); a zero-length
    /// instant marking where overlap *starts*. `src` is `None` for a
    /// wildcard-source receive.
    IrecvPost { src: Option<usize>, tag: u32 },
    /// A completed send had to block until the NIC finished serializing
    /// its queued bytes: the *residual* wire time that compute did not
    /// hide. Only emitted when the residual is nonzero, so its absence
    /// means the overlap was total.
    SendWait { residual: SimTime },
    /// An algorithm-selection decision made by an adaptive collective
    /// (`allgatherv`, `alltoallw`): a zero-length instant recording what
    /// was chosen and why. `ratio_millis` is the outlier ratio of the
    /// volume set in thousandths (`u64::MAX` = infinite; see
    /// [`crate::commmap::millis_to_ratio`]) — stored as an integer so the
    /// event stays `Eq` and exports stay byte-stable.
    AlgoDecision {
        collective: Label,
        n: usize,
        total_bytes: u64,
        ratio_millis: u64,
        pow2: bool,
        chosen: Label,
        reason: Label,
    },
    /// A changepoint detected by the drift monitor (see `ncd-core`'s
    /// drift module): the epoch series `label` shifted in `metric`
    /// (`bytes`, `skew`) at the given occurrence. A zero-length instant;
    /// the baseline and observed values are stored in integer thousandths
    /// ([`crate::commmap::ratio_to_millis`], `u64::MAX` = infinite) so the
    /// event stays `Eq` and exports stay byte-stable.
    Drift {
        label: Label,
        metric: Label,
        occurrence: u32,
        up: bool,
        baseline_millis: u64,
        observed_millis: u64,
    },
}

/// One traced span of simulated time on one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub kind: EventKind,
    pub start: SimTime,
    pub end: SimTime,
}

impl TraceEvent {
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// Drawing priority of an event kind when several overlap in one timeline
/// cell: mark > round > recv > send > span > idle. Higher wins.
fn cell_priority(kind: &EventKind) -> u8 {
    match kind {
        EventKind::Mark { .. } => 5,
        EventKind::Round { .. } => 4,
        EventKind::Recv { .. } => 3,
        EventKind::Send { .. } => 2,
        EventKind::Span { .. } => 1,
        // Pack blocks render on their own `dt` lane; priority 0 keeps them
        // out of the message row (the row's floor is already 0).
        EventKind::PackBlock { .. } => 0,
        // A drain wait is send-shaped activity; an irecv post is a
        // zero-length bookkeeping instant that should not mask traffic.
        EventKind::SendWait { .. } => 2,
        EventKind::IrecvPost { .. } => 1,
        // Decisions and drift flags are bookkeeping instants like irecv
        // posts: visible on idle cells, never masking traffic.
        EventKind::AlgoDecision { .. } => 1,
        EventKind::Drift { .. } => 1,
    }
}

fn cell_char(kind: &EventKind) -> u8 {
    match kind {
        EventKind::Send { .. } => b's',
        EventKind::Recv { .. } => b'r',
        EventKind::Mark { .. } => b'|',
        EventKind::Span { .. } => b'=',
        EventKind::Round { .. } => b'^',
        EventKind::PackBlock { sparse, .. } => {
            if *sparse {
                b'p'
            } else {
                b'd'
            }
        }
        EventKind::SendWait { .. } => b'w',
        EventKind::IrecvPost { .. } => b'v',
        EventKind::AlgoDecision { .. } => b'a',
        EventKind::Drift { .. } => b'!',
    }
}

/// Width of the fixed `rank NNN |` label gutter that
/// [`render_timeline_fit`] reserves before the timeline cells (the closing
/// `|` adds one more column).
pub const TIMELINE_GUTTER: usize = 10;

/// [`render_timeline`] sized to a terminal: `total_width` is the whole
/// line budget *including* the label gutter and both `|` borders. Widths
/// smaller than the gutter never underflow — the timeline degrades to a
/// single column instead.
pub fn render_timeline_fit(traces: &[Vec<TraceEvent>], total_width: usize) -> String {
    render_timeline(traces, total_width.saturating_sub(TIMELINE_GUTTER + 2))
}

/// Render a set of per-rank traces as an ASCII timeline: one row per rank,
/// `width` columns spanning `[0, horizon]`, with `s`/`r` cells for
/// send/receive activity, `=` for profiling spans, `|`/`^` for marks and
/// collective rounds, and `.` for idle/compute time. When events overlap
/// in a cell the highest-priority one wins (mark > round > recv > send >
/// span > idle), so zero-length markers are never hidden by the activity
/// around them. A `width` of zero is clamped to one column, so callers
/// computing widths from a terminal size cannot underflow the renderer.
///
/// Ranks with [`EventKind::PackBlock`] events additionally get a `dt` lane
/// directly under their message row, showing the pack pipeline's blocks:
/// `p` for sparse (packed through a buffer) and `d` for dense (shipped
/// direct). The lane shares the message row's gutter width, so both stay
/// aligned under any `width`.
pub fn render_timeline(traces: &[Vec<TraceEvent>], width: usize) -> String {
    let width = width.max(1);
    let horizon = traces
        .iter()
        .flat_map(|t| t.iter().map(|e| e.end))
        .max()
        .unwrap_or(SimTime::ZERO)
        .as_ns()
        .max(1);
    let paint = |row: &mut [u8], prio: &mut [u8], e: &TraceEvent, ch: u8, p: u8| {
        let a = (e.start.as_ns() * width as u64 / horizon) as usize;
        let b = ((e.end.as_ns() * width as u64).div_ceil(horizon) as usize).min(width);
        for i in a.min(width)..b.max(a + 1).min(width) {
            if p > prio[i] {
                prio[i] = p;
                row[i] = ch;
            }
        }
    };
    let mut out = String::new();
    for (rank, events) in traces.iter().enumerate() {
        let mut row = vec![b'.'; width];
        let mut prio = vec![0u8; width];
        let mut dt_row = vec![b'.'; width];
        let mut dt_prio = vec![0u8; width];
        let mut has_dt = false;
        for e in events {
            if let EventKind::PackBlock { sparse, .. } = e.kind {
                has_dt = true;
                // Sparse blocks outrank dense ones when they share a cell:
                // the pathology must stay visible at coarse widths.
                paint(
                    &mut dt_row,
                    &mut dt_prio,
                    e,
                    cell_char(&e.kind),
                    if sparse { 2 } else { 1 },
                );
            } else {
                paint(
                    &mut row,
                    &mut prio,
                    e,
                    cell_char(&e.kind),
                    cell_priority(&e.kind),
                );
            }
        }
        out.push_str(&format!(
            "rank {rank:>3} |{}|\n",
            String::from_utf8(row).expect("ascii")
        ));
        if has_dt {
            out.push_str(&format!(
                "  dt {rank:>3} |{}|\n",
                String::from_utf8(dt_row).expect("ascii")
            ));
        }
    }
    out.push_str(&format!("horizon: {}\n", SimTime::from_ns(horizon)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::tests::traced;
    use crate::{Cluster, ClusterConfig, Tag};

    #[test]
    fn tracing_records_sends_and_recvs_with_causal_spans() {
        let out = traced(ClusterConfig::uniform(2), |rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, Tag(0), vec![0u8; 1200]);
            } else {
                let _ = rank.recv_bytes(Some(0), Tag(0));
            }
        });
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[1].len(), 1);
        match &out[0][0].kind {
            EventKind::Send { dst, bytes, .. } => {
                assert_eq!((*dst, *bytes), (1, 1200));
            }
            other => panic!("expected send, got {other:?}"),
        }
        match &out[1][0].kind {
            EventKind::Recv {
                src, bytes, wait, ..
            } => {
                assert_eq!((*src, *bytes), (0, 1200));
                assert!(*wait > SimTime::ZERO, "receiver posted first, must wait");
            }
            other => panic!("expected recv, got {other:?}"),
        }
        // The receive ends after the send ends (wire latency).
        assert!(out[1][0].end > out[0][0].end);
        assert!(out[1][0].duration() > SimTime::ZERO);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let out = Cluster::new(ClusterConfig::uniform(2)).try_run(|rank| {
            if rank.rank() == 0 {
                rank.send_bytes(1, Tag(0), vec![1]);
            } else {
                let _ = rank.recv_bytes(Some(0), Tag(0));
            }
        });
        assert!(out.capture.traces.is_none());
    }

    #[test]
    fn marks_are_recorded() {
        let out = traced(ClusterConfig::uniform(1), |rank| {
            rank.compute_flops(1000);
            rank.trace_mark("phase-1");
            rank.compute_flops(1000);
        });
        assert_eq!(out[0].len(), 1);
        assert_eq!(
            out[0][0].kind,
            EventKind::Mark {
                label: "phase-1".into()
            }
        );
        assert!(out[0][0].start > SimTime::ZERO);
    }

    #[test]
    fn dynamically_named_marks_are_recorded() {
        let out = traced(ClusterConfig::uniform(1), |rank| {
            for i in 0..3 {
                rank.compute_flops(100);
                rank.trace_mark(format!("vcycle-{i}"));
            }
        });
        let labels: Vec<_> = out[0]
            .iter()
            .map(|e| match &e.kind {
                EventKind::Mark { label } => label.clone(),
                other => panic!("expected mark, got {other:?}"),
            })
            .collect();
        assert_eq!(labels, vec!["vcycle-0", "vcycle-1", "vcycle-2"]);
    }

    #[test]
    fn overlap_priority_mark_beats_recv_beats_send() {
        // All four kinds cover the same cell range; the rendered row must
        // show the highest-priority kind, not the last-pushed one.
        let span = |kind| TraceEvent {
            kind,
            start: SimTime(0),
            end: SimTime(100),
        };
        let events = vec![
            span(EventKind::Mark { label: "m".into() }),
            span(EventKind::Recv {
                src: 0,
                bytes: 1,
                seq: 0,
                wait: SimTime::ZERO,
            }),
            span(EventKind::Send {
                dst: 0,
                bytes: 1,
                seq: 0,
            }),
            span(EventKind::Span {
                name: "stage".into(),
            }),
        ];
        let art = render_timeline(&[events], 10);
        // The mark is zero-width priority-wise irrelevant here: it covers
        // the whole range, so every cell shows '|'.
        assert!(
            art.contains("||||||||||"),
            "mark must win everywhere:\n{art}"
        );

        // Without the mark, recv wins over send and span.
        let events = vec![
            span(EventKind::Send {
                dst: 0,
                bytes: 1,
                seq: 0,
            }),
            span(EventKind::Span {
                name: "stage".into(),
            }),
            span(EventKind::Recv {
                src: 0,
                bytes: 1,
                seq: 0,
                wait: SimTime::ZERO,
            }),
        ];
        let art = render_timeline(&[events], 10);
        assert!(
            art.contains("rrrrrrrrrr"),
            "recv must win over send/span:\n{art}"
        );

        // Send beats span; span beats idle.
        let events = vec![
            TraceEvent {
                kind: EventKind::Span {
                    name: "stage".into(),
                },
                start: SimTime(0),
                end: SimTime(100),
            },
            TraceEvent {
                kind: EventKind::Send {
                    dst: 0,
                    bytes: 1,
                    seq: 0,
                },
                start: SimTime(0),
                end: SimTime(50),
            },
        ];
        let art = render_timeline(&[events], 10);
        assert!(
            art.contains("sssss====="),
            "send over span over idle:\n{art}"
        );
    }

    #[test]
    fn zero_length_mark_survives_on_top_of_long_send() {
        // A send spans the whole timeline; a mark in the middle must still
        // be visible (the old renderer let later events overwrite it).
        let events = vec![
            TraceEvent {
                kind: EventKind::Mark { label: "m".into() },
                start: SimTime(50),
                end: SimTime(50),
            },
            TraceEvent {
                kind: EventKind::Send {
                    dst: 0,
                    bytes: 1,
                    seq: 0,
                },
                start: SimTime(0),
                end: SimTime(100),
            },
        ];
        let art = render_timeline(&[events], 10);
        assert!(
            art.contains("sssss|ssss"),
            "mark must not be hidden:\n{art}"
        );
    }

    #[test]
    fn timeline_renders_rows_for_every_rank() {
        let traces = traced(ClusterConfig::uniform(3), |rank| {
            let right = (rank.rank() + 1) % 3;
            let left = (rank.rank() + 2) % 3;
            rank.send_bytes(right, Tag(0), vec![0u8; 4000]);
            let _ = rank.recv_bytes(Some(left), Tag(0));
        });
        let art = render_timeline(&traces, 40);
        assert_eq!(art.lines().count(), 4); // 3 ranks + horizon line
        assert!(art.contains("rank   0"));
        assert!(art.contains('s') && art.contains('r'));
    }

    #[test]
    fn empty_timeline_is_rendered_gracefully() {
        let art = render_timeline(&[vec![], vec![]], 10);
        assert!(art.contains("rank   0 |..........|"));
    }

    #[test]
    fn one_column_render_never_underflows() {
        // A width of 1 (and even a degenerate 0, which clamps to 1) must
        // produce aligned single-cell rows, not panic or misalign.
        let events = vec![TraceEvent {
            kind: EventKind::Send {
                dst: 0,
                bytes: 1,
                seq: 0,
            },
            start: SimTime(0),
            end: SimTime(100),
        }];
        for width in [0, 1] {
            let art = render_timeline(std::slice::from_ref(&events), width);
            assert!(art.contains("rank   0 |s|"), "width {width}:\n{art}");
            assert!(art.lines().all(|l| !l.contains("||")), "no empty cells");
        }
    }

    fn pack_block(
        engine: &'static str,
        index: u64,
        sparse: bool,
        start: u64,
        end: u64,
    ) -> TraceEvent {
        TraceEvent {
            kind: EventKind::PackBlock {
                engine: engine.into(),
                index,
                sparse,
                seek: if sparse { index * 8 } else { 0 },
                lookahead: 4,
                bytes: 48,
            },
            start: SimTime(start),
            end: SimTime(end),
        }
    }

    #[test]
    fn pack_blocks_render_on_their_own_dt_lane() {
        let events = vec![
            TraceEvent {
                kind: EventKind::Send {
                    dst: 1,
                    bytes: 100,
                    seq: 0,
                },
                start: SimTime(0),
                end: SimTime(100),
            },
            pack_block("single-context", 0, true, 0, 50),
            pack_block("single-context", 1, false, 50, 100),
        ];
        let art = render_timeline(&[events, vec![]], 10);
        let lines: Vec<&str> = art.lines().collect();
        // Rank 0 message row, rank 0 dt lane, rank 1 row, horizon.
        assert_eq!(lines.len(), 4, "{art}");
        assert_eq!(lines[0], "rank   0 |ssssssssss|", "{art}");
        assert_eq!(lines[1], "  dt   0 |pppppddddd|", "{art}");
        assert!(lines[2].starts_with("rank   1 |"), "{art}");
        // Same gutter width: the cells of both lanes line up.
        assert_eq!(
            lines[0].find('|').unwrap(),
            lines[1].find('|').unwrap(),
            "{art}"
        );
    }

    #[test]
    fn dt_lane_only_appears_for_ranks_that_packed() {
        let art = render_timeline(
            &[vec![], vec![pack_block("dual-context", 0, true, 0, 10)]],
            10,
        );
        let dt_lines: Vec<&str> = art.lines().filter(|l| l.starts_with("  dt")).collect();
        assert_eq!(dt_lines, vec!["  dt   1 |pppppppppp|"], "{art}");
    }

    #[test]
    fn sparse_block_wins_over_dense_in_shared_cell() {
        // Both blocks map to the same single cell; the sparse verdict (the
        // pathology) must stay visible.
        let events = vec![
            pack_block("single-context", 0, false, 0, 100),
            pack_block("single-context", 1, true, 0, 100),
        ];
        let art = render_timeline(&[events], 1);
        assert!(art.contains("  dt   0 |p|"), "{art}");
    }

    #[test]
    fn fit_includes_dt_lanes_within_width_budget() {
        let events = vec![
            TraceEvent {
                kind: EventKind::Send {
                    dst: 0,
                    bytes: 1,
                    seq: 0,
                },
                start: SimTime(0),
                end: SimTime(100),
            },
            pack_block("single-context", 0, true, 0, 100),
        ];
        let art = render_timeline_fit(std::slice::from_ref(&events), 40);
        let lines: Vec<&str> = art.lines().collect();
        assert!(lines.iter().any(|l| l.starts_with("  dt   0")), "{art}");
        // Every lane (message and dt) obeys the total budget and shares
        // the gutter width.
        for l in lines.iter().filter(|l| l.contains('|')) {
            assert!(l.len() <= 40, "{l:?} exceeds budget:\n{art}");
        }
        assert!(art.contains(&"p".repeat(40 - TIMELINE_GUTTER - 2)), "{art}");
        // Narrower than the gutter: both lanes degrade to one column.
        let art = render_timeline_fit(std::slice::from_ref(&events), 3);
        assert!(art.contains("rank   0 |s|"), "{art}");
        assert!(art.contains("  dt   0 |p|"), "{art}");
    }

    #[test]
    fn fit_subtracts_gutter_and_degrades_to_one_column() {
        let events = vec![TraceEvent {
            kind: EventKind::Send {
                dst: 0,
                bytes: 1,
                seq: 0,
            },
            start: SimTime(0),
            end: SimTime(100),
        }];
        // A generous terminal: every line fits the budget exactly or less.
        let art = render_timeline_fit(std::slice::from_ref(&events), 40);
        assert!(art
            .lines()
            .filter(|l| l.starts_with("rank"))
            .all(|l| l.len() <= 40));
        assert!(art.contains(&"s".repeat(40 - TIMELINE_GUTTER - 2)));
        // A terminal narrower than the gutter: saturates to one column
        // instead of underflowing.
        let art = render_timeline_fit(std::slice::from_ref(&events), 3);
        assert!(art.contains("rank   0 |s|"), "{art}");
    }
}
