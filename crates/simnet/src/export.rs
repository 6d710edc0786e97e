//! Machine-readable exports that are written and never read back: Chrome
//! trace-event JSON for per-rank timelines. (A ledger artifact's writer lives with its reader, beside the type:
//! [`crate::metrics`], [`crate::commmap`], [`crate::analysis`],
//! [`crate::diagnosis`].)
//!
//! The trace output follows the Chrome trace-event format (the JSON array
//! flavour inside a `traceEvents` object) and loads directly into
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev): one *thread*
//! per rank, complete (`"X"`) events for sends/receives/profiling spans,
//! instant (`"i"`) events for marks and collective rounds. Timestamps are
//! microseconds of simulated time with nanosecond precision.
//!
//! Rendering goes through [`crate::json::JsonWriter`]; the event field
//! order is `name, cat, ph, ts, dur, pid, tid, s, args`.

use std::fmt;

use crate::json::{JsonValue, JsonWriter};
use crate::trace::{EventKind, TraceEvent};

/// Bytes reserved per trace event: a complete event with four args runs
/// ~130 bytes, an instant ~90.
const EVENT_BYTES: usize = 128;

/// One `"key":value` of an event's `args`.
type Arg<'a> = (&'a str, &'a dyn JsonValue);

/// Serialize per-rank traces (indexed by rank, as returned by
/// [`crate::Cluster::run`] collecting [`crate::Rank::take_trace`]) into
/// Chrome trace-event JSON.
pub fn chrome_trace_json(traces: &[Vec<TraceEvent>]) -> String {
    // Metadata: name the process and one thread per rank, so the viewer
    // shows "rank N" lanes in order.
    let meta = |w: &mut JsonWriter, what: &str, tid: Option<usize>, name: fmt::Arguments<'_>| {
        w.object(|w| {
            w.field("name", what).field("ph", "M").field("pid", 0);
            if let Some(tid) = tid {
                w.field("tid", tid);
            }
            w.key("args").object(|w| {
                w.field("name", name);
            });
        });
    };
    let events: usize = traces.iter().map(Vec::len).sum();
    let mut w = JsonWriter::with_capacity((1 + traces.len() + events) * EVENT_BYTES);
    w.object(|w| {
        w.key("traceEvents").array(|w| {
            meta(w, "process_name", None, format_args!("simnet"));
            for rank in 0..traces.len() {
                meta(w, "thread_name", Some(rank), format_args!("rank {rank}"));
            }
            for (rank, events) in traces.iter().enumerate() {
                for e in events {
                    trace_event(w, rank, e);
                }
            }
        });
        w.field("displayTimeUnit", "ns");
    });
    w.finish()
}

/// One trace event as its Chrome event(s): every kind is a name, a
/// category, a phase and its `args`.
fn trace_event(w: &mut JsonWriter, rank: usize, e: &TraceEvent) {
    // Phases: complete ("X") events span `start..end` on the rank's lane
    // and are the only lane events carrying args; instants ("i") mark a
    // point on the lane ("s":"t" scopes them to the thread); counter ("C")
    // events form one sampled per-process track per name.
    let mut emit = |name: fmt::Arguments<'_>, cat: &str, ph: &str, args: &[Arg<'_>]| {
        w.object(|w| {
            w.field("name", name).field("cat", cat).field("ph", ph);
            // Simulated time as microseconds with nanosecond precision.
            w.key("ts").thousandths(e.start.as_ns());
            if ph == "X" {
                w.key("dur")
                    .thousandths(e.end.saturating_sub(e.start).as_ns());
            }
            w.field("pid", 0);
            if ph != "C" {
                w.field("tid", rank);
            }
            if ph == "i" {
                w.field("s", "t");
            }
            if !args.is_empty() {
                w.key("args").object(|w| {
                    for (key, value) in args {
                        w.field(key, value);
                    }
                });
            }
        });
    };
    match &e.kind {
        EventKind::Send { dst, bytes, seq } => emit(
            format_args!("send to {dst}"),
            "comm",
            "X",
            &[("dst", dst), ("bytes", bytes), ("seq", seq)],
        ),
        EventKind::Recv {
            src,
            bytes,
            seq,
            wait,
        } => emit(
            format_args!("recv from {src}"),
            "comm",
            "X",
            &[
                ("src", src),
                ("bytes", bytes),
                ("seq", seq),
                ("wait_ns", &wait.as_ns()),
            ],
        ),
        EventKind::Span { name } => emit(format_args!("{name}"), "stage", "X", &[]),
        EventKind::Mark { label } => emit(format_args!("{label}"), "mark", "i", &[]),
        EventKind::Round { op, round } => {
            emit(format_args!("{op} round {round}"), "round", "i", &[])
        }
        EventKind::PackBlock {
            engine,
            index,
            sparse,
            seek,
            lookahead,
            bytes,
        } => {
            // The block itself as a span on the rank's lane...
            emit(
                format_args!("pack {engine} block {index}"),
                "datatype",
                "X",
                &[
                    ("engine", engine),
                    ("sparse", sparse),
                    ("seek", seek),
                    ("lookahead", lookahead),
                    ("bytes", bytes),
                ],
            );
            // ...plus a counter track sampling the seek cost, so
            // single-cursor runs show a growing staircase while
            // dual-context stays flat at zero. The rank goes into the
            // name to keep one track per rank.
            emit(
                format_args!("pack seek (rank {rank})"),
                "datatype",
                "C",
                &[("seek", seek), ("lookahead", lookahead)],
            );
        }
        EventKind::IrecvPost { src: Some(s), .. } => {
            emit(format_args!("irecv posted (src {s})"), "request", "i", &[])
        }
        EventKind::IrecvPost { src: None, .. } => {
            emit(format_args!("irecv posted (any src)"), "request", "i", &[])
        }
        EventKind::SendWait { residual } => emit(
            format_args!("send drain"),
            "request",
            "X",
            &[("residual_ns", &residual.as_ns())],
        ),
        // Decisions and drift flags are zero-duration complete events
        // rather than instants: the reason string and the shift evidence
        // are the point, and only "X" events carry args here.
        EventKind::AlgoDecision {
            collective,
            n,
            total_bytes,
            ratio_millis,
            pow2,
            chosen,
            reason,
        } => emit(
            format_args!("{collective} -> {chosen}"),
            "decision",
            "X",
            &[
                ("n", n),
                ("total_bytes", total_bytes),
                ("ratio_millis", ratio_millis),
                ("pow2", pow2),
                ("reason", reason),
            ],
        ),
        EventKind::Drift {
            label,
            metric,
            occurrence,
            up,
            baseline_millis,
            observed_millis,
        } => emit(
            format_args!("drift {label} {metric}"),
            "drift",
            "X",
            &[
                ("label", label),
                ("metric", metric),
                ("occurrence", occurrence),
                ("up", up),
                ("baseline_millis", baseline_millis),
                ("observed_millis", observed_millis),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::json::tests::{any_u64, fmt_oracle};
    use crate::time::SimTime;
    use proptest::prelude::*;

    /// The timestamp as it was formatted before it became two integer
    /// writes: the oracle of [`JsonWriter::thousandths`].
    struct Ts(SimTime);

    impl fmt::Display for Ts {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "{}.{:03}",
                self.0.as_ns() / 1_000,
                self.0.as_ns() % 1_000
            )
        }
    }

    fn ts(t: SimTime) -> String {
        let mut w = JsonWriter::new();
        w.thousandths(t.as_ns());
        w.finish()
    }

    #[test]
    fn ts_is_us_with_ns_precision() {
        assert_eq!(ts(SimTime(0)), "0.000");
        assert_eq!(ts(SimTime(1)), "0.001");
        assert_eq!(ts(SimTime(1_234)), "1.234");
        assert_eq!(ts(SimTime(5_000_042)), "5000.042");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn timestamps_match_the_fmt_writer(ns in any_u64()) {
            prop_assert_eq!(ts(SimTime(ns)), fmt_oracle::number(Ts(SimTime(ns))));
        }
    }

    #[test]
    fn empty_trace_has_only_metadata() {
        let json = chrome_trace_json(&[]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ns\"}"));
        assert!(json.contains("process_name"));
        assert!(!json.contains("thread_name"));
    }

    #[test]
    fn every_kind_serializes() {
        let events = vec![
            TraceEvent {
                kind: EventKind::Send {
                    dst: 1,
                    bytes: 64,
                    seq: 7,
                },
                start: SimTime(0),
                end: SimTime(1_000),
            },
            TraceEvent {
                kind: EventKind::Recv {
                    src: 1,
                    bytes: 64,
                    seq: 7,
                    wait: SimTime(250),
                },
                start: SimTime(1_000),
                end: SimTime(2_000),
            },
            TraceEvent {
                kind: EventKind::Mark {
                    label: "phase".into(),
                },
                start: SimTime(2_000),
                end: SimTime(2_000),
            },
            TraceEvent {
                kind: EventKind::Span {
                    name: "solve/smooth".into(),
                },
                start: SimTime(0),
                end: SimTime(2_000),
            },
            TraceEvent {
                kind: EventKind::Round {
                    op: "allgatherv/ring".into(),
                    round: 3,
                },
                start: SimTime(500),
                end: SimTime(500),
            },
            TraceEvent {
                kind: EventKind::PackBlock {
                    engine: "single-context".into(),
                    index: 2,
                    sparse: true,
                    seek: 16,
                    lookahead: 4,
                    bytes: 48,
                },
                start: SimTime(100),
                end: SimTime(300),
            },
            TraceEvent {
                kind: EventKind::IrecvPost {
                    src: Some(1),
                    tag: 9,
                },
                start: SimTime(400),
                end: SimTime(400),
            },
            TraceEvent {
                kind: EventKind::IrecvPost { src: None, tag: 9 },
                start: SimTime(410),
                end: SimTime(410),
            },
            TraceEvent {
                kind: EventKind::SendWait {
                    residual: SimTime(600),
                },
                start: SimTime(2_000),
                end: SimTime(2_600),
            },
            TraceEvent {
                kind: EventKind::AlgoDecision {
                    collective: "allgatherv".into(),
                    n: 16,
                    total_bytes: 65_664,
                    ratio_millis: 8_192_000,
                    pow2: true,
                    chosen: "recursive_doubling".into(),
                    reason: "outliers: adaptive short-message path".into(),
                },
                start: SimTime(450),
                end: SimTime(450),
            },
            TraceEvent {
                kind: EventKind::Drift {
                    label: "allgatherv/ring".into(),
                    metric: "bytes".into(),
                    occurrence: 6,
                    up: true,
                    baseline_millis: 4_096_000,
                    observed_millis: 65_536_000,
                },
                start: SimTime(470),
                end: SimTime(470),
            },
        ];
        let json = chrome_trace_json(&[events]);
        assert!(json.contains("\"name\":\"send to 1\""));
        assert!(json.contains("\"name\":\"recv from 1\""));
        assert!(json.contains("\"name\":\"phase\""));
        assert!(json.contains("\"name\":\"solve/smooth\""));
        assert!(json.contains("\"name\":\"allgatherv/ring round 3\""));
        assert!(json.contains("\"seq\":7"));
        assert!(json.contains("\"wait_ns\":250"));
        assert!(json.contains("\"tid\":0"));
        assert!(json.contains("\"dur\":1.000"));
        // PackBlock serializes as a span plus a counter sample.
        assert!(json.contains("\"name\":\"pack single-context block 2\""));
        assert!(json.contains("\"engine\":\"single-context\",\"sparse\":true,\"seek\":16,\"lookahead\":4,\"bytes\":48"));
        assert!(json.contains("\"name\":\"pack seek (rank 0)\",\"cat\":\"datatype\",\"ph\":\"C\""));
        // Request-lifetime kinds: irecv posts as instants, the drain as a
        // complete span carrying the residual.
        assert!(json.contains("\"name\":\"irecv posted (src 1)\",\"cat\":\"request\",\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"irecv posted (any src)\""));
        assert!(json.contains("\"name\":\"send drain\",\"cat\":\"request\",\"ph\":\"X\""));
        assert!(json.contains("\"residual_ns\":600"));
        // The decision audit: a zero-duration span carrying the reason.
        assert!(json.contains(
            "\"name\":\"allgatherv -> recursive_doubling\",\"cat\":\"decision\",\"ph\":\"X\""
        ));
        assert!(json.contains(
            "\"n\":16,\"total_bytes\":65664,\"ratio_millis\":8192000,\"pow2\":true,\"reason\":\"outliers: adaptive short-message path\""
        ));
        // Drift flags: zero-duration spans carrying the shift evidence.
        assert!(json
            .contains("\"name\":\"drift allgatherv/ring bytes\",\"cat\":\"drift\",\"ph\":\"X\""));
        assert!(json.contains(
            "\"label\":\"allgatherv/ring\",\"metric\":\"bytes\",\"occurrence\":6,\"up\":true,\"baseline_millis\":4096000,\"observed_millis\":65536000"
        ));
    }
}
