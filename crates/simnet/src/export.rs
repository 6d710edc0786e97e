//! Machine-readable exports that are written and never read back: Chrome
//! trace-event JSON for per-rank timelines. (A ledger artifact's writer lives with its reader, beside the type:
//! [`crate::metrics`], [`crate::commmap`], [`crate::analysis`],
//! [`crate::diagnosis`].)
//!
//! The trace output follows the Chrome trace-event format (the JSON array
//! flavour inside a `traceEvents` object) and loads directly into
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev): one *thread*
//! per rank, complete (`"X"`) events for sends and receives,
//! instant (`"i"`) events for collective rounds. Timestamps are
//! microseconds of simulated time with nanosecond precision.
//!
//! Rendering goes through [`crate::json::JsonWriter`] as one template per
//! [`EventKind`]: every run of constant text between two values (keys,
//! punctuation, category and phase, the words of a name) is one
//! pre-escaped `&'static str`, integers and timestamps are written as
//! digits, and only the label values (round names, engine and decision
//! strings) are scanned for escapes. The event field order is `name, cat, ph, ts, dur, pid, tid,
//! s, args`.

use crate::json::JsonWriter;
use crate::trace::{EventKind, TraceEvent};

/// Bytes reserved per trace event: a complete event with four args runs
/// ~130 bytes, an instant ~90.
const EVENT_BYTES: usize = 128;

/// Serialize per-rank traces (indexed by rank, as a traced run's
/// [`crate::Capture::traces`] holds them) into Chrome trace-event JSON.
pub fn chrome_trace_json(traces: &[Vec<TraceEvent>]) -> String {
    let events: usize = traces.iter().map(Vec::len).sum();
    let mut w = JsonWriter::with_capacity((1 + traces.len() + events) * EVENT_BYTES);
    // Metadata: name the process and one thread per rank, so the viewer
    // shows "rank N" lanes in order. The process entry comes first, so
    // every later entry opens with its `,`.
    w.text(concat!(
        r#"{"traceEvents":["#,
        r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"simnet"}}"#
    ));
    for rank in 0..traces.len() as u64 {
        w.text(r#",{"name":"thread_name","ph":"M","pid":0,"tid":"#)
            .digits(rank)
            .text(r#","args":{"name":"rank "#)
            .digits(rank)
            .text(r#""}}"#);
    }
    for (rank, events) in (0u64..).zip(traces) {
        for e in events {
            trace_event(&mut w, rank, e);
        }
    }
    w.text(r#"],"displayTimeUnit":"ns"}"#);
    w.finish()
}

/// Opens every event after the metadata, up to the first character of
/// its name.
const NAME: &str = r#",{"name":""#;

/// The constant text from the end of an event's name to its `ts` value.
macro_rules! cat_ph {
    ($cat:literal, $ph:literal) => {
        concat!(r#"","cat":""#, $cat, r#"","ph":""#, $ph, r#"","ts":"#)
    };
}

/// One trace event as its Chrome event(s), from its kind's template.
///
/// Phases: complete (`"X"`) events span `start..end` on the rank's lane
/// and are the only lane events carrying args; instants (`"i"`) mark a
/// point on the lane (`"s":"t"` scopes them to the thread); counter
/// (`"C"`) events form one sampled per-process track per name.
fn trace_event(w: &mut JsonWriter, rank: u64, e: &TraceEvent) {
    // Simulated time as microseconds with nanosecond precision.
    let (ts, dur) = (e.start.as_ns(), e.duration().as_ns());
    // `cat_ph` text, then `T,"dur":D,"pid":0,"tid":R`; the caller writes
    // the args (if any) and closes the object.
    let complete = |w: &mut JsonWriter, cat_ph: &'static str| {
        w.text(cat_ph)
            .thousandths(ts)
            .text(r#","dur":"#)
            .thousandths(dur)
            .text(r#","pid":0,"tid":"#)
            .digits(rank);
    };
    // An instant is whole once its time and lane are written.
    let instant = |w: &mut JsonWriter, cat_ph: &'static str| {
        w.text(cat_ph)
            .thousandths(ts)
            .text(r#","pid":0,"tid":"#)
            .digits(rank)
            .text(r#","s":"t"}"#);
    };
    match &e.kind {
        EventKind::Send { dst, bytes, seq } => {
            w.text(r#",{"name":"send to "#).digits(*dst as u64);
            complete(w, cat_ph!("comm", "X"));
            let args = [
                (r#","args":{"dst":"#, *dst as u64),
                (r#","bytes":"#, *bytes as u64),
                (r#","seq":"#, *seq),
            ];
            ints(w, &args).text("}}");
        }
        EventKind::Recv {
            src,
            bytes,
            seq,
            wait,
        } => {
            w.text(r#",{"name":"recv from "#).digits(*src as u64);
            complete(w, cat_ph!("comm", "X"));
            let args = [
                (r#","args":{"src":"#, *src as u64),
                (r#","bytes":"#, *bytes as u64),
                (r#","seq":"#, *seq),
                (r#","wait_ns":"#, wait.as_ns()),
            ];
            ints(w, &args).text("}}");
        }
        EventKind::Round { op, round } => {
            w.text(NAME).escaped(op).text(" round ");
            w.digits(u64::from(*round));
            instant(w, cat_ph!("round", "i"));
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
            w.text(r#",{"name":"pack "#).escaped(engine).text(" block ");
            w.digits(*index);
            complete(w, cat_ph!("datatype", "X"));
            w.text(r#","args":{"engine":""#).escaped(engine);
            w.text(if *sparse {
                r#"","sparse":true"#
            } else {
                r#"","sparse":false"#
            });
            let args = [
                (r#","seek":"#, *seek),
                (r#","lookahead":"#, *lookahead),
                (r#","bytes":"#, *bytes),
            ];
            ints(w, &args).text("}}");
            // ...plus a counter track sampling the seek cost, so
            // single-cursor runs show a growing staircase while
            // dual-context stays flat at zero. The rank goes into the
            // name to keep one track per rank.
            w.text(r#",{"name":"pack seek (rank "#).digits(rank);
            w.text(concat!(")", cat_ph!("datatype", "C")))
                .thousandths(ts);
            let args = [
                (r#","pid":0,"args":{"seek":"#, *seek),
                (r#","lookahead":"#, *lookahead),
            ];
            ints(w, &args).text("}}");
        }
        EventKind::IrecvPost { src: Some(s), .. } => {
            w.text(r#",{"name":"irecv posted (src "#).digits(*s as u64);
            instant(w, concat!(")", cat_ph!("request", "i")));
        }
        EventKind::IrecvPost { src: None, .. } => instant(
            w,
            concat!(
                r#",{"name":"irecv posted (any src)"#,
                cat_ph!("request", "i")
            ),
        ),
        EventKind::SendWait { residual } => {
            complete(
                w,
                concat!(r#",{"name":"send drain"#, cat_ph!("request", "X")),
            );
            ints(w, &[(r#","args":{"residual_ns":"#, residual.as_ns())]).text("}}");
        }
        // Decisions are zero-duration complete events rather than
        // instants: the reason string is the point, and only "X" events
        // carry args here.
        EventKind::AlgoDecision {
            collective,
            n,
            total_bytes,
            ratio_millis,
            pow2,
            chosen,
            reason,
        } => {
            w.text(NAME)
                .escaped(collective)
                .text(" -> ")
                .escaped(chosen);
            complete(w, cat_ph!("decision", "X"));
            let args = [
                (r#","args":{"n":"#, *n as u64),
                (r#","total_bytes":"#, *total_bytes),
                (r#","ratio_millis":"#, *ratio_millis),
            ];
            ints(w, &args).text(if *pow2 {
                r#","pow2":true,"reason":""#
            } else {
                r#","pow2":false,"reason":""#
            });
            w.escaped(reason).text(r#""}}"#);
        }
    }
}

/// Each value's digits after the constant text that leads up to it.
fn ints<'w>(w: &'w mut JsonWriter, fields: &[(&'static str, u64)]) -> &'w mut JsonWriter {
    for &(text, n) in fields {
        w.text(text).digits(n);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::fmt;

    use crate::json::tests::{any_text, any_u64, fmt_oracle};
    use crate::json::JsonValue;
    use crate::time::SimTime;
    use proptest::prelude::*;

    /// The export as it was before the per-kind templates: one `emit`
    /// closure over a name, category, phase and a `&dyn JsonValue` arg
    /// table, every key and literal written through `JsonWriter`'s
    /// escaping field calls, timestamps through [`Ts`]. The byte-for-byte
    /// oracle of [`chrome_trace_json`].
    mod oracle {
        use super::*;

        type Arg<'a> = (&'a str, &'a dyn JsonValue);

        pub(super) fn chrome_trace_json(traces: &[Vec<TraceEvent>]) -> String {
            let meta =
                |w: &mut JsonWriter, what: &str, tid: Option<usize>, name: fmt::Arguments<'_>| {
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
            let mut w = JsonWriter::new();
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

        fn trace_event(w: &mut JsonWriter, rank: usize, e: &TraceEvent) {
            let mut emit = |name: fmt::Arguments<'_>, cat: &str, ph: &str, args: &[Arg<'_>]| {
                w.object(|w| {
                    w.field("name", name).field("cat", cat).field("ph", ph);
                    w.key("ts").number(Ts(e.start));
                    if ph == "X" {
                        w.key("dur").number(Ts(e.end.saturating_sub(e.start)));
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
            }
        }
    }

    /// A label with every class of byte the escaper treats differently:
    /// a literal, or text built at run time and leaked to `'static`.
    fn any_label() -> impl Strategy<Value = &'static str> {
        prop_oneof![
            Just("allgatherv/ring"),
            any_text().prop_map(|text| &*Box::leak(text.into_boxed_str())),
        ]
    }

    fn any_u32() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), Just(u32::MAX), 0u32..u32::MAX]
    }

    /// Any event of any kind, with extreme integers and times.
    fn any_event() -> impl Strategy<Value = TraceEvent> {
        let small = || prop_oneof![Just(0usize), Just(usize::MAX), 0usize..1 << 16];
        let kind = prop_oneof![
            (small(), small(), any_u64()).prop_map(|(dst, bytes, seq)| EventKind::Send {
                dst,
                bytes,
                seq
            }),
            (small(), small(), any_u64(), any_u64()).prop_map(|(src, bytes, seq, w)| {
                EventKind::Recv {
                    src,
                    bytes,
                    seq,
                    wait: SimTime(w),
                }
            }),
            (any_label(), any_u32()).prop_map(|(op, round)| EventKind::Round { op, round }),
            (
                any_label(),
                any_u64(),
                any::<bool>(),
                any_u64(),
                any_u64(),
                any_u64()
            )
                .prop_map(|(engine, index, sparse, seek, lookahead, bytes)| {
                    EventKind::PackBlock {
                        engine,
                        index,
                        sparse,
                        seek,
                        lookahead,
                        bytes,
                    }
                }),
            (prop_oneof![Just(None), small().prop_map(Some)], any_u32())
                .prop_map(|(src, tag)| EventKind::IrecvPost { src, tag }),
            any_u64().prop_map(|r| EventKind::SendWait {
                residual: SimTime(r)
            }),
            (
                any_label(),
                small(),
                (any_u64(), any_u64()),
                any::<bool>(),
                any_label(),
                any_label()
            )
                .prop_map(
                    |(collective, n, (total_bytes, ratio_millis), pow2, chosen, reason)| {
                        EventKind::AlgoDecision {
                            collective,
                            n,
                            total_bytes,
                            ratio_millis,
                            pow2,
                            chosen,
                            reason,
                        }
                    }
                ),
        ];
        (kind, any_u64(), any_u64()).prop_map(|(kind, a, b)| TraceEvent {
            kind,
            start: SimTime(a.min(b)),
            end: SimTime(a.max(b)),
        })
    }

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

        #[test]
        fn templates_write_what_the_emit_closure_wrote(
            traces in proptest::collection::vec(proptest::collection::vec(any_event(), 0..12), 0..4),
        ) {
            prop_assert_eq!(chrome_trace_json(&traces), oracle::chrome_trace_json(&traces));
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
                kind: EventKind::Round {
                    op: "allgatherv/ring",
                    round: 3,
                },
                start: SimTime(500),
                end: SimTime(500),
            },
            TraceEvent {
                kind: EventKind::PackBlock {
                    engine: "single-context",
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
                    collective: "allgatherv",
                    n: 16,
                    total_bytes: 65_664,
                    ratio_millis: 8_192_000,
                    pow2: true,
                    chosen: "recursive_doubling",
                    reason: "outliers: adaptive short-message path",
                },
                start: SimTime(450),
                end: SimTime(450),
            },
        ];
        let json = chrome_trace_json(&[events]);
        assert!(json.contains("\"name\":\"send to 1\""));
        assert!(json.contains("\"name\":\"recv from 1\""));
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
    }
}
