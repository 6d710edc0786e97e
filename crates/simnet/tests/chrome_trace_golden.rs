//! Golden-file test for the Chrome trace exporter: the serializer promises
//! byte-stable output (fixed field order, fixed timestamp formatting), so
//! a fixed fixture must serialize to exactly the committed golden file —
//! and that file must be well-formed JSON, verified by a tiny hand-rolled
//! parser (no serde in this workspace).

use ncd_simnet::{chrome_trace_json, EventKind, SimTime, TraceEvent};

/// A minimal recursive-descent JSON well-formedness checker. Returns the
/// number of values parsed inside `traceEvents` if the document is a valid
/// JSON object; panics with a position on malformed input.
mod json {
    pub struct Parser<'a> {
        s: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        pub fn new(s: &'a str) -> Self {
            Parser {
                s: s.as_bytes(),
                pos: 0,
            }
        }

        pub fn parse_document(mut self) -> Value {
            let v = self.parse_value();
            self.skip_ws();
            assert_eq!(self.pos, self.s.len(), "trailing bytes at {}", self.pos);
            v
        }

        fn peek(&self) -> u8 {
            assert!(self.pos < self.s.len(), "unexpected end of input");
            self.s[self.pos]
        }

        fn bump(&mut self) -> u8 {
            let c = self.peek();
            self.pos += 1;
            c
        }

        fn skip_ws(&mut self) {
            while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
        }

        fn expect(&mut self, c: u8) {
            let got = self.bump();
            assert_eq!(
                got as char,
                c as char,
                "expected '{}' at {}",
                c as char,
                self.pos - 1
            );
        }

        fn parse_value(&mut self) -> Value {
            self.skip_ws();
            match self.peek() {
                b'{' => self.parse_object(),
                b'[' => self.parse_array(),
                b'"' => Value::String(self.parse_string()),
                b't' | b'f' | b'n' => self.parse_keyword(),
                _ => self.parse_number(),
            }
        }

        fn parse_object(&mut self) -> Value {
            self.expect(b'{');
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == b'}' {
                self.bump();
                return Value::Object(fields);
            }
            loop {
                self.skip_ws();
                let key = self.parse_string();
                self.skip_ws();
                self.expect(b':');
                let val = self.parse_value();
                fields.push((key, val));
                self.skip_ws();
                match self.bump() {
                    b',' => continue,
                    b'}' => return Value::Object(fields),
                    c => panic!("expected ',' or '}}' got '{}' at {}", c as char, self.pos),
                }
            }
        }

        fn parse_array(&mut self) -> Value {
            self.expect(b'[');
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == b']' {
                self.bump();
                return Value::Array(items);
            }
            loop {
                items.push(self.parse_value());
                self.skip_ws();
                match self.bump() {
                    b',' => continue,
                    b']' => return Value::Array(items),
                    c => panic!("expected ',' or ']' got '{}' at {}", c as char, self.pos),
                }
            }
        }

        fn parse_string(&mut self) -> String {
            self.expect(b'"');
            let mut out = String::new();
            loop {
                match self.bump() {
                    b'"' => return out,
                    b'\\' => match self.bump() {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = (self.bump() as char)
                                    .to_digit(16)
                                    .expect("hex digit in \\u escape");
                                code = code * 16 + d;
                            }
                            out.push(char::from_u32(code).expect("valid BMP scalar"));
                        }
                        c => panic!("bad escape '\\{}' at {}", c as char, self.pos),
                    },
                    c if c < 0x20 => panic!("raw control byte {c:#x} in string"),
                    c => {
                        // Reassemble UTF-8 multibyte sequences.
                        let len = match c {
                            0x00..=0x7f => 0,
                            0xc0..=0xdf => 1,
                            0xe0..=0xef => 2,
                            _ => 3,
                        };
                        let start = self.pos - 1;
                        for _ in 0..len {
                            self.bump();
                        }
                        out.push_str(
                            std::str::from_utf8(&self.s[start..self.pos]).expect("valid utf8"),
                        );
                    }
                }
            }
        }

        fn parse_keyword(&mut self) -> Value {
            for kw in ["true", "false", "null"] {
                if self.s[self.pos..].starts_with(kw.as_bytes()) {
                    self.pos += kw.len();
                    return Value::Keyword;
                }
            }
            panic!("bad keyword at {}", self.pos);
        }

        fn parse_number(&mut self) -> Value {
            let start = self.pos;
            if self.peek() == b'-' {
                self.bump();
            }
            while self.pos < self.s.len()
                && (self.s[self.pos].is_ascii_digit() || b".eE+-".contains(&self.s[self.pos]))
            {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.pos]).expect("ascii number");
            Value::Number(text.parse().unwrap_or_else(|_| {
                panic!("bad number '{text}' at {start}");
            }))
        }
    }

    #[derive(Debug)]
    pub enum Value {
        Object(Vec<(String, Value)>),
        Array(Vec<Value>),
        String(String),
        Number(f64),
        Keyword,
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_array(&self) -> &[Value] {
            match self {
                Value::Array(items) => items,
                other => panic!("expected array, got {other:?}"),
            }
        }

        pub fn as_str(&self) -> &str {
            match self {
                Value::String(s) => s,
                other => panic!("expected string, got {other:?}"),
            }
        }

        pub fn as_f64(&self) -> f64 {
            match self {
                Value::Number(n) => *n,
                other => panic!("expected number, got {other:?}"),
            }
        }
    }
}

/// The fixture: a deterministic 2-rank exchange with every event kind.
fn fixture() -> Vec<Vec<TraceEvent>> {
    let ev = |kind, start, end| TraceEvent {
        kind,
        start: SimTime(start),
        end: SimTime(end),
    };
    vec![
        vec![
            ev(
                EventKind::Send {
                    dst: 1,
                    bytes: 256,
                    seq: 0,
                },
                100,
                1_300,
            ),
            ev(
                EventKind::Round {
                    op: "allgatherv/ring",
                    round: 0,
                },
                2_000,
                2_000,
            ),
            ev(
                EventKind::PackBlock {
                    engine: "single-context",
                    index: 2,
                    sparse: true,
                    seek: 16,
                    lookahead: 4,
                    bytes: 48,
                },
                2_100,
                2_300,
            ),
            ev(
                EventKind::SendWait {
                    residual: SimTime(700),
                },
                2_300,
                3_000,
            ),
        ],
        vec![
            ev(
                EventKind::IrecvPost {
                    src: Some(0),
                    tag: 42,
                },
                50,
                50,
            ),
            ev(
                EventKind::Recv {
                    src: 0,
                    bytes: 256,
                    seq: 0,
                    wait: SimTime(945),
                },
                100,
                2_345,
            ),
        ],
    ]
}

const GOLDEN: &str = include_str!("golden/chrome_trace.json");

/// Regenerate the golden file after an intentional format change:
/// `cargo test -p ncd-simnet --test chrome_trace_golden -- --ignored`
#[test]
#[ignore = "writes the golden file; run explicitly after format changes"]
fn regenerate_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace.json"
    );
    std::fs::write(path, chrome_trace_json(&fixture()) + "\n").expect("write golden");
}

#[test]
fn exporter_output_is_byte_stable() {
    let json = chrome_trace_json(&fixture());
    assert_eq!(
        json,
        GOLDEN.trim_end(),
        "exporter output diverged from tests/golden/chrome_trace.json; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn exporter_output_is_well_formed_json() {
    let json = chrome_trace_json(&fixture());
    let doc = json::Parser::new(&json).parse_document();
    let events = doc
        .get("traceEvents")
        .expect("traceEvents field")
        .as_array();
    // 1 process_name + 2 thread_name metadata + 5 fixture events, plus the
    // pack block's span + its seek counter sample.
    assert_eq!(events.len(), 10);
    assert_eq!(
        doc.get("displayTimeUnit").expect("display unit").as_str(),
        "ns"
    );
    // The round instant's label round-trips through the parser.
    let round = events
        .iter()
        .find(|e| matches!(e.get("ph"), Some(v) if v.as_str() == "i" && e.get("cat").unwrap().as_str() == "round"))
        .expect("round event present");
    assert_eq!(
        round.get("name").expect("name").as_str(),
        "allgatherv/ring round 0"
    );
    assert!((round.get("ts").expect("ts").as_f64() - 2.0).abs() < 1e-9);
    // The pack block exports both a span and a "C" counter sample that
    // plots the seek distance as its own track.
    let counter = events
        .iter()
        .find(|e| matches!(e.get("ph"), Some(v) if v.as_str() == "C"))
        .expect("pack seek counter event present");
    assert_eq!(
        counter.get("name").expect("name").as_str(),
        "pack seek (rank 0)"
    );
    assert_eq!(
        counter
            .get("args")
            .expect("args")
            .get("seek")
            .expect("seek")
            .as_f64(),
        16.0
    );
    // The request-lifetime kinds are present: the irecv post as a
    // thread-scoped instant on rank 1, the send drain as a span with its
    // residual in args.
    let post = events
        .iter()
        .find(|e| matches!(e.get("cat"), Some(v) if v.as_str() == "request" && e.get("ph").unwrap().as_str() == "i"))
        .expect("irecv post event present");
    assert_eq!(
        post.get("name").expect("name").as_str(),
        "irecv posted (src 0)"
    );
    assert_eq!(post.get("tid").expect("tid").as_f64(), 1.0);
    let drain = events
        .iter()
        .find(|e| matches!(e.get("name"), Some(v) if v.as_str() == "send drain"))
        .expect("send drain event present");
    assert_eq!(drain.get("ph").expect("ph").as_str(), "X");
    // Timestamps are µs with ns precision: the drain starts at 2300ns = 2.3µs.
    assert!((drain.get("ts").expect("ts").as_f64() - 2.3).abs() < 1e-9);
    assert_eq!(
        drain
            .get("args")
            .expect("args")
            .get("residual_ns")
            .expect("residual_ns")
            .as_f64(),
        700.0
    );
    // Every event carries the mandatory fields, all in the one process.
    for e in events {
        assert!(e.get("ph").is_some(), "event without ph: {e:?}");
        assert_eq!(e.get("pid").expect("pid").as_f64(), 0.0);
    }
}

#[test]
fn cluster_run_trace_parses() {
    // End-to-end: a real 4-rank cluster exchange exports to valid JSON.
    use ncd_simnet::{Cluster, ClusterConfig, Observers, Tag};
    let trace = Observers {
        trace: true,
        ..Observers::NONE
    };
    let cluster = Cluster::new(ClusterConfig::uniform(4).observe(trace));
    let (_, capture) = cluster
        .try_run(|rank| {
            let me = rank.rank();
            let right = (me + 1) % 4;
            let left = (me + 3) % 4;
            rank.send_bytes(right, Tag(0), vec![0u8; 512]);
            let _ = rank.recv_bytes(Some(left), Tag(0));
        })
        .unwrap();
    let json = chrome_trace_json(&capture.traces.expect("traced"));
    let doc = json::Parser::new(&json).parse_document();
    let events = doc.get("traceEvents").expect("traceEvents").as_array();
    // 1 process + 4 threads metadata + 4*(send+recv).
    assert_eq!(events.len(), 5 + 8);
}
