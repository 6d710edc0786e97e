//! Writer ↔ reader agreement: any `Json` tree written with `JsonWriter`
//! reads back equal through `parse_json`. This is the test of the writer
//! itself; the per-artifact goldens pin what the exports put into it.

use ncd_simnet::{parse_json, Json, JsonWriter};
use proptest::prelude::*;

fn write(w: &mut JsonWriter, v: &Json) {
    match v {
        Json::Null => w.value(()),
        Json::Bool(b) => w.value(b),
        Json::Num(n) => w.value(n),
        Json::Str(s) => w.value(s),
        Json::Arr(items) => w.array(|w| items.iter().for_each(|i| write(w, i))),
        Json::Obj(fields) => w.object(|w| {
            for (k, v) in fields {
                w.key(k);
                write(w, v);
            }
        }),
    };
}

fn written(v: &Json) -> String {
    let mut w = JsonWriter::new();
    write(&mut w, v);
    w.finish()
}

/// Strings of the characters the escaper has to get right: quotes,
/// backslashes, control characters, plain ASCII, non-ASCII, astral.
fn string() -> impl Strategy<Value = String> {
    let scalar = |r: std::ops::Range<u32>| r.prop_map(|c| char::from_u32(c).expect("a scalar"));
    let ch = prop_oneof![
        Just('"'),
        Just('\\'),
        scalar(0..0x20),
        scalar(0x20..0x7f),
        scalar(0xa0..0x800),
        scalar(0x1_0000..0x1_1000),
    ];
    proptest::collection::vec(ch, 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn tree() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-(1i64 << 53)..(1i64 << 53) + 1).prop_map(|i| Json::Num(i as f64)),
        (0u64..u64::MAX)
            .prop_map(f64::from_bits)
            .prop_map(|f| Json::Num(if f.is_finite() { f } else { 0.5 })),
        string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 5, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Json::Arr),
            proptest::collection::vec((string(), inner), 0..5).prop_map(Json::Obj),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn what_the_writer_writes_the_reader_reads(v in tree()) {
        let text = written(&v);
        prop_assert_eq!(parse_json(&text), Ok(v), "{}", text);
    }
}

/// The escapes the goldens and run ids depend on, byte for byte.
#[test]
fn fixed_strings_escape_as_before_and_round_trip() {
    for (raw, escaped) in [
        ("plain", "\"plain\""),
        ("a\"b\\c", "\"a\\\"b\\\\c\""),
        ("x\n\t", "\"x\\n\\t\""),
        ("\u{1}", "\"\\u0001\""),
        ("\r\u{1f}é→\u{1f600}", "\"\\r\\u001fé→\u{1f600}\""),
    ] {
        let v = Json::Str(raw.to_string());
        assert_eq!(written(&v), escaped);
        assert_eq!(parse_json(escaped), Ok(v));
    }
    // Non-finite numbers and absent values are null; floats print in
    // shortest round-trip form.
    let mut w = JsonWriter::new();
    w.array(|w| {
        w.value(f64::NAN).value(f64::INFINITY).value(None::<u64>);
        w.value(1.0).value(2.5).value(-0.0).value(1e21);
    });
    assert_eq!(
        w.finish(),
        "[null,null,null,1,2.5,-0,1000000000000000000000]"
    );
}
