//! Writer ↔ reader agreement: any `Json` tree written with `JsonWriter`
//! reads back equal through `parse_json`. This is the test of the writer
//! itself; the per-artifact goldens pin what the exports put into it.

use ncd_simnet::{parse_json, Json, JsonWriter};
use proptest::prelude::*;

#[path = "common/json_tree.rs"]
mod json_tree;
use json_tree::{tree, written};

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
