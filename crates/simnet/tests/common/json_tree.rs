//! The document generator of the JSON tests: random `Json` trees and the
//! writer's rendering of them. Shared by `tests/json_roundtrip.rs` (writer
//! → reader) and `json::tests` in the library (reader against its
//! oracle); each includes this file beside its own `Json` / `JsonWriter`
//! imports.

use super::{Json, JsonWriter};
use proptest::prelude::*;

pub fn write(w: &mut JsonWriter, v: &Json) {
    match v {
        Json::Null => w.value(()),
        Json::Bool(b) => w.value(b),
        Json::Num(n) => w.value(n),
        Json::Str(s) => w.value(s),
        Json::Arr(items) => w.array(|w| items.iter().for_each(|i| write(w, i))),
        Json::Obj(fields) => w.object(|w| {
            for (k, v) in fields.iter() {
                w.key(k);
                write(w, v);
            }
        }),
    };
}

pub fn written(v: &Json) -> String {
    let mut w = JsonWriter::new();
    write(&mut w, v);
    w.finish()
}

/// Strings of the characters the escaper has to get right: quotes,
/// backslashes, control characters, plain ASCII, non-ASCII, astral.
pub fn string() -> impl Strategy<Value = String> {
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

pub fn tree() -> impl Strategy<Value = Json> {
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
            proptest::collection::vec(inner.clone(), 0..5)
                .prop_map(|items| Json::Arr(items.into())),
            proptest::collection::vec((string(), inner), 0..5).prop_map(|fields| Json::Obj(
                fields.into_iter().map(|(k, v)| (k.into(), v)).collect()
            )),
        ]
    })
}
