//! The workspace's JSON format, both directions: one streaming
//! [`JsonWriter`] every export renders through and the [`Json`] value
//! reader ([`parse_json`]) the ledger, the differential engine and the
//! reference gate (`--compare`) re-load artifacts with. No other module
//! decides how a byte of JSON looks.
//!
//! **What the writer emits.** Output is byte-stable — deterministic input
//! gives identical bytes, which is what the goldens and the content-hash
//! run ids rest on:
//!
//! * field and element order is call order; no whitespace anywhere;
//! * strings are escaped as they are written, in one scan over their
//!   bytes: `\"`, `\\`, `\n`, `\r`, `\t`, `\u00XX` for the other control
//!   characters, everything else (non-ASCII included) verbatim;
//! * integers are written as their decimal digits and `bool` as its
//!   literal, neither through `core::fmt`; `f64` prints through `Display`
//!   (Rust's shortest round-trip form);
//! * an absent value (`None`) and a non-finite `f64` are `null`;
//! * a versioned artifact leads with `"schema":`[`SCHEMA_VERSION`] —
//!   [`JsonWriter::schema_led`] is the one place that prefix is written.
//!
//! There is no pretty/compact, key-order or float-format switch.
//!
//! **What the reader accepts.** Standard JSON as above plus whitespace
//! between tokens, the `\/` escape and `\uXXXX` for any non-surrogate
//! scalar; nesting deeper than 64 levels is an error, not a stack
//! overflow. A raw control byte (below `0x20`) inside a string is refused
//! with its byte offset, as RFC 8259 §7 asks; the writer never emits one.
//! The `Result` accessors ([`Json::u64`], [`Json::str`], …) name the key
//! that is missing or has the wrong type.
//!
//! The tree is compact, because a trace export parses to millions of
//! nodes: a [`Json`] is 24 bytes, each array or object is one
//! allocation of exactly its children (collected on two stacks reused
//! for the whole parse), every object key is one `Arc<str>` shared
//! by all its occurrences in the document, and a string without escapes
//! is one copy of its bytes at exact capacity.
//!
//! **Where an artifact's reader lives.** Beside its writer: the module
//! that writes `comm.json` is the one that reads it back, into the type it
//! was written from (or, where the export drops fields, a summary type
//! declared there), so each key name is spelled in one module. Every such
//! reader starts with [`parse_schema_led`] — the check that the
//! `"schema"` [`JsonWriter::schema_led`] wrote is the one this build
//! reads — and is pinned by a writer → reader → writer round trip.

use std::collections::HashSet;
use std::fmt::{self, Display, Write as _};
use std::sync::Arc;

/// Format version stamped as the leading `"schema"` field of every
/// versioned export, so downstream tooling can detect format drift. Bump
/// on any breaking shape change and regenerate the goldens. (The Chrome
/// trace export follows the external trace-event format and is not
/// versioned here.)
pub const SCHEMA_VERSION: u32 = 1;

/// Deepest `[`/`{` nesting [`parse_json`] follows (the writers' deepest
/// artifact nests 5).
const MAX_DEPTH: usize = 64;

/// Streaming JSON writer: appends straight into one output `String`.
/// Containers take a closure that writes their contents, so brackets
/// balance and commas fall between siblings by construction.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// The next key or value at this level needs a `,` before it.
    comma: bool,
}

/// Append `s` to `out` as a JSON string body: one scan over the bytes,
/// copying the plain runs between the bytes that need an escape.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// `fmt::Write` adapter that escapes what passes through it into a JSON
/// string body (for names formatted from arguments).
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Append `n`'s decimal digits to `out`, each pushed as the ASCII `char`
/// it is (no UTF-8 check of the buffer).
fn digits_into(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(buf[at..].iter().map(|&d| char::from(d)));
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer whose output has room for `bytes` before it grows.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// A versioned artifact: the object `{"schema":SCHEMA_VERSION,…}`
    /// with `fields` writing everything after the version.
    pub fn schema_led(fields: impl FnOnce(&mut JsonWriter)) -> String {
        Self::versioned(SCHEMA_VERSION, fields)
    }

    /// [`JsonWriter::schema_led`] with the version a manifest was read
    /// with (re-serializing an old run must not claim the current one).
    pub fn versioned(schema: u32, fields: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.field("schema", schema);
            fields(w);
        });
        w.finish()
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    fn nested(&mut self, open: char, close: char, contents: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.comma = false;
        contents(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// `{…}` as the next value; `fields` writes its members.
    pub fn object(&mut self, fields: impl FnOnce(&mut Self)) -> &mut Self {
        self.nested('{', '}', fields)
    }

    /// `[…]` as the next value; `items` writes its elements.
    pub fn array(&mut self, items: impl FnOnce(&mut Self)) -> &mut Self {
        self.nested('[', ']', items)
    }

    /// `"key":` — the next value written is this member's.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        self.quoted(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// `"key":value`.
    pub fn field(&mut self, key: &str, value: impl JsonValue) -> &mut Self {
        self.key(key).value(value)
    }

    /// `"key":[{…},…]` — one object per item, `fields` writing its
    /// members.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fields: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.key(key).array(|w| {
            for item in items {
                w.object(|w| fields(w, item));
            }
        })
    }

    pub fn value(&mut self, value: impl JsonValue) -> &mut Self {
        value.write_json(self);
        self
    }

    /// A string value, escaped and quoted.
    fn string(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.quoted(s);
        self
    }

    /// A string value: `args` formatted straight into the output,
    /// escaped and quoted (a formatted name needs no temporary `String`).
    fn formatted(&mut self, args: &fmt::Arguments<'_>) -> &mut Self {
        self.separate();
        self.out.push('"');
        let _ = Escaped(&mut self.out).write_fmt(*args);
        self.out.push('"');
        self
    }

    /// A number value: `n`'s `Display` output verbatim (the caller's
    /// `Display` must print a JSON number).
    pub fn number(&mut self, n: impl Display) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{n}");
        self
    }

    /// An unsigned integer value, as its decimal digits.
    fn unsigned(&mut self, n: u64) -> &mut Self {
        self.separate();
        self.digits(n)
    }

    /// A signed integer value, as its decimal digits.
    fn signed(&mut self, n: i64) -> &mut Self {
        self.separate();
        if n < 0 {
            self.out.push('-');
        }
        digits_into(&mut self.out, n.unsigned_abs());
        self
    }

    /// An already-rendered JSON document as the next value.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.separate();
        self.out.push_str(json);
        self
    }

    // Template pieces: a writer whose punctuation and keys are known at
    // compile time (the Chrome export) spells them as constant text and
    // fills the holes with these. None of them writes a separator or
    // tracks one: the template's own text carries every `,` and quote.

    /// Constant, already-escaped JSON text, appended verbatim.
    pub(crate) fn text(&mut self, fragment: &'static str) -> &mut Self {
        self.out.push_str(fragment);
        self
    }

    /// `n`'s decimal digits.
    pub(crate) fn digits(&mut self, n: u64) -> &mut Self {
        digits_into(&mut self.out, n);
        self
    }

    /// The fixed-point number `thousandths / 1000` with exactly three
    /// decimals (`1234` → `1.234`, `5` → `0.005`).
    pub(crate) fn thousandths(&mut self, thousandths: u64) -> &mut Self {
        self.digits(thousandths / 1000);
        let frac = thousandths % 1000;
        self.out.push('.');
        for digit in [frac / 100, frac / 10 % 10, frac % 10] {
            self.out.push(char::from(b'0' + digit as u8));
        }
        self
    }

    /// `s` as the body of a string (escaped, not quoted): the only piece
    /// that scans its bytes.
    pub(crate) fn escaped(&mut self, s: &str) -> &mut Self {
        escape_into(&mut self.out, s);
        self
    }
}

/// A Rust value with one JSON rendering.
pub trait JsonValue {
    fn write_json(&self, w: &mut JsonWriter);
}

/// Integers are their decimal digits, written through `unsigned` or
/// `signed` after widening to 64 bits.
macro_rules! integer_is_json {
    ($method:ident as $wide:ty: $($t:ty)*) => {$(
        impl JsonValue for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.$method(*self as $wide);
            }
        }
    )*};
}
integer_is_json!(unsigned as u64: u32 u64 usize);
integer_is_json!(signed as i64: i32 i64);

/// Text is escaped and quoted.
macro_rules! text_is_json {
    ($($t:ty)*) => {$(
        impl JsonValue for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.string(self);
            }
        }
    )*};
}
text_is_json!(str String std::borrow::Cow<'_, str>);

/// A formatted string; one without arguments is written as plain text.
impl JsonValue for fmt::Arguments<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self.as_str() {
            Some(s) => w.string(s),
            None => w.formatted(self),
        };
    }
}

impl JsonValue for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.raw(if *self { "true" } else { "false" });
    }
}

/// `null`.
impl JsonValue for () {
    fn write_json(&self, w: &mut JsonWriter) {
        w.raw("null");
    }
}

impl JsonValue for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        if self.is_finite() {
            w.number(self);
        } else {
            w.value(());
        }
    }
}

impl<T: JsonValue> JsonValue for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => ().write_json(w),
        }
    }
}

impl<T: JsonValue + ?Sized> JsonValue for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

/// A slice is the array of its elements.
impl<T: JsonValue> JsonValue for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(|w| {
            for v in self {
                w.value(v);
            }
        });
    }
}

impl<T: JsonValue> JsonValue for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self[..].write_json(w);
    }
}

/// A tuple is the array of its members (`["x",y]`, `[src,dst,bytes,msgs]`).
macro_rules! tuple_is_array {
    ($($T:ident)*) => {
        impl<$($T: JsonValue),*> JsonValue for ($($T,)*) {
            fn write_json(&self, w: &mut JsonWriter) {
                #[allow(non_snake_case)]
                let ($($T,)*) = self;
                w.array(|w| {
                    $(w.value($T);)*
                });
            }
        }
    };
}
tuple_is_array!(A B);
tuple_is_array!(A B C);
tuple_is_array!(A B C D);

/// A parsed JSON value. A container holds exactly its children (no
/// growth slack) and an object's keys are shared: one `Arc<str>` per
/// distinct key in a parse. That keeps `Json` at 24 bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Box<[Json]>),
    Obj(Box<[(Arc<str>, Json)]>),
}

impl Json {
    /// Object field lookup (None for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| **k == *key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numbers round-trip as f64; counts and sizes in this workspace stay
    /// far below 2^53, so the conversion is exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        as_type: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(as_type)
            .ok_or_else(|| format!("missing {what} \"{key}\""))
    }

    /// The member `key`, whatever its type.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.typed(key, "field", Some)
    }

    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "number", Json::as_u64)
    }

    /// [`Json::u64`] narrowed to `u32`: a value past `u32::MAX` is an
    /// error naming `key`, not a wrap onto a small one.
    pub fn u32(&self, key: &str) -> Result<u32, String> {
        let n = self.u64(key)?;
        u32::try_from(n).map_err(|_| format!("\"{key}\": {n} does not fit in 32 bits"))
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "string", Json::as_str)
    }

    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "boolean", Json::as_bool)
    }

    pub fn array(&self, key: &str) -> Result<&[Json], String> {
        self.typed(key, "array", Json::as_array)
    }

    /// The array at `key`, each element through `load`; an element's
    /// error is prefixed with `key`.
    pub fn list<T>(
        &self,
        key: &str,
        load: impl FnMut(&Json) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items: Result<Vec<T>, String> = self.array(key)?.iter().map(load).collect();
        items.map_err(|e| format!("\"{key}\": {e}"))
    }

    /// This value as an array of exactly `N` counts (`[upper_bound,count]`,
    /// `[src,dst,bytes,msgs]`).
    pub fn counts<const N: usize>(&self) -> Result<[u64; N], String> {
        let bad = || format!("not an array of {N} numbers");
        let items = self.as_array().filter(|a| a.len() == N).ok_or_else(bad)?;
        let mut out = [0; N];
        for (o, i) in out.iter_mut().zip(items) {
            *o = i.as_u64().ok_or_else(bad)?;
        }
        Ok(out)
    }

    /// The string at `key`; `None` when absent, `null` or not a string.
    pub fn opt_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        text,
        s: text.as_bytes(),
        pos: 0,
        depth: 0,
        items: Vec::new(),
        fields: Vec::new(),
        unescaped: String::new(),
        keys: Keys::default(),
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Read-side counterpart of [`JsonWriter::schema_led`]: parse a versioned
/// artifact and refuse one written under another schema — its keys would
/// be read with this schema's names. Callers prefix the artifact's name.
pub fn parse_schema_led(text: &str) -> Result<Json, String> {
    let v = parse_json(text)?;
    match v.u64("schema")? {
        found if found == u64::from(SCHEMA_VERSION) => Ok(v),
        found => Err(format!(
            "written under schema {found}, this build reads schema {SCHEMA_VERSION}"
        )),
    }
}

/// How many recently used keys [`Keys::intern`] compares before it
/// hashes: more than the distinct keys of a Chrome trace export (21).
const RECENT_KEYS: usize = 32;

/// The object keys of one parse, each allocated once. A document repeats
/// a few keys over and over, so a short table of the recently used ones
/// is scanned before the set of all of them is hashed.
#[derive(Default)]
struct Keys {
    recent: Vec<Arc<str>>,
    /// The slot of `recent` the next key missing from it replaces.
    next: usize,
    all: HashSet<Arc<str>>,
}

impl Keys {
    fn intern(&mut self, key: &str) -> Arc<str> {
        if let Some(k) = self.recent.iter().find(|k| ***k == *key) {
            return Arc::clone(k);
        }
        let k = match self.all.get(key) {
            Some(k) => Arc::clone(k),
            None => {
                let k = Arc::<str>::from(key);
                self.all.insert(Arc::clone(&k));
                k
            }
        };
        if self.recent.len() < RECENT_KEYS {
            self.recent.push(Arc::clone(&k));
        } else {
            self.recent[self.next] = Arc::clone(&k);
            self.next = (self.next + 1) % RECENT_KEYS;
        }
        k
    }
}

struct JsonParser<'a> {
    text: &'a str,
    s: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
    /// The elements read so far of every array open around `pos`,
    /// innermost last: a closing `]` moves its own off the top at their
    /// exact count.
    items: Vec<Json>,
    /// The same for the members of open objects.
    fields: Vec<(Arc<str>, Json)>,
    /// The string being read, once it has an escape.
    unescaped: String,
    keys: Keys,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != c {
            return Err(format!(
                "expected '{}' got '{}' at byte {}",
                c as char, got as char, self.pos
            ));
        }
        self.pos += 1;
        Ok(())
    }

    /// Past `close` if it comes next: the container is empty.
    fn empty(&mut self, close: u8) -> Result<bool, String> {
        let closed = self.peek()? == close;
        self.pos += usize::from(closed);
        Ok(closed)
    }

    /// After a container's member: `true` past a `,`, `false` past `close`.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        match self.peek()? {
            b',' => {
                self.pos += 1;
                Ok(true)
            }
            c if c == close => {
                self.pos += 1;
                Ok(false)
            }
            c => Err(format!(
                "expected ',' or '{}' got '{}' at byte {}",
                close as char, c as char, self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.container(Self::object),
            b'[' => self.container(Self::array),
            b'"' => {
                let body = self.string()?;
                Ok(Json::Str(body.unwrap_or(&self.unescaped).to_owned()))
            }
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    /// The recursion step: input from outside must not pick the stack
    /// depth.
    fn container(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let base = self.fields.len();
        if !self.empty(b'}')? {
            loop {
                let body = self.string()?;
                let key = self.keys.intern(body.unwrap_or(&self.unescaped));
                self.expect(b':')?;
                let v = self.value()?;
                self.fields.push((key, v));
                if !self.more(b'}')? {
                    break;
                }
            }
        }
        Ok(Json::Obj(self.fields.drain(base..).collect()))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let base = self.items.len();
        if !self.empty(b']')? {
            loop {
                let v = self.value()?;
                self.items.push(v);
                if !self.more(b']')? {
                    break;
                }
            }
        }
        Ok(Json::Arr(self.items.drain(base..).collect()))
    }

    /// The next string's contents: the slice of the input between its
    /// quotes when it has no escape, else `None` with the decoded contents
    /// in `self.unescaped`.
    fn string(&mut self) -> Result<Option<&'a str>, String> {
        self.expect(b'"')?;
        let mut escaped = false;
        loop {
            let start = self.pos;
            while self
                .s
                .get(self.pos)
                .is_some_and(|&b| b >= 0x20 && b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            // `start` and `pos` sit next to ASCII bytes (or at the end),
            // so this slice is whole UTF-8 scalars.
            let run = &self.text[start..self.pos];
            let c = *self.s.get(self.pos).ok_or("unterminated string")?;
            if c < 0x20 {
                return Err(format!(
                    "unescaped control byte 0x{c:02x} in string at byte {}",
                    self.pos
                ));
            }
            self.pos += 1;
            if !escaped {
                if c == b'"' {
                    return Ok(Some(run));
                }
                self.unescaped.clear();
                escaped = true;
            }
            self.unescaped.push_str(run);
            if c == b'"' {
                return Ok(None);
            }
            self.escape()?;
        }
    }

    /// The escape after a `\`, decoded onto `self.unescaped`.
    fn escape(&mut self) -> Result<(), String> {
        let e = *self.s.get(self.pos).ok_or("unterminated escape")?;
        self.pos += 1;
        let out = &mut self.unescaped;
        match e {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hex = self
                    .s
                    .get(self.pos..self.pos + 4)
                    .ok_or("truncated \\u escape")?;
                self.pos += 4;
                let code =
                    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
                        .map_err(|e| e.to_string())?;
                out.push(char::from_u32(code).ok_or("surrogate in \\u escape")?);
            }
            _ => return Err(format!("bad escape '\\{}'", e as char)),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.s.len()
            && (self.s[self.pos].is_ascii_digit() || b"-+.eE".contains(&self.s[self.pos]))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

/// The JSON tests' document generator, shared with the integration tests.
#[cfg(test)]
#[path = "../tests/common/json_tree.rs"]
mod json_tree;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The writer as it was before integers, `bool` and text bypassed
    /// `core::fmt`: every value through its `Display`, text escaped by a
    /// `fmt::Write` adapter. The byte-for-byte oracle of the direct paths.
    pub(crate) mod fmt_oracle {
        use std::fmt::{self, Display, Write as _};

        struct Escaped<'a>(&'a mut String);

        impl fmt::Write for Escaped<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                let mut plain = 0;
                for (i, b) in s.bytes().enumerate() {
                    if b >= 0x20 && b != b'"' && b != b'\\' {
                        continue;
                    }
                    self.0.push_str(&s[plain..i]);
                    match b {
                        b'"' => self.0.push_str("\\\""),
                        b'\\' => self.0.push_str("\\\\"),
                        b'\n' => self.0.push_str("\\n"),
                        b'\r' => self.0.push_str("\\r"),
                        b'\t' => self.0.push_str("\\t"),
                        _ => write!(self.0, "\\u{b:04x}")?,
                    }
                    plain = i + 1;
                }
                self.0.push_str(&s[plain..]);
                Ok(())
            }
        }

        /// A string value: `s`'s `Display` output, escaped and quoted.
        pub(crate) fn string(s: impl Display) -> String {
            let mut out = String::from("\"");
            let _ = write!(Escaped(&mut out), "{s}");
            out.push('"');
            out
        }

        /// A number value: `n`'s `Display` output verbatim.
        pub(crate) fn number(n: impl Display) -> String {
            n.to_string()
        }
    }

    /// The reader as it was before the compact tree: a `Vec` per
    /// container, grown as it is read, and a `String` per key. The
    /// accept/refuse and tree oracle of [`parse_json`].
    mod reader_oracle {
        use super::super::{Json, MAX_DEPTH};

        #[derive(Debug)]
        pub(super) enum Value {
            Null,
            Bool(bool),
            Num(f64),
            Str(String),
            Arr(Vec<Value>),
            Obj(Vec<(String, Value)>),
        }

        impl Value {
            pub(super) fn into_json(self) -> Json {
                match self {
                    Value::Null => Json::Null,
                    Value::Bool(b) => Json::Bool(b),
                    Value::Num(n) => Json::Num(n),
                    Value::Str(s) => Json::Str(s),
                    Value::Arr(items) => {
                        Json::Arr(items.into_iter().map(Value::into_json).collect())
                    }
                    Value::Obj(fields) => Json::Obj(
                        fields
                            .into_iter()
                            .map(|(k, v)| (k.into(), v.into_json()))
                            .collect(),
                    ),
                }
            }
        }

        pub(super) fn parse(text: &str) -> Result<Value, String> {
            let mut p = Parser {
                s: text.as_bytes(),
                pos: 0,
                depth: 0,
            };
            let v = p.value()?;
            p.skip_ws();
            if p.pos != p.s.len() {
                return Err(format!("trailing garbage at byte {}", p.pos));
            }
            Ok(v)
        }

        struct Parser<'a> {
            s: &'a [u8],
            pos: usize,
            depth: usize,
        }

        impl Parser<'_> {
            fn skip_ws(&mut self) {
                while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
                    self.pos += 1;
                }
            }

            fn peek(&mut self) -> Result<u8, String> {
                self.skip_ws();
                self.s
                    .get(self.pos)
                    .copied()
                    .ok_or_else(|| "unexpected end of input".to_string())
            }

            fn expect(&mut self, c: u8) -> Result<(), String> {
                let got = self.peek()?;
                if got != c {
                    return Err(format!(
                        "expected '{}' got '{}' at byte {}",
                        c as char, got as char, self.pos
                    ));
                }
                self.pos += 1;
                Ok(())
            }

            fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
                if self.s[self.pos..].starts_with(word.as_bytes()) {
                    self.pos += word.len();
                    Ok(value)
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }

            fn value(&mut self) -> Result<Value, String> {
                match self.peek()? {
                    b'{' => self.container(Self::object),
                    b'[' => self.container(Self::array),
                    b'"' => Ok(Value::Str(self.string()?)),
                    b't' => self.literal("true", Value::Bool(true)),
                    b'f' => self.literal("false", Value::Bool(false)),
                    b'n' => self.literal("null", Value::Null),
                    _ => self.number(),
                }
            }

            fn container(
                &mut self,
                parse: fn(&mut Self) -> Result<Value, String>,
            ) -> Result<Value, String> {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = parse(self);
                self.depth -= 1;
                v
            }

            fn object(&mut self) -> Result<Value, String> {
                self.expect(b'{')?;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        c => {
                            return Err(format!(
                                "expected ',' or '}}' got '{}' at byte {}",
                                c as char, self.pos
                            ))
                        }
                    }
                }
            }

            fn array(&mut self) -> Result<Value, String> {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        c => {
                            return Err(format!(
                                "expected ',' or ']' got '{}' at byte {}",
                                c as char, self.pos
                            ))
                        }
                    }
                }
            }

            fn string(&mut self) -> Result<String, String> {
                self.expect(b'"')?;
                let mut out = String::new();
                loop {
                    let c = *self.s.get(self.pos).ok_or("unterminated string")?;
                    self.pos += 1;
                    match c {
                        b'"' => return Ok(out),
                        b'\\' => {
                            let e = *self.s.get(self.pos).ok_or("unterminated escape")?;
                            self.pos += 1;
                            match e {
                                b'"' => out.push('"'),
                                b'\\' => out.push('\\'),
                                b'/' => out.push('/'),
                                b'n' => out.push('\n'),
                                b'r' => out.push('\r'),
                                b't' => out.push('\t'),
                                b'u' => {
                                    let hex = self
                                        .s
                                        .get(self.pos..self.pos + 4)
                                        .ok_or("truncated \\u escape")?;
                                    self.pos += 4;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                        16,
                                    )
                                    .map_err(|e| e.to_string())?;
                                    out.push(
                                        char::from_u32(code).ok_or("surrogate in \\u escape")?,
                                    );
                                }
                                _ => return Err(format!("bad escape '\\{}'", e as char)),
                            }
                        }
                        c if c < 0x20 => {
                            return Err(format!(
                                "unescaped control byte 0x{c:02x} in string at byte {}",
                                self.pos - 1
                            ))
                        }
                        _ => {
                            // Multi-byte UTF-8: copy the whole scalar.
                            if c < 0x80 {
                                out.push(c as char);
                            } else {
                                let start = self.pos - 1;
                                let len = match c {
                                    0xC0..=0xDF => 2,
                                    0xE0..=0xEF => 3,
                                    _ => 4,
                                };
                                let bytes = self
                                    .s
                                    .get(start..start + len)
                                    .ok_or("truncated UTF-8 sequence")?;
                                out.push_str(
                                    std::str::from_utf8(bytes).map_err(|e| e.to_string())?,
                                );
                                self.pos = start + len;
                            }
                        }
                    }
                }
            }

            fn number(&mut self) -> Result<Value, String> {
                self.skip_ws();
                let start = self.pos;
                while self.pos < self.s.len()
                    && (self.s[self.pos].is_ascii_digit() || b"-+.eE".contains(&self.s[self.pos]))
                {
                    self.pos += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.pos]).map_err(|e| e.to_string())?;
                text.parse()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number '{text}' at byte {start}"))
            }
        }
    }

    /// `parse_json` against the oracle: same tree or the same refusal.
    fn reads_as_the_oracle(text: &str) -> Result<(), proptest::test_runner::TestCaseError> {
        let want = reader_oracle::parse(text).map(reader_oracle::Value::into_json);
        prop_assert_eq!(parse_json(text), want, "{:?}", text);
        Ok(())
    }

    /// What a flip writes over one byte: structure, escapes whole and
    /// broken, control bytes, number and literal pieces, and UTF-8 (a lone
    /// lead byte reads as U+FFFD).
    #[rustfmt::skip]
    const FLIPS: &[&[u8]] = &[
        b"{", b"}", b"[", b"]", b"\"", b",", b":", b"\\", b" ", b"\t", b"\n", b"\x00", b"\x1f",
        b"\x7f", b"u", b"/", b"0", b"-", b"+", b".", b"e", b"E", b"tru", b"nul", b"x", b"\\/",
        b"\\u00e9", b"\\ud800", b"\\u+04", b"\\u12", b"\xc3\xa9", b"\xc3",
    ];

    /// One value as the writer renders it.
    fn written(v: impl JsonValue) -> String {
        let mut w = JsonWriter::new();
        w.value(v);
        w.finish()
    }

    /// Every magnitude, the extremes included.
    pub(crate) fn any_u64() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            (0u32..64, 0u64..u64::MAX).prop_map(|(shift, v)| v >> shift),
        ]
    }

    fn any_i64() -> impl Strategy<Value = i64> {
        prop_oneof![
            Just(0i64),
            Just(i64::MIN),
            Just(i64::MAX),
            (0u32..64, i64::MIN..i64::MAX).prop_map(|(shift, v)| v >> shift),
        ]
    }

    /// Text drawn from the characters the escaper treats differently:
    /// quotes, backslashes, the named and unnamed control bytes, DEL,
    /// and one- to four-byte UTF-8.
    pub(crate) fn any_text() -> impl Strategy<Value = String> {
        const POOL: [char; 16] = [
            'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', '\u{7f}',
            'é', '€', '𝄞',
        ];
        let ch = prop_oneof![
            (0usize..POOL.len()).prop_map(|i| POOL[i]),
            (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control byte")),
        ];
        proptest::collection::vec(ch, 0..24).prop_map(String::from_iter)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn reader_matches_its_oracle_on_written_flipped_cut_and_nested_documents(
            v in json_tree::tree(),
            at in 0usize..1 << 20,
            flip in 0..FLIPS.len(),
            cut in 0usize..1 << 20,
            nest in MAX_DEPTH - 6..MAX_DEPTH + 1,
        ) {
            let text = json_tree::written(&v);
            reads_as_the_oracle(&text)?;
            let mut bytes = text.clone().into_bytes();
            let at = at % bytes.len();
            bytes.splice(at..=at, FLIPS[flip].iter().copied());
            reads_as_the_oracle(&String::from_utf8_lossy(&bytes))?;
            let mut end = cut % text.len();
            while !text.is_char_boundary(end) {
                end -= 1;
            }
            reads_as_the_oracle(&text[..end])?;
            reads_as_the_oracle(&format!("{}{text}{}", "[".repeat(nest), "]".repeat(nest)))?;
        }

        #[test]
        fn integers_and_bools_match_the_fmt_writer(
            u in any_u64(),
            i in any_i64(),
            b in any::<bool>(),
        ) {
            prop_assert_eq!(written(u), fmt_oracle::number(u));
            prop_assert_eq!(written(u as usize), fmt_oracle::number(u as usize));
            prop_assert_eq!(written(u as u32), fmt_oracle::number(u as u32));
            prop_assert_eq!(written(i), fmt_oracle::number(i));
            prop_assert_eq!(written(i as i32), fmt_oracle::number(i as i32));
            prop_assert_eq!(written(b), fmt_oracle::number(b));
        }

        #[test]
        fn text_and_keys_match_the_fmt_writer(s in any_text(), n in any_u64()) {
            let want = fmt_oracle::string(&s);
            prop_assert_eq!(written(s.as_str()), want.clone());
            prop_assert_eq!(written(&s), want.clone());
            prop_assert_eq!(written(std::borrow::Cow::Borrowed(s.as_str())), want.clone());
            prop_assert_eq!(written(format_args!("{s}")), want.clone());
            prop_assert_eq!(
                written(format_args!("{s} #{n}")),
                fmt_oracle::string(format_args!("{s} #{n}"))
            );
            let mut w = JsonWriter::new();
            w.object(|w| {
                w.field(&s, n);
            });
            prop_assert_eq!(w.finish(), format!("{{{want}:{}}}", fmt_oracle::number(n)));
        }
    }

    #[test]
    fn thousandths_pad_the_fraction_to_three_digits() {
        let fixed = |n: u64| {
            let mut w = JsonWriter::new();
            w.thousandths(n);
            w.finish()
        };
        assert_eq!(fixed(0), "0.000");
        assert_eq!(fixed(7), "0.007");
        assert_eq!(fixed(1_230), "1.230");
        assert_eq!(fixed(5_000_042), "5000.042");
        assert_eq!(fixed(u64::MAX), "18446744073709551.615");
    }

    #[test]
    fn schema_led_documents_start_with_the_prefix_once() {
        let doc = JsonWriter::schema_led(|w| {
            w.field("ranks", 2usize);
        });
        let prefix = format!("{{\"schema\":{SCHEMA_VERSION},");
        assert_eq!(doc, format!("{prefix}\"ranks\":2}}"));
        assert_eq!(doc.matches("\"schema\"").count(), 1);
        assert_eq!(JsonWriter::schema_led(|_| {}), "{\"schema\":1}");
    }

    #[test]
    fn json_parser_reads_the_writers_subset() {
        let v = parse_json(
            "{\"schema\":1,\"name\":\"a\\\"b\",\"ok\":true,\"none\":null,\
             \"pts\":[[1,2.5],[3,-4e2]],\"nested\":{\"x\":[]}}",
        )
        .unwrap();
        assert_eq!(v.u64("schema"), Ok(1));
        assert_eq!(v.str("name"), Ok("a\"b"));
        assert_eq!(v.bool("ok"), Ok(true));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.opt_str("none"), None);
        let pts = v.array("pts").unwrap();
        assert_eq!(pts[1].as_array().unwrap()[1].as_f64(), Some(-400.0));
        assert_eq!(v.field("nested").unwrap().array("x"), Ok(&[][..]));
        // A missing or mistyped member is named.
        assert_eq!(v.u64("name"), Err("missing number \"name\"".to_string()));
        assert_eq!(
            v.array("absent"),
            Err("missing array \"absent\"".to_string())
        );
    }

    #[test]
    fn schema_led_reader_refuses_other_schemas() {
        let doc = JsonWriter::schema_led(|w| {
            w.field("pair", (3u64, 4u64));
        });
        let v = parse_schema_led(&doc).expect("own schema");
        assert_eq!(v.field("pair").unwrap().counts::<2>(), Ok([3, 4]));
        assert_eq!(
            v.field("pair").unwrap().counts::<3>(),
            Err("not an array of 3 numbers".to_string())
        );
        let other = JsonWriter::versioned(SCHEMA_VERSION + 1, |_| {});
        assert_eq!(
            parse_schema_led(&other),
            Err("written under schema 2, this build reads schema 1".to_string())
        );
        assert!(parse_schema_led("{\"ranks\":2}").is_err(), "unversioned");
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("\"unterminated").is_err());
        // Outside input must not choose the recursion depth.
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        let err = parse_json(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let err = parse_json(&"[{\"k\":".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn raw_control_bytes_in_strings_are_refused_with_their_offset() {
        for (text, at) in [
            ("\"a\nb\"", 2),
            ("{\"k\\u0041\x01\":1}", 9),
            ("[\"\x1f\"]", 2),
        ] {
            let want = format!(
                "unescaped control byte 0x{:02x} in string at byte {at}",
                text.as_bytes()[at]
            );
            assert_eq!(parse_json(text), Err(want.clone()), "{text:?}");
            assert_eq!(reader_oracle::parse(text).map(|_| ()), Err(want));
        }
        // Escaped, the same bytes read back; DEL needs no escape.
        let v = parse_json("\"a\\nb\\u0001\x7f\"").unwrap();
        assert_eq!(v, Json::Str("a\nb\u{1}\u{7f}".to_string()));
    }

    #[test]
    fn container_errors_name_the_byte() {
        assert_eq!(
            parse_json("{\"a\":1 x}"),
            Err("expected ',' or '}' got 'x' at byte 7".to_string())
        );
        assert_eq!(
            parse_json("[1,2;]"),
            Err("expected ',' or ']' got ';' at byte 4".to_string())
        );
    }

    #[test]
    fn keys_are_allocated_once_per_parse() {
        // More distinct keys than the recent table holds, each twice, one
        // of them escaped.
        let keys: Vec<String> = (0..3 * RECENT_KEYS).map(|i| format!("k{i}")).collect();
        let mut w = JsonWriter::new();
        w.array(|w| {
            for _ in 0..2 {
                w.object(|w| {
                    for (i, k) in keys.iter().enumerate() {
                        w.field(k, i);
                    }
                    w.field("tab\t", true);
                });
            }
        });
        let v = parse_json(&w.finish()).unwrap();
        let [Json::Obj(a), Json::Obj(b)] = v.as_array().unwrap() else {
            panic!("two objects");
        };
        assert_eq!(a.len(), keys.len() + 1);
        for (((ka, va), (kb, vb)), want) in a.iter().zip(b.iter()).zip(&keys) {
            assert_eq!(&**ka, want.as_str());
            assert!(Arc::ptr_eq(ka, kb), "{want} allocated twice");
            assert_eq!(va, vb);
        }
        assert_eq!(&*a[keys.len()].0, "tab\t");
        assert!(Arc::ptr_eq(&a[keys.len()].0, &b[keys.len()].0));
        assert_eq!(v.as_array().unwrap()[1].u64("k40"), Ok(40));
    }
}
