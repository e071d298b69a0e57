//! Instance and result (de)serialization.
//!
//! Research code lives or dies by reproducible instances: this module
//! bundles an application set, a platform and optional mappings into a
//! single versioned [`Instance`] document that round-trips through JSON
//! (via `serde`), so experiments can be archived, shared and re-run
//! bit-for-bit.

use crate::application::AppSet;
use crate::mapping::Mapping;
use crate::objective::Thresholds;
use crate::platform::Platform;
use serde::{Deserialize, Serialize};

/// Current schema version; bumped on incompatible changes.
pub const SCHEMA_VERSION: u32 = 1;

/// A self-contained problem instance (plus optional solutions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Schema version (for forward compatibility checks).
    pub version: u32,
    /// Free-form description (provenance, seed, purpose).
    pub description: String,
    /// The concurrent applications.
    pub apps: AppSet,
    /// The target platform.
    pub platform: Platform,
    /// Optional thresholds the instance is meant to be solved under.
    #[serde(default)]
    pub thresholds: Option<Thresholds>,
    /// Named mappings (e.g. `"period-optimal"`, `"compromise"`).
    #[serde(default)]
    pub mappings: Vec<NamedMapping>,
}

/// A mapping with a label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedMapping {
    /// Human-readable label.
    pub name: String,
    /// The mapping.
    pub mapping: Mapping,
}

impl Instance {
    /// Bundle an instance.
    pub fn new(description: impl Into<String>, apps: AppSet, platform: Platform) -> Self {
        Instance {
            version: SCHEMA_VERSION,
            description: description.into(),
            apps,
            platform,
            thresholds: None,
            mappings: Vec::new(),
        }
    }

    /// Attach thresholds.
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = Some(thresholds);
        self
    }

    /// Attach a named mapping.
    pub fn with_mapping(mut self, name: impl Into<String>, mapping: Mapping) -> Self {
        self.mappings.push(NamedMapping { name: name.into(), mapping });
        self
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> Result<String, serde_json_error::Error> {
        serde_json_error::to_string_pretty(self)
    }

    /// Deserialize from JSON, checking the schema version and validating
    /// all embedded mappings.
    pub fn from_json(json: &str) -> Result<Self, InstanceError> {
        let inst: Instance =
            serde_json_error::from_str(json).map_err(InstanceError::Parse)?;
        if inst.version != SCHEMA_VERSION {
            return Err(InstanceError::Version { found: inst.version });
        }
        for nm in &inst.mappings {
            nm.mapping
                .validate(&inst.apps, &inst.platform)
                .map_err(|e| InstanceError::InvalidMapping {
                    name: nm.name.clone(),
                    reason: e.to_string(),
                })?;
        }
        Ok(inst)
    }
}

/// Errors while loading an instance.
#[derive(Debug)]
pub enum InstanceError {
    /// JSON parse failure.
    Parse(serde_json_error::Error),
    /// Unknown schema version.
    Version {
        /// The version found in the document.
        found: u32,
    },
    /// An embedded mapping failed validation against its own instance.
    InvalidMapping {
        /// The mapping's label.
        name: String,
        /// Validation failure reason.
        reason: String,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::Parse(e) => write!(f, "parse error: {e}"),
            InstanceError::Version { found } => {
                write!(f, "unsupported schema version {found} (expected {SCHEMA_VERSION})")
            }
            InstanceError::InvalidMapping { name, reason } => {
                write!(f, "embedded mapping `{name}` is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// Minimal JSON (de)serialization built on `serde`'s data model — the
/// approved dependency set has no `serde_json`, so this module implements
/// the small JSON subset the [`Instance`] schema needs (objects, arrays,
/// strings, finite f64/u64/usize numbers, booleans, null / `Option`).
pub mod serde_json_error {
    use serde::de::DeserializeOwned;
    use serde::Serialize;

    /// JSON (de)serialization error.
    #[derive(Debug)]
    pub struct Error(pub String);

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.0)
        }
    }
    impl std::error::Error for Error {}

    /// Serialize any `Serialize` value to pretty JSON.
    pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
        let v = super::json_value::to_value(value)?;
        Ok(v.pretty(0))
    }

    /// Serialize any `Serialize` value to compact single-line JSON — the
    /// JSONL form used by batch spec files.
    pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
        let v = super::json_value::to_value(value)?;
        Ok(v.compact())
    }

    /// Deserialize any `DeserializeOwned` value from JSON text.
    pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T, Error> {
        let v = super::json_value::parse(s)?;
        super::json_value::from_value(v)
    }
}

/// A tiny JSON value tree plus serde bridges.
pub mod json_value {
    use super::serde_json_error::Error;
    use serde::de::DeserializeOwned;
    use serde::ser::{self, Serialize};
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any finite number (stored as f64; u64 kept exact up to 2^53).
        Num(f64),
        /// String.
        Str(String),
        /// Array.
        Arr(Vec<Value>),
        /// Object (sorted keys for determinism).
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        /// Render with 2-space indentation.
        pub fn pretty(&self, indent: usize) -> String {
            self.render(Some(indent))
        }

        /// Render on one line with no whitespace (JSONL-friendly).
        pub fn compact(&self) -> String {
            self.render(None)
        }

        /// The single renderer behind both styles: `Some(level)` pretty
        /// prints at that indentation depth, `None` packs one line.
        fn render(&self, indent: Option<usize>) -> String {
            let inner = |v: &Value| v.render(indent.map(|i| i + 1));
            // (open, item prefix, item separator, close) per style.
            let seams = |open: char, close: char| match indent {
                Some(i) => (
                    format!("{open}\n"),
                    "  ".repeat(i + 1),
                    ",\n".to_string(),
                    format!("\n{}{close}", "  ".repeat(i)),
                ),
                None => (open.to_string(), String::new(), ",".to_string(), close.to_string()),
            };
            match self {
                Value::Null => "null".into(),
                Value::Bool(b) => b.to_string(),
                Value::Num(x) => format_number(*x),
                Value::Str(s) => escape(s),
                Value::Arr(items) => {
                    if items.is_empty() {
                        return "[]".into();
                    }
                    let (open, pad, sep, close) = seams('[', ']');
                    let body: Vec<String> =
                        items.iter().map(|v| format!("{pad}{}", inner(v))).collect();
                    format!("{open}{}{close}", body.join(&sep))
                }
                Value::Obj(map) => {
                    if map.is_empty() {
                        return "{}".into();
                    }
                    let (open, pad, sep, close) = seams('{', '}');
                    let colon = if indent.is_some() { ": " } else { ":" };
                    let body: Vec<String> = map
                        .iter()
                        .map(|(k, v)| format!("{pad}{}{colon}{}", escape(k), inner(v)))
                        .collect();
                    format!("{open}{}{close}", body.join(&sep))
                }
            }
        }
    }

    fn format_number(x: f64) -> String {
        if x.fract() == 0.0 && x.abs() < 9e15 {
            format!("{}", x as i64)
        } else {
            let mut s = String::new();
            write!(s, "{x:?}").expect("write to string");
            s
        }
    }

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    // -- serializer: T -> Value ------------------------------------------

    /// Convert any `Serialize` into a [`Value`].
    pub fn to_value<T: Serialize>(value: &T) -> Result<Value, Error> {
        value.serialize(ValueSer)
    }

    struct ValueSer;

    macro_rules! ser_num {
        ($($f:ident: $t:ty),*) => {$(
            fn $f(self, v: $t) -> Result<Value, Error> { Ok(Value::Num(v as f64)) }
        )*}
    }

    impl ser::Serializer for ValueSer {
        type Ok = Value;
        type Error = Error;
        type SerializeSeq = SeqSer;
        type SerializeTuple = SeqSer;
        type SerializeTupleStruct = SeqSer;
        type SerializeTupleVariant = TupleVariantSer;
        type SerializeMap = MapSer;
        type SerializeStruct = StructSer;
        type SerializeStructVariant = StructVariantSer;

        fn serialize_bool(self, v: bool) -> Result<Value, Error> {
            Ok(Value::Bool(v))
        }
        ser_num!(serialize_i8: i8, serialize_i16: i16, serialize_i32: i32, serialize_i64: i64,
                 serialize_u8: u8, serialize_u16: u16, serialize_u32: u32, serialize_u64: u64,
                 serialize_f32: f32);
        fn serialize_f64(self, v: f64) -> Result<Value, Error> {
            if v.is_finite() {
                Ok(Value::Num(v))
            } else {
                Err(Error(format!("non-finite number {v} not representable in JSON")))
            }
        }
        fn serialize_char(self, v: char) -> Result<Value, Error> {
            Ok(Value::Str(v.to_string()))
        }
        fn serialize_str(self, v: &str) -> Result<Value, Error> {
            Ok(Value::Str(v.to_string()))
        }
        fn serialize_bytes(self, v: &[u8]) -> Result<Value, Error> {
            Ok(Value::Arr(v.iter().map(|b| Value::Num(*b as f64)).collect()))
        }
        fn serialize_none(self) -> Result<Value, Error> {
            Ok(Value::Null)
        }
        fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Value, Error> {
            value.serialize(ValueSer)
        }
        fn serialize_unit(self) -> Result<Value, Error> {
            Ok(Value::Null)
        }
        fn serialize_unit_struct(self, _name: &'static str) -> Result<Value, Error> {
            Ok(Value::Null)
        }
        fn serialize_unit_variant(
            self,
            _name: &'static str,
            _idx: u32,
            variant: &'static str,
        ) -> Result<Value, Error> {
            Ok(Value::Str(variant.to_string()))
        }
        fn serialize_newtype_struct<T: Serialize + ?Sized>(
            self,
            _name: &'static str,
            value: &T,
        ) -> Result<Value, Error> {
            value.serialize(ValueSer)
        }
        fn serialize_newtype_variant<T: Serialize + ?Sized>(
            self,
            _name: &'static str,
            _idx: u32,
            variant: &'static str,
            value: &T,
        ) -> Result<Value, Error> {
            let mut map = BTreeMap::new();
            map.insert(variant.to_string(), value.serialize(ValueSer)?);
            Ok(Value::Obj(map))
        }
        fn serialize_seq(self, len: Option<usize>) -> Result<SeqSer, Error> {
            Ok(SeqSer { items: Vec::with_capacity(len.unwrap_or(0)) })
        }
        fn serialize_tuple(self, len: usize) -> Result<SeqSer, Error> {
            self.serialize_seq(Some(len))
        }
        fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> Result<SeqSer, Error> {
            self.serialize_seq(Some(len))
        }
        fn serialize_tuple_variant(
            self,
            _name: &'static str,
            _idx: u32,
            variant: &'static str,
            len: usize,
        ) -> Result<TupleVariantSer, Error> {
            Ok(TupleVariantSer { variant, items: Vec::with_capacity(len) })
        }
        fn serialize_map(self, _len: Option<usize>) -> Result<MapSer, Error> {
            Ok(MapSer { map: BTreeMap::new(), key: None })
        }
        fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<StructSer, Error> {
            Ok(StructSer { map: BTreeMap::new() })
        }
        fn serialize_struct_variant(
            self,
            _name: &'static str,
            _idx: u32,
            variant: &'static str,
            _len: usize,
        ) -> Result<StructVariantSer, Error> {
            Ok(StructVariantSer { variant, map: BTreeMap::new() })
        }
    }

    /// Sequence serializer.
    pub struct SeqSer {
        items: Vec<Value>,
    }
    impl ser::SerializeSeq for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
            self.items.push(value.serialize(ValueSer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Arr(self.items))
        }
    }
    impl ser::SerializeTuple for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
            ser::SerializeSeq::serialize_element(self, value)
        }
        fn end(self) -> Result<Value, Error> {
            ser::SerializeSeq::end(self)
        }
    }
    impl ser::SerializeTupleStruct for SeqSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
            ser::SerializeSeq::serialize_element(self, value)
        }
        fn end(self) -> Result<Value, Error> {
            ser::SerializeSeq::end(self)
        }
    }

    /// Tuple-variant serializer (`{"Variant": [..]}`).
    pub struct TupleVariantSer {
        variant: &'static str,
        items: Vec<Value>,
    }
    impl ser::SerializeTupleVariant for TupleVariantSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
            self.items.push(value.serialize(ValueSer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            let mut map = BTreeMap::new();
            map.insert(self.variant.to_string(), Value::Arr(self.items));
            Ok(Value::Obj(map))
        }
    }

    /// Map serializer (string keys only).
    pub struct MapSer {
        map: BTreeMap<String, Value>,
        key: Option<String>,
    }
    impl ser::SerializeMap for MapSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Error> {
            match key.serialize(ValueSer)? {
                Value::Str(s) => {
                    self.key = Some(s);
                    Ok(())
                }
                other => Err(Error(format!("JSON object keys must be strings, got {other:?}"))),
            }
        }
        fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
            let key = self.key.take().ok_or_else(|| Error("value before key".into()))?;
            self.map.insert(key, value.serialize(ValueSer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Obj(self.map))
        }
    }

    /// Struct serializer.
    pub struct StructSer {
        map: BTreeMap<String, Value>,
    }
    impl ser::SerializeStruct for StructSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Error> {
            self.map.insert(key.to_string(), value.serialize(ValueSer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            Ok(Value::Obj(self.map))
        }
    }

    /// Struct-variant serializer (`{"Variant": {..}}`).
    pub struct StructVariantSer {
        variant: &'static str,
        map: BTreeMap<String, Value>,
    }
    impl ser::SerializeStructVariant for StructVariantSer {
        type Ok = Value;
        type Error = Error;
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Error> {
            self.map.insert(key.to_string(), value.serialize(ValueSer)?);
            Ok(())
        }
        fn end(self) -> Result<Value, Error> {
            let mut outer = BTreeMap::new();
            outer.insert(self.variant.to_string(), Value::Obj(self.map));
            Ok(Value::Obj(outer))
        }
    }

    impl ser::Error for Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }
    impl serde::de::Error for Error {
        fn custom<T: std::fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    // -- parser: text -> Value -------------------------------------------

    /// Deepest array/object nesting [`parse`] accepts. The parser
    /// recurses once per level, so an unbounded line of `[` would
    /// overflow the stack and abort the process; the deepest request type
    /// nests fewer than 10 levels.
    pub const MAX_DEPTH: usize = 128;

    /// Parse JSON text into a [`Value`].
    pub fn parse(s: &str) -> Result<Value, Error> {
        let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Open arrays and objects around `pos`.
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.pos += 1;
            }
        }
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }
        fn expect(&mut self, c: u8) -> Result<(), Error> {
            if self.peek() == Some(c) {
                self.pos += 1;
                Ok(())
            } else {
                Err(Error(format!("expected `{}` at byte {}", c as char, self.pos)))
            }
        }
        /// Step into an array or object (the byte at `pos`). Errors out
        /// past [`MAX_DEPTH`]; an error ends the parse, so only the
        /// successful paths step back out.
        fn open(&mut self) -> Result<(), Error> {
            if self.depth == MAX_DEPTH {
                return Err(Error(format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                )));
            }
            self.depth += 1;
            self.pos += 1;
            Ok(())
        }
        fn literal(&mut self, lit: &str) -> bool {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                true
            } else {
                false
            }
        }
        fn value(&mut self) -> Result<Value, Error> {
            self.skip_ws();
            match self.peek() {
                Some(b'n') if self.literal("null") => Ok(Value::Null),
                Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b'[') => {
                    self.open()?;
                    let mut items = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => {
                                self.pos += 1;
                            }
                            Some(b']') => {
                                self.pos += 1;
                                break;
                            }
                            _ => return Err(Error(format!("expected , or ] at byte {}", self.pos))),
                        }
                    }
                    self.depth -= 1;
                    Ok(Value::Arr(items))
                }
                Some(b'{') => {
                    self.open()?;
                    let mut map = BTreeMap::new();
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(Value::Obj(map));
                    }
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.expect(b':')?;
                        let val = self.value()?;
                        map.insert(key, val);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => {
                                self.pos += 1;
                            }
                            Some(b'}') => {
                                self.pos += 1;
                                break;
                            }
                            _ => return Err(Error(format!("expected , or }} at byte {}", self.pos))),
                        }
                    }
                    self.depth -= 1;
                    Ok(Value::Obj(map))
                }
                Some(c) if c == b'-' || c.is_ascii_digit() => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_digit()
                            || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                        {
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    let text = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| Error(e.to_string()))?;
                    text.parse::<f64>().map(Value::Num).map_err(|e| Error(e.to_string()))
                }
                _ => Err(Error(format!("unexpected character at byte {}", self.pos))),
            }
        }

        /// The code unit spelled by exactly four hex digits at `at` (no
        /// sign, unlike `u32::from_str_radix`).
        fn hex4(&self, at: usize) -> Result<u32, Error> {
            let digits = match self.bytes.get(at..at + 4) {
                // The closing quote must still follow.
                Some(d) if at + 4 < self.bytes.len() => d,
                _ => return Err(Error("truncated \\u escape".into())),
            };
            digits.iter().try_fold(0, |code, &b| {
                let digit = (b as char)
                    .to_digit(16)
                    .ok_or_else(|| Error("invalid \\u escape: expected four hex digits".into()))?;
                Ok(code * 16 + digit)
            })
        }

        /// The char spelled by the `\u` escape whose `u` is at `self.pos`,
        /// leaving `self.pos` on its last hex digit. A high surrogate
        /// followed by a low one is a UTF-16 pair: `\uD83D\uDE00` is one
        /// char, U+1F600; a lone surrogate is an error.
        fn unicode_escape(&mut self) -> Result<char, Error> {
            let mut code = self.hex4(self.pos + 1)?;
            self.pos += 4;
            if (0xD800..0xDC00).contains(&code)
                && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
            {
                let low = self.hex4(self.pos + 3)?;
                if (0xDC00..0xE000).contains(&low) {
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    self.pos += 6;
                }
            }
            char::from_u32(code).ok_or_else(|| Error("invalid \\u escape (lone surrogate)".into()))
        }

        fn string(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(Error("unterminated string".into())),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => out.push(self.unicode_escape()?),
                            other => {
                                return Err(Error(format!("invalid escape {other:?}")));
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 character.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|e| Error(e.to_string()))?;
                        let c = rest.chars().next().expect("non-empty");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    // -- deserializer: Value -> T ------------------------------------------

    /// Convert a [`Value`] into any `DeserializeOwned`.
    pub fn from_value<T: DeserializeOwned>(v: Value) -> Result<T, Error> {
        T::deserialize(ValueDe(v))
    }

    struct ValueDe(Value);

    use serde::de::{self, IntoDeserializer, Visitor};

    impl<'de> IntoDeserializer<'de, Error> for ValueDe {
        type Deserializer = ValueDe;
        fn into_deserializer(self) -> ValueDe {
            self
        }
    }

    impl<'de> de::Deserializer<'de> for ValueDe {
        type Error = Error;

        fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            match self.0 {
                Value::Null => visitor.visit_unit(),
                Value::Bool(b) => visitor.visit_bool(b),
                Value::Num(x) => {
                    if x.fract() == 0.0 && x >= 0.0 && x <= u64::MAX as f64 {
                        visitor.visit_u64(x as u64)
                    } else if x.fract() == 0.0 && x < 0.0 && x >= i64::MIN as f64 {
                        visitor.visit_i64(x as i64)
                    } else {
                        visitor.visit_f64(x)
                    }
                }
                Value::Str(s) => visitor.visit_string(s),
                Value::Arr(items) => {
                    visitor.visit_seq(de::value::SeqDeserializer::new(items.into_iter().map(ValueDe)))
                }
                Value::Obj(map) => visitor.visit_map(de::value::MapDeserializer::new(
                    map.into_iter().map(|(k, v)| (k, ValueDe(v))),
                )),
            }
        }

        fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            match self.0 {
                Value::Num(x) => visitor.visit_f64(x),
                other => Err(Error(format!("expected number, got {other:?}"))),
            }
        }

        fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            match self.0 {
                Value::Null => visitor.visit_none(),
                v => visitor.visit_some(ValueDe(v)),
            }
        }

        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, Error> {
            match self.0 {
                Value::Str(s) => visitor.visit_enum(s.into_deserializer()),
                Value::Obj(map) if map.len() == 1 => {
                    let (variant, inner) = map.into_iter().next().expect("len 1");
                    visitor.visit_enum(EnumDe { variant, inner })
                }
                other => Err(Error(format!("cannot deserialize enum from {other:?}"))),
            }
        }

        fn deserialize_newtype_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, Error> {
            visitor.visit_newtype_struct(self)
        }

        serde::forward_to_deserialize_any! {
            bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 f32 char str string
            bytes byte_buf unit unit_struct seq tuple
            tuple_struct map struct identifier ignored_any
        }
    }

    struct EnumDe {
        variant: String,
        inner: Value,
    }

    impl<'de> de::EnumAccess<'de> for EnumDe {
        type Error = Error;
        type Variant = VariantDe;
        fn variant_seed<V: de::DeserializeSeed<'de>>(
            self,
            seed: V,
        ) -> Result<(V::Value, VariantDe), Error> {
            let v = seed.deserialize(self.variant.into_deserializer())?;
            Ok((v, VariantDe { inner: self.inner }))
        }
    }

    struct VariantDe {
        inner: Value,
    }

    impl<'de> de::VariantAccess<'de> for VariantDe {
        type Error = Error;
        fn unit_variant(self) -> Result<(), Error> {
            match self.inner {
                Value::Null => Ok(()),
                other => Err(Error(format!("expected unit variant, got {other:?}"))),
            }
        }
        fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
            self,
            seed: T,
        ) -> Result<T::Value, Error> {
            seed.deserialize(ValueDe(self.inner))
        }
        fn tuple_variant<V: Visitor<'de>>(
            self,
            _len: usize,
            visitor: V,
        ) -> Result<V::Value, Error> {
            match self.inner {
                Value::Arr(items) => {
                    visitor.visit_seq(de::value::SeqDeserializer::new(items.into_iter().map(ValueDe)))
                }
                other => Err(Error(format!("expected tuple variant, got {other:?}"))),
            }
        }
        fn struct_variant<V: Visitor<'de>>(
            self,
            _fields: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, Error> {
            match self.inner {
                Value::Obj(map) => visitor.visit_map(de::value::MapDeserializer::new(
                    map.into_iter().map(|(k, v)| (k, ValueDe(v))),
                )),
                other => Err(Error(format!("expected struct variant, got {other:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::section2_example;
    use crate::mapping::{Interval, Mapping};

    #[test]
    fn instance_roundtrip() {
        let (apps, platform) = section2_example();
        let mapping = Mapping::new()
            .with(Interval::new(0, 0, 2), 0, 0)
            .with(Interval::new(1, 0, 3), 2, 0);
        let inst = Instance::new("section 2 example", apps, platform)
            .with_thresholds(Thresholds::uniform_period(2.0, 2).with_energy(50.0))
            .with_mapping("energy-minimal", mapping);
        let json = inst.to_json().expect("serializes");
        let back = Instance::from_json(&json).expect("parses");
        assert_eq!(inst, back);
    }

    #[test]
    fn json_values_parse_and_print() {
        use super::json_value::{parse, Value};
        let v = parse(r#"{"a": [1, 2.5, -3], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        match &v {
            Value::Obj(m) => {
                assert_eq!(m.len(), 4);
                assert_eq!(m["c"], Value::Null);
                assert_eq!(m["d"], Value::Bool(true));
                assert_eq!(m["b"], Value::Str("x\ny".into()));
            }
            _ => panic!("expected object"),
        }
        // Round-trip through pretty printing.
        let text = v.pretty(0);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn bad_json_rejected() {
        assert!(Instance::from_json("not json").is_err());
        assert!(Instance::from_json("{}").is_err());
        use super::json_value::parse;
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("[1] trailing").is_err());
        // Nesting is bounded: a typed error past `MAX_DEPTH`, not a stack
        // overflow.
        use super::json_value::MAX_DEPTH;
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).unwrap_err().0.contains("nesting deeper than"));
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).unwrap_err().0.contains("nesting deeper than"));
        assert!(parse(&"[".repeat(100_000)).is_err());
        // `\u` takes exactly four hex digits (no sign); lone surrogates are
        // typed errors.
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u12""#,
            r#""\u12"#,
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\u+e00""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let (apps, platform) = section2_example();
        let mut inst = Instance::new("v-test", apps, platform);
        inst.version = 99;
        let json = inst.to_json().unwrap();
        match Instance::from_json(&json) {
            Err(InstanceError::Version { found: 99 }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn embedded_invalid_mapping_rejected() {
        let (apps, platform) = section2_example();
        let broken = Mapping::new().with(Interval::new(0, 0, 2), 0, 0); // app 1 unmapped
        let inst = Instance::new("bad", apps, platform).with_mapping("broken", broken);
        let json = inst.to_json().unwrap();
        assert!(matches!(
            Instance::from_json(&json),
            Err(InstanceError::InvalidMapping { .. })
        ));
    }

    #[test]
    fn unicode_and_escapes_survive() {
        use super::json_value::{parse, Value};
        let v = Value::Str("héllo \"wörld\" \t ∆".into());
        let text = v.pretty(0);
        assert_eq!(parse(&text).unwrap(), v);
        let v = parse(r#""Aé""#).unwrap();
        assert_eq!(v, Value::Str("Aé".into()));
        let v = parse(r#""A\u00e9""#).unwrap();
        assert_eq!(v, Value::Str("Aé".into()));
        // A UTF-16 surrogate pair decodes to one char.
        let v = parse(r#""\ud83d\ude00 \uD83D\uDE00""#).unwrap();
        assert_eq!(v, Value::Str("😀 😀".into()));
        // Backspace and form feed, escaped and written back.
        let v = parse(r#""a\bb\fc""#).unwrap();
        assert_eq!(v, Value::Str("a\u{8}b\u{c}c".into()));
        assert_eq!(parse(&v.pretty(0)).unwrap(), v);
    }
}
