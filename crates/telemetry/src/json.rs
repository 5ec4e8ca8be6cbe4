//! Hand-rolled deterministic JSON building blocks (the workspace is
//! dependency-free by design).
//!
//! Everything snapshot-shaped in this repo renders through
//! [`fmt_f64`] / [`escape`] so float formatting and string escaping
//! are byte-stable across runs, and through [`JsonObj`] for the
//! one-line machine-readable summaries the example binaries print.
//!
//! Every tabular artifact under `results/` (the four campaign files
//! and the bench-row files) is one shape — header fields, then one
//! named array of one-line records — written by [`render_table`] and
//! read back by [`parse`], so gates check the bytes that were written.

/// Renders an `f64` deterministically: Rust's shortest-round-trip
/// `Display`, with non-finite values mapped to `null` (JSON has no
/// NaN/inf) and negative zero normalized to `0`.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let v = if v == 0.0 { 0.0 } else { v }; // collapse -0.0
    let s = format!("{v}");
    // `Display` omits ".0" for integral floats; that is still valid
    // JSON and stable, so keep it as-is.
    s
}

/// Renders an `f64` with a fixed number of decimals (byte-stable where
/// shortest-round-trip `Display` would jitter), non-finite → `null`.
pub(crate) fn fmt_fixed(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in JSON (quotes added by callers'
/// format strings are *not* included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A tiny ordered JSON-object builder for one-line summaries:
/// fields render in insertion order, floats through [`fmt_f64`].
#[derive(Debug, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), fmt_f64(value)));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field rendered through `fmt_fixed`.
    pub fn fixed(mut self, key: &str, value: f64, decimals: usize) -> Self {
        self.fields
            .push((key.to_string(), fmt_fixed(value, decimals)));
        self
    }

    /// Adds an array-of-floats field, each through `fmt_fixed`.
    pub fn fixed_array(mut self, key: &str, values: &[f64], decimals: usize) -> Self {
        let items: Vec<String> = values.iter().map(|&v| fmt_fixed(v, decimals)).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", items.join(", "))));
        self
    }

    /// Adds a nested object field, rendered on the same line.
    pub fn obj(mut self, key: &str, value: JsonObj) -> Self {
        self.fields.push((key.to_string(), value.finish()));
        self
    }

    /// Renders the object on one line.
    pub fn finish(self) -> String {
        let body: Vec<String> = self
            .fields
            .into_iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(&k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders the one tabular-artifact shape: each `header` field on its
/// own line, then `array_key` holding one `rows` record per line.
pub fn render_table(header: JsonObj, array_key: &str, rows: Vec<JsonObj>) -> String {
    let mut out = String::from("{\n");
    for (k, v) in header.fields {
        out.push_str(&format!("  \"{}\": {v},\n", escape(&k)));
    }
    out.push_str(&format!("  \"{}\": [\n", escape(array_key)));
    let last = rows.len().saturating_sub(1);
    for (i, row) in rows.into_iter().enumerate() {
        let sep = if i == last { "" } else { "," };
        out.push_str(&format!("    {}{sep}\n", row.finish()));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A parsed JSON value. Objects keep their key order, and integers
/// stay exact instead of passing through `f64` (`merge_digest` in
/// `region_campaign.json` is a full-range `u64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i128),
    /// Any other number; always finite.
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The first field named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The exact value of a non-negative integer that fits `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// Any number as `f64` (integers are converted, possibly rounding).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing stopped.
    pub offset: usize,
    /// What was wrong there.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts; artifacts use 3.
const MAX_DEPTH: usize = 32;

/// Parses one JSON document. The text comes from files on disk, so
/// this is input validation: malformed, truncated or trailing-garbage
/// input is an `Err` carrying the byte offset, nesting is bounded by
/// `MAX_DEPTH`, and nothing panics.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.literal(),
        }
    }

    fn literal(&mut self) -> Result<Value, JsonError> {
        for (word, value) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
        ] {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        Err(self.err("expected a value"))
    }

    /// The comma-separated items after an opening bracket, up to
    /// `close`; `item` parses one and stores it.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1; // the opening bracket
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or a closing bracket"));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Value::Arr(items))
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        let mut fields = Vec::new();
        self.items(b'}', |p| {
            p.skip_ws();
            if p.peek() != Some(b'"') {
                return Err(p.err("expected a string key"));
            }
            let key = p.string()?;
            p.skip_ws();
            if !p.eat(b':') {
                return Err(p.err("expected ':'"));
            }
            fields.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Value::Obj(fields))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(self.err("malformed number"));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        let token = &self.text[start..self.pos];
        let parsed = if integral {
            token.parse().ok().map(Value::Int)
        } else {
            token
                .parse()
                .ok()
                .filter(|x: &f64| x.is_finite())
                .map(Value::Num)
        };
        parsed.ok_or(JsonError {
            offset: start,
            msg: "number out of range",
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or(self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            // Runs between escapes are copied whole; they start and end
            // next to ASCII bytes, so the slices fall on char boundaries.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(_) => return Err(self.err("control character in string")),
            }
            let escape = self.peek().ok_or(self.err("unterminated string"))?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                // `escape` writes `\u` only for control characters, so
                // surrogate pairs are not joined: a surrogate is an error.
                b'u' => char::from_u32(self.hex4()?).ok_or(self.err("surrogate in \\u escape"))?,
                _ => {
                    self.pos -= 1;
                    return Err(self.err("unknown escape"));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_are_json_safe() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(-0.0), "0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn obj_preserves_insertion_order() {
        let line = JsonObj::new()
            .str("example", "quickstart")
            .u64("seed", 42)
            .f64("psnr_db", 38.25)
            .bool("ok", true)
            .finish();
        assert_eq!(
            line,
            "{\"example\": \"quickstart\", \"seed\": 42, \"psnr_db\": 38.25, \"ok\": true}"
        );
    }

    #[test]
    fn fixed_floats_pad_and_null() {
        assert_eq!(fmt_fixed(1.5, 6), "1.500000");
        assert_eq!(fmt_fixed(569.46, 1), "569.5");
        assert_eq!(fmt_fixed(f64::INFINITY, 6), "null");
    }

    fn small_table() -> String {
        render_table(
            JsonObj::new().obj(
                "campaign",
                JsonObj::new().u64("seed", 42).fixed("load", 1.02, 6),
            ),
            "cells",
            vec![
                JsonObj::new()
                    .str("name", "a\"b")
                    .fixed("mttr_s", f64::INFINITY, 6),
                JsonObj::new()
                    .u64("digest", u64::MAX)
                    .fixed_array("frac", &[1.0, 0.0], 6),
            ],
        )
    }

    #[test]
    fn table_shape_is_header_then_one_record_per_line() {
        assert_eq!(
            small_table(),
            "{\n  \"campaign\": {\"seed\": 42, \"load\": 1.020000},\n  \"cells\": [\n    \
             {\"name\": \"a\\\"b\", \"mttr_s\": null},\n    \
             {\"digest\": 18446744073709551615, \"frac\": [1.000000, 0.000000]}\n  ]\n}\n"
        );
        assert_eq!(
            render_table(JsonObj::new().u64("host_cores", 2), "records", Vec::new()),
            "{\n  \"host_cores\": 2,\n  \"records\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn parse_reads_back_what_the_writer_wrote() {
        let doc = parse(&small_table()).unwrap();
        let campaign = doc.get("campaign").unwrap();
        assert_eq!(campaign.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(campaign.get("load").unwrap().as_f64(), Some(1.02));
        let cells = doc.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells[0].get("name").unwrap().as_str(), Some("a\"b"));
        assert_eq!(cells[0].get("mttr_s"), Some(&Value::Null));
        // A full-range u64 must not round through f64.
        assert_eq!(cells[1].get("digest").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(
            cells[1].get("frac").unwrap().as_array().unwrap(),
            [Value::Num(1.0), Value::Num(0.0)]
        );
        // Key order is document order.
        let Value::Obj(fields) = &cells[1] else {
            panic!("record must be an object")
        };
        assert_eq!(fields[0].0, "digest");
        assert_eq!(fields[1].0, "frac");
    }

    #[test]
    fn every_truncation_is_an_error() {
        let text = small_table();
        let text = text.trim_end();
        for cut in 0..text.len() {
            if text.is_char_boundary(cut) {
                assert!(parse(&text[..cut]).is_err(), "prefix of {cut} bytes parsed");
            }
        }
        assert!(parse(text).is_ok());
    }

    #[test]
    fn malformed_input_is_rejected_with_its_offset() {
        assert_eq!(parse("{} x").unwrap_err().offset, 3);
        assert_eq!(parse("[1, 2,]").unwrap_err().offset, 6);
        for bad in [
            "",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "1e999",
            "nul",
            "tru",
            "{\"a\" 1}",
            "{1: 2}",
            "[1 2]",
            "\"a\nb\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud83d\\ude00\"",
            "\"open",
            "é",
            "1e400",
            "340282366920938463463374607431768211456",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // A depth bomb fails fast instead of recursing.
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!((err.offset, err.msg), (MAX_DEPTH, "nesting too deep"));
    }

    #[test]
    fn numbers_and_escapes_follow_the_grammar() {
        assert_eq!(parse("-12").unwrap(), Value::Int(-12));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5e2").unwrap(), Value::Num(150.0));
        assert_eq!(parse("-0.25E-1").unwrap(), Value::Num(-0.025));
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t\u0041 é😀""#).unwrap(),
            Value::Str("\"\\/\u{8}\u{c}\n\r\tA é\u{1F600}".to_string())
        );
        assert_eq!(
            parse(" [true, false, null] ")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            3
        );
        // Whatever `escape` writes, `parse` reads back.
        let odd = "q\"b\\s\n\r\t\u{1}\u{7f}é";
        assert_eq!(
            parse(&format!("\"{}\"", escape(odd))).unwrap().as_str(),
            Some(odd)
        );
    }
}
