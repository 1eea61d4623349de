//! A minimal JSON tree with a deterministic writer and a strict parser.
//!
//! The vendored `serde` stand-in deliberately ships no `serde_json` (see
//! `vendor/README.md`), so every machine-readable artifact in the workspace —
//! the `BENCH_*.json` reports of `pdm-bench` and the tenant-state snapshots
//! of `pdm-service` — serialises through this hand-rolled module instead.  It
//! lives here because `pdm-linalg` is the dependency-free root of the crate
//! DAG, so both producers can share one implementation.  Two properties
//! matter for those pipelines and are covered by tests:
//!
//! * **Determinism** — object keys keep insertion order and numbers render
//!   through `f64`'s shortest-round-trip `Display`, so the same report always
//!   produces the same bytes (the determinism suite compares outputs of runs
//!   with different worker counts byte-for-byte).
//! * **Round-trip** — `parse(render(v))` reproduces `v` for every value this
//!   module can emit.  Non-finite numbers are written as `null` (JSON has no
//!   NaN/inf) and read back as NaN.  Finite numbers round-trip *exactly*:
//!   Rust's `Display` for `f64` prints the shortest decimal that parses back
//!   to the same bits, which is what makes JSON snapshots bit-faithful.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts.  The parser
/// recurses once per level, so an unbounded depth lets a hostile document
/// (say 200,000 nested `[`) overflow the stack and abort the process; past
/// this depth it returns an error instead.  Snapshots, WAL segments and
/// bench reports nest well under a dozen levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.  Objects preserve insertion order (no map type) so renders
/// are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also used to encode non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key/value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (keeps the given order).
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.  `Null` reads back as NaN (the writer encodes
    /// non-finite numbers as `null`), anything else is `None`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects negatives and fractions).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value with two-space indentation and a trailing newline,
    /// the format the `BENCH_*.json` files are written in.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_sequence(out, indent, level, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, level + 1);
                });
            }
            Json::Obj(pairs) => {
                write_sequence(out, indent, level, '{', '}', pairs.len(), |out, i| {
                    let (key, value) = &pairs[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                });
            }
        }
    }

    /// Parses a JSON document, requiring it to span the whole input and to
    /// nest at most [`MAX_DEPTH`] arrays/objects deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

/// Shared body/indentation logic for arrays and objects.
fn write_sequence(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (level + 1)));
        }
        write_item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // pdm-lint: allow(no-lossy-cast) reason="char to u32 is lossless by the language definition; the lexical lint cannot see the source type"
            c if (c as u32) < 0x20 => {
                // pdm-lint: allow(no-lossy-cast) reason="char to u32 is lossless by the language definition; the lexical lint cannot see the source type"
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape.  Both
                // are ASCII, so the run ends on a char boundary of the input
                // `&str`, and validating it costs only its own length.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8")?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let value = Json::obj(vec![
            ("a", Json::Num(1.0)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::str("x\ny")),
        ]);
        assert_eq!(value.render(), r#"{"a":1,"b":[true,null],"c":"x\ny"}"#);
        let pretty = value.render_pretty();
        assert!(pretty.contains("\n  \"a\": 1,"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn round_trips_every_emittable_value() {
        let value = Json::obj(vec![
            ("int", Json::Num(42.0)),
            ("neg", Json::Num(-0.125)),
            ("tiny", Json::Num(1.234e-9)),
            ("nan_as_null", Json::Num(f64::NAN)),
            ("text", Json::str("quotes \" and \\ and unicode é")),
            ("flag", Json::Bool(false)),
            (
                "nested",
                Json::Arr(vec![Json::obj(vec![("k", Json::Num(7.5))])]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = value.render();
        let reparsed = Json::parse(&text).expect("parse");
        // NaN rendered as null, so compare via a second render.
        assert_eq!(reparsed.render(), text);
        // Pretty form parses back to the same tree as the compact form.
        assert_eq!(Json::parse(&value.render_pretty()).unwrap(), reparsed);
    }

    #[test]
    fn accessors_navigate_objects() {
        let value = Json::parse(r#"{"n": 3, "s": "hi", "a": [1, 2], "x": null}"#).unwrap();
        assert_eq!(value.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(value.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            value.get("a").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert!(value.get("x").and_then(Json::as_f64).unwrap().is_nan());
        assert!(value.get("missing").is_none());
        assert_eq!(value.get("s").and_then(Json::as_u64), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn multi_mebibyte_strings_parse_in_linear_time_and_round_trip() {
        // Multi-byte characters (2-, 3- and 4-byte UTF-8) interleaved with
        // escapes, ~6 MiB in all.  The parser used to re-validate the rest
        // of the document per character, which made this take minutes.
        let original = "é€😀 \"quoted\" \\ tab\t ".repeat(250_000);
        assert!(original.len() > 6 << 20);
        let rendered = Json::obj(vec![("blob", Json::Str(original.clone()))]).render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(
            parsed.get("blob").and_then(Json::as_str),
            Some(original.as_str())
        );
        assert_eq!(parsed.render(), rendered);
    }

    #[test]
    fn nesting_beyond_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let hostile = "[".repeat(200_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = "{\"a\":".repeat(200_000);
        assert!(Json::parse(&objects).is_err());
        // Exactly MAX_DEPTH levels still parse; one more does not.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\ttab \"quoted\" back\\slash \u{1}control";
        let rendered = Json::Str(original.to_owned()).render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        // Standard escapes the writer never emits still parse.
        assert_eq!(
            Json::parse(r#""A\b\f\/""#).unwrap().as_str(),
            Some("A\u{8}\u{c}/")
        );
    }
}
