//! Minimal JSON: a value tree, one renderer and one reader.
//!
//! The workspace is hermetic (no external crates), so this is a tiny
//! hand-rolled substitute for serde. It started life as the emit-only
//! summary writer in `rupicola-bench`; the persistent artifact store
//! promoted it here — the bottom of the crate stack — and grew a parser so
//! that compiled artifacts (Bedrock2 ASTs, derivation witnesses, specs)
//! can round-trip through disk. `rupicola-bench` re-exports this module,
//! so the `results/*.json` summaries render through the same code.
//!
//! Artifacts are written as a [`Json`] tree and read back with the
//! [`Reader`]: the decoders pull the text token by token, in the writer's
//! order, and build no tree. [`parse`] serves everything else (the
//! JSON-lines protocol, summaries, tools) and builds its tree through the
//! same [`Reader`], so every input shares one tokenizer: one string reader,
//! one number reader, one whitespace rule and one nesting limit.
//!
//! Rendering guarantees used by the artifact store:
//!
//! - `U64` renders all 64 bits exactly (no float round-trip);
//! - object keys keep insertion order, so rendering is a *canonical*
//!   function of the value tree — the content fingerprint hashes rendered
//!   bytes and relies on this;
//! - `render` → [`parse`] is the identity on trees that avoid `F64`
//!   (floats render at fixed 4-digit precision for human-readable rate
//!   summaries and are not used in stored artifacts).

use std::borrow::Cow;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (all our counters and words).
    U64(u64),
    /// A float, rendered with enough precision for rates.
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value at `key`, if this is an `Obj` containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders compact single-line JSON (the JSON-lines protocol framing:
    /// one request or response per line, so values must not contain raw
    /// newlines outside string escapes).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Writes the compact rendering ([`Json::render_compact`]) into `sink`
    /// chunk by chunk, without building it: a consumer that only hashes
    /// the rendering (the artifact store's content digest and request
    /// keys) allocates nothing for it.
    pub fn write_compact(&self, sink: &mut impl Sink) {
        self.write(sink, None);
    }

    /// The one renderer: compact when `indent` is `None`; otherwise
    /// pretty, with each element or member of a non-empty container on
    /// its own line, indented one level (two spaces) deeper than the
    /// container, which sits `indent` levels deep.
    fn write(&self, sink: &mut impl Sink, indent: Option<usize>) {
        match self {
            Json::Null => sink.put("null"),
            Json::Bool(b) => sink.put(if *b { "true" } else { "false" }),
            Json::U64(n) => write_u64(*n, sink),
            Json::F64(x) => {
                if x.is_finite() {
                    sink.put(&format!("{x:.4}"));
                } else {
                    sink.put("null");
                }
            }
            Json::Str(s) => write_escaped(s, sink),
            Json::Arr(items) => {
                write_items(sink, indent, ["[", "]"], items.iter().map(|v| (None, v)));
            }
            Json::Obj(pairs) => {
                let members = pairs.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_items(sink, indent, ["{", "}"], members);
            }
        }
    }
}

/// Writes a container: `open`, its items separated by `,` (a member's key
/// comes with its value), `close`.
fn write_items<'v>(
    sink: &mut impl Sink,
    indent: Option<usize>,
    [open, close]: [&str; 2],
    items: impl Iterator<Item = (Option<&'v str>, &'v Json)>,
) {
    let inner = indent.map(|depth| depth + 1);
    sink.put(open);
    let mut empty = true;
    for (key, value) in items {
        if !empty {
            sink.put(",");
        }
        empty = false;
        newline(sink, inner);
        if let Some(key) = key {
            write_escaped(key, sink);
            sink.put(if indent.is_some() { ": " } else { ":" });
        }
        value.write(sink, inner);
    }
    if !empty {
        newline(sink, indent);
    }
    sink.put(close);
}

/// In a pretty rendering, a line break and `depth` levels of indentation.
fn newline(sink: &mut impl Sink, indent: Option<usize>) {
    if let Some(depth) = indent {
        sink.put("\n");
        for _ in 0..depth {
            sink.put("  ");
        }
    }
}

/// Where [`Json::write_compact`] puts a rendering: a sequence of chunks
/// whose concatenation is the rendered text.
pub trait Sink {
    /// Appends one chunk.
    fn put(&mut self, chunk: &str);
}

impl Sink for String {
    fn put(&mut self, chunk: &str) {
        self.push_str(chunk);
    }
}

/// Writes `n` in decimal.
fn write_u64(mut n: u64, sink: &mut impl Sink) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    sink.put(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Writes `s` as a quoted JSON string: `"` and `\` escaped, `\n`, `\r`
/// and `\t` by name, other control characters as `\u00XX`, and
/// everything else verbatim, in runs between escapes.
fn write_escaped(s: &str, sink: &mut impl Sink) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    sink.put("\"");
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        // An ASCII byte is a whole character, so the runs stay UTF-8.
        sink.put(&s[run..at]);
        match named {
            Some(escape) => sink.put(escape),
            None => {
                let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]);
                let code = [b'\\', b'u', b'0', b'0', hi, lo];
                sink.put(std::str::from_utf8(&code).expect("escape is ASCII"));
            }
        }
        run = at + 1;
    }
    sink.put(&s[run..]);
    sink.put("\"");
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value (RFC 8259) from `input`, requiring that nothing
/// but whitespace follows it: [`Reader::value`], then [`Reader::finish`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, trailing garbage, integers
/// beyond `u64::MAX` (negative and fractional numbers parse as `F64`), or
/// containers nested deeper than the reader's limit.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut r = Reader::new(input);
    let value = r.value()?;
    r.finish()?;
    Ok(value)
}

/// Nesting ceiling for containers. Deep enough for every artifact the
/// store writes (the artifact codecs encode each right-nested chain as
/// one array, so a long program costs no depth; the deepest perf-suite
/// envelope nests 44 levels), shallow enough that adversarial input
/// errors out long before the stack guard page.
const MAX_DEPTH: usize = 512;

/// Decodes the escape sequence at `bytes[at]` (a `\`) into `out` and
/// returns the offset just past it; a `\uXXXX` high surrogate must be
/// followed by its low half. Errors carry the offset they were noticed at.
fn unescape(bytes: &[u8], at: usize, out: &mut String) -> Result<usize, (usize, &'static str)> {
    let hex4 = |at: usize| -> Result<u32, (usize, &'static str)> {
        let digits = bytes.get(at..at + 4).ok_or((at, "expected 4 hex digits"))?;
        digits.iter().try_fold(0, |v, &c| {
            (c as char).to_digit(16).map(|d| v * 16 + d).ok_or((at, "expected 4 hex digits"))
        })
    };
    let simple = match bytes.get(at + 1) {
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'u') => {
            let hi = hex4(at + 2)?;
            let (cp, end) = if (0xD800..0xDC00).contains(&hi) {
                if bytes.get(at + 6..at + 8) != Some(b"\\u") {
                    return Err((at + 6, "unpaired surrogate"));
                }
                let lo = hex4(at + 8)?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err((at + 12, "invalid low surrogate"));
                }
                (0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00), at + 12)
            } else if (0xDC00..0xE000).contains(&hi) {
                return Err((at + 6, "unpaired surrogate"));
            } else {
                (hi, at + 6)
            };
            out.push(char::from_u32(cp).ok_or((end, "invalid code point"))?);
            return Ok(end);
        }
        _ => return Err((at + 1, "invalid escape")),
    };
    out.push(simple);
    Ok(at + 2)
}

/// A pull reader over JSON text (RFC 8259): the artifact decoders read a
/// value token by token, in the order its writer wrote it, without
/// building a [`Json`] tree; [`value`](Reader::value) reads a whole value
/// as one, which is all [`parse`] does.
///
/// - Separators are implicit. A value or key read right after a complete
///   value first consumes the `,` between them, so a tagged array reads
///   as [`begin_arr`](Reader::begin_arr), the tag, its fields,
///   [`end_arr`](Reader::end_arr).
/// - Whitespace between tokens is skipped.
/// - Strings come back borrowed from the input unless they contain
///   escapes; raw control characters in a string are an error.
/// - Numbers are RFC 8259 numbers. [`u64`](Reader::u64) reads the only
///   ones artifacts carry, unsigned decimals that fit a `u64`, without
///   leading zeros; [`value`](Reader::value) reads any other as `F64`.
/// - Containers nest at most 512 levels deep, so a decoder that recurses
///   once per container is bounded too.
///
/// Every method fails on a token other than the one it reads, with a
/// [`ParseError`] at the offset it was noticed at.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// Whether a `,` must come before the next value or key.
    sep: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0, depth: 0, sep: false }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { message: message.into(), offset: self.pos }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The first byte of the next value, or the bracket that closes the
    /// current container; consumes the `,` before a value. Fails at the
    /// end of the input, on a missing `,` and on a `,` no value follows.
    pub fn peek(&mut self) -> Result<u8, ParseError> {
        self.skip_ws();
        let b = self.byte().ok_or_else(|| self.err("unexpected end of input"))?;
        if !self.sep || matches!(b, b']' | b'}') {
            return Ok(b);
        }
        if b != b',' {
            return Err(self.err("expected `,`"));
        }
        self.pos += 1;
        self.sep = false;
        self.skip_ws();
        match self.byte() {
            Some(b']' | b'}') => Err(self.err("expected a value after `,`")),
            Some(b) => Ok(b),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Whether the current array has another element.
    pub fn more(&mut self) -> Result<bool, ParseError> {
        Ok(self.peek()? != b']')
    }

    fn open(&mut self, bracket: u8) -> Result<(), ParseError> {
        if self.peek()? != bracket {
            return Err(self.err(format!("expected `{}`", bracket as char)));
        }
        self.enter()
    }

    /// Steps into the container whose opening bracket is the next byte.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        self.sep = false;
        Ok(())
    }

    fn close(&mut self, bracket: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.byte() != Some(bracket) {
            return Err(self.err(format!("expected `{}`", bracket as char)));
        }
        self.leave();
        Ok(())
    }

    /// Steps out of the container whose closing bracket is the next byte.
    fn leave(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        self.pos += 1;
        self.sep = true;
    }

    /// Reads the `[` that opens an array (not past the nesting limit).
    pub fn begin_arr(&mut self) -> Result<(), ParseError> {
        self.open(b'[')
    }

    /// Reads the `]` that closes the current array.
    pub fn end_arr(&mut self) -> Result<(), ParseError> {
        self.close(b']')
    }

    /// Reads the `{` that opens an object (not past the nesting limit).
    pub fn begin_obj(&mut self) -> Result<(), ParseError> {
        self.open(b'{')
    }

    /// Reads the `}` that closes the current object.
    pub fn end_obj(&mut self) -> Result<(), ParseError> {
        self.close(b'}')
    }

    /// Reads the object key `name` and its `:`. Any other key is an
    /// error: fields are read in the order they were written.
    pub fn key(&mut self, name: &str) -> Result<(), ParseError> {
        let at = self.pos;
        let key = self.any_key()?;
        if key != name {
            return Err(ParseError { message: format!("expected key `{name}`, found `{key}`"), offset: at });
        }
        Ok(())
    }

    /// Reads an object key, whatever its name, and its `:`.
    fn any_key(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let key = self.str()?;
        self.colon()?;
        Ok(key)
    }

    /// Reads the `:` after an object key.
    fn colon(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.byte() != Some(b':') {
            return Err(self.err("expected `:`"));
        }
        self.pos += 1;
        self.sep = false;
        Ok(())
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, ParseError> {
        if self.peek()? != b'"' {
            return Err(self.err("expected a string"));
        }
        self.str_here()
    }

    /// Reads the string whose opening quote is the next byte.
    fn str_here(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let bytes = self.text.as_bytes();
        let start = self.pos + 1;
        // Every stop below is at an ASCII byte or the end of the input,
        // so each slice of `text` falls on character boundaries.
        let run_end = |mut at: usize| {
            while bytes.get(at).is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20) {
                at += 1;
            }
            at
        };
        let mut at = run_end(start);
        let mut owned: Option<String> = None;
        loop {
            match bytes.get(at) {
                Some(b'"') => {
                    self.pos = at + 1;
                    self.sep = true;
                    return Ok(match owned {
                        Some(s) => Cow::Owned(s),
                        None => Cow::Borrowed(&self.text[start..at]),
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(|| self.text[start..at].to_string());
                    at = unescape(bytes, at, s)
                        .map_err(|(offset, message)| ParseError { message: message.into(), offset })?;
                    let run = run_end(at);
                    s.push_str(&self.text[at..run]);
                    at = run;
                }
                Some(_) => {
                    self.pos = at;
                    return Err(self.err("control character in string"));
                }
                None => {
                    self.pos = at;
                    return Err(self.err("unterminated string"));
                }
            }
        }
    }

    /// Reads a string as an owned `String`.
    pub fn string(&mut self) -> Result<String, ParseError> {
        self.str().map(Cow::into_owned)
    }

    /// Reads an unsigned decimal integer: no sign, leading zero, fraction
    /// or exponent, and at most `u64::MAX`.
    pub fn u64(&mut self) -> Result<u64, ParseError> {
        if !self.peek()?.is_ascii_digit() {
            return Err(self.err("expected an unsigned integer"));
        }
        let start = self.pos;
        let n = self.integer()?;
        if matches!(self.byte(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("expected an unsigned integer"));
        }
        self.sep = true;
        n.ok_or_else(|| ParseError { message: "integer out of range".into(), offset: start })
    }

    /// Reads a number: an unsigned integer as `U64` (at most `u64::MAX`),
    /// and one with a `-`, a fraction or an exponent as `F64`.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let n = self.integer()?;
        let fail = |message: &str| ParseError { message: message.into(), offset: start };
        if !negative && !matches!(self.byte(), Some(b'.' | b'e' | b'E')) {
            self.sep = true;
            return n.map(Json::U64).ok_or_else(|| fail("integer out of range"));
        }
        if self.byte() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        self.sep = true;
        // RFC 8259 number grammar is a subset of what `f64` parses.
        self.text[start..self.pos].parse().map(Json::F64).map_err(|_| fail("invalid number"))
    }

    /// Reads the integer part of a number, without a leading zero, and
    /// returns its value, or `None` past `u64::MAX`. Always inlined: as a
    /// call it slowed [`u64`](Reader::u64) by about a quarter (reading a
    /// 2,000-integer array on a 2-core x86-64 VM).
    #[inline(always)]
    fn integer(&mut self) -> Result<Option<u64>, ParseError> {
        let start = self.pos;
        let mut n = Some(0u64);
        while let Some(d) = self.byte().filter(u8::is_ascii_digit) {
            n = n.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        if self.pos - start > 1 && self.text.as_bytes()[start] == b'0' {
            return Err(ParseError { message: "leading zero".into(), offset: start });
        }
        Ok(n)
    }

    /// Reads one or more decimal digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while self.byte().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    fn word(&mut self, word: &str) -> Result<(), ParseError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.err(format!("expected `{word}`")));
        }
        self.pos += word.len();
        self.sep = true;
        Ok(())
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, ParseError> {
        match self.peek()? {
            b't' => self.word("true").map(|()| true),
            b'f' => self.word("false").map(|()| false),
            _ => Err(self.err("expected a boolean")),
        }
    }

    /// Reads a `null` if one comes next: `true` when it did, `false` (and
    /// nothing read) when another value does.
    pub fn null(&mut self) -> Result<bool, ParseError> {
        if self.peek()? != b'n' {
            return Ok(false);
        }
        self.word("null").map(|()| true)
    }

    /// Reads the next value, whatever it is, as a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        let first = self.peek()?;
        self.value_here(first)
    }

    /// Reads the value whose first byte, `first`, is the next byte (as
    /// [`peek`](Reader::peek) returned it, so nothing is peeked twice).
    fn value_here(&mut self, first: u8) -> Result<Json, ParseError> {
        match first {
            b'[' => {
                self.enter()?;
                let mut items = Vec::new();
                loop {
                    match self.peek()? {
                        b']' => break,
                        b => items.push(self.value_here(b)?),
                    }
                }
                self.leave();
                Ok(Json::Arr(items))
            }
            b'{' => {
                self.enter()?;
                let mut pairs = Vec::new();
                loop {
                    match self.peek()? {
                        b'}' => break,
                        b'"' => {
                            let key = self.str_here()?.into_owned();
                            self.colon()?;
                            pairs.push((key, self.value()?));
                        }
                        _ => return Err(self.err("expected a string")),
                    }
                }
                self.leave();
                Ok(Json::Obj(pairs))
            }
            b'"' => self.str_here().map(|s| Json::Str(s.into_owned())),
            b't' => self.word("true").map(|()| Json::Bool(true)),
            b'f' => self.word("false").map(|()| Json::Bool(false)),
            b'n' => self.word("null").map(|()| Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(format!("unexpected character `{}`", c as char))),
        }
    }

    /// Reads an array whose elements `item` reads, one at a time.
    pub fn list<T, E: From<ParseError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        self.begin_arr()?;
        let mut items = Vec::new();
        while self.more()? {
            items.push(item(self)?);
        }
        self.end_arr()?;
        Ok(items)
    }

    /// Consumes `text` if the input continues with exactly that text
    /// (after whitespace, and after the `,` a value here needs), and
    /// returns whether it did; on `false` nothing is consumed. `text` is
    /// one or more complete values or object members, as [`span`] reports
    /// them, so the reader stands after a complete value when it matches;
    /// an empty `text` never matches.
    ///
    /// [`span`]: Reader::span
    pub fn verbatim(&mut self, text: &str) -> bool {
        let (pos, sep) = (self.pos, self.sep);
        self.skip_ws();
        if self.sep {
            if self.byte() != Some(b',') {
                self.pos = pos;
                return false;
            }
            self.pos += 1;
            self.skip_ws();
        }
        if !text.is_empty() && self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            self.sep = true;
            true
        } else {
            (self.pos, self.sep) = (pos, sep);
            false
        }
    }

    /// Reads the next value with `read`, and returns what it read together
    /// with the value's exact text.
    pub fn span<T, E: From<ParseError>>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<(T, &'a str), E> {
        self.peek()?;
        let start = self.pos;
        let value = read(self)?;
        Ok((value, &self.text[start..self.pos]))
    }

    /// Requires that nothing but whitespace is left.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after the value"))
        }
    }
}

/// Decoders report a [`ParseError`] as their plain-text error.
impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_with_escapes() {
        let v = Json::obj([
            ("name", Json::str("a\"b\\c\nd")),
            ("n", Json::U64(7)),
            ("rate", Json::F64(0.5)),
            ("ok", Json::Bool(true)),
            ("items", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = v.render();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("\"rate\": 0.5000"));
        assert!(s.contains("\"empty\": []"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn parse_round_trips_render_without_floats() {
        let v = Json::obj([
            ("name", Json::str("αβ \"quoted\" \t tab")),
            ("n", Json::U64(u64::MAX)),
            ("ok", Json::Bool(false)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::U64(1), Json::str(""), Json::Obj(vec![])]),
            ),
        ]);
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(parse(&v.render_compact()).unwrap(), v);
    }

    /// The compact renderer as it was before it wrote to a [`Sink`]:
    /// character by character into one string. The oracle for
    /// [`write_compact_matches_the_reference_rendering`].
    fn reference_compact(v: &Json, out: &mut String) {
        use std::fmt::Write as _;
        let string = |s: &str, out: &mut String| {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        };
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x:.4}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    reference_compact(item, out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(k, out);
                    out.push(':');
                    reference_compact(v, out);
                }
                out.push('}');
            }
        }
    }

    fn random_string(rng: &mut rupicola_minicheck::Rng) -> String {
        const CHARS: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '↦',
            '😀',
        ];
        (0..rng.range(0, 8)).map(|_| *rng.pick(CHARS)).collect()
    }

    /// A random tree `depth` levels deep at most, whose floats are
    /// multiples of `1 / steps`.
    fn random_tree(rng: &mut rupicola_minicheck::Rng, depth: usize, steps: f64) -> Json {
        let leaf = depth == 0 || rng.below(3) == 0;
        match rng.below(if leaf { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.bool()),
            2 => Json::U64(match rng.below(3) {
                0 => rng.below(10),
                1 => u64::MAX - rng.below(3),
                _ => rng.next_u64(),
            }),
            3 => Json::F64(rng.below(1_000_000) as f64 / steps),
            4 => Json::Str(random_string(rng)),
            5 => Json::Arr(
                (0..rng.range(0, 4)).map(|_| random_tree(rng, depth - 1, steps)).collect(),
            ),
            _ => Json::Obj(
                (0..rng.range(0, 4))
                    .map(|_| (random_string(rng), random_tree(rng, depth - 1, steps)))
                    .collect(),
            ),
        }
    }

    /// Records every chunk a [`Sink`] receives, as bytes.
    struct Bytes(Vec<u8>);

    impl Sink for Bytes {
        fn put(&mut self, chunk: &str) {
            self.0.extend_from_slice(chunk.as_bytes());
        }
    }

    #[test]
    fn write_compact_matches_the_reference_rendering() {
        rupicola_minicheck::check("write_compact_matches_the_reference_rendering", 500, |rng| {
            let tree = random_tree(rng, 4, 64.0);
            let mut sink = Bytes(Vec::new());
            tree.write_compact(&mut sink);
            let mut reference = String::new();
            reference_compact(&tree, &mut reference);
            assert_eq!(sink.0, reference.as_bytes(), "{tree:?}");
            assert_eq!(tree.render_compact(), reference, "{tree:?}");
        });
    }

    #[test]
    fn render_is_pinned() {
        let tree = Json::obj([
            ("text", Json::str("tab\t \"q\" \\ \u{1} é\n")),
            ("rate", Json::F64(2.5)),
            ("empty", Json::Arr(vec![Json::Arr(vec![]), Json::Obj(vec![])])),
            (
                "nested",
                Json::obj([
                    ("a", Json::Arr(vec![Json::U64(1), Json::Null, Json::Bool(true)])),
                    ("b", Json::Obj(vec![])),
                ]),
            ),
        ]);
        assert_eq!(
            tree.render(),
            "{\n  \"text\": \"tab\\t \\\"q\\\" \\\\ \\u0001 é\\n\",\n  \"rate\": 2.5000,\n  \
             \"empty\": [\n    [],\n    {}\n  ],\n  \"nested\": {\n    \"a\": [\n      1,\n      \
             null,\n      true\n    ],\n    \"b\": {}\n  }\n}\n"
        );
    }

    #[test]
    fn parse_inverts_both_renderings() {
        // Multiples of 1/16 render exactly at four digits.
        rupicola_minicheck::check("parse_inverts_both_renderings", 500, |rng| {
            let tree = random_tree(rng, 4, 16.0);
            assert_eq!(parse(&tree.render()).as_ref(), Ok(&tree));
            assert_eq!(parse(&tree.render_compact()).as_ref(), Ok(&tree));
        });
    }

    #[test]
    fn parse_reads_rfc_8259_only() {
        for bad in [
            "\"a\tb\"", "\"a\nb\"", "01", "-01", "1.", "-.5", ".5", "-", "1e", "1e+", "+1",
            "{\"a\":1,}", "{\"a\" 1}", "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        for (good, value) in [
            ("0", Json::U64(0)),
            ("-0", Json::F64(-0.0)),
            ("0.5", Json::F64(0.5)),
            ("-1.25e-1", Json::F64(-0.125)),
            ("2E+2", Json::F64(200.0)),
            ("123456789012345678901.5", Json::F64(123_456_789_012_345_678_901.5)),
        ] {
            assert_eq!(parse(good), Ok(value), "{good:?}");
        }
    }

    #[test]
    fn a_scalar_at_the_nesting_limit_parses() {
        let nested = |n: usize| "[".repeat(n) + "0" + &"]".repeat(n);
        let mut tree = Json::U64(0);
        for _ in 0..MAX_DEPTH {
            tree = Json::Arr(vec![tree]);
        }
        assert_eq!(parse(&nested(MAX_DEPTH)), Ok(tree));
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Json::str("Aé"));
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "01x", "\"abc", "1 2", "nul"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_numbers_split_integer_and_float() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert!(parse("18446744073709551616").is_err());
        assert_eq!(parse("-2").unwrap(), Json::F64(-2.0));
        assert_eq!(parse("1.5e2").unwrap(), Json::F64(150.0));
    }

    #[test]
    fn depth_guard_rejects_pathological_nesting() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
    }

    /// Reads `text` as an array of strings with the pull reader.
    fn read_strs(text: &str) -> Result<Vec<Cow<'_, str>>, ParseError> {
        let mut r = Reader::new(text);
        let items = r.list(Reader::str)?;
        r.finish()?;
        Ok(items)
    }

    #[test]
    fn reader_borrows_plain_strings_and_unescapes_the_rest() {
        let items = read_strs(r#" [ "plain" , "a\"b\u00e9\ud83d\ude00c", "" ] "#).unwrap();
        assert!(matches!(items[0], Cow::Borrowed("plain")));
        assert!(matches!(&items[1], Cow::Owned(s) if s == "a\"bé😀c"));
        assert!(matches!(items[2], Cow::Borrowed("")));
        // Every string the renderer writes reads back.
        rupicola_minicheck::check("reader_reads_rendered_strings", 300, |rng| {
            let s = random_string(rng);
            let text = Json::Arr(vec![Json::str(s.clone())]).render_compact();
            assert_eq!(read_strs(&text).unwrap(), vec![Cow::Owned::<str>(s)]);
        });
    }

    #[test]
    fn reader_rejects_what_the_writer_never_writes() {
        for bad in [
            "", "[", "[\"a\",]", "[,\"a\"]", "[\"a\" \"b\"]", "[\"a\"] x", "[\"a\nb\"]",
            "[\"\\ud83d\"]", "[\"\\q\"]", "[\"abc", "{}", "[1]",
        ] {
            assert!(read_strs(bad).is_err(), "accepted {bad:?}");
        }
        let int = |text: &str| {
            let mut r = Reader::new(text);
            let n = r.u64()?;
            r.finish().map(|()| n)
        };
        assert_eq!(int("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(int(" 0 "), Ok(0));
        for bad in ["18446744073709551616", "123456789012345678901", "07", "-1", "1.5", "1e3", "x"] {
            assert!(int(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn reader_reads_objects_in_order_and_reports_spans() {
        let text = r#"{"a": [1, 2], "b" :null, "c":true}"#;
        let mut r = Reader::new(text);
        r.begin_obj().unwrap();
        r.key("a").unwrap();
        let (items, span) = r.span(|r| r.list(Reader::u64)).unwrap();
        assert_eq!((items, span), (vec![1, 2], "[1, 2]"));
        r.key("b").unwrap();
        assert!(r.null().unwrap());
        r.key("c").unwrap();
        assert!(!r.null().unwrap());
        assert!(r.bool().unwrap());
        r.end_obj().unwrap();
        r.finish().unwrap();
        let mut r = Reader::new(text);
        r.begin_obj().unwrap();
        assert!(r.key("b").is_err(), "fields are read in the written order");
    }

    #[test]
    fn verbatim_consumes_the_exact_text_or_nothing() {
        let text = r#"{"a":[1,2],"b":null}"#;
        // A match consumes the text, members and all.
        let mut r = Reader::new(text);
        r.begin_obj().unwrap();
        assert!(r.verbatim(r#""a":[1,2]"#));
        r.key("b").unwrap();
        assert!(r.null().unwrap());
        r.end_obj().unwrap();
        r.finish().unwrap();
        // A mismatch consumes nothing, not even the `,` or whitespace.
        let mut r = Reader::new(text);
        r.begin_obj().unwrap();
        for other in [r#""a":[1,3]"#, r#""a":[1,2],"c":null"#, r#""b""#, ""] {
            assert!(!r.verbatim(other), "matched {other:?}");
            assert_eq!((r.pos, r.sep), (1, false), "{other:?}");
        }
        r.key("a").unwrap();
        assert_eq!(r.list(Reader::u64).unwrap(), vec![1, 2]);
        let at = r.pos;
        assert!(!r.verbatim(r#""b":true"#));
        assert_eq!((r.pos, r.sep), (at, true));
        assert!(r.verbatim(r#""b":null"#), "the `,` is consumed with a match");
        r.end_obj().unwrap();
        r.finish().unwrap();
        // After a match the reader stands after a value: a key needs its `,`.
        let mut r = Reader::new(r#"{"a":1"b":2}"#);
        r.begin_obj().unwrap();
        assert!(r.verbatim(r#""a":1"#));
        assert!(r.key("b").is_err());
        // Whitespace before the text (and around the `,`) is skipped.
        let mut r = Reader::new(" [ 1 ,\n 2 ] ");
        r.begin_arr().unwrap();
        assert!(r.verbatim("1"));
        assert!(r.verbatim("2"));
        r.end_arr().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn reader_depth_guard_matches_the_parser() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let depth = |text: &str| {
            let mut r = Reader::new(text);
            let mut opened = 0;
            while r.begin_arr().is_ok() {
                opened += 1;
            }
            opened
        };
        assert_eq!(depth(&nested(MAX_DEPTH)), MAX_DEPTH);
        assert_eq!(depth(&nested(100_000)), MAX_DEPTH);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 1, "b": "x", "c": [true]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("c").unwrap().as_arr().unwrap()[0].as_bool(), Some(true));
        assert!(v.get("d").is_none());
    }
}
