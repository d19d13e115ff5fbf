//! The one JSON reader: a dependency-free parser for every JSON text bmbe
//! reads back — the JSONL trace streams ([`crate::analyze`]), the Chrome
//! trace and flight-recorder dumps, and the committed `BENCH_*.json`
//! reports that `bmbe_bench::trend` gates.
//!
//! - Numbers keep their source text ([`Json::Num`]), so a count reads back
//!   as an exact `i64` ([`Json::as_i64`]) and a ratio as an `f64`.
//! - Strings are unescaped; a `\u` surrogate pair decodes to one
//!   character, and a lone surrogate is an error.
//! - Nesting deeper than [`MAX_DEPTH`] is an error, so no input can
//!   overflow the stack.
//!
//! Every error is `(byte offset, description)`.

/// The deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text (which the grammar has checked).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first member named `key` of an object; `None` for any other
    /// value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value reached from this one through the object keys of `path`.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |value, key| value.get(key))
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The text of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number written as an integer that fits an `i64`, exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// A number as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// Parses one JSON value, which may be surrounded by whitespace only.
///
/// # Errors
///
/// Returns `(byte offset, description)` of the first syntax error.
pub fn parse(text: &str) -> Result<Json, (usize, String)> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.at != text.len() {
        return Err(p.fail("trailing content after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, what: impl Into<String>) -> (usize, String) {
        (self.at, what.into())
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, (usize, String)> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.fail("unexpected end of input")),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.fail(format!("nested deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.fail("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.fail("expected an object key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(self.fail("expected ':'"));
                    }
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(b',') {
                        return Err(self.fail("expected ',' or '}'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                let c = self.text[self.at..].chars().next().unwrap_or_default();
                Err(self.fail(format!("unexpected character {c:?}")))
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, (usize, String)> {
        if !self.text[self.at..].starts_with(word) {
            return Err(self.fail(format!("expected {word}")));
        }
        self.at += word.len();
        Ok(value)
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        self.at - start
    }

    fn number(&mut self) -> Result<Json, (usize, String)> {
        let start = self.at;
        self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.at += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.fail("expected a digit")),
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.fail("expected a fraction digit"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.fail("expected an exponent digit"));
            }
        }
        Ok(Json::Num(self.text[start..self.at].to_string()))
    }

    /// The string at the opening quote under the cursor, unescaped.
    fn string(&mut self) -> Result<String, (usize, String)> {
        self.at += 1;
        let mut out = String::new();
        // Unescaped bytes are copied a run at a time; a run ends only at
        // an ASCII byte, so it is whole characters.
        let mut run = self.at;
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.at]);
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.at]);
                    out.push(self.escape()?);
                    run = self.at;
                }
                Some(b) if b < 0x20 => return Err(self.fail("raw control character in a string")),
                Some(_) => self.at += 1,
            }
        }
    }

    /// The character of the escape at the backslash under the cursor.
    fn escape(&mut self) -> Result<char, (usize, String)> {
        let start = self.at;
        self.at += 1;
        let simple = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.at += 1;
                let unit = self.hex4()?;
                let code = match unit {
                    0xd800..=0xdbff if self.text[self.at..].starts_with("\\u") => {
                        self.at += 2;
                        match self.hex4()? {
                            low @ 0xdc00..=0xdfff => {
                                0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                            }
                            _ => return Err((start, "lone surrogate".to_string())),
                        }
                    }
                    0xd800..=0xdfff => return Err((start, "lone surrogate".to_string())),
                    unit => unit,
                };
                return char::from_u32(code).ok_or((start, "bad \\u escape".to_string()));
            }
            _ => return Err(self.fail("bad escape")),
        };
        self.at += 1;
        Ok(simple)
    }

    /// The four hex digits under the cursor.
    fn hex4(&mut self) -> Result<u32, (usize, String)> {
        let digits = self.text.as_bytes().get(self.at..self.at + 4);
        let value = digits.and_then(|digits| {
            digits.iter().try_fold(0, |value, &d| {
                char::from(d).to_digit(16).map(|d| value * 16 + d)
            })
        });
        let value = value.ok_or_else(|| self.fail("bad \\u escape"))?;
        self.at += 4;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse_with_exact_numbers() -> Result<(), (usize, String)> {
        let value = parse(" {\"a\": [1, -2.5e-3, \"x\\n\", true, null], \"b\": {}} ")?;
        let items = value.get("a").and_then(Json::as_array).unwrap_or_default();
        assert_eq!(items.len(), 5);
        assert_eq!(items[0].as_i64(), Some(1));
        assert_eq!(items[1], Json::Num("-2.5e-3".to_string()));
        assert_eq!(items[1].as_i64(), None);
        assert_eq!(items[2].as_str(), Some("x\n"));
        assert_eq!(value.at(&["b"]), Some(&Json::Obj(Vec::new())));
        assert_eq!(value.at(&["a", "b"]), None);
        // A count past 2^53 reads back exactly.
        assert_eq!(
            parse("9007199254740993")?.as_i64(),
            Some(9_007_199_254_740_993)
        );
        assert_eq!(parse("9223372036854775808")?.as_i64(), None);
        Ok(())
    }

    #[test]
    fn escapes_and_surrogate_pairs_decode() -> Result<(), (usize, String)> {
        let value = parse(r#""\"\\\/\b\f\n\r\t\u0001\u00e9\ud83d\ude00é""#)?;
        assert_eq!(
            value.as_str(),
            Some("\"\\/\u{8}\u{c}\n\r\t\u{1}é\u{1f600}é")
        );
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
        ] {
            assert_eq!(
                parse(lone),
                Err((1, "lone surrogate".to_string())),
                "{lone}"
            );
        }
        Ok(())
    }

    #[test]
    fn malformed_text_is_a_positioned_error() {
        let cases = [
            ("", 0),
            ("{\"a\": }", 6),
            ("[1, 2", 5),
            ("{} extra", 3),
            ("\"unterminated", 13),
            ("\"tab\there\"", 4),
            ("01", 1),
            ("1.", 2),
            ("-", 1),
            ("1e+", 3),
            ("tru", 0),
            ("\"\\x\"", 2),
            ("\"\\u12g4\"", 3),
            ("{1: 2}", 1),
            ("[1 2]", 3),
            ("é", 0),
        ];
        for (text, at) in cases {
            assert_eq!(
                parse(text).map_err(|(offset, _)| offset),
                Err(at),
                "{text:?}"
            );
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_an_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&deep(MAX_DEPTH + 1)).map_err(|(at, _)| at),
            Err(MAX_DEPTH)
        );
        let hostile = "[".repeat(1_000_000);
        assert_eq!(parse(&hostile).map_err(|(at, _)| at), Err(MAX_DEPTH));
        assert!(parse(&"{\"a\": ".repeat(1_000_000)).is_err());
    }
}
