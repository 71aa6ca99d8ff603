//! Flat JSON: the one reader and the one string escaper.
//!
//! Every JSON line the workspace reads or writes is one *flat* object:
//! trace events ([`crate::Event`]), `cmvrp serve` requests and replies,
//! and the strings of bench snapshots. [`Object::parse`] reads exactly
//!
//! ```text
//! object := ws "{" ws [ pair ( ws "," ws pair )* ] ws "}" ws
//! pair   := string ws ":" ws value
//! value  := string | integer | "true" | "false" | array
//! array  := "[" ws [ integer ( ws "," ws integer )* ] ws "]"
//! string := '"' ( char | escape )* '"'
//! escape := \" | \\ | \/ | \n | \t | \r | \uXXXX
//! ```
//!
//! and [`quote`] writes every string with that escape set, so whatever
//! it writes reads back unchanged. A repeated key is an error naming the
//! key. Syntax errors keep the wording the serve wire has always replied
//! with, e.g. `request must be one JSON object per line, starting with
//! '{'`.
//!
//! One [`Object`] serves every caller. The typed getters read a key when
//! it is present and name the key and the expected type when it holds
//! something else, so event parsing can ignore unknown keys (the trace
//! schema is append-only) while the wire rejects them through
//! [`Object::unknown_key`]. Each field also keeps the exact spelling of
//! its value, which is what `trace diff` reports.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Appends `quote(s)` to `out` without building a separate string.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// newline, tab and carriage return become `\n`, `\t` and `\r`, and every
/// other control character becomes `\u00XX`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

#[derive(Debug, Clone, PartialEq)]
enum Value<'a> {
    Str(Cow<'a, str>),
    Int(i128),
    Bool(bool),
    Arr(Vec<i64>),
}

impl Value<'_> {
    fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "a string",
            Value::Int(_) => "an integer",
            Value::Bool(_) => "a boolean",
            Value::Arr(_) => "an array",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Field<'a> {
    key: Cow<'a, str>,
    value: Value<'a>,
    /// The value exactly as spelled in the source.
    raw: &'a str,
}

/// One parsed flat JSON object; see the [module docs](self) for the
/// grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct Object<'a> {
    fields: Vec<Field<'a>>,
}

impl<'a> Object<'a> {
    /// Parses one object, surrounded by optional whitespace. `what` names
    /// the line (`request`, `event`) in the errors about its framing.
    ///
    /// # Errors
    ///
    /// Names the first construct outside the grammar, in the words the
    /// serve wire has always used, or a key that appears twice.
    pub fn parse(src: &'a str, what: &str) -> Result<Object<'a>, String> {
        let mut r = Reader { src, pos: 0 };
        r.ws();
        if !r.eat(b'{') {
            return Err(format!(
                "{what} must be one JSON object per line, starting with '{{'"
            ));
        }
        let mut fields: Vec<Field<'a>> = Vec::new();
        r.ws();
        if !r.eat(b'}') {
            loop {
                r.ws();
                if !r.eat(b'"') {
                    return Err("expected a '\"'-quoted key".to_string());
                }
                let key = r.string()?;
                r.ws();
                if !r.eat(b':') {
                    return Err(format!("key {key:?} must be followed by ':'"));
                }
                r.ws();
                let start = r.pos;
                let value = r.value(&key)?;
                fields.push(Field {
                    key,
                    value,
                    raw: &src[start..r.pos],
                });
                r.ws();
                if r.eat(b'}') {
                    break;
                }
                if !r.eat(b',') {
                    return Err("object must close with '}'".to_string());
                }
            }
        }
        r.ws();
        if r.pos < src.len() {
            return Err(format!("trailing content after the {what} object"));
        }
        if let Some(key) = repeated_key(&fields) {
            return Err(format!("duplicate key {key:?}"));
        }
        Ok(Object { fields })
    }

    /// Every field's key and the exact spelling of its value, in source
    /// order.
    pub(crate) fn fields(&self) -> impl Iterator<Item = (&str, &'a str)> + '_ {
        self.fields.iter().map(|f| (&*f.key, f.raw))
    }

    /// The first key not in `known`, if any.
    pub fn unknown_key(&self, known: &[&str]) -> Option<&str> {
        self.fields
            .iter()
            .map(|f| &*f.key)
            .find(|k| !known.contains(k))
    }

    /// The string at `key`; `None` when the key is absent, an error when
    /// it holds another type.
    pub fn str(&self, key: &str) -> Result<Option<&str>, String> {
        self.typed(key, "a string", |v| match v {
            Value::Str(s) => Some(&**s),
            _ => None,
        })
    }

    /// The unsigned integer at `key`; `None` when the key is absent, an
    /// error when it holds another type or a value outside `u64`.
    pub fn u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.int(key, "an unsigned integer", |n| u64::try_from(n).ok())
    }

    /// The signed integer at `key`; `None` when the key is absent, an
    /// error when it holds another type or a value outside `i64`.
    pub fn i64(&self, key: &str) -> Result<Option<i64>, String> {
        self.int(key, "an integer", |n| i64::try_from(n).ok())
    }

    /// The boolean at `key`; `None` when the key is absent, an error when
    /// it holds another type.
    pub fn bool(&self, key: &str) -> Result<Option<bool>, String> {
        self.typed(key, "a boolean", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// The integer array at `key`; `None` when the key is absent, an
    /// error when it holds another type.
    pub fn arr(&self, key: &str) -> Result<Option<&[i64]>, String> {
        self.typed(key, "an integer array", |v| match v {
            Value::Arr(a) => Some(a.as_slice()),
            _ => None,
        })
    }

    /// An integer getter: a value of another type is named by its type,
    /// an integer that `fit` rejects by its value, as the reader names an
    /// integer too long for it.
    fn int<T>(
        &self,
        key: &str,
        what: &str,
        fit: impl FnOnce(i128) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let n = self.typed(key, what, |v| match v {
            Value::Int(n) => Some(*n),
            _ => None,
        })?;
        n.map(|n| fit(n).ok_or_else(|| format!("\"{n}\" is not {what}")))
            .transpose()
    }

    fn typed<'s, T>(
        &'s self,
        key: &str,
        what: &str,
        pick: impl FnOnce(&'s Value<'a>) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(field) = self.fields.iter().find(|f| f.key == key) else {
            return Ok(None);
        };
        pick(&field.value)
            .map(Some)
            .ok_or_else(|| format!("key {key:?} must be {what}, not {}", field.value.kind()))
    }
}

/// A key that appears more than once (the smallest, if several do). The
/// keys are sorted rather than compared pairwise, so a hostile object
/// with many keys costs `n log n`, not `n²`.
fn repeated_key<'f>(fields: &'f [Field<'_>]) -> Option<&'f str> {
    let mut keys: Vec<&str> = fields.iter().map(|f| &*f.key).collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// A byte cursor over the source. It only ever stops next to an ASCII
/// byte or at the end, so every slice it takes lies on char boundaries.
struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Advances over the bytes `keep` accepts.
    fn skip(&mut self, keep: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&keep) {
            self.pos += 1;
        }
    }

    fn ws(&mut self) {
        self.skip(|b| b.is_ascii_whitespace());
    }

    /// The rest of a string whose opening quote is consumed, borrowed
    /// from the source unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let src = self.src;
        let plain = |b: u8| b != b'"' && b != b'\\';
        let start = self.pos;
        self.skip(plain);
        if self.eat(b'"') {
            return Ok(Cow::Borrowed(&src[start..self.pos - 1]));
        }
        let mut out = String::from(&src[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => {
                    let run = self.pos;
                    self.skip(plain);
                    out.push_str(&src[run..self.pos]);
                }
            }
        }
    }

    /// One escape sequence, the cursor on its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let src = self.src;
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'u') => {
                let hex = src
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or("\\u must be followed by four hex digits")?;
                let c = u32::from_str_radix(hex, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| format!("\\u{hex} is not a character"))?;
                self.pos += 5;
                return Ok(c);
            }
            _ => {
                let other = src[self.pos..].chars().next();
                return Err(format!(
                    "unsupported string escape {other:?}; supported: \\\" \\\\ \\/ \\n \\t \\r \\uXXXX"
                ));
            }
        };
        self.pos += 1;
        Ok(c)
    }

    /// An optional minus and the digits after it, read as a `T`.
    fn int<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let start = self.pos;
        self.eat(b'-');
        self.skip(|b| b.is_ascii_digit());
        let text = &self.src[start..self.pos];
        text.parse()
            .map_err(|_| format!("{text:?} is not an integer"))
    }

    fn value(&mut self, key: &str) -> Result<Value<'a>, String> {
        let src = self.src;
        Ok(match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                Value::Str(self.string()?)
            }
            Some(b'-' | b'0'..=b'9') => Value::Int(self.int()?),
            Some(b't' | b'f') => {
                let start = self.pos;
                self.skip(|b| b.is_ascii_alphabetic());
                match &src[start..self.pos] {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    word => {
                        return Err(format!(
                            "key {key:?} has unrecognized value {word:?}; values are \
                             strings, integers, true/false, or integer arrays"
                        ))
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.ws();
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        self.ws();
                        items.push(self.int()?);
                        self.ws();
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(format!("array for key {key:?} must close with ']'"));
                        }
                    }
                }
                Value::Arr(items)
            }
            _ => {
                return Err(format!(
                    "key {key:?} has an unrecognized value; values are strings, \
                     integers, true/false, or integer arrays"
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_value_type_with_raw_spellings() {
        let o = Object::parse(
            " { \"a\" : [ 1 , -2 ] , \"b\" : true, \"s\":\"x\\\"y\", \"n\":-7} ",
            "event",
        )
        .unwrap();
        assert_eq!(o.arr("a").unwrap(), Some(&[1, -2][..]));
        assert_eq!(o.bool("b").unwrap(), Some(true));
        assert_eq!(o.str("s").unwrap(), Some("x\"y"));
        assert_eq!(o.i64("n").unwrap(), Some(-7));
        assert_eq!(o.u64("missing").unwrap(), None);
        let raw: Vec<(&str, &str)> = o.fields().collect();
        assert_eq!(
            raw,
            vec![
                ("a", "[ 1 , -2 ]"),
                ("b", "true"),
                ("s", "\"x\\\"y\""),
                ("n", "-7")
            ]
        );
        assert_eq!(o.unknown_key(&["a", "b", "s"]), Some("n"));
        assert_eq!(Object::parse("{}", "event").unwrap().fields().count(), 0);
    }

    #[test]
    fn typed_getters_name_the_key_and_the_type() {
        let o = Object::parse("{\"t\":-1,\"s\":\"x\",\"n\":9223372036854775808}", "event").unwrap();
        assert_eq!(o.u64("t").unwrap_err(), "\"-1\" is not an unsigned integer");
        assert_eq!(
            o.i64("n").unwrap_err(),
            "\"9223372036854775808\" is not an integer"
        );
        assert_eq!(
            o.i64("s").unwrap_err(),
            "key \"s\" must be an integer, not a string"
        );
        assert_eq!(
            o.str("t").unwrap_err(),
            "key \"t\" must be a string, not an integer"
        );
    }

    /// Every construct outside the grammar, with the message the serve
    /// wire has always replied with (`what` = `request` there).
    #[test]
    fn rejects_what_the_grammar_does_not_hold() {
        const VALUES: &str = "values are strings, integers, true/false, or integer arrays";
        const ESCAPES: &str = "supported: \\\" \\\\ \\/ \\n \\t \\r \\uXXXX";
        let framing = "event must be one JSON object per line, starting with '{'";
        for (bad, msg) in [
            ("", framing.to_string()),
            ("not json", framing.to_string()),
            ("[1,2]", framing.to_string()),
            ("{\"x\":1.5}", "object must close with '}'".into()),
            ("{\"x\":1 \"y\":2}", "object must close with '}'".into()),
            ("{\"x\":1", "object must close with '}'".into()),
            (
                "{\"x\":{}}",
                format!("key \"x\" has an unrecognized value; {VALUES}"),
            ),
            (
                "{\"x\":null}",
                format!("key \"x\" has an unrecognized value; {VALUES}"),
            ),
            (
                "{\"x\":truex}",
                format!("key \"x\" has unrecognized value \"truex\"; {VALUES}"),
            ),
            (
                "{\"x\":1}extra",
                "trailing content after the event object".into(),
            ),
            ("{\"x\":1,}", "expected a '\"'-quoted key".into()),
            ("{,}", "expected a '\"'-quoted key".into()),
            ("{x:1}", "expected a '\"'-quoted key".into()),
            ("{", "expected a '\"'-quoted key".into()),
            ("{\"x\" 1}", "key \"x\" must be followed by ':'".into()),
            (
                "{\"x\":[1 2]}",
                "array for key \"x\" must close with ']'".into(),
            ),
            ("{\"x\":[1,,2]}", "\"\" is not an integer".into()),
            ("{\"x\":[,]}", "\"\" is not an integer".into()),
            ("{\"x\":[1,2,]}", "\"\" is not an integer".into()),
            (
                "{\"x\":[9223372036854775808]}",
                "\"9223372036854775808\" is not an integer".into(),
            ),
            ("{\"x\":-}", "\"-\" is not an integer".into()),
            (
                "{\"x\":99999999999999999999999999999999999999999}",
                "\"99999999999999999999999999999999999999999\" is not an integer".into(),
            ),
            (
                "{\"x\":\"\\q\"}",
                format!("unsupported string escape Some('q'); {ESCAPES}"),
            ),
            (
                "{\"x\":\"\\",
                format!("unsupported string escape None; {ESCAPES}"),
            ),
            ("{\"x\":\"\\ud800\"}", "\\ud800 is not a character".into()),
            (
                "{\"x\":\"\\u12\"}",
                "\\u must be followed by four hex digits".into(),
            ),
            (
                "{\"x\":\"\\u+041\"}",
                "\\u must be followed by four hex digits".into(),
            ),
            ("{\"x\":\"open", "unterminated string".into()),
            ("{} {}", "trailing content after the event object".into()),
        ] {
            assert_eq!(Object::parse(bad, "event").unwrap_err(), msg, "{bad}");
        }
    }

    #[test]
    fn repeated_keys_are_named() {
        assert_eq!(
            Object::parse("{\"t\":1,\"u\":2,\"t\":3}", "event").unwrap_err(),
            "duplicate key \"t\""
        );
        // An object with many keys.
        let mut many: Vec<String> = (0..40).map(|i| format!("\"k{i}\":{i}")).collect();
        many.push("\"k7\":0".into());
        let line = format!("{{{}}}", many.join(","));
        assert_eq!(
            Object::parse(&line, "event").unwrap_err(),
            "duplicate key \"k7\""
        );
    }

    #[test]
    fn escapes_read_back() {
        let o = Object::parse("{\"s\":\"a\\/b\\n\\t\\r\\u0001\\u00e9\"}", "event").unwrap();
        assert_eq!(o.str("s").unwrap(), Some("a/b\n\t\r\u{1}é"));
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(quote("\u{1f}\t\r"), "\"\\u001f\\t\\r\"");
    }

    /// Random strings, control characters and non-ASCII text included,
    /// survive the escaper and the reader unchanged.
    #[test]
    fn escaper_and_reader_roundtrip_random_strings() {
        const ALPHABET: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{1b}', '\u{7f}', 'é',
            'ß', '→', '∑', '😀', '{', '}', ',', ':', '[', ']', '#', 'u',
        ];
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..2000 {
            let len = (rng() % 24) as usize;
            let s: String = (0..len)
                .map(|_| ALPHABET[(rng() % ALPHABET.len() as u64) as usize])
                .collect();
            let mut line = String::from("{\"k\":");
            write_str(&mut line, &s);
            line.push('}');
            assert!(!line.contains('\n'), "{line:?}");
            let o = Object::parse(&line, "event").unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!(o.str("k").unwrap(), Some(s.as_str()), "{line:?}");
        }
    }
}
