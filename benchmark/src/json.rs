//! A JSON value with a strict parser and a writer.
//!
//! The workspace's `serde` is a no-op shim, so the benchmark carries its
//! own: results files, `expected.json` and `BENCHMARK.json` all go through
//! this one type. The parser accepts exactly RFC 8259 (no trailing commas,
//! no comments, no bare values after the document), which is what lets the
//! writer's tests prove its output is valid.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of numbers.
    pub fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
    }

    /// An array of strings.
    pub fn strs<S: AsRef<str>>(xs: &[S]) -> Json {
        Json::Arr(
            xs.iter()
                .map(|s| Json::Str(s.as_ref().to_string()))
                .collect(),
        )
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact one-line rendering.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering, newline-terminated.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` on an f64 prints the shortest text that parses back to
            // the same bits, so every measured digit survives; JSON has no
            // NaN or infinity, and a metric that is one is a bug upstream.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(xs) => {
                out.push('[');
                // Arrays of scalars (sample lists) stay on one line.
                let flat = xs.iter().all(|x| !matches!(x, Json::Arr(_) | Json::Obj(_)));
                let indent = if flat { None } else { indent };
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline_at(out, indent, depth + 1);
                    x.write(out, indent, depth + 1);
                }
                if !xs.is_empty() {
                    newline_at(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline_at(out, indent, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_at(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; anything but whitespace after it is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value(0)?;
        p.ws();
        if p.i != p.s.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

/// Starts an indented line when pretty-printing; nothing when compact.
fn newline_at(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(n) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', n * depth));
    }
}

fn write_str(out: &mut String, s: &str) {
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
}

/// Nesting bound: input comes from files a user names on the command line.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.s.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                self.i += 1;
                let mut pairs: Vec<(String, Json)> = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    if pairs.iter().any(|(k, _)| *k == key) {
                        return Err(self.err("duplicate object key"));
                    }
                    self.ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':'"));
                    }
                    pairs.push((key, self.value(depth + 1)?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut xs = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(xs));
                }
                loop {
                    xs.push(self.value(depth + 1)?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(xs));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.s.get(self.i), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        self.eat("-");
        let int_start = self.i;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.s[int_start] == b'0') {
            return Err(self.err("malformed number"));
        }
        if self.eat(".") && self.digits() == 0 {
            return Err(self.err("malformed fraction"));
        }
        if self.eat("e") || self.eat("E") {
            let _ = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return Err(self.err("malformed exponent"));
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII digits");
        text.parse()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let start = self.i;
            while !matches!(self.s.get(self.i), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.i += 1;
            }
            // The input is a &str and the run stops only at ASCII bytes,
            // so it ends on a character boundary.
            out.push_str(std::str::from_utf8(&self.s[start..self.i]).expect("valid UTF-8 run"));
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = *self.s.get(self.i).ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    out.push(match c {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogate pairs never occur in the files this
                            // crate writes; reject rather than mis-decode.
                            char::from_u32(hex).ok_or_else(|| self.err("unsupported \\u escape"))?
                        }
                        _ => return Err(self.err("bad escape")),
                    });
                }
                _ => return Err(self.err("unterminated string or raw control character")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("name", Json::Str("a \"quoted\"\n\\ \u{1} é".into())),
            ("n", Json::Num(0.1 + 0.2)),
            ("big", Json::Num(10_294_457_429.0)),
            ("tiny", Json::Num(1.5e-9)),
            ("neg", Json::Num(-3.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("samples", Json::nums(&[1.0, 2.5, 3.25])),
            (
                "nested",
                Json::Arr(vec![
                    Json::obj([("k", Json::Arr(vec![]))]),
                    Json::Obj(vec![]),
                ]),
            ),
        ])
    }

    #[test]
    fn writer_round_trips_through_the_strict_parser() {
        let v = sample();
        assert_eq!(Json::parse(&v.to_line()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
        // Every digit survives: the parsed number has the same bits.
        let n = Json::parse(&v.to_line()).unwrap();
        assert_eq!(
            n.get("n").unwrap().as_f64().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn parser_is_strict() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1 \"b\":2}",
            "{\"a\":1,\"a\":2}",
            "01",
            "1.",
            "1e",
            "+1",
            ".5",
            "nul",
            "\"abc",
            "\"a\tb\"",
            "\"\\x\"",
            "{} {}",
            "[1] x",
            "NaN",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Json::parse(&"[".repeat(MAX_DEPTH + 2)).is_err());
        assert_eq!(
            Json::parse(" [1, 2e3 , -0.5]\n").unwrap(),
            Json::nums(&[1.0, 2000.0, -0.5])
        );
    }

    #[test]
    fn non_finite_numbers_never_reach_the_output() {
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_line(), "null");
    }
}
