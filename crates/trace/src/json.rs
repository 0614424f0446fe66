//! Minimal dependency-free JSON: a value tree, a writer, and a strict
//! parser — just enough for the Chrome export of a [`Trace`], the
//! slow-query log, the endpoint's JSON routes and the flight
//! recorder's incident files (which `\doctor` reads back). Numbers
//! are `f64` (every counter this crate emits fits exactly below 2⁵³);
//! object member order is preserved.

use crate::Trace;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers exact up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, member order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(ms) => ms.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64` (requires an exact non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize (compact, no insignificant whitespace).
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    it.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(ms) => {
                out.push('{');
                for (i, (k, v)) in ms.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { b: src.as_bytes(), i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.ws();
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut ms = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(ms));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.expect(b':')?;
                    self.ws();
                    let v = self.value()?;
                    ms.push((k, v));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(ms));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                    }
                }
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(format!("unexpected byte at {}", self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.b[self.i..])
                .map_err(|_| "invalid utf-8".to_string())?;
            let mut chars = rest.char_indices();
            match chars.next() {
                None => return Err("unterminated string".to_string()),
                Some((_, '"')) => {
                    self.i += 1;
                    return Ok(out);
                }
                Some((_, '\\')) => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some((idx, c)) => {
                    out.push(c);
                    self.i += idx + c.len_utf8();
                }
            }
        }
    }
}

// ---- Trace -> Chrome trace-event JSON --------------------------------

impl Trace {
    /// The trace as a Chrome trace-event JSON value: one complete
    /// (`"ph": "X"`) event per span, timestamps and durations in
    /// microseconds (fractional, preserving nanosecond resolution),
    /// a span's notes carried in `args`, followed by what `extra` gives
    /// for the span's index. The result loads directly in Perfetto or
    /// `chrome://tracing`.
    pub fn to_chrome_json_value(&self, extra: impl Fn(usize) -> Vec<(String, Json)>) -> Json {
        let mut events = Vec::with_capacity(self.spans.len() + 1);
        // Process-name metadata event so the track is labeled.
        events.push(Json::Obj(vec![
            ("name".to_string(), Json::Str("process_name".to_string())),
            ("ph".to_string(), Json::Str("M".to_string())),
            ("pid".to_string(), Json::Num(1.0)),
            ("tid".to_string(), Json::Num(1.0)),
            (
                "args".to_string(),
                Json::Obj(vec![(
                    "name".to_string(),
                    Json::Str("aql".to_string()),
                )]),
            ),
        ]));
        for (i, s) in self.spans.iter().enumerate() {
            let mut args: Vec<(String, Json)> =
                s.notes.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect();
            args.extend(extra(i));
            events.push(Json::Obj(vec![
                ("name".to_string(), Json::Str(s.name.clone())),
                ("cat".to_string(), Json::Str("aql".to_string())),
                ("ph".to_string(), Json::Str("X".to_string())),
                ("ts".to_string(), Json::Num(s.start_ns as f64 / 1000.0)),
                (
                    "dur".to_string(),
                    Json::Num(s.dur_ns.unwrap_or(0) as f64 / 1000.0),
                ),
                ("pid".to_string(), Json::Num(1.0)),
                ("tid".to_string(), Json::Num(1.0)),
                ("args".to_string(), Json::Obj(args)),
            ]));
        }
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::Str("ns".to_string())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for src in ["null", "true", "false", "0", "-12.5", "\"a\\\"b\\nc\""] {
            let v = Json::parse(src).unwrap();
            assert_eq!(Json::parse(&v.write()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}], "c": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].get("b").unwrap().as_str(),
            Some("x")
        );
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn chrome_export_is_strict_json_with_complete_events() {
        crate::enable();
        {
            let _a = crate::span("statement");
            crate::note("kind", || "query".to_string());
            let _b = crate::span("eval");
        }
        let t = crate::disable();
        let extra = |i| if i == 1 { vec![("steps".to_string(), Json::Num(42.0))] } else { Vec::new() };
        let s = t.to_chrome_json_value(extra).write();
        let v = Json::parse(&s).unwrap(); // strict: rejects trailing garbage
        let events = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Metadata event + one per span.
        assert_eq!(events.len(), 1 + t.spans.len());
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        for e in &events[1..] {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert!(e.get("name").and_then(Json::as_str).is_some());
            assert!(matches!(e.get("ts"), Some(Json::Num(_))));
            assert!(matches!(e.get("dur"), Some(Json::Num(_))));
        }
        let eval = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("eval"))
            .unwrap();
        assert_eq!(eval.get("args").unwrap().get("steps"), Some(&Json::Num(42.0)));
        let statement = &events[1];
        assert_eq!(
            statement.get("args").unwrap().get("kind"),
            Some(&Json::Str("query".to_string()))
        );
    }

    #[test]
    fn unicode_strings_survive() {
        let v = Json::Str("µs — ‘quotes’ \"q\" \\".to_string());
        assert_eq!(Json::parse(&v.write()).unwrap(), v);
    }
}
