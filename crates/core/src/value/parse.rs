//! Parser for the complex-object data exchange format of §3.
//!
//! This is the inverse of the [`std::fmt::Display`] printer in
//! [`super::print`]: any driver that deposits a byte stream in this
//! grammar can be plugged in as a `readval` reader (§4.1). The grammar:
//!
//! ```text
//! co ::= true | false | nat | real | string | _|_
//!      | (co, …, co)            k ≥ 2
//!      | {co, …, co}            sets
//!      | {|co, …, co|}          bags
//!      | [[co, …, co]]          1-d array, n ≥ 1
//!      | [[n1, …, nk; co, …]]   k-d array, row-major
//! ```

use std::fmt;
use std::rc::Rc;

use super::{ArrayVal, CoBag, CoSet, Value};

/// A parse failure with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the failure occurred.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
    /// Whether the value nests too deep for this thread's stack
    /// ([`crate::stack`]).
    pub too_deep: bool,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a single complex-object value, requiring the whole input to be
/// consumed (modulo trailing whitespace).
pub fn parse_value(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { src: input.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing input after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { pos: self.pos, message: message.into(), too_deep: false }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn starts_with(&mut self, s: &str) -> bool {
        self.skip_ws();
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if let Err(e) = crate::stack::check() {
            return Err(ParseError { too_deep: true, ..self.err(e.to_string()) });
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'(') => self.tuple(),
            Some(b'{') => {
                if self.starts_with("{|") {
                    self.bag()
                } else {
                    self.set()
                }
            }
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b'_') => {
                self.eat("_|_")?;
                Ok(Value::Bottom)
            }
            Some(b't') => {
                self.eat("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'n') => {
                self.eat("nanr")?;
                Ok(Value::Real(f64::NAN))
            }
            Some(b'i') => {
                self.eat("infr")?;
                Ok(Value::Real(f64::INFINITY))
            }
            Some(b'-') => {
                self.pos += 1;
                if self.starts_with("infr") {
                    self.eat("infr")?;
                    return Ok(Value::Real(f64::NEG_INFINITY));
                }
                match self.number()? {
                    Value::Real(r) => Ok(Value::Real(-r)),
                    Value::Nat(n) => Ok(Value::Real(-(n as f64))),
                    _ => unreachable!("number() returns Nat or Real"),
                }
            }
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        let mut is_real = false;
        if self.src.get(self.pos) == Some(&b'.')
            && self.src.get(self.pos + 1).is_some_and(u8::is_ascii_digit)
        {
            is_real = true;
            self.pos += 1;
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                self.pos += 1;
            }
        }
        if matches!(self.src.get(self.pos), Some(b'e' | b'E')) {
            let mut j = self.pos + 1;
            if matches!(self.src.get(j), Some(b'+' | b'-')) {
                j += 1;
            }
            if self.src.get(j).is_some_and(u8::is_ascii_digit) {
                is_real = true;
                self.pos = j;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        if is_real {
            text.parse::<f64>()
                .map(Value::Real)
                .map_err(|e| self.err(format!("bad real literal: {e}")))
        } else {
            text.parse::<u64>()
                .map(Value::Nat)
                .map_err(|e| self.err(format!("bad nat literal: {e}")))
        }
    }

    fn string(&mut self) -> Result<Value, ParseError> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            match self.src.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Value::Str(Rc::from(out.as_str())));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .src
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        c => return Err(self.err(format!("bad escape `\\{}`", *c as char))),
                    });
                    self.pos += 1;
                }
                Some(&c) => {
                    // Consume a full UTF-8 scalar starting at `c`.
                    let rest = std::str::from_utf8(&self.src[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let ch = rest.chars().next().expect("non-empty");
                    let _ = c;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn comma_list(&mut self, terminator: &str) -> Result<Vec<Value>, ParseError> {
        let mut items = Vec::new();
        if self.starts_with(terminator) {
            return Ok(items);
        }
        loop {
            items.push(self.value()?);
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(items)
    }

    fn tuple(&mut self) -> Result<Value, ParseError> {
        self.eat("(")?;
        let items = self.comma_list(")")?;
        self.eat(")")?;
        if items.len() < 2 {
            return Err(self.err("tuples have arity ≥ 2"));
        }
        Ok(Value::Tuple(items.into()))
    }

    fn set(&mut self) -> Result<Value, ParseError> {
        self.eat("{")?;
        let items = self.comma_list("}")?;
        self.eat("}")?;
        Ok(Value::Set(Rc::new(CoSet::from_vec(items))))
    }

    fn bag(&mut self) -> Result<Value, ParseError> {
        self.eat("{|")?;
        let items = self.comma_list("|}")?;
        self.eat("|}")?;
        Ok(Value::Bag(Rc::new(CoBag::from_vec(items))))
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat("[[")?;
        let first = self.comma_list(";")?;
        if self.peek() == Some(b';') {
            // Row-major form: the first list is the dimension vector.
            self.pos += 1;
            let dims: Result<Vec<u64>, ParseError> = first
                .iter()
                .map(|v| {
                    v.as_nat()
                        .map_err(|_| self.err("array dimensions must be naturals"))
                })
                .collect();
            let dims = dims?;
            if dims.is_empty() {
                return Err(self.err("row-major array needs at least one dimension"));
            }
            let data = self.comma_list("]]")?;
            self.eat("]]")?;
            let arr = ArrayVal::new(dims, data).map_err(|e| self.err(e.to_string()))?;
            Ok(Value::Array(Rc::new(arr)))
        } else {
            self.eat("]]")?;
            if first.is_empty() {
                return Err(self.err("empty array literal must use the `[[0;]]` form"));
            }
            let n = first.len() as u64;
            let arr = ArrayVal::new(vec![n], first).map_err(|e| self.err(e.to_string()))?;
            Ok(Value::Array(Rc::new(arr)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let printed = v.to_string();
        let reparsed = parse_value(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse `{printed}`: {e}"));
        assert_eq!(&reparsed, v, "roundtrip through `{printed}`");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Value::Nat(0));
        roundtrip(&Value::Nat(u64::MAX));
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::Real(85.0));
        roundtrip(&Value::Real(-3.25e-4));
        roundtrip(&Value::Real(f64::NAN));
        roundtrip(&Value::Real(f64::INFINITY));
        roundtrip(&Value::Real(f64::NEG_INFINITY));
        roundtrip(&Value::str(""));
        roundtrip(&Value::str("a \"quoted\" \\ line\n"));
        roundtrip(&Value::Bottom);
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(&Value::set(vec![]));
        roundtrip(&Value::set(vec![Value::Nat(25), Value::Nat(27), Value::Nat(28)]));
        roundtrip(&Value::bag(vec![Value::Nat(1), Value::Nat(1), Value::Nat(2)]));
        roundtrip(&Value::tuple(vec![Value::Real(40.7), Value::Real(-74.0)]));
        roundtrip(&Value::set(vec![Value::tuple(vec![
            Value::Nat(1),
            Value::set(vec![Value::str("a")]),
        ])]));
    }

    #[test]
    fn arrays_roundtrip() {
        roundtrip(&Value::array1(vec![Value::Nat(1), Value::Nat(2)]));
        roundtrip(&Value::array1(vec![]));
        let a = ArrayVal::new(
            vec![2, 3],
            (0..6).map(Value::Nat).collect(),
        )
        .unwrap();
        roundtrip(&Value::Array(Rc::new(a)));
        let zero = ArrayVal::new(vec![0, 5], vec![]).unwrap();
        roundtrip(&Value::Array(Rc::new(zero)));
    }

    #[test]
    fn parses_paper_literals() {
        // From §3: index({(1,"a"),(3,"b"),(1,"c")}) = [[{},{"a","c"},{},{"b"}]]
        let v = parse_value(r#"[[{}, {"a", "c"}, {}, {"b"}]]"#).unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a.dims(), &[4]);
        assert_eq!(a.get(&[1]).unwrap().as_set().unwrap().len(), 2);
        // The months array from §4.2.
        let months = parse_value("[[0,31,28,31,30,31,30,31,31,30,31,30]]").unwrap();
        assert_eq!(months.as_array().unwrap().dims(), &[12]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(parse_value("[[2, 2; 1, 2, 3]]").is_err());
        assert!(parse_value("[[]]").is_err());
        assert!(parse_value("(1)").is_err(), "1-tuples are not values");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_value("1 2").is_err());
        assert!(parse_value("{1} x").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse_value("  { ( 1 , 2.5 ) , ( 3 , 4.5 ) }  ").unwrap();
        assert_eq!(v.as_set().unwrap().len(), 2);
    }

    #[test]
    fn reports_positions() {
        let e = parse_value("{1, ?}").unwrap_err();
        assert!(e.pos >= 4);
    }
}
