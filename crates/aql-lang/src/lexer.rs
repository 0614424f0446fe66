//! The AQL lexer.
//!
//! Notable points of the surface syntax (§3–§4 of the paper):
//!
//! * binding occurrences are written `\x` — the backslash marks the
//!   binder in patterns and generators;
//! * identifiers may contain primes (`WS'`, as in the §1 query);
//! * `(* … *)` are (nesting) comments, as in the paper's ML heritage;
//! * `[[` / `]]` delimit array literals and tabulations;
//! * `{|` / `|}` delimit bags.

use crate::errors::LangError;
use crate::token::{Spanned, Tok};

/// Tokenize a complete source string. Input that ends inside a
/// comment, a string or an escape fails at its end (`offset` is the
/// input's length), so a caller can tell it from a bad character.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LangError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;

    macro_rules! push {
        ($tok:expr, $at:expr) => {
            out.push(Spanned { tok: $tok, offset: $at, line })
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            // (* nesting comments *) — also plain `(`.
            b'(' => {
                if b.get(i + 1) == Some(&b'*') {
                    let mut depth = 1;
                    let start_line = line;
                    let mut j = i + 2;
                    while j < b.len() && depth > 0 {
                        if b[j] == b'\n' {
                            line += 1;
                        }
                        if b[j] == b'(' && b.get(j + 1) == Some(&b'*') {
                            depth += 1;
                            j += 2;
                        } else if b[j] == b'*' && b.get(j + 1) == Some(&b')') {
                            depth -= 1;
                            j += 2;
                        } else {
                            j += 1;
                        }
                    }
                    if depth > 0 {
                        return Err(LangError::lex(b.len(), start_line, "unterminated comment"));
                    }
                    i = j;
                } else {
                    push!(Tok::LParen, i);
                    i += 1;
                }
            }
            b')' => {
                push!(Tok::RParen, i);
                i += 1;
            }
            b'[' => {
                if b.get(i + 1) == Some(&b'[') {
                    push!(Tok::LLBrack, i);
                    i += 2;
                } else {
                    push!(Tok::LBrack, i);
                    i += 1;
                }
            }
            b']' => {
                if b.get(i + 1) == Some(&b']') {
                    push!(Tok::RRBrack, i);
                    i += 2;
                } else {
                    push!(Tok::RBrack, i);
                    i += 1;
                }
            }
            b'{' => {
                if b.get(i + 1) == Some(&b'|') {
                    push!(Tok::LBagBrace, i);
                    i += 2;
                } else {
                    push!(Tok::LBrace, i);
                    i += 1;
                }
            }
            b'}' => {
                push!(Tok::RBrace, i);
                i += 1;
            }
            b'|' => {
                if b.get(i + 1) == Some(&b'}') {
                    push!(Tok::RBagBrace, i);
                    i += 2;
                } else {
                    push!(Tok::Pipe, i);
                    i += 1;
                }
            }
            b',' => {
                push!(Tok::Comma, i);
                i += 1;
            }
            b';' => {
                push!(Tok::Semi, i);
                i += 1;
            }
            b':' => {
                if b[i + 1..].starts_with(b"==") {
                    push!(Tok::ColonBind, i);
                    i += 3;
                } else {
                    push!(Tok::Colon, i);
                    i += 1;
                }
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'-') {
                    push!(Tok::Arrow, i);
                    i += 2;
                } else if b.get(i + 1) == Some(&b'=') {
                    push!(Tok::Le, i);
                    i += 2;
                } else if b.get(i + 1) == Some(&b'>') {
                    push!(Tok::Ne, i);
                    i += 2;
                } else {
                    push!(Tok::Lt, i);
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    push!(Tok::Ge, i);
                    i += 2;
                } else {
                    push!(Tok::Gt, i);
                    i += 1;
                }
            }
            b'=' => {
                if b.get(i + 1) == Some(&b'>') {
                    push!(Tok::FatArrow, i);
                    i += 2;
                } else if b.get(i + 1) == Some(&b'=') {
                    push!(Tok::EqEq, i);
                    i += 2;
                } else {
                    push!(Tok::Eq, i);
                    i += 1;
                }
            }
            b'+' => {
                push!(Tok::Plus, i);
                i += 1;
            }
            b'-' => {
                push!(Tok::Minus, i);
                i += 1;
            }
            b'*' => {
                push!(Tok::Star, i);
                i += 1;
            }
            b'/' => {
                push!(Tok::Slash, i);
                i += 1;
            }
            b'%' => {
                push!(Tok::Percent, i);
                i += 1;
            }
            b'!' => {
                push!(Tok::Bang, i);
                i += 1;
            }
            b'\\' => {
                let start = i + 1;
                let end = ident_end(b, start);
                if end == start {
                    return Err(LangError::lex(i, line, "expected identifier after `\\`"));
                }
                let name = std::str::from_utf8(&b[start..end]).expect("ascii ident");
                push!(Tok::Bind(name.to_string()), i);
                i = end;
            }
            b'"' => {
                let start = i;
                let mut j = i + 1;
                let mut s = String::new();
                loop {
                    match b.get(j) {
                        None => return Err(LangError::lex(b.len(), line, "unterminated string")),
                        Some(b'"') => {
                            j += 1;
                            break;
                        }
                        Some(b'\\') => {
                            let esc = b
                                .get(j + 1)
                                .ok_or_else(|| LangError::lex(b.len(), line, "unterminated escape"))?;
                            s.push(match esc {
                                b'n' => '\n',
                                b't' => '\t',
                                b'r' => '\r',
                                b'"' => '"',
                                b'\\' => '\\',
                                _ => {
                                    return Err(LangError::lex(
                                        j,
                                        line,
                                        format!("bad escape `\\{}`", char_at(src, j + 1)),
                                    ))
                                }
                            });
                            j += 2;
                        }
                        Some(_) => {
                            let ch = char_at(src, j);
                            if ch == '\n' {
                                line += 1;
                            }
                            s.push(ch);
                            j += ch.len_utf8();
                        }
                    }
                }
                push!(Tok::Str(s), start);
                i = j;
            }
            b'_' if ident_end(b, i + 1) == i + 1 => {
                push!(Tok::Underscore, i);
                i += 1;
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < b.len() && b[j].is_ascii_digit() {
                    j += 1;
                }
                let mut is_real = false;
                if b.get(j) == Some(&b'.') && b.get(j + 1).is_some_and(u8::is_ascii_digit) {
                    is_real = true;
                    j += 1;
                    while j < b.len() && b[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                if matches!(b.get(j), Some(b'e' | b'E')) {
                    let mut k = j + 1;
                    if matches!(b.get(k), Some(b'+' | b'-')) {
                        k += 1;
                    }
                    if b.get(k).is_some_and(u8::is_ascii_digit) {
                        is_real = true;
                        j = k;
                        while j < b.len() && b[j].is_ascii_digit() {
                            j += 1;
                        }
                    }
                }
                let text = std::str::from_utf8(&b[start..j]).expect("ascii digits");
                if is_real {
                    let r: f64 = text
                        .parse()
                        .map_err(|e| LangError::lex(start, line, format!("bad real: {e}")))?;
                    push!(Tok::Real(r), start);
                } else {
                    let n: u64 = text
                        .parse()
                        .map_err(|e| LangError::lex(start, line, format!("bad nat: {e}")))?;
                    push!(Tok::Nat(n), start);
                }
                i = j;
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                let end = ident_end(b, i);
                let name = std::str::from_utf8(&b[start..end]).expect("ascii ident");
                let tok = match name {
                    "val" => Tok::Val,
                    "macro" => Tok::Macro,
                    "fn" => Tok::Fn,
                    "if" => Tok::If,
                    "then" => Tok::Then,
                    "else" => Tok::Else,
                    "let" => Tok::Let,
                    "in" => Tok::In,
                    "end" => Tok::End,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "and" => Tok::And,
                    "or" => Tok::Or,
                    "not" => Tok::Not,
                    "union" => Tok::UnionKw,
                    "bunion" => Tok::BunionKw,
                    "readval" => Tok::Readval,
                    "writeval" => Tok::Writeval,
                    "using" => Tok::Using,
                    "at" => Tok::At,
                    _ => Tok::Ident(name.to_string()),
                };
                push!(tok, start);
                i = end;
            }
            _ => {
                return Err(LangError::lex(
                    i,
                    line,
                    format!("unexpected character `{}`", char_at(src, i)),
                ))
            }
        }
    }
    out.push(Spanned { tok: Tok::Eof, offset: b.len(), line });
    Ok(out)
}

/// The character starting at byte `i`. The lexer only ever stops on a
/// character boundary (every token it consumes ends in an ASCII byte or
/// a whole UTF-8 sequence); off one, the replacement character.
fn char_at(src: &str, i: usize) -> char {
    src.get(i..).and_then(|rest| rest.chars().next()).unwrap_or(char::REPLACEMENT_CHARACTER)
}

/// Identifiers: `[A-Za-z_][A-Za-z0-9_']*` — primes allowed after the
/// first character (the paper writes `WS'`).
fn ident_end(b: &[u8], start: usize) -> usize {
    let mut j = start;
    if j < b.len() && (b[j].is_ascii_alphabetic() || b[j] == b'_') {
        j += 1;
        while j < b.len()
            && (b[j].is_ascii_alphanumeric() || b[j] == b'_' || b[j] == b'\'')
        {
            j += 1;
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("val \\x = 3;"),
            vec![
                Tok::Val,
                Tok::Bind("x".into()),
                Tok::Eq,
                Tok::Nat(3),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn primed_identifiers() {
        assert_eq!(
            toks("\\WS' == evenpos"),
            vec![
                Tok::Bind("WS'".into()),
                Tok::EqEq,
                Tok::Ident("evenpos".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn brackets_disambiguate() {
        assert_eq!(
            toks("[[1]] [1] {|2|} {2}"),
            vec![
                Tok::LLBrack,
                Tok::Nat(1),
                Tok::RRBrack,
                Tok::LBrack,
                Tok::Nat(1),
                Tok::RBrack,
                Tok::LBagBrace,
                Tok::Nat(2),
                Tok::RBagBrace,
                Tok::LBrace,
                Tok::Nat(2),
                Tok::RBrace,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_nest() {
        assert_eq!(
            toks("1 (* a (* nested *) b *) 2"),
            vec![Tok::Nat(1), Tok::Nat(2), Tok::Eof]
        );
        assert!(lex("(* open").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("<- <= <> < = == :== =>"),
            vec![
                Tok::Arrow,
                Tok::Le,
                Tok::Ne,
                Tok::Lt,
                Tok::Eq,
                Tok::EqEq,
                Tok::ColonBind,
                Tok::FatArrow,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers_and_strings() {
        assert_eq!(
            toks("12 3.5 1e3 \"a\\\"b\""),
            vec![
                Tok::Nat(12),
                Tok::Real(3.5),
                Tok::Real(1000.0),
                Tok::Str("a\"b".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn string_literals_are_utf8() {
        // Multi-byte sequences are copied through whole (not byte by
        // byte as Latin-1), including right after an escape, and a
        // token after a multi-byte comment or string is found where it is.
        assert_eq!(
            toks("\"données.nc\" \"\\\"é→😀\" (* é *) 7"),
            vec![
                Tok::Str("données.nc".into()),
                Tok::Str("\"é→😀".into()),
                Tok::Nat(7),
                Tok::Eof
            ]
        );
        assert_eq!(lex("\"é\" 7").unwrap()[1].offset, 5, "offsets stay byte offsets");
    }

    #[test]
    fn errors_name_the_real_character() {
        let msg = |src: &str| lex(src).unwrap_err().to_string();
        assert!(msg("1 + é").contains("unexpected character `é`"), "{}", msg("1 + é"));
        assert!(msg("\"\\é\"").contains("bad escape `\\é`"), "{}", msg("\"\\é\""));
    }

    #[test]
    fn paper_query_lexes() {
        let src = r#"{d | \d <- gen!30,
            \WS' == evenpos!(proj_col!(WS,0)),  (* adjust WS grid *)
            \TRW == zip_3!(T,RH,WS'),
            \A == subseq!(TRW, d*24, d*24+23),
            heatindex!(A) > threshold};"#;
        let ts = toks(src);
        assert!(ts.contains(&Tok::Bind("WS'".into())));
        assert!(ts.contains(&Tok::Ident("heatindex".into())));
        assert!(!ts.iter().any(|t| matches!(t, Tok::Ident(s) if s == "adjust")));
    }

    #[test]
    fn line_tracking() {
        let spanned = lex("1\n2\n3").unwrap();
        assert_eq!(spanned[0].line, 1);
        assert_eq!(spanned[1].line, 2);
        assert_eq!(spanned[2].line, 3);
    }

    #[test]
    fn underscore_is_wildcard() {
        assert_eq!(toks("(_, 0)"), vec![
            Tok::LParen,
            Tok::Underscore,
            Tok::Comma,
            Tok::Nat(0),
            Tok::RParen,
            Tok::Eof
        ]);
        // But _x is an identifier.
        assert_eq!(toks("_x"), vec![Tok::Ident("_x".into()), Tok::Eof]);
    }
}
