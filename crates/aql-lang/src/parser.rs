//! Recursive-descent parser for the AQL surface syntax.
//!
//! Operator precedence, loosest first:
//! `fn`/`let`/`if` (extend right) < `or` < `and` < `not` <
//! comparisons / `in` < `union`/`bunion` < `+`/`-` < `*`/`/`/`%` <
//! application `!` < postfix subscript/call < atoms.
//!
//! Comprehension qualifiers are disambiguated by backtracking: an item
//! is a generator/binding if a pattern followed by `<-`, `:==` or `==`
//! parses; otherwise it is a Boolean filter.

use crate::ast::{Lit, Pattern, Qual, SBinOp, SExpr, Stmt};
use crate::errors::LangError;
use crate::lexer::lex;
use crate::token::{Spanned, Tok};

/// Parse a whole program: a sequence of `;`-terminated statements.
pub fn parse_program(src: &str) -> Result<Vec<Stmt>, LangError> {
    let _parse = crate::session::phase("parse");
    let toks = {
        let _lex = crate::session::phase("lex");
        lex(src)?
    };
    let mut p = Parser { toks, pos: 0 };
    let mut out = Vec::new();
    while !p.at(&Tok::Eof) {
        out.push(p.stmt()?);
    }
    Ok(out)
}

/// Parse a single expression (the whole input must be one expression).
pub fn parse_expr(src: &str) -> Result<SExpr, LangError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let e = p.expr()?;
    p.expect(&Tok::Eof)?;
    Ok(e)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), LangError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::parse(self.line(), msg.into())
    }

    // ---- statements ---------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        let s = match self.peek().clone() {
            Tok::Val => {
                self.bump();
                let name = self.bind_name()?;
                self.expect(&Tok::Eq)?;
                let e = self.expr()?;
                Stmt::Val(name, e)
            }
            Tok::Macro => {
                self.bump();
                let name = self.bind_name()?;
                self.expect(&Tok::Eq)?;
                let e = self.expr()?;
                Stmt::MacroDef(name, e)
            }
            Tok::Readval => {
                self.bump();
                let name = self.bind_name()?;
                self.expect(&Tok::Using)?;
                let reader = self.ident_name()?;
                self.expect(&Tok::At)?;
                let arg = self.expr()?;
                Stmt::ReadVal { name, reader, arg }
            }
            Tok::Writeval => {
                self.bump();
                let value = self.expr()?;
                self.expect(&Tok::Using)?;
                let writer = self.ident_name()?;
                self.expect(&Tok::At)?;
                let arg = self.expr()?;
                Stmt::WriteVal { value, writer, arg }
            }
            _ => Stmt::Query(self.expr()?),
        };
        self.expect(&Tok::Semi)?;
        Ok(s)
    }

    fn bind_name(&mut self) -> Result<String, LangError> {
        match self.bump() {
            Tok::Bind(x) => Ok(x),
            other => Err(self.err(format!("expected `\\name`, found `{other}`"))),
        }
    }

    fn ident_name(&mut self) -> Result<String, LangError> {
        match self.bump() {
            Tok::Ident(x) => Ok(x),
            other => Err(self.err(format!("expected a name, found `{other}`"))),
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<SExpr, LangError> {
        match self.peek() {
            Tok::Fn => {
                self.bump();
                let p = self.pattern()?;
                if !p.is_lambda_pattern() {
                    return Err(self.err(
                        "lambda patterns may contain only `\\x`, `_`, and tuples of those",
                    ));
                }
                self.expect(&Tok::FatArrow)?;
                let body = self.expr()?;
                Ok(SExpr::Lam(p, body.boxed()))
            }
            Tok::Let => {
                self.bump();
                let mut binds = Vec::new();
                while self.eat(&Tok::Val) {
                    let p = self.pattern()?;
                    if !p.is_lambda_pattern() {
                        return Err(self.err(
                            "let patterns may contain only `\\x`, `_`, and tuples of those",
                        ));
                    }
                    self.expect(&Tok::Eq)?;
                    let e = self.expr()?;
                    binds.push((p, e));
                }
                if binds.is_empty() {
                    return Err(self.err("`let` needs at least one `val` declaration"));
                }
                self.expect(&Tok::In)?;
                let body = self.expr()?;
                self.expect(&Tok::End)?;
                Ok(SExpr::LetBlock(binds, body.boxed()))
            }
            Tok::If => {
                self.bump();
                let c = self.expr()?;
                self.expect(&Tok::Then)?;
                let t = self.expr()?;
                self.expect(&Tok::Else)?;
                let f = self.expr()?;
                Ok(SExpr::If(c.boxed(), t.boxed(), f.boxed()))
            }
            _ => self.or_expr(),
        }
    }

    fn or_expr(&mut self) -> Result<SExpr, LangError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let rhs = self.and_expr()?;
            lhs = SExpr::Binop(SBinOp::Or, lhs.boxed(), rhs.boxed());
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<SExpr, LangError> {
        let mut lhs = self.not_expr()?;
        while self.eat(&Tok::And) {
            let rhs = self.not_expr()?;
            lhs = SExpr::Binop(SBinOp::And, lhs.boxed(), rhs.boxed());
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<SExpr, LangError> {
        if self.eat(&Tok::Not) {
            let e = self.not_expr()?;
            Ok(SExpr::Not(e.boxed()))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<SExpr, LangError> {
        let lhs = self.union_expr()?;
        let op = match self.peek() {
            Tok::Eq => SBinOp::Eq,
            Tok::Ne => SBinOp::Ne,
            Tok::Lt => SBinOp::Lt,
            Tok::Le => SBinOp::Le,
            Tok::Gt => SBinOp::Gt,
            Tok::Ge => SBinOp::Ge,
            // NB: membership is spelled `member(x, S)`, not infix `in`
            // — the keyword `in` belongs to `let … in … end` and the
            // two cannot be disambiguated without lookahead.
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.union_expr()?;
        Ok(SExpr::Binop(op, lhs.boxed(), rhs.boxed()))
    }

    fn union_expr(&mut self) -> Result<SExpr, LangError> {
        let mut lhs = self.add_expr()?;
        loop {
            let op = if self.eat(&Tok::UnionKw) {
                SBinOp::Union
            } else if self.eat(&Tok::BunionKw) {
                SBinOp::Bunion
            } else {
                break;
            };
            let rhs = self.add_expr()?;
            lhs = SExpr::Binop(op, lhs.boxed(), rhs.boxed());
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<SExpr, LangError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => SBinOp::Add,
                Tok::Minus => SBinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = SExpr::Binop(op, lhs.boxed(), rhs.boxed());
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<SExpr, LangError> {
        let mut lhs = self.app_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => SBinOp::Mul,
                Tok::Slash => SBinOp::Div,
                Tok::Percent => SBinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.app_expr()?;
            lhs = SExpr::Binop(op, lhs.boxed(), rhs.boxed());
        }
        Ok(lhs)
    }

    fn app_expr(&mut self) -> Result<SExpr, LangError> {
        let mut lhs = self.postfix_expr()?;
        while self.eat(&Tok::Bang) {
            let rhs = self.postfix_expr()?;
            lhs = SExpr::App(lhs.boxed(), rhs.boxed());
        }
        Ok(lhs)
    }

    fn postfix_expr(&mut self) -> Result<SExpr, LangError> {
        let mut e = self.atom()?;
        loop {
            if self.at(&Tok::LBrack) {
                self.bump();
                let idx = self.expr_list(&Tok::RBrack)?;
                self.expect(&Tok::RBrack)?;
                if idx.is_empty() {
                    return Err(self.err("subscript needs at least one index"));
                }
                e = SExpr::Subscript(e.boxed(), idx);
            } else if self.at(&Tok::LParen) && callable(&e) {
                // `f(a, b)` call sugar: equivalent to `f!(a, b)`.
                self.bump();
                let args = self.expr_list(&Tok::RParen)?;
                self.expect(&Tok::RParen)?;
                let arg = match args.len() {
                    0 => return Err(self.err("call needs at least one argument")),
                    1 => args.into_iter().next().expect("len checked"),
                    _ => SExpr::Tuple(args),
                };
                e = SExpr::App(e.boxed(), arg.boxed());
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn expr_list(&mut self, terminator: &Tok) -> Result<Vec<SExpr>, LangError> {
        let mut out = Vec::new();
        if self.at(terminator) {
            return Ok(out);
        }
        loop {
            out.push(self.expr()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn atom(&mut self) -> Result<SExpr, LangError> {
        match self.peek().clone() {
            Tok::Nat(n) => {
                self.bump();
                Ok(SExpr::Nat(n))
            }
            Tok::Real(r) => {
                self.bump();
                Ok(SExpr::Real(r))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(SExpr::Str(s))
            }
            Tok::True => {
                self.bump();
                Ok(SExpr::Bool(true))
            }
            Tok::False => {
                self.bump();
                Ok(SExpr::Bool(false))
            }
            Tok::Minus => {
                // Negative real literal, e.g. a longitude of -74.0.
                self.bump();
                match self.bump() {
                    Tok::Real(r) => Ok(SExpr::Real(-r)),
                    Tok::Nat(_) => Err(self.err(
                        "naturals cannot be negative; write a real literal like -74.0",
                    )),
                    other => Err(self.err(format!("expected a number after `-`, found `{other}`"))),
                }
            }
            Tok::Ident(x) => {
                self.bump();
                Ok(SExpr::Var(x))
            }
            Tok::LParen => {
                self.bump();
                let mut items = vec![self.expr()?];
                while self.eat(&Tok::Comma) {
                    items.push(self.expr()?);
                }
                self.expect(&Tok::RParen)?;
                if items.len() == 1 {
                    Ok(items.into_iter().next().expect("len checked"))
                } else {
                    Ok(SExpr::Tuple(items))
                }
            }
            Tok::LBrace => {
                self.bump();
                if self.eat(&Tok::RBrace) {
                    return Ok(SExpr::SetLit(Vec::new()));
                }
                let first = self.expr()?;
                if self.eat(&Tok::Pipe) {
                    let quals = self.quals()?;
                    self.expect(&Tok::RBrace)?;
                    Ok(SExpr::SetComp { head: first.boxed(), quals })
                } else {
                    let mut items = vec![first];
                    while self.eat(&Tok::Comma) {
                        items.push(self.expr()?);
                    }
                    self.expect(&Tok::RBrace)?;
                    Ok(SExpr::SetLit(items))
                }
            }
            Tok::LBagBrace => {
                self.bump();
                if self.eat(&Tok::RBagBrace) {
                    return Ok(SExpr::BagLit(Vec::new()));
                }
                let first = self.expr()?;
                if self.eat(&Tok::Pipe) {
                    let quals = self.quals()?;
                    self.expect(&Tok::RBagBrace)?;
                    Ok(SExpr::BagComp { head: first.boxed(), quals })
                } else {
                    let mut items = vec![first];
                    while self.eat(&Tok::Comma) {
                        items.push(self.expr()?);
                    }
                    self.expect(&Tok::RBagBrace)?;
                    Ok(SExpr::BagLit(items))
                }
            }
            Tok::LLBrack => {
                self.bump();
                self.array_body()
            }
            other => Err(self.err(format!("unexpected `{other}` in expression"))),
        }
    }

    /// After `[[`: a 1-d literal, a row-major literal, or a tabulation.
    fn array_body(&mut self) -> Result<SExpr, LangError> {
        let first = self.expr()?;
        if self.eat(&Tok::Pipe) {
            // Tabulation: [[ e | \i < e1, \j < e2 ]]
            let mut idx = Vec::new();
            loop {
                let name = self.bind_name()?;
                self.expect(&Tok::Lt)?;
                let bound = self.expr()?;
                idx.push((name, bound));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RRBrack)?;
            return Ok(SExpr::ArrayTab { head: first.boxed(), idx });
        }
        let mut items = vec![first];
        while self.eat(&Tok::Comma) {
            items.push(self.expr()?);
        }
        if self.eat(&Tok::Semi) {
            // Row-major: the first list is the dimensions.
            let data = self.expr_list(&Tok::RRBrack)?;
            self.expect(&Tok::RRBrack)?;
            return Ok(SExpr::ArrayRowMajor { dims: items, items: data });
        }
        self.expect(&Tok::RRBrack)?;
        Ok(SExpr::ArrayLit(items))
    }

    // ---- qualifiers and patterns ----------------------------------------

    fn quals(&mut self) -> Result<Vec<Qual>, LangError> {
        let mut out = Vec::new();
        loop {
            out.push(self.qual()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn qual(&mut self) -> Result<Qual, LangError> {
        // Array generator: `[p1 : p2] <- e`. A single `[` cannot start
        // an expression, so no backtracking needed.
        if self.at(&Tok::LBrack) {
            self.bump();
            let p1 = self.pattern()?;
            self.expect(&Tok::Colon)?;
            let p2 = self.pattern()?;
            self.expect(&Tok::RBrack)?;
            self.expect(&Tok::Arrow)?;
            let e = self.expr()?;
            return Ok(Qual::ArrGen(p1, p2, e));
        }
        // Try: pattern followed by <- / :== / ==.
        let save = self.pos;
        if let Ok(p) = self.pattern() {
            match self.peek() {
                Tok::Arrow => {
                    self.bump();
                    let e = self.expr()?;
                    return Ok(Qual::Gen(p, e));
                }
                Tok::ColonBind | Tok::EqEq => {
                    self.bump();
                    let e = self.expr()?;
                    return Ok(Qual::Bind(p, e));
                }
                _ => {}
            }
        }
        self.pos = save;
        Ok(Qual::Filter(self.expr()?))
    }

    fn pattern(&mut self) -> Result<Pattern, LangError> {
        match self.peek().clone() {
            Tok::Underscore => {
                self.bump();
                Ok(Pattern::Wild)
            }
            Tok::Bind(x) => {
                self.bump();
                Ok(Pattern::Bind(x))
            }
            Tok::Ident(x) => {
                self.bump();
                Ok(Pattern::Var(x))
            }
            Tok::Nat(n) => {
                self.bump();
                Ok(Pattern::Const(Lit::Nat(n)))
            }
            Tok::Real(r) => {
                self.bump();
                Ok(Pattern::Const(Lit::Real(r)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Pattern::Const(Lit::Str(s)))
            }
            Tok::True => {
                self.bump();
                Ok(Pattern::Const(Lit::Bool(true)))
            }
            Tok::False => {
                self.bump();
                Ok(Pattern::Const(Lit::Bool(false)))
            }
            Tok::Minus if matches!(self.peek2(), Tok::Real(_)) => {
                self.bump();
                match self.bump() {
                    Tok::Real(r) => Ok(Pattern::Const(Lit::Real(-r))),
                    // The guard peeked a real here; reaching any other
                    // token is a lexer/parser desync. Report it as a
                    // parse error rather than aborting the host.
                    other => Err(self.err(format!(
                        "expected a real literal after `-` in pattern, found `{other}`"
                    ))),
                }
            }
            Tok::LParen => {
                self.bump();
                let mut ps = vec![self.pattern()?];
                while self.eat(&Tok::Comma) {
                    ps.push(self.pattern()?);
                }
                self.expect(&Tok::RParen)?;
                if ps.len() == 1 {
                    Ok(ps.into_iter().next().expect("len checked"))
                } else {
                    Ok(Pattern::Tuple(ps))
                }
            }
            other => Err(self.err(format!("expected a pattern, found `{other}`"))),
        }
    }
}

/// Can this surface expression plausibly be a function in `f(args)`
/// call position? Restricting call sugar to these forms keeps
/// `(a, b) (c)`-style juxtapositions from parsing as calls.
fn callable(e: &SExpr) -> bool {
    matches!(e, SExpr::Var(_) | SExpr::App(..) | SExpr::Lam(..))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe(src: &str) -> SExpr {
        parse_expr(src).unwrap_or_else(|e| panic!("parse `{src}`: {e}"))
    }

    #[test]
    fn precedence() {
        // 1 + 2 * 3 = (1 + (2*3))
        let e = pe("1 + 2 * 3");
        match e {
            SExpr::Binop(SBinOp::Add, _, rhs) => {
                assert!(matches!(*rhs, SExpr::Binop(SBinOp::Mul, _, _)))
            }
            other => panic!("unexpected {other:?}"),
        }
        // Application binds tighter than arithmetic: f!x * 2
        let e = pe("f!x * 2");
        assert!(matches!(e, SExpr::Binop(SBinOp::Mul, _, _)));
        // Comparison is loosest of the arithmetic family: h > f!x + 1
        let e = pe("h > f!x + 1");
        assert!(matches!(e, SExpr::Binop(SBinOp::Gt, _, _)));
    }

    #[test]
    fn application_forms() {
        // f!(a, b) and f(a, b) parse to the same shape.
        assert_eq!(pe("f!(a, b)"), pe("f(a, b)"));
        // Left associativity of !.
        let e = pe("f!x!y");
        match e {
            SExpr::App(inner, _) => assert!(matches!(*inner, SExpr::App(..))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn subscripts() {
        let e = pe("months[i]");
        assert!(matches!(e, SExpr::Subscript(_, ref ix) if ix.len() == 1));
        let e = pe("M[i, j]");
        assert!(matches!(e, SExpr::Subscript(_, ref ix) if ix.len() == 2));
        // Chained: M[i][j].
        let e = pe("M[i][j]");
        assert!(matches!(e, SExpr::Subscript(ref a, _) if matches!(**a, SExpr::Subscript(..))));
    }

    #[test]
    fn set_forms() {
        assert_eq!(pe("{}"), SExpr::SetLit(vec![]));
        assert!(matches!(pe("{1, 2, 3}"), SExpr::SetLit(ref v) if v.len() == 3));
        let e = pe("{x | \\x <- S, x > 90}");
        match e {
            SExpr::SetComp { quals, .. } => {
                assert_eq!(quals.len(), 2);
                assert!(matches!(quals[0], Qual::Gen(Pattern::Bind(ref b), _) if b == "x"));
                assert!(matches!(quals[1], Qual::Filter(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bag_forms() {
        assert_eq!(pe("{||}"), SExpr::BagLit(vec![]));
        assert!(matches!(pe("{|1, 1|}"), SExpr::BagLit(ref v) if v.len() == 2));
        assert!(matches!(
            pe("{|x | \\x <- B|}"),
            SExpr::BagComp { .. }
        ));
    }

    #[test]
    fn array_forms() {
        assert!(matches!(pe("[[1, 2, 3]]"), SExpr::ArrayLit(ref v) if v.len() == 3));
        let e = pe("[[2, 2; 1, 2, 3, 4]]");
        match e {
            SExpr::ArrayRowMajor { dims, items } => {
                assert_eq!(dims.len(), 2);
                assert_eq!(items.len(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = pe("[[ a[i] * 2 | \\i < n ]]");
        match e {
            SExpr::ArrayTab { idx, .. } => assert_eq!(idx[0].0, "i"),
            other => panic!("unexpected {other:?}"),
        }
        let e = pe("[[ m[i,j] | \\j < p, \\i < q ]]");
        match e {
            SExpr::ArrayTab { idx, .. } => {
                assert_eq!(idx.len(), 2);
                assert_eq!(idx[0].0, "j");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn patterns_in_generators() {
        // Natural join from §3: {(x,y,z) | (\x,\y) <- R, (y,\z) <- S}
        let e = pe("{(x, y, z) | (\\x, \\y) <- R, (y, \\z) <- S}");
        match e {
            SExpr::SetComp { quals, .. } => {
                match &quals[0] {
                    Qual::Gen(Pattern::Tuple(ps), _) => {
                        assert_eq!(ps[0], Pattern::Bind("x".into()));
                    }
                    other => panic!("unexpected {other:?}"),
                }
                match &quals[1] {
                    Qual::Gen(Pattern::Tuple(ps), _) => {
                        assert_eq!(ps[0], Pattern::Var("y".into()));
                        assert_eq!(ps[1], Pattern::Bind("z".into()));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        // Wildcard and constants: {x | (_, 0, \x) <- R}
        let e = pe("{x | (_, 0, \\x) <- R}");
        match e {
            SExpr::SetComp { quals, .. } => match &quals[0] {
                Qual::Gen(Pattern::Tuple(ps), _) => {
                    assert_eq!(ps[0], Pattern::Wild);
                    assert_eq!(ps[1], Pattern::Const(Lit::Nat(0)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn array_generator_qualifier() {
        // §4.2: {d | [(\h,_,_):\t] <- T, …}
        let e = pe("{d | [(\\h, _, _) : \\t] <- T, t > 85.0}");
        match e {
            SExpr::SetComp { quals, .. } => match &quals[0] {
                Qual::ArrGen(p1, p2, _) => {
                    assert!(matches!(p1, Pattern::Tuple(ps) if ps.len() == 3));
                    assert_eq!(*p2, Pattern::Bind("t".into()));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn binding_qualifiers() {
        let e = pe("{d | \\d <- gen!30, \\A == subseq!(TRW, d*24, d*24+23)}");
        match e {
            SExpr::SetComp { quals, .. } => {
                assert!(matches!(quals[1], Qual::Bind(Pattern::Bind(ref b), _) if b == "A"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // :== is the formal spelling.
        let e = pe("{x | \\x :== 1 + 2}");
        assert!(matches!(e, SExpr::SetComp { .. }));
    }

    #[test]
    fn fn_and_let() {
        let e = pe("fn (\\m, \\d, \\y) => d + m * y");
        assert!(matches!(e, SExpr::Lam(Pattern::Tuple(_), _)));
        let e = pe("let val \\x = 1 val \\y = 2 in x + y end");
        match e {
            SExpr::LetBlock(binds, _) => assert_eq!(binds.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // Refutable lambda patterns are rejected.
        assert!(parse_expr("fn (0, \\x) => x").is_err());
    }

    #[test]
    fn statements() {
        let prog = parse_program(
            "val \\months = [[0, 31, 28]];\n\
             macro \\f = fn \\x => x + 1;\n\
             readval \\T using NETCDF3 at (\"temp.nc\", \"temp\");\n\
             writeval T using COFILE at \"out.co\";\n\
             f!2;",
        )
        .unwrap();
        assert_eq!(prog.len(), 5);
        assert!(matches!(prog[0], Stmt::Val(ref n, _) if n == "months"));
        assert!(matches!(prog[1], Stmt::MacroDef(ref n, _) if n == "f"));
        assert!(matches!(prog[2], Stmt::ReadVal { ref reader, .. } if reader == "NETCDF3"));
        assert!(matches!(prog[3], Stmt::WriteVal { ref writer, .. } if writer == "COFILE"));
        assert!(matches!(prog[4], Stmt::Query(_)));
    }

    #[test]
    fn negative_reals() {
        assert_eq!(pe("-74.0"), SExpr::Real(-74.0));
        assert!(parse_expr("-74").is_err());
    }

    #[test]
    fn the_paper_heat_query_parses() {
        let src = r#"{d | \d <- gen!30,
            \WS' == evenpos!(proj_col!(WS, 0)),
            \TRW == zip_3!(T, RH, WS'),
            \A == subseq!(TRW, d*24, d*24+23),
            heatindex!(A) > threshold}"#;
        let e = pe(src);
        match e {
            SExpr::SetComp { quals, .. } => assert_eq!(quals.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn the_paper_sunset_query_parses() {
        let src = r#"{d | [(\h, _, _) : \t] <- T, \d == h/24 + 1,
            h > june_sunset!(NYlat, NYlon, d), t > 85.0}"#;
        let e = pe(src);
        match e {
            SExpr::SetComp { quals, .. } => assert_eq!(quals.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_extends_right() {
        let e = pe("if a then 1 else 2 + 3");
        match e {
            SExpr::If(_, _, f) => assert!(matches!(*f, SExpr::Binop(SBinOp::Add, _, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn union_operator() {
        let e = pe("{1} union {2} union {3}");
        assert!(matches!(e, SExpr::Binop(SBinOp::Union, _, _)));
        let e = pe("member(x, {1, 2})");
        assert!(matches!(e, SExpr::App(..)));
    }
}
