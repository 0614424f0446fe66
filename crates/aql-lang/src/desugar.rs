//! Desugaring: the Fig. 2 translations from AQL surface syntax to the
//! NRCA core calculus.
//!
//! * comprehensions become nests of `⋃`/`if`/`{e}` (and their bag
//!   analogues);
//! * patterns become projections (`let`) for binding occurrences and
//!   equality guards (`if … else {}`) for constants and non-binding
//!   occurrences;
//! * array generators `[P1 : P2] <- A` expand to loops over `dom(A)`
//!   (whose dimensionality is read off the arity of the index
//!   pattern);
//! * blocks become `let`s; `and`/`or`/`not` become conditionals (§3);
//! * applications of builtin names (`gen`, `dim_k`, `dim_i_k`,
//!   `pi_i_k`, `index_k`, `len`, `get`, `min`, `max`, `member`,
//!   `summap`, `count`, `dom`, `rng`) become their core constructs.
//!
//! Free identifiers that are neither lexically bound nor builtin are
//! left as [`Expr::Var`]; the session later resolves them against
//! macros, `val`s and externals.

use aql_core::expr::builder as b;
use aql_core::expr::free::fresh;
use aql_core::expr::{name, CmpOp, Expr, Name};

use crate::ast::{Lit, Pattern, Qual, SBinOp, SExpr};
use crate::errors::LangError;

/// Desugar a surface expression to the core calculus.
pub fn desugar(e: &SExpr) -> Result<Expr, LangError> {
    let mut cx = Cx { scope: Vec::new() };
    cx.expr(e)
}

/// The collection monoid a comprehension builds (sets or bags).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Monoid {
    Set,
    Bag,
}

impl Monoid {
    fn empty(self) -> Expr {
        match self {
            Monoid::Set => Expr::Empty,
            Monoid::Bag => Expr::BagEmpty,
        }
    }

    fn single(self, e: Expr) -> Expr {
        match self {
            Monoid::Set => Expr::Single(e.boxed()),
            Monoid::Bag => Expr::BagSingle(e.boxed()),
        }
    }

    fn big_union(self, var: &str, src: Expr, head: Expr) -> Expr {
        match self {
            Monoid::Set => Expr::BigUnion {
                head: head.boxed(),
                var: name(var),
                src: src.boxed(),
            },
            Monoid::Bag => Expr::BigBagUnion {
                head: head.boxed(),
                var: name(var),
                src: src.boxed(),
            },
        }
    }
}

struct Cx {
    /// Lexically bound names; shadowing a builtin name disables the
    /// builtin locally.
    scope: Vec<String>,
}

impl Cx {
    fn bound(&self, n: &str) -> bool {
        self.scope.iter().any(|s| s == n)
    }

    fn expr(&mut self, e: &SExpr) -> Result<Expr, LangError> {
        aql_core::stack::check()?;
        Ok(match e {
            SExpr::Var(x) => {
                if !self.bound(x) {
                    if x == "bottom" {
                        return Ok(Expr::Bottom);
                    }
                    if let Some(eta) = builtin_eta(x) {
                        return Ok(eta);
                    }
                }
                Expr::Var(name(x))
            }
            SExpr::Nat(n) => Expr::Nat(*n),
            SExpr::Real(r) => Expr::Real(*r),
            SExpr::Str(s) => Expr::Str(s.as_str().into()),
            SExpr::Bool(v) => Expr::Bool(*v),
            SExpr::Tuple(items) => {
                Expr::Tuple(items.iter().map(|i| self.expr(i)).collect::<Result<_, _>>()?)
            }
            SExpr::SetLit(items) => self.literal(items, Monoid::Set)?,
            SExpr::BagLit(items) => self.literal(items, Monoid::Bag)?,
            SExpr::SetComp { head, quals } => self.comp(head, quals, Monoid::Set)?,
            SExpr::BagComp { head, quals } => self.comp(head, quals, Monoid::Bag)?,
            SExpr::ArrayLit(items) => {
                let n = items.len() as u64;
                Expr::ArrayLit {
                    dims: vec![Expr::Nat(n)],
                    items: items.iter().map(|i| self.expr(i)).collect::<Result<_, _>>()?,
                }
            }
            SExpr::ArrayRowMajor { dims, items } => Expr::ArrayLit {
                dims: dims.iter().map(|d| self.expr(d)).collect::<Result<_, _>>()?,
                items: items.iter().map(|i| self.expr(i)).collect::<Result<_, _>>()?,
            },
            SExpr::ArrayTab { head, idx } => {
                let bounds: Vec<Expr> = idx
                    .iter()
                    .map(|(_, bd)| self.expr(bd))
                    .collect::<Result<_, _>>()?;
                for (n, _) in idx {
                    self.scope.push(n.clone());
                }
                let h = self.expr(head);
                for _ in idx {
                    self.scope.pop();
                }
                Expr::Tab {
                    head: h?.boxed(),
                    idx: idx
                        .iter()
                        .map(|(n, _)| name(n))
                        .zip(bounds)
                        .collect(),
                }
            }
            SExpr::Subscript(arr, idx) => Expr::Sub(
                self.expr(arr)?.boxed(),
                idx.iter().map(|i| self.expr(i)).collect::<Result<_, _>>()?,
            ),
            SExpr::App(f, a) => self.app(f, a)?,
            SExpr::Lam(p, body) => self.lambda(p, body)?,
            SExpr::LetBlock(binds, body) => self.let_block(binds, body)?,
            SExpr::If(c, t, f) => b::iff(self.expr(c)?, self.expr(t)?, self.expr(f)?),
            SExpr::Not(a) => b::not(self.expr(a)?),
            SExpr::Binop(op, a, f) => {
                let (a, f2) = (self.expr(a)?, self.expr(f)?);
                match op {
                    SBinOp::Add => b::add(a, f2),
                    SBinOp::Sub => b::monus(a, f2),
                    SBinOp::Mul => b::mul(a, f2),
                    SBinOp::Div => b::div(a, f2),
                    SBinOp::Mod => b::modulo(a, f2),
                    SBinOp::Eq => b::cmp(CmpOp::Eq, a, f2),
                    SBinOp::Ne => b::cmp(CmpOp::Ne, a, f2),
                    SBinOp::Lt => b::cmp(CmpOp::Lt, a, f2),
                    SBinOp::Le => b::cmp(CmpOp::Le, a, f2),
                    SBinOp::Gt => b::cmp(CmpOp::Gt, a, f2),
                    SBinOp::Ge => b::cmp(CmpOp::Ge, a, f2),
                    SBinOp::And => b::and(a, f2),
                    SBinOp::Or => b::or(a, f2),
                    SBinOp::In => b::member(a, f2),
                    SBinOp::Union => b::union(a, f2),
                    SBinOp::Bunion => b::bag_union(a, f2),
                }
            }
        })
    }

    /// Application, with builtin dispatch on the callee name.
    fn app(&mut self, f: &SExpr, a: &SExpr) -> Result<Expr, LangError> {
        // summap(f)!(S) — the paper's Σ syntax (§4.2).
        if let SExpr::App(inner_f, fun) = f {
            if matches!(&**inner_f, SExpr::Var(n) if n == "summap" && !self.bound("summap")) {
                let fun = self.expr(fun)?;
                let src = self.expr(a)?;
                let x = fresh("x");
                return Ok(Expr::Sum {
                    head: b::app(fun, b::var(&x)).boxed(),
                    var: name(&x),
                    src: src.boxed(),
                });
            }
        }
        if let SExpr::Var(fname) = f {
            if !self.bound(fname) {
                if let Some(out) = self.builtin_app(fname, a)? {
                    return Ok(out);
                }
            }
        }
        Ok(b::app(self.expr(f)?, self.expr(a)?))
    }

    /// Builtins applied to an argument.
    fn builtin_app(&mut self, fname: &str, a: &SExpr) -> Result<Option<Expr>, LangError> {
        let out = match fname {
            "gen" => b::gen(self.expr(a)?),
            "get" => b::get(self.expr(a)?),
            "min" => b::set_min(self.expr(a)?),
            "max" => b::set_max(self.expr(a)?),
            "len" => b::len(self.expr(a)?),
            "member" => match a {
                SExpr::Tuple(items) if items.len() == 2 => {
                    b::member(self.expr(&items[0])?, self.expr(&items[1])?)
                }
                _ => {
                    return Err(LangError::desugar(
                        "member expects two arguments: member(x, S)",
                    ))
                }
            },
            "count" => {
                let x = fresh("x");
                b::sum(&x, self.expr(a)?, b::nat(1))
            }
            "dom" => b::gen(b::len(self.expr(a)?)),
            "rng" => {
                let arr = fresh("A");
                let i = fresh("i");
                b::let_(
                    &arr,
                    self.expr(a)?,
                    b::big_union(
                        &i,
                        b::gen(b::len(b::var(&arr))),
                        b::single(b::sub(b::var(&arr), vec![b::var(&i)])),
                    ),
                )
            }
            _ => {
                if let Some(k) = suffix_nat(fname, "index_") {
                    b::index(k, self.expr(a)?)
                } else if let Some((i, k)) = double_suffix(fname, "dim_") {
                    b::proj(i, k, b::dim(k, self.expr(a)?))
                } else if let Some(k) = suffix_nat(fname, "dim_") {
                    b::dim(k, self.expr(a)?)
                } else if let Some((i, k)) = double_suffix(fname, "pi_") {
                    b::proj(i, k, self.expr(a)?)
                } else {
                    return Ok(None);
                }
            }
        };
        Ok(Some(out))
    }

    /// `fn P => e` with an irrefutable lambda pattern (Fig. 2).
    fn lambda(&mut self, p: &Pattern, body: &SExpr) -> Result<Expr, LangError> {
        let bound = p.bound_names();
        for bn in &bound {
            self.scope.push(bn.clone());
        }
        let inner = self.expr(body);
        for _ in &bound {
            self.scope.pop();
        }
        let inner = inner?;
        match p {
            Pattern::Bind(x) => Ok(b::lam(x, inner)),
            Pattern::Wild => {
                let z = fresh("arg");
                Ok(b::lam(&z, inner))
            }
            _ => {
                let z = fresh("arg");
                let body = bind_irrefutable(p, b::var(&z), inner)?;
                Ok(b::lam(&z, body))
            }
        }
    }

    /// `let val P1 = e1 … val Pn = en in e end` as nested `let`s, one
    /// recursion a binder, so that the guard sees the chain's depth.
    fn let_block(&mut self, binds: &[(Pattern, SExpr)], body: &SExpr) -> Result<Expr, LangError> {
        aql_core::stack::check()?;
        let Some(((p, rhs), rest)) = binds.split_first() else { return self.expr(body) };
        let rhs = self.expr(rhs)?;
        let bound = p.bound_names();
        self.scope.extend(bound.iter().cloned());
        let inner = if rest.is_empty() { self.expr(body) } else { self.let_block(rest, body) };
        self.scope.truncate(self.scope.len() - bound.len());
        bind_irrefutable(p, rhs, inner?)
    }

    /// `{e1, …, en}` as `((∅ ∪ {e1}) ∪ …) ∪ {en}`, one recursion an
    /// element, so that the guard sees the chain's depth.
    fn literal(&mut self, items: &[SExpr], m: Monoid) -> Result<Expr, LangError> {
        aql_core::stack::check()?;
        let Some((last, init)) = items.split_last() else { return Ok(m.empty()) };
        let (acc, x) = (self.literal(init, m)?, m.single(self.expr(last)?));
        Ok(match m {
            Monoid::Set => b::union(acc, x),
            Monoid::Bag => b::bag_union(acc, x),
        })
    }

    /// Comprehension desugaring (Fig. 2), parameterised by monoid.
    fn comp(&mut self, head: &SExpr, quals: &[Qual], m: Monoid) -> Result<Expr, LangError> {
        aql_core::stack::check()?;
        match quals.split_first() {
            None => Ok(m.single(self.expr(head)?)),
            Some((q, rest)) => match q {
                Qual::Filter(p) => {
                    let p = self.expr(p)?;
                    let body = self.comp(head, rest, m)?;
                    Ok(b::iff(p, body, m.empty()))
                }
                Qual::Gen(pat, src) => {
                    let src = self.expr(src)?;
                    self.with_pattern(pat, |cx| cx.comp(head, rest, m), |p, scrut, body| {
                        bind_refutable(p, scrut, body, m.empty())
                    })
                    .map(|(var, body)| m.big_union(&var, src, body))
                }
                Qual::Bind(pat, rhs) => {
                    // P :== e  ≡  P <- {e}; implemented as a strict let
                    // with a pattern guard.
                    let rhs = self.expr(rhs)?;
                    let (var, body) = self.with_pattern(
                        pat,
                        |cx| cx.comp(head, rest, m),
                        |p, scrut, body| bind_refutable(p, scrut, body, m.empty()),
                    )?;
                    Ok(Expr::Let(name(&var), rhs.boxed(), body.boxed()))
                }
                Qual::ArrGen(pidx, pval, src) => {
                    let src = self.expr(src)?;
                    self.array_gen(pidx, pval, src, head, rest, m)
                }
            },
        }
    }

    /// Desugar the rest of a comprehension under a pattern binding: a
    /// fresh scrutinee variable is created, the pattern's names are
    /// brought into scope for the body, and `wrap` builds the actual
    /// destructuring around the body.
    fn with_pattern(
        &mut self,
        pat: &Pattern,
        body: impl FnOnce(&mut Cx) -> Result<Expr, LangError>,
        wrap: impl FnOnce(&Pattern, Expr, Expr) -> Result<Expr, LangError>,
    ) -> Result<(String, Expr), LangError> {
        // Simple binder: use the user's own name for readable cores.
        if let Pattern::Bind(x) = pat {
            self.scope.push(x.clone());
            let inner = body(self);
            self.scope.pop();
            return Ok((x.clone(), inner?));
        }
        let z = fresh("z").to_string();
        let bound = pat.bound_names();
        for bn in &bound {
            self.scope.push(bn.clone());
        }
        let inner = body(self);
        for _ in &bound {
            self.scope.pop();
        }
        let wrapped = wrap(pat, b::var(&z), inner?)?;
        Ok((z, wrapped))
    }

    /// `[P1 : P2] <- A` (§3): loop over the domain of `A`, binding the
    /// index to `P1` and the value `A[index]` to `P2`. The
    /// dimensionality is the arity of the index pattern.
    fn array_gen(
        &mut self,
        pidx: &Pattern,
        pval: &Pattern,
        src: Expr,
        head: &SExpr,
        rest: &[Qual],
        m: Monoid,
    ) -> Result<Expr, LangError> {
        let k = match pidx {
            Pattern::Tuple(ps) => ps.len(),
            _ => 1,
        };
        let arr = fresh("A").to_string();
        let idx_vars: Vec<String> = (0..k).map(|_| fresh("i").to_string()).collect();

        // Body: bind P1 against the index, P2 against A[index].
        let bound: Vec<String> = pidx
            .bound_names()
            .into_iter()
            .chain(pval.bound_names())
            .collect();
        for bn in &bound {
            self.scope.push(bn.clone());
        }
        let inner = self.comp(head, rest, m);
        for _ in &bound {
            self.scope.pop();
        }
        let mut body = inner?;

        let idx_expr = if k == 1 {
            b::var(&idx_vars[0])
        } else {
            Expr::Tuple(idx_vars.iter().map(|v| b::var(v)).collect())
        };
        let sub_expr = b::sub(
            b::var(&arr),
            idx_vars.iter().map(|v| b::var(v)).collect(),
        );
        body = bind_refutable(pval, sub_expr, body, m.empty())?;
        body = bind_refutable(pidx, idx_expr, body, m.empty())?;

        // Wrap in loops over gen(dim_{j,k} A), innermost last.
        for (j, iv) in idx_vars.iter().enumerate().rev() {
            let dim_j = if k == 1 {
                b::len(b::var(&arr))
            } else {
                b::proj(j + 1, k, b::dim(k, b::var(&arr)))
            };
            body = m.big_union(iv, b::gen(dim_j), body);
        }
        Ok(Expr::Let(name(&arr), src.boxed(), body.boxed()))
    }
}

/// Destructure an irrefutable (lambda/let) pattern with `let`s.
fn bind_irrefutable(p: &Pattern, scrut: Expr, body: Expr) -> Result<Expr, LangError> {
    aql_core::stack::check()?;
    match p {
        Pattern::Wild => Ok(body),
        Pattern::Bind(x) => Ok(Expr::Let(name(x), scrut.boxed(), body.boxed())),
        Pattern::Tuple(ps) => {
            // Bind the scrutinee once, then project components.
            let z = fresh("p");
            let bind = &mut |sub: &Pattern, proj, out| bind_irrefutable(sub, proj, out);
            let out = components(ps, ps.len(), &z, body, bind)?;
            Ok(Expr::Let(z, scrut.boxed(), out.boxed()))
        }
        Pattern::Var(_) | Pattern::Const(_) => Err(LangError::desugar(
            "constants and non-binding variables are not allowed in lambda/let patterns",
        )),
    }
}

/// Destructure a refutable (generator) pattern: binding occurrences
/// become `let`s, constants and non-binding occurrences become
/// equality guards that fall through to `empty` (Fig. 2).
fn bind_refutable(
    p: &Pattern,
    scrut: Expr,
    body: Expr,
    empty: Expr,
) -> Result<Expr, LangError> {
    aql_core::stack::check()?;
    match p {
        Pattern::Wild => Ok(body),
        Pattern::Bind(x) => Ok(Expr::Let(name(x), scrut.boxed(), body.boxed())),
        Pattern::Var(x) => Ok(b::iff(
            b::cmp(CmpOp::Eq, scrut, b::var(x)),
            body,
            empty,
        )),
        Pattern::Const(l) => Ok(b::iff(
            b::cmp(CmpOp::Eq, scrut, lit_expr(l)),
            body,
            empty,
        )),
        Pattern::Tuple(ps) => {
            let z = fresh("p");
            let bind = &mut |sub: &Pattern, proj, out| bind_refutable(sub, proj, out, empty.clone());
            let out = components(ps, ps.len(), &z, body, bind)?;
            Ok(Expr::Let(z, scrut.boxed(), out.boxed()))
        }
    }
}

/// The components `ps` of a `k`-tuple pattern bound to `z`'s
/// projections around `body`, one recursion a component, so that the
/// guard sees the chain of `let`s they become.
fn components(
    ps: &[Pattern],
    k: usize,
    z: &Name,
    body: Expr,
    bind: &mut dyn FnMut(&Pattern, Expr, Expr) -> Result<Expr, LangError>,
) -> Result<Expr, LangError> {
    aql_core::stack::check()?;
    let Some((p, rest)) = ps.split_first() else { return Ok(body) };
    let out = components(rest, k, z, body, bind)?;
    bind(p, b::proj(k - ps.len() + 1, k, Expr::Var(z.clone())), out)
}

fn lit_expr(l: &Lit) -> Expr {
    match l {
        Lit::Nat(n) => Expr::Nat(*n),
        Lit::Real(r) => Expr::Real(*r),
        Lit::Str(s) => Expr::Str(s.as_str().into()),
        Lit::Bool(v) => Expr::Bool(*v),
    }
}

/// Parse `prefix<k>` into `k` (e.g. `index_3`).
fn suffix_nat(s: &str, prefix: &str) -> Option<usize> {
    let rest = s.strip_prefix(prefix)?;
    if rest.is_empty() || !rest.bytes().all(|c| c.is_ascii_digit()) {
        return None;
    }
    let k: usize = rest.parse().ok()?;
    (1..=16).contains(&k).then_some(k)
}

/// Parse `prefix<i>_<k>` into `(i, k)` (e.g. `dim_1_2`, `pi_2_3`).
fn double_suffix(s: &str, prefix: &str) -> Option<(usize, usize)> {
    let rest = s.strip_prefix(prefix)?;
    let (a, bpart) = rest.split_once('_')?;
    let i: usize = a.parse().ok()?;
    let k: usize = bpart.parse().ok()?;
    (1 <= i && i <= k && (2..=16).contains(&k)).then_some((i, k))
}

/// Bare builtin identifiers are η-expanded into functions so they can
/// be passed first-class (e.g. `summap(count)` — not that `count` is a
/// prim, but `min`, `max`, `get` are common).
fn builtin_eta(x: &str) -> Option<Expr> {
    let unary = |mk: fn(Expr) -> Expr| {
        let z = fresh("x").to_string();
        Some(b::lam(&z, mk(b::var(&z))))
    };
    match x {
        "gen" => unary(b::gen),
        "get" => unary(b::get),
        "min" => unary(b::set_min),
        "max" => unary(b::set_max),
        "len" => unary(b::len),
        "dom" => unary(|e| b::gen(b::len(e))),
        "count" => {
            let z = fresh("s").to_string();
            let x2 = fresh("x").to_string();
            Some(b::lam(&z, b::sum(&x2, b::var(&z), b::nat(1))))
        }
        _ => {
            if let Some(k) = suffix_nat(x, "index_") {
                let z = fresh("x").to_string();
                return Some(b::lam(&z, b::index(k, b::var(&z))));
            }
            if let Some((i, k)) = double_suffix(x, "dim_") {
                let z = fresh("x").to_string();
                return Some(b::lam(&z, b::proj(i, k, b::dim(k, b::var(&z)))));
            }
            if let Some(k) = suffix_nat(x, "dim_") {
                let z = fresh("x").to_string();
                return Some(b::lam(&z, b::dim(k, b::var(&z))));
            }
            if let Some((i, k)) = double_suffix(x, "pi_") {
                let z = fresh("x").to_string();
                return Some(b::lam(&z, b::proj(i, k, b::var(&z))));
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use aql_core::eval::eval_closed;
    use aql_core::value::Value;

    fn run(src: &str) -> Value {
        let s = parse_expr(src).unwrap_or_else(|e| panic!("parse `{src}`: {e}"));
        let core = desugar(&s).unwrap_or_else(|e| panic!("desugar `{src}`: {e}"));
        aql_core::check::typecheck_closed(&core)
            .unwrap_or_else(|e| panic!("typecheck `{src}` = {core}: {e}"));
        eval_closed(&core).unwrap_or_else(|e| panic!("eval `{src}`: {e}"))
    }

    fn nats(ns: &[u64]) -> Value {
        Value::set(ns.iter().map(|&n| Value::Nat(n)).collect())
    }

    #[test]
    fn literals_and_arith() {
        assert_eq!(run("1 + 2 * 3"), Value::Nat(7));
        assert_eq!(run("10 - 20"), Value::Nat(0));
        assert_eq!(run("7 % 3"), Value::Nat(1));
        assert_eq!(run("1.5 + 2.0"), Value::Real(3.5));
        assert_eq!(run("\"a\""), Value::str("a"));
    }

    #[test]
    fn boolean_macros() {
        assert_eq!(run("true and false"), Value::Bool(false));
        assert_eq!(run("true or false"), Value::Bool(true));
        assert_eq!(run("not (1 = 2)"), Value::Bool(true));
    }

    #[test]
    fn comprehension_basics() {
        assert_eq!(run("{x | \\x <- gen!4, x % 2 = 0}"), nats(&[0, 2]));
        assert_eq!(run("{x * x | \\x <- gen!4}"), nats(&[0, 1, 4, 9]));
        assert_eq!(run("{x | \\x <- {}}"), nats(&[]));
    }

    #[test]
    fn cartesian_and_join_patterns() {
        // Natural join via patterns.
        let v = run(
            "{(x, z) | (\\x, \\y) <- {(1, 10), (2, 20)}, (y, \\z) <- {(10, 7), (30, 9)}}",
        );
        assert_eq!(
            v,
            Value::set(vec![Value::tuple(vec![Value::Nat(1), Value::Nat(7)])])
        );
        // Constant pattern.
        let v = run("{x | (_, 0, \\x) <- {(1, 0, 5), (2, 1, 6)}}");
        assert_eq!(v, nats(&[5]));
    }

    #[test]
    fn binding_qualifier() {
        assert_eq!(run("{y | \\x <- gen!3, \\y == x * 10}"), nats(&[0, 10, 20]));
        // Refutable binding filters.
        assert_eq!(run("{x | \\x <- gen!5, 0 == x % 2}"), nats(&[0, 2, 4]));
    }

    #[test]
    fn array_generator() {
        // 1-d: positions with values > 90 (the §3 example).
        let v = run("{i | [\\i : \\x] <- [[10, 95, 20, 99]], x > 90}");
        assert_eq!(v, nats(&[1, 3]));
        // 2-d with tuple index pattern.
        let v = run("{i + j | [(\\i, \\j) : \\x] <- [[2, 2; 5, 6, 7, 8]], x > 6}");
        assert_eq!(v, nats(&[1, 2]));
    }

    #[test]
    fn tabulation_and_subscript() {
        assert_eq!(run("[[ i * i | \\i < 4 ]][3]"), Value::Nat(9));
        assert_eq!(run("[[10, 20, 30]][1]"), Value::Nat(20));
        assert_eq!(run("[[2, 2; 1, 2, 3, 4]][1, 0]"), Value::Nat(3));
        assert_eq!(run("[[1, 2, 3]][9]"), Value::Bottom);
    }

    #[test]
    fn builtins() {
        assert_eq!(run("gen!3"), nats(&[0, 1, 2]));
        assert_eq!(run("len![[5, 6]]"), Value::Nat(2));
        assert_eq!(run("dim_1![[5, 6]]"), Value::Nat(2));
        assert_eq!(
            run("dim_2![[2, 3; 0, 0, 0, 0, 0, 0]]"),
            Value::tuple(vec![Value::Nat(2), Value::Nat(3)])
        );
        assert_eq!(run("dim_2_2![[2, 3; 0, 0, 0, 0, 0, 0]]"), Value::Nat(3));
        assert_eq!(run("pi_2_2!(7, 8)"), Value::Nat(8));
        assert_eq!(run("min!{3, 1, 2}"), Value::Nat(1));
        assert_eq!(run("max!(gen!5)"), Value::Nat(4));
        assert_eq!(run("get!{42}"), Value::Nat(42));
        assert_eq!(run("member(2, gen!4)"), Value::Bool(true));
        assert_eq!(run("count!(gen!7)"), Value::Nat(7));
        assert_eq!(run("dom![[9, 9]]"), nats(&[0, 1]));
        assert_eq!(run("rng![[9, 9, 4]]"), nats(&[4, 9]));
        assert_eq!(run("summap(fn \\x => x * 2)!(gen!4)"), Value::Nat(12));
        assert_eq!(run("bottom"), Value::Bottom);
    }

    #[test]
    fn index_builtin() {
        let v = run("index_1!{(1, \"a\"), (3, \"b\"), (1, \"c\")}");
        let a = v.as_array().unwrap();
        assert_eq!(a.dims(), &[4]);
        assert_eq!(a.get(&[1]).unwrap().as_set().unwrap().len(), 2);
    }

    #[test]
    fn lambda_patterns_and_blocks() {
        assert_eq!(run("(fn (\\a, \\b) => a + b)!(20, 22)"), Value::Nat(42));
        assert_eq!(run("(fn _ => 9)!1"), Value::Nat(9));
        assert_eq!(
            run("let val \\x = 3 val (\\a, \\b) = (x, x + 1) in a * b end"),
            Value::Nat(12)
        );
    }

    #[test]
    fn call_sugar() {
        assert_eq!(run("(fn (\\a, \\b) => a - b)(50, 8)"), Value::Nat(42));
    }

    #[test]
    fn shadowing_builtins() {
        // A lexically bound `gen` shadows the builtin.
        assert_eq!(run("(fn \\gen => gen + 1)!4"), Value::Nat(5));
    }

    #[test]
    fn bag_comprehensions() {
        let v = run("{| x % 2 | \\x <- {|1, 2, 3, 4|} |}");
        let bag = v.as_bag().unwrap();
        assert_eq!(bag.count(&Value::Nat(0)), 2);
        assert_eq!(bag.count(&Value::Nat(1)), 2);
        assert_eq!(run("count!{1, 1, 2}"), Value::Nat(2));
    }

    #[test]
    fn union_operators() {
        assert_eq!(run("{1} union {2, 3}"), nats(&[1, 2, 3]));
        let v = run("{|1|} bunion {|1|}");
        assert_eq!(v.as_bag().unwrap().count(&Value::Nat(1)), 2);
    }

    #[test]
    fn nest_in_surface_syntax() {
        // The §3 one-liner: nest = fn \X => {(x, {y | (x,\y) <- X}) | (\x,_) <- X}
        let v = run(
            "(fn \\X => {(x, {y | (x, \\y) <- X}) | (\\x, _) <- X})!{(1, 5), (1, 6), (2, 7)}",
        );
        let s = v.as_set().unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn evenpos_of_intro() {
        // §1: evenpos(A) = [[A[i*2] | \i < len(A)/2]]
        let v = run("(fn \\A => [[ A[i * 2] | \\i < len!A / 2 ]])![[0, 1, 2, 3, 4, 5]]");
        let a = v.as_array().unwrap();
        let got: Vec<u64> = a.data().iter().map(|x| x.as_nat().unwrap()).collect();
        assert_eq!(got, vec![0, 2, 4]);
    }
}
