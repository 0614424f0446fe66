//! The λ-calculus fragment: β, `let`-inlining, π, and `get` laws.
//!
//! Normalization performs *full* β/`let` inlining, as in the paper's
//! derivations (§5 uses β freely, e.g. in the transpose derivation).
//! Inlining can duplicate argument expressions; the code-motion phase
//! that runs last re-introduces sharing where it pays.

use aql_core::expr::free::subst;
use aql_core::expr::{Expr, Head};

use crate::engine::Rule;

/// β for functions: `(λx.e1)(e2) ⤳ e1{x := e2}`.
pub struct BetaFun;

impl Rule for BetaFun {
    fn name(&self) -> &'static str {
        "beta"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::App]
    }
    fn substitutes(&self) -> bool { true }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        let Expr::App(f, a) = &mut e else { return Err(e) };
        let Expr::Lam(x, body) = &mut **f else { return Err(e) };
        let mut out = body.take();
        subst(&mut out, x, a.take());
        Ok(out)
    }
}

/// `let x = e1 in e2 ⤳ e2{x := e1}` — `let` is β-redex sugar at the
/// core level.
pub struct LetInline;

impl Rule for LetInline {
    fn name(&self) -> &'static str {
        "let-inline"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Let]
    }
    fn substitutes(&self) -> bool { true }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        let Expr::Let(x, bound, body) = &mut e else { return Err(e) };
        let mut out = body.take();
        subst(&mut out, x, bound.take());
        Ok(out)
    }
}

/// π for products: `π_{i,k}(e1, …, ek) ⤳ e_i`.
pub struct PiTuple;

impl Rule for PiTuple {
    fn name(&self) -> &'static str {
        "pi"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Proj]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        match &mut e {
            Expr::Proj(i, k, t) => match &mut **t {
                Expr::Tuple(items) if items.len() == *k => Ok(items[*i - 1].take()),
                _ => Err(e),
            },
            _ => Err(e),
        }
    }
}

/// `get({e}) ⤳ e` and `get({}) ⤳ ⊥`.
pub struct GetSingleton;

impl Rule for GetSingleton {
    fn name(&self) -> &'static str {
        "get"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Get]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        match &mut e {
            Expr::Get(inner) => match &mut **inner {
                Expr::Single(x) => Ok(x.take()),
                Expr::Empty => Ok(Expr::Bottom),
                _ => Err(e),
            },
            _ => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::expr::builder::*;

    #[test]
    fn beta_substitutes() {
        let e = app(lam("x", add(var("x"), var("x"))), nat(3));
        assert_eq!(BetaFun.apply(e.clone()).unwrap(), add(nat(3), nat(3)));
        let e = app(var("f"), nat(1));
        assert_eq!(BetaFun.apply(e.clone()), Err(e));
    }

    #[test]
    fn let_inlines() {
        let e = let_("y", nat(2), mul(var("y"), var("z")));
        assert_eq!(LetInline.apply(e.clone()).unwrap(), mul(nat(2), var("z")));
    }

    #[test]
    fn pi_projects() {
        let e = proj(2, 3, tuple(vec![nat(1), nat(2), nat(3)]));
        assert_eq!(PiTuple.apply(e.clone()).unwrap(), nat(2));
        // Arity mismatch (ill-typed anyway) does not fire.
        let e = proj(1, 2, tuple(vec![nat(1), nat(2), nat(3)]));
        assert_eq!(PiTuple.apply(e.clone()), Err(e));
    }

    #[test]
    fn get_laws() {
        assert_eq!(GetSingleton.apply(get(single(nat(7)))).unwrap(), nat(7));
        assert_eq!(GetSingleton.apply(get(empty())).unwrap(), bottom());
        assert_eq!(GetSingleton.apply(get(var("s"))), Err(get(var("s"))));
    }
}
