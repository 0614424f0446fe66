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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::App(f, a) => match &**f {
                Expr::Lam(x, body) => Some(subst(body, x, a)),
                _ => None,
            },
            _ => None,
        }
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::Let(x, bound, body) => Some(subst(body, x, bound)),
            _ => None,
        }
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::Proj(i, k, t) => match &**t {
                Expr::Tuple(items) if items.len() == *k => Some(items[*i - 1].clone()),
                _ => None,
            },
            _ => None,
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::Get(inner) => match &**inner {
                Expr::Single(x) => Some((**x).clone()),
                Expr::Empty => Some(Expr::Bottom),
                _ => None,
            },
            _ => None,
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
        assert_eq!(BetaFun.apply(&e).unwrap(), add(nat(3), nat(3)));
        assert!(BetaFun.apply(&app(var("f"), nat(1))).is_none());
    }

    #[test]
    fn let_inlines() {
        let e = let_("y", nat(2), mul(var("y"), var("z")));
        assert_eq!(LetInline.apply(&e).unwrap(), mul(nat(2), var("z")));
    }

    #[test]
    fn pi_projects() {
        let e = proj(2, 3, tuple(vec![nat(1), nat(2), nat(3)]));
        assert_eq!(PiTuple.apply(&e).unwrap(), nat(2));
        // Arity mismatch (ill-typed anyway) does not fire.
        let e = proj(1, 2, tuple(vec![nat(1), nat(2), nat(3)]));
        assert!(PiTuple.apply(&e).is_none());
    }

    #[test]
    fn get_laws() {
        assert_eq!(GetSingleton.apply(&get(single(nat(7)))).unwrap(), nat(7));
        assert_eq!(GetSingleton.apply(&get(empty())).unwrap(), bottom());
        assert!(GetSingleton.apply(&get(var("s"))).is_none());
    }
}
