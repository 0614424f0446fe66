//! Conditional rules: constant conditions, equal branches, and the
//! §5 "if-propagation" rules
//!
//! ```text
//! if e then (…e…) else e'  ⤳  if e then (…true…) else e'
//! if e then e' else (…e…)  ⤳  if e then e' else (…false…)
//! ```
//!
//! which, combined with the bound-check rules of [`super::checks`],
//! remove the redundant constraint checks `β^p` introduces.

use aql_core::expr::{Expr, Head};

use crate::engine::Rule;
use super::replace_capture_aware;

/// `if true then t else f ⤳ t`, `if false then t else f ⤳ f`,
/// `if ⊥ then t else f ⤳ ⊥`.
pub struct IfConst;

impl Rule for IfConst {
    fn name(&self) -> &'static str {
        "if-const"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::If]
    }
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::If(c, t, f) => match &**c {
                Expr::Bool(true) => Some((**t).clone()),
                Expr::Bool(false) => Some((**f).clone()),
                Expr::Bottom => Some(Expr::Bottom),
                _ => None,
            },
            _ => None,
        }
    }
}

/// `if c then e else e ⤳ e` — discards `c`, so (like `δ^p`) sound for
/// error-free conditions.
pub struct IfSameBranches;

impl Rule for IfSameBranches {
    fn name(&self) -> &'static str {
        "if-same-branches"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::If]
    }
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::If(_, t, f) if t == f => Some((**t).clone()),
            _ => None,
        }
    }
}

/// The §5 if-propagation rules: within the *then* branch the condition
/// is known `true`; within the *else* branch it is known `false`.
/// Occurrences are replaced capture-awarely (free variables of the
/// condition must not be shadowed at the occurrence).
pub struct IfPropagate;

impl Rule for IfPropagate {
    fn name(&self) -> &'static str {
        "if-propagate"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::If]
    }
    fn apply(&self, e: &Expr) -> Option<Expr> {
        let Expr::If(c, t, f) = e else { return None };
        // Propagating a literal is pointless; IfConst handles those.
        if matches!(&**c, Expr::Bool(_) | Expr::Bottom) {
            return None;
        }
        let t2 = replace_capture_aware(t, c, &Expr::Bool(true));
        let f2 = replace_capture_aware(f, c, &Expr::Bool(false));
        if t2.is_none() && f2.is_none() {
            return None;
        }
        let or_old = |new: Option<Expr>, old: &Expr| new.unwrap_or_else(|| old.clone()).boxed();
        Some(Expr::If(c.clone(), or_old(t2, t), or_old(f2, f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::expr::builder::*;

    #[test]
    fn constant_conditions() {
        assert_eq!(
            IfConst.apply(&iff(Expr::Bool(true), nat(1), nat(2))).unwrap(),
            nat(1)
        );
        assert_eq!(
            IfConst.apply(&iff(Expr::Bool(false), nat(1), nat(2))).unwrap(),
            nat(2)
        );
        assert_eq!(
            IfConst.apply(&iff(bottom(), nat(1), nat(2))).unwrap(),
            bottom()
        );
        assert!(IfConst.apply(&iff(var("c"), nat(1), nat(2))).is_none());
    }

    #[test]
    fn equal_branches_collapse() {
        let e = iff(var("c"), nat(5), nat(5));
        assert_eq!(IfSameBranches.apply(&e).unwrap(), nat(5));
        assert!(IfSameBranches.apply(&iff(var("c"), nat(5), nat(6))).is_none());
    }

    #[test]
    fn propagation_rewrites_nested_occurrences() {
        // if (i < n) then (if (i < n) then x else y) else z
        //   ⤳ if (i < n) then (if true then x else y) else z
        let c = lt(var("i"), var("n"));
        let e = iff(c.clone(), iff(c.clone(), var("x"), var("y")), var("z"));
        let got = IfPropagate.apply(&e).unwrap();
        let expect = iff(
            c.clone(),
            iff(Expr::Bool(true), var("x"), var("y")),
            var("z"),
        );
        assert_eq!(got, expect);
        // And in the else branch the condition becomes false.
        let e = iff(c.clone(), var("x"), iff(c.clone(), var("y"), var("z")));
        let got = IfPropagate.apply(&e).unwrap();
        let expect = iff(
            c.clone(),
            var("x"),
            iff(Expr::Bool(false), var("y"), var("z")),
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn propagation_respects_shadowing() {
        // The occurrence under a binder for `i` is a different i.
        let c = lt(var("i"), var("n"));
        let shadowed = big_union("i", gen(nat(3)), single(iff(c.clone(), nat(1), nat(0))));
        let e = iff(c.clone(), shadowed.clone(), var("z"));
        assert!(IfPropagate.apply(&e).is_none());
    }

    #[test]
    fn propagation_fires_once() {
        let c = lt(var("i"), var("n"));
        let e = iff(c.clone(), iff(c.clone(), var("x"), var("y")), var("z"));
        let once = IfPropagate.apply(&e).unwrap();
        assert!(IfPropagate.apply(&once).is_none(), "must reach fixpoint");
    }
}
