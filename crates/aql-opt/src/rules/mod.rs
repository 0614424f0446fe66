//! The rule library: every rewrite of §5, organised by family.
//!
//! * [`beta`] — β for functions, `let`-inlining, π for products,
//!   `get` laws (the λ-calculus fragment);
//! * [`sets`] — the set-monad laws: unit/empty sources, union
//!   splitting, vertical and horizontal fusion, filter promotion,
//!   singleton-η (from the equational theory of NRC, citations 7 and 34);
//! * [`arith`] — summation laws and constant folding (from the
//!   arithmetic extension of NRC, the paper's citation 18);
//! * [`arrays`] — the three array rules `β^p`, `η^p`, `δ^p` of §5,
//!   generalised to k dimensions;
//! * [`cond`] — standard conditional rules plus the §5
//!   "if-propagation" redundant-check rules;
//! * [`checks`] — the §5 bound-check elimination rules for
//!   tabulations and `gen` loops;
//! * [`motion`] — loop-invariant code motion (the paper's "later
//!   phases include … code motion").

pub mod arith;
pub mod arrays;
pub mod beta;
pub mod checks;
pub mod cond;
pub mod motion;
pub mod sets;

use std::rc::Rc;

use aql_core::expr::children::{for_each_child, map_children};
use aql_core::expr::free::is_free_in;
use aql_core::expr::{Expr, Name};

use crate::engine::{Optimizer, Phase};

/// Build the standard three-phase optimizer of §5: normalization,
/// constraint (bound-check) elimination, and code motion.
pub fn standard() -> Optimizer {
    let mut opt = Optimizer::empty();
    opt.add_phase(normalize_phase());
    opt.add_phase(checks_phase());
    opt.add_phase(motion_phase());
    opt
}

/// The normalization phase only (used by convergence tests that want
/// to inspect the normal form before check elimination).
pub fn normalizer() -> Optimizer {
    let mut opt = Optimizer::empty();
    opt.add_phase(normalize_phase());
    opt
}

/// Normalization + constraint elimination, without code motion — the
/// two phases the paper describes in detail.
pub fn normalize_and_eliminate() -> Optimizer {
    let mut opt = Optimizer::empty();
    opt.add_phase(normalize_phase());
    opt.add_phase(checks_phase());
    opt
}

/// The "normalize" phase with the full §5 rule complement.
pub fn normalize_phase() -> Phase {
    let mut p = Phase::new("normalize");
    p.add_rule(Rc::new(beta::BetaFun));
    p.add_rule(Rc::new(beta::LetInline));
    p.add_rule(Rc::new(beta::PiTuple));
    p.add_rule(Rc::new(beta::GetSingleton));
    p.add_rule(Rc::new(cond::IfConst));
    p.add_rule(Rc::new(sets::UnionEmpty));
    p.add_rule(Rc::new(sets::BigUnionEmptySrc));
    p.add_rule(Rc::new(sets::BigUnionSingletonSrc));
    p.add_rule(Rc::new(sets::BigUnionUnionSrc));
    p.add_rule(Rc::new(sets::VerticalFusion));
    p.add_rule(Rc::new(sets::HorizontalFusion));
    p.add_rule(Rc::new(sets::FilterPromotion));
    p.add_rule(Rc::new(sets::SingletonEta));
    p.add_rule(Rc::new(sets::EmptyHead));
    p.add_rule(Rc::new(sets::UnionIdem));
    p.add_rule(Rc::new(sets::MinMaxSingleton));
    p.add_rule(Rc::new(sets::BagUnionEmpty));
    p.add_rule(Rc::new(sets::BigBagUnionLaws));
    p.add_rule(Rc::new(sets::BagFilterEta));
    p.add_rule(Rc::new(arith::SumEmptySrc));
    p.add_rule(Rc::new(arith::SumSingletonSrc));
    p.add_rule(Rc::new(arith::SumFilterPromotion));
    p.add_rule(Rc::new(arith::ConstFold));
    p.add_rule(Rc::new(arrays::BetaPartial));
    p.add_rule(Rc::new(arrays::EtaPartial));
    p.add_rule(Rc::new(arrays::DeltaPartial));
    p.add_rule(Rc::new(arrays::SubOfLiteral));
    p.add_rule(Rc::new(arrays::DimOfLiteral));
    p
}

/// The constraint (bound-check) elimination phase.
pub fn checks_phase() -> Phase {
    let mut p = Phase::new("check-elim");
    p.add_rule(Rc::new(checks::TabBodyBound));
    p.add_rule(Rc::new(checks::GenBodyBound));
    p.add_rule(Rc::new(cond::IfPropagate));
    p.add_rule(Rc::new(cond::IfConst));
    p.add_rule(Rc::new(cond::IfSameBranches));
    p
}

/// The code-motion phase.
pub fn motion_phase() -> Phase {
    let mut p = Phase::new("code-motion");
    p.add_rule(Rc::new(motion::HoistInvariant::default()));
    p
}

// ---------------------------------------------------------------------
// Shared helpers for capture-aware replacement.
// ---------------------------------------------------------------------

/// Every name `e` binds, over whichever child.
fn binders_of(e: &Expr) -> Vec<Name> {
    let mut out = Vec::new();
    for_each_child(e, &mut |binders, _| out.extend_from_slice(binders));
    out
}

/// Does a binder of `e` (over whichever child) shadow a free variable
/// of `pattern`? Below such a node an occurrence of the pattern would
/// no longer denote the same value, and the replacement helpers
/// conservatively leave the whole subtree alone. (Non-head children of
/// binding nodes are actually safe, but the conservative cut keeps the
/// logic obviously correct; the fixpoint loop recovers most
/// opportunities.)
fn shadows(e: &Expr, pattern: &Expr) -> bool {
    let mut shadowing = false;
    for_each_child(e, &mut |binders, _| {
        shadowing = shadowing || binders.iter().any(|b| is_free_in(b, pattern));
    });
    shadowing
}

/// Does `pattern` occur in `e` where [`replace_capture_aware`] would
/// replace it?
fn occurs_replaceably(e: &Expr, pattern: &Expr) -> bool {
    if e == pattern {
        return true;
    }
    if shadows(e, pattern) {
        return false;
    }
    let mut found = false;
    for_each_child(e, &mut |_, c| found = found || occurs_replaceably(c, pattern));
    found
}

/// Replace every occurrence of `pattern` (syntactic equality) inside
/// `e` with `replacement`, without descending into subtrees whose
/// binders shadow a free variable of the pattern (the "extra
/// conditions guaranteeing free variables … are not captured" of §5).
/// `None` — and nothing rebuilt — when there is no such occurrence,
/// which is what a rule's `apply` finds at almost every node.
pub fn replace_capture_aware(e: &Expr, pattern: &Expr, replacement: &Expr) -> Option<Expr> {
    fn go(e: &Expr, pattern: &Expr, replacement: &Expr) -> Expr {
        if e == pattern {
            return replacement.clone();
        }
        if shadows(e, pattern) {
            return e.clone();
        }
        map_children(e, &mut |_, c| go(c, pattern, replacement))
    }
    occurs_replaceably(e, pattern).then(|| go(e, pattern, replacement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::expr::builder::*;

    #[test]
    fn replace_plain_occurrences() {
        let e = add(var("c"), add(var("c"), nat(1)));
        let got = replace_capture_aware(&e, &var("c"), &nat(9));
        assert_eq!(got, Some(add(nat(9), add(nat(9), nat(1)))));
        assert_eq!(replace_capture_aware(&e, &var("d"), &nat(9)), None);
    }

    #[test]
    fn replacement_stops_at_shadowing_binders() {
        // Replace x inside λx.x must not happen.
        let e = tuple(vec![var("x"), lam("x", var("x"))]);
        let got = replace_capture_aware(&e, &var("x"), &nat(5));
        assert_eq!(got, Some(tuple(vec![nat(5), lam("x", var("x"))])));
    }

    #[test]
    fn compound_patterns() {
        let pat = lt(var("i"), var("n"));
        let e = iff(lt(var("i"), var("n")), nat(1), nat(0));
        let got = replace_capture_aware(&e, &pat, &Expr::Bool(true));
        assert_eq!(got, Some(iff(Expr::Bool(true), nat(1), nat(0))));
        // A binder shadowing `n` blocks the replacement under it.
        let e = big_union("n", gen(nat(3)), single(iff(lt(var("i"), var("n")), nat(1), nat(0))));
        assert_eq!(replace_capture_aware(&e, &pat, &Expr::Bool(true)), None);
    }
}
