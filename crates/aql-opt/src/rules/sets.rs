//! Set-monad rewrite rules from the equational theory of NRC (the
//! paper's citations 7 and 34):
//! source simplification, union splitting, vertical/horizontal loop
//! fusion, filter promotion, and the singleton-η law.
//!
//! Soundness caveats (the paper's conventions): rules that *discard* a
//! subexpression — [`EmptyHead`] drops the loop source — are sound for
//! error-free programs, exactly like the paper's `δ^p`.

use aql_core::expr::free::{fresh, is_free_in, subst};
use aql_core::expr::{Expr, Head, Name};

use crate::engine::Rule;
use super::arith::promotable;

/// `e ∪ {} ⤳ e` and `{} ∪ e ⤳ e`.
pub struct UnionEmpty;

impl Rule for UnionEmpty {
    fn name(&self) -> &'static str {
        "union-empty"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Union]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::Union(a, b) if *a == Expr::Empty => Ok(*b),
            Expr::Union(a, b) if *b == Expr::Empty => Ok(*a),
            e => Err(e),
        }
    }
}

/// `⋃{e | x ∈ {}} ⤳ {}`.
pub struct BigUnionEmptySrc;

impl Rule for BigUnionEmptySrc {
    fn name(&self) -> &'static str {
        "bigunion-empty-src"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigUnion]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::BigUnion { src, .. } if *src == Expr::Empty => Ok(Expr::Empty),
            e => Err(e),
        }
    }
}

/// `⋃{e1 | x ∈ {e2}} ⤳ e1{x := e2}` — the monad unit law.
pub struct BigUnionSingletonSrc;

impl Rule for BigUnionSingletonSrc {
    fn name(&self) -> &'static str {
        "bigunion-singleton-src"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigUnion]
    }
    fn substitutes(&self) -> bool { true }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        let Expr::BigUnion { head, var, src } = &mut e else { return Err(e) };
        let Expr::Single(x) = &mut **src else { return Err(e) };
        let mut out = head.take();
        subst(&mut out, var, x.take());
        Ok(out)
    }
}

/// `⋃{e | x ∈ e1 ∪ e2} ⤳ ⋃{e | x ∈ e1} ∪ ⋃{e | x ∈ e2}`.
pub struct BigUnionUnionSrc;

impl Rule for BigUnionUnionSrc {
    fn name(&self) -> &'static str {
        "bigunion-union-src"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigUnion]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::BigUnion { head, var, src } if matches!(*src, Expr::Union(..)) => {
                let Expr::Union(a, b) = *src else { unreachable!("matched above") };
                let left = Expr::BigUnion { head: head.clone(), var: var.clone(), src: a };
                Ok(Expr::Union(left.boxed(), Expr::BigUnion { head, var, src: b }.boxed()))
            }
            e => Err(e),
        }
    }
}

/// Vertical fusion (the monad associativity law):
/// `⋃{e1 | x ∈ ⋃{e2 | y ∈ e3}} ⤳ ⋃{⋃{e1 | x ∈ e2} | y ∈ e3}`,
/// α-renaming `y` when it is free in `e1`.
pub struct VerticalFusion;

impl Rule for VerticalFusion {
    fn name(&self) -> &'static str {
        "vertical-fusion"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigUnion]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::BigUnion { head: h1, var: x, src } if matches!(*src, Expr::BigUnion { .. }) => {
                let Expr::BigUnion { head: mut h2, var: y, src: s3 } = *src else {
                    unreachable!("matched above")
                };
                let y = rename_if_free_in(y, &mut h2, &h1);
                let inner = Expr::BigUnion { head: h1, var: x, src: h2 };
                Ok(Expr::BigUnion { head: inner.boxed(), var: y, src: s3 })
            }
            e => Err(e),
        }
    }
}

/// The binder `y` of `body`, α-renamed in `body` to a fresh name if it is
/// free in `outer` (which is about to move under it).
fn rename_if_free_in(y: Name, body: &mut Expr, outer: &Expr) -> Name {
    if !is_free_in(&y, outer) {
        return y;
    }
    let ny = fresh(&y);
    subst(body, &y, Expr::Var(ny.clone()));
    ny
}

/// Horizontal fusion: `⋃{e1 | x ∈ S} ∪ ⋃{e2 | x ∈ S} ⤳
/// ⋃{e1 ∪ e2 | x ∈ S}` when both loops range over the *same* source.
/// Sound for sets: both sides union `e1(s) ∪ e2(s)` over `s ∈ S`.
pub struct HorizontalFusion;

impl Rule for HorizontalFusion {
    fn name(&self) -> &'static str {
        "horizontal-fusion"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Union]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        let same_source = |a: &Expr, b: &Expr| {
            matches!((a, b), (Expr::BigUnion { src: s1, .. }, Expr::BigUnion { src: s2, .. }) if s1 == s2)
        };
        match e {
            Expr::Union(a, b) if same_source(&a, &b) => {
                let (Expr::BigUnion { head: h1, var: x1, src }, Expr::BigUnion { head: mut h2, var: x2, .. }) =
                    (*a, *b)
                else {
                    unreachable!("matched above")
                };
                if x1 != x2 {
                    subst(&mut h2, &x2, Expr::Var(x1.clone()));
                }
                Ok(Expr::BigUnion { head: Expr::Union(h1, h2).boxed(), var: x1, src })
            }
            e => Err(e),
        }
    }
}

/// Filter promotion: `⋃{if p then e else {} | x ∈ S} ⤳
/// if p then ⋃{e | x ∈ S} else {}` when `x` is not free in `p`.
pub struct FilterPromotion;

impl Rule for FilterPromotion {
    fn name(&self) -> &'static str {
        "filter-promotion"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigUnion]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::BigUnion { head, var, src } if promotable(&head, &var, &Expr::Empty) => {
                let Expr::If(p, t, f) = *head else { unreachable!("matched above") };
                Ok(Expr::If(p, Expr::BigUnion { head: t, var, src }.boxed(), f))
            }
            e => Err(e),
        }
    }
}

/// Singleton-η: `⋃{{x} | x ∈ S} ⤳ S`.
pub struct SingletonEta;

impl Rule for SingletonEta {
    fn name(&self) -> &'static str {
        "singleton-eta"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigUnion]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::BigUnion { head, var, src } if matches!(&*head, Expr::Single(x) if is_var(x, &var)) => {
                Ok(*src)
            }
            e => Err(e),
        }
    }
}

/// Is `e` the variable `var`?
fn is_var(e: &Expr, var: &Name) -> bool {
    matches!(e, Expr::Var(v) if v == var)
}

/// Union idempotence: `e ∪ e ⤳ e` (syntactic match).
pub struct UnionIdem;

impl Rule for UnionIdem {
    fn name(&self) -> &'static str {
        "union-idem"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Union]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::Union(a, b) if a == b => Ok(*a),
            e => Err(e),
        }
    }
}

/// `min({e}) ⤳ e`, `max({e}) ⤳ e`, `min({}) ⤳ ⊥`, `max({}) ⤳ ⊥`.
/// Together with [`UnionIdem`] this collapses the
/// `min{len A, len A}` bounds produced by self-`zip`s.
pub struct MinMaxSingleton;

impl Rule for MinMaxSingleton {
    fn name(&self) -> &'static str {
        "minmax-singleton"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Prim]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        use aql_core::expr::Prim;
        let Expr::Prim(Prim::MinSet | Prim::MaxSet, args) = &mut e else { return Err(e) };
        match &mut args[0] {
            Expr::Single(x) => Ok(x.take()),
            Expr::Empty => Ok(Expr::Bottom),
            _ => Err(e),
        }
    }
}

/// `⋃{{} | x ∈ S} ⤳ {}` — discards `S`, so (like `δ^p`) sound for
/// error-free programs.
pub struct EmptyHead;

impl Rule for EmptyHead {
    fn name(&self) -> &'static str {
        "empty-head"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigUnion]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::BigUnion { head, .. } if *head == Expr::Empty => Ok(Expr::Empty),
            e => Err(e),
        }
    }
}

// ---------------------------------------------------------------------
// Bag (NBC) analogues. Additive union makes these laws, if anything,
// *more* robustly sound than the set versions: there is no implicit
// deduplication to worry about.
// ---------------------------------------------------------------------

/// `e ⊎ {||} ⤳ e` and `{||} ⊎ e ⤳ e`.
pub struct BagUnionEmpty;

impl Rule for BagUnionEmpty {
    fn name(&self) -> &'static str {
        "bag-union-empty"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BagUnion]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::BagUnion(a, b) if *a == Expr::BagEmpty => Ok(*b),
            Expr::BagUnion(a, b) if *b == Expr::BagEmpty => Ok(*a),
            e => Err(e),
        }
    }
}

/// `⨄{|e | x ∈ {||}|} ⤳ {||}` and `⨄{|e1 | x ∈ {|e2|}|} ⤳ e1{x := e2}`
/// and union splitting — the monad laws for bags.
pub struct BigBagUnionLaws;

impl Rule for BigBagUnionLaws {
    fn name(&self) -> &'static str {
        "bigbagunion-laws"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigBagUnion]
    }
    fn substitutes(&self) -> bool { true }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        let fires = |src: &Expr| {
            matches!(src, Expr::BagEmpty | Expr::BagSingle(_) | Expr::BagUnion(..) | Expr::BigBagUnion { .. })
        };
        let Expr::BigBagUnion { mut head, var, src } = e else { return Err(e) };
        if !fires(&src) {
            return Err(Expr::BigBagUnion { head, var, src });
        }
        match *src {
            Expr::BagSingle(x) => {
                subst(&mut head, &var, *x);
                Ok(*head)
            }
            Expr::BagUnion(a, b) => {
                let left = Expr::BigBagUnion { head: head.clone(), var: var.clone(), src: a };
                Ok(Expr::BagUnion(left.boxed(), Expr::BigBagUnion { head, var, src: b }.boxed()))
            }
            Expr::BigBagUnion { head: mut h2, var: y, src: s3 } => {
                // Vertical fusion, α-renaming on capture.
                let y = rename_if_free_in(y, &mut h2, &head);
                let inner = Expr::BigBagUnion { head, var, src: h2 };
                Ok(Expr::BigBagUnion { head: inner.boxed(), var: y, src: s3 })
            }
            _ => Ok(Expr::BagEmpty),
        }
    }
}

/// Filter promotion and singleton-η for bags:
/// `⨄{|if p then e else {||} | x ∈ S|} ⤳ if p then ⨄{…} else {||}`
/// (x ∉ FV(p)), and `⨄{|{|x|} | x ∈ S|} ⤳ S`.
pub struct BagFilterEta;

impl Rule for BagFilterEta {
    fn name(&self) -> &'static str {
        "bag-filter-eta"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigBagUnion]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::BigBagUnion { head, var, src } if promotable(&head, &var, &Expr::BagEmpty) => {
                let Expr::If(p, t, f) = *head else { unreachable!("matched above") };
                Ok(Expr::If(p, Expr::BigBagUnion { head: t, var, src }.boxed(), f))
            }
            Expr::BigBagUnion { head, var, src } if matches!(&*head, Expr::BagSingle(x) if is_var(x, &var)) => {
                Ok(*src)
            }
            e => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::eval::eval_closed;
    use aql_core::expr::builder::*;

    #[test]
    fn unit_laws() {
        let e = big_union("x", single(nat(3)), single(mul(var("x"), nat(2))));
        assert_eq!(
            BigUnionSingletonSrc.apply(e.clone()).unwrap(),
            single(mul(nat(3), nat(2)))
        );
        let e = big_union("x", empty(), single(var("x")));
        assert_eq!(BigUnionEmptySrc.apply(e.clone()).unwrap(), empty());
    }

    #[test]
    fn union_splitting_preserves_semantics() {
        let e = big_union(
            "x",
            union(single(nat(1)), single(nat(2))),
            single(mul(var("x"), nat(10))),
        );
        let split = BigUnionUnionSrc.apply(e.clone()).unwrap();
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&split).unwrap());
    }

    #[test]
    fn vertical_fusion_preserves_semantics() {
        // ⋃{ {x+1} | x ∈ ⋃{ {y*2} | y ∈ gen 4 } }
        let inner = big_union("y", gen(nat(4)), single(mul(var("y"), nat(2))));
        let e = big_union("x", inner, single(add(var("x"), nat(1))));
        let fused = VerticalFusion.apply(e.clone()).unwrap();
        // Fused form is a BigUnion whose source is gen 4.
        match &fused {
            Expr::BigUnion { src, .. } => assert_eq!(**src, gen(nat(4))),
            other => panic!("unexpected {other}"),
        }
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&fused).unwrap());
    }

    #[test]
    fn vertical_fusion_renames_on_capture() {
        // ⋃{ {(x, y)} | x ∈ ⋃{ {y} | y ∈ S } } with free outer y… here
        // the head h1 = {(x,y)} mentions y free, so fusion must rename.
        let inner = big_union("y", gen(nat(2)), single(var("y")));
        let e = big_union("x", inner, single(tuple(vec![var("x"), var("y")])));
        let fused = VerticalFusion.apply(e.clone()).unwrap();
        // The free y must still be free in the fused expression.
        assert!(aql_core::expr::free::is_free_in("y", &fused));
    }

    #[test]
    fn horizontal_fusion_merges_same_source() {
        let a = big_union("x", gen(nat(5)), single(mul(var("x"), nat(2))));
        let b = big_union("z", gen(nat(5)), single(add(var("z"), nat(1))));
        let e = union(a, b);
        let fused = HorizontalFusion.apply(e.clone()).unwrap();
        match &fused {
            Expr::BigUnion { .. } => {}
            other => panic!("expected fused loop, got {other}"),
        }
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&fused).unwrap());
        // Different sources do not fuse.
        let a = big_union("x", gen(nat(5)), single(var("x")));
        let b = big_union("x", gen(nat(6)), single(var("x")));
        assert!(HorizontalFusion.apply(union(a, b)).is_err());
    }

    #[test]
    fn filter_promotion_hoists_invariant_predicates() {
        let e = big_union(
            "x",
            gen(nat(4)),
            iff(lt(var("n"), nat(10)), single(var("x")), empty()),
        );
        let got = FilterPromotion.apply(e.clone()).unwrap();
        match &got {
            Expr::If(p, _, _) => assert_eq!(**p, lt(var("n"), nat(10))),
            other => panic!("unexpected {other}"),
        }
        // Dependent predicates stay put.
        let e = big_union(
            "x",
            gen(nat(4)),
            iff(lt(var("x"), nat(2)), single(var("x")), empty()),
        );
        assert!(FilterPromotion.apply(e.clone()).is_err());
    }

    #[test]
    fn eta_and_empty_head() {
        let e = big_union("x", gen(nat(9)), single(var("x")));
        assert_eq!(SingletonEta.apply(e.clone()).unwrap(), gen(nat(9)));
        let e = big_union("x", gen(nat(9)), empty());
        assert_eq!(EmptyHead.apply(e.clone()).unwrap(), empty());
        // {y} for a different variable does not η-contract.
        let e = big_union("x", gen(nat(9)), single(var("y")));
        assert!(SingletonEta.apply(e.clone()).is_err());
    }

    #[test]
    fn bag_monad_laws() {
        // Unit.
        let e = big_bag_union("x", bag_single(nat(3)), bag_single(mul(var("x"), nat(2))));
        assert_eq!(
            BigBagUnionLaws.apply(e.clone()).unwrap(),
            bag_single(mul(nat(3), nat(2)))
        );
        // Empty source.
        let e = big_bag_union("x", Expr::BagEmpty, bag_single(var("x")));
        assert_eq!(BigBagUnionLaws.apply(e.clone()).unwrap(), Expr::BagEmpty);
        // Union splitting preserves multiplicities.
        let src = bag_union(bag_single(nat(1)), bag_single(nat(1)));
        let e = big_bag_union("x", src, bag_union(bag_single(var("x")), bag_single(var("x"))));
        let split = BigBagUnionLaws.apply(e.clone()).unwrap();
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&split).unwrap());
        // Vertical fusion.
        let inner = big_bag_union("y", bag_single(nat(2)), bag_single(mul(var("y"), nat(3))));
        let e = big_bag_union("x", inner, bag_single(add(var("x"), nat(1))));
        let fused = BigBagUnionLaws.apply(e.clone()).unwrap();
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&fused).unwrap());
        // Unit union laws.
        assert_eq!(
            BagUnionEmpty.apply(bag_union(Expr::BagEmpty, var("b"))).unwrap(),
            var("b")
        );
    }

    #[test]
    fn bag_filter_and_eta() {
        let e = big_bag_union(
            "x",
            var("B"),
            iff(lt(var("n"), nat(5)), bag_single(var("x")), Expr::BagEmpty),
        );
        assert!(matches!(BagFilterEta.apply(e.clone()).unwrap(), Expr::If(..)));
        let e = big_bag_union("x", var("B"), bag_single(var("x")));
        assert_eq!(BagFilterEta.apply(e.clone()).unwrap(), var("B"));
        // Dependent predicate stays.
        let e = big_bag_union(
            "x",
            var("B"),
            iff(lt(var("x"), nat(5)), bag_single(var("x")), Expr::BagEmpty),
        );
        assert!(BagFilterEta.apply(e.clone()).is_err());
    }

    #[test]
    fn union_unit_laws() {
        assert_eq!(
            UnionEmpty.apply(union(empty(), var("s"))).unwrap(),
            var("s")
        );
        assert_eq!(
            UnionEmpty.apply(union(var("s"), empty())).unwrap(),
            var("s")
        );
    }
}
