//! Summation and arithmetic rules, following the aggregate-aware
//! extension of NRC (citation 18 of the paper).
//!
//! Because `Σ` ranges over the *distinct* elements of a set, the
//! union-splitting law that is valid for `⋃` (`Σ` over `e1 ∪ e2` ≠
//! `Σ e1 + Σ e2` when the sets overlap) is **not** included — this is
//! precisely the subtlety that citation addresses. Only sound laws appear here.

use aql_core::expr::free::{is_free_in, subst};
use aql_core::expr::{ArithOp, CmpOp, Expr, Head};

use crate::engine::Rule;

/// `Σ{e | x ∈ {}} ⤳ 0`.
pub struct SumEmptySrc;

impl Rule for SumEmptySrc {
    fn name(&self) -> &'static str {
        "sum-empty-src"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Sum]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::Sum { src, .. } if *src == Expr::Empty => Ok(Expr::Nat(0)),
            e => Err(e),
        }
    }
}

/// `Σ{e1 | x ∈ {e2}} ⤳ e1{x := e2}`.
pub struct SumSingletonSrc;

impl Rule for SumSingletonSrc {
    fn name(&self) -> &'static str {
        "sum-singleton-src"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Sum]
    }
    fn substitutes(&self) -> bool { true }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        let Expr::Sum { head, var, src } = &mut e else { return Err(e) };
        let Expr::Single(x) = &mut **src else { return Err(e) };
        let mut out = head.take();
        subst(&mut out, var, x.take());
        Ok(out)
    }
}

/// `Σ{if p then e else 0 | x ∈ S} ⤳ if p then Σ{e | x ∈ S} else 0`
/// when `x` is not free in `p`.
pub struct SumFilterPromotion;

impl Rule for SumFilterPromotion {
    fn name(&self) -> &'static str {
        "sum-filter-promotion"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Sum]
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        match e {
            Expr::Sum { head, var, src } if promotable(&head, &var, &Expr::Nat(0)) => {
                let Expr::If(p, t, f) = *head else { unreachable!("matched above") };
                Ok(Expr::If(p, Expr::Sum { head: t, var, src }.boxed(), f))
            }
            e => Err(e),
        }
    }
}

/// Is `head` a filter `if p then e else zero` whose test `p` does not
/// mention the loop variable?
pub(crate) fn promotable(head: &Expr, var: &str, zero: &Expr) -> bool {
    matches!(head, Expr::If(p, _, f) if **f == *zero && !is_free_in(var, p))
}

/// Constant folding on natural literals: arithmetic (respecting monus,
/// `⊥` for zero divisors, and leaving overflow alone) and comparisons
/// at `nat`, `bool` and `string` literals. Also the additive/
/// multiplicative unit laws `e+0`, `0+e`, `e*1`, `1*e`, `e∸0`.
pub struct ConstFold;

impl Rule for ConstFold {
    fn name(&self) -> &'static str {
        "const-fold"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Arith, Head::Cmp]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        match &mut e {
            Expr::Arith(op, a, b) => {
                let folded = match (&**a, &**b) {
                    (Expr::Nat(x), Expr::Nat(y)) => match op {
                        ArithOp::Add => x.checked_add(*y).map(Expr::Nat),
                        ArithOp::Monus => Some(Expr::Nat(x.saturating_sub(*y))),
                        ArithOp::Mul => x.checked_mul(*y).map(Expr::Nat),
                        ArithOp::Div if *y == 0 => Some(Expr::Bottom),
                        ArithOp::Div => Some(Expr::Nat(x / y)),
                        ArithOp::Mod if *y == 0 => Some(Expr::Bottom),
                        ArithOp::Mod => Some(Expr::Nat(x % y)),
                    },
                    // Unit laws (sound without evaluating the operand —
                    // except that they do not discard anything).
                    (Expr::Nat(0), _) if *op == ArithOp::Add => Some(b.take()),
                    (_, Expr::Nat(0)) if matches!(op, ArithOp::Add | ArithOp::Monus) => {
                        Some(a.take())
                    }
                    (Expr::Nat(1), _) if *op == ArithOp::Mul => Some(b.take()),
                    (_, Expr::Nat(1)) if matches!(op, ArithOp::Mul | ArithOp::Div) => {
                        Some(a.take())
                    }
                    _ => None,
                };
                folded.ok_or(e)
            }
            Expr::Cmp(op, a, b) => {
                let ord = match (&**a, &**b) {
                    (Expr::Nat(x), Expr::Nat(y)) => x.cmp(y),
                    (Expr::Bool(x), Expr::Bool(y)) => x.cmp(y),
                    (Expr::Str(x), Expr::Str(y)) => x.cmp(y),
                    _ => return Err(e),
                };
                Ok(Expr::Bool(match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                }))
            }
            _ => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::expr::builder::*;

    #[test]
    fn sum_unit_laws() {
        let e = sum("x", empty(), var("x"));
        assert_eq!(SumEmptySrc.apply(e.clone()).unwrap(), nat(0));
        let e = sum("x", single(nat(5)), mul(var("x"), var("x")));
        assert_eq!(SumSingletonSrc.apply(e.clone()).unwrap(), mul(nat(5), nat(5)));
    }

    #[test]
    fn sum_filter_promotion() {
        let e = sum(
            "x",
            gen(nat(4)),
            iff(gt(var("n"), nat(0)), var("x"), nat(0)),
        );
        let got = SumFilterPromotion.apply(e.clone()).unwrap();
        assert!(matches!(got, Expr::If(..)));
        // x-dependent predicate does not promote.
        let e = sum(
            "x",
            gen(nat(4)),
            iff(gt(var("x"), nat(0)), var("x"), nat(0)),
        );
        assert!(SumFilterPromotion.apply(e.clone()).is_err());
    }

    #[test]
    fn folding_arithmetic() {
        assert_eq!(ConstFold.apply(add(nat(2), nat(3))).unwrap(), nat(5));
        assert_eq!(ConstFold.apply(monus(nat(2), nat(5))).unwrap(), nat(0));
        assert_eq!(ConstFold.apply(div(nat(7), nat(0))).unwrap(), bottom());
        assert_eq!(ConstFold.apply(modulo(nat(9), nat(4))).unwrap(), nat(1));
        // Overflow is left for the evaluator to report.
        assert!(ConstFold.apply(mul(nat(u64::MAX), nat(2))).is_err());
    }

    #[test]
    fn unit_laws() {
        assert_eq!(ConstFold.apply(add(var("e"), nat(0))).unwrap(), var("e"));
        assert_eq!(ConstFold.apply(add(nat(0), var("e"))).unwrap(), var("e"));
        assert_eq!(ConstFold.apply(mul(var("e"), nat(1))).unwrap(), var("e"));
        assert_eq!(ConstFold.apply(mul(nat(1), var("e"))).unwrap(), var("e"));
        assert_eq!(ConstFold.apply(monus(var("e"), nat(0))).unwrap(), var("e"));
        assert_eq!(ConstFold.apply(div(var("e"), nat(1))).unwrap(), var("e"));
        // e*0 is NOT folded: it would discard a possibly-erroneous e.
        assert!(ConstFold.apply(mul(var("e"), nat(0))).is_err());
    }

    #[test]
    fn folding_comparisons() {
        assert_eq!(
            ConstFold.apply(lt(nat(1), nat(2))).unwrap(),
            Expr::Bool(true)
        );
        assert_eq!(
            ConstFold.apply(eq(strlit("a"), strlit("b"))).unwrap(),
            Expr::Bool(false)
        );
        assert!(ConstFold.apply(lt(var("x"), nat(2))).is_err());
    }
}
