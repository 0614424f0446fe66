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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::Sum { src, .. } if **src == Expr::Empty => Some(Expr::Nat(0)),
            _ => None,
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::Sum { head, var, src } => match &**src {
                Expr::Single(x) => Some(subst(head, var, x)),
                _ => None,
            },
            _ => None,
        }
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::Sum { head, var, src } => match &**head {
                Expr::If(p, t, f) if **f == Expr::Nat(0) && !is_free_in(var, p) => {
                    Some(Expr::If(
                        p.clone(),
                        Expr::Sum {
                            head: t.clone(),
                            var: var.clone(),
                            src: src.clone(),
                        }
                        .boxed(),
                        Expr::Nat(0).boxed(),
                    ))
                }
                _ => None,
            },
            _ => None,
        }
    }
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::Arith(op, a, b) => match (&**a, &**b) {
                (Expr::Nat(x), Expr::Nat(y)) => Some(match op {
                    ArithOp::Add => Expr::Nat(x.checked_add(*y)?),
                    ArithOp::Monus => Expr::Nat(x.saturating_sub(*y)),
                    ArithOp::Mul => Expr::Nat(x.checked_mul(*y)?),
                    ArithOp::Div => {
                        if *y == 0 {
                            Expr::Bottom
                        } else {
                            Expr::Nat(x / y)
                        }
                    }
                    ArithOp::Mod => {
                        if *y == 0 {
                            Expr::Bottom
                        } else {
                            Expr::Nat(x % y)
                        }
                    }
                }),
                // Unit laws (sound without evaluating the operand —
                // except that they do not discard anything).
                (Expr::Nat(0), _) if *op == ArithOp::Add => Some((**b).clone()),
                (_, Expr::Nat(0)) if matches!(op, ArithOp::Add | ArithOp::Monus) => {
                    Some((**a).clone())
                }
                (Expr::Nat(1), _) if *op == ArithOp::Mul => Some((**b).clone()),
                (_, Expr::Nat(1)) if matches!(op, ArithOp::Mul | ArithOp::Div) => {
                    Some((**a).clone())
                }
                _ => None,
            },
            Expr::Cmp(op, a, b) => {
                let ord = match (&**a, &**b) {
                    (Expr::Nat(x), Expr::Nat(y)) => x.cmp(y),
                    (Expr::Bool(x), Expr::Bool(y)) => x.cmp(y),
                    (Expr::Str(x), Expr::Str(y)) => x.cmp(y),
                    _ => return None,
                };
                Some(Expr::Bool(match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                }))
            }
            _ => None,
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
        assert_eq!(SumEmptySrc.apply(&e).unwrap(), nat(0));
        let e = sum("x", single(nat(5)), mul(var("x"), var("x")));
        assert_eq!(SumSingletonSrc.apply(&e).unwrap(), mul(nat(5), nat(5)));
    }

    #[test]
    fn sum_filter_promotion() {
        let e = sum(
            "x",
            gen(nat(4)),
            iff(gt(var("n"), nat(0)), var("x"), nat(0)),
        );
        let got = SumFilterPromotion.apply(&e).unwrap();
        assert!(matches!(got, Expr::If(..)));
        // x-dependent predicate does not promote.
        let e = sum(
            "x",
            gen(nat(4)),
            iff(gt(var("x"), nat(0)), var("x"), nat(0)),
        );
        assert!(SumFilterPromotion.apply(&e).is_none());
    }

    #[test]
    fn folding_arithmetic() {
        assert_eq!(ConstFold.apply(&add(nat(2), nat(3))).unwrap(), nat(5));
        assert_eq!(ConstFold.apply(&monus(nat(2), nat(5))).unwrap(), nat(0));
        assert_eq!(ConstFold.apply(&div(nat(7), nat(0))).unwrap(), bottom());
        assert_eq!(ConstFold.apply(&modulo(nat(9), nat(4))).unwrap(), nat(1));
        // Overflow is left for the evaluator to report.
        assert!(ConstFold.apply(&mul(nat(u64::MAX), nat(2))).is_none());
    }

    #[test]
    fn unit_laws() {
        assert_eq!(ConstFold.apply(&add(var("e"), nat(0))).unwrap(), var("e"));
        assert_eq!(ConstFold.apply(&add(nat(0), var("e"))).unwrap(), var("e"));
        assert_eq!(ConstFold.apply(&mul(var("e"), nat(1))).unwrap(), var("e"));
        assert_eq!(ConstFold.apply(&mul(nat(1), var("e"))).unwrap(), var("e"));
        assert_eq!(ConstFold.apply(&monus(var("e"), nat(0))).unwrap(), var("e"));
        assert_eq!(ConstFold.apply(&div(var("e"), nat(1))).unwrap(), var("e"));
        // e*0 is NOT folded: it would discard a possibly-erroneous e.
        assert!(ConstFold.apply(&mul(var("e"), nat(0))).is_none());
    }

    #[test]
    fn folding_comparisons() {
        assert_eq!(
            ConstFold.apply(&lt(nat(1), nat(2))).unwrap(),
            Expr::Bool(true)
        );
        assert_eq!(
            ConstFold.apply(&eq(strlit("a"), strlit("b"))).unwrap(),
            Expr::Bool(false)
        );
        assert!(ConstFold.apply(&lt(var("x"), nat(2))).is_none());
    }
}
