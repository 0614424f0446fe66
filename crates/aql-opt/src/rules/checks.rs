//! Bound-check elimination (§5).
//!
//! `β^p` introduces checks `if e3 < e2 then … else ⊥` that are
//! redundant whenever the subscript is itself a tabulation index bound
//! by the same bound, or a `gen` variable. Proposition 5.1 shows full
//! bound-check elimination is undecidable; these rules remove the
//! common redundant checks:
//!
//! ```text
//! [[ (…(i_j < e_j)…) | i1 < e1, …, ik < ek ]] ⤳ [[ (…true…) | … ]]
//! ⋃{ (…(i < e)…) | i ∈ gen(e) }               ⤳ ⋃{ (…true…) | … }
//! ```
//!
//! (and likewise for `Σ` over `gen`), with the capture side-conditions
//! the paper notes.

use aql_core::expr::builder::lt;
use aql_core::expr::{CmpOp, Expr, Head, Name};

use crate::engine::Rule;
use super::replace_capture_aware;

/// Inside a tabulation body, `i_j < e_j` is always true for each index
/// binder `i_j` with bound `e_j`.
pub struct TabBodyBound;

impl Rule for TabBodyBound {
    fn name(&self) -> &'static str {
        "tab-body-bound"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Tab]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        let Expr::Tab { head, idx } = &mut e else { return Err(e) };
        let mut fired = false;
        for (n, bound) in idx.iter() {
            // The pattern `i_j < e_j`. replace_capture_aware refuses to
            // rewrite under binders that shadow `i_j` or the free
            // variables of `e_j`, which is exactly the paper's side
            // condition.
            fired |= replace_bound_check(head, n, bound);
        }
        if fired {
            Ok(e)
        } else {
            Err(e)
        }
    }
}

/// Replace every `x < bound` in `e` by `true`, capture-awarely. The
/// pattern is built only if such a comparison occurs at all.
fn replace_bound_check(e: &mut Expr, x: &Name, bound: &Expr) -> bool {
    let mut occurs = false;
    e.walk(&mut |n| {
        occurs = occurs
            || matches!(n, Expr::Cmp(CmpOp::Lt, a, b) if **b == *bound && matches!(&**a, Expr::Var(v) if v == x));
    });
    occurs && replace_capture_aware(e, &lt(Expr::Var(x.clone()), bound.clone()), &Expr::Bool(true))
}

/// Inside a loop over `gen(e)`, the test `x < e` is always true. Fires
/// for `⋃`, `Σ`, and their bag analogue.
pub struct GenBodyBound;

impl Rule for GenBodyBound {
    fn name(&self) -> &'static str {
        "gen-body-bound"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigUnion, Head::Sum, Head::BigBagUnion]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        // Any of the loop shapes over gen(e).
        let (Expr::BigUnion { head, var, src }
        | Expr::Sum { head, var, src }
        | Expr::BigBagUnion { head, var, src }) = &mut e
        else {
            return Err(e);
        };
        let Expr::Gen(gen_arg) = &**src else { return Err(e) };
        if replace_bound_check(head, var, gen_arg) {
            Ok(e)
        } else {
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::eval::eval_closed;
    use aql_core::expr::builder::*;

    #[test]
    fn tab_body_bound_removes_redundant_check() {
        // [[ if i < n then i else ⊥ | i < n ]] ⤳ [[ if true then i else ⊥ | … ]]
        let e = tab1("i", var("n"), iff(lt(var("i"), var("n")), var("i"), bottom()));
        let got = TabBodyBound.apply(e.clone()).unwrap();
        let expect = tab1("i", var("n"), iff(Expr::Bool(true), var("i"), bottom()));
        assert_eq!(got, expect);
    }

    #[test]
    fn tab_body_bound_multi_dim() {
        let c1 = lt(var("i"), var("m"));
        let c2 = lt(var("j"), var("n"));
        let e = tab(
            vec![("i", var("m")), ("j", var("n"))],
            iff(c1, iff(c2, var("i"), bottom()), bottom()),
        );
        let got = TabBodyBound.apply(e.clone()).unwrap();
        let expect = tab(
            vec![("i", var("m")), ("j", var("n"))],
            iff(
                Expr::Bool(true),
                iff(Expr::Bool(true), var("i"), bottom()),
                bottom(),
            ),
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn tab_body_bound_non_matching_bound_untouched() {
        // i < m with a different bound than the binder's n: not redundant.
        let e = tab1("i", var("n"), iff(lt(var("i"), var("m")), var("i"), bottom()));
        assert!(TabBodyBound.apply(e.clone()).is_err());
    }

    #[test]
    fn gen_body_bound_for_union_and_sum() {
        let e = big_union(
            "x",
            gen(var("n")),
            iff(lt(var("x"), var("n")), single(var("x")), empty()),
        );
        let got = GenBodyBound.apply(e.clone()).unwrap();
        match &got {
            Expr::BigUnion { head, .. } => {
                assert_eq!(
                    **head,
                    iff(Expr::Bool(true), single(var("x")), empty())
                );
            }
            other => panic!("unexpected {other}"),
        }
        let e = sum(
            "x",
            gen(nat(5)),
            iff(lt(var("x"), nat(5)), var("x"), nat(0)),
        );
        let got = GenBodyBound.apply(e.clone()).unwrap();
        // Semantics preserved.
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&got).unwrap());
    }

    #[test]
    fn gen_body_bound_needs_gen_source() {
        let e = big_union(
            "x",
            var("S"),
            iff(lt(var("x"), var("n")), single(var("x")), empty()),
        );
        assert!(GenBodyBound.apply(e.clone()).is_err());
    }
}
