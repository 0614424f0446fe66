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
use aql_core::expr::{Expr, Head};

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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        let Expr::Tab { head, idx } = e else { return None };
        let mut body: Option<Expr> = None;
        for (n, bound) in idx {
            // The pattern `i_j < e_j`. replace_capture_aware refuses to
            // rewrite under binders that shadow `i_j` or the free
            // variables of `e_j`, which is exactly the paper's side
            // condition.
            let pattern = lt(Expr::Var(n.clone()), bound.clone());
            let so_far = body.as_ref().unwrap_or(head);
            if let Some(next) = replace_capture_aware(so_far, &pattern, &Expr::Bool(true)) {
                body = Some(next);
            }
        }
        Some(Expr::Tab { head: body?.boxed(), idx: idx.clone() })
    }
}

/// Inside a loop over `gen(e)`, the test `x < e` is always true. Fires
/// for `⋃`, `Σ`, and their ranked/bag analogues.
pub struct GenBodyBound;

impl Rule for GenBodyBound {
    fn name(&self) -> &'static str {
        "gen-body-bound"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigUnion, Head::Sum, Head::BigBagUnion]
    }
    fn apply(&self, e: &Expr) -> Option<Expr> {
        // Destructure any of the loop shapes over gen(e).
        let (head, var, gen_arg) = match e {
            Expr::BigUnion { head, var, src }
            | Expr::Sum { head, var, src }
            | Expr::BigBagUnion { head, var, src } => match &**src {
                Expr::Gen(g) => (head, var, g),
                _ => return None,
            },
            _ => return None,
        };
        let pattern = lt(Expr::Var(var.clone()), (**gen_arg).clone());
        let body = replace_capture_aware(head, &pattern, &Expr::Bool(true))?;
        Some(match e {
            Expr::BigUnion { var, src, .. } => Expr::BigUnion {
                head: body.boxed(),
                var: var.clone(),
                src: src.clone(),
            },
            Expr::Sum { var, src, .. } => Expr::Sum {
                head: body.boxed(),
                var: var.clone(),
                src: src.clone(),
            },
            Expr::BigBagUnion { var, src, .. } => Expr::BigBagUnion {
                head: body.boxed(),
                var: var.clone(),
                src: src.clone(),
            },
            _ => unreachable!("matched above"),
        })
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
        let got = TabBodyBound.apply(&e).unwrap();
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
        let got = TabBodyBound.apply(&e).unwrap();
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
        assert!(TabBodyBound.apply(&e).is_none());
    }

    #[test]
    fn gen_body_bound_for_union_and_sum() {
        let e = big_union(
            "x",
            gen(var("n")),
            iff(lt(var("x"), var("n")), single(var("x")), empty()),
        );
        let got = GenBodyBound.apply(&e).unwrap();
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
        let got = GenBodyBound.apply(&e).unwrap();
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
        assert!(GenBodyBound.apply(&e).is_none());
    }
}
