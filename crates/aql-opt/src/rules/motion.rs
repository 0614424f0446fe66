//! Loop-invariant code motion — one of the paper's "later phases".
//!
//! Normalization inlines β-redexes and `let`s fully, which can leave
//! the same expensive subexpression evaluated on every loop iteration.
//! This phase runs *last* and hoists maximal loop-invariant
//! subexpressions of loop bodies into `let` bindings outside the loop:
//!
//! ```text
//! ⋃{ …E… | x ∈ S }   ⤳   let t = E in ⋃{ …t… | x ∈ S }
//! ```
//!
//! when `E` does not mention `x` (nor any variable bound inside the
//! body around the occurrence) and is big enough to be worth naming.
//! Like `δ^p`, hoisting assumes error-free loop-invariant code (a `⊥`
//! that was previously evaluated zero times may now be evaluated once).

use std::collections::HashSet;

use aql_core::expr::children::for_each_child;
use aql_core::expr::free::{free_vars, fresh};
use aql_core::expr::{Expr, Name};

use crate::engine::Rule;
use super::{binders_of, replace_capture_aware};

/// Hoist loop-invariant subexpressions out of `⋃`/`Σ`/tabulation
/// bodies.
pub struct HoistInvariant {
    /// Minimum AST size of a subexpression worth hoisting.
    pub min_size: usize,
}

impl Default for HoistInvariant {
    fn default() -> Self {
        HoistInvariant { min_size: 3 }
    }
}

/// Expression kinds that are never worth naming.
fn trivial(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Var(_)
            | Expr::Global(_)
            | Expr::Ext(_)
            | Expr::Nat(_)
            | Expr::Real(_)
            | Expr::Str(_)
            | Expr::Bool(_)
            | Expr::Empty
            | Expr::BagEmpty
            | Expr::Bottom
    )
}

impl HoistInvariant {
    /// Find a maximal subexpression of `e` whose free variables avoid
    /// `forbidden` (the loop variables plus any binder on the path).
    fn find_candidate(&self, e: &Expr, forbidden: &HashSet<Name>) -> Option<Expr> {
        if !trivial(e) && e.size() >= self.min_size {
            let fv = free_vars(e);
            if fv.is_disjoint(forbidden) {
                return Some(e.clone());
            }
        }
        // Descend, extending the forbidden set with this node's binders
        // (for every child: the same conservative cut as
        // `replace_capture_aware`, which must find what is found here).
        let inner_binders = binders_of(e);
        let mut found = None;
        let extended: HashSet<Name>;
        let forb: &HashSet<Name> = if inner_binders.is_empty() {
            forbidden
        } else {
            extended = forbidden
                .iter()
                .cloned()
                .chain(inner_binders)
                .collect();
            &extended
        };
        for_each_child(e, &mut |_, c| {
            if found.is_none() {
                found = self.find_candidate(c, forb);
            }
        });
        found
    }

    fn hoist(&self, head: &Expr, loop_vars: &[Name], rebuild: impl FnOnce(Expr) -> Expr) -> Option<Expr> {
        let forbidden: HashSet<Name> = loop_vars.iter().cloned().collect();
        // Only search *inside* the head: hoisting the entire head would
        // still be sound, but candidates must avoid the loop variables
        // anyway, so the whole head qualifies only when fully invariant
        // — in which case hoisting it evaluates it once. Allow it.
        let cand = self.find_candidate(head, &forbidden)?;
        let t = fresh("hoist");
        let (new_head, n) = replace_capture_aware(head, &cand, &Expr::Var(t.clone()));
        debug_assert!(n >= 1);
        Some(Expr::Let(t, cand.boxed(), rebuild(new_head).boxed()))
    }
}

impl Rule for HoistInvariant {
    fn name(&self) -> &'static str {
        "hoist-invariant"
    }
    fn apply(&self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::BigUnion { head, var, src } => {
                let (var2, src2) = (var.clone(), src.clone());
                self.hoist(head, std::slice::from_ref(var), move |h| Expr::BigUnion {
                    head: h.boxed(),
                    var: var2,
                    src: src2,
                })
            }
            Expr::BigBagUnion { head, var, src } => {
                let (var2, src2) = (var.clone(), src.clone());
                self.hoist(head, std::slice::from_ref(var), move |h| Expr::BigBagUnion {
                    head: h.boxed(),
                    var: var2,
                    src: src2,
                })
            }
            Expr::Sum { head, var, src } => {
                let (var2, src2) = (var.clone(), src.clone());
                self.hoist(head, std::slice::from_ref(var), move |h| Expr::Sum {
                    head: h.boxed(),
                    var: var2,
                    src: src2,
                })
            }
            Expr::Tab { head, idx } => {
                let vars: Vec<Name> = idx.iter().map(|(n, _)| n.clone()).collect();
                let idx2 = idx.clone();
                self.hoist(head, &vars, move |h| Expr::Tab { head: h.boxed(), idx: idx2 })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::eval::eval_closed;
    use aql_core::expr::builder::*;

    #[test]
    fn hoists_invariant_subexpression() {
        // [[ i + max(gen 100) | i < 4 ]]: max(gen 100) is invariant.
        let e = tab1("i", nat(4), add(var("i"), set_max(gen(nat(100)))));
        let got = HoistInvariant::default().apply(&e).unwrap();
        match &got {
            Expr::Let(_, bound, body) => {
                assert_eq!(**bound, set_max(gen(nat(100))));
                assert!(matches!(**body, Expr::Tab { .. }));
            }
            other => panic!("expected let, got {other}"),
        }
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&got).unwrap());
    }

    #[test]
    fn does_not_hoist_dependent_code() {
        let e = tab1("i", nat(4), set_max(gen(add(var("i"), nat(1)))));
        assert!(HoistInvariant::default().apply(&e).is_none());
    }

    #[test]
    fn does_not_hoist_trivia() {
        let e = tab1("i", nat(4), add(var("i"), var("n")));
        assert!(HoistInvariant::default().apply(&e).is_none());
    }

    #[test]
    fn respects_inner_binders() {
        // Σ{ x*x | x ∈ S } inside the loop over i mentions only x —
        // but S is a free variable, so the whole sum is invariant and
        // hoistable. Conversely an inner expression using an inner
        // binder must not be hoisted by itself.
        let e = tab1(
            "i",
            nat(3),
            add(var("i"), sum("x", var("S"), mul(var("x"), var("x")))),
        );
        let got = HoistInvariant::default().apply(&e).unwrap();
        match &got {
            Expr::Let(_, bound, _) => {
                assert!(matches!(**bound, Expr::Sum { .. }));
            }
            other => panic!("expected let, got {other}"),
        }
    }

    #[test]
    fn replaces_all_occurrences() {
        // Two separated occurrences of the same invariant expression:
        // both are replaced by one let binding.
        let inv = set_max(gen(nat(50)));
        let e = sum(
            "x",
            gen(nat(3)),
            add(mul(var("x"), inv.clone()), add(inv.clone(), nat(1))),
        );
        let got = HoistInvariant::default().apply(&e).unwrap();
        let mut count = 0;
        got.walk(&mut |n| {
            if *n == inv {
                count += 1;
            }
        });
        assert_eq!(count, 1, "only the let-bound copy remains");
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&got).unwrap());
    }

    #[test]
    fn fully_invariant_head_hoists_whole_head() {
        let inv = set_max(gen(nat(50)));
        let e = sum("x", gen(nat(3)), add(inv.clone(), inv.clone()));
        let got = HoistInvariant::default().apply(&e).unwrap();
        match &got {
            Expr::Let(_, bound, body) => {
                assert_eq!(**bound, add(inv.clone(), inv.clone()));
                match &**body {
                    Expr::Sum { head, .. } => assert!(matches!(&**head, Expr::Var(_))),
                    other => panic!("expected sum, got {other}"),
                }
            }
            other => panic!("expected let, got {other}"),
        }
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&got).unwrap());
    }

    #[test]
    fn fixpoint_terminates() {
        // Run the motion phase (not just the single rule) on a nested
        // loop and ensure it terminates with preserved semantics.
        let e = tab1(
            "i",
            nat(3),
            add(
                add(var("i"), set_max(gen(nat(10)))),
                set_min(gen(nat(20))),
            ),
        );
        let opt = crate::rules::motion_phase()
            .run(&e, &crate::Gate::off(), None)
            .expect("no rule panics");
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&opt).unwrap());
    }
}
