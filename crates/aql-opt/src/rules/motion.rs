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

use aql_core::expr::children::{for_each_child, for_each_child_mut};
use aql_core::expr::free::fresh;
use aql_core::expr::{Expr, Head, Name};

use crate::engine::Rule;
use super::{replace_capture_aware, shadows};

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

/// One bottom-up scan of a loop head for the first (pre-order) maximal
/// subexpression worth hoisting: every subtree's size and free-variable
/// reach are computed once, on the way back up, instead of afresh at
/// every node on the way down.
struct Scan<'e> {
    min_size: usize,
    /// The first candidate in pre-order among the nodes scanned so far.
    best: Option<&'e Expr>,
}

/// A node on the path from the loop to the node being scanned, with the
/// binders it has over the child the path descends into. The names a
/// candidate must not mention are every name a path node binds — over
/// whichever child: the same conservative cut as
/// `hoist_out`, which must find what is found here. The
/// loop itself is the root, at depth 0.
struct Frame<'f> {
    node: &'f Expr,
    over: &'f [Name],
    depth: usize,
    up: Option<&'f Frame<'f>>,
}

impl<'f> Frame<'f> {
    fn path(&self) -> impl Iterator<Item = &Frame<'f>> {
        std::iter::successors(Some(self), |f| f.up)
    }
}

/// Does `e` bind `x` over any of its children?
fn binds(e: &Expr, x: &str) -> bool {
    let mut found = false;
    for_each_child(e, &mut |binders, _| found = found || binders.iter().any(|b| &**b == x));
    found
}

impl<'e> Scan<'e> {
    /// Returns `e`'s size and its *reach*: the greatest depth at which
    /// a node containing `e` can sit and still mention no forbidden
    /// name through a variable of `e`. A variable really bound on the
    /// path (over the child it descends into, at depth `b`) is free —
    /// and forbidden — in exactly the path nodes deeper than `b`; one
    /// only conservatively forbidden is so below the outermost node
    /// that binds it.
    fn scan(&mut self, e: &'e Expr, depth: usize, up: &Frame<'_>) -> (usize, usize) {
        if let Expr::Var(x) = e {
            let binder = up.path().find(|f| f.over.contains(x));
            let forbidder = binder.or_else(|| up.path().filter(|f| binds(f.node, x)).last());
            return (1, forbidder.map_or(usize::MAX, |f| f.depth));
        }
        // A candidate found before `e` was entered precedes it; one
        // found inside `e` follows it, and `e` contains it.
        let preceded = self.best.is_some();
        let (mut size, mut reach) = (1, usize::MAX);
        for_each_child(e, &mut |over, child| {
            let frame = Frame { node: e, over, depth, up: Some(up) };
            let (s, r) = self.scan(child, depth + 1, &frame);
            size += s;
            reach = reach.min(r);
        });
        if !preceded && !trivial(e) && size >= self.min_size && depth <= reach {
            self.best = Some(e);
        }
        (size, reach)
    }
}

impl HoistInvariant {
    /// Find a maximal subexpression of the head of the loop `e` whose
    /// free variables avoid the loop variables and every binder on the
    /// path to it. The whole head qualifies when fully invariant —
    /// hoisting it evaluates it once.
    fn find_candidate<'e>(&self, e: &'e Expr) -> Option<&'e Expr> {
        let mut scan = Scan { min_size: self.min_size, best: None };
        let mut first = true;
        for_each_child(e, &mut |over, head| {
            // The head comes first; the source and bounds see no loop variable.
            if std::mem::take(&mut first) {
                scan.scan(head, 1, &Frame { node: e, over, depth: 0, up: None });
            }
        });
        scan.best
    }
}

impl Rule for HoistInvariant {
    fn name(&self) -> &'static str {
        "hoist-invariant"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::BigUnion, Head::BigBagUnion, Head::Sum, Head::Tab]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        if loop_head(&mut e).is_none() {
            return Err(e);
        }
        let Some(cand) = self.find_candidate(&e).cloned() else { return Err(e) };
        let t = fresh("hoist");
        if !loop_head(&mut e).is_some_and(|head| hoist_out(head, &cand, &t)) {
            return Err(e);
        }
        Ok(Expr::Let(t, cand.boxed(), e.boxed()))
    }
}

/// Replace, in place, every occurrence of `cand` in `e` with the
/// variable `t`, with the conservative cut of
/// [`replace_capture_aware`](super::replace_capture_aware); but a
/// `let y = cand in b`, which an inner loop's hoist left, becomes
/// `b{y := t}` rather than a `let` that only renames `t`.
fn hoist_out(e: &mut Expr, cand: &Expr, t: &Name) -> bool {
    if e == cand {
        *e = Expr::Var(t.clone());
        return true;
    }
    if shadows(e, cand) {
        return false;
    }
    if let Expr::Let(y, bound, body) = e {
        if **bound == *cand {
            let (y, mut b) = (Expr::Var(y.clone()), body.take());
            hoist_out(&mut b, cand, t);
            // `t` is fresh: renaming `y` to it captures nothing.
            replace_capture_aware(&mut b, &y, &Expr::Var(t.clone()));
            *e = b;
            return true;
        }
    }
    let mut replaced = false;
    for_each_child_mut(e, &mut |_, c| replaced |= hoist_out(c, cand, t));
    replaced
}

/// The head of a loop the rule hoists out of.
fn loop_head(e: &mut Expr) -> Option<&mut Expr> {
    match e {
        Expr::BigUnion { head, .. }
        | Expr::BigBagUnion { head, .. }
        | Expr::Sum { head, .. }
        | Expr::Tab { head, .. } => Some(head),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::eval::eval_closed;
    use aql_core::expr::free::free_vars;
    use std::collections::HashSet;
    use aql_core::expr::builder::*;

    #[test]
    fn hoists_invariant_subexpression() {
        // [[ i + max(gen 100) | i < 4 ]]: max(gen 100) is invariant.
        let e = tab1("i", nat(4), add(var("i"), set_max(gen(nat(100)))));
        let got = HoistInvariant::default().apply(e.clone()).unwrap();
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
    fn hoisting_a_hoisted_term_again_leaves_no_alias() {
        // ⋃{ {[[ i + max(gen 100) | i < x ]]} | x ∈ gen 3 }: the inner
        // tabulation hoists max(gen 100) into a `let`, then the union
        // hoists it again, out of that `let`'s bound term.
        let inner = tab1("i", var("x"), add(var("i"), set_max(gen(nat(100)))));
        let e = big_union("x", gen(nat(3)), single(inner.clone()));
        let rule = HoistInvariant::default();
        let once = big_union("x", gen(nat(3)), single(rule.apply(inner).unwrap()));
        let twice = rule.apply(once).unwrap();
        let mut aliases = 0;
        twice.walk(&mut |n| aliases += usize::from(matches!(n, Expr::Let(_, b, _) if matches!(**b, Expr::Var(_)))));
        assert_eq!(aliases, 0, "{twice}");
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&twice).unwrap());
    }

    #[test]
    fn does_not_hoist_dependent_code() {
        let e = tab1("i", nat(4), set_max(gen(add(var("i"), nat(1)))));
        assert!(HoistInvariant::default().apply(e.clone()).is_err());
    }

    #[test]
    fn does_not_hoist_trivia() {
        let e = tab1("i", nat(4), add(var("i"), var("n")));
        assert!(HoistInvariant::default().apply(e.clone()).is_err());
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
        let got = HoistInvariant::default().apply(e.clone()).unwrap();
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
        let got = HoistInvariant::default().apply(e.clone()).unwrap();
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
        let got = HoistInvariant::default().apply(e.clone()).unwrap();
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

    /// Every name `e` binds, over whichever child.
    fn binders_of(e: &Expr) -> Vec<Name> {
        let mut out = Vec::new();
        for_each_child(e, &mut |binders, _| out.extend_from_slice(binders));
        out
    }

    /// The search the scan replaced: top-down, `free_vars` and `size`
    /// afresh at every node, the forbidden set rebuilt at every binder.
    fn top_down(min_size: usize, e: &Expr, forbidden: &HashSet<Name>) -> Option<Expr> {
        if !trivial(e) && e.size() >= min_size && free_vars(e).is_disjoint(forbidden) {
            return Some(e.clone());
        }
        let forbidden: HashSet<Name> = forbidden.iter().cloned().chain(binders_of(e)).collect();
        let mut found = None;
        for_each_child(e, &mut |_, c| {
            if found.is_none() {
                found = top_down(min_size, c, &forbidden);
            }
        });
        found
    }

    #[test]
    fn the_scan_finds_what_the_top_down_search_found() {
        let big = set_max(gen(nat(9)));
        let mut terms = vec![
            // A `let` binder does not reach its own right-hand side, yet
            // is forbidden there; an inner rebinding of the loop variable.
            tab1("i", nat(3), let_("x", add(var("x"), big.clone()), add(var("x"), var("i")))),
            tab1("i", nat(3), lam("i", add(var("i"), big.clone()))),
            // A tabulation's bound sits outside its index binder.
            sum("x", var("S"), tab1("j", add(var("j"), big.clone()), add(var("x"), var("j")))),
            sum("x", var("S"), tab1("x", add(var("x"), nat(1)), add(big.clone(), var("x")))),
            big_union("x", var("S"), big_union("y", single(var("x")), single(add(var("y"), big)))),
        ];
        // `subseq!(zip!(A, B), 2, 9)`, `transpose!(transpose!M)` and
        // `evenpos!(reverse!(append!(A, B)))`, as a session resolves them.
        let session = aql_lang::session::Session::new();
        let p = |name: &str, arg| app(session.resolve(&var(name)), arg);
        let (a, b) = (var("A"), var("B"));
        for e in [
            p("subseq", tuple(vec![p("zip", tuple(vec![a.clone(), b.clone()])), nat(2), nat(9)])),
            p("transpose", p("transpose", var("M"))),
            p("evenpos", p("reverse", p("append", tuple(vec![a, b])))),
        ] {
            terms.push(crate::normalizer().optimize(&e));
            terms.push(crate::normalize_and_eliminate().optimize(&e));
            terms.push(e);
        }
        let mut loops = 0;
        for term in &terms {
            term.walk(&mut |e| {
                let (head, vars): (&Expr, Vec<Name>) = match e {
                    Expr::BigUnion { head, var, .. }
                    | Expr::BigBagUnion { head, var, .. }
                    | Expr::Sum { head, var, .. } => (head, vec![var.clone()]),
                    Expr::Tab { head, idx } => (head, idx.iter().map(|(n, _)| n.clone()).collect()),
                    _ => return,
                };
                loops += 1;
                for min_size in [1, 3, 6] {
                    let scanned = HoistInvariant { min_size }.find_candidate(e).cloned();
                    let forbidden = vars.iter().cloned().collect();
                    assert_eq!(scanned, top_down(min_size, head, &forbidden), "in {e}");
                }
            });
        }
        assert!(loops > 20, "the corpus has loops to search: {loops}");
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
