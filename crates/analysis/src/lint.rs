//! Shape/bounds lints over well-typed terms: the `\lint` pass.
//!
//! Every bounds fact comes from the caller's [`Analysis`] of the linted
//! tree, the one `\analyze` and the cost model read (so a `val`'s
//! extents reach the lints as they reach the verdicts): nat-value
//! intervals, array extents (constant or symbolic in `dim(A, k)`), and
//! "definitely ⊥",
//! propagated through tabulations (an index variable `i` of
//! `[[… | i < 10]]` is known to lie in `[0, 9]`), literal dimensions,
//! `let`/β-redex bindings, and arithmetic. This pass only walks the
//! tree to give each finding its path:
//!
//! * **L001** — a subscript that is *provably* out of bounds on some
//!   axis (index lower bound ≥ known constant extent): the subscript
//!   always evaluates to ⊥;
//! * **L002** — a tabulation bound or literal dimension that is
//!   constantly zero: the array can hold no elements;
//! * **L003** — a conditional whose condition is the literal `⊥` or a
//!   constant boolean: a branch (or the whole expression) is dead
//!   (purely syntactic);
//! * **L004** — a subscript proven out of bounds *symbolically* (e.g.
//!   `A[i + dim(A)]` under `i < dim(A)`), where no constant extent was
//!   available for L001;
//! * **L005** — a comprehension or sum over a provably empty source:
//!   its head is dead code.
//!
//! Everything is conservative: a fact is only as strong as the
//! constants and symbols that reach it. The lints never fire on
//! merely-possible failures — only on certainties, per the paper's
//! convention that out-of-bounds access *is* a value (⊥), not an
//! error. Output goes through [`crate::diag::normalize`], so it is
//! duplicate-free and byte-stable across runs.
//!
//! What is *wrong* with a term is not decided here: Fig. 1 has one
//! implementation, `aql_core::check` (issue 22 retired the term
//! verifier and its codes V001–V008).

use aql_core::eval::bounds::Iv;
use aql_core::expr::Expr;

use crate::analyze::{Analysis, SubVerdict};
use crate::diag::{normalize, Diagnostic};

/// Run the lint pass over a (resolved, well-typed) term. `a` is the
/// analysis of this same tree (it keys its facts by node address); run
/// it with the session bindings as globals, as for
/// [`cost::estimate`](crate::cost::estimate).
pub fn lint(e: &Expr, a: &Analysis) -> Vec<Diagnostic> {
    let mut l = Linter { diags: Vec::new(), path: Vec::new(), analysis: a };
    l.walk(e);
    normalize(l.diags)
}

struct Linter<'a> {
    diags: Vec<Diagnostic>,
    path: Vec<&'static str>,
    analysis: &'a Analysis,
}

impl Linter<'_> {
    fn warn(&mut self, code: &'static str, message: impl Into<String>) {
        self.diags.push(Diagnostic::new(code, &self.path, message));
    }

    /// L005: the abstract interpreter proved this comprehension/sum
    /// iterates an empty source, so its head is dead code.
    fn empty_source_lint(&mut self, e: &Expr) {
        if let Some(what) = self.analysis.empty_at(e) {
            self.warn(
                "L005",
                format!("{what} source is provably empty: the head is dead code"),
            );
        }
    }

    /// L002 for a tabulation bound / literal dimension `b`.
    fn zero_extent_lint(&mut self, b: &Expr, message: String) {
        if self.analysis.bound_interval(b) == Some(Iv::exact(0)) {
            self.warn("L002", message);
        }
    }

    fn child(&mut self, seg: &'static str, e: &Expr) {
        self.path.push(seg);
        self.walk(e);
        self.path.pop();
    }

    /// Visit every subterm left to right (findings keep source order),
    /// tracking the path; diagnostics are emitted on the way.
    fn walk(&mut self, e: &Expr) {
        match e {
            Expr::Var(_)
            | Expr::Global(_)
            | Expr::Ext(_)
            | Expr::Empty
            | Expr::BagEmpty
            | Expr::Bool(_)
            | Expr::Nat(_)
            | Expr::Real(_)
            | Expr::Str(_)
            | Expr::Bottom => {}
            Expr::Let(_, bound, body) => {
                self.child("let.bound", bound);
                self.child("let.body", body);
            }
            // A β-redex binds like `let` — macros expand to these.
            Expr::App(f, a) => match &**f {
                Expr::Lam(_, body) => {
                    self.child("app.arg", a);
                    self.child("app.fun", body);
                }
                _ => {
                    self.child("app.fun", f);
                    self.child("app.arg", a);
                }
            },
            Expr::Tuple(items) => {
                for it in items {
                    self.child("tuple.item", it);
                }
            }
            Expr::Proj(_, _, inner) => self.child("proj", inner),
            Expr::Arith(_, a, b) => {
                self.child("arith.lhs", a);
                self.child("arith.rhs", b);
            }
            Expr::Tab { head, idx } => {
                for (j, (_, b)) in idx.iter().enumerate() {
                    self.child("tab.bound", b);
                    self.zero_extent_lint(
                        b,
                        format!(
                            "tabulation bound {} is constantly zero: the array has no elements",
                            j + 1
                        ),
                    );
                }
                self.child("tab.head", head);
            }
            Expr::ArrayLit { dims, items } => {
                for (j, d) in dims.iter().enumerate() {
                    self.child("arraylit.dim", d);
                    self.zero_extent_lint(d, format!("array literal dimension {} is zero", j + 1));
                }
                for it in items {
                    self.child("arraylit.item", it);
                }
            }
            Expr::Sub(arr, idx) => {
                self.child("sub.array", arr);
                for i in idx {
                    self.child("sub.index", i);
                }
                let mut oob = false;
                for (j, axis) in self.analysis.sub_axes(e).iter().enumerate() {
                    if let Some((Iv { lo, .. }, extent)) = *axis {
                        if lo >= extent {
                            oob = true;
                            self.warn(
                                "L001",
                                format!(
                                    "subscript along dimension {} is provably out of bounds \
                                     (index >= {lo}, extent {extent}): the subscript always \
                                     evaluates to bottom",
                                    j + 1
                                ),
                            );
                        }
                    }
                }
                // What is left of a provably-out verdict is a symbolic
                // proof (cross-variable, `dim(·)`-relative).
                if !oob && self.analysis.verdict_of(e) == Some(SubVerdict::ProvablyOut) {
                    self.warn(
                        "L004",
                        "subscript is provably out of bounds by symbolic extent analysis: \
                         the subscript always evaluates to bottom",
                    );
                }
            }
            Expr::Dim(_, inner) => self.child("dim", inner),
            Expr::If(c, t, f) => {
                self.child("if.cond", c);
                match &**c {
                    Expr::Bottom => self.warn(
                        "L003",
                        "`if` condition is the literal bottom: both branches are dead and \
                         the expression always evaluates to bottom",
                    ),
                    Expr::Bool(b) => self.warn(
                        "L003",
                        format!(
                            "`if` condition is constantly {b}: the {} branch is dead",
                            if *b { "else" } else { "then" }
                        ),
                    ),
                    _ => {}
                }
                self.child("if.then", t);
                self.child("if.else", f);
            }
            Expr::Lam(_, body) => self.child("lam.body", body),
            Expr::BigUnion { head, src, .. }
            | Expr::BigBagUnion { head, src, .. }
            | Expr::Sum { head, src, .. }
            | Expr::BigUnionRank { head, src, .. }
            | Expr::BigBagUnionRank { head, src, .. } => {
                self.empty_source_lint(e);
                self.child("src", src);
                self.child("head", head);
            }
            Expr::Single(inner)
            | Expr::BagSingle(inner)
            | Expr::Gen(inner)
            | Expr::Index(_, inner)
            | Expr::Get(inner) => self.child("arg", inner),
            Expr::Union(a, b) | Expr::BagUnion(a, b) => {
                self.child("lhs", a);
                self.child("rhs", b);
            }
            Expr::Cmp(_, a, b) => {
                self.child("cmp.lhs", a);
                self.child("cmp.rhs", b);
            }
            Expr::Prim(_, args) => {
                for a in args {
                    self.child("prim.arg", a);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use aql_core::expr::builder::*;
    use std::collections::BTreeMap;

    fn warns(e: &Expr) -> Vec<Diagnostic> {
        lint(e, &analyze(e, &BTreeMap::new()))
    }

    #[test]
    fn provable_oob_subscript_is_l001() {
        // [[ i | i < 10 ]][12]
        let e = sub(tab1("i", nat(10), var("i")), vec![nat(12)]);
        let ds = warns(&e);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "L001");
        assert!(ds[0].render().contains("index >= 12, extent 10"), "{}", ds[0]);
        // In-bounds and unknown-bound subscripts stay quiet.
        assert!(warns(&sub(tab1("i", nat(10), var("i")), vec![nat(9)])).is_empty());
        assert!(warns(&lam(
            "n",
            sub(tab1("i", var("n"), var("i")), vec![nat(12)])
        ))
        .is_empty());
    }

    #[test]
    fn literal_dims_feed_the_bounds_check() {
        // [[1, 2]][5]
        let e = sub(array1_lit(vec![nat(1), nat(2)]), vec![nat(5)]);
        let ds = warns(&e);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "L001");
        // Multi-dimensional: [[2,2; …]][0, 7] flags axis 2 only.
        let m = array_lit(vec![nat(2), nat(2)], vec![nat(1), nat(2), nat(3), nat(4)]);
        let ds = warns(&sub(m, vec![nat(0), nat(7)]));
        assert_eq!(ds.len(), 1);
        assert!(ds[0].render().contains("dimension 2"), "{}", ds[0]);
    }

    #[test]
    fn index_ranges_flow_through_arithmetic() {
        // [[ a[i + 5] | i < 10 ]] over a 12-array: max index 14 but the
        // *lower* bound is 5 < 12, so no certainty, no warning.
        let a = || array1_lit((0..12).map(nat).collect());
        let e = tab1("i", nat(10), sub(a(), vec![add(var("i"), nat(5))]));
        assert!(warns(&e).is_empty());
        // [[ a[i + 12] | i < 10 ]]: lower bound 12 ≥ 12 — certain ⊥.
        let e = tab1("i", nat(10), sub(a(), vec![add(var("i"), nat(12))]));
        let ds = warns(&e);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "L001");
        assert_eq!(ds[0].path, "tab.head");
    }

    #[test]
    fn zero_extents_are_l002() {
        let ds = warns(&tab1("i", nat(0), var("i")));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "L002");
        let ds = warns(&array_lit(vec![nat(0)], vec![]));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "L002");
        // A dynamic bound is not provably zero.
        assert!(warns(&lam("n", tab1("i", var("n"), var("i")))).is_empty());
    }

    #[test]
    fn dead_branches_are_l003() {
        let ds = warns(&iff(bottom(), nat(1), nat(2)));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "L003");
        assert!(ds[0].render().contains("both branches are dead"), "{}", ds[0]);
        let ds = warns(&iff(Expr::Bool(true), nat(1), nat(2)));
        assert_eq!(ds.len(), 1);
        assert!(ds[0].render().contains("else branch is dead"), "{}", ds[0]);
        assert!(warns(&iff(eq(var("x"), nat(1)), nat(1), nat(2))).is_empty());
    }

    #[test]
    fn facts_flow_through_let_and_beta() {
        // let n = 3 in [[ i | i < 10 ]][n * 4] — 12 ≥ 10.
        let e = let_(
            "n",
            nat(3),
            sub(tab1("i", nat(10), var("i")), vec![mul(var("n"), nat(4))]),
        );
        let ds = warns(&e);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "L001");
        // (λj. A[j]) 99 over a 2-array.
        let e = app(
            lam("j", sub(array1_lit(vec![nat(1), nat(2)]), vec![var("j")])),
            nat(99),
        );
        let ds = warns(&e);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "L001");
    }

    #[test]
    fn live_branches_bottoms_and_tuple_indices_feed_l001() {
        let a = || array1_lit(vec![nat(1), nat(2), nat(3)]);
        // A literal condition selects the live branch: index 5 of 3.
        let e = sub(a(), vec![iff(Expr::Bool(true), nat(5), nat(0))]);
        let ds = warns(&e);
        assert!(ds.iter().any(|d| d.code == "L001" && d.path.is_empty()), "{ds:?}");
        // …and an unknown one joins both: [0, 5] proves nothing.
        assert!(warns(&lam("c", sub(a(), vec![iff(var("c"), nat(5), nat(0))]))).is_empty());
        // A provably-out subscript is ⊥, which a join ignores: the
        // outer index is 7 whenever it is anything.
        let e = lam("c", sub(a(), vec![iff(var("c"), sub(a(), vec![nat(9)]), nat(7))]));
        let ds = warns(&e);
        assert_eq!(ds.len(), 2, "{ds:?}");
        assert!(ds.iter().all(|d| d.code == "L001"), "{ds:?}");
        // A single tuple index addresses each axis.
        let m = || array_lit(vec![nat(2), nat(2)], vec![nat(1), nat(2), nat(3), nat(4)]);
        let ds = warns(&sub(m(), vec![tuple(vec![nat(0), nat(7)])]));
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert!(ds[0].render().contains("dimension 2"), "{}", ds[0]);
        assert!(warns(&sub(m(), vec![tuple(vec![nat(0), nat(1)])])).is_empty());
    }

    #[test]
    fn dim_of_known_array_is_constant() {
        // [[ x | x < len(A) ]][2] over a 2-array: bound = 2, index 2 ≥ 2.
        let a = array1_lit(vec![nat(7), nat(8)]);
        let e = sub(tab1("x", len(a), var("x")), vec![nat(2)]);
        let ds = warns(&e);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "L001");
    }

    #[test]
    fn symbolic_oob_is_l004() {
        // [[ A[i + dim(A)] | i < dim(A) ]] — no constant extent anywhere,
        // so L001 is blind; the symbolic domain proves index ≥ dim(A,0).
        let e = tab1(
            "i",
            dim(1, global("A")),
            sub(global("A"), vec![add(var("i"), dim(1, global("A")))]),
        );
        let ds = warns(&e);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "L004");
        assert_eq!(ds[0].path, "tab.head");
        // The in-bounds twin stays quiet.
        let ok = tab1("i", dim(1, global("A")), sub(global("A"), vec![var("i")]));
        assert!(warns(&ok).is_empty());
        // When a constant extent made L001 fire, L004 stays suppressed
        // even though the symbolic domain also proves it.
        let both = sub(tab1("i", nat(10), var("i")), vec![nat(12)]);
        let ds = warns(&both);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "L001");
    }

    #[test]
    fn empty_comprehension_sources_are_l005() {
        // ⋃{ {x} | x ∈ gen(0) }
        let e = big_union("x", gen(nat(0)), single(var("x")));
        let ds = warns(&e);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "L005");
        assert!(ds[0].render().contains("set comprehension"), "{}", ds[0]);
        // Σ{ x | x ∈ gen(0) }
        let e = sum("x", gen(nat(0)), var("x"));
        let ds = warns(&e);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, "L005");
        assert!(ds[0].render().contains("sum"), "{}", ds[0]);
        // A non-empty source stays quiet.
        assert!(warns(&sum("x", gen(nat(3)), var("x"))).is_empty());
    }

    #[test]
    fn diagnostics_are_ordered_and_deduped() {
        // Two identical zero-bound tabulations inside one tuple produce
        // identical (code, path, message) findings — collapsed to one —
        // and repeated runs yield byte-identical renderings.
        let mk = || {
            tuple(vec![
                tab1("i", nat(0), var("i")),
                tab1("i", nat(0), var("i")),
                sub(tab1("j", nat(5), var("j")), vec![nat(9)]),
            ])
        };
        let first = warns(&mk());
        assert_eq!(first.len(), 2, "{first:?}");
        assert_eq!(first[0].code, "L002");
        assert_eq!(first[1].code, "L001");
        let golden: Vec<String> = first.iter().map(|d| d.render()).collect();
        for _ in 0..3 {
            let again: Vec<String> = warns(&mk()).iter().map(|d| d.render()).collect();
            assert_eq!(again, golden, "lint output must be byte-stable");
        }
    }
}
