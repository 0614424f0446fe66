//! Verification of the compiled de-Bruijn form.
//!
//! `aql_core::eval::compile` turns names into positional indices; a
//! bug there (or a hand-built [`CExpr`]) can reference a binder that
//! does not exist, which the evaluator would only discover at run
//! time, deep inside a query. This pass re-walks the compiled term
//! with a static binder-depth count and flags every index that
//! escapes, plus the same constructor-shape violations the named-form
//! verifier checks (projection bounds, primitive arity, empty ranks).

use aql_core::eval::CExpr;

use crate::diag::{Diagnostic, Severity};

/// Verify a compiled term that sits under `depth` enclosing binders
/// (`0` for a closed program).
pub fn verify_compiled(c: &CExpr, depth: usize) -> Vec<Diagnostic> {
    let mut w = Walker { diags: Vec::new(), path: Vec::new() };
    w.walk(c, depth);
    crate::diag::normalize(w.diags)
}

struct Walker {
    diags: Vec<Diagnostic>,
    path: Vec<&'static str>,
}

impl Walker {
    fn report(&mut self, code: &'static str, message: String) {
        self.diags.push(Diagnostic::new(code, Severity::Error, &self.path, message));
    }

    fn child(&mut self, seg: &'static str, c: &CExpr, depth: usize) {
        self.path.push(seg);
        self.walk(c, depth);
        self.path.pop();
    }

    fn walk(&mut self, c: &CExpr, depth: usize) {
        match c {
            CExpr::Var(i) => {
                if *i >= depth {
                    self.report(
                        "V010",
                        format!("de-Bruijn index {i} out of range (depth {depth})"),
                    );
                }
            }
            CExpr::Global(_)
            | CExpr::Ext(_)
            | CExpr::Empty
            | CExpr::BagEmpty
            | CExpr::Bool(_)
            | CExpr::Nat(_)
            | CExpr::Real(_)
            | CExpr::Str(_)
            | CExpr::Bottom => {}
            CExpr::Lam(b) => self.child("lam.body", b, depth + 1),
            CExpr::App(f, a) => {
                self.child("app.fun", f, depth);
                self.child("app.arg", a, depth);
            }
            CExpr::Let(bound, body) => {
                self.child("let.bound", bound, depth);
                self.child("let.body", body, depth + 1);
            }
            CExpr::Tuple(items) => {
                if items.len() < 2 {
                    self.report("V008", format!("tuple of arity {}", items.len()));
                }
                for it in items {
                    self.child("tuple.item", it, depth);
                }
            }
            CExpr::Proj(i, k, inner) => {
                if *k < 2 || *i < 1 || i > k {
                    self.report("V003", format!("malformed projection pi_{i}_{k}"));
                }
                self.child("proj", inner, depth);
            }
            CExpr::Single(e) => self.child("single", e, depth),
            CExpr::Union(a, b) => {
                self.child("union.lhs", a, depth);
                self.child("union.rhs", b, depth);
            }
            CExpr::BigUnion { head, src } | CExpr::BigBagUnion { head, src } => {
                self.child("bigunion.src", src, depth);
                self.child("bigunion.head", head, depth + 1);
            }
            CExpr::BigUnionRank { head, src } | CExpr::BigBagUnionRank { head, src } => {
                self.child("bigunion.src", src, depth);
                self.child("bigunion.head", head, depth + 2);
            }
            CExpr::BagSingle(e) => self.child("bagsingle", e, depth),
            CExpr::BagUnion(a, b) => {
                self.child("bagunion.lhs", a, depth);
                self.child("bagunion.rhs", b, depth);
            }
            CExpr::If(c2, t, f) => {
                self.child("if.cond", c2, depth);
                self.child("if.then", t, depth);
                self.child("if.else", f, depth);
            }
            CExpr::Cmp(_, a, b) => {
                self.child("cmp.lhs", a, depth);
                self.child("cmp.rhs", b, depth);
            }
            CExpr::Arith(_, a, b) => {
                self.child("arith.lhs", a, depth);
                self.child("arith.rhs", b, depth);
            }
            CExpr::Gen(e) => self.child("gen", e, depth),
            CExpr::Sum { head, src } => {
                self.child("sum.src", src, depth);
                self.child("sum.head", head, depth + 1);
            }
            CExpr::Tab { head, bounds } => {
                if bounds.is_empty() {
                    self.report("V004", "tabulation with no index bounds (rank 0)".into());
                }
                // Bounds evaluate outside the index binders; the head
                // sees one binder per bound (last index = 0).
                for b in bounds {
                    self.child("tab.bound", b, depth);
                }
                self.child("tab.head", head, depth + bounds.len());
            }
            CExpr::Sub(arr, idx, _elide) => {
                if idx.is_empty() {
                    self.report("V004", "subscript with no indices".into());
                }
                self.child("sub.array", arr, depth);
                for i in idx {
                    self.child("sub.index", i, depth);
                }
            }
            CExpr::Dim(k, e) => {
                if *k == 0 {
                    self.report("V004", "dim_0 (arrays have rank >= 1)".into());
                }
                self.child("dim", e, depth);
            }
            CExpr::ArrayLit { dims, items } => {
                if dims.is_empty() {
                    self.report("V004", "array literal with no dimensions (rank 0)".into());
                }
                for d in dims {
                    self.child("arraylit.dim", d, depth);
                }
                for it in items {
                    self.child("arraylit.item", it, depth);
                }
            }
            CExpr::Index(k, e) => {
                if *k == 0 {
                    self.report("V004", "index_0 (arrays have rank >= 1)".into());
                }
                self.child("index", e, depth);
            }
            CExpr::Get(e) => self.child("get", e, depth),
            // The plan was derived from `fallback`; the term is what
            // there is to verify.
            CExpr::Kernel { fallback, .. } => self.walk(fallback, depth),
            CExpr::Prim(p, args) => {
                if args.len() != p.arity() {
                    self.report(
                        "V007",
                        format!(
                            "primitive `{}` expects {} argument(s), got {}",
                            p.name(),
                            p.arity(),
                            args.len()
                        ),
                    );
                }
                for a in args {
                    self.child("prim.arg", a, depth);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::eval::compile;
    use aql_core::expr::builder::*;
    use std::rc::Rc;

    #[test]
    fn compiled_programs_are_clean() {
        let e = lam("x", lam("y", add(var("x"), var("y"))));
        let c = compile(&e).unwrap();
        assert!(verify_compiled(&c, 0).is_empty());
        let e = tab(
            vec![("i", nat(3)), ("j", nat(4))],
            add(var("i"), var("j")),
        );
        let c = compile(&e).unwrap();
        assert!(verify_compiled(&c, 0).is_empty());
    }

    #[test]
    fn escaped_indices_are_v010() {
        // λ. #1 — references a binder that does not exist.
        let c = CExpr::Lam(Rc::new(CExpr::Var(1)));
        let ds = verify_compiled(&c, 0);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, "V010");
        assert_eq!(ds[0].path, "lam.body");
        // The same term under one outer binder is fine.
        assert!(verify_compiled(&c, 1).is_empty());
    }

    #[test]
    fn tab_binder_arithmetic() {
        // Bounds must not see the index binders; the head sees all.
        let ok = CExpr::Tab {
            head: Rc::new(CExpr::Var(1)),
            bounds: vec![CExpr::Nat(2), CExpr::Nat(3)],
        };
        assert!(verify_compiled(&ok, 0).is_empty());
        let bad = CExpr::Tab {
            head: Rc::new(CExpr::Var(2)),
            bounds: vec![CExpr::Var(0), CExpr::Nat(3)],
        };
        let ds = verify_compiled(&bad, 0);
        assert_eq!(ds.len(), 2, "{ds:?}");
        assert!(ds.iter().all(|d| d.code == "V010"));
    }

    #[test]
    fn malformed_constructors_are_flagged() {
        let ds = verify_compiled(
            &CExpr::Proj(0, 1, Rc::new(CExpr::Nat(0))),
            0,
        );
        assert!(ds.iter().any(|d| d.code == "V003"), "{ds:?}");
        let ds = verify_compiled(&CExpr::Tuple(vec![CExpr::Nat(0)]), 0);
        assert!(ds.iter().any(|d| d.code == "V008"), "{ds:?}");
        let ds = verify_compiled(
            &CExpr::Tab { head: Rc::new(CExpr::Nat(0)), bounds: vec![] },
            0,
        );
        assert!(ds.iter().any(|d| d.code == "V004"), "{ds:?}");
    }
}
