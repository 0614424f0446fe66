//! Compilation of the named AST to a nameless (de-Bruijn) form.
//!
//! This is the "code generator" step of the paper's query pipeline:
//! after optimization, names are resolved once so that evaluation does
//! no string lookups. Free variables that are not lexically bound
//! compile to [`CExpr::Global`] references, resolved against the
//! session's `val` registry at evaluation time.

use std::rc::Rc;

use super::bounds::Iv;
use super::kernel::{self, KernelPlan};
use crate::error::EvalError;
use crate::expr::{ArithOp, CmpOp, Expr, Name, Prim};

/// A compiled NRCA expression. Structure mirrors [`Expr`] with binders
/// made positional: `Var(0)` is the innermost binding.
#[allow(missing_docs)] // variant fields are described on the variants
#[derive(Debug, Clone)]
pub enum CExpr {
    /// de-Bruijn variable reference.
    Var(usize),
    /// Session `val` reference, resolved at evaluation time.
    Global(Name),
    /// External primitive reference.
    Ext(Name),
    /// λ body (one binder).
    Lam(Rc<CExpr>),
    /// Application.
    App(Rc<CExpr>, Rc<CExpr>),
    /// `let` (one binder in the second component).
    Let(Rc<CExpr>, Rc<CExpr>),
    /// Tuple formation.
    Tuple(Vec<CExpr>),
    /// Projection.
    Proj(usize, usize, Rc<CExpr>),
    /// `{}`
    Empty,
    /// `{e}`
    Single(Rc<CExpr>),
    /// `∪`
    Union(Rc<CExpr>, Rc<CExpr>),
    /// Big union; `head` has one extra binder (the element).
    BigUnion { head: Rc<CExpr>, src: Rc<CExpr> },
    /// Ranked big union; `head` has two extra binders
    /// (element at index 1, rank at index 0).
    BigUnionRank { head: Rc<CExpr>, src: Rc<CExpr> },
    /// `{||}`
    BagEmpty,
    /// `{|e|}`
    BagSingle(Rc<CExpr>),
    /// `⊎`
    BagUnion(Rc<CExpr>, Rc<CExpr>),
    /// Big bag union (one extra binder).
    BigBagUnion { head: Rc<CExpr>, src: Rc<CExpr> },
    /// Ranked big bag union (two extra binders).
    BigBagUnionRank { head: Rc<CExpr>, src: Rc<CExpr> },
    /// Boolean literal.
    Bool(bool),
    /// Conditional.
    If(Rc<CExpr>, Rc<CExpr>, Rc<CExpr>),
    /// Comparison.
    Cmp(CmpOp, Rc<CExpr>, Rc<CExpr>),
    /// Natural literal.
    Nat(u64),
    /// Real literal.
    Real(f64),
    /// String literal.
    Str(Rc<str>),
    /// Arithmetic.
    Arith(ArithOp, Rc<CExpr>, Rc<CExpr>),
    /// `gen`
    Gen(Rc<CExpr>),
    /// Summation (one extra binder in `head`).
    Sum { head: Rc<CExpr>, src: Rc<CExpr> },
    /// Tabulation: `head` has `bounds.len()` extra binders; the *last*
    /// index variable is de-Bruijn 0.
    Tab { head: Rc<CExpr>, bounds: Vec<CExpr> },
    /// Subscript. The last component is the bounds-check elision mark,
    /// fixed by [`compile_marked`]: `Some` when the caller's analysis
    /// proved every index in range (the evaluator then skips the
    /// per-axis compares and keeps only the arity check and a debug
    /// assertion), carrying the index interval it proved per axis.
    Sub(Rc<CExpr>, Vec<CExpr>, Option<Vec<Iv>>),
    /// `dim_k`
    Dim(usize, Rc<CExpr>),
    /// Row-major array literal.
    ArrayLit { dims: Vec<CExpr>, items: Vec<CExpr> },
    /// `index_k`
    Index(usize, Rc<CExpr>),
    /// `get`
    Get(Rc<CExpr>),
    /// `⊥`
    Bottom,
    /// Built-in primitive application.
    Prim(Prim, Vec<CExpr>),
    /// A loop nest — `fallback`, a [`CExpr::Tab`], [`CExpr::Sum`] or
    /// `min!`/`max!` [`CExpr::Prim`] — that [`compile_marked`] also
    /// planned as a bulk kernel. Evaluates to what `fallback` does,
    /// charging what `fallback` would.
    Kernel { plan: Rc<KernelPlan>, fallback: Rc<CExpr> },
}

/// Compile a named expression. Never fails for well-typed input; the
/// `Result` accommodates internal invariant violations surfaced as
/// [`EvalError::Internal`] — a malformed constructor (a buggy
/// optimizer rule or a hand-built term that bypassed the typechecker)
/// is reported with its constructor name instead of aborting the
/// process deep inside evaluation.
pub fn compile(e: &Expr) -> Result<CExpr, EvalError> {
    compile_marked(e, &|_| None)
}

/// [`compile`] with bounds-check elision marks. `in_bounds` is asked
/// once per [`Expr::Sub`] node of `e` — the node itself is passed, so
/// an analysis that keys its verdicts by node address can answer as
/// long as it ran over this very tree. Answering `Some` promises that
/// whenever the site is reached with non-`⊥` indices, each is a natural
/// strictly below the array's extent on its axis, *provided* the
/// subscript's arity is the array's rank (which the evaluator still
/// checks). A single tuple-typed index must never be marked. The
/// answer carries, per axis, an interval containing every index the
/// site is reached with ([`Iv::TOP`] where the proof gave none).
///
/// A tabulation, `Σ` or `min!`/`max!` nest that subscripts something
/// and whose every subscript is marked is compiled to a
/// [`CExpr::Kernel`] when the bulk-kernel planner recognises it —
/// so marking nothing also means running no kernel.
pub fn compile_marked(
    e: &Expr,
    in_bounds: &dyn Fn(&Expr) -> Option<Vec<Iv>>,
) -> Result<CExpr, EvalError> {
    Compiler { scope: Vec::new(), in_bounds, marked: 0 }.go(e)
}

struct Compiler<'a> {
    scope: Vec<Name>,
    in_bounds: &'a dyn Fn(&Expr) -> Option<Vec<Iv>>,
    /// Sites marked so far: a nest is worth planning as a kernel only
    /// if this moved while its children were compiled.
    marked: usize,
}

fn rc(e: CExpr) -> Rc<CExpr> {
    Rc::new(e)
}

/// A malformed-constructor report, naming the offending constructor.
fn malformed(constructor: &str, detail: String) -> EvalError {
    EvalError::Internal(format!("malformed `{constructor}` reached compile: {detail}"))
}

impl Compiler<'_> {
    fn go(&mut self, e: &Expr) -> Result<CExpr, EvalError> {
        // Shape invariants the typechecker enforces on the way in (and,
        // as the rewrite gate, on every rule's output); re-checked here
        // because compile is also reachable with terms built
        // programmatically or rewritten by extension rules, ungated.
        match e {
            Expr::Tuple(items) if items.len() < 2 => {
                return Err(malformed("Tuple", format!("arity {} < 2", items.len())));
            }
            Expr::Proj(i, k, _) if *k < 2 || *i < 1 || i > k => {
                return Err(malformed("Proj", format!("pi_{i}_{k}")));
            }
            Expr::Tab { idx, .. } if idx.is_empty() => {
                return Err(malformed("Tab", "no index binders (rank 0)".into()));
            }
            Expr::Sub(_, idx) if idx.is_empty() => {
                return Err(malformed("Sub", "no subscript indices".into()));
            }
            Expr::Dim(0, _) => {
                return Err(malformed("Dim", "rank 0 (arrays have rank >= 1)".into()));
            }
            Expr::ArrayLit { dims, .. } if dims.is_empty() => {
                return Err(malformed("ArrayLit", "no dimensions (rank 0)".into()));
            }
            Expr::Index(0, _) => {
                return Err(malformed("Index", "rank 0 (arrays have rank >= 1)".into()));
            }
            Expr::Prim(p, args) if args.len() != p.arity() => {
                return Err(malformed(
                    "Prim",
                    format!("`{}` expects {} argument(s), got {}", p.name(), p.arity(), args.len()),
                ));
            }
            _ => {}
        }
        Ok(match e {
            Expr::Var(x) => match self.scope.iter().rposition(|n| n == x) {
                Some(pos) => CExpr::Var(self.scope.len() - 1 - pos),
                // Free names fall through to the session's `val` registry.
                None => CExpr::Global(x.clone()),
            },
            Expr::Global(x) => CExpr::Global(x.clone()),
            Expr::Ext(x) => CExpr::Ext(x.clone()),
            Expr::Lam(x, body) => {
                self.scope.push(x.clone());
                let b = self.go(body)?;
                self.scope.pop();
                CExpr::Lam(rc(b))
            }
            Expr::App(f, a) => CExpr::App(rc(self.go(f)?), rc(self.go(a)?)),
            Expr::Let(x, bound, body) => {
                let b = self.go(bound)?;
                self.scope.push(x.clone());
                let body = self.go(body)?;
                self.scope.pop();
                CExpr::Let(rc(b), rc(body))
            }
            Expr::Tuple(items) => CExpr::Tuple(
                items.iter().map(|i| self.go(i)).collect::<Result<_, _>>()?,
            ),
            Expr::Proj(i, k, e) => CExpr::Proj(*i, *k, rc(self.go(e)?)),
            Expr::Empty => CExpr::Empty,
            Expr::Single(e) => CExpr::Single(rc(self.go(e)?)),
            Expr::Union(a, b) => {
                CExpr::Union(rc(self.go(a)?), rc(self.go(b)?))
            }
            Expr::BigUnion { head, var, src } => {
                let s = self.go(src)?;
                self.scope.push(var.clone());
                let h = self.go(head)?;
                self.scope.pop();
                CExpr::BigUnion { head: rc(h), src: rc(s) }
            }
            Expr::BigUnionRank { head, var, rank, src } => {
                let s = self.go(src)?;
                self.scope.push(var.clone());
                self.scope.push(rank.clone());
                let h = self.go(head)?;
                self.scope.pop();
                self.scope.pop();
                CExpr::BigUnionRank { head: rc(h), src: rc(s) }
            }
            Expr::BagEmpty => CExpr::BagEmpty,
            Expr::BagSingle(e) => CExpr::BagSingle(rc(self.go(e)?)),
            Expr::BagUnion(a, b) => {
                CExpr::BagUnion(rc(self.go(a)?), rc(self.go(b)?))
            }
            Expr::BigBagUnion { head, var, src } => {
                let s = self.go(src)?;
                self.scope.push(var.clone());
                let h = self.go(head)?;
                self.scope.pop();
                CExpr::BigBagUnion { head: rc(h), src: rc(s) }
            }
            Expr::BigBagUnionRank { head, var, rank, src } => {
                let s = self.go(src)?;
                self.scope.push(var.clone());
                self.scope.push(rank.clone());
                let h = self.go(head)?;
                self.scope.pop();
                self.scope.pop();
                CExpr::BigBagUnionRank { head: rc(h), src: rc(s) }
            }
            Expr::Bool(b) => CExpr::Bool(*b),
            Expr::If(c, t, f) => CExpr::If(
                rc(self.go(c)?),
                rc(self.go(t)?),
                rc(self.go(f)?),
            ),
            Expr::Cmp(op, a, b) => {
                CExpr::Cmp(*op, rc(self.go(a)?), rc(self.go(b)?))
            }
            Expr::Nat(n) => CExpr::Nat(*n),
            Expr::Real(r) => CExpr::Real(*r),
            Expr::Str(s) => CExpr::Str(s.clone()),
            Expr::Arith(op, a, b) => {
                CExpr::Arith(*op, rc(self.go(a)?), rc(self.go(b)?))
            }
            Expr::Gen(e) => CExpr::Gen(rc(self.go(e)?)),
            Expr::Sum { head, var, src } => {
                let before = self.marked;
                let s = self.go(src)?;
                self.scope.push(var.clone());
                let h = self.go(head)?;
                self.scope.pop();
                self.nest(before, CExpr::Sum { head: rc(h), src: rc(s) })
            }
            Expr::Tab { head, idx } => {
                let before = self.marked;
                // Bounds are evaluated outside the index binders.
                let bounds: Vec<CExpr> = idx
                    .iter()
                    .map(|(_, b)| self.go(b))
                    .collect::<Result<_, _>>()?;
                for (n, _) in idx {
                    self.scope.push(n.clone());
                }
                let h = self.go(head)?;
                for _ in idx {
                    self.scope.pop();
                }
                self.nest(before, CExpr::Tab { head: rc(h), bounds })
            }
            Expr::Sub(arr, idx) => {
                let mark = (self.in_bounds)(e);
                self.marked += usize::from(mark.is_some());
                CExpr::Sub(
                    rc(self.go(arr)?),
                    idx.iter().map(|i| self.go(i)).collect::<Result<_, _>>()?,
                    mark,
                )
            }
            Expr::Dim(k, e) => CExpr::Dim(*k, rc(self.go(e)?)),
            Expr::ArrayLit { dims, items } => CExpr::ArrayLit {
                dims: dims.iter().map(|d| self.go(d)).collect::<Result<_, _>>()?,
                items: items.iter().map(|i| self.go(i)).collect::<Result<_, _>>()?,
            },
            Expr::Index(k, e) => CExpr::Index(*k, rc(self.go(e)?)),
            Expr::Get(e) => CExpr::Get(rc(self.go(e)?)),
            Expr::Bottom => CExpr::Bottom,
            Expr::Prim(p, args) => {
                let before = self.marked;
                let args = args.iter().map(|a| self.go(a)).collect::<Result<_, _>>()?;
                self.nest(before, CExpr::Prim(*p, args))
            }
        })
    }

    /// `nest` — a tabulation, `Σ` or primitive just compiled — as a
    /// bulk kernel where the planner takes it. `before` is `marked` as
    /// it stood when the nest was entered: no site marked inside, no
    /// plan to look for.
    fn nest(&self, before: usize, nest: CExpr) -> CExpr {
        if self.marked == before {
            return nest;
        }
        match kernel::plan(&nest) {
            Some(plan) => CExpr::Kernel { plan: Rc::new(plan), fallback: rc(nest) },
            None => nest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builder::*;

    /// Assert the compiled shape via its `Debug` rendering: one
    /// assertion with a readable diff instead of nested `match` chains
    /// ending in `panic!("unexpected …")` arms.
    fn assert_compiles_to(e: &Expr, expected: &CExpr) {
        let c = compile(e).unwrap();
        assert_eq!(format!("{c:?}"), format!("{expected:?}"));
    }

    #[test]
    fn de_bruijn_indices() {
        // λx.λy. x - y: x is index 1, y is index 0.
        let e = lam("x", lam("y", monus(var("x"), var("y"))));
        assert_compiles_to(
            &e,
            &CExpr::Lam(rc(CExpr::Lam(rc(CExpr::Arith(
                ArithOp::Monus,
                rc(CExpr::Var(1)),
                rc(CExpr::Var(0)),
            ))))),
        );
    }

    #[test]
    fn shadowing_picks_innermost() {
        let e = lam("x", lam("x", var("x")));
        assert_compiles_to(&e, &CExpr::Lam(rc(CExpr::Lam(rc(CExpr::Var(0))))));
    }

    #[test]
    fn free_names_become_globals() {
        let c = compile(&var("months")).unwrap();
        assert!(matches!(c, CExpr::Global(n) if &*n == "months"));
    }

    #[test]
    fn tab_binders_positioned() {
        // [[ i | i < n, j < m ]]: head sees j at 0, i at 1; the bounds
        // see neither.
        let e = tab(vec![("i", var("i")), ("j", var("j"))], var("i"));
        assert_compiles_to(
            &e,
            &CExpr::Tab {
                head: rc(CExpr::Var(1)),
                bounds: vec![
                    CExpr::Global(crate::expr::name("i")),
                    CExpr::Global(crate::expr::name("j")),
                ],
            },
        );
    }

    #[test]
    fn malformed_terms_error_instead_of_aborting() {
        // Terms the typechecker would reject but that can reach compile
        // through a buggy extension rewrite: each must surface as
        // `EvalError::Internal` naming the constructor, not a panic.
        let cases: Vec<(Expr, &str)> = vec![
            (Expr::Tuple(vec![nat(1)]), "Tuple"),
            (Expr::Tuple(Vec::new()), "Tuple"),
            (Expr::Proj(0, 2, Box::new(tuple(vec![nat(1), nat(2)]))), "Proj"),
            (Expr::Proj(3, 2, Box::new(tuple(vec![nat(1), nat(2)]))), "Proj"),
            (Expr::Proj(1, 1, Box::new(nat(1))), "Proj"),
            (Expr::Tab { head: Box::new(nat(1)), idx: Vec::new() }, "Tab"),
            (Expr::Sub(Box::new(var("a")), Vec::new()), "Sub"),
            (Expr::Dim(0, Box::new(var("a"))), "Dim"),
            (Expr::ArrayLit { dims: Vec::new(), items: Vec::new() }, "ArrayLit"),
            (Expr::Index(0, Box::new(var("a"))), "Index"),
            (Expr::Prim(Prim::Member, vec![nat(1)]), "Prim"),
            (Expr::Prim(Prim::MinSet, Vec::new()), "Prim"),
        ];
        for (e, ctor) in cases {
            let err = compile(&e).expect_err("malformed term must not compile");
            let EvalError::Internal(m) = &err else {
                unreachable!("expected Internal for {e:?}, got {err:?}");
            };
            assert!(
                m.contains(&format!("`{ctor}`")),
                "message must name the constructor `{ctor}`: {m}"
            );
        }
        // The checks also apply to subterms under binders.
        let nested = lam("x", Expr::Tuple(vec![var("x")]));
        assert!(matches!(compile(&nested), Err(EvalError::Internal(_))));
    }
}
