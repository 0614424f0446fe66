//! The NRCA typechecker, implementing the typing rules of Fig. 1.
//!
//! Inference is monomorphic unification: `{}`, `⊥` and λ-parameters
//! get fresh variables that the surrounding context pins down, so the
//! paper's queries typecheck without annotations. Two deferred
//! constraint kinds are collected during inference and discharged at
//! the end:
//!
//! * **numeric** — operand types of the arithmetic operators and `Σ`
//!   must resolve to `nat` or `real` (the paper's operators are on `N`;
//!   we overload at `real`, which the paper's own session arithmetic
//!   uses). Still-unresolved numeric types default to `nat`.
//! * **object** — element types of sets/bags/arrays and operand types
//!   of comparisons must be object types (no arrows), since only
//!   object types carry the canonical order `≤_t`.
//!
//! The same judgement is the optimizer's per-fire soundness gate:
//! [`check_rewrite`] runs it in *open mode* over a redex and its
//! contractum, fragments no session environment closes.

pub mod unify;

use std::collections::HashMap;

use crate::error::TypeError;
use crate::expr::free::free_vars;
use crate::expr::{Expr, Name};
use crate::prim::Extensions;
use crate::types::Type;

use unify::Unifier;

/// Typecheck a closed expression (free term variables only through
/// `globals` / `externals`). Returns the resolved result type.
pub fn typecheck(
    e: &Expr,
    globals: &HashMap<Name, Type>,
    externals: &Extensions,
) -> Result<Type, TypeError> {
    let mut cx = Checker::new(globals, externals, false);
    let mut env = Vec::new();
    let t = cx.infer(&mut env, e)?;
    cx.discharge()?;
    Ok(cx.uni.resolve(&t))
}

/// Typecheck with no globals or externals.
pub fn typecheck_closed(e: &Expr) -> Result<Type, TypeError> {
    typecheck(e, &HashMap::new(), &Extensions::new())
}

/// The per-fire rewrite-soundness check (§5: every rule preserves
/// type): is there one typing of the names assumed at the rewrite site
/// — the lexical binders `scope` and the free variables of `before` —
/// under which `before` and `after` both satisfy Fig. 1 at one type?
/// One open-mode checker infers both in one environment and unifies the
/// results, so a binder the redex uses at `nat` cannot be used at
/// `bool` by the contractum, and a variable the contractum invents or
/// captures is unbound. `Err` says which of the three steps failed.
pub fn check_rewrite(before: &Expr, after: &Expr, scope: &[Name]) -> Result<(), String> {
    let (globals, externals) = (HashMap::new(), Extensions::new());
    let mut cx = Checker::new(&globals, &externals, true);
    // A name listed twice shadows itself, for both terms alike.
    let mut env: Env =
        scope.iter().cloned().chain(free_vars(before)).map(|x| (x, cx.uni.fresh())).collect();
    let t_before = cx
        .infer(&mut env, before)
        .map_err(|err| format!("the redex is ill-typed before the rewrite: {err}"))?;
    let t_after = cx
        .infer(&mut env, after)
        .map_err(|err| format!("rewrite produced an ill-formed term: {err}"))?;
    cx.uni
        .unify(&t_before, &t_after)
        .and_then(|()| cx.discharge())
        .map_err(|err| format!("rewrite changed the redex's type: {err}"))
}

/// Are two checker-produced types compatible up to inference
/// variables? The unifier numbers its variables per run, so the
/// pre-optimization snapshot and a post-rewrite re-check can disagree
/// on `Var` identities while describing the same type; a `Var` on
/// either side therefore matches anything. Used by the session's
/// phase-level gate to assert type preservation.
pub fn type_compatible(a: &Type, b: &Type) -> bool {
    match (a, b) {
        (Type::Var(_), _) | (_, Type::Var(_)) => true,
        (Type::Bool, Type::Bool)
        | (Type::Nat, Type::Nat)
        | (Type::Real, Type::Real)
        | (Type::Str, Type::Str) => true,
        (Type::Base(x), Type::Base(y)) => x == y,
        (Type::Tuple(xs), Type::Tuple(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| type_compatible(x, y))
        }
        (Type::Set(x), Type::Set(y)) | (Type::Bag(x), Type::Bag(y)) => type_compatible(x, y),
        (Type::Array(x, j), Type::Array(y, k)) => j == k && type_compatible(x, y),
        (Type::Fun(xa, xr), Type::Fun(ya, yr)) => {
            type_compatible(xa, ya) && type_compatible(xr, yr)
        }
        _ => false,
    }
}

struct Checker<'a> {
    uni: Unifier,
    globals: &'a HashMap<Name, Type>,
    externals: &'a Extensions,
    /// Types that must resolve to `nat` or `real`.
    numeric: Vec<Type>,
    /// Types that must resolve to object types, with a description for
    /// error messages.
    object: Vec<(Type, &'static str)>,
    /// Open mode ([`check_rewrite`]): the term is a fragment, so every
    /// `Global`/`Ext` occurrence is well-typed at a type of its own and
    /// nothing the context could still decide is defaulted.
    open: bool,
}

type Env = Vec<(Name, Type)>;

/// `k` as an array rank. Fig. 1 has no rank-0 array, [`Type::array`]
/// asserts as much, and `Expr` is public: a term built by hand (or by
/// a rule) that asks for one is a type error, not an abort.
fn rank(k: usize) -> Result<usize, TypeError> {
    if k == 0 {
        return Err(TypeError::Other("arrays have rank >= 1, rank 0 requested".into()));
    }
    Ok(k)
}

/// Does the type contain a function arrow anywhere?
fn contains_arrow(t: &Type) -> bool {
    match t {
        Type::Fun(..) => true,
        Type::Bool | Type::Nat | Type::Real | Type::Str | Type::Base(_) | Type::Var(_) => false,
        Type::Tuple(ts) => ts.iter().any(contains_arrow),
        Type::Set(t) | Type::Bag(t) | Type::Array(t, _) => contains_arrow(t),
    }
}

impl<'a> Checker<'a> {
    fn new(globals: &'a HashMap<Name, Type>, externals: &'a Extensions, open: bool) -> Self {
        Checker { uni: Unifier::new(), globals, externals, numeric: vec![], object: vec![], open }
    }

    fn discharge(&mut self) -> Result<(), TypeError> {
        for t in std::mem::take(&mut self.numeric) {
            let r = self.uni.resolve(&t);
            match r {
                Type::Nat | Type::Real => {}
                Type::Var(_) if self.open => {}
                Type::Var(_) => {
                    // Default unconstrained numeric types to nat.
                    self.uni.unify(&t, &Type::Nat)?;
                }
                other => return Err(TypeError::NotNumeric(other)),
            }
        }
        for (t, what) in std::mem::take(&mut self.object) {
            let r = self.uni.resolve(&t);
            // A function type is never an object type, even partially
            // resolved; purely-unresolved parts are tolerated (e.g. the
            // literal `{}` on its own).
            if contains_arrow(&r) {
                let _ = what;
                return Err(TypeError::NotObject(r));
            }
        }
        Ok(())
    }

    fn lookup(&mut self, env: &Env, x: &Name) -> Result<Type, TypeError> {
        if let Some((_, t)) = env.iter().rev().find(|(n, _)| n == x) {
            return Ok(t.clone());
        }
        if let Some(t) = self.globals.get(x) {
            return Ok(t.clone());
        }
        Err(TypeError::Unbound(x.to_string()))
    }

    fn infer(&mut self, env: &mut Env, e: &Expr) -> Result<Type, TypeError> {
        match e {
            Expr::Var(x) => self.lookup(env, x),
            Expr::Global(_) | Expr::Ext(_) if self.open => Ok(self.uni.fresh()),
            Expr::Global(x) => self
                .globals
                .get(x)
                .cloned()
                .ok_or_else(|| TypeError::Unbound(x.to_string())),
            Expr::Ext(x) => self
                .externals
                .type_of(x)
                .cloned()
                .ok_or_else(|| TypeError::Unbound(x.to_string())),
            Expr::Lam(x, body) => {
                let a = self.uni.fresh();
                env.push((x.clone(), a.clone()));
                let t = self.infer(env, body)?;
                env.pop();
                Ok(Type::fun(a, t))
            }
            Expr::App(f, a) => {
                let tf = self.infer(env, f)?;
                let ta = self.infer(env, a)?;
                let r = self.uni.fresh();
                self.uni.unify(&tf, &Type::fun(ta, r.clone()))?;
                Ok(r)
            }
            Expr::Let(x, bound, body) => {
                let tb = self.infer(env, bound)?;
                env.push((x.clone(), tb));
                let t = self.infer(env, body)?;
                env.pop();
                Ok(t)
            }
            Expr::Tuple(items) => {
                if items.len() < 2 {
                    let n = items.len();
                    return Err(TypeError::Other(format!("{n}-tuple: products have arity >= 2")));
                }
                let ts: Result<Vec<Type>, TypeError> =
                    items.iter().map(|it| self.infer(env, it)).collect();
                Ok(Type::tuple(ts?))
            }
            Expr::Proj(i, k, e) => {
                if *k < 2 || *i < 1 || i > k {
                    return Err(TypeError::BadProjection { index: *i, arity: *k });
                }
                let te = self.infer(env, e)?;
                let comps: Vec<Type> = (0..*k).map(|_| self.uni.fresh()).collect();
                self.uni.unify(&te, &Type::tuple(comps.clone()))?;
                Ok(comps[*i - 1].clone())
            }
            Expr::Empty => {
                let a = self.uni.fresh();
                self.object.push((a.clone(), "set element"));
                Ok(Type::set(a))
            }
            Expr::Single(e) => {
                let t = self.infer(env, e)?;
                self.object.push((t.clone(), "set element"));
                Ok(Type::set(t))
            }
            Expr::Union(a, b) => {
                let ta = self.infer(env, a)?;
                let tb = self.infer(env, b)?;
                self.uni.unify(&ta, &tb)?;
                let elem = self.uni.fresh();
                self.uni.unify(&ta, &Type::set(elem.clone()))?;
                self.object.push((elem, "set element"));
                Ok(ta)
            }
            Expr::BigUnion { head, var, src } => {
                let ts = self.infer(env, src)?;
                let elem = self.uni.fresh();
                self.uni.unify(&ts, &Type::set(elem.clone()))?;
                env.push((var.clone(), elem));
                let th = self.infer(env, head)?;
                env.pop();
                let out = self.uni.fresh();
                self.uni.unify(&th, &Type::set(out.clone()))?;
                self.object.push((out, "set element"));
                Ok(th)
            }
            Expr::BigUnionRank { head, var, rank, src } => {
                let ts = self.infer(env, src)?;
                let elem = self.uni.fresh();
                self.uni.unify(&ts, &Type::set(elem.clone()))?;
                env.push((var.clone(), elem));
                env.push((rank.clone(), Type::Nat));
                let th = self.infer(env, head)?;
                env.pop();
                env.pop();
                let out = self.uni.fresh();
                self.uni.unify(&th, &Type::set(out.clone()))?;
                self.object.push((out, "set element"));
                Ok(th)
            }
            Expr::BagEmpty => {
                let a = self.uni.fresh();
                self.object.push((a.clone(), "bag element"));
                Ok(Type::bag(a))
            }
            Expr::BagSingle(e) => {
                let t = self.infer(env, e)?;
                self.object.push((t.clone(), "bag element"));
                Ok(Type::bag(t))
            }
            Expr::BagUnion(a, b) => {
                let ta = self.infer(env, a)?;
                let tb = self.infer(env, b)?;
                self.uni.unify(&ta, &tb)?;
                let elem = self.uni.fresh();
                self.uni.unify(&ta, &Type::bag(elem.clone()))?;
                self.object.push((elem, "bag element"));
                Ok(ta)
            }
            Expr::BigBagUnion { head, var, src } => {
                let ts = self.infer(env, src)?;
                let elem = self.uni.fresh();
                self.uni.unify(&ts, &Type::bag(elem.clone()))?;
                env.push((var.clone(), elem));
                let th = self.infer(env, head)?;
                env.pop();
                let out = self.uni.fresh();
                self.uni.unify(&th, &Type::bag(out.clone()))?;
                self.object.push((out, "bag element"));
                Ok(th)
            }
            Expr::BigBagUnionRank { head, var, rank, src } => {
                let ts = self.infer(env, src)?;
                let elem = self.uni.fresh();
                self.uni.unify(&ts, &Type::bag(elem.clone()))?;
                env.push((var.clone(), elem));
                env.push((rank.clone(), Type::Nat));
                let th = self.infer(env, head)?;
                env.pop();
                env.pop();
                let out = self.uni.fresh();
                self.uni.unify(&th, &Type::bag(out.clone()))?;
                self.object.push((out, "bag element"));
                Ok(th)
            }
            Expr::Bool(_) => Ok(Type::Bool),
            Expr::If(c, t, f) => {
                let tc = self.infer(env, c)?;
                self.uni.unify(&tc, &Type::Bool)?;
                let tt = self.infer(env, t)?;
                let tf = self.infer(env, f)?;
                self.uni.unify(&tt, &tf)?;
                Ok(tt)
            }
            Expr::Cmp(_, a, b) => {
                let ta = self.infer(env, a)?;
                let tb = self.infer(env, b)?;
                self.uni.unify(&ta, &tb)?;
                self.object.push((ta, "comparison operand"));
                Ok(Type::Bool)
            }
            Expr::Nat(_) => Ok(Type::Nat),
            Expr::Real(_) => Ok(Type::Real),
            Expr::Str(_) => Ok(Type::Str),
            Expr::Arith(_, a, b) => {
                let ta = self.infer(env, a)?;
                let tb = self.infer(env, b)?;
                self.uni.unify(&ta, &tb)?;
                self.numeric.push(ta.clone());
                Ok(ta)
            }
            Expr::Gen(e) => {
                let t = self.infer(env, e)?;
                self.uni.unify(&t, &Type::Nat)?;
                Ok(Type::set(Type::Nat))
            }
            Expr::Sum { head, var, src } => {
                let ts = self.infer(env, src)?;
                let elem = self.uni.fresh();
                self.uni.unify(&ts, &Type::set(elem.clone()))?;
                env.push((var.clone(), elem));
                let th = self.infer(env, head)?;
                env.pop();
                self.numeric.push(th.clone());
                Ok(th)
            }
            Expr::Tab { head, idx } => {
                for (_, b) in idx {
                    let tb = self.infer(env, b)?;
                    self.uni.unify(&tb, &Type::Nat)?;
                }
                let k = rank(idx.len())?;
                for (n, _) in idx {
                    env.push((n.clone(), Type::Nat));
                }
                let th = self.infer(env, head)?;
                for _ in 0..k {
                    env.pop();
                }
                self.object.push((th.clone(), "array element"));
                Ok(Type::array(th, k))
            }
            Expr::Sub(arr, idx) => {
                let ta = self.infer(env, arr)?;
                if idx.len() >= 2 {
                    for i in idx {
                        let ti = self.infer(env, i)?;
                        self.uni.unify(&ti, &Type::Nat)?;
                    }
                    let elem = self.uni.fresh();
                    self.uni.unify(&ta, &Type::array(elem.clone(), idx.len()))?;
                    Ok(elem)
                } else {
                    // A single index of type N^k subscripts a k-d array:
                    // resolve the index type to learn k; an unresolved
                    // index defaults to nat (k = 1).
                    let Some(index) = idx.first() else {
                        return Err(TypeError::Other("subscript with no index".into()));
                    };
                    let ti = self.infer(env, index)?;
                    let k = match self.uni.resolve(&ti) {
                        Type::Tuple(comps) => {
                            for c in comps.iter() {
                                self.uni.unify(c, &Type::Nat)?;
                            }
                            comps.len()
                        }
                        // Open mode: the context may yet make this index a
                        // tuple (`A[p]` beside `π₁ p`), so only an array
                        // whose rank is already known decides k.
                        Type::Var(_) if self.open => match self.uni.resolve(&ta) {
                            Type::Array(_, k) => {
                                self.uni.unify(&ti, &Type::nat_power(k))?;
                                k
                            }
                            Type::Var(_) => return Ok(self.uni.fresh()),
                            _ => 1,
                        },
                        _ => {
                            self.uni.unify(&ti, &Type::Nat)?;
                            1
                        }
                    };
                    let elem = self.uni.fresh();
                    self.uni.unify(&ta, &Type::array(elem.clone(), k))?;
                    Ok(elem)
                }
            }
            Expr::Dim(k, e) => {
                let te = self.infer(env, e)?;
                let elem = self.uni.fresh();
                self.uni.unify(&te, &Type::array(elem, rank(*k)?))?;
                Ok(Type::nat_power(*k))
            }
            Expr::ArrayLit { dims, items } => {
                for d in dims {
                    let td = self.infer(env, d)?;
                    self.uni.unify(&td, &Type::Nat)?;
                }
                let elem = self.uni.fresh();
                for it in items {
                    let ti = self.infer(env, it)?;
                    self.uni.unify(&ti, &elem)?;
                }
                // Static shape check when all dimensions are literals.
                let static_dims: Option<Vec<u64>> = dims
                    .iter()
                    .map(|d| match d {
                        Expr::Nat(n) => Some(*n),
                        _ => None,
                    })
                    .collect();
                if let Some(ds) = static_dims {
                    let expect: u64 = ds.iter().product();
                    if expect != items.len() as u64 {
                        return Err(TypeError::LiteralShape { expect, got: items.len() });
                    }
                }
                self.object.push((elem.clone(), "array element"));
                Ok(Type::array(elem, rank(dims.len())?))
            }
            Expr::Index(k, e) => {
                let te = self.infer(env, e)?;
                let val = self.uni.fresh();
                let pair = Type::tuple(vec![Type::nat_power(rank(*k)?), val.clone()]);
                self.uni.unify(&te, &Type::set(pair))?;
                self.object.push((val.clone(), "indexed value"));
                Ok(Type::array(Type::set(val), *k))
            }
            Expr::Get(e) => {
                let te = self.infer(env, e)?;
                let elem = self.uni.fresh();
                self.uni.unify(&te, &Type::set(elem.clone()))?;
                Ok(elem)
            }
            Expr::Bottom => Ok(self.uni.fresh()),
            Expr::Prim(p, args) => {
                if args.len() != p.arity() {
                    return Err(TypeError::Other(format!(
                        "primitive `{}` expects {} argument(s), got {}",
                        p.name(),
                        p.arity(),
                        args.len()
                    )));
                }
                match p {
                    crate::expr::Prim::Member => {
                        let tx = self.infer(env, &args[0])?;
                        let ts = self.infer(env, &args[1])?;
                        self.uni.unify(&ts, &Type::set(tx.clone()))?;
                        self.object.push((tx, "membership operand"));
                        Ok(Type::Bool)
                    }
                    crate::expr::Prim::MinSet | crate::expr::Prim::MaxSet => {
                        let ts = self.infer(env, &args[0])?;
                        let elem = self.uni.fresh();
                        self.uni.unify(&ts, &Type::set(elem.clone()))?;
                        self.object.push((elem.clone(), "min/max operand"));
                        Ok(elem)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builder::*;
    use crate::prim::NativeFn;
    use crate::value::Value;

    fn check(e: &Expr) -> Result<Type, TypeError> {
        typecheck_closed(e)
    }

    #[test]
    fn literals() {
        assert_eq!(check(&nat(3)).unwrap(), Type::Nat);
        assert_eq!(check(&real(2.5)).unwrap(), Type::Real);
        assert_eq!(check(&strlit("x")).unwrap(), Type::Str);
        assert_eq!(check(&Expr::Bool(true)).unwrap(), Type::Bool);
    }

    #[test]
    fn lambda_and_application() {
        // λx. x + 1 : nat -> nat (numeric default pins nat).
        let e = lam("x", add(var("x"), nat(1)));
        assert_eq!(check(&e).unwrap(), Type::fun(Type::Nat, Type::Nat));
        let e = app(lam("x", var("x")), real(1.0));
        assert_eq!(check(&e).unwrap(), Type::Real);
    }

    #[test]
    fn real_arithmetic_overload() {
        let e = add(real(1.0), real(2.0));
        assert_eq!(check(&e).unwrap(), Type::Real);
        let e = add(real(1.0), nat(2));
        assert!(check(&e).is_err(), "nat and real do not mix");
        let e = add(Expr::Bool(true), Expr::Bool(false));
        assert!(matches!(check(&e), Err(TypeError::NotNumeric(_))));
    }

    #[test]
    fn set_constructs() {
        let e = union(single(nat(1)), empty());
        assert_eq!(check(&e).unwrap(), Type::set(Type::Nat));
        let e = big_union("x", gen(nat(10)), single(mul(var("x"), var("x"))));
        assert_eq!(check(&e).unwrap(), Type::set(Type::Nat));
        // Functions cannot be set elements.
        let e = single(lam("x", var("x")));
        assert!(matches!(check(&e), Err(TypeError::NotObject(_))));
    }

    #[test]
    fn sum_and_gen() {
        let e = sum("x", gen(nat(5)), var("x"));
        assert_eq!(check(&e).unwrap(), Type::Nat);
        let e = gen(Expr::Bool(true));
        assert!(check(&e).is_err());
    }

    #[test]
    fn array_tabulation_and_subscript() {
        // map (×2): [[A[i] * 2 | i < len A]] given A.
        let e = lam(
            "A",
            tab1(
                "i",
                len(var("A")),
                mul(sub(var("A"), vec![var("i")]), nat(2)),
            ),
        );
        assert_eq!(
            check(&e).unwrap(),
            Type::fun(Type::array1(Type::Nat), Type::array1(Type::Nat))
        );
    }

    #[test]
    fn multidim_dim_and_sub() {
        // transpose : [[t]]_2 -> [[t]]_2 with t pinned by use.
        let e = lam(
            "M",
            tab(
                vec![
                    ("j", dim_ik(2, 2, var("M"))),
                    ("i", dim_ik(1, 2, var("M"))),
                ],
                sub(var("M"), vec![var("i"), var("j")]),
            ),
        );
        let t = check(&e).unwrap();
        match t {
            Type::Fun(a, b) => {
                assert!(matches!(&*a, Type::Array(_, 2)));
                assert!(matches!(&*b, Type::Array(_, 2)));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn subscript_by_tuple_expression() {
        // λp. M[p] where p : nat * nat — used by the transpose derivation.
        let e = lam(
            "M",
            lam(
                "p",
                sub(var("M"), vec![tuple(vec![fst(var("p")), snd(var("p"))])]),
            ),
        );
        // Single-element Sub whose index is a pair expression.
        let e2 = lam("M", lam("p", sub(var("M"), vec![var("p")])));
        // The second fails to resolve p's type before the subscript, so it
        // defaults to k=1 and then M : [[t]]_1 with p : nat.
        let t2 = check(&e2).unwrap();
        match t2 {
            Type::Fun(a, _) => assert!(matches!(&*a, Type::Array(_, 1))),
            other => panic!("unexpected {other}"),
        }
        // The first has an explicit tuple, so k=2 is inferred.
        let t = check(&e).unwrap();
        match t {
            Type::Fun(a, _) => assert!(matches!(&*a, Type::Array(_, 2))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn array_literal_shapes() {
        let ok = array_lit(vec![nat(2), nat(2)], vec![nat(1), nat(2), nat(3), nat(4)]);
        assert_eq!(check(&ok).unwrap(), Type::array(Type::Nat, 2));
        let bad = array_lit(vec![nat(2), nat(2)], vec![nat(1)]);
        assert!(matches!(check(&bad), Err(TypeError::LiteralShape { .. })));
        // Dynamic dims skip the static check.
        let dynamic = lam("n", array_lit(vec![var("n")], vec![nat(1), nat(2)]));
        assert!(check(&dynamic).is_ok());
    }

    #[test]
    fn index_typing() {
        // index_1 : {nat × t} → [[{t}]]_1
        let e = index(
            1,
            union(
                single(tuple(vec![nat(1), strlit("a")])),
                single(tuple(vec![nat(3), strlit("b")])),
            ),
        );
        assert_eq!(
            check(&e).unwrap(),
            Type::array1(Type::set(Type::Str))
        );
        // index_2 needs pairs with N^2 keys.
        let e = index(2, single(tuple(vec![tuple(vec![nat(0), nat(1)]), nat(9)])));
        assert_eq!(
            check(&e).unwrap(),
            Type::array(Type::set(Type::Nat), 2)
        );
    }

    #[test]
    fn get_and_bottom() {
        assert_eq!(check(&get(single(nat(5)))).unwrap(), Type::Nat);
        // ⊥ takes any type from context.
        let e = iff(Expr::Bool(true), nat(1), bottom());
        assert_eq!(check(&e).unwrap(), Type::Nat);
    }

    #[test]
    fn comparisons_at_complex_types() {
        let e = eq(single(nat(1)), single(nat(1)));
        assert_eq!(check(&e).unwrap(), Type::Bool);
        let e = lt(tuple(vec![nat(1), nat(2)]), tuple(vec![nat(1), nat(3)]));
        assert_eq!(check(&e).unwrap(), Type::Bool);
        // Comparing functions is rejected.
        let e = eq(lam("x", var("x")), lam("y", var("y")));
        assert!(check(&e).is_err());
    }

    #[test]
    fn prims() {
        let e = member(nat(1), gen(nat(5)));
        assert_eq!(check(&e).unwrap(), Type::Bool);
        let e = set_min(gen(nat(5)));
        assert_eq!(check(&e).unwrap(), Type::Nat);
        let e = Expr::Prim(crate::expr::Prim::MinSet, vec![nat(1), nat(2)]);
        assert!(check(&e).is_err(), "arity mismatch");
    }

    #[test]
    fn unbound_variables_reported() {
        assert!(matches!(check(&var("nope")), Err(TypeError::Unbound(_))));
        assert!(matches!(check(&global("g")), Err(TypeError::Unbound(_))));
        assert!(matches!(check(&ext("f")), Err(TypeError::Unbound(_))));
    }

    #[test]
    fn globals_and_externals() {
        let mut globals = HashMap::new();
        globals.insert(crate::expr::name("T"), Type::array(Type::Real, 3));
        let mut exts = Extensions::new();
        exts.register(NativeFn::new(
            "heatindex",
            Type::fun(Type::array1(Type::Real), Type::Real),
            |_| Ok(Value::Real(0.0)),
        ));
        let e = dim(3, global("T"));
        assert_eq!(
            typecheck(&e, &globals, &exts).unwrap(),
            Type::nat_power(3)
        );
        let e = app(ext("heatindex"), array1_lit(vec![real(90.0)]));
        assert_eq!(typecheck(&e, &globals, &exts).unwrap(), Type::Real);
        let e = app(ext("heatindex"), nat(3));
        assert!(typecheck(&e, &globals, &exts).is_err());
    }

    #[test]
    fn ranked_union_typing() {
        // rank(X) = ∪_r{ {(x, i)} | x_i ∈ X } : {t × nat}
        let e = big_union_rank(
            "x",
            "i",
            gen(nat(4)),
            single(tuple(vec![var("x"), var("i")])),
        );
        assert_eq!(
            check(&e).unwrap(),
            Type::set(Type::tuple(vec![Type::Nat, Type::Nat]))
        );
    }

    #[test]
    fn bag_typing() {
        let e = bag_union(bag_single(nat(1)), Expr::BagEmpty);
        assert_eq!(check(&e).unwrap(), Type::bag(Type::Nat));
        let e = big_bag_union("x", bag_single(nat(2)), bag_single(mul(var("x"), nat(3))));
        assert_eq!(check(&e).unwrap(), Type::bag(Type::Nat));
    }

    /// `Expr` is a public enum and a registered optimizer rule is
    /// extension code: a term no parser would build is a `TypeError`,
    /// never an abort — the `Type` constructors assert these shapes.
    #[test]
    fn malformed_terms_are_type_errors_not_panics() {
        let a = || array1_lit(vec![nat(1)]);
        let rows = [
            ("1-tuple", Expr::Tuple(vec![nat(1)])),
            ("0-tuple", Expr::Tuple(vec![])),
            ("subscript with no index", Expr::Sub(a().boxed(), vec![])),
            ("dim_0", Expr::Dim(0, a().boxed())),
            ("tabulation with no index", Expr::Tab { head: nat(1).boxed(), idx: vec![] }),
            ("index_0", Expr::Index(0, single(tuple(vec![nat(0), nat(1)])).boxed())),
            ("array literal of rank 0", Expr::ArrayLit { dims: vec![], items: vec![nat(1)] }),
        ];
        for (what, e) in rows {
            let got = std::panic::catch_unwind(|| check(&e));
            let Ok(got) = got else { panic!("{what}: typecheck panicked") };
            assert!(matches!(got, Err(TypeError::Other(_))), "{what}: {got:?}");
            // …and so it is to the gate, as a rule's output.
            let err = check_rewrite(&nat(1), &e, &[]).expect_err(what);
            assert!(err.contains("ill-formed"), "{what}: {err}");
        }
    }

    #[test]
    fn arity_rank_and_branch_violations_are_type_errors() {
        let bad_proj = Expr::Proj(0, 5, nat(1).boxed());
        assert!(matches!(check(&bad_proj), Err(TypeError::BadProjection { .. })));
        assert!(check(&proj(1, 3, tuple(vec![nat(1), nat(2), nat(3)]))).is_ok());
        assert!(check(&Expr::Proj(1, 2, tuple(vec![nat(1), nat(2), nat(3)]).boxed())).is_err());
        // Two subscripts into, and dim_2 of, a 1-d tabulation.
        let t = || tab1("i", nat(4), var("i"));
        assert!(check(&sub(t(), vec![nat(0), nat(1)])).is_err());
        assert!(check(&dim_ik(2, 2, t())).is_err());
        assert!(check(&iff(nat(3), nat(1), nat(2))).is_err(), "condition must be bool");
        assert!(check(&iff(Expr::Bool(true), nat(1), strlit("x"))).is_err(), "branches differ");
    }

    #[test]
    fn check_rewrite_accepts_sound_and_rejects_unsound() {
        // β: (λx. x + 1) 2 ~> 2 + 1 — sound.
        let before = app(lam("x", add(var("x"), nat(1))), nat(2));
        let after = add(nat(2), nat(1));
        assert!(check_rewrite(&before, &after, &[]).is_ok());
        // A rule that invents a variable.
        let bad = add(var("ghost"), nat(1));
        let err = check_rewrite(&before, &bad, &[]).unwrap_err();
        assert!(err.contains("unbound variable `ghost`"), "{err}");
        // A rule that changes the type.
        let err = check_rewrite(&before, &Expr::Bool(true), &[]).unwrap_err();
        assert!(err.contains("changed the redex's type"), "{err}");
        // Free variables of the redex stay legal in the contractum.
        let before = add(var("x"), nat(0));
        assert!(check_rewrite(&before, &var("x"), &[]).is_ok());
        // Binders tracked by the engine are in scope.
        let i = [crate::expr::name("i")];
        assert!(check_rewrite(&nat(0), &var("i"), &i).is_ok());
        // …at one type for redex and contractum alike.
        let err = check_rewrite(&add(var("i"), nat(1)), &iff(var("i"), nat(1), nat(2)), &i);
        assert!(err.unwrap_err().contains("type mismatch"));
        // A redex Fig. 1 rejects is named as such, not blamed on the rule.
        let err = check_rewrite(&add(nat(1), Expr::Bool(true)), &nat(1), &[]).unwrap_err();
        assert!(err.contains("redex is ill-typed"), "{err}");
    }

    #[test]
    fn open_mode_trusts_what_only_the_context_can_type() {
        // `e` as its own contractum: is the fragment typeable under `scope`?
        let fragment = |e: &Expr, scope: &[Name]| check_rewrite(e, e, scope);
        let [x, p] = ["x", "p"].map(crate::expr::name);
        let (x, p) = (std::slice::from_ref(&x), std::slice::from_ref(&p));
        assert!(fragment(&add(var("x"), nat(1)), &[]).is_ok(), "free in the redex");
        assert!(check_rewrite(&nat(1), &add(var("x"), nat(1)), &[]).is_err());
        assert!(check_rewrite(&nat(1), &add(var("x"), nat(1)), x).is_ok());
        // Globals and externals: any type, and a type per occurrence.
        let g_twice = tuple(vec![add(global("g"), nat(1)), iff(global("g"), ext("f"), ext("f"))]);
        assert!(fragment(&g_twice, &[]).is_ok());
        assert!(check(&global("g")).is_err() && check(&ext("f")).is_err(), "closed: unbound");
        // No numeric default: `p + p` is `real` if the context says so.
        assert!(check_rewrite(&add(var("p"), var("p")), &mul(var("p"), real(2.0)), p).is_ok());
        // No rank default: `A[p]` beside `π₁ p` is a 2-d subscript, which
        // closed mode (p : nat by default) would reject…
        let e = tuple(vec![sub(global("A"), vec![var("p")]), fst(var("p"))]);
        assert!(fragment(&e, p).is_ok());
        // …but a rank the fragment itself fixes still binds the index,
        let a2 = array_lit(vec![nat(1), nat(1)], vec![nat(7)]);
        let e = tuple(vec![sub(a2, vec![var("p")]), add(var("p"), nat(1))]);
        assert!(fragment(&e, p).is_err(), "p : nat × nat, not nat");
        // and what is subscripted must still be an array.
        assert!(fragment(&sub(nat(3), vec![var("p")]), p).is_err());
    }

    #[test]
    fn var_is_a_wildcard() {
        assert!(type_compatible(&Type::Var(0), &Type::Nat));
        assert!(type_compatible(&Type::set(Type::Var(3)), &Type::set(Type::Bool)));
        assert!(!type_compatible(&Type::Nat, &Type::Bool));
        assert!(!type_compatible(
            &Type::array(Type::Nat, 2),
            &Type::array(Type::Nat, 1)
        ));
        assert!(type_compatible(
            &Type::fun(Type::Var(1), Type::Nat),
            &Type::fun(Type::Real, Type::Nat)
        ));
        assert!(!type_compatible(
            &Type::tuple(vec![Type::Nat, Type::Nat]),
            &Type::tuple(vec![Type::Nat, Type::Nat, Type::Nat])
        ));
    }

    #[test]
    fn shadowing_resolves_innermost() {
        let e = lam("x", lam("x", add(var("x"), nat(1))));
        // Outer x is unconstrained, inner is nat; the outer parameter
        // remains a variable but the expression typechecks.
        let t = check(&e).unwrap();
        match t {
            Type::Fun(_, inner) => {
                assert_eq!(*inner, Type::fun(Type::Nat, Type::Nat));
            }
            other => panic!("unexpected {other}"),
        }
    }
}
