//! Ergonomic constructors for NRCA expressions.
//!
//! The §6 rank queries, the optimizer's rule tests and the benches all
//! build calculus terms through these helpers instead of spelling out
//! the `Expr` enum.

use super::{name, ArithOp, CmpOp, Expr, Name, Prim};

/// A variable reference.
pub fn var(x: &str) -> Expr {
    Expr::Var(name(x))
}

/// A reference to a session-level `val`.
pub fn global(x: &str) -> Expr {
    Expr::Global(name(x))
}

/// A registered external primitive.
pub fn ext(x: &str) -> Expr {
    Expr::Ext(name(x))
}

/// `λx.e`
pub fn lam(x: &str, body: Expr) -> Expr {
    Expr::Lam(name(x), body.boxed())
}

/// `f(a)`
pub fn app(f: Expr, a: Expr) -> Expr {
    Expr::App(f.boxed(), a.boxed())
}

/// `let x = e1 in e2`
pub fn let_(x: &str, bound: Expr, body: Expr) -> Expr {
    Expr::Let(name(x), bound.boxed(), body.boxed())
}

/// `(e1, …, ek)`
pub fn tuple(items: Vec<Expr>) -> Expr {
    assert!(items.len() >= 2, "tuples have arity ≥ 2");
    Expr::Tuple(items)
}

/// `π_{i,k}(e)` with 1-based `i`.
pub fn proj(i: usize, k: usize, e: Expr) -> Expr {
    assert!(1 <= i && i <= k && k >= 2);
    Expr::Proj(i, k, e.boxed())
}

/// `π_1` of a pair.
pub fn fst(e: Expr) -> Expr {
    proj(1, 2, e)
}

/// `π_2` of a pair.
pub fn snd(e: Expr) -> Expr {
    proj(2, 2, e)
}

/// `{}`
pub fn empty() -> Expr {
    Expr::Empty
}

/// `{e}`
pub fn single(e: Expr) -> Expr {
    Expr::Single(e.boxed())
}

/// `e1 ∪ e2`
pub fn union(a: Expr, b: Expr) -> Expr {
    Expr::Union(a.boxed(), b.boxed())
}

/// `⋃{ head | x ∈ src }`
pub fn big_union(x: &str, src: Expr, head: Expr) -> Expr {
    Expr::BigUnion { head: head.boxed(), var: name(x), src: src.boxed() }
}

/// `∪_r{ head | x_i ∈ src }` (§6)
pub fn big_union_rank(x: &str, i: &str, src: Expr, head: Expr) -> Expr {
    Expr::BigUnionRank {
        head: head.boxed(),
        var: name(x),
        rank: name(i),
        src: src.boxed(),
    }
}

/// `{|e|}`
pub fn bag_single(e: Expr) -> Expr {
    Expr::BagSingle(e.boxed())
}

/// `e1 ⊎ e2`
pub fn bag_union(a: Expr, b: Expr) -> Expr {
    Expr::BagUnion(a.boxed(), b.boxed())
}

/// `⨄{| head | x ∈ src |}`
pub fn big_bag_union(x: &str, src: Expr, head: Expr) -> Expr {
    Expr::BigBagUnion { head: head.boxed(), var: name(x), src: src.boxed() }
}

/// `⨄_r{| head | x_i ∈ src |}` (§6)
pub fn big_bag_union_rank(x: &str, i: &str, src: Expr, head: Expr) -> Expr {
    Expr::BigBagUnionRank {
        head: head.boxed(),
        var: name(x),
        rank: name(i),
        src: src.boxed(),
    }
}

/// `if c then t else f`
pub fn iff(c: Expr, t: Expr, f: Expr) -> Expr {
    Expr::If(c.boxed(), t.boxed(), f.boxed())
}

/// A comparison `a op b`.
pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
    Expr::Cmp(op, a.boxed(), b.boxed())
}

/// `a = b`
pub fn eq(a: Expr, b: Expr) -> Expr {
    cmp(CmpOp::Eq, a, b)
}

/// `a < b`
pub fn lt(a: Expr, b: Expr) -> Expr {
    cmp(CmpOp::Lt, a, b)
}

/// `a ≤ b`
pub fn le(a: Expr, b: Expr) -> Expr {
    cmp(CmpOp::Le, a, b)
}

/// `a > b`
pub fn gt(a: Expr, b: Expr) -> Expr {
    cmp(CmpOp::Gt, a, b)
}

/// A natural literal.
pub fn nat(n: u64) -> Expr {
    Expr::Nat(n)
}

/// A real literal.
pub fn real(r: f64) -> Expr {
    Expr::Real(r)
}

/// A string literal.
pub fn strlit(s: &str) -> Expr {
    Expr::Str(s.into())
}

/// `a + b`
pub fn add(a: Expr, b: Expr) -> Expr {
    Expr::Arith(ArithOp::Add, a.boxed(), b.boxed())
}

/// `a ∸ b` (monus)
pub fn monus(a: Expr, b: Expr) -> Expr {
    Expr::Arith(ArithOp::Monus, a.boxed(), b.boxed())
}

/// `a * b`
pub fn mul(a: Expr, b: Expr) -> Expr {
    Expr::Arith(ArithOp::Mul, a.boxed(), b.boxed())
}

/// `a / b`
pub fn div(a: Expr, b: Expr) -> Expr {
    Expr::Arith(ArithOp::Div, a.boxed(), b.boxed())
}

/// `a % b`
pub fn modulo(a: Expr, b: Expr) -> Expr {
    Expr::Arith(ArithOp::Mod, a.boxed(), b.boxed())
}

/// `gen(e)`
pub fn gen(e: Expr) -> Expr {
    Expr::Gen(e.boxed())
}

/// `Σ{ head | x ∈ src }`
pub fn sum(x: &str, src: Expr, head: Expr) -> Expr {
    Expr::Sum { head: head.boxed(), var: name(x), src: src.boxed() }
}

/// `[[ head | i < bound ]]` — 1-d tabulation.
pub fn tab1(i: &str, bound: Expr, head: Expr) -> Expr {
    Expr::Tab { head: head.boxed(), idx: vec![(name(i), bound)] }
}

/// `[[ head | i1 < b1, …, ik < bk ]]`
pub fn tab(idx: Vec<(&str, Expr)>, head: Expr) -> Expr {
    assert!(!idx.is_empty());
    Expr::Tab {
        head: head.boxed(),
        idx: idx.into_iter().map(|(n, b)| (name(n), b)).collect(),
    }
}

/// `e[i1, …, ik]`
pub fn sub(arr: Expr, idx: Vec<Expr>) -> Expr {
    assert!(!idx.is_empty());
    Expr::Sub(arr.boxed(), idx)
}

/// `dim_k(e)`
pub fn dim(k: usize, e: Expr) -> Expr {
    assert!(k >= 1);
    Expr::Dim(k, e.boxed())
}

/// `len(e) = dim_1(e)` — the paper's abbreviation for 1-d arrays.
pub fn len(e: Expr) -> Expr {
    dim(1, e)
}

/// `dim_{i,k}(e) = π_{i,k}(dim_k(e))` — the paper's abbreviation.
pub fn dim_ik(i: usize, k: usize, e: Expr) -> Expr {
    proj(i, k, dim(k, e))
}

/// The row-major array literal `[[dims; items]]`.
pub fn array_lit(dims: Vec<Expr>, items: Vec<Expr>) -> Expr {
    Expr::ArrayLit { dims, items }
}

/// A 1-d array literal of the given item expressions, in O(n).
pub fn array1_lit(items: Vec<Expr>) -> Expr {
    let n = items.len() as u64;
    Expr::ArrayLit { dims: vec![nat(n)], items }
}

/// `index_k(e)`
pub fn index(k: usize, e: Expr) -> Expr {
    assert!(k >= 1);
    Expr::Index(k, e.boxed())
}

/// `get(e)`
pub fn get(e: Expr) -> Expr {
    Expr::Get(e.boxed())
}

/// The error value `⊥`.
pub fn bottom() -> Expr {
    Expr::Bottom
}

/// `x ∈ S`
pub fn member(x: Expr, s: Expr) -> Expr {
    Expr::Prim(Prim::Member, vec![x, s])
}

/// `min(S)`
pub fn set_min(s: Expr) -> Expr {
    Expr::Prim(Prim::MinSet, vec![s])
}

/// `max(S)`
pub fn set_max(s: Expr) -> Expr {
    Expr::Prim(Prim::MaxSet, vec![s])
}

/// `not e` — the macro `if e then false else true` (§3).
pub fn not(e: Expr) -> Expr {
    iff(e, Expr::Bool(false), Expr::Bool(true))
}

/// `a and b` — the macro `if a then b else false`.
pub fn and(a: Expr, b: Expr) -> Expr {
    iff(a, b, Expr::Bool(false))
}

/// `a or b` — the macro `if a then true else b`.
pub fn or(a: Expr, b: Expr) -> Expr {
    iff(a, Expr::Bool(true), b)
}

/// Apply `f` to several arguments packed as a tuple: `f(a1, …, an)`.
pub fn app_tuple(f: Expr, args: Vec<Expr>) -> Expr {
    match args.len() {
        // Builder precondition, not a runtime path. lint-wall: allow
        0 => panic!("app_tuple needs at least one argument"),
        1 => app(f, args.into_iter().next().expect("len checked")),
        _ => app(f, tuple(args)),
    }
}

/// `λ(x1, …, xk).e` — a lambda that immediately destructures its tuple
/// argument, following the Fig. 2 pattern translation.
pub fn lam_tuple(params: &[&str], body: Expr) -> Expr {
    assert!(!params.is_empty());
    if params.len() == 1 {
        return lam(params[0], body);
    }
    let fresh: Name = name("%arg");
    let k = params.len();
    let mut e = body;
    // Bind the components right-to-left so earlier components are in
    // scope for none of the later ones (they are independent).
    for (i, p) in params.iter().enumerate().rev() {
        e = Expr::Let(
            name(p),
            proj(i + 1, k, Expr::Var(fresh.clone())).boxed(),
            e.boxed(),
        );
    }
    Expr::Lam(fresh, e.boxed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_shape() {
        let e = big_union("x", var("s"), single(var("x")));
        match e {
            Expr::BigUnion { head, var: v, src } => {
                assert_eq!(*head, single(Expr::Var(name("x"))));
                assert_eq!(&*v, "x");
                assert_eq!(*src, Expr::Var(name("s")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lam_tuple_destructures() {
        let e = lam_tuple(&["a", "b"], add(var("a"), var("b")));
        // λ%arg. let a = π1 %arg in let b = π2 %arg in a + b
        match e {
            Expr::Lam(p, body) => {
                assert_eq!(&*p, "%arg");
                match *body {
                    Expr::Let(a, _, rest) => {
                        assert_eq!(&*a, "a");
                        assert!(matches!(*rest, Expr::Let(..)));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn app_tuple_arities() {
        let one = app_tuple(var("f"), vec![nat(1)]);
        assert!(matches!(one, Expr::App(_, ref a) if **a == Expr::Nat(1)));
        let two = app_tuple(var("f"), vec![nat(1), nat(2)]);
        assert!(matches!(two, Expr::App(_, ref a) if matches!(**a, Expr::Tuple(_))));
    }

    #[test]
    #[should_panic]
    fn tuple_arity_enforced() {
        let _ = tuple(vec![nat(1)]);
    }
}
