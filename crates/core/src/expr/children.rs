//! The scoping table of Fig. 1: which immediate children an [`Expr`]
//! has, and which names it binds over each of them.
//!
//! * `λx.e` and `let x = e1 in e2` bind `x` over the body only — a
//!   `let`'s right-hand side is *outside* its own binder;
//! * `⋃`, `⨄` and `Σ` bind `var` over the head only; the ranked unions
//!   bind `var` and `rank`, in that order; the source sees neither;
//! * a tabulation binds all its index names over the head; every bound
//!   sits *outside* all of them.
//!
//! [`for_each_child`] reads that table, [`try_map_children`] rebuilds
//! through it and [`try_for_each_child_mut`] rewrites through it in
//! place. They are the only three functions that match on every
//! constructor merely to reach children (`tests/lint_wall.rs` keeps it
//! so): traversals that do no per-constructor work — free variables,
//! substitution, name resolution, the optimizer's passes — are written
//! on them, so a new constructor is threaded through exactly here.
//! The third exists because a rebuild allocates every node it passes:
//! an optimizer pass that fires at three nodes of a hundred should
//! allocate at three.

use std::convert::Infallible;
use std::slice::from_ref;

use super::{Expr, Name};

/// Visit each *immediate* child of `e` (no recursion) together with the
/// names `e` binds over it — an empty slice for a child no binder of
/// `e` reaches. Children come in field order: a comprehension's head
/// before its source, a tabulation's head before its bounds.
pub fn for_each_child<'a>(e: &'a Expr, f: &mut impl FnMut(&[Name], &'a Expr)) {
    use Expr::*;
    match e {
        Var(_) | Global(_) | Ext(_) | Empty | BagEmpty | Bool(_) | Nat(_) | Real(_)
        | Str(_) | Bottom => {}
        Lam(x, b) => f(from_ref(x), b),
        Let(x, a, b) => {
            f(&[], a);
            f(from_ref(x), b);
        }
        Proj(_, _, a) | Single(a) | BagSingle(a) | Gen(a) | Dim(_, a) | Index(_, a)
        | Get(a) => f(&[], a),
        App(a, b) | Union(a, b) | BagUnion(a, b) | Cmp(_, a, b) | Arith(_, a, b) => {
            f(&[], a);
            f(&[], b);
        }
        If(a, b, c) => {
            f(&[], a);
            f(&[], b);
            f(&[], c);
        }
        Tuple(es) | Prim(_, es) => es.iter().for_each(|c| f(&[], c)),
        BigUnion { head, var, src } | BigBagUnion { head, var, src } | Sum { head, var, src } => {
            f(from_ref(var), head);
            f(&[], src);
        }
        BigUnionRank { head, var, rank, src } | BigBagUnionRank { head, var, rank, src } => {
            f(&[var.clone(), rank.clone()], head);
            f(&[], src);
        }
        Tab { head, idx } => {
            let names: Vec<Name> = idx.iter().map(|(n, _)| n.clone()).collect();
            f(&names, head);
            idx.iter().for_each(|(_, b)| f(&[], b));
        }
        Sub(a, ix) => {
            f(&[], a);
            ix.iter().for_each(|c| f(&[], c));
        }
        ArrayLit { dims, items } => dims.iter().chain(items).for_each(|c| f(&[], c)),
    }
}

/// Rebuild `e` with `f` applied to each immediate child. `f` receives
/// the names `e` binds over that child and may rename them in place
/// (capture-avoiding substitution does); the rebuilt node carries the
/// names `f` leaves behind. The first error stops the rebuild. Children
/// are mapped in evaluation order — a `let`'s right-hand side, a
/// comprehension's source and a tabulation's bounds *before* the child
/// under the binders — which is the order the optimizer's trace lists
/// firings in and the order substitution draws fresh names in.
pub fn try_map_children<E>(
    e: &Expr,
    f: &mut impl FnMut(&mut [Name], &Expr) -> Result<Expr, E>,
) -> Result<Expr, E> {
    use Expr::*;
    fn one<E>(
        f: &mut impl FnMut(&mut [Name], &Expr) -> Result<Expr, E>,
        c: &Expr,
    ) -> Result<Box<Expr>, E> {
        f(&mut [], c).map(Box::new)
    }
    // Not `collect::<Result<_, _>>()`: that loses the size hint, and the
    // vectors here are rebuilt once per node per optimizer pass.
    fn all<'a, E>(
        f: &mut impl FnMut(&mut [Name], &Expr) -> Result<Expr, E>,
        cs: impl ExactSizeIterator<Item = &'a Expr>,
    ) -> Result<Vec<Expr>, E> {
        let mut out = Vec::with_capacity(cs.len());
        for c in cs {
            out.push(f(&mut [], c)?);
        }
        Ok(out)
    }
    fn under<E, const N: usize>(
        f: &mut impl FnMut(&mut [Name], &Expr) -> Result<Expr, E>,
        mut names: [Name; N],
        c: &Expr,
    ) -> Result<(Box<Expr>, [Name; N]), E> {
        let c = f(&mut names, c)?;
        Ok((c.boxed(), names))
    }
    Ok(match e {
        Var(_) | Global(_) | Ext(_) | Empty | BagEmpty | Bool(_) | Nat(_) | Real(_)
        | Str(_) | Bottom => e.clone(),
        Lam(x, b) => {
            let (b, [x]) = under(f, [x.clone()], b)?;
            Lam(x, b)
        }
        App(a, b) => App(one(f, a)?, one(f, b)?),
        Let(x, a, b) => {
            let a = one(f, a)?;
            let (b, [x]) = under(f, [x.clone()], b)?;
            Let(x, a, b)
        }
        Tuple(es) => Tuple(all(f, es.iter())?),
        Proj(i, k, a) => Proj(*i, *k, one(f, a)?),
        Single(a) => Single(one(f, a)?),
        Union(a, b) => Union(one(f, a)?, one(f, b)?),
        BigUnion { head, var, src } => {
            let src = one(f, src)?;
            let (head, [var]) = under(f, [var.clone()], head)?;
            BigUnion { head, var, src }
        }
        BigUnionRank { head, var, rank, src } => {
            let src = one(f, src)?;
            let (head, [var, rank]) = under(f, [var.clone(), rank.clone()], head)?;
            BigUnionRank { head, var, rank, src }
        }
        BagSingle(a) => BagSingle(one(f, a)?),
        BagUnion(a, b) => BagUnion(one(f, a)?, one(f, b)?),
        BigBagUnion { head, var, src } => {
            let src = one(f, src)?;
            let (head, [var]) = under(f, [var.clone()], head)?;
            BigBagUnion { head, var, src }
        }
        BigBagUnionRank { head, var, rank, src } => {
            let src = one(f, src)?;
            let (head, [var, rank]) = under(f, [var.clone(), rank.clone()], head)?;
            BigBagUnionRank { head, var, rank, src }
        }
        If(c, t, e2) => If(one(f, c)?, one(f, t)?, one(f, e2)?),
        Cmp(op, a, b) => Cmp(*op, one(f, a)?, one(f, b)?),
        Arith(op, a, b) => Arith(*op, one(f, a)?, one(f, b)?),
        Gen(a) => Gen(one(f, a)?),
        Sum { head, var, src } => {
            let src = one(f, src)?;
            let (head, [var]) = under(f, [var.clone()], head)?;
            Sum { head, var, src }
        }
        Tab { head, idx } => {
            let bounds = all(f, idx.iter().map(|(_, b)| b))?;
            let mut names: Vec<Name> = idx.iter().map(|(n, _)| n.clone()).collect();
            let head = f(&mut names, head)?.boxed();
            Tab { head, idx: names.into_iter().zip(bounds).collect() }
        }
        Sub(a, ix) => Sub(one(f, a)?, all(f, ix.iter())?),
        Dim(k, a) => Dim(*k, one(f, a)?),
        ArrayLit { dims, items } => {
            ArrayLit { dims: all(f, dims.iter())?, items: all(f, items.iter())? }
        }
        Index(k, a) => Index(*k, one(f, a)?),
        Get(a) => Get(one(f, a)?),
        Prim(p, es) => Prim(*p, all(f, es.iter())?),
    })
}

/// Hand `f` each immediate child of `e` to rewrite in place, with the
/// names `e` binds over it, in [`try_map_children`]'s evaluation order
/// (right-hand side, source and bounds before the child under the
/// binders). Nothing is allocated for a child `f` leaves alone. The
/// first error stops the visit; children already rewritten stay so.
pub fn try_for_each_child_mut<E>(
    e: &mut Expr,
    f: &mut impl FnMut(&[Name], &mut Expr) -> Result<(), E>,
) -> Result<(), E> {
    use Expr::*;
    match e {
        Var(_) | Global(_) | Ext(_) | Empty | BagEmpty | Bool(_) | Nat(_) | Real(_)
        | Str(_) | Bottom => Ok(()),
        Lam(x, b) => f(from_ref(x), b),
        Let(x, a, b) => {
            f(&[], a)?;
            f(from_ref(x), b)
        }
        Proj(_, _, a) | Single(a) | BagSingle(a) | Gen(a) | Dim(_, a) | Index(_, a)
        | Get(a) => f(&[], a),
        App(a, b) | Union(a, b) | BagUnion(a, b) | Cmp(_, a, b) | Arith(_, a, b) => {
            f(&[], a)?;
            f(&[], b)
        }
        If(a, b, c) => {
            f(&[], a)?;
            f(&[], b)?;
            f(&[], c)
        }
        Tuple(es) | Prim(_, es) => es.iter_mut().try_for_each(|c| f(&[], c)),
        BigUnion { head, var, src } | BigBagUnion { head, var, src } | Sum { head, var, src } => {
            f(&[], src)?;
            f(from_ref(var), head)
        }
        BigUnionRank { head, var, rank, src } | BigBagUnionRank { head, var, rank, src } => {
            f(&[], src)?;
            f(&[var.clone(), rank.clone()], head)
        }
        Tab { head, idx } => {
            idx.iter_mut().try_for_each(|(_, b)| f(&[], b))?;
            let names: Vec<Name> = idx.iter().map(|(n, _)| n.clone()).collect();
            f(&names, head)
        }
        Sub(a, ix) => {
            f(&[], a)?;
            ix.iter_mut().try_for_each(|c| f(&[], c))
        }
        ArrayLit { dims, items } => dims.iter_mut().chain(items).try_for_each(|c| f(&[], c)),
    }
}

/// [`try_map_children`] for a callback that cannot fail.
pub fn map_children(e: &Expr, f: &mut impl FnMut(&mut [Name], &Expr) -> Expr) -> Expr {
    match try_map_children(e, &mut |names, c| Ok::<Expr, Infallible>(f(names, c))) {
        Ok(rebuilt) => rebuilt,
        Err(never) => match never {},
    }
}
