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
//! The table has two readers: [`for_each_child`] reads it and
//! [`try_for_each_child_mut`] rewrites through it in place, binders
//! included. They are the only two functions that match on every
//! constructor merely to reach children (`tests/lint_wall.rs` keeps it
//! so): traversals that do no per-constructor work — free variables,
//! substitution, name resolution, the optimizer's passes — are written
//! on them, so a new constructor is threaded through exactly here.
//! Neither allocates: a pass that rewrites three nodes of a hundred
//! allocates for those three.

use std::convert::Infallible;
use std::slice::{from_mut, from_ref};

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
            f(IndexNames::of(idx).as_mut(), head);
            idx.iter().for_each(|(_, b)| f(&[], b));
        }
        Sub(a, ix) => {
            f(&[], a);
            ix.iter().for_each(|c| f(&[], c));
        }
        ArrayLit { dims, items } => dims.iter().chain(items).for_each(|c| f(&[], c)),
    }
}

/// Hand `f` each immediate child of `e` to rewrite in place, with the
/// names `e` binds over it, which `f` may rename (capture-avoiding
/// substitution does). Children come in evaluation order — a `let`'s
/// right-hand side, a comprehension's source and a tabulation's bounds
/// *before* the child under the binders — which is the order the
/// optimizer's trace lists firings in and the order substitution draws
/// fresh names in. Nothing is allocated for a child `f` leaves alone.
/// The first error stops the visit; children already rewritten stay so.
pub fn try_for_each_child_mut<E>(
    e: &mut Expr,
    f: &mut impl FnMut(&mut [Name], &mut Expr) -> Result<(), E>,
) -> Result<(), E> {
    use Expr::*;
    match e {
        Var(_) | Global(_) | Ext(_) | Empty | BagEmpty | Bool(_) | Nat(_) | Real(_)
        | Str(_) | Bottom => Ok(()),
        Lam(x, b) => f(from_mut(x), b),
        Let(x, a, b) => {
            f(&mut [], a)?;
            f(from_mut(x), b)
        }
        Proj(_, _, a) | Single(a) | BagSingle(a) | Gen(a) | Dim(_, a) | Index(_, a)
        | Get(a) => f(&mut [], a),
        App(a, b) | Union(a, b) | BagUnion(a, b) | Cmp(_, a, b) | Arith(_, a, b) => {
            f(&mut [], a)?;
            f(&mut [], b)
        }
        If(a, b, c) => {
            f(&mut [], a)?;
            f(&mut [], b)?;
            f(&mut [], c)
        }
        Tuple(es) | Prim(_, es) => es.iter_mut().try_for_each(|c| f(&mut [], c)),
        BigUnion { head, var, src } | BigBagUnion { head, var, src } | Sum { head, var, src } => {
            f(&mut [], src)?;
            f(from_mut(var), head)
        }
        BigUnionRank { head, var, rank, src } | BigBagUnionRank { head, var, rank, src } => {
            f(&mut [], src)?;
            let mut names = [var.clone(), rank.clone()];
            let done = f(&mut names, head);
            [*var, *rank] = names;
            done
        }
        Tab { head, idx } => {
            idx.iter_mut().try_for_each(|(_, b)| f(&mut [], b))?;
            let mut names = IndexNames::of(idx);
            let done = f(names.as_mut(), head);
            names.write_back(idx);
            done
        }
        Sub(a, ix) => {
            f(&mut [], a)?;
            ix.iter_mut().try_for_each(|c| f(&mut [], c))
        }
        ArrayLit { dims, items } => dims.iter_mut().chain(items).try_for_each(|c| f(&mut [], c)),
    }
}

/// [`try_for_each_child_mut`] for a callback that cannot fail.
pub fn for_each_child_mut(e: &mut Expr, f: &mut impl FnMut(&mut [Name], &mut Expr)) {
    let Ok(()) = try_for_each_child_mut(e, &mut |names, c| {
        f(names, c);
        Ok::<(), Infallible>(())
    });
}

/// A tabulation's index names as one slice. They sit beside their
/// bounds, so the slice is a copy — of `Rc` handles, on the stack for up
/// to four indices: visiting a tabulation allocates nothing.
enum IndexNames {
    Few([Name; 4], usize),
    Many(Vec<Name>),
}

impl IndexNames {
    fn of(idx: &[(Name, Expr)]) -> IndexNames {
        match idx.len() {
            k @ 1..=4 => IndexNames::Few(std::array::from_fn(|j| idx[j.min(k - 1)].0.clone()), k),
            _ => IndexNames::Many(idx.iter().map(|(n, _)| n.clone()).collect()),
        }
    }

    fn as_mut(&mut self) -> &mut [Name] {
        match self {
            IndexNames::Few(names, k) => &mut names[..*k],
            IndexNames::Many(names) => names,
        }
    }

    /// Store the (possibly renamed) names back beside their bounds.
    fn write_back(mut self, idx: &mut [(Name, Expr)]) {
        for ((n, _), renamed) in idx.iter_mut().zip(self.as_mut()) {
            std::mem::swap(n, renamed);
        }
    }
}
