//! Free variables, capture-avoiding substitution, fresh names, and
//! α-equivalence for NRCA expressions.
//!
//! Substitution is the engine of the optimizer: the rules β, `β^p` and
//! the let-inliner all reduce to `subst`. Fresh names contain a `%`
//! character, which the AQL lexer rejects in identifiers, so generated
//! names can never collide with source variables.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use super::children::{for_each_child, try_for_each_child_mut};
use super::{name, Expr, Name};

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Produce a globally fresh variable name derived from `base`.
pub fn fresh(base: &str) -> Name {
    let n = FRESH_COUNTER.fetch_add(1, Ordering::Relaxed);
    let base = base.split('%').next().unwrap_or(base);
    name(&format!("{base}%{n}"))
}

/// The set of free variables of an expression.
pub fn free_vars(e: &Expr) -> HashSet<Name> {
    let mut out = HashSet::new();
    collect_free(e, &mut Vec::new(), &mut out);
    out
}

/// Is `x` free in `e`? A search, not a [`free_vars`] set: this is
/// `subst`'s fast path and the side condition of the promotion rules,
/// asked far more often than it is true.
pub fn is_free_in(x: &str, e: &Expr) -> bool {
    if let Expr::Var(v) = e {
        return &**v == x;
    }
    let mut found = false;
    for_each_child(e, &mut |binders, child| {
        found = found || (!binders.iter().any(|b| &**b == x) && is_free_in(x, child));
    });
    found
}

fn collect_free(e: &Expr, bound: &mut Vec<Name>, out: &mut HashSet<Name>) {
    if let Expr::Var(x) = e {
        if !bound.contains(x) {
            out.insert(x.clone());
        }
        return;
    }
    for_each_child(e, &mut |binders, child| {
        bound.extend_from_slice(binders);
        collect_free(child, bound, out);
        bound.truncate(bound.len() - binders.len());
    });
}

/// Capture-avoiding substitution `e{x := r}`, in place. `r` moves into
/// the last occurrence of `x` and is cloned for the others; a binder
/// that would capture a free variable of `r` is renamed to a fresh name,
/// only in a child where `x` is free.
pub fn subst(e: &mut Expr, x: &str, r: Expr) {
    Subst::run(e, &mut [Pending { x, r: Some(r), left: 0, shadowed: 0 }]);
}

/// Simultaneous capture-avoiding substitution `e{x1 := r1, …, xk := rk}`,
/// in place: no `r_j` is searched for another `x`. Each `r_j` is moved
/// out of `subs` (leaving `⊥`) into the last occurrence of its `x_j`.
pub fn subst_all(e: &mut Expr, subs: &mut [(Name, Expr)]) {
    let mut pending: Vec<Pending<'_>> = subs
        .iter_mut()
        .map(|(x, r)| Pending { x, r: Some(r.take()), left: 0, shadowed: 0 })
        .collect();
    Subst::run(e, &mut pending);
}

/// One variable of a substitution: its replacement, the occurrences not
/// yet replaced, and how many binders on the walk's path shadow it.
struct Pending<'x> {
    x: &'x str,
    r: Option<Expr>,
    left: usize,
    shadowed: usize,
}

/// The walk: a count of the free occurrences, then a rewrite in place
/// that stops at the last of them.
struct Subst<'s, 'x> {
    subs: &'s mut [Pending<'x>],
    left: usize,
    /// The free variables of the replacements, computed at the first
    /// binder that might capture one.
    r_free: Option<HashSet<Name>>,
}

impl<'s, 'x> Subst<'s, 'x> {
    fn run(e: &mut Expr, subs: &'s mut [Pending<'x>]) {
        let mut walk = Subst { subs, left: 0, r_free: None };
        walk.count(e);
        walk.left = walk.subs.iter().map(|p| p.left).sum();
        if walk.left > 0 {
            let _ = walk.rewrite(e);
        }
    }

    /// The substituted variable `v` names, if any and not shadowed.
    fn pending(&mut self, v: &str) -> Option<&mut Pending<'x>> {
        self.subs.iter_mut().find(|p| p.shadowed == 0 && p.x == v)
    }

    /// Enter or leave the scope of `binders`; on entry, whether any
    /// occurrence still to be replaced can lie inside.
    fn shadow(&mut self, binders: &[Name], enter: bool) -> bool {
        let mut live = false;
        for p in self.subs.iter_mut() {
            if binders.iter().any(|b| &**b == p.x) {
                p.shadowed = if enter { p.shadowed + 1 } else { p.shadowed - 1 };
            }
            live |= p.shadowed == 0 && p.left > 0;
        }
        live
    }

    fn count(&mut self, e: &Expr) {
        if let Expr::Var(v) = e {
            if let Some(p) = self.pending(v) {
                p.left += 1;
            }
            return;
        }
        for_each_child(e, &mut |binders, child| {
            self.shadow(binders, true);
            self.count(child);
            self.shadow(binders, false);
        });
    }

    /// `Err` once every occurrence is replaced: nothing is left to do.
    fn rewrite(&mut self, e: &mut Expr) -> Result<(), ()> {
        if let Expr::Var(v) = e {
            let Some(p) = self.pending(v) else { return Ok(()) };
            p.left -= 1;
            *e = match p.left {
                0 => p.r.take().expect("an occurrence is counted once, so r is moved once"),
                _ => p.r.clone().expect("r moves at the last occurrence"),
            };
            self.left -= 1;
            return if self.left == 0 { Err(()) } else { Ok(()) };
        }
        try_for_each_child_mut(e, &mut |binders, child| {
            if binders.is_empty() {
                return self.rewrite(child);
            }
            let done = if self.shadow(binders, true) { self.under(binders, child) } else { Ok(()) };
            self.shadow(binders, false);
            done
        })
    }

    /// Rewrite `child` under `binders`, first α-renaming every binder that
    /// would capture a free variable of a replacement — if a variable
    /// still to be replaced is free in `child` at all.
    fn under(&mut self, binders: &mut [Name], child: &mut Expr) -> Result<(), ()> {
        let subs = self.subs.iter().filter_map(|p| p.r.as_ref());
        let r_free = self.r_free.get_or_insert_with(|| {
            let mut fv = HashSet::new();
            subs.for_each(|r| collect_free(r, &mut Vec::new(), &mut fv));
            fv
        });
        if binders.iter().any(|b| r_free.contains(b)) {
            let live = |p: &Pending<'_>| p.shadowed == 0 && p.left > 0;
            if !self.subs.iter().any(|p| live(p) && is_free_in(p.x, child)) {
                return Ok(());
            }
            for j in 0..binders.len() {
                if !self.r_free.as_ref().is_some_and(|fv| fv.contains(&binders[j])) {
                    continue;
                }
                // Renamed, the binder no longer shadows what it named.
                self.shadow(&binders[j..=j], false);
                let nb = fresh(&binders[j]);
                subst(child, &binders[j], Expr::Var(nb.clone()));
                binders[j] = nb;
            }
        }
        self.rewrite(child)
    }
}

/// α-equivalence: equality up to consistent renaming of bound
/// variables. The optimizer's convergence assertions ("both pipelines
/// reduce to the same query, up to variable renaming", §5) use this.
pub fn alpha_eq(a: &Expr, b: &Expr) -> bool {
    /// Same constructor and same payload, children and binder names
    /// aside.
    fn same_node(a: &Expr, b: &Expr) -> bool {
        use Expr::*;
        match (a, b) {
            (Global(x), Global(y)) | (Ext(x), Ext(y)) => x == y,
            (Bool(x), Bool(y)) => x == y,
            (Nat(x), Nat(y)) => x == y,
            (Real(x), Real(y)) => x.total_cmp(y).is_eq(),
            (Str(x), Str(y)) => x == y,
            (Proj(i1, k1, _), Proj(i2, k2, _)) => i1 == i2 && k1 == k2,
            (Cmp(o1, ..), Cmp(o2, ..)) => o1 == o2,
            (Arith(o1, ..), Arith(o2, ..)) => o1 == o2,
            (Dim(k1, _), Dim(k2, _)) | (Index(k1, _), Index(k2, _)) => k1 == k2,
            (Prim(p1, _), Prim(p2, _)) => p1 == p2,
            // Dimensions and items are one child list: the split must agree.
            (ArrayLit { dims: d1, .. }, ArrayLit { dims: d2, .. }) => d1.len() == d2.len(),
            _ => std::mem::discriminant(a) == std::mem::discriminant(b),
        }
    }
    fn children(e: &Expr) -> Vec<(Vec<Name>, &Expr)> {
        let mut out = Vec::new();
        for_each_child(e, &mut |binders, child| out.push((binders.to_vec(), child)));
        out
    }
    fn go(a: &Expr, b: &Expr, env: &mut Vec<(Name, Name)>) -> bool {
        if let (Expr::Var(x), Expr::Var(y)) = (a, b) {
            // Resolve both sides through the renaming environment.
            let bound_left = env.iter().rposition(|(l, _)| l == x);
            let bound_right = env.iter().rposition(|(_, r)| r == y);
            return match (bound_left, bound_right) {
                (Some(i), Some(j)) => i == j,
                (None, None) => x == y,
                _ => false,
            };
        }
        if !same_node(a, b) {
            return false;
        }
        let (ca, cb) = (children(a), children(b));
        ca.len() == cb.len()
            && ca.iter().zip(&cb).all(|((xs, c1), (ys, c2))| {
                xs.len() == ys.len() && {
                    env.extend(xs.iter().cloned().zip(ys.iter().cloned()));
                    let eq = go(c1, c2, env);
                    env.truncate(env.len() - xs.len());
                    eq
                }
            })
    }
    go(a, b, &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::super::builder::*;
    use super::*;

    #[test]
    fn free_vars_respect_binders() {
        let e = lam("x", add(var("x"), var("y")));
        let fv = free_vars(&e);
        assert_eq!(fv.len(), 1);
        assert!(is_free_in("y", &e));
        assert!(!is_free_in("x", &e));
    }

    #[test]
    fn tab_bounds_are_outside_binders() {
        // [[ a[i] | i < i ]] — the bound `i` refers to an *outer* i.
        let e = tab1("i", var("i"), sub(var("a"), vec![var("i")]));
        assert!(is_free_in("i", &e), "the bound occurrence is free");
    }

    #[test]
    fn subst_basic() {
        let mut e = add(var("x"), nat(1));
        subst(&mut e, "x", nat(41));
        assert_eq!(e, add(nat(41), nat(1)));
    }

    #[test]
    fn subst_respects_shadowing() {
        let e = lam("x", var("x"));
        let mut got = e.clone();
        subst(&mut got, "x", nat(5));
        assert_eq!(got, e);
        let mut got = big_union("x", var("x"), single(var("x")));
        subst(&mut got, "x", nat(5));
        // Only the source occurrence is free.
        assert_eq!(got, big_union("x", nat(5), single(var("x"))));
    }

    #[test]
    fn subst_avoids_capture() {
        // (λy. x + y){x := y} must not capture the free y.
        let mut got = lam("y", add(var("x"), var("y")));
        subst(&mut got, "x", var("y"));
        if let Expr::Lam(ny, body) = &got {
            assert_ne!(&**ny, "y", "binder must have been renamed");
            assert_eq!(**body, add(var("y"), Expr::Var(ny.clone())));
        } else {
            panic!("expected lambda, got {got:?}");
        }
    }

    #[test]
    fn subst_avoids_capture_in_tab() {
        // [[ x + i | i < n ]]{x := i} must rename the tabulation index.
        let mut got = tab1("i", var("n"), add(var("x"), var("i")));
        subst(&mut got, "x", var("i"));
        if let Expr::Tab { head, idx } = &got {
            let ni = &idx[0].0;
            assert_ne!(&**ni, "i");
            assert_eq!(**head, add(var("i"), Expr::Var(ni.clone())));
        } else {
            panic!("expected tab, got {got:?}");
        }
    }

    #[test]
    fn subst_shadowed_tab_index() {
        // [[ i | i < n ]]{i := 9}: the head i is bound, the bound n is not i.
        let e = tab1("i", var("n"), var("i"));
        let mut got = e.clone();
        subst(&mut got, "i", nat(9));
        assert_eq!(got, e);
        // But a bound expression mentioning i IS substituted.
        let mut got = tab1("i", var("i"), var("i"));
        subst(&mut got, "i", nat(9));
        assert_eq!(got, tab1("i", nat(9), var("i")));
    }

    #[test]
    fn subst_renames_only_where_x_is_free() {
        // (λy. y, λy. x){x := y}: only the second λ would capture.
        let mut got = tuple(vec![lam("y", var("y")), lam("y", var("x"))]);
        subst(&mut got, "x", var("y"));
        let Expr::Tuple(items) = &got else { panic!("expected tuple, got {got}") };
        assert_eq!(items[0], lam("y", var("y")), "no x here, so no renaming");
        let Expr::Lam(ny, body) = &items[1] else { panic!("expected lambda, got {got}") };
        assert_ne!(&**ny, "y");
        assert_eq!(**body, var("y"));
    }

    #[test]
    fn simultaneous_substitution_does_not_resubstitute() {
        // (x, y){x := y, y := x} swaps: no replacement is searched again.
        let mut got = tuple(vec![var("x"), var("y"), var("x")]);
        subst_all(&mut got, &mut [(name("x"), var("y")), (name("y"), var("x"))]);
        assert_eq!(got, tuple(vec![var("y"), var("x"), var("y")]));
        // A binder shadows only the variable it names.
        let mut got = lam("x", add(var("x"), var("y")));
        subst_all(&mut got, &mut [(name("x"), nat(1)), (name("y"), nat(2))]);
        assert_eq!(got, lam("x", add(var("x"), nat(2))));
        // …and is renamed when a replacement of another would be captured.
        let mut got = lam("x", add(var("x"), var("y")));
        subst_all(&mut got, &mut [(name("x"), nat(1)), (name("y"), var("x"))]);
        let Expr::Lam(nx, body) = &got else { panic!("expected lambda, got {got}") };
        assert_ne!(&**nx, "x");
        assert_eq!(**body, add(Expr::Var(nx.clone()), var("x")));
    }

    #[test]
    fn alpha_equivalence() {
        let a = lam("x", add(var("x"), var("z")));
        let b = lam("y", add(var("y"), var("z")));
        assert!(alpha_eq(&a, &b));
        let c = lam("y", add(var("y"), var("w")));
        assert!(!alpha_eq(&a, &c), "different free variables");
        let t1 = tab(vec![("i", var("m")), ("j", var("n"))], var("i"));
        let t2 = tab(vec![("p", var("m")), ("q", var("n"))], var("p"));
        let t3 = tab(vec![("p", var("m")), ("q", var("n"))], var("q"));
        assert!(alpha_eq(&t1, &t2));
        assert!(!alpha_eq(&t1, &t3));
    }

    #[test]
    fn alpha_eq_mixed_bound_free_fails() {
        // λx.x vs λy.z — bound vs free occurrence.
        assert!(!alpha_eq(&lam("x", var("x")), &lam("y", var("z"))));
        assert!(!alpha_eq(&lam("x", var("z")), &lam("y", var("y"))));
    }

    #[test]
    fn fresh_names_are_distinct_and_unparseable() {
        let a = fresh("x");
        let b = fresh("x");
        assert_ne!(a, b);
        assert!(a.contains('%'));
        // Re-freshening a fresh name keeps the original base.
        let c = fresh(&a);
        assert!(c.starts_with("x%"));
    }
}
