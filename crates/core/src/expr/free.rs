//! Free variables, capture-avoiding substitution, fresh names, and
//! α-equivalence for NRCA expressions.
//!
//! Substitution is the engine of the optimizer: the rules β, `β^p` and
//! the let-inliner all reduce to `subst`. Fresh names contain a `%`
//! character, which the AQL lexer rejects in identifiers, so generated
//! names can never collide with source variables.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use super::children::{for_each_child, map_children};
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

/// Capture-avoiding substitution `e{x := r}`.
pub fn subst(e: &Expr, x: &str, r: &Expr) -> Expr {
    // Fast path: nothing to do if x is not free in e.
    if !is_free_in(x, e) {
        return e.clone();
    }
    let r_free = free_vars(r);
    subst_in(e, x, r, &r_free)
}

fn subst_in(e: &Expr, x: &str, r: &Expr, r_free: &HashSet<Name>) -> Expr {
    if let Expr::Var(v) = e {
        return if &**v == x { r.clone() } else { e.clone() };
    }
    map_children(e, &mut |binders, child| {
        if binders.iter().any(|b| &**b == x) {
            // x is shadowed: leave the child alone.
            return child.clone();
        }
        // α-rename every binder that would capture a free variable of r.
        let mut renamed = None;
        for b in binders.iter_mut().filter(|b| r_free.contains(&**b)) {
            let nb = fresh(b);
            renamed = Some(subst(renamed.as_ref().unwrap_or(child), b, &Expr::Var(nb.clone())));
            *b = nb;
        }
        subst_in(renamed.as_ref().unwrap_or(child), x, r, r_free)
    })
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
        let e = add(var("x"), nat(1));
        assert_eq!(subst(&e, "x", &nat(41)), add(nat(41), nat(1)));
    }

    #[test]
    fn subst_respects_shadowing() {
        let e = lam("x", var("x"));
        assert_eq!(subst(&e, "x", &nat(5)), e);
        let e = big_union("x", var("x"), single(var("x")));
        let got = subst(&e, "x", &nat(5));
        // Only the source occurrence is free.
        assert_eq!(got, big_union("x", nat(5), single(var("x"))));
    }

    #[test]
    fn subst_avoids_capture() {
        // (λy. x + y){x := y} must not capture the free y.
        let e = lam("y", add(var("x"), var("y")));
        let got = subst(&e, "x", &var("y"));
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
        let e = tab1("i", var("n"), add(var("x"), var("i")));
        let got = subst(&e, "x", &var("i"));
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
        assert_eq!(subst(&e, "i", &nat(9)), e);
        // But a bound expression mentioning i IS substituted.
        let e = tab1("i", var("i"), var("i"));
        let got = subst(&e, "i", &nat(9));
        assert_eq!(got, tab1("i", nat(9), var("i")));
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
