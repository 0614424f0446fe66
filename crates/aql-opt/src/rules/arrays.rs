//! The three array rules of §5 — the heart of the paper's optimizer —
//! generalised to k dimensions, plus literal-array counterparts.
//!
//! ```text
//! (β^p)  [[e1 | i < e2]][e3]      ⤳  if e3 < e2 then e1{i := e3} else ⊥
//! (η^p)  [[e[i] | i < len(e)]]    ⤳  e
//! (δ^p)  len([[e1 | i < e2]])     ⤳  e2
//! ```
//!
//! `β^p` avoids *materialising* the tabulated array when only some
//! elements are demanded; `η^p` avoids retabulating an existing array;
//! `δ^p` computes dimensions without tabulating (sound for error-free
//! bodies, as the paper notes). Experiments E3, E5 and E6 measure
//! exactly these effects.

use aql_core::expr::free::{is_free_in, subst_all};
use aql_core::expr::{CmpOp, Expr, Head};

use crate::engine::Rule;

/// The per-dimension index expressions of a subscript whose array has
/// `k` dimensions: either `k` separate index expressions or a single
/// literal k-tuple.
fn subscript_components(indices: &[Expr], k: usize) -> Option<&[Expr]> {
    match indices {
        _ if indices.len() == k => Some(indices),
        [Expr::Tuple(comps)] if k > 1 && comps.len() == k => Some(comps),
        _ => None,
    }
}

/// [`subscript_components`], taking them: `Err` hands `indices` back.
fn into_components(mut indices: Vec<Expr>, k: usize) -> Result<Vec<Expr>, Vec<Expr>> {
    match subscript_components(&indices, k) {
        Some(comps) if comps.len() == indices.len() => Ok(indices),
        Some(_) => match indices.pop() {
            Some(Expr::Tuple(comps)) => Ok(comps),
            _ => unreachable!("a single k-tuple, matched above"),
        },
        None => Err(indices),
    }
}

/// The natural literal `e` is, if it is one.
fn nat_lit(e: &Expr) -> Option<u64> {
    match e {
        Expr::Nat(n) => Some(*n),
        _ => None,
    }
}

/// `β^p`: subscripting a tabulation becomes a bound-checked
/// substitution, element by element — no intermediate array.
pub struct BetaPartial;

impl Rule for BetaPartial {
    fn name(&self) -> &'static str {
        "beta-p"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Sub]
    }
    fn substitutes(&self) -> bool { true }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        let Expr::Sub(arr, indices) = e else { return Err(e) };
        let Expr::Tab { idx, .. } = &*arr else { return Err(Expr::Sub(arr, indices)) };
        let mut comps = match into_components(indices, idx.len()) {
            Ok(comps) => comps,
            Err(indices) => return Err(Expr::Sub(arr, indices)),
        };
        let Expr::Tab { mut head, mut idx } = *arr else { unreachable!("matched above") };
        // Each index expression goes beside its binder, to be substituted
        // for it — all at once, so that an index mentioning a variable
        // named like a later binder is not substituted again — and its
        // bound check, `c_j < b_j`, takes the bound's place.
        for ((_, bound), c) in idx.iter_mut().zip(comps.iter_mut()) {
            let check = Expr::Cmp(CmpOp::Lt, c.clone().boxed(), bound.take().boxed());
            *bound = std::mem::replace(c, check);
        }
        subst_all(&mut head, &mut idx);
        // if c1 < b1 then (… body …) else ⊥, outermost dimension first.
        let wrap = |body: Expr, check: Expr| Expr::If(check.boxed(), body.boxed(), Expr::Bottom.boxed());
        Ok(comps.into_iter().rev().fold(*head, wrap))
    }
}

/// `η^p`: a tabulation that copies an existing array verbatim *is*
/// that array. Matches `[[e[i1,…,ik] | i1 < dim_{1,k}(e), …]]` where
/// `e` does not mention the index variables.
pub struct EtaPartial;

impl Rule for EtaPartial {
    fn name(&self) -> &'static str {
        "eta-p"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Tab]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        if !copies_an_array(&e) {
            return Err(e);
        }
        let Expr::Tab { head, .. } = &mut e else { return Err(e) };
        let Expr::Sub(arr, _) = &mut **head else { return Err(e) };
        Ok(arr.take())
    }
}

/// Is `e` `[[a[i1,…,ik] | i1 < dim_{1,k}(a), …]]` with `a` free of the
/// index variables?
fn copies_an_array(e: &Expr) -> bool {
    let Expr::Tab { head, idx } = e else { return false };
    let k = idx.len();
    let Expr::Sub(arr, indices) = &**head else { return false };
    // The subscript must be exactly the index variables in order.
    let Some(comps) = subscript_components(indices, k) else { return false };
    let dim_of_arr = |d: &Expr| matches!(d, Expr::Dim(kd, a) if *kd == k && **a == **arr);
    // Each bound must be the corresponding dimension of the array.
    let is_dim = |j: usize, bound: &Expr| match bound {
        _ if k == 1 => dim_of_arr(bound),
        Expr::Proj(i, kp, d) => *i == j + 1 && *kp == k && dim_of_arr(d),
        _ => false,
    };
    idx.iter().zip(comps).all(|((n, _), c)| matches!(c, Expr::Var(v) if v == n))
        && idx.iter().all(|(n, _)| !is_free_in(n, arr))
        && idx.iter().enumerate().all(|(j, (_, bound))| is_dim(j, bound))
}

/// `δ^p`: the dimensions of a tabulation are its bounds — no
/// tabulation needed. Sound when the body is error-free (§5).
pub struct DeltaPartial;

impl Rule for DeltaPartial {
    fn name(&self) -> &'static str {
        "delta-p"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Dim]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        let Expr::Dim(k, arr) = &mut e else { return Err(e) };
        let Expr::Tab { idx, .. } = &mut **arr else { return Err(e) };
        match idx.len() {
            n if n != *k => Err(e),
            1 => Ok(idx[0].1.take()),
            _ => Ok(Expr::Tuple(idx.iter_mut().map(|(_, b)| b.take()).collect())),
        }
    }
}

/// Subscripting a *literal* array at literal indices selects the item
/// statically (`⊥` when out of bounds). The literal analogue of `β^p`.
pub struct SubOfLiteral;

impl Rule for SubOfLiteral {
    fn name(&self) -> &'static str {
        "sub-of-literal"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Sub]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        let Expr::Sub(arr, indices) = &mut e else { return Err(e) };
        let Expr::ArrayLit { dims, items } = &mut **arr else { return Err(e) };
        let Some(total) = dims.iter().map(nat_lit).product::<Option<u64>>() else { return Err(e) };
        let Some(comps) = subscript_components(indices, dims.len()) else { return Err(e) };
        if !comps.iter().all(|c| nat_lit(c).is_some()) {
            return Err(e);
        }
        // Only fire on shape-consistent literals (others are ⊥ at
        // run time and are left to the evaluator).
        if total != items.len() as u64 {
            return Err(e);
        }
        let mut off: u64 = 0;
        for (i, d) in comps.iter().filter_map(nat_lit).zip(dims.iter().filter_map(nat_lit)) {
            if i >= d {
                return Ok(Expr::Bottom);
            }
            off = off * d + i;
        }
        Ok(items[off as usize].take())
    }
}

/// `dim_k` of a literal array reads the dimension expressions directly.
pub struct DimOfLiteral;

impl Rule for DimOfLiteral {
    fn name(&self) -> &'static str {
        "dim-of-literal"
    }
    fn heads(&self) -> &'static [Head] {
        &[Head::Dim]
    }
    fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
        let Expr::Dim(k, arr) = &mut e else { return Err(e) };
        let Expr::ArrayLit { dims, items } = &mut **arr else { return Err(e) };
        // Only when the static shape is consistent (otherwise the
        // literal is ⊥ and dim of ⊥ is ⊥).
        let inconsistent = dims
            .iter()
            .map(nat_lit)
            .product::<Option<u64>>()
            .is_some_and(|total| total != items.len() as u64);
        match dims.len() {
            n if n != *k || inconsistent => Err(e),
            1 => Ok(dims[0].take()),
            _ => Ok(Expr::Tuple(std::mem::take(dims))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::eval::eval_closed;
    use aql_core::expr::builder::*;
    use aql_core::expr::free::alpha_eq;
    use aql_core::value::Value;

    #[test]
    fn beta_p_one_dim() {
        // [[ i*2 | i < 10 ]][3] ⤳ if 3 < 10 then 3*2 else ⊥
        let e = sub(tab1("i", nat(10), mul(var("i"), nat(2))), vec![nat(3)]);
        let got = BetaPartial.apply(e.clone()).unwrap();
        let expect = iff(lt(nat(3), nat(10)), mul(nat(3), nat(2)), bottom());
        assert!(alpha_eq(&got, &expect), "got {got}");
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&got).unwrap());
    }

    #[test]
    fn beta_p_multi_dim() {
        let e = sub(
            tab(
                vec![("i", nat(2)), ("j", nat(3))],
                add(mul(var("i"), nat(10)), var("j")),
            ),
            vec![nat(1), nat(2)],
        );
        let got = BetaPartial.apply(e.clone()).unwrap();
        assert_eq!(eval_closed(&got).unwrap(), Value::Nat(12));
        // Out-of-bounds also agrees (both ⊥).
        let e = sub(
            tab(vec![("i", nat(2)), ("j", nat(3))], var("i")),
            vec![nat(5), nat(0)],
        );
        let got = BetaPartial.apply(e.clone()).unwrap();
        assert_eq!(eval_closed(&got).unwrap(), Value::Bottom);
    }

    #[test]
    fn beta_p_via_tuple_subscript() {
        let e = sub(
            tab(vec![("i", nat(2)), ("j", nat(2))], var("j")),
            vec![tuple(vec![nat(1), nat(0)])],
        );
        let got = BetaPartial.apply(e.clone()).unwrap();
        assert_eq!(eval_closed(&got).unwrap(), Value::Nat(0));
    }

    #[test]
    fn beta_p_name_collision_is_safe() {
        // [[ i + j | i < 5, j < 5 ]][j, 0] where the outer `j` is a
        // different variable: substitution must not confuse them.
        // Build with an outer binding j = 2.
        let inner = sub(
            tab(
                vec![("i", nat(5)), ("j", nat(5))],
                add(var("i"), var("j")),
            ),
            vec![var("j"), nat(0)],
        );
        let e = let_("j", nat(2), inner);
        // Rewrite the subscript inside the let.
        let rewritten = match &e {
            Expr::Let(x, b, body) => Expr::Let(
                x.clone(),
                b.clone(),
                BetaPartial.apply((**body).clone()).unwrap().boxed(),
            ),
            _ => unreachable!(),
        };
        assert_eq!(eval_closed(&e).unwrap(), eval_closed(&rewritten).unwrap());
        assert_eq!(eval_closed(&rewritten).unwrap(), Value::Nat(2));
    }

    #[test]
    fn eta_p_contracts_copy() {
        // [[ A[i] | i < len A ]] ⤳ A
        let e = tab1("i", len(var("A")), sub(var("A"), vec![var("i")]));
        assert_eq!(EtaPartial.apply(e.clone()).unwrap(), var("A"));
        // 2-d: [[ M[i,j] | i < dim_{1,2} M, j < dim_{2,2} M ]] ⤳ M
        let e = tab(
            vec![
                ("i", dim_ik(1, 2, var("M"))),
                ("j", dim_ik(2, 2, var("M"))),
            ],
            sub(var("M"), vec![var("i"), var("j")]),
        );
        assert_eq!(EtaPartial.apply(e.clone()).unwrap(), var("M"));
    }

    #[test]
    fn eta_p_rejects_non_copies() {
        // Transposed indices are not a copy.
        let e = tab(
            vec![
                ("i", dim_ik(1, 2, var("M"))),
                ("j", dim_ik(2, 2, var("M"))),
            ],
            sub(var("M"), vec![var("j"), var("i")]),
        );
        assert!(EtaPartial.apply(e.clone()).is_err());
        // Wrong bound.
        let e = tab1("i", nat(5), sub(var("A"), vec![var("i")]));
        assert!(EtaPartial.apply(e.clone()).is_err());
        // Source depends on the index variable.
        let e = tab1(
            "i",
            len(var("A")),
            sub(sub(var("A"), vec![var("i")]), vec![var("i")]),
        );
        assert!(EtaPartial.apply(e.clone()).is_err());
    }

    #[test]
    fn delta_p_reads_bounds() {
        let e = len(tab1("i", add(var("n"), nat(1)), mul(var("i"), var("i"))));
        assert_eq!(DeltaPartial.apply(e.clone()).unwrap(), add(var("n"), nat(1)));
        let e = dim(
            2,
            tab(vec![("i", var("m")), ("j", var("n"))], var("i")),
        );
        assert_eq!(
            DeltaPartial.apply(e.clone()).unwrap(),
            tuple(vec![var("m"), var("n")])
        );
    }

    #[test]
    fn literal_rules() {
        let lit = array1_lit(vec![nat(10), nat(20), nat(30)]);
        let e = sub(lit.clone(), vec![nat(2)]);
        assert_eq!(SubOfLiteral.apply(e.clone()).unwrap(), nat(30));
        let e = sub(lit.clone(), vec![nat(9)]);
        assert_eq!(SubOfLiteral.apply(e.clone()).unwrap(), bottom());
        assert_eq!(DimOfLiteral.apply(len(lit)).unwrap(), nat(3));
        // 2-d literal.
        let m = array_lit(vec![nat(2), nat(2)], vec![nat(1), nat(2), nat(3), nat(4)]);
        let e = sub(m.clone(), vec![nat(1), nat(1)]);
        assert_eq!(SubOfLiteral.apply(e.clone()).unwrap(), nat(4));
        assert_eq!(
            DimOfLiteral.apply(dim(2, m)).unwrap(),
            tuple(vec![nat(2), nat(2)])
        );
        // Inconsistent static shape: leave for the evaluator.
        let bad = array_lit(vec![nat(2)], vec![nat(1), nat(2), nat(3)]);
        assert!(SubOfLiteral.apply(sub(bad.clone(), vec![nat(0)])).is_err());
        assert!(DimOfLiteral.apply(len(bad)).is_err());
    }
}
