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

use aql_core::expr::free::{fresh, is_free_in, subst};
use aql_core::expr::{Expr, Head, Name};

use crate::engine::Rule;

/// Extract the per-dimension index expressions of a subscript whose
/// tabulated array has `k` index binders: either `k` separate index
/// expressions or a single literal k-tuple.
fn subscript_components(indices: &[Expr], k: usize) -> Option<Vec<Expr>> {
    if indices.len() == k {
        return Some(indices.to_vec());
    }
    if indices.len() == 1 && k > 1 {
        if let Expr::Tuple(comps) = &indices[0] {
            if comps.len() == k {
                return Some(comps.clone());
            }
        }
    }
    None
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        let Expr::Sub(arr, indices) = e else { return None };
        let Expr::Tab { head, idx } = &**arr else { return None };
        let comps = subscript_components(indices, idx.len())?;

        // α-rename the index binders to fresh names first, so index
        // expressions that happen to mention variables with the same
        // names as later binders cannot be confused during the
        // sequential substitution.
        let mut body = (**head).clone();
        let mut fresh_names: Vec<Name> = Vec::with_capacity(idx.len());
        for (n, _) in idx {
            let f = fresh(n);
            body = subst(&body, n, &Expr::Var(f.clone()));
            fresh_names.push(f);
        }
        for (f, c) in fresh_names.iter().zip(comps.iter()) {
            body = subst(&body, f, c);
        }
        // Wrap in bound checks, outermost dimension first:
        // if e1 < b1 then (… body …) else ⊥.
        let mut out = body;
        for ((_, bound), c) in idx.iter().zip(comps.iter()).rev() {
            out = Expr::If(
                Expr::Cmp(aql_core::expr::CmpOp::Lt, c.clone().boxed(), bound.clone().boxed())
                    .boxed(),
                out.boxed(),
                Expr::Bottom.boxed(),
            );
        }
        Some(out)
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        let Expr::Tab { head, idx } = e else { return None };
        let k = idx.len();
        let Expr::Sub(arr, indices) = &**head else { return None };
        // The subscript must be exactly the index variables in order.
        let comps = subscript_components(indices, k)?;
        for ((n, _), c) in idx.iter().zip(comps.iter()) {
            match c {
                Expr::Var(v) if v == n => {}
                _ => return None,
            }
        }
        // The source array must be index-variable-free.
        for (n, _) in idx {
            if is_free_in(n, arr) {
                return None;
            }
        }
        // Each bound must be the corresponding dimension of the array.
        for (j, (_, bound)) in idx.iter().enumerate() {
            let expect = if k == 1 {
                Expr::Dim(1, arr.clone())
            } else {
                Expr::Proj(j + 1, k, Expr::Dim(k, arr.clone()).boxed())
            };
            if *bound != expect {
                return None;
            }
        }
        Some((**arr).clone())
    }
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        let Expr::Dim(k, arr) = e else { return None };
        let Expr::Tab { idx, .. } = &**arr else { return None };
        if idx.len() != *k {
            return None;
        }
        if *k == 1 {
            Some(idx[0].1.clone())
        } else {
            Some(Expr::Tuple(idx.iter().map(|(_, b)| b.clone()).collect()))
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        let Expr::Sub(arr, indices) = e else { return None };
        let Expr::ArrayLit { dims, items } = &**arr else { return None };
        let dim_vals: Option<Vec<u64>> = dims
            .iter()
            .map(|d| match d {
                Expr::Nat(n) => Some(*n),
                _ => None,
            })
            .collect();
        let dim_vals = dim_vals?;
        let comps = subscript_components(indices, dims.len())?;
        let idx_vals: Option<Vec<u64>> = comps
            .iter()
            .map(|c| match c {
                Expr::Nat(n) => Some(*n),
                _ => None,
            })
            .collect();
        let idx_vals = idx_vals?;
        // Only fire on shape-consistent literals (others are ⊥ at
        // run time and are left to the evaluator).
        let total: u64 = dim_vals.iter().product();
        if total != items.len() as u64 {
            return None;
        }
        let mut off: u64 = 0;
        for (i, d) in idx_vals.iter().zip(dim_vals.iter()) {
            if i >= d {
                return Some(Expr::Bottom);
            }
            off = off * d + i;
        }
        Some(items[off as usize].clone())
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
    fn apply(&self, e: &Expr) -> Option<Expr> {
        let Expr::Dim(k, arr) = e else { return None };
        let Expr::ArrayLit { dims, items } = &**arr else { return None };
        if dims.len() != *k {
            return None;
        }
        // Only when the static shape is consistent (otherwise the
        // literal is ⊥ and dim of ⊥ is ⊥).
        let dim_vals: Option<Vec<u64>> = dims
            .iter()
            .map(|d| match d {
                Expr::Nat(n) => Some(*n),
                _ => None,
            })
            .collect();
        if let Some(ds) = dim_vals {
            let total: u64 = ds.iter().product();
            if total != items.len() as u64 {
                return None;
            }
        }
        if *k == 1 {
            Some(dims[0].clone())
        } else {
            Some(Expr::Tuple(dims.clone()))
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
        let got = BetaPartial.apply(&e).unwrap();
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
        let got = BetaPartial.apply(&e).unwrap();
        assert_eq!(eval_closed(&got).unwrap(), Value::Nat(12));
        // Out-of-bounds also agrees (both ⊥).
        let e = sub(
            tab(vec![("i", nat(2)), ("j", nat(3))], var("i")),
            vec![nat(5), nat(0)],
        );
        let got = BetaPartial.apply(&e).unwrap();
        assert_eq!(eval_closed(&got).unwrap(), Value::Bottom);
    }

    #[test]
    fn beta_p_via_tuple_subscript() {
        let e = sub(
            tab(vec![("i", nat(2)), ("j", nat(2))], var("j")),
            vec![tuple(vec![nat(1), nat(0)])],
        );
        let got = BetaPartial.apply(&e).unwrap();
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
                BetaPartial.apply(body).unwrap().boxed(),
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
        assert_eq!(EtaPartial.apply(&e).unwrap(), var("A"));
        // 2-d: [[ M[i,j] | i < dim_{1,2} M, j < dim_{2,2} M ]] ⤳ M
        let e = tab(
            vec![
                ("i", dim_ik(1, 2, var("M"))),
                ("j", dim_ik(2, 2, var("M"))),
            ],
            sub(var("M"), vec![var("i"), var("j")]),
        );
        assert_eq!(EtaPartial.apply(&e).unwrap(), var("M"));
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
        assert!(EtaPartial.apply(&e).is_none());
        // Wrong bound.
        let e = tab1("i", nat(5), sub(var("A"), vec![var("i")]));
        assert!(EtaPartial.apply(&e).is_none());
        // Source depends on the index variable.
        let e = tab1(
            "i",
            len(var("A")),
            sub(sub(var("A"), vec![var("i")]), vec![var("i")]),
        );
        assert!(EtaPartial.apply(&e).is_none());
    }

    #[test]
    fn delta_p_reads_bounds() {
        let e = len(tab1("i", add(var("n"), nat(1)), mul(var("i"), var("i"))));
        assert_eq!(DeltaPartial.apply(&e).unwrap(), add(var("n"), nat(1)));
        let e = dim(
            2,
            tab(vec![("i", var("m")), ("j", var("n"))], var("i")),
        );
        assert_eq!(
            DeltaPartial.apply(&e).unwrap(),
            tuple(vec![var("m"), var("n")])
        );
    }

    #[test]
    fn literal_rules() {
        let lit = array1_lit(vec![nat(10), nat(20), nat(30)]);
        let e = sub(lit.clone(), vec![nat(2)]);
        assert_eq!(SubOfLiteral.apply(&e).unwrap(), nat(30));
        let e = sub(lit.clone(), vec![nat(9)]);
        assert_eq!(SubOfLiteral.apply(&e).unwrap(), bottom());
        assert_eq!(DimOfLiteral.apply(&len(lit)).unwrap(), nat(3));
        // 2-d literal.
        let m = array_lit(vec![nat(2), nat(2)], vec![nat(1), nat(2), nat(3), nat(4)]);
        let e = sub(m.clone(), vec![nat(1), nat(1)]);
        assert_eq!(SubOfLiteral.apply(&e).unwrap(), nat(4));
        assert_eq!(
            DimOfLiteral.apply(&dim(2, m)).unwrap(),
            tuple(vec![nat(2), nat(2)])
        );
        // Inconsistent static shape: leave for the evaluator.
        let bad = array_lit(vec![nat(2)], vec![nat(1), nat(2), nat(3)]);
        assert!(SubOfLiteral.apply(&sub(bad.clone(), vec![nat(0)])).is_none());
        assert!(DimOfLiteral.apply(&len(bad)).is_none());
    }
}
