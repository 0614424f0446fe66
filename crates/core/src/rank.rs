//! The expressiveness results of §6, made executable.
//!
//! §6 proves that adding arrays to a complex-object language is
//! precisely adding *ranking*: `NRCA ≡ NRC^aggr(gen) ≡ NRC_r ≡ NBC_r`.
//! The ranked unions `∪_r` / `⨄_r` are first-class constructs of this
//! implementation ([`Expr::BigUnionRank`], [`Expr::BigBagUnionRank`]).
//! This module provides
//!
//! * the **object translation `°`** of Theorem 6.1, which maps NRCA
//!   objects (with arrays and `⊥`) into pure `NRC^aggr` objects — each
//!   object becomes a pair whose second component flags errors, and
//!   arrays become their graphs ([`encode_obj`] / [`decode_obj`]);
//! * derived NRC_r queries witnessing the equivalences: [`rank_expr`]
//!   (rank a set), [`set_to_array`] (ranking ⇒ arrays) and
//!   [`evenpos_on_graph`] (an array query run on the graph encoding).
//!
//! Tests in this module and in `tests/expressiveness.rs` check the
//! translations agree with the native array semantics.

use std::rc::Rc;

use crate::error::EvalError;
use crate::expr::builder::*;
use crate::expr::free::fresh;
use crate::expr::Expr;
use crate::types::Type;
use crate::value::{ArrayVal, CoSet, Value};

/// The first component of the `°` translation of §6: base values
/// become singletons, tuples become singleton sets of translated
/// tuples, sets translate pointwise, arrays become their (translated)
/// graphs `{(v_i°, i)}`, and `⊥` becomes `{}`.
///
/// Bags are outside the translation's source language and are
/// rejected; function values cannot occur in objects.
pub fn encode_core(v: &Value) -> Result<Value, EvalError> {
    Ok(match v {
        Value::Bool(_) | Value::Nat(_) | Value::Real(_) | Value::Str(_) => {
            Value::set(vec![v.clone()])
        }
        Value::Tuple(items) => {
            let enc: Result<Vec<Value>, EvalError> = items.iter().map(encode_core).collect();
            Value::set(vec![Value::tuple(enc?)])
        }
        Value::Set(s) => {
            let enc: Result<Vec<Value>, EvalError> = s.iter().map(encode_core).collect();
            Value::set(enc?)
        }
        Value::Array(a) => {
            if a.rank() != 1 {
                return Err(EvalError::IllTyped(
                    "the §6 translation is stated for one-dimensional arrays".into(),
                ));
            }
            let mut pairs = Vec::with_capacity(a.len());
            for (i, x) in a.data().iter().enumerate() {
                pairs.push(Value::tuple(vec![encode_core(x)?, Value::Nat(i as u64)]));
            }
            Value::set(pairs)
        }
        Value::Bottom => Value::set(vec![]),
        Value::Bag(_) | Value::Closure(_) | Value::Native(_) => {
            return Err(EvalError::IllTyped(format!(
                "value {v} is outside the §6 translation"
            )))
        }
    })
}

/// The full `°` translation: a pair `(core, flag)` where the flag set
/// is empty for ordinary values and `{0}` for the error value `⊥`.
pub fn encode_obj(v: &Value) -> Result<Value, EvalError> {
    let flag = if v.is_bottom() {
        Value::set(vec![Value::Nat(0)])
    } else {
        Value::set(vec![])
    };
    Ok(Value::tuple(vec![encode_core(v)?, flag]))
}

/// Invert [`encode_obj`] at a known type.
pub fn decode_obj(t: &Type, v: &Value) -> Result<Value, EvalError> {
    let pair = v.as_tuple()?;
    if pair.len() != 2 {
        return Err(EvalError::IllTyped("encoded object must be a pair".into()));
    }
    if !pair[1].as_set()?.is_empty() {
        return Ok(Value::Bottom);
    }
    decode_core(t, &pair[0])
}

fn decode_core(t: &Type, v: &Value) -> Result<Value, EvalError> {
    let s = v.as_set()?;
    match t {
        Type::Bool | Type::Nat | Type::Real | Type::Str | Type::Base(_) => {
            if s.len() != 1 {
                return Err(EvalError::IllTyped(
                    "base encoding must be a singleton".into(),
                ));
            }
            Ok(s.iter().next().expect("len 1").clone())
        }
        Type::Tuple(comps) => {
            if s.len() != 1 {
                return Err(EvalError::IllTyped(
                    "tuple encoding must be a singleton".into(),
                ));
            }
            let inner = s.iter().next().expect("len 1").as_tuple()?;
            if inner.len() != comps.len() {
                return Err(EvalError::IllTyped("tuple arity mismatch".into()));
            }
            let dec: Result<Vec<Value>, EvalError> = comps
                .iter()
                .zip(inner.iter())
                .map(|(ct, cv)| decode_core(ct, cv))
                .collect();
            Ok(Value::tuple(dec?))
        }
        Type::Set(elem) => {
            let dec: Result<Vec<Value>, EvalError> =
                s.iter().map(|x| decode_core(elem, x)).collect();
            Ok(Value::set(dec?))
        }
        Type::Array(elem, 1) => {
            let mut pairs: Vec<(u64, Value)> = Vec::with_capacity(s.len());
            for p in s.iter() {
                let t2 = p.as_tuple()?;
                pairs.push((t2[1].as_nat()?, decode_core(elem, &t2[0])?));
            }
            pairs.sort_by_key(|(i, _)| *i);
            // The graph of an array is total on 0..n.
            for (expect, (i, _)) in pairs.iter().enumerate() {
                if *i != expect as u64 {
                    return Err(EvalError::IllTyped(
                        "array encoding has holes or duplicates".into(),
                    ));
                }
            }
            let data: Vec<Value> = pairs.into_iter().map(|(_, v)| v).collect();
            let n = data.len() as u64;
            Ok(Value::Array(Rc::new(
                ArrayVal::new(vec![n], data).expect("consistent"),
            )))
        }
        other => Err(EvalError::IllTyped(format!(
            "type {other} is outside the §6 translation"
        ))),
    }
}

/// `rank(X)` as an NRC_r expression (§6): `∪_r{ {(x, i)} | x_i ∈ X }`.
pub fn rank_expr(x: Expr) -> Expr {
    let v = fresh("x");
    let i = fresh("i");
    big_union_rank(&v, &i, x, single(tuple(vec![var(&v), var(&i)])))
}

/// `count(X) = Σ{1 | x ∈ X}` (§2).
fn count(x: Expr) -> Expr {
    sum(&fresh("x"), x, nat(1))
}

/// Ranking gives arrays: turn a set into the sorted array of its
/// elements, `set_to_array(X) = map get (index_1(∪_r{ {(i∸1, x)} | x_i ∈ X }))`.
/// This is the executable content of "adding arrays amounts to adding
/// ranks" in the array-introducing direction.
pub fn set_to_array(x: Expr) -> Expr {
    let v = fresh("x");
    let i = fresh("i");
    let a = fresh("A");
    let k = fresh("k");
    let_(
        &a,
        index(
            1,
            big_union_rank(
                &v,
                &i,
                x,
                single(tuple(vec![monus(var(&i), nat(1)), var(&v)])),
            ),
        ),
        tab1(&k, len(var(&a)), get(sub(var(&a), vec![var(&k)]))),
    )
}

/// `evenpos` computed on the *graph encoding* of an array, using only
/// NRC + arithmetic + Σ (no array constructs): given
/// `G = graph(A) : {nat × t}` with `n = count(G)`, produce the graph of
/// `evenpos(A)`:
/// `⋃{ if π₁p % 2 = 0 and π₁p/2 < n/2 then {(π₁p/2, π₂p)} else {} | p ∈ G }`.
pub fn evenpos_on_graph(g: Expr) -> Expr {
    let bg = fresh("G");
    let p = fresh("p");
    let_(
        &bg,
        g,
        big_union(
            &p,
            var(&bg),
            iff(
                and(
                    eq(modulo(fst(var(&p)), nat(2)), nat(0)),
                    lt(
                        div(fst(var(&p)), nat(2)),
                        div(count(var(&bg)), nat(2)),
                    ),
                ),
                single(tuple(vec![div(fst(var(&p)), nat(2)), snd(var(&p))])),
                empty(),
            ),
        ),
    )
}

/// `reverse` on the graph encoding, again pure NRC + Σ:
/// `⋃{ {(n ∸ π₁p ∸ 1, π₂p)} | p ∈ G }` with `n = count(G)`.
pub fn reverse_on_graph(g: Expr) -> Expr {
    let bg = fresh("G");
    let p = fresh("p");
    let_(
        &bg,
        g,
        big_union(
            &p,
            var(&bg),
            single(tuple(vec![
                monus(
                    monus(count(var(&bg)), fst(var(&p))),
                    nat(1),
                ),
                snd(var(&p)),
            ])),
        ),
    )
}

/// Bag ranking (§6, NBC_r): `⨄_r{| {|(x, i)|} | x_i ∈ B |}` — each
/// occurrence paired with its global rank; equal values get
/// consecutive ranks.
pub fn rank_bag(b: Expr) -> Expr {
    let v = fresh("x");
    let i = fresh("i");
    big_bag_union_rank(
        &v,
        &i,
        b,
        bag_single(tuple(vec![var(&v), var(&i)])),
    )
}

/// Helper used by tests: the graph of a 1-d array *value* as a set
/// value `{(i, v_i)}` computed host-side.
pub fn graph_value(a: &ArrayVal) -> Result<Value, EvalError> {
    if a.rank() != 1 {
        return Err(EvalError::IllTyped("graph_value expects a 1-d array".into()));
    }
    let pairs: Vec<Value> = a
        .data()
        .iter()
        .enumerate()
        .map(|(i, v)| Value::tuple(vec![Value::Nat(i as u64), v.clone()]))
        .collect();
    Ok(Value::Set(Rc::new(CoSet::from_vec(pairs))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_closed;

    fn arr(ns: &[u64]) -> Value {
        Value::array1(ns.iter().map(|&n| Value::Nat(n)).collect())
    }

    #[test]
    fn encode_decode_roundtrip_scalars() {
        for v in [
            Value::Nat(42),
            Value::Bool(true),
            Value::Real(2.5),
            Value::str("abc"),
        ] {
            let t = match &v {
                Value::Nat(_) => Type::Nat,
                Value::Bool(_) => Type::Bool,
                Value::Real(_) => Type::Real,
                _ => Type::Str,
            };
            let enc = encode_obj(&v).unwrap();
            assert_eq!(decode_obj(&t, &enc).unwrap(), v);
        }
    }

    #[test]
    fn encode_decode_roundtrip_structures() {
        let v = Value::set(vec![
            Value::tuple(vec![Value::Nat(1), arr(&[5, 6])]),
            Value::tuple(vec![Value::Nat(2), arr(&[])]),
        ]);
        let t = Type::set(Type::tuple(vec![Type::Nat, Type::array1(Type::Nat)]));
        let enc = encode_obj(&v).unwrap();
        assert_eq!(decode_obj(&t, &enc).unwrap(), v);
    }

    #[test]
    fn array_encoding_matches_paper() {
        // [[e_0, …, e_{n-1}]]° = {((e_0)°, 0), …}
        let enc = encode_core(&arr(&[7, 9])).unwrap();
        let expect = Value::set(vec![
            Value::tuple(vec![Value::set(vec![Value::Nat(7)]), Value::Nat(0)]),
            Value::tuple(vec![Value::set(vec![Value::Nat(9)]), Value::Nat(1)]),
        ]);
        assert_eq!(enc, expect);
    }

    #[test]
    fn bottom_flags() {
        let enc = encode_obj(&Value::Bottom).unwrap();
        let pair = enc.as_tuple().unwrap();
        assert!(pair[0].as_set().unwrap().is_empty(), "⊥° = {{}}");
        assert_eq!(pair[1].as_set().unwrap().len(), 1, "error flag set");
        assert_eq!(decode_obj(&Type::Nat, &enc).unwrap(), Value::Bottom);
    }

    #[test]
    fn decode_rejects_holey_graphs() {
        // {(x°, 0), (x°, 2)} is not the graph of an array.
        let bad = Value::tuple(vec![
            Value::set(vec![
                Value::tuple(vec![Value::set(vec![Value::Nat(7)]), Value::Nat(0)]),
                Value::tuple(vec![Value::set(vec![Value::Nat(9)]), Value::Nat(2)]),
            ]),
            Value::set(vec![]),
        ]);
        assert!(decode_obj(&Type::array1(Type::Nat), &bad).is_err());
    }

    #[test]
    fn set_to_array_sorts() {
        let x = union(union(single(nat(30)), single(nat(10))), single(nat(20)));
        let v = eval_closed(&set_to_array(x)).unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a.dims(), &[3]);
        let got: Vec<u64> = a.data().iter().map(|x| x.as_nat().unwrap()).collect();
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn evenpos_on_graph_agrees_with_native() {
        let g = graph_value(arr(&[4, 5, 6, 7, 8]).as_array().unwrap()).unwrap();
        let ge = evenpos_on_graph(value_to_expr(&g));
        // `evenpos A = [[ A[i*2] | i < len(A)/2 ]]`: two of five.
        let expect = graph_value(arr(&[4, 6]).as_array().unwrap()).unwrap();
        assert_eq!(eval_closed(&ge).unwrap(), expect);
    }

    #[test]
    fn reverse_on_graph_agrees_with_native() {
        let g = graph_value(arr(&[1, 2, 3, 4]).as_array().unwrap()).unwrap();
        let ge = reverse_on_graph(value_to_expr(&g));
        let expect = graph_value(arr(&[4, 3, 2, 1]).as_array().unwrap()).unwrap();
        assert_eq!(eval_closed(&ge).unwrap(), expect);
    }

    #[test]
    fn rank_bag_consecutive() {
        let b = bag_union(
            bag_union(bag_single(nat(5)), bag_single(nat(5))),
            bag_single(nat(3)),
        );
        let v = eval_closed(&rank_bag(b)).unwrap();
        let bag = v.as_bag().unwrap();
        assert_eq!(bag.count(&Value::tuple(vec![Value::Nat(3), Value::Nat(1)])), 1);
        assert_eq!(bag.count(&Value::tuple(vec![Value::Nat(5), Value::Nat(2)])), 1);
        assert_eq!(bag.count(&Value::tuple(vec![Value::Nat(5), Value::Nat(3)])), 1);
    }

    /// Embed a (set-of-pairs) value as a literal expression.
    fn value_to_expr(v: &Value) -> Expr {
        match v {
            Value::Nat(n) => nat(*n),
            Value::Tuple(items) => tuple(items.iter().map(value_to_expr).collect()),
            Value::Set(s) => s
                .iter()
                .fold(empty(), |acc, x| union(acc, single(value_to_expr(x)))),
            other => panic!("unsupported literal {other}"),
        }
    }
}
