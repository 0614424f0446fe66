//! Property-based tests over the core data model and the optimizer.
//!
//! * the exchange format of §3 roundtrips every object value;
//! * the canonical order `≤_t` is a total order (antisymmetric,
//!   transitive) — the §6 results depend on it;
//! * `index` inverts `graph` up to singleton grouping (§2);
//! * the §6 object translation `°` roundtrips at every object type;
//! * the §5 optimizer is semantics-preserving on randomly composed
//!   array pipelines of prelude macros (the error-free fragment, per
//!   the paper's soundness convention).

mod common;

use std::cmp::Ordering;

use proptest::prelude::*;

use common::{arb_step, build_pipeline, builtin, hist_indexed, prelude};

use aql::core::eval::eval_closed;
use aql::core::expr::builder::*;
use aql::core::expr::Expr;
use aql::core::rank::{decode_obj, encode_obj};
use aql::core::types::Type;
use aql::core::value::ord::canonical_cmp;
use aql::core::value::parse::parse_value;
use aql::core::value::Value;
use aql::opt::optimize;

// ---------------------------------------------------------------------
// Typed value generation: a random object type, then a value of it.
// ---------------------------------------------------------------------

/// A random object type of bounded depth.
fn arb_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Bool),
        Just(Type::Nat),
        Just(Type::Real),
        Just(Type::Str),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Type::tuple),
            inner.clone().prop_map(Type::set),
            inner.prop_map(Type::array1),
        ]
    })
}

/// A random value of the given type.
fn value_of(t: &Type) -> BoxedStrategy<Value> {
    match t {
        Type::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        Type::Nat => (0u64..1_000_000).prop_map(Value::Nat).boxed(),
        Type::Real => (-1.0e6f64..1.0e6)
            .prop_map(|r| Value::Real((r * 8.0).round() / 8.0))
            .boxed(),
        Type::Str => "[a-z]{0,6}".prop_map(|s| Value::str(&s)).boxed(),
        Type::Tuple(ts) => ts
            .iter()
            .map(value_of)
            .collect::<Vec<_>>()
            .prop_map(Value::tuple)
            .boxed(),
        Type::Set(elem) => prop::collection::vec(value_of(elem), 0..4)
            .prop_map(Value::set)
            .boxed(),
        Type::Array(elem, 1) => prop::collection::vec(value_of(elem), 0..4)
            .prop_map(Value::array1)
            .boxed(),
        other => panic!("no generator for {other}"),
    }
}

/// A `(type, value)` pair.
fn arb_typed_value() -> impl Strategy<Value = (Type, Value)> {
    arb_type().prop_flat_map(|t| {
        let vs = value_of(&t);
        vs.prop_map(move |v| (t.clone(), v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exchange_format_roundtrips((_t, v) in arb_typed_value()) {
        let printed = v.to_string();
        let back = parse_value(&printed)
            .unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
        prop_assert_eq!(back, v);
    }

    #[test]
    fn canonical_order_is_total((t, _v) in arb_typed_value(),) {
        // Draw three values of the same type and check order laws.
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let s = value_of(&t);
        let a = s.new_tree(&mut runner).unwrap().current();
        let b = s.new_tree(&mut runner).unwrap().current();
        let c = s.new_tree(&mut runner).unwrap().current();
        // Reflexivity and antisymmetry.
        prop_assert_eq!(canonical_cmp(&a, &a), Ordering::Equal);
        prop_assert_eq!(canonical_cmp(&a, &b), canonical_cmp(&b, &a).reverse());
        // Transitivity of ≤.
        if canonical_cmp(&a, &b) != Ordering::Greater
            && canonical_cmp(&b, &c) != Ordering::Greater
        {
            prop_assert_ne!(canonical_cmp(&a, &c), Ordering::Greater);
        }
    }

    #[test]
    fn object_translation_roundtrips((t, v) in arb_typed_value()) {
        let enc = encode_obj(&v).unwrap();
        let dec = decode_obj(&t, &enc).unwrap();
        prop_assert_eq!(dec, v);
    }

    #[test]
    fn index_inverts_graph(ns in prop::collection::vec(0u64..50, 0..12)) {
        // index_1(graph(A)) is the array of singletons {A[i]} (§2).
        let arr_expr = array1_lit(ns.iter().map(|&x| nat(x)).collect());
        let e = index(1, prelude("graph", vec![arr_expr]));
        let v = eval_closed(&e).unwrap();
        let got = v.as_array().unwrap();
        prop_assert_eq!(got.dims(), &[ns.len() as u64][..]);
        for (i, &x) in ns.iter().enumerate() {
            let cellv = got.get(&[i as u64]).unwrap();
            let cell = cellv.as_set().unwrap();
            prop_assert_eq!(cell.len(), 1);
            prop_assert!(cell.contains(&Value::Nat(x)));
        }
    }

    #[test]
    fn set_canonicalisation_is_idempotent(ns in prop::collection::vec(0u64..30, 0..20)) {
        let a = Value::set(ns.iter().map(|&x| Value::Nat(x)).collect());
        let b = Value::set(
            a.as_set().unwrap().iter().cloned().rev().collect::<Vec<_>>(),
        );
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// Optimizer soundness on random array pipelines.
// ---------------------------------------------------------------------

/// A random expression of type `{nat}` with the given recursion depth:
/// leaves are `gen`/literals, inner nodes are unions, comprehensions
/// (big unions with filters), singleton maps, and `rng` of tabulations
/// — every construct the set-monad rules rewrite.
fn arb_set_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0u64..8).prop_map(|n| gen(nat(n))),
        Just(empty()),
        prop::collection::vec(0u64..20, 0..4)
            .prop_map(|ns| ns.into_iter().fold(empty(), |a, n| union(a, single(nat(n))))),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub_strategy = arb_set_expr(depth - 1);
    prop_oneof![
        leaf,
        (sub_strategy.clone(), sub_strategy.clone())
            .prop_map(|(a, b)| union(a, b)),
        // ⋃{ {x + c} | x ∈ S }
        (sub_strategy.clone(), 0u64..5).prop_map(|(s, c)| {
            let x = aql::core::expr::free::fresh("x");
            big_union(&x, s, single(add(var(&x), nat(c))))
        }),
        // ⋃{ if x < c then {x} else {} | x ∈ S } — filter
        (sub_strategy.clone(), 0u64..10).prop_map(|(s, c)| {
            let x = aql::core::expr::free::fresh("x");
            big_union(&x, s, iff(lt(var(&x), nat(c)), single(var(&x)), empty()))
        }),
        // singleton-η shape: ⋃{ {x} | x ∈ S }
        sub_strategy.clone().prop_map(|s| {
            let x = aql::core::expr::free::fresh("x");
            big_union(&x, s, single(var(&x)))
        }),
        // rng of a tabulation over a count derived from the subtree
        sub_strategy.prop_map(|s| {
            let x = aql::core::expr::free::fresh("x");
            builtin("rng", tab1(&x, builtin("count", s), mul(var(&x), nat(3))))
        }),
    ]
    .boxed()
}

/// A random expression of type `{|nat|}` — the bag analogue of
/// [`arb_set_expr`], with duplicated elements so multiplicity bugs
/// show.
fn arb_bag_expr(depth: u32) -> BoxedStrategy<Expr> {
    use aql::core::expr::Expr as E;
    let leaf = prop_oneof![
        Just(E::BagEmpty),
        prop::collection::vec(0u64..6, 0..5).prop_map(|ns| ns
            .into_iter()
            .fold(E::BagEmpty, |a, n| bag_union(a, bag_single(nat(n))))),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub_strategy = arb_bag_expr(depth - 1);
    prop_oneof![
        leaf,
        (sub_strategy.clone(), sub_strategy.clone()).prop_map(|(a, b)| bag_union(a, b)),
        (sub_strategy.clone(), 0u64..4).prop_map(|(s, c)| {
            let x = aql::core::expr::free::fresh("x");
            big_bag_union(&x, s, bag_single(modulo(var(&x), nat(c + 1))))
        }),
        (sub_strategy.clone(), 0u64..8).prop_map(|(s, c)| {
            let x = aql::core::expr::free::fresh("x");
            big_bag_union(
                &x,
                s,
                iff(lt(var(&x), nat(c)), bag_single(var(&x)), E::BagEmpty),
            )
        }),
        sub_strategy.prop_map(|s| {
            let x = aql::core::expr::free::fresh("x");
            big_bag_union(&x, s, bag_single(var(&x)))
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimizer_preserves_pipeline_semantics(
        base in prop::collection::vec(0u64..100, 0..10),
        steps in prop::collection::vec(arb_step(), 1..5),
    ) {
        let e = build_pipeline(base, &steps);
        let raw = eval_closed(&e).unwrap();
        let opt_e = optimize(&e);
        let opt = eval_closed(&opt_e).unwrap();
        prop_assert_eq!(raw, opt, "pipeline {:?}\nraw expr {}\nopt expr {}", steps, e, opt_e);
    }

    #[test]
    fn optimizer_preserves_matrix_queries(
        r in 1usize..4, c in 1usize..4,
        vals in prop::collection::vec(0u64..50, 16),
    ) {
        let data: Vec<Expr> = vals[..r * c].iter().map(|&x| nat(x)).collect();
        let m = array_lit(vec![nat(r as u64), nat(c as u64)], data);
        for q in [
            prelude("transpose", vec![m.clone()]),
            prelude("transpose", vec![prelude("transpose", vec![m.clone()])]),
            prelude("proj_col", vec![m.clone(), nat(0)]),
            prelude("matmul", vec![m.clone(), prelude("transpose", vec![m.clone()])]),
        ] {
            let raw = eval_closed(&q).unwrap();
            let opt = eval_closed(&optimize(&q)).unwrap();
            prop_assert_eq!(raw, opt);
        }
    }

    #[test]
    fn optimizer_preserves_aggregates(
        ns in prop::collection::vec(0u64..40, 0..12),
        bound in 0u64..30,
    ) {
        let arr = array1_lit(ns.iter().map(|&x| nat(x)).collect());
        let queries = vec![
            builtin("count", builtin("rng", arr.clone())),
            sum("x", gen(nat(bound)), mul(var("x"), var("x"))),
            hist_indexed(arr.clone()),
            big_union("x", builtin("rng", arr), iff(lt(var("x"), nat(20)), single(var("x")), empty())),
        ];
        for q in queries {
            let raw = eval_closed(&q).unwrap();
            let opt = eval_closed(&optimize(&q)).unwrap();
            prop_assert_eq!(raw, opt);
        }
    }

    #[test]
    fn optimizer_preserves_random_bag_trees(tree in arb_bag_expr(3)) {
        // The bag (NBC) monad laws must also preserve semantics —
        // including multiplicities, which set laws never see.
        let raw = eval_closed(&tree).unwrap();
        let opt_e = optimize(&tree);
        let opt = eval_closed(&opt_e).unwrap();
        prop_assert_eq!(raw, opt, "tree {}\nopt {}", tree, opt_e);
    }

    #[test]
    fn optimizer_preserves_random_set_trees(tree in arb_set_expr(3)) {
        // Random nested comprehension trees over {nat}: the optimizer
        // (fusion, filter promotion, η, unit laws, …) must preserve
        // their value.
        let raw = eval_closed(&tree).unwrap();
        let opt_e = optimize(&tree);
        let opt = eval_closed(&opt_e).unwrap();
        prop_assert_eq!(raw, opt, "tree {}\nopt {}", tree, opt_e);
    }

    #[test]
    fn zip_of_subseqs_always_commutes(
        a in prop::collection::vec(0u64..100, 0..16),
        b in prop::collection::vec(0u64..100, 0..16),
        lo in 0u64..16, hi in 0u64..16,
    ) {
        // Even with *out-of-range* slice bounds the two §1 pipelines
        // agree (both produce the same ⊥-or-array), optimized or not.
        let ea = array1_lit(a.iter().map(|&x| nat(x)).collect());
        let eb = array1_lit(b.iter().map(|&x| nat(x)).collect());
        let slice = |a| prelude("subseq", vec![a, nat(lo), nat(hi)]);
        let q1 = prelude("zip", vec![slice(ea.clone()), slice(eb.clone())]);
        let q2 = slice(prelude("zip", vec![ea, eb]));
        let v1 = eval_closed(&q1).unwrap();
        let v2 = eval_closed(&q2).unwrap();
        prop_assert_eq!(&v1, &v2);
        prop_assert_eq!(eval_closed(&optimize(&q1)).unwrap(), v1);
        prop_assert_eq!(eval_closed(&optimize(&q2)).unwrap(), v2);
    }
}
