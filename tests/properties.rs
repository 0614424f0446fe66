//! Property-based tests over the core data model and the optimizer.
//!
//! * the exchange format of §3 roundtrips every object value;
//! * the canonical order `≤_t` is a total order (antisymmetric,
//!   transitive) — the §6 results depend on it;
//! * `index` inverts `graph` up to singleton grouping (§2);
//! * the §6 object translation `°` roundtrips at every object type;
//! * the §5 optimizer is semantics-preserving on randomly composed
//!   array pipelines (the error-free fragment, per the paper's
//!   soundness convention);
//! * every prelude macro that `core::derived` also builds evaluates to
//!   the builder's value — the operators `tests/paper_claims.rs` counts
//!   are the ones users call.

use std::cmp::Ordering;
use std::rc::Rc;

use proptest::prelude::*;

use aql::core::derived;
use aql::core::eval::eval_closed;
use aql::core::expr::builder::*;
use aql::core::expr::Expr;
use aql::core::rank::{decode_obj, encode_obj};
use aql::core::types::Type;
use aql::core::value::ord::canonical_cmp;
use aql::core::value::parse::parse_value;
use aql::core::value::{ArrayVal, Value};
use aql::lang::session::Session;
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
        let e = index(1, derived::graph1(arr_expr));
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

/// One step of an array-to-array pipeline (kept within the error-free
/// fragment: slices stay in bounds).
#[derive(Debug, Clone)]
enum Step {
    Reverse,
    Evenpos,
    /// Fractions of the current length, lo ≤ hi.
    Subseq(f64, f64),
    /// Append `k` constant elements.
    Append(u8),
    /// Tabulated map (+c).
    MapAdd(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Reverse),
        Just(Step::Evenpos),
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Step::Subseq(lo, hi)
        }),
        (1u8..4).prop_map(Step::Append),
        (0u8..10).prop_map(Step::MapAdd),
    ]
}

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
            derived::rng(tab1(
                &x,
                sum(&aql::core::expr::free::fresh("c"), s, nat(1)),
                mul(var(&x), nat(3)),
            ))
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

/// Apply a pipeline symbolically, tracking the length so slices stay
/// in bounds.
fn build_pipeline(base: Vec<u64>, steps: &[Step]) -> Expr {
    let mut e = array1_lit(base.iter().map(|&x| nat(x)).collect());
    let mut len_now = base.len() as u64;
    for s in steps {
        match s {
            Step::Reverse => e = derived::reverse(e),
            Step::Evenpos => {
                e = derived::evenpos(e);
                len_now /= 2;
            }
            Step::Subseq(a, b) => {
                if len_now == 0 {
                    continue;
                }
                let lo = ((*a * (len_now - 1) as f64) as u64).min(len_now - 1);
                let hi = ((*b * (len_now - 1) as f64) as u64).clamp(lo, len_now - 1);
                e = derived::subseq(e, nat(lo), nat(hi));
                len_now = hi - lo + 1;
            }
            Step::Append(k) => {
                let extra: Vec<Expr> = (0..*k as u64).map(nat).collect();
                e = derived::append(e, array1_lit(extra));
                len_now += *k as u64;
            }
            Step::MapAdd(c) => {
                let f = {
                    let x = aql::core::expr::free::fresh("x");
                    lam(&x, add(var(&x), nat(*c as u64)))
                };
                e = derived::map_arr(f, e);
            }
        }
    }
    e
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
            derived::transpose(m.clone()),
            derived::transpose(derived::transpose(m.clone())),
            derived::proj_col(m.clone(), nat(0)),
            derived::matmul(m.clone(), derived::transpose(m.clone())),
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
            derived::count(derived::rng(arr.clone())),
            sum("x", gen(nat(bound)), mul(var("x"), var("x"))),
            derived::hist_indexed(arr.clone()),
            big_union("x", derived::rng(arr), iff(lt(var("x"), nat(20)), single(var("x")), empty())),
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
        let q1 = derived::zip(
            derived::subseq(ea.clone(), nat(lo), nat(hi)),
            derived::subseq(eb.clone(), nat(lo), nat(hi)),
        );
        let q2 = derived::subseq(derived::zip(ea, eb), nat(lo), nat(hi));
        let v1 = eval_closed(&q1).unwrap();
        let v2 = eval_closed(&q2).unwrap();
        prop_assert_eq!(&v1, &v2);
        prop_assert_eq!(eval_closed(&optimize(&q1)).unwrap(), v1);
        prop_assert_eq!(eval_closed(&optimize(&q2)).unwrap(), v2);
    }
}

// ---------------------------------------------------------------------
// The prelude's macros and `core::derived`'s builders are one operator.
// ---------------------------------------------------------------------

fn nat_array(dims: Vec<u64>, ns: &[u64]) -> Value {
    let data = ns.iter().map(|&n| Value::Nat(n)).collect();
    Value::Array(Rc::new(ArrayVal::new(dims, data).expect("well-shaped")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prelude_macros_agree_with_their_builders(
        a in prop::collection::vec(0u64..20, 1..12),
        b in prop::collection::vec(0u64..20, 1..12),
        c in prop::collection::vec(0u64..20, 1..12),
        (r, k, q) in (1u64..4, 1u64..4, 1u64..4),
        cells in prop::collection::vec(0u64..20, 9),
        (i, j, cut) in (0u64..14, 0u64..14, 0u64..20),
    ) {
        // Both sides unoptimized: the macro's desugaring against the
        // builder, nothing else between them.
        let mut s = Session::new();
        s.optimize = false;
        let pairs = a.iter().zip(&b).map(|(&x, &y)| Value::tuple(vec![Value::Nat(x), Value::Nat(y)]));
        for (name, v) in [
            ("A", nat_array(vec![a.len() as u64], &a)),
            ("B", nat_array(vec![b.len() as u64], &b)),
            ("C", nat_array(vec![c.len() as u64], &c)),
            ("M", nat_array(vec![r, k], &cells[..(r * k) as usize])),
            ("N", nat_array(vec![k, q], &cells[..(k * q) as usize])),
            ("P", Value::set(a.iter().map(|&x| Value::Nat(x)).collect())),
            ("S", Value::set(pairs.collect())),
        ] {
            s.bind_val(name, v).expect("bind");
        }
        let g = global;
        let cases = [
            ("zip!(A, B)".to_string(), derived::zip(g("A"), g("B"))),
            ("zip_3!(A, B, C)".into(), derived::zip3(g("A"), g("B"), g("C"))),
            (format!("subseq!(A, {i}, {j})"), derived::subseq(g("A"), nat(i), nat(j))),
            ("evenpos!A".into(), derived::evenpos(g("A"))),
            ("reverse!A".into(), derived::reverse(g("A"))),
            ("transpose!M".into(), derived::transpose(g("M"))),
            ("proj_col!(M, 0)".into(), derived::proj_col(g("M"), nat(0))),
            ("matmul!(M, N)".into(), derived::matmul(g("M"), g("N"))),
            // ⊥ unless M is square.
            ("matmul!(M, M)".into(), derived::matmul(g("M"), g("M"))),
            ("append!(A, B)".into(), derived::append(g("A"), g("B"))),
            // ⊥ when A is shorter than r·k.
            (format!("reshape!(A, {r}, {k})"), derived::reshape2(g("A"), nat(r), nat(k))),
            ("flatten!M".into(), derived::flatten2(g("M"))),
            (
                format!("filter!(fn \\x => x < {cut}, P)"),
                derived::filter_set(lam("x", lt(var("x"), nat(cut))), g("P")),
            ),
            ("nest!S".into(), derived::nest(g("S"))),
            ("graph!A".into(), derived::graph1(g("A"))),
        ];
        for (text, built) in cases {
            let (_, via_macro) = s.eval_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let via_builder = s.eval_expr_raw(&built).unwrap_or_else(|e| panic!("{built}: {e}"));
            prop_assert_eq!(via_macro, via_builder, "{}", text);
        }
    }
}
