//! Executable content of §6: adding arrays ≡ adding ranking.
//!
//! Theorem 6.1: `NRCA ≡ NRC^aggr(gen)` via the object translation `°`.
//! Theorem 6.2: `NRC_r` and `NBC_r` (ranked unions over sets and bags)
//! have the same power. These tests run the translations and ranked
//! queries against the native array semantics.

mod common;

use common::{hist_indexed, map_arr, prelude};

use aql::core::eval::eval_closed;
use aql::core::expr::builder::*;
use aql::core::rank;
use aql::core::types::Type;
use aql::core::value::Value;
use aql::lang::session::Session;
use proptest::prelude::*;

fn nats_arr(ns: &[u64]) -> Value {
    Value::array1(ns.iter().map(|&n| Value::Nat(n)).collect())
}

fn lit(ns: &[u64]) -> aql::core::expr::Expr {
    array1_lit(ns.iter().map(|&n| nat(n)).collect())
}

#[test]
fn rank_assigns_canonical_positions() {
    // rank(X) = ∪_r{{(x,i)} | x_i ∈ X} (§6).
    let x = union(union(single(strlit("b")), single(strlit("a"))), single(strlit("c")));
    let v = eval_closed(&rank::rank_expr(x)).unwrap();
    assert_eq!(
        v,
        Value::set(vec![
            Value::tuple(vec![Value::str("a"), Value::Nat(1)]),
            Value::tuple(vec![Value::str("b"), Value::Nat(2)]),
            Value::tuple(vec![Value::str("c"), Value::Nat(3)]),
        ])
    );
}

#[test]
fn ranking_builds_arrays_from_sets() {
    // The arrays-from-ranking direction of Thm 6.2: a set becomes the
    // sorted array of its elements.
    let x = union(union(single(nat(9)), single(nat(2))), single(nat(5)));
    let v = eval_closed(&rank::set_to_array(x)).unwrap();
    assert_eq!(v, nats_arr(&[2, 5, 9]));
}

#[test]
fn array_queries_run_on_the_graph_encoding() {
    // The arrays-to-NRC direction: evenpos and reverse computed purely
    // on graphs agree with the native array semantics.
    for ns in [&[5u64, 7, 9, 11, 13][..], &[][..], &[42][..]] {
        let arr_v = nats_arr(ns);
        let g = rank::graph_value(arr_v.as_array().unwrap()).unwrap();
        let genv = set_value_to_expr(&g);

        let native_even = eval_closed(&prelude("evenpos", vec![lit(ns)])).unwrap();
        let graph_even = eval_closed(&rank::evenpos_on_graph(genv.clone())).unwrap();
        assert_eq!(
            graph_even,
            rank::graph_value(native_even.as_array().unwrap()).unwrap(),
            "evenpos on {ns:?}"
        );

        let native_rev = eval_closed(&prelude("reverse", vec![lit(ns)])).unwrap();
        let graph_rev = eval_closed(&rank::reverse_on_graph(genv)).unwrap();
        assert_eq!(
            graph_rev,
            rank::graph_value(native_rev.as_array().unwrap()).unwrap(),
            "reverse on {ns:?}"
        );
    }
}

#[test]
fn bag_ranking_gives_consecutive_ranks() {
    // NBC_r (§6): equal occurrences get consecutive ranks.
    let b = bag_union(
        bag_union(bag_single(nat(7)), bag_single(nat(7))),
        bag_union(bag_single(nat(7)), bag_single(nat(2))),
    );
    let v = eval_closed(&rank::rank_bag(b)).unwrap();
    let bag = v.as_bag().unwrap();
    assert_eq!(bag.total_len(), 4);
    for (val, rk) in [(2u64, 1u64), (7, 2), (7, 3), (7, 4)] {
        assert_eq!(
            bag.count(&Value::tuple(vec![Value::Nat(val), Value::Nat(rk)])),
            1,
            "expected ({val}, {rk})"
        );
    }
}

#[test]
fn nat_simulation_in_bags() {
    // §6: "the number n can be simulated as a bag of n identical
    // elements". Ranking such a bag exposes n as the maximum rank:
    // ⨄_r{| {|i|} | x_i ∈ B |} on a 3-copy bag yields {|1, 2, 3|}.
    let b = bag_union(
        bag_union(bag_single(nat(0)), bag_single(nat(0))),
        bag_single(nat(0)),
    );
    let ranks_e = {
        let x = aql::core::expr::free::fresh("x");
        let i = aql::core::expr::free::fresh("i");
        big_bag_union_rank(&x, &i, b, bag_single(var(&i)))
    };
    let v = eval_closed(&ranks_e).unwrap();
    let bag = v.as_bag().unwrap();
    assert_eq!(bag.total_len(), 3);
    let max_rank = bag
        .iter()
        .map(|(r, _)| r.as_nat().unwrap())
        .max()
        .unwrap();
    assert_eq!(max_rank, 3, "the simulated natural is recovered as the top rank");
}

#[test]
fn surface_language_reaches_bag_ranking_power() {
    // The same counting power expressed at the surface: comprehensions
    // plus Σ subsume the rank-based count on sets.
    let mut s = Session::new();
    let (_, v) = s.eval_query("count!{x | \\x <- gen!100, x < 3}").unwrap();
    assert_eq!(v, Value::Nat(3));
}

#[test]
fn histogram_with_ranking_matches_index_version() {
    // A §6-flavoured consistency check: hist' (which uses index, i.e.
    // implicit ranking by key) matches a direct count per value.
    let ns = [3u64, 1, 3, 0, 3, 1];
    let h = eval_closed(&hist_indexed(lit(&ns))).unwrap();
    let counts: Vec<u64> = h
        .as_array()
        .unwrap()
        .data()
        .iter()
        .map(|v| v.as_nat().unwrap())
        .collect();
    assert_eq!(counts, vec![1, 2, 0, 3]);
}

#[test]
fn encode_obj_types_align_with_theorem() {
    // The translation sends [[nat]] into {({nat} × nat)} — check the
    // encoded value really has that shape. (The error flag is an empty
    // set for ordinary values, so it is typed separately.)
    let v = nats_arr(&[4, 5]);
    let enc = rank::encode_obj(&v).unwrap();
    let pair = enc.as_tuple().unwrap();
    let core_t = aql::core::value::tyof::type_of_value(&pair[0]).unwrap();
    assert_eq!(
        core_t,
        Type::set(Type::tuple(vec![Type::set(Type::Nat), Type::Nat]))
    );
    assert!(pair[1].as_set().unwrap().is_empty(), "no error flag");
}

/// Embed a set-of-(nat, nat) value as a literal expression.
fn set_value_to_expr(v: &Value) -> aql::core::expr::Expr {
    let mut e = empty();
    for item in v.as_set().unwrap().iter() {
        let t = item.as_tuple().unwrap();
        e = union(
            e,
            single(tuple(vec![
                nat(t[0].as_nat().unwrap()),
                nat(t[1].as_nat().unwrap()),
            ])),
        );
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn set_to_array_is_sorted_dedup(ns in prop::collection::vec(0u64..64, 0..12)) {
        let set_e = ns.iter().fold(empty(), |acc, &n| union(acc, single(nat(n))));
        let v = eval_closed(&rank::set_to_array(set_e)).unwrap();
        let got: Vec<u64> = v
            .as_array()
            .unwrap()
            .data()
            .iter()
            .map(|x| x.as_nat().unwrap())
            .collect();
        let mut expect: Vec<u64> = ns.clone();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn graph_roundtrip_via_rank(ns in prop::collection::vec(0u64..64, 0..12)) {
        // set_to_array(dom-ordered graph values) rebuilds the array:
        // index+get over the ranked graph is the identity.
        let arr = lit(&ns);
        let rebuilt = map_arr(lam("g", get(var("g"))), index(1, prelude("graph", vec![arr.clone()])));
        prop_assert_eq!(
            eval_closed(&rebuilt).unwrap(),
            eval_closed(&arr).unwrap()
        );
    }
}
