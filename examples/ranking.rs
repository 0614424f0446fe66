//! The expressiveness story of §6, interactively:
//! *adding arrays to a complex-object language is exactly adding
//! ranking*.
//!
//! Run with `cargo run --example ranking`.

use aql::core::eval::eval_closed;
use aql::core::expr::builder::*;
use aql::core::rank;
use aql::core::types::Type;
use aql::core::value::tyof::type_of_value;
use aql::lang::session::Session;

fn main() {
    println!("=== §6: arrays ≡ ranking ===\n");

    // 1. The ranked union ∪_r assigns canonical positions.
    println!("--- rank(X) = ∪_r{{ {{(x, i)}} | x_i ∈ X }} ---");
    let x = union(
        union(single(strlit("carol")), single(strlit("alice"))),
        single(strlit("bob")),
    );
    let ranked = eval_closed(&rank::rank_expr(x.clone())).expect("rank");
    println!("rank({{\"carol\", \"alice\", \"bob\"}}) = {ranked}\n");

    // 2. Ranking gives arrays: a set becomes the sorted array of its
    //    elements (the arrays-from-ranks direction of Thm 6.2).
    println!("--- set_to_array: ranking constructs arrays ---");
    let arr = eval_closed(&rank::set_to_array(x)).expect("set_to_array");
    println!("set_to_array(…) = {arr}\n");

    // 3. Arrays give ranking: the graph of an array is a ranked set,
    //    and array queries run on the encoding (the other direction).
    println!("--- the ° encoding: array queries on graphs ---");
    let mut s = Session::new();
    s.run("val \\A = [[10, 20, 30, 40, 50]];").expect("bind A");
    let (_, native) = s.eval_query("evenpos!A").expect("native");
    println!("evenpos([[10,20,30,40,50]])      = {native}");
    let (_, g) = s.eval_query("graph!A").expect("graph");
    println!("graph of the input               = {g}");
    let g_expr = {
        // Re-embed the graph value as a literal for the NRC_r query.
        let mut e = empty();
        for p in g.as_set().expect("set").iter() {
            let t = p.as_tuple().expect("pair");
            e = union(
                e,
                single(tuple(vec![
                    nat(t[0].as_nat().expect("idx")),
                    nat(t[1].as_nat().expect("val")),
                ])),
            );
        }
        e
    };
    let on_graph = eval_closed(&rank::evenpos_on_graph(g_expr)).expect("encoded");
    println!("evenpos on the graph (pure NRC)  = {on_graph}\n");

    // 4. The object translation ° of Theorem 6.1, with its error flag.
    println!("--- the object translation ° (Thm 6.1) ---");
    let v = aql::core::value::Value::array1(vec![
        aql::core::value::Value::Nat(7),
        aql::core::value::Value::Nat(9),
    ]);
    let enc = rank::encode_obj(&v).expect("encode");
    println!("[[7, 9]]°                        = {enc}");
    let dec = rank::decode_obj(&Type::array1(Type::Nat), &enc).expect("decode");
    println!("decoded back                     = {dec}");
    assert_eq!(dec, v);
    let bot = rank::encode_obj(&aql::core::value::Value::Bottom).expect("encode ⊥");
    println!("⊥°                               = {bot}  (error flag set)\n");

    // 5. Encoded values live in pure NRC^aggr types.
    let core_ty = type_of_value(&enc.as_tuple().expect("pair")[0].clone())
        .expect("typed");
    println!("the encoding's core type: {core_ty}");
    println!("— arrays are gone; only sets, tuples and naturals remain,");
    println!("  which is Theorem 6.1: NRCA ≡ NRC^aggr(gen).");
}
