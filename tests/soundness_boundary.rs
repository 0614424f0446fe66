//! The *boundary* of optimizer soundness, pinned as tests.
//!
//! §5 states the convention explicitly for `δ^p`: "this rule is sound
//! only if e1 is error-free". Our optimizer follows the paper: rules
//! that discard subexpressions change the meaning of programs whose
//! discarded parts evaluate to `⊥`. These tests document exactly where
//! the divergence lies — and that it never occurs for error-free
//! programs (the property suite in tests/properties.rs covers that
//! side).

use aql::core::eval::eval_closed;
use aql::core::expr::builder::*;
use aql::core::value::Value;
use aql::opt::optimize;

#[test]
fn delta_p_diverges_on_erroneous_bodies_as_the_paper_says() {
    // len([[1/0 | i < 5]]): raw evaluation tabulates, hits ⊥, and the
    // whole expression is ⊥. δ^p returns the bound 5 without looking.
    let e = len(tab1("i", nat(5), div(nat(1), nat(0))));
    assert_eq!(eval_closed(&e).unwrap(), Value::Bottom, "strict semantics");
    let o = optimize(&e);
    assert_eq!(
        eval_closed(&o).unwrap(),
        Value::Nat(5),
        "δ^p is applied in the error-free convention (§5)"
    );
}

#[test]
fn delta_p_agrees_on_error_free_bodies() {
    let e = len(tab1("i", nat(5), mul(var("i"), var("i"))));
    let o = optimize(&e);
    assert_eq!(eval_closed(&e).unwrap(), eval_closed(&o).unwrap());
}

#[test]
fn empty_head_discards_an_erroneous_source() {
    // ⋃{{} | x ∈ ⊥-producing set}: raw is ⊥; the rewrite yields {}.
    let src = big_union("y", gen(nat(3)), single(div(nat(1), nat(0))));
    let e = big_union("x", src, empty());
    assert_eq!(eval_closed(&e).unwrap(), Value::Bottom);
    let o = optimize(&e);
    assert_eq!(eval_closed(&o).unwrap(), Value::set(vec![]));
}

#[test]
fn beta_p_is_exactly_semantics_preserving() {
    // In contrast, β^p introduces the bound check itself and preserves
    // ⊥-semantics exactly — even the error cases agree.
    for (arr_n, idx) in [(5u64, 2u64), (5, 5), (5, 99), (0, 0)] {
        let e = sub(
            tab1("i", nat(arr_n), mul(var("i"), nat(3))),
            vec![nat(idx)],
        );
        let o = optimize(&e);
        assert_eq!(
            eval_closed(&e).unwrap(),
            eval_closed(&o).unwrap(),
            "n={arr_n}, idx={idx}"
        );
    }
    // And with an erroneous body at the demanded index.
    let e = sub(
        tab1("i", nat(3), div(nat(1), var("i"))), // 1/0 at index 0
        vec![nat(0)],
    );
    let o = optimize(&e);
    assert_eq!(eval_closed(&e).unwrap(), Value::Bottom);
    assert_eq!(eval_closed(&o).unwrap(), Value::Bottom);
}

#[test]
fn hoisting_can_evaluate_an_invariant_a_loop_never_runs() {
    // let-bound invariants are strict: hoisting out of a zero-trip
    // loop evaluates what the loop never would. Raw: {} (loop body
    // never runs). Optimized: the division by zero is hoisted and
    // evaluated once → ⊥. Again the error-free convention.
    let e = big_union(
        "x",
        empty(),
        single(add(var("x"), div(nat(1), nat(0)))),
    );
    assert_eq!(eval_closed(&e).unwrap(), Value::set(vec![]));
    // (The normalize phase already collapses the empty source here, so
    // the full pipeline is actually safe for this particular shape —
    // the divergence needs a source the optimizer cannot see through.)
    let o = optimize(&e);
    assert_eq!(eval_closed(&o).unwrap(), Value::set(vec![]));

    // An opaque source: a global the optimizer cannot inspect. Use the
    // raw engine to show the boundary precisely.
    use aql::core::expr::Expr;
    let inv = div(nat(1), nat(0));
    let loop_e = big_union("x", global("S"), single(add(var("x"), inv.clone())));
    let hoisted = aql::opt::rules::motion_phase()
        .run(&loop_e, &aql::opt::Gate::off(), None)
        .expect("no rule panics");
    assert!(matches!(hoisted, Expr::Let(..)), "invariant must hoist");
    // With S = {} the raw loop is {}, the hoisted form is ⊥.
    let mut globals = std::collections::HashMap::new();
    globals.insert(aql::core::expr::name("S"), Value::set(vec![]));
    let exts = aql::core::prim::Extensions::new();
    let ctx = aql::core::eval::EvalCtx::new(&globals, &exts);
    assert_eq!(aql::core::eval::eval(&loop_e, &ctx).unwrap(), Value::set(vec![]));
    assert_eq!(aql::core::eval::eval(&hoisted, &ctx).unwrap(), Value::Bottom);
}

#[test]
fn error_free_programs_never_see_the_boundary() {
    // A composite query exercising every discarding rule on error-free
    // code: results agree.
    let q = len(tab1(
        "i",
        add(var("n"), nat(2)),
        sum("x", gen(var("n")), mul(var("x"), var("x"))),
    ));
    let o = optimize(&q);
    let mut globals = std::collections::HashMap::new();
    globals.insert(aql::core::expr::name("n"), Value::Nat(7));
    let exts = aql::core::prim::Extensions::new();
    let ctx = aql::core::eval::EvalCtx::new(&globals, &exts);
    assert_eq!(
        aql::core::eval::eval(&q, &ctx).unwrap(),
        aql::core::eval::eval(&o, &ctx).unwrap()
    );
}
