//! The cost model against the evaluator: `aql_analysis::cost::estimate`'s
//! step prediction for an optimized term, and the steps the session
//! then charges for evaluating it — with bulk kernels on, so the
//! closed-form charge a kernel makes for its nest is what is checked.

use std::rc::Rc;

use aql_core::types::Type;
use aql_core::value::{ArrayVal, Value};
use aql_core::NativeFn;
use aql_lang::session::Session;
use aql_store::{ChunkLayout, LazyArray, MemChunkSource, ScalarBuf, ScalarKind};

fn array(a: ArrayVal) -> Value {
    Value::Array(Rc::new(a))
}

fn nats(n: u64, seed: u64) -> Value {
    array(ArrayVal::from_nat(vec![n], (0..n).map(|i| (i * seed + 7) % 1000).collect()).unwrap())
}

fn reals(dims: Vec<u64>) -> Value {
    let n: u64 = dims.iter().product();
    array(ArrayVal::from_f64(dims, (0..n).map(|i| 60.0 + (i % 41) as f64).collect()).unwrap())
}

/// Predicted steps of the optimized `query`, the steps evaluating it
/// took, and the loop nests that ran as kernels.
fn predicted_actual_kernels(s: &mut Session, query: &str) -> (u64, u64, u64) {
    let predicted = s.explain(query).unwrap().cost_after.steps;
    s.run(&format!("{query};")).unwrap();
    (predicted, s.last_stats().steps, s.last_report().kernels[0].nests)
}

#[test]
fn the_warm_scan_statements_cost_exactly_what_was_predicted() {
    // `temp` as the benchmark binds it: 8760×5×5, lazily chunked.
    let dims = vec![8760u64, 5, 5];
    let cells = (0..8760 * 25).map(|i| (i as f64 * 0.37).sin()).collect();
    let source = MemChunkSource::new(dims.clone(), ScalarBuf::F64(cells)).unwrap();
    let layout = ChunkLayout::new(dims, vec![163, 5, 5]).unwrap();
    let temp = LazyArray::new(layout, ScalarKind::F64, Box::new(source), 64 << 20);
    let mut s = Session::new();
    s.bind_val("T", array(ArrayVal::lazy(temp).unwrap())).unwrap();
    let statements = [
        "max!{ T[4000 + t, i, j] | \\t <- gen!200, \\i <- gen!5, \\j <- gen!5 }",
        "summap(fn \\t => summap(fn \\i => summap(fn \\j => T[4000 + t, i, j])\
         !(gen!5))!(gen!5))!(gen!200)",
        "[[ T[4000 + t, i, j] * 1.8 + 32.0 | \\t < 200, \\i < 5, \\j < 5 ]]",
        "zip!([[ T[100 + k, 2, 2] | \\k < 2500 ]], [[ T[5000 + k, 2, 2] | \\k < 2500 ]])",
    ];
    let mut total = 0;
    for (query, steps) in statements.iter().zip([36_404, 31_403, 55_004, 37_502]) {
        let (predicted, actual, kernels) = predicted_actual_kernels(&mut s, query);
        assert_eq!((predicted, actual), (steps, steps), "{query}");
        assert_eq!(kernels, 1, "{query} ran as one kernel");
        total += actual;
    }
    assert_eq!(total, 160_313, "the benchmark's eval.steps_per_op on warm_scan");
}

#[test]
fn the_experiment_terms_cost_within_a_factor_of_two_of_the_prediction() {
    let mut s = Session::new();
    s.bind_val("A", nats(128, 23)).unwrap();
    s.bind_val("B", nats(128, 29)).unwrap();
    // E8's inputs, and a stand-in for its external (the cost of a
    // native call is one step whatever it computes).
    s.bind_val("T", reals(vec![720])).unwrap();
    s.bind_val("RH", reals(vec![720])).unwrap();
    s.bind_val("WS", reals(vec![1440, 3])).unwrap();
    s.bind_val("threshold", Value::Real(96.0)).unwrap();
    let day = Type::array1(Type::tuple(vec![Type::Real, Type::Real, Type::Real]));
    s.register_external(NativeFn::new("heatindex", Type::fun(day, Type::Real), |v| {
        let hours = v.as_array()?;
        let mut max = f64::MIN;
        for h in 0..hours.len() {
            max = max.max(hours.value_at(h).as_tuple()?[0].as_real()?);
        }
        Ok(Value::Real(max))
    }));
    let terms = [
        // E1: zip.
        ("E1", "zip!(A, B)"),
        // E3: zip ∘ subseq, both ways round.
        ("E3 zip first", "subseq!(zip!(A, B), 32, 96)"),
        ("E3 subseq first", "zip!(subseq!(A, 32, 96), subseq!(B, 32, 96))"),
        // E5: β^p and δ^p.
        ("E5 subscript", "[[ i * i | \\i < 1000 ]][500]"),
        ("E5 length", "len!([[ i * i | \\i < 1000 ]])"),
        // E8: the §1 heat-index query.
        (
            "E8",
            "{d | \\d <- gen!30,
                 \\WS' == evenpos!(proj_col!(WS, 0)),
                 \\TRW == zip_3!(T, RH, WS'),
                 \\A == subseq!(TRW, d*24, d*24+23),
                 heatindex!(A) > threshold}",
        ),
    ];
    for (name, query) in terms {
        let (predicted, actual, _) = predicted_actual_kernels(&mut s, query);
        let ratio = predicted as f64 / actual as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{name}: predicted {predicted} steps, took {actual} (ratio {ratio:.2})"
        );
    }
}
