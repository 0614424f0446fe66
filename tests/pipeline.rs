//! Cross-crate pipeline tests: a corpus of surface AQL queries run
//! through parse → desugar → typecheck → optimize → evaluate, checked
//! for (a) agreement with the unoptimized pipeline and (b) expected
//! answers and types.

use aql::lang::session::Session;
use aql_core::types::Type;
use aql_core::value::Value;

/// (query, expected type rendering, expected value rendering)
const CORPUS: &[(&str, &str, &str)] = &[
    // Sets, comprehensions, filters.
    ("{x | \\x <- gen!10, x % 3 = 0}", "{nat}", "{0, 3, 6, 9}"),
    ("{(x, y) | \\x <- gen!3, \\y <- gen!2}", "{nat * nat}",
     "{(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)}"),
    ("{x | \\x <- {3, 1, 4, 1, 5}, x > 2}", "{nat}", "{3, 4, 5}"),
    // Patterns incl. constants and non-binding occurrences.
    ("{z | (1, \\z) <- {(1, 10), (2, 20), (1, 30)}}", "{nat}", "{10, 30}"),
    ("{(a, c) | (\\a, \\b) <- {(1, 2), (3, 4)}, (b, \\c) <- {(2, 9), (5, 8)}}",
     "{nat * nat}", "{(1, 9)}"),
    // Arrays: tabulation, subscripting, dims, literals.
    ("[[ i * i | \\i < 5 ]]", "[[nat]]_1", "[[0, 1, 4, 9, 16]]"),
    ("[[ i + j | \\i < 2, \\j < 2 ]][1, 1]", "nat", "2"),
    ("len![[7, 8, 9]]", "nat", "3"),
    ("dim_2![[2, 3; 1, 2, 3, 4, 5, 6]]", "nat * nat", "(2, 3)"),
    ("[[9, 8, 7]][5]", "nat", "_|_"),
    // Derived operators (prelude macros).
    ("reverse![[1, 2, 3]]", "[[nat]]_1", "[[3, 2, 1]]"),
    ("evenpos![[0, 1, 2, 3, 4]]", "[[nat]]_1", "[[0, 2]]"),
    ("subseq!([[0, 10, 20, 30, 40]], 1, 3)", "[[nat]]_1", "[[10, 20, 30]]"),
    ("zip!([[1, 2]], [[true, false]])", "[[nat * bool]]_1",
     "[[(1, true), (2, false)]]"),
    ("append!([[1]], [[2, 3]])", "[[nat]]_1", "[[1, 2, 3]]"),
    ("transpose![[2, 2; 1, 2, 3, 4]]", "[[nat]]_2", "[[2, 2; 1, 3, 2, 4]]"),
    ("matmul!([[2, 2; 1, 0, 0, 1]], [[2, 2; 5, 6, 7, 8]])", "[[nat]]_2",
     "[[2, 2; 5, 6, 7, 8]]"),
    // zip and zip_3 truncate to the shortest argument.
    ("zip!([[1, 2, 3]], [[10, 20]])", "[[nat * nat]]_1", "[[(1, 10), (2, 20)]]"),
    ("zip_3!([[1, 2, 3]], [[4, 5]], [[true, false, true]])", "[[nat * nat * bool]]_1",
     "[[(1, 4, true), (2, 5, false)]]"),
    // subseq is inclusive, and empty when j < i.
    ("subseq!([[0, 10, 20]], 2, 2)", "[[nat]]_1", "[[20]]"),
    ("subseq!([[0, 10, 20]], 2, 0)", "[[nat]]_1", "[[0;]]"),
    ("evenpos![[9]]", "[[nat]]_1", "[[0;]]"),
    ("oddpos![[0, 1, 2, 3, 4]]", "[[nat]]_1", "[[1, 3]]"),
    ("proj_col!([[2, 3; 1, 2, 3, 4, 5, 6]], 1)", "[[nat]]_1", "[[2, 5]]"),
    ("proj_row!([[2, 3; 1, 2, 3, 4, 5, 6]], 1)", "[[nat]]_1", "[[4, 5, 6]]"),
    ("transpose![[2, 3; 1, 2, 3, 4, 5, 6]]", "[[nat]]_2", "[[3, 2; 1, 4, 2, 5, 3, 6]]"),
    ("append!([[1, 2]], [[3]])", "[[nat]]_1", "[[1, 2, 3]]"),
    ("graph![[7, 8, 7]]", "{nat * nat}", "{(0, 7), (1, 8), (2, 7)}"),
    // An inner-dimension mismatch is ⊥.
    ("matmul!([[2, 3; 0, 0, 0, 0, 0, 0]], [[2, 2; 0, 0, 0, 0]])", "[[nat]]_2", "_|_"),
    ("filter!(fn \\x => x < 3, {5, 1, 2, 9})", "{nat}", "{1, 2}"),
    ("forall_in!({}, fn \\x => x > 3)", "bool", "true"),
    ("exists_in!({}, fn \\x => x > 3)", "bool", "false"),
    // Aggregates and numerics.
    ("summap(fn \\x => x)!(gen!101)", "nat", "5050"),
    ("count!{7, 7, 8}", "nat", "2"),
    ("min!{5, 2, 9}", "nat", "2"),
    ("max!(rng![[2, 7, 1]])", "nat", "7"),
    ("7 / 2", "nat", "3"),
    ("7 % 2", "nat", "1"),
    ("2 - 5", "nat", "0"),
    ("1.5 * 2.0", "real", "3.0"),
    ("1 / 0", "nat", "_|_"),
    // Booleans and conditionals.
    ("if 2 < 3 then \"yes\" else \"no\"", "string", "\"yes\""),
    ("not (true and false) or false", "bool", "true"),
    ("forall_in!(gen!5, fn \\x => x < 5)", "bool", "true"),
    ("exists_in!(gen!5, fn \\x => x > 3)", "bool", "true"),
    // index / get / member.
    ("get!{42}", "nat", "42"),
    ("get!{1, 2}", "nat", "_|_"),
    ("member(3, gen!10)", "bool", "true"),
    ("index_1!{(0, \"a\"), (2, \"b\")}", "[[{string}]]_1",
     "[[{\"a\"}, {}, {\"b\"}]]"),
    // Array generators.
    ("{i | [\\i : \\x] <- [[5, 50, 6, 60]], x > 10}", "{nat}", "{1, 3}"),
    ("{x | [(\\i, \\j) : \\x] <- [[2, 2; 1, 2, 3, 4]], i = j}", "{nat}", "{1, 4}"),
    // Blocks and lambdas.
    ("let val \\f = fn \\x => x * x in f!(f!2) end", "nat", "16"),
    ("(fn (\\a, \\b, \\c) => a + b * c)!(1, 2, 3)", "nat", "7"),
    // Bags.
    ("{|1, 1, 2|} bunion {|2|}", "{|nat|}", "{|1, 1, 2, 2|}"),
    ("{| x % 2 | \\x <- {|1, 2, 3|} |}", "{|nat|}", "{|0, 1, 1|}"),
    // Nesting.
    ("nest!{(1, \"a\"), (1, \"b\"), (2, \"c\")}", "{nat * {string}}",
     "{(1, {\"a\", \"b\"}), (2, {\"c\"})}"),
    // Multidimensional index (group-by over pair keys).
    ("index_2!{((0, 1), \"a\"), ((1, 0), \"b\")}", "[[{string}]]_2",
     "[[2, 2; {}, {\"a\"}, {\"b\"}, {}]]"),
    // ODMG primitives (§7) and reshaping (§1), as prelude macros.
    ("upd!([[5, 6, 7]], 0, 9)", "[[nat]]_1", "[[9, 6, 7]]"),
    ("insert_at!(remove_at!([[1, 2, 3]], 1), 1, 9)", "[[nat]]_1", "[[1, 9, 3]]"),
    // A position past the end is ⊥, as for an out-of-range subscript.
    ("remove_at!([[1, 2, 3]], 3)", "[[nat]]_1", "_|_"),
    ("remove_at!([[1, 2, 3]], 7)", "[[nat]]_1", "_|_"),
    ("insert_at!([[1, 2, 3]], 7, 0)", "[[nat]]_1", "_|_"),
    ("reshape!([[1, 2, 3, 4]], 2, 2)", "[[nat]]_2", "[[2, 2; 1, 2, 3, 4]]"),
    // A source shorter than the shape is ⊥.
    ("reshape!([[1, 2]], 2, 3)", "[[nat]]_2", "_|_"),
    ("flatten![[2, 2; 1, 2, 3, 4]]", "[[nat]]_1", "[[1, 2, 3, 4]]"),
    // Coordinate lookup (§7 future work).
    ("nearest!([[10.0, 20.0, 30.0]], 22.0)", "nat", "1"),
];

#[test]
fn corpus_answers_and_types() {
    let mut s = Session::new();
    for (query, ty, val) in CORPUS {
        let (t, v) = s
            .eval_query(query)
            .unwrap_or_else(|e| panic!("query `{query}` failed: {e}"));
        assert_eq!(&t.to_string(), ty, "type of `{query}`");
        assert_eq!(&v.to_string(), val, "value of `{query}`");
    }
}

#[test]
fn corpus_is_optimizer_invariant() {
    let mut with = Session::new();
    let mut without = Session::new();
    without.optimize = false;
    for (query, _, _) in CORPUS {
        let (_, a) = with.eval_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
        let (_, b) = without
            .eval_query(query)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        assert_eq!(a, b, "optimizer changed `{query}`");
    }
}

#[test]
fn ill_typed_queries_rejected_with_messages() {
    let mut s = Session::new();
    for bad in [
        "1 + true",
        "{1} union {true}",
        "[[1, true]]",
        "gen!\"x\"",
        "[[1]][true]",
        "undefined_name!3",
        "{x | \\x <- 5}",
        "if 1 then 2 else 3",
        "min!{fn \\x => x}",
        "(fn \\x => x!x)!(fn \\x => x!x)", // occurs check
    ] {
        let err = s.eval_query(bad).expect_err(bad);
        let msg = err.to_string();
        assert!(msg.contains("type error"), "`{bad}` → {msg}");
    }
}

#[test]
fn parse_errors_are_reported_with_lines() {
    let mut s = Session::new();
    let err = s.run("val \\x = 1;\nval \\y = ((;\n").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
}

#[test]
fn session_state_accumulates_across_statements() {
    let mut s = Session::new();
    s.run("val \\base = 10;").unwrap();
    s.run("macro \\scaled = fn \\x => x * base;").unwrap();
    s.run("val \\v = scaled!5;").unwrap();
    // `it` is bound by *queries*, not by `val` statements.
    assert!(s.eval_query("v + it").is_err(), "no query has run yet");
    s.run("2;").unwrap();
    let (_, v) = s.eval_query("v + it").unwrap();
    assert_eq!(v, Value::Nat(52));
}

#[test]
fn global_rebinding_updates_queries() {
    let mut s = Session::new();
    s.run("val \\n = 3;").unwrap();
    let (_, a) = s.eval_query("gen!n").unwrap();
    assert_eq!(a.as_set().unwrap().len(), 3);
    s.run("val \\n = 5;").unwrap();
    let (_, b) = s.eval_query("gen!n").unwrap();
    assert_eq!(b.as_set().unwrap().len(), 5);
}

#[test]
fn comments_are_ignored_everywhere() {
    let mut s = Session::new();
    let (_, v) = s
        .eval_query("(* leading *) {x (* mid *) | \\x <- gen!3} (* trailing *)")
        .unwrap();
    assert_eq!(v.as_set().unwrap().len(), 3);
}

#[test]
fn deep_nesting_works() {
    let mut s = Session::new();
    // Sets of arrays of tuples of sets.
    let (t, v) = s
        .eval_query("{[[ ({i}, i) | \\i < 2 ]] | \\x <- gen!2}")
        .unwrap();
    assert_eq!(t, Type::set(Type::array1(Type::tuple(vec![
        Type::set(Type::Nat),
        Type::Nat,
    ]))));
    assert_eq!(v.as_set().unwrap().len(), 1, "both x produce the same array");
}

#[test]
fn large_tabulation_through_full_pipeline() {
    let mut s = Session::new();
    let (_, v) = s
        .eval_query("summap(fn \\i => [[ j | \\j < 1000 ]][i])!(gen!1000)")
        .unwrap();
    assert_eq!(v, Value::Nat(499_500));
}
