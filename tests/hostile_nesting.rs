//! Hostile nesting ends in a typed error, never in a stack overflow.
//!
//! A stack overflow aborts the process, and `catch_unwind` cannot catch
//! it, so the corpus runs in a child process: this binary re-executes
//! itself on the one test below that does the work, and an abort there
//! reads as a failed exit here. The child runs each family of nesting —
//! parentheses, set, array and tuple literals, `if`, `let` and
//! application, and `COFILE` values — 10³, 10⁴ and 10⁵ deep on a test
//! thread's stack: each must end in `LangError::TooDeep`, class
//! `too-deep`, and `1+1;` must answer after it. It then runs the deepest
//! forms each budget admits through the whole pipeline on a quarter of
//! that stack (512 KiB of a test thread's 2 MiB): the budgets leave a
//! four-fold margin in a debug build.

use std::process::Command;

use aql::journal::ErrorClass;
use aql::lang::errors::LangError;
use aql::lang::parser::{parse_program, MAX_DEPTH};
use aql::lang::session::Session;

/// The variable that makes this binary the child.
const CHILD: &str = "AQL_HOSTILE_NESTING_CHILD";

/// A statement nesting one family `n` deep.
fn nested(family: &str, n: usize) -> String {
    let r = |s: &str| s.repeat(n);
    match family {
        "parentheses" => format!("{}1{};", r("("), r(")")),
        "sets" => format!("{}1{};", r("{"), r("}")),
        "arrays" => format!("{}1{};", r("[["), r("]]")),
        "tuples" => format!("{}1{};", r("(1, "), r(")")),
        "if" => format!("{}1{};", r("if true then "), r(" else 0")),
        "let" => format!("{}x{};", r("let val \\x = 1 in "), r(" end")),
        _ => format!("{}1{};", r("(fn \\x => x)!("), r(")")),
    }
}

const FAMILIES: [&str; 7] = ["parentheses", "sets", "arrays", "tuples", "if", "let", "application"];

/// `readval` of a `COFILE` value nesting `n` arrays deep (tuples and
/// sets alternate with them).
fn cofile(dir: &std::path::Path, n: usize) -> String {
    let open = ["[[", "(1, ", "{"];
    let close = ["]]", ")", "}"];
    let value: String = (0..n).map(|i| open[i % 3]).chain(["1"]).chain((0..n).rev().map(|i| close[i % 3])).collect();
    let path = dir.join(format!("nested-{n}.co"));
    std::fs::write(&path, value).expect("write the value");
    format!("readval \\v using COFILE at \"{}\";", path.display())
}

/// `1+1;` still answers.
fn answers(s: &mut Session, after: &str) {
    let out = s.run("1+1;").unwrap_or_else(|e| panic!("after {after}: {e}"));
    assert_eq!(out[0].value, Some(aql::core::value::Value::Nat(2)), "after {after}");
}

fn too_deep(s: &mut Session, stmt: &str, what: &str) {
    match s.run(stmt) {
        Err(e @ LangError::TooDeep(_)) => assert_eq!(e.class(), ErrorClass::TooDeep, "{what}"),
        other => panic!("{what}: {:?}", other.map(|o| o.len())),
    }
    answers(s, what);
}

/// Everything, in the child: an abort here fails the parent.
#[test]
fn child() {
    if std::env::var_os(CHILD).is_none() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("aql-hostile-nesting-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let mut s = Session::new();
    for n in [1_000, 10_000, 100_000] {
        for family in FAMILIES {
            too_deep(&mut s, &nested(family, n), &format!("{family} × {n}"));
        }
        too_deep(&mut s, &cofile(&dir, n), &format!("COFILE × {n}"));
    }
    // The deepest form of each family the budgets admit (one level more
    // is too deep) runs the whole pipeline on a quarter of a test
    // thread's stack.
    let deepest = std::thread::Builder::new()
        .stack_size(512 << 10)
        .spawn(move || {
            let mut s = Session::new();
            for family in FAMILIES {
                // The deepest this family's statement parses at.
                let parses = |n: &usize| !matches!(parse_program(&nested(family, *n)), Err(LangError::TooDeep(_)));
                let n = (0..MAX_DEPTH).rev().find(parses).expect("a shallow form parses");
                s.run(&nested(family, n)).unwrap_or_else(|e| panic!("{family} × {n}, at the budget: {e}"));
                too_deep(&mut s, &nested(family, n + 1), family);
            }
            let stmt = cofile(&dir, aql::core::value::parse::MAX_DEPTH - 1);
            s.run(&format!("{stmt} v;")).unwrap_or_else(|e| panic!("COFILE at the budget: {e}"));
            too_deep(&mut s, &cofile(&dir, aql::core::value::parse::MAX_DEPTH), "COFILE");
            std::fs::remove_dir_all(&dir).ok();
        })
        .expect("a thread");
    deepest.join().expect("the deepest admitted forms run");
    println!("hostile nesting: every form typed");
}

/// The budget takes away no ordinary program: a dozen levels of each
/// form, and a 12-arm `else if` chain, still run.
#[test]
fn ordinary_depths_are_admitted() {
    let mut s = Session::new();
    let arms: String = (0..12).map(|i| format!("if x = {i} then {i} else ")).collect();
    let chain = format!("let val \\x = 11 in {arms}99 end;");
    assert_eq!(s.run(&chain).expect("a 12-arm else-if")[0].value, Some(aql::core::value::Value::Nat(11)));
    let curried = format!("({}0){};", "fn \\x => ".repeat(9), "!1".repeat(9));
    for stmt in [curried, nested("sets", 8)].into_iter().chain(["parentheses", "if", "let", "application", "arrays", "tuples"].map(|f| nested(f, 15))) {
        s.run(&stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
    }
}

#[test]
fn hostile_nesting_ends_in_a_typed_error_in_a_child_process() {
    let out = Command::new(std::env::current_exe().expect("this test binary"))
        .args(["child", "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("the child runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("hostile nesting: every form typed"),
        "the child failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
