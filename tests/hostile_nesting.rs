//! Hostile nesting ends in an answer or a typed error, never in a stack
//! overflow.
//!
//! A stack overflow aborts the process, and `catch_unwind` cannot catch
//! it, so the corpus runs in a child process: this binary re-executes
//! itself on the one test below that does the work, and an abort there
//! reads as a failed exit here. The child runs each family of nesting —
//! parentheses, set, array and tuple literals, `if`, `let` and
//! application, and `COFILE` values — 10³, 10⁴ and 10⁵ deep; chains
//! the parser builds in a loop — `+`, `not`, `!` and `[0]` — 10³ to 10⁶
//! long; `let` blocks of 10⁴ and 10⁵ `val`s and tuple patterns as wide,
//! which desugar to chains of `let`s; and the doubling macro towers
//! `d_k!(0)` (a `+` chain 2^k long once the optimizer has reduced it)
//! for k ≤ 16, all on a test thread's stack — each tower macro defined
//! (from d4 on keeping its body as written: its normal form is deeper)
//! and d1–d8 answering. Each must answer or end in `LangError::TooDeep`,
//! class `too-deep`, and `1+1;` must answer after it. Then a full
//! session loads on a 512 KiB thread and each family 10⁴ deep ends in
//! `too-deep` there: the guard reads the stack of the thread it runs on
//! (`aql::core::stack`).

use std::process::Command;

use aql::journal::ErrorClass;
use aql::lang::errors::LangError;
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

/// A statement that desugars to a chain of `n` `let`s, one a binder or
/// component: a `let` block of `n` `val`s, or a tuple pattern of `n`
/// components.
fn wide(form: &str, n: usize) -> String {
    let names = |sep: &str, name: &dyn Fn(usize) -> String| (0..n).map(name).collect::<Vec<_>>().join(sep);
    match form {
        "let block" => format!("let {} in 1 end;", names(" ", &|i| format!("val \\a{i} = 1"))),
        _ => format!("fn ({}) => 1;", names(", ", &|i| format!("\\a{i}"))),
    }
}

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
        Err(e @ LangError::TooDeep) => assert_eq!(e.class(), ErrorClass::TooDeep, "{what}"),
        other => panic!("{what}: {:?}", other.map(|o| o.len())),
    }
    answers(s, what);
}

/// An answer or `too-deep`, and `1+1;` answers after it.
fn answers_or_too_deep(s: &mut Session, stmt: &str, what: &str) {
    match s.run(stmt) {
        Ok(_) => {}
        Err(e @ LangError::TooDeep) => assert_eq!(e.class(), ErrorClass::TooDeep, "{what}"),
        Err(e) => panic!("{what}: {e}"),
    }
    answers(s, what);
}

/// A statement chaining one operator `n` times: the parser builds it in
/// a loop. `[0]` is a macro's body, whose parameter is inferred as an
/// `n`-deep array.
fn chain(op: &str, n: usize) -> String {
    match op {
        "+" => format!("{}1;", "1 + ".repeat(n)),
        "not" => format!("{}true;", "not ".repeat(n)),
        "!" => format!("{}1;", "id!".repeat(n)),
        _ => format!("macro \\s = fn \\a => a{};", "[0]".repeat(n)),
    }
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
            answers_or_too_deep(&mut s, &nested(family, n), &format!("{family} × {n}"));
        }
        answers_or_too_deep(&mut s, &cofile(&dir, n), &format!("COFILE × {n}"));
    }
    s.run("macro \\id = fn \\x => x;").expect("the identity");
    for n in [1_000, 10_000, 100_000, 1_000_000] {
        for op in ["+", "not", "!", "[0]"] {
            answers_or_too_deep(&mut s, &chain(op, n), &format!("`{op}` × {n}"));
        }
    }
    // From 10⁴, where desugar's chain is past a test thread's stack (a
    // 10³-wide tuple pattern answers, but typechecks in seconds: time
    // cubic in the width).
    for n in [10_000, 100_000] {
        for form in ["let block", "tuple pattern"] {
            answers_or_too_deep(&mut s, &wide(form, n), &format!("{form} × {n}"));
        }
    }
    s.run("macro \\d0 = fn \\x => x + 1;").expect("d0");
    for k in 1..=16 {
        let tower = format!("macro \\d{k} = fn \\x => d{j}!(d{j}!(x));", j = k - 1);
        s.run(&tower).unwrap_or_else(|e| panic!("d{k}: {e}"));
        let dk = aql::core::expr::Expr::Var(format!("d{k}").as_str().into());
        let stored = s.resolve(&dk);
        s.optimize = false;
        let written = s.resolve(&dk);
        s.optimize = true;
        // d1–d3 keep their normal forms, `+` chains; from d4 on the
        // chain (2^k deep) is deeper than the body as written, and the
        // macro resolves as written.
        assert_eq!(stored != written, k <= 3, "d{k}: {:?} stored, {:?} as written", stored.extent(), written.extent());
        // d1–d8 answer on a test thread, as when every use re-normalized
        // its macro.
        let stmt = format!("d{k}!(0);");
        match k {
            ..=8 => drop(s.run(&stmt).unwrap_or_else(|e| panic!("d{k}!(0): {e}"))),
            _ => answers_or_too_deep(&mut s, &stmt, &format!("d{k}!(0)")),
        }
    }
    // A full session loads on a quarter of a test thread's stack, and
    // 10⁴ of each family is too deep there, whichever pass the guard
    // fires in.
    let small = std::thread::Builder::new()
        .stack_size(512 << 10)
        .spawn(move || {
            let mut s = Session::new();
            for family in FAMILIES {
                too_deep(&mut s, &nested(family, 10_000), family);
            }
            too_deep(&mut s, &cofile(&dir, 10_000), "COFILE");
            std::fs::remove_dir_all(&dir).ok();
        })
        .expect("a thread");
    small.join().expect("a session loads and every family is too deep on 512 KiB");
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
