//! End-to-end test of the rewrite-soundness gate: a deliberately
//! unsound rule injected into the standard pipeline is caught by the
//! session's verify mode and attributed to its `(phase, rule)`.
//!
//! This is the acceptance check for the gate — the engine-level unit
//! tests live in `aql-opt`; here the violation travels the whole way
//! through `Session::run` and surfaces as `LangError::Unsound` while
//! the session itself stays usable.

use std::rc::Rc;

use aql::core::expr::Expr;
use aql::lang::{LangError, Session};
use aql::opt::Rule;

/// Rewrites the literal `7` to `true` — type-changing, unsound.
struct EvilTypeChange;

impl Rule for EvilTypeChange {
    fn name(&self) -> &'static str {
        "evil-type-change"
    }
    fn apply(&self, e: &Expr) -> Option<Expr> {
        matches!(e, Expr::Nat(7)).then_some(Expr::Bool(true))
    }
}

/// Rewrites the literal `41` to an unbound variable — scope-escaping.
struct EvilGhostVar;

impl Rule for EvilGhostVar {
    fn name(&self) -> &'static str {
        "evil-ghost-var"
    }
    fn apply(&self, e: &Expr) -> Option<Expr> {
        matches!(e, Expr::Nat(41)).then_some(Expr::Var("ghost".into()))
    }
}

/// Rewrites the literal `13` to the 1-tuple `(13)` — a term no parser
/// builds and `Type::tuple` asserts against.
struct EvilOneTuple;

impl Rule for EvilOneTuple {
    fn name(&self) -> &'static str {
        "evil-one-tuple"
    }
    fn apply(&self, e: &Expr) -> Option<Expr> {
        matches!(e, Expr::Nat(13)).then(|| Expr::Tuple(vec![Expr::Nat(13)]))
    }
}

fn session_with_rule(rule: Rc<dyn Rule>) -> Session {
    let mut s = Session::new();
    // Explicit: the default is debug-on/release-off, but this test must
    // exercise the gate in both profiles (CI runs it under AQL_VERIFY=1
    // in release too).
    s.verify = true;
    s.optimizer_mut()
        .phase_mut("normalize")
        .expect("standard pipeline has a normalize phase")
        .add_rule(rule);
    s
}

#[test]
fn type_changing_rewrite_is_caught_and_attributed() {
    let mut s = session_with_rule(Rc::new(EvilTypeChange));
    let err = s.run("7 + 0;").expect_err("the gate must reject the rewrite");
    let LangError::Unsound { phase, rule, message } = &err else {
        unreachable!("expected LangError::Unsound, got: {err}");
    };
    assert_eq!(phase, "normalize");
    assert_eq!(rule, "evil-type-change");
    assert!(
        message.contains("type"),
        "message explains the type change: {message}"
    );
    // Attribution is part of the rendered error.
    let text = err.to_string();
    assert!(text.contains("unsound rewrite by rule `evil-type-change`"), "{text}");
    assert!(text.contains("phase `normalize`"), "{text}");
    // The session survives and still answers untainted queries.
    let out = s.run("1 + 1;").expect("session stays usable");
    assert!(out[0].text.contains("val it = 2"), "{}", out[0].text);
}

#[test]
fn scope_escaping_rewrite_is_caught_under_binders() {
    let mut s = session_with_rule(Rc::new(EvilGhostVar));
    // The redex sits under the tabulation binder `i`; the gate must
    // still see that `ghost` is not in scope there.
    let err = s
        .run("[[ 41 + i | \\i < 3 ]][0];")
        .expect_err("the gate must reject the ghost variable");
    let LangError::Unsound { phase, rule, message } = &err else {
        unreachable!("expected LangError::Unsound, got: {err}");
    };
    assert_eq!(phase, "normalize");
    assert_eq!(rule, "evil-ghost-var");
    assert!(
        message.contains("ghost") || message.contains("unbound"),
        "message names the escape: {message}"
    );
}

#[test]
fn a_malformed_contractum_is_an_attributed_error_not_a_panic() {
    // The gate feeds a rule's output to the typechecker, which must
    // answer with a type error for a term outside the grammar too.
    let mut s = session_with_rule(Rc::new(EvilOneTuple));
    let err = s.run("13 + 0;").expect_err("the gate must reject the 1-tuple");
    let LangError::Unsound { phase, rule, message } = &err else {
        unreachable!("expected LangError::Unsound, got: {err}");
    };
    assert_eq!((phase.as_str(), rule.as_str()), ("normalize", "evil-one-tuple"));
    assert!(message.contains("1-tuple"), "message names the malformation: {message}");
    let out = s.run("1 + 1;").expect("session stays usable");
    assert!(out[0].text.contains("val it = 2"), "{}", out[0].text);
}

#[test]
fn gate_off_lets_the_corruption_through() {
    // With verify off, the same evil rule corrupts the query — the
    // failure (if any) shows up later and is NOT attributed. This
    // documents what the gate buys.
    let mut s = Session::new();
    s.verify = false;
    s.optimizer_mut()
        .phase_mut("normalize")
        .expect("standard pipeline has a normalize phase")
        .add_rule(Rc::new(EvilTypeChange));
    match s.run("7 + 0;") {
        Ok(out) => assert!(
            !out[0].text.contains("val it = 7"),
            "the rewrite corrupted the answer yet it still printed 7: {}",
            out[0].text
        ),
        Err(e) => assert!(
            !matches!(e, LangError::Unsound { .. }),
            "without the gate there is nothing to attribute: {e}"
        ),
    }
}

#[test]
fn sound_sessions_run_clean_with_the_gate_on() {
    let mut s = Session::new();
    s.verify = true;
    let out = s.run("[[ i * i | \\i < 8 ]][3];").expect("sound pipeline passes the gate");
    assert!(out[0].text.contains("val it = 9"), "{}", out[0].text);
}
