//! Failure injection: every failure mode of the open architecture —
//! failing readers and writers, failing and ⊥-receiving external
//! primitives, resource exhaustion, hostile optimizer rules — must
//! surface as a reported error and leave the session usable.

use std::rc::Rc;

use aql::lang::errors::LangError;
use aql::lang::reader::{Reader, Writer};
use aql::lang::session::Session;
use aql_core::error::EvalError;
use aql_core::eval::Limits;
use aql_core::prim::NativeFn;
use aql_core::types::Type;
use aql_core::value::Value;

/// A reader that always fails.
struct BrokenReader;
impl Reader for BrokenReader {
    fn read(&self, _arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        Err(LangError::session("device unplugged"))
    }
}

/// A writer that always fails.
struct BrokenWriter;
impl Writer for BrokenWriter {
    fn write(&self, _arg: &Value, _data: &Value) -> Result<(), LangError> {
        Err(LangError::session("disk full"))
    }
}

#[test]
fn failing_reader_leaves_session_usable() {
    let mut s = Session::new();
    s.register_reader("BROKEN", Rc::new(BrokenReader));
    let err = s.run("readval \\x using BROKEN at 0;").unwrap_err();
    assert!(err.to_string().contains("device unplugged"));
    // The failed readval bound nothing...
    assert!(s.eval_query("x").is_err());
    // ...and the session still evaluates.
    let (_, v) = s.eval_query("1 + 1").unwrap();
    assert_eq!(v, Value::Nat(2));
}

#[test]
fn failing_writer_reports_and_recovers() {
    let mut s = Session::new();
    s.register_writer("BROKEN", Rc::new(BrokenWriter));
    let err = s.run("writeval {1} using BROKEN at 0;").unwrap_err();
    assert!(err.to_string().contains("disk full"));
    let (_, v) = s.eval_query("2 * 2").unwrap();
    assert_eq!(v, Value::Nat(4));
}

#[test]
fn failing_external_is_attributed() {
    let mut s = Session::new();
    s.register_external(NativeFn::new(
        "flaky",
        Type::fun(Type::Nat, Type::Nat),
        |v| {
            let n = v.as_nat()?;
            if n > 5 {
                Err(EvalError::External {
                    name: "flaky".into(),
                    message: "input too large".into(),
                })
            } else {
                Ok(Value::Nat(n))
            }
        },
    ));
    let (_, v) = s.eval_query("flaky!3").unwrap();
    assert_eq!(v, Value::Nat(3));
    let err = s.eval_query("flaky!9").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("flaky") && msg.contains("input too large"), "{msg}");
    // An external that misuses its argument shape is attributed too.
    s.register_external(NativeFn::new(
        "confused",
        Type::fun(Type::Nat, Type::Nat),
        |v| v.as_bool().map(Value::Bool),
    ));
    let err = s.eval_query("confused!1").unwrap_err();
    assert!(err.to_string().contains("confused"), "{err}");
}

#[test]
fn externals_see_bottom_as_bottom() {
    // ⊥ short-circuits *before* host code runs: an external that would
    // crash on ⊥ is never entered.
    let mut s = Session::new();
    s.register_external(NativeFn::new(
        "fragile",
        Type::fun(Type::Nat, Type::Nat),
        |v| Ok(Value::Nat(v.as_nat()? + 1)),
    ));
    let (_, v) = s.eval_query("fragile!([[1]][9])").unwrap();
    assert!(v.is_bottom());
}

#[test]
fn resource_exhaustion_is_clean() {
    let mut s = Session::new();
    s.limits = Limits { max_elems: 1_000, max_steps: 1_000_000, ..Limits::default() };
    // Oversized tabulation.
    let err = s.eval_query("[[ i | \\i < 100000 ]]").unwrap_err();
    assert!(matches!(
        err,
        LangError::Eval(EvalError::ResourceLimit { .. })
    ));
    // Oversized gen inside a comprehension.
    let err = s.eval_query("{x | \\x <- gen!100000}").unwrap_err();
    assert!(matches!(
        err,
        LangError::Eval(EvalError::ResourceLimit { .. })
    ));
    // Step exhaustion.
    s.limits = Limits { max_elems: 1 << 20, max_steps: 100, ..Limits::default() };
    let err = s
        .eval_query("summap(fn \\x => x)!(gen!1000)")
        .unwrap_err();
    assert!(matches!(err, LangError::Eval(EvalError::StepLimit)));
    // Recovery after raising limits.
    s.limits = Limits::default();
    let (_, v) = s.eval_query("summap(fn \\x => x)!(gen!10)").unwrap();
    assert_eq!(v, Value::Nat(45));
}

#[test]
fn overflow_reported_not_wrapped() {
    let mut s = Session::new();
    s.run("val \\big = 18446744073709551615;").unwrap();
    let err = s.eval_query("big + 1").unwrap_err();
    assert!(matches!(err, LangError::Eval(EvalError::Overflow)));
    let err = s.eval_query("big * 2").unwrap_err();
    assert!(matches!(err, LangError::Eval(EvalError::Overflow)));
    // Monus saturates rather than overflowing (the paper's ∸).
    let (_, v) = s.eval_query("0 - big").unwrap();
    assert_eq!(v, Value::Nat(0));
}

#[test]
fn hostile_optimizer_rule_is_contained() {
    use aql::opt::{Phase, Rule};
    use aql_core::expr::Expr;

    /// Rewrites forever by flipping operands.
    struct Flip;
    impl Rule for Flip {
        fn name(&self) -> &'static str {
            "flip"
        }
        fn apply(&self, e: &Expr) -> Option<Expr> {
            match e {
                Expr::Arith(op, a, b) => Some(Expr::Arith(*op, b.clone(), a.clone())),
                _ => None,
            }
        }
    }

    let mut s = Session::new();
    let mut phase = Phase::new("hostile");
    phase.add_rule(Rc::new(Flip));
    s.optimizer_mut().add_phase(phase);
    // The engine's bounds keep this terminating; + is commutative on
    // nat, so the answer is even still right.
    let (_, v) = s.eval_query("20 + 22").unwrap();
    assert_eq!(v, Value::Nat(42));
}

/// A reader that panics instead of returning an error.
struct PanickyReader;
impl Reader for PanickyReader {
    fn read(&self, _arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        panic!("reader exploded mid-read")
    }
}

/// A writer that panics instead of returning an error.
struct PanickyWriter;
impl Writer for PanickyWriter {
    fn write(&self, _arg: &Value, _data: &Value) -> Result<(), LangError> {
        panic!("writer exploded mid-write")
    }
}

#[test]
fn panicking_reader_is_contained_and_named() {
    let mut s = Session::new();
    s.register_reader("KABOOM", Rc::new(PanickyReader));
    let err = s.run("readval \\x using KABOOM at 0;").unwrap_err();
    match &err {
        LangError::ExtensionPanic { kind, name, message } => {
            assert_eq!(*kind, "reader");
            assert_eq!(name, "KABOOM");
            assert!(message.contains("exploded mid-read"), "{message}");
        }
        other => panic!("expected ExtensionPanic, got {other:?}"),
    }
    assert!(err.to_string().contains("KABOOM"), "{err}");
    // Nothing was bound; the session still answers.
    assert!(s.eval_query("x").is_err());
    let (_, v) = s.eval_query("1 + 1").unwrap();
    assert_eq!(v, Value::Nat(2));
}

#[test]
fn panicking_writer_is_contained_and_named() {
    let mut s = Session::new();
    s.register_writer("KABOOM", Rc::new(PanickyWriter));
    let err = s.run("writeval {1} using KABOOM at 0;").unwrap_err();
    match &err {
        LangError::ExtensionPanic { kind, name, message } => {
            assert_eq!(*kind, "writer");
            assert_eq!(name, "KABOOM");
            assert!(message.contains("exploded mid-write"), "{message}");
        }
        other => panic!("expected ExtensionPanic, got {other:?}"),
    }
    let (_, v) = s.eval_query("2 * 3").unwrap();
    assert_eq!(v, Value::Nat(6));
}

#[test]
fn panicking_external_is_contained_and_named() {
    let mut s = Session::new();
    s.register_external(NativeFn::new(
        "crashy",
        Type::fun(Type::Nat, Type::Nat),
        |_| panic!("host bug"),
    ));
    let err = s.eval_query("crashy!1").unwrap_err();
    match &err {
        LangError::Eval(EvalError::External { name, message }) => {
            assert_eq!(name, "crashy");
            assert!(message.contains("panicked") && message.contains("host bug"), "{message}");
        }
        other => panic!("expected External, got {other:?}"),
    }
    // The session is still usable, including the panicky primitive's
    // short-circuit path.
    let (_, v) = s.eval_query("10 - 3").unwrap();
    assert_eq!(v, Value::Nat(7));
}

#[test]
fn panicking_optimizer_rule_is_contained_and_named() {
    use aql::opt::{Phase, Rule};
    use aql_core::expr::Expr;

    /// A rule that panics whenever it sees arithmetic.
    struct Grenade;
    impl Rule for Grenade {
        fn name(&self) -> &'static str {
            "grenade"
        }
        fn apply(&self, e: &Expr) -> Option<Expr> {
            match e {
                Expr::Arith(..) => panic!("rule exploded"),
                _ => None,
            }
        }
    }

    let mut s = Session::new();
    s.run("val \\n = 20;").unwrap();
    let mut phase = Phase::new("booby-trapped");
    phase.add_rule(Rc::new(Grenade));
    s.optimizer_mut().add_phase(phase);
    // A global operand keeps the addition from constant-folding away
    // before the booby-trapped phase runs.
    let err = s.eval_query("n + 22").unwrap_err();
    match &err {
        LangError::ExtensionPanic { kind, name, message } => {
            assert_eq!(*kind, "optimizer rule");
            assert_eq!(name, "grenade");
            assert!(message.contains("rule exploded"), "{message}");
            assert!(message.contains("booby-trapped"), "{message}");
        }
        other => panic!("expected ExtensionPanic, got {other:?}"),
    }
    // Queries the rule leaves alone still work.
    let (_, v) = s.eval_query("{1, 2, 3}").unwrap();
    assert_eq!(v.as_set().unwrap().len(), 3);
    // And `explain` (the traced path) is contained too.
    assert!(matches!(
        s.explain("n + 1").unwrap_err(),
        LangError::ExtensionPanic { .. }
    ));
}

#[test]
fn a_panic_under_a_binder_after_firings_in_the_same_pass_is_contained() {
    use aql::opt::{OptError, Optimizer, Phase, Rule};
    use aql_core::expr::builder::{cmp, gt, lam, le, nat, tuple, var};
    use aql_core::expr::{CmpOp, Expr, Head};

    /// Turns one comparison into its mirror image: `a op b ⤳ b op' a`.
    struct Mirror(&'static str, CmpOp, CmpOp);
    impl Rule for Mirror {
        fn name(&self) -> &'static str {
            self.0
        }
        fn heads(&self) -> &'static [Head] {
            &[Head::Cmp]
        }
        fn apply(&self, e: &Expr) -> Option<Expr> {
            match e {
                Expr::Cmp(op, a, b) if *op == self.1 => Some(Expr::Cmp(self.2, b.clone(), a.clone())),
                _ => None,
            }
        }
    }
    /// Panics at `<>`.
    struct Grenade;
    impl Rule for Grenade {
        fn name(&self) -> &'static str {
            "grenade"
        }
        fn apply(&self, e: &Expr) -> Option<Expr> {
            match e {
                Expr::Cmp(CmpOp::Ne, ..) => panic!("rule exploded"),
                _ => None,
            }
        }
    }
    // The engine rewrites in place, so when the grenade goes off the
    // term it was working on has the first phase's firing in it and,
    // from the same pass under the same binder, the second's.
    let phases = || {
        let mut one = Phase::new("one");
        one.add_rule(Rc::new(Mirror("gt-to-lt", CmpOp::Gt, CmpOp::Lt)));
        let mut two = Phase::new("two");
        two.add_rule(Rc::new(Mirror("le-to-ge", CmpOp::Le, CmpOp::Ge)));
        two.add_rule(Rc::new(Grenade));
        [one, two]
    };
    let x = || var("x");
    let e = lam("x", tuple(vec![gt(x(), nat(1)), le(x(), nat(2)), cmp(CmpOp::Ne, x(), nat(3))]));
    let untouched = e.clone();
    let mut trace = aql::opt::Trace::default();
    let err = Optimizer::with_phases(phases().into())
        .run(&e, &aql::opt::Gate::off(), Some(&mut trace))
        .expect_err("the grenade goes off");
    let OptError::Panic(p) = err else { panic!("expected Panic, got {err}") };
    assert_eq!((p.phase.as_str(), p.rule), ("two", "grenade"));
    assert!(p.message.contains("rule exploded"), "{}", p.message);
    let fired: Vec<_> = trace.steps.iter().map(|s| (s.phase.as_str(), s.rule)).collect();
    assert_eq!(fired, [("one", "gt-to-lt"), ("two", "le-to-ge")], "both fired before it");
    assert_eq!(e, untouched, "the caller's term is not the one rewritten in place");

    // Through a session: the statement fails naming the rule, the next
    // one runs.
    let mut s = Session::new();
    s.run("val \\n = 20;").unwrap();
    for phase in phases() {
        s.optimizer_mut().add_phase(phase);
    }
    let err = s.eval_query("{ (x > n, x <= n, x <> n) | \\x <- gen!3 }").unwrap_err();
    match &err {
        LangError::ExtensionPanic { kind, name, message } => {
            assert_eq!((*kind, name.as_str()), ("optimizer rule", "grenade"));
            assert!(message.contains("two"), "{message}");
        }
        other => panic!("expected ExtensionPanic, got {other:?}"),
    }
    let (_, v) = s.eval_query("{ (x > n, x <= n) | \\x <- gen!3 }").unwrap();
    assert_eq!(v.as_set().unwrap().len(), 1, "(false, true) three times over");
}

#[test]
fn deadline_exceeded_leaves_session_usable() {
    use std::time::Duration;
    let mut s = Session::new();
    s.limits = Limits { timeout: Some(Duration::ZERO), ..Limits::default() };
    let err = s
        .eval_query("summap(fn \\x => x)!(gen!100000)")
        .unwrap_err();
    assert!(matches!(err, LangError::Eval(EvalError::Deadline)), "{err:?}");
    // Restore the limits: the session evaluates again.
    s.limits = Limits::default();
    let (_, v) = s.eval_query("summap(fn \\x => x)!(gen!10)").unwrap();
    assert_eq!(v, Value::Nat(45));
}

#[test]
fn cancellation_flag_stops_query() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let mut s = Session::new();
    let flag = Arc::new(AtomicBool::new(false));
    s.limits = Limits { cancel: Some(flag.clone()), ..Limits::default() };
    // Flag clear: evaluation proceeds.
    let (_, v) = s.eval_query("1 + 1").unwrap();
    assert_eq!(v, Value::Nat(2));
    // Flag set (as a watchdog thread would): evaluation stops.
    flag.store(true, Ordering::Relaxed);
    let err = s.eval_query("summap(fn \\x => x)!(gen!100000)").unwrap_err();
    assert!(matches!(err, LangError::Eval(EvalError::Cancelled)), "{err:?}");
    flag.store(false, Ordering::Relaxed);
    let (_, v) = s.eval_query("2 + 2").unwrap();
    assert_eq!(v, Value::Nat(4));
}

#[test]
fn reshape_macros_guard_against_shape_lies() {
    let mut s = Session::new();
    // Exact reshape works; flatten inverts.
    let (_, v) = s
        .eval_query("flatten!(reshape!([[1, 2, 3, 4, 5, 6]], 2, 3))")
        .unwrap();
    let ns: Vec<u64> = v
        .as_array()
        .unwrap()
        .data()
        .iter()
        .map(|x| x.as_nat().unwrap())
        .collect();
    assert_eq!(ns, vec![1, 2, 3, 4, 5, 6]);
    // Reshaping beyond the source is ⊥ (out-of-bounds read poisons).
    let (_, v) = s.eval_query("reshape!([[1, 2]], 2, 3)").unwrap();
    assert!(v.is_bottom());
}
