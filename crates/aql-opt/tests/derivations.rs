//! The §5 derivations, mechanically checked.
//!
//! The paper claims its three array rules (plus the NRC rules) derive
//! the rewrites one would otherwise add per-primitive:
//!
//! * `transpose([[e | i<m, j<n]]) ⤳ [[e | j<n, i<m]]` — derived via
//!   β, δ^p, π, β^p and the redundant-check rules (shown step by step
//!   in §5);
//! * `zip ∘ (subseq, subseq)` and `subseq ∘ zip` normalize "to the
//!   same query, up to extra constant-time bound checks" (§1, §5).

use aql_core::eval::eval_closed;
use aql_core::expr::builder::*;
use aql_core::expr::free::alpha_eq;
use aql_core::expr::Expr;
use aql_lang::session::Session;
use aql_opt::{normalize_and_eliminate, normalizer, optimize, optimize_traced};

/// The core term `name!(args)` becomes in an optimizer-off session: the
/// prelude macro's resolved body as written, applied to its argument,
/// or to the tuple of its arguments. The derivations start from what
/// the paper writes, not from the normal forms a session stores.
fn prelude(name: &str, mut args: Vec<Expr>) -> Expr {
    let arg = if args.len() == 1 { args.pop().expect("one argument") } else { tuple(args) };
    let mut session = Session::new();
    session.optimize = false;
    app(session.resolve(&var(name)), arg)
}

fn count_tabs(e: &Expr) -> usize {
    let mut n = 0;
    e.walk(&mut |x| {
        if matches!(x, Expr::Tab { .. }) {
            n += 1;
        }
    });
    n
}

fn count_ifs(e: &Expr) -> usize {
    let mut n = 0;
    e.walk(&mut |x| {
        if matches!(x, Expr::If(..)) {
            n += 1;
        }
    });
    n
}

#[test]
fn transpose_rule_is_derivable() {
    // transpose([[ i*10 + j | i < m, j < n ]])
    let body = add(mul(var("i"), nat(10)), var("j"));
    let tabbed = tab(vec![("i", var("m")), ("j", var("n"))], body.clone());
    let e = prelude("transpose", vec![tabbed]);

    let opt = normalize_and_eliminate().optimize(&e);

    // Expected: [[ i*10 + j | j < n, i < m ]] (up to renaming).
    let expect = tab(vec![("j", var("n")), ("i", var("m"))], body);
    assert!(
        alpha_eq(&opt, &expect),
        "derived transpose rule failed:\n got    {opt}\n expect {expect}"
    );
}

#[test]
fn transpose_derivation_uses_the_paper_rules() {
    let tabbed = tab(vec![("i", var("m")), ("j", var("n"))], var("i"));
    let e = prelude("transpose", vec![tabbed]);
    let (_, trace) = optimize_traced(&e);
    // The §5 derivation applies β, δ^p, π, β^p, and then the
    // redundant-check machinery.
    assert!(trace.count("beta") >= 1, "β step missing");
    assert!(trace.count("delta-p") >= 1, "δ^p step missing");
    assert!(trace.count("pi") >= 2, "π steps missing");
    assert!(trace.count("beta-p") >= 1, "β^p step missing");
    assert!(trace.count("tab-body-bound") >= 1, "check elimination missing");
}

#[test]
fn transpose_of_concrete_matrix_still_correct() {
    let m = array_lit(
        vec![nat(2), nat(3)],
        vec![nat(1), nat(2), nat(3), nat(4), nat(5), nat(6)],
    );
    let e = prelude("transpose", vec![m]);
    let opt = optimize(&e);
    assert_eq!(eval_closed(&e).unwrap(), eval_closed(&opt).unwrap());
}

#[test]
fn zip_subseq_commute_to_one_tabulation() {
    // Both pipelines over free A, B, constant slice bounds.
    let slice = |a| prelude("subseq", vec![a, nat(2), nat(9)]);
    let lhs = prelude("zip", vec![slice(var("A")), slice(var("B"))]);
    let rhs = slice(prelude("zip", vec![var("A"), var("B")]));

    let nl = normalize_and_eliminate().optimize(&lhs);
    let nr = normalize_and_eliminate().optimize(&rhs);

    // Fusion: no intermediate arrays remain — a single tabulation each.
    assert_eq!(count_tabs(&nl), 1, "lhs kept an intermediate array: {nl}");
    assert_eq!(count_tabs(&nr), 1, "rhs kept an intermediate array: {nr}");

    // "…up to extra constant-time bound checks": the residue is at
    // most a couple of ifs per element.
    assert!(count_ifs(&nl) <= 2, "lhs residue too large: {nl}");
    assert!(count_ifs(&nr) <= 2, "rhs residue too large: {nr}");
}

#[test]
fn zip_subseq_semantics_agree_after_optimization() {
    let arr_a = array1_lit((0..12).map(|v| nat(v * 3)).collect());
    let arr_b = array1_lit((0..15).map(|v| nat(v * 5)).collect());
    let slice = |a| prelude("subseq", vec![a, nat(2), nat(9)]);
    let lhs = prelude("zip", vec![slice(arr_a.clone()), slice(arr_b.clone())]);
    let rhs = slice(prelude("zip", vec![arr_a, arr_b]));
    let vl = eval_closed(&lhs).unwrap();
    let vr = eval_closed(&rhs).unwrap();
    assert_eq!(vl, vr, "unoptimized pipelines must already agree");
    let ol = eval_closed(&optimize(&lhs)).unwrap();
    let or = eval_closed(&optimize(&rhs)).unwrap();
    assert_eq!(ol, vl);
    assert_eq!(or, vr);
}

#[test]
fn beta_p_avoids_materialisation() {
    // [[ i*i | i < 1000 ]][17] — optimized form evaluates no loop.
    let e = sub(tab1("i", nat(1000), mul(var("i"), var("i"))), vec![nat(17)]);
    let opt = optimize(&e);
    assert_eq!(count_tabs(&opt), 0, "tabulation must be eliminated: {opt}");
    assert_eq!(eval_closed(&opt).unwrap(), eval_closed(&e).unwrap());
    // After constant folding the whole thing is a literal.
    assert_eq!(opt, nat(289));
}

#[test]
fn delta_p_computes_length_without_tabulating() {
    let e = len(tab1("i", var("n"), mul(var("i"), var("i"))));
    let opt = optimize(&e);
    assert_eq!(opt, var("n"));
}

#[test]
fn eta_p_collapses_identity_copy() {
    let e = tab1("i", len(var("A")), sub(var("A"), vec![var("i")]));
    assert_eq!(optimize(&e), var("A"));
}

#[test]
fn reverse_of_reverse_normalizes_small() {
    // reverse(reverse A) does not η-contract to A (the double monus
    // defeats syntactic matching — bound-check elimination is
    // undecidable, Prop. 5.1), but it must still normalize to a single
    // tabulation over A and evaluate correctly.
    let e = prelude("reverse", vec![prelude("reverse", vec![var("A")])]);
    let opt = optimize(&e);
    assert_eq!(count_tabs(&opt), 1, "intermediate reversal array must fuse");

    let arr = array1_lit(vec![nat(4), nat(7), nat(9)]);
    let concrete = prelude("reverse", vec![prelude("reverse", vec![arr.clone()])]);
    assert_eq!(
        eval_closed(&optimize(&concrete)).unwrap(),
        eval_closed(&arr).unwrap()
    );
}

#[test]
fn evenpos_projcol_pipeline_fuses() {
    // The §1 pipeline fragment: evenpos(proj_col(WS, 0)).
    let e = prelude("evenpos", vec![prelude("proj_col", vec![var("WS"), nat(0)])]);
    let opt = normalize_and_eliminate().optimize(&e);
    assert_eq!(
        count_tabs(&opt),
        1,
        "column projection must fuse into the evenpos tabulation: {opt}"
    );
}

#[test]
fn optimizer_is_idempotent_on_normal_forms() {
    let cases = vec![
        prelude("zip", vec![var("A"), var("B")]),
        prelude("transpose", vec![var("M")]),
        prelude("evenpos", vec![var("A")]),
        sub(tab1("i", nat(100), var("i")), vec![nat(3)]),
    ];
    for e in cases {
        let once = optimize(&e);
        let twice = optimize(&once);
        assert!(
            alpha_eq(&once, &twice),
            "optimizer not idempotent on {e}:\n once  {once}\n twice {twice}"
        );
    }
}

#[test]
fn normalizer_alone_leaves_redundant_checks() {
    // Without the check-elimination phase, β^p residue remains; with
    // it, the checks disappear. This isolates the two phases.
    let tabbed = tab(vec![("i", var("m")), ("j", var("n"))], var("i"));
    let e = prelude("transpose", vec![tabbed]);
    let normal = normalizer().optimize(&e);
    assert!(count_ifs(&normal) >= 2, "expected residual checks: {normal}");
    let clean = normalize_and_eliminate().optimize(&e);
    assert_eq!(count_ifs(&clean), 0, "checks must be eliminated: {clean}");
}
