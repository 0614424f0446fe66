//! Matrix laboratory: the optimizer at work (§5).
//!
//! Run with `cargo run --example matrix_lab`.
//!
//! Shows the §5 machinery on real queries: the transpose rule derived
//! from β/δ^p/π/β^p plus check elimination (with the full rewrite
//! trace), β^p avoiding materialisation, δ^p computing lengths without
//! tabulating, the histogram pair of §2, and a user-injected rewrite
//! rule through the open rule registry.

use std::rc::Rc;

use aql::core::expr::builder::*;
use aql::core::expr::Expr;
use aql::lang::session::Session;
use aql::opt::{normalize_and_eliminate, optimize_traced, Phase, Rule};

fn main() {
    println!("=== §5: the optimizer laboratory ===\n");

    // ---- 1. The transpose derivation --------------------------------
    println!("--- deriving the transpose rule from the core rules ---");
    let tabbed = tab(
        vec![("i", var("m")), ("j", var("n"))],
        add(mul(var("i"), nat(10)), var("j")),
    );
    let mut s = Session::new();
    let e = app(s.resolve(&var("transpose")), tabbed);
    println!("input:      {e}");
    let (opt, trace) = optimize_traced(&e);
    println!("normalized: {opt}\n");
    println!("rewrite trace ({} steps):", trace.len());
    println!("{}", trace.render());

    // ---- 2. β^p avoids materialisation -------------------------------
    println!("--- β^p: one element of a million-element tabulation ---");
    let e = sub(
        tab1("i", nat(1_000_000), mul(var("i"), var("i"))),
        vec![nat(1234)],
    );
    println!("input:     {e}");
    let (opt, trace) = optimize_traced(&e);
    println!("optimized: {opt}");
    println!(
        "(β^p fired {} time(s); the tabulation is gone — no array is ever built)\n",
        trace.count("beta-p")
    );

    // ---- 3. δ^p computes lengths without tabulating -------------------
    println!("--- δ^p: the length of a tabulation is its bound ---");
    let e = len(tab1("i", add(var("n"), nat(5)), mul(var("i"), var("i"))));
    println!("input:     {e}");
    let opt = normalize_and_eliminate().optimize(&e);
    println!("optimized: {opt}\n");

    // ---- 4. The two histograms of §2 ----------------------------------
    println!("--- hist (O(n·m)) vs hist' via index (O(m + n log n)) ---");
    s.run("val \\A = [[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]];").expect("bind A");
    for (name, text) in [
        ("hist ", "[[ summap(fn \\j => if A[j] = i then 1 else 0)!(dom!A) | \\i < max!(rng!A) ]]"),
        ("hist'", "let val \\G = index_1!{(A[j], j) | \\j <- dom!A} in [[ count!(G[i]) | \\i < len!G ]] end"),
    ] {
        let (_, h) = s.eval_query(text).expect(name);
        println!("{name} = {text}\n      = {h}");
    }
    println!("(both count occurrences; hist' groups via the index construct)\n");

    // ---- 5. Openness: inject a user rewrite rule -----------------------
    println!("--- injecting a domain rule: reverse(reverse A) ⤳ A ---");
    /// The user's rule: recognise the *macro-expanded* double reversal
    /// is too hard syntactically (Prop. 5.1!), so domain rules match
    /// their own marker primitives. Here we mark with an external call.
    struct DoubleReverse;
    impl Rule for DoubleReverse {
        fn name(&self) -> &'static str {
            "double-reverse"
        }
        fn apply(&self, mut e: Expr) -> Result<Expr, Expr> {
            // rev(rev(x)) with rev spelled as an Ext call.
            let is_rev = |f: &Expr| matches!(f, Expr::Ext(n) if &**n == "rev");
            if let Expr::App(f, a) = &mut e {
                if let Expr::App(g, inner) = &mut **a {
                    if is_rev(f) && is_rev(g) {
                        return Ok(inner.take());
                    }
                }
            }
            Err(e)
        }
    }
    let mut opt = aql::opt::standard();
    let mut phase = Phase::new("domain-rules");
    phase.add_rule(Rc::new(DoubleReverse));
    opt.add_phase(phase);
    let e = app(ext("rev"), app(ext("rev"), var("A")));
    println!("input:     {e}");
    let rewritten = opt.optimize(&e);
    println!("optimized: {rewritten}");
    assert_eq!(rewritten, var("A"));
    println!("(rule bases are extensible at run time, as §4–§5 describe)");
}
