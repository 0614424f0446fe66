//! The rewrite engine against the loop it replaced, on the corpus of
//! `tests/common` and on generated terms.
//!
//! The engine offers a node only to the rules whose `heads()` list its
//! root constructor; the loop before it offered every node to every
//! rule. [`reference_run`] *is* that loop (rewriting in place, as rules
//! now take the node by value), kept here as the oracle: same normal
//! form and the same `(phase, rule)` firing sequence, or the dispatch
//! table is wrong. Two more angles on the
//! same table: a library rule fires only at a head it declares, and (in
//! debug builds, inside the engine) every rule the table skips is
//! offered the node anyway and must decline. Exact counts then hold
//! what a timer cannot: the §1 query costs under a thousand
//! `Rule::apply` calls (the parent's loop made 43,479), and no term of
//! the corpus is stopped by a bound instead of a fixpoint.
//!
//! The same corpus and generators hold the per-fire soundness gate to
//! its other half: what it must *not* reject. `Gate::local()` runs
//! `aql_core::check::check_rewrite` — the typechecker in open mode — on
//! every firing, in release builds too (where sessions leave the gate
//! off), and no library rule may trip it. The rewrites it must reject
//! are the detection table in `aql-opt`'s engine tests.

use proptest::prelude::*;

use aql::core::expr::children::for_each_child_mut;
use aql::core::expr::free::alpha_eq;
use aql::core::expr::Expr;
use aql::opt::rules::{checks_phase, motion_phase, normalize_phase};
use aql::opt::{standard, Gate, Phase, Trace};

mod common;
use common::{arb_set_query, arb_step, build_pipeline};

type Firing = (String, &'static str);

fn standard_phases() -> [Phase; 3] {
    [normalize_phase(), checks_phase(), motion_phase()]
}

fn data_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("aql-it-opt-engine-{tag}-{}", std::process::id()))
}

/// The offer-every-rule `Phase::pass`: rewrite the children, then
/// offer the node to *every* rule in registration order, from the first
/// again after each firing.
fn reference_pass(phase: &Phase, e: &mut Expr, fired: &mut Vec<Firing>) {
    for_each_child_mut(e, &mut |_, c| reference_pass(phase, c, fired));
    'offers: for _ in 0..32 {
        for rule in phase.rules() {
            match rule.apply(e.take()) {
                Ok(next) => {
                    fired.push((phase.name.clone(), rule.name()));
                    *e = next;
                    continue 'offers;
                }
                Err(back) => *e = back,
            }
        }
        break;
    }
}

/// The parent's `Optimizer::run`: each phase's passes to a fixpoint.
fn reference_run(e: &Expr) -> (Expr, Vec<Firing>) {
    let (mut cur, mut fired) = (e.clone(), Vec::new());
    for phase in &standard_phases() {
        for _ in 0..64 {
            let before = fired.len();
            reference_pass(phase, &mut cur, &mut fired);
            if fired.len() == before {
                break;
            }
        }
    }
    (cur, fired)
}

fn engine_run(e: &Expr) -> (Expr, Trace) {
    standard().optimize_traced(e)
}

fn firings(trace: &Trace) -> Vec<Firing> {
    trace.steps.iter().map(|s| (s.phase.clone(), s.rule)).collect()
}

/// Same firing sequence, same normal form (up to the numbering of the
/// fresh names each run drew from the shared counter).
fn assert_engine_matches_reference(label: &str, e: &Expr) {
    let (expected, expected_firings) = reference_run(e);
    let (got, trace) = engine_run(e);
    assert_eq!(firings(&trace), expected_firings, "{label}: firing sequence\n{e}");
    assert!(alpha_eq(&got, &expected), "{label}: normal form\n got    {got}\n expect {expected}");
}

/// Every firing of the standard pipeline on `e` passes the per-fire
/// gate, and gating changes nothing about the result.
fn assert_no_library_rewrite_is_rejected(label: &str, e: &Expr) {
    let mut trace = Trace::default();
    let gated = standard()
        .run(e, &Gate::local(), Some(&mut trace))
        .unwrap_or_else(|err| panic!("{label}: {err}\n{e}"));
    let (ungated, expected) = engine_run(e);
    assert_eq!(firings(&trace), firings(&expected), "{label}: the gate only watches\n{e}");
    assert!(alpha_eq(&gated, &ungated), "{label}: normal form\n got    {gated}\n expect {ungated}");
}

/// At every node of `e`, a library rule that fires lists the node's
/// head among its `heads()`.
fn assert_rules_fire_only_at_their_heads(label: &str, e: &Expr) {
    let phases = standard_phases();
    e.walk(&mut |node| {
        for rule in phases.iter().flat_map(Phase::rules) {
            assert!(
                rule.heads().contains(&node.head()) || rule.apply(node.clone()).is_err(),
                "{label}: `{}` fired at a {:?}, which its heads() omit: {node}",
                rule.name(),
                node.head()
            );
        }
    });
}

#[test]
fn the_engine_fires_what_the_offer_every_rule_loop_fires_in_the_same_order() {
    let corpus = common::corpus(&data_dir("reference"));
    assert!(corpus.len() >= 13 + 8 + 8, "derivations, templates, both sessions: {}", corpus.len());
    for (label, e) in &corpus {
        assert_engine_matches_reference(label, e);
    }
}

#[test]
fn a_library_rule_fires_only_at_a_head_it_declares() {
    for (label, e) in &common::corpus(&data_dir("heads")) {
        assert_rules_fire_only_at_their_heads(label, e);
        // The normal form too: other constructors, other shapes.
        assert_rules_fire_only_at_their_heads(label, &engine_run(e).0);
    }
}

#[test]
fn the_per_fire_gate_rejects_no_library_rewrite_on_the_corpus() {
    for (label, e) in &common::corpus(&data_dir("gate")) {
        assert_no_library_rewrite_is_rejected(label, e);
    }
}

#[test]
fn the_standard_pipeline_reaches_a_fixpoint_before_either_bound() {
    for (label, e) in &common::corpus(&data_dir("bounds")) {
        aql::trace::enable();
        let (_, trace) = engine_run(e);
        let spans = aql::trace::disable();
        assert_eq!(trace.bound_hit, None, "{label}: stopped by a bound, not a fixpoint\n{e}");
        assert!(!trace.render_fire_table().contains("bound hit"), "{label}");
        let counted: Vec<_> = spans
            .spans
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(name, _)| name.starts_with("opt.bound_hit"))
            .collect();
        assert!(counted.is_empty(), "{label}: {counted:?}");
    }
}

#[test]
fn the_heat_query_costs_under_a_thousand_applies() {
    let heat = common::core_terms(&mut common::compile_mix_session(), common::HEAT_QUERY);
    let [heat] = heat.as_slice() else { panic!("one query, one term") };
    let (_, expected_firings) = reference_run(heat);
    aql::trace::enable();
    let (_, trace) = engine_run(heat);
    let spans = aql::trace::disable();
    assert!(trace.len() > 200, "the query is the optimizer's largest: {}", trace.len());
    assert_eq!(firings(&trace), expected_firings, "every firing of the offer-every-rule loop");
    // The parent's loop called `apply` 43,479 times for these firings.
    let applies = spans.total_counter("opt.applies");
    assert!(applies as usize >= trace.len(), "a firing is an apply: {applies}");
    assert!(applies <= 1_000, "head dispatch: {applies} applies for {} firings", trace.len());
    assert!(spans.total_counter("opt.visits") > 0, "visits are counted beside them");
}

proptest! {
    // 2 × 128 generated terms.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_array_pipelines_rewrite_as_under_the_reference_driver(
        base in prop::collection::vec(0u64..100, 0..10),
        steps in prop::collection::vec(arb_step(), 1..5),
    ) {
        let e = build_pipeline(base, &steps);
        assert_engine_matches_reference("pipeline", &e);
        assert_rules_fire_only_at_their_heads("pipeline", &e);
        assert_no_library_rewrite_is_rejected("pipeline", &e);
    }

    #[test]
    fn generated_set_queries_rewrite_as_under_the_reference_driver(q in arb_set_query()) {
        assert_engine_matches_reference("set query", &q);
        assert_rules_fire_only_at_their_heads("set query", &q);
        assert_no_library_rewrite_is_rejected("set query", &q);
    }
}
