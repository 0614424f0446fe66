//! The rewrite engine against the loop it replaced, on the corpus of
//! `tests/common` and on generated terms.
//!
//! The engine offers a node only to the rules whose `heads()` list its
//! root constructor, and after a rule that `substitutes()` fires it
//! rewrites the contractum's children before re-offering the root; the
//! loop before it offered every node to every rule, in whole bottom-up
//! passes. [`reference_run`] is that loop (rewriting in place, as rules
//! now take the node by value), kept here as two oracles. Without the
//! re-walk it is the normal-form oracle: the engine must reach the same
//! term, up to α, or reducing where a substitution lands changed what
//! the rules compute. With the re-walk it is the sequence reference:
//! the same `(phase, rule)` firing sequence, or the dispatch table is
//! wrong. Two more angles on the same table: a library rule fires only
//! at a head it declares, and (in debug builds, inside the engine) every
//! rule the table skips is offered the node anyway and must decline.
//! Exact counts then hold what a timer cannot: the §1 query fires 43
//! rules in at most 600 `Rule::apply` calls (whole passes fired 254 in
//! 931; the parent's loop made 43,479 calls), its largest contractum
//! stays under 128 nodes (1,227 under whole passes), and no term of the
//! corpus is stopped by a bound instead of a fixpoint.
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
use std::cell::Cell;
use std::rc::Rc;

use aql::core::expr::{Expr, Head};
use aql::opt::rules::{checks_phase, motion_phase, normalize_phase};
use aql::opt::{standard, Gate, Optimizer, Phase, Rule, Trace};

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
/// again after each firing. With `rewalk`, a firing of a rule that
/// `substitutes()` rewrites the contractum's children again before the
/// node is re-offered, as the engine does; without it, this is the loop
/// of whole passes the engine replaced.
fn reference_pass(phase: &Phase, e: &mut Expr, rewalk: bool, fired: &mut Vec<Firing>) {
    for_each_child_mut(e, &mut |_, c| reference_pass(phase, c, rewalk, fired));
    'offers: for _ in 0..32 {
        for rule in phase.rules() {
            match rule.apply(e.take()) {
                Ok(next) => {
                    fired.push((phase.name.clone(), rule.name()));
                    *e = next;
                    if rewalk && rule.substitutes() {
                        for_each_child_mut(e, &mut |_, c| reference_pass(phase, c, rewalk, fired));
                    }
                    continue 'offers;
                }
                Err(back) => *e = back,
            }
        }
        break;
    }
}

/// Each phase's [`reference_pass`]es to a fixpoint. With `rewalk` it is
/// the sequence reference: the engine must fire what it fires, in its
/// order. Without, it is the parent's `Optimizer::run` and the
/// normal-form oracle: the engine must reach its normal form.
fn reference_run(e: &Expr, rewalk: bool) -> (Expr, Vec<Firing>) {
    let (mut cur, mut fired) = (e.clone(), Vec::new());
    for phase in &standard_phases() {
        for _ in 0..64 {
            let before = fired.len();
            reference_pass(phase, &mut cur, rewalk, &mut fired);
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

/// Same firing sequence as the sequence reference, and the normal form
/// of whole passes (up to the numbering of the fresh names each run drew
/// from the shared counter).
fn assert_engine_matches_reference(label: &str, e: &Expr) {
    let (_, expected_firings) = reference_run(e, true);
    let (expected, _) = reference_run(e, false);
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
        let opt = standard();
        let (_, trace) = opt.optimize_traced(e);
        assert_eq!(trace.bound_hit, None, "{label}: stopped by a bound, not a fixpoint\n{e}");
        assert!(!trace.render_fire_table().contains("bound hit"), "{label}");
        let counted: Vec<_> = opt.counts().rules.into_iter().filter(|r| r.bound_hits > 0).collect();
        assert!(counted.is_empty(), "{label}: {counted:?}");
    }
}

/// A library rule behind a recorder of the largest contractum it builds.
struct Measured {
    rule: Rc<dyn Rule>,
    largest: Rc<Cell<usize>>,
}

impl Rule for Measured {
    fn name(&self) -> &'static str {
        self.rule.name()
    }
    fn heads(&self) -> &'static [Head] {
        self.rule.heads()
    }
    fn substitutes(&self) -> bool {
        self.rule.substitutes()
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        let out = self.rule.apply(e);
        if let Ok(next) = &out {
            self.largest.set(self.largest.get().max(next.size()));
        }
        out
    }
}

/// The size in nodes of the largest contractum the standard pipeline
/// builds on `e`.
fn largest_contractum(e: &Expr) -> usize {
    let largest = Rc::new(Cell::new(0));
    let phases = standard_phases().map(|phase| {
        let mut measured = Phase::new(&phase.name);
        for rule in phase.rules() {
            measured.add_rule(Rc::new(Measured { rule: rule.clone(), largest: largest.clone() }));
        }
        measured
    });
    Optimizer::with_phases(phases.into()).optimize(e);
    largest.get()
}

#[test]
fn the_heat_query_is_reduced_where_its_substitutions_land() {
    let heat = common::core_terms(&mut common::compile_mix_session(), common::HEAT_QUERY);
    let [heat] = heat.as_slice() else { panic!("one query, one term") };
    let (_, expected_firings) = reference_run(heat, true);
    let opt = standard();
    let (_, trace) = opt.optimize_traced(heat);
    let counts = opt.counts();
    assert_eq!(firings(&trace), expected_firings, "every firing of the offer-every-rule loop");
    assert_eq!(counts.fires(), trace.len() as u64, "the run counts what the trace records");
    // Whole passes fired 254 rules here, 172 / 29 / 28 of them these
    // three: `subseq!`'s inlined `let p` left `pi_1_3!(TRW, …)` redexes
    // below its contractum, the enclosing `let TRW` copied the
    // tabulation into all four and `let WS'` copied
    // `evenpos!(proj_col!(WS, 0))` into twelve places, unreduced, before
    // the next pass shrank the copies again.
    assert_eq!(trace.len(), 43);
    let count = |rule| trace.count_in("normalize", rule);
    assert_eq!([count("pi"), count("beta-p"), count("delta-p")], [13, 3, 2]);
    // Whole passes made 931 applies; the parent's loop before head
    // dispatch, 43,479.
    let applies = counts.applies;
    assert!(applies as usize >= trace.len(), "a firing is an apply: {applies}");
    assert!(applies <= 600, "{applies} applies for {} firings", trace.len());
    assert!(counts.visits > 0, "visits are counted beside them");
    // 1,227 nodes under whole passes; 102 when reduced where it lands.
    let largest = largest_contractum(heat);
    assert!(largest <= 128, "a contractum of {largest} nodes: the balloon is back");
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
