//! Property: the optimizer pipeline preserves well-formedness and
//! type, as judged by the typechecker (`aql_core::check`, Fig. 1).
//!
//! For randomly composed well-typed terms (the array-pipeline fragment
//! also used by `tests/properties.rs`, plus comprehension shapes — the
//! generators of `tests/common`, shared with `tests/opt_engine.rs`), the
//! full §5 optimizer must produce a term that still typechecks and
//! whose type is compatible with the input's (the whole-term half of
//! the gate; the per-fire half runs over the same generators in
//! `tests/opt_engine.rs`). This is the static half of the
//! semantics-preservation property — it holds for *every* rewrite
//! sequence the phases chose, not just the sampled evaluations.

use proptest::prelude::*;

use aql::core::check::{type_compatible, typecheck_closed};
use aql::core::expr::Expr;
use aql::opt::optimize;

mod common;
use common::{arb_set_query, arb_step, build_pipeline};

/// Assert the term still typechecks and the type survived.
fn assert_preserved(e: &Expr) {
    let t0 = typecheck_closed(e)
        .unwrap_or_else(|err| panic!("input does not typecheck: {err}\n{e}"));
    let opt = optimize(e);
    let t1 = typecheck_closed(&opt).unwrap_or_else(|err| {
        panic!("optimized term no longer typechecks: {err}\ninput {e}\noutput {opt}")
    });
    assert!(
        type_compatible(&t0, &t1),
        "optimizer changed the query type {t0} ~> {t1}\ninput {e}\noutput {opt}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimizer_preserves_types_on_array_pipelines(
        base in prop::collection::vec(0u64..100, 0..10),
        steps in prop::collection::vec(arb_step(), 1..5),
    ) {
        assert_preserved(&build_pipeline(base, &steps));
    }

    #[test]
    fn optimizer_preserves_types_on_set_queries(q in arb_set_query()) {
        assert_preserved(&q);
    }
}
