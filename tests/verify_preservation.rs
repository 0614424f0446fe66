//! Property: the optimizer pipeline preserves well-formedness and
//! type, as judged by `aql-verify`.
//!
//! For randomly composed well-typed terms (the array-pipeline fragment
//! also used by `tests/properties.rs`, plus comprehension shapes — the
//! generators of `tests/common`, shared with `tests/opt_engine.rs`), the
//! full §5 optimizer must produce a term on which the verifier reports
//! zero diagnostics and whose checker-derived type is compatible with
//! the input's. This is the static half of the semantics-preservation
//! property — it holds for *every* rewrite sequence the phases chose,
//! not just the sampled evaluations.

use proptest::prelude::*;

use aql::core::check::typecheck_closed;
use aql::core::expr::Expr;
use aql::opt::optimize;
use aql::verify::{type_compatible, verify_closed};

mod common;
use common::{arb_set_query, arb_step, build_pipeline};

/// Assert the verifier finds nothing and the type survived.
fn assert_preserved(e: &Expr) {
    let t0 = typecheck_closed(e)
        .unwrap_or_else(|err| panic!("input does not typecheck: {err}\n{e}"));
    let d0 = verify_closed(e);
    assert!(d0.is_empty(), "verifier flags the INPUT {e}: {d0:?}");
    let opt = optimize(e);
    let d1 = verify_closed(&opt);
    assert!(
        d1.iter().all(|d| !d.is_error()),
        "optimizer produced a term the verifier rejects\ninput {e}\noutput {opt}\ndiags {d1:?}"
    );
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
