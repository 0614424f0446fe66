//! Bounds-check elision: the analyzer's in-bounds verdicts, handed to
//! the evaluator as compile-time marks — each with the index intervals
//! it was proved from, which is what lets the evaluator run a fully
//! marked loop nest as a bulk kernel over operand windows.
//!
//! `aql-core` cannot call the analyzer (this crate depends on it), so
//! the two meet here: every statement-path caller — the session, the
//! counted paper claims, the differential tests — evaluates through
//! [`eval_elided`].

use aql_core::error::EvalError;
use aql_core::eval::bounds::{self, Iv};
use aql_core::eval::{eval, eval_marked, EvalCtx};
use aql_core::expr::Expr;
use aql_core::value::Value;

use crate::absval::globals_mentioned;
use crate::analyze::{analyze, AxisFact, SubVerdict};

/// Evaluate `e` with the bounds check elided at every subscript site
/// the analyzer proves [`SubVerdict::InBounds`] against the context's
/// `val` bindings, and loop nests whose sites are all proven run as
/// bulk kernels. With [`bounds::set_enabled`]`(false)` — or no
/// subscript in `e` to mark — no analysis runs and this is [`eval`]:
/// the interpreter alone, every check in place.
///
/// The evaluator keeps a `debug_assert!` on the marked path, so every
/// debug-build evaluation through here re-checks the analyzer's
/// verdicts at the exact site they were used.
pub fn eval_elided(e: &Expr, ctx: &EvalCtx) -> Result<Value, EvalError> {
    let mut sites = false;
    e.walk(&mut |node| sites |= matches!(node, Expr::Sub(..)));
    if !bounds::enabled() || !sites {
        return eval(e, ctx);
    }
    let analysis = analyze(e, &globals_mentioned(e, ctx.globals));
    eval_marked(e, ctx, &|site| {
        (analysis.verdict_of(site) == Some(SubVerdict::InBounds)).then(|| {
            // An axis proved symbolically has no interval on record.
            let axis = |a: &AxisFact| a.map_or(Iv::TOP, |(iv, _)| iv);
            analysis.sub_axes(site).iter().map(axis).collect()
        })
    })
}
