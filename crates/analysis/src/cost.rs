//! The static cost model: [`estimate`] predicts a statement's result
//! cardinality, evaluation steps and **bytes moved** through the chunk
//! store from one analysis run over the term.
//!
//! Steps and cells come from inferred loop extents and shapes, not a
//! fixed fan-out guess: where the analyzer bounded an iteration count
//! (a literal tabulation bound, a `gen`, a comprehension over a
//! known-cardinality source) the bound is used; only genuinely unknown
//! loops fall back to [`DEFAULT_CARDINALITY`]. Bytes intersect the
//! [`AccessRegion`]s the analysis collected with each source's
//! [`ChunkLayout`]. The estimate reports how much work the optimizer
//! removed (the §5 normalization rules are unconditionally beneficial
//! and need no costing to guide them); the REPL's `\explain` and
//! `\analyze` surface it.

use std::collections::BTreeMap;

use aql_core::expr::{Expr, Name};
use aql_store::layout::ChunkLayout;

use crate::absval::AbsVal;
use crate::analyze::{AccessRegion, Analysis};

/// Assumed iteration count for loops the analysis could not bound.
pub const DEFAULT_CARDINALITY: u64 = 16;

/// Physical description of one named source array, for the bytes-moved
/// half of [`estimate`]: logical extents, chunk-grid extents, and the
/// on-disk element width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceLayout {
    /// Logical array extents.
    pub dims: Vec<u64>,
    /// Nominal chunk extents (same rank as `dims`).
    pub chunk_dims: Vec<u64>,
    /// Bytes per element as stored.
    pub elem_bytes: u64,
}

/// Analysis-backed cost estimate for one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostEstimate {
    /// Predicted result cardinality (cells for arrays, elements for
    /// collections, 1 for scalars).
    pub cardinality: u64,
    /// Predicted abstract evaluation steps, with loops charged their
    /// inferred iteration-count intervals.
    pub steps: u64,
    /// Predicted bytes read from chunked sources: for every subscript
    /// access region the analysis recorded, the total size of the
    /// chunks its bounding box overlaps.
    pub bytes_moved: u64,
}

/// Estimate `e`'s cost from `a`, the analysis of this same tree (run
/// it with the session bindings as globals: their extents make loop
/// counts concrete). `layouts` describes the chunked sources reachable
/// from the term; sources without a layout contribute no bytes (they
/// are memory-resident).
pub fn estimate(e: &Expr, a: &Analysis, layouts: &BTreeMap<Name, SourceLayout>) -> CostEstimate {
    let mut bytes = 0u64;
    for r in &a.regions {
        if let Some(l) = layouts.get(&r.source) {
            bytes = bytes.saturating_add(region_bytes(r, l));
        }
    }
    CostEstimate { cardinality: cardinality(&a.result), steps: steps(e, a), bytes_moved: bytes }
}

/// Bytes the chunk store must serve for one access region: the size of
/// every chunk whose tile overlaps the region's per-axis bounding box.
/// Falls back to the whole array when the region's rank does not match
/// or an axis is unbounded above.
fn region_bytes(r: &AccessRegion, l: &SourceLayout) -> u64 {
    let whole = l
        .dims
        .iter()
        .fold(1u64, |a, &d| a.saturating_mul(d))
        .saturating_mul(l.elem_bytes);
    if r.axes.len() != l.dims.len() {
        return whole;
    }
    let Ok(layout) = ChunkLayout::new(l.dims.clone(), l.chunk_dims.clone()) else {
        return whole;
    };
    let mut chunks = 1u64;
    for (j, iv) in r.axes.iter().enumerate() {
        let d = layout.dims()[j];
        if d == 0 || iv.lo >= d {
            // Every access on this axis is out of bounds (⊥): nothing
            // is fetched.
            return 0;
        }
        let hi = iv.hi.map_or(d - 1, |h| h.min(d - 1));
        let c = layout.chunk_dims()[j];
        chunks = chunks.saturating_mul(hi / c - iv.lo / c + 1);
    }
    let chunk_elems = layout
        .chunk_dims()
        .iter()
        .fold(1u64, |a, &c| a.saturating_mul(c));
    chunks
        .saturating_mul(chunk_elems)
        .saturating_mul(l.elem_bytes)
        .min(whole)
}

/// The iteration count to charge for a loop node, preferring the
/// analyzer's bound.
fn extent(e: &Expr, a: &Analysis) -> u64 {
    a.loop_count(e)
        .and_then(|iv| iv.hi)
        .unwrap_or(DEFAULT_CARDINALITY)
}

/// Estimated evaluation steps for `e`, using the loop bounds recorded
/// in `a` (which must come from analyzing this same tree). Saturating
/// throughout: a plan that would overflow is simply "very expensive".
pub(crate) fn steps(e: &Expr, a: &Analysis) -> u64 {
    let children_sum = |es: &mut dyn Iterator<Item = &Expr>| -> u64 {
        es.fold(0u64, |acc, c| acc.saturating_add(steps(c, a)))
    };
    match e {
        Expr::Var(_)
        | Expr::Global(_)
        | Expr::Ext(_)
        | Expr::Empty
        | Expr::BagEmpty
        | Expr::Bool(_)
        | Expr::Nat(_)
        | Expr::Real(_)
        | Expr::Str(_)
        | Expr::Bottom => 1,
        Expr::Lam(_, b)
        | Expr::Proj(_, _, b)
        | Expr::Single(b)
        | Expr::BagSingle(b)
        | Expr::Gen(b)
        | Expr::Dim(_, b)
        | Expr::Index(_, b)
        | Expr::Get(b) => 1u64.saturating_add(steps(b, a)),
        Expr::App(x, y)
        | Expr::Let(_, x, y)
        | Expr::Union(x, y)
        | Expr::BagUnion(x, y)
        | Expr::Cmp(_, x, y)
        | Expr::Arith(_, x, y) => {
            1u64.saturating_add(steps(x, a)).saturating_add(steps(y, a))
        }
        Expr::If(c, t, f) => 1u64
            .saturating_add(steps(c, a))
            // Either branch may run; charge the worst case.
            .saturating_add(steps(t, a).max(steps(f, a))),
        Expr::Tuple(items) | Expr::Prim(_, items) => {
            1u64.saturating_add(children_sum(&mut items.iter()))
        }
        Expr::BigUnion { head, src, .. }
        | Expr::BigUnionRank { head, src, .. }
        | Expr::BigBagUnion { head, src, .. }
        | Expr::BigBagUnionRank { head, src, .. }
        | Expr::Sum { head, src, .. } => 1u64
            .saturating_add(steps(src, a))
            .saturating_add(extent(e, a).saturating_mul(steps(head, a))),
        Expr::Tab { head, idx } => 1u64
            .saturating_add(children_sum(&mut idx.iter().map(|(_, b)| b)))
            .saturating_add(extent(e, a).saturating_mul(steps(head, a))),
        Expr::Sub(arr, idx) => 1u64
            .saturating_add(steps(arr, a))
            .saturating_add(children_sum(&mut idx.iter())),
        Expr::ArrayLit { dims, items } => 1u64
            .saturating_add(children_sum(&mut dims.iter()))
            .saturating_add(children_sum(&mut items.iter())),
    }
}

/// Estimated number of scalar cells in a result with abstraction `av`
/// (1 for scalars; bounded products for arrays; cardinality bounds for
/// sets and bags; [`DEFAULT_CARDINALITY`] where unknown).
pub(crate) fn cardinality(av: &AbsVal) -> u64 {
    match av {
        AbsVal::Bot
        | AbsVal::Top
        | AbsVal::Bool
        | AbsVal::Str
        | AbsVal::Real
        | AbsVal::Fun
        | AbsVal::Nat(_) => 1,
        AbsVal::Arr { exts, elem } => {
            let cells = exts.iter().fold(1u64, |acc, x| {
                acc.saturating_mul(x.as_const().unwrap_or(DEFAULT_CARDINALITY))
            });
            cells.saturating_mul(cardinality(elem))
        }
        AbsVal::Tup(items) => items.iter().map(cardinality).fold(0, u64::saturating_add),
        AbsVal::Set { elem, card } | AbsVal::Bag { elem, card } => card
            .hi
            .unwrap_or(DEFAULT_CARDINALITY)
            .saturating_mul(cardinality(elem)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::absval::NatAbs;
    use crate::sym::SymExt;
    use aql_core::expr::builder::*;
    use aql_core::expr::name;

    fn run(e: &Expr) -> Analysis {
        analyze(e, &BTreeMap::new())
    }

    #[test]
    fn known_bounds_beat_the_default_guess() {
        // A 1000-iteration loop with a literal bound must cost about
        // 1000 head evaluations, not DEFAULT_CARDINALITY.
        let e = tab1("i", nat(1000), add(var("i"), nat(1)));
        let a = run(&e);
        let s = steps(&e, &a);
        assert!(s >= 3000, "got {s}");
        // An unknown bound falls back to the default.
        let e = tab1("i", var("n"), add(var("i"), nat(1)));
        let a = run(&e);
        assert!(steps(&e, &a) < 100);
    }

    #[test]
    fn gen_cardinality_flows_into_comprehension_cost() {
        let e = sum("x", gen(nat(200)), var("x"));
        let a = run(&e);
        assert!(steps(&e, &a) >= 200);
    }

    #[test]
    fn result_cardinality_uses_constant_extents() {
        let e = tab(vec![("i", nat(30)), ("j", nat(4))], var("i"));
        let a = run(&e);
        assert_eq!(cardinality(&a.result), 120);
        let e = nat(7);
        let a = run(&e);
        assert_eq!(cardinality(&a.result), 1);
    }

    /// An 8760×5×5 f64 source chunked 100×5×5 — the synthetic NetCDF
    /// shape used across the benches.
    fn climate() -> (BTreeMap<Name, AbsVal>, BTreeMap<Name, SourceLayout>) {
        let exts = vec![SymExt::Const(8760), SymExt::Const(5), SymExt::Const(5)];
        let mut globals = BTreeMap::new();
        globals.insert(
            name("T"),
            AbsVal::Arr { exts, elem: std::rc::Rc::new(AbsVal::Nat(NatAbs::top())) },
        );
        let mut layouts = BTreeMap::new();
        layouts.insert(
            name("T"),
            SourceLayout {
                dims: vec![8760, 5, 5],
                chunk_dims: vec![100, 5, 5],
                elem_bytes: 8,
            },
        );
        (globals, layouts)
    }

    fn estimate_in(
        e: &Expr,
        globals: &BTreeMap<Name, AbsVal>,
        layouts: &BTreeMap<Name, SourceLayout>,
    ) -> CostEstimate {
        estimate(e, &analyze(e, globals), layouts)
    }

    #[test]
    fn point_probe_touches_one_chunk() {
        let (globals, layouts) = climate();
        let e = sub(global("T"), vec![nat(5000), nat(2), nat(2)]);
        let est = estimate_in(&e, &globals, &layouts);
        assert_eq!(est.cardinality, 1);
        // One 100×5×5 chunk of f64.
        assert_eq!(est.bytes_moved, 100 * 5 * 5 * 8);
    }

    #[test]
    fn subslab_scan_touches_only_overlapping_chunks() {
        let (globals, layouts) = climate();
        // [[ T[4000 + t, i, j] | t < 200, i < 5, j < 5 ]] — rows
        // 4000..4199 span exactly chunks 40 and 41.
        let e = tab(
            vec![("t", nat(200)), ("i", nat(5)), ("j", nat(5))],
            sub(
                global("T"),
                vec![add(nat(4000), var("t")), var("i"), var("j")],
            ),
        );
        let est = estimate_in(&e, &globals, &layouts);
        assert_eq!(est.cardinality, 200 * 5 * 5);
        assert_eq!(est.bytes_moved, 2 * 100 * 5 * 5 * 8);
        // Steps are charged at the real 5000 iterations.
        assert!(est.steps >= 5000);
    }

    #[test]
    fn unknown_regions_charge_the_whole_source() {
        let (globals, layouts) = climate();
        // Index is nat-valued but unbounded above (a sum over a set of
        // unknown cardinality): the region covers the whole axis.
        let idx = sum("x", global("S"), nat(1));
        let e = sub(global("T"), vec![idx, nat(0), nat(0)]);
        let est = estimate_in(&e, &globals, &layouts);
        assert_eq!(est.bytes_moved, 8760 * 5 * 5 * 8);
        // And a source with no layout moves nothing.
        let est = estimate_in(&e, &globals, &BTreeMap::new());
        assert_eq!(est.bytes_moved, 0);
    }

    #[test]
    fn estimate_tracks_loop_bounds() {
        // Two scans of identical shape: `estimate` separates them by
        // their loop bound.
        let small = tab1("i", nat(10), sub(global("T"), vec![var("i"), nat(0), nat(0)]));
        let large = tab1("i", nat(8000), sub(global("T"), vec![var("i"), nat(0), nat(0)]));
        let (globals, _) = climate();
        let s = estimate_in(&small, &globals, &BTreeMap::new());
        let l = estimate_in(&large, &globals, &BTreeMap::new());
        assert!(l.steps > 100 * s.steps, "{} vs {}", l.steps, s.steps);
        assert_eq!(s.cardinality, 10);
        assert_eq!(l.cardinality, 8000);
    }
}
