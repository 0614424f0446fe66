//! Soundness and differential tests for the one bounds analysis.
//!
//! Every evaluation here goes through [`eval_elided`], so the
//! analyzer's in-bounds verdicts are the evaluator's elision marks and
//! — this being a debug build — the evaluator's `debug_assert!`
//! tripwire re-checks each of them at the site it was used: an unsound
//! verdict anywhere in these pipelines aborts the test. On top of
//! that the tests assert, on randomly composed array pipelines:
//!
//! * containment — every runtime-observed shape, value, cardinality and
//!   materialization event lies in the analysis prediction;
//! * differential — the value with marks (and therefore with bulk
//!   kernels: a fully marked loop nest runs as one) equals the value
//!   with elision switched off, which is the plain interpreter; so do
//!   the step, subscript and materialization counts; a stage whose
//!   sites are all proven in-bounds never yields `⊥` from a non-`⊥`
//!   input;
//! * the plan — a kernel is entered (`kernel_nests + kernel_escapes`
//!   moves) only where `\analyze`'s listing ([`nests`]) names one, on
//!   every term evaluated here; on a pipeline whose value is not `⊥`
//!   (so every stage ran) the listing names one exactly when one is
//!   entered;
//! * the `⊥` escape — guarded tabulations, sums and maxima of scalars
//!   and tuples (what β^p leaves behind), over eager operands and lazy
//!   ones behind a one-chunk cache, whose `⊥` branch fires at a random
//!   cell or never: a kernel that meets it hands the nest back, and the
//!   outcome and the counts are the interpreter's either way;
//! * columns — a tabulation of pairs or triples of each kind writes one
//!   typed column per component, not a boxed tuple per cell, and its
//!   value and counts are still the interpreter's;
//! * α-invariance — renaming binders (with deliberate shadowing)
//!   changes neither the verdict tally nor the marked evaluation;
//! * the expectations of the compiled-form interval pass this analysis
//!   replaced, frozen as the per-site floor it must keep meeting.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Mutex;

use proptest::prelude::*;

use aql_analysis::report::nests;
use aql_analysis::{analyze, eval_elided, globals_mentioned, AbsVal, Analysis, SubVerdict, SymExt};
use aql_core::error::EvalError;
use aql_core::eval::{bounds, EvalCtx, EvalStats, KernelStats, Limits};
use aql_core::expr::builder::*;
use aql_core::expr::free::{alpha_eq, free_vars};
use aql_core::expr::{name, Expr, Name};
use aql_core::prim::Extensions;
use aql_core::value::array::ArrayData;
use aql_core::value::{ArrayVal, Value};
use aql_store::{ChunkLayout, LazyArray, MemChunkSource, ScalarBuf};

// ---------------------------------------------------------------------
// Pipeline generation: rank-1 nat-array transformations.
// ---------------------------------------------------------------------

/// One transformation stage applied to the previous stage's array.
#[derive(Debug, Clone)]
enum Step {
    /// `[[ X[i] + c | i < dim(X) ]]`
    AddConst(u64),
    /// `[[ X[i] * c | i < dim(X) ]]`
    MulConst(u64),
    /// `[[ X[(i + c) % dim(X)] | i < dim(X) ]]` — rotation, in-bounds.
    ModShift(u64),
    /// `[[ X[i + c] | i < dim(X) ]]` — the last `c` entries are `⊥`.
    Window(u64),
    /// `[[ X[dim(X) ∸ (i + 1)] | i < dim(X) ]]` — reversal.
    Reverse,
    /// `(λq. [[ q[i] | i < dim(q) ]]) X` — a β-redex copy.
    ViaFn,
    /// `let f = λq. [[ q[i] | i < dim(q) ]] in f X` — a copy through an
    /// opaque call: from here on the analyzer knows no shape, so every
    /// later proof is symbolic in a *bound* array.
    Opaque,
    /// `let f = …, o = f X in [[ (let q = f o in q[i]) | i < dim(o) ]]`
    /// — the index is bounded by one array of unknown shape and
    /// subscripts another. `q`'s body never mentions `o`, so a renaming
    /// may call both by one name; the site must stay unproven either
    /// way.
    Rebound,
}

/// How the pipeline ends.
#[derive(Debug, Clone)]
enum Fin {
    /// Leave the array.
    None,
    /// `Σ{ X[x] | x ∈ gen(dim(X)) }`
    Sum,
    /// `⋃{ {X[x]} | x ∈ gen(dim(X)) }`
    SetOf,
    /// `⋃{ {X[r ∸ 1]} | x_r ∈ gen(dim(X)) }` — by rank.
    Ranked,
}

/// Bind the previous stage once and build on it, so pipelines stay
/// linear in size.
fn stage(x: Expr, build: impl FnOnce(Expr) -> Expr) -> Expr {
    Expr::Let(name("p"), x.boxed(), build(var("p")).boxed())
}

fn copy_fn() -> Expr {
    lam("q", tab1("i", dim(1, var("q")), sub(var("q"), vec![var("i")])))
}

fn apply(x: Expr, s: &Step) -> Expr {
    match s {
        Step::AddConst(c) => {
            let c = *c;
            stage(x, |p| {
                tab1("i", dim(1, p.clone()), add(sub(p, vec![var("i")]), nat(c)))
            })
        }
        Step::MulConst(c) => {
            let c = *c;
            stage(x, |p| {
                tab1("i", dim(1, p.clone()), mul(sub(p, vec![var("i")]), nat(c)))
            })
        }
        Step::ModShift(c) => {
            let c = *c;
            stage(x, |p| {
                tab1(
                    "i",
                    dim(1, p.clone()),
                    sub(p.clone(), vec![modulo(add(var("i"), nat(c)), dim(1, p))]),
                )
            })
        }
        Step::Window(c) => {
            let c = *c;
            stage(x, |p| {
                tab1("i", dim(1, p.clone()), sub(p, vec![add(var("i"), nat(c))]))
            })
        }
        Step::Reverse => stage(x, |p| {
            tab1(
                "i",
                dim(1, p.clone()),
                sub(p.clone(), vec![monus(dim(1, p), add(var("i"), nat(1)))]),
            )
        }),
        Step::ViaFn => app(copy_fn(), x),
        Step::Opaque => let_("f", copy_fn(), app(var("f"), x)),
        Step::Rebound => {
            let inner = let_("q", app(var("f"), var("o")), sub(var("q"), vec![var("i")]));
            let scan = tab1("i", dim(1, var("o")), inner);
            let_("f", copy_fn(), let_("o", app(var("f"), x), scan))
        }
    }
}

fn finish(x: Expr, f: &Fin) -> Expr {
    match f {
        Fin::None => x,
        Fin::Sum => stage(x, |p| {
            sum("x", gen(dim(1, p.clone())), sub(p, vec![var("x")]))
        }),
        Fin::SetOf => stage(x, |p| {
            big_union("x", gen(dim(1, p.clone())), single(sub(p, vec![var("x")])))
        }),
        Fin::Ranked => stage(x, |p| {
            big_union_rank(
                "x",
                "r",
                gen(dim(1, p.clone())),
                single(sub(p, vec![monus(var("r"), nat(1))])),
            )
        }),
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..5).prop_map(Step::AddConst),
        (0u64..4).prop_map(Step::MulConst),
        (0u64..7).prop_map(Step::ModShift),
        (1u64..4).prop_map(Step::Window),
        Just(Step::Reverse),
        Just(Step::ViaFn),
        Just(Step::Opaque),
        Just(Step::Rebound),
    ]
}

fn arb_fin() -> impl Strategy<Value = Fin> {
    prop_oneof![Just(Fin::None), Just(Fin::Sum), Just(Fin::SetOf), Just(Fin::Ranked)]
}

fn arb_source() -> impl Strategy<Value = (u64, Vec<u64>)> {
    (0u64..7).prop_flat_map(|l| (Just(l), prop::collection::vec(0u64..50, l as usize)))
}

/// The pipeline over global `A` after each stage: `steps.len() + 2`
/// terms, the source first and the finished pipeline last.
fn prefixes(steps: &[Step], fin: &Fin) -> Vec<Expr> {
    let mut out = vec![global("A")];
    for s in steps {
        out.push(apply(out[out.len() - 1].clone(), s));
    }
    out.push(finish(out[out.len() - 1].clone(), fin));
    out
}

// ---------------------------------------------------------------------
// α-renaming with deliberate shadowing.
// ---------------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }
}

/// Names binders are redrawn from: few enough that they collide with
/// each other, with the original names, and with the global `A`.
const POOL: [&str; 8] = ["A", "p", "i", "x", "q", "r", "f", "o"];

/// α-rename every binder of a pipeline term. Each scope draws its new
/// names from [`POOL`], avoiding only what the scope's body still needs
/// from outside — so an inner binder freely shadows an outer one the
/// body does not mention.
fn rename(e: &Expr, env: &mut Vec<(Name, Name)>, rng: &mut Lcg) -> Expr {
    let go = |e: &Expr, env: &mut Vec<(Name, Name)>, rng: &mut Lcg| rename(e, env, rng).boxed();
    // Rename `body` under fresh names for `binders`.
    let scope = |binders: &[&Name], body: &Expr, env: &mut Vec<(Name, Name)>, rng: &mut Lcg| {
        let mut taken: HashSet<Name> = free_vars(body)
            .iter()
            .filter(|v| !binders.contains(v))
            .map(|v| env.iter().rev().find(|(o, _)| o == v).map_or(v.clone(), |(_, n)| n.clone()))
            .collect();
        let depth = env.len();
        let mut fresh = Vec::new();
        for b in binders {
            // Half the time, shadow an outer binder that is free to be
            // shadowed; otherwise any free pool name.
            let mut outer: Vec<Name> = match rng.below(2) {
                0 => env.iter().map(|(_, n)| n.clone()).collect(),
                _ => Vec::new(),
            };
            let turn = rng.below(outer.len().max(1));
            outer.rotate_left(turn);
            let start = rng.below(POOL.len());
            let pool = (0..POOL.len()).map(|k| name(POOL[(start + k) % POOL.len()]));
            let pick = outer
                .into_iter()
                .chain(pool)
                .find(|c| !taken.contains(c))
                .expect("the pool outnumbers any scope's needs"); // lint-wall: allow (test)
            taken.insert(pick.clone());
            fresh.push(pick.clone());
            env.push(((*b).clone(), pick));
        }
        let out = rename(body, env, rng).boxed();
        env.truncate(depth);
        (fresh, out)
    };
    match e {
        Expr::Global(_) | Expr::Nat(_) => e.clone(),
        Expr::Var(x) => {
            Expr::Var(env.iter().rev().find(|(o, _)| o == x).map_or(x.clone(), |(_, n)| n.clone()))
        }
        Expr::Lam(x, body) => {
            let (n, b) = scope(&[x], body, env, rng);
            Expr::Lam(n[0].clone(), b)
        }
        Expr::Let(x, bound, body) => {
            let bound = go(bound, env, rng);
            let (n, b) = scope(&[x], body, env, rng);
            Expr::Let(n[0].clone(), bound, b)
        }
        Expr::App(f, a) => Expr::App(go(f, env, rng), go(a, env, rng)),
        Expr::Tab { head, idx } => {
            // Bounds sit outside the index binders.
            let bounds: Vec<Expr> = idx.iter().map(|(_, b)| rename(b, env, rng)).collect();
            let binders: Vec<&Name> = idx.iter().map(|(n, _)| n).collect();
            let (n, h) = scope(&binders, head, env, rng);
            Expr::Tab { head: h, idx: n.into_iter().zip(bounds).collect() }
        }
        Expr::Sum { head, var, src } => {
            let src = go(src, env, rng);
            let (n, h) = scope(&[var], head, env, rng);
            Expr::Sum { head: h, var: n[0].clone(), src }
        }
        Expr::BigUnion { head, var, src } => {
            let src = go(src, env, rng);
            let (n, h) = scope(&[var], head, env, rng);
            Expr::BigUnion { head: h, var: n[0].clone(), src }
        }
        Expr::BigUnionRank { head, var, rank, src } => {
            let src = go(src, env, rng);
            let (n, h) = scope(&[var, rank], head, env, rng);
            Expr::BigUnionRank { head: h, var: n[0].clone(), rank: n[1].clone(), src }
        }
        Expr::Sub(arr, idx) => {
            Expr::Sub(go(arr, env, rng), idx.iter().map(|i| rename(i, env, rng)).collect())
        }
        Expr::Dim(k, inner) => Expr::Dim(*k, go(inner, env, rng)),
        Expr::Gen(inner) => Expr::Gen(go(inner, env, rng)),
        Expr::Single(inner) => Expr::Single(go(inner, env, rng)),
        Expr::Arith(op, a, b) => Expr::Arith(*op, go(a, env, rng), go(b, env, rng)),
        other => panic!("pipelines do not build {other}"),
    }
}

// ---------------------------------------------------------------------
// Containment checking.
// ---------------------------------------------------------------------

/// Evaluate a symbolic extent against the known source dimensions;
/// `None` when it mentions an unknown symbol (then nothing is claimed).
fn eval_sym(s: &SymExt, dims: &HashMap<Name, Vec<u64>>) -> Option<u64> {
    match s {
        SymExt::Const(c) => Some(*c),
        // `dims` describes the globals; a bound array is not one.
        SymExt::Dim { source, binder: 0, axis } => {
            dims.get(source).and_then(|d| d.get(*axis)).copied()
        }
        SymExt::Dim { .. } | SymExt::Top => None,
        SymExt::Add(a, b) => eval_sym(a, dims)?.checked_add(eval_sym(b, dims)?),
        SymExt::Monus(a, b) => Some(eval_sym(a, dims)?.saturating_sub(eval_sym(b, dims)?)),
        SymExt::Mul(a, b) => eval_sym(a, dims)?.checked_mul(eval_sym(b, dims)?),
    }
}

/// Panic unless the runtime value `v` is contained in the abstraction
/// `av`. `⊥` is contained in everything (abstractions describe the
/// non-`⊥` outcomes).
fn check_contains(av: &AbsVal, v: &Value, dims: &HashMap<Name, Vec<u64>>) {
    match (av, v) {
        (AbsVal::Top, _) | (_, Value::Bottom) => {}
        (AbsVal::Bool, Value::Bool(_)) => {}
        (AbsVal::Real, Value::Real(_)) => {}
        (AbsVal::Str, Value::Str(_)) => {}
        (AbsVal::Nat(nb), Value::Nat(n)) => {
            assert!(nb.iv.contains(*n), "{n} outside predicted interval {:?}", nb.iv);
            if let Some(x) = nb.sym.as_ref().and_then(|s| eval_sym(s, dims)) {
                assert_eq!(x, *n, "exact symbolic prediction wrong");
            }
            if let Some(x) = nb.lt.as_ref().and_then(|s| eval_sym(s, dims)) {
                assert!(*n < x, "{n} violates strict upper bound {x}");
            }
            if let Some(x) = nb.ge.as_ref().and_then(|s| eval_sym(s, dims)) {
                assert!(*n >= x, "{n} violates lower bound {x}");
            }
        }
        (AbsVal::Arr { exts, elem }, Value::Array(arr)) => {
            assert_eq!(exts.len(), arr.dims().len(), "predicted rank wrong");
            for (x, d) in exts.iter().zip(arr.dims()) {
                if let Some(c) = eval_sym(x, dims) {
                    assert_eq!(c, *d, "predicted extent {x} = {c}, runtime {d}");
                }
            }
            for off in 0..arr.len() {
                let cell = arr
                    .try_value_at(off)
                    .expect("materialized array read cannot fail"); // lint-wall: allow (test)
                if let Some(val) = cell {
                    check_contains(elem, &val, dims);
                }
            }
        }
        (AbsVal::Set { elem, card }, Value::Set(s)) => {
            assert!(
                card.contains(s.len() as u64),
                "set cardinality {} outside predicted {card:?}",
                s.len()
            );
            for it in s.iter() {
                check_contains(elem, it, dims);
            }
        }
        (AbsVal::Bag { card, .. }, Value::Bag(_)) => {
            // Bags only arise with unknown element abstractions here.
            let _ = card;
        }
        (AbsVal::Tup(items), Value::Tuple(vs)) => {
            assert_eq!(items.len(), vs.len(), "predicted tuple arity wrong");
            for (a, b) in items.iter().zip(vs.iter()) {
                check_contains(a, b, dims);
            }
        }
        (other_av, other_v) => {
            panic!("abstraction {other_av} does not cover runtime value {other_v}")
        }
    }
}

// ---------------------------------------------------------------------
// Marked evaluation, differentially.
// ---------------------------------------------------------------------

/// The elision toggle is process-wide and the harness runs tests on
/// parallel threads: every evaluation in this file happens under this
/// lock, so no test sees another's `set_enabled(false)`.
static TOGGLE: Mutex<()> = Mutex::new(());

/// One differential run of `e`.
struct Run {
    /// The analysis of `e` against `globals` — what made the marks.
    analysis: Analysis,
    /// The outcome with elision on (and, asserted, with it off).
    outcome: Result<Value, EvalError>,
    /// Subscripts that took the marked fast path.
    elided: u64,
    /// Subscripts evaluated (the same with marks off, asserted).
    subscripts: u64,
    /// Loop nests the marked evaluation ran as bulk kernels.
    kernel_nests: u64,
    /// Kernel entries that handed their nest back to the interpreter.
    escapes: u64,
    /// Kernels `\analyze` lists for `e`.
    listed: usize,
}

impl Run {
    fn value(&self) -> &Value {
        self.outcome.as_ref().expect("pipelines are well-typed") // lint-wall: allow (test)
    }
}

/// Evaluate `e` through [`eval_elided`] twice — marks (and kernels)
/// on, then `bounds::set_enabled(false)`, the plain interpreter — and
/// require the same outcome at the same cost.
fn run(e: &Expr, globals: &HashMap<Name, Value>) -> Run {
    let analysis = analyze(e, &globals_mentioned(e, globals));
    let ext = Extensions::new();
    let eval = |on: bool| {
        bounds::set_enabled(on);
        let ctx = EvalCtx::new(globals, &ext);
        let out = eval_elided(e, &ctx);
        (out, ctx.stats(), ctx.kernel_stats().nests, ctx.kernel_stats().escapes)
    };
    let guard = TOGGLE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let listed = nests(e, &analysis).iter().filter(|n| n.kernel).count();
    let (outcome, on, kernel_nests, escapes) = eval(true);
    let (unmarked, off, no_kernels, no_escapes) = eval(false);
    bounds::set_enabled(true);
    drop(guard);
    assert_eq!(
        (off.elided, no_kernels, no_escapes),
        (0, 0, 0),
        "elision off must mark nothing, run no kernel"
    );
    // The listing is the planner's verdict under the evaluator's marks:
    // no kernel is entered that it does not name.
    assert!(
        listed > 0 || kernel_nests + escapes == 0,
        "no kernel listed, {kernel_nests} run and {escapes} escaped in {e}"
    );
    assert_eq!(outcome, unmarked, "marks changed the outcome of {e}");
    // A kernel charges what the interpreter would have (`elided` is
    // the one count that differs by construction: off, it is zero).
    assert_eq!(
        (on.steps, on.subscripts, on.materialized),
        (off.steps, off.subscripts, off.materialized),
        "marks changed the cost of {e}"
    );
    assert!(on.elided <= on.subscripts);
    if on.elided > 0 {
        assert!(analysis.sub_counts().in_bounds > 0, "a mark without an InBounds verdict in {e}");
    }
    let (elided, subscripts) = (on.elided, on.subscripts);
    Run { analysis, outcome, elided, subscripts, kernel_nests, escapes, listed }
}

fn nat_array(dims: Vec<u64>, cell: impl Fn(u64) -> u64) -> Value {
    let len: u64 = dims.iter().product();
    let arr = ArrayVal::new(dims, (0..len).map(|k| Value::Nat(cell(k))).collect())
        .expect("consistent shape"); // lint-wall: allow (test)
    Value::Array(Rc::new(arr))
}

fn globals_with(bindings: Vec<(&str, Value)>) -> HashMap<Name, Value> {
    bindings.into_iter().map(|(n, v)| (name(n), v)).collect()
}

fn source_globals(vals: &[u64]) -> HashMap<Name, Value> {
    globals_with(vec![("A", nat_array(vec![vals.len() as u64], |k| vals[k as usize]))])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn analysis_contains_runtime_behavior(
        (len, vals) in arb_source(),
        steps in prop::collection::vec(arb_step(), 0..4),
        fin in arb_fin(),
    ) {
        let globals = source_globals(&vals);
        let mut dims = HashMap::new();
        dims.insert(name("A"), vec![len]);

        // Stage by stage: a stage's input is the previous prefix's
        // value, and the sites it adds are the tally's increase.
        let mut before: Option<Run> = None;
        for e in prefixes(&steps, &fin) {
            let r = run(&e, &globals);
            let v = r.value();
            check_contains(&r.analysis.result, v, &dims);

            // Every subscript site got a verdict.
            let c = r.analysis.sub_counts();
            prop_assert_eq!(c.total, c.in_bounds + c.unknown + c.provably_out);

            // A value that is not `⊥` ran every stage, and so reached
            // every nest: the listing names a kernel exactly when one
            // was entered.
            if !v.is_bottom() {
                let (listed, entered) = (r.listed, r.kernel_nests + r.escapes);
                prop_assert_eq!(
                    listed > 0, entered > 0, "{} listed, {} entered: {}", listed, entered, e
                );
            }

            // A reached in-bounds site yields an element, never `⊥`:
            // a stage whose new sites are all proven cannot turn a
            // non-`⊥` input into `⊥`.
            if let Some(b) = &before {
                let (cb, vb) = (b.analysis.sub_counts(), b.value());
                if !vb.is_bottom() && c.total - cb.total == c.in_bounds - cb.in_bounds {
                    prop_assert!(!v.is_bottom(), "all-InBounds stage produced ⊥: {e}");
                }
            }

            before = Some(r);
        }
    }

    #[test]
    fn subscript_verdicts_are_sound(
        (_len, vals) in (1u64..7).prop_flat_map(|l| {
            (Just(l), prop::collection::vec(0u64..50, l as usize))
        }),
        idx in prop_oneof![
            (0u64..10).prop_map(nat),
            ((0u64..10), (0u64..10)).prop_map(|(a, b)| add(nat(a), nat(b))),
            ((0u64..10), (0u64..10)).prop_map(|(a, b)| monus(nat(a), nat(b))),
            ((0u64..6), (0u64..6)).prop_map(|(a, b)| mul(nat(a), nat(b))),
            ((0u64..20), (1u64..7)).prop_map(|(a, b)| modulo(nat(a), nat(b))),
            ((0u64..20), (1u64..7)).prop_map(|(a, b)| div(nat(a), nat(b))),
        ],
    ) {
        let globals = source_globals(&vals);
        let e = sub(global("A"), vec![idx]);
        let r = run(&e, &globals);
        let v = r.value();
        match r.analysis.verdict_of(&e) {
            Some(SubVerdict::InBounds) => {
                prop_assert!(!v.is_bottom(), "InBounds verdict but runtime ⊥");
                prop_assert_eq!(r.elided, 1, "an InBounds site must take the marked path");
            }
            Some(SubVerdict::ProvablyOut) => {
                prop_assert!(v.is_bottom(), "ProvablyOut verdict but runtime value {v}")
            }
            Some(SubVerdict::Unknown) => {}
            None => prop_assert!(false, "no verdict recorded at the subscript site"),
        }
    }

}

/// `cells` as a rank-1 operand: in memory, or (`chunk > 0`) lazy in
/// chunks of that many cells behind a cache that holds one of them.
fn operand(cells: ScalarBuf, chunk: u64) -> Value {
    let n = cells.len() as u64;
    let arr = match (chunk, cells) {
        (0, ScalarBuf::F64(v)) => ArrayVal::from_f64(vec![n], v),
        (0, ScalarBuf::I64(v)) => ArrayVal::from_nat(vec![n], v.iter().map(|&x| x as u64).collect()),
        (0, ScalarBuf::Bool(v)) => ArrayVal::from_bool(vec![n], v),
        (chunk, cells) => {
            let kind = cells.kind();
            let layout = ChunkLayout::new(vec![n], vec![chunk]).expect("a chunking"); // lint-wall: allow (test)
            let source = MemChunkSource::new(vec![n], cells).expect("a vector"); // lint-wall: allow (test)
            ArrayVal::lazy(LazyArray::new(layout, kind, Box::new(source), chunk * 8))
        }
    };
    Value::Array(Rc::new(arr.expect("consistent shape"))) // lint-wall: allow (test)
}

/// What β^p leaves of a `subseq` of a `zip`, per "day" under a loop the
/// interpreter runs: `⋃ d < days. { let h = d·m in SINK k < m. if h+k <
/// t then HEAD(h+k) else ⊥ }` (`flip`: `if t ≤ h+k then ⊥ else …`).
/// Heads: a scalar, a pair, and the §1 triple whose last component is
/// guarded again around a stride-2 site. Sinks: a tabulation, `Σ`,
/// `max!` (the last two over the scalar head).
fn guarded_days(days: u64, m: u64, t: u64, head: usize, sink: usize, flip: bool) -> Expr {
    let at = add(var("h"), var("k"));
    let cell = |a: &str| sub(global(a), vec![at.clone()]);
    let twice = mul(at.clone(), nat(2));
    let strided = iff(lt(twice.clone(), len(global("W"))), sub(global("W"), vec![twice]), bottom());
    let head = match (sink, head) {
        (0, 1) => tuple(vec![cell("A"), cell("B")]),
        (0, 2) => tuple(vec![cell("A"), cell("B"), strided]),
        _ => cell("A"),
    };
    let guarded = if flip {
        iff(le(nat(t), at.clone()), bottom(), head)
    } else {
        iff(lt(at, nat(t)), head, bottom())
    };
    let nest = match sink {
        0 => tab1("k", nat(m), guarded),
        1 => sum("k", gen(nat(m)), guarded),
        _ => set_max(big_union("k", gen(nat(m)), single(guarded))),
    };
    big_union("d", gen(nat(days)), single(let_("h", mul(var("d"), nat(m)), nest)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_bottom_branch_taken_anywhere_or_never_is_the_interpreters(
        (days, m) in (1u64..4, 1u64..7),
        (head, sink, flip) in (0usize..3, 0usize..3, any::<bool>()),
        // The operands' cells over what the nests span, the threshold
        // below them (half the time not at all), the strided operand's
        // cells short of twice the span.
        (spare, below, wide) in (0u64..3, prop_oneof![Just(0u64), 0u64..20], 0u64..5),
        chunk in 0u64..5,
    ) {
        let n = days * m + spare;
        let t = n.saturating_sub(below);
        let w = (2 * days * m).saturating_sub(wide).max(1);
        let globals = globals_with(vec![
            ("A", operand(ScalarBuf::F64((0..n).map(|i| i as f64 * 0.5 - 3.0).collect()), chunk)),
            ("B", operand(ScalarBuf::I64((0..n as i64).map(|i| i * 7 % 11).collect()), chunk)),
            ("W", operand(ScalarBuf::F64((0..w).map(|i| i as f64).collect()), chunk)),
        ]);
        let e = guarded_days(days, m, t, head, sink, flip);
        // `run` holds marks on to marks off: outcome, steps, subscripts
        // and materialized.
        let r = run(&e, &globals);
        let fires = t < days * m || (sink, head) == (0, 2) && 2 * (days * m - 1) >= w;
        prop_assert_eq!(r.value().is_bottom(), fires, "{}", e);
        if !fires {
            // Every site is guarded into range and proven so; nothing
            // was handed back: a kernel a day.
            prop_assert_eq!(r.kernel_nests, days, "{}", e);
            prop_assert_eq!(r.elided, r.subscripts, "{}", e);
            if sink == 0 && head > 0 {
                // Each day's pairs or triples are columns.
                let days = r.value().as_set().expect("a set of days"); // lint-wall: allow (test)
                prop_assert!(days.iter().all(|d| matches!(d, Value::Array(a)
                    if matches!(a.array_data(), ArrayData::Columns(_)))), "{}", e);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_nest_re_entered_under_an_interpreted_loop_is_the_interpreters(
        (days, m, step) in (0u64..5, 0u64..5, 0u64..4),
        shape in 0usize..4,
        chunk in 0u64..4,
    ) {
        // `⋃ d < days. { let h = d·step in let s = Σ_{x < d} 0.5 in
        // [[ HEAD | k < LEN ]] }`, bound once and re-entered: a capture
        // `h` that moves on every entry; a capture `s` whose kind flips
        // (`0 : nat` on the first day); a trip count that varies, 0
        // included; a guarded pair, `⊥` once `h + k` reaches the end.
        let n = days * step + m + 1;
        let globals = globals_with(vec![
            ("A", operand(ScalarBuf::F64((0..n).map(|i| i as f64 * 0.5 - 1.0).collect()), chunk)),
            ("B", operand(ScalarBuf::I64((0..n as i64).map(|i| i * 5 % 7).collect()), chunk)),
        ]);
        let at = |a: &str| sub(global(a), vec![add(var("h"), var("k"))]);
        let (head, len) = match shape {
            0 => (at("A"), nat(m)),
            1 => (add(at("A"), var("s")), nat(m)),
            2 => (at("A"), mul(modulo(var("d"), nat(2)), nat(m))),
            _ => (iff(lt(add(var("h"), var("k")), nat(n - 1)), tuple(vec![at("A"), at("B")]), bottom()), nat(m)),
        };
        let s = sum("x", gen(var("d")), real(0.5));
        let day = let_("h", mul(var("d"), nat(step)), let_("s", s, tab1("k", len, head)));
        let e = big_union("d", gen(nat(days)), single(day));
        // `run`: the same outcome, steps, subscripts and cells with the
        // kernels as the all-checked interpreter.
        let r = run(&e, &globals);
        if shape == 0 && m > 0 {
            // Every day's nest proven and run as a kernel.
            prop_assert_eq!(r.kernel_nests, days, "{}", e);
        }
    }
}

/// The three kinds an operand of the tuple tabulations holds: `real`,
/// `nat`, `bool`.
const KINDS: [&str; 3] = ["R", "N", "B"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn tuple_heads_write_columns_and_agree_with_the_interpreter(
        m in 1u64..9,
        parts in prop::collection::vec(0usize..3, 2..4),
        cut in 0usize..4,
        chunk in 0u64..4,
    ) {
        // `[[ if k < t then (X₁[k], …) else ⊥ | k < m ]]` with its `⊥`
        // at the first, a middle or the last cell, or at none; each
        // `Xᵢ` of one kind, eager or behind a one-chunk cache.
        let t = [0, m / 2, m - 1, m][cut];
        let n = m + 2;
        let globals = globals_with(vec![
            ("R", operand(ScalarBuf::F64((0..n).map(|i| i as f64 - 2.5).collect()), chunk)),
            ("N", operand(ScalarBuf::I64((0..n as i64).map(|i| i * 3 % 7).collect()), chunk)),
            ("B", operand(ScalarBuf::Bool((0..n).map(|i| i % 3 == 1).collect()), chunk)),
        ]);
        let head = tuple(parts.iter().map(|&p| sub(global(KINDS[p]), vec![var("k")])).collect());
        let e = tab1("k", nat(m), iff(lt(var("k"), nat(t)), head, bottom()));
        // `run`: the same outcome, steps, subscripts and cells with the
        // kernel as the all-checked interpreter; every site elided.
        let r = run(&e, &globals);
        prop_assert_eq!(r.elided, r.subscripts, "{}", e);
        if t < m {
            prop_assert!(r.value().is_bottom(), "{}", e);
            prop_assert_eq!(r.kernel_nests, 0, "{}", e);
        } else {
            prop_assert_eq!(r.kernel_nests, 1, "{}", e);
            let Value::Array(a) = r.value() else { panic!("{e} is a tabulation") };
            let ArrayData::Columns(cols) = a.array_data() else { panic!("{e} was boxed") };
            prop_assert_eq!(cols.len(), parts.len());
        }
    }
}

/// Row lengths on either side of a kernel's cut into rows (4,096).
const ROW_LENGTHS: [u64; 5] = [0, 1, 4095, 4096, 4097];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn column_array_components_agree_with_the_interpreter(
        n in 1u64..9,
        part in 1usize..4,
        sink in 0usize..3,
    ) {
        // `Z[i] = (i/2 - 1, i·3 mod 7, i mod 3 = 1)`: one column of each
        // kind; `πₚ(Z[i])` read as a column under a tabulation, a `Σ`
        // (the `nat` and `real` ones) or `max!`.
        let cell = |i: u64| Value::tuple(vec![
            Value::Real(i as f64 * 0.5 - 1.0),
            Value::Nat(i * 3 % 7),
            Value::Bool(i % 3 == 1),
        ]);
        let z = ArrayVal::new(vec![n], (0..n).map(cell).collect()).expect("a shape"); // lint-wall: allow (test)
        prop_assert!(matches!(z.array_data(), ArrayData::Columns(_)));
        let globals = globals_with(vec![("Z", Value::Array(Rc::new(z)))]);
        let at = proj(part, 3, sub(global("Z"), vec![var("i")]));
        let e = match (sink, part) {
            (0, _) | (1, 3) => tab1("i", nat(n), at),
            (1, _) => sum("i", gen(nat(n)), at),
            _ => set_max(big_union("i", gen(nat(n)), single(at))),
        };
        // `run`: the same outcome, steps, subscripts and cells as the
        // all-checked interpreter.
        let r = run(&e, &globals);
        prop_assert_eq!((r.elided, r.kernel_nests), (r.subscripts, 1), "{}", e);
    }

    #[test]
    fn a_row_ends_or_escapes_as_the_interpreter_would(
        length in 0usize..5,
        spike in 0usize..4,
        kind in 0usize..3,
        lazy in any::<bool>(),
    ) {
        let len = ROW_LENGTHS[length];
        // One cell of a row — the first, a middle one, the last, or none —
        // overflows `N[i] * 2`, divides by zero in `100 / D[i]`, or is a
        // negative stored `L[i]`; under a tabulation and a `Σ`.
        let at = [Some(0), Some(len / 2), len.checked_sub(1), None][spike];
        let cells = |x| (0..len).map(|i| if Some(i) == at { x } else { i as i64 % 7 + 1 }).collect::<Vec<i64>>();
        let (name, x, head): (&str, i64, fn(Expr) -> Expr) = match kind {
            0 => ("N", i64::MAX, |x| mul(x, nat(4))),
            1 => ("D", 0, |x| div(nat(100), x)),
            _ => ("L", -1, |x| x),
        };
        let cells = cells(x);
        let chunk = if lazy || kind == 2 { 1000 } else { 0 };
        let globals = globals_with(vec![(name, operand(ScalarBuf::I64(cells), chunk))]);
        let at_i = || head(sub(global(name), vec![var("i")]));
        for e in [tab1("i", nat(len), at_i()), sum("i", gen(nat(len)), at_i())] {
            // `run`: the same value or error, steps, subscripts and cells.
            let r = run(&e, &globals);
            let clean = at.is_none_or(|at| at >= len);
            prop_assert_eq!(r.kernel_nests, u64::from(clean), "{}", e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn verdicts_and_marked_evaluation_are_alpha_invariant(
        (_len, vals) in arb_source(),
        steps in prop::collection::vec(arb_step(), 0..4),
        fin in arb_fin(),
        seed in 0u64..u64::MAX,
    ) {
        let globals = source_globals(&vals);
        let es = prefixes(&steps, &fin);
        let e = &es[es.len() - 1];
        let renamed = rename(e, &mut Vec::new(), &mut Lcg(seed));
        prop_assert!(alpha_eq(e, &renamed), "renamer broke {e} into {renamed}");
        let (a, b) = (run(e, &globals), run(&renamed, &globals));
        prop_assert_eq!(
            a.analysis.sub_counts(), b.analysis.sub_counts(),
            "verdicts differ between {} and {}", e, renamed
        );
        prop_assert_eq!(a.value(), b.value());
        prop_assert_eq!(a.elided, b.elided);
    }
}

// ---------------------------------------------------------------------
// Folds over boxes: a `Σ`, `min!` or `max!` nest whose levels are `gen`
// loops of known trip counts, with affine `let`s between them, runs as
// one grid of rows.
// ---------------------------------------------------------------------

/// The first axis of a fold's operand starts this far in.
const OFF: u64 = 2;

/// What a fold case plants in its operand, or asks of its limits.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plant {
    Nothing,
    /// A `⊥` head at the first, a middle or the last cell of the box:
    /// `100 / 0` over naturals, an `if` taking its `⊥` branch over reals.
    Bottom(usize),
    /// Three cells of 2⁶³ - 1 (naturals): in one iteration of the
    /// innermost level, or one in each of three.
    Overflow(bool),
    /// Reals: a NaN of each sign and both zeros among the cells (`true`,
    /// under `min!`/`max!`), or both zeros among cells all below them for
    /// `max!` and above them otherwise.
    NanZero(bool),
    /// A step budget half the nest's cost.
    Steps,
    /// An element budget one below the largest level's trip count.
    Elems,
}

/// `SINK t < d₀. [let h0 = …] SINK i < d₁. [let h1 = h0] SINK j < d₂. X[h, i, j]`
/// over an operand of rank `dims.len()`.
#[derive(Debug, Clone)]
struct FoldCase {
    /// `Σ`, `max!`, `min!`.
    sink: usize,
    dims: Vec<u64>,
    /// The axis-0 index: `OFF + t` in the subscript (0); a `let h0` of it
    /// after the first level (1), with an unused affine `let` beside it
    /// (2); a `let h0 = (OFF + t) % extent`, not affine (3).
    lets: usize,
    /// Whether each further level copies `h0` into a `let` of its own.
    copies: bool,
    /// Eager reals, eager naturals, the real or the natural column of a
    /// pair array, lazy reals, lazy integers.
    operand: usize,
    plant: Plant,
}

impl FoldCase {
    fn real(&self) -> bool {
        matches!(self.operand, 0 | 2 | 4)
    }

    /// The operand's extents: room for `OFF + t` on the first axis,
    /// at least one cell on every axis.
    fn extents(&self) -> Vec<u64> {
        let mut ext: Vec<u64> = self.dims.iter().map(|&d| d.max(1)).collect();
        ext[0] = OFF + self.dims[0] + 1;
        ext
    }

    /// The box's cells.
    fn cells(&self) -> u64 {
        self.dims.iter().product()
    }

    /// The operand offset of the box's cell `c`, row-major.
    fn offset(&self, mut c: u64) -> usize {
        let mut at = vec![0; self.dims.len()];
        for k in (0..self.dims.len()).rev() {
            at[k] = c % self.dims[k];
            c /= self.dims[k];
        }
        at[0] += OFF;
        at.iter().zip(self.extents()).fold(0, |o, (&i, e)| o * e + i) as usize
    }

    fn term(&self) -> Expr {
        const VARS: [&str; 3] = ["t", "i", "j"];
        let depth = self.dims.len();
        let axis0 = match (self.lets, self.copies && depth > 1) {
            (0, _) => add(nat(OFF), var("t")),
            (_, true) => var(&format!("h{}", depth - 1)),
            _ => var("h0"),
        };
        let idx = std::iter::once(axis0).chain(VARS[1..depth].iter().map(|v| var(v))).collect();
        let site = sub(global("X"), idx);
        let cell = match self.operand {
            2 => proj(1, 2, site),
            3 => proj(2, 2, site),
            _ => site,
        };
        let head = match (self.plant, self.real()) {
            (Plant::Bottom(_), true) => iff(lt(cell.clone(), real(1e300)), cell, bottom()),
            (Plant::Bottom(_), false) => div(nat(100), cell),
            _ => cell,
        };
        let mut body = if self.sink == 0 { head } else { single(head) };
        for k in (0..depth).rev() {
            let first = add(nat(OFF), var("t"));
            body = match (k, self.lets) {
                (_, 0) => body,
                (0, 1) => let_("h0", first, body),
                (0, 2) => let_("h0", first, let_("u", add(mul(var("t"), nat(3)), nat(1)), body)),
                (0, _) => let_("h0", modulo(first, nat(self.extents()[0])), body),
                _ if self.copies => let_(&format!("h{k}"), var(&format!("h{}", k - 1)), body),
                _ => body,
            };
            let src = gen(nat(self.dims[k]));
            body = if self.sink == 0 { sum(VARS[k], src, body) } else { big_union(VARS[k], src, body) };
        }
        match self.sink {
            0 => body,
            1 => set_max(body),
            _ => set_min(body),
        }
    }

    /// The operand `X`, with the plant in its cells.
    fn globals(&self) -> HashMap<Name, Value> {
        let ext = self.extents();
        let n: u64 = ext.iter().product();
        let mut reals: Vec<f64> = (0..n).map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.25 + i as f64 * 1e-3).collect();
        let mut nats: Vec<u64> = (0..n).map(|i| i * 37 % 101 + 1).collect();
        let (total, inner) = (self.cells(), *self.dims.last().unwrap_or(&1));
        if total > 0 {
            match self.plant {
                Plant::Bottom(at) => {
                    let c = self.offset([0, total / 2, total - 1][at]);
                    (reals[c], nats[c]) = (1e300, 0);
                }
                Plant::Overflow(together) => {
                    let step = if together { 1 } else { inner.max(1) };
                    for c in (0..3).map(|k| k * step).filter(|&c| c < total) {
                        nats[self.offset(c)] = (1 << 63) - 1;
                    }
                }
                Plant::NanZero(nans) => {
                    // (No NaN under `Σ`: which NaN an addition of two
                    // returns is not specified, even within one build.)
                    let nans = nans && self.sink != 0;
                    if !nans {
                        let below = self.sink == 1;
                        reals.iter_mut().for_each(|x| *x = if below { -1.0 - x.abs() } else { 1.0 + x.abs() });
                    }
                    let planted = [0.0, -0.0, f64::NAN, -f64::NAN];
                    for (k, x) in planted.iter().take(if nans { 4 } else { 2 }).enumerate() {
                        reals[self.offset((k as u64 * 7919) % total)] = *x;
                    }
                }
                _ => {}
            }
        }
        let lazy = |cells: ScalarBuf| {
            let mut chunk = ext.clone();
            chunk[0] = 3;
            let layout = ChunkLayout::new(ext.clone(), chunk).expect("a chunking"); // lint-wall: allow (test)
            let kind = cells.kind();
            let source = MemChunkSource::new(ext.clone(), cells).expect("a source"); // lint-wall: allow (test)
            ArrayVal::lazy(LazyArray::new(layout, kind, Box::new(source), 1 << 24))
        };
        let pairs = || reals.iter().zip(&nats).map(|(&r, &m)| Value::tuple(vec![Value::Real(r), Value::Nat(m)])).collect();
        let x = match self.operand {
            0 => ArrayVal::from_f64(ext.clone(), reals.clone()),
            1 => ArrayVal::from_nat(ext.clone(), nats.clone()),
            2 | 3 => ArrayVal::new(ext.clone(), pairs()),
            4 => lazy(ScalarBuf::F64(reals.clone())),
            _ => lazy(ScalarBuf::I64(nats.iter().map(|&m| m as i64).collect())),
        };
        globals_with(vec![("X", Value::Array(Rc::new(x.expect("consistent shape"))))]) // lint-wall: allow (test)
    }
}

/// The same value, reals by their bits.
fn same_bits(a: &Result<Value, EvalError>, b: &Result<Value, EvalError>) -> bool {
    match (a, b) {
        (Ok(Value::Real(x)), Ok(Value::Real(y))) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Evaluate `e` under `limits` with marks (and kernels) on, then as the
/// all-checked interpreter, and require the same value bits, error
/// class and counts (`elided` is zero off, by construction).
fn differential(e: &Expr, globals: &HashMap<Name, Value>, limits: &Limits) -> (Result<Value, EvalError>, EvalStats, KernelStats) {
    let ext = Extensions::new();
    let eval = |on: bool| {
        bounds::set_enabled(on);
        let ctx = EvalCtx::new(globals, &ext).with_limits(limits.clone());
        let out = eval_elided(e, &ctx);
        (out, ctx.stats(), ctx.kernel_stats())
    };
    let guard = TOGGLE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (got, on, kernels) = eval(true);
    let (want, off, _) = eval(false);
    bounds::set_enabled(true);
    drop(guard);
    assert!(same_bits(&got, &want), "marks changed the outcome of {e}: {got:?}, not {want:?}");
    assert_eq!(got.as_ref().err().map(EvalError::class), want.as_ref().err().map(EvalError::class), "{e}");
    assert_eq!(EvalStats { elided: 0, ..on }, off, "marks changed the counts of {e}");
    (got, on, kernels)
}

/// Run a fold case against the interpreter; what its kernels did.
fn fold_case(f: &FoldCase) -> (Result<Value, EvalError>, EvalStats, KernelStats) {
    let (e, globals) = (f.term(), f.globals());
    let limits = match f.plant {
        Plant::Steps => {
            let (_, whole, _) = differential(&e, &globals, &Limits::default());
            Limits { max_steps: whole.steps / 2, ..Limits::default() }
        }
        Plant::Elems => Limits { max_elems: f.dims.iter().max().map_or(0, |d| d.saturating_sub(1)), ..Limits::default() },
        _ => Limits::default(),
    };
    let (out, stats, kernels) = differential(&e, &globals, &limits);
    // A box with nothing planted, whose sum is not a real one over
    // nothing, runs as one kernel with every subscript elided; its rows
    // cover every level when no `let` ends the box.
    let empty_real = f.sink == 0 && f.real() && f.dims.contains(&0);
    if matches!(f.plant, Plant::Nothing | Plant::NanZero(_)) && !empty_real {
        assert_eq!((kernels.nests, kernels.escapes), (1, 0), "{e}");
        assert_eq!(stats.elided, stats.subscripts, "{e}");
        if f.lets != 3 {
            assert_eq!(kernels.rows, f.cells().div_ceil(4096), "{e}");
        }
    }
    (out, stats, kernels)
}

/// Boxes of 4,095, 4,096 and 4,097 cells at each depth: rows cut at the
/// kernel's 4,096.
const CUT_BOXES: [[&[u64]; 3]; 3] = [
    [&[4095], &[4096], &[4097]],
    [&[3, 1365], &[4, 1024], &[17, 241]],
    [&[3, 5, 273], &[4, 4, 256], &[1, 17, 241]],
];

fn arb_plant() -> impl Strategy<Value = Plant> {
    prop_oneof![
        Just(Plant::Nothing),
        (0usize..3).prop_map(Plant::Bottom),
        any::<bool>().prop_map(Plant::Overflow),
        any::<bool>().prop_map(Plant::NanZero),
        Just(Plant::Steps),
        Just(Plant::Elems),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn a_fold_over_a_box_is_the_interpreters(
        (sink, depth) in (0usize..3, 1usize..4),
        dims in prop::collection::vec(0u64..6, 3),
        (lets, copies) in (0usize..4, any::<bool>()),
        operand in 0usize..6,
        plant in arb_plant(),
        cut in prop_oneof![4 => Just(None), 1 => (0usize..3).prop_map(Some)],
    ) {
        let dims = match cut {
            Some(c) => CUT_BOXES[depth - 1][c].to_vec(),
            None => dims[..depth].to_vec(),
        };
        // (`fold_case` holds the value bits, error class and counts to
        // the interpreter's.)
        let _ = fold_case(&FoldCase { sink, dims, lets, copies, operand, plant });
    }
}

#[test]
fn each_edge_of_a_fold_box_is_forced() {
    let case = |sink, dims: &[u64], operand, plant| FoldCase { sink, dims: dims.to_vec(), lets: 1, copies: true, operand, plant };
    for sink in 0..3 {
        for operand in 0..6 {
            let real = case(0, &[1], operand, Plant::Nothing).real();
            // `⊥` at the first, a middle and the last cell.
            for at in 0..3 {
                let (out, ..) = fold_case(&case(sink, &[3, 4, 5], operand, Plant::Bottom(at)));
                assert_eq!(out, Ok(Value::Bottom), "{sink} {operand} {at}");
            }
            // Budgets reached mid-grid.
            let (out, ..) = fold_case(&case(sink, &[3, 4, 5], operand, Plant::Steps));
            assert_eq!(out, Err(EvalError::StepLimit), "{sink} {operand}");
            let (out, ..) = fold_case(&case(sink, &[3, 4, 5], operand, Plant::Elems));
            assert!(matches!(out, Err(EvalError::ResourceLimit { .. })), "{sink} {operand}");
            // Rows cut at 4,095, 4,096 and 4,097 cells.
            for boxes in CUT_BOXES {
                for dims in boxes {
                    let (_, _, kernels) = fold_case(&case(sink, dims, operand, Plant::Nothing));
                    assert_eq!(kernels.rows, dims.iter().product::<u64>().div_ceil(4096));
                }
            }
            if real {
                // An empty real `Σ` at an inner level: the interpreter's
                // `0 : nat`, and `⊥` for `max!`/`min!` of nothing.
                let (out, ..) = fold_case(&case(sink, &[3, 0, 2], operand, Plant::Nothing));
                assert_eq!(out, Ok(if sink == 0 { Value::Nat(0) } else { Value::Bottom }));
                // NaN of either sign, and ±0.0.
                for nans in [true, false] {
                    let (out, ..) = fold_case(&case(sink, &[3, 4, 5], operand, Plant::NanZero(nans)));
                    let Ok(Value::Real(x)) = out else { panic!("a real") };
                    match (sink, nans) {
                        (1, true) => assert!(x.is_nan() && x.is_sign_positive()),
                        (2, true) => assert!(x.is_nan() && x.is_sign_negative()),
                        (1, false) => assert_eq!(x.to_bits(), 0.0f64.to_bits()),
                        (2, false) => assert_eq!(x.to_bits(), (-0.0f64).to_bits()),
                        _ => {}
                    }
                }
            } else {
                // `nat` overflow in one iteration of the innermost level,
                // and across three.
                for together in [true, false] {
                    let (out, ..) = fold_case(&case(sink, &[3, 4, 5], operand, Plant::Overflow(together)));
                    assert_eq!(out.is_err(), sink == 0, "{sink} {operand}");
                }
            }
        }
    }
}

/// Sibling folds at one depth bind the same slots (de Bruijn depths) to
/// their own variables: a `let` one box substitutes into its offsets is
/// not read in the next, whether that binds the slot as a level, as an
/// affine `let` of its own or as a `let` run a cell at a time.
#[test]
fn sibling_folds_read_their_own_lets() {
    let first = || sum("i", gen(nat(2)), let_("a", add(var("i"), nat(1)), sub(global("X"), vec![var("a")])));
    let seconds = [
        sum("j", gen(nat(2)), sum("k", gen(nat(2)), sub(global("Y"), vec![var("k")]))),
        sum("j", gen(nat(2)), let_("c", mul(var("j"), nat(2)), sub(global("Y"), vec![var("c")]))),
        sum("b", gen(nat(4)), let_("c", modulo(var("b"), nat(5)), sub(global("Y"), vec![var("c")]))),
    ];
    let (xs, ys): (Vec<u64>, Vec<u64>) = ((1..=4).collect(), (1..=5).map(|k| k * 10).collect());
    let lazy = |cells: ScalarBuf| {
        let n = cells.len() as u64;
        let layout = ChunkLayout::new(vec![n], vec![2]).expect("a chunking"); // lint-wall: allow (test)
        let kind = cells.kind();
        let source = MemChunkSource::new(vec![n], cells).expect("a vector"); // lint-wall: allow (test)
        Value::Array(Rc::new(ArrayVal::lazy(LazyArray::new(layout, kind, Box::new(source), 1 << 20)).expect("a lazy vector"))) // lint-wall: allow (test)
    };
    let array = |v: &[u64], operand| match operand {
        0 => Value::Array(Rc::new(ArrayVal::from_nat(vec![v.len() as u64], v.to_vec()).expect("a vector"))), // lint-wall: allow (test)
        1 => Value::Array(Rc::new(ArrayVal::from_f64(vec![v.len() as u64], v.iter().map(|&x| x as f64 * 0.5).collect()).expect("a vector"))), // lint-wall: allow (test)
        _ => lazy(ScalarBuf::F64(v.iter().map(|&x| x as f64 * 0.5).collect())),
    };
    for operand in 0..3 {
        let globals = globals_with(vec![("X", array(&xs, operand)), ("Y", array(&ys, operand))]);
        for second in &seconds {
            let head = add(first(), second.clone());
            for sink in 0..3 {
                let e = match sink {
                    0 => sum("t", gen(nat(3)), head.clone()),
                    1 => set_max(big_union("t", gen(nat(3)), single(head.clone()))),
                    _ => set_min(big_union("t", gen(nat(3)), single(head.clone()))),
                };
                // (`differential` holds the value bits, error class and
                // counts to the interpreter's.)
                let (out, _, kernels) = differential(&e, &globals, &Limits::default());
                assert!(out.is_ok(), "{e}: {out:?}");
                assert_eq!((kernels.nests, kernels.escapes), (1, 0), "{e}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Name capture and rank: the two defects elision made load-bearing.
// ---------------------------------------------------------------------

/// `λA. λB. [[ inner | i < len(A) ]]` — `i` is bounded by the *outer*
/// `A`, whatever `inner` rebinds.
fn under_outer_a(inner: Expr) -> Expr {
    lam("A", lam("B", tab1("i", len(var("A")), inner)))
}

fn only_verdict(e: &Expr) -> SubVerdict {
    let a = analyze(e, &Default::default());
    let c = a.sub_counts();
    assert_eq!(c.total, 1, "{e}");
    match (c.in_bounds, c.provably_out) {
        (1, _) => SubVerdict::InBounds,
        (_, 1) => SubVerdict::ProvablyOut,
        _ => SubVerdict::Unknown,
    }
}

#[test]
fn let_shadowing_does_not_capture_a_symbolic_extent() {
    // fn \A => fn \B => [[ (let val \A = B in A[i] end) | \i < len!A ]]
    // — `A[i]` reads B.
    let e = under_outer_a(let_("A", var("B"), sub(var("A"), vec![var("i")])));
    assert_eq!(only_verdict(&e), SubVerdict::Unknown);
    // The same program with the inner binder renamed apart.
    let e = under_outer_a(let_("C", var("B"), sub(var("C"), vec![var("i")])));
    assert_eq!(only_verdict(&e), SubVerdict::Unknown);
    // No shadowing, no doubt.
    let e = under_outer_a(let_("C", var("B"), sub(var("A"), vec![var("i")])));
    assert_eq!(only_verdict(&e), SubVerdict::InBounds);
}

#[test]
fn lambda_shadowing_does_not_capture_a_symbolic_extent() {
    // fn \A => fn \B => [[ (fn \A => A[i])!B | \i < len!A ]]
    let e = under_outer_a(app(lam("A", sub(var("A"), vec![var("i")])), var("B")));
    assert_eq!(only_verdict(&e), SubVerdict::Unknown);
}

#[test]
fn index_and_comprehension_binders_shadow_too() {
    // [[ [[ A[i] | A < 1 ]] | i < len(A) ]] — the inner index variable
    // is *named* A; `A[i]` subscripts a number (ill-typed, and in any
    // case not the outer A).
    let e = lam(
        "A",
        tab1("i", len(var("A")), tab1("A", nat(1), sub(var("A"), vec![var("i")]))),
    );
    assert_eq!(only_verdict(&e), SubVerdict::Unknown);
    // ⋃{ {A[i]} | A ∈ S } under i < len(A): each element A of S is its
    // own array.
    let e = lam(
        "A",
        lam(
            "S",
            tab1(
                "i",
                len(var("A")),
                big_union("A", var("S"), single(sub(var("A"), vec![var("i")]))),
            ),
        ),
    );
    assert_eq!(only_verdict(&e), SubVerdict::Unknown);
}

#[test]
fn a_symbol_does_not_outlive_its_binder() {
    // λS. let L = ⋃{ {len(a)} | a ∈ S } in
    //     ⋃{ ⋃{ {[[ i | i < x ]][j]} | j ∈ gen(y) } | y ∈ L } | x ∈ L }
    // — x and y are both "the length of a", for different a: the symbol
    // for `a` must not survive the comprehension that binds it.
    let lens = big_union("a", var("S"), single(len(var("a"))));
    let probe = sub(tab1("i", var("x"), var("i")), vec![var("j")]);
    let body = big_union(
        "x",
        var("L"),
        big_union("y", var("L"), big_union("j", gen(var("y")), single(probe))),
    );
    let f = lam("S", let_("L", lens, body));
    assert_eq!(only_verdict(&f), SubVerdict::Unknown);
    // End to end through an opaque call, on arrays of lengths 1 and 3:
    // probes 1 and 2 of the length-1 tabulation are out of range.
    let e = let_("f", f, app(var("f"), global("G")));
    let g = Value::set(vec![nat_array(vec![1], |k| k), nat_array(vec![3], |k| k)]);
    let r = run(&e, &globals_with(vec![("G", g)]));
    assert_eq!(r.value(), &Value::Bottom, "a set with a ⊥ element is ⊥");
}

#[test]
fn rank2_capture_case_matches_elision_off() {
    // f!(X, Y), f = λ(A, B). [[ (let A = B in A[i, j]) | i < d₁(A), j < d₂(A) ]]
    // over a 3×4 X and a 3×2 Y: every row reads Y[i, 2] and Y[i, 3],
    // which do not exist. A captured proof would fold the offset into a
    // neighbouring row instead of answering ⊥.
    let call_with = |inner: Expr| {
        let f = lam_tuple(
            &["A", "B"],
            tab(
                vec![("i", dim_ik(1, 2, var("A"))), ("j", dim_ik(2, 2, var("A")))],
                inner,
            ),
        );
        let_("f", f, app(var("f"), tuple(vec![global("X"), global("Y")])))
    };
    let site = sub(var("A"), vec![var("i"), var("j")]);
    let globals = globals_with(vec![
        ("X", nat_array(vec![3, 4], |k| k)),
        ("Y", nat_array(vec![3, 2], |k| 100 + k)),
    ]);
    let r = run(&call_with(let_("A", var("B"), site.clone())), &globals);
    assert_eq!(r.analysis.sub_counts().in_bounds, 0, "A[i, j] reads B");
    assert_eq!(r.value(), &Value::Bottom);
    assert_eq!(r.elided, 0);
    // Without the shadowing `let` the proof is real and is used.
    let r = run(&call_with(site), &globals);
    assert_eq!(r.value(), &nat_array(vec![3, 4], |k| k));
    assert_eq!(r.elided, 12);
}

#[test]
fn a_marked_site_still_checks_its_arity() {
    // f!M, f = λP. [[ P[i] | i < d₁(P) ]] with d₁ read off a rank-2
    // view: `P[i]` is proven below "extent 0 of P" and marked, but the
    // proof says nothing about P's rank — one index into a rank-2 array
    // stays the ill-typed subscript it is on the checked path.
    let f = lam("P", tab1("i", dim_ik(1, 2, var("P")), sub(var("P"), vec![var("i")])));
    let e = let_("f", f, app(var("f"), global("M")));
    let r = run(&e, &globals_with(vec![("M", nat_array(vec![2, 2], |k| k))]));
    assert_eq!(r.analysis.sub_counts().in_bounds, 1);
    assert_eq!(r.elided, 1, "the site is reached on the marked path");
    match &r.outcome {
        Err(EvalError::IllTyped(m)) => assert!(m.contains("arity 1 into rank-2"), "{m}"),
        other => panic!("expected the arity error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The floor: what the compiled-form interval pass proved, the analyzer
// must prove site for site. These are that pass's unit tests, frozen,
// restated as `analyze` + marked-evaluation assertions.
// ---------------------------------------------------------------------

/// (sites, in-bounds sites) of `e` against `globals`.
fn marks_of(e: &Expr, globals: &HashMap<Name, Value>) -> (usize, usize) {
    let c = analyze(e, &globals_mentioned(e, globals)).sub_counts();
    (c.total, c.in_bounds)
}

#[test]
fn tab_over_own_extent_elides() {
    // [[ A[i, j] | i < 3, j < 4 ]] over a 3×4 global: provable.
    let g = globals_with(vec![("A", nat_array(vec![3, 4], |k| k))]);
    let e = tab(
        vec![("i", nat(3)), ("j", nat(4))],
        sub(var("A"), vec![var("i"), var("j")]),
    );
    assert_eq!(marks_of(&e, &g), (1, 1));
    assert_eq!(run(&e, &g).elided, 12);
}

#[test]
fn oversized_bound_does_not_elide() {
    // j ranges to 4 but the second extent is 4 → 4 ≤ hi is not < 4.
    let g = globals_with(vec![("A", nat_array(vec![3, 4], |k| k))]);
    let e = tab(
        vec![("i", nat(3)), ("j", nat(5))],
        sub(var("A"), vec![var("i"), var("j")]),
    );
    assert_eq!(marks_of(&e, &g), (1, 0));
    assert_eq!(run(&e, &g).elided, 0);
}

#[test]
fn offset_arithmetic_is_tracked() {
    // A[100 + t] with t < 50 over a length-150 array: provable; over
    // length 149 it is not.
    let e = |n: &str| tab1("t", nat(50), sub(var(n), vec![add(nat(100), var("t"))]));
    let g = globals_with(vec![("A", nat_array(vec![150], |k| k))]);
    assert_eq!(marks_of(&e("A"), &g).1, 1);
    assert_eq!(run(&e("A"), &g).elided, 50);
    let g = globals_with(vec![("B", nat_array(vec![149], |k| k))]);
    assert_eq!(marks_of(&e("B"), &g).1, 0);
    assert_eq!(run(&e("B"), &g).value(), &Value::Bottom);
}

#[test]
fn comprehension_over_gen_elides() {
    // ⋃{ {A[x]} | x ∈ gen(10) } over a length-10 array.
    let g = globals_with(vec![("A", nat_array(vec![10], |k| k))]);
    let e = big_union("x", gen(nat(10)), single(sub(var("A"), vec![var("x")])));
    assert_eq!(marks_of(&e, &g), (1, 1));
    assert_eq!(run(&e, &g).elided, 10);
    // gen(11) can reach index 10 → not provable.
    let e = big_union("x", gen(nat(11)), single(sub(var("A"), vec![var("x")])));
    assert_eq!(marks_of(&e, &g).1, 0);
}

#[test]
fn mod_and_dim_bounds_prove_in_range() {
    // A[x % dim(A)] is always in range (dim ≥ 1 here).
    let g = globals_with(vec![("A", nat_array(vec![7], |k| k))]);
    let e = tab1(
        "x",
        nat(100),
        sub(var("A"), vec![modulo(var("x"), dim(1, var("A")))]),
    );
    assert_eq!(marks_of(&e, &g).1, 1);
    assert_eq!(run(&e, &g).elided, 100);
}

#[test]
fn unknown_arrays_and_vector_indices_stay_checked() {
    // Unknown global array: no dims, no elision.
    let e = tab1("i", nat(3), sub(var("A"), vec![var("i")]));
    assert_eq!(marks_of(&e, &HashMap::new()).1, 0);
    // Vector index (tuple-typed single index) into a rank-2 array:
    // in range, but through `as_index` — never marked.
    let g = globals_with(vec![("A", nat_array(vec![2, 2], |k| k))]);
    let e = sub(var("A"), vec![tuple(vec![nat(0), nat(1)])]);
    assert_eq!(marks_of(&e, &g), (1, 0));
    let r = run(&e, &g);
    assert_eq!((r.value(), r.elided), (&Value::Nat(1), 0));
}

#[test]
fn elided_evaluation_matches_checked() {
    // `run` asserts marks-on ≡ marks-off and that off marks nothing;
    // here the fast path must also actually run.
    let g = globals_with(vec![("A", nat_array(vec![4, 5], |k| k))]);
    let e = tab(
        vec![("i", nat(4)), ("j", nat(5))],
        sub(var("A"), vec![var("i"), var("j")]),
    );
    let r = run(&e, &g);
    assert_eq!(r.elided, 20, "fast path must actually run");
    assert_eq!(r.value(), &nat_array(vec![4, 5], |k| k));
}
