//! The optimizer moves terms instead of copying them, proven by counting
//! allocations as `aql-format`'s `codec_alloc` does: a rule takes the
//! node by value and hands it back when it declines, substitution
//! rewrites in place and moves its argument into the last occurrence,
//! and neither walk over the scoping table allocates. `Optimizer::run`
//! takes its term by value, as the session's statement path hands it
//! over, so a pass over a normal form allocates nothing, and a firing
//! allocates only what its contractum needs that the redex did not
//! have.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aql_core::expr::builder::*;
use aql_core::expr::Expr;
use aql_core::prim::NativeFn;
use aql_core::types::Type;
use aql_core::value::Value;
use aql_lang::ast::Stmt;
use aql_lang::desugar::desugar;
use aql_lang::parser::parse_program;
use aql_lang::session::Session;
use aql_opt::rules::beta::LetInline;
use aql_opt::{Gate, Optimizer, Rule};

thread_local! {
    /// Allocations made by this thread (const-initialized and without a
    /// destructor, so reading it from the allocator allocates nothing).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Allocations of one by-value `Optimizer::run` on a copy of `e` (made
/// before counting), on an optimizer that has already run once on this
/// thread (so every metric series and thread-local it touches exists).
fn allocs_of_a_run(opt: &Optimizer, e: &Expr) -> (u64, Expr) {
    drop(opt.optimize(e));
    let input = e.clone();
    let (allocs, out) = allocs_during(|| opt.run(input, &Gate::off(), None));
    (allocs, out.expect("no rule panics"))
}

#[test]
fn a_pass_over_a_normal_form_allocates_nothing() {
    // A two-index tabulation, a ranked union, a guarded sum over `gen`
    // (whose guard is not the loop's own bound check) and a subscript
    // of a free array: every library rule is offered a node and declines.
    let e = tuple(vec![
        tab(vec![("i", var("n")), ("j", nat(3))], add(sub(var("A"), vec![var("i")]), var("j"))),
        big_union_rank("x", "r", var("S"), single(tuple(vec![var("x"), var("r")]))),
        sum("y", gen(var("n")), iff(lt(var("y"), var("m")), var("y"), nat(0))),
    ]);
    let opt = aql_opt::standard();
    let (allocs, out) = allocs_of_a_run(&opt, &e);
    assert_eq!(out, e, "already a normal form");
    assert_eq!(allocs, 0);
}

#[test]
fn let_inlining_allocates_nothing() {
    // `let x = A[0] in x + 1`: the one occurrence takes the bound term.
    let e = let_("x", sub(var("A"), vec![nat(0)]), add(var("x"), nat(1)));
    let redex = e.clone();
    let (allocs, out) = allocs_during(|| LetInline.apply(redex));
    assert_eq!(out, Ok(add(sub(var("A"), vec![nat(0)]), nat(1))));
    assert_eq!(allocs, 0, "the rule moves the parts of the redex");
    let (allocs, out) = allocs_of_a_run(&aql_opt::standard(), &e);
    assert_eq!(out, add(sub(var("A"), vec![nat(0)]), nat(1)));
    assert_eq!(allocs, 0, "nor does the engine around it");
}

#[test]
fn e5_optimizes_in_an_exact_number_of_allocations() {
    // [[ i * i + 1 | \i < 300 ]][17]: β^p, then four constant folds.
    let e = sub(tab1("i", nat(300), add(mul(var("i"), var("i")), nat(1))), vec![nat(17)]);
    let (allocs, out) = allocs_of_a_run(&aql_opt::standard(), &e);
    assert_eq!(out, nat(290));
    // β^p builds `if 17 < 300 then … else ⊥` (five boxes) and the list
    // of its one pending substitution; a copy of the literal index is
    // no allocation. Cloning rules over a rebuilding substitution made
    // 24.
    assert_eq!(allocs, 6);
}

/// The §1 heat-index query as the `compile_mix` session hands it to the
/// optimizer: the prelude's macros expanded, the arrays and `threshold`
/// resolved to globals and `heatindex` to an external.
fn heat_query() -> Expr {
    let query = "{d | \\d <- gen!30,
         \\WS' == evenpos!(proj_col!(WS, 0)),
         \\TRW == zip_3!(T, RH, WS'),
         \\A == subseq!(TRW, d*24, d*24+23),
         heatindex!(A) > threshold};";
    let mut s = Session::new();
    // Its macros as written: the whole of the work, as an optimizer-off
    // session resolves it.
    s.optimize = false;
    let reading = Type::tuple(vec![Type::Real, Type::Real, Type::Real]);
    let ty = Type::fun(Type::array1(reading), Type::Real);
    s.register_external(NativeFn::new("heatindex", ty, |_| Ok(Value::Real(0.0))));
    for name in ["T", "RH", "WS", "threshold"] {
        s.bind_val(name, Value::Real(0.0)).expect("a real is typed");
    }
    let [Stmt::Query(e)] = &parse_program(query).expect("the query parses")[..] else {
        panic!("one query")
    };
    s.resolve(&desugar(e).expect("the query desugars"))
}

#[test]
fn the_heat_query_optimizes_in_at_most_400_allocations() {
    let e = heat_query();
    let (allocs, _) = allocs_of_a_run(&aql_opt::standard(), &e);
    let (copy, _) = allocs_during(|| e.clone());
    // Cloning rules over a rebuilding substitution made 3,579, copy
    // included; rules that take the redex by value, 1,325, in whole
    // passes: a `let` copied redexes its body's substitution had made
    // into every use before they were reduced. Reduced where they land,
    // they cost 281, the copy included; by value the copy is the caller's.
    assert!(allocs + copy <= 400, "{allocs} allocations, and a copy of {copy}");
}
