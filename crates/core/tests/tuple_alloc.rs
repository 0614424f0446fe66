//! A kernel tabulation allocates per nest, never per cell or per row,
//! proven by counting allocations as `aql-opt`'s `opt_alloc` does: a
//! tabulation of pairs writes one typed column per component instead of
//! boxing each cell, and a real-valued map's row buffers are allocated
//! at bind — each makes as many allocations over a few cells as over
//! thousands (a boxed tuple per cell, or a buffer per row, would not).
//! A nest an interpreted loop enters again is bound once: each entry
//! then allocates only what it builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use aql_core::eval::bounds::Iv;
use aql_core::eval::{eval_marked, EvalCtx};
use aql_core::expr::builder::*;
use aql_core::expr::{name, Expr};
use aql_core::prim::Extensions;
use aql_core::value::array::ArrayData;
use aql_core::value::{ArrayVal, Value};

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

/// Allocations of one marked evaluation of `[[ (A[k], A[k + n]) | k < n ]]`
/// over an unboxed real `A` of `2n` cells — the `zip` of two windows —
/// after a first evaluation has created whatever a thread creates once.
fn pairs_of_two_windows(n: u64) -> u64 {
    let a = ArrayVal::from_f64(vec![2 * n], (0..2 * n).map(|i| i as f64 * 0.5).collect());
    let globals = HashMap::from([(name("A"), Value::Array(Rc::new(a.unwrap())))]);
    let at = |i: Expr| sub(global("A"), vec![i]);
    let e = tab1("k", nat(n), tuple(vec![at(var("k")), at(add(var("k"), nat(n)))]));
    // Both indices lie in `[0, 2n)`: every site marked, so a kernel.
    let marks = |_: &Expr| Some(vec![Iv { lo: 0, hi: Some(2 * n - 1) }]);
    let externals = Extensions::new();
    drop(eval_marked(&e, &EvalCtx::new(&globals, &externals), &marks));
    let ctx = EvalCtx::new(&globals, &externals);
    let (allocs, out) = allocs_during(|| eval_marked(&e, &ctx, &marks));
    assert_eq!(ctx.kernel_stats().nests, 1, "{e} ran as a kernel");
    let Ok(Value::Array(pairs)) = out else { panic!("{e} is a tabulation") };
    assert!(matches!(pairs.array_data(), ArrayData::Columns(c) if c.len() == 2));
    assert_eq!(pairs.value_at(n as usize - 1), Value::tuple(vec![
        Value::Real((n - 1) as f64 * 0.5),
        Value::Real((2 * n - 1) as f64 * 0.5),
    ]));
    allocs
}

/// Allocations of one marked evaluation of `[[ T[k] * 1.8 + 32.0 | k < n ]]`
/// over an unboxed real `T` — the `warm_scan` map — after a first
/// evaluation, output buffer included.
fn a_real_map(n: u64) -> u64 {
    let t = ArrayVal::from_f64(vec![n], (0..n).map(|i| i as f64 * 0.25).collect());
    let globals = HashMap::from([(name("T"), Value::Array(Rc::new(t.unwrap())))]);
    let cell = sub(global("T"), vec![var("k")]);
    let e = tab1("k", nat(n), add(mul(cell, real(1.8)), real(32.0)));
    let marks = |_: &Expr| Some(vec![Iv { lo: 0, hi: Some(n - 1) }]);
    let externals = Extensions::new();
    drop(eval_marked(&e, &EvalCtx::new(&globals, &externals), &marks));
    let ctx = EvalCtx::new(&globals, &externals);
    let (allocs, out) = allocs_during(|| eval_marked(&e, &ctx, &marks));
    assert_eq!(ctx.kernel_stats().nests, 1, "{e} ran as a kernel");
    let Ok(Value::Array(map)) = out else { panic!("{e} is a tabulation") };
    assert_eq!(map.value_at(n as usize - 1), Value::Real((n - 1) as f64 * 0.25 * 1.8 + 32.0));
    allocs
}

/// Allocations of one marked evaluation of the §1 query's shape over
/// `n` days of in-memory readings: `Σ_{d < n} dim_1!(day d)`, where a
/// day is `let h = d·24 in [[ if h+k < |T| then (T[h+k], R[h+k], if
/// (h+k)·2 < |W| then W[(h+k)·2, 0] else ⊥) else ⊥ | k < 24 ]]` — the
/// nest the interpreted loop enters once a day, bound once.
fn days_of_readings(n: u64) -> u64 {
    let hours = 30 * 24;
    let col = |f: fn(u64) -> f64, len: u64| Value::Array(Rc::new(ArrayVal::from_f64(vec![len], (0..len).map(f).collect()).unwrap()));
    let w = ArrayVal::from_f64(vec![2 * hours, 5], (0..10 * hours).map(|i| i as f64 * 0.1).collect());
    let globals = HashMap::from([
        (name("T"), col(|i| 70.0 + (i % 24) as f64, hours)),
        (name("R"), col(|i| 40.0 + (i % 13) as f64, hours)),
        (name("W"), Value::Array(Rc::new(w.unwrap()))),
    ]);
    let at = || add(var("h"), var("k"));
    let wide = iff(lt(mul(at(), nat(2)), nat(2 * hours)), sub(global("W"), vec![mul(at(), nat(2)), nat(0)]), bottom());
    let cell = tuple(vec![sub(global("T"), vec![at()]), sub(global("R"), vec![at()]), wide]);
    let day = let_("h", mul(var("d"), nat(24)), tab1("k", nat(24), iff(lt(at(), nat(hours)), cell, bottom())));
    let e = sum("d", gen(nat(n)), len(day));
    // Every index is below the end the guard around it tests.
    let marks = |site: &Expr| match site {
        Expr::Sub(_, idx) if idx.len() == 2 => Some(vec![Iv { lo: 0, hi: Some(2 * hours - 1) }, Iv::exact(0)]),
        _ => Some(vec![Iv { lo: 0, hi: Some(hours - 1) }]),
    };
    let externals = Extensions::new();
    drop(eval_marked(&e, &EvalCtx::new(&globals, &externals), &marks));
    let ctx = EvalCtx::new(&globals, &externals);
    let (allocs, out) = allocs_during(|| eval_marked(&e, &ctx, &marks));
    assert_eq!(ctx.kernel_stats().nests, n, "{e} ran a kernel a day");
    assert_eq!(out, Ok(Value::Nat(24 * n)));
    allocs
}

#[test]
fn a_nest_entered_once_a_day_allocates_per_day_only_what_its_day_builds() {
    // A day's own allocations: its environment, its entry (operands,
    // captures, extents) and its array (three columns). Binding, which
    // made 69 a day, happens once.
    let per_day = (days_of_readings(30) - days_of_readings(15)) / 15;
    assert!(per_day <= 20, "{per_day} allocations a day");
}

#[test]
fn a_real_map_allocates_independently_of_its_length() {
    let (small, large) = (a_real_map(100), a_real_map(5_000));
    assert_eq!(small, large, "allocations at 100 cells and at 5,000");
}

#[test]
fn a_tabulation_of_pairs_allocates_independently_of_its_length() {
    let (small, large) = (pairs_of_two_windows(100), pairs_of_two_windows(2_500));
    assert_eq!(small, large, "allocations at 100 cells and at 2,500");
}
