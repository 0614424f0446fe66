//! What the evaluator alone costs for the four `warm_scan` statements,
//! per cell, and how many rows its kernels run them in.
//!
//! ```text
//! cargo run --release --example kernel_profile
//! ```
//!
//! The statements are the benchmark's over a 200×5×5 window of a
//! 400×5×5 array of reals `T` (the zip over two 200-cell columns of it,
//! one in each half), once with `T` in memory and once lazy over
//! 163×5×5 chunks, as the NetCDF `temp` is stored (every chunk resident
//! after the first run). Each statement is optimized once
//! (`Session::explain`); then, per statement, the median ns of
//! evaluation alone (`eval_elided` on a fresh `EvalCtx`, as a statement
//! evaluates) over 2,001 runs, divided by the cells it reads; the kernel
//! rows and loop iterations of one run (each statement must run as one
//! kernel); and the median µs of the whole statement through
//! `Session::run`. The last row of each table is the evaluator's own:
//! the four statements' evaluation against their whole statements.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use aql::analysis::eval_elided;
use aql::core::eval::{EvalCtx, KernelStats};
use aql::core::expr::{name, Expr, Name};
use aql::core::prim::Extensions;
use aql::core::types::Type;
use aql::core::value::{ArrayVal, Value};
use aql::lang::session::Session;
use aql::store::{ChunkLayout, LazyArray, MemChunkSource, ScalarBuf, ScalarKind};

const DIMS: [u64; 3] = [400, 5, 5];
const T0: u64 = 120;
const RUNS: usize = 2001;

/// Mixed-sign reals with no two alike.
fn cells() -> Vec<f64> {
    let n = DIMS.iter().product::<u64>();
    (0..n).map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.25 + i as f64 * 1e-3).collect()
}

fn in_memory() -> Value {
    Value::Array(Rc::new(ArrayVal::from_f64(DIMS.to_vec(), cells()).expect("an array")))
}

fn lazy() -> Value {
    let source = MemChunkSource::new(DIMS.to_vec(), ScalarBuf::F64(cells())).expect("a source");
    let layout = ChunkLayout::new(DIMS.to_vec(), vec![163, 5, 5]).expect("a layout");
    let lazy = LazyArray::new(layout, ScalarKind::F64, Box::new(source), 1 << 22);
    Value::Array(Rc::new(ArrayVal::lazy(lazy).expect("an array")))
}

/// The four statements, each with the cells it reads.
fn statements() -> [(&'static str, String, f64); 4] {
    let (za, zb) = (0, 200);
    [
        ("max", format!("max!{{ T[{T0} + t, i, j] | \\t <- gen!200, \\i <- gen!5, \\j <- gen!5 }}"), 5000.0),
        (
            "sum",
            format!("summap(fn \\t => summap(fn \\i => summap(fn \\j => T[{T0} + t, i, j])!(gen!5))!(gen!5))!(gen!200)"),
            5000.0,
        ),
        ("map", format!("[[ T[{T0} + t, i, j] * 1.8 + 32.0 | \\t < 200, \\i < 5, \\j < 5 ]]"), 5000.0),
        ("zip", format!("zip!([[ T[{za} + k, 2, 2] | \\k < 200 ]], [[ T[{zb} + k, 2, 2] | \\k < 200 ]])"), 400.0),
    ]
}

/// Median ns of `f` over [`RUNS`] runs, after 100 to warm up.
fn median_ns(mut f: impl FnMut()) -> f64 {
    (0..100).for_each(|_| f());
    let mut ns: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[RUNS / 2]
}

/// Evaluate `e` as a statement does, and what its kernels did.
fn eval(e: &Expr, globals: &HashMap<Name, Value>, externals: &Extensions) -> KernelStats {
    let ctx = EvalCtx::new(globals, externals);
    std::hint::black_box(eval_elided(e, &ctx).expect("an answer"));
    ctx.kernel_stats()
}

fn profile(label: &str, t: Value) {
    let mut s = Session::new();
    s.bind_val_typed("T", t.clone(), Type::Array(Rc::new(Type::Real), 3));
    let globals = HashMap::from([(name("T"), t)]);
    let externals = Extensions::new();
    println!("{label}");
    println!("  {:<6} {:>9} {:>8} {:>6} {:>7} {:>10}", "sink", "eval µs", "ns/cell", "rows", "cells", "stmt µs");
    let (mut eval_total, mut stmt_total) = (0.0, 0.0);
    for (sink, query, cells) in statements() {
        let e = s.explain(&query).expect("a statement").optimized;
        let kernels = eval(&e, &globals, &externals);
        assert_eq!((kernels.nests, kernels.escapes), (1, 0), "{sink} runs as one kernel");
        let eval_ns = median_ns(|| {
            eval(&e, &globals, &externals);
        });
        let stmt = format!("{query};");
        let stmt_ns = median_ns(|| {
            std::hint::black_box(s.run(&stmt).expect("an answer"));
        });
        (eval_total, stmt_total) = (eval_total + eval_ns, stmt_total + stmt_ns);
        println!(
            "  {sink:<6} {:>9.1} {:>8.2} {:>6} {:>7} {:>10.1}",
            eval_ns / 1e3,
            eval_ns / cells,
            kernels.rows,
            kernels.cells,
            stmt_ns / 1e3
        );
    }
    let share = eval_total / stmt_total;
    println!("  {:<6} {:>9.1} {:>8} {:>6} {:>7} {:>10.1}  (evaluation {share:.2} of the statements)", "eval", eval_total / 1e3, "", "", "", stmt_total / 1e3);
}

fn main() {
    profile("T in memory (400×5×5 reals)", in_memory());
    profile("T lazy (163×5×5 chunks, resident)", lazy());
}
