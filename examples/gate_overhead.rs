//! Measure the rewrite-soundness gate's cost on the optimizer.
//!
//! Times a rewrite-heavy 1-d array pipeline through the standard §5
//! optimizer with the gate off (the release default) and with per-fire
//! verification on. Run with:
//!
//! ```text
//! cargo run --release --example gate_overhead
//! ```
//!
//! Representative numbers (release, one container, issue 22): gate off
//! is statistically indistinguishable from the pre-gate engine (the off
//! path adds one branch per rule fire plus binder-scope bookkeeping);
//! with per-fire checking — `aql_core::check::check_rewrite`, the
//! typechecker in open mode over redex and contractum — a run takes
//! 2.7–2.8x as long (6.9 ms → 19.0 ms per iteration, three runs). The
//! lattice-based term verifier it replaced read 2.0–2.2x the same day;
//! the "~1.4x" this header carried since PR 4 predates issue 19, which
//! halved the optimizer under it. That is why the gate defaults on only
//! in debug builds, where the whole test corpus doubles as a soundness
//! corpus.

use std::time::Instant;

use aql::core::derived;
use aql::core::expr::builder::*;
use aql::opt::Gate;

fn main() {
    let base: Vec<_> = (0..64u64).map(nat).collect();
    let mut e = array1_lit(base);
    for _ in 0..4 {
        let x = aql::core::expr::free::fresh("x");
        e = derived::map_arr(lam(&x, add(var(&x), nat(1))), derived::reverse(e));
    }
    let opt = aql::opt::standard();
    const N: usize = 300;
    for _ in 0..50 {
        std::hint::black_box(opt.try_optimize(&e).expect("no rule panics"));
    }
    let t0 = Instant::now();
    for _ in 0..N {
        std::hint::black_box(opt.try_optimize(&e).expect("no rule panics"));
    }
    let off = t0.elapsed();
    for _ in 0..50 {
        std::hint::black_box(
            opt.run(&e, &Gate::local(), None).expect("pipeline is sound"),
        );
    }
    let t1 = Instant::now();
    for _ in 0..N {
        std::hint::black_box(
            opt.run(&e, &Gate::local(), None).expect("pipeline is sound"),
        );
    }
    let on = t1.elapsed();
    println!(
        "gate off: {:?}/iter   gate on (per-fire): {:?}/iter   ratio {:.2}x",
        off / N as u32,
        on / N as u32,
        on.as_secs_f64() / off.as_secs_f64()
    );
}
