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
//! halved the optimizer under it. Now that rules consume the node they
//! are offered, the gate copies each visited node to keep the redex and
//! compares what a declining rule hands back with it: gate off halved
//! again and gate on rose, 7.1–7.9x (3.5 ms → 27 ms; the by-reference
//! engine read 6.7 ms → 18.8 ms the same day). That is why the gate defaults on
//! only in debug builds, where the whole test corpus doubles as a
//! soundness corpus. With `reverse` the prelude macro's own term (a β
//! redex a round), the pipeline reads 6.8–7.6 ms → 54–56 ms, 7.2–7.9x
//! (three runs, release, 2-vCPU Xeon container). Once a rule that
//! substitutes has its contractum reduced before the root is re-offered,
//! the nested β redexes no longer balloon between passes:
//! 0.28–0.32 ms → 2.5–2.8 ms, 8.3–9.1x, against 5.5–6.8 ms → 43–51 ms,
//! 7.5–8.3x for the whole-pass engine the same hour (three alternating
//! runs a side, same container).

use std::time::Instant;

use aql::core::expr::builder::*;
use aql::core::expr::free::fresh;
use aql::lang::session::Session;
use aql::opt::Gate;

fn main() {
    // Four rounds of `[[ r[i] + 1 | \i < len!r ]]` over `r = reverse!e`.
    let reverse = Session::new().resolve(&var("reverse"));
    let base: Vec<_> = (0..64u64).map(nat).collect();
    let mut e = array1_lit(base);
    for _ in 0..4 {
        let (r, i) = (fresh("r"), fresh("i"));
        let head = add(sub(var(&r), vec![var(&i)]), nat(1));
        e = let_(&r, app(reverse.clone(), e), tab1(&i, len(var(&r)), head));
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
            opt.run(e.clone(), &Gate::local(), None).expect("pipeline is sound"),
        );
    }
    let t1 = Instant::now();
    for _ in 0..N {
        std::hint::black_box(
            opt.run(e.clone(), &Gate::local(), None).expect("pipeline is sound"),
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
