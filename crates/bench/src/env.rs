//! A self-contained evaluation environment for benches: owned globals
//! and externals, optional optimization, and timing helpers.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use aql::analysis::eval_elided;
use aql_core::eval::{EvalCtx, Limits};
use aql_core::expr::{name, Expr, Name};
use aql_core::prim::Extensions;
use aql_core::value::Value;

/// An owned evaluation environment.
pub struct BenchEnv {
    globals: HashMap<Name, Value>,
    externals: Extensions,
    limits: Limits,
}

impl BenchEnv {
    /// An environment with the given global bindings.
    pub fn new(globals: Vec<(&str, Value)>) -> BenchEnv {
        BenchEnv {
            globals: globals.into_iter().map(|(n, v)| (name(n), v)).collect(),
            externals: Extensions::new(),
            limits: Limits::default(),
        }
    }

    /// Access the external registry (to add primitives).
    pub fn externals_mut(&mut self) -> &mut Extensions {
        &mut self.externals
    }

    /// Bind another global.
    pub fn bind(&mut self, n: &str, v: Value) {
        self.globals.insert(name(n), v);
    }

    /// Evaluate an expression as-is (bounds-check elision included, as
    /// on the session's statement path).
    pub fn eval(&self, e: &Expr) -> Value {
        let ctx = EvalCtx::new(&self.globals, &self.externals).with_limits(self.limits.clone());
        // Benchmarks abort on a broken workload — the numbers would be
        // meaningless anyway. lint-wall: allow
        eval_elided(e, &ctx).unwrap_or_else(|err| panic!("bench eval failed: {err} in {e}"))
    }

    /// Evaluate the expression after running the standard optimizer.
    pub fn eval_optimized(&self, e: &Expr) -> Value {
        self.eval(&aql_opt::optimize(e))
    }
}

/// Median wall-clock time of `reps` runs of `f` (one warm-up run).
pub fn time_median(reps: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Render a `Duration` in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::expr::builder::*;

    #[test]
    fn env_evaluates_with_globals() {
        let env = BenchEnv::new(vec![("A", Value::array1(vec![Value::Nat(5)]))]);
        assert_eq!(env.eval(&len(global("A"))), Value::Nat(1));
        assert_eq!(env.eval_optimized(&len(global("A"))), Value::Nat(1));
    }

    #[test]
    fn timing_is_positive() {
        let d = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn duration_formatting() {
        assert!(fmt_duration(Duration::from_nanos(50)).contains("ns"));
        assert!(fmt_duration(Duration::from_micros(500)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(50)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(20)).contains(" s"));
    }
}
