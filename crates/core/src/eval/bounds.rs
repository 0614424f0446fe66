//! The natural-number interval domain and the bounds-check elision
//! toggle.
//!
//! [`Iv`] and [`arith_iv`] are the workspace's one interval type and
//! one interval arithmetic. The abstract interpreter in `aql-analysis`
//! builds its symbolic domains on top of them and decides which
//! subscripts are provably in range; its verdicts reach the evaluator
//! as marks fixed by [`compile_marked`](super::compile_marked) (see the
//! `Sub` arm of `eval_compiled` for the marked fast path and its
//! `debug_assert!` tripwire). `aql-analysis` depends on this crate, not
//! the other way round, which is why the domain lives here.
//!
//! [`set_enabled`] turns elision off wholesale — no analysis runs on
//! the statement path and nothing is marked. It is the reference
//! switch of the soundness differential (`aql-analysis`
//! `tests/soundness.rs`: values, errors and `steps` equal on vs. off),
//! not a configuration anyone ships.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::expr::ArithOp;

/// Elision is on unless a test turns it off; `true` is the
/// production configuration.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enable or disable bounds-check elision (an unmarked
/// subscript always takes the checked route).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is bounds-check elision enabled?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A natural-number interval `[lo, hi]`; `hi = None` is unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Iv {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound (`None` = +∞).
    pub hi: Option<u64>,
}

impl Iv {
    /// The full interval `[0, ∞)`.
    pub const TOP: Iv = Iv { lo: 0, hi: None };

    /// The singleton interval `[n, n]`.
    pub fn exact(n: u64) -> Iv {
        Iv { lo: n, hi: Some(n) }
    }

    /// Least upper bound (interval hull).
    pub fn join(self, o: Iv) -> Iv {
        Iv {
            lo: self.lo.min(o.lo),
            hi: match (self.hi, o.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Greatest lower bound: the values in both intervals (none, if
    /// the result's `hi` is below its `lo`).
    pub fn meet(self, o: Iv) -> Iv {
        Iv {
            lo: self.lo.max(o.lo),
            hi: match (self.hi, o.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (hi, None) | (None, hi) => hi,
            },
        }
    }

    /// Does the interval contain `n`?
    pub fn contains(self, n: u64) -> bool {
        n >= self.lo && self.hi.is_none_or(|h| n <= h)
    }
}

/// Interval transfer function for nat arithmetic. Division and modulo
/// by zero produce `⊥` at run time, which the strict subscript path
/// short-circuits before any offset is formed — so the transfer only
/// needs to bound the *non-error* outcomes.
pub fn arith_iv(op: ArithOp, a: Iv, b: Iv) -> Iv {
    match op {
        ArithOp::Add => Iv {
            lo: a.lo.saturating_add(b.lo),
            hi: match (a.hi, b.hi) {
                (Some(x), Some(y)) => x.checked_add(y),
                _ => None,
            },
        },
        ArithOp::Monus => Iv {
            lo: match b.hi {
                Some(h) => a.lo.saturating_sub(h),
                None => 0,
            },
            hi: a.hi.map(|x| x.saturating_sub(b.lo)),
        },
        ArithOp::Mul => Iv {
            lo: a.lo.saturating_mul(b.lo),
            hi: match (a.hi, b.hi) {
                (Some(x), Some(y)) => x.checked_mul(y),
                _ => None,
            },
        },
        ArithOp::Div => Iv {
            lo: match b.hi {
                Some(h) if h > 0 => a.lo / h,
                _ => 0,
            },
            // Dividing by anything ≥ max(1, b.lo) only shrinks.
            hi: a.hi.map(|x| x / b.lo.max(1)),
        },
        ArithOp::Mod => Iv {
            lo: 0,
            // r = a mod b satisfies r ≤ b-1 and r ≤ a.
            hi: match (b.hi.map(|h| h.saturating_sub(1)), a.hi) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (Some(x), None) => Some(x),
                (None, y) => y,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arith_transfer_is_sound_pointwise() {
        // Exhaustive check on a small grid: every concrete outcome of
        // a op b lies in arith_iv of the singleton intervals' hull.
        for a in 0u64..8 {
            for b in 0u64..8 {
                for op in [ArithOp::Add, ArithOp::Monus, ArithOp::Mul, ArithOp::Div, ArithOp::Mod]
                {
                    let (got, defined) = match op {
                        ArithOp::Add => (a + b, true),
                        ArithOp::Monus => (a.saturating_sub(b), true),
                        ArithOp::Mul => (a * b, true),
                        ArithOp::Div => (a.checked_div(b).unwrap_or(0), b != 0),
                        ArithOp::Mod => (a.checked_rem(b).unwrap_or(0), b != 0),
                    };
                    if defined {
                        let iv = arith_iv(op, Iv::exact(a), Iv::exact(b));
                        assert!(
                            iv.contains(got),
                            "{a} {op:?} {b} = {got} outside {iv:?}"
                        );
                    }
                }
            }
        }
    }
}
