//! Symbolic extents: natural-number expressions over bound variables
//! and source-array dimensions.
//!
//! Interval reasoning alone stops at the first non-literal bound. This
//! domain keeps extents *symbolic* — `dim(T, 0)`, `dim(T, 0) ∸ 1`,
//! `2·dim(T, 0)` — so facts like "`[[ A[i] | i < dim(A) ]]` never goes
//! out of bounds" hold for every `A`, not just ones whose length is a
//! literal.
//!
//! A symbol names an array by its *binding*, not its spelling: a
//! [`SymExt::Dim`] carries the analyzer's serial number for the binder
//! occurrence that introduced the array (0 for a free name or a `val`),
//! so two bindings that share a name never unify and every fact is
//! invariant under α-renaming.
//!
//! The domain is a term algebra, so joins of unequal terms would grow
//! without bound; [`SymExt::widen`] is the widening operator — any
//! expression over the size budget collapses to [`SymExt::Top`]
//! (= "unknown extent"), which keeps every analysis pass linear.

use std::fmt;
use std::rc::Rc;

use aql_core::expr::Name;

/// Widening budget: symbolic expressions larger than this many nodes
/// collapse to [`SymExt::Top`].
pub const WIDEN_BUDGET: usize = 16;

/// A symbolic natural-number expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymExt {
    /// A known constant.
    Const(u64),
    /// Extent `axis` of a source array whose shape is not known.
    Dim {
        /// The array's name (for reports).
        source: Name,
        /// Which binding of that name: 0 for a free variable or a `val`
        /// binding, otherwise the analyzer's serial number for the
        /// binder occurrence.
        binder: u32,
        /// Zero-based axis.
        axis: usize,
    },
    /// Sum.
    Add(Rc<SymExt>, Rc<SymExt>),
    /// Monus (truncated subtraction, as in the object language).
    Monus(Rc<SymExt>, Rc<SymExt>),
    /// Product.
    Mul(Rc<SymExt>, Rc<SymExt>),
    /// Unknown.
    Top,
}

impl SymExt {
    /// Node count (drives widening).
    pub fn size(&self) -> usize {
        match self {
            SymExt::Const(_) | SymExt::Dim { .. } | SymExt::Top => 1,
            SymExt::Add(a, b) | SymExt::Monus(a, b) | SymExt::Mul(a, b) => {
                1 + a.size() + b.size()
            }
        }
    }

    /// Is this the unknown extent?
    pub fn is_top(&self) -> bool {
        matches!(self, SymExt::Top)
    }

    /// Does the expression mention a binder numbered `first` or later
    /// (i.e. one whose scope the analyzer is about to leave)?
    pub fn mentions_binder_from(&self, first: u32) -> bool {
        match self {
            SymExt::Const(_) | SymExt::Top => false,
            SymExt::Dim { binder, .. } => *binder >= first,
            SymExt::Add(a, b) | SymExt::Monus(a, b) | SymExt::Mul(a, b) => {
                a.mentions_binder_from(first) || b.mentions_binder_from(first)
            }
        }
    }

    /// Constant value, if the expression is a literal.
    pub fn as_const(&self) -> Option<u64> {
        match self {
            SymExt::Const(n) => Some(*n),
            _ => None,
        }
    }

    /// Constant-fold and apply unit/annihilator laws. Any `Top`
    /// operand makes the whole expression `Top`.
    pub fn simplify(&self) -> SymExt {
        match self {
            SymExt::Const(_) | SymExt::Dim { .. } | SymExt::Top => self.clone(),
            SymExt::Add(a, b) => {
                let (a, b) = (a.simplify(), b.simplify());
                match (&a, &b) {
                    (SymExt::Top, _) | (_, SymExt::Top) => SymExt::Top,
                    (SymExt::Const(x), SymExt::Const(y)) => {
                        x.checked_add(*y).map_or(SymExt::Top, SymExt::Const)
                    }
                    (SymExt::Const(0), _) => b,
                    (_, SymExt::Const(0)) => a,
                    _ => SymExt::Add(Rc::new(a), Rc::new(b)),
                }
            }
            SymExt::Monus(a, b) => {
                let (a, b) = (a.simplify(), b.simplify());
                match (&a, &b) {
                    (SymExt::Top, _) | (_, SymExt::Top) => SymExt::Top,
                    (SymExt::Const(x), SymExt::Const(y)) => SymExt::Const(x.saturating_sub(*y)),
                    (_, SymExt::Const(0)) => a,
                    _ if a == b => SymExt::Const(0),
                    _ => SymExt::Monus(Rc::new(a), Rc::new(b)),
                }
            }
            SymExt::Mul(a, b) => {
                let (a, b) = (a.simplify(), b.simplify());
                match (&a, &b) {
                    (SymExt::Top, _) | (_, SymExt::Top) => SymExt::Top,
                    (SymExt::Const(x), SymExt::Const(y)) => {
                        x.checked_mul(*y).map_or(SymExt::Top, SymExt::Const)
                    }
                    (SymExt::Const(0), _) | (_, SymExt::Const(0)) => SymExt::Const(0),
                    (SymExt::Const(1), _) => b,
                    (_, SymExt::Const(1)) => a,
                    _ => SymExt::Mul(Rc::new(a), Rc::new(b)),
                }
            }
        }
    }

    /// Widen: simplify, then collapse to `Top` over the size budget.
    pub fn widen(&self) -> SymExt {
        let s = self.simplify();
        if s.size() > WIDEN_BUDGET { SymExt::Top } else { s }
    }

    /// Join two extents: equal terms survive, everything else widens
    /// to `Top` (ranges are the interval domain's job).
    pub fn join(&self, other: &SymExt) -> SymExt {
        let (a, b) = (self.simplify(), other.simplify());
        if a == b { a } else { SymExt::Top }
    }
}

/// Conservative proof of `a ≤ b` over all valuations of the free
/// symbols. `false` means "could not prove", never "false".
pub fn prove_le(a: &SymExt, b: &SymExt) -> bool {
    let (a, b) = (a.simplify(), b.simplify());
    prove_le_simplified(&a, &b)
}

fn prove_le_simplified(a: &SymExt, b: &SymExt) -> bool {
    if a.is_top() || b.is_top() {
        return false;
    }
    if a == b {
        return true;
    }
    match (a, b) {
        (SymExt::Const(x), SymExt::Const(y)) => x <= y,
        // x ∸ k ≤ b whenever x ≤ b.
        (SymExt::Monus(x, _), _) if prove_le_simplified(x, b) => true,
        // a ≤ x + y whenever a ≤ x or a ≤ y (naturals).
        (_, SymExt::Add(x, y)) => prove_le_simplified(a, x) || prove_le_simplified(a, y),
        // c·x ≤ d·x when c ≤ d (and symmetric operand order).
        (SymExt::Mul(c, x), SymExt::Mul(d, y)) if x == y => prove_le_simplified(c, d),
        _ => false,
    }
}

/// Conservative proof of `a < b`. `false` means "could not prove".
pub fn prove_lt(a: &SymExt, b: &SymExt) -> bool {
    let (a, b) = (a.simplify(), b.simplify());
    if a.is_top() || b.is_top() {
        return false;
    }
    match (&a, &b) {
        (SymExt::Const(x), SymExt::Const(y)) => x < y,
        // a < x + k for k ≥ 1 whenever a ≤ x.
        (_, SymExt::Add(x, y)) => {
            (y.as_const().is_some_and(|k| k >= 1) && prove_le_simplified(&a, x))
                || (x.as_const().is_some_and(|k| k >= 1) && prove_le_simplified(&a, y))
        }
        _ => false,
    }
}

impl fmt::Display for SymExt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymExt::Const(n) => write!(f, "{n}"),
            SymExt::Dim { source, axis, .. } => write!(f, "dim({source},{axis})"),
            SymExt::Add(a, b) => write!(f, "({a}+{b})"),
            SymExt::Monus(a, b) => write!(f, "({a}-{b})"),
            SymExt::Mul(a, b) => write!(f, "({a}*{b})"),
            SymExt::Top => write!(f, "?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::expr::name;

    fn dim0(s: &str) -> SymExt {
        SymExt::Dim { source: name(s), binder: 0, axis: 0 }
    }

    #[test]
    fn simplify_folds_and_applies_units() {
        let n = dim0("A");
        let e = SymExt::Add(
            Rc::new(SymExt::Const(0)),
            Rc::new(SymExt::Mul(Rc::new(n.clone()), Rc::new(SymExt::Const(1)))),
        );
        assert_eq!(e.simplify(), n);
        let e = SymExt::Monus(Rc::new(n.clone()), Rc::new(n.clone()));
        assert_eq!(e.simplify(), SymExt::Const(0));
        let e = SymExt::Add(Rc::new(SymExt::Const(2)), Rc::new(SymExt::Const(3)));
        assert_eq!(e.simplify(), SymExt::Const(5));
    }

    #[test]
    fn widening_caps_expression_growth() {
        let mut e = dim0("A");
        for _ in 0..WIDEN_BUDGET {
            e = SymExt::Add(Rc::new(e), Rc::new(dim0("B")));
        }
        assert_eq!(e.widen(), SymExt::Top);
        assert_eq!(dim0("A").widen(), dim0("A"));
    }

    #[test]
    fn join_keeps_equal_terms_only() {
        assert_eq!(dim0("A").join(&dim0("A")), dim0("A"));
        assert_eq!(dim0("A").join(&dim0("B")), SymExt::Top);
    }

    #[test]
    fn symbolic_orderings() {
        let n = dim0("A");
        // n ∸ 1 ≤ n.
        assert!(prove_le(
            &SymExt::Monus(Rc::new(n.clone()), Rc::new(SymExt::Const(1))),
            &n
        ));
        // n ≤ n + 3, and n < n + 3.
        let n3 = SymExt::Add(Rc::new(n.clone()), Rc::new(SymExt::Const(3)));
        assert!(prove_le(&n, &n3));
        assert!(prove_lt(&n, &n3));
        // NOT provable: n ≤ n ∸ 1, n < n.
        assert!(!prove_le(&n, &SymExt::Monus(Rc::new(n.clone()), Rc::new(SymExt::Const(1)))));
        assert!(!prove_lt(&n, &n));
        // Top proves nothing.
        assert!(!prove_le(&SymExt::Top, &SymExt::Top));
    }
}
