//! Abstract values: what the analyzer knows about a term's result.
//!
//! Three cooperating domains meet here: natural numbers carry both an
//! *interval* ([`Iv`], the workspace's one interval type) and
//! *symbolic bounds* ([`SymExt`]); arrays carry symbolic extents per
//! axis; sets and bags carry a cardinality interval (the input to the
//! provably-empty-comprehension lint and the cost model).

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use aql_core::eval::bounds::Iv;
use aql_core::expr::{Expr, Name};
use aql_core::value::Value;

use crate::sym::{prove_le, SymExt};

/// What is known about a natural-number-valued term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NatAbs {
    /// Interval bound on the value.
    pub iv: Iv,
    /// Exact symbolic value, when the term denotes one expression
    /// (e.g. `dim(A,0)`, `n`, `2·n`).
    pub sym: Option<SymExt>,
    /// Strict symbolic upper bound: in every execution where the value
    /// exists, `value < lt`.
    pub lt: Option<SymExt>,
    /// Inclusive symbolic lower bound: `value ≥ ge`.
    pub ge: Option<SymExt>,
}

impl NatAbs {
    /// No information: `[0, ∞)`, no symbolic bounds.
    pub fn top() -> NatAbs {
        NatAbs { iv: Iv::TOP, sym: None, lt: None, ge: None }
    }

    /// A known constant.
    pub fn exact(n: u64) -> NatAbs {
        NatAbs {
            iv: Iv::exact(n),
            sym: Some(SymExt::Const(n)),
            lt: None,
            ge: Some(SymExt::Const(n)),
        }
    }

    /// A term with exact symbolic value `s` (it is its own lower
    /// bound, and its own exclusive bound is `s + 1` — omitted; `sym`
    /// is consulted directly where it is stronger).
    pub fn symbolic(s: SymExt, iv: Iv) -> NatAbs {
        let s = s.widen();
        if s.is_top() {
            return NatAbs { iv, sym: None, lt: None, ge: None };
        }
        NatAbs { iv, sym: Some(s.clone()), lt: None, ge: Some(s) }
    }

    /// The value as an array extent: its exact symbolic value, else the
    /// constant a singleton interval pins it to, else unknown.
    pub fn extent(&self) -> SymExt {
        match (&self.sym, self.iv.hi) {
            (Some(s), _) => s.clone(),
            (None, Some(h)) if h == self.iv.lo => SymExt::Const(h),
            _ => SymExt::Top,
        }
    }

    /// Join (interval hull; symbolic bounds survive only when equal).
    pub fn join(&self, o: &NatAbs) -> NatAbs {
        let keep = |a: &Option<SymExt>, b: &Option<SymExt>| match (a, b) {
            (Some(x), Some(y)) if x == y => Some(x.clone()),
            _ => None,
        };
        NatAbs {
            iv: self.iv.join(o.iv),
            sym: keep(&self.sym, &o.sym),
            lt: keep(&self.lt, &o.lt),
            ge: keep(&self.ge, &o.ge),
        }
    }

    /// Can the analyzer prove `value < ext` in every execution where
    /// the value exists?
    pub fn provably_lt(&self, ext: &SymExt) -> bool {
        if let Some(c) = ext.as_const() {
            if self.iv.hi.is_some_and(|h| h < c) {
                return true;
            }
        }
        if let Some(lt) = &self.lt {
            if prove_le(lt, ext) {
                return true;
            }
        }
        if let Some(s) = &self.sym {
            if crate::sym::prove_lt(s, ext) {
                return true;
            }
        }
        false
    }

    /// Can the analyzer prove `value ≥ ext` (i.e. *never* in range)?
    pub fn provably_ge(&self, ext: &SymExt) -> bool {
        if let Some(c) = ext.as_const() {
            if self.iv.lo >= c {
                return true;
            }
        }
        if let Some(ge) = &self.ge {
            if prove_le(ext, ge) {
                return true;
            }
        }
        false
    }
}

/// Abstract value of a term.
#[derive(Debug, Clone, PartialEq)]
pub enum AbsVal {
    /// Unreachable / always-`⊥`.
    Bot,
    /// No information.
    Top,
    /// A boolean.
    Bool,
    /// A string.
    Str,
    /// A real.
    Real,
    /// A closure (opaque).
    Fun,
    /// A natural with interval and symbolic bounds.
    Nat(NatAbs),
    /// An array: one symbolic extent per axis, plus the element shape.
    Arr {
        /// Extents, outermost axis first.
        exts: Vec<SymExt>,
        /// Element abstraction.
        elem: Rc<AbsVal>,
    },
    /// A tuple, componentwise.
    Tup(Vec<AbsVal>),
    /// A set with element abstraction and cardinality interval.
    Set {
        /// Element abstraction.
        elem: Rc<AbsVal>,
        /// Bound on the number of (distinct) elements.
        card: Iv,
    },
    /// A bag with element abstraction and cardinality interval.
    Bag {
        /// Element abstraction.
        elem: Rc<AbsVal>,
        /// Bound on the number of elements (with multiplicity).
        card: Iv,
    },
}

impl AbsVal {
    /// Least upper bound (structural; mismatched shapes go to `Top`).
    pub fn join(&self, o: &AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, o) {
            (Bot, x) | (x, Bot) => x.clone(),
            (Top, _) | (_, Top) => Top,
            (Bool, Bool) => Bool,
            (Str, Str) => Str,
            (Real, Real) => Real,
            (Fun, Fun) => Fun,
            (Nat(a), Nat(b)) => Nat(a.join(b)),
            (Arr { exts: ea, elem: la }, Arr { exts: eb, elem: lb }) if ea.len() == eb.len() => {
                Arr {
                    exts: ea.iter().zip(eb).map(|(a, b)| a.join(b)).collect(),
                    elem: Rc::new(la.join(lb)),
                }
            }
            (Tup(a), Tup(b)) if a.len() == b.len() => {
                Tup(a.iter().zip(b).map(|(x, y)| x.join(y)).collect())
            }
            (Set { elem: a, card: ca }, Set { elem: b, card: cb }) => {
                Set { elem: Rc::new(a.join(b)), card: ca.join(*cb) }
            }
            (Bag { elem: a, card: ca }, Bag { elem: b, card: cb }) => {
                Bag { elem: Rc::new(a.join(b)), card: ca.join(*cb) }
            }
            _ => Top,
        }
    }

    /// Drop every symbolic fact that mentions a binder numbered `first`
    /// or later (intervals and constants stay). The analyzer applies
    /// this to a value leaving those binders' scope: outside it the
    /// symbol would denote nothing — or, across the iterations of a
    /// loop, several different arrays at once.
    pub fn forget_binders_from(&self, first: u32) -> AbsVal {
        let keep = |s: &Option<SymExt>| s.clone().filter(|s| !s.mentions_binder_from(first));
        match self {
            AbsVal::Nat(n) => AbsVal::Nat(NatAbs {
                iv: n.iv,
                sym: keep(&n.sym),
                lt: keep(&n.lt),
                ge: keep(&n.ge),
            }),
            AbsVal::Arr { exts, elem } => AbsVal::Arr {
                exts: exts
                    .iter()
                    .map(|x| if x.mentions_binder_from(first) { SymExt::Top } else { x.clone() })
                    .collect(),
                elem: Rc::new(elem.forget_binders_from(first)),
            },
            AbsVal::Tup(items) => {
                AbsVal::Tup(items.iter().map(|it| it.forget_binders_from(first)).collect())
            }
            AbsVal::Set { elem, card } => {
                AbsVal::Set { elem: Rc::new(elem.forget_binders_from(first)), card: *card }
            }
            AbsVal::Bag { elem, card } => {
                AbsVal::Bag { elem: Rc::new(elem.forget_binders_from(first)), card: *card }
            }
            _ => self.clone(),
        }
    }

    /// The nat abstraction, if this is (certainly) a natural.
    pub fn as_nat(&self) -> Option<&NatAbs> {
        match self {
            AbsVal::Nat(n) => Some(n),
            _ => None,
        }
    }

    /// Cardinality interval of a set/bag, if known.
    pub fn card(&self) -> Option<Iv> {
        match self {
            AbsVal::Set { card, .. } | AbsVal::Bag { card, .. } => Some(*card),
            _ => None,
        }
    }

    /// Is this collection provably empty?
    pub fn provably_empty(&self) -> bool {
        self.card().is_some_and(|c| c.hi == Some(0))
    }
}

impl std::fmt::Display for AbsVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbsVal::Bot => write!(f, "⊥"),
            AbsVal::Top => write!(f, "?"),
            AbsVal::Bool => write!(f, "bool"),
            AbsVal::Str => write!(f, "string"),
            AbsVal::Real => write!(f, "real"),
            AbsVal::Fun => write!(f, "fun"),
            AbsVal::Nat(n) => {
                write!(f, "nat")?;
                if let Some(s) = &n.sym {
                    write!(f, "={s}")
                } else if let Some(h) = n.iv.hi {
                    write!(f, "[{}..{}]", n.iv.lo, h)
                } else if n.iv.lo > 0 {
                    write!(f, "[{}..]", n.iv.lo)
                } else {
                    Ok(())
                }
            }
            AbsVal::Arr { exts, elem } => {
                write!(f, "array[")?;
                for (j, x) in exts.iter().enumerate() {
                    if j > 0 {
                        write!(f, "×")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "] of {elem}")
            }
            AbsVal::Tup(items) => {
                write!(f, "(")?;
                for (j, it) in items.iter().enumerate() {
                    if j > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{it}")?;
                }
                write!(f, ")")
            }
            AbsVal::Set { elem, card } | AbsVal::Bag { elem, card } => {
                let kw = if matches!(self, AbsVal::Set { .. }) { "set" } else { "bag" };
                write!(f, "{kw}")?;
                if let Some(h) = card.hi {
                    write!(f, "[{}..{}]", card.lo, h)?;
                }
                write!(f, " of {elem}")
            }
        }
    }
}

/// Abstract a concrete session value (the entry point for seeding the
/// analyzer's global environment from `val` bindings). Array extents
/// become constants — a bound array's dimensions are always known.
pub fn absval_of_value(v: &Value) -> AbsVal {
    match v {
        Value::Bool(_) => AbsVal::Bool,
        Value::Nat(n) => AbsVal::Nat(NatAbs::exact(*n)),
        Value::Real(_) => AbsVal::Real,
        Value::Str(_) => AbsVal::Str,
        Value::Tuple(items) => AbsVal::Tup(items.iter().map(absval_of_value).collect()),
        Value::Array(a) => AbsVal::Arr {
            exts: a.dims().iter().map(|&d| SymExt::Const(d)).collect(),
            // Element shape left open: probing a lazy array here would
            // cause I/O during analysis.
            elem: Rc::new(AbsVal::Top),
        },
        Value::Set(s) => AbsVal::Set {
            elem: Rc::new(AbsVal::Top),
            card: Iv::exact(s.len() as u64),
        },
        Value::Bag(b) => AbsVal::Bag {
            elem: Rc::new(AbsVal::Top),
            card: Iv::exact(b.total_len()),
        },
        _ => AbsVal::Top,
    }
}

/// Abstract the bindings of `vals` that `e` mentions: the globals map
/// for analyzing `e` against a session's `val` registry, without
/// abstracting bindings the term cannot see.
pub fn globals_mentioned(e: &Expr, vals: &HashMap<Name, Value>) -> BTreeMap<Name, AbsVal> {
    let mut out = BTreeMap::new();
    e.walk(&mut |node| {
        // A free `Var` falls through to the registry, as in `compile`
        // (a bound one is shadowed by the analyzer's environment).
        if let Expr::Global(n) | Expr::Var(n) = node {
            if let Some(v) = vals.get(n) {
                out.entry(n.clone()).or_insert_with(|| absval_of_value(v));
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::expr::name;

    #[test]
    fn nat_join_hulls_intervals_and_drops_unequal_syms() {
        let a = NatAbs::exact(3);
        let b = NatAbs::exact(7);
        let j = a.join(&b);
        assert_eq!(j.iv, Iv { lo: 3, hi: Some(7) });
        assert_eq!(j.sym, None);
        assert_eq!(a.join(&a), a);
    }

    #[test]
    fn provably_lt_uses_both_domains() {
        // Interval: [0, 4] < 5.
        let a = NatAbs { iv: Iv { lo: 0, hi: Some(4) }, sym: None, lt: None, ge: None };
        assert!(a.provably_lt(&SymExt::Const(5)));
        assert!(!a.provably_lt(&SymExt::Const(4)));
        // Symbolic: value < dim(A,0) vs extent dim(A,0).
        let d = SymExt::Dim { source: name("A"), binder: 0, axis: 0 };
        let b = NatAbs { iv: Iv::TOP, sym: None, lt: Some(d.clone()), ge: None };
        assert!(b.provably_lt(&d));
        assert!(!a.provably_lt(&d));
    }

    #[test]
    fn provably_ge_flags_certain_oob() {
        let d = SymExt::Dim { source: name("A"), binder: 0, axis: 0 };
        // value ≥ dim(A,0) vs extent dim(A,0): always out.
        let a = NatAbs { iv: Iv::TOP, sym: None, lt: None, ge: Some(d.clone()) };
        assert!(a.provably_ge(&d));
        assert!(NatAbs::exact(9).provably_ge(&SymExt::Const(9)));
        assert!(!NatAbs::exact(8).provably_ge(&SymExt::Const(9)));
    }

    #[test]
    fn empty_collections_are_detected() {
        let s = AbsVal::Set { elem: Rc::new(AbsVal::Top), card: Iv::exact(0) };
        assert!(s.provably_empty());
        let s = AbsVal::Set { elem: Rc::new(AbsVal::Top), card: Iv { lo: 0, hi: Some(3) } };
        assert!(!s.provably_empty());
    }
}
