//! The analyzer: one structural walk over a named NRCA term that runs
//! all three abstract domains — symbolic shapes, index intervals, and
//! effect classification — in a single pass.
//!
//! NRCA has no recursion, so no fixpoint iteration is needed: every
//! node is visited exactly once and the walk is linear in term size
//! (widening in [`SymExt`] bounds the size of the symbolic expressions
//! carried along, not the number of iterations).
//!
//! **What an [`AbsVal`] means.** The abstraction describes the *non-`⊥`*
//! outcomes of a term: `⊥` can arise anywhere (out-of-bounds subscript,
//! `get` of a non-singleton, division by zero) and is contained in every
//! abstraction. So "`Nat` in `[0, 4]`" reads "if the term yields a
//! value, it is a natural in `[0, 4]`".
//!
//! Results are keyed by *node address* (`&Expr` identity), so a
//! consumer walking the **same** tree — `compile_marked` taking its
//! elision marks, the lint pass, the `\analyze` report, the cost model
//! — can look up per-site facts without any index bookkeeping.
//!
//! **Binders.** A symbolic fact names an array by its binding (see
//! [`SymExt::Dim`]), and a value leaving a binder's scope forgets every
//! symbol of that binder, so verdicts are invariant under α-renaming
//! and a symbol never stands for two activations of one binder at once.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use aql_core::eval::bounds::{arith_iv, Iv};
use aql_core::expr::{ArithOp, Expr, Name, Prim};

use crate::absval::{AbsVal, NatAbs};
use crate::effect::Effect;
use crate::sym::SymExt;

/// Per-subscript-site verdict of the bounds domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubVerdict {
    /// Every index is provably a natural below the corresponding extent
    /// whenever the site is reached with non-`⊥` indices — *if* the
    /// subscript's arity is the array's rank, which only the evaluator
    /// can check for an array of unknown shape. Issued in per-axis form
    /// only, never for a single tuple-valued index: this is the verdict
    /// the evaluator's elision marks are made of.
    InBounds,
    /// Neither provably in nor provably out.
    Unknown,
    /// Some index is provably `≥` its extent: the subscript yields `⊥`
    /// on every (reachable) evaluation.
    ProvablyOut,
}

/// A rectangular region of a source array touched by a subscript site:
/// one index interval per axis. The cost model intersects these with
/// the source's chunk grid to estimate bytes moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRegion {
    /// The subscripted array's name: a `val` binding or free variable
    /// (sites that subscript a lexically bound array record no region).
    pub source: Name,
    /// Per-axis index interval.
    pub axes: Vec<Iv>,
}

/// Kind of loop nest a kernel classification describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// A tabulation (`[[ … | i < b ]]`): candidate map kernel.
    Map,
    /// A summation (`Σ{ … | x ∈ S }`), or `min!`/`max!` of a
    /// comprehension whose innermost head is a singleton: candidate
    /// reduction kernel.
    Reduce,
}

impl KernelKind {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Map => "map",
            KernelKind::Reduce => "reduction",
        }
    }
}

/// One loop nest classified for fusibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    /// Map or reduction.
    pub kind: KernelKind,
    /// Joined effect of the loop head.
    pub head_effect: Effect,
    /// Can this nest compile to a bulk kernel (head is
    /// pure-elementwise)?
    pub fusible: bool,
    /// Address of the nest's node in the analyzed tree.
    node: usize,
}

impl Kernel {
    /// Truncated rendering of the nest, for reports. `root` is the
    /// tree that was analyzed; only a report ever pays for this.
    pub fn desc(&self, root: &Expr) -> String {
        let mut desc = String::new();
        root.walk(&mut |e| {
            if ptr(e) == self.node && desc.is_empty() {
                desc = describe(e);
            }
        });
        desc
    }
}

/// Tally of subscript-site verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubCounts {
    /// Sites seen.
    pub total: usize,
    /// Provably in bounds.
    pub in_bounds: usize,
    /// Undetermined.
    pub unknown: usize,
    /// Provably out of bounds.
    pub provably_out: usize,
}

/// Everything one analysis run learned.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Abstraction of the whole term's result.
    pub result: AbsVal,
    /// Joined effect of the whole term.
    pub effect: Effect,
    /// Per-`Sub`-node facts, keyed by node address.
    subs: HashMap<usize, SubSite>,
    /// Interval of each tabulation bound and array-literal dimension,
    /// keyed by the bound expression's address.
    bounds: HashMap<usize, Iv>,
    /// Comprehension/sum nodes with provably-empty sources, keyed by
    /// node address; the value names the construct for diagnostics.
    empties: HashMap<usize, &'static str>,
    /// Per-loop-node iteration-count interval (tabulations: product of
    /// bounds; comprehensions and sums: source cardinality).
    loops: HashMap<usize, Iv>,
    /// Source-array regions touched by subscripts.
    pub regions: Vec<AccessRegion>,
    /// Loop nests classified for fusibility, in traversal order.
    pub kernels: Vec<Kernel>,
}

impl Default for Analysis {
    fn default() -> Analysis {
        Analysis {
            result: AbsVal::Top,
            effect: Effect::PureElementwise,
            subs: HashMap::new(),
            bounds: HashMap::new(),
            empties: HashMap::new(),
            loops: HashMap::new(),
            regions: Vec::new(),
            kernels: Vec::new(),
        }
    }
}

/// An axis of a subscript site where both sides are concrete: the
/// index interval and the constant extent it is checked against.
pub type AxisFact = Option<(Iv, u64)>;

/// What the pass recorded at one `Sub` node.
#[derive(Debug, Clone)]
struct SubSite {
    verdict: SubVerdict,
    /// One entry per axis; empty when the array's rank is unknown or
    /// disagrees with the subscript.
    axes: Vec<AxisFact>,
}

impl Analysis {
    /// Verdict recorded for a `Sub` node of the analyzed tree.
    pub fn verdict_of(&self, e: &Expr) -> Option<SubVerdict> {
        self.subs.get(&ptr(e)).map(|s| s.verdict)
    }

    /// Per-axis (index interval, constant extent) pairs recorded for a
    /// `Sub` node (a single tuple-valued index counts one axis per
    /// component).
    pub fn sub_axes(&self, e: &Expr) -> &[AxisFact] {
        self.subs.get(&ptr(e)).map_or(&[], |s| &s.axes)
    }

    /// Interval of a tabulation bound or array-literal dimension
    /// expression of the analyzed tree.
    pub fn bound_interval(&self, bound: &Expr) -> Option<Iv> {
        self.bounds.get(&ptr(bound)).copied()
    }

    /// If `e` is a comprehension/sum whose source is provably empty,
    /// the construct's name.
    pub fn empty_at(&self, e: &Expr) -> Option<&'static str> {
        self.empties.get(&ptr(e)).copied()
    }

    /// Iteration-count interval recorded for a loop node.
    pub fn loop_count(&self, e: &Expr) -> Option<Iv> {
        self.loops.get(&ptr(e)).copied()
    }

    /// Tally the subscript verdicts.
    pub fn sub_counts(&self) -> SubCounts {
        let mut c = SubCounts { total: self.subs.len(), ..SubCounts::default() };
        for s in self.subs.values() {
            match s.verdict {
                SubVerdict::InBounds => c.in_bounds += 1,
                SubVerdict::Unknown => c.unknown += 1,
                SubVerdict::ProvablyOut => c.provably_out += 1,
            }
        }
        c
    }
}

fn ptr(e: &Expr) -> usize {
    e as *const Expr as usize
}

/// Run the analyzer over `e`. `globals` abstracts the session's `val`
/// bindings (see [`crate::absval::absval_of_value`]); pass an empty map
/// for context-free analysis — source extents then stay symbolic
/// (`dim(A,0)`), which is enough for the cross-variable proofs.
pub fn analyze(e: &Expr, globals: &BTreeMap<Name, AbsVal>) -> Analysis {
    let mut a = Analyzer {
        globals,
        env: Vec::new(),
        binders: 0,
        bound_syms: 0,
        last_single: (0, Effect::PureElementwise),
        out: Analysis::default(),
    };
    let (result, effect) = a.go(e);
    a.out.result = result;
    a.out.effect = effect;
    a.out
}

struct Analyzer<'a> {
    globals: &'a BTreeMap<Name, AbsVal>,
    /// Lexical environment: name, binder serial number, abstraction.
    /// Lookup scans from the back (shadowing).
    env: Vec<(Name, u32, AbsVal)>,
    /// Binder occurrences numbered so far (serial numbers start at 1).
    binders: u32,
    /// [`SymExt::Dim`] symbols minted for lexically bound arrays so far.
    bound_syms: usize,
    /// The singleton (`{e}`) visited last, with the effect of its `e`:
    /// for a `min!`/`max!` nest, the innermost head.
    last_single: (usize, Effect),
    out: Analysis,
}

/// Widen and drop `Top` (an absent bound carries the same information).
fn widen_opt(s: SymExt) -> Option<SymExt> {
    let s = s.widen();
    if s.is_top() { None } else { Some(s) }
}

/// A nat abstraction for a known symbolic extent.
fn nat_of_ext(ext: &SymExt) -> AbsVal {
    match ext.as_const() {
        Some(c) => AbsVal::Nat(NatAbs::exact(c)),
        None if ext.is_top() => AbsVal::Nat(NatAbs::top()),
        None => AbsVal::Nat(NatAbs::symbolic(ext.clone(), Iv::TOP)),
    }
}

/// Nat transfer: interval via [`arith_iv`], symbolic bounds per
/// operator (documented inline; each rule is a theorem over naturals
/// restricted to non-`⊥` outcomes, so `div`/`mod` may assume a nonzero
/// divisor).
fn arith_nat(op: ArithOp, a: &NatAbs, b: &NatAbs) -> NatAbs {
    use SymExt::{Add, Const, Monus, Mul};
    let iv = arith_iv(op, a.iv, b.iv);
    let bin = |x: &SymExt, y: &SymExt| -> Option<SymExt> {
        let s = match op {
            ArithOp::Add => Add(Rc::new(x.clone()), Rc::new(y.clone())),
            ArithOp::Monus => Monus(Rc::new(x.clone()), Rc::new(y.clone())),
            ArithOp::Mul => Mul(Rc::new(x.clone()), Rc::new(y.clone())),
            _ => SymExt::Top,
        };
        widen_opt(s)
    };
    let sym = match (&a.sym, &b.sym) {
        (Some(x), Some(y)) => bin(x, y),
        _ => None,
    };
    let add_of = |x: &Option<SymExt>, y: &Option<SymExt>| match (x, y) {
        (Some(x), Some(y)) => widen_opt(Add(Rc::new(x.clone()), Rc::new(y.clone()))),
        _ => None,
    };
    let lt = match op {
        // v1+v2 < s1+lt2 (exact + strict), or < lt1+lt2 (both ≤ bound-1).
        ArithOp::Add => add_of(&a.sym, &b.lt)
            .or_else(|| add_of(&b.sym, &a.lt))
            .or_else(|| add_of(&a.lt, &b.lt)),
        // v1 ∸ v2 ≤ v1 < lt1.
        ArithOp::Monus => a.lt.clone(),
        // v < lt and c ≥ 1 ⇒ v·c ≤ (lt-1)·c < lt·c.
        ArithOp::Mul => {
            let by_const = |v: &NatAbs, k: &NatAbs| match (&v.lt, &k.sym) {
                (Some(lt), Some(Const(c))) if *c >= 1 => {
                    widen_opt(Mul(Rc::new(lt.clone()), Rc::new(Const(*c))))
                }
                _ => None,
            };
            by_const(a, b).or_else(|| by_const(b, a))
        }
        // v1 / v2 ≤ v1 < lt1 (divisor ≥ 1 on the non-⊥ path).
        ArithOp::Div => a.lt.clone(),
        // v1 mod v2 < v2, and v2 = s2 < lt2.
        ArithOp::Mod => b.sym.clone().or_else(|| b.lt.clone()),
    };
    let low = |v: &NatAbs| v.ge.clone().or_else(|| v.sym.clone());
    let ge = match op {
        ArithOp::Add => match (low(a), low(b)) {
            (Some(x), Some(y)) => widen_opt(Add(Rc::new(x), Rc::new(y))),
            _ => None,
        },
        ArithOp::Mul => match (low(a), low(b)) {
            (Some(x), Some(y)) => widen_opt(Mul(Rc::new(x), Rc::new(y))),
            _ => None,
        },
        _ => None,
    };
    NatAbs { iv, sym, lt, ge }
}

impl Analyzer<'_> {
    fn scoped(&mut self, binds: Vec<(Name, AbsVal)>, e: &Expr) -> (AbsVal, Effect) {
        let (depth, first, syms) = (self.env.len(), self.binders + 1, self.bound_syms);
        for (x, v) in binds {
            self.binders += 1;
            self.env.push((x, self.binders, v));
        }
        let (v, eff) = self.go(e);
        self.env.truncate(depth);
        // Only a scope that minted a symbol for a bound array can leak
        // one; everything else skips the walk.
        let v = if self.bound_syms == syms { v } else { v.forget_binders_from(first) };
        (v, eff)
    }

    fn lookup(&self, n: &Name) -> Option<&(Name, u32, AbsVal)> {
        self.env.iter().rev().find(|(x, ..)| x == n)
    }

    /// The subscripted/measured array when it is named syntactically:
    /// its name and which binding of that name is in scope (0: none —
    /// a free variable or a `val`).
    fn source_of(&self, e: &Expr) -> Option<(Name, u32)> {
        match e {
            Expr::Global(n) => Some((n.clone(), 0)),
            Expr::Var(n) => Some((n.clone(), self.lookup(n).map_or(0, |(_, b, _)| *b))),
            _ => None,
        }
    }

    /// Symbolic extents `dim(source, 0..rank)` for an array of unknown
    /// shape — what lets `[[A[i] | i < dim(A)]]` prove in-bounds for
    /// every `A`. The rank is the site's guess, not a fact.
    fn symbolic_dims(&mut self, (source, binder): (Name, u32), rank: usize) -> Vec<SymExt> {
        self.bound_syms += usize::from(binder != 0);
        (0..rank).map(|axis| SymExt::Dim { source: source.clone(), binder, axis }).collect()
    }

    /// `(b + k₁ + … ) ∸ b` is `k₁ + …` whatever `b` is — the one
    /// relational fact an interval cannot carry, and the shape of a
    /// `subseq` extent once its bounds are inlined (`(d·24 + 23 + 1) ∸
    /// d·24`: 24 rows for every `d`, not up to 720). The `kᵢ` must be
    /// literals or variables, whose abstraction is a lookup.
    fn cancelled(&self, op: ArithOp, a: &Expr, b: &Expr) -> Option<NatAbs> {
        fn summands<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
            match e {
                Expr::Arith(ArithOp::Add, x, y) => {
                    summands(x, out);
                    summands(y, out);
                }
                _ => out.push(e),
            }
        }
        if op != ArithOp::Monus {
            return None;
        }
        let mut terms = Vec::new();
        summands(a, &mut terms);
        let at = terms.iter().position(|t| *t == b)?;
        terms.swap_remove(at);
        let mut rest = NatAbs::exact(0);
        for t in terms {
            let k = match t {
                Expr::Nat(n) => NatAbs::exact(*n),
                Expr::Var(x) => self.lookup(x)?.2.as_nat()?.clone(),
                _ => return None,
            };
            rest = arith_nat(ArithOp::Add, &rest, &k);
        }
        Some(rest)
    }

    /// Set/bag element abstraction of an iteration source.
    fn elem_of(sv: &AbsVal) -> AbsVal {
        match sv {
            AbsVal::Set { elem, .. } | AbsVal::Bag { elem, .. } => (**elem).clone(),
            _ => AbsVal::Top,
        }
    }

    /// Shared shape of the four big-union comprehensions.
    #[allow(clippy::too_many_arguments)]
    fn comprehension(
        &mut self,
        node: &Expr,
        head: &Expr,
        var: &Name,
        rank: Option<&Name>,
        src: &Expr,
        bag: bool,
    ) -> (AbsVal, Effect) {
        let (sv, se) = self.go(src);
        let card = sv.card().unwrap_or(Iv::TOP);
        if card.hi == Some(0) {
            let what = if bag { "bag comprehension" } else { "set comprehension" };
            self.out.empties.insert(ptr(node), what);
        }
        self.out.loops.insert(ptr(node), card);
        let mut binds = vec![(var.clone(), Self::elem_of(&sv))];
        if let Some(r) = rank {
            // Ranks count from 1, never past the source cardinality.
            binds.push((
                r.clone(),
                AbsVal::Nat(NatAbs {
                    iv: Iv { lo: 1, hi: card.hi },
                    sym: None,
                    lt: None,
                    ge: Some(SymExt::Const(1)),
                }),
            ));
        }
        let (hv, he) = self.scoped(binds, head);
        let hcard = hv.card().unwrap_or(Iv::TOP);
        let out_card = Iv {
            lo: 0,
            hi: match (card.hi, hcard.hi) {
                (Some(x), Some(y)) => x.checked_mul(y),
                _ => None,
            },
        };
        let elem = Rc::new(Self::elem_of(&hv));
        let out = if bag {
            AbsVal::Bag { elem, card: out_card }
        } else {
            AbsVal::Set { elem, card: out_card }
        };
        (out, se.join(he).join(Effect::Materializing))
    }

    fn go(&mut self, e: &Expr) -> (AbsVal, Effect) {
        use Effect::{External, Materializing, PureElementwise, Reduction};
        match e {
            // A free variable falls through to the `val` registry, as
            // in `compile`.
            Expr::Var(x) => {
                let v = self.lookup(x).map(|(.., v)| v).or_else(|| self.globals.get(x));
                (v.cloned().unwrap_or(AbsVal::Top), PureElementwise)
            }
            Expr::Global(x) => {
                (self.globals.get(x).cloned().unwrap_or(AbsVal::Top), PureElementwise)
            }
            Expr::Ext(_) => (AbsVal::Fun, External),
            Expr::Bool(_) => (AbsVal::Bool, PureElementwise),
            Expr::Nat(n) => (AbsVal::Nat(NatAbs::exact(*n)), PureElementwise),
            Expr::Real(_) => (AbsVal::Real, PureElementwise),
            Expr::Str(_) => (AbsVal::Str, PureElementwise),
            Expr::Bottom => (AbsVal::Bot, PureElementwise),
            Expr::Lam(x, body) => {
                // Unknown argument; the body is still scanned so its
                // subscripts and loops get (conservative) facts.
                let (_, be) = self.scoped(vec![(x.clone(), AbsVal::Top)], body);
                (AbsVal::Fun, be)
            }
            Expr::App(f, a) => {
                if let Expr::Lam(x, body) = f.as_ref() {
                    // β-aware: analyze the body under the argument's
                    // abstraction instead of forgetting it.
                    let (av, ae) = self.go(a);
                    let (bv, be) = self.scoped(vec![(x.clone(), av)], body);
                    (bv, ae.join(be))
                } else {
                    let (_, fe) = self.go(f);
                    let (_, ae) = self.go(a);
                    (AbsVal::Top, fe.join(ae).join(External))
                }
            }
            Expr::Let(x, e1, e2) => {
                let (v1, f1) = self.go(e1);
                let (v2, f2) = self.scoped(vec![(x.clone(), v1)], e2);
                (v2, f1.join(f2))
            }
            Expr::Tuple(items) => {
                let mut eff = PureElementwise;
                let avs = items
                    .iter()
                    .map(|it| {
                        let (v, f) = self.go(it);
                        eff = eff.join(f);
                        v
                    })
                    .collect();
                (AbsVal::Tup(avs), eff)
            }
            Expr::Proj(i, k, inner) => {
                let (v, eff) = self.go(inner);
                let out = match &v {
                    AbsVal::Tup(items) if items.len() == *k && *i >= 1 && *i <= *k => {
                        items[*i - 1].clone()
                    }
                    _ => AbsVal::Top,
                };
                (out, eff)
            }
            Expr::Empty => {
                (AbsVal::Set { elem: Rc::new(AbsVal::Bot), card: Iv::exact(0) }, Materializing)
            }
            Expr::BagEmpty => {
                (AbsVal::Bag { elem: Rc::new(AbsVal::Bot), card: Iv::exact(0) }, Materializing)
            }
            Expr::Single(inner) => {
                let (v, eff) = self.go(inner);
                self.last_single = (ptr(e), eff);
                (
                    AbsVal::Set { elem: Rc::new(v), card: Iv::exact(1) },
                    eff.join(Materializing),
                )
            }
            Expr::BagSingle(inner) => {
                let (v, eff) = self.go(inner);
                (
                    AbsVal::Bag { elem: Rc::new(v), card: Iv::exact(1) },
                    eff.join(Materializing),
                )
            }
            Expr::Union(a, b) => {
                let (av, ae) = self.go(a);
                let (bv, be) = self.go(b);
                let out = match (&av, &bv) {
                    (
                        AbsVal::Set { elem: ea, card: ca },
                        AbsVal::Set { elem: eb, card: cb },
                    ) => AbsVal::Set {
                        elem: Rc::new(ea.join(eb)),
                        card: Iv {
                            // Duplicates can only shrink a set union,
                            // so |A ∪ B| ∈ [max lo, hi_a + hi_b].
                            lo: ca.lo.max(cb.lo),
                            hi: match (ca.hi, cb.hi) {
                                (Some(x), Some(y)) => x.checked_add(y),
                                _ => None,
                            },
                        },
                    },
                    _ => AbsVal::Top,
                };
                (out, ae.join(be).join(Materializing))
            }
            Expr::BagUnion(a, b) => {
                let (av, ae) = self.go(a);
                let (bv, be) = self.go(b);
                let out = match (&av, &bv) {
                    (
                        AbsVal::Bag { elem: ea, card: ca },
                        AbsVal::Bag { elem: eb, card: cb },
                    ) => AbsVal::Bag {
                        elem: Rc::new(ea.join(eb)),
                        // Additive union: cardinalities add exactly.
                        card: Iv {
                            lo: ca.lo.saturating_add(cb.lo),
                            hi: match (ca.hi, cb.hi) {
                                (Some(x), Some(y)) => x.checked_add(y),
                                _ => None,
                            },
                        },
                    },
                    _ => AbsVal::Top,
                };
                (out, ae.join(be).join(Materializing))
            }
            Expr::BigUnion { head, var, src } => {
                self.comprehension(e, head, var, None, src, false)
            }
            Expr::BigUnionRank { head, var, rank, src } => {
                self.comprehension(e, head, var, Some(rank), src, false)
            }
            Expr::BigBagUnion { head, var, src } => {
                self.comprehension(e, head, var, None, src, true)
            }
            Expr::BigBagUnionRank { head, var, rank, src } => {
                self.comprehension(e, head, var, Some(rank), src, true)
            }
            Expr::If(c, t, f) => {
                let (_, ce) = self.go(c);
                let (tv, te) = self.go(t);
                let (fv, fe) = self.go(f);
                // A literal condition selects the live branch (the
                // lints report the dead one); `⊥` kills both.
                let out = match **c {
                    Expr::Bool(true) => tv,
                    Expr::Bool(false) => fv,
                    Expr::Bottom => AbsVal::Bot,
                    _ => tv.join(&fv),
                };
                (out, ce.join(te).join(fe))
            }
            Expr::Cmp(_, a, b) => {
                let (_, ae) = self.go(a);
                let (_, be) = self.go(b);
                (AbsVal::Bool, ae.join(be))
            }
            Expr::Arith(op, a, b) => {
                let (av, ae) = self.go(a);
                let (bv, be) = self.go(b);
                let out = match (av.as_nat(), bv.as_nat()) {
                    (Some(x), Some(y)) => AbsVal::Nat(
                        self.cancelled(*op, a, b).unwrap_or_else(|| arith_nat(*op, x, y)),
                    ),
                    _ => match (&av, &bv) {
                        (AbsVal::Real, AbsVal::Real) => AbsVal::Real,
                        _ => AbsVal::Top,
                    },
                };
                (out, ae.join(be))
            }
            Expr::Gen(inner) => {
                let (v, eff) = self.go(inner);
                let out = match v.as_nat() {
                    Some(nb) => AbsVal::Set {
                        // Elements of gen(b) are exactly 0, …, b-1:
                        // each is < b, symbolically too.
                        elem: Rc::new(AbsVal::Nat(NatAbs {
                            iv: Iv { lo: 0, hi: nb.iv.hi.map(|h| h.saturating_sub(1)) },
                            sym: None,
                            lt: nb.sym.clone().or_else(|| nb.lt.clone()),
                            ge: Some(SymExt::Const(0)),
                        })),
                        card: nb.iv,
                    },
                    None => AbsVal::Set { elem: Rc::new(AbsVal::Top), card: Iv::TOP },
                };
                (out, eff.join(Materializing))
            }
            Expr::Sum { head, var, src } => {
                let (sv, se) = self.go(src);
                let card = sv.card().unwrap_or(Iv::TOP);
                if card.hi == Some(0) {
                    self.out.empties.insert(ptr(e), "sum");
                }
                self.out.loops.insert(ptr(e), card);
                let (hv, he) = self.scoped(vec![(var.clone(), Self::elem_of(&sv))], head);
                self.out.kernels.push(Kernel {
                    kind: KernelKind::Reduce,
                    head_effect: he,
                    fusible: he <= PureElementwise,
                    node: ptr(e),
                });
                let out = match &hv {
                    AbsVal::Nat(nb) => AbsVal::Nat(NatAbs {
                        iv: Iv {
                            lo: card.lo.saturating_mul(nb.iv.lo),
                            hi: match (card.hi, nb.iv.hi) {
                                (Some(x), Some(y)) => x.checked_mul(y),
                                _ => None,
                            },
                        },
                        sym: None,
                        lt: None,
                        ge: None,
                    }),
                    AbsVal::Real => AbsVal::Real,
                    _ => AbsVal::Top,
                };
                (out, se.join(he).join(Reduction))
            }
            Expr::Tab { head, idx } => {
                let mut eff = Materializing;
                let mut exts = Vec::with_capacity(idx.len());
                let mut binds = Vec::with_capacity(idx.len());
                let mut count = Iv::exact(1);
                for (x, b) in idx {
                    let (bv, be) = self.go(b);
                    eff = eff.join(be);
                    let nb = bv.as_nat().cloned().unwrap_or_else(NatAbs::top);
                    self.out.bounds.insert(ptr(b), nb.iv);
                    exts.push(nb.extent());
                    count = arith_iv(ArithOp::Mul, count, nb.iv);
                    // The index runs over 0, …, b-1; when b can be 0
                    // the body is unreachable and the facts hold
                    // vacuously.
                    binds.push((
                        x.clone(),
                        AbsVal::Nat(NatAbs {
                            iv: Iv { lo: 0, hi: nb.iv.hi.map(|h| h.saturating_sub(1)) },
                            sym: None,
                            lt: nb.sym.clone().or_else(|| nb.lt.clone()),
                            ge: Some(SymExt::Const(0)),
                        }),
                    ));
                }
                self.out.loops.insert(ptr(e), count);
                let (hv, he) = self.scoped(binds, head);
                self.out.kernels.push(Kernel {
                    kind: KernelKind::Map,
                    head_effect: he,
                    fusible: he <= PureElementwise,
                    node: ptr(e),
                });
                (AbsVal::Arr { exts, elem: Rc::new(hv) }, eff.join(he))
            }
            Expr::Sub(arr, idx) => {
                let (av, mut eff) = self.go(arr);
                let mut iavs = Vec::with_capacity(idx.len());
                for i in idx {
                    let (v, ie) = self.go(i);
                    eff = eff.join(ie);
                    iavs.push(v);
                }
                // A single tuple-valued index addresses each axis, but
                // through `as_index`, not per-axis `as_nat`: such a
                // site can be proven *out*, never marked in.
                let (axes, vector) = match iavs.as_slice() {
                    [AbsVal::Tup(items)] => (items.as_slice(), true),
                    all => (all, false),
                };
                // Extents to check against: the array's inferred shape
                // when known; otherwise, for a *named* array, symbolic.
                let source = self.source_of(arr);
                let symbolic;
                let exts: Option<&[SymExt]> = match (&av, &source) {
                    (AbsVal::Arr { exts, .. }, _) => {
                        (exts.len() == axes.len()).then_some(exts.as_slice())
                    }
                    (_, Some(src)) => {
                        symbolic = self.symbolic_dims(src.clone(), axes.len());
                        Some(symbolic.as_slice())
                    }
                    _ => None,
                };
                let nats = || axes.iter().map(AbsVal::as_nat);
                let mut site = SubSite { verdict: SubVerdict::Unknown, axes: Vec::new() };
                if let Some(es) = exts {
                    let on_axes = || nats().zip(es);
                    if !vector && on_axes().all(|(n, x)| n.is_some_and(|n| n.provably_lt(x))) {
                        site.verdict = SubVerdict::InBounds;
                    } else if on_axes().any(|(n, x)| n.is_some_and(|n| n.provably_ge(x))) {
                        site.verdict = SubVerdict::ProvablyOut;
                    }
                    site.axes = on_axes().map(|(n, x)| Some((n?.iv, x.as_const()?))).collect();
                }
                let verdict = site.verdict;
                self.out.subs.insert(ptr(e), site);
                if let (Some((source, 0)), false) = (source, vector) {
                    if let Some(axes) = nats().map(|n| Some(n?.iv)).collect() {
                        self.out.regions.push(AccessRegion { source, axes });
                    }
                }
                let elem = match &av {
                    // Every reachable evaluation yields `⊥`.
                    _ if verdict == SubVerdict::ProvablyOut => AbsVal::Bot,
                    AbsVal::Arr { elem, .. } => (**elem).clone(),
                    _ => AbsVal::Top,
                };
                (elem, eff)
            }
            Expr::Dim(k, inner) => {
                let (v, eff) = self.go(inner);
                let exts: Option<Vec<SymExt>> = match &v {
                    AbsVal::Arr { exts, .. } => {
                        (exts.len() == *k).then(|| exts.clone())
                    }
                    _ => self.source_of(inner).map(|src| self.symbolic_dims(src, *k)),
                };
                let out = match (exts, *k) {
                    (Some(es), 1) => nat_of_ext(&es[0]),
                    (Some(es), _) => AbsVal::Tup(es.iter().map(nat_of_ext).collect()),
                    (None, 1) => AbsVal::Nat(NatAbs::top()),
                    (None, _) => AbsVal::Top,
                };
                (out, eff)
            }
            Expr::ArrayLit { dims, items } => {
                let mut eff = Materializing;
                let mut exts = Vec::with_capacity(dims.len());
                for d in dims {
                    let (dv, de) = self.go(d);
                    eff = eff.join(de);
                    let nb = dv.as_nat().cloned().unwrap_or_else(NatAbs::top);
                    self.out.bounds.insert(ptr(d), nb.iv);
                    exts.push(nb.extent());
                }
                let mut elem = AbsVal::Bot;
                for it in items {
                    let (iv2, ie) = self.go(it);
                    eff = eff.join(ie);
                    elem = elem.join(&iv2);
                }
                (AbsVal::Arr { exts, elem: Rc::new(elem) }, eff)
            }
            Expr::Index(k, inner) => {
                let (_, eff) = self.go(inner);
                (
                    AbsVal::Arr {
                        exts: vec![SymExt::Top; *k],
                        elem: Rc::new(AbsVal::Set {
                            elem: Rc::new(AbsVal::Top),
                            card: Iv::TOP,
                        }),
                    },
                    eff.join(Materializing),
                )
            }
            Expr::Get(inner) => {
                let (v, eff) = self.go(inner);
                let out = match &v {
                    AbsVal::Set { elem, .. } => (**elem).clone(),
                    _ => AbsVal::Top,
                };
                (out, eff.join(Reduction))
            }
            Expr::Prim(p, args) => {
                let mut eff = Reduction;
                let avs: Vec<AbsVal> = args
                    .iter()
                    .map(|x| {
                        let (v, f) = self.go(x);
                        eff = eff.join(f);
                        v
                    })
                    .collect();
                // `min!`/`max!` of `⋃{ … ⋃{ {h} | … } … | … }` folds `h`
                // over the loops: a reduction nest with head `h`. The
                // singleton is in tail position, so it was visited last.
                if let (Prim::MinSet | Prim::MaxSet, [arg]) = (p, args.as_slice()) {
                    if let Some(single) = singleton_head(arg) {
                        if self.last_single.0 == ptr(single) {
                            let he = self.last_single.1;
                            self.out.kernels.push(Kernel {
                                kind: KernelKind::Reduce,
                                head_effect: he,
                                fusible: he <= PureElementwise,
                                node: ptr(e),
                            });
                        }
                    }
                }
                let out = match p {
                    Prim::Member => AbsVal::Bool,
                    // min/max of a set is one of its elements.
                    Prim::MinSet | Prim::MaxSet => match avs.first() {
                        Some(AbsVal::Set { elem, .. }) => (**elem).clone(),
                        _ => AbsVal::Top,
                    },
                };
                (out, eff)
            }
        }
    }
}

/// The singleton a nest of set comprehensions (with `let`s between the
/// levels, as hoisting leaves them) ends in, if it is one.
fn singleton_head(e: &Expr) -> Option<&Expr> {
    match e {
        Expr::BigUnion { head, .. } => match &**head {
            Expr::Single(_) => Some(head),
            inner => singleton_head(inner),
        },
        Expr::Let(_, _, body) => singleton_head(body),
        _ => None,
    }
}

/// Truncated one-line rendering of a node for reports.
fn describe(e: &Expr) -> String {
    use std::fmt::Write;
    /// Keeps the first 61 characters and then fails the write, so a
    /// large term (this runs on the statement path) is not rendered in
    /// full only to be cut.
    struct Head(String, usize);
    impl Write for Head {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for c in s.chars() {
                if self.1 > 60 {
                    return Err(std::fmt::Error);
                }
                self.0.push(c);
                self.1 += 1;
            }
            Ok(())
        }
    }
    let mut head = Head(String::new(), 0);
    let _ = write!(head, "{e}");
    if head.1 <= 60 {
        head.0
    } else {
        let mut t: String = head.0.chars().take(57).collect();
        t.push('…');
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_core::expr::builder::*;
    use aql_core::expr::name;

    fn run(e: &Expr) -> Analysis {
        analyze(e, &BTreeMap::new())
    }

    /// Find the first `Sub` node along the spine of a test expression.
    fn find_sub(e: &Expr) -> Option<&Expr> {
        match e {
            Expr::Sub(..) => Some(e),
            Expr::Tab { head, .. }
            | Expr::BigUnion { head, .. }
            | Expr::Sum { head, .. } => find_sub(head),
            Expr::Single(x) | Expr::Lam(_, x) => find_sub(x),
            Expr::App(f, a) => find_sub(f).or_else(|| find_sub(a)),
            _ => None,
        }
    }

    fn first_sub(e: &Expr) -> &Expr {
        find_sub(e).expect("expression contains a subscript") // lint-wall: allow (test)
    }

    #[test]
    fn symbolic_self_bound_proves_in_bounds_without_globals() {
        // [[ A[i] | i < dim(A) ]] — in range for EVERY array A.
        let e = tab1("i", dim(1, var("A")), sub(var("A"), vec![var("i")]));
        let a = run(&e);
        assert_eq!(a.verdict_of(first_sub(&e)), Some(SubVerdict::InBounds));
        // Shape: one axis, extent dim(A,0).
        match &a.result {
            AbsVal::Arr { exts, .. } => {
                assert_eq!(exts, &vec![SymExt::Dim { source: name("A"), binder: 0, axis: 0 }]);
            }
            other => panic!("expected array abstraction, got {other:?}"),
        }
    }

    #[test]
    fn cross_variable_offset_is_provably_out() {
        // [[ A[i + dim(A)] | i < dim(A) ]] — every access ≥ dim(A).
        let e = tab1(
            "i",
            dim(1, var("A")),
            sub(var("A"), vec![add(var("i"), dim(1, var("A")))]),
        );
        let a = run(&e);
        assert_eq!(a.verdict_of(first_sub(&e)), Some(SubVerdict::ProvablyOut));
    }

    #[test]
    fn shifted_window_stays_unknown() {
        // [[ A[i + 1] | i < dim(A) ]] — the last access is OOB, but
        // not *provably always*: verdict must be Unknown (L001's
        // territory, not L004's).
        let e = tab1(
            "i",
            dim(1, var("A")),
            sub(var("A"), vec![add(var("i"), nat(1))]),
        );
        let a = run(&e);
        assert_eq!(a.verdict_of(first_sub(&e)), Some(SubVerdict::Unknown));
    }

    #[test]
    fn globals_supply_concrete_extents() {
        let mut g = BTreeMap::new();
        g.insert(
            name("A"),
            AbsVal::Arr {
                exts: vec![SymExt::Const(8)],
                elem: Rc::new(AbsVal::Real),
            },
        );
        let e = tab1("i", nat(8), sub(global("A"), vec![var("i")]));
        let a = analyze(&e, &g);
        assert_eq!(a.verdict_of(first_sub(&e)), Some(SubVerdict::InBounds));
        assert_eq!(a.sub_counts().in_bounds, 1);
        // Element type flows through the subscript into the result.
        match &a.result {
            AbsVal::Arr { elem, .. } => assert_eq!(**elem, AbsVal::Real),
            other => panic!("expected array abstraction, got {other:?}"),
        }
    }

    #[test]
    fn comprehension_over_gen_carries_symbolic_bound() {
        // ⋃{ {A[x]} | x ∈ gen(dim(A)) }.
        let e = big_union(
            "x",
            gen(dim(1, var("A"))),
            single(sub(var("A"), vec![var("x")])),
        );
        let a = run(&e);
        assert_eq!(a.verdict_of(first_sub(&e)), Some(SubVerdict::InBounds));
        assert!(a.result.card().is_some());
    }

    #[test]
    fn empty_sources_are_reported() {
        let e = big_union("x", gen(nat(0)), single(var("x")));
        let a = run(&e);
        assert_eq!(a.empty_at(&e), Some("set comprehension"));
        assert!(a.result.provably_empty());
        let e = sum("x", gen(nat(0)), var("x"));
        let a = run(&e);
        assert_eq!(a.empty_at(&e), Some("sum"));
    }

    #[test]
    fn effects_classify_kernels() {
        // Pure head → fusible map kernel.
        let e = tab1("i", nat(4), mul(var("i"), nat(2)));
        let a = run(&e);
        assert_eq!(a.effect, Effect::Materializing);
        assert_eq!(a.kernels.len(), 1);
        assert!(a.kernels[0].fusible);
        assert_eq!(a.kernels[0].kind, KernelKind::Map);
        // Materializing head → not fusible.
        let e = tab1("i", nat(4), single(var("i")));
        let a = run(&e);
        assert!(!a.kernels[0].fusible, "{:?}", a.kernels);
        // Sum with pure head → fusible reduction.
        let e = sum("x", gen(nat(4)), var("x"));
        let a = run(&e);
        assert_eq!(a.effect, Effect::Reduction.join(Effect::Materializing));
        assert_eq!(a.kernels[0].kind, KernelKind::Reduce);
        assert!(a.kernels[0].fusible);
        // External call poisons everything.
        let e = app(ext("f"), nat(1));
        let a = run(&e);
        assert_eq!(a.effect, Effect::External);
    }

    #[test]
    fn min_max_of_a_singleton_comprehension_is_a_reduction_nest() {
        // max!{ A[x] + y | x ∈ gen(dim A), y ∈ gen 2 }, as it desugars.
        let head = single(add(sub(var("A"), vec![var("x")]), var("y")));
        let e = set_max(big_union(
            "x",
            gen(dim(1, var("A"))),
            big_union("y", gen(nat(2)), head),
        ));
        let a = run(&e);
        assert_eq!(a.kernels.len(), 1, "{:?}", a.kernels);
        assert_eq!(a.kernels[0].kind, KernelKind::Reduce);
        assert!(a.kernels[0].fusible);
        // Described on demand, from the tree.
        assert_eq!(a.kernels[0].desc(&e), describe(&e));
        // The head's effect decides: a materializing head blocks it.
        let e = set_min(big_union("x", gen(nat(3)), single(gen(var("x")))));
        let a = run(&e);
        assert_eq!(a.kernels.len(), 1);
        assert!(!a.kernels[0].fusible);
        // A comprehension that does not end in a singleton is no nest.
        let e = set_max(big_union("x", gen(nat(3)), gen(var("x"))));
        assert!(run(&e).kernels.is_empty());
    }

    #[test]
    fn beta_aware_application_keeps_argument_facts() {
        // (λx. A[x]) 3 over a length-8 global.
        let mut g = BTreeMap::new();
        g.insert(
            name("A"),
            AbsVal::Arr { exts: vec![SymExt::Const(8)], elem: Rc::new(AbsVal::Top) },
        );
        let e = app(lam("x", sub(global("A"), vec![var("x")])), nat(3));
        let a = analyze(&e, &g);
        assert_eq!(a.verdict_of(first_sub(&e)), Some(SubVerdict::InBounds));
    }

    #[test]
    fn an_offset_minus_its_base_is_the_offset() {
        // [[ … | k < ((d·24 + 23) + 1) ∸ d·24 ]] under d < 30: 24 cells
        // for every d, where intervals alone say "up to 720".
        let base = || mul(var("d"), nat(24));
        let inner = tab1("k", monus(add(add(base(), nat(23)), nat(1)), base()), var("k"));
        let e = tab1("d", nat(30), inner);
        let a = run(&e);
        let Expr::Tab { head, .. } = &e else { unreachable!("built above") };
        assert_eq!(a.loop_count(head), Some(Iv::exact(24)));
        // Nothing cancels when the base differs.
        let other = tab1("k", monus(add(base(), nat(24)), mul(var("d"), nat(12))), var("k"));
        let e = tab1("d", nat(30), other);
        let a = run(&e);
        let Expr::Tab { head, .. } = &e else { unreachable!("built above") };
        assert_eq!(a.loop_count(head), Some(Iv { lo: 0, hi: Some(720) }));
    }

    #[test]
    fn sum_and_loop_counts_feed_the_cost_model() {
        let e = tab(
            vec![("i", nat(3)), ("j", nat(5))],
            add(var("i"), var("j")),
        );
        let a = run(&e);
        assert_eq!(a.loop_count(&e), Some(Iv::exact(15)));
        // Result values: i + j ≤ 2 + 4.
        match &a.result {
            AbsVal::Arr { elem, .. } => {
                assert_eq!(elem.as_nat().map(|n| n.iv), Some(Iv { lo: 0, hi: Some(6) }));
            }
            other => panic!("expected array abstraction, got {other:?}"),
        }
        // Access regions record the touched rectangle.
        let e = tab1("t", nat(50), sub(var("T"), vec![add(nat(100), var("t"))]));
        let a = run(&e);
        assert_eq!(a.regions.len(), 1);
        assert_eq!(a.regions[0].source, name("T"));
        assert_eq!(a.regions[0].axes, vec![Iv { lo: 100, hi: Some(149) }]);
    }

    #[test]
    fn kernel_descriptions_are_cut_at_sixty_characters() {
        // Terms rendering to every length around the cut: whole up to
        // 60 characters, otherwise the first 57 and an ellipsis.
        let mut e = var("x");
        for _ in 0..40 {
            let (whole, got) = (e.to_string(), describe(&e));
            if whole.chars().count() <= 60 {
                assert_eq!(got, whole);
            } else {
                let head: String = whole.chars().take(57).collect();
                assert_eq!(got, format!("{head}…"));
            }
            e = add(e, nat(1));
        }
    }
}
