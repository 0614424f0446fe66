//! Bulk kernels: pure loop nests run over unboxed data.
//!
//! [`plan`] recognises, on the compiled form, a *sink* — a tabulation,
//! a `Σ`, or `min!`/`max!` of a comprehension whose innermost head is a
//! singleton — around loops over `gen` sources and tabulation bounds,
//! with scalar `let`s between the levels and a head drawn from one
//! fragment: literals, loop and `let` variables, scalars bound outside
//! the nest, arithmetic, comparison, `if`, nested `Σ` over `gen`,
//! `dim_1`, subscripts of arrays bound outside the nest, tuples of
//! these (a tabulation's cells; a tuple inside a tuple is not planned),
//! and `⊥` as a branch of an `if` — which is what β^p leaves around
//! every fused subscript `check-elim` cannot discharge, so the §1 query's
//! `if g then (T[h+k], RH[h+k], if g' then WS[…] else ⊥) else ⊥` is a
//! head like any other. A nest is planned only when it subscripts
//! something and **every** subscript in it carries the analyzer's
//! in-bounds mark; `compile` marks nothing, so the all-checked
//! [`eval`](super::eval) never runs a kernel. Planning never
//! backtracks: the first node outside the fragment refuses the nest.
//!
//! [`run`] *binds* a plan to an entry — fetches the operand arrays and
//! captured scalars, learns each expression's kind (`nat`, `real`,
//! `bool`, tuple) from them — and runs it over a flat frame of `u64`
//! slots: no environment node, no per-node tick, typed output buffers.
//! A nest entered once per evaluation is bound with its captures as
//! constants. A nest under an interpreted loop or a function body is
//! bound **once per evaluation**: its captures (but a loop's trip count)
//! and its windows' origins are slots written on each entry, and an
//! entry with the same operands, capture kinds and trip counts reruns
//! the bound code (DESIGN.md §17 has the whole re-bind key). **A row is
//! the unit of work.** Every piece of a nest is compiled to one form,
//! row code: a closure that appends the piece's values at `len`
//! consecutive cells of its innermost loop to a typed buffer. One driver
//! (`Frame::grid`) hands each loop's iterations to its head as rows, cut
//! every [`POLL_EVERY`] cells; a tabulation's trailing axes make one row
//! when every load steps through them in row-major order (`coef_k =
//! coef_{k+1} · d_{k+1}`, as `layout::for_each_run` folds runs), so
//! `[[ T[t0+t, i, j] * 1.8 + 32.0 | t, i, j ]]` is one slice read and
//! two loops over a buffer. The elementwise fragment — constants, the
//! row's variable, `Arith`, `Cmp`, tuples (a column per component) and
//! loads with affine indices — runs a row at a time; an `if` runs each
//! run of cells taking one branch as a row of that branch; `let`, a
//! nested `Σ`, a non-affine index and a per-element lazy read run a cell
//! at a time inside their row. Buffers are allocated at bind. A lazy
//! operand is read once per subscript site and entry, as one window (one
//! `read_slab`: one cache lookup per overlapped chunk), when that window
//! has no more cells than the site has executions; otherwise per
//! element, still unboxed. The window is placed per axis at what the
//! index `konst + Σ coef·slot` reaches over the captures and the trip
//! counts known by then, inside the analyzer's interval: when bound, and
//! read into the load's code, in a nest entered once; on each entry,
//! and read into the frame, in a nest bound once per evaluation. A
//! column array is an operand one component at a time: `πᵢ(Z[…])`.
//!
//! **Accounting in closed form.** The planner returns, next to each
//! piece of a nest, what the interpreter charges for evaluating it
//! once ([`Cost`]); a loop charges its head's cost times its trip count
//! on entry, an `if` the cost of the branch taken times the cells taking
//! it, and every loop what `check_elems` checks and counts for the `gen`
//! or tabulation it stands in for. The totals reach the context when the
//! nest completes. `Σ` keeps one accumulator per level, adding in
//! iteration order, so a real sum is the interpreter's bit for bit.
//!
//! **One escape.** A kernel either finishes with exactly the value and
//! the charges the interpreter would have produced, or it returns
//! `None` having changed no counter, and the caller evaluates the
//! nest's ordinary [`CExpr`] instead. Everything the typed loop does
//! not reproduce takes that route: `⊥` — a division by zero, or an
//! `if` taking its `⊥` branch: tabulation, `Σ` and `⋃` are strict, so
//! the sink's value is `⊥` from that cell on, with the charges up to
//! it, which no closed form knows —, `nat` overflow, a real-typed `Σ`
//! over nothing (the interpreter's `0 : nat`), a negative stored
//! integer (a `real` to the interpreter), a boxed operand or a whole
//! cell of a column array, a limit that would be exceeded, a pending
//! deadline or cancellation, a storage failure. The interpreter then
//! reports the error, or the `⊥`, at the point and with the counts it
//! always did; [`KernelStats::escapes`](super::KernelStats::escapes) counts the nest.
//! An entry that escapes leaves its nest's binding for the next entry.

use std::cell::{Cell, RefCell, RefMut};
use std::cmp::Ordering;
use std::iter::repeat_n;
use std::rc::Rc;

use aql_store::{Scalar, ScalarBuf, ScalarKind};

use super::bounds::Iv;
use super::{eval_compiled, holds, real_arith, CExpr, Env, EvalCtx, INTERRUPT_CHECK_MASK};
use crate::expr::{ArithOp, CmpOp, Name, Prim};
use crate::value::array::{checked_product, ArrayData, Column};
use crate::value::{ArrayVal, Value};

/// A scalar known before the nest runs: a literal, or a value captured
/// from outside it.
#[derive(Debug, Clone, Copy)]
enum V {
    N(u64),
    R(f64),
    B(bool),
}

impl V {
    fn of(v: &Value) -> Option<V> {
        match v {
            Value::Nat(n) => Some(V::N(*n)),
            Value::Real(r) => Some(V::R(*r)),
            Value::Bool(b) => Some(V::B(*b)),
            _ => None,
        }
    }

    /// Its kind, and its bits as a frame slot holds them.
    fn bits(self) -> (Ty, u64) {
        match self {
            V::N(n) => (Ty::N, n),
            V::R(r) => (Ty::R, r.to_bits()),
            V::B(b) => (Ty::B, u64::from(b)),
        }
    }
}

/// What the interpreter charges for evaluating a piece of a nest once:
/// node visits and subscripts (every one of them elided).
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    steps: u64,
    subs: u64,
}

impl Cost {
    const NODE: Cost = Cost { steps: 1, subs: 0 };

    fn plus(self, o: Cost) -> Cost {
        Cost { steps: self.steps + o.steps, subs: self.subs + o.subs }
    }
}

/// A scalar expression of a nest. A node's *static* cost — returned
/// next to it by the planner — covers what evaluating it always visits;
/// the branches of an `if` and the iterations of a fold are charged as
/// they run, from the costs stored here.
#[derive(Debug)]
enum P {
    Const(V),
    /// A loop or `let` variable of the nest, by frame slot.
    Slot(usize),
    /// A scalar bound outside the nest, by position in
    /// [`KernelPlan::captures`].
    Cap(usize),
    Arith(ArithOp, Box<P>, Box<P>),
    Cmp(CmpOp, Box<P>, Box<P>),
    /// Condition, then each branch with the cost of taking it.
    If(Box<P>, Box<(P, Cost)>, Box<(P, Cost)>),
    /// Slot, bound expression, body.
    Let(usize, Box<P>, Box<P>),
    /// Subscript site (position in [`KernelPlan::sites`]) and indices.
    Load(usize, Vec<P>),
    /// `dim_1` of an operand (position in [`KernelPlan::operands`]).
    Dim1(usize),
    /// The root loop's trip count, evaluated before the nest is bound.
    Trips,
    Fold(Box<Fold>),
    /// A tuple of scalars: a tabulation's cell, one column a component.
    Tuple(Vec<P>),
    /// `⊥`, as a branch of an `if`. Reaching it is the escape.
    Bottom,
}

/// A loop over `gen!n`. `Sum` is a scalar; `Min`/`Max` only occur as
/// the levels of a `min!`/`max!` sink's comprehension.
#[derive(Debug)]
struct Fold {
    kind: FoldKind,
    n: P,
    slot: usize,
    head: P,
    per_iter: Cost,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FoldKind {
    Sum,
    Min,
    Max,
}

/// A value the nest reads from its surroundings.
#[derive(Debug, PartialEq)]
enum Outer {
    Global(Name),
    /// de-Bruijn index in the environment the nest is evaluated in.
    Env(usize),
}

#[derive(Debug)]
struct Site {
    operand: usize,
    /// The analyzer's index interval per axis.
    axes: Vec<Iv>,
    /// Product of the literal trip counts of the folds around the site,
    /// the root loop excluded (a computed trip count counts 1).
    inner_trips: u64,
    /// For `πᵢ,ₖ(A[…])`, the component read (`i - 1`) and the arity `k`:
    /// a column array's cell is read one column at a time.
    part: Option<(usize, usize)>,
}

/// The sink and its outermost loop. That loop's trip count (the
/// tabulation bounds, the `gen` argument) is any expression at all:
/// [`run`] reads it from the fallback term and evaluates it with the
/// interpreter, and a root fold's `n` is [`P::Trips`].
#[derive(Debug)]
enum Root {
    Tab { head: P, per_cell: Cost },
    /// A [`P::Fold`], and the nodes above its loop: `Σ` and `gen`, or
    /// the primitive, `⋃` and `gen`.
    Fold { kind: FoldKind, nest: P, fixed: u64 },
}

/// A recognised nest, ready to be bound to an environment and run.
#[derive(Debug)]
pub struct KernelPlan {
    root: Root,
    captures: Vec<Outer>,
    operands: Vec<Outer>,
    sites: Vec<Site>,
    slots: usize,
    /// Whether the nest lies under an interpreted loop or a function
    /// body, and so may be entered more than once in an evaluation.
    again: bool,
}

/// The argument of a `gen` loop source.
fn gen_arg(src: &CExpr) -> Option<&CExpr> {
    match src {
        CExpr::Gen(n) => Some(n),
        _ => None,
    }
}

fn extreme_kind(p: Prim) -> Option<FoldKind> {
    match p {
        Prim::MinSet => Some(FoldKind::Min),
        Prim::MaxSet => Some(FoldKind::Max),
        Prim::Member => None,
    }
}

/// Plan `c` as a kernel if it is a sink over a nest of the module's
/// grammar with at least one subscript, all of them marked; `again`
/// says whether it may be entered more than once per evaluation.
pub(super) fn plan(c: &CExpr, again: bool) -> Option<KernelPlan> {
    let mut b = Planner::default();
    let root = match c {
        CExpr::Tab { head, bounds } => {
            let rank = bounds.len();
            let (head, per_cell) = b.expr(head, rank, 1)?;
            b.slots = b.slots.max(rank);
            Root::Tab { head, per_cell }
        }
        CExpr::Sum { head, src } => {
            gen_arg(src)?;
            let (head, per_iter) = b.expr(head, 1, 1)?;
            let kind = FoldKind::Sum;
            let nest = Fold { kind, n: P::Trips, slot: 0, head, per_iter };
            Root::Fold { kind, nest: P::Fold(Box::new(nest)), fixed: 2 }
        }
        CExpr::Prim(p, args) => {
            let kind = extreme_kind(*p)?;
            let [CExpr::BigUnion { head, src }] = args.as_slice() else { return None };
            gen_arg(src)?;
            let (head, per_iter) = b.set_level(kind, head, 1, 1)?;
            let nest = Fold { kind, n: P::Trips, slot: 0, head, per_iter };
            Root::Fold { kind, nest: P::Fold(Box::new(nest)), fixed: 3 }
        }
        _ => return None,
    };
    if b.sites.is_empty() {
        return None;
    }
    Some(KernelPlan {
        root,
        captures: b.captures,
        operands: b.operands,
        sites: b.sites,
        slots: b.slots.max(1),
        again,
    })
}

#[derive(Default)]
struct Planner {
    captures: Vec<Outer>,
    operands: Vec<Outer>,
    sites: Vec<Site>,
    slots: usize,
    /// Planning a tuple's components, where another tuple refuses.
    in_tuple: bool,
}

/// Position of `o` in `list`, appended if new.
fn intern(list: &mut Vec<Outer>, o: Outer) -> usize {
    list.iter().position(|x| *x == o).unwrap_or_else(|| {
        list.push(o);
        list.len() - 1
    })
}

impl Planner {
    /// An array operand: a `val`, or a variable bound outside the nest.
    fn operand(&mut self, arr: &CExpr, depth: usize) -> Option<usize> {
        let o = match arr {
            CExpr::Global(n) => Outer::Global(n.clone()),
            CExpr::Var(i) if *i >= depth => Outer::Env(*i - depth),
            _ => return None,
        };
        Some(intern(&mut self.operands, o))
    }

    fn pair(&mut self, a: &CExpr, b: &CExpr, depth: usize, trips: u64) -> Option<(P, P, Cost)> {
        let (pa, ca) = self.expr(a, depth, trips)?;
        let (pb, cb) = self.expr(b, depth, trips)?;
        Some((pa, pb, Cost::NODE.plus(ca).plus(cb)))
    }

    /// A `gen` loop: its trip count, the slot of its variable, and the
    /// trip product its head runs under.
    fn gen_loop(&mut self, src: &CExpr, depth: usize, trips: u64) -> Option<(P, Cost, u64)> {
        let (n, cn) = self.expr(gen_arg(src)?, depth, trips)?;
        let count = match n {
            P::Const(V::N(k)) => k,
            _ => 1,
        };
        self.slots = self.slots.max(depth + 1);
        // The loop node and its `gen`.
        Some((n, Cost { steps: 2, subs: 0 }.plus(cn), trips.saturating_mul(count)))
    }

    /// Plan each of `items`, adding their static costs to `cost`.
    fn all(
        &mut self,
        items: &[CExpr],
        depth: usize,
        trips: u64,
        mut cost: Cost,
    ) -> Option<(Vec<P>, Cost)> {
        let mut ps = Vec::with_capacity(items.len());
        for it in items {
            let (p, c) = self.expr(it, depth, trips)?;
            cost = cost.plus(c);
            ps.push(p);
        }
        Some((ps, cost))
    }

    /// Plan an expression of the fragment under `depth` nest binders,
    /// executed `trips` times per root iteration; with its static cost.
    fn expr(&mut self, c: &CExpr, depth: usize, trips: u64) -> Option<(P, Cost)> {
        let leaf = |p| Some((p, Cost::NODE));
        match c {
            CExpr::Nat(n) => leaf(P::Const(V::N(*n))),
            CExpr::Real(r) => leaf(P::Const(V::R(*r))),
            CExpr::Bool(b) => leaf(P::Const(V::B(*b))),
            CExpr::Bottom => leaf(P::Bottom),
            CExpr::Var(i) if *i < depth => leaf(P::Slot(depth - 1 - *i)),
            CExpr::Var(i) => leaf(P::Cap(intern(&mut self.captures, Outer::Env(*i - depth)))),
            CExpr::Global(n) => {
                leaf(P::Cap(intern(&mut self.captures, Outer::Global(n.clone()))))
            }
            CExpr::Arith(op, a, b) => {
                let (a, b, cost) = self.pair(a, b, depth, trips)?;
                Some((P::Arith(*op, Box::new(a), Box::new(b)), cost))
            }
            CExpr::Cmp(op, a, b) => {
                let (a, b, cost) = self.pair(a, b, depth, trips)?;
                Some((P::Cmp(*op, Box::new(a), Box::new(b)), cost))
            }
            CExpr::If(c, t, f) => {
                let (c, cc) = self.expr(c, depth, trips)?;
                let t = self.expr(t, depth, trips)?;
                let f = self.expr(f, depth, trips)?;
                Some((P::If(Box::new(c), Box::new(t), Box::new(f)), Cost::NODE.plus(cc)))
            }
            CExpr::Let(bound, body) => {
                let (b, cb) = self.expr(bound, depth, trips)?;
                let (body, cbody) = self.expr(body, depth + 1, trips)?;
                self.slots = self.slots.max(depth + 1);
                Some((P::Let(depth, Box::new(b), Box::new(body)), Cost::NODE.plus(cb).plus(cbody)))
            }
            CExpr::Sum { head, src } => {
                let (n, cost, trips) = self.gen_loop(src, depth, trips)?;
                let (head, per_iter) = self.expr(head, depth + 1, trips)?;
                let fold = Fold { kind: FoldKind::Sum, n, slot: depth, head, per_iter };
                Some((P::Fold(Box::new(fold)), cost))
            }
            CExpr::Sub(arr, idx, Some(axes)) => {
                let operand = self.operand(arr, depth)?;
                // The subscript node and its array expression.
                let (ps, cost) = self.all(idx, depth, trips, Cost { steps: 2, subs: 1 })?;
                let site = Site { operand, axes: axes.clone(), inner_trips: trips, part: None };
                self.sites.push(site);
                Some((P::Load(self.sites.len() - 1, ps), cost))
            }
            // A component of a subscripted cell: the site reads it alone.
            CExpr::Proj(i, k, sub) if matches!(**sub, CExpr::Sub(..)) => {
                let (p, cost) = self.expr(sub, depth, trips)?;
                self.sites.last_mut()?.part = Some((i.checked_sub(1)?, *k));
                Some((p, Cost::NODE.plus(cost)))
            }
            CExpr::Tuple(items) if !self.in_tuple => {
                self.in_tuple = true;
                let (ps, cost) = self.all(items, depth, trips, Cost::NODE)?;
                self.in_tuple = false;
                Some((P::Tuple(ps), cost))
            }
            CExpr::Dim(1, arr) => {
                let operand = self.operand(arr, depth)?;
                Some((P::Dim1(operand), Cost { steps: 2, subs: 0 }))
            }
            // An inner nest planned on the way up: this plan covers it.
            CExpr::Kernel { fallback, .. } => self.expr(fallback, depth, trips),
            _ => None,
        }
    }

    /// One level of a `min!`/`max!` sink's comprehension: a further
    /// `⋃` over `gen`, a `let` around one, or the singleton head.
    fn set_level(
        &mut self,
        kind: FoldKind,
        c: &CExpr,
        depth: usize,
        trips: u64,
    ) -> Option<(P, Cost)> {
        match c {
            CExpr::BigUnion { head, src } => {
                let (n, cost, trips) = self.gen_loop(src, depth, trips)?;
                let (head, per_iter) = self.set_level(kind, head, depth + 1, trips)?;
                Some((P::Fold(Box::new(Fold { kind, n, slot: depth, head, per_iter })), cost))
            }
            CExpr::Let(bound, body) => {
                let (b, cb) = self.expr(bound, depth, trips)?;
                let (body, cbody) = self.set_level(kind, body, depth + 1, trips)?;
                self.slots = self.slots.max(depth + 1);
                Some((P::Let(depth, Box::new(b), Box::new(body)), Cost::NODE.plus(cb).plus(cbody)))
            }
            CExpr::Single(h) => {
                let (p, c) = self.expr(h, depth, trips)?;
                Some((p, Cost::NODE.plus(c)))
            }
            _ => None,
        }
    }
}

/// How often a running kernel looks at the step budget, the deadline
/// and the cancellation flag, in loop iterations; also the longest row.
const POLL_EVERY: u64 = 4096;

/// What an entry mutates — the slots (naturals, or the bits of a real
/// or a boolean) and the charges, committed to the context only when the
/// nest completes — and the operands and windows its loads read.
struct Frame<'c> {
    ctx: &'c EvalCtx<'c>,
    slots: &'c [Cell<u64>],
    arrays: &'c [Rc<ArrayVal>],
    windows: &'c [Window],
    /// The running `min!`/`max!`, as bits.
    best: Cell<Option<u64>>,
    steps: Cell<u64>,
    subs: Cell<u64>,
    /// Iterations entered, all loops together: what the `gen`s and the
    /// tabulation they stand in for count as materialized.
    materialized: Cell<u64>,
    /// Rows handed to heads: telemetry, like the nests and cells.
    rows: Cell<u64>,
    /// Iterations run since the limits were last looked at.
    unpolled: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get().saturating_add(by));
}

impl Frame<'_> {
    fn charge(&self, c: Cost, times: u64) {
        bump(&self.steps, c.steps.saturating_mul(times));
        bump(&self.subs, c.subs.saturating_mul(times));
    }

    /// Escape if the steps charged so far already exceed the budget, or
    /// an interrupt is pending: the interpreter reports either.
    fn poll(&self) -> Option<()> {
        self.unpolled.set(0);
        if self.ctx.steps.get().saturating_add(self.steps.get()) > self.ctx.limits.max_steps {
            return None;
        }
        self.ctx.check_interrupts().ok()
    }

    /// Enter a loop of `n` iterations: what `check_elems(n)` checks and
    /// counts for the `gen` (or tabulation) it stands in for, and the
    /// whole loop's static charge.
    fn enter(&self, n: u64, per_iter: Cost) -> Option<()> {
        if n > self.ctx.limits.max_elems {
            return None;
        }
        bump(&self.materialized, n);
        self.charge(per_iter, n);
        Some(())
    }

    /// The one loop driver: hand `row` the cells of a grid, row-major,
    /// the variables in the slots from `first` on ranging over `dims`.
    /// The axes from `from` on make one row, cut every [`POLL_EVERY`]
    /// cells; the limits are looked at before a row that would take the
    /// iterations since the last look past [`POLL_EVERY`].
    fn grid(&self, first: usize, dims: &[u64], from: usize, mut row: impl FnMut(&Self, u64) -> Option<()>) -> Option<()> {
        let var = |k: usize| self.slots.get(first + k);
        (0..dims.len()).try_for_each(|k| var(k).map(|v| v.set(0)))?;
        if dims.contains(&0) {
            return Some(());
        }
        let len = dims.get(from..)?.iter().product::<u64>();
        'grid: loop {
            let mut first = 0;
            while first < len {
                let n = (len - first).min(POLL_EVERY);
                if self.unpolled.get() + n > POLL_EVERY {
                    self.poll()?;
                }
                bump(&self.unpolled, n);
                bump(&self.rows, 1);
                row(self, n)?;
                first += n;
                // The next row's first cell as indices of the axes a row
                // covers: zeros once the row is done, so that only a row
                // cut short divides.
                let mut at = if first < len { first } else { 0 };
                for k in (from..dims.len()).rev() {
                    let d = *dims.get(k)?;
                    let (i, rest) = if at == 0 { (0, 0) } else { (at % d, at / d) };
                    var(k)?.set(i);
                    at = rest;
                }
            }
            // Row-major increment of the other axes; done when they wrap.
            for k in (0..from).rev() {
                let v = var(k)?;
                if v.get() + 1 < *dims.get(k)? {
                    v.set(v.get() + 1);
                    continue 'grid;
                }
                v.set(0);
            }
            return Some(());
        }
    }

    /// A loop over `gen!n`: `row` over `0, …, n-1` of the variable in
    /// `slot`.
    fn each(&self, n: u64, slot: usize, per_iter: Cost, row: impl FnMut(&Self, u64) -> Option<()>) -> Option<()> {
        self.enter(n, per_iter)?;
        self.grid(slot, &[n], 0, row)
    }

    /// A row a cell at a time: `cell` with the variable in `slot` at
    /// each of the row's values in turn, then back at the first.
    fn cells(&self, slot: usize, len: u64, mut cell: impl FnMut(&Self) -> Option<()>) -> Option<()> {
        let var = self.slots.get(slot)?;
        let first = var.get();
        for i in first..first + len {
            var.set(i);
            cell(self)?;
        }
        var.set(first);
        Some(())
    }

    /// The tabulation sink, once its loop is admitted: the cells of
    /// `dims` by rows (the axes from `from` on making one), into `out`.
    fn fill<B>(&self, dims: &[u64], from: usize, mut out: B, row: impl Fn(&Self, u64, &mut B) -> Option<()>) -> Option<B> {
        self.grid(0, dims, from, |f, len| row(f, len, &mut out)).map(|()| out)
    }
}

/// Row code, the one form a piece of a nest is compiled to: appends its
/// values at `len` cells of its loop, the frame's slots at the first of
/// them, to a buffer; `None` is the escape.
type Op<B> = Box<dyn Fn(&Frame, u64, &mut B) -> Option<()>>;

/// Code run once at the current cell.
type Get<T> = Box<dyn Fn(&Frame) -> Option<T>>;

/// A level of a `min!`/`max!` comprehension, a row at a time.
type Level = Box<dyn Fn(&Frame, u64) -> Option<()>>;

/// An operand: a constant, a capture (read from its slot once a row, as
/// its kind), or code computed a cell at a time (over the loop variable
/// in its slot), kept apart from row code to be read alone.
enum Arg<T> {
    Const(T),
    Slot(usize, fn(u64) -> T),
    Cell(usize, Get<T>),
    Op(Op<Vec<T>>),
}

impl<T: Clone + 'static> Arg<T> {
    /// A constant's or a capture's value: the same at every cell.
    fn fixed(&self, f: &Frame) -> Option<T> {
        match self {
            Arg::Const(c) => Some(c.clone()),
            Arg::Slot(s, of) => Some(of(f.slots.get(*s)?.get())),
            _ => None,
        }
    }

    /// Append the row; a fixed value's is that value `len` times.
    fn run(&self, f: &Frame, len: u64, out: &mut Vec<T>) -> Option<()> {
        match self {
            Arg::Cell(slot, get) => f.cells(*slot, len, |f| {
                out.push(get(f)?);
                Some(())
            })?,
            Arg::Op(op) => op(f, len, out)?,
            fixed => out.extend(repeat_n(fixed.fixed(f)?, len as usize)),
        }
        Some(())
    }

    /// The row, in `buf` (emptied first).
    fn run_in<'b>(&self, buf: &'b RefCell<Vec<T>>, f: &Frame, len: u64) -> Option<RefMut<'b, Vec<T>>> {
        let mut b = buf.try_borrow_mut().ok()?;
        b.clear();
        self.run(f, len, &mut b)?;
        Some(b)
    }

    /// [`Arg::once`], its value mapped by `to`.
    fn once_as<U: 'static>(self, to: fn(T) -> U) -> Get<U> {
        let get = self.once();
        Box::new(move |f| get(f).map(to))
    }

    fn op(self) -> Op<Vec<T>> {
        match self {
            Arg::Op(op) => op,
            arg => Box::new(move |f, len, out| arg.run(f, len, out)),
        }
    }

    /// Read a cell at a time: row code as a row of one, into a buffer.
    fn once(self) -> Get<T> {
        match self {
            Arg::Cell(_, get) => get,
            Arg::Op(_) => {
                let buf = RefCell::new(Vec::with_capacity(1));
                Box::new(move |f| self.run_in(&buf, f, 1)?.first().cloned())
            }
            Arg::Const(c) => Box::new(move |_| Some(c.clone())),
            Arg::Slot(s, of) => Box::new(move |f| Some(of(f.slots.get(s)?.get()))),
        }
    }

    /// A cell at a time over `slot`, each cell after `before`.
    fn per_cell(self, slot: usize, before: impl Fn(&Frame) -> Option<()> + 'static) -> Arg<T> {
        let get = self.once();
        Arg::Cell(slot, Box::new(move |f| before(f).and_then(|()| get(f))))
    }
}

/// A buffer for rows of `cap` cells, allocated at bind; none for a
/// constant, which is never run into one.
fn buffer<T, U>(arg: &Arg<T>, cap: usize) -> RefCell<Vec<U>> {
    RefCell::new(Vec::with_capacity(if matches!(arg, Arg::Const(_)) { 0 } else { cap }))
}

/// `g` over two rows of one kind, in place: `a`'s row is appended to the
/// output and combined there with `b`'s; an overflow or `/ 0` escapes.
fn arith<T: Copy + 'static>(a: Arg<T>, b: Arg<T>, cap: usize, g: impl Fn(T, T) -> Option<T> + 'static) -> Arg<T> {
    if let (Arg::Const(x), Arg::Const(y)) = (&a, &b) {
        if let Some(z) = g(*x, *y) {
            return Arg::Const(z);
        }
    }
    let ys = buffer(&b, cap);
    Arg::Op(Box::new(move |f, len, out| {
        let first = out.len();
        a.run(f, len, out)?;
        let (xs, mut whole) = (out.get_mut(first..)?, true);
        let mut put = |x: &mut T, y: T| match g(*x, y) {
            Some(z) => *x = z,
            None => whole = false,
        };
        match b.fixed(f) {
            Some(y) => xs.iter_mut().for_each(|x| put(x, y)),
            None => xs.iter_mut().zip(b.run_in(&ys, f, len)?.iter()).for_each(|(x, &y)| put(x, y)),
        }
        whole.then_some(())
    }))
}

/// `op` over two rows of one kind, cell by cell.
fn compare<T: Clone + 'static>(op: CmpOp, a: Arg<T>, b: Arg<T>, cap: usize, ord: fn(&T, &T) -> Ordering) -> Arg<bool> {
    let (xs, ys) = (buffer(&a, cap), buffer(&b, cap));
    Arg::Op(Box::new(move |f, len, out| {
        let xs = a.run_in(&xs, f, len)?;
        out.extend(xs.iter().zip(b.run_in(&ys, f, len)?.iter()).map(|(x, y)| holds(op, ord(x, y))));
        Some(())
    }))
}

/// A typed expression, ready to run: a scalar of one of the three
/// kinds, or a tuple — code that appends a row to each of its kinds'
/// columns (a tabulation's cells).
enum Code {
    N(Arg<u64>),
    R(Arg<f64>),
    B(Arg<bool>),
    T(Op<Vec<Column>>, Vec<Ty>),
}

impl Code {
    fn constant(v: V) -> Code {
        match v {
            V::N(n) => Code::N(Arg::Const(n)),
            V::R(r) => Code::R(Arg::Const(r)),
            V::B(b) => Code::B(Arg::Const(b)),
        }
    }

    fn ty(&self) -> Option<Ty> {
        Some(match self {
            Code::N(_) => Ty::N,
            Code::R(_) => Ty::R,
            Code::B(_) => Ty::B,
            Code::T(..) => return None,
        })
    }

    /// `⊥` as code of this kind: reaching it is the escape.
    fn bottom(&self) -> Code {
        match self {
            Code::N(_) => Code::N(Arg::Op(Box::new(|_, _, _| None))),
            Code::R(_) => Code::R(Arg::Op(Box::new(|_, _, _| None))),
            Code::B(_) => Code::B(Arg::Op(Box::new(|_, _, _| None))),
            Code::T(_, kinds) => Code::T(Box::new(|_, _, _| None), kinds.clone()),
        }
    }

    /// A cell at a time over `slot`, each cell after `before`.
    fn per_cell(self, slot: usize, before: impl Fn(&Frame) -> Option<()> + 'static) -> Code {
        match self {
            Code::N(a) => Code::N(a.per_cell(slot, before)),
            Code::R(a) => Code::R(a.per_cell(slot, before)),
            Code::B(a) => Code::B(a.per_cell(slot, before)),
            Code::T(op, kinds) => {
                let cells = move |f: &Frame, len, out: &mut Vec<Column>| {
                    f.cells(slot, len, |f| {
                        before(f)?;
                        op(f, 1, out)
                    })
                };
                Code::T(Box::new(cells), kinds)
            }
        }
    }

    /// Append a scalar's row to its column.
    fn append(&self, f: &Frame, len: u64, col: &mut Column) -> Option<()> {
        match (self, col) {
            (Code::N(a), Column::Nat(c)) => a.run(f, len, c),
            (Code::R(a), Column::F64(c)) => a.run(f, len, c),
            (Code::B(a), Column::Bool(c)) => a.run(f, len, c),
            _ => None,
        }
    }
}

/// The kind of value a slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    N,
    R,
    B,
}

/// An `if` over a row: the condition's row, then each run of cells
/// that take the same branch as a row of that branch, charged for it.
fn branch<B: 'static>(slot: usize, (cond, cap): (Arg<bool>, usize), then: (Op<B>, Cost), other: (Op<B>, Cost)) -> Op<B> {
    let buf = buffer(&cond, cap);
    Box::new(move |f, len, out| {
        let (conds, var) = (cond.run_in(&buf, f, len)?, f.slots.get(slot)?);
        let first = var.get();
        let mut rest = conds.as_slice();
        while let Some(&c) = rest.first() {
            let n = rest.iter().take_while(|&&x| x == c).count();
            let (arm, cost) = if c { &then } else { &other };
            f.charge(*cost, n as u64);
            var.set(first + (conds.len() - rest.len()) as u64);
            arm(f, n as u64, out)?;
            rest = &rest[n..];
        }
        var.set(first);
        Some(())
    })
}

/// `nat` arithmetic; `None` is overflow (a host error) or division by
/// zero (`⊥`) — the interpreter says which.
fn nat_arith(op: ArithOp, x: u64, y: u64) -> Option<u64> {
    match op {
        ArithOp::Add => x.checked_add(y),
        ArithOp::Monus => Some(x.saturating_sub(y)),
        ArithOp::Mul => x.checked_mul(y),
        ArithOp::Div => x.checked_div(y),
        ArithOp::Mod => x.checked_rem(y),
    }
}

/// A `Σ` over `gen!n`, per cell of the loop over `slot`: the head's
/// rows over the loop's own variable added into one accumulator from
/// `zero` — a sum of nothing escapes unless `empty` says it is `zero`.
fn sum_rows<T: Copy + 'static>(
    slot: usize,
    (n, fs, per_iter): (Get<u64>, usize, Cost),
    (head, cap): (Arg<T>, usize),
    (zero, empty): (T, bool),
    add: impl Fn(T, T) -> Option<T> + 'static,
) -> Arg<T> {
    let buf = RefCell::new(Vec::with_capacity(cap));
    Arg::Cell(slot, Box::new(move |f| {
        let n = n(f).filter(|&n| n > 0 || empty)?;
        let mut acc = zero;
        f.each(n, fs, per_iter, |f, len| {
            acc = head.run_in(&buf, f, len)?.iter().try_fold(acc, |acc, &x| add(acc, x))?;
            Some(())
        })?;
        Some(acc)
    }))
}

/// A `min!`/`max!` head's rows: each value kept in the frame's `best`,
/// as `bits`, if nothing is kept yet or it beats what is (`ord`).
fn keep_rows<T: Copy + 'static>(head: Arg<T>, cap: usize, wins: Ordering, bits: impl Fn(T) -> u64 + 'static, ord: impl Fn(T, u64) -> Ordering + 'static) -> Level {
    let buf = RefCell::new(Vec::with_capacity(cap));
    Box::new(move |f, len| {
        for &v in head.run_in(&buf, f, len)?.iter() {
            if f.best.get().is_none_or(|best| ord(v, best) == wins) {
                f.best.set(Some(bits(v)));
            }
        }
        Some(())
    })
}

/// A site's flat offset into its cells: `konst + Σ coef · slot` over
/// the indices of that form (every loop-variable-plus-offset index has
/// it; a capture or a window origin is a slot like a loop variable),
/// with strides folded in, plus `Σ stride · index` over the rest.
struct Offset {
    konst: u64,
    terms: Vec<(usize, u64)>,
    rest: Vec<(Get<u64>, u64)>,
}

impl Offset {
    /// Wrapping arithmetic throughout. It is exact when the mark is
    /// sound: every index is then below its extent, so each of these
    /// non-negative partial sums is below the cell count. And a mark is
    /// never trusted with memory safety: a wrong offset ends in a
    /// `get`, as on the interpreter's marked path.
    fn at(&self, f: &Frame) -> Option<u64> {
        let mut off = self.konst;
        for (slot, coef) in &self.terms {
            off = off.wrapping_add(f.slots.get(*slot)?.get().wrapping_mul(*coef));
        }
        for (index, stride) in &self.rest {
            off = off.wrapping_add(index(f)?.wrapping_mul(*stride));
        }
        Some(off)
    }
}

/// The coefficient of the variable in `slot` in an offset's terms: how
/// far apart the cells of a row over that variable lie.
fn coef(terms: &[(usize, u64)], slot: usize) -> u64 {
    terms.iter().filter(|t| t.0 == slot).fold(0, |c, t| c.wrapping_add(t.1))
}

/// An index as `konst + Σ coef · slot` over `nat` slots.
type Affine = (u64, Vec<(usize, u64)>);

/// Where a load's cells are: a window (by position in the bound nest's
/// windows), or an operand's column (a column array's component `i`).
#[derive(Clone, Copy)]
enum Src {
    Window(usize),
    Column(usize, Option<usize>),
}

/// A window's cells, or a column's.
type Cells<'a> = Result<&'a ScalarBuf, &'a Column>;

/// A scalar a load reads: its slice of a window or of a column.
trait Elem: Sized + 'static {
    fn of(cells: Cells<'_>) -> Option<&[Self]>;
}
impl Elem for f64 {
    fn of(c: Cells<'_>) -> Option<&[f64]> { if let Ok(ScalarBuf::F64(v)) | Err(Column::F64(v)) = c { Some(v) } else { None } }
}
impl Elem for i64 {
    fn of(c: Cells<'_>) -> Option<&[i64]> { if let Ok(ScalarBuf::I64(v)) = c { Some(v) } else { None } }
}
impl Elem for u64 {
    fn of(c: Cells<'_>) -> Option<&[u64]> { if let Err(Column::Nat(v)) = c { Some(v) } else { None } }
}
impl Elem for bool {
    fn of(c: Cells<'_>) -> Option<&[bool]> { if let Ok(ScalarBuf::Bool(v)) | Err(Column::Bool(v)) = c { Some(v) } else { None } }
}

/// Where a load finds its cells on each row: in its own code (a window
/// read when bound), or through the frame (a window read on entry, a
/// column).
trait Source<X>: 'static {
    fn cells<'f>(&'f self, f: &'f Frame) -> Option<&'f [X]>;
}
impl<X: 'static> Source<X> for Vec<X> {
    fn cells<'f>(&'f self, _: &'f Frame) -> Option<&'f [X]> {
        Some(self)
    }
}
impl<X: Elem> Source<X> for Src {
    fn cells<'f>(&'f self, f: &'f Frame) -> Option<&'f [X]> {
        X::of(match *self {
            Src::Window(w) => Ok(&f.windows.get(w)?.cells),
            Src::Column(operand, part) => Err(column(f.arrays.get(operand)?, part)?),
        })
    }
}

/// The column of `a` a site reads: a flat operand's, or component `i`.
fn column(a: &ArrayVal, part: Option<usize>) -> Option<&Column> {
    match (a.array_data(), part) {
        (ArrayData::Flat(c), None) => Some(c),
        (ArrayData::Columns(cols), Some(i)) => cols.get(i),
        _ => None,
    }
}

/// A negative stored integer is a `real` to the interpreter.
fn nat_of(x: &i64) -> Option<u64> {
    u64::try_from(*x).ok()
}

/// Row code reading `src`: the row's first cell at the site's offset,
/// the others `stride` apart, in one slice whose ends are checked.
fn gather<X, T: Clone + Default + 'static>(src: impl Source<X>, at: Offset, stride: u64, conv: impl Fn(&X) -> Option<T> + 'static) -> Arg<T> {
    Arg::Op(Box::new(move |f, len, out| {
        let first = at.at(f)?;
        let last = stride.checked_mul(len - 1)?.checked_add(first)?;
        let cells = src.cells(f)?.get(usize::try_from(first).ok()?..=usize::try_from(last).ok()?)?;
        match stride {
            0 => out.extend(repeat_n(conv(cells.first()?)?, len as usize)),
            1 => push_all(out, cells.iter().map(&conv))?,
            s => push_all(out, cells.iter().step_by(s as usize).map(&conv))?,
        }
        Some(())
    }))
}

/// A lazy operand's site, placed anew on each entry: per axis the
/// index's [`Reach`] (`None`: another form) and the analyzer's interval;
/// the box `(start, count)` placed when bound (`None`: read per
/// element), the slot of its origin as an offset, and the cells read
/// this entry.
struct Window {
    operand: usize,
    axes: Vec<(Option<Reach>, Iv)>,
    most: u64,
    placed: Option<(Vec<u64>, Vec<u64>)>,
    origin: usize,
    cells: ScalarBuf,
}

/// An index `konst + Σ coef·capture + Σ coef·variable` as its constant,
/// its capture terms (by capture) and how far its variables take it
/// over the trip counts known at bind (`None`: not known).
type Reach = (u64, Vec<(usize, u64)>, Option<u64>);

impl Window {
    /// The box `(start, count)` the site reads with the captures `caps`:
    /// per axis what the index reaches, inside the analyzer's interval,
    /// if every such interval is finite, the box lies inside the array
    /// (re-checked here: neither a mark nor a folded index is trusted
    /// with a slab request) and it has no more than `most` cells.
    fn place(&self, caps: &[V], dims: &[u64]) -> Option<(Vec<u64>, Vec<u64>)> {
        let (mut start, mut count, mut cells) = (Vec::new(), Vec::new(), 1u64);
        for ((reach, mark), &d) in self.axes.iter().zip(dims) {
            let reach = reach.as_ref().and_then(|(konst, terms, span)| {
                let lo = terms.iter().try_fold(*konst, |lo, &(k, coef)| match caps.get(k)? {
                    V::N(n) => lo.checked_add(coef.checked_mul(*n)?),
                    _ => None,
                })?;
                Some(Iv { lo, hi: span.and_then(|s| lo.checked_add(s)) })
            });
            let iv = reach.map_or(*mark, |r| r.meet(*mark));
            let n = iv.hi?.checked_sub(iv.lo)?.checked_add(1)?;
            if iv.lo.checked_add(n)? > d {
                return None;
            }
            cells = cells.checked_mul(n)?;
            start.push(iv.lo);
            count.push(n);
        }
        (cells <= self.most).then_some((start, count))
    }
}

/// The row-major offset of a box's first cell in the box's own cells.
fn base(start: &[u64], count: &[u64]) -> u64 {
    start.iter().zip(strides(count)).fold(0u64, |b, (s, k)| b.wrapping_add(s.wrapping_mul(k)))
}

/// Append a row's cells; a `None` among them (a negative stored
/// integer) is the escape.
fn push_all<T: Default>(out: &mut Vec<T>, cells: impl Iterator<Item = Option<T>>) -> Option<()> {
    let mut whole = true;
    out.extend(cells.map(|c| {
        whole &= c.is_some();
        c.unwrap_or_default()
    }));
    whole.then_some(())
}

/// Whether `p` is a further level of a `min!`/`max!` comprehension (a
/// `let` around one included), not its singleton's expression.
fn is_level(kind: FoldKind, p: &P) -> bool {
    match p {
        P::Fold(fold) => fold.kind == kind,
        P::Let(_, _, body) => is_level(kind, body),
        _ => false,
    }
}

/// Binding: types a plan's expressions against the operands and the
/// captures' kinds of one entry, producing [`Code`]. A capture is read
/// from its slot: the code depends on no capture's value.
struct Binder<'a> {
    e: &'a Entry,
    sites: &'a [Site],
    /// The nest's variable slots: the captures' follow.
    nvars: usize,
    /// Whether the nest is entered once (its code is not kept), and
    /// whether a capture is bound by its value (a constant of the code,
    /// recorded in `pinned`) rather than read from its slot: in such a
    /// nest, and in a loop's trip count.
    once: bool,
    inline: bool,
    pinned: Vec<usize>,
    windows: Vec<Window>,
    /// The kind each slot holds where the code being bound can see it,
    /// and — for a loop variable whose trip count is known now — the
    /// largest value it takes (the least is 0).
    vars: Vec<(Ty, Option<u64>)>,
    /// The longest row the row buffers being bound will hold.
    cap: usize,
    /// Whether the code bound runs a cell at a time somewhere or reads a
    /// loop variable, and the offsets of its loads: what [`Binder::collapse`] reads.
    per_cell: bool,
    offsets: Vec<Vec<(usize, u64)>>,
}

impl Binder<'_> {
    /// Capture `k`: its value where the code is bound by value, else its
    /// slot.
    fn capture(&mut self, k: usize) -> Option<Result<V, usize>> {
        let v = *self.e.caps.get(k)?;
        if !self.inline {
            return Some(Err(self.nvars + k));
        }
        self.pinned.push(k);
        Some(Ok(v))
    }

    fn affine(&mut self, p: &P) -> Option<Affine> {
        match p {
            P::Const(V::N(n)) => Some((*n, Vec::new())),
            P::Cap(k) => match (self.capture(*k)?, self.e.caps.get(*k)?) {
                (Ok(V::N(n)), _) => Some((n, Vec::new())),
                (Err(s), V::N(_)) => Some((0, vec![(s, 1)])),
                _ => None,
            },
            P::Slot(s) if matches!(self.vars.get(*s), Some((Ty::N, _))) => Some((0, vec![(*s, 1)])),
            P::Arith(ArithOp::Add, a, b) => {
                let ((ka, mut ta), (kb, tb)) = (self.affine(a)?, self.affine(b)?);
                ta.extend(tb);
                Some((ka.checked_add(kb)?, ta))
            }
            P::Arith(ArithOp::Mul, a, b) => {
                let (scale, (k, mut terms)) = match (self.affine(a)?, self.affine(b)?) {
                    ((c, t), other) | (other, (c, t)) if t.is_empty() => (c, other),
                    _ => return None,
                };
                for (_, coef) in &mut terms {
                    *coef = coef.checked_mul(scale)?;
                }
                Some((k.checked_mul(scale)?, terms))
            }
            _ => None,
        }
    }

    /// What an index of that form reaches as far as the ranges of its
    /// loop variables are known now, its captures apart.
    fn reach(&self, (konst, terms): &Affine) -> Reach {
        let (mut caps, mut span) = (Vec::new(), Some(0u64));
        for &(s, coef) in terms {
            match s.checked_sub(self.nvars) {
                Some(k) => caps.push((k, coef)),
                None => span = span.zip(self.vars.get(s).and_then(|v| v.1)).and_then(|(sp, hi)| sp.checked_add(coef.checked_mul(hi)?)),
            }
        }
        (*konst, caps, span)
    }

    /// A `gen` loop inside the loop over `slot`: its trip count, its
    /// variable entered as a `nat` below it, and its longest row.
    fn loop_of(&mut self, fold: &Fold, slot: usize) -> Option<(Get<u64>, usize)> {
        let inline = std::mem::replace(&mut self.inline, true);
        let n = self.code(&fold.n, slot);
        self.inline = inline;
        let Code::N(n) = n? else { return None };
        let (hi, cap) = match &n {
            Arg::Const(n) => (n.checked_sub(1), (*n).min(POLL_EVERY)),
            _ => (None, POLL_EVERY),
        };
        *self.vars.get_mut(fold.slot)? = (Ty::N, hi);
        Some((n.once(), cap as usize))
    }

    /// Code that sets a `let`'s slot, at the current cell.
    fn bind_let(&mut self, ls: usize, bound: &P, slot: usize) -> Option<Get<()>> {
        let (ty, bits) = match self.code(bound, slot)? {
            Code::N(a) => (Ty::N, a.once()),
            Code::R(a) => (Ty::R, a.once_as(f64::to_bits)),
            Code::B(a) => (Ty::B, a.once_as(u64::from)),
            Code::T(..) => return None,
        };
        *self.vars.get_mut(ls)? = (ty, None);
        Some(Box::new(move |f| bits(f).and_then(|b| f.slots.get(ls).map(|v| v.set(b)))))
    }

    /// `p` as row code over `slot`, the innermost loop around it (see the
    /// module doc for what runs a row at a time).
    fn code(&mut self, p: &P, slot: usize) -> Option<Code> {
        let cap = self.cap;
        Some(match p {
            P::Const(v) => Code::constant(*v),
            P::Cap(k) => match (self.capture(*k)?, self.e.caps.get(*k)?.bits().0) {
                (Ok(v), _) => Code::constant(v),
                (Err(s), Ty::N) => Code::N(Arg::Slot(s, |b| b)),
                (Err(s), Ty::R) => Code::R(Arg::Slot(s, f64::from_bits)),
                (Err(s), Ty::B) => Code::B(Arg::Slot(s, |b| b != 0)),
            },
            P::Trips => Code::constant(V::N(self.e.root_trips)),
            P::Slot(s) => {
                let s = *s;
                self.per_cell = true;
                let bits = move |f: &Frame| Some(f.slots.get(s)?.get());
                match self.vars.get(s)?.0 {
                    Ty::N if s == slot => Code::N(Arg::Op(Box::new(move |f, len, out| {
                        let first = bits(f)?;
                        out.extend(first..first + len);
                        Some(())
                    }))),
                    Ty::N => Code::N(Arg::Cell(slot, Box::new(bits))),
                    Ty::R => Code::R(Arg::Cell(slot, Box::new(move |f| Some(f64::from_bits(bits(f)?))))),
                    Ty::B => Code::B(Arg::Cell(slot, Box::new(move |f| Some(bits(f)? != 0)))),
                }
            }
            P::Arith(op, a, b) => {
                let op = *op;
                match (self.code(a, slot)?, self.code(b, slot)?) {
                    (Code::N(a), Code::N(b)) => Code::N(arith(a, b, cap, move |x, y| nat_arith(op, x, y))),
                    (Code::R(a), Code::R(b)) => Code::R(arith(a, b, cap, move |x, y| Some(real_arith(op, x, y)))),
                    // Only an empty real sum's `0 : nat` mixes kinds.
                    _ => return None,
                }
            }
            P::Cmp(op, a, b) => Code::B(match (self.code(a, slot)?, self.code(b, slot)?) {
                (Code::N(a), Code::N(b)) => compare(*op, a, b, cap, Ord::cmp),
                (Code::R(a), Code::R(b)) => compare(*op, a, b, cap, f64::total_cmp),
                (Code::B(a), Code::B(b)) => compare(*op, a, b, cap, Ord::cmp),
                _ => return None,
            }),
            P::If(c, t, e) => {
                let Code::B(c) = self.code(c, slot)? else { return None };
                self.per_cell = true;
                // A tabulation, a `Σ` and a `⋃` are strict: the sink's
                // value is `⊥` from the first cell taking a `⊥` branch on.
                let mut arm = |p: &P| if matches!(p, P::Bottom) { Some(None) } else { self.code(p, slot).map(Some) };
                let (x, y) = match (arm(&t.0)?, arm(&e.0)?) {
                    (Some(x), Some(y)) => (x, y),
                    (Some(x), None) => {
                        let y = x.bottom();
                        (x, y)
                    }
                    (None, Some(y)) => (y.bottom(), y),
                    (None, None) => return None,
                };
                let c = (c, cap);
                match (x, y) {
                    (Code::N(x), Code::N(y)) => Code::N(Arg::Op(branch(slot, c, (x.op(), t.1), (y.op(), e.1)))),
                    (Code::R(x), Code::R(y)) => Code::R(Arg::Op(branch(slot, c, (x.op(), t.1), (y.op(), e.1)))),
                    (Code::B(x), Code::B(y)) => Code::B(Arg::Op(branch(slot, c, (x.op(), t.1), (y.op(), e.1)))),
                    (Code::T(x, kinds), Code::T(y, other)) if kinds == other => {
                        Code::T(branch(slot, c, (x, t.1), (y, e.1)), kinds)
                    }
                    // Two kinds.
                    _ => return None,
                }
            }
            P::Let(ls, bound, body) => {
                let set = self.bind_let(*ls, bound, slot)?;
                self.per_cell = true;
                self.code(body, slot)?.per_cell(slot, set)
            }
            P::Load(site, idx) => self.load(*site, idx, slot)?,
            P::Dim1(operand) => match self.e.arrays.get(*operand)?.dims() {
                [d] => Code::constant(V::N(*d)),
                _ => return None,
            },
            P::Tuple(items) => {
                let parts = items.iter().map(|p| self.code(p, slot)).collect::<Option<Vec<_>>>()?;
                let kinds = parts.iter().map(Code::ty).collect::<Option<Vec<_>>>()?;
                let write = move |f: &Frame, len, cols: &mut Vec<Column>| {
                    cols.iter_mut().zip(&parts).try_for_each(|(col, part)| part.append(f, len, col))
                };
                Code::T(Box::new(write), kinds)
            }
            P::Fold(fold) if fold.kind == FoldKind::Sum => {
                let (n, cap) = self.loop_of(fold, slot)?;
                let loop_ = (n, fold.slot, fold.per_iter);
                self.per_cell = true;
                match self.head(&fold.head, fold.slot, cap)? {
                    Code::N(h) => Code::N(sum_rows(slot, loop_, (h, cap), (0, true), u64::checked_add)),
                    // A real sum of nothing is the interpreter's `0 : nat`.
                    Code::R(h) => Code::R(sum_rows(slot, loop_, (h, cap), (0.0, false), |acc, x| Some(acc + x))),
                    Code::B(_) | Code::T(..) => return None,
                }
            }
            // Set levels are bound by `level`; a `⊥` no `if` types.
            P::Fold(_) | P::Bottom => return None,
        })
    }

    /// A loop's head, its buffers sized for rows of `cap`.
    fn head(&mut self, head: &P, slot: usize, cap: usize) -> Option<Code> {
        let outer = std::mem::replace(&mut self.cap, cap);
        let code = self.code(head, slot);
        self.cap = outer;
        code
    }

    /// The first of the tabulation axes `dims` a row covers: the last,
    /// and before it each axis that every load of a head run a row at a
    /// time steps through in row-major order (`coef_k = coef_{k+1} · d_{k+1}`).
    fn collapse(&self, dims: &[u64]) -> usize {
        let mut from = dims.len().saturating_sub(1);
        let steps = |terms: &Vec<(usize, u64)>, k: usize| {
            let outer = dims.get(k).and_then(|&d| coef(terms, k).checked_mul(d));
            outer == Some(coef(terms, k - 1))
        };
        while !self.per_cell && from > 0 && self.offsets.iter().all(|terms| steps(terms, from)) {
            from -= 1;
        }
        from
    }

    /// A subscript site as row code: one strided read of a column or a
    /// window; a cell at a time for a lazy read per element or an index of another form.
    fn load(&mut self, site: usize, idx: &[P], slot: usize) -> Option<Code> {
        let (sites, e) = (self.sites, self.e);
        let (s, caps) = (sites.get(site)?, &e.caps);
        let a = e.arrays.get(s.operand)?;
        let forms: Vec<Option<Affine>> = idx.iter().map(|p| self.affine(p)).collect();
        // A lazy operand is read as one window where that pays: the
        // box this entry's indices span has no more cells than the site
        // has executions. Per axis the box is the index's reach (known
        // now: captures, trip counts) inside the analyzer's interval
        // (sound over the whole statement, so never narrower than needed).
        // The binding keeps the box's shape; each entry places it anew.
        let lazy = match (a.array_data(), s.part) {
            (ArrayData::Lazy(l), None) => {
                let axes = forms.iter().zip(&s.axes).map(|(form, mark)| (form.as_ref().map(|f| self.reach(f)), *mark));
                let most = e.root_trips.saturating_mul(s.inner_trips);
                let origin = self.nvars + caps.len() + site;
                let cells = ScalarBuf::empty(l.borrow().kind());
                let mut w = Window { operand: s.operand, axes: axes.collect(), most, placed: None, origin, cells };
                w.placed = w.place(caps, a.dims());
                Some((l, w))
            }
            (ArrayData::Flat(_), None) | (ArrayData::Columns(_), Some(_)) => None,
            _ => return None,
        };
        // Row-major strides of what is read (the operand, or the window),
        // and the window's origin: a constant in a nest entered once, else
        // an offset written on each entry.
        let placed = lazy.as_ref().and_then(|(_, w)| Some((w.placed.as_ref()?, w)));
        let shape = placed.map(|((_, count), _)| count.as_slice());
        let mut at = Offset { konst: 0, terms: Vec::new(), rest: Vec::new() };
        match placed {
            Some(((start, count), _)) if self.once => at.konst = 0u64.wrapping_sub(base(start, count)),
            Some((_, w)) => at.terms.push((w.origin, 1)),
            None => {}
        }
        for ((p, form), &stride) in idx.iter().zip(forms).zip(&strides(shape.unwrap_or(a.dims()))) {
            match form {
                Some((konst, terms)) => {
                    at.konst = at.konst.wrapping_add(konst.wrapping_mul(stride));
                    at.terms.extend(terms.iter().map(|(s, c)| (*s, c.wrapping_mul(stride))));
                }
                None => match self.code(p, slot)? {
                    Code::N(index) => at.rest.push((index.once(), stride)),
                    _ => return None,
                },
            }
        }
        let (stride, strided) = (coef(&at.terms, slot), at.rest.is_empty());
        self.offsets.push(at.terms.clone());
        self.per_cell |= !strided;
        let part = s.part.map(|(i, _)| i);
        let code = match (lazy, column(a, part)) {
            // A nest entered once reads its window now, into its code.
            (Some((l, Window { placed: Some((start, count)), .. })), _) if self.once => match l.borrow_mut().read_slab(&start, &count).ok()? {
                ScalarBuf::F64(v) => Code::R(gather(v, at, stride, |x| Some(*x))),
                ScalarBuf::I64(v) => Code::N(gather(v, at, stride, nat_of)),
                ScalarBuf::Bool(v) => Code::B(gather(v, at, stride, |x| Some(*x))),
            },
            (Some((l, w)), _) if w.placed.is_some() => {
                let (src, kind) = (Src::Window(self.windows.len()), l.borrow().kind());
                self.windows.push(w);
                match kind {
                    ScalarKind::F64 => Code::R(gather::<f64, _>(src, at, stride, |x| Some(*x))),
                    ScalarKind::I64 => Code::N(gather::<i64, _>(src, at, stride, nat_of)),
                    ScalarKind::Bool => Code::B(gather::<bool, _>(src, at, stride, |x| Some(*x))),
                }
            }
            (None, Some(c)) => {
                let src = Src::Column(s.operand, part);
                match c {
                    Column::F64(_) => Code::R(gather::<f64, _>(src, at, stride, |x| Some(*x))),
                    Column::Nat(_) => Code::N(gather::<u64, _>(src, at, stride, |x| Some(*x))),
                    Column::Bool(_) => Code::B(gather::<bool, _>(src, at, stride, |x| Some(*x))),
                }
            }
            (None, None) => return None,
            // No window: one cache lookup per element.
            (Some((l, w)), _) => {
                self.windows.push(w);
                self.per_cell = true;
                let (l, kind) = (Rc::clone(l), l.borrow().kind());
                let get = move |f: &Frame| l.borrow_mut().get_linear(at.at(f)?).ok()?;
                return Some(match kind {
                    ScalarKind::F64 => Code::R(Arg::Cell(slot, Box::new(move |f| if let Scalar::F64(x) = get(f)? { Some(x) } else { None }))),
                    ScalarKind::I64 => Code::N(Arg::Cell(slot, Box::new(move |f| if let Scalar::I64(x) = get(f)? { nat_of(&x) } else { None }))),
                    ScalarKind::Bool => Code::B(Arg::Cell(slot, Box::new(move |f| if let Scalar::Bool(b) = get(f)? { Some(b) } else { None }))),
                });
            }
        };
        Some(if strided { code } else { code.per_cell(slot, |_| Some(())) })
    }

    /// One level of a `min!`/`max!` comprehension inside the loop over
    /// `slot`: code that folds the level's heads into the frame's `best`
    /// under the canonical order, and the kind of those heads.
    fn level(&mut self, kind: FoldKind, p: &P, slot: usize) -> Option<(Get<()>, Ty)> {
        match p {
            P::Fold(fold) if fold.kind == kind => {
                let (n, cap) = self.loop_of(fold, slot)?;
                let (fs, per_iter) = (fold.slot, fold.per_iter);
                let (row, ty) = self.extreme(kind, &fold.head, fs, cap)?;
                Some((Box::new(move |f| f.each(n(f)?, fs, per_iter, &row)), ty))
            }
            P::Let(ls, bound, body) => {
                let set = self.bind_let(*ls, bound, slot)?;
                let (body, ty) = self.level(kind, body, slot)?;
                Some((Box::new(move |f| set(f).and_then(|()| body(f))), ty))
            }
            _ => None,
        }
    }

    /// A level's rows over its variable in `slot`: each iteration's
    /// further level, a cell at a time, or the singleton's values.
    fn extreme(&mut self, kind: FoldKind, head: &P, slot: usize, cap: usize) -> Option<(Level, Ty)> {
        if is_level(kind, head) {
            let (next, ty) = self.level(kind, head, slot)?;
            return Some((Box::new(move |f, len| f.cells(slot, len, &next)), ty));
        }
        let wins = if kind == FoldKind::Max { Ordering::Greater } else { Ordering::Less };
        Some(match self.head(head, slot, cap)? {
            Code::N(h) => (keep_rows(h, cap, wins, |v| v, |v, best| v.cmp(&best)), Ty::N),
            Code::R(h) => (keep_rows(h, cap, wins, f64::to_bits, |v, best| v.total_cmp(&f64::from_bits(best))), Ty::R),
            Code::B(h) => (keep_rows(h, cap, wins, u64::from, |v, best| u64::from(v).cmp(&best)), Ty::B),
            Code::T(..) => return None,
        })
    }
}

fn outer<'a>(o: &Outer, env: &'a Env, ctx: &'a EvalCtx) -> Option<&'a Value> {
    match o {
        Outer::Global(n) => ctx.globals.get(n),
        Outer::Env(i) => env.get(*i).ok(),
    }
}

/// Row-major strides of an extent vector.
fn strides(dims: &[u64]) -> Vec<u64> {
    let mut s = vec![1u64; dims.len()];
    for k in (0..dims.len().saturating_sub(1)).rev() {
        s[k] = s[k + 1].wrapping_mul(dims[k + 1]);
    }
    s
}

/// Run `plan` — the plan of `fallback` — in `env`. `None` is the
/// module's one escape: no counter of `ctx` has changed (but the kernel
/// counts of escapes and binds) and the caller evaluates `fallback`
/// itself.
///
/// A nest an interpreted loop may re-enter is bound once per evaluation.
/// Its code is kept in `ctx`, keyed by the plan, and an entry that
/// [fits](Bound::fits) it re-enters it:
/// the captures and the windows' origins go into their slots and the
/// windows are read again, where binding afresh would rebuild every
/// closure and buffer.
pub(super) fn run(plan: &Rc<KernelPlan>, fallback: &CExpr, env: &Env, ctx: &EvalCtx) -> Option<Value> {
    let saved = ctx.counters();
    let out = entry(plan, fallback, env, ctx).and_then(|entry| {
        // A nest entered once is bound by value and not kept.
        let kept = ctx.kernels.borrow().iter().position(|b| plan.again && Rc::ptr_eq(&b.plan, plan));
        let kept = kept.map(|i| ctx.kernels.borrow_mut().swap_remove(i));
        let mut bound = match kept.filter(|b| b.fits(&entry)) {
            Some(b) => Bound { entry, ..b },
            None => {
                ctx.count_kernel(|k| k.binds += 1);
                bind(plan, entry)?
            }
        };
        // An entry that escapes leaves the binding for the next one.
        let value = bound.run(ctx);
        if plan.again {
            ctx.kernels.borrow_mut().push(bound);
        }
        value
    });
    if out.is_none() {
        // The root's bounds were evaluated by the interpreter, which
        // charged them; the fallback will charge them again.
        ctx.set_counters(saved);
        ctx.count_kernel(|k| k.escapes += 1);
    }
    out
}

/// What an entry of a nest reads: operands, captures, a tabulation's
/// extents, the root's trip count.
struct Entry {
    arrays: Vec<Rc<ArrayVal>>,
    caps: Vec<V>,
    dims: Vec<u64>,
    root_trips: u64,
}

/// The entry of `plan` in `env`, its root's trip count evaluated by the
/// interpreter (which charges it).
fn entry(plan: &KernelPlan, fallback: &CExpr, env: &Env, ctx: &EvalCtx) -> Option<Entry> {
    // Everything that can refuse cheaply comes before the bounds are
    // evaluated, so that a nest of the wrong shape costs no evaluation.
    let mut arrays = Vec::with_capacity(plan.operands.len());
    for o in &plan.operands {
        let Value::Array(a) = outer(o, env, ctx)? else { return None };
        arrays.push(a.clone());
    }
    let caps = plan.captures.iter().map(|o| V::of(outer(o, env, ctx)?)).collect::<Option<_>>()?;
    for s in &plan.sites {
        // A site reads scalars: a flat or lazy operand's, or one
        // component of a column array's tuples. And the marks are
        // conditional on the arity being the rank.
        let a = arrays.get(s.operand)?;
        let scalars = match (a.array_data(), s.part) {
            (ArrayData::Flat(_) | ArrayData::Lazy(_), None) => true,
            (ArrayData::Columns(cols), Some((_, k))) => cols.len() == k,
            _ => false,
        };
        if !scalars || a.rank() != s.axes.len() {
            return None;
        }
    }

    // The root's trip count, by the interpreter (which charges it).
    let nat_of = |c: &CExpr| eval_compiled(c, env, ctx).ok()?.as_nat().ok();
    let (dims, root_trips) = match (&plan.root, fallback) {
        (Root::Tab { .. }, CExpr::Tab { bounds, .. }) => {
            let dims = bounds.iter().map(nat_of).collect::<Option<Vec<u64>>>()?;
            let total = checked_product(&dims).ok()?;
            (dims, total)
        }
        (Root::Fold { kind: FoldKind::Sum, .. }, CExpr::Sum { src, .. }) => {
            (Vec::new(), nat_of(gen_arg(src)?)?)
        }
        (Root::Fold { .. }, CExpr::Prim(_, args)) => match args.as_slice() {
            [CExpr::BigUnion { src, .. }] => (Vec::new(), nat_of(gen_arg(src)?)?),
            _ => return None,
        },
        _ => return None,
    };
    Some(Entry { arrays, caps, dims, root_trips })
}

/// A nest bound to one entry, kept for the next entry of the same
/// evaluation: the plan (held, so that its address is not reused), the
/// entry, the windows, the slots (the nest's variables, the captures, a
/// window origin a site) and the code of the sink.
pub(super) struct Bound {
    plan: Rc<KernelPlan>,
    entry: Entry,
    windows: Vec<Window>,
    /// The captures the code holds by value.
    pinned: Vec<usize>,
    slots: Vec<Cell<u64>>,
    sink: Get<Value>,
}

fn bind(plan: &Rc<KernelPlan>, entry: Entry) -> Option<Bound> {
    // A tabulation's variables range below its extents (a root fold's
    // is entered by `loop_of`, like any other).
    let mut vars = vec![(Ty::N, None); plan.slots];
    for (var, d) in vars.iter_mut().zip(&entry.dims) {
        var.1 = d.checked_sub(1);
    }
    let n = entry.root_trips;
    let (once, inline, pinned) = (!plan.again, !plan.again, Vec::new());
    let mut b = Binder { e: &entry, sites: &plan.sites, nvars: plan.slots, once, inline, pinned, windows: Vec::new(), vars, cap: 0, per_cell: false, offsets: Vec::new() };
    let sink: Get<Value> = match plan.root {
        Root::Tab { ref head, per_cell } => {
            // Rows along the last axis, and the axes before it that every
            // load steps through in row-major order; no code for no cells.
            let slot = entry.dims.len().saturating_sub(1);
            let rows = if n == 0 { None } else { Some(b.head(head, slot, n.min(POLL_EVERY) as usize)?) };
            let (dims, from) = (entry.dims.clone(), b.collapse(&entry.dims));
            Box::new(move |f| {
                // The tabulation node itself, and its loop.
                f.steps.set(1);
                f.enter(n, per_cell)?;
                let cells = n as usize;
                let arr = match &rows {
                    // What the interpreter builds from no cells.
                    None => ArrayVal::new(dims.clone(), Vec::new()),
                    Some(Code::N(h)) => ArrayVal::from_nat(dims.clone(), f.fill(&dims, from, Vec::with_capacity(cells), |f, len, out| h.run(f, len, out))?),
                    Some(Code::R(h)) => ArrayVal::from_f64(dims.clone(), f.fill(&dims, from, Vec::with_capacity(cells), |f, len, out| h.run(f, len, out))?),
                    Some(Code::B(h)) => ArrayVal::from_bool(dims.clone(), f.fill(&dims, from, Vec::with_capacity(cells), |f, len, out| h.run(f, len, out))?),
                    Some(Code::T(h, kinds)) => {
                        let cols = kinds.iter().map(|ty| match ty {
                            Ty::N => Column::Nat(Vec::with_capacity(cells)),
                            Ty::R => Column::F64(Vec::with_capacity(cells)),
                            Ty::B => Column::Bool(Vec::with_capacity(cells)),
                        });
                        ArrayVal::from_columns(dims.clone(), f.fill(&dims, from, cols.collect(), h)?)
                    }
                };
                Some(Value::Array(Rc::new(arr.ok()?)))
            })
        }
        // (A real sum of nothing escapes here as it does inside a nest:
        // the interpreter's answer is `0 : nat`.)
        Root::Fold { kind: FoldKind::Sum, ref nest, fixed } => {
            let sum = match b.code(nest, 0)? {
                Code::N(n) => n.once_as(Value::Nat),
                Code::R(r) => r.once_as(Value::Real),
                _ => return None,
            };
            Box::new(move |f| {
                f.steps.set(fixed);
                sum(f)
            })
        }
        Root::Fold { kind, ref nest, fixed } => {
            let (fold, ty) = b.level(kind, nest, 0)?;
            Box::new(move |f| {
                f.steps.set(fixed);
                fold(f)?;
                Some(match (f.best.get(), ty) {
                    // `min!`/`max!` of the empty set.
                    (None, _) => Value::Bottom,
                    (Some(b), Ty::N) => Value::Nat(b),
                    (Some(b), Ty::R) => Value::Real(f64::from_bits(b)),
                    (Some(b), Ty::B) => Value::Bool(b != 0),
                })
            })
        }
    };
    let (windows, pinned, slots) = (b.windows, b.pinned, vec![Cell::new(0); plan.slots + entry.caps.len() + plan.sites.len()]);
    Some(Bound { plan: Rc::clone(plan), entry, windows, pinned, slots, sink })
}

impl Bound {
    /// Whether the code bound serves `e` as it is: the same operands,
    /// kinds of captures (values, of those it holds), trip counts and
    /// windows' shapes.
    fn fits(&self, e: &Entry) -> bool {
        let old = &self.entry;
        let shape = |w: &Window| {
            let dims = e.arrays.get(w.operand).map_or(&[][..], |a| a.dims());
            w.place(&e.caps, dims).as_ref().map(|(_, count)| count) == w.placed.as_ref().map(|(_, count)| count)
        };
        old.arrays.iter().zip(&e.arrays).all(|(a, b)| Rc::ptr_eq(a, b))
            && old.caps.iter().zip(&e.caps).all(|(a, b)| a.bits().0 == b.bits().0)
            && self.pinned.iter().all(|&k| old.caps.get(k).map(|v| v.bits()) == e.caps.get(k).map(|v| v.bits()))
            && (&old.dims, old.root_trips) == (&e.dims, e.root_trips)
            && self.windows.iter().all(shape)
    }

    /// Run the code on its entry: the captures and the windows' origins
    /// into their slots, the windows read, the sink run and its charges
    /// committed.
    fn run(&mut self, ctx: &EvalCtx) -> Option<Value> {
        let Bound { plan, entry, windows, slots, sink, .. } = self;
        slots.iter().for_each(|s| s.set(0));
        for (s, v) in slots.get(plan.slots..)?.iter().zip(&entry.caps) {
            s.set(v.bits().1);
        }
        for w in windows.iter_mut() {
            let a = entry.arrays.get(w.operand)?;
            let (Some((start, count)), ArrayData::Lazy(l)) = (w.place(&entry.caps, a.dims()), a.array_data()) else { continue };
            w.cells = l.borrow_mut().read_slab(&start, &count).ok()?;
            slots.get(w.origin)?.set(0u64.wrapping_sub(base(&start, &count)));
        }
        let (arrays, best, zero) = (&entry.arrays, Cell::new(None), || Cell::new(0));
        let frame = Frame { ctx, slots, arrays, windows, best, steps: zero(), subs: zero(), materialized: zero(), rows: zero(), unpolled: zero() };
        let value = sink(&frame)?;
        commit(ctx, &frame)?;
        Some(value)
    }
}

/// Commit a completed nest's charges. The interpreter looks at the
/// interrupts whenever its step count crosses a multiple of the check
/// interval; so does this.
fn commit(ctx: &EvalCtx, frame: &Frame) -> Option<()> {
    let before = ctx.steps.get();
    let after = before.checked_add(frame.steps.get()).filter(|&s| s <= ctx.limits.max_steps)?;
    if before / (INTERRUPT_CHECK_MASK + 1) != after / (INTERRUPT_CHECK_MASK + 1) {
        ctx.check_interrupts().ok()?;
    }
    ctx.steps.set(after);
    ctx.subscripts.set(ctx.subscripts.get() + frame.subs.get());
    ctx.elided.set(ctx.elided.get() + frame.subs.get());
    ctx.materialized.set(ctx.materialized.get() + frame.materialized.get());
    let (cells, rows) = (frame.materialized.get(), frame.rows.get());
    ctx.count_kernel(|k| (k.nests, k.cells, k.rows) = (k.nests + 1, k.cells + cells, k.rows + rows));
    Some(())
}

#[cfg(test)]
mod tests {
    //! Every case evaluates a nest twice — marked, so that it runs as a
    //! kernel (or escapes), and through the all-checked interpreter —
    //! and requires the same value or error and the same charges.

    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    use aql_store::{ChunkLayout, Fault, FaultyChunkSource, LazyArray, MemChunkSource};

    use super::*;
    use crate::error::EvalError;
    use crate::eval::bounds::arith_iv;
    use crate::eval::{eval, eval_marked, Limits};
    use crate::expr::builder::*;
    use crate::expr::{name, Expr};
    use crate::prim::Extensions;

    type Vars<'a> = &'a [(&'a str, Iv)];

    fn below(n: u64) -> Iv {
        Iv { lo: 0, hi: n.checked_sub(1) }
    }

    fn span(lo: u64, hi: u64) -> Iv {
        Iv { lo, hi: Some(hi) }
    }

    /// The interval of an index expression given its variables' — the
    /// mark a sound analysis would hand over.
    fn iv(e: &Expr, vars: Vars) -> Iv {
        match e {
            Expr::Nat(n) => Iv::exact(*n),
            Expr::Var(x) => vars.iter().find(|(v, _)| **v == **x).map_or(Iv::TOP, |(_, iv)| *iv),
            Expr::Arith(op, a, b) => arith_iv(*op, iv(a, vars), iv(b, vars)),
            _ => Iv::TOP,
        }
    }

    struct Outcome {
        value: Result<Value, EvalError>,
        steps: u64,
        subscripts: u64,
        elided: u64,
        materialized: u64,
        nests: u64,
        escapes: u64,
        rows: u64,
        lookups: u64,
        binds: u64,
    }

    /// Evaluate `e` with every subscript marked from `vars` (`None`:
    /// unmarked, the reference interpreter).
    fn run(e: &Expr, globals: &HashMap<Name, Value>, limits: &Limits, vars: Option<Vars>) -> Outcome {
        let externals = Extensions::new();
        let ctx = EvalCtx::new(globals, &externals).with_limits(limits.clone());
        let cache = aql_store::stats::global();
        let value = match vars {
            None => eval(e, &ctx),
            Some(vars) => eval_marked(e, &ctx, &|site| match site {
                Expr::Sub(_, idx) => Some(idx.iter().map(|i| iv(i, vars)).collect()),
                _ => None,
            }),
        };
        let (s, io) = (ctx.stats(), aql_store::stats::global().delta_since(&cache));
        Outcome {
            value,
            steps: s.steps,
            subscripts: s.subscripts,
            elided: s.elided,
            materialized: s.materialized,
            nests: ctx.kernel_stats().nests,
            escapes: ctx.kernel_stats().escapes,
            rows: ctx.kernel_stats().rows,
            lookups: io.hits + io.misses,
            binds: ctx.kernel_stats().binds,
        }
    }

    /// The marked evaluation of `e`, having checked it against the
    /// reference: same value or error, same charges.
    fn checked(e: &Expr, globals: &HashMap<Name, Value>, limits: &Limits, vars: Vars) -> Outcome {
        let want = run(e, globals, limits, None);
        let got = run(e, globals, limits, Some(vars));
        assert_eq!(got.value, want.value, "value of {e}");
        // A kernel's reals are the interpreter's bit for bit (`==` on
        // values is the canonical order: -0.0 and 0.0 differ).
        assert_eq!(
            (got.steps, got.subscripts, got.materialized),
            (want.steps, want.subscripts, want.materialized),
            "charges of {e}"
        );
        if got.value.is_ok() {
            assert_eq!(got.elided, got.subscripts, "every site of {e} was marked");
        }
        got
    }

    fn same(e: &Expr, globals: &HashMap<Name, Value>, vars: Vars) -> Outcome {
        checked(e, globals, &Limits::default(), vars)
    }

    fn world(vals: Vec<(&str, Value)>) -> HashMap<Name, Value> {
        vals.into_iter().map(|(n, v)| (name(n), v)).collect()
    }

    fn array(a: Result<ArrayVal, EvalError>) -> Value {
        Value::Array(Rc::new(a.unwrap()))
    }

    fn lazy_over(
        dims: &[u64],
        chunk: &[u64],
        source: Box<dyn aql_store::ChunkSource>,
        kind: ScalarKind,
        budget: u64,
    ) -> Value {
        let layout = ChunkLayout::new(dims.to_vec(), chunk.to_vec()).unwrap();
        array(ArrayVal::lazy(LazyArray::new(layout, kind, source, budget)))
    }

    fn lazy_in(dims: &[u64], chunk: &[u64], buf: ScalarBuf, budget: u64) -> Value {
        let kind = buf.kind();
        let source = Box::new(MemChunkSource::new(dims.to_vec(), buf).unwrap());
        lazy_over(dims, chunk, source, kind, budget)
    }

    fn lazy(dims: &[u64], chunk: &[u64], buf: ScalarBuf) -> Value {
        lazy_in(dims, chunk, buf, 1 << 20)
    }

    /// Lazy behind a cache that holds one chunk.
    fn lazy_cached(dims: &[u64], chunk: &[u64], buf: ScalarBuf) -> Value {
        lazy_in(dims, chunk, buf, chunk.iter().product::<u64>() * 8)
    }

    /// Mixed-sign reals with no two alike.
    fn reals(n: u64) -> Vec<f64> {
        (0..n).map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.25 + i as f64 * 1e-3).collect()
    }

    fn nats(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * 37 % 101).collect()
    }

    fn bools(n: u64) -> Vec<bool> {
        (0..n).map(|i| i * 37 % 101 % 3 == 0).collect()
    }

    /// `A[i, j]` over a 7×5 array, and the ranges of `i` and `j`.
    fn cell() -> Expr {
        sub(global("A"), vec![var("i"), var("j")])
    }

    const IJ: Vars<'static> = &[("i", Iv { lo: 0, hi: Some(6) }), ("j", Iv { lo: 0, hi: Some(4) })];

    /// The four sinks over `\i < 7, \j < 5` with `head` in the middle.
    fn sinks(head: &Expr) -> Vec<Expr> {
        let nest = |inner: fn(Expr) -> Expr, level: fn(&str, Expr, Expr) -> Expr| {
            level("i", gen(nat(7)), level("j", gen(nat(5)), inner(head.clone())))
        };
        vec![
            tab(vec![("i", nat(7)), ("j", nat(5))], head.clone()),
            nest(|h| h, sum),
            set_max(nest(single, big_union)),
            set_min(nest(single, big_union)),
        ]
    }

    #[test]
    fn each_sink_over_each_operand_kind_matches_the_interpreter() {
        let (dims, chunk) = ([7u64, 5], [3u64, 2]);
        let operands = vec![
            ("f64", array(ArrayVal::from_f64(dims.to_vec(), reals(35))), real(0.5)),
            ("nat", array(ArrayVal::from_nat(dims.to_vec(), nats(35))), nat(2)),
            ("lazy f64", lazy(&dims, &chunk, ScalarBuf::F64(reals(35))), real(0.5)),
            (
                "lazy i64",
                lazy(&dims, &chunk, ScalarBuf::I64(nats(35).into_iter().map(|n| n as i64).collect())),
                nat(2),
            ),
        ];
        for (kind, a, k) in operands {
            let lazy = matches!(&a, Value::Array(a) if a.is_lazy());
            let g = world(vec![("A", a)]);
            for e in sinks(&add(mul(cell(), k.clone()), k.clone())) {
                let got = same(&e, &g, IJ);
                assert_eq!(got.nests, 1, "{kind}: {e} ran as a kernel");
                if lazy {
                    // One window, one lookup per chunk it overlaps: all
                    // nine of the 3×3 grid, edge chunks included.
                    assert_eq!(got.lookups, 9, "{kind}: {e}");
                }
            }
        }
        // Booleans: as a tabulation's cells, under `min!`/`max!`, and
        // deciding what a `Σ` adds.
        for a in [
            array(ArrayVal::from_bool(dims.to_vec(), bools(35))),
            lazy(&dims, &chunk, ScalarBuf::Bool(bools(35))),
        ] {
            let g = world(vec![("A", a)]);
            let [map, _, max, min] = <[Expr; 4]>::try_from(sinks(&cell())).unwrap();
            let [_, count, ..] = <[Expr; 4]>::try_from(sinks(&iff(cell(), nat(1), nat(0)))).unwrap();
            for e in [map, max, min, count] {
                assert_eq!(same(&e, &g, IJ).nests, 1, "{e}");
            }
        }
    }

    /// A statement and the ranges of its variables.
    type Marked = (Expr, Vec<(&'static str, Iv)>);

    /// A 40×5×5 `temp`-like array in 7-row chunks, and the four
    /// `warm_scan` statements as the optimizer leaves them (windows of
    /// 20 rows from row 3; hoisted `let`s between the loop levels).
    fn warm_scan() -> (HashMap<Name, Value>, Vec<Marked>) {
        let g = world(vec![("T", lazy(&[40, 5, 5], &[7, 5, 5], ScalarBuf::F64(reals(1000))))]);
        let site = || sub(global("T"), vec![var("h0"), var("i"), var("j")]);
        let nest = |inner: fn(Expr) -> Expr, level: fn(&str, Expr, Expr) -> Expr| {
            let j = level("j", gen(nat(5)), inner(site()));
            let i = level("i", gen(nat(5)), let_("h0", var("h1"), j));
            level("t", gen(nat(20)), let_("h1", add(nat(3), var("t")), i))
        };
        let folded = vec![
            ("t", below(20)),
            ("h1", span(3, 22)),
            ("h0", span(3, 22)),
            ("i", below(5)),
            ("j", below(5)),
        ];
        let window = sub(global("T"), vec![add(nat(3), var("t")), var("i"), var("j")]);
        let pair = |from| sub(global("T"), vec![add(nat(from), var("k")), nat(2), nat(2)]);
        let stmts = vec![
            (set_max(nest(single, big_union)), folded.clone()),
            // `window_sum_query`.
            (nest(|h| h, sum), folded),
            (
                tab(
                    vec![("t", nat(20)), ("i", nat(5)), ("j", nat(5))],
                    add(mul(window, real(1.8)), real(32.0)),
                ),
                vec![("t", below(20)), ("i", below(5)), ("j", below(5))],
            ),
            (tab1("k", nat(12), tuple(vec![pair(3), pair(21)])), vec![("k", below(12))]),
        ];
        (g, stmts)
    }

    #[test]
    fn the_warm_scan_statements_run_as_kernels_over_windows() {
        let (g, stmts) = warm_scan();
        // Rows 3..=22 of 7-row chunks: chunks 0 to 3. The zip reads
        // rows 3..=14 (three chunks) and 21..=32 (two). The map's three
        // axes make one row of 500 and the zip's one of 12; the folds
        // hand a row of 20 to `t`, 20 of five to `i` and 100 of five to
        // `j`: their levels do not collapse.
        for ((e, vars), (chunks, rows)) in stmts.iter().zip([(4, 121), (4, 121), (4, 1), (5, 1)]) {
            let got = same(e, &g, vars);
            // Each nest is entered once, and bound once.
            assert_eq!((got.nests, got.binds), (1, 1), "{e}");
            assert_eq!(got.lookups, chunks, "one lookup per overlapped chunk: {e}");
            assert_eq!(got.rows, rows, "rows of {e}");
        }
        // The sum nest is 157 steps a row and three at the top; every
        // loop counts its `gen` as materialized.
        let got = same(&stmts[1].0, &g, &stmts[1].1);
        assert_eq!((got.steps, got.subscripts), (20 * 157 + 3, 500));
        assert_eq!(got.materialized, 20 + 20 * 5 + 20 * 25);
    }

    #[test]
    fn operands_and_scalars_come_from_the_enclosing_scope() {
        // `let p = … in [[ p[i] * c + i | i < dim_1!p ]]`: the operand
        // is a variable bound outside the nest, its extent the bound,
        // `c` a `val`.
        let g = world(vec![("c", Value::Nat(3)), ("A", array(ArrayVal::from_nat(vec![9], nats(9))))]);
        let body = tab1(
            "i",
            dim(1, var("p")),
            add(mul(sub(var("p"), vec![var("i")]), global("c")), var("i")),
        );
        let e = let_("p", global("A"), body);
        assert_eq!(same(&e, &g, &[("i", below(9))]).nests, 1);
        // A nest inside an interpreted loop runs once per iteration, on
        // that iteration's variable, and is bound once.
        let a = array(ArrayVal::from_f64(vec![3, 4], reals(12)));
        let g = world(vec![("A", a)]);
        let row = sum("i", gen(nat(4)), sub(global("A"), vec![var("d"), var("i")]));
        let e = big_union("d", gen(nat(3)), single(row));
        let got = same(&e, &g, &[("d", below(3)), ("i", below(4))]);
        assert_eq!((got.nests, got.binds), (3, 1));
        // `dim_1` in the head, as a rotation uses it.
        let g = world(vec![("A", array(ArrayVal::from_nat(vec![9], nats(9))))]);
        let at = modulo(add(var("i"), nat(4)), dim(1, global("A")));
        let e = tab1("i", nat(9), sub(global("A"), vec![at]));
        let marked = run(&e, &g, &Limits::default(), Some(&[("i", below(9))]));
        // (`%` is beyond the test's interval helper; the site is in
        // range all the same, and marked.)
        assert_eq!(marked.value, run(&e, &g, &Limits::default(), None).value);
        assert_eq!(marked.nests, 1);
    }

    #[test]
    fn empty_ranges() {
        let g = world(vec![("A", array(ArrayVal::from_f64(vec![7, 5], reals(35))))]);
        let first = sub(global("A"), vec![var("i"), nat(0)]);
        // A sum of nothing is `0 : nat` whatever its head: a kernel,
        // typed `real` by the operand, hands such a nest back.
        let e = sum("i", gen(nat(0)), first.clone());
        let got = same(&e, &g, &[("i", below(0))]);
        assert_eq!((got.value, got.nests), (Ok(Value::Nat(0)), 0));
        // `max!` of nothing is ⊥.
        let e = set_max(big_union("i", gen(nat(0)), single(first)));
        let got = same(&e, &g, &[("i", below(0))]);
        assert_eq!((got.value, got.nests), (Ok(Value::Bottom), 1));
        // A zero-extent tabulation.
        let e = tab(vec![("i", nat(0)), ("j", nat(5))], cell());
        let got = same(&e, &g, IJ);
        assert_eq!(got.nests, 1);
        let Ok(Value::Array(a)) = got.value else { unreachable!("a tabulation") };
        assert_eq!(a.dims(), &[0, 5]);
        // An inner zero extent under a tuple head: no cell, no columns,
        // and still a kernel.
        let e = tab(vec![("i", nat(7)), ("j", nat(0))], tuple(vec![cell(), var("j")]));
        let got = same(&e, &g, IJ);
        assert_eq!((got.nests, got.escapes), (1, 0));
        let Ok(Value::Array(a)) = got.value else { unreachable!("a tabulation") };
        assert_eq!(a.dims(), &[7, 0]);
        // So with a nested one, where the addition around it promotes
        // that zero. The interpreter then meets the inner sums as
        // nests of their own: of the three, the one that is not empty
        // runs as a kernel.
        let inner = sum("j", gen(monus(var("i"), nat(1))), cell());
        let e = sum("i", gen(nat(3)), add(inner, real(0.5)));
        let got = same(&e, &g, &[("i", below(3)), ("j", below(2))]);
        assert_eq!(got.nests, 1);
    }

    #[test]
    fn triangular_bounds() {
        // Σ_{i<6} Σ_{j<i} A[i, j] over naturals: the inner range is
        // empty at i = 0, and a `nat` sum of nothing is 0.
        let tri = sum("i", gen(nat(6)), sum("j", gen(var("i")), cell()));
        let vars: Vars = &[("i", below(6)), ("j", below(5))];
        for a in [
            array(ArrayVal::from_nat(vec![7, 5], nats(35))),
            lazy(&[7, 5], &[3, 2], ScalarBuf::I64((0..35).collect())),
        ] {
            assert_eq!(same(&tri, &world(vec![("A", a)]), vars).nests, 1);
        }
    }

    #[test]
    fn overflow_division_by_zero_and_guards() {
        let g = world(vec![
            ("N", array(ArrayVal::from_nat(vec![2], vec![u64::MAX, 1]))),
            ("D", array(ArrayVal::from_nat(vec![4], vec![0, 1, 2, 5]))),
        ]);
        let at = |a: &str| sub(global(a), vec![var("i")]);
        let (two, four): (Vars, Vars) = (&[("i", below(2))], &[("i", below(4))]);
        // `nat` overflow is a host error: in the head, and in the sum.
        let got = same(&tab1("i", nat(2), mul(at("N"), nat(2))), &g, two);
        assert_eq!(got.value, Err(EvalError::Overflow));
        let got = same(&sum("i", gen(nat(2)), at("N")), &g, two);
        assert_eq!(got.value, Err(EvalError::Overflow));
        // Division by zero in one cell is ⊥ for the whole sink.
        let got = same(&tab1("i", nat(4), div(nat(100), at("D"))), &g, four);
        assert_eq!(got.value, Ok(Value::Bottom));
        let got = same(&sum("i", gen(nat(4)), modulo(nat(100), at("D"))), &g, four);
        assert_eq!(got.value, Ok(Value::Bottom));
        // An `if` evaluates only the branch it takes, and is charged
        // for that branch only.
        let guarded = iff(eq(at("D"), nat(0)), nat(0), div(nat(100), at("D")));
        let got = same(&tab1("i", nat(4), guarded), &g, four);
        assert_eq!(got.nests, 1);
        assert_eq!(got.value, Ok(array(ArrayVal::from_nat(vec![4], vec![0, 100, 50, 20]))));
    }

    /// `if i·5 + j < t then head else ⊥`: `⊥` from row-major cell `t`
    /// of the 7×5 nests of [`sinks`] on.
    fn until(t: u64, head: Expr) -> Expr {
        iff(lt(add(mul(var("i"), nat(5)), var("j")), nat(t)), head, bottom())
    }

    #[test]
    fn a_guarded_head_runs_until_its_bottom_branch_is_taken() {
        let g = world(vec![
            ("A", array(ArrayVal::from_f64(vec![7, 5], reals(35)))),
            ("L", lazy(&[7, 5], &[3, 2], ScalarBuf::F64(reals(35)))),
            ("W", lazy(&[14, 2], &[4, 2], ScalarBuf::F64(reals(28)))),
            ("n", Value::Nat(7)),
        ]);
        let at = |a: &str| sub(global(a), vec![var("i"), var("j")]);
        // What β^p leaves of the §1 query: a guarded tuple whose last
        // component is guarded twice more, one site with a stride.
        let wide = sub(global("W"), vec![mul(var("i"), nat(2)), nat(0)]);
        let inner = iff(lt(var("i"), global("n")), iff(lt(var("j"), nat(5)), wide, bottom()), bottom());
        let heads = [
            tuple(vec![at("A"), at("L")]),
            tuple(vec![at("A"), at("L"), inner]),
            // A scalar, and a triple of three kinds under a `let`.
            mul(at("L"), real(2.0)),
            let_("x", at("A"), tuple(vec![var("i"), var("x"), lt(var("x"), at("L"))])),
        ];
        for head in &heads {
            // No cell takes the `⊥` branch: a kernel, whose tuples are
            // columns.
            let e = tab(vec![("i", nat(7)), ("j", nat(5))], until(35, head.clone()));
            let got = same(&e, &g, IJ);
            assert_eq!(got.nests, 1, "{e}");
            let Ok(Value::Array(a)) = got.value else { unreachable!("a tabulation") };
            let columns = matches!(a.array_data(), ArrayData::Columns(_));
            assert_eq!(columns, !matches!(head, Expr::Arith(..)), "{e}");
            // The first, a middle and the last cell take it: the value
            // is `⊥` with the interpreter's charges up to that cell —
            // `same` compares them — and none of the kernel's.
            for t in [0, 17, 34] {
                let e = tab(vec![("i", nat(7)), ("j", nat(5))], until(t, head.clone()));
                let got = same(&e, &g, IJ);
                assert_eq!((got.value, got.nests), (Ok(Value::Bottom), 0), "{e} at {t}");
            }
        }
        // Under `Σ` and under `min!`/`max!`, guarded either way round.
        let then_bottom = iff(lt(at("A"), real(-1e9)), bottom(), at("L"));
        for head in [until(35, at("L")), then_bottom] {
            for e in sinks(&head) {
                assert_eq!(same(&e, &g, IJ).nests, 1, "{e}");
            }
        }
        // (Handed back, the outer `Σ` meets its rows as nests of their
        // own: the three before the `⊥` run as kernels.)
        for (e, rows) in sinks(&until(17, at("L"))).iter().zip([0, 3, 0, 0]) {
            let got = same(e, &g, IJ);
            assert_eq!((got.value, got.nests), (Ok(Value::Bottom), rows), "{e}");
        }
    }

    #[test]
    fn tuple_heads_fill_one_column_per_component() {
        let (dims, chunk) = ([7u64, 5], [3u64, 2]);
        let signed = nats(35).into_iter().map(|n| n as i64).collect();
        // Each kind eager and lazy (the lazy ones behind a one-chunk
        // cache, so windows evict one another).
        let g = world(vec![
            ("R", array(ArrayVal::from_f64(dims.to_vec(), reals(35)))),
            ("N", array(ArrayVal::from_nat(dims.to_vec(), nats(35)))),
            ("B", array(ArrayVal::from_bool(dims.to_vec(), bools(35)))),
            ("LR", lazy_cached(&dims, &chunk, ScalarBuf::F64(reals(35)))),
            ("LN", lazy_cached(&dims, &chunk, ScalarBuf::I64(signed))),
            ("LB", lazy_cached(&dims, &chunk, ScalarBuf::Bool(bools(35)))),
        ]);
        let at = |a: &str| sub(global(a), vec![var("i"), var("j")]);
        let all = ["R", "LR", "N", "LN", "B", "LB"];
        for (x, y) in all.iter().flat_map(|x| all.iter().map(move |y| (x, y))) {
            for head in [tuple(vec![at(x), at(y)]), tuple(vec![at(y), at(x), at(y)])] {
                let e = tab(vec![("i", nat(7)), ("j", nat(5))], head);
                let got = same(&e, &g, IJ);
                assert_eq!(got.nests, 1, "{e}");
                let Ok(Value::Array(a)) = &got.value else { unreachable!("a tabulation") };
                let ArrayData::Columns(cols) = a.array_data() else { unreachable!("{e} boxed") };
                assert_eq!(cols.len(), a.value_at(0).as_tuple().map_or(0, <[_]>::len), "{e}");
            }
        }
        // A tuple inside a tuple is not planned: no kernel, no escape.
        let nested = tuple(vec![var("i"), tuple(vec![at("R"), at("B")])]);
        let got = same(&tab(vec![("i", nat(7)), ("j", nat(5))], nested), &g, IJ);
        assert_eq!((got.nests, got.escapes), (0, 0));
    }

    /// Triples of the three kinds, as columns: `Z[i] = (i/2, i, i even)`.
    fn triples(n: u64) -> Value {
        let cell = |i: u64| Value::tuple(vec![Value::Real(i as f64 * 0.5), Value::Nat(i), Value::Bool(i.is_multiple_of(2))]);
        let z = array(ArrayVal::new(vec![n], (0..n).map(cell).collect()));
        assert!(matches!(z.as_array().unwrap().array_data(), ArrayData::Columns(_)));
        z
    }

    #[test]
    fn a_component_of_a_column_array_is_a_column_operand() {
        let g = world(vec![("Z", triples(7))]);
        let part = |k| proj(k, 3, sub(global("Z"), vec![var("i")]));
        let nest = |head| big_union("i", gen(nat(7)), single(head));
        let es = [
            tab1("i", nat(7), add(mul(part(1), real(2.0)), real(1.0))),
            tab1("i", nat(7), tuple(vec![part(3), part(2), part(1)])),
            tab1("i", nat(7), iff(part(3), part(2), nat(0))),
            sum("i", gen(nat(7)), part(2)),
            set_max(nest(part(1))),
            set_min(nest(part(3))),
        ];
        for e in es {
            let got = same(&e, &g, &[("i", below(7))]);
            assert_eq!((got.nests, got.escapes), (1, 0), "{e}");
        }
    }

    #[test]
    fn a_whole_cell_of_a_column_array_is_refused_like_a_boxed_one() {
        // Read as a flat buffer, `Z[i]` would be a real, not a triple;
        // and a projection of another arity is the interpreter's error.
        let boxed = Value::array1(vec![Value::Nat(1), Value::Bottom, Value::Nat(2)]);
        let g = world(vec![("Z", triples(3)), ("M", boxed)]);
        let at = |a: &str| sub(global(a), vec![var("i")]);
        for e in [tab1("i", nat(3), at("Z")), tab1("i", nat(3), at("M")), tab1("i", nat(3), proj(1, 2, at("Z")))] {
            let got = same(&e, &g, &[("i", below(3))]);
            assert_eq!((got.nests, got.escapes), (0, 1), "{e}");
        }
    }

    /// `[[ h(A[i]) | i < n ]]`, `Σ_{i<n} A[i]` and `max!` of the same.
    fn one_axis(n: u64, head: impl Fn(Expr) -> Expr) -> [Expr; 3] {
        let at = || head(sub(global("A"), vec![var("i")]));
        [
            tab1("i", nat(n), at()),
            sum("i", gen(nat(n)), at()),
            set_max(big_union("i", gen(nat(n)), single(at()))),
        ]
    }

    #[test]
    fn rows_are_cut_where_the_limits_are_looked_at() {
        for n in [0, 1, POLL_EVERY - 1, POLL_EVERY, POLL_EVERY + 1] {
            let g = world(vec![("A", array(ArrayVal::from_f64(vec![n], reals(n))))]);
            for (k, e) in one_axis(n, |a| add(mul(a, real(1.8)), real(32.0))).iter().enumerate() {
                let got = same(e, &g, &[("i", below(n))]);
                // An empty real `Σ` is the interpreter's `0 : nat`.
                let runs = n > 0 || k != 1;
                assert_eq!(got.nests, u64::from(runs), "{e} over {n}");
                assert_eq!(got.rows, n.div_ceil(POLL_EVERY), "{e} over {n}");
                // The step budget ending one step short, or at the
                // second row; a cancellation raised beforehand.
                for max_steps in [got.steps - 1, 2 * POLL_EVERY + 3] {
                    checked(e, &g, &Limits { max_steps, ..Limits::default() }, &[("i", below(n))]);
                }
                let cancel = Some(Arc::new(AtomicBool::new(true)));
                checked(e, &g, &Limits { cancel, ..Limits::default() }, &[("i", below(n))]);
            }
        }
    }

    #[test]
    fn a_cancellation_raised_mid_row_is_the_interpreters_error() {
        // `Σ A[2i]` reads per element (its box spans twice its reads);
        // the source raises the flag when it loads the chunk holding
        // cell 2,000, inside the first row. The kernel sees it at the
        // next row and hands the nest back, whose rerun stops at its
        // first check; so the error is compared, not the counts.
        let n = 2 * POLL_EVERY;
        let outcome = |vars: Option<Vars>| {
            let flag = Arc::new(AtomicBool::new(false));
            let raise = Arc::clone(&flag);
            let schedule = move |_, start: &[u64]| -> Option<Fault> {
                if start.first() == Some(&2000) {
                    raise.store(true, std::sync::atomic::Ordering::Relaxed);
                }
                None
            };
            let source = MemChunkSource::new(vec![2 * n], ScalarBuf::F64(reals(2 * n))).unwrap();
            let faulty = Box::new(FaultyChunkSource::new(source, schedule));
            let g = world(vec![("A", lazy_over(&[2 * n], &[1000], faulty, ScalarKind::F64, 1 << 20))]);
            let e = sum("i", gen(nat(n)), sub(global("A"), vec![mul(var("i"), nat(2))]));
            run(&e, &g, &Limits { cancel: Some(flag), ..Limits::default() }, vars)
        };
        let (want, got) = (outcome(None), outcome(Some(&[("i", below(n))])));
        assert_eq!((want.value, got.value), (Err(EvalError::Cancelled), Err(EvalError::Cancelled)));
        assert_eq!((got.nests, got.escapes), (0, 1));
    }

    #[test]
    fn an_escape_anywhere_in_a_row_is_the_interpreters() {
        let n = POLL_EVERY;
        for at in [0, n / 2, n - 1] {
            let spiked = |x| (0..n).map(|i| if i == at { x } else { i % 7 + 1 }).collect::<Vec<u64>>();
            let signed = spiked(9).into_iter().map(|x| if x == 9 { -1 } else { x as i64 }).collect();
            let g = world(vec![
                ("N", array(ArrayVal::from_nat(vec![n], spiked(u64::MAX)))),
                ("D", array(ArrayVal::from_nat(vec![n], spiked(0)))),
                ("L", lazy(&[n], &[1000], ScalarBuf::I64(signed))),
            ]);
            let on = |a: &'static str, h: fn(Expr) -> Expr| {
                one_axis(n, move |_| h(sub(global(a), vec![var("i")])))
            };
            let cases = [
                (on("N", |x| mul(x, nat(2))), Err(EvalError::Overflow)),
                (on("D", |x| div(nat(100), x)), Ok(Value::Bottom)),
                (on("D", |x| modulo(nat(100), x)), Ok(Value::Bottom)),
            ];
            for (es, want) in cases {
                for e in &es[..2] {
                    let got = same(e, &g, &[("i", below(n))]);
                    assert_eq!((got.value, got.nests, got.escapes), (want.clone(), 0, 1), "{e} at {at}");
                }
            }
            // A negative stored integer, read through a window.
            for e in on("L", |x| x) {
                let got = same(&e, &g, &[("i", below(n))]);
                assert_eq!((got.nests, got.escapes), (0, 1), "{e} at {at}");
            }
        }
    }

    #[test]
    fn levels_keep_their_order_and_their_accumulators() {
        // Grouped by row, 1e16 + 1 and -1e16 + 1 round to 1e16 and
        // -1e16, and the sum is 0; in one run it would be 1.
        let g = world(vec![("A", array(ArrayVal::from_f64(vec![2, 2], vec![1e16, 1.0, -1e16, 1.0])))]);
        let e = sum("i", gen(nat(2)), sum("j", gen(nat(2)), sub(global("A"), vec![var("i"), var("j")])));
        let got = same(&e, &g, &[("i", below(2)), ("j", below(2))]);
        assert_eq!((got.value, got.nests), (Ok(Value::Real(0.0)), 1));
        // NaN beats everything under `max!`, -0.0 loses to 0.0 under
        // `min!`, over two levels whose rows each hold one of them.
        let cells = vec![0.0, 2.0, -0.0, f64::NAN, -1.5, 0.0, -0.0, 7.0];
        let g = world(vec![("A", array(ArrayVal::from_f64(vec![2, 4], cells)))]);
        let at = sub(global("A"), vec![var("i"), var("j")]);
        let levels = big_union("i", gen(nat(2)), big_union("j", gen(nat(4)), single(at)));
        for e in [set_max(levels.clone()), set_min(levels)] {
            assert_eq!(same(&e, &g, &[("i", below(2)), ("j", below(4))]).nests, 1, "{e}");
        }
    }

    #[test]
    fn only_row_major_sites_make_one_row_of_several_axes() {
        let g = world(vec![
            ("M", array(ArrayVal::from_f64(vec![4, 5], reals(20)))),
            ("C", lazy(&[4, 5, 5], &[2, 5, 5], ScalarBuf::F64(reals(100)))),
            ("A", lazy(&[40], &[8], ScalarBuf::F64(reals(40)))),
        ]);
        let ij: Vars = &[("i", below(4)), ("j", below(5))];
        let at = |a: &str, idx: Vec<Expr>| sub(global(a), idx);
        let cases = [
            // Row-major: one row of 20 cells; a pair of such sites too.
            (tab(vec![("i", nat(4)), ("j", nat(5))], at("M", vec![var("i"), var("j")])), 1),
            (tab(vec![("i", nat(4)), ("j", nat(5))], tuple(vec![at("M", vec![var("i"), var("j")]), at("C", vec![var("i"), var("j"), nat(2)])])), 1),
            // Transposed, diagonal, or reading its row variable: a row
            // per `i`.
            (tab(vec![("j", nat(5)), ("i", nat(4))], at("M", vec![var("i"), var("j")])), 5),
            (tab(vec![("i", nat(4)), ("j", nat(5))], at("C", vec![var("i"), var("j"), var("j")])), 4),
            (tab(vec![("i", nat(4)), ("j", nat(5))], add(at("M", vec![var("i"), var("j")]), real(1.0))), 1),
            (tab(vec![("i", nat(4)), ("j", nat(5))], tuple(vec![var("j"), at("M", vec![var("i"), var("j")])])), 4),
            // A stride of 2, and an index of another form.
            (tab(vec![("i", nat(4)), ("j", nat(5))], at("A", vec![add(mul(var("i"), nat(10)), mul(var("j"), nat(2)))])), 4),
            (tab(vec![("i", nat(4)), ("j", nat(5))], at("M", vec![var("i"), modulo(add(var("j"), nat(3)), nat(5))])), 4),
        ];
        for (e, rows) in cases {
            let marked = run(&e, &g, &Limits::default(), Some(ij));
            let want = run(&e, &g, &Limits::default(), None);
            assert_eq!((&marked.value, marked.steps), (&want.value, want.steps), "{e}");
            assert_eq!((marked.nests, marked.rows), (1, rows), "{e}");
        }
    }

    #[test]
    fn a_bottom_no_branch_types_is_handed_back() {
        let g = world(vec![("A", array(ArrayVal::from_f64(vec![7, 5], reals(35))))]);
        // Both branches `⊥`, `⊥` outside an `if`, and branches of two
        // kinds: refused when bound, never given a kind of their own.
        let positive = || gt(cell(), real(0.0));
        let heads = [
            iff(positive(), bottom(), bottom()),
            add(cell(), bottom()),
            tuple(vec![cell(), bottom()]),
            iff(positive(), cell(), tuple(vec![cell(), cell()])),
        ];
        for head in heads {
            let e = tab(vec![("i", nat(7)), ("j", nat(5))], head);
            let got = run(&e, &g, &Limits::default(), Some(IJ));
            let want = run(&e, &g, &Limits::default(), None);
            assert_eq!((got.value, got.steps, got.nests), (want.value, want.steps, 0), "{e}");
        }
        // A head outside the grammar refuses its nest and leaves
        // nothing behind: the subscript-free nest beside it is planned
        // on its own, and so not at all.
        let first = sub(global("A"), vec![var("i"), nat(0)]);
        let refused = tab1("i", nat(7), tuple(vec![first, single(var("i"))]));
        let free = sum("i", gen(nat(10)), mul(var("i"), var("i")));
        assert_eq!(same(&tuple(vec![refused, free]), &g, IJ).nests, 0);
    }

    /// `⋃ d < days. { let h = d·len in [[ if h+k < n then (T[h+k], R[h+k]) else ⊥ | k < len ]] }`
    /// over lazy `T` and `R` of `days·len` cells.
    fn per_day(days: u64, len: u64, chunk: u64) -> (HashMap<Name, Value>, Marked) {
        let n = days * len;
        let g = world(vec![
            ("T", lazy(&[n], &[chunk], ScalarBuf::F64(reals(n)))),
            ("R", lazy(&[n], &[chunk], ScalarBuf::I64((0..n as i64).collect()))),
            ("n", Value::Nat(n)),
        ]);
        let at = |a: &str| sub(global(a), vec![add(var("h"), var("k"))]);
        let inside = lt(add(var("h"), var("k")), global("n"));
        let head = iff(inside, tuple(vec![at("T"), at("R")]), bottom());
        let day = let_("h", mul(var("d"), nat(len)), tab1("k", nat(len), head));
        let e = big_union("d", gen(nat(days)), single(day));
        (g, (e, vec![("d", below(days)), ("h", span(0, n - len)), ("k", below(len))]))
    }

    #[test]
    fn a_window_is_sized_by_the_run_not_by_the_statement() {
        // Four days of 12 cells in chunks of 10. The mark says
        // `[0, 47]` — all four days, 48 cells for 12 executions — but
        // day `d` reads `[12d, 12d+11]`, which is two chunks, whichever
        // day: one lookup per overlapped chunk per site per run.
        let (g, (e, vars)) = per_day(4, 12, 10);
        let got = same(&e, &g, &vars);
        assert_eq!((got.nests, got.lookups, got.binds), (4, 4 * 2 * 2, 1), "{e}");
        // A box that leaves the array is not asked for: `k` has no
        // useful mark here and ranges to 8 over five cells, so the four
        // reads the guard lets through go one by one.
        let g = world(vec![("A", lazy(&[5], &[2], ScalarBuf::F64(reals(5))))]);
        let guarded = iff(lt(var("k"), nat(4)), sub(global("A"), vec![var("k")]), real(0.0));
        let e = tab1("k", nat(9), guarded);
        let got = same(&e, &g, &[]);
        assert_eq!((got.nests, got.lookups), (1, 4), "{e}");
        // A stride spans more cells than it reads — 23 for 12 — and
        // stays per element; the guard is the one windows always had.
        let g = world(vec![("A", lazy(&[24], &[5], ScalarBuf::F64(reals(24))))]);
        let e = tab1("k", nat(12), sub(global("A"), vec![mul(var("k"), nat(2))]));
        let got = same(&e, &g, &[("k", below(12))]);
        assert_eq!((got.nests, got.lookups), (1, 12), "{e}");
    }

    #[test]
    fn min_and_max_fold_in_the_canonical_order() {
        let cells = vec![0.0, -0.0, f64::NAN, -1.5, 0.0];
        let g = world(vec![("A", array(ArrayVal::from_f64(vec![5], cells)))]);
        let all = big_union("i", gen(nat(5)), single(sub(global("A"), vec![var("i")])));
        let vars: Vars = &[("i", below(5))];
        let max = same(&set_max(all.clone()), &g, vars);
        assert!(matches!(max.value, Ok(Value::Real(x)) if x.is_nan()));
        // Without the -1.5 the least cell is the negative zero.
        let some = big_union("i", gen(nat(3)), single(sub(global("A"), vec![var("i")])));
        let min = same(&set_min(some), &g, &[("i", below(3))]);
        assert!(matches!(min.value, Ok(Value::Real(x)) if x == 0.0 && x.is_sign_negative()));
        assert_eq!((max.nests, min.nests), (1, 1));
    }

    #[test]
    fn a_negative_stored_integer_reads_as_the_interpreter_reads_it() {
        // The interpreter widens it to a real; the kernel, typed `nat`
        // by the operand's kind, hands the nest back.
        let a = lazy(&[6], &[4], ScalarBuf::I64(vec![3, 1, -4, 1, 5, 9]));
        let g = world(vec![("A", a)]);
        let at = sub(global("A"), vec![var("i")]);
        for e in [sum("i", gen(nat(6)), at.clone()), tab1("i", nat(6), at)] {
            assert_eq!(same(&e, &g, &[("i", below(6))]).nests, 0, "{e}");
        }
    }

    #[test]
    fn a_diagonal_is_read_per_element() {
        // T[i, i, i] spans the whole cube: 125 cells for 5 reads. No
        // window; one lookup per element, still unboxed.
        let g = world(vec![("C", lazy(&[5, 5, 5], &[2, 2, 2], ScalarBuf::F64(reals(125))))]);
        let e = sum("i", gen(nat(5)), sub(global("C"), vec![var("i"), var("i"), var("i")]));
        let got = same(&e, &g, &[("i", below(5))]);
        assert_eq!((got.nests, got.lookups), (1, 5));
    }

    #[test]
    fn a_storage_failure_in_a_window_is_the_interpreters_error() {
        let dead = |_, _: &[u64]| Some(Fault::Persistent);
        let source = MemChunkSource::new(vec![7, 5], ScalarBuf::F64(reals(35))).unwrap();
        let faulty = Box::new(FaultyChunkSource::new(source, dead));
        let g = world(vec![("A", lazy_over(&[7, 5], &[3, 2], faulty, ScalarKind::F64, 1 << 20))]);
        for e in sinks(&cell()) {
            // (Not `same`: the message counts the reads attempted, and
            // the window was one.)
            for vars in [None, Some(IJ)] {
                let got = run(&e, &g, &Limits::default(), vars);
                assert!(
                    matches!(
                        &got.value,
                        Err(EvalError::Storage(e))
                            if matches!(**e, aql_store::StoreError::Io { transient: false, .. })
                    ),
                    "{e}"
                );
                assert_eq!(got.nests, 0);
            }
        }
    }

    #[test]
    fn limits_stop_a_kernel_as_they_stop_the_interpreter() {
        let g = world(vec![("A", array(ArrayVal::from_f64(vec![7, 5], reals(35))))]);
        // (A head large enough for the nests to cross the interpreter's
        // 256-step interrupt check.)
        for e in sinks(&add(mul(cell(), real(0.5)), real(0.5))) {
            let cost = same(&e, &g, IJ).steps;
            // One step short of the nest's cost.
            let short = Limits { max_steps: cost - 1, ..Limits::default() };
            assert_eq!(checked(&e, &g, &short, IJ).value, Err(EvalError::StepLimit), "{e}");
            let exact = Limits { max_steps: cost, ..Limits::default() };
            assert_eq!(checked(&e, &g, &exact, IJ).nests, 1, "{e}");
            // A cancellation flag raised beforehand.
            let flag = Arc::new(AtomicBool::new(true));
            let cancelled = Limits { cancel: Some(flag), ..Limits::default() };
            assert_eq!(checked(&e, &g, &cancelled, IJ).value, Err(EvalError::Cancelled), "{e}");
        }
        // A `gen` inside the nest larger than `max_elems`.
        let e = tab1("i", nat(3), sum("j", gen(nat(5)), cell()));
        let small = Limits { max_elems: 4, ..Limits::default() };
        assert_eq!(
            checked(&e, &g, &small, IJ).value,
            Err(EvalError::ResourceLimit { requested: 5, limit: 4 })
        );
        // A long row is polled on the way: a kernel does not outrun a
        // cancellation by more than `POLL_EVERY` iterations.
        let n = 3 * POLL_EVERY;
        let g = world(vec![("L", array(ArrayVal::from_nat(vec![n], vec![1; n as usize])))]);
        let e = sum("i", gen(nat(n)), sub(global("L"), vec![var("i")]));
        let flag = Arc::new(AtomicBool::new(true));
        let cancelled = Limits { cancel: Some(flag), ..Limits::default() };
        let got = checked(&e, &g, &cancelled, &[("i", below(n))]);
        assert_eq!(got.value, Err(EvalError::Cancelled));
    }

    #[test]
    fn unmarked_or_subscript_free_nests_are_not_planned() {
        let g = world(vec![("A", array(ArrayVal::from_f64(vec![7, 5], reals(35))))]);
        // The all-checked `eval` marks nothing.
        for e in sinks(&cell()) {
            assert_eq!(run(&e, &g, &Limits::default(), None).nests, 0);
        }
        // No operand, no kernel.
        let e = sum("i", gen(nat(10)), mul(var("i"), var("i")));
        assert_eq!(run(&e, &g, &Limits::default(), Some(&[])).nests, 0);
        // A boxed operand is the interpreter's.
        let boxed = Value::array1(vec![Value::Nat(1), Value::Bottom]);
        let g = world(vec![("B", boxed)]);
        let e = sum("i", gen(nat(1)), sub(global("B"), vec![var("i")]));
        assert_eq!(same(&e, &g, &[("i", below(1))]).nests, 0);
    }

    /// `⋃ d < days. { let h = at(d) in [[ head(h) | k < len ]] }`.
    fn daily(days: u64, at: Expr, len: Expr, head: Expr) -> Expr {
        big_union("d", gen(nat(days)), single(let_("h", at, tab1("k", len, head))))
    }

    #[test]
    fn a_nest_re_entered_under_an_interpreted_loop_is_bound_once() {
        let g = world(vec![
            ("A", array(ArrayVal::from_f64(vec![12], reals(12)))),
            ("N", array(ArrayVal::from_nat(vec![12], nats(12)))),
        ]);
        let at = |a: &str| sub(global(a), vec![add(var("h"), var("k"))]);
        let vars: Vars = &[("d", below(4)), ("h", span(0, 9)), ("k", below(3))];
        // A capture that changes on every entry, read as a row's offset,
        // in arithmetic and in a guard: one binding for four days.
        let guarded = iff(lt(var("h"), nat(6)), tuple(vec![at("A"), add(at("N"), var("h"))]), tuple(vec![at("A"), var("h")]));
        for head in [at("A"), mul(at("A"), real(2.0)), guarded] {
            let got = same(&daily(4, mul(var("d"), nat(3)), nat(3), head.clone()), &g, vars);
            assert_eq!((got.nests, got.binds, got.escapes), (4, 1, 0), "{head}");
        }
        // A root trip count that varies — 0, 0, 3, 3, 6, 6 — binds anew
        // for each count it has not been bound for.
        let e = daily(6, nat(0), mul(div(var("d"), nat(2)), nat(3)), at("A"));
        let got = same(&e, &g, &[("d", below(6)), ("h", span(0, 0)), ("k", below(6))]);
        assert_eq!((got.nests, got.binds), (6, 3));
        // An operand bound in the loop is another array on each entry.
        let day = tab1("i", nat(4), add(sub(global("A"), vec![var("i")]), var("x")));
        let e = big_union("d", gen(nat(3)), single(let_("x", real(0.5), let_("B", day, sum("k", gen(nat(4)), sub(var("B"), vec![var("k")]))))));
        let got = same(&e, &g, &[("d", below(3)), ("i", below(4)), ("k", below(4))]);
        // The tabulation is bound once, the `Σ` over its result thrice.
        assert_eq!((got.nests, got.binds), (6, 4));
    }

    #[test]
    fn a_trip_count_read_from_a_capture_is_bound_by_value() {
        // `Σ t < 4. Σ i < n. L[t, i]` over a 4×3 lazy array in one chunk.
        // With `n = 1` known at bind the site's box is 4×1 cells, no more
        // than its 4 executions: one lookup. From the mark alone it would
        // be 4×3, refused: a lookup a cell.
        let g = world(vec![("L", lazy(&[4, 3], &[4, 3], ScalarBuf::F64(reals(12))))]);
        let nest = sum("t", gen(nat(4)), sum("i", gen(var("n")), sub(global("L"), vec![var("t"), var("i")])));
        let vars: Vars = &[("d", below(3)), ("t", below(4)), ("i", below(3))];
        let got = same(&let_("n", nat(1), nest.clone()), &g, vars);
        assert_eq!((got.nests, got.binds, got.lookups), (1, 1, 1));
        // Re-entered, the count is part of the re-bind key: the same on
        // three days, one binding and a window a day; 1, 2, 3, a binding
        // a day, and only the first day's box is small enough.
        let e = big_union("d", gen(nat(3)), single(let_("n", nat(1), nest.clone())));
        let got = same(&e, &g, vars);
        assert_eq!((got.nests, got.binds, got.lookups), (3, 1, 3));
        let e = big_union("d", gen(nat(3)), single(let_("n", add(var("d"), nat(1)), nest)));
        let got = same(&e, &g, vars);
        assert_eq!((got.nests, got.binds, got.lookups), (3, 3, 1 + 8 + 12));
    }

    #[test]
    fn a_capture_whose_kind_flips_is_bound_again() {
        // `s` is a real sum, but over nothing it is the interpreter's
        // `0 : nat`: the entry that reads it so is refused when bound
        // and handed back, and a later real one binds anew.
        let g = world(vec![("A", array(ArrayVal::from_f64(vec![3], reals(3))))]);
        let head = add(sub(global("A"), vec![var("k")]), var("s"));
        let vars: Vars = &[("d", below(3)), ("k", below(3))];
        for (s, (nests, binds, escapes)) in [
            (sum("x", gen(var("d")), real(1.5)), (2, 2, 1)),
            (iff(eq(var("d"), nat(1)), sum("x", gen(nat(0)), real(1.5)), real(0.5)), (2, 3, 1)),
        ] {
            let e = big_union("d", gen(nat(3)), single(let_("s", s, tab1("k", nat(3), head.clone()))));
            let got = same(&e, &g, vars);
            assert_eq!((got.nests, got.binds, got.escapes), (nests, binds, escapes), "{e}");
        }
    }

    #[test]
    fn a_window_taken_on_one_entry_and_refused_on_another_rebinds() {
        // Ten cells; a day reads `[h, h+3]` behind a guard. The box of
        // the day at `h = 9` leaves the array: read per element.
        let g = world(vec![("L", lazy(&[10], &[4], ScalarBuf::F64(reals(10))))]);
        let head = iff(lt(add(var("h"), var("k")), nat(10)), sub(global("L"), vec![add(var("h"), var("k"))]), real(0.0));
        let vars: Vars = &[("d", below(4)), ("h", span(0, 9)), ("k", below(4))];
        for at in [mul(var("d"), nat(3)), mul(monus(nat(3), var("d")), nat(3))] {
            let got = same(&daily(4, at.clone(), nat(4), head.clone()), &g, vars);
            assert_eq!((got.nests, got.binds), (4, 2), "{at}");
        }
    }

    #[test]
    fn an_escape_on_one_entry_leaves_the_binding_to_the_next() {
        // An empty real `Σ` inside the head on the second day only: that
        // day is the interpreter's. Its count is a capture, held by value,
        // so each day binds: the third finds the second's binding.
        let g = world(vec![("A", array(ArrayVal::from_f64(vec![4], reals(4))))]);
        let inner = sum("j", gen(var("c")), sub(global("A"), vec![var("j")]));
        let nest = sum("i", gen(nat(2)), add(inner, sub(global("A"), vec![var("i")])));
        let c = iff(eq(var("d"), nat(1)), nat(0), nat(2));
        let e = big_union("d", gen(nat(3)), single(let_("c", c, nest)));
        let got = same(&e, &g, &[("d", below(3)), ("i", below(2)), ("j", below(2))]);
        // (Handed back, the second day meets its inner `Σ` as a nest of
        // its own, empty twice: bound once, handed back twice more.)
        assert_eq!((got.nests, got.binds, got.escapes), (2, 4, 3));
        // A negative stored integer on one day's window.
        let cells = ScalarBuf::I64(vec![1, 2, 3, -4, 5, 6, 7, 8, 9]);
        let g = world(vec![("L", lazy(&[9], &[3], cells))]);
        let e = daily(3, mul(var("d"), nat(3)), nat(3), sub(global("L"), vec![add(var("h"), var("k"))]));
        let got = same(&e, &g, &[("d", below(3)), ("h", span(0, 6)), ("k", below(3))]);
        assert_eq!((got.nests, got.binds, got.escapes), (2, 1, 1));
        // Overflow on the third day, and a `⊥` branch on the last: the
        // interpreter's error, or `⊥`, with its charges.
        let g = world(vec![("N", array(ArrayVal::from_nat(vec![4], vec![1, 2, u64::MAX, 3])))]);
        let vars: Vars = &[("d", below(4)), ("h", span(0, 3)), ("k", below(1))];
        let cell = || sub(global("N"), vec![add(var("h"), var("k"))]);
        let got = same(&daily(4, var("d"), nat(1), mul(cell(), nat(2))), &g, vars);
        assert_eq!((got.value, got.nests, got.binds), (Err(EvalError::Overflow), 2, 1));
        let guarded = iff(lt(var("h"), nat(3)), cell(), bottom());
        let got = same(&daily(4, var("d"), nat(1), guarded), &g, vars);
        assert_eq!((got.value, got.nests, got.binds), (Ok(Value::Bottom), 3, 1));
    }

    #[test]
    fn limits_landing_between_entries_are_the_interpreters() {
        let g = world(vec![("A", array(ArrayVal::from_f64(vec![12], reals(12))))]);
        let e = daily(4, mul(var("d"), nat(3)), nat(3), sub(global("A"), vec![add(var("h"), var("k"))]));
        let vars: Vars = &[("d", below(4)), ("h", span(0, 9)), ("k", below(3))];
        let cost = same(&e, &g, vars).steps;
        // Every step budget from one day short of the whole to the whole.
        for max_steps in cost.saturating_sub(40)..=cost {
            checked(&e, &g, &Limits { max_steps, ..Limits::default() }, vars);
        }
        // A cancellation raised when the third day loads its chunk.
        let outcome = |vars: Option<Vars>| {
            let flag = Arc::new(AtomicBool::new(false));
            let raise = Arc::clone(&flag);
            let schedule = move |_, start: &[u64]| -> Option<Fault> {
                if start.first() == Some(&6) {
                    raise.store(true, std::sync::atomic::Ordering::Relaxed);
                }
                None
            };
            let source = MemChunkSource::new(vec![12], ScalarBuf::F64(reals(12))).unwrap();
            let faulty = Box::new(FaultyChunkSource::new(source, schedule));
            let g = world(vec![("A", lazy_over(&[12], &[3], faulty, ScalarKind::F64, 1 << 20))]);
            run(&e, &g, &Limits { cancel: Some(flag), ..Limits::default() }, vars)
        };
        let (want, got) = (outcome(None), outcome(Some(vars)));
        assert_eq!((want.value, got.value), (Err(EvalError::Cancelled), Err(EvalError::Cancelled)));
    }
}
