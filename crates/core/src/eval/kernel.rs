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
//! [`run`] *binds* a plan to one evaluation — fetches the operand
//! arrays and captured scalars, learns each expression's kind (`nat`,
//! `real`, `bool`, tuple) from them, and composes the nest into
//! closures over a flat frame of `u64` slots — and runs it: no
//! environment node, no per-node tick, typed output buffers. A tuple
//! head is a row writer: it writes its components into the frame's row
//! slots, whose kinds are fixed at bind, and the tabulation appends each
//! slot to its column ([`Column`]), so an array of `n` tuples is `k`
//! buffers, not `n` boxes. A `⊥` branch has the kind of
//! the branch beside it. A lazy operand is read once per subscript
//! site, as one window (one `read_slab`: one cache lookup per
//! overlapped chunk), when that window has no more cells than the site
//! has executions; otherwise per element, still unboxed. The window is
//! sized when the site is bound: per axis, what the index `konst +
//! Σ coef·slot` reaches over the trip counts known by then (captures
//! are constants at bind, so a nest under an interpreted `⋃ d` asks
//! for day `d`'s 24 cells), inside the analyzer's interval, which
//! holds for every run of the statement at once and is all there is
//! for an index of another form.
//!
//! **Accounting in closed form.** The planner returns, next to each
//! piece of a nest, what the interpreter charges for evaluating it
//! once ([`Cost`]); a loop charges its head's cost times its trip count
//! on entry, an `if` the cost of the branch it takes, and every loop
//! what `check_elems` checks and counts for the `gen` or tabulation it
//! stands in for. The totals reach the context when the nest completes.
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
//! integer (a `real` to the interpreter), an operand that is not a flat
//! scalar array (a column array is not), a limit that would be
//! exceeded, a pending deadline or cancellation, a storage failure. The
//! interpreter then reports the error, or the `⊥`, at the point and
//! with the counts it always did; the trace counts the nest under
//! `eval.kernel_escapes`.

use std::cell::Cell;
use std::cmp::Ordering;
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
    /// A tuple of scalars: a row, written into the frame's row slots.
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
    /// Row slots: the arity of the widest tuple.
    row: usize,
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
/// grammar with at least one subscript, all of them marked.
pub(super) fn plan(c: &CExpr) -> Option<KernelPlan> {
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
        row: b.row,
    })
}

#[derive(Default)]
struct Planner {
    captures: Vec<Outer>,
    operands: Vec<Outer>,
    sites: Vec<Site>,
    slots: usize,
    row: usize,
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
                self.sites.push(Site { operand, axes: axes.clone(), inner_trips: trips });
                Some((P::Load(self.sites.len() - 1, ps), cost))
            }
            CExpr::Tuple(items) if !self.in_tuple => {
                self.in_tuple = true;
                let (ps, cost) = self.all(items, depth, trips, Cost::NODE)?;
                self.in_tuple = false;
                self.row = self.row.max(ps.len());
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
/// and the cancellation flag, in loop iterations.
const POLL_EVERY: u64 = 4096;

/// What a run mutates: the variable slots (naturals, or the bits of a
/// real or a boolean — the code reading a slot knows which) and the
/// charges, committed to the context only when the nest completes.
struct Frame<'c> {
    ctx: &'c EvalCtx<'c>,
    /// The longest loop `check_elems` would admit: `max_elems`, and
    /// what the governor's byte budget holds at eight bytes a cell.
    max_loop: u64,
    slots: Vec<Cell<u64>>,
    /// The components a tuple head wrote for the current cell, as bits.
    row: Vec<Cell<u64>>,
    /// The running `min!`/`max!`, as bits.
    best: Cell<Option<u64>>,
    steps: Cell<u64>,
    subs: Cell<u64>,
    /// Iterations entered, all loops together: what the `gen`s and the
    /// tabulation they stand in for count as materialized.
    materialized: Cell<u64>,
    /// Iterations entered since the limits were last looked at.
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
        if n > self.max_loop {
            return None;
        }
        bump(&self.materialized, n);
        self.charge(per_iter, n);
        bump(&self.unpolled, n.min(POLL_EVERY));
        if self.unpolled.get() >= POLL_EVERY {
            self.poll()?;
        }
        Some(())
    }

    /// Inside a loop: keep polls at most [`POLL_EVERY`] iterations
    /// apart however long the row.
    fn tick(&self, i: u64) -> Option<()> {
        if i % POLL_EVERY == POLL_EVERY - 1 {
            self.poll()?;
        }
        Some(())
    }

    /// Run `body` with the variable in `slot` at `0, …, n-1`.
    fn each(
        &self,
        n: u64,
        slot: usize,
        per_iter: Cost,
        mut body: impl FnMut(&Self) -> Option<()>,
    ) -> Option<()> {
        self.enter(n, per_iter)?;
        let var = self.slots.get(slot)?;
        for i in 0..n {
            self.tick(i)?;
            var.set(i);
            body(self)?;
        }
        Some(())
    }

    /// The tabulation sink: `cell` at every index of `dims`, row-major,
    /// writing into what `out` makes for that many cells once the loop
    /// is admitted.
    fn fill<B>(
        &self,
        dims: &[u64],
        per_cell: Cost,
        out: impl FnOnce(usize) -> B,
        mut cell: impl FnMut(&Self, &mut B) -> Option<()>,
    ) -> Option<B> {
        let total = checked_product(dims).ok()?;
        self.enter(total, per_cell)?;
        let vars = self.slots.get(..dims.len())?;
        vars.iter().for_each(|v| v.set(0));
        let mut out = out(total as usize);
        for c in 0..total {
            self.tick(c)?;
            cell(self, &mut out)?;
            // Row-major increment; the last index varies fastest.
            for (var, &d) in vars.iter().zip(dims).rev() {
                if var.get() + 1 < d {
                    var.set(var.get() + 1);
                    break;
                }
                var.set(0);
            }
        }
        Some(out)
    }

    /// A scalar head's cells, in one typed buffer.
    fn cells<T>(&self, dims: &[u64], per_cell: Cost, head: Op<T>) -> Option<Vec<T>> {
        self.fill(dims, per_cell, Vec::with_capacity, |f, out| {
            out.push(head(f)?);
            Some(())
        })
    }

    /// Append the row a tuple head has written, each slot to its column.
    fn append_row(&self, cols: &mut [Column]) {
        for (col, slot) in cols.iter_mut().zip(&self.row) {
            let bits = slot.get();
            match col {
                Column::F64(c) => c.push(f64::from_bits(bits)),
                Column::Nat(c) => c.push(bits),
                Column::Bool(c) => c.push(bits != 0),
            }
        }
    }
}

/// Compiled code of one kind: the closure evaluates a piece of the
/// nest in a frame, `None` being the escape.
type Op<'a, T> = Box<dyn Fn(&Frame) -> Option<T> + 'a>;

/// An operand: a constant is kept apart so that the operation using
/// it need not call anything to get it.
enum Arg<'a, T> {
    Const(T),
    Op(Op<'a, T>),
}

impl<'a, T: Clone + 'a> Arg<'a, T> {
    fn op(self) -> Op<'a, T> {
        match self {
            Arg::Const(c) => Box::new(move |_| Some(c.clone())),
            Arg::Op(op) => op,
        }
    }

    fn get(&self, f: &Frame) -> Option<T> {
        match self {
            Arg::Const(c) => Some(c.clone()),
            Arg::Op(op) => op(f),
        }
    }
}

/// `g` over two operands.
fn binary<'a, T: Copy + 'a, U: 'a>(
    a: Arg<'a, T>,
    b: Arg<'a, T>,
    g: impl Fn(T, T) -> Option<U> + 'a,
) -> Arg<'a, U> {
    Arg::Op(match (a, b) {
        (Arg::Op(a), Arg::Op(b)) => Box::new(move |f| g(a(f)?, b(f)?)),
        (Arg::Op(a), Arg::Const(y)) => Box::new(move |f| g(a(f)?, y)),
        (Arg::Const(x), Arg::Op(b)) => Box::new(move |f| g(x, b(f)?)),
        (Arg::Const(x), Arg::Const(y)) => Box::new(move |_| g(x, y)),
    })
}

/// A typed expression, ready to run: a scalar of one of the three
/// kinds, or a tuple — code that writes its components, of the kinds
/// listed, into the frame's row (a tabulation's cells, never a slot).
enum Code<'a> {
    N(Arg<'a, u64>),
    R(Arg<'a, f64>),
    B(Arg<'a, bool>),
    T(Arg<'a, ()>, Vec<Ty>),
}

/// `$code` with `$body` applied to the closure of whichever kind it is.
macro_rules! each_kind {
    ($code:expr, |$op:ident| $body:expr) => {
        match $code {
            Code::N($op) => Code::N(Arg::Op($body)),
            Code::R($op) => Code::R(Arg::Op($body)),
            Code::B($op) => Code::B(Arg::Op($body)),
            Code::T($op, kinds) => Code::T(Arg::Op($body), kinds),
        }
    };
}

impl<'a> Code<'a> {
    fn constant(v: V) -> Code<'a> {
        match v {
            V::N(n) => Code::N(Arg::Const(n)),
            V::R(r) => Code::R(Arg::Const(r)),
            V::B(b) => Code::B(Arg::Const(b)),
        }
    }

    fn n(op: impl Fn(&Frame) -> Option<u64> + 'a) -> Code<'a> {
        Code::N(Arg::Op(Box::new(op)))
    }

    fn r(op: impl Fn(&Frame) -> Option<f64> + 'a) -> Code<'a> {
        Code::R(Arg::Op(Box::new(op)))
    }

    fn b(op: impl Fn(&Frame) -> Option<bool> + 'a) -> Code<'a> {
        Code::B(Arg::Op(Box::new(op)))
    }

    /// The value as slot bits, with its kind; a tuple has neither.
    fn bits(self) -> Option<(Ty, Op<'a, u64>)> {
        Some(match self {
            Code::N(n) => (Ty::N, n.op()),
            Code::R(Arg::Const(r)) => (Ty::R, Box::new(move |_| Some(r.to_bits()))),
            Code::R(Arg::Op(r)) => (Ty::R, Box::new(move |f| Some(r(f)?.to_bits()))),
            Code::B(Arg::Const(b)) => (Ty::B, Box::new(move |_| Some(u64::from(b)))),
            Code::B(Arg::Op(b)) => (Ty::B, Box::new(move |f| Some(u64::from(b(f)?)))),
            Code::T(..) => return None,
        })
    }
}

/// The kind of value a slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    N,
    R,
    B,
}

impl Ty {
    /// An empty column of this kind with room for `n` cells.
    fn column(self, n: usize) -> Column {
        match self {
            Ty::N => Column::Nat(Vec::with_capacity(n)),
            Ty::R => Column::F64(Vec::with_capacity(n)),
            Ty::B => Column::Bool(Vec::with_capacity(n)),
        }
    }
}

fn let_in<'a, T: 'a>(slot: usize, bound: Op<'a, u64>, body: Op<'a, T>) -> Op<'a, T> {
    Box::new(move |f| {
        f.slots.get(slot)?.set(bound(f)?);
        body(f)
    })
}

fn branch<'a, T: 'a>(
    cond: Op<'a, bool>,
    (then, then_cost): (Op<'a, T>, Cost),
    (other, other_cost): (Op<'a, T>, Cost),
) -> Op<'a, T> {
    Box::new(move |f| {
        if cond(f)? {
            f.charge(then_cost, 1);
            then(f)
        } else {
            f.charge(other_cost, 1);
            other(f)
        }
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

/// `⊥` as code of whatever kind the other branch has.
fn escape<'a, T: 'a>() -> Op<'a, T> {
    Box::new(|_| None)
}

/// A site's flat offset into its cells: `konst + Σ coef · slot` over
/// the indices of that form (every loop-variable-plus-offset index has
/// it), with strides and the window origin folded in, plus
/// `Σ stride · index` over the rest.
struct Offset<'a> {
    konst: u64,
    terms: Vec<(usize, u64)>,
    rest: Vec<(Op<'a, u64>, u64)>,
}

impl Offset<'_> {
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

/// An index as `konst + Σ coef · slot` over `nat` slots.
type Affine = (u64, Vec<(usize, u64)>);

/// Binding: types a plan's expressions against the operands and
/// captures of one evaluation, producing [`Code`].
struct Binder<'a> {
    root_trips: u64,
    /// What the governor admits as one window, in cells.
    admissible: u64,
    caps: Vec<V>,
    arrays: &'a [Rc<ArrayVal>],
    sites: &'a [Site],
    /// The kind each slot holds where the code being bound can see it,
    /// and — for a loop variable whose trip count is known now — the
    /// largest value it takes (the least is 0).
    vars: Vec<(Ty, Option<u64>)>,
}

impl<'a> Binder<'a> {
    fn affine(&self, p: &P) -> Option<Affine> {
        match p {
            P::Const(V::N(n)) => Some((*n, Vec::new())),
            P::Cap(k) => match self.caps.get(*k)? {
                V::N(n) => Some((*n, Vec::new())),
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

    /// Every value an index of that form takes in this run, as far as
    /// the ranges of its loop variables are known: from `konst` up.
    fn reach(&self, (konst, terms): &Affine) -> Iv {
        let hi = terms.iter().try_fold(*konst, |hi, (slot, coef)| {
            hi.checked_add(coef.checked_mul(self.vars.get(*slot)?.1?)?)
        });
        Iv { lo: *konst, hi }
    }

    fn nat(&mut self, p: &'a P) -> Option<Op<'a, u64>> {
        match self.code(p)? {
            Code::N(n) => Some(n.op()),
            _ => None,
        }
    }

    /// A `gen` loop's trip count; its variable is a `nat` below it.
    fn loop_of(&mut self, fold: &'a Fold) -> Option<Arg<'a, u64>> {
        let Code::N(n) = self.code(&fold.n)? else { return None };
        let hi = match n {
            Arg::Const(n) => n.checked_sub(1),
            Arg::Op(_) => None,
        };
        *self.vars.get_mut(fold.slot)? = (Ty::N, hi);
        Some(n)
    }

    fn bind_let(&mut self, slot: usize, bound: &'a P) -> Option<Op<'a, u64>> {
        let (ty, bits) = self.code(bound)?.bits()?;
        *self.vars.get_mut(slot)? = (ty, None);
        Some(bits)
    }

    /// A branch of an `if`: `None` for `⊥`, which the other one types.
    fn arm(&mut self, p: &'a P) -> Option<Option<Code<'a>>> {
        match p {
            P::Bottom => Some(None),
            p => self.code(p).map(Some),
        }
    }

    fn code(&mut self, p: &'a P) -> Option<Code<'a>> {
        Some(match p {
            P::Const(v) => Code::constant(*v),
            P::Cap(k) => Code::constant(*self.caps.get(*k)?),
            P::Trips => Code::constant(V::N(self.root_trips)),
            P::Slot(s) => {
                let s = *s;
                match self.vars.get(s)?.0 {
                    Ty::N => Code::n(move |f| Some(f.slots.get(s)?.get())),
                    Ty::R => Code::r(move |f| Some(f64::from_bits(f.slots.get(s)?.get()))),
                    Ty::B => Code::b(move |f| Some(f.slots.get(s)?.get() != 0)),
                }
            }
            P::Arith(op, a, b) => {
                let op = *op;
                match (self.code(a)?, self.code(b)?) {
                    (Code::N(a), Code::N(b)) => {
                        Code::N(binary(a, b, move |x, y| nat_arith(op, x, y)))
                    }
                    (Code::R(a), Code::R(b)) => {
                        Code::R(binary(a, b, move |x, y| Some(real_arith(op, x, y))))
                    }
                    // Only an empty real sum's `0 : nat` mixes kinds.
                    _ => return None,
                }
            }
            P::Cmp(op, a, b) => {
                let op = *op;
                Code::B(match (self.code(a)?, self.code(b)?) {
                    (Code::N(a), Code::N(b)) => {
                        binary(a, b, move |x, y| Some(holds(op, x.cmp(&y))))
                    }
                    (Code::R(a), Code::R(b)) => {
                        binary(a, b, move |x, y| Some(holds(op, x.total_cmp(&y))))
                    }
                    (Code::B(a), Code::B(b)) => {
                        binary(a, b, move |x, y| Some(holds(op, x.cmp(&y))))
                    }
                    _ => return None,
                })
            }
            P::If(c, t, e) => {
                let Code::B(c) = self.code(c)? else { return None };
                let c = c.op();
                match (self.arm(&t.0)?, self.arm(&e.0)?) {
                    (Some(Code::N(x)), Some(Code::N(y))) => {
                        Code::N(Arg::Op(branch(c, (x.op(), t.1), (y.op(), e.1))))
                    }
                    (Some(Code::R(x)), Some(Code::R(y))) => {
                        Code::R(Arg::Op(branch(c, (x.op(), t.1), (y.op(), e.1))))
                    }
                    (Some(Code::B(x)), Some(Code::B(y))) => {
                        Code::B(Arg::Op(branch(c, (x.op(), t.1), (y.op(), e.1))))
                    }
                    (Some(Code::T(x, kinds)), Some(Code::T(y, other))) if kinds == other => {
                        Code::T(Arg::Op(branch(c, (x.op(), t.1), (y.op(), e.1))), kinds)
                    }
                    // A tabulation, a `Σ` and a `⋃` are strict: the
                    // sink's value is `⊥` from the first such cell on.
                    (Some(x), None) => each_kind!(x, |x| branch(c, (x.op(), t.1), (escape(), e.1))),
                    (None, Some(y)) => each_kind!(y, |y| branch(c, (escape(), t.1), (y.op(), e.1))),
                    // Two kinds, or no kind at all.
                    _ => return None,
                }
            }
            P::Let(slot, bound, body) => {
                let bound = self.bind_let(*slot, bound)?;
                each_kind!(self.code(body)?, |body| let_in(*slot, bound, body.op()))
            }
            P::Load(site, idx) => self.load(*site, idx)?,
            P::Dim1(operand) => match self.arrays.get(*operand)?.dims() {
                [d] => Code::constant(V::N(*d)),
                _ => return None,
            },
            P::Tuple(items) => {
                let parts = items.iter().map(|p| self.code(p)?.bits());
                let (kinds, parts): (Vec<Ty>, Vec<_>) = parts.collect::<Option<Vec<_>>>()?.into_iter().unzip();
                let write = move |f: &Frame| {
                    for (slot, part) in f.row.iter().zip(&parts) {
                        slot.set(part(f)?);
                    }
                    Some(())
                };
                Code::T(Arg::Op(Box::new(write)), kinds)
            }
            P::Fold(fold) if fold.kind == FoldKind::Sum => {
                let n = self.loop_of(fold)?;
                let (slot, per_iter) = (fold.slot, fold.per_iter);
                match self.code(&fold.head)? {
                    Code::N(h) => {
                        let h = h.op();
                        Code::n(move |f| {
                            let mut acc = 0u64;
                            f.each(n.get(f)?, slot, per_iter, |f| {
                                acc = acc.checked_add(h(f)?)?;
                                Some(())
                            })?;
                            Some(acc)
                        })
                    }
                    Code::R(h) => {
                        let h = h.op();
                        Code::r(move |f| {
                            // The interpreter's sum of nothing is `0 : nat`.
                            let n = n.get(f).filter(|&n| n > 0)?;
                            // One accumulator per level, from 0.0, in
                            // iteration order: the interpreter's
                            // association.
                            let mut acc = 0.0f64;
                            f.each(n, slot, per_iter, |f| {
                                acc += h(f)?;
                                Some(())
                            })?;
                            Some(acc)
                        })
                    }
                    Code::B(_) | Code::T(..) => return None,
                }
            }
            // Set levels are bound by `level`; a `⊥` no `if` types.
            P::Fold(_) | P::Bottom => return None,
        })
    }

    fn load(&mut self, site: usize, idx: &'a [P]) -> Option<Code<'a>> {
        let s = self.sites.get(site)?;
        let a = self.arrays.get(s.operand)?;
        let forms: Vec<Option<Affine>> = idx.iter().map(|p| self.affine(p)).collect();
        // A lazy operand is read as one window where that pays: the
        // box this run's indices span has no more cells than the site
        // has executions. Per axis the box is the index's reach (known
        // now: captures, trip counts) inside the analyzer's interval
        // (sound over the whole statement, so never narrower than needed).
        let window = match a.array_data() {
            ArrayData::Lazy(l) => {
                let axes = forms.iter().zip(&s.axes).map(|(form, mark)| match form {
                    Some(form) => self.reach(form).meet(*mark),
                    None => *mark,
                });
                let most = self.root_trips.saturating_mul(s.inner_trips).min(self.admissible);
                match window_of(axes, a.dims(), most) {
                    Some((start, count)) => {
                        Some((l.borrow_mut().read_slab(&start, &count).ok()?, start, count))
                    }
                    None => None,
                }
            }
            _ => None,
        };
        // Row-major strides of what is read (the operand, or the
        // window), and the window origin's offset under them.
        let (strides, base) = match &window {
            Some((_, start, count)) => {
                let strides = strides(count);
                let base = start.iter().zip(&strides).map(|(s, k)| s.wrapping_mul(*k)).sum();
                (strides, base)
            }
            None => (strides(a.dims()), 0),
        };
        let mut at = Offset { konst: 0u64.wrapping_sub(base), terms: Vec::new(), rest: Vec::new() };
        for ((p, form), &stride) in idx.iter().zip(forms).zip(&strides) {
            match form {
                Some((konst, terms)) => {
                    at.konst = at.konst.wrapping_add(konst.wrapping_mul(stride));
                    at.terms.extend(terms.iter().map(|(s, c)| (*s, c.wrapping_mul(stride))));
                }
                None => at.rest.push((self.nat(p)?, stride)),
            }
        }
        let at = move |f: &Frame| Some(at.at(f)? as usize);
        // A negative stored integer is a `real` to the interpreter.
        let nat_of = |x: &i64| u64::try_from(*x).ok();
        Some(match (window.map(|w| w.0), a.array_data()) {
            (Some(ScalarBuf::F64(v)), _) => Code::r(move |f| v.get(at(f)?).copied()),
            (Some(ScalarBuf::I64(v)), _) => Code::n(move |f| nat_of(v.get(at(f)?)?)),
            (Some(ScalarBuf::Bool(v)), _) => Code::b(move |f| v.get(at(f)?).copied()),
            (None, ArrayData::Flat(Column::F64(v))) => Code::r(move |f| v.get(at(f)?).copied()),
            (None, ArrayData::Flat(Column::Nat(v))) => Code::n(move |f| v.get(at(f)?).copied()),
            (None, ArrayData::Flat(Column::Bool(v))) => Code::b(move |f| v.get(at(f)?).copied()),
            // No window: one cache lookup per element.
            (None, ArrayData::Lazy(l)) => {
                let get = move |f: &Frame| l.borrow_mut().get_linear(at(f)? as u64).ok()?;
                match l.borrow().kind() {
                    ScalarKind::F64 => Code::r(move |f| match get(f)? {
                        Scalar::F64(x) => Some(x),
                        _ => None,
                    }),
                    ScalarKind::I64 => Code::n(move |f| match get(f)? {
                        Scalar::I64(x) => nat_of(&x),
                        _ => None,
                    }),
                    ScalarKind::Bool => Code::b(move |f| match get(f)? {
                        Scalar::Bool(b) => Some(b),
                        _ => None,
                    }),
                }
            }
            (None, ArrayData::Materialized(_) | ArrayData::Columns(_)) => return None,
        })
    }

    /// One level of a `min!`/`max!` comprehension: code that folds the
    /// level's heads into the frame's `best` under the canonical order,
    /// and the kind of those heads.
    fn level(&mut self, kind: FoldKind, p: &'a P) -> Option<(Op<'a, ()>, Ty)> {
        match p {
            P::Fold(fold) if fold.kind == kind => {
                let n = self.loop_of(fold)?;
                let (slot, per_iter) = (fold.slot, fold.per_iter);
                let (body, ty) = self.level(kind, &fold.head)?;
                Some((Box::new(move |f| f.each(n.get(f)?, slot, per_iter, &body)), ty))
            }
            P::Let(slot, bound, body) => {
                let bound = self.bind_let(*slot, bound)?;
                let (body, ty) = self.level(kind, body)?;
                Some((let_in(*slot, bound, body), ty))
            }
            head => {
                // Keep `v` (as `bits`) if nothing is kept yet or it
                // beats what is, `ord` comparing it to kept bits.
                let wins = if kind == FoldKind::Max { Ordering::Greater } else { Ordering::Less };
                fn keep(f: &Frame, bits: u64, wins: Ordering, ord: impl Fn(u64) -> Ordering) {
                    if f.best.get().is_none_or(|best| ord(best) == wins) {
                        f.best.set(Some(bits));
                    }
                }
                Some(match self.code(head)? {
                    Code::N(h) => {
                        let h = h.op();
                        let op = move |f: &Frame| {
                            let v = h(f)?;
                            keep(f, v, wins, |best| v.cmp(&best));
                            Some(())
                        };
                        (Box::new(op), Ty::N)
                    }
                    Code::R(h) => {
                        let h = h.op();
                        let op = move |f: &Frame| {
                            let v = h(f)?;
                            keep(f, v.to_bits(), wins, |best| v.total_cmp(&f64::from_bits(best)));
                            Some(())
                        };
                        (Box::new(op), Ty::R)
                    }
                    Code::B(h) => {
                        let h = h.op();
                        let op = move |f: &Frame| {
                            let v = u64::from(h(f)?);
                            keep(f, v, wins, |best| v.cmp(&best));
                            Some(())
                        };
                        (Box::new(op), Ty::B)
                    }
                    Code::T(..) => return None,
                })
            }
        }
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

/// The window of a lazy operand a site reads — `(start, count)` of the
/// box of its per-axis index intervals — if every interval is finite,
/// the box lies inside the array (re-checked here: neither a mark nor a
/// folded index is trusted with a slab request) and it has no more than
/// `most` cells. Otherwise the site reads per element.
fn window_of(
    axes: impl Iterator<Item = Iv>,
    dims: &[u64],
    most: u64,
) -> Option<(Vec<u64>, Vec<u64>)> {
    let mut start = Vec::with_capacity(dims.len());
    let mut count = Vec::with_capacity(dims.len());
    let mut cells = 1u64;
    for (iv, &d) in axes.zip(dims) {
        let n = iv.hi?.checked_sub(iv.lo)?.checked_add(1)?;
        if iv.lo.checked_add(n)? > d {
            return None;
        }
        cells = cells.checked_mul(n)?;
        start.push(iv.lo);
        count.push(n);
    }
    (cells <= most).then_some((start, count))
}

/// Run `plan` — the plan of `fallback` — in `env`. `None` is the
/// module's one escape: no counter of `ctx` has changed (but the trace's
/// count of escapes) and the caller evaluates `fallback` itself.
pub(super) fn run(plan: &KernelPlan, fallback: &CExpr, env: &Env, ctx: &EvalCtx) -> Option<Value> {
    let saved = ctx.counters();
    let out = bind_and_run(plan, fallback, env, ctx);
    if out.is_none() {
        // The root's bounds were evaluated by the interpreter, which
        // charged them; the fallback will charge them again.
        ctx.set_counters(saved);
        ctx.kernel_escapes.set(ctx.kernel_escapes.get() + 1);
    }
    out
}

fn bind_and_run(plan: &KernelPlan, fallback: &CExpr, env: &Env, ctx: &EvalCtx) -> Option<Value> {
    // Everything that can refuse cheaply comes before the bounds are
    // evaluated, so that a nest of the wrong shape costs no evaluation.
    let mut arrays = Vec::with_capacity(plan.operands.len());
    for o in &plan.operands {
        let Value::Array(a) = outer(o, env, ctx)? else { return None };
        if matches!(a.array_data(), ArrayData::Materialized(_) | ArrayData::Columns(_)) {
            return None;
        }
        arrays.push(a.clone());
    }
    let caps = plan.captures.iter().map(|o| V::of(outer(o, env, ctx)?)).collect::<Option<_>>()?;
    for s in &plan.sites {
        // The marks are conditional on the arity being the rank.
        if arrays.get(s.operand)?.rank() != s.axes.len() {
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

    // What `governor::admit_materialization` admits, in cells. (Asked
    // here rather than of it, so that a refusal — which escapes to the
    // interpreter, which asks — is recorded as one denial, not two.)
    let admissible = aql_store::governor::budget().map_or(u64::MAX, |bytes| bytes / 8);
    // A tabulation's variables range below its extents (a root fold's
    // is entered by `loop_of`, like any other).
    let mut vars = vec![(Ty::N, None); plan.slots];
    for (var, d) in vars.iter_mut().zip(&dims) {
        var.1 = d.checked_sub(1);
    }
    let mut binder =
        Binder { root_trips, admissible, caps, arrays: &arrays, sites: &plan.sites, vars };
    let frame = Frame {
        ctx,
        max_loop: admissible.min(ctx.limits.max_elems),
        slots: vec![Cell::new(0); plan.slots],
        row: vec![Cell::new(0); plan.row],
        best: Cell::new(None),
        steps: Cell::new(0),
        subs: Cell::new(0),
        materialized: Cell::new(0),
        unpolled: Cell::new(0),
    };
    let value = match &plan.root {
        Root::Tab { head, per_cell } => {
            // The tabulation node itself.
            frame.steps.set(1);
            let arr = if root_trips == 0 {
                // What the interpreter builds from no cells.
                frame.enter(0, *per_cell)?;
                ArrayVal::new(dims, Vec::new())
            } else {
                match binder.code(head)? {
                    Code::N(h) => {
                        let cells = frame.cells(&dims, *per_cell, h.op())?;
                        ArrayVal::from_nat(dims, cells)
                    }
                    Code::R(h) => {
                        let cells = frame.cells(&dims, *per_cell, h.op())?;
                        ArrayVal::from_f64(dims, cells)
                    }
                    Code::B(h) => {
                        let cells = frame.cells(&dims, *per_cell, h.op())?;
                        ArrayVal::from_bool(dims, cells)
                    }
                    Code::T(h, kinds) => {
                        let h = h.op();
                        let columns = |n| kinds.iter().map(|ty| ty.column(n)).collect::<Vec<_>>();
                        let cols = frame.fill(&dims, *per_cell, columns, |f, cols| {
                            h(f)?;
                            f.append_row(cols);
                            Some(())
                        })?;
                        ArrayVal::from_columns(dims, cols)
                    }
                }
            };
            Value::Array(Rc::new(arr.ok()?))
        }
        Root::Fold { kind: FoldKind::Sum, nest, fixed } => {
            frame.steps.set(*fixed);
            // (A real sum of nothing escapes here as it does inside a
            // nest: the interpreter's answer is `0 : nat`.)
            match binder.code(nest)? {
                Code::N(n) => Value::Nat(n.get(&frame)?),
                Code::R(r) => Value::Real(r.get(&frame)?),
                _ => return None,
            }
        }
        Root::Fold { kind, nest, fixed } => {
            frame.steps.set(*fixed);
            let (fold, ty) = binder.level(*kind, nest)?;
            fold(&frame)?;
            match (frame.best.get(), ty) {
                // `min!`/`max!` of the empty set.
                (None, _) => Value::Bottom,
                (Some(b), Ty::N) => Value::Nat(b),
                (Some(b), Ty::R) => Value::Real(f64::from_bits(b)),
                (Some(b), Ty::B) => Value::Bool(b != 0),
            }
        }
    };

    // Commit. The interpreter looks at the interrupts whenever its step
    // count crosses a multiple of the check interval; so does this.
    let before = ctx.steps.get();
    let after = before.checked_add(frame.steps.get()).filter(|&s| s <= ctx.limits.max_steps)?;
    if before / (INTERRUPT_CHECK_MASK + 1) != after / (INTERRUPT_CHECK_MASK + 1) {
        ctx.check_interrupts().ok()?;
    }
    ctx.steps.set(after);
    ctx.subscripts.set(ctx.subscripts.get() + frame.subs.get());
    ctx.elided.set(ctx.elided.get() + frame.subs.get());
    ctx.materialized.set(ctx.materialized.get() + frame.materialized.get());
    ctx.kernel_nests.set(ctx.kernel_nests.get() + 1);
    ctx.kernel_cells.set(ctx.kernel_cells.get() + frame.materialized.get());
    Some(value)
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
        lookups: u64,
    }

    /// Evaluate `e` with every subscript marked from `vars` (`None`:
    /// unmarked, the reference interpreter).
    fn run(e: &Expr, globals: &HashMap<Name, Value>, limits: &Limits, vars: Option<Vars>) -> Outcome {
        let externals = Extensions::new();
        let ctx = EvalCtx::new(globals, &externals).with_limits(limits.clone());
        let value = match vars {
            None => eval(e, &ctx),
            Some(vars) => eval_marked(e, &ctx, &|site| match site {
                Expr::Sub(_, idx) => Some(idx.iter().map(|i| iv(i, vars)).collect()),
                _ => None,
            }),
        };
        let s = ctx.stats();
        Outcome {
            value,
            steps: s.steps,
            subscripts: s.subscripts,
            elided: s.elided,
            materialized: s.materialized,
            nests: ctx.kernel_nests(),
            escapes: ctx.kernel_escapes.get(),
            lookups: s.cache.hits + s.cache.misses,
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
        // rows 3..=14 (three chunks) and 21..=32 (two).
        for ((e, vars), chunks) in stmts.iter().zip([4, 4, 4, 5]) {
            let got = same(e, &g, vars);
            assert_eq!(got.nests, 1, "{e}");
            assert_eq!(got.lookups, chunks, "one lookup per overlapped chunk: {e}");
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
        // A nest inside an interpreted loop is bound once per
        // iteration, to that iteration's variable.
        let a = array(ArrayVal::from_f64(vec![3, 4], reals(12)));
        let g = world(vec![("A", a)]);
        let row = sum("i", gen(nat(4)), sub(global("A"), vec![var("d"), var("i")]));
        let e = big_union("d", gen(nat(3)), single(row));
        assert_eq!(same(&e, &g, &[("d", below(3)), ("i", below(4))]).nests, 3);
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

    #[test]
    fn a_column_array_operand_is_refused_like_a_boxed_one() {
        // Read as a flat buffer, `Z[i]` would be a real, not a pair.
        let z = ArrayVal::new(
            vec![3],
            (0..3).map(|i| Value::tuple(vec![Value::Real(i as f64), Value::Nat(i)])).collect(),
        );
        let boxed = Value::array1(vec![Value::Nat(1), Value::Bottom, Value::Nat(2)]);
        let g = world(vec![("Z", array(z)), ("M", boxed)]);
        assert!(matches!(g[&name("Z")].as_array().unwrap().array_data(), ArrayData::Columns(_)));
        for operand in ["Z", "M"] {
            let e = tab1("i", nat(3), sub(global(operand), vec![var("i")]));
            let got = same(&e, &g, &[("i", below(3))]);
            assert_eq!((got.nests, got.escapes), (0, 1), "{e}");
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
        assert_eq!((got.nests, got.lookups), (4, 4 * 2 * 2), "{e}");
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
}
