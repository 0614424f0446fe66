//! Query evaluation: the "object module" of Fig. 3.
//!
//! Evaluation mirrors the paper's pipeline: the named AST (after
//! optimization) is *compiled* to a nameless de-Bruijn form ([`CExpr`])
//! and then either *interpreted* against a persistent environment
//! ([`eval_compiled`]) or — for a pure scalar loop nest whose
//! subscripts the analyzer all proved in range — run as a bulk *kernel*
//! over unboxed operand windows ([`KernelPlan`]), with the interpreter as
//! the fallback and the reference. Semantics follow §2:
//!
//! * strict propagation of the error value `⊥` (except through the
//!   branches of `if`),
//! * `e1[e2]` is `⊥` out of bounds; `get` of a non-singleton is `⊥`;
//!   division/modulo by zero at `nat` is `⊥`,
//! * sets are canonical; `Σ` ranges over *distinct* elements,
//! * `index_k` fills holes with `{}` and groups colliding keys (§2),
//! * the ranked unions of §6 traverse elements in the canonical order
//!   `≤_t`, ranking from 1.
//!
//! Resource limits ([`Limits`]) bound materialisation (`gen`,
//! tabulation, `index`) and total evaluation steps.

pub mod bounds;
mod compile;
mod kernel;

pub use compile::{compile, compile_marked, compile_observed, CExpr};
pub use kernel::KernelPlan;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::error::EvalError;
use crate::expr::{ArithOp, CmpOp, Expr, Name, Prim};
use crate::prim::Extensions;
use crate::value::array::checked_product;
use crate::value::ord::canonical_cmp;
use crate::value::{ArrayVal, CoBag, CoSet, Value};

/// A persistent cons-list environment. Pushing is O(1) and shares the
/// tail, which is what makes closure capture cheap.
#[derive(Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

struct EnvNode {
    val: Value,
    next: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extend with a value (de-Bruijn index 0 afterwards).
    pub fn push(&self, val: Value) -> Env {
        Env(Some(Rc::new(EnvNode { val, next: self.clone() })))
    }

    /// Look up de-Bruijn index `i`. An out-of-range index means the
    /// compiler produced a variable the environment cannot supply —
    /// reported as [`EvalError::Internal`] rather than a panic so a
    /// session survives a miscompiled term.
    fn get(&self, i: usize) -> Result<&Value, EvalError> {
        let oor = || EvalError::Internal(format!("de-Bruijn index {i} out of range"));
        let mut node = self.0.as_deref().ok_or_else(oor)?;
        for _ in 0..i {
            node = node.next.0.as_deref().ok_or_else(oor)?;
        }
        Ok(&node.val)
    }

    fn depth(&self) -> usize {
        let mut n = 0;
        let mut cur = &self.0;
        while let Some(node) = cur {
            n += 1;
            cur = &node.next.0;
        }
        n
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Env(depth={})", self.depth())
    }
}

/// A closure value: compiled body plus captured environment.
#[derive(Clone)]
pub struct Closure {
    body: Rc<CExpr>,
    env: Env,
}

impl std::fmt::Debug for Closure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<closure>")
    }
}

/// Evaluation resource limits.
///
/// Besides the element/step budgets, a limit set can carry a
/// *cooperative* wall-clock deadline and a cancellation flag. Both are
/// checked on the existing step-count path (every
/// `INTERRUPT_CHECK_MASK`+1 steps), so a runaway query is stopped
/// without any signal handling — and a blocked *host* call is, by
/// design, not interrupted (the contract is cooperative).
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum number of elements any single `gen` / tabulation /
    /// `index` may materialise.
    pub max_elems: u64,
    /// Maximum number of evaluation steps (AST node visits).
    pub max_steps: u64,
    /// Wall-clock budget for one evaluation, measured from context
    /// construction (`None` = unlimited). Exceeding it surfaces
    /// [`EvalError::Deadline`].
    pub timeout: Option<std::time::Duration>,
    /// Cooperative cancellation: set the flag (typically from another
    /// thread) to stop the evaluation with [`EvalError::Cancelled`].
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

/// `tick` checks the deadline/cancellation every `MASK + 1` steps.
const INTERRUPT_CHECK_MASK: u64 = 0xFF;

impl Default for Limits {
    fn default() -> Limits {
        Limits { max_elems: 1 << 28, max_steps: u64::MAX, timeout: None, cancel: None }
    }
}

impl Limits {
    /// The default limits with a wall-clock timeout.
    pub fn with_timeout(timeout: std::time::Duration) -> Limits {
        Limits { timeout: Some(timeout), ..Limits::default() }
    }
}

/// Aggregate statistics for one evaluation: steps consumed plus the
/// chunk-cache activity of any lazy arrays the query touched. What the
/// bulk kernels did is [`KernelStats`], beside it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluation steps (AST node visits).
    pub steps: u64,
    /// Array subscript operations performed.
    pub subscripts: u64,
    /// Subscript operations that took the bounds-check-elided fast
    /// path (marked in range through [`eval_marked`]).
    pub elided: u64,
    /// Elements admitted for materialization by `gen`, tabulation,
    /// array literals, and `index` (the sites governed by
    /// `Limits::max_elems`).
    pub materialized: u64,
    /// Chunk-cache counters of the statement: its attribution row,
    /// filled by the session (zero from [`EvalCtx::stats`]).
    pub cache: aql_store::CacheStats,
}

impl EvalStats {
    /// Component-wise sum (cache counters included). Used by sessions
    /// that accumulate per-statement stats into a run total.
    pub fn merged(&self, other: &EvalStats) -> EvalStats {
        EvalStats {
            steps: self.steps + other.steps,
            subscripts: self.subscripts + other.subscripts,
            elided: self.elided + other.elided,
            materialized: self.materialized + other.materialized,
            cache: aql_store::CacheStats {
                hits: self.cache.hits + other.cache.hits,
                misses: self.cache.misses + other.cache.misses,
                evictions: self.cache.evictions + other.cache.evictions,
                bytes_read: self.cache.bytes_read + other.cache.bytes_read,
                prefetched_bytes: self.cache.prefetched_bytes + other.cache.prefetched_bytes,
                load_errors: self.cache.load_errors + other.cache.load_errors,
            },
        }
    }
}

/// What planning and running the bulk kernels counted in one
/// evaluation. The interpreter's charges are [`EvalStats`]; these
/// numbers say how the evaluation got its answer, not what it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Subscript sites compiled with their bounds check elided (none
    /// while [`bounds::enabled`] is off).
    pub marked_sites: u64,
    /// Loop nests run as bulk kernels.
    pub nests: u64,
    /// Loop iterations those kernels covered.
    pub cells: u64,
    /// Rows their loops ran.
    pub rows: u64,
    /// Kernel entries that handed their nest back to the interpreter.
    pub escapes: u64,
    /// Times a nest was bound.
    pub binds: u64,
}

impl KernelStats {
    /// Component-wise sum.
    pub fn merged(&self, o: &KernelStats) -> KernelStats {
        KernelStats {
            marked_sites: self.marked_sites + o.marked_sites,
            nests: self.nests + o.nests,
            cells: self.cells + o.cells,
            rows: self.rows + o.rows,
            escapes: self.escapes + o.escapes,
            binds: self.binds + o.binds,
        }
    }
}

/// Evaluation context: session `val` bindings, external primitives,
/// and resource limits.
pub struct EvalCtx<'a> {
    /// Session-level `val` bindings referenced by [`Expr::Global`].
    pub globals: &'a HashMap<Name, Value>,
    /// Registered external primitives referenced by [`Expr::Ext`].
    pub externals: &'a Extensions,
    /// Resource limits.
    pub limits: Limits,
    /// Absolute deadline derived from `limits.timeout` at construction.
    deadline: Option<std::time::Instant>,
    steps: Cell<u64>,
    subscripts: Cell<u64>,
    elided: Cell<u64>,
    materialized: Cell<u64>,
    kernel: Cell<KernelStats>,
    /// The nests bound in this evaluation, for their next entry.
    kernels: RefCell<Vec<kernel::Bound>>,
    /// This thread's [`crate::stack::limit`], read once here.
    stack_limit: usize,
}

impl<'a> EvalCtx<'a> {
    /// Build a context over the given registries.
    pub fn new(globals: &'a HashMap<Name, Value>, externals: &'a Extensions) -> EvalCtx<'a> {
        EvalCtx {
            globals,
            externals,
            limits: Limits::default(),
            deadline: None,
            steps: Cell::new(0),
            subscripts: Cell::new(0),
            elided: Cell::new(0),
            materialized: Cell::new(0),
            kernel: Cell::new(KernelStats::default()),
            kernels: RefCell::new(Vec::new()),
            stack_limit: crate::stack::limit(),
        }
    }

    /// Override the limits. The wall-clock deadline (if any) starts
    /// counting from this call.
    pub fn with_limits(mut self, limits: Limits) -> EvalCtx<'a> {
        self.deadline = limits.timeout.map(|t| std::time::Instant::now() + t);
        self.limits = limits;
        self
    }

    /// Steps consumed so far.
    pub fn steps_used(&self) -> u64 {
        self.steps.get()
    }

    /// What the bulk kernels of this context's evaluations counted.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kernel.get()
    }

    fn count_kernel(&self, f: impl FnOnce(&mut KernelStats)) {
        let mut k = self.kernel.get();
        f(&mut k);
        self.kernel.set(k);
    }

    /// The four evaluation counters, for a kernel to put back when it
    /// escapes to the interpreter.
    fn counters(&self) -> [u64; 4] {
        [self.steps.get(), self.subscripts.get(), self.elided.get(), self.materialized.get()]
    }

    fn set_counters(&self, [steps, subscripts, elided, materialized]: [u64; 4]) {
        self.steps.set(steps);
        self.subscripts.set(subscripts);
        self.elided.set(elided);
        self.materialized.set(materialized);
    }

    /// Evaluation counters for the evaluation driven through this
    /// context. `cache` is left zero: a statement's chunk-cache counters
    /// are its attribution row, which the session reads.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            steps: self.steps.get(),
            subscripts: self.subscripts.get(),
            elided: self.elided.get(),
            materialized: self.materialized.get(),
            cache: aql_store::CacheStats::default(),
        }
    }

    /// Check the cooperative deadline and cancellation flag. Called
    /// periodically from `EvalCtx::tick`; callers doing long host-side
    /// work may also call it directly.
    pub fn check_interrupts(&self) -> Result<(), EvalError> {
        if let Some(d) = self.deadline {
            if std::time::Instant::now() >= d {
                return Err(EvalError::Deadline);
            }
        }
        if let Some(flag) = &self.limits.cancel {
            if flag.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(EvalError::Cancelled);
            }
        }
        Ok(())
    }

    fn tick(&self) -> Result<(), EvalError> {
        let s = self.steps.get() + 1;
        if s > self.limits.max_steps {
            return Err(EvalError::StepLimit);
        }
        self.steps.set(s);
        if s & INTERRUPT_CHECK_MASK == 0 {
            self.check_interrupts()?;
        }
        Ok(())
    }

    fn check_elems(&self, requested: u64) -> Result<(), EvalError> {
        if requested > self.limits.max_elems {
            return Err(EvalError::ResourceLimit { requested, limit: self.limits.max_elems });
        }
        // Every materialization site (gen / tabulation / array literal
        // / index) passes through this budget check, so it doubles as
        // the materialized-elements profile counter.
        self.materialized.set(self.materialized.get() + requested);
        Ok(())
    }
}

/// Compile and evaluate a closed named expression with every
/// subscript bounds-checked. What it counted is [`EvalCtx::stats`] and
/// [`EvalCtx::kernel_stats`].
pub fn eval(e: &Expr, ctx: &EvalCtx) -> Result<Value, EvalError> {
    eval_marked(e, ctx, &|_| None)
}

/// [`eval`] with the bounds checks of the subscript sites `in_bounds`
/// accepts elided, and the loop nests all of whose sites it accepts run
/// as bulk kernels; [`compile_marked`] states what accepting a site
/// promises. `aql_analysis::eval_elided` is the caller that derives the
/// marks from the abstract interpreter.
pub fn eval_marked(
    e: &Expr,
    ctx: &EvalCtx,
    in_bounds: &dyn Fn(&Expr) -> Option<Vec<bounds::Iv>>,
) -> Result<Value, EvalError> {
    let marked = Cell::new(0u64);
    let c = compile_marked(e, &|site| {
        let mark = in_bounds(site);
        marked.set(marked.get() + u64::from(mark.is_some()));
        mark
    })?;
    if bounds::enabled() {
        ctx.count_kernel(|k| k.marked_sites += marked.get());
    }
    // Make the statement's deadline/cancellation visible to the
    // storage layer for the duration of the evaluation: chunk-load
    // waits (retry backoff, slow sources) poll these hooks, so a hung
    // source cannot outlive its `Limits` (satellite of DESIGN.md §12).
    let _interrupts =
        aql_store::interrupt::install(ctx.deadline, ctx.limits.cancel.clone());
    let out = eval_compiled(&c, &Env::empty(), ctx);
    // The nests bound here are this evaluation's alone.
    ctx.kernels.borrow_mut().clear();
    out
}

fn subscript_arity_error(arity: usize, rank: usize) -> EvalError {
    EvalError::IllTyped(format!("subscript arity {arity} into rank-{rank} array"))
}

/// Evaluate with empty registries and default limits. Convenience for
/// tests and examples.
pub fn eval_closed(e: &Expr) -> Result<Value, EvalError> {
    let globals = HashMap::new();
    let externals = Extensions::new();
    let ctx = EvalCtx::new(&globals, &externals);
    eval(e, &ctx)
}

/// Propagate `⊥` strictly: unwrap a non-bottom value or early-return.
macro_rules! strict {
    ($e:expr) => {{
        let v = $e;
        if v.is_bottom() {
            return Ok(Value::Bottom);
        }
        v
    }};
}

/// Evaluate a compiled expression.
pub fn eval_compiled(c: &CExpr, env: &Env, ctx: &EvalCtx) -> Result<Value, EvalError> {
    // Not a node of the term: a kernel charges what its nest would
    // have, or nothing at all when it hands the nest back.
    if let CExpr::Kernel { plan, fallback } = c {
        return match kernel::run(plan, fallback, env, ctx) {
            Some(v) => Ok(v),
            None => eval_compiled(fallback, env, ctx),
        };
    }
    ctx.tick()?;
    crate::stack::within(ctx.stack_limit).map_err(|_| EvalError::TooDeep)?;
    match c {
        CExpr::Var(i) => Ok(env.get(*i)?.clone()),
        CExpr::Global(n) => ctx
            .globals
            .get(n)
            .cloned()
            .ok_or_else(|| EvalError::UnboundGlobal(n.to_string())),
        CExpr::Ext(n) => ctx
            .externals
            .get(n)
            .map(|f| Value::Native(f.clone()))
            .ok_or_else(|| EvalError::UnboundGlobal(n.to_string())),
        CExpr::Lam(body) => Ok(Value::Closure(Closure { body: body.clone(), env: env.clone() })),
        CExpr::App(f, a) => {
            let vf = strict!(eval_compiled(f, env, ctx)?);
            let va = strict!(eval_compiled(a, env, ctx)?);
            apply(&vf, va, ctx)
        }
        CExpr::Let(bound, body) => {
            let v = strict!(eval_compiled(bound, env, ctx)?);
            eval_compiled(body, &env.push(v), ctx)
        }
        CExpr::Tuple(items) => {
            // Built straight into the `Rc`: one allocation, where a `Vec`
            // turned into an `Rc` is two and a copy (the mapped slice
            // iterator has the exact size `collect` needs for that). A
            // `⊥` component, which is the tuple's value, or an error
            // stops the evaluation of the rest.
            let mut stop = None;
            let t = items.iter().map(|it| {
                if stop.is_none() {
                    match eval_compiled(it, env, ctx) {
                        Ok(v) if !v.is_bottom() => return v,
                        other => stop = Some(other),
                    }
                }
                Value::Bottom
            });
            let t = Value::Tuple(t.collect());
            stop.unwrap_or(Ok(t))
        }
        CExpr::Proj(i, k, e) => {
            let v = strict!(eval_compiled(e, env, ctx)?);
            let t = v.as_tuple()?;
            if t.len() != *k {
                return Err(EvalError::IllTyped(format!(
                    "π_{i},{k} of a {}-tuple",
                    t.len()
                )));
            }
            Ok(t[*i - 1].clone())
        }
        CExpr::Empty => Ok(Value::Set(Rc::new(CoSet::empty()))),
        CExpr::Single(e) => {
            let v = strict!(eval_compiled(e, env, ctx)?);
            Ok(Value::Set(Rc::new(CoSet::singleton(v))))
        }
        CExpr::Union(a, b) => {
            let va = strict!(eval_compiled(a, env, ctx)?);
            let vb = strict!(eval_compiled(b, env, ctx)?);
            Ok(Value::Set(Rc::new(va.as_set()?.union(vb.as_set()?))))
        }
        CExpr::BigUnion { head, src } => {
            let vs = strict!(eval_compiled(src, env, ctx)?);
            let mut collected = Vec::new();
            for x in vs.as_set()?.iter() {
                let h = eval_compiled(head, &env.push(x.clone()), ctx)?;
                if h.is_bottom() {
                    return Ok(Value::Bottom);
                }
                collected.extend(h.as_set()?.iter().cloned());
            }
            Ok(Value::Set(Rc::new(CoSet::from_vec(collected))))
        }
        CExpr::BigUnionRank { head, src } => {
            let vs = strict!(eval_compiled(src, env, ctx)?);
            let mut collected = Vec::new();
            for (i, x) in vs.as_set()?.iter().enumerate() {
                // Rank is 1-based: f(x1,1) ∪ … ∪ f(xn,n) (§6).
                let env2 = env.push(x.clone()).push(Value::Nat(i as u64 + 1));
                let h = eval_compiled(head, &env2, ctx)?;
                if h.is_bottom() {
                    return Ok(Value::Bottom);
                }
                collected.extend(h.as_set()?.iter().cloned());
            }
            Ok(Value::Set(Rc::new(CoSet::from_vec(collected))))
        }
        CExpr::BagEmpty => Ok(Value::Bag(Rc::new(CoBag::empty()))),
        CExpr::BagSingle(e) => {
            let v = strict!(eval_compiled(e, env, ctx)?);
            Ok(Value::Bag(Rc::new(CoBag::singleton(v))))
        }
        CExpr::BagUnion(a, b) => {
            let va = strict!(eval_compiled(a, env, ctx)?);
            let vb = strict!(eval_compiled(b, env, ctx)?);
            Ok(Value::Bag(Rc::new(va.as_bag()?.union(vb.as_bag()?))))
        }
        CExpr::BigBagUnion { head, src } => {
            let vs = strict!(eval_compiled(src, env, ctx)?);
            let mut acc = CoBag::empty();
            for (x, m) in vs.as_bag()?.iter() {
                // Equal occurrences produce equal results: evaluate
                // once and scale the multiplicities.
                let h = eval_compiled(head, &env.push(x.clone()), ctx)?;
                if h.is_bottom() {
                    return Ok(Value::Bottom);
                }
                let scaled = CoBag::from_counted(
                    h.as_bag()?
                        .iter()
                        .map(|(v, n)| (v.clone(), n * m))
                        .collect(),
                );
                acc = acc.union(&scaled);
            }
            Ok(Value::Bag(Rc::new(acc)))
        }
        CExpr::BigBagUnionRank { head, src } => {
            let vs = strict!(eval_compiled(src, env, ctx)?);
            let mut acc = CoBag::empty();
            let mut rank: u64 = 0;
            // Equal occurrences get *consecutive* ranks (§6), so each
            // occurrence must be evaluated separately.
            for x in vs.as_bag()?.iter_occurrences() {
                rank += 1;
                let env2 = env.push(x.clone()).push(Value::Nat(rank));
                let h = eval_compiled(head, &env2, ctx)?;
                if h.is_bottom() {
                    return Ok(Value::Bottom);
                }
                acc = acc.union(h.as_bag()?);
            }
            Ok(Value::Bag(Rc::new(acc)))
        }
        CExpr::Bool(b) => Ok(Value::Bool(*b)),
        CExpr::If(c, t, f) => {
            let vc = strict!(eval_compiled(c, env, ctx)?);
            if vc.as_bool()? {
                eval_compiled(t, env, ctx)
            } else {
                eval_compiled(f, env, ctx)
            }
        }
        CExpr::Cmp(op, a, b) => {
            let va = strict!(eval_compiled(a, env, ctx)?);
            let vb = strict!(eval_compiled(b, env, ctx)?);
            Ok(Value::Bool(holds(*op, canonical_cmp(&va, &vb))))
        }
        CExpr::Nat(n) => Ok(Value::Nat(*n)),
        CExpr::Real(r) => Ok(Value::Real(*r)),
        CExpr::Str(s) => Ok(Value::Str(s.clone())),
        CExpr::Arith(op, a, b) => {
            let va = strict!(eval_compiled(a, env, ctx)?);
            let vb = strict!(eval_compiled(b, env, ctx)?);
            arith(*op, &va, &vb)
        }
        CExpr::Gen(e) => {
            let v = strict!(eval_compiled(e, env, ctx)?);
            let n = v.as_nat()?;
            ctx.check_elems(n)?;
            Ok(Value::Set(Rc::new(CoSet::from_sorted_vec(
                (0..n).map(Value::Nat).collect(),
            ))))
        }
        CExpr::Sum { head, src } => {
            let vs = strict!(eval_compiled(src, env, ctx)?);
            let mut nat_acc: u64 = 0;
            let mut real_acc: f64 = 0.0;
            let mut saw_real = false;
            for x in vs.as_set()?.iter() {
                let h = eval_compiled(head, &env.push(x.clone()), ctx)?;
                match h {
                    Value::Bottom => return Ok(Value::Bottom),
                    Value::Nat(n) => {
                        nat_acc = nat_acc.checked_add(n).ok_or(EvalError::Overflow)?;
                    }
                    Value::Real(r) => {
                        saw_real = true;
                        real_acc += r;
                    }
                    other => {
                        return Err(EvalError::IllTyped(format!(
                            "sum of non-numeric value {other}"
                        )))
                    }
                }
            }
            if saw_real {
                Ok(Value::Real(real_acc))
            } else {
                Ok(Value::Nat(nat_acc))
            }
        }
        CExpr::Tab { head, bounds } => {
            let mut dims = Vec::with_capacity(bounds.len());
            for b in bounds {
                let v = strict!(eval_compiled(b, env, ctx)?);
                dims.push(v.as_nat()?);
            }
            let total = checked_product(&dims)?;
            ctx.check_elems(total)?;
            let mut data = Vec::with_capacity(total as usize);
            if total > 0 {
                let k = dims.len();
                let mut idx = vec![0u64; k];
                loop {
                    // Push i1 first … ik last, so ik is de-Bruijn 0.
                    let mut e2 = env.clone();
                    for &i in &idx {
                        e2 = e2.push(Value::Nat(i));
                    }
                    let v = eval_compiled(head, &e2, ctx)?;
                    if v.is_bottom() {
                        return Ok(Value::Bottom);
                    }
                    data.push(v);
                    // Row-major increment.
                    let mut j = k;
                    loop {
                        if j == 0 {
                            break;
                        }
                        j -= 1;
                        idx[j] += 1;
                        if idx[j] < dims[j] {
                            break;
                        }
                        idx[j] = 0;
                        if j == 0 {
                            j = usize::MAX;
                            break;
                        }
                    }
                    if j == usize::MAX {
                        break;
                    }
                }
            }
            // The loop above produces exactly ∏dims values whenever
            // `dims` is non-empty, but a hand-built rank-0 `Tab` (which
            // `compile` rejects, though `CExpr` is constructible
            // directly) would violate the shape invariant — surface
            // that as an internal error instead of aborting.
            let arr = ArrayVal::new(dims, data).map_err(|e| {
                EvalError::Internal(format!("tabulation produced an inconsistent shape: {e}"))
            })?;
            Ok(Value::Array(Rc::new(arr)))
        }
        CExpr::Sub(arr, idx, elide) => {
            ctx.subscripts.set(ctx.subscripts.get() + 1);
            let va = strict!(eval_compiled(arr, env, ctx)?);
            let a = va.as_array()?;
            if elide.is_some() {
                // Bounds-check-elided fast path: the analysis proved
                // every index in range, so the row-major offset is
                // folded directly — no per-axis compares and no index
                // vector allocation. The debug assertion is the
                // soundness tripwire: it fires (across the whole debug
                // test corpus) if an elided check would have failed at
                // run time.
                ctx.elided.set(ctx.elided.get() + 1);
                let mut off: u64 = 0;
                #[cfg(debug_assertions)]
                let mut iv: Vec<u64> = Vec::with_capacity(idx.len());
                for (j, i) in idx.iter().enumerate() {
                    let v = strict!(eval_compiled(i, env, ctx)?);
                    let n = v.as_nat()?;
                    #[cfg(debug_assertions)]
                    iv.push(n);
                    // `get` instead of indexing so an unsound mark can
                    // never abort a release build; the assertion below
                    // is the debug-mode witness that it was sound.
                    off = off * a.dims().get(j).copied().unwrap_or(1) + n;
                }
                // The mark is conditional on the arity being the rank
                // (an unknown array's rank is not the analysis's to
                // prove), so that check is never elided; it comes after
                // the indices, as on the checked path.
                if idx.len() != a.rank() {
                    return Err(subscript_arity_error(idx.len(), a.rank()));
                }
                #[cfg(debug_assertions)]
                debug_assert!(
                    a.offset(&iv) == Some(off as usize),
                    "elided bounds check would have failed: index {iv:?} into dims {:?}",
                    a.dims()
                );
                return Ok(a.try_value_at(off as usize)?.unwrap_or(Value::Bottom));
            }
            let indices: Vec<u64> = if idx.len() == 1 {
                let v = strict!(eval_compiled(&idx[0], env, ctx)?);
                v.as_index()?
            } else {
                let mut out = Vec::with_capacity(idx.len());
                for i in idx {
                    let v = strict!(eval_compiled(i, env, ctx)?);
                    out.push(v.as_nat()?);
                }
                out
            };
            if indices.len() != a.rank() {
                return Err(subscript_arity_error(indices.len(), a.rank()));
            }
            // Out of bounds is the *error value*, not a host error (§2);
            // a *storage* failure on a lazy array is a host error.
            Ok(a.try_get(&indices)?.unwrap_or(Value::Bottom))
        }
        CExpr::Dim(k, e) => {
            let v = strict!(eval_compiled(e, env, ctx)?);
            let a = v.as_array()?;
            if a.rank() != *k {
                return Err(EvalError::IllTyped(format!(
                    "dim_{k} of rank-{} array",
                    a.rank()
                )));
            }
            if *k == 1 {
                Ok(Value::Nat(a.dims()[0]))
            } else {
                Ok(Value::Tuple(a.dims().iter().map(|&d| Value::Nat(d)).collect()))
            }
        }
        CExpr::ArrayLit { dims, items } => {
            let mut ds = Vec::with_capacity(dims.len());
            for d in dims {
                let v = strict!(eval_compiled(d, env, ctx)?);
                ds.push(v.as_nat()?);
            }
            let total = checked_product(&ds)?;
            ctx.check_elems(total)?;
            if total != items.len() as u64 {
                // "undefined if the number of value expressions doesn't
                // match the product of the dimension expressions" (§3).
                return Ok(Value::Bottom);
            }
            let mut data = Vec::with_capacity(items.len());
            for it in items {
                data.push(strict!(eval_compiled(it, env, ctx)?));
            }
            // `total == items.len()` was checked above, but a rank-0
            // literal (`dims` empty — rejected by `compile`, yet
            // constructible as a raw `CExpr`) still fails `new`'s
            // non-empty-dims check; report it rather than abort.
            let arr = ArrayVal::new(ds, data).map_err(|e| {
                EvalError::Internal(format!("array literal shape invariant broken: {e}"))
            })?;
            Ok(Value::Array(Rc::new(arr)))
        }
        CExpr::Index(k, e) => {
            let v = strict!(eval_compiled(e, env, ctx)?);
            index_value(*k, v.as_set()?, ctx)
        }
        CExpr::Get(e) => {
            let v = strict!(eval_compiled(e, env, ctx)?);
            let s = v.as_set()?;
            // `get` of a singleton; anything else is ⊥. Probing the
            // iterator directly avoids an `expect` on `len() == 1`.
            let mut it = s.iter();
            match (it.next(), it.next()) {
                (Some(only), None) => Ok(only.clone()),
                _ => Ok(Value::Bottom),
            }
        }
        CExpr::Bottom => Ok(Value::Bottom),
        // Dispatched before the tick, above.
        CExpr::Kernel { fallback, .. } => eval_compiled(fallback, env, ctx),
        CExpr::Prim(p, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(strict!(eval_compiled(a, env, ctx)?));
            }
            match p {
                Prim::Member => Ok(Value::Bool(vals[1].as_set()?.contains(&vals[0]))),
                Prim::MinSet => Ok(vals[0].as_set()?.min().cloned().unwrap_or(Value::Bottom)),
                Prim::MaxSet => Ok(vals[0].as_set()?.max().cloned().unwrap_or(Value::Bottom)),
            }
        }
    }
}

/// Does a comparison hold, given how its operands are ordered?
fn holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// Apply a function value (closure or native) to an argument.
pub fn apply(f: &Value, arg: Value, ctx: &EvalCtx) -> Result<Value, EvalError> {
    match f {
        Value::Closure(c) => {
            if arg.is_bottom() {
                return Ok(Value::Bottom);
            }
            eval_compiled(&c.body, &c.env.push(arg), ctx)
        }
        Value::Native(n) => n.call(&arg),
        other => Err(EvalError::IllTyped(format!("applying non-function {other}"))),
    }
}

fn arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    match (a, b) {
        (Value::Nat(x), Value::Nat(y)) => Ok(match op {
            ArithOp::Add => Value::Nat(x.checked_add(*y).ok_or(EvalError::Overflow)?),
            ArithOp::Monus => Value::Nat(x.saturating_sub(*y)),
            ArithOp::Mul => Value::Nat(x.checked_mul(*y).ok_or(EvalError::Overflow)?),
            ArithOp::Div => {
                if *y == 0 {
                    Value::Bottom
                } else {
                    Value::Nat(x / y)
                }
            }
            ArithOp::Mod => {
                if *y == 0 {
                    Value::Bottom
                } else {
                    Value::Nat(x % y)
                }
            }
        }),
        (Value::Real(x), Value::Real(y)) => Ok(Value::Real(real_arith(op, *x, *y))),
        // Numeric promotion: a `nat` meeting a `real` promotes. The
        // typechecker keeps surface programs homogeneous; this arm
        // exists because `Σ` over an *empty* set necessarily evaluates
        // to `0 : nat` even when its head is real-typed, and that zero
        // must behave as 0.0 in the surrounding real arithmetic.
        (Value::Nat(x), Value::Real(y)) => Ok(Value::Real(real_arith(op, *x as f64, *y))),
        (Value::Real(x), Value::Nat(y)) => Ok(Value::Real(real_arith(op, *x, *y as f64))),
        _ => Err(EvalError::IllTyped(format!(
            "arithmetic on non-numeric operands {a} and {b}"
        ))),
    }
}

fn real_arith(op: ArithOp, x: f64, y: f64) -> f64 {
    match op {
        ArithOp::Add => x + y,
        ArithOp::Monus => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => x / y,
        ArithOp::Mod => x % y,
    }
}

/// Evaluate `index_k` on a set of `(key, value)` pairs: dimensions are
/// per-component maxima plus one; holes become `{}`; colliding keys
/// group. Cost O(m + n log n) as claimed in §2.
fn index_value(k: usize, pairs: &CoSet, ctx: &EvalCtx) -> Result<Value, EvalError> {
    let mut dims = vec![0u64; k];
    let mut decoded: Vec<(Vec<u64>, Value)> = Vec::with_capacity(pairs.len());
    for p in pairs.iter() {
        let t = p.as_tuple()?;
        if t.len() != 2 {
            return Err(EvalError::IllTyped("index expects (key, value) pairs".into()));
        }
        let key = t[0].as_index()?;
        if key.len() != k {
            return Err(EvalError::IllTyped(format!(
                "index_{k} got a {}-ary key",
                key.len()
            )));
        }
        for (d, &i) in dims.iter_mut().zip(key.iter()) {
            *d = (*d).max(i + 1);
        }
        decoded.push((key, t[1].clone()));
    }
    let total = checked_product(&dims)?;
    ctx.check_elems(total)?;
    let mut buckets: Vec<Vec<Value>> = vec![Vec::new(); total as usize];
    // Compute row-major offsets against the final dims.
    for (key, val) in decoded {
        let mut off: u64 = 0;
        for (&i, &d) in key.iter().zip(dims.iter()) {
            off = off * d + i;
        }
        buckets[off as usize].push(val);
    }
    let data: Vec<Value> = buckets
        .into_iter()
        .map(|b| Value::Set(Rc::new(CoSet::from_vec(b))))
        .collect();
    // `buckets` has exactly ∏dims entries by construction (none, all
    // extents zero, for an empty pair set); only a hand-built `index_0`
    // (rejected by `compile`) can yield empty `dims` here — make that
    // an internal error, not an abort.
    let arr = ArrayVal::new(dims, data).map_err(|e| {
        EvalError::Internal(format!("index produced an inconsistent shape: {e}"))
    })?;
    Ok(Value::Array(Rc::new(arr)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builder::*;

    fn run(e: &Expr) -> Value {
        eval_closed(e).expect("evaluation succeeds")
    }

    fn nats(ns: &[u64]) -> Value {
        Value::set(ns.iter().map(|&n| Value::Nat(n)).collect())
    }

    #[test]
    fn literals_and_arith() {
        assert_eq!(run(&add(nat(2), nat(3))), Value::Nat(5));
        assert_eq!(run(&monus(nat(2), nat(5))), Value::Nat(0), "monus saturates");
        assert_eq!(run(&mul(nat(6), nat(7))), Value::Nat(42));
        assert_eq!(run(&div(nat(7), nat(2))), Value::Nat(3));
        assert_eq!(run(&modulo(nat(7), nat(2))), Value::Nat(1));
        assert_eq!(run(&div(nat(7), nat(0))), Value::Bottom, "div by 0 is ⊥");
        assert_eq!(run(&modulo(nat(7), nat(0))), Value::Bottom);
        assert_eq!(run(&add(real(1.5), real(2.0))), Value::Real(3.5));
        assert_eq!(run(&monus(real(1.0), real(3.0))), Value::Real(-2.0));
    }

    #[test]
    fn empty_real_sum_promotes_in_arithmetic() {
        // Σ{1.5 | x ∈ {}} is nat 0 at run time (the zero of the empty
        // sum cannot know its type); arithmetic promotes it to 0.0.
        let s = sum("x", empty(), real(1.5));
        assert_eq!(run(&s), Value::Nat(0));
        let e = add(real(2.5), sum("x", empty(), real(1.5)));
        assert_eq!(run(&e), Value::Real(2.5));
        let e = mul(sum("x", empty(), real(1.5)), real(9.0));
        assert_eq!(run(&e), Value::Real(0.0));
    }

    #[test]
    fn overflow_is_a_host_error() {
        let e = add(nat(u64::MAX), nat(1));
        assert_eq!(eval_closed(&e).unwrap_err(), EvalError::Overflow);
        let e = mul(nat(u64::MAX), nat(2));
        assert_eq!(eval_closed(&e).unwrap_err(), EvalError::Overflow);
    }

    #[test]
    fn beta_reduction_by_machine() {
        let e = app(lam("x", add(var("x"), nat(1))), nat(41));
        assert_eq!(run(&e), Value::Nat(42));
        // Nested lambdas and shadowing.
        let e = app(app(lam("x", lam("x", var("x"))), nat(1)), nat(2));
        assert_eq!(run(&e), Value::Nat(2));
        // Closure capture.
        let e = app(
            app(lam("x", lam("y", monus(var("x"), var("y")))), nat(10)),
            nat(3),
        );
        assert_eq!(run(&e), Value::Nat(7));
    }

    #[test]
    fn hand_built_index_0_is_an_internal_error_not_an_abort() {
        // `compile` rejects `index_0`, but `CExpr` is constructible
        // directly and `eval_compiled` is public.
        let globals = HashMap::new();
        let externals = Extensions::new();
        let ctx = EvalCtx::new(&globals, &externals);
        let c = CExpr::Index(0, Rc::new(CExpr::Empty));
        assert!(matches!(
            eval_compiled(&c, &Env::empty(), &ctx),
            Err(EvalError::Internal(_))
        ));
    }

    #[test]
    fn let_binding() {
        let e = let_("x", nat(21), add(var("x"), var("x")));
        assert_eq!(run(&e), Value::Nat(42));
        // let is strict in the bound value.
        let e = let_("x", bottom(), nat(5));
        assert_eq!(run(&e), Value::Bottom);
    }

    #[test]
    fn sets_and_big_union() {
        assert_eq!(run(&gen(nat(3))), nats(&[0, 1, 2]));
        assert_eq!(run(&union(single(nat(2)), single(nat(1)))), nats(&[1, 2]));
        // ⋃{ {x*x} | x ∈ gen 4 } = {0,1,4,9}
        let e = big_union("x", gen(nat(4)), single(mul(var("x"), var("x"))));
        assert_eq!(run(&e), nats(&[0, 1, 4, 9]));
        // Deduplication through union.
        let e = big_union("x", gen(nat(4)), single(div(var("x"), nat(2))));
        assert_eq!(run(&e), nats(&[0, 1]));
    }

    #[test]
    fn sum_over_distinct_elements() {
        let e = sum("x", gen(nat(5)), var("x"));
        assert_eq!(run(&e), Value::Nat(10));
        // count(X) = Σ{1 | x ∈ X}: over a 3-element set.
        let e = sum("x", nats_expr(&[4, 4, 7, 9]), nat(1));
        assert_eq!(run(&e), Value::Nat(3), "sets deduplicate before Σ");
    }

    fn nats_expr(ns: &[u64]) -> Expr {
        ns.iter()
            .fold(empty(), |acc, &n| union(acc, single(nat(n))))
    }

    #[test]
    fn conditionals_are_lazy() {
        let e = iff(Expr::Bool(true), nat(1), div(nat(1), nat(0)));
        assert_eq!(run(&e), Value::Nat(1));
        let e = iff(Expr::Bool(false), bottom(), nat(2));
        assert_eq!(run(&e), Value::Nat(2));
        // But strict in the condition.
        let e = iff(bottom(), nat(1), nat(2));
        assert_eq!(run(&e), Value::Bottom);
    }

    #[test]
    fn comparisons() {
        assert_eq!(run(&lt(nat(1), nat(2))), Value::Bool(true));
        assert_eq!(run(&eq(gen(nat(3)), nats_expr(&[0, 1, 2]))), Value::Bool(true));
        assert_eq!(
            run(&le(tuple(vec![nat(1), nat(5)]), tuple(vec![nat(1), nat(5)]))),
            Value::Bool(true)
        );
    }

    #[test]
    fn tabulation_1d() {
        // [[ i*2 | i < 4 ]] = [[0, 2, 4, 6]]
        let e = tab1("i", nat(4), mul(var("i"), nat(2)));
        let v = run(&e);
        let a = v.as_array().unwrap();
        assert_eq!(a.dims(), &[4]);
        let got: Vec<u64> = a.data().iter().map(|v| v.as_nat().unwrap()).collect();
        assert_eq!(got, vec![0, 2, 4, 6]);
    }

    #[test]
    fn tabulation_multidim_row_major() {
        // [[ i*10 + j | i < 2, j < 3 ]]
        let e = tab(
            vec![("i", nat(2)), ("j", nat(3))],
            add(mul(var("i"), nat(10)), var("j")),
        );
        let v = run(&e);
        let a = v.as_array().unwrap();
        assert_eq!(a.dims(), &[2, 3]);
        let got: Vec<u64> = a.data().iter().map(|v| v.as_nat().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn tabulation_with_zero_dimension() {
        let e = tab(vec![("i", nat(3)), ("j", nat(0))], var("i"));
        let v = run(&e);
        assert_eq!(v.as_array().unwrap().dims(), &[3, 0]);
        assert!(v.as_array().unwrap().is_empty());
    }

    #[test]
    fn subscript_and_bounds() {
        let arr = array1_lit(vec![nat(10), nat(20), nat(30)]);
        assert_eq!(run(&sub(arr.clone(), vec![nat(1)])), Value::Nat(20));
        assert_eq!(run(&sub(arr.clone(), vec![nat(3)])), Value::Bottom);
        // Multi-dim subscripts.
        let m = array_lit(vec![nat(2), nat(2)], vec![nat(1), nat(2), nat(3), nat(4)]);
        assert_eq!(run(&sub(m.clone(), vec![nat(1), nat(0)])), Value::Nat(3));
        assert_eq!(run(&sub(m.clone(), vec![nat(2), nat(0)])), Value::Bottom);
        // Subscript by a tuple expression.
        assert_eq!(
            run(&sub(m, vec![tuple(vec![nat(0), nat(1)])])),
            Value::Nat(2)
        );
    }

    #[test]
    fn dim_eval() {
        let arr = array1_lit(vec![nat(1), nat(2)]);
        assert_eq!(run(&len(arr)), Value::Nat(2));
        let m = array_lit(vec![nat(2), nat(3)], vec![nat(0); 6]);
        assert_eq!(
            run(&dim(2, m)),
            Value::tuple(vec![Value::Nat(2), Value::Nat(3)])
        );
    }

    #[test]
    fn array_literal_dynamic_mismatch_is_bottom() {
        let e = array_lit(vec![add(nat(1), nat(2))], vec![nat(1), nat(2)]);
        assert_eq!(run(&e), Value::Bottom);
    }

    #[test]
    fn index_matches_paper_example() {
        // index({(1,"a"), (3,"b"), (1,"c")}) = [[{}, {"a","c"}, {}, {"b"}]]
        let pairs = union(
            union(
                single(tuple(vec![nat(1), strlit("a")])),
                single(tuple(vec![nat(3), strlit("b")])),
            ),
            single(tuple(vec![nat(1), strlit("c")])),
        );
        let v = run(&index(1, pairs));
        let a = v.as_array().unwrap();
        assert_eq!(a.dims(), &[4]);
        assert_eq!(a.get(&[0]).unwrap().as_set().unwrap().len(), 0);
        let g1v = a.get(&[1]).unwrap();
        let g1 = g1v.as_set().unwrap();
        assert_eq!(g1.len(), 2);
        assert!(g1.contains(&Value::str("a")));
        assert!(g1.contains(&Value::str("c")));
        assert_eq!(a.get(&[2]).unwrap().as_set().unwrap().len(), 0);
        assert!(a.get(&[3]).unwrap().as_set().unwrap().contains(&Value::str("b")));
    }

    #[test]
    fn index_empty_and_2d() {
        let v = run(&index(1, empty()));
        assert_eq!(v.as_array().unwrap().dims(), &[0]);
        let pairs = single(tuple(vec![tuple(vec![nat(1), nat(2)]), nat(9)]));
        let v = run(&index(2, pairs));
        let a = v.as_array().unwrap();
        assert_eq!(a.dims(), &[2, 3]);
        assert!(a.get(&[1, 2]).unwrap().as_set().unwrap().contains(&Value::Nat(9)));
        assert_eq!(a.get(&[0, 0]).unwrap().as_set().unwrap().len(), 0);
    }

    #[test]
    fn get_semantics() {
        assert_eq!(run(&get(single(nat(9)))), Value::Nat(9));
        assert_eq!(run(&get(empty())), Value::Bottom);
        assert_eq!(run(&get(union(single(nat(1)), single(nat(2))))), Value::Bottom);
    }

    #[test]
    fn prims_eval() {
        assert_eq!(run(&member(nat(2), gen(nat(5)))), Value::Bool(true));
        assert_eq!(run(&member(nat(9), gen(nat(5)))), Value::Bool(false));
        assert_eq!(run(&set_min(gen(nat(5)))), Value::Nat(0));
        assert_eq!(run(&set_max(gen(nat(5)))), Value::Nat(4));
        assert_eq!(run(&set_min(empty())), Value::Bottom);
    }

    #[test]
    fn bottom_propagates_strictly() {
        assert_eq!(run(&add(bottom(), nat(1))), Value::Bottom);
        assert_eq!(run(&single(bottom())), Value::Bottom);
        assert_eq!(run(&tuple(vec![nat(1), bottom()])), Value::Bottom);
        assert_eq!(run(&len(bottom())), Value::Bottom);
        assert_eq!(run(&sum("x", bottom(), var("x"))), Value::Bottom);
        // ⊥ inside a tabulation head poisons the whole array.
        let e = tab1("i", nat(3), iff(eq(var("i"), nat(1)), bottom(), var("i")));
        assert_eq!(run(&e), Value::Bottom);
        // Application is strict.
        let e = app(lam("x", nat(5)), bottom());
        assert_eq!(run(&e), Value::Bottom);
    }

    #[test]
    fn ranked_union() {
        // rank({10,20,30}) = {(10,1),(20,2),(30,3)}
        let e = big_union_rank(
            "x",
            "i",
            nats_expr(&[20, 10, 30]),
            single(tuple(vec![var("x"), var("i")])),
        );
        let v = run(&e);
        let expect = Value::set(vec![
            Value::tuple(vec![Value::Nat(10), Value::Nat(1)]),
            Value::tuple(vec![Value::Nat(20), Value::Nat(2)]),
            Value::tuple(vec![Value::Nat(30), Value::Nat(3)]),
        ]);
        assert_eq!(v, expect);
    }

    #[test]
    fn ranked_bag_union_consecutive_ranks() {
        // {|5,5,7|} ranked: ranks 1,2,3 across occurrences.
        let src = bag_union(
            bag_union(bag_single(nat(5)), bag_single(nat(5))),
            bag_single(nat(7)),
        );
        let e = big_bag_union_rank("x", "i", src, bag_single(var("i")));
        let v = run(&e);
        let expect = Value::bag(vec![Value::Nat(1), Value::Nat(2), Value::Nat(3)]);
        assert_eq!(v, expect);
    }

    #[test]
    fn bag_big_union_scales_multiplicity() {
        // ⨄{| {|x|} ⊎ {|x|} | x ∈ {|3,3|} |} = {|3,3,3,3|}
        let src = bag_union(bag_single(nat(3)), bag_single(nat(3)));
        let e = big_bag_union("x", src, bag_union(bag_single(var("x")), bag_single(var("x"))));
        let v = run(&e);
        assert_eq!(v.as_bag().unwrap().count(&Value::Nat(3)), 4);
    }

    #[test]
    fn resource_limits_enforced() {
        let globals = HashMap::new();
        let externals = Extensions::new();
        let ctx = EvalCtx::new(&globals, &externals)
            .with_limits(Limits { max_elems: 10, ..Limits::default() });
        let e = gen(nat(11));
        assert!(matches!(
            eval(&e, &ctx),
            Err(EvalError::ResourceLimit { requested: 11, limit: 10 })
        ));
        let e = tab(vec![("i", nat(4)), ("j", nat(4))], nat(0));
        assert!(matches!(eval(&e, &ctx), Err(EvalError::ResourceLimit { .. })));
    }

    #[test]
    fn step_limit_enforced() {
        let globals = HashMap::new();
        let externals = Extensions::new();
        let ctx = EvalCtx::new(&globals, &externals)
            .with_limits(Limits { max_steps: 50, ..Limits::default() });
        let e = sum("x", gen(nat(100)), var("x"));
        assert_eq!(eval(&e, &ctx).unwrap_err(), EvalError::StepLimit);
    }

    #[test]
    fn deadline_enforced_on_step_path() {
        let globals = HashMap::new();
        let externals = Extensions::new();
        // A zero timeout expires before the first interrupt check.
        let ctx = EvalCtx::new(&globals, &externals)
            .with_limits(Limits::with_timeout(std::time::Duration::ZERO));
        let e = sum("x", gen(nat(100_000)), var("x"));
        assert_eq!(eval(&e, &ctx).unwrap_err(), EvalError::Deadline);
        // A generous timeout does not fire on a small query.
        let ctx = EvalCtx::new(&globals, &externals)
            .with_limits(Limits::with_timeout(std::time::Duration::from_secs(3600)));
        assert_eq!(eval(&add(nat(1), nat(2)), &ctx).unwrap(), Value::Nat(3));
    }

    #[test]
    fn cancellation_flag_stops_evaluation() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let globals = HashMap::new();
        let externals = Extensions::new();
        let flag = Arc::new(AtomicBool::new(false));
        let limits = Limits { cancel: Some(flag.clone()), ..Limits::default() };
        let ctx = EvalCtx::new(&globals, &externals).with_limits(limits);
        // Not cancelled: runs to completion.
        let e = sum("x", gen(nat(10)), var("x"));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Nat(45));
        // Cancelled before a long evaluation: stops cooperatively.
        flag.store(true, Ordering::Relaxed);
        let e = sum("x", gen(nat(100_000)), var("x"));
        assert_eq!(eval(&e, &ctx).unwrap_err(), EvalError::Cancelled);
    }

    #[test]
    fn externals_via_ctx() {
        let globals = HashMap::new();
        let mut externals = Extensions::new();
        externals.register_fn("triple", crate::types::Type::fun(crate::types::Type::Nat, crate::types::Type::Nat), |v| {
            Ok(Value::Nat(v.as_nat()? * 3))
        });
        let ctx = EvalCtx::new(&globals, &externals);
        let e = app(ext("triple"), nat(14));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Nat(42));
        // Natives are first class: pass to a higher-order lambda.
        let e = app(app(lam("f", lam("x", app(var("f"), var("x")))), ext("triple")), nat(2));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Nat(6));
    }

    #[test]
    fn globals_via_ctx() {
        let mut globals = HashMap::new();
        globals.insert(
            crate::expr::name("months"),
            Value::array1(vec![Value::Nat(0), Value::Nat(31)]),
        );
        let externals = Extensions::new();
        let ctx = EvalCtx::new(&globals, &externals);
        let e = sub(global("months"), vec![nat(1)]);
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Nat(31));
        let e = global("missing");
        assert!(matches!(eval(&e, &ctx), Err(EvalError::UnboundGlobal(_))));
    }
}

#[cfg(test)]
mod runtime_shape_tests {
    //! Ill-typed values reaching operations are host errors (they can
    //! only arise from optimizer or registration bugs, never from
    //! typechecked programs) — and must be reported, not mis-evaluated.

    use super::*;
    use crate::expr::builder::*;

    fn err_of(e: &Expr) -> EvalError {
        eval_closed(e).expect_err("must fail")
    }

    #[test]
    fn dim_rank_mismatch_reported() {
        let a1 = array1_lit(vec![nat(1), nat(2)]);
        assert!(matches!(err_of(&dim(2, a1)), EvalError::IllTyped(_)));
        let a2 = array_lit(vec![nat(1), nat(2)], vec![nat(0), nat(0)]);
        assert!(matches!(err_of(&dim(1, a2)), EvalError::IllTyped(_)));
    }

    #[test]
    fn subscript_arity_mismatch_reported() {
        let a1 = array1_lit(vec![nat(1), nat(2)]);
        assert!(matches!(
            err_of(&sub(a1, vec![nat(0), nat(0)])),
            EvalError::IllTyped(_)
        ));
        let a2 = array_lit(vec![nat(1), nat(2)], vec![nat(0), nat(0)]);
        assert!(matches!(
            err_of(&sub(a2, vec![nat(0)])),
            EvalError::IllTyped(_)
        ));
    }

    #[test]
    fn applying_non_function_reported() {
        assert!(matches!(
            err_of(&app(nat(3), nat(4))),
            EvalError::IllTyped(_)
        ));
    }

    #[test]
    fn projection_arity_mismatch_reported() {
        let pair = tuple(vec![nat(1), nat(2)]);
        assert!(matches!(
            err_of(&proj(1, 3, pair)),
            EvalError::IllTyped(_)
        ));
    }

    #[test]
    fn sum_of_non_numeric_reported() {
        let e = sum("x", single(Expr::Bool(true)), var("x"));
        assert!(matches!(err_of(&e), EvalError::IllTyped(_)));
    }

    #[test]
    fn index_of_malformed_pairs_reported() {
        // Keys of the wrong arity.
        let pairs = single(tuple(vec![tuple(vec![nat(0), nat(1)]), nat(9)]));
        assert!(matches!(
            err_of(&index(3, pairs)),
            EvalError::IllTyped(_)
        ));
    }

    #[test]
    fn step_counting_is_observable() {
        let globals = std::collections::HashMap::new();
        let externals = Extensions::new();
        let ctx = EvalCtx::new(&globals, &externals);
        eval(&add(nat(1), nat(2)), &ctx).unwrap();
        let small = ctx.steps_used();
        assert!(small >= 3);
        let ctx2 = EvalCtx::new(&globals, &externals);
        eval(&sum("x", gen(nat(100)), var("x")), &ctx2).unwrap();
        assert!(ctx2.steps_used() > small);
    }
}
