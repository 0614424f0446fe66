//! Properties of capture-avoiding substitution and of the scoping
//! table it is written on (`aql_core::expr::children`), over generated
//! terms with deliberate shadowing across every binder Fig. 1 has:
//! `λ`, `let`, `⋃`/`⨄`/`Σ`, the ranked unions and tabulations.
//!
//! * `eval(let x = r in e) = eval(e{x := r})` — value or classified
//!   error — for an error-free `r`;
//! * `fv(e{x := r}) = (fv(e) ∖ {x}) ∪ (fv(r) if x ∈ fv(e))`;
//! * `e{x := x}` is α-equivalent to `e`;
//! * scoping agreement: the names `free_vars` reports are exactly the
//!   ones `compile` turns into globals, and the ones `is_free_in` finds
//!   by searching;
//! * the table's two readers agree: the in-place visitor hands out the
//!   same `(binders, child)` pairs as the read-only one (in evaluation
//!   order), and what it is handed — children and binders — it writes
//!   back;
//! * the in-place substitution is the rebuilding one it replaced
//!   ([`reference`]) up to the names of bound variables, and clones `r`
//!   once per occurrence of `x` but the last, into which `r` moves.
//!
//! Every variable is drawn from a three-name pool, binders included, so
//! most terms shadow a name and most substitutions meet a binder that
//! would capture. Every binder binds a `nat` and every free name is a
//! `nat` global, so any name is well typed anywhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use aql_core::eval::{compile, eval, EvalCtx};
use aql_core::expr::builder::*;
use aql_core::expr::children::{for_each_child, for_each_child_mut, try_for_each_child_mut};
use aql_core::expr::free::{alpha_eq, free_vars, is_free_in, subst};
use aql_core::expr::{name, CmpOp, Expr, Head, Name, Prim};
use aql_core::prim::Extensions;
use aql_core::value::Value;

const POOL: [&str; 3] = ["x", "y", "z"];

thread_local! {
    /// Allocations of exactly this many bytes made by this thread while
    /// `WATCHED` is non-zero (const-initialized, no destructor: reading
    /// them from the allocator allocates nothing).
    static WATCHED: Cell<usize> = const { Cell::new(0) };
    static SEEN: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of one watched size.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local `Cell`s and never allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if WATCHED.with(Cell::get) == layout.size() {
            SEEN.with(|n| n.set(n.get() + 1));
        }
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of `bytes` bytes this thread makes while running `f`.
fn allocations_of<T>(bytes: usize, f: impl FnOnce() -> T) -> (u64, T) {
    WATCHED.with(|w| w.set(bytes));
    let before = SEEN.with(Cell::get);
    let out = f();
    WATCHED.with(|w| w.set(0));
    (SEEN.with(Cell::get) - before, out)
}

/// The substitution the in-place one replaced, kept as its oracle: it
/// rebuilds every node it passes and renames every binder that would
/// capture, wherever `x` occurs.
mod reference {
    use std::collections::HashSet;

    use aql_core::expr::children::for_each_child_mut;
    use aql_core::expr::free::{free_vars, fresh, is_free_in};
    use aql_core::expr::{Expr, Name};

    /// Rebuild `e` with `f` applied to each immediate child and the
    /// names `e` binds over it.
    fn map_children(e: &Expr, f: &mut impl FnMut(&mut [Name], &Expr) -> Expr) -> Expr {
        let mut out = e.clone();
        for_each_child_mut(&mut out, &mut |names, c| *c = f(names, c));
        out
    }

    /// Capture-avoiding substitution `e{x := r}`.
    pub fn subst(e: &Expr, x: &str, r: &Expr) -> Expr {
        if !is_free_in(x, e) {
            return e.clone();
        }
        subst_in(e, x, r, &free_vars(r))
    }

    fn subst_in(e: &Expr, x: &str, r: &Expr, r_free: &HashSet<Name>) -> Expr {
        if let Expr::Var(v) = e {
            return if &**v == x { r.clone() } else { e.clone() };
        }
        map_children(e, &mut |binders, child| {
            if binders.iter().any(|b| &**b == x) {
                return child.clone();
            }
            let mut renamed = None;
            for b in binders.iter_mut().filter(|b| r_free.contains(&**b)) {
                let nb = fresh(b);
                renamed = Some(subst(renamed.as_ref().unwrap_or(child), b, &Expr::Var(nb.clone())));
                *b = nb;
            }
            subst_in(renamed.as_ref().unwrap_or(child), x, r, r_free)
        })
    }
}

/// The free occurrences of `x` in `e`.
fn occurrences(x: &str, e: &Expr) -> usize {
    if let Expr::Var(v) = e {
        return usize::from(&**v == x);
    }
    let mut n = 0;
    for_each_child(e, &mut |binders, c| {
        if !binders.iter().any(|b| &**b == x) {
            n += occurrences(x, c);
        }
    });
    n
}

/// A term generator. With `total` set it leaves out subscripting, the
/// one construct here that can yield `⊥`.
struct TermGen {
    rng: TestRng,
    total: bool,
}

impl TermGen {
    fn name(&mut self) -> &'static str {
        POOL[self.rng.below(POOL.len())]
    }

    /// Two distinct names: no node binds one name twice.
    fn two_names(&mut self) -> (&'static str, &'static str) {
        let i = self.rng.below(POOL.len());
        (POOL[i], POOL[(i + 1 + self.rng.below(POOL.len() - 1)) % POOL.len()])
    }

    /// A small extent, so loops stay short however large the operand.
    fn extent(&mut self, d: u32, below: u64) -> Expr {
        modulo(self.nat(d), nat(below))
    }

    fn nat(&mut self, d: u32) -> Expr {
        let arms = if d == 0 { 2 } else if self.total { 7 } else { 8 };
        match (self.rng.below(arms), d.saturating_sub(1)) {
            (0, _) => nat(self.rng.below(4) as u64),
            (1, _) => var(self.name()),
            (2, d) => add(self.nat(d), self.nat(d)),
            (3, d) => mul(self.nat(d), self.nat(d)),
            (4, d) => app(lam(self.name(), self.nat(d)), self.nat(d)),
            (5, d) => let_(self.name(), self.nat(d), self.nat(d)),
            (6, d) => sum(self.name(), self.set(d), self.nat(d)),
            (_, d) => {
                let (i, j) = self.two_names();
                if self.rng.below(2) == 0 {
                    sub(tab1(i, self.extent(d, 3), self.nat(d)), vec![self.extent(d, 2)])
                } else {
                    let idx = vec![(i, self.extent(d, 3)), (j, self.extent(d, 3))];
                    sub(tab(idx, self.nat(d)), vec![self.extent(d, 2), self.extent(d, 2)])
                }
            }
        }
    }

    fn set(&mut self, d: u32) -> Expr {
        match (self.rng.below(if d == 0 { 2 } else { 5 }), d.saturating_sub(1)) {
            (0, d) => gen(self.extent(d, 4)),
            (1, d) => single(self.nat(d)),
            (2, d) => union(self.set(d), self.set(d)),
            (3, d) => big_union(self.name(), self.set(d), self.set(d)),
            (_, d) => {
                let (v, r) = self.two_names();
                big_union_rank(v, r, self.set(d), self.set(d))
            }
        }
    }

    fn bag(&mut self, d: u32) -> Expr {
        match (self.rng.below(if d == 0 { 1 } else { 4 }), d.saturating_sub(1)) {
            (0, d) => bag_single(self.nat(d)),
            (1, d) => bag_union(self.bag(d), self.bag(d)),
            (2, d) => big_bag_union(self.name(), self.bag(d), self.bag(d)),
            (_, d) => {
                let (v, r) = self.two_names();
                big_bag_union_rank(v, r, self.bag(d), self.bag(d))
            }
        }
    }

    /// A term of any of the object types above.
    fn any(&mut self, d: u32) -> Expr {
        match self.rng.below(4) {
            0 => self.nat(d),
            1 => self.set(d),
            2 => self.bag(d),
            _ => tab1(self.name(), self.extent(d, 3), self.nat(d)),
        }
    }
}

fn names(e: &Expr) -> HashSet<String> {
    free_vars(e).iter().map(|n| n.to_string()).collect()
}

/// Evaluate with every pool name bound as a global.
fn run(e: &Expr) -> Result<Value, String> {
    let globals: HashMap<_, _> =
        POOL.iter().zip([2, 3, 5]).map(|(n, v)| (name(n), Value::Nat(v))).collect();
    let exts = Extensions::new();
    eval(e, &EvalCtx::new(&globals, &exts)).map_err(|err| err.to_string())
}

/// Every `"…"`-quoted word that follows `marker` in `text`.
fn quoted_after(text: &str, marker: &str, quote: char) -> HashSet<String> {
    text.split(marker)
        .skip(1)
        .filter_map(|rest| rest.split(quote).next())
        .map(str::to_string)
        .collect()
}

type Row = (Vec<Name>, Expr);

/// The scoping table of one node as the in-place visitor states it.
fn table_in_place(e: &Expr) -> Vec<Row> {
    let (mut rows, mut e) = (Vec::new(), e.clone());
    let done = try_for_each_child_mut(&mut e, &mut |binders, child| {
        rows.push((binders.to_vec(), child.clone()));
        Ok::<(), ()>(())
    });
    assert_eq!(done, Ok(()));
    rows
}

/// …and as the read-only visitor states it (field order, not
/// evaluation order).
fn table_by_read(e: &Expr) -> Vec<Row> {
    let mut rows = Vec::new();
    for_each_child(e, &mut |binders, child| rows.push((binders.to_vec(), child.clone())));
    rows
}

/// The two readers agree at every node of `e`, and what the in-place
/// visitor hands out — children and binders — it writes back.
fn assert_one_table(e: &Expr) {
    e.walk(&mut |node| {
        let in_place = table_in_place(node);
        let by_read = table_by_read(node);
        assert_eq!(by_read.len(), in_place.len(), "{node}");
        assert!(by_read.iter().all(|row| in_place.contains(row)), "read vs in place: {node}");
        let mut written = node.clone();
        let mut k = 0;
        for_each_child_mut(&mut written, &mut |binders, child| {
            *child = nat(1000 + k);
            for b in binders.iter_mut() {
                *b = name(&format!("{b}{k}"));
            }
            k += 1;
        });
        let expected: Vec<Row> = in_place
            .iter()
            .zip(1000..)
            .map(|((binders, _), k)| {
                (binders.iter().map(|b| name(&format!("{b}{}", k - 1000))).collect(), nat(k))
            })
            .collect();
        assert_eq!(table_in_place(&written), expected, "{node}");
    });
}

#[test]
fn the_in_place_visitor_reads_the_scoping_table_as_the_map_does() {
    let (x, y, s) = (|| var("x"), || var("y"), || var("s"));
    let one_of_each = vec![
        x(),
        global("g"),
        ext("f"),
        lam("x", x()),
        app(x(), y()),
        let_("x", x(), add(x(), y())),
        tuple(vec![x(), y(), nat(1)]),
        proj(1, 2, x()),
        empty(),
        single(x()),
        union(s(), single(y())),
        big_union("x", s(), single(x())),
        big_union_rank("x", "r", s(), single(add(x(), var("r")))),
        Expr::BagEmpty,
        bag_single(x()),
        bag_union(s(), bag_single(y())),
        big_bag_union("x", s(), bag_single(x())),
        big_bag_union_rank("x", "r", s(), bag_single(add(x(), var("r")))),
        Expr::Bool(true),
        iff(x(), y(), nat(0)),
        cmp(CmpOp::Le, x(), y()),
        nat(7),
        real(1.5),
        strlit("str"),
        mul(x(), y()),
        gen(x()),
        sum("x", s(), mul(x(), y())),
        tab(vec![("i", x()), ("j", var("i"))], add(var("i"), var("j"))),
        // Beyond the four index names a visit copies onto the stack.
        tab(
            ["i", "j", "k", "l", "m"].iter().map(|n| (*n, nat(2))).collect(),
            add(var("i"), var("m")),
        ),
        sub(x(), vec![y(), nat(2)]),
        dim(2, x()),
        array_lit(vec![nat(1), nat(2)], vec![x(), y()]),
        index(1, s()),
        get(s()),
        bottom(),
        Expr::Prim(Prim::Member, vec![x(), s()]),
    ];
    let heads: HashSet<Head> = one_of_each.iter().map(Expr::head).collect();
    assert_eq!(heads.len(), Head::ALL.len(), "one instance of every constructor");
    for e in &one_of_each {
        assert_one_table(e);
    }
    // The order is the evaluation order: right-hand side, source and
    // bounds before the child under the binders.
    let order = |e: &Expr| table_in_place(e).into_iter().map(|(b, c)| (b.len(), c)).collect::<Vec<_>>();
    assert_eq!(order(&let_("x", nat(1), nat(2))), [(0, nat(1)), (1, nat(2))]);
    assert_eq!(order(&sum("x", nat(1), nat(2))), [(0, nat(1)), (1, nat(2))]);
    assert_eq!(order(&big_union_rank("x", "r", nat(1), nat(2))), [(0, nat(1)), (2, nat(2))]);
    let t = tab(vec![("i", nat(1)), ("j", nat(2))], nat(3));
    assert_eq!(order(&t), [(0, nat(1)), (0, nat(2)), (2, nat(3))]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_two_readers_of_the_scoping_table_agree(seed in 0u64..u64::MAX) {
        let e = TermGen { rng: TestRng::from_seed(seed), total: false }.any(3);
        assert_one_table(&e);
        for x in POOL {
            prop_assert_eq!(is_free_in(x, &e), names(&e).contains(x), "{} in {}", x, e);
        }
    }

    #[test]
    fn substitution_is_let(seed in 0u64..u64::MAX) {
        let mut g = TermGen { rng: TestRng::from_seed(seed), total: false };
        let e = g.any(3);
        g.total = true;
        let r = g.nat(2);
        let mut substituted = e.clone();
        subst(&mut substituted, "x", r.clone());
        prop_assert_eq!(
            run(&let_("x", r.clone(), e.clone())),
            run(&substituted),
            "e = {}\nr = {}\ne{{x := r}} = {}", e, r, substituted
        );

        let mut expected = names(&e);
        if expected.remove("x") {
            expected.extend(names(&r));
        }
        prop_assert_eq!(names(&substituted), expected, "e = {}\nr = {}", e, r);

        let mut identity = e.clone();
        subst(&mut identity, "x", var("x"));
        prop_assert!(alpha_eq(&e, &identity), "{} vs {}", e, identity);
    }

    #[test]
    fn in_place_substitution_is_the_rebuilding_one_up_to_renaming(seed in 0u64..u64::MAX) {
        let mut g = TermGen { rng: TestRng::from_seed(seed), total: false };
        let e = g.any(3);
        // Seven components, so that a copy of `r` is the one allocation
        // of its size; `y` and `z` are captured wherever a binder names them.
        const WIDTH: usize = 7;
        let mut parts = vec![var("y"), var("z")];
        parts.extend((2..WIDTH).map(|_| g.nat(1)));
        let r = tuple(parts);
        let expected = reference::subst(&e, "x", &r);
        let mut got = e.clone();
        let bytes = WIDTH * std::mem::size_of::<Expr>();
        let (copies, ()) = allocations_of(bytes, || subst(&mut got, "x", r));
        prop_assert!(alpha_eq(&got, &expected), "e = {}\n got    {}\n expect {}", e, got, expected);
        let uses = occurrences("x", &e);
        prop_assert_eq!(copies as usize, uses.saturating_sub(1), "{} occurrences in {}", uses, e);
    }

    #[test]
    fn free_names_are_the_compiled_globals(seed in 0u64..u64::MAX) {
        let e = TermGen { rng: TestRng::from_seed(seed), total: false }.any(3);
        // `CExpr` has no traversal of its own; its `Debug` rendering
        // shows every `Global("name")` node.
        let compiled = format!("{:?}", compile(&e).expect("the term compiles"));
        prop_assert_eq!(quoted_after(&compiled, "Global(\"", '"'), names(&e), "{}", e);
    }
}
