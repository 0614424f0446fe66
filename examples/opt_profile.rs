//! Where the optimizer's time goes, per `compile_mix` template and per
//! rule — the table issue 19 was sized from.
//!
//! ```text
//! cargo run --release --example opt_profile
//! ```
//!
//! Each template (the benchmark's eight, `tests/common`) is optimized
//! twice: its core term with the prelude's macros as written (what an
//! optimizer-off session resolves, every macro re-normalized at its
//! use) and as the statement path resolves it, each macro in the normal
//! form the session stored where it was defined — one binary's before
//! and after. Per row: nodes in and out, passes, node visits,
//! `Rule::apply` calls and firings as the engine counts them on every
//! run (`Optimizer::counts`, exact), the size in nodes of the largest
//! contractum any rule built (where a substitution that balloons shows
//! first), the heap allocations of one untraced run (by value: the
//! input is copied before counting), the median µs of each phase run on
//! its predecessor's output, and the median µs of an untraced run by
//! value. Per rule, summed over the templates as written: applies,
//! firings and the time spent inside `apply`, from a timing wrapper
//! around every library rule. Build with `--release`: a debug build also
//! offers each node to the rules the dispatch table skips (the
//! `heads()` tripwire), which the wrappers would count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use aql::core::expr::{Expr, Head};
use aql::opt::rules::{checks_phase, motion_phase, normalize_phase};
use aql::opt::{Gate, Optimizer, Phase, Rule};

#[path = "../tests/common/mod.rs"]
mod common;

thread_local! {
    /// Allocations made by this thread (const-initialized and without a
    /// destructor, so reading it from the allocator allocates nothing).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A library rule behind counters.
struct Timed {
    phase: String,
    rule: Rc<dyn Rule>,
    applies: Cell<u64>,
    fires: Cell<u64>,
    ns: Cell<u64>,
    /// Nodes in the largest contractum since the last reset.
    largest: Cell<usize>,
}

impl Rule for Timed {
    fn name(&self) -> &'static str {
        self.rule.name()
    }
    fn heads(&self) -> &'static [Head] {
        self.rule.heads()
    }
    fn substitutes(&self) -> bool {
        self.rule.substitutes()
    }
    fn apply(&self, e: Expr) -> Result<Expr, Expr> {
        let t0 = Instant::now();
        let out = self.rule.apply(e);
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.applies.set(self.applies.get() + 1);
        self.fires.set(self.fires.get() + u64::from(out.is_ok()));
        if let Ok(next) = &out {
            self.largest.set(self.largest.get().max(next.size()));
        }
        out
    }
}

/// The standard pipeline with every rule wrapped, and the wrappers.
fn timed_standard() -> (Optimizer, Vec<Rc<Timed>>) {
    let mut timed = Vec::new();
    let mut opt = Optimizer::empty();
    for phase in [normalize_phase(), checks_phase(), motion_phase()] {
        let mut wrapped = Phase::new(&phase.name);
        for rule in phase.rules() {
            let zero = || Cell::new(0);
            let (phase, rule) = (phase.name.to_string(), rule.clone());
            let (applies, fires, ns, largest) = (zero(), zero(), zero(), Cell::new(0));
            let t = Rc::new(Timed { phase, rule, applies, fires, ns, largest });
            wrapped.add_rule(t.clone());
            timed.push(t);
        }
        opt.add_phase(wrapped);
    }
    (opt, timed)
}

const REPS: usize = 301;

/// The median µs of `run` on a fresh copy of `e`, copied before timing.
fn median_us<T>(e: &Expr, mut run: impl FnMut(Expr) -> T) -> f64 {
    for _ in 0..REPS / 4 {
        std::hint::black_box(run(e.clone()));
    }
    let mut us: Vec<f64> = (0..REPS)
        .map(|_| {
            let input = e.clone();
            let t0 = Instant::now();
            std::hint::black_box(run(std::hint::black_box(input)));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[REPS / 2]
}

/// The median µs of each standard phase, run on its predecessor's output.
fn phase_us(e: &Expr) -> [f64; 3] {
    let mut cur = e.clone();
    [normalize_phase(), checks_phase(), motion_phase()].map(|phase| {
        let us = median_us(&cur, |input| phase.run(&input, &Gate::off(), None));
        cur = phase.run(&cur, &Gate::off(), None).expect("no rule panics");
        us
    })
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("note: debug build — timings are meaningless and per-rule applies include the tripwire's");
    }
    let standard = aql::opt::standard();
    let (wrapped, timed) = timed_standard();
    let mut session = common::compile_mix_session();
    println!("| template | macros | nodes in | nodes out | passes | visits | applies | firings | largest contractum | allocs/run | µs normalize | µs check-elim | µs code-motion | µs/run |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    let mut sums = [0.0; 2];
    for template in common::compile_mix_templates() {
        // A template is one statement with one term to optimize.
        for (written, stored) in common::core_term_pairs(&mut session, template) {
            for (form, e) in [(0, &written), (1, &stored)] {
                let (out, trace) = standard.optimize_traced(e);
                let counts = standard.counts();
                assert_eq!(counts.fires(), trace.len() as u64, "the run counts what the trace records");
                // The per-rule table sums the terms as written.
                if form == 0 {
                    wrapped.optimize(e);
                }
                let largest = timed.iter().map(|t| t.largest.replace(0)).max().unwrap_or(0);
                let input = e.clone();
                let allocs = allocs_during(|| drop(standard.run(input, &Gate::off(), None)));
                let [normalize, checks, motion] = phase_us(e);
                let us = median_us(e, |input| standard.run(input, &Gate::off(), None));
                sums[form] += us;
                let label = template.split_whitespace().collect::<Vec<_>>().join(" ");
                let label = label.chars().take(40).collect::<String>();
                println!(
                    "| `{label}` | {} | {} | {} | {} | {} | {} | {} | {} | {allocs} | {normalize:.1} | {checks:.1} | {motion:.1} | {us:.1} |",
                    ["as written", "stored"][form],
                    e.size(),
                    out.size(),
                    counts.passes,
                    counts.visits,
                    counts.applies,
                    counts.fires(),
                    if form == 0 { largest.to_string() } else { "–".into() },
                );
            }
        }
    }
    println!("\nsum over the eight templates: {:.1} µs as written, {:.1} µs stored\n", sums[0], sums[1]);
    println!("| phase/rule | applies | firings | ns in apply | ns/apply |");
    println!("|---|---|---|---|---|");
    let mut rows: Vec<&Rc<Timed>> = timed.iter().filter(|t| t.applies.get() > 0).collect();
    rows.sort_by_key(|t| std::cmp::Reverse(t.ns.get()));
    for t in rows {
        let (applies, ns) = (t.applies.get(), t.ns.get());
        println!("| {}/{} | {applies} | {} | {ns} | {} |", t.phase, t.name(), t.fires.get(), ns / applies);
    }
}
