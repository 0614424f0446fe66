//! Where the optimizer's time goes, per `compile_mix` template and per
//! rule — the table issue 19 was sized from.
//!
//! ```text
//! cargo run --release --example opt_profile
//! ```
//!
//! Per template (the benchmark's eight, `tests/common`): nodes in and
//! out, passes, node visits, `Rule::apply` calls and firings as the
//! engine counts them (`opt.passes` / `opt.visits` / `opt.applies`,
//! exact), and the median µs of an untraced `optimize`. Per rule, summed
//! over the templates: applies, firings and the time spent inside
//! `apply`, from a timing wrapper around every library rule. Build with
//! `--release`: a debug build also offers each node to the rules the
//! dispatch table skips (the `heads()` tripwire), which the wrappers
//! would count.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use aql::core::expr::{Expr, Head};
use aql::opt::rules::{checks_phase, motion_phase, normalize_phase};
use aql::opt::{Optimizer, Phase, Rule};

#[path = "../tests/common/mod.rs"]
mod common;

/// A library rule behind counters.
struct Timed {
    phase: String,
    rule: Rc<dyn Rule>,
    applies: Cell<u64>,
    fires: Cell<u64>,
    ns: Cell<u64>,
}

impl Rule for Timed {
    fn name(&self) -> &'static str {
        self.rule.name()
    }
    fn heads(&self) -> &'static [Head] {
        self.rule.heads()
    }
    fn apply(&self, e: &Expr) -> Option<Expr> {
        let t0 = Instant::now();
        let out = self.rule.apply(e);
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.applies.set(self.applies.get() + 1);
        self.fires.set(self.fires.get() + u64::from(out.is_some()));
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
            let (phase, rule) = (phase.name.clone(), rule.clone());
            let t = Rc::new(Timed { phase, rule, applies: zero(), fires: zero(), ns: zero() });
            wrapped.add_rule(t.clone());
            timed.push(t);
        }
        opt.add_phase(wrapped);
    }
    (opt, timed)
}

fn median_us(opt: &Optimizer, e: &Expr) -> f64 {
    const REPS: usize = 301;
    for _ in 0..REPS / 4 {
        std::hint::black_box(opt.optimize(e));
    }
    let mut us: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(opt.optimize(std::hint::black_box(e)));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[REPS / 2]
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("note: debug build — timings are meaningless and per-rule applies include the tripwire's");
    }
    let standard = aql::opt::standard();
    let (wrapped, timed) = timed_standard();
    let mut session = common::compile_mix_session();
    println!("| template | nodes in | nodes out | passes | visits | applies | firings | µs/optimize |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut sum_us = 0.0;
    for template in common::compile_mix_templates() {
        // A template is one statement with one term to optimize.
        for e in common::core_terms(&mut session, template) {
            aql::trace::enable();
            let (out, trace) = standard.optimize_traced(&e);
            let spans = aql::trace::disable();
            let count = |name| spans.total_counter(name);
            wrapped.optimize(&e);
            let us = median_us(&standard, &e);
            sum_us += us;
            let label = template.split_whitespace().collect::<Vec<_>>().join(" ");
            let label = label.chars().take(40).collect::<String>();
            println!(
                "| `{label}` | {} | {} | {} | {} | {} | {} | {us:.1} |",
                e.size(),
                out.size(),
                count("opt.passes"),
                count("opt.visits"),
                count("opt.applies"),
                trace.len(),
            );
        }
    }
    println!("\nsum over the eight templates: {sum_us:.1} µs\n");
    println!("| phase/rule | applies | firings | ns in apply | ns/apply |");
    println!("|---|---|---|---|---|");
    let mut rows: Vec<&Rc<Timed>> = timed.iter().filter(|t| t.applies.get() > 0).collect();
    rows.sort_by_key(|t| std::cmp::Reverse(t.ns.get()));
    for t in rows {
        let (applies, ns) = (t.applies.get(), t.ns.get());
        println!("| {}/{} | {applies} | {} | {ns} | {} |", t.phase, t.name(), t.fires.get(), ns / applies);
    }
}
