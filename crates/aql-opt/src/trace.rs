//! The rewrite trace: which rules fired, in order, what a bound cut
//! short, and the renderings `\explain` shows; and the counts every run
//! keeps, traced or not.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

use aql_core::expr::Expr;

use crate::engine::Rule;

/// What optimizer runs counted, traced or not: the engine fills it on
/// every run ([`Optimizer::counts`](crate::Optimizer::counts)), and a
/// session adds up its statement's runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Full bottom-up passes, over every phase.
    pub passes: u64,
    /// Nodes visited.
    pub visits: u64,
    /// `Rule::apply` calls.
    pub applies: u64,
    /// Every `(phase, rule)` that fired or was cut short, in phase and
    /// then registration order.
    pub rules: Vec<RuleCounts>,
}

/// One rule's share of a [`RunCounts`]: its firings, and the times a
/// bound stopped its phase short of a fixpoint with it the last to fire.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct RuleCounts {
    pub phase: String,
    pub rule: &'static str,
    pub fires: u64,
    pub bound_hits: u64,
}

impl RunCounts {
    /// Firings of every rule.
    pub fn fires(&self) -> u64 {
        self.rules.iter().map(|r| r.fires).sum()
    }

    /// Add `o` component-wise, rules matched by `(phase, rule)`.
    pub fn add(&mut self, o: &RunCounts) {
        (self.passes, self.visits, self.applies) =
            (self.passes + o.passes, self.visits + o.visits, self.applies + o.applies);
        for r in &o.rules {
            match self.rules.iter_mut().find(|m| m.phase == r.phase && m.rule == r.rule) {
                Some(m) => (m.fires, m.bound_hits) = (m.fires + r.fires, m.bound_hits + r.bound_hits),
                None => self.rules.push(r.clone()),
            }
        }
    }
}

/// What one phase's last run counted, kept by the phase: passes, visits
/// and applies, then per rule in registration order `[fires, bound
/// hits]`. Zeroed in place, so a run allocates nothing for it.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) passes: Cell<u64>,
    pub(crate) visits: Cell<u64>,
    pub(crate) applies: Cell<u64>,
    pub(crate) rules: Vec<[Cell<u64>; 2]>,
}

/// Add one to a tally's count.
#[inline]
pub(crate) fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

impl Tally {
    pub(crate) fn reset(&self) {
        let counts = [&self.passes, &self.visits, &self.applies].into_iter();
        counts.chain(self.rules.iter().flatten()).for_each(|c| c.set(0));
    }

    /// The tally as the [`RunCounts`] of phase `phase`, whose rules are `rules`.
    pub(crate) fn counts(&self, phase: &str, rules: &[Rc<dyn Rule>]) -> RunCounts {
        let counted = rules.iter().zip(&self.rules).map(|(r, [f, b])| (r.name(), f.get(), b.get()));
        let rules = counted
            .filter(|&(_, fires, bound_hits)| (fires, bound_hits) != (0, 0))
            .map(|(rule, fires, bound_hits)| RuleCounts { phase: phase.into(), rule, fires, bound_hits })
            .collect();
        let (passes, visits, applies) = (self.passes.get(), self.visits.get(), self.applies.get());
        RunCounts { passes, visits, applies, rules }
    }
}

/// One step of a rewrite, recorded when tracing.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The phase in which the rule fired.
    pub phase: String,
    /// The rule that fired.
    pub rule: &'static str,
    /// Rendering of the redex (truncated).
    pub before: String,
    /// Rendering of the contractum (truncated).
    pub after: String,
}

impl TraceStep {
    /// The step in which `rule` of `phase` rewrote `before` to `after`.
    pub fn new(phase: &str, rule: &'static str, before: &Expr, after: &Expr) -> TraceStep {
        TraceStep { phase: phase.to_string(), rule, before: clip(before), after: clip(after) }
    }
}

/// A full rewrite trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Steps in firing order.
    pub steps: Vec<TraceStep>,
    /// The phase that a bound (passes per phase, firings per node
    /// visit) stopped short of a fixpoint, and the last rule it fired:
    /// when set, the result may not be a normal form.
    pub bound_hit: Option<(String, &'static str)>,
}

impl Trace {
    /// Number of rule firings.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Was anything rewritten?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// How many times a rule with this name fired, summed across
    /// phases. Rule names are only unique *within* a phase — two
    /// phases may register distinct rules under the same name — so
    /// prefer [`Trace::count_in`] / [`Trace::fired`] when attributing
    /// firings.
    pub fn count(&self, rule: &str) -> usize {
        self.steps.iter().filter(|s| s.rule == rule).count()
    }

    /// How many times the rule named `rule` fired *in phase* `phase`.
    pub fn count_in(&self, phase: &str, rule: &str) -> usize {
        self.steps.iter().filter(|s| s.phase == phase && s.rule == rule).count()
    }

    /// Fire counts keyed by `(phase, rule)`, in order of first firing.
    /// The engine allows duplicate rule names across phases; this is
    /// the unambiguous attribution.
    pub fn fired(&self) -> Vec<((String, &'static str), usize)> {
        let mut out: Vec<((String, &'static str), usize)> = Vec::new();
        for s in &self.steps {
            match out.iter_mut().find(|(k, _)| k.0 == s.phase && k.1 == s.rule) {
                Some((_, n)) => *n += 1,
                None => out.push(((s.phase.clone(), s.rule), 1)),
            }
        }
        out
    }

    /// A rule-fire table (`phase`, `rule`, `fires` columns) in order
    /// of first firing — the `\explain` rendering — and under it, only
    /// when a bound stopped a phase, one line saying so.
    pub fn render_fire_table(&self) -> String {
        let fired = self.fired();
        if fired.is_empty() {
            return "  (no rule fired)\n".to_string();
        }
        let mut out = String::new();
        let _ = writeln!(out, "  {:<14} {:<24} {:>5}", "phase", "rule", "fires");
        for ((phase, rule), n) in fired {
            let _ = writeln!(out, "  {phase:<14} {rule:<24} {n:>5}");
        }
        if let Some((phase, rule)) = &self.bound_hit {
            let note = "still firing; may not be a normal form";
            let _ = writeln!(out, "  bound hit: {phase}/{rule} {note}");
        }
        out
    }

    /// A human-readable rendering of the trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            let _ = writeln!(out, "{:>4}. [{}] {}", i + 1, s.phase, s.rule);
            let _ = writeln!(out, "      {}  ~>  {}", s.before, s.after);
        }
        out
    }
}

/// Render a term for the trace, cut (on a character boundary) to at
/// most 117 bytes plus an ellipsis.
fn clip(e: &Expr) -> String {
    let s = e.to_string();
    if s.len() <= 120 {
        return s;
    }
    let mut cut = 117;
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &s[..cut])
}
