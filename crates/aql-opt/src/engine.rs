//! The extensible rewrite engine.
//!
//! §4–§5 of the paper: "the rule bases, the rule application
//! strategies, and the number of phases of this optimizer are
//! extensible". An [`Optimizer`] is a sequence of [`Phase`]s; each
//! phase owns an ordered list of [`Rule`]s and applies them bottom-up
//! to a fixpoint (with a pass bound as a safety net). New rules and
//! phases can be registered at run time, mirroring the paper's dynamic
//! rule injection.

use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use aql_core::check::check_rewrite;
use aql_core::expr::children::try_for_each_child_mut;
use aql_core::expr::{Expr, Head, Name};
use aql_core::stack::TooDeep;

use crate::trace::{bump, Tally};
pub use crate::trace::{RuleCounts, RunCounts, Trace, TraceStep};

/// Process-lifetime count of optimizer passes run to fixpoint.
static M_PASSES: aql_journal::metrics::LazyCounter = aql_journal::metrics::LazyCounter::new(
    "aql_opt_passes_total",
    "Optimizer fixpoint passes executed.",
);

/// A rewrite rule. `apply` inspects only the *root* of the node it is
/// handed and owns it: it returns the replacement if the rule fires,
/// moving the redex's parts into it, and hands the node back untouched
/// if not. The engine handles traversal. Rules must be
/// semantics-preserving (for error-free programs, per the paper's
/// conventions) and, jointly, terminating.
pub trait Rule {
    /// Rule name, used in traces.
    fn name(&self) -> &'static str;
    /// The root constructors `apply` can match. The engine offers a node
    /// only to the rules that list its head, so this is a promise:
    /// `apply(e)` is `Err(e)` whenever `e.head()` is not listed (debug
    /// builds check it at every node). The default — every head — is
    /// always sound and is what a rule registered at run time gets.
    fn heads(&self) -> &'static [Head] {
        Head::ALL
    }
    /// Whether `apply` may leave redexes below its contractum's root
    /// because it substituted a term for a variable. A speed hint only: a
    /// rule that substitutes but keeps the default reaches the same
    /// fixpoint, a pass later.
    fn substitutes(&self) -> bool {
        false
    }
    /// Rewrite the root of `e`: `Ok` is the contractum, `Err` hands the
    /// redex back untouched.
    fn apply(&self, e: Expr) -> Result<Expr, Expr>;
}

/// A user-supplied rule panicked during application. The engine
/// catches the panic (rules are untrusted extension code) and reports
/// which rule, in which phase, with the stringified payload.
#[derive(Debug, Clone)]
pub struct RulePanic {
    /// The phase the rule belongs to.
    pub phase: String,
    /// The rule that panicked.
    pub rule: &'static str,
    /// Best-effort text of the panic payload.
    pub message: String,
}

impl std::fmt::Display for RulePanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "optimizer rule `{}` (phase `{}`) panicked: {}",
            self.rule, self.phase, self.message
        )
    }
}

impl std::error::Error for RulePanic {}

/// A rule application failed the soundness gate: the rewrite
/// introduced an unbound variable, produced an ill-formed term, or
/// changed the term's type. Attribution is exact for per-fire checks
/// (the rule that just fired) and best-effort for phase-boundary
/// checks (the last rule that fired in the phase).
#[derive(Debug, Clone)]
pub struct SoundnessViolation {
    /// The phase the offending rule belongs to.
    pub phase: String,
    /// The rule whose rewrite failed verification.
    pub rule: &'static str,
    /// What the verifier objected to.
    pub message: String,
}

impl std::fmt::Display for SoundnessViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsound rewrite by rule `{}` (phase `{}`): {}",
            self.rule, self.phase, self.message
        )
    }
}

impl std::error::Error for SoundnessViolation {}

/// Why a verified optimizer run aborted.
#[derive(Debug, Clone)]
pub enum OptError {
    /// A rule panicked (see [`RulePanic`]).
    Panic(RulePanic),
    /// A rewrite failed the soundness gate.
    Unsound(SoundnessViolation),
    /// The phase-boundary check ran out of this thread's stack.
    TooDeep(TooDeep),
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::Panic(p) => p.fmt(f),
            OptError::Unsound(v) => v.fmt(f),
            OptError::TooDeep(t) => t.fmt(f),
        }
    }
}

impl std::error::Error for OptError {}

impl From<RulePanic> for OptError {
    fn from(p: RulePanic) -> OptError {
        OptError::Panic(p)
    }
}

/// The rewrite-soundness gate configuration.
///
/// Two levels, both optional:
///
/// * **per-fire** — after every rule application, run
///   [`aql_core::check::check_rewrite`] — the typechecker itself, in
///   open mode — on the redex/contractum pair with the binders in scope
///   at the rewrite site. Catches scope escapes and type changes the
///   moment they happen, with exact `(phase, rule)` attribution.
/// * **phase boundary** — a caller-supplied whole-term check (the
///   session passes the same typechecker here, closed over its `val`
///   and external types) run once after each phase in which at least
///   one rule fired. Catches what a fragment cannot show — a clash with
///   a global's declared type; attribution falls back to the last rule
///   that fired in the phase.
pub struct Gate<'a> {
    /// Run the local check after every rule firing.
    pub per_fire: bool,
    /// Whole-term check run after each phase that rewrote anything.
    pub phase_check: Option<&'a PhaseCheck<'a>>,
}

/// A whole-term phase-boundary check: the inner `Err` carries the
/// verifier's objection, the outer one a term too deep to check.
pub type PhaseCheck<'a> = dyn Fn(&Expr) -> Result<Result<(), String>, TooDeep> + 'a;

impl<'a> Gate<'a> {
    /// No checking (the release-mode hot path).
    pub fn off() -> Gate<'static> {
        Gate { per_fire: false, phase_check: None }
    }

    /// Per-fire local checks only.
    pub fn local() -> Gate<'static> {
        Gate { per_fire: true, phase_check: None }
    }

    /// Per-fire local checks plus a phase-boundary whole-term check.
    pub fn full(check: &'a PhaseCheck<'a>) -> Gate<'a> {
        Gate { per_fire: true, phase_check: Some(check) }
    }
}

/// Upper bound on full bottom-up passes per phase (safety net; the
/// standard rule sets reach a fixpoint well before this).
const MAX_PASSES: usize = 64;

/// Upper bound on firings at one node in one visit (a misbehaving user
/// rule must not loop forever).
const MAX_FIRES_PER_VISIT: usize = 32;

/// An ordered group of rules applied together to a fixpoint.
pub struct Phase {
    /// Phase name (e.g. "normalize"), shared with the phase's span note.
    pub name: Arc<str>,
    rules: Vec<Rc<dyn Rule>>,
    /// Per rule, its `aql_opt_rule_fires_total{phase,rule}` series,
    /// looked up at the rule's first firing and kept.
    fires: Vec<OnceCell<&'static aql_journal::metrics::Counter>>,
    /// Per [`Head`], the rules listing it, in registration order.
    by_head: Vec<Vec<usize>>,
    /// What the phase's last run counted ([`Phase::counts`]).
    tally: Tally,
}

/// What a phase's bottom-up passes thread through the tree.
struct Pass<'a, 'g> {
    gate: &'a Gate<'g>,
    trace: Option<&'a mut Trace>,
    /// Binders in scope at the node being rewritten.
    scope: Vec<Name>,
    /// Rule firings in the current pass.
    fired: usize,
    /// The index of the last rule that fired in the phase.
    last_fired: Option<usize>,
    /// This thread's stack ran out: no rule fires again in the run, as a
    /// substitution could walk a deeper term.
    too_deep: bool,
}

impl Phase {
    /// An empty phase.
    pub fn new(name: &str) -> Phase {
        let by_head = vec![Vec::new(); Head::ALL.len()];
        let (rules, fires, tally) = (Vec::new(), Vec::new(), Tally::default());
        Phase { name: name.into(), rules, fires, by_head, tally }
    }

    /// Append a rule (applied after already-registered rules).
    pub fn add_rule(&mut self, rule: Rc<dyn Rule>) -> &mut Self {
        let index = self.rules.len();
        for head in rule.heads() {
            let offered = &mut self.by_head[*head as usize];
            if offered.last() != Some(&index) {
                offered.push(index);
            }
        }
        self.rules.push(rule);
        self.fires.push(OnceCell::new());
        self.tally.rules.push(Default::default());
        self
    }

    /// The rules, in registration order.
    pub fn rules(&self) -> &[Rc<dyn Rule>] {
        &self.rules
    }

    /// Run the phase to a fixpoint under a soundness [`Gate`]: every
    /// rule firing is checked per `gate.per_fire` and recorded in
    /// `trace` (if any), and `gate.phase_check` (if any) runs on the
    /// result when at least one rule fired. Rules are extension code: a
    /// rule that panics aborts the phase with a [`RulePanic`] naming it.
    ///
    /// The phase runs under an `opt.phase` span annotated with its name.
    /// What the run counted, its passes among it, is [`Phase::counts`].
    pub fn run(
        &self,
        e: &Expr,
        gate: &Gate<'_>,
        trace: Option<&mut Trace>,
    ) -> Result<Expr, OptError> {
        let mut cur = e.clone();
        self.tally.reset();
        self.run_in_place(&mut cur, gate, trace, &mut false).map(|()| cur)
    }

    /// [`Phase::run`] on a term the caller owns (and, on an error,
    /// discards: it is left partly rewritten).
    fn run_in_place(
        &self,
        cur: &mut Expr,
        gate: &Gate<'_>,
        trace: Option<&mut Trace>,
        too_deep: &mut bool,
    ) -> Result<(), OptError> {
        let _phase_span = aql_trace::span("opt.phase");
        aql_trace::note("phase", aql_trace::Note::Shared(Arc::clone(&self.name)));
        let mut st = Pass {
            gate,
            trace,
            scope: Vec::new(),
            fired: 0,
            last_fired: None,
            too_deep: *too_deep,
        };
        for pass in 1..=MAX_PASSES {
            st.fired = 0;
            self.pass(cur, &mut st)?;
            bump(&self.tally.passes);
            M_PASSES.inc();
            if st.fired == 0 {
                break;
            }
            if pass == MAX_PASSES {
                self.bound_hit(&st);
            }
        }
        *too_deep = st.too_deep;
        self.tally.stack_stops.set(u64::from(st.too_deep));
        if let (Some(check), Some(index)) = (gate.phase_check, st.last_fired) {
            if let Err(message) = check(cur).map_err(OptError::TooDeep)? {
                let message = format!("phase-boundary check failed: {message}");
                return Err(self.unsound(self.rules[index].name(), message));
            }
        }
        Ok(())
    }

    /// One bottom-up pass, in place: rewrite the children first, then
    /// offer this node to the rules that list its head, in registration
    /// order and from the first again after every firing, until none
    /// fires (bounded). A rule that [substitutes](Rule::substitutes)
    /// has its contractum's children rewritten before the root is
    /// re-offered: a redex it made is reduced where it landed, before an
    /// enclosing `let` copies it. A rule that declines hands the node
    /// back, so only a firing allocates — and one copy of the node per
    /// visit when the gate or a trace needs the redex.
    fn pass(&self, e: &mut Expr, st: &mut Pass<'_, '_>) -> Result<(), OptError> {
        // Past this thread's stack the subterm is left as it came.
        st.too_deep = st.too_deep || aql_core::stack::check().is_err();
        if st.too_deep {
            return Ok(());
        }
        self.pass_children(e, st)?;
        bump(&self.tally.visits);
        'offers: for _ in 0..MAX_FIRES_PER_VISIT {
            let offered = &self.by_head[e.head() as usize];
            // The tripwire on `heads()`: what the table skips must decline.
            #[cfg(debug_assertions)]
            for (_, r) in self.rules.iter().enumerate().filter(|(i, _)| !offered.contains(i)) {
                let (name, head) = (r.name(), e.head());
                let back = r.apply(e.take());
                assert!(back.is_err(), "`{name}` fired at a {head:?} its heads() omit");
                *e = back.unwrap_or_else(|declined| declined);
            }
            let redex = (st.gate.per_fire || st.trace.is_some()).then(|| e.clone());
            for &index in offered {
                bump(&self.tally.applies);
                let next = match self.apply_checked(&self.rules[index], e.take())? {
                    Ok(next) => next,
                    // Declining hands the node back as it came: what a
                    // rule changes, the gate must see.
                    Err(back) if st.gate.per_fire && redex.as_ref() != Some(&back) => {
                        let message = "declined, but changed the node it was handed".into();
                        return Err(self.unsound(self.rules[index].name(), message));
                    }
                    Err(back) => {
                        *e = back;
                        continue;
                    }
                };
                let rule = self.rules[index].name();
                let (redex, scope) = (redex.as_ref(), &st.scope);
                match redex.filter(|_| st.gate.per_fire).map(|r| (r, check_rewrite(r, &next, scope))) {
                    Some((_, Ok(Err(message)))) => return Err(self.unsound(rule, message)),
                    // Too deep to judge here: the node stays as it came.
                    Some((redex, Err(_))) => {
                        *e = redex.clone();
                        st.too_deep = true;
                        return Ok(());
                    }
                    _ => {}
                }
                if let (Some(t), Some(redex)) = (st.trace.as_deref_mut(), redex) {
                    t.steps.push(TraceStep::new(&self.name, rule, redex, &next));
                }
                bump(&self.tally.rules[index][0]);
                self.fires[index]
                    .get_or_init(|| {
                        aql_journal::metrics::counter_with(
                            "aql_opt_rule_fires_total",
                            &[("phase", &self.name), ("rule", rule)],
                            "Optimizer rule applications, by (phase, rule).",
                        )
                    })
                    .inc();
                st.fired += 1;
                st.last_fired = Some(index);
                *e = next;
                if self.rules[index].substitutes() {
                    self.pass_children(e, st)?;
                }
                continue 'offers;
            }
            return Ok(());
        }
        self.bound_hit(st);
        Ok(())
    }

    /// [`Phase::pass`] over each child, tracking binders for the gate.
    fn pass_children(&self, e: &mut Expr, st: &mut Pass<'_, '_>) -> Result<(), OptError> {
        let per_fire = st.gate.per_fire;
        try_for_each_child_mut(e, &mut |binders, child| {
            let scoped = if per_fire { binders.len() } else { 0 };
            st.scope.extend_from_slice(&binders[..scoped]);
            let done = self.pass(child, st);
            st.scope.truncate(st.scope.len() - scoped);
            done
        })
    }

    /// Apply one rule with a panic guard: rules are extension code, so
    /// a panic inside `apply` must not take down the host. The node it
    /// was handed is lost with the panic; the run is discarded.
    fn apply_checked(&self, r: &Rc<dyn Rule>, e: Expr) -> Result<Result<Expr, Expr>, RulePanic> {
        catch_unwind(AssertUnwindSafe(|| r.apply(e))).map_err(|payload| {
            let message = aql_core::prim::panic_message(payload.as_ref());
            RulePanic { phase: self.name.to_string(), rule: r.name(), message }
        })
    }

    /// A bound, not a fixpoint, stopped the rewriting: count it against
    /// the last rule that fired — a possibly non-normal form is never
    /// silent.
    fn bound_hit(&self, st: &Pass<'_, '_>) {
        let Some(index) = st.last_fired else { return };
        bump(&self.tally.rules[index][1]);
    }

    /// What the phase's last run counted.
    pub fn counts(&self) -> RunCounts {
        self.tally.counts(&self.name, &self.rules)
    }

    /// Record a rewrite of `rule` that the gate rejected in `/metrics`
    /// (exceptional, so the lookup cost is irrelevant) and build the
    /// error naming it.
    fn unsound(&self, rule: &'static str, message: String) -> OptError {
        let labels = [("phase", &*self.name), ("rule", rule)];
        let help = "Rewrites rejected by the soundness gate, by (phase, rule).";
        aql_journal::metrics::counter_with("aql_opt_unsound_total", &labels, help).inc();
        OptError::Unsound(SoundnessViolation { phase: self.name.to_string(), rule, message })
    }
}

/// A multi-phase optimizer.
pub struct Optimizer {
    phases: Vec<Phase>,
}

impl Optimizer {
    /// An optimizer with no phases (identity).
    pub fn empty() -> Optimizer {
        Optimizer { phases: Vec::new() }
    }

    /// Build from phases.
    pub fn with_phases(phases: Vec<Phase>) -> Optimizer {
        Optimizer { phases }
    }

    /// Append a phase (runs after existing phases).
    pub fn add_phase(&mut self, phase: Phase) -> &mut Self {
        self.phases.push(phase);
        self
    }

    /// A phase by name.
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| &*p.name == name)
    }

    /// Mutable access to a phase by name, for dynamic rule injection.
    pub fn phase_mut(&mut self, name: &str) -> Option<&mut Phase> {
        self.phases.iter_mut().find(|p| &*p.name == name)
    }

    /// Run every phase in order ([`Phase::run`]) under a soundness
    /// [`Gate`], recording rule firings in `trace` if one is given. Rule
    /// panics and gate violations both abort, attributed to
    /// `(phase, rule)`. What the run counted is [`Optimizer::counts`].
    /// The term is handed over and rewritten in place (on an error, dropped
    /// partly rewritten); borrowers use [`Optimizer::optimize`] and kin.
    pub fn run(&self, mut cur: Expr, gate: &Gate<'_>, mut trace: Option<&mut Trace>) -> Result<Expr, OptError> {
        let mut too_deep = false;
        self.phases.iter().for_each(|p| p.tally.reset());
        for p in &self.phases {
            p.run_in_place(&mut cur, gate, trace.as_deref_mut(), &mut too_deep)?;
        }
        Ok(cur)
    }

    /// What the last run counted, over every phase.
    pub fn counts(&self) -> RunCounts {
        let mut sum = RunCounts::default();
        self.phases.iter().for_each(|p| sum.add(&p.counts()));
        sum
    }

    /// Optimize an expression, ungated. A panicking rule propagates the
    /// panic; hosts running untrusted rules use [`Optimizer::try_optimize`].
    pub fn optimize(&self, e: &Expr) -> Expr {
        self.try_optimize(e).unwrap_or_else(|p| panic!("{p}")) // lint-wall: allow
    }

    /// Optimize ungated, containing rule panics as errors.
    pub fn try_optimize(&self, e: &Expr) -> Result<Expr, OptError> {
        self.run(e.clone(), &Gate::off(), None)
    }

    /// Optimize ungated and record every rule firing; panics like
    /// [`Optimizer::optimize`].
    pub fn optimize_traced(&self, e: &Expr) -> (Expr, Trace) {
        let mut trace = Trace::default();
        let run = self.run(e.clone(), &Gate::off(), Some(&mut trace));
        (run.unwrap_or_else(|p| panic!("{p}")), trace) // lint-wall: allow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(fires, bound_hits)` of `rule` in `phase`, as `counts` has them.
    fn rule(counts: &RunCounts, phase: &str, rule: &str) -> (u64, u64) {
        let mine = counts.rules.iter().filter(|r| r.phase == phase && r.rule == rule);
        mine.fold((0, 0), |(f, b), r| (f + r.fires, b + r.bound_hits))
    }
    use aql_core::expr::builder::*;
    use aql_core::expr::ArithOp;

    /// A toy rule: fold `0 + e` to `e`.
    struct ZeroAdd;
    impl Rule for ZeroAdd {
        fn name(&self) -> &'static str {
            "zero-add"
        }
        fn apply(&self, e: Expr) -> Result<Expr, Expr> {
            match e {
                Expr::Arith(aql_core::expr::ArithOp::Add, a, b) if *a == Expr::Nat(0) => Ok(*b),
                e => Err(e),
            }
        }
    }

    #[test]
    fn phase_reaches_fixpoint() {
        let mut p = Phase::new("test");
        p.add_rule(Rc::new(ZeroAdd));
        // 0 + (0 + (0 + x)) → x, requiring nested rewrites.
        let e = add(nat(0), add(nat(0), add(nat(0), var("x"))));
        let got = p.run(&e, &Gate::off(), None).expect("no rule panics");
        assert_eq!(got, var("x"));
    }

    #[test]
    fn trace_records_firings() {
        let mut p = Phase::new("test");
        p.add_rule(Rc::new(ZeroAdd));
        let mut opt = Optimizer::empty();
        opt.add_phase(p);
        let e = add(nat(0), add(nat(0), var("x")));
        let (got, trace) = opt.optimize_traced(&e);
        assert_eq!(got, var("x"));
        assert_eq!(trace.count("zero-add"), 2);
        assert!(trace.render().contains("zero-add"));
    }

    #[test]
    fn empty_optimizer_is_identity() {
        let e = add(nat(1), var("y"));
        assert_eq!(Optimizer::empty().optimize(&e), e);
    }

    #[test]
    fn dynamic_rule_injection() {
        let mut opt = Optimizer::empty();
        opt.add_phase(Phase::new("custom"));
        opt.phase_mut("custom")
            .expect("phase exists")
            .add_rule(Rc::new(ZeroAdd));
        let e = add(nat(0), nat(7));
        assert_eq!(opt.optimize(&e), nat(7));
        assert!(opt.phase_mut("missing").is_none());
    }

    #[test]
    fn for_each_child_mut_rewrites_in_place() {
        let mut e = add(nat(1), nat(2));
        aql_core::expr::children::for_each_child_mut(&mut e, &mut |_, c| *c = nat(9));
        assert_eq!(e, add(nat(9), nat(9)));
    }

    /// A hostile rule that never stops rewriting (ping-pongs between
    /// two forms). The engine's pass and per-node bounds must still
    /// terminate.
    struct PingPong;
    impl Rule for PingPong {
        fn name(&self) -> &'static str {
            "ping-pong"
        }
        fn apply(&self, e: Expr) -> Result<Expr, Expr> {
            match e {
                Expr::Arith(op, a, b) => Ok(Expr::Arith(op, b, a)),
                e => Err(e),
            }
        }
    }

    #[test]
    fn hostile_rules_cannot_hang_the_engine() {
        let mut p = Phase::new("hostile");
        p.add_rule(Rc::new(PingPong));
        let e = add(nat(1), add(nat(2), nat(3)));
        // Must return; the exact result is unspecified but well-formed.
        let got = p.run(&e, &Gate::off(), None).expect("no rule panics");
        assert!(got.size() == e.size());
    }

    #[test]
    fn a_bound_that_stops_a_phase_is_counted_and_shown() {
        let mut p = Phase::new("hostile");
        p.add_rule(Rc::new(PingPong));
        let mut opt = Optimizer::empty();
        opt.add_phase(p);
        opt.optimize(&add(nat(1), add(nat(2), nat(3))));
        // Both bounds were hit: 32 firings at each of two nodes on each
        // of 64 passes, then the pass bound itself.
        assert_eq!(rule(&opt.counts(), "hostile", "ping-pong"), (2 * 32 * 64, 2 * 64 + 1));
        assert_eq!(opt.counts().passes, 64);
        let table = opt.counts().render_fire_table();
        let last = table.lines().last().expect("a table");
        assert!(last.contains("bound hit: hostile/ping-pong"), "{table}");

        // A phase that reaches its fixpoint says nothing of the kind.
        let mut p = Phase::new("test");
        p.add_rule(Rc::new(ZeroAdd));
        let mut opt = Optimizer::empty();
        opt.add_phase(p);
        opt.optimize(&add(nat(0), add(nat(0), var("x"))));
        assert!(!opt.counts().render_fire_table().contains("bound hit"));
        assert!(opt.counts().rules.iter().all(|r| r.bound_hits == 0), "{:?}", opt.counts());
    }

    /// One half of a hostile pair that declares it substitutes: turns
    /// the `from` operator into the `to` one, and its twin turns it back.
    struct Flip {
        name: &'static str,
        from: ArithOp,
        to: ArithOp,
    }
    impl Rule for Flip {
        fn name(&self) -> &'static str {
            self.name
        }
        fn substitutes(&self) -> bool {
            true
        }
        fn apply(&self, e: Expr) -> Result<Expr, Expr> {
            match e {
                Expr::Arith(op, a, b) if op == self.from => Ok(Expr::Arith(self.to, a, b)),
                e => Err(e),
            }
        }
    }

    #[test]
    fn the_rewalk_after_a_substituting_rule_cannot_recurse_without_bound() {
        // Each firing re-walks the contractum's children, where the twin
        // fires again: recursion as deep as the term, work bounded by
        // `MAX_FIRES_PER_VISIT` at every visit. A small stack shows the
        // depth stays the term's.
        let run = || {
            let mut p = Phase::new("hostile");
            p.add_rule(Rc::new(Flip { name: "ping", from: ArithOp::Add, to: ArithOp::Mul }));
            p.add_rule(Rc::new(Flip { name: "pong", from: ArithOp::Mul, to: ArithOp::Add }));
            let opt = Optimizer::with_phases(vec![p]);
            let e = add(nat(1), add(nat(2), nat(3)));
            let (got, trace) = opt.optimize_traced(&e);
            let counts = [rule(&opt.counts(), "hostile", "pong").1, opt.counts().passes];
            // An even number of firings at each node leaves each as it was.
            (got == e, trace.len(), counts)
        };
        let thread = std::thread::Builder::new().stack_size(256 * 1024).spawn(run);
        let (unchanged, fired, [hits, passes]) = thread.expect("spawned").join().expect("no overflow");
        assert!(unchanged);
        // Per pass: 32 firings at the inner node; 32 at the root, each
        // followed by a re-walk with 32 more at the inner node — and a
        // bound hit at the end of every one of those 34 visits.
        assert_eq!(fired, 64 * (32 + 32 * (1 + 32)));
        assert_eq!((hits, passes), (64 * 34 + 1, 64));
    }

    /// Unfolds the variable `t` to `π₁(1, 2) + u`: a contractum with a
    /// redex below its root. Declared or not, per `substitutes`.
    struct Unfold {
        substitutes: bool,
    }
    impl Rule for Unfold {
        fn name(&self) -> &'static str {
            "unfold"
        }
        fn substitutes(&self) -> bool {
            self.substitutes
        }
        fn apply(&self, e: Expr) -> Result<Expr, Expr> {
            match e {
                Expr::Var(x) if x.as_ref() == "t" => {
                    Ok(add(proj(1, 2, tuple(vec![nat(1), nat(2)])), var("u")))
                }
                e => Err(e),
            }
        }
    }

    #[test]
    fn a_redex_a_declared_rule_leaves_below_its_contractum_is_reduced_in_the_same_pass() {
        let passes = |substitutes| {
            let mut p = Phase::new("normalize");
            p.add_rule(Rc::new(Unfold { substitutes }));
            p.add_rule(Rc::new(crate::rules::beta::PiTuple));
            let got = p.run(&mul(var("t"), var("y")), &Gate::off(), None).expect("no rule panics");
            assert_eq!(got, mul(add(nat(1), var("u")), var("y")));
            (p.counts().passes, rule(&p.counts(), "normalize", "pi").0)
        };
        // Declared: `unfold` and `pi` fire in the first pass; the second
        // proves the fixpoint.
        assert_eq!(passes(true), (2, 1));
        // The undeclared twin reaches the same term, one pass later.
        assert_eq!(passes(false), (3, 1));
    }

    /// `ZeroAdd` again, declaring the one head its pattern opens with.
    struct ZeroAddAtArith;
    impl Rule for ZeroAddAtArith {
        fn name(&self) -> &'static str {
            "zero-add"
        }
        fn heads(&self) -> &'static [Head] {
            &[Head::Arith]
        }
        fn apply(&self, e: Expr) -> Result<Expr, Expr> {
            ZeroAdd.apply(e)
        }
    }

    #[test]
    fn a_node_is_offered_only_to_the_rules_that_list_its_head() {
        // (0 + x, y, z): six nodes, one of them arithmetic; four once
        // it has folded, which the second pass visits to prove the
        // fixpoint.
        let e = tuple(vec![add(nat(0), var("x")), var("y"), var("z")]);
        let applies = |rule: Rc<dyn Rule>| {
            let mut p = Phase::new("test");
            p.add_rule(rule);
            let got = p.run(&e, &Gate::off(), None).expect("no rule panics");
            assert_eq!(got, tuple(vec![var("x"), var("y"), var("z")]));
            (p.counts().applies, p.counts().visits)
        };
        // Any head (the default, what a rule registered at run time
        // gets): every visit is an offer, and the firing a re-offer.
        assert_eq!(applies(Rc::new(ZeroAdd)), (6 + 1 + 4, 6 + 4));
        // One declared head: one offer, which fires; `x` has another head.
        assert_eq!(applies(Rc::new(ZeroAddAtArith)), (1, 6 + 4));
    }

    #[test]
    fn rules_are_listed_in_registration_order() {
        let mut p = Phase::new("test");
        p.add_rule(Rc::new(PingPong)).add_rule(Rc::new(ZeroAddAtArith)).add_rule(Rc::new(ZeroAdd));
        let names: Vec<_> = p.rules().iter().map(|r| r.name()).collect();
        assert_eq!(names, ["ping-pong", "zero-add", "zero-add"]);
        // …and offered in it: at an addition `ping-pong` goes first.
        let mut trace = Trace::default();
        p.run(&add(nat(0), var("x")), &Gate::off(), Some(&mut trace)).expect("no rule panics");
        assert_eq!(trace.steps[0].rule, "ping-pong");
    }

    /// A second rule deliberately registered under the SAME name as
    /// `ZeroAdd` but in a different phase: folds `e * 1` to `e`.
    struct MulOneSameName;
    impl Rule for MulOneSameName {
        fn name(&self) -> &'static str {
            "zero-add" // duplicate across phases, intentionally
        }
        fn apply(&self, e: Expr) -> Result<Expr, Expr> {
            match e {
                Expr::Arith(aql_core::expr::ArithOp::Mul, a, b) if *b == Expr::Nat(1) => Ok(*a),
                e => Err(e),
            }
        }
    }

    #[test]
    fn fired_keys_by_phase_and_rule() {
        // Regression: `count` keyed by rule name alone conflates
        // same-named rules living in different phases.
        let mut p1 = Phase::new("normalize");
        p1.add_rule(Rc::new(ZeroAdd));
        let mut p2 = Phase::new("cleanup");
        p2.add_rule(Rc::new(MulOneSameName));
        let mut opt = Optimizer::empty();
        opt.add_phase(p1);
        opt.add_phase(p2);

        // 0 + (x * 1): ZeroAdd fires once in `normalize`, the
        // same-named MulOne fires once in `cleanup`.
        let e = add(nat(0), mul(var("x"), nat(1)));
        let (got, trace) = opt.optimize_traced(&e);
        assert_eq!(got, var("x"));

        // The name-only count conflates the two firings…
        assert_eq!(trace.count("zero-add"), 2);
        // …while the run's counts, keyed by (phase, rule), separate them.
        assert_eq!(rule(&opt.counts(), "normalize", "zero-add").0, 1);
        assert_eq!(rule(&opt.counts(), "cleanup", "zero-add").0, 1);
        assert_eq!(rule(&opt.counts(), "normalize", "nope").0, 0);
        let fired: Vec<_> = opt.counts().rules.iter().map(|r| (r.phase.clone(), r.rule, r.fires)).collect();
        assert_eq!(fired, vec![("normalize".to_string(), "zero-add", 1), ("cleanup".to_string(), "zero-add", 1)]);
        let table = opt.counts().render_fire_table();
        assert!(table.contains("normalize"), "{table}");
        assert!(table.contains("cleanup"), "{table}");
    }

    #[test]
    fn phase_spans_reach_the_scope_and_the_run_keeps_its_counts() {
        let mut p = Phase::new("normalize");
        p.add_rule(Rc::new(ZeroAdd));
        let mut opt = Optimizer::empty();
        opt.add_phase(p);
        let scope = aql_trace::Scope::open(aql_trace::Trace::default());
        let got = opt.optimize(&add(nat(0), add(nat(0), var("x"))));
        let t = scope.close();
        assert_eq!(got, var("x"));
        let phase = t.find("opt.phase").expect("phase span recorded");
        assert_eq!(phase.note.as_ref().map(|(k, v)| (*k, &**v)), Some(("phase", "normalize")));
        assert_eq!(t.spans.len(), 1, "a pass is counted, not spanned");
        // Two firings total, attributed to (phase, rule); at least two
        // passes (one that fires, one that proves the fixpoint); and
        // the same counts outside a scope.
        let counts = opt.counts();
        assert_eq!(rule(&counts, "normalize", "zero-add"), (2, 0));
        assert!(counts.passes >= 2);
        assert_eq!(opt.optimize(&add(nat(0), add(nat(0), var("x")))), var("x"));
        assert_eq!(opt.counts(), counts, "a run's counts are its own: the next run starts at zero");
    }

    /// An injected rule: rewrites every occurrence of `from` to `to`.
    struct Rewrite {
        name: &'static str,
        from: Expr,
        to: Expr,
    }
    impl Rule for Rewrite {
        fn name(&self) -> &'static str {
            self.name
        }
        fn apply(&self, e: Expr) -> Result<Expr, Expr> {
            if e == self.from {
                Ok(self.to.clone())
            } else {
                Err(e)
            }
        }
    }

    /// The gate's detection table: one unsound rule per row, each
    /// rejected at its firing with exact `(phase, rule)` attribution and
    /// a message naming what broke — and each let through with the gate
    /// off, which is what the gate buys.
    #[test]
    fn the_local_gate_catches_each_kind_of_unsound_rewrite() {
        let i_lt_n = tab1("i", var("n"), var("i"));
        // Naive β of `(λx. λy. if y then x else 0) y`: the argument `y`
        // (a `nat`) lands under the inner `λy` (a `bool`).
        let k = lam("x", lam("y", iff(var("y"), var("x"), nat(0))));
        let x_plus_1 = add(var("x"), nat(1));
        let rows = [
            ("evil-type-change", add(nat(7), nat(0)), nat(7), Expr::Bool(true), "type"),
            (
                "evil-ghost-var",
                tab1("i", nat(3), add(nat(1), var("i"))),
                nat(1),
                var("ghost"),
                "unbound variable `ghost`",
            ),
            (
                "evil-rank-change",
                lam("n", i_lt_n.clone()),
                i_lt_n,
                tab(vec![("i", var("n")), ("j", var("n"))], var("i")),
                "type",
            ),
            (
                "evil-arity-change",
                lam("x", tuple(vec![var("x"), var("x")])),
                tuple(vec![var("x"), var("x")]),
                tuple(vec![var("x"), var("x"), var("x")]),
                "type",
            ),
            (
                "evil-capture",
                lam("y", app(k.clone(), add(var("y"), nat(0)))),
                app(k, add(var("y"), nat(0))),
                lam("y", iff(var("y"), add(var("y"), nat(0)), nat(0))),
                "ill-formed",
            ),
            // The binder `x` is a `nat` to the redex and a `bool` to the
            // contractum; each alone is well-typed.
            (
                "evil-binder-at-two-types",
                lam("x", x_plus_1.clone()),
                x_plus_1,
                iff(var("x"), nat(1), nat(2)),
                "type mismatch",
            ),
        ];
        for (name, input, from, to, says) in rows {
            let mut p = Phase::new("normalize");
            p.add_rule(Rc::new(Rewrite { name, from, to }));
            let mut opt = Optimizer::empty();
            opt.add_phase(p);
            let off = opt.run(input.clone(), &Gate::off(), None).expect("gate off");
            assert_ne!(off, input, "{name}: the rule fires, and ungated nothing stops it");
            let err = opt.run(input.clone(), &Gate::local(), None).expect_err(name);
            let OptError::Unsound(v) = &err else {
                panic!("{name}: expected Unsound, got {err}");
            };
            assert_eq!((v.phase.as_str(), v.rule), ("normalize", name));
            assert!(v.message.contains(says), "{name}: {}", v.message);
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    /// Declines every node, but swaps an addition's operands first: a
    /// rewrite the gate would never see if it trusted `Err`.
    struct ChangesWhatItDeclines;
    impl Rule for ChangesWhatItDeclines {
        fn name(&self) -> &'static str {
            "changes-what-it-declines"
        }
        fn apply(&self, e: Expr) -> Result<Expr, Expr> {
            match e {
                Expr::Arith(op, a, b) => Err(Expr::Arith(op, b, a)),
                e => Err(e),
            }
        }
    }

    #[test]
    fn the_gate_rejects_a_rule_that_changes_a_node_it_declines() {
        let mut p = Phase::new("normalize");
        p.add_rule(Rc::new(ChangesWhatItDeclines));
        let opt = Optimizer::with_phases(vec![p]);
        let e = add(nat(1), var("x"));
        let off = opt.run(e.clone(), &Gate::off(), None).expect("gate off");
        assert_eq!(off, add(var("x"), nat(1)), "ungated, the change slips through unseen");
        let err = opt.run(e.clone(), &Gate::local(), None).expect_err("the gate sees it");
        let OptError::Unsound(v) = &err else { panic!("expected Unsound, got {err}") };
        assert_eq!((v.phase.as_str(), v.rule), ("normalize", "changes-what-it-declines"));
        assert!(v.message.contains("declined"), "{}", v.message);
    }

    #[test]
    fn sound_rules_pass_the_gate() {
        let mut p = Phase::new("normalize");
        p.add_rule(Rc::new(ZeroAdd));
        let mut opt = Optimizer::empty();
        opt.add_phase(p);
        // Rewrites under binders (λ, tabulation) with free occurrences
        // of the bound variables: the gate must not false-positive.
        let e = lam("x", add(nat(0), var("x")));
        let got = opt
            .run(e.clone(), &Gate::local(), None)
            .expect("sound rewrite passes");
        assert_eq!(got, lam("x", var("x")));
        let e = tab1("i", nat(4), add(nat(0), mul(var("i"), var("i"))));
        let mut trace = Trace::default();
        let got = opt
            .run(e.clone(), &Gate::local(), Some(&mut trace))
            .expect("sound rewrite passes");
        assert_eq!(got, tab1("i", nat(4), mul(var("i"), var("i"))));
        assert_eq!(rule(&opt.counts(), "normalize", "zero-add").0, 1);
    }

    #[test]
    fn phase_boundary_check_runs_after_firing_phases() {
        let mut p = Phase::new("normalize");
        p.add_rule(Rc::new(ZeroAdd));
        let mut opt = Optimizer::empty();
        opt.add_phase(p);
        // A check that rejects everything: only consulted when a rule
        // fired, and attributed to the last firing rule.
        let reject = |_: &Expr| -> Result<Result<(), String>, TooDeep> { Ok(Err("nope".into())) };
        let gate = Gate::full(&reject);
        // No redex → no firing → the check never runs.
        opt.run(var("x"), &gate, None)
            .expect("no firing, no phase check");
        // A firing phase consults the check.
        let err = opt
            .run(add(nat(0), var("x")), &gate, None)
            .expect_err("phase check must reject");
        let OptError::Unsound(v) = err else {
            panic!("expected Unsound, got {err}");
        };
        assert_eq!((v.phase.as_str(), v.rule), ("normalize", "zero-add"));
        assert!(v.message.contains("phase-boundary"), "{}", v.message);
    }

    #[test]
    fn trace_clips_huge_terms() {
        // A large redex renders truncated in the trace, not in full.
        let mut inner = var("x");
        for _ in 0..100 {
            inner = add(inner, var("quite_a_long_variable_name"));
        }
        let mut p = Phase::new("test");
        p.add_rule(Rc::new(ZeroAdd));
        let mut opt = Optimizer::empty();
        opt.add_phase(p);
        let (_, trace) = opt.optimize_traced(&add(nat(0), inner));
        assert_eq!(trace.len(), 1);
        assert!(trace.steps[0].before.chars().count() <= 121);
        // Multi-byte characters: the cut lands on a character boundary,
        // wherever the two-byte `é`s happen to start.
        for pad in ["a", "ab"] {
            let long = Expr::Str(format!("{pad}{}", "é".repeat(200)).into());
            let (_, trace) = opt.optimize_traced(&add(nat(0), long));
            assert_eq!(trace.len(), 1);
            let after = &trace.steps[0].after;
            assert!(after.len() <= 120 && after.ends_with("é…"), "{after}");
        }
    }
}
