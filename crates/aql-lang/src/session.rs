//! The AQL top-level environment and read-eval-print session (§4).
//!
//! A [`Session`] owns the four registries of the paper's environment
//! module — `val` bindings, `macro` definitions, external primitives,
//! and data readers/writers — plus the optimizer. Executing a
//! statement runs the full Fig. 3 pipeline:
//!
//! ```text
//! parse → desugar (Fig. 2) → resolve names → typecheck
//!       → macro substitution happens at resolve → optimize
//!       → compile → evaluate → pretty-print
//! ```
//!
//! Openness (§4.1): [`Session::register_external`],
//! [`Session::register_reader`], [`Session::register_writer`] and
//! [`Session::optimizer_mut`] inject primitives, drivers and rules at
//! run time — the Rust counterparts of the paper's SML registration
//! routines. Each statement closes into one record; every report of it
//! is a view in [`crate::report`].

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use aql_journal::attr::SourceCounts;
use aql_journal::{emit, ErrorClass, Event};

use aql_core::check::{same_principal_type, type_compatible, typecheck};
use aql_core::error::{EvalError, TypeError};
use aql_core::eval::{EvalCtx, EvalStats, Limits};
use aql_core::expr::children::try_for_each_child_mut;
use aql_core::expr::{name, Expr, Name};
use aql_core::prim::{Extensions, NativeFn};
use aql_core::stack::TooDeep;
use aql_core::types::Type;
use aql_core::value::print::session_string;
use aql_core::value::tyof::type_of_value;
use aql_core::value::Value;
use aql_opt::{Gate, OptError, Optimizer, Trace};
use aql_store::CacheStats;
use aql_trace::{profile::Profile, Note};

use crate::ast::Stmt;
use crate::desugar::desugar;
use crate::errors::LangError;
use crate::parser::parse_program;
use crate::reader::{CoFileReader, CoFileWriter, Reader, Writer};
use crate::report::{self, Counts, Sinks, SlowLog, StmtRecord};
pub use crate::report::{AnalyzeReport, Explain, LintReport, QueryReport};

/// Prelude macros, written in AQL itself and present in every
/// session: the derived operators §3 says "are available as macros".
pub const PRELUDE: &str = r#"
macro \zip = fn (\a, \b) => [[ (a[i], b[i]) | \i < min!{len!a, len!b} ]];
macro \zip_3 = fn (\a, \b, \c) => [[ (a[i], b[i], c[i]) | \i < min!{len!a, len!b, len!c} ]];
macro \subseq = fn (\a, \i, \j) => [[ a[i + k] | \k < (j + 1) - i ]];
macro \evenpos = fn \a => [[ a[i * 2] | \i < len!a / 2 ]];
macro \oddpos = fn \a => [[ a[i * 2 + 1] | \i < len!a / 2 ]];
macro \reverse = fn \a => [[ a[len!a - i - 1] | \i < len!a ]];
macro \transpose = fn \m => [[ m[i, j] | \j < dim_2_2!m, \i < dim_1_2!m ]];
macro \proj_col = fn (\m, \j) => [[ m[i, j] | \i < dim_1_2!m ]];
macro \proj_row = fn (\m, \i) => [[ m[i, j] | \j < dim_2_2!m ]];
macro \matmul = fn (\m, \n) =>
  if dim_2_2!m <> dim_1_2!n then bottom
  else [[ summap(fn \q => m[i, q] * n[q, k])!(gen!(dim_2_2!m))
        | \i < dim_1_2!m, \k < dim_2_2!n ]];
macro \append = fn (\a, \b) =>
  [[ if i < len!a then a[i] else b[i - len!a] | \i < len!a + len!b ]];
macro \filter = fn (\p, \s) => {x | \x <- s, p!x};
macro \forall_in = fn (\s, \p) => summap(fn \x => if p!x then 0 else 1)!(s) = 0;
macro \exists_in = fn (\s, \p) => summap(fn \x => if p!x then 1 else 0)!(s) > 0;
macro \nest = fn \X => {(x, {y | (x, \y) <- X}) | (\x, _) <- X};
macro \graph = fn \a => {(i, a[i]) | [\i : _] <- a};

(* --- ODMG array primitives (§7: "our array query language can also
       easily simulate all ODMG array primitives"), functionally:   --- *)
(* update element i to v *)
macro \upd = fn (\a, \i, \v) =>
  [[ if j = i then v else a[j] | \j < len!a ]];
(* resize to n, filling new slots with d *)
macro \resize = fn (\a, \n, \d) =>
  [[ if i < len!a then a[i] else d | \i < n ]];
(* insert v before position i (i <= len a) *)
macro \insert_at = fn (\a, \i, \v) =>
  [[ if j < i then a[j] else if j = i then v else a[j - 1]
   | \j < len!a + 1 ]];
(* remove the element at position i (i < len a) *)
macro \remove_at = fn (\a, \i) =>
  if i < len!a then [[ if j < i then a[j] else a[j + 1] | \j < len!a - 1 ]]
  else bottom;

(* --- reshaping (§1: "why not include primitives for … reshaping a
       one-dimensional array in row-major order into a two-dimensional
       array, etc.?" — because tabulation derives them) --- *)
macro \reshape = fn (\a, \r, \c) => [[ a[i * c + j] | \i < r, \j < c ]];
macro \flatten = fn \m =>
  [[ m[i / dim_2_2!m, i % dim_2_2!m] | \i < dim_1_2!m * dim_2_2!m ]];

(* --- coordinate-valued indices (§7 future work: "more meaningful
       data types such as longitudes and latitudes as indices"):
       nearest-coordinate lookup over a coordinate array, definable
       inside AQL via the canonical order on (distance, index) pairs --- *)
macro \nearest = fn (\c, \x) =>
  pi_2_2!(min!{((if v > x then v - x else x - v), i) | [\i : \v] <- c});
"#;

/// A macro's resolved body as written and, if one was kept, its normal
/// form ([`Session::normal_body`]); shared between the sessions that
/// hold it.
type Macro = Rc<(Expr, Option<Expr>)>;

thread_local! {
    /// What running [`PRELUDE`] through a bare session leaves behind —
    /// its macro table and the statement sequence number it reached —
    /// computed once per thread (a [`Session`] holds `Rc`s) and handed
    /// to every [`Session::new`] on it. The prelude's statements are
    /// therefore journalled once per thread, not once per session.
    static PRELUDE_LOADED: (HashMap<Name, Macro>, u64) = {
        let mut s = Session::bare();
        s.run(PRELUDE).expect("prelude must load");
        (s.macros, s.stmt_seq)
    };
}

/// One run of a pipeline phase: opens the phase's trace span and, on
/// drop, emits [`Event::Phase`] with the span's duration — the one
/// number the span tree, the `aql_session_phase_ns{phase=…}` histogram,
/// the journal and the statement's attribution ledger (and from it the
/// slow-query log) all carry. Phase names are the fixed pipeline set
/// (`lex`, `parse`, `desugar`, `resolve`, `typecheck`, `optimize`,
/// `eval`, `readval`, `writeval`).
pub(crate) struct PhaseGuard {
    phase: &'static str,
    span: Option<aql_trace::SpanGuard>,
}

pub(crate) fn phase(phase: &'static str) -> PhaseGuard {
    PhaseGuard { phase, span: Some(aql_trace::span(phase)) }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let ns = self.span.take().map_or(0, aql_trace::SpanGuard::finish);
        emit(Event::Phase { phase: self.phase, ns });
    }
}

/// The kind of statement an outcome came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeKind {
    /// A `val` declaration.
    Val(String),
    /// A `macro` declaration.
    Macro(String),
    /// A `readval` command.
    Read(String),
    /// A `writeval` command.
    Write,
    /// A bare query (bound to `it`, as in the paper's session).
    Query,
}

/// The result of executing one statement.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What kind of statement executed.
    pub kind: OutcomeKind,
    /// Its type (absent for `writeval`).
    pub ty: Option<Type>,
    /// Its value (absent for macros and `writeval`).
    pub value: Option<Value>,
    /// The session echo, formatted like the paper's sample session
    /// (`typ … : …` / `val … = …`).
    pub text: String,
}

/// An interactive AQL session: the top-level environment plus the
/// query pipeline.
pub struct Session {
    vals: HashMap<Name, Value>,
    val_types: HashMap<Name, Type>,
    macros: HashMap<Name, Macro>,
    externals: Extensions,
    readers: HashMap<Arc<str>, Rc<dyn Reader>>,
    writers: HashMap<Arc<str>, Rc<dyn Writer>>,
    optimizer: Optimizer,
    /// Evaluation limits for queries run in this session.
    pub limits: Limits,
    /// Whether the optimizer runs (on by default; benches turn it off
    /// to measure the unoptimized pipeline).
    pub optimize: bool,
    /// Whether the rewrite-soundness gate runs during optimization:
    /// every rule firing is typechecked as a fragment
    /// ([`aql_core::check::check_rewrite`]) and each phase that rewrote
    /// anything is re-typechecked against the query's original type.
    /// Defaults to on in debug builds and off in release; the
    /// `AQL_VERIFY` environment variable overrides (`0`/`false`/`off`
    /// disable, anything else enables).
    pub verify: bool,
    /// Truncation width for session echoes of large values.
    pub display_limit: usize,
    /// Accumulator for the statement currently executing: every
    /// evaluation and optimizer run within it adds its counts here;
    /// [`Session::exec`] drains it into the statement's record.
    cur: RefCell<Counts>,
    /// The finished statements of the most recent [`Session::run`].
    records: Vec<StmtRecord>,
    /// The span tree of the most recent run (or lone [`Session::exec`]).
    trace: aql_trace::Trace,
    /// Per source label, the sum of every finished statement's row:
    /// what `\store` reports a source moved for this session.
    source_totals: Vec<(String, SourceCounts)>,
    /// The slow-query log and the incident directory.
    sinks: Sinks,
    /// Monotone statement sequence number.
    stmt_seq: u64,
}

impl Session {
    /// A session with the standard optimizer, the `COFILE`
    /// reader/writer, and the AQL prelude loaded.
    pub fn new() -> Session {
        let mut s = Session::bare();
        PRELUDE_LOADED.with(|(macros, seq)| {
            s.macros = macros.clone();
            s.stmt_seq = *seq;
        });
        s
    }

    /// A session without the prelude (used by tests that want full
    /// control; the builtin `COFILE` driver is still registered).
    pub fn bare() -> Session {
        Session {
            vals: HashMap::new(),
            val_types: HashMap::new(),
            macros: HashMap::new(),
            externals: Extensions::new(),
            readers: HashMap::from([("COFILE".into(), Rc::new(CoFileReader) as Rc<dyn Reader>)]),
            writers: HashMap::from([("COFILE".into(), Rc::new(CoFileWriter) as Rc<dyn Writer>)]),
            optimizer: aql_opt::standard(),
            limits: Limits::default(),
            optimize: true,
            verify: default_verify(),
            display_limit: aql_core::value::print::SESSION_TRUNCATE,
            cur: RefCell::default(),
            records: Vec::new(),
            trace: aql_trace::Trace::default(),
            source_totals: Vec::new(),
            sinks: Sinks::default(),
            stmt_seq: 0,
        }
    }

    /// Route the slow-query log to `sink`: every statement whose wall
    /// time reaches `threshold` is appended to `sink` as one JSON
    /// object per line (see DESIGN.md §11 for the record schema). Write
    /// errors are ignored: the log is telemetry, never a reason to
    /// fail a query.
    pub fn enable_slow_log(&mut self, sink: Box<dyn std::io::Write>, threshold: Duration) {
        self.sinks.slow_log = Some(SlowLog { sink, threshold });
    }

    /// Stop slow-query logging and release the sink.
    pub fn disable_slow_log(&mut self) {
        self.sinks.slow_log = None;
    }

    /// Enable the incident dump pipeline: a statement that errors,
    /// hits a resource limit, or crosses the slow-query log's threshold
    /// (when that log is on) writes one self-contained JSON file into
    /// `dir` — the flight recorder's last 256 events, the statement's
    /// attribution ledger and the metrics that moved (see
    /// `aql_journal::incident` and DESIGN.md §14). Dump failures are
    /// swallowed — incidents are telemetry, never a reason to fail a
    /// query.
    pub fn enable_incidents(&mut self, dir: impl Into<std::path::PathBuf>) {
        let dir = dir.into();
        // Keep `GET /incidents` pointed at the same directory.
        aql_journal::metrics::http::set_incident_dir(Some(dir.clone()));
        self.sinks.incidents = Some(dir);
    }

    /// Stop dumping incidents.
    pub fn disable_incidents(&mut self) {
        aql_journal::metrics::http::set_incident_dir(None);
        self.sinks.incidents = None;
    }

    /// Path of the most recent incident dump of this session, if any.
    pub fn last_incident_path(&self) -> Option<std::path::PathBuf> {
        self.sinks.last_incident.clone()
    }

    /// The `\doctor` analysis: the most recent incident dump when one
    /// exists, otherwise a live reading of the flight recorder plus the
    /// last statement's attribution ledger.
    pub fn doctor(&self) -> String {
        self.sinks.doctor(self.records.last())
    }

    /// Statistics of the most recent [`Session::run`]: the
    /// component-wise sum over *all* its statements (steps plus the
    /// chunk-cache counters attributable to each). Zeroes before the
    /// first query. For per-statement attribution use
    /// [`Session::last_report`].
    pub fn last_stats(&self) -> EvalStats {
        self.records.iter().fold(EvalStats::default(), |sum, r| sum.merged(&r.counts.stats))
    }

    /// The report for the most recent [`Session::run`]: what each of
    /// its statements counted, in program order, and the span tree that
    /// timed the run (every run records one).
    pub fn last_report(&self) -> QueryReport {
        QueryReport::of(&self.records, self.trace.clone())
    }

    // ---- openness: registration (§4.1) ---------------------------------

    /// Register an external primitive (the paper's `RegisterCO`).
    pub fn register_external(&mut self, f: NativeFn) {
        self.externals.register(f);
    }

    /// Register a data reader under a name usable in `readval`.
    pub fn register_reader(&mut self, rname: &str, r: Rc<dyn Reader>) {
        self.readers.insert(rname.into(), r);
    }

    /// Register a data writer under a name usable in `writeval`.
    pub fn register_writer(&mut self, wname: &str, w: Rc<dyn Writer>) {
        self.writers.insert(wname.into(), w);
    }

    /// Mutable access to the optimizer, for injecting rules/phases.
    pub fn optimizer_mut(&mut self) -> &mut Optimizer {
        &mut self.optimizer
    }

    /// Bind a `val` directly from Rust (type inferred from the value).
    pub fn bind_val(&mut self, vname: &str, v: Value) -> Result<(), LangError> {
        let ty = type_of_value(&v)
            .ok_or_else(|| LangError::session(format!("cannot infer the type of `{vname}`")))?;
        self.bind_val_typed(vname, v, ty);
        Ok(())
    }

    /// Bind a `val` with an explicit type.
    pub fn bind_val_typed(&mut self, vname: &str, v: Value, ty: Type) {
        self.vals.insert(name(vname), v);
        self.val_types.insert(name(vname), ty);
    }

    /// Look up a `val` (including `it`, the last query result).
    pub fn val(&self, vname: &str) -> Option<&Value> {
        self.vals.get(vname)
    }

    /// The bound `val` names with their types, sorted.
    pub fn val_bindings(&self) -> Vec<(String, Type)> {
        let mut v: Vec<(String, Type)> = self
            .val_types
            .iter()
            .map(|(k, t)| (k.to_string(), t.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// A storage report (`report::store`): per source label the
    /// session's totals, then each open lazy binding's residency, then
    /// the process chunk governor's usage and high-water mark. Rendered
    /// by the REPL's `\store;` meta-command.
    pub fn store_report(&self) -> String {
        report::store(&self.vals, &self.source_totals)
    }

    /// The registered macros, by name.
    pub fn macro_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.macros.keys().map(|k| k.to_string()).collect();
        v.sort();
        v
    }

    // ---- the pipeline ----------------------------------------------------

    /// Execute a program (one or more `;`-terminated statements),
    /// recording its span tree ([`Session::last_report`]).
    pub fn run(&mut self, src: &str) -> Result<Vec<Outcome>, LangError> {
        let scope = aql_trace::Scope::open(std::mem::take(&mut self.trace));
        let out = self.run_program(src);
        self.trace = scope.close();
        out
    }

    fn run_program(&mut self, src: &str) -> Result<Vec<Outcome>, LangError> {
        self.records.clear();
        let stmts = parse_program(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.exec_statement(&s)?);
        }
        Ok(out)
    }

    /// [`Session::run`] with its report ([`Session::last_report`]).
    pub fn profile(&mut self, src: &str) -> Result<(Vec<Outcome>, QueryReport), LangError> {
        let outcomes = self.run(src)?;
        Ok((outcomes, self.last_report()))
    }

    /// [`Session::run`] with its span tree folded into collapsed stacks
    /// ([`Profile::from_trace`]: each span path
    /// weighs its exact self time; renderable as text or an SVG
    /// flamegraph). The program runs once.
    pub fn flame(&mut self, src: &str) -> Result<(Vec<Outcome>, Profile), LangError> {
        let outcomes = self.run(src)?;
        Ok((outcomes, Profile::from_trace(&self.trace)))
    }

    /// Evaluate a single query expression and return its type and value.
    pub fn eval_query(&mut self, src: &str) -> Result<(Type, Value), LangError> {
        let outcomes = self.run(&format!("{src};"))?;
        let last = outcomes
            .into_iter()
            .last()
            .ok_or_else(|| LangError::session("empty input"))?;
        match (last.ty, last.value) {
            (Some(t), Some(v)) => Ok((t, v)),
            _ => Err(LangError::session("statement did not produce a value")),
        }
    }

    /// Run a statement under a root `statement` span (called alone, its
    /// tree is the session's last) and close it into its record
    /// (`StmtRecord`): the span's duration, counts added up over its
    /// evaluations and optimizer runs, cache counters read from its
    /// attribution row — so reader I/O and echo-forced chunk loads are
    /// attributed to the statement that caused them.
    pub fn exec(&mut self, stmt: &Stmt) -> Result<Outcome, LangError> {
        let scope = aql_trace::Scope::open(std::mem::take(&mut self.trace));
        let out = self.exec_statement(stmt);
        self.trace = scope.close();
        out
    }

    fn exec_statement(&mut self, stmt: &Stmt) -> Result<Outcome, LangError> {
        let span = aql_trace::span("statement");
        let kind = stmt.kind();
        aql_trace::note("kind", Note::Static(kind));
        let seq = self.stmt_seq;
        self.stmt_seq += 1;
        let hash = stmt.fingerprint();
        emit(Event::StmtBegin { kind, seq, hash });
        self.cur.take();
        aql_store::governor::reset_peak();
        aql_journal::attr::begin();
        let out = self.exec_inner(stmt);
        let mut attr = aql_journal::attr::finish();
        attr.governor_peak_bytes = aql_store::governor::peak_bytes();
        emit(Event::GovernorPeak { bytes: attr.governor_peak_bytes });
        let mut counts = self.cur.take();
        counts.stats.cache = CacheStats::from(&attr);
        for (label, row) in &attr.sources {
            match self.source_totals.iter_mut().find(|(l, _)| l == label) {
                Some((_, sum)) => *sum = *sum + *row,
                None => self.source_totals.push((label.clone(), *row)),
            }
        }
        let dur_ns = span.finish();
        let class = out.as_ref().err().map(LangError::class);
        emit(Event::StmtEnd { outcome: class.map_or("ok", ErrorClass::name), seq, ns: dur_ns });
        if class.is_some() {
            emit(Event::StmtFailed);
        }
        if class == Some(ErrorClass::Unsound) {
            emit(Event::StmtUnsound);
        }
        let rec = StmtRecord { kind, seq, hash, dur_ns, class, counts, attr };
        self.sinks.report(&rec, out.as_ref().err());
        self.records.push(rec);
        out
    }

    fn exec_inner(&mut self, stmt: &Stmt) -> Result<Outcome, LangError> {
        let (vname, kind, ty, v) = match stmt {
            Stmt::Val(vname, e) => {
                let (ty, v) = self.eval_surface(e)?;
                (vname.as_str(), OutcomeKind::Val(vname.clone()), default_type_vars(&ty), v)
            }
            // The last query result is bound to `it`, as in ML.
            Stmt::Query(e) => {
                let (ty, v) = self.eval_surface(e)?;
                ("it", OutcomeKind::Query, default_type_vars(&ty), v)
            }
            Stmt::ReadVal { name: vname, reader, arg } => {
                let (_, argv) = self.eval_surface(arg)?;
                let (rname, r) = self.readers.get_key_value(reader.as_str()).ok_or_else(|| {
                    LangError::session(format!("no reader registered as `{reader}`"))
                })?;
                let (v, declared) = {
                    let _phase = phase("readval");
                    aql_trace::note("reader", Note::Shared(Arc::clone(rname)));
                    catch_extension("reader", reader, || r.read(&argv))??
                };
                let ty = declared.or_else(|| type_of_value(&v)).ok_or_else(|| {
                    LangError::session(format!(
                        "reader `{reader}` produced a value of ambiguous type; \
                         have the reader declare its result type"
                    ))
                })?;
                (vname.as_str(), OutcomeKind::Read(vname.clone()), ty, v)
            }
            Stmt::MacroDef(mname, e) => {
                let written = self.resolved(desugar(e)?, false)?;
                let ty = typecheck(&written, &self.val_types, &self.externals)?;
                let normal = self.normal_body(&written, &ty);
                self.macros.insert(name(mname), Rc::new((written, normal)));
                return Ok(Outcome {
                    text: format!("typ {mname} : {ty}\nval {mname} = {mname} registered as macro."),
                    kind: OutcomeKind::Macro(mname.clone()),
                    ty: Some(ty),
                    value: None,
                });
            }
            Stmt::WriteVal { value, writer, arg } => {
                let (_, v) = self.eval_surface(value)?;
                let (_, argv) = self.eval_surface(arg)?;
                let (wname, w) = self.writers.get_key_value(writer.as_str()).ok_or_else(|| {
                    LangError::session(format!("no writer registered as `{writer}`"))
                })?;
                {
                    let _phase = phase("writeval");
                    aql_trace::note("writer", Note::Shared(Arc::clone(wname)));
                    catch_extension("writer", writer, || w.write(&argv, &v))??;
                }
                return Ok(Outcome {
                    text: format!("val it = () written using {writer}."),
                    kind: OutcomeKind::Write,
                    ty: None,
                    value: None,
                });
            }
        };
        self.bind_val_typed(vname, v.clone(), ty.clone());
        Ok(self.echo(vname, kind, ty, v))
    }

    /// A bound value's echo, as the paper's session prints it:
    /// `typ x : t` / `val x = v`.
    fn echo(&self, vname: &str, kind: OutcomeKind, ty: Type, v: Value) -> Outcome {
        let text = format!("typ {vname} : {ty}\nval {vname} = {}", session_string(&v, self.display_limit));
        Outcome { text, kind, ty: Some(ty), value: Some(v) }
    }

    /// The expression pipeline: desugar → resolve → typecheck →
    /// optimize → evaluate.
    fn eval_surface(&self, e: &crate::ast::SExpr) -> Result<(Type, Value), LangError> {
        let core = {
            let _phase = phase("desugar");
            desugar(e)?
        };
        self.eval_core(core)
    }

    /// Run the pipeline from the core-calculus stage, each phase under
    /// its own trace span; what it counts is added to the statement's.
    pub fn eval_core(&self, core: Expr) -> Result<(Type, Value), LangError> {
        let resolved = {
            let _phase = phase("resolve");
            self.resolved(core, self.optimize)?
        };
        let ty = {
            let _phase = phase("typecheck");
            typecheck(&resolved, &self.val_types, &self.externals)?
        };
        let optimized = if self.optimize {
            let _phase = phase("optimize");
            self.optimize_gated(resolved, &ty, None)?
        } else {
            resolved
        };
        let ctx = EvalCtx::new(&self.vals, &self.externals).with_limits(self.limits.clone());
        let v = {
            let _phase = phase("eval");
            aql_analysis::eval_elided(&optimized, &ctx)
        };
        self.cur.borrow_mut().add_eval(&ctx);
        let v = v?;
        Ok((ty, v))
    }

    /// The phase-boundary half of the soundness gate: re-typecheck the
    /// whole term in the session environment and require the query's
    /// type to be preserved (up to inference-variable numbering).
    fn phase_check(&self, expected: &Type) -> impl Fn(&Expr) -> Result<Result<(), String>, TooDeep> + '_ {
        let expected = expected.clone();
        move |e2: &Expr| {
            Ok(match typecheck(e2, &self.val_types, &self.externals) {
                Err(TypeError::TooDeep) => return Err(TooDeep),
                Err(err) => Err(format!("optimized term no longer typechecks: {err}")),
                Ok(t2) if type_compatible(&expected, &t2) => Ok(()),
                Ok(t2) => Err(format!("query type changed: {expected} ~> {t2}")),
            })
        }
    }

    /// Run the optimizer under the session's gate setting, adding what
    /// it counts to the statement's. Rules are extension code: a
    /// panicking rule is contained and named, and the session stays usable.
    fn optimize_gated(&self, resolved: Expr, ty: &Type, trace: Option<&mut Trace>) -> Result<Expr, LangError> {
        let check = self.phase_check(ty);
        let gate = if self.verify { Gate::full(&check) } else { Gate::off() };
        let out = self.optimizer.run(resolved, &gate, trace).map_err(opt_error);
        self.cur.borrow_mut().opt.add(&self.optimizer.counts());
        out
    }

    /// A macro body's normal form under the session's own `normalize`
    /// phase and gate, computed once, where the macro is defined. Kept
    /// only at a fixpoint no deeper and no larger than the body, with the
    /// body's exact principal type (dead code dropped must not drop its
    /// constraints), for a body over no `val` or external (either can be
    /// rebound at another type); otherwise the macro resolves as written
    /// (DESIGN.md §10 (7)).
    fn normal_body(&self, written: &Expr, ty: &Type) -> Option<Expr> {
        let mut closed = true;
        written.walk(&mut |n| closed &= !matches!(n, Expr::Global(_) | Expr::Ext(_)));
        let normalize = self.optimizer.phase("normalize").filter(|_| closed)?;
        let _phase = phase("optimize");
        let check = self.phase_check(ty);
        let gate = if self.verify { Gate::full(&check) } else { Gate::off() };
        let normal = normalize.run(written, &gate, None).ok();
        let counts = normalize.counts();
        self.cur.borrow_mut().opt.add(&counts);
        let within = |(size, depth), (at_most, deepest)| size <= at_most && depth <= deepest;
        let fits = |n: &Expr| n.extent().zip(written.extent()).is_some_and(|(n, w)| within(n, w));
        normal.filter(|n| counts.at_fixpoint() && fits(n) && same_principal_type(written, n))
    }

    /// Resolve free names: macros are substituted, externals become
    /// [`Expr::Ext`], `val`s become [`Expr::Global`]. Lexically bound
    /// names are untouched. A macro's body is stored fully resolved; it
    /// is inserted in its normal form when the optimizer will run
    /// ([`Session::optimize`]) and one was kept, and as written
    /// otherwise, so an optimizer-off run is the unoptimized reference.
    /// A term too deep for this thread's stack comes back with its
    /// deepest names unresolved; the session's own pipeline ends it in
    /// `too-deep`.
    pub fn resolve(&self, e: &Expr) -> Expr {
        let mut resolved = e.clone();
        let _ = self.resolve_in(&mut resolved, &mut Vec::new(), self.optimize);
        resolved
    }

    /// [`Session::resolve`] in place, for the pipeline's own term (a
    /// clone would walk it unguarded), with macros in normal form or not.
    fn resolved(&self, mut e: Expr, normal: bool) -> Result<Expr, TooDeep> {
        self.resolve_in(&mut e, &mut Vec::new(), normal)?;
        Ok(e)
    }

    fn resolve_in(&self, e: &mut Expr, bound: &mut Vec<Name>, normal: bool) -> Result<(), TooDeep> {
        aql_core::stack::check()?;
        if let Expr::Var(x) = e {
            if bound.contains(x) {
                return Ok(());
            }
            if let Some(m) = self.macros.get(x) {
                *e = m.1.as_ref().filter(|_| normal).unwrap_or(&m.0).clone();
            } else if self.externals.get(x).is_some() {
                *e = Expr::Ext(x.clone());
            } else if self.vals.contains_key(x) {
                *e = Expr::Global(x.clone());
            }
            return Ok(());
        }
        try_for_each_child_mut(e, &mut |binders, c| {
            bound.extend_from_slice(binders);
            let resolved = self.resolve_in(c, bound, normal);
            bound.truncate(bound.len() - binders.len());
            resolved
        })
    }

    /// The evaluation context over this session's registries
    /// (used by the benchmark, which needs direct evaluator access).
    pub fn eval_expr_raw(&self, e: &Expr) -> Result<Value, EvalError> {
        let ctx = EvalCtx::new(&self.vals, &self.externals).with_limits(self.limits.clone());
        aql_analysis::eval_elided(e, &ctx)
    }

    /// The front half of the pipeline, for the queries that stop short
    /// of evaluation: parse → desugar → resolve (macros in normal form
    /// or not) → typecheck.
    fn check_query(&self, query: &str, normal: bool) -> Result<(Expr, Type), LangError> {
        let resolved = self.resolved(desugar(&crate::parser::parse_expr(query)?)?, normal)?;
        let ty = typecheck(&resolved, &self.val_types, &self.externals)?;
        Ok((resolved, ty))
    }

    /// Explain a query: run the pipeline up to (but not including)
    /// evaluation and report the core term, its type, the optimized
    /// term, and the full §5 rewrite trace.
    pub fn explain(&self, query: &str) -> Result<Explain, LangError> {
        let (resolved, ty) = self.check_query(query, true)?;
        let mut trace = Trace::default();
        let optimized = self.optimize_gated(resolved.clone(), &ty, Some(&mut trace))?;
        let layouts = self.source_layouts();
        let cost = |e: &Expr| {
            let globals = aql_analysis::globals_mentioned(e, &self.vals);
            aql_analysis::cost::estimate(e, &aql_analysis::analyze(e, &globals), &layouts)
        };
        let (cost_before, cost_after) = (cost(&resolved), cost(&optimized));
        Ok(Explain { ty, core: resolved, optimized, trace, counts: self.optimizer.counts(), cost_before, cost_after })
    }

    /// Every `val` binding of the session as an abstract value, a
    /// globals map for the `aql-analysis` interpreter: bound arrays
    /// contribute their concrete extents, scalars their exact values.
    /// (The session's own statement path abstracts only the bindings a
    /// term mentions — [`aql_analysis::globals_mentioned`].)
    pub fn analysis_globals(&self) -> BTreeMap<Name, aql_analysis::AbsVal> {
        self.vals
            .iter()
            .map(|(n, v)| (n.clone(), aql_analysis::absval_of_value(v)))
            .collect()
    }

    /// Chunk layouts of the session's lazily stored array bindings,
    /// for the bytes-moved half of [`aql_analysis::cost::estimate`].
    pub fn source_layouts(&self) -> BTreeMap<Name, aql_analysis::cost::SourceLayout> {
        use aql_core::value::array::ArrayData;
        let mut out = BTreeMap::new();
        for (n, v) in &self.vals {
            let Value::Array(a) = v else { continue };
            let ArrayData::Lazy(l) = a.array_data() else { continue };
            let l = l.borrow();
            let layout = l.layout();
            let elem_bytes = match l.kind() {
                aql_store::ScalarKind::F64 | aql_store::ScalarKind::I64 => 8,
                aql_store::ScalarKind::Bool => 1,
            };
            out.insert(
                n.clone(),
                aql_analysis::cost::SourceLayout {
                    dims: layout.dims().to_vec(),
                    chunk_dims: layout.chunk_dims().to_vec(),
                    elem_bytes,
                },
            );
        }
        out
    }

    /// Statically analyse a query with the abstract interpreter
    /// without evaluating it, on the term the statement path would
    /// evaluate: resolved, typechecked and — when [`Session::optimize`]
    /// is on — optimized. The report gives the inferred (symbolic)
    /// shape, the per-subscript bounds verdicts (the evaluator's
    /// elision marks), each loop nest with the kernel planner's verdict
    /// on it, and the cost estimate (`\explain`'s `cost_after`). The
    /// REPL's `\analyze` meta-command renders the result.
    pub fn analyze(&self, query: &str) -> Result<AnalyzeReport, LangError> {
        let (resolved, ty) = self.check_query(query, self.optimize)?;
        let term = if self.optimize { self.optimize_gated(resolved, &ty, None)? } else { resolved };
        let globals = aql_analysis::globals_mentioned(&term, &self.vals);
        let analysis = aql_analysis::analyze(&term, &globals);
        let cost = aql_analysis::cost::estimate(&term, &analysis, &self.source_layouts());
        let body = aql_analysis::report::render(&analysis, &term);
        Ok(AnalyzeReport { ty, body, cost })
    }

    /// Statically analyse a query without evaluating it: run the
    /// pipeline through typechecking, then the shape/bounds lints
    /// ([`aql_analysis::lint::lint`]: provable out-of-bounds
    /// subscripts, zero-extent dimensions, dead conditional branches)
    /// over the analysis of the term as written — not optimized, so a
    /// finding points at what the user wrote — with the `val` extents
    /// it mentions. The REPL's `\lint` meta-command renders the
    /// result.
    pub fn lint(&self, query: &str) -> Result<LintReport, LangError> {
        let (resolved, ty) = self.check_query(query, false)?;
        let globals = aql_analysis::globals_mentioned(&resolved, &self.vals);
        let analysis = aql_analysis::analyze(&resolved, &globals);
        let diagnostics = aql_analysis::lint::lint(&resolved, &analysis);
        emit(Event::LintFindings { n: diagnostics.len() as u64 });
        Ok(LintReport { ty, diagnostics })
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

/// The default for [`Session::verify`]: the `AQL_VERIFY` environment
/// variable when set (`0`/`false`/`off`/empty disable), otherwise on
/// exactly in debug builds — tests and development runs gate every
/// rewrite, the release hot path pays nothing.
fn default_verify() -> bool {
    match std::env::var("AQL_VERIFY") {
        Ok(v) => !matches!(v.as_str(), "0" | "false" | "off" | ""),
        Err(_) => cfg!(debug_assertions),
    }
}

/// Map an optimizer failure — a contained rule panic or a rewrite the
/// gate rejected — to the session error space.
fn opt_error(e: OptError) -> LangError {
    match e {
        OptError::Panic(p) => LangError::extension_panic(
            "optimizer rule",
            p.rule,
            format!("{} (phase `{}`)", p.message, p.phase),
        ),
        OptError::Unsound(v) => LangError::Unsound {
            phase: v.phase,
            rule: v.rule.to_string(),
            message: v.message,
        },
        OptError::TooDeep(t) => t.into(),
    }
}

/// Run an untrusted extension call behind a panic guard. Readers and
/// writers are host code plugged into the session at run time; a panic
/// inside one must not take down the REPL. The panic is caught and
/// surfaced as [`LangError::ExtensionPanic`] naming the extension, and
/// the session remains usable.
fn catch_extension<T>(
    kind: &'static str,
    ext_name: &str,
    f: impl FnOnce() -> T,
) -> Result<T, LangError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        LangError::extension_panic(
            kind,
            ext_name,
            aql_core::prim::panic_message(payload.as_ref()),
        )
    })
}

/// Replace any unresolved inference variables in a statement's type
/// with `nat` before storing it in the session. A type variable is
/// only ever left over by genuinely ambiguous literals (`{}`,
/// `[[0;]]`, `⊥`), and a stored variable would collide with fresh
/// variables of later typechecker runs. Defaulting mirrors the numeric
/// defaulting inside the checker.
fn default_type_vars(t: &Type) -> Type {
    use std::rc::Rc as StdRc;
    match t {
        Type::Var(_) => Type::Nat,
        Type::Bool | Type::Nat | Type::Real | Type::Str | Type::Base(_) => t.clone(),
        Type::Tuple(ts) => Type::Tuple(ts.iter().map(default_type_vars).collect::<Vec<_>>().into()),
        Type::Set(e) => Type::Set(StdRc::new(default_type_vars(e))),
        Type::Bag(e) => Type::Bag(StdRc::new(default_type_vars(e))),
        Type::Array(e, k) => Type::Array(StdRc::new(default_type_vars(e)), *k),
        Type::Fun(a, b) => Type::Fun(
            StdRc::new(default_type_vars(a)),
            StdRc::new(default_type_vars(b)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nats(ns: &[u64]) -> Value {
        Value::set(ns.iter().map(|&n| Value::Nat(n)).collect())
    }

    #[test]
    fn val_and_query() {
        let mut s = Session::new();
        let out = s
            .run("val \\months = [[0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30]];")
            .unwrap();
        assert_eq!(out[0].ty, Some(Type::array1(Type::Nat)));
        assert!(out[0].text.contains("typ months : [[nat]]_1"));
        assert!(out[0].text.contains("val months = [[(0):0, (1):31, (2):28,"));

        let (ty, v) = s.eval_query("months[1]").unwrap();
        assert_eq!(ty, Type::Nat);
        assert_eq!(v, Value::Nat(31));
    }

    #[test]
    fn string_literals_round_trip_as_utf8() {
        let mut s = Session::new();
        let (ty, v) = s.eval_query("\"é\"").unwrap();
        assert_eq!(ty, Type::Str);
        let Value::Str(text) = &v else { panic!("expected a string, got {v:?}") };
        assert_eq!((text.chars().count(), &**text), (1, "é"));
        assert_eq!(s.eval_query("\"é\" = \"é\"").unwrap().1, Value::Bool(true));
    }

    #[test]
    fn it_binds_last_result() {
        let mut s = Session::new();
        s.eval_query("1 + 1").unwrap();
        let (_, v) = s.eval_query("it * 10").unwrap();
        assert_eq!(v, Value::Nat(20));
    }

    #[test]
    fn macro_definition_and_use() {
        let mut s = Session::new();
        let out = s
            .run("macro \\double = fn \\x => x * 2;")
            .unwrap();
        assert!(out[0].text.contains("typ double : nat -> nat"));
        assert!(out[0].text.contains("registered as macro"));
        let (_, v) = s.eval_query("double!21").unwrap();
        assert_eq!(v, Value::Nat(42));
    }

    #[test]
    fn macros_can_use_macros() {
        let mut s = Session::new();
        s.run("macro \\inc = fn \\x => x + 1; macro \\inc2 = fn \\x => inc!(inc!x);")
            .unwrap();
        let (_, v) = s.eval_query("inc2!40").unwrap();
        assert_eq!(v, Value::Nat(42));
    }

    #[test]
    fn sessions_of_a_thread_share_the_prelude_and_nothing_else() {
        // The thread's first `Session::new` runs the prelude through a
        // bare session; every session starts from that macro table and
        // that sequence number, with the entries shared.
        let mut a = Session::new();
        let b = Session::new();
        assert_eq!(a.macro_names(), b.macro_names());
        assert!(a.macro_names().iter().any(|m| m == "zip_3"));
        assert_eq!(a.stmt_seq, b.stmt_seq);
        assert_eq!(a.stmt_seq, parse_program(PRELUDE).unwrap().len() as u64);
        assert!(Rc::ptr_eq(&a.macros[&name("zip")], &b.macros[&name("zip")]));
        // Redefining a prelude name is one session's business.
        a.run("macro \\evenpos = fn \\a => a;").unwrap();
        let evens = |s: &mut Session| s.eval_query("len!(evenpos![[0, 1, 2, 3]])").unwrap().1;
        assert_eq!(evens(&mut a), Value::Nat(4));
        assert_eq!(evens(&mut Session::new()), Value::Nat(2));
        assert_eq!(a.explain("reverse!([[1, 2]])").unwrap().ty, Type::array1(Type::Nat));
    }

    #[test]
    fn explain_shows_the_optimizer_run_its_statement_makes() {
        use aql_core::expr::free::alpha_eq;
        let mut s = Session::new();
        s.run("val \\A = [[3, 1, 4, 1, 5]];").unwrap();
        let query = "subseq!(zip!(A, reverse!A), 1, 3)";
        let explain = s.explain(query).unwrap();
        s.run(&format!("{query};")).unwrap();
        assert_eq!(explain.counts, s.last_report().optimizer[0], "the statement's own record");
        assert_eq!(explain.counts.fires(), explain.trace.len() as u64);
        // Its core term is the statement's: the macros in their stored
        // normal forms; and so is what the run made of it.
        let core = desugar(&crate::parser::parse_expr(query).unwrap()).unwrap();
        assert_eq!(explain.core, s.resolve(&core));
        assert!(alpha_eq(&explain.optimized, &s.optimizer.optimize(&explain.core)));
    }

    #[test]
    fn a_stored_normal_form_types_as_its_body_or_is_not_kept() {
        // Each body's normal form drops a constraint: dead code (`u`),
        // a monomorphic `let` used at two types, a comparison that pins
        // a numeric argument to `nat`.
        let macros = [
            ("macro \\m = fn \\x => let val \\u = x + 1 in 5 end;", "m!true"),
            ("macro \\m = fn \\x => let val \\f = fn \\y => y in (f!x, f!true) end;", "m!3"),
            ("macro \\m = fn \\x => let val \\u = (x = 1) in x + x end;", "m!1.5"),
        ];
        for (def, use_) in macros {
            let verdicts = [true, false].map(|optimize| {
                let mut s = Session::new();
                s.optimize = optimize;
                s.run(def).unwrap();
                assert!(s.macros["m"].1.is_none(), "{def}: its normal form types more terms");
                s.eval_query(use_).map(|(ty, _)| ty).map_err(|e| e.to_string())
            });
            assert!(verdicts[0].is_err(), "{use_}: {:?}", verdicts[0]);
            assert_eq!(verdicts[0], verdicts[1], "{use_}: the optimizer does not decide typing");
        }
        // One that loses nothing is kept; one over a `val` is not.
        let mut s = Session::new();
        s.run("val \\V = 2; macro \\k = fn \\x => let val \\u = x + 1 in x * 2 end; macro \\g = fn \\x => x + V;").unwrap();
        assert_eq!(s.macros["k"].1.as_ref().map(ToString::to_string), Some("fn \\x => x * 2".into()));
        assert!(s.macros["g"].1.is_none(), "`V` can be rebound at another type");
    }

    #[test]
    fn prelude_macros_work() {
        let mut s = Session::new();
        let (_, v) = s.eval_query("evenpos![[0, 1, 2, 3, 4, 5]]").unwrap();
        let a = v.as_array().unwrap();
        let got: Vec<u64> = a.data().iter().map(|x| x.as_nat().unwrap()).collect();
        assert_eq!(got, vec![0, 2, 4]);

        let (_, v) = s.eval_query("zip!([[1, 2]], [[5, 6, 7]])").unwrap();
        assert_eq!(v.as_array().unwrap().dims(), &[2]);

        let (_, v) = s.eval_query("subseq!([[0, 10, 20, 30]], 1, 2)").unwrap();
        let got: Vec<u64> = v
            .as_array()
            .unwrap()
            .data()
            .iter()
            .map(|x| x.as_nat().unwrap())
            .collect();
        assert_eq!(got, vec![10, 20]);

        let (_, v) = s
            .eval_query("matmul!([[2, 2; 1, 2, 3, 4]], [[2, 2; 5, 6, 7, 8]])")
            .unwrap();
        let got: Vec<u64> = v
            .as_array()
            .unwrap()
            .data()
            .iter()
            .map(|x| x.as_nat().unwrap())
            .collect();
        assert_eq!(got, vec![19, 22, 43, 50]);
    }

    #[test]
    fn externals_register_and_shadow() {
        let mut s = Session::new();
        s.register_external(NativeFn::new(
            "heatindex",
            Type::fun(Type::array1(Type::Real), Type::Real),
            |v| {
                let a = v.as_array()?;
                let mut sum = 0.0;
                for x in a.data().iter() {
                    sum += x.as_real()?;
                }
                Ok(Value::Real(sum / a.len().max(1) as f64))
            },
        ));
        let (ty, v) = s.eval_query("heatindex![[90.0, 100.0]]").unwrap();
        assert_eq!(ty, Type::Real);
        assert_eq!(v, Value::Real(95.0));
        // Lexically bound names shadow externals.
        let (_, v) = s.eval_query("(fn \\heatindex => heatindex + 1)!1").unwrap();
        assert_eq!(v, Value::Nat(2));
    }

    #[test]
    fn type_errors_are_reported() {
        let mut s = Session::new();
        assert!(matches!(
            s.eval_query("1 + true"),
            Err(LangError::Type(_))
        ));
        assert!(matches!(
            s.eval_query("nosuchname!1"),
            Err(LangError::Type(_))
        ));
    }

    #[test]
    fn optimizer_toggle_preserves_results() {
        let mut s = Session::new();
        let q = "{d | \\d <- gen!10, \\A == subseq!([[ i * i | \\i < 100 ]], d, d + 3), A[0] % 2 = 0}";
        let (_, v1) = s.eval_query(q).unwrap();
        s.optimize = false;
        let (_, v2) = s.eval_query(q).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(v1, nats(&[0, 2, 4, 6, 8]));
    }

    #[test]
    fn readval_writeval_roundtrip() {
        let dir = std::env::temp_dir().join(format!("aql-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.co");
        let p = path.to_str().unwrap();

        let mut s = Session::new();
        s.run(&format!(
            "val \\x = {{(1, 2.5), (2, 3.5)}}; writeval x using COFILE at \"{p}\";"
        ))
        .unwrap();
        let out = s
            .run(&format!("readval \\y using COFILE at \"{p}\";"))
            .unwrap();
        assert_eq!(
            out[0].ty,
            Some(Type::set(Type::tuple(vec![Type::Nat, Type::Real])))
        );
        let (_, v) = s.eval_query("{a | (\\a, _) <- y}").unwrap();
        assert_eq!(v, nats(&[1, 2]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_reader_reported() {
        let mut s = Session::new();
        let err = s.run("readval \\x using NOPE at \"f\";").unwrap_err();
        assert!(err.to_string().contains("NOPE"));
    }

    #[test]
    fn session_echo_matches_paper_shape() {
        let mut s = Session::new();
        let out = s.run("{25, 27, 28};").unwrap();
        assert!(out[0].text.contains("typ it : {nat}"));
        assert!(out[0].text.contains("val it = {25, 27, 28}"));
    }

    #[test]
    fn resource_limits_apply() {
        let mut s = Session::new();
        s.limits = Limits { max_elems: 100, ..Limits::default() };
        assert!(matches!(
            s.eval_query("gen!1000"),
            Err(LangError::Eval(EvalError::ResourceLimit { .. }))
        ));
    }

    #[test]
    fn bind_val_from_rust() {
        let mut s = Session::new();
        s.bind_val("T", Value::array1(vec![Value::Real(1.0), Value::Real(2.0)]))
            .unwrap();
        let (_, v) = s.eval_query("T[1]").unwrap();
        assert_eq!(v, Value::Real(2.0));
        // Ambiguous values are rejected.
        assert!(s.bind_val("bad", Value::set(vec![])).is_err());
    }

    #[test]
    fn odmg_primitives() {
        let mut s = Session::new();
        let as_nats = |v: &Value| -> Vec<u64> {
            v.as_array()
                .unwrap()
                .data()
                .iter()
                .map(|x| x.as_nat().unwrap())
                .collect()
        };
        let (_, v) = s.eval_query("upd!([[1, 2, 3]], 1, 9)").unwrap();
        assert_eq!(as_nats(&v), vec![1, 9, 3]);
        let (_, v) = s.eval_query("resize!([[1, 2]], 4, 0)").unwrap();
        assert_eq!(as_nats(&v), vec![1, 2, 0, 0]);
        let (_, v) = s.eval_query("resize!([[1, 2, 3]], 2, 0)").unwrap();
        assert_eq!(as_nats(&v), vec![1, 2], "resize can shrink");
        let (_, v) = s.eval_query("insert_at!([[1, 3]], 1, 2)").unwrap();
        assert_eq!(as_nats(&v), vec![1, 2, 3]);
        let (_, v) = s.eval_query("insert_at!([[1]], 1, 2)").unwrap();
        assert_eq!(as_nats(&v), vec![1, 2], "insert at the end");
        let (_, v) = s.eval_query("remove_at!([[1, 2, 3]], 1)").unwrap();
        assert_eq!(as_nats(&v), vec![1, 3]);
        let (_, v) = s.eval_query("remove_at!([[7]], 0)").unwrap();
        assert_eq!(as_nats(&v), Vec::<u64>::new());
        // Out-of-bounds update is the identity on shape but hits ⊥ on
        // no element — i.e. it leaves the array unchanged.
        let (_, v) = s.eval_query("upd!([[1, 2]], 9, 0)").unwrap();
        assert_eq!(as_nats(&v), vec![1, 2]);
    }

    #[test]
    fn nearest_coordinate_lookup() {
        let mut s = Session::new();
        s.run("val \\lats = [[40.20, 40.45, 40.70, 40.95, 41.20]];")
            .unwrap();
        let (_, v) = s.eval_query("nearest!(lats, 40.7)").unwrap();
        assert_eq!(v, Value::Nat(2));
        let (_, v) = s.eval_query("nearest!(lats, 39.0)").unwrap();
        assert_eq!(v, Value::Nat(0));
        let (_, v) = s.eval_query("nearest!(lats, 99.0)").unwrap();
        assert_eq!(v, Value::Nat(4));
        // Ties resolve to the smaller index via the lexicographic
        // (distance, index) minimum.
        s.run("val \\grid = [[0.0, 1.0]];").unwrap();
        let (_, v) = s.eval_query("nearest!(grid, 0.5)").unwrap();
        assert_eq!(v, Value::Nat(0));
        // Empty coordinate array → ⊥ (min of {} then projection). The
        // empty literal's element type defaults to nat, so look up a nat.
        s.run("val \\none = [[0; ]];").unwrap();
        let (_, v) = s.eval_query("nearest!(none, 1)").unwrap();
        assert!(v.is_bottom());
    }

    #[test]
    fn stats_accumulate_across_statements() {
        // Regression: `last_stats` used to be overwritten per
        // evaluation, so a multi-statement run reported only the final
        // statement's counters.
        let mut s = Session::new();
        s.run("val \\a = [[ i | \\i < 50 ]]; val \\b = [[ i | \\i < 50 ]];")
            .unwrap();
        let per_stmt = s.last_report().statements;
        assert_eq!(per_stmt.len(), 2);
        assert!(per_stmt[0].steps > 0 && per_stmt[1].steps > 0);
        let total = s.last_stats();
        assert_eq!(total.steps, per_stmt[0].steps + per_stmt[1].steps);
        assert!(
            total.steps > per_stmt[1].steps,
            "the total must include more than the final statement"
        );
        // A new run resets the per-statement vector.
        s.run("1 + 1;").unwrap();
        assert_eq!(s.last_report().statements.len(), 1);
    }

    #[test]
    fn profile_traces_the_pipeline() {
        let mut s = Session::new();
        let (outcomes, report) = s.profile("val \\a = gen!20; summap(fn \\x => x)!a;").unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(report.statements.len(), 2);
        // Two statement roots, each with the pipeline phases below.
        let roots = |t: &aql_trace::Trace| t.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.name).collect::<Vec<_>>();
        let root_names: Vec<&str> = roots(&report.trace).into_iter().filter(|n| *n == "statement").collect();
        assert_eq!(root_names.len(), 2, "{:?}", report.trace);
        for name in ["parse", "desugar", "resolve", "typecheck", "optimize", "eval"] {
            assert!(report.trace.find(name).is_some(), "span `{name}` missing");
        }
        // The counts are the record's, not the tree's; and the profile
        // is the run's own report.
        let traced: u64 = report.statements.iter().map(|s| s.steps).sum();
        assert_eq!(traced, s.last_stats().steps);
        assert!(traced > 0);
        assert_eq!(report, s.last_report());
        // A statement run alone records its own tree; outside a run a
        // span records nothing.
        s.exec(&crate::parser::parse_program("1 + 1;").unwrap()[0]).unwrap();
        assert_eq!(roots(&s.last_report().trace), ["statement"]);
        crate::parser::parse_program("2;").unwrap();
        assert_eq!(roots(&s.last_report().trace), ["statement"]);
    }

    /// A shared in-memory slow-log sink (the session owns a boxed
    /// writer, the test keeps the other handle).
    #[derive(Clone, Default)]
    struct SharedSink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap_or_else(|p| p.into_inner()).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedSink {
        fn lines(&self) -> Vec<String> {
            let bytes = self.0.lock().unwrap_or_else(|p| p.into_inner()).clone();
            String::from_utf8(bytes)
                .expect("slow log must be UTF-8")
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    #[test]
    fn slow_log_records_every_statement_at_threshold_zero() {
        use aql_trace::json::Json;
        let sink = SharedSink::default();
        let mut s = Session::new();
        s.enable_slow_log(Box::new(sink.clone()), Duration::ZERO);
        s.run("val \\a = gen!40; summap(fn \\x => x)!a;").unwrap();
        let lines = sink.lines();
        assert_eq!(lines.len(), 2, "threshold 0 logs every statement");
        let rec = Json::parse(&lines[0]).expect("each line must be valid JSON");
        assert_eq!(rec.get("schema_version").and_then(Json::as_u64), Some(3));
        assert_eq!(rec.get("kind").and_then(Json::as_str), Some("val"));
        // v2: no incident pipeline configured ⇒ explicit null.
        assert_eq!(rec.get("incident"), Some(&Json::Null));
        assert!(
            rec.get("cache").and_then(|c| c.get("prefetched_bytes")).is_some(),
            "v2 carries cache.prefetched_bytes"
        );
        // v3: every record is a slow statement, so no `slow`/`sampled`.
        assert_eq!((rec.get("slow"), rec.get("sampled")), (None, None));
        assert_eq!(rec.get("error"), Some(&Json::Bool(false)));
        assert!(rec.get("dur_ns").and_then(Json::as_u64).is_some_and(|ns| ns > 0));
        let hash = rec.get("stmt_hash").and_then(Json::as_str).expect("hash");
        assert_eq!(hash.len(), 16, "FNV-1a 64 rendered as hex");
        // Phase timings carry the pipeline's closed phase set.
        let phases = rec.get("phases").expect("phases");
        for p in ["desugar", "resolve", "typecheck", "eval"] {
            assert!(
                phases.get(p).and_then(Json::as_u64).is_some(),
                "phase `{p}` missing from {phases:?}"
            );
        }
        // The second statement is the query; eval counters are present.
        let rec2 = Json::parse(&lines[1]).expect("line 2");
        assert_eq!(rec2.get("kind").and_then(Json::as_str), Some("query"));
        assert!(
            rec2.get("eval")
                .and_then(|e| e.get("steps"))
                .and_then(Json::as_u64)
                .is_some_and(|n| n > 0),
            "eval stats must be attached"
        );
        // Disabling stops the stream.
        s.disable_slow_log();
        s.run("1 + 1;").unwrap();
        assert_eq!(sink.lines().len(), 2);
    }

    #[test]
    fn session_metrics_reach_the_registry() {
        let errors = aql_journal::metrics::counter("aql_session_errors_total", "");
        let errors_before = errors.get();
        let mut s = Session::new();
        // A typecheck failure (unbound name) — unlike a parse error,
        // it reaches `exec` and must bump the error counter.
        assert!(s.run("no_such_name + 1;").is_err());
        assert!(errors.get() > errors_before, "a failed statement bumps errors");
        let metrics = aql_journal::metrics::snapshot();
        assert!(
            metrics.iter().any(|(k, _)| k.starts_with("aql_session_statements_total")),
            "statement counters must appear in the registry: {:?}",
            metrics.iter().take(5).collect::<Vec<_>>()
        );
        assert!(
            metrics.iter().any(|(k, _)| k.contains("aql_session_statement_ns")),
            "statement latency histogram must appear in the registry"
        );
    }

    /// Bind a labeled lazy array so a statement has a source to charge.
    fn bind_lazy(s: &mut Session, vname: &str, label: &str, n: u64) {
        use aql_store::{ChunkLayout, LazyArray, MemChunkSource, ScalarBuf, ScalarKind};
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mem = MemChunkSource::new(vec![n], ScalarBuf::F64(data)).unwrap();
        let layout = ChunkLayout::new(vec![n], vec![4]).unwrap();
        let la = LazyArray::labeled(layout, ScalarKind::F64, Box::new(mem), 1 << 20, label);
        let av = aql_core::value::array::ArrayVal::lazy(la).unwrap();
        s.bind_val_typed(vname, Value::Array(std::rc::Rc::new(av)), Type::array1(Type::Real));
    }

    #[test]
    fn attribution_ledger_charges_the_touched_source() {
        let mut s = Session::new();
        bind_lazy(&mut s, "sst", "mem:attr-test", 32);
        s.run("reverse!sst;").unwrap();
        let attr = s.last_report().attribution;
        assert_eq!(attr.len(), 1, "one ledger per statement");
        let ledger = &attr[0];
        let row = ledger
            .sources
            .iter()
            .find(|(l, _)| l == "mem:attr-test")
            .expect("the scanned source must appear in the ledger");
        assert!(row.1.chunks_loaded > 0, "the scan loads chunks: {ledger:?}");
        assert!(row.1.bytes_read > 0, "the scan reads bytes: {ledger:?}");
        assert!(
            !ledger.phases.is_empty(),
            "per-phase wall time must be recorded: {ledger:?}"
        );
        // The ledger also reaches the report.
        assert_eq!(s.last_report().attribution, attr);
    }

    #[test]
    fn flight_recorder_sees_statement_lifecycle() {
        use aql_journal::Tag;
        let mut s = Session::new();
        bind_lazy(&mut s, "t", "mem:journal-test", 16);
        s.run("reverse!t;").unwrap();
        let j = aql_journal::snapshot();
        let begin = j
            .events
            .iter()
            .rev()
            .find(|e| e.tag == Tag::StmtBegin && aql_journal::label_name(e.label) == "query")
            .expect("a StmtBegin for the query");
        assert!(begin.b != 0, "StmtBegin carries the statement hash");
        assert!(
            j.events.iter().any(|e| e.tag == Tag::StmtEnd
                && aql_journal::label_name(e.label) == "ok"
                && e.a == begin.a),
            "a matching ok StmtEnd"
        );
        assert!(
            j.events.iter().any(|e| e.tag == Tag::CacheMiss
                && aql_journal::label_name(e.label) == "mem:journal-test"),
            "cache misses carry the source label"
        );
        assert!(
            j.events.iter().any(|e| e.tag == Tag::Phase),
            "phase timings are journaled"
        );
    }

    #[test]
    fn incidents_dump_on_error_and_doctor_reads_them() {
        let dir = std::env::temp_dir()
            .join(format!("aql-incidents-{}-err", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = Session::new();
        s.enable_incidents(&dir);
        assert!(s.run("no_such_name + 1;").is_err());
        let path = s.last_incident_path().expect("an incident file was written");
        let inc = aql_journal::incident::Incident::load(&path).unwrap();
        assert_eq!(inc.kind, aql_journal::incident::IncidentKind::Error);
        assert_eq!(inc.stmt_kind, "query");
        assert!(inc.error.as_deref().is_some_and(|e| e.contains("no_such_name")));
        assert!(inc.attribution.is_some(), "the ledger rides along");
        let diagnosis = s.doctor();
        assert!(diagnosis.contains("fault class"), "doctor output: {diagnosis}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incidents_dump_on_resource_exhaustion_and_slow_threshold() {
        let dir = std::env::temp_dir()
            .join(format!("aql-incidents-{}-rx", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = Session::new();
        s.limits = Limits { max_elems: 100, ..Limits::default() };
        s.enable_incidents(&dir);
        assert!(s.eval_query("gen!1000").is_err());
        let inc = aql_journal::incident::Incident::load(
            &s.last_incident_path().expect("resource incident"),
        )
        .unwrap();
        assert_eq!(inc.kind, aql_journal::incident::IncidentKind::ResourceExhausted);

        // A zero slow-log threshold dumps a slow incident even on
        // success, and the slow log's record links to it.
        let sink = SharedSink::default();
        s.limits = Limits::default();
        s.enable_slow_log(Box::new(sink.clone()), Duration::ZERO);
        s.run("1 + 1;").unwrap();
        let inc = aql_journal::incident::Incident::load(
            &s.last_incident_path().expect("slow incident"),
        )
        .unwrap();
        assert_eq!(inc.kind, aql_journal::incident::IncidentKind::Slow);
        use aql_trace::json::Json;
        let lines = sink.lines();
        let rec = Json::parse(lines.last().unwrap()).unwrap();
        let linked = rec.get("incident").and_then(Json::as_str).expect("v2 links the dump");
        assert!(
            std::path::Path::new(linked).file_name()
                == s.last_incident_path().unwrap().file_name(),
            "slow log links its own incident: {linked}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graph_prelude_macro() {
        let mut s = Session::new();
        let (_, v) = s.eval_query("graph![[7, 9]]").unwrap();
        assert_eq!(
            v,
            Value::set(vec![
                Value::tuple(vec![Value::Nat(0), Value::Nat(7)]),
                Value::tuple(vec![Value::Nat(1), Value::Nat(9)]),
            ])
        );
    }

    #[test]
    fn marked_subscripts_keep_the_arity_error() {
        // `P[i]` with `i` below P's first extent is proven in bounds
        // and marked — for a rank-1 P. Handed a rank-2 array (only
        // `eval_expr_raw` gets a term past the typechecker), it must
        // still be the ill-typed subscript of the checked path.
        use aql_core::expr::builder::*;
        let mut s = Session::new();
        s.run("val \\M = [[ i * 2 + j | \\i < 2, \\j < 2 ]];").unwrap();
        let f = lam("P", tab1("i", dim_ik(1, 2, var("P")), sub(var("P"), vec![var("i")])));
        let e = let_("f", f, app(var("f"), global("M")));
        let got = s.eval_expr_raw(&e);
        assert!(
            matches!(&got, Err(EvalError::IllTyped(m)) if m.contains("arity 1 into rank-2")),
            "{got:?}"
        );
    }
}
