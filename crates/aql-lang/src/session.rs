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
//! routines.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::{Duration, Instant};

use aql_journal::{emit, ErrorClass, Event};

use aql_core::check::{type_compatible, typecheck};
use aql_core::error::EvalError;
use aql_core::eval::{EvalCtx, EvalStats, Limits};
use aql_core::expr::children::map_children;
use aql_core::expr::{name, Expr, Name};
use aql_core::prim::{Extensions, NativeFn};
use aql_core::types::Type;
use aql_core::value::print::session_string;
use aql_core::value::tyof::type_of_value;
use aql_core::value::Value;
use aql_opt::{Gate, OptError, Optimizer, Trace};

use crate::ast::Stmt;
use crate::desugar::desugar;
use crate::errors::LangError;
use crate::parser::parse_program;
use crate::reader::{CoFileReader, CoFileWriter, Reader, Writer};

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
(* remove the element at position i *)
macro \remove_at = fn (\a, \i) =>
  [[ if j < i then a[j] else a[j + 1] | \j < len!a - 1 ]];

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

/// A macro's resolved body and its type, shared between the sessions
/// that hold it.
type Macro = Rc<(Expr, Type)>;

thread_local! {
    /// What running [`PRELUDE`] through a bare session leaves behind —
    /// its macro table and the statement sequence number it reached —
    /// computed once per thread (a [`Session`] holds `Rc`s) and handed
    /// to every [`Session::new`] on it. The prelude's statements are
    /// therefore journalled once per thread, not once per session.
    static PRELUDE_LOADED: (HashMap<Name, Macro>, u64) = {
        let mut s = Session::bare();
        s.run(PRELUDE).expect("prelude must load");
        (s.macros, s.stmt_seq.get())
    };
}

/// Configuration of the structured slow-query log.
#[derive(Debug, Clone)]
pub struct SlowLogConfig {
    /// Statements at or above this wall time are always logged.
    pub threshold: Duration,
    /// Additionally log every `N`-th statement below the threshold
    /// (`0` disables sampling). Sampled records carry
    /// `"sampled": true`, so latency baselines can be reconstructed
    /// without logging everything.
    pub sample_every: u64,
}

impl Default for SlowLogConfig {
    fn default() -> Self {
        SlowLogConfig { threshold: Duration::from_millis(100), sample_every: 0 }
    }
}

/// The slow-query log: a JSON-lines sink plus its policy.
struct SlowLog {
    sink: RefCell<Box<dyn std::io::Write>>,
    config: SlowLogConfig,
}

/// One run of a pipeline phase: opens the phase's trace span and, on
/// drop, emits [`Event::Phase`] — the one number the span tree, the
/// `aql_session_phase_ns{phase=…}` histogram, the journal and the
/// statement's attribution ledger (and from it the slow-query log) all
/// carry. When a subscriber records the span the duration is the one
/// its close computed; otherwise it is this guard's own clock pair.
/// Phase names are the fixed pipeline set (`lex`, `parse`, `desugar`,
/// `resolve`, `typecheck`, `optimize`, `eval`, `readval`, `writeval`).
pub(crate) struct PhaseGuard {
    phase: &'static str,
    span: aql_trace::SpanGuard,
    t0: Option<Instant>,
}

pub(crate) fn phase(phase: &'static str) -> PhaseGuard {
    let span = aql_trace::span(phase);
    PhaseGuard { phase, span, t0: (!aql_trace::enabled()).then(aql_trace::now) }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let timed = || self.t0.map(|t0| (aql_trace::now() - t0).as_nanos() as u64);
        let ns = self.span.finish().or_else(timed).unwrap_or(0);
        emit(Event::Phase { phase: self.phase, ns });
    }
}

/// FNV-1a 64 over the statement's debug form: a stable fingerprint
/// for grouping slow-log records of the same statement shape without
/// logging query text verbatim. The rendering is hashed as it is
/// produced, never built; reports print it `{:016x}`.
fn stmt_hash(stmt: &Stmt) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // The sink never fails, and `Debug` for the AST has no other error.
    let _ = std::fmt::Write::write_fmt(&mut h, format_args!("{stmt:?}"));
    h.0
}

/// Configuration of the incident dump pipeline: when a statement ends
/// badly (error, resource exhaustion, a breaker trip during it, or a
/// slow-query threshold crossing), the session snapshots the flight
/// recorder's last events, the statement's attribution ledger, and the
/// metrics that moved, into one self-contained JSON file under `dir`
/// (see `aql_journal::incident` and DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct IncidentConfig {
    /// Directory incident files are written to (created on demand).
    pub dir: std::path::PathBuf,
    /// How many flight-recorder events to keep in the dump.
    pub last_events: usize,
    /// Statements at or above this wall time dump a `slow` incident.
    /// `None` falls back to the slow-query log's threshold when that
    /// log is enabled, otherwise slow statements never dump.
    pub slow_threshold: Option<Duration>,
}

impl IncidentConfig {
    /// A config with the default window (256 events) and no standalone
    /// slow threshold.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> IncidentConfig {
        IncidentConfig { dir: dir.into(), last_events: 256, slow_threshold: None }
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

/// The result of [`Session::explain`]: the compiled and optimized
/// forms of a query with the rewrite trace.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The query's type.
    pub ty: Type,
    /// The resolved core-calculus term (after desugaring and macro
    /// substitution).
    pub core: Expr,
    /// The term after the §5 optimizer.
    pub optimized: Expr,
    /// Every rule firing, in order.
    pub trace: Trace,
    /// Analysis-backed cost estimates for the core and optimized
    /// terms: the `aql-analysis` abstract interpreter supplies
    /// cardinality and iteration counts, and the session's chunked
    /// sources supply the layouts behind `bytes_moved`.
    pub cost_before: aql_analysis::cost::CostEstimate,
    /// The optimized term's estimate (same model as `cost_before`).
    pub cost_after: aql_analysis::cost::CostEstimate,
}

impl Explain {
    /// A human-readable rendering (used by the REPL's `explain` and
    /// `\explain`): the pre/post-optimization terms, the analysis-backed
    /// cost estimates, the full rewrite trace, and the `(phase, rule)`
    /// fire table.
    pub fn render(&self) -> String {
        format!(
            "typ  : {}\ncore : {}\nopt  : {}\ncost : {} -> {}\n{} rewrite step(s):\n{}rule fires:\n{}",
            self.ty,
            self.core,
            self.optimized,
            render_cost(&self.cost_before),
            render_cost(&self.cost_after),
            self.trace.len(),
            self.trace.render(),
            self.trace.render_fire_table()
        )
    }
}

/// One cost estimate as a compact `cells≈… steps≈… bytes≈…` cell of
/// the `\explain` cost line.
fn render_cost(c: &aql_analysis::cost::CostEstimate) -> String {
    format!("cells~{} steps~{} bytes~{}", c.cardinality, c.steps, c.bytes_moved)
}

/// A machine-readable account of the most recent [`Session::run`]:
/// per-statement evaluation statistics plus (when collected through
/// [`Session::profile`]) the full span/counter trace. Supersedes the
/// old single-`EvalStats` `last_stats`, which silently dropped every
/// statement but the final one in multi-statement input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryReport {
    /// One entry per executed statement, in program order. Cache
    /// counters are the statement-level delta of the store's global
    /// counters, so reader I/O and echo-forced loads are attributed
    /// to the statement that caused them.
    pub statements: Vec<EvalStats>,
    /// Per-statement resource attribution ledgers, parallel to
    /// `statements`: bytes and chunks by labeled source, per-phase wall
    /// time, and governor pressure (see `aql_journal::attr`). Rendered
    /// by the REPL's `\attr;`.
    pub attribution: Vec<aql_journal::attr::Ledger>,
    /// The span tree and counters collected while tracing was on
    /// (empty for an untraced run).
    pub trace: aql_trace::Trace,
    /// A flat snapshot of the **process-lifetime** metrics registry at
    /// report time ([`aql_metrics::snapshot`]): counters and gauges by
    /// series key, histograms as `_count`/`_sum`/`_p50`/`_p95`/`_p99`.
    /// Unlike `statements`, these are cumulative since process start —
    /// the report carries both the per-query and the fleet view.
    pub metrics: Vec<(String, u64)>,
}

impl QueryReport {
    /// Component-wise sum over all statements.
    pub fn total(&self) -> EvalStats {
        self.statements.iter().fold(EvalStats::default(), |a, s| a.merged(s))
    }

    /// The report as a JSON value.
    pub fn to_json_value(&self) -> aql_trace::json::Json {
        use aql_trace::json::Json;
        Json::Obj(vec![
            (
                "statements".to_string(),
                Json::Arr(self.statements.iter().map(stats_to_json).collect()),
            ),
            (
                "attribution".to_string(),
                Json::Arr(
                    self.attribution
                        .iter()
                        .map(aql_journal::attr::Ledger::to_json_value)
                        .collect(),
                ),
            ),
            ("trace".to_string(), self.trace.to_json_value()),
            (
                "metrics".to_string(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Serialize to compact JSON (embedded in `BENCH_*.json`).
    pub fn to_json(&self) -> String {
        self.to_json_value().write()
    }

    /// The report's span tree as Chrome trace-event JSON
    /// ([`aql_trace::Trace::to_chrome_json`]): loadable directly in
    /// Perfetto or `chrome://tracing`. The REPL's
    /// `\profile … > "file.json";` writes exactly this.
    pub fn to_chrome_json(&self) -> String {
        self.trace.to_chrome_json()
    }

    /// Rebuild a report serialized by [`QueryReport::to_json`].
    pub fn from_json(src: &str) -> Result<QueryReport, String> {
        let j = aql_trace::json::Json::parse(src)?;
        let statements = j
            .get("statements")
            .and_then(aql_trace::json::Json::as_arr)
            .ok_or("report: missing `statements` array")?
            .iter()
            .map(stats_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let trace = aql_trace::Trace::from_json_value(
            j.get("trace").ok_or("report: missing `trace`")?,
        )?;
        // `attribution` is optional: reports serialized before the
        // flight recorder existed stay parseable.
        let attribution = match j.get("attribution") {
            None => Vec::new(),
            Some(aql_trace::json::Json::Arr(ls)) => ls
                .iter()
                .map(aql_journal::attr::Ledger::from_json_value)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("report: `attribution` must be an array".to_string()),
        };
        // `metrics` is optional: reports serialized before the metrics
        // registry existed stay parseable.
        let metrics = match j.get("metrics") {
            None => Vec::new(),
            Some(aql_trace::json::Json::Obj(ms)) => ms
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("report: bad metric `{k}`"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("report: `metrics` must be an object".to_string()),
        };
        Ok(QueryReport { statements, attribution, trace, metrics })
    }

    /// The `\profile` rendering: the phase-timing tree followed by the
    /// evaluation and I/O totals. With `redact_timings` every duration
    /// renders as `_` (deterministic; used by golden tests).
    pub fn render_profile(&self, redact_timings: bool) -> String {
        let mut out = String::new();
        if !self.trace.is_empty() {
            out.push_str(&self.trace.render(redact_timings));
        }
        let t = self.total();
        out.push_str(&format!(
            "totals: steps={} subscripts={} elided={} materialized={} | cache: hits={} \
             misses={} evictions={} bytes_read={} prefetched={} load_errors={}\n",
            t.steps,
            t.subscripts,
            t.elided,
            t.materialized,
            t.cache.hits,
            t.cache.misses,
            t.cache.evictions,
            t.cache.bytes_read,
            t.cache.prefetched_bytes,
            t.cache.load_errors,
        ));
        if self.statements.len() > 1 {
            for (i, s) in self.statements.iter().enumerate() {
                out.push_str(&format!(
                    "  stmt {i}: steps={} subscripts={} materialized={} \
                     cache.bytes_read={}\n",
                    s.steps, s.subscripts, s.materialized, s.cache.bytes_read,
                ));
            }
        }
        out
    }
}

fn stats_to_json(s: &EvalStats) -> aql_trace::json::Json {
    use aql_trace::json::Json;
    let n = |v: u64| Json::Num(v as f64);
    Json::Obj(vec![
        ("steps".to_string(), n(s.steps)),
        ("subscripts".to_string(), n(s.subscripts)),
        ("elided".to_string(), n(s.elided)),
        ("materialized".to_string(), n(s.materialized)),
        ("cache".to_string(), cache_to_json(&s.cache)),
    ])
}

/// The `cache` member of a statement's stats, in reports and in the
/// slow-query log alike.
fn cache_to_json(c: &aql_store::CacheStats) -> aql_trace::json::Json {
    use aql_trace::json::Json;
    let n = |v: u64| Json::Num(v as f64);
    Json::Obj(vec![
        ("hits".to_string(), n(c.hits)),
        ("misses".to_string(), n(c.misses)),
        ("evictions".to_string(), n(c.evictions)),
        ("bytes_read".to_string(), n(c.bytes_read)),
        ("prefetched_bytes".to_string(), n(c.prefetched_bytes)),
        ("load_errors".to_string(), n(c.load_errors)),
    ])
}

fn stats_from_json(j: &aql_trace::json::Json) -> Result<EvalStats, String> {
    let field = |o: &aql_trace::json::Json, k: &str| {
        o.get(k)
            .and_then(aql_trace::json::Json::as_u64)
            .ok_or_else(|| format!("stats: bad or missing `{k}`"))
    };
    let cache = j.get("cache").ok_or("stats: missing `cache`")?;
    Ok(EvalStats {
        steps: field(j, "steps")?,
        subscripts: field(j, "subscripts")?,
        // Absent in pre-bounds-elision reports.
        elided: j.get("elided").and_then(aql_trace::json::Json::as_u64).unwrap_or(0),
        materialized: field(j, "materialized")?,
        cache: aql_store::CacheStats {
            hits: field(cache, "hits")?,
            misses: field(cache, "misses")?,
            evictions: field(cache, "evictions")?,
            bytes_read: field(cache, "bytes_read")?,
            // Absent in pre-prefetch-attribution reports.
            prefetched_bytes: cache
                .get("prefetched_bytes")
                .and_then(aql_trace::json::Json::as_u64)
                .unwrap_or(0),
            load_errors: field(cache, "load_errors")?,
        },
    })
}

/// An interactive AQL session: the top-level environment plus the
/// query pipeline.
pub struct Session {
    vals: HashMap<Name, Value>,
    val_types: HashMap<Name, Type>,
    macros: HashMap<Name, Macro>,
    externals: Extensions,
    readers: HashMap<String, Rc<dyn Reader>>,
    writers: HashMap<String, Rc<dyn Writer>>,
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
    /// `eval_core` within it merges its stats here; [`Session::exec`]
    /// drains it into `stmt_stats`.
    cur_stats: Cell<EvalStats>,
    /// Per-statement statistics of the most recent [`Session::run`].
    stmt_stats: RefCell<Vec<EvalStats>>,
    /// The slow-query log, if enabled.
    slow_log: Option<SlowLog>,
    /// The incident dump pipeline, if enabled.
    incidents: Option<IncidentConfig>,
    /// Path of the most recent incident dump (drives `\doctor` and the
    /// slow log's `incident` member).
    last_incident: RefCell<Option<std::path::PathBuf>>,
    /// Per-statement attribution ledgers of the most recent
    /// [`Session::run`], parallel to `stmt_stats`.
    stmt_attr: RefCell<Vec<aql_journal::attr::Ledger>>,
    /// Monotone statement sequence number (drives `sample_every`).
    stmt_seq: Cell<u64>,
}

/// What [`Session::exec`] knows about the statement it just ran, for
/// the incident dump and the slow-query log.
struct StmtRun<'a> {
    kind: &'static str,
    seq: u64,
    hash: u64,
    dur: Duration,
    ledger: &'a aql_journal::attr::Ledger,
}

impl Session {
    /// A session with the standard optimizer, the `COFILE`
    /// reader/writer, and the AQL prelude loaded.
    pub fn new() -> Session {
        let mut s = Session::bare();
        PRELUDE_LOADED.with(|(macros, seq)| {
            s.macros = macros.clone();
            s.stmt_seq.set(*seq);
        });
        s
    }

    /// A session without the prelude (used by tests that want full
    /// control; the builtin `COFILE` driver is still registered).
    pub fn bare() -> Session {
        let mut readers: HashMap<String, Rc<dyn Reader>> = HashMap::new();
        readers.insert("COFILE".to_string(), Rc::new(CoFileReader));
        let mut writers: HashMap<String, Rc<dyn Writer>> = HashMap::new();
        writers.insert("COFILE".to_string(), Rc::new(CoFileWriter));
        Session {
            vals: HashMap::new(),
            val_types: HashMap::new(),
            macros: HashMap::new(),
            externals: Extensions::new(),
            readers,
            writers,
            optimizer: aql_opt::standard(),
            limits: Limits::default(),
            optimize: true,
            verify: default_verify(),
            display_limit: aql_core::value::print::SESSION_TRUNCATE,
            cur_stats: Cell::new(EvalStats::default()),
            stmt_stats: RefCell::new(Vec::new()),
            slow_log: None,
            incidents: None,
            last_incident: RefCell::new(None),
            stmt_attr: RefCell::new(Vec::new()),
            stmt_seq: Cell::new(0),
        }
    }

    /// Route the slow-query log to `sink`: every statement whose wall
    /// time reaches `config.threshold` — and every
    /// `config.sample_every`-th statement regardless — is appended to
    /// `sink` as one JSON object per line (see DESIGN.md §11 for the
    /// record schema). Write errors are ignored: the log is telemetry,
    /// never a reason to fail a query.
    pub fn enable_slow_log(
        &mut self,
        sink: Box<dyn std::io::Write>,
        config: SlowLogConfig,
    ) {
        self.slow_log = Some(SlowLog { sink: RefCell::new(sink), config });
    }

    /// Stop slow-query logging and release the sink.
    pub fn disable_slow_log(&mut self) {
        self.slow_log = None;
    }

    /// Enable the incident dump pipeline: statements that error, hit a
    /// resource limit, trip a circuit breaker, or cross the slow
    /// threshold write a self-contained incident file into
    /// `config.dir`. Dump failures are swallowed — incidents are
    /// telemetry, never a reason to fail a query.
    pub fn enable_incidents(&mut self, config: IncidentConfig) {
        // Keep `GET /incidents` pointed at the same directory.
        aql_metrics::http::set_incident_dir(Some(config.dir.clone()));
        self.incidents = Some(config);
    }

    /// Stop dumping incidents.
    pub fn disable_incidents(&mut self) {
        aql_metrics::http::set_incident_dir(None);
        self.incidents = None;
    }

    /// Path of the most recent incident dump of this session, if any.
    pub fn last_incident_path(&self) -> Option<std::path::PathBuf> {
        self.last_incident.borrow().clone()
    }

    /// The `\doctor` analysis: the most recent incident dump when one
    /// exists, otherwise a live reading of the flight recorder plus the
    /// last statement's attribution ledger.
    pub fn doctor(&self) -> String {
        if let Some(path) = self.last_incident_path() {
            match aql_journal::incident::Incident::load(&path) {
                Ok(inc) => {
                    return format!(
                        "incident: {}\n{}",
                        path.display(),
                        aql_journal::doctor::diagnose(&inc)
                    )
                }
                Err(e) => {
                    return format!("doctor: cannot load {}: {e}", path.display());
                }
            }
        }
        let journal = aql_journal::snapshot();
        let attr = self.stmt_attr.borrow();
        aql_journal::doctor::diagnose_live(&journal, attr.last())
    }

    /// Statistics of the most recent [`Session::run`]: the
    /// component-wise sum over *all* its statements (steps plus the
    /// chunk-cache counters attributable to each). Zeroes before the
    /// first query. For per-statement attribution use
    /// [`Session::last_report`].
    pub fn last_stats(&self) -> EvalStats {
        self.stmt_stats.borrow().iter().fold(EvalStats::default(), |a, s| a.merged(s))
    }

    /// Per-statement statistics of the most recent [`Session::run`],
    /// in program order.
    pub fn statement_stats(&self) -> Vec<EvalStats> {
        self.stmt_stats.borrow().clone()
    }

    /// Per-statement attribution ledgers of the most recent
    /// [`Session::run`], in program order (parallel to
    /// [`Session::statement_stats`]).
    pub fn statement_attribution(&self) -> Vec<aql_journal::attr::Ledger> {
        self.stmt_attr.borrow().clone()
    }

    /// The report for the most recent [`Session::run`]. The trace is
    /// empty unless the run went through [`Session::profile`] (which
    /// returns the trace-bearing report directly).
    pub fn last_report(&self) -> QueryReport {
        QueryReport {
            statements: self.statement_stats(),
            attribution: self.statement_attribution(),
            trace: aql_trace::Trace::default(),
            metrics: aql_metrics::snapshot(),
        }
    }

    // ---- openness: registration (§4.1) ---------------------------------

    /// Register an external primitive (the paper's `RegisterCO`).
    pub fn register_external(&mut self, f: NativeFn) {
        self.externals.register(f);
    }

    /// Register a data reader under a name usable in `readval`.
    pub fn register_reader(&mut self, rname: &str, r: Rc<dyn Reader>) {
        self.readers.insert(rname.to_string(), r);
    }

    /// Register a data writer under a name usable in `writeval`.
    pub fn register_writer(&mut self, wname: &str, w: Rc<dyn Writer>) {
        self.writers.insert(wname.to_string(), w);
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

    /// A storage-residency report: one line per lazy-array `val`
    /// binding (source label, resident chunks/bytes against the cache
    /// budget, hit/miss/read/error counters, and prefetch
    /// effectiveness when a read-ahead worker is attached), followed
    /// by the process chunk governor's budget, usage and high-water
    /// mark. Rendered by the REPL's `\store;` meta-command.
    pub fn store_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut names: Vec<&Name> = self.vals.keys().collect();
        names.sort();
        let mut open = 0usize;
        for n in names {
            let Some(Value::Array(a)) = self.vals.get(n) else { continue };
            let Some(info) = a.store_info() else { continue };
            open += 1;
            let label = info.label.as_deref().unwrap_or("-");
            let _ = write!(
                out,
                "  {n}  source={label}  chunks={}  bytes={}/{}  hits={} misses={} read={} errors={}",
                info.chunks_held,
                info.bytes_held,
                info.budget_bytes,
                info.stats.hits,
                info.stats.misses,
                info.stats.bytes_read,
                info.stats.load_errors,
            );
            if let Some(p) = info.prefetch {
                let _ = write!(
                    out,
                    "  prefetch issued={} hits={} wasted={}",
                    p.issued, p.hits, p.wasted
                );
            }
            out.push('\n');
        }
        let header = if open == 0 {
            "store: no open chunk sources\n".to_string()
        } else {
            format!("store: {open} open chunk source(s)\n")
        };
        let governor = match aql_store::governor::budget() {
            Some(b) => format!(
                "governor: budget={b} in_use={} peak={}\n",
                aql_store::governor::bytes_in_use(),
                aql_store::governor::peak_bytes()
            ),
            None => format!(
                "governor: budget=unlimited in_use={} peak={}\n",
                aql_store::governor::bytes_in_use(),
                aql_store::governor::peak_bytes()
            ),
        };
        format!("{header}{out}{governor}")
    }

    /// The registered macros, by name.
    pub fn macro_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.macros.keys().map(|k| k.to_string()).collect();
        v.sort();
        v
    }

    // ---- the pipeline ----------------------------------------------------

    /// Execute a program (one or more `;`-terminated statements).
    pub fn run(&mut self, src: &str) -> Result<Vec<Outcome>, LangError> {
        self.stmt_stats.borrow_mut().clear();
        self.stmt_attr.borrow_mut().clear();
        let stmts = parse_program(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.exec(&s)?);
        }
        Ok(out)
    }

    /// Execute a program with tracing on and return the outcomes
    /// together with the full [`QueryReport`] (span tree, counters,
    /// per-statement stats). Installs a fresh subscriber for the
    /// duration of the run, discarding any trace already in progress
    /// on this thread.
    pub fn profile(&mut self, src: &str) -> Result<(Vec<Outcome>, QueryReport), LangError> {
        aql_trace::enable();
        let result = self.run(src);
        let trace = aql_trace::disable();
        let outcomes = result?;
        Ok((outcomes, QueryReport {
            statements: self.statement_stats(),
            attribution: self.statement_attribution(),
            trace,
            metrics: aql_metrics::snapshot(),
        }))
    }

    /// [`Session::profile`] with the span tree folded into collapsed
    /// stacks ([`aql_trace::profile::Profile::from_trace`]: each span path
    /// weighs its exact self time; renderable as text or an SVG
    /// flamegraph). The program runs once.
    pub fn flame(
        &mut self,
        src: &str,
    ) -> Result<(Vec<Outcome>, aql_trace::profile::Profile), LangError> {
        let (outcomes, report) = self.profile(src)?;
        Ok((outcomes, aql_trace::profile::Profile::from_trace(&report.trace)))
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

    /// Run a statement. Opens a root `statement` span (when tracing)
    /// and records the statement's [`EvalStats`]: evaluation counters
    /// merged over every evaluation it performs, with cache counters
    /// taken as the statement-level delta of the store's global
    /// aggregate — so reader I/O and echo-forced chunk loads are
    /// attributed to the statement that caused them.
    pub fn exec(&mut self, stmt: &Stmt) -> Result<Outcome, LangError> {
        let _span = aql_trace::span("statement");
        let kind = stmt_label(stmt);
        aql_trace::note("kind", || kind.to_string());
        let seq = self.stmt_seq.get();
        self.stmt_seq.set(seq + 1);
        let hash = stmt_hash(stmt);
        let t0 = aql_trace::now();
        emit(Event::StmtBegin { kind, seq, hash });
        let fires_base = self
            .slow_log
            .as_ref()
            .map(|_| aql_metrics::family_total("aql_opt_rule_fires_total"));
        // The snapshot seeds the incident's metrics-delta table.
        let metrics_base = self.incidents.as_ref().map(|_| aql_metrics::snapshot());
        let cache_base = aql_store::stats::global();
        self.cur_stats.set(EvalStats::default());
        aql_store::governor::reset_peak();
        aql_journal::attr::begin();
        let out = self.exec_inner(stmt);
        // Breaker trips *during* the statement are the ones its own
        // ledger saw: another thread's session trips into its own.
        let tripped = aql_journal::attr::breaker_trips() > 0;
        let mut ledger = aql_journal::attr::finish();
        ledger.governor_peak_bytes = aql_store::governor::peak_bytes();
        let mut st = self.cur_stats.take();
        st.cache = aql_store::stats::global().delta_since(&cache_base);
        self.stmt_stats.borrow_mut().push(st);
        let dur = aql_trace::now() - t0;
        let class = out.as_ref().err().map(LangError::class);
        let outcome = class.map_or("ok", ErrorClass::name);
        emit(Event::StmtEnd { outcome, seq, ns: dur.as_nanos() as u64 });
        if class.is_some() {
            emit(Event::StmtFailed);
        }
        if class == Some(ErrorClass::Unsound) {
            emit(Event::StmtUnsound);
        }
        let run = StmtRun { kind, seq, hash, dur, ledger: &ledger };
        let incident = self.maybe_dump_incident(&run, tripped, metrics_base, out.as_ref().err());
        self.maybe_log_slow(&run, &st, fires_base, out.is_err(), incident.as_deref());
        self.stmt_attr.borrow_mut().push(ledger);
        out
    }

    /// Dump an incident file for the statement just executed, if the
    /// pipeline is on and the outcome warrants one: errors (with
    /// resource exhaustion told apart), breaker trips observed during
    /// the statement, and slow-threshold crossings. Returns the file's
    /// path; dump failures are swallowed.
    fn maybe_dump_incident(
        &self,
        run: &StmtRun<'_>,
        tripped: bool,
        metrics_base: Option<Vec<(String, u64)>>,
        error: Option<&LangError>,
    ) -> Option<std::path::PathBuf> {
        let cfg = self.incidents.as_ref()?;
        let class = error.map(LangError::class);
        let slow_threshold = cfg
            .slow_threshold
            .or_else(|| self.slow_log.as_ref().map(|l| l.config.threshold));
        let slow = slow_threshold.is_some_and(|t| run.dur >= t);
        use aql_journal::incident::{Incident, IncidentKind};
        let ikind = match class {
            Some(ErrorClass::ResourceExhausted) => IncidentKind::ResourceExhausted,
            Some(_) => IncidentKind::Error,
            None if tripped => IncidentKind::BreakerTrip,
            None if slow => IncidentKind::Slow,
            None => return None,
        };
        let base = metrics_base.unwrap_or_default();
        let metrics_delta: Vec<(String, u64)> = aql_metrics::snapshot()
            .into_iter()
            .filter_map(|(k, v)| {
                let before = base.iter().find(|(bk, _)| *bk == k).map_or(0, |(_, bv)| *bv);
                (v > before).then(|| (k, v - before))
            })
            .collect();
        let incident = Incident {
            kind: ikind,
            seq: run.seq,
            stmt_hash: format!("{:016x}", run.hash),
            stmt_kind: run.kind.to_string(),
            dur_ns: run.dur.as_nanos() as u64,
            error: error.map(|e| e.to_string()),
            class,
            events: aql_journal::snapshot().tail(cfg.last_events),
            attribution: Some(run.ledger.clone()),
            metrics_delta,
        };
        let path = incident.write_to(&cfg.dir).ok()?;
        emit(Event::Incident { kind: ikind.name(), seq: run.seq });
        *self.last_incident.borrow_mut() = Some(path.clone());
        Some(path)
    }

    /// Append a slow-query-log record for the statement just executed,
    /// if the policy selects it: always when `dur` reaches the
    /// threshold, plus every `sample_every`-th statement as a baseline
    /// sample. One JSON object per line; sink errors are swallowed.
    fn maybe_log_slow(
        &self,
        run: &StmtRun<'_>,
        stats: &EvalStats,
        fires_base: Option<u64>,
        errored: bool,
        incident: Option<&std::path::Path>,
    ) {
        let Some(log) = &self.slow_log else { return };
        let &StmtRun { kind, seq, dur, .. } = run;
        let slow = dur >= log.config.threshold;
        if slow {
            emit(Event::SlowQuery { kind, seq, ns: dur.as_nanos() as u64 });
        }
        let sampled =
            !slow && log.config.sample_every > 0 && seq.is_multiple_of(log.config.sample_every);
        if !slow && !sampled {
            return;
        }
        use aql_trace::json::Json;
        let n = |v: u64| Json::Num(v as f64);
        let phases = run.ledger.phases.iter().map(|(p, ns)| (p.clone(), n(*ns))).collect();
        let fires = fires_base.map_or(0, |base| {
            aql_metrics::family_total("aql_opt_rule_fires_total").saturating_sub(base)
        });
        // Schema history (DESIGN.md §11): 2 adds `incident` (path of
        // the statement's incident dump, or null) and
        // `cache.prefetched_bytes`. Consumers of v1 records must treat
        // both as absent-means-none.
        let rec = Json::Obj(vec![
            ("schema_version".to_string(), n(2)),
            ("seq".to_string(), n(seq)),
            ("stmt_hash".to_string(), Json::Str(format!("{:016x}", run.hash))),
            ("kind".to_string(), Json::Str(kind.to_string())),
            ("slow".to_string(), Json::Bool(slow)),
            ("sampled".to_string(), Json::Bool(sampled)),
            ("dur_ns".to_string(), n(dur.as_nanos() as u64)),
            ("phases".to_string(), Json::Obj(phases)),
            (
                "eval".to_string(),
                Json::Obj(vec![
                    ("steps".to_string(), n(stats.steps)),
                    ("subscripts".to_string(), n(stats.subscripts)),
                    ("materialized".to_string(), n(stats.materialized)),
                ]),
            ),
            ("cache".to_string(), cache_to_json(&stats.cache)),
            ("rule_fires".to_string(), n(fires)),
            ("error".to_string(), Json::Bool(errored)),
            (
                "incident".to_string(),
                match incident {
                    Some(p) => Json::Str(p.display().to_string()),
                    None => Json::Null,
                },
            ),
        ]);
        use std::io::Write as _;
        let mut sink = log.sink.borrow_mut();
        let _ = writeln!(sink, "{}", rec.write());
    }

    fn exec_inner(&mut self, stmt: &Stmt) -> Result<Outcome, LangError> {
        match stmt {
            Stmt::Val(vname, e) => {
                let (ty, v) = self.eval_surface(e)?;
                let ty = default_type_vars(&ty);
                self.vals.insert(name(vname), v.clone());
                self.val_types.insert(name(vname), ty.clone());
                Ok(Outcome {
                    text: format!(
                        "typ {vname} : {ty}\nval {vname} = {}",
                        session_string(&v, self.display_limit)
                    ),
                    kind: OutcomeKind::Val(vname.clone()),
                    ty: Some(ty),
                    value: Some(v),
                })
            }
            Stmt::MacroDef(mname, e) => {
                let core = desugar(e)?;
                let resolved = self.resolve(&core);
                let ty = typecheck(&resolved, &self.val_types, &self.externals)?;
                self.macros.insert(name(mname), Rc::new((resolved, ty.clone())));
                Ok(Outcome {
                    text: format!(
                        "typ {mname} : {ty}\nval {mname} = {mname} registered as macro."
                    ),
                    kind: OutcomeKind::Macro(mname.clone()),
                    ty: Some(ty),
                    value: None,
                })
            }
            Stmt::Query(e) => {
                let (ty, v) = self.eval_surface(e)?;
                let ty = default_type_vars(&ty);
                // The last query result is bound to `it`, as in ML.
                self.vals.insert(name("it"), v.clone());
                self.val_types.insert(name("it"), ty.clone());
                Ok(Outcome {
                    text: format!(
                        "typ it : {ty}\nval it = {}",
                        session_string(&v, self.display_limit)
                    ),
                    kind: OutcomeKind::Query,
                    ty: Some(ty),
                    value: Some(v),
                })
            }
            Stmt::ReadVal { name: vname, reader, arg } => {
                let (_, argv) = self.eval_surface(arg)?;
                let r = self
                    .readers
                    .get(reader)
                    .cloned()
                    .ok_or_else(|| {
                        LangError::session(format!("no reader registered as `{reader}`"))
                    })?;
                let (v, declared) = {
                    let _phase = phase("readval");
                    aql_trace::note("reader", || reader.clone());
                    catch_extension("reader", reader, || r.read(&argv))??
                };
                let ty = declared
                    .or_else(|| type_of_value(&v))
                    .ok_or_else(|| {
                        LangError::session(format!(
                            "reader `{reader}` produced a value of ambiguous type; \
                             have the reader declare its result type"
                        ))
                    })?;
                self.vals.insert(name(vname), v.clone());
                self.val_types.insert(name(vname), ty.clone());
                Ok(Outcome {
                    text: format!(
                        "typ {vname} : {ty}\nval {vname} = {}",
                        session_string(&v, self.display_limit)
                    ),
                    kind: OutcomeKind::Read(vname.clone()),
                    ty: Some(ty),
                    value: Some(v),
                })
            }
            Stmt::WriteVal { value, writer, arg } => {
                let (_, v) = self.eval_surface(value)?;
                let (_, argv) = self.eval_surface(arg)?;
                let w = self
                    .writers
                    .get(writer)
                    .cloned()
                    .ok_or_else(|| {
                        LangError::session(format!("no writer registered as `{writer}`"))
                    })?;
                {
                    let _phase = phase("writeval");
                    aql_trace::note("writer", || writer.clone());
                    catch_extension("writer", writer, || w.write(&argv, &v))??;
                }
                Ok(Outcome {
                    text: format!("val it = () written using {writer}."),
                    kind: OutcomeKind::Write,
                    ty: None,
                    value: None,
                })
            }
        }
    }

    /// The expression pipeline: desugar → resolve → typecheck →
    /// optimize → evaluate.
    fn eval_surface(&self, e: &crate::ast::SExpr) -> Result<(Type, Value), LangError> {
        let core = {
            let _phase = phase("desugar");
            desugar(e)?
        };
        self.eval_core(&core)
    }

    /// Run the pipeline from the core-calculus stage. Each phase runs
    /// under its own trace span; evaluation stats are merged into the
    /// current statement's accumulator.
    pub fn eval_core(&self, core: &Expr) -> Result<(Type, Value), LangError> {
        let resolved = {
            let _phase = phase("resolve");
            self.resolve(core)
        };
        let ty = {
            let _phase = phase("typecheck");
            typecheck(&resolved, &self.val_types, &self.externals)?
        };
        let optimized = if self.optimize {
            let _phase = phase("optimize");
            self.optimize_gated(&resolved, &ty, None)?
        } else {
            resolved
        };
        let ctx = EvalCtx::new(&self.vals, &self.externals).with_limits(self.limits.clone());
        let v = {
            let _phase = phase("eval");
            aql_analysis::eval_elided(&optimized, &ctx)
        };
        self.cur_stats.set(self.cur_stats.get().merged(&ctx.stats()));
        let v = v.map_err(LangError::Eval)?;
        Ok((ty, v))
    }

    /// The phase-boundary half of the soundness gate: re-typecheck the
    /// whole term in the session environment and require the query's
    /// type to be preserved (up to inference-variable numbering).
    fn phase_check(&self, expected: &Type) -> impl Fn(&Expr) -> Result<(), String> + '_ {
        let expected = expected.clone();
        move |e2: &Expr| {
            let t2 = typecheck(e2, &self.val_types, &self.externals)
                .map_err(|err| format!("optimized term no longer typechecks: {err}"))?;
            if type_compatible(&expected, &t2) {
                Ok(())
            } else {
                Err(format!("query type changed: {expected} ~> {t2}"))
            }
        }
    }

    /// Run the optimizer under the session's gate setting. Rules are
    /// extension code: a panicking rule is contained and named, and the
    /// session stays usable.
    fn optimize_gated(
        &self,
        resolved: &Expr,
        ty: &Type,
        trace: Option<&mut Trace>,
    ) -> Result<Expr, LangError> {
        let check = self.phase_check(ty);
        let gate = if self.verify { Gate::full(&check) } else { Gate::off() };
        self.optimizer.run(resolved, &gate, trace).map_err(opt_error)
    }

    /// Resolve free names: macros are substituted (their bodies are
    /// stored fully resolved), externals become [`Expr::Ext`], `val`s
    /// become [`Expr::Global`]. Lexically bound names are untouched.
    pub fn resolve(&self, e: &Expr) -> Expr {
        self.resolve_in(e, &mut Vec::new())
    }

    fn resolve_in(&self, e: &Expr, bound: &mut Vec<Name>) -> Expr {
        if let Expr::Var(x) = e {
            if bound.contains(x) {
                return e.clone();
            }
            if let Some(m) = self.macros.get(x) {
                return m.0.clone();
            }
            if self.externals.get(x).is_some() {
                return Expr::Ext(x.clone());
            }
            if self.vals.contains_key(x) {
                return Expr::Global(x.clone());
            }
        }
        map_children(e, &mut |binders, c| {
            bound.extend_from_slice(binders);
            let resolved = self.resolve_in(c, bound);
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
    /// of evaluation: parse → desugar → resolve → typecheck.
    fn check_query(&self, query: &str) -> Result<(Expr, Type), LangError> {
        let core = desugar(&crate::parser::parse_expr(query)?)?;
        let resolved = self.resolve(&core);
        let ty = typecheck(&resolved, &self.val_types, &self.externals)?;
        Ok((resolved, ty))
    }

    /// Explain a query: run the pipeline up to (but not including)
    /// evaluation and report the core term, its type, the optimized
    /// term, and the full §5 rewrite trace.
    pub fn explain(&self, query: &str) -> Result<Explain, LangError> {
        let (resolved, ty) = self.check_query(query)?;
        let mut trace = Trace::default();
        let optimized = self.optimize_gated(&resolved, &ty, Some(&mut trace))?;
        let layouts = self.source_layouts();
        let cost = |e: &Expr| {
            let globals = aql_analysis::globals_mentioned(e, &self.vals);
            aql_analysis::cost::estimate(e, &aql_analysis::analyze(e, &globals), &layouts)
        };
        let (cost_before, cost_after) = (cost(&resolved), cost(&optimized));
        Ok(Explain { ty, core: resolved, optimized, trace, cost_before, cost_after })
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
    /// without evaluating it: inferred (symbolic) shape, effect class,
    /// per-subscript bounds verdicts, and the fusibility report
    /// marking which loop nests could compile to bulk kernels. The
    /// REPL's `\analyze` meta-command renders the result.
    pub fn analyze(&self, query: &str) -> Result<AnalyzeReport, LangError> {
        let (resolved, ty) = self.check_query(query)?;
        let globals = aql_analysis::globals_mentioned(&resolved, &self.vals);
        let analysis = aql_analysis::analyze(&resolved, &globals);
        let cost = aql_analysis::cost::estimate(&resolved, &analysis, &self.source_layouts());
        let body = aql_analysis::report::render(&analysis, &resolved);
        Ok(AnalyzeReport { ty, body, cost })
    }

    /// Statically analyse a query without evaluating it: run the
    /// pipeline through typechecking, then the shape/bounds lints
    /// ([`aql_analysis::lint::lint`]: provable out-of-bounds
    /// subscripts, zero-extent dimensions, dead conditional branches)
    /// over the same analysis [`Session::analyze`] runs, so `val`
    /// extents reach them. The REPL's `\lint` meta-command renders the
    /// result.
    pub fn lint(&self, query: &str) -> Result<LintReport, LangError> {
        let (resolved, ty) = self.check_query(query)?;
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

/// The result of [`Session::analyze`]: the query's type, the rendered
/// abstract-interpretation summary, and the analysis-backed cost
/// estimate.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The query's type.
    pub ty: Type,
    /// The rendered analysis summary ([`aql_analysis::report::render`]).
    pub body: String,
    /// Cardinality / step / bytes-moved estimate for the (unoptimized)
    /// core term.
    pub cost: aql_analysis::cost::CostEstimate,
}

impl AnalyzeReport {
    /// The REPL rendering: type line, analysis summary, cost line.
    pub fn render(&self) -> String {
        format!(
            "typ    : {}\n{}cost   : {}\n",
            self.ty,
            self.body,
            render_cost(&self.cost)
        )
    }
}

/// The result of [`Session::lint`]: the query's type plus every
/// shape/bounds finding (all warnings; errors would have failed
/// typechecking first).
#[derive(Debug, Clone)]
pub struct LintReport {
    /// The query's type.
    pub ty: Type,
    /// Lint findings in traversal order (empty when the query is
    /// clean).
    pub diagnostics: Vec<aql_analysis::diag::Diagnostic>,
}

impl LintReport {
    /// The REPL rendering: the type line followed by one line per
    /// finding, or a "no findings" note.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("typ  : {}\n", self.ty);
        if self.diagnostics.is_empty() {
            out.push_str("lint : no findings\n");
        } else {
            for d in &self.diagnostics {
                let _ = writeln!(out, "lint : {d}");
            }
        }
        out
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
    }
}

/// The trace label for a statement's root span.
fn stmt_label(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::Val(..) => "val",
        Stmt::MacroDef(..) => "macro",
        Stmt::Query(..) => "query",
        Stmt::ReadVal { .. } => "readval",
        Stmt::WriteVal { .. } => "writeval",
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
        assert_eq!(a.stmt_seq.get(), b.stmt_seq.get());
        assert_eq!(a.stmt_seq.get(), parse_program(PRELUDE).unwrap().len() as u64);
        assert!(Rc::ptr_eq(&a.macros[&name("zip")], &b.macros[&name("zip")]));
        // Redefining a prelude name is one session's business.
        a.run("macro \\evenpos = fn \\a => a;").unwrap();
        let evens = |s: &mut Session| s.eval_query("len!(evenpos![[0, 1, 2, 3]])").unwrap().1;
        assert_eq!(evens(&mut a), Value::Nat(4));
        assert_eq!(evens(&mut Session::new()), Value::Nat(2));
        assert_eq!(a.explain("reverse!([[1, 2]])").unwrap().ty, Type::array1(Type::Nat));
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
        let per_stmt = s.statement_stats();
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
        assert_eq!(s.statement_stats().len(), 1);
        assert_eq!(s.last_report().statements.len(), 1);
    }

    #[test]
    fn profile_traces_the_pipeline() {
        let mut s = Session::new();
        let (outcomes, report) = s.profile("val \\a = gen!20; summap(fn \\x => x)!a;").unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(report.statements.len(), 2);
        // Two statement roots, each with the pipeline phases below.
        let roots = report.trace.roots();
        let root_names: Vec<&str> = roots
            .iter()
            .map(|&i| report.trace.spans[i].name.as_str())
            .filter(|n| *n == "statement")
            .collect();
        assert_eq!(root_names.len(), 2, "{:?}", report.trace);
        for name in ["parse", "desugar", "resolve", "typecheck", "optimize", "eval"] {
            assert!(report.trace.find(name).is_some(), "span `{name}` missing");
        }
        // The evaluator's counters reached the trace, and agree with
        // the stats vector.
        assert_eq!(
            report.trace.total_counter("eval.steps"),
            report.total().steps,
            "trace and stats must agree on steps"
        );
        // Tracing is off again after `profile`.
        assert!(!aql_trace::enabled());
    }

    #[test]
    fn query_report_round_trips_through_json() {
        let mut s = Session::new();
        let (_, report) = s.profile("[[ i * i | \\i < 10 ]][4];").unwrap();
        assert!(!report.metrics.is_empty(), "profile must snapshot the registry");
        let back = QueryReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert!(QueryReport::from_json("{\"statements\":[]}").is_err());
        // Pre-metrics reports (no `metrics` member) stay parseable.
        let legacy = QueryReport::default().to_json().replace(",\"metrics\":{}", "");
        assert!(!legacy.contains("metrics"));
        assert_eq!(QueryReport::from_json(&legacy).unwrap(), QueryReport::default());
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
        s.enable_slow_log(
            Box::new(sink.clone()),
            SlowLogConfig { threshold: std::time::Duration::ZERO, sample_every: 0 },
        );
        s.run("val \\a = gen!40; summap(fn \\x => x)!a;").unwrap();
        let lines = sink.lines();
        assert_eq!(lines.len(), 2, "threshold 0 logs every statement");
        let rec = Json::parse(&lines[0]).expect("each line must be valid JSON");
        assert_eq!(rec.get("schema_version").and_then(Json::as_u64), Some(2));
        assert_eq!(rec.get("kind").and_then(Json::as_str), Some("val"));
        // v2: no incident pipeline configured ⇒ explicit null.
        assert_eq!(rec.get("incident"), Some(&Json::Null));
        assert!(
            rec.get("cache").and_then(|c| c.get("prefetched_bytes")).is_some(),
            "v2 carries cache.prefetched_bytes"
        );
        assert_eq!(rec.get("slow"), Some(&Json::Bool(true)));
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
    fn slow_log_sampling_picks_every_nth_statement() {
        use aql_trace::json::Json;
        let sink = SharedSink::default();
        let mut s = Session::new();
        // Unreachable threshold: only sampling can select records.
        s.enable_slow_log(
            Box::new(sink.clone()),
            SlowLogConfig {
                threshold: std::time::Duration::from_secs(3600),
                sample_every: 3,
            },
        );
        for _ in 0..7 {
            s.run("1 + 1;").unwrap();
        }
        let lines = sink.lines();
        // Statement seqs 0..7 with the prelude already past: every 3rd
        // of *this* session's sequence numbers. The prelude consumed
        // seqs, so just assert the cadence and the flags.
        assert!(!lines.is_empty(), "sampling must select something in 7 statements");
        assert!(lines.len() <= 3, "1-in-3 sampling over 7 statements, got {lines:?}");
        for l in &lines {
            let rec = Json::parse(l).expect("valid JSON");
            assert_eq!(rec.get("sampled"), Some(&Json::Bool(true)));
            assert_eq!(rec.get("slow"), Some(&Json::Bool(false)));
        }
        let seqs: Vec<u64> = lines
            .iter()
            .map(|l| {
                Json::parse(l).expect("json").get("seq").and_then(Json::as_u64).expect("seq")
            })
            .collect();
        for w in seqs.windows(2) {
            assert_eq!(w[1] - w[0], 3, "sampled seqs must be 3 apart: {seqs:?}");
        }
    }

    #[test]
    fn stmt_hash_is_fnv1a_of_the_debug_rendering_without_building_it() {
        // Every statement of the paper's §4.2 sunset session, the §1
        // heat-index query, and a `writeval` so each kind is covered.
        let paper = r#"
            val \months = [[0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30]];
            macro \days_since_1_1 = fn (\m, \d, \y) =>
                d + summap(fn \i => months[i])!(gen!m) +
                (if m > 2 and y % 4 = 0 then 1 else 0);
            days_since_1_1!(6, 1, 95);
            val \NYlat = 40.7; val \NYlon = -74.0;
            macro \lat_index = fn \x => 2; macro \lon_index = fn \x => 2;
            readval \T using NETCDF3 at
               ("temp.nc", "temp",
                (days_since_1_1!(6, 1, 95) * 24, lat_index!(NYlat), lon_index!(NYlon)),
                (days_since_1_1!(6, 30, 95) * 24, lat_index!(NYlat), lon_index!(NYlon)));
            {d | [(\h, _, _) : \t] <- T, \d == h/24 + 1,
                 h > june_sunset!(NYlat, NYlon, d), t > 85.0};
            {d | \d <- gen!30,
                 \WS' == evenpos!(proj_col!(WS, 0)),
                 \TRW == zip_3!(T, RH, WS'),
                 \A == subseq!(TRW, d*24, d*24+23),
                 heatindex!(A) > threshold};
            writeval T using COFILE at "t.co";
        "#;
        let stmts = parse_program(paper).expect("the paper's statements parse");
        assert_eq!(stmts.len(), 11);
        for stmt in &stmts {
            let mut reference: u64 = 0xcbf2_9ce4_8422_2325;
            for b in format!("{stmt:?}").bytes() {
                reference = (reference ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            assert_eq!(stmt_hash(stmt), reference, "{stmt:?}");
        }
    }

    #[test]
    fn session_metrics_reach_the_registry() {
        let errors = aql_metrics::counter("aql_session_errors_total", "");
        let errors_before = errors.get();
        let mut s = Session::new();
        // A typecheck failure (unbound name) — unlike a parse error,
        // it reaches `exec` and must bump the error counter.
        assert!(s.run("no_such_name + 1;").is_err());
        assert!(errors.get() > errors_before, "a failed statement bumps errors");
        let report = s.last_report();
        assert!(
            report
                .metrics
                .iter()
                .any(|(k, _)| k.starts_with("aql_session_statements_total")),
            "statement counters must appear in the report snapshot: {:?}",
            report.metrics.iter().take(5).collect::<Vec<_>>()
        );
        assert!(
            report.metrics.iter().any(|(k, _)| k.contains("aql_session_statement_ns")),
            "statement latency histogram must appear in the snapshot"
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
        let attr = s.statement_attribution();
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
        // The ledger also reaches the report, and survives JSON.
        let report = s.last_report();
        assert_eq!(report.attribution, attr);
        let back = QueryReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.attribution, attr);
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
        s.enable_incidents(IncidentConfig::new(&dir));
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
        s.enable_incidents(IncidentConfig {
            dir: dir.clone(),
            last_events: 64,
            slow_threshold: None,
        });
        assert!(s.eval_query("gen!1000").is_err());
        let inc = aql_journal::incident::Incident::load(
            &s.last_incident_path().expect("resource incident"),
        )
        .unwrap();
        assert_eq!(inc.kind, aql_journal::incident::IncidentKind::ResourceExhausted);

        // A zero slow threshold dumps a slow incident even on success,
        // and the slow log's v2 record links to it.
        let sink = SharedSink::default();
        s.limits = Limits::default();
        s.enable_slow_log(
            Box::new(sink.clone()),
            SlowLogConfig { threshold: Duration::ZERO, sample_every: 0 },
        );
        s.enable_incidents(IncidentConfig {
            dir: dir.clone(),
            last_events: 64,
            slow_threshold: Some(Duration::ZERO),
        });
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
    fn slow_log_v1_records_remain_parseable() {
        use aql_trace::json::Json;
        // A canned v1 line: no `incident`, no `cache.prefetched_bytes`.
        // Consumers dispatch on schema_version and treat the v2 members
        // as absent-means-none — the same convention stats_from_json
        // applies to pre-v2 reports.
        let v1 = r#"{"schema_version":1,"seq":3,"stmt_hash":"00000000deadbeef",
            "kind":"query","slow":true,"sampled":false,"dur_ns":5,"phases":{},
            "eval":{"steps":1,"subscripts":0,"materialized":0},
            "cache":{"hits":2,"misses":1,"evictions":0,"bytes_read":64,"load_errors":0},
            "rule_fires":0,"error":false}"#;
        let rec = Json::parse(v1).expect("v1 lines stay valid JSON");
        assert_eq!(rec.get("schema_version").and_then(Json::as_u64), Some(1));
        assert!(rec.get("incident").is_none(), "absent in v1 ⇒ no dump");
        let stats = stats_from_json(&Json::Obj(vec![
            ("steps".to_string(), Json::Num(1.0)),
            ("subscripts".to_string(), Json::Num(0.0)),
            ("materialized".to_string(), Json::Num(0.0)),
            ("cache".to_string(), rec.get("cache").unwrap().clone()),
        ]))
        .expect("a v1 cache object parses");
        assert_eq!(stats.cache.bytes_read, 64);
        assert_eq!(stats.cache.prefetched_bytes, 0, "absent ⇒ zero");
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
    fn analyze_does_not_let_a_shadowing_binder_capture_an_extent() {
        let s = Session::new();
        let bounds_line = |q: &str| {
            let r = s.analyze(q).unwrap().render();
            r.lines().find(|l| l.starts_with("bounds")).unwrap().to_string()
        };
        // `A[i]` under `i < len!A` is in bounds for every A …
        let l = bounds_line("fn \\A => fn \\B => [[ A[i] | \\i < len!A ]]");
        assert!(l.contains("1 provably in-bounds"), "{l}");
        // … unless an inner binder named A makes it read B.
        for q in [
            "fn \\A => fn \\B => [[ (let val \\A = B in A[i] end) | \\i < len!A ]]",
            "fn \\A => fn \\B => [[ (fn \\A => A[i])!B | \\i < len!A ]]",
        ] {
            let l = bounds_line(q);
            assert!(l.contains("0 provably in-bounds, 1 unknown"), "{q}: {l}");
        }
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
