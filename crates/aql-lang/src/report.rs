//! What a session reports: views of the statements it finished, and
//! the static reports of the queries it only compiles.
//!
//! [`Session::exec`](crate::session::Session::exec) closes each
//! statement into one record (`StmtRecord`) — its kind, sequence number,
//! hash, wall time, error class, counts ([`EvalStats`], [`KernelStats`],
//! [`RunCounts`]) and attribution row — and the session keeps the
//! records of its last `run` in one `Vec`, beside the per-label sum of
//! rows that `\store` prints. Every account of a statement is a
//! function of one record or of that `Vec`: [`QueryReport`]
//! (`\profile`, `\attr`), the slow-query log's line and the incident
//! dump (`Sinks`), `\store` and `\doctor`. [`Explain`],
//! [`AnalyzeReport`] and [`LintReport`] render the pipeline's static
//! half.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use aql_core::eval::{EvalStats, KernelStats};
use aql_core::expr::Name;
use aql_core::types::Type;
use aql_core::value::Value;
use aql_journal::attr::{Ledger, SourceCounts};
use aql_journal::incident::{Incident, IncidentKind};
use aql_journal::{emit, ErrorClass, Event};
use aql_opt::RunCounts;
use aql_store::CacheStats;
use aql_trace::json::Json;

use crate::errors::LangError;

/// One finished statement: what every report of it reads.
#[derive(Debug, Clone)]
pub(crate) struct StmtRecord {
    /// The statement's kind (`val`, `query`, …).
    pub(crate) kind: &'static str,
    /// The session's statement sequence number.
    pub(crate) seq: u64,
    /// The statement's fingerprint, printed `{:016x}`.
    pub(crate) hash: u64,
    /// Wall time from `StmtBegin` to `StmtEnd`, in nanoseconds.
    pub(crate) dur_ns: u64,
    /// The failure's class; `None` for a statement that succeeded.
    pub(crate) class: Option<ErrorClass>,
    /// What the statement counted.
    pub(crate) counts: Counts,
    /// The statement's attribution row.
    pub(crate) attr: Ledger,
}

/// A count as `\profile` spells it: `(group, name, value)`.
type NamedCount = (&'static str, String, u64);

impl StmtRecord {
    /// The statement's counts, each once: `\profile` prints a line a
    /// group, the Chrome export puts them in the statement span's `args`
    /// and an incident keeps the nonzero ones, each as
    /// `<group>.<name>`. The kernel and optimizer groups are left out
    /// when the statement ran neither.
    pub(crate) fn named_counts(&self) -> Vec<NamedCount> {
        let Counts { stats: s, kernel: k, opt: o } = &self.counts;
        let named = |group, fields: &[(&'static str, u64)]| {
            fields.iter().map(|&(name, v)| (group, name.to_string(), v)).collect::<Vec<_>>()
        };
        let mut out = named("eval", &[("steps", s.steps), ("subscripts", s.subscripts)]);
        out.extend(named("eval", &[("elided", s.elided), ("materialized", s.materialized)]));
        if *k != KernelStats::default() {
            out.extend(named("kernel", &[("marked_sites", k.marked_sites), ("nests", k.nests)]));
            out.extend(named("kernel", &[("cells", k.cells), ("rows", k.rows)]));
            out.extend(named("kernel", &[("escapes", k.escapes), ("binds", k.binds)]));
        }
        if o.passes > 0 {
            out.extend(named("opt", &[("passes", o.passes), ("visits", o.visits), ("applies", o.applies)]));
        }
        for r in &o.rules {
            out.push(("opt", format!("{}/{}", r.phase, r.rule), r.fires));
            if r.bound_hits > 0 {
                out.push(("opt", format!("bound_hit:{}/{}", r.phase, r.rule), r.bound_hits));
            }
        }
        let c = &s.cache;
        out.extend(named("cache", &[("hits", c.hits), ("misses", c.misses), ("evictions", c.evictions)]));
        out.extend(named("cache", &[("bytes_read", c.bytes_read), ("prefetched_bytes", c.prefetched_bytes)]));
        out.extend(named("cache", &[("load_errors", c.load_errors)]));
        out.extend(named("cache", &[("hyperslab_requests", self.attr.hyperslab_requests)]));
        out
    }
}

/// What a statement counts, each number written once by the code that
/// owns it, added up over the statement's evaluations and optimizer runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Counts {
    /// The evaluator's charges; cache counters read from the row.
    pub(crate) stats: EvalStats,
    /// The bulk kernels'.
    pub(crate) kernel: KernelStats,
    /// The optimizer's.
    pub(crate) opt: RunCounts,
}

impl Counts {
    /// Add what the evaluation through `ctx` counted.
    pub(crate) fn add_eval(&mut self, ctx: &aql_core::eval::EvalCtx) {
        self.stats = self.stats.merged(&ctx.stats());
        self.kernel = self.kernel.merged(&ctx.kernel_stats());
    }
}

/// A machine-readable account of the most recent `Session::run`: what
/// each statement counted and the span tree that timed it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryReport {
    /// One entry per executed statement, in program order. Cache
    /// counters are the statement's attribution row, so reader I/O and
    /// echo-forced loads are attributed to the statement that caused
    /// them.
    pub statements: Vec<EvalStats>,
    /// Per-statement kernel counts, parallel to `statements`.
    pub kernels: Vec<KernelStats>,
    /// Per-statement optimizer counts, over every run the statement
    /// made, parallel to `statements`.
    pub optimizer: Vec<RunCounts>,
    /// Per-statement resource attribution ledgers, parallel to
    /// `statements`: bytes and chunks by labeled source, per-phase wall
    /// time, hyperslab requests and the governor's peak (see
    /// `aql_journal::attr`). Rendered by the REPL's `\attr;`.
    pub attribution: Vec<Ledger>,
    /// The span tree the run recorded: names, notes and times, no
    /// counts.
    pub trace: aql_trace::Trace,
    /// Per statement, its counts as its record spells them.
    counts: Vec<Vec<NamedCount>>,
}

impl QueryReport {
    /// The report of `records` with `trace`: the one place a report is
    /// built.
    pub(crate) fn of(records: &[StmtRecord], trace: aql_trace::Trace) -> QueryReport {
        QueryReport {
            statements: records.iter().map(|r| r.counts.stats).collect(),
            kernels: records.iter().map(|r| r.counts.kernel).collect(),
            optimizer: records.iter().map(|r| r.counts.opt.clone()).collect(),
            attribution: records.iter().map(|r| r.attr.clone()).collect(),
            trace,
            counts: records.iter().map(StmtRecord::named_counts).collect(),
        }
    }

    /// The report's span tree as Chrome trace-event JSON
    /// ([`aql_trace::Trace::to_chrome_json_value`]), each statement's
    /// counts in its `statement` span's `args` as `<group>.<name>`
    /// (`steps` as `eval.steps`, …): loadable directly in Perfetto or
    /// `chrome://tracing`. The REPL's `\profile … > "file.json";` writes
    /// exactly this.
    pub fn to_chrome_json(&self) -> String {
        // Statement `i` is the `i`-th root span named `statement`.
        let mut counts = vec![None; self.trace.spans.len()];
        let roots = self.trace.spans.iter().enumerate().filter(|(_, s)| s.parent.is_none());
        let statements = roots.filter(|(_, s)| s.name == "statement").map(|(span, _)| span);
        for (span, named) in statements.zip(&self.counts) {
            counts[span] = Some(named);
        }
        let args = |span: usize| {
            let named = counts[span].into_iter().flatten();
            named.map(|(group, name, v)| (format!("{group}.{name}"), Json::Num(*v as f64))).collect()
        };
        self.trace.to_chrome_json_value(args).write()
    }

    /// The `\profile` rendering: the phase-timing tree, then a block a
    /// statement with its counts, a line a group (`eval`, `kernel`, `opt`,
    /// `cache`). With `redact_timings` every duration renders as `_`
    /// (deterministic; used by golden tests).
    pub fn render_profile(&self, redact_timings: bool) -> String {
        let mut out = self.trace.render(redact_timings);
        for (i, named) in self.counts.iter().enumerate() {
            out.push_str(&format!("stmt {i}:"));
            let mut group = "";
            for &(g, ref name, v) in named {
                if g != group {
                    out.push_str(&format!("\n  {g}:"));
                    group = g;
                }
                out.push_str(&format!(" {name}={v}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The result of `Session::explain`: the compiled and optimized
/// forms of a query with the rewrite trace.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The query's type.
    pub ty: Type,
    /// The resolved core-calculus term (after desugaring and macro
    /// substitution).
    pub core: aql_core::expr::Expr,
    /// The term after the §5 optimizer.
    pub optimized: aql_core::expr::Expr,
    /// Every rule firing, in order.
    pub trace: aql_opt::Trace,
    /// What the optimizer's run counted: the fire table's rows.
    pub counts: RunCounts,
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
            self.counts.render_fire_table()
        )
    }
}

/// One cost estimate as a compact `cells≈… steps≈… bytes≈…` cell of
/// the `\explain` cost line.
fn render_cost(c: &aql_analysis::cost::CostEstimate) -> String {
    format!("cells~{} steps~{} bytes~{}", c.cardinality, c.steps, c.bytes_moved)
}

/// The result of `Session::analyze`: the query's type, the rendered
/// abstract-interpretation summary, and the analysis-backed cost
/// estimate.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The query's type.
    pub ty: Type,
    /// The rendered analysis summary ([`aql_analysis::report::render`]).
    pub body: String,
    /// Cardinality / step / bytes-moved estimate for the term the
    /// statement path would evaluate.
    pub cost: aql_analysis::cost::CostEstimate,
}

impl AnalyzeReport {
    /// The REPL rendering: type line, analysis summary, cost line.
    pub fn render(&self) -> String {
        format!("typ    : {}\n{}cost   : {}\n", self.ty, self.body, render_cost(&self.cost))
    }
}

/// The result of `Session::lint`: the query's type plus every
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
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "lint : {d}");
        }
        out
    }
}

/// The slow-query log: a JSON-lines sink and the wall time at or above
/// which a statement is logged.
pub(crate) struct SlowLog {
    pub(crate) sink: Box<dyn std::io::Write>,
    pub(crate) threshold: Duration,
}

impl SlowLog {
    /// Whether `rec`'s wall time reached the threshold.
    fn is_slow(&self, rec: &StmtRecord) -> bool {
        u128::from(rec.dur_ns) >= self.threshold.as_nanos()
    }
}

/// How many flight-recorder events an incident file keeps.
const INCIDENT_EVENTS: usize = 256;

/// Where finished statements are reported beyond the session: the
/// slow-query log and the incident directory, each when it is on.
#[derive(Default)]
pub(crate) struct Sinks {
    /// The slow-query log, if enabled.
    pub(crate) slow_log: Option<SlowLog>,
    /// The incident directory, if the dump pipeline is enabled.
    pub(crate) incidents: Option<PathBuf>,
    /// Path of the session's most recent incident dump (drives
    /// `\doctor` and the slow log's `incident` member).
    pub(crate) last_incident: Option<PathBuf>,
}

impl Sinks {
    /// Report a finished statement: an incident dump if it warrants
    /// one, then a slow-log line if it was slow.
    pub(crate) fn report(&mut self, rec: &StmtRecord, error: Option<&LangError>) {
        let incident = self.dump_incident(rec, error);
        self.log_slow(rec, incident.as_deref());
    }

    /// Dump an incident file for `rec`, if the pipeline is on and the
    /// outcome warrants one: errors (with resource exhaustion told
    /// apart) and slow-threshold crossings. Returns the file's path;
    /// dump failures are swallowed.
    fn dump_incident(&mut self, rec: &StmtRecord, error: Option<&LangError>) -> Option<PathBuf> {
        let dir = self.incidents.as_ref()?;
        let slow = self.slow_log.as_ref().is_some_and(|l| l.is_slow(rec));
        let kind = match rec.class {
            Some(ErrorClass::ResourceExhausted) => IncidentKind::ResourceExhausted,
            Some(_) => IncidentKind::Error,
            None if slow => IncidentKind::Slow,
            None => return None,
        };
        let moved = rec.named_counts().into_iter().filter(|&(_, _, v)| v > 0);
        let metrics_delta = moved.map(|(group, name, v)| (format!("{group}.{name}"), v)).collect();
        let incident = Incident {
            kind,
            seq: rec.seq,
            stmt_hash: format!("{:016x}", rec.hash),
            stmt_kind: rec.kind.to_string(),
            dur_ns: rec.dur_ns,
            error: error.map(|e| e.to_string()),
            class: rec.class,
            events: aql_journal::snapshot().tail(INCIDENT_EVENTS),
            attribution: Some(rec.attr.clone()),
            metrics_delta,
        };
        let path = incident.write_to(dir).ok()?;
        emit(Event::Incident { kind: kind.name(), seq: rec.seq });
        self.last_incident = Some(path.clone());
        Some(path)
    }

    /// Append a slow-query-log line for `rec` if its wall time reached
    /// the threshold. One JSON object per line; sink errors are
    /// swallowed.
    fn log_slow(&mut self, rec: &StmtRecord, incident: Option<&Path>) {
        let Some(log) = &mut self.slow_log else { return };
        let StmtRecord { kind, seq, dur_ns, counts: Counts { ref stats, ref opt, .. }, .. } = *rec;
        if !log.is_slow(rec) {
            return;
        }
        emit(Event::SlowQuery { kind, seq, ns: dur_ns });
        let n = |v: u64| Json::Num(v as f64);
        let obj = |members: Vec<(&str, Json)>| {
            Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let c = &stats.cache;
        // Schema history (DESIGN.md §11): 2 adds `incident` (path of
        // the statement's incident dump, or null) and
        // `cache.prefetched_bytes`; 3 drops `slow` and `sampled`, as
        // every record is a slow statement.
        let line = obj(vec![
            ("schema_version", n(3)),
            ("seq", n(seq)),
            ("stmt_hash", Json::Str(format!("{:016x}", rec.hash))),
            ("kind", Json::Str(kind.to_string())),
            ("dur_ns", n(dur_ns)),
            ("phases", Json::Obj(rec.attr.phases.iter().map(|(p, ns)| (p.clone(), n(*ns))).collect())),
            (
                "eval",
                obj(vec![
                    ("steps", n(stats.steps)),
                    ("subscripts", n(stats.subscripts)),
                    ("materialized", n(stats.materialized)),
                ]),
            ),
            (
                "cache",
                obj(vec![
                    ("hits", n(c.hits)),
                    ("misses", n(c.misses)),
                    ("evictions", n(c.evictions)),
                    ("bytes_read", n(c.bytes_read)),
                    ("prefetched_bytes", n(c.prefetched_bytes)),
                    ("load_errors", n(c.load_errors)),
                ]),
            ),
            ("rule_fires", n(opt.fires())),
            ("error", Json::Bool(rec.class.is_some())),
            ("incident", incident.map_or(Json::Null, |p| Json::Str(p.display().to_string()))),
        ]);
        let _ = writeln!(log.sink, "{}", line.write());
    }

    /// The `\doctor` analysis: the session's most recent incident dump
    /// when one exists, otherwise a live reading of the flight recorder
    /// plus `last`'s attribution row.
    pub(crate) fn doctor(&self, last: Option<&StmtRecord>) -> String {
        let Some(path) = &self.last_incident else {
            return aql_journal::doctor::diagnose_live(&aql_journal::snapshot(), last.map(|r| &r.attr));
        };
        match Incident::load(path) {
            Ok(inc) => format!("incident: {}\n{}", path.display(), aql_journal::doctor::diagnose(&inc)),
            Err(e) => format!("doctor: cannot load {}: {e}", path.display()),
        }
    }
}

/// The `\store` report: for each source label an open lazy-array
/// binding of `vals` reads, the session's totals for it (`totals`, the
/// sum of its finished statements' rows: hits, misses, bytes read, load
/// errors); then one residency line per binding (resident chunks/bytes
/// against its cache budget, and prefetch effectiveness when a
/// read-ahead worker is attached); then the process chunk governor's
/// usage and high-water mark.
pub(crate) fn store(vals: &HashMap<Name, Value>, totals: &[(String, SourceCounts)]) -> String {
    use std::fmt::Write as _;
    let mut names: Vec<&Name> = vals.keys().collect();
    names.sort();
    let (mut labels, mut bindings) = (Vec::new(), String::new());
    for n in names {
        let Some(Value::Array(a)) = vals.get(n) else { continue };
        let Some(info) = a.store_info() else { continue };
        let label = info.label.unwrap_or_else(|| "-".to_string());
        let _ = write!(
            bindings,
            "  {n}  source={label}  chunks={}  bytes={}/{}",
            info.chunks_held, info.bytes_held, info.budget_bytes,
        );
        if let Some(p) = info.prefetch {
            let _ = write!(bindings, "  prefetch issued={} hits={} wasted={}", p.issued, p.hits, p.wasted);
        }
        bindings.push('\n');
        labels.push(label);
    }
    let mut out = match labels.len() {
        0 => "store: no open chunk sources\n".to_string(),
        open => format!("store: {open} open chunk source(s)\n"),
    };
    for (i, label) in labels.iter().enumerate() {
        if labels[..i].contains(label) {
            continue;
        }
        let row = totals.iter().find(|(l, _)| l == label).map(|(_, c)| *c);
        let c = CacheStats::from(row.unwrap_or_default());
        let _ = writeln!(
            out,
            "  {label}  hits={} misses={} read={} errors={}",
            c.hits, c.misses, c.bytes_read, c.load_errors
        );
    }
    let in_use = aql_store::governor::bytes_in_use();
    format!("{out}{bindings}governor: in_use={in_use} peak={}\n", aql_store::governor::peak_bytes())
}
