//! What a session reports: views of the statements it finished, and
//! the static reports of the queries it only compiles.
//!
//! [`Session::exec`](crate::session::Session::exec) closes each
//! statement into one record (`StmtRecord`) — its kind, sequence number,
//! hash, wall time, error class, [`EvalStats`] and attribution row —
//! and the session keeps the records of its last `run` in one `Vec`,
//! beside the per-label sum of rows that `\store` prints. Every account
//! of a statement is a function of one record or of that `Vec`:
//! [`QueryReport`] (`\profile`, `\attr`), the slow-query log's line and
//! the incident dump (`Sinks`), `\store` and `\doctor`. [`Explain`],
//! [`AnalyzeReport`] and [`LintReport`] render the pipeline's static
//! half.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use aql_core::eval::EvalStats;
use aql_core::expr::Name;
use aql_core::types::Type;
use aql_core::value::Value;
use aql_journal::attr::{Ledger, SourceCounts};
use aql_journal::incident::{Incident, IncidentKind};
use aql_journal::{emit, ErrorClass, Event};
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
    /// Evaluation counters merged over the statement's evaluations,
    /// cache counters read from `attr`.
    pub(crate) stats: EvalStats,
    /// The statement's attribution row.
    pub(crate) attr: Ledger,
}

/// A machine-readable account of the most recent `Session::run`:
/// per-statement evaluation statistics plus (when collected through
/// `Session::profile`) the full span/counter trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryReport {
    /// One entry per executed statement, in program order. Cache
    /// counters are the statement's attribution row, so reader I/O and
    /// echo-forced loads are attributed to the statement that caused
    /// them.
    pub statements: Vec<EvalStats>,
    /// Per-statement resource attribution ledgers, parallel to
    /// `statements`: bytes and chunks by labeled source, per-phase wall
    /// time, and the governor's peak (see `aql_journal::attr`). Rendered
    /// by the REPL's `\attr;`.
    pub attribution: Vec<Ledger>,
    /// The span tree and counters collected while tracing was on
    /// (empty for an untraced run).
    pub trace: aql_trace::Trace,
    /// A flat snapshot of the **process-lifetime** metrics registry at
    /// report time ([`aql_journal::metrics::snapshot`]): counters and gauges by
    /// series key, histograms as `_count`/`_sum`/`_p50`/`_p95`/`_p99`.
    /// Unlike `statements`, these are cumulative since process start —
    /// the report carries both the per-query and the fleet view.
    pub metrics: Vec<(String, u64)>,
}

impl QueryReport {
    /// The report of `records` with `trace`: the one place a report is
    /// built.
    pub(crate) fn of(records: &[StmtRecord], trace: aql_trace::Trace) -> QueryReport {
        QueryReport {
            statements: records.iter().map(|r| r.stats).collect(),
            attribution: records.iter().map(|r| r.attr.clone()).collect(),
            trace,
            metrics: aql_journal::metrics::snapshot(),
        }
    }

    /// Component-wise sum over all statements.
    pub fn total(&self) -> EvalStats {
        total(self.statements.iter())
    }

    /// The report's span tree as Chrome trace-event JSON
    /// ([`aql_trace::Trace::to_chrome_json`]): loadable directly in
    /// Perfetto or `chrome://tracing`. The REPL's
    /// `\profile … > "file.json";` writes exactly this.
    pub fn to_chrome_json(&self) -> String {
        self.trace.to_chrome_json()
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

/// Component-wise sum of per-statement statistics.
pub(crate) fn total<'a>(stats: impl Iterator<Item = &'a EvalStats>) -> EvalStats {
    stats.fold(EvalStats::default(), |a, s| a.merged(s))
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

/// What a statement's slow-log line and incident dump difference
/// against, read before it runs by the sinks that are on: the
/// optimizer's rule-fire total and the metrics registry.
pub(crate) struct Baseline {
    fires: Option<u64>,
    metrics: Option<Vec<(String, u64)>>,
}

impl Sinks {
    /// Read the baselines the enabled sinks need.
    pub(crate) fn baseline(&self) -> Baseline {
        Baseline {
            fires: self
                .slow_log
                .as_ref()
                .map(|_| aql_journal::metrics::family_total("aql_opt_rule_fires_total")),
            metrics: self.incidents.as_ref().map(|_| aql_journal::metrics::snapshot()),
        }
    }

    /// Report a finished statement: an incident dump if it warrants
    /// one, then a slow-log line if it was slow. `tripped` says whether
    /// a circuit breaker tripped during it.
    pub(crate) fn report(
        &mut self,
        rec: &StmtRecord,
        base: Baseline,
        tripped: bool,
        error: Option<&LangError>,
    ) {
        let incident = self.dump_incident(rec, base.metrics, tripped, error);
        self.log_slow(rec, base.fires, incident.as_deref());
    }

    /// Dump an incident file for `rec`, if the pipeline is on and the
    /// outcome warrants one: errors (with resource exhaustion told
    /// apart), breaker trips observed during the statement, and
    /// slow-threshold crossings. Returns the file's path; dump failures
    /// are swallowed.
    fn dump_incident(
        &mut self,
        rec: &StmtRecord,
        metrics_base: Option<Vec<(String, u64)>>,
        tripped: bool,
        error: Option<&LangError>,
    ) -> Option<PathBuf> {
        let dir = self.incidents.as_ref()?;
        let slow = self.slow_log.as_ref().is_some_and(|l| l.is_slow(rec));
        let kind = match rec.class {
            Some(ErrorClass::ResourceExhausted) => IncidentKind::ResourceExhausted,
            Some(_) => IncidentKind::Error,
            None if tripped => IncidentKind::BreakerTrip,
            None if slow => IncidentKind::Slow,
            None => return None,
        };
        let base = metrics_base.unwrap_or_default();
        let metrics_delta: Vec<(String, u64)> = aql_journal::metrics::snapshot()
            .into_iter()
            .filter_map(|(k, v)| {
                let before = base.iter().find(|(bk, _)| *bk == k).map_or(0, |(_, bv)| *bv);
                (v > before).then(|| (k, v - before))
            })
            .collect();
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
    fn log_slow(&mut self, rec: &StmtRecord, fires_base: Option<u64>, incident: Option<&Path>) {
        let Some(log) = &mut self.slow_log else { return };
        let StmtRecord { kind, seq, dur_ns, ref stats, .. } = *rec;
        if !log.is_slow(rec) {
            return;
        }
        emit(Event::SlowQuery { kind, seq, ns: dur_ns });
        let n = |v: u64| Json::Num(v as f64);
        let obj = |members: Vec<(&str, Json)>| {
            Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let c = &stats.cache;
        let fires = fires_base.map_or(0, |base| {
            aql_journal::metrics::family_total("aql_opt_rule_fires_total").saturating_sub(base)
        });
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
            ("rule_fires", n(fires)),
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
