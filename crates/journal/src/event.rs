//! The telemetry spine: one [`Event`], one [`emit`], every view.
//!
//! An instrumented site says what happened; the tables below say where
//! that lands. Each **quantity** is one named number as all the
//! counting views see it — its `aql-trace` counter, its `aql-metrics`
//! family (with help text and, where it has one, a per-label series)
//! and the attribution-ledger field it folds into. Each **event kind**
//! moves some quantities, by some amount. The kinds the flight
//! recorder keeps are the [`Tag`]s, one row of `TABLE` each (wire name,
//! quantities); the kinds that are only counted name their quantities
//! where `Event::parts` maps them. [`emit`] walks the row;
//! [`Ledger::fold`] walks the same row over ring records after the
//! fact, so the live ledger and the doctor's reconstruction cannot
//! drift apart.
//!
//! **Adding an event:** one [`Event`] variant and its arm in
//! `Event::parts`; if the ring should keep it, one [`Tag`] number
//! appended and one `TABLE` row; a quantity if it counts something
//! new. No call site learns a counter name.
//!
//! [`Ledger::fold`]: crate::attr::Ledger::fold

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

use aql_metrics::{Counter, Gauge, Histogram};

use crate::attr::{self, Fold};
use crate::{intern, label_name, Tag};

/// Something that happened, as the site that saw it describes it.
/// `src` is the interned label of the chunk source involved
/// ([`intern`]; 0 = unlabeled), `seq` the session's statement sequence
/// number, `ns` a wall time in nanoseconds; names from closed sets
/// (statement kinds, phases, outcome classes, fault kinds) travel as
/// `&'static str` and are interned on the way in.
#[allow(missing_docs)] // each variant's line names its fields
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A statement of `kind` (`val`, `query`, …) with FNV-1a `hash` started.
    StmtBegin { kind: &'static str, seq: u64, hash: u64 },
    /// A statement finished after `ns`; `outcome` is `ok` or an error class.
    StmtEnd { outcome: &'static str, seq: u64, ns: u64 },
    /// The statement that just ended returned an error.
    StmtFailed,
    /// The error was the rewrite-soundness gate rejecting the statement.
    StmtUnsound,
    /// One run of pipeline phase `phase` (`parse`, `eval`, …) took `ns`.
    Phase { phase: &'static str, ns: u64 },
    /// A statement crossed the slow-query threshold.
    SlowQuery { kind: &'static str, seq: u64, ns: u64 },
    /// An incident file of `kind` (`error`, `slow`, …) was written.
    Incident { kind: &'static str, seq: u64 },
    /// `Session::lint` reported `n` findings.
    LintFindings { n: u64 },
    /// A lookup was served from the cache.
    CacheHit { src: u16 },
    /// A miss read `bytes` from the source.
    CacheMiss { src: u16, bytes: u64 },
    /// A miss took `bytes` over from the prefetch warm pool.
    CacheWarm { src: u16, bytes: u64 },
    /// A chunk was evicted.
    CacheEvict { src: u16 },
    /// A miss whose loader returned an error.
    CacheLoadError { src: u16 },
    /// A chunk read is about to be retried as `attempt` (2 = first retry).
    Retry { src: u16, attempt: u64 },
    /// A payload failed checksum verification (the read is retried).
    ChecksumMismatch { src: u16 },
    /// The source's circuit breaker tripped open.
    BreakerTrip { src: u16 },
    /// A half-open probe was admitted.
    BreakerProbe { src: u16 },
    /// A call was rejected while the breaker was open.
    BreakerFastFail { src: u16 },
    /// A tripped breaker closed again after a successful call.
    BreakerClose { src: u16 },
    /// The governor shed a cache entry to fit the process budget.
    GovernorShed,
    /// The governor denied a charge of `requested` bytes.
    GovernorDeny { requested: u64 },
    /// The process byte budget was set to `bytes` (`u64::MAX` = unlimited).
    GovernorBudget { bytes: u64 },
    /// The governor's high-water mark was read as `bytes`.
    GovernorPeak { bytes: u64 },
    /// `n` speculative chunk loads were queued.
    PrefetchIssued { src: u16, n: u64 },
    /// A miss was served from the warm pool.
    PrefetchHit,
    /// A prefetched chunk was discarded unconsumed.
    PrefetchWasted { src: u16 },
    /// The chaos harness injected a fault (`transient`, `corrupt`, …).
    FaultInjected { kind: &'static str },
    /// A hyperslab read was requested of a NetCDF source.
    NetcdfHyperslab,
}

/// One quantity an event kind moves, and by how much of the event.
pub(crate) type Bump = (&'static Quantity, Amount);

/// What the views do with an event kind.
enum Kind {
    /// The flight recorder keeps it: a ring record under this tag, and
    /// the quantities of the tag's `TABLE` row.
    Kept(Tag),
    /// Counted only: this one quantity, no ring record.
    Counted(&'static Quantity, Amount),
}

impl Event {
    /// The event's kind and the generic `(label, a, b)` payload a ring
    /// record holds (meanings per [`Tag`]).
    fn parts(self) -> (Kind, u16, u64, u64) {
        use Kind::{Counted, Kept};
        match self {
            Event::StmtBegin { kind, seq, hash } => (Kept(Tag::StmtBegin), intern(kind), seq, hash),
            Event::StmtEnd { outcome, seq, ns } => (Kept(Tag::StmtEnd), intern(outcome), seq, ns),
            Event::Phase { phase, ns } => (Kept(Tag::Phase), intern(phase), ns, 0),
            Event::SlowQuery { kind, seq, ns } => (Kept(Tag::SlowQuery), intern(kind), seq, ns),
            Event::Incident { kind, seq } => (Kept(Tag::Incident), intern(kind), seq, 0),
            Event::CacheHit { src } => (Kept(Tag::CacheHit), src, 1, 0),
            Event::CacheMiss { src, bytes } => (Kept(Tag::CacheMiss), src, bytes, 0),
            Event::CacheWarm { src, bytes } => (Kept(Tag::CacheWarm), src, bytes, 0),
            Event::CacheEvict { src } => (Kept(Tag::CacheEvict), src, 1, 0),
            Event::CacheLoadError { src } => (Kept(Tag::CacheLoadError), src, 1, 0),
            Event::Retry { src, attempt } => (Kept(Tag::Retry), src, attempt, 0),
            Event::ChecksumMismatch { src } => (Kept(Tag::ChecksumMismatch), src, 0, 0),
            Event::BreakerTrip { src } => (Kept(Tag::BreakerTrip), src, 0, 0),
            Event::BreakerProbe { src } => (Kept(Tag::BreakerProbe), src, 0, 0),
            Event::BreakerFastFail { src } => (Kept(Tag::BreakerFastFail), src, 0, 0),
            Event::GovernorShed => (Kept(Tag::GovernorShed), 0, 0, 0),
            Event::GovernorDeny { requested } => (Kept(Tag::GovernorDeny), 0, requested, 0),
            Event::PrefetchIssued { src, n } => (Kept(Tag::PrefetchIssued), src, n, 0),
            Event::PrefetchWasted { src } => (Kept(Tag::PrefetchWasted), src, 1, 0),
            Event::StmtFailed => (Counted(&SESSION_ERRORS, One), 0, 0, 0),
            Event::StmtUnsound => (Counted(&SESSION_UNSOUND, One), 0, 0, 0),
            Event::LintFindings { n } => (Counted(&LINT_FINDINGS, A), 0, n, 0),
            Event::BreakerClose { src } => (Counted(&BREAKER_CLOSES, One), src, 0, 0),
            Event::GovernorBudget { bytes } => (Counted(&GOVERNOR_BUDGET, A), 0, bytes, 0),
            Event::GovernorPeak { bytes } => (Counted(&GOVERNOR_PEAK, A), 0, bytes, 0),
            Event::PrefetchHit => (Counted(&PREFETCH_HITS, One), 0, 0, 0),
            Event::FaultInjected { kind } => (Counted(&FAULTS_INJECTED, One), intern(kind), 0, 0),
            Event::NetcdfHyperslab => (Counted(&NETCDF_HYPERSLABS, One), 0, 0, 0),
        }
    }
}

/// Record `ev` in every view its kind names: trace counters on the
/// innermost open span, process metrics, this thread's totals and open
/// attribution ledger, and — for the kinds the flight recorder keeps —
/// one ring record (cache hits coalesce into a pending count instead).
/// No lock and no allocation once a quantity's metric handle is
/// resolved, which its first use does.
#[inline]
pub fn emit(ev: Event) {
    match ev {
        Event::CacheHit { src } => hit(src),
        ev => walk(ev),
    }
}

/// [`emit`] of one cache hit: the `cache_hit` row applied by hand. A
/// resident chunk is read in tens of nanoseconds and this is the one
/// event emitted per read, so the table walk itself would show; every
/// name and handle still comes from the row's quantity.
#[inline]
fn hit(src: u16) {
    aql_trace::count(HITS.trace, 1);
    HITS.plain().record(1);
    attr::hit(src);
    crate::coalesce_hit(src);
}

fn walk(ev: Event) {
    let (kind, label, a, b) = ev.parts();
    let counted;
    let bumps = match kind {
        Kind::Kept(tag) => row(tag).bumps,
        Kind::Counted(q, amount) => {
            counted = [(q, amount)];
            &counted[..]
        }
    };
    for &(q, amount) in bumps {
        let n = amount.of(a, b);
        q.count(label, n);
        attr::add(q.fold, label, n);
    }
    if let Kind::Kept(tag) = kind {
        crate::record(tag, label, a, b);
    }
}

// ---- quantities ------------------------------------------------------

/// A resolved `aql-metrics` series.
#[derive(Clone, Copy)]
enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Handle {
    fn counter(family: &str, labels: &[(&str, &str)], help: &str) -> Handle {
        Handle::Counter(aql_metrics::counter_with(family, labels, help))
    }

    fn gauge(family: &str, _labels: &[(&str, &str)], help: &str) -> Handle {
        Handle::Gauge(aql_metrics::gauge(family, help))
    }

    fn histogram(family: &str, labels: &[(&str, &str)], help: &str) -> Handle {
        Handle::Histogram(aql_metrics::histogram_with(family, labels, help))
    }

    #[inline]
    fn record(self, n: u64) {
        match self {
            Handle::Counter(c) => c.add(n),
            // `u64::MAX` is how the governor spells "unlimited".
            Handle::Gauge(g) => g.set(i64::try_from(n).unwrap_or(-1)),
            Handle::Histogram(h) => h.observe(n),
        }
    }
}

/// One named number, as every counting view sees it.
pub(crate) struct Quantity {
    /// `aql-trace` counter name; `""` = not traced. A name ending in
    /// `:` is completed with the event's label (`breaker.trip:<src>`).
    trace: &'static str,
    /// `aql-metrics` family; `""` = not exported.
    family: &'static str,
    help: &'static str,
    resolve: fn(&str, &[(&str, &str)], &str) -> Handle,
    /// Key of the per-label series (`source`, `kind`, `phase`) fed
    /// when the event carries a label; `""` = none.
    by: &'static str,
    /// Whether the unlabeled series exists.
    plain: bool,
    /// Where the quantity lands in the attribution ledger.
    pub(crate) fold: Fold,
    handle: OnceLock<Handle>,
}

thread_local! {
    /// Per-label series this thread has resolved: `(quantity, label)`.
    static LABELED: RefCell<HashMap<(usize, u16), Handle>> = RefCell::new(HashMap::new());
}

impl Quantity {
    const fn new(trace: &'static str, family: &'static str, help: &'static str) -> Quantity {
        Quantity {
            trace,
            family,
            help,
            resolve: Handle::counter,
            by: "",
            plain: true,
            fold: Fold::None,
            handle: OnceLock::new(),
        }
    }

    const fn gauge(family: &'static str, help: &'static str) -> Quantity {
        let mut q = Quantity::new("", family, help);
        q.resolve = Handle::gauge;
        q
    }

    const fn histogram(family: &'static str, help: &'static str) -> Quantity {
        let mut q = Quantity::new("", family, help);
        q.resolve = Handle::histogram;
        q
    }

    /// Also feed a `{key="<label>"}` series of the same family.
    const fn by(mut self, key: &'static str) -> Quantity {
        self.by = key;
        self
    }

    /// Feed only the `{key="<label>"}` series.
    const fn only_by(mut self, key: &'static str) -> Quantity {
        self.plain = false;
        self.by(key)
    }

    const fn fold(mut self, fold: Fold) -> Quantity {
        self.fold = fold;
        self
    }

    const fn source(self, field: fn(&mut attr::SourceCounts) -> &mut u64) -> Quantity {
        self.fold(Fold::Source(field))
    }

    /// The unlabeled series, resolved on first use.
    #[inline]
    fn plain(&'static self) -> Handle {
        *self.handle.get_or_init(|| (self.resolve)(self.family, &[], self.help))
    }

    /// Add `n` to the trace counter and the metric series.
    fn count(&'static self, label: u16, n: u64) {
        if !self.trace.is_empty() && aql_trace::enabled() {
            if self.trace.ends_with(':') {
                aql_trace::count_with(|| format!("{}{}", self.trace, label_name(label)), n);
            } else {
                aql_trace::count(self.trace, n);
            }
        }
        if self.family.is_empty() {
            return;
        }
        if self.plain {
            self.plain().record(n);
        }
        if !self.by.is_empty() && label != 0 {
            let key = (self as *const Quantity as usize, label);
            let handle = LABELED.with(|m| {
                *m.borrow_mut().entry(key).or_insert_with(|| {
                    (self.resolve)(self.family, &[(self.by, &label_name(label))], self.help)
                })
            });
            handle.record(n);
        }
    }
}

/// The quantities, one per entry: trace counter, metric family and help
/// text, then how the series is labelled and where the number folds.
macro_rules! quantities {
    ($($(#[$doc:meta])* $name:ident = $new:ident($($arg:expr),*) $(.$with:ident($to:expr))*;)*) => {
        $($(#[$doc])* static $name: Quantity = Quantity::$new($($arg),*)$(.$with($to))*;)*
    };
}

quantities! {
    HITS = new("cache.hits", "aql_store_cache_hits_total",
        "Chunk-cache lookups served from memory.").source(|c| &mut c.hits);
    MISSES = new("cache.misses", "aql_store_cache_misses_total",
        "Chunk-cache lookups that consulted the chunk source.");
    /// Misses that produced a chunk (from the source or the warm pool).
    LOADED = new("", "", "").source(|c| &mut c.chunks_loaded);
    EVICTIONS = new("cache.evictions", "aql_store_cache_evictions_total",
        "Chunks evicted to stay under the byte budget.").source(|c| &mut c.evictions);
    BYTES_READ = new("cache.bytes_read", "aql_store_cache_bytes_read_total",
        "Payload bytes loaded from chunk sources on misses.")
        .by("source").source(|c| &mut c.bytes_read);
    PREFETCHED_BYTES = new("cache.prefetched_bytes", "aql_store_cache_prefetched_bytes_total",
        "Payload bytes handed over from prefetch warm pools on misses.")
        .by("source").source(|c| &mut c.prefetched_bytes);
    LOAD_ERRORS = new("cache.load_errors", "aql_store_cache_load_errors_total",
        "Chunk-loader invocations that returned an error.")
        .by("source").source(|c| &mut c.load_errors);
    RETRIES = new("chunks.retries", "aql_store_resilience_retries_total",
        "Chunk reads retried after a retryable failure.").source(|c| &mut c.retries);
    CHECKSUM_MISMATCHES = new("chunks.checksum_mismatch", "aql_store_checksum_mismatch_total",
        "Chunk payloads rejected because their checksum disagreed with the source's.");
    BREAKER_TRIPS = new("breaker.trip:", "aql_store_breaker_trips_total",
        "Circuit breakers tripped open after consecutive source failures.").fold(Fold::Trips);
    BREAKER_PROBES = new("breaker.probe:", "aql_store_breaker_probes_total",
        "Half-open probes admitted after a breaker cool-down.");
    BREAKER_FAST_FAILS = new("breaker.fast_fail:", "aql_store_breaker_fast_fails_total",
        "Chunk reads rejected without touching the source (breaker open).");
    BREAKER_CLOSES = new("breaker.close:", "", "");
    GOVERNOR_SHEDS = new("governor.sheds", "aql_store_governor_sheds_total",
        "Cache entries evicted to make room under the process byte budget.").fold(Fold::Sheds);
    GOVERNOR_DENIALS = new("governor.denials", "aql_store_governor_denials_total",
        "Byte-budget charges denied after shedding (surfaced as ResourceExhausted).")
        .fold(Fold::Denials);
    GOVERNOR_BUDGET = gauge("aql_store_governor_budget_bytes",
        "Configured process-wide chunk-memory budget (-1 = unlimited).");
    GOVERNOR_PEAK = gauge("aql_store_governor_peak_bytes",
        "High-water mark of governed chunk-memory bytes.");
    PREFETCH_ISSUED = new("prefetch.issued", "aql_store_prefetch_issued_total",
        "Chunk loads requested speculatively by the read-ahead predictor.");
    PREFETCH_HITS = new("prefetch.hits", "aql_store_prefetch_hits_total",
        "Chunk misses served from the prefetch warm pool instead of the source.");
    PREFETCH_WASTED = new("", "aql_store_prefetch_wasted_total",
        "Speculatively loaded chunks discarded without ever being consumed.");
    FAULTS_INJECTED = new("chaos.injected:", "aql_store_chaos_injected_total",
        "Faults injected by FaultyChunkSource (errors, corruption, latency).");
    NETCDF_HYPERSLABS = new("netcdf.hyperslab_requests", "aql_netcdf_hyperslab_requests_total",
        "Hyperslab read requests issued to NetCDF sources.");
    STATEMENTS = new("", "aql_session_statements_total",
        "Statements executed, by statement kind.").only_by("kind");
    STATEMENT_NS = histogram("aql_session_statement_ns",
        "End-to-end statement latency in nanoseconds (log2 buckets).");
    PHASE_NS = histogram("aql_session_phase_ns",
        "Pipeline phase latency in nanoseconds, by phase (log2 buckets).")
        .only_by("phase").fold(Fold::Phase);
    SESSION_ERRORS = new("", "aql_session_errors_total",
        "Statements that failed with any session error.");
    SESSION_UNSOUND = new("", "aql_session_unsound_total",
        "Statements rejected by the rewrite-soundness gate.");
    SLOW_QUERIES = new("", "aql_session_slow_queries_total",
        "Statements whose wall time exceeded the slow-query threshold.");
    LINT_FINDINGS = new("", "aql_session_lint_findings_total",
        "Shape/bounds lint findings reported by Session::lint.");
}

// ---- event kinds -----------------------------------------------------

/// How much of an event a quantity takes.
#[derive(Clone, Copy)]
pub(crate) enum Amount {
    /// One per event.
    One,
    /// The record's `a` payload (bytes, a count, a duration).
    A,
    /// The record's `b` payload.
    B,
}

impl Amount {
    #[inline]
    pub(crate) fn of(self, a: u64, b: u64) -> u64 {
        match self {
            Amount::One => 1,
            Amount::A => a,
            Amount::B => b,
        }
    }
}

use Amount::{One, A, B};

/// One kind the flight recorder keeps: its identity on the wire and
/// what it moves.
pub(crate) struct Row {
    pub(crate) tag: Tag,
    /// Stable wire/JSON name.
    pub(crate) name: &'static str,
    pub(crate) bumps: &'static [Bump],
}

const fn kept(tag: Tag, name: &'static str, bumps: &'static [Bump]) -> Row {
    Row { tag, name, bumps }
}

/// The kept kinds, in [`Tag`] order (`TABLE[tag - 1]`).
pub(crate) static TABLE: [Row; 19] = [
    kept(Tag::StmtBegin, "stmt_begin", &[(&STATEMENTS, One)]),
    kept(Tag::StmtEnd, "stmt_end", &[(&STATEMENT_NS, B)]),
    kept(Tag::Phase, "phase", &[(&PHASE_NS, A)]),
    kept(Tag::CacheHit, "cache_hit", &[(&HITS, A)]),
    kept(Tag::CacheMiss, "cache_miss", &[(&MISSES, One), (&LOADED, One), (&BYTES_READ, A)]),
    kept(Tag::CacheWarm, "cache_warm", &[(&MISSES, One), (&LOADED, One), (&PREFETCHED_BYTES, A)]),
    kept(Tag::CacheEvict, "cache_evict", &[(&EVICTIONS, A)]),
    kept(Tag::CacheLoadError, "cache_load_error", &[(&MISSES, One), (&LOAD_ERRORS, One)]),
    kept(Tag::GovernorShed, "governor_shed", &[(&GOVERNOR_SHEDS, One)]),
    kept(Tag::GovernorDeny, "governor_deny", &[(&GOVERNOR_DENIALS, One)]),
    kept(Tag::Retry, "retry", &[(&RETRIES, One)]),
    kept(Tag::BreakerTrip, "breaker_trip", &[(&BREAKER_TRIPS, One)]),
    kept(Tag::BreakerProbe, "breaker_probe", &[(&BREAKER_PROBES, One)]),
    kept(Tag::BreakerFastFail, "breaker_fast_fail", &[(&BREAKER_FAST_FAILS, One)]),
    kept(Tag::PrefetchIssued, "prefetch_issued", &[(&PREFETCH_ISSUED, A)]),
    kept(Tag::PrefetchWasted, "prefetch_wasted", &[(&PREFETCH_WASTED, A)]),
    kept(Tag::SlowQuery, "slow_query", &[(&SLOW_QUERIES, One)]),
    kept(Tag::Incident, "incident", &[]),
    kept(Tag::ChecksumMismatch, "checksum_mismatch", &[(&CHECKSUM_MISMATCHES, One)]),
];

/// The table row of a kept kind.
#[inline]
pub(crate) fn row(tag: Tag) -> &'static Row {
    &TABLE[tag as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{snapshot, Record};

    /// One event of every variant (the `match` in `Event::parts` is
    /// what makes the table total; this list is what exercises it).
    fn one_of_each(src: u16) -> Vec<Event> {
        vec![
            Event::StmtBegin { kind: "query", seq: 1, hash: 2 },
            Event::Phase { phase: "eval", ns: 5 },
            Event::StmtEnd { outcome: "ok", seq: 1, ns: 9 },
            Event::StmtFailed,
            Event::StmtUnsound,
            Event::SlowQuery { kind: "query", seq: 1, ns: 9 },
            Event::Incident { kind: "slow", seq: 1 },
            Event::LintFindings { n: 2 },
            Event::CacheHit { src },
            Event::CacheMiss { src, bytes: 64 },
            Event::CacheWarm { src, bytes: 32 },
            Event::CacheEvict { src },
            Event::CacheLoadError { src },
            Event::Retry { src, attempt: 2 },
            Event::ChecksumMismatch { src },
            Event::BreakerTrip { src },
            Event::BreakerProbe { src },
            Event::BreakerFastFail { src },
            Event::BreakerClose { src },
            Event::GovernorShed,
            Event::GovernorDeny { requested: 128 },
            Event::GovernorBudget { bytes: u64::MAX },
            Event::GovernorPeak { bytes: 4096 },
            Event::PrefetchIssued { src, n: 3 },
            Event::PrefetchHit,
            Event::PrefetchWasted { src },
            Event::FaultInjected { kind: "transient" },
            Event::NetcdfHyperslab,
        ]
    }

    #[test]
    fn table_is_total_ordered_and_uniquely_named() {
        for (i, r) in TABLE.iter().enumerate() {
            assert_eq!(r.tag as usize, i + 1, "TABLE is in tag order: {}", r.name);
            assert_eq!(Tag::from_u8(r.tag as u8), Some(r.tag));
            assert_eq!(Tag::from_name(r.name), Some(r.tag), "names are unique: {}", r.name);
            assert_eq!(r.tag.name(), r.name);
        }
        // Every kept kind is some variant's, so no row is unreachable.
        let mut quantities: Vec<&Quantity> = Vec::new();
        let mut kept: Vec<u8> = Vec::new();
        for ev in one_of_each(0) {
            match ev.parts().0 {
                Kind::Kept(tag) => {
                    kept.push(tag as u8);
                    quantities.extend(row(tag).bumps.iter().map(|&(q, _)| q));
                }
                Kind::Counted(q, _) => quantities.push(q),
            }
        }
        kept.sort_unstable();
        assert_eq!(kept, (1..=TABLE.len() as u8).collect::<Vec<_>>());
        // Exported names are unique too: one quantity per trace
        // counter and per metric family.
        quantities.sort_by_key(|q| *q as *const Quantity as usize);
        quantities.dedup_by_key(|q| *q as *const Quantity as usize);
        for names in [
            quantities.iter().map(|q| q.trace).filter(|n| !n.is_empty()).collect::<Vec<_>>(),
            quantities.iter().map(|q| q.family).filter(|n| !n.is_empty()).collect::<Vec<_>>(),
        ] {
            let mut unique = names.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), names.len(), "{names:?}");
        }
    }

    #[test]
    fn one_event_lands_in_every_view_its_row_names() {
        let src = intern("t_event:views");
        let family = |name: &str| aql_metrics::family_total(name);
        let (misses0, bytes0) =
            (family("aql_store_cache_misses_total"), family("aql_store_cache_bytes_read_total"));
        let totals0 = attr::totals();
        aql_trace::enable();
        attr::begin();
        emit(Event::CacheHit { src });
        emit(Event::CacheHit { src });
        emit(Event::CacheMiss { src, bytes: 4096 });
        emit(Event::BreakerTrip { src });
        let ledger = attr::finish();
        let trace = aql_trace::disable();
        // Trace counters, under their own names (per-source ones
        // completed with the label).
        assert_eq!(trace.total_counter("cache.hits"), 2);
        assert_eq!(trace.total_counter("cache.misses"), 1);
        assert_eq!(trace.total_counter("cache.bytes_read"), 4096);
        assert_eq!(trace.total_counter("breaker.trip:t_event:views"), 1);
        // Metrics: the plain series and the per-source one. `>=`:
        // other tests in this binary emit misses too.
        assert!(family("aql_store_cache_misses_total") > misses0);
        assert!(family("aql_store_cache_bytes_read_total") >= bytes0 + 2 * 4096);
        let labeled = aql_metrics::counter_with(
            "aql_store_cache_bytes_read_total",
            &[("source", "t_event:views")],
            "",
        );
        assert_eq!(labeled.get(), 4096);
        // Thread totals and the open ledger.
        let d = attr::totals();
        assert_eq!(d.chunks_loaded - totals0.chunks_loaded, 1);
        assert_eq!(d.bytes_read - totals0.bytes_read, 4096);
        assert_eq!(d.hits - totals0.hits, 2);
        let (_, row) = &ledger.sources[0];
        assert_eq!((row.hits, row.chunks_loaded, row.bytes_read), (2, 1, 4096));
        // The ring — the two hits coalesced into one record — and the
        // same fold run over it: the hit path applies its row by hand,
        // the fold walks the table, and they agree.
        let mine: Vec<Record> =
            snapshot().events.into_iter().filter(|r| r.label == src).collect();
        assert_eq!(
            mine.iter().map(|r| (r.tag, r.a)).collect::<Vec<_>>(),
            vec![(Tag::CacheHit, 2), (Tag::CacheMiss, 4096), (Tag::BreakerTrip, 0)]
        );
        assert_eq!(attr::Ledger::fold(&mine).sources, ledger.sources);
    }

    #[test]
    fn counted_kinds_stay_out_of_the_ring() {
        let src = intern("t_event:counted");
        emit(Event::BreakerClose { src });
        emit(Event::FaultInjected { kind: "t_event:kind" });
        let kind = intern("t_event:kind");
        assert!(!snapshot().events.iter().any(|r| r.label == src || r.label == kind));
        assert!(aql_metrics::family_total("aql_store_chaos_injected_total") >= 1);
    }
}
