//! Per-query resource attribution.
//!
//! Each thread always has one open attribution row: [`emit`](crate::emit)
//! folds every event into it — each quantity of the event table names
//! the row field it lands in (`Fold`) — charging hits/misses/bytes/
//! evictions/retries to the source that moved them. The session closes
//! the row at a statement's start ([`begin`]) and end ([`finish`]), so
//! a statement's row holds its own events and nothing else. A closed
//! row is added to this thread's sum of closed rows, never discarded:
//! [`totals`], that sum plus the open row, is every event this thread
//! saw, inside a statement or not. [`Ledger::fold`] runs the same fold
//! over ring records, which is how `\doctor` reconstructs cache
//! behavior from an incident file.
//!
//! Every event that lands in a row is emitted on the thread that owns
//! the array: the prefetcher's worker emits only prefetch events, which
//! fold into no row, and a warm-pool handover is charged when consumed.

use std::cell::{Cell, RefCell};
use std::ops::Add;

use aql_trace::json::Json;

use crate::{event, label_name, Record};

/// Per-source tallies for one statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCounts {
    /// Cache hits served from memory.
    pub hits: u64,
    /// Chunks loaded (cache misses, including warm-pool handovers).
    pub chunks_loaded: u64,
    /// Bytes pulled from the source by this statement's own misses.
    pub bytes_read: u64,
    /// Bytes handed over from the prefetcher's warm pool.
    pub prefetched_bytes: u64,
    /// Chunks evicted from this source's cache during the statement.
    pub evictions: u64,
    /// Chunk loads that returned an error.
    pub load_errors: u64,
    /// Read retries spent on this source.
    pub retries: u64,
}

impl Add for SourceCounts {
    type Output = SourceCounts;

    fn add(self, o: SourceCounts) -> SourceCounts {
        SourceCounts {
            hits: self.hits + o.hits,
            chunks_loaded: self.chunks_loaded + o.chunks_loaded,
            bytes_read: self.bytes_read + o.bytes_read,
            prefetched_bytes: self.prefetched_bytes + o.prefetched_bytes,
            evictions: self.evictions + o.evictions,
            load_errors: self.load_errors + o.load_errors,
            retries: self.retries + o.retries,
        }
    }
}

impl SourceCounts {
    /// Total bytes this source moved for the statement.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.prefetched_bytes
    }
}

/// A closed per-statement attribution ledger, labels resolved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Per-source tallies, in first-touch order.
    pub sources: Vec<(String, SourceCounts)>,
    /// Per-phase wall time in nanoseconds, in pipeline order.
    pub phases: Vec<(String, u64)>,
    /// Governor charge high-water mark during the statement, bytes.
    pub governor_peak_bytes: u64,
}

impl Ledger {
    /// The source that moved the most bytes, if any moved at all.
    pub fn dominant_source(&self) -> Option<(&str, &SourceCounts)> {
        self.sources
            .iter()
            .filter(|(_, c)| c.total_bytes() > 0)
            .max_by_key(|(_, c)| c.total_bytes())
            .map(|(l, c)| (l.as_str(), c))
    }

    /// The ledger as a JSON object (incident files, `QueryReport`).
    pub fn to_json_value(&self) -> Json {
        let sources = Json::Arr(
            self.sources
                .iter()
                .map(|(label, c)| {
                    Json::Obj(vec![
                        ("label".to_string(), Json::Str(label.clone())),
                        ("hits".to_string(), Json::Num(c.hits as f64)),
                        ("chunks_loaded".to_string(), Json::Num(c.chunks_loaded as f64)),
                        ("bytes_read".to_string(), Json::Num(c.bytes_read as f64)),
                        (
                            "prefetched_bytes".to_string(),
                            Json::Num(c.prefetched_bytes as f64),
                        ),
                        ("evictions".to_string(), Json::Num(c.evictions as f64)),
                        ("load_errors".to_string(), Json::Num(c.load_errors as f64)),
                        ("retries".to_string(), Json::Num(c.retries as f64)),
                    ])
                })
                .collect(),
        );
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|(name, ns)| {
                    Json::Obj(vec![
                        ("phase".to_string(), Json::Str(name.clone())),
                        ("wall_ns".to_string(), Json::Num(*ns as f64)),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("sources".to_string(), sources),
            ("phases".to_string(), phases),
            (
                "governor_peak_bytes".to_string(),
                Json::Num(self.governor_peak_bytes as f64),
            ),
        ])
    }

    /// Rebuild a ledger from [`Ledger::to_json_value`] output.
    pub fn from_json_value(j: &Json) -> Result<Ledger, String> {
        let num = |o: &Json, k: &str| o.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut ledger = Ledger {
            governor_peak_bytes: num(j, "governor_peak_bytes"),
            ..Ledger::default()
        };
        for s in j.get("sources").and_then(Json::as_arr).unwrap_or(&[]) {
            let label = s
                .get("label")
                .and_then(Json::as_str)
                .ok_or("attribution source: missing label")?
                .to_string();
            ledger.sources.push((
                label,
                SourceCounts {
                    hits: num(s, "hits"),
                    chunks_loaded: num(s, "chunks_loaded"),
                    bytes_read: num(s, "bytes_read"),
                    prefetched_bytes: num(s, "prefetched_bytes"),
                    evictions: num(s, "evictions"),
                    load_errors: num(s, "load_errors"),
                    retries: num(s, "retries"),
                },
            ));
        }
        for p in j.get("phases").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = p
                .get("phase")
                .and_then(Json::as_str)
                .ok_or("attribution phase: missing name")?
                .to_string();
            ledger.phases.push((name, num(p, "wall_ns")));
        }
        Ok(ledger)
    }

    /// Human-readable rendering (the REPL `\attr;` body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.sources.is_empty() {
            out.push_str("sources: (no chunk traffic)\n");
        } else {
            out.push_str("sources:\n");
            for (label, c) in &self.sources {
                let shown = if label.is_empty() { "(unlabeled)" } else { label };
                out.push_str(&format!(
                    "  {shown}: {} hits, {} loaded ({} B read, {} B prefetched), \
                     {} evicted, {} load errors, {} retries\n",
                    c.hits,
                    c.chunks_loaded,
                    c.bytes_read,
                    c.prefetched_bytes,
                    c.evictions,
                    c.load_errors,
                    c.retries
                ));
            }
        }
        if !self.phases.is_empty() {
            out.push_str("phases:\n");
            for (name, ns) in &self.phases {
                out.push_str(&format!("  {name}: {:.3} ms\n", *ns as f64 / 1e6));
            }
        }
        out.push_str(&format!("governor: peak {} B in use\n", self.governor_peak_bytes));
        out
    }
}

/// Where a quantity of the event table lands in a ledger.
#[derive(Clone, Copy)]
pub(crate) enum Fold {
    /// Nowhere: the quantity is counted, not attributed.
    None,
    /// A field of the source's row.
    Source(fn(&mut SourceCounts) -> &mut u64),
    /// The wall time of the phase the event's label names.
    Phase,
    /// The ledger's breaker-trip count.
    Trips,
}

/// A row while it is being folded, keyed by interned label id.
#[derive(Default)]
struct OpenLedger {
    sources: Vec<(u16, SourceCounts)>,
    phases: Vec<(u16, u64)>,
    trips: u64,
}

/// The row keyed `label`, appended (first-touch order) if absent.
#[inline]
fn slot<T: Default>(rows: &mut Vec<(u16, T)>, label: u16) -> &mut T {
    let i = rows.iter().position(|(l, _)| *l == label).unwrap_or(rows.len());
    if i == rows.len() {
        rows.push((label, T::default()));
    }
    &mut rows[i].1
}

impl OpenLedger {
    fn add(&mut self, fold: Fold, label: u16, n: u64) {
        match fold {
            Fold::None => {}
            Fold::Source(field) => *field(slot(&mut self.sources, label)) += n,
            Fold::Phase => *slot(&mut self.phases, label) += n,
            Fold::Trips => self.trips += n,
        }
    }

    /// The row with its labels resolved.
    fn resolved(&self) -> Ledger {
        Ledger {
            sources: self.sources.iter().map(|&(id, c)| (label_name(id), c)).collect(),
            phases: self.phases.iter().map(|&(id, ns)| (label_name(id), ns)).collect(),
            governor_peak_bytes: 0,
        }
    }
}

impl Ledger {
    /// The ledger a window of ring records adds up to: the fold
    /// [`emit`](crate::emit) applies to the open ledger as events
    /// happen, run after the fact. Over the records between a
    /// statement's `StmtBegin` and `StmtEnd` it reproduces that
    /// statement's own ledger (minus the governor high-water mark,
    /// which no event carries).
    pub fn fold(records: &[Record]) -> Ledger {
        let mut open = OpenLedger::default();
        for r in records {
            for &(q, amount) in event::row(r.tag).bumps {
                open.add(q.fold, r.label, amount.of(r.a, r.b));
            }
        }
        open.resolved()
    }
}

thread_local! {
    /// This thread's open row.
    static OPEN: RefCell<OpenLedger> =
        const { RefCell::new(OpenLedger { sources: Vec::new(), phases: Vec::new(), trips: 0 }) };
    /// The sum of this thread's closed rows, all sources in one.
    static CLOSED: Cell<SourceCounts> = Cell::new(SourceCounts::default());
}

/// Close this thread's row into the sum of closed rows and open a
/// fresh one, which keeps the old one's capacity: a hit on a source the
/// last row saw allocates nothing.
pub fn begin() {
    OPEN.with(|o| {
        let mut o = o.borrow_mut();
        CLOSED.set(o.sources.iter().fold(CLOSED.get(), |sum, (_, c)| sum + *c));
        o.sources.clear();
        o.phases.clear();
        o.trips = 0;
    });
}

/// Fold `n` of one quantity into this thread's open row.
#[inline]
pub(crate) fn add(fold: Fold, label: u16, n: u64) {
    OPEN.with(|o| o.borrow_mut().add(fold, label, n));
}

/// [`add`] of one cache hit, without the indirection: the hit path's
/// share of the fold (see `event::hit`).
#[inline]
pub(crate) fn hit(label: u16) {
    OPEN.with(|o| slot(&mut o.borrow_mut().sources, label).hits += 1);
}

/// Everything this thread's sources ever moved, all sources in one row:
/// the closed rows' sum plus the open row. Monotonic, so a caller can
/// difference it around a piece of work.
pub fn totals() -> SourceCounts {
    OPEN.with(|o| o.borrow().sources.iter().fold(CLOSED.get(), |sum, (_, c)| sum + *c))
}

/// Breaker trips the open row has seen so far (the session reads it
/// before [`finish`] to decide on a `breaker_trip` incident). Only
/// this thread's events count — a trip on another thread's session is
/// that session's.
pub fn breaker_trips() -> u64 {
    OPEN.with(|o| o.borrow().trips)
}

/// Close this thread's row, as [`begin`] does, and return it with
/// labels resolved. The caller (the session) fills in the governor
/// high-water mark, which it alone can see.
pub fn finish() -> Ledger {
    let ledger = OPEN.with(|o| o.borrow().resolved());
    begin();
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{emit, intern, Event};

    #[test]
    fn events_between_statements_count_in_the_totals_and_no_statements_row() {
        let l = intern("t_attr:between");
        let before = totals();
        emit(Event::CacheMiss { src: l, bytes: 100 });
        begin();
        let ledger = finish();
        assert!(ledger.sources.is_empty(), "the statement saw none of it");
        assert_eq!(totals().bytes_read, before.bytes_read + 100, "closed, not discarded");
        emit(Event::CacheHit { src: l });
        assert_eq!(totals().hits, before.hits + 1, "the open row counts too");
    }

    #[test]
    fn ledger_accumulates_per_source() {
        let a = intern("t_attr:a");
        let b = intern("t_attr:b");
        begin();
        emit(Event::CacheMiss { src: a, bytes: 4096 });
        for _ in 0..3 {
            emit(Event::CacheHit { src: b });
        }
        emit(Event::Retry { src: a, attempt: 2 });
        emit(Event::Retry { src: a, attempt: 3 });
        emit(Event::BreakerTrip { src: a });
        assert_eq!(breaker_trips(), 1);
        let ledger = finish();
        assert_eq!(ledger.sources.len(), 2);
        assert_eq!(ledger.sources[0].0, "t_attr:a");
        assert_eq!(ledger.sources[0].1.bytes_read, 4096);
        assert_eq!(ledger.sources[0].1.retries, 2);
        assert_eq!(ledger.sources[1].1.hits, 3);
        assert_eq!(ledger.dominant_source().map(|(l, _)| l), Some("t_attr:a"));
        assert_eq!((breaker_trips(), finish().sources.len()), (0, 0), "finish opens a fresh row");
    }

    #[test]
    fn json_round_trips() {
        let mut ledger = Ledger::default();
        ledger.sources.push((
            "netcdf:tas".to_string(),
            SourceCounts {
                hits: 10,
                chunks_loaded: 4,
                bytes_read: 1 << 16,
                prefetched_bytes: 1 << 14,
                evictions: 1,
                load_errors: 0,
                retries: 2,
            },
        ));
        ledger.phases.push(("eval".to_string(), 1_500_000));
        ledger.governor_peak_bytes = 1 << 20;
        let back = Ledger::from_json_value(&ledger.to_json_value()).expect("parse");
        assert_eq!(back, ledger);
    }

    #[test]
    fn render_mentions_every_source_and_phase() {
        let mut ledger = Ledger::default();
        ledger
            .sources
            .push(("mem:x".to_string(), SourceCounts { hits: 1, ..Default::default() }));
        ledger.phases.push(("eval".to_string(), 2_000_000));
        let text = ledger.render();
        assert!(text.contains("mem:x"));
        assert!(text.contains("eval: 2.000 ms"));
        assert!(text.contains("governor: peak 0 B"));
    }
}
