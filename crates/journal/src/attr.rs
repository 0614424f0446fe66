//! Per-query resource attribution.
//!
//! While a statement runs, the session opens a thread-local ledger
//! ([`begin`]); [`emit`](crate::emit) folds every event into it — each
//! quantity of the event table names the ledger field it lands in
//! (`Fold`) — charging hits/misses/bytes/evictions/retries to the
//! query *and* the source that actually moved them. [`finish`] closes
//! the ledger and resolves labels to strings. [`Ledger::fold`] runs the
//! same fold over a window of ring records, which is how `\doctor`
//! reconstructs cache behavior from an incident file.
//!
//! The hot path is one `Cell<bool>` read when no ledger is open —
//! attribution costs nothing outside a session statement — and a
//! linear probe over a handful of sources when one is. Background
//! threads (the prefetcher's worker) never open a ledger, so their
//! loads are *not* charged to whichever statement happens to be
//! running; warm-pool handovers are charged at consumption time to the
//! owning binding's label as `prefetched_bytes`.

use std::cell::{Cell, RefCell};

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
    /// A field of the source's row (and of the thread totals).
    Source(fn(&mut SourceCounts) -> &mut u64),
    /// The wall time of the phase the event's label names.
    Phase,
    /// The ledger's breaker-trip count.
    Trips,
}

/// A ledger while it is being folded, rows keyed by interned label id.
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

    fn close(self) -> Ledger {
        Ledger {
            sources: self.sources.into_iter().map(|(id, c)| (label_name(id), c)).collect(),
            phases: self.phases.into_iter().map(|(id, ns)| (label_name(id), ns)).collect(),
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
        open.close()
    }
}

thread_local! {
    /// Fast flag: is a ledger open on this thread?
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static OPEN: RefCell<OpenLedger> = RefCell::new(OpenLedger::default());
    /// Everything this thread's sources ever moved, all sources in one
    /// row — `aql_store::stats::global` reads it.
    static TOTALS: Cell<SourceCounts> = const { Cell::new(SourceCounts {
        hits: 0,
        chunks_loaded: 0,
        bytes_read: 0,
        prefetched_bytes: 0,
        evictions: 0,
        load_errors: 0,
        retries: 0,
    }) };
}

/// Is a ledger open on this thread? One `Cell` read.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Open a fresh ledger on this thread, discarding any previous one.
pub fn begin() {
    OPEN.with(|o| *o.borrow_mut() = OpenLedger::default());
    ACTIVE.with(|a| a.set(true));
}

/// Fold `n` of one quantity into this thread's totals and, when one is
/// open, its ledger.
#[inline]
pub(crate) fn add(fold: Fold, label: u16, n: u64) {
    if let Fold::Source(field) = fold {
        TOTALS.with(|t| {
            let mut totals = t.get();
            *field(&mut totals) += n;
            t.set(totals);
        });
    }
    if active() {
        OPEN.with(|o| o.borrow_mut().add(fold, label, n));
    }
}

/// [`add`] of one cache hit, without the indirection: the hit path's
/// share of the fold (see `event::hit`).
#[inline]
pub(crate) fn hit(label: u16) {
    TOTALS.with(|t| t.set(SourceCounts { hits: t.get().hits + 1, ..t.get() }));
    if active() {
        OPEN.with(|o| slot(&mut o.borrow_mut().sources, label).hits += 1);
    }
}

/// This thread's totals over every source since it started: the
/// monotonic aggregate a caller differences around a piece of work.
pub fn totals() -> SourceCounts {
    TOTALS.with(Cell::get)
}

/// Breaker trips the open ledger has seen so far (the session reads it
/// before [`finish`] to decide on a `breaker_trip` incident). Only
/// this thread's events count — a trip on another thread's session is
/// that session's.
pub fn breaker_trips() -> u64 {
    OPEN.with(|o| o.borrow().trips)
}

/// Close this thread's ledger and return it with labels resolved. The
/// caller (the session) fills in the governor high-water mark, which it
/// alone can see.
pub fn finish() -> Ledger {
    ACTIVE.with(|a| a.set(false));
    OPEN.with(|o| std::mem::take(&mut *o.borrow_mut())).close()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{emit, intern, Event};

    #[test]
    fn events_are_dropped_when_no_ledger_is_open() {
        let l = intern("t_attr:closed");
        assert!(!active());
        let before = totals();
        emit(Event::CacheMiss { src: l, bytes: 100 });
        begin();
        let ledger = finish();
        assert!(ledger.sources.is_empty(), "closed-ledger events vanish");
        // … from the ledger; the thread totals always count.
        assert_eq!(totals().bytes_read, before.bytes_read + 100);
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
        assert!(!active(), "finish closes the ledger");
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
