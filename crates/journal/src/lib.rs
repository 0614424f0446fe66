//! # aql-journal — the always-on flight recorder
//!
//! The always-on half of the observability stack (DESIGN.md §14):
//! where `aql-trace` describes *one profiled query* in full detail,
//! and only when asked, this crate keeps a bounded record of **recent
//! activity** — near-zero cost, and readable after the fact — and, in
//! its [`metrics`] module, the *process-lifetime aggregates* and the
//! HTTP endpoint that serves both. When a statement fails or blows its
//! latency budget, the journal is the black box
//! that explains what the engine was doing in the moments before.
//!
//! ## Design
//!
//! * **Per-thread ring buffers.** Each thread that records gets its
//!   own fixed-capacity ring of slots; the write path is single-writer
//!   and therefore lock-free — no CAS loop, no shared tail pointer.
//!   A process-wide registry of rings lets [`snapshot`] fold every
//!   thread's events into one [`Journal`].
//! * **Seqlock slots.** Every slot carries a sequence word (odd while
//!   a write is in flight, `2 × epoch` when stable). Readers copy the
//!   payload and re-check the sequence, so a concurrent snapshot can
//!   never observe a torn record — it simply skips slots that moved
//!   under it.
//! * **Epoch-stamped, fixed-size records.** A slot holds a record as
//!   four words — `tag << 16 | label`, `t_us`, `a`, `b` — stored as
//!   they are; the per-thread epoch is the slot sequence, so ordering
//!   within a thread is exact even when the wall clock ties.
//! * **Oldest-first overflow.** The ring overwrites the oldest record
//!   when full; every overwrite increments the per-ring drop counter
//!   and the exported `aql_journal_dropped_total` metric.
//! * **Interned labels.** Event labels (source labels, phase names,
//!   statement kinds, outcome classes) come from small closed sets and
//!   are interned once into a process-wide table; records carry a
//!   16-bit id. The same cardinality rules as [`metrics`] apply:
//!   never intern query text or user-controlled strings.
//!
//! ## The telemetry spine
//!
//! The store, the NetCDF driver and the session do not write the ring
//! themselves: they describe what happened as an [`Event`] and hand it
//! to [`emit`], the one function that knows which views an event
//! lands in — process metric, ring record, attribution ledger — and
//! under what name (see [`event`] and DESIGN.md
//! "Telemetry spine").
//!
//! ## Overhead contract
//!
//! Recording is a handful of relaxed stores into this thread's own
//! ring — no locks, no allocation. Cache *hits* (the hottest call site) are coalesced per
//! thread and flushed as one `CacheHit` record with a count, so the
//! hit path pays only a `Cell` bump; `tests/emit_cost.rs` holds
//! `emit(CacheHit)` to zero allocations and zero lock acquisitions.

#![warn(missing_docs)]

pub mod attr;
pub mod doctor;
pub mod event;
pub mod incident;
pub mod metrics;

pub use event::{emit, Event};
pub use incident::ErrorClass;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use aql_trace::json::Json;

/// Hard cap on the interned-label table, enforcing the closed-set
/// cardinality rule; overflowing labels collapse to id 0 (`""`).
const MAX_LABELS: usize = 4096;

/// Per-thread ring capacity, in records.
pub const DEFAULT_CAPACITY: usize = 4096;

static M_DROPPED: metrics::LazyCounter = metrics::LazyCounter::new(
    "aql_journal_dropped_total",
    "Journal records overwritten (oldest-first) before being read.",
);

// ---- event vocabulary ------------------------------------------------

/// What happened. Together with the generic `label`/`a`/`b` payload
/// this is the whole event vocabulary; see each variant for how the
/// payload fields are used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Tag {
    /// Statement started: `label` = statement kind, `a` = statement
    /// sequence number, `b` = FNV-1a statement hash.
    StmtBegin = 1,
    /// Statement finished: `label` = outcome (`ok` or an error
    /// class), `a` = statement sequence number, `b` = duration in ns.
    StmtEnd = 2,
    /// Pipeline phase completed: `label` = phase name, `a` = duration
    /// in ns.
    Phase = 3,
    /// Coalesced cache hits: `label` = source, `a` = hit count.
    CacheHit = 4,
    /// Cache miss served from the source: `label` = source,
    /// `a` = payload bytes read.
    CacheMiss = 5,
    /// Cache miss served from the prefetch warm pool: `label` =
    /// source, `a` = payload bytes handed over.
    CacheWarm = 6,
    /// Chunks evicted: `label` = source, `a` = eviction count.
    CacheEvict = 7,
    /// Chunk loader returned an error: `label` = source.
    CacheLoadError = 8,
    /// Chunk read retried: `label` = source, `a` = attempt number.
    Retry = 9,
    /// Speculative loads queued: `label` = source, `a` = count.
    PrefetchIssued = 10,
    /// Prefetched chunks discarded unconsumed: `label` = source,
    /// `a` = count.
    PrefetchWasted = 11,
    /// Statement crossed the slow-query threshold: `a` = statement
    /// sequence number, `b` = duration in ns.
    SlowQuery = 12,
    /// An incident file was written: `label` = incident kind,
    /// `a` = statement sequence number.
    Incident = 13,
    /// A chunk payload failed checksum verification (the read is
    /// retried; see [`Tag::Retry`]): `label` = source.
    ChecksumMismatch = 14,
}

/// Wire names of kinds the ring no longer keeps, which older incident
/// files still carry: a journal loads without them.
const RETIRED_TAGS: [&str; 3] = ["breaker_trip", "breaker_probe", "breaker_fast_fail"];

impl Tag {
    /// The tag's stable wire/JSON name.
    pub fn name(self) -> &'static str {
        event::row(self).name
    }

    /// Decode a wire byte back into a tag.
    pub fn from_u8(v: u8) -> Option<Tag> {
        event::TABLE.get((v as usize).wrapping_sub(1)).map(|r| r.tag)
    }

    /// Parse a JSON name back into a tag.
    pub fn from_name(name: &str) -> Option<Tag> {
        event::TABLE.iter().find(|r| r.name == name).map(|r| r.tag)
    }
}

// ---- label interning -------------------------------------------------

/// The labels this thread has interned or resolved, both ways round.
#[derive(Default)]
struct Known {
    ids: HashMap<Rc<str>, u16>,
    names: HashMap<u16, Rc<str>>,
}

thread_local! {
    /// This thread's view of the label table, so a label it has seen
    /// before is interned and resolved without the table's lock.
    static KNOWN: RefCell<Known> = RefCell::new(Known::default());
    static LOCKS: Cell<u64> = const { Cell::new(0) };
}

fn remember(label: &str, id: u16) {
    let label: Rc<str> = label.into();
    KNOWN.with(|k| {
        let mut k = k.borrow_mut();
        k.ids.insert(Rc::clone(&label), id);
        k.names.insert(id, label);
    });
}

/// Locks this thread has taken inside the telemetry stack: the label
/// table, the ring registry and the metrics registry. Test hook.
#[doc(hidden)]
pub fn lock_count() -> u64 {
    LOCKS.with(Cell::get) + metrics::registry_locks()
}

fn labels() -> MutexGuard<'static, Vec<String>> {
    static LABELS: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    LOCKS.with(|c| c.set(c.get() + 1));
    LABELS
        .get_or_init(|| Mutex::new(vec![String::new()]))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Intern `label` into the process-wide table, returning its id. Id 0
/// is the empty label. The table is capped (4096 entries) to enforce
/// the closed-set cardinality rule; past the cap every new label
/// collapses to 0.
pub fn intern(label: &str) -> u16 {
    if label.is_empty() {
        return 0;
    }
    if let Some(id) = KNOWN.with(|k| k.borrow().ids.get(label).copied()) {
        return id;
    }
    let id = {
        let mut table = labels();
        match table.iter().position(|l| l == label) {
            Some(i) => i as u16,
            None if table.len() >= MAX_LABELS => return 0,
            None => {
                table.push(label.to_string());
                (table.len() - 1) as u16
            }
        }
    };
    remember(label, id);
    id
}

/// Resolve an interned label id back to its string (empty for 0 or an
/// unknown id).
pub fn label_name(id: u16) -> String {
    if let Some(name) = KNOWN.with(|k| k.borrow().names.get(&id).map(|n| n.to_string())) {
        return name;
    }
    let name = labels().get(id as usize).cloned().unwrap_or_default();
    if !name.is_empty() {
        remember(&name, id);
    }
    name
}

// ---- the per-thread ring ---------------------------------------------

#[derive(Default)]
struct Slot {
    /// 0 = never written; odd = write in flight; even = 2 × epoch.
    seq: AtomicU64,
    /// `tag << 16 | label`.
    head: AtomicU64,
    t_us: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Ring {
    thread: u64,
    slots: Box<[Slot]>,
    dropped: AtomicU64,
}

fn registry() -> MutexGuard<'static, Vec<Arc<Ring>>> {
    static REG: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    LOCKS.with(|c| c.set(c.get() + 1));
    REG.get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Microseconds since the journal's process anchor (first use).
pub fn now_us() -> u64 {
    (aql_trace::now() - anchor()).as_micros() as u64
}

struct Writer {
    ring: Arc<Ring>,
    epoch: u64,
}

impl Writer {
    fn new() -> Writer {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
        let ring = Arc::new(Ring {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            slots: (0..DEFAULT_CAPACITY).map(|_| Slot::default()).collect(),
            dropped: AtomicU64::new(0),
        });
        registry().push(Arc::clone(&ring));
        Writer { ring, epoch: 0 }
    }

    /// Publish one record. Single-writer seqlock: mark the slot busy
    /// (odd sequence), store the payload with relaxed atomics, then
    /// publish the even sequence with release ordering.
    fn push(&mut self, tag: Tag, label: u16, a: u64, b: u64) {
        let t_us = now_us();
        self.epoch += 1;
        let e = self.epoch;
        let cap = self.ring.slots.len();
        let slot = &self.ring.slots[(e - 1) as usize % cap];
        if slot.seq.load(Ordering::Relaxed) != 0 {
            // Overwriting a live record: the oldest drops.
            self.ring.dropped.fetch_add(1, Ordering::Relaxed);
            M_DROPPED.inc();
        }
        slot.seq.store(2 * e - 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.head.store((tag as u64) << 16 | label as u64, Ordering::Relaxed);
        slot.t_us.store(t_us, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(2 * e, Ordering::Release);
    }
}

thread_local! {
    static WRITER: RefCell<Option<Writer>> = const { RefCell::new(None) };
    /// Coalesced cache hits: `(label, count)` awaiting flush.
    static PENDING_HITS: Cell<(u16, u64)> = const { Cell::new((0, 0)) };
}

fn push(tag: Tag, label: u16, a: u64, b: u64) {
    WRITER.with(|w| w.borrow_mut().get_or_insert_with(Writer::new).push(tag, label, a, b));
}

/// Write one record into this thread's ring, and nothing else: the
/// raw ring write under [`emit`], which is what instrumented code
/// calls. Coalesced cache hits pending on this thread are flushed
/// first, so record order within a thread stays faithful.
#[inline]
pub fn record(tag: Tag, label: u16, a: u64, b: u64) {
    flush_hits((0, 0));
    push(tag, label, a, b);
}

/// Count a cache hit for `label` towards this thread's pending
/// `CacheHit` record: consecutive hits on one source coalesce, so the
/// hit path pays a `Cell` bump, not a ring write or a row update.
/// Flushed by the next [`record`] on this thread (every statement ends
/// with one), by a hit on a different source, and before the open
/// attribution row is closed.
#[inline]
fn coalesce_hit(label: u16) {
    let (hl, hn) = PENDING_HITS.get();
    if hn > 0 && hl != label {
        return flush_hits((label, 1));
    }
    PENDING_HITS.set((label, hn + 1));
}

/// Write this thread's pending hits, if any, as one `CacheHit` record
/// and fold them into its open attribution row, leaving `next` pending.
#[inline]
pub(crate) fn flush_hits(next: (u16, u64)) {
    let (hl, hn) = PENDING_HITS.replace(next);
    if hn > 0 {
        attr::add(attr::Fold::Source(|c| &mut c.hits), hl, hn);
        push(Tag::CacheHit, hl, hn, 0);
    }
}

/// Records dropped oldest-first across every ring since process start.
pub fn dropped_total() -> u64 {
    registry().iter().map(|r| r.dropped.load(Ordering::Relaxed)).sum()
}

// ---- snapshot and the merged journal ---------------------------------

/// One decoded flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// The recording thread's registration id (1-based).
    pub thread: u64,
    /// Per-thread monotonic epoch (1-based); total order within a
    /// thread even when timestamps tie.
    pub epoch: u64,
    /// Microseconds since the journal anchor.
    pub t_us: u64,
    /// What happened.
    pub tag: Tag,
    /// Interned label id (see [`label_name`]); 0 = none.
    pub label: u16,
    /// First payload field (meaning per [`Tag`]).
    pub a: u64,
    /// Second payload field (meaning per [`Tag`]).
    pub b: u64,
}

impl Record {
    /// The record's label, resolved to its string.
    pub fn label_str(&self) -> String {
        label_name(self.label)
    }
}

/// A merged, time-ordered view of recent events across threads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    /// Events sorted by `(t_us, thread, epoch)`.
    pub events: Vec<Record>,
}

impl Journal {
    fn sort(&mut self) {
        self.events.sort_by_key(|e| (e.t_us, e.thread, e.epoch));
    }

    /// The last `n` events (the incident pipeline's window).
    pub fn tail(&self, n: usize) -> Journal {
        let start = self.events.len().saturating_sub(n);
        Journal { events: self.events[start..].to_vec() }
    }

    /// The statements this journal holds whole — `StmtBegin` to
    /// `StmtEnd` on one thread — as collapsed stacks, the shape of
    /// `aql_trace::Trace::folded` at the granularity the recorder keeps
    /// durations at: `statement;<phase>` carries the phase time
    /// [`Ledger::fold`](attr::Ledger::fold) finds inside them and
    /// `statement` the rest of their `StmtEnd` durations, so the weights
    /// sum to those durations. Empty stacks are left out. Lexing and
    /// parsing happen before a statement exists and a running statement
    /// has no duration yet: neither is in this account.
    pub fn folded(&self) -> Vec<(String, u64)> {
        // Per thread inside a statement, the records since its `StmtBegin`.
        let mut open: Vec<(u64, Vec<Record>)> = Vec::new();
        let mut inside = Vec::new();
        let mut ended_ns = 0u64;
        for r in &self.events {
            let at = open.iter().position(|(thread, _)| *thread == r.thread);
            match (r.tag, at) {
                (Tag::StmtBegin, Some(i)) => open[i].1.clear(),
                (Tag::StmtBegin, None) => open.push((r.thread, Vec::new())),
                (Tag::StmtEnd, Some(i)) => {
                    ended_ns += r.b;
                    inside.append(&mut open.swap_remove(i).1);
                }
                (_, Some(i)) => open[i].1.push(*r),
                (_, None) => {}
            }
        }
        let phases = attr::Ledger::fold(&inside).phases;
        let in_phases: u64 = phases.iter().map(|(_, ns)| ns).sum();
        let mut out = vec![("statement".to_string(), ended_ns.saturating_sub(in_phases))];
        out.extend(phases.into_iter().map(|(p, ns)| (format!("statement;{p}"), ns)));
        out.retain(|(_, ns)| *ns > 0);
        out
    }

    /// The journal as a JSON value: an array of event objects with
    /// labels resolved to strings.
    pub fn to_json_value(&self) -> Json {
        Json::Arr(
            self.events
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("t_us".to_string(), Json::Num(e.t_us as f64)),
                        ("thread".to_string(), Json::Num(e.thread as f64)),
                        ("epoch".to_string(), Json::Num(e.epoch as f64)),
                        ("tag".to_string(), Json::Str(e.tag.name().to_string())),
                        ("label".to_string(), Json::Str(e.label_str())),
                        ("a".to_string(), Json::Num(e.a as f64)),
                        ("b".to_string(), Json::Num(e.b as f64)),
                    ])
                })
                .collect(),
        )
    }

    /// Rebuild a journal from [`Journal::to_json_value`] output.
    /// Labels are re-interned, so ids may differ from the writer's.
    pub fn from_json_value(j: &Json) -> Result<Journal, String> {
        let items = j.as_arr().ok_or("journal: expected an event array")?;
        let mut events = Vec::with_capacity(items.len());
        for it in items {
            let name = it.get("tag").and_then(Json::as_str);
            if name.is_some_and(|n| RETIRED_TAGS.contains(&n)) {
                continue;
            }
            let tag = name.and_then(Tag::from_name).ok_or("journal event: bad tag")?;
            let label = intern(it.get("label").and_then(Json::as_str).unwrap_or(""));
            let num = |k: &str| it.get(k).and_then(Json::as_u64).unwrap_or(0);
            events.push(Record {
                thread: num("thread"),
                epoch: num("epoch"),
                t_us: num("t_us"),
                tag,
                label,
                a: num("a"),
                b: num("b"),
            });
        }
        let mut journal = Journal { events };
        journal.sort();
        Ok(journal)
    }
}

/// Merge every thread's ring into one time-ordered [`Journal`].
/// Concurrent writers are safe: slots that move under the reader fail
/// their seqlock validation and are skipped, never torn.
pub fn snapshot() -> Journal {
    // Clone the ring handles out so recording threads never block on
    // the registry lock longer than a Vec clone.
    let rings: Vec<Arc<Ring>> = registry().iter().map(Arc::clone).collect();
    let mut journal = Journal::default();
    for ring in rings {
        for slot in ring.slots.iter() {
            // Bounded retries: a slot being rewritten faster than we
            // can copy it holds no stable record worth waiting for.
            for _ in 0..3 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 || s1 % 2 == 1 {
                    break;
                }
                let head = slot.head.load(Ordering::Relaxed);
                let t_us = slot.t_us.load(Ordering::Relaxed);
                let (a, b) = (slot.a.load(Ordering::Relaxed), slot.b.load(Ordering::Relaxed));
                fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) != s1 {
                    continue; // torn: the writer lapped us, retry
                }
                // An unknown tag byte is no record.
                if let Some(tag) = u8::try_from(head >> 16).ok().and_then(Tag::from_u8) {
                    let (thread, epoch, label) = (ring.thread, s1 / 2, head as u16);
                    journal.events.push(Record { thread, epoch, t_us, tag, label, a, b });
                }
                break;
            }
        }
    }
    journal.sort();
    journal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip_through_names_and_bytes() {
        for v in 1..=14u8 {
            let t = Tag::from_u8(v).expect("dense tag space");
            assert_eq!(t as u8, v);
            assert_eq!(Tag::from_name(t.name()), Some(t));
        }
        assert_eq!(Tag::from_u8(0), None);
        assert_eq!(Tag::from_u8(15), None);
        assert_eq!(Tag::from_name("nope"), None);
        // Numbers are dense in `TABLE` order; names are stable.
        assert_eq!((Tag::StmtBegin as u8, Tag::StmtBegin.name()), (1, "stmt_begin"));
        assert_eq!((Tag::Retry as u8, Tag::Retry.name()), (9, "retry"));
        assert_eq!((Tag::Incident as u8, Tag::Incident.name()), (13, "incident"));
        let last = Tag::ChecksumMismatch;
        assert_eq!((last as u8, last.name()), (14, "checksum_mismatch"));
    }

    #[test]
    fn labels_intern_stably() {
        let a = intern("t_lib:alpha");
        let b = intern("t_lib:beta");
        assert_ne!(a, b);
        assert_eq!(intern("t_lib:alpha"), a);
        assert_eq!(label_name(a), "t_lib:alpha");
        assert_eq!(intern(""), 0);
        assert_eq!(label_name(0), "");
        assert_eq!(label_name(u16::MAX), "");
    }

    #[test]
    fn recorded_events_appear_in_snapshot() {
        let label = intern("t_lib:snap");
        record(Tag::CacheMiss, label, 4096, 0);
        record(Tag::StmtEnd, intern("ok"), 7, 1234);
        let j = snapshot();
        let mine: Vec<&Record> =
            j.events.iter().filter(|e| e.tag == Tag::CacheMiss && e.label == label).collect();
        assert!(!mine.is_empty(), "own event visible");
        assert_eq!(mine[0].a, 4096);
    }

    #[test]
    fn hits_coalesce_until_flushed() {
        let l1 = intern("t_lib:hits1");
        let l2 = intern("t_lib:hits2");
        for _ in 0..5 {
            emit(Event::CacheHit { src: l1 });
        }
        emit(Event::CacheHit { src: l2 }); // different source flushes the l1 run
        emit(Event::Retry { src: l1, attempt: 2 }); // flushes the l2 run
        let j = snapshot();
        let h1: Vec<&Record> =
            j.events.iter().filter(|e| e.tag == Tag::CacheHit && e.label == l1).collect();
        let h2: Vec<&Record> =
            j.events.iter().filter(|e| e.tag == Tag::CacheHit && e.label == l2).collect();
        assert_eq!(h1.len(), 1, "five hits, one record");
        assert_eq!(h1[0].a, 5);
        assert_eq!(h2.len(), 1);
        assert_eq!(h2[0].a, 1);
    }

    #[test]
    fn folded_accounts_whole_statements_per_thread() {
        let (eval, parse) = (intern("eval"), intern("parse"));
        let mut epoch = 0;
        let mut ev = |thread, tag, label, a, b| {
            epoch += 1;
            Record { thread, epoch, t_us: epoch, tag, label, a, b }
        };
        let j = Journal {
            events: vec![
                // Thread 1's statement was cut by the window: not counted.
                ev(1, Tag::Phase, eval, 1000, 0),
                ev(1, Tag::StmtEnd, 0, 0, 5000),
                ev(1, Tag::Phase, parse, 7, 0), // no statement yet
                ev(1, Tag::StmtBegin, 0, 1, 0),
                ev(2, Tag::StmtBegin, 0, 1, 0), // interleaved, still running
                ev(1, Tag::Phase, eval, 30, 0),
                ev(2, Tag::Phase, eval, 999, 0),
                ev(1, Tag::StmtEnd, 0, 1, 50),
                ev(1, Tag::StmtBegin, 0, 2, 0),
                ev(1, Tag::Phase, eval, 40, 0),
                ev(1, Tag::StmtEnd, 0, 2, 45),
            ],
        };
        let want = vec![("statement".to_string(), 25), ("statement;eval".to_string(), 70)];
        assert_eq!(j.folded(), want);
        assert!(Journal::default().folded().is_empty());
    }

    #[test]
    fn json_round_trips() {
        let label = intern("t_lib:json");
        let j = Journal {
            events: vec![Record {
                thread: 3,
                epoch: 9,
                t_us: 777,
                tag: Tag::Retry,
                label,
                a: 2,
                b: 0,
            }],
        };
        let back = Journal::from_json_value(&j.to_json_value()).expect("parse");
        assert_eq!(back.events.len(), 1);
        let e = back.events[0];
        assert_eq!((e.thread, e.epoch, e.t_us, e.tag, e.a), (3, 9, 777, Tag::Retry, 2));
        assert_eq!(e.label_str(), "t_lib:json");
    }

    #[test]
    fn tail_keeps_the_newest() {
        let mk = |t_us| Record {
            thread: 1,
            epoch: t_us,
            t_us,
            tag: Tag::Phase,
            label: 0,
            a: 0,
            b: 0,
        };
        let j = Journal { events: (1..=10).map(mk).collect() };
        let t = j.tail(3);
        assert_eq!(t.events.iter().map(|e| e.t_us).collect::<Vec<_>>(), vec![8, 9, 10]);
        assert_eq!(j.tail(99).events.len(), 10);
    }
}
