//! # aql-trace — query-lifecycle tracing
//!
//! A dependency-free span recorder for the AQL pipeline. Instrumented
//! code opens [`span`]s (RAII guards with monotonic timings) and
//! attaches [`note`]s; a thread-local recorder keeps them, so no handle
//! is threaded through evaluator or storage code. The runtime is
//! single-threaded (values are `Rc`-based); the one other thread that
//! works for a session, a configured read-ahead worker, reports through
//! the flight recorder (`aql-journal`), not through a trace.
//!
//! ## One account
//!
//! There is no tracing mode. A span always times its interval with one
//! clock pair, whose difference [`SpanGuard::finish`] hands to every
//! other account of the interval (a phase's journal record, a
//! statement's record), and is recorded while a [`Scope`] is open on
//! the thread. A session opens one around each run, so a profile is a
//! view of the run; outside a scope a span records nothing, so memory
//! stays bounded by one run. Recording allocates nothing per span once
//! the scope's buffer is warm: names are `&'static str` and a [`Note`]
//! holds a static or shared string. `aql-lang`'s
//! `tests/telemetry_counts.rs` holds the cost by exact counts: two clock
//! reads a span, and spans that do not grow with the data scanned.
//!
//! ## Model
//!
//! A [`Trace`] is a flat vector of [`SpanRec`]s in open order (a
//! depth-first order of the tree); each records its parent index, start
//! offset and duration on one monotonic clock, so a child's interval
//! nests inside its parent's. The tree carries times and names only:
//! what a statement counts is its record's (`aql-lang`'s
//! `QueryReport`). [`Trace::render`] pretty-prints the tree;
//! [`Trace::folded`] gives its flamegraph stacks of exact self times,
//! which [`profile`] renders as text and SVG;
//! [`Trace::to_chrome_json_value`] exports it for Perfetto through the
//! bundled [`json`] module.
//!
//! ```
//! let scope = aql_trace::Scope::open(aql_trace::Trace::default());
//! {
//!     let _root = aql_trace::span("statement");
//!     let _child = aql_trace::span("eval");
//!     aql_trace::note("kind", aql_trace::Note::Static("query"));
//! }
//! let t = scope.close();
//! assert_eq!(t.spans.len(), 2);
//! assert_eq!(t.spans[1].parent, Some(0));
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod profile;

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

/// A note's value: a static string or a shared one, so recording a
/// note copies no text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Note {
    /// A string known at compile time (a statement kind).
    Static(&'static str),
    /// A name its owner already holds (a reader, a variable, a phase).
    Shared(Arc<str>),
}

impl std::ops::Deref for Note {
    type Target = str;
    fn deref(&self) -> &str {
        match self {
            Note::Static(s) => s,
            Note::Shared(s) => s,
        }
    }
}

/// One recorded span: a named interval on the recorder's monotonic
/// clock, with its annotation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanRec {
    /// Span name.
    pub name: &'static str,
    /// Index of the enclosing span in [`Trace::spans`], if any.
    pub parent: Option<usize>,
    /// Start offset from the scope's first span, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds; `None` if the span outlived its scope.
    pub dur_ns: Option<u64>,
    /// The key/value annotation, if one was made.
    pub note: Option<(&'static str, Note)>,
}

/// A completed trace: spans in open order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Spans in the order they were opened.
    pub spans: Vec<SpanRec>,
}

impl Trace {
    /// First span with the given name, if any.
    pub fn find(&self, name: &str) -> Option<&SpanRec> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The trace as flamegraph stacks: one `(path, ns)` per closed span,
    /// in open order, its path the names root to leaf joined by `;` and
    /// its weight its *self time* — duration less its children's, zero
    /// rather than wrapping if a child outlasts its parent. When every
    /// span closed within its parent, the weights sum to the root spans'
    /// durations.
    pub fn folded(&self) -> Vec<(String, u64)> {
        let mut in_children = vec![0u64; self.spans.len()];
        let mut paths: Vec<String> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            paths.push(match s.parent {
                Some(p) => format!("{};{}", paths[p], s.name),
                None => s.name.to_string(),
            });
            if let (Some(p), Some(dur)) = (s.parent, s.dur_ns) {
                in_children[p] = in_children[p].saturating_add(dur);
            }
        }
        let spans = self.spans.iter().zip(paths).zip(in_children);
        spans.filter_map(|((s, path), kids)| Some((path, s.dur_ns?.saturating_sub(kids)))).collect()
    }

    /// Pretty-print the span tree, in one pass over the spans. With
    /// `redact_timings`, durations render as `_` so the output is
    /// deterministic (used by golden tests; see also [`redact_timings`]).
    pub fn render(&self, redact_timings: bool) -> String {
        let n = self.spans.len();
        // A span is its parent's last child if no later span shares it.
        let (mut last, mut seen) = (vec![false; n], vec![false; n + 1]);
        for (i, s) in self.spans.iter().enumerate().rev() {
            last[i] = !std::mem::replace(&mut seen[s.parent.unwrap_or(n)], true);
        }
        // Per span, the indent its children's lines start with.
        let mut indent: Vec<String> = Vec::with_capacity(n);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let (prefix, branch, cont) = match s.parent {
                None => ("", "", ""),
                Some(p) if last[i] => (indent[p].as_str(), "└─ ", "   "),
                Some(p) => (indent[p].as_str(), "├─ ", "│  "),
            };
            let note = s.note.as_ref().map(|(k, v)| format!(" [{k}={}]", &**v)).unwrap_or_default();
            let dur = match (redact_timings, s.dur_ns) {
                (true, _) => "_".to_string(),
                (false, Some(ns)) => fmt_dur(ns),
                (false, None) => "open".to_string(),
            };
            out.push_str(&format!("{prefix}{branch}{}{note} ({dur})\n", s.name));
            indent.push(format!("{prefix}{cont}"));
        }
        out
    }
}

/// Format nanoseconds as a short human-readable duration (`850ns`,
/// `12.3µs`, `4.56ms`, `1.23s`).
pub fn fmt_dur(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Replace every duration token produced by [`fmt_dur`] (and any bare
/// `(123ns)`-style parenthesized timing) in `s` with `(_)`. Golden
/// tests run REPL output through this so only the timings vary.
pub fn redact_timings(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'(' {
            // Try to match `(<digits>[.<digits>]<unit>)`.
            if let Some(close) = s[i..].find(')').map(|p| i + p) {
                let inner = &s[i + 1..close];
                if is_duration_token(inner) {
                    out.push_str("(_)");
                    i = close + 1;
                    continue;
                }
            }
        }
        let Some(ch) = s[i..].chars().next() else { break };
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

fn is_duration_token(t: &str) -> bool {
    let t = t
        .strip_suffix("ns")
        .or_else(|| t.strip_suffix("µs"))
        .or_else(|| t.strip_suffix("ms"))
        .or_else(|| t.strip_suffix('s'));
    match t {
        Some(num) if !num.is_empty() => {
            num.chars().all(|c| c.is_ascii_digit() || c == '.')
        }
        _ => false,
    }
}

// ---- the thread-local recorder ---------------------------------------

/// What a thread records while a [`Scope`] is open on it.
struct Recorder {
    open: bool,
    /// When the scope's first span opened: the origin of `start_ns`.
    epoch: Option<Instant>,
    trace: Trace,
    /// Indices of the spans still open, innermost last.
    stack: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder { open: false, epoch: None, trace: Trace { spans: Vec::new() }, stack: Vec::new() })
    };
    static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
}

/// The telemetry clock: every timing a span or a journal record carries
/// is read here, and the read is counted per thread so a test can hold
/// "one clock pair per interval" as an exact number.
#[inline]
pub fn now() -> Instant {
    CLOCK_READS.with(|c| c.set(c.get() + 1));
    Instant::now()
}

/// Telemetry clock reads made by this thread so far. Test hook.
#[doc(hidden)]
pub fn clock_reads() -> u64 {
    CLOCK_READS.with(Cell::get)
}

/// A recording scope: while one is open, every span its thread opens is
/// recorded into the tree [`Scope::close`] returns. A session opens one
/// around each run; one dropped unclosed (a panic unwinding through it)
/// ends the recording.
#[must_use = "a scope records until it is closed"]
pub struct Scope(Option<Trace>);

impl Scope {
    /// Open a scope recording into `buf`, cleared first (its capacity is
    /// kept, so handing back the last tree allocates nothing once warm).
    /// Inside an open scope this one records nothing of its own: the
    /// spans go to the outer scope, and `close` returns `buf` empty.
    pub fn open(mut buf: Trace) -> Scope {
        buf.spans.clear();
        RECORDER.with(|r| {
            let r = &mut *r.borrow_mut();
            if r.open {
                return Scope(Some(buf));
            }
            (r.open, r.epoch, r.trace) = (true, None, buf);
            Scope(None)
        })
    }

    /// Close the scope and return what it recorded.
    pub fn close(mut self) -> Trace {
        let nested = self.0.take();
        std::mem::forget(self);
        nested.unwrap_or_else(end)
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if self.0.is_none() {
            end();
        }
    }
}

/// End the thread's recording and take its tree.
fn end() -> Trace {
    RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        (r.open, r.epoch) = (false, None);
        r.stack.clear();
        std::mem::take(&mut r.trace)
    })
}

/// An RAII guard timing a span until it is dropped or finished.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    start: Instant,
    /// The span's index in the open scope's tree.
    idx: Option<usize>,
}

impl SpanGuard {
    /// Close the span now and return its duration: the one number the
    /// tree and every other account of the interval carry.
    pub fn finish(self) -> u64 {
        let ns = self.close();
        std::mem::forget(self);
        ns
    }

    fn close(&self) -> u64 {
        let ns = (now() - self.start).as_nanos() as u64;
        RECORDER.with(|r| {
            let r = &mut *r.borrow_mut();
            // Out of order, anything above this span is abandoned open.
            if let Some(pos) = self.idx.and_then(|idx| r.stack.iter().rposition(|&i| i == idx)) {
                r.trace.spans[r.stack[pos]].dur_ns = Some(ns);
                r.stack.truncate(pos);
            }
        });
        ns
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Open a span named `name`: timed always, recorded under the innermost
/// open span while a [`Scope`] is open.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let start = now();
    let idx = RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        if !r.open {
            return None;
        }
        let epoch = *r.epoch.get_or_insert(start);
        let (idx, parent, start_ns) = (r.trace.spans.len(), r.stack.last().copied(), (start - epoch).as_nanos());
        r.trace.spans.push(SpanRec { name, parent, start_ns: start_ns as u64, dur_ns: None, note: None });
        r.stack.push(idx);
        Some(idx)
    });
    SpanGuard { start, idx }
}

/// Annotate the innermost open span with `key = value`, replacing an
/// earlier note. With no span recording, it is dropped.
#[inline]
pub fn note(key: &'static str, value: Note) {
    RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        if let Some(&i) = r.stack.last() {
            r.trace.spans[i].note = Some((key, value));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tree `f` records in a scope of its own.
    fn record(f: impl FnOnce()) -> Trace {
        let scope = Scope::open(Trace::default());
        f();
        scope.close()
    }

    #[test]
    fn outside_a_scope_a_span_times_and_records_nothing() {
        let g = span("x");
        note("k", Note::Static("v"));
        assert!(g.finish() < 1_000_000_000);
        assert!(record(|| ()).spans.is_empty());
    }

    #[test]
    fn spans_nest_and_time() {
        let t = record(|| {
            let _root = span("root");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _child = span("child");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            note("k", Note::Static("v"));
        });
        assert_eq!(t.spans.len(), 2);
        let root = &t.spans[0];
        let child = &t.spans[1];
        assert_eq!(root.name, "root");
        assert_eq!(child.parent, Some(0));
        assert_eq!(root.start_ns, 0, "the first span is the scope's origin");
        assert!(child.start_ns >= root.start_ns);
        assert!(child.dur_ns.unwrap() <= root.dur_ns.unwrap());
        // The note went to the root span (the child had already
        // closed).
        assert_eq!(root.note, Some(("k", Note::Static("v"))));
        assert!(child.note.is_none());
    }

    #[test]
    fn finish_returns_the_recorded_duration_with_one_clock_pair() {
        let before = clock_reads();
        let mut ns = 0;
        let t = record(|| ns = span("a").finish());
        assert_eq!(t.spans[0].dur_ns, Some(ns));
        assert_eq!(clock_reads() - before, 2);
    }

    #[test]
    fn notes_outside_spans_are_dropped() {
        assert!(record(|| note("k", Note::Static("v"))).spans.is_empty());
    }

    #[test]
    fn a_nested_scope_records_into_the_outer_one() {
        let mut inner = Trace::default();
        let t = record(|| {
            let _a = span("a");
            let scope = Scope::open(Trace { spans: vec![SpanRec::default()] });
            drop(span("b"));
            inner = scope.close();
        });
        assert!(inner.spans.is_empty());
        assert_eq!(t.spans.iter().map(|s| s.name).collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn a_scope_reuses_its_buffer_and_a_dropped_one_ends_the_recording() {
        let t = record(|| drop(span("a")));
        let capacity = t.spans.capacity();
        let scope = Scope::open(t);
        drop(span("b"));
        let t = scope.close();
        assert_eq!(t.spans.iter().map(|s| s.name).collect::<Vec<_>>(), ["b"]);
        assert_eq!(t.spans.capacity(), capacity);
        // A scope unwound through, with a span left open, ends the
        // recording; the span's late close writes nowhere.
        let scope = Scope::open(Trace::default());
        let open = span("c");
        drop(scope);
        drop(open);
        assert!(record(|| ()).spans.is_empty());
    }

    #[test]
    fn render_tree_shape() {
        let t = record(|| {
            let _a = span("statement");
            {
                let _b = span("typecheck");
            }
            {
                let _c = span("eval");
                note("var", Note::Shared(Arc::from("T")));
            }
        });
        assert_eq!(t.render(true), "statement (_)\n├─ typecheck (_)\n└─ eval [var=T] (_)\n");
    }

    #[test]
    fn redaction_replaces_only_durations() {
        let s = "eval (12.3µs) steps=9 (not a time) (1.20ms) (999ns) (2.50s)";
        assert_eq!(
            redact_timings(s),
            "eval (_) steps=9 (not a time) (_) (_) (_)"
        );
    }

    #[test]
    fn fmt_dur_units() {
        assert_eq!(fmt_dur(850), "850ns");
        assert_eq!(fmt_dur(12_300), "12.3µs");
        assert_eq!(fmt_dur(4_560_000), "4.56ms");
        assert_eq!(fmt_dur(1_230_000_000), "1.23s");
    }

    #[test]
    fn folded_stacks_carry_self_times() {
        let span = |name, parent, dur_ns| SpanRec { name, parent, dur_ns, ..Default::default() };
        let t = Trace {
            spans: vec![
                span("statement", None, Some(100)),
                span("eval", Some(0), Some(30)),
                span("cache.load", Some(1), Some(10)),
                // A sibling of the same name lands on the same stack.
                span("eval", Some(0), Some(20)),
                // Never closed: no weight of its own, none taken from
                // its parent; its closed child still counts.
                span("optimize", Some(0), None),
                span("opt.phase", Some(4), Some(5)),
                // A span may outlast the span it hangs under.
                span("worker", Some(2), Some(25)),
                span("parse", None, Some(7)),
            ],
        };
        let stack = |path: &str, ns| (path.to_string(), ns);
        assert_eq!(
            t.folded(),
            vec![
                stack("statement", 50),
                stack("statement;eval", 20),
                stack("statement;eval;cache.load", 0),
                stack("statement;eval", 20),
                stack("statement;optimize;opt.phase", 5),
                stack("statement;eval;cache.load;worker", 25),
                stack("parse", 7),
            ]
        );
        assert!(Trace::default().folded().is_empty());
    }
}
