//! # aql-trace — query-lifecycle tracing
//!
//! A dependency-free structured event collector for the AQL pipeline.
//! Instrumented code opens [`span`]s (RAII guards with monotonic
//! timings), bumps [`count`]ers, and attaches [`note`]s; everything is
//! recorded by a **thread-local subscriber** so no handle is ever
//! threaded through evaluator or storage code. The runtime is
//! single-threaded (values are `Rc`-based), so a thread-local
//! subscriber sees every event of a query, exactly once. No work of a
//! query is traced on another thread: the one other thread that works
//! for a session, a configured read-ahead worker, reports through the flight
//! recorder (`aql-journal`), not through a trace.
//!
//! ## Overhead contract
//!
//! When no subscriber is installed (the default), every entry point is
//! a single thread-local flag read plus a branch — no allocation, no
//! clock read, no formatting. Call sites that would build a dynamic
//! key or value take closures ([`count_with`], [`note`]) so the work
//! is only done while tracing. `aql-lang`'s `tests/telemetry_counts.rs`
//! holds the contract by exact counts: clock reads per statement traced
//! and untraced, and a span count that does not grow with the data a
//! statement scans.
//!
//! ## Model
//!
//! A [`Trace`] is a flat vector of [`SpanRec`]s in open order; each
//! records its parent index, start offset, and duration on the same
//! monotonic clock, so a child's interval always nests inside its
//! parent's and sibling durations sum to at most the parent duration.
//! Counters and notes attach to the innermost open span (or to the
//! trace itself when no span is open). [`Trace::render`] pretty-prints
//! the tree; [`Trace::folded`] collapses it into flamegraph stacks of
//! exact self times, which [`profile`] renders as text and SVG;
//! [`Trace::to_chrome_json`] exports it for Perfetto through the
//! bundled [`json`] module.
//!
//! ```
//! aql_trace::enable();
//! {
//!     let _root = aql_trace::span("statement");
//!     let _child = aql_trace::span("eval");
//!     aql_trace::count("eval.steps", 42);
//! }
//! let t = aql_trace::disable();
//! assert_eq!(t.spans.len(), 2);
//! assert_eq!(t.total_counter("eval.steps"), 42);
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod profile;

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded span: a named interval on the collector's monotonic
/// clock, with its counters and annotations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanRec {
    /// Span name (a static label at record time).
    pub name: String,
    /// Index of the enclosing span in [`Trace::spans`], if any.
    pub parent: Option<usize>,
    /// Start offset from the trace epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds. `None` if the guard never closed
    /// (e.g. the subscriber was drained mid-span).
    pub dur_ns: Option<u64>,
    /// Counters attached to this span, in first-bump order. Repeated
    /// bumps of the same name accumulate into one entry.
    pub counters: Vec<(String, u64)>,
    /// Key/value annotations, in record order.
    pub notes: Vec<(String, String)>,
}

/// A completed trace: spans in open order plus trace-level counters
/// (events recorded while no span was open).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Spans in the order they were opened.
    pub spans: Vec<SpanRec>,
    /// Counters recorded outside any span.
    pub counters: Vec<(String, u64)>,
}

impl Trace {
    /// No spans recorded?
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Indices of the root spans (those with no parent), in order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none()).collect()
    }

    /// Indices of the direct children of span `i`, in order.
    pub fn children(&self, i: usize) -> Vec<usize> {
        (0..self.spans.len()).filter(|&c| self.spans[c].parent == Some(i)).collect()
    }

    /// First span with the given name, if any.
    pub fn find(&self, name: &str) -> Option<&SpanRec> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Sum of a counter across every span and the trace level.
    pub fn total_counter(&self, name: &str) -> u64 {
        let spans: u64 = self
            .spans
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v)
            .sum();
        let top: u64 =
            self.counters.iter().filter(|(n, _)| n == name).map(|(_, v)| v).sum();
        spans + top
    }

    /// The trace as collapsed stacks, the flamegraph input format: one
    /// `(path, ns)` per distinct span path (names root to leaf joined
    /// by `;`), in first-open order, weighted by the *self time* of the
    /// spans on it — duration less the children's, zero rather than
    /// wrapping if a child outlasts its parent. A span that
    /// never closed has no duration and adds nothing. When every span
    /// closed within its parent, the weights sum to the root spans'
    /// durations.
    pub fn folded(&self) -> Vec<(String, u64)> {
        let mut in_children = vec![0u64; self.spans.len()];
        let mut paths: Vec<String> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // Open order: a parent precedes its children.
            let parent = s.parent.filter(|&p| p < i);
            paths.push(match parent {
                Some(p) => format!("{};{}", paths[p], s.name),
                None => s.name.clone(),
            });
            if let (Some(p), Some(dur)) = (parent, s.dur_ns) {
                in_children[p] = in_children[p].saturating_add(dur);
            }
        }
        let mut out = Vec::new();
        for ((s, path), children) in self.spans.iter().zip(&paths).zip(in_children) {
            if let Some(dur) = s.dur_ns {
                bump(&mut out, path, dur.saturating_sub(children));
            }
        }
        out
    }

    /// Pretty-print the span tree. With `redact_timings`, durations
    /// render as `_` so the output is deterministic (used by golden
    /// tests; see also [`redact_timings`]).
    pub fn render(&self, redact_timings: bool) -> String {
        let mut out = String::new();
        for r in self.roots() {
            self.render_span(r, "", true, 0, redact_timings, &mut out);
        }
        if !self.counters.is_empty() {
            let mut cs: Vec<_> = self.counters.clone();
            cs.sort();
            out.push_str("(outside spans)");
            for (n, v) in cs {
                out.push_str(&format!(" {n}={v}"));
            }
            out.push('\n');
        }
        out
    }

    fn render_span(
        &self,
        i: usize,
        prefix: &str,
        is_last: bool,
        depth: usize,
        redact: bool,
        out: &mut String,
    ) {
        let s = &self.spans[i];
        let (branch, cont) = if depth == 0 {
            ("", "")
        } else if is_last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        let dur = match (redact, s.dur_ns) {
            (true, _) => "_".to_string(),
            (false, Some(ns)) => fmt_dur(ns),
            (false, None) => "open".to_string(),
        };
        out.push_str(prefix);
        out.push_str(branch);
        out.push_str(&s.name);
        for (k, v) in &s.notes {
            out.push_str(&format!(" [{k}={v}]"));
        }
        out.push_str(&format!(" ({dur})"));
        let mut cs: Vec<_> = s.counters.clone();
        cs.sort();
        for (n, v) in cs {
            out.push_str(&format!(" {n}={v}"));
        }
        out.push('\n');
        let kids = self.children(i);
        let child_prefix = format!("{prefix}{cont}");
        for (j, &c) in kids.iter().enumerate() {
            self.render_span(c, &child_prefix, j + 1 == kids.len(), depth + 1, redact, out);
        }
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

// ---- the thread-local subscriber ------------------------------------

struct Collector {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    top_counters: Vec<(String, u64)>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
    static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
}

/// The telemetry clock: every timing a span, a phase or a journal
/// record carries is read here, and the read is counted per thread so
/// a test can hold "one clock pair per phase" as an exact number.
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

/// Is a subscriber currently collecting on this thread?
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Install a fresh subscriber on this thread, discarding any trace in
/// progress. Subsequent [`span`]/[`count`]/[`note`] calls record into
/// it until [`disable`].
pub fn enable() {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            epoch: now(),
            spans: Vec::new(),
            stack: Vec::new(),
            top_counters: Vec::new(),
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Uninstall the subscriber and return everything it collected.
/// Returns an empty [`Trace`] if tracing was not enabled. Spans still
/// open at this point keep `dur_ns: None`.
pub fn disable() -> Trace {
    ENABLED.with(|e| e.set(false));
    COLLECTOR.with(|c| {
        c.borrow_mut()
            .take()
            .map(|col| Trace { spans: col.spans, counters: col.top_counters })
            .unwrap_or_default()
    })
}

/// An RAII guard closing a span on drop. Obtained from [`span`]; a
/// no-op (no allocation, no clock read) when tracing is disabled.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    idx: Option<usize>,
}

impl SpanGuard {
    /// Close the span now (dropping the guard later is then a no-op)
    /// and return the duration the subscriber recorded for it — `None`
    /// when none was collecting. A caller that needs the span's time
    /// takes it from here instead of reading the clock a second time,
    /// so both accounts hold one number.
    pub fn finish(&mut self) -> Option<u64> {
        let idx = self.idx.take()?;
        COLLECTOR.with(|c| {
            let mut b = c.borrow_mut();
            let col = b.as_mut()?;
            // Close this span (tolerating out-of-order drops: anything
            // above it on the stack is abandoned open).
            if let Some(pos) = col.stack.iter().rposition(|&i| i == idx) {
                col.stack.truncate(pos);
            }
            let now = (now() - col.epoch).as_nanos() as u64;
            let s = col.spans.get_mut(idx)?;
            Some(*s.dur_ns.get_or_insert(now.saturating_sub(s.start_ns)))
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Open a span named `name` under the innermost open span. Returns a
/// guard that records the duration when dropped.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { idx: None };
    }
    let idx = COLLECTOR.with(|c| {
        let mut b = c.borrow_mut();
        let col = b.as_mut()?;
        let idx = col.spans.len();
        col.spans.push(SpanRec {
            name: name.to_string(),
            parent: col.stack.last().copied(),
            start_ns: (now() - col.epoch).as_nanos() as u64,
            dur_ns: None,
            counters: Vec::new(),
            notes: Vec::new(),
        });
        col.stack.push(idx);
        Some(idx)
    });
    SpanGuard { idx }
}

fn bump(target: &mut Vec<(String, u64)>, name: &str, delta: u64) {
    if let Some(slot) = target.iter_mut().find(|(n, _)| n == name) {
        slot.1 += delta;
    } else {
        target.push((name.to_string(), delta));
    }
}

/// Add `delta` to counter `name` on the innermost open span (or the
/// trace level when no span is open). No-op when disabled.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    count_str(name, delta);
}

/// [`count`] with a dynamically built key, computed only while
/// tracing. Use for keys that need formatting (e.g. per-rule fire
/// counters `fire:<phase>/<rule>`).
#[inline]
pub fn count_with(name: impl FnOnce() -> String, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    count_str(&name(), delta);
}

fn count_str(name: &str, delta: u64) {
    COLLECTOR.with(|c| {
        let mut b = c.borrow_mut();
        let Some(col) = b.as_mut() else { return };
        match col.stack.last().copied() {
            Some(i) => bump(&mut col.spans[i].counters, name, delta),
            None => bump(&mut col.top_counters, name, delta),
        }
    });
}

/// Attach a key/value annotation to the innermost open span; the
/// value closure runs only while tracing. Annotations on the trace
/// level (no open span) are dropped.
#[inline]
pub fn note(key: &'static str, value: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let v = value();
    COLLECTOR.with(|c| {
        let mut b = c.borrow_mut();
        let Some(col) = b.as_mut() else { return };
        if let Some(&i) = col.stack.last() {
            col.spans[i].notes.push((key.to_string(), v));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        assert!(!enabled());
        let g = span("x");
        count("c", 1);
        note("k", || panic!("value must not be computed while disabled"));
        drop(g);
        assert!(disable().is_empty());
    }

    #[test]
    fn spans_nest_and_time() {
        enable();
        {
            let _root = span("root");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _child = span("child");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            count("n", 3);
            count("n", 4);
        }
        let t = disable();
        assert_eq!(t.spans.len(), 2);
        let root = &t.spans[0];
        let child = &t.spans[1];
        assert_eq!(root.name, "root");
        assert_eq!(child.parent, Some(0));
        assert!(child.start_ns >= root.start_ns);
        assert!(child.dur_ns.unwrap() <= root.dur_ns.unwrap());
        // Both counts merged into one entry on the root span (the
        // child had already closed).
        assert_eq!(root.counters, vec![("n".to_string(), 7)]);
    }

    #[test]
    fn counters_outside_spans_go_to_trace_level() {
        enable();
        count("top", 5);
        let t = disable();
        assert_eq!(t.counters, vec![("top".to_string(), 5)]);
        assert_eq!(t.total_counter("top"), 5);
    }

    #[test]
    fn dynamic_keys_and_notes() {
        enable();
        {
            let _s = span("opt.phase");
            note("phase", || "normalize".to_string());
            count_with(|| format!("fire:{}/{}", "normalize", "beta-p"), 2);
        }
        let t = disable();
        let s = t.find("opt.phase").unwrap();
        assert_eq!(s.notes, vec![("phase".to_string(), "normalize".to_string())]);
        assert_eq!(s.counters, vec![("fire:normalize/beta-p".to_string(), 2)]);
    }

    #[test]
    fn render_tree_shape() {
        enable();
        {
            let _a = span("statement");
            {
                let _b = span("typecheck");
            }
            {
                let _c = span("eval");
                count("eval.steps", 9);
            }
        }
        let t = disable();
        let r = t.render(true);
        assert!(r.contains("statement (_)"), "{r}");
        assert!(r.contains("├─ typecheck (_)"), "{r}");
        assert!(r.contains("└─ eval (_) eval.steps=9"), "{r}");
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
        let span = |name: &str, parent, dur_ns| SpanRec {
            name: name.into(),
            parent,
            dur_ns,
            ..Default::default()
        };
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
            counters: Vec::new(),
        };
        let stack = |path: &str, ns| (path.to_string(), ns);
        assert_eq!(
            t.folded(),
            vec![
                stack("statement", 50),
                stack("statement;eval", 20 + 20),
                stack("statement;eval;cache.load", 0),
                stack("statement;optimize;opt.phase", 5),
                stack("statement;eval;cache.load;worker", 25),
                stack("parse", 7),
            ]
        );
        assert!(Trace::default().folded().is_empty());
    }

    #[test]
    fn enable_resets_prior_trace() {
        enable();
        count("a", 1);
        enable();
        count("b", 1);
        let t = disable();
        assert_eq!(t.total_counter("a"), 0);
        assert_eq!(t.total_counter("b"), 1);
    }
}
