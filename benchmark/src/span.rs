//! The benchmark's own span recorder.
//!
//! Spans are opened from the benchmark's files around calls into each
//! crate's public functions; nothing inside the crates is touched. A
//! span records name, start, end and parent. The layer a span belongs
//! to is the part of its name before the first `.`; its self time is
//! its duration minus the part of that interval its children cover.
//! Self times are folded into per-name totals when an op ends; the raw
//! spans of the first ops are kept in memory for the trace file.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use aql_trace::json::Json;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span within the same op, if any.
    pub parent: Option<usize>,
}

/// Raw spans are kept for the trace file up to this many; totals cover
/// every span regardless.
const KEEP_SPANS: usize = 20_000;

/// Accumulated time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
}

struct Recorder {
    epoch: Instant,
    on: bool,
    /// Spans of the op in progress.
    cur: Vec<Span>,
    /// Indices into `cur` of the spans still open, innermost last.
    open: Vec<usize>,
    totals: BTreeMap<&'static str, Total>,
    /// `(op number, spans)` of the first ops, for the trace file.
    kept: Vec<(u64, Vec<Span>)>,
    kept_spans: usize,
    ops: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        on: false,
        cur: Vec::new(),
        open: Vec::new(),
        totals: BTreeMap::new(),
        kept: Vec::new(),
        kept_spans: 0,
        ops: 0,
    });
}

/// Turn recording on or off. While off, [`span`] costs one
/// thread-local read.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span under the innermost open one.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let parent = r.open.last().copied();
        let idx = r.cur.len();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.cur.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        r.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.epoch.elapsed().as_nanos() as u64;
            r.cur[idx].end_ns = now;
            // Guards drop innermost first, so `idx` is the top.
            r.open.pop();
        });
    }
}

/// Self time of each span: its duration minus the union of its
/// children's intervals, clipped to the span itself (children may
/// overlap one another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// End the op in progress: fold its spans' self times into the totals
/// and return the sum of the self times of every span but the root
/// (the root's self time is the gaps between the staged calls, which
/// belongs to no layer).
pub fn finish_op() -> u64 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let spans = std::mem::take(&mut r.cur);
        r.open.clear();
        if spans.is_empty() {
            return 0;
        }
        let selfs = self_times(&spans);
        let mut layered = 0u64;
        for (s, &self_ns) in spans.iter().zip(&selfs) {
            let t = r.totals.entry(s.name).or_default();
            t.self_ns += self_ns;
            t.total_ns += s.end_ns - s.start_ns;
            t.count += 1;
            if s.parent.is_some() {
                layered += self_ns;
            }
        }
        let op = r.ops;
        r.ops += 1;
        if r.kept_spans + spans.len() <= KEEP_SPANS {
            r.kept_spans += spans.len();
            r.kept.push((op, spans));
        }
        layered
    })
}

/// Totals of every span name recorded so far.
#[cfg(test)]
pub fn totals() -> BTreeMap<&'static str, Total> {
    REC.with(|r| r.borrow().totals.clone())
}

/// Total of one span name (zero when never recorded).
pub fn total(name: &str) -> Total {
    REC.with(|r| r.borrow().totals.get(name).copied().unwrap_or_default())
}

/// Sum of the self times of every span whose name starts with
/// `layer` followed by a dot.
pub fn layer_self_ns(layer: &str) -> u64 {
    REC.with(|r| {
        r.borrow()
            .totals
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_ns)
            .sum()
    })
}

/// The trace document: every kept span with its op number, plus the
/// totals over all spans (kept or not).
pub fn to_json(workload: &str, seed: u64) -> Json {
    REC.with(|r| {
        let r = r.borrow();
        let num = |v: u64| Json::Num(v as f64);
        let mut spans = Vec::new();
        for (op, op_spans) in &r.kept {
            for (i, s) in op_spans.iter().enumerate() {
                spans.push(Json::Obj(vec![
                    ("op".into(), num(*op)),
                    ("id".into(), num(i as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| num(p as u64)),
                    ),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), num(s.start_ns)),
                    ("end_ns".into(), num(s.end_ns)),
                ]));
            }
        }
        let totals = r
            .totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("self_ns".into(), num(t.self_ns)),
                        ("total_ns".into(), num(t.total_ns)),
                        ("count".into(), num(t.count)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), num(seed)),
            ("ops_traced".into(), num(r.ops)),
            ("ops_kept".into(), num(r.kept.len() as u64)),
            ("totals".into(), Json::Obj(totals)),
            ("spans".into(), Json::Arr(spans)),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, a: u64, b: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
        }
    }

    #[test]
    fn self_time_with_overlapping_children() {
        let spans = vec![
            sp("op", 0, 100, None),
            sp("eval.eval", 10, 60, Some(0)),
            // Overlaps its sibling on [40, 60): the union is [10, 80).
            sp("netcdf.read_chunk", 40, 80, Some(0)),
            sp("netcdf.read_chunk", 20, 30, Some(1)),
            // Sticks out of its parent: clipped to [50, 60).
            sp("format.read_chunk", 50, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 40, 10, 20]);
    }

    #[test]
    fn recorder_nests_and_folds() {
        set_enabled(true);
        {
            let _op = span("op");
            {
                let _a = span("lang.parse");
                let _b = span("lang.lex");
            }
            let _c = span("eval.eval");
        }
        let layered = finish_op();
        set_enabled(false);
        let t = totals();
        assert_eq!(t["op"].count, 1);
        assert_eq!(t["lang.parse"].count, 1);
        assert!(t["lang.parse"].total_ns >= t["lang.lex"].total_ns);
        assert_eq!(
            layered,
            t["lang.parse"].self_ns + t["lang.lex"].self_ns + t["eval.eval"].self_ns
        );
        assert_eq!(
            layer_self_ns("lang"),
            t["lang.parse"].self_ns + t["lang.lex"].self_ns
        );
        // Off: nothing is recorded.
        drop(span("ignored"));
        assert_eq!(finish_op(), 0);
        assert_eq!(total("ignored").count, 0);
    }
}
