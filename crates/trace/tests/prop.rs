//! Property tests for the span collector: under randomly generated
//! nesting programs, the recorded tree preserves event order, child
//! intervals nest inside their parents, and the summed durations of
//! direct children never exceed the parent's duration.

use proptest::prelude::*;

use aql_trace::{SpanGuard, Trace};

/// A small program over the collector: open a span (push) or close
/// the innermost (pop). Interpreted against a guard stack; guards drop
/// in LIFO order so the trace is well-nested.
#[derive(Debug, Clone)]
enum Op {
    Open(usize),
    Close,
}

/// Static span-name pool (spans take `&'static str`).
const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

fn run_program(ops: &[Op]) -> Trace {
    aql_trace::enable();
    let mut stack: Vec<SpanGuard> = Vec::new();
    for op in ops {
        match op {
            Op::Open(n) => stack.push(aql_trace::span(NAMES[n % NAMES.len()])),
            Op::Close => {
                stack.pop();
            }
        }
    }
    // Close everything that is still open, innermost first.
    while stack.pop().is_some() {}
    aql_trace::disable()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..NAMES.len()).prop_map(Op::Open),
        Just(Op::Close),
    ]
}

proptest! {
    /// Spans appear in open order; every parent index points backwards
    /// (events preserve order under nesting).
    #[test]
    fn parents_precede_children(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        let t = run_program(&ops);
        for (i, s) in t.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                prop_assert!(p < i, "span {i} has parent {p} at or after it");
                // A child starts no earlier than its parent.
                prop_assert!(t.spans[p].start_ns <= s.start_ns);
            }
        }
    }

    /// Every span closed by the program has a duration, child
    /// intervals lie inside the parent interval, and the direct
    /// children's durations sum to at most the parent's duration.
    #[test]
    fn child_durations_sum_within_parent(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        let t = run_program(&ops);
        for (i, s) in t.spans.iter().enumerate() {
            let dur = s.dur_ns;
            prop_assert!(dur.is_some(), "span {i} never closed");
            let end = s.start_ns + dur.unwrap();
            let kids = t.children(i);
            let mut kid_sum = 0u64;
            for &c in &kids {
                let k = &t.spans[c];
                let kdur = k.dur_ns.unwrap();
                prop_assert!(k.start_ns >= s.start_ns, "child starts before parent");
                prop_assert!(k.start_ns + kdur <= end, "child ends after parent");
                kid_sum += kdur;
            }
            prop_assert!(
                kid_sum <= dur.unwrap(),
                "children of span {i} sum to {kid_sum}ns > parent {}ns",
                dur.unwrap()
            );
        }
    }
}
