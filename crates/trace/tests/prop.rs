//! Property tests for the span recorder: under randomly generated
//! nesting programs run in a scope, the recorded tree preserves event
//! order, child intervals nest inside their parents, the summed
//! durations of direct children never exceed the parent's duration,
//! and each span's duration is the one its guard's `finish` returned.

use proptest::prelude::*;

use aql_trace::{Scope, SpanGuard, Trace};

/// A small program over the recorder: open a span (push) or close
/// the innermost (pop). Interpreted against a guard stack; guards close
/// in LIFO order so the trace is well-nested.
#[derive(Debug, Clone)]
enum Op {
    Open(usize),
    Close,
}

/// Static span-name pool (spans take `&'static str`).
const NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Run `ops` in a scope: the tree it recorded, and the duration each
/// span's `finish` returned, in close order.
fn run_program(ops: &[Op]) -> (Trace, Vec<u64>) {
    let scope = Scope::open(Trace::default());
    let mut stack: Vec<SpanGuard> = Vec::new();
    let mut finished = Vec::new();
    for op in ops {
        match op {
            Op::Open(n) => stack.push(aql_trace::span(NAMES[n % NAMES.len()])),
            Op::Close => finished.extend(stack.pop().map(SpanGuard::finish)),
        }
    }
    // Close everything that is still open, innermost first.
    while let Some(g) = stack.pop() {
        finished.push(g.finish());
    }
    (scope.close(), finished)
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
        let (t, _) = run_program(&ops);
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
        let (t, _) = run_program(&ops);
        for (i, s) in t.spans.iter().enumerate() {
            let dur = s.dur_ns;
            prop_assert!(dur.is_some(), "span {i} never closed");
            let end = s.start_ns + dur.unwrap();
            let mut kid_sum = 0u64;
            for k in t.spans.iter().filter(|k| k.parent == Some(i)) {
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

    /// The tree holds the numbers the guards handed out: every span's
    /// duration is what its `finish` returned, and recording costs two
    /// clock reads a span, whatever the nesting.
    #[test]
    fn a_span_is_one_clock_pair_and_one_number(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        let before = aql_trace::clock_reads();
        let (t, mut finished) = run_program(&ops);
        prop_assert_eq!(aql_trace::clock_reads() - before, 2 * t.spans.len() as u64);
        let mut recorded: Vec<u64> = t.spans.iter().map(|s| s.dur_ns.unwrap()).collect();
        recorded.sort_unstable();
        finished.sort_unstable();
        prop_assert_eq!(recorded, finished);
    }
}
