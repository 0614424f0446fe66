//! One statement, one account (ROADMAP aim 4). A single profiled
//! statement over a labelled lazy source — with one injected transient
//! fault and a cache small enough to evict — must read the *same
//! numbers* in every view an operator can open:
//!
//! * the trace tree's counters (`QueryReport.trace`),
//! * the statement's `EvalStats.cache`,
//! * its attribution-ledger row,
//! * the flight recorder's window between its `StmtBegin` and
//!   `StmtEnd`, folded back through `Ledger::fold`,
//! * the `aql_store_*` process-metric deltas, and
//! * the doctor's dominant source (`diagnose_live_json`);
//!
//! and each phase's span duration, ledger entry and journal `Phase`
//! record must be one number, traced or not — as must the two profiles,
//! which are folds of those accounts: the flamegraph of the trace
//! weighs each span path its exact self time, and the flight recorder's
//! window folds to the ledger's phases under `statement`. Every one of these is fed
//! by one `aql_journal::emit` per event, so a disagreement is a bug in
//! the spine's table, not in some call site's arithmetic.
//!
//! One test in its own binary: the process metrics and the ring are
//! then this statement's alone, and every comparison is exact.

use std::rc::Rc;
use std::time::Duration;

use aql::journal::attr::Ledger;
use aql::journal::{doctor, Journal, Record, Tag};
use aql::lang::session::Session;
use aql::trace::json::Json;
use aql_core::types::Type;
use aql_core::value::array::ArrayVal;
use aql_core::value::Value;
use aql_store::{
    ChunkFaultPlan, ChunkLayout, FaultyChunkSource, LazyArray, MemChunkSource, ResiliencePolicy,
    ResilientSource, RetryPolicy, ScalarBuf, ScalarKind,
};

const LABEL: &str = "mem:reconcile";
const N: u64 = 64;

/// 64 reals in 16 four-element chunks behind a cache that holds
/// three, read through a source whose very first read fails
/// transiently.
fn bind_flaky(s: &mut Session) {
    let data = ScalarBuf::F64((0..N).map(|i| i as f64).collect());
    let plan = ChunkFaultPlan {
        transient_ops: [0u64].into_iter().collect(),
        ..ChunkFaultPlan::default()
    };
    let policy = ResiliencePolicy {
        retry: RetryPolicy {
            base: Duration::ZERO,
            max: Duration::ZERO,
            jitter: 0.0,
            ..RetryPolicy::default()
        },
        ..ResiliencePolicy::default()
    };
    let mem = MemChunkSource::new(vec![N], data).unwrap();
    let src = ResilientSource::new(FaultyChunkSource::new(mem, plan), LABEL, policy);
    let layout = ChunkLayout::new(vec![N], vec![4]).unwrap();
    let lazy = LazyArray::labeled(layout, ScalarKind::F64, Box::new(src), 3 * 32, LABEL);
    let value = Value::Array(Rc::new(ArrayVal::lazy(lazy).unwrap()));
    s.bind_val_typed("sst", value, Type::array1(Type::Real));
}

fn metric(name: &str) -> u64 {
    aql::metrics::counter(name, "").get()
}

/// The calling thread's ring records of its most recent statement,
/// `StmtBegin` to `StmtEnd` inclusive.
fn last_statement_window() -> Vec<Record> {
    let marker = aql::journal::intern("t_reconcile:marker");
    aql::journal::record(Tag::Incident, marker, 0, 0);
    let journal = aql::journal::snapshot();
    let me = journal.events.iter().rfind(|r| r.label == marker).expect("own marker").thread;
    let mut mine: Vec<Record> = journal.events.into_iter().filter(|r| r.thread == me).collect();
    mine.sort_by_key(|r| r.epoch);
    let end = mine.iter().rposition(|r| r.tag == Tag::StmtEnd).expect("a statement ran");
    let begin = mine[..end].iter().rposition(|r| r.tag == Tag::StmtBegin).expect("and began");
    mine[begin..=end].to_vec()
}

#[test]
fn one_statement_reads_the_same_in_every_view() {
    let mut s = Session::new();
    bind_flaky(&mut s);
    // The sum runs as a kernel over one window of `sst` — sixteen
    // chunk loads in order through a three-chunk cache — and the three
    // subscripts after it find chunk 15 resident (two hits) and chunk 0
    // long gone (one more load).
    let stmt = "summap(fn \\i => sst[i])!(gen!64) + sst[63] + sst[62] + sst[0];";

    let families = [
        "aql_store_cache_hits_total",
        "aql_store_cache_misses_total",
        "aql_store_cache_evictions_total",
        "aql_store_cache_bytes_read_total",
        "aql_store_cache_prefetched_bytes_total",
        "aql_store_cache_load_errors_total",
        "aql_store_resilience_retries_total",
    ];
    let before = families.map(metric);
    let (outcomes, report) = s.profile(stmt).expect("the retry repairs the one fault");
    let moved: Vec<u64> = families.iter().zip(before).map(|(f, b)| metric(f) - b).collect();
    let sum = (0..N).sum::<u64>() + 63 + 62;
    assert_eq!(outcomes[0].value, Some(Value::Real(sum as f64)));

    // The numbers, as the statement's own stats have them — and what
    // they must be for this access pattern.
    let cache = report.statements[0].cache;
    assert_eq!((cache.hits, cache.misses, cache.evictions), (2, 17, 14));
    assert_eq!((cache.bytes_read, cache.prefetched_bytes, cache.load_errors), (17 * 32, 0, 0));
    let want = vec![cache.hits, cache.misses, cache.evictions, cache.bytes_read, 0, 0, 1];

    // 1. The trace tree's counters.
    let t = &report.trace;
    let traced: Vec<u64> = [
        "cache.hits",
        "cache.misses",
        "cache.evictions",
        "cache.bytes_read",
        "cache.prefetched_bytes",
        "cache.load_errors",
        "chunks.retries",
    ]
    .iter()
    .map(|name| t.total_counter(name))
    .collect();
    assert_eq!(traced, want, "trace counters");

    // 2. The attribution ledger's row for the source.
    let ledger = &report.attribution[0];
    assert_eq!(ledger.sources.len(), 1, "{ledger:?}");
    let (label, row) = &ledger.sources[0];
    assert_eq!(label, LABEL);
    let row_view = vec![
        row.hits,
        row.chunks_loaded + row.load_errors,
        row.evictions,
        row.bytes_read,
        row.prefetched_bytes,
        row.load_errors,
        row.retries,
    ];
    assert_eq!(row_view, want, "ledger row");

    // 3. The journal window of this statement, folded back.
    let window = last_statement_window();
    let folded = Ledger::fold(&window);
    assert_eq!(folded.sources, ledger.sources, "journal window folds to the ledger's rows");
    assert_eq!(folded.phases, ledger.phases, "and to its phases");
    assert_eq!(
        (folded.governor_sheds, folded.governor_denials),
        (ledger.governor_sheds, ledger.governor_denials)
    );
    assert_eq!(window.iter().filter(|r| r.tag == Tag::Retry).count(), 1);

    // 4. The process metrics moved by exactly as much, per source too.
    assert_eq!(moved, want, "aql_store_* deltas");
    let series = aql::metrics::counter_with(
        "aql_store_cache_bytes_read_total",
        &[("source", LABEL)],
        "",
    );
    assert_eq!(series.get(), cache.bytes_read);

    // 5. The doctor names the same source with the same bytes, from the
    //    ledger and from the window alone.
    let window_journal = Journal { events: window.clone() };
    for diagnosis in [
        doctor::diagnose_live_json(&aql::journal::snapshot(), Some(ledger)),
        doctor::diagnose_live_json(&window_journal, None),
    ] {
        let j = Json::parse(&diagnosis).expect("doctor JSON");
        let dominant = j.get("dominant_source").expect("dominant_source");
        assert_eq!(dominant.get("label").and_then(Json::as_str), Some(LABEL));
        assert_eq!(dominant.get("bytes").and_then(Json::as_u64), Some(cache.bytes_read));
        assert_eq!(j.get("failing_source").and_then(Json::as_str), Some(LABEL), "the retry");
    }

    // 6. Each phase is one number: the span's duration, the ledger's
    //    entry and the journal's record.
    let names: Vec<&str> = ledger.phases.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(names, ["desugar", "resolve", "typecheck", "optimize", "eval"]);
    for (phase, ns) in &ledger.phases {
        let span = t.find(phase).unwrap_or_else(|| panic!("span `{phase}`"));
        assert_eq!(span.dur_ns, Some(*ns), "span `{phase}` vs ledger");
        let record = window
            .iter()
            .find(|r| r.tag == Tag::Phase && r.label_str() == *phase)
            .unwrap_or_else(|| panic!("journal record for `{phase}`"));
        assert_eq!(record.a, *ns, "journal `{phase}` vs ledger");
    }

    // 7. The flamegraph is the trace, folded: each stack weighs the
    //    self time of the spans on its path, and nothing is lost.
    let profile = aql_trace::profile::Profile::from_trace(t);
    let mut self_times = std::collections::BTreeMap::new();
    for (i, span) in t.spans.iter().enumerate() {
        let mut path = span.name.clone();
        let mut up = span.parent;
        while let Some(p) = up {
            path = format!("{};{path}", t.spans[p].name);
            up = t.spans[p].parent;
        }
        let in_children: u64 = t.children(i).iter().filter_map(|&c| t.spans[c].dur_ns).sum();
        *self_times.entry(path).or_insert(0) += span.dur_ns.expect("closed") - in_children;
    }
    assert_eq!(profile.folded(), &self_times, "flamegraph vs span self times");
    let roots: u64 = t.roots().iter().filter_map(|&r| t.spans[r].dur_ns).sum();
    assert_eq!(profile.total_ns(), roots, "the stacks sum to the root spans");
    for stack in ["statement", "statement;eval", "statement;eval;cache.load", "parse;lex"] {
        assert!(profile.folded().contains_key(stack), "`{stack}` in {:?}", profile.folded());
    }

    // 8. The live profile is the flight recorder, folded: the ledger's
    //    phases under `statement`, which keeps the rest of `StmtEnd`.
    let mut live = window_journal.folded();
    let ended = window.last().expect("StmtEnd").b;
    let in_phases: u64 = ledger.phases.iter().map(|(_, ns)| ns).sum();
    assert_eq!(live.remove(0), ("statement".to_string(), ended - in_phases));
    let under_statement: Vec<(String, u64)> =
        ledger.phases.iter().map(|(p, ns)| (format!("statement;{p}"), *ns)).collect();
    assert_eq!(live, under_statement);

    // Untraced, the guard's own clock pair is the one number.
    s.run(stmt).expect("untraced");
    let ledger = &s.statement_attribution()[0];
    let journaled: Vec<(String, u64)> = last_statement_window()
        .iter()
        .filter(|r| r.tag == Tag::Phase)
        .map(|r| (r.label_str(), r.a))
        .collect();
    assert_eq!(ledger.phases, journaled);
    assert!(ledger.phases.iter().all(|(_, ns)| *ns > 0));
}
