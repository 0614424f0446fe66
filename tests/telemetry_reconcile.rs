//! One statement, one account (ROADMAP aim 4). A single
//! statement over a labelled lazy source — with one injected transient
//! fault and a cache small enough to evict — must read the *same
//! numbers* in every view an operator can open:
//!
//! * the statement's `EvalStats.cache` (its `QueryReport` entry),
//! * its attribution-ledger row,
//! * the flight recorder's window between its `StmtBegin` and
//!   `StmtEnd`, folded back through `Ledger::fold`,
//! * the `aql_store_*` process-metric deltas, and
//! * the doctor's dominant source (`diagnose_live_json`);
//!
//! and each phase's span duration, ledger entry and journal `Phase`
//! record must be one number, as must the statement span's duration,
//! its record's wall time and `StmtEnd`'s payload; the slow-query log's
//! line and the incident file read as the statement's `QueryReport`
//! entry, row and counts, since all are views of one finished-statement
//! record; a profile is the run's own report; as must the two profiles,
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
    ChunkLayout, Fault, FaultyChunkSource, LazyArray, MemChunkSource, ResiliencePolicy,
    ResilientSource, RetryPolicy, ScalarBuf, ScalarKind,
};

const LABEL: &str = "mem:reconcile";
const N: u64 = 64;

/// 64 reals in 16 four-element chunks behind a cache that holds
/// three, read through a source whose very first read fails
/// transiently.
fn bind_flaky(s: &mut Session) {
    let data = ScalarBuf::F64((0..N).map(|i| i as f64).collect());
    let plan = |op, _: &[u64]| (op == 0).then_some(Fault::Transient);
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

/// A slow-query-log sink the test keeps a handle on.
#[derive(Clone, Default)]
struct Sink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
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

    let t = &report.trace;

    // 1. The attribution ledger's row for the source.
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

    // 2. The journal window of this statement, folded back.
    let window = last_statement_window();
    let folded = Ledger::fold(&window);
    assert_eq!(folded.sources, ledger.sources, "journal window folds to the ledger's rows");
    assert_eq!(folded.phases, ledger.phases, "and to its phases");
    // The whole ledger, but the governor's peak, which no event carries.
    assert_eq!(&Ledger { governor_peak_bytes: ledger.governor_peak_bytes, ..folded }, ledger);
    assert_eq!(window.iter().filter(|r| r.tag == Tag::Retry).count(), 1);

    // 3. The process metrics moved by exactly as much, per source too.
    assert_eq!(moved, want, "aql_store_* deltas");
    let series = aql::metrics::counter_with(
        "aql_store_cache_bytes_read_total",
        &[("source", LABEL)],
        "",
    );
    assert_eq!(series.get(), cache.bytes_read);

    // 4. The doctor names the same source with the same bytes, from the
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

    // 5. Each phase is one number: the span's duration, the ledger's
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

    // 6. The flamegraph is the trace, folded: each stack weighs the
    //    self time of the spans on its path, and nothing is lost.
    let profile = aql_trace::profile::Profile::from_trace(t);
    let mut self_times = std::collections::BTreeMap::new();
    for (i, span) in t.spans.iter().enumerate() {
        let mut path = span.name.to_string();
        let mut up = span.parent;
        while let Some(p) = up {
            path = format!("{};{path}", t.spans[p].name);
            up = t.spans[p].parent;
        }
        let in_children: u64 = t.spans.iter().filter(|c| c.parent == Some(i)).filter_map(|c| c.dur_ns).sum();
        *self_times.entry(path).or_insert(0) += span.dur_ns.expect("closed") - in_children;
    }
    assert_eq!(profile.folded(), &self_times, "flamegraph vs span self times");
    let roots: u64 = t.spans.iter().filter(|s| s.parent.is_none()).filter_map(|s| s.dur_ns).sum();
    assert_eq!(profile.total_ns(), roots, "the stacks sum to the root spans");
    for stack in ["statement", "statement;eval", "statement;eval;cache.load", "parse;lex"] {
        assert!(profile.folded().contains_key(stack), "`{stack}` in {:?}", profile.folded());
    }

    // 7. The live profile is the flight recorder, folded: the ledger's
    //    phases under `statement`, which keeps the rest of `StmtEnd`.
    let mut live = window_journal.folded();
    let ended = window.last().expect("StmtEnd").b;
    let in_phases: u64 = ledger.phases.iter().map(|(_, ns)| ns).sum();
    assert_eq!(live.remove(0), ("statement".to_string(), ended - in_phases));
    let under_statement: Vec<(String, u64)> =
        ledger.phases.iter().map(|(p, ns)| (format!("statement;{p}"), *ns)).collect();
    assert_eq!(live, under_statement);

    // A plain run is the same account: the statement is slow at
    // threshold 0, so it also writes a slow-log line and a slow
    // incident.
    let sink = Sink::default();
    let dir = std::env::temp_dir().join(format!("aql-reconcile-{}", std::process::id()));
    s.enable_slow_log(Box::new(sink.clone()), Duration::ZERO);
    s.enable_incidents(&dir);
    s.run(stmt).expect("a plain run");
    let report = s.last_report();
    let (stats, ledger, t) = (&report.statements[0], &report.attribution[0], &report.trace);
    let window = last_statement_window();
    let journaled: Vec<(String, u64)> =
        window.iter().filter(|r| r.tag == Tag::Phase).map(|r| (r.label_str(), r.a)).collect();
    assert_eq!(ledger.phases, journaled);
    assert!(ledger.phases.iter().all(|(_, ns)| *ns > 0));
    for (phase, ns) in &ledger.phases {
        assert_eq!(t.find(phase).and_then(|span| span.dur_ns), Some(*ns), "span `{phase}` vs ledger");
    }
    let statement = t.find("statement").and_then(|span| span.dur_ns).expect("a statement span");
    assert_eq!(window.last().map(|r| (r.tag, r.b)), Some((Tag::StmtEnd, statement)), "StmtEnd vs span");

    // 8. The slow-query log's line is the report's entry and row.
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let line = Json::parse(text.lines().last().expect("a slow-log line")).expect("JSON");
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("{k}"));
    let c = &stats.cache;
    let cache = line.get("cache").expect("cache");
    assert_eq!(
        ["hits", "misses", "evictions", "bytes_read", "prefetched_bytes", "load_errors"]
            .map(|k| num(cache, k)),
        [c.hits, c.misses, c.evictions, c.bytes_read, c.prefetched_bytes, c.load_errors],
        "slow-log cache"
    );
    let eval = line.get("eval").expect("eval");
    assert_eq!(
        ["steps", "subscripts", "materialized"].map(|k| num(eval, k)),
        [stats.steps, stats.subscripts, stats.materialized],
        "slow-log eval"
    );
    assert_eq!(num(&line, "dur_ns"), statement, "slow-log wall time vs span");
    let phases = line.get("phases").expect("phases");
    assert_eq!(
        ledger.phases.iter().map(|(p, _)| (p.clone(), num(phases, p))).collect::<Vec<_>>(),
        ledger.phases,
        "slow-log phases"
    );
    assert!(matches!(phases, Json::Obj(m) if m.len() == ledger.phases.len()));

    // 9. The incident file the line links carries the same row.
    let path = s.last_incident_path().expect("a slow incident");
    assert_eq!(line.get("incident").and_then(Json::as_str), Some(path.display().to_string().as_str()));
    let incident = aql::journal::incident::Incident::load(&path).expect("the incident loads");
    assert_eq!(incident.attribution.as_ref(), Some(ledger), "incident attribution");
    assert_eq!(incident.dur_ns, statement, "incident wall time vs span");

    // 10. Its counts are the ones `\profile` prints, nonzero, under
    //     `<group>.<name>`.
    let mut printed = Vec::new();
    let rendered = report.render_profile(true);
    for line in rendered.lines().skip_while(|l| !l.starts_with("stmt 0:")).skip(1) {
        let (group, fields) = line.trim().split_once(": ").expect("a `group: name=value …` line");
        for (name, v) in fields.split(' ').filter_map(|f| f.split_once('=')) {
            let v: u64 = v.parse().expect("a count");
            if v > 0 {
                printed.push((format!("{group}.{name}"), v));
            }
        }
    }
    assert!(printed.contains(&("cache.misses".to_string(), stats.cache.misses)), "{rendered}");
    assert_eq!(incident.metrics_delta, printed, "incident counts vs \\profile");
    std::fs::remove_dir_all(&dir).ok();
    s.disable_slow_log();
    s.disable_incidents();

    // 11. A profile is the run and its report: a plain run records the
    //     tree `profile` returns, span for span.
    let shape = |t: &aql::trace::Trace| -> Vec<(&'static str, Option<usize>, Option<String>)> {
        let note = |s: &aql::trace::SpanRec| s.note.as_ref().map(|(k, v)| format!("{k}={}", &**v));
        t.spans.iter().map(|s| (s.name, s.parent, note(s))).collect()
    };
    let program = "val \\a = [[ i * i | \\i < 10 ]]; a[3]; summap(fn \\x => x)!(gen!20);";
    s.run(program).expect("a plain run");
    let ran = s.last_report();
    let (_, profiled) = s.profile(program).expect("a profile");
    assert_eq!(shape(&ran.trace), shape(&profiled.trace));
    assert_eq!(profiled, s.last_report(), "profile returns run's report");
    let roots: Vec<&str> = ran.trace.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.name).collect();
    assert_eq!(roots, ["parse", "statement", "statement", "statement"]);
}
