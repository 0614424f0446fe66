//! What the always-on telemetry costs a statement, as exact counts —
//! ring records, clock reads and registry lookups — instead of a
//! wall-clock ratio against a switch that no longer exists. Every
//! counter involved is thread-local, so the tests here do not disturb
//! each other.

use aql_journal::{Record, Tag};
use aql_lang::session::Session;

/// The fixed statement: one run each of desugar, resolve, typecheck,
/// optimize and eval, and no rule to fire.
const STATEMENT: &str = "a[3];";
/// A statement whose optimization fires rules (E5, `β^p`: a subscript
/// of a tabulation never builds it — five firings).
const FIRING_STATEMENT: &str = "[[ i * i + 1 | \\i < 300 ]][17];";
/// Its phases in pipeline order, and the two the parser runs before
/// the statement exists.
const PHASES: [&str; 5] = ["desugar", "resolve", "typecheck", "optimize", "eval"];
const PARSER_PHASES: u64 = 2;

/// The rule-fire counters are process-wide, unlike every other count
/// here: the two tests whose statements fire rules take turns.
static FIRES_RULES: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn session() -> Session {
    let mut s = Session::new();
    s.run("val \\a = [[ i * i | \\i < 10 ]];").expect("bind");
    s
}

/// This thread's ring records of its most recent statement,
/// `StmtBegin` to `StmtEnd` inclusive.
fn last_statement_window() -> Vec<Record> {
    // A marker only this thread writes finds its ring among the
    // others'.
    let marker = aql_journal::intern(&format!("t_counts:{:?}", std::thread::current().id()));
    aql_journal::record(Tag::Incident, marker, 0, 0);
    let journal = aql_journal::snapshot();
    let me = journal.events.iter().find(|r| r.label == marker).expect("own marker").thread;
    let mut mine: Vec<Record> = journal.events.into_iter().filter(|r| r.thread == me).collect();
    mine.sort_by_key(|r| r.epoch);
    let end = mine.iter().rposition(|r| r.tag == Tag::StmtEnd).expect("a statement ran");
    let begin = mine[..end].iter().rposition(|r| r.tag == Tag::StmtBegin).expect("and began");
    mine[begin..=end].to_vec()
}

#[test]
fn a_statement_writes_one_record_per_phase_run_between_begin_and_end() {
    let mut s = session();
    s.run(STATEMENT).expect("query");
    let window = last_statement_window();
    let shape: Vec<(Tag, String)> = window.iter().map(|r| (r.tag, r.label_str())).collect();
    let mut want = vec![(Tag::StmtBegin, "query".to_string())];
    want.extend(PHASES.iter().map(|p| (Tag::Phase, p.to_string())));
    want.push((Tag::StmtEnd, "ok".to_string()));
    assert_eq!(shape, want, "StmtBegin + one Phase per phase run + StmtEnd, exactly");
    // The records are the statement's account: the ledger's phases are
    // these numbers, not a second measurement.
    let ledger = s.last_report().attribution[0].clone();
    let journaled: Vec<(String, u64)> = window
        .iter()
        .filter(|r| r.tag == Tag::Phase)
        .map(|r| (r.label_str(), r.a))
        .collect();
    assert_eq!(ledger.phases, journaled);
}

#[test]
fn a_phase_reads_the_clock_as_one_pair() {
    let mut s = session();
    s.run(STATEMENT).expect("warm-up");
    let phase_runs = PARSER_PHASES + PHASES.len() as u64;
    // Every ring record is stamped with one read; lex and parse are
    // journaled too (ahead of the statement).
    let records = phase_runs + 2;

    // Untraced: the statement's own pair, one pair per phase run, the
    // stamps — and nothing else.
    let before = aql_trace::clock_reads();
    s.run(STATEMENT).expect("untraced");
    assert_eq!(aql_trace::clock_reads() - before, 2 * (1 + phase_runs) + records);

    // Traced: every span reads the clock twice and the phase guards
    // take their durations from the spans, adding no read of their own
    // (`enable` reads the trace epoch once).
    let before = aql_trace::clock_reads();
    let (_, report) = s.profile(STATEMENT).expect("traced");
    let spans = report.trace.spans.len() as u64;
    assert!(spans > phase_runs, "the phases are spans: {spans}");
    assert_eq!(aql_trace::clock_reads() - before, 1 + 2 * spans + 2 + records);
}

#[test]
fn the_statement_path_looks_no_metric_up_after_the_first_statement() {
    let mut s = session();
    // The first run resolves the handles: per-kind statement counter,
    // per-phase histograms, statement latency, the governor gauges.
    s.run(STATEMENT).expect("first");
    let (registry, all) = (aql_journal::metrics::registry_locks(), aql_journal::lock_count());
    for _ in 0..3 {
        s.run(STATEMENT).expect("again");
    }
    assert_eq!(aql_journal::metrics::registry_locks(), registry, "no string-keyed registry lookup");
    assert_eq!(aql_journal::lock_count(), all, "and no label-table lock either");
    // A statement that fires rules resolves each `(phase, rule)` fire
    // counter at the rule's first firing; after that a firing is an
    // increment on a kept handle — no key formatted, no registry lock.
    let _turn = FIRES_RULES.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let fires = || aql_journal::metrics::family_total("aql_opt_rule_fires_total");
    let before = fires();
    s.run(FIRING_STATEMENT).expect("first firing run");
    let per_run = fires() - before;
    assert_eq!(per_run, 5, "E5 fires five rules");
    let (registry, all) = (aql_journal::metrics::registry_locks(), aql_journal::lock_count());
    for _ in 0..3 {
        s.run(FIRING_STATEMENT).expect("again");
    }
    assert_eq!(aql_journal::metrics::registry_locks(), registry, "a firing takes no registry lock");
    assert_eq!(aql_journal::lock_count(), all);
    // `family_total` itself locks, so the totals are read after the
    // lock counts: the handles count what the string-keyed lookups did.
    assert_eq!(fires() - before, 4 * per_run);
    // A failing statement resolves the error counter once, then is as
    // quiet.
    assert!(s.run("a[true];").is_err());
    let registry = aql_journal::metrics::registry_locks();
    assert!(s.run("a[true];").is_err());
    assert_eq!(aql_journal::metrics::registry_locks(), registry);
}

#[test]
fn trace_cost_does_not_grow_with_the_data_scanned() {
    use aql_core::types::Type;
    use aql_core::value::{ArrayVal, Value};
    use aql_store::{ChunkLayout, LazyArray, MemChunkSource, ScalarBuf, ScalarKind};

    let _turn = FIRES_RULES.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // `temp(time, lat, lon)` as a chunked lazy binding, and the subslab
    // scan over a window of `hours` time steps of the full grid.
    let dims = vec![1000u64, 5, 5];
    let cells = ScalarBuf::F64((0..25_000).map(f64::from).collect());
    let src = MemChunkSource::new(dims.clone(), cells).unwrap();
    let layout = ChunkLayout::row_major(dims, 4096).unwrap();
    let lazy = LazyArray::labeled(layout, ScalarKind::F64, Box::new(src), 4 << 20, "mem:temp");
    let mut s = Session::new();
    let t = Value::Array(std::rc::Rc::new(ArrayVal::lazy(lazy).unwrap()));
    s.bind_val_typed("T", t, Type::array(Type::Real, 3));
    let scan = |hours: u64| {
        format!("max!{{ T[400 + t, i, j] | \\t <- gen!{hours}, \\i <- gen!5, \\j <- gen!5 }};")
    };
    s.run(&scan(400)).expect("warm the cache");

    // (spans, clock reads) of one profiled scan.
    let mut cost = |hours: u64| {
        let before = aql_trace::clock_reads();
        let (_, report) = s.profile(&scan(hours)).expect("profiled scan");
        assert_eq!(s.last_stats().cache.misses, 0, "warm cache");
        assert!(report.trace.spans.iter().all(|s| s.dur_ns.is_some()), "no span left open");
        (report.trace.spans.len(), aql_trace::clock_reads() - before)
    };
    let small = cost(200);
    assert_eq!(cost(400), small, "twice the cells, the same spans and clock reads");
}
