//! The chaos harness: seeded end-to-end runs of the query corpus
//! under randomized fault schedules (ISSUE 6 acceptance criteria).
//!
//! Invariants asserted on every fixed seed:
//!
//! * **zero panics** — any panic fails the test outright;
//! * **classified errors** — every surfaced failure is one of the
//!   taxonomy's variants (storage I/O, corruption, deadline,
//!   cancellation), never an internal error;
//! * **no cache poisoning** — a value served `Ok` always equals the
//!   fault-free ground truth, even right after corruption faults;
//! * **recovery** — once the fault schedule clears, the first clean
//!   read serves: no state of a failed read outlives it;
//! * **session survival** — a statement killed by an exhausted
//!   `Limits` budget (class `resource-exhausted`), or by any fault,
//!   leaves the session able to answer the next one.
//!
//! Every fault comes from `FaultyChunkSource`, the one injector, under
//! a schedule: [`seeded`] draws per operation index from `splitmix64`
//! keyed on `(seed, op)`, so failures reproduce exactly; the targeted
//! cases name their operations. NetCDF bindings go through
//! `common::ScheduledNetcdf`: the stock reader's binding with the
//! injector between the chunk source and the resilience stack. Tests
//! serialize on [`GOV`]: the metrics registry is process state.

mod common;

use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use aql_core::error::EvalError;
use aql_core::eval::Limits;
use aql_core::value::Value;
use aql_lang::errors::LangError;
use aql_lang::reader::Reader;
use aql_lang::session::Session;
use aql_netcdf::driver::{register_netcdf, NetcdfSlabReader};
use aql_store::fault::{splitmix64, unit};
use aql_journal::ErrorClass;
use aql_store::{
    ChunkLayout, ChunkSource, Fault, FaultyChunkSource, LazyArray,
    MemChunkSource, ResiliencePolicy, ResilientSource, RetryPolicy, Scalar, ScalarBuf, ScalarKind,
    StoreError,
};

use common::ScheduledNetcdf;

/// The acceptance criteria ask for ≥ 3 fixed seeds.
const SEEDS: [u64; 3] = [1, 7, 42];

/// Serializes tests: the metric counters are process-wide.
static GOV: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GOV.lock().unwrap_or_else(|e| e.into_inner())
}

/// Ground truth for the store-level array: row-major iota over 32×32.
fn truth(i: u64, j: u64) -> f64 {
    (i * 32 + j) as f64
}

/// A deterministic in-memory source over the ground-truth function.
struct IotaSource;

impl ChunkSource for IotaSource {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let mut out = Vec::with_capacity((count[0] * count[1]) as usize);
        for i in start[0]..start[0] + count[0] {
            for j in start[1]..start[1] + count[1] {
                out.push(truth(i, j));
            }
        }
        Ok(ScalarBuf::F64(out))
    }
}

/// Fast schedules for tests: no real sleeping in backoff.
fn fast_retry() -> RetryPolicy {
    RetryPolicy { base: Duration::ZERO, max: Duration::ZERO, jitter: 0.0, ..RetryPolicy::default() }
}

/// How often a seeded schedule injects each fault, and when it stops.
#[derive(Clone, Copy)]
struct Rates {
    transient: f64,
    corrupt: f64,
    latency: f64,
    stall: Duration,
    /// From this operation on no fault fires: the outage ends.
    clear_after: u64,
}

/// The store-level run's rates.
const STORE: Rates = Rates {
    transient: 0.25,
    corrupt: 0.15,
    latency: 0.02,
    stall: Duration::from_micros(200),
    clear_after: 600,
};

/// The session-level run's rates.
const SESSION: Rates = Rates {
    transient: 0.3,
    corrupt: 0.2,
    latency: 0.0,
    stall: Duration::ZERO,
    clear_after: 40,
};

/// A seeded schedule: operation `op` draws from `splitmix64` keyed on
/// `(seed, op)`, so its fault depends on neither thread interleaving
/// nor how many draws earlier operations took. Each nonzero rate takes
/// one draw, in the order transient, corruption, latency; the first
/// draw under its rate is the fault.
fn seeded(seed: u64, rates: Rates) -> impl FnMut(u64, &[u64]) -> Option<Fault> {
    move |op, _| {
        if op >= rates.clear_after {
            return None;
        }
        let mut state = seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let mut fires = |rate: f64| rate > 0.0 && unit(&mut state) < rate;
        if fires(rates.transient) {
            Some(Fault::Transient)
        } else if fires(rates.corrupt) {
            Some(Fault::Corrupt)
        } else if fires(rates.latency) {
            Some(Fault::Latency(rates.stall))
        } else {
            None
        }
    }
}

/// The first 64 operations of every seeded schedule this suite runs,
/// and the cell a corrupting read flips for operations 0..16 of a
/// 4,096-cell chunk, as the seeded fault plan and the vendored `rand`
/// stand-in drew them before both were replaced by schedules and
/// `splitmix64` (`.` clean, `T` transient, `C` corrupt, `L` latency).
#[test]
fn the_seeded_draws_are_the_pinned_table() {
    let pinned = [
        (STORE, 1, ".TT..T.T.T........T....T.....TT...T.T.TT..CC.T...C.C.T...T...T.C"),
        (STORE, 7, "C.T.TT.T..C.......T..TT...TT....T..TTTT..CC.CT.L..T..TT.T.TC.T.."),
        (STORE, 42, ".TT....T...CT...TTTT..T..C.TCT.TT..T......TTC........CC.....CC.."),
        (SESSION, 1, ".TT..T.T.T........T....T.T...TT...T.T.TT........................"),
        (SESSION, 7, "CCT.TT.T..TT......TC.TT.C.TT.C.CT.TTTTT........................."),
        (SESSION, 42, "CTT....T...CT...TTTT..T..C.TCT.TT..T..TT........................"),
    ];
    for (rates, seed, want) in pinned {
        let mut schedule = seeded(seed, rates);
        let got: String = (0..64)
            .map(|op| match schedule(op, &[0]) {
                None => '.',
                Some(Fault::Transient) => 'T',
                Some(Fault::Persistent) => 'P',
                Some(Fault::Corrupt) => 'C',
                Some(Fault::Latency(_)) => 'L',
            })
            .collect();
        assert_eq!(got, want, "seed {seed}");
    }

    let zeros = MemChunkSource::new(vec![4096], ScalarBuf::F64(vec![0.0; 4096])).unwrap();
    let mut src = FaultyChunkSource::new(zeros, |_, _: &[u64]| Some(Fault::Corrupt));
    let flipped: Vec<usize> = (0..16)
        .map(|_| match src.read_chunk(&[0], &[4096]).unwrap() {
            ScalarBuf::F64(cells) => cells.iter().position(|&x| x != 0.0).expect("a flipped cell"),
            other => panic!("read back {other:?}"),
        })
        .collect();
    let pinned =
        [715, 391, 674, 4044, 2804, 1222, 2002, 2164, 397, 3271, 742, 3847, 230, 23, 2969, 2312];
    assert_eq!(flipped, pinned);
}

/// The full store-level chaos run for one seed.
fn store_chaos_run(seed: u64) {
    let policy = ResiliencePolicy { retry: fast_retry() };
    let source = ResilientSource::new(
        FaultyChunkSource::new(IotaSource, seeded(seed, STORE)),
        format!("chaos:iota:{seed}"),
        policy,
    );
    let layout = ChunkLayout::new(vec![32, 32], vec![8, 8]).unwrap();
    // Cache holds 4 of the 16 chunks: constant miss pressure keeps the
    // fault schedule advancing.
    let mut a = LazyArray::new(layout, ScalarKind::F64, Box::new(source), 4 * 8 * 8 * 8);

    let injected_before = aql::metrics::family_total("aql_store_chaos_injected_total");
    let mut probe = seed.wrapping_mul(1000) + 1;
    let mut errors = 0u64;
    for _ in 0..400 {
        let (i, j) = (splitmix64(&mut probe) % 32, splitmix64(&mut probe) % 32);
        match a.get(&[i, j]) {
            Ok(Some(Scalar::F64(x))) => {
                assert_eq!(x, truth(i, j), "seed {seed}: wrong value served at ({i}, {j})");
            }
            Ok(other) => panic!("seed {seed}: in-bounds probe returned {other:?}"),
            // Classified-or-bust: shape errors or internal weirdness
            // would fall through to the panic arm.
            Err(StoreError::Io { .. } | StoreError::Corrupt(_)) => errors += 1,
            Err(other) => panic!("seed {seed}: unclassified failure {other}"),
        }
    }
    assert!(
        aql::metrics::family_total("aql_store_chaos_injected_total") > injected_before,
        "seed {seed}: the schedule injected no faults — the run proved nothing"
    );

    // Recovery: the schedule clears at op 600; every sweep advances the
    // op counter (≥12 misses per sweep with a 4-chunk cache), so a
    // bounded number of sweeps reaches the fault-free regime.
    let mut clean = false;
    'sweeps: for _ in 0..100 {
        for i in 0..32 {
            for j in 0..32 {
                match a.get(&[i, j]) {
                    Ok(Some(Scalar::F64(x))) => {
                        assert_eq!(x, truth(i, j), "seed {seed}: poisoned value after faults");
                    }
                    Ok(other) => panic!("seed {seed}: in-bounds sweep returned {other:?}"),
                    Err(_) => continue 'sweeps,
                }
            }
        }
        clean = true;
        break;
    }
    assert!(clean, "seed {seed}: no clean sweep after the fault schedule cleared");
    let _ = errors; // error count is schedule-dependent; the invariants above are what matter
}

#[test]
fn store_chaos_classified_errors_no_poisoning_and_recovery() {
    let _g = lock();
    for seed in SEEDS {
        store_chaos_run(seed);
    }
}

/// Build a session with a 40×40 NetCDF file bound as ground truth and
/// return (session, file path, temp dir). Values are `i*7 + j`.
fn netcdf_session(tag: &str) -> (Session, String, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "aql-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.nc");
    let p = path.to_str().unwrap().to_string();
    let mut s = Session::new();
    // The outcome preview renders array entries, each costing a chunk
    // read; limit 0 still probes exactly one element. Tests below
    // account for that single bind-time read (fault-schedule op 0).
    s.display_limit = 0;
    register_netcdf(&mut s);
    s.run(&format!(
        "val \\M = [[ (i * 7 + j) | \\i < 40, \\j < 40 ]];
         writeval M using NETCDF at (\"{p}\", \"grid\");"
    ))
    .unwrap();
    (s, p, dir)
}

fn bind_chaos(s: &mut Session, p: &str, reader: impl Reader + 'static) {
    s.register_reader("NETCDF2", Rc::new(reader));
    s.run(&format!(
        "readval \\T using NETCDF2 at (\"{p}\", \"grid\", (0, 0), (39, 39));"
    ))
    .unwrap();
}

/// Session-level chaos for one seed: randomized faults on the chunk
/// path, mixed query corpus, every error classified, every Ok value
/// exact, session survives everything.
fn session_chaos_run(seed: u64) {
    let (mut s, p, dir) = netcdf_session("rand");
    let mut reader = ScheduledNetcdf::new(2, seeded(seed, SESSION));
    reader.stock.resilience =
        Some(ResiliencePolicy { retry: RetryPolicy { attempts: 2, ..fast_retry() } });
    // Cache budget below the single 12.8 KB chunk is still fine (an
    // oversized chunk stays resident); what matters is that failed
    // loads are never cached, so every failing statement re-drives the
    // fault schedule.
    bind_chaos(&mut s, &p, reader);

    // The corpus: point probe, column projection, pure arithmetic.
    let corpus: [(&str, Value); 3] = [
        ("T[2, 3]", Value::Real(17.0)),
        ("len!(proj_col!(T, 0))", Value::Nat(40)),
        ("1 + 2", Value::Nat(3)),
    ];
    let mut failures = 0u64;
    let mut successes = 0u64;
    for round in 0..30 {
        let (q, want) = &corpus[round % corpus.len()];
        match s.eval_query(q) {
            Ok((_, v)) => {
                assert_eq!(&v, want, "seed {seed}: wrong answer for `{q}`");
                successes += 1;
            }
            Err(LangError::Eval(
                EvalError::Storage { .. }
                | EvalError::Deadline
                | EvalError::Cancelled,
            )) => failures += 1,
            Err(other) => panic!("seed {seed}: unclassified session error: {other}"),
        }
    }
    assert!(successes > 0, "seed {seed}: session never answered");
    // The schedule clears at op 40; by then the chunk is cached and
    // every statement must succeed.
    for (q, want) in &corpus {
        let (_, v) = s.eval_query(q).unwrap_or_else(|e| {
            panic!("seed {seed}: `{q}` still failing after faults cleared: {e}")
        });
        assert_eq!(&v, want, "seed {seed}: wrong answer after recovery for `{q}`");
    }
    let _ = failures;
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_chaos_survives_and_answers_exactly() {
    let _g = lock();
    for seed in SEEDS {
        session_chaos_run(seed);
    }
}

#[test]
fn an_outage_ends_at_the_first_clean_read() {
    let _g = lock();
    let (mut s, p, dir) = netcdf_session("outage");
    // Every chunk read fails until op 10, then the outage clears. The
    // bind's preview spends op 0; each statement after it one read.
    let mut reader = ScheduledNetcdf::new(2, |op, _| (op < 10).then_some(Fault::Transient));
    reader.stock.resilience =
        Some(ResiliencePolicy { retry: RetryPolicy { attempts: 1, ..fast_retry() } });
    bind_chaos(&mut s, &p, reader);

    for op in 1..10 {
        let err = s.eval_query("T[1, 1]").expect_err("the schedule still faults");
        assert_eq!(err.class(), ErrorClass::TransientIo, "op {op}: {err}");
    }
    // Op 10 is the first clean read, and it serves.
    let (_, v) = s.eval_query("T[1, 1]").expect("the outage has ended");
    assert_eq!(v, Value::Real(8.0));
    // Recovered for good: the chunk is cached, statements keep
    // answering.
    let (_, v) = s.eval_query("T[3, 4]").unwrap();
    assert_eq!(v, Value::Real(25.0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resource_exhausted_kills_the_statement_not_the_session() {
    let _g = lock();
    let (mut s, p, dir) = netcdf_session("limits");
    bind_chaos(&mut s, &p, NetcdfSlabReader::lazy(2));
    // Sanity: the binding answers before the budget shrinks.
    let (_, v) = s.eval_query("T[0, 5]").unwrap();
    assert_eq!(v, Value::Real(5.0));

    s.limits = Limits { max_elems: 1024, ..Limits::default() };
    // 100k elements could never fit a 1,024-element budget: the
    // statement dies with the classified error... (`val` forces
    // materialization; a bare `len!` of a comprehension gets rewritten
    // to its bound and never allocates.)
    let err = s.run("val \\X = [[ i | \\i < 100000 ]];").unwrap_err();
    assert_eq!(err.class(), ErrorClass::ResourceExhausted, "{err}");
    match err {
        LangError::Eval(EvalError::ResourceLimit { requested, limit }) => {
            assert_eq!(requested, 100_000);
            assert_eq!(limit, 1024);
        }
        other => panic!("expected ResourceLimit, got {other}"),
    }
    s.limits = Limits::default();
    // ...and the session, its bindings, and the cache all survive.
    let (_, v) = s.eval_query("T[2, 2]").unwrap();
    assert_eq!(v, Value::Real(16.0));
    let (_, v) = s.eval_query("len!([[ i | \\i < 100 ]])").unwrap();
    assert_eq!(v, Value::Nat(100));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_latency_cannot_outlive_the_deadline() {
    let _g = lock();
    let (mut s, p, dir) = netcdf_session("deadline");
    // Binding a value renders a preview, which costs exactly one read
    // (op 0): fail it fast so nothing gets cached at bind time. Op 1 —
    // the first real probe — stalls 30 s; only the interrupt hooks can
    // save the statement.
    let mut reader = ScheduledNetcdf::new(2, |op, _| match op {
        0 => Some(Fault::Transient),
        1 => Some(Fault::Latency(Duration::from_secs(30))),
        _ => None,
    });
    reader.stock.resilience = Some(ResiliencePolicy {
        retry: RetryPolicy { attempts: 1, ..fast_retry() },
    });
    bind_chaos(&mut s, &p, reader);

    s.limits.timeout = Some(Duration::from_millis(20));
    let t0 = std::time::Instant::now();
    let err = s.eval_query("T[1, 0]").unwrap_err();
    assert!(
        matches!(err, LangError::Eval(EvalError::Deadline)),
        "expected Deadline, got {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the deadline fired late: {:?}",
        t0.elapsed()
    );
    // Op 2 is clean; with the deadline lifted the same statement
    // succeeds and the session moves on.
    s.limits.timeout = None;
    let (_, v) = s.eval_query("T[1, 0]").unwrap();
    assert_eq!(v, Value::Real(7.0));
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end flight-recorder acceptance: an injected-fault chaos run
/// must dump an incident file, and `\doctor` on that file must name
/// the failing source label and the fault class — the full pipeline
/// from fault injection through retry exhaustion, journal capture,
/// incident dump, and offline analysis.
#[test]
fn chaos_incident_is_dumped_and_doctor_names_the_fault() {
    let _g = lock();
    let (mut s, p, dir) = netcdf_session("doctor");
    // A total outage: every chunk read (and every retry of it) fails
    // transiently, and the schedule never clears.
    let mut reader = ScheduledNetcdf::new(2, |_, _| Some(Fault::Transient));
    reader.stock.resilience = Some(ResiliencePolicy {
        retry: RetryPolicy { attempts: 2, ..fast_retry() },
    });
    bind_chaos(&mut s, &p, reader);

    let inc_dir = dir.join("incidents");
    s.enable_incidents(&inc_dir);

    // The probe burns its retry budget and the statement dies with a
    // classified storage error...
    let err = s.run("T[5, 5];").unwrap_err();
    assert!(
        matches!(err, LangError::Eval(EvalError::Storage { .. })),
        "expected a classified storage error, got {err}"
    );

    // ...which must leave a self-contained incident file behind.
    let path = s.last_incident_path().expect("the failing statement must dump an incident");
    assert!(path.exists(), "incident file missing: {}", path.display());
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    assert!(
        name.starts_with("incident-") && name.ends_with("-error.json"),
        "unexpected incident file name: {name}"
    );
    let inc = aql_journal::incident::Incident::load(&path).expect("incident parses");
    assert_eq!(inc.kind, aql_journal::incident::IncidentKind::Error);
    assert!(inc.error.is_some(), "error incidents carry the message");

    // The doctor — same report offline as in the REPL — must name the
    // failing source and classify the fault.
    let report = aql_journal::doctor::diagnose(&inc);
    assert!(
        report.contains("netcdf:grid"),
        "doctor must name the failing source label:\n{report}"
    );
    assert!(
        report.contains("transient-io"),
        "doctor must classify the injected fault:\n{report}"
    );
    assert!(report.contains("fault class"), "report shape changed:\n{report}");

    // The session-side `\doctor` path reads the same dump.
    let via_session = s.doctor();
    assert!(via_session.contains("netcdf:grid"), "{via_session}");
    assert!(via_session.contains("transient-io"), "{via_session}");

    s.disable_incidents();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn preset_cancellation_stops_the_chunk_load() {
    let _g = lock();
    let (mut s, p, dir) = netcdf_session("cancel");
    // Fail the bind-time preview read (op 0) so the chunk is not yet
    // cached when the cancelled statement runs.
    let mut reader = ScheduledNetcdf::new(2, |op, _| (op == 0).then_some(Fault::Transient));
    reader.stock.resilience = Some(ResiliencePolicy {
        retry: RetryPolicy { attempts: 1, ..fast_retry() },
    });
    bind_chaos(&mut s, &p, reader);
    let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    s.limits.cancel = Some(flag.clone());
    // The first touch of the lazy binding is a cache miss, which polls
    // the interrupt hooks before loading.
    let err = s.eval_query("T[9, 9]").unwrap_err();
    assert!(
        matches!(err, LangError::Eval(EvalError::Cancelled)),
        "expected Cancelled, got {err}"
    );
    flag.store(false, std::sync::atomic::Ordering::Relaxed);
    let (_, v) = s.eval_query("T[9, 9]").unwrap();
    assert_eq!(v, Value::Real(72.0));
    std::fs::remove_dir_all(&dir).ok();
}
