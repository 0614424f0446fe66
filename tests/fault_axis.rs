//! The fault axis of the differential oracle (ROADMAP item 1b, first
//! slice), and the regressions of classifying a failure by its words.
//!
//! **The table.** {`MemChunkSource`, NetCDF lazy, AQF reopen,
//! `RemoteChunkSource`} × {one transient then clear, transient forever,
//! persistent I/O, payload corruption, governor denial, 1 ms deadline,
//! cancel} × {met at bind, at echo, at first subscript, inside a kernel
//! window — the whole array's under a root `Σ`, and again one run's,
//! sized at bind, of a guarded nest under an interpreted loop}. Every
//! cell runs the same three statements; it is either the
//! fault-free values, or its first failing statement names the row's
//! one class — read three ways that must agree: the returned error's
//! `class()`, the ring's `StmtEnd` label, the incident's `class`. The
//! session answers the next statement either way. Nothing here asserts
//! a wall time.
//!
//! **The words.** A program may spell any class's vocabulary (`budget;`
//! is an unbound variable, not an exhausted budget); the class is the
//! error value's.
//!
//! Its own binary, serialized on [`PROCESS`]: the governor budget and
//! the flight recorder are process state.

mod common;

use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use aql::core::eval::Limits;
use aql::core::value::Value;
use aql::format::register_aqf;
use aql::journal::incident::{Incident, IncidentKind};
use aql::journal::{ErrorClass, Tag};
use aql::lang::errors::LangError;
use aql::lang::session::{IncidentConfig, Session};
use aql::store::governor;

use common::{Fault, FaultyReader, Stage, FAULT_AXIS_CELLS, FAULT_AXIS_SOURCES};

static PROCESS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    let guard = PROCESS.lock().unwrap_or_else(|e| e.into_inner());
    governor::set_budget(None);
    guard
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aql-fault-axis-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

/// The class of a failed statement, read the three ways there are.
#[derive(Debug, PartialEq, Eq)]
struct Readings {
    returned: &'static str,
    ring: String,
    incident: Option<&'static str>,
    /// Why the incident was dumped (not a reading of the class).
    kind: IncidentKind,
}

impl Readings {
    /// Of the statement `s` just failed with `err` (incidents on).
    fn of(s: &Session, err: &LangError) -> Readings {
        let journal = aql::journal::snapshot();
        let end = journal.events.iter().rev().find(|e| e.tag == Tag::StmtEnd);
        let dump = Incident::load(&s.last_incident_path().expect("a failure dumps an incident"))
            .expect("the dump parses");
        Readings {
            returned: err.class().name(),
            ring: end.expect("the statement ended").label_str(),
            incident: dump.class.map(ErrorClass::name),
            kind: dump.kind,
        }
    }

    fn agree_on(&self, class: ErrorClass, context: &str) {
        let name = class.name();
        assert_eq!(
            (self.returned, self.ring.as_str(), self.incident),
            (name, name, Some(name)),
            "{context}"
        );
    }
}

/// The third statement, whose kernel reads the last chunk in a window,
/// with its value: `Σ A[i]`, one window over the whole array; and four
/// blocks of 16 summed under a `⋃` the interpreter runs, what β^p
/// leaves of `subseq` guarding every read — a window a run, the fourth
/// of them the chunk no earlier stage touched.
fn kernel_statements() -> [(String, Value); 2] {
    let total = (0..FAULT_AXIS_CELLS).sum::<u64>() as f64;
    let block = |d: u64| Value::tuple(vec![Value::Nat(d), Value::Real((256 * d + 120) as f64)]);
    [
        (format!("summap(fn \\i => A[i])!(gen!{FAULT_AXIS_CELLS});"), Value::Real(total)),
        (
            "{(d, summap(fn \\k => (subseq!(A, d*16, d*16+15))[k])!(gen!16)) | \\d <- gen!4};".to_string(),
            Value::set((0..4).map(block).collect()),
        ),
    ]
}

/// One cell: the three statements against a freshly bound source, up
/// to the first that fails.
fn cell(
    dir: &std::path::Path,
    source: &str,
    fault: Fault,
    stage: Stage,
    (kernel, value): (String, Value),
) -> Option<Readings> {
    let reader = FaultyReader::new(dir, fault, stage);
    let mut s = Session::new();
    // The echo fetches one cell past its limit, cells 0..=16: chunk 0
    // (resident since the bind) and exactly one cell of chunk 1.
    s.display_limit = 16;
    s.enable_incidents(IncidentConfig::new(dir.join(format!("incidents-{source}"))));
    s.limits.cancel = Some(reader.cancel.clone());
    if fault == Fault::Deadline {
        s.limits.timeout = Some(Duration::from_millis(1));
    }
    s.register_reader("FAULTY", Rc::new(reader));

    let statements = [
        (format!("readval \\A using FAULTY at \"{source}\";"), None),
        ("A[40];".to_string(), Some(Value::Real(40.0))),
        (kernel, Some(value)),
    ];
    let mut failed = None;
    for (statement, want) in &statements {
        match s.run(statement) {
            Ok(out) => {
                if let Some(want) = want {
                    assert_eq!(out[0].value.as_ref(), Some(want), "{source} {fault:?} {stage:?}");
                }
            }
            Err(err) => {
                failed = Some(Readings::of(&s, &err));
                break;
            }
        }
    }
    // Whatever happened, the session answers the next statement.
    governor::set_budget(None);
    s.limits = Limits::default();
    let (_, two) = s.eval_query("1 + 1").expect("the session survives");
    assert_eq!(two, Value::Nat(2), "{source} {fault:?} {stage:?}");
    s.disable_incidents();
    failed
}

#[test]
fn every_cell_is_the_fault_free_value_or_its_rows_class() {
    let _g = lock();
    let dir = tmpdir("table");
    for fault in Fault::ALL {
        for source in FAULT_AXIS_SOURCES {
            // (The second kernel statement differs from the first only
            // where the fault is met inside its window.)
            let [whole, blocks] = kernel_statements();
            let cells = Stage::ALL.map(|stage| (stage, whole.clone()));
            for (stage, kernel) in cells.into_iter().chain([(Stage::Kernel, blocks)]) {
                let context = format!("{source} × {fault:?} × {stage:?} × `{}`", kernel.0);
                // No statement's deadline is installed while a reader
                // binds or an echo renders: a stall there is only slow.
                // (A flag raised there stops the next statement's first
                // chunk load.)
                let may_pass =
                    fault == Fault::Deadline && matches!(stage, Stage::Bind | Stage::Echo);
                match (cell(&dir, source, fault, stage, kernel), fault.class()) {
                    (None, None) => {}
                    (None, Some(_)) if may_pass => {}
                    (None, Some(class)) => panic!("{context}: no statement failed as {class:?}"),
                    (Some(got), None) => panic!("{context}: the stack absorbs this, got {got:?}"),
                    (Some(got), Some(class)) => got.agree_on(class, &context),
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Run `statement` (which must fail) in a session with incidents on and
/// return the readings, the incident kind and `\doctor`'s report.
fn failing(s: &mut Session, statement: &str) -> (Readings, IncidentKind, String) {
    let err = s.run(statement).expect_err(statement);
    let readings = Readings::of(s, &err);
    let kind = readings.kind;
    (readings, kind, s.doctor())
}

#[test]
fn a_program_that_spells_a_class_is_not_in_it() {
    let _g = lock();
    let dir = tmpdir("words");
    let mut s = Session::new();
    s.enable_incidents(IncidentConfig::new(&dir));
    // Unbound variables and type errors, every one: outcome `error`,
    // incident kind `error`, and the doctor says so.
    for statement in
        ["budget;", "exhausted + 1;", "deadline;", "1 + interrupt;", "checksum;", "corrupt;"]
    {
        let (readings, kind, report) = failing(&mut s, statement);
        readings.agree_on(ErrorClass::Error, statement);
        assert_eq!(kind, IncidentKind::Error, "{statement}");
        assert!(report.contains("fault class: error\n"), "{statement}: {report}");
    }

    // The real things still get their classes. A governor denial …
    governor::set_budget(Some(1024));
    let (readings, kind, report) = failing(&mut s, "val \\X = [[ i | \\i < 100000 ]];");
    governor::set_budget(None);
    readings.agree_on(ErrorClass::ResourceExhausted, "governor denial");
    assert_eq!(kind, IncidentKind::ResourceExhausted);
    assert!(report.contains("fault class: resource-exhausted\n"), "{report}");
    // … a step-limit stop …
    s.limits = Limits { max_steps: 100, ..Limits::default() };
    let (readings, kind, _) = failing(&mut s, "summap(fn \\i => i)!(gen!100000);");
    readings.agree_on(ErrorClass::ResourceExhausted, "step limit");
    assert_eq!(kind, IncidentKind::ResourceExhausted);
    // … and a deadline that has already passed when evaluation starts.
    s.limits = Limits { timeout: Some(Duration::ZERO), ..Limits::default() };
    let (readings, kind, report) = failing(&mut s, "summap(fn \\i => i)!(gen!100000);");
    readings.agree_on(ErrorClass::Deadline, "deadline");
    assert_eq!(kind, IncidentKind::Error);
    assert!(report.contains("fault class: deadline\n"), "{report}");

    s.disable_incidents();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_flipped_byte_of_an_aqf_file_is_corruption_wherever_it_is_met() {
    let _g = lock();
    let dir = tmpdir("aqf");
    let good = dir.join("good.aqf");
    let mut s = Session::new();
    register_aqf(&mut s);
    s.run(&format!("writeval [[ i * 3 | \\i < 64 ]] using AQF at \"{}\";", good.display()))
        .expect("a clean file");
    let bytes = std::fs::read(&good).expect("read back");
    let table = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
    // Rank-1 header: 24 fixed bytes, one extent, one chunk extent.
    let payload = 24 + 16;

    s.enable_incidents(IncidentConfig::new(dir.join("incidents")));
    // The echo probes one cell: a damaged payload is met there first
    // (and rendered `⊥`), then by the subscript.
    s.display_limit = 0;
    for (region, at) in [("header", 8), ("chunk table", table + 8), ("payload", payload)] {
        let mut damaged = bytes.clone();
        damaged[at] ^= 0xFF;
        let path = dir.join("damaged.aqf");
        std::fs::write(&path, damaged).expect("write case");
        let program = format!("readval \\H using AQF at \"{}\"; H[5];", path.display());
        let (readings, kind, report) = failing(&mut s, &program);
        readings.agree_on(ErrorClass::Corruption, region);
        assert_eq!(kind, IncidentKind::Error, "{region}");
        assert!(report.contains("fault class: corruption\n"), "{region}: {report}");
    }

    // Under the default echo the preview alone fails the first chunk
    // often enough to open the source's breaker, which is then what
    // answers the subscript: unavailable — and not "(transient)".
    s.display_limit = aql::core::value::print::SESSION_TRUNCATE;
    let err = s
        .run(&format!("readval \\H using AQF at \"{}\"; H[5];", dir.join("damaged.aqf").display()))
        .expect_err("a damaged chunk is not served");
    assert!(!err.to_string().contains("(transient)"), "{err}");
    assert!(
        matches!(err.class(), ErrorClass::Unavailable | ErrorClass::Corruption),
        "{err}"
    );

    s.disable_incidents();
    std::fs::remove_dir_all(&dir).ok();
}
