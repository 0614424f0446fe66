//! `\flame` profiles the run it was asked for: the program executes
//! once, side effects and all, and the flamegraph is that run's span
//! tree. (It used to re-run the program up to 400 times under a
//! sampler: a `writeval` wrote 400 times, the statement counters moved
//! by 400 and the flight recorder's ring was overwritten end to end.)
//!
//! One test in its own binary: the statement counter and the journal's
//! drop counter are process-wide.

use std::cell::Cell;
use std::io::BufReader;
use std::rc::Rc;

use aql::lang::errors::LangError;
use aql::lang::reader::Writer;
use aql::lang::repl::run_repl;
use aql::lang::session::Session;
use aql_core::value::Value;

/// A writer that counts its calls and fails on request (`at "fail"`).
struct CountingWriter(Rc<Cell<u32>>);

impl Writer for CountingWriter {
    fn write(&self, arg: &Value, _data: &Value) -> Result<(), LangError> {
        self.0.set(self.0.get() + 1);
        match arg {
            Value::Str(s) if &**s == "fail" => Err(LangError::session("disk full")),
            _ => Ok(()),
        }
    }
}

fn repl(s: &mut Session, input: &str) -> String {
    let mut out: Vec<u8> = Vec::new();
    run_repl(s, &mut BufReader::new(input.as_bytes()), &mut out).expect("repl");
    String::from_utf8(out).expect("utf-8")
}

#[test]
fn flame_executes_its_program_exactly_once() {
    let writes = Rc::new(Cell::new(0));
    let mut s = Session::new();
    s.register_writer("COUNTING", Rc::new(CountingWriter(Rc::clone(&writes))));
    let statements = || aql::metrics::family_total("aql_session_statements_total");
    let (ran, dropped) = (statements(), aql::journal::dropped_total());

    let text = repl(
        &mut s,
        "\\flame val \\a = [[ i * i | \\i < 100 ]]; writeval a using COUNTING at \"x\";\n",
    );
    assert!(text.contains("hottest stacks:"), "{text}");
    assert_eq!(writes.get(), 1, "one run, one write");
    assert_eq!(statements() - ran, 2, "two statements, each counted once");
    assert_eq!(aql::journal::dropped_total(), dropped, "the flight recorder keeps its history");

    // A failing program fails from that one run, and the session goes on.
    let text = repl(&mut s, "\\flame writeval a using COUNTING at \"fail\";\na[3];\n");
    assert_eq!(text.matches("disk full").count(), 1, "{text}");
    assert!(!text.contains("hottest stacks:"), "{text}");
    assert_eq!(writes.get(), 2);
    assert!(text.contains("val it = 9"), "the session stays usable: {text}");
}
