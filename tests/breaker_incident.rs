//! A statement's slow-log line counts its own work. The slow-query
//! log's `rule_fires` used to be a delta of the process-wide
//! `aql_opt_rule_fires_total` family, so another thread's firings were
//! logged as this statement's; it is now the statement's own optimizer
//! runs, read from its record.
//!
//! Two sessions on two threads. The bystander's statement is held open
//! (inside an external primitive) while the other session fires its
//! rules, so the two overlap by construction, not by timing.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aql::lang::session::Session;
use aql::trace::json::Json;
use aql_core::prim::NativeFn;
use aql_core::types::Type;

/// A session whose `rendezvous!n` tells `go` it has started, then
/// returns only once `wait_for_done` hears back.
fn rendezvous_session(go: mpsc::Sender<()>, wait_for_done: mpsc::Receiver<()>) -> Session {
    let mut s = Session::new();
    let rendezvous = Mutex::new((go, wait_for_done));
    s.register_external(NativeFn::new("rendezvous", Type::fun(Type::Nat, Type::Nat), move |v| {
        let (go, wait_for_done) = &*rendezvous.lock().unwrap();
        go.send(()).expect("the other thread is waiting");
        wait_for_done.recv().expect("the other thread reports back");
        Ok(v.clone())
    }));
    s
}

/// A slow-query-log sink the test keeps a handle on.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn the_slow_log_counts_only_its_own_statements_rule_fires() {
    let fires_before = aql::metrics::family_total("aql_opt_rule_fires_total");
    let (go, wait_for_go) = mpsc::channel::<()>();
    let (done, wait_for_done) = mpsc::channel::<()>();
    let sink = Sink::default();
    let bystander = {
        let sink = sink.clone();
        std::thread::spawn(move || {
            let mut s = rendezvous_session(go, wait_for_done);
            s.enable_slow_log(Box::new(sink), Duration::ZERO);
            // Mid-statement: let the other session fire its rules.
            s.run("rendezvous!1;").expect("a clean statement");
        })
    };
    let firer = std::thread::spawn(move || {
        wait_for_go.recv().expect("the bystander's statement is open");
        let mut s = Session::new();
        for _ in 0..10 {
            s.run("[[ i * i + 1 | \\i < 300 ]][17];").expect("E5");
        }
        done.send(()).expect("the bystander is waiting");
    });
    bystander.join().expect("bystander thread");
    firer.join().expect("firer thread");

    // E5 fires five rules a run, process-wide, while the bystander's
    // statement was open …
    assert!(aql::metrics::family_total("aql_opt_rule_fires_total") >= fires_before + 50);
    // … and none of them is the bystander's: `rendezvous!1` offers no
    // rule a redex.
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "threshold 0 logs the one statement: {text}");
    let line = Json::parse(lines[0]).expect("JSON");
    assert_eq!(line.get("rule_fires").and_then(Json::as_u64), Some(0), "{text}");
}
