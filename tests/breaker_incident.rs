//! A `breaker_trip` incident belongs to the statement whose own reads
//! tripped the breaker. It used to be detected as a delta of the
//! process-wide `aql_store_breaker_trips_total` counter, so a trip on
//! another thread's session was written up as *this* statement's
//! incident; it is now counted in the statement's own thread-local
//! attribution ledger.
//!
//! Two sessions on two threads. The bystander's statement is held open
//! (inside an external primitive) while the other session's source
//! trips, so the two overlap by construction, not by timing.

mod common;

use std::rc::Rc;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use aql::journal::incident::{list_incidents, Incident, IncidentKind};
use aql::lang::session::Session;
use aql::netcdf::driver::register_netcdf;
use aql_core::prim::NativeFn;
use aql_core::types::Type;
use aql_store::{BreakerPolicy, Fault, ResiliencePolicy, RetryPolicy};

use common::ScheduledNetcdf;

/// A session whose `readval` meets one transient fault on its preview
/// read, under a breaker that trips on the first failure. The preview
/// swallows the error, so the statement succeeds — with a tripped
/// breaker to its name.
fn run_the_tripping_statement(dir: &std::path::Path) -> Session {
    let path = dir.join("grid.nc");
    let p = path.to_str().unwrap();
    let mut s = Session::new();
    s.display_limit = 0;
    register_netcdf(&mut s);
    s.run(&format!(
        "val \\M = [[ (i * 7 + j) | \\i < 40, \\j < 40 ]];
         writeval M using NETCDF at (\"{p}\", \"grid\");"
    ))
    .unwrap();
    let mut reader = ScheduledNetcdf::new(2, |op, _| (op == 0).then_some(Fault::Transient));
    reader.stock.resilience = Some(ResiliencePolicy {
        retry: RetryPolicy { attempts: 1, ..RetryPolicy::default() },
        breaker: Some(BreakerPolicy { threshold: 1, cooldown: Duration::from_secs(3600) }),
    });
    s.register_reader("NETCDF2", Rc::new(reader));
    s.enable_incidents(dir.join("incidents"));
    s.run(&format!("readval \\T using NETCDF2 at (\"{p}\", \"grid\", (0, 0), (39, 39));")).unwrap();
    s
}

#[test]
fn only_the_session_whose_source_tripped_writes_the_incident() {
    let root = std::env::temp_dir().join(format!("aql-breaker-incident-{}", std::process::id()));
    let (tripper_dir, bystander_dir) = (root.join("tripper"), root.join("bystander"));
    std::fs::create_dir_all(&tripper_dir).unwrap();
    std::fs::create_dir_all(&bystander_dir).unwrap();
    let trips_before = aql::metrics::family_total("aql_store_breaker_trips_total");

    let (go, wait_for_go) = mpsc::channel::<()>();
    let (done, wait_for_done) = mpsc::channel::<()>();

    let bystander = {
        let dir = bystander_dir.clone();
        std::thread::spawn(move || {
            let mut s = Session::new();
            s.enable_incidents(&dir);
            // Mid-statement: let the other session trip its breaker,
            // and return only once it has.
            let rendezvous = Mutex::new((go, wait_for_done));
            s.register_external(NativeFn::new("rendezvous", Type::fun(Type::Nat, Type::Nat), move |v| {
                let (go, wait_for_done) = &*rendezvous.lock().unwrap();
                go.send(()).expect("the tripper is waiting");
                wait_for_done.recv().expect("the tripper reports back");
                Ok(v.clone())
            }));
            s.run("rendezvous!1;").expect("a clean statement");
            s.last_incident_path()
        })
    };
    let tripper = {
        let dir = tripper_dir.clone();
        std::thread::spawn(move || {
            wait_for_go.recv().expect("the bystander's statement is open");
            let s = run_the_tripping_statement(&dir);
            done.send(()).expect("the bystander is waiting");
            s.last_incident_path()
        })
    };
    let bystander_incident = bystander.join().expect("bystander thread");
    let tripper_incident = tripper.join().expect("tripper thread");

    // The trip happened, process-wide, while the bystander's statement
    // was open …
    assert!(aql::metrics::family_total("aql_store_breaker_trips_total") > trips_before);
    // … and is the tripping session's incident alone.
    let path = tripper_incident.expect("the tripping statement dumps an incident");
    assert_eq!(Incident::load(&path).unwrap().kind, IncidentKind::BreakerTrip);
    assert_eq!(bystander_incident, None, "another thread's trip is not this statement's");
    assert!(list_incidents(&bystander_dir).is_empty());

    std::fs::remove_dir_all(&root).ok();
}
