//! A checksum mismatch that a retry repairs used to be invisible after
//! the fact: a trace counter and a metric moved, but the flight
//! recorder kept nothing, so `\doctor` showed a bare `retry` line and
//! could only find corruption by matching a *final* error message.
//! The mismatch is now an event like any other (`checksum_mismatch`,
//! tag 17): journaled, on the doctor's timeline, and named in its
//! diagnosis — while the statement that met it still succeeds with the
//! right value.
//!
//! Its own binary: the diagnosis reads the process-wide live journal.

mod common;

use std::rc::Rc;

use aql::journal::{doctor, Tag};
use aql::lang::session::Session;
use aql::netcdf::driver::register_netcdf;
use aql::trace::json::Json;
use aql_core::value::Value;
use aql_store::Fault;

use common::ScheduledNetcdf;

#[test]
fn a_repaired_checksum_mismatch_is_journaled_and_the_doctor_names_it() {
    let dir = std::env::temp_dir().join(format!("aql-recovered-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.nc");
    let p = path.to_str().unwrap();
    let mut s = Session::new();
    register_netcdf(&mut s);
    s.run(&format!(
        "val \\M = [[ (i * 7 + j) | \\i < 40, \\j < 40 ]];
         writeval M using NETCDF at (\"{p}\", \"grid\");"
    ))
    .unwrap();

    // The first payload the source delivers is corrupted in flight;
    // the resilience stack is the default one.
    let reader = ScheduledNetcdf::new(2, |op, _| (op == 0).then_some(Fault::Corrupt));
    s.register_reader("NETCDF2", Rc::new(reader));
    // The statement that meets the corruption (the bind previews the
    // array, which loads its one chunk) succeeds, and what it cached is
    // the clean payload: the checksum caught the first, the retry read
    // it again.
    s.run(&format!("readval \\T using NETCDF2 at (\"{p}\", \"grid\", (0, 0), (39, 39));"))
        .expect("the retry repairs the read");
    let (_, v) = s.eval_query("T[1, 1] + T[39, 39]").unwrap();
    assert_eq!(v, Value::Real(8.0 + 312.0));

    // The flight recorder kept the mismatch, against the source.
    let journal = aql::journal::snapshot();
    let mismatches: Vec<_> =
        journal.events.iter().filter(|e| e.tag == Tag::ChecksumMismatch).collect();
    assert_eq!(mismatches.len(), 1);
    assert_eq!(mismatches[0].label_str(), "netcdf:grid");
    assert_eq!(journal.events.iter().filter(|e| e.tag == Tag::Retry).count(), 1);

    // The doctor's timeline shows it, and both renderings name the
    // source and say what happened.
    let attribution = s.last_report().attribution;
    let text = doctor::diagnose_live(&journal, attribution.last());
    assert!(text.contains("checksum MISMATCH on a chunk of `netcdf:grid`"), "{text}");
    assert!(text.contains("retry attempt 2 on `netcdf:grid`"), "{text}");
    assert!(!text.contains("fault class: corruption"), "repaired, not corrupt: {text}");
    let json = Json::parse(&doctor::diagnose_live_json(&journal, attribution.last())).unwrap();
    assert_eq!(json.get("failing_source").and_then(Json::as_str), Some("netcdf:grid"));
    let diagnosis = json.get("diagnosis").and_then(Json::as_str).unwrap();
    assert!(diagnosis.contains("source `netcdf:grid`"), "{diagnosis}");
    assert!(diagnosis.contains("failed checksum verification"), "{diagnosis}");

    std::fs::remove_dir_all(&dir).ok();
}
