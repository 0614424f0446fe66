//! Acceptance: `\doctor;` on a clean session — no incidents, no
//! faults, no retries — produces a sensible "nothing wrong" report
//! instead of an unrecognized-fault diagnosis.
//!
//! This lives in its own test binary on purpose: the flight recorder
//! is process-wide, and unit tests elsewhere deliberately record
//! slow-query and retry events that would pollute a "clean session"
//! read from a shared process.

use aql::lang::repl::run_repl;
use aql::lang::session::Session;

fn transcript(input: &str) -> String {
    let mut s = Session::new();
    let mut reader = std::io::BufReader::new(input.as_bytes());
    let mut out = Vec::new();
    run_repl(&mut s, &mut reader, &mut out).expect("repl run");
    String::from_utf8(out).expect("utf-8 transcript")
}

#[test]
fn doctor_on_a_clean_session_reports_healthy() {
    // A few ordinary successful statements, then the checkup.
    let text = transcript(
        "val \\a = [[ i * i | \\i < 8 ]];\n\
         max!{ a[i] | \\i <- gen!8 };\n\
         \\doctor;\n",
    );
    assert!(!text.contains("error:"), "all statements must succeed: {text}");
    assert!(text.contains("live journal:"), "no incident dump → live reading: {text}");
    assert!(text.contains("fault class: healthy"), "{text}");
    assert!(text.contains("nothing wrong"), "{text}");
    assert!(text.contains("nothing to diagnose"), "{text}");
    assert!(
        text.contains("timeline: no retries or load errors recorded"),
        "{text}"
    );
    // None of the failure-mode advice leaks into a healthy report.
    for needle in ["unavailable", "corrupt", "exhausted", "deadline"] {
        assert!(
            !text.contains(&format!("fault class: {needle}")),
            "clean session misclassified as `{needle}`: {text}"
        );
    }
}

#[test]
fn doctor_stays_healthy_before_any_statement() {
    // The very first command of a fresh session.
    let text = transcript("\\doctor;\n");
    assert!(text.contains("fault class: healthy"), "{text}");
    assert!(text.contains("dominant cost source: none"), "{text}");
}
