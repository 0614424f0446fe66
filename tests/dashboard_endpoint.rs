//! Acceptance: the ops dashboard the metrics endpoint serves is real.
//! `GET /` returns the self-contained HTML page, `GET /stats.json`
//! returns parseable live statistics with the documented stable keys,
//! and `GET /profile?seconds=1` — while another thread is busy running
//! queries — returns non-empty folded stacks naming real phases.

use std::io::{BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use aql::lang::repl::run_repl;
use aql::lang::session::Session;
use aql::netcdf::driver::register_netcdf;
use aql::netcdf::format::VERSION_CLASSIC;
use aql::netcdf::synth::year_temp_file;
use aql::netcdf::write::write_file;
use aql::trace::json::Json;

/// GET `path` from `addr` and return the full HTTP response.
fn http_get(addr: &str, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to metrics endpoint");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send request");
    let mut resp = String::new();
    conn.read_to_string(&mut resp).expect("read response");
    resp
}

fn body_of(resp: &str) -> &str {
    resp.split("\r\n\r\n").nth(1).expect("response body")
}

#[test]
fn dashboard_stats_and_profile_routes_serve_live_data() {
    let dir = std::env::temp_dir()
        .join(format!("aql-dashboard-endpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().unwrap(), &path, VERSION_CLASSIC).unwrap();
    let p = path.to_str().unwrap();

    // `\metrics serve` starts the endpoint AND installs the live
    // profile provider behind `/profile`. Run a few real statements so
    // the stats have something to show.
    let mut s = Session::new();
    register_netcdf(&mut s);
    let input = format!(
        "\\metrics serve 127.0.0.1:0;\n\
         readval \\T using NETCDF3 at (\"{p}\", \"temp\", (0, 0, 0), (8759, 4, 4));\n\
         max!{{ T[4000 + t, i, j] | \\t <- gen!100, \\i <- gen!5, \\j <- gen!5 }};\n"
    );
    let mut reader = BufReader::new(input.as_bytes());
    let mut out: Vec<u8> = Vec::new();
    let executed = run_repl(&mut s, &mut reader, &mut out).unwrap();
    assert_eq!(executed, 2, "both statements must run");
    let transcript = String::from_utf8(out).unwrap();
    let addr = transcript
        .lines()
        .find_map(|l| l.split("metrics: serving http://").nth(1))
        .and_then(|l| l.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("no serving line in {transcript}"))
        .to_string();
    assert!(
        transcript.contains("metrics: dashboard at http://"),
        "serve must advertise the dashboard: {transcript}"
    );

    // ---- GET / --------------------------------------------------------
    let resp = http_get(&addr, "/");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert!(resp.contains("Content-Type: text/html"), "{resp}");
    let html = body_of(&resp);
    assert!(
        html.trim_start().to_ascii_lowercase().starts_with("<!doctype html"),
        "dashboard must be a complete HTML document: {}",
        &html[..html.len().min(120)]
    );
    for needle in ["stats.json", "href=\"metrics\"", "</html>"] {
        assert!(html.contains(needle), "dashboard HTML must reference {needle}");
    }

    // ---- GET /stats.json ---------------------------------------------
    // A source label is a path the user typed (`aqf:<path>`): one with a
    // quote, a backslash, a newline and a non-ASCII character in it has
    // to come back as itself from strict JSON.
    let label = "aqf:a\"q\"\\b\nc é.aqf";
    aql::metrics::counter_with("aql_store_breaker_trips_total", &[("source", label)], "t").inc();
    let resp = http_get(&addr, "/stats.json");
    let body = body_of(&resp);
    assert!(!body.trim_end().contains(|c: char| c < ' '), "unescaped control character: {body:?}");
    let stats = Json::parse(body).expect("stats.json must be strict JSON");
    let Some(Json::Arr(breakers)) = stats.get("breakers") else {
        panic!("breakers is an array: {stats:?}")
    };
    assert!(
        breakers.iter().any(|b| b.get("source").and_then(Json::as_str) == Some(label)),
        "the label round-trips: {breakers:?}"
    );
    assert_eq!(stats.get("schema_version").and_then(Json::as_u64), Some(1));
    for key in [
        "uptime_s",
        "statements_total",
        "errors_total",
        "slow_queries_total",
        "latency_ns",
        "cache",
        "governor",
        "journal_dropped_total",
        "breakers",
    ] {
        assert!(stats.get(key).is_some(), "stats.json missing key `{key}`");
    }
    assert!(
        stats.get("statements_total").and_then(Json::as_u64).is_some_and(|n| n >= 2),
        "both REPL statements must be counted: {stats:?}"
    );
    let lat = stats.get("latency_ns").expect("latency_ns");
    assert!(
        lat.get("count").and_then(Json::as_u64).is_some_and(|n| n >= 1),
        "latency histogram must have samples: {lat:?}"
    );
    for q in ["p50", "p95", "p99"] {
        assert!(lat.get(q).and_then(Json::as_f64).is_some(), "latency_ns.{q} missing");
    }
    let hits = stats.get("cache").and_then(|c| c.get("hits")).and_then(Json::as_u64);
    assert!(hits.is_some(), "cache.hits missing: {stats:?}");

    // ---- GET /profile?seconds=1 under load ---------------------------
    // Sessions are single-threaded, so the load thread builds its own;
    // the sampler observes every registered thread in the process.
    let stop = Arc::new(AtomicBool::new(false));
    let loader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut s = Session::new();
            let mut ran = 0u64;
            while !stop.load(Ordering::Relaxed) {
                s.eval_query("max!{ i * i | \\i <- gen!2000 }").expect("load query");
                ran += 1;
            }
            ran
        })
    };

    let resp = http_get(&addr, "/profile?seconds=1");
    stop.store(true, Ordering::Relaxed);
    let ran = loader.join().expect("load thread");
    assert!(ran > 0, "the load thread must actually have run queries");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    let folded = body_of(&resp);
    assert!(
        !folded.trim().is_empty(),
        "folded stacks must be non-empty while queries run"
    );
    // Every line is `path;frames count`, and the busy thread's
    // evaluation phase dominates somewhere in the set.
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line");
        assert!(!stack.is_empty(), "empty stack in `{line}`");
        count.parse::<u64>().unwrap_or_else(|_| panic!("bad count in `{line}`"));
    }
    assert!(
        folded.lines().any(|l| l.contains("statement")),
        "profile must name the statement phase: {folded}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
