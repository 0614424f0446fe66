//! Acceptance: the ops dashboard the metrics endpoint serves is real.
//! `GET /` returns the self-contained HTML page, `GET /stats.json`
//! returns parseable live statistics with the documented stable keys,
//! and `GET /profile?seconds=N` answers at once with the flight
//! recorder's last N seconds folded into stacks: empty in an idle
//! process, naming real phases while another thread runs queries, and
//! never in the way of the probes behind it.

use std::io::{BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Run `input` through `s`'s REPL; returns the statements executed and
/// the address its `\metrics serve` line advertises.
fn repl_serving(s: &mut Session, input: &str) -> (usize, String) {
    let mut reader = BufReader::new(input.as_bytes());
    let mut out: Vec<u8> = Vec::new();
    let executed = run_repl(s, &mut reader, &mut out).unwrap();
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
    (executed, addr)
}

#[test]
fn dashboard_stats_and_profile_routes_serve_live_data() {
    let dir = std::env::temp_dir()
        .join(format!("aql-dashboard-endpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().unwrap(), &path, VERSION_CLASSIC).unwrap();
    let p = path.to_str().unwrap();

    // ---- GET /profile in an idle process -----------------------------
    // `\metrics serve` starts the endpoint AND installs the live profile
    // provider behind `/profile`. No statement has run in this process
    // yet (a bare session loads no prelude): the longest look-back is an
    // empty account, answered at once.
    let (executed, idle_addr) = repl_serving(&mut Session::bare(), "\\metrics serve 127.0.0.1:0;\n");
    assert_eq!(executed, 0);
    let asked = Instant::now();
    let resp = http_get(&idle_addr, "/profile?seconds=30");
    assert!(asked.elapsed() < Duration::from_secs(1), "a fold, not a 30 s sleep");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert_eq!(body_of(&resp), "", "nothing ran, nothing to fold");

    // Run a few real statements so the stats have something to show.
    let mut s = Session::new();
    register_netcdf(&mut s);
    let input = format!(
        "\\metrics serve 127.0.0.1:0;\n\
         readval \\T using NETCDF3 at (\"{p}\", \"temp\", (0, 0, 0), (8759, 4, 4));\n\
         max!{{ T[4000 + t, i, j] | \\t <- gen!100, \\i <- gen!5, \\j <- gen!5 }};\n"
    );
    let (executed, addr) = repl_serving(&mut s, &input);
    assert_eq!(executed, 2, "both statements must run");

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

    // ---- GET /profile under load -------------------------------------
    // Sessions are single-threaded, so the load thread builds its own;
    // the fold reads every thread's ring.
    let stop = Arc::new(AtomicBool::new(false));
    let ran = Arc::new(AtomicU64::new(0));
    let loader = {
        let (stop, ran) = (Arc::clone(&stop), Arc::clone(&ran));
        std::thread::spawn(move || {
            let mut s = Session::new();
            while !stop.load(Ordering::Relaxed) {
                s.eval_query("max!{ i * i | \\i <- gen!2000 }").expect("load query");
                ran.fetch_add(1, Ordering::Relaxed);
            }
        })
    };

    // A load query is in the thread's ring once it has ended.
    while ran.load(Ordering::Relaxed) < 3 {
        std::thread::yield_now();
    }
    // The longest look-back still answers at once, and the one
    // responder thread is free for the probe right behind it.
    let asked = Instant::now();
    let resp = http_get(&addr, "/profile?seconds=30");
    let health = http_get(&addr, "/healthz");
    assert!(asked.elapsed() < Duration::from_secs(1), "a fold, not a 30 s sleep");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    stop.store(true, Ordering::Relaxed);
    loader.join().expect("load thread");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    let folded = body_of(&resp);
    assert!(
        !folded.trim().is_empty(),
        "folded stacks must be non-empty while queries run"
    );
    // Every line is `path;frames ns`, and the busy thread's evaluation
    // phase is somewhere in the set.
    for line in folded.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("folded line");
        assert!(!stack.is_empty(), "empty stack in `{line}`");
        ns.parse::<u64>().unwrap_or_else(|_| panic!("bad weight in `{line}`"));
    }
    assert!(
        folded.lines().any(|l| l.starts_with("statement;eval ")),
        "profile must name the statement's phases: {folded}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
