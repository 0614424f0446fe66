//! Acceptance: a REPL session with the metrics endpoint enabled
//! serves Prometheus text exposition over plain HTTP containing the
//! session phase histograms, the store cache counters, and the NetCDF
//! I/O counters — and a statement over the slow-query threshold
//! produces a parseable JSON-lines record.

use std::io::{BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use aql::lang::repl::run_repl;
use aql::lang::session::{Session, SlowLogConfig};
use aql::netcdf::driver::register_netcdf;
use aql::netcdf::format::VERSION_CLASSIC;
use aql::netcdf::synth::year_temp_file;
use aql::netcdf::write::write_file;
use aql::trace::json::Json;

/// An in-memory slow-log sink the test can read back.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// GET `path` from `addr` and return the full HTTP response.
fn http_get(addr: &str, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to metrics endpoint");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send request");
    let mut resp = String::new();
    conn.read_to_string(&mut resp).expect("read response");
    resp
}

#[test]
fn repl_session_serves_prometheus_and_logs_slow_queries() {
    // A synthetic year of temperatures so the session exercises real
    // NetCDF I/O (hyperslab requests, chunk-cache traffic).
    let dir = std::env::temp_dir()
        .join(format!("aql-metrics-endpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().unwrap(), &path, VERSION_CLASSIC).unwrap();
    let p = path.to_str().unwrap();

    let sink = SharedSink::default();
    let mut s = Session::new();
    register_netcdf(&mut s);
    // Threshold zero: every statement is over the slow-query bar.
    s.enable_slow_log(
        Box::new(sink.clone()),
        SlowLogConfig { threshold: std::time::Duration::ZERO, sample_every: 0 },
    );

    // The acceptance session: start the endpoint, then three
    // statements — a NetCDF bind, a point probe, a windowed aggregate.
    let input = format!(
        "\\metrics serve 127.0.0.1:0;\n\
         readval \\T using NETCDF3 at (\"{p}\", \"temp\", (0, 0, 0), (8759, 4, 4));\n\
         T[5000, 2, 2];\n\
         max!{{ T[4000 + t, i, j] | \\t <- gen!100, \\i <- gen!5, \\j <- gen!5 }};\n"
    );
    let mut reader = BufReader::new(input.as_bytes());
    let mut out: Vec<u8> = Vec::new();
    let executed = run_repl(&mut s, &mut reader, &mut out).unwrap();
    assert_eq!(executed, 3, "three statements must run");
    let transcript = String::from_utf8(out).unwrap();
    let addr = transcript
        .lines()
        .find_map(|l| l.split("metrics: serving http://").nth(1))
        .and_then(|l| l.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("no serving line in {transcript}"))
        .to_string();

    // ---- the exposition ---------------------------------------------
    let resp = http_get(&addr, "/metrics");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert!(
        resp.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{resp}"
    );
    let body = resp.split("\r\n\r\n").nth(1).expect("response body");

    // The three counter families named by the acceptance criterion.
    assert!(
        body.contains("aql_session_phase_ns_bucket{"),
        "session phase histograms missing:\n{body}"
    );
    assert!(body.contains("aql_store_cache_misses_total"), "store counters missing:\n{body}");
    assert!(
        body.contains("aql_netcdf_hyperslab_requests_total"),
        "NetCDF I/O counters missing:\n{body}"
    );

    // Well-formed text exposition: every sample line is `series value`
    // with a numeric value, and its family was announced by `# TYPE`.
    let mut typed = std::collections::HashSet::new();
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let fam = parts.next().expect("family name");
            let kind = parts.next().expect("metric kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE `{kind}` in `{line}`"
            );
            typed.insert(fam.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in `{line}`"));
        let fam = series.split('{').next().expect("family");
        let fam = fam
            .strip_suffix("_bucket")
            .or_else(|| fam.strip_suffix("_sum"))
            .or_else(|| fam.strip_suffix("_count"))
            .unwrap_or(fam);
        assert!(typed.contains(fam), "sample `{line}` has no preceding # TYPE");
    }

    // ---- the incident listing ---------------------------------------
    // File names are whatever the directory holds: a quote, a backslash,
    // a newline and a non-ASCII character must come back as themselves
    // from strict JSON, in the directory's name and in a file's.
    let incidents = dir.join("inc \"q\"\\\n é");
    std::fs::create_dir_all(&incidents).unwrap();
    let name = "incident-7-\"q\"\\\n é.json";
    std::fs::write(incidents.join(name), "{}").unwrap();
    aql::metrics::http::set_incident_dir(Some(incidents.clone()));
    let resp = http_get(&addr, "/incidents");
    aql::metrics::http::set_incident_dir(None);
    let body = resp.split("\r\n\r\n").nth(1).expect("response body");
    // `Json::parse` forgives a raw control character in a string; RFC
    // 8259 does not, so look for one in the bytes too.
    assert!(!body.trim_end().contains(|c: char| c < ' '), "unescaped control character: {body:?}");
    let listing = Json::parse(body).expect("/incidents must be strict JSON");
    assert_eq!(listing.get("dir").and_then(Json::as_str), incidents.to_str());
    assert_eq!(listing.get("incidents"), Some(&Json::Arr(vec![Json::Str(name.into())])));

    // Everything else 404s.
    assert!(http_get(&addr, "/other").starts_with("HTTP/1.1 404"), "non-/metrics paths 404");

    // ---- the slow-query log -----------------------------------------
    let bytes = sink.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let log = String::from_utf8(bytes).expect("slow log must be UTF-8");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 3, "threshold 0 logs all three statements: {log}");
    for l in &lines {
        let rec = Json::parse(l).expect("each slow-log line must be valid JSON");
        assert_eq!(rec.get("schema_version").and_then(Json::as_u64), Some(2), "{l}");
        assert_eq!(rec.get("slow"), Some(&Json::Bool(true)), "{l}");
        assert!(rec.get("dur_ns").and_then(Json::as_u64).is_some(), "{l}");
        assert!(rec.get("phases").is_some(), "{l}");
        // v2 members: the incident link (null here — no incident dir is
        // configured) and the attributed prefetch traffic.
        assert_eq!(rec.get("incident"), Some(&Json::Null), "{l}");
        assert!(
            rec.get("cache")
                .and_then(|c| c.get("prefetched_bytes"))
                .and_then(Json::as_u64)
                .is_some(),
            "{l}"
        );
    }
    // The bind is attributed to `readval`, and the aggregate's cache
    // traffic lands on the statement that caused it.
    assert_eq!(
        Json::parse(lines[0]).unwrap().get("kind").and_then(Json::as_str),
        Some("readval")
    );
    let agg = Json::parse(lines[2]).unwrap();
    assert_eq!(agg.get("kind").and_then(Json::as_str), Some("query"));
    assert!(
        agg.get("cache")
            .and_then(|c| c.get("bytes_read"))
            .and_then(Json::as_u64)
            .is_some_and(|b| b > 0),
        "the windowed aggregate must show chunk-cache reads: {agg:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
