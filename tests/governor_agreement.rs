//! Acceptance: every view of the process governor reports its peak as
//! the same number, and none reports a budget. After a lazy scan,
//! `GET /stats.json`'s `governor.peak_bytes`, the
//! `aql_store_governor_peak_bytes` series of `GET /metrics`, `\store`'s
//! `peak=` and `\attr`'s `governor: peak N B in use` agree.
//!
//! Its own binary with one test: the ledger is process state, and a
//! cache on another test thread would move the peak between readings.

use std::io::{BufReader, Read as _, Write as _};
use std::net::TcpStream;

use aql::lang::repl::run_repl;
use aql::lang::session::Session;
use aql::netcdf::driver::register_netcdf;
use aql::netcdf::format::VERSION_CLASSIC;
use aql::netcdf::synth::year_temp_file;
use aql::netcdf::write::write_file;
use aql::trace::json::Json;

/// The body of `GET path` from `addr`.
fn http_body(addr: &str, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to metrics endpoint");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send request");
    let mut resp = String::new();
    conn.read_to_string(&mut resp).expect("read response");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{path}: {resp}");
    resp.split_once("\r\n\r\n").expect("response body").1.to_string()
}

/// The number following `prefix` on the first line that has it, not
/// counting `# HELP`/`# TYPE` comments.
fn number_after(text: &str, prefix: &str) -> u64 {
    let rest = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.split_once(prefix).map(|(_, rest)| rest))
        .unwrap_or_else(|| panic!("no `{prefix}` in {text}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("no number after `{prefix}` in {text}"))
}

#[test]
fn stats_metrics_store_and_attr_report_one_governor_peak() {
    let dir = std::env::temp_dir().join(format!("aql-governor-agreement-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().unwrap(), &path, VERSION_CLASSIC).unwrap();

    let mut s = Session::new();
    register_netcdf(&mut s);
    let input = format!(
        "\\metrics serve 127.0.0.1:0;\n\
         readval \\T using NETCDF3 at (\"{}\", \"temp\", (0, 0, 0), (8759, 4, 4));\n\
         max!{{ T[4000 + t, i, j] | \\t <- gen!100, \\i <- gen!5, \\j <- gen!5 }};\n\
         \\store;\n\
         \\attr;\n",
        path.display()
    );
    let mut out: Vec<u8> = Vec::new();
    let executed = run_repl(&mut s, &mut BufReader::new(input.as_bytes()), &mut out).unwrap();
    assert_eq!(executed, 2, "both statements run");
    let transcript = String::from_utf8(out).unwrap();
    let addr = transcript
        .lines()
        .find_map(|l| l.split("metrics: serving http://").nth(1))
        .and_then(|l| l.strip_suffix("/metrics"))
        .unwrap_or_else(|| panic!("no serving line in {transcript}"));

    let store = number_after(&transcript, "governor: in_use=");
    let store_peak = number_after(&transcript, " peak=");
    let attr_peak = number_after(&transcript, "governor: peak ");
    let stats = Json::parse(&http_body(addr, "/stats.json")).expect("strict JSON");
    let governor = stats.get("governor").expect("governor member");
    let stats_peak = governor.get("peak_bytes").and_then(Json::as_u64).expect("peak_bytes");
    let metrics = http_body(addr, "/metrics");
    let series_peak = number_after(&metrics, "aql_store_governor_peak_bytes ");

    assert!(store > 0 && store_peak >= store, "the scan's chunks are resident: {transcript}");
    assert_eq!(
        (stats_peak, series_peak, store_peak),
        (attr_peak, attr_peak, attr_peak),
        "/stats.json, /metrics, \\store and \\attr read one peak"
    );
    // No view reports a budget.
    let only_peak = Json::Obj(vec![("peak_bytes".to_string(), Json::Num(stats_peak as f64))]);
    assert_eq!(governor, &only_peak);
    assert!(!metrics.contains("aql_store_governor_budget"), "{metrics}");
    assert!(!transcript.contains("budget="), "{transcript}");
    std::fs::remove_dir_all(&dir).ok();
}
