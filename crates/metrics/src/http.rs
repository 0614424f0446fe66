//! A std-only Prometheus scrape endpoint and live dashboard.
//!
//! [`serve`] binds a `std::net::TcpListener`, spawns one responder
//! thread, and answers six routes:
//!
//! * `GET /` — a self-contained live HTML dashboard (inline CSS/JS, no
//!   external assets) polling `/stats.json`;
//! * `GET /stats.json` — the operator's digest: latency quantiles,
//!   statement and error totals, cache hit ratio, governor residency,
//!   journal drops, breaker counters (stable keys; see the
//!   `dashboard` module docs);
//! * `GET /metrics` — [`render_prometheus`](crate::render_prometheus)
//!   exposition;
//! * `GET /healthz` — a JSON liveness probe: status, uptime, and the
//!   flight recorder's `aql_journal_dropped_total` (read back from the
//!   registry: the journal depends on this crate, not the reverse);
//! * `GET /incidents` — a JSON listing of recent incident files in the
//!   directory registered via [`set_incident_dir`], newest first;
//! * `GET /profile?seconds=N` — folded stacks of the last `N` seconds,
//!   answered at once by the provider registered via
//!   [`set_profile_provider`] (503 when none is installed — the
//!   account it folds, the flight recorder's, lives in `aql-journal`,
//!   which depends on this crate).
//!
//! Anything else gets a 404. One request per connection
//! (`Connection: close`), which is exactly the Prometheus scrape model;
//! there is no TLS, no keep-alive, no routing — operators who need
//! those put a real proxy in front.
//!
//! The returned [`MetricsServer`] does **not** stop the endpoint when
//! dropped — metrics are process-lifetime, and the REPL hands the
//! handle around freely. Call [`MetricsServer::stop`] for an orderly
//! shutdown (tests do; long-running sessions typically never do).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use aql_trace::json::Json;

/// The liveness anchor: first touched when a server binds (or on the
/// first `/healthz` probe), so uptime measures "how long has this
/// process been serving".
static STARTED: OnceLock<Instant> = OnceLock::new();

/// The incident directory `/incidents` lists, when one is registered.
static INCIDENT_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Register (or clear, with `None`) the directory `GET /incidents`
/// lists. `Session::enable_incidents` calls this so the endpoint and
/// the dump pipeline stay pointed at the same place.
pub fn set_incident_dir(dir: Option<PathBuf>) {
    *INCIDENT_DIR.lock().unwrap_or_else(|p| p.into_inner()) = dir;
}

/// A live-profile callback: given a look-back in seconds, return folded
/// stacks (`path;to;frame ns` lines) without blocking. See
/// [`set_profile_provider`].
pub type ProfileProvider = Box<dyn Fn(u64) -> String + Send + Sync>;

/// The provider `GET /profile?seconds=N` delegates to.
static PROFILE_PROVIDER: Mutex<Option<ProfileProvider>> = Mutex::new(None);

/// Register (or clear, with `None`) the live-profile provider behind
/// `GET /profile?seconds=N`. The profile is a fold of the flight
/// recorder, which this crate cannot see; hosts wire the two together
/// (the REPL's `\metrics serve` does) exactly like [`set_incident_dir`]
/// keeps the incident pipeline decoupled.
pub fn set_profile_provider(provider: Option<ProfileProvider>) {
    *PROFILE_PROVIDER.lock().unwrap_or_else(|p| p.into_inner()) = provider;
}

/// Look-back bounds for `/profile?seconds=N`: at least one second, at
/// most this many. The request costs the same either way.
const PROFILE_MAX_SECONDS: u64 = 30;

/// The `/profile` response, or `None` when no provider is registered.
fn profile_body(query: &str) -> Option<String> {
    let seconds = query
        .split('&')
        .find_map(|kv| kv.strip_prefix("seconds="))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1)
        .clamp(1, PROFILE_MAX_SECONDS);
    let guard = PROFILE_PROVIDER.lock().unwrap_or_else(|p| p.into_inner());
    guard.as_ref().map(|p| p(seconds))
}

/// Seconds since the liveness anchor.
fn uptime_s() -> u64 {
    STARTED.get_or_init(Instant::now).elapsed().as_secs()
}

/// A JSON object of `members`, in order.
pub(crate) fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A counter reading as a JSON number.
pub(crate) fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

/// One line of compact JSON, the shape of every JSON body served.
pub(crate) fn json_line(body: Json) -> String {
    body.write() + "\n"
}

/// The `/healthz` body: a flat JSON object — liveness, uptime, and the
/// flight recorder's drop counter (0 when no journal is linked in).
fn healthz_body() -> String {
    json_line(obj(vec![
        ("status", Json::Str("ok".to_string())),
        ("uptime_s", num(uptime_s())),
        ("journal_dropped_total", num(crate::family_total("aql_journal_dropped_total"))),
    ]))
}

/// The `/incidents` body: the registered directory (or null) and up to
/// 100 `incident-*.json` file names, newest first (names embed the
/// statement sequence number, so lexicographic descending is age
/// descending).
fn incidents_body() -> String {
    let dir = INCIDENT_DIR.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let mut names: Vec<String> = Vec::new();
    if let Some(d) = &dir {
        if let Ok(entries) = std::fs::read_dir(d) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                if name.starts_with("incident-") && name.ends_with(".json") {
                    names.push(name);
                }
            }
        }
    }
    names.sort();
    names.reverse();
    names.truncate(100);
    json_line(obj(vec![
        ("dir", dir.map_or(Json::Null, |d| Json::Str(d.display().to_string()))),
        ("incidents", Json::Arr(names.into_iter().map(Json::Str).collect())),
    ]))
}

/// Handle to a running exposition endpoint.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl MetricsServer {
    /// The address actually bound (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the responder thread to exit. Idempotent; the thread wakes
    /// via a self-connection, so a stopped server releases its port
    /// promptly.
    pub fn stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept` so the thread observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:9464"`, port 0 for ephemeral) and
/// serve `GET /metrics` from a background thread.
pub fn serve(addr: impl ToSocketAddrs) -> std::io::Result<MetricsServer> {
    STARTED.get_or_init(Instant::now);
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    std::thread::Builder::new()
        .name("aql-metrics-http".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if thread_stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    let _ = respond(stream);
                }
            }
        })?;
    Ok(MetricsServer { addr: local, stop })
}

/// Read one request head (bounded) and write the response.
fn respond(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Read until the blank line ending the request head, or 8 KiB.
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => break,
        };
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let request_line = std::str::from_utf8(&head)
        .ok()
        .and_then(|s| s.lines().next())
        .unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method == "GET"
        && (path == "/metrics" || path.starts_with("/metrics?"))
    {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            crate::render_prometheus(),
        )
    } else if method == "GET" && path == "/healthz" {
        ("200 OK", "application/json; charset=utf-8", healthz_body())
    } else if method == "GET" && path == "/incidents" {
        ("200 OK", "application/json; charset=utf-8", incidents_body())
    } else if method == "GET" && (path == "/" || path == "/index.html") {
        (
            "200 OK",
            "text/html; charset=utf-8",
            crate::dashboard::DASHBOARD_HTML.to_string(),
        )
    } else if method == "GET"
        && (path == "/stats.json" || path.starts_with("/stats.json?"))
    {
        (
            "200 OK",
            "application/json; charset=utf-8",
            crate::dashboard::stats_json(uptime_s()),
        )
    } else if method == "GET"
        && (path == "/profile" || path.starts_with("/profile?"))
    {
        let query = path.split_once('?').map_or("", |(_, q)| q);
        match profile_body(query) {
            Some(folded) => ("200 OK", "text/plain; charset=utf-8", folded),
            None => (
                "503 Service Unavailable",
                "text/plain; charset=utf-8",
                "profile: no provider registered (`\\metrics serve` in a \
                 session installs the flight recorder's)\n"
                    .to_string(),
            ),
        }
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try GET /, /stats.json, /metrics, /healthz, \
             /incidents or /profile?seconds=N\n"
                .to_string(),
        )
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One full HTTP exchange against `addr`; returns the raw response.
    fn fetch(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_metrics_and_404s_everything_else() {
        crate::counter("t_http_requests_total", "Test.").add(3);
        let server = serve("127.0.0.1:0").expect("bind");
        let ok = fetch(server.addr(), "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"), "{ok}");
        assert!(ok.contains("t_http_requests_total 3"), "{ok}");
        let missing = fetch(server.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        server.stop();
        server.stop(); // idempotent
    }

    #[test]
    fn healthz_reports_liveness_and_drop_count() {
        let server = serve("127.0.0.1:0").expect("bind");
        let resp = fetch(server.addr(), "/healthz");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("application/json"), "{resp}");
        let body = resp.split("\r\n\r\n").nth(1).expect("body");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"uptime_s\":"), "{body}");
        assert!(body.contains("\"journal_dropped_total\":"), "{body}");
        server.stop();
    }

    #[test]
    fn incidents_lists_the_registered_directory() {
        let dir = std::env::temp_dir()
            .join(format!("aql-metrics-inc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("incident-000001-aa-error.json"), "{}").expect("write");
        std::fs::write(dir.join("incident-000002-bb-slow.json"), "{}").expect("write");
        std::fs::write(dir.join("not-an-incident.txt"), "x").expect("write");
        let server = serve("127.0.0.1:0").expect("bind");
        // No directory registered: empty listing, not an error.
        set_incident_dir(None);
        let empty = fetch(server.addr(), "/incidents");
        assert!(empty.contains("\"dir\":null"), "{empty}");
        assert!(empty.contains("\"incidents\":[]"), "{empty}");
        // Registered: newest first, non-incident files filtered out.
        set_incident_dir(Some(dir.clone()));
        let resp = fetch(server.addr(), "/incidents");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        let body = resp.split("\r\n\r\n").nth(1).expect("body");
        let pos2 = body.find("incident-000002-bb-slow.json").expect("newest listed");
        let pos1 = body.find("incident-000001-aa-error.json").expect("oldest listed");
        assert!(pos2 < pos1, "newest first: {body}");
        assert!(!body.contains("not-an-incident"), "{body}");
        set_incident_dir(None);
        server.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_releases_the_port_for_rebinding() {
        let server = serve("127.0.0.1:0").expect("bind");
        let addr = server.addr();
        let _ = fetch(addr, "/healthz");
        server.stop();
        // The self-connection unblocks `accept`, the thread drops the
        // listener, and the port must be bindable again promptly. A
        // short retry loop absorbs the thread's exit latency; a leaked
        // listener would keep EADDRINUSE forever.
        let deadline = Instant::now() + Duration::from_secs(2);
        let rebound = loop {
            match TcpListener::bind(addr) {
                Ok(l) => break Some(l),
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break None,
            }
        };
        assert!(rebound.is_some(), "port {addr} not released after stop()");
    }

    #[test]
    fn dashboard_and_stats_routes_serve() {
        let server = serve("127.0.0.1:0").expect("bind");
        let page = fetch(server.addr(), "/");
        assert!(page.starts_with("HTTP/1.1 200 OK\r\n"), "{page}");
        assert!(page.contains("text/html"), "{page}");
        assert!(page.contains("<!doctype html>"), "{page}");
        let stats = fetch(server.addr(), "/stats.json");
        assert!(stats.starts_with("HTTP/1.1 200 OK\r\n"), "{stats}");
        let body = stats.split("\r\n\r\n").nth(1).expect("body");
        assert!(body.starts_with("{\"schema_version\":1,"), "{body}");
        assert!(body.contains("\"latency_ns\":{"), "{body}");
        server.stop();
    }

    #[test]
    fn profile_route_uses_the_registered_provider() {
        let server = serve("127.0.0.1:0").expect("bind");
        set_profile_provider(None);
        let off = fetch(server.addr(), "/profile?seconds=1");
        assert!(off.starts_with("HTTP/1.1 503"), "{off}");
        set_profile_provider(Some(Box::new(|secs| {
            format!("statement;eval {secs}\n")
        })));
        // Malformed / missing / huge windows clamp instead of erroring.
        let got = fetch(server.addr(), "/profile?seconds=9999");
        assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "{got}");
        assert!(got.ends_with("statement;eval 30\n"), "{got}");
        for fallback in ["/profile", "/profile?seconds=0", "/profile?seconds=soon"] {
            let default = fetch(server.addr(), fallback);
            assert!(default.ends_with("statement;eval 1\n"), "{fallback}: {default}");
        }
        set_profile_provider(None);
        server.stop();
    }

    #[test]
    fn content_length_matches_body() {
        let server = serve("127.0.0.1:0").expect("bind");
        let resp = fetch(server.addr(), "/metrics");
        let (head, body) = resp.split_once("\r\n\r\n").expect("head/body");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("length header")
            .parse()
            .expect("numeric");
        assert_eq!(len, body.len());
        server.stop();
    }
}
