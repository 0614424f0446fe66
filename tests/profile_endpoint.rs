//! Acceptance: `GET /profile` needs nothing but the endpoint. A host
//! that starts it with `aql::metrics::http::serve` alone — as
//! `examples/repl.rs --metrics-addr` does, without `\metrics serve` —
//! gets the flight recorder's folded stacks, not an error. A file of its
//! own: no other test in this process starts an endpoint or runs a
//! statement first.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};

use aql::lang::session::Session;

/// GET `path` from `addr` and return the full HTTP response.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to the endpoint");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send request");
    let mut resp = String::new();
    conn.read_to_string(&mut resp).expect("read response");
    resp
}

#[test]
fn an_endpoint_started_by_serve_alone_answers_profile() {
    let server = aql::metrics::http::serve("127.0.0.1:0").expect("bind");
    Session::new().run("val \\x = 6 * 7;").expect("one statement");
    let resp = http_get(server.addr(), "/profile?seconds=30");
    server.stop();
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    let folded = resp.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    assert!(
        folded.lines().any(|l| l.starts_with("statement;")),
        "the statement's phases are folded: {folded}"
    );
}
