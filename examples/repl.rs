//! An interactive AQL read-eval-print loop (§4).
//!
//! Run with `cargo run --example repl`, then type statements ending in
//! `;`. The prompt mirrors the paper's transcript (`:` with `::`
//! continuation lines). `quit;`-free exit: type `quit` or press
//! Ctrl-D.
//!
//! The session starts with the prelude macros, the `COFILE` driver,
//! the `NETCDF1..4`/`NETCDFINFO` drivers, and the `heatindex` /
//! `june_sunset` externals registered. Synthetic datasets are written
//! to a temp directory and announced at startup, so paper queries can
//! be typed directly.
//!
//! Observability flags:
//! * `--metrics-addr <addr>` serves Prometheus text exposition on
//!   `<addr>` (e.g. `127.0.0.1:9187`) for the life of the process —
//!   same as typing `\metrics serve <addr>;` at the prompt;
//! * `--slow-log <path>` appends a JSON-lines record for every
//!   statement at or over the slow-query threshold;
//! * `--slow-threshold-ms <n>` sets that threshold (default 100).

use std::io::{BufReader, Write};
use std::time::Duration;

use aql::externals::{register_heatindex, register_june_sunset};
use aql::lang::repl::run_repl;
use aql::lang::session::Session;
use aql::netcdf::driver::register_netcdf;
use aql::netcdf::synth;

/// The value following `flag` on the command line, if present.
fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn main() {
    let dir = std::env::temp_dir().join("aql-repl-data");
    let (temp, june) = synth::write_example_data(&dir).expect("write synthetic data");

    let mut session = Session::new();
    register_netcdf(&mut session);
    register_heatindex(&mut session);
    register_june_sunset(&mut session);

    if let Some(addr) = flag_value("--metrics-addr") {
        let server = aql::metrics::http::serve(&*addr).expect("bind metrics endpoint");
        println!("Serving metrics on http://{}/metrics", server.addr());
    }
    if let Some(path) = flag_value("--slow-log") {
        let threshold_ms = flag_value("--slow-threshold-ms")
            .map(|v| v.parse().expect("--slow-threshold-ms takes milliseconds"))
            .unwrap_or(100);
        let sink = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open slow-query log");
        session.enable_slow_log(Box::new(sink), Duration::from_millis(threshold_ms));
        println!("Slow-query log ({threshold_ms}ms threshold): {path}");
    }

    println!("AQL — a query language for multidimensional arrays (SIGMOD '96)");
    println!("Statements end with `;`. Type `quit` or Ctrl-D to exit.\n");
    println!("Registered readers: COFILE, NETCDF1..NETCDF4, NETCDFINFO");
    println!("Registered externals: heatindex, june_sunset");
    println!("Prelude macros: {}\n", session.macro_names().join(", "));
    println!("Synthetic data:");
    println!("  year of hourly temps : {}", temp.display());
    println!("  June weather (T/RH/WS): {}\n", june.display());
    println!("Try:");
    println!("  {{x * x | \\x <- gen!10, x % 2 = 0}};");
    println!(
        "  readval \\info using NETCDFINFO at \"{}\";",
        june.display()
    );
    println!(
        "  readval \\T using NETCDF1 at (\"{}\", \"T\", 0, 719);",
        june.display()
    );
    println!("  max!(rng!T);\n");

    let stdin = std::io::stdin();
    let mut input = BufReader::new(stdin.lock());
    let stdout = std::io::stdout();
    let mut output = stdout.lock();
    let n = run_repl(&mut session, &mut input, &mut output).expect("repl I/O");
    let _ = writeln!(output, "\n{n} statement(s) executed. Goodbye.");
}
