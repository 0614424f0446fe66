//! Acceptance: profiling a NETCDF-backed query surfaces the whole
//! pipeline — the phase-timing tree includes `optimize` and `eval`, and
//! the statement's record counts the optimizer's passes, the
//! evaluator's work and the chunk I/O, which the rendering prints once
//! a statement. Also the
//! regression for per-statement stats attribution: cache deltas of
//! *non-final* statements in a multi-statement run are no longer lost.

use aql::lang::session::Session;
use aql::netcdf::driver::register_netcdf;
use aql::netcdf::format::VERSION_CLASSIC;
use aql::netcdf::synth::year_temp_file;
use aql::netcdf::write::write_file;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("aql-profile-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn profile_of_netcdf_query_shows_io_and_rules() {
    let dir = tmpdir("nc");
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().unwrap(), &path, VERSION_CLASSIC).unwrap();
    let p = path.to_str().unwrap();

    let mut s = Session::new();
    register_netcdf(&mut s);
    s.run(&format!(
        "readval \\T using NETCDF3 at (\"{p}\", \"temp\", (0, 0, 0), (8759, 4, 4));"
    ))
    .unwrap();

    // A fresh session's cache is cold, so the probe must do real I/O.
    let (outcomes, report) =
        s.profile("max!{ T[i * 100, 2, 2] | \\i <- gen!10 };").unwrap();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(report.statements.len(), 1);

    // Phase-timing tree: a statement root with optimize and eval
    // children, the optimizer's per-phase spans below optimize.
    let t = &report.trace;
    assert!(t.find("statement").is_some());
    for name in ["resolve", "typecheck", "optimize", "eval", "opt.phase", "opt.pass"] {
        assert!(t.find(name).is_some(), "span `{name}` missing from {t:?}");
    }
    // The optimizer reported work (passes; rule fires per (phase,
    // rule) when any rule matches).
    assert!(report.optimizer[0].passes > 0);

    // The evaluator and the store reported work.
    let stats = report.statements[0];
    assert!(stats.steps > 0);
    assert!(stats.subscripts >= 10, "10 point probes");
    assert!(stats.cache.misses > 0, "cold cache ⇒ misses");
    assert!(stats.cache.bytes_read > 0);
    // One hyperslab request a chunk load: no read here is retried.
    assert_eq!(report.attribution[0].hyperslab_requests, stats.cache.misses);

    // The rendered profile prints each count once, after the tree, and
    // its redacted form is stable across renders.
    let rendered = report.render_profile(true);
    let line = format!("  cache: hits={} misses={}", stats.cache.hits, stats.cache.misses);
    assert!(rendered.contains(&line), "{rendered}");
    assert_eq!(rendered.matches(&format!("bytes_read={}", stats.cache.bytes_read)).count(), 1);
    assert!(rendered.contains("eval (_)\n"), "{rendered}");
    assert_eq!(rendered, report.render_profile(true));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_final_statements_keep_their_cache_deltas() {
    let dir = tmpdir("multi");
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().unwrap(), &path, VERSION_CLASSIC).unwrap();
    let p = path.to_str().unwrap();

    let mut s = Session::new();
    register_netcdf(&mut s);
    s.run(&format!(
        "readval \\T using NETCDF3 at (\"{p}\", \"temp\", (0, 0, 0), (8759, 4, 4));"
    ))
    .unwrap();

    // One run, two statements: the FIRST does the I/O (cold probe),
    // the second is pure arithmetic. The old `last_stats` kept only
    // the final statement and reported zero bytes for the run.
    s.run("T[5000, 2, 2]; 1 + 1;").unwrap();
    let per_stmt = s.last_report().statements;
    assert_eq!(per_stmt.len(), 2);
    assert!(
        per_stmt[0].cache.bytes_read > 0,
        "the probe's I/O must be attributed to statement 0"
    );
    assert_eq!(
        per_stmt[1].cache.bytes_read, 0,
        "pure arithmetic does no chunk I/O"
    );
    assert!(
        s.last_stats().cache.bytes_read >= per_stmt[0].cache.bytes_read,
        "the run total must include the non-final statement's I/O"
    );

    std::fs::remove_dir_all(&dir).ok();
}
