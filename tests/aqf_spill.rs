//! End-to-end AQF acceptance: spilling a lazy NetCDF-backed binding
//! to AQF streams chunk-by-chunk (peak governed residency stays under
//! the cache budget, not the variable size), the reopened file serves
//! point probes from a single chunk, per-source I/O shows up in the
//! labeled metric series, and the REPL's `\store;` / `\save` commands
//! render deterministic (golden) reports.

use std::rc::Rc;
use std::sync::Mutex;

use aql::format::{register_aqf, SessionAqfExt as _};
use aql::lang::repl::run_repl;
use aql::lang::session::Session;
use aql::netcdf::driver::NetcdfSlabReader;
use aql::netcdf::format::VERSION_CLASSIC;
use aql::netcdf::synth::year_temp_file;
use aql::netcdf::write::write_file;
use aql::store::governor;

/// Bytes of the full synthetic `temp(8760, 5, 5)` variable.
const FULL_BYTES: u64 = 8760 * 5 * 5 * 8;
/// Cache budget for the lazy NetCDF binding in the spill test — small
/// enough that streaming is observable (≈ 15% of the variable).
const SPILL_BUDGET: u64 = 256 << 10;

/// The governor ledger is process-global; tests in this binary take
/// this lock so peak/in-use assertions see only their own traffic.
static GOVERNOR: Mutex<()> = Mutex::new(());

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aql-aqfspill-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

/// Write the synthetic weather file and return its path string.
fn synth_nc(dir: &std::path::Path) -> String {
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().expect("synth"), &path, VERSION_CLASSIC).expect("write nc");
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn spill_streams_reopens_and_probes_cheaply() {
    let _gov = GOVERNOR.lock().unwrap_or_else(|p| p.into_inner());
    let dir = tmpdir("e2e");
    let nc = synth_nc(&dir);
    let aqf = dir.join("temp.aqf").to_str().expect("utf-8").to_string();

    let mut s = Session::new();
    let mut r = NetcdfSlabReader::lazy(3);
    r.cache_budget = SPILL_BUDGET;
    s.register_reader("NC", Rc::new(r));
    register_aqf(&mut s);
    s.run(&format!(
        "readval \\T using NC at (\"{nc}\", \"temp\", (0, 0, 0), (8759, 4, 4));"
    ))
    .expect("bind");

    // The spill must stream: the governor's high-water mark over the
    // whole `writeval` stays bounded by the source cache budget (plus
    // one in-flight chunk of slack), nowhere near the variable size.
    governor::reset_peak();
    s.run(&format!("writeval T using AQF at \"{aqf}\";")).expect("spill");
    let peak = governor::peak_bytes();
    assert!(peak > 0, "the spill went through the governed cache");
    assert!(
        peak <= SPILL_BUDGET + (64 << 10),
        "peak governed residency {peak} exceeds the {SPILL_BUDGET}-byte cache budget — \
         the spill materialized instead of streaming"
    );
    assert!(peak < FULL_BYTES / 2, "peak {peak} is the wrong order of magnitude");

    // Reopen lazily and point-probe: the probe must read one chunk,
    // under 2% of the variable's bytes, and agree with the source.
    let (_, want) = s.eval_query("T[5000, 2, 2]").expect("source probe");
    s.run(&format!("readval \\A using AQF at \"{aqf}\";")).expect("reopen");
    let before = aql::store::stats::global();
    let (_, got) = s.eval_query("A[5000, 2, 2]").expect("aqf probe");
    let delta = aql::store::stats::global().delta_since(&before);
    assert_eq!(format!("{got}"), format!("{want}"), "probe values agree");
    assert!(delta.bytes_read > 0, "the probe was served from disk");
    assert!(
        delta.bytes_read * 50 < FULL_BYTES,
        "probe read {} bytes — 2% of the {FULL_BYTES}-byte variable or more",
        delta.bytes_read
    );

    // The reopened binding reports its residency, and the probe's I/O
    // landed in the per-source labeled metric series.
    let report = s.store_report();
    assert!(report.contains("source=aqf:temp.aqf"), "{report}");
    assert!(report.contains("prefetch issued="), "{report}");
    let labeled: Vec<(String, u64)> = aql::metrics::snapshot()
        .into_iter()
        .filter(|(k, _)| {
            k.starts_with("aql_store_cache_bytes_read_total{") && k.contains("aqf:temp.aqf")
        })
        .collect();
    assert!(
        labeled.iter().any(|(_, v)| *v > 0),
        "no labeled bytes_read series for the AQF source: {labeled:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spill_aqf_rebinds_in_place() {
    let _gov = GOVERNOR.lock().unwrap_or_else(|p| p.into_inner());
    let dir = tmpdir("api");
    let aqf = dir.join("squares.aqf").to_str().expect("utf-8").to_string();

    let mut s = Session::new();
    s.run("val \\S = [[ i * i | \\i < 50 ]];").expect("bind");
    assert!(s.val("S").expect("bound").as_array().expect("array").store_info().is_none());

    let summary = s.spill_aqf("S", &aqf).expect("spill");
    assert_eq!(summary.chunks, 1);
    assert_eq!(summary.raw_bytes, 50 * 8);

    // Same name, same values — but the binding is now lazy over the
    // file, with a store report to show for it.
    let arr = s.val("S").expect("still bound").as_array().expect("array").clone();
    let info = arr.store_info().expect("lazy after spill");
    assert_eq!(info.label.as_deref(), Some("aqf:squares.aqf"));
    let (_, v) = s.eval_query("S[7]").expect("probe");
    assert_eq!(format!("{v}"), "49");
    // save_aqf without rebinding leaves the binding alone.
    let again = dir.join("again.aqf").to_str().expect("utf-8").to_string();
    s.save_aqf("S", &again).expect("save");
    assert!(s.val("S").expect("bound").as_array().expect("array").is_lazy());
    std::fs::remove_dir_all(&dir).ok();
}

/// Drive a fresh session (with the AQF driver registered) through the
/// REPL and return the timing-redacted transcript.
fn redacted_transcript(input: &str) -> String {
    let mut s = Session::new();
    register_aqf(&mut s);
    let mut reader = std::io::BufReader::new(input.as_bytes());
    let mut out: Vec<u8> = Vec::new();
    run_repl(&mut s, &mut reader, &mut out).expect("repl");
    aql::trace::redact_timings(&String::from_utf8(out).expect("utf-8"))
}

#[test]
fn repl_store_and_save_goldens() {
    let _gov = GOVERNOR.lock().unwrap_or_else(|p| p.into_inner());
    let dir = tmpdir("repl");
    let aqf = dir.join("store.aqf").to_str().expect("utf-8").to_string();

    // Seed the file through the REPL itself: bind, \save, reopen,
    // probe, \store.
    let input = format!(
        "val \\G = [[ i + 2 * j | \\i < 20, \\j < 20 ]];\n\
         \\save G \"{aqf}\";\n\
         readval \\A using AQF at \"{aqf}\";\n\
         A[3, 4];\n\
         \\store;\n"
    );
    let text = redacted_transcript(&input);
    assert!(text.contains("val it = () written using AQF."), "{text}");
    assert!(text.contains("typ A : [[nat]]_2"), "{text}");
    assert!(text.contains("val it = 11"), "{text}");
    assert!(text.contains("store: 1 open chunk source(s)"), "{text}");
    assert!(text.contains("source=aqf:store.aqf"), "{text}");
    assert!(text.contains("prefetch issued="), "{text}");
    assert!(text.contains("governor: budget="), "{text}");
    // Golden: the whole transcript is deterministic across fresh
    // sessions (cache/residency counters included — same statements,
    // same chunks; the governor peak is monotonic and already at its
    // high-water mark after the first pass).
    assert_eq!(text, redacted_transcript(&input), "transcript is reproducible");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repl_save_requires_the_registered_writer() {
    let _gov = GOVERNOR.lock().unwrap_or_else(|p| p.into_inner());
    let dir = tmpdir("save-err");
    let aqf = dir.join("missing.aqf").to_str().expect("utf-8").to_string();
    // `\save` of an unbound val errors through the writeval path and
    // the REPL keeps running.
    let input = format!("\\save nosuch \"{aqf}\";\n1 + 1;\n");
    let text = redacted_transcript(&input);
    assert!(text.contains("error:"), "{text}");
    assert!(text.contains("val it = 2"), "{text}");
    assert!(!std::path::Path::new(&aqf).exists(), "no file for a failed save");
    std::fs::remove_dir_all(&dir).ok();
}

/// The entries of `dir`, sorted: proof that no temporary is left.
fn listing(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn writing_an_array_over_the_file_it_is_read_from_round_trips() {
    // The writer used to truncate its destination up front: this
    // statement pair failed half-way (`failed to fill whole buffer`)
    // and left a 7 KB `f.aqf` that no longer opened.
    let _gov = GOVERNOR.lock().unwrap_or_else(|p| p.into_inner());
    let dir = tmpdir("selfwrite");
    let aqf = dir.join("f.aqf").to_str().expect("utf-8").to_string();
    let mut s = Session::new();
    register_aqf(&mut s);
    // 14 chunks of 4,096 integers.
    s.run(&format!(
        "val \\A = [[ (i * 7) % 1000 | \\i < 57000 ]]; writeval A using AQF at \"{aqf}\";"
    ))
    .expect("first write");
    let before = std::fs::read(&aqf).expect("written");

    s.run(&format!("readval \\B using AQF at \"{aqf}\"; writeval B using AQF at \"{aqf}\";"))
        .expect("an array may be written over its own file");
    assert_eq!(std::fs::read(&aqf).expect("rewritten"), before, "same array, same bytes");
    assert_eq!(listing(&dir), ["f.aqf"]);
    // B still reads (through the handle on the file it was bound to),
    // and a fresh binding of the new file agrees with it everywhere.
    let (_, v) = s.eval_query("B[56999]").expect("B survives its own overwrite");
    assert_eq!(format!("{v}"), format!("{}", (56999 * 7) % 1000));
    s.run(&format!("readval \\C using AQF at \"{aqf}\";")).expect("rebind");
    let (_, v) = s
        .eval_query("summap(fn \\i => if B[i] = C[i] then 0 else 1)!(gen!57000)")
        .expect("compare");
    assert_eq!(format!("{v}"), "0");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_writer_dropped_early_leaves_the_previous_file_untouched() {
    use aql::format::AqfWriter;
    use aql::store::{ChunkLayout, ScalarBuf, ScalarKind};

    let dir = tmpdir("dropped");
    let path = dir.join("f.aqf");
    let layout = ChunkLayout::row_major(vec![57000], 4096).expect("layout");
    assert_eq!(layout.num_chunks(), 14);
    let chunk = |id: u64, salt: i64| {
        let n = layout.chunk_len(id).expect("chunk len") as i64;
        ScalarBuf::I64((0..n).map(|k| (k * 31 + id as i64 + salt) % 512).collect())
    };
    let mut w = AqfWriter::create(&path, layout.clone(), ScalarKind::I64, true).expect("create");
    for id in 0..14 {
        w.write_chunk(&chunk(id, 0)).expect("write chunk");
    }
    w.finish().expect("finish");
    let before = std::fs::read(&path).expect("written");

    // A second write of different data gets 3 of its 14 chunks out…
    let mut w = AqfWriter::create(&path, layout.clone(), ScalarKind::I64, true).expect("create");
    for id in 0..3 {
        w.write_chunk(&chunk(id, 5)).expect("write chunk");
    }
    assert_eq!(std::fs::read(&path).expect("still there"), before, "untouched while writing");
    // …and neither an early `finish` nor the drop touches the destination.
    w.finish().expect_err("11 chunks short");
    assert_eq!(std::fs::read(&path).expect("still there"), before);
    let mut w = AqfWriter::create(&path, layout.clone(), ScalarKind::I64, true).expect("create");
    w.write_chunk(&chunk(0, 9)).expect("write chunk");
    drop(w);
    assert_eq!(std::fs::read(&path).expect("still there"), before);
    assert_eq!(listing(&dir), ["f.aqf"], "temporaries are removed");
    std::fs::remove_dir_all(&dir).ok();
}
