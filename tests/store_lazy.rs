//! Acceptance: a `NETCDFk` read of a single point from a large
//! synthetic variable reads strictly fewer bytes than full
//! materialization, and the session reports the I/O cost through
//! `EvalStats`.

use aql::lang::session::Session;
use aql::netcdf::driver::{register_netcdf, NetcdfSlabReader, DEFAULT_CACHE_BUDGET};
use aql::netcdf::format::VERSION_CLASSIC;
use aql::netcdf::synth::year_temp_file;
use aql::netcdf::write::write_file;
use aql_core::value::Value;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("aql-store-lazy-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `temp(time, lat, lon)` = 8760 × 5 × 5 doubles — 1.752 MB of data.
const TEMP_ELEMS: u64 = 8760 * 5 * 5;
const TEMP_BYTES: u64 = TEMP_ELEMS * 8;

#[test]
fn point_read_touches_a_fraction_of_the_variable() {
    // The default budget, and one that holds two chunks.
    for budget in [DEFAULT_CACHE_BUDGET, 64 << 10] {
        reads_touch_a_fraction_of_the_variable(budget);
    }
}

fn reads_touch_a_fraction_of_the_variable(budget: u64) {
    let dir = tmpdir("point");
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().unwrap(), &path, VERSION_CLASSIC).unwrap();
    let p = path.to_str().unwrap();

    let global_before = aql_store::stats::global();

    let mut s = Session::new();
    let mut reader = NetcdfSlabReader::lazy(3);
    reader.cache_budget = budget;
    s.register_reader("NETCDF3", std::rc::Rc::new(reader));
    s.run(&format!(
        "readval \\T using NETCDF3 at (\"{p}\", \"temp\", (0, 0, 0), (8759, 4, 4));"
    ))
    .unwrap();

    // Binding is lazy: the readval itself (plus the session echo of
    // the value's leading elements) must NOT have materialized the
    // variable.
    let bound_bytes = aql_store::stats::global().delta_since(&global_before).bytes_read;
    assert!(
        bound_bytes < TEMP_BYTES / 4,
        "binding read {bound_bytes} of {TEMP_BYTES} bytes — not lazy"
    );

    // A single point probe loads exactly the chunks it needs.
    let (_, v) = s.eval_query("T[5000, 2, 2]").unwrap();
    assert!(matches!(v, Value::Real(_)));
    let stats = s.last_stats();
    assert!(stats.steps > 0);
    assert!(
        stats.cache.bytes_read > 0,
        "the probed chunk was not yet resident, so bytes must move"
    );
    assert!(
        stats.cache.bytes_read < TEMP_BYTES,
        "point probe read {} bytes, full variable is {TEMP_BYTES}",
        stats.cache.bytes_read
    );

    // Re-probing the same chunk is served from cache: no new bytes.
    let (_, v2) = s.eval_query("T[5000, 2, 3]").unwrap();
    assert!(matches!(v2, Value::Real(_)));
    let stats2 = s.last_stats();
    assert_eq!(stats2.cache.bytes_read, 0, "second probe must hit the cache");
    assert!(stats2.cache.hits >= 1);

    // A scan of a 200-hour window of the full grid (5,000 cells, two
    // chunks) loads what it overlaps, not the variable.
    let (_, m) = s
        .eval_query("max!{ T[4000 + t, i, j] | \\t <- gen!200, \\i <- gen!5, \\j <- gen!5 }")
        .unwrap();
    assert!(matches!(m, Value::Real(_)));
    let scanned = s.last_stats().cache.bytes_read;
    assert!(scanned > 0 && scanned < TEMP_BYTES / 10, "scan read {scanned} of {TEMP_BYTES} bytes");

    // Across the WHOLE session — bind, echo, two probes, the scan —
    // strictly fewer bytes than one full materialization left disk.
    let total = aql_store::stats::global().delta_since(&global_before).bytes_read;
    assert!(
        total < TEMP_BYTES,
        "session read {total} bytes, full materialization is {TEMP_BYTES}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lazy_and_eager_agree_on_queries() {
    use aql::netcdf::read::SlabReader;
    use aql_core::types::Type;
    use aql_core::value::ArrayVal;
    use std::rc::Rc;

    let dir = tmpdir("agree");
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().unwrap(), &path, VERSION_CLASSIC).unwrap();
    let p = path.to_str().unwrap();

    let mut s = Session::new();
    register_netcdf(&mut s);
    s.run(&format!(
        "readval \\L using NETCDF3 at (\"{p}\", \"temp\", (100, 0, 0), (199, 4, 4));"
    ))
    .unwrap();
    // The eager reference: one `read_slab` of the whole box, bound as a
    // materialized `[[real]]_3`.
    let mut file = SlabReader::open(&path).unwrap();
    let whole = file.read_slab("temp", &[100, 0, 0], &[100, 5, 5]).unwrap();
    let cells = (0..whole.len()).map(|i| Value::Real(whole.get_f64(i).unwrap())).collect();
    let eager = ArrayVal::new(vec![100, 5, 5], cells).unwrap();
    assert!(!eager.is_lazy() && s.val("L").unwrap().as_array().unwrap().is_lazy());
    s.bind_val_typed("E", Value::Array(Rc::new(eager)), Type::array(Type::Real, 3));

    // δ-rule / optimizer behavior is observably unchanged: the same
    // pipeline over a lazy and an eager binding of the same subslab
    // gives identical results.
    for q in [
        "L[17, 3, 1]",
        "dim_3!L",
        "max!{ L[0, i, j] | \\i <- gen!5, \\j <- gen!5 }",
        "[[ L[t, 0, 0] | \\t < 10 ]]",
    ] {
        let (_, vl) = s.eval_query(q).unwrap();
        let (_, ve) = s.eval_query(&q.replace('L', "E")).unwrap();
        assert_eq!(vl, ve, "query {q}");
    }
    // Equality across representations holds wholesale.
    let (_, eq) = s.eval_query("L = E").unwrap();
    assert_eq!(eq, Value::Bool(true));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_bounds_subscript_is_bottom_on_lazy_arrays() {
    let dir = tmpdir("oob");
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().unwrap(), &path, VERSION_CLASSIC).unwrap();
    let p = path.to_str().unwrap();

    let mut s = Session::new();
    register_netcdf(&mut s);
    s.run(&format!(
        "readval \\T using NETCDF3 at (\"{p}\", \"temp\", (0, 0, 0), (99, 4, 4));"
    ))
    .unwrap();
    // §2: out-of-bounds subscripting is the error value, not a host
    // error — the lazy path must preserve that.
    let (_, v) = s.eval_query("T[100, 0, 0]").unwrap();
    assert_eq!(v, Value::Bottom);

    std::fs::remove_dir_all(&dir).ok();
}

/// `\store` totals each source once — the session's sum of the rows its
/// statements left — and then lists each binding's residency. A read
/// outside any statement (`Session::eval_expr_raw`) is counted by the
/// thread's sum and by no statement's row, so not in those totals.
#[test]
fn store_totals_each_source_once_from_the_statements_rows() {
    use aql_core::expr::builder::{global, nat, sub};

    let dir = tmpdir("two-bindings");
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().unwrap(), &path, VERSION_CLASSIC).unwrap();
    let p = path.to_str().unwrap();
    let mut s = Session::new();
    register_netcdf(&mut s);
    s.run(&format!(
        "readval \\A using NETCDF3 at (\"{p}\", \"temp\", (0, 0, 0), (99, 4, 4));
         readval \\B using NETCDF3 at (\"{p}\", \"temp\", (4000, 0, 0), (4099, 4, 4));
         A[5, 2, 2] + B[5, 2, 2];"
    ))
    .unwrap();
    let sum = |of: fn(&aql_core::eval::EvalStats) -> u64| s.statement_stats().iter().map(of).sum::<u64>();
    let (hits, misses, read) = (sum(|st| st.cache.hits), sum(|st| st.cache.misses), sum(|st| st.cache.bytes_read));
    assert!(hits > 0 && misses > 0 && read > 0);
    let report = s.store_report();
    let lines = |prefix: &str| -> Vec<String> {
        report.lines().filter(|l| l.trim_start().starts_with(prefix)).map(str::to_string).collect()
    };
    assert_eq!(lines("store: 2 open chunk source(s)").len(), 1, "{report}");
    assert_eq!(
        lines("netcdf:temp "),
        vec![format!("  netcdf:temp  hits={hits} misses={misses} read={read} errors=0")],
        "one totals line, the sum of the statements' rows: {report}"
    );
    let bindings: Vec<String> = [lines("A "), lines("B ")].concat();
    assert_eq!(bindings.len(), 2, "{report}");
    assert!(bindings.iter().all(|l| l.contains("source=netcdf:temp")), "{report}");

    let before = aql_store::stats::global();
    let e = sub(global("B"), vec![nat(99), nat(4), nat(4)]);
    assert!(matches!(s.eval_expr_raw(&e), Ok(Value::Real(_))));
    assert_eq!(aql_store::stats::global().delta_since(&before).hits, 1, "the thread counts it");
    assert_eq!(s.store_report(), report, "no statement's row does");
    std::fs::remove_dir_all(&dir).ok();
}
