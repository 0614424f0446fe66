//! The paper's two worked examples, end-to-end through every crate:
//! surface parsing, Fig. 2 desugaring, typechecking, the §5 optimizer,
//! the evaluator, and the NetCDF driver over synthetic data.

use aql::externals::{register_heatindex, register_june_sunset};
use aql::lang::session::Session;
use aql::netcdf::driver::register_netcdf;
use aql::netcdf::synth;
use aql_core::types::Type;
use aql_core::value::Value;

fn data_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("aql-it-{tag}-{}", std::process::id()))
}

fn june_session(tag: &str) -> Session {
    let dir = data_dir(tag);
    let (_, june) = synth::write_example_data(&dir).expect("synthetic data");
    let p = june.to_str().expect("utf-8");
    let mut s = Session::new();
    register_netcdf(&mut s);
    register_heatindex(&mut s);
    let hours = synth::JUNE_HOURS as u64;
    s.run(&format!(
        r#"readval \T using NETCDF1 at ("{p}", "T", 0, {th});
           readval \RH using NETCDF1 at ("{p}", "RH", 0, {th});
           readval \WS using NETCDF2 at ("{p}", "WS", (0, 0), ({wh}, {lh}));
           val \threshold = 96.0;"#,
        th = hours - 1,
        wh = 2 * hours - 1,
        lh = synth::WS_LEVELS - 1,
    ))
    .expect("setup");
    s
}

const HEAT_QUERY: &str = r#"{d | \d <- gen!30,
     \WS' == evenpos!(proj_col!(WS, 0)),
     \TRW == zip_3!(T, RH, WS'),
     \A == subseq!(TRW, d*24, d*24+23),
     heatindex!(A) > threshold}"#;

#[test]
fn section1_heat_query_finds_the_heatwaves() {
    let mut s = june_session("heat");
    let (ty, v) = s.eval_query(HEAT_QUERY).expect("query");
    assert_eq!(ty, Type::set(Type::Nat));
    let expect = Value::set(
        synth::HEATWAVE_DAYS
            .iter()
            .map(|&d| Value::Nat((d - 1) as u64))
            .collect(),
    );
    assert_eq!(v, expect);
}

#[test]
fn section1_heat_query_same_without_optimizer() {
    let mut s = june_session("heat-noopt");
    let (_, with) = s.eval_query(HEAT_QUERY).expect("optimized");
    s.optimize = false;
    let (_, without) = s.eval_query(HEAT_QUERY).expect("unoptimized");
    assert_eq!(with, without);
}

#[test]
fn section1_zip_subseq_order_is_irrelevant() {
    // The §1 discussion: exchanging zip and subseq yields the same
    // answer (and §5 shows the optimizer makes it the same *plan*).
    let mut s = june_session("flip");
    let flipped = r#"{d | \d <- gen!30,
         \WS' == evenpos!(proj_col!(WS, 0)),
         \A == zip_3!(subseq!(T, d*24, d*24+23),
                      subseq!(RH, d*24, d*24+23),
                      subseq!(WS', d*24, d*24+23)),
         heatindex!(A) > threshold}"#;
    let (_, a) = s.eval_query(HEAT_QUERY).expect("original");
    let (_, b) = s.eval_query(flipped).expect("flipped");
    assert_eq!(a, b);
}

#[test]
fn the_section1_query_and_both_e3_orders_run_as_kernels_at_the_interpreters_cost() {
    // β^p leaves every fused subscript of these under `if … else ⊥`;
    // the nests run unboxed all the same (`⊥` is the kernel's escape,
    // and no cell here takes it), 24 cells a day for the §1 query, and
    // are charged what the interpreter charges with kernels off.
    let mut s = june_session("kernels");
    let counted = |s: &mut Session, q: &str| {
        let (out, report) = s.profile(&format!("{q};")).expect("the query runs");
        let stats = report.statements.last().copied().expect("one statement");
        let counter = |name: &str| report.trace.total_counter(&format!("eval.kernel_{name}"));
        (
            (out.last().and_then(|o| o.value.clone()), stats.steps, stats.subscripts, stats.materialized),
            [counter("nests"), counter("cells"), counter("escapes"), counter("binds")],
        )
    };
    let queries = [
        // The §1 query's day nest is bound once and entered 30 times.
        (HEAT_QUERY, [30, 720, 0, 1]),
        ("subseq!(zip!(T, RH), 10, 13)", [1, 4, 0, 1]),
        ("zip!(subseq!(T, 10, 13), subseq!(RH, 10, 13))", [1, 4, 0, 1]),
    ];
    for (q, kernels) in queries {
        let (on, ran) = counted(&mut s, q);
        // (Process-wide, and harmless to the tests beside this one:
        // they assert values, which do not depend on it.)
        aql_core::eval::bounds::set_enabled(false);
        let (off, none) = counted(&mut s, q);
        aql_core::eval::bounds::set_enabled(true);
        assert_eq!(on, off, "{q}");
        assert_eq!((ran, none), (kernels, [0, 0, 0, 0]), "{q}");
    }
}

#[test]
fn section42_sunset_session_verbatim() {
    let dir = data_dir("sunset");
    let (temp, _) = synth::write_example_data(&dir).expect("synthetic data");
    let p = temp.to_str().expect("utf-8");

    let mut s = Session::new();
    register_netcdf(&mut s);
    register_june_sunset(&mut s);

    // The session, statement for statement (§4.2).
    let months = s
        .run("val \\months = [[0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30]];")
        .expect("months");
    assert!(months[0].text.contains("typ months : [[nat]]_1"));

    let mac = s
        .run(
            "macro \\days_since_1_1 = fn (\\m, \\d, \\y) =>
                d + summap(fn \\i => months[i])!(gen!m) +
                (if m > 2 and y % 4 = 0 then 1 else 0);",
        )
        .expect("macro");
    assert!(mac[0].text.contains("typ days_since_1_1 : nat * nat * nat -> nat"));

    // The paper's date arithmetic.
    let (_, v) = s.eval_query("days_since_1_1!(6, 1, 95)").expect("date");
    assert_eq!(v, Value::Nat(152));

    s.run("val \\NYlat = 40.7; val \\NYlon = -74.0;").expect("coords");
    s.run("macro \\lat_index = fn \\x => 2; macro \\lon_index = fn \\x => 2;")
        .expect("index macros");

    let read = s
        .run(&format!(
            "readval \\T using NETCDF3 at
               (\"{p}\", \"temp\",
                (days_since_1_1!(6, 1, 95) * 24, lat_index!(NYlat), lon_index!(NYlon)),
                (days_since_1_1!(6, 30, 95) * 24, lat_index!(NYlat), lon_index!(NYlon)));"
        ))
        .expect("readval");
    assert_eq!(read[0].ty, Some(Type::array(Type::Real, 3)));

    let (ty, v) = s
        .eval_query(
            "{d | [(\\h, _, _) : \\t] <- T, \\d == h/24 + 1,
                  h > june_sunset!(NYlat, NYlon, d), t > 85.0}",
        )
        .expect("query");
    assert_eq!(ty, Type::set(Type::Nat));
    // The paper's own answer.
    assert_eq!(
        v,
        Value::set(vec![Value::Nat(25), Value::Nat(27), Value::Nat(28)])
    );
}

#[test]
fn netcdfinfo_lists_the_june_variables() {
    let dir = data_dir("info");
    let (_, june) = synth::write_example_data(&dir).expect("synthetic data");
    let mut s = Session::new();
    register_netcdf(&mut s);
    s.run(&format!(
        "readval \\info using NETCDFINFO at \"{}\";",
        june.display()
    ))
    .expect("info");
    let (_, names) = s.eval_query("{n | (\\n, _) <- info}").expect("names");
    assert_eq!(
        names,
        Value::set(vec![Value::str("RH"), Value::str("T"), Value::str("WS")])
    );
    // WS is 2-d with the extra altitude dimension (§1).
    let (_, dims) = s
        .eval_query("get!{d | (\"WS\", \\d) <- info}")
        .expect("dims");
    assert_eq!(
        dims,
        Value::array1(vec![
            Value::Nat(2 * synth::JUNE_HOURS as u64),
            Value::Nat(synth::WS_LEVELS as u64)
        ])
    );
}

#[test]
fn heat_query_respects_threshold_monotonicity() {
    let mut s = june_session("threshold");
    let (_, low) = s
        .eval_query(&HEAT_QUERY.replace("threshold", "80.0"))
        .expect("low threshold");
    let (_, high) = s
        .eval_query(&HEAT_QUERY.replace("threshold", "200.0"))
        .expect("high threshold");
    let low_days = low.as_set().expect("set").len();
    let high_days = high.as_set().expect("set").len();
    assert!(low_days >= 3, "a low threshold admits at least the heat waves");
    assert_eq!(high_days, 0, "an impossible threshold admits nothing");
}
