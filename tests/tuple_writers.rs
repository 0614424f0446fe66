//! The scalar-only writers refuse an array of tuples with the error
//! they always gave, whichever store holds its cells: AQF's
//! "arrays of scalars only" and NETCDF's "elements must be numeric",
//! each naming the first cell, with the same failure class.

use aql::core::value::array::ArrayData;
use aql::journal::ErrorClass;
use aql::lang::errors::LangError;
use aql::lang::session::Session;

/// A session holding `Z = [[ (i, i > 0) | i < 3 ]]`, with both
/// writers registered, and a scratch directory.
fn session(tag: &str) -> (Session, std::path::PathBuf) {
    let name = format!("aql-tuple-writers-{tag}-{}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut s = Session::new();
    aql::format::register_aqf(&mut s);
    aql::netcdf::driver::register_netcdf(&mut s);
    s.run("val \\Z = [[ (i, i > 0) | \\i < 3 ]];").expect("bind");
    let z = s.val("Z").expect("bound").as_array().expect("an array").clone();
    assert!(matches!(z.array_data(), ArrayData::Columns(_)), "a column array");
    (s, dir)
}

/// The error `statement` fails with, as text and class.
fn refusal(s: &mut Session, statement: &str) -> (String, ErrorClass) {
    let e: LangError = s.run(statement).expect_err("a tuple array is refused");
    (e.to_string(), e.class())
}

#[test]
fn aqf_refuses_a_tuple_array_as_it_always_did() {
    let (mut s, dir) = session("aqf");
    let path = dir.join("z.aqf");
    let statement = format!("writeval Z using AQF at \"{}\";", path.display());
    let (text, class) = refusal(&mut s, &statement);
    assert_eq!(text, "session error: AQF: arrays of scalars only; found element (0, false)");
    assert_eq!(class, ErrorClass::Error);
    assert!(!path.exists(), "nothing written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn netcdf_refuses_a_tuple_array_as_it_always_did() {
    let (mut s, dir) = session("netcdf");
    let path = dir.join("z.nc");
    let statement = format!("writeval Z using NETCDF at (\"{}\", \"z\");", path.display());
    let (text, class) = refusal(&mut s, &statement);
    assert_eq!(text, "session error: NETCDF writer: elements must be numeric, got (0, false)");
    assert_eq!(class, ErrorClass::Error);
    assert!(!path.exists(), "nothing written");
    std::fs::remove_dir_all(&dir).ok();
}
