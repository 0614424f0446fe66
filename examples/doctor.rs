//! `\doctor` as a command-line tool: incident analysis offline.
//!
//! Usage:
//!
//! ```text
//! cargo run --example doctor -- <incident-file.json>   analyze one dump
//! cargo run --example doctor -- --dir <incident-dir>   analyze the newest dump
//! cargo run --example doctor -- --demo                 self-contained walkthrough
//! cargo run --example doctor -- --json <file-or-mode>  machine-readable output
//! ```
//!
//! With a file or directory argument the tool loads the incident and
//! prints the same report the REPL's `\doctor;` renders: dominant cost
//! source, cache behavior, retry and load-error timeline, fault class, and a
//! plain-language diagnosis.
//!
//! `--json` (which may precede any of the other forms) switches the
//! report to one stable-key JSON object per incident — see
//! [`doctor::diagnose_json`] for the key contract — so the output can
//! be piped into `jq` or an alerting hook.
//!
//! `--demo` runs a session against a fault-injected chunk source so a
//! fresh checkout can see the whole pipeline — statement fails, an
//! incident file appears, the doctor names the failing source — without
//! needing a broken disk.

use std::path::{Path, PathBuf};

use aql::journal::{doctor, incident};

fn analyze(path: &Path, json: bool) -> Result<(), String> {
    let inc = incident::Incident::load(path)?;
    if json {
        println!("{}", doctor::diagnose_json(&inc));
    } else {
        println!("incident: {}", path.display());
        print!("{}", doctor::diagnose(&inc));
    }
    Ok(())
}

fn newest_in(dir: &Path) -> Result<PathBuf, String> {
    incident::list_incidents(dir)
        .into_iter()
        .next()
        .ok_or_else(|| format!("no incident files in {}", dir.display()))
}

/// Build a session over a deterministically faulty chunk source, run a
/// scan that trips the retry path into a hard failure, and doctor the
/// resulting incident file.
fn demo(json: bool) -> Result<(), String> {
    use aql::core::types::Type;
    use aql::core::value::array::ArrayVal;
    use aql::core::value::Value;
    use aql::lang::session::Session;
    use aql::store::{
        ChunkLayout, Fault, FaultyChunkSource, LazyArray, MemChunkSource, ResiliencePolicy,
        ResilientSource, ScalarBuf, ScalarKind,
    };

    let dir = std::env::temp_dir().join(format!("aql-doctor-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

    let n = 64u64;
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mem = MemChunkSource::new(vec![n], ScalarBuf::F64(data)).map_err(|e| e.to_string())?;
    // The 8th read and every retry of it fail transiently: the retry
    // budget burns out and the statement errors.
    let plan = |op, _: &[u64]| (7..16).contains(&op).then_some(Fault::Transient);
    let faulty = FaultyChunkSource::new(Box::new(mem), plan);
    let resilient = ResilientSource::new(
        Box::new(faulty),
        "demo:flaky-disk",
        ResiliencePolicy::default(),
    );
    let layout = ChunkLayout::new(vec![n], vec![4]).map_err(|e| e.to_string())?;
    let lazy = LazyArray::labeled(
        layout,
        ScalarKind::F64,
        Box::new(resilient),
        1 << 20,
        "demo:flaky-disk",
    );
    let av = ArrayVal::lazy(lazy).map_err(|e| format!("{e:?}"))?;

    let mut s = Session::new();
    s.bind_val_typed("sst", Value::Array(std::rc::Rc::new(av)), Type::array1(Type::Real));
    s.enable_incidents(&dir);

    if !json {
        println!("demo: scanning a 64-element array whose chunk 7 always fails...\n");
    }
    match s.run("reverse!sst;") {
        Ok(_) if !json => println!("demo: unexpectedly succeeded (no incident)"),
        Err(e) if !json => println!("statement failed as planned: {e}\n"),
        _ => {}
    }
    let path = s
        .last_incident_path()
        .ok_or("the failing statement must dump an incident")?;
    analyze(&path, json)?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.first().map(String::as_str) == Some("--json");
    if json {
        args.remove(0);
    }
    let result = match args.first().map(String::as_str) {
        Some("--demo") => demo(json),
        Some("--dir") => match args.get(1) {
            Some(d) => newest_in(Path::new(d)).and_then(|p| analyze(&p, json)),
            None => Err("usage: doctor [--json] --dir <incident-dir>".to_string()),
        },
        Some(file) => analyze(Path::new(file), json),
        None => Err(
            "usage: doctor [--json] <incident-file.json> | --dir <incident-dir> | --demo"
                .to_string(),
        ),
    };
    if let Err(e) = result {
        eprintln!("doctor: {e}");
        std::process::exit(1);
    }
}
