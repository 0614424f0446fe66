//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! aql-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//!               [--dir <path>] [--quick] [--out <file.jsonl>]
//! aql-benchmark compare <a.jsonl> <b.jsonl>
//! aql-benchmark describe
//! ```

mod compare;
mod gen;
mod io;
mod probes;
mod run;
mod sess;
mod span;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: aql-benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] \
         [--dir <path>] [--quick] [--out <file.jsonl>]\n\
         \x20      aql-benchmark compare <a.jsonl> <b.jsonl>\n\
         \x20      aql-benchmark describe",
        names.join("|")
    )
}

fn parse_run_args(argv: &[String]) -> Result<run::Args, String> {
    let mut args = run::Args {
        workload: String::new(),
        seed: 0,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        dir: None,
        quick: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--dir" => args.dir = Some(value.into()),
            "--out" => args.out = Some(value.into()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("`--workload` is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("`--seconds` must be in (0, 600]".into());
    }
    Ok(args)
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (report, regressed) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", spec::describe());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &argv[1..] {
            [a, b] => compare_files(a, b),
            _ => Err(usage()),
        },
        _ => parse_run_args(&argv)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|args| {
                let record = run::run(&args)?;
                print!("{}", record.table());
                println!("{}", record.result_line());
                Ok(ExitCode::SUCCESS)
            }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("aql-benchmark: {e}");
        ExitCode::from(2)
    })
}
