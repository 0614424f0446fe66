//! Print every experiment table (E1–E10).
//!
//! `cargo run -p aql-bench --release --bin experiments` — full sweeps
//! (the output recorded in EXPERIMENTS.md).
//! Pass `--quick` for the reduced sweeps used by CI/tests.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "AQL experiment harness — reproducing the quantitative claims of\n\
         Libkin, Machlin & Wong, SIGMOD 1996 ({} sweeps)\n",
        if quick { "quick" } else { "full" }
    );
    for table in aql_bench::experiments::run_all(quick) {
        println!("{table}");
    }
    println!("All experiments completed; every built-in consistency assertion passed.");
}
