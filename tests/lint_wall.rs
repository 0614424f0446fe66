//! The workspace lint wall: rules over the non-test library code under
//! `crates/*/src`.
//!
//! **No aborts**: no `panic!(`, `.unwrap()`, `todo!(`,
//! `unimplemented!(`, or `dbg!(`. Robustness is a stated goal (PR 1
//! made extension panics survivable; PR 4 made internal invariants
//! report instead of abort) — the wall keeps new aborts from creeping
//! back in. Escapes:
//!
//! * test code — `#[cfg(test)]` modules are stripped before scanning;
//! * comments and doc examples — `//`-leading lines are skipped;
//! * deliberate aborts — annotate the line (or the line above) with
//!   `// lint-wall: allow` and a justification;
//! * the vendored `proptest-shim` is exempt (test-only by nature).
//!
//! **One scoping table**: a function that matches on every `Expr`
//! constructor has to name the rarest one, so [`SENTINEL`] may appear
//! only in the files of [`MAY_MATCH_EVERY_CONSTRUCTOR`] — the enum (and
//! its payload-free `Head` tag), the three child primitives of
//! `aql_core::expr::children`, and the passes that do per-constructor
//! work. A traversal that only needs to reach children is written on
//! the primitives instead.
//!
//! **One injector**: [`INJECTOR`] may appear in non-test library code
//! only in the files of [`MAY_NAME_THE_INJECTOR`], where it is defined
//! and exported. A byte-level `Read` wrapper in `aql-netcdf`, a `chaos`
//! field on the NetCDF reader and a fault plan inside
//! `RemoteChunkSource` were each a second way to break a read; no
//! reader, driver or source embeds an injector again — a test composes
//! `FaultyChunkSource` with what it breaks.
//!
//! **One engine, no longer**: the optimizer's `engine.rs` stays within
//! [`ENGINE_LINES`] non-test lines, the baseline ROADMAP holds "not
//! longer" against. (That figure still included the rewrite trace's
//! record type, `trace.rs` since issue 19 — ROADMAP has both numbers.)
//!
//! **One typing judgement**: `crates/analysis/src/{lint,diag}.rs` stay
//! within [`VERIFY_LINES`] non-test lines — diagnostics and the `\lint`
//! walk. Issue 22 deleted a second implementation of Fig. 1 from them
//! (a term verifier over its own type lattice, 725 lines, then in the
//! `aql-verify` crate that issue 26 folded into `aql-analysis`); what
//! types a term is `aql_core::check`, and a pass that needs more than
//! this budget is probably growing that lattice back.
//!
//! **Telemetry is folds, not mechanisms**: the two observability
//! crates, `crates/{trace,journal}/src` (the metrics registry is the
//! journal's `metrics` module), stay within [`TELEMETRY_LINES`]
//! non-test lines together — neither is one of the paper's four
//! modules (§4, Fig. 3). Deleting the span sampler (its thread, the
//! live-path seqlock and interner) took them from 4,831 to 4,488; a
//! profile is a fold of the trace or of the flight recorder
//! (`aql_trace::profile`), so the tracer and its renderer start no
//! threads: no `thread::` in `crates/trace/src` outside tests.
//!
//! **Storage is chunks, a cache and three read layers**: `crates/store/
//! src` stays within [`STORE_LINES`] non-test lines. Items 2, 14(b) and
//! 15 of ROADMAP gate on this count; the circuit breaker, a fourth
//! layer between the interrupt check and the retry loop that changed no
//! statement's answer, went first.
//!
//! **The session is an environment and a pipeline**: `crates/aql-lang/
//! src/session.rs` stays within [`SESSION_LINES`] non-test lines — the
//! registries of the paper's Fig. 3 environment and the statement
//! pipeline. Every account of a finished statement (the `\profile`
//! report, the slow-query log, incident dumps, `\store`, `\doctor`) is a
//! view of its one record in `report.rs`; a view written back into the
//! session would rebuild that account a second time. Nor does a view
//! difference a process aggregate around a statement: no
//! [`PROCESS_AGGREGATE`] in `crates/aql-lang/src`, where another
//! thread's work would land in this statement's account.
//!
//! **Kernels admit shapes, not mechanisms**: `crates/core/src/eval/
//! kernel.rs` stays within [`KERNEL_LINES`] non-test lines. Issue 24
//! admitted what β^p leaves behind — tuples, `⊥` — by making them nodes
//! of the one fragment (the head enum went), and sized windows at bind
//! in the function that already folded the offsets.
//!
//! **A round that deletes stays deleted**: every `crates/*/src`
//! together (the `proptest` shim included) stays within [`CRATES_LINES`]
//! non-test lines — ROADMAP 7's "hold it there". Issue 25 set it when it
//! deleted `aql-bench` (28,283 → 27,293), issue 26 lowered it when it
//! folded `aql-verify` and `aql-profile` away; a PR that needs more
//! raises it and says why.
//!
//! **A crate declares what it uses**: every `aql-*` entry under a
//! crate's `[dependencies]` is named, as `aql_*`, in a non-test,
//! non-comment line of that crate's `src`. A dependency only its tests
//! use is a dev-dependency; one nothing uses is a stale edge.
//!
//! **One inventory**: README's Architecture block and DESIGN.md §4 each
//! name exactly the directories under `crates/` (the shim included),
//! so a crate cannot be added or folded away without the tour
//! following.
//!
//! **No classifier reads prose**: the four files a failure passes
//! through on its way to a class name ([`CLASSIFIED_STRUCTURALLY`])
//! contain no `.contains("` and no `.starts_with("` — a class comes
//! from the error value's variant, never from its rendered message,
//! which any program can make spell anything (`budget;`).
//!
//! **One depth mechanism**: a recursive pass asks `aql_core::stack`
//! whether this thread's stack holds another level. No syntax budget
//! comes back ([`SYNTAX_BUDGET`] appears nowhere under `crates/*/src`),
//! and no code picks a thread's stack size to make a pass fit
//! (`stack_size` is called only in the files of [`MAY_SIZE_A_STACK`],
//! each a test that says why).
//!
//! Nothing but `cargo test` runs these checks; CI has no grep step.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose sources are exempt wholesale.
const EXEMPT_CRATES: &[&str] = &["proptest-shim"];

/// The forbidden substrings. The last three keep scaffolding out of
/// shipped code: `todo!`/`unimplemented!` abort at runtime, and `dbg!`
/// writes to stderr from library internals.
const FORBIDDEN: &[&str] = &["panic!(", ".unwrap()", "todo!(", "unimplemented!(", "dbg!("];

/// The constructor every exhaustive match on `Expr` (or on its
/// compiled mirror `CExpr`) has to spell out.
const SENTINEL: &str = "BigBagUnionRank";

/// The files under `crates/` that may name [`SENTINEL`] outside tests
/// and comments.
const MAY_MATCH_EVERY_CONSTRUCTOR: &[&str] = &[
    // The enum, its constructors and the scoping table.
    "core/src/expr/mod.rs",
    "core/src/expr/builder.rs",
    "core/src/expr/children.rs",
    // Passes that do per-constructor work.
    "core/src/expr/display.rs",
    "core/src/check/mod.rs",
    "core/src/eval/compile.rs",
    "core/src/eval/mod.rs",
    "analysis/src/analyze.rs",
    "analysis/src/cost.rs",
    "analysis/src/lint.rs",
];

/// The one fault injector.
const INJECTOR: &str = "FaultyChunkSource";

/// The files under `crates/` that may name [`INJECTOR`] outside tests
/// and comments: its definition and its export.
const MAY_NAME_THE_INJECTOR: &[&str] = &["store/src/fault.rs", "store/src/lib.rs"];

/// The files under `crates/` that map a failure to its class, or hold
/// the loop that decides whether to retry one.
const CLASSIFIED_STRUCTURALLY: &[&str] = &[
    "aql-lang/src/session.rs",
    "journal/src/doctor.rs",
    "store/src/resilient.rs",
    "core/src/error.rs",
];

/// The thread's sum of attribution rows. A statement's cache counters
/// are its own row, so no library code differences this sum around a
/// piece of work; `crates/store/src/stats.rs` defines it.
const THREAD_SUM: &str = "stats::global";

/// A metric family's process-wide total. The session's views are of one
/// statement, so none of them reads it: the slow-query log's
/// `rule_fires` once differenced it around a statement and logged every
/// thread's firings as that statement's.
const PROCESS_AGGREGATE: &str = "family_total";

/// The name the two syntax budgets the stack guard replaced went by.
const SYNTAX_BUDGET: &str = "MAX_DEPTH";

/// The files (under the repository root) that may size a thread's
/// stack, and why.
const MAY_SIZE_A_STACK: &[(&str, &str)] = &[
    ("tests/paper_claims.rs", "E4's 64-deep `append!` chain needs more than a debug test thread's 2 MiB"),
    ("tests/hostile_nesting.rs", "proves the guard reads the stack of the thread it runs on (512 KiB)"),
    ("crates/aql-opt/src/engine.rs", "the re-walk test shows the engine's recursion is the term's depth"),
];

/// Non-test lines of `crates/aql-opt/src/engine.rs` at issue 18, by
/// [`non_test_lines`]'s count (475); raised by 17 when a rule that
/// substitutes had its contractum's children rewritten before its root
/// was re-offered (492: `Rule::substitutes` and its doc, the child walk
/// factored into `pass_children` so the firing can call it again);
/// raised by 21 when the engine began to share the stack guard (513: a
/// subterm past this thread's stack is left as it came and no rule
/// fires again in the run, a firing the per-fire gate has no stack to
/// judge is undone, and a phase check with no stack to run is
/// `OptError::TooDeep`); lowered to 510 when a pass stopped being a
/// span (the run's counts keep the passes) and a phase's name became
/// the shared string its span note holds.
const ENGINE_LINES: usize = 510;

/// The budget for `crates/analysis/src/{lint,diag}.rs`, by
/// [`non_test_lines`]'s count (334 at issue 22 as `crates/verify/src`,
/// down from 1,138).
const VERIFY_LINES: usize = 450;

/// The budget for `crates/{trace,journal}/src` together, by
/// [`non_test_lines`]'s count: 4,408 once journal slots held records
/// without a varint codec, rounded up to the next ten; 4,416 with the
/// `too-deep` class and its advice (then also counting
/// `crates/metrics/src`); lowered to 4,181 when that crate became the
/// journal's `metrics` module and the trace merge, the counter shards
/// and the trace's JSON round trip went; lowered to 4,099 when the
/// governor stopped gating (its shed/deny events, quantities and ledger
/// fields, the ring's capacity setter); lowered to 4,094 when the one
/// gauge became a high-water mark (its setter and adder went); lowered
/// to 4,092 when the attribution row became the one recorder of cache
/// counts (the `ACTIVE` flag, the `TOTALS` cell and their branches went;
/// the closed-row sum and `SourceCounts`' `Add` came); lowered to 4,091
/// when a cache hit stopped updating the open row (`attr::hit` went: the
/// coalesced hits fold into the row where they are flushed to the ring);
/// lowered to 4,089 when an incident's metrics baseline became raw
/// readings by handle (`readings`, `rises_since`) and exposition's two
/// spellings of a series key became one; lowered to 3,995 when the
/// tracer stopped counting (`count`, `count_with`, the span and trace
/// counters, `total_counter`, `Trace::is_empty` and the counters'
/// rendering, each quantity's trace name, `BreakerClose` and
/// `Journal::merge` went; the ledger's hyperslab requests came); lowered
/// to 3,935 when every run came to record its own span tree (the
/// tracer's on/off switch and optional collector, the span name's copy
/// and the note's closure, `Trace::roots` and the per-span child scan of
/// the renderer, `Trace::folded`'s second merge, and the incident's
/// registry baseline — `Readings`, `readings`, `rises_since` and the
/// handle address in a metric's reading — went; the recording `Scope`
/// and the shared-string `Note` came); lowered to 3,836 when the store's
/// circuit breaker went (its three events, tags and metric series, the
/// ledger's trip count, the `breaker_trip` incident kind, the doctor's
/// breaker branch and timeline lines, and the dashboard's `breakers`
/// array and table with the label lookup only it used; the loader that
/// skips the retired names came).
const TELEMETRY_LINES: usize = 3836;

/// The budget for `crates/store/src`, by [`non_test_lines`]'s count: 2,689
/// with the per-source circuit breaker; lowered to 2,499 when it went
/// (`CircuitBreaker`, `BreakerPolicy`, `BreakerState`, the policy's
/// breaker field, `StoreError::Unavailable`, and `ResilientSource`'s own
/// retry tally beside the journal's).
const STORE_LINES: usize = 2499;

/// The budget for `crates/aql-lang/src/session.rs`, by
/// [`non_test_lines`]'s count: 862 when the reports moved to `report.rs`
/// as views of one finished-statement record (from 1,404, which rebuilt
/// each statement's account in six places from five fields); lowered to
/// 850 when the record came to carry every count of a statement and
/// `last_report` became its one per-statement view (`statement_stats`
/// and `statement_attribution` went); raised to 872 when a macro came to
/// be normalized once, where it is defined: the registry keeps each
/// body as written and its normal form, `normal_body` runs the session's
/// own `normalize` phase under its gate and keeps the result only at a
/// fixpoint no deeper and no larger than the body, of the body's
/// principal type and over no `val` or external, and the resolver
/// chooses between the two (the environment's work, not a report's);
/// lowered to 869 when the statement stopped asking its row whether a
/// circuit breaker tripped (the breaker went; see [`STORE_LINES`]).
const SESSION_LINES: usize = 869;

/// The budget for `crates/core/src/eval/kernel.rs`, by
/// [`non_test_lines`]'s count (1,196 at issue 23; issue 24 admitted
/// tuples and `⊥` and sized windows at bind; raised by 120 when a row
/// became the unit a kernel runs — 1,432: the grid driver, row code for
/// the elementwise fragment, the run-wise `if`, the axis collapse and
/// column operands, less the cell-only closures, the tuple slots and
/// the per-cell loops they replaced); raised by 245 when a nest under an
/// interpreted loop became bound once per evaluation — 1,676: the bound
/// nest, its entry and its re-bind key, captures as slots (but by value
/// in a nest entered once and in a trip count), windows placed on each
/// entry and read through the frame, a nest entered once keeping the
/// parent's by-value path beside it, less `window_of` and
/// `bind_and_run`: admitting more shapes must not grow the planner
/// without bound; lowered to 1,666 when the entry stopped asking the
/// governor what it admits (`max_elems` is the one loop limit); lowered
/// to 1,665 when the kernel counts became one struct beside `EvalStats`;
/// raised to 1,731 when a `Σ` or `min!`/`max!` nest began to run the box
/// of its levels as one grid of rows, 66 lines more: the per-cell level
/// path it replaced (`sum_rows`, the set levels' `level`, `extreme`,
/// `keep_rows` and `is_level`, `Frame::each`, the `min!`/`max!` sink's
/// own root, about 100 lines) went, and `Binder::grid` (the levels, and
/// their `let`s substituted inside the box only), the level-ordered
/// accumulators (`sum_box`, and `close` with its four-wide sums of whole
/// iterations, 12 lines that a paired `warm_scan` run kept) and `keep`'s
/// integer keys came.
const KERNEL_LINES: usize = 1731;

/// The budget for every `crates/*/src` together, by [`non_test_lines`]'s
/// count: 26,758 once the rebuilding child map was deleted and rules
/// took the redex by value, rounded up to the next hundred; raised by
/// 120 when arrays of tuples became columns (26,912: the `Column`
/// buffer, the columnar store, `component_at`, the kernel's row writer
/// and the strided gather that fills a tuple head's windows, less the
/// boxed tuple path, its `try_tuple` helper and the three typed
/// variants `Flat` replaced); raised by 150 when kernels began to run a
/// row at a time (27,066: see [`KERNEL_LINES`], and the trace's row count);
/// raised by 310 when kernels were bound once per evaluation and the
/// parser and the value reader got a nesting budget (27,377: the
/// kernel's 243, the budgets, their error class and the doctor's advice);
/// lowered by 590 when `aql_core::derived` went (26,790: a Rust builder
/// for every prelude macro, the builders only its own tests called, and
/// the comparison forms, now in `tests/common`; `rank.rs` keeps the
/// three pieces it used, privately); raised by 23 when a substitution
/// was reduced where it landed (26,813: see [`ENGINE_LINES`], and one
/// `substitutes()` line in each of the six library rules that
/// substitute); lowered by 192 when `\analyze` began to report the
/// kernel planner's plan (26,621: the analyzer's effect domain and its
/// fusibility guess went, and three functions nothing called); lowered
/// by 365 when `aql-metrics` became a module of `aql-journal` (26,256:
/// see [`TELEMETRY_LINES`], and the session's report JSON); lowered by
/// 325 when the governor became a ledger that only counts (25,931: the
/// process byte budget, shed-before-deny, the admission checks and
/// their error variants, and the slow-log and incident configs); raised
/// by 203 when one stack guard replaced the two syntax budgets (26,134:
/// the guard and a check in each recursive pass, the resolver's among
/// them, the desugaring of `let` blocks, tuple patterns and literals one
/// recursion an element, the statement hash's walk with its own stack,
/// the iterative `SExpr` drop and the error variants, less the
/// precedence ladder that became one loop and the two counters);
/// lowered by 6 when the attribution row became the one recorder of
/// cache counts (26,128: the cache's, the array's and `EvalCtx`'s
/// counters and the session's delta went, as did the resilience
/// options `verify_checksums` and `seed`; `\store`'s per-label totals,
/// the typechecker's projection of a known tuple and the row sums came);
/// lowered by 79 when a finished statement became one record (26,049:
/// the REPL's second scanner for strings and comments, its per-command
/// bookkeeping, the parallel per-statement vectors and the second copy
/// of the chunk-size and cache-budget defaults went; `report.rs`'s
/// record and sinks came); lowered by 5 when an incident's metrics
/// baseline became raw readings by handle (26,044: see
/// [`TELEMETRY_LINES`]; the incident writer's quadratic key match went);
/// lowered by 7 when the tracer stopped counting (26,037: see
/// [`TELEMETRY_LINES`] and [`SESSION_LINES`], and the AQF byte counts;
/// each statement's record came to carry what only the trace held — the
/// kernel counts beside `EvalStats`, the optimizer's per-run counts, the
/// hyperslab requests — and `\profile` and the Chrome export to print
/// them from it); raised by 36 when a fold's levels began to run as one
/// grid (26,073: see [`KERNEL_LINES`], less `\explain`'s second tally of
/// fires and bound hits in the rewrite trace, now read from the run's
/// counts); raised by 101 when a macro came to be normalized once, where
/// it is defined (26,174: the session's stored normal forms, see
/// [`SESSION_LINES`]; `same_principal_type` in `aql_core::check`, which
/// keeps a normal form only if it types as its body; `Expr::extent`;
/// `RunCounts::at_fixpoint` and its stack stops; `Optimizer::phase`);
/// lowered by 41 when every run came to record its own span tree
/// (26,133: 68 lower for the tree — see [`TELEMETRY_LINES`] and
/// [`ENGINE_LINES`]; the phase guard's and the statement's second clock
/// pairs and the incident's baseline in the session went, and the
/// counts' one spelling moved to the statement's record — and 27 higher
/// for code motion's own replacement walk, which substitutes away the
/// `let` that would only rename a term it hoists again); lowered by 295
/// when the store's circuit breaker went (25,838: see [`STORE_LINES`],
/// [`TELEMETRY_LINES`] and [`SESSION_LINES`]; the `tripped` flag through
/// the statement's report went too).
const CRATES_LINES: usize = 25_838;

/// Collect every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read_dir {dir:?}: {e}"));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Drop `#[cfg(test)]`-gated items (modules or functions) by brace
/// counting from the attribute line. Returns `(line_number, line)`
/// pairs for what remains.
fn non_test_lines(text: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            let mut depth: i64 = 0;
            let mut started = false;
            while i < lines.len() {
                depth += lines[i].matches('{').count() as i64;
                depth -= lines[i].matches('}').count() as i64;
                if lines[i].contains('{') {
                    started = true;
                }
                i += 1;
                if started && depth <= 0 {
                    break;
                }
            }
            continue;
        }
        out.push((i + 1, lines[i].to_string()));
        i += 1;
    }
    out
}

/// Every `.rs` file under `crates/*/src`, exempt crates left out.
fn library_sources() -> Vec<PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    let entries = fs::read_dir(&crates).expect("crates/ exists");
    for entry in entries {
        let krate = entry.expect("dir entry").path();
        let name = krate.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if EXEMPT_CRATES.contains(&name) {
            continue;
        }
        let src = krate.join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 10, "the scan must actually find the workspace sources");
    files
}

#[test]
fn no_panics_or_unwraps_in_library_code() {
    let files = library_sources();

    let mut violations = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        let kept = non_test_lines(&text);
        for (k, (ln, line)) in kept.iter().enumerate() {
            let trimmed = line.trim_start();
            // Comments (incl. doc examples) are not reachable code.
            if trimmed.starts_with("//") {
                continue;
            }
            let allowed = line.contains("lint-wall: allow")
                || (k > 0 && kept[k - 1].1.contains("lint-wall: allow"));
            if allowed {
                continue;
            }
            for pat in FORBIDDEN {
                if line.contains(pat) {
                    violations.push(format!("{}:{}: {}", path.display(), ln, line.trim()));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "forbidden `panic!(`/`.unwrap()`/`todo!(`/`unimplemented!(`/`dbg!(` in library \
         code (add `// lint-wall: allow` \
         with a justification if the abort is deliberate):\n{}",
        violations.join("\n")
    );
}

/// The lines of non-test, non-comment library code that name `word`
/// outside the `listed` files; each listed file must still name it.
fn lines_naming_outside(word: &str, listed: &[&str]) -> Vec<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let (mut seen, mut violations) = (Vec::new(), Vec::new());
    for path in library_sources() {
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        let rel = path.strip_prefix(&crates).expect("under crates/").to_string_lossy().into_owned();
        for (ln, line) in non_test_lines(&text) {
            if line.trim_start().starts_with("//") || !line.contains(word) {
                continue;
            }
            if listed.contains(&rel.as_str()) {
                seen.push(rel.clone());
            } else {
                violations.push(format!("{}:{}: {}", path.display(), ln, line.trim()));
            }
        }
    }
    for file in listed {
        assert!(seen.iter().any(|s| s == file), "{file} no longer names `{word}`: unlist it");
    }
    violations
}

#[test]
fn only_listed_files_match_every_expr_constructor() {
    let violations = lines_naming_outside(SENTINEL, MAY_MATCH_EVERY_CONSTRUCTOR);
    assert!(
        violations.is_empty(),
        "`{SENTINEL}` outside the listed files: a traversal that only reaches children \
         belongs on `aql_core::expr::children::{{for_each_child, try_for_each_child_mut}}`; \
         a new pass doing per-constructor work is added to MAY_MATCH_EVERY_CONSTRUCTOR:\n{}",
        violations.join("\n")
    );
}

#[test]
fn no_reader_driver_or_source_embeds_an_injector() {
    let violations = lines_naming_outside(INJECTOR, MAY_NAME_THE_INJECTOR);
    assert!(
        violations.is_empty(),
        "`{INJECTOR}` outside its definition and export: a test composes the injector \
         with the source it breaks; no reader, driver or source embeds one:\n{}",
        violations.join("\n")
    );
}

#[test]
fn no_statement_account_is_a_delta_of_the_thread_sum() {
    let violations = lines_naming_outside(THREAD_SUM, &[]);
    assert!(
        violations.is_empty(),
        "`{THREAD_SUM}` read in library code: a statement's cache counters are its \
         attribution row (`CacheStats::from(&ledger)`), not a delta of the thread's sum:\n{}",
        violations.join("\n")
    );
}

#[test]
fn no_statement_view_reads_a_process_aggregate() {
    let mut files = Vec::new();
    rust_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/aql-lang/src"), &mut files);
    let mut violations = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        for (ln, line) in non_test_lines(&text) {
            if !line.trim_start().starts_with("//") && line.contains(PROCESS_AGGREGATE) {
                violations.push(format!("{}:{ln}: {}", path.display(), line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "`{PROCESS_AGGREGATE}` read in `crates/aql-lang/src`: a per-statement view reads the \
         statement's record, never a process aggregate:\n{}",
        violations.join("\n")
    );
}

#[test]
fn no_classifier_reads_a_rendered_message() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut violations = Vec::new();
    for rel in CLASSIFIED_STRUCTURALLY {
        let path = crates.join(rel);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        for (ln, line) in non_test_lines(&text) {
            if line.trim_start().starts_with("//") {
                continue;
            }
            if line.contains(".contains(\"") || line.contains(".starts_with(\"") {
                violations.push(format!("{rel}:{ln}: {}", line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "a failure's class is its error value's (`LangError::class` → `EvalError::class` → \
         `StoreError::error_class`), not a substring of its message:\n{}",
        violations.join("\n")
    );
}

/// Non-test lines of the `.rs` file `rel` (under `crates/`), or of every
/// one under it if it is a directory.
fn non_test_line_count(rel: &str) -> usize {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates").join(rel);
    let mut files = Vec::new();
    if path.is_dir() {
        rust_files(&path, &mut files);
    } else {
        files.push(path);
    }
    let count = |path: &PathBuf| {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        non_test_lines(&text).len()
    };
    files.iter().map(count).sum()
}

#[test]
fn the_rewrite_engine_is_not_longer_than_its_baseline() {
    let lines = non_test_line_count("aql-opt/src/engine.rs");
    assert!(lines <= ENGINE_LINES, "engine.rs has {lines} non-test lines, over {ENGINE_LINES}");
}

#[test]
fn the_session_holds_no_report() {
    let lines = non_test_line_count("aql-lang/src/session.rs");
    assert!(
        lines <= SESSION_LINES,
        "session.rs has {lines} non-test lines, over {SESSION_LINES} (a view of a finished \
         statement belongs in report.rs)"
    );
}

#[test]
fn the_store_stays_within_its_budget() {
    let lines = non_test_line_count("store/src");
    assert!(lines <= STORE_LINES, "crates/store/src: {lines} non-test lines, over {STORE_LINES}");
}

#[test]
fn the_kernel_planner_stays_within_its_budget() {
    let lines = non_test_line_count("core/src/eval/kernel.rs");
    assert!(lines <= KERNEL_LINES, "kernel.rs has {lines} non-test lines, over {KERNEL_LINES}");
}

#[test]
fn the_lint_pass_holds_no_second_type_system() {
    let lines: usize =
        ["analysis/src/lint.rs", "analysis/src/diag.rs"].map(non_test_line_count).iter().sum();
    assert!(
        lines <= VERIFY_LINES,
        "crates/analysis/src/{{lint,diag}}.rs: {lines} non-test lines, over {VERIFY_LINES} \
         (what types a term is aql_core::check: no second type system)"
    );
}

#[test]
fn telemetry_stays_within_its_budget_and_starts_no_sampler() {
    let lines: usize = ["trace/src", "journal/src"].map(non_test_line_count).iter().sum();
    assert!(
        lines <= TELEMETRY_LINES,
        "crates/{{trace,journal}}/src: {lines} non-test lines, over {TELEMETRY_LINES}"
    );
    let mut files = Vec::new();
    rust_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/trace/src"), &mut files);
    let mut spawns = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        for (ln, line) in non_test_lines(&text) {
            if !line.trim_start().starts_with("//") && line.contains("thread::") {
                spawns.push(format!("{}:{ln}: {}", path.display(), line.trim()));
            }
        }
    }
    assert!(
        spawns.is_empty(),
        "a tracer and a renderer start no threads (a profile is a fold of an account \
         already kept, DESIGN.md §16):\n{}",
        spawns.join("\n")
    );
}

#[test]
fn the_crates_stay_within_their_line_budget() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let lines: usize = fs::read_dir(&crates)
        .expect("crates/ exists")
        .map(|entry| entry.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|krate| crates.join(krate).join("src").is_dir())
        .map(|krate| non_test_line_count(&format!("{krate}/src")))
        .sum();
    assert!(lines <= CRATES_LINES, "crates/*/src: {lines} non-test lines, over {CRATES_LINES}");
}

#[test]
fn every_declared_dependency_is_named_in_src() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut unused = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/ exists") {
        let krate = entry.expect("dir entry").path();
        let Ok(manifest) = fs::read_to_string(krate.join("Cargo.toml")) else { continue };
        let deps = manifest.split("\n[dependencies]").nth(1).unwrap_or("");
        let deps = deps.split("\n[").next().unwrap_or(deps);
        let mut files = Vec::new();
        rust_files(&krate.join("src"), &mut files);
        let code: Vec<String> = files
            .iter()
            .flat_map(|path| {
                let text =
                    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
                non_test_lines(&text).into_iter().map(|(_, line)| line)
            })
            .filter(|line| !line.trim_start().starts_with("//"))
            .collect();
        for dep in deps.lines().filter_map(|l| l.split_whitespace().next()) {
            if !dep.starts_with("aql-") {
                continue;
            }
            let name = dep.replace('-', "_");
            if !code.iter().any(|line| line.contains(&name)) {
                unused.push(format!("{}: {dep}", krate.display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "declared under [dependencies] but named nowhere in the crate's src (drop the \
         edge, or make it a dev-dependency):\n{}",
        unused.join("\n")
    );
}

/// The crates a doc's section lists: the first word of every line of
/// the section that starts with `crates/`. The section runs from the
/// line `heading` to the next `## ` heading.
fn crates_listed(doc: &str, heading: &str) -> Vec<String> {
    let text = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(doc))
        .unwrap_or_else(|e| panic!("read {doc}: {e}"));
    let (_, section) = text.split_once(heading).unwrap_or_else(|| panic!("{doc}: no `{heading}`"));
    let section = section.split("\n## ").next().unwrap_or(section);
    let mut listed: Vec<String> = section
        .lines()
        .filter_map(|line| line.strip_prefix("crates/"))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    listed.sort();
    listed
}

#[test]
fn every_crate_is_in_both_inventories() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<String> = fs::read_dir(&crates)
        .expect("crates/ exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.is_dir())
        .map(|path| path.file_name().expect("named").to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    let inventories = [("README.md", "## Architecture"), ("DESIGN.md", "## 4. Crate / module inventory")];
    for (doc, heading) in inventories {
        assert_eq!(
            crates_listed(doc, heading),
            dirs,
            "{doc} `{heading}` must name exactly the directories under crates/, one \
             `crates/<dir>` line each: a crate added or folded away takes its line with it"
        );
    }
}

#[test]
fn one_depth_mechanism() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let budgets: Vec<String> = library_sources()
        .into_iter()
        .filter(|path| fs::read_to_string(path).is_ok_and(|text| text.contains(SYNTAX_BUDGET)))
        .map(|path| path.display().to_string())
        .collect();
    assert!(budgets.is_empty(), "a syntax depth budget is back (the guard is `aql_core::stack`):\n{}", budgets.join("\n"));
    let needle = concat!("stack_", "size(");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut sized: Vec<String> = files
        .iter()
        .filter(|path| fs::read_to_string(path).is_ok_and(|text| text.contains(needle)))
        .map(|path| path.strip_prefix(root).expect("under the root").to_string_lossy().into_owned())
        .collect();
    sized.sort();
    let mut listed: Vec<String> = MAY_SIZE_A_STACK.iter().map(|(file, _)| file.to_string()).collect();
    listed.sort();
    assert_eq!(sized, listed, "only the listed tests size a thread's stack; a pass that needs more asks `aql_core::stack`");
}

#[test]
fn cfg_test_stripping_works() {
    let src = "fn a() { x.unwrap(); }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn b() { y.unwrap(); }\n\
               }\n\
               fn c() {}\n";
    let kept = non_test_lines(src);
    let text: Vec<&str> = kept.iter().map(|(_, l)| l.as_str()).collect();
    assert!(text.iter().any(|l| l.contains("fn a")));
    assert!(text.iter().any(|l| l.contains("fn c")));
    assert!(!text.iter().any(|l| l.contains("fn b")), "{text:?}");
}
