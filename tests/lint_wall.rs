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
//! **Telemetry is folds, not mechanisms**: the three observability
//! crates, `crates/{trace,metrics,journal}/src`, stay within
//! [`TELEMETRY_LINES`] non-test lines together — none of them is one of
//! the paper's four modules (§4, Fig. 3). Issue 23 deleted the span
//! sampler (its thread, the live-path seqlock and interner, 4,831 →
//! 4,488); a profile is a fold of the trace or of the flight recorder
//! (`aql_trace::profile` since issue 26), so the tracer and its
//! renderer start no threads: no `thread::` in `crates/trace/src`
//! outside tests.
//!
//! **Kernels admit shapes, not mechanisms**: `crates/core/src/eval/
//! kernel.rs` stays within [`KERNEL_LINES`] non-test lines. Issue 24
//! admitted what β^p leaves behind — tuples, `⊥` — by making them nodes
//! of the one fragment (the head enum went), and sized windows at bind
//! in the function that already folded the offsets.
//!
//! **A round that deletes stays deleted**: every `crates/*/src`
//! together (the shims included) stays within [`CRATES_LINES`]
//! non-test lines — ROADMAP 7's "hold it there". Issue 25 set it when it
//! deleted `aql-bench` (28,283 → 27,293), issue 26 lowered it when it
//! folded `aql-verify` and `aql-profile` away; a PR that needs more
//! raises it and says why.
//!
//! **One inventory**: README's Architecture block and DESIGN.md §4 each
//! name exactly the directories under `crates/` (the shims included),
//! so a crate cannot be added or folded away without the tour
//! following.
//!
//! **No classifier reads prose**: the four files a failure passes
//! through on its way to a class name ([`CLASSIFIED_STRUCTURALLY`])
//! contain no `.contains("` and no `.starts_with("` — a class comes
//! from the error value's variant, never from its rendered message,
//! which any program can make spell anything (`budget;`).
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

/// The files under `crates/` that map a failure to its class, or hold
/// the loop that decides whether to retry one.
const CLASSIFIED_STRUCTURALLY: &[&str] = &[
    "aql-lang/src/session.rs",
    "journal/src/doctor.rs",
    "store/src/resilient.rs",
    "core/src/error.rs",
];

/// Non-test lines of `crates/aql-opt/src/engine.rs` at issue 18, by
/// [`non_test_lines`]'s count.
const ENGINE_LINES: usize = 475;

/// The budget for `crates/analysis/src/{lint,diag}.rs`, by
/// [`non_test_lines`]'s count (334 at issue 22 as `crates/verify/src`,
/// down from 1,138).
const VERIFY_LINES: usize = 450;

/// The budget for `crates/{trace,metrics,journal}/src` together, by
/// [`non_test_lines`]'s count (4,488 at issue 23, down from 4,831, with
/// `crates/profile/src`, which issue 26 moved into `aql_trace::profile`).
const TELEMETRY_LINES: usize = 4500;

/// The budget for `crates/core/src/eval/kernel.rs`, by
/// [`non_test_lines`]'s count (1,196 at issue 23; issue 24 admitted
/// tuples and `⊥` and sized windows at bind): admitting more shapes
/// must not grow the planner without bound.
const KERNEL_LINES: usize = 1320;

/// The budget for every `crates/*/src` together, by [`non_test_lines`]'s
/// count (27,293 at issue 25; 27,242 at issue 26, rounded up to the next
/// hundred).
const CRATES_LINES: usize = 27_300;

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

#[test]
fn only_listed_files_match_every_expr_constructor() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut violations = Vec::new();
    let mut seen = Vec::new();
    for path in library_sources() {
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        let rel = path.strip_prefix(&crates).expect("under crates/").to_string_lossy().into_owned();
        for (ln, line) in non_test_lines(&text) {
            if line.trim_start().starts_with("//") || !line.contains(SENTINEL) {
                continue;
            }
            if MAY_MATCH_EVERY_CONSTRUCTOR.contains(&rel.as_str()) {
                seen.push(rel.clone());
            } else {
                violations.push(format!("{}:{}: {}", path.display(), ln, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "`{SENTINEL}` outside the listed files: a traversal that only reaches children \
         belongs on `aql_core::expr::children::{{for_each_child, try_map_children, \
         try_for_each_child_mut}}`; a new \
         pass doing per-constructor work is added to MAY_MATCH_EVERY_CONSTRUCTOR:\n{}",
        violations.join("\n")
    );
    for listed in MAY_MATCH_EVERY_CONSTRUCTOR {
        assert!(seen.iter().any(|s| s == listed), "{listed} no longer names `{SENTINEL}`: unlist it");
    }
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
    let lines: usize =
        ["trace/src", "metrics/src", "journal/src"].map(non_test_line_count).iter().sum();
    assert!(
        lines <= TELEMETRY_LINES,
        "crates/{{trace,metrics,journal}}/src: {lines} non-test lines, over {TELEMETRY_LINES}"
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
