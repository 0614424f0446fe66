//! `\analyze`'s loop-nest lines against the run: the report names a
//! nest as a kernel exactly when evaluating the same statement moves
//! the kernel counters, with the optimizer on and off — because both
//! come from the one planner, over the one term the session evaluates.

use aql_lang::session::Session;

/// The `\analyze` nest lines of `query` (kernels, interpreted) and the
/// kernel entries one evaluation of it makes (its record's kernel
/// `nests + escapes`).
fn plan_and_run(optimize: bool, query: &str) -> (Vec<String>, Vec<String>, u64) {
    let mut s = Session::new();
    s.optimize = optimize;
    s.run("val \\A = [[ 0.5 * 3.0 | \\i < 8 ]];").unwrap();
    let body = s.analyze(query).unwrap().render();
    let lines = |tag: &str| -> Vec<String> {
        body.lines().filter_map(|l| l.strip_prefix(tag)).map(str::to_string).collect()
    };
    let (kernels, interpreted) = (lines("  - kernel: "), lines("  - interpreted: "));
    s.run(&format!("{query};")).unwrap();
    let k = s.last_report().kernels[0];
    (kernels, interpreted, k.nests + k.escapes)
}

const SUMS: &str = "[[ summap(fn \\k => A[k])!(gen!(i+1)) | \\i < 8 ]]";
const OVER: &str = "[[ A[i] | \\i < 9 ]]";

#[test]
fn optimized_the_tabulation_of_sums_is_one_kernel() {
    let (kernels, _, entries) = plan_and_run(true, SUMS);
    // The Σ inside runs in the tabulation's kernel: one line, one entry.
    assert_eq!(kernels.len(), 1, "{kernels:?}");
    assert!(kernels[0].starts_with("[[sum{"), "{kernels:?}");
    assert_eq!(entries, 1);
}

#[test]
fn unoptimized_the_applied_head_keeps_every_nest_interpreted() {
    let (kernels, interpreted, entries) = plan_and_run(false, SUMS);
    assert_eq!((kernels.len(), entries), (0, 0), "{kernels:?}");
    assert!(!interpreted.is_empty());
}

#[test]
fn a_nest_past_the_extent_is_interpreted_either_way() {
    for optimize in [true, false] {
        let (kernels, interpreted, entries) = plan_and_run(optimize, OVER);
        assert_eq!(interpreted, ["[[A[i] | \\i < 9]]"], "optimize={optimize}");
        assert_eq!((kernels.len(), entries), (0, 0), "optimize={optimize}");
    }
}
