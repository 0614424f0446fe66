//! The paper's quantitative claims, counted (EXPERIMENTS.md E1–E10).
//!
//! The paper has no measured tables: what it claims are complexities
//! (zip O(n) vs O(n²) via sets, §1; hist O(n·m) vs hist′ O(m + n log n),
//! §2; the append-chain literal O(n²), §3), that β^p/δ^p avoid
//! materialisation and the transpose rule is derivable (§5), and that
//! ranking simulates arrays (§6). Each is stated here in the unit it is
//! a claim about — `EvalStats::steps` (node visits), `subscripts` and
//! `materialized` (cells admitted) — on equally spaced sizes, so
//! "linear" is a zero second difference and "quadratic" a constant
//! non-zero one, and the two forms of every claim are checked to agree
//! on their value. Nothing here is timed: wall time is `benchmark/`'s.
//!
//! The counts are rendered as one table that EXPERIMENTS.md holds
//! verbatim between two marker comments; a difference fails
//! [`experiments_md_records_the_counted_table`] and prints the fresh
//! table, so the recorded reproduction cannot drift from the code.

mod common;

use common::{builtin, hist_indexed, literal_via_append, prelude, zip_via_sets};

use std::collections::HashMap;
use std::fmt::Display;
use std::sync::OnceLock;

use aql::analysis::eval_elided;
use aql::core::eval::{EvalCtx, EvalStats};
use aql::core::expr::builder::*;
use aql::core::expr::free::alpha_eq;
use aql::core::expr::{name, Expr, Name};
use aql::core::prim::Extensions;
use aql::core::rank;
use aql::core::value::Value;
use aql::lang::session::Session;
use aql::opt::{normalize_and_eliminate, normalizer, optimize};

/// What one evaluation costs, in the evaluator's own counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    steps: u64,
    subscripts: u64,
    materialized: u64,
}

impl From<EvalStats> for Counts {
    fn from(s: EvalStats) -> Counts {
        Counts { steps: s.steps, subscripts: s.subscripts, materialized: s.materialized }
    }
}

/// Evaluate `e` over `globals` as the statement path does (bounds-check
/// elision and kernels included), returning the value and its counts.
fn counted(globals: &HashMap<Name, Value>, e: &Expr) -> (Value, Counts) {
    let externals = Extensions::new();
    let ctx = EvalCtx::new(globals, &externals);
    let v = eval_elided(e, &ctx).unwrap_or_else(|err| panic!("{err} in {e}"));
    (v, Counts::from(ctx.stats()))
}

fn globals(bindings: Vec<(&str, Value)>) -> HashMap<Name, Value> {
    bindings.into_iter().map(|(n, v)| (name(n), v)).collect()
}

/// `n` naturals `(7i + seed) mod m`: once `n ≥ m`, every residue below
/// `m` occurs (7 is prime to every `m` used here).
fn nats(n: u64, m: u64, seed: u64) -> Value {
    Value::array1((0..n).map(|i| Value::Nat((7 * i + seed) % m)).collect())
}

/// `f(x₀), f(x₁), …` at equally spaced `x`: the second differences.
fn second_differences(ys: &[u64]) -> Vec<i64> {
    ys.windows(3).map(|w| w[2] as i64 - 2 * w[1] as i64 + w[0] as i64).collect()
}

fn is_affine(ys: &[u64]) -> bool {
    second_differences(ys).iter().all(|&d| d == 0)
}

/// Exactly quadratic: every second difference the same, and not zero.
fn is_quadratic(ys: &[u64]) -> bool {
    let d = second_differences(ys);
    d[0] != 0 && d.iter().all(|&x| x == d[0])
}

fn count_tabs(e: &Expr) -> usize {
    let mut n = 0;
    e.walk(&mut |x| n += matches!(x, Expr::Tab { .. }) as usize);
    n
}

/// The rendered table: one row per claim, form and size.
struct Table(String);

impl Table {
    fn new() -> Table {
        Table("| claim | form | size | steps | subscripts | materialized |\n|---|---|---|---:|---:|---:|\n".into())
    }

    fn push(&mut self, claim: &str, form: impl Display, size: impl Display, c: Counts) {
        let row = format!("| {claim} | {form} | {size} | {} | {} | {} |\n", c.steps, c.subscripts, c.materialized);
        self.0.push_str(&row);
    }
}

/// E1 (§1): zip is linear with arrays and quadratic through sets.
fn e1(t: &mut Table) {
    let sizes = [32u64, 64, 96, 128];
    let (mut arrays, mut sets) = (Vec::new(), Vec::new());
    for n in sizes {
        let g = globals(vec![("A", nats(n, 1_000, 11)), ("B", nats(n, 1_000, 13))]);
        let (fast, a) = counted(&g, &prelude("zip", vec![global("A"), global("B")]));
        let (slow, s) = counted(&g, &zip_via_sets(global("A"), global("B")));
        assert_eq!(fast, slow, "E1: the two zips disagree at n = {n}");
        t.push("E1", "zip (arrays)", format!("n={n}"), a);
        t.push("E1", "zip (sets)", format!("n={n}"), s);
        arrays.push(a.steps);
        sets.push(s.steps);
    }
    assert!(is_affine(&arrays), "E1: array zip is not linear: {arrays:?}");
    assert!(is_quadratic(&sets), "E1: set zip is not quadratic: {sets:?}");
}

/// E2 (§2): hist costs O(n·m) steps; hist′ via `index` is affine in n
/// and m, and materializes `n + 2m` cells (`dom A`, the `index`, the
/// `map` over it).
fn e2(t: &mut Table) {
    // Steps at (n, m) on an L of equally spaced sizes plus its corner:
    // second differences along each axis, and the mixed difference.
    let (n0, m0) = (64u64, 16u64);
    let points = [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 2)];
    let (mut hist, mut histp) = (Vec::new(), Vec::new());
    for (a, b) in points {
        let (n, m) = (a * n0, b * m0);
        let g = globals(vec![("A", nats(n, m, 5))]);
        let (slow, h) = counted(&g, &common::hist(global("A")));
        let (fast, hp) = counted(&g, &hist_indexed(global("A")));
        // hist tabulates below max(rng A) = m − 1; hist′ has the m-th bucket.
        let prefix = |v: &Value| v.as_array().expect("an array").data()[..m as usize - 1].to_vec();
        assert_eq!(slow.as_array().expect("an array").data(), prefix(&fast), "E2 at n={n}, m={m}");
        assert_eq!(hp.materialized, n + 2 * m, "E2: hist′ at n={n}, m={m}");
        t.push("E2", "hist", format!("n={n}, m={m}"), h);
        t.push("E2", "hist′ (index)", format!("n={n}, m={m}"), hp);
        hist.push(h.steps);
        histp.push(hp.steps);
    }
    let along_n = |s: &[u64]| is_affine(&[s[0], s[1], s[2]]);
    let along_m = |s: &[u64]| is_affine(&[s[0], s[3], s[4]]);
    let mixed = |s: &[u64]| s[5] as i64 - s[1] as i64 - s[3] as i64 + s[0] as i64;
    assert!(along_n(&hist) && along_m(&hist) && mixed(&hist) > 0, "E2: hist is not c·n·m + …: {hist:?}");
    assert!(along_n(&histp) && along_m(&histp) && mixed(&histp) == 0, "E2: hist′ is not affine: {histp:?}");
}

/// The per-cell and constant step residual of the optimized subseq∘zip
/// over the optimized zip∘(subseq, subseq) — the paper's "extra
/// constant-time bound checks", exactly.
const E3_RESIDUAL: (u64, u64) = (6, 9);

/// E3 (§1, §5): both orders normalize to one tabulation with equal
/// subscripts and cells; their steps differ by [`E3_RESIDUAL`].
fn e3(t: &mut Table) {
    for n in [256u64, 512, 768] {
        let (lo, hi) = (n / 4, 3 * n / 4);
        let g = globals(vec![("A", nats(n, 1_000, 23)), ("B", nats(n, 1_000, 29))]);
        let slice = |a| prelude("subseq", vec![a, nat(lo), nat(hi)]);
        let zip_first = prelude("zip", vec![slice(global("A")), slice(global("B"))]);
        let subseq_first = slice(prelude("zip", vec![global("A"), global("B")]));
        let (o1, o2) = (optimize(&zip_first), optimize(&subseq_first));
        assert_eq!((count_tabs(&o1), count_tabs(&o2)), (1, 1), "E3: not one tabulation each");
        let (v, raw1) = counted(&g, &zip_first);
        let (v2, raw2) = counted(&g, &subseq_first);
        let (v3, opt1) = counted(&g, &o1);
        let (v4, opt2) = counted(&g, &o2);
        assert!(v == v2 && v == v3 && v == v4, "E3: the four forms disagree at n = {n}");
        let cells = hi - lo + 1;
        assert_eq!((opt1.subscripts, opt1.materialized), (opt2.subscripts, opt2.materialized), "E3 n={n}");
        assert_eq!(opt2.steps - opt1.steps, E3_RESIDUAL.0 * cells + E3_RESIDUAL.1, "E3 n={n}");
        assert!(opt1.steps < raw1.steps && opt2.steps < raw2.steps, "E3: optimizing did not pay at n = {n}");
        for (form, c) in [
            ("zip∘subseq raw", raw1),
            ("zip∘subseq opt", opt1),
            ("subseq∘zip raw", raw2),
            ("subseq∘zip opt", opt2),
        ] {
            t.push("E3", form, format!("n={n}"), c);
        }
    }
}

/// E4 (§3): the append-chain literal is quadratic; the row-major
/// literal takes `n + 2` steps.
fn e4(t: &mut Table) {
    let mut chain = Vec::new();
    for n in [16u64, 32, 48, 64] {
        let items: Vec<Expr> = (0..n).map(nat).collect();
        let g = globals(vec![]);
        let (slow, a) = counted(&g, &literal_via_append(items.clone()));
        let (fast, r) = counted(&g, &array1_lit(items));
        assert_eq!(slow, fast, "E4: the literals disagree at n = {n}");
        assert_eq!(r.steps, n + 2, "E4: row-major literal at n = {n}");
        t.push("E4", "append chain", format!("n={n}"), a);
        t.push("E4", "row-major", format!("n={n}"), r);
        chain.push(a.steps);
    }
    assert!(is_quadratic(&chain), "E4: the append chain is not quadratic: {chain:?}");
}

/// E5 (§5): β^p and δ^p answer `tab[k]` and `len(tab)` in one step
/// without materializing; unoptimized, each tabulates all `n` cells in
/// `3n + 2` steps (three a cell) before its own one or two.
fn e5(t: &mut Table) {
    for n in [1_000u64, 2_000, 3_000] {
        let squares = || tab1("i", nat(n), mul(var("i"), var("i")));
        let g = globals(vec![]);
        for (form, e, own) in [("tab[n/2]", sub(squares(), vec![nat(n / 2)]), 2), ("len(tab)", len(squares()), 1)] {
            let (raw_v, raw) = counted(&g, &e);
            let (opt_v, opt) = counted(&g, &optimize(&e));
            assert_eq!(raw_v, opt_v, "E5 {form} at n = {n}");
            assert_eq!((raw.steps, raw.materialized), (3 * n + 2 + own, n), "E5 {form} raw at n = {n}");
            assert_eq!((opt.steps, opt.materialized), (1, 0), "E5 {form} optimized at n = {n}");
            t.push("E5", format!("{form} raw"), format!("n={n}"), raw);
            t.push("E5", format!("{form} opt"), format!("n={n}"), opt);
        }
    }
}

/// E6 (§5): the transpose rule is derived by normalization and check
/// elimination; the fused form does no subscripts and materializes the
/// `m·n` result once, the raw form twice.
fn e6(t: &mut Table) {
    let body = add(mul(var("i"), nat(10)), var("j"));
    let symbolic = prelude("transpose", vec![tab(vec![("i", var("m")), ("j", var("n"))], body.clone())]);
    let derived_rule = tab(vec![("j", var("n")), ("i", var("m"))], body);
    let got = normalize_and_eliminate().optimize(&symbolic);
    assert!(alpha_eq(&got, &derived_rule), "E6: transpose rule not derived: {got}");
    for k in [16u64, 32, 48] {
        let e = prelude("transpose", vec![tab(vec![("i", nat(k)), ("j", nat(k))], add(mul(var("i"), nat(1_000)), var("j")))]);
        let g = globals(vec![]);
        let (raw_v, raw) = counted(&g, &e);
        let (fused_v, fused) = counted(&g, &normalize_and_eliminate().optimize(&e));
        assert_eq!(raw_v, fused_v, "E6 at {k}×{k}");
        assert_eq!((fused.subscripts, fused.materialized), (0, k * k), "E6 fused at {k}×{k}");
        assert_eq!(raw.materialized, 2 * k * k, "E6 raw at {k}×{k}");
        t.push("E6", "transpose∘tab raw", format!("{k}×{k}"), raw);
        t.push("E6", "fused (derived rule)", format!("{k}×{k}"), fused);
    }
}

/// E7 (§2): `index` takes two steps and materializes `max key + 1`
/// cells whatever `n` is — its `n log n` insertions happen inside the
/// set representation, where no step is counted.
fn e7(t: &mut Table) {
    for (n, m) in [(64u64, 16u64), (128, 16), (192, 16), (64, 32), (64, 48)] {
        let pairs = (0..n).map(|i| Value::tuple(vec![Value::Nat((7 * i) % m), Value::Nat(i)])).collect();
        let g = globals(vec![("S", Value::set(pairs))]);
        let (_, c) = counted(&g, &index(1, global("S")));
        assert_eq!((c.steps, c.materialized), (2, m), "E7 at n={n}, m={m}");
        t.push("E7", "index", format!("n={n}, m={m}"), c);
    }
}

/// E8 (§1, §4): the heat-index query through a `Session` over NetCDF
/// data gives the same answer with the optimizer on and off.
fn e8(t: &mut Table) {
    let dir = std::env::temp_dir().join(format!("aql-claims-{}", std::process::id()));
    let [_, heat] = common::paper_programs(&dir);
    let mut s = common::paper_session();
    s.run(&heat).expect("the §1 set-up");
    let mut run = |optimize: bool| {
        s.optimize = optimize;
        let out = s.run(common::HEAT_QUERY).expect("the §1 query");
        let answer = out.last().and_then(|o| o.value.clone()).expect("an answer");
        (answer, Counts::from(s.last_stats()))
    };
    let (on_v, on) = run(true);
    let (off_v, off) = run(false);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(on_v, off_v, "E8: the optimizer changed the answer");
    assert!(on.steps < off.steps, "E8: {on:?} vs {off:?}");
    t.push("E8", format!("optimizer on → {on_v}"), "30 days", on);
    t.push("E8", format!("optimizer off → {off_v}"), "30 days", off);
}

/// E9 (§6): evenpos on the graph encoding agrees with the native array
/// form; optimized (code motion hoists `count(G)`), it is affine in n
/// like the native form; unoptimized, it is quadratic.
fn e9(t: &mut Table) {
    let (mut native, mut graph, mut naive) = (Vec::new(), Vec::new(), Vec::new());
    for n in [32u64, 64, 96, 128] {
        let a = nats(n, 1_000, 37);
        let graph_of = |v: &Value| rank::graph_value(v.as_array().expect("an array")).expect("a graph");
        let g = globals(vec![("G", graph_of(&a)), ("A", a)]);
        let on_graph = rank::evenpos_on_graph(global("G"));
        let (nv, nc) = counted(&g, &prelude("evenpos", vec![global("A")]));
        let (gv, gc) = counted(&g, &optimize(&on_graph));
        let (uv, uc) = counted(&g, &on_graph);
        assert!(gv == graph_of(&nv) && uv == gv, "E9: the graph encoding disagrees at n = {n}");
        t.push("E9", "evenpos (native)", format!("n={n}"), nc);
        t.push("E9", "evenpos (NRC_r on graph, opt)", format!("n={n}"), gc);
        t.push("E9", "evenpos (NRC_r on graph, raw)", format!("n={n}"), uc);
        native.push(nc.steps);
        graph.push(gc.steps);
        naive.push(uc.steps);
    }
    assert!(is_affine(&native) && is_affine(&graph), "E9: {native:?} {graph:?}");
    assert!(is_quadratic(&naive), "E9: the naive translation is not quadratic: {naive:?}");
}

/// What an E10 query must show of its steps under `[off, normalize,
/// norm+checks, full]`.
type Ablation = fn([u64; 4]) -> bool;

/// E10 (ablation): what each optimizer phase buys.
fn e10(t: &mut Table) {
    let n = 256u64;
    let g = globals(vec![("A", nats(n, 1_000, 43)), ("B", nats(n, 1_000, 47))]);
    let matrix = tab(vec![("i", nat(64)), ("j", nat(64))], add(mul(var("i"), nat(100)), var("j")));
    let queries: [(&str, String, Expr, Ablation); 3] = [
        // Only code motion hoists the invariant max(rng A) out of the Σ.
        (
            "invariant sum",
            format!("n={n}"),
            sum("x", gen(nat(n)), add(var("x"), set_max(builtin("rng", global("A"))))),
            |[off, norm, _, full]| full * 100 < norm && norm <= off,
        ),
        // β^p leaves min{len A, len B} in every cell until code motion
        // hoists it: normalization alone regresses.
        (
            "slice",
            format!("n={n}"),
            prelude("subseq", vec![prelude("zip", vec![global("A"), global("B")]), nat(n / 4), nat(3 * n / 4)]),
            |[off, norm, _, full]| norm > off && full < off,
        ),
        // β^p leaves a bound check in every cell; check elimination
        // strips them.
        ("transpose", "64×64".into(), prelude("transpose", vec![matrix]), |[off, norm, checks, full]| {
            norm > off && checks < off && full == checks
        }),
    ];
    for (label, size, q, holds) in queries {
        let (base, _) = counted(&g, &q);
        let mut steps = [0; 4];
        let configs = [
            ("off", q.clone()),
            ("normalize", normalizer().optimize(&q)),
            ("norm+checks", normalize_and_eliminate().optimize(&q)),
            ("full", optimize(&q)),
        ];
        for (k, (config, e)) in configs.into_iter().enumerate() {
            let (v, c) = counted(&g, &e);
            assert_eq!(v, base, "E10: `{config}` changed {label}");
            t.push("E10", format!("{label} · {config}"), &size, c);
            steps[k] = c.steps;
        }
        assert!(holds(steps), "E10 {label}: {steps:?}");
    }
}

/// Every claim, asserted as it is counted, rendered once per process.
fn table() -> &'static str {
    static TABLE: OnceLock<String> = OnceLock::new();
    TABLE.get_or_init(|| {
        // E4's chain nests 64 `append!` calls, two core nodes a call: a
        // debug build needs between 3.75 and 4 MiB of stack to run it
        // (the stack guard's 128 KiB reserve included), more than a test
        // thread's 2 MiB, where it ends in `too-deep`. So the claims run
        // on a thread with a main thread's 8 MiB.
        let claims = std::thread::Builder::new().stack_size(8 << 20).spawn(|| {
            let mut t = Table::new();
            for claim in [e1, e2, e3, e4, e5, e6, e7, e8, e9, e10] {
                claim(&mut t);
            }
            t.0
        });
        claims.expect("a thread").join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

const BEGIN: &str = "<!-- paper_claims: begin (generated by tests/paper_claims.rs) -->\n";
const END: &str = "<!-- paper_claims: end -->";

#[test]
fn a_counted_macro_term_is_the_one_a_session_runs() {
    // An optimizer-off session runs each macro's body as written: the
    // term the claims count as the unoptimized form.
    let mut s = Session::new();
    s.optimize = false;
    s.bind_val("A", nats(4, 10, 1)).expect("bind A");
    s.bind_val("B", nats(4, 10, 2)).expect("bind B");
    let (written, stored) = common::core_term_pairs(&mut s, "subseq!(zip!(A, B), 1, 2);").remove(0);
    let built = prelude("subseq", vec![prelude("zip", vec![global("A"), global("B")]), nat(1), nat(2)]);
    assert!(alpha_eq(&written, &built), "{written}\n{built}");
    // With the optimizer on, the statement inserts each macro's stored
    // normal form instead: the optimized term is the same.
    assert!(!alpha_eq(&written, &stored), "the stored bodies are normalized: {stored}");
    let (from_written, from_stored) = (aql::opt::optimize(&written), aql::opt::optimize(&stored));
    assert!(alpha_eq(&from_written, &from_stored), "{from_written}\n{from_stored}");
}

#[test]
fn every_claim_holds_as_an_exact_relation_on_counts() {
    // Each claim asserts its relation as it is counted.
    table();
}

#[test]
fn experiments_md_records_the_counted_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
    let recorded = doc
        .split_once(BEGIN)
        .and_then(|(_, rest)| rest.split_once(END))
        .map(|(table, _)| table)
        .expect("EXPERIMENTS.md has the paper_claims markers");
    assert!(
        recorded == table(),
        "EXPERIMENTS.md's counted table is stale; replace what is between its markers with:\n{}",
        table()
    );
}
