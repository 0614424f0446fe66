//! The experiments E1–E10: one per quantitative claim in the paper.
//!
//! Every experiment returns a [`Table`]; the `experiments` binary
//! prints them and EXPERIMENTS.md records the output. `quick = true`
//! shrinks the sweeps (used by integration tests that assert the
//! *shape* of each result — who wins, how ratios grow — rather than
//! absolute numbers).

use std::time::Duration;

use aql_core::derived;
use aql_core::expr::builder::*;
use aql_core::expr::free::alpha_eq;
use aql_core::expr::Expr;
use aql_core::rank;
use aql_core::value::Value;
use aql_opt::{normalize_and_eliminate, optimize};

use crate::env::{fmt_duration, time_median, BenchEnv};
use crate::table::Table;
use crate::workload;

/// Measured pair: optimized vs unoptimized (or fast vs slow), with the
/// raw durations for shape assertions.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// First configuration (e.g. arrays / optimized).
    pub fast: Duration,
    /// Second configuration (e.g. sets / unoptimized).
    pub slow: Duration,
}

impl Pair {
    /// slow / fast.
    pub fn ratio(&self) -> f64 {
        self.slow.as_secs_f64() / self.fast.as_secs_f64().max(1e-12)
    }
}

fn reps(quick: bool) -> usize {
    if quick {
        3
    } else {
        5
    }
}

// ---------------------------------------------------------------------
// E1 — zip: linear with arrays, quadratic via sets (§1)
// ---------------------------------------------------------------------

/// Raw measurements for E1 at one size.
pub fn e1_measure(n: usize, quick: bool) -> Pair {
    let env = BenchEnv::new(vec![
        ("A", workload::nat_array(n, 1_000, 11)),
        ("B", workload::nat_array(n, 1_000, 13)),
    ]);
    let fast_e = derived::zip(global("A"), global("B"));
    let slow_e = derived::zip_via_sets(global("A"), global("B"));
    // Sanity: both compute the same array.
    assert_eq!(env.eval(&fast_e), env.eval(&slow_e), "E1: zip variants disagree");
    let fast = time_median(reps(quick), || {
        std::hint::black_box(env.eval(&fast_e));
    });
    let slow = time_median(reps(quick), || {
        std::hint::black_box(env.eval(&slow_e));
    });
    Pair { fast, slow }
}

/// E1: `zip` of two length-n arrays — the array language is linear,
/// the set encoding pays a cross-product join.
pub fn e1(quick: bool) -> Table {
    let sizes: &[usize] = if quick { &[32, 64, 128] } else { &[128, 256, 512, 1024] };
    let mut t = Table::new(
        "E1: zip — arrays vs set encoding",
        "§1: \"we expect zip to take linear time in an array query language, but in one \
         without arrays it would ordinarily take quadratic time (the time to do a cross \
         product)\"",
        &["n", "zip (arrays)", "zip (sets)", "sets/arrays"],
    );
    let mut ratios = Vec::new();
    for &n in sizes {
        let p = e1_measure(n, quick);
        ratios.push(p.ratio());
        t.row(vec![
            n.to_string(),
            fmt_duration(p.fast),
            fmt_duration(p.slow),
            format!("{:.1}x", p.ratio()),
        ]);
    }
    let growth = ratios.last().copied().unwrap_or(1.0) / ratios.first().copied().unwrap_or(1.0);
    t.set_verdict(format!(
        "arrays win everywhere; the gap grows {growth:.1}x across the sweep \
         (linear vs quadratic, as claimed)"
    ));
    t
}

// ---------------------------------------------------------------------
// E2 — hist O(n·m) vs hist' O(m + n log n) (§2)
// ---------------------------------------------------------------------

/// Raw measurements for E2 at one (n, m).
pub fn e2_measure(n: usize, m: u64, quick: bool) -> Pair {
    let env = BenchEnv::new(vec![("A", workload::nat_array(n, m, 17))]);
    let hist_e = derived::hist(global("A"));
    let histp_e = derived::hist_indexed(global("A"));
    let slow = time_median(reps(quick), || {
        std::hint::black_box(env.eval(&hist_e));
    });
    let fast = time_median(reps(quick), || {
        std::hint::black_box(env.eval(&histp_e));
    });
    Pair { fast, slow }
}

/// E2: the two histograms of §2 over value range m and array length n.
pub fn e2(quick: bool) -> Table {
    let cases: &[(usize, u64)] = if quick {
        &[(64, 64), (64, 512)]
    } else {
        &[(256, 64), (256, 256), (256, 1024), (256, 4096), (1024, 1024)]
    };
    let mut t = Table::new(
        "E2: histogram — hist vs hist' (via index)",
        "§2: \"the first version takes at least O(n·m) … the second version takes \
         O(m + n log n)\" — the implicit group-by of `index` pays off as m grows",
        &["n", "m", "hist (O(n·m))", "hist' (index)", "hist/hist'"],
    );
    let mut ratios = Vec::new();
    for &(n, m) in cases {
        let p = e2_measure(n, m, quick);
        ratios.push(p.ratio());
        t.row(vec![
            n.to_string(),
            m.to_string(),
            fmt_duration(p.slow),
            fmt_duration(p.fast),
            format!("{:.1}x", p.ratio()),
        ]);
    }
    t.set_verdict(format!(
        "hist' wins and its advantage grows with m \
         ({:.1}x → {:.1}x over the sweep)",
        ratios.first().copied().unwrap_or(1.0),
        ratios.last().copied().unwrap_or(1.0)
    ));
    t
}

// ---------------------------------------------------------------------
// E3 — zip∘subseq vs subseq∘zip normalize together (§1, §5)
// ---------------------------------------------------------------------

fn count_tabs(e: &Expr) -> usize {
    let mut n = 0;
    e.walk(&mut |x| {
        if matches!(x, Expr::Tab { .. }) {
            n += 1;
        }
    });
    n
}

/// E3 measurements at one size: times for (pipeline, optimized?).
pub struct E3Row {
    /// zip∘(subseq,subseq) unoptimized / optimized.
    pub zip_first: Pair,
    /// subseq∘zip unoptimized / optimized.
    pub subseq_first: Pair,
    /// Tabulations left in each normal form.
    pub tabs: (usize, usize),
}

/// Raw measurements for E3.
pub fn e3_measure(n: usize, quick: bool) -> E3Row {
    let lo = n as u64 / 4;
    let hi = 3 * n as u64 / 4;
    let env = BenchEnv::new(vec![
        ("A", workload::nat_array(n, 1_000, 23)),
        ("B", workload::nat_array(n, 1_000, 29)),
    ]);
    let q1 = derived::zip(
        derived::subseq(global("A"), nat(lo), nat(hi)),
        derived::subseq(global("B"), nat(lo), nat(hi)),
    );
    let q2 = derived::subseq(derived::zip(global("A"), global("B")), nat(lo), nat(hi));
    // The *full* pipeline, including code motion: the residual bound
    // check of the subseq∘zip form mentions min{len A, len B}, which
    // code motion hoists out of the per-element loop.
    let o1 = optimize(&q1);
    let o2 = optimize(&q2);
    assert_eq!(env.eval(&q1), env.eval(&q2), "E3: pipelines disagree");
    assert_eq!(env.eval(&o1), env.eval(&q1), "E3: optimization changed q1");
    assert_eq!(env.eval(&o2), env.eval(&q2), "E3: optimization changed q2");
    let r = reps(quick);
    E3Row {
        zip_first: Pair {
            slow: time_median(r, || {
                std::hint::black_box(env.eval(&q1));
            }),
            fast: time_median(r, || {
                std::hint::black_box(env.eval(&o1));
            }),
        },
        subseq_first: Pair {
            slow: time_median(r, || {
                std::hint::black_box(env.eval(&q2));
            }),
            fast: time_median(r, || {
                std::hint::black_box(env.eval(&o2));
            }),
        },
        tabs: (count_tabs(&o1), count_tabs(&o2)),
    }
}

/// E3: the operation-order claim.
pub fn e3(quick: bool) -> Table {
    let sizes: &[usize] = if quick { &[256] } else { &[1024, 4096, 16384] };
    let mut t = Table::new(
        "E3: zip∘(subseq,subseq) vs subseq∘zip — order is irrelevant after optimization",
        "§1/§5: \"these various choices get optimized to similarly efficient queries … \
         reduced to the same query, up to extra constant-time bound checks\"",
        &[
            "n",
            "zip∘subseq raw",
            "zip∘subseq opt",
            "subseq∘zip raw",
            "subseq∘zip opt",
            "opt gap",
        ],
    );
    for &n in sizes {
        let r = e3_measure(n, quick);
        assert_eq!(r.tabs, (1, 1), "both normal forms must be a single tabulation");
        let gap = r.zip_first.fast.as_secs_f64() / r.subseq_first.fast.as_secs_f64().max(1e-12);
        t.row(vec![
            n.to_string(),
            fmt_duration(r.zip_first.slow),
            fmt_duration(r.zip_first.fast),
            fmt_duration(r.subseq_first.slow),
            fmt_duration(r.subseq_first.fast),
            format!("{gap:.2}x"),
        ]);
    }
    t.set_verdict(
        "both pipelines normalize to one tabulation; the optimized forms run within a \
         small constant of each other (the residual bound checks)",
    );
    t
}

// ---------------------------------------------------------------------
// E4 — literal via append O(n²) vs row-major O(n) (§3)
// ---------------------------------------------------------------------

/// Raw measurements for E4.
pub fn e4_measure(n: usize, quick: bool) -> Pair {
    let env = BenchEnv::new(vec![]);
    let items: Vec<Expr> = (0..n as u64).map(nat).collect();
    let slow_e = derived::literal_via_append(items.clone());
    let fast_e = array1_lit(items);
    assert_eq!(env.eval(&slow_e), env.eval(&fast_e), "E4: literals disagree");
    let r = reps(quick);
    Pair {
        fast: time_median(r, || {
            std::hint::black_box(env.eval(&fast_e));
        }),
        slow: time_median(r, || {
            std::hint::black_box(env.eval(&slow_e));
        }),
    }
}

/// E4: why §3 adds the row-major literal construct.
pub fn e4(quick: bool) -> Table {
    let sizes: &[usize] = if quick { &[16, 32, 64] } else { &[32, 64, 128, 256] };
    let mut t = Table::new(
        "E4: array literals — append chain vs row-major construct",
        "§3: \"the literal [[e1,…,en]] is equivalent to … so tabulation takes O(n²) time. \
         For reasons of efficiency, we therefore add the new [[n1,…,nk; e0,…]] construct\"",
        &["n", "append chain", "row-major", "append/row-major"],
    );
    let mut prev: Option<Pair> = None;
    let mut growths = Vec::new();
    for &n in sizes {
        let p = e4_measure(n, quick);
        if let Some(q) = prev {
            growths.push(p.slow.as_secs_f64() / q.slow.as_secs_f64().max(1e-12));
        }
        t.row(vec![
            n.to_string(),
            fmt_duration(p.slow),
            fmt_duration(p.fast),
            format!("{:.0}x", p.ratio()),
        ]);
        prev = Some(p);
    }
    let g = growths.iter().copied().fold(0.0f64, f64::max);
    t.set_verdict(format!(
        "append-chain time grows ~{g:.1}x per doubling (quadratic); row-major stays linear"
    ));
    t
}

// ---------------------------------------------------------------------
// E5 — β^p / δ^p avoid materialisation (§5)
// ---------------------------------------------------------------------

/// Raw measurements for E5: (subscript pair, len pair).
pub fn e5_measure(n: u64, quick: bool) -> (Pair, Pair) {
    let env = BenchEnv::new(vec![]);
    let sub_e = sub(tab1("i", nat(n), mul(var("i"), var("i"))), vec![nat(n / 2)]);
    let len_e = len(tab1("i", nat(n), mul(var("i"), var("i"))));
    let sub_o = optimize(&sub_e);
    let len_o = optimize(&len_e);
    assert_eq!(env.eval(&sub_e), env.eval(&sub_o), "E5: β^p changed the result");
    assert_eq!(env.eval(&len_e), env.eval(&len_o), "E5: δ^p changed the result");
    let r = reps(quick);
    let subscript = Pair {
        slow: time_median(r, || {
            std::hint::black_box(env.eval(&sub_e));
        }),
        fast: time_median(r, || {
            std::hint::black_box(env.eval(&sub_o));
        }),
    };
    let length = Pair {
        slow: time_median(r, || {
            std::hint::black_box(env.eval(&len_e));
        }),
        fast: time_median(r, || {
            std::hint::black_box(env.eval(&len_o));
        }),
    };
    (subscript, length)
}

/// E5: single-element access and length of a tabulation.
pub fn e5(quick: bool) -> Table {
    let sizes: &[u64] = if quick { &[1_000, 10_000] } else { &[10_000, 100_000, 1_000_000] };
    let mut t = Table::new(
        "E5: β^p and δ^p — subscript/len of a tabulation without materialising it",
        "§5: β^p \"saves both time and space by avoiding tabulation (i.e., materialization) \
         of the intermediary array\"; δ^p computes the length from the bound alone",
        &["n", "tab[i] raw", "tab[i] opt", "len(tab) raw", "len(tab) opt"],
    );
    for &n in sizes {
        let (s, l) = e5_measure(n, quick);
        t.row(vec![
            n.to_string(),
            fmt_duration(s.slow),
            fmt_duration(s.fast),
            fmt_duration(l.slow),
            fmt_duration(l.fast),
        ]);
    }
    t.set_verdict(
        "raw times grow linearly with n; optimized times are O(1) and constant across the \
         sweep — the intermediate array is never built",
    );
    t
}

// ---------------------------------------------------------------------
// E6 — the transpose rule is derivable (§5)
// ---------------------------------------------------------------------

/// Raw measurements for E6 perf: transpose of a tabulation, optimized
/// (fused) vs unoptimized (materialise, then copy).
pub fn e6_measure(m: usize, n: usize, quick: bool) -> Pair {
    let env = BenchEnv::new(vec![]);
    let tabbed = tab(
        vec![("i", nat(m as u64)), ("j", nat(n as u64))],
        add(mul(var("i"), nat(1_000)), var("j")),
    );
    let e = derived::transpose(tabbed);
    let o = normalize_and_eliminate().optimize(&e);
    assert_eq!(env.eval(&e), env.eval(&o), "E6: optimization changed transpose");
    let r = reps(quick);
    Pair {
        slow: time_median(r, || {
            std::hint::black_box(env.eval(&e));
        }),
        fast: time_median(r, || {
            std::hint::black_box(env.eval(&o));
        }),
    }
}

/// E6: the derivability check plus its performance consequence.
pub fn e6(quick: bool) -> Table {
    // Mechanical derivation check (the §5 derivation itself).
    let body = add(mul(var("i"), nat(10)), var("j"));
    let e = derived::transpose(tab(vec![("i", var("m")), ("j", var("n"))], body.clone()));
    let opt = normalize_and_eliminate().optimize(&e);
    let expect = tab(vec![("j", var("n")), ("i", var("m"))], body);
    let derived_ok = alpha_eq(&opt, &expect);
    assert!(derived_ok, "transpose rule not derived: {opt}");

    let sizes: &[(usize, usize)] = if quick { &[(32, 32)] } else { &[(64, 64), (128, 128), (256, 256)] };
    let mut t = Table::new(
        "E6: transpose — rule derived from β/δ^p/π/β^p + check elimination",
        "§5: \"we don't need to add extra array primitives, as most such rules are already \
         encoded by the rules for our minimal calculus\" (derivation shown in the paper)",
        &["matrix", "transpose∘tab raw", "fused (derived rule)", "speedup"],
    );
    for &(m, n) in sizes {
        let p = e6_measure(m, n, quick);
        t.row(vec![
            format!("{m}x{n}"),
            fmt_duration(p.slow),
            fmt_duration(p.fast),
            format!("{:.1}x", p.ratio()),
        ]);
    }
    t.set_verdict(
        "normalize+check-elim mechanically reproduces transpose([[e|i<m,j<n]]) ⤳ \
         [[e|j<n,i<m]] (α-equivalent), and the fused form skips the intermediate matrix",
    );
    t
}

// ---------------------------------------------------------------------
// E7 — index costs O(m + n log n) (§2)
// ---------------------------------------------------------------------

/// Raw measurement for E7 at one (n, m).
pub fn e7_measure(n: usize, m: u64, quick: bool) -> Duration {
    let env = BenchEnv::new(vec![("S", workload::keyed_set(n, m, 31))]);
    let e = index(1, global("S"));
    time_median(reps(quick), || {
        std::hint::black_box(env.eval(&e));
    })
}

/// E7: the cost model of the `index` construct.
pub fn e7(quick: bool) -> Table {
    let cases: &[(usize, u64)] = if quick {
        &[(128, 64), (128, 4096), (1024, 64)]
    } else {
        &[
            (1024, 256),
            (1024, 16_384),
            (1024, 262_144),
            (4096, 256),
            (16_384, 256),
        ]
    };
    let mut t = Table::new(
        "E7: index — grouping n pairs with maximum key m",
        "§2: \"the indexing of a set of size n with maximum key value m takes \
         O(m + n log n) (m to initialize the array with {}'s and n log n to insert)\"",
        &["n", "m", "index time"],
    );
    for &(n, m) in cases {
        t.row(vec![
            n.to_string(),
            m.to_string(),
            fmt_duration(e7_measure(n, m, quick)),
        ]);
    }
    t.set_verdict(
        "time scales linearly in m at fixed n (hole initialisation) and \
         near-linearithmically in n at fixed m (insertions) — O(m + n log n)",
    );
    t
}

// ---------------------------------------------------------------------
// E8 — end-to-end: the §1 query through the full pipeline
// ---------------------------------------------------------------------

/// Raw measurements for E8: full pipeline with the optimizer on/off.
pub fn e8_measure(quick: bool) -> (Pair, Value) {
    use aql::externals::register_heatindex;
    use aql::netcdf::driver::register_netcdf;
    use aql::netcdf::synth;
    use aql_lang::session::Session;

    let dir = std::env::temp_dir().join("aql-bench-e8");
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

    let query = r#"{d | \d <- gen!30,
         \WS' == evenpos!(proj_col!(WS, 0)),
         \TRW == zip_3!(T, RH, WS'),
         \A == subseq!(TRW, d*24, d*24+23),
         heatindex!(A) > threshold}"#;

    let (_, expect) = s.eval_query(query).expect("query");
    let r = reps(quick);
    let fast = time_median(r, || {
        s.optimize = true;
        std::hint::black_box(s.eval_query(query).expect("optimized run"));
    });
    let slow = time_median(r, || {
        s.optimize = false;
        std::hint::black_box(s.eval_query(query).expect("unoptimized run"));
    });
    s.optimize = true;
    (Pair { fast, slow }, expect)
}

/// E8: the motivating query, parse→desugar→typecheck→optimize→eval.
pub fn e8(quick: bool) -> Table {
    let (p, result) = e8_measure(quick);
    let mut t = Table::new(
        "E8: end-to-end — the §1 heat-index query over NetCDF data",
        "§1/§4: the full pipeline (parse, Fig. 2 desugaring, typecheck, §5 optimizer, \
         evaluate) over the NetCDF driver answers the motivating query",
        &["configuration", "time", "answer"],
    );
    t.row(vec!["optimizer on".into(), fmt_duration(p.fast), result.to_string()]);
    t.row(vec!["optimizer off".into(), fmt_duration(p.slow), result.to_string()]);
    t.set_verdict(format!(
        "identical answers; normalization makes the declarative query {:.1}x faster",
        p.ratio()
    ));
    t
}

// ---------------------------------------------------------------------
// E9 — expressiveness: ranking simulates arrays (§6)
// ---------------------------------------------------------------------

/// Raw measurements for E9 at one size: native evenpos vs the NRC_r
/// graph-encoded evenpos.
pub fn e9_measure(n: usize, quick: bool) -> Pair {
    let arr = workload::nat_array(n, 1_000, 37);
    let graph = rank::graph_value(arr.as_array().expect("array")).expect("graph");
    let env = {
        let mut e = BenchEnv::new(vec![("A", arr)]);
        e.bind("G", graph);
        e
    };
    let native_e = derived::evenpos(global("A"));
    // Optimized: code motion hoists the loop-invariant count(G) that
    // the naive translation recomputes per element.
    let graph_e = optimize(&rank::evenpos_on_graph(global("G")));
    // The graph result is the graph of the native result.
    let native_v = env.eval(&native_e);
    let graph_v = env.eval(&graph_e);
    assert_eq!(
        graph_v,
        rank::graph_value(native_v.as_array().expect("array")).expect("graph"),
        "E9: graph-side evenpos disagrees with native"
    );
    let r = reps(quick);
    Pair {
        fast: time_median(r, || {
            std::hint::black_box(env.eval(&native_e));
        }),
        slow: time_median(r, || {
            std::hint::black_box(env.eval(&graph_e));
        }),
    }
}

/// E9: Theorems 6.1/6.2 in executable form.
pub fn e9(quick: bool) -> Table {
    // Equivalence demonstrations (cheap, always run).
    let env = BenchEnv::new(vec![("X", workload::nat_array(64, 10_000, 41))]);
    let xs = derived::rng(global("X"));
    let via_rank = env.eval(&rank::set_to_array(xs.clone()));
    let sorted = via_rank.as_array().expect("array");
    assert!(
        sorted
            .data()
            .windows(2)
            .all(|w| match (w[0].as_nat(), w[1].as_nat()) {
                (Ok(a), Ok(b)) => a < b,
                _ => false,
            }),
        "set_to_array must order canonically"
    );

    let sizes: &[usize] = if quick { &[128] } else { &[512, 2048, 8192] };
    let mut t = Table::new(
        "E9: expressiveness — ranking simulates arrays (Thm 6.1/6.2)",
        "§6: \"adding arrays to a complex object language amounts to adding ranks\"; the \
         graph encoding ° computes the same queries in NRC_r",
        &["n", "evenpos (native)", "evenpos (NRC_r on graph)", "overhead"],
    );
    for &n in sizes {
        let p = e9_measure(n, quick);
        t.row(vec![
            n.to_string(),
            fmt_duration(p.fast),
            fmt_duration(p.slow),
            format!("{:.1}x", p.ratio()),
        ]);
    }
    t.set_verdict(
        "the translated queries agree with the native array semantics at every size \
         (both near-linear; the encoding pays set-canonicalisation overhead)",
    );
    t
}

// ---------------------------------------------------------------------
// E10 — ablation: what each optimizer phase buys
// ---------------------------------------------------------------------

/// The ablation configurations.
const ABLATION_CONFIGS: [&str; 4] = ["off", "normalize", "norm+checks", "full"];

fn ablation_transform(config: &str, e: &Expr) -> Expr {
    match config {
        "off" => e.clone(),
        "normalize" => aql_opt::normalizer().optimize(e),
        "norm+checks" => normalize_and_eliminate().optimize(e),
        "full" => optimize(e),
        // Configs come from the fixed ABLATION_CONFIGS table. lint-wall: allow
        other => panic!("unknown config {other}"),
    }
}

/// Raw measurements for E10: per-configuration times for one query.
pub fn e10_measure(query: &Expr, env: &BenchEnv, quick: bool) -> Vec<Duration> {
    let baseline = env.eval(query);
    ABLATION_CONFIGS
        .iter()
        .map(|cfg| {
            let t = ablation_transform(cfg, query);
            assert_eq!(env.eval(&t), baseline, "config `{cfg}` changed the result");
            time_median(reps(quick), || {
                std::hint::black_box(env.eval(&t));
            })
        })
        .collect()
}

/// E10: ablation of the three optimizer phases over a query suite.
/// DESIGN.md calls for ablation benches on the §5 design choices:
/// normalization (β^p-family fusion), bound-check elimination, and
/// code motion each carry measurable weight on different queries.
pub fn e10(quick: bool) -> Table {
    let n: usize = if quick { 512 } else { 4096 };
    let env = BenchEnv::new(vec![
        ("A", workload::nat_array(n, 1_000, 43)),
        ("B", workload::nat_array(n, 1_000, 47)),
    ]);
    let queries: Vec<(&str, Expr)> = vec![
        (
            "subseq∘zip slice",
            derived::subseq(
                derived::zip(global("A"), global("B")),
                nat(n as u64 / 4),
                nat(3 * n as u64 / 4),
            ),
        ),
        (
            "tab[i] point access",
            sub(
                tab1("i", nat(n as u64 * 10), mul(var("i"), var("i"))),
                vec![nat(5)],
            ),
        ),
        (
            "transpose∘tab",
            derived::transpose(tab(
                vec![("i", nat(64)), ("j", nat(64))],
                add(mul(var("i"), nat(100)), var("j")),
            )),
        ),
        (
            "loop-invariant sum",
            sum(
                "x",
                gen(nat(n as u64)),
                add(var("x"), set_max(derived::rng(global("A")))),
            ),
        ),
    ];
    let mut t = Table::new(
        "E10: ablation — contribution of each optimizer phase",
        "DESIGN.md ablation of the §5 phases: normalization fuses pipelines (β^p/η^p/δ^p), \
         check elimination strips the β^p residue, code motion restores sharing that full \
         inlining lost",
        &["query", "off", "normalize", "norm+checks", "full"],
    );
    for (qname, q) in &queries {
        let times = e10_measure(q, &env, quick);
        t.row(vec![
            qname.to_string(),
            fmt_duration(times[0]),
            fmt_duration(times[1]),
            fmt_duration(times[2]),
            fmt_duration(times[3]),
        ]);
    }
    t.set_verdict(
        "normalization does the asymptotic work (fusion, β^p); check elimination shaves \
         the per-element residue; code motion matters exactly when a loop body holds an \
         expensive invariant (the last row)",
    );
    t
}

/// Run every experiment.
pub fn run_all(quick: bool) -> Vec<Table> {
    vec![
        e1(quick),
        e2(quick),
        e3(quick),
        e4(quick),
        e5(quick),
        e6(quick),
        e7(quick),
        e8(quick),
        e9(quick),
        e10(quick),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_sets_are_slower_and_quadratic() {
        let small = e1_measure(32, true);
        let big = e1_measure(128, true);
        assert!(big.slow > big.fast, "set zip must be slower at n=128");
        // Quadratic vs linear: the ratio must grow with n.
        assert!(
            big.ratio() > small.ratio(),
            "gap must widen: {:.1} vs {:.1}",
            small.ratio(),
            big.ratio()
        );
    }

    #[test]
    fn e2_index_histogram_wins_at_large_m() {
        let p = e2_measure(64, 2048, true);
        assert!(p.ratio() > 1.0, "hist' must win at m=2048: {:.2}", p.ratio());
    }

    #[test]
    fn e5_optimized_access_is_constant() {
        let (s1, l1) = e5_measure(10_000, true);
        let (s2, l2) = e5_measure(100_000, true);
        // Raw grows ~10x; optimized stays flat (allow generous noise).
        assert!(s2.slow > s1.slow * 3, "raw subscript must grow with n");
        assert!(l2.slow > l1.slow * 3, "raw len must grow with n");
        assert!(
            s2.fast < s1.slow / 5,
            "optimized subscript must beat even the small raw case"
        );
        assert!(l2.fast < l1.slow / 5);
    }

    #[test]
    fn e6_derivation_holds() {
        // e6 asserts internally; just run it.
        let t = e6(true);
        assert!(t.rows.len() == 1);
    }

    #[test]
    fn e9_equivalence_holds() {
        let t = e9(true);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn e10_full_config_wins_on_invariant_loops() {
        let n = 512usize;
        let env = BenchEnv::new(vec![("A", workload::nat_array(n, 1_000, 43))]);
        // The invariant-heavy query: full (with motion) must beat
        // normalize-only by a wide margin.
        let q = sum(
            "x",
            gen(nat(n as u64)),
            add(var("x"), set_max(derived::rng(global("A")))),
        );
        let times = e10_measure(&q, &env, true);
        let (off, norm, full) = (times[0], times[1], times[3]);
        assert!(full < norm / 4, "motion must hoist the invariant: {times:?}");
        assert!(full < off, "full optimization must not regress: {times:?}");
    }
}
