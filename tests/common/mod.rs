//! What more than one root test (and `examples/opt_profile.rs`) builds
//! the same way: the core term a prelude macro or a builtin becomes,
//! the paper's comparison forms that have no macro, the symbolic
//! array-pipeline and set-query generators, and the corpus of core
//! terms the optimizer is pinned on — the `derivations.rs` terms, the
//! benchmark's eight `compile_mix` templates, and the paper's §4.2 and
//! §1 programs, each taken to the resolved core term the session hands
//! its optimizer, with its macros as written and as the session stores
//! them, normalized. Then the fault
//! axis of the differential oracle (ROADMAP item 3): four chunk
//! sources behind the production resilience stack, with one fault
//! placed on the chunk a chosen stage of a session reads first. Last,
//! `NETCDFk` under any fault schedule, for the chaos and incident
//! suites. Both break reads with `FaultyChunkSource`, the one injector.

#![allow(dead_code)] // every includer uses its own part

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use aql::core::expr::builder::*;
use aql::core::expr::free::{fresh, subst};
use aql::core::expr::Expr;
use aql::core::types::Type;
use aql::core::value::{ArrayVal, Value};
use aql::externals::{register_heatindex, register_june_sunset};
use aql::journal::ErrorClass;
use aql::lang::ast::Stmt;
use aql::lang::desugar::desugar;
use aql::lang::errors::LangError;
use aql::lang::parser::parse_program;
use aql::lang::reader::Reader;
use aql::lang::session::Session;
use aql::netcdf::chunk::NcChunkSource;
use aql::netcdf::driver::{register_netcdf, NetcdfSlabReader};
use aql::netcdf::synth;
use aql::store::{
    fault, ChunkLayout, ChunkSource, FaultyChunkSource, LazyArray, MemChunkSource,
    RemoteChunkSource, ResiliencePolicy, ResilientSource, ScalarBuf, ScalarKind,
};

// ---- derived terms ----------------------------------------------------------

/// The core term `name!(args)` becomes in a session with the optimizer
/// off: the prelude macro's resolved body as written, applied to its
/// argument, or to the tuple of its arguments.
pub fn prelude(name: &str, args: Vec<Expr>) -> Expr {
    applied(false, name, args)
}

/// [`prelude`] as the statement path resolves it with the optimizer on:
/// the macro's body in the normal form the session stored.
pub fn stored_prelude(name: &str, args: Vec<Expr>) -> Expr {
    applied(true, name, args)
}

fn applied(normal: bool, name: &str, mut args: Vec<Expr>) -> Expr {
    let arg = if args.len() == 1 { args.pop().expect("one argument") } else { tuple(args) };
    let mut session = Session::new();
    session.optimize = normal;
    app(session.resolve(&var(name)), arg)
}

/// `map f A = [[ f(A[i]) | i < len(A) ]]` (§2).
pub fn map_arr(f: Expr, a: Expr) -> Expr {
    let (va, i) = (fresh("A"), fresh("i"));
    let_(&va, a, tab1(&i, len(var(&va)), app(f, sub(var(&va), vec![var(&i)]))))
}

/// The core term the desugarer's builtin `name!x` (`count`, `dom`,
/// `rng`, …) becomes, with `arg` for `x`.
pub fn builtin(name: &str, arg: Expr) -> Expr {
    let Stmt::Query(e) = parse_program(&format!("{name}!x;")).expect("parses").remove(0) else {
        unreachable!("an expression statement is a query")
    };
    let mut core = desugar(&e).expect("desugars");
    subst(&mut core, "x", arg);
    core
}

/// `hist e = [[ Σ{if e[j] = i then 1 else 0 | j ∈ dom(e)} | i < max(rng(e)) ]]`
/// — the O(n·m) histogram of §2, verbatim (the paper tabulates up to
/// `max(rng e)` *exclusive*, so the maximum value itself falls outside).
pub fn hist(a: Expr) -> Expr {
    let (va, i, j) = (fresh("A"), fresh("i"), fresh("j"));
    let hit = iff(eq(sub(var(&va), vec![var(&j)]), var(&i)), nat(1), nat(0));
    let counts = sum(&j, builtin("dom", var(&va)), hit);
    let_(&va, a, tab1(&i, set_max(builtin("rng", var(&va))), counts))
}

/// `hist' e = map(count)(index(⋃{ {(e[j], j)} | j ∈ dom(e) }))` — the
/// O(m + n log n) histogram via the implicit group-by of `index` (§2).
pub fn hist_indexed(a: Expr) -> Expr {
    let (va, j, g) = (fresh("A"), fresh("j"), fresh("g"));
    let pairs = big_union(&j, builtin("dom", var(&va)), single(tuple(vec![sub(var(&va), vec![var(&j)]), var(&j)])));
    let_(&va, a, map_arr(lam(&g, builtin("count", var(&g))), index(1, pairs)))
}

/// Zip *without* arrays (§1): both arrays as graphs, joined by a
/// quadratic cross-product (the only way in a collection language),
/// and re-indexed. The baseline of experiment E1.
pub fn zip_via_sets(a: Expr, b: Expr) -> Expr {
    let (ga, gb, p, q, i) = (fresh("GA"), fresh("GB"), fresh("p"), fresh("q"), fresh("i"));
    let pair = single(tuple(vec![fst(var(&p)), tuple(vec![snd(var(&p)), snd(var(&q))])]));
    let joined = big_union(
        &p,
        var(&ga),
        big_union(&q, var(&gb), iff(eq(fst(var(&p)), fst(var(&q))), pair, empty())),
    );
    let rezip = map_arr(lam(&i, get(var(&i))), index(1, joined));
    let_(&ga, prelude("graph", vec![a]), let_(&gb, prelude("graph", vec![b]), rezip))
}

/// `[[e_1, …, e_n]] = [[e_1]] @ … @ [[e_n]]` (§3): the O(n²) literal
/// the row-major construct exists to avoid, from the empty array
/// `[[x | x < 0]]` and singletons `[[e]]`. The slow side of E4.
pub fn literal_via_append(items: Vec<Expr>) -> Expr {
    items.into_iter().fold(array_lit(vec![nat(0)], vec![]), |acc, item| {
        let (i, v) = (fresh("i"), fresh("v"));
        prelude("append", vec![acc, let_(&v, item, tab1(&i, nat(1), var(&v)))])
    })
}

// ---- generators -----------------------------------------------------------

/// One symbolic step of a 1-d array pipeline.
#[derive(Debug, Clone)]
pub enum Step {
    Reverse,
    Evenpos,
    Subseq(f64, f64),
    Append(u8),
    MapAdd(u8),
}

pub fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Reverse),
        Just(Step::Evenpos),
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| Step::Subseq(a, b)),
        (0u8..4).prop_map(Step::Append),
        (0u8..9).prop_map(Step::MapAdd),
    ]
}

/// Apply a pipeline symbolically, tracking the length so slices stay
/// in bounds; its macros as written.
pub fn build_pipeline(base: Vec<u64>, steps: &[Step]) -> Expr {
    build_pipeline_with(prelude, base, steps)
}

/// [`build_pipeline`], each macro use built by `prelude`.
pub fn build_pipeline_with(prelude: fn(&str, Vec<Expr>) -> Expr, base: Vec<u64>, steps: &[Step]) -> Expr {
    let mut e = array1_lit(base.iter().map(|&x| nat(x)).collect());
    let mut len_now = base.len() as u64;
    for s in steps {
        match s {
            Step::Reverse => e = prelude("reverse", vec![e]),
            Step::Evenpos => {
                e = prelude("evenpos", vec![e]);
                len_now /= 2;
            }
            Step::Subseq(a, b) => {
                if len_now == 0 {
                    continue;
                }
                let lo = ((*a * (len_now - 1) as f64) as u64).min(len_now - 1);
                let hi = ((*b * (len_now - 1) as f64) as u64).clamp(lo, len_now - 1);
                e = prelude("subseq", vec![e, nat(lo), nat(hi)]);
                len_now = hi - lo + 1;
            }
            Step::Append(k) => {
                let extra: Vec<Expr> = (0..*k as u64).map(nat).collect();
                e = prelude("append", vec![e, array1_lit(extra)]);
                len_now += *k as u64;
            }
            Step::MapAdd(c) => {
                let x = fresh("x");
                let f = lam(&x, add(var(&x), nat(*c as u64)));
                e = map_arr(f, e);
            }
        }
    }
    e
}

/// A closed comprehension-shaped query over a small literal set.
pub fn arb_set_query() -> impl Strategy<Value = Expr> {
    (prop::collection::vec(0u64..20, 0..5), 0u64..8, 0u64..4).prop_map(|(ns, cutoff, c)| {
        let s = ns
            .into_iter()
            .fold(Expr::Empty, |a, n| union(a, single(nat(n))));
        let x = fresh("x");
        big_union(
            &x,
            s,
            iff(
                lt(var(&x), nat(cutoff)),
                single(add(var(&x), nat(c))),
                Expr::Empty,
            ),
        )
    })
}

// ---- the corpus -----------------------------------------------------------

/// The terms `crates/aql-opt/tests/derivations.rs` derives the §5
/// claims on.
pub fn derivation_terms() -> Vec<(String, Expr)> {
    derivations(prelude)
}

/// [`derivation_terms`], each macro use built by `p`.
fn derivations(p: fn(&str, Vec<Expr>) -> Expr) -> Vec<(String, Expr)> {
    let (a, b) = (|| var("A"), || var("B"));
    let matrix = |head| tab(vec![("i", var("m")), ("j", var("n"))], head);
    let literal = || array_lit(vec![nat(2), nat(3)], (1..=6).map(nat).collect());
    let terms = vec![
        ("transpose of a tabulation", p("transpose", vec![matrix(add(mul(var("i"), nat(10)), var("j")))])),
        ("transpose, index head", p("transpose", vec![matrix(var("i"))])),
        ("transpose of a literal", p("transpose", vec![literal()])),
        ("zip of subseqs", p("zip", vec![p("subseq", vec![a(), nat(2), nat(9)]), p("subseq", vec![b(), nat(2), nat(9)])])),
        ("subseq of zip", p("subseq", vec![p("zip", vec![a(), b()]), nat(2), nat(9)])),
        ("beta-p", sub(tab1("i", nat(1000), mul(var("i"), var("i"))), vec![nat(17)])),
        ("delta-p", len(tab1("i", var("n"), mul(var("i"), var("i"))))),
        ("eta-p", tab1("i", len(a()), sub(a(), vec![var("i")]))),
        ("reverse of reverse", p("reverse", vec![p("reverse", vec![a()])])),
        ("evenpos of proj_col", p("evenpos", vec![p("proj_col", vec![var("WS"), nat(0)])])),
        ("zip", p("zip", vec![a(), b()])),
        ("transpose", p("transpose", vec![var("M")])),
        ("evenpos", p("evenpos", vec![a()])),
    ];
    terms.into_iter().map(|(label, e)| (label.to_string(), e)).collect()
}

/// The §1 heat-index query, verbatim.
pub const HEAT_QUERY: &str = "{d | \\d <- gen!30,
     \\WS' == evenpos!(proj_col!(WS, 0)),
     \\TRW == zip_3!(T, RH, WS'),
     \\A == subseq!(TRW, d*24, d*24+23),
     heatindex!(A) > threshold};";

/// The benchmark's eight `compile_mix` templates
/// (`benchmark/src/workloads.rs`), in declaration order.
pub fn compile_mix_templates() -> [&'static str; 8] {
    [
        "subseq!(zip!(A, B), 10, 13);",
        "[[ i * i + 1 | \\i < 300 ]][17];",
        "(transpose!(transpose!(M)))[3, 5];",
        HEAT_QUERY,
        "nearest!(C, 40.8);",
        "(upd!(A, 5, 999))[5] + (upd!(A, 5, 999))[6];",
        "macro \\sq = fn \\x => x * x + 1;",
        "val \\k = summap(fn \\i => A[i])!(gen!10);",
    ]
}

/// A session with the bindings the `compile_mix` templates mention, all
/// in memory as in the benchmark.
pub fn compile_mix_session() -> Session {
    fn array(dims: Vec<u64>, data: Vec<Value>) -> Value {
        Value::Array(Rc::new(ArrayVal::new(dims, data).expect("well-shaped")))
    }
    let nats = |f: &dyn Fn(u64) -> u64| (0..256).map(|i| Value::Nat(f(i))).collect();
    let reals = |xs: Vec<f64>| xs.into_iter().map(Value::Real).collect::<Vec<_>>();
    let hours = synth::JUNE_HOURS as u64;
    let mut s = Session::new();
    register_heatindex(&mut s);
    for (name, value) in [
        ("A", array(vec![256], nats(&|i| (7 * i + 3) % 101))),
        ("B", array(vec![256], nats(&|i| (13 * i + 5) % 97))),
        ("M", array(vec![16, 16], nats(&|i| i))),
        ("C", array(vec![5], reals(synth::LAT_GRID.to_vec()))),
        ("T", array(vec![hours], reals(synth::june_temp()))),
        ("RH", array(vec![hours], reals(synth::june_rh()))),
        ("WS", array(vec![2 * hours, synth::WS_LEVELS as u64], reals(synth::june_ws()))),
    ] {
        s.bind_val(name, value).expect("bind");
    }
    s.run("val \\threshold = 96.0;").expect("threshold");
    s
}

/// The paper's two sessions as the benchmark's `paper_session` runs
/// them: §4.2 statement for statement, then the §1 set-up and query.
/// Writes the synthetic NetCDF files under `dir`.
pub fn paper_programs(dir: &Path) -> [String; 2] {
    let (temp, june) = synth::write_example_data(dir).expect("synthetic data");
    let (temp, june) = (temp.display(), june.display());
    let hours = synth::JUNE_HOURS as u64;
    let sunset = format!(
        "val \\months = [[0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30]];
         macro \\days_since_1_1 = fn (\\m, \\d, \\y) =>
             d + summap(fn \\i => months[i])!(gen!m) +
             (if m > 2 and y % 4 = 0 then 1 else 0);
         val \\NYlat = 40.7; val \\NYlon = -74.0;
         macro \\lat_index = fn \\x => 2; macro \\lon_index = fn \\x => 2;
         readval \\T using NETCDF3 at
            (\"{temp}\", \"temp\",
             (days_since_1_1!(6, 1, 95) * 24, lat_index!(NYlat), lon_index!(NYlon)),
             (days_since_1_1!(6, 30, 95) * 24, lat_index!(NYlat), lon_index!(NYlon)));
         {{d | [(\\h, _, _) : \\t] <- T, \\d == h/24 + 1,
              h > june_sunset!(NYlat, NYlon, d), t > 85.0}};"
    );
    let heat = format!(
        "readval \\T using NETCDF1 at (\"{june}\", \"T\", 0, {th});
         readval \\RH using NETCDF1 at (\"{june}\", \"RH\", 0, {th});
         readval \\WS using NETCDF2 at (\"{june}\", \"WS\", (0, 0), ({wh}, {lh}));
         val \\threshold = 96.0;
         {HEAT_QUERY}",
        th = hours - 1,
        wh = 2 * hours - 1,
        lh = synth::WS_LEVELS - 1,
    );
    [sunset, heat]
}

/// A fresh session with everything the paper's programs name
/// registered.
pub fn paper_session() -> Session {
    let mut s = Session::new();
    register_netcdf(&mut s);
    register_heatindex(&mut s);
    register_june_sunset(&mut s);
    s
}

/// Run `program` on `session` statement by statement and return, in
/// order, every core term a statement optimizes on the way — a
/// statement's expression, or a `readval`/`writeval`'s operands —
/// resolved twice: with its macros as written (what an optimizer-off
/// session resolves), and as the statement path resolves it, with
/// each macro in the normal form the session stored.
pub fn core_term_pairs(session: &mut Session, program: &str) -> Vec<(Expr, Expr)> {
    let mut out = Vec::new();
    let optimize = session.optimize;
    for stmt in parse_program(program).expect("the program parses") {
        let exprs = match &stmt {
            Stmt::Query(e) | Stmt::Val(_, e) | Stmt::MacroDef(_, e) => vec![e],
            Stmt::ReadVal { arg, .. } => vec![arg],
            Stmt::WriteVal { value, arg, .. } => vec![value, arg],
        };
        for e in exprs {
            let core = desugar(e).expect("the statement desugars");
            session.optimize = false;
            let written = session.resolve(&core);
            session.optimize = true;
            out.push((written, session.resolve(&core)));
        }
        session.optimize = optimize;
        session.exec(&stmt).expect("the statement runs");
    }
    out
}

/// [`core_term_pairs`], each term with its macros as written.
pub fn core_terms(session: &mut Session, program: &str) -> Vec<Expr> {
    core_term_pairs(session, program).into_iter().map(|(written, _)| written).collect()
}

/// The whole corpus, labelled: derivations, `compile_mix`, both paper
/// sessions (files under `dir`); macros as written.
pub fn corpus(dir: &Path) -> Vec<(String, Expr)> {
    corpus_pairs(dir).into_iter().map(|(label, written, _)| (label, written)).collect()
}

/// The corpus with each term twice: its macros as written, and in the
/// normal forms a session stores.
pub fn corpus_pairs(dir: &Path) -> Vec<(String, Expr, Expr)> {
    let stored = derivations(stored_prelude);
    let mut out: Vec<_> = derivations(prelude).into_iter().zip(stored).map(|((l, w), (_, s))| (l, w, s)).collect();
    let mut mix = compile_mix_session();
    for template in compile_mix_templates() {
        let terms = core_term_pairs(&mut mix, template);
        out.extend(terms.into_iter().map(|(w, s)| (format!("compile_mix `{template}`"), w, s)));
    }
    let mut paper = paper_session();
    for (program, label) in paper_programs(dir).iter().zip(["§4.2", "§1"]) {
        let terms = core_term_pairs(&mut paper, program);
        out.extend(terms.into_iter().enumerate().map(|(i, (w, s))| (format!("{label} term {i}"), w, s)));
    }
    out
}

// ---- the fault axis -------------------------------------------------------

/// Cells of the array every fault-axis source serves (`A[i] = i`), and
/// of one chunk: chunk `k` is the one stage `k` reads first.
pub const FAULT_AXIS_CELLS: u64 = 64;
const FAULT_AXIS_CHUNK: u64 = 16;

/// What a chunk source can be made to do to the statement reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The first read of the chunk fails transiently, the next is clean.
    TransientOnce,
    /// Every read of the chunk fails transiently.
    TransientForever,
    /// Every read of the chunk fails with a non-retryable I/O error.
    PersistentIo,
    /// Every read delivers a damaged payload under the clean checksum.
    Corruption,
    /// The read stalls (interruptibly) for far longer than the
    /// statement's 1 ms deadline.
    Deadline,
    /// The statement's cancellation flag is raised mid-read.
    Cancel,
}

impl Fault {
    pub const ALL: [Fault; 6] = [
        Fault::TransientOnce,
        Fault::TransientForever,
        Fault::PersistentIo,
        Fault::Corruption,
        Fault::Deadline,
        Fault::Cancel,
    ];

    /// The one class a statement this fault fails may report; `None`
    /// for the fault the stack must absorb.
    pub fn class(self) -> Option<ErrorClass> {
        match self {
            Fault::TransientOnce => None,
            Fault::TransientForever => Some(ErrorClass::TransientIo),
            Fault::PersistentIo => Some(ErrorClass::Unavailable),
            Fault::Corruption => Some(ErrorClass::Corruption),
            Fault::Deadline => Some(ErrorClass::Deadline),
            Fault::Cancel => Some(ErrorClass::Cancelled),
        }
    }
}

/// When a session first reads the faulty chunk: while the reader binds
/// (it validates its first element), while `readval` echoes the value,
/// at the first subscript, or inside a kernel's window read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Bind = 0,
    Echo = 1,
    Subscript = 2,
    Kernel = 3,
}

impl Stage {
    pub const ALL: [Stage; 4] = [Stage::Bind, Stage::Echo, Stage::Subscript, Stage::Kernel];
}

/// The source kinds of the axis, as the `FAULTY` reader's argument.
pub const FAULT_AXIS_SOURCES: [&str; 4] = ["mem", "netcdf", "aqf", "remote"];

/// The `FAULTY` reader: binds the source kind its argument names
/// (`mem`, `netcdf`, `aqf`, `remote`) the way the stock readers bind
/// theirs — `FaultyChunkSource` innermost, the default resilience stack
/// around it, a labelled cache on top — and reads the first element
/// before handing the array over.
pub struct FaultyReader {
    /// Holds `axis.aqf`, written once by [`FaultyReader::new`].
    dir: std::path::PathBuf,
    pub fault: Fault,
    pub stage: Stage,
    /// Raised by [`Fault::Cancel`]; the session's `limits.cancel`.
    pub cancel: Arc<AtomicBool>,
    /// Source reads of the faulty chunk so far, every attempt counted.
    pub calls: Rc<Cell<u64>>,
}

impl FaultyReader {
    pub fn new(dir: &Path, fault: Fault, stage: Stage) -> FaultyReader {
        let aqf = dir.join("axis.aqf");
        if !aqf.exists() {
            let cells = ArrayVal::from_f64(vec![FAULT_AXIS_CELLS], Self::cells()).expect("a vector");
            let path = aqf.to_str().expect("utf-8 path");
            aql::format::write_array(path, &cells, true, FAULT_AXIS_CHUNK).expect("write axis.aqf");
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let calls = Rc::new(Cell::new(0));
        FaultyReader { dir: dir.to_path_buf(), fault, stage, cancel, calls }
    }

    fn cells() -> Vec<f64> {
        (0..FAULT_AXIS_CELLS).map(|i| i as f64).collect()
    }

    /// The row's fault as a schedule: it acts on reads of the chunk the
    /// stage reads first, and leaves every other chunk alone.
    fn schedule(&self) -> impl FnMut(u64, &[u64]) -> Option<fault::Fault> {
        let (at, row) = (self.stage as u64 * FAULT_AXIS_CHUNK, self.fault);
        let cancel = Arc::clone(&self.cancel);
        let calls = Rc::clone(&self.calls);
        move |_, start| {
            if start[0] != at {
                return None;
            }
            calls.set(calls.get() + 1);
            match row {
                Fault::TransientOnce => (calls.get() == 1).then_some(fault::Fault::Transient),
                Fault::TransientForever => Some(fault::Fault::Transient),
                Fault::PersistentIo => Some(fault::Fault::Persistent),
                Fault::Corruption => Some(fault::Fault::Corrupt),
                // Interrupted at once under a statement's 1 ms deadline; a
                // short stall where no statement's limits are installed.
                Fault::Deadline => Some(fault::Fault::Latency(Duration::from_millis(20))),
                // Raised mid-read; the stall polls it before the read.
                Fault::Cancel => {
                    cancel.store(true, Ordering::SeqCst);
                    Some(fault::Fault::Latency(Duration::ZERO))
                }
            }
        }
    }

    fn source(&self, kind: &str) -> Result<Box<dyn ChunkSource>, LangError> {
        let mem = || MemChunkSource::new(vec![FAULT_AXIS_CELLS], ScalarBuf::F64(Self::cells()));
        Ok(match kind {
            "mem" => Box::new(mem()?),
            "remote" => Box::new(RemoteChunkSource::new(mem()?, Duration::from_micros(50))),
            "aqf" => Box::new(aql::format::AqfChunkSource::open(self.dir.join("axis.aqf"))?),
            "netcdf" => {
                use aql::netcdf::format::{NcType, VERSION_CLASSIC};
                use aql::netcdf::model::{NcFile, NcValues};
                let mut file = NcFile::new();
                let x = file.add_dim("x", FAULT_AXIS_CELLS as u32);
                file.add_var("v", vec![x], NcType::Double, vec![], NcValues::Double(Self::cells()))
                    .expect("a consistent variable");
                let bytes = aql::netcdf::write::to_bytes(&file, VERSION_CLASSIC).expect("serialises");
                let open = move || Ok(std::io::Cursor::new(bytes.clone()));
                Box::new(NcChunkSource::new(open, "v", vec![0]))
            }
            other => return Err(LangError::session(format!("FAULTY: no source kind `{other}`"))),
        })
    }
}

impl Reader for FaultyReader {
    fn read(&self, arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        let Value::Str(kind) = arg else {
            return Err(LangError::session("FAULTY expects a source kind"));
        };
        let faulty = FaultyChunkSource::new(self.source(kind)?, self.schedule());
        let label = format!("axis:{kind}");
        let source = ResilientSource::new(faulty, label.clone(), ResiliencePolicy::default());
        let layout = ChunkLayout::new(vec![FAULT_AXIS_CELLS], vec![FAULT_AXIS_CHUNK])?;
        let mut lazy = LazyArray::labeled(layout, ScalarKind::F64, Box::new(source), 1 << 20, label);
        // Met at bind: a storage failure here is the reader's `Err`,
        // with its type (`From<StoreError> for LangError`).
        lazy.get(&[0])?;
        Ok((Value::Array(Rc::new(ArrayVal::lazy(lazy)?)), Some(Type::array1(Type::Real))))
    }
}

// ---- NETCDFk under a fault schedule ----------------------------------------

/// A fault schedule, boxed so a reader can hold one until it binds.
type Schedule = Box<dyn FnMut(u64, &[u64]) -> Option<fault::Fault>>;

/// `NETCDFk` with a fault schedule: the stock reader's own binding
/// (`NetcdfSlabReader::bind`) with `FaultyChunkSource` between the
/// `NcChunkSource` and the resilience stack, as [`FaultyReader`] binds
/// its sources. One `readval` per reader: the schedule moves into the
/// array it binds.
pub struct ScheduledNetcdf {
    /// The reader that binds; set its `resilience` to change the stack.
    pub stock: NetcdfSlabReader,
    schedule: RefCell<Option<Schedule>>,
}

impl ScheduledNetcdf {
    pub fn new(
        k: usize,
        schedule: impl FnMut(u64, &[u64]) -> Option<fault::Fault> + 'static,
    ) -> ScheduledNetcdf {
        ScheduledNetcdf {
            stock: NetcdfSlabReader::lazy(k),
            schedule: RefCell::new(Some(Box::new(schedule))),
        }
    }
}

impl Reader for ScheduledNetcdf {
    fn read(&self, arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        let schedule = self.schedule.borrow_mut().take();
        let schedule = schedule.ok_or_else(|| LangError::session("the schedule is bound already"))?;
        self.stock.bind(arg, |source| Box::new(FaultyChunkSource::new(source, schedule)))
    }
}
