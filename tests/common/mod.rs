//! What more than one root test (and `examples/opt_profile.rs`) builds
//! the same way: the symbolic array-pipeline and set-query generators,
//! and the corpus of core terms the optimizer is pinned on — the
//! `derivations.rs` terms, the benchmark's eight `compile_mix`
//! templates, and the paper's §4.2 and §1 programs, each taken to the
//! resolved core term the session hands its optimizer. Last, the fault
//! axis of the differential oracle (ROADMAP item 1b): four chunk
//! sources behind the production resilience stack, with one fault
//! placed on the chunk a chosen stage of a session reads first.

#![allow(dead_code)] // every includer uses its own part

use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use aql::core::derived;
use aql::core::expr::builder::*;
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
use aql::netcdf::driver::register_netcdf;
use aql::netcdf::synth;
use aql::store::{
    fault, governor, interrupt, ChunkLayout, ChunkSource, LazyArray, MemChunkSource,
    RemoteChunkSource, ResiliencePolicy, ResilientSource, ScalarBuf, ScalarKind, StoreError,
};

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
/// in bounds (mirrors `tests/properties.rs`).
pub fn build_pipeline(base: Vec<u64>, steps: &[Step]) -> Expr {
    let mut e = array1_lit(base.iter().map(|&x| nat(x)).collect());
    let mut len_now = base.len() as u64;
    for s in steps {
        match s {
            Step::Reverse => e = derived::reverse(e),
            Step::Evenpos => {
                e = derived::evenpos(e);
                len_now /= 2;
            }
            Step::Subseq(a, b) => {
                if len_now == 0 {
                    continue;
                }
                let lo = ((*a * (len_now - 1) as f64) as u64).min(len_now - 1);
                let hi = ((*b * (len_now - 1) as f64) as u64).clamp(lo, len_now - 1);
                e = derived::subseq(e, nat(lo), nat(hi));
                len_now = hi - lo + 1;
            }
            Step::Append(k) => {
                let extra: Vec<Expr> = (0..*k as u64).map(nat).collect();
                e = derived::append(e, array1_lit(extra));
                len_now += *k as u64;
            }
            Step::MapAdd(c) => {
                let f = {
                    let x = aql::core::expr::free::fresh("x");
                    lam(&x, add(var(&x), nat(*c as u64)))
                };
                e = derived::map_arr(f, e);
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
        let x = aql::core::expr::free::fresh("x");
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
    let (a, b) = (|| var("A"), || var("B"));
    let matrix = |head| tab(vec![("i", var("m")), ("j", var("n"))], head);
    let literal = || array_lit(vec![nat(2), nat(3)], (1..=6).map(nat).collect());
    let terms = vec![
        ("transpose of a tabulation", derived::transpose(matrix(add(mul(var("i"), nat(10)), var("j"))))),
        ("transpose, index head", derived::transpose(matrix(var("i")))),
        ("transpose of a literal", derived::transpose(literal())),
        ("zip of subseqs", derived::zip(derived::subseq(a(), nat(2), nat(9)), derived::subseq(b(), nat(2), nat(9)))),
        ("subseq of zip", derived::subseq(derived::zip(a(), b()), nat(2), nat(9))),
        ("beta-p", sub(tab1("i", nat(1000), mul(var("i"), var("i"))), vec![nat(17)])),
        ("delta-p", len(tab1("i", var("n"), mul(var("i"), var("i"))))),
        ("eta-p", tab1("i", len(a()), sub(a(), vec![var("i")]))),
        ("reverse of reverse", derived::reverse(derived::reverse(a()))),
        ("evenpos of proj_col", derived::evenpos(derived::proj_col(var("WS"), nat(0)))),
        ("zip", derived::zip(a(), b())),
        ("transpose", derived::transpose(var("M"))),
        ("evenpos", derived::evenpos(a())),
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
/// order, every resolved core term the session optimized on the way —
/// a statement's expression, or a `readval`/`writeval`'s operands.
pub fn core_terms(session: &mut Session, program: &str) -> Vec<Expr> {
    let mut out = Vec::new();
    for stmt in parse_program(program).expect("the program parses") {
        let exprs = match &stmt {
            Stmt::Query(e) | Stmt::Val(_, e) | Stmt::MacroDef(_, e) => vec![e],
            Stmt::ReadVal { arg, .. } => vec![arg],
            Stmt::WriteVal { value, arg, .. } => vec![value, arg],
        };
        for e in exprs {
            out.push(session.resolve(&desugar(e).expect("the statement desugars")));
        }
        session.exec(&stmt).expect("the statement runs");
    }
    out
}

/// The whole corpus, labelled: derivations, `compile_mix`, both paper
/// sessions (files under `dir`).
pub fn corpus(dir: &Path) -> Vec<(String, Expr)> {
    let mut out = derivation_terms();
    let mut mix = compile_mix_session();
    for template in compile_mix_templates() {
        let terms = core_terms(&mut mix, template);
        out.extend(terms.into_iter().map(|e| (format!("compile_mix `{template}`"), e)));
    }
    let mut paper = paper_session();
    for (program, label) in paper_programs(dir).iter().zip(["§4.2", "§1"]) {
        let terms = core_terms(&mut paper, program);
        out.extend(terms.into_iter().enumerate().map(|(i, e)| (format!("{label} term {i}"), e)));
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
    /// The process byte budget drops to one byte as the chunk arrives,
    /// so the governor denies its admission.
    GovernorDenial,
    /// The read stalls (interruptibly) for far longer than the
    /// statement's 1 ms deadline.
    Deadline,
    /// The statement's cancellation flag is raised mid-read.
    Cancel,
}

impl Fault {
    pub const ALL: [Fault; 7] = [
        Fault::TransientOnce,
        Fault::TransientForever,
        Fault::PersistentIo,
        Fault::Corruption,
        Fault::GovernorDenial,
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
            Fault::GovernorDenial => Some(ErrorClass::ResourceExhausted),
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

/// Injects `fault` into reads of the chunk starting at `at`; every
/// other chunk is the inner source's.
struct FaultAt {
    inner: Box<dyn ChunkSource>,
    at: u64,
    fault: Fault,
    reads: u32,
    cancel: Arc<AtomicBool>,
}

impl ChunkSource for FaultAt {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        if start[0] != self.at {
            return self.inner.read_chunk(start, count);
        }
        self.reads += 1;
        let transient = || StoreError::Io { message: "injected: link flapped".into(), transient: true };
        match self.fault {
            Fault::TransientOnce if self.reads == 1 => return Err(transient()),
            Fault::TransientForever => return Err(transient()),
            Fault::PersistentIo => return Err(StoreError::io("injected: device gone")),
            Fault::GovernorDenial => governor::set_budget(Some(1)),
            // Interrupted at once under a statement's 1 ms deadline; a
            // short stall where no statement's limits are installed.
            Fault::Deadline => interrupt::sleep(Duration::from_millis(20))?,
            Fault::Cancel => {
                self.cancel.store(true, Ordering::SeqCst);
                interrupt::check()?;
            }
            Fault::TransientOnce | Fault::Corruption => {}
        }
        let mut buf = self.inner.read_chunk(start, count)?;
        if let (Fault::Corruption, ScalarBuf::F64(cells)) = (self.fault, &mut buf) {
            cells[0] += 1.0;
        }
        Ok(buf)
    }

    /// The clean payload's checksum, as a source's metadata would have it.
    fn chunk_checksum(&mut self, start: &[u64], count: &[u64]) -> Option<u64> {
        self.inner.read_chunk(start, count).ok().map(|clean| fault::checksum(&clean))
    }
}

/// The `FAULTY` reader: binds the source kind its argument names
/// (`mem`, `netcdf`, `aqf`, `remote`) the way the stock readers bind
/// theirs — fault injector innermost, the default resilience stack
/// around it, a labelled cache on top — and reads the first element
/// before handing the array over.
pub struct FaultyReader {
    /// Holds `axis.aqf`, written once by [`FaultyReader::new`].
    dir: std::path::PathBuf,
    pub fault: Fault,
    pub stage: Stage,
    /// Raised by [`Fault::Cancel`]; the session's `limits.cancel`.
    pub cancel: Arc<AtomicBool>,
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
        FaultyReader { dir: dir.to_path_buf(), fault, stage, cancel }
    }

    fn cells() -> Vec<f64> {
        (0..FAULT_AXIS_CELLS).map(|i| i as f64).collect()
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
                Box::new(aql::netcdf::chunk::NcChunkSource::new(open, "v", vec![0]))
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
        let faulty = FaultAt {
            inner: self.source(kind)?,
            at: self.stage as u64 * FAULT_AXIS_CHUNK,
            fault: self.fault,
            reads: 0,
            cancel: Arc::clone(&self.cancel),
        };
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
