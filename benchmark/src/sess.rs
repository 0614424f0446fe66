//! One AQL session as the benchmark drives it.
//!
//! Untraced, a program goes through [`Session::run`] exactly as a user
//! would run it. Staged, the same program is taken through the same
//! phases by calling each crate's public functions in turn, with a
//! span around each call — the per-layer numbers come from there.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use aql::externals::{register_heatindex, register_june_sunset};
use aql_core::eval::EvalStats;
use aql_core::{typecheck, Expr, Extensions, Name, NativeFn, Type, Value};
use aql_format::{AqfArrayWriter, AqfReader};
use aql_lang::ast::{SExpr, Stmt};
use aql_lang::desugar::desugar;
use aql_lang::parser::parse_program;
use aql_lang::reader::{Reader, Writer};
use aql_lang::{lexer, Session};
use aql_netcdf::driver::NetcdfSlabReader;

use crate::io::{TimedReader, TimedWriter, TracedAqfReader, TracedNetcdfReader};
use crate::span::span;
use crate::stats::median;

pub struct Sess {
    pub session: Session,
    /// The readers and writers registered on the session, by name, so
    /// a staged `readval`/`writeval` can call them directly.
    readers: HashMap<String, Rc<dyn Reader>>,
    writers: HashMap<String, Rc<dyn Writer>>,
    /// Types of the externals registered on the session; the staged
    /// typecheck needs them and the session does not hand its own out.
    externals: Extensions,
    /// Mirror of the session's `val` types for the staged typecheck.
    val_types: HashMap<Name, Type>,
    /// Evaluation and cache counters summed over every untraced run.
    pub counts: EvalStats,
    /// Set when the session may hold bindings `val_types` lacks.
    types_stale: bool,
    /// Duration of the most recent staged `eval`.
    pub last_eval_ns: u64,
}

fn type_only(name: &str, ty: Type) -> NativeFn {
    NativeFn::new(name, ty, |_| {
        unreachable!("the mirror is only ever typechecked against")
    })
}

impl Sess {
    /// A session with the prelude, the NetCDF and AQF drivers and the
    /// paper's two externals. With `timed_io` the drivers are the
    /// benchmark's span-recording counterparts of the stock ones.
    pub fn new(timed_io: bool) -> Sess {
        let mut session = {
            let _s = span("session.new");
            Session::new()
        };
        let _s = span("session.register");
        let mut readers: HashMap<String, Rc<dyn Reader>> = HashMap::new();
        let mut writers: HashMap<String, Rc<dyn Writer>> = HashMap::new();
        for k in 1..=3usize {
            let r: Rc<dyn Reader> = if timed_io {
                Rc::new(TimedReader {
                    inner: Rc::new(TracedNetcdfReader { k }),
                    name: "netcdf.bind",
                })
            } else {
                Rc::new(NetcdfSlabReader::lazy(k))
            };
            readers.insert(format!("NETCDF{k}"), r);
        }
        if timed_io {
            readers.insert(
                "AQF".into(),
                Rc::new(TimedReader {
                    inner: Rc::new(TracedAqfReader),
                    name: "format.bind",
                }),
            );
            writers.insert(
                "AQF".into(),
                Rc::new(TimedWriter {
                    inner: Rc::new(AqfArrayWriter::default()),
                    name: "format.write",
                }),
            );
        } else {
            readers.insert("AQF".into(), Rc::new(AqfReader::default()));
            writers.insert("AQF".into(), Rc::new(AqfArrayWriter::default()));
        }
        for (name, r) in &readers {
            session.register_reader(name, r.clone());
        }
        for (name, w) in &writers {
            session.register_writer(name, w.clone());
        }
        register_heatindex(&mut session);
        register_june_sunset(&mut session);
        let mut externals = Extensions::new();
        externals.register(type_only(
            "heatindex",
            Type::fun(
                Type::array1(Type::tuple(vec![Type::Real, Type::Real, Type::Real])),
                Type::Real,
            ),
        ));
        externals.register(type_only(
            "june_sunset",
            Type::fun(
                Type::tuple(vec![Type::Real, Type::Real, Type::Nat]),
                Type::Nat,
            ),
        ));
        Sess {
            session,
            readers,
            writers,
            externals,
            val_types: HashMap::new(),
            counts: EvalStats::default(),
            types_stale: false,
            last_eval_ns: 0,
        }
    }

    /// Bind a `val` from Rust.
    pub fn bind(&mut self, name: &str, v: Value) -> Result<(), String> {
        self.types_stale = true;
        self.session.bind_val(name, v).map_err(|e| e.to_string())
    }

    /// Run a program and return the value of its last statement, if
    /// that statement has one.
    pub fn run(&mut self, src: &str, staged: bool) -> Result<Option<Value>, String> {
        let result = if staged {
            self.run_staged(src)
        } else {
            self.run_untraced(src)
        };
        result.map_err(|e| format!("{e}, in `{}`", src.chars().take(72).collect::<String>()))
    }

    fn run_untraced(&mut self, src: &str) -> Result<Option<Value>, String> {
        self.types_stale = true;
        let outcomes = self.session.run(src).map_err(|e| e.to_string())?;
        self.counts = self.counts.merged(&self.session.last_stats());
        Ok(outcomes.into_iter().last().and_then(|o| o.value))
    }

    fn run_staged(&mut self, src: &str) -> Result<Option<Value>, String> {
        if self.types_stale {
            self.val_types = self
                .session
                .val_bindings()
                .into_iter()
                .map(|(n, t)| (Name::from(n), t))
                .collect();
            self.types_stale = false;
        }
        let stmts = {
            let _s = span("lang.parse");
            parse_program(src).map_err(|e| e.to_string())?
        };
        let mut last = None;
        for stmt in &stmts {
            // Its self time is the binding of the result.
            let _s = span("session.stmt");
            last = match stmt {
                Stmt::Query(e) => {
                    let (ty, v) = self.pipeline(e)?;
                    self.bind_typed("it", v.clone(), ty);
                    Some(v)
                }
                Stmt::Val(name, e) => {
                    let (ty, v) = self.pipeline(e)?;
                    self.bind_typed(name, v.clone(), ty);
                    Some(v)
                }
                // A macro can only be registered by the session itself.
                Stmt::MacroDef(..) => {
                    let _s = span("session.exec");
                    self.session.exec(stmt).map_err(|e| e.to_string())?;
                    None
                }
                Stmt::ReadVal { name, reader, arg } => {
                    let (_, argv) = self.pipeline(arg)?;
                    let r = self
                        .readers
                        .get(reader)
                        .ok_or(format!("no reader `{reader}`"))?;
                    let (v, ty) = r.read(&argv).map_err(|e| e.to_string())?;
                    let ty = ty.ok_or(format!("reader `{reader}` declared no type"))?;
                    self.bind_typed(name, v.clone(), ty);
                    Some(v)
                }
                Stmt::WriteVal { value, writer, arg } => {
                    let (_, v) = self.pipeline(value)?;
                    let (_, argv) = self.pipeline(arg)?;
                    let w = self
                        .writers
                        .get(writer)
                        .ok_or(format!("no writer `{writer}`"))?;
                    w.write(&argv, &v).map_err(|e| e.to_string())?;
                    None
                }
            };
        }
        Ok(last)
    }

    fn bind_typed(&mut self, name: &str, v: Value, ty: Type) {
        self.val_types.insert(Name::from(name), ty.clone());
        self.session.bind_val_typed(name, v, ty);
    }

    /// `Session::eval_core`, phase by phase.
    fn pipeline(&mut self, e: &SExpr) -> Result<(Type, Value), String> {
        let core = {
            let _s = span("lang.desugar");
            desugar(e).map_err(|e| e.to_string())?
        };
        let resolved = {
            let _s = span("lang.resolve");
            self.session.resolve(&core)
        };
        let ty = {
            let _s = span("check.typecheck");
            typecheck(&resolved, &self.val_types, &self.externals).map_err(|e| e.to_string())?
        };
        let optimized = {
            let _s = span("opt.optimize");
            self.session
                .optimizer_mut()
                .try_optimize(&resolved)
                .map_err(|e| e.to_string())?
        };
        let t0 = Instant::now();
        let v = {
            let _s = span("eval.eval");
            self.session
                .eval_expr_raw(&optimized)
                .map_err(|e| e.to_string())?
        };
        self.last_eval_ns = t0.elapsed().as_nanos() as u64;
        Ok((ty, v))
    }

    /// What the front end makes of `src`, measured outside any op:
    /// token and node counts, rule firings, the lexer's and the
    /// analyzer's time, and the analyzer's bounds verdicts. Run after
    /// the workload, so every name `src` mentions is bound.
    pub fn profile(&mut self, src: &str) -> Result<StmtProfile, String> {
        let mut p = StmtProfile::default();
        let reps = 5;
        let mut lex_us = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let toks = lexer::lex(src).map_err(|e| e.to_string())?;
            lex_us.push(t0.elapsed().as_secs_f64() * 1e6);
            p.tokens = toks.len() as u64;
        }
        p.lex_us = median(&lex_us);
        let globals = self.session.analysis_globals();
        for stmt in parse_program(src).map_err(|e| e.to_string())? {
            p.statements += 1;
            let exprs: Vec<&SExpr> = match &stmt {
                Stmt::Query(e) | Stmt::Val(_, e) | Stmt::MacroDef(_, e) => vec![e],
                Stmt::ReadVal { arg, .. } => vec![arg],
                Stmt::WriteVal { value, arg, .. } => vec![value, arg],
            };
            for e in exprs {
                let core = desugar(e).map_err(|e| e.to_string())?;
                let resolved = self.session.resolve(&core);
                p.core_nodes += resolved.size() as u64;
                let (optimized, trace) = self.session.optimizer_mut().optimize_traced(&resolved);
                p.rule_fires += trace.len() as u64;
                p.nodes_out += optimized.size() as u64;
                let mut analyze_us = Vec::new();
                let mut verdicts = Default::default();
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let a = aql_analysis::analyze(&resolved, &globals);
                    analyze_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    verdicts = a.sub_counts();
                }
                p.analyze_us += median(&analyze_us);
                p.subscripts += verdicts.total as u64;
                p.in_bounds += verdicts.in_bounds as u64;
                p.resolved.push(resolved);
                p.optimized.push(optimized);
            }
            // The macro exists from here on, as it would in the session.
            if matches!(stmt, Stmt::MacroDef(..)) {
                self.session.exec(&stmt).map_err(|e| e.to_string())?;
            }
        }
        Ok(p)
    }
}

/// Front-end facts about one program; see [`Sess::profile`].
#[derive(Default)]
pub struct StmtProfile {
    pub statements: u64,
    pub tokens: u64,
    pub core_nodes: u64,
    pub rule_fires: u64,
    pub nodes_out: u64,
    pub lex_us: f64,
    pub analyze_us: f64,
    /// Subscript sites, and how many of them the analyzer proved in
    /// range.
    pub subscripts: u64,
    pub in_bounds: u64,
    /// Each expression after name resolution, and after optimization.
    pub resolved: Vec<Expr>,
    pub optimized: Vec<Expr>,
}
