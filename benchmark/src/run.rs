//! One run of one workload: set-up, warm-up, five measured rounds,
//! the metrics, the result line.
//!
//! The load model is a closed loop with one client on one thread — AQL
//! is an interactive single-session system — and one process per run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use aql_core::eval::EvalStats;
use aql_store::CacheStats;
use aql_trace::json::Json;

use crate::probes::{self, StoreCosts};
use crate::span;
use crate::spec::{self, Metric};
use crate::stats::{
    cpu_seconds, median, peak_rss_mb, quantile_sorted, quietest, round_spread, supported_quantile,
};
use crate::workloads::{self, Laps, Workload};

/// Full set-ups per run; `setup_s` is the sum of each phase's fastest
/// time, by the reasoning of [`quietest`]. A count, not a time: memory left behind by a set-up
/// must not make `peak_rss_mb` depend on the machine's speed.
const SETUPS: usize = 30;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the run keeps its files; removed when the run ends.
    pub dir: Option<PathBuf>,
    /// One set-up and a two-op warm-up: for smoke tests, not numbers.
    pub quick: bool,
    /// Append the full record to this file as one JSON line.
    pub out: Option<PathBuf>,
}

/// Everything one run measured.
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn metrics_json<'a>(&self, which: impl Iterator<Item = &'a Metric>) -> Json {
        Json::Obj(
            which
                .map(|m| {
                    let value = self.get(m.name).unwrap_or(0.0);
                    let entry = vec![
                        ("value".to_string(), Json::Num(value)),
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ];
                    (m.name.to_string(), Json::Obj(entry))
                })
                .collect(),
        )
    }

    fn verdict(&self) -> Vec<(String, Json)> {
        vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
        ]
    }

    /// The last line of a run's output: the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one.
    pub fn result_line(&self) -> String {
        let metrics = if self.trace {
            self.metrics_json(spec::CHECKED.iter().chain(spec::LAYER.iter()))
        } else {
            self.metrics_json(spec::END_TO_END.iter())
        };
        let mut members = self.verdict();
        members.push(("metrics".to_string(), metrics));
        Json::Obj(members).write()
    }

    /// The full record, one line of an `--out` file.
    pub fn full_line(&self) -> String {
        let mut members = vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("seconds".to_string(), Json::Num(self.seconds)),
            ("trace".to_string(), Json::Bool(self.trace)),
        ];
        members.extend(self.verdict());
        let measured = spec::all_metrics().filter(|m| self.get(m.name).is_some());
        members.push(("metrics".to_string(), self.metrics_json(measured)));
        Json::Obj(members).write()
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut s = format!(
            "workload {} seed {} seconds {} trace {}\n",
            self.workload, self.seed, self.seconds, self.trace as u8
        );
        for m in spec::all_metrics() {
            if let Some(v) = self.get(m.name) {
                s.push_str(&format!("{:<34} {:>16.6} {}\n", m.name, v, m.unit));
            }
        }
        s.push_str(&format!(
            "correct: {}  attempted: {}  failed: {}\n",
            self.correct(),
            self.attempted,
            self.failed
        ));
        s
    }
}

/// A directory removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out`, inside the checkout whatever the working directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh directory under `benchmark/out`.
pub fn scratch_dir(tag: &str) -> ScratchDir {
    let dir = out_dir().join(format!("run-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cannot create the run directory");
    ScratchDir(dir)
}

/// Runs ops and keeps the verdicts.
struct Meter {
    workload: Box<dyn Workload>,
    attempted: u64,
    failed: u64,
    /// Self time of every span recorded below the op roots.
    layered_ns: u64,
}

impl Meter {
    /// One op; its wall time and the CPU time of the process over it
    /// (answer check included), both in ms. A staged op runs under a
    /// root span, which records nothing unless recording is on.
    fn op(&mut self, staged: bool) -> (f64, f64) {
        let cpu0 = cpu_seconds();
        let root = staged.then(|| span::span("op"));
        let r = self.workload.op(staged);
        drop(root);
        self.layered_ns += span::finish_op();
        let cpu_ms = (cpu_seconds() - cpu0) * 1e3;
        self.attempted += 1;
        self.failed += u64::from(!r.ok);
        (r.wall_ns as f64 / 1e6, cpu_ms)
    }

    /// One round of `n` ops: the medians of their wall and CPU times.
    /// With `all`, every op's wall time in ns is kept as well.
    fn round(&mut self, n: usize, staged: bool, mut all: Option<&mut Vec<u32>>) -> (f64, f64) {
        let (mut wall, mut cpu) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let (w, c) = self.op(staged);
            wall.push(w);
            cpu.push(c);
            if let Some(all) = all.as_deref_mut() {
                all.push((w * 1e6) as u32);
            }
        }
        (median(&wall), median(&cpu))
    }
}

fn per(total: u64, ops: u64) -> f64 {
    total as f64 / ops.max(1) as f64
}

pub fn run(args: &Args) -> Result<Record, String> {
    if !spec::WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    let scratch = match &args.dir {
        Some(d) => {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
            ScratchDir(d.clone())
        }
        None => scratch_dir(&format!("{}-{}", args.workload, args.seed)),
    };

    // Set-up, several times over; the last one is measured on. What is
    // reported is the sum of each phase's fastest time.
    let mut fastest: Vec<f64> = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    for k in 0..if args.quick { 1 } else { SETUPS } {
        drop(built.take());
        if k > 0 {
            let _ = std::fs::remove_dir_all(scratch.path().join(format!("setup-{}", k - 1)));
        }
        let dir = scratch.path().join(format!("setup-{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut laps = Laps::start();
        built = Some(workloads::build(
            &args.workload,
            &dir,
            args.seed,
            args.trace,
            &mut laps,
        )?);
        fastest.resize(laps.secs.len(), f64::MAX);
        for (best, lap) in fastest.iter_mut().zip(&laps.secs) {
            *best = best.min(*lap);
        }
    }
    measure(
        args,
        built.expect("at least one set-up"),
        fastest.iter().sum(),
        &scratch,
    )
}

/// Warm up, measure and report on a workload that is already set up.
fn measure(
    args: &Args,
    workload: Box<dyn Workload>,
    setup_s: f64,
    scratch: &ScratchDir,
) -> Result<Record, String> {
    let mut meter = Meter {
        workload,
        attempted: 0,
        failed: 0,
        layered_ns: 0,
    };
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    let warmup = workloads::warmup_ops(&args.workload);
    for _ in 0..if args.quick { warmup.min(2) } else { warmup } {
        meter.op(false);
    }

    // Measured rounds of a few ops each, until the time is up. A traced
    // run alternates untraced and staged rounds, so both see the same
    // drift. Per round only the medians are kept, and every untraced
    // op's time in 4 bytes, so that memory does not follow op count.
    let exact_after = workloads::exact_ops(&args.workload);
    let round_ops = workloads::round_ops(&args.workload);
    let base = meter.workload.counts();
    let mut exact: Option<(EvalStats, u64)> = None;
    let (mut wall_ms, mut cpu_ms, mut staged_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_ns: Vec<u32> = Vec::new();
    let mut staged_cache = CacheStats::default();
    let mut untraced_s = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        if args.trace && staged_ms.len() < wall_ms.len() {
            let cache0 = aql_store::stats::global();
            span::set_enabled(true);
            staged_ms.push(meter.round(round_ops, true, None).0);
            span::set_enabled(false);
            let d = aql_store::stats::global().delta_since(&cache0);
            staged_cache.hits += d.hits;
            staged_cache.misses += d.misses;
            continue;
        }
        let round_start = Instant::now();
        let before = all_ns.len() as u64;
        let (w, c) = meter.round(round_ops, false, Some(&mut all_ns));
        untraced_s += round_start.elapsed().as_secs_f64();
        wall_ms.push(w);
        cpu_ms.push(c);
        // The first round boundary at or past `exact_after`: the same
        // op on every run.
        if before < exact_after && all_ns.len() as u64 >= exact_after {
            exact = Some((meter.workload.counts(), all_ns.len() as u64));
        }
    }

    let ops = all_ns.len() as u64;
    let staged_ops = (staged_ms.len() * round_ops) as u64;
    let (counts, exact_n) = exact.unwrap_or_else(|| (meter.workload.counts(), ops));
    let c = delta(&counts, &base);
    all_ns.sort_unstable();
    let op_ms = quietest(&wall_ms);
    let op_mean_ms = all_ns.iter().map(|&ns| ns as f64).sum::<f64>() / ops as f64 / 1e6;
    let ms = |ns: u32| ns as f64 / 1e6;

    // End-to-end metrics come from untraced runs only.
    if !args.trace {
        m.push(("op_ms", op_ms));
        m.push(("cpu_ms_per_op", quietest(&cpu_ms)));
        m.push(("setup_s", setup_s));
    }
    m.push(("bench.samples", ops as f64));
    m.push(("bench.rounds", wall_ms.len() as f64));
    m.push(("bench.ops_per_s", ops as f64 / untraced_s));
    m.push(("bench.op_p50_ms", ms(quantile_sorted(&all_ns, 0.5))));
    m.push((
        "bench.op_p95_ms",
        supported_quantile(&all_ns, 0.95).map_or(0.0, ms),
    ));
    m.push((
        "bench.op_p99_ms",
        supported_quantile(&all_ns, 0.99).map_or(0.0, ms),
    ));
    m.push(("bench.round_spread", round_spread(&wall_ms)));
    m.push(("read_bytes_per_op", per(c.cache.bytes_read, exact_n)));
    m.push(("eval.steps_per_op", per(c.steps, exact_n)));
    m.push(("eval.subscripts_per_op", per(c.subscripts, exact_n)));
    m.push(("eval.elided_per_op", per(c.elided, exact_n)));
    m.push(("eval.materialized_per_op", per(c.materialized, exact_n)));
    m.push(("store.hits_per_op", per(c.cache.hits, exact_n)));
    m.push(("store.misses_per_op", per(c.cache.misses, exact_n)));
    m.push(("store.evictions_per_op", per(c.cache.evictions, exact_n)));
    m.push(("store.hit_rate", c.cache.hit_rate().unwrap_or(0.0)));
    m.push((
        "store.load_errors_per_op",
        per(c.cache.load_errors, exact_n),
    ));
    if c.cache.bytes_read > 0 {
        m.push((
            "store.useful_bytes_ratio",
            c.subscripts as f64 * 8.0 / c.cache.bytes_read as f64,
        ));
    }
    m.push((
        "store.governor_peak_bytes",
        aql_store::governor::peak_bytes() as f64,
    ));
    m.extend(meter.workload.extras(staged_ops)?);

    if args.trace {
        m.push(("bench.untraced_op_ms", op_ms));
        let costs = probes::run(scratch.path(), args.seed, &mut m)?;
        let steps_per_op = per(c.steps, exact_n);
        layer_metrics(
            meter.workload.as_mut(),
            Staged {
                ops: staged_ops,
                op_ms: quietest(&staged_ms),
                layered_ns: meter.layered_ns,
                cache: staged_cache,
            },
            Untraced {
                op_ms,
                mean_ms: op_mean_ms,
                steps_per_op,
            },
            &costs,
            &mut m,
        )?;
        let trace = span::to_json(&args.workload, args.seed);
        let path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, trace.write()).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // Drop the sessions (and join their prefetch workers) before the
    // readings that close the run.
    let Meter {
        workload,
        attempted,
        failed,
        ..
    } = meter;
    drop(workload);
    m.push(("fail_ratio", failed as f64 / attempted as f64));
    if !args.trace {
        m.push(("peak_rss_mb", peak_rss_mb()));
    }

    let record = Record {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted,
        failed,
        metrics: m,
    };
    if let Some(out) = &args.out {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        writeln!(f, "{}", record.full_line()).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(record)
}

fn delta(now: &EvalStats, base: &EvalStats) -> EvalStats {
    EvalStats {
        steps: now.steps - base.steps,
        subscripts: now.subscripts - base.subscripts,
        elided: now.elided - base.elided,
        materialized: now.materialized - base.materialized,
        cache: now.cache.delta_since(&base.cache),
    }
}

/// What the staged halves of a traced run recorded.
struct Staged {
    ops: u64,
    op_ms: f64,
    /// Self time of every span below the op roots.
    layered_ns: u64,
    /// Cache hits and misses during staged ops.
    cache: CacheStats,
}

/// The same run's untraced halves, the base of ratios and shares.
struct Untraced {
    op_ms: f64,
    mean_ms: f64,
    steps_per_op: f64,
}

/// The per-layer metrics of a traced run, from the spans, the probes'
/// unit costs and the front-end profile.
fn layer_metrics(
    workload: &mut dyn Workload,
    staged: Staged,
    untraced: Untraced,
    costs: &StoreCosts,
    m: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let ops = staged.ops.max(1) as f64;
    let statements = span::total("session.stmt").count.max(1) as f64;
    let us_per_stmt = |name: &str| span::total(name).self_ns as f64 / 1e3 / statements;
    let op_ns = untraced.mean_ms * 1e6;

    m.push(("bench.staged_op_ms", staged.op_ms));
    m.push(("bench.staged_ops", staged.ops as f64));
    m.push(("bench.statements_per_op", statements / ops));
    m.push(("bench.trace_overhead_ratio", staged.op_ms / untraced.op_ms));
    m.push((
        "bench.span_coverage",
        staged.layered_ns as f64 / ops / op_ns,
    ));

    // The front end, from the profile (counts, lexer, analyzer) and
    // from the spans (everything on the statement's path).
    let profiles = workload.profile()?;
    let sum = |f: &dyn Fn(&crate::sess::StmtProfile) -> f64| profiles.iter().map(f).sum::<f64>();
    let profiled = sum(&|p| p.statements as f64).max(1.0);
    let lex_us = sum(&|p| p.lex_us) / profiled;
    m.push(("lang.lex_us_per_stmt", lex_us));
    m.push((
        "lang.parse_us_per_stmt",
        (us_per_stmt("lang.parse") - lex_us).max(0.0),
    ));
    m.push(("lang.desugar_us_per_stmt", us_per_stmt("lang.desugar")));
    m.push(("lang.resolve_us_per_stmt", us_per_stmt("lang.resolve")));
    m.push(("lang.tokens_per_stmt", sum(&|p| p.tokens as f64) / profiled));
    m.push((
        "lang.core_nodes_per_stmt",
        sum(&|p| p.core_nodes as f64) / profiled,
    ));
    m.push((
        "check.typecheck_us_per_stmt",
        us_per_stmt("check.typecheck"),
    ));
    m.push(("opt.optimize_us_per_stmt", us_per_stmt("opt.optimize")));
    m.push((
        "opt.rule_fires_per_stmt",
        sum(&|p| p.rule_fires as f64) / profiled,
    ));
    m.push((
        "opt.nodes_out_per_stmt",
        sum(&|p| p.nodes_out as f64) / profiled,
    ));
    m.push((
        "analysis.analyze_us_per_stmt",
        sum(&|p| p.analyze_us) / profiled,
    ));
    let subscripts = sum(&|p| p.subscripts as f64);
    if subscripts > 0.0 {
        m.push((
            "analysis.inbounds_share",
            sum(&|p| p.in_bounds as f64) / subscripts,
        ));
    }

    // Chunk loads, at the boundary the cache calls.
    let nc = span::total("netcdf.read_chunk");
    m.push((
        "netcdf.chunk_load_us",
        nc.total_ns as f64 / 1e3 / nc.count.max(1) as f64,
    ));
    m.push(("netcdf.loads_per_op", nc.count as f64 / ops));

    // Cache work happens inside a hit or a miss and cannot be timed
    // from outside: it is *computed* from the staged ops' own counts
    // and the probes' unit costs, then taken out of the span it ran
    // under — `read_slab` streaming under the AQF writer, everything
    // else under the evaluator.
    let slab_cells = workload.slab_cells_per_op() as f64;
    let slab_ns = slab_cells * costs.slab_ns_per_cell;
    let hits = (staged.cache.hits as f64 / ops - slab_cells).max(0.0);
    let misses = staged.cache.misses as f64 / ops;
    let lookup_ns = hits * costs.hit_ns + misses * costs.miss_overhead_ns;
    let layer_ns = |layer: &str| span::layer_self_ns(layer) as f64 / ops;
    let eval_ns = (layer_ns("eval") - lookup_ns).max(0.0);
    let format_ns = (layer_ns("format") - slab_ns).max(0.0);
    m.push(("eval.self_us_per_op", eval_ns / 1e3));
    if untraced.steps_per_op > 0.0 {
        m.push(("eval.ns_per_step", eval_ns / untraced.steps_per_op));
    }

    // The session's share is what it was timed doing (start-up,
    // registration, macro definitions, binding) plus the residue: the
    // untraced op less everything the staged spans explain. The four
    // telemetry crates have no public call on the query path and so
    // appear only here.
    let residue_ns = (op_ns - staged.layered_ns as f64 / ops).max(0.0);
    m.push((
        "session.overhead_us_per_stmt",
        residue_ns / 1e3 / (statements / ops),
    ));
    m.push(("share.lang", layer_ns("lang") / op_ns));
    m.push(("share.check", layer_ns("check") / op_ns));
    m.push(("share.opt", layer_ns("opt") / op_ns));
    m.push(("share.eval", eval_ns / op_ns));
    m.push(("share.store", (lookup_ns + slab_ns) / op_ns));
    m.push(("share.netcdf", layer_ns("netcdf") / op_ns));
    m.push(("share.format", format_ns / op_ns));
    m.push(("share.session", (layer_ns("session") + residue_ns) / op_ns));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, trace: bool) -> Record {
        let args = Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 1.0,
            trace,
            dir: Some(out_dir().join(format!("test-{workload}-{}", trace as u8))),
            quick: true,
            out: None,
        };
        run(&args).expect("the run completes")
    }

    #[test]
    fn smoke_every_workload_is_correct() {
        for w in &spec::WORKLOADS {
            let r = quick(w.name, false);
            assert!(r.table().contains("correct: true"), "{}", r.table());
            assert!(r.attempted > 0 && r.failed == 0);
            for metric in &spec::END_TO_END {
                assert!(
                    r.get(metric.name).is_some_and(|v| v > 0.0),
                    "{} {}",
                    w.name,
                    metric.name
                );
            }
            let j = Json::parse(&r.result_line()).expect("valid JSON");
            let Json::Obj(members) = &j else {
                panic!("not an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = j.get("metrics") else {
                panic!("no metrics")
            };
            assert_eq!(metrics.len(), spec::END_TO_END.len());
        }
    }

    #[test]
    fn a_broken_reference_fails_the_run() {
        let scratch = scratch_dir("broken-reference");
        let mut w = workloads::WarmScan::setup(scratch.path(), 3, false, &mut Laps::start())
            .expect("set-up");
        w.break_reference();
        let args = Args {
            workload: "warm_scan".to_string(),
            seed: 3,
            seconds: 0.2,
            trace: false,
            dir: None,
            quick: true,
            out: None,
        };
        let r = measure(&args, Box::new(w), 0.01, &scratch).expect("the run completes");
        assert!(!r.correct());
        assert_eq!(r.get("fail_ratio"), Some(1.0));
        assert!(r.table().contains("correct: false"), "{}", r.table());
        assert!(
            r.result_line().starts_with("{\"correct\":false,"),
            "{}",
            r.result_line()
        );
    }

    #[test]
    fn traced_run_reports_every_layer_metric_it_names() {
        let r = quick("paper_session", true);
        assert!(r.correct(), "{}", r.table());
        for (name, _) in &r.metrics {
            assert!(spec::metric(name).is_some(), "`{name}` is in no table");
        }
        let j = Json::parse(&r.result_line()).expect("valid JSON");
        let Some(Json::Obj(metrics)) = j.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), spec::CHECKED.len() + spec::LAYER.len());
        // Every layer the paper's session goes through was seen.
        for share in [
            "share.lang",
            "share.check",
            "share.opt",
            "share.eval",
            "share.netcdf",
        ] {
            assert!(r.get(share).is_some_and(|v| v > 0.0), "{share}");
        }
    }
}
