//! The five workloads. Each builds its inputs from the seed, runs one
//! *op* at a time — untraced through `Session::run`, or staged with
//! spans — and checks every answer against a reference computed here
//! in plain Rust from the generator's vectors, never by AQL.

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use aql_core::eval::EvalStats;
use aql_core::value::ArrayVal;
use aql_core::Value;
use aql_format::AqfFile;
use aql_netcdf::format::VERSION_CLASSIC;
use aql_netcdf::{synth, write};
use aql_store::ScalarBuf;

use crate::gen::{self, Rng, GRID_DIMS, QUARTER_DIMS, TEMP_DIMS};
use crate::sess::{Sess, StmtProfile};

/// What one op took and whether every answer in it was right.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    pub wall_ns: u64,
    pub ok: bool,
}

pub trait Workload {
    /// Run the next op. The time covers the statements only, not the
    /// check of their answers.
    fn op(&mut self, staged: bool) -> OpResult;

    /// Evaluation and cache counters of every untraced op so far.
    fn counts(&self) -> EvalStats;

    /// Front-end facts about each distinct program of an op.
    fn profile(&mut self) -> Result<Vec<StmtProfile>, String>;

    /// Cells an op streams out of a lazy array through `read_slab`.
    fn slab_cells_per_op(&self) -> u64 {
        0
    }

    /// Layer metrics only this workload can measure, as `(name, value)`.
    fn extras(&mut self, _staged_ops: u64) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

/// Ops run untimed before measuring; a count, not a time, so the cache
/// state at the first measured op is the same on every run of a seed.
pub fn warmup_ops(workload: &str) -> u64 {
    match workload {
        "cold_probe" => 2048,
        "compile_mix" => 64,
        "paper_session" => 16,
        "spill_reopen" => 4,
        _ => 8,
    }
}

/// Consecutive ops that make one round: about 10 ms of work, and
/// enough ops that a round's median is the typical op (on `cold_probe`
/// one op in four is a cache hit, 15× cheaper than the rest).
pub fn round_ops(workload: &str) -> usize {
    match workload {
        "cold_probe" => 64,
        "compile_mix" => 6,
        "paper_session" => 2,
        _ => 1,
    }
}

/// The exact counts are taken over this many measured ops, so they do
/// not depend on how many ops a run's time happened to fit.
pub fn exact_ops(workload: &str) -> u64 {
    match workload {
        "cold_probe" => 8192,
        "compile_mix" => 128,
        "paper_session" => 64,
        "spill_reopen" => 8,
        _ => 32,
    }
}

/// Times the phases of a set-up (inputs, binding, pre-touch), each a
/// few milliseconds, so the runner can take each phase's fastest time:
/// a whole set-up is too long to fall inside one quiet moment.
pub struct Laps {
    last: Instant,
    pub secs: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            secs: Vec::new(),
        }
    }

    /// End the current phase.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.secs.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

pub fn build(
    workload: &str,
    dir: &Path,
    seed: u64,
    timed_io: bool,
    laps: &mut Laps,
) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "warm_scan" => Box::new(WarmScan::setup(dir, seed, timed_io, laps)?),
        "cold_probe" => Box::new(ColdProbe::setup(dir, seed, timed_io, laps)?),
        "compile_mix" => Box::new(CompileMix::setup(seed, timed_io, laps)?),
        "paper_session" => Box::new(PaperSession::setup(dir, timed_io, laps)?),
        "spill_reopen" => Box::new(SpillReopen::setup(dir, seed, timed_io, laps)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

// ---- checking ---------------------------------------------------------

/// Sums compare to 1e-9 relative; everything else must be equal.
fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}

fn is_real(v: &Option<Value>, want: f64) -> bool {
    matches!(v, Some(Value::Real(x)) if close(*x, want))
}

fn is_reals(v: &Option<Value>, want: &[f64]) -> bool {
    let Some(Value::Array(a)) = v else {
        return false;
    };
    let data = a.data();
    data.len() == want.len()
        && data
            .iter()
            .zip(want)
            .all(|(g, w)| matches!(g, Value::Real(x) if close(*x, *w)))
}

fn is_pairs(v: &Option<Value>, want: &[(f64, f64)]) -> bool {
    let Some(Value::Array(a)) = v else {
        return false;
    };
    let data = a.data();
    data.len() == want.len()
        && data
            .iter()
            .zip(want)
            .all(|(g, (wa, wb))| match g.as_tuple() {
                Ok([Value::Real(a), Value::Real(b)]) => a == wa && b == wb,
                _ => false,
            })
}

fn nat_set(items: &[u64]) -> Option<Value> {
    Some(Value::set(items.iter().map(|&n| Value::Nat(n)).collect()))
}

/// Row-major offset in a `[_, 5, 5]` array.
fn at(t: u64, i: u64, j: u64) -> usize {
    ((t * 5 + i) * 5 + j) as usize
}

/// `Σ` over a 200×5×5 window of a lazy or eager 3-d array.
fn window_sum_query(array: &str, t0: u64) -> String {
    format!(
        "summap(fn \\t => summap(fn \\i => summap(fn \\j => {array}[{t0} + t, i, j])\
         !(gen!5))!(gen!5))!(gen!200);"
    )
}

fn write_temp_nc(dir: &Path) -> Result<(PathBuf, Vec<f64>), String> {
    let (file, temp) = gen::temp_dataset()?;
    let path = dir.join("temp.nc");
    write::write_file(&file, &path, VERSION_CLASSIC).map_err(|e| e.to_string())?;
    Ok((path, temp))
}

fn profile_all(sess: &mut Sess, programs: &[String]) -> Result<Vec<StmtProfile>, String> {
    programs.iter().map(|p| sess.profile(p)).collect()
}

/// The value of each program's last statement, or `None` if any
/// program failed; the first few failures are reported on stderr.
fn values_of(results: Vec<Result<Option<Value>, String>>) -> Option<Vec<Option<Value>>> {
    static REPORTED: AtomicU32 = AtomicU32::new(0);
    let values: Result<Vec<_>, String> = results.into_iter().collect();
    if let Err(e) = &values {
        if REPORTED.fetch_add(1, Ordering::Relaxed) < 3 {
            eprintln!("aql-benchmark: a statement failed: {e}");
        }
    }
    values.ok()
}

/// Run `programs` in order, timing all of them together.
fn timed_runs(
    sess: &mut Sess,
    programs: &[String],
    staged: bool,
) -> (u64, Option<Vec<Option<Value>>>) {
    let t0 = Instant::now();
    let results = programs.iter().map(|p| sess.run(p, staged)).collect();
    (t0.elapsed().as_nanos() as u64, values_of(results))
}

// ---- warm_scan --------------------------------------------------------

/// Four statements over one resident 200×5×5 window of `temp`.
pub struct WarmScan {
    sess: Sess,
    programs: Vec<String>,
    want_max: f64,
    want_sum: f64,
    want_map: Vec<f64>,
    want_zip: Vec<(f64, f64)>,
    /// Staged `eval` time of each program, summed over staged ops.
    eval_ns: [u64; 4],
}

const WINDOW_CELLS: f64 = 5000.0;

impl WarmScan {
    /// An off-by-one in one reference, for the test that a wrong
    /// answer fails the run.
    #[cfg(test)]
    pub fn break_reference(&mut self) {
        self.want_sum += 1.0;
    }

    pub fn setup(
        dir: &Path,
        seed: u64,
        timed_io: bool,
        laps: &mut Laps,
    ) -> Result<WarmScan, String> {
        let (path, temp) = write_temp_nc(dir)?;
        laps.lap();
        let mut rng = Rng::new(seed);
        let t0 = rng.below(TEMP_DIMS[0] - 200 + 1);
        // One zip window in each half of the year: they never share a
        // chunk, so the pre-touch loads the same number on every seed.
        let half = TEMP_DIMS[0] / 2;
        let za = rng.below(half - 2500 + 1);
        let zb = half + rng.below(half - 2500 + 1);
        let programs = vec![
            format!("max!{{ T[{t0} + t, i, j] | \\t <- gen!200, \\i <- gen!5, \\j <- gen!5 }};"),
            window_sum_query("T", t0),
            format!("[[ T[{t0} + t, i, j] * 1.8 + 32.0 | \\t < 200, \\i < 5, \\j < 5 ]];"),
            // Two 2,500-cell windows at the grid centre: 5,000 cells in.
            format!(
                "zip!([[ T[{za} + k, 2, 2] | \\k < 2500 ]], [[ T[{zb} + k, 2, 2] | \\k < 2500 ]]);"
            ),
        ];
        let window = &temp[at(t0, 0, 0)..at(t0 + 200, 0, 0)];
        let mut sess = Sess::new(timed_io);
        sess.run(
            &format!(
                "readval \\T using NETCDF3 at (\"{}\", \"temp\", (0, 0, 0), ({}, 4, 4));",
                path.display(),
                TEMP_DIMS[0] - 1
            ),
            false,
        )?;
        let mut w = WarmScan {
            sess,
            programs,
            want_max: window.iter().copied().fold(f64::MIN, f64::max),
            want_sum: window.iter().sum(),
            want_map: window.iter().map(|x| x * 1.8 + 32.0).collect(),
            want_zip: (0..2500)
                .map(|k| (temp[at(za + k, 2, 2)], temp[at(zb + k, 2, 2)]))
                .collect(),
            eval_ns: [0; 4],
        };
        laps.lap();
        // Pre-touch: after one pass every chunk the op reads is resident.
        if !w.op(false).ok {
            return Err("warm_scan: the pre-touch pass answered wrongly".into());
        }
        laps.lap();
        Ok(w)
    }
}

impl Workload for WarmScan {
    fn op(&mut self, staged: bool) -> OpResult {
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(4);
        for (k, p) in self.programs.iter().enumerate() {
            results.push(self.sess.run(p, staged));
            if staged {
                self.eval_ns[k] += self.sess.last_eval_ns;
            }
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let ok = values_of(results).is_some_and(|v| {
            is_real(&v[0], self.want_max)
                && is_real(&v[1], self.want_sum)
                && is_reals(&v[2], &self.want_map)
                && is_pairs(&v[3], &self.want_zip)
        });
        OpResult { wall_ns, ok }
    }

    fn counts(&self) -> EvalStats {
        self.sess.counts
    }

    fn profile(&mut self) -> Result<Vec<StmtProfile>, String> {
        profile_all(&mut self.sess, &self.programs)
    }

    fn extras(&mut self, staged_ops: u64) -> Result<Vec<(&'static str, f64)>, String> {
        if staged_ops == 0 {
            return Ok(Vec::new());
        }
        let per_cell = |ns: u64| ns as f64 / staged_ops as f64 / WINDOW_CELLS;
        Ok(vec![
            (
                "eval.reduce_ns_per_cell",
                per_cell(self.eval_ns[0] + self.eval_ns[1]) / 2.0,
            ),
            ("eval.map_ns_per_cell", per_cell(self.eval_ns[2])),
            ("eval.zip_ns_per_cell", per_cell(self.eval_ns[3])),
        ])
    }
}

// ---- cold_probe -------------------------------------------------------

/// One subscript at a uniform index of an array 4.3× its cache.
pub struct ColdProbe {
    sess: Sess,
    seed: u64,
    probes: Rng,
}

impl ColdProbe {
    fn setup(dir: &Path, seed: u64, timed_io: bool, laps: &mut Laps) -> Result<ColdProbe, String> {
        let path = dir.join("grid.nc");
        gen::write_grid(&path, seed, GRID_DIMS)?;
        laps.lap();
        let mut sess = Sess::new(timed_io);
        sess.run(
            &format!(
                "readval \\G using NETCDF3 at (\"{}\", \"G\", (0, 0, 0), ({}, {}, {}));",
                path.display(),
                GRID_DIMS[0] - 1,
                GRID_DIMS[1] - 1,
                GRID_DIMS[2] - 1
            ),
            false,
        )?;
        laps.lap();
        Ok(ColdProbe {
            sess,
            seed,
            probes: Rng::new(seed ^ 0x9206),
        })
    }
}

impl Workload for ColdProbe {
    fn op(&mut self, staged: bool) -> OpResult {
        let [t, i, j] = GRID_DIMS.map(|d| self.probes.below(d));
        let program = format!("G[{t}, {i}, {j}];");
        let (wall_ns, values) = timed_runs(&mut self.sess, &[program], staged);
        let want = gen::grid_value(self.seed, t, i, j);
        let ok = values.is_some_and(|v| matches!(v[0], Some(Value::Real(x)) if x == want));
        OpResult { wall_ns, ok }
    }

    fn counts(&self) -> EvalStats {
        self.sess.counts
    }

    fn profile(&mut self) -> Result<Vec<StmtProfile>, String> {
        profile_all(&mut self.sess, &["G[4380, 8, 8];".to_string()])
    }
}

// ---- compile_mix ------------------------------------------------------

/// The §1 heat-index query, verbatim.
const HEAT_QUERY: &str = "{d | \\d <- gen!30,
     \\WS' == evenpos!(proj_col!(WS, 0)),
     \\TRW == zip_3!(T, RH, WS'),
     \\A == subseq!(TRW, d*24, d*24+23),
     heatindex!(A) > threshold};";

fn heat_setup_program(june: &Path) -> String {
    let hours = synth::JUNE_HOURS as u64;
    let p = june.display();
    format!(
        "readval \\T using NETCDF1 at (\"{p}\", \"T\", 0, {});
         readval \\RH using NETCDF1 at (\"{p}\", \"RH\", 0, {});
         readval \\WS using NETCDF2 at (\"{p}\", \"WS\", (0, 0), ({}, {}));
         val \\threshold = 96.0;",
        hours - 1,
        hours - 1,
        2 * hours - 1,
        synth::WS_LEVELS - 1
    )
}

fn write_june_nc(dir: &Path) -> Result<PathBuf, String> {
    let path = dir.join("wx_june.nc");
    let file = synth::june_weather_file().map_err(|e| e.to_string())?;
    write::write_file(&file, &path, VERSION_CLASSIC).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Small statements whose cost is the front end, in seeded order.
pub struct CompileMix {
    sess: Sess,
    /// `(program, hand-written expected value)` in this seed's order.
    templates: Vec<(String, Option<Value>)>,
}

impl CompileMix {
    /// The templates over `A[i] = (7i+3) mod 101`, `B[i] = (13i+5) mod
    /// 97` (256 cells each), `M[i,j] = 16i+j` (16×16) and the latitude
    /// grid `C`. Every expected value is a literal worked out by hand.
    fn templates() -> Vec<(String, Option<Value>)> {
        let nat = Value::Nat;
        let pair = |a, b| Value::tuple(vec![nat(a), nat(b)]);
        vec![
            // E3: zip∘subseq fuses into one tabulation.
            (
                "subseq!(zip!(A, B), 10, 13);".into(),
                Some(Value::array1(vec![
                    pair(73, 38),
                    pair(80, 51),
                    pair(87, 64),
                    pair(94, 77),
                ])),
            ),
            // E5: β^p — a subscript of a tabulation never builds it.
            ("[[ i * i + 1 | \\i < 300 ]][17];".into(), Some(nat(290))),
            // E6: the derived transpose rule, twice.
            ("(transpose!(transpose!(M)))[3, 5];".into(), Some(nat(53))),
            // E8: the §1 query; its three days are the paper's answer.
            (HEAT_QUERY.into(), nat_set(&[10, 17, 25])),
            // 40.8 is nearest 40.70, the third latitude.
            ("nearest!(C, 40.8);".into(), Some(nat(2))),
            (
                "(upd!(A, 5, 999))[5] + (upd!(A, 5, 999))[6];".into(),
                Some(nat(999 + 45)),
            ),
            ("macro \\sq = fn \\x => x * x + 1;".into(), None),
            // 3+10+17+24+31+38+45+52+59+66.
            (
                "val \\k = summap(fn \\i => A[i])!(gen!10);".into(),
                Some(nat(345)),
            ),
        ]
    }

    fn setup(seed: u64, timed_io: bool, laps: &mut Laps) -> Result<CompileMix, String> {
        let mut sess = Sess::new(timed_io);
        let nats = |f: &dyn Fn(u64) -> u64, n: u64| (0..n).map(|i| Value::Nat(f(i))).collect();
        let array = |dims: Vec<u64>, data: Vec<Value>| -> Result<Value, String> {
            Ok(Value::Array(Rc::new(
                ArrayVal::new(dims, data).map_err(|e| e.to_string())?,
            )))
        };
        let reals = |xs: Vec<f64>| xs.into_iter().map(Value::Real).collect::<Vec<_>>();
        sess.bind("A", array(vec![256], nats(&|i| (7 * i + 3) % 101, 256))?)?;
        sess.bind("B", array(vec![256], nats(&|i| (13 * i + 5) % 97, 256))?)?;
        sess.bind("M", array(vec![16, 16], nats(&|i| i, 256))?)?;
        sess.bind("C", array(vec![5], reals(synth::LAT_GRID.to_vec()))?)?;
        // The June arrays of the heat query, in memory: this workload
        // is about the front end, so nothing in it touches a file.
        let hours = synth::JUNE_HOURS as u64;
        sess.bind("T", array(vec![hours], reals(synth::june_temp()))?)?;
        sess.bind("RH", array(vec![hours], reals(synth::june_rh()))?)?;
        sess.bind(
            "WS",
            array(
                vec![2 * hours, synth::WS_LEVELS as u64],
                reals(synth::june_ws()),
            )?,
        )?;
        sess.run("val \\threshold = 96.0;", false)?;
        let mut all = CompileMix::templates();
        let mut templates = Vec::with_capacity(all.len());
        for i in Rng::new(seed).permutation(all.len()) {
            templates.push(std::mem::take(&mut all[i]));
        }
        let mut w = CompileMix { sess, templates };
        laps.lap();
        if !w.op(false).ok {
            return Err("compile_mix: the first pass answered wrongly".into());
        }
        laps.lap();
        Ok(w)
    }
}

impl Workload for CompileMix {
    fn op(&mut self, staged: bool) -> OpResult {
        let t0 = Instant::now();
        let results = self
            .templates
            .iter()
            .map(|(p, _)| self.sess.run(p, staged))
            .collect();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let ok = values_of(results).is_some_and(|v| {
            v.iter()
                .zip(&self.templates)
                .all(|(got, (_, want))| got == want)
        });
        OpResult { wall_ns, ok }
    }

    fn counts(&self) -> EvalStats {
        self.sess.counts
    }

    fn profile(&mut self) -> Result<Vec<StmtProfile>, String> {
        let programs: Vec<String> = self.templates.iter().map(|(p, _)| p.clone()).collect();
        profile_all(&mut self.sess, &programs)
    }
}

// ---- paper_session ----------------------------------------------------

/// The §4.2 session, statement for statement; `{temp}` is the file.
const SUNSET_SESSION: &str = "val \\months = [[0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30]];
macro \\days_since_1_1 = fn (\\m, \\d, \\y) =>
    d + summap(fn \\i => months[i])!(gen!m) +
    (if m > 2 and y % 4 = 0 then 1 else 0);
val \\NYlat = 40.7; val \\NYlon = -74.0;
macro \\lat_index = fn \\x => 2; macro \\lon_index = fn \\x => 2;
readval \\T using NETCDF3 at
   (\"{temp}\", \"temp\",
    (days_since_1_1!(6, 1, 95) * 24, lat_index!(NYlat), lon_index!(NYlon)),
    (days_since_1_1!(6, 30, 95) * 24, lat_index!(NYlat), lon_index!(NYlon)));
{d | [(\\h, _, _) : \\t] <- T, \\d == h/24 + 1,
     h > june_sunset!(NYlat, NYlon, d), t > 85.0};";

/// A fresh session, the §4.2 sunset session, then the §1 query.
pub struct PaperSession {
    programs: Vec<String>,
    timed_io: bool,
    counts: EvalStats,
}

impl PaperSession {
    fn setup(dir: &Path, timed_io: bool, laps: &mut Laps) -> Result<PaperSession, String> {
        let (temp, _) = write_temp_nc(dir)?;
        laps.lap();
        let june = write_june_nc(dir)?;
        laps.lap();
        let programs = vec![
            SUNSET_SESSION.replace("{temp}", &temp.display().to_string()),
            format!("{}\n{HEAT_QUERY}", heat_setup_program(&june)),
        ];
        Ok(PaperSession {
            programs,
            timed_io,
            counts: EvalStats::default(),
        })
    }

    /// A session that has run both programs, so every name is bound.
    fn finished_session(&self) -> Result<Sess, String> {
        let mut sess = Sess::new(self.timed_io);
        for p in &self.programs {
            sess.run(p, false)?;
        }
        Ok(sess)
    }

    fn check(values: &[Option<Value>]) -> bool {
        values[0] == nat_set(&[25, 27, 28]) && values[1] == nat_set(&[10, 17, 25])
    }
}

impl Workload for PaperSession {
    fn op(&mut self, staged: bool) -> OpResult {
        let t0 = Instant::now();
        let mut sess = Sess::new(self.timed_io);
        let (_, values) = timed_runs(&mut sess, &self.programs, staged);
        let counts = sess.counts;
        drop(sess);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        self.counts = self.counts.merged(&counts);
        OpResult {
            wall_ns,
            ok: values.is_some_and(|v| PaperSession::check(&v)),
        }
    }

    fn counts(&self) -> EvalStats {
        self.counts
    }

    fn profile(&mut self) -> Result<Vec<StmtProfile>, String> {
        profile_all(&mut self.finished_session()?, &self.programs)
    }

    /// `opt.off_on_ratio`: the §5 claim, as the evaluation time of the
    /// §1 query without the optimizer over its time with it.
    fn extras(&mut self, _staged_ops: u64) -> Result<Vec<(&'static str, f64)>, String> {
        let mut sess = self.finished_session()?;
        let p = sess.profile(&self.programs[1])?;
        let (Some(resolved), Some(optimized)) = (p.resolved.last(), p.optimized.last()) else {
            return Err("paper_session: the heat query did not profile".into());
        };
        let time = |e| -> Result<f64, String> {
            let mut samples = Vec::new();
            for _ in 0..3 {
                let t0 = Instant::now();
                let v = sess.session.eval_expr_raw(e).map_err(|e| e.to_string())?;
                samples.push(t0.elapsed().as_secs_f64());
                if Some(v) != nat_set(&[10, 17, 25]) {
                    return Err("paper_session: the heat query answered wrongly".into());
                }
            }
            Ok(crate::stats::median(&samples))
        };
        let (off, on) = (time(resolved)?, time(optimized)?);
        Ok(vec![("opt.off_on_ratio", off / on)])
    }
}

// ---- spill_reopen -----------------------------------------------------

/// Spill a quarter of `temp` and the `cloud` array to AQF, reopen both,
/// probe and reduce the reopened arrays.
pub struct SpillReopen {
    sess: Sess,
    dir: PathBuf,
    temp: Vec<f64>,
    cloud: Vec<u64>,
    draws: Rng,
    ops: u64,
    /// Bytes of the files written, and of the arrays they hold.
    temp_file_bytes: u64,
    cloud_file_bytes: u64,
    raw_bytes_each: u64,
}

const QUARTER_CELLS: u64 = QUARTER_DIMS[0] * QUARTER_DIMS[1] * QUARTER_DIMS[2];

impl SpillReopen {
    fn setup(
        dir: &Path,
        seed: u64,
        timed_io: bool,
        laps: &mut Laps,
    ) -> Result<SpillReopen, String> {
        let (path, temp) = write_temp_nc(dir)?;
        laps.lap();
        let cloud = gen::cloud(seed);
        let mut sess = Sess::new(timed_io);
        for q in 0..4 {
            let lo = q * QUARTER_DIMS[0];
            sess.run(
                &format!(
                    "readval \\Q{q} using NETCDF3 at (\"{}\", \"temp\", ({lo}, 0, 0), ({}, 4, 4));
                     summap(fn \\t => Q{q}[t * 100, 0, 0])!(gen!22);",
                    path.display(),
                    lo + QUARTER_DIMS[0] - 1
                ),
                false,
            )?;
        }
        let arr = ArrayVal::new(
            QUARTER_DIMS.to_vec(),
            cloud.iter().map(|&o| Value::Nat(o)).collect(),
        )
        .map_err(|e| e.to_string())?;
        sess.bind("cloud", Value::Array(Rc::new(arr)))?;
        laps.lap();
        Ok(SpillReopen {
            sess,
            dir: dir.to_path_buf(),
            temp,
            cloud,
            draws: Rng::new(seed ^ 0x5B11),
            ops: 0,
            temp_file_bytes: 0,
            cloud_file_bytes: 0,
            raw_bytes_each: 0,
        })
    }

    /// Element-for-element equality of a written file with its source,
    /// read back through the format crate alone.
    fn file_holds(path: &Path, want: impl Fn(usize) -> f64) -> bool {
        let Ok(mut f) = AqfFile::open(path) else {
            return false;
        };
        let mut k = 0;
        for id in 0..f.layout().num_chunks() {
            let ok = match f.read_chunk_by_id(id) {
                Ok(ScalarBuf::F64(v)) => v.iter().enumerate().all(|(n, &x)| x == want(k + n)),
                Ok(ScalarBuf::I64(v)) => {
                    v.iter().enumerate().all(|(n, &x)| x as f64 == want(k + n))
                }
                _ => false,
            };
            if !ok {
                return false;
            }
            k += f.layout().chunk_len(id).unwrap_or(0) as usize;
        }
        k as u64 == QUARTER_CELLS
    }
}

impl Workload for SpillReopen {
    fn op(&mut self, staged: bool) -> OpResult {
        // The file written is never the one the last op left bound.
        let (q, c) = (self.ops % 4, self.ops % 2);
        self.ops += 1;
        let temp_path = self.dir.join(format!("temp-{q}.aqf"));
        let cloud_path = self.dir.join(format!("cloud-{c}.aqf"));
        let [pt, pi, pj] = QUARTER_DIMS.map(|d| self.draws.below(d));
        let w0 = self.draws.below(QUARTER_DIMS[0] - 200 + 1);
        let spill = |array: &str, bound: &str, path: &Path| {
            format!(
                "writeval {array} using AQF at \"{p}\";
                 readval \\{bound} using AQF at \"{p}\";
                 {bound}[{pt}, {pi}, {pj}];",
                p = path.display()
            )
        };
        let programs = [
            spill(&format!("Q{q}"), "RT", &temp_path),
            window_sum_query("RT", w0),
            spill("cloud", "RC", &cloud_path),
            window_sum_query("RC", w0),
        ];
        let (wall_ns, values) = timed_runs(&mut self.sess, &programs, staged);

        let quarter =
            &self.temp[at(q * QUARTER_DIMS[0], 0, 0)..at((q + 1) * QUARTER_DIMS[0], 0, 0)];
        let window = at(w0, 0, 0)..at(w0 + 200, 0, 0);
        let ok = values.is_some_and(|v| {
            is_real(&v[0], quarter[at(pt, pi, pj)])
                && is_real(&v[1], quarter[window.clone()].iter().sum())
                && v[2] == Some(Value::Nat(self.cloud[at(pt, pi, pj)]))
                && v[3] == Some(Value::Nat(self.cloud[window].iter().sum()))
        }) && SpillReopen::file_holds(&temp_path, |k| quarter[k])
            && SpillReopen::file_holds(&cloud_path, |k| self.cloud[k] as f64);
        let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        self.temp_file_bytes += size(&temp_path);
        self.cloud_file_bytes += size(&cloud_path);
        self.raw_bytes_each += QUARTER_CELLS * 8;
        OpResult { wall_ns, ok }
    }

    fn counts(&self) -> EvalStats {
        self.sess.counts
    }

    fn profile(&mut self) -> Result<Vec<StmtProfile>, String> {
        let p = self.dir.join("temp-0.aqf");
        let programs = [
            format!(
                "writeval Q0 using AQF at \"{p}\"; readval \\RT using AQF at \"{p}\"; RT[7, 2, 2];",
                p = p.display()
            ),
            window_sum_query("RT", 0),
        ];
        profile_all(&mut self.sess, &programs)
    }

    fn slab_cells_per_op(&self) -> u64 {
        QUARTER_CELLS
    }

    fn extras(&mut self, _staged_ops: u64) -> Result<Vec<(&'static str, f64)>, String> {
        let raw = self.raw_bytes_each.max(1) as f64;
        Ok(vec![
            (
                "format.stored_ratio.temp",
                self.temp_file_bytes as f64 / raw,
            ),
            (
                "format.stored_ratio.cloud",
                self.cloud_file_bytes as f64 / raw,
            ),
            (
                "stored_bytes_ratio",
                (self.temp_file_bytes + self.cloud_file_bytes) as f64 / (2.0 * raw),
            ),
        ])
    }
}
