//! The benchmark's tables: workloads and metrics by name, unit,
//! direction and bound. The runner, `compare` and `BENCHMARK.json`
//! (`aql-benchmark describe`) are all generated from these.

/// Seconds one run measures for, in `BENCHMARK.json` and by default.
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One sentence: why this workload is in the benchmark.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "warm_scan",
        why: "Four statements over one cache-resident 5,000-cell window of temp.nc: all cache hits, no bytes read, so the evaluator is the op.",
    },
    WorkloadSpec {
        name: "cold_probe",
        why: "One subscript at a uniform index of an 18 MB grid behind the default 4 MiB cache: 3 of 4 ops load a NetCDF chunk and evict one.",
    },
    WorkloadSpec {
        name: "compile_mix",
        why: "Eight small statement templates (E3, E5, E6, E8 text, nearest, upd, macro, val) in seeded order: lexing to optimizing is the op.",
    },
    WorkloadSpec {
        name: "paper_session",
        why: "Fresh session, the paper's 4.2 sunset session verbatim, then the 1 heat-index query: every layer contributes, as for a user.",
    },
    WorkloadSpec {
        name: "spill_reopen",
        why: "writeval a lazy temp quarter and an eager okta array to AQF, reopen, probe and reduce: the write side of the store layer.",
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may get worse
    /// before `compare` calls it a regression; `None` is ungated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// End-to-end metrics every workload reports, never 0: these are the
/// `end_to_end` list of `BENCHMARK.json` and the whole result line of
/// an untraced run. (`correct` and `fail_ratio` travel in that line's
/// `correct`, `attempted` and `failed` members.)
pub const END_TO_END: [Metric; 4] = [
    gated("op_ms", "ms", 0.25),
    gated("cpu_ms_per_op", "ms", 0.25),
    gated("peak_rss_mb", "MB", 0.10),
    gated("setup_s", "s", 0.25),
];

/// End-to-end metrics that are 0 on some workloads or exact for a
/// seed: `compare` gates them, `BENCHMARK.json` lists them per layer.
pub const CHECKED: [Metric; 3] = [
    gated("read_bytes_per_op", "B", 0.01),
    gated("stored_bytes_ratio", "ratio", 0.01),
    // Any increase is a regression.
    gated("fail_ratio", "ratio", 0.0),
];

/// `read_bytes_per_op` is not exact where a prefetch worker races the
/// op for chunks, which is the case on `spill_reopen` only.
pub fn bound_on(metric: &Metric, workload: &str) -> Option<f64> {
    if metric.name == "read_bytes_per_op" && workload == "spill_reopen" {
        return Some(0.10);
    }
    metric.bound
}

/// Per-layer metrics; a layer is a crate or module. On a workload
/// where a layer does no such work the value is 0.
pub const LAYER: [Metric; 71] = [
    lower("lang.lex_us_per_stmt", "us"),
    lower("lang.parse_us_per_stmt", "us"),
    lower("lang.desugar_us_per_stmt", "us"),
    lower("lang.resolve_us_per_stmt", "us"),
    lower("lang.tokens_per_stmt", "count"),
    lower("lang.core_nodes_per_stmt", "count"),
    lower("check.typecheck_us_per_stmt", "us"),
    lower("opt.optimize_us_per_stmt", "us"),
    higher("opt.rule_fires_per_stmt", "count"),
    lower("opt.nodes_out_per_stmt", "count"),
    higher("opt.off_on_ratio", "ratio"),
    lower("analysis.analyze_us_per_stmt", "us"),
    higher("analysis.inbounds_share", "ratio"),
    lower("eval.self_us_per_op", "us"),
    lower("eval.steps_per_op", "count"),
    lower("eval.subscripts_per_op", "count"),
    higher("eval.elided_per_op", "count"),
    lower("eval.materialized_per_op", "count"),
    lower("eval.ns_per_step", "ns"),
    lower("eval.reduce_ns_per_cell", "ns"),
    lower("eval.map_ns_per_cell", "ns"),
    lower("eval.zip_ns_per_cell", "ns"),
    higher("store.hits_per_op", "count"),
    lower("store.misses_per_op", "count"),
    lower("store.evictions_per_op", "count"),
    higher("store.hit_rate", "ratio"),
    lower("store.load_errors_per_op", "count"),
    higher("store.useful_bytes_ratio", "ratio"),
    lower("store.governor_peak_bytes", "B"),
    lower("store.hit_ns", "ns"),
    lower("store.miss_us", "us"),
    higher("store.read_slab_mb_s", "MB/s"),
    lower("netcdf.chunk_load_us", "us"),
    lower("netcdf.loads_per_op", "count"),
    lower("netcdf.bind_us", "us"),
    lower("netcdf.open_us", "us"),
    higher("netcdf.hyperslab_mb_s", "MB/s"),
    higher("format.write_array_mb_s", "MB/s"),
    lower("format.open_us", "us"),
    lower("format.chunk_load_us", "us"),
    higher("format.encode_mb_s.raw", "MB/s"),
    higher("format.encode_mb_s.bitpack", "MB/s"),
    higher("format.encode_mb_s.for", "MB/s"),
    higher("format.decode_mb_s.raw", "MB/s"),
    higher("format.decode_mb_s.bitpack", "MB/s"),
    higher("format.decode_mb_s.for", "MB/s"),
    lower("format.stored_ratio.temp", "ratio"),
    lower("format.stored_ratio.cloud", "ratio"),
    lower("session.new_us", "us"),
    lower("session.overhead_us_per_stmt", "us"),
    lower("share.lang", "ratio"),
    lower("share.check", "ratio"),
    lower("share.opt", "ratio"),
    lower("share.eval", "ratio"),
    lower("share.store", "ratio"),
    lower("share.netcdf", "ratio"),
    lower("share.format", "ratio"),
    lower("share.session", "ratio"),
    higher("bench.samples", "count"),
    higher("bench.rounds", "count"),
    higher("bench.ops_per_s", "1/s"),
    lower("bench.op_p50_ms", "ms"),
    lower("bench.op_p95_ms", "ms"),
    lower("bench.op_p99_ms", "ms"),
    lower("bench.round_spread", "ratio"),
    lower("bench.trace_overhead_ratio", "ratio"),
    higher("bench.span_coverage", "ratio"),
    // The untraced end-to-end timings of the traced run's own
    // untraced blocks, the base of its ratios and shares.
    lower("bench.untraced_op_ms", "ms"),
    lower("bench.staged_op_ms", "ms"),
    lower("bench.staged_ops", "count"),
    lower("bench.statements_per_op", "count"),
];

/// Every metric of every table, in reporting order.
pub fn all_metrics() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(CHECKED.iter()).chain(LAYER.iter())
}

#[cfg(test)]
pub fn metric(name: &str) -> Option<&'static Metric> {
    all_metrics().find(|m| m.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn describe() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("every end-to-end metric is gated")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = CHECKED
        .iter()
        .chain(LAYER.iter())
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_trace::json::Json;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            describe(),
            "regenerate with `aql-benchmark describe`"
        );
    }

    #[test]
    fn description_meets_the_contract() {
        let text = describe();
        assert!(text.len() <= 64 * 1024);
        let j = Json::parse(&text).expect("valid JSON");
        let Json::Obj(members) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let mut names = Vec::new();
        for w in j
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
        {
            names.push(
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
            );
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert_eq!(names.len(), 5);
        let e2e = j
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert!(e2e
            .iter()
            .any(|m| m.get("name").and_then(Json::as_str) == Some("setup_s")));
        for m in e2e {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let layers = j
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert!(!layers.is_empty() && layers.len() <= 128);
        for m in e2e.iter().chain(layers) {
            names.push(
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(
                unit.len() <= 16
                    && unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
            );
            let better = m.get("better").and_then(Json::as_str).expect("better");
            assert!(better == "lower" || better == "higher");
        }
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }
}
