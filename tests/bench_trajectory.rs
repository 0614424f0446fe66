//! `BENCH_trajectory.json` — the committed parent/change record
//! (EXPERIMENTS.md, "Bench artifact schema") — parses, and speaks only
//! in names `BENCHMARK.json` declares.

use aql::trace::json::Json;

fn load(name: &str) -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn names(spec: &Json, list: &str) -> Vec<String> {
    let items = spec.get(list).and_then(Json::as_arr).unwrap_or_else(|| panic!("no `{list}`"));
    items.iter().map(|i| i.get("name").and_then(Json::as_str).expect("name").to_string()).collect()
}

#[test]
fn every_row_names_a_declared_workload_and_end_to_end_metric() {
    let spec = load("BENCHMARK.json");
    let (workloads, metrics) = (names(&spec, "workloads"), names(&spec, "end_to_end"));
    let trajectory = load("BENCH_trajectory.json");
    assert_eq!(trajectory.get("schema_version").and_then(Json::as_u64), Some(1));
    let mut last_pr = 0.0;
    for row in trajectory.get("rows").and_then(Json::as_arr).expect("rows") {
        let field = |k: &str| row.get(k).unwrap_or_else(|| panic!("no `{k}`: {row:?}"));
        let text = |k: &str| field(k).as_str().unwrap_or_else(|| panic!("`{k}`: {row:?}"));
        let num = |k: &str| field(k).as_f64().unwrap_or_else(|| panic!("`{k}`: {row:?}"));
        assert!(workloads.iter().any(|w| w == text("workload")), "unknown workload: {row:?}");
        assert!(metrics.iter().any(|m| m == text("metric")), "not an end-to-end metric: {row:?}");
        assert!(["parent", "change"].contains(&text("side")) && !text("commit").is_empty());
        assert!(num("q1") <= num("median") && num("median") <= num("q3"), "quartiles: {row:?}");
        assert!(!field("seeds").as_arr().expect("seeds").is_empty());
        let won = row.get("pairs_won").and_then(Json::as_f64);
        assert_eq!(won.is_some(), text("side") == "change", "pairs_won is the change's: {row:?}");
        assert!(won.unwrap_or(0.0) <= num("pairs"), "{row:?}");
        assert!(num("pr") >= last_pr, "rows are appended in PR order: {row:?}");
        last_pr = num("pr");
    }
}
