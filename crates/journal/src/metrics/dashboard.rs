//! The live ops dashboard: the `GET /stats.json` snapshot and the
//! zero-dependency HTML page `GET /` serves.
//!
//! `stats_json` distills the full registry [`snapshot`](super::snapshot)
//! into the handful of numbers an operator watches: statement latency
//! quantiles, statement/error totals, cache hit ratio, the governor's
//! peak residency and journal drops. Keys are stable — dashboards and
//! scrapers may depend on them (version 3 dropped a per-source array of
//! fail-fast counters with the store layer that kept them). The
//! statement *rate* is deliberately absent: it is a derivative, and the
//! page computes it client-side from successive `statements_total`
//! readings.
//!
//! The HTML page is a single self-contained document (inline CSS and
//! JS, no external assets, no frameworks) that polls `stats.json` every
//! two seconds and can fetch `profile?seconds=N` on demand.

use aql_trace::json::Json;

use super::http::{json_line, num, obj};

/// The flat snapshot as a key → value map lookup helper.
struct Snap(Vec<(String, u64)>);

impl Snap {
    fn get(&self, key: &str) -> u64 {
        self.0
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .map(|i| self.0[i].1)
            .unwrap_or(0)
    }
}

/// `part / whole` to four decimals (0 of an empty whole).
fn ratio(part: u64, whole: u64) -> Json {
    let r = if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    Json::Num((r * 1e4).round() / 1e4)
}

/// Build the `GET /stats.json` body. Stable keys; see module docs.
pub(crate) fn stats_json(uptime_s: u64) -> String {
    let snap = Snap(super::snapshot());
    let total = |family: &str| num(super::family_total(family));
    let hits = super::family_total("aql_store_cache_hits_total");
    let misses = super::family_total("aql_store_cache_misses_total");
    let latency = |q: &str| num(snap.get(&format!("aql_session_statement_ns_{q}")));
    json_line(obj(vec![
        ("schema_version", num(3)),
        ("uptime_s", num(uptime_s)),
        ("statements_total", total("aql_session_statements_total")),
        ("errors_total", total("aql_session_errors_total")),
        ("slow_queries_total", total("aql_session_slow_queries_total")),
        (
            "latency_ns",
            obj(["count", "sum", "p50", "p95", "p99"].map(|q| (q, latency(q))).to_vec()),
        ),
        (
            "cache",
            obj(vec![
                ("hits", num(hits)),
                ("misses", num(misses)),
                ("hit_ratio", ratio(hits, hits + misses)),
            ]),
        ),
        ("governor", obj(vec![("peak_bytes", num(snap.get("aql_store_governor_peak_bytes")))])),
        ("journal_dropped_total", total("aql_journal_dropped_total")),
    ]))
}

/// The dashboard page served at `GET /`. Self-contained: inline style
/// and script, polls `stats.json` every 2 s, renders the statement
/// rate from successive totals, and fetches `profile?seconds=N` into a
/// `<pre>` on demand.
pub(crate) const DASHBOARD_HTML: &str = r#"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>aql live dashboard</title>
<style>
  body { font: 14px/1.5 monospace; margin: 2em auto; max-width: 72em;
         color: #222; background: #fcfcf7; }
  h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.5em; }
  table { border-collapse: collapse; margin: 0.5em 0; }
  td, th { border: 1px solid #bbb; padding: 0.25em 0.75em; text-align: right; }
  th { background: #eee8d8; }
  td:first-child, th:first-child { text-align: left; }
  #err { color: #a00; }
  pre { background: #f4f0e4; padding: 0.75em; overflow-x: auto; }
  button { font: inherit; }
</style>
</head>
<body>
<h1>aql live dashboard</h1>
<p>uptime <span id="uptime">–</span> s · statements <span id="stmts">–</span>
 · <b><span id="rate">–</span>/s</b> · errors <span id="errs">–</span>
 · slow <span id="slow">–</span> · journal drops <span id="drops">–</span>
 <span id="err"></span></p>
<h2>statement latency</h2>
<table><tr><th>count</th><th>p50</th><th>p95</th><th>p99</th></tr>
<tr><td id="lc">–</td><td id="p50">–</td><td id="p95">–</td><td id="p99">–</td></tr></table>
<h2>chunk cache &amp; governor</h2>
<table><tr><th>cache hits</th><th>misses</th><th>hit ratio</th>
<th>governor peak</th></tr>
<tr><td id="hits">–</td><td id="misses">–</td><td id="ratio">–</td>
<td id="peak">–</td></tr></table>
<h2>profile</h2>
<p><button id="prof">last 1 s</button> of the flight recorder, folded into <code>stack ns</code> lines</p>
<pre id="folded">(press the button while queries run)</pre>
<p><a href="metrics">prometheus exposition</a> · <a href="healthz">healthz</a>
 · <a href="incidents">incidents</a></p>
<script>
"use strict";
var last = null;
function ns(v) {
  if (v >= 1e9) return (v / 1e9).toFixed(2) + " s";
  if (v >= 1e6) return (v / 1e6).toFixed(2) + " ms";
  if (v >= 1e3) return (v / 1e3).toFixed(1) + " µs";
  return v + " ns";
}
function put(id, text) { document.getElementById(id).textContent = text; }
function tick() {
  fetch("stats.json").then(function (r) { return r.json(); }).then(function (s) {
    put("err", "");
    put("uptime", s.uptime_s);
    put("stmts", s.statements_total);
    put("errs", s.errors_total);
    put("slow", s.slow_queries_total);
    put("drops", s.journal_dropped_total);
    var now = Date.now();
    if (last) {
      var dt = (now - last.t) / 1000;
      var d = s.statements_total - last.n;
      put("rate", dt > 0 ? (d / dt).toFixed(1) : "–");
    }
    last = { t: now, n: s.statements_total };
    put("lc", s.latency_ns.count);
    put("p50", ns(s.latency_ns.p50));
    put("p95", ns(s.latency_ns.p95));
    put("p99", ns(s.latency_ns.p99));
    put("hits", s.cache.hits);
    put("misses", s.cache.misses);
    put("ratio", (100 * s.cache.hit_ratio).toFixed(1) + "%");
    put("peak", s.governor.peak_bytes + " B");
  }).catch(function (e) { put("err", " — " + e); });
}
document.getElementById("prof").addEventListener("click", function () {
  fetch("profile?seconds=1").then(function (r) { return r.text(); })
    .then(function (t) { put("folded", t.trim() || "(no statement ended in the last second)"); })
    .catch(function (e) { put("folded", "error: " + e); });
});
tick();
setInterval(tick, 2000);
</script>
</body>
</html>
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_has_stable_keys_and_balances() {
        let body = stats_json(7);
        for key in [
            "\"schema_version\":3",
            "\"uptime_s\":7",
            "\"statements_total\":",
            "\"errors_total\":",
            "\"slow_queries_total\":",
            "\"latency_ns\":{\"count\":",
            "\"p50\":",
            "\"p95\":",
            "\"p99\":",
            "\"cache\":{\"hits\":",
            "\"hit_ratio\":",
            "\"governor\":{\"peak_bytes\":",
            "\"journal_dropped_total\":",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
    }

    #[test]
    fn ratios_are_defined_on_empty_registries() {
        assert_eq!(ratio(0, 0), Json::Num(0.0));
        assert_eq!(ratio(3, 4), Json::Num(0.75));
        assert_eq!(ratio(1, 3).write(), "0.3333");
    }

    #[test]
    fn dashboard_page_is_self_contained() {
        assert!(DASHBOARD_HTML.starts_with("<!doctype html>"));
        assert!(DASHBOARD_HTML.contains("stats.json"));
        assert!(DASHBOARD_HTML.contains("profile?seconds=1"));
        // No external asset references.
        assert!(!DASHBOARD_HTML.contains("http://"));
        assert!(!DASHBOARD_HTML.contains("https://"));
        assert!(!DASHBOARD_HTML.contains("src="));
    }
}
