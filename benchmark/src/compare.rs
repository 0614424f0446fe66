//! `compare <a.jsonl> <b.jsonl>`: the end-to-end metrics of two sets
//! of runs, side by side, with the verdict the benchmark's own bounds
//! give. Each file holds the `--out` records of untraced runs; several
//! records of one workload are reduced to their medians.

use std::collections::BTreeMap;

use aql_trace::json::Json;

use crate::spec::{self, Better};
use crate::stats::median;

/// metric name → values, per workload.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// A set of runs: per workload, each metric's values.
struct RunSet {
    runs: Runs,
    /// Workloads with an incorrect run.
    incorrect: Vec<String>,
}

fn parse(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet {
        runs: Runs::new(),
        incorrect: Vec::new(),
    };
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let j = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if j.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        if j.get("correct") != Some(&Json::Bool(true)) {
            set.incorrect.push(workload.to_string());
        }
        let Some(Json::Obj(metrics)) = j.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        let of = set.runs.entry(workload.to_string()).or_default();
        for (name, entry) in metrics {
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                of.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regression,
    /// The rounds of a run disagree by more than the bound, so a
    /// change of the bound's size cannot be told from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by <= 0.0 {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        worse_by / a.abs()
    }
}

fn judge(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if worsening(a, b, better) > bound {
        Verdict::Regression
    } else if bound > 0.0 && spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The report, and whether `b` regressed against `a`.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse(a_text)?, parse(b_text)?);
    let mut out = format!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "change", "bound"
    );
    let mut regressed = false;
    for w in &spec::WORKLOADS {
        let (Some(ma), Some(mb)) = (a.runs.get(w.name), b.runs.get(w.name)) else {
            continue;
        };
        let value = |m: &BTreeMap<String, Vec<f64>>, name: &str| m.get(name).map(|v| median(v));
        // Timings repeat only as well as a run's own rounds agree.
        let spread = value(ma, "bench.round_spread")
            .unwrap_or(0.0)
            .max(value(mb, "bench.round_spread").unwrap_or(0.0));
        for metric in spec::END_TO_END.iter().chain(spec::CHECKED.iter()) {
            let (Some(va), Some(vb)) = (value(ma, metric.name), value(mb, metric.name)) else {
                continue;
            };
            let bound = spec::bound_on(metric, w.name).expect("gated");
            let timed = matches!(metric.unit, "ms" | "s");
            let verdict = judge(
                va,
                vb,
                metric.better,
                bound,
                if timed { spread } else { 0.0 },
            );
            regressed |= verdict == Verdict::Regression;
            let change = if va == 0.0 {
                vb - va
            } else {
                (vb - va) / va.abs()
            };
            out.push_str(&format!(
                "{:<14} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>6.2}  {}\n",
                w.name,
                metric.name,
                va,
                vb,
                change * 100.0,
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
        if b.incorrect.iter().any(|x| x == w.name) {
            regressed = true;
            out.push_str(&format!("{:<14} correct: false in b  REGRESSION\n", w.name));
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, p50: f64, read_bytes: f64, spread: f64, correct: bool) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"seconds\":15,\"trace\":false,\
             \"correct\":{correct},\"attempted\":10,\"failed\":0,\"metrics\":{{\
             \"op_ms\":{{\"value\":{p50},\"unit\":\"ms\"}},\
             \"read_bytes_per_op\":{{\"value\":{read_bytes},\"unit\":\"B\"}},\
             \"bench.round_spread\":{{\"value\":{spread},\"unit\":\"ratio\"}}}}}}\n"
        )
    }

    #[test]
    fn judges_by_direction_and_bound() {
        assert_eq!(judge(10.0, 10.9, Better::Lower, 0.10, 0.0), Verdict::Ok);
        assert_eq!(
            judge(10.0, 11.1, Better::Lower, 0.10, 0.0),
            Verdict::Regression
        );
        assert_eq!(judge(10.0, 5.0, Better::Lower, 0.10, 0.0), Verdict::Ok);
        assert_eq!(
            judge(10.0, 8.0, Better::Higher, 0.10, 0.0),
            Verdict::Regression
        );
        // A zero base: any increase is a regression, none is fine.
        assert_eq!(
            judge(0.0, 1.0, Better::Lower, 0.01, 0.0),
            Verdict::Regression
        );
        assert_eq!(judge(0.0, 0.0, Better::Lower, 0.0, 0.0), Verdict::Ok);
        // Rounds that disagree by more than the bound resolve nothing.
        assert_eq!(
            judge(10.0, 10.5, Better::Lower, 0.10, 0.2),
            Verdict::Unresolved
        );
    }

    #[test]
    fn report_flags_regressions_and_wrong_answers() {
        let a = line("warm_scan", 20.0, 0.0, 0.01, true)
            + &line("cold_probe", 0.2, 25000.0, 0.02, true);
        let same = compare(&a, &a).unwrap();
        assert!(!same.1, "{}", same.0);

        let slower = line("warm_scan", 27.0, 0.0, 0.01, true);
        let (report, regressed) = compare(&a, &slower).unwrap();
        assert!(regressed && report.contains("REGRESSION"), "{report}");

        // `read_bytes_per_op` is exact: 0 → anything is a regression.
        let reads = line("warm_scan", 20.0, 64.0, 0.01, true);
        assert!(compare(&a, &reads).unwrap().1);

        let noisy = line("warm_scan", 20.5, 0.0, 0.3, true);
        let (report, regressed) = compare(&a, &noisy).unwrap();
        assert!(!regressed && report.contains("unresolved"), "{report}");

        let wrong = line("warm_scan", 20.0, 0.0, 0.01, false);
        assert!(compare(&a, &wrong).unwrap().1);

        // Two records of one workload reduce to their median.
        let two =
            line("warm_scan", 19.0, 0.0, 0.01, true) + &line("warm_scan", 21.0, 0.0, 0.01, true);
        assert!(!compare(&a, &two).unwrap().1);
    }
}
