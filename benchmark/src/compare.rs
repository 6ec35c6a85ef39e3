//! Reading `BENCHMARK.json` and result files back: the regression
//! comparison of two result files and the validation of one.

use crate::json::{self, Value};

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Decl>,
    pub per_layer: Vec<Decl>,
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Value::as_str).ok_or(format!("BENCHMARK.json: missing \"{key}\""))
}

impl Declared {
    pub fn parse(doc: &str) -> Result<Self, String> {
        let root = json::parse(doc)?;
        let list = |key: &str| root.get(key).map(Value::as_arr).unwrap_or_default();
        let decls = |key: &str| {
            list(key)
                .iter()
                .map(|m| {
                    Ok(Decl {
                        name: text(m, "name")?.into(),
                        unit: text(m, "unit")?.into(),
                        higher_is_better: text(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Self {
            workloads: list("workloads")
                .iter()
                .map(|w| text(w, "name").map(String::from))
                .collect::<Result<_, _>>()?,
            end_to_end: decls("end_to_end")?,
            per_layer: decls("per_layer")?,
        })
    }

    pub fn load() -> Result<Self, String> {
        let doc = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        Self::parse(&doc)
    }
}

/// The run of `workload` with the given trace mode in a result file.
fn find_run<'a>(result: &'a Value, workload: &str, traced: bool) -> Option<&'a Value> {
    result.get("runs")?.as_arr().iter().find(|r| {
        r.get("workload").and_then(Value::as_str) == Some(workload)
            && r.get("trace").and_then(Value::as_f64) == Some(f64::from(u8::from(traced)))
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The medians agree, but B's own quartile on the bad side is past
    /// the bound: the run-to-run spread is wider than the bound.
    Unresolved,
    Regression,
    /// One of the files does not have the number.
    Missing,
}

/// One workload × end-to-end metric row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// Share of A by which B is worse (negative: better).
    pub worse_by: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Applies each end-to-end metric's bound, in its stated direction, to
/// every workload of two result files (A the baseline, B the candidate).
pub fn compare(decl: &Declared, a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &decl.workloads {
        for m in &decl.end_to_end {
            let field = |file: &Value, key: &str| {
                find_run(file, workload, false)?.get("metrics")?.get(&m.name)?.get(key)?.as_f64()
            };
            let bound = m.bound.unwrap_or(0.0);
            let worse =
                |base: f64, v: f64| if m.higher_is_better { base - v } else { v - base } / base;
            let (va, vb) = (field(a, "value"), field(b, "value"));
            let mut row = Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: va,
                b: vb,
                worse_by: None,
                bound,
                verdict: Verdict::Missing,
            };
            if let (Some(va), Some(vb)) = (va, vb) {
                let by = worse(va, vb);
                let bad_side = field(b, if m.higher_is_better { "q1" } else { "q3" });
                row.worse_by = Some(by);
                row.verdict = if by > bound {
                    Verdict::Regression
                } else if bad_side.is_some_and(|q| worse(va, q) > bound) {
                    Verdict::Unresolved
                } else {
                    Verdict::Ok
                };
            }
            rows.push(row);
        }
        let flag = |file: &Value, key: &str| {
            find_run(file, workload, false).and_then(|r| r.get(key)).and_then(Value::as_bool)
        };
        for (label, file) in [("A", a), ("B", b)] {
            if flag(file, "noisy") == Some(true) {
                println!("note: {workload} in {label} is marked noisy");
            }
            if flag(file, "correct") != Some(true) {
                println!("note: {workload} in {label} failed its output checks or is missing");
            }
        }
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        let num = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.4}"));
        let pct = |v: f64| format!("{:+.1}%", v * 100.0);
        println!(
            "{:<16} {:<14} {:>12} {:>12} {:>9} {:>7}  {}",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            r.worse_by.map_or("-".into(), pct),
            pct(r.bound),
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
                Verdict::Missing => "MISSING",
            }
        );
    }
}

fn name_is_clean(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Validates a result file against the declarations: every declared
/// workload has an untraced run with exactly the end-to-end metrics and
/// a traced run with exactly the per-layer metrics, units as declared,
/// names clean, checks passed. Returns the problems found.
pub fn check(decl: &Declared, result: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    for workload in &decl.workloads {
        for (traced, declared) in [(false, &decl.end_to_end), (true, &decl.per_layer)] {
            let kind = if traced { "traced" } else { "untraced" };
            let Some(run) = find_run(result, workload, traced) else {
                problems.push(format!("{workload}: no {kind} run"));
                continue;
            };
            if run.get("correct").and_then(Value::as_bool) != Some(true) {
                problems.push(format!("{workload} ({kind}): output checks failed"));
            }
            let reported = run.get("metrics").map(Value::as_obj).unwrap_or_default();
            for d in declared {
                match reported.iter().find(|(k, _)| *k == d.name) {
                    None => problems.push(format!("{workload} ({kind}): {} is missing", d.name)),
                    Some((_, m)) => {
                        if m.get("unit").and_then(Value::as_str) != Some(&d.unit) {
                            problems.push(format!("{workload}: {} is not in {}", d.name, d.unit));
                        }
                        if m.get("value").and_then(Value::as_f64).is_none() {
                            problems.push(format!("{workload}: {} has no value", d.name));
                        }
                    }
                }
            }
            for (name, _) in reported {
                if !name_is_clean(name) {
                    problems.push(format!("{workload}: metric name {name:?} has a bad character"));
                }
                if !declared.iter().any(|d| d.name == *name) {
                    problems.push(format!("{workload} ({kind}): {name} is not declared"));
                }
            }
        }
    }
    for r in result.get("runs").map(Value::as_arr).unwrap_or_default() {
        let name = r.get("workload").and_then(Value::as_str).unwrap_or("?");
        if !decl.workloads.iter().any(|w| w == name) {
            problems.push(format!("run of undeclared workload {name}"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECL: &str = r#"{
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "tps", "unit": "tx/s", "better": "higher", "bound": 0.1},
            {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
        ],
        "per_layer": [{"name": "wal.forces_per_txn", "unit": "1/txn", "better": "lower"}]
    }"#;

    fn result(tps: (f64, f64, f64), p50: (f64, f64, f64)) -> Value {
        let metric = |unit: &str, (v, q1, q3): (f64, f64, f64)| {
            format!(r#"{{"value":{v},"unit":"{unit}","q1":{q1},"q3":{q3}}}"#)
        };
        json::parse(&format!(
            r#"{{"runs":[
                {{"workload":"w","trace":0,"correct":true,"noisy":false,
                  "metrics":{{"tps":{},"p50_ms":{}}}}},
                {{"workload":"w","trace":1,"correct":true,
                  "metrics":{{"wal.forces_per_txn":{{"value":1,"unit":"1/txn"}}}}}}]}}"#,
            metric("tx/s", tps),
            metric("ms", p50)
        ))
        .unwrap()
    }

    #[test]
    fn bounds_apply_in_the_stated_direction() {
        let decl = Declared::parse(DECL).unwrap();
        let a = result((1000.0, 990.0, 1010.0), (2.0, 1.9, 2.1));
        // Throughput 12% down: regression. Latency 12% down: an improvement.
        let b = result((880.0, 870.0, 890.0), (1.76, 1.7, 1.8));
        let rows = compare(&decl, &a, &b);
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert!((rows[0].worse_by.unwrap() - 0.12).abs() < 1e-9);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert!(rows[1].worse_by.unwrap() < 0.0);
        // The other way round, latency regresses and throughput improves.
        let rows = compare(&decl, &b, &a);
        assert_eq!((rows[0].verdict, rows[1].verdict), (Verdict::Ok, Verdict::Regression));
    }

    #[test]
    fn a_quartile_past_the_bound_is_unresolved_and_a_missing_number_is_missing() {
        let decl = Declared::parse(DECL).unwrap();
        let a = result((1000.0, 990.0, 1010.0), (2.0, 1.9, 2.1));
        // Medians within 5%, but B's bad-side quartiles are 15% off.
        let b = result((950.0, 850.0, 1000.0), (2.1, 2.0, 2.3));
        let rows = compare(&decl, &a, &b);
        assert_eq!((rows[0].verdict, rows[1].verdict), (Verdict::Unresolved, Verdict::Unresolved));
        let empty = json::parse(r#"{"runs":[]}"#).unwrap();
        assert!(compare(&decl, &a, &empty).iter().all(|r| r.verdict == Verdict::Missing));
    }

    #[test]
    fn check_wants_every_declared_name_and_no_other() {
        let decl = Declared::parse(DECL).unwrap();
        let good = result((1000.0, 990.0, 1010.0), (2.0, 1.9, 2.1));
        assert_eq!(check(&decl, &good), Vec::<String>::new());
        let bad = json::parse(
            r#"{"runs":[{"workload":"w","trace":0,"correct":false,
                "metrics":{"tps":{"value":1,"unit":"1/s"},"p99 ms":{"value":1,"unit":"ms"}}}]}"#,
        )
        .unwrap();
        let problems = check(&decl, &bad).join("\n");
        for needle in [
            "output checks failed",
            "tps is not in tx/s",
            "p50_ms is missing",
            "\"p99 ms\" has a bad character",
            "p99 ms is not declared",
            "no traced run",
        ] {
            assert!(problems.contains(needle), "{needle:?} not in:\n{problems}");
        }
    }
}
