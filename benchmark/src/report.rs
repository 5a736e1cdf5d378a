//! What a run produces and how it is printed, stored and compared.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::contract::{contract, MetricSpec};
use crate::json::Json;
use crate::stats::{summarize, Summary};

/// Metric name → median and quartiles over the repetitions of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, Summary>);

impl Metrics {
    /// Records one value per repetition.
    pub fn put(&mut self, name: &str, per_rep: &[f64]) {
        assert!(
            contract().spec(name).is_some(),
            "{name} is not in BENCHMARK.json"
        );
        self.0.insert(name.to_string(), summarize(per_rep));
    }

    pub fn put_one(&mut self, name: &str, value: f64) {
        self.put(name, &[value]);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|s| s.median)
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted and failed (an undelivered publish, an
    /// unanswered request, a wrong payload, a decode error).
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Honesty flags: transport, loop type, rates, knobs that differ
    /// from the library defaults.
    pub notes: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The line the driver reads: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one. A
    /// per-layer metric the workload does not exercise reads 0.
    pub fn driver_line(&self) -> Result<String, String> {
        let c = contract();
        let specs = if self.traced {
            &c.per_layer
        } else {
            &c.end_to_end
        };
        let mut metrics = BTreeMap::new();
        for spec in specs {
            let value = match self.metrics.median(&spec.name) {
                Some(v) => v,
                None if self.traced => 0.0,
                None => return Err(format!("{} was not measured", spec.name)),
            };
            metrics.insert(
                spec.name.clone(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(spec.unit.clone())),
                ]),
            );
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render())
    }

    /// Human-readable table of everything measured.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {}) attempted {} failed {}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for n in &self.notes {
            let _ = writeln!(out, "   {n}");
        }
        let _ = writeln!(
            out,
            "   {:<40} {:>14} {:>14} {:>14} {:>5}  unit",
            "metric", "median", "q1", "q3", "reps"
        );
        for (name, s) in &self.metrics.0 {
            let unit = contract().spec(name).map_or("", |m| m.unit.as_str());
            let _ = writeln!(
                out,
                "   {:<40} {:>14} {:>14} {:>14} {:>5}  {}",
                name,
                number(s.median),
                number(s.q1),
                number(s.q3),
                s.n,
                unit
            );
        }
        for e in &self.errors {
            let _ = writeln!(out, "   ORACLE VIOLATION: {e}");
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .0
            .iter()
            .map(|(name, s)| {
                let unit = contract().spec(name).map_or("", |m| m.unit.as_str());
                (
                    name.clone(),
                    Json::obj([
                        ("unit", Json::Str(unit.to_string())),
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::Num(s.n as f64)),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("missing {k}"))
        };
        let mut metrics = Metrics::default();
        for (name, m) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing metrics")?
        {
            let f = |k: &str| {
                m.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{name}: no {k}"))
            };
            metrics.0.insert(
                name.clone(),
                Summary {
                    median: f("median")?,
                    q1: f("q1")?,
                    q3: f("q3")?,
                    n: f("n")? as usize,
                },
            );
        }
        Ok(RunResult {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing workload")?
                .to_string(),
            seed: num("seed")? as u64,
            traced: doc.get("traced") == Some(&Json::Bool(true)),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            errors: Vec::new(),
            notes: Vec::new(),
            metrics,
        })
    }
}

/// Three decimals, or six for values below ten (set-up times are
/// fractions of a millisecond).
fn number(v: f64) -> String {
    if v.abs() < 10.0 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}

/// One set of runs: a result per workload (traced results are kept
/// apart under `<workload>+trace`).
pub type ResultSet = BTreeMap<String, RunResult>;

pub fn set_to_json(set: &ResultSet) -> Json {
    Json::Obj(set.iter().map(|(k, r)| (k.clone(), r.to_json())).collect())
}

pub fn set_from_json(doc: &Json) -> Result<ResultSet, String> {
    doc.as_obj()
        .ok_or("a result set is a JSON object")?
        .iter()
        .map(|(k, v)| Ok((k.clone(), RunResult::from_json(v)?)))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    Better,
    Worse,
    /// The run-to-run spread of either side exceeds the bound, so the
    /// comparison cannot tell.
    Unresolved,
}

/// Compares `new` against `base` for one bounded metric.
pub fn verdict(spec: &MetricSpec, base: &Summary, new: &Summary) -> Verdict {
    let bound = spec.bound.unwrap_or(f64::INFINITY);
    if base.spread() > bound || new.spread() > bound {
        return Verdict::Unresolved;
    }
    if base.median == 0.0 {
        return if new.median == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let change = (new.median - base.median) / base.median.abs();
    let gain = if spec.higher_is_better {
        change
    } else {
        -change
    };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row per (workload, end-to-end metric): both medians with their
/// quartiles, the ratio with its base, and the verdict. Returns the
/// table and how many rows moved beyond their bound in either direction
/// (`Unresolved` rows are not counted: they are reported, not judged).
pub fn compare(base: &ResultSet, new: &ResultSet) -> (String, usize) {
    let mut out = String::new();
    let mut moved = 0;
    let _ = writeln!(
        out,
        "{:<12} {:<18} {:>14} {:>31} {:>14} {:>31} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "[q1..q3]", "new", "[q1..q3]", "new/base", "bound"
    );
    for (workload, b) in base {
        let Some(n) = new.get(workload) else { continue };
        for spec in &contract().end_to_end {
            let (Some(bs), Some(ns)) = (b.metrics.0.get(&spec.name), n.metrics.0.get(&spec.name))
            else {
                continue;
            };
            let v = verdict(spec, bs, ns);
            if matches!(v, Verdict::Better | Verdict::Worse) {
                moved += 1;
            }
            let _ = writeln!(
                out,
                "{:<12} {:<18} {:>14} {:>31} {:>14} {:>31} {:>8.4} {:>6.2}  {}",
                workload,
                spec.name,
                number(bs.median),
                format!("[{}..{}]", number(bs.q1), number(bs.q3)),
                number(ns.median),
                format!("[{}..{}]", number(ns.q1), number(ns.q3)),
                ns.median / bs.median,
                spec.bound.unwrap_or(0.0),
                match v {
                    Verdict::Same => "same",
                    Verdict::Better => "BETTER",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    (out, moved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "us".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 5,
        }
    }

    #[test]
    fn compare_verdicts_on_synthetic_inputs() {
        let lower = spec(false, 0.10);
        assert_eq!(verdict(&lower, &tight(100.0), &tight(105.0)), Verdict::Same);
        assert_eq!(
            verdict(&lower, &tight(100.0), &tight(111.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower, &tight(100.0), &tight(85.0)),
            Verdict::Better
        );
        let higher = spec(true, 0.10);
        assert_eq!(
            verdict(&higher, &tight(100.0), &tight(85.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&higher, &tight(100.0), &tight(111.0)),
            Verdict::Better
        );
        // Spread beyond the bound on either side: the metric is
        // reported as unresolved, never as unchanged.
        let wide = Summary {
            median: 100.0,
            q1: 90.0,
            q3: 105.0,
            n: 5,
        };
        assert_eq!(verdict(&lower, &wide, &tight(100.0)), Verdict::Unresolved);
        assert_eq!(verdict(&lower, &tight(100.0), &wide), Verdict::Unresolved);
    }

    #[test]
    fn results_round_trip_and_compare_counts_moves() {
        let mut a = RunResult {
            workload: "live_fresh".into(),
            seed: 9,
            attempted: 10,
            ..RunResult::default()
        };
        a.metrics.put("latency_p50_us", &[99.0, 100.0, 101.0]);
        a.metrics.put("throughput_per_s", &[2000.0]);
        let mut b = a.clone();
        b.metrics.put("latency_p50_us", &[149.0, 150.0, 151.0]);
        let set_a: ResultSet = [("live_fresh".to_string(), a.clone())].into();
        let set_b: ResultSet = [("live_fresh".to_string(), b)].into();
        let back = set_from_json(&Json::parse(&set_to_json(&set_a).render()).unwrap()).unwrap();
        assert_eq!(back["live_fresh"].metrics, a.metrics);
        assert_eq!(back["live_fresh"].seed, 9);
        assert_eq!(compare(&set_a, &back).1, 0);
        let (table, moved) = compare(&set_a, &set_b);
        assert_eq!(moved, 1, "{table}");
        assert!(table.contains("WORSE"), "{table}");
    }

    #[test]
    fn driver_line_lists_exactly_the_contract_metrics() {
        let mut r = RunResult {
            workload: "sim_dis".into(),
            traced: true,
            attempted: 5,
            ..RunResult::default()
        };
        r.metrics.put_one("sim.events", 487_000.0);
        let line = Json::parse(&r.driver_line().unwrap()).unwrap();
        let m = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(m.len(), contract().per_layer.len());
        assert_eq!(m["sim.events"].get("value"), Some(&Json::Num(487_000.0)));
        assert_eq!(m["net.threads"].get("value"), Some(&Json::Num(0.0)));
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        // An untraced run that lacks an end-to-end metric is a bug, not a zero.
        r.traced = false;
        assert!(r.driver_line().is_err());
    }
}
