//! `BENCHMARK.json`, compiled in: the metric names, units, directions
//! and regression bounds this program reports against. One source of
//! truth — the program cannot print a name the contract lacks.

use std::sync::OnceLock;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; `None`
    /// for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    pub fn spec(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("missing {key}"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("{key}: missing {f}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing run_seconds")? as u64,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("missing workloads")?
                .iter()
                .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
                .collect(),
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
        })
    }
}

pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        Contract::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is well formed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_matches_the_driver_schema() {
        let c = contract();
        assert_eq!(
            c.workloads,
            ["sim_dis", "live_fresh", "live_repair", "logger_udp"]
        );
        assert!((1..=60).contains(&c.run_seconds));
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        for m in &c.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }
}
