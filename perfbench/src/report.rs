//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

use flexvc_serde::{json, Map, Value};

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `cycles_per_s`.
    pub name: String,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit, e.g. `1/s`.
    pub unit: String,
}

/// A run's report. `attempted` counts simulation points (ops) and
/// `failed` those whose outputs failed a check.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// No point failed and every run-level check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The single-line JSON form.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.iter().fold(Map::new(), |m, x| {
            m.with(
                x.name.clone(),
                Value::Map(
                    Map::new()
                        .with("value", Value::Float(x.value))
                        .with("unit", Value::Str(x.unit.clone())),
                ),
            )
        });
        json::emit(&Value::Map(
            Map::new()
                .with("correct", Value::Bool(self.correct))
                .with("attempted", Value::Int(self.attempted as i64))
                .with("failed", Value::Int(self.failed as i64))
                .with("metrics", Value::Map(metrics)),
        ))
    }

    /// Parse the JSON form back.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let err = |e: flexvc_serde::Error| e.message().to_string();
        let root = json::parse(text).map_err(err)?;
        let root = root.as_map().map_err(err)?;
        let count = |key: &str| -> Result<u64, String> {
            let v = root.req(key).and_then(Value::as_i64).map_err(err)?;
            u64::try_from(v).map_err(|_| format!("{key} is negative"))
        };
        let metrics = root
            .req("metrics")
            .and_then(Value::as_map)
            .map_err(err)?
            .iter()
            .map(|(name, v)| {
                let m = v.as_map().map_err(err)?;
                Ok(Metric {
                    name: name.to_string(),
                    value: m.req("value").and_then(Value::as_f64).map_err(err)?,
                    unit: m
                        .req("unit")
                        .and_then(Value::as_str)
                        .map_err(err)?
                        .to_string(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Report {
            correct: root.req("correct").and_then(Value::as_bool).map_err(err)?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = Report {
            correct: false,
            attempted: 7,
            failed: 1,
            metrics: vec![
                Metric {
                    name: "cycles_per_s".into(),
                    value: 201.73049182734,
                    unit: "1/s".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.4127,
                    unit: "s".into(),
                },
            ],
        };
        let line = report.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Report::from_json(&line).unwrap(), report);
    }

    #[test]
    fn top_level_keys_are_exactly_the_contract() {
        let line = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![],
        }
        .to_json();
        let root = json::parse(&line).unwrap();
        let keys: Vec<&str> = root.as_map().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
