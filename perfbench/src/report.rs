//! What a run measured, and how it is printed.
//!
//! A run prints two JSON lines on stdout. The first, `{"report": …}`, is
//! for people and for `ab.py`: host identity, every metric with its
//! median and quartiles over the run's samples, the per-layer tags from
//! `metrics.json`, correctness failures and workload details. The last
//! line is the result: exactly `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit).

use std::collections::BTreeMap;

use lac_rt::json::Value;

use crate::stats::quantile;

/// The metric catalog: names, units, per-workload meanings and the
/// per-layer → end-to-end mapping.
pub const CATALOG: &str = include_str!("../metrics.json");

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Unit, as in `metrics.json`.
    pub unit: String,
    /// The reported value.
    pub value: f64,
    /// The samples the value summarizes (empty for a single reading).
    pub samples: Vec<f64>,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed: a wrong output, an error, a
    /// BUSY or a deadline frame.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The end-to-end metrics under the names of the benchmark's design
    /// (`samples_per_s`, `run_s`, `max_rps`, `p99_ms`, `swap_ms`,
    /// `fail_frac`, …), for the workloads they apply to. Report line only.
    pub named: Vec<(String, Metric)>,
    /// Workload-specific detail for the report line.
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    /// Record metric `name` (the unit comes from the catalog).
    pub fn set(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        let entry =
            catalog_entry(name).unwrap_or_else(|| panic!("metric `{name}` is not in metrics.json"));
        let unit = str_of(&entry, "unit");
        self.metrics.insert(
            name.to_owned(),
            Metric {
                unit,
                value,
                samples,
            },
        );
    }

    /// Record a report-only end-to-end figure.
    pub fn named(&mut self, name: &str, unit: &str, value: f64, samples: Vec<f64>) {
        self.named.push((
            name.to_owned(),
            Metric {
                unit: unit.to_owned(),
                value,
                samples,
            },
        ));
    }

    /// Count `n` checked operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg.into());
        }
    }

    /// Attach a detail to the report line.
    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_owned(), value));
    }
}

fn catalog() -> Value {
    Value::parse(CATALOG).expect("metrics.json is valid JSON")
}

fn section(doc: &Value, key: &str) -> Vec<Value> {
    doc.get(key)
        .and_then(Value::as_arr)
        .map(<[Value]>::to_vec)
        .unwrap_or_default()
}

fn str_of(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_owned()
}

/// Names of the metrics a run must print: the end-to-end set untraced,
/// the per-layer set traced.
pub fn expected_names(trace: bool) -> Vec<String> {
    let key = if trace { "per_layer" } else { "end_to_end" };
    section(&catalog(), key)
        .iter()
        .map(|m| str_of(m, "name"))
        .collect()
}

fn catalog_entry(name: &str) -> Option<Value> {
    let doc = catalog();
    ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| section(&doc, k))
        .find(|m| str_of(m, "name") == name)
}

/// Where and how the run was made.
#[derive(Debug, Clone, Default)]
pub struct Host {
    /// `rustc --version` of the toolchain that built the benchmark.
    pub rustc: String,
    /// Git revision of the checkout, or `none` outside a git repository.
    pub revision: String,
    /// Hash of the benchmarked sources (identifies code without git).
    pub source: String,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Value, unit, and (when there are samples) their count, median and
/// quartiles.
fn spread(m: &Metric) -> Vec<(String, Value)> {
    let mut members = vec![
        ("value".to_owned(), Value::Num(m.value)),
        ("unit".to_owned(), Value::Str(m.unit.clone())),
    ];
    if !m.samples.is_empty() {
        members.push(("n".into(), Value::Num(m.samples.len() as f64)));
        members.push(("q1".into(), Value::Num(quantile(&m.samples, 0.25))));
        members.push(("median".into(), Value::Num(quantile(&m.samples, 0.5))));
        members.push(("q3".into(), Value::Num(quantile(&m.samples, 0.75))));
    }
    members
}

/// Print the report line and the result line.
pub fn print(info: &crate::Opts, out: &Outcome) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let host = Value::Obj(vec![
        ("cores".into(), Value::Num(cores as f64)),
        ("cpu".into(), Value::Str(cpu_model())),
        ("rustc".into(), Value::Str(info.host.rustc.clone())),
        ("revision".into(), Value::Str(info.host.revision.clone())),
        ("source".into(), Value::Str(info.host.source.clone())),
    ]);
    let mut metrics = Vec::new();
    for (name, m) in &out.metrics {
        let mut members = spread(m);
        if let Some(entry) = catalog_entry(name) {
            for key in ["moves", "how"] {
                if let Some(v) = entry.get(key) {
                    members.push((key.to_owned(), v.clone()));
                }
            }
        }
        metrics.push((name.clone(), Value::Obj(members)));
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let mut named: Vec<(String, Value)> = out
        .named
        .iter()
        .map(|(n, m)| (n.clone(), Value::Obj(spread(m))))
        .collect();
    named.push((
        "fail_frac".into(),
        Value::Obj(vec![
            ("value".into(), Value::Num(fail_frac)),
            ("unit".into(), Value::Str("frac".into())),
        ]),
    ));
    let report = Value::Obj(vec![
        ("workload".into(), Value::Str(info.workload.clone())),
        ("seed".into(), Value::Num(info.seed as f64)),
        ("seconds".into(), Value::Num(info.seconds)),
        ("trace".into(), Value::Bool(info.trace)),
        ("smoke".into(), Value::Bool(info.smoke)),
        ("host".into(), host),
        ("attempted".into(), Value::Num(out.attempted as f64)),
        ("failed".into(), Value::Num(out.failed as f64)),
        ("fail_frac".into(), Value::Num(fail_frac)),
        (
            "failures".into(),
            Value::Arr(out.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics".into(), Value::Obj(metrics)),
        ("named_metrics".into(), Value::Obj(named)),
        ("details".into(), Value::Obj(out.details.clone())),
    ]);
    println!("{}", Value::Obj(vec![("report".into(), report)]).to_json());

    let result_metrics = out
        .metrics
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(out.attempted.max(1) as f64)),
        ("failed".into(), Value::Num(out.failed as f64)),
        ("metrics".into(), Value::Obj(result_metrics)),
    ]);
    println!("{}", result.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalog_names_are_valid_unique_and_within_caps() {
        let e2e = expected_names(false);
        let layers = expected_names(true);
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut all: Vec<&String> = e2e.iter().chain(&layers).collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "metric names must be unique");
        assert!(e2e.iter().any(|n| n == "setup_s"));
    }

    #[test]
    fn every_per_layer_metric_names_what_it_moves() {
        let doc = catalog();
        let named = doc.get("named_metrics").expect("named_metrics section");
        for m in section(&doc, "per_layer") {
            let moves = m.get("moves").and_then(Value::as_arr).unwrap_or_default();
            assert!(!moves.is_empty(), "{} has no tag", str_of(&m, "name"));
            for tag in moves {
                let tag = tag.as_str().unwrap_or_default();
                let metric = tag.split('@').next().unwrap_or_default();
                assert!(
                    named.get(metric).is_some() || metric == "none",
                    "{}: tag `{tag}` names no end-to-end metric",
                    str_of(&m, "name")
                );
            }
        }
    }
}
