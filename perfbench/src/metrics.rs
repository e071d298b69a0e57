//! Metric names, units, summary statistics and the result line.

use crate::gen::FAMILIES;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), name → unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p75_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("correct_ratio", "ratio"),
];

/// Per-layer metrics that are not per plan family, name → unit.
const LAYER_FIXED: [(&str, &str); 30] = [
    ("io.parse_us", "us"),
    ("io.parse_ns_per_byte", "ns/B"),
    ("io.render_us", "us"),
    ("hash.digest_us", "us"),
    ("router.plan_us", "us"),
    ("engine.hit_us", "us"),
    ("engine.hit_ratio", "ratio"),
    ("engine.miss_overhead_us", "us"),
    ("engine.evictions", "count"),
    ("engine.batch_busy_ratio", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.turnaround_p50_us", "us"),
    ("serve.turnaround_p99_us", "us"),
    ("serve.backlog_p99", "count"),
    ("serve.accepted", "count"),
    ("serve.rejected_queue_full", "count"),
    ("serve.rejected_rate_limited", "count"),
    ("serve.rejected_invalid", "count"),
    ("serve.deadline_dequeue", "count"),
    ("serve.deadline_plan", "count"),
    ("serve.failed", "count"),
    ("sim.check_us", "us"),
    ("sim.ns_per_dataset_stage", "ns"),
    ("cli.layer_sum_us", "us"),
    ("cli.process_cpu_us", "us"),
    ("cli.unexplained_share", "ratio"),
    ("harness.send_lag_p99_ms", "ms"),
    ("harness.trace_overhead_ratio", "ratio"),
    ("harness.traced_requests", "count"),
];

/// Every per-layer metric (`--trace 1`), name → unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for f in FAMILIES {
        out.push((format!("router.solve_us.{f}"), "us"));
    }
    for f in FAMILIES {
        out.push((format!("router.estimate_over_actual.{f}"), "ratio"));
    }
    out
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; 0 when
/// empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A run's result: named values plus the oracle's tally.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → value.
    pub values: BTreeMap<String, f64>,
    /// Lines and outcomes checked.
    pub attempted: u64,
    /// Checks failed (see [`crate::oracle::Verdict::failed`]).
    pub failed: u64,
    /// A child process exited abnormally.
    pub process_failed: bool,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.process_failed && self.attempted > 0
    }

    /// The final stdout line: exactly `names`, in order, with units.
    pub fn json(&self, names: &[(String, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(n, u)| {
                let v = self.values.get(n).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::io::json_value::{parse, Value};

    fn benchmark_json() -> BTreeMap<String, Value> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        match parse(&text).expect("BENCHMARK.json parses") {
            Value::Obj(m) => m,
            other => panic!("BENCHMARK.json is not an object: {other:?}"),
        }
    }

    fn listed(m: &BTreeMap<String, Value>, key: &str) -> Vec<(String, String)> {
        let Some(Value::Arr(items)) = m.get(key) else { panic!("{key} missing") };
        items
            .iter()
            .map(|item| {
                let Value::Obj(o) = item else { panic!("{key} entry is not an object") };
                let s = |k: &str| match o.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    _ => panic!("{key} entry lacks {k}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let m = benchmark_json();
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed(&m, "end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed(&m, "per_layer"), layers);
        let Some(Value::Arr(w)) = m.get("workloads") else { panic!("workloads missing") };
        let names: Vec<String> = w
            .iter()
            .map(|x| match x {
                Value::Obj(o) => match o.get("name") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => panic!("workload without a name"),
                },
                _ => panic!("workload is not an object"),
            })
            .collect();
        assert!(!names.is_empty());
        for n in names {
            assert!(crate::gen::Workload::from_name(&n).is_some(), "unknown workload {n}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_listed_metrics() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.set("throughput_rps", 12.5);
        r.set("not_listed", 1.0);
        let line = r.json(&[("throughput_rps".into(), "1/s"), ("setup_s".into(), "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"throughput_rps\":{\"value\":12.5,\"unit\":\"1/s\"},\
             \"setup_s\":{\"value\":0,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
