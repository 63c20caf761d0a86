//! Metric names, the statistics the metrics are made of, and the result
//! line.

use cachedse_json::Value;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("op_gmean_ms", "ms"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("heap_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.capture_ms", "ms"),
    ("trace.read_din_ms", "ms"),
    ("trace.strip_ms", "ms"),
    ("trace.digest_ms", "ms"),
    ("trace.refs", "count"),
    ("trace.unique", "count"),
    ("core.engine_ms", "ms"),
    ("core.engine_heap_mib", "MiB"),
    ("core.frontier_ms", "ms"),
    ("core.dfs_ref_ms", "ms"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("serve.hit_ms", "ms"),
    ("serve.warm_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.submit_wait_ms", "ms"),
    ("serve.stage_load_ms", "ms"),
    ("serve.stage_analyze_ms", "ms"),
    ("serve.stage_frontier_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.analyses", "count"),
    ("store.warm_loads", "count"),
    ("store.evictions", "count"),
    ("store.bytes", "bytes"),
    ("store.errors", "count"),
    ("host.probe_ms", "ms"),
    ("host.probe_max_ms", "ms"),
    ("host.factor", "ratio"),
    ("host.rounds", "count"),
    ("layers.coverage", "ratio"),
    ("layers.op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Named metric values, kept in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` to `value` (a later set wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every metric name set so far.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|&(n, _)| n).collect()
    }
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Ops attempted (explore sweeps or serve jobs).
    pub attempted: u64,
    /// Ops that failed or produced output the correctness gate rejected.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and every metric of
    /// `table` with its unit. A metric the run did not set is reported as 0:
    /// the layer it names is not on this workload's path.
    #[must_use]
    pub fn result_line(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics = table.iter().map(|&(name, unit)| {
            let value = self.metrics.get(name).unwrap_or(0.0);
            (
                name,
                Value::object([("value", Value::Float(value)), ("unit", Value::from(unit))]),
            )
        });
        Value::object([
            (
                "correct",
                Value::from(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::object(metrics)),
        ])
        .render()
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1` of `xs`; 0 when empty.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive `xs`; 0 when empty.
#[must_use]
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter()
        .map(|x| x.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / xs.len() as f64)
        .exp()
}

/// Smallest of `xs`; infinity when empty.
#[must_use]
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean of `xs`; 0 when empty.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Largest of `xs`; 0 when empty.
#[must_use]
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// The per-op end-to-end metrics shared by every workload, from each op's
/// best time in seconds and the best rate at which whole rounds completed.
pub fn set_op_metrics(m: &mut Metrics, best_s: &[f64], ops_per_s: f64) {
    m.set("suite_s", best_s.iter().sum());
    m.set("op_gmean_ms", gmean(best_s) * 1e3);
    m.set("job_p50_ms", median(best_s) * 1e3);
    m.set("job_p99_ms", quantile(best_s, 0.99) * 1e3);
    m.set("jobs_per_s", ops_per_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(max(&xs), 4.0);
    }

    #[test]
    fn result_line_names_every_metric() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.5);
        let line = Outcome {
            attempted: 3,
            failed: 0,
            metrics,
        }
        .result_line(&END_TO_END);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let m = v.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m[0].1.get("value").and_then(Value::as_f64), Some(0.5));
    }
}
