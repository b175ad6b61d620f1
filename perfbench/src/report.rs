//! Run results: latency statistics, the end-to-end metric set, and the
//! lines the benchmark prints.

use crate::host::HostRecord;
use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every checked output was correct.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Every timed operation's latency, for the ventile line.
    pub latencies_ms: Vec<f64>,
    /// What made `correct` false, one line each.
    pub errors: Vec<String>,
    /// Host load over the measured phase.
    pub host: HostRecord,
}

impl Report {
    /// The final result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value": v, "unit": u}`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The op-latency ventiles (5% … 95%) as one JSON line.
    pub fn ventile_line(&self) -> String {
        let v: Vec<String> = ventiles(&self.latencies_ms).iter().map(|&x| json_number(x)).collect();
        format!("{{\"ventiles_ms\": [{}], \"ops\": {}}}", v.join(", "), self.latencies_ms.len())
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which no metric should produce,
/// print as 0 so the line stays valid JSON).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The 5%, 10%, …, 95% quantiles.
pub fn ventiles(samples: &[f64]) -> Vec<f64> {
    (1..20).map(|k| quantile(samples, k as f64 / 20.0)).collect()
}

/// Accumulates the timed operations of one measured phase.
#[derive(Clone, Debug, Default)]
pub struct Timed {
    /// Latency of every successful operation, in ms.
    pub latencies_ms: Vec<f64>,
    /// Per-operation `weight / vertex bound`.
    pub weight_ratios: Vec<f64>,
    /// Per-operation rounds of data access.
    pub rounds: Vec<f64>,
    /// Per-operation peak central space in edges.
    pub central: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    /// Records one successful operation.
    pub fn record(&mut self, latency_ms: f64, weight_ratio: f64, rounds: f64, central: f64) {
        self.attempted += 1;
        self.latencies_ms.push(latency_ms);
        self.weight_ratios.push(weight_ratio);
        self.rounds.push(rounds);
        self.central.push(central);
    }

    /// Records one operation that returned an error.
    pub fn record_failure(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Operations per second of time spent inside the program.
    pub fn ops_per_s(&self) -> f64 {
        let busy_s: f64 = self.latencies_ms.iter().sum::<f64>() / 1e3;
        if busy_s > 0.0 {
            self.latencies_ms.len() as f64 / busy_s
        } else {
            0.0
        }
    }

    /// The end-to-end metric set of an untraced run.
    pub fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("ops_per_s", self.ops_per_s(), "1/s"),
            metric("op_p50_ms", quantile(&self.latencies_ms, 0.5), "ms"),
            metric("op_p90_ms", quantile(&self.latencies_ms, 0.9), "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
            metric("weight_ratio", mean(&self.weight_ratios), "ratio"),
            metric("rounds_per_op", mean(&self.rounds), "count"),
            metric("central_space_edges", mean(&self.central), "edges"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(ventiles(&s).len(), 19);
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("op_p50_ms", 1.25, "ms")],
            ..Report::default()
        };
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
