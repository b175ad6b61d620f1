//! The traced run's instruments: a span subscriber that keeps every closed
//! `solve`, `pass` and `epoch` span the program emits (with its thread and
//! interval, so spans can be nested), deltas of the program's own counters
//! and histograms, and the per-layer metric list.

use crate::report::{median, metric, Metric};
use dual_primal_matching::obs::{self, MetricValue, MetricsSnapshot, SpanSubscriber};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    /// The key/value pairs the program attached at entry.
    pub fields: Vec<(&'static str, u64)>,
    pub thread: ThreadId,
    pub start: Instant,
    pub end: Instant,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

struct Collector;

impl SpanSubscriber for Collector {
    fn on_close(&self, name: &'static str, fields: &[(&'static str, u64)], nanos: u64) {
        if !RECORDING.load(Ordering::Relaxed) {
            return;
        }
        let end = Instant::now();
        let start = end.checked_sub(Duration::from_nanos(nanos)).unwrap_or(end);
        let rec = SpanRec {
            name,
            fields: fields.to_vec(),
            thread: std::thread::current().id(),
            start,
            end,
        };
        SPANS.lock().expect("span buffer lock poisoned").push(rec);
    }
}

/// Installs the collector (once per process) and starts recording.
pub fn start() {
    // A second install fails harmlessly: the collector is already in place.
    obs::install_subscriber(Box::new(Collector));
    SPANS.lock().expect("span buffer lock poisoned").clear();
    RECORDING.store(true, Ordering::Relaxed);
}

/// Stops recording and returns the spans closed since [`start`].
pub fn stop() -> Vec<SpanRec> {
    RECORDING.store(false, Ordering::Relaxed);
    std::mem::take(&mut *SPANS.lock().expect("span buffer lock poisoned"))
}

/// A span field's value, if the program attached it.
pub fn field(span: &SpanRec, key: &str) -> Option<u64> {
    span.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// Durations (ms) of the spans called `name`, in closing order.
pub fn durations_ms(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(SpanRec::ms).collect()
}

/// Self time (ms) of each `parent` span: its duration minus the `child`
/// spans closed on the same thread inside its interval.
pub fn self_ms(spans: &[SpanRec], parent: &str, child: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|p| p.name == parent)
        .map(|p| {
            let nested: f64 = spans
                .iter()
                .filter(|c| {
                    c.name == child && c.thread == p.thread && c.start >= p.start && c.end <= p.end
                })
                .map(SpanRec::ms)
                .sum();
            p.ms() - nested
        })
        .collect()
}

/// Median span duration, 0 when no such span closed.
pub fn median_ms(spans: &[SpanRec], name: &str) -> f64 {
    median(&durations_ms(spans, name))
}

/// The change in the program's counters and histograms over a phase.
pub struct RegistryDelta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl RegistryDelta {
    pub fn new(before: MetricsSnapshot, after: MetricsSnapshot) -> Self {
        RegistryDelta { before, after }
    }

    /// Counter growth; a family prefix sums every label set.
    pub fn counter(&self, prefix: &str) -> f64 {
        self.after.counter_family(prefix).saturating_sub(self.before.counter_family(prefix)) as f64
    }

    /// `(count, sum)` growth of a histogram.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        let read = |s: &MetricsSnapshot| match s.get(name) {
            Some(MetricValue::Histogram(h)) => (h.count as f64, h.sum),
            _ => (0.0, 0.0),
        };
        let (c0, s0) = read(&self.before);
        let (c1, s1) = read(&self.after);
        (c1 - c0, s1 - s0)
    }
}

/// Every per-layer metric, in print order, with its unit. A traced run
/// prints all of them; a layer the workload does not reach reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("mwm-core.solve_ms", "ms"),
    ("mwm-core.self_ms", "ms"),
    ("mwm-core.solves", "count"),
    ("mwm-core.rounds", "count"),
    ("mwm-core.oracle_iterations", "count"),
    ("mwm-core.cap_hits", "count"),
    ("mwm-sparsify.stored_edges", "edges"),
    ("mwm-sparsify.kept_fraction", "ratio"),
    ("mwm-mapreduce.pass_ms", "ms"),
    ("mwm-mapreduce.passes", "count"),
    ("mwm-mapreduce.edges_streamed", "edges"),
    ("mwm-external.readback_ms", "ms"),
    ("mwm-external.readback_mb_per_s", "MB/s"),
    ("mwm-external.kernel_ms", "ms"),
    ("mwm-external.spill_s", "s"),
    ("mwm-dynamic.epoch_ms", "ms"),
    ("mwm-dynamic.epochs_repair", "count"),
    ("mwm-dynamic.epochs_warm", "count"),
    ("mwm-dynamic.epochs_rebuild", "count"),
    ("mwm-dynamic.warm_rounds", "count"),
    ("mwm-dynamic.cold_rounds", "count"),
    ("mwm-serve.net_ms", "ms"),
    ("mwm-serve.queue_ms", "ms"),
    ("mwm-graph.wire_bytes", "B"),
    ("mwm-persist.revive_ms", "ms"),
    ("mwm-persist.hibernate_ms", "ms"),
    ("mwm-persist.revives", "count"),
    ("mwm-persist.image_bytes", "B"),
    ("mwm-persist.wal_append_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Builds the full per-layer list from the values a workload measured.
/// Panics on a name missing from [`LAYER_METRICS`] (a typo in this crate).
pub fn layer_metrics(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The pass-engine metrics every workload reports: pass-span time, passes
/// and streamed edges per operation.
pub fn pass_layer(
    values: &mut BTreeMap<&'static str, f64>,
    spans: &[SpanRec],
    delta: &RegistryDelta,
    ops: usize,
) {
    let per_op = |x: f64| if ops == 0 { 0.0 } else { x / ops as f64 };
    values.insert("mwm-mapreduce.pass_ms", per_op(durations_ms(spans, "pass").iter().sum()));
    values.insert("mwm-mapreduce.passes", per_op(delta.counter("pass_total")));
    values.insert("mwm-mapreduce.edges_streamed", per_op(delta.counter("pass_edges_total")));
}
