//! The benchmark of the dual-primal matching system.
//!
//! Four closed-loop workloads — one client thread, one operation in flight —
//! each drive one group of layers through public functions only:
//!
//! * `solve-batch`: cold `MatchingSolver::solve` calls on static graphs;
//! * `serve-write`: sliding-window batches over a Unix socket to persisted,
//!   resident sessions (`NetClient` → `MatchingService` → `DynamicMatcher`
//!   epochs → `SessionStore` journal);
//! * `serve-read`: committed-matching reads over the socket to many more
//!   sessions than stay resident, so reads revive hibernated images;
//! * `ooc-solve`: `out_of_core_matching` over a stream spilled to disk with
//!   `SpillWriter` and read back through `SpilledShards` and `PassEngine`.
//!
//! An untraced run prints the end-to-end metrics; a traced run prints the
//! per-layer ones (see `README.md` for the map between the two).

pub mod check;
pub mod gen;
pub mod host;
pub mod ooc;
pub mod report;
pub mod serve;
pub mod solve;
pub mod trace;

use host::{HostProbe, HostRecord};
use report::{median, Report, Timed};
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; the reported `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SolveBatch,
    ServeWrite,
    ServeRead,
    OocSolve,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SolveBatch, Workload::ServeWrite, Workload::ServeRead, Workload::OocSolve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveBatch => "solve-batch",
            Workload::ServeWrite => "serve-write",
            Workload::ServeRead => "serve-read",
            Workload::OocSolve => "ooc-solve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Mini` a miniature of
/// the same shapes for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Mini,
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase in seconds (a traced run splits it into
    /// an untraced and a traced half).
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for spills, stores and sockets; removed afterwards.
    pub work_dir: PathBuf,
}

impl RunConfig {
    /// A fresh sub-directory of the work directory for one set-up.
    pub fn setup_dir(&self, index: usize) -> Result<PathBuf, String> {
        let dir = self.work_dir.join(format!("setup-{index}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// A workload after set-up: it can run whole rounds of its operations and
/// check what the program returned.
pub trait Bench {
    /// One whole round of operations, each timed and recorded in `timed`.
    /// Outputs that fail a check are appended to `errors`.
    fn round(&mut self, timed: &mut Timed, errors: &mut Vec<String>);

    /// Checks made once after the measured phases (final state, replays).
    /// May fill in per-operation figures only a replay can give.
    fn verify(&mut self, timed: &mut Timed, errors: &mut Vec<String>);

    /// After a traced phase: the workload's per-layer figures. Runs the
    /// benchmark's own extra timed calls (in-process twins, readback passes).
    fn layers(
        &mut self,
        traced: &Timed,
        spans: &[trace::SpanRec],
        delta: &trace::RegistryDelta,
        values: &mut std::collections::BTreeMap<&'static str, f64>,
        errors: &mut Vec<String>,
    );
}

/// Runs whole rounds until `seconds` have passed.
pub fn measure(
    bench: &mut dyn Bench,
    seconds: f64,
    errors: &mut Vec<String>,
) -> (Timed, HostRecord) {
    let probe = HostProbe::start();
    let mut timed = Timed::default();
    let start = Instant::now();
    loop {
        bench.round(&mut timed, errors);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (timed, probe.finish())
}

/// Sets the workload up [`SETUPS`] times (each set-up builds its inputs and
/// state afresh and ends with one untimed warm-up operation), keeps the last
/// and returns it with the median set-up time.
pub fn setup_median<B>(
    mut setup: impl FnMut(usize) -> Result<B, String>,
) -> Result<(B, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        // Tear the previous set-up down before timing the next one.
        drop(kept.take());
        let start = Instant::now();
        let bench = setup(i)?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(bench);
    }
    Ok((kept.expect("at least one set-up ran"), median(&times)))
}

/// Runs one workload end to end and returns its report.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let result = match cfg.workload {
        Workload::SolveBatch => {
            let (bench, setup_s) = setup_median(|i| solve::SolveBatch::setup(cfg, i))?;
            drive(cfg, bench, setup_s)
        }
        Workload::ServeWrite => {
            let (bench, setup_s) = setup_median(|i| serve::ServeWrite::setup(cfg, i))?;
            drive(cfg, bench, setup_s)
        }
        Workload::ServeRead => {
            let (bench, setup_s) = setup_median(|i| serve::ServeRead::setup(cfg, i))?;
            drive(cfg, bench, setup_s)
        }
        Workload::OocSolve => {
            let (bench, setup_s) = setup_median(|i| ooc::OocSolve::setup(cfg, i))?;
            drive(cfg, bench, setup_s)
        }
    };
    std::fs::remove_dir_all(&cfg.work_dir).ok();
    result
}

/// The measured phases of a set-up workload.
fn drive(cfg: &RunConfig, mut bench: impl Bench, setup_s: f64) -> Result<Report, String> {
    let mut errors = Vec::new();
    let mut report = Report::default();
    if !cfg.trace {
        let (mut timed, host) = measure(&mut bench, cfg.seconds, &mut errors);
        let peak_rss_mb = host::peak_rss_mb();
        bench.verify(&mut timed, &mut errors);
        report.metrics = timed.end_to_end(setup_s, peak_rss_mb);
        report.attempted = timed.attempted;
        report.failed = timed.failed;
        report.latencies_ms = timed.latencies_ms;
        report.host = host;
    } else {
        let half = cfg.seconds / 2.0;
        let (untraced, _) = measure(&mut bench, half, &mut errors);
        trace::start();
        let before = dual_primal_matching::obs::snapshot();
        let (mut traced, host) = measure(&mut bench, half, &mut errors);
        let spans = trace::stop();
        let delta = trace::RegistryDelta::new(before, dual_primal_matching::obs::snapshot());
        let mut values = std::collections::BTreeMap::new();
        trace::pass_layer(&mut values, &spans, &delta, traced.latencies_ms.len());
        bench.layers(&traced, &spans, &delta, &mut values, &mut errors);
        let (u, t) = (untraced.ops_per_s(), traced.ops_per_s());
        if u > 0.0 {
            values.insert("trace.overhead_pct", 100.0 * (1.0 - t / u));
        }
        bench.verify(&mut traced, &mut errors);
        report.metrics = trace::layer_metrics(&values);
        report.attempted = untraced.attempted + traced.attempted;
        report.failed = untraced.failed + traced.failed;
        report.latencies_ms = traced.latencies_ms;
        report.host = host;
    }
    report.correct = errors.is_empty();
    report.errors = errors;
    Ok(report)
}
