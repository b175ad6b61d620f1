//! `solve-batch`: cold dual-primal solves of static weighted general graphs,
//! all in one size class, through `MatchingSolver::solve`.

use crate::check::{check_matching, check_quality, greedy_weight, vertex_bound};
use crate::report::{mean, median, Timed};
use crate::trace::{self, RegistryDelta, SpanRec};
use crate::{gen, Bench, RunConfig, Scale};
use dual_primal_matching::engine::{MatchingSolver, ResourceBudget, SolveReport};
use dual_primal_matching::graph::{Edge, Graph};
use dual_primal_matching::solver::{DualPrimalConfig, DualPrimalSolver};
use std::collections::BTreeMap;
use std::time::Instant;

/// Accuracy and round/space exponent of every solve.
pub const EPS: f64 = 0.2;
pub const P: f64 = 2.0;

struct Sizes {
    /// Vertices per instance.
    n: usize,
    /// Edges per instance: several times `n^{1+1/p}`.
    m: usize,
    /// Distinct instances a round cycles through.
    instances: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        // n^{1+1/p} = 512, so m = 1600 leaves the sparsifiers ~3x room.
        Scale::Full => Sizes { n: 64, m: 1600, instances: 16 },
        Scale::Mini => Sizes { n: 16, m: 60, instances: 2 },
    }
}

struct Instance {
    graph: Graph,
    live: BTreeMap<usize, Edge>,
    bound: f64,
    greedy: f64,
}

/// Per-solve figures kept for the traced run's layer metrics.
struct SolveFigures {
    rounds: f64,
    oracle_iterations: f64,
    cap_hit: bool,
    stored_edges: f64,
    kept_fraction: f64,
}

pub struct SolveBatch {
    n: usize,
    instances: Vec<Instance>,
    solver: DualPrimalSolver,
    round_cap: usize,
    figures: Vec<SolveFigures>,
}

impl SolveBatch {
    pub fn setup(cfg: &RunConfig, _index: usize) -> Result<Self, String> {
        let s = sizes(cfg.scale);
        let instances = (0..s.instances)
            .map(|i| {
                let edges = gen::gnm_edges(s.n, s.m, &mut gen::rng(cfg.seed, 100 + i as u64));
                Instance {
                    graph: gen::graph_of(s.n, &edges),
                    live: edges.iter().copied().enumerate().collect(),
                    bound: vertex_bound(s.n, edges.iter().copied()),
                    greedy: greedy_weight(s.n, &edges),
                }
            })
            .collect();
        let config = DualPrimalConfig::builder()
            .eps(EPS)
            .p(P)
            .seed(gen::splitmix64(cfg.seed))
            .build()
            .map_err(|e| e.to_string())?;
        let solver = DualPrimalSolver::new(config).map_err(|e| e.to_string())?;
        let mut bench = SolveBatch {
            n: s.n,
            instances,
            solver,
            round_cap: (2.0 * P / EPS).ceil() as usize,
            figures: Vec::new(),
        };
        let mut errors = Vec::new();
        bench.solve_one(0, &mut Timed::default(), &mut errors);
        bench.figures.clear();
        match errors.first() {
            Some(e) => Err(format!("warm-up solve: {e}")),
            None => Ok(bench),
        }
    }

    fn solve_one(&mut self, i: usize, timed: &mut Timed, errors: &mut Vec<String>) {
        let inst = &self.instances[i];
        let start = Instant::now();
        let result = self.solver.solve(&inst.graph, &ResourceBudget::unlimited());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(report) => {
                if let Err(e) = self.check(inst, &report) {
                    errors.push(format!("solve of instance {i}: {e}"));
                }
                let m = inst.graph.num_edges() as f64;
                let main_rounds = report.stat("main_rounds").unwrap_or(0.0);
                let stored = report.stat("sparsifier_edges_last_round").unwrap_or(0.0);
                let per_round =
                    report.stat("sparsifiers_built").unwrap_or(0.0) / main_rounds.max(1.0);
                self.figures.push(SolveFigures {
                    rounds: report.rounds() as f64,
                    oracle_iterations: report.oracle_iterations as f64,
                    cap_hit: main_rounds as usize >= self.round_cap,
                    stored_edges: stored,
                    kept_fraction: stored / (per_round * m).max(1.0),
                });
                timed.record(
                    ms,
                    report.weight / inst.bound,
                    report.rounds() as f64,
                    report.peak_central_space() as f64,
                );
            }
            Err(e) => {
                errors.push(format!("solve of instance {i} failed: {e}"));
                timed.record_failure();
            }
        }
    }

    fn check(&self, inst: &Instance, report: &SolveReport) -> Result<(), String> {
        let entries: Vec<(usize, Edge, u64)> = report.matching.iter().collect();
        check_matching(self.n, &inst.live, &entries, report.weight)?;
        check_quality(report.weight, EPS, inst.greedy)
    }
}

impl Bench for SolveBatch {
    fn round(&mut self, timed: &mut Timed, errors: &mut Vec<String>) {
        for i in 0..self.instances.len() {
            self.solve_one(i, timed, errors);
        }
    }

    fn verify(&mut self, _timed: &mut Timed, _errors: &mut Vec<String>) {}

    fn layers(
        &mut self,
        traced: &Timed,
        spans: &[SpanRec],
        _delta: &RegistryDelta,
        values: &mut BTreeMap<&'static str, f64>,
        _errors: &mut Vec<String>,
    ) {
        // Only the traced phase's solves: the untraced half came first.
        let figures = &self.figures[self.figures.len() - traced.latencies_ms.len()..];
        let avg = |f: fn(&SolveFigures) -> f64| mean(&figures.iter().map(f).collect::<Vec<_>>());
        values.insert("mwm-core.solve_ms", trace::median_ms(spans, "solve"));
        values.insert("mwm-core.self_ms", median(&trace::self_ms(spans, "solve", "pass")));
        values.insert("mwm-core.solves", figures.len() as f64);
        values.insert("mwm-core.rounds", avg(|f| f.rounds));
        values.insert("mwm-core.oracle_iterations", avg(|f| f.oracle_iterations));
        values.insert("mwm-core.cap_hits", figures.iter().filter(|f| f.cap_hit).count() as f64);
        values.insert("mwm-sparsify.stored_edges", avg(|f| f.stored_edges));
        values.insert("mwm-sparsify.kept_fraction", avg(|f| f.kept_fraction));
    }
}
