//! Every workload at miniature scale (including `serve-read`, which
//! `BENCHMARK.json` does not list), untraced on two seeds and traced on a
//! third: each run completes with every check passing and prints exactly the
//! metrics `BENCHMARK.json` declares. (One test function: the span
//! subscriber a traced run installs is process-wide.)

use mwm_perfbench::{run, trace::LAYER_METRICS, RunConfig, Scale, Workload};
use std::path::PathBuf;

/// The metric names listed under `section` in the repository's
/// `BENCHMARK.json` (a flat scan: each metric object starts with `"name"`).
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text.find(&format!("\"{section}\"")).expect("section is present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|item| item.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

#[test]
fn every_workload_runs_clean_at_miniature_scale() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let layer_names: Vec<String> = LAYER_METRICS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(per_layer, layer_names, "BENCHMARK.json and the traced run disagree");
    for name in declared("workloads") {
        assert!(Workload::parse(&name).is_some(), "BENCHMARK.json names unknown workload {name}");
    }

    for workload in Workload::ALL {
        for (seed, trace) in [(1, false), (2, false), (3, true)] {
            let cfg = RunConfig {
                workload,
                seed,
                seconds: 0.3,
                trace,
                scale: Scale::Mini,
                work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
                    "mini-{}-{seed}-{}",
                    workload.name(),
                    std::process::id()
                )),
            };
            let label = format!("{} seed {seed} trace {trace}", workload.name());
            let report = run(&cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(report.correct, "{label}: {:?}", report.errors);
            assert!(report.attempted > 0 && report.failed == 0, "{label}");
            let names: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
            let expected = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&names, expected, "{label}");
            if !trace {
                for m in &report.metrics {
                    assert!(
                        m.value > 0.0 && m.value.is_finite(),
                        "{label}: {} = {}",
                        m.name,
                        m.value
                    );
                }
            }
            assert!(report.result_line().starts_with("{\"correct\": true"));
            assert!(!cfg.work_dir.exists(), "{label}: the work directory is removed");
        }
    }
}
