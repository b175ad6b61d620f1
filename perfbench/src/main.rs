//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, in order: the host record, the op-latency
//! ventiles, and as the last line the result object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

use mwm_perfbench::{run, RunConfig, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        match args[i].as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    ));
    let config = RunConfig { workload, seed, seconds, trace, scale: Scale::Full, work_dir };
    match run(&config) {
        Ok(report) => {
            for e in &report.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            println!("{}", report.host.line());
            println!("{}", report.ventile_line());
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}
