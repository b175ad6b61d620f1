//! A record of the host's load during a run, so that a slow run on a busy
//! host can be told apart from a slow program. Read-only: everything comes
//! from `/proc`, and a missing file reads as zero.

use std::fs;

/// Host load over one measured phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostRecord {
    /// Online CPUs as the process sees them.
    pub nproc: usize,
    /// Time this process's threads spent runnable but waiting for a CPU
    /// (summed `/proc/self/task/*/schedstat` run-queue wait), in ms.
    pub runq_wait_ms: f64,
    /// The host's steal time as a share of all CPU time (`/proc/stat`), in %.
    pub steal_pct: f64,
}

impl HostRecord {
    /// One JSON line.
    pub fn line(&self) -> String {
        format!(
            "{{\"host\": {{\"nproc\": {}, \"runq_wait_ms\": {:.3}, \"steal_pct\": {:.3}}}}}",
            self.nproc, self.runq_wait_ms, self.steal_pct
        )
    }
}

/// Counters at the start of a phase.
pub struct HostProbe {
    runq_wait_ns: u64,
    cpu: Option<(u64, u64)>,
}

impl HostProbe {
    /// Reads the counters now.
    pub fn start() -> Self {
        HostProbe { runq_wait_ns: runq_wait_ns(), cpu: cpu_steal_total() }
    }

    /// The load since [`HostProbe::start`].
    pub fn finish(&self) -> HostRecord {
        let steal_pct = match (self.cpu, cpu_steal_total()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        };
        HostRecord {
            nproc: nproc(),
            runq_wait_ms: runq_wait_ns().saturating_sub(self.runq_wait_ns) as f64 / 1e6,
            steal_pct,
        }
    }
}

/// Online CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run-queue wait summed over the process's live threads, in ns.
fn runq_wait_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1).and_then(|w| w.parse::<u64>().ok()))
        .sum()
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_steal_total() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]; the
    // guest fields are already counted in user and nice.
    let total: u64 = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
