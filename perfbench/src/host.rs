//! Process and host counters from `/proc`, sampled at the edges of a
//! measured window (not after thread join: an exited thread takes its
//! context-switch counts with it).

use std::fs;

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, fixed
/// at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

#[derive(Clone, Copy, Debug, Default)]
pub struct HostSample {
    /// Process user CPU, seconds (all threads, live and exited).
    pub user_s: f64,
    /// Process system CPU, seconds.
    pub sys_s: f64,
    /// Voluntary + involuntary context switches summed over live threads.
    pub ctx_switches: u64,
    /// Live threads of this process.
    pub threads: u64,
    /// Host-wide steal ticks and total ticks (from `/proc/stat`).
    pub steal_ticks: u64,
    pub total_ticks: u64,
}

impl HostSample {
    pub fn take() -> HostSample {
        let (user_s, sys_s) = process_cpu();
        let (ctx_switches, threads) = thread_switches();
        let (steal_ticks, total_ticks) = host_steal();
        HostSample {
            user_s,
            sys_s,
            ctx_switches,
            threads,
            steal_ticks,
            total_ticks,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// What changed between two samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostDelta {
    pub cpu_s: f64,
    pub sys_cpu_share: f64,
    pub ctx_switches: f64,
    pub threads: f64,
    pub steal_share: f64,
}

pub fn delta(a: &HostSample, b: &HostSample) -> HostDelta {
    let cpu_s = (b.cpu_s() - a.cpu_s()).max(0.0);
    let sys = (b.sys_s - a.sys_s).max(0.0);
    let total = b.total_ticks.saturating_sub(a.total_ticks) as f64;
    let steal = b.steal_ticks.saturating_sub(a.steal_ticks) as f64;
    HostDelta {
        cpu_s,
        sys_cpu_share: crate::stats::ratio(sys, cpu_s),
        ctx_switches: b.ctx_switches.saturating_sub(a.ctx_switches) as f64,
        threads: b.threads as f64,
        steal_share: crate::stats::ratio(steal, total),
    }
}

/// `utime`/`stime` of `/proc/self/stat`, in seconds.
fn process_cpu() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space separated, starting at field 3.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime is field 14, stime field 15: indices 11 and 12 after field 2.
    (tick(11) / TICKS_PER_S, tick(12) / TICKS_PER_S)
}

/// Context switches summed over `/proc/self/task/*/status`, and the number
/// of live threads.
fn thread_switches() -> (u64, u64) {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let mut switches = 0;
    let mut threads = 0;
    for entry in dir.flatten() {
        let Ok(status) = fs::read_to_string(entry.path().join("status")) else {
            continue;
        };
        threads += 1;
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                switches += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    (switches, threads)
}

/// Steal ticks and all ticks of the aggregate `cpu` line of `/proc/stat`.
fn host_steal() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total: u64 = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total)
}
