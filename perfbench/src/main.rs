//! End-to-end benchmark of the harmonia deployment API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through `DeploymentSpec`/`Cluster`/`KvClient` with
//! load generated in this process, checks every operation's result, and
//! prints one JSON line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A human-readable table goes to
//! stderr. A correctness failure prints the offending key's packet trace
//! and exits with code 1.

#![forbid(unsafe_code)]
// This program measures wall-clock time by design.
#![allow(clippy::disallowed_methods)]

mod check;
mod counters;
mod hops;
mod host;
mod replay;
mod simload;
mod stats;
mod threaded;

use harmonia::prelude::{DeploymentSpec, ProtocolKind};

use stats::Metrics;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Driver {
    Udp,
    Live,
    Sim,
}

/// One workload: a deployment and the load offered to it.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub driver: Driver,
    pub protocol: ProtocolKind,
    pub replicas: usize,
    /// Share of operations that are reads.
    pub read_share: f64,
    /// Keys, all preloaded with a 128-byte value.
    pub keys: u32,
    /// Zipf exponent of key popularity; `None` is uniform.
    pub zipf: Option<f64>,
    /// Closed-loop client threads (threaded drivers).
    pub clients: usize,
}

impl Workload {
    pub fn spec(&self, seed: u64) -> DeploymentSpec {
        DeploymentSpec::new()
            .protocol(self.protocol)
            .replicas(self.replicas)
            .seed(seed)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "udp-chain-read95",
        driver: Driver::Udp,
        protocol: ProtocolKind::Chain,
        replicas: 3,
        read_share: 0.95,
        keys: 10_000,
        zipf: None,
        clients: 2,
    },
    Workload {
        name: "udp-nopaxos-write50",
        driver: Driver::Udp,
        protocol: ProtocolKind::Nopaxos,
        replicas: 3,
        read_share: 0.5,
        keys: 10_000,
        zipf: Some(0.99),
        clients: 2,
    },
    Workload {
        name: "live-chain-write50",
        driver: Driver::Live,
        protocol: ProtocolKind::Chain,
        replicas: 3,
        read_share: 0.5,
        keys: 10_000,
        zipf: Some(0.99),
        clients: 2,
    },
    Workload {
        name: "sim-chain-10r",
        driver: Driver::Sim,
        protocol: ProtocolKind::Chain,
        replicas: 10,
        read_share: simload::READ_RPS / (simload::READ_RPS + simload::WRITE_RPS),
        keys: 100_000,
        zipf: None,
        clients: 1,
    },
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("read_capacity_mrps", "MRPS"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.read_p99_us", "us"),
    ("client.write_p99_us", "us"),
    ("client.read_p999_us", "us"),
    ("client.mean_us", "us"),
    ("client.retries_per_kop", "1/kop"),
    ("client.rejected_per_kop", "1/kop"),
    ("client.failed_op_share", "ratio"),
    ("hop.read.client_to_switch_us.p50", "us"),
    ("hop.read.switch_to_replica_us.p50", "us"),
    ("hop.read.replica_to_client_us.p50", "us"),
    ("hop.write.client_to_switch_us.p50", "us"),
    ("hop.write.switch_to_replica_us.p50", "us"),
    ("hop.write.replica_to_client_us.p50", "us"),
    ("hop.samples", "count"),
    ("host.ctx_switches_per_op", "count"),
    ("host.sys_cpu_share", "ratio"),
    ("host.threads", "count"),
    ("host.steal_share", "ratio"),
    ("switch.fast_path_read_share", "ratio"),
    ("switch.write_drop_share", "ratio"),
    ("switch.dirty_len_end", "count"),
    ("switch.memory_bytes", "bytes"),
    ("switch.handle_ns.read", "ns"),
    ("switch.handle_ns.write", "ns"),
    ("switch.handle_ns.completion", "ns"),
    ("replication.protocol_msgs_per_write", "count"),
    ("replication.requests_per_op", "count"),
    ("replication.read_spread_max_over_mean", "ratio"),
    ("replication.on_request_ns.read", "ns"),
    ("replication.on_request_ns.write", "ns"),
    ("replication.on_protocol_ns", "ns"),
    ("kv.get_ns", "ns"),
    ("kv.put_ns", "ns"),
    ("wire.bytes_per_op", "bytes"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("net.frames_per_op", "count"),
    ("net.datagrams_per_op", "count"),
    ("net.frames_per_datagram", "ratio"),
    ("net.recv_pool_hit_rate", "ratio"),
    ("net.send_pool_hit_rate", "ratio"),
    ("net.loopback_rtt_us.p50", "us"),
    ("sim.events_per_op", "count"),
    ("sim.wall_ns_per_event", "ns"),
    ("sim.baseline_max_read_mrps", "MRPS"),
    ("sim.harmonia_speedup", "x"),
    ("obs.trace_dropped_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("attr.layer_sum_us_per_op", "us"),
    ("attr.unattributed_us_per_op", "us"),
];

pub struct Args {
    /// Zero of every wall-clock timestamp of the run.
    pub base: std::time::Instant,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs were wrong, and the offending key's packet trace.
    pub failure: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        base: std::time::Instant::now(),
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Keep exactly the declared metrics, in declared order.
fn declared(m: &Metrics, names: &[(&str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        out.put(name, m.get(name).unwrap_or(0.0), unit);
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={} cores={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let outcome = match w.driver {
        Driver::Udp | Driver::Live => threaded::run(&args),
        Driver::Sim => simload::run(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = declared(&outcome.metrics, names);
    eprint!("{}", metrics.table());
    if let Some((reason, dump)) = &outcome.failure {
        println!("correctness check failed: {reason}");
        println!("{dump}");
        println!(
            "{}",
            metrics.result_json(false, outcome.attempted, outcome.failed)
        );
        std::process::exit(1);
    }
    println!(
        "{}",
        metrics.result_json(true, outcome.attempted, outcome.failed)
    );
}
