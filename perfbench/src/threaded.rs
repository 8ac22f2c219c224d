//! The threaded workloads: `spawn_udp` / `spawn_live` deployments driven by
//! closed-loop `LiveClient` threads in this process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use harmonia::obs::{dump_for_key, ObsSnapshot, TraceEvent};
use harmonia::prelude::{Cluster, DeploymentSpec, KvClient, LiveClient, LiveCluster, UdpCluster};
use harmonia::workload::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::{self, key_name, make_value, value_id, Op};
use crate::host::{delta, HostSample};
use crate::replay::{self, StreamOp};
use crate::stats::{median, quantile, ratio, trimmed_mean, Metrics, SLOT_TRIM};
use crate::{counters, hops, Args, Driver, Outcome, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Threads that preload the key space.
const PRELOAD_THREADS: u32 = 4;
/// Load before the measured window opens.
const WARMUP: Duration = Duration::from_millis(500);
/// Longest op stream handed to the layer replay.
const REPLAY_OPS: usize = 20_000;
/// Target length of one slot of a measured window.
const SLOT: Duration = Duration::from_secs(1);

enum Rig {
    Live(LiveCluster),
    Udp(UdpCluster),
}

impl Rig {
    fn spawn(driver: Driver, spec: &DeploymentSpec) -> Rig {
        match driver {
            Driver::Udp => Rig::Udp(spec.spawn_udp()),
            _ => Rig::Live(spec.spawn_live()),
        }
    }

    fn client(&self) -> LiveClient {
        match self {
            Rig::Live(c) => c.client(),
            Rig::Udp(c) => c.client(),
        }
    }

    fn cluster(&self) -> &dyn Cluster {
        match self {
            Rig::Live(c) => c,
            Rig::Udp(c) => c,
        }
    }

    fn shutdown(self) {
        match self {
            Rig::Live(c) => c.shutdown(),
            Rig::Udp(c) => c.shutdown(),
        }
    }
}

fn since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// Spawn, preload every key, and wait for the switch fast path to arm.
fn setup(w: &Workload, spec: &DeploymentSpec, base: Instant) -> Result<(Rig, Vec<Op>), String> {
    let rig = Rig::spawn(w.driver, spec);
    let loaded: Vec<Result<Vec<Op>, String>> = thread::scope(|s| {
        let handles: Vec<_> = (0..PRELOAD_THREADS)
            .map(|t| {
                let mut client = rig.client();
                s.spawn(move || {
                    let mut ops = Vec::new();
                    for key in (t..w.keys).step_by(PRELOAD_THREADS as usize) {
                        let id = value_id(0, u64::from(key));
                        let invoke = since(base);
                        client
                            .set_bytes(key_name(key), make_value(key, id))
                            .map_err(|e| format!("preload of key {key} failed: {e}"))?;
                        ops.push(Op {
                            write: true,
                            key,
                            val: id,
                            invoke,
                            complete: since(base),
                        });
                    }
                    Ok(ops)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .collect()
    });
    let mut ops = Vec::new();
    for l in loaded {
        ops.extend(l?);
    }
    let armed_by = Instant::now() + Duration::from_secs(5);
    while rig.cluster().fast_path_enabled() != Some(true) {
        if Instant::now() > armed_by {
            return Err("switch fast path did not arm after the preload".into());
        }
        thread::sleep(Duration::from_millis(1));
    }
    Ok((rig, ops))
}

#[derive(Default)]
struct ThreadOut {
    ops: Vec<Op>,
    /// `(key, value id)` of writes that returned an error.
    unfinished: Vec<(u32, u64)>,
    attempted: u64,
    failed: u64,
}

/// One closed-loop client: the next op is issued when the last returns.
fn client_loop(
    mut client: LiveClient,
    w: &Workload,
    seed: u64,
    tid: u64,
    stop: &AtomicBool,
    base: Instant,
) -> ThreadOut {
    let mut rng = SmallRng::seed_from_u64(seed ^ (tid + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let zipf = w.zipf.map(|theta| Zipf::new(w.keys as usize, theta));
    let names: Vec<Bytes> = (0..w.keys).map(key_name).collect();
    let mut out = ThreadOut::default();
    let mut seq = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let write = rng.gen::<f64>() >= w.read_share;
        let key = match &zipf {
            Some(z) => z.sample(&mut rng) as u32,
            None => rng.gen_range(0..w.keys),
        };
        let name = names[key as usize].clone();
        out.attempted += 1;
        let invoke = since(base);
        let val = if write {
            seq += 1;
            let id = value_id(tid + 1, seq);
            match client.set_bytes(name, make_value(key, id)) {
                Ok(()) => Some(id),
                Err(_) => {
                    out.unfinished.push((key, id));
                    None
                }
            }
        } else {
            client
                .get_bytes(name)
                .ok()
                .map(|v| check::read_id(key, v.as_deref()))
        };
        let complete = since(base);
        match val {
            Some(val) => out.ops.push(Op {
                write,
                key,
                val,
                invoke,
                complete,
            }),
            None => out.failed += 1,
        }
    }
    out
}

/// A window edge: time, `/proc` counters and (traced) the obs snapshot.
struct Edge {
    at: u64,
    host: HostSample,
    obs: Option<ObsSnapshot>,
}

/// One measured run on one cluster: the slots' edges, the load history,
/// and (traced) the trace rings read at the end.
struct Measured {
    edges: Vec<Edge>,
    ops: Vec<Op>,
    unfinished: Vec<(u32, u64)>,
    attempted: u64,
    failed: u64,
    events: Vec<TraceEvent>,
}

/// Drive `rig` with the workload's clients: warm up, then `halves` halves
/// of `half_s` seconds, each cut into `per_half` slots. With `trace`, the
/// last half is traced: obs snapshots at its edges, trace rings at its end.
fn measure(rig: &Rig, args: &Args, round: u64, half_s: f64, per_half: usize) -> Measured {
    let w = &args.workload;
    let halves = if args.trace { 2 } else { 1 };
    let slot = Duration::from_secs_f64(half_s / per_half as f64);
    let stop = AtomicBool::new(false);
    let base = args.base;
    let mut edges: Vec<Edge> = Vec::new();
    let mut events = Vec::new();
    let outs: Vec<ThreadOut> = thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients as u64)
            .map(|tid| {
                let client = rig.client();
                let (stop, id) = (&stop, round * w.clients as u64 + tid);
                s.spawn(move || client_loop(client, w, args.seed, id, stop, base))
            })
            .collect();
        thread::sleep(WARMUP);
        let mut next = Instant::now();
        for i in 0..=halves * per_half {
            if i > 0 {
                next += slot;
                thread::sleep(next.saturating_duration_since(Instant::now()));
            }
            let traced = args.trace && i >= per_half && i % per_half == 0;
            edges.push(Edge {
                at: since(base),
                host: HostSample::take(),
                obs: traced.then(|| rig.cluster().obs_snapshot()),
            });
        }
        if args.trace {
            events = rig.cluster().trace_events();
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut m = Measured {
        edges,
        ops: Vec::new(),
        unfinished: Vec::new(),
        attempted: 0,
        failed: 0,
        events,
    };
    for o in outs {
        m.attempted += o.attempted;
        m.failed += o.failed;
        m.unfinished.extend(o.unfinished);
        m.ops.extend(o.ops);
    }
    m
}

/// Per-slot figures of the end-to-end metrics.
#[derive(Clone, Copy)]
struct SlotFigures {
    ops_per_s: f64,
    read_p50_us: f64,
    write_p50_us: f64,
    cpu_us_per_op: f64,
    read_mrps: f64,
}

impl SlotFigures {
    fn of(s: &Window) -> SlotFigures {
        let (reads, writes) = (s.latencies(Some(false)), s.latencies(Some(true)));
        SlotFigures {
            ops_per_s: s.ops_per_s(),
            read_p50_us: quantile(&reads, 0.5) / 1e3,
            write_p50_us: quantile(&writes, 0.5) / 1e3,
            cpu_us_per_op: s.cpu_us_per_op(),
            read_mrps: ratio(reads.len() as f64, s.secs) / 1e6,
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = &args.workload;
    let spec = w.spec(args.seed);
    // Untraced: the window is split over `SETUPS` fresh clusters, each set
    // up (timed), measured and shut down in turn, so thread placement and
    // other per-cluster luck is sampled three times. Each cluster's window
    // is cut into slots of about `SLOT`; every figure is taken per slot and
    // the trimmed mean over all slots reported, so a burst of host noise
    // moves a slot rather than the run.
    // Traced: one cluster, an untraced half window, then a traced half.
    let (rounds, halves) = if args.trace { (1, 2) } else { (SETUPS, 1) };
    let half_s = args.seconds / (rounds * halves) as f64;
    let per_half = (half_s / SLOT.as_secs_f64()).round().max(1.0) as usize;
    let mut setup_s = Vec::new();
    let mut slots: Vec<SlotFigures> = Vec::new();
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut failure = None;
    for round in 0..rounds {
        let t = Instant::now();
        let (rig, mut history) = setup(w, &spec, args.base)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let run = measure(&rig, args, round as u64, half_s, per_half);
        attempted += run.attempted;
        failed += run.failed;
        history.extend(run.ops.iter().copied());
        match check::check(&history, &run.unfinished) {
            Ok(c) => eprintln!(
                "  round {round}: set-up {:.3} s; checked {} ops, {} keys linearizable, {} keys over the 64-op limit",
                setup_s[round],
                history.len(),
                c.keys_checked,
                c.keys_skipped
            ),
            Err(f) => {
                let events = rig.cluster().trace_events();
                failure = Some((f.reason, dump_for_key(&events, &key_name(f.key))));
            }
        }
        // The cluster stops before the layer replay, whose timings its
        // (possibly polling) threads would otherwise share the cores with.
        rig.shutdown();
        let windows: Vec<Window> = run
            .edges
            .windows(2)
            .map(|e| Window::new(&run.ops, &e[0], &e[1]))
            .collect();
        if args.trace {
            let (untraced, traced) = windows.split_at(per_half);
            let edges = (&run.edges[per_half], &run.edges[2 * per_half]);
            traced_metrics(
                w,
                &spec,
                args.seed,
                untraced,
                traced,
                edges,
                &run.events,
                &mut m,
            );
        } else {
            slots.extend(windows.iter().map(SlotFigures::of));
        }
        if failure.is_some() {
            break;
        }
    }
    if args.trace {
        m.put(
            "client.failed_op_share",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
    } else {
        let avg = |f: fn(&SlotFigures) -> f64| {
            trimmed_mean(&slots.iter().map(f).collect::<Vec<_>>(), SLOT_TRIM)
        };
        m.put("ops_per_s", avg(|s| s.ops_per_s), "ops/s");
        m.put("read_p50_us", avg(|s| s.read_p50_us), "us");
        m.put("write_p50_us", avg(|s| s.write_p50_us), "us");
        m.put("cpu_us_per_op", avg(|s| s.cpu_us_per_op), "us");
        m.put("read_capacity_mrps", avg(|s| s.read_mrps), "MRPS");
        m.put("setup_s", median(&setup_s), "s");
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        failure,
    })
}

/// The ops that completed inside one measured window.
struct Window<'a> {
    ops: Vec<&'a Op>,
    secs: f64,
    cpu_s: f64,
}

impl<'a> Window<'a> {
    fn new(load: &'a [Op], a: &Edge, b: &Edge) -> Window<'a> {
        let mut ops: Vec<&Op> = load
            .iter()
            .filter(|o| o.complete >= a.at && o.complete < b.at)
            .collect();
        ops.sort_by_key(|o| o.invoke);
        Window {
            ops,
            secs: (b.at - a.at) as f64 / 1e9,
            cpu_s: delta(&a.host, &b.host).cpu_s,
        }
    }

    fn latencies(&self, write: Option<bool>) -> Vec<u64> {
        self.ops
            .iter()
            .filter(|o| write.is_none_or(|w| o.write == w))
            .map(|o| o.complete - o.invoke)
            .collect()
    }

    fn ops_per_s(&self) -> f64 {
        ratio(self.ops.len() as f64, self.secs)
    }

    fn cpu_us_per_op(&self) -> f64 {
        ratio(self.cpu_s * 1e6, self.ops.len() as f64)
    }
}

/// Trimmed mean over slots of a per-slot figure.
fn per_slot<'a>(slots: &[Window<'a>], f: impl Fn(&Window<'a>) -> f64) -> f64 {
    trimmed_mean(&slots.iter().map(f).collect::<Vec<_>>(), SLOT_TRIM)
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    w: &Workload,
    spec: &DeploymentSpec,
    seed: u64,
    untraced: &[Window],
    traced: &[Window],
    (a, b): (&Edge, &Edge),
    events: &[TraceEvent],
    m: &mut Metrics,
) {
    // Tail percentiles need every sample of the traced half.
    let ops: Vec<&Op> = traced.iter().flat_map(|s| s.ops.iter().copied()).collect();
    let n = ops.len() as f64;
    let lat = |write: Option<bool>| -> Vec<u64> {
        ops.iter()
            .filter(|o| write.is_none_or(|w| o.write == w))
            .map(|o| o.complete - o.invoke)
            .collect()
    };
    let (reads, writes, all) = (lat(Some(false)), lat(Some(true)), lat(None));
    m.put("client.read_p99_us", quantile(&reads, 0.99) / 1e3, "us");
    m.put("client.write_p99_us", quantile(&writes, 0.99) / 1e3, "us");
    m.put("client.read_p999_us", quantile(&reads, 0.999) / 1e3, "us");
    let mean = ratio(all.iter().sum::<u64>() as f64, all.len() as f64);
    m.put("client.mean_us", mean / 1e3, "us");

    let (oa, ob) = (
        a.obs.as_ref().expect("traced edge"),
        b.obs.as_ref().expect("traced edge"),
    );
    let d = |f: fn(&ObsSnapshot) -> u64| f(ob).saturating_sub(f(oa)) as f64;
    let kop = n / 1e3;
    m.put(
        "client.retries_per_kop",
        ratio(d(|o| o.clients.retries), kop),
        "1/kop",
    );
    m.put(
        "client.rejected_per_kop",
        ratio(d(|o| o.clients.writes_rejected), kop),
        "1/kop",
    );

    hops::report(events, m);

    let host = delta(&a.host, &b.host);
    m.put(
        "host.ctx_switches_per_op",
        ratio(host.ctx_switches, n),
        "count",
    );
    m.put("host.sys_cpu_share", host.sys_cpu_share, "ratio");
    m.put("host.threads", host.threads, "count");
    m.put("host.steal_share", host.steal_share, "ratio");

    let frames = counters::report(oa, ob, n, m);
    m.put(
        "bench.trace_overhead_pct",
        (1.0 - ratio(
            per_slot(traced, Window::ops_per_s),
            per_slot(untraced, Window::ops_per_s),
        )) * 100.0,
        "%",
    );

    let stream: Vec<StreamOp> = ops
        .iter()
        .take(REPLAY_OPS)
        .map(|o| (o.write, o.key))
        .collect();
    let r = replay::replay(spec, w.keys, &stream, seed);
    r.report(m);
    let mut layer_us = r.logic_us_per_op();
    if w.driver == Driver::Udp {
        // Each frame crosses one socket send and one receive: half a
        // request/reply round trip.
        layer_us += ratio(frames, n) * r.loopback_rtt_us / 2.0;
    }
    m.put("attr.layer_sum_us_per_op", layer_us, "us");
    m.put(
        "attr.unattributed_us_per_op",
        per_slot(traced, Window::cpu_us_per_op) - layer_us,
        "us",
    );
}
