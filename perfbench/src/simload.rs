//! The simulator workload: a 10-replica chain under open-loop load in
//! virtual time, a fixed offered point plus a search for the highest read
//! rate that meets the latency limit without a growing replica backlog.
//!
//! Load comes from this module's own generator actor, which keeps exact
//! per-op virtual latencies (the program's histograms are log-bucketed) and
//! checks every read it gets back.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant as WallInstant;

use harmonia::core::Msg;
use harmonia::obs::{dump_for_key, TraceEvent, TraceStage};
use harmonia::prelude::{
    Cluster, DeploymentSpec, Duration, Instant, NodeId, ReplicaId, SimCluster,
};
use harmonia::sim::{Actor, Context, TimerToken};
use harmonia::types::{
    ClientId, ClientRequest, ObjectId, PacketBody, RequestId, TraceId, WriteOutcome,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::{self, key_name, make_value, value_id, Op};
use crate::host::{delta, HostSample};
use crate::replay::{self, StreamOp};
use crate::stats::{median, quantile, ratio, trimmed_mean, Metrics, SLOT_TRIM};
use crate::{counters, hops, Args, Outcome, Workload};

/// The fixed offered point: reads and writes per virtual second.
pub const READ_RPS: f64 = 6.0e6;
pub const WRITE_RPS: f64 = 6.0e4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Preload write rate, below the chain's write capacity.
const PRELOAD_RPS: f64 = 400_000.0;
/// Fixed point: virtual warm-up, then the span whose ops are measured.
const WARMUP_US: u64 = 1_000;
const SPAN_US: u64 = 20_000;
/// An op without a reply after this long has failed.
const TIMEOUT_US: u64 = 5_000;
/// Read p99 limit of the max-rate search.
const P99_LIMIT_US: f64 = 50.0;
/// Search trial: warm-up and measured span, virtual.
const TRIAL_WARMUP_US: u64 = 500;
const TRIAL_SPAN_US: u64 = 1_500;
/// Bisection steps of the search.
const SEARCH_STEPS: usize = 8;
/// Events per wall-clock check while the fixed point runs.
const STEP_CHUNK: u64 = 20_000;
/// Target wall length of one slot of the fixed point's window; the
/// window's rates are medians over slots.
const SLOT_S: f64 = 1.0;
/// Completed ops whose client stamps are kept for the hop decomposition.
const STAMPS_KEPT: usize = 8_192;
/// Node id of the first search generator (one per trial).
const SEARCH_FIRST_ID: u32 = 100;
/// Node id of the fixed-point generator.
const FIXED_ID: u32 = 2;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

struct Pending {
    sent: u64,
    write: bool,
    key: u32,
    val: u64,
    repliers: usize,
}

/// Key of every value id written in a world, shared by its generators.
type Written = Arc<Mutex<HashMap<u64, u32>>>;

fn lock(w: &Written) -> std::sync::MutexGuard<'_, HashMap<u64, u32>> {
    w.lock()
        .expect("generators run on one thread and never panic holding the lock")
}

/// Open-loop generator: Poisson arrivals at `rps`, each a write with
/// probability `write_share`, keys uniform. In preload mode it writes every
/// key once, in order, instead.
struct LoadGen {
    id: ClientId,
    switch: NodeId,
    write_replies: usize,
    rng: SmallRng,
    keys: u32,
    gap_ns: f64,
    write_share: f64,
    preload_next: Option<u32>,
    next_at: f64,
    active: bool,
    arrival: Option<TimerToken>,
    gc: Option<TimerToken>,
    next_rid: u64,
    pending: HashMap<u64, Pending>,
    /// Key of every value id written by any generator of the world.
    written: Written,
    next_seq: u64,
    /// Ops sent in `[span.0, span.1)` are measured; history is kept for
    /// every op sent before `span.1`, and every write sent before
    /// `span.1 + TIMEOUT_US`, which a measured read may return.
    span: (u64, u64),
    read_lat: Vec<u64>,
    write_lat: Vec<u64>,
    history: Vec<Op>,
    unfinished: Vec<(u32, u64)>,
    stamps: VecDeque<(TraceId, ObjectId, u64, u64)>,
    sent: u64,
    completed: u64,
    failed: u64,
    rejected: u64,
    /// First read that returned a value never written to its key.
    bad_read: Option<u32>,
}

impl LoadGen {
    fn new(
        spec: &DeploymentSpec,
        written: &Written,
        id: u32,
        keys: u32,
        (read_rps, write_rps): (f64, f64),
        seed: u64,
    ) -> Self {
        let rps = read_rps + write_rps;
        LoadGen {
            id: ClientId(id),
            switch: spec.switch_addr(),
            write_replies: spec.write_replies(),
            rng: SmallRng::seed_from_u64(seed ^ u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            keys,
            gap_ns: 1e9 / rps,
            write_share: write_rps / rps,
            preload_next: None,
            next_at: 0.0,
            active: true,
            arrival: None,
            gc: None,
            next_rid: 0,
            pending: HashMap::new(),
            written: Arc::clone(written),
            next_seq: 0,
            span: (0, 0),
            read_lat: Vec::new(),
            write_lat: Vec::new(),
            history: Vec::new(),
            unfinished: Vec::new(),
            stamps: VecDeque::new(),
            sent: 0,
            completed: 0,
            failed: 0,
            rejected: 0,
            bad_read: None,
        }
    }

    fn preload(spec: &DeploymentSpec, written: &Written, keys: u32, seed: u64) -> Self {
        let mut g = LoadGen::new(spec, written, 1, keys, (0.0, PRELOAD_RPS), seed);
        g.preload_next = Some(0);
        g.span = (0, u64::MAX);
        g
    }

    fn measure(mut self, from: u64, until: u64) -> Self {
        self.span = (from, until);
        self
    }

    fn in_span(&self, t: u64) -> bool {
        self.span.0 <= t && t < self.span.1
    }

    fn preload_done(&self) -> bool {
        self.preload_next.is_some_and(|k| k >= self.keys) && self.pending.is_empty()
    }

    fn send_one(&mut self, ctx: &mut Context<'_, Msg>) {
        let now = ctx.now().nanos();
        let (write, key, val) = match self.preload_next {
            Some(k) if k >= self.keys => {
                self.active = false;
                return;
            }
            Some(k) => {
                self.preload_next = Some(k + 1);
                (true, k, value_id(0, u64::from(k)))
            }
            None => {
                let write = self.rng.gen::<f64>() < self.write_share;
                let key = self.rng.gen_range(0..self.keys);
                let val = if write {
                    self.next_seq += 1;
                    let id = value_id(u64::from(self.id.0), self.next_seq);
                    lock(&self.written).insert(id, key);
                    id
                } else {
                    0
                };
                (write, key, val)
            }
        };
        let rid = RequestId(self.next_rid);
        self.next_rid += 1;
        let req = if write {
            ClientRequest::write(self.id, rid, key_name(key), make_value(key, val))
        } else {
            ClientRequest::read(self.id, rid, key_name(key))
        };
        self.sent += 1;
        self.pending.insert(
            rid.0,
            Pending {
                sent: now,
                write,
                key,
                val,
                repliers: 0,
            },
        );
        let me = NodeId::Client(self.id);
        ctx.send(
            self.switch,
            Msg::new(me, self.switch, PacketBody::Request(req)),
        );
    }

    /// A read result is valid if it is the preload value or a value some
    /// generator wrote to the same key.
    fn valid_read(&self, key: u32, id: u64) -> bool {
        if id == value_id(0, u64::from(key)) {
            return true;
        }
        lock(&self.written).get(&id) == Some(&key)
    }

    fn finish(&mut self, rid: u64, now: u64, read: Option<u64>) {
        let Some(p) = self.pending.remove(&rid) else {
            return;
        };
        self.completed += 1;
        let val = match read {
            Some(id) => {
                if !self.valid_read(p.key, id) && self.bad_read.is_none() {
                    self.bad_read = Some(p.key);
                }
                id
            }
            None => p.val,
        };
        if self.in_span(p.sent) {
            let lat = now - p.sent;
            if p.write {
                self.write_lat.push(lat);
            } else {
                self.read_lat.push(lat);
            }
        }
        let history_until = if p.write {
            self.span.1.saturating_add(TIMEOUT_US * 1000)
        } else {
            self.span.1
        };
        if p.sent < history_until {
            self.history.push(Op {
                write: p.write,
                key: p.key,
                val,
                invoke: p.sent,
                complete: now,
            });
        }
        if self.stamps.len() == STAMPS_KEPT {
            self.stamps.pop_front();
        }
        let key = key_name(p.key);
        self.stamps.push_back((
            TraceId::new(self.id, RequestId(rid)),
            ObjectId::from_key(&key),
            p.sent,
            now,
        ));
    }

    fn fail(&mut self, rid: u64) {
        if let Some(p) = self.pending.remove(&rid) {
            self.failed += 1;
            if p.write {
                self.unfinished.push((p.key, p.val));
            }
        }
    }
}

impl Actor<Msg> for LoadGen {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.next_at = ctx.now().nanos() as f64;
        self.arrival = Some(ctx.set_timer(Duration::from_nanos(1)));
        self.gc = Some(ctx.set_timer(us(TIMEOUT_US)));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        let PacketBody::Reply(reply) = msg.body else {
            return;
        };
        let rid = reply.request.0;
        let now = ctx.now().nanos();
        match reply.write_outcome {
            Some(WriteOutcome::Rejected) | Some(WriteOutcome::DroppedBySwitch) => {
                self.rejected += 1;
                self.fail(rid);
            }
            Some(WriteOutcome::Committed) => {
                let done = self.pending.get_mut(&rid).map(|p| {
                    p.repliers += 1;
                    p.repliers >= self.write_replies
                });
                if done == Some(true) {
                    self.finish(rid, now, None);
                }
            }
            None => {
                let Some(key) = self.pending.get(&rid).map(|p| p.key) else {
                    return;
                };
                let id = check::read_id(key, reply.value.as_deref());
                self.finish(rid, now, Some(id));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: TimerToken) {
        if Some(token) == self.arrival {
            if !self.active {
                return;
            }
            let now = ctx.now().nanos() as f64;
            while self.next_at <= now && self.active {
                self.send_one(ctx);
                let u: f64 = self.rng.gen::<f64>();
                let gap = if self.preload_next.is_some() {
                    self.gap_ns
                } else {
                    -(1.0 - u).ln() * self.gap_ns
                };
                self.next_at += gap;
            }
            let wait = (self.next_at - now).max(1.0) as u64;
            self.arrival = Some(ctx.set_timer(Duration::from_nanos(wait)));
        } else if Some(token) == self.gc {
            let now = ctx.now().nanos();
            let late: Vec<u64> = self
                .pending
                .iter()
                .filter(|(_, p)| now - p.sent > TIMEOUT_US * 1000)
                .map(|(&rid, _)| rid)
                .collect();
            for rid in late {
                self.fail(rid);
            }
            if self.active || !self.pending.is_empty() {
                self.gc = Some(ctx.set_timer(us(TIMEOUT_US)));
            }
        }
    }
}

/// A deployment in the simulator with its generators' shared state.
struct Bed {
    sim: SimCluster,
    spec: DeploymentSpec,
    written: Written,
    keys: u32,
    seed: u64,
}

impl Bed {
    /// Build the world, write every key once, and (with Harmonia) wait for
    /// the switch fast path to arm. Returns the preload history.
    fn setup(spec: &DeploymentSpec, keys: u32, seed: u64) -> Result<(Bed, Vec<Op>), String> {
        let mut bed = Bed {
            sim: spec.build_sim(),
            spec: spec.clone(),
            written: Arc::new(Mutex::new(HashMap::new())),
            keys,
            seed,
        };
        let g = LoadGen::preload(spec, &bed.written, keys, seed);
        let id = bed.attach(g);
        let preload_ns = (1e9 / PRELOAD_RPS) as u64 * u64::from(keys);
        let deadline = bed.sim.now() + us(10 * TIMEOUT_US) + Duration::from_nanos(preload_ns);
        while !bed.gen(id).preload_done() {
            if bed.sim.now() > deadline {
                return Err("preload did not finish".into());
            }
            bed.run_for(1_000);
        }
        let g = bed.gen_mut(id);
        if g.failed > 0 {
            return Err(format!("{} preload writes failed", g.failed));
        }
        let history = std::mem::take(&mut g.history);
        if spec.harmonia && bed.sim.fast_path_enabled() != Some(true) {
            return Err("switch fast path did not arm after the preload".into());
        }
        Ok((bed, history))
    }

    fn gen(&self, id: u32) -> &LoadGen {
        self.sim
            .world()
            .actor::<LoadGen>(NodeId::Client(ClientId(id)))
            .expect("generator attached")
    }

    fn gen_mut(&mut self, id: u32) -> &mut LoadGen {
        self.sim
            .world_mut()
            .actor_mut::<LoadGen>(NodeId::Client(ClientId(id)))
            .expect("generator attached")
    }

    fn attach(&mut self, g: LoadGen) -> u32 {
        let id = g.id.0;
        self.sim
            .world_mut()
            .add_node(NodeId::Client(g.id), Box::new(g));
        id
    }

    /// Attach generator `id` offering `(reads, writes)` per second, with
    /// ops sent in virtual `[from, until)` ns measured.
    fn load(&mut self, id: u32, rates: (f64, f64), from: u64, until: u64) -> u32 {
        let g = LoadGen::new(&self.spec, &self.written, id, self.keys, rates, self.seed);
        self.attach(g.measure(from, until))
    }

    fn now_ns(&self) -> u64 {
        self.sim.now().nanos()
    }

    fn run_to(&mut self, ns: u64) {
        self.sim.run_until(Instant::ZERO + Duration::from_nanos(ns));
    }

    fn run_for(&mut self, micros: u64) {
        let next = self.sim.now() + us(micros);
        self.sim.run_until(next);
    }

    fn replica_backlog(&self) -> usize {
        (0..self.spec.total_replicas() as u32)
            .map(|r| self.sim.world().backlog(NodeId::Replica(ReplicaId(r))))
            .sum()
    }

    /// Stop a generator and let its in-flight ops finish or time out.
    fn retire(&mut self, id: u32) {
        self.gen_mut(id).active = false;
        let until = self.now_ns() + 2 * TIMEOUT_US * 1000;
        while !self.gen(id).pending.is_empty() && self.now_ns() < until {
            self.run_for(500);
        }
    }

    /// One search trial: does `read_rps` (plus the fixed write rate) meet
    /// the read p99 limit, with every op answered and no growing backlog?
    fn trial(&mut self, id: u32, read_rps: f64) -> bool {
        let from = self.now_ns() + TRIAL_WARMUP_US * 1000;
        let until = from + TRIAL_SPAN_US * 1000;
        self.load(id, (read_rps, WRITE_RPS), from, until);
        self.run_to((from + until) / 2);
        let backlog_mid = self.replica_backlog();
        self.run_to(until);
        let backlog_end = self.replica_backlog();
        self.retire(id);
        let g = self.gen(id);
        let p99 = quantile(&g.read_lat, 0.99) / 1e3;
        let growing = backlog_end > backlog_mid + 64;
        g.failed == 0 && !g.read_lat.is_empty() && p99 <= P99_LIMIT_US && !growing
    }

    /// Highest read rate (MRPS) in `[lo, hi]` that passes [`Bed::trial`],
    /// by bisection.
    fn max_read_mrps(&mut self, lo: f64, hi: f64) -> f64 {
        let (mut lo, mut hi) = (lo, hi);
        for i in 0..SEARCH_STEPS {
            let mid = (lo + hi) / 2.0;
            if self.trial(SEARCH_FIRST_ID + i as u32, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo / 1e6
    }
}

/// One slot of about `SLOT_S` wall seconds of the fixed point.
struct Slot {
    secs: f64,
    ops: f64,
    events: f64,
    cpu_s: f64,
}

impl Slot {
    fn ops_per_s(&self) -> f64 {
        ratio(self.ops, self.secs)
    }
    fn cpu_us_per_op(&self) -> f64 {
        ratio(self.cpu_s * 1e6, self.ops)
    }
}

/// What one half of the fixed-point wall window measured.
struct Half {
    slots: Vec<Slot>,
    host: crate::host::HostDelta,
    obs: Option<(harmonia::obs::ObsSnapshot, harmonia::obs::ObsSnapshot)>,
}

impl Half {
    /// Trimmed mean over slots of a per-slot figure.
    fn per_slot(&self, f: impl Fn(&Slot) -> f64) -> f64 {
        trimmed_mean(&self.slots.iter().map(f).collect::<Vec<_>>(), SLOT_TRIM)
    }
    fn total(&self, f: impl Fn(&Slot) -> f64) -> f64 {
        self.slots.iter().map(f).sum()
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w: &Workload = &args.workload;
    let spec = w.spec(args.seed);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(kept.take());
        let t = WallInstant::now();
        kept = Some(Bed::setup(&spec, w.keys, args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut bed, mut history) = kept.expect("at least one set-up");
    eprintln!("  setup: {setup_s:.3?} s");

    // The fixed offered point. Latencies are those of ops sent in the
    // virtual span; the wall window counts every op completed while it runs.
    let t0 = bed.now_ns();
    let (from, until) = (t0 + WARMUP_US * 1000, t0 + (WARMUP_US + SPAN_US) * 1000);
    let fixed = bed.load(FIXED_ID, (READ_RPS, WRITE_RPS), from, until);
    bed.run_to(from);
    let halves = if args.trace { 2 } else { 1 };
    let mut measured: Vec<Half> = Vec::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut stamps = Vec::new();
    let span_read_by = until + 100_000;
    let half_s = args.seconds / f64::from(halves);
    for half in 0..halves {
        let traced = args.trace && half == halves - 1;
        let start = WallInstant::now();
        let host0 = HostSample::take();
        let obs0 = traced.then(|| bed.sim.obs_snapshot());
        let mut slots = Vec::new();
        loop {
            let (slot_start, done0, cpu0) = (
                WallInstant::now(),
                bed.gen(fixed).completed,
                HostSample::take(),
            );
            let mut steps = 0u64;
            while slot_start.elapsed().as_secs_f64() < SLOT_S {
                for _ in 0..STEP_CHUNK {
                    bed.sim.world_mut().step();
                }
                steps += STEP_CHUNK;
                // Read the trace rings right after the measured span closes.
                if traced && events.is_empty() && bed.now_ns() > span_read_by {
                    events = bed.sim.trace_events();
                    stamps = bed.gen(fixed).stamps.iter().copied().collect();
                }
            }
            slots.push(Slot {
                secs: slot_start.elapsed().as_secs_f64(),
                ops: (bed.gen(fixed).completed - done0) as f64,
                events: steps as f64,
                cpu_s: delta(&cpu0, &HostSample::take()).cpu_s,
            });
            let span_done = bed.now_ns() > span_read_by;
            if start.elapsed().as_secs_f64() >= half_s - SLOT_S / 2.0
                && span_done
                && (!traced || !events.is_empty())
            {
                break;
            }
        }
        measured.push(Half {
            slots,
            host: delta(&host0, &HostSample::take()),
            obs: obs0.map(|o| (o, bed.sim.obs_snapshot())),
        });
    }
    bed.retire(fixed);

    let g = bed.gen(fixed);
    let (attempted, failed, rejected) = (g.sent, g.failed, g.rejected);
    let (read_lat, write_lat) = (g.read_lat.clone(), g.write_lat.clone());
    let bad_read = g.bad_read;
    let unfinished = g.unfinished.clone();
    history.extend(g.history.iter().copied());
    let stream: Vec<StreamOp> = g
        .history
        .iter()
        .filter(|o| o.invoke >= from)
        .map(|o| (o.write, o.key))
        .collect();

    let failure = match bad_read {
        Some(key) => Some((
            key,
            format!("a read of key {key} returned a value never written to it"),
        )),
        None => match check::check(&history, &unfinished) {
            Ok(c) => {
                eprintln!(
                    "  checked: {} ops, {} keys linearizable, {} keys over the 64-op limit",
                    history.len(),
                    c.keys_checked,
                    c.keys_skipped
                );
                None
            }
            Err(f) => Some((f.key, f.reason)),
        },
    }
    .map(|(key, reason)| {
        (
            reason,
            dump_for_key(&bed.sim.trace_events(), &key_name(key)),
        )
    });

    let capacity = bed.max_read_mrps(1.0e6, 16.0e6);
    let mut m = Metrics::default();
    let first = &measured[0];
    if args.trace {
        let t = &measured[measured.len() - 1];
        let (oa, ob) = t.obs.as_ref().expect("traced half");
        m.put("client.read_p99_us", quantile(&read_lat, 0.99) / 1e3, "us");
        m.put(
            "client.write_p99_us",
            quantile(&write_lat, 0.99) / 1e3,
            "us",
        );
        m.put(
            "client.read_p999_us",
            quantile(&read_lat, 0.999) / 1e3,
            "us",
        );
        let total: u64 = read_lat.iter().chain(&write_lat).sum();
        let samples = (read_lat.len() + write_lat.len()) as f64;
        m.put("client.mean_us", ratio(total as f64, samples) / 1e3, "us");
        // The open-loop generator never retries.
        m.put("client.retries_per_kop", 0.0, "1/kop");
        let kop = attempted as f64 / 1e3;
        m.put(
            "client.rejected_per_kop",
            ratio(rejected as f64, kop),
            "1/kop",
        );
        m.put(
            "client.failed_op_share",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
        let t_ops = t.total(|s| s.ops);
        counters::report(oa, ob, t_ops, &mut m);
        for (id, obj, sent, done) in stamps {
            let node = NodeId::Client(id.client);
            for (at, stage) in [
                (sent, TraceStage::ClientSend),
                (done, TraceStage::ClientDone),
            ] {
                events.push(TraceEvent {
                    at: Instant::ZERO + Duration::from_nanos(at),
                    node,
                    id,
                    obj,
                    stage,
                });
            }
        }
        hops::report(&events, &mut m);
        m.put(
            "host.ctx_switches_per_op",
            ratio(t.host.ctx_switches, t_ops),
            "count",
        );
        m.put("host.sys_cpu_share", t.host.sys_cpu_share, "ratio");
        m.put("host.threads", t.host.threads, "count");
        m.put("host.steal_share", t.host.steal_share, "ratio");
        m.put(
            "sim.events_per_op",
            ratio(t.total(|s| s.events), t_ops),
            "count",
        );
        let ns_per_event = t.per_slot(|s| ratio(s.secs * 1e9, s.events));
        m.put("sim.wall_ns_per_event", ns_per_event, "ns");
        let overhead = 1.0 - ratio(t.per_slot(Slot::ops_per_s), first.per_slot(Slot::ops_per_s));
        m.put("bench.trace_overhead_pct", overhead * 100.0, "%");
        let r = replay::replay(&spec, w.keys, &stream, args.seed);
        r.report(&mut m);
        let layer_us = r.logic_us_per_op();
        m.put("attr.layer_sum_us_per_op", layer_us, "us");
        let cpu_us_per_op = t.per_slot(Slot::cpu_us_per_op);
        m.put(
            "attr.unattributed_us_per_op",
            cpu_us_per_op - layer_us,
            "us",
        );
        // The same search on the unmodified protocol (Harmonia off).
        let (mut base, _) = Bed::setup(&spec.clone().baseline(), w.keys, args.seed)?;
        let baseline = base.max_read_mrps(0.1e6, 4.0e6);
        m.put("sim.baseline_max_read_mrps", baseline, "MRPS");
        m.put("sim.harmonia_speedup", ratio(capacity, baseline), "x");
    } else {
        m.put("ops_per_s", first.per_slot(Slot::ops_per_s), "ops/s");
        m.put("read_p50_us", quantile(&read_lat, 0.5) / 1e3, "us");
        m.put("write_p50_us", quantile(&write_lat, 0.5) / 1e3, "us");
        m.put("cpu_us_per_op", first.per_slot(Slot::cpu_us_per_op), "us");
        m.put("read_capacity_mrps", capacity, "MRPS");
        m.put("setup_s", median(&setup_s), "s");
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        failure,
    })
}
