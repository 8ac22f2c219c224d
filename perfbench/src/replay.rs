//! Layer replay: the op stream a workload issued, pushed single-threaded
//! through each layer's public functions, so every layer's self time per
//! call can be read without tracing inside the program.
//!
//! - `SwitchCore::handle` and a group of `build_replica` state machines,
//!   wired by shuttling the `Effects` they emit;
//! - the wire codec, on every packet that pipeline moves;
//! - `kv::Store` get/put at the workload's key count;
//! - a `UdpTransport` pair, ping-ponging each op's request and reply.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use bytes::{Bytes, BytesMut};
use harmonia::core::{Msg, SwitchCore};
use harmonia::kv::{Store, VersionedValue};
use harmonia::net::{AddrBook, Transport, UdpTransport};
use harmonia::prelude::{
    ClientId, DeploymentSpec, Duration, Instant, NodeId, ReplicaId, SwitchId, SwitchSeq,
};
use harmonia::replication::{build_replica, Effects, ProtocolMsg, Replica};
use harmonia::types::wire::{decode_frame_shared, encode_frame_into};
use harmonia::types::{ClientReply, ClientRequest, OpKind, PacketBody, RequestId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::check::{key_name, make_value, value_id};
use crate::stats::{median, quantile, ratio, Metrics};

/// One op of the stream: write?, key index.
pub type StreamOp = (bool, u32);

/// Passes over the stream; each figure is the median over passes.
const PASSES: usize = 3;

/// Per-call self times (ns) and per-op totals of the replayed layers.
#[derive(Default, Clone)]
pub struct Replayed {
    pub switch_read_ns: f64,
    pub switch_write_ns: f64,
    pub switch_completion_ns: f64,
    pub replica_read_ns: f64,
    pub replica_write_ns: f64,
    pub replica_protocol_ns: f64,
    pub kv_get_ns: f64,
    pub kv_put_ns: f64,
    pub wire_bytes_per_op: f64,
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    /// Switch self time per op (handle calls and the dirty-set sweep).
    pub switch_ns_per_op: f64,
    /// Replica self time per op (handlers and ticks; includes the store).
    pub replication_ns_per_op: f64,
    /// Median single-thread round trip of a request/reply over loopback UDP.
    pub loopback_rtt_us: f64,
}

impl Replayed {
    /// Switch and replica self time per op, µs: the program logic of one
    /// op without its transport.
    pub fn logic_us_per_op(&self) -> f64 {
        (self.switch_ns_per_op + self.replication_ns_per_op) / 1e3
    }

    pub fn report(&self, m: &mut Metrics) {
        m.put("switch.handle_ns.read", self.switch_read_ns, "ns");
        m.put("switch.handle_ns.write", self.switch_write_ns, "ns");
        m.put(
            "switch.handle_ns.completion",
            self.switch_completion_ns,
            "ns",
        );
        m.put("replication.on_request_ns.read", self.replica_read_ns, "ns");
        m.put(
            "replication.on_request_ns.write",
            self.replica_write_ns,
            "ns",
        );
        m.put("replication.on_protocol_ns", self.replica_protocol_ns, "ns");
        m.put("kv.get_ns", self.kv_get_ns, "ns");
        m.put("kv.put_ns", self.kv_put_ns, "ns");
        m.put("wire.bytes_per_op", self.wire_bytes_per_op, "bytes");
        m.put("wire.encode_ns_per_frame", self.encode_ns_per_frame, "ns");
        m.put("wire.decode_ns_per_frame", self.decode_ns_per_frame, "ns");
        m.put("net.loopback_rtt_us.p50", self.loopback_rtt_us, "us");
    }
}

/// Time accumulator for one kind of call.
#[derive(Default, Clone, Copy)]
struct Acc {
    ns: f64,
    calls: u64,
}

impl Acc {
    fn add(&mut self, ns: f64) {
        self.ns += ns;
        self.calls += 1;
    }
    fn per_call(&self) -> f64 {
        ratio(self.ns, self.calls as f64)
    }
}

/// Cost of one `Instant::now()` pair, subtracted from every timed call.
fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let t = StdInstant::now();
            black_box(());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn timed<R>(overhead: f64, f: impl FnOnce() -> R) -> (R, f64) {
    let t = StdInstant::now();
    let r = f();
    let ns = t.elapsed().as_nanos() as f64 - overhead;
    (r, ns.max(0.0))
}

struct Pipeline {
    switch: SwitchCore,
    switch_addr: NodeId,
    replicas: BTreeMap<ReplicaId, Box<dyn Replica>>,
    rng: SmallRng,
    queue: VecDeque<Msg>,
    client: ClientId,
    next_rid: u64,
    now: Instant,
}

#[derive(Default, Clone, Copy)]
struct PassAcc {
    sw_read: Acc,
    sw_write: Acc,
    sw_completion: Acc,
    sw_other: Acc,
    rep_read: Acc,
    rep_write: Acc,
    rep_protocol: Acc,
    rep_tick: Acc,
    encode: Acc,
    decode: Acc,
    bytes: u64,
}

impl Pipeline {
    fn new(spec: &DeploymentSpec, seed: u64) -> Pipeline {
        let replicas = (0..spec.replicas)
            .map(|i| {
                (
                    spec.replica_id(0, i),
                    build_replica(spec.group_config(0, i)),
                )
            })
            .collect();
        Pipeline {
            switch: SwitchCore::for_deployment(spec, spec.initial_switch()),
            switch_addr: spec.switch_addr(),
            replicas,
            rng: SmallRng::seed_from_u64(seed),
            queue: VecDeque::new(),
            client: ClientId(1),
            next_rid: 0,
            now: Instant::ZERO,
        }
    }

    fn request(&mut self, write: bool, key: u32, val: u64) -> Msg {
        let rid = RequestId(self.next_rid);
        self.next_rid += 1;
        let req = if write {
            ClientRequest::write(self.client, rid, key_name(key), make_value(key, val))
        } else {
            ClientRequest::read(self.client, rid, key_name(key))
        };
        Msg::new(
            NodeId::Client(self.client),
            self.switch_addr,
            PacketBody::Request(req),
        )
    }

    /// Run one op to quiescence. With `acc`, time every call into it and
    /// put every packet through the wire codec.
    fn run(&mut self, first: Msg, mut acc: Option<(&mut PassAcc, f64)>) {
        self.now += Duration::from_micros(1);
        self.queue.push_back(first);
        let mut fx = Effects::new();
        let mut out: Vec<(NodeId, Msg)> = Vec::new();
        let mut frame = BytesMut::with_capacity(512);
        while let Some(msg) = self.queue.pop_front() {
            if let Some((acc, overhead)) = acc.as_mut() {
                frame.clear();
                let (len, enc) = timed(*overhead, || encode_frame_into(&msg, &mut frame));
                let bytes = Bytes::copy_from_slice(&frame[..]);
                let (dec, dec_ns) =
                    timed(*overhead, || decode_frame_shared::<Msg>(black_box(&bytes)));
                black_box(dec.ok());
                acc.encode.add(enc);
                acc.decode.add(dec_ns);
                acc.bytes += len.unwrap_or(0) as u64;
            }
            match msg.dst {
                NodeId::Switch(_) => {
                    let kind = match &msg.body {
                        PacketBody::Request(r) if r.op == OpKind::Read => 0,
                        PacketBody::Request(_) => 1,
                        PacketBody::Reply(_) | PacketBody::Completion(_) => 2,
                        _ => 3,
                    };
                    let overhead = acc.as_ref().map_or(0.0, |a| a.1);
                    let (me, now) = (self.switch_addr, self.now);
                    let (switch, rng) = (&mut self.switch, &mut self.rng);
                    let ((), ns) = timed(overhead, || switch.handle(now, me, msg, rng, &mut out));
                    if let Some((acc, _)) = acc.as_mut() {
                        match kind {
                            0 => acc.sw_read.add(ns),
                            1 => acc.sw_write.add(ns),
                            2 => acc.sw_completion.add(ns),
                            _ => acc.sw_other.add(ns),
                        }
                    }
                    self.queue.extend(out.drain(..).map(|(dst, mut m)| {
                        m.dst = dst;
                        m
                    }));
                }
                NodeId::Replica(r) => {
                    let Some(replica) = self.replicas.get_mut(&r) else {
                        continue;
                    };
                    let src = msg.src;
                    let kind = match &msg.body {
                        PacketBody::Request(req) if req.op == OpKind::Read => 0,
                        PacketBody::Request(_) => 1,
                        _ => 2,
                    };
                    let overhead = acc.as_ref().map_or(0.0, |a| a.1);
                    let ((), ns) = timed(overhead, || match msg.body {
                        PacketBody::Request(req) => replica.on_request(src, req, &mut fx),
                        PacketBody::Protocol(p) => replica.on_protocol(src, p, &mut fx),
                        _ => {}
                    });
                    if let Some((acc, _)) = acc.as_mut() {
                        match kind {
                            0 => acc.rep_read.add(ns),
                            1 => acc.rep_write.add(ns),
                            _ => acc.rep_protocol.add(ns),
                        }
                    }
                    let me = NodeId::Replica(r);
                    self.queue
                        .extend(fx.out.drain(..).map(|(dst, body)| Msg::new(me, dst, body)));
                }
                _ => {} // a reply reached its client
            }
        }
    }

    /// Replica ticks (VR commit / NOPaxos sync) and the switch sweep.
    fn tick(&mut self, acc: Option<(&mut PassAcc, f64)>) {
        let overhead = acc.as_ref().map_or(0.0, |a| a.1);
        let mut fx = Effects::new();
        let mut tick_ns = 0.0;
        let mut sent = Vec::new();
        for (&r, replica) in self.replicas.iter_mut() {
            if replica.tick_interval().is_none() {
                continue;
            }
            let ((), ns) = timed(overhead, || replica.on_tick(&mut fx));
            tick_ns += ns;
            let me = NodeId::Replica(r);
            sent.extend(fx.out.drain(..).map(|(dst, b)| Msg::new(me, dst, b)));
        }
        for m in sent {
            self.run(m, None);
        }
        let (swept, sweep_ns) = timed(overhead, || self.switch.sweep());
        black_box(swept);
        if let Some((acc, _)) = acc {
            acc.rep_tick.add(tick_ns);
            acc.sw_other.add(sweep_ns);
        }
    }
}

pub fn replay(spec: &DeploymentSpec, keys: u32, stream: &[StreamOp], seed: u64) -> Replayed {
    let overhead = timer_overhead_ns();
    let mut pipe = Pipeline::new(spec, seed);
    // Preload every key, untimed, as the workload's set-up does.
    for k in 0..keys {
        let m = pipe.request(true, k, value_id(0, u64::from(k)));
        pipe.run(m, None);
        if k % 256 == 255 {
            pipe.tick(None);
        }
    }
    pipe.tick(None);
    let mut passes: Vec<PassAcc> = Vec::new();
    let mut seq = 0u64;
    for _ in 0..PASSES {
        let mut acc = PassAcc::default();
        for (i, &(write, key)) in stream.iter().enumerate() {
            seq += 1;
            let m = pipe.request(write, key, value_id(9, seq));
            pipe.run(m, Some((&mut acc, overhead)));
            if i % 200 == 199 {
                pipe.tick(Some((&mut acc, overhead)));
            }
        }
        passes.push(acc);
    }
    let ops = stream.len().max(1) as f64;
    let med = |f: &dyn Fn(&PassAcc) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let (kv_get_ns, kv_put_ns) = kv_replay(keys, stream, overhead);
    Replayed {
        switch_read_ns: med(&|a| a.sw_read.per_call()),
        switch_write_ns: med(&|a| a.sw_write.per_call()),
        switch_completion_ns: med(&|a| a.sw_completion.per_call()),
        replica_read_ns: med(&|a| a.rep_read.per_call()),
        replica_write_ns: med(&|a| a.rep_write.per_call()),
        replica_protocol_ns: med(&|a| a.rep_protocol.per_call()),
        kv_get_ns,
        kv_put_ns,
        wire_bytes_per_op: med(&|a| a.bytes as f64 / ops),
        encode_ns_per_frame: med(&|a| a.encode.per_call()),
        decode_ns_per_frame: med(&|a| a.decode.per_call()),
        switch_ns_per_op: med(&|a| {
            (a.sw_read.ns + a.sw_write.ns + a.sw_completion.ns + a.sw_other.ns) / ops
        }),
        replication_ns_per_op: med(&|a| {
            (a.rep_read.ns + a.rep_write.ns + a.rep_protocol.ns + a.rep_tick.ns) / ops
        }),
        loopback_rtt_us: loopback_rtt_us(stream),
    }
}

/// `Store::get`/`put` over the stream, with every key preloaded.
fn kv_replay(keys: u32, stream: &[StreamOp], overhead: f64) -> (f64, f64) {
    let store: Store<VersionedValue> = Store::new();
    let names: Vec<Bytes> = (0..keys).map(key_name).collect();
    for (k, name) in names.iter().enumerate() {
        let v = make_value(k as u32, value_id(0, k as u64));
        store.put(
            name.clone(),
            VersionedValue::new(v, SwitchSeq::new(SwitchId(1), 1)),
        );
    }
    let mut gets = Vec::new();
    let mut puts = Vec::new();
    let mut seq = 1u64;
    for _ in 0..PASSES {
        let (mut get, mut put) = (Acc::default(), Acc::default());
        for &(write, key) in stream {
            let name = &names[key as usize];
            if write {
                seq += 1;
                let v = VersionedValue::new(
                    make_value(key, value_id(9, seq)),
                    SwitchSeq::new(SwitchId(1), seq),
                );
                let ((), ns) = timed(overhead, || store.put(name.clone(), v));
                put.add(ns);
            } else {
                let (v, ns) = timed(overhead, || store.get(black_box(name)));
                black_box(v);
                get.add(ns);
            }
        }
        gets.push(get.per_call());
        puts.push(put.per_call());
    }
    (median(&gets), median(&puts))
}

/// Single-threaded ping-pong of each op's request and reply between two
/// loopback `UdpTransport`s: the net layer's own cost per round trip, with
/// no thread wake-up in it.
fn loopback_rtt_us(stream: &[StreamOp]) -> f64 {
    let book = Arc::new(AddrBook::new());
    let (Ok(mut client), Ok(mut server)) = (
        UdpTransport::<ProtocolMsg>::bind(Arc::clone(&book)),
        UdpTransport::<ProtocolMsg>::bind(Arc::clone(&book)),
    ) else {
        return 0.0;
    };
    let cli = NodeId::Client(ClientId(1));
    let srv = NodeId::Replica(ReplicaId(0));
    book.register(cli, client.local_addr());
    book.register(srv, server.local_addr());
    let wait = StdDuration::from_millis(50);
    let mut rtts = Vec::new();
    let rounds = stream.len().clamp(1, 4000);
    for (i, &(write, key)) in stream.iter().cycle().take(rounds + 200).enumerate() {
        let rid = RequestId(i as u64);
        let req = if write {
            ClientRequest::write(ClientId(1), rid, key_name(key), make_value(key, 1))
        } else {
            ClientRequest::read(ClientId(1), rid, key_name(key))
        };
        let reply = ClientReply {
            client: ClientId(1),
            from: ReplicaId(0),
            request: rid,
            obj: req.obj,
            value: (!write).then(|| make_value(key, 1)),
            write_outcome: None,
            completion: None,
        };
        let t = StdInstant::now();
        client.send(srv, Msg::new(cli, srv, PacketBody::Request(req)));
        if server.recv_timeout(wait).is_err() {
            continue;
        }
        server.send(cli, Msg::new(srv, cli, PacketBody::Reply(reply)));
        if client.recv_timeout(wait).is_err() {
            continue;
        }
        if i >= 200 {
            rtts.push(t.elapsed().as_nanos() as u64);
        }
    }
    quantile(&rtts, 0.5) / 1e3
}
