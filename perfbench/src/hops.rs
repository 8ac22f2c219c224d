//! Per-hop decomposition of requests from the program's trace stamps.
//!
//! A request's events share a `TraceId`. Consecutive stamps give three
//! hops: client send → switch verdict, switch verdict → first replica
//! execute, first replica execute → client done (this last hop holds the
//! replication work after the first replica, and the reply path). Only
//! requests sent once are counted.

use std::collections::HashMap;

use harmonia::obs::{TraceEvent, TraceStage};
use harmonia::prelude::NodeId;
use harmonia::types::TraceId;

use crate::stats::{quantile, ratio, Metrics};

#[derive(Default)]
struct Stamps {
    send: Option<u64>,
    switch: Option<u64>,
    read: bool,
    retried: bool,
    execute: Option<u64>,
    done: Option<u64>,
}

pub fn report(events: &[TraceEvent], m: &mut Metrics) {
    let mut by_id: HashMap<TraceId, Stamps> = HashMap::new();
    for e in events {
        let s = by_id.entry(e.id).or_default();
        let at = e.at.nanos();
        match e.stage {
            TraceStage::ClientSend => s.send = Some(at),
            TraceStage::ClientRetry | TraceStage::ClientTimeout => s.retried = true,
            TraceStage::SwitchFastPathRead | TraceStage::SwitchNormalRead => {
                s.switch.get_or_insert(at);
                s.read = true;
            }
            TraceStage::SwitchWriteForward | TraceStage::SwitchWriteDrop => {
                s.switch.get_or_insert(at);
            }
            TraceStage::ReplicaExecute => {
                s.execute = Some(s.execute.map_or(at, |x| x.min(at)));
            }
            TraceStage::ReplicaShed => {}
            TraceStage::ClientDone => s.done = Some(at),
        }
    }
    // [read|write][hop]
    let mut hops: [[Vec<u64>; 3]; 2] = Default::default();
    for s in by_id.values() {
        let (Some(send), Some(sw), Some(done)) = (s.send, s.switch, s.done) else {
            continue;
        };
        // A write that reaches replicas only as protocol messages (NOPaxos
        // multicast) has no replica stamp: its replica hop is folded into
        // the last one.
        let ex = s.execute.unwrap_or(sw);
        if s.retried || !(send <= sw && sw <= ex && ex <= done) {
            continue;
        }
        let h = &mut hops[usize::from(!s.read)];
        h[0].push(sw - send);
        h[1].push(ex - sw);
        h[2].push(done - ex);
    }
    for (k, kind) in ["read", "write"].iter().enumerate() {
        for (i, hop) in ["client_to_switch", "switch_to_replica", "replica_to_client"]
            .iter()
            .enumerate()
        {
            let p50 = quantile(&hops[k][i], 0.5) / 1e3;
            m.put(&format!("hop.{kind}.{hop}_us.p50"), p50, "us");
        }
    }
    m.put(
        "hop.samples",
        (hops[0][0].len() + hops[1][0].len()) as f64,
        "count",
    );
    m.put(
        "replication.read_spread_max_over_mean",
        read_spread(events, &by_id),
        "ratio",
    );
}

/// Max over mean of reads executed per replica. Each replica's trace ring
/// keeps only its most recent events, so only the span every ring still
/// covers is counted.
fn read_spread(events: &[TraceEvent], by_id: &HashMap<TraceId, Stamps>) -> f64 {
    let mut first: HashMap<NodeId, u64> = HashMap::new();
    for e in events
        .iter()
        .filter(|e| e.stage == TraceStage::ReplicaExecute)
    {
        first.entry(e.node).or_insert(e.at.nanos());
    }
    let Some(&from) = first.values().max() else {
        return 0.0;
    };
    let mut reads: HashMap<NodeId, u64> = first.keys().map(|&n| (n, 0)).collect();
    for e in events {
        if e.stage == TraceStage::ReplicaExecute
            && e.at.nanos() >= from
            && by_id.get(&e.id).is_some_and(|s| s.read)
        {
            *reads.entry(e.node).or_default() += 1;
        }
    }
    let max = reads.values().copied().max().unwrap_or(0) as f64;
    let total: u64 = reads.values().sum();
    ratio(max, ratio(total as f64, reads.len() as f64))
}
