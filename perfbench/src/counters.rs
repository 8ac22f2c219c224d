//! The program's own counters between two `ObsSnapshot`s, per op.

use harmonia::obs::ObsSnapshot;

use crate::stats::{ratio, Metrics};

/// Switch, replica, transport and trace-ring counters between two
/// snapshots, per op. Returns the frames sent.
pub fn report(a: &ObsSnapshot, b: &ObsSnapshot, n: f64, m: &mut Metrics) -> f64 {
    let d = |f: fn(&ObsSnapshot) -> u64| f(b).saturating_sub(f(a)) as f64;
    let fast = d(|o| o.switch.reads_fast_path);
    let normal = d(|o| o.switch.reads_normal);
    let fwd = d(|o| o.switch.writes_forwarded);
    let dropped = d(|o| o.switch.writes_dropped);
    m.put(
        "switch.fast_path_read_share",
        ratio(fast, fast + normal),
        "ratio",
    );
    m.put(
        "switch.write_drop_share",
        ratio(dropped, fwd + dropped),
        "ratio",
    );
    m.put("switch.dirty_len_end", b.switch.dirty_len as f64, "count");
    m.put("switch.memory_bytes", b.switch.memory_bytes as f64, "bytes");
    m.put(
        "replication.protocol_msgs_per_write",
        ratio(d(|o| o.replica.protocol_msgs), fwd),
        "count",
    );
    m.put(
        "replication.requests_per_op",
        ratio(d(|o| o.replica.requests), n),
        "count",
    );

    let frames = d(|o| o.transport.frames_sent);
    let datagrams = d(|o| o.transport.datagrams_sent);
    m.put("net.frames_per_op", ratio(frames, n), "count");
    m.put("net.datagrams_per_op", ratio(datagrams, n), "count");
    m.put("net.frames_per_datagram", ratio(frames, datagrams), "ratio");
    let (rh, rm) = (d(|o| o.pool.recv_hits), d(|o| o.pool.recv_misses));
    let (sh, sm) = (d(|o| o.pool.send_hits), d(|o| o.pool.send_misses));
    m.put("net.recv_pool_hit_rate", ratio(rh, rh + rm), "ratio");
    m.put("net.send_pool_hit_rate", ratio(sh, sh + sm), "ratio");
    m.put(
        "obs.trace_dropped_share",
        ratio(d(|o| o.trace.dropped), d(|o| o.trace.recorded)),
        "ratio",
    );
    frames
}
