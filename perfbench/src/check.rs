//! Operation histories and the correctness check every workload runs.
//!
//! Values are 128 bytes and name their own origin: the key index and a
//! value id (`writer << 40 | seq`, writer 0 = the preload). A read is
//! correct only if it returns a value that some client wrote, or tried to
//! write, to that same key. Every key whose history stays under the
//! checker's 64-operation limit must also pass the Wing–Gong check.

use std::collections::{BTreeMap, HashSet};

use bytes::Bytes;
use harmonia::verify::history::OpRecord;
use harmonia::verify::linearizability::check_key_history;

pub const VALUE_LEN: usize = 128;

/// Read result for an absent key.
pub const ABSENT: u64 = u64::MAX;

/// A value id for write `seq` of `writer` (writer 0 is the preload).
pub fn value_id(writer: u64, seq: u64) -> u64 {
    (writer << 40) | seq
}

pub fn make_value(key: u32, id: u64) -> Bytes {
    let mut v = vec![0x5a_u8; VALUE_LEN];
    v[..4].copy_from_slice(&key.to_le_bytes());
    v[4..12].copy_from_slice(&id.to_le_bytes());
    Bytes::from(v)
}

/// `(key, value id)` of a value made by [`make_value`].
pub fn parse_value(v: &[u8]) -> Option<(u32, u64)> {
    if v.len() != VALUE_LEN {
        return None;
    }
    let key = u32::from_le_bytes(v[..4].try_into().ok()?);
    let id = u64::from_le_bytes(v[4..12].try_into().ok()?);
    Some((key, id))
}

pub fn key_name(i: u32) -> Bytes {
    Bytes::from(format!("key-{i:08}"))
}

/// One completed operation. Times are nanoseconds on one clock.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub write: bool,
    pub key: u32,
    /// Written value id, or the id read back (`ABSENT` for no value; a
    /// foreign value that does not parse reads as `ABSENT - 1`).
    pub val: u64,
    pub invoke: u64,
    pub complete: u64,
}

/// The id a read result carries, checked against the key it was read from.
pub fn read_id(key: u32, result: Option<&[u8]>) -> u64 {
    match result {
        None => ABSENT,
        Some(v) => match parse_value(v) {
            Some((k, id)) if k == key => id,
            _ => ABSENT - 1,
        },
    }
}

pub struct Failure {
    pub key: u32,
    pub reason: String,
}

pub struct Checked {
    /// Keys that went through Wing–Gong.
    pub keys_checked: usize,
    /// Keys over the 64-op limit (value provenance only).
    pub keys_skipped: usize,
}

/// Check a full history. `attempted` holds `(key, value id)` of writes that
/// did not complete: their values may legitimately be read, but their keys
/// cannot be given to Wing–Gong, which needs every write's window.
pub fn check(ops: &[Op], attempted: &[(u32, u64)]) -> Result<Checked, Failure> {
    let mut written: HashSet<(u32, u64)> = ops
        .iter()
        .filter(|o| o.write)
        .map(|o| (o.key, o.val))
        .collect();
    written.extend(attempted.iter().copied());
    for o in ops.iter().filter(|o| !o.write) {
        if !written.contains(&(o.key, o.val)) {
            let what = match o.val {
                ABSENT => "no value".to_string(),
                v if v == ABSENT - 1 => "a value not made for this key".to_string(),
                v => format!("value id {v:#x}, never written to it"),
            };
            return Err(Failure {
                key: o.key,
                reason: format!("read of key {} returned {what}", o.key),
            });
        }
    }
    let uncertain: HashSet<u32> = attempted.iter().map(|&(k, _)| k).collect();
    let mut by_key: BTreeMap<u32, Vec<OpRecord>> = BTreeMap::new();
    for o in ops {
        let rec = if o.write {
            OpRecord::write(0, key_name(o.key), id_bytes(o.val), o.invoke, o.complete)
        } else {
            let seen = (o.val != ABSENT).then(|| id_bytes(o.val));
            OpRecord::read(0, key_name(o.key), seen, o.invoke, o.complete)
        };
        by_key.entry(o.key).or_default().push(rec);
    }
    let mut checked = Checked {
        keys_checked: 0,
        keys_skipped: 0,
    };
    for (key, recs) in by_key {
        if recs.len() > 64 || uncertain.contains(&key) {
            checked.keys_skipped += 1;
            continue;
        }
        if check_key_history(&recs).is_err() {
            return Err(Failure {
                key,
                reason: format!(
                    "history of key {key} ({} ops) is not linearizable",
                    recs.len()
                ),
            });
        }
        checked.keys_checked += 1;
    }
    Ok(checked)
}

fn id_bytes(id: u64) -> Bytes {
    Bytes::copy_from_slice(&id.to_le_bytes())
}
