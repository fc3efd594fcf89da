//! The exact-match flow table.
//!
//! Keys are the full ten-field tuple; the hash is FNV-1a over the
//! canonical key bytes — cheap, deterministic, and exactly the kind of
//! per-packet computation the paper offloads to the GPU for large
//! packet rates ("the performance improvement comes from offloading
//! the hash value computation", §6.3).

use std::collections::HashMap;

use ps_net::FlowKey;

use crate::action::Action;

/// FNV-1a 32-bit over the canonical 31-byte flow key serialization.
pub fn flow_hash(key: &FlowKey) -> u32 {
    flow_hash_bytes(&key.to_bytes())
}

/// Hash a key already serialized by [`FlowKey::to_bytes`] — the
/// function the GPU kernel runs per thread on the staged column.
pub fn flow_hash_bytes(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    h
}

/// Per-flow statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowStats {
    /// Packets matched.
    pub packets: u64,
    /// Bytes matched.
    pub bytes: u64,
}

/// An installed exact-match entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExactEntry {
    /// The action to apply.
    pub action: Action,
    /// Match counters.
    pub stats: FlowStats,
}

/// The exact-match table, bucketed by [`flow_hash`].
///
/// A `HashMap` keyed by the *precomputed hash* plus the full key
/// mirrors the real structure: the GPU hands back hash values, the
/// CPU resolves buckets and compares keys.
#[derive(Debug, Default)]
pub struct ExactTable {
    buckets: HashMap<u32, Vec<(FlowKey, ExactEntry)>>,
    len: usize,
}

impl ExactTable {
    /// An empty table.
    pub fn new() -> ExactTable {
        ExactTable::default()
    }

    /// Installed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Install (or replace) an entry.
    pub fn insert(&mut self, key: FlowKey, action: Action) {
        let h = flow_hash(&key);
        let bucket = self.buckets.entry(h).or_default();
        if let Some((_, e)) = bucket.iter_mut().find(|(k, _)| *k == key) {
            e.action = action;
            return;
        }
        bucket.push((
            key,
            ExactEntry {
                action,
                stats: FlowStats::default(),
            },
        ));
        self.len += 1;
    }

    /// Look up with a precomputed hash (the GPU-assisted path);
    /// updates flow counters on hit.
    pub fn lookup_with_hash(&mut self, hash: u32, key: &FlowKey, bytes: u64) -> Option<Action> {
        let bucket = self.buckets.get_mut(&hash)?;
        let (_, e) = bucket.iter_mut().find(|(k, _)| k == key)?;
        e.stats.packets += 1;
        e.stats.bytes += bytes;
        Some(e.action)
    }

    /// CPU-only path: hash and look up.
    pub fn lookup(&mut self, key: &FlowKey, bytes: u64) -> Option<Action> {
        self.lookup_with_hash(flow_hash(key), key, bytes)
    }

    /// Read a flow's counters.
    pub fn stats(&self, key: &FlowKey) -> Option<FlowStats> {
        self.buckets
            .get(&flow_hash(key))?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, e)| e.stats)
    }

    /// Remove an entry; returns whether it existed.
    pub fn remove(&mut self, key: &FlowKey) -> bool {
        let h = flow_hash(&key.clone());
        if let Some(bucket) = self.buckets.get_mut(&h) {
            let before = bucket.len();
            bucket.retain(|(k, _)| k != key);
            if bucket.len() < before {
                self.len -= 1;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u16) -> FlowKey {
        FlowKey {
            in_port: n,
            dl_type: 0x0800,
            nw_src: 0x0A000000 | u32::from(n),
            nw_dst: 0x0B000000,
            nw_proto: 17,
            tp_src: n,
            tp_dst: 53,
            ..FlowKey::default()
        }
    }

    #[test]
    fn insert_lookup_hit_and_miss() {
        let mut t = ExactTable::new();
        t.insert(key(1), Action::Output(3));
        assert_eq!(t.lookup(&key(1), 64), Some(Action::Output(3)));
        assert_eq!(t.lookup(&key(2), 64), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replace_updates_action() {
        let mut t = ExactTable::new();
        t.insert(key(1), Action::Output(3));
        t.insert(key(1), Action::Drop);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&key(1), 64), Some(Action::Drop));
    }

    #[test]
    fn stats_accumulate() {
        let mut t = ExactTable::new();
        t.insert(key(5), Action::Output(1));
        t.lookup(&key(5), 64);
        t.lookup(&key(5), 1500);
        let s = t.stats(&key(5)).unwrap();
        assert_eq!(s.packets, 2);
        assert_eq!(s.bytes, 1564);
        assert!(t.stats(&key(6)).is_none());
    }

    #[test]
    fn precomputed_hash_path_agrees() {
        let mut t = ExactTable::new();
        t.insert(key(9), Action::Output(2));
        let h = flow_hash(&key(9));
        assert_eq!(t.lookup_with_hash(h, &key(9), 64), Some(Action::Output(2)));
        // Wrong hash, right key: miss (the bucket is addressed by hash).
        assert_eq!(t.lookup_with_hash(h ^ 1, &key(9), 64), None);
    }

    #[test]
    fn remove_works() {
        let mut t = ExactTable::new();
        t.insert(key(1), Action::Drop);
        assert!(t.remove(&key(1)));
        assert!(!t.remove(&key(1)));
        assert!(t.is_empty());
        assert_eq!(t.lookup(&key(1), 64), None);
    }

    #[test]
    fn hash_distributes() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..1000 {
            seen.insert(flow_hash(&key(n)) % 256);
        }
        assert!(seen.len() > 200, "only {} distinct buckets", seen.len());
    }

    #[test]
    fn scales_to_32k_entries() {
        // The NetFPGA comparison config (§6.3): 32K exact entries.
        let mut t = ExactTable::new();
        for n in 0..32_768u32 {
            let mut k = key((n % 60_000) as u16);
            k.nw_dst = n;
            t.insert(k, Action::Output((n % 8) as u16));
        }
        assert_eq!(t.len(), 32_768);
        let mut k = key(100);
        k.nw_dst = 100;
        assert_eq!(t.lookup(&k, 64), Some(Action::Output(4)));
    }
}
