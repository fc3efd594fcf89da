//! The 40-byte-slot cache the compact layouts replaced, kept verbatim
//! in behaviour as the oracle for `probe_agrees_with_reference`:
//! every slot stores its key, its hash and its value in place, and
//! the kick chain reads the hash back. Test builds only.

use super::{flow_hash, FlowCacheStats, FlowTuple, Inserted, MAX_KICKS, WAYS};
use ps_sim::time::Time;

struct Entry<V> {
    hash: u64,
    key: FlowTuple,
    last_seen: Time,
    value: V,
}

/// The reference cache (same placement, eviction and expiry rules as
/// [`super::FlowCache`]).
pub(crate) struct RefCache<V> {
    slots: Vec<Option<Entry<V>>>,
    mask: usize,
    idle_ns: Time,
    occupancy: usize,
    stats: FlowCacheStats,
}

impl<V> RefCache<V> {
    pub(crate) fn new(capacity: usize, idle_ns: Time) -> RefCache<V> {
        let buckets = (capacity.div_ceil(WAYS)).next_power_of_two().max(2);
        let mut slots = Vec::new();
        slots.resize_with(buckets * WAYS, || None);
        RefCache {
            slots,
            mask: buckets - 1,
            idle_ns,
            occupancy: 0,
            stats: FlowCacheStats::default(),
        }
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.occupancy
    }

    pub(crate) fn stats(&self) -> &FlowCacheStats {
        &self.stats
    }

    fn bucket1(&self, h: u64) -> usize {
        (h as usize) & self.mask
    }

    fn bucket2(&self, h: u64) -> usize {
        let b2 = ((h >> 32) as usize) & self.mask;
        let b1 = self.bucket1(h);
        if b2 == b1 {
            (b1 ^ 1) & self.mask
        } else {
            b2
        }
    }

    fn alt_bucket(&self, h: u64, b: usize) -> usize {
        let (b1, b2) = (self.bucket1(h), self.bucket2(h));
        if b == b1 {
            b2
        } else {
            b1
        }
    }

    fn expired(&self, e: &Entry<V>, now: Time) -> bool {
        self.idle_ns != 0 && now.saturating_sub(e.last_seen) > self.idle_ns
    }

    pub(crate) fn lookup_prehash(
        &mut self,
        h: u64,
        key: &FlowTuple,
        now: Time,
    ) -> Result<&mut V, Option<V>> {
        self.stats.lookups += 1;
        for b in [self.bucket1(h), self.bucket2(h)] {
            for s in 0..WAYS {
                let idx = b * WAYS + s;
                let hit = matches!(&self.slots[idx],
                    Some(e) if e.hash == h && e.key == *key);
                if hit {
                    if self.expired(self.slots[idx].as_ref().expect("hit"), now) {
                        self.stats.misses += 1;
                        return Err(self.take_expired(idx).map(|(_, v)| v));
                    }
                    self.stats.hits += 1;
                    let e = self.slots[idx].as_mut().expect("hit");
                    e.last_seen = now;
                    return Ok(&mut e.value);
                }
            }
        }
        self.stats.misses += 1;
        Err(None)
    }

    pub(crate) fn insert_prehash(
        &mut self,
        h: u64,
        key: FlowTuple,
        now: Time,
        value: V,
    ) -> Inserted<V> {
        let (b1, b2) = (self.bucket1(h), self.bucket2(h));
        for b in [b1, b2] {
            for s in 0..WAYS {
                let idx = b * WAYS + s;
                if matches!(&self.slots[idx], Some(e) if e.hash == h && e.key == key) {
                    let e = self.slots[idx].as_mut().expect("hit");
                    e.last_seen = now;
                    e.value = value;
                    self.stats.updates += 1;
                    return Inserted {
                        freed: None,
                        displaced: 0,
                    };
                }
            }
        }
        let entry = Entry {
            hash: h,
            key,
            last_seen: now,
            value,
        };
        for b in [b1, b2] {
            if let Some(s) = self.free_slot(b, now) {
                let freed = self.take_expired(b * WAYS + s);
                self.slots[b * WAYS + s] = Some(entry);
                self.occupancy += 1;
                self.stats.inserts += 1;
                return Inserted {
                    freed,
                    displaced: 0,
                };
            }
        }
        for start in [b1, b2] {
            if let Some((path, free)) = self.find_chain(start, now) {
                let freed = self.take_expired(free);
                let depth = path.len() as u64;
                self.stats.displacements += depth;
                self.stats.max_depth = self.stats.max_depth.max(depth);
                let mut dst = free;
                for &(b, s) in path.iter().rev() {
                    let moved = self.slots[b * WAYS + s].take().expect("chain resident");
                    self.slots[dst] = Some(moved);
                    dst = b * WAYS + s;
                }
                self.slots[dst] = Some(entry);
                self.occupancy += 1;
                self.stats.inserts += 1;
                return Inserted {
                    freed,
                    displaced: depth as u32,
                };
            }
        }
        let mut victim = b1 * WAYS;
        let mut oldest = Time::MAX;
        for b in [b1, b2] {
            for s in 0..WAYS {
                let idx = b * WAYS + s;
                if let Some(e) = &self.slots[idx] {
                    if e.last_seen < oldest {
                        oldest = e.last_seen;
                        victim = idx;
                    }
                }
            }
        }
        let old = self.slots[victim].replace(entry).expect("bucket full");
        self.stats.evictions += 1;
        self.stats.inserts += 1;
        Inserted {
            freed: Some((old.key, old.value)),
            displaced: 0,
        }
    }

    fn free_slot(&self, b: usize, now: Time) -> Option<usize> {
        (0..WAYS).find(|&s| match &self.slots[b * WAYS + s] {
            None => true,
            Some(e) => self.expired(e, now),
        })
    }

    fn take_expired(&mut self, idx: usize) -> Option<(FlowTuple, V)> {
        let e = self.slots[idx].take()?;
        self.occupancy -= 1;
        self.stats.expiries += 1;
        Some((e.key, e.value))
    }

    fn find_chain(&self, start: usize, now: Time) -> Option<(Vec<(usize, usize)>, usize)> {
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut b = start;
        for depth in 0..MAX_KICKS {
            let s = depth % WAYS;
            let e = self.slots[b * WAYS + s].as_ref()?;
            let alt = self.alt_bucket(e.hash, b);
            path.push((b, s));
            if let Some(free) = self.free_slot(alt, now) {
                return Some((path, alt * WAYS + free));
            }
            b = alt;
        }
        None
    }

    pub(crate) fn remove(&mut self, key: &FlowTuple) -> Option<V> {
        let h = flow_hash(key);
        for b in [self.bucket1(h), self.bucket2(h)] {
            for s in 0..WAYS {
                let idx = b * WAYS + s;
                if matches!(&self.slots[idx], Some(e) if e.hash == h && e.key == *key) {
                    self.occupancy -= 1;
                    return self.slots[idx].take().map(|e| e.value);
                }
            }
        }
        None
    }

    pub(crate) fn flush(&mut self) -> u64 {
        let mut n = 0;
        for slot in &mut self.slots {
            if slot.take().is_some() {
                n += 1;
            }
        }
        self.occupancy = 0;
        n
    }
}
