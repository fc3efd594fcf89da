//! IPv6 longest-prefix match: binary search on prefix lengths
//! (Waldvogel, Varghese, Turner & Plattner, SIGCOMM 1997 \[55\]).
//!
//! One hash table per prefix length holds real prefixes and *markers*
//! (truncated prefixes inserted along the binary-search path so the
//! search knows longer matches may exist). Each entry carries its
//! precomputed best-matching prefix ("bmp") so a probe that hits can
//! record the best answer so far before searching longer lengths.
//! Searching lengths 1..=128 takes ⌈log₂ 128⌉ = 7 probes — the
//! paper's "seven memory accesses" per IPv6 lookup (§6.2.2).

use std::collections::HashMap;
use std::sync::Arc;

use crate::mem::{SliceMem, TableMem};
use crate::route::{mask6, Route6};
use crate::NO_ROUTE;

/// Bytes per hash-table slot: 16 B key + 2 B bmp + 1 B flags, padded
/// to 32 so slots never straddle coalescing segments unnecessarily.
pub const ENTRY_SIZE: usize = 32;

const FLAG_OCCUPIED: u8 = 1;

/// One per-length hash table's position in the image.
#[derive(Debug, Clone, Copy, Default)]
pub struct Level {
    /// Byte offset of the table in the image.
    pub off: u32,
    /// Capacity minus one (capacity is a power of two); `u32::MAX`
    /// denotes an absent level (no entries of this length).
    pub mask: u32,
}

const ABSENT: u32 = u32::MAX;

/// Lookup parameters: level directory + default route.
#[derive(Debug, Clone)]
pub struct V6Layout {
    /// `levels[len-1]` describes the table for prefix length `len`.
    pub levels: Vec<Level>,
    /// Hop for the len-0 default route, or [`NO_ROUTE`].
    pub default_hop: u16,
}

/// A built IPv6 table: image + layout. The image is immutable once
/// built and shared ([`V6Table::shared_image`]) with the GPUs that map
/// it.
pub struct V6Table {
    image: Arc<Vec<u8>>,
    layout: V6Layout,
    markers: usize,
}

/// FNV-1a over the masked key and the length; cheap enough for a GPU
/// thread and deterministic across platforms.
#[inline]
fn hash_key(key: u128, len: u8) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_be_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    (h ^ u64::from(len)).wrapping_mul(0x1000_0000_01b3)
}

impl V6Table {
    /// Build from a route list. Later duplicates override earlier.
    pub fn build(routes: &[Route6]) -> V6Table {
        // Deduplicate; keep insertion order semantics (later wins).
        let mut by_key: HashMap<(u128, u8), u16> = HashMap::new();
        let mut default_hop = NO_ROUTE;
        for r in routes {
            if r.len == 0 {
                default_hop = r.hop;
            } else {
                by_key.insert((r.prefix, r.len), r.hop);
            }
        }
        let uniq: Vec<Route6> = by_key
            .iter()
            .map(|(&(prefix, len), &hop)| Route6 { prefix, len, hop })
            .collect();

        // Real prefixes and markers per length.
        // value: (bmp_hop, is_real)
        let mut levels: Vec<HashMap<u128, (u16, bool)>> = vec![HashMap::new(); 128];
        for r in &uniq {
            levels[r.len as usize - 1].insert(r.prefix, (r.hop, true));
        }

        // Insert markers along each prefix's binary-search path.
        let mut marker_count = 0usize;
        for r in &uniq {
            let (mut lo, mut hi) = (1u16, 128u16);
            let len = u16::from(r.len);
            while lo <= hi {
                let mid = (lo + hi) / 2;
                match len.cmp(&mid) {
                    std::cmp::Ordering::Equal => break,
                    std::cmp::Ordering::Greater => {
                        let key = mask6(r.prefix, mid as u8);
                        levels[mid as usize - 1].entry(key).or_insert_with(|| {
                            marker_count += 1;
                            (NO_ROUTE, false) // bmp filled below
                        });
                        lo = mid + 1;
                    }
                    std::cmp::Ordering::Less => hi = mid - 1,
                }
            }
        }

        // Precompute bmp for pure markers: the longest real prefix
        // strictly shorter than the marker that matches it. Checking
        // only the lengths that actually hold real prefixes keeps the
        // build at O(markers × distinct-lengths).
        let real_lengths: Vec<u8> = (1..=128u8)
            .filter(|&l| levels[l as usize - 1].values().any(|(_, real)| *real))
            .collect();
        for len in 1..=128u8 {
            let fixups: Vec<(u128, u16)> = levels[len as usize - 1]
                .iter()
                .filter(|(_, (_, is_real))| !is_real)
                .map(|(&key, _)| {
                    let mut bmp = NO_ROUTE;
                    for &l in real_lengths.iter().rev() {
                        if l >= len {
                            continue;
                        }
                        if let Some(&(hop, true)) = levels[l as usize - 1].get(&mask6(key, l)) {
                            bmp = hop;
                            break;
                        }
                    }
                    (key, bmp)
                })
                .collect();
            let lvl = &mut levels[len as usize - 1];
            for (key, bmp) in fixups {
                lvl.insert(key, (bmp, false));
            }
        }

        // Serialize: open-addressed tables, linear probing.
        let mut layout = V6Layout {
            levels: vec![
                Level {
                    off: 0,
                    mask: ABSENT
                };
                128
            ],
            default_hop,
        };
        let mut image: Vec<u8> = Vec::new();
        for len in 1..=128u8 {
            let lvl = &levels[len as usize - 1];
            if lvl.is_empty() {
                continue;
            }
            let cap = (lvl.len() * 2).next_power_of_two().max(4);
            let off = image.len();
            image.resize(off + cap * ENTRY_SIZE, 0);
            // Sort for a deterministic image: hash-map iteration order
            // would otherwise vary slot placement (and thus collision
            // traces) across runs.
            let mut entries: Vec<(u128, u16)> =
                lvl.iter().map(|(&k, &(bmp, _))| (k, bmp)).collect();
            entries.sort_unstable();
            for &(key, bmp) in &entries {
                let mut slot = (hash_key(key, len) as usize) & (cap - 1);
                loop {
                    let so = off + slot * ENTRY_SIZE;
                    if image[so + 18] & FLAG_OCCUPIED == 0 {
                        image[so..so + 16].copy_from_slice(&key.to_be_bytes());
                        image[so + 16..so + 18].copy_from_slice(&bmp.to_le_bytes());
                        image[so + 18] = FLAG_OCCUPIED;
                        break;
                    }
                    slot = (slot + 1) & (cap - 1);
                }
            }
            layout.levels[len as usize - 1] = Level {
                off: off as u32,
                mask: (cap - 1) as u32,
            };
        }

        V6Table {
            image: Arc::new(image),
            layout,
            markers: marker_count,
        }
    }

    /// The serialized image.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// The image as a shared handle: what a GPU maps into device
    /// memory, uncopied.
    pub fn shared_image(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.image)
    }

    /// The level directory + default route.
    pub fn layout(&self) -> &V6Layout {
        &self.layout
    }

    /// Markers inserted during the build.
    pub fn markers(&self) -> usize {
        self.markers
    }

    /// CPU-side lookup against the table's own image.
    pub fn lookup_host(&self, addr: u128) -> u16 {
        let mut mem = SliceMem::new(&self.image);
        lookup(&self.layout, &mut mem, addr)
    }
}

/// Probe one level for `key`; returns `Some(bmp)` on hit.
#[inline]
fn probe<M: TableMem>(layout: &V6Layout, mem: &mut M, len: u8, key: u128) -> Option<u16> {
    let level = layout.levels[len as usize - 1];
    if level.mask == ABSENT {
        return None;
    }
    let cap_mask = level.mask as usize;
    let mut slot = (hash_key(key, len) as usize) & cap_mask;
    loop {
        let so = level.off as usize + slot * ENTRY_SIZE;
        let raw = mem.read_bytes::<19>(so);
        if raw[18] & FLAG_OCCUPIED == 0 {
            return None;
        }
        let ekey = u128::from_be_bytes(raw[0..16].try_into().expect("entry key"));
        if ekey == key {
            return Some(u16::from_le_bytes([raw[16], raw[17]]));
        }
        slot = (slot + 1) & cap_mask;
    }
}

/// Binary search on prefix lengths, generic over image location.
///
/// Probes at most ⌈log₂ 128⌉ = 7 levels; levels absent from the table
/// are rejected without a memory access (the host/kernel knows the
/// level directory), so the access count is ≤ 7 plus any linear-probe
/// collisions.
pub fn lookup<M: TableMem>(layout: &V6Layout, mem: &mut M, addr: u128) -> u16 {
    let mut best = layout.default_hop;
    let (mut lo, mut hi) = (1u16, 128u16);
    while lo <= hi {
        let mid = (lo + hi) / 2;
        match probe(layout, mem, mid as u8, mask6(addr, mid as u8)) {
            Some(bmp) => {
                if bmp != NO_ROUTE {
                    best = bmp;
                }
                lo = mid + 1;
            }
            None => hi = mid - 1,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::CountingMem;
    use crate::route::lpm6;

    fn routes() -> Vec<Route6> {
        vec![
            Route6::new(0x2001_0db8u128 << 96, 32, 1),
            Route6::new(0x2001_0db8_0001u128 << 80, 48, 2),
            Route6::new(0x2001_0db8_0001_0002u128 << 64, 64, 3),
            Route6::new(0xfe80u128 << 112, 16, 4),
            Route6::new(0, 0, 9), // default
        ]
    }

    #[test]
    fn longest_prefix_wins() {
        let t = V6Table::build(&routes());
        assert_eq!(t.lookup_host(0x2001_0db8_0001_0002u128 << 64 | 7), 3);
        assert_eq!(t.lookup_host(0x2001_0db8_0001_0003u128 << 64), 2);
        assert_eq!(t.lookup_host(0x2001_0db8_9999u128 << 80), 1);
        assert_eq!(t.lookup_host(0xfe80_1234u128 << 96), 4);
        assert_eq!(t.lookup_host(0x3333u128 << 112), 9); // default
    }

    #[test]
    fn no_default_returns_no_route() {
        let t = V6Table::build(&[Route6::new(0x2001u128 << 112, 16, 1)]);
        assert_eq!(t.lookup_host(0x3001u128 << 112), NO_ROUTE);
    }

    #[test]
    fn probe_count_bounded_by_seven() {
        let t = V6Table::build(&routes());
        // Count *levels probed* (<=7) rather than raw reads, which can
        // exceed 7 only through hash collisions.
        for addr in [
            0x2001_0db8_0001_0002u128 << 64 | 7,
            0xfe80u128 << 112,
            0x3333u128 << 112,
        ] {
            let mut mem = CountingMem::new(SliceMem::new(t.image()));
            let _ = lookup(t.layout(), &mut mem, addr);
            assert!(
                mem.accesses <= 9,
                "addr {addr:#x}: {} accesses",
                mem.accesses
            );
        }
    }

    #[test]
    fn matches_oracle_on_structured_set() {
        let rs = routes();
        let t = V6Table::build(&rs);
        for base in [
            0x2001_0db8u128 << 96,
            0x2001_0db8_0001u128 << 80,
            0x2001_0db8_0001_0002u128 << 64,
            0xfe80u128 << 112,
        ] {
            for delta in 0u128..4 {
                let addr = base | delta | (delta << 40);
                let want = lpm6(&rs, addr).unwrap_or(NO_ROUTE);
                assert_eq!(t.lookup_host(addr), want, "addr {addr:#x}");
            }
        }
    }

    #[test]
    fn markers_are_inserted() {
        // A single /64 prefix needs markers at 64's search path:
        // 64 is the first midpoint, so zero markers; a /48 needs one
        // marker at 64? No: path to 48: mid 64 (48<64, go shorter),
        // mid 32 (48>32, marker at 32), mid 48 (hit). One marker.
        let t = V6Table::build(&[Route6::new(0x2001_0db8_0001u128 << 80, 48, 2)]);
        assert_eq!(t.markers(), 1);
        // The marker alone must not produce a false positive.
        assert_eq!(t.lookup_host(0x2001_0db8u128 << 96), NO_ROUTE);
    }

    #[test]
    fn marker_bmp_prevents_backtracking_errors() {
        // Classic Waldvogel case: marker at 32 for a /48 must carry
        // the /16's hop so a search that dead-ends past the marker
        // still answers correctly.
        let rs = vec![
            Route6::new(0x2001u128 << 112, 16, 7),
            Route6::new(0x2001_0db8_0001u128 << 80, 48, 2),
        ];
        let t = V6Table::build(&rs);
        // Matches the /16 and the marker at 32 (0x2001_0db8) but not
        // the /48; best must be... the marker's bmp chain: address
        // matches marker at 32, search goes longer, misses at 48,
        // misses at 40 etc. Final answer = marker's bmp = 7.
        let addr = 0x2001_0db8_ffffu128 << 80;
        assert_eq!(lpm6(&rs, addr), Some(7));
        assert_eq!(t.lookup_host(addr), 7);
    }

    #[test]
    fn duplicate_prefix_last_wins() {
        let t = V6Table::build(&[
            Route6::new(0x2001u128 << 112, 16, 1),
            Route6::new(0x2001u128 << 112, 16, 2),
        ]);
        assert_eq!(t.lookup_host(0x2001_1111u128 << 96), 2);
    }

    #[test]
    fn empty_table() {
        let t = V6Table::build(&[]);
        assert_eq!(t.lookup_host(42), NO_ROUTE);
        assert_eq!(t.image().len(), 0);
    }
}
