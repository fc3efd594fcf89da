//! DIR-24-8-BASIC (Gupta, Lin & McKeown, INFOCOM 1998 \[22\]).
//!
//! * `TBL24`: 2²⁴ 16-bit entries indexed by the top 24 address bits.
//!   High bit clear → the entry *is* the next hop. High bit set → the
//!   low 15 bits index a 256-entry block in `TBLlong`.
//! * `TBLlong`: spill blocks indexed by the low 8 address bits.
//!
//! One memory access resolves any route of length ≤ 24 (97 % of the
//! RouteViews table, §6.2.1); a second access resolves the rest.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::mem::{SliceMem, TableMem};
use crate::route::{lpm4, Route4};
use crate::NO_ROUTE;

/// Entries in TBL24.
const TBL24_ENTRIES: usize = 1 << 24;
/// Flag: entry points into TBLlong.
const LONG_FLAG: u16 = 0x8000;

/// Byte offsets of the two tables within a serialized image; the
/// "kernel parameters" a lookup needs besides the image itself.
#[derive(Debug, Clone, Copy)]
pub struct Dir24Layout {
    /// Offset of TBL24.
    pub tbl24: usize,
    /// Offset of TBLlong.
    pub tbllong: usize,
}

impl Dir24Layout {
    /// Byte offset of `addr`'s TBL24 entry: the first read of every
    /// lookup.
    #[inline]
    pub fn tbl24_offset(&self, addr: u32) -> usize {
        self.tbl24 + (addr >> 8) as usize * 2
    }

    /// Where `addr`'s TBL24 entry `e` leads: `None` when `e` is the
    /// next hop itself, else the byte offset of the TBLlong entry that
    /// holds it (the second, dependent read).
    #[inline]
    pub fn spill_offset(&self, e: u16, addr: u32) -> Option<usize> {
        (e & LONG_FLAG != 0).then(|| {
            let block = (e & !LONG_FLAG) as usize;
            self.tbllong + (block * 256 + (addr & 0xFF) as usize) * 2
        })
    }
}

/// A built DIR-24-8 table: flat image + layout.
///
/// The image is immutable once built and sits behind an [`Arc`], so
/// the host lookup and every device that maps it read one copy.
///
/// The tests also insert routes one at a time (`insert`), the oracle
/// `build` is checked against: shadow arrays, kept only in test
/// builds, record the prefix length that painted each entry, so a new
/// route only overwrites entries painted by equal-or-shorter prefixes.
#[derive(Clone)]
pub struct Dir24Table {
    image: Arc<Vec<u8>>,
    layout: Dir24Layout,
    long_blocks: usize,
    /// Painting prefix length per TBL24 entry (33 = spilled).
    #[cfg(test)]
    len24: Vec<u8>,
    /// Painting prefix length per TBLlong entry.
    #[cfg(test)]
    len_long: Vec<u8>,
}

/// Writes a table's entries in one pass: TBL24 in index order, each
/// entry once, then the TBLlong blocks.
struct Painter<'a> {
    image: Vec<u8>,
    /// Next TBL24 entry to write.
    pos: usize,
    /// The spilled TBL24 indices with their blocks, by index.
    spills: &'a [(usize, u16)],
    /// Spills at or past `pos`, in `spills`.
    next_spill: usize,
    /// Per block: the hop and painting length its entries inherit.
    inherit: Vec<(u16, u8)>,
    /// The TBL24 ranges open at `pos` as `(end, hop, len)`, innermost
    /// last.
    open: Vec<(usize, u16, u8)>,
    #[cfg(test)]
    len24: Vec<u8>,
    #[cfg(test)]
    len_long: Vec<u8>,
}

impl Painter<'_> {
    /// Paint TBL24 up to `at`, closing the ranges that end by then.
    fn sweep_to(&mut self, at: usize) {
        while let Some(&(end, hop, len)) = self.open.last().filter(|o| o.0 <= at) {
            self.paint(end, hop, len);
            self.open.pop();
        }
        let (_, hop, len) = self.open.last().copied().unwrap_or((0, NO_ROUTE, 0));
        self.paint(at, hop, len);
    }

    /// Image entries `entries` (TBLlong entry `i` is image entry
    /// 2²⁴ + `i`) hold `hop`.
    fn fill(&mut self, entries: Range<usize>, hop: u16) {
        let bytes = hop.to_le_bytes();
        for e in self.image[2 * entries.start..2 * entries.end].chunks_exact_mut(2) {
            e.copy_from_slice(&bytes);
        }
    }

    /// Paint TBL24 from `pos` up to `end` with a route of length `len`
    /// (0 and [`NO_ROUTE`] where no route covers it); a spilled entry
    /// instead points at its block, which inherits the route.
    fn paint(&mut self, end: usize, hop: u16, len: u8) {
        while let Some(&(idx, block)) = self.spills.get(self.next_spill).filter(|s| s.0 < end) {
            self.paint_direct(idx, hop, len);
            self.fill(idx..idx + 1, LONG_FLAG | block);
            #[cfg(test)]
            {
                self.len24[idx] = 33;
            }
            self.inherit[usize::from(block)] = (hop, len);
            self.pos = idx + 1;
            self.next_spill += 1;
        }
        self.paint_direct(end, hop, len);
    }

    fn paint_direct(&mut self, end: usize, hop: u16, _len: u8) {
        self.fill(self.pos..end, hop);
        #[cfg(test)]
        self.len24[self.pos..end].fill(_len);
        self.pos = end;
    }

    /// Paint TBLlong entries `entries` with a route of length `len`.
    fn paint_long(&mut self, entries: Range<usize>, hop: u16, _len: u8) {
        #[cfg(test)]
        self.len_long[entries.clone()].fill(_len);
        self.fill(
            TBL24_ENTRIES + entries.start..TBL24_ENTRIES + entries.end,
            hop,
        );
    }
}

impl Dir24Table {
    /// Build from a route list: each entry gets the longest prefix
    /// covering it; duplicate (prefix, len) pairs resolve to the later
    /// route.
    ///
    /// # Panics
    /// Panics if more than 2¹⁵ distinct /24 ranges need spill blocks
    /// (the algorithm's architectural limit).
    pub fn build(routes: &[Route4]) -> Dir24Table {
        // Spill blocks are numbered by first use in length order, as
        // painting shortest-first numbers them (`insert`): device
        // addresses of TBLlong entries feed the coalescing model.
        let mut long: Vec<&Route4> = routes.iter().filter(|r| r.len > 24).collect();
        long.sort_by_key(|r| r.len);
        let mut block_of: HashMap<usize, u16> = HashMap::new();
        for r in &long {
            let next = block_of.len();
            block_of.entry((r.prefix >> 8) as usize).or_insert_with(|| {
                assert!(next < LONG_FLAG as usize, "TBLlong exhausted");
                next as u16
            });
        }
        let mut spills: Vec<(usize, u16)> = block_of.iter().map(|(&i, &b)| (i, b)).collect();
        spills.sort_unstable();
        let entries = TBL24_ENTRIES + 256 * spills.len();
        let mut p = Painter {
            image: vec![0; 2 * entries],
            pos: 0,
            spills: &spills,
            next_spill: 0,
            inherit: vec![(NO_ROUTE, 0); spills.len()],
            open: Vec::new(),
            #[cfg(test)]
            len24: vec![0; TBL24_ENTRIES],
            #[cfg(test)]
            len_long: vec![0; 256 * spills.len()],
        };

        // The routes of /24 or shorter cover nested or disjoint TBL24
        // ranges. Sorted by (start, length), stably, a sweep keeps the
        // ranges open at `pos` on a stack, innermost on top: each
        // entry is painted once, by the longest prefix covering it,
        // and of equal (prefix, length) by the later route. Each route
        // is packed as (start, length, hop) so the sweep reads them in
        // order rather than chasing indices back into `routes`.
        let mut order: Vec<u64> = routes
            .iter()
            .filter(|r| r.len <= 24)
            .map(|r| u64::from(r.prefix >> 8) << 21 | u64::from(r.len) << 16 | u64::from(r.hop))
            .collect();
        order.sort_by_key(|e| e >> 16);
        for e in order {
            let (start, len, hop) = ((e >> 21) as usize, (e >> 16) as u8 & 0x1F, e as u16);
            p.sweep_to(start);
            p.open.push((start + (1 << (24 - len)), hop, len));
        }
        p.sweep_to(TBL24_ENTRIES);

        // TBLlong: each block starts as the entry it replaced, then
        // takes the longer routes shortest-first.
        for (block, (hop, len)) in std::mem::take(&mut p.inherit).into_iter().enumerate() {
            p.paint_long(block * 256..(block + 1) * 256, hop, len);
        }
        for r in long {
            let lo = usize::from(block_of[&((r.prefix >> 8) as usize)]) * 256
                + (r.prefix & 0xFF) as usize;
            p.paint_long(lo..lo + (1 << (32 - r.len)), r.hop, r.len);
        }

        Dir24Table {
            image: Arc::new(p.image),
            layout: Dir24Layout {
                tbl24: 0,
                tbllong: TBL24_ENTRIES * 2,
            },
            long_blocks: spills.len(),
            #[cfg(test)]
            len24: p.len24,
            #[cfg(test)]
            len_long: p.len_long,
        }
    }

    #[cfg(test)]
    fn tbl24_entry(&self, idx: usize) -> u16 {
        let o = self.layout.tbl24 + idx * 2;
        u16::from_le_bytes([self.image[o], self.image[o + 1]])
    }

    #[cfg(test)]
    fn set_tbl24_entry(&mut self, idx: usize, v: u16) {
        let o = self.layout.tbl24 + idx * 2;
        Arc::make_mut(&mut self.image)[o..o + 2].copy_from_slice(&v.to_le_bytes());
    }

    #[cfg(test)]
    fn long_entry(&self, li: usize) -> u16 {
        let o = self.layout.tbllong + li * 2;
        u16::from_le_bytes([self.image[o], self.image[o + 1]])
    }

    #[cfg(test)]
    fn set_long_entry(&mut self, li: usize, v: u16) {
        let o = self.layout.tbllong + li * 2;
        Arc::make_mut(&mut self.image)[o..o + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Incrementally insert (or replace) a route without rebuilding.
    /// Entries painted by longer prefixes are left untouched.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, r: Route4) {
        if r.len <= 24 {
            let start = (r.prefix >> 8) as usize;
            for idx in start..start + (1usize << (24 - r.len)) {
                let e = self.tbl24_entry(idx);
                if e & LONG_FLAG != 0 {
                    let block = (e & !LONG_FLAG) as usize;
                    for off in 0..256 {
                        let li = block * 256 + off;
                        if self.len_long[li] <= r.len {
                            self.set_long_entry(li, r.hop);
                            self.len_long[li] = r.len;
                        }
                    }
                } else if self.len24[idx] <= r.len {
                    self.set_tbl24_entry(idx, r.hop);
                    self.len24[idx] = r.len;
                }
            }
        } else {
            let idx = (r.prefix >> 8) as usize;
            let e = self.tbl24_entry(idx);
            let block = if e & LONG_FLAG != 0 {
                (e & !LONG_FLAG) as usize
            } else {
                // Spill: grow TBLlong by one block inheriting the
                // direct entry.
                let id = self.long_blocks;
                assert!(id < LONG_FLAG as usize, "TBLlong exhausted");
                let fill = e;
                let fill_len = self.len24[idx];
                Arc::make_mut(&mut self.image)
                    .extend(std::iter::repeat_n(fill.to_le_bytes(), 256).flatten());
                self.len_long.extend(std::iter::repeat_n(fill_len, 256));
                self.long_blocks += 1;
                self.set_tbl24_entry(idx, LONG_FLAG | id as u16);
                self.len24[idx] = 33;
                id
            };
            let lo = (r.prefix & 0xFF) as usize;
            for off in lo..lo + (1usize << (32 - r.len)) {
                let li = block * 256 + off;
                if self.len_long[li] <= r.len {
                    self.set_long_entry(li, r.hop);
                    self.len_long[li] = r.len;
                }
            }
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

    /// The image layout (passed to kernels as launch parameters).
    pub fn layout(&self) -> Dir24Layout {
        self.layout
    }

    /// Number of 256-entry spill blocks allocated.
    pub fn long_blocks(&self) -> usize {
        self.long_blocks
    }

    /// CPU-side lookup against the table's own image.
    pub fn lookup_host(&self, addr: u32) -> u16 {
        let mut mem = SliceMem::new(&self.image);
        lookup(&self.layout, &mut mem, addr)
    }
}

/// The lookup itself, generic over where the image lives. Returns a
/// next hop or [`NO_ROUTE`]. Exactly the DIR-24-8 access pattern: one
/// `TBL24` read, plus one `TBLlong` read when the entry spills.
#[inline]
pub fn lookup<M: TableMem>(layout: &Dir24Layout, mem: &mut M, addr: u32) -> u16 {
    let e = mem.read_u16(layout.tbl24_offset(addr));
    match layout.spill_offset(e, addr) {
        None => e,
        Some(off) => mem.read_u16(off),
    }
}

/// Reference check helper: table lookup must equal the oracle.
pub fn matches_oracle(table: &Dir24Table, routes: &[Route4], addr: u32) -> bool {
    table.lookup_host(addr) == lpm4(routes, addr).unwrap_or(NO_ROUTE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::CountingMem;

    fn simple_routes() -> Vec<Route4> {
        vec![
            Route4::new(0x0A000000, 8, 1),  // 10/8
            Route4::new(0x0A0B0000, 16, 2), // 10.11/16
            Route4::new(0x0A0B0C00, 24, 3), // 10.11.12/24
            Route4::new(0x0A0B0C80, 25, 4), // 10.11.12.128/25
            Route4::new(0x0A0B0CFF, 32, 5), // 10.11.12.255/32
            Route4::new(0x00000000, 0, 6),  // default
        ]
    }

    #[test]
    fn longest_prefix_wins() {
        let routes = simple_routes();
        let t = Dir24Table::build(&routes);
        assert_eq!(t.lookup_host(0x0A0B0C01), 3); // /24
        assert_eq!(t.lookup_host(0x0A0B0C81), 4); // /25
        assert_eq!(t.lookup_host(0x0A0B0CFF), 5); // /32
        assert_eq!(t.lookup_host(0x0A0B0D01), 2); // /16
        assert_eq!(t.lookup_host(0x0A0C0000), 1); // /8
        assert_eq!(t.lookup_host(0xDEADBEEF), 6); // default
    }

    #[test]
    fn no_default_returns_no_route() {
        let t = Dir24Table::build(&[Route4::new(0x0A000000, 8, 1)]);
        assert_eq!(t.lookup_host(0x0B000000), NO_ROUTE);
    }

    #[test]
    fn access_counts_match_paper() {
        // §6.2.1: one access for <=24, one more for longer matches.
        let routes = simple_routes();
        let t = Dir24Table::build(&routes);

        let count = |addr: u32| {
            let mut mem = CountingMem::new(SliceMem::new(t.image()));
            let hop = lookup(&t.layout(), &mut mem, addr);
            (hop, mem.accesses)
        };
        // /16 match: single access.
        assert_eq!(count(0x0A0B0D01), (2, 1));
        // Inside a spilled /24: two accesses even for the /24 part.
        assert_eq!(count(0x0A0B0C01), (3, 2));
        assert_eq!(count(0x0A0B0C81), (4, 2));
    }

    #[test]
    fn agrees_with_oracle_on_dense_sample() {
        let routes = simple_routes();
        let t = Dir24Table::build(&routes);
        // Sweep around every route boundary.
        for base in [
            0x0A000000u32,
            0x0A0B0000,
            0x0A0B0C00,
            0x0A0B0C80,
            0x0A0B0CFF,
        ] {
            for delta in -2i64..=2 {
                let addr = (base as i64 + delta) as u32;
                assert!(
                    matches_oracle(&t, &routes, addr),
                    "mismatch at {addr:#010x}"
                );
            }
        }
    }

    #[test]
    fn spill_block_reuse() {
        // Two >24 routes in the same /24 share one block.
        let routes = vec![
            Route4::new(0x01020300, 26, 1),
            Route4::new(0x01020380, 26, 2),
        ];
        let t = Dir24Table::build(&routes);
        assert_eq!(t.long_blocks(), 1);
        assert_eq!(t.lookup_host(0x01020301), 1);
        assert_eq!(t.lookup_host(0x01020381), 2);
        assert_eq!(t.lookup_host(0x01020250), NO_ROUTE);
    }

    #[test]
    fn spill_block_inherits_shorter_route() {
        let routes = vec![
            Route4::new(0x01020000, 16, 7),
            Route4::new(0x01020340, 30, 8),
        ];
        let t = Dir24Table::build(&routes);
        // Addresses in the spilled /24 but outside the /30 still get
        // the /16's hop.
        assert_eq!(t.lookup_host(0x01020301), 7);
        assert_eq!(t.lookup_host(0x01020341), 8);
    }

    #[test]
    fn incremental_insert_equals_rebuild() {
        // Start from a base set, insert more routes one by one; the
        // incremental table must match a from-scratch build at every
        // step.
        let base = simple_routes();
        let extra = [
            Route4::new(0x0A0B0C40, 26, 1), // inside the spilled /24
            Route4::new(0x0A0B0000, 18, 2), // covers the spilled /24
            Route4::new(0xC0A80000, 16, 3), // fresh region
            Route4::new(0xC0A80180, 25, 4), // new spill
            Route4::new(0xC0A80000, 16, 5), // replace an existing route
        ];
        let mut table = Dir24Table::build(&base);
        let mut all = base;
        for r in extra {
            table.insert(r);
            all.push(r);
            for probe in [
                0x0A0B0C41u32,
                0x0A0B0C01,
                0x0A0B0C81,
                0x0A0BFFFF,
                0x0A0B0001,
                0xC0A80001,
                0xC0A80181,
                0xC0A801FF,
                0xC0A80101,
                0xDEADBEEF,
            ] {
                assert!(
                    matches_oracle(&table, &all, probe),
                    "after {r:?}: mismatch at {probe:#010x}"
                );
            }
        }
    }

    #[test]
    fn incremental_insert_never_overwrites_longer_prefixes() {
        let mut table = Dir24Table::build(&[Route4::new(0x0A0B0C00, 24, 9)]);
        table.insert(Route4::new(0x0A000000, 8, 1));
        assert_eq!(table.lookup_host(0x0A0B0C01), 9, "/24 survives a /8 insert");
        assert_eq!(table.lookup_host(0x0A000001), 1);
    }

    #[test]
    fn incremental_spill_inherits_current_entry() {
        let mut table = Dir24Table::build(&[Route4::new(0x01020000, 16, 7)]);
        table.insert(Route4::new(0x01020340, 30, 8));
        assert_eq!(table.long_blocks(), 1);
        assert_eq!(table.lookup_host(0x01020301), 7, "inherited /16");
        assert_eq!(table.lookup_host(0x01020341), 8);
        // The shadow knows the inherited entries are /16-painted:
        // a /20 insert must overwrite them but not the /30.
        table.insert(Route4::new(0x01020000, 20, 6));
        assert_eq!(table.lookup_host(0x01020301), 6);
        assert_eq!(table.lookup_host(0x01020341), 8);
        let block_entry = table.long_entry(0x41);
        assert_eq!(block_entry, 8);
    }

    /// FNV-1a over everything `build` produces: the image and both
    /// painting-length shadows.
    fn state_hash(t: &Dir24Table) -> u64 {
        [&t.image[..], &t.len24, &t.len_long]
            .iter()
            .flat_map(|part| part.iter())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// What `Dir24Table::build` must produce: the empty table with
    /// every route inserted, shortest prefix first (stable, so equal
    /// lengths keep their input order).
    fn inserted_one_by_one(routes: &[Route4]) -> Dir24Table {
        let mut order = routes.to_vec();
        order.sort_by_key(|r| r.len);
        let mut t = Dir24Table::build(&[]);
        for r in order {
            t.insert(r);
        }
        t
    }

    fn assert_same_table(got: &Dir24Table, want: &Dir24Table) {
        assert_eq!(got.long_blocks, want.long_blocks);
        assert!(got.image == want.image, "images differ");
        assert!(got.len24 == want.len24, "TBL24 painting lengths differ");
        assert!(
            got.len_long == want.len_long,
            "TBLlong painting lengths differ"
        );
    }

    #[test]
    fn paper_table_bytes_are_pinned() {
        // The §6.2.1 table as the benchmark builds it: two /1 roots
        // plus the 282,797-prefix synthetic RouteViews set, seed 1.
        let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
        routes.extend(crate::synth::routeviews_like(
            crate::synth::ROUTEVIEWS_PREFIXES,
            8,
            1,
        ));
        let t = Dir24Table::build(&routes);
        assert_eq!(t.long_blocks(), 8992);
        assert_eq!(
            state_hash(&t),
            0x5be4_9c89_5f35_ab89,
            "image + len24 + len_long hash"
        );
        assert_same_table(&t, &inserted_one_by_one(&routes));
    }

    #[test]
    fn build_equals_inserting_in_length_order() {
        use ps_check::{check_with, ensure, ensure_eq, Config};
        // Every case builds two full-size tables (2²⁴ TBL24 entries
        // each), so the default case count is capped.
        let name = "build_equals_inserting_in_length_order";
        let mut cfg = Config::from_env(name);
        cfg.cases = cfg.cases.min(24);
        check_with(name, &cfg, |g| {
            let routes = if g.int_in(0u32..4) == 0 {
                let n = g.int_in(1usize..400);
                crate::synth::routeviews_like(n, 8, g.value())
            } else {
                // A few /16s, so prefixes of every length nest, share
                // spill blocks and repeat (prefix, len) pairs.
                let bases: Vec<u32> = g.vec_of(1, 4, |g| g.value::<u32>() & 0xFFFF_0000);
                g.vec_of(0, 60, |g| {
                    let base = bases[g.int_in(0..bases.len())];
                    let len = g.int_in(0u8..=32);
                    let prefix = if len < 16 {
                        base
                    } else {
                        base | (g.value::<u32>() & 0xFFFF)
                    };
                    Route4::new(prefix, len, g.int_in(0u16..16))
                })
            };
            let (got, want) = (Dir24Table::build(&routes), inserted_one_by_one(&routes));
            ensure_eq!(got.long_blocks, want.long_blocks);
            ensure!(got.image == want.image, "images differ");
            ensure!(got.len24 == want.len24, "TBL24 painting lengths differ");
            ensure!(
                got.len_long == want.len_long,
                "TBLlong painting lengths differ"
            );
            Ok(())
        });
    }

    /// Build `routes`, check it against inserting them one by one and
    /// against the oracle at each probe and its neighbours, and return
    /// the table.
    fn built_as_inserted(routes: &[Route4], probes: &[u32]) -> Dir24Table {
        let t = Dir24Table::build(routes);
        assert_same_table(&t, &inserted_one_by_one(routes));
        for &p in probes {
            for addr in [p.wrapping_sub(1), p, p.wrapping_add(1)] {
                assert!(matches_oracle(&t, routes, addr), "mismatch at {addr:#010x}");
            }
        }
        t
    }

    #[test]
    fn duplicate_prefix_resolves_to_the_later_route() {
        let routes = [
            Route4::new(0x0A00_0000, 8, 1),
            Route4::new(0x0A0B_0000, 16, 2),
            Route4::new(0x0A00_0000, 8, 3),
            Route4::new(0x0A0B_0C80, 25, 4),
            Route4::new(0x0A0B_0C80, 25, 5),
        ];
        let t = built_as_inserted(&routes, &[0x0A00_0000, 0x0A0C_0000, 0x0A0B_0C80]);
        assert_eq!(t.lookup_host(0x0A0C_0001), 3);
        assert_eq!(t.lookup_host(0x0A0B_0D01), 2);
        assert_eq!(t.lookup_host(0x0A0B_0C81), 5);
        assert_eq!(t.long_blocks(), 1);
    }

    #[test]
    fn default_route_covers_every_gap() {
        let routes = [
            Route4::new(0x0A00_0000, 8, 1),
            Route4::new(0, 0, 6),
            Route4::new(0xFFFF_FF00, 24, 2),
            Route4::new(0xC000_0040, 26, 3),
        ];
        let t = built_as_inserted(&routes, &[0, 0x0A00_0000, 0x0B00_0000, 0xFFFF_FF00]);
        assert_eq!(t.lookup_host(0), 6);
        assert_eq!(t.lookup_host(0x0B00_0000), 6);
        assert_eq!(t.lookup_host(0xFFFF_FEFF), 6);
        assert_eq!(t.lookup_host(0xFFFF_FFFF), 2);
        // The spill block inherits the default, painting length 0.
        assert_eq!(t.lookup_host(0xC000_0001), 6);
        assert_eq!(t.lookup_host(0xC000_0041), 3);
        assert_eq!(t.len_long[1], 0, "entry 1 of block 0");
    }

    #[test]
    fn nested_prefixes_ending_at_one_index() {
        // 10/8, 10.255/16 and 10.255.255/24 all end where 11/8 starts;
        // 10.255.255.128/25 spills the last /24 of all three.
        let routes = [
            Route4::new(0x0AFF_FF00, 24, 3),
            Route4::new(0x0A00_0000, 8, 1),
            Route4::new(0x0AFF_0000, 16, 2),
            Route4::new(0x0B00_0000, 8, 4),
            Route4::new(0x0AFF_FF80, 25, 5),
        ];
        let t = built_as_inserted(
            &routes,
            &[0x0AFF_0000, 0x0AFF_FF00, 0x0AFF_FF80, 0x0B00_0000],
        );
        assert_eq!(t.lookup_host(0x0AFE_FFFF), 1);
        assert_eq!(t.lookup_host(0x0AFF_FEFF), 2);
        assert_eq!(t.lookup_host(0x0AFF_FF7F), 3);
        assert_eq!(t.lookup_host(0x0AFF_FFFF), 5);
        assert_eq!(t.lookup_host(0x0B00_0000), 4);
        assert_eq!(t.lookup_host(0x0C00_0000), NO_ROUTE);
    }

    #[test]
    fn adjacent_siblings_split_their_parent() {
        let routes = [
            Route4::new(0x0A80_0000, 9, 2),
            Route4::new(0x0A00_0000, 8, 1),
            Route4::new(0x0A00_0000, 9, 3),
            Route4::new(0x0A7F_FF00, 24, 4),
            Route4::new(0x0A80_0000, 24, 5),
        ];
        let t = built_as_inserted(&routes, &[0x0A00_0000, 0x0A80_0000, 0x0B00_0000]);
        assert_eq!(t.lookup_host(0x0A7F_FEFF), 3);
        assert_eq!(t.lookup_host(0x0A7F_FFFF), 4);
        assert_eq!(t.lookup_host(0x0A80_0000), 5);
        assert_eq!(t.lookup_host(0x0A80_0100), 2);
        assert_eq!(t.lookup_host(0x0AFF_FFFF), 2);
    }

    #[test]
    fn uncovered_spill_block_inherits_no_route() {
        let routes = [
            Route4::new(0x0A00_0000, 8, 1),
            Route4::new(0x0102_0380, 25, 7),
        ];
        let t = built_as_inserted(&routes, &[0x0102_0380, 0x0102_0300]);
        assert_eq!(t.long_blocks(), 1);
        assert_eq!(t.lookup_host(0x0102_0381), 7);
        assert_eq!(t.lookup_host(0x0102_0301), NO_ROUTE);
        assert_eq!(t.long_entry(0), NO_ROUTE);
        assert_eq!(t.len_long[0], 0);
    }

    #[test]
    fn image_round_trips_through_slice_mem() {
        let routes = simple_routes();
        let t = Dir24Table::build(&routes);
        let image = t.image().to_vec();
        let mut mem = SliceMem::new(&image);
        assert_eq!(lookup(&t.layout(), &mut mem, 0x0A0B0C81), 4);
    }
}
