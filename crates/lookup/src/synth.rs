//! Synthetic route workloads standing in for the paper's datasets
//! (DESIGN.md substitution table):
//!
//! * [`routeviews_like`] — an IPv4 prefix set shaped like the
//!   RouteViews BGP snapshot of September 1, 2009 used in §6.2.1:
//!   282,797 unique prefixes with only 3 % longer than /24 and the
//!   bulk at /24, /16..​/23. DIR-24-8 performance depends only on this
//!   length distribution and the table size, both of which we match.
//! * [`random_ipv6`] — the §6.2.2 workload: 200,000 randomly generated
//!   prefixes (IPv6 tables in 2010 were too small to stress a CPU
//!   cache, so the paper generates random ones; we do the same).

use ps_rng::Rng;

use crate::route::{Route4, Route6};

/// Prefix-length histogram approximating the 2009-09-01 RouteViews
/// snapshot: `(length, weight)` in permille. /24 dominates at ~53 %,
/// lengths 25..32 sum to ~3 % ("only 3 percent of the prefixes are
/// longer than 24 bits", §6.2.1).
pub(crate) const ROUTEVIEWS_LENGTH_PERMILLE: &[(u8, u32)] = &[
    (8, 3),
    (9, 3),
    (10, 5),
    (11, 8),
    (12, 15),
    (13, 20),
    (14, 30),
    (15, 30),
    (16, 70),
    (17, 35),
    (18, 50),
    (19, 70),
    (20, 60),
    (21, 55),
    (22, 75),
    (23, 60),
    (24, 381),
    (25, 6),
    (26, 7),
    (27, 5),
    (28, 4),
    (29, 4),
    (30, 3),
    (32, 1),
];

/// The number of unique prefixes in the paper's snapshot.
pub const ROUTEVIEWS_PREFIXES: usize = 282_797;

/// Generate `n` IPv4 routes with the RouteViews length distribution.
/// Deterministic per seed; next hops cycle through `hops`.
pub fn routeviews_like(n: usize, hops: u16, seed: u64) -> Vec<Route4> {
    assert!(hops > 0);
    let mut rng = Rng::seed_from_u64(seed);
    let total: u32 = ROUTEVIEWS_LENGTH_PERMILLE.iter().map(|(_, w)| w).sum();
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n);
    while out.len() < n {
        let mut pick = rng.gen_range(0..total);
        let mut len = 24;
        for &(l, w) in ROUTEVIEWS_LENGTH_PERMILLE {
            if pick < w {
                len = l;
                break;
            }
            pick -= w;
        }
        // Public-ish address space: avoid 0/8 and 127/8 for realism.
        let addr: u32 = rng.gen_range(0x0100_0000u32..0xE000_0000);
        let r = Route4::new(addr, len, out.len() as u16 % hops);
        if seen.insert((r.prefix, r.len)) {
            out.push(r);
        }
    }
    out
}

/// Generate `n` random IPv6 routes (§6.2.2). Prefix lengths are drawn
/// from 16..=64 in multiples of 4 plus some odd lengths, the typical
/// allocation pattern; addresses are uniform in 2000::/3 (global
/// unicast).
pub fn random_ipv6(n: usize, hops: u16, seed: u64) -> Vec<Route6> {
    assert!(hops > 0);
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n);
    while out.len() < n {
        let len = *[
            16u8, 20, 24, 28, 32, 32, 36, 40, 44, 48, 48, 48, 52, 56, 60, 64, 64,
        ]
        .get(rng.gen_range(0usize..17))
        .expect("index in range");
        let hi: u64 = rng.gen();
        let lo: u64 = rng.gen();
        let addr = ((u128::from(hi) << 64) | u128::from(lo)) >> 3 | (0b001u128 << 125);
        let r = Route6::new(addr, len, out.len() as u16 % hops);
        if seen.insert((r.prefix, r.len)) {
            out.push(r);
        }
    }
    out
}

/// Uniform random IPv4 addresses for lookup workloads (the generator
/// uses "random destination IP addresses", §6.1).
pub fn random_v4_addrs(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Uniform random IPv6 addresses in 2000::/3.
pub fn random_v6_addrs(n: usize, seed: u64) -> Vec<u128> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let hi: u64 = rng.gen();
            let lo: u64 = rng.gen();
            ((u128::from(hi) << 64) | u128::from(lo)) >> 3 | (0b001u128 << 125)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routeviews_shape() {
        let routes = routeviews_like(20_000, 8, 1);
        assert_eq!(routes.len(), 20_000);
        let longer_than_24 = routes.iter().filter(|r| r.len > 24).count();
        let frac = longer_than_24 as f64 / routes.len() as f64;
        assert!((0.015..0.05).contains(&frac), "frac>24 = {frac}");
        let at_24 = routes.iter().filter(|r| r.len == 24).count() as f64 / 20_000.0;
        assert!((0.30..0.50).contains(&at_24), "frac@24 = {at_24}");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(routeviews_like(100, 8, 7), routeviews_like(100, 8, 7));
        assert_ne!(routeviews_like(100, 8, 7), routeviews_like(100, 8, 8));
        assert_eq!(random_ipv6(50, 8, 3), random_ipv6(50, 8, 3));
    }

    #[test]
    fn prefixes_are_unique() {
        let routes = routeviews_like(5_000, 8, 2);
        let mut seen = std::collections::HashSet::new();
        for r in &routes {
            assert!(seen.insert((r.prefix, r.len)));
        }
    }

    #[test]
    fn ipv6_in_global_unicast() {
        for r in random_ipv6(500, 8, 4) {
            assert_eq!(r.prefix >> 125, 0b001, "prefix {:#x}", r.prefix);
            assert!((16..=64).contains(&r.len));
        }
        for a in random_v6_addrs(100, 5) {
            assert_eq!(a >> 125, 0b001);
        }
    }

    #[test]
    fn hops_cycle() {
        let routes = routeviews_like(100, 4, 9);
        assert!(routes.iter().all(|r| r.hop < 4));
        assert!(routes.iter().any(|r| r.hop == 3));
    }
}
