//! Route types and the naive longest-prefix-match oracle the property
//! tests compare the real tables against.

/// An IPv4 route: `prefix/len -> hop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route4 {
    /// Prefix bits, host order, aligned to the top of the word.
    pub prefix: u32,
    /// Prefix length 0..=32.
    pub len: u8,
    /// Next-hop index (below [`crate::NO_ROUTE`]).
    pub hop: u16,
}

impl Route4 {
    /// Construct with the prefix masked to `len` bits.
    pub fn new(prefix: u32, len: u8, hop: u16) -> Route4 {
        assert!(len <= 32);
        assert!(hop < crate::NO_ROUTE);
        Route4 {
            prefix: mask4(prefix, len),
            len,
            hop,
        }
    }

    /// Does this route match `addr`?
    pub fn matches(&self, addr: u32) -> bool {
        mask4(addr, self.len) == self.prefix
    }
}

/// An IPv6 route: `prefix/len -> hop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route6 {
    /// Prefix bits, host order, aligned to the top of the word.
    pub prefix: u128,
    /// Prefix length 0..=128.
    pub len: u8,
    /// Next-hop index.
    pub hop: u16,
}

impl Route6 {
    /// Construct with the prefix masked to `len` bits.
    pub fn new(prefix: u128, len: u8, hop: u16) -> Route6 {
        assert!(len <= 128);
        assert!(hop < crate::NO_ROUTE);
        Route6 {
            prefix: mask6(prefix, len),
            len,
            hop,
        }
    }

    /// Does this route match `addr`?
    pub fn matches(&self, addr: u128) -> bool {
        mask6(addr, self.len) == self.prefix
    }
}

/// Mask an IPv4 address to its top `len` bits.
#[inline]
pub fn mask4(addr: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        addr & (u32::MAX << (32 - len))
    }
}

/// Mask an IPv6 address to its top `len` bits.
#[inline]
pub(crate) fn mask6(addr: u128, len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        addr & (u128::MAX << (128 - len))
    }
}

/// Naive longest-prefix match over an IPv4 route list. The oracle for
/// correctness tests; O(n) per lookup. When several routes of the
/// same longest length match (duplicate prefixes), the *last* one in
/// the list wins, matching table-build overwrite semantics.
pub fn lpm4(routes: &[Route4], addr: u32) -> Option<u16> {
    let mut best: Option<&Route4> = None;
    for r in routes {
        if r.matches(addr) && best.is_none_or(|b| r.len >= b.len) {
            best = Some(r);
        }
    }
    best.map(|r| r.hop)
}

/// Naive longest-prefix match over an IPv6 route list.
pub fn lpm6(routes: &[Route6], addr: u128) -> Option<u16> {
    let mut best: Option<&Route6> = None;
    for r in routes {
        if r.matches(addr) && best.is_none_or(|b| r.len >= b.len) {
            best = Some(r);
        }
    }
    best.map(|r| r.hop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks() {
        assert_eq!(mask4(0xFFFF_FFFF, 24), 0xFFFF_FF00);
        assert_eq!(mask4(0x1234_5678, 0), 0);
        assert_eq!(mask4(0x1234_5678, 32), 0x1234_5678);
        assert_eq!(mask6(u128::MAX, 64), u128::MAX << 64);
        assert_eq!(mask6(0xABCD, 128), 0xABCD);
    }

    #[test]
    fn route_construction_masks_prefix() {
        let r = Route4::new(0x0A0B_0C0D, 16, 3);
        assert_eq!(r.prefix, 0x0A0B_0000);
        assert!(r.matches(0x0A0B_FFFF));
        assert!(!r.matches(0x0A0C_0000));
    }

    #[test]
    fn oracle_picks_longest() {
        let routes = vec![
            Route4::new(0x0A00_0000, 8, 1),
            Route4::new(0x0A0B_0000, 16, 2),
            Route4::new(0x0A0B_0C00, 24, 3),
        ];
        assert_eq!(lpm4(&routes, 0x0A0B_0C01), Some(3));
        assert_eq!(lpm4(&routes, 0x0A0B_FF01), Some(2));
        assert_eq!(lpm4(&routes, 0x0AFF_FF01), Some(1));
        assert_eq!(lpm4(&routes, 0x0BFF_FF01), None);
    }

    #[test]
    fn oracle_default_route() {
        let routes = vec![Route4::new(0, 0, 9)];
        assert_eq!(lpm4(&routes, 0xDEAD_BEEF), Some(9));
    }

    #[test]
    fn oracle_duplicate_prefix_last_wins() {
        let routes = vec![Route4::new(0x0A000000, 8, 1), Route4::new(0x0A000000, 8, 2)];
        assert_eq!(lpm4(&routes, 0x0A000001), Some(2));
    }

    #[test]
    fn oracle_v6() {
        let routes = vec![
            Route6::new(0x2001_0db8 << 96, 32, 1),
            Route6::new(0x2001_0db8_0001u128 << 80, 48, 2),
        ];
        assert_eq!(lpm6(&routes, 0x2001_0db8_0001u128 << 80 | 5), Some(2));
        assert_eq!(lpm6(&routes, (0x2001_0db8u128 << 96) | 5), Some(1));
        assert_eq!(lpm6(&routes, 0x2001_0db9u128 << 96), None);
    }
}
