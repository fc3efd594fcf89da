//! Virtual time: `u64` nanoseconds since simulation start.

/// Virtual time in nanoseconds.
pub type Time = u64;

/// One microsecond in [`Time`] units.
pub const MICROS: Time = 1_000;
/// One millisecond in [`Time`] units.
pub const MILLIS: Time = 1_000_000;
/// One second in [`Time`] units.
pub const SECONDS: Time = 1_000_000_000;

/// 10^9, handy for rate conversions.
pub const GIGA: u64 = 1_000_000_000;

/// Duration of transferring `bytes` at `bits_per_sec`, in nanoseconds,
/// rounded up so back-to-back transfers never overlap.
#[inline]
pub fn transfer_ns(bytes: u64, bits_per_sec: u64) -> Time {
    debug_assert!(bits_per_sec > 0);
    let bits = bytes * 8;
    // ns = bits / (bits_per_sec / 1e9) = bits * 1e9 / bits_per_sec
    (bits * SECONDS).div_ceil(bits_per_sec)
}

/// Convert a packet/operation count over a virtual-time window into an
/// operations-per-second rate.
#[inline]
pub fn rate_per_sec(count: u64, window: Time) -> f64 {
    if window == 0 {
        return 0.0;
    }
    count as f64 * SECONDS as f64 / window as f64
}

/// Convert cycles at `hz` into nanoseconds (rounded up).
#[inline]
pub fn cycles_to_ns(cycles: u64, hz: u64) -> Time {
    debug_assert!(hz > 0);
    (cycles * SECONDS).div_ceil(hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_10gbe() {
        // 1250 bytes at 10 Gbps = 1 us.
        assert_eq!(transfer_ns(1250, 10 * GIGA), MICROS);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 10 Gbps = 0.8 ns -> rounds to 1 ns.
        assert_eq!(transfer_ns(1, 10 * GIGA), 1);
    }

    #[test]
    fn rate_round_trip() {
        // 14_204 packets over 1 ms ~= 14.2 Mpps.
        let r = rate_per_sec(14_204, MILLIS);
        assert!((r - 14_204_000.0).abs() < 1.0);
    }

    #[test]
    fn cycles_at_2_66ghz() {
        // 2660 cycles at 2.66 GHz = 1000 ns.
        assert_eq!(cycles_to_ns(2660, 2_660_000_000), 1000);
    }

    #[test]
    fn zero_window_rate_is_zero() {
        assert_eq!(rate_per_sec(100, 0), 0.0);
    }
}
