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
///
/// `bytes * 8e9` fits `u64` up to 2,305,843,009 B; larger transfers
/// take the `u128` path, so every size up to the 2^39 B device bound
/// gets the exact time (saturating at `Time::MAX`).
#[inline]
pub fn transfer_ns(bytes: u64, bits_per_sec: u64) -> Time {
    debug_assert!(bits_per_sec > 0);
    // ns = bits / (bits_per_sec / 1e9) = bits * 1e9 / bits_per_sec
    const BIT_NS: u64 = 8 * SECONDS;
    match bytes.checked_mul(BIT_NS) {
        Some(bit_ns) => bit_ns.div_ceil(bits_per_sec),
        None => wide_transfer_ns(bytes, bits_per_sec),
    }
}

#[cold]
fn wide_transfer_ns(bytes: u64, bits_per_sec: u64) -> Time {
    let ns = (u128::from(bytes) * u128::from(8 * SECONDS)).div_ceil(u128::from(bits_per_sec));
    Time::try_from(ns).unwrap_or(Time::MAX)
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
    fn transfer_time_is_exact_past_the_u64_product() {
        let reference = |bytes: u64, bps: u64| {
            (u128::from(bytes) * 8 * 1_000_000_000).div_ceil(u128::from(bps))
        };
        // The last size whose `bytes * 8e9` fits u64, the first that
        // does not, and the 2^39 B device bound.
        for bytes in [2_305_843_009, 2_305_843_010, 1 << 39] {
            for bps in [GIGA, 10 * GIGA, 5_720 * 8 * 1_000_000] {
                assert_eq!(
                    u128::from(transfer_ns(bytes, bps)),
                    reference(bytes, bps),
                    "{bytes} B at {bps} b/s"
                );
            }
        }
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
