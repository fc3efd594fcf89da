//! Statistics primitives shared by every experiment: counters, rate
//! meters over virtual-time windows, and a log-bucketed histogram for
//! latency percentiles.

use crate::time::{rate_per_sec, Time};

/// A monotonically increasing event counter with an optional byte
/// dimension — the shape of every NIC/queue statistic in the paper
/// (packets + bytes, kept per queue to avoid false sharing; here the
/// simulation is single-threaded so a plain struct suffices).
#[derive(Debug, Default, Clone, Copy)]
pub struct PacketCounter {
    /// Packets counted.
    pub packets: u64,
    /// Bytes counted (frame bytes, excluding simulated wire overhead).
    pub bytes: u64,
}

impl PacketCounter {
    /// Record one packet of `bytes` length.
    #[inline]
    pub fn add(&mut self, bytes: u64) {
        self.packets += 1;
        self.bytes += bytes;
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: &PacketCounter) {
        self.packets += other.packets;
        self.bytes += other.bytes;
    }

    /// Packets per second over `window`.
    pub fn pps(&self, window: Time) -> f64 {
        rate_per_sec(self.packets, window)
    }

    /// Throughput in Gbps over `window` using the paper's metric:
    /// each packet is charged `overhead_bytes` of Ethernet overhead
    /// on top of its frame. Frame lengths throughout the workspace
    /// *exclude* the 4 B FCS (`ps-io` counts 60..=1514 B frames), so
    /// the overhead that reconstructs on-wire bits is 24 B — 4 B FCS,
    /// 8 B preamble/SFD and 12 B inter-frame gap
    /// ([`ETHERNET_OVERHEAD_BYTES`]); a minimum 60 B frame then costs
    /// 84 B of wire time — the standard 64 B minimum frame plus 20 B
    /// of preamble and gap.
    pub fn gbps_with_overhead(&self, window: Time, overhead_bytes: u64) -> f64 {
        if window == 0 {
            return 0.0;
        }
        let bits = (self.bytes + self.packets * overhead_bytes) * 8;
        rate_per_sec(bits, window) / 1e9
    }

    /// Raw throughput in Gbps (no overhead accounting).
    pub fn gbps(&self, window: Time) -> f64 {
        self.gbps_with_overhead(window, 0)
    }
}

/// Ethernet overhead per packet in the paper's throughput metric:
/// 4 B FCS + 8 B preamble/SFD + 12 B inter-frame gap. Correct only
/// because frame byte counts exclude the FCS (see
/// [`PacketCounter::gbps_with_overhead`]); it matches `ps-net`'s
/// `WIRE_OVERHEAD` and `wire_len`, which serialize frames onto the
/// simulated wires with the same 24 B charge.
pub const ETHERNET_OVERHEAD_BYTES: u64 = 24;

/// Log-bucketed histogram for latency measurements.
///
/// Buckets grow geometrically (~9% per bucket: 8 sub-buckets per
/// octave), giving percentile error under 10% across nanoseconds to
/// seconds with a few hundred buckets — the HdrHistogram idea reduced
/// to what the experiments need.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB_BUCKET_BITS: u32 = 3; // 8 sub-buckets per power of two

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64 << SUB_BUCKET_BITS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        if value == 0 {
            return 0;
        }
        let msb = 63 - value.leading_zeros();
        if msb < SUB_BUCKET_BITS {
            return value as usize;
        }
        let shift = msb - SUB_BUCKET_BITS;
        let sub = (value >> shift) as usize & ((1 << SUB_BUCKET_BITS) - 1);
        (((msb - SUB_BUCKET_BITS + 1) as usize) << SUB_BUCKET_BITS) + sub
    }

    fn bucket_high(idx: usize) -> u64 {
        // Upper bound of values mapping to bucket idx.
        if idx < (1 << SUB_BUCKET_BITS) {
            return idx as u64;
        }
        let octave = (idx >> SUB_BUCKET_BITS) as u32 - 1;
        let sub = (idx & ((1 << SUB_BUCKET_BITS) - 1)) as u64;
        let base = 1u64 << (octave + SUB_BUCKET_BITS);
        base + (sub + 1) * (base >> SUB_BUCKET_BITS) - 1
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = Self::index(value).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values, 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another histogram into this one. Both sides share the same
    /// fixed bucket layout, so quantiles over the merged histogram are
    /// exactly the quantiles a single histogram fed both value streams
    /// would report — the property the replicated data plane relies
    /// on when it merges per-replica latency histograms.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Approximate value at quantile `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_high(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median shortcut.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile shortcut.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile shortcut — the tail the overload experiments
    /// gate on. Bucket resolution (~9%) is the same as [`Self::p99`];
    /// by construction `p999() >= p99()` (quantile targets are
    /// monotone in `q` over a fixed bucket walk).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MICROS, SECONDS};

    #[test]
    fn counter_rates() {
        let mut c = PacketCounter::default();
        for _ in 0..1000 {
            c.add(64);
        }
        assert_eq!(c.packets, 1000);
        assert_eq!(c.bytes, 64_000);
        // 1000 64B packets in 1 ms = 1 Mpps.
        assert!((c.pps(crate::time::MILLIS) - 1_000_000.0).abs() < 1.0);
        // Paper metric: (64+24)*8 bits per packet.
        let gbps = c.gbps_with_overhead(crate::time::MILLIS, ETHERNET_OVERHEAD_BYTES);
        assert!((gbps - 0.704).abs() < 1e-9, "gbps={gbps}");
    }

    #[test]
    fn ethernet_overhead_reconstructs_wire_bits() {
        // Frames exclude the FCS, so per-packet overhead is FCS +
        // preamble/SFD + inter-frame gap. Pinned: if either side of
        // this convention changes (frame sizing in ps-io/ps-net or
        // this constant), throughput numbers silently shift.
        assert_eq!(ETHERNET_OVERHEAD_BYTES, 4 + 8 + 12);
        // A minimum FCS-less frame (60 B) occupies 84 B of wire time:
        // the 64 B minimum on-wire frame plus 20 B preamble + gap.
        let mut c = PacketCounter::default();
        c.add(60);
        // 84 B over 1 us = 672 Mbps.
        let gbps = c.gbps_with_overhead(crate::time::MICROS, ETHERNET_OVERHEAD_BYTES);
        assert!((gbps - 0.672).abs() < 1e-9, "{gbps}");
    }

    #[test]
    fn counter_merge() {
        let mut a = PacketCounter::default();
        for _ in 0..10 {
            a.add(64);
        }
        let mut b = PacketCounter::default();
        b.add(100);
        a.merge(&b);
        assert_eq!(a.packets, 11);
        assert_eq!(a.bytes, 740);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 0.01);
        let p50 = h.p50();
        assert!(
            (450..=560).contains(&p50),
            "p50={p50} outside 10% tolerance"
        );
    }

    #[test]
    fn histogram_merge_matches_single_feed() {
        // Split one value stream across two histograms; the merge must
        // agree with a single histogram on every exposed statistic.
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..10_000u64 {
            let v = v.wrapping_mul(0x9E37_79B9).rotate_left(7) % 1_000_000;
            whole.record(v);
            if v % 3 == 0 { &mut a } else { &mut b }.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.mean(), whole.mean());
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_quantile_bounds() {
        let mut h = Histogram::new();
        h.record(100 * MICROS);
        h.record(200 * MICROS);
        h.record(300 * MICROS);
        assert!(h.quantile(0.0) >= h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn histogram_large_values() {
        let mut h = Histogram::new();
        h.record(10 * SECONDS);
        assert_eq!(h.max(), 10 * SECONDS);
        let q = h.quantile(0.5);
        // Within one bucket (~12.5%) of the true value.
        assert!((10 * SECONDS / 8 * 7..=10 * SECONDS).contains(&q));
    }

    #[test]
    fn histogram_zero_and_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_percentile_accuracy_uniform() {
        let mut h = Histogram::new();
        for v in 0..100_000u64 {
            h.record(v);
        }
        let p99 = h.p99();
        let truth = 99_000.0;
        let err = (p99 as f64 - truth).abs() / truth;
        assert!(err < 0.15, "p99={p99} err={err}");
    }
}
