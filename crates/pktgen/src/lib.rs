//! # ps-pktgen — the traffic generator and sink (§6.1)
//!
//! Plays the role of the paper's packet generator: an open-loop
//! source producing fixed-size frames with uniformly random
//! destination IP addresses and UDP ports ("so that IP forwarding and
//! OpenFlow look up a different entry for every packet"), attached to
//! all eight 10 GbE ports, plus a sink that accounts throughput, loss
//! and round-trip latency from embedded timestamps.

use std::net::{Ipv4Addr, Ipv6Addr};

use ps_rng::Rng;

use ps_io::Packet;
use ps_net::ethernet::MacAddr;
use ps_net::{checksum, PacketBuilder};
use ps_nic::port::PortId;
use ps_sim::stats::{Histogram, PacketCounter, ETHERNET_OVERHEAD_BYTES};
use ps_sim::time::Time;

/// What kind of frames to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// UDP over IPv4 with random destination address + ports.
    Ipv4Udp,
    /// UDP over IPv6 with random destination address + ports.
    Ipv6Udp,
}

/// Frame-length mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameMix {
    /// Every frame is `frame_len` bytes — the paper's fixed-size runs.
    Fixed,
    /// The standard "Simple IMIX" blend: 64, 594 and 1518 B frames in
    /// a 7:4:1 ratio over a repeating 12-frame cycle (`frame_len` is
    /// ignored). The length of each frame is a pure function of its
    /// sequence number, so the skip path stays randomness-free.
    Imix,
}

/// How keyed traffic (`flows = Some(k)`) spreads packets over the
/// flow population. Ignored when `flows` is `None` (every packet a
/// fresh random flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModel {
    /// Round-robin: packet `seq` belongs to flow `seq % k`, so every
    /// flow is the same size (the OpenFlow exact-table workload).
    Uniform,
    /// Heavy-tailed flow sizes: packet `seq` maps to flow
    /// `⌊k·u^exponent⌋` for a per-packet uniform `u` derived purely
    /// from `(seed, seq)` — a few elephant flows near id 0 carry most
    /// packets while a long tail of mice carries the rest. Larger
    /// exponents mean a heavier head; 1 degenerates to uniform flow
    /// *popularity* (not round-robin). Purely functional: the skip
    /// path draws nothing.
    HeavyTail {
        /// Concentration exponent (≥ 1; 3 is a realistic mix).
        exponent: u32,
    },
}

/// How the source responds to downstream pressure.
///
/// The paper's generator is strictly open loop; the overload
/// experiments need both: open loop to push offered load past the
/// router's ceiling, closed loop to model a source that listens to
/// NIC-ring occupancy and throttles instead of flooding a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Offer the paced schedule unconditionally, even past the
    /// ceiling — queues grow and the NIC drops (the paper's mode).
    #[default]
    OpenLoop,
    /// NIC rings report occupancy upward: when a packet's target RX
    /// ring sits at or above the watermark, the source consumes the
    /// paced slot but drops the frame at the generator (ledgered as
    /// `backpressure` in the router's drop ledger) — it never touches
    /// the wire, so queues stay bounded near the watermark.
    ClosedLoop {
        /// Ring-occupancy high watermark, in descriptors.
        high_watermark: u32,
    },
}

/// The Simple IMIX frame lengths (bytes, no FCS).
pub(crate) const IMIX_LENS: [usize; 3] = [64, 594, 1518];

/// The repeating 12-frame IMIX cycle: indexes into [`IMIX_LENS`],
/// interleaved 7:4:1 so every port sees all three sizes.
const IMIX_PATTERN: [usize; 12] = [0, 0, 1, 0, 0, 1, 2, 0, 1, 0, 0, 1];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrafficSpec {
    /// Frame kind.
    pub kind: TrafficKind,
    /// Frame length in bytes (without FCS), e.g. 64.
    pub frame_len: usize,
    /// Aggregate offered load in bits/s, measured with the paper's
    /// 24 B-overhead wire metric across all ports.
    pub offered_bits: u64,
    /// Ports the generator feeds, round-robin.
    pub ports: u16,
    /// RNG seed.
    pub seed: u64,
    /// Restrict traffic to a fixed flow population (`None` = every
    /// packet is a fresh random flow, the paper's default). With
    /// `Some(k)`, each flow id always carries the same addresses and
    /// ports — the workload OpenFlow exact-match tables and the
    /// stateful NFs need. Which flow a packet belongs to is decided
    /// by [`TrafficSpec::model`].
    pub flows: Option<u32>,
    /// Frame-length mix ([`FrameMix::Fixed`] reproduces the paper).
    pub mix: FrameMix,
    /// Flow-size model for keyed traffic.
    pub model: FlowModel,
    /// Open- or closed-loop response to downstream pressure
    /// ([`LoadMode::OpenLoop`] reproduces the paper).
    pub load: LoadMode,
}

impl Default for TrafficSpec {
    /// 64 B fixed-size IPv4 frames, 1 Gbps over 8 ports, seed 0,
    /// unkeyed flows — override what a workload needs.
    fn default() -> TrafficSpec {
        TrafficSpec {
            kind: TrafficKind::Ipv4Udp,
            frame_len: 64,
            offered_bits: 1_000_000_000,
            ports: 8,
            seed: 0,
            flows: None,
            mix: FrameMix::Fixed,
            model: FlowModel::Uniform,
            load: LoadMode::OpenLoop,
        }
    }
}

impl TrafficSpec {
    /// 64 B IPv4 frames at `gbps` across 8 ports — the workhorse
    /// workload of the evaluation.
    pub fn ipv4_64b(gbps: f64, seed: u64) -> TrafficSpec {
        TrafficSpec {
            offered_bits: (gbps * 1e9) as u64,
            seed,
            ..TrafficSpec::default()
        }
    }

    /// IMIX-blend IPv4 frames at `gbps` across 8 ports — the realistic
    /// frame mix the stateful-NFV evaluation offers.
    pub fn imix(gbps: f64, seed: u64) -> TrafficSpec {
        TrafficSpec {
            mix: FrameMix::Imix,
            ..TrafficSpec::ipv4_64b(gbps, seed)
        }
    }

    /// Restrict this spec to `flows` keyed flows with heavy-tailed
    /// flow sizes of the given concentration exponent.
    pub fn with_heavy_tail(mut self, flows: u32, exponent: u32) -> TrafficSpec {
        self.flows = Some(flows);
        self.model = FlowModel::HeavyTail { exponent };
        self
    }

    /// This spec with its offered load scaled by `factor` — the
    /// overload sweep's "load factor × measured ceiling" helper.
    /// Factors ≤ 0 are clamped to one bit/s (the generator needs a
    /// positive rate).
    pub fn scaled(mut self, factor: f64) -> TrafficSpec {
        self.offered_bits = ((self.offered_bits as f64 * factor).round() as u64).max(1);
        self
    }

    /// This spec in closed-loop mode with the given ring-occupancy
    /// high watermark.
    pub fn closed_loop(mut self, high_watermark: u32) -> TrafficSpec {
        self.load = LoadMode::ClosedLoop { high_watermark };
        self
    }
}

/// A prebuilt frame with checksum partial sums: generated frames
/// differ only in addresses and ports, so the generator clones this
/// template and patches the varying fields instead of re-serializing
/// headers and re-summing the constant bytes for every packet.
/// Byte-identical to the [`PacketBuilder`] output (property-tested).
struct FrameTemplate {
    buf: Vec<u8>,
    /// IPv4 header sum with src/dst/checksum zeroed.
    ip_part: u32,
    /// UDP sum (incl. pseudo header) with src/dst/ports/cksum zeroed.
    udp_part: u32,
}

/// Byte offsets of the patched fields (Ethernet header is 14 bytes).
mod field {
    pub(crate) const IP4_CKSUM: usize = 24;
    pub(crate) const IP4_SRC: usize = 26;
    pub(crate) const IP4_DST: usize = 30;
    pub(crate) const UDP4_SPORT: usize = 34;
    pub(crate) const UDP4_DPORT: usize = 36;
    pub(crate) const UDP4_CKSUM: usize = 40;
    pub(crate) const IP6_SRC: usize = 22;
    pub(crate) const IP6_DST: usize = 38;
    pub(crate) const UDP6_SPORT: usize = 54;
    pub(crate) const UDP6_DPORT: usize = 56;
}

impl FrameTemplate {
    fn new(kind: TrafficKind, frame_len: usize, src_mac: MacAddr, dst_mac: MacAddr) -> Self {
        match kind {
            TrafficKind::Ipv4Udp => {
                let zero = Ipv4Addr::from(0u32);
                let mut buf = PacketBuilder::udp_v4(src_mac, dst_mac, zero, zero, 0, 0, frame_len);
                // Zero the checksum fields: the partial sums must see
                // every varying field as zero.
                buf[field::IP4_CKSUM..field::IP4_CKSUM + 2].fill(0);
                buf[field::UDP4_CKSUM..field::UDP4_CKSUM + 2].fill(0);
                let ip_part = checksum::sum(0, &buf[14..34]);
                let udp_len = u16::from_be_bytes([buf[38], buf[39]]);
                let udp_part = checksum::sum(
                    checksum::pseudo_header_v4(
                        [0; 4],
                        [0; 4],
                        ps_net::ipv4::protocol::UDP,
                        udp_len,
                    ),
                    &buf[34..],
                );
                FrameTemplate {
                    buf,
                    ip_part,
                    udp_part,
                }
            }
            TrafficKind::Ipv6Udp => {
                let zero = Ipv6Addr::from(0u128);
                let buf = PacketBuilder::udp_v6(src_mac, dst_mac, zero, zero, 0, 0, frame_len);
                // No checksums to maintain: udp_v6 leaves UDP checksum
                // zero ("offloaded").
                FrameTemplate {
                    buf,
                    ip_part: 0,
                    udp_part: 0,
                }
            }
        }
    }

    #[cfg(test)]
    fn frame_v4(&self, src: Ipv4Addr, dst: Ipv4Addr, sport: u16, dport: u16) -> Vec<u8> {
        self.frame_v4_into(src, dst, sport, dport, Vec::new())
    }

    /// The template's IPv4 frame for `(src, dst, sport, dport)`,
    /// written into a recycled buffer: the steady state reuses
    /// delivered/dropped frame buffers instead of allocating one per
    /// packet.
    fn frame_v4_into(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
        mut buf: Vec<u8>,
    ) -> Vec<u8> {
        buf.clear();
        buf.extend_from_slice(&self.buf);
        let s = u32::from(src);
        let d = u32::from(dst);
        buf[field::IP4_SRC..field::IP4_SRC + 4].copy_from_slice(&s.to_be_bytes());
        buf[field::IP4_DST..field::IP4_DST + 4].copy_from_slice(&d.to_be_bytes());
        buf[field::UDP4_SPORT..field::UDP4_SPORT + 2].copy_from_slice(&sport.to_be_bytes());
        buf[field::UDP4_DPORT..field::UDP4_DPORT + 2].copy_from_slice(&dport.to_be_bytes());
        let addr_sum = (s >> 16) + (s & 0xFFFF) + (d >> 16) + (d & 0xFFFF);
        let ip_ck = checksum::finish(self.ip_part + addr_sum);
        buf[field::IP4_CKSUM..field::IP4_CKSUM + 2].copy_from_slice(&ip_ck.to_be_bytes());
        let mut udp_ck =
            checksum::finish(self.udp_part + addr_sum + u32::from(sport) + u32::from(dport));
        if udp_ck == 0 {
            udp_ck = 0xFFFF; // RFC 768: computed 0 transmits as 0xFFFF
        }
        buf[field::UDP4_CKSUM..field::UDP4_CKSUM + 2].copy_from_slice(&udp_ck.to_be_bytes());
        buf
    }

    #[cfg(test)]
    fn frame_v6(&self, src: Ipv6Addr, dst: Ipv6Addr, sport: u16, dport: u16) -> Vec<u8> {
        self.frame_v6_into(src, dst, sport, dport, Vec::new())
    }

    /// The IPv6 twin of [`Self::frame_v4_into`].
    fn frame_v6_into(
        &self,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        sport: u16,
        dport: u16,
        mut buf: Vec<u8>,
    ) -> Vec<u8> {
        buf.clear();
        buf.extend_from_slice(&self.buf);
        buf[field::IP6_SRC..field::IP6_SRC + 16].copy_from_slice(&src.octets());
        buf[field::IP6_DST..field::IP6_DST + 16].copy_from_slice(&dst.octets());
        buf[field::UDP6_SPORT..field::UDP6_SPORT + 2].copy_from_slice(&sport.to_be_bytes());
        buf[field::UDP6_DPORT..field::UDP6_DPORT + 2].copy_from_slice(&dport.to_be_bytes());
        buf
    }
}

/// The varying fields of one generated frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Tuple {
    /// IPv4 source/destination addresses + UDP ports.
    V4 {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sport: u16,
        dport: u16,
    },
    /// IPv6 source/destination addresses + UDP ports.
    V6 {
        src: Ipv6Addr,
        dst: Ipv6Addr,
        sport: u16,
        dport: u16,
    },
}

/// Everything the router needs to admit or drop a packet *before* its
/// frame bytes exist: arrival time, id, input port, length and flow
/// tuple. Produced by [`Generator::next_meta`]; turned into a real
/// [`Packet`] by [`Generator::materialize_into`] only once the NIC
/// has accepted the frame — frames the NIC FIFO drops under overload
/// are never built at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Arrival time of the last bit at the NIC.
    pub t: Time,
    /// Monotonic packet id.
    pub id: u64,
    /// Input port.
    pub port: PortId,
    /// Frame length in bytes (no FCS).
    pub len: usize,
    /// Index into the generator's template set (one per frame length
    /// class; always 0 for fixed-size traffic).
    class: u8,
    tuple: Tuple,
}

impl FrameMeta {
    /// The RSS hash the NIC computes for this frame — identical to
    /// parsing the materialized frame's 5-tuple back out of its bytes
    /// (property-tested), but without touching them.
    pub fn rss_hash(&self) -> u32 {
        use ps_nic::rss::{hash_v4, hash_v6, MSFT_KEY};
        match self.tuple {
            Tuple::V4 {
                src,
                dst,
                sport,
                dport,
            } => hash_v4(&MSFT_KEY, u32::from(src), u32::from(dst), sport, dport),
            Tuple::V6 {
                src,
                dst,
                sport,
                dport,
            } => hash_v6(&MSFT_KEY, &src.octets(), &dst.octets(), sport, dport),
        }
    }
}

/// Exact rational pacing without a division per packet. A class's
/// interval is `interval / offered` ns; it is split once into whole
/// ns and a remainder, and the remainders accumulate in `acc`, which
/// stays below `offered`: adding one carries at most one ns. Every
/// step equals `(acc + interval) / offered` of the division form, and
/// `acc` its `% offered`.
struct Pacer {
    /// Per length class: `(interval / offered, interval % offered)`.
    steps: Vec<(u64, u64)>,
    offered: u64,
    acc: u64,
}

impl Pacer {
    fn new(intervals: &[u64], offered: u64) -> Pacer {
        assert!(offered > 0 && offered <= u64::MAX / 2);
        Pacer {
            steps: intervals
                .iter()
                .map(|&i| (i / offered, i % offered))
                .collect(),
            offered,
            acc: 0,
        }
    }

    /// Ns from a packet of `class` to the next packet. Branch-free:
    /// whether a step carries follows the remainders' pattern, which a
    /// branch predictor cannot learn.
    #[inline]
    fn advance(&mut self, class: usize) -> u64 {
        let (whole, rem) = self.steps[class];
        let acc = self.acc + rem;
        let carry = u64::from(acc >= self.offered);
        self.acc = acc - (self.offered & carry.wrapping_neg());
        whole + carry
    }
}

/// The open-loop packet source.
///
/// Inter-arrival spacing is deterministic (`wire_bits /
/// offered_bits`), matching a hardware generator's paced output;
/// arrivals rotate over the ports.
pub struct Generator {
    spec: TrafficSpec,
    rng: Rng,
    /// Pacing per length class (numerator `wire_bits * 1e9`); one
    /// class for fixed-size traffic, one per IMIX length otherwise.
    pace: Pacer,
    next_time: Time,
    seq: u64,
    /// One prebuilt template per length class.
    tmpls: Vec<FrameTemplate>,
}

impl Generator {
    /// A generator for `spec`.
    pub fn new(spec: TrafficSpec) -> Generator {
        assert!(spec.offered_bits > 0);
        assert!(spec.ports > 0);
        let lens: Vec<usize> = match spec.mix {
            FrameMix::Fixed => vec![spec.frame_len],
            FrameMix::Imix => IMIX_LENS.to_vec(),
        };
        // ns per packet = wire_bits * 1e9 / offered_bits, kept as a
        // rational to avoid drift.
        let intervals: Vec<u64> = lens
            .iter()
            .map(|&l| (ps_net::wire_len(l) * 8) as u64 * 1_000_000_000)
            .collect();
        let tmpls = lens
            .iter()
            .map(|&l| FrameTemplate::new(spec.kind, l, MacAddr::local(1), MacAddr::local(2)))
            .collect();
        Generator {
            spec,
            rng: Rng::seed_from_u64(spec.seed),
            pace: Pacer::new(&intervals, spec.offered_bits),
            next_time: 0,
            seq: 0,
            tmpls,
        }
    }

    /// Length class of packet `seq` — a pure function, so the skip
    /// path can pace variable-size mixes without any stream state.
    fn class_of(&self, seq: u64) -> usize {
        match self.spec.mix {
            FrameMix::Fixed => 0,
            FrameMix::Imix => IMIX_PATTERN[(seq % 12) as usize],
        }
    }

    /// The spec this generator runs.
    pub fn spec(&self) -> &TrafficSpec {
        &self.spec
    }

    /// Arrival time of the next packet (the open-loop schedule is
    /// deterministic, so this is exact).
    pub fn next_time(&self) -> Time {
        self.next_time
    }

    /// Port of the packet [`Self::next_meta`] would return, without
    /// advancing anything (arrivals rotate deterministically, so the
    /// port needs no draw). Shard replicas use this to decide whether
    /// the next packet is theirs *before* paying for its metadata.
    pub fn peek_port(&self) -> PortId {
        PortId((self.seq % u64::from(self.spec.ports)) as u16)
    }

    /// Advance past the next packet without constructing its
    /// metadata: pacing, the sequence counter and the shared RNG
    /// stream move exactly as [`Self::next_meta`] would move them
    /// (pinned by `skip_meta_keeps_the_stream_aligned`). With keyed
    /// flows (`spec.flows`) the tuple is a pure function of the flow
    /// id — no stream state exists to advance, so the draw is skipped
    /// entirely. This is the fast path a shard replica takes for
    /// every packet it does not host.
    pub fn skip_meta(&mut self) {
        self.next_time += self.pace.advance(self.class_of(self.seq));
        if self.spec.flows.is_none() {
            // The tuple draw and the stream advance are the same
            // operation; discard the value, keep the alignment.
            let _ = self.next_tuple();
        }
        self.seq += 1;
    }

    /// Produce the next packet and its arrival time.
    pub fn next_packet(&mut self) -> (Time, Packet) {
        let meta = self.next_meta();
        let p = self.materialize_into(&meta, Vec::new());
        (meta.t, p)
    }

    /// Advance the generator by one packet, returning its metadata
    /// without building the frame. All randomness is drawn here, so
    /// the stream of tuples is identical whether or not any given
    /// frame is later materialized.
    pub fn next_meta(&mut self) -> FrameMeta {
        let t = self.next_time;
        let class = self.class_of(self.seq);
        self.next_time += self.pace.advance(class);

        let meta = FrameMeta {
            t,
            id: self.seq,
            port: PortId((self.seq % u64::from(self.spec.ports)) as u16),
            len: self.tmpls[class].buf.len(),
            class: class as u8,
            tuple: self.next_tuple(),
        };
        self.seq += 1;
        meta
    }

    /// Build the frame for `meta` into a recycled buffer and wrap it
    /// as a [`Packet`]. Pure function of the metadata: byte-identical
    /// to what [`Self::next_packet`] would have produced.
    pub fn materialize_into(&self, meta: &FrameMeta, buf: Vec<u8>) -> Packet {
        let tmpl = &self.tmpls[meta.class as usize];
        let data = match meta.tuple {
            Tuple::V4 {
                src,
                dst,
                sport,
                dport,
            } => tmpl.frame_v4_into(src, dst, sport, dport, buf),
            Tuple::V6 {
                src,
                dst,
                sport,
                dport,
            } => tmpl.frame_v6_into(src, dst, sport, dport, buf),
        };
        let mut p = Packet::new(meta.id, data, meta.port, meta.t);
        p.arrival = meta.t;
        p
    }

    /// All packets arriving in `[0, until)`.
    #[cfg(test)]
    pub(crate) fn packets_until(&mut self, until: Time) -> Vec<(Time, Packet)> {
        let mut out = Vec::new();
        while self.next_time < until {
            out.push(self.next_packet());
        }
        out
    }

    /// Deterministic tuple for flow `id` (also used by benches to
    /// install matching exact-match entries).
    pub fn flow_tuple(spec: &TrafficSpec, id: u32) -> (u32, u32, u16, u16) {
        let mut r = Rng::seed_from_u64(spec.seed ^ (u64::from(id) << 20) ^ 0xF10F);
        (
            r.gen::<u32>() | 0x0100_0000,
            r.gen::<u32>(),
            r.gen_range(1024u16..65000),
            r.gen_range(1u16..65000),
        )
    }

    /// Flow id of keyed packet `seq` under the heavy-tailed model —
    /// a pure function of `(seed, seq)` so the skip path needs no
    /// stream state. Maps a per-packet uniform `u` through `k·u^e`:
    /// flow 0 is the biggest elephant, high ids are mice.
    pub(crate) fn heavy_flow_id(spec: &TrafficSpec, seq: u64, k: u32, exponent: u32) -> u32 {
        let mut z = spec
            .seed
            .wrapping_add(0x5EAF_00D5)
            .wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let u = (ps_rng::splitmix64(&mut z) >> 11) as f64 / (1u64 << 53) as f64;
        // Integer-exponent power by repeated multiplication: exactly
        // reproducible (no libm powf in the deterministic core).
        let mut p = 1.0f64;
        for _ in 0..exponent.max(1) {
            p *= u;
        }
        ((p * f64::from(k)) as u32).min(k - 1)
    }

    /// Draw the next frame's varying fields, in the exact RNG order
    /// the original frame builder used (the tuple stream is part of
    /// the deterministic contract pinned by the fastpath guard).
    fn next_tuple(&mut self) -> Tuple {
        if let Some(k) = self.spec.flows {
            let id = match self.spec.model {
                FlowModel::Uniform => (self.seq % u64::from(k)) as u32,
                FlowModel::HeavyTail { exponent } => {
                    Self::heavy_flow_id(&self.spec, self.seq, k, exponent)
                }
            };
            let (src, dst, sport, dport) = Self::flow_tuple(&self.spec, id);
            return match self.spec.kind {
                TrafficKind::Ipv4Udp => Tuple::V4 {
                    src: Ipv4Addr::from(src),
                    dst: Ipv4Addr::from(dst),
                    sport,
                    dport,
                },
                TrafficKind::Ipv6Udp => Tuple::V6 {
                    src: Ipv6Addr::from((u128::from(src) << 64) | (0b001u128 << 125)),
                    dst: Ipv6Addr::from((u128::from(dst) << 32) | (0b001u128 << 125)),
                    sport,
                    dport,
                },
            };
        }
        let sport: u16 = self.rng.gen_range(1024u16..65000);
        let dport: u16 = self.rng.gen_range(1u16..65000);
        match self.spec.kind {
            TrafficKind::Ipv4Udp => Tuple::V4 {
                src: Ipv4Addr::from(self.rng.gen::<u32>() | 0x0100_0000),
                dst: Ipv4Addr::from(self.rng.gen::<u32>()),
                sport,
                dport,
            },
            TrafficKind::Ipv6Udp => {
                fn gua(hi: u64, lo: u64) -> Ipv6Addr {
                    Ipv6Addr::from(
                        ((u128::from(hi) << 64) | u128::from(lo)) >> 3 | (0b001u128 << 125),
                    )
                }
                Tuple::V6 {
                    src: gua(self.rng.gen(), self.rng.gen()),
                    dst: gua(self.rng.gen(), self.rng.gen()),
                    sport,
                    dport,
                }
            }
        }
    }
}

/// The measurement sink: the generator timestamps packets, the sink
/// accounts them on return.
#[derive(Debug, Default)]
pub struct Sink {
    /// Delivered packets/bytes.
    pub delivered: PacketCounter,
    /// Round-trip latency histogram (ns).
    pub latency: Histogram,
    /// Round-trip latency of priority-lane packets only (ns); empty
    /// unless a priority classifier is configured.
    pub prio_latency: Histogram,
    /// When set to the generator's flow count, the sink additionally
    /// tracks *per-flow* order (flow id = packet id mod flows), the
    /// §5.3 FIFO guarantee.
    pub track_flows: Option<u32>,
    flow_last: std::collections::HashMap<u64, u64>,
    /// Per-flow order violations (must stay 0 per §5.3).
    pub flow_inversions: u64,
}

impl Sink {
    /// A fresh sink.
    pub fn new() -> Sink {
        Sink::default()
    }

    /// Account a delivered packet at `now`.
    pub fn deliver(&mut self, now: Time, p: &Packet) {
        self.delivered.add(p.len() as u64);
        self.latency.record(now.saturating_sub(p.gen_ts));
        if p.priority {
            self.prio_latency.record(now.saturating_sub(p.gen_ts));
        }
        if let Some(flows) = self.track_flows {
            let flow = p.id % u64::from(flows);
            if let Some(&last) = self.flow_last.get(&flow) {
                if p.id < last {
                    self.flow_inversions += 1;
                }
            }
            self.flow_last.insert(flow, p.id);
        }
    }

    /// Delivered throughput over `window`, paper metric.
    pub fn gbps(&self, window: Time) -> f64 {
        self.delivered
            .gbps_with_overhead(window, ETHERNET_OVERHEAD_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_sim::{GIGA, MILLIS, SECONDS};

    #[test]
    fn pacing_matches_offered_load() {
        let mut g = Generator::new(TrafficSpec::ipv4_64b(10.0, 1));
        let pkts = g.packets_until(MILLIS);
        // 10 Gbps of 88-wire-byte frames = 14.2 Mpps -> 14,204 per ms.
        let n = pkts.len() as f64;
        assert!((14_100.0..14_310.0).contains(&n), "{n} packets per ms");
    }

    /// The carry form of pacing is the division form, step for step:
    /// random offered rates and intervals (up to a 9,000 B jumbo
    /// frame's), fixed, IMIX or random class sequences, long runs.
    #[test]
    fn pacer_matches_division_form() {
        ps_check::check("pacer_matches_division_form", |g| {
            let offered = match g.int_in(0..3u32) {
                0 => g.int_in(1..=1_000u64),
                1 => g.int_in(1..=100_000_000_000u64),
                _ => g.int_in(1..=4u64) * GIGA + g.int_in(0..GIGA),
            };
            let classes = g.int_in(1..=3usize);
            let intervals: Vec<u64> = (0..classes)
                .map(|_| g.int_in(1..=9_038 * 8 * GIGA))
                .collect();
            let imix = classes == 3 && g.int_in(0..2u32) == 0;
            let mut pace = Pacer::new(&intervals, offered);
            let mut acc = 0u64;
            for seq in 0..g.len_in(1, 20_000) as u64 {
                let class = if imix {
                    IMIX_PATTERN[(seq % 12) as usize]
                } else {
                    g.int_in(0..classes)
                };
                acc += intervals[class];
                let want = acc / offered;
                acc %= offered;
                let got = pace.advance(class);
                ps_check::ensure_eq!(got, want, "step {seq}, class {class}");
                ps_check::ensure_eq!(pace.acc, acc, "remainder after step {seq}");
            }
            Ok(())
        });
    }

    #[test]
    fn pacing_has_no_drift() {
        let spec = TrafficSpec {
            offered_bits: 3 * GIGA, // awkward divisor
            seed: 2,
            ..TrafficSpec::default()
        };
        let mut g = Generator::new(spec);
        let window = SECONDS / 20;
        let pkts = g.packets_until(window);
        let expect = 3e9 / (88.0 * 8.0) / 20.0;
        let err = (pkts.len() as f64 - expect).abs() / expect;
        assert!(err < 0.001, "count={} expect={expect}", pkts.len());
    }

    #[test]
    fn ports_rotate() {
        let mut g = Generator::new(TrafficSpec::ipv4_64b(10.0, 3));
        let pkts = g.packets_until(10_000);
        let mut seen = std::collections::HashSet::new();
        for (_, p) in &pkts {
            seen.insert(p.in_port);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn frames_are_well_formed() {
        for kind in [TrafficKind::Ipv4Udp, TrafficKind::Ipv6Udp] {
            let mut g = Generator::new(TrafficSpec {
                kind,
                offered_bits: GIGA,
                ports: 4,
                seed: 7,
                ..TrafficSpec::default()
            });
            for _ in 0..50 {
                let (_, p) = g.next_packet();
                assert_eq!(p.len(), 64);
                assert_eq!(
                    ps_net::classify(&p.data, &[]),
                    ps_net::Verdict::FastPath,
                    "kind {kind:?}"
                );
            }
        }
    }

    /// The template fast path must be byte-identical to the full
    /// builder for every frame size and tuple — checksums included.
    #[test]
    fn template_frames_match_packetbuilder() {
        let (sm, dm) = (MacAddr::local(1), MacAddr::local(2));
        let mut r = ps_rng::Rng::seed_from_u64(0xF0F0);
        for &len in &[60usize, 64, 65, 101, 128, 512, 1514] {
            let t4 = FrameTemplate::new(TrafficKind::Ipv4Udp, len, sm, dm);
            let t6 = FrameTemplate::new(TrafficKind::Ipv6Udp, len, sm, dm);
            for _ in 0..50 {
                let (s4, d4) = (
                    Ipv4Addr::from(r.gen::<u32>()),
                    Ipv4Addr::from(r.gen::<u32>()),
                );
                let (sp, dp) = (r.gen::<u16>(), r.gen::<u16>());
                assert_eq!(
                    t4.frame_v4(s4, d4, sp, dp),
                    PacketBuilder::udp_v4(sm, dm, s4, d4, sp, dp, len),
                    "v4 len={len} {s4}->{d4} {sp}->{dp}"
                );
                let (s6, d6) = (
                    Ipv6Addr::from(r.gen::<u128>()),
                    Ipv6Addr::from(r.gen::<u128>()),
                );
                assert_eq!(
                    t6.frame_v6(s6, d6, sp, dp),
                    PacketBuilder::udp_v6(sm, dm, s6, d6, sp, dp, len),
                    "v6 len={len}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Generator::new(TrafficSpec::ipv4_64b(5.0, 11));
        let mut b = Generator::new(TrafficSpec::ipv4_64b(5.0, 11));
        for _ in 0..100 {
            let (ta, pa) = a.next_packet();
            let (tb, pb) = b.next_packet();
            assert_eq!(ta, tb);
            assert_eq!(pa.data, pb.data);
        }
    }

    #[test]
    fn limited_flow_population_repeats_tuples() {
        let mut spec = TrafficSpec::ipv4_64b(1.0, 9);
        spec.flows = Some(8);
        let mut g = Generator::new(spec);
        let frames: Vec<Vec<u8>> = (0..24).map(|_| g.next_packet().1.data).collect();
        assert_eq!(frames[0], frames[8]);
        assert_eq!(frames[3], frames[19]);
        assert_ne!(frames[0], frames[1]);
    }

    #[test]
    fn sink_accounts_latency_and_loss() {
        let mut g = Generator::new(TrafficSpec::ipv4_64b(1.0, 5));
        let mut sink = Sink::new();
        for _ in 0..1000 {
            let (t, p) = g.next_packet();
            sink.deliver(t + 100_000, &p); // 100 us RTT
        }
        assert_eq!(sink.delivered.packets, 1000);
        let p50 = sink.latency.p50();
        assert!((90_000..115_000).contains(&p50), "p50={p50}");
    }

    #[test]
    fn sink_throughput_metric() {
        let mut sink = Sink::new();
        let mut g = Generator::new(TrafficSpec::ipv4_64b(10.0, 5));
        // Deliver everything generated in 1ms at the same instant.
        for (t, p) in g.packets_until(MILLIS) {
            sink.deliver(t, &p);
        }
        let gbps = sink.gbps(MILLIS);
        assert!((9.8..10.2).contains(&gbps), "{gbps} Gbps");
    }

    #[test]
    fn imix_blend_has_the_7_4_1_ratio() {
        let mut g = Generator::new(TrafficSpec::imix(10.0, 4));
        let mut counts = [0u64; 3];
        for _ in 0..1200 {
            let m = g.next_meta();
            let class = IMIX_LENS
                .iter()
                .position(|&l| l == m.len)
                .expect("imix len");
            counts[class] += 1;
        }
        assert_eq!(counts, [700, 400, 100], "7:4:1 over each 12-frame cycle");
    }

    #[test]
    fn imix_pacing_matches_offered_load() {
        // 10 Gbps of the IMIX blend: mean wire length = (7*88 + 4*618
        // + 1542) / 12 = 385.17 B -> ~3.245 Mpps -> ~3245 per ms.
        let mut g = Generator::new(TrafficSpec::imix(10.0, 1));
        let pkts = g.packets_until(MILLIS);
        let wire: u64 = pkts.iter().map(|(_, p)| p.len() as u64 + 24).sum();
        let gbps = wire as f64 * 8.0 / 1e6;
        assert!((9.8..10.2).contains(&gbps), "{gbps} Gbps offered");
        let n = pkts.len();
        assert!((3200..3290).contains(&n), "{n} packets per ms");
    }

    #[test]
    fn imix_frames_are_well_formed_and_materialize_identically() {
        let mut g = Generator::new(TrafficSpec::imix(10.0, 9));
        for _ in 0..36 {
            let meta = g.next_meta();
            let p = g.materialize_into(&meta, Vec::new());
            assert_eq!(p.len(), meta.len);
            assert!(IMIX_LENS.contains(&p.len()));
            assert_eq!(ps_net::classify(&p.data, &[]), ps_net::Verdict::FastPath);
        }
    }

    #[test]
    fn heavy_tail_concentrates_on_few_flows() {
        let k = 4096u32;
        let spec = TrafficSpec::ipv4_64b(10.0, 21).with_heavy_tail(k, 3);
        let mut g = Generator::new(spec);
        let mut per_flow = std::collections::HashMap::new();
        let n = 100_000u64;
        for _ in 0..n {
            let m = g.next_meta();
            *per_flow.entry(m.tuple).or_insert(0u64) += 1;
        }
        let mut sizes: Vec<u64> = per_flow.values().copied().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        // With u^3 the top decile of flows carries q^(1/3) ≈ 46% of
        // packets (a uniform population would carry ~10%).
        let top = sizes.iter().take(sizes.len() / 10).sum::<u64>();
        assert!(
            top as f64 > 0.4 * n as f64,
            "top-decile share {top}/{n} not heavy-tailed"
        );
        assert!(sizes[0] > n / 100, "largest flow too small: {}", sizes[0]);
    }

    #[test]
    fn heavy_flow_id_is_a_pure_function() {
        let spec = TrafficSpec::ipv4_64b(1.0, 33).with_heavy_tail(1 << 20, 3);
        for seq in [0u64, 1, 77, 1 << 33] {
            let a = Generator::heavy_flow_id(&spec, seq, 1 << 20, 3);
            let b = Generator::heavy_flow_id(&spec, seq, 1 << 20, 3);
            assert_eq!(a, b);
            assert!(a < 1 << 20);
        }
    }

    #[test]
    fn scaled_spec_scales_pacing() {
        let base = TrafficSpec::ipv4_64b(10.0, 1);
        let mut half = Generator::new(base.scaled(0.5));
        let mut full = Generator::new(base);
        let (h, f) = (half.packets_until(MILLIS), full.packets_until(MILLIS));
        let ratio = h.len() as f64 / f.len() as f64;
        assert!((0.49..0.51).contains(&ratio), "ratio={ratio}");
        // Degenerate factors stay constructible.
        let _ = Generator::new(base.scaled(0.0));
    }

    #[test]
    fn closed_loop_builder_sets_the_watermark() {
        let spec = TrafficSpec::ipv4_64b(10.0, 1).closed_loop(768);
        assert_eq!(
            spec.load,
            LoadMode::ClosedLoop {
                high_watermark: 768
            }
        );
        assert_eq!(TrafficSpec::default().load, LoadMode::OpenLoop);
    }

    #[test]
    fn skip_meta_keeps_the_stream_aligned() {
        // Skipping k packets must leave the generator in exactly the
        // state k next_meta calls would — pacing, ports, ids and the
        // tuple RNG stream — for both the shared-stream and the keyed
        // flows tuple paths.
        let mut specs = vec![];
        for flows in [None, Some(16u32)] {
            let mut spec = TrafficSpec::ipv4_64b(40.0, 7);
            spec.flows = flows;
            specs.push(spec);
        }
        // Variable-size and heavy-tailed streams must satisfy the same
        // contract: their length class and flow id are pure functions
        // of seq, so the skip path stays aligned for free.
        specs.push(TrafficSpec::imix(40.0, 7));
        specs.push(TrafficSpec::imix(40.0, 7).with_heavy_tail(64, 3));
        for spec in specs {
            let flows = spec.flows;
            let mut a = Generator::new(spec);
            let mut b = Generator::new(spec);
            let reference: Vec<FrameMeta> = (0..6).map(|_| a.next_meta()).collect();
            assert_eq!(b.peek_port(), reference[0].port);
            b.skip_meta();
            assert_eq!(b.peek_port(), reference[1].port);
            assert_eq!(b.next_time(), reference[1].t);
            b.skip_meta();
            b.skip_meta();
            for expect in &reference[3..] {
                let got = b.next_meta();
                assert_eq!(got.t, expect.t, "pacing aligned (flows={flows:?})");
                assert_eq!(got.id, expect.id, "ids aligned");
                assert_eq!(got.port, expect.port, "ports aligned");
                assert_eq!(got.tuple, expect.tuple, "tuple stream aligned");
            }
        }
    }
}
