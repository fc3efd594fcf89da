//! # ps-fault — deterministic fault injection for the simulated router
//!
//! The paper's numbers assume the hardware behaves: DMA completes,
//! kernels return, rings drain. This crate is the adversary. A
//! [`FaultSpec`] names the fault classes a scenario arms, their
//! injection rate and a seed; when the rate is nonzero the router
//! arms a [`FaultPlan`] — per-class RNG streams split from one seed —
//! that decides, packet by packet and batch by batch, which fault
//! fires next:
//!
//! * **NIC** (owned by `ps-nic`): RX descriptor-starvation bursts and
//!   link flaps. Both kill frames at the MAC, before any DMA.
//! * **Wire** (generator to NIC): frame corruption — bit flips,
//!   truncation, zero-length runts, broken checksums/ICVs
//!   ([`CorruptKind`]). Corrupted frames enter the pipeline and must
//!   come out as *counted drops*, never panics.
//! * **PCIe** (owned by `ps-sim`'s resource model via the IOH): copy
//!   stalls retried with exponential backoff, bounded by a retry
//!   budget of three; exhaustion escalates to the CPU fallback.
//! * **GPU** (owned by `ps-gpu`): kernel aborts (the whole batch
//!   re-runs functionally on the host CPU at calibrated cost) and
//!   slow-warp stragglers that stretch a launch and occupy the
//!   engines past their modeled completion.
//!
//! ## Determinism rules
//!
//! Same spec (including seed) ⇒ the same faults at the same virtual
//! times ⇒ byte-identical run statistics. Three mechanisms make this
//! hold:
//!
//! 1. Each fault class draws from its **own** RNG stream
//!    (SplitMix64-derived from the spec seed), so enabling one class
//!    never perturbs another's decisions.
//! 2. Every draw is gated on its chance being nonzero — a rate-0
//!    spec consumes **no** randomness, no virtual time and emits no
//!    trace events, so fault-free runs reproduce the pinned seed
//!    fingerprints byte for byte.
//! 3. Fault decisions depend only on (stream position, port/node),
//!    never on wall-clock state.
//!
//! Scenario specs are replayable via `PS_FAULT_SEED` (decimal or
//! `0x`-hex; a value that does not parse panics), mirroring
//! `PS_CHECK_SEED`. Every fired fault emits a
//! [`ps_trace::Category::Fault`] instant, and [`FaultStats`] feeds
//! the `fault_summary` table. What checks the router against it:
//! the router's own NIC-fault drop count must equal `flap_drops +
//! nic_starved`, every lost GPU batch must show as a CPU fallback,
//! and a run drained to completion must leave no corrupted packet
//! in flight.

#![deny(missing_docs)]

use std::ops::RangeInclusive;

use ps_rng::{splitmix64, Rng};
use ps_sim::time::Time;
use ps_trace::Category;

/// Ethernet header length — corruption kinds aimed at L3 leave the
/// Ethernet header intact so the damage lands where parsers and
/// checksums actually look.
const ETH_LEN: usize = 14;

/// The ways a frame can be damaged on the wire. Each kind targets a
/// different defensive layer in the router: parsers (truncation,
/// zero length), checksum/ICV verification (bad checksum), and both
/// (a bit flip lands anywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// One random bit anywhere in the frame is inverted.
    BitFlip,
    /// The frame is cut short at a random interior offset.
    Truncate,
    /// The frame arrives with zero octets (a runt the MAC passed up).
    ZeroLength,
    /// A bit inside the L3 region flips, guaranteeing any checksum or
    /// authentication tag over that region no longer verifies.
    BadChecksum,
}

impl CorruptKind {
    /// All kinds, in the order [`CorruptKind::pick`] indexes them.
    pub const ALL: [CorruptKind; 4] = [
        CorruptKind::BitFlip,
        CorruptKind::Truncate,
        CorruptKind::ZeroLength,
        CorruptKind::BadChecksum,
    ];

    /// Draw a kind uniformly from `rng`.
    pub fn pick(rng: &mut Rng) -> CorruptKind {
        Self::ALL[rng.gen_range(0..Self::ALL.len())]
    }

    /// Stable lowercase label for tables and traces.
    pub fn name(self) -> &'static str {
        match self {
            CorruptKind::BitFlip => "bit_flip",
            CorruptKind::Truncate => "truncate",
            CorruptKind::ZeroLength => "zero_len",
            CorruptKind::BadChecksum => "bad_csum",
        }
    }
}

/// Damage `data` in place according to `kind`, drawing offsets from
/// `rng`. Pure apart from the RNG: the same stream and input produce
/// the same corruption, which is what keeps fault plans replayable.
pub fn corrupt_in_place(rng: &mut Rng, kind: CorruptKind, data: &mut Vec<u8>) {
    match kind {
        CorruptKind::BitFlip => {
            if !data.is_empty() {
                let idx = rng.gen_range(0..data.len());
                let bit = 1u8 << rng.gen_range(0u32..8);
                data[idx] ^= bit;
            }
        }
        CorruptKind::Truncate => {
            if data.len() > 1 {
                let keep = rng.gen_range(1..data.len());
                data.truncate(keep);
            }
        }
        CorruptKind::ZeroLength => data.clear(),
        CorruptKind::BadChecksum => {
            if data.len() > ETH_LEN {
                // Flip one bit within the first 20 octets after the
                // Ethernet header — inside the IPv4 header checksum /
                // IPv6 pseudo-header / ESP authenticated region.
                let span = (data.len() - ETH_LEN).min(20);
                let idx = ETH_LEN + rng.gen_range(0..span);
                let bit = 1u8 << rng.gen_range(0u32..8);
                data[idx] ^= bit;
            } else if !data.is_empty() {
                let idx = rng.gen_range(0..data.len());
                data[idx] ^= 1;
            }
        }
    }
}

/// Frames killed by one starvation burst, inclusive.
const NIC_BURST: RangeInclusive<u32> = 2..=8;
/// Link-down window per flap in ns, inclusive.
const LINK_FLAP_NS: RangeInclusive<u64> = 50_000..=200_000;
/// Base PCIe stall before the first retry (doubles per retry).
const PCIE_STALL_NS: u64 = 5_000;
/// PCIe retry budget; a stall that exhausts it escalates to the CPU
/// fallback path.
const PCIE_MAX_RETRIES: u32 = 3;
/// Straggler cost: percentage added to the batch's shading time.
const STRAGGLE_EXTRA_PCT: u32 = 30;

/// The fault classes a scenario arms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Classes {
    /// RX descriptor-starvation bursts and link flaps.
    nic: bool,
    /// On-the-wire frame corruption.
    corrupt: bool,
    /// PCIe copy stalls.
    pcie: bool,
    /// GPU kernel aborts and slow-warp stragglers.
    gpu: bool,
}

/// Which fault classes fire, how often, and from which seed. A spec
/// that arms no class or has rate 0 means "no plan": the router then
/// skips the fault layer entirely (zero RNG draws, zero trace events).
///
/// Every armed class fires with probability `rate` per frame or per
/// batch, except link flaps: they kill tens of microseconds of traffic
/// each, so they fire at `rate / 10` to keep a sweep's x-axis "per-event
/// rate".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    seed: u64,
    rate: f64,
    classes: Classes,
}

impl FaultSpec {
    /// No faults; the router runs exactly the fault-free pipeline.
    pub fn none() -> FaultSpec {
        FaultSpec {
            seed: 0,
            rate: 0.0,
            classes: Classes::default(),
        }
    }

    /// Whether any fault class can fire.
    pub fn enabled(&self) -> bool {
        self.rate > 0.0 && self.classes != Classes::default()
    }

    /// A named scenario at a 1% default injection rate, honoring
    /// `PS_FAULT_SEED` when set. Known names: `nic`, `corrupt`,
    /// `pcie`, `gpu`, `all`.
    pub fn scenario(name: &str) -> Option<FaultSpec> {
        let classes = match name {
            "nic" => Classes {
                nic: true,
                ..Classes::default()
            },
            "corrupt" => Classes {
                corrupt: true,
                ..Classes::default()
            },
            "pcie" => Classes {
                pcie: true,
                ..Classes::default()
            },
            "gpu" => Classes {
                gpu: true,
                ..Classes::default()
            },
            "all" => Classes {
                nic: true,
                corrupt: true,
                pcie: true,
                gpu: true,
            },
            _ => return None,
        };
        Some(FaultSpec {
            seed: ps_rng::env_u64("PS_FAULT_SEED").unwrap_or(0xFA17),
            rate: 0.01,
            classes,
        })
    }

    /// The same scenario at injection rate `rate` (degradation sweeps
    /// sweep this). A rate of 0 disables the plan entirely.
    pub fn with_rate(mut self, rate: f64) -> FaultSpec {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        self.rate = rate;
        self
    }

    /// The same spec with a different seed.
    pub fn with_seed(mut self, seed: u64) -> FaultSpec {
        self.seed = seed;
        self
    }

    /// Seed for the plan's RNG streams (`PS_FAULT_SEED` replays it).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Draw an event of probability `chance` from `rng` for a class the
/// spec arms; an unarmed class or a zero chance consumes no draw.
fn fires(rng: &mut Rng, armed: bool, chance: f64) -> bool {
    armed && chance > 0.0 && rng.gen_bool(chance)
}

/// A NIC-layer fault verdict for one arriving frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicFault {
    /// The RX ring had no posted descriptor (starvation burst).
    Starve,
    /// The link flapped down; the frame (and everything arriving
    /// within the window) is lost at the MAC.
    LinkFlap {
        /// How long the link stays down, in ns.
        down_ns: Time,
    },
}

/// A shading-layer fault verdict for one gathered batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadeFault {
    /// No fault; the batch shades normally.
    None,
    /// A PCIe copy stalled; the driver retries with exponential
    /// backoff. `stall_ns` is the total time lost; `escalate` means
    /// the retry budget ran out and the batch must take the CPU
    /// fallback.
    PcieStall {
        /// Total backoff time consumed by the retries.
        stall_ns: Time,
        /// Whether the retry budget was exhausted.
        escalate: bool,
    },
    /// The kernel aborted; the batch re-runs functionally on the CPU.
    GpuAbort,
    /// A slow warp straggles: the launch takes `extra_pct` percent
    /// longer and the engines stay occupied for the overrun.
    Straggle {
        /// Percentage added to the batch's shading interval.
        extra_pct: u32,
    },
}

/// Per-port fault accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortFaults {
    /// Frames killed at this port's MAC (starvation + flap windows).
    pub nic_drops: u64,
    /// Frames corrupted on this port's ingress wire.
    pub corrupted: u64,
}

/// Every fault counter the plan and router maintain. Packets
/// corrupted but still in the pipeline are carried by the live
/// `corrupt_in_flight` gauge, kept as injected − dropped − delivered;
/// what checks the router's settling is a run drained to completion,
/// which must leave it at 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames killed by descriptor-starvation bursts.
    pub nic_starved: u64,
    /// Link-flap events fired.
    pub flaps: u64,
    /// Frames lost inside link-down windows.
    pub flap_drops: u64,
    /// Frames corrupted on the wire.
    pub corrupt_injected: u64,
    /// Corruptions by kind, indexed like [`CorruptKind::ALL`].
    pub corrupt_by_kind: [u64; 4],
    /// Corrupted frames the pipeline dropped (counted, not panicked).
    pub corrupt_dropped: u64,
    /// Corrupted frames that still forwarded (damage the apps don't
    /// inspect, e.g. a payload bit flip).
    pub corrupt_delivered: u64,
    /// Corrupted frames currently inside the pipeline.
    pub corrupt_in_flight: u64,
    /// PCIe copy stalls injected.
    pub pcie_stalls: u64,
    /// Total retries those stalls consumed.
    pub pcie_retries: u64,
    /// Total ns of backoff charged to the fabric.
    pub pcie_stall_ns: u64,
    /// Stalls that exhausted the retry budget (→ CPU fallback).
    pub pcie_escalated: u64,
    /// GPU kernel aborts injected.
    pub gpu_aborts: u64,
    /// Slow-warp stragglers injected.
    pub gpu_stragglers: u64,
    /// Total ns stragglers added to shading intervals.
    pub straggle_extra_ns: u64,
    /// Batches re-run functionally on the host CPU.
    pub cpu_fallbacks: u64,
    /// Packets carried through the CPU fallback path.
    pub cpu_fallback_pkts: u64,
    /// Per-port ledger, indexed by port id.
    pub per_port: Vec<PortFaults>,
}

impl FaultStats {
    /// Grow the per-port ledger to cover `port`.
    fn port_entry(&mut self, port: u16) -> &mut PortFaults {
        let idx = port as usize;
        if self.per_port.len() <= idx {
            self.per_port.resize(idx + 1, PortFaults::default());
        }
        &mut self.per_port[idx]
    }

    /// Total fault events injected.
    pub fn injected(&self) -> u64 {
        self.nic_starved
            + self.flap_drops
            + self.corrupt_injected
            + self.pcie_stalls
            + self.gpu_aborts
            + self.gpu_stragglers
    }

    /// Fault events the pipeline absorbed without losing the packet:
    /// survived corruptions (delivered or still in flight), retried
    /// stalls, fallbacks and stragglers.
    pub fn handled(&self) -> u64 {
        self.corrupt_delivered
            + self.corrupt_in_flight
            + self.pcie_stalls
            + self.gpu_aborts
            + self.gpu_stragglers
    }

    /// Fault events that cost the packet (all counted drops).
    pub fn dropped(&self) -> u64 {
        self.nic_starved + self.flap_drops + self.corrupt_dropped
    }

    /// FNV-1a digest over every counter — the "stats fingerprint"
    /// determinism tests pin per seed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for v in [
            self.nic_starved,
            self.flaps,
            self.flap_drops,
            self.corrupt_injected,
            self.corrupt_dropped,
            self.corrupt_delivered,
            self.corrupt_in_flight,
            self.pcie_stalls,
            self.pcie_retries,
            self.pcie_stall_ns,
            self.pcie_escalated,
            self.gpu_aborts,
            self.gpu_stragglers,
            self.straggle_extra_ns,
            self.cpu_fallbacks,
            self.cpu_fallback_pkts,
        ] {
            mix(v);
        }
        for k in self.corrupt_by_kind {
            mix(k);
        }
        for p in &self.per_port {
            mix(p.nic_drops);
            mix(p.corrupted);
        }
        h
    }

    /// Human-readable `fault_summary` table.
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        s.push_str("fault_summary\n");
        s.push_str("  class          injected   handled   dropped\n");
        let mut row = |name: &str, inj: u64, han: u64, dro: u64| {
            s.push_str(&format!("  {name:<14} {inj:>8} {han:>9} {dro:>9}\n"));
        };
        row("nic_starve", self.nic_starved, 0, self.nic_starved);
        row("link_flap", self.flap_drops, 0, self.flap_drops);
        row(
            "wire_corrupt",
            self.corrupt_injected,
            self.corrupt_delivered + self.corrupt_in_flight,
            self.corrupt_dropped,
        );
        row("pcie_stall", self.pcie_stalls, self.pcie_stalls, 0);
        row("gpu_abort", self.gpu_aborts, self.gpu_aborts, 0);
        row("gpu_straggle", self.gpu_stragglers, self.gpu_stragglers, 0);
        row("total", self.injected(), self.handled(), self.dropped());
        s.push_str(&format!(
            "  corrupt kinds: bit_flip={} truncate={} zero_len={} bad_csum={} (in_flight={})\n",
            self.corrupt_by_kind[0],
            self.corrupt_by_kind[1],
            self.corrupt_by_kind[2],
            self.corrupt_by_kind[3],
            self.corrupt_in_flight,
        ));
        s.push_str(&format!(
            "  flaps={} pcie: retries={} stall_ns={} escalated={}  straggle_ns={}\n",
            self.flaps,
            self.pcie_retries,
            self.pcie_stall_ns,
            self.pcie_escalated,
            self.straggle_extra_ns,
        ));
        s.push_str(&format!(
            "  cpu_fallbacks={} ({} pkts)\n",
            self.cpu_fallbacks, self.cpu_fallback_pkts,
        ));
        let ports: Vec<String> = self
            .per_port
            .iter()
            .enumerate()
            .filter(|(_, p)| p.nic_drops + p.corrupted > 0)
            .map(|(i, p)| format!("p{i}:{}+{}c", p.nic_drops, p.corrupted))
            .collect();
        if !ports.is_empty() {
            s.push_str(&format!(
                "  per-port (drops+corrupt): {}\n",
                ports.join(" ")
            ));
        }
        s
    }
}

/// The armed, stateful fault injector: per-class RNG streams plus the
/// running [`FaultStats`] ledger. Built by the router when its
/// config's [`FaultSpec::enabled`]; absent otherwise.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng_nic: Rng,
    rng_wire: Rng,
    rng_gpu: Rng,
    /// Remaining kills of the current starvation burst, per port.
    burst_left: Vec<u32>,
    /// The running ledger. Routers mutate the corruption-outcome
    /// counters directly as packets die or deliver.
    pub stats: FaultStats,
}

impl FaultPlan {
    /// Arm a plan for `spec`.
    pub fn new(spec: FaultSpec) -> FaultPlan {
        let mut s = spec.seed;
        let mut stream = || Rng::seed_from_u64(splitmix64(&mut s));
        FaultPlan {
            spec,
            rng_nic: stream(),
            rng_wire: stream(),
            rng_gpu: stream(),
            burst_left: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Decide the NIC's fate for a frame arriving on `port` at `now`.
    /// The caller (the router driving `ps-nic`) owns the link-down
    /// window; frames it kills inside that window are recorded via
    /// [`FaultPlan::note_flap_drop`] without consuming any draw here.
    pub fn nic_fault(&mut self, port: u16, now: Time) -> Option<NicFault> {
        let idx = port as usize;
        if self.burst_left.len() <= idx {
            self.burst_left.resize(idx + 1, 0);
        }
        if self.burst_left[idx] > 0 {
            self.burst_left[idx] -= 1;
            self.note_starve(port, now);
            return Some(NicFault::Starve);
        }
        let (nic, rate) = (self.spec.classes.nic, self.spec.rate);
        if fires(&mut self.rng_nic, nic, rate / 10.0) {
            let down_ns = self.rng_nic.gen_range(LINK_FLAP_NS);
            self.stats.flaps += 1;
            ps_trace::instant(Category::Fault, "link_flap", u32::from(port), now, || {
                vec![("down_ns", down_ns)]
            });
            self.note_flap_drop(port);
            return Some(NicFault::LinkFlap { down_ns });
        }
        if fires(&mut self.rng_nic, nic, rate) {
            self.burst_left[idx] = self.rng_nic.gen_range(NIC_BURST) - 1;
            self.note_starve(port, now);
            return Some(NicFault::Starve);
        }
        None
    }

    fn note_starve(&mut self, port: u16, now: Time) {
        self.stats.nic_starved += 1;
        self.stats.port_entry(port).nic_drops += 1;
        ps_trace::instant(
            Category::Fault,
            "nic_starve",
            u32::from(port),
            now,
            Vec::new,
        );
    }

    /// Record a frame lost inside a link-down window (the window
    /// itself was opened by an earlier [`NicFault::LinkFlap`]).
    pub fn note_flap_drop(&mut self, port: u16) {
        self.stats.flap_drops += 1;
        self.stats.port_entry(port).nic_drops += 1;
    }

    /// Maybe corrupt a freshly materialized frame arriving on `port`.
    /// Returns the kind applied; the caller marks the packet so every
    /// later drop or delivery is attributed back to this ledger.
    pub fn corrupt_frame(
        &mut self,
        port: u16,
        now: Time,
        data: &mut Vec<u8>,
    ) -> Option<CorruptKind> {
        if !fires(
            &mut self.rng_wire,
            self.spec.classes.corrupt,
            self.spec.rate,
        ) {
            return None;
        }
        let kind = CorruptKind::pick(&mut self.rng_wire);
        corrupt_in_place(&mut self.rng_wire, kind, data);
        self.stats.corrupt_injected += 1;
        self.stats.corrupt_in_flight += 1;
        let ki = CorruptKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind in ALL");
        self.stats.corrupt_by_kind[ki] += 1;
        self.stats.port_entry(port).corrupted += 1;
        ps_trace::instant(
            Category::Fault,
            "wire_corrupt",
            u32::from(port),
            now,
            || vec![("kind", ki as u64)],
        );
        Some(kind)
    }

    /// Record a corrupted packet leaving the pipeline as a counted drop.
    pub fn note_corrupt_dropped(&mut self) {
        self.stats.corrupt_dropped += 1;
        self.stats.corrupt_in_flight = self
            .stats
            .corrupt_in_flight
            .checked_sub(1)
            .expect("dropped corrupt packet not in flight");
    }

    /// Record a corrupted packet that still forwarded to the sink.
    pub fn note_corrupt_delivered(&mut self) {
        self.stats.corrupt_delivered += 1;
        self.stats.corrupt_in_flight = self
            .stats
            .corrupt_in_flight
            .checked_sub(1)
            .expect("delivered corrupt packet not in flight");
    }

    /// Decide the shading fate of a batch on `node` at `now`. At most
    /// one class fires per batch (stall, then abort, then straggler),
    /// keeping the ledger one-event-per-batch.
    pub fn shade_fault(&mut self, node: usize, now: Time) -> ShadeFault {
        let (classes, rate) = (self.spec.classes, self.spec.rate);
        if fires(&mut self.rng_gpu, classes.pcie, rate) {
            // Attempts needed for the copy to go through: uniform over
            // [1, budget + 1]; needing more than the budget escalates.
            let attempts = self.rng_gpu.gen_range(1..=PCIE_MAX_RETRIES + 1);
            let escalate = attempts > PCIE_MAX_RETRIES;
            let retries = attempts.min(PCIE_MAX_RETRIES);
            // Exponential backoff: base, 2*base, 4*base, ...
            let stall_ns = PCIE_STALL_NS * ((1u64 << retries) - 1);
            self.stats.pcie_stalls += 1;
            self.stats.pcie_retries += u64::from(retries);
            self.stats.pcie_stall_ns += stall_ns;
            if escalate {
                self.stats.pcie_escalated += 1;
            }
            ps_trace::instant(Category::Fault, "pcie_stall", node as u32, now, || {
                vec![
                    ("stall_ns", stall_ns),
                    ("retries", u64::from(retries)),
                    ("escalate", u64::from(escalate)),
                ]
            });
            return ShadeFault::PcieStall { stall_ns, escalate };
        }
        if fires(&mut self.rng_gpu, classes.gpu, rate) {
            self.stats.gpu_aborts += 1;
            ps_trace::instant(Category::Fault, "gpu_abort", node as u32, now, Vec::new);
            return ShadeFault::GpuAbort;
        }
        if fires(&mut self.rng_gpu, classes.gpu, rate) {
            self.stats.gpu_stragglers += 1;
            ps_trace::instant(Category::Fault, "gpu_straggle", node as u32, now, || {
                vec![("extra_pct", u64::from(STRAGGLE_EXTRA_PCT))]
            });
            return ShadeFault::Straggle {
                extra_pct: STRAGGLE_EXTRA_PCT,
            };
        }
        ShadeFault::None
    }

    /// Record a batch taking the CPU fallback path with `pkts` packets.
    pub fn note_cpu_fallback(&mut self, pkts: u64) {
        self.stats.cpu_fallbacks += 1;
        self.stats.cpu_fallback_pkts += pkts;
    }

    /// Record the straggler overrun actually charged to a launch.
    pub fn note_straggle_ns(&mut self, extra: Time) {
        self.stats.straggle_extra_ns += extra;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_spec() -> FaultSpec {
        FaultSpec::scenario("all").expect("known scenario")
    }

    #[test]
    fn zero_spec_is_disabled() {
        assert!(!FaultSpec::none().enabled());
        assert!(busy_spec().enabled());
        assert!(!busy_spec().with_rate(0.0).enabled());
    }

    #[test]
    fn scenarios_cover_their_classes() {
        let nic = FaultSpec::scenario("nic").expect("nic");
        assert!(nic.classes.nic && !nic.classes.corrupt);
        assert_eq!(nic.rate, 0.01);
        let gpu = FaultSpec::scenario("gpu").expect("gpu");
        assert!(gpu.classes.gpu && !gpu.classes.pcie);
        let all = FaultSpec::scenario("all").expect("all");
        assert!(all.classes.nic && all.classes.corrupt && all.classes.pcie && all.classes.gpu);
        assert!(FaultSpec::scenario("bogus").is_none());
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(busy_spec().with_seed(seed).with_rate(0.3));
            let mut log = Vec::new();
            for i in 0..500u64 {
                let port = (i % 4) as u16;
                log.push(plan.nic_fault(port, i).is_some());
                let mut data = vec![0xAB; 64];
                log.push(plan.corrupt_frame(port, i, &mut data).is_some());
                log.push(plan.shade_fault(0, i) != ShadeFault::None);
            }
            (log, plan.stats.fingerprint())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn classes_draw_from_independent_streams() {
        // Disabling corruption must not change NIC or GPU decisions.
        let decisions = |spec: FaultSpec| {
            let mut plan = FaultPlan::new(spec);
            let mut log = Vec::new();
            for i in 0..500u64 {
                log.push(plan.nic_fault(0, i).is_some());
                log.push(plan.shade_fault(0, i) != ShadeFault::None);
            }
            log
        };
        let with = busy_spec().with_rate(0.2);
        let without = FaultSpec {
            classes: Classes {
                corrupt: false,
                ..with.classes
            },
            ..with
        };
        assert_eq!(decisions(with), decisions(without));
    }

    #[test]
    fn starvation_bursts_run_their_length() {
        // At rate 1 every frame dies: a flap, or a starvation burst
        // whose drawn length in NIC_BURST kills exactly that many.
        let spec = FaultSpec::scenario("nic").expect("nic").with_rate(1.0);
        let mut plan = FaultPlan::new(spec);
        let (mut t, mut starved) = (0u64, 0u64);
        while t < 500 {
            match plan.nic_fault(0, t) {
                Some(NicFault::Starve) => {
                    let len = plan.burst_left[0] + 1;
                    assert!(NIC_BURST.contains(&len), "burst of {len}");
                    for k in 1..u64::from(len) {
                        assert_eq!(plan.nic_fault(0, t + k), Some(NicFault::Starve));
                    }
                    assert_eq!(plan.burst_left[0], 0);
                    t += u64::from(len);
                    starved += u64::from(len);
                }
                Some(NicFault::LinkFlap { .. }) => t += 1,
                None => panic!("a frame survived at rate 1"),
            }
        }
        assert!(starved > 0);
        assert_eq!(plan.stats.nic_starved, starved);
    }

    #[test]
    fn stall_backoff_is_bounded() {
        let spec = FaultSpec::scenario("pcie").expect("pcie").with_rate(1.0);
        let mut plan = FaultPlan::new(spec);
        let worst = PCIE_STALL_NS * ((1u64 << PCIE_MAX_RETRIES) - 1);
        for i in 0..200 {
            match plan.shade_fault(0, i) {
                ShadeFault::PcieStall { stall_ns, .. } => {
                    assert!(stall_ns <= worst, "stall {stall_ns} > worst {worst}")
                }
                other => panic!("expected stall, got {other:?}"),
            }
        }
        assert!(plan.stats.pcie_escalated > 0, "some stalls must escalate");
        assert!(
            plan.stats.pcie_escalated < plan.stats.pcie_stalls,
            "not all stalls escalate"
        );
    }

    /// The plan's ledger against tallies the caller keeps itself from
    /// the decisions it was handed and the fates it chose.
    #[test]
    fn ledger_matches_caller_tallies_under_synthetic_traffic() {
        let mut plan = FaultPlan::new(busy_spec().with_rate(0.2));
        let (mut killed, mut dropped, mut delivered) = (0u64, 0u64, 0u64);
        let (mut stalls, mut aborts, mut straggles, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
        for i in 0..2000u64 {
            let port = (i % 8) as u16;
            if plan.nic_fault(port, i).is_some() {
                killed += 1;
            }
            let mut data = vec![0xAB; 64];
            if plan.corrupt_frame(port, i, &mut data).is_some() {
                // Caller decides the packet's fate; alternate.
                if i % 2 == 0 {
                    plan.note_corrupt_dropped();
                    dropped += 1;
                } else {
                    plan.note_corrupt_delivered();
                    delivered += 1;
                }
            }
            match plan.shade_fault(0, i) {
                ShadeFault::None => continue,
                ShadeFault::PcieStall { escalate, .. } => {
                    stalls += 1;
                    if !escalate {
                        continue;
                    }
                }
                ShadeFault::GpuAbort => aborts += 1,
                ShadeFault::Straggle { .. } => {
                    straggles += 1;
                    plan.note_straggle_ns(1000);
                    continue;
                }
            }
            plan.note_cpu_fallback(32);
            fallbacks += 1;
        }
        let st = &plan.stats;
        let table = st.summary_table();
        assert!(killed > 0 && dropped > 0 && delivered > 0, "{table}");
        assert!(stalls > 0 && aborts > 0 && straggles > 0, "{table}");
        assert_eq!(st.nic_starved + st.flap_drops, killed, "{table}");
        let per_port: u64 = st.per_port.iter().map(|p| p.nic_drops).sum();
        assert_eq!(per_port, killed, "{table}");
        assert_eq!(st.corrupt_injected, dropped + delivered, "{table}");
        assert_eq!(
            (st.corrupt_dropped, st.corrupt_delivered),
            (dropped, delivered)
        );
        assert_eq!(st.corrupt_in_flight, 0, "{table}");
        assert_eq!((st.pcie_stalls, st.gpu_aborts), (stalls, aborts), "{table}");
        assert_eq!(st.gpu_stragglers, straggles, "{table}");
        assert_eq!(st.straggle_extra_ns, 1000 * straggles, "{table}");
        assert_eq!(st.cpu_fallbacks, aborts + st.pcie_escalated, "{table}");
        assert_eq!(
            (st.cpu_fallbacks, st.cpu_fallback_pkts),
            (fallbacks, 32 * fallbacks)
        );
        let total = killed + dropped + delivered + stalls + aborts + straggles;
        assert_eq!(st.injected(), total, "{table}");
        assert!(table.contains(&format!(" {total} ")), "{table}");
    }

    #[test]
    fn summary_table_renders_counts() {
        let mut stats = FaultStats {
            nic_starved: 3,
            corrupt_injected: 2,
            corrupt_dropped: 2,
            ..FaultStats::default()
        };
        stats.port_entry(1).nic_drops = 3;
        let t = stats.summary_table();
        assert!(t.contains("nic_starve"), "{t}");
        assert!(t.contains("p1:3+0c"), "{t}");
        let total = ["total", "5", "0", "5"];
        assert!(t.lines().any(|l| l.split_whitespace().eq(total)), "{t}");
    }

    #[test]
    fn corrupt_kinds_damage_as_documented() {
        let base = vec![0xAB; 64];
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..100 {
            let mut d = base.clone();
            corrupt_in_place(&mut rng, CorruptKind::BitFlip, &mut d);
            let diff: u32 = d.iter().map(|b| (b ^ 0xAB).count_ones()).sum();
            assert_eq!(diff, 1);

            let mut d = base.clone();
            corrupt_in_place(&mut rng, CorruptKind::Truncate, &mut d);
            assert!(!d.is_empty() && d.len() < base.len(), "len {}", d.len());

            let mut d = base.clone();
            corrupt_in_place(&mut rng, CorruptKind::ZeroLength, &mut d);
            assert!(d.is_empty());

            let mut d = base.clone();
            corrupt_in_place(&mut rng, CorruptKind::BadChecksum, &mut d);
            assert_eq!(d.len(), base.len());
            let first_diff = d.iter().position(|&b| b != 0xAB).expect("one flip");
            assert!((14..34).contains(&first_diff), "flip at {first_diff}");
        }
    }

    #[test]
    fn corrupt_handles_degenerate_frames() {
        let mut rng = Rng::seed_from_u64(12);
        for kind in CorruptKind::ALL {
            let mut empty: Vec<u8> = Vec::new();
            corrupt_in_place(&mut rng, kind, &mut empty);
            let mut one = vec![0u8; 1];
            corrupt_in_place(&mut rng, kind, &mut one);
        }
    }
}
