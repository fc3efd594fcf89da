//! # ps-fault — deterministic fault injection for the simulated router
//!
//! The paper's numbers assume the hardware behaves: DMA completes,
//! kernels return, rings drain. This crate is the adversary. A
//! [`FaultSpec`] names per-class injection probabilities; when any is
//! nonzero the router arms a [`FaultPlan`] — per-class RNG streams
//! split from one seed — that decides, packet by packet and batch by
//! batch, which fault fires next:
//!
//! * **NIC** (owned by `ps-nic`): RX descriptor-starvation bursts and
//!   link flaps. Both kill frames at the MAC, before any DMA.
//! * **Wire** (generator to NIC): frame corruption — bit flips,
//!   truncation, zero-length runts, broken checksums/ICVs
//!   ([`CorruptKind`]). Corrupted frames enter the pipeline and must
//!   come out as *counted drops*, never panics.
//! * **PCIe** (owned by `ps-sim`'s resource model via the IOH): copy
//!   stalls retried with exponential backoff, bounded by
//!   [`FaultSpec::pcie_max_retries`]; exhaustion escalates to the
//!   CPU fallback.
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
//! 2. Every draw is gated on its chance being nonzero — an all-zero
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
//! the `fault_summary` table whose identity `injected == handled +
//! dropped` the tests reconcile exactly.

#![deny(missing_docs)]

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

/// Per-class fault probabilities and shape parameters. All-zero
/// chances mean "no plan": the router then skips the fault layer
/// entirely (zero RNG draws, zero trace events).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed for the plan's RNG streams (`PS_FAULT_SEED` replays it).
    pub seed: u64,
    /// Per-frame probability an RX descriptor-starvation burst begins.
    pub nic_starve_chance: f64,
    /// Frames killed by one starvation burst, `[lo, hi]` inclusive.
    pub nic_burst: (u32, u32),
    /// Per-frame probability the ingress link flaps down.
    pub link_flap_chance: f64,
    /// Link-down window per flap in ns, `[lo, hi]` inclusive.
    pub link_flap_ns: (u64, u64),
    /// Per-frame probability of on-the-wire corruption.
    pub corrupt_chance: f64,
    /// Per-batch probability a shading copy stalls on PCIe.
    pub pcie_stall_chance: f64,
    /// Base stall before the first retry (doubles per retry).
    pub pcie_stall_ns: u64,
    /// Retry budget; a stall that exhausts it escalates to the CPU
    /// fallback path.
    pub pcie_max_retries: u32,
    /// Per-batch probability the kernel aborts (CPU fallback).
    pub gpu_abort_chance: f64,
    /// Per-batch probability of a slow-warp straggler.
    pub gpu_straggle_chance: f64,
    /// Straggler cost: percentage added to the batch's shading time.
    pub straggle_extra_pct: u32,
}

impl FaultSpec {
    /// No faults; the router runs exactly the fault-free pipeline.
    pub fn none() -> FaultSpec {
        FaultSpec {
            seed: 0,
            nic_starve_chance: 0.0,
            nic_burst: (2, 8),
            link_flap_chance: 0.0,
            link_flap_ns: (50_000, 200_000),
            corrupt_chance: 0.0,
            pcie_stall_chance: 0.0,
            pcie_stall_ns: 5_000,
            pcie_max_retries: 3,
            gpu_abort_chance: 0.0,
            gpu_straggle_chance: 0.0,
            straggle_extra_pct: 30,
        }
    }

    /// Whether any fault class can fire.
    pub fn enabled(&self) -> bool {
        self.nic_starve_chance > 0.0
            || self.link_flap_chance > 0.0
            || self.corrupt_chance > 0.0
            || self.pcie_stall_chance > 0.0
            || self.gpu_abort_chance > 0.0
            || self.gpu_straggle_chance > 0.0
    }

    /// A named scenario at a 1% default injection rate, honoring
    /// `PS_FAULT_SEED` when set. Known names: `nic`, `corrupt`,
    /// `pcie`, `gpu`, `all`.
    pub fn scenario(name: &str) -> Option<FaultSpec> {
        let base = FaultSpec {
            seed: ps_rng::env_u64("PS_FAULT_SEED").unwrap_or(0xFA17),
            ..FaultSpec::none()
        };
        let rate = 0.01;
        let spec = match name {
            "nic" => FaultSpec {
                nic_starve_chance: rate,
                link_flap_chance: rate / 10.0,
                ..base
            },
            "corrupt" => FaultSpec {
                corrupt_chance: rate,
                ..base
            },
            "pcie" => FaultSpec {
                pcie_stall_chance: rate,
                ..base
            },
            "gpu" => FaultSpec {
                gpu_abort_chance: rate,
                gpu_straggle_chance: rate,
                ..base
            },
            "all" => FaultSpec {
                nic_starve_chance: rate,
                link_flap_chance: rate / 10.0,
                corrupt_chance: rate,
                pcie_stall_chance: rate,
                gpu_abort_chance: rate,
                gpu_straggle_chance: rate,
                ..base
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The same scenario with every *enabled* chance rescaled so the
    /// dominant classes fire with probability `rate` (degradation
    /// sweeps sweep this). A rate of 0 disables the plan entirely.
    pub fn with_rate(mut self, rate: f64) -> FaultSpec {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        let scale = |c: &mut f64, r: f64| {
            if *c > 0.0 {
                *c = r;
            } else {
                *c = 0.0;
            }
        };
        scale(&mut self.nic_starve_chance, rate);
        // Flaps kill tens of microseconds of traffic each; keep them
        // an order of magnitude rarer than per-frame faults so the
        // sweep's x-axis stays "per-event rate".
        scale(&mut self.link_flap_chance, rate / 10.0);
        scale(&mut self.corrupt_chance, rate);
        scale(&mut self.pcie_stall_chance, rate);
        scale(&mut self.gpu_abort_chance, rate);
        scale(&mut self.gpu_straggle_chance, rate);
        self
    }

    /// The same spec with a different seed.
    pub fn with_seed(mut self, seed: u64) -> FaultSpec {
        self.seed = seed;
        self
    }
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

/// Every fault counter the plan and router maintain. The ledger
/// closes: `injected() == handled() + dropped()` at any instant —
/// packets corrupted but still in the pipeline are carried by the
/// live `corrupt_in_flight` gauge.
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
    fn port_mut(&mut self, port: u16) -> &mut PortFaults {
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

    /// Whether the ledger closes: every injected fault is accounted
    /// as handled or dropped, with nothing lost or double-counted.
    pub fn reconciles(&self) -> bool {
        self.injected() == self.handled() + self.dropped()
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
        s.push_str(&format!(
            "  reconcile: injected {} == handled {} + dropped {} ? {}\n",
            self.injected(),
            self.handled(),
            self.dropped(),
            if self.reconciles() { "OK" } else { "MISMATCH" },
        ));
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
    /// Arm a plan for `spec`. Panics if any chance is outside [0, 1].
    pub fn new(spec: FaultSpec) -> FaultPlan {
        for c in [
            spec.nic_starve_chance,
            spec.link_flap_chance,
            spec.corrupt_chance,
            spec.pcie_stall_chance,
            spec.gpu_abort_chance,
            spec.gpu_straggle_chance,
        ] {
            assert!((0.0..=1.0).contains(&c), "chance {c} out of range");
        }
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

    /// The spec this plan was armed with.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
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
        if self.spec.link_flap_chance > 0.0 && self.rng_nic.gen_bool(self.spec.link_flap_chance) {
            let (lo, hi) = self.spec.link_flap_ns;
            let down_ns = if hi > lo {
                self.rng_nic.gen_range(lo..=hi)
            } else {
                lo
            };
            self.stats.flaps += 1;
            ps_trace::instant(Category::Fault, "link_flap", u32::from(port), now, || {
                vec![("down_ns", down_ns)]
            });
            self.note_flap_drop(port);
            return Some(NicFault::LinkFlap { down_ns });
        }
        if self.spec.nic_starve_chance > 0.0 && self.rng_nic.gen_bool(self.spec.nic_starve_chance) {
            let (lo, hi) = self.spec.nic_burst;
            let burst = if hi > lo {
                self.rng_nic.gen_range(lo..=hi)
            } else {
                lo.max(1)
            };
            self.burst_left[idx] = burst.saturating_sub(1);
            self.note_starve(port, now);
            return Some(NicFault::Starve);
        }
        None
    }

    fn note_starve(&mut self, port: u16, now: Time) {
        self.stats.nic_starved += 1;
        self.stats.port_mut(port).nic_drops += 1;
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
        self.stats.port_mut(port).nic_drops += 1;
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
        if self.spec.corrupt_chance <= 0.0 || !self.rng_wire.gen_bool(self.spec.corrupt_chance) {
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
        self.stats.port_mut(port).corrupted += 1;
        ps_trace::instant(
            Category::Fault,
            "wire_corrupt",
            u32::from(port),
            now,
            || vec![("kind", ki as u64)],
        );
        Some(kind)
    }

    /// Record corrupted packets leaving the pipeline as counted drops.
    pub fn note_corrupt_dropped(&mut self, n: u64) {
        self.stats.corrupt_dropped += n;
        self.stats.corrupt_in_flight = self
            .stats
            .corrupt_in_flight
            .checked_sub(n)
            .expect("more corrupted drops than in flight");
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
        if self.spec.pcie_stall_chance > 0.0 && self.rng_gpu.gen_bool(self.spec.pcie_stall_chance) {
            // Attempts needed for the copy to go through: uniform over
            // [1, budget + 1]; needing more than the budget escalates.
            let budget = self.spec.pcie_max_retries.max(1);
            let attempts = self.rng_gpu.gen_range(1..=budget + 1);
            let escalate = attempts > budget;
            let retries = attempts.min(budget);
            // Exponential backoff: base, 2*base, 4*base, ...
            let stall_ns = self.spec.pcie_stall_ns * ((1u64 << retries) - 1);
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
        if self.spec.gpu_abort_chance > 0.0 && self.rng_gpu.gen_bool(self.spec.gpu_abort_chance) {
            self.stats.gpu_aborts += 1;
            ps_trace::instant(Category::Fault, "gpu_abort", node as u32, now, Vec::new);
            return ShadeFault::GpuAbort;
        }
        if self.spec.gpu_straggle_chance > 0.0
            && self.rng_gpu.gen_bool(self.spec.gpu_straggle_chance)
        {
            self.stats.gpu_stragglers += 1;
            ps_trace::instant(Category::Fault, "gpu_straggle", node as u32, now, || {
                vec![("extra_pct", u64::from(self.spec.straggle_extra_pct))]
            });
            return ShadeFault::Straggle {
                extra_pct: self.spec.straggle_extra_pct,
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
        assert!(nic.nic_starve_chance > 0.0 && nic.link_flap_chance > 0.0);
        assert_eq!(nic.corrupt_chance, 0.0);
        let gpu = FaultSpec::scenario("gpu").expect("gpu");
        assert!(gpu.gpu_abort_chance > 0.0 && gpu.gpu_straggle_chance > 0.0);
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
            corrupt_chance: 0.0,
            ..with
        };
        assert_eq!(decisions(with), decisions(without));
    }

    #[test]
    fn starvation_bursts_run_their_length() {
        let spec = FaultSpec {
            nic_starve_chance: 1.0,
            nic_burst: (3, 3),
            ..FaultSpec::none()
        };
        let mut plan = FaultPlan::new(spec);
        for i in 0..9 {
            assert_eq!(plan.nic_fault(0, i), Some(NicFault::Starve));
        }
        // Every frame died: 3 bursts of 3.
        assert_eq!(plan.stats.nic_starved, 9);
    }

    #[test]
    fn stall_backoff_is_bounded() {
        let spec = FaultSpec {
            pcie_stall_chance: 1.0,
            ..FaultSpec::none()
        };
        let mut plan = FaultPlan::new(spec);
        let worst = spec.pcie_stall_ns * ((1u64 << spec.pcie_max_retries) - 1);
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

    #[test]
    fn ledger_reconciles_under_synthetic_traffic() {
        let mut plan = FaultPlan::new(busy_spec().with_rate(0.2));
        for i in 0..2000u64 {
            let port = (i % 8) as u16;
            let _ = plan.nic_fault(port, i);
            let mut data = vec![0xAB; 64];
            if plan.corrupt_frame(port, i, &mut data).is_some() {
                // Caller decides the packet's fate; alternate.
                if i % 2 == 0 {
                    plan.note_corrupt_dropped(1);
                } else {
                    plan.note_corrupt_delivered();
                }
            }
            match plan.shade_fault(0, i) {
                ShadeFault::GpuAbort => plan.note_cpu_fallback(32),
                ShadeFault::PcieStall { escalate: true, .. } => plan.note_cpu_fallback(32),
                ShadeFault::Straggle { .. } => plan.note_straggle_ns(1000),
                _ => {}
            }
        }
        assert!(plan.stats.injected() > 0);
        assert!(plan.stats.reconciles(), "{}", plan.stats.summary_table());
        let table = plan.stats.summary_table();
        assert!(table.contains("reconcile"), "{table}");
        assert!(table.contains("OK"), "{table}");
    }

    #[test]
    fn summary_table_renders_counts() {
        let mut stats = FaultStats {
            nic_starved: 3,
            corrupt_injected: 2,
            corrupt_dropped: 2,
            ..FaultStats::default()
        };
        stats.port_mut(1).nic_drops = 3;
        let t = stats.summary_table();
        assert!(t.contains("nic_starve"), "{t}");
        assert!(t.contains("p1:3+0c"), "{t}");
        assert!(t.contains("OK"), "{t}");
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
