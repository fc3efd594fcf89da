//! Router configuration: the knobs the evaluation sweeps.

use ps_fault::FaultSpec;
use ps_gpu::Staging;
use ps_hw::spec::Testbed;
use ps_io::IoConfig;

/// Execution mode (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Eight worker threads, no GPU.
    CpuOnly,
    /// Six workers + two masters driving the GPUs.
    CpuGpu,
}

/// Classifies latency-critical flows by their RSS hash: a packet is
/// priority when `hash & mask == value`. A pure per-packet function
/// of the flow tuple, so the classification is identical at every
/// shard count (the parity the sharded scheduler needs) and on every
/// replica of the generator stream.
#[derive(Debug, Clone, Copy)]
pub struct PriorityClass {
    /// Hash bits examined.
    pub mask: u32,
    /// Required value of the examined bits.
    pub value: u32,
}

impl PriorityClass {
    /// Mark roughly one flow in `n` (a power of two) as priority.
    pub(crate) fn one_in(n: u32) -> PriorityClass {
        assert!(n.is_power_of_two(), "priority fraction must be 2^k");
        PriorityClass {
            mask: n - 1,
            value: 0,
        }
    }

    /// Does `hash` fall in the priority class?
    #[inline]
    pub fn matches(&self, hash: u32) -> bool {
        hash & self.mask == self.value
    }
}

/// Latency-governance knobs (DESIGN.md §12).
///
/// The default ([`LatencyConfig::off`]) disables every mechanism and
/// leaves the pipeline byte-identical in virtual time to the
/// pre-governance router — the fingerprint pins in `tests/fastpath.rs`
/// and `tests/staging.rs` run that mode.
#[derive(Debug, Clone, Copy)]
pub struct LatencyConfig {
    /// Adaptive batching: scale each RX fetch's cap with the ring's
    /// depth and skip the interrupt-moderation floor while the queue
    /// is shallow. Shallow queue → small batches and eager interrupts
    /// (latency regime); deep queue → the full 64-packet cap and
    /// moderated interrupts (throughput regime). Self-stabilizing:
    /// overload grows the queues, which grows the batches back to the
    /// paper's operating point.
    pub adaptive_batch: bool,
    /// Priority-lane classifier; [`None`] means no priority lane.
    pub priority: Option<PriorityClass>,
}

impl LatencyConfig {
    /// Everything off: the paper's fixed-cap, moderated pipeline.
    pub fn off() -> LatencyConfig {
        LatencyConfig {
            adaptive_batch: false,
            priority: None,
        }
    }

    /// Adaptive batching on with the default scaling.
    pub fn adaptive() -> LatencyConfig {
        LatencyConfig {
            adaptive_batch: true,
            ..LatencyConfig::off()
        }
    }

    /// This config with a priority lane for ~one flow in `n`.
    pub fn with_priority(mut self, n: u32) -> LatencyConfig {
        self.priority = Some(PriorityClass::one_in(n));
        self
    }
}

impl Default for LatencyConfig {
    fn default() -> LatencyConfig {
        LatencyConfig::off()
    }
}

/// Full router configuration.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// CPU-only or CPU+GPU.
    pub mode: Mode,
    /// Packet I/O engine knobs (batch cap, NUMA placement).
    pub io: IoConfig,
    /// Hardware constants.
    pub testbed: Testbed,
    /// NUMA nodes simulated (2 on the paper box; 1 for the
    /// single-core experiments).
    pub nodes: usize,
    /// Worker threads per node (3 in CPU+GPU mode, 4 in CPU-only).
    pub workers_per_node: usize,
    /// Active 10 GbE ports total (8 on the paper box; 2 in Fig. 5).
    pub ports: u16,
    /// Concurrent copy & execution (§5.4; on for IPsec only).
    pub concurrent_copy: bool,
    /// Gather/scatter at the master (§5.4).
    pub gather: bool,
    /// Maximum chunks gathered into one shading step.
    pub max_gather_chunks: usize,
    /// Opportunistic offloading (§7): small chunks take the CPU path.
    pub opportunistic: bool,
    /// Device memory to allocate per simulated GPU (bytes). Sized to
    /// the workload to keep host memory use reasonable.
    pub gpu_mem_bytes: usize,
    /// How kernel input columns reach device memory (SoA gather by
    /// default; `Frames`/`DirectDma` are ablation modes, §4.3.1 and
    /// the NaNet-style direct path).
    pub staging: Staging,
    /// Fault injection: all-zero chances (the default) arm no plan
    /// and leave the pipeline byte-identical to the fault-free seed.
    pub faults: FaultSpec,
    /// Latency governance (adaptive batching, priority lanes);
    /// [`LatencyConfig::off`] by default.
    pub latency: LatencyConfig,
}

impl RouterConfig {
    /// The paper's CPU+GPU configuration.
    pub fn paper_gpu() -> RouterConfig {
        RouterConfig {
            mode: Mode::CpuGpu,
            io: IoConfig::paper(),
            testbed: Testbed::paper(),
            nodes: 2,
            workers_per_node: 3,
            ports: 8,
            concurrent_copy: false,
            gather: true,
            max_gather_chunks: 24,
            opportunistic: false,
            gpu_mem_bytes: 128 << 20,
            staging: Staging::Soa,
            faults: FaultSpec::none(),
            latency: LatencyConfig::off(),
        }
    }

    /// The paper's CPU-only configuration (8 workers).
    pub fn paper_cpu() -> RouterConfig {
        RouterConfig {
            mode: Mode::CpuOnly,
            workers_per_node: 4,
            ..RouterConfig::paper_gpu()
        }
    }

    /// Figure 5's setup: one core, two ports, batch cap swept.
    pub fn fig5(batch_cap: usize) -> RouterConfig {
        RouterConfig {
            mode: Mode::CpuOnly,
            io: IoConfig {
                batch_cap,
                ..IoConfig::paper()
            },
            nodes: 1,
            workers_per_node: 1,
            ports: 2,
            ..RouterConfig::paper_gpu()
        }
    }

    /// Workers in the whole system.
    pub(crate) fn total_workers(&self) -> usize {
        self.nodes * self.workers_per_node
    }

    /// Ports per node.
    pub fn ports_per_node(&self) -> u16 {
        self.ports / self.nodes as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_class_selects_the_expected_fraction() {
        let c = PriorityClass::one_in(16);
        let hits = (0u32..4096).filter(|&h| c.matches(h)).count();
        assert_eq!(hits, 256);
        assert!(c.matches(0));
        assert!(!c.matches(1));
    }

    #[test]
    fn latency_defaults_are_off() {
        let l = LatencyConfig::default();
        assert!(!l.adaptive_batch);
        assert!(l.priority.is_none());
        let a = LatencyConfig::adaptive().with_priority(8);
        assert!(a.adaptive_batch);
        assert_eq!(a.priority.unwrap().mask, 7);
    }

    #[test]
    fn presets_match_paper() {
        let gpu = RouterConfig::paper_gpu();
        assert_eq!(gpu.total_workers(), 6);
        assert_eq!(gpu.ports_per_node(), 4);
        let cpu = RouterConfig::paper_cpu();
        assert_eq!(cpu.total_workers(), 8);
        let f5 = RouterConfig::fig5(64);
        assert_eq!(f5.total_workers(), 1);
        assert_eq!(f5.ports, 2);
    }
}
