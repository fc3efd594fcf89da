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
    /// Priority lane for one flow in 16: those whose RSS hash has its
    /// low four bits clear.
    pub priority: bool,
}

/// RSS-hash bits that must all be zero for a flow to take the
/// priority lane: one flow in 16.
const PRIORITY_HASH_MASK: u32 = 15;

impl LatencyConfig {
    /// Everything off: the paper's fixed-cap, moderated pipeline.
    pub fn off() -> LatencyConfig {
        LatencyConfig {
            adaptive_batch: false,
            priority: false,
        }
    }

    /// Adaptive batching on with the default scaling.
    pub fn adaptive() -> LatencyConfig {
        LatencyConfig {
            adaptive_batch: true,
            ..LatencyConfig::off()
        }
    }

    /// This config with the priority lane on.
    pub fn with_priority(mut self) -> LatencyConfig {
        self.priority = true;
        self
    }

    /// Does a packet with RSS hash `hash` take the priority lane? A
    /// pure per-packet function of the flow tuple, so the
    /// classification is identical at every shard count (the parity
    /// the sharded scheduler needs) and on every replica of the
    /// generator stream.
    #[inline]
    pub(crate) fn is_priority(&self, hash: u32) -> bool {
        self.priority && hash & PRIORITY_HASH_MASK == 0
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
    /// Maximum chunks gathered into one shading step (gather/scatter,
    /// §5.4); 1 turns gathering off.
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
    /// Fault injection: [`FaultSpec::none`] (the default) arms no plan
    /// and leaves the pipeline byte-identical to the fault-free seed.
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
        let c = LatencyConfig::off().with_priority();
        let hits = (0u32..4096).filter(|&h| c.is_priority(h)).count();
        assert_eq!(hits, 256);
        assert!(c.is_priority(0));
        assert!(!c.is_priority(1));
        assert!(!LatencyConfig::off().is_priority(0));
    }

    #[test]
    fn latency_defaults_are_off() {
        let l = LatencyConfig::default();
        assert!(!l.adaptive_batch);
        assert!(!l.priority);
        let a = LatencyConfig::adaptive().with_priority();
        assert!(a.adaptive_batch);
        assert!(a.priority);
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
