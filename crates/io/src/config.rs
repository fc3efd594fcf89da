//! Engine configuration: the knobs the paper's experiments vary.

use ps_hw::numa::Placement;

/// Packet I/O engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct IoConfig {
    /// Maximum packets fetched per batched RX call (the chunk cap,
    /// §5.3; Figure 5 sweeps this).
    pub batch_cap: usize,
    /// NUMA placement policy (§4.5).
    pub placement: Placement,
}

impl Default for IoConfig {
    fn default() -> Self {
        IoConfig {
            batch_cap: 64,
            placement: Placement::NumaAware,
        }
    }
}

impl IoConfig {
    /// The tuned configuration the paper evaluates.
    pub fn paper() -> IoConfig {
        IoConfig::default()
    }

    /// The NUMA-blind baseline of §4.5.
    pub fn numa_blind() -> IoConfig {
        IoConfig {
            placement: Placement::NumaBlind,
            ..IoConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(IoConfig::paper().batch_cap, 64);
        assert_eq!(IoConfig::numa_blind().placement, Placement::NumaBlind);
    }
}
