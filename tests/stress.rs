//! Overload and stress tests for shard requests.
//!
//! The parity suite (`tests/shards.rs`) pins *what* a sharded run
//! computes; this file pins that hostile load does not change it:
//! all-cross-traffic overload must give the same report at every
//! shard count, and injected ps-fault degradation must compose with a
//! sharding request (the fault ledger invariant — every injected
//! fault handled or dropped — holds at every shard count).

use packetshader::core::apps::{ForwardPattern, MinimalApp};
use packetshader::core::{Router, RouterConfig};
use packetshader::fault::FaultSpec;
use packetshader::pktgen::TrafficSpec;
use packetshader::sim::MILLIS;

// ---------------------------------------------------------------------------
// Router level: overload and fault degradation compose with shards.
// ---------------------------------------------------------------------------

const DUR: u64 = MILLIS / 2;

/// Every packet crosses the QPI seam at 2.5x the deliverable rate:
/// under sustained overload (drops, full rings, backlogged IOHs) the
/// run is never replicated, so every shard count must match the
/// sequential run byte for byte.
#[test]
fn overloaded_cross_traffic_stays_identical_across_shard_counts() {
    let mut cfg = RouterConfig::paper_cpu();
    cfg.testbed.ioh = cfg.testbed.ioh.with_qpi_hop(300);
    let spec = TrafficSpec::ipv4_64b(60.0, 13);
    let run = |shards: usize| {
        let app = MinimalApp::new(ForwardPattern::NodeCrossing, 8);
        Router::run_with_shards(cfg, app, spec, DUR, shards)
    };
    let base = run(1);
    assert!(
        base.delivery_ratio() < 0.9,
        "the workload must actually overload the box (got {:.3})",
        base.delivery_ratio()
    );
    let fp = format!("{base:?}");
    for shards in [2usize, 4, 8] {
        assert_eq!(
            fp,
            format!("{:?}", run(shards)),
            "overloaded parity at shards={shards}"
        );
    }
}

/// PCIe stall injection composes with a sharding request: the run
/// collapses to sequential (fault RNG streams are global), every
/// stall that exhausted its retries sent its batch down the CPU
/// fallback, and the report is count-independent.
#[test]
fn pcie_stalls_compose_with_sharding() {
    let run = |shards: usize| {
        let mut cfg = RouterConfig::paper_gpu();
        cfg.faults = FaultSpec::scenario("pcie")
            .expect("known scenario")
            .with_seed(0x5EED);
        let app = MinimalApp::new(ForwardPattern::SameNode, 8);
        Router::run_with_shards(cfg, app, TrafficSpec::ipv4_64b(30.0, 9), DUR, shards)
    };
    let base = run(1);
    assert!(base.faults.injected() > 0, "stalls must actually fire");
    assert_eq!(
        base.faults.cpu_fallbacks,
        base.faults.pcie_escalated,
        "one fallback per escalated stall\n{}",
        base.faults.summary_table()
    );
    let fp = format!("{base:?}");
    for shards in [2usize, 4, 8] {
        let r = run(shards);
        assert_eq!(fp, format!("{r:?}"), "faulted parity at shards={shards}");
    }
}
