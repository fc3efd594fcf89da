//! Overload-governance suite (ISSUE 10): adaptive batching, priority
//! lanes, closed-loop backpressure and the decomposed drop ledger.
//!
//! Two families of guarantees:
//!
//! * **Behavioral** — adaptive batching must actually cut the
//!   low-load sojourn tail without costing saturated throughput, and
//!   a closed-loop source must convert overload into generator-side
//!   ledger entries instead of NIC tail drops.
//! * **Determinism** — every governance mechanism is a pure function
//!   of virtual-time state, so runs with all of them armed must stay
//!   byte-identical across `shards ∈ {1, 2, 4, 8}` — drop ledger,
//!   sojourn histograms and latency fingerprint included.
//!
//! `ps-check` properties at the bottom pin the [`Histogram`]
//! percentile edges the new p999/max columns rely on.

use packetshader::check::{check, ensure, ensure_eq, Gen};
use packetshader::core::apps::{ForwardPattern, MinimalApp};
use packetshader::core::{LatencyConfig, Router, RouterConfig, RouterReport};
use packetshader::fault::FaultSpec;
use packetshader::pktgen::{TrafficKind, TrafficSpec};
use packetshader::sim::stats::Histogram;
use packetshader::sim::MILLIS;
use ps_bench::workloads;

/// Parity-run duration: long enough to fill pipelines and drop paths.
const DUR: u64 = MILLIS / 2;

fn ipv4_spec(gbps: f64, seed: u64) -> TrafficSpec {
    TrafficSpec {
        kind: TrafficKind::Ipv4Udp,
        frame_len: 64,
        offered_bits: (gbps * 1e9) as u64,
        ports: 8,
        seed,
        flows: None,
        ..TrafficSpec::default()
    }
}

/// The adaptive latency profile the overload sweep measures: depth-
/// scaled fetch caps, eager interrupts, and opportunistic offload so
/// the shrunken low-load chunks skip the GPU pipeline.
fn adaptive_cfg() -> RouterConfig {
    let mut cfg = RouterConfig::paper_gpu();
    cfg.latency = LatencyConfig::adaptive();
    cfg.opportunistic = true;
    cfg
}

// ---------------------------------------------------------------------------
// 1. Behavior: the latency/throughput trade the sweep is judged on.
// ---------------------------------------------------------------------------

/// At half load, adaptive batching must cut the p99 RX→TX sojourn
/// against the fixed 64-cap pipeline (the acceptance headline), and
/// the p999 tail — dominated by interrupt-moderation stalls in fixed
/// mode — must shrink at least as much.
#[test]
fn adaptive_batching_cuts_low_load_sojourn_tail() {
    let run = |cfg: RouterConfig| {
        Router::run(cfg, workloads::ipv4_app(2_000, 1), ipv4_spec(20.0, 1), DUR)
    };
    let fixed = run(RouterConfig::paper_gpu());
    let adaptive = run(adaptive_cfg());
    assert!(
        adaptive.sojourn.p99() < fixed.sojourn.p99(),
        "p99 sojourn: adaptive {} ns vs fixed {} ns",
        adaptive.sojourn.p99(),
        fixed.sojourn.p99(),
    );
    assert!(
        adaptive.sojourn.p999() < fixed.sojourn.p999(),
        "p999 sojourn: adaptive {} ns vs fixed {} ns",
        adaptive.sojourn.p999(),
        fixed.sojourn.p999(),
    );
    // The cut must not come out of delivery: both modes carry the
    // full offered load at this operating point.
    let ratio = adaptive.delivered.packets as f64 / fixed.delivered.packets.max(1) as f64;
    assert!(
        ratio > 0.99,
        "adaptive must not shed load at half load (ratio {ratio:.4})"
    );
}

/// At saturating load the adaptive governor must fall back to the
/// paper's operating point: queues stay deep, so caps sit at 64 and
/// interrupts moderate — delivered throughput within 5% of fixed.
#[test]
fn adaptive_batching_holds_saturated_throughput() {
    let run = |cfg: RouterConfig| {
        Router::run(cfg, workloads::ipv4_app(2_000, 1), ipv4_spec(42.0, 1), DUR)
    };
    let fixed = run(RouterConfig::paper_gpu());
    let adaptive = run(adaptive_cfg());
    let ratio = adaptive.delivered.packets as f64 / fixed.delivered.packets.max(1) as f64;
    assert!(
        ratio > 0.95,
        "adaptive delivered {} vs fixed {} at saturation (ratio {ratio:.4})",
        adaptive.delivered.packets,
        fixed.delivered.packets,
    );
}

/// A closed-loop source under 2x overload throttles at the generator:
/// the drop ledger moves entirely to `backpressure`, the NIC and the
/// rings never tail-drop, and queue growth stays pinned near the high
/// watermark instead of slamming into ring capacity.
#[test]
fn closed_loop_source_absorbs_overload() {
    let spec = ipv4_spec(80.0, 1).closed_loop(64);
    let r = Router::run(
        RouterConfig::paper_gpu(),
        workloads::ipv4_app(2_000, 1),
        spec,
        DUR,
    );
    assert!(r.drops.backpressure > 0, "source must throttle under 2x");
    assert_eq!(r.drops.ring_tail, 0, "rings must never overflow");
    assert_eq!(r.drops.nic_admission, 0, "NIC must never starve");
    assert!(
        r.peak_ring_depth < 1024,
        "queue growth must stay off ring capacity (peak {})",
        r.peak_ring_depth
    );
    // The open-loop run of the same offered load does overflow — the
    // contrast the sweep's 2.0x row shows.
    let open = Router::run(
        RouterConfig::paper_gpu(),
        workloads::ipv4_app(2_000, 1),
        ipv4_spec(80.0, 1),
        DUR,
    );
    assert!(open.drops.nic_side() > 0, "open loop must drop at the NIC");
    assert_eq!(open.drops.backpressure, 0, "open loop never throttles");
}

/// Priority-lane packets bypass bulk batching and the GPU pipeline:
/// their sojourn tail must sit below the bulk tail, and the split
/// histograms must cover every delivered packet between them.
#[test]
fn priority_lane_undercuts_bulk_sojourn() {
    let mut cfg = adaptive_cfg();
    cfg.latency = cfg.latency.with_priority(16);
    let r = Router::run(cfg, workloads::ipv4_app(2_000, 1), ipv4_spec(20.0, 1), DUR);
    assert!(r.prio_sojourn.count() > 0, "some flows must classify");
    assert!(
        r.prio_sojourn.count() < r.sojourn.count(),
        "priority must be a strict subset"
    );
    assert!(
        r.prio_sojourn.p99() <= r.sojourn.p99(),
        "prio p99 {} ns must not exceed bulk p99 {} ns",
        r.prio_sojourn.p99(),
        r.sojourn.p99(),
    );
    assert!(r.prio_latency.count() > 0, "sink sees the priority split");
}

// ---------------------------------------------------------------------------
// 2. The drop-accounting seam: ledger counters stay decomposable.
// ---------------------------------------------------------------------------

/// Injected NIC faults and organic descriptor starvation share the
/// `rx_drops` total (the pinned quantity) but distinct ledger
/// counters, and the fault side must reconcile against the ps-fault
/// ledger exactly: `nic_fault == flap_drops + nic_starved`.
#[test]
fn fault_and_admission_drops_stay_decomposed() {
    let mut cfg = RouterConfig::paper_cpu();
    cfg.faults = FaultSpec::scenario("nic")
        .expect("known scenario")
        .with_seed(0xBEEF);
    let r = Router::run(
        cfg,
        MinimalApp::new(ForwardPattern::SameNode, 8),
        ipv4_spec(30.0, 9),
        DUR,
    );
    assert!(r.drops.nic_fault > 0, "the nic scenario must inject drops");
    assert_eq!(
        r.drops.nic_fault,
        r.faults.flap_drops + r.faults.nic_starved,
        "NIC-fault ledger must reconcile with the fault plan's"
    );
    assert_eq!(
        r.drops.nic_fault + r.drops.nic_admission,
        r.drop_split.0,
        "ledger must decompose the NIC-drop total"
    );
    assert_eq!(r.drops.ring_tail, r.drop_split.1);
    assert_eq!(r.drops.nic_side(), r.rx_drops);
    assert_eq!(r.drops.gen_side(), 0, "open loop: no generator drops");
}

/// Default-mode runs leave every governance counter at zero and the
/// NIC ledger equal to the legacy split — the seam is pure
/// bookkeeping.
#[test]
fn default_mode_ledger_matches_legacy_split() {
    let r = Router::run(
        RouterConfig::paper_gpu(),
        workloads::ipv4_app(2_000, 1),
        ipv4_spec(60.0, 1),
        DUR,
    );
    assert_eq!(r.drops.backpressure, 0);
    assert_eq!(r.drops.nic_fault, 0, "no plan armed");
    assert_eq!(r.drops.nic_admission, r.drop_split.0);
    assert_eq!(r.drops.ring_tail, r.drop_split.1);
    assert_eq!(r.prio_sojourn.count(), 0, "no classifier configured");
    assert!(r.sojourn.count() > 0, "sojourn rides every delivery");
}

// ---------------------------------------------------------------------------
// 3. Determinism: governance mechanisms preserve shard parity.
// ---------------------------------------------------------------------------

/// Byte-level report fingerprint (same contract as `tests/shards.rs`:
/// Debug output renders every counter, ledger field and histogram
/// bucket).
fn full_fp(r: &RouterReport) -> String {
    format!("{r:?}")
}

/// A wide box: `nodes` NUMA domains, two ports and one worker each,
/// so shard counts 4 and 8 are real splits.
fn wide_cfg(nodes: usize) -> RouterConfig {
    let mut cfg = RouterConfig::paper_cpu();
    cfg.nodes = nodes;
    cfg.workers_per_node = 1;
    cfg.ports = 2 * nodes as u16;
    cfg
}

fn wide_spec(nodes: usize, gbps: f64, seed: u64) -> TrafficSpec {
    TrafficSpec {
        kind: TrafficKind::Ipv4Udp,
        frame_len: 64,
        offered_bits: (gbps * 1e9) as u64,
        ports: 2 * nodes as u16,
        seed,
        flows: None,
        ..TrafficSpec::default()
    }
}

fn assert_parity(label: &str, cfg: RouterConfig, spec: TrafficSpec) {
    let mk = || MinimalApp::new(ForwardPattern::SameNode, 16);
    let base = full_fp(&Router::run_with_shards(cfg, mk(), spec, DUR, 1));
    for shards in [2usize, 4, 8] {
        let fp = full_fp(&Router::run_with_shards(cfg, mk(), spec, DUR, shards));
        assert_eq!(base, fp, "{label}: shards=1 vs shards={shards}");
    }
}

/// Same seed + load factor ⇒ byte-identical drop ledger and latency
/// fingerprint at shards {1, 2, 4, 8}, with *every* governance
/// mechanism armed at once: adaptive batching, a priority classifier,
/// and a closed-loop source, at half load and at 2x overload.
#[test]
fn governed_overload_identical_across_shard_counts() {
    let mut cfg = wide_cfg(8);
    cfg.latency = LatencyConfig::adaptive().with_priority(16);
    for factor in [0.5f64, 2.0] {
        let spec = wide_spec(8, 40.0, 7).scaled(factor).closed_loop(64);
        assert_parity(&format!("governed {factor}x"), cfg, spec);
    }
}

/// Cross-node forwarding over a priced QPI hop with adaptive batching
/// and priority lanes on: the run collapses to sequential at every
/// shard count, so the ledger — far-future discards at the source
/// included — must not move with the count.
#[test]
fn governed_windowed_run_identical_across_shard_counts() {
    let mut cfg = wide_cfg(4);
    cfg.testbed.ioh = cfg.testbed.ioh.with_qpi_hop(300);
    cfg.latency = LatencyConfig::adaptive().with_priority(16);
    let mk = || MinimalApp::new(ForwardPattern::NodeCrossing, 8);
    let spec = wide_spec(4, 20.0, 11);
    let base = full_fp(&Router::run_with_shards(cfg, mk(), spec, DUR, 1));
    for shards in [2usize, 4, 8] {
        let fp = full_fp(&Router::run_with_shards(cfg, mk(), spec, DUR, shards));
        assert_eq!(base, fp, "governed cross-node: shards=1 vs shards={shards}");
    }
}

// ---------------------------------------------------------------------------
// 4. Histogram percentile edges (ps-check properties).
// ---------------------------------------------------------------------------

/// Empty and single-sample histograms: every quantile of an empty
/// histogram is 0; every quantile of a single-sample histogram is
/// exactly that sample (the min/max clamp collapses the bucket).
#[test]
fn histogram_quantile_edges() {
    check("histogram_quantile_edges", |g: &mut Gen| {
        let empty = Histogram::new();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            ensure_eq!(empty.quantile(q), 0, "empty at q={}", q);
        }
        ensure_eq!(empty.max(), 0);
        let v = g.value::<u64>() >> g.int_in(0u32..=40);
        let mut h = Histogram::new();
        h.record(v);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            ensure_eq!(h.quantile(q), v, "single sample {} at q={}", v, q);
        }
        Ok(())
    });
}

/// Bucket boundaries: values straddling a power of two land exactly
/// when alone in the histogram, for any octave.
#[test]
fn histogram_bucket_boundaries_are_exact_alone() {
    check("histogram_bucket_boundaries", |g: &mut Gen| {
        let k = g.int_in(1u32..=62);
        let v = 1u64 << k;
        for x in [v - 1, v, v + 1] {
            let mut h = Histogram::new();
            h.record(x);
            ensure_eq!(h.p999(), x, "boundary value {}", x);
            ensure_eq!(h.max(), x);
        }
        Ok(())
    });
}

/// Quantiles are monotone in q over any sample set — in particular
/// `p999() >= p99()` — and always bounded by `[min, max]`.
#[test]
fn histogram_quantiles_monotone_and_bounded() {
    check("histogram_quantiles_monotone", |g: &mut Gen| {
        let vals = g.vec_of(1, 300, |g| g.value::<u64>() >> g.int_in(24u32..=60));
        let mut h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        let xs: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        ensure!(
            xs.windows(2).all(|w| w[0] <= w[1]),
            "quantiles must be monotone: {:?}",
            xs
        );
        ensure!(h.p999() >= h.p99(), "p999 below p99");
        ensure!(h.p999() >= h.p50(), "p999 below p50");
        ensure!(
            xs.iter().all(|&x| x >= h.min() && x <= h.max()),
            "quantiles must stay in [min, max]"
        );
        ensure_eq!(h.quantile(1.0), h.max(), "q=1 is the max");
        Ok(())
    });
}
