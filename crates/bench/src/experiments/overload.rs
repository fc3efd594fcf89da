//! Overload sweep — latency and drop behavior across the knee.
//!
//! The paper evaluates throughput at saturating load and latency at
//! moderate load; this experiment walks the whole knee. It first
//! measures the router's delivered ceiling (IPv4 minimal forwarding,
//! 64 B, CPU+GPU) under a saturating open-loop offer, then sweeps
//! offered load from 0.5x to 2.0x of that ceiling for each latency
//! profile:
//!
//! * `fixed`: the paper pipeline — 64-packet fetch cap, moderated
//!   interrupts, open-loop source ([`ps_core::LatencyConfig::off`]);
//! * `adaptive`: depth-scaled fetch cap plus eager interrupts while
//!   queues are shallow ([`ps_core::LatencyConfig::adaptive`]), with
//!   opportunistic offload (§7) so the now-small low-load chunks take
//!   the CPU path instead of queueing through the GPU pipeline;
//! * `adaptive+prio`: adaptive, with ~1/16 of flows classified
//!   latency-critical and riding the priority lanes;
//! * `closed-loop`: fixed batching but a backpressured source — the
//!   generator reads the target RX ring and drops at the source above
//!   the high watermark, so overload converts into an explicit
//!   generator-side ledger entry instead of NIC tail drops.
//!
//! Each cell reports delivered throughput, the RX→TX sojourn tail
//! (p50/p99/p999/max — the residence time batching and queue depth
//! govern), the queue-growth gauge (deepest ring occupancy), and the
//! full drop ledger decomposed by cause. The headline the experiment
//! is judged on: adaptive batching cuts p99 sojourn well below fixed
//! at 0.5x load while delivering the same throughput at 1.0x.

use ps_core::{LatencyConfig, Router, RouterConfig};
use ps_pktgen::{DropLedger, TrafficKind, TrafficSpec};
use ps_sim::MILLIS;

use crate::report::{self, Val};
use crate::{header, window_ms, workloads};

/// Load factors swept, as fractions of the measured ceiling.
pub(crate) const FACTORS: [f64; 6] = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0];

/// Closed-loop high watermark: the source stops offering when the
/// target RX ring holds this many frames. Half the default 128-entry
/// ring keeps headroom for in-flight DMA completions.
pub(crate) const HIGH_WATERMARK: u32 = 64;

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// Latency profile label.
    pub profile: &'static str,
    /// Offered load as a fraction of the measured ceiling.
    pub factor: f64,
    /// Offered load (Gbps, Ethernet-overhead metric).
    pub in_gbps: f64,
    /// Delivered throughput (Gbps).
    pub out_gbps: f64,
    /// Median RX→TX sojourn (µs).
    pub p50_us: f64,
    /// p99 sojourn (µs).
    pub p99_us: f64,
    /// p999 sojourn (µs).
    pub p999_us: f64,
    /// Maximum sojourn (µs).
    pub max_us: f64,
    /// Deepest RX-ring occupancy reached (queue-growth gauge).
    pub peak_ring: usize,
    /// Every drop decomposed by cause.
    pub drops: DropLedger,
}

fn spec_at(gbps: f64) -> TrafficSpec {
    workloads::spec(TrafficKind::Ipv4Udp, 64, gbps)
}

/// Measure the delivered ceiling: the paper pipeline under a
/// saturating 80 Gbps open-loop offer. Virtual-time deterministic per
/// window, so every sweep over the same window sees the same ceiling.
pub(crate) fn measure_ceiling(prefixes: usize, window: u64) -> f64 {
    let r = Router::run(
        RouterConfig::paper_gpu(),
        workloads::ipv4_app(prefixes, 1),
        spec_at(80.0),
        window,
    );
    r.out_gbps()
}

/// One latency profile of the sweep.
struct Profile {
    name: &'static str,
    latency: LatencyConfig,
    /// Closed-loop source with [`HIGH_WATERMARK`].
    closed: bool,
    /// Opportunistic offload (§7): chunks under the threshold take
    /// the CPU path. Paired with adaptive batching because that is
    /// what shrinks low-load chunks below the threshold in the first
    /// place — under fixed 64-caps every chunk rides the GPU.
    opportunistic: bool,
}

/// The latency profiles crossed with the load factors.
fn profiles() -> Vec<Profile> {
    vec![
        Profile {
            name: "fixed",
            latency: LatencyConfig::off(),
            closed: false,
            opportunistic: false,
        },
        Profile {
            name: "adaptive",
            latency: LatencyConfig::adaptive(),
            closed: false,
            opportunistic: true,
        },
        Profile {
            name: "adaptive+prio",
            latency: LatencyConfig::adaptive().with_priority(16),
            closed: false,
            opportunistic: true,
        },
        Profile {
            name: "closed-loop",
            latency: LatencyConfig::off(),
            closed: true,
            opportunistic: false,
        },
    ]
}

fn cell(profile: &'static str, factor: f64, r: &ps_core::RouterReport) -> Row {
    Row {
        profile,
        factor,
        in_gbps: r.in_gbps(),
        out_gbps: r.out_gbps(),
        p50_us: r.sojourn.p50() as f64 / 1e3,
        p99_us: r.sojourn.p99() as f64 / 1e3,
        p999_us: r.sojourn.p999() as f64 / 1e3,
        max_us: r.sojourn.max() as f64 / 1e3,
        peak_ring: r.peak_ring_depth,
        drops: r.drops,
    }
}

/// The full sweep at the standard table size.
pub fn run() -> Vec<Row> {
    run_with(50_000)
}

/// Scaled variant (`prefixes` sizes the IPv4 FIB).
pub(crate) fn run_with(prefixes: usize) -> Vec<Row> {
    header("Overload sweep — latency profiles across the throughput knee");
    let window = window_ms() * MILLIS;
    let ceiling = measure_ceiling(prefixes, window);
    println!(
        "measured ceiling: {ceiling:.1} Gbps delivered (ipv4 64B, open loop, 80 Gbps offered)"
    );
    println!(
        "{:<14} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8}",
        "profile",
        "factor",
        "in_gbps",
        "out_gbps",
        "p50_us",
        "p99_us",
        "p999_us",
        "max_us",
        "peak",
        "bp",
        "far_fut",
        "nic",
        "tail"
    );
    let mut rows = Vec::new();
    for p in profiles() {
        for &factor in &FACTORS {
            let mut cfg = RouterConfig::paper_gpu();
            cfg.latency = p.latency;
            cfg.opportunistic = p.opportunistic;
            let mut sp = spec_at(ceiling).scaled(factor);
            if p.closed {
                sp = sp.closed_loop(HIGH_WATERMARK);
            }
            let r = Router::run(cfg, workloads::ipv4_app(prefixes, 1), sp, window);
            let row = cell(p.name, factor, &r);
            print_row(&row);
            rows.push(row);
        }
    }
    print_headlines(&rows);
    rows
}

fn print_row(r: &Row) {
    println!(
        "{:<14} {:>5.2}x {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>6} {:>8} {:>8} {:>8} {:>8}",
        r.profile,
        r.factor,
        r.in_gbps,
        r.out_gbps,
        r.p50_us,
        r.p99_us,
        r.p999_us,
        r.max_us,
        r.peak_ring,
        r.drops.backpressure,
        r.drops.far_future,
        r.drops.nic_admission + r.drops.nic_fault,
        r.drops.ring_tail,
    );
}

/// Find the cell for `(profile, factor)`.
pub fn at<'a>(rows: &'a [Row], profile: &str, factor: f64) -> Option<&'a Row> {
    rows.iter()
        .find(|r| r.profile == profile && (r.factor - factor).abs() < 1e-9)
}

/// The headline deltas the sweep is judged on.
pub(crate) fn print_headlines(rows: &[Row]) {
    if let (Some(f), Some(a)) = (at(rows, "fixed", 0.5), at(rows, "adaptive", 0.5)) {
        println!(
            "0.5x: adaptive p99 sojourn {:.1} us vs fixed {:.1} us ({:.1}x lower)",
            a.p99_us,
            f.p99_us,
            f.p99_us / a.p99_us.max(1e-9),
        );
    }
    if let (Some(f), Some(a)) = (at(rows, "fixed", 1.0), at(rows, "adaptive", 1.0)) {
        println!(
            "1.0x: adaptive delivers {:.1} Gbps vs fixed {:.1} Gbps ({:+.1}%)",
            a.out_gbps,
            f.out_gbps,
            (a.out_gbps / f.out_gbps.max(1e-9) - 1.0) * 100.0,
        );
    }
    if let (Some(f), Some(c)) = (at(rows, "fixed", 2.0), at(rows, "closed-loop", 2.0)) {
        println!(
            "2.0x: closed loop moves {} tail drops to {} source drops; p99 {:.1} -> {:.1} us",
            f.drops.ring_tail + f.drops.nic_admission,
            c.drops.backpressure,
            f.p99_us,
            c.p99_us,
        );
    }
}

/// Serialize sweep rows to the `ps-bench-overload/v1` JSON schema
/// (bytes pinned by a test).
pub(crate) fn to_json(rows: &[Row]) -> String {
    let rows: Vec<report::Fields> = rows
        .iter()
        .map(|r| {
            vec![
                ("profile", Val::Str(r.profile)),
                ("factor", Val::F3(r.factor)),
                ("in_gbps", Val::F3(r.in_gbps)),
                ("out_gbps", Val::F3(r.out_gbps)),
                ("p50_us", Val::F3(r.p50_us)),
                ("p99_us", Val::F3(r.p99_us)),
                ("p999_us", Val::F3(r.p999_us)),
                ("max_us", Val::F3(r.max_us)),
                ("peak_ring", Val::Int(r.peak_ring as u64)),
                ("drops_backpressure", Val::Int(r.drops.backpressure)),
                ("drops_far_future", Val::Int(r.drops.far_future)),
                ("drops_nic_admission", Val::Int(r.drops.nic_admission)),
                ("drops_nic_fault", Val::Int(r.drops.nic_fault)),
                ("drops_ring_tail", Val::Int(r.drops.ring_tail)),
            ]
        })
        .collect();
    report::to_json(&report::run_header("ps-bench-overload/v1"), &rows)
}

/// `ps-bench --overload [out.json]`: run the sweep and write the JSON
/// artifact.
pub fn run_and_write(path: &str) -> std::io::Result<()> {
    let rows = run();
    std::fs::write(path, to_json(&rows))?;
    println!("overload sweep: wrote {path} ({} rows)", rows.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(profile: &'static str, factor: f64, p99: f64) -> Row {
        Row {
            profile,
            factor,
            in_gbps: 20.0,
            out_gbps: 19.5,
            p50_us: 40.0,
            p99_us: p99,
            p999_us: p99 * 1.5,
            max_us: p99 * 2.0,
            peak_ring: 17,
            drops: DropLedger {
                backpressure: 5,
                ..DropLedger::default()
            },
        }
    }

    #[test]
    fn json_shape_is_pinned() {
        // The whole artifact, byte for byte. The second row carries
        // non-finite floats, which are written as 0.000.
        let rows = vec![fake("fixed", 0.5, 210.0), fake("adaptive", 2.0, f64::NAN)];
        let want = [
            "{",
            "  \"schema\": \"ps-bench-overload/v1\",",
            &format!("  \"window_ms\": {},", window_ms()),
            &format!("  \"shards\": {},", ps_core::router::shards_from_env()),
            "  \"rows\": [",
            "    {\"profile\": \"fixed\", \"factor\": 0.500, \"in_gbps\": 20.000, \
             \"out_gbps\": 19.500, \"p50_us\": 40.000, \"p99_us\": 210.000, \
             \"p999_us\": 315.000, \"max_us\": 420.000, \"peak_ring\": 17, \
             \"drops_backpressure\": 5, \"drops_far_future\": 0, \
             \"drops_nic_admission\": 0, \"drops_nic_fault\": 0, \"drops_ring_tail\": 0},",
            "    {\"profile\": \"adaptive\", \"factor\": 2.000, \"in_gbps\": 20.000, \
             \"out_gbps\": 19.500, \"p50_us\": 40.000, \"p99_us\": 0.000, \
             \"p999_us\": 0.000, \"max_us\": 0.000, \"peak_ring\": 17, \
             \"drops_backpressure\": 5, \"drops_far_future\": 0, \
             \"drops_nic_admission\": 0, \"drops_nic_fault\": 0, \"drops_ring_tail\": 0}",
            "  ]",
            "}",
            "",
        ];
        assert_eq!(to_json(&rows), want.join("\n"));
    }

    #[test]
    fn cell_lookup_matches_profile_and_factor() {
        let rows = vec![fake("fixed", 0.5, 210.0), fake("adaptive", 0.5, 60.0)];
        assert!((at(&rows, "adaptive", 0.5).unwrap().p99_us - 60.0).abs() < 1e-9);
        assert!(at(&rows, "adaptive", 1.0).is_none());
    }
}
