//! The fast-path determinism guard (ISSUE 3).
//!
//! The wall-clock fast path — T-table AES, batched CTR keystreams,
//! cached HMAC pads, zero-alloc launch scratch and chunk staging — is
//! only admissible if it changes *nothing* observable in virtual
//! time. `tests/determinism.rs` proves runs are self-consistent; this
//! file pins the actual values the *seed implementation* (byte-
//! oriented AES, per-launch allocation) produced at commit d7309d9,
//! captured before any fast-path code landed. If an "optimization"
//! perturbs a fingerprint, a trace byte, or even the dump length,
//! these constants catch it — not just a flaky inequality.

use packetshader::core::apps::{IpsecApp, Ipv4App, OpenFlowApp};
use packetshader::core::{App, Router, RouterConfig};
use packetshader::lookup::route::Route4;
use packetshader::lookup::synth;
use packetshader::pktgen::TrafficSpec;
use packetshader::sim::MILLIS;
use packetshader::trace::{chrome, TraceConfig};
use ps_bench::workloads;

/// Same aggregate tuple as tests/determinism.rs.
type Fingerprint = (u64, u64, u64, u64, u64, u64);

fn run_fingerprint<A: App + Send>(cfg: RouterConfig, app: A, spec: TrafficSpec) -> Fingerprint {
    let report = Router::run(cfg, app, spec, MILLIS);
    (
        report.offered.packets,
        report.delivered.packets,
        report.rx_drops,
        report.slow_path,
        report.latency.p50(),
        report.latency.max(),
    )
}

fn fingerprint(cfg: RouterConfig, seed: u64) -> Fingerprint {
    let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
    routes.extend(synth::routeviews_like(2_000, 8, 3));
    run_fingerprint(
        cfg,
        Ipv4App::new(&routes),
        TrafficSpec::ipv4_64b(30.0, seed),
    )
}

fn fingerprint_ipsec(cfg: RouterConfig, seed: u64) -> Fingerprint {
    let app = IpsecApp::new([7u8; 16], 0xABCD, b"determinism-key");
    run_fingerprint(cfg, app, TrafficSpec::ipv4_64b(10.0, seed))
}

fn fingerprint_openflow(cfg: RouterConfig, seed: u64) -> Fingerprint {
    let mut spec = TrafficSpec::ipv4_64b(20.0, seed);
    spec.flows = Some(64);
    let app = OpenFlowApp::new(workloads::openflow_switch(&spec, 64, 16));
    run_fingerprint(cfg, app, spec)
}

/// FNV-1a, the cheapest stable digest that fits in a pinned constant.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every (app, mode) fingerprint at seed 5 must equal the values the
/// seed implementation produced. Captured pre-fast-path at d7309d9.
#[test]
fn fingerprints_match_seed_implementation() {
    assert_eq!(
        fingerprint(RouterConfig::paper_cpu(), 5),
        (34091, 23323, 906, 0, 327679, 463635),
        "ipv4 cpu"
    );
    assert_eq!(
        fingerprint(RouterConfig::paper_gpu(), 5),
        (34091, 23115, 2375, 0, 294911, 429719),
        "ipv4 gpu"
    );
    assert_eq!(
        fingerprint_ipsec(RouterConfig::paper_cpu(), 5),
        (11364, 3584, 1916, 0, 524287, 747150),
        "ipsec cpu"
    );
    assert_eq!(
        fingerprint_ipsec(RouterConfig::paper_gpu(), 5),
        (11364, 11573, 833, 0, 147455, 336124),
        "ipsec gpu"
    );
    assert_eq!(
        fingerprint_openflow(RouterConfig::paper_cpu(), 5),
        (22728, 26106, 0, 0, 122879, 215565),
        "openflow cpu"
    );
    assert_eq!(
        fingerprint_openflow(RouterConfig::paper_gpu(), 5),
        (22728, 26742, 568, 0, 53247, 240665),
        "openflow gpu"
    );
}

/// Long-window pins (ISSUE 13). The 1 ms fingerprints above are too
/// short, stream-less and too coarse to see *when* the master wakes:
/// a change to the master's wake bookkeeping that moves a gather by
/// one poll passes all six of them. These two run the paper's
/// headline operating point (IPv4 64 B at 38 Gbps, just under the
/// ceiling: thousands of small gathers) and the stream-mode IPsec
/// gateway (the master re-polls at the copy-engine slot, not at batch
/// completion) long enough for the wake backlog to matter, and pin
/// the gather count and size and the latency tails, not only the
/// packet totals. Captured at commit 9c1cec0, before the wake
/// bookkeeping was touched.
///
/// Tuple: offered, delivered, rx_drops, shade_batches, shade_packets,
/// latency [p50, p99, p999, max], sojourn p999, and the bits of the
/// mean latency (quantiles are bucket bounds; the mean moves if any
/// one packet's latency does).
type LongPin = (u64, u64, u64, u64, u64, [u64; 4], u64, u64);

fn long_pin<A: App + Send>(
    cfg: RouterConfig,
    app: A,
    spec: TrafficSpec,
    duration: packetshader::sim::time::Time,
) -> LongPin {
    let r = Router::run(cfg, app, spec, duration);
    (
        r.offered.packets,
        r.delivered.packets,
        r.rx_drops,
        r.shade_batches,
        r.shade_packets,
        [
            r.latency.p50(),
            r.latency.p99(),
            r.latency.p999(),
            r.latency.max(),
        ],
        r.sojourn.p999(),
        r.latency.mean().to_bits(),
    )
}

#[test]
fn long_window_ipv4_knee_matches_parent() {
    // The full RouteViews-sized table spreads next hops over all
    // eight ports; the 2,000-prefix table above sends half the load
    // to each of two, which at 38 Gbps is a TX bottleneck, not the
    // knee.
    let routes = workloads::ipv4_routes_paper(1);
    assert_eq!(
        long_pin(
            RouterConfig::paper_gpu(),
            Ipv4App::new(&routes),
            TrafficSpec::ipv4_64b(38.0, 5),
            5 * MILLIS,
        ),
        (
            215909,
            216852,
            4779,
            619,
            264544,
            [36863, 53247, 61439, 66373],
            53247,
            4675168191687164030
        ),
        "ipv4 64 B gpu, 38 Gbps x 5 ms"
    );
}

#[test]
fn long_window_ipsec_streams_matches_parent() {
    let cfg = RouterConfig {
        concurrent_copy: true,
        ..RouterConfig::paper_gpu()
    };
    let spec = TrafficSpec {
        frame_len: 1514,
        ..TrafficSpec::ipv4_64b(20.0, 5)
    };
    assert_eq!(
        long_pin(
            cfg,
            IpsecApp::new([7u8; 16], 0xABCD, b"determinism-key"),
            spec,
            10 * MILLIS,
        ),
        (
            13004,
            8907,
            5106,
            197,
            11061,
            [163839, 221119, 221119, 221119],
            202881,
            4684422658716759261
        ),
        "ipsec 1514 B gpu + streams, 20 Gbps x 10 ms"
    );
}

/// The full GPU-mode trace dump — every span, counter and instant the
/// pipeline emits, byte for byte — must match the seed implementation.
/// Pinned as (length, FNV-1a) per seed; a fast path that reordered a
/// launch, split a copy, or emitted one extra event flips the hash.
///
/// Re-pinned when the columnar staging layer landed: `GpuEngine::copy`
/// now emits `submit`/`wait`/`queue_depth` args on both directions and
/// the stage adds cumulative `pcie_*` counters, which legitimately
/// grow the dump. The *result* fingerprints above did not move.
#[test]
fn trace_dump_matches_seed_implementation() {
    let dump = |seed: u64| {
        let (_, collector) = ps_bench::trace::traced(TraceConfig::all(), || {
            fingerprint(RouterConfig::paper_gpu(), seed)
        });
        chrome::export(&collector)
    };
    let d5 = dump(5);
    assert_eq!(d5.len(), 33_039_635, "seed 5 dump length");
    assert_eq!(
        fnv1a(d5.as_bytes()),
        0x14c9_53e9_c2c9_96a6,
        "seed 5 dump hash"
    );
    let d6 = dump(6);
    assert_eq!(d6.len(), 33_095_165, "seed 6 dump length");
    assert_eq!(
        fnv1a(d6.as_bytes()),
        0xe3d4_6f57_66f7_c3dd,
        "seed 6 dump hash"
    );
}
