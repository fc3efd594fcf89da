//! Staging ablation — SoA columnar gather (the default, §4.3.1's
//! "slim data structure" carried to the GPU boundary) against the two
//! endpoints it sits between:
//!
//! * `frames`: every staged packet ships its whole frame over PCIe
//!   into a 2 KB device slot and the kernel digs the field out — the
//!   naive staging the paper's compact-metadata optimization removes;
//! * `direct-dma`: NIC RX DMA lands the column in device memory
//!   (NaNet/GPUDirect-style peer transfer), so the host-side gather
//!   copy disappears entirely and only results cross back.
//!
//! Virtual-time *results* are identical across modes by construction
//! (the kernels read the same bytes); what moves is PCIe traffic and
//! therefore modeled time. The sweep crosses the three modes with the
//! master's gather depth on the IPv4 64 B workload — the smallest
//! column (4 B of a 64 B frame) and so the starkest ratio — and adds
//! one OpenFlow row per mode for a second column width (32 B key).

use ps_core::{Router, RouterConfig, Staging};
use ps_pktgen::TrafficKind;
use ps_sim::MILLIS;

use crate::report::{self, Val};
use crate::workloads::{self, spec};
use crate::{header, window_ms};

/// The three staging modes in presentation order.
pub const MODES: [Staging; 3] = [Staging::Frames, Staging::Soa, Staging::DirectDma];

/// Gather depths the IPv4 sweep crosses with the modes (the paper
/// config gathers up to 24 chunks per shading step).
pub(crate) const GATHER_DEPTHS: [usize; 3] = [4, 12, 24];

/// One measured cell of the ablation.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload (`ipv4-64B`, `openflow-64B`).
    pub app: &'static str,
    /// Staging mode label.
    pub mode: &'static str,
    /// `max_gather_chunks` for this cell.
    pub gather: usize,
    /// Delivered throughput (Gbps, Ethernet-overhead metric).
    pub out_gbps: f64,
    /// Median round-trip latency (µs).
    pub p50_us: f64,
    /// Host→device staging bytes per staged packet.
    pub h2d_bpp: f64,
    /// Device→host result bytes per staged packet.
    pub d2h_bpp: f64,
    /// Packets staged through the column layer.
    pub staged_pkts: u64,
}

fn cell(app: &'static str, mode: Staging, cfg: RouterConfig, report: ps_core::RouterReport) -> Row {
    Row {
        app,
        mode: mode.label(),
        gather: cfg.max_gather_chunks,
        out_gbps: report.out_gbps(),
        p50_us: report.latency.p50() as f64 / 1e3,
        h2d_bpp: report.h2d_bytes_per_pkt().unwrap_or(0.0),
        d2h_bpp: report.d2h_bytes_per_pkt().unwrap_or(0.0),
        staged_pkts: report.staging.map_or(0, |(_, _, p)| p),
    }
}

/// The full sweep at the standard table sizes.
pub fn run() -> Vec<Row> {
    run_with(50_000)
}

/// Scaled variant (`prefixes` sizes the IPv4 FIB).
pub(crate) fn run_with(prefixes: usize) -> Vec<Row> {
    header("Ablation — GPU staging: frames vs SoA columns vs NIC->GPU direct DMA");
    let window = window_ms() * MILLIS;
    let mut rows = Vec::new();
    println!(
        "{:<14} {:<11} {:>6} {:>9} {:>8} {:>10} {:>10} {:>10}",
        "app", "staging", "gather", "Gbps", "p50_us", "h2d_B/pkt", "d2h_B/pkt", "staged"
    );
    for &mode in &MODES {
        for &gather in &GATHER_DEPTHS {
            let mut cfg = RouterConfig::paper_gpu();
            cfg.staging = mode;
            cfg.max_gather_chunks = gather;
            let report = Router::run(
                cfg,
                workloads::ipv4_app(prefixes, 1),
                spec(TrafficKind::Ipv4Udp, 64, 80.0),
                window,
            );
            let r = cell("ipv4-64B", mode, cfg, report);
            print_row(&r);
            rows.push(r);
        }
    }
    // One OpenFlow row per mode at the paper gather depth: the 32 B
    // key column, a second point on the bytes-per-packet axis.
    for &mode in &MODES {
        let mut cfg = RouterConfig::paper_gpu();
        cfg.staging = mode;
        let mut of_spec = spec(TrafficKind::Ipv4Udp, 64, 80.0);
        of_spec.flows = Some(8192);
        let report = Router::run(
            cfg,
            workloads::openflow_app(&of_spec, 8192, 32),
            of_spec,
            window,
        );
        let r = cell("openflow-64B", mode, cfg, report);
        print_row(&r);
        rows.push(r);
    }
    print_deltas(&rows);
    rows
}

fn print_row(r: &Row) {
    println!(
        "{:<14} {:<11} {:>6} {:>9.1} {:>8.0} {:>10.1} {:>10.1} {:>10}",
        r.app, r.mode, r.gather, r.out_gbps, r.p50_us, r.h2d_bpp, r.d2h_bpp, r.staged_pkts
    );
}

/// Find the sweep cell for `(app, mode)` at the deepest gather.
fn at_full_gather<'a>(rows: &'a [Row], app: &str, mode: &str) -> Option<&'a Row> {
    rows.iter()
        .filter(|r| r.app == app && r.mode == mode)
        .max_by_key(|r| r.gather)
}

/// The headline deltas the ablation is judged on.
pub(crate) fn print_deltas(rows: &[Row]) {
    for app in ["ipv4-64B", "openflow-64B"] {
        let (Some(frames), Some(soa), Some(direct)) = (
            at_full_gather(rows, app, "frames"),
            at_full_gather(rows, app, "soa"),
            at_full_gather(rows, app, "direct-dma"),
        ) else {
            continue;
        };
        println!(
            "{app}: h2d bytes/pkt frames {:.1} -> soa {:.1} ({:.1}x smaller)",
            frames.h2d_bpp,
            soa.h2d_bpp,
            frames.h2d_bpp / soa.h2d_bpp.max(1e-9),
        );
        println!(
            "{app}: direct-dma vs soa: {:+.1} Gbps, p50 {:+.0} us, h2d {:.1} -> {:.1} B/pkt",
            direct.out_gbps - soa.out_gbps,
            direct.p50_us - soa.p50_us,
            soa.h2d_bpp,
            direct.h2d_bpp,
        );
    }
}

/// Serialize sweep rows to the `ps-bench-staging/v1` JSON schema
/// (bytes pinned by a test).
pub(crate) fn to_json(rows: &[Row]) -> String {
    let rows: Vec<report::Fields> = rows
        .iter()
        .map(|r| {
            vec![
                ("app", Val::Str(r.app)),
                ("mode", Val::Str(r.mode)),
                ("gather", Val::Int(r.gather as u64)),
                ("out_gbps", Val::F3(r.out_gbps)),
                ("p50_us", Val::F3(r.p50_us)),
                ("h2d_bytes_per_pkt", Val::F3(r.h2d_bpp)),
                ("d2h_bytes_per_pkt", Val::F3(r.d2h_bpp)),
                ("staged_pkts", Val::Int(r.staged_pkts)),
            ]
        })
        .collect();
    report::to_json(&report::run_header("ps-bench-staging/v1"), &rows)
}

/// `ps-bench --ablation direct-dma [out.json]`: run the sweep and
/// write the JSON artifact.
pub fn run_and_write(path: &str) -> std::io::Result<()> {
    let rows = run();
    std::fs::write(path, to_json(&rows))?;
    println!("staging ablation: wrote {path} ({} rows)", rows.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(app: &'static str, mode: &'static str, gather: usize, h2d: f64) -> Row {
        Row {
            app,
            mode,
            gather,
            out_gbps: 30.0,
            p50_us: 200.0,
            h2d_bpp: h2d,
            d2h_bpp: 2.0,
            staged_pkts: 1000,
        }
    }

    #[test]
    fn json_shape_is_pinned() {
        // The whole artifact, byte for byte. The second row carries a
        // non-finite float, which is written as 0.000.
        let rows = vec![
            fake("ipv4-64B", "soa", 24, 4.0),
            fake("openflow-64B", "direct-dma", 4, f64::NAN),
        ];
        let want = [
            "{",
            "  \"schema\": \"ps-bench-staging/v1\",",
            &format!("  \"window_ms\": {},", window_ms()),
            &format!("  \"shards\": {},", ps_core::router::shards_from_env()),
            "  \"rows\": [",
            "    {\"app\": \"ipv4-64B\", \"mode\": \"soa\", \"gather\": 24, \"out_gbps\": 30.000, \
             \"p50_us\": 200.000, \"h2d_bytes_per_pkt\": 4.000, \"d2h_bytes_per_pkt\": 2.000, \
             \"staged_pkts\": 1000},",
            "    {\"app\": \"openflow-64B\", \"mode\": \"direct-dma\", \"gather\": 4, \
             \"out_gbps\": 30.000, \"p50_us\": 200.000, \"h2d_bytes_per_pkt\": 0.000, \
             \"d2h_bytes_per_pkt\": 2.000, \"staged_pkts\": 1000}",
            "  ]",
            "}",
            "",
        ];
        assert_eq!(to_json(&rows), want.join("\n"));
    }

    #[test]
    fn deepest_gather_row_wins_delta_selection() {
        let rows = vec![
            fake("ipv4-64B", "soa", 4, 4.0),
            fake("ipv4-64B", "soa", 24, 4.5),
        ];
        assert!((at_full_gather(&rows, "ipv4-64B", "soa").unwrap().h2d_bpp - 4.5).abs() < 1e-9);
        assert!(at_full_gather(&rows, "ipv4-64B", "frames").is_none());
    }
}
