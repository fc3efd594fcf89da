//! Degradation sweep (`ps-bench --faults <scenario>`): delivered
//! throughput versus injected fault rate for every application, plus
//! the per-class `fault_summary` ledger at the headline 1% rate.
//!
//! The scenario names come from [`FaultSpec::scenario`] (`nic`,
//! `corrupt`, `pcie`, `gpu`, `all`); `PS_FAULT_SEED` picks the fault
//! seed. Each cell re-runs the paper CPU+GPU configuration with the
//! scenario rescaled to the row's rate — rate 0 arms no plan at all,
//! so that column doubles as the fault-free reference. Results are
//! also written as flat JSON (`degradation_<scenario>.json`) for the
//! CI artifact upload.

use std::fmt::Write as _;

use ps_core::apps::IpsecApp;
use ps_core::{Router, RouterConfig, RouterReport};
use ps_fault::FaultSpec;
use ps_pktgen::{TrafficKind, TrafficSpec};
use ps_sim::MILLIS;

use crate::report::{self, Val};
use crate::{header, window_ms, workloads};

/// Injection rates swept (probability per opportunity). The 1% cell
/// is the acceptance headline; 5% shows where degradation steepens.
pub(crate) const RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

/// One sweep cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Application name.
    pub app: &'static str,
    /// Injection rate this cell ran at.
    pub rate: f64,
    /// Delivered Gbps (input-sized for IPsec, like Figure 11(d)).
    pub out_gbps: f64,
    /// Faults injected during the run.
    pub injected: u64,
    /// Faults absorbed without losing the packet.
    pub handled: u64,
    /// Packets lost to faults.
    pub dropped: u64,
    /// Whether the ledger reconciled (injected == handled + dropped).
    pub reconciled: bool,
}

fn spec(kind: TrafficKind, frame_len: usize) -> TrafficSpec {
    workloads::spec(kind, frame_len, 40.0)
}

fn row(app: &'static str, rate: f64, gbps: f64, r: &RouterReport) -> Row {
    Row {
        app,
        rate,
        out_gbps: gbps,
        injected: r.faults.injected(),
        handled: r.faults.handled(),
        dropped: r.faults.dropped(),
        reconciled: r.faults.reconciles(),
    }
}

/// Run the sweep for one scenario; prints the table and the 1%
/// `fault_summary` per app, returns every cell.
pub fn run(scenario: &str) -> Vec<Row> {
    let base = FaultSpec::scenario(scenario).unwrap_or_else(|| {
        eprintln!("ps-bench: unknown fault scenario {scenario} (nic|corrupt|pcie|gpu|all)");
        std::process::exit(2);
    });
    header(&format!(
        "Degradation sweep — scenario '{scenario}', seed {:#x} (throughput vs fault rate)",
        base.seed
    ));
    println!(
        "{:>8} | {:>6} | {:>8} | {:>9} | {:>9} | {:>9} | ledger",
        "app", "rate", "out Gbps", "injected", "handled", "dropped"
    );
    let window = window_ms() * MILLIS;
    let mut rows = Vec::new();
    let mut summaries = String::new();
    for (ai, app) in ["ipv4", "ipv6", "openflow", "ipsec"]
        .into_iter()
        .enumerate()
    {
        for (ri, &rate) in RATES.iter().enumerate() {
            let mut cfg = RouterConfig::paper_gpu();
            // Each cell gets its own stream derived from the master
            // seed: a short window samples only a prefix of each
            // class's sequence, and identical prefixes across cells
            // would correlate which classes appear.
            let cell = (ai as u64) << 8 | ri as u64;
            cfg.faults = base
                .with_seed(base.seed ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .with_rate(rate);
            let s;
            let report = match app {
                "ipv4" => {
                    s = spec(TrafficKind::Ipv4Udp, 64);
                    Router::run(cfg, workloads::ipv4_app(50_000, 1), s, window)
                }
                "ipv6" => {
                    s = spec(TrafficKind::Ipv6Udp, 78);
                    Router::run(cfg, workloads::ipv6_app(20_000, 2), s, window)
                }
                "openflow" => {
                    let mut of = spec(TrafficKind::Ipv4Udp, 64);
                    of.flows = Some(8192);
                    s = of;
                    Router::run(cfg, workloads::openflow_app(&of, 8192, 32), s, window)
                }
                _ => {
                    cfg.concurrent_copy = true; // §5.4: streams pay off for IPsec
                    s = spec(TrafficKind::Ipv4Udp, 64);
                    Router::run(
                        cfg,
                        IpsecApp::new([0x42; 16], 0xD00D, b"ps-bench-hmac-key"),
                        s,
                        window,
                    )
                }
            };
            let gbps = if app == "ipsec" {
                report.out_gbps_input_sized(s.frame_len)
            } else {
                report.out_gbps()
            };
            let r = row(app, rate, gbps, &report);
            println!(
                "{:>8} | {:>6.3} | {:>8.1} | {:>9} | {:>9} | {:>9} | {}",
                r.app,
                r.rate,
                r.out_gbps,
                r.injected,
                r.handled,
                r.dropped,
                if r.reconciled { "ok" } else { "MISMATCH" }
            );
            if rate == 0.01 {
                let _ = writeln!(summaries, "\n[{app} @ rate 0.01]");
                let _ = write!(summaries, "{}", report.faults.summary_table());
            }
            rows.push(r);
        }
    }
    print!("{summaries}");
    rows
}

/// Serialize sweep rows to the `ps-bench-degradation/v1` JSON schema
/// (bytes pinned by a test).
pub(crate) fn to_json(scenario: &str, seed: u64, rows: &[Row]) -> String {
    let rows: Vec<report::Fields> = rows
        .iter()
        .map(|r| {
            vec![
                ("app", Val::Str(r.app)),
                ("rate", Val::F3(r.rate)),
                ("out_gbps", Val::F3(r.out_gbps)),
                ("injected", Val::Int(r.injected)),
                ("handled", Val::Int(r.handled)),
                ("dropped", Val::Int(r.dropped)),
                ("reconciled", Val::Bool(r.reconciled)),
            ]
        })
        .collect();
    let mut head = report::run_header("ps-bench-degradation/v1");
    head.splice(
        1..1,
        [("scenario", Val::Str(scenario)), ("seed", Val::Int(seed))],
    );
    report::to_json(&head, &rows)
}

/// `ps-bench --faults <scenario>`: run the sweep and write the JSON
/// artifact next to the working directory.
pub fn run_and_write(scenario: &str) -> std::io::Result<()> {
    let seed = FaultSpec::scenario(scenario).map(|s| s.seed).unwrap_or(0);
    let rows = run(scenario);
    let path = format!("degradation_{scenario}.json");
    std::fs::write(&path, to_json(scenario, seed, &rows))?;
    println!("\ndegradation: wrote {path} ({} rows)", rows.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_pinned() {
        // The whole artifact, byte for byte. The second row carries a
        // non-finite float, which is written as 0.000.
        let rows = vec![
            Row {
                app: "ipv4",
                rate: 0.01,
                out_gbps: 12.5,
                injected: 10,
                handled: 4,
                dropped: 6,
                reconciled: true,
            },
            Row {
                app: "ipsec",
                rate: 0.05,
                out_gbps: f64::INFINITY,
                injected: 3,
                handled: 1,
                dropped: 1,
                reconciled: false,
            },
        ];
        let want = [
            "{",
            "  \"schema\": \"ps-bench-degradation/v1\",",
            "  \"scenario\": \"all\",",
            "  \"seed\": 64023,",
            &format!("  \"window_ms\": {},", window_ms()),
            &format!("  \"shards\": {},", ps_core::router::shards_from_env()),
            "  \"rows\": [",
            "    {\"app\": \"ipv4\", \"rate\": 0.010, \"out_gbps\": 12.500, \
             \"injected\": 10, \"handled\": 4, \"dropped\": 6, \"reconciled\": true},",
            "    {\"app\": \"ipsec\", \"rate\": 0.050, \"out_gbps\": 0.000, \
             \"injected\": 3, \"handled\": 1, \"dropped\": 1, \"reconciled\": false}",
            "  ]",
            "}",
            "",
        ];
        assert_eq!(to_json("all", 0xFA17, &rows), want.join("\n"));
    }
}
