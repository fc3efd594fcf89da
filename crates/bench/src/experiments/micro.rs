//! Microbenchmark artifacts: Table 2 (testbed), Table 1 (PCIe
//! transfer rates) and the §2.2 kernel-launch latency.

use ps_gpu::timing;
use ps_hw::pcie::{CopyDir, PcieModel};
use ps_hw::spec::{GpuSpec, Testbed};

use crate::header;

/// Table 2: print the simulated server's specification.
pub(crate) fn spec_table2() -> Testbed {
    header("Table 2 — simulated testbed (paper: $7,000 server)");
    let t = Testbed::paper();
    println!(
        "CPU   2 x Xeon X5550  {} cores @ {:.2} GHz",
        t.total_cores(),
        t.cpu.hz as f64 / 1e9
    );
    println!(
        "GPU   2 x GTX480       {} SMs x {} lanes @ {:.1} GHz, {:.1} GB/s",
        t.gpu.sms,
        t.gpu.lanes_per_sm,
        t.gpu.hz as f64 / 1e9,
        t.gpu.mem_bw_bits as f64 / 8e9
    );
    println!("NIC   4 x X520-DA2     {} x 10 GbE ports", t.total_ports());
    println!("NUMA  {} nodes, dual IOH (asymmetric DMA, §3.2)", t.nodes);
    t
}

/// Table 1 rows: `(bytes, paper h2d, model h2d, paper d2h, model d2h)`.
pub(crate) type Table1Row = (u64, f64, f64, f64, f64);

/// Paper Table 1 values.
pub(crate) const TABLE1_PAPER: &[(u64, f64, f64)] = &[
    (256, 55.0, 63.0),
    (1024, 185.0, 211.0),
    (4096, 759.0, 786.0),
    (16384, 2069.0, 1743.0),
    (65536, 4046.0, 2848.0),
    (262144, 5142.0, 3242.0),
    (1048576, 5577.0, 3394.0),
];

/// Table 1: host↔device transfer rate vs buffer size.
pub(crate) fn table1_pcie() -> Vec<Table1Row> {
    header("Table 1 — PCIe transfer rate (MB/s), paper vs model");
    let m = PcieModel::new(Testbed::paper().pcie);
    println!(
        "{:>10} | {:>10} {:>10} | {:>10} {:>10}",
        "bytes", "h2d paper", "h2d model", "d2h paper", "d2h model"
    );
    let mut rows = Vec::new();
    for &(size, h2d, d2h) in TABLE1_PAPER {
        let mh = m.rate_mb_s(CopyDir::HostToDevice, size);
        let md = m.rate_mb_s(CopyDir::DeviceToHost, size);
        println!("{size:>10} | {h2d:>10.0} {mh:>10.0} | {d2h:>10.0} {md:>10.0}");
        rows.push((size, h2d, mh, d2h, md));
    }
    rows
}

/// §2.2: kernel launch latency for 1 vs 4096 threads.
pub(crate) fn launch_latency() -> (f64, f64) {
    header("§2.2 — kernel launch latency (paper: 3.8 us @1, 4.1 us @4096)");
    let g = GpuSpec::gtx480();
    let one = timing::launch_overhead(&g, 1) as f64 / 1000.0;
    let many = timing::launch_overhead(&g, 4096) as f64 / 1000.0;
    println!("threads=1    : {one:.2} us");
    println!("threads=4096 : {many:.2} us");
    (one, many)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_within_tolerance() {
        for (size, ph, mh, pd, md) in table1_pcie() {
            assert!((mh - ph).abs() / ph < 0.17, "{size} h2d {mh} vs {ph}");
            assert!((md - pd).abs() / pd < 0.17, "{size} d2h {md} vs {pd}");
        }
    }

    #[test]
    fn launch_latency_matches_paper() {
        let (one, many) = launch_latency();
        assert!((one - 3.8).abs() < 0.1);
        assert!((3.9..4.5).contains(&many));
    }
}
