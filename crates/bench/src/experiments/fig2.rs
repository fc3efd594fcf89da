//! Figure 2: IPv6 lookup throughput, one/two X5550 sockets vs one
//! GTX480, as a function of batch size — the motivating example
//! (§2.3). No packet I/O is involved, exactly as in the paper.

use ps_core::apps::{CYCLES_PER_NS, TABLE_MISS_NS};
use ps_core::kernels::{Ipv6Kernel, KernelIo};
use ps_gpu::{GpuDevice, GpuEngine};
use ps_hw::ioh::Ioh;
use ps_hw::pcie::PcieModel;
use ps_hw::spec::Testbed;
use ps_lookup::mem::{CountingMem, SliceMem};
use ps_lookup::synth;
use ps_lookup::waldvogel::{self, V6Table};

use crate::{header, workloads};

/// The tight lookup-only loop overlaps dependent chains of ~3 packets
/// via software pipelining + prefetch (vs 1.3 inside the router,
/// where I/O competes for MSHRs).
const TIGHT_LOOP_OVERLAP: f64 = 3.0;

/// One row: `(batch, cpu1 Mops, cpu2 Mops, gpu Mops)`.
pub(crate) type Fig2Row = (usize, f64, f64, f64);

/// CPU socket lookup rate (M lookups/s) for the given table.
pub(crate) fn cpu_socket_rate(table: &V6Table, sample: &[u128]) -> f64 {
    // Measure the true access count (probes + collisions) on a sample.
    let mut accesses = 0u64;
    for &a in sample {
        let mut mem = CountingMem::new(SliceMem::new(table.image()));
        let _ = waldvogel::lookup(table.layout(), &mut mem, a);
        accesses += mem.accesses;
    }
    let per_lookup = accesses as f64 / sample.len() as f64;
    let ns =
        per_lookup * TABLE_MISS_NS as f64 / TIGHT_LOOP_OVERLAP + per_lookup * 16.0 / CYCLES_PER_NS;
    let cores = Testbed::paper().cpu.cores as f64;
    cores * 1e3 / ns // M lookups/s
}

/// GPU lookup rate (M lookups/s) at a given batch size, including
/// transfers and launch overhead.
pub(crate) fn gpu_rate(table: &V6Table, addrs: &[u128], batch: usize) -> f64 {
    let image_len = table.image().len();
    let staging = batch * 16 + batch * 2;
    let mut dev = GpuDevice::gtx480_with_mem(image_len + staging + (4 << 20));
    let tbuf = dev.mem.map(table.shared_image(), 0);
    let input = dev.mem.alloc(batch * 16);
    let output = dev.mem.alloc(batch * 2);
    let mut eng = GpuEngine::new(dev, PcieModel::new(Testbed::paper().pcie));
    let mut ioh = Ioh::new(Testbed::paper().ioh);

    let mut staged = Vec::with_capacity(batch * 16);
    for i in 0..batch {
        staged.extend_from_slice(&addrs[i % addrs.len()].to_be_bytes());
    }
    let t0 = eng.next_copy_slot();
    let h2d = eng.copy_h2d(t0, &mut ioh, &input, 0, &staged);
    let kernel = Ipv6Kernel {
        table: tbuf,
        layout: table.layout(),
        io: KernelIo {
            input,
            slots: ps_gpu::Slots::packed(16),
            output,
        },
    };
    let (kdone, _) = eng.launch(h2d, &kernel, batch as u32);
    let mut out = vec![0u8; batch * 2];
    let done = eng.copy_d2h(t0, kdone, &mut ioh, &output, 0, &mut out);
    batch as f64 * 1e3 / (done - t0) as f64
}

/// Run Figure 2 with a table of `prefixes` prefixes.
pub(crate) fn run_with(prefixes: usize) -> Vec<Fig2Row> {
    header("Figure 2 — IPv6 lookup throughput vs batch size (M lookups/s)");
    let routes = workloads::ipv6_routes(prefixes, 20100830);
    let table = V6Table::build(&routes);
    let addrs = synth::random_v6_addrs(4096, 7);

    let cpu1 = cpu_socket_rate(&table, &addrs[..512]);
    let cpu2 = 2.0 * cpu1;
    println!("CPU (1 socket): {cpu1:.1} M/s   CPU (2 sockets): {cpu2:.1} M/s");
    println!("{:>9} | {:>9} | paper shape", "batch", "GPU M/s");
    let mut rows = Vec::new();
    for &batch in &[
        32usize, 64, 128, 256, 320, 640, 1024, 4096, 16384, 65536, 262144,
    ] {
        let gpu = gpu_rate(&table, &addrs, batch);
        let marker = if gpu > cpu2 {
            "> 2 CPUs"
        } else if gpu > cpu1 {
            "> 1 CPU"
        } else {
            ""
        };
        println!("{batch:>9} | {gpu:>9.1} | {marker}");
        rows.push((batch, cpu1, cpu2, gpu));
    }
    let peak = rows.iter().map(|r| r.3).fold(0.0, f64::max);
    println!(
        "GPU peak = {:.1} M/s = {:.1}x one X5550 socket (paper: ~10x)",
        peak,
        peak / cpu1
    );
    rows
}

/// The paper-size run (200,000 random prefixes).
pub fn run() -> Vec<Fig2Row> {
    run_with(200_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shape_holds() {
        // Scaled-down table keeps the test fast; the shape is
        // table-size independent (7 probes either way).
        let rows = run_with(20_000);
        let cpu1 = rows[0].1;
        let cpu2 = rows[0].2;
        // Small batches lose to one CPU socket.
        let small = rows.iter().find(|r| r.0 == 64).unwrap().3;
        assert!(small < cpu1, "batch 64: GPU {small} vs CPU {cpu1}");
        // The GPU overtakes one socket somewhere in the low hundreds
        // of packets (paper: 320)...
        let cross1 = rows.iter().find(|r| r.3 > cpu1).map(|r| r.0).unwrap();
        assert!(
            (64..=1024).contains(&cross1),
            "crossover vs 1 CPU at {cross1}"
        );
        // ...and two sockets later than one socket (paper: 640).
        let cross2 = rows.iter().find(|r| r.3 > cpu2).map(|r| r.0).unwrap();
        assert!(cross2 >= cross1, "cross2 {cross2} < cross1 {cross1}");
        // Peak is roughly an order of magnitude above one socket.
        let peak = rows.iter().map(|r| r.3).fold(0.0, f64::max);
        let ratio = peak / cpu1;
        assert!((5.0..20.0).contains(&ratio), "peak ratio {ratio:.1}");
    }
}
