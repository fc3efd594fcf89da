//! The output check. The workload's first packets are pushed through
//! the application from outside the router: the CPU path, for GPU
//! workloads also the GPU path on a fresh device, and a reference
//! that shares no code with either (see `Workload::reference`). Every
//! packet is one attempted operation per check; whole-run checks
//! (slice-run vs `Router::run_with_shards`, repeat agreement) fail
//! every operation of the workload when they disagree.

use ps_core::{App, Mode, Router, RouterConfig};
use ps_gpu::{DeviceMemory, GpuDevice, GpuEngine};
use ps_hw::ioh::Ioh;
use ps_hw::pcie::PcieModel;
use ps_io::Packet;
use ps_pktgen::{Generator, TrafficSpec};
use ps_sim::MILLIS;

use crate::measure;
use crate::workloads::Workload;

/// Packets checked per path.
pub const ORACLE_PACKETS: usize = 2_048;

/// Operations attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Verdict {
    fn op(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = r {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    /// A whole-run check: failing it fails every operation.
    pub fn all_or_nothing(&mut self, ok: bool, why: &str) {
        self.attempted += 1;
        if !ok {
            self.failed = self.attempted;
            self.reasons.insert(0, why.to_string());
        }
    }
}

/// The first `n` packets the generator emits for `spec`.
pub fn first_packets(spec: TrafficSpec, n: usize) -> Vec<Packet> {
    let mut g = Generator::new(spec);
    (0..n).map(|_| g.next_packet().1).collect()
}

/// A GPU engine and IOH as `Router::new` builds them for one node.
pub fn fresh_gpu(cfg: &RouterConfig) -> (GpuEngine, Ioh) {
    let dev = GpuDevice {
        spec: cfg.testbed.gpu,
        mem: DeviceMemory::new(cfg.gpu_mem_bytes),
    };
    let mut eng = GpuEngine::new(dev, PcieModel::new(cfg.testbed.pcie));
    eng.concurrent_copy = cfg.concurrent_copy;
    (eng, Ioh::new(cfg.testbed.ioh))
}

/// `input` through `pre_shade` + `process_cpu` on a fresh app.
pub fn cpu_path<W: Workload>(w: &W, input: &[Packet]) -> Vec<Packet> {
    let mut app = w.app();
    let mut pkts = input.to_vec();
    app.pre_shade(&mut pkts);
    app.process_cpu(&mut pkts);
    pkts
}

/// `input` through `pre_shade` + `shade` on a fresh app and device.
/// `shade` marks drops by clearing `out_port`; they are removed here
/// so both paths return survivors only.
pub fn gpu_path<W: Workload>(w: &W, input: &[Packet]) -> Vec<Packet> {
    let cfg = w.cfg();
    let mut app = w.app();
    app.set_staging(cfg.staging);
    let (mut eng, mut ioh) = fresh_gpu(&cfg);
    app.setup_gpu(0, &mut eng);
    let mut pkts = input.to_vec();
    app.pre_shade(&mut pkts);
    app.shade(0, &mut eng, &mut ioh, 0, &mut pkts);
    pkts.retain(|p| p.out_port.is_some());
    pkts
}

/// The survivor of `out` for packet `id`, if any. Both paths keep
/// arrival order, so a cursor would do; the search keeps the check
/// independent of that.
fn find(out: &[Packet], id: u64) -> Option<&Packet> {
    out.binary_search_by_key(&id, |p| p.id)
        .ok()
        .map(|i| &out[i])
}

fn same(a: Option<&Packet>, b: Option<&Packet>) -> Result<(), String> {
    match (a, b) {
        (None, None) => Ok(()),
        (Some(a), Some(b)) if a.out_port != b.out_port => Err(format!(
            "packet {}: CPU path says {:?}, GPU path says {:?}",
            a.id, a.out_port, b.out_port
        )),
        (Some(a), Some(b)) if a.data != b.data => Err(format!(
            "packet {}: CPU and GPU paths wrote different bytes",
            a.id
        )),
        (Some(_), Some(_)) => Ok(()),
        (a, _) => Err(format!(
            "packet {}: one path dropped it",
            a.or(b).map_or(0, |p| p.id)
        )),
    }
}

/// Per-packet checks on the workload's first [`ORACLE_PACKETS`].
pub fn check_packets<W: Workload>(w: &W, spec: TrafficSpec) -> Verdict {
    let mut v = Verdict::default();
    let input = first_packets(spec, ORACLE_PACKETS);
    let cpu = cpu_path(w, &input);
    for p in &input {
        let out = find(&cpu, p.id);
        v.op(w
            .reference(p, out)
            .map_err(|why| format!("packet {}: {why}", p.id)));
    }
    if w.cfg().mode == Mode::CpuGpu {
        let gpu = gpu_path(w, &input);
        for p in &input {
            v.op(same(find(&cpu, p.id), find(&gpu, p.id)));
        }
    }
    v
}

/// The benchmark's slice-by-slice run must be the run the repository
/// itself performs: same report as `Router::run_with_shards(.., 1)`
/// over a 2 ms window.
pub fn slice_run_matches_router_run<W: Workload>(w: &W, spec: TrafficSpec) -> bool {
    let d = 2 * MILLIS;
    let sliced = measure::repeat(w, spec, d).report;
    let whole = Router::run_with_shards(w.cfg(), w.app(), spec, d, 1);
    measure::same_report(&sliced, &whole)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{IpsecGpu, MinimalCpu, NatCpu};

    #[test]
    fn healthy_workloads_pass_every_operation() {
        let v = check_packets(&MinimalCpu, MinimalCpu.spec(9));
        assert_eq!((v.attempted, v.failed), (ORACLE_PACKETS as u64, 0));
        let v = check_packets(&NatCpu, NatCpu.spec(9));
        assert_eq!(
            (v.attempted, v.failed),
            (ORACLE_PACKETS as u64, 0),
            "{:?}",
            v.reasons
        );
        let w = IpsecGpu::new();
        let v = check_packets(&w, w.spec(9));
        assert_eq!(
            (v.attempted, v.failed),
            (2 * ORACLE_PACKETS as u64, 0),
            "{:?}",
            v.reasons
        );
    }

    #[test]
    fn a_wrong_output_is_counted_not_dropped() {
        let w = MinimalCpu;
        let input = first_packets(w.spec(9), 4);
        let mut out = cpu_path(&w, &input);
        out[1].data[20] ^= 0xFF;
        out[2].out_port = None;
        let bad = (0..4)
            .filter(|&i| w.reference(&input[i], find(&out, input[i].id)).is_err())
            .count();
        assert_eq!(bad, 2);
        assert!(same(Some(&out[0]), Some(&out[0])).is_ok());
        assert!(same(Some(&out[0]), None).is_err());
        assert!(same(Some(&input[1]), Some(&out[1])).is_err());
    }

    #[test]
    fn whole_run_failure_fails_every_op() {
        let mut v = Verdict::default();
        v.op(Ok(()));
        v.op(Ok(()));
        v.all_or_nothing(true, "fine");
        assert_eq!((v.attempted, v.failed), (3, 0));
        v.all_or_nothing(false, "reports differ");
        assert_eq!((v.attempted, v.failed), (4, 4));
        assert_eq!(v.reasons[0], "reports differ");
    }

    #[test]
    fn slice_run_is_the_routers_own_run() {
        assert!(slice_run_matches_router_run(
            &MinimalCpu,
            MinimalCpu.spec(4)
        ));
    }
}
