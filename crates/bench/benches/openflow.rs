//! Wall-clock microbenchmarks of the OpenFlow tables.

use ps_bench::runner::{black_box, Runner, Throughput};
use ps_bench::workloads;
use ps_openflow::flow_hash;
use ps_pktgen::TrafficSpec;

fn main() {
    let mut r = Runner::new("openflow");

    let mut spec = TrafficSpec::ipv4_64b(1.0, 17);
    spec.flows = Some(1024);
    let keys = workloads::exact_keys(&spec, 1024);
    let mut sw = workloads::openflow_switch(&spec, 1024, 64);

    let tp = Some(Throughput::Elements(keys.len() as u64));
    r.bench("openflow/flow_hash_1k", tp, || {
        let mut acc = 0u32;
        for k in &keys {
            acc = acc.wrapping_add(flow_hash(black_box(k)));
        }
        acc
    });
    // The switch's walk as the CPU path runs it: hash, then exact
    // probe, scanning the wildcards only on an exact miss.
    r.bench("openflow/exact_hit_1k", tp, || {
        for k in &keys {
            let k = black_box(k);
            black_box(sw.lookup(flow_hash(k), k, 64, None));
        }
    });

    // Wildcard scans: a key that misses the exact table.
    let mut miss = keys[0];
    miss.tp_dst ^= 0x5555;
    r.bench("openflow/wildcard_scan_64_entries", None, || {
        let k = black_box(&miss);
        sw.lookup(flow_hash(k), k, 64, None)
    });

    r.finish();
}
