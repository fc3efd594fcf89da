//! Workload builders shared by the harness, the wall-clock benches
//! and the integration tests.

use std::sync::Mutex;

use ps_core::apps::{Ipv4App, Ipv6App, OpenFlowApp};
use ps_lookup::route::{Route4, Route6};
use ps_lookup::synth;
use ps_lookup::Dir24Table;
use ps_net::FlowKey;
use ps_openflow::wildcard::wc;
use ps_openflow::{Action, OpenFlowSwitch, WildcardEntry};
use ps_pktgen::{Generator, TrafficKind, TrafficSpec};

/// The harness's standard offer: `frame_len`-byte `kind` frames at
/// `gbps` across 8 ports, seed 42, random flows.
pub fn spec(kind: TrafficKind, frame_len: usize, gbps: f64) -> TrafficSpec {
    TrafficSpec {
        kind,
        frame_len,
        offered_bits: (gbps * 1e9) as u64,
        ports: 8,
        seed: 42,
        flows: None,
        ..TrafficSpec::default()
    }
}

/// IPv4 routes: a RouteViews-shaped table plus two /1 "provider
/// default" routes so every randomly addressed packet forwards (the
/// paper's generator guarantees table hits by construction; we make
/// coverage explicit).
pub fn ipv4_routes(prefixes: usize, seed: u64) -> Vec<Route4> {
    let mut routes = vec![
        Route4::new(0x0000_0000, 1, 0),
        Route4::new(0x8000_0000, 1, 4),
    ];
    routes.extend(synth::routeviews_like(prefixes, 8, seed));
    routes
}

/// The full-size §6.2.1 table (282,797 prefixes).
pub fn ipv4_routes_paper(seed: u64) -> Vec<Route4> {
    ipv4_routes(synth::ROUTEVIEWS_PREFIXES, seed)
}

/// IPv6 routes: the §6.2.2 random table plus eight /5 roots covering
/// 2000::/3 so random global-unicast addresses always resolve.
pub fn ipv6_routes(prefixes: usize, seed: u64) -> Vec<Route6> {
    let mut routes: Vec<Route6> = (0..8u16)
        .map(|i| Route6::new((0b001u128 << 125) | (u128::from(i) << 122), 6, i % 8))
        .collect();
    routes.extend(synth::random_ipv6(prefixes, 8, seed));
    routes
}

/// The DIR-24-8 table over [`ipv4_routes`], built once per process:
/// every router point of every experiment shares its image.
pub fn ipv4_table(prefixes: usize, seed: u64) -> Dir24Table {
    static BUILT: Mutex<Vec<((usize, u64), Dir24Table)>> = Mutex::new(Vec::new());
    let mut built = BUILT.lock().expect("no builder panicked");
    if let Some((_, table)) = built.iter().find(|(k, _)| *k == (prefixes, seed)) {
        return table.clone();
    }
    let table = Dir24Table::build(&ipv4_routes(prefixes, seed));
    built.push(((prefixes, seed), table.clone()));
    table
}

/// An IPv4 app over a scaled table (full size is used by `ps-bench`,
/// smaller sizes by tests), sharing [`ipv4_table`]'s image.
pub fn ipv4_app(prefixes: usize, seed: u64) -> Ipv4App {
    Ipv4App::from_table(ipv4_table(prefixes, seed))
}

/// An IPv6 app over a scaled table.
pub fn ipv6_app(prefixes: usize, seed: u64) -> Ipv6App {
    Ipv6App::new(&ipv6_routes(prefixes, seed))
}

/// An OpenFlow switch sized per the Figure 11(c) sweeps:
///
/// * `exact_flows` exact entries matching the generator's flow
///   population (traffic spec must use `flows = Some(exact_flows)`),
/// * `decoy_wildcards` never-matching wildcard rules that force full
///   scans on exact misses,
/// * one lowest-priority catch-all forwarding rule.
pub fn openflow_switch(
    spec: &TrafficSpec,
    exact_flows: u32,
    decoy_wildcards: usize,
) -> OpenFlowSwitch {
    let mut sw = OpenFlowSwitch::new();
    if exact_flows > 0 {
        for (id, key) in exact_keys(spec, exact_flows).into_iter().enumerate() {
            sw.add_exact(key, Action::Output((id % 8) as u16));
        }
    }
    for i in 0..decoy_wildcards {
        sw.add_wildcard(WildcardEntry {
            fields: wc::TP_DST | wc::NW_PROTO,
            priority: 1000 + (i % 100) as u16,
            key: FlowKey {
                tp_dst: 65_500,
                nw_proto: 0xFD, // never generated
                ..FlowKey::default()
            },
            nw_src_mask: 0,
            nw_dst_mask: 0,
            action: Action::Drop,
        });
    }
    // Lowest priority: eight /3-destination rules spreading traffic
    // across all ports (a single catch-all would serialize the whole
    // load onto one 10 GbE port).
    for i in 0..8u16 {
        sw.add_wildcard(WildcardEntry {
            fields: wc::NW_DST,
            priority: 0,
            key: FlowKey {
                nw_dst: u32::from(i) << 29,
                ..FlowKey::default()
            },
            nw_src_mask: 0,
            nw_dst_mask: 0xE000_0000,
            action: Action::Output(i),
        });
    }
    sw
}

/// The flow keys of the generator's first `n` flows as they enter the
/// switch (flow `id`'s in-port is `id % ports` because both rotate
/// with the sequence number when `flows % ports == 0`). Single pass.
pub fn exact_keys(spec: &TrafficSpec, n: u32) -> Vec<FlowKey> {
    let flows = spec.flows.expect("flow-population spec");
    assert!(n <= flows);
    assert_eq!(
        flows % u32::from(spec.ports),
        0,
        "flow count must be a multiple of the port count for stable in_ports"
    );
    let mut g = Generator::new(*spec);
    (0..n)
        .map(|_| {
            let (_, p) = g.next_packet();
            FlowKey::extract(p.in_port.0, &p.data).expect("valid frame")
        })
        .collect()
}

/// An OpenFlow app (helper).
pub fn openflow_app(spec: &TrafficSpec, exact_flows: u32, decoy_wildcards: usize) -> OpenFlowApp {
    OpenFlowApp::new(openflow_switch(spec, exact_flows, decoy_wildcards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_lookup::route::{lpm4, lpm6};

    #[test]
    fn ipv4_workload_covers_all_addresses() {
        let routes = ipv4_routes(1000, 3);
        for addr in [0u32, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, 0x0A0B0C0D] {
            assert!(lpm4(&routes, addr).is_some(), "addr {addr:#x}");
        }
    }

    #[test]
    fn ipv6_workload_covers_global_unicast() {
        let routes = ipv6_routes(500, 3);
        for addr in [
            0b001u128 << 125,
            (0b001u128 << 125) | 0xFFFF,
            (0b001u128 << 125) | (0x7u128 << 122),
        ] {
            assert!(lpm6(&routes, addr).is_some(), "addr {addr:#x}");
        }
    }

    #[test]
    fn exact_keys_match_generated_traffic() {
        let mut spec = TrafficSpec::ipv4_64b(1.0, 17);
        spec.flows = Some(16);
        let keys = exact_keys(&spec, 16);
        // Re-generate traffic; every packet's key must be in the set.
        let mut g = Generator::new(spec);
        for _ in 0..64 {
            let (_, p) = g.next_packet();
            let k = FlowKey::extract(p.in_port.0, &p.data).unwrap();
            assert!(keys.contains(&k), "unknown flow key {k:?}");
        }
    }

    #[test]
    fn openflow_switch_config_sizes() {
        let mut spec = TrafficSpec::ipv4_64b(1.0, 17);
        spec.flows = Some(32);
        let sw = openflow_switch(&spec, 32, 10);
        assert_eq!(sw.exact.len(), 32);
        assert_eq!(sw.wildcard.len(), 18); // 10 decoys + 8 spreading rules
    }
}
