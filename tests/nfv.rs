//! The stateful NFV tier, end to end (ISSUE 7).
//!
//! Three layers of evidence that the flow-state architecture of
//! DESIGN.md §10 holds up:
//!
//! 1. **The cuckoo cache against a `BTreeMap` oracle** — seeded
//!    churn (insert/lookup/remove/clock-advance) must agree with the
//!    obviously-correct map exactly while there is no eviction
//!    pressure, and keep its consistency + accounting invariants once
//!    the table is slammed past capacity.
//! 2. **Million-flow scale** — NAT and the load balancer each sustain
//!    ≥ 1M concurrent flow entries under the IMIX blend with
//!    per-packet ephemeral flows, with bounded cuckoo displacement.
//! 3. **Fault composition** — a GPU-abort run through the full router
//!    loses per-node flow state (`App::on_gpu_fault`), every abort
//!    falls back to the CPU, and every packet is delivered or
//!    ledgered.

mod common;

use std::collections::BTreeMap;

use common::pre_shade_fast_path;
use packetshader::check::{check, ensure, ensure_eq, Gen};
use packetshader::core::apps::{Backend, LbApp, NatApp};
use packetshader::core::{App, Router, RouterConfig};
use packetshader::fault::FaultSpec;
use packetshader::flow::{FlowCache, FlowTuple};
use packetshader::pktgen::{Generator, TrafficSpec};
use packetshader::sim::MILLIS;

// ---------------------------------------------------------------------------
// 1. The cuckoo cache vs a BTreeMap oracle.
// ---------------------------------------------------------------------------

/// A small pool of distinct tuples; ops pick keys from here so that
/// inserts, lookups and removes actually collide.
fn key_pool(g: &mut Gen) -> Vec<FlowTuple> {
    let n = g.len_in(1, 48);
    (0..n)
        .map(|i| {
            (
                0x0A00_0000 + i as u32,
                g.value::<u32>(),
                g.int_in(1u16..60000),
                g.int_in(1u16..60000),
                if g.int_in(0u32..=1) == 0 { 6 } else { 17 },
            )
        })
        .collect()
}

/// With the table far larger than the key pool there is no eviction
/// pressure, so the cuckoo cache must behave *exactly* like a map:
/// same hits, same values, same occupancy, at every step.
#[test]
fn cuckoo_matches_btreemap_without_pressure() {
    check("cuckoo_vs_btreemap", |g: &mut Gen| {
        let keys = key_pool(g);
        let mut cache: FlowCache<u64> = FlowCache::new(4096, 0);
        let mut oracle: BTreeMap<FlowTuple, u64> = BTreeMap::new();
        let ops = g.len_in(1, 300);
        for step in 0..ops {
            let k = keys[g.int_in(0usize..=keys.len() - 1)];
            let now = step as u64;
            match g.int_in(0u32..=3) {
                0 | 1 => {
                    let v = g.value::<u64>();
                    cache.insert(k, now, v);
                    oracle.insert(k, v);
                }
                2 => {
                    ensure_eq!(
                        cache.lookup(&k, now).copied(),
                        oracle.get(&k).copied(),
                        "lookup at step {}",
                        step
                    );
                }
                _ => {
                    ensure_eq!(
                        cache.remove(&k),
                        oracle.remove(&k),
                        "remove at step {}",
                        step
                    );
                }
            }
            ensure_eq!(
                cache.occupancy(),
                oracle.len(),
                "occupancy at step {}",
                step
            );
        }
        ensure_eq!(
            cache.stats().evictions,
            0,
            "4096 slots for ≤48 keys never evict"
        );
        for k in &keys {
            ensure_eq!(cache.lookup(k, ops as u64).copied(), oracle.get(k).copied());
        }
        Ok(())
    });
}

/// Slammed past capacity the cache may *forget* (LRU eviction at the
/// cuckoo dead end) but must never *lie*: a hit always returns the
/// last value written for that key, occupancy never exceeds the slot
/// count, and the accounting identity
/// `occupancy == inserts − evictions − expiries − removals` holds
/// after every operation.
#[test]
fn cuckoo_stays_consistent_under_pressure() {
    check("cuckoo_under_pressure", |g: &mut Gen| {
        let mut cache: FlowCache<u64> = FlowCache::new(64, 0);
        let slots = cache.capacity();
        let mut oracle: BTreeMap<FlowTuple, u64> = BTreeMap::new();
        let mut removed = 0u64;
        let ops = g.len_in(1, 400);
        for step in 0..ops {
            let k: FlowTuple = (
                g.int_in(0u32..=255),
                0x0B00_0000,
                g.int_in(1u16..=4),
                80,
                17,
            );
            let now = step as u64;
            match g.int_in(0u32..=3) {
                0 | 1 => {
                    let v = g.value::<u64>();
                    cache.insert(k, now, v);
                    oracle.insert(k, v);
                }
                2 => {
                    if let Some(&got) = cache.lookup(&k, now).map(|v| &*v) {
                        ensure_eq!(
                            Some(got),
                            oracle.get(&k).copied(),
                            "hit must match the last write at step {}",
                            step
                        );
                    }
                }
                _ => {
                    if cache.remove(&k).is_some() {
                        removed += 1;
                    }
                    oracle.remove(&k);
                }
            }
            let st = cache.stats();
            ensure!(cache.occupancy() <= slots, "occupancy within slots");
            ensure_eq!(
                cache.occupancy() as u64,
                st.inserts - st.evictions - st.expiries - removed,
                "accounting identity at step {}",
                step
            );
            ensure!(st.max_depth <= 8, "kick chains are bounded");
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// 2. Million-flow scale under the IMIX blend.
// ---------------------------------------------------------------------------

/// Drive `total` generator packets through `app` in batches and
/// return the number the app forwarded.
fn drive<A: App>(app: &mut A, spec: TrafficSpec, total: usize) -> usize {
    let mut gen = Generator::new(spec);
    let mut forwarded = 0;
    let mut batch = Vec::with_capacity(8192);
    let mut left = total;
    while left > 0 {
        batch.clear();
        for _ in 0..8192.min(left) {
            batch.push(gen.next_packet().1);
        }
        left -= batch.len();
        pre_shade_fast_path(app, &mut batch);
        app.process_cpu(&mut batch);
        forwarded += batch.len();
    }
    forwarded
}

/// 1.25M ephemeral flows (IMIX blend, per-packet random tuples)
/// against a NAT sized at 2²⁰ slots per node: ≥ 1M concurrent
/// bindings stay resident, the external-pool allocator keeps up, and
/// cuckoo displacement stays within its bound.
#[test]
fn nat_sustains_a_million_concurrent_flows() {
    const N: usize = 1_250_000;
    let mut nat = NatApp::new(8, 2, 1 << 20, 0);
    let forwarded = drive(&mut nat, TrafficSpec::imix(40.0, 3), N);
    assert_eq!(forwarded, N, "every well-formed frame translates");
    let occ = nat.occupancy();
    assert!(occ >= 1_000_000, "only {occ} concurrent NAT bindings");
    let st = nat.cache_stats();
    assert!(
        st.max_depth <= 8,
        "displacement depth {} escaped its bound",
        st.max_depth
    );
    assert_eq!(
        occ as u64,
        st.inserts - st.evictions - st.expiries,
        "accounting"
    );
    assert!(
        st.evictions < (N as u64) / 100,
        "{} evictions at ~60% load — the cuckoo table is thrashing",
        st.evictions
    );
}

/// The same storm against the load balancer: ≥ 1M sticky pins across
/// the per-node caches, every packet dispatched to a live backend.
#[test]
fn lb_sustains_a_million_concurrent_flows() {
    const N: usize = 1_250_000;
    let backends: Vec<Backend> = (0..16)
        .map(|i| Backend {
            ip: 0x0A63_0001 + i,
            port: 8080,
        })
        .collect();
    let mut lb = LbApp::new(backends, 8, 2, 1 << 20, 0);
    let forwarded = drive(&mut lb, TrafficSpec::imix(40.0, 4), N);
    assert_eq!(forwarded, N, "every well-formed frame dispatches");
    let occ = lb.occupancy();
    assert!(occ >= 1_000_000, "only {occ} concurrent LB pins");
    let st = lb.cache_stats();
    assert!(st.max_depth <= 8);
    assert!(st.evictions < (N as u64) / 100);
}

// ---------------------------------------------------------------------------
// 3. Fault composition: state loss on a faulted shard, ledger intact.
// ---------------------------------------------------------------------------

/// The `gpu` fault scenario aborts batches mid-shade. Each abort also
/// flushes the faulted node's flow table (`App::on_gpu_fault`) —
/// flows re-establish through the CPU fallback path, which re-runs
/// every aborted batch.
#[test]
fn nat_state_loss_falls_back_once_per_abort() {
    let mut cfg = RouterConfig::paper_gpu();
    cfg.faults = FaultSpec::scenario("gpu")
        .expect("known scenario")
        .with_seed(0xF10);
    let spec = TrafficSpec::imix(20.0, 5).with_heavy_tail(512, 3);
    let r = Router::run(cfg, NatApp::new(8, 2, 1 << 16, 0), spec, MILLIS);
    assert!(r.delivered.packets > 0, "NAT forwards under GPU faults");
    assert!(r.faults.gpu_aborts > 0, "scenario never aborted a batch");
    assert!(
        r.faults.cpu_fallbacks > 0,
        "aborts must fall back to the CPU"
    );
    assert_eq!(
        r.faults.cpu_fallbacks,
        r.faults.gpu_aborts,
        "one fallback per abort\n{}",
        r.faults.summary_table()
    );
}

/// The same faulted run is still deterministic: two runs with the
/// same seed produce byte-identical reports even though each abort
/// tears down and rebuilds per-node flow state.
#[test]
fn faulted_nat_runs_are_deterministic() {
    let run = || {
        let mut cfg = RouterConfig::paper_gpu();
        cfg.faults = FaultSpec::scenario("gpu")
            .expect("known scenario")
            .with_seed(0xF10);
        let spec = TrafficSpec::imix(20.0, 5).with_heavy_tail(512, 3);
        format!(
            "{:?}",
            Router::run(cfg, NatApp::new(8, 2, 1 << 16, 0), spec, MILLIS / 2)
        )
    };
    assert_eq!(run(), run());
}
