//! Trace-layer correctness: category gating and the Chrome
//! `trace_event` JSON round-trip — exercised both on a hand-built
//! collector and on a real router run, as documented in
//! OBSERVABILITY.md.

use packetshader::core::apps::Ipv4App;
use packetshader::core::{Router, RouterConfig};
use packetshader::lookup::route::Route4;
use packetshader::pktgen::TrafficSpec;
use packetshader::sim::MILLIS;
use packetshader::trace::{chrome, Category, Collector, Phase, TraceConfig};

/// Disabled categories emit nothing through any entry point.
#[test]
fn disabled_categories_emit_nothing() {
    let mut c = Collector::new(TraceConfig::categories(&[Category::Stage]));
    c.complete(Category::Gpu, "kernel", 0, 0, 10, Vec::new());
    c.counter(Category::Io, "ring_depth", 0, 5, 3);
    c.instant(Category::Fabric, "marker", 0, 7, Vec::new());
    c.complete(Category::Gpu, "copy_h2d", 0, 0, 10, vec![("bytes", 64)]);
    assert!(c.is_empty());

    // Enabled category still records.
    c.complete(Category::Stage, "pre_shade", 0, 0, 10, Vec::new());
    assert_eq!(c.len(), 1);
}

/// The global tracer honours the installed mask: a Stage-only
/// collector sees none of the Gpu/Io/Fabric traffic a router run
/// generates, and the lazy args closures of disabled categories are
/// never invoked.
#[test]
fn global_tracer_respects_mask() {
    use packetshader::trace as tr;
    assert!(!tr::is_installed());
    tr::install(Collector::new(TraceConfig::categories(&[Category::Stage])));
    assert!(tr::enabled(Category::Stage));
    assert!(!tr::enabled(Category::Gpu));
    tr::complete(Category::Gpu, "kernel", 0, 0, 10, || {
        panic!("args closure of a disabled category must not run")
    });
    tr::complete(Category::Stage, "pre_shade", 0, 0, 10, Vec::new);
    let c = tr::take().unwrap();
    assert_eq!(c.len(), 1);
    assert_eq!(c.events().next().unwrap().name, "pre_shade");
}

fn traced_ipv4_run(gbps: f64, seed: u64) -> (Collector, u64) {
    traced_ipv4_run_with(RouterConfig::paper_gpu(), gbps, seed)
}

fn traced_ipv4_run_with(cfg: RouterConfig, gbps: f64, seed: u64) -> (Collector, u64) {
    let window = MILLIS;
    let routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
    let (_, collector) = ps_bench::trace::traced(TraceConfig::all(), || {
        Router::run(
            cfg,
            Ipv4App::new(&routes),
            TrafficSpec::ipv4_64b(gbps, seed),
            window,
        )
    });
    (collector, window)
}

/// A real router run exports Chrome `trace_event` JSON that survives
/// the round trip through the in-tree parser: every resolved event
/// reappears with its timestamp, duration, and pid/tid mapping intact.
#[test]
fn chrome_json_round_trips_through_parser() {
    let (collector, _) = traced_ipv4_run(10.0, 3);
    let events = collector.resolved();
    assert!(!events.is_empty(), "router run produced no trace events");

    let json = chrome::export(&collector);
    let parsed = chrome::parse(&json).expect("exporter output must parse");
    assert_eq!(chrome::parsed_dropped(&json), Some(0));

    // Every non-metadata parsed event corresponds 1:1, in order, to a
    // resolved event; the exporter's µs formatting is lossless at ns
    // granularity.
    let payload: Vec<_> = parsed.iter().filter(|p| p.ph != 'M').collect();
    assert_eq!(payload.len(), events.len());
    for (p, e) in payload.iter().zip(&events) {
        assert_eq!(p.name, e.name);
        assert_eq!(p.ts_ns, e.ts);
        assert_eq!(p.pid, chrome::pid_of(e.cat));
        assert_eq!(p.tid, e.lane);
        match e.phase {
            Phase::Complete { dur } => {
                assert_eq!(p.ph, 'X');
                assert_eq!(p.dur_ns, dur);
            }
            Phase::Counter { value } => {
                assert_eq!(p.ph, 'C');
                assert_eq!(p.value, Some(value));
            }
            Phase::Instant => assert_eq!(p.ph, 'i'),
        }
    }
}

/// Per-lane Stage spans tile the run: on every lane they are
/// disjoint (one simulated thread works one interval at a time), so
/// busy + idle is the virtual run time, and the Chrome dump, re-parsed,
/// accounts every lane exactly as the run's own events do.
#[test]
fn stage_spans_tile_the_virtual_window() {
    use ps_bench::trace::{parsed_stage_spans, stage_lane_accounting, stage_spans};
    // With streams (`concurrent_copy`) the master gathers the next
    // batch while the previous one is still on the GPU; the shade
    // lane must still hold one span at a time.
    let streams = RouterConfig {
        concurrent_copy: true,
        ..RouterConfig::paper_gpu()
    };
    for cfg in [RouterConfig::paper_gpu(), streams] {
        let (collector, window) = traced_ipv4_run_with(cfg, 20.0, 3);
        let events = collector.resolved();
        let accounts = stage_lane_accounting(stage_spans(&events), window).unwrap();
        assert!(!accounts.is_empty());
        let parsed = chrome::parse(&chrome::export(&collector)).unwrap();
        let from_dump = stage_lane_accounting(parsed_stage_spans(&parsed), window);
        assert_eq!(from_dump.as_ref(), Ok(&accounts));
        // At 20 Gbps the workers are genuinely loaded: some lane
        // spends a nontrivial share of the window busy.
        assert!(accounts.iter().any(|a| a.busy > window / 10));
    }
}

/// The flat metrics exporter aggregates the same events the Chrome
/// exporter serializes: stage counts match between the two views.
#[test]
fn summary_agrees_with_chrome_export() {
    let (collector, window) = traced_ipv4_run(10.0, 3);
    let summary = packetshader::sim::trace_summary::summarize_collector(&collector, window);

    let json = chrome::export(&collector);
    let parsed = chrome::parse(&json).unwrap();
    let chrome_pre = parsed
        .iter()
        .filter(|p| p.ph == 'X' && p.name == "pre_shade")
        .count() as u64;
    let stat = summary.stage("pre_shade").expect("pre_shade stat");
    assert_eq!(stat.count, chrome_pre);
    assert!(stat.total_ns > 0);
    assert_eq!(stat.hist.count(), stat.count);
}
