//! `reproduce` — run one application end to end and (optionally)
//! dump the full virtual-time trace.
//!
//! ```text
//! reproduce                                   # IPv4, CPU+GPU, 40 Gbps
//! reproduce --app ipsec --gbps 20 --frame 1514
//! reproduce --app ipv4 --trace-out t.json     # Chrome trace_event JSON
//! PS_TRACE=stage,gpu reproduce --trace-out t.json
//! ```
//!
//! Flags: `--app ipv4|ipv6|openflow|ipsec|minimal|nat|lb`,
//! `--mode gpu|cpu`,
//! `--gbps <f>`, `--frame <bytes>`, `--ms <virtual ms>`,
//! `--trace-out <path>`. The trace honours `PS_TRACE` (category list)
//! and `PS_TRACE_CAP` (ring size); while `PS_TRACE` is off (unset,
//! empty or `0`) every category is recorded, in the ring
//! `PS_TRACE_CAP` sizes. The per-lane stage accounting fails the run
//! when two stage spans on one lane overlap; after writing the dump
//! the binary re-parses it and requires the dump's accounting to
//! equal the run's. See OBSERVABILITY.md.

use ps_bench::trace::{
    config_from_env, parsed_stage_spans, stage_lane_accounting, stage_spans, traced, write_chrome,
};
use ps_bench::workloads;
use ps_core::apps::{Backend, ForwardPattern, IpsecApp, LbApp, MinimalApp, NatApp};
use ps_core::{Mode, Router, RouterConfig, RouterReport};
use ps_pktgen::{TrafficKind, TrafficSpec};
use ps_sim::trace_summary::summarize;
use ps_sim::MILLIS;
use ps_trace::Collector;

struct Opts {
    app: String,
    mode: Mode,
    gbps: f64,
    frame: usize,
    ms: u64,
    trace_out: Option<String>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        app: "ipv4".to_string(),
        mode: Mode::CpuGpu,
        gbps: 40.0,
        frame: 64,
        ms: 2,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("reproduce: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--app" => opts.app = value("--app"),
            "--mode" => {
                opts.mode = match value("--mode").as_str() {
                    "gpu" => Mode::CpuGpu,
                    "cpu" => Mode::CpuOnly,
                    other => {
                        eprintln!("reproduce: unknown mode {other} (gpu|cpu)");
                        std::process::exit(2);
                    }
                }
            }
            "--gbps" => opts.gbps = value("--gbps").parse().expect("numeric --gbps"),
            "--frame" => opts.frame = value("--frame").parse().expect("numeric --frame"),
            "--ms" => opts.ms = value("--ms").parse().expect("numeric --ms"),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: reproduce [--app ipv4|ipv6|openflow|ipsec|minimal|nat|lb] \
                     [--mode gpu|cpu] [--gbps f] [--frame n] [--ms n] [--trace-out path]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("reproduce: unknown flag {other} (see --help)");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn run(opts: &Opts) -> (RouterReport, Collector) {
    let mut cfg = match opts.mode {
        Mode::CpuGpu => RouterConfig::paper_gpu(),
        Mode::CpuOnly => RouterConfig::paper_cpu(),
    };
    let mut spec = TrafficSpec {
        kind: TrafficKind::Ipv4Udp,
        frame_len: opts.frame,
        offered_bits: (opts.gbps * 1e9) as u64,
        ports: 8,
        seed: 42,
        flows: None,
        ..TrafficSpec::default()
    };
    let duration = opts.ms * MILLIS;
    // Every category unless `PS_TRACE` names some.
    let tc = config_from_env(true).expect("every category while PS_TRACE is off");
    match opts.app.as_str() {
        "ipv4" => traced(tc, || {
            Router::run(cfg, workloads::ipv4_app(50_000, 1), spec, duration)
        }),
        "ipv6" => {
            spec.kind = TrafficKind::Ipv6Udp;
            if opts.frame == 64 {
                spec.frame_len = 78; // minimum IPv6 UDP frame
            }
            traced(tc, || {
                Router::run(cfg, workloads::ipv6_app(50_000, 1), spec, duration)
            })
        }
        "openflow" => {
            spec.flows = Some(4096);
            let app = workloads::openflow_app(&spec, 4096, 0);
            traced(tc, || Router::run(cfg, app, spec, duration))
        }
        "ipsec" => {
            cfg.concurrent_copy = cfg.mode == Mode::CpuGpu;
            traced(tc, || {
                Router::run(
                    cfg,
                    IpsecApp::new([0x42; 16], 0xD00D, b"reproduce"),
                    spec,
                    duration,
                )
            })
        }
        "minimal" => traced(tc, || {
            Router::run(
                cfg,
                MinimalApp::new(ForwardPattern::SameNode, 8),
                spec,
                duration,
            )
        }),
        // The stateful NFV tier runs its standard load: IMIX frame
        // blend, 512 heavy-tailed keyed flows (--frame is ignored).
        "nat" => {
            spec = TrafficSpec::imix(opts.gbps, 42).with_heavy_tail(512, 3);
            traced(tc, || {
                Router::run(cfg, NatApp::new(8, 2, 1 << 20, 0), spec, duration)
            })
        }
        "lb" => {
            spec = TrafficSpec::imix(opts.gbps, 42).with_heavy_tail(512, 3);
            let backends: Vec<Backend> = (0..16)
                .map(|i| Backend {
                    ip: 0x0A63_0001 + i,
                    port: 8080,
                })
                .collect();
            traced(tc, || {
                Router::run(cfg, LbApp::new(backends, 8, 2, 1 << 20, 0), spec, duration)
            })
        }
        other => {
            eprintln!("reproduce: unknown app {other} (ipv4|ipv6|openflow|ipsec|minimal|nat|lb)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let opts = parse_args();
    let duration = opts.ms * MILLIS;
    let (report, collector) = run(&opts);

    println!(
        "app={} mode={} offered={:.1} Gbps frame={} window={} ms",
        opts.app,
        match opts.mode {
            Mode::CpuGpu => "gpu",
            Mode::CpuOnly => "cpu",
        },
        report.in_gbps(),
        opts.frame,
        opts.ms
    );
    println!(
        "delivered={:.1} Gbps ({:.1}% of offered) p50={} us rx_drops={} kernels={}",
        report.out_gbps(),
        report.delivery_ratio() * 100.0,
        report.latency.p50() / 1000,
        report.rx_drops(),
        report.gpu_kernels
    );
    println!();

    // Flat metrics summary over the whole run.
    let events = collector.resolved();
    let summary = summarize(&events, duration);
    print!("{}", summary.render());
    if collector.dropped > 0 {
        println!("(ring-evicted events: {})", collector.dropped);
    }

    // Per-lane busy/idle: the stage spans on a lane are disjoint, so
    // busy plus idle time is the virtual run time.
    println!();
    println!(
        "{:>5} {:>12} {:>12} {:>8}   (stage lanes; busy+idle = {} ns)",
        "lane", "busy_us", "idle_us", "busy%", duration
    );
    let accounts = stage_lane_accounting(stage_spans(&events), duration).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        std::process::exit(1);
    });
    for acc in &accounts {
        println!(
            "{:>5} {:>12.1} {:>12.1} {:>7.1}%",
            acc.lane,
            acc.busy as f64 / 1e3,
            acc.idle as f64 / 1e3,
            acc.busy as f64 / duration as f64 * 100.0
        );
    }

    if let Some(path) = &opts.trace_out {
        let bytes = write_chrome(&collector, path).unwrap_or_else(|e| {
            eprintln!("reproduce: cannot write {path}: {e}");
            std::process::exit(1);
        });
        // Validate the dump: it re-parses, and its stage spans account
        // for every lane exactly as the run's own events do.
        let json = std::fs::read_to_string(path).expect("just written");
        let parsed = ps_trace::chrome::parse(&json).unwrap_or_else(|| {
            eprintln!("reproduce: {path} failed to re-parse as trace JSON");
            std::process::exit(1);
        });
        let spans = parsed.iter().filter(|e| e.ph == 'X').count();
        let from_dump = stage_lane_accounting(parsed_stage_spans(&parsed), duration);
        if from_dump.as_ref() != Ok(&accounts) {
            eprintln!("reproduce: {path}: stage accounting of the dump differs from the run's");
            std::process::exit(1);
        }
        println!();
        println!(
            "trace: {path} ({bytes} bytes, {} events, {spans} spans) — \
             load in chrome://tracing or https://ui.perfetto.dev",
            parsed.len()
        );
    }
}
