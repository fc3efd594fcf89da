//! The repo benchmark: one process measures one workload.
//!
//! ```text
//! ps-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! ps-benchmark --compare FIRST.txt SECOND.txt
//! ```
//!
//! Without tracing it prints the end-to-end metrics; with `--trace`
//! the per-layer ones. Either way it checks the outputs first and
//! ends with one JSON result line. `benchmark/README.md` is the
//! glossary; `benchmark/run.sh` builds this binary and runs it.

mod alloc;
mod compare;
mod measure;
mod metrics;
mod oracle;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::Untraced;
use metrics::{Metric, Sheet};
use stats::quantile_interp;
use trace::{Span, Traced};
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Delivered-throughput ceiling the paper reports for IPv4 64 B
/// CPU+GPU (Fig. 11a, ~39 Gbps): the one anchor the model has.
const PAPER_IPV4_CEILING_GBPS: f64 = 39.0;

struct Args {
    workload: String,
    seed: u64,
    /// Host seconds the untraced repeats may use.
    seconds: f64,
    trace: bool,
    /// One repeat, a tenth of the virtual duration: smoke use only.
    quick: bool,
}

const USAGE: &str = "usage: ps-benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick]\n       ps-benchmark --compare FIRST SECOND";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: metrics::run_seconds(metrics::BENCHMARK_JSON),
        trace: false,
        quick: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value("a name")?,
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--quick" => a.quick = true,
            "--trace" => {
                // Bare `--trace` turns tracing on; `--trace 0|1` is
                // the form the driver uses.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of: {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(a)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

fn end_to_end(u: &Untraced) -> Vec<Metric> {
    let r = u.repeats.len();
    let pkts = u.generated() as f64;
    let first = u.first();
    let rep = &first.report;
    let exact = format!("identical in {r} repeats");
    let mut s = Sheet::new(&metrics::END_TO_END);
    s.set(
        "host_ns_per_pkt",
        u.host_ns_per_pkt(),
        format!(
            "sum of {} slice medians, each over {r} repeats, / {} generated pkts",
            measure::SLICES,
            u.generated()
        ),
    );
    s.set("setup_s", u.setup_s(), format!("median of {r} repeats"));
    s.set("peak_rss_mb", peak_rss_mib(), "VmHWM, 1 process");
    s.set("events_per_pkt", first.events as f64 / pkts, exact.as_str());
    s.set("allocs_per_pkt", first.allocs as f64 / pkts, exact.as_str());
    s.set(
        "alloc_bytes_per_pkt",
        first.alloc_bytes as f64 / pkts,
        exact.as_str(),
    );
    s.set("sim_out_gbps", rep.out_gbps(), exact.as_str());
    s.set("sim_delivered_ratio", rep.delivery_ratio(), exact.as_str());
    let rtt = format!("{} delivered pkts; {exact}", rep.latency.count());
    for (name, q) in [
        ("sim_rtt_p50_us", 0.50),
        ("sim_rtt_p99_us", 0.99),
        ("sim_rtt_p999_us", 0.999),
    ] {
        s.set(name, quantile_interp(&rep.latency, q) / 1e3, rtt.as_str());
    }
    s.finish()
}

fn per_layer(
    workload: &str,
    u: &Untraced,
    t: &Traced,
    probes: &[(&'static str, f64)],
) -> Vec<Metric> {
    let pkts = u.generated() as f64;
    let kpkts = pkts / 1e3;
    let rec = &t.rec;
    let rep = &t.report;
    let agg = |s| rec.agg(s);
    let one = "1 traced run";
    let sampled = format!("1 traced run, 1 event in {} timed", trace::PERIOD);
    let mut s = Sheet::new(&metrics::PER_LAYER);

    // Scheduler: what the event spans do not cover.
    let sched_ns = t.wall_ns as f64 - rec.events_ns();
    s.set("sim.sched_ns_per_pkt", sched_ns / pkts, sampled.as_str());
    s.set(
        "sim.ns_per_event",
        sched_ns / t.events as f64,
        sampled.as_str(),
    );

    // One row per event kind: self time, events, allocations.
    let sum = |spans: &[Span], f: &dyn Fn(&trace::Agg) -> f64| -> f64 {
        spans.iter().map(|&sp| f(agg(sp))).sum::<f64>() / pkts
    };
    let self_ns = |a: &trace::Agg| a.self_ns();
    let count = |a: &trace::Agg| a.count as f64;
    let self_allocs = |a: &trace::Agg| a.self_allocs();
    let (gen, rx, worker, master) = (
        [Span::Gen],
        [Span::RxReady],
        [Span::WorkerLoop],
        [Span::MasterLoop],
    );
    let tx = [Span::TxDone, Span::CrossArrive];
    s.set("gen.ns_per_pkt", sum(&gen, &self_ns), sampled.as_str());
    s.set("gen.events_per_pkt", sum(&gen, &count), one);
    s.set(
        "gen.allocs_per_pkt",
        sum(&gen, &self_allocs),
        sampled.as_str(),
    );
    s.set("rx.ns_per_pkt", sum(&rx, &self_ns), sampled.as_str());
    s.set("rx.events_per_pkt", sum(&rx, &count), one);
    s.set("worker.self_ns_per_pkt", sum(&worker, &self_ns), one);
    s.set("worker.events_per_pkt", sum(&worker, &count), one);
    s.set("worker.allocs_per_pkt", sum(&worker, &self_allocs), one);
    s.set("tx.ns_per_pkt", sum(&tx, &self_ns), sampled.as_str());
    s.set("tx.events_per_pkt", sum(&tx, &count), one);
    s.set(
        "master.self_ns_per_pkt",
        sum(&master, &self_ns),
        sampled.as_str(),
    );
    s.set("master.events_per_pkt", sum(&master, &count), one);
    s.set(
        "master.allocs_per_pkt",
        sum(&master, &self_allocs),
        sampled.as_str(),
    );
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    // A `MasterLoop` event calls `shade` at most once.
    s.set(
        "master.useful_event_ratio",
        ratio(agg(Span::Shade).count, agg(Span::MasterLoop).count),
        one,
    );
    s.set(
        "master.shade_batch_mean",
        ratio(agg(Span::Shade).pkts_in, agg(Span::Shade).count),
        one,
    );
    s.set(
        "worker.rx_batch_mean",
        ratio(agg(Span::PreShade).pkts_in, agg(Span::PreShade).count),
        one,
    );

    // Application calls (children of worker and master events).
    let total = |a: &trace::Agg| a.total_ns();
    let allocs = |a: &trace::Agg| a.allocs();
    s.set(
        "app.pre_shade_ns_per_pkt",
        sum(&[Span::PreShade], &total),
        one,
    );
    s.set(
        "app.process_cpu_ns_per_pkt",
        sum(&[Span::ProcessCpu], &total),
        one,
    );
    s.set("app.shade_ns_per_pkt", sum(&[Span::Shade], &total), one);
    s.set("app.allocs_per_pkt", sum(&Span::APP_CALLS, &allocs), one);

    // Counts at the NIC and GPU boundaries.
    s.set("nic.peak_ring_depth", rep.peak_ring_depth as f64, one);
    s.set(
        "nic.admission_drops_per_kpkt",
        rep.drops.nic_admission as f64 / kpkts,
        one,
    );
    s.set(
        "nic.ring_tail_drops_per_kpkt",
        rep.drops.ring_tail as f64 / kpkts,
        one,
    );
    s.set("gpu.kernels_per_kpkt", rec.gpu_kernels as f64 / kpkts, one);
    s.set(
        "gpu.h2d_bytes_per_pkt",
        rec.gpu_h2d_bytes as f64 / pkts,
        one,
    );
    s.set(
        "gpu.d2h_bytes_per_pkt",
        rec.gpu_d2h_bytes as f64 / pkts,
        one,
    );

    // Run shape, from the untraced slices.
    let r = u.repeats.len();
    let slices = format!("{r} repeats x {} untraced slices", measure::SLICES);
    s.set("run.slice_ns_per_pkt_p50", u.slice_p50(), slices.as_str());
    s.set("run.slice_ns_per_pkt_p95", u.slice_p95(), slices.as_str());
    s.set(
        "run.last_vs_first_quarter_ratio",
        u.last_vs_first_quarter(),
        slices.as_str(),
    );
    s.set(
        "trace.overhead_ratio",
        t.wall_ns as f64 / u.run_ns(),
        format!("1 traced run / untraced median of {r}"),
    );
    if workload == workloads::NAMES[1] {
        s.set(
            "model.ceiling_err_vs_paper_pct",
            (rep.out_gbps() - PAPER_IPV4_CEILING_GBPS).abs() / PAPER_IPV4_CEILING_GBPS * 100.0,
            "vs Fig. 11a, ~39 Gbps",
        );
    }

    for &(name, v) in probes {
        s.set(name, v, format!("median of {} batches", probes::BATCHES));
    }
    s.zero_rest("0 = layer absent on this workload (or no paper anchor)");
    s.finish()
}

/// How the traced rows add up, for the reader and for the acceptance
/// checks: event self times + application calls + scheduler residual
/// against the traced wall time, and the application's share.
fn trace_summary(t: &Traced) -> String {
    let rec = &t.rec;
    let apps = rec.app_ns();
    let selfs = rec.events_ns() - apps;
    let wall = t.wall_ns as f64;
    let sched = wall - rec.events_ns();
    let mut out = format!(
        "# rows: event self {selfs:.0} ns + app calls {apps:.0} ns + scheduler {sched:.0} ns = \
         {:.0} ns; traced wall {wall:.0} ns (ratio {:.6}); app share {:.4}; \
         {} ns of clock taken off each span\n",
        selfs + apps + sched,
        (selfs + apps + sched) / wall,
        apps / wall,
        rec.empty_span_ns,
    );
    for s in Span::ALL {
        let a = rec.agg(s);
        if a.count > 0 {
            out += &format!(
                "# span {:<12} n={:<9} timed={:<9} total {:>12.0} ns  self {:>12.0} ns  \
                 p50<{} ns  p99<{} ns  allocs {:.0}\n",
                s.name(),
                a.count,
                a.timed,
                a.total_ns(),
                a.self_ns(),
                a.hist.quantile_upper_ns(0.50),
                a.hist.quantile_upper_ns(0.99),
                a.allocs(),
            );
        }
    }
    out
}

fn run<W: Workload>(w: &W, a: &Args) -> ExitCode {
    let spec = w.spec(a.seed);
    let duration = if a.quick {
        w.duration() / 10
    } else {
        w.duration()
    };

    let mut verdict = oracle::check_packets(w, spec);
    verdict.all_or_nothing(
        oracle::slice_run_matches_router_run(w, spec),
        "the sliced run's report differs from Router::run_with_shards(.., 1)",
    );

    // A traced invocation spends half its budget on the untraced
    // repeats that `trace.overhead_ratio` and `run.*` are read from.
    let budget = match (a.quick, a.trace) {
        (true, _) => 0.0,
        (false, true) => a.seconds / 2.0,
        (false, false) => a.seconds,
    };
    let min_repeats = if a.quick { 1 } else { 3 };
    let u = Untraced::run(w, spec, duration, budget, min_repeats);
    verdict.all_or_nothing(
        u.repeats_agree,
        "repeats of one seed disagree on a count or sim metric",
    );

    println!(
        "# workload {} seed {} virtual {} ms, {} generated pkts, {} repeats{}",
        w.name(),
        a.seed,
        duration as f64 / 1e6,
        u.generated(),
        u.repeats.len(),
        if a.quick { " (--quick)" } else { "" }
    );
    for (i, r) in u.repeats.iter().enumerate() {
        println!(
            "# repeat {i}: set-up {:.6} s, run {:.3} ms",
            r.setup_s,
            r.slice_ns.iter().sum::<u64>() as f64 / 1e6
        );
    }
    let metrics = if a.trace {
        let t = trace::run(w, spec, duration);
        verdict.all_or_nothing(
            measure::same_report(&t.report, &u.first().report),
            "the traced run's report differs from the untraced one",
        );
        let path = PathBuf::from(format!("benchmark/out/trace-{}.jsonl", w.name()));
        match trace::write_spans(&t, &path) {
            Ok(()) => println!("# raw spans: {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        print!("{}", trace_summary(&t));
        per_layer(w.name(), &u, &t, &probes::run(w, spec))
    } else {
        end_to_end(&u)
    };
    print!("{}", metrics::table(w.name(), &metrics));
    for why in &verdict.reasons {
        println!("# check failed: {why}");
    }
    println!(
        "# ops_attempted {} ops_failed {}",
        verdict.attempted, verdict.failed
    );
    println!(
        "{}",
        metrics::result_line(verdict.attempted, verdict.failed, &metrics)
    );
    if verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, first, second] => compare::files(first, second),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let n = &workloads::NAMES;
    match args.workload.as_str() {
        w if w == n[0] => run(&workloads::Ipv4Gpu::knee(), &args),
        w if w == n[1] => run(&workloads::Ipv4Gpu::overload(), &args),
        w if w == n[2] => run(&workloads::IpsecGpu::new(), &args),
        w if w == n[3] => run(&workloads::NatCpu, &args),
        _ => run(&workloads::MinimalCpu, &args),
    }
}
