//! `ps-bench` — regenerate every table and figure of the paper.
//!
//! ```text
//! ps-bench all            # everything, paper order
//! ps-bench table1         # PCIe transfer rates
//! ps-bench fig2           # IPv6 lookup, CPU vs GPU vs batch size
//! ps-bench table3 fig5 fig6 numa
//! ps-bench fig11a fig11b fig11c fig11d fig12
//! ps-bench launch spec
//! ps-bench ablate-gather ablate-streams ablate-opportunistic
//! ps-bench ablate-staging                # frames vs SoA vs direct-DMA
//! ps-bench --ablation direct-dma [o.json]# same sweep + JSON artifact
//! ps-bench overload                      # latency profiles across the knee
//! ps-bench --overload [o.json]           # same sweep + JSON artifact
//! ps-bench trace-breakdown
//! ps-bench --trace-out t.json fig6   # also dump the virtual-time trace
//! ps-bench --baseline [out.json]     # record exact counts
//! ps-bench --compare [base.json]     # fail on any drift
//! ps-bench --scaling                 # shard matrix 1/2/4/8 + speedup gate
//! ps-bench --shards 2 fig11a         # eligible runs on 2 OS threads
//! ```
//!
//! `PS_BENCH_MS` sets the virtual milliseconds per throughput run
//! (default 2; the README uses 4 for smoother numbers). `--trace-out
//! <path>` (or setting `PS_TRACE`) records every simulation under a
//! trace collector; with `--trace-out` the combined timeline is
//! written as Chrome `trace_event` JSON (see OBSERVABILITY.md).

use ps_bench::experiments as ex;
use ps_bench::timed;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--shards N` is sugar for PS_SHARDS=N: every Router::run in
    // every mode below resolves its shard count from that variable,
    // and the JSON artifact headers record it. Parsed first so it
    // composes with the exclusive modes.
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        if i + 1 >= args.len() {
            fail(2, "--shards needs a count (>= 1)");
        }
        let n = args.remove(i + 1);
        args.remove(i);
        if n.parse::<usize>().map_or(true, |n| n < 1) {
            fail(2, &format!("--shards needs a numeric count >= 1, got {n}"));
        }
        std::env::set_var("PS_SHARDS", &n);
    }
    // The exact-count gate (EXPERIMENTS.md "Exact-count baseline"):
    // exclusive modes, no tracing. `--compare` exits 1 when any row
    // differs and 2 when the file cannot be compared at all.
    if let Some(i) = args
        .iter()
        .position(|a| a == "--baseline" || a == "--compare")
    {
        let path = args.get(i + 1).map_or("BENCH_baseline.json", |p| p);
        if args[i] == "--baseline" {
            if let Err(e) = ps_bench::baseline::write_baseline(path) {
                fail(1, &format!("baseline failed: {e}"));
            }
            return;
        }
        match ps_bench::baseline::compare(path) {
            Ok(0) => return,
            Ok(_) => std::process::exit(1),
            Err(e) => fail(2, &format!("cannot compare: {e}")),
        }
    }
    // Shard scaling matrix: the replicated minimal workload at
    // shards ∈ {1,2,4,8} under identical offered load, each row gated
    // on its in-run speedup over x1 or skipped when the host is too
    // narrow to show one (see baseline::scaling_verdicts).
    if args.iter().any(|a| a == "--scaling") {
        match ps_bench::baseline::scaling() {
            0 => return,
            n => fail(1, &format!("{n} scaling gate(s) failed")),
        }
    }
    // Staging ablation with a JSON artifact: `--ablation direct-dma
    // [out.json]` runs the frames/soa/direct-dma sweep (the direct-DMA
    // delta is its headline) and writes the rows for CI upload.
    if let Some(i) = args.iter().position(|a| a == "--ablation") {
        if i + 1 >= args.len() {
            fail(2, "--ablation needs a name (direct-dma)");
        }
        let name = args.remove(i + 1);
        if name != "direct-dma" && name != "staging" {
            fail(2, &format!("unknown ablation {name} (have: direct-dma)"));
        }
        let path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "staging_ablation.json".to_string());
        if let Err(e) = ex::staging::run_and_write(&path) {
            fail(1, &format!("staging ablation failed: {e}"));
        }
        return;
    }
    // Overload sweep with a JSON artifact: `--overload [out.json]`
    // runs the load-factor x latency-profile grid (see
    // experiments::overload) and writes the rows for CI upload.
    if let Some(i) = args.iter().position(|a| a == "--overload") {
        let path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "overload_sweep.json".to_string());
        if let Err(e) = ex::overload::run_and_write(&path) {
            fail(1, &format!("overload sweep failed: {e}"));
        }
        return;
    }
    // Fault-degradation sweep: exclusive mode like the baseline
    // harness (fault plans and trace collectors are orthogonal; the
    // sweep prints its own fault_summary tables).
    if let Some(i) = args.iter().position(|a| a == "--faults") {
        if i + 1 >= args.len() {
            fail(2, "--faults needs a scenario (nic|corrupt|pcie|gpu|all)");
        }
        let scenario = args.remove(i + 1);
        if let Err(e) = ex::faults::run_and_write(&scenario) {
            fail(1, &format!("degradation sweep failed: {e}"));
        }
        return;
    }
    let mut trace_out = None;
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        if i + 1 >= args.len() {
            fail(2, "--trace-out needs a path");
        }
        trace_out = Some(args.remove(i + 1));
        args.remove(i);
    }
    if args.is_empty() {
        eprintln!("usage: ps-bench [--shards n] [--trace-out t.json] <experiment>...");
        eprintln!("       ps-bench --baseline [out.json]  (record exact counts)");
        eprintln!("       ps-bench --compare [base.json]  (fail on any drift)");
        eprintln!("       ps-bench --scaling              (shard matrix + speedup gate)");
        eprintln!("       ps-bench --faults <nic|corrupt|pcie|gpu|all>   (degradation sweep)");
        eprintln!("       ps-bench --overload [out.json]                 (load sweep + artifact)");
        eprintln!(
            "       ps-bench --ablation direct-dma [out.json]      (staging sweep + artifact)"
        );
        eprintln!("       (--shards n, or PS_SHARDS=n, runs eligible workloads on n threads)");
        eprintln!("experiments: spec table1 launch fig2 table3 fig5 fig6 numa");
        eprintln!("             fig11a fig11b fig11c fig11d fig12");
        eprintln!("             ablate-gather ablate-streams ablate-opportunistic ablate-staging");
        eprintln!("             nfv nfv-apps nfv-pressure overload trace-breakdown all");
        std::process::exit(2);
    }
    let tracing = trace_out.is_some() || std::env::var("PS_TRACE").is_ok();
    let run_all = || {
        for arg in &args {
            let ((), secs) = timed(|| dispatch(arg));
            println!("[{arg}: simulated in {secs:.1}s wall clock]");
        }
    };
    if tracing {
        let ((), collector) =
            ps_bench::trace::traced(ps_bench::trace::config_from_env_or_all(), run_all);
        if let Some(path) = trace_out {
            match ps_bench::trace::write_chrome(&collector, &path) {
                Ok(bytes) => println!("trace: wrote {path} ({bytes} bytes)"),
                Err(e) => fail(1, &format!("cannot write {path}: {e}")),
            }
        }
    } else {
        run_all();
    }
}

/// Print `msg` and exit with `code` (2: bad invocation or unusable
/// input, 1: the run itself failed).
fn fail(code: i32, msg: &str) -> ! {
    eprintln!("ps-bench: {msg}");
    std::process::exit(code)
}

fn dispatch(name: &str) {
    if name == "all" {
        return ex::run_all();
    }
    match ex::BY_NAME.iter().find(|(n, _)| *n == name) {
        Some((_, run)) => run(),
        None => {
            eprintln!("unknown experiment: {name}");
            std::process::exit(2);
        }
    }
}
